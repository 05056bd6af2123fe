//! The paper's primary contribution: the **generic condition-based
//! synchronous k-set agreement algorithm** of Figure 2 (Bonnet & Raynal,
//! ICDCS 2008, Sections 6–8), together with the classical baselines it is
//! compared against.
//!
//! * [`ConditionBased`] — the Figure 2 protocol, instantiated with a
//!   condition `C ∈ S^d_t[ℓ]` through a
//!   [`ConditionOracle`](setagree_conditions::ConditionOracle). When the
//!   input vector belongs to `C` it decides in
//!   `max(2, ⌊(d+ℓ−1)/k⌋ + 1)` rounds (two rounds if at most `t−d`
//!   processes crash in round 1); otherwise in `⌊t/k⌋ + 1` rounds. Every
//!   round bound is defined once, in [`setagree_sync::bounds`].
//! * [`FloodSet`] — the classical unconditioned synchronous k-set
//!   agreement (`⌊t/k⌋ + 1` rounds; consensus for `k = 1`).
//! * [`EarlyDeciding`] — the early-deciding k-set agreement of
//!   \[Gafni–Guerraoui–Pochon 2005\], deciding in
//!   `min(⌊f/k⌋ + 2, ⌊t/k⌋ + 1)` rounds where `f` is the number of actual
//!   crashes (the extension sketched in the paper's Section 8).
//! * [`experiment`] — the unified **experiment API**: a [`Scenario`]
//!   describes one run (protocol spec, input, adversary, executor) and
//!   produces a [`Report`] checking termination/validity/agreement and
//!   comparing measured rounds against the paper's formulas. The
//!   executors cover both of the paper's models: the synchronous
//!   simulator and real-thread executor, and the Section 4 asynchronous
//!   shared-memory and message-passing runtimes
//!   ([`Executor::AsyncSharedMemory`] / [`Executor::AsyncMessagePassing`],
//!   seeded adversaries included);
//! * [`suite`] — [`ScenarioSuite`], the batch layer running cartesian
//!   grids of scenarios across worker threads; executors are a grid
//!   dimension, so one grid can mix synchronous and asynchronous cells.
//!   Suites stream ([`ScenarioSuite::run_streaming`] /
//!   [`ScenarioSuite::stream`] emit cases in deterministic grid order as
//!   they complete), share their specs/inputs/patterns with the workers
//!   via `Arc`, and take explicit [`cases`](ScenarioSuite::cases) for
//!   heterogeneous sweeps the product cannot express;
//! * [`cache`] — [`SuiteCache`], the suite result cache: warm cells are
//!   served without re-execution under a stable hash of (spec, input,
//!   pattern, executor-including-seed), in memory or persisted to a
//!   file.
//!
//! # Quickstart
//!
//! ```
//! use setagree_conditions::MaxCondition;
//! use setagree_core::{ConditionBasedConfig, Executor, Scenario};
//! use setagree_sync::FailurePattern;
//!
//! // n = 6, t = 3, k = 2, condition of degree d = 2 with ℓ = 1.
//! let config = ConditionBasedConfig::builder(6, 3, 2)
//!     .condition_degree(2)
//!     .ell(1)
//!     .build()?;
//! // The oracle's legality parameters come from the configuration —
//! // (x, ℓ) = (t − d, ℓ) = (1, 1) here — so they cannot drift apart.
//! let oracle = MaxCondition::new(config.legality());
//! let report = Scenario::condition_based(config, oracle)
//!     .input(vec![5u32, 5, 1, 2, 5, 5]) // in C_max(1, 1)
//!     .pattern(FailurePattern::none(6))
//!     .run()?;
//! assert!(report.satisfies_agreement());
//! assert!(report.satisfies_validity());
//! // Input in condition, no crashes: everyone decides in two rounds.
//! assert_eq!(report.decision_round(), Some(2));
//!
//! // The identical scenario on real OS threads:
//! let threaded = Scenario::condition_based(config, oracle)
//!     .input(vec![5u32, 5, 1, 2, 5, 5])
//!     .executor(Executor::Threaded)
//!     .run()?;
//! assert!(threaded.satisfies_all());
//!
//! // And the same condition in the asynchronous shared-memory model
//! // (Section 4): ℓ-set agreement despite x = t − d crashes, under a
//! // seeded scheduler adversary.
//! let asynchronous = Scenario::condition_based(config, oracle)
//!     .input(vec![5u32, 5, 1, 2, 5, 5])
//!     .executor(Executor::AsyncSharedMemory { seed: 42 })
//!     .run()?;
//! assert!(asynchronous.satisfies_all());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod baselines;
pub mod cache;
pub mod codec;
pub mod condition_based;
pub mod config;
pub mod dense_flood;
pub mod early_condition;
pub mod early_deciding;
pub mod experiment;
pub mod report;
mod round_one;
pub mod suite;

pub use baselines::FloodSet;
pub use cache::{CacheKey, CacheableValue, CachedResult, JournalReplayStats, SuiteCache};
pub use condition_based::{CbMessage, ConditionBased};
pub use config::{ConditionBasedConfig, ConfigBuilder, ConfigError};
pub use dense_flood::DenseFlood;
pub use early_condition::{EarlyConditionBased, EcbMessage};
pub use early_deciding::EarlyDeciding;
pub use experiment::{Adversary, Executor, ExperimentError, ProtocolKind, ProtocolSpec, Scenario};
pub use report::{Execution, Report};
// Re-exported so scenario authors can build async adversaries and read
// raw async outcomes without a separate setagree-async dependency.
pub use setagree_async::{AsyncCrashes, AsyncOutcome, AsyncReport};
// Re-exported so cache/journal users can read tail verdicts and write
// CacheableValue impls without a separate setagree-codec dependency.
pub use setagree_codec::journal::JournalTail;
pub use setagree_codec::{DecodeError, Reader, Writer};
// Re-exported so scenario authors can select the networked executor's
// transport without a separate setagree-node dependency.
pub use setagree_node::TransportKind;
// Re-exported so scenario authors can build omission adversaries
// (Adversary::Omission / Adversary::Network) without a separate
// setagree-sync dependency.
pub use setagree_sync::{FaultPlan, LinkFault, Partition, RATE_SCALE};
pub use suite::{CaseSpec, ScenarioSuite, SuiteCase, SuiteReport, SuiteRun, SuiteRunStats};
