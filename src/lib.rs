//! # setagree — condition-based k-set agreement
//!
//! A full reproduction of Bonnet & Raynal, *Conditions for Set Agreement
//! with an Application to Synchronous Systems* (ICDCS 2008), as a Rust
//! workspace. This facade crate re-exports the public API of every
//! sub-crate:
//!
//! * [`types`] — input vectors, views, distances (Section 2.1);
//! * [`conditions`] — the (x, ℓ)-legality framework, maximal conditions,
//!   counting, the lattice of Theorems 4–9 (Sections 2, 3, 5);
//! * [`sync`] — the synchronous round-based simulator (Section 6.2);
//! * [`core`] — the condition-based synchronous k-set agreement algorithm
//!   of Figure 2, baselines and the early-deciding extension (Sections 6–8);
//! * [`asynchronous`] — the shared-memory substrate and the asynchronous
//!   condition-based ℓ-set agreement algorithm (Section 4);
//! * [`obs`] — the observability layer: a lock-light metrics registry
//!   (counters, gauges, log-bucket histograms, mergeable snapshots with
//!   a Prometheus-style rendering) and a structured event recorder,
//!   threaded through every execution tier and near-free when disabled;
//! * [`runtime`] — the worker pool and `Arc`-broadcast delivery mesh the
//!   threaded and loopback executors share;
//! * [`codec`] — the shared wire tier: a never-panicking binary
//!   reader/writer, the length-prefixed network frame codec, and the
//!   hash-chained execution journal behind crash-resumable sweeps;
//! * [`node`] — the networked execution tier: a transport abstraction
//!   (in-process loopback and real TCP), the shared node round loop,
//!   and the testnet harness behind the `setagree-node` binary, with a
//!   kill-based crash adversary.
//!
//! # Quickstart
//!
//! Experiments go through the unified [`Scenario`](core::Scenario) API:
//! pick a protocol, give it an input and an adversary, choose an
//! [`Executor`](core::Executor), and run. All four executors — the
//! synchronous simulator and real-thread executor, and the seeded
//! asynchronous shared-memory and message-passing runtimes of Section 4
//! — produce the same unified [`Report`](core::Report).
//!
//! ```
//! use setagree::conditions::MaxCondition;
//! use setagree::core::{ConditionBasedConfig, Scenario};
//! use setagree::sync::FailurePattern;
//!
//! // A system of n = 6 processes, at most t = 3 crashes, deciding k = 2 values,
//! // helped by the maximal (x, ℓ) = (t − d, ℓ)-legal condition with d = 2, ℓ = 1.
//! let config = ConditionBasedConfig::builder(6, 3, 2)
//!     .condition_degree(2)
//!     .ell(1)
//!     .build()
//!     .expect("valid parameters");
//! // The oracle's legality parameters derive from the configuration, so
//! // the two cannot disagree.
//! let condition = MaxCondition::new(config.legality());
//! let report = Scenario::condition_based(config, condition)
//!     .input(vec![5u32, 5, 1, 2, 5, 5])
//!     .pattern(FailurePattern::none(6))
//!     .run()
//!     .expect("execution succeeds");
//! assert!(report.satisfies_all());
//! assert!(report.decided_values().len() <= 2);
//! ```
//!
//! Batch sweeps over executors × protocols × inputs × adversaries go
//! through [`ScenarioSuite`](core::ScenarioSuite), which fans the grid
//! out across worker threads; a grid can mix synchronous and
//! asynchronous cells, or sweep adversary seeds through the executor
//! dimension. Suites stream their cases in deterministic grid order as
//! cells complete (`run_streaming`), memoize cells in a persistable
//! [`SuiteCache`](core::SuiteCache) — a warm rerun executes zero
//! protocol steps — and take explicit `cases(...)` when a sweep pairs
//! specific specs with specific executors instead of crossing them.

#![forbid(unsafe_code)]

pub use setagree_async as asynchronous;
pub use setagree_codec as codec;
pub use setagree_conditions as conditions;
pub use setagree_core as core;
pub use setagree_node as node;
pub use setagree_obs as obs;
pub use setagree_runtime as runtime;
pub use setagree_sync as sync;
pub use setagree_types as types;
