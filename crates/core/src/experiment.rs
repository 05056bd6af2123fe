//! The unified experiment API: describe **what** to run — a
//! [`ProtocolSpec`], an input vector, an adversary — and **where** to run
//! it — an [`Executor`] — then call [`Scenario::run`] for a [`Report`].
//!
//! This replaces the four parallel `run_*` helpers and the per-backend
//! entry points (`run_protocol`, `run_loopback`) with one front door:
//!
//! ```
//! use setagree_conditions::MaxCondition;
//! use setagree_core::{ConditionBasedConfig, Executor, Scenario};
//! use setagree_sync::FailurePattern;
//!
//! let config = ConditionBasedConfig::builder(6, 3, 2)
//!     .condition_degree(2)
//!     .ell(1)
//!     .build()?;
//! let report = Scenario::condition_based(config, MaxCondition::new(config.legality()))
//!     .input(vec![5u32, 5, 1, 2, 5, 5])
//!     .pattern(FailurePattern::none(6))
//!     .executor(Executor::Simulator)
//!     .run()?;
//! assert!(report.satisfies_all());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! The same scenario runs unchanged on real OS threads
//! (`Executor::Threaded`) or under the standard arbitrary-subset crash
//! model (an [`Adversary::Unordered`] pattern) — the executor and the
//! adversary are data, not code paths the caller has to reimplement.
//!
//! The paper's **asynchronous** protocols (Section 4) are executors too:
//! [`Executor::AsyncSharedMemory`] runs the condition-based ℓ-set
//! agreement algorithm over simulated shared memory under a seeded
//! scheduler adversary, [`Executor::AsyncMessagePassing`] over reliable
//! channels under a seeded delivery adversary. Their crash schedules are
//! [`Adversary::Async`] patterns ([`AsyncCrashes`]), and the seed lives
//! in the executor, so a `Scenario` stays inert, replayable data across
//! all four executors. Build asynchronous scenarios with
//! [`Scenario::async_set_agreement`], or run a
//! [`Scenario::condition_based`] spec directly on an async executor to
//! compare the synchronous and asynchronous renderings of one condition.

use std::error::Error;
use std::fmt;
use std::marker::PhantomData;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use setagree_async::{
    default_delivery_budget, default_step_budget, execute_message_passing, execute_shared_memory,
    AsyncCrashes,
};
use setagree_conditions::{ConditionOracle, LegalityParams, MaxCondition};
pub use setagree_node::TransportKind;
use setagree_node::{run_loopback, run_loopback_faulty, NodeError};
use setagree_sync::{
    bounds, run_protocol, run_protocol_faulty, run_protocol_unordered,
    run_protocol_unordered_faulty, EngineError, FailurePattern, FaultPlan, SyncProtocol, Trace,
    UnorderedFailurePattern,
};
use setagree_types::{InputVector, ProcessId, ProposalValue};

use crate::baselines::FloodSet;
use crate::condition_based::ConditionBased;
use crate::config::ConditionBasedConfig;
use crate::early_condition::EarlyConditionBased;
use crate::early_deciding::EarlyDeciding;
use crate::report::Report;

/// Everything that can go wrong preparing or running a scenario — the
/// single error type absorbing the simulator's `EngineError` and the
/// node tier's `NodeError`.
///
/// Backend errors are *flattened* into matching variants rather than
/// wrapped (no `source()` chain): that keeps the type `Clone + Eq`,
/// which the suite's positioned per-case failures and equality-based
/// tests rely on. Backend variants this crate predates surface as
/// [`ExperimentError::Internal`] carrying the original message.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ExperimentError {
    /// [`Scenario::run`] was called before [`Scenario::input`].
    MissingInput,
    /// The input vector's length does not match the protocol's `n`.
    InputSizeMismatch {
        /// Expected system size.
        expected: usize,
        /// Input vector length.
        got: usize,
    },
    /// The spec's agreement degree is zero (`k ≥ 1` is required; the
    /// condition-based specs already reject this in `ConfigBuilder`).
    ZeroK,
    /// The failure pattern schedules more crashes than `t`.
    TooManyCrashes {
        /// The fault bound `t`.
        t: usize,
        /// Crashes scheduled.
        scheduled: usize,
    },
    /// The oracle's legality parameters disagree with the configuration's
    /// `(t − d, ℓ)` — the algorithm's guarantees presuppose they match.
    OracleMismatch {
        /// What the configuration requires.
        expected: LegalityParams,
        /// What the oracle reports.
        got: LegalityParams,
    },
    /// Some process neither decided nor crashed within the round limit.
    RoundLimitExceeded {
        /// The configured limit.
        limit: usize,
    },
    /// Process count and failure-pattern system size differ.
    SystemSizeMismatch {
        /// Protocol instances supplied.
        processes: usize,
        /// Pattern system size.
        pattern: usize,
    },
    /// A process's protocol implementation panicked (threaded and
    /// networked executors).
    ProcessPanicked {
        /// The panicking process.
        process: ProcessId,
    },
    /// The executor cannot realize the requested adversary: the threaded
    /// executor runs only the paper's ordered-send model, the networked
    /// loopback executor adds [`Adversary::Omission`], and the
    /// asynchronous executors take [`Adversary::Async`] schedules (or any
    /// failure-free pattern).
    UnsupportedAdversary {
        /// The executor that was asked.
        executor: Executor,
    },
    /// An asynchronous crash schedule names a process outside the
    /// system (the engines would silently ignore it, turning a typo
    /// into a failure-free run — mirrored after the range validation
    /// the synchronous `FailurePattern::crash` already performs).
    UnknownCrashVictim {
        /// The out-of-range process.
        victim: ProcessId,
        /// The system size.
        n: usize,
    },
    /// The executor cannot run the requested protocol: the asynchronous
    /// executors run the condition-based specs only, and the
    /// [`ProtocolKind::AsyncSetAgreement`] spec needs an asynchronous
    /// executor.
    UnsupportedProtocol {
        /// The executor that was asked.
        executor: Executor,
        /// The protocol the spec selects.
        protocol: ProtocolKind,
    },
    /// The networked executor's scenario integration runs the loopback
    /// transport only: TCP executions live in real node processes, driven
    /// by the `setagree-node` binary's testnet harness (wire codecs are
    /// per-value-type, so a generic `Scenario<V>` cannot frame them).
    UnsupportedTransport {
        /// The transport that was asked.
        transport: TransportKind,
    },
    /// A networked round timed out on peers that were never confirmed
    /// dead: still connected — slow, partitioned, or silently lossy —
    /// they sent neither their frame nor an end-of-stream before the
    /// round deadline, resend requests notwithstanding. Distinct from
    /// a crash on purpose: mislabelling a slow node as a paper-model
    /// crash would fabricate a failure pattern the adversary never
    /// scheduled.
    RoundTimeout {
        /// The round that timed out.
        round: usize,
        /// The connected but silent peers.
        peers: Vec<ProcessId>,
    },
    /// An engine or runtime error this crate predates (the backends'
    /// error enums are `#[non_exhaustive]`); carries the original
    /// message rather than mislabelling it.
    Internal {
        /// The backend error's own description.
        message: String,
    },
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::MissingInput => {
                write!(
                    f,
                    "the scenario has no input vector (call .input(...) before .run())"
                )
            }
            ExperimentError::InputSizeMismatch { expected, got } => {
                write!(
                    f,
                    "input vector has {got} entries, the system has {expected}"
                )
            }
            ExperimentError::ZeroK => write!(f, "the agreement degree k must be at least 1"),
            ExperimentError::TooManyCrashes { t, scheduled } => {
                write!(
                    f,
                    "failure pattern schedules {scheduled} crashes, bound is t = {t}"
                )
            }
            ExperimentError::OracleMismatch { expected, got } => write!(
                f,
                "oracle is built for {got} but the configuration requires {expected}"
            ),
            ExperimentError::RoundLimitExceeded { limit } => {
                write!(
                    f,
                    "execution exceeded the {limit}-round limit without termination"
                )
            }
            ExperimentError::SystemSizeMismatch { processes, pattern } => write!(
                f,
                "{processes} protocol instances but the failure pattern is over {pattern} processes"
            ),
            ExperimentError::ProcessPanicked { process } => {
                write!(f, "thread of {process} panicked")
            }
            ExperimentError::UnsupportedAdversary { executor } => write!(
                f,
                "executor {executor} cannot realize the requested adversary \
                 (threaded: ordered-send patterns; async: AsyncCrashes or failure-free)"
            ),
            ExperimentError::UnknownCrashVictim { victim, n } => write!(
                f,
                "crash schedule names {victim} but the system has only {n} processes"
            ),
            ExperimentError::UnsupportedProtocol { executor, protocol } => write!(
                f,
                "protocol {protocol} cannot run on executor {executor} \
                 (async executors run the condition-based specs; \
                 async-set-agreement specs need an async executor)"
            ),
            ExperimentError::UnsupportedTransport { transport } => write!(
                f,
                "the {transport} transport does not run through Scenario::run \
                 (use the setagree-node testnet harness for real node processes)"
            ),
            ExperimentError::RoundTimeout { round, peers } => {
                write!(f, "round {round} timed out waiting on unconfirmed peers")?;
                for (i, peer) in peers.iter().enumerate() {
                    write!(f, "{} {peer}", if i == 0 { ":" } else { "," })?;
                }
                Ok(())
            }
            ExperimentError::Internal { message } => write!(f, "backend error: {message}"),
        }
    }
}

impl Error for ExperimentError {}

impl From<EngineError> for ExperimentError {
    fn from(e: EngineError) -> Self {
        match e {
            EngineError::RoundLimitExceeded { limit } => {
                ExperimentError::RoundLimitExceeded { limit }
            }
            EngineError::SystemSizeMismatch { processes, pattern } => {
                ExperimentError::SystemSizeMismatch { processes, pattern }
            }
            other => ExperimentError::Internal {
                message: other.to_string(),
            },
        }
    }
}

impl From<NodeError> for ExperimentError {
    fn from(e: NodeError) -> Self {
        match e {
            NodeError::RoundLimitExceeded { limit } => {
                ExperimentError::RoundLimitExceeded { limit }
            }
            NodeError::SystemSizeMismatch { processes, pattern } => {
                ExperimentError::SystemSizeMismatch { processes, pattern }
            }
            NodeError::ProcessPanicked { process } => ExperimentError::ProcessPanicked { process },
            other => ExperimentError::Internal {
                message: other.to_string(),
            },
        }
    }
}

/// Where a scenario executes.
///
/// The first two executors run the **synchronous** round-based protocols;
/// the next two run the paper's **asynchronous** Section 4 algorithm, and
/// carry the adversary seed so the `Scenario` itself stays inert data:
/// the same seed replays the byte-identical interleaving, a different
/// seed is a different adversary over the same scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Executor {
    /// The deterministic in-process round simulator (fast; the default).
    #[default]
    Simulator,
    /// Real threads: one pooled node task per process over the loopback
    /// delivery mesh, driven by the same round loop as the networked
    /// tier; crash victims depart the round structure. Runs ordered-send
    /// patterns only, observationally identical to the simulator — which
    /// `tests/executor_equivalence.rs` asserts.
    Threaded,
    /// The asynchronous shared-memory runtime (Section 4): single-writer
    /// registers with atomic snapshots, a seeded scheduler picking which
    /// process takes its next linearized step. Runs the condition-based
    /// specs as ℓ-set agreement with `x = t − d` crash tolerance.
    AsyncSharedMemory {
        /// The scheduler-adversary seed.
        seed: u64,
    },
    /// The asynchronous message-passing runtime (Section 4 over reliable
    /// channels): a seeded adversary chooses delivery order. Same specs
    /// and guarantees *within the condition* as the shared-memory
    /// executor; see `setagree_async::message_passing` for the honest
    /// out-of-condition limitation.
    AsyncMessagePassing {
        /// The delivery-adversary seed.
        seed: u64,
    },
    /// The networked tier (`setagree-node`): each process is a real node,
    /// and crashes are injected by *killing* the victim — its task or
    /// process leaves the round structure instead of lingering silently.
    /// With [`TransportKind::Loopback`] the nodes are in-process tasks
    /// over the shared delivery mesh, trace-equivalent to the simulator
    /// (asserted by `tests/node_equivalence.rs`); [`TransportKind::Tcp`]
    /// executions run as real node processes through the `setagree-node`
    /// binary's testnet harness rather than through [`Scenario::run`].
    Networked {
        /// Which transport carries the rounds.
        transport: TransportKind,
    },
}

impl Executor {
    /// Whether this executor runs the asynchronous (step-based) model
    /// rather than a synchronous round-based one.
    pub fn is_async(&self) -> bool {
        matches!(
            self,
            Executor::AsyncSharedMemory { .. } | Executor::AsyncMessagePassing { .. }
        )
    }

    /// A short, stable, parameter-free name for table headings, shard
    /// summaries and logs — unlike [`fmt::Display`], which includes the
    /// adversary seed on the asynchronous executors.
    pub fn label(&self) -> &'static str {
        match self {
            Executor::Simulator => "simulator",
            Executor::Threaded => "threaded",
            Executor::AsyncSharedMemory { .. } => "async-shared-memory",
            Executor::AsyncMessagePassing { .. } => "async-message-passing",
            Executor::Networked {
                transport: TransportKind::Loopback,
            } => "networked-loopback",
            Executor::Networked {
                transport: TransportKind::Tcp,
            } => "networked-tcp",
        }
    }

    /// [`label`](Executor::label) plus a compact ` [faults …]` suffix
    /// when an injected link-fault plan shaped the run, so logs and
    /// metrics snapshots are attributable to the adversary that
    /// produced them (see [`FaultPlan::summary`]).
    pub fn label_with_faults(&self, plan: Option<&FaultPlan>) -> String {
        match plan {
            Some(plan) => format!("{} [{}]", self.label(), plan.summary()),
            None => self.label().to_string(),
        }
    }
}

impl fmt::Display for Executor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Executor::Simulator => write!(f, "simulator"),
            Executor::Threaded => write!(f, "threaded"),
            Executor::AsyncSharedMemory { seed } => {
                write!(f, "async-shared-memory(seed {seed})")
            }
            Executor::AsyncMessagePassing { seed } => {
                write!(f, "async-message-passing(seed {seed})")
            }
            Executor::Networked { transport } => write!(f, "networked({transport})"),
        }
    }
}

/// The crash adversary of a scenario: the paper's ordered-send model, the
/// standard arbitrary-subset model used by the ablations, or an
/// asynchronous step-budget schedule for the async executors.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Adversary {
    /// Ordered sends: a crash loses a *suffix* of the broadcast
    /// (Section 6.2 — the model the Figure 2 guarantees assume).
    Ordered(FailurePattern),
    /// Arbitrary-subset loss: the standard synchronous model, under which
    /// the Figure 2 agreement argument does **not** hold (the ablation of
    /// `tests/model_ablation.rs`). Simulator only.
    Unordered(UnorderedFailurePattern),
    /// Asynchronous crashes: each faulty process halts after a budget of
    /// its own steps (deliveries, for message passing). Async executors
    /// only. The schedule may exceed the condition's tolerance `x` —
    /// stranded processes then surface as `Unfinished` outcomes rather
    /// than a validation error, which is how experiments probe the
    /// impossibility frontier.
    Async(AsyncCrashes),
    /// Link omissions layered over ordered-send crashes: the seeded
    /// [`FaultPlan`] drops, delays, duplicates, reorders and partitions
    /// messages per `(round, sender, receiver)` while `crashes` keeps the
    /// paper's crash-prefix semantics. Runs on the simulator and the
    /// networked-loopback executor — byte-identically, since both realize
    /// the plan through the same `FaultInbox` (pinned by
    /// `tests/fault_equivalence.rs`). The Figure 2 sharp bounds assume
    /// reliable links, so a report under a non-benign plan falls back to
    /// the generic `⌊t/k⌋ + 1` prediction.
    Omission {
        /// The seeded link-fault plan.
        plan: FaultPlan,
        /// The crash pattern underneath the link faults.
        crashes: FailurePattern,
    },
    /// The same link-fault plan over **unordered** (arbitrary-subset)
    /// crashes — the fully hostile network: no send-order discipline *and*
    /// lossy links. Simulator only.
    Network {
        /// The seeded link-fault plan.
        plan: FaultPlan,
        /// The unordered crash pattern underneath the link faults.
        crashes: UnorderedFailurePattern,
    },
}

impl Adversary {
    /// The system size the pattern is defined over (`None` for an
    /// asynchronous schedule, which names victims without fixing `n`).
    pub fn system_size(&self) -> Option<usize> {
        match self {
            Adversary::Ordered(p) => Some(p.system_size()),
            Adversary::Unordered(p) => Some(p.system_size()),
            Adversary::Async(_) => None,
            Adversary::Omission { crashes, .. } => Some(crashes.system_size()),
            Adversary::Network { crashes, .. } => Some(crashes.system_size()),
        }
    }

    /// The number of faulty processes. Link faults are not crashes: an
    /// omission adversary counts only the processes its crash pattern
    /// kills, so the `t` budget constrains crashes exactly as in the
    /// crash-only models.
    pub fn fault_count(&self) -> usize {
        match self {
            Adversary::Ordered(p) => p.fault_count(),
            Adversary::Unordered(p) => p.fault_count(),
            Adversary::Async(c) => c.fault_count(),
            Adversary::Omission { crashes, .. } => crashes.fault_count(),
            Adversary::Network { crashes, .. } => crashes.fault_count(),
        }
    }

    /// The link-fault plan, when this adversary injects one.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        match self {
            Adversary::Omission { plan, .. } | Adversary::Network { plan, .. } => Some(plan),
            _ => None,
        }
    }

    /// The ordered pattern, when this adversary is in the paper's model.
    pub fn as_ordered(&self) -> Option<&FailurePattern> {
        match self {
            Adversary::Ordered(p) => Some(p),
            _ => None,
        }
    }
}

impl From<FailurePattern> for Adversary {
    fn from(p: FailurePattern) -> Self {
        Adversary::Ordered(p)
    }
}

impl From<UnorderedFailurePattern> for Adversary {
    fn from(p: UnorderedFailurePattern) -> Self {
        Adversary::Unordered(p)
    }
}

impl From<AsyncCrashes> for Adversary {
    fn from(c: AsyncCrashes) -> Self {
        Adversary::Async(c)
    }
}

/// Which algorithm a scenario ran — carried by every [`Report`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum ProtocolKind {
    /// The Figure 2 condition-based algorithm.
    ConditionBased,
    /// The Section 8 early-deciding condition-based combination.
    EarlyConditionBased,
    /// The \[Gafni–Guerraoui–Pochon\] early-deciding baseline.
    EarlyDeciding,
    /// The classical flood-set baseline.
    FloodSet,
    /// The Section 4 asynchronous condition-based ℓ-set agreement
    /// algorithm (runs on the async executors only).
    AsyncSetAgreement,
}

impl fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolKind::ConditionBased => write!(f, "condition-based"),
            ProtocolKind::EarlyConditionBased => write!(f, "early-condition-based"),
            ProtocolKind::EarlyDeciding => write!(f, "early-deciding"),
            ProtocolKind::FloodSet => write!(f, "floodset"),
            ProtocolKind::AsyncSetAgreement => write!(f, "async-set-agreement"),
        }
    }
}

#[derive(Clone, Hash)]
enum SpecKind<O> {
    ConditionBased {
        config: ConditionBasedConfig,
        oracle: O,
    },
    EarlyConditionBased {
        config: ConditionBasedConfig,
        oracle: O,
    },
    EarlyDeciding {
        n: usize,
        t: usize,
        k: usize,
    },
    FloodSet {
        n: usize,
        t: usize,
        k: usize,
        target_round: Option<usize>,
    },
    AsyncSetAgreement {
        n: usize,
        params: LegalityParams,
        oracle: O,
    },
}

/// Builds the process vector for a spec and hands it to a runner
/// expression — the single protocol-dispatch point shared by the
/// simulator and threaded executors, so a new [`SpecKind`] variant needs
/// exactly one arm here and cannot drift between backends.
macro_rules! dispatch_spec {
    ($spec:expr, $input:expr, |$procs:ident| $run:expr) => {
        match &$spec.kind {
            SpecKind::ConditionBased { config, oracle } => {
                let $procs = condition_processes(config, oracle, $input);
                $run
            }
            SpecKind::EarlyConditionBased { config, oracle } => {
                let $procs = early_condition_processes(config, oracle, $input);
                $run
            }
            SpecKind::EarlyDeciding { n, t, k } => {
                let $procs = early_deciding_processes(*n, *t, *k, $input);
                $run
            }
            SpecKind::FloodSet {
                t, k, target_round, ..
            } => {
                let $procs = flood_processes(*t, *k, *target_round, $input);
                $run
            }
            SpecKind::AsyncSetAgreement { .. } => {
                unreachable!("async specs are rejected before round-based dispatch")
            }
        }
    };
}

/// The algorithm a scenario runs, with its parameters and (for the
/// condition-based variants) the oracle wiring.
///
/// `V` is the proposal-value type; `O` the oracle, defaulting to the
/// analytic [`MaxCondition`].
pub struct ProtocolSpec<V, O = MaxCondition> {
    kind: SpecKind<O>,
    _values: PhantomData<fn() -> V>,
}

impl<O: Clone, V> Clone for ProtocolSpec<V, O> {
    fn clone(&self) -> Self {
        ProtocolSpec {
            kind: self.kind.clone(),
            _values: PhantomData,
        }
    }
}

/// Specs hash by protocol, parameters and oracle — the spec component of
/// a [`SuiteCache`](crate::SuiteCache) key. (Manual impl so `V`, which
/// only appears in `PhantomData`, needs no `Hash` bound.)
impl<V, O: std::hash::Hash> std::hash::Hash for ProtocolSpec<V, O> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.kind.hash(state);
    }
}

impl<V, O> fmt::Debug for ProtocolSpec<V, O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ProtocolSpec({}, n={}, t={}, k={})",
            self.protocol(),
            self.n(),
            self.t(),
            self.k()
        )
    }
}

impl<V, O> ProtocolSpec<V, O> {
    /// The Figure 2 condition-based algorithm with `oracle` deciding
    /// condition membership.
    pub fn condition_based(config: ConditionBasedConfig, oracle: O) -> Self {
        ProtocolSpec {
            kind: SpecKind::ConditionBased { config, oracle },
            _values: PhantomData,
        }
    }

    /// The Section 8 combination: Figure 2 plus the early-decision rule.
    pub fn early_condition_based(config: ConditionBasedConfig, oracle: O) -> Self {
        ProtocolSpec {
            kind: SpecKind::EarlyConditionBased { config, oracle },
            _values: PhantomData,
        }
    }

    /// The Section 4 asynchronous condition-based ℓ-set agreement
    /// algorithm over `n` processes: tolerates `params.x()` crashes and
    /// decides at most `params.ell()` values when the input is in the
    /// oracle's `(x, ℓ)`-legal condition. Runs on the async executors
    /// only ([`Executor::AsyncSharedMemory`] /
    /// [`Executor::AsyncMessagePassing`]); a round-based executor reports
    /// [`ExperimentError::UnsupportedProtocol`].
    pub fn async_set_agreement(n: usize, params: LegalityParams, oracle: O) -> Self {
        ProtocolSpec {
            kind: SpecKind::AsyncSetAgreement { n, params, oracle },
            _values: PhantomData,
        }
    }

    /// Which algorithm this spec selects.
    pub fn protocol(&self) -> ProtocolKind {
        match &self.kind {
            SpecKind::ConditionBased { .. } => ProtocolKind::ConditionBased,
            SpecKind::EarlyConditionBased { .. } => ProtocolKind::EarlyConditionBased,
            SpecKind::EarlyDeciding { .. } => ProtocolKind::EarlyDeciding,
            SpecKind::FloodSet { .. } => ProtocolKind::FloodSet,
            SpecKind::AsyncSetAgreement { .. } => ProtocolKind::AsyncSetAgreement,
        }
    }

    /// The system size `n`.
    pub fn n(&self) -> usize {
        match &self.kind {
            SpecKind::ConditionBased { config, .. }
            | SpecKind::EarlyConditionBased { config, .. } => config.n(),
            SpecKind::EarlyDeciding { n, .. }
            | SpecKind::FloodSet { n, .. }
            | SpecKind::AsyncSetAgreement { n, .. } => *n,
        }
    }

    /// The fault bound: `t` for the synchronous protocols, the condition's
    /// crash tolerance `x` for the asynchronous one.
    pub fn t(&self) -> usize {
        match &self.kind {
            SpecKind::ConditionBased { config, .. }
            | SpecKind::EarlyConditionBased { config, .. } => config.t(),
            SpecKind::EarlyDeciding { t, .. } | SpecKind::FloodSet { t, .. } => *t,
            SpecKind::AsyncSetAgreement { params, .. } => params.x(),
        }
    }

    /// The agreement degree: `k` for the synchronous protocols, `ℓ` for
    /// the asynchronous one.
    pub fn k(&self) -> usize {
        match &self.kind {
            SpecKind::ConditionBased { config, .. }
            | SpecKind::EarlyConditionBased { config, .. } => config.k(),
            SpecKind::EarlyDeciding { k, .. } | SpecKind::FloodSet { k, .. } => *k,
            SpecKind::AsyncSetAgreement { params, .. } => params.ell(),
        }
    }

    /// The condition-based configuration, when this spec carries one.
    pub fn config(&self) -> Option<&ConditionBasedConfig> {
        match &self.kind {
            SpecKind::ConditionBased { config, .. }
            | SpecKind::EarlyConditionBased { config, .. } => Some(config),
            _ => None,
        }
    }

    /// A safe default engine round limit for this spec (round-based
    /// executors; the async executors use the step budgets of
    /// `setagree-async` instead).
    fn default_round_limit(&self) -> usize {
        match &self.kind {
            SpecKind::ConditionBased { config, .. }
            | SpecKind::EarlyConditionBased { config, .. } => config.round_limit(),
            SpecKind::EarlyDeciding { t, k, .. } => bounds::round_limit(bounds::classical(*t, *k)),
            SpecKind::FloodSet {
                t, k, target_round, ..
            } => bounds::round_limit(target_round.unwrap_or(bounds::classical(*t, *k))),
            SpecKind::AsyncSetAgreement { .. } => {
                unreachable!("async specs are rejected before round-based dispatch")
            }
        }
    }
}

impl<V> ProtocolSpec<V, MaxCondition> {
    /// The classical flood-set baseline (`⌊t/k⌋ + 1` rounds).
    pub fn flood_set(n: usize, t: usize, k: usize) -> Self {
        ProtocolSpec {
            kind: SpecKind::FloodSet {
                n,
                t,
                k,
                target_round: None,
            },
            _values: PhantomData,
        }
    }

    /// A flood-set **truncated** to decide at `target_round` regardless of
    /// `⌊t/k⌋ + 1` — deliberately incorrect below the bound; used by the
    /// lower-bound demonstrations, where the resulting [`Report`] shows
    /// the agreement violation.
    pub fn flood_set_truncated(n: usize, t: usize, k: usize, target_round: usize) -> Self {
        ProtocolSpec {
            kind: SpecKind::FloodSet {
                n,
                t,
                k,
                target_round: Some(target_round),
            },
            _values: PhantomData,
        }
    }

    /// The early-deciding baseline
    /// (`min(⌊f/k⌋ + 2, ⌊t/k⌋ + 1)` rounds, `f` = actual crashes).
    pub fn early_deciding(n: usize, t: usize, k: usize) -> Self {
        ProtocolSpec {
            kind: SpecKind::EarlyDeciding { n, t, k },
            _values: PhantomData,
        }
    }
}

/// One experiment: a protocol, an input, an adversary, an executor.
///
/// Build with the protocol constructors ([`Scenario::condition_based`],
/// [`Scenario::flood_set`], …), refine with the builder methods, execute
/// with [`Scenario::run`]. A `Scenario` is inert data: running it twice
/// (or on two executors) replays the identical experiment.
///
/// Internally the spec, input and adversary are held behind [`Arc`]s, so
/// cloning a scenario — or fanning hundreds of grid cells out of one
/// spec, as [`ScenarioSuite`](crate::ScenarioSuite) does — never deep
/// copies an oracle or an input vector. The shared-ownership
/// constructors ([`Scenario::from_shared`], [`Scenario::input_shared`],
/// [`Scenario::pattern_shared`]) accept pre-made `Arc`s directly.
pub struct Scenario<V, O = MaxCondition> {
    spec: Arc<ProtocolSpec<V, O>>,
    input: Option<Arc<InputVector<V>>>,
    adversary: Option<Arc<Adversary>>,
    round_limit: Option<usize>,
    step_budget: Option<u64>,
    executor: Executor,
}

impl<V, O> Clone for Scenario<V, O> {
    fn clone(&self) -> Self {
        Scenario {
            spec: Arc::clone(&self.spec),
            input: self.input.clone(),
            adversary: self.adversary.clone(),
            round_limit: self.round_limit,
            step_budget: self.step_budget,
            executor: self.executor,
        }
    }
}

impl<V: fmt::Debug, O> fmt::Debug for Scenario<V, O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Scenario")
            .field("spec", &self.spec)
            .field("input", &self.input)
            .field("adversary", &self.adversary)
            .field("round_limit", &self.round_limit)
            .field("step_budget", &self.step_budget)
            .field("executor", &self.executor)
            .finish()
    }
}

impl<V, O> Scenario<V, O> {
    /// Wraps a prepared [`ProtocolSpec`].
    pub fn new(spec: ProtocolSpec<V, O>) -> Self {
        Scenario::from_shared(Arc::new(spec))
    }

    /// Wraps an [`Arc`]-shared [`ProtocolSpec`] without copying it —
    /// the cheap way to fan many scenarios out of one expensive spec
    /// (e.g. an `ExplicitOracle` over an enumerated condition).
    pub fn from_shared(spec: Arc<ProtocolSpec<V, O>>) -> Self {
        Scenario {
            spec,
            input: None,
            adversary: None,
            round_limit: None,
            step_budget: None,
            executor: Executor::default(),
        }
    }

    /// Shorthand for [`Scenario::new`] over
    /// [`ProtocolSpec::condition_based`].
    pub fn condition_based(config: ConditionBasedConfig, oracle: O) -> Self {
        Scenario::new(ProtocolSpec::condition_based(config, oracle))
    }

    /// Shorthand for [`Scenario::new`] over
    /// [`ProtocolSpec::early_condition_based`].
    pub fn early_condition_based(config: ConditionBasedConfig, oracle: O) -> Self {
        Scenario::new(ProtocolSpec::early_condition_based(config, oracle))
    }

    /// Shorthand for [`Scenario::new`] over
    /// [`ProtocolSpec::async_set_agreement`]. Remember to select an
    /// asynchronous [`Executor`] — the default is the (synchronous)
    /// simulator, which cannot run this spec.
    pub fn async_set_agreement(n: usize, params: LegalityParams, oracle: O) -> Self {
        Scenario::new(ProtocolSpec::async_set_agreement(n, params, oracle))
    }

    /// Sets the input vector (one proposal per process). Required.
    pub fn input(mut self, input: impl Into<InputVector<V>>) -> Self {
        self.input = Some(Arc::new(input.into()));
        self
    }

    /// Sets an [`Arc`]-shared input vector without copying its entries.
    pub fn input_shared(mut self, input: Arc<InputVector<V>>) -> Self {
        self.input = Some(input);
        self
    }

    /// Sets the crash adversary; accepts a [`FailurePattern`] (ordered
    /// sends, the paper's model), an [`UnorderedFailurePattern`]
    /// (standard model, simulator only), or an [`AsyncCrashes`] schedule
    /// (async executors only). Defaults to failure-free.
    pub fn pattern(mut self, adversary: impl Into<Adversary>) -> Self {
        self.adversary = Some(Arc::new(adversary.into()));
        self
    }

    /// Sets an [`Arc`]-shared adversary without copying its schedule.
    pub fn pattern_shared(mut self, adversary: Arc<Adversary>) -> Self {
        self.adversary = Some(adversary);
        self
    }

    /// Overrides the engine round limit on the round-based executors
    /// (default: the protocol's proven bound plus slack). Rounds and
    /// asynchronous scheduler steps are different units, so the
    /// asynchronous executors ignore this — bound them with
    /// [`Scenario::step_budget`] instead; the split keeps one limit of
    /// each kind meaningful on a scenario that runs on both models.
    pub fn round_limit(mut self, limit: usize) -> Self {
        self.round_limit = Some(limit);
        self
    }

    /// Overrides the global step budget (deliveries, for message
    /// passing) on the asynchronous executors (default: the generous
    /// `setagree-async` budgets). The round-based executors ignore this
    /// — bound them with [`Scenario::round_limit`].
    pub fn step_budget(mut self, budget: u64) -> Self {
        self.step_budget = Some(budget);
        self
    }

    /// Selects the [`Executor`] (default: the simulator).
    pub fn executor(mut self, executor: Executor) -> Self {
        self.executor = executor;
        self
    }

    /// The spec this scenario runs.
    pub fn spec(&self) -> &ProtocolSpec<V, O> {
        &self.spec
    }

    /// The spec with its shared ownership, for fanning out further
    /// scenarios without copying it.
    pub fn spec_shared(&self) -> &Arc<ProtocolSpec<V, O>> {
        &self.spec
    }
}

impl<V> Scenario<V, MaxCondition> {
    /// Shorthand for [`Scenario::new`] over [`ProtocolSpec::flood_set`].
    pub fn flood_set(n: usize, t: usize, k: usize) -> Self {
        Scenario::new(ProtocolSpec::flood_set(n, t, k))
    }

    /// Shorthand for [`Scenario::new`] over
    /// [`ProtocolSpec::flood_set_truncated`].
    pub fn flood_set_truncated(n: usize, t: usize, k: usize, target_round: usize) -> Self {
        Scenario::new(ProtocolSpec::flood_set_truncated(n, t, k, target_round))
    }

    /// Shorthand for [`Scenario::new`] over
    /// [`ProtocolSpec::early_deciding`].
    pub fn early_deciding(n: usize, t: usize, k: usize) -> Self {
        Scenario::new(ProtocolSpec::early_deciding(n, t, k))
    }
}

impl<V: ProposalValue, O: ConditionOracle<V> + Clone> Scenario<V, O> {
    /// Validates the scenario and returns the input plus the effective
    /// adversary (failure-free when none was set — an [`AsyncCrashes`]
    /// schedule on the async executors, an ordered pattern otherwise).
    fn validate(&self) -> Result<(&Arc<InputVector<V>>, Arc<Adversary>), ExperimentError> {
        let n = self.spec.n();
        let t = self.spec.t();
        if self.spec.k() == 0 {
            return Err(ExperimentError::ZeroK);
        }
        let input = self.input.as_ref().ok_or(ExperimentError::MissingInput)?;
        if input.len() != n {
            return Err(ExperimentError::InputSizeMismatch {
                expected: n,
                got: input.len(),
            });
        }
        let adversary = self.adversary.clone().unwrap_or_else(|| {
            Arc::new(if self.executor.is_async() {
                Adversary::Async(AsyncCrashes::none())
            } else {
                Adversary::Ordered(FailurePattern::none(n))
            })
        });
        // Async schedules are exempt from the crash budget on purpose:
        // over-budget schedules probe the impossibility frontier, and the
        // engine reports stranded processes honestly as `Unfinished` —
        // but the victims must exist, or the engine would silently skip
        // them and a mistyped schedule would test the failure-free case.
        if let Adversary::Async(crashes) = &*adversary {
            if let Some(victim) = crashes.victims().find(|v| v.index() >= n) {
                return Err(ExperimentError::UnknownCrashVictim { victim, n });
            }
        } else if adversary.fault_count() > t {
            return Err(ExperimentError::TooManyCrashes {
                t,
                scheduled: adversary.fault_count(),
            });
        }
        match &self.spec.kind {
            SpecKind::ConditionBased { config, oracle }
            | SpecKind::EarlyConditionBased { config, oracle } => {
                let expected = config.legality();
                let got = oracle.params();
                if expected != got {
                    return Err(ExperimentError::OracleMismatch { expected, got });
                }
            }
            SpecKind::AsyncSetAgreement { params, oracle, .. } => {
                let got = oracle.params();
                if *params != got {
                    return Err(ExperimentError::OracleMismatch {
                        expected: *params,
                        got,
                    });
                }
            }
            _ => {}
        }
        Ok((input, adversary))
    }

    /// The round the paper's formulas predict for this scenario — the
    /// bound [`Report::within_predicted_rounds`] is checked against.
    ///
    /// Ordered adversaries get the sharp case analysis (Lemmas 1–2,
    /// Theorem 10 and the adaptive Section 8 bound); unordered ones get
    /// the only bound that survives the model ablation, `⌊t/k⌋ + 1` — a
    /// flood-set's bound is adversary-independent (its explicit target
    /// round when truncated), so it is handled once, up front.
    fn predicted_rounds(&self, input: &InputVector<V>, adversary: &Adversary) -> usize {
        if let SpecKind::FloodSet {
            t, k, target_round, ..
        } = &self.spec.kind
        {
            return target_round.unwrap_or(bounds::classical(*t, *k));
        }
        let Some(pattern) = adversary.as_ordered() else {
            return bounds::from_round_two(bounds::classical(self.spec.t(), self.spec.k()));
        };
        match &self.spec.kind {
            SpecKind::ConditionBased { config, oracle }
            | SpecKind::EarlyConditionBased { config, oracle } => {
                let figure_2 = bounds::figure_2(
                    oracle.matches(&input.to_view()),
                    pattern.crashes_by_round(1),
                    pattern.initial_crash_count(),
                    config.t(),
                    config.d(),
                    config.ell(),
                    config.k(),
                );
                if matches!(self.spec.kind, SpecKind::EarlyConditionBased { .. }) {
                    figure_2.min(bounds::section_8(pattern.fault_count(), config.k()))
                } else {
                    figure_2
                }
            }
            SpecKind::EarlyDeciding { t, k, .. } => {
                bounds::early_deciding(pattern.fault_count(), *t, *k)
            }
            SpecKind::FloodSet { .. } => unreachable!("handled before the adversary split"),
            SpecKind::AsyncSetAgreement { .. } => {
                unreachable!("async specs are rejected before round-based dispatch")
            }
        }
    }

    /// Rejects an async spec on a round-based executor (the guard behind
    /// the `unreachable!` arms of the round-based dispatch).
    fn reject_async_spec(&self, executor: Executor) -> Result<(), ExperimentError> {
        if matches!(self.spec.kind, SpecKind::AsyncSetAgreement { .. }) {
            return Err(ExperimentError::UnsupportedProtocol {
                executor,
                protocol: self.spec.protocol(),
            });
        }
        Ok(())
    }

    /// Runs the scenario on the deterministic simulator regardless of
    /// the configured executor.
    ///
    /// Unlike [`Scenario::run`] this needs no `Send + 'static` bounds,
    /// so it accepts oracles that cannot cross threads (e.g. an
    /// `ExplicitOracle` over a borrowing recognizing function).
    ///
    /// # Errors
    ///
    /// As [`Scenario::run`], minus the executor-specific failures.
    pub fn run_simulated(&self) -> Result<Report<V>, ExperimentError> {
        self.reject_async_spec(Executor::Simulator)?;
        let (input, adversary) = self.validate()?;
        let predicted = self.predicted_rounds(input, &adversary);
        let limit = self
            .round_limit
            .unwrap_or_else(|| self.spec.default_round_limit());
        let trace = dispatch_spec!(self.spec, input, |procs| run_sim(procs, &adversary, limit))?;
        Ok(Report::new(
            trace,
            Arc::clone(input),
            self.spec.k(),
            predicted,
            self.spec.protocol(),
            Executor::Simulator,
        ))
    }

    /// Runs the scenario on one of the asynchronous runtimes.
    ///
    /// Like [`Scenario::run_simulated`] this needs no `Send + 'static`
    /// bounds. Supported specs: [`ProtocolSpec::async_set_agreement`]
    /// (the native Section 4 experiment) and
    /// [`ProtocolSpec::condition_based`] (the same condition rendered in
    /// the asynchronous model with `x = t − d` and agreement degree ℓ).
    /// The [`Report`]'s agreement degree is ℓ — the guarantee the
    /// asynchronous algorithm actually offers.
    fn run_on_async(&self, executor: Executor) -> Result<Report<V>, ExperimentError> {
        let (input, adversary) = self.validate()?;
        // validate() has checked the oracle's (x, ℓ) against the spec
        // (for condition-based specs, config.legality() = (t − d, ℓ)),
        // so the oracle's own params are the single source of truth here.
        let oracle = match &self.spec.kind {
            SpecKind::AsyncSetAgreement { oracle, .. }
            | SpecKind::ConditionBased { oracle, .. } => oracle,
            _ => {
                return Err(ExperimentError::UnsupportedProtocol {
                    executor,
                    protocol: self.spec.protocol(),
                })
            }
        };
        let (x, ell) = (oracle.params().x(), oracle.params().ell());
        let crashes = match &*adversary {
            Adversary::Async(crashes) => crashes.clone(),
            // Any failure-free pattern means "no crashes" in every model,
            // so shared suite grids can mix sync and async cells — but a
            // live fault plan is not failure-free, and silently ignoring
            // it would report a benign run as a faulty one.
            other
                if other.fault_count() == 0 && other.fault_plan().is_none_or(|p| p.is_benign()) =>
            {
                AsyncCrashes::none()
            }
            _ => return Err(ExperimentError::UnsupportedAdversary { executor }),
        };
        let n = self.spec.n();
        let budget = self.step_budget;
        let async_report = match executor {
            Executor::AsyncSharedMemory { seed } => execute_shared_memory(
                oracle,
                x,
                input,
                &crashes,
                seed,
                budget.unwrap_or_else(|| default_step_budget(n)),
            ),
            Executor::AsyncMessagePassing { seed } => execute_message_passing(
                oracle,
                x,
                input,
                &crashes,
                seed,
                budget.unwrap_or_else(|| default_delivery_budget(n)),
            ),
            _ => unreachable!("run() routes only async executors here"),
        };
        Ok(Report::new_async(
            async_report,
            Arc::clone(input),
            ell,
            self.spec.protocol(),
            executor,
        ))
    }
}

impl<V, O> Scenario<V, O>
where
    V: ProposalValue + Send + Sync + 'static,
    O: ConditionOracle<V> + Clone + Send + 'static,
{
    /// Runs the scenario on the configured executor.
    ///
    /// The `Send + Sync + 'static` bounds exist for the node arm
    /// (recipient threads share each broadcast behind an `Arc`); a
    /// non-`Send` oracle can still run on the simulator through
    /// [`Scenario::run_simulated`].
    ///
    /// # Errors
    ///
    /// Validation failures (sizes, crash budget, oracle wiring), engine
    /// failures (round limit), and executor-specific failures (a panicked
    /// process thread, an adversary or protocol the executor cannot
    /// realize).
    pub fn run(&self) -> Result<Report<V>, ExperimentError> {
        match self.executor {
            Executor::Simulator => self.run_simulated(),
            Executor::AsyncSharedMemory { .. } | Executor::AsyncMessagePassing { .. } => {
                self.run_on_async(self.executor)
            }
            Executor::Threaded | Executor::Networked { .. } => self.run_on_nodes(),
        }
    }

    /// The threaded and networked arm: one pooled node task per process
    /// over the loopback transport (`setagree_node::run_loopback`),
    /// victims killed mid-round. `Executor::Threaded` runs the paper's
    /// ordered-send patterns; `Executor::Networked` with
    /// [`TransportKind::Loopback`] also runs [`Adversary::Omission`].
    fn run_on_nodes(&self) -> Result<Report<V>, ExperimentError> {
        let executor = self.executor;
        self.reject_async_spec(executor)?;
        if let Executor::Networked { transport } = executor {
            if transport != TransportKind::Loopback {
                return Err(ExperimentError::UnsupportedTransport { transport });
            }
        }
        let (input, adversary) = self.validate()?;
        let predicted = self.predicted_rounds(input, &adversary);
        let limit = self
            .round_limit
            .unwrap_or_else(|| self.spec.default_round_limit());
        let trace = match &*adversary {
            Adversary::Ordered(pattern) => dispatch_spec!(self.spec, input, |procs| run_loopback(
                procs, pattern, limit
            )
            .map_err(ExperimentError::from))?,
            Adversary::Omission { plan, crashes } if executor != Executor::Threaded => {
                dispatch_spec!(self.spec, input, |procs| run_loopback_faulty(
                    procs, crashes, plan, limit
                )
                .map_err(ExperimentError::from))?
            }
            _ => return Err(ExperimentError::UnsupportedAdversary { executor }),
        };
        Ok(Report::new(
            trace,
            Arc::clone(input),
            self.spec.k(),
            predicted,
            self.spec.protocol(),
            executor,
        ))
    }
}

fn condition_processes<V: ProposalValue, O: ConditionOracle<V> + Clone>(
    config: &ConditionBasedConfig,
    oracle: &O,
    input: &InputVector<V>,
) -> Vec<ConditionBased<V, O>> {
    ProcessId::all(config.n())
        .map(|id| ConditionBased::new(*config, id, input.get(id).clone(), oracle.clone()))
        .collect()
}

fn early_condition_processes<V: ProposalValue, O: ConditionOracle<V> + Clone>(
    config: &ConditionBasedConfig,
    oracle: &O,
    input: &InputVector<V>,
) -> Vec<EarlyConditionBased<V, O>> {
    ProcessId::all(config.n())
        .map(|id| EarlyConditionBased::new(*config, id, input.get(id).clone(), oracle.clone()))
        .collect()
}

fn early_deciding_processes<V: ProposalValue>(
    n: usize,
    t: usize,
    k: usize,
    input: &InputVector<V>,
) -> Vec<EarlyDeciding<V>> {
    input
        .iter()
        .map(|v| EarlyDeciding::new(n, t, k, v.clone()))
        .collect()
}

fn flood_processes<V: ProposalValue>(
    t: usize,
    k: usize,
    target_round: Option<usize>,
    input: &InputVector<V>,
) -> Vec<FloodSet<V>> {
    input
        .iter()
        .map(|v| match target_round {
            Some(target) => FloodSet::with_target_round(target, v.clone()),
            None => FloodSet::new(t, k, v.clone()),
        })
        .collect()
}

fn run_sim<P: SyncProtocol>(
    processes: Vec<P>,
    adversary: &Adversary,
    limit: usize,
) -> Result<Trace<P::Output>, ExperimentError> {
    match adversary {
        Adversary::Ordered(pattern) => Ok(run_protocol(processes, pattern, limit)?),
        Adversary::Unordered(pattern) => Ok(run_protocol_unordered(processes, pattern, limit)?),
        Adversary::Async(_) => Err(ExperimentError::UnsupportedAdversary {
            executor: Executor::Simulator,
        }),
        Adversary::Omission { plan, crashes } => {
            Ok(run_protocol_faulty(processes, crashes, plan, limit)?)
        }
        Adversary::Network { plan, crashes } => Ok(run_protocol_unordered_faulty(
            processes, crashes, plan, limit,
        )?),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use setagree_sync::{CrashSpec, Partition};
    use setagree_types::ProcessSet;

    fn config(n: usize, t: usize, k: usize, d: usize, ell: usize) -> ConditionBasedConfig {
        ConditionBasedConfig::builder(n, t, k)
            .condition_degree(d)
            .ell(ell)
            .build()
            .unwrap()
    }

    #[test]
    fn executor_labels_carry_the_fault_plan_summary() {
        let executor = Executor::Networked {
            transport: TransportKind::Tcp,
        };
        assert_eq!(executor.label_with_faults(None), "networked-tcp");
        let mut side = ProcessSet::empty(5);
        side.insert(ProcessId::new(0));
        side.insert(ProcessId::new(1));
        let plan = FaultPlan::uniform_drop(5, 0xCAFE, 1500).partition(Partition::new(side, 1, 1));
        assert_eq!(
            executor.label_with_faults(Some(&plan)),
            format!("networked-tcp [{}]", plan.summary()),
        );
        assert_eq!(
            executor.label_with_faults(Some(&plan)),
            "networked-tcp [faults 51966:1500 partitions:1]",
        );
    }

    #[test]
    fn condition_based_scenario_checks_out() {
        let cfg = config(6, 3, 2, 2, 1);
        let report = Scenario::condition_based(cfg, MaxCondition::new(cfg.legality()))
            .input(vec![5u32, 5, 1, 2, 5, 5])
            .run()
            .unwrap();
        assert!(report.satisfies_all());
        assert_eq!(report.predicted_rounds(), Some(2));
        assert!(report.within_predicted_rounds());
        assert_eq!(report.protocol(), ProtocolKind::ConditionBased);
        assert_eq!(report.executor(), Executor::Simulator);
    }

    #[test]
    fn both_executors_agree_on_the_trace() {
        let cfg = config(6, 3, 2, 2, 1);
        let mut pattern = FailurePattern::none(6);
        pattern
            .crash(ProcessId::new(5), CrashSpec::new(1, 3))
            .unwrap();
        let scenario = Scenario::condition_based(cfg, MaxCondition::new(cfg.legality()))
            .input(vec![5u32, 5, 1, 2, 5, 5])
            .pattern(pattern);
        let simulated = scenario.run().unwrap();
        let threaded = scenario.executor(Executor::Threaded).run().unwrap();
        assert_eq!(simulated.trace(), threaded.trace());
        assert_eq!(threaded.executor(), Executor::Threaded);
    }

    #[test]
    fn flood_set_and_early_deciding_scenarios() {
        let report = Scenario::flood_set(4, 2, 1)
            .input(vec![3u32, 9, 1, 4])
            .run()
            .unwrap();
        assert!(report.satisfies_all());
        assert_eq!(report.predicted_rounds(), Some(3));
        assert_eq!(report.decided_values(), [9].into_iter().collect());

        let report = Scenario::early_deciding(4, 2, 1)
            .input(vec![3u32, 9, 1, 4])
            .run()
            .unwrap();
        assert!(report.satisfies_all());
        assert_eq!(report.predicted_rounds(), Some(2));
        assert!(report.within_predicted_rounds());
    }

    #[test]
    fn async_set_agreement_scenario_checks_out() {
        let params = LegalityParams::new(1, 1).unwrap();
        let scenario = Scenario::async_set_agreement(4, params, MaxCondition::new(params))
            .input(vec![7u32, 7, 7, 2])
            .pattern(AsyncCrashes::none().crash_after(ProcessId::new(3), 0));
        for seed in 0..10 {
            let report = scenario
                .clone()
                .executor(Executor::AsyncSharedMemory { seed })
                .run()
                .unwrap();
            assert!(report.satisfies_all(), "seed {seed}: {report}");
            assert_eq!(report.protocol(), ProtocolKind::AsyncSetAgreement);
            assert_eq!(report.executor(), Executor::AsyncSharedMemory { seed });
            assert_eq!(report.k(), 1);
            assert_eq!(report.async_report().unwrap().crashed_count(), 1);

            let mp = scenario
                .clone()
                .executor(Executor::AsyncMessagePassing { seed })
                .run()
                .unwrap();
            assert!(mp.satisfies_all(), "seed {seed}: {mp}");
        }
    }

    #[test]
    fn condition_based_specs_run_on_async_executors() {
        // (n, t, k, d, ℓ) = (6, 3, 2, 2, 1): asynchronously the same
        // condition solves ℓ = 1-set agreement despite x = t − d = 1
        // crashes. The report's agreement degree is ℓ, not the sync k.
        let cfg = config(6, 3, 2, 2, 1);
        let report = Scenario::condition_based(cfg, MaxCondition::new(cfg.legality()))
            .input(vec![5u32, 5, 5, 2, 5, 5])
            .executor(Executor::AsyncSharedMemory { seed: 3 })
            .run()
            .unwrap();
        assert!(report.satisfies_all(), "{report}");
        assert_eq!(report.k(), 1);
        assert_eq!(report.protocol(), ProtocolKind::ConditionBased);
        assert!(report.trace().is_none() && report.async_report().is_some());
    }

    #[test]
    fn async_specs_are_rejected_on_round_executors() {
        let params = LegalityParams::new(1, 1).unwrap();
        let scenario = Scenario::async_set_agreement(4, params, MaxCondition::new(params))
            .input(vec![7u32, 7, 7, 2]);
        for executor in [Executor::Simulator, Executor::Threaded] {
            let err = scenario.clone().executor(executor).run().unwrap_err();
            assert_eq!(
                err,
                ExperimentError::UnsupportedProtocol {
                    executor,
                    protocol: ProtocolKind::AsyncSetAgreement
                }
            );
        }
    }

    #[test]
    fn round_protocols_are_rejected_on_async_executors() {
        let executor = Executor::AsyncMessagePassing { seed: 0 };
        let err = Scenario::flood_set(4, 2, 1)
            .input(vec![3u32, 9, 1, 4])
            .executor(executor)
            .run()
            .unwrap_err();
        assert_eq!(
            err,
            ExperimentError::UnsupportedProtocol {
                executor,
                protocol: ProtocolKind::FloodSet
            }
        );
        assert!(err.to_string().contains("cannot run"));
    }

    #[test]
    fn crashing_sync_patterns_are_rejected_on_async_executors() {
        let params = LegalityParams::new(1, 1).unwrap();
        let executor = Executor::AsyncSharedMemory { seed: 0 };
        // Failure-free ordered patterns are accepted (shared suite grids)…
        let ok = Scenario::async_set_agreement(4, params, MaxCondition::new(params))
            .input(vec![7u32, 7, 7, 2])
            .pattern(FailurePattern::none(4))
            .executor(executor)
            .run();
        assert!(ok.is_ok());
        // …but a synchronous pattern that actually crashes is not
        // expressible in the asynchronous model.
        let mut pattern = FailurePattern::none(4);
        pattern
            .crash(ProcessId::new(1), CrashSpec::new(1, 2))
            .unwrap();
        let err = Scenario::async_set_agreement(4, params, MaxCondition::new(params))
            .input(vec![7u32, 7, 7, 2])
            .pattern(pattern)
            .executor(executor)
            .run()
            .unwrap_err();
        assert_eq!(err, ExperimentError::UnsupportedAdversary { executor });
    }

    #[test]
    fn async_oracle_params_are_validated() {
        let params = LegalityParams::new(2, 1).unwrap();
        let wrong = MaxCondition::new(LegalityParams::new(1, 1).unwrap());
        let err = Scenario::async_set_agreement(5, params, wrong)
            .input(vec![7u32, 7, 7, 7, 2])
            .executor(Executor::AsyncSharedMemory { seed: 0 })
            .run()
            .unwrap_err();
        assert!(matches!(err, ExperimentError::OracleMismatch { .. }));
    }

    #[test]
    fn async_over_budget_schedules_probe_the_frontier() {
        // 3 initial crashes against x = 1: legal to schedule — the report
        // shows the stranded survivor instead of a validation error. It
        // never sees n − x = 3 entries, so it keeps stepping until the
        // budget cuts it off: with no step_budget set, the run's length
        // is exactly the default budget.
        let params = LegalityParams::new(1, 1).unwrap();
        let crashes = AsyncCrashes::none()
            .crash_after(ProcessId::new(0), 0)
            .crash_after(ProcessId::new(1), 0)
            .crash_after(ProcessId::new(2), 0);
        let scenario = Scenario::async_set_agreement(4, params, MaxCondition::new(params))
            .input(vec![5u32, 5, 1, 2])
            .pattern(crashes);
        for seed in [0, 7, 42] {
            let report = scenario
                .clone()
                .executor(Executor::AsyncSharedMemory { seed })
                .run()
                .unwrap();
            let stranded = report.async_report().unwrap();
            assert_eq!(stranded.unfinished_count(), 1, "seed {seed}");
            assert_eq!(
                stranded.total_steps(),
                default_step_budget(4),
                "seed {seed}"
            );
            assert!(!report.within_predicted_rounds(), "budget cut the run off");
        }
    }

    #[test]
    fn step_budget_override_bounds_async_runs_and_round_limit_does_not() {
        // A 1-step budget cannot finish anything: everyone unfinished.
        let params = LegalityParams::new(1, 1).unwrap();
        let scenario = Scenario::async_set_agreement(4, params, MaxCondition::new(params))
            .input(vec![7u32, 7, 7, 2])
            .executor(Executor::AsyncSharedMemory { seed: 7 });
        let report = scenario.clone().step_budget(1).run().unwrap();
        assert_eq!(report.async_report().unwrap().unfinished_count(), 4);
        assert_eq!(report.total_steps(), Some(1));
        // round_limit measures rounds, not steps: a mixed suite's sync
        // round limit must not strangle the async cells.
        let report = scenario.round_limit(1).run().unwrap();
        assert!(report.satisfies_all(), "{report}");
    }

    #[test]
    fn async_crash_victims_must_exist() {
        let params = LegalityParams::new(1, 1).unwrap();
        let err = Scenario::async_set_agreement(4, params, MaxCondition::new(params))
            .input(vec![7u32, 7, 7, 2])
            .pattern(AsyncCrashes::none().crash_after(ProcessId::new(7), 0))
            .executor(Executor::AsyncSharedMemory { seed: 0 })
            .run()
            .unwrap_err();
        assert_eq!(
            err,
            ExperimentError::UnknownCrashVictim {
                victim: ProcessId::new(7),
                n: 4
            }
        );
        assert!(err.to_string().contains("only 4 processes"));
    }

    #[test]
    fn truncated_flood_set_reports_the_violation() {
        // The chain adversary defeats a t-round flood-set (t + 1 is the
        // consensus bound) — the Report shows the split honestly.
        let n = 5;
        let t = 3;
        let inputs: Vec<u32> = (0..n).map(|i| if i == 0 { 9 } else { 1 }).collect();
        let report = Scenario::flood_set_truncated(n, t, 1, t)
            .input(inputs)
            .pattern(FailurePattern::chain(n, t))
            .run()
            .unwrap();
        assert!(
            !report.satisfies_agreement(),
            "t rounds must split under the chain"
        );
    }

    #[test]
    fn missing_input_is_reported() {
        let err = Scenario::<u32>::flood_set(4, 2, 1).run().unwrap_err();
        assert_eq!(err, ExperimentError::MissingInput);
    }

    #[test]
    fn input_size_is_validated() {
        let cfg = config(6, 3, 2, 2, 1);
        let err = Scenario::condition_based(cfg, MaxCondition::new(cfg.legality()))
            .input(vec![1u32, 2])
            .run()
            .unwrap_err();
        assert_eq!(
            err,
            ExperimentError::InputSizeMismatch {
                expected: 6,
                got: 2
            }
        );
    }

    #[test]
    fn crash_budget_is_validated() {
        let pattern =
            FailurePattern::initial(4, [ProcessId::new(0), ProcessId::new(1), ProcessId::new(2)])
                .unwrap();
        let err = Scenario::flood_set(4, 2, 1)
            .input(vec![1u32, 2, 3, 4])
            .pattern(pattern)
            .run()
            .unwrap_err();
        assert_eq!(err, ExperimentError::TooManyCrashes { t: 2, scheduled: 3 });
    }

    #[test]
    fn oracle_params_are_validated() {
        let cfg = config(6, 3, 2, 2, 1); // requires (x, ℓ) = (1, 1)
        let wrong = MaxCondition::new(LegalityParams::new(2, 1).unwrap());
        let err = Scenario::condition_based(cfg, wrong)
            .input(vec![5u32, 5, 1, 2, 5, 5])
            .run()
            .unwrap_err();
        assert!(matches!(err, ExperimentError::OracleMismatch { .. }));
        assert!(err.to_string().contains("requires"));
    }

    #[test]
    fn unordered_adversary_runs_on_the_simulator_only() {
        let mut delivered = ProcessSet::empty(4);
        delivered.insert(ProcessId::new(2));
        let mut pattern = UnorderedFailurePattern::none(4);
        pattern
            .crash(
                ProcessId::new(0),
                setagree_sync::SubsetCrash::new(1, delivered),
            )
            .unwrap();

        let scenario = Scenario::flood_set(4, 2, 1)
            .input(vec![3u32, 9, 1, 4])
            .pattern(pattern);
        let report = scenario.run().unwrap();
        assert!(report.satisfies_termination());

        let err = scenario.executor(Executor::Threaded).run().unwrap_err();
        assert_eq!(
            err,
            ExperimentError::UnsupportedAdversary {
                executor: Executor::Threaded
            }
        );
    }

    #[test]
    fn zero_k_is_rejected_not_a_panic() {
        let err = Scenario::flood_set(4, 2, 0)
            .input(vec![1u32, 2, 3, 4])
            .run()
            .unwrap_err();
        assert_eq!(err, ExperimentError::ZeroK);
        let err = Scenario::early_deciding(4, 2, 0)
            .input(vec![1u32, 2, 3, 4])
            .run()
            .unwrap_err();
        assert_eq!(err, ExperimentError::ZeroK);
    }

    #[test]
    fn round_limit_override_is_honoured() {
        let err = Scenario::flood_set(4, 2, 1)
            .input(vec![3u32, 9, 1, 4])
            .round_limit(1)
            .run()
            .unwrap_err();
        assert_eq!(err, ExperimentError::RoundLimitExceeded { limit: 1 });
    }

    #[test]
    fn error_conversions_and_display() {
        let e: ExperimentError = EngineError::RoundLimitExceeded { limit: 5 }.into();
        assert_eq!(e, ExperimentError::RoundLimitExceeded { limit: 5 });
        let e: ExperimentError = NodeError::ProcessPanicked {
            process: ProcessId::new(1),
        }
        .into();
        assert!(e.to_string().contains("panicked"));
        assert!(ExperimentError::MissingInput.to_string().contains("input"));
        let timeout = ExperimentError::RoundTimeout {
            round: 3,
            peers: vec![ProcessId::new(1), ProcessId::new(4)],
        };
        assert_eq!(
            timeout.to_string(),
            "round 3 timed out waiting on unconfirmed peers: p2, p5"
        );
    }

    #[test]
    fn omission_adversary_runs_on_simulator_and_networked_loopback() {
        let plan = FaultPlan::new(4, 0xC0FFEE)
            .drop_rate(1500)
            .reorder_rate(3000);
        let mut crashes = FailurePattern::none(4);
        crashes
            .crash(ProcessId::new(3), CrashSpec::new(1, 1))
            .unwrap();
        let scenario = Scenario::flood_set(4, 2, 1)
            .input(vec![3u32, 9, 1, 4])
            .pattern(Adversary::Omission {
                plan: plan.clone(),
                crashes,
            })
            .round_limit(20);
        let simulated = scenario.run().unwrap();
        let networked = scenario
            .clone()
            .executor(Executor::Networked {
                transport: TransportKind::Loopback,
            })
            .run()
            .unwrap();
        assert_eq!(simulated.trace(), networked.trace());
        // Sharp Figure-2-style bounds assume reliable links, so omission
        // reports carry only the generic fallback prediction.
        assert_eq!(simulated.predicted_rounds(), Some(3));

        let err = scenario.executor(Executor::Threaded).run().unwrap_err();
        assert_eq!(
            err,
            ExperimentError::UnsupportedAdversary {
                executor: Executor::Threaded
            }
        );
    }

    #[test]
    fn benign_omission_plan_reproduces_the_crash_only_report() {
        let mut crashes = FailurePattern::none(4);
        crashes
            .crash(ProcessId::new(0), CrashSpec::new(1, 2))
            .unwrap();
        let base = Scenario::flood_set(4, 2, 1).input(vec![3u32, 9, 1, 4]);
        let plain = base.clone().pattern(crashes.clone()).run().unwrap();
        let benign = base
            .pattern(Adversary::Omission {
                plan: FaultPlan::none(4),
                crashes,
            })
            .run()
            .unwrap();
        assert_eq!(plain.trace(), benign.trace());
    }

    #[test]
    fn network_adversary_composes_unordered_crashes_with_link_faults() {
        let mut delivered = ProcessSet::empty(4);
        delivered.insert(ProcessId::new(2));
        let mut crashes = UnorderedFailurePattern::none(4);
        crashes
            .crash(
                ProcessId::new(0),
                setagree_sync::SubsetCrash::new(1, delivered),
            )
            .unwrap();
        let plan = FaultPlan::new(4, 7).drop_rate(2000).duplicate_rate(1000);
        let scenario = Scenario::flood_set(4, 2, 1)
            .input(vec![3u32, 9, 1, 4])
            .pattern(Adversary::Network { plan, crashes })
            .round_limit(20);
        let first = scenario.run().unwrap();
        let second = scenario.run().unwrap();
        assert_eq!(first.trace(), second.trace());
        assert!(first.satisfies_termination());
    }

    #[test]
    fn live_fault_plans_do_not_masquerade_as_failure_free_on_async_executors() {
        let cfg = config(6, 3, 2, 2, 1);
        let scenario = Scenario::condition_based(cfg, MaxCondition::new(cfg.legality()))
            .input(vec![5u32, 5, 1, 2, 5, 5])
            .executor(Executor::AsyncSharedMemory { seed: 1 });
        let benign = scenario
            .clone()
            .pattern(Adversary::Omission {
                plan: FaultPlan::none(6),
                crashes: FailurePattern::none(6),
            })
            .run()
            .unwrap();
        assert!(benign.satisfies_all());
        let err = scenario
            .pattern(Adversary::Omission {
                plan: FaultPlan::new(6, 3).drop_rate(1000),
                crashes: FailurePattern::none(6),
            })
            .run()
            .unwrap_err();
        assert_eq!(
            err,
            ExperimentError::UnsupportedAdversary {
                executor: Executor::AsyncSharedMemory { seed: 1 }
            }
        );
    }
}
