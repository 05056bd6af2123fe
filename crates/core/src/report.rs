//! Execution reports: one run of an agreement protocol, with the paper's
//! properties checked against the execution record — the single result
//! type every [`Scenario`](crate::Scenario) run produces, whatever the
//! protocol and executor.
//!
//! A report records one of two execution shapes, [`Execution`]:
//! synchronous executors produce a round-based [`Trace`] plus the round
//! bound the paper's formulas predict; the asynchronous executors produce
//! a step-based [`AsyncReport`] with per-process outcomes. The property
//! checks (termination, validity, agreement) read uniformly through
//! either shape, so suite verdicts and table binaries treat mixed
//! synchronous/asynchronous grids alike.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use setagree_async::AsyncReport;
use setagree_sync::Trace;
use setagree_types::{InputVector, ProposalValue};

use crate::experiment::{Executor, ProtocolKind};

/// How a run's execution was recorded.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Execution<V: Ord> {
    /// A synchronous round-based run ([`Executor::Simulator`] /
    /// [`Executor::Threaded`]).
    Rounds {
        /// The raw execution trace.
        trace: Trace<V>,
        /// The round bound the paper's formulas predict for the scenario.
        predicted_rounds: usize,
    },
    /// An asynchronous step-based run ([`Executor::AsyncSharedMemory`] /
    /// [`Executor::AsyncMessagePassing`]).
    Steps(AsyncReport<V>),
}

/// The outcome of one run: the execution record plus the parameters
/// needed to check termination, validity and agreement — annotated with
/// which protocol produced it and which executor ran it.
///
/// The input vector is held behind an [`Arc`]: a suite fanning one input
/// across many grid cells shares it with every report rather than
/// copying it per cell. Equality ([`PartialEq`]) compares the pointed-to
/// data, so a cache-served report compares equal to the original.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Report<V: Ord> {
    execution: Execution<V>,
    input: Arc<InputVector<V>>,
    k: usize,
    protocol: ProtocolKind,
    executor: Executor,
}

impl<V: ProposalValue> Report<V> {
    pub(crate) fn new(
        trace: Trace<V>,
        input: Arc<InputVector<V>>,
        k: usize,
        predicted_rounds: usize,
        protocol: ProtocolKind,
        executor: Executor,
    ) -> Self {
        Report {
            execution: Execution::Rounds {
                trace,
                predicted_rounds,
            },
            input,
            k,
            protocol,
            executor,
        }
    }

    /// Wraps a trace produced *outside* `Scenario::run` — by an external
    /// execution tier such as the `setagree-node` testnet harness, which
    /// assembles its trace from real node processes — so external runs
    /// flow through the same verdict machinery (`satisfies_all`,
    /// `within_predicted_rounds`, Display) as in-process ones.
    pub fn from_trace(
        trace: Trace<V>,
        input: InputVector<V>,
        k: usize,
        predicted_rounds: usize,
        protocol: ProtocolKind,
        executor: Executor,
    ) -> Self {
        Report::new(
            trace,
            Arc::new(input),
            k,
            predicted_rounds,
            protocol,
            executor,
        )
    }

    /// Wraps an [`AsyncReport`] produced *outside* `Scenario::run` — the
    /// step-based counterpart of [`Report::from_trace`], used by the
    /// wire codec and by external async execution tiers — so it flows
    /// through the same verdict machinery as in-process runs.
    pub fn from_async(
        report: AsyncReport<V>,
        input: InputVector<V>,
        k: usize,
        protocol: ProtocolKind,
        executor: Executor,
    ) -> Self {
        Report::new_async(report, Arc::new(input), k, protocol, executor)
    }

    pub(crate) fn new_async(
        report: AsyncReport<V>,
        input: Arc<InputVector<V>>,
        k: usize,
        protocol: ProtocolKind,
        executor: Executor,
    ) -> Self {
        Report {
            execution: Execution::Steps(report),
            input,
            k,
            protocol,
            executor,
        }
    }

    /// Which algorithm produced this report.
    pub fn protocol(&self) -> ProtocolKind {
        self.protocol
    }

    /// Which executor ran the scenario.
    pub fn executor(&self) -> Executor {
        self.executor
    }

    /// The raw execution record.
    pub fn execution(&self) -> &Execution<V> {
        &self.execution
    }

    /// The raw execution trace, when the run was round-based.
    pub fn trace(&self) -> Option<&Trace<V>> {
        match &self.execution {
            Execution::Rounds { trace, .. } => Some(trace),
            Execution::Steps(_) => None,
        }
    }

    /// The raw asynchronous report, when the run was step-based.
    pub fn async_report(&self) -> Option<&AsyncReport<V>> {
        match &self.execution {
            Execution::Rounds { .. } => None,
            Execution::Steps(report) => Some(report),
        }
    }

    /// The input vector of the run.
    pub fn input(&self) -> &InputVector<V> {
        &self.input
    }

    /// The agreement degree the run was checked against: `k` for the
    /// synchronous protocols, ℓ for the asynchronous ones.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The round bound predicted by the paper's formulas for this run's
    /// scenario (`None` for the asynchronous executors, which have no
    /// round structure to predict).
    pub fn predicted_rounds(&self) -> Option<usize> {
        match &self.execution {
            Execution::Rounds {
                predicted_rounds, ..
            } => Some(*predicted_rounds),
            Execution::Steps(_) => None,
        }
    }

    /// The set of decided values.
    pub fn decided_values(&self) -> BTreeSet<V> {
        match &self.execution {
            Execution::Rounds { trace, .. } => trace.decided_values(),
            Execution::Steps(report) => report.decided_values(),
        }
    }

    /// The latest decision round (`None` if nobody decided — possible only
    /// when every process crashed — or if the run was asynchronous and
    /// measured steps, not rounds).
    pub fn decision_round(&self) -> Option<usize> {
        match &self.execution {
            Execution::Rounds { trace, .. } => trace.last_decision_round(),
            Execution::Steps(_) => None,
        }
    }

    /// Total scheduler steps (deliveries, for message passing) consumed —
    /// the asynchronous cost measure; `None` for round-based runs.
    pub fn total_steps(&self) -> Option<u64> {
        match &self.execution {
            Execution::Rounds { .. } => None,
            Execution::Steps(report) => Some(report.total_steps()),
        }
    }

    /// Termination: every non-crashed process decided.
    ///
    /// For an asynchronous run this is the condition-based sense of
    /// Section 4 — honest, since outside the condition the algorithm may
    /// block forever and the report then says `false`.
    pub fn satisfies_termination(&self) -> bool {
        match &self.execution {
            Execution::Rounds { trace, .. } => trace.all_correct_decided(),
            Execution::Steps(report) => report.all_correct_decided(),
        }
    }

    /// Validity: every decided value was proposed.
    pub fn satisfies_validity(&self) -> bool {
        let proposed = self.input.distinct_values();
        self.decided_values().iter().all(|v| proposed.contains(v))
    }

    /// Agreement: at most [`Report::k`] distinct values decided.
    pub fn satisfies_agreement(&self) -> bool {
        self.decided_values().len() <= self.k
    }

    /// All three properties at once.
    pub fn satisfies_all(&self) -> bool {
        self.satisfies_termination() && self.satisfies_validity() && self.satisfies_agreement()
    }

    /// Whether the run finished within the predicted resource bound: the
    /// paper's round formula for a synchronous run; for an asynchronous
    /// run, that no process was cut off by the scheduler's step budget
    /// (every process decided, blocked, or crashed — the only "on time"
    /// an asynchronous model can promise).
    pub fn within_predicted_rounds(&self) -> bool {
        match &self.execution {
            Execution::Rounds {
                trace,
                predicted_rounds,
            } => match trace.last_decision_round() {
                Some(r) => r <= *predicted_rounds,
                None => true, // everyone crashed; vacuously on time
            },
            Execution::Steps(report) => report.all_settled_or_crashed(),
        }
    }
}

impl<V: ProposalValue + fmt::Debug> fmt::Display for Report<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.execution {
            Execution::Rounds {
                predicted_rounds, ..
            } => write!(
                f,
                "{} on {}: decided {:?} in {:?} round(s) [predicted ≤ {}] — termination {} validity {} agreement {}",
                self.protocol,
                self.executor,
                self.decided_values(),
                self.decision_round(),
                predicted_rounds,
                self.satisfies_termination(),
                self.satisfies_validity(),
                self.satisfies_agreement(),
            ),
            Execution::Steps(report) => write!(
                f,
                "{} on {}: {report} — termination {} validity {} agreement {}",
                self.protocol,
                self.executor,
                self.satisfies_termination(),
                self.satisfies_validity(),
                self.satisfies_agreement(),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use setagree_async::{execute_shared_memory, AsyncCrashes};
    use setagree_conditions::{LegalityParams, MaxCondition};
    use setagree_sync::{run_protocol, FailurePattern, Step, SyncProtocol};
    use setagree_types::ProcessId;

    #[derive(Debug)]
    struct Fixed(u32);
    impl SyncProtocol for Fixed {
        type Msg = ();
        type Output = u32;
        fn message(&mut self, _round: usize) {}
        fn receive(&mut self, _round: usize, _from: ProcessId, _msg: &()) {}
        fn compute(&mut self, _round: usize) -> Step<u32> {
            Step::Decide(self.0)
        }
    }

    fn report(decisions: &[u32], k: usize, predicted: usize) -> Report<u32> {
        let procs: Vec<Fixed> = decisions.iter().map(|&v| Fixed(v)).collect();
        let n = procs.len();
        let trace = run_protocol(procs, &FailurePattern::none(n), 5).unwrap();
        Report::new(
            trace,
            Arc::new(InputVector::new(decisions.to_vec())),
            k,
            predicted,
            ProtocolKind::FloodSet,
            Executor::Simulator,
        )
    }

    fn async_report(entries: &[u32], x: usize, ell: usize, seed: u64) -> Report<u32> {
        let params = LegalityParams::new(x, ell).unwrap();
        let input = InputVector::new(entries.to_vec());
        let raw = execute_shared_memory(
            &MaxCondition::new(params),
            x,
            &input,
            &AsyncCrashes::none(),
            seed,
            1024,
        );
        Report::new_async(
            raw,
            Arc::new(input),
            ell,
            ProtocolKind::AsyncSetAgreement,
            Executor::AsyncSharedMemory { seed },
        )
    }

    #[test]
    fn properties_on_agreeing_run() {
        let r = report(&[4, 4, 4], 1, 1);
        assert!(r.satisfies_all());
        assert!(r.within_predicted_rounds());
        assert_eq!(r.decided_values(), [4].into_iter().collect());
        assert_eq!(r.decision_round(), Some(1));
        assert_eq!(r.k(), 1);
        assert_eq!(r.predicted_rounds(), Some(1));
        assert!(r.trace().is_some());
        assert!(r.async_report().is_none());
        assert_eq!(r.total_steps(), None);
    }

    #[test]
    fn agreement_fails_beyond_k() {
        let r = report(&[1, 2, 3], 2, 1);
        assert!(!r.satisfies_agreement());
        assert!(r.satisfies_validity());
        assert!(!r.satisfies_all());
    }

    #[test]
    fn validity_detects_foreign_values() {
        // Deciders return their input here, so validity holds by
        // construction; check the negative path via a doctored input.
        let procs = vec![Fixed(9), Fixed(9)];
        let trace = run_protocol(procs, &FailurePattern::none(2), 5).unwrap();
        let r = Report::new(
            trace,
            Arc::new(InputVector::new(vec![1u32, 2])),
            1,
            1,
            ProtocolKind::FloodSet,
            Executor::Simulator,
        );
        assert!(!r.satisfies_validity());
    }

    #[test]
    fn async_run_reads_through_the_same_checks() {
        // In C_max(1, 1): the top value 7 covers 3 > x entries.
        let r = async_report(&[7, 7, 7, 2], 1, 1, 11);
        assert!(r.satisfies_all(), "{r}");
        assert!(r.within_predicted_rounds(), "nobody cut off by the budget");
        assert_eq!(r.decision_round(), None);
        assert_eq!(r.predicted_rounds(), None);
        assert!(r.trace().is_none());
        let raw = r.async_report().expect("step-based execution");
        assert_eq!(raw.crashed_count(), 0);
        assert_eq!(r.total_steps(), Some(raw.total_steps()));
        assert_eq!(r.executor(), Executor::AsyncSharedMemory { seed: 11 });
    }

    #[test]
    fn async_blocking_reads_as_non_termination() {
        // All-distinct input is outside C_max(1, 1): blocked processes
        // must fail termination but never agreement or validity.
        let r = async_report(&[1, 2, 3, 4], 1, 1, 5);
        assert!(!r.satisfies_termination(), "{r}");
        assert!(r.satisfies_validity());
        assert!(r.satisfies_agreement());
        assert!(!r.satisfies_all());
    }

    #[test]
    fn display_mentions_the_verdicts() {
        let s = report(&[4, 4], 1, 2).to_string();
        assert!(s.contains("termination true"));
        assert!(s.contains("agreement true"));
        let s = async_report(&[7, 7, 7, 2], 1, 1, 3).to_string();
        assert!(s.contains("async-shared-memory"));
        assert!(s.contains("termination true"));
    }
}
