//! Execution traces: what each process decided, and when.

use std::collections::BTreeSet;
use std::fmt;

use serde::{Deserialize, Serialize};

use setagree_types::ProcessId;

/// The fate of one process in an execution.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Outcome<Out> {
    /// The process decided `value` at the end of `round`.
    Decided {
        /// The decided value.
        value: Out,
        /// The (1-based) round of the decision.
        round: usize,
    },
    /// The process crashed during `round` without deciding.
    Crashed {
        /// The crash round.
        round: usize,
    },
    /// The execution hit the engine's round limit before the process
    /// decided — a termination bug in the protocol under test.
    Undecided,
}

impl<Out> Outcome<Out> {
    /// The decided value, if the process decided.
    pub fn decided_value(&self) -> Option<&Out> {
        match self {
            Outcome::Decided { value, .. } => Some(value),
            _ => None,
        }
    }

    /// The decision round, if the process decided.
    pub fn decision_round(&self) -> Option<usize> {
        match self {
            Outcome::Decided { round, .. } => Some(*round),
            _ => None,
        }
    }

    /// Returns `true` if the process crashed.
    pub fn is_crashed(&self) -> bool {
        matches!(self, Outcome::Crashed { .. })
    }
}

/// The result of one synchronous execution.
///
/// Agreement, validity and termination checks are methods here so tests and
/// benches interrogate executions uniformly.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Trace<Out> {
    outcomes: Vec<Outcome<Out>>,
    rounds_executed: usize,
    messages_delivered: u64,
}

impl<Out: Clone + Ord> Trace<Out> {
    pub(crate) fn new(
        outcomes: Vec<Outcome<Out>>,
        rounds_executed: usize,
        messages_delivered: u64,
    ) -> Self {
        Trace {
            outcomes,
            rounds_executed,
            messages_delivered,
        }
    }

    /// Assembles a trace from parts. Intended for alternative executors
    /// (e.g. the thread-based runtime) that produce the same observable
    /// data as [`run_protocol`](crate::run_protocol); such executors can
    /// then be compared for equality against the simulator.
    pub fn from_parts(
        outcomes: Vec<Outcome<Out>>,
        rounds_executed: usize,
        messages_delivered: u64,
    ) -> Self {
        Trace::new(outcomes, rounds_executed, messages_delivered)
    }

    /// The per-process outcomes, indexed by process.
    pub fn outcomes(&self) -> &[Outcome<Out>] {
        &self.outcomes
    }

    /// The outcome of one process.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a process of this system.
    pub fn outcome(&self, id: ProcessId) -> &Outcome<Out> {
        &self.outcomes[id.index()]
    }

    /// The number of rounds the engine executed before everyone decided or
    /// crashed.
    pub fn rounds_executed(&self) -> usize {
        self.rounds_executed
    }

    /// The total number of message deliveries: one per message and
    /// recipient it reached, however the executor handed it over — a
    /// folded batch of `m` messages
    /// ([`SyncProtocol::fold`](crate::SyncProtocol::fold)) counts `m` at
    /// each recipient.
    pub fn messages_delivered(&self) -> u64 {
        self.messages_delivered
    }

    /// The set of distinct decided values — agreement for k-set agreement
    /// means `decided_values().len() ≤ k`.
    pub fn decided_values(&self) -> BTreeSet<Out> {
        self.outcomes
            .iter()
            .filter_map(|o| o.decided_value().cloned())
            .collect()
    }

    /// The latest decision round among deciders, or `None` if nobody
    /// decided.
    pub fn last_decision_round(&self) -> Option<usize> {
        self.outcomes
            .iter()
            .filter_map(|o| o.decision_round())
            .max()
    }

    /// Returns `true` if every non-crashed process decided (the paper's
    /// termination property).
    pub fn all_correct_decided(&self) -> bool {
        self.outcomes
            .iter()
            .all(|o| !matches!(o, Outcome::Undecided))
    }

    /// The number of processes that decided.
    pub fn decided_count(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.decided_value().is_some())
            .count()
    }

    /// The number of processes that crashed.
    pub fn crashed_count(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_crashed()).count()
    }
}

impl<Out: Clone + Ord + fmt::Debug> fmt::Display for Trace<Out> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "trace: {} rounds, {} deliveries, {} decided / {} crashed",
            self.rounds_executed,
            self.messages_delivered,
            self.decided_count(),
            self.crashed_count()
        )?;
        for (i, o) in self.outcomes.iter().enumerate() {
            let id = ProcessId::new(i);
            match o {
                Outcome::Decided { value, round } => {
                    writeln!(f, "  {id}: decided {value:?} @ r{round}")?
                }
                Outcome::Crashed { round } => writeln!(f, "  {id}: crashed @ r{round}")?,
                Outcome::Undecided => writeln!(f, "  {id}: undecided")?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace<u32> {
        Trace::new(
            vec![
                Outcome::Decided { value: 4, round: 2 },
                Outcome::Crashed { round: 1 },
                Outcome::Decided { value: 4, round: 3 },
                Outcome::Decided { value: 7, round: 2 },
            ],
            3,
            24,
        )
    }

    #[test]
    fn decided_values_deduplicates() {
        assert_eq!(sample().decided_values(), [4, 7].into_iter().collect());
    }

    #[test]
    fn rounds_and_counts() {
        let t = sample();
        assert_eq!(t.rounds_executed(), 3);
        assert_eq!(t.messages_delivered(), 24);
        assert_eq!(t.decided_count(), 3);
        assert_eq!(t.crashed_count(), 1);
        assert_eq!(t.last_decision_round(), Some(3));
        assert!(t.all_correct_decided());
    }

    #[test]
    fn undecided_marks_termination_failure() {
        let t: Trace<u32> = Trace::new(vec![Outcome::Undecided], 10, 0);
        assert!(!t.all_correct_decided());
        assert_eq!(t.last_decision_round(), None);
        assert_eq!(t.decided_values(), BTreeSet::new());
    }

    #[test]
    fn outcome_accessors() {
        let t = sample();
        assert_eq!(t.outcome(ProcessId::new(0)).decided_value(), Some(&4));
        assert_eq!(t.outcome(ProcessId::new(0)).decision_round(), Some(2));
        assert!(t.outcome(ProcessId::new(1)).is_crashed());
        assert_eq!(t.outcomes().len(), 4);
    }

    #[test]
    fn display_renders_every_process() {
        let s = sample().to_string();
        assert!(s.contains("p1: decided 4 @ r2"));
        assert!(s.contains("p2: crashed @ r1"));
    }
}
