//! Early-deciding synchronous k-set agreement — the extension discussed in
//! the paper's Section 8.
//!
//! While `⌊t/k⌋ + 1` rounds are necessary in the worst case, executions
//! with only `f < t` actual crashes can decide in
//! `min(⌊f/k⌋ + 2, ⌊t/k⌋ + 1)` rounds (Gafni–Guerraoui–Pochon's adaptive
//! lower bound; algorithms in \[12, 25, 27\]).
//!
//! The implementation follows the classical shape: every process floods its
//! estimate and counts how many processes it heard from each round
//! (`nb_r`, with `nb_0 = n`). When `nb_{r−1} − nb_r < k` — fewer than `k`
//! *new* crashes were perceived in round `r` — the process's estimate is
//! guaranteed to be among the `k` smallest-ranked surviving estimates; it
//! broadcasts a `DECIDE` flag in round `r+1` and returns. A process that
//! receives a `DECIDE` flag adopts the attached estimate (if smaller) and
//! decides one round later itself.

use std::fmt;

use setagree_sync::{bounds, Step, SyncProtocol};
use setagree_types::{ProcessId, ProposalValue};

/// The flood payload: the sender's estimate plus a decide announcement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdMessage<V> {
    /// The sender's current estimate (the smallest value it has seen).
    pub estimate: V,
    /// `true` when the sender decides this round (its last broadcast).
    pub deciding: bool,
}

/// One process of the early-deciding k-set agreement protocol.
///
/// # Example
///
/// ```
/// use setagree_core::EarlyDeciding;
/// use setagree_sync::{run_protocol, FailurePattern};
///
/// // Failure-free (f = 0): decide in ⌊0/k⌋ + 2 = 2 rounds, not ⌊t/k⌋ + 1 = 4.
/// let procs: Vec<_> = [4u32, 7, 1, 2]
///     .into_iter()
///     .map(|v| EarlyDeciding::new(4, 3, 1, v))
///     .collect();
/// let trace = run_protocol(procs, &FailurePattern::none(4), 10).unwrap();
/// assert_eq!(trace.decided_values(), [1].into_iter().collect());
/// assert_eq!(trace.last_decision_round(), Some(2));
/// ```
#[derive(Debug, Clone)]
pub struct EarlyDeciding<V> {
    k: usize,
    final_round: usize,
    estimate: V,
    /// `nb_{r−1}`: how many processes were heard from last round (`n` for
    /// round 1).
    heard_prev: usize,
    /// Messages received in the current round.
    heard_now: usize,
    /// Set when the early rule fired: broadcast `DECIDE` next round, then
    /// return.
    deciding: bool,
}

impl<V: ProposalValue> EarlyDeciding<V> {
    /// Creates a process proposing `value` in a system of `n` processes
    /// tolerating `t` crashes with agreement degree `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `t >= n`.
    pub fn new(n: usize, t: usize, k: usize, value: V) -> Self {
        assert!(k > 0, "k must be at least 1");
        assert!(t < n, "someone must survive (t < n)");
        EarlyDeciding {
            k,
            final_round: bounds::classical(t, k),
            estimate: value,
            heard_prev: n,
            heard_now: 0,
            deciding: false,
        }
    }

    /// The worst-case decision round `⌊t/k⌋ + 1`.
    pub fn final_round(&self) -> usize {
        self.final_round
    }
}

impl<V: ProposalValue> SyncProtocol for EarlyDeciding<V> {
    type Msg = EdMessage<V>;
    type Output = V;

    fn message(&mut self, _round: usize) -> EdMessage<V> {
        EdMessage {
            estimate: self.estimate.clone(),
            deciding: self.deciding,
        }
    }

    fn receive(&mut self, _round: usize, _from: ProcessId, msg: &EdMessage<V>) {
        self.heard_now += 1;
        if msg.estimate < self.estimate {
            self.estimate = msg.estimate.clone();
        }
        if msg.deciding {
            // The sender decided: adopt its announcement schedule.
            self.deciding = true;
        }
    }

    /// Every round folds: `receive` counts the message, keeps the
    /// smallest estimate and ORs the flag, whoever sent it and in
    /// whatever order.
    fn fold(
        _round: usize,
        batch: &mut dyn Iterator<Item = (ProcessId, &EdMessage<V>)>,
    ) -> Option<EdMessage<V>> {
        let (_, first) = batch.next()?;
        let (mut estimate, mut deciding) = (&first.estimate, first.deciding);
        for (_, msg) in batch {
            if msg.estimate < *estimate {
                estimate = &msg.estimate;
            }
            deciding |= msg.deciding;
        }
        Some(EdMessage {
            estimate: estimate.clone(),
            deciding,
        })
    }

    fn receive_folded(&mut self, _round: usize, count: usize, folded: &EdMessage<V>) {
        self.heard_now += count;
        if folded.estimate < self.estimate {
            self.estimate = folded.estimate.clone();
        }
        self.deciding |= folded.deciding;
    }

    fn compute(&mut self, round: usize) -> Step<V> {
        if self.deciding {
            // Either our own rule fired last round (we broadcast DECIDE
            // this round) or we saw a DECIDE — in both cases the estimate
            // is now safe.
            return Step::Decide(self.estimate.clone());
        }
        let heard = self.heard_now;
        self.heard_now = 0;
        let newly_silent = self.heard_prev.saturating_sub(heard);
        self.heard_prev = heard;

        if round >= self.final_round {
            return Step::Decide(self.estimate.clone());
        }
        if newly_silent < self.k {
            // Fewer than k new crashes perceived: decide after one more
            // announcing round.
            self.deciding = true;
        }
        Step::Continue
    }
}

impl<V: fmt::Display> fmt::Display for EarlyDeciding<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "early-deciding(est = {}, final @ r{}, deciding = {})",
            self.estimate, self.final_round, self.deciding
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use setagree_sync::{run_protocol, CrashSpec, FailurePattern};

    fn system(n: usize, t: usize, k: usize, inputs: &[u32]) -> Vec<EarlyDeciding<u32>> {
        assert_eq!(inputs.len(), n);
        inputs
            .iter()
            .map(|&v| EarlyDeciding::new(n, t, k, v))
            .collect()
    }

    #[test]
    fn failure_free_decides_in_two_rounds() {
        let inputs = [5u32, 3, 8, 6, 7];
        let trace = run_protocol(system(5, 3, 1, &inputs), &FailurePattern::none(5), 10).unwrap();
        assert_eq!(trace.last_decision_round(), Some(2));
        assert_eq!(trace.decided_values(), [3].into_iter().collect());
    }

    #[test]
    fn early_bound_tracks_actual_crashes() {
        // f = 2 initial crashes, k = 1, t = 4: bound min(f+2, t+1) = 4.
        let inputs = [5u32, 3, 8, 6, 7, 1];
        let pattern = FailurePattern::initial(6, [ProcessId::new(2), ProcessId::new(5)]).unwrap();
        let trace = run_protocol(system(6, 4, 1, &inputs), &pattern, 10).unwrap();
        assert!(trace.all_correct_decided());
        assert!(
            trace.last_decision_round().unwrap() <= 2 + 2,
            "⌊f/k⌋ + 2 bound, got {:?}",
            trace.last_decision_round()
        );
        assert_eq!(trace.decided_values().len(), 1);
    }

    #[test]
    fn never_exceeds_classical_bound() {
        // Crashes every round keep the rule from firing; the final-round
        // fallback must still decide by ⌊t/k⌋ + 1.
        let inputs: Vec<u32> = (1..=8).collect();
        let pattern = FailurePattern::staircase(8, 6, 2);
        let trace = run_protocol(system(8, 6, 2, &inputs), &pattern, 12).unwrap();
        assert!(trace.all_correct_decided());
        assert!(trace.last_decision_round().unwrap() <= 6 / 2 + 1);
        assert!(trace.decided_values().len() <= 2);
    }

    #[test]
    fn agreement_and_validity_under_random_adversaries() {
        for seed in 0..60 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let n = 7;
            let t = 4;
            let k = 2;
            let inputs: Vec<u32> = (0..n as u32).map(|i| (i * 13 + seed as u32) % 10).collect();
            let pattern = FailurePattern::random(n, t, t + 1, &mut rng);
            let f = pattern.fault_count();
            let trace = run_protocol(system(n, t, k, &inputs), &pattern, 12).unwrap();
            assert!(trace.all_correct_decided(), "seed {seed}");
            assert!(
                trace.decided_values().len() <= k,
                "seed {seed}: {} values decided",
                trace.decided_values().len()
            );
            for v in trace.decided_values() {
                assert!(inputs.contains(&v), "seed {seed}: {v} not proposed");
            }
            let bound = bounds::early_deciding(f, t, k);
            assert!(
                trace.last_decision_round().unwrap() <= bound,
                "seed {seed}: decided at {:?}, bound {bound} (f = {f})",
                trace.last_decision_round()
            );
        }
    }

    #[test]
    fn decide_flag_propagates() {
        // p1 fires the rule in round 1 but crashes mid-announcement in
        // round 2; the prefix that heard it must still terminate correctly.
        let inputs = [1u32, 5, 5, 5];
        let mut pattern = FailurePattern::none(4);
        pattern
            .crash(ProcessId::new(0), CrashSpec::new(2, 2))
            .unwrap();
        let trace = run_protocol(system(4, 2, 1, &inputs), &pattern, 10).unwrap();
        assert!(trace.all_correct_decided());
        assert_eq!(trace.decided_values(), [1].into_iter().collect());
    }

    #[test]
    fn display_and_accessors() {
        let p = EarlyDeciding::new(5, 4, 2, 9u32);
        assert_eq!(p.final_round(), 3);
        assert!(p.to_string().contains("final @ r3"));
    }

    #[test]
    #[should_panic(expected = "survive")]
    fn t_must_be_less_than_n() {
        let _ = EarlyDeciding::new(3, 3, 1, 1u32);
    }
}
