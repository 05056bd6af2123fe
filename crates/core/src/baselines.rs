//! The classical unconditioned baseline: flood-set synchronous k-set
//! agreement in `⌊t/k⌋ + 1` rounds (consensus for `k = 1`, `t + 1`
//! rounds), per Chaudhuri–Herlihy–Lynch–Tuttle.
//!
//! Every process floods the greatest value it knows; after `⌊t/k⌋ + 1`
//! rounds it decides it. The paper's algorithm degenerates to this bound
//! when the input vector is outside the condition, which is what the
//! benches compare against.

use std::fmt;

use setagree_sync::{bounds, Step, SyncProtocol};
use setagree_types::{ProcessId, ProposalValue};

/// One process of the flood-set k-set agreement baseline.
///
/// # Example
///
/// ```
/// use setagree_core::FloodSet;
/// use setagree_sync::{run_protocol, FailurePattern};
///
/// // n = 4, t = 2, k = 1 (consensus): t + 1 = 3 rounds.
/// let procs: Vec<_> = [4u32, 7, 1, 2]
///     .into_iter()
///     .map(|v| FloodSet::new(2, 1, v))
///     .collect();
/// let trace = run_protocol(procs, &FailurePattern::none(4), 10).unwrap();
/// assert_eq!(trace.decided_values(), [7].into_iter().collect());
/// assert_eq!(trace.last_decision_round(), Some(3));
/// ```
#[derive(Debug, Clone)]
pub struct FloodSet<V> {
    target_round: usize,
    estimate: V,
}

impl<V: ProposalValue> FloodSet<V> {
    /// Creates a process proposing `value` in a system tolerating `t`
    /// crashes with agreement degree `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(t: usize, k: usize, value: V) -> Self {
        assert!(k > 0, "k must be at least 1");
        FloodSet {
            target_round: bounds::classical(t, k),
            estimate: value,
        }
    }

    /// Creates a flood-set process that decides at an explicit round —
    /// **for lower-bound experiments only**: with fewer than `⌊t/k⌋ + 1`
    /// rounds the protocol is incorrect, and the chain adversary of
    /// [`FailurePattern::chain`](setagree_sync::FailurePattern::chain)
    /// exhibits the violation (see `tests/lower_bound.rs`).
    ///
    /// # Panics
    ///
    /// Panics if `target_round == 0`.
    pub fn with_target_round(target_round: usize, value: V) -> Self {
        assert!(target_round > 0, "rounds are 1-based");
        FloodSet {
            target_round,
            estimate: value,
        }
    }

    /// The round at which this process decides: `⌊t/k⌋ + 1`.
    pub fn target_round(&self) -> usize {
        self.target_round
    }

    /// The current estimate (the greatest value seen so far).
    pub fn estimate(&self) -> &V {
        &self.estimate
    }
}

impl<V: ProposalValue> SyncProtocol for FloodSet<V> {
    type Msg = V;
    type Output = V;

    fn message(&mut self, _round: usize) -> V {
        self.estimate.clone()
    }

    fn receive(&mut self, _round: usize, _from: ProcessId, msg: &V) {
        if *msg > self.estimate {
            self.estimate = msg.clone();
        }
    }

    /// Every round folds: `receive` keeps the greatest estimate it is
    /// shown, whoever sent it and in whatever order.
    fn fold(_round: usize, batch: &mut dyn Iterator<Item = (ProcessId, &V)>) -> Option<V> {
        batch.map(|(_, estimate)| estimate).max().cloned()
    }

    fn receive_folded(&mut self, _round: usize, _count: usize, greatest: &V) {
        if *greatest > self.estimate {
            self.estimate = greatest.clone();
        }
    }

    fn compute(&mut self, round: usize) -> Step<V> {
        if round >= self.target_round {
            Step::Decide(self.estimate.clone())
        } else {
            Step::Continue
        }
    }
}

impl<V: fmt::Display> fmt::Display for FloodSet<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "floodset(est = {}, decides @ r{})",
            self.estimate, self.target_round
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use setagree_sync::{run_protocol, CrashSpec, FailurePattern};
    use setagree_types::InputVector;

    fn system(t: usize, k: usize, inputs: &[u32]) -> Vec<FloodSet<u32>> {
        inputs.iter().map(|&v| FloodSet::new(t, k, v)).collect()
    }

    #[test]
    fn consensus_converges_to_max() {
        let trace =
            run_protocol(system(2, 1, &[3, 9, 1, 4]), &FailurePattern::none(4), 10).unwrap();
        assert_eq!(trace.decided_values(), [9].into_iter().collect());
        assert_eq!(trace.last_decision_round(), Some(3));
    }

    #[test]
    fn k_set_decides_by_t_over_k_plus_1() {
        // t = 4, k = 2 → 3 rounds.
        let inputs: Vec<u32> = (1..=8).collect();
        let trace = run_protocol(system(4, 2, &inputs), &FailurePattern::none(8), 10).unwrap();
        assert_eq!(trace.last_decision_round(), Some(3));
        assert!(trace.decided_values().len() <= 2);
    }

    #[test]
    fn agreement_holds_under_staircase() {
        // One crash per round (k = 1 worst case) must still yield consensus.
        let inputs: Vec<u32> = (1..=6).rev().collect();
        let pattern = FailurePattern::staircase(6, 3, 1);
        let trace = run_protocol(system(3, 1, &inputs), &pattern, 10).unwrap();
        assert_eq!(trace.decided_values().len(), 1);
        assert!(trace.all_correct_decided());
    }

    #[test]
    fn agreement_can_fail_if_stopped_early() {
        // Sanity for the lower bound: with only ⌊t/k⌋ rounds (one too few)
        // a crafted crash pattern yields more than k values. This guards
        // against the engine being accidentally "too kind" to protocols.
        #[derive(Debug, Clone)]
        struct ShortFlood(FloodSet<u32>);
        impl SyncProtocol for ShortFlood {
            type Msg = u32;
            type Output = u32;
            fn message(&mut self, r: usize) -> u32 {
                self.0.message(r)
            }
            fn receive(&mut self, r: usize, from: ProcessId, m: &u32) {
                self.0.receive(r, from, m);
            }
            fn compute(&mut self, round: usize) -> Step<u32> {
                if round >= self.0.target_round() - 1 {
                    Step::Decide(*self.0.estimate())
                } else {
                    Step::Continue
                }
            }
        }
        // t = 2, k = 1: full bound 3 rounds, truncated to 2. Chain crash:
        // p1 knows 9 and reaches only p2 in round 1; p2 reaches only p3 in
        // round 2 — too late for a 2-round protocol to flush.
        let mut pattern = FailurePattern::none(4);
        pattern
            .crash(ProcessId::new(0), CrashSpec::new(1, 2))
            .unwrap();
        pattern
            .crash(ProcessId::new(1), CrashSpec::new(2, 3))
            .unwrap();
        let procs: Vec<ShortFlood> = [9u32, 1, 1, 1]
            .into_iter()
            .map(|v| ShortFlood(FloodSet::new(2, 1, v)))
            .collect();
        let trace = run_protocol(procs, &pattern, 10).unwrap();
        assert!(
            trace.decided_values().len() > 1,
            "truncated floodset must disagree under the chain adversary, got {:?}",
            trace.decided_values()
        );
        let input = InputVector::new(vec![9u32, 1, 1, 1]);
        for v in trace.decided_values() {
            assert!(input.distinct_values().contains(&v));
        }
    }

    #[test]
    fn validity_under_random_crashes() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let inputs: Vec<u32> = vec![2, 8, 8, 3, 5, 1];
        for seed in 0..40 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let pattern = FailurePattern::random(6, 3, 4, &mut rng);
            let trace = run_protocol(system(3, 2, &inputs), &pattern, 10).unwrap();
            assert!(trace.all_correct_decided());
            assert!(trace.decided_values().len() <= 2, "seed {seed}");
            for v in trace.decided_values() {
                assert!(inputs.contains(&v), "seed {seed}: {v} not proposed");
            }
        }
    }

    #[test]
    fn display_and_accessors() {
        let p = FloodSet::new(4, 2, 7u32);
        assert_eq!(p.target_round(), 3);
        assert_eq!(*p.estimate(), 7);
        assert_eq!(p.to_string(), "floodset(est = 7, decides @ r3)");
    }

    #[test]
    #[should_panic(expected = "k must be")]
    fn zero_k_is_rejected() {
        let _ = FloodSet::new(2, 0, 1u32);
    }
}
