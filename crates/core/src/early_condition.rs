//! The Section 8 extension: **early-deciding condition-based k-set
//! agreement**.
//!
//! The paper's concluding remarks observe that, by the technique of \[22\],
//! the Figure 2 algorithm can be extended so that — on top of its
//! condition-based bounds — it never needs more than `⌊f/k⌋ + 2` rounds,
//! where `f ≤ t` is the number of *actual* crashes.
//!
//! The extension is Figure 2 plus one rule, and the code says so: an
//! [`EarlyConditionBased`] process wraps a [`ConditionBased`] one and
//! hands it all of Figure 2 — round 1 and its lazy view, the state
//! triple, line 14, lines 15–21 and the state-round fold. On top of it,
//! it keeps what Section 8 adds:
//!
//! * every process counts the broadcasts it receives per round (`nb_r`,
//!   `nb_0 = n`); when Figure 2 would continue and `nb_{r−1} − nb_r < k` —
//!   fewer than `k` processes went newly silent — it sets a decide flag,
//!   forwards its state (with the flag) once more, and decides;
//! * a process receiving a flagged state absorbs it and decides at the end
//!   of the same round (the flagged sender's state is, by the max-fold,
//!   dominated by the receiver's updated state).
//!
//! Either way the decision is Figure 2's without line 18: a process that
//! forwarded a non-⊥ `v_cond` decides it (line 14), any other absorbs
//! the round and decides by priority. A process adopting round 1
//! ([`SyncProtocol::adopt`]) takes its twin's decide flag and broadcast
//! count along with the primed slot, and so does one catching up
//! ([`SyncProtocol::catch_up`]) with Figure 2's state.
//!
//! The bounds consequently combine: decisions happen by round
//! `min(bound_of_Figure_2, ⌊f/k⌋ + 2)` ([`setagree_sync::bounds`]'s
//! `figure_2` and `section_8`). The combination is validated by the
//! property suites (random + staircase + silent-crash adversaries) rather
//! than by a formal proof — the paper itself only sketches the extension.

use std::fmt;

use setagree_conditions::ConditionOracle;
use setagree_sync::{Step, SyncProtocol};
use setagree_types::{ProcessId, ProposalValue};

use crate::condition_based::{CbMessage, ConditionBased};
use crate::config::ConditionBasedConfig;

/// The wire format: Figure 2's message plus the decide announcement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EcbMessage<V> {
    /// What Figure 2 sends: the proposal in round 1, the state triple
    /// afterwards.
    pub figure_2: CbMessage<V>,
    /// `true` when the sender decides this round (never in round 1).
    pub deciding: bool,
}

/// One process of the early-deciding condition-based algorithm.
pub struct EarlyConditionBased<V, O> {
    /// The Figure 2 process this one extends.
    figure_2: ConditionBased<V, O>,
    /// The early rule fired (or a flagged state arrived): decide after the
    /// next send.
    deciding: bool,
    /// `nb_{r−1}`: the broadcasts received last round (`nb_0 = n`).
    heard_prev: usize,
    /// `nb_r`, counted as this round's broadcasts arrive.
    heard_now: usize,
}

impl<V: ProposalValue, O: ConditionOracle<V>> EarlyConditionBased<V, O> {
    /// Creates the process `me` proposing `proposal`.
    ///
    /// # Panics
    ///
    /// Panics if `me` is outside the system.
    pub fn new(config: ConditionBasedConfig, me: ProcessId, proposal: V, oracle: O) -> Self {
        EarlyConditionBased {
            figure_2: ConditionBased::new(config, me, proposal, oracle),
            deciding: false,
            heard_prev: config.n(),
            heard_now: 0,
        }
    }

    /// The configuration this process runs under.
    pub fn config(&self) -> &ConditionBasedConfig {
        self.figure_2.config()
    }
}

impl<V: ProposalValue, O: ConditionOracle<V>> SyncProtocol for EarlyConditionBased<V, O> {
    type Msg = EcbMessage<V>;
    type Output = V;

    fn message(&mut self, round: usize) -> EcbMessage<V> {
        EcbMessage {
            figure_2: self.figure_2.message(round),
            deciding: self.deciding,
        }
    }

    fn receive(&mut self, round: usize, from: ProcessId, msg: &EcbMessage<V>) {
        self.heard_now += 1;
        self.figure_2.receive(round, from, &msg.figure_2);
        self.deciding |= msg.deciding;
    }

    /// [`ConditionBased`]'s fold, with the decide flags ORed: state
    /// rounds fold, round-1 proposals decline.
    fn fold(
        round: usize,
        batch: &mut dyn Iterator<Item = (ProcessId, &EcbMessage<V>)>,
    ) -> Option<EcbMessage<V>> {
        let mut deciding = false;
        let figure_2 = ConditionBased::<V, O>::fold(
            round,
            &mut batch.map(|(from, msg)| {
                deciding |= msg.deciding;
                (from, &msg.figure_2)
            }),
        )?;
        Some(EcbMessage { figure_2, deciding })
    }

    fn receive_folded(&mut self, round: usize, count: usize, folded: &EcbMessage<V>) {
        // Heard from all `count` senders the fold stands for.
        self.heard_now += count;
        self.figure_2.receive_folded(round, count, &folded.figure_2);
        self.deciding |= folded.deciding;
    }

    /// Round 1 adopts, as [`ConditionBased`]'s does, and takes the twin's
    /// decide flag and round-1 count along: a twin heard the same
    /// broadcasts, so its `nb_1` and the early rule's verdict on it are
    /// this process's.
    fn adopt(&mut self, round: usize, twin: &Self) -> bool {
        if !self.figure_2.adopt(round, &twin.figure_2) {
            return false;
        }
        self.deciding = twin.deciding;
        self.heard_prev = twin.heard_prev;
        self.heard_now = 0;
        true
    }

    /// [`ConditionBased`]'s catch-up, with the decide flag and the
    /// broadcast counts along.
    fn catch_up(&mut self, leader: &Self) -> bool {
        if !self.figure_2.catch_up(&leader.figure_2) {
            return false;
        }
        self.deciding = leader.deciding;
        self.heard_prev = leader.heard_prev;
        self.heard_now = leader.heard_now;
        true
    }

    fn compute(&mut self, round: usize) -> Step<V> {
        let heard = std::mem::take(&mut self.heard_now);
        let newly_silent = self.heard_prev.saturating_sub(heard);
        self.heard_prev = heard;

        if self.deciding {
            // Own rule fired last round (flag broadcast this round), or a
            // flagged state arrived: decide without waiting for line 18.
            return Step::Decide(self.figure_2.decide_now());
        }
        let step = self.figure_2.compute(round);
        // The adaptive rule: fewer than k newly silent processes. It may
        // already fire in round 1 (the f = 0 fast path).
        if matches!(step, Step::Continue) && newly_silent < self.config().k() {
            self.deciding = true;
        }
        step
    }
}

impl<V: fmt::Debug + Ord, O> fmt::Debug for EarlyConditionBased<V, O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EarlyConditionBased")
            .field("figure_2", &self.figure_2)
            .field("deciding", &self.deciding)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use setagree_conditions::MaxCondition;
    use setagree_sync::{bounds, run_protocol, CrashSpec, FailurePattern, Outcome};
    use setagree_types::InputVector;

    fn config(n: usize, t: usize, k: usize, d: usize, ell: usize) -> ConditionBasedConfig {
        ConditionBasedConfig::builder(n, t, k)
            .condition_degree(d)
            .ell(ell)
            .build()
            .unwrap()
    }

    fn processes(
        cfg: ConditionBasedConfig,
        input: &InputVector<u32>,
    ) -> Vec<EarlyConditionBased<u32, MaxCondition>> {
        let oracle = MaxCondition::new(cfg.legality());
        (0..cfg.n())
            .map(|i| {
                EarlyConditionBased::new(
                    cfg,
                    ProcessId::new(i),
                    *input.get(ProcessId::new(i)),
                    oracle,
                )
            })
            .collect()
    }

    #[test]
    fn in_condition_fast_path_is_preserved() {
        let cfg = config(8, 4, 2, 2, 1);
        let input = InputVector::new(vec![7, 7, 7, 1, 2, 7, 7, 7]);
        let trace = run_protocol(processes(cfg, &input), &FailurePattern::none(8), 10).unwrap();
        assert!(trace.all_correct_decided());
        assert_eq!(trace.last_decision_round(), Some(2));
        assert_eq!(trace.decided_values(), [7].into_iter().collect());
    }

    #[test]
    fn out_of_condition_failure_free_decides_early() {
        // Figure 2 alone would need ⌊t/k⌋ + 1 = 4 rounds; with f = 0 the
        // adaptive rule cuts it to 2.
        let cfg = config(12, 6, 2, 4, 1);
        let input = InputVector::new((1..=12u32).collect::<Vec<_>>());
        let trace = run_protocol(processes(cfg, &input), &FailurePattern::none(12), 10).unwrap();
        assert!(trace.all_correct_decided());
        assert!(trace.decided_values().len() <= 2);
        assert_eq!(trace.last_decision_round(), Some(2));
    }

    #[test]
    fn adaptive_bound_under_silent_staircase() {
        let cfg = config(12, 6, 2, 4, 1);
        let input = InputVector::new((1..=12u32).collect::<Vec<_>>());
        for f in 0..=6usize {
            let mut pattern = FailurePattern::none(12);
            for i in 0..f {
                pattern
                    .crash(ProcessId::new(11 - i), CrashSpec::new(i / 2 + 1, 0))
                    .unwrap();
            }
            let trace = run_protocol(processes(cfg, &input), &pattern, 10).unwrap();
            assert!(trace.all_correct_decided(), "f = {f}");
            assert!(trace.decided_values().len() <= 2, "f = {f}");
            let bound = bounds::section_8(f, cfg.k()).min(cfg.final_decision_round());
            assert!(
                trace.last_decision_round().unwrap() <= bound,
                "f = {f}: decided at {:?}, adaptive bound {bound}",
                trace.last_decision_round()
            );
        }
    }

    #[test]
    fn never_worse_than_figure_2() {
        use crate::condition_based::ConditionBased;
        let cfg = config(10, 5, 2, 3, 1);
        let oracle = MaxCondition::new(cfg.legality());
        for seed in 0..40u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let input = InputVector::new(
                (0..10)
                    .map(|i| (i * 7 + seed as u32) % 6 + 1)
                    .collect::<Vec<u32>>(),
            );
            let pattern = FailurePattern::random(10, 5, 4, &mut rng);
            let plain: Vec<ConditionBased<u32, MaxCondition>> = (0..10)
                .map(|i| {
                    ConditionBased::new(
                        cfg,
                        ProcessId::new(i),
                        *input.get(ProcessId::new(i)),
                        oracle,
                    )
                })
                .collect();
            let plain_trace = run_protocol(plain, &pattern, cfg.round_limit()).unwrap();
            let early_trace =
                run_protocol(processes(cfg, &input), &pattern, cfg.round_limit()).unwrap();
            assert!(early_trace.all_correct_decided(), "seed {seed}");
            assert!(
                early_trace.decided_values().len() <= cfg.k(),
                "seed {seed}: agreement"
            );
            assert!(
                early_trace.last_decision_round().unwrap()
                    <= plain_trace.last_decision_round().unwrap(),
                "seed {seed}: early variant must not be slower"
            );
        }
    }

    #[test]
    fn agreement_under_random_adversaries_bulk() {
        for seed in 0..120u64 {
            let mut rng = SmallRng::seed_from_u64(seed ^ 0xEC8);
            let cfg = config(9, 4, 2, 2, 2);
            let input = InputVector::new(
                (0..9)
                    .map(|i| (i * 5 + seed as u32) % 7 + 1)
                    .collect::<Vec<u32>>(),
            );
            let pattern = FailurePattern::random(9, 4, 4, &mut rng);
            let trace = run_protocol(processes(cfg, &input), &pattern, 10).unwrap();
            assert!(trace.all_correct_decided(), "seed {seed}");
            assert!(
                trace.decided_values().len() <= 2,
                "seed {seed}: {:?}",
                trace.decided_values()
            );
            for v in trace.decided_values() {
                assert!(input.distinct_values().contains(&v), "seed {seed}");
            }
        }
    }

    #[test]
    fn line_14_takes_precedence_over_a_flagged_decision() {
        // Process 0 reaches only itself and process 1 before crashing.
        // Process 1 saw the whole input (v_cond = 2), processes 2 and 3
        // saw [⊥, 1, 1, 1] (v_cond = 1), and each heard fewer than k = 2
        // processes go silent, so every survivor enters round 2 both
        // committed and flagged. Line 14 wins: each decides its own
        // v_cond rather than absorbing process 1's larger one.
        let cfg = config(4, 2, 2, 0, 2);
        let input = InputVector::new(vec![2, 1, 1, 1]);
        let mut pattern = FailurePattern::none(4);
        pattern
            .crash(ProcessId::new(0), CrashSpec::new(1, 2))
            .unwrap();
        let trace = run_protocol(processes(cfg, &input), &pattern, 10).unwrap();
        let decided = |value, round| Outcome::Decided { value, round };
        assert_eq!(
            trace.outcomes(),
            [
                Outcome::Crashed { round: 1 },
                decided(2, 2),
                decided(1, 2),
                decided(1, 2),
            ]
        );
    }

    #[test]
    fn debug_and_accessors() {
        let cfg = config(4, 2, 2, 1, 1);
        let p = EarlyConditionBased::new(
            cfg,
            ProcessId::new(0),
            3u32,
            MaxCondition::new(cfg.legality()),
        );
        assert_eq!(p.config().n(), 4);
        assert!(format!("{p:?}").contains("EarlyConditionBased"));
    }
}
