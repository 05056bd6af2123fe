//! The Section 8 extension: **early-deciding condition-based k-set
//! agreement**.
//!
//! The paper's concluding remarks observe that, by the technique of \[22\],
//! the Figure 2 algorithm can be extended so that — on top of its
//! condition-based bounds — it never needs more than `⌊f/k⌋ + 2` rounds,
//! where `f ≤ t` is the number of *actual* crashes.
//!
//! This implementation grafts the failure-perception rule of the
//! early-deciding protocol onto the Figure 2 state machine:
//!
//! * the three-slot state `(v_cond, v_tmf, v_out)` evolves exactly as in
//!   [`ConditionBased`](crate::ConditionBased) — round-1 classification,
//!   max-folded flooding, line-14 commitment on `v_cond`, the line-18
//!   predicate and the final round;
//! * in addition, every process counts the broadcasts it receives per
//!   round (`nb_r`, `nb_0 = n`); when `nb_{r−1} − nb_r < k` — fewer than
//!   `k` processes went newly silent — it sets a decide flag, forwards its
//!   state (with the flag) once more, and returns its priority decision;
//! * a process receiving a flagged state absorbs it and decides at the end
//!   of the same round (the flagged sender's state is, by the max-fold,
//!   dominated by the receiver's updated state).
//!
//! Round 1 is [`ConditionBased`](crate::ConditionBased)'s, lazy view
//! included: the view exists only in a process that receives round 1,
//! and a process whose round-1 deliveries equal another's adopts that
//! one's primed slot, decide flag and broadcast count
//! ([`SyncProtocol::adopt`]) without building one.
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

use crate::config::ConditionBasedConfig;
use crate::round_one::RoundOne;

/// The wire format: round-1 proposals, then flagged state triples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EcbMessage<V> {
    /// Round 1: the sender's proposal.
    Proposal(V),
    /// Rounds ≥ 2: the sender's state, plus its decide announcement.
    State {
        /// The sender's `v_cond`.
        cond: Option<V>,
        /// The sender's `v_tmf`.
        tmf: Option<V>,
        /// The sender's `v_out`.
        out: Option<V>,
        /// `true` when the sender decides this round.
        deciding: bool,
    },
}

/// One process of the early-deciding condition-based algorithm.
pub struct EarlyConditionBased<V, O> {
    config: ConditionBasedConfig,
    me: ProcessId,
    oracle: O,
    /// The proposal and the lazily materialised round-1 view.
    round_one: RoundOne<V>,
    v_cond: Option<V>,
    v_tmf: Option<V>,
    v_out: Option<V>,
    recv_cond: Option<V>,
    recv_tmf: Option<V>,
    recv_out: Option<V>,
    /// Line-14 commitment (own `v_cond` forwarded this round).
    committed: bool,
    /// The early rule fired (or a flagged state arrived): decide after the
    /// next send.
    deciding: bool,
    heard_prev: usize,
    heard_now: usize,
}

impl<V: ProposalValue, O: ConditionOracle<V>> EarlyConditionBased<V, O> {
    /// Creates the process `me` proposing `proposal`.
    ///
    /// # Panics
    ///
    /// Panics if `me` is outside the system.
    pub fn new(config: ConditionBasedConfig, me: ProcessId, proposal: V, oracle: O) -> Self {
        assert!(
            me.index() < config.n(),
            "{me} outside a system of {}",
            config.n()
        );
        EarlyConditionBased {
            config,
            me,
            oracle,
            round_one: RoundOne::new(proposal),
            v_cond: None,
            v_tmf: None,
            v_out: None,
            recv_cond: None,
            recv_tmf: None,
            recv_out: None,
            committed: false,
            deciding: false,
            heard_prev: config.n(),
            heard_now: 0,
        }
    }

    /// The configuration this process runs under.
    pub fn config(&self) -> &ConditionBasedConfig {
        &self.config
    }

    fn decide_by_priority(&self) -> V {
        self.v_cond
            .clone()
            .or_else(|| self.v_tmf.clone())
            .or_else(|| self.v_out.clone())
            .expect("after round 1 at least one slot is non-⊥")
    }

    fn absorb_received(&mut self) {
        fn fold<V: Ord>(slot: &mut Option<V>, received: Option<V>) {
            if received > *slot {
                *slot = received;
            }
        }
        fold(&mut self.v_cond, self.recv_cond.take());
        fold(&mut self.v_tmf, self.recv_tmf.take());
        fold(&mut self.v_out, self.recv_out.take());
    }
}

impl<V: ProposalValue, O: ConditionOracle<V>> SyncProtocol for EarlyConditionBased<V, O> {
    type Msg = EcbMessage<V>;
    type Output = V;

    fn message(&mut self, round: usize) -> EcbMessage<V> {
        if round == 1 {
            return EcbMessage::Proposal(self.round_one.proposal().clone());
        }
        self.committed = self.v_cond.is_some();
        EcbMessage::State {
            cond: self.v_cond.clone(),
            tmf: self.v_tmf.clone(),
            out: self.v_out.clone(),
            deciding: self.deciding,
        }
    }

    fn receive(&mut self, round: usize, from: ProcessId, msg: &EcbMessage<V>) {
        self.heard_now += 1;
        match msg {
            EcbMessage::Proposal(v) => {
                // Proposals belong to round 1; a fault-delayed stale
                // copy in a later round is dropped (the view already
                // fed the estimates), never asserted away.
                if round == 1 {
                    self.round_one.receive(self.config.n(), self.me, from, v);
                }
            }
            EcbMessage::State {
                cond,
                tmf,
                out,
                deciding,
            } => {
                // The message is shared with every recipient; clone a slot
                // only when it improves the fold.
                fn fold<V: Clone + Ord>(acc: &mut Option<V>, v: &Option<V>) {
                    if v.as_ref() > acc.as_ref() {
                        *acc = v.clone();
                    }
                }
                fold(&mut self.recv_cond, cond);
                fold(&mut self.recv_tmf, tmf);
                fold(&mut self.recv_out, out);
                if *deciding {
                    self.deciding = true;
                }
            }
        }
    }

    /// As [`ConditionBased`](crate::ConditionBased)'s, with the decide
    /// flags ORed: state rounds fold, round-1 `Proposal`s decline.
    fn fold(
        _round: usize,
        batch: &mut dyn Iterator<Item = (ProcessId, &EcbMessage<V>)>,
    ) -> Option<EcbMessage<V>> {
        // `None` until the first state: an empty batch declines.
        let mut folded = None;
        for (_, msg) in batch {
            let EcbMessage::State {
                cond,
                tmf,
                out,
                deciding,
            } = msg
            else {
                return None;
            };
            let (c, t, o, flagged) = folded.unwrap_or((None, None, None, false));
            folded = Some((
                c.max(cond.as_ref()),
                t.max(tmf.as_ref()),
                o.max(out.as_ref()),
                flagged | deciding,
            ));
        }
        let (cond, tmf, out, deciding) = folded?;
        Some(EcbMessage::State {
            cond: cond.cloned(),
            tmf: tmf.cloned(),
            out: out.cloned(),
            deciding,
        })
    }

    fn receive_folded(&mut self, round: usize, count: usize, folded: &EcbMessage<V>) {
        // Received as the one state it is (a state's sender is never
        // looked at), but heard from all `count` senders it stands for.
        self.receive(round, self.me, folded);
        self.heard_now += count - 1;
    }

    /// Round 1 adopts, as [`ConditionBased`](crate::ConditionBased)'s
    /// does, and takes the twin's decide flag and round-1 count along: a
    /// twin heard the same broadcasts, so its `nb_1` and the early rule's
    /// verdict on it are this process's.
    fn adopt(&mut self, round: usize, twin: &Self) -> bool {
        if round != 1 {
            return false;
        }
        self.v_cond.clone_from(&twin.v_cond);
        self.v_tmf.clone_from(&twin.v_tmf);
        self.v_out.clone_from(&twin.v_out);
        self.deciding = twin.deciding;
        self.heard_prev = twin.heard_prev;
        self.heard_now = 0;
        true
    }

    fn compute(&mut self, round: usize) -> Step<V> {
        let heard = self.heard_now;
        self.heard_now = 0;
        let newly_silent = self.heard_prev.saturating_sub(heard);
        self.heard_prev = heard;

        if round == 1 {
            (self.v_cond, self.v_tmf, self.v_out) =
                self.round_one.classify(&self.config, self.me, &self.oracle);
            // The early rule may already fire in round 1 (f = 0 fast path).
            if newly_silent < self.config.k() {
                self.deciding = true;
            }
            return Step::Continue;
        }

        if self.committed {
            // Line 14 of Figure 2: forwarded a non-⊥ v_cond; decide it.
            return Step::Decide(self.v_cond.clone().expect("committed implies v_cond"));
        }
        let flagged_decider = self.deciding;
        self.absorb_received();

        if flagged_decider {
            // Own rule fired last round (flag broadcast this round), or a
            // flagged state arrived and was absorbed: decide by priority.
            return Step::Decide(self.decide_by_priority());
        }

        // Original Figure 2 decision logic.
        let early = round == self.config.condition_decision_round()
            && self.v_tmf.is_some()
            && self.v_out.is_none();
        let last = round >= self.config.final_decision_round();
        if early || last {
            return Step::Decide(self.decide_by_priority());
        }

        // The adaptive rule: fewer than k newly silent processes.
        if newly_silent < self.config.k() {
            self.deciding = true;
        }
        Step::Continue
    }
}

impl<V: fmt::Debug + Ord, O> fmt::Debug for EarlyConditionBased<V, O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EarlyConditionBased")
            .field("me", &self.me)
            .field("v_cond", &self.v_cond)
            .field("v_tmf", &self.v_tmf)
            .field("v_out", &self.v_out)
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
    use setagree_sync::{bounds, run_protocol, CrashSpec, FailurePattern};
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
