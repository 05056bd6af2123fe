//! The generic condition-based synchronous k-set agreement algorithm —
//! Figure 2 of the paper, line by line.
//!
//! Round 1 (lines 3–10): every process broadcasts its proposal in the
//! predetermined order and assembles its view `V_i` of the input vector.
//! Depending on what it saw, it primes exactly one of three state slots:
//!
//! * `v_cond` (line 6) — at most `t − d` entries missing **and** the view
//!   is compatible with the condition (`P(V_i)`): take
//!   `max(h_ℓ(V_i))`, a value the condition promises is decidable;
//! * `v_out` (line 7) — few entries missing but the view proves the input
//!   vector is **outside** the condition: fall back to `max(V_i)`;
//! * `v_tmf` (line 8) — more than `t − d` entries missing ("too many
//!   failures" to interrogate the condition): `max(V_i)`.
//!
//! Rounds ≥ 2 (lines 11–23): flood the state triple, reduce each slot with
//! `max` (lines 15–17), and decide with the priority `cond ≻ tmf ≻ out`:
//! immediately once `v_cond` is known (line 14, after forwarding it), at
//! round `⌊(d+ℓ−1)/k⌋ + 1` if someone witnessed too many failures and
//! nobody ruled the condition out (line 18), and unconditionally at round
//! `⌊t/k⌋ + 1`.
//!
//! **The view is lazy.** A process holds its proposal in a field and
//! materialises `V_i` only when round 1 delivers it something; it drops
//! it again at classification, the last line that reads it. Lines 5–8
//! make the round-1 state a function of the view alone, so a process
//! whose round-1 deliveries equal another's takes that one's primed slot
//! through [`SyncProtocol::adopt`] instead: under the plain simulator a
//! round 1 with `c` crashers assembles and decodes at most `c + 1` views
//! (one per reach class under ordered sends), not `n`, and the processes
//! that adopt never allocate one. From then on the state is the triple,
//! which [`SyncProtocol::catch_up`] copies: the processes that adopted
//! run as one class, and only its leader sends, receives and computes.

use std::fmt;

use setagree_conditions::ConditionOracle;
use setagree_sync::{Step, SyncProtocol};
use setagree_types::{ProcessId, ProposalValue};

use crate::config::ConditionBasedConfig;
use crate::round_one::RoundOne;

/// The wire format of the algorithm: the proposal in round 1, the state
/// triple afterwards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CbMessage<V> {
    /// Round 1: the sender's proposed value (line 4).
    Proposal(V),
    /// Rounds ≥ 2: the sender's `(v_cond, v_tmf, v_out)` triple (line 13).
    State {
        /// The sender's `v_cond` (`None` is the paper's `⊥`).
        cond: Option<V>,
        /// The sender's `v_tmf`.
        tmf: Option<V>,
        /// The sender's `v_out`.
        out: Option<V>,
    },
}

/// One process of the Figure 2 algorithm.
///
/// Construct one instance per process with the same configuration and
/// oracle, then execute them with
/// [`run_protocol`](setagree_sync::run_protocol), or run the whole
/// system through [`Scenario::condition_based`](crate::Scenario::condition_based).
pub struct ConditionBased<V, O> {
    config: ConditionBasedConfig,
    me: ProcessId,
    oracle: O,
    /// The proposal and `V_i`, the round-1 view of the input vector
    /// (line 1/5), materialised only by a process that receives round 1.
    round_one: RoundOne<V>,
    v_cond: Option<V>,
    v_tmf: Option<V>,
    v_out: Option<V>,
    /// Maxima of the triples received in the current round (lines 15–17).
    recv_cond: Option<V>,
    recv_tmf: Option<V>,
    recv_out: Option<V>,
    /// Set when the process enters a round with `v_cond ≠ ⊥`: it forwards
    /// the state and decides at line 14, ignoring this round's receipts.
    committed: bool,
}

impl<V: ProposalValue, O: ConditionOracle<V>> ConditionBased<V, O> {
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
        ConditionBased {
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
        }
    }

    /// The configuration this process runs under.
    pub fn config(&self) -> &ConditionBasedConfig {
        &self.config
    }

    /// This process's identity.
    pub fn id(&self) -> ProcessId {
        self.me
    }

    /// The state triple, exposed for tests and ablation studies.
    pub fn state(&self) -> (Option<&V>, Option<&V>, Option<&V>) {
        (
            self.v_cond.as_ref(),
            self.v_tmf.as_ref(),
            self.v_out.as_ref(),
        )
    }

    /// Lines 15–17: fold this round's received triples into the state.
    fn absorb_received(&mut self) {
        fn fold<V: Ord>(slot: &mut Option<V>, received: Option<V>) {
            // `Option`'s ordering has None below Some, so `max` implements
            // the paper's "maximum non-⊥ value, ⊥ if none".
            if received > *slot {
                *slot = received;
            }
        }
        fold(&mut self.v_cond, self.recv_cond.take());
        fold(&mut self.v_tmf, self.recv_tmf.take());
        fold(&mut self.v_out, self.recv_out.take());
    }

    /// Lines 19–21: decide by the priority `cond ≻ tmf ≻ out`.
    fn decide_by_priority(&self) -> V {
        self.v_cond
            .clone()
            .or_else(|| self.v_tmf.clone())
            .or_else(|| self.v_out.clone())
            .expect("after round 1 at least one slot is non-⊥ (Theorem 11)")
    }

    /// A state round's decision without waiting for line 18, for
    /// extensions that decide earlier (Section 8): line 14 if this round
    /// forwarded a non-⊥ `v_cond`, else lines 15–17 and then lines 19–21.
    pub(crate) fn decide_now(&mut self) -> V {
        if self.committed {
            return self.v_cond.clone().expect("committed implies v_cond set");
        }
        self.absorb_received();
        self.decide_by_priority()
    }
}

impl<V: ProposalValue, O: ConditionOracle<V>> SyncProtocol for ConditionBased<V, O> {
    type Msg = CbMessage<V>;
    type Output = V;

    fn message(&mut self, round: usize) -> CbMessage<V> {
        if round == 1 {
            // Line 4: broadcast the proposal (the engine realizes the
            // predetermined p_1 … p_n order and prefix crashes).
            CbMessage::Proposal(self.round_one.proposal().clone())
        } else {
            // Line 13. If our v_cond is already set we will decide at
            // line 14 this round, right after this send.
            self.committed = self.v_cond.is_some();
            CbMessage::State {
                cond: self.v_cond.clone(),
                tmf: self.v_tmf.clone(),
                out: self.v_out.clone(),
            }
        }
    }

    fn receive(&mut self, round: usize, from: ProcessId, msg: &CbMessage<V>) {
        match msg {
            CbMessage::Proposal(v) => {
                // Proposals belong to round 1; under an injected delay
                // fault a stale copy can surface in a later round, and
                // the synchronous algorithm simply has no line for it —
                // the view was folded into the estimates at the end of
                // round 1, so a late proposal is dropped, not asserted
                // away.
                if round == 1 {
                    self.round_one.receive(self.config.n(), self.me, from, v);
                }
            }
            CbMessage::State { cond, tmf, out } => {
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
            }
        }
    }

    /// The state rounds fold, slot by slot (lines 15–17 look at no
    /// sender), cloning each slot's maximum once; a round-1 `Proposal`
    /// names its sender — it is an entry of the view — and declines.
    fn fold(
        _round: usize,
        batch: &mut dyn Iterator<Item = (ProcessId, &CbMessage<V>)>,
    ) -> Option<CbMessage<V>> {
        // `None` until the first state: an empty batch declines.
        let mut maxima = None;
        for (_, msg) in batch {
            let CbMessage::State { cond, tmf, out } = msg else {
                return None;
            };
            let (c, t, o) = maxima.unwrap_or((None, None, None));
            maxima = Some((
                c.max(cond.as_ref()),
                t.max(tmf.as_ref()),
                o.max(out.as_ref()),
            ));
        }
        let (cond, tmf, out) = maxima?;
        Some(CbMessage::State {
            cond: cond.cloned(),
            tmf: tmf.cloned(),
            out: out.cloned(),
        })
    }

    fn receive_folded(&mut self, round: usize, _count: usize, folded: &CbMessage<V>) {
        // A state's sender is never looked at, and a maximum of maxima
        // is the maximum: the fold is received as the one state it is.
        self.receive(round, self.me, folded);
    }

    /// Round 1 adopts: lines 5–8 read the view alone, and a twin's view
    /// is this process's — the same deliveries, its own proposal among
    /// them, over the same all-`⊥` vector — so the twin's primed slot is
    /// the one this process would prime. Nothing else of the state moves
    /// in round 1. The state rounds decline: what a process makes of one
    /// depends on the triple it entered it with (line 14), not only on
    /// what it received.
    fn adopt(&mut self, round: usize, twin: &Self) -> bool {
        if round != 1 {
            return false;
        }
        self.v_cond.clone_from(&twin.v_cond);
        self.v_tmf.clone_from(&twin.v_tmf);
        self.v_out.clone_from(&twin.v_out);
        true
    }

    /// Catches up by copying the state triple, the round's received
    /// maxima and the line-14 commitment: after round 1 they are all a
    /// later line reads. The identity and the proposal are read by round
    /// 1 alone, and the processes of one execution share configuration
    /// and oracle (as [`adopt`](SyncProtocol::adopt) takes for granted).
    fn catch_up(&mut self, leader: &Self) -> bool {
        self.v_cond.clone_from(&leader.v_cond);
        self.v_tmf.clone_from(&leader.v_tmf);
        self.v_out.clone_from(&leader.v_out);
        self.recv_cond.clone_from(&leader.recv_cond);
        self.recv_tmf.clone_from(&leader.recv_tmf);
        self.recv_out.clone_from(&leader.recv_out);
        self.committed = leader.committed;
        true
    }

    fn compute(&mut self, round: usize) -> Step<V> {
        if round == 1 {
            // Lines 6–8: classify the view and prime one state slot.
            (self.v_cond, self.v_tmf, self.v_out) =
                self.round_one.classify(&self.config, self.me, &self.oracle);
            return Step::Continue;
        }
        if self.committed {
            // Line 14: forwarded a non-⊥ v_cond this round; decide it.
            return Step::Decide(self.v_cond.clone().expect("committed implies v_cond set"));
        }
        self.absorb_received();

        // Line 18: early decision when someone witnessed too many failures
        // and nobody ruled the condition out, or the final round.
        let early = round == self.config.condition_decision_round()
            && self.v_tmf.is_some()
            && self.v_out.is_none();
        let last = round >= self.config.final_decision_round();
        if early || last {
            return Step::Decide(self.decide_by_priority());
        }
        Step::Continue
    }
}

impl<V: fmt::Debug + Ord, O> fmt::Debug for ConditionBased<V, O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ConditionBased")
            .field("me", &self.me)
            .field("config", &self.config)
            .field("v_cond", &self.v_cond)
            .field("v_tmf", &self.v_tmf)
            .field("v_out", &self.v_out)
            .field("committed", &self.committed)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use setagree_conditions::MaxCondition;
    use setagree_sync::{run_protocol, FailurePattern};
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
        oracle: MaxCondition,
        input: &InputVector<u32>,
    ) -> Vec<ConditionBased<u32, MaxCondition>> {
        (0..cfg.n())
            .map(|i| {
                ConditionBased::new(
                    cfg,
                    ProcessId::new(i),
                    *input.get(ProcessId::new(i)),
                    oracle,
                )
            })
            .collect()
    }

    #[test]
    fn failure_free_in_condition_decides_in_two_rounds() {
        let cfg = config(6, 3, 2, 2, 1);
        let oracle = MaxCondition::new(cfg.legality()); // (x=1, ℓ=1)
        let input = InputVector::new(vec![5, 5, 1, 2, 5, 5]); // 5 × 4 > 1: in C
        let trace =
            run_protocol(processes(cfg, oracle, &input), &FailurePattern::none(6), 10).unwrap();
        assert!(trace.all_correct_decided());
        assert_eq!(trace.decided_values(), [5].into_iter().collect());
        assert_eq!(trace.last_decision_round(), Some(2));
    }

    #[test]
    fn out_of_condition_decides_at_classical_bound() {
        let cfg = config(6, 3, 2, 2, 1);
        let oracle = MaxCondition::new(cfg.legality());
        // All distinct: max appears once ≤ x = 1 → outside C_max(1,1).
        let input = InputVector::new(vec![1, 2, 3, 4, 5, 6]);
        let trace =
            run_protocol(processes(cfg, oracle, &input), &FailurePattern::none(6), 10).unwrap();
        assert!(trace.all_correct_decided());
        // ⌊t/k⌋ + 1 = 2 here — make it distinguishable: use k = 1.
        let cfg1 = config(6, 3, 1, 2, 1);
        let oracle1 = MaxCondition::new(cfg1.legality());
        let trace1 = run_protocol(
            processes(cfg1, oracle1, &input),
            &FailurePattern::none(6),
            10,
        )
        .unwrap();
        assert_eq!(
            trace1.last_decision_round(),
            Some(cfg1.final_decision_round())
        );
        assert_eq!(trace1.decided_values().len(), 1, "consensus: one value");
        assert!(trace.rounds_executed() <= cfg.final_decision_round());
    }

    #[test]
    fn validity_decided_values_are_proposals() {
        let cfg = config(5, 2, 2, 1, 1);
        let oracle = MaxCondition::new(cfg.legality());
        let input = InputVector::new(vec![3, 1, 4, 1, 5]);
        let trace =
            run_protocol(processes(cfg, oracle, &input), &FailurePattern::none(5), 10).unwrap();
        let proposals = input.distinct_values();
        for v in trace.decided_values() {
            assert!(proposals.contains(&v), "decided {v} was never proposed");
        }
    }

    #[test]
    fn massive_initial_crashes_trigger_tmf_path() {
        // More than t − d = 1 initial crashes: survivors see too many ⊥,
        // set v_tmf, and decide at round ⌊(d+ℓ−1)/k⌋ + 1 (Lemma 2(i)).
        let cfg = config(6, 3, 2, 2, 1);
        let oracle = MaxCondition::new(cfg.legality());
        let input = InputVector::new(vec![1, 2, 3, 4, 5, 6]); // outside C
        let pattern =
            FailurePattern::initial(6, [ProcessId::new(0), ProcessId::new(1), ProcessId::new(2)])
                .unwrap();
        let trace = run_protocol(processes(cfg, oracle, &input), &pattern, 10).unwrap();
        assert!(trace.all_correct_decided());
        assert!(
            trace.last_decision_round().unwrap() <= cfg.condition_decision_round(),
            "Lemma 2(i): ⌊(d+ℓ−1)/k⌋+1 rounds despite the input being outside C"
        );
        assert!(trace.decided_values().len() <= cfg.k());
    }

    #[test]
    fn line_18_waits_while_someone_ruled_the_condition_out() {
        // Processes 0 and 1 reach only processes 0–2 before crashing.
        // Process 2 saw the whole input and proved it outside the
        // condition (v_out = 2); process 3 saw two ⊥ > t − d = 1 (v_tmf
        // = 1). After round 2 both hold both slots, so line 18 does not
        // fire at round ⌊(d+ℓ−1)/k⌋ + 1 = 2: they decide v_tmf at the
        // final round ⌊t/k⌋ + 1 = 3.
        let cfg = config(4, 2, 1, 1, 1);
        let oracle = MaxCondition::new(cfg.legality());
        let input = InputVector::new(vec![2, 1, 1, 1]);
        let mut pattern = FailurePattern::none(4);
        for crasher in 0..2 {
            pattern
                .crash(ProcessId::new(crasher), setagree_sync::CrashSpec::new(1, 3))
                .unwrap();
        }
        let trace = run_protocol(processes(cfg, oracle, &input), &pattern, 10).unwrap();
        let crashed = setagree_sync::Outcome::Crashed { round: 1 };
        let decided = setagree_sync::Outcome::Decided { value: 1, round: 3 };
        assert_eq!(
            trace.outcomes(),
            [crashed.clone(), crashed, decided.clone(), decided]
        );
    }

    #[test]
    fn state_and_accessors() {
        let cfg = config(4, 2, 2, 1, 1);
        let oracle = MaxCondition::new(cfg.legality());
        let p = ConditionBased::new(cfg, ProcessId::new(1), 9u32, oracle);
        assert_eq!(p.id(), ProcessId::new(1));
        assert_eq!(p.config().n(), 4);
        assert_eq!(p.state(), (None, None, None));
        let dbg = format!("{p:?}");
        assert!(dbg.contains("ConditionBased"));
    }

    #[test]
    #[should_panic(expected = "outside a system")]
    fn foreign_process_id_is_rejected() {
        let cfg = config(4, 2, 2, 1, 1);
        let oracle = MaxCondition::new(cfg.legality());
        let _ = ConditionBased::new(cfg, ProcessId::new(7), 1u32, oracle);
    }

    #[test]
    fn agreement_under_staircase_adversary() {
        // The worst-case schedule from the Theorem 12 proof: k crashes per
        // round. Agreement must still cap at k values.
        let cfg = config(8, 4, 2, 2, 2);
        let oracle = MaxCondition::new(cfg.legality()); // (2, 2)
        let input = InputVector::new(vec![8, 7, 6, 5, 4, 3, 2, 1]);
        let pattern = FailurePattern::staircase(8, 4, 2);
        let trace = run_protocol(processes(cfg, oracle, &input), &pattern, 10).unwrap();
        assert!(trace.all_correct_decided());
        assert!(
            trace.decided_values().len() <= cfg.k(),
            "agreement: at most k = {} values, got {:?}",
            cfg.k(),
            trace.decided_values()
        );
    }

    #[test]
    fn lemma_1_in_condition_bound_holds_under_crashes() {
        // Input in C, crashes beyond t − d during round 1: Lemma 1(ii)
        // bounds decisions by ⌊(d+ℓ−1)/k⌋ + 1.
        let cfg = config(8, 4, 2, 3, 1); // x = 1, R_cond = ⌊3/2⌋+1 = 2
        let oracle = MaxCondition::new(cfg.legality());
        let input = InputVector::new(vec![9, 9, 9, 9, 9, 1, 2, 3]); // 9×5 > 1
        let mut pattern = FailurePattern::none(8);
        for (i, prefix) in [(0usize, 0usize), (1, 2), (2, 5)] {
            pattern
                .crash(ProcessId::new(i), setagree_sync::CrashSpec::new(1, prefix))
                .unwrap();
        }
        let trace = run_protocol(processes(cfg, oracle, &input), &pattern, 12).unwrap();
        assert!(trace.all_correct_decided());
        assert!(
            trace.last_decision_round().unwrap() <= cfg.condition_decision_round(),
            "Lemma 1: in-condition bound"
        );
        assert!(trace.decided_values().len() <= cfg.k());
    }
}
