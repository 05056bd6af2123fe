//! A folded round is the per-message round, computed once; an adopted
//! round is a twin's round, computed once.
//!
//! `SyncProtocol::fold` lets a protocol combine the messages a round
//! delivers to every process alike into one, and `receive_folded` take
//! that one in their place; the plain round loop then hands each
//! recipient a single call where it used to make `n`.
//! `SyncProtocol::adopt` lets a process that received what another did
//! take over what that one made of the round, and `catch_up` lets it
//! follow that one from then on; the plain loop then runs one leader per
//! class of processes that have received alike. Three things are checked
//! here, none through a switch in the library:
//!
//! * **the fold law**, family by family — whatever state a process is
//!   in, `receive_folded(fold(batch))` leaves it as the batch's
//!   `receive`s, in ascending sender order, would, and so do those
//!   `receive`s in any other order: from then on the three emit equal
//!   messages and compute equal steps. A batch holding a round-1
//!   `Proposal` declines, and so does an empty one;
//! * **the adopt and catch-up laws**, family by family — a process that
//!   adopts round 1 from one that received it, or from one that adopted
//!   it in turn, is from then on indistinguishable from it, and so is a
//!   process made equal to it mid-run, by adopting or catching up;
//! * **whole runs** — every family under seeded ordered and unordered
//!   crash patterns, and under every shape of class (the staircase, the
//!   chain, a leader crashing mid-round, more than 64 crashers in one
//!   round), run as it is and wrapped in [`Unfolded`], a newtype that
//!   forwards `message` / `receive` / `compute` and so inherits the
//!   declining `fold`, `adopt` and `catch_up`: the wrapper *is* the
//!   per-message, per-process reference for every path, and the two
//!   [`Trace`]s — outcomes, rounds, `messages_delivered` — are equal.
//!   The same holds through the fault-composed loops under seeded plans
//!   that drop, delay, duplicate and reorder: there a round that folds is
//!   delivered unshuffled, and the wrapper's every round shuffled.

use proptest::prelude::*;

use setagree::conditions::MaxCondition;
use setagree::core::early_deciding::EdMessage;
use setagree::core::{
    CbMessage, ConditionBased, ConditionBasedConfig, EarlyConditionBased, EarlyDeciding,
    EcbMessage, FloodSet,
};
use setagree::sync::{
    run_protocol, run_protocol_faulty, run_protocol_unordered, run_protocol_unordered_faulty,
    CrashSpec, EngineError, FailurePattern, FaultPlan, Step, SubsetCrash, SyncProtocol, Trace,
    UnorderedFailurePattern, RATE_SCALE,
};
use setagree::types::{ProcessId, ProcessSet};

const N: usize = 10;
const T: usize = 5;

/// The whole runs agree on two values; the law is checked at `k = 1`,
/// where the families run their longest (`T + 1` rounds) and one
/// miscounted message flips the early-deciding rule.
fn config(k: usize) -> ConditionBasedConfig {
    config_at(N, T, k)
}

fn config_at(n: usize, t: usize, k: usize) -> ConditionBasedConfig {
    ConditionBasedConfig::builder(n, t, k)
        .condition_degree(2)
        .ell(k)
        .build()
        .expect("valid")
}

/// The per-message reference for the fold, adopt and class paths: the
/// wrapped protocol with `fold`, `receive_folded`, `adopt` and
/// `catch_up` left at the trait's declining defaults, so every recipient
/// receives every message and computes every round itself.
#[derive(Debug)]
struct Unfolded<P>(P);

impl<P: SyncProtocol> SyncProtocol for Unfolded<P> {
    type Msg = P::Msg;
    type Output = P::Output;

    fn message(&mut self, round: usize) -> P::Msg {
        self.0.message(round)
    }

    fn receive(&mut self, round: usize, from: ProcessId, msg: &P::Msg) {
        self.0.receive(round, from, msg);
    }

    fn compute(&mut self, round: usize) -> Step<P::Output> {
        self.0.compute(round)
    }
}

/// The messages of `slots` that are present, each with its slot as the
/// sender: distinct senders, ascending.
fn batch_of<M>(slots: Vec<Option<M>>) -> Vec<(ProcessId, M)> {
    slots
        .into_iter()
        .enumerate()
        .filter_map(|(from, msg)| Some((ProcessId::new(from), msg?)))
        .collect()
}

fn fold_of<P: SyncProtocol>(round: usize, batch: &[(ProcessId, P::Msg)]) -> Option<P::Msg> {
    P::fold(round, &mut batch.iter().map(|(from, msg)| (*from, msg)))
}

/// The positions `0..len` sorted by their `keys` (ties keep position
/// order): a permutation that proptest draws as `N` keys.
fn permutation(len: usize, keys: &[u64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..len).collect();
    order.sort_by_key(|&at| keys[at]);
    order
}

/// Checks the law on one state and one batch. Three processes from
/// `fresh` are driven through the same `warm_up`, one batch a round
/// starting at the first, and send in the round after it. Then one
/// receives `batch` message by message in sender order, one receives it
/// in the order `keys` draws, and one receives its fold. They must be
/// indistinguishable from there on: equal steps, equal next messages.
/// Returns whether the batch folded (`None`: the warm-up already
/// decided, nothing to compare).
fn law_holds<P>(
    fresh: impl Fn() -> P,
    warm_up: &[Vec<(ProcessId, P::Msg)>],
    batch: &[(ProcessId, P::Msg)],
    keys: &[u64],
) -> Option<bool>
where
    P: SyncProtocol,
    P::Msg: PartialEq,
{
    let round = warm_up.len() + 1;
    let mut twins = [fresh(), fresh(), fresh()];
    for twin in &mut twins {
        for (earlier, deliveries) in warm_up.iter().enumerate() {
            twin.message(earlier + 1);
            for (from, msg) in deliveries {
                twin.receive(earlier + 1, *from, msg);
            }
            if twin.compute(earlier + 1) != Step::Continue {
                return None;
            }
        }
        twin.message(round);
    }
    let [per_message, folding, shuffled] = &mut twins;
    let Some(folded) = fold_of::<P>(round, batch) else {
        return Some(false);
    };
    for (from, msg) in batch {
        per_message.receive(round, *from, msg);
    }
    // A fold is the declaration that the round's `receive` ignores order.
    let order = permutation(batch.len(), keys);
    for &at in &order {
        let (from, msg) = &batch[at];
        shuffled.receive(round, *from, msg);
    }
    folding.receive_folded(round, batch.len(), &folded);
    for later in round..round + 3 {
        if later > round {
            let message = per_message.message(later);
            assert_eq!(message, folding.message(later));
            assert_eq!(message, shuffled.message(later), "in the order {order:?}");
        }
        let step = per_message.compute(later);
        assert_eq!(
            step,
            folding.compute(later),
            "round {later} after {batch:?}"
        );
        assert_eq!(
            step,
            shuffled.compute(later),
            "round {later} after {batch:?} in the order {order:?}"
        );
        if step != Step::Continue {
            break;
        }
    }
    Some(true)
}

fn value() -> impl Strategy<Value = u32> {
    1u32..=6
}

fn slot() -> impl Strategy<Value = Option<u32>> {
    proptest::option::of(value())
}

/// `N` sender slots, each empty or holding a message.
fn slots<S: Strategy>(msg: S) -> impl Strategy<Value = Vec<Option<S::Value>>> {
    proptest::collection::vec(proptest::option::of(msg), N)
}

/// Sort keys for one permutation of up to `N` positions.
fn sort_keys() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(any::<u64>(), N)
}

/// A decide flag, raised by one sender in eight: often enough to be
/// folded, rarely enough that most warm-up rounds end undecided.
fn flag() -> impl Strategy<Value = bool> {
    (0u8..8).prop_map(|draw| draw == 0)
}

fn ed_message() -> impl Strategy<Value = EdMessage<u32>> {
    (value(), flag()).prop_map(|(estimate, deciding)| EdMessage { estimate, deciding })
}

fn cb_state() -> impl Strategy<Value = CbMessage<u32>> {
    (slot(), slot(), slot()).prop_map(|(cond, tmf, out)| CbMessage::State { cond, tmf, out })
}

fn ecb_state() -> impl Strategy<Value = EcbMessage<u32>> {
    (slot(), slot(), slot(), flag()).prop_map(|(cond, tmf, out, deciding)| EcbMessage {
        figure_2: CbMessage::State { cond, tmf, out },
        deciding,
    })
}

/// A round-1 proposal: Figure 2's, never flagged.
fn ecb_proposal(v: u32) -> EcbMessage<u32> {
    EcbMessage {
        figure_2: CbMessage::Proposal(v),
        deciding: false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn flood_set_obeys_the_law(
        own in value(),
        earlier in proptest::collection::vec(slots(value()), 0..=2),
        batch in slots(value()),
        keys in sort_keys(),
    ) {
        let warm_up: Vec<_> = earlier.into_iter().map(batch_of).collect();
        let batch = batch_of(batch);
        let folded = law_holds(|| FloodSet::new(T, 1, own), &warm_up, &batch, &keys);
        prop_assert_eq!(folded, Some(!batch.is_empty()));
    }

    #[test]
    fn early_deciding_obeys_the_law(
        own in value(),
        earlier in proptest::collection::vec(slots(ed_message()), 0..=2),
        batch in slots(ed_message()),
        keys in sort_keys(),
    ) {
        let warm_up: Vec<_> = earlier.into_iter().map(batch_of).collect();
        let batch = batch_of(batch);
        let folded = law_holds(|| EarlyDeciding::new(N, T, 1, own), &warm_up, &batch, &keys);
        prop_assert!(folded.is_none() || folded == Some(!batch.is_empty()));
    }

    #[test]
    fn condition_based_obeys_the_law(
        me in 0usize..N,
        proposals in slots(value()),
        earlier in proptest::collection::vec(slots(cb_state()), 0..=2),
        batch in slots(cb_state()),
        keys in sort_keys(),
    ) {
        let cfg = config(1);
        let oracle = MaxCondition::new(cfg.legality());
        let round_1: Vec<_> = batch_of(proposals)
            .into_iter()
            .map(|(from, v)| (from, CbMessage::Proposal(v)))
            .collect();
        prop_assert!(
            round_1.is_empty() || fold_of::<ConditionBased<u32, MaxCondition>>(1, &round_1).is_none(),
            "a proposal names its sender: round 1 declines"
        );
        let mut warm_up = vec![round_1];
        warm_up.extend(earlier.into_iter().map(batch_of));
        let batch = batch_of(batch);
        let fresh = || ConditionBased::new(cfg, ProcessId::new(me), 3u32, oracle);
        let folded = law_holds(fresh, &warm_up, &batch, &keys);
        prop_assert!(folded.is_none() || folded == Some(!batch.is_empty()));
    }

    #[test]
    fn early_condition_based_obeys_the_law(
        me in 0usize..N,
        proposals in slots(value()),
        earlier in proptest::collection::vec(slots(ecb_state()), 0..=2),
        batch in slots(ecb_state()),
        keys in sort_keys(),
    ) {
        let cfg = config(1);
        let oracle = MaxCondition::new(cfg.legality());
        let round_1: Vec<_> = batch_of(proposals)
            .into_iter()
            .map(|(from, v)| (from, ecb_proposal(v)))
            .collect();
        prop_assert!(
            round_1.is_empty()
                || fold_of::<EarlyConditionBased<u32, MaxCondition>>(1, &round_1).is_none(),
            "a proposal names its sender: round 1 declines"
        );
        let mut warm_up = vec![round_1];
        warm_up.extend(earlier.into_iter().map(batch_of));
        let batch = batch_of(batch);
        let fresh = || EarlyConditionBased::new(cfg, ProcessId::new(me), 3u32, oracle);
        let folded = law_holds(fresh, &warm_up, &batch, &keys);
        prop_assert!(folded.is_none() || folded == Some(!batch.is_empty()));
    }
}

/// Checks the adopt and catch-up laws on one run. The three processes
/// `mes` (distinct), each proposing `values[me]`, are handed the same
/// round 1: a proposal from every process not `silent`, their own three
/// among them. The first receives it and computes; the second adopts
/// from the first and the third from the second, each taking the first's
/// step. A fourth process, the one after the third, receives a proposal
/// from everybody in round 1 — so it may end the round unlike the others
/// — and in round 2, having sent, is made equal to the first: by
/// adopting the first's round 2 where the family adopts state rounds,
/// else by `catch_up` before it receives. Each state round's batch is
/// one of `later`, with the four's own broadcasts in it. From then on
/// the four must send equal messages and take equal steps; the second is
/// offered each state round of the first's, and adopts it exactly when
/// `adopts_state_rounds`.
fn adopt_law_holds<P>(
    fresh: impl Fn(ProcessId, u32) -> P,
    proposal: impl Fn(u32) -> P::Msg,
    mes: [usize; 3],
    values: &[u32],
    silent: &[usize],
    later: &[Vec<Option<P::Msg>>],
    adopts_state_rounds: bool,
) where
    P: SyncProtocol,
    P::Msg: PartialEq + Clone,
{
    let fourth = (mes[2] + 1) % N;
    let round_1: Vec<_> = (0..N)
        .filter(|&from| mes.contains(&from) || !silent.contains(&from))
        .map(|from| (ProcessId::new(from), proposal(values[from])))
        .collect();
    let ids = [mes[0], mes[1], mes[2], fourth];
    let mut processes = ids.map(|me| fresh(ProcessId::new(me), values[me]));
    for process in &mut processes {
        process.message(1);
    }
    let [first, second, third, own] = &mut processes;
    for (from, msg) in &round_1 {
        first.receive(1, *from, msg);
    }
    let step = first.compute(1);
    assert!(second.adopt(1, first), "round 1 adopts");
    assert!(third.adopt(1, second), "an adopted round 1 adopts in turn");
    for (from, &value) in values.iter().enumerate() {
        own.receive(1, ProcessId::new(from), &proposal(value));
    }
    let own_step = own.compute(1);
    assert_eq!(step, own_step, "round 1 decides nothing");
    let mut steps = [step.clone(), step.clone(), step.clone(), step];
    for (earlier, slots) in later.iter().enumerate() {
        if steps[0] != Step::Continue {
            break;
        }
        let round = earlier + 2;
        let messages = processes.each_mut().map(|p| p.message(round));
        assert_eq!(messages[0], messages[1], "round {round} after {round_1:?}");
        assert_eq!(messages[0], messages[2], "round {round} after {round_1:?}");
        if round > 2 {
            assert_eq!(messages[0], messages[3], "round {round} after {round_1:?}");
        }
        // The batch, with each of the four's own broadcast in its slot.
        let mut slots = slots.clone();
        for (&me, msg) in ids.iter().zip(&messages) {
            slots[me] = Some(msg.clone());
        }
        let batch = batch_of(slots);
        let receive = |process: &mut P| {
            for (from, msg) in &batch {
                process.receive(round, *from, msg);
            }
            process.compute(round)
        };
        let [first, second, third, own] = &mut processes;
        let step = receive(first);
        let adopted = second.adopt(round, first);
        assert_eq!(adopted, adopts_state_rounds, "round {round} adopts");
        steps[1] = if adopted {
            step.clone()
        } else {
            receive(second)
        };
        steps[2] = receive(third);
        steps[3] = if round > 2 {
            receive(own)
        } else if own.adopt(round, first) {
            step.clone()
        } else {
            assert!(own.catch_up(first), "every paper family catches up");
            receive(own)
        };
        steps[0] = step;
        for other in &steps[1..] {
            assert_eq!(&steps[0], other, "round {round} after {round_1:?}");
        }
    }
}

/// Three distinct processes: `first` and the two after it, `gaps` apart
/// (gaps of 1 to 4 never wrap onto `first` at `N = 10`, nor does the
/// one after the third).
fn three_processes(first: usize, (gap_a, gap_b): (usize, usize)) -> [usize; 3] {
    [first, (first + gap_a) % N, (first + gap_a + gap_b) % N]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn condition_based_adopts_by_the_law(
        first in 0usize..N,
        gaps in (1usize..=4, 1usize..=4),
        values in proptest::collection::vec(value(), N),
        silent in proptest::collection::vec(0usize..N, 0..=5),
        later in proptest::collection::vec(slots(cb_state()), 1..=3),
        k in 1usize..=2,
    ) {
        let cfg = config(k);
        let oracle = MaxCondition::new(cfg.legality());
        adopt_law_holds(
            |me, v| ConditionBased::new(cfg, me, v, oracle),
            CbMessage::Proposal,
            three_processes(first, gaps),
            &values,
            &silent,
            &later,
            false,
        );
    }

    #[test]
    fn early_condition_based_adopts_by_the_law(
        first in 0usize..N,
        gaps in (1usize..=4, 1usize..=4),
        values in proptest::collection::vec(value(), N),
        silent in proptest::collection::vec(0usize..N, 0..=5),
        later in proptest::collection::vec(slots(ecb_state()), 1..=3),
        k in 1usize..=2,
    ) {
        let cfg = config(k);
        let oracle = MaxCondition::new(cfg.legality());
        adopt_law_holds(
            |me, v| EarlyConditionBased::new(cfg, me, v, oracle),
            ecb_proposal,
            three_processes(first, gaps),
            &values,
            &silent,
            &later,
            false,
        );
    }

    #[test]
    fn flood_set_adopts_by_the_law(
        first in 0usize..N,
        gaps in (1usize..=4, 1usize..=4),
        values in proptest::collection::vec(value(), N),
        silent in proptest::collection::vec(0usize..N, 0..=5),
        later in proptest::collection::vec(slots(value()), 1..=3),
        k in 1usize..=2,
    ) {
        adopt_law_holds(
            |_, v| FloodSet::new(T, k, v),
            |v| v,
            three_processes(first, gaps),
            &values,
            &silent,
            &later,
            true,
        );
    }

    #[test]
    fn early_deciding_adopts_by_the_law(
        first in 0usize..N,
        gaps in (1usize..=4, 1usize..=4),
        values in proptest::collection::vec(value(), N),
        silent in proptest::collection::vec(0usize..N, 0..=5),
        later in proptest::collection::vec(slots(ed_message()), 1..=3),
        k in 1usize..=2,
    ) {
        adopt_law_holds(
            |_, v| EarlyDeciding::new(N, T, k, v),
            |estimate| EdMessage { estimate, deciding: false },
            three_processes(first, gaps),
            &values,
            &silent,
            &later,
            false,
        );
    }
}

/// A stale proposal among states (what a delaying link can produce in a
/// later round) makes the whole batch decline, wherever it sits.
#[test]
fn a_proposal_anywhere_in_a_batch_declines() {
    let state = || CbMessage::State {
        cond: Some(4u32),
        tmf: None,
        out: Some(2),
    };
    for at in 0..3 {
        let mut batch: Vec<_> = (0..3).map(|from| (ProcessId::new(from), state())).collect();
        assert!(fold_of::<ConditionBased<u32, MaxCondition>>(2, &batch).is_some());
        batch[at].1 = CbMessage::Proposal(9);
        assert!(fold_of::<ConditionBased<u32, MaxCondition>>(2, &batch).is_none());
    }
}

/// The round in which every sender crashes leaves nothing to fold.
#[test]
fn an_empty_batch_declines() {
    type Oracle = MaxCondition;
    assert_eq!(fold_of::<FloodSet<u32>>(3, &[]), None);
    assert_eq!(fold_of::<EarlyDeciding<u32>>(3, &[]), None);
    assert_eq!(fold_of::<ConditionBased<u32, Oracle>>(3, &[]), None);
    assert_eq!(fold_of::<EarlyConditionBased<u32, Oracle>>(3, &[]), None);
}

/// What one run returns.
type Run<O> = Result<Trace<O>, EngineError>;

/// The (ordered, unordered) traces two runs agree on, `None` where both
/// failed alike.
type Agreed<O> = (Option<Trace<O>>, Option<Trace<O>>);

/// Runs `processes` under the ordered pattern, or, given a `plan`, under
/// the pattern composed with it.
fn run_ordered<P: SyncProtocol>(
    processes: Vec<P>,
    ordered: &FailurePattern,
    plan: Option<&FaultPlan>,
    limit: usize,
) -> Run<P::Output> {
    match plan {
        None => run_protocol(processes, ordered, limit),
        Some(plan) => run_protocol_faulty(processes, ordered, plan, limit),
    }
}

/// [`run_ordered`] under the unordered pattern.
fn run_unordered<P: SyncProtocol>(
    processes: Vec<P>,
    unordered: &UnorderedFailurePattern,
    plan: Option<&FaultPlan>,
    limit: usize,
) -> Run<P::Output> {
    match plan {
        None => run_protocol_unordered(processes, unordered, limit),
        Some(plan) => run_protocol_unordered_faulty(processes, unordered, plan, limit),
    }
}

/// Runs `make()` as it is and as [`Unfolded`] under the ordered pattern
/// and under `unordered` — through the plain loops, or, given a `plan`,
/// the fault-composed ones — and returns the (ordered, unordered)
/// traces the two pairs agree on. The plain loops must terminate; under
/// a plan both sides may fail alike at the round limit (`None`).
fn assert_folding_changes_nothing<P, F>(
    make: F,
    ordered: &FailurePattern,
    unordered: &UnorderedFailurePattern,
    plan: Option<&FaultPlan>,
    limit: usize,
) -> Agreed<P::Output>
where
    P: SyncProtocol,
    F: Fn() -> Vec<P>,
{
    let unfolded = || make().into_iter().map(Unfolded).collect::<Vec<_>>();
    let folding = run_ordered(make(), ordered, plan, limit);
    let reference = run_ordered(unfolded(), ordered, plan, limit);
    assert_eq!(
        folding, reference,
        "folding diverged under {ordered} {plan:?}"
    );
    let folding_unordered = run_unordered(make(), unordered, plan, limit);
    let reference = run_unordered(unfolded(), unordered, plan, limit);
    assert_eq!(
        folding_unordered, reference,
        "folding diverged under {unordered:?} {plan:?}"
    );
    if plan.is_none() {
        assert!(folding.is_ok() && folding_unordered.is_ok(), "terminates");
    }
    (folding.ok(), folding_unordered.ok())
}

/// All four families over `inputs`, at `k = 1` (their longest runs) and
/// `k = 2`, each compared with its unfolded self — under `plan` if given.
fn assert_every_family(
    inputs: &[u32],
    ordered: &FailurePattern,
    unordered: &UnorderedFailurePattern,
    plan: Option<&FaultPlan>,
) {
    assert_every_family_at(T, inputs, ordered, unordered, plan);
}

/// [`assert_every_family`] in a system of `inputs.len()` processes
/// tolerating `t` crashes.
fn assert_every_family_at(
    t: usize,
    inputs: &[u32],
    ordered: &FailurePattern,
    unordered: &UnorderedFailurePattern,
    plan: Option<&FaultPlan>,
) {
    let n = inputs.len();
    for k in [1, 2] {
        let cfg = config_at(n, t, k);
        let oracle = MaxCondition::new(cfg.legality());
        let limit = cfg.round_limit();
        assert_folding_changes_nothing(
            || {
                (0..n)
                    .map(|i| ConditionBased::new(cfg, ProcessId::new(i), inputs[i], oracle))
                    .collect()
            },
            ordered,
            unordered,
            plan,
            limit,
        );
        assert_folding_changes_nothing(
            || {
                (0..n)
                    .map(|i| EarlyConditionBased::new(cfg, ProcessId::new(i), inputs[i], oracle))
                    .collect()
            },
            ordered,
            unordered,
            plan,
            limit,
        );
        assert_folding_changes_nothing(
            || {
                inputs
                    .iter()
                    .map(|&v| EarlyDeciding::new(n, t, k, v))
                    .collect()
            },
            ordered,
            unordered,
            plan,
            limit,
        );
        assert_folding_changes_nothing(
            || inputs.iter().map(|&v| FloodSet::new(t, k, v)).collect(),
            ordered,
            unordered,
            plan,
            limit,
        );
    }
}

fn subset(members: impl IntoIterator<Item = usize>) -> ProcessSet {
    subset_of(N, members)
}

fn subset_of(n: usize, members: impl IntoIterator<Item = usize>) -> ProcessSet {
    let mut set = ProcessSet::empty(n);
    set.extend(members.into_iter().map(ProcessId::new));
    set
}

/// The ordered pattern and its unordered twin: each victim crashes in
/// the same round, and under the twin reaches as many processes as its
/// prefix holds, but the last ones — a suffix where the ordered send
/// reaches a prefix.
fn with_unordered_twin(ordered: FailurePattern) -> (FailurePattern, UnorderedFailurePattern) {
    let n = ordered.system_size();
    let mut unordered = UnorderedFailurePattern::none(n);
    for (victim, spec) in ordered.iter() {
        let reached = subset_of(n, n - spec.after_sends..n);
        unordered
            .crash(victim, SubsetCrash::new(spec.round, reached))
            .expect("valid");
    }
    (ordered, unordered)
}

/// An ordered pattern over `n` processes from `(victim, round, prefix)`.
fn ordered_of(
    n: usize,
    crashes: impl IntoIterator<Item = (usize, usize, usize)>,
) -> FailurePattern {
    let mut pattern = FailurePattern::none(n);
    for (victim, round, prefix) in crashes {
        pattern
            .crash(ProcessId::new(victim), CrashSpec::new(round, prefix))
            .expect("valid");
    }
    pattern
}

/// Every shape of class the plain loop keeps, each run whole by all four
/// families under ordered and unordered sends against [`Unfolded`]:
/// * the staircase, whose crashes split a class in every round;
/// * the chain, whose carrier is each round a class of one;
/// * a class whose leader crashes mid-round: round 1 loses nobody (one
///   class where the family adopts it), then in round 2 its leader p1
///   crashes reaching p1..p4, and in round 3 the new leader p2 crashes
///   reaching p1..p2;
/// * more than 64 crashers in one round, at n = 80: round 1 loses
///   nobody, then 66 processes, p1 among them, crash in round 2 with
///   prefixes spread over the system, and the classes dissolve.
#[test]
fn every_shape_of_class_runs_to_the_per_message_trace() {
    let inputs = |n: usize| (0..n).map(|i| (i * 7 % 6) as u32 + 1).collect::<Vec<_>>();
    for ordered in [
        FailurePattern::staircase(N, T, 2),
        FailurePattern::chain(N, T),
        ordered_of(N, [(0, 2, 4), (1, 3, 2)]),
    ] {
        let (ordered, unordered) = with_unordered_twin(ordered);
        assert_every_family(&inputs(N), &ordered, &unordered, None);
    }
    let (n, t) = (80, 70);
    let many = ordered_of(n, (0..66).map(|victim| (victim, 2, victim * 37 % (n + 1))));
    let (ordered, unordered) = with_unordered_twin(many);
    assert_every_family_at(t, &inputs(n), &ordered, &unordered, None);
}

/// Each shape of round the fold path distinguishes, in one run: round 1
/// loses nobody; in round 2 p1 crashes reaching nobody (prefix 0) and p2
/// reaching everybody (prefix n); in round 3 p3 crashes mid-broadcast
/// and reaches, among others, p4 — itself crashing this round; and,
/// when `to_the_last`, every process still up crashes in round 4, so
/// that round's steady batch is empty.
#[test]
fn every_shape_of_round_folds_to_the_per_message_trace() {
    let inputs = [4, 1, 6, 2, 2, 5, 3, 6, 1, 4];
    for to_the_last in [false, true] {
        let mut ordered = FailurePattern::none(N);
        let mut unordered = UnorderedFailurePattern::none(N);
        let mut crash = |victim: usize, round: usize, prefix: usize, reached: ProcessSet| {
            ordered
                .crash(ProcessId::new(victim), CrashSpec::new(round, prefix))
                .expect("valid");
            unordered
                .crash(ProcessId::new(victim), SubsetCrash::new(round, reached))
                .expect("valid");
        };
        crash(0, 2, 0, subset([]));
        crash(1, 2, N, subset(0..N));
        crash(2, 3, 6, subset([9, 3, 4]));
        crash(3, 3, 2, subset([5]));
        if to_the_last {
            for victim in 4..N {
                crash(victim, 4, victim - 2, subset([victim, 4, 9]));
            }
        }
        assert_every_family(&inputs, &ordered, &unordered, None);

        // FloodSet at k = 1 runs all of T + 1 = 6 rounds, whoever
        // crashes: every shape above is a round it executes.
        let (trace, _) = assert_folding_changes_nothing(
            || inputs.iter().map(|&v| FloodSet::new(T, 1, v)).collect(),
            &ordered,
            &unordered,
            None,
            T + 2,
        );
        let trace = trace.expect("terminates");
        if to_the_last {
            assert_eq!(trace.rounds_executed(), 4);
            assert_eq!(trace.crashed_count(), N);
        } else {
            assert_eq!(trace.rounds_executed(), T + 1);
            assert_eq!(trace.decided_values(), [6].into_iter().collect());
            // Rounds 1 to 3 by hand: 10 × 10; 8 × 10 and p2's 10;
            // 6 × 8, p3's prefix of 6 less the two gone (4) and p4's
            // prefix of 2 less the same two (0); then 6 × 6 a round.
            assert_eq!(
                trace.messages_delivered(),
                100 + (80 + 10) + (48 + 4) + 3 * 36
            );
        }
    }
}

/// Each shape of round 1 the adopt path distinguishes, in one run: p1
/// crashes reaching nobody (prefix 0) and p2 everybody (prefix n); p3
/// crashes mid-broadcast and reaches, among others, p4 — itself crashing
/// this round. Under ordered sends that leaves two reach classes, p5–p6
/// and p7–p10; under the unordered twin p5, p7, p9 share one class and
/// p8, p10 another, none of them adjacent. When `everyone`, every other
/// process crashes in round 1 as well: nobody is left to represent.
#[test]
fn every_shape_of_round_one_adopts_to_the_per_message_trace() {
    let inputs = [4, 1, 6, 2, 2, 5, 3, 6, 1, 4];
    for everyone in [false, true] {
        let mut ordered = FailurePattern::none(N);
        let mut unordered = UnorderedFailurePattern::none(N);
        let mut crash = |victim: usize, prefix: usize, reached: ProcessSet| {
            ordered
                .crash(ProcessId::new(victim), CrashSpec::new(1, prefix))
                .expect("valid");
            unordered
                .crash(ProcessId::new(victim), SubsetCrash::new(1, reached))
                .expect("valid");
        };
        crash(0, 0, subset([]));
        crash(1, N, subset(0..N));
        crash(2, 6, subset([3, 5, 7, 9]));
        crash(3, 2, subset([5]));
        if everyone {
            for victim in 4..N {
                crash(victim, victim - 2, subset([victim, 4, 9]));
            }
        }
        assert_every_family(&inputs, &ordered, &unordered, None);

        let cfg = config(1);
        let oracle = MaxCondition::new(cfg.legality());
        let (trace, _) = assert_folding_changes_nothing(
            || {
                (0..N)
                    .map(|i| ConditionBased::new(cfg, ProcessId::new(i), inputs[i], oracle))
                    .collect()
            },
            &ordered,
            &unordered,
            None,
            cfg.round_limit(),
        );
        let trace = trace.expect("terminates");
        if everyone {
            assert_eq!(trace.rounds_executed(), 1);
            assert_eq!(trace.crashed_count(), N);
        } else {
            // Round 1 by hand: p2's 10, p3's prefix of 6 and p4's of 2,
            // and each of the 6 survivors' to everyone; then 6 × 6 a
            // round.
            let round_1 = 10 + 6 + 2 + 6 * N as u64;
            assert_eq!(
                trace.messages_delivered(),
                round_1 + 36 * (trace.rounds_executed() as u64 - 1)
            );
        }
    }
}

/// At most `N − 1` victims, each with a crash round in `1..=4`, an
/// ordered-send prefix and, for the unordered twin, an arbitrary
/// delivered set.
fn patterns() -> impl Strategy<Value = (FailurePattern, UnorderedFailurePattern)> {
    let crash = (
        0usize..N,
        1usize..=4,
        0usize..=N,
        proptest::collection::vec(any::<bool>(), N),
    );
    proptest::collection::vec(crash, 0..N).prop_map(|crashes| {
        let mut ordered = FailurePattern::none(N);
        let mut unordered = UnorderedFailurePattern::none(N);
        for (victim, round, prefix, reached) in crashes {
            let victim = ProcessId::new(victim);
            let reached = subset((0..N).filter(|&i| reached[i]));
            ordered
                .crash(victim, CrashSpec::new(round, prefix))
                .expect("valid");
            unordered
                .crash(victim, SubsetCrash::new(round, reached))
                .expect("valid");
        }
        (ordered, unordered)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn folding_changes_no_trace(
        inputs in proptest::collection::vec(value(), N),
        (ordered, unordered) in patterns(),
    ) {
        assert_every_family(&inputs, &ordered, &unordered, None);
    }
}

/// A seeded plan that reorders at any rate up to `RATE_SCALE` (a third
/// of them at `RATE_SCALE`, where every inbox is drawn for a shuffle),
/// and drops, delays by up to two rounds and duplicates at up to a
/// tenth of it each.
fn plans() -> impl Strategy<Value = FaultPlan> {
    let rate = 0..=RATE_SCALE / 10;
    (
        any::<u64>(),
        (0..=RATE_SCALE, 0u8..3),
        rate.clone(),
        (rate.clone(), 1usize..=2),
        rate,
    )
        .prop_map(|(seed, (reorder, full), drop, (delay, max_delay), dup)| {
            FaultPlan::new(N, seed)
                .reorder_rate(if full == 0 { RATE_SCALE } else { reorder })
                .drop_rate(drop)
                .delay_rate(delay, max_delay)
                .duplicate_rate(dup)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The fault-composed loops skip the shuffle in a round that folds;
    /// the unfolded wrapper declines every round and is shuffled in each.
    #[test]
    fn skipping_the_shuffle_of_a_folded_round_changes_no_trace(
        inputs in proptest::collection::vec(value(), N),
        (ordered, unordered) in patterns(),
        plan in plans(),
    ) {
        assert_every_family(&inputs, &ordered, &unordered, Some(&plan));
    }
}
