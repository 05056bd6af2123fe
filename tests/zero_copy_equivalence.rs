//! The zero-copy broadcast path is a pure optimization: delivering each
//! sender's one owned message to all recipients by reference (simulator)
//! or behind one `Arc` (loopback nodes) must be observationally
//! identical to the seed engine's clone-per-recipient semantics.
//!
//! The reference implementation below is a line-for-line port of the seed
//! `run_with_policy` loop that still deep-clones every message for every
//! recipient; the property tests sweep seeded adversaries over every
//! protocol family and assert byte-identical [`Trace`]s — same outcomes,
//! same rounds, same `messages_delivered` counts — from the reference
//! engine, the zero-copy simulator, and the `Arc`-fan-out loopback
//! nodes that `Executor::Threaded` runs on.

use proptest::prelude::*;

use setagree::conditions::MaxCondition;
use setagree::core::{
    ConditionBased, ConditionBasedConfig, EarlyConditionBased, EarlyDeciding, Executor, FloodSet,
    Scenario,
};
use setagree::node::run_loopback;
use setagree::sync::{run_protocol, CrashSpec, FailurePattern, Outcome, Step, SyncProtocol, Trace};
use setagree::types::{InputVector, ProcessId, View};

/// The seed engine, verbatim, with the per-recipient deep clone the
/// zero-copy rework removed: every delivery clones the sender's message
/// and hands the clone to the recipient.
fn run_protocol_cloning<P>(
    processes: Vec<P>,
    pattern: &FailurePattern,
    max_rounds: usize,
) -> Trace<P::Output>
where
    P: SyncProtocol,
    P::Msg: Clone,
{
    let n = processes.len();
    assert_eq!(n, pattern.system_size(), "size mismatch");

    let mut procs = processes;
    let mut outcomes: Vec<Option<Outcome<P::Output>>> = (0..n).map(|_| None).collect();
    let mut messages_delivered: u64 = 0;
    let mut rounds_executed = 0;

    for round in 1..=max_rounds {
        let active: Vec<usize> = (0..n).filter(|&i| outcomes[i].is_none()).collect();
        if active.is_empty() {
            break;
        }
        rounds_executed = round;

        let mut sends: Vec<(usize, P::Msg, bool)> = Vec::with_capacity(active.len());
        for &i in &active {
            let crashing_now = pattern.spec(ProcessId::new(i)).map(|s| s.round) == Some(round);
            let msg = procs[i].message(round);
            sends.push((i, msg, crashing_now));
        }

        for &(sender, ref msg, crashing_now) in &sends {
            let prefix = pattern
                .spec(ProcessId::new(sender))
                .map(|s| s.after_sends)
                .unwrap_or(0);
            for recipient in 0..n {
                if outcomes[recipient].is_some() {
                    continue;
                }
                if crashing_now && recipient >= prefix {
                    continue;
                }
                // The seed semantics under test: one deep clone per
                // recipient.
                let copy = msg.clone();
                procs[recipient].receive(round, ProcessId::new(sender), &copy);
                messages_delivered += 1;
            }
        }

        for &i in &active {
            if pattern.spec(ProcessId::new(i)).map(|s| s.round) == Some(round) {
                outcomes[i] = Some(Outcome::Crashed { round });
            }
        }

        for &i in &active {
            if outcomes[i].is_some() {
                continue;
            }
            if let Step::Decide(value) = procs[i].compute(round) {
                outcomes[i] = Some(Outcome::Decided { value, round });
            }
        }
    }

    let outcomes = outcomes
        .into_iter()
        .map(|o| o.expect("round limit exceeded in reference engine"))
        .collect();
    Trace::from_parts(outcomes, rounds_executed, messages_delivered)
}

/// A flood protocol with a *heavy* message — the full `View<u32>` the
/// paper's protocols broadcast — merging in place and deciding once its
/// view shows enough distinct values (a per-round check on
/// `View::distinct_count`, the clone-free count) or the round budget
/// runs out.
#[derive(Debug, Clone)]
struct ViewFlood {
    rounds: usize,
    target_distinct: usize,
    view: View<u32>,
}

impl ViewFlood {
    fn new(me: usize, n: usize, input: u32, rounds: usize, target_distinct: usize) -> Self {
        let mut view = View::all_bottom(n);
        view.set(ProcessId::new(me), input);
        ViewFlood {
            rounds,
            target_distinct,
            view,
        }
    }
}

impl SyncProtocol for ViewFlood {
    type Msg = View<u32>;
    type Output = View<u32>;

    fn message(&mut self, _round: usize) -> View<u32> {
        self.view.clone()
    }

    fn receive(&mut self, _round: usize, _from: ProcessId, msg: &View<u32>) {
        self.view.merge_from(msg);
    }

    fn compute(&mut self, round: usize) -> Step<View<u32>> {
        if round >= self.rounds || self.view.distinct_count() >= self.target_distinct {
            Step::Decide(self.view.clone())
        } else {
            Step::Continue
        }
    }
}

/// A protocol that decides its own delivery log: every `(round, from)`
/// it was handed, in the order it was handed them. With it the trace
/// comparison pins, per process, *which* deliveries happened and in what
/// order — not just a state that happens to be order-insensitive.
/// Process `i` decides at the end of round `1 + i % 3`, so later rounds
/// run with some processes already gone.
#[derive(Debug, Clone)]
struct DeliveryLog {
    decide_at: usize,
    log: Vec<(usize, usize)>,
}

impl DeliveryLog {
    fn system(n: usize) -> Vec<Self> {
        (0..n)
            .map(|i| DeliveryLog {
                decide_at: 1 + i % 3,
                log: Vec::new(),
            })
            .collect()
    }
}

impl SyncProtocol for DeliveryLog {
    type Msg = ();
    type Output = Vec<(usize, usize)>;

    fn message(&mut self, _round: usize) {}

    fn receive(&mut self, round: usize, from: ProcessId, _msg: &()) {
        self.log.push((round, from.index()));
    }

    fn compute(&mut self, round: usize) -> Step<Self::Output> {
        if round >= self.decide_at {
            Step::Decide(self.log.clone())
        } else {
            Step::Continue
        }
    }
}

fn pattern_strategy(n: usize, t: usize) -> impl Strategy<Value = FailurePattern> {
    proptest::collection::vec((0usize..n, 1usize..=4, 0usize..=n), 0..=t).prop_map(move |crashes| {
        let mut pattern = FailurePattern::none(n);
        let mut victims = std::collections::BTreeSet::new();
        for (idx, round, prefix) in crashes {
            if victims.len() >= t || !victims.insert(idx) {
                continue;
            }
            pattern
                .crash(ProcessId::new(idx), CrashSpec::new(round, prefix))
                .expect("valid");
        }
        pattern
    })
}

const N: usize = 8;
const T: usize = 4;

fn config() -> ConditionBasedConfig {
    ConditionBasedConfig::builder(N, T, 2)
        .condition_degree(2)
        .ell(2)
        .build()
        .expect("valid")
}

fn assert_all_equal<P, F>(make: F, pattern: &FailurePattern, limit: usize) -> Trace<P::Output>
where
    P: SyncProtocol + Send + 'static,
    P::Msg: Clone + Send + Sync,
    P::Output: Clone + Ord + std::fmt::Debug + Send,
    F: Fn() -> Vec<P>,
{
    let reference = run_protocol_cloning(make(), pattern, limit);
    let zero_copy = run_protocol(make(), pattern, limit).expect("simulator");
    let nodes = run_loopback(make(), pattern, limit).expect("loopback nodes");
    assert_eq!(
        reference, zero_copy,
        "zero-copy simulator diverged from clone-based semantics under {pattern}"
    );
    assert_eq!(
        reference, nodes,
        "Arc-broadcast loopback nodes diverged from clone-based semantics under {pattern}"
    );
    assert_eq!(
        reference.messages_delivered(),
        zero_copy.messages_delivered()
    );
    assert_eq!(reference.messages_delivered(), nodes.messages_delivered());
    reference
}

/// The three delivery edge cases in one pattern: p2 crashes mid-broadcast
/// in round 1 (prefix 3), p6 crashes in round 2 before sending to anyone —
/// while the round-2 senders still deliver to it — and p1, p4, p7 decided
/// at the end of round 1, so round 2 runs without them.
#[test]
fn each_process_receives_in_ascending_sender_order() {
    let mut pattern = FailurePattern::none(N);
    pattern
        .crash(ProcessId::new(1), CrashSpec::new(1, 3))
        .expect("valid");
    pattern
        .crash(ProcessId::new(5), CrashSpec::new(2, 0))
        .expect("valid");
    let trace = assert_all_equal(|| DeliveryLog::system(N), &pattern, 4);

    let log_of = |i: usize| {
        trace
            .outcome(ProcessId::new(i))
            .decided_value()
            .unwrap_or_else(|| panic!("p{} decides", i + 1))
            .clone()
    };
    // Round 1: everyone sends; p2's broadcast reaches p1..p3 only.
    assert_eq!(log_of(0), (0..N).map(|from| (1, from)).collect::<Vec<_>>());
    assert_eq!(
        log_of(3),
        (0..N)
            .filter(|&from| from != 1)
            .map(|from| (1, from))
            .collect::<Vec<_>>()
    );
    // Round 2: p1, p4, p7 decided a round earlier and p2 is gone; p6
    // crashes before its first send. p3 hears exactly p3, p5, p8.
    let round_2: Vec<(usize, usize)> = log_of(2).into_iter().filter(|&(r, _)| r == 2).collect();
    assert_eq!(round_2, [(2, 2), (2, 4), (2, 7)]);
    for i in (0..N).filter(|&i| i != 1 && i != 5) {
        let log = log_of(i);
        assert!(
            log.windows(2).all(|pair| pair[0] < pair[1]),
            "p{} was served out of sender order: {log:?}",
            i + 1
        );
    }
    // Round 1: 7 full broadcasts and p2's prefix of 3. Round 2: 3 senders
    // × 4 recipients (p3, p5, p6, p8 — the crashing p6 is still delivered
    // to). Round 3: p3's self-delivery.
    assert_eq!(trace.messages_delivered(), (7 * 8 + 3) + 3 * 4 + 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every protocol family, every seeded adversary: the reference
    /// clone-based engine, the zero-copy simulator and the loopback
    /// nodes produce identical traces.
    #[test]
    fn zero_copy_matches_cloning_semantics(
        entries in proptest::collection::vec(1u32..=5, N),
        pattern in pattern_strategy(N, T),
    ) {
        let cfg = config();
        let oracle = MaxCondition::new(cfg.legality());
        let limit = cfg.round_limit();

        assert_all_equal(
            || {
                (0..N)
                    .map(|i| {
                        ConditionBased::new(cfg, ProcessId::new(i), entries[i], oracle)
                    })
                    .collect::<Vec<_>>()
            },
            &pattern,
            limit,
        );
        assert_all_equal(
            || {
                (0..N)
                    .map(|i| {
                        EarlyConditionBased::new(cfg, ProcessId::new(i), entries[i], oracle)
                    })
                    .collect::<Vec<_>>()
            },
            &pattern,
            limit,
        );
        assert_all_equal(
            || entries.iter().map(|&v| EarlyDeciding::new(N, T, 2, v)).collect::<Vec<_>>(),
            &pattern,
            limit,
        );
        assert_all_equal(
            || entries.iter().map(|&v| FloodSet::new(T, 2, v)).collect::<Vec<_>>(),
            &pattern,
            limit,
        );
        // The heavy-message flood: the shape whose per-recipient clones
        // the zero-copy path actually eliminates.
        let distinct = InputVector::new(entries.clone()).distinct_count();
        assert_all_equal(
            || {
                (0..N)
                    .map(|i| ViewFlood::new(i, N, entries[i], 4, distinct))
                    .collect::<Vec<_>>()
            },
            &pattern,
            6,
        );
        // Per-process delivery order itself, as the decided value.
        assert_all_equal(|| DeliveryLog::system(N), &pattern, 4);
    }

    /// Report-level equivalence through the `Scenario` front door: both
    /// executors report the same decisions, rounds and delivery counts.
    #[test]
    fn reports_carry_identical_delivery_counts(
        entries in proptest::collection::vec(1u32..=5, N),
        pattern in pattern_strategy(N, T),
    ) {
        let cfg = config();
        let oracle = MaxCondition::new(cfg.legality());
        let scenario = Scenario::condition_based(cfg, oracle)
            .input(InputVector::new(entries))
            .pattern(pattern.clone());
        let simulated = scenario.clone().executor(Executor::Simulator).run().expect("simulator");
        let threaded = scenario.executor(Executor::Threaded).run().expect("threaded");
        prop_assert_eq!(simulated.trace(), threaded.trace());
        let (s, t) = (
            simulated.trace().expect("round-based"),
            threaded.trace().expect("round-based"),
        );
        prop_assert_eq!(s.messages_delivered(), t.messages_delivered());
        prop_assert_eq!(s.rounds_executed(), t.rounds_executed());
        prop_assert_eq!(s.outcomes(), t.outcomes());
    }
}
