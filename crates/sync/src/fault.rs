//! Deterministic, seeded fault injection: the message adversary.
//!
//! A [`FaultPlan`] extends the crash adversary with *link* faults — per
//! (round, sender, receiver) decisions to **drop**, **delay** (by whole
//! rounds), or **duplicate** a message, plus per-(round, receiver)
//! inbox **reordering** and link **partitions** with scheduled heals.
//! Like a [`FailurePattern`](crate::FailurePattern), a plan is plain
//! data: every decision is a pure hash of `(seed, round, sender,
//! receiver)`, so the same plan replayed against the same protocol
//! yields the same execution on every tier that honours it — the
//! deterministic simulator and the loopback node mesh produce
//! byte-identical traces, and a TCP testnet injects the same drops at
//! its frame boundary.
//!
//! Faults never apply to self-delivery (`sender == receiver`): a
//! process's loopback of its own broadcast is reliable in every model.
//!
//! # Seeded reproducibility
//!
//! ```
//! use setagree_sync::{FaultPlan, LinkFault};
//! use setagree_types::ProcessId;
//!
//! let plan = FaultPlan::new(4, 0xFEED).drop_rate(2_500); // 25% of links
//! let again = FaultPlan::new(4, 0xFEED).drop_rate(2_500);
//! for round in 1..=3 {
//!     for s in 0..4 {
//!         for r in 0..4 {
//!             let (s, r) = (ProcessId::new(s), ProcessId::new(r));
//!             // Same seed → the same decision on every link, forever.
//!             assert_eq!(plan.decide(round, s, r), again.decide(round, s, r));
//!         }
//!     }
//! }
//! // A different seed draws a different (but equally replayable) plan.
//! let other = FaultPlan::new(4, 0xBEEF).drop_rate(2_500);
//! assert_eq!(other.decide(1, ProcessId::new(0), ProcessId::new(0)), LinkFault::Deliver);
//! ```

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use setagree_types::{ProcessId, ProcessSet};

/// Rates are parts-per-`RATE_SCALE`: a `drop_rate` of 2 500 drops 25 %
/// of links.
pub const RATE_SCALE: u32 = 10_000;

/// The fate of one (round, sender, receiver) link under a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkFault {
    /// The message arrives normally.
    Deliver,
    /// The message is lost (also the fate of every link a partition
    /// cuts).
    Drop,
    /// The message arrives `.0 ≥ 1` rounds late, ahead of that round's
    /// own arrivals.
    Delay(usize),
    /// The message arrives twice, back to back.
    Duplicate,
}

/// A scheduled link partition: messages crossing between `side` and its
/// complement are dropped for every round in `from_round..=to_round`,
/// after which the partition *heals* and the links carry again.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Partition {
    side: ProcessSet,
    from_round: usize,
    to_round: usize,
}

impl Partition {
    /// A partition isolating `side` from its complement during rounds
    /// `from_round..=to_round` (both 1-based, inclusive).
    ///
    /// # Panics
    ///
    /// Panics if `from_round` is 0 or the range is empty — partitions
    /// are authored by experiment code, and a silently inert partition
    /// would be worse than a loud one.
    pub fn new(side: ProcessSet, from_round: usize, to_round: usize) -> Partition {
        assert!(from_round >= 1, "rounds are 1-based");
        assert!(from_round <= to_round, "empty partition round range");
        Partition {
            side,
            from_round,
            to_round,
        }
    }

    /// The isolated side.
    pub fn side(&self) -> &ProcessSet {
        &self.side
    }

    /// First partitioned round (1-based, inclusive).
    pub fn from_round(&self) -> usize {
        self.from_round
    }

    /// Last partitioned round (inclusive); the heal happens after it.
    pub fn to_round(&self) -> usize {
        self.to_round
    }

    /// Whether this partition cuts the `a → b` link in `round`.
    pub fn cuts(&self, round: usize, a: ProcessId, b: ProcessId) -> bool {
        round >= self.from_round
            && round <= self.to_round
            && self.side.contains(a) != self.side.contains(b)
    }
}

impl fmt::Display for Partition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "partition{{")?;
        for (i, p) in self.side.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", p.index())?;
        }
        write!(f, "}}@r{}-{}", self.from_round, self.to_round)
    }
}

/// A seeded, deterministic message-fault plan over `n` processes.
///
/// Construct with [`FaultPlan::new`] and the builder-style rate setters;
/// [`FaultPlan::none`] is the benign plan every fault-aware path must
/// realize identically to the plain one (pinned by
/// `tests/fault_equivalence.rs`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FaultPlan {
    n: usize,
    seed: u64,
    drop_rate: u32,
    delay_rate: u32,
    max_delay: usize,
    duplicate_rate: u32,
    reorder_rate: u32,
    partitions: Vec<Partition>,
}

impl FaultPlan {
    /// The benign plan: no link faults at all.
    pub fn none(n: usize) -> FaultPlan {
        FaultPlan::new(n, 0)
    }

    /// An empty plan over `n` processes drawing decisions from `seed`.
    pub fn new(n: usize, seed: u64) -> FaultPlan {
        FaultPlan {
            n,
            seed,
            drop_rate: 0,
            delay_rate: 0,
            max_delay: 1,
            duplicate_rate: 0,
            reorder_rate: 0,
            partitions: Vec::new(),
        }
    }

    /// Shorthand for the common omission sweep: drop `rate` per
    /// [`RATE_SCALE`] of links, nothing else.
    pub fn uniform_drop(n: usize, seed: u64, rate: u32) -> FaultPlan {
        FaultPlan::new(n, seed).drop_rate(rate)
    }

    /// Sets the drop rate (parts per [`RATE_SCALE`], clamped).
    pub fn drop_rate(mut self, rate: u32) -> FaultPlan {
        self.drop_rate = rate.min(RATE_SCALE);
        self
    }

    /// Sets the delay rate and the maximum delay in rounds (≥ 1).
    pub fn delay_rate(mut self, rate: u32, max_delay: usize) -> FaultPlan {
        self.delay_rate = rate.min(RATE_SCALE);
        self.max_delay = max_delay.max(1);
        self
    }

    /// Sets the duplication rate (parts per [`RATE_SCALE`], clamped).
    pub fn duplicate_rate(mut self, rate: u32) -> FaultPlan {
        self.duplicate_rate = rate.min(RATE_SCALE);
        self
    }

    /// Sets the per-(round, receiver) inbox reorder rate.
    pub fn reorder_rate(mut self, rate: u32) -> FaultPlan {
        self.reorder_rate = rate.min(RATE_SCALE);
        self
    }

    /// Adds a scheduled [`Partition`].
    pub fn partition(mut self, partition: Partition) -> FaultPlan {
        self.partitions.push(partition);
        self
    }

    /// The system size the plan is defined over.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The seed every decision is drawn from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The scheduled partitions.
    pub fn partitions(&self) -> &[Partition] {
        &self.partitions
    }

    /// A compact, deterministic summary for log lines, verdicts and
    /// metric attributions: `faults <seed>:<drop_rate>`, extended with
    /// the non-zero optional rates and the partition count.
    ///
    /// ```
    /// use setagree_sync::{FaultPlan, Partition};
    /// use setagree_types::ProcessSet;
    ///
    /// let plan = FaultPlan::uniform_drop(5, 51966, 1500)
    ///     .partition(Partition::new(ProcessSet::full(5), 1, 1));
    /// assert_eq!(plan.summary(), "faults 51966:1500 partitions:1");
    /// ```
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut s = format!("faults {}:{}", self.seed, self.drop_rate);
        if self.delay_rate > 0 {
            let _ = write!(s, " delay:{}x{}", self.delay_rate, self.max_delay);
        }
        if self.duplicate_rate > 0 {
            let _ = write!(s, " dup:{}", self.duplicate_rate);
        }
        if self.reorder_rate > 0 {
            let _ = write!(s, " reorder:{}", self.reorder_rate);
        }
        if !self.partitions.is_empty() {
            let _ = write!(s, " partitions:{}", self.partitions.len());
        }
        s
    }

    /// `true` when the plan can never fault a link — such a plan is
    /// guaranteed to run trace-identical to the fault-free path.
    pub fn is_benign(&self) -> bool {
        self.drop_rate == 0
            && self.delay_rate == 0
            && self.duplicate_rate == 0
            && self.reorder_rate == 0
            && self.partitions.is_empty()
    }

    /// The fate of the `from → to` link in `round` — a pure function of
    /// the plan; both the simulator engine and the transport wrapper
    /// call exactly this.
    pub fn decide(&self, round: usize, from: ProcessId, to: ProcessId) -> LinkFault {
        if from == to {
            return LinkFault::Deliver;
        }
        if self.partitions.iter().any(|p| p.cuts(round, from, to)) {
            return LinkFault::Drop;
        }
        if self.drop_rate == 0 && self.delay_rate == 0 && self.duplicate_rate == 0 {
            return LinkFault::Deliver;
        }
        let mut stream = self.stream(&[1, round as u64, from.index() as u64, to.index() as u64]);
        let scale = u64::from(RATE_SCALE);
        let draw_drop = stream.next() % scale;
        let draw_delay = stream.next() % scale;
        let draw_amount = stream.next();
        let draw_dup = stream.next() % scale;
        if draw_drop < u64::from(self.drop_rate) {
            LinkFault::Drop
        } else if draw_delay < u64::from(self.delay_rate) {
            LinkFault::Delay(1 + (draw_amount % self.max_delay as u64) as usize)
        } else if draw_dup < u64::from(self.duplicate_rate) {
            LinkFault::Duplicate
        } else {
            LinkFault::Deliver
        }
    }

    /// Applies the plan's (round, receiver) reorder draw to an assembled
    /// inbox: a seeded Fisher–Yates shuffle when the draw fires, the
    /// identity otherwise.
    pub fn permute<T>(&self, round: usize, to: ProcessId, inbox: &mut [T]) {
        if self.reorder_rate == 0 || inbox.len() < 2 {
            return;
        }
        let mut stream = self.stream(&[2, round as u64, to.index() as u64]);
        if stream.next() % u64::from(RATE_SCALE) >= u64::from(self.reorder_rate) {
            return;
        }
        for i in (1..inbox.len()).rev() {
            let j = (stream.next() % (i as u64 + 1)) as usize;
            inbox.swap(i, j);
        }
    }

    /// A decision stream keyed by the plan's seed and the given salts.
    fn stream(&self, salts: &[u64]) -> DecisionStream {
        let mut state = splitmix(self.seed ^ 0x5E7A_6EE0_FA17_1B0B);
        for &salt in salts {
            state = splitmix(state ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        }
        DecisionStream { state }
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_benign() {
            return write!(f, "benign");
        }
        write!(f, "seed={:#x}", self.seed)?;
        if self.drop_rate > 0 {
            write!(f, " drop={}", self.drop_rate)?;
        }
        if self.delay_rate > 0 {
            write!(f, " delay={}≤{}r", self.delay_rate, self.max_delay)?;
        }
        if self.duplicate_rate > 0 {
            write!(f, " dup={}", self.duplicate_rate)?;
        }
        if self.reorder_rate > 0 {
            write!(f, " reorder={}", self.reorder_rate)?;
        }
        for p in &self.partitions {
            write!(f, " {p}")?;
        }
        Ok(())
    }
}

/// A splittable counter-based stream: no shared state, so any two tiers
/// that draw the same salts read the same sequence.
struct DecisionStream {
    state: u64,
}

impl DecisionStream {
    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix(self.state)
    }
}

/// The SplitMix64 finalizer: a bijective avalanche mix.
fn splitmix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The fault layer's metric handles. [`FaultInbox::assemble`] is the
/// single realization of the plan's delivery semantics for *both* the
/// simulator and the transport wrapper, so counting here covers every
/// tier: `fault_messages_dropped` / `fault_messages_delayed` /
/// `fault_messages_duplicated`.
struct FaultMetrics {
    dropped: std::sync::Arc<setagree_obs::Counter>,
    delayed: std::sync::Arc<setagree_obs::Counter>,
    duplicated: std::sync::Arc<setagree_obs::Counter>,
}

fn fault_metrics() -> &'static FaultMetrics {
    static METRICS: std::sync::OnceLock<FaultMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| FaultMetrics {
        dropped: setagree_obs::counter("fault_messages_dropped", &[]),
        delayed: setagree_obs::counter("fault_messages_delayed", &[]),
        duplicated: setagree_obs::counter("fault_messages_duplicated", &[]),
    })
}

/// One receiver's fault-plan bookkeeping: stashes delayed letters and
/// assembles each round's final inbox. This is the *single* realization
/// of the plan's delivery semantics — the simulator engine feeds it
/// `Rc`-shared messages, the transport wrapper feeds it letters — so the
/// two tiers cannot drift.
///
/// Inbox order is part of the contract: delayed letters first (sorted by
/// original round, then sender — the order they were stashed), then the
/// current round's arrivals in sender order with duplicates adjacent,
/// then the plan's reorder permutation over the whole assembly.
#[derive(Debug)]
pub struct FaultInbox<L> {
    plan: FaultPlan,
    me: ProcessId,
    /// `arrival round → (original round, sender, letter)`, in stash
    /// order (original round ascending, sender ascending within it).
    stash: BTreeMap<usize, Vec<(usize, ProcessId, L)>>,
}

impl<L: Clone> FaultInbox<L> {
    /// A fresh inbox for `me` under `plan`.
    pub fn new(plan: FaultPlan, me: ProcessId) -> FaultInbox<L> {
        FaultInbox {
            plan,
            me,
            stash: BTreeMap::new(),
        }
    }

    /// Runs round `round`'s raw arrivals (sorted by sender) through the
    /// plan and returns the final inbox plus the delivered-count
    /// adjustment: −1 per drop, +1 per duplicate (a delayed letter was
    /// already counted when its broadcast was accepted, so delays
    /// adjust nothing).
    pub fn assemble(
        &mut self,
        round: usize,
        mut arrivals: Vec<(ProcessId, L)>,
    ) -> (Vec<(ProcessId, L)>, i64) {
        let mut inbox = Vec::with_capacity(arrivals.len());
        let adjust = self.assemble_into(round, &mut arrivals, &mut inbox);
        (inbox, adjust)
    }

    /// [`FaultInbox::assemble`] over caller-owned buffers: drains
    /// `arrivals` and appends the assembly to the (empty) `inbox`, so a
    /// round loop reusing both performs no allocation here unless the
    /// plan delays or duplicates a letter.
    pub(crate) fn assemble_into(
        &mut self,
        round: usize,
        arrivals: &mut Vec<(ProcessId, L)>,
        inbox: &mut Vec<(ProcessId, L)>,
    ) -> i64 {
        debug_assert!(inbox.is_empty(), "the assembly is the whole inbox");
        let obs_on = setagree_obs::enabled();
        let mut adjust = 0i64;
        // Due (and, defensively, overdue) stashed letters lead the inbox.
        while let Some(due) = self.stash.first_entry() {
            if *due.key() > round {
                break;
            }
            inbox.extend(due.remove().into_iter().map(|(_, from, l)| (from, l)));
        }
        for (from, letter) in arrivals.drain(..) {
            if from == self.me {
                inbox.push((from, letter));
                continue;
            }
            match self.plan.decide(round, from, self.me) {
                LinkFault::Deliver => inbox.push((from, letter)),
                LinkFault::Drop => {
                    adjust -= 1;
                    if obs_on {
                        fault_metrics().dropped.inc();
                    }
                }
                LinkFault::Duplicate => {
                    inbox.push((from, letter.clone()));
                    inbox.push((from, letter));
                    adjust += 1;
                    if obs_on {
                        fault_metrics().duplicated.inc();
                    }
                }
                LinkFault::Delay(by) => {
                    self.stash
                        .entry(round + by)
                        .or_default()
                        .push((round, from, letter));
                    if obs_on {
                        fault_metrics().delayed.inc();
                    }
                }
            }
        }
        self.plan.permute(round, self.me, inbox);
        adjust
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn benign_plan_delivers_everything() {
        let plan = FaultPlan::none(5);
        assert!(plan.is_benign());
        for round in 1..=4 {
            for s in 0..5 {
                for r in 0..5 {
                    assert_eq!(plan.decide(round, p(s), p(r)), LinkFault::Deliver);
                }
            }
        }
    }

    #[test]
    fn self_delivery_is_never_faulted() {
        let plan = FaultPlan::new(4, 7)
            .drop_rate(RATE_SCALE)
            .partition(Partition::new(ProcessSet::full(4), 1, 10));
        for round in 1..=10 {
            for i in 0..4 {
                assert_eq!(plan.decide(round, p(i), p(i)), LinkFault::Deliver);
            }
        }
    }

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let a = FaultPlan::new(6, 0xAB).drop_rate(3000).duplicate_rate(2000);
        let b = FaultPlan::new(6, 0xAB).drop_rate(3000).duplicate_rate(2000);
        let c = FaultPlan::new(6, 0xCD).drop_rate(3000).duplicate_rate(2000);
        let mut differs = false;
        for round in 1..=6 {
            for s in 0..6 {
                for r in 0..6 {
                    assert_eq!(a.decide(round, p(s), p(r)), b.decide(round, p(s), p(r)));
                    differs |= a.decide(round, p(s), p(r)) != c.decide(round, p(s), p(r));
                }
            }
        }
        assert!(differs, "distinct seeds should draw distinct plans");
    }

    #[test]
    fn rates_roughly_hold() {
        let plan = FaultPlan::new(32, 42).drop_rate(RATE_SCALE / 2);
        let mut dropped = 0usize;
        let mut total = 0usize;
        for round in 1..=20 {
            for s in 0..32 {
                for r in 0..32 {
                    if s == r {
                        continue;
                    }
                    total += 1;
                    if plan.decide(round, p(s), p(r)) == LinkFault::Drop {
                        dropped += 1;
                    }
                }
            }
        }
        let fraction = dropped as f64 / total as f64;
        assert!(
            (0.45..0.55).contains(&fraction),
            "a 50% plan dropped {fraction:.3} of links"
        );
    }

    #[test]
    fn partitions_cut_exactly_the_scheduled_rounds() {
        let mut side = ProcessSet::empty(4);
        side.insert(p(0));
        side.insert(p(1));
        let plan = FaultPlan::new(4, 0).partition(Partition::new(side, 2, 3));
        // Within the window: cross-side links drop, same-side links carry.
        for round in 2..=3 {
            assert_eq!(plan.decide(round, p(0), p(2)), LinkFault::Drop);
            assert_eq!(plan.decide(round, p(3), p(1)), LinkFault::Drop);
            assert_eq!(plan.decide(round, p(0), p(1)), LinkFault::Deliver);
            assert_eq!(plan.decide(round, p(2), p(3)), LinkFault::Deliver);
        }
        // Before and after (the heal): everything carries.
        for round in [1, 4, 9] {
            for s in 0..4 {
                for r in 0..4 {
                    assert_eq!(plan.decide(round, p(s), p(r)), LinkFault::Deliver);
                }
            }
        }
    }

    #[test]
    fn delays_stay_within_bounds() {
        let plan = FaultPlan::new(8, 9).delay_rate(RATE_SCALE, 3);
        for round in 1..=5 {
            for s in 0..8 {
                for r in 0..8 {
                    if s == r {
                        continue;
                    }
                    match plan.decide(round, p(s), p(r)) {
                        LinkFault::Delay(by) => assert!((1..=3).contains(&by)),
                        other => panic!("a rate-10000 delay plan decided {other:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn inbox_assembly_orders_delayed_before_current() {
        let plan = FaultPlan::new(3, 0).delay_rate(RATE_SCALE, 1);
        let mut inbox: FaultInbox<u32> = FaultInbox::new(plan, p(0));
        // Round 1: both peer letters are delayed by exactly one round.
        let (got, adjust) = inbox.assemble(1, vec![(p(0), 10), (p(1), 11), (p(2), 12)]);
        assert_eq!(got, vec![(p(0), 10)]);
        assert_eq!(adjust, 0);
        // Round 2: the delayed letters lead, the new peer letters are
        // delayed again in turn.
        let (got, adjust) = inbox.assemble(2, vec![(p(0), 20), (p(1), 21), (p(2), 22)]);
        assert_eq!(got, vec![(p(1), 11), (p(2), 12), (p(0), 20)]);
        assert_eq!(adjust, 0);
    }

    #[test]
    fn inbox_assembly_counts_drops_and_duplicates() {
        let drops = FaultPlan::new(3, 0).drop_rate(RATE_SCALE);
        let mut inbox: FaultInbox<u32> = FaultInbox::new(drops, p(1));
        let (got, adjust) = inbox.assemble(1, vec![(p(0), 5), (p(1), 6), (p(2), 7)]);
        assert_eq!(
            got,
            vec![(p(1), 6)],
            "self-delivery survives a full drop plan"
        );
        assert_eq!(adjust, -2);

        let dups = FaultPlan::new(3, 0).duplicate_rate(RATE_SCALE);
        let mut inbox: FaultInbox<u32> = FaultInbox::new(dups, p(1));
        let (got, adjust) = inbox.assemble(1, vec![(p(0), 5), (p(1), 6), (p(2), 7)]);
        assert_eq!(
            got,
            vec![(p(0), 5), (p(0), 5), (p(1), 6), (p(2), 7), (p(2), 7)],
            "duplicates are adjacent, self-delivery is single"
        );
        assert_eq!(adjust, 2);
    }

    #[test]
    fn permutation_is_deterministic() {
        let plan = FaultPlan::new(4, 77).reorder_rate(RATE_SCALE);
        let mut a: Vec<u32> = (0..10).collect();
        let mut b: Vec<u32> = (0..10).collect();
        plan.permute(3, p(1), &mut a);
        plan.permute(3, p(1), &mut b);
        assert_eq!(a, b);
        assert_ne!(a, (0..10).collect::<Vec<u32>>(), "rate-10000 must shuffle");
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<u32>>());
    }

    #[test]
    fn display_summarizes_the_plan() {
        assert_eq!(FaultPlan::none(4).to_string(), "benign");
        let mut side = ProcessSet::empty(4);
        side.insert(p(2));
        let plan = FaultPlan::new(4, 0x10)
            .drop_rate(100)
            .partition(Partition::new(side, 1, 2));
        assert_eq!(plan.to_string(), "seed=0x10 drop=100 partition{2}@r1-2");
    }
}
