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
//! # Decided once per plan
//!
//! A link's fate depends on nothing but the plan and the link, and one
//! plan usually serves a whole sweep of cells. The simulator therefore
//! decides each link once per plan and thread, not once per run: its
//! round loop reads a recipient's fates from a table of one byte per
//! link and round, filled the first time a run of that plan reaches the
//! round and kept for the thread's next run of the same plan (only the
//! last plan that faults links is kept). The kept table is bounded
//! (4 MiB per thread); the rounds past it are decided row by row into
//! one reused row, and not kept. The transport wrapper decides each
//! collected round's row the same way, through the same builder.
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

use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

use serde::{Deserialize, Serialize};

use setagree_types::{ProcessId, ProcessSet};

/// Rates are parts-per-`RATE_SCALE`: a `drop_rate` of 2 500 drops 25 %
/// of links.
pub const RATE_SCALE: u32 = 10_000;

/// Parses a `<seed>:<rate>` value, as the `--faults` flags take it: both
/// parts trimmed, the rate in parts per [`RATE_SCALE`]. A rate past the
/// scale is refused, not clamped: the plan builder would clamp it, and
/// two labels would name one plan.
pub fn parse_seed_rate(value: &str) -> Option<(u64, u32)> {
    let (seed, rate) = value.split_once(':')?;
    let (seed, rate) = (seed.trim().parse().ok()?, rate.trim().parse().ok()?);
    (rate <= RATE_SCALE).then_some((seed, rate))
}

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
        self.reorder_rate == 0 && !self.faults_links()
    }

    /// Whether the (round, receiver) reorder draw can fire: only then
    /// can an inbox's order differ from the one `deliver` routes.
    pub(crate) fn reorders(&self) -> bool {
        self.reorder_rate > 0
    }

    /// Whether some link can be dropped, delayed or duplicated — what a
    /// reorder draw alone cannot do.
    fn faults_links(&self) -> bool {
        self.drop_rate > 0
            || self.delay_rate > 0
            || self.duplicate_rate > 0
            || !self.partitions.is_empty()
    }

    /// The fate of the `from → to` link in `round` — a pure function of
    /// the plan; both the simulator engine and the transport wrapper
    /// decide every link through the one body behind this.
    pub fn decide(&self, round: usize, from: ProcessId, to: ProcessId) -> LinkFault {
        self.links(round, to)
            .decide(from, || self.round(round).sender(from))
    }

    /// The `[seed, 1, round]` part of every link decision of `round`,
    /// folded once: a row builder asks for it once per round, and for
    /// [`RoundSalt::sender`] once per sender, in place of five hashes
    /// per link.
    fn round(&self, round: usize) -> RoundSalt {
        RoundSalt(self.stream(&[1, round as u64]).state)
    }

    /// Decides the links into `to` in `round` into `row`, one fate byte
    /// per sender index, given each sender's [`RoundSalt::sender`]
    /// state: the one builder of every row a delivery reads.
    fn decide_row(
        &self,
        round: usize,
        to: ProcessId,
        sender_state: impl Fn(usize) -> u64,
        row: &mut [u8],
    ) {
        let links = self.links(round, to);
        for (from, fate) in row.iter_mut().enumerate() {
            *fate = fate_code(links.decide(ProcessId::new(from), || sender_state(from)));
        }
    }

    /// The links into `to` in `round`.
    fn links(&self, round: usize, to: ProcessId) -> Links<'_> {
        Links {
            round,
            to,
            partitions: &self.partitions,
            drop_rate: self.drop_rate,
            delay_rate: self.delay_rate,
            duplicate_rate: self.duplicate_rate,
            max_delay: self.max_delay,
        }
    }

    /// The parent's decision body — all four draws, eagerly, from a
    /// stream salted per link — kept as the reference [`FaultPlan::decide`]
    /// is tested against.
    #[cfg(test)]
    fn decide_by_full_stream(&self, round: usize, from: ProcessId, to: ProcessId) -> LinkFault {
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
        if inbox.len() < 2 {
            return;
        }
        if let Some(stream) = self.reorder_draw(round, to) {
            stream.shuffle(inbox);
        }
    }

    /// The (round, receiver) reorder draw: the stream the shuffle goes
    /// on reading when the draw fires, `None` when the inbox keeps its
    /// order — known before the inbox's first letter is.
    fn reorder_draw(&self, round: usize, to: ProcessId) -> Option<DecisionStream> {
        if self.reorder_rate == 0 {
            return None;
        }
        let mut stream = self.stream(&[2, round as u64, to.index() as u64]);
        (stream.next() % u64::from(RATE_SCALE) < u64::from(self.reorder_rate)).then_some(stream)
    }

    /// How many rounds a letter of this plan can outlive the round it
    /// was sent in (0 when the plan delays nothing).
    pub(crate) fn longest_delay(&self) -> usize {
        if self.delay_rate > 0 {
            self.max_delay
        } else {
            0
        }
    }

    /// A decision stream keyed by the plan's seed and the given salts.
    fn stream(&self, salts: &[u64]) -> DecisionStream {
        let mut state = splitmix(self.seed ^ 0x5E7A_6EE0_FA17_1B0B);
        for &salt in salts {
            state = salted(state, salt);
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

/// The links into one receiver in one round, with the plan's parameters
/// read once: a delivery loop deciding link after link keeps them in
/// registers where it would reload the plan's fields around every
/// `receive`.
struct Links<'p> {
    round: usize,
    to: ProcessId,
    partitions: &'p [Partition],
    drop_rate: u32,
    delay_rate: u32,
    duplicate_rate: u32,
    max_delay: usize,
}

impl Links<'_> {
    /// Whether a partition cuts the link out of `from`. Plans with
    /// partitions are the rare ones, so the scan is kept out of the
    /// delivery loops' registers.
    #[cold]
    #[inline(never)]
    fn cut(&self, from: ProcessId) -> bool {
        self.partitions
            .iter()
            .any(|p| p.cuts(self.round, from, self.to))
    }

    /// The fate of the link out of `from`, given its
    /// [`RoundSalt::sender`] state (asked for only when some rate can
    /// fire). The four draws of a link sit at fixed positions of its
    /// stream — 1 drop, 2 delay, 3 delay amount, 4 duplicate — and a
    /// draw no outcome depends on (its rate is 0, or an earlier one
    /// fired) is not computed.
    #[inline]
    fn decide(&self, from: ProcessId, sender_state: impl FnOnce() -> u64) -> LinkFault {
        if from == self.to {
            return LinkFault::Deliver;
        }
        if !self.partitions.is_empty() && self.cut(from) {
            return LinkFault::Drop;
        }
        if self.drop_rate == 0 && self.delay_rate == 0 && self.duplicate_rate == 0 {
            return LinkFault::Deliver;
        }
        let stream = DecisionStream {
            state: salted(sender_state(), self.to.index() as u64),
        };
        let fires = |position: u64, rate: u32| {
            rate > 0 && stream.at(position) % u64::from(RATE_SCALE) < u64::from(rate)
        };
        if fires(1, self.drop_rate) {
            LinkFault::Drop
        } else if fires(2, self.delay_rate) {
            LinkFault::Delay(1 + (stream.at(3) % self.max_delay as u64) as usize)
        } else if fires(4, self.duplicate_rate) {
            LinkFault::Duplicate
        } else {
            LinkFault::Deliver
        }
    }
}

/// A link-decision stream with `[seed, 1, round]` folded in; see
/// [`FaultPlan::round`].
#[derive(Debug, Clone, Copy)]
struct RoundSalt(u64);

impl RoundSalt {
    /// The stream state shared by every link out of `from` this round.
    fn sender(self, from: ProcessId) -> u64 {
        salted(self.0, from.index() as u64)
    }
}

/// A link's fate in one byte: [`LinkFault::Deliver`] is 0,
/// [`LinkFault::Drop`] 1,
/// [`LinkFault::Duplicate`] 2, and a delay of `by` rounds is
/// `DELAY_FAR + by` — or `DELAY_FAR` itself when that does not fit, in
/// which case the amount is decided again from the link's stream when
/// the letter is stashed.
const DELIVER: u8 = 0;
const DROP: u8 = 1;
const DUPLICATE: u8 = 2;
const DELAY_FAR: u8 = 3;

fn fate_code(fault: LinkFault) -> u8 {
    match fault {
        LinkFault::Deliver => DELIVER,
        LinkFault::Drop => DROP,
        LinkFault::Duplicate => DUPLICATE,
        LinkFault::Delay(by) => u8::try_from(by)
            .ok()
            .and_then(|by| by.checked_add(DELAY_FAR))
            .unwrap_or(DELAY_FAR),
    }
}

/// The fault a fate byte stands for; `far` decides a delay too long for
/// the byte.
#[inline]
fn fate_of(code: u8, far: impl FnOnce() -> LinkFault) -> LinkFault {
    match code {
        DELIVER => LinkFault::Deliver,
        DROP => LinkFault::Drop,
        DUPLICATE => LinkFault::Duplicate,
        DELAY_FAR => far(),
        near => LinkFault::Delay(usize::from(near - DELAY_FAR)),
    }
}

/// The bytes of link fates a thread keeps between runs, its spare row and
/// sender states included.
const KEPT_FATES_BUDGET: usize = 4 << 20;

thread_local! {
    /// The fates of the last plan run on this thread that faults links.
    static KEPT_FATES: Cell<Option<LinkFates>> = const { Cell::new(None) };
}

/// One plan's link fates, one byte per link and round, indexed
/// `[round][to][from]`: what the simulator's round loop reads in place of
/// deciding each arrival. A round's rows are decided the first time a run
/// reaches it, by [`FaultPlan::decide_row`], and kept for the thread's
/// next run of the same plan; rounds past the budget are decided into
/// one spare row per recipient and not kept.
#[derive(Debug)]
pub(crate) struct LinkFates {
    plan: FaultPlan,
    /// Whether any link can be faulted: if not, nothing is decided,
    /// nothing is allocated, and there are no rows.
    faults: bool,
    /// The kept rounds' rows, `n²` bytes a round; rounds `1..=decided`
    /// are filled.
    kept: Vec<u8>,
    decided: usize,
    /// The row of a round past the kept ones.
    spare: Vec<u8>,
    /// The [`RoundSalt::sender`] states of the round last entered.
    salts: Vec<u64>,
}

impl LinkFates {
    /// The fates of `plan` for a run of at most `max_rounds` rounds:
    /// this thread's kept table if it is `plan`'s, a new one otherwise,
    /// with room for the run's rounds up to the budget — all allocated
    /// here, before round 1. A plan that faults no link builds nothing
    /// and leaves the kept table alone.
    pub(crate) fn for_run(plan: &FaultPlan, max_rounds: usize) -> LinkFates {
        if !plan.faults_links() {
            return LinkFates::new(plan.clone(), 0);
        }
        let n = plan.n();
        let within_budget =
            KEPT_FATES_BUDGET.saturating_sub(n * (1 + std::mem::size_of::<u64>())) / (n * n).max(1);
        let rounds = max_rounds.min(within_budget);
        let kept = KEPT_FATES
            .try_with(Cell::take)
            .ok()
            .flatten()
            .filter(|fates| fates.plan == *plan);
        match kept {
            Some(mut fates) => {
                if fates.kept.len() < rounds * n * n {
                    fates.kept.reserve_exact(rounds * n * n - fates.kept.len());
                    fates.kept.resize(rounds * n * n, DELIVER);
                }
                fates
            }
            None => LinkFates::new(plan.clone(), rounds),
        }
    }

    /// A table with room for `rounds` kept rounds, none decided.
    fn new(plan: FaultPlan, rounds: usize) -> LinkFates {
        let faults = plan.faults_links();
        let n = if faults { plan.n() } else { 0 };
        LinkFates {
            faults,
            kept: vec![DELIVER; rounds * n * n],
            decided: 0,
            spare: vec![DELIVER; n],
            salts: Vec::with_capacity(n),
            plan,
        }
    }

    /// Hands the table back to this thread's slot for its next run.
    pub(crate) fn keep(self) {
        if self.faults {
            let _ = KEPT_FATES.try_with(|slot| slot.set(Some(self)));
        }
    }

    /// Readies `round`'s rows, which runs reach in order: decides them
    /// into the table the first time a run reaches a kept round, or
    /// salts the senders for the spare row past the kept rounds.
    pub(crate) fn enter(&mut self, round: usize) {
        if !self.faults || round <= self.decided {
            return;
        }
        let salt = self.plan.round(round);
        self.salts.clear();
        self.salts
            .extend(ProcessId::all(self.plan.n()).map(|from| salt.sender(from)));
        let n = self.plan.n();
        if round == self.decided + 1 && round * n * n <= self.kept.len() {
            let rows = &mut self.kept[(round - 1) * n * n..round * n * n];
            for (to, row) in ProcessId::all(n).zip(rows.chunks_exact_mut(n)) {
                self.plan
                    .decide_row(round, to, |from| self.salts[from], row);
            }
            self.decided = round;
        }
    }

    /// The fates of the links into `to` in the entered `round`, by
    /// sender index; `None` when the plan faults no link.
    #[inline]
    pub(crate) fn row(&mut self, round: usize, to: ProcessId) -> Option<&[u8]> {
        if !self.faults {
            return None;
        }
        let n = self.plan.n();
        if round <= self.decided {
            let at = ((round - 1) * n + to.index()) * n;
            return Some(&self.kept[at..at + n]);
        }
        let salts = &self.salts;
        self.plan
            .decide_row(round, to, |from| salts[from], &mut self.spare);
        Some(&self.spare)
    }
}

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// A splittable counter-based stream: no shared state, so any two tiers
/// that draw the same salts read the same sequence.
struct DecisionStream {
    state: u64,
}

impl DecisionStream {
    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN);
        splitmix(self.state)
    }

    /// Fisher–Yates over `items`, from the last position down.
    fn shuffle<T>(mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }

    /// What the `position`-th call of [`DecisionStream::next`] from here
    /// would return (1-based), without drawing the ones before it.
    fn at(&self, position: u64) -> u64 {
        splitmix(self.state.wrapping_add(position.wrapping_mul(GOLDEN)))
    }
}

/// Folds one more salt into a stream state.
fn salted(state: u64, salt: u64) -> u64 {
    splitmix(state ^ salt.wrapping_mul(GOLDEN))
}

/// The SplitMix64 finalizer: a bijective avalanche mix.
fn splitmix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The fault layer's metric handles. [`FaultInbox::deliver`] is the
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

/// What one [`FaultInbox::deliver`] call did to its arrivals.
#[derive(Default)]
struct Tally {
    dropped: u64,
    delayed: u64,
    duplicated: u64,
}

impl Tally {
    /// One `add` per counter that moved, not one `inc` per letter.
    fn publish(&self) {
        let metrics = fault_metrics();
        for (counter, count) in [
            (&metrics.dropped, self.dropped),
            (&metrics.delayed, self.delayed),
            (&metrics.duplicated, self.duplicated),
        ] {
            if count > 0 {
                counter.add(count);
            }
        }
    }
}

/// The fate of a link whose delay is too long for its fate byte,
/// decided again. Cold: such plans are authored, not swept.
#[cold]
#[inline(never)]
fn far_delay(plan: &FaultPlan, round: usize, from: ProcessId, to: ProcessId) -> LinkFault {
    plan.decide(round, from, to)
}

/// A delayed letter waiting in a receiver's [`Stash`]: sent by `from`,
/// due in round `arrival`, the `seq`-th letter its inbox stashed. The
/// round it was sent in is not kept: delivery never reads it, and the
/// stash order it set is `seq`.
#[derive(Debug, Clone)]
struct Pending<L> {
    arrival: usize,
    seq: u64,
    from: ProcessId,
    letter: L,
}

impl<L> Pending<L> {
    /// What the queue orders by: arrival round, then stash order.
    fn key(&self) -> (usize, u64) {
        (self.arrival, self.seq)
    }
}

impl<L> PartialEq for Pending<L> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<L> Eq for Pending<L> {}

impl<L> PartialOrd for Pending<L> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Reversed, so that `BinaryHeap`, a max-heap, keeps the least key on
/// top: the earliest arrival, and within it the earliest stashed.
impl<L> Ord for Pending<L> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

/// One receiver's delayed letters: a queue min-ordered by (arrival
/// round, stash sequence number), the number bumped on every stash.
/// Letters are stashed round by round and, within a round, in ascending
/// sender order, so the sequence number is the order (original round,
/// sender) and letters due in the same round leave in it.
///
/// The queue's backing `Vec` lives as long as the inbox and is never
/// shrunk: a receiver allocates only when its count of letters in
/// flight passes its high-water mark, and a delayed letter costs a push
/// and a pop, O(log m) each for m letters in flight, in O(m) memory.
/// Not a ring of one `Vec` per round of delay: a delay too long for a
/// fate byte is legal (decided again by [`far_delay`]), so a ring would
/// need memory in proportion to the plan's `max_delay` per receiver, or
/// a second path for the long delays. Not a `Vec` kept sorted on
/// insertion either: its shifting is quadratic under a plan that delays
/// every link.
#[derive(Debug)]
struct Stash<L> {
    queue: BinaryHeap<Pending<L>>,
    /// Letters stashed so far: the next one's sequence number.
    stashed: u64,
}

impl<L> Stash<L> {
    fn new() -> Stash<L> {
        Stash {
            queue: BinaryHeap::new(),
            stashed: 0,
        }
    }

    /// Stashes a letter from `from` until round `arrival`, behind every
    /// letter stashed before it for the same round. Out of line and
    /// cold: the delivery loop around it then keeps its own state in
    /// registers and spills it around this call only.
    #[cold]
    #[inline(never)]
    fn stash_until(&mut self, arrival: usize, from: ProcessId, letter: L) {
        self.queue.push(Pending {
            arrival,
            seq: self.stashed,
            from,
            letter,
        });
        self.stashed += 1;
    }

    /// The next letter due by `round` (overdue ones included), if any.
    #[inline]
    fn pop_due(&mut self, round: usize) -> Option<Pending<L>> {
        match self.queue.peek() {
            Some(next) if next.arrival <= round => self.queue.pop(),
            _ => None,
        }
    }

    /// The letters in flight in the order they fall due, as
    /// `(arrival, sender, letter)`, sorted here by the key and not read
    /// off the heap, so a test can hold the heap's order to it.
    #[cfg(test)]
    fn pending(&self) -> Vec<(usize, ProcessId, L)>
    where
        L: Clone,
    {
        let mut pending: Vec<&Pending<L>> = self.queue.iter().collect();
        pending.sort_by_key(|letter| letter.key());
        pending
            .into_iter()
            .map(|p| (p.arrival, p.from, p.letter.clone()))
            .collect()
    }
}

/// One receiver's fault-plan bookkeeping: stashes delayed letters and
/// hands each round's final inbox over, letter by letter. This is the
/// *single* realization of the plan's delivery semantics — the simulator
/// engine streams `Copy` handles to the round's messages through the
/// crate-private `deliver`, the transport wrapper passes its letters to
/// [`FaultInbox::assemble`], which is `deliver` into a `Vec` — so the two
/// tiers cannot drift.
///
/// Neither decides a link as its letter arrives: `deliver` reads the
/// recipient's row of link fates for the round. The simulator takes the
/// row from a table memoised per thread and per plan (decided once for a
/// whole sweep of cells, within a fixed memory bound); `assemble` decides
/// its row each round with the same builder.
///
/// Inbox order is part of the contract: delayed letters first (sorted by
/// arrival round, then original round, then sender — the order they
/// fell due and were stashed in), then the current round's arrivals in
/// sender order with duplicates adjacent, then the plan's reorder
/// permutation over the whole assembly. `assemble` always applies the
/// permutation. The simulator skips it in a round whose protocol folds,
/// because that declaration says `receive` ignores order in the round
/// (*Folded rounds* on [`SyncProtocol`](crate::SyncProtocol)); there
/// both orders end in the same state, so the two tiers' traces stay
/// identical.
///
/// A delayed letter waits in the receiver's one queue, a binary heap
/// min-ordered by (arrival round, stash sequence number) whose backing
/// `Vec` the inbox keeps for its whole life: the inbox allocates for a
/// delay only when its count of letters in flight passes its high-water
/// mark, and any delay is legal, however long (see `Stash` for why the
/// queue is not a ring of one `Vec` per round of delay).
#[derive(Debug)]
pub struct FaultInbox<L> {
    plan: FaultPlan,
    me: ProcessId,
    stash: Stash<L>,
    /// [`FaultInbox::assemble`]'s row of fates, decided per round.
    row: Vec<u8>,
}

impl<L: Clone> FaultInbox<L> {
    /// A fresh inbox for `me` under `plan`.
    pub fn new(plan: FaultPlan, me: ProcessId) -> FaultInbox<L> {
        FaultInbox {
            plan,
            me,
            stash: Stash::new(),
            row: Vec::new(),
        }
    }

    /// The receiver this inbox belongs to.
    pub(crate) fn me(&self) -> ProcessId {
        self.me
    }

    /// Runs round `round`'s raw arrivals (sorted by sender) through the
    /// plan and returns the final inbox plus the delivered-count
    /// adjustment: −1 per drop, +1 per duplicate (a delayed letter was
    /// already counted when its broadcast was accepted, so delays
    /// adjust nothing). The round's row of fates is decided here, by the
    /// builder the simulator's table is filled with — unless the plan
    /// faults no link.
    pub fn assemble(
        &mut self,
        round: usize,
        arrivals: Vec<(ProcessId, L)>,
    ) -> (Vec<(ProcessId, L)>, i64) {
        let mut row = std::mem::take(&mut self.row);
        let fates = if self.plan.faults_links() {
            let senders = arrivals.last().map_or(0, |&(from, _)| from.index() + 1);
            row.resize(senders.max(self.plan.n()), DELIVER);
            let salt = self.plan.round(round);
            self.plan.decide_row(
                round,
                self.me,
                |from| salt.sender(ProcessId::new(from)),
                &mut row,
            );
            Some(&row[..])
        } else {
            None
        };
        let mut inbox = Vec::with_capacity(arrivals.len());
        let mut scratch = Vec::new();
        let adjust = self.deliver(
            round,
            fates,
            false,
            arrivals.into_iter(),
            &mut scratch,
            |from, letter| inbox.push((from, letter)),
        );
        self.row = row;
        (inbox, adjust)
    }

    /// The streaming core. Hands `sink` the round's final inbox in
    /// order — due stashed letters, then `arrivals` (ascending sender)
    /// as `fates` (the recipient's row for the round, by sender index;
    /// `None` when the plan faults no link) decides them — and returns
    /// the delivered-count adjustment. Nothing is buffered unless the
    /// plan's (round, receiver) reorder draw fires; only then is the
    /// inbox assembled in the (empty) `scratch`, shuffled whole and
    /// drained, so a round loop reusing `scratch` allocates here only
    /// when a delayed letter finds the receiver's queue full.
    ///
    /// `order_blind` is the caller's word that the sink cannot tell one
    /// order of this inbox from another (the round folds: see
    /// *Folded rounds* on [`SyncProtocol`](crate::SyncProtocol)). Then
    /// the draw is not made and the inbox goes out in the order routed,
    /// unshuffled; drops, delays, duplicates and the adjustment are the
    /// same either way.
    #[inline]
    pub(crate) fn deliver(
        &mut self,
        round: usize,
        fates: Option<&[u8]>,
        order_blind: bool,
        arrivals: impl Iterator<Item = (ProcessId, L)>,
        scratch: &mut Vec<(ProcessId, L)>,
        mut sink: impl FnMut(ProcessId, L),
    ) -> i64 {
        let draw = if order_blind {
            None
        } else {
            self.plan.reorder_draw(round, self.me)
        };
        let tally = match draw {
            None => self.route(round, fates, arrivals, sink),
            Some(stream) => {
                debug_assert!(scratch.is_empty(), "the assembly is the whole inbox");
                let tally = self.route(round, fates, arrivals, |from, letter| {
                    scratch.push((from, letter))
                });
                stream.shuffle(scratch);
                for (from, letter) in scratch.drain(..) {
                    sink(from, letter);
                }
                tally
            }
        };
        if setagree_obs::enabled() {
            tally.publish();
        }
        tally.duplicated as i64 - tally.dropped as i64
    }

    /// The unpermuted inbox of `round`, letter by letter into `out`:
    /// first the queue's letters due by `round`, popped while the least
    /// arrival round is at most `round` (in arrival round, then stash
    /// order), then `arrivals`, each as its fate says, a delayed one
    /// pushed onto the queue with its arrival round.
    #[inline]
    fn route(
        &mut self,
        round: usize,
        fates: Option<&[u8]>,
        arrivals: impl Iterator<Item = (ProcessId, L)>,
        mut out: impl FnMut(ProcessId, L),
    ) -> Tally {
        let mut tally = Tally::default();
        // Due (and, defensively, overdue) stashed letters lead the inbox.
        while let Some(due) = self.stash.pop_due(round) {
            out(due.from, due.letter);
        }
        // Internal iteration: an adaptor chain folds into one loop.
        let Some(fates) = fates else {
            // No link is faulted: a loop with no per-letter decision.
            arrivals.for_each(|(from, letter)| out(from, letter));
            return tally;
        };
        let (plan, me, stash) = (&self.plan, self.me, &mut self.stash);
        arrivals.for_each(|(from, letter)| {
            match fate_of(fates[from.index()], || far_delay(plan, round, from, me)) {
                LinkFault::Deliver => out(from, letter),
                LinkFault::Drop => tally.dropped += 1,
                LinkFault::Duplicate => {
                    out(from, letter.clone());
                    out(from, letter);
                    tally.duplicated += 1;
                }
                LinkFault::Delay(by) => {
                    stash.stash_until(round + by, from, letter);
                    tally.delayed += 1;
                }
            }
        });
        tally
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn seed_rate_values_are_trimmed_and_the_rate_is_not_clamped() {
        assert_eq!(parse_seed_rate(" 7 : 2500 "), Some((7, 2500)));
        assert_eq!(parse_seed_rate("7:10000"), Some((7, RATE_SCALE)));
        for value in ["7:10001", "7", "a:1", "7:b", "-1:5", ""] {
            assert_eq!(parse_seed_rate(value), None, "{value:?}");
        }
    }

    /// The parent's inbox, kept as the reference [`FaultInbox::deliver`]
    /// is tested against: it buffers the whole inbox, decides each
    /// arrival by [`FaultPlan::decide_by_full_stream`] and leaves the
    /// caller to permute, and stashes delayed letters in a map of
    /// `arrival round → (original round, sender, letter)`, each entry in
    /// stash order.
    struct BufferingInbox<L> {
        plan: FaultPlan,
        me: ProcessId,
        stash: BTreeMap<usize, Vec<(usize, ProcessId, L)>>,
    }

    impl<L: Clone> BufferingInbox<L> {
        fn new(plan: FaultPlan, me: ProcessId) -> BufferingInbox<L> {
            BufferingInbox {
                plan,
                me,
                stash: BTreeMap::new(),
            }
        }

        fn assemble_by_buffering(
            &mut self,
            round: usize,
            arrivals: Vec<(ProcessId, L)>,
        ) -> (Vec<(ProcessId, L)>, i64) {
            let mut inbox = Vec::with_capacity(arrivals.len());
            let mut adjust = 0i64;
            while let Some(due) = self.stash.first_entry() {
                if *due.key() > round {
                    break;
                }
                inbox.extend(due.remove().into_iter().map(|(_, from, l)| (from, l)));
            }
            for (from, letter) in arrivals {
                if from == self.me {
                    inbox.push((from, letter));
                    continue;
                }
                match self.plan.decide_by_full_stream(round, from, self.me) {
                    LinkFault::Deliver => inbox.push((from, letter)),
                    LinkFault::Drop => adjust -= 1,
                    LinkFault::Duplicate => {
                        inbox.push((from, letter.clone()));
                        inbox.push((from, letter));
                        adjust += 1;
                    }
                    LinkFault::Delay(by) => {
                        self.stash
                            .entry(round + by)
                            .or_default()
                            .push((round, from, letter));
                    }
                }
            }
            (inbox, adjust)
        }

        /// The stashed letters in the order they fall due, as
        /// `(arrival, sender, letter)`.
        fn pending(&self) -> Vec<(usize, ProcessId, L)> {
            self.stash
                .iter()
                .flat_map(|(&arrival, letters)| {
                    letters
                        .iter()
                        .map(move |(_, from, letter)| (arrival, *from, letter.clone()))
                })
                .collect()
        }
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
    fn overdue_letters_lead_in_arrival_then_stash_order() {
        // Every peer letter of round 1 is delayed by one or two rounds,
        // and the receiver next collects in round 4: the letters due in
        // rounds 2 and 3 are all overdue by then, and lead its inbox in
        // (arrival, round, sender) order — here (arrival, sender).
        let plan = FaultPlan::new(6, 5).delay_rate(RATE_SCALE, 2);
        let me = p(0);
        let mut inbox: FaultInbox<u32> = FaultInbox::new(plan.clone(), me);
        let round_one: Vec<(ProcessId, u32)> = (0..6).map(|i| (p(i), 10 + i as u32)).collect();
        let (got, _) = inbox.assemble(1, round_one.clone());
        assert_eq!(got, vec![(me, 10)]);
        let mut overdue: Vec<(usize, ProcessId, u32)> = round_one[1..]
            .iter()
            .map(|&(from, letter)| match plan.decide(1, from, me) {
                LinkFault::Delay(by) => (1 + by, from, letter),
                other => panic!("a rate-10000 delay plan decided {other:?}"),
            })
            .collect();
        overdue.sort_unstable();
        assert_eq!(inbox.stash.pending(), overdue);
        let arrivals: Vec<usize> = overdue.iter().map(|letter| letter.0).collect();
        assert!(
            arrivals.contains(&2) && arrivals.contains(&3),
            "the plan delays into both rounds 2 and 3: {arrivals:?}"
        );
        assert!(
            overdue.windows(2).any(|pair| pair[0].1 > pair[1].1),
            "due order differs from sender order: {overdue:?}"
        );
        let (got, adjust) = inbox.assemble(4, vec![(me, 40), (p(1), 41)]);
        let mut expected: Vec<(ProcessId, u32)> = overdue
            .iter()
            .map(|&(_, from, letter)| (from, letter))
            .collect();
        expected.push((me, 40));
        assert_eq!(got, expected);
        assert_eq!(adjust, 0);
        assert_eq!(
            inbox.stash.pending().len(),
            1,
            "round 4's peer letter waits"
        );
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

    /// Every plan over `n` whose four rates (drop, delay, duplicate,
    /// reorder) are each 0, the drawn one or `RATE_SCALE`: all 81
    /// combinations, so every early-out and every skipped draw of the
    /// lazy decision is taken next to every other.
    fn plans_at_every_rate_corner(
        n: usize,
        seed: u64,
        drawn: [u32; 4],
        max_delay: usize,
        partitions: &[(u8, usize, usize)],
    ) -> impl Iterator<Item = FaultPlan> + '_ {
        (0..81usize).map(move |mut code| {
            let rates = drawn.map(|drawn| {
                let rate = [0, drawn, RATE_SCALE][code % 3];
                code /= 3;
                rate
            });
            let plan = FaultPlan::new(n, seed)
                .drop_rate(rates[0])
                .delay_rate(rates[1], max_delay)
                .duplicate_rate(rates[2])
                .reorder_rate(rates[3]);
            partitions.iter().fold(plan, |plan, &(mask, from, len)| {
                let mut side = ProcessSet::empty(n);
                for i in (0..n).filter(|i| mask >> i & 1 == 1) {
                    side.insert(p(i));
                }
                plan.partition(Partition::new(side, from, from + len))
            })
        })
    }

    /// Added to a drawn maximum delay to make most delays too long for a
    /// fate byte.
    const FAR: usize = 300;

    proptest::proptest! {
        /// Every decision form against the reference: `decide`, the
        /// hoisted `Links` a row builder uses, and every row of a fates
        /// table — three rounds kept and three past them in the spare
        /// row, read twice so the second pass reads what the first kept.
        #[test]
        fn lazy_decisions_equal_the_full_stream_reference(
            n in 2usize..=8,
            seed in proptest::any::<u64>(),
            drawn in (1..RATE_SCALE, 1..RATE_SCALE, 1..RATE_SCALE, 1..RATE_SCALE),
            max_delay in 1usize..=3,
            far in proptest::any::<bool>(),
            partitions in proptest::collection::vec((proptest::any::<u8>(), 1usize..=6, 0usize..=3), 0..=2),
        ) {
            let drawn = [drawn.0, drawn.1, drawn.2, drawn.3];
            let max_delay = if far { FAR + max_delay } else { max_delay };
            for plan in plans_at_every_rate_corner(n, seed, drawn, max_delay, &partitions) {
                let mut fates = LinkFates::new(plan.clone(), 3);
                for pass in 0..2 {
                    for round in 1..=6 {
                        let salt = plan.round(round);
                        fates.enter(round);
                        for to in ProcessId::all(n) {
                            // No row: every link delivers.
                            let row = fates.row(round, to).map_or(vec![DELIVER; n], <[u8]>::to_vec);
                            proptest::prop_assert_eq!(row.len(), n);
                            for from in ProcessId::all(n) {
                                let reference = plan.decide_by_full_stream(round, from, to);
                                let code = row[from.index()];
                                proptest::prop_assert_eq!(
                                    code, fate_code(reference),
                                    "{} round {} {}→{} pass {}", plan, round, from, to, pass
                                );
                                proptest::prop_assert_eq!(
                                    fate_of(code, || plan.decide(round, from, to)), reference
                                );
                                if pass == 0 {
                                    proptest::prop_assert_eq!(plan.decide(round, from, to), reference);
                                    // The hoisted form a row builder uses.
                                    proptest::prop_assert_eq!(
                                        plan.links(round, to).decide(from, || salt.sender(from)),
                                        reference
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }

        /// Six rounds of arrivals from random sender subsets, so delayed
        /// letters are carried in the stash across rounds and fall due
        /// next to later arrivals: the inbox sequence, the adjustment and
        /// what stays stashed (each queue's letters in due order against
        /// the reference's map), round by round. The streamed inbox is
        /// told its even rounds are order-blind: those go out as routed,
        /// unpermuted, and nothing else about them changes.
        #[test]
        fn streamed_delivery_equals_the_buffering_reference(
            n in 2usize..=8,
            me in 0usize..8,
            seed in proptest::any::<u64>(),
            drawn in (1..RATE_SCALE, 1..RATE_SCALE, 1..RATE_SCALE, 1..RATE_SCALE),
            max_delay in 1usize..=3,
            partitions in proptest::collection::vec((proptest::any::<u8>(), 1usize..=6, 0usize..=3), 0..=2),
            senders in proptest::collection::vec(proptest::any::<u8>(), 6),
        ) {
            let me = p(me % n);
            let drawn = [drawn.0, drawn.1, drawn.2, drawn.3];
            for plan in plans_at_every_rate_corner(n, seed, drawn, max_delay, &partitions) {
                let mut reference: BufferingInbox<u32> = BufferingInbox::new(plan.clone(), me);
                let mut assembled: FaultInbox<u32> = FaultInbox::new(plan.clone(), me);
                let mut streamed: FaultInbox<u32> = FaultInbox::new(plan.clone(), me);
                // Reused across rounds, as the engine reuses its own; and
                // fates kept for three of the six rounds.
                let mut scratch = Vec::new();
                let mut fates = LinkFates::new(plan.clone(), 3);
                for (round, mask) in (1..).zip(&senders) {
                    let arrivals: Vec<(ProcessId, u32)> = (0..n)
                        .filter(|i| mask >> i & 1 == 1)
                        .map(|i| (p(i), (round * 10 + i) as u32))
                        .collect();
                    let routed = reference.assemble_by_buffering(round, arrivals.clone());
                    let mut expected = routed.clone();
                    plan.permute(round, me, &mut expected.0);
                    proptest::prop_assert_eq!(
                        &assembled.assemble(round, arrivals.clone()), &expected,
                        "{} round {} at {}", plan, round, me
                    );
                    let mut inbox = Vec::new();
                    fates.enter(round);
                    let order_blind = round.is_multiple_of(2);
                    let adjust = streamed.deliver(
                        round,
                        fates.row(round, me),
                        order_blind,
                        arrivals.into_iter(),
                        &mut scratch,
                        |from, letter| inbox.push((from, letter)),
                    );
                    let expected = if order_blind { &routed } else { &expected };
                    proptest::prop_assert_eq!(&(inbox, adjust), expected);
                    proptest::prop_assert!(scratch.is_empty());
                    let pending = reference.pending();
                    proptest::prop_assert_eq!(&assembled.stash.pending(), &pending);
                    proptest::prop_assert_eq!(&streamed.stash.pending(), &pending);
                }
            }
        }
    }

    #[test]
    fn kept_fates_are_reused_only_for_an_equal_plan() {
        let a = FaultPlan::new(4, 3).drop_rate(5_000);
        let decided = |plan: &FaultPlan, rounds: usize| {
            let mut fates = LinkFates::for_run(plan, rounds);
            let kept = fates.decided;
            for round in 1..=rounds {
                fates.enter(round);
            }
            fates.keep();
            kept
        };
        assert_eq!(decided(&a, 3), 0, "nothing kept for this plan yet");
        assert_eq!(decided(&a, 5), 3, "the rounds the last run reached");
        assert_eq!(decided(&a.clone().drop_rate(5_001), 2), 0);
        assert_eq!(decided(&a, 2), 0, "replaced by the other plan");
        // A plan that faults no link leaves the kept table alone.
        assert_eq!(decided(&FaultPlan::new(4, 3).reorder_rate(5_000), 2), 0);
        assert_eq!(decided(&a, 2), 2);
    }

    #[test]
    fn the_kept_fates_stay_within_the_budget() {
        for (n, kept_rounds) in [(4, 100), (64, 100), (1024, 3), (4096, 0)] {
            let plan = FaultPlan::new(n, 1).drop_rate(1);
            let fates = LinkFates::for_run(&plan, 100);
            assert_eq!(fates.kept.len(), kept_rounds * n * n, "n = {n}");
            let bytes = fates.kept.capacity() + fates.spare.capacity() + 8 * fates.salts.capacity();
            assert!(bytes <= KEPT_FATES_BUDGET, "n = {n}: {bytes} bytes");
        }
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
