//! Allocation discipline of the two hot paths a parallel sweep runs
//! through, checked by counting — no clocks, no thresholds:
//!
//! * **The round loops never regrow a buffer.** After round 1 has sized
//!   them, `run_protocol` and `run_protocol_faulty` call `realloc` zero
//!   times. A `realloc` of a block that belongs to another thread's
//!   malloc arena takes that arena's lock; one per round per cell is
//!   what made two suite workers slower than one. Under a plan that
//!   delays letters the rule holds once the ring of kept rounds is full
//!   (from round `2 + max_delay`), except that a receiver's queue of
//!   delayed letters doubles when its count of letters in flight first
//!   passes 4, 8, 16, …: the plan decides how many are in flight, and
//!   the queue never allocates below its high-water mark. The same on
//!   the plain loop's fold path (`SyncProtocol::fold`): a round's folded
//!   message is one allocation of the protocol's, once for all
//!   recipients, and nothing is regrown around it. The faulty loop asks
//!   the same fold once a round under a plan that reorders (a round
//!   that folds is not shuffled), and never under one that does not.
//! * **A benign plan costs no allocation.** After round 1 the faulty
//!   loop under `FaultPlan::none` calls `alloc` exactly as often as the
//!   plain loop: a message is shared by position, not boxed per send.
//! * **A suite run frees its own allocations.** Nothing the consuming
//!   thread allocated for a parallel run is freed on a pool thread —
//!   where it would sit in that thread's malloc cache, ready to be the
//!   start of the next regrown buffer — except the box each pooled task
//!   travels in, which the worker that ran it necessarily drops. A
//!   cache-bound run that finds every cell warm frees not even that: it
//!   serves the grid from the calling thread and starts no worker.
//!
//! * **An adopted round 1 allocates nothing.** In a crash-free
//!   condition-based cell one process assembles and decodes a round-1
//!   view and the other `n − 1` adopt what it made of it
//!   (`SyncProtocol::adopt`): at least `n − 1` fewer `alloc` calls than
//!   the same cell with every process on its own, and no `realloc` after
//!   round 1.
//!
//! * **A plan's link fates are decided once per thread.** A second cell
//!   under the plan this thread ran last allocates no table of fates,
//!   so it calls `alloc` less often than the first; and the table the
//!   thread keeps between runs stays within its byte budget, whatever
//!   the system size and round limit.
//!
//! * **A `C_max` question never regrows a buffer either.** Every
//!   process asks one per cell in its compute phase, on whichever thread
//!   runs the cell; `MaxCondition::{decode_view, matches, contains}`
//!   call `realloc` zero times.
//!
//! Own test binary: the `#[global_allocator]` below is private to it.
//! The allocator wraps `System`, prefixes every block with the tag of
//! the thread that allocated it, and keeps its counts per thread, so
//! the tests of this file cannot see each other's traffic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

use setagree::conditions::{ConditionOracle, LegalityParams, MaxCondition};
use setagree::core::{
    ConditionBased, ConditionBasedConfig, ProtocolSpec, ScenarioSuite, SuiteCache,
};
use setagree::sync::{
    run_protocol, run_protocol_faulty, FailurePattern, FaultPlan, LinkFault, Step, SyncProtocol,
};
use setagree::types::{InputVector, ProcessId, View};

struct Tagging;

#[global_allocator]
static ALLOCATOR: Tagging = Tagging;

static NEXT_TAG: AtomicU32 = AtomicU32::new(1);
/// The thread whose blocks are being followed (0: nobody's).
static WATCHED: AtomicU32 = AtomicU32::new(0);
/// Blocks of the watched thread freed on any other thread, and their
/// sizes (the first few, for the failure message and the allowance).
static FOREIGN_FREES: AtomicUsize = AtomicUsize::new(0);
static FOREIGN_SIZES: [AtomicUsize; 16] = [const { AtomicUsize::new(0) }; 16];

thread_local! {
    // Const-initialised and without destructors, so touching them from
    // inside the allocator neither allocates nor outlives the thread.
    static TAG: Cell<u32> = const { Cell::new(0) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static REALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated minus bytes freed, by calls made on this thread.
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
    /// The round whose start is marked, and the counts at that mark.
    static MARKED_ROUND: Cell<usize> = const { Cell::new(2) };
    static COUNTS_AT_MARK: Cell<Option<Counts>> = const { Cell::new(None) };
}

/// Calls into the allocator made by one thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counts {
    allocs: u64,
    reallocs: u64,
}

fn my_tag() -> u32 {
    TAG.try_with(|tag| {
        if tag.get() == 0 {
            tag.set(NEXT_TAG.fetch_add(1, Ordering::Relaxed));
        }
        tag.get()
    })
    .unwrap_or(0)
}

/// Room for the tag in front of a block: the block's alignment, or the
/// tag's if that is larger — which is also the padded block's alignment,
/// so both the tag and the block behind it are aligned.
fn header(layout: Layout) -> usize {
    layout.align().max(std::mem::align_of::<u32>())
}

fn padded(layout: Layout, size: usize) -> Layout {
    Layout::from_size_align(size + header(layout), header(layout)).expect("padded layout")
}

// SAFETY: every block handed out is the `System` block of the padded
// layout offset by `header(layout)` — a multiple of the requested
// alignment, so still aligned — and `dealloc`/`realloc` undo exactly
// that offset with the layout they are given, which is the layout of
// the allocation. The tag is written at the (tag-aligned) start of the
// padding, which the caller never sees.
unsafe impl GlobalAlloc for Tagging {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|count| count.set(count.get() + 1));
        let _ = LIVE_BYTES.try_with(|live| live.set(live.get() + layout.size() as i64));
        let base = System.alloc(padded(layout, layout.size()));
        if base.is_null() {
            return base;
        }
        base.cast::<u32>().write(my_tag());
        base.add(header(layout))
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let base = ptr.sub(header(layout));
        let owner = base.cast::<u32>().read();
        if owner != 0 && owner == WATCHED.load(Ordering::Relaxed) && owner != my_tag() {
            let nth = FOREIGN_FREES.fetch_add(1, Ordering::Relaxed);
            if let Some(slot) = FOREIGN_SIZES.get(nth) {
                slot.store(layout.size(), Ordering::Relaxed);
            }
        }
        let _ = LIVE_BYTES.try_with(|live| live.set(live.get() - layout.size() as i64));
        System.dealloc(base, padded(layout, layout.size()));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = REALLOCS.try_with(|count| count.set(count.get() + 1));
        let grown = new_size as i64 - layout.size() as i64;
        let _ = LIVE_BYTES.try_with(|live| live.set(live.get() + grown));
        // The block keeps the tag of the thread that first allocated it.
        let base = System.realloc(
            ptr.sub(header(layout)),
            padded(layout, layout.size()),
            new_size + header(layout),
        );
        if base.is_null() {
            return base;
        }
        base.add(header(layout))
    }
}

fn reallocs_on_this_thread() -> u64 {
    REALLOCS.with(Cell::get)
}

fn counts_on_this_thread() -> Counts {
    Counts {
        allocs: ALLOCS.with(Cell::get),
        reallocs: reallocs_on_this_thread(),
    }
}

const N: usize = 64;
const ROUNDS: usize = 6;

/// Floods a fixed-size view for `ROUNDS` rounds. Its own allocations
/// are exact-size clones, so every `realloc` counted is the engine's.
/// Process 0 sends first in every round: its message of the marked round
/// (round 2 unless a test says otherwise) marks the end of the one before.
struct Flood {
    me: usize,
    view: Vec<Option<u32>>,
}

impl SyncProtocol for Flood {
    type Msg = Vec<Option<u32>>;
    type Output = usize;

    fn message(&mut self, round: usize) -> Self::Msg {
        if self.me == 0 && round == MARKED_ROUND.with(Cell::get) {
            COUNTS_AT_MARK.with(|mark| mark.set(Some(counts_on_this_thread())));
        }
        self.view.clone()
    }

    fn receive(&mut self, _round: usize, _from: ProcessId, msg: &Self::Msg) {
        for (mine, theirs) in self.view.iter_mut().zip(msg) {
            *mine = mine.or(*theirs);
        }
    }

    fn compute(&mut self, round: usize) -> Step<usize> {
        if round >= ROUNDS {
            Step::Decide(self.view.iter().flatten().count())
        } else {
            Step::Continue
        }
    }
}

fn flood_system() -> Vec<Flood> {
    (0..N)
        .map(|me| {
            let mut view = vec![None; N];
            view[me] = Some(me as u32);
            Flood { me, view }
        })
        .collect()
}

/// Crashes in rounds 1 to 4 (never process 0, which marks the rounds),
/// so the active set shrinks while the buffers are being reused.
fn crashing_pattern() -> FailurePattern {
    let mut pattern = FailurePattern::none(N);
    for (round, victim) in [(1, 63), (2, 40), (2, 41), (3, 17), (4, 5)] {
        pattern
            .crash(
                ProcessId::new(victim),
                setagree::sync::CrashSpec::new(round, victim / 2),
            )
            .expect("valid crash");
    }
    pattern
}

/// Runs `run` and returns the allocator calls this thread made from the
/// start of round `from_round` to the returned trace.
fn counted_from_round(from_round: usize, run: impl FnOnce() -> usize) -> Counts {
    let (rounds, counts) = counted_from_mark(from_round, run);
    assert_eq!(rounds, ROUNDS, "the flood runs its full length");
    counts
}

/// Runs `run`, whose process 0 marks the start of round `from_round`,
/// and returns what it returned with the allocator calls this thread
/// made from the mark on.
fn counted_from_mark<T>(from_round: usize, run: impl FnOnce() -> T) -> (T, Counts) {
    MARKED_ROUND.with(|round| round.set(from_round));
    COUNTS_AT_MARK.with(|mark| mark.set(None));
    let result = run();
    let at_mark = COUNTS_AT_MARK
        .with(Cell::get)
        .expect("process 0 sent in the marked round");
    let at_end = counts_on_this_thread();
    let counts = Counts {
        allocs: at_end.allocs - at_mark.allocs,
        reallocs: at_end.reallocs - at_mark.reallocs,
    };
    (result, counts)
}

fn reallocs_after_round_one(run: impl FnOnce() -> usize) -> u64 {
    counted_from_round(2, run).reallocs
}

#[test]
fn the_plain_round_loop_never_reallocs_after_round_one() {
    let pattern = crashing_pattern();
    let grown = reallocs_after_round_one(|| {
        run_protocol(flood_system(), &pattern, ROUNDS + 1)
            .expect("the flood terminates")
            .rounds_executed()
    });
    assert_eq!(grown, 0, "a per-round buffer was regrown");
}

/// [`Flood`], folding: the union of a batch of views is one view,
/// whoever sent them and in whatever order. The fold clones the first
/// view — exact-size, like every allocation of `Flood`'s — and unions
/// the rest into it.
struct FoldingFlood(Flood);

impl SyncProtocol for FoldingFlood {
    type Msg = Vec<Option<u32>>;
    type Output = usize;

    fn message(&mut self, round: usize) -> Self::Msg {
        self.0.message(round)
    }

    fn receive(&mut self, round: usize, from: ProcessId, msg: &Self::Msg) {
        self.0.receive(round, from, msg);
    }

    fn fold(
        _round: usize,
        batch: &mut dyn Iterator<Item = (ProcessId, &Self::Msg)>,
    ) -> Option<Self::Msg> {
        let (_, first) = batch.next()?;
        let mut union = first.clone();
        for (_, view) in batch {
            for (mine, theirs) in union.iter_mut().zip(view) {
                *mine = mine.or(*theirs);
            }
        }
        Some(union)
    }

    fn receive_folded(&mut self, round: usize, _count: usize, union: &Self::Msg) {
        self.0.receive(round, ProcessId::new(self.0.me), union);
    }

    fn compute(&mut self, round: usize) -> Step<usize> {
        self.0.compute(round)
    }
}

#[test]
fn the_fold_path_never_reallocs_after_round_one() {
    let pattern = crashing_pattern();
    let per_message = counted_from_round(2, || {
        run_protocol(flood_system(), &pattern, ROUNDS + 1)
            .expect("the flood terminates")
            .rounds_executed()
    });
    let folding = counted_from_round(2, || {
        let system = flood_system().into_iter().map(FoldingFlood).collect();
        run_protocol(system, &pattern, ROUNDS + 1)
            .expect("the flood terminates")
            .rounds_executed()
    });
    assert_eq!(folding.reallocs, 0, "a per-round buffer was regrown");
    // The folded message is all the path adds: one a round, from round
    // 2 to the last, not one a recipient.
    assert_eq!(folding.allocs, per_message.allocs + (ROUNDS as u64 - 1));
}

#[test]
fn the_faulty_round_loop_never_reallocs_after_round_one() {
    let pattern = crashing_pattern();
    // The benign plan, and one that drops and reorders: neither stores
    // a letter beyond its round, so the loop's buffers are all there is.
    let plans = [
        FaultPlan::none(N),
        FaultPlan::new(N, 7).drop_rate(1_000).reorder_rate(5_000),
    ];
    for plan in plans {
        let grown = reallocs_after_round_one(|| {
            run_protocol_faulty(flood_system(), &pattern, &plan, ROUNDS + 1)
                .expect("the flood terminates")
                .rounds_executed()
        });
        assert_eq!(grown, 0, "a per-round buffer was regrown under {plan}");
    }
}

#[test]
fn the_faulty_loop_asks_the_fold_once_a_round_and_only_when_the_plan_reorders() {
    let pattern = crashing_pattern();
    let run = |plan: &FaultPlan, folding: bool| {
        counted_from_round(2, || {
            let trace = if folding {
                let system = flood_system().into_iter().map(FoldingFlood).collect();
                run_protocol_faulty(system, &pattern, plan, ROUNDS + 1)
            } else {
                run_protocol_faulty(flood_system(), &pattern, plan, ROUNDS + 1)
            };
            trace.expect("the flood terminates").rounds_executed()
        })
    };
    // A plan that does not reorder asks no fold: the folding flood
    // allocates what the declining one does.
    let benign = FaultPlan::none(N);
    assert_eq!(run(&benign, true), run(&benign, false));
    // One that reorders asks once a round, not once a recipient: the
    // folded message, dropped unused, is all the question costs. The
    // first run decides the plan's links, so each side is counted warm.
    let reorders = FaultPlan::new(N, 7).drop_rate(1_000).reorder_rate(5_000);
    run(&reorders, false);
    let declining = run(&reorders, false);
    let folding = run(&reorders, true);
    assert_eq!(folding.reallocs, 0, "a per-round buffer was regrown");
    assert_eq!(folding.allocs, declining.allocs + (ROUNDS as u64 - 1));
}

/// The benchmark's lossy plan (`faulty_net`): per 10 000, 300 drops,
/// 300 delays of at most 2 rounds, 300 duplicates, 2 000 reorders.
const MAX_DELAY: usize = 2;

fn lossy_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(N, seed)
        .drop_rate(300)
        .delay_rate(300, MAX_DELAY)
        .duplicate_rate(300)
        .reorder_rate(2_000)
}

/// What the receivers' queues of delayed letters allocate from round
/// `from_round` on.
#[derive(Default)]
struct QueueGrowth {
    /// Letters queued.
    letters: u64,
    /// Queues that get their first letter, each one `alloc`.
    first_letters: u64,
    /// Queues that double, each one `realloc`.
    regrowths: u64,
}

/// [`QueueGrowth`] under `plan`. A receiver's queue is a `Vec` behind a
/// heap, kept for the whole run: its first letter allocates room for 4,
/// a push that finds it full — at 4, 8, 16, … letters in flight —
/// doubles it, and a letter falling due frees nothing. Each round the
/// receiver collects (it is up and not crashing), it first takes the
/// letters due and then queues the round's delayed ones; a link carries
/// a letter when its sender is still up (in its crash round: to its
/// prefix only).
fn queue_growth(plan: &FaultPlan, pattern: &FailurePattern, from_round: usize) -> QueueGrowth {
    let crash_round = |id| pattern.spec(id).map_or(usize::MAX, |spec| spec.round);
    let mut growth = QueueGrowth::default();
    for to in ProcessId::all(N) {
        // The arrival rounds of the letters in flight.
        let mut in_flight: Vec<usize> = Vec::new();
        let mut capacity = 0;
        for round in 1..=ROUNDS.min(crash_round(to).saturating_sub(1)) {
            in_flight.retain(|&arrival| arrival > round);
            for from in ProcessId::all(N) {
                let carried = match pattern.spec(from) {
                    Some(spec) if spec.round == round => to.index() < spec.after_sends,
                    Some(spec) => round < spec.round,
                    None => true,
                };
                if let (true, LinkFault::Delay(by)) = (carried, plan.decide(round, from, to)) {
                    let counted = u64::from(round >= from_round);
                    growth.letters += counted;
                    if in_flight.len() == capacity {
                        if capacity == 0 {
                            growth.first_letters += counted;
                            capacity = 4;
                        } else {
                            growth.regrowths += counted;
                            capacity *= 2;
                        }
                    }
                    in_flight.push(round + by);
                }
            }
        }
    }
    growth
}

#[test]
fn the_faulty_round_loop_regrows_only_the_stash_once_the_ring_is_full() {
    let pattern = crashing_pattern();
    // By round 2 + MAX_DELAY every slot of the ring of kept rounds has
    // been created and sized; the reorder buffer was before round 1.
    let from_round = 2 + MAX_DELAY;
    for seed in [1, 7, 0xFEED] {
        let plan = lossy_plan(seed);
        let grown = counted_from_round(from_round, || {
            run_protocol_faulty(flood_system(), &pattern, &plan, ROUNDS + 1)
                .expect("the flood terminates")
                .rounds_executed()
        })
        .reallocs;
        assert_eq!(
            grown,
            queue_growth(&plan, &pattern, from_round).regrowths,
            "a per-round buffer was regrown under {plan}"
        );
    }
}

#[test]
fn a_delayed_letter_allocates_nothing_once_its_queue_has_room() {
    let pattern = crashing_pattern();
    let from_round = 2 + MAX_DELAY;
    // The flood allocates the same under every plan (a view per send),
    // and so does the loop once the ring is full: what the lossy plan
    // adds is each queue's first letter, and nothing per delayed letter.
    let benign = counted_from_round(from_round, || {
        run_protocol_faulty(flood_system(), &pattern, &FaultPlan::none(N), ROUNDS + 1)
            .expect("the flood terminates")
            .rounds_executed()
    });
    for seed in [1, 7, 0xFEED] {
        let plan = lossy_plan(seed);
        let lossy = counted_from_round(from_round, || {
            run_protocol_faulty(flood_system(), &pattern, &plan, ROUNDS + 1)
                .expect("the flood terminates")
                .rounds_executed()
        });
        let growth = queue_growth(&plan, &pattern, from_round);
        assert!(growth.letters > 0, "some letter is delayed under {plan}");
        assert_eq!(
            lossy.allocs,
            benign.allocs + growth.first_letters,
            "a delayed letter allocated under {plan}"
        );
    }
}

/// All allocator calls this thread makes while `run` runs.
fn counted<T>(run: impl FnOnce() -> T) -> (T, Counts) {
    let before = counts_on_this_thread();
    let result = run();
    let after = counts_on_this_thread();
    let counts = Counts {
        allocs: after.allocs - before.allocs,
        reallocs: after.reallocs - before.reallocs,
    };
    (result, counts)
}

#[test]
fn a_second_cell_under_a_kept_plan_allocates_no_table() {
    // A new thread: no plan's fates are kept on it yet.
    std::thread::spawn(|| {
        let pattern = crashing_pattern();
        let plan = lossy_plan(7);
        let cell = || {
            run_protocol_faulty(flood_system(), &pattern, &plan, ROUNDS + 1)
                .expect("the flood terminates")
        };
        let (first_trace, first) = counted(cell);
        let (second_trace, second) = counted(cell);
        assert_eq!(second_trace, first_trace);
        assert!(
            second.allocs < first.allocs,
            "the second cell decided its links again: first {first:?}, second {second:?}"
        );
    })
    .join()
    .expect("the cells run");
}

/// The byte budget of the link fates a thread keeps between runs.
const KEPT_FATES_BUDGET: i64 = 4 << 20;

/// Sends nothing but a unit and decides in round `ROUNDS`: the cheapest
/// protocol to run at a large system size.
struct Quiet;

impl SyncProtocol for Quiet {
    type Msg = ();
    type Output = ();

    fn message(&mut self, _round: usize) {}

    fn receive(&mut self, _round: usize, _from: ProcessId, _msg: &()) {}

    fn compute(&mut self, round: usize) -> Step<()> {
        if round >= ROUNDS {
            Step::Decide(())
        } else {
            Step::Continue
        }
    }
}

#[test]
fn the_kept_fates_stay_within_their_byte_budget() {
    std::thread::spawn(|| {
        // At n = 1024 a round's fates are 1 MiB: a round limit of 1 000
        // would be a gigabyte of them.
        let n = 1024;
        let plan = FaultPlan::new(n, 3).drop_rate(300).duplicate_rate(300);
        let before = LIVE_BYTES.with(Cell::get);
        let trace = run_protocol_faulty(
            (0..n).map(|_| Quiet).collect(),
            &FailurePattern::none(n),
            &plan,
            1_000,
        )
        .expect("the protocol terminates");
        assert_eq!(trace.rounds_executed(), ROUNDS);
        drop(trace);
        let kept = LIVE_BYTES.with(Cell::get) - before;
        assert!(
            (1 << 20..=KEPT_FATES_BUDGET).contains(&kept),
            "the thread kept {kept} bytes after the run"
        );
    })
    .join()
    .expect("the run completes");
}

#[test]
fn a_benign_plan_allocates_exactly_what_the_plain_loop_does() {
    let pattern = crashing_pattern();
    let plain = counted_from_round(2, || {
        run_protocol(flood_system(), &pattern, ROUNDS + 1)
            .expect("the flood terminates")
            .rounds_executed()
    });
    let faulty = counted_from_round(2, || {
        run_protocol_faulty(flood_system(), &pattern, &FaultPlan::none(N), ROUNDS + 1)
            .expect("the flood terminates")
            .rounds_executed()
    });
    assert!(plain.allocs > 0, "the flood clones a view per send");
    assert_eq!(faulty, plain, "the benign plan costs an allocation");
}

/// A protocol that marks the rounds as [`Flood`] does, forwarding all
/// else. When `SHARES`, it forwards `fold`, `receive_folded` and `adopt`
/// too; otherwise it keeps the trait's declining defaults, and every
/// process receives every message and computes every round itself.
struct Marking<P, const SHARES: bool> {
    me: usize,
    inner: P,
}

impl<P: SyncProtocol, const SHARES: bool> SyncProtocol for Marking<P, SHARES> {
    type Msg = P::Msg;
    type Output = P::Output;

    fn message(&mut self, round: usize) -> P::Msg {
        if self.me == 0 && round == MARKED_ROUND.with(Cell::get) {
            COUNTS_AT_MARK.with(|mark| mark.set(Some(counts_on_this_thread())));
        }
        self.inner.message(round)
    }

    fn receive(&mut self, round: usize, from: ProcessId, msg: &P::Msg) {
        self.inner.receive(round, from, msg);
    }

    fn fold(round: usize, batch: &mut dyn Iterator<Item = (ProcessId, &P::Msg)>) -> Option<P::Msg> {
        if SHARES {
            P::fold(round, batch)
        } else {
            None
        }
    }

    fn receive_folded(&mut self, round: usize, count: usize, folded: &P::Msg) {
        self.inner.receive_folded(round, count, folded);
    }

    fn adopt(&mut self, round: usize, twin: &Self) -> bool {
        SHARES && self.inner.adopt(round, &twin.inner)
    }

    fn compute(&mut self, round: usize) -> Step<P::Output> {
        self.inner.compute(round)
    }
}

/// A crash-free condition-based cell at `N`, its input in `C_max`.
fn condition_based_cell<const SHARES: bool>(
) -> Vec<Marking<ConditionBased<u32, MaxCondition>, SHARES>> {
    let config = ConditionBasedConfig::builder(N, 16, 2)
        .condition_degree(4)
        .ell(1)
        .build()
        .expect("valid");
    let oracle = MaxCondition::new(config.legality());
    (0..N)
        .map(|me| {
            let proposal = if me % 4 == 0 { me as u32 } else { 1_000 };
            let inner = ConditionBased::new(config, ProcessId::new(me), proposal, oracle);
            Marking { me, inner }
        })
        .collect()
}

#[test]
fn an_adopted_round_one_builds_one_view_not_n() {
    fn run<const SHARES: bool>() -> usize {
        run_protocol(
            condition_based_cell::<SHARES>(),
            &FailurePattern::none(N),
            N,
        )
        .expect("the cell terminates")
        .rounds_executed()
    }
    // Round 1 on: one representative assembles a view and decodes it,
    // the other `N − 1` adopt its classification and allocate nothing.
    let (rounds, adopting) = counted_from_mark(1, run::<true>);
    let (_, per_message) = counted_from_mark(1, run::<false>);
    assert_eq!(rounds, 2, "the input is in the condition");
    assert!(
        adopting.allocs + (N as u64 - 1) <= per_message.allocs,
        "adopting: {adopting:?}, every process on its own: {per_message:?}"
    );
    // Round 2 on: nothing regrows.
    let (_, after_round_one) = counted_from_mark(2, run::<true>);
    assert_eq!(after_round_one.reallocs, 0, "a buffer was regrown");
}

#[test]
fn the_max_condition_oracle_never_reallocs() {
    // Ascending values with a `⊥` every ninth entry: every observed
    // entry is a new maximum, the selection buffer's busiest input.
    let entries: Vec<Option<u32>> = (0..N as u32).map(|i| (i % 9 != 4).then_some(i)).collect();
    let view = View::from_options(entries.clone());
    let vector = InputVector::new(entries.into_iter().flatten().collect());
    for (x, ell) in [(0, 1), (3, 2), (60, 3), (10, N + 2)] {
        let oracle = MaxCondition::new(LegalityParams::new(x, ell).expect("ℓ ≥ 1"));
        let before = reallocs_on_this_thread();
        let decoded = oracle.decode_view(&view);
        let matches = oracle.matches(&view);
        let member = oracle.contains(&vector);
        let grown = reallocs_on_this_thread() - before;
        assert_eq!(decoded.is_some(), matches);
        assert_eq!(
            member,
            x < 57.min(ell),
            "57 distinct values, one entry each"
        );
        assert_eq!(grown, 0, "a C_max({x}, {ell}) question regrew a buffer");
    }
}

/// The watched thread's blocks freed on other threads while `run` ran,
/// and the sizes of the first few.
fn foreign_frees_during<T>(run: impl FnOnce() -> T) -> (T, usize, Vec<usize>) {
    FOREIGN_FREES.store(0, Ordering::Relaxed);
    WATCHED.store(my_tag(), Ordering::SeqCst);
    let result = run();
    WATCHED.store(0, Ordering::SeqCst);
    let foreign = FOREIGN_FREES.load(Ordering::Relaxed);
    let sizes = FOREIGN_SIZES
        .iter()
        .take(foreign)
        .map(|size| size.load(Ordering::Relaxed))
        .collect();
    (result, foreign, sizes)
}

const WORKERS: usize = 2;

/// The benchmark grid's shape at n = 6: 4 specs × 8 inputs × 6 patterns.
fn sweep_suite() -> ScenarioSuite<u32> {
    let config = ConditionBasedConfig::builder(6, 3, 2)
        .condition_degree(2)
        .ell(1)
        .build()
        .expect("valid");
    let oracle = MaxCondition::new(config.legality());
    let suite = ScenarioSuite::new()
        .spec(ProtocolSpec::condition_based(config, oracle))
        .spec(ProtocolSpec::early_condition_based(config, oracle))
        .spec(ProtocolSpec::flood_set(6, 3, 2))
        .spec(ProtocolSpec::early_deciding(6, 3, 2))
        .inputs((0..8u32).map(|i| InputVector::new(vec![5, 5, 1 + i % 3, 2, 5, 5 + i])))
        .patterns(
            (0..6)
                .map(|i| match i {
                    0 => FailurePattern::none(6),
                    1 => FailurePattern::chain(6, 3),
                    _ => FailurePattern::staircase(6, 3, i - 1),
                })
                .map(Into::into),
        )
        .threads(WORKERS);
    assert_eq!(suite.len(), 4 * 8 * 6);
    suite
}

// Both halves watch through the one `WATCHED` slot, so they are one test.
#[test]
fn a_parallel_suite_run_frees_its_allocations_on_the_calling_thread() {
    let suite = sweep_suite();

    // A first run parks a pool worker, so the watched run starts no
    // thread (a thread frees its start-up blocks whenever it exits). The
    // calling thread is the run's other worker.
    let reference = suite.run();
    assert!(reference.all_ok());

    let (watched, foreign, sizes) = foreign_frees_during(|| suite.run());
    assert_eq!(watched.cases(), reference.cases());
    assert_eq!(
        foreign,
        WORKERS - 1,
        "only each pool task's box may be freed off the calling thread; \
         freed there: blocks of {sizes:?} bytes"
    );
    assert!(
        sizes.windows(2).all(|pair| pair[0] == pair[1]),
        "the task boxes are one type, so one size: {sizes:?}"
    );

    // Bound to a cache that holds the whole grid, the same parallel run
    // is a cached prefix to the end: no task box, so no worker.
    let cache = std::sync::Arc::new(SuiteCache::new());
    let warm_suite = sweep_suite().cache(&cache);
    assert_eq!(warm_suite.run().cache_misses(), 4 * 8 * 6);
    let (warm, foreign, sizes) = foreign_frees_during(|| warm_suite.run());
    assert_eq!(warm.cases(), reference.cases());
    assert_eq!((warm.cache_hits(), warm.cache_misses()), (4 * 8 * 6, 0));
    assert_eq!(
        foreign, 0,
        "an all-hit run starts no worker; freed off the calling thread: \
         blocks of {sizes:?} bytes"
    );
}
