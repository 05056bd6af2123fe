//! The deterministic round executor.
//!
//! [`run_protocol`] drives `n` [`SyncProtocol`] instances through rounds of
//! send / receive / compute under a [`FailurePattern`], implementing the
//! paper's model faithfully:
//!
//! * broadcasts go out in the predetermined order `p_1, …, p_n`; a process
//!   crashing in round `r` with prefix `a` delivers that round's message to
//!   `p_1, …, p_a` only, and nothing afterwards;
//! * a message sent in round `r` is received in round `r`;
//! * **each process** receives a round's messages in ascending sender
//!   order, then the compute phase runs. The order in which *different*
//!   recipients are served is unspecified — the loops here hand one
//!   recipient its whole round before turning to the next, the threaded
//!   tiers run recipients concurrently — which no protocol can observe,
//!   because processes share no state (the [`SyncProtocol`] contract);
//! * a process whose compute phase returns [`Step::Decide`] stops
//!   participating (its sends for that round already happened — the
//!   forward-then-return shape of Figure 2's lines 13–14).
//!
//! **A round's broadcast is folded once, not once per recipient.**
//! What the senders that do not crash in a round broadcast reaches every
//! process, and only a crashing sender's delivery differs from recipient
//! to recipient. The plain loop ([`run_protocol`],
//! [`run_protocol_unordered`]) therefore offers the former to
//! [`SyncProtocol::fold`] once a round; a protocol whose `receive` looks
//! at neither sender nor order in that round folds them into one message,
//! every process it runs takes it in a single `receive_folded`, and only
//! the crashing senders' messages still go through `receive`, each to the
//! processes it reached — a crash-free round costs O(n) calls, not n².
//! A protocol (or round) that declines gets the per-message loop,
//! untouched. Either way the [`Trace`] is the same, `messages_delivered`
//! included: folding changes how often the simulator repeats a
//! computation, not what is simulated. The fault-composed loop delivers
//! no fold, since per-link decisions leave nothing common to all
//! recipients. Under a plan that reorders it still asks the fold once a
//! round, and in a round that folds it skips the inbox shuffle: the
//! protocol has declared that order does not matter there.
//!
//! **The plain loop runs one process per class.** Processes that have
//! received the same messages since some round, and were alike then, stay
//! alike (*Class-stable rounds* in [`SyncProtocol`]). The plain loop keeps
//! the live processes in classes, each run by its smallest member, the
//! leader; only leaders send, receive and compute. Every round:
//!
//! * each leader broadcasts once for its class, and the fold still walks
//!   every sender not crashing in the round, ascending, each paired with
//!   its leader's message;
//! * which of the round's crashing senders reached a process is its
//!   reach (a `u64` signature, exact): a class whose members were reached
//!   unalike splits into its parts, and each new part's leader is first
//!   made equal to the old one through [`SyncProtocol::catch_up`]. The
//!   classes are kept as runs of consecutive indices, so a crasher's reach
//!   cuts a run where it starts or stops — a binary search, not a pass
//!   over the members. A round with more than 64 crashers dissolves every
//!   class into singletons;
//! * a victim of the round is counted — what reached it — and never
//!   served, and a class it led is led by its smallest survivor;
//! * a leader that the round's crashers reached as they reached an
//!   earlier one received what that one did, and is offered
//!   [`SyncProtocol::adopt`] of that one's round; if it adopts, and the
//!   protocol catches up (asked once a run), its class joins the other.
//!   That is how classes form — in round 1 from singletons, and later
//!   where a protocol such as FloodSet can merge back what a crash split;
//! * outcomes and `messages_delivered` are expanded from classes, a
//!   class's deliveries counting once per member and its outcome being
//!   taken, once, by each member as it leaves.
//!
//! A protocol that declines `catch_up` — the provided method does — runs
//! one process per class, every process but the round's victims served
//! every round, adopting where it adopts. Under ordered sends a reach class is an interval of
//! indices, so `c` round-1 crashers leave at most `c + 1` classes, where
//! Figure 2's round 1 used to assemble and decode `n` views; under
//! arbitrary-subset crashes the classes are whatever the reaches make
//! them. The fault-composed loop and the node tier run every process.

use std::cell::Cell;
use std::error::Error;
use std::fmt;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use setagree_types::ProcessId;

use crate::adversary::{FailurePattern, UnorderedFailurePattern};
use crate::fault::{FaultInbox, FaultPlan, LinkFates};
use crate::protocol::{Step, SyncProtocol};
use crate::trace::{Outcome, Trace};

/// Error running an execution.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EngineError {
    /// Some process had not decided after `limit` rounds — the protocol
    /// under test violates termination (or the limit is too small).
    RoundLimitExceeded {
        /// The configured limit.
        limit: usize,
    },
    /// The failure pattern is over a different system size than the
    /// process vector.
    SystemSizeMismatch {
        /// Number of protocol instances supplied.
        processes: usize,
        /// System size of the failure pattern.
        pattern: usize,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::RoundLimitExceeded { limit } => {
                write!(
                    f,
                    "execution exceeded the {limit}-round limit without termination"
                )
            }
            EngineError::SystemSizeMismatch { processes, pattern } => write!(
                f,
                "{processes} protocol instances but the failure pattern is over {pattern} processes"
            ),
        }
    }
}

impl Error for EngineError {}

/// How a crashing sender's last round of messages is delivered — the
/// model knob Section 6.2 discusses.
pub(crate) trait DeliveryPolicy {
    /// System size.
    fn system_size(&self) -> usize;
    /// Every faulty process with the round during which it crashes.
    fn crashes(&self) -> impl Iterator<Item = (ProcessId, usize)> + '_;
    /// Whether `sender`'s round-`round` broadcast reaches `recipient`,
    /// given that this is the sender's crash round. Asked at most once
    /// per crash and recipient in a whole run, so implementations are
    /// `#[cold]`: a delivery loop then spills its registers around this
    /// call only, not on every delivery (see `receive_round`).
    fn delivers_while_crashing(
        &self,
        sender: ProcessId,
        round: usize,
        recipient: ProcessId,
    ) -> bool;
    /// The same question for a whole round at once: calls `reached` with
    /// each maximal run `lo..hi` of process indices that `sender`'s
    /// round-`round` broadcast reaches, ascending — one look at the
    /// sender's crash per round, not one per recipient.
    fn reached_runs(&self, sender: ProcessId, round: usize, reached: impl FnMut(usize, usize));
}

impl DeliveryPolicy for FailurePattern {
    fn system_size(&self) -> usize {
        FailurePattern::system_size(self)
    }
    fn crashes(&self) -> impl Iterator<Item = (ProcessId, usize)> + '_ {
        self.iter().map(|(id, spec)| (id, spec.round))
    }
    #[cold]
    fn delivers_while_crashing(
        &self,
        sender: ProcessId,
        _round: usize,
        recipient: ProcessId,
    ) -> bool {
        // The paper's model: ordered sends, so the crash loses a suffix.
        let prefix = self.spec(sender).map(|s| s.after_sends).unwrap_or(0);
        recipient.index() < prefix
    }
    fn reached_runs(
        &self,
        sender: ProcessId,
        _round: usize,
        mut reached: impl FnMut(usize, usize),
    ) {
        let prefix = self.spec(sender).map(|s| s.after_sends).unwrap_or(0);
        if prefix > 0 {
            reached(0, prefix);
        }
    }
}

impl DeliveryPolicy for UnorderedFailurePattern {
    fn system_size(&self) -> usize {
        UnorderedFailurePattern::system_size(self)
    }
    fn crashes(&self) -> impl Iterator<Item = (ProcessId, usize)> + '_ {
        self.iter().map(|(id, spec)| (id, spec.round))
    }
    #[cold]
    fn delivers_while_crashing(
        &self,
        sender: ProcessId,
        _round: usize,
        recipient: ProcessId,
    ) -> bool {
        self.spec(sender)
            .map(|s| s.delivered_to.contains(recipient))
            .unwrap_or(false)
    }
    fn reached_runs(
        &self,
        sender: ProcessId,
        _round: usize,
        mut reached: impl FnMut(usize, usize),
    ) {
        let Some(spec) = self.spec(sender) else {
            return;
        };
        let mut run: Option<(usize, usize)> = None;
        for id in spec.delivered_to.iter().map(ProcessId::index) {
            run = match run {
                Some((lo, hi)) if hi == id => Some((lo, id + 1)),
                _ => {
                    if let Some((lo, hi)) = run {
                        reached(lo, hi);
                    }
                    Some((id, id + 1))
                }
            };
        }
        if let Some((lo, hi)) = run {
            reached(lo, hi);
        }
    }
}

/// No round: they are numbered from 1, and a pattern rejects a crash in
/// round 0.
const NEVER: usize = 0;

/// The round during which each process crashes, by process index, and
/// [`NEVER`] for a correct one: what both round loops ask of every
/// active process every round, resolved once per run out of the
/// pattern's map.
fn crash_rounds<D: DeliveryPolicy>(policy: &D) -> Vec<usize> {
    let mut rounds = vec![NEVER; policy.system_size()];
    for (id, round) in policy.crashes() {
        rounds[id.index()] = round;
    }
    rounds
}

/// Runs the protocol instances (one per process, in process order) under
/// the failure pattern, for at most `max_rounds` rounds — in the paper's
/// **ordered-send** model (a crash loses a suffix of the broadcast).
///
/// # Errors
///
/// * [`EngineError::SystemSizeMismatch`] if `processes.len()` differs from
///   the pattern's system size;
/// * [`EngineError::RoundLimitExceeded`] if some process neither decided
///   nor crashed within `max_rounds` (the returned error intentionally
///   carries no partial trace: a protocol that does not terminate within
///   its proven bound is a bug, not a result).
///
/// # Example
///
/// See the [crate-level example](crate).
pub fn run_protocol<P: SyncProtocol>(
    processes: Vec<P>,
    pattern: &FailurePattern,
    max_rounds: usize,
) -> Result<Trace<P::Output>, EngineError> {
    run_with_policy(processes, pattern, max_rounds)
}

/// Runs under the **standard** synchronous model instead (Attiya–Welch /
/// Lynch): a process that crashes during its send phase loses an
/// *arbitrary subset* of that round's messages, not a suffix. Round-1
/// views are then no longer totally ordered by containment — the ablation
/// that shows the paper's ordered-send assumption is load-bearing for the
/// Figure 2 agreement argument.
///
/// # Errors
///
/// As [`run_protocol`].
pub fn run_protocol_unordered<P: SyncProtocol>(
    processes: Vec<P>,
    pattern: &UnorderedFailurePattern,
    max_rounds: usize,
) -> Result<Trace<P::Output>, EngineError> {
    run_with_policy(processes, pattern, max_rounds)
}

/// Runs under the ordered-send crash model *composed with* a message
/// [`FaultPlan`]: link faults (drop / delay / duplicate / reorder /
/// partition) apply receiver-side on top of the crash pattern's
/// deliveries. `FaultPlan::none` runs trace-identical to
/// [`run_protocol`] — the benign plan takes the full fault path on
/// purpose, every inbox streamed through the same [`FaultInbox`] core
/// that a lossy plan's is, so the identity is a property of the
/// machinery, not of a short-circuit (pinned by
/// `tests/fault_equivalence.rs`). Streaming is what keeps that cheap: a
/// message is produced once per sender and round, kept in a short ring
/// of recent rounds for as long as a delayed letter can still refer to
/// it, and handed to each recipient by reference — no clone, no
/// reference count, no per-recipient buffer (`P::Msg` needs no `Clone`).
/// Under the benign plan the loop allocates exactly what the plain one
/// does (`tests/alloc_discipline.rs`).
///
/// Every letter reaches its recipient through [`SyncProtocol::receive`];
/// nothing is folded for delivery. Under a plan that reorders, though,
/// each round's broadcasts from the senders not crashing in it are
/// offered once to [`SyncProtocol::fold`], as [`run_protocol`] offers
/// them. Where it returns `Some`, the protocol has declared that its
/// `receive` ignores order in that round (*Folded rounds*), so the
/// round's inboxes are handed over unshuffled. That changes no trace,
/// which `tests/fault_equivalence.rs` pins against the node tier (which
/// always shuffles) and `tests/fold_equivalence.rs` against the same
/// protocol with its fold declined.
///
/// Link decisions are memoised per thread and per plan: the run reads
/// each link's fate from a table decided the first time a run of `plan`
/// on this thread reached the round, and leaves the table for the
/// thread's next run of the same plan — a sweep of cells under one plan
/// decides each link once per worker, not once per cell. The thread
/// keeps one plan's table, of at most 4 MiB; rounds past that bound
/// are decided as they are reached and not kept.
///
/// # Errors
///
/// As [`run_protocol`]; additionally
/// [`EngineError::SystemSizeMismatch`] if the plan's system size
/// differs from the process vector's.
pub fn run_protocol_faulty<P: SyncProtocol>(
    processes: Vec<P>,
    pattern: &FailurePattern,
    plan: &FaultPlan,
    max_rounds: usize,
) -> Result<Trace<P::Output>, EngineError> {
    run_with_policy_faulty(processes, pattern, plan, max_rounds)
}

/// [`run_protocol_faulty`] under the **standard** (arbitrary-subset)
/// crash model instead — the composition `Adversary::Network` exposes.
///
/// # Errors
///
/// As [`run_protocol_faulty`].
pub fn run_protocol_unordered_faulty<P: SyncProtocol>(
    processes: Vec<P>,
    pattern: &UnorderedFailurePattern,
    plan: &FaultPlan,
    max_rounds: usize,
) -> Result<Trace<P::Output>, EngineError> {
    run_with_policy_faulty(processes, pattern, plan, max_rounds)
}

/// The simulator's metric handles: a per-round duration histogram and
/// a delivered-messages counter, shared by the plain and fault-composed
/// loops. The plain loop is the zero-copy broadcast hot path, so every
/// use is hoisted behind one `enabled()` check per execution.
struct EngineMetrics {
    round_duration_us: Arc<setagree_obs::Histogram>,
    messages_delivered: Arc<setagree_obs::Counter>,
}

fn engine_metrics() -> &'static EngineMetrics {
    static METRICS: OnceLock<EngineMetrics> = OnceLock::new();
    METRICS.get_or_init(|| EngineMetrics {
        round_duration_us: setagree_obs::histogram("engine_round_duration_us", &[]),
        messages_delivered: setagree_obs::counter("engine_messages_delivered", &[]),
    })
}

/// Records one round's wall-clock into the engine histogram.
fn record_round(started: Option<Instant>) {
    if let Some(at) = started {
        let us = u64::try_from(at.elapsed().as_micros()).unwrap_or(u64::MAX);
        engine_metrics().round_duration_us.record(us);
    }
}

/// One leader's receive phase in a round that does not fold: hands
/// `process` the round's broadcasts — each sender with the message it
/// sent, its leader's — in sender order, skipping what a crashing
/// sender's broadcast did not reach; returns the number of messages
/// delivered.
///
/// Kept out of line on purpose. As a function, the process and the
/// broadcasts are distinct arguments, so the compiler knows a `receive`
/// cannot write into the messages being read and keeps the process's
/// state in registers across the fold; and the crash-round check, the
/// one call in the loop, is `#[cold]`, so those registers are spilled
/// around it and not throughout. Inlined into the round loop the same
/// fold stores and reloads the state per delivery: on a one-word flood
/// at n = 64 a round takes 9 µs that way, 4 µs this way (8 µs
/// sender-major).
#[inline(never)]
fn receive_round<'m, P: SyncProtocol, D: DeliveryPolicy>(
    process: &mut P,
    recipient: ProcessId,
    round: usize,
    sends: impl Iterator<Item = (usize, &'m P::Msg, bool)>,
    policy: &D,
) -> u64
where
    P::Msg: 'm,
{
    let mut delivered = 0;
    for (sender, msg, crashing_now) in sends {
        let sender = ProcessId::new(sender);
        if crashing_now && !policy.delivers_while_crashing(sender, round, recipient) {
            continue;
        }
        process.receive(round, sender, msg);
        delivered += 1;
    }
    delivered
}

/// One leader's receive phase in a round that folds: the `steady`
/// senders' `folded` message in one call, then each of the round's
/// `crashers` whose broadcast reached it, in sender order — bit `b` of
/// `reach` says whether the `b`-th did, or `policy` when the round has
/// more crashers than a signature has bits. Returns the number of
/// messages delivered: a fold of `m` is `m`.
#[allow(clippy::too_many_arguments)]
fn receive_folded_round<'m, P: SyncProtocol, D: DeliveryPolicy>(
    process: &mut P,
    recipient: ProcessId,
    round: usize,
    steady: usize,
    folded: &P::Msg,
    crashers: impl Iterator<Item = (usize, &'m P::Msg)>,
    reach: Option<u64>,
    policy: &D,
) -> u64
where
    P::Msg: 'm,
{
    process.receive_folded(round, steady, folded);
    let mut delivered = steady as u64;
    for (bit, (sender, msg)) in crashers.enumerate() {
        let sender = ProcessId::new(sender);
        let reached = match reach {
            Some(mask) => mask >> bit & 1 == 1,
            None => policy.delivers_while_crashing(sender, round, recipient),
        };
        if reached {
            process.receive(round, sender, msg);
            delivered += 1;
        }
    }
    delivered
}

/// How many crashing senders a reach signature can tell apart: a round
/// with more dissolves the classes.
const SIGNATURE_BITS: usize = u64::BITS as usize;

/// No index: the end of a list, a class that is gone, or the class of a
/// span whose one member crashes this round.
const NONE: usize = usize::MAX;

/// Consecutive live processes `lo..hi` of one class. The plain loop keeps
/// its spans disjoint and ascending, one or more per class, covering
/// every live process and nothing else — a victim of the round is cut
/// out into a span of its own (of class [`NONE`]) and dropped at the
/// round's end — so a span's members are `lo..hi`, no process looked at.
#[derive(Debug, Clone, Copy)]
struct Span {
    lo: usize,
    hi: usize,
    /// Its members' class, as `classes` indexes it.
    class: usize,
    /// Its members' class when the round's messages were sent — and so
    /// the round's `sends` entry that is their broadcast.
    sent: usize,
    /// In a round whose classes split: bit `b` is whether the round's
    /// `b`-th crashing sender reached its members.
    reach: u64,
}

/// A class of the plain loop: live processes that have received the
/// same messages since they joined it, run by one of them.
#[derive(Debug, Clone, Copy)]
struct Class {
    /// Its smallest live member, the one process of it that is run.
    leader: usize,
    /// Its live members, the leader included.
    size: u64,
    /// In a round with crashers: which reached its members (as
    /// [`Span::reach`]).
    reach: u64,
    /// While a round splits the classes, on a class the round started
    /// from: its newest part, or [`NONE`]; on a part: the part of the
    /// same class made before it. Then, on a leader served in full: the
    /// one served before it. Once the round's classes are renumbered:
    /// its index from then on, or [`NONE`] if its members leave (they
    /// decided).
    link: usize,
    /// The class whose members it joins when the round ends: itself,
    /// unless its leader adopted a twin's round and caught up with it.
    joins: usize,
}

/// The span that live process `id` is in.
fn span_of(spans: &[Span], id: usize) -> usize {
    spans.partition_point(|span| span.lo <= id) - 1
}

/// Splits the span that `at` falls strictly inside into the part below
/// `at` and the part from `at` on. Spans are disjoint and never empty,
/// so a table sized to the system never grows here.
fn cut(spans: &mut Vec<Span>, at: usize) {
    let next = spans.partition_point(|span| span.lo < at);
    if let Some(below) = next.checked_sub(1) {
        let span = spans[below];
        if at < span.hi {
            spans[below].hi = at;
            spans.insert(next, Span { lo: at, ..span });
        }
    }
}

/// The bytes of class tables a thread keeps between runs.
const KEPT_TABLES_BUDGET: usize = 1 << 20;

/// The plain loop's tables. A thread keeps them, cleared, for its next
/// run, so a sweep sizes them once per worker, not once per cell:
/// allocated anew for every run, they made an n = 1024 condition-based
/// run ≈ 2× slower (measured against the same loop on kept tables).
#[derive(Debug, Default)]
struct Tables {
    /// Every crash as `(round, process, class)`.
    crashes: Vec<(usize, usize, usize)>,
    spans: Vec<Span>,
    classes: Vec<Class>,
    /// A round's parts, or the table its classes are renumbered into.
    spare: Vec<Class>,
}

thread_local! {
    /// The tables of the last plain run on this thread.
    static KEPT_TABLES: Cell<Option<Tables>> = const { Cell::new(None) };
}

impl Tables {
    /// This thread's kept tables, or new ones.
    fn take() -> Tables {
        KEPT_TABLES
            .try_with(Cell::take)
            .ok()
            .flatten()
            .unwrap_or_default()
    }

    /// Hands the tables back to this thread, unless they outgrew the
    /// budget.
    fn keep(self) {
        let bytes = self.crashes.capacity() * std::mem::size_of::<(usize, usize, usize)>()
            + self.spans.capacity() * std::mem::size_of::<Span>()
            + (self.classes.capacity() + self.spare.capacity()) * std::mem::size_of::<Class>();
        if bytes <= KEPT_TABLES_BUDGET {
            let _ = KEPT_TABLES.try_with(|slot| slot.set(Some(self)));
        }
    }
}

pub(crate) fn run_with_policy<P: SyncProtocol, D: DeliveryPolicy>(
    processes: Vec<P>,
    policy: &D,
    max_rounds: usize,
) -> Result<Trace<P::Output>, EngineError> {
    let n = processes.len();
    if n != policy.system_size() {
        return Err(EngineError::SystemSizeMismatch {
            processes: n,
            pattern: policy.system_size(),
        });
    }

    let mut procs = processes;
    let mut outcomes: Vec<Option<Outcome<P::Output>>> = (0..n).map(|_| None).collect();
    let mut messages_delivered: u64 = 0;
    let mut rounds_executed = 0;
    let obs_on = setagree_obs::enabled();
    // The tables and the per-round buffers are sized before round 1 and
    // cleared, never regrown: a `Vec` grown through an unsized `filter`
    // is `realloc`ed every round, and a block that started life in
    // another thread's malloc arena sends that `realloc` through the
    // other arena's lock (what made parallel suite sweeps slower than
    // serial ones). Before round 1 every process is a class of its own.
    let Tables {
        mut crashes,
        mut spans,
        mut classes,
        mut spare,
    } = Tables::take();
    // The crashes by round and then by process; a round's entries learn
    // their class, or [`NONE`] for a process that decided before its
    // crash round.
    crashes.clear();
    crashes.extend(
        policy
            .crashes()
            .map(|(id, round)| (round, id.index(), NONE)),
    );
    crashes.sort_unstable();
    let mut next_crash = 0;
    spans.clear();
    spans.reserve(n);
    spans.extend((0..n).map(|id| Span {
        lo: id,
        hi: id + 1,
        class: id,
        sent: id,
        reach: 0,
    }));
    classes.clear();
    classes.extend((0..n).map(|leader| Class {
        leader,
        size: 1,
        reach: 0,
        link: NONE,
        joins: NONE,
    }));
    spare.clear();
    spare.reserve(n);
    let mut sends: Vec<(usize, P::Msg, bool)> = Vec::with_capacity(n);
    // The live processes: the classes' sizes summed.
    let mut live = n;
    // Whether the protocol catches up: asked once, at the first join.
    let mut follows = None;

    for round in 1..=max_rounds {
        if classes.is_empty() {
            break;
        }
        rounds_executed = round;
        let round_started = obs_on.then(Instant::now);

        // Send phase: each class's leader broadcasts, for every member.
        // A process crashing mid-send still "sends" from the protocol's
        // point of view (part of the broadcast is lost).
        sends.clear();
        for class in &classes {
            let leader = class.leader;
            sends.push((leader, procs[leader].message(round), false));
        }
        // The round's crashing senders, ascending, each cut out of its
        // span into one of its own.
        let first_crash = next_crash;
        while crashes
            .get(next_crash)
            .is_some_and(|&(at, _, _)| at == round)
        {
            let (_, victim, class) = &mut crashes[next_crash];
            next_crash += 1;
            if outcomes[*victim].is_some() {
                continue;
            }
            let at = span_of(&spans, *victim);
            *class = spans[at].class;
            sends[*class].2 |= classes[*class].leader == *victim;
            cut(&mut spans, *victim);
            cut(&mut spans, *victim + 1);
            let at = span_of(&spans, *victim);
            spans[at].class = NONE;
        }
        let crashers = &crashes[first_crash..next_crash];
        let crashers = || {
            crashers
                .iter()
                .filter(|&&(_, _, class)| class != NONE)
                .map(|&(_, victim, class)| (victim, class))
        };
        let crashing = crashers().count();
        let steady = live - crashing;
        let grouped = crashing <= SIGNATURE_BITS;
        // No follower: `sends` is every broadcast, in sender order.
        let everyone_sent = sends.len() == live;

        // What the senders not crashing now broadcast reaches every
        // process alike, so it is offered to the protocol once, each
        // sender with its class's message.
        let folded = {
            let sends = &sends;
            let mut batch = spans
                .iter()
                .filter(|span| span.class != NONE)
                .flat_map(|span| {
                    let msg = &sends[span.sent].1;
                    (span.lo..span.hi).map(move |id| (ProcessId::new(id), msg))
                });
            P::fold(round, &mut batch)
        };

        // Partition phase: only a crashing sender's broadcast reaches
        // some processes and not others. Crashes take effect before the
        // compute phase: a victim is counted, never served.
        let partitioned = crashing > 0;
        if partitioned {
            // The spans are cut where a crasher's broadcast starts or
            // stops reaching, so that each is reached alike; a round with
            // more crashers than a signature has bits cuts them into
            // single processes.
            for span in &mut spans {
                span.reach = 0;
            }
            if grouped {
                for (bit, (sender, _)) in crashers().enumerate() {
                    let sender = ProcessId::new(sender);
                    policy.reached_runs(sender, round, |lo, hi| {
                        cut(&mut spans, lo);
                        cut(&mut spans, hi);
                        let from = spans.partition_point(|span| span.lo < lo);
                        for span in spans[from..].iter_mut().take_while(|span| span.lo < hi) {
                            span.reach |= 1 << bit;
                        }
                    });
                }
            } else {
                for at in 1..n {
                    cut(&mut spans, at);
                }
            }
            // Each class splits into its parts reached alike — every
            // process its own part when the round dissolves the classes —
            // each led by its smallest member, first caught up with the
            // old leader before that one receives anything. Where every
            // class is one process, none splits: each takes its reach,
            // and a victim's class is left to go with it.
            let singletons = classes.len() == live;
            for class in &mut classes {
                class.link = NONE;
            }
            spare.clear();
            let parts = &mut spare;
            for span in spans.iter_mut().filter(|span| span.class != NONE) {
                if singletons {
                    classes[span.class].reach = span.reach;
                    continue;
                }
                let from = &mut classes[span.class];
                let mut part = if grouped { from.link } else { NONE };
                while part != NONE && parts[part].reach != span.reach {
                    part = parts[part].link;
                }
                if part == NONE {
                    part = parts.len();
                    parts.push(Class {
                        leader: span.lo,
                        size: 0,
                        reach: span.reach,
                        link: from.link,
                        joins: NONE,
                    });
                    from.link = part;
                    let old = from.leader;
                    if old != span.lo {
                        // `old` is its class's smallest member.
                        let (earlier, rest) = procs.split_at_mut(span.lo);
                        assert!(
                            rest[0].catch_up(&earlier[old]),
                            "a process that caught up with its leader once must catch up again"
                        );
                    }
                }
                parts[part].size += (span.hi - span.lo) as u64;
                span.class = part;
            }
            for (victim, _) in crashers() {
                let reached_by = if grouped {
                    spans[span_of(&spans, victim)].reach.count_ones() as usize
                } else {
                    let reaches = |&(sender, _): &(usize, usize)| {
                        let (sender, victim) = (ProcessId::new(sender), ProcessId::new(victim));
                        policy.delivers_while_crashing(sender, round, victim)
                    };
                    crashers().filter(reaches).count()
                };
                messages_delivered += (steady + reached_by) as u64;
                outcomes[victim] = Some(Outcome::Crashed { round });
            }
            if !singletons {
                std::mem::swap(&mut classes, &mut spare);
            }
        }

        // Receive phase, one leader for each class. A leader that the
        // round's crashers reached as they reached an earlier one
        // received what that one did: it is offered `adopt(round, twin)`,
        // and, adopting, its class joins the twin's — if the protocol
        // catches up. Any other leader receives: in a round that folds,
        // the fold in one call and then, in sender order, what a
        // crashing sender's broadcast reached it with; otherwise every
        // message, in sender order. A class's deliveries count once per
        // member.
        let mut changed = false;
        let mut twins = NONE;
        for at in 0..classes.len() {
            let Class {
                leader: l,
                size,
                reach,
                ..
            } = classes[at];
            classes[at].joins = at;
            if outcomes[l].is_some() {
                // A victim, alone in its class.
                continue;
            }
            let reach = if partitioned { reach } else { 0 };
            // Without crashers every leader was reached alike.
            let mut twin = if grouped { twins } else { NONE };
            while twin != NONE && partitioned && classes[twin].reach != reach {
                twin = classes[twin].link;
            }
            if twin != NONE {
                // `twin`'s leader came earlier in ascending order.
                let twin_leader = classes[twin].leader;
                let (served, rest) = procs.split_at_mut(l);
                if rest[0].adopt(round, &served[twin_leader]) {
                    let delivered = (steady + reach.count_ones() as usize) as u64;
                    messages_delivered += delivered * size;
                    // The twin's step, if it did not go on.
                    if let Some(step) = &outcomes[twin_leader] {
                        outcomes[l] = Some(step.clone());
                        changed = true;
                    }
                    if *follows.get_or_insert_with(|| rest[0].catch_up(&served[twin_leader])) {
                        classes[twin].size += size;
                        classes[at].joins = twin;
                        changed = true;
                    }
                    continue;
                }
            }
            let recipient = ProcessId::new(l);
            let process = &mut procs[l];
            let delivered = match &folded {
                Some(folded) => {
                    let crashers = crashers().map(|(sender, class)| (sender, &sends[class].1));
                    let reach = grouped.then_some(reach);
                    receive_folded_round(
                        process, recipient, round, steady, folded, crashers, reach, policy,
                    )
                }
                None if everyone_sent => {
                    let sends = sends
                        .iter()
                        .map(|&(sender, ref msg, crashing_now)| (sender, msg, crashing_now));
                    receive_round(process, recipient, round, sends, policy)
                }
                None => {
                    let sends = &sends;
                    let sends = spans.iter().flat_map(|span| {
                        let msg = &sends[span.sent].1;
                        let crashing_now = span.class == NONE;
                        (span.lo..span.hi).map(move |id| (id, msg, crashing_now))
                    });
                    receive_round(process, recipient, round, sends, policy)
                }
            };
            messages_delivered += delivered * size;
            if let Step::Decide(value) = process.compute(round) {
                outcomes[l] = Some(Outcome::Decided { value, round });
                changed = true;
            }
            if twin == NONE {
                classes[at].link = twins;
                twins = at;
            }
        }

        // Victims leave; classes that decided go, their members taking
        // the leader's outcome; and a class that joined a twin's goes on
        // as part of it: the classes are renumbered, the spans follow,
        // and neighbouring spans of one class become one.
        if changed || partitioned {
            spare.clear();
            for at in 0..classes.len() {
                let class = classes[at];
                classes[at].link = if class.joins != at {
                    classes[class.joins].link
                } else if outcomes[class.leader].is_some() {
                    NONE
                } else {
                    spare.push(class);
                    spare.len() - 1
                };
            }
            let mut kept: usize = 0;
            for at in 0..spans.len() {
                let span = spans[at];
                let Some(&Class { leader, link, .. }) = classes.get(span.class) else {
                    // A victim.
                    continue;
                };
                if link == NONE {
                    for id in (span.lo..span.hi).filter(|&id| id != leader) {
                        outcomes[id] = outcomes[leader].clone();
                    }
                    continue;
                }
                match kept.checked_sub(1).map(|last| &mut spans[last]) {
                    Some(last) if last.class == link && last.hi == span.lo => last.hi = span.hi,
                    _ => {
                        spans[kept] = Span {
                            class: link,
                            sent: link,
                            ..span
                        };
                        kept += 1;
                    }
                }
            }
            spans.truncate(kept);
            std::mem::swap(&mut classes, &mut spare);
            live = classes.iter().map(|class| class.size as usize).sum();
        }
        record_round(round_started);
    }

    Tables {
        crashes,
        spans,
        classes,
        spare,
    }
    .keep();
    if obs_on {
        engine_metrics().messages_delivered.add(messages_delivered);
    }
    if outcomes.iter().any(|o| o.is_none()) {
        return Err(EngineError::RoundLimitExceeded { limit: max_rounds });
    }
    let outcomes = outcomes
        .into_iter()
        .map(|o| o.expect("checked above"))
        .collect();
    Ok(Trace::new(outcomes, rounds_executed, messages_delivered))
}

/// A letter of the fault-composed loop: where its message sits in the
/// ring of recent `sends` arrays. `Copy`, so duplicating or stashing a
/// letter neither clones the message nor counts a reference to it.
#[derive(Debug, Clone, Copy)]
struct Letter {
    slot: usize,
    index: usize,
}

/// How many of the round's `sends` reach `recipient` — every one but a
/// crashing sender's whose broadcast stopped short of it.
fn accepted_by<M, D: DeliveryPolicy>(
    recipient: ProcessId,
    round: usize,
    sends: &[(usize, M, bool)],
    policy: &D,
) -> i64 {
    sends
        .iter()
        .filter(|&&(sender, _, crashing_now)| {
            !crashing_now
                || policy.delivers_while_crashing(ProcessId::new(sender), round, recipient)
        })
        .count() as i64
}

/// One live recipient's receive phase of the fault-composed loop:
/// streams the round's accepted `sends` (those of `ring[slot]`) through
/// the recipient's inbox, as its row of fates decides them, into
/// `process`, and returns the delivered count they add up to — accepted
/// deliveries plus the plan's adjustment. The other slots of `ring` are
/// the `sends` of the earlier rounds a due letter can still point into.
/// `order_blind`: the round folds, so the inbox is not shuffled.
///
/// Out of line for the reason [`receive_round`] is.
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn receive_round_faulty<P: SyncProtocol, D: DeliveryPolicy>(
    process: &mut P,
    inbox: &mut FaultInbox<Letter>,
    round: usize,
    ring: &[Vec<(usize, P::Msg, bool)>],
    slot: usize,
    fates: Option<&[u8]>,
    order_blind: bool,
    policy: &D,
    scratch: &mut Vec<(ProcessId, Letter)>,
) -> i64 {
    let recipient = inbox.me();
    let sends = &ring[slot];
    // Counted where a send is turned away, the one branch that is cold.
    let mut rejected = 0;
    let arrivals = sends
        .iter()
        .enumerate()
        .filter_map(|(index, &(sender, _, crashing_now))| {
            let sender = ProcessId::new(sender);
            if crashing_now && !policy.delivers_while_crashing(sender, round, recipient) {
                rejected += 1;
                return None;
            }
            Some((sender, Letter { slot, index }))
        });
    let adjust = inbox.deliver(
        round,
        fates,
        order_blind,
        arrivals,
        scratch,
        |from, letter| process.receive(round, from, &ring[letter.slot][letter.index].1),
    );
    sends.len() as i64 - rejected + adjust
}

/// The fault-composed round loop: recipient-major like the plain one,
/// every inbox streamed through [`FaultInbox::deliver`] — the benign
/// plan included, so its identity with the plain loop is a property of
/// the machinery and not of a short-circuit.
///
/// A letter is a [`Letter`] handle into a ring of `sends` arrays, one
/// slot per round a message can still be waited for: a delayed letter
/// keeps its original message alive by the slot not being reused yet,
/// so messages are neither cloned nor reference-counted. The ring has
/// one slot when the plan delays nothing, otherwise
/// `min(max_delay, max_rounds − 1) + 1`, each created the first time a
/// round maps to it.
///
/// No link is decided here: each recipient reads its row of the plan's
/// [`LinkFates`], taken before round 1 from the thread's kept table when
/// the plan is the one the thread ran last, and handed back after the
/// last round — so a sweep decides its plan's links once per worker.
///
/// Delivery counting matches the node mesh's discipline exactly, so
/// faulty simulator traces are byte-identical to faulty loopback traces:
///
/// * a delivery is counted when the sender's broadcast *accepts* it
///   (every unsettled in-prefix recipient), before any link fault —
///   the mesh counts sends into a channel;
/// * drops then subtract and duplicates add at the live recipient's
///   collect ([`FaultInbox::deliver`]'s adjustment); delays adjust
///   nothing (counted at the accepting broadcast, delivered later — or
///   never, if the recipient has decided or crashed by then);
/// * a recipient crashing *this* round never collects — it draws no
///   decision and its stash is lost, but its accepted deliveries stay
///   counted, exactly like a loopback victim departing with an undrained
///   channel.
pub(crate) fn run_with_policy_faulty<P: SyncProtocol, D: DeliveryPolicy>(
    processes: Vec<P>,
    policy: &D,
    plan: &FaultPlan,
    max_rounds: usize,
) -> Result<Trace<P::Output>, EngineError> {
    let n = processes.len();
    if n != policy.system_size() {
        return Err(EngineError::SystemSizeMismatch {
            processes: n,
            pattern: policy.system_size(),
        });
    }
    if n != plan.n() {
        return Err(EngineError::SystemSizeMismatch {
            processes: n,
            pattern: plan.n(),
        });
    }

    let mut procs = processes;
    let mut outcomes: Vec<Option<Outcome<P::Output>>> = (0..n).map(|_| None).collect();
    let mut inboxes: Vec<FaultInbox<Letter>> = (0..n)
        .map(|i| FaultInbox::new(plan.clone(), ProcessId::new(i)))
        .collect();
    let mut delivered: i64 = 0;
    let mut rounds_executed = 0;
    let obs_on = setagree_obs::enabled();
    // Sized once and cleared per round, as in the plain loop, after the
    // same per-run crash table; so is each ring slot, in the first round
    // that maps to it.
    let crash_rounds = crash_rounds(policy);
    let mut active: Vec<usize> = Vec::with_capacity(n);
    let mut fates = LinkFates::for_run(plan, max_rounds);
    // An inbox that reorders holds the round's arrivals — twice over if
    // all are duplicated — and what was stashed for it.
    let mut scratch: Vec<(ProcessId, Letter)> = Vec::with_capacity(2 * n);
    let ring_len = plan.longest_delay().min(max_rounds.saturating_sub(1)) + 1;
    let mut ring: Vec<Vec<(usize, P::Msg, bool)>> = Vec::new();

    for round in 1..=max_rounds {
        active.clear();
        active.extend((0..n).filter(|&i| outcomes[i].is_none()));
        if active.is_empty() {
            break;
        }
        rounds_executed = round;
        let round_started = obs_on.then(Instant::now);

        // Send phase, into this round's slot — whose previous tenants no
        // letter can be waiting for any more.
        let slot = (round - 1) % ring_len;
        if slot == ring.len() {
            ring.push(Vec::with_capacity(n));
        }
        ring[slot].clear();
        for &i in &active {
            ring[slot].push((i, procs[i].message(round), crash_rounds[i] == round));
        }
        fates.enter(round);

        // Receive phase. Every active process sent, so `sends` lines up
        // with `active`. A victim of this round departs without
        // collecting its crash-round inbox, and before the compute phase.
        // A round that folds is order-blind (*Folded rounds*): its
        // inboxes skip the reorder draw and the shuffle. Asked only when
        // the plan reorders, so no other plan pays for the fold.
        let sends = &ring[slot];
        let order_blind = plan.reorders() && {
            let mut steady = sends
                .iter()
                .filter(|&&(_, _, crashing_now)| !crashing_now)
                .map(|&(sender, ref msg, _)| (ProcessId::new(sender), msg));
            P::fold(round, &mut steady).is_some()
        };
        for (&i, &(_, _, crashing_now)) in active.iter().zip(sends) {
            if crashing_now {
                delivered += accepted_by(ProcessId::new(i), round, sends, policy);
                outcomes[i] = Some(Outcome::Crashed { round });
            } else {
                delivered += receive_round_faulty(
                    &mut procs[i],
                    &mut inboxes[i],
                    round,
                    &ring,
                    slot,
                    fates.row(round, ProcessId::new(i)),
                    order_blind,
                    policy,
                    &mut scratch,
                );
            }
        }

        // Compute phase.
        for &i in &active {
            if outcomes[i].is_some() {
                continue;
            }
            if let Step::Decide(value) = procs[i].compute(round) {
                outcomes[i] = Some(Outcome::Decided { value, round });
            }
        }
        record_round(round_started);
    }
    fates.keep();

    if obs_on {
        engine_metrics()
            .messages_delivered
            .add(delivered.max(0) as u64);
    }
    if outcomes.iter().any(|o| o.is_none()) {
        return Err(EngineError::RoundLimitExceeded { limit: max_rounds });
    }
    let outcomes = outcomes
        .into_iter()
        .map(|o| o.expect("checked above"))
        .collect();
    debug_assert!(delivered >= 0, "drops only subtract accepted deliveries");
    Ok(Trace::new(
        outcomes,
        rounds_executed,
        delivered.max(0) as u64,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::CrashSpec;
    use setagree_types::View;

    /// Test protocol: floods the set of known inputs for `rounds` rounds,
    /// then decides the full view it assembled (exposes delivery order and
    /// prefix semantics to the tests).
    #[derive(Debug)]
    struct Flood {
        rounds: usize,
        view: View<u32>,
    }

    impl Flood {
        fn new(me: usize, n: usize, input: u32, rounds: usize) -> Self {
            let mut view = View::all_bottom(n);
            view.set(ProcessId::new(me), input);
            Flood { rounds, view }
        }
    }

    impl SyncProtocol for Flood {
        type Msg = View<u32>;
        type Output = View<u32>;

        fn message(&mut self, _round: usize) -> View<u32> {
            self.view.clone()
        }

        fn receive(&mut self, _round: usize, _from: ProcessId, msg: &View<u32>) {
            self.view.merge_from(msg);
        }

        fn compute(&mut self, round: usize) -> Step<View<u32>> {
            if round >= self.rounds {
                Step::Decide(self.view.clone())
            } else {
                Step::Continue
            }
        }
    }

    fn flood_system(n: usize, rounds: usize) -> Vec<Flood> {
        (0..n)
            .map(|i| Flood::new(i, n, (i + 1) as u32, rounds))
            .collect()
    }

    #[test]
    fn failure_free_round_one_views_are_full() {
        let trace = run_protocol(flood_system(4, 1), &FailurePattern::none(4), 5).unwrap();
        for o in trace.outcomes() {
            let view = o.decided_value().unwrap();
            assert_eq!(view.count_bottom(), 0);
        }
        assert_eq!(trace.rounds_executed(), 1);
        // 4 senders × 4 recipients.
        assert_eq!(trace.messages_delivered(), 16);
    }

    #[test]
    fn initial_crash_leaves_bottom_entry() {
        let pattern = FailurePattern::initial(4, [ProcessId::new(2)]).unwrap();
        let trace = run_protocol(flood_system(4, 1), &pattern, 5).unwrap();
        for (i, o) in trace.outcomes().iter().enumerate() {
            if i == 2 {
                assert!(o.is_crashed());
                continue;
            }
            let view = o.decided_value().unwrap();
            assert_eq!(view.get(ProcessId::new(2)), None, "p3 never spoke");
            assert_eq!(view.count_bottom(), 1);
        }
    }

    #[test]
    fn prefix_crash_delivers_to_prefix_only() {
        // p1 crashes in round 1 after reaching p1 and p2.
        let mut pattern = FailurePattern::none(4);
        pattern
            .crash(ProcessId::new(0), CrashSpec::new(1, 2))
            .unwrap();
        let trace = run_protocol(flood_system(4, 1), &pattern, 5).unwrap();
        // p2 heard p1's input (prefix includes index 1)…
        let v2 = trace.outcome(ProcessId::new(1)).decided_value().unwrap();
        assert_eq!(v2.get(ProcessId::new(0)), Some(&1));
        // …but p3 and p4 did not.
        for i in [2, 3] {
            let v = trace.outcome(ProcessId::new(i)).decided_value().unwrap();
            assert_eq!(v.get(ProcessId::new(0)), None);
        }
    }

    #[test]
    fn round_one_views_are_ordered_by_containment() {
        // The paper's key structural property under ordered sends: any two
        // round-1 views are comparable. Exercise several prefixes at once.
        let mut pattern = FailurePattern::none(5);
        pattern
            .crash(ProcessId::new(0), CrashSpec::new(1, 1))
            .unwrap();
        pattern
            .crash(ProcessId::new(4), CrashSpec::new(1, 3))
            .unwrap();
        let trace = run_protocol(flood_system(5, 1), &pattern, 5).unwrap();
        let views: Vec<View<u32>> = trace
            .outcomes()
            .iter()
            .filter_map(|o| o.decided_value().cloned())
            .collect();
        for a in &views {
            for b in &views {
                assert!(
                    a.is_contained_in(b) || b.is_contained_in(a),
                    "round-1 views must form a containment chain: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn crash_in_later_round_stops_participation() {
        let mut pattern = FailurePattern::none(3);
        pattern
            .crash(ProcessId::new(1), CrashSpec::new(2, 0))
            .unwrap();
        let trace = run_protocol(flood_system(3, 3), &pattern, 5).unwrap();
        assert!(trace.outcome(ProcessId::new(1)).is_crashed());
        assert_eq!(trace.outcome(ProcessId::new(1)).decision_round(), None);
        // Others still decide at round 3.
        assert_eq!(trace.outcome(ProcessId::new(0)).decision_round(), Some(3));
    }

    #[test]
    fn decided_process_stops_sending() {
        /// Decides in round 1, while others flood for 2 rounds; a decided
        /// process must not contribute round-2 messages.
        #[derive(Debug)]
        struct CountRecv {
            quit_early: bool,
            round2_msgs: usize,
        }
        impl SyncProtocol for CountRecv {
            type Msg = ();
            type Output = usize;
            fn message(&mut self, _round: usize) {}
            fn receive(&mut self, round: usize, _from: ProcessId, _msg: &()) {
                if round == 2 {
                    self.round2_msgs += 1;
                }
            }
            fn compute(&mut self, round: usize) -> Step<usize> {
                if self.quit_early || round == 2 {
                    Step::Decide(self.round2_msgs)
                } else {
                    Step::Continue
                }
            }
        }
        let procs = vec![
            CountRecv {
                quit_early: true,
                round2_msgs: 0,
            },
            CountRecv {
                quit_early: false,
                round2_msgs: 0,
            },
            CountRecv {
                quit_early: false,
                round2_msgs: 0,
            },
        ];
        let trace = run_protocol(procs, &FailurePattern::none(3), 5).unwrap();
        // p1 decided in round 1; p2 and p3 receive only each other in round 2.
        assert_eq!(
            *trace.outcome(ProcessId::new(1)).decided_value().unwrap(),
            2
        );
        assert_eq!(
            *trace.outcome(ProcessId::new(2)).decided_value().unwrap(),
            2
        );
    }

    #[test]
    fn round_limit_is_reported() {
        /// Never decides.
        #[derive(Debug)]
        struct Stubborn;
        impl SyncProtocol for Stubborn {
            type Msg = ();
            type Output = u32;
            fn message(&mut self, _round: usize) {}
            fn receive(&mut self, _round: usize, _from: ProcessId, _msg: &()) {}
            fn compute(&mut self, _round: usize) -> Step<u32> {
                Step::Continue
            }
        }
        let err = run_protocol(vec![Stubborn, Stubborn], &FailurePattern::none(2), 3).unwrap_err();
        assert_eq!(err, EngineError::RoundLimitExceeded { limit: 3 });
    }

    #[test]
    fn system_size_mismatch_is_reported() {
        let err = run_protocol(flood_system(3, 1), &FailurePattern::none(4), 3).unwrap_err();
        assert_eq!(
            err,
            EngineError::SystemSizeMismatch {
                processes: 3,
                pattern: 4
            }
        );
    }

    #[test]
    fn everyone_crashed_terminates_cleanly() {
        // All but one crash initially; the survivor decides alone.
        let pattern = FailurePattern::initial(3, [ProcessId::new(0), ProcessId::new(1)]).unwrap();
        let trace = run_protocol(flood_system(3, 1), &pattern, 5).unwrap();
        assert_eq!(trace.crashed_count(), 2);
        assert_eq!(trace.decided_count(), 1);
        let view = trace.outcome(ProcessId::new(2)).decided_value().unwrap();
        assert_eq!(view.count_bottom(), 2);
    }

    #[test]
    fn deterministic_replay() {
        let mut pattern = FailurePattern::none(4);
        pattern
            .crash(ProcessId::new(3), CrashSpec::new(1, 2))
            .unwrap();
        let a = run_protocol(flood_system(4, 2), &pattern, 5).unwrap();
        let b = run_protocol(flood_system(4, 2), &pattern, 5).unwrap();
        assert_eq!(a, b);
    }

    /// Decides the calls it was handed: every `receive` as `(round,
    /// from)` and every `receive_folded` as `(round, count)`. Folds every
    /// batch that is not empty when `FOLDS`, declines like any protocol
    /// that overrides nothing otherwise.
    #[derive(Debug, Default)]
    struct CallLog<const FOLDS: bool> {
        received: Vec<(usize, usize)>,
        folded: Vec<(usize, usize)>,
    }

    impl<const FOLDS: bool> SyncProtocol for CallLog<FOLDS> {
        type Msg = ();
        type Output = (Vec<(usize, usize)>, Vec<(usize, usize)>);

        fn message(&mut self, _round: usize) {}

        fn receive(&mut self, round: usize, from: ProcessId, _msg: &()) {
            self.received.push((round, from.index()));
        }

        fn fold(_round: usize, batch: &mut dyn Iterator<Item = (ProcessId, &())>) -> Option<()> {
            (FOLDS && batch.next().is_some()).then_some(())
        }

        fn receive_folded(&mut self, round: usize, count: usize, _folded: &()) {
            assert!(FOLDS, "a protocol that declines is never handed a fold");
            self.folded.push((round, count));
        }

        fn compute(&mut self, round: usize) -> Step<Self::Output> {
            if round >= 3 {
                Step::Decide((self.received.clone(), self.folded.clone()))
            } else {
                Step::Continue
            }
        }
    }

    fn call_logs<const FOLDS: bool>(n: usize) -> Vec<CallLog<FOLDS>> {
        (0..n).map(|_| CallLog::default()).collect()
    }

    /// p1 crashes in round 1 reaching p1..p3, p5 in round 2 reaching
    /// nobody and p3 in round 2 reaching everybody (itself included).
    fn three_crashes() -> FailurePattern {
        let mut pattern = FailurePattern::none(6);
        for (victim, round, prefix) in [(0, 1, 3), (4, 2, 0), (2, 2, 6)] {
            pattern
                .crash(ProcessId::new(victim), CrashSpec::new(round, prefix))
                .unwrap();
        }
        pattern
    }

    #[test]
    fn a_folding_protocol_receives_per_message_only_what_a_crash_delivers() {
        let trace = run_protocol(call_logs::<true>(6), &three_crashes(), 5).unwrap();
        let log_of = |i: usize| trace.outcome(ProcessId::new(i)).decided_value().unwrap();
        // One fold per recipient and round, of that round's senders that
        // are not crashing in it: 5 of 6, 3 of 5, 3 of 3.
        for i in [1, 3, 5] {
            assert_eq!(log_of(i).1, [(1, 5), (2, 3), (3, 3)], "p{}", i + 1);
        }
        // `receive` only for a crashing sender's broadcast, after the
        // fold and in sender order: p1's reached p2, not p4 or p6; p3's
        // reached everyone; p5's nobody.
        assert_eq!(log_of(1).0, [(1, 0), (2, 2)]);
        assert_eq!(log_of(3).0, [(2, 2)]);
        assert_eq!(log_of(5).0, [(2, 2)]);

        // The count is the per-message loop's: a fold of m counts m.
        let reference = run_protocol(call_logs::<false>(6), &three_crashes(), 5).unwrap();
        assert_eq!(trace.messages_delivered(), reference.messages_delivered());
        assert_eq!(
            trace.messages_delivered(),
            (5 * 6 + 3) + (3 * 5 + 5) + 3 * 3
        );
    }

    #[test]
    fn a_declining_protocol_is_never_handed_a_fold() {
        // `receive_folded` asserts it; the logs say what happened instead.
        let trace = run_protocol(call_logs::<false>(6), &three_crashes(), 5).unwrap();
        let (received, folded) = trace.outcome(ProcessId::new(3)).decided_value().unwrap();
        assert!(folded.is_empty());
        assert_eq!(
            received[..],
            [
                (1, 1),
                (1, 2),
                (1, 3),
                (1, 4),
                (1, 5),
                (2, 1),
                (2, 2),
                (2, 3),
                (2, 5),
                (3, 1),
                (3, 3),
                (3, 5)
            ]
        );
    }

    #[test]
    fn a_round_in_which_every_sender_crashes_is_delivered_per_message() {
        // Both processes crash in round 1: nothing steady to fold, and a
        // victim still receives what reached it before it is gone.
        let mut pattern = FailurePattern::none(2);
        pattern
            .crash(ProcessId::new(0), CrashSpec::new(1, 2))
            .unwrap();
        pattern
            .crash(ProcessId::new(1), CrashSpec::new(1, 1))
            .unwrap();
        let trace = run_protocol(call_logs::<true>(2), &pattern, 5).unwrap();
        assert_eq!(trace.crashed_count(), 2);
        assert_eq!(trace.messages_delivered(), 2 + 1);
    }

    thread_local! {
        /// Every `receive`, every `adopt` offer and every `catch_up` made
        /// to an [`AdoptLog`] on this thread, as `(round, me, from)`,
        /// `(round, me, twin)` and `(me, leader)`: test instrumentation,
        /// read by no process.
        static RECEIVES: std::cell::RefCell<Vec<(usize, usize, usize)>> =
            const { std::cell::RefCell::new(Vec::new()) };
        static OFFERS: std::cell::RefCell<Vec<(usize, usize, usize)>> =
            const { std::cell::RefCell::new(Vec::new()) };
        static CATCH_UPS: std::cell::RefCell<Vec<(usize, usize)>> =
            const { std::cell::RefCell::new(Vec::new()) };
    }

    /// Decides, in round 3, the `(round, from)` of every message it
    /// received. When `ADOPTS` it adopts whenever its log so far is the
    /// twin's, by taking over the twin's receipts of the round — the law
    /// for a log: from there on the two log and decide alike. Otherwise
    /// it declines, like any protocol that overrides nothing. When
    /// `FOLLOWS` it catches up by copying the leader's log, which is all
    /// a later call observes; otherwise it declines and runs on its own.
    #[derive(Debug)]
    struct AdoptLog<const ADOPTS: bool, const FOLLOWS: bool = false> {
        me: usize,
        received: Vec<(usize, usize)>,
    }

    impl<const ADOPTS: bool, const FOLLOWS: bool> SyncProtocol for AdoptLog<ADOPTS, FOLLOWS> {
        type Msg = ();
        type Output = Vec<(usize, usize)>;

        fn message(&mut self, _round: usize) {}

        fn receive(&mut self, round: usize, from: ProcessId, _msg: &()) {
            RECEIVES.with_borrow_mut(|log| log.push((round, self.me, from.index())));
            self.received.push((round, from.index()));
        }

        fn adopt(&mut self, round: usize, twin: &Self) -> bool {
            OFFERS.with_borrow_mut(|log| log.push((round, self.me, twin.me)));
            let (before, of_round) = twin
                .received
                .split_at(twin.received.partition_point(|&(r, _)| r < round));
            if !ADOPTS || before != self.received {
                return false;
            }
            self.received.extend_from_slice(of_round);
            true
        }

        fn catch_up(&mut self, leader: &Self) -> bool {
            CATCH_UPS.with_borrow_mut(|log| log.push((self.me, leader.me)));
            if FOLLOWS {
                self.received.clone_from(&leader.received);
            }
            FOLLOWS
        }

        fn compute(&mut self, round: usize) -> Step<Self::Output> {
            if round >= 3 {
                Step::Decide(self.received.clone())
            } else {
                Step::Continue
            }
        }
    }

    /// What [`adopt_logs`] returns: the trace, and the receives, offers
    /// and catch-ups made.
    type Logged = (
        Trace<Vec<(usize, usize)>>,
        Vec<(usize, usize, usize)>,
        Vec<(usize, usize, usize)>,
        Vec<(usize, usize)>,
    );

    /// Runs `n` [`AdoptLog`]s under the pattern with the logs cleared
    /// first, and returns the trace with the receives, offers and
    /// catch-ups made.
    fn adopt_logs<const ADOPTS: bool, const FOLLOWS: bool>(
        n: usize,
        pattern: &FailurePattern,
    ) -> Logged {
        RECEIVES.with_borrow_mut(Vec::clear);
        OFFERS.with_borrow_mut(Vec::clear);
        CATCH_UPS.with_borrow_mut(Vec::clear);
        let procs = (0..n)
            .map(|me| AdoptLog::<ADOPTS, FOLLOWS> {
                me,
                received: Vec::new(),
            })
            .collect();
        let trace = run_protocol(procs, pattern, 5).unwrap();
        (
            trace,
            RECEIVES.with_borrow_mut(std::mem::take),
            OFFERS.with_borrow_mut(std::mem::take),
            CATCH_UPS.with_borrow_mut(std::mem::take),
        )
    }

    fn pattern_of(
        n: usize,
        crashes: impl IntoIterator<Item = (usize, usize, usize)>,
    ) -> FailurePattern {
        let mut pattern = FailurePattern::none(n);
        for (victim, round, prefix) in crashes {
            pattern
                .crash(ProcessId::new(victim), CrashSpec::new(round, prefix))
                .unwrap();
        }
        pattern
    }

    /// The processes that `receive`d in `round`, ascending.
    fn receivers(receives: &[(usize, usize, usize)], round: usize) -> Vec<usize> {
        let mut who: Vec<usize> = receives
            .iter()
            .filter(|&&(r, _, _)| r == round)
            .map(|&(_, me, _)| me)
            .collect();
        who.dedup();
        who
    }

    #[test]
    fn a_representative_receives_per_message_and_each_twin_adopts_once() {
        // p1 crashes in round 1 reaching p1..p3: p2 and p3 form one reach
        // class, p4..p6 the other. Rounds 2 and 3 lose nobody. The logs
        // decline `catch_up`, so every class stays a singleton and each
        // process is offered, round by round, the first leader that was
        // reached as it was.
        let pattern = pattern_of(6, [(0, 1, 3)]);
        let (trace, receives, offers, catch_ups) = adopt_logs::<true, false>(6, &pattern);
        // Round 1: one representative per class receives, everything that
        // reached it, in sender order; the victim is counted, not served.
        assert_eq!(receivers(&receives, 1), [1, 3]);
        let of = |me: usize| -> Vec<usize> {
            receives
                .iter()
                .filter(|&&(r, who, _)| r == 1 && who == me)
                .map(|&(_, _, from)| from)
                .collect()
        };
        assert_eq!(of(1), [0, 1, 2, 3, 4, 5]);
        assert_eq!(of(3), [1, 2, 3, 4, 5]);
        // Every other survivor is offered its class's representative,
        // once a round. From round 2 on all survivors are reached alike,
        // but only p3 has p2's history: p4..p6 decline and receive.
        assert_eq!(
            offers,
            [
                (1, 2, 1),
                (1, 4, 3),
                (1, 5, 3),
                (2, 2, 1),
                (2, 3, 1),
                (2, 4, 1),
                (2, 5, 1),
                (3, 2, 1),
                (3, 3, 1),
                (3, 4, 1),
                (3, 5, 1)
            ]
        );
        assert_eq!(receivers(&receives, 2), [1, 3, 4, 5]);
        // The first adopter was asked to catch up, declined, and so
        // answered for the whole run.
        assert_eq!(catch_ups, [(2, 1)]);
        // The trace is the per-message loop's, count included.
        let (reference, all_receive, _, _) = adopt_logs::<false, false>(6, &pattern);
        assert_eq!(trace, reference);
        assert_eq!(receivers(&all_receive, 2), [1, 2, 3, 4, 5]);
        assert_eq!(trace.messages_delivered(), (5 * 6 + 3) + 5 * 5 + 5 * 5);
    }

    #[test]
    fn a_victim_between_two_twins_neither_adopts_nor_represents() {
        // In round 1 p1 crashes reaching nobody and p4 reaching everybody:
        // every survivor is reached alike, and p4 sits between p3 and p5.
        let pattern = pattern_of(6, [(0, 1, 0), (3, 1, 6)]);
        let (trace, receives, offers, _) = adopt_logs::<true, false>(6, &pattern);
        let round_one: Vec<_> = offers.iter().filter(|&&(r, _, _)| r == 1).collect();
        assert_eq!(round_one, [&(1, 2, 1), &(1, 4, 1), &(1, 5, 1)]);
        // The victims are counted, never served: only p2 receives.
        assert_eq!(receivers(&receives, 1), [1]);
        assert!(trace.outcome(ProcessId::new(3)).is_crashed());
        let (reference, _, _, _) = adopt_logs::<false, false>(6, &pattern);
        assert_eq!(trace, reference);
        // Each victim heard p2 to p6, and p4 heard itself too.
        assert_eq!(trace.messages_delivered(), (4 + 1) * 6 + 4 * 4 + 4 * 4);
    }

    #[test]
    fn a_declining_adopt_falls_back_with_identical_counts() {
        let (declining, receives, offers, _) = adopt_logs::<false, false>(6, &three_crashes());
        // Offered as often as an adopting protocol is, and every offer
        // declined: every survivor received per message, every round.
        let (adopting, _, adopted, _) = adopt_logs::<true, false>(6, &three_crashes());
        assert_eq!(offers, adopted);
        assert!(!offers.is_empty());
        assert_eq!(receivers(&receives, 1), [1, 2, 3, 4, 5]);
        assert_eq!(declining, adopting);
        // The count of the folding and of the per-message loop alike.
        let per_message = run_protocol(call_logs::<false>(6), &three_crashes(), 5).unwrap();
        assert_eq!(
            declining.messages_delivered(),
            per_message.messages_delivered()
        );
    }

    #[test]
    fn a_round_with_more_crashers_than_signature_bits_groups_nothing() {
        // 65 of 70 processes crash in round 1, each reaching nobody: the
        // five survivors are reached alike, but a `u64` cannot say so.
        let silent = |crashers: usize| pattern_of(70, (0..crashers).map(|i| (i, 1, 0)));
        let (trace, receives, offers, _) = adopt_logs::<true, false>(70, &silent(65));
        assert!(offers.iter().all(|&(r, _, _)| r > 1), "round 1 grouped");
        assert_eq!(receivers(&receives, 1), (65..70).collect::<Vec<_>>());
        let (reference, _, _, _) = adopt_logs::<false, false>(70, &silent(65));
        assert_eq!(trace, reference);
        // At 64 crashers the signature holds them all, and round 1 groups
        // the six survivors: one representative, five offers.
        let (_, _, offers, _) = adopt_logs::<true, false>(70, &silent(64));
        assert_eq!(offers.iter().filter(|&&(r, _, _)| r == 1).count(), 5);
    }

    #[test]
    fn a_follower_is_called_no_more_until_a_crash_splits_its_class() {
        // Round 1 loses nobody: p1 receives, p2..p6 adopt, one class —
        // p2's catch-up, the first join's, answers for the run. In round 2 its leader p1 crashes reaching p1..p3:
        // the class splits into p2–p3 and p4–p6, each part's leader
        // caught up with p1 before p1's round, and p1 counted, not
        // served. In round 3 p4 is reached as p2 is, but its history
        // differs: it declines, receives, and the parts stay apart.
        let pattern = pattern_of(6, [(0, 2, 3)]);
        let (trace, receives, offers, catch_ups) = adopt_logs::<true, true>(6, &pattern);
        assert_eq!(receivers(&receives, 1), [0]);
        assert_eq!(receivers(&receives, 2), [1, 3]);
        assert_eq!(receivers(&receives, 3), [1, 3]);
        assert_eq!(
            offers,
            [
                (1, 1, 0),
                (1, 2, 0),
                (1, 3, 0),
                (1, 4, 0),
                (1, 5, 0),
                (3, 3, 1)
            ]
        );
        assert_eq!(catch_ups, [(1, 0), (1, 0), (3, 0)]);
        // Outcomes and counts are expanded per member: the per-message
        // loop's trace, bit for bit.
        let (reference, _, _, _) = adopt_logs::<false, false>(6, &pattern);
        assert_eq!(trace, reference);
        assert_eq!(trace.messages_delivered(), 6 * 6 + (6 * 5 + 3) + 5 * 5);
    }

    #[test]
    fn a_round_with_more_crashers_than_signature_bits_dissolves_the_classes() {
        // Round 1 loses nobody: one class of 70. In round 2, 65 of them
        // crash reaching nobody: every survivor is caught up with the
        // leader and served on its own, and none is offered a twin. In
        // round 3 the five are reached alike again: they rejoin.
        let pattern = pattern_of(70, (0..65).map(|i| (i, 2, 0)));
        let (trace, receives, offers, catch_ups) = adopt_logs::<true, true>(70, &pattern);
        assert_eq!(receivers(&receives, 2), (65..70).collect::<Vec<_>>());
        assert!(offers.iter().all(|&(r, _, _)| r != 2), "round 2 grouped");
        let leaving: Vec<_> = (65..70).map(|me| (me, 0)).collect();
        assert_eq!(catch_ups[1..], leaving);
        assert_eq!(receivers(&receives, 3), [65]);
        let (reference, _, _, _) = adopt_logs::<false, false>(70, &pattern);
        assert_eq!(trace, reference);
    }

    #[test]
    fn benign_plan_is_trace_identical_to_the_plain_path() {
        use crate::fault::FaultPlan;
        let mut pattern = FailurePattern::none(5);
        pattern
            .crash(ProcessId::new(0), CrashSpec::new(1, 2))
            .unwrap();
        pattern
            .crash(ProcessId::new(4), CrashSpec::new(2, 0))
            .unwrap();
        let plain = run_protocol(flood_system(5, 3), &pattern, 10).unwrap();
        let faulty =
            run_protocol_faulty(flood_system(5, 3), &pattern, &FaultPlan::none(5), 10).unwrap();
        assert_eq!(plain, faulty);
    }

    #[test]
    fn dropped_links_lose_exactly_their_messages() {
        use crate::fault::FaultPlan;
        // Every peer link drops: each process only ever sees its own
        // input, and the delivered count collapses to self-deliveries.
        let plan = FaultPlan::new(3, 1).drop_rate(crate::fault::RATE_SCALE);
        let trace =
            run_protocol_faulty(flood_system(3, 1), &FailurePattern::none(3), &plan, 5).unwrap();
        for (i, o) in trace.outcomes().iter().enumerate() {
            let view = o.decided_value().unwrap();
            assert_eq!(view.count_bottom(), 2, "p{i} heard only itself");
        }
        assert_eq!(trace.messages_delivered(), 3);
    }

    #[test]
    fn duplicated_links_double_the_delivered_count() {
        use crate::fault::FaultPlan;
        let plan = FaultPlan::new(3, 1).duplicate_rate(crate::fault::RATE_SCALE);
        let trace =
            run_protocol_faulty(flood_system(3, 1), &FailurePattern::none(3), &plan, 5).unwrap();
        // 3 self-deliveries + 6 peer links delivered twice each.
        assert_eq!(trace.messages_delivered(), 15);
        for o in trace.outcomes() {
            assert_eq!(o.decided_value().unwrap().count_bottom(), 0);
        }
    }

    #[test]
    fn delayed_messages_arrive_in_a_later_round() {
        use crate::fault::FaultPlan;
        // All peer messages delayed by exactly one round: a two-round
        // flood still assembles every input (round-1 messages arrive at
        // round 2), so views are full even though round-1 views are not.
        let plan = FaultPlan::new(4, 3).delay_rate(crate::fault::RATE_SCALE, 1);
        let trace =
            run_protocol_faulty(flood_system(4, 2), &FailurePattern::none(4), &plan, 5).unwrap();
        for o in trace.outcomes() {
            assert_eq!(o.decided_value().unwrap().count_bottom(), 0);
        }
    }

    #[test]
    fn the_ring_is_sized_by_the_rounds_run_not_by_the_bounds_given() {
        use crate::fault::FaultPlan;
        // Every peer letter is delayed by up to `usize::MAX` rounds and
        // the run may take `usize::MAX` of them: a ring allocated up
        // front for either bound could not be. The flood decides in
        // round 2, each process having heard itself only.
        let plan = FaultPlan::new(3, 5).delay_rate(crate::fault::RATE_SCALE, usize::MAX);
        let trace = run_protocol_faulty(
            flood_system(3, 2),
            &FailurePattern::none(3),
            &plan,
            usize::MAX,
        )
        .unwrap();
        assert_eq!(trace.rounds_executed(), 2);
        // Delayed letters stay counted where their broadcast was accepted.
        assert_eq!(trace.messages_delivered(), 18);
        for o in trace.outcomes() {
            assert_eq!(o.decided_value().unwrap().count_bottom(), 2);
        }
    }

    #[test]
    fn faulty_plan_size_mismatch_is_reported() {
        use crate::fault::FaultPlan;
        let err = run_protocol_faulty(
            flood_system(3, 1),
            &FailurePattern::none(3),
            &FaultPlan::none(4),
            5,
        )
        .unwrap_err();
        assert_eq!(
            err,
            EngineError::SystemSizeMismatch {
                processes: 3,
                pattern: 4
            }
        );
    }

    #[test]
    fn faulty_replay_is_deterministic() {
        use crate::fault::FaultPlan;
        let plan = FaultPlan::new(4, 0xD1CE)
            .drop_rate(2000)
            .delay_rate(2000, 2)
            .duplicate_rate(1000)
            .reorder_rate(5000);
        let mut pattern = FailurePattern::none(4);
        pattern
            .crash(ProcessId::new(3), CrashSpec::new(2, 1))
            .unwrap();
        let a = run_protocol_faulty(flood_system(4, 3), &pattern, &plan, 10).unwrap();
        let b = run_protocol_faulty(flood_system(4, 3), &pattern, &plan, 10).unwrap();
        assert_eq!(a, b);
    }

    thread_local! {
        /// How many times [`OrderLog::fold`] was asked on this thread:
        /// test instrumentation, read by no process.
        static FOLDS_ASKED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    /// Decides, in round 4, the `(round, from)` of every message it
    /// received, in the order received. Folds every batch that is not
    /// empty in the even rounds, where its `receive` (an append) is
    /// declared blind to order though it is not; declines in the odd
    /// ones. The log therefore shows which rounds the loop shuffled.
    #[derive(Debug, Default)]
    struct OrderLog {
        received: Vec<(usize, usize)>,
    }

    impl SyncProtocol for OrderLog {
        type Msg = ();
        type Output = Vec<(usize, usize)>;

        fn message(&mut self, _round: usize) {}

        fn receive(&mut self, round: usize, from: ProcessId, _msg: &()) {
            self.received.push((round, from.index()));
        }

        fn fold(round: usize, batch: &mut dyn Iterator<Item = (ProcessId, &())>) -> Option<()> {
            FOLDS_ASKED.with(|asked| asked.set(asked.get() + 1));
            (round.is_multiple_of(2) && batch.next().is_some()).then_some(())
        }

        fn receive_folded(&mut self, _round: usize, _count: usize, _folded: &()) {
            unreachable!("the fault-composed loop delivers every letter through receive")
        }

        fn compute(&mut self, round: usize) -> Step<Self::Output> {
            if round >= 4 {
                Step::Decide(self.received.clone())
            } else {
                Step::Continue
            }
        }
    }

    /// Runs eight [`OrderLog`]s crash-free under `plan`, and returns the
    /// trace with the number of fold questions asked.
    fn order_logs(plan: &crate::fault::FaultPlan) -> (Trace<Vec<(usize, usize)>>, usize) {
        FOLDS_ASKED.with(|asked| asked.set(0));
        let procs = (0..8).map(|_| OrderLog::default()).collect();
        let trace = run_protocol_faulty(procs, &FailurePattern::none(8), plan, 5).unwrap();
        (trace, FOLDS_ASKED.with(std::cell::Cell::get))
    }

    #[test]
    fn a_round_that_folds_is_delivered_unshuffled_and_only_that_round() {
        use crate::fault::{FaultPlan, RATE_SCALE};
        // Every inbox of every round is drawn for a shuffle.
        let plan = FaultPlan::new(8, 0x0DE4).reorder_rate(RATE_SCALE);
        let (trace, asked) = order_logs(&plan);
        assert_eq!(asked, 4, "the fold is asked once a round");
        let mut shuffled = 0;
        for (i, outcome) in trace.outcomes().iter().enumerate() {
            let log = outcome.decided_value().unwrap();
            for round in 1..=4 {
                let got: Vec<usize> = log
                    .iter()
                    .filter(|&&(r, _)| r == round)
                    .map(|&(_, from)| from)
                    .collect();
                let mut expected: Vec<usize> = (0..8).collect();
                if !round.is_multiple_of(2) {
                    // Declined: the plan's permutation, as the node tier
                    // applies it.
                    plan.permute(round, ProcessId::new(i), &mut expected);
                    shuffled += usize::from(expected != (0..8).collect::<Vec<_>>());
                }
                assert_eq!(got, expected, "p{} round {round}", i + 1);
            }
        }
        assert!(
            shuffled > 0,
            "no declined inbox was shuffled: the test shows nothing"
        );
        // A plan that does not reorder asks nothing, and delivers in order.
        let (in_order, asked) = order_logs(&FaultPlan::none(8));
        assert_eq!(asked, 0, "a plan that does not reorder asks the fold");
        let ascending: Vec<(usize, usize)> = (1..=4)
            .flat_map(|round| (0..8).map(move |from| (round, from)))
            .collect();
        for outcome in in_order.outcomes() {
            assert_eq!(outcome.decided_value().unwrap(), &ascending);
        }
    }

    /// The thread keeps the fates of the plan it ran last, keyed by the
    /// whole plan: a plan with the same size and seed that differs in one
    /// rate, in its longest delay or in one partition is decided afresh,
    /// and so is the first plan when it comes back. Every run equals the
    /// same run on a new thread, whose slot is empty; each variant runs
    /// differently from the first plan, so a slot keyed by less than the
    /// whole plan would show.
    #[test]
    fn kept_fates_are_keyed_by_the_whole_plan() {
        use crate::fault::{FaultPlan, Partition};
        use setagree_types::ProcessSet;
        let a = FaultPlan::new(6, 0xA11)
            .drop_rate(1500)
            .delay_rate(3000, 1)
            .duplicate_rate(1500);
        let mut side = ProcessSet::empty(6);
        side.insert(ProcessId::new(0));
        side.insert(ProcessId::new(1));
        let variants = [
            a.clone().drop_rate(6000),
            a.clone().delay_rate(3000, 3),
            a.clone().partition(Partition::new(side, 1, 2)),
        ];
        // Each process's log of what it received, round by round.
        let run = |plan: &FaultPlan| {
            run_protocol_faulty(call_logs::<false>(6), &three_crashes(), plan, 10).unwrap()
        };
        let fresh = |plan: &FaultPlan| {
            let plan = plan.clone();
            std::thread::spawn(move || run(&plan)).join().unwrap()
        };
        let first = fresh(&a);
        for b in &variants {
            let other = fresh(b);
            assert_ne!(other, first, "{b} runs as {a} does: the test shows nothing");
            assert_eq!(run(&a), first, "{a}");
            assert_eq!(run(b), other, "{b} after {a}");
            assert_eq!(run(&a), first, "{a} after {b}");
        }
    }
}
