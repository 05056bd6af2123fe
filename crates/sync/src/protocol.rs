//! The protocol interface: what one process runs, round by round.

use std::fmt;

use setagree_types::ProcessId;

/// What a process does at the end of a round's compute phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Step<Out> {
    /// Proceed to the next round.
    Continue,
    /// Decide the value and stop participating (the paper's `return v`).
    ///
    /// The decision takes effect *after* this round's send phase — exactly
    /// like line 13/14 of Figure 2, where a process forwards its state and
    /// then returns.
    Decide(Out),
}

impl<Out> Step<Out> {
    /// Returns the decided value, if any.
    pub fn decided(self) -> Option<Out> {
        match self {
            Step::Continue => None,
            Step::Decide(v) => Some(v),
        }
    }
}

impl<Out: fmt::Display> fmt::Display for Step<Out> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Step::Continue => write!(f, "continue"),
            Step::Decide(v) => write!(f, "decide {v}"),
        }
    }
}

/// One process of a round-based synchronous protocol.
///
/// Each round the engine calls, in order:
///
/// 1. [`message`](SyncProtocol::message) — the broadcast payload for this
///    round (the model is broadcast-based: the same message goes to
///    `p_1, …, p_n` in that predetermined order, and a crash mid-send
///    delivers only a prefix);
/// 2. [`receive`](SyncProtocol::receive) — once per message delivered this
///    round, in sender order (a process always receives its own broadcast
///    unless it crashed before reaching itself in the send order); where
///    the protocol opted in (*Folded rounds* below), possibly one
///    [`receive_folded`](SyncProtocol::receive_folded) for many of them;
/// 3. [`compute`](SyncProtocol::compute) — local computation; returning
///    [`Step::Decide`] ends the process's participation.
///
/// Where the protocol opted in (*Adopted rounds* below), one
/// [`adopt`](SyncProtocol::adopt) may stand for steps 2 and 3 together.
///
/// Rounds are numbered from 1, matching the paper.
///
/// **Delivery order.** Within a round a process receives its messages in
/// ascending sender order, on every executor. How deliveries to
/// *different* processes interleave is unspecified (an executor may
/// serve one recipient's whole round before the next recipient's first
/// message, or go sender by sender, or run recipients on separate
/// threads), so the instances of one execution must share no state: a
/// process learns about the others only through `receive`.
///
/// **Folded rounds.** A broadcast from a sender that does not crash in
/// the round reaches every process, so `n` recipients whose `receive`
/// looks at neither the sender nor the order compute one and the same
/// fold `n` times. A protocol may say so, round by round, by overriding
/// [`fold`](SyncProtocol::fold) and
/// [`receive_folded`](SyncProtocol::receive_folded) together:
///
/// * **The law.** For every process state, round `r` and batch `B` of
///   round-`r` messages from distinct senders with
///   `fold(r, B) = Some(m)`: `receive_folded(r, |B|, &m)` leaves the
///   process exactly as `receive(r, from, msg)` over `B` in ascending
///   sender order would.
/// * Returning `Some` for a round is the protocol's declaration that its
///   `receive` in that round depends on neither sender identity nor
///   order. An executor *may* then combine the messages it would deliver
///   to a recipient in full into one and hand that over in a single
///   call, in place of their `receive`s and before the round's remaining
///   ones. [`run_protocol`](crate::run_protocol) and
///   [`run_protocol_unordered`](crate::run_protocol_unordered) do — each
///   round's broadcasts from the senders not crashing in it are folded
///   once, for all recipients. The fault-composed loops
///   ([`run_protocol_faulty`](crate::run_protocol_faulty) and its
///   unordered twin) read the declaration instead: in a round that
///   folds they skip the plan's inbox permutation, and still call
///   `receive` once per letter, since every recipient's links differ.
///   The threaded runtime and the node tier call `receive` only, and the
///   node tier's faulty transport permutes every round it draws.
/// * For every protocol, and every round, that declines — the provided
///   methods always do — ascending sender order stays the contract.
///
/// **Adopted rounds.** What a process makes of a round is often a
/// function of what it received in it (Figure 2's round 1: lines 5–8
/// read the view `V_i` and nothing else), so two processes that received
/// the same messages end it alike. In a round whose fold declines, a
/// crashing sender's broadcast reaches some recipients and not others,
/// but recipients it reached alike receive alike; a protocol may let one
/// of them take over what another made of the round, round by round, by
/// overriding [`adopt`](SyncProtocol::adopt):
///
/// * **The law.** `self.adopt(r, &twin)` returning `true` leaves `self`,
///   as far as every later call can observe, as if it had received in
///   round `r` exactly what `twin` received (the same senders and
///   messages, in ascending sender order) and then run `compute(r)`; the
///   executor gives `self` the [`Step`] that `twin` took. Returning
///   `false` leaves `self` untouched, and it receives and computes the
///   round as ever.
/// * An executor offers `adopt` only where the law can hold: in a round
///   whose fold declined, between two processes of which neither crashes
///   in it, that received the same messages, and once `twin` has computed
///   the round (by receiving it, or by adopting it in turn).
///   [`run_protocol`](crate::run_protocol) and
///   [`run_protocol_unordered`](crate::run_protocol_unordered) do — each
///   run of consecutive recipients that the round's crashing senders
///   reached alike is served once, to its first member, and offered to
///   the rest; the fault-composed loops and the node tier never adopt.
/// * Whether a process adopts is decided by what `adopt` returns and
///   nothing else: the provided method declines every round.
///
/// Delivery is **zero-copy**: a broadcast produces one owned message per
/// sender per round, and every executor hands that same message to each
/// recipient by reference — the simulator delivers `n` borrows of the
/// sender's message, the loopback nodes fan one `Arc` out through the
/// channels. `Msg` therefore needs no `Clone` bound; a receiver that wants
/// to keep part of a message clones exactly the pieces it stores (or
/// merges them in place, e.g. `View::merge_from`).
pub trait SyncProtocol {
    /// The broadcast payload type.
    type Msg: fmt::Debug;
    /// The decision value type (ordered so traces can collect decided-value
    /// sets).
    type Output: Clone + Ord + fmt::Debug;

    /// The payload this process broadcasts in `round`.
    fn message(&mut self, round: usize) -> Self::Msg;

    /// Delivery of `msg` broadcast by `from` in `round`.
    ///
    /// The message is borrowed: all `n` recipients of a broadcast observe
    /// the same owned message. Clone only what the process keeps.
    fn receive(&mut self, round: usize, from: ProcessId, msg: &Self::Msg);

    /// Combines a batch of round-`round` messages, each with its sender
    /// (distinct, ascending), into one that
    /// [`receive_folded`](SyncProtocol::receive_folded) takes in their
    /// place — or declines with `None`, and each message is delivered
    /// through [`receive`](SyncProtocol::receive) as ever. See *Folded
    /// rounds* above for the law the pair must obey.
    ///
    /// An associated function on purpose: it sees messages and no
    /// process, so the instances of one execution still share no state
    /// (`Self: Sized` only keeps the trait usable as a `dyn` object). It
    /// must decline an empty batch (the round in which every sender
    /// crashes), and may stop reading the batch as soon as it declines.
    /// The provided implementation declines everything.
    fn fold(
        round: usize,
        batch: &mut dyn Iterator<Item = (ProcessId, &Self::Msg)>,
    ) -> Option<Self::Msg>
    where
        Self: Sized,
    {
        let _ = (round, batch);
        None
    }

    /// Delivery, in one call, of `count` round-`round` messages that
    /// [`fold`](SyncProtocol::fold) combined into `folded`. Called only
    /// with what this protocol's `fold` returned, so a protocol that
    /// never folds need not provide it.
    ///
    /// # Panics
    ///
    /// The provided implementation panics: a `fold` that returns `Some`
    /// must come with a `receive_folded`.
    fn receive_folded(&mut self, round: usize, count: usize, folded: &Self::Msg) {
        let _ = (count, folded);
        unreachable!("a protocol that folds round {round} must override receive_folded")
    }

    /// Takes over what `twin`, which received the same messages in
    /// `round`, made of that round — in place of receiving them and
    /// running [`compute`](SyncProtocol::compute) — or declines with
    /// `false`, leaving `self` untouched. See *Adopted rounds* above for
    /// the law and for when an executor offers it.
    ///
    /// `Self: Sized` only keeps the trait usable as a `dyn` object. The
    /// provided implementation declines every round.
    fn adopt(&mut self, round: usize, twin: &Self) -> bool
    where
        Self: Sized,
    {
        let _ = (round, twin);
        false
    }

    /// End-of-round computation.
    fn compute(&mut self, round: usize) -> Step<Self::Output>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_decided_extracts_value() {
        assert_eq!(Step::Decide(7).decided(), Some(7));
        assert_eq!(Step::<u32>::Continue.decided(), None);
    }

    #[test]
    fn step_display() {
        assert_eq!(Step::Decide(7).to_string(), "decide 7");
        assert_eq!(Step::<u32>::Continue.to_string(), "continue");
    }
}
