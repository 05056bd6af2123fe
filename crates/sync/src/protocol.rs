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
///    unless it crashed before reaching itself in the send order);
/// 3. [`compute`](SyncProtocol::compute) — local computation; returning
///    [`Step::Decide`] ends the process's participation.
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
/// Delivery is **zero-copy**: a broadcast produces one owned message per
/// sender per round, and every executor hands that same message to each
/// recipient by reference — the simulator delivers `n` borrows of the
/// sender's message, the threaded runtime fans one `Arc` out through the
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
