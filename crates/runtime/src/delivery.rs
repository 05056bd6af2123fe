//! Shared broadcast delivery: the `Arc`-envelope fan-out used by every
//! in-process execution tier.
//!
//! The loopback transport of `setagree-node` — the links under both
//! `Executor::Threaded` and the networked loopback tier — realizes the
//! paper's broadcast-based synchronous rounds with this module: one owned
//! message per sender per round, fanned out as `n` `Arc` bumps through
//! per-process channels, with settled processes (decided or crashed)
//! dropped from the recipient set. The mechanism lives here in exactly
//! one place: an [`Endpoint`] per process, wired into a full [`mesh`].
//!
//! The discipline that makes executions trace-equivalent to the
//! simulator:
//!
//! * a broadcast walks recipients in the predetermined `p_1 … p_n` order,
//!   truncated to the sender's crash prefix;
//! * a delivery to a settled recipient is skipped and **not** counted;
//! * the settled flag of a process flips only in the compute half of a
//!   round, strictly synchronization-separated from the send half that
//!   reads it (the caller's round gate enforces the separation);
//! * each round's inbox is drained in sender order.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crossbeam::channel::{unbounded, Receiver, Sender};

use setagree_types::ProcessId;

/// A round-`r` message from `from`.
///
/// The payload is behind an [`Arc`]: a broadcast allocates the message
/// once and fans it out as `n` reference bumps, so the channel layer adds
/// zero deep clones to a round (which is why messages need `Sync` in the
/// threaded tiers — every recipient borrows the same allocation).
#[derive(Debug)]
pub struct Envelope<M> {
    /// The (1-based) round the message belongs to.
    pub round: usize,
    /// The sender.
    pub from: ProcessId,
    /// The shared payload.
    pub msg: Arc<M>,
}

/// Counters shared by a [`mesh`], observable after the endpoints have been
/// moved into their processes.
#[derive(Debug, Clone)]
pub struct MeshStats {
    delivered: Arc<AtomicU64>,
}

impl MeshStats {
    /// Total message deliveries so far (skipped settled recipients are not
    /// counted) — the `messages_delivered` of the eventual trace.
    pub fn messages_delivered(&self) -> u64 {
        self.delivered.load(Ordering::SeqCst)
    }
}

/// Builds a fully connected `n`-process delivery mesh, returning one
/// [`Endpoint`] per process (index order) plus the shared [`MeshStats`].
pub fn mesh<M>(n: usize) -> (Vec<Endpoint<M>>, MeshStats) {
    type Links<M> = (Vec<Sender<Envelope<M>>>, Vec<Receiver<Envelope<M>>>);
    let (senders, receivers): Links<M> = (0..n).map(|_| unbounded()).unzip();
    let senders = Arc::new(senders);
    // Settled processes (decided or crashed) stop receiving; the flag flips
    // only in the compute half of a round, strictly gate-separated from
    // the send half that reads it.
    let settled: Arc<Vec<AtomicBool>> = Arc::new((0..n).map(|_| AtomicBool::new(false)).collect());
    let settled_count = Arc::new(AtomicU64::new(0));
    let delivered = Arc::new(AtomicU64::new(0));
    let stats = MeshStats {
        delivered: Arc::clone(&delivered),
    };
    let endpoints = receivers
        .into_iter()
        .enumerate()
        .map(|(i, rx)| Endpoint {
            me: ProcessId::new(i),
            senders: Arc::clone(&senders),
            rx,
            settled: Arc::clone(&settled),
            settled_count: Arc::clone(&settled_count),
            delivered: Arc::clone(&delivered),
        })
        .collect();
    (endpoints, stats)
}

/// One process's handle into the delivery mesh: its inbound channel plus
/// the shared outbound fan-out and settlement state.
#[derive(Debug)]
pub struct Endpoint<M> {
    me: ProcessId,
    senders: Arc<Vec<Sender<Envelope<M>>>>,
    rx: Receiver<Envelope<M>>,
    settled: Arc<Vec<AtomicBool>>,
    settled_count: Arc<AtomicU64>,
    delivered: Arc<AtomicU64>,
}

impl<M> Endpoint<M> {
    /// The process this endpoint belongs to.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// The system size.
    pub fn n(&self) -> usize {
        self.senders.len()
    }

    /// Broadcasts `msg` to recipients `p_1 … p_reach` in the predetermined
    /// order (the ordered-send crash model: a crash mid-broadcast delivers
    /// only a prefix). Settled recipients are skipped and not counted; a
    /// recipient whose endpoint is already gone (a killed loopback node)
    /// is likewise not counted.
    pub fn broadcast(&self, round: usize, msg: M, reach: usize) {
        // One owned message per sender per round; the fan-out below is at
        // most n `Arc` bumps, zero deep clones.
        let msg = Arc::new(msg);
        for recipient in 0..reach.min(self.n()) {
            if self.settled[recipient].load(Ordering::SeqCst) {
                continue;
            }
            let env = Envelope {
                round,
                from: self.me,
                msg: Arc::clone(&msg),
            };
            if self.senders[recipient].send(env).is_ok() {
                self.delivered.fetch_add(1, Ordering::SeqCst);
            }
        }
    }

    /// Drains this round's inbox, sorted by sender — the paper's
    /// deterministic delivery order.
    pub fn drain_round(&self, round: usize) -> Vec<Envelope<M>> {
        let mut inbox: Vec<Envelope<M>> = self.rx.try_iter().collect();
        debug_assert!(inbox.iter().all(|e| e.round == round));
        let _ = round;
        inbox.sort_by_key(|e| e.from);
        inbox
    }

    /// Marks this process settled (decided, crashed, or panicked): future
    /// broadcasts skip it. Idempotent. Call only in the compute half of a
    /// round, synchronization-separated from any concurrent send half.
    pub fn settle(&self) {
        if !self.settled[self.me.index()].swap(true, Ordering::SeqCst) {
            self.settled_count.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Returns `true` once every process in the mesh has settled — the
    /// whole execution is over.
    pub fn all_settled(&self) -> bool {
        self.settled_count.load(Ordering::SeqCst) as usize == self.n()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broadcast_counts_only_unsettled_recipients() {
        let (endpoints, stats) = mesh::<u32>(3);
        endpoints[1].settle();
        endpoints[0].broadcast(1, 42, 3);
        assert_eq!(stats.messages_delivered(), 2);
        let inbox = endpoints[2].drain_round(1);
        assert_eq!(inbox.len(), 1);
        assert_eq!(inbox[0].from, ProcessId::new(0));
        assert_eq!(*inbox[0].msg, 42);
        assert!(endpoints[1].drain_round(1).is_empty());
    }

    #[test]
    fn broadcast_respects_the_prefix_order() {
        let (endpoints, stats) = mesh::<u32>(4);
        endpoints[3].broadcast(1, 7, 2); // reaches p1, p2 only
        assert_eq!(stats.messages_delivered(), 2);
        assert_eq!(endpoints[0].drain_round(1).len(), 1);
        assert_eq!(endpoints[1].drain_round(1).len(), 1);
        assert!(endpoints[2].drain_round(1).is_empty());
        assert!(endpoints[3].drain_round(1).is_empty());
    }

    #[test]
    fn drain_sorts_by_sender() {
        let (endpoints, _) = mesh::<u32>(3);
        endpoints[2].broadcast(1, 20, 3);
        endpoints[0].broadcast(1, 0, 3);
        endpoints[1].broadcast(1, 10, 3);
        let froms: Vec<usize> = endpoints[0]
            .drain_round(1)
            .iter()
            .map(|e| e.from.index())
            .collect();
        assert_eq!(froms, vec![0, 1, 2]);
    }

    #[test]
    fn settle_is_idempotent_and_all_settled_detects_completion() {
        let (endpoints, _) = mesh::<u32>(2);
        endpoints[0].settle();
        endpoints[0].settle();
        assert!(!endpoints[0].all_settled());
        endpoints[1].settle();
        assert!(endpoints[0].all_settled());
        assert!(endpoints[1].all_settled());
    }

    #[test]
    fn sends_to_a_dropped_endpoint_are_not_counted() {
        let (mut endpoints, stats) = mesh::<u32>(3);
        let victim = endpoints.remove(2);
        victim.settle();
        drop(victim); // a killed loopback node: settled, channel gone
        endpoints[0].broadcast(1, 5, 3);
        assert_eq!(stats.messages_delivered(), 2);
    }
}
