//! The in-process loopback transport: real node tasks, channel links,
//! and a kill-tolerant round gate.
//!
//! This is the transport under both `Executor::Threaded` and the
//! networked loopback tier. Message movement is the shared
//! [`delivery`](setagree_runtime::delivery) mesh — one `Arc`-envelope
//! fan-out per broadcast — so a loopback execution is trace-equivalent
//! to the simulator by construction: same ordered-send prefixes, same
//! settled-recipient skipping, same delivery counting, same
//! sender-ordered inboxes.
//!
//! The crash model is the kill: a victim's task leaves the round
//! structure mid-round and its endpoint (the receiving channel) is
//! dropped, instead of lingering and silently crossing barriers until
//! the execution winds down. A `std::sync::Barrier` cannot survive that
//! — its membership is fixed — so rounds are synchronized by a
//! [`RoundGate`]: a generation-counted gate whose membership shrinks when
//! a node is killed, releasing any generation the departure completes.

use std::convert::Infallible;
use std::sync::{Arc, Condvar, Mutex};

use setagree_runtime::delivery::{mesh, Endpoint, MeshStats};
use setagree_types::ProcessId;

use crate::transport::Transport;

/// A reusable synchronization gate with dynamic membership.
///
/// Like `std::sync::Barrier`, [`wait`](RoundGate::wait) blocks until the
/// current generation's membership has all arrived; unlike it, a member
/// can [`leave`](RoundGate::leave) permanently — the kill-based crash —
/// shrinking every future generation and completing the current one if
/// the leaver was the last arrival outstanding.
#[derive(Debug)]
pub struct RoundGate {
    state: Mutex<GateState>,
    cv: Condvar,
}

#[derive(Debug)]
struct GateState {
    members: usize,
    arrived: usize,
    generation: u64,
}

impl RoundGate {
    /// A gate over `members` participants.
    pub fn new(members: usize) -> RoundGate {
        RoundGate {
            state: Mutex::new(GateState {
                members,
                arrived: 0,
                generation: 0,
            }),
            cv: Condvar::new(),
        }
    }

    /// Blocks until every current member has arrived at this generation.
    pub fn wait(&self) {
        let mut s = self.state.lock().expect("gate poisoned");
        s.arrived += 1;
        if s.arrived >= s.members {
            s.arrived = 0;
            s.generation += 1;
            self.cv.notify_all();
            return;
        }
        let generation = s.generation;
        while s.generation == generation {
            s = self.cv.wait(s).expect("gate poisoned");
        }
    }

    /// Permanently removes one member (a killed node). If the departure
    /// makes the current generation complete, its waiters are released.
    pub fn leave(&self) {
        let mut s = self.state.lock().expect("gate poisoned");
        s.members = s.members.saturating_sub(1);
        if s.members > 0 && s.arrived >= s.members {
            s.arrived = 0;
            s.generation += 1;
            self.cv.notify_all();
        }
    }

    /// Members arrived at the current generation so far.
    #[cfg(test)]
    pub(crate) fn arrived(&self) -> usize {
        self.state.lock().expect("gate poisoned").arrived
    }
}

/// One node's loopback transport: a [`delivery`](setagree_runtime::delivery)
/// endpoint plus the shared round gate.
#[derive(Debug)]
pub struct LoopbackTransport<M> {
    endpoint: Endpoint<M>,
    gate: Arc<RoundGate>,
}

/// Builds the transports for an `n`-node loopback system (index order),
/// plus the shared delivery counters.
pub fn loopback_mesh<M>(n: usize) -> (Vec<LoopbackTransport<M>>, MeshStats) {
    let gate = Arc::new(RoundGate::new(n));
    let (endpoints, stats) = mesh::<M>(n);
    let transports = endpoints
        .into_iter()
        .map(|endpoint| LoopbackTransport {
            endpoint,
            gate: Arc::clone(&gate),
        })
        .collect();
    (transports, stats)
}

impl<M> Transport for LoopbackTransport<M> {
    type Msg = M;
    // The sender's own allocation, shared: zero-copy delivery.
    type Letter = Arc<M>;
    type Error = Infallible;

    fn n(&self) -> usize {
        self.endpoint.n()
    }

    fn me(&self) -> ProcessId {
        self.endpoint.me()
    }

    fn broadcast(&mut self, round: usize, msg: M, reach: usize) -> Result<(), Infallible> {
        self.endpoint.broadcast(round, msg, reach);
        Ok(())
    }

    fn sends_done(&mut self, _round: usize) -> Result<(), Infallible> {
        self.gate.wait();
        Ok(())
    }

    fn collect(&mut self, round: usize) -> Result<Vec<(ProcessId, Arc<M>)>, Infallible> {
        Ok(self
            .endpoint
            .drain_round(round)
            .into_iter()
            .map(|env| (env.from, env.msg))
            .collect())
    }

    fn settle(&mut self, _round: usize) -> Result<(), Infallible> {
        self.endpoint.settle();
        Ok(())
    }

    fn round_done(&mut self, _round: usize, _settled: bool) -> Result<bool, Infallible> {
        self.gate.wait();
        Ok(self.endpoint.all_settled())
    }

    fn depart(&mut self, _round: usize) {
        // The kill: settle (future broadcasts skip this node — the flag
        // flips after the sends-done gate, so the current round's send
        // phase already read it as live), then leave the round structure
        // for good. The caller drops the transport, closing the inbound
        // channel.
        self.endpoint.settle();
        self.gate.leave();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn gate_synchronizes_generations() {
        let gate = Arc::new(RoundGate::new(3));
        let counter = Arc::new(Mutex::new(0u32));
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let gate = Arc::clone(&gate);
                let counter = Arc::clone(&counter);
                thread::spawn(move || {
                    for _ in 0..5 {
                        *counter.lock().unwrap() += 1;
                        gate.wait();
                        // Between generations every thread observes a
                        // multiple of the membership.
                        assert_eq!(*counter.lock().unwrap() % 3, 0);
                        gate.wait();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*counter.lock().unwrap(), 15);
    }

    #[test]
    fn leaving_completes_a_stalled_generation() {
        // The waiter is already blocked inside `wait`: the departure is
        // what releases it.
        let gate = Arc::new(RoundGate::new(2));
        let waiter = {
            let gate = Arc::clone(&gate);
            thread::spawn(move || gate.wait())
        };
        while gate.arrived() == 0 {
            thread::yield_now();
        }
        gate.leave();
        waiter.join().expect("waiter released by the departure");

        // The departure comes first: the lone remaining member's `wait`
        // completes the generation by itself.
        let gate = RoundGate::new(2);
        gate.leave();
        gate.wait();
        assert_eq!(gate.arrived(), 0);
    }

    #[test]
    fn transports_share_one_delivery_mesh() {
        let (mut transports, stats) = loopback_mesh::<u32>(2);
        transports[0].broadcast(1, 7, 2).unwrap();
        transports[1].broadcast(1, 9, 1).unwrap();
        let inbox = transports[0].collect(1).unwrap();
        assert_eq!(inbox.len(), 2);
        assert_eq!(*inbox[0].1, 7);
        assert_eq!(*inbox[1].1, 9);
        assert_eq!(stats.messages_delivered(), 3);
    }
}
