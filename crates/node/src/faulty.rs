//! [`FaultyTransport`]: a [`FaultPlan`] applied at the transport
//! boundary.
//!
//! Wraps any [`Transport`] whose letters are cloneable and runs every
//! collected inbox through the *same* [`FaultInbox`] assembly the
//! simulator engine uses — so an identical plan drives the simulator,
//! the loopback mesh, and (via `Typed`) a byte transport, with
//! byte-identical traces between the first two (pinned by
//! `tests/fault_equivalence.rs`).
//!
//! Faults apply receiver-side, after the inner transport's own
//! synchronization: a dropped letter was genuinely sent (the loopback
//! round gate and a TCP `collect` complete normally), then discarded at
//! the boundary — which is exactly how the simulator's faulty engine
//! counts it, and why neither tier can deadlock on an injected drop.

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

use setagree_sync::{FailurePattern, FaultInbox, FaultPlan, SyncProtocol, Trace};
use setagree_types::ProcessId;

use crate::loopback::loopback_mesh;
use crate::node::{run_nodes, NodeError};
use crate::transport::Transport;

/// A transport with a [`FaultPlan`] injected at its collect boundary.
#[derive(Debug)]
pub struct FaultyTransport<T: Transport>
where
    T::Letter: Clone,
{
    inner: T,
    inbox: FaultInbox<T::Letter>,
    adjust: Arc<AtomicI64>,
}

impl<T: Transport> FaultyTransport<T>
where
    T::Letter: Clone,
{
    /// Wraps `inner`, faulting its inbound letters under `plan`.
    ///
    /// `adjust` accumulates the delivered-count adjustment (−1 per
    /// drop, +1 per duplicate) so a harness that counts deliveries at
    /// broadcast time — the mesh's discipline — can correct its total
    /// to post-fault reality; share one counter across the system's
    /// wrappers.
    pub fn new(inner: T, plan: FaultPlan, adjust: Arc<AtomicI64>) -> FaultyTransport<T> {
        let me = inner.me();
        FaultyTransport {
            inner,
            inbox: FaultInbox::new(plan, me),
            adjust,
        }
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }
}

impl<T: Transport> Transport for FaultyTransport<T>
where
    T::Letter: Clone,
{
    type Msg = T::Msg;
    type Letter = T::Letter;
    type Error = T::Error;

    fn n(&self) -> usize {
        self.inner.n()
    }

    fn me(&self) -> ProcessId {
        self.inner.me()
    }

    fn broadcast(&mut self, round: usize, msg: T::Msg, reach: usize) -> Result<(), T::Error> {
        self.inner.broadcast(round, msg, reach)
    }

    fn sends_done(&mut self, round: usize) -> Result<(), T::Error> {
        self.inner.sends_done(round)
    }

    fn collect(&mut self, round: usize) -> Result<Vec<(ProcessId, T::Letter)>, T::Error> {
        let arrivals = self.inner.collect(round)?;
        let (inbox, adjust) = self.inbox.assemble(round, arrivals);
        if adjust != 0 {
            self.adjust.fetch_add(adjust, Ordering::Relaxed);
        }
        Ok(inbox)
    }

    fn settle(&mut self, round: usize) -> Result<(), T::Error> {
        self.inner.settle(round)
    }

    fn round_done(&mut self, round: usize, settled: bool) -> Result<bool, T::Error> {
        self.inner.round_done(round, settled)
    }

    fn depart(&mut self, round: usize) {
        self.inner.depart(round)
    }
}

/// [`run_loopback`](crate::run_loopback) with a [`FaultPlan`] wrapped
/// around every node's transport: one pooled task per process over the
/// shared delivery mesh, crash victims killed at their scheduled point,
/// link faults injected at each receiver's collect boundary.
///
/// The trace's delivered count is the mesh's broadcast-accept total
/// corrected by the wrappers' shared adjustment — the same discipline
/// the faulty simulator engine uses, so for any plan the two traces are
/// byte-identical.
///
/// # Errors
///
/// As [`run_loopback`](crate::run_loopback), plus
/// [`NodeError::SystemSizeMismatch`] if the plan's system size differs.
pub fn run_loopback_faulty<P>(
    processes: Vec<P>,
    pattern: &FailurePattern,
    plan: &FaultPlan,
    max_rounds: usize,
) -> Result<Trace<P::Output>, NodeError>
where
    P: SyncProtocol + Send + 'static,
    P::Msg: Send + Sync + 'static,
    P::Output: Send,
{
    let n = processes.len();
    if n != pattern.system_size() {
        return Err(NodeError::SystemSizeMismatch {
            processes: n,
            pattern: pattern.system_size(),
        });
    }
    if n != plan.n() {
        return Err(NodeError::SystemSizeMismatch {
            processes: n,
            pattern: plan.n(),
        });
    }

    let adjust = Arc::new(AtomicI64::new(0));
    let (transports, stats) = loopback_mesh::<P::Msg>(n);
    let faulty = transports
        .into_iter()
        .map(|transport| FaultyTransport::new(transport, plan.clone(), Arc::clone(&adjust)))
        .collect();
    run_nodes(processes, faulty, pattern, max_rounds, || {
        let delivered = stats.messages_delivered() as i64 + adjust.load(Ordering::Relaxed);
        debug_assert!(delivered >= 0, "drops only subtract accepted deliveries");
        delivered.max(0) as u64
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_loopback;
    use setagree_sync::{run_protocol_faulty, CrashSpec, Step, RATE_SCALE};

    #[derive(Debug)]
    struct MaxFlood {
        rounds: usize,
        best: u32,
    }

    impl SyncProtocol for MaxFlood {
        type Msg = u32;
        type Output = u32;
        fn message(&mut self, _round: usize) -> u32 {
            self.best
        }
        fn receive(&mut self, _round: usize, _from: ProcessId, msg: &u32) {
            self.best = self.best.max(*msg);
        }
        fn compute(&mut self, round: usize) -> Step<u32> {
            if round >= self.rounds {
                Step::Decide(self.best)
            } else {
                Step::Continue
            }
        }
    }

    fn floods(rounds: usize, inputs: &[u32]) -> Vec<MaxFlood> {
        inputs
            .iter()
            .map(|&best| MaxFlood { rounds, best })
            .collect()
    }

    #[test]
    fn benign_plan_matches_the_plain_loopback_path() {
        let inputs = [3u32, 9, 1, 4];
        let mut pattern = FailurePattern::none(4);
        pattern
            .crash(ProcessId::new(0), CrashSpec::new(1, 2))
            .unwrap();
        let plain = run_loopback(floods(3, &inputs), &pattern, 10).unwrap();
        let faulty =
            run_loopback_faulty(floods(3, &inputs), &pattern, &FaultPlan::none(4), 10).unwrap();
        assert_eq!(plain, faulty);
    }

    #[test]
    fn faulty_loopback_matches_the_faulty_simulator() {
        let inputs = [3u32, 9, 1, 4, 7];
        let plan = FaultPlan::new(5, 0xFA17)
            .drop_rate(2000)
            .delay_rate(2000, 2)
            .duplicate_rate(1500)
            .reorder_rate(4000);
        let mut pattern = FailurePattern::none(5);
        pattern
            .crash(ProcessId::new(2), CrashSpec::new(2, 3))
            .unwrap();
        let nodes = run_loopback_faulty(floods(4, &inputs), &pattern, &plan, 10).unwrap();
        let simulated = run_protocol_faulty(floods(4, &inputs), &pattern, &plan, 10).unwrap();
        assert_eq!(nodes, simulated);
    }

    #[test]
    fn all_links_dropped_leaves_every_node_with_its_own_input() {
        let inputs = [3u32, 9, 1];
        let plan = FaultPlan::new(3, 1).drop_rate(RATE_SCALE);
        let trace =
            run_loopback_faulty(floods(1, &inputs), &FailurePattern::none(3), &plan, 5).unwrap();
        let decided: Vec<u32> = trace
            .outcomes()
            .iter()
            .map(|o| *o.decided_value().unwrap())
            .collect();
        assert_eq!(decided, inputs);
        assert_eq!(trace.messages_delivered(), 3);
    }

    #[test]
    fn plan_size_mismatch_is_reported() {
        let err = run_loopback_faulty(
            floods(1, &[1, 2]),
            &FailurePattern::none(2),
            &FaultPlan::none(3),
            5,
        )
        .unwrap_err();
        assert_eq!(
            err,
            NodeError::SystemSizeMismatch {
                processes: 2,
                pattern: 3
            }
        );
    }
}
