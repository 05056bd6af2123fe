//! The node: one protocol instance driven over one [`Transport`].
//!
//! [`drive`] is the round loop every threaded and networked tier shares —
//! `Executor::Threaded`, loopback tasks and TCP node processes run the
//! identical control flow, so the semantics of a round (ordered-send
//! prefix, crash-before-compute, sender-ordered receive,
//! decide-then-settle) live here exactly once. [`run_loopback`] runs one
//! pooled task per process over the loopback transport and assembles the
//! familiar [`Trace`]. Crashed and panicked nodes are *killed*: their
//! task departs the round structure and their channel closes.

use std::borrow::Borrow;
use std::convert::Infallible;
use std::error::Error;
use std::fmt;
use std::panic;

use setagree_runtime::pool;
use setagree_sync::{CrashSpec, FailurePattern, Outcome, Step, SyncProtocol, Trace};
use setagree_types::ProcessId;

use crate::loopback::loopback_mesh;
use crate::transport::Transport;

/// Why one node's drive loop stopped abnormally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DriveError<E> {
    /// The transport failed.
    Transport(E),
    /// The protocol implementation panicked; the node departed like a
    /// killed process.
    Panicked,
}

impl<E: fmt::Display> fmt::Display for DriveError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DriveError::Transport(e) => write!(f, "transport failed: {e}"),
            DriveError::Panicked => write!(f, "protocol implementation panicked"),
        }
    }
}

impl<E: fmt::Debug + fmt::Display> Error for DriveError<E> {}

/// Drives `proto` through up to `max_rounds` rounds over `transport`,
/// injecting `crash` (this node's entry in the failure pattern) by
/// *leaving*: after its prefix of sends in the crash round, the node
/// departs the round structure for good.
///
/// Returns the node's [`Outcome`]; [`Outcome::Undecided`] means the round
/// limit elapsed first.
///
/// # Errors
///
/// [`DriveError::Transport`] if the transport fails;
/// [`DriveError::Panicked`] if the protocol panics (the node departs
/// first, so peers keep running).
pub fn drive<P, T>(
    mut proto: P,
    mut transport: T,
    crash: Option<CrashSpec>,
    max_rounds: usize,
) -> Result<Outcome<P::Output>, DriveError<T::Error>>
where
    P: SyncProtocol,
    T: Transport<Msg = P::Msg>,
{
    let n = transport.n();
    let mut outcome: Option<Outcome<P::Output>> = None;
    // One registry lookup per drive, one relaxed load per round when
    // instrumentation is off.
    let round_hist =
        setagree_obs::enabled().then(|| setagree_obs::histogram("node_round_duration_us", &[]));
    for round in 1..=max_rounds {
        let active = outcome.is_none();
        let mut panicked = false;
        let _round_span = round_hist.as_ref().map(|h| {
            setagree_obs::Span::start("node", "round")
                .with_histogram(h)
                .with_detail(round as u64)
        });

        // Send phase: broadcast in the predetermined p_1 … p_n order,
        // truncated to the crash prefix if this is the crash round.
        if active {
            let reach = match crash {
                Some(s) if s.round == round => s.after_sends,
                _ => n,
            };
            match panic::catch_unwind(panic::AssertUnwindSafe(|| proto.message(round))) {
                Ok(msg) => transport
                    .broadcast(round, msg, reach)
                    .map_err(DriveError::Transport)?,
                Err(_) => panicked = true,
            }
        }
        transport.sends_done(round).map_err(DriveError::Transport)?;

        if active {
            if panicked {
                transport.depart(round);
                return Err(DriveError::Panicked);
            }
            if crash.map(|s| s.round == round).unwrap_or(false) {
                // The kill takes effect before local computation: no
                // receives, no compute — the node is gone.
                transport.depart(round);
                return Ok(Outcome::Crashed { round });
            }
            // Receive phase (sender order), then compute.
            let letters = transport.collect(round).map_err(DriveError::Transport)?;
            let step = panic::catch_unwind(panic::AssertUnwindSafe(|| {
                for (from, letter) in &letters {
                    proto.receive(round, *from, letter.borrow());
                }
                proto.compute(round)
            }));
            match step {
                Ok(Step::Decide(value)) => {
                    outcome = Some(Outcome::Decided { value, round });
                    transport.settle(round).map_err(DriveError::Transport)?;
                }
                Ok(Step::Continue) => {}
                Err(_) => {
                    transport.depart(round);
                    return Err(DriveError::Panicked);
                }
            }
        }
        if transport
            .round_done(round, outcome.is_some())
            .map_err(DriveError::Transport)?
        {
            break;
        }
    }
    Ok(outcome.unwrap_or(Outcome::Undecided))
}

/// Error running a loopback-node execution.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NodeError {
    /// Some node neither decided nor was killed within the round limit.
    RoundLimitExceeded {
        /// The configured limit.
        limit: usize,
    },
    /// Process count and failure-pattern system size differ.
    SystemSizeMismatch {
        /// Protocol instances supplied.
        processes: usize,
        /// Pattern system size.
        pattern: usize,
    },
    /// A node's protocol implementation panicked.
    ProcessPanicked {
        /// The panicking node.
        process: ProcessId,
    },
}

impl fmt::Display for NodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeError::RoundLimitExceeded { limit } => write!(
                f,
                "execution exceeded the {limit}-round limit without termination"
            ),
            NodeError::SystemSizeMismatch { processes, pattern } => write!(
                f,
                "{processes} protocol instances but the failure pattern is over {pattern} processes"
            ),
            NodeError::ProcessPanicked { process } => {
                write!(f, "node {process} panicked")
            }
        }
    }
}

impl Error for NodeError {}

/// Runs the protocol instances as loopback nodes — one pooled task per
/// process over the shared delivery mesh — under the failure pattern,
/// killing each victim's task at its crash point. This is the backend of
/// both `Executor::Threaded` and `Executor::Networked` with the loopback
/// transport.
///
/// Observationally identical to the simulator; the integration suite
/// compares whole [`Trace`]s.
///
/// # Errors
///
/// Mirrors the simulator: size mismatches and round-limit violations,
/// plus [`NodeError::ProcessPanicked`] if a protocol implementation
/// panics.
pub fn run_loopback<P>(
    processes: Vec<P>,
    pattern: &FailurePattern,
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
    let (transports, stats) = loopback_mesh::<P::Msg>(n);
    run_nodes(processes, transports, pattern, max_rounds, || {
        stats.messages_delivered()
    })
}

/// The body both loopback runners share: one pooled task per process
/// driving it over its transport, joined in index order, then the
/// outcomes assembled into a [`Trace`] whose delivered count
/// `delivered` reads once every task is done.
///
/// The pool starts every task on its own thread, so tasks blocking on
/// the round gate cannot starve one another.
pub(crate) fn run_nodes<P, T>(
    processes: Vec<P>,
    transports: Vec<T>,
    pattern: &FailurePattern,
    max_rounds: usize,
    delivered: impl FnOnce() -> u64,
) -> Result<Trace<P::Output>, NodeError>
where
    P: SyncProtocol + Send + 'static,
    P::Output: Send,
    T: Transport<Msg = P::Msg, Error = Infallible> + Send + 'static,
{
    let handles: Vec<_> = transports
        .into_iter()
        .zip(processes)
        .map(|(transport, proto)| {
            let crash = pattern.spec(transport.me());
            pool::spawn(move || drive(proto, transport, crash, max_rounds))
        })
        .collect();

    let mut outcomes = Vec::with_capacity(handles.len());
    for (i, handle) in handles.into_iter().enumerate() {
        match handle.join() {
            Ok(Ok(outcome)) => outcomes.push(outcome),
            Ok(Err(DriveError::Panicked)) | Err(_) => {
                return Err(NodeError::ProcessPanicked {
                    process: ProcessId::new(i),
                })
            }
            Ok(Err(DriveError::Transport(infallible))) => match infallible {},
        }
    }
    if outcomes.iter().any(|o| matches!(o, Outcome::Undecided)) {
        return Err(NodeError::RoundLimitExceeded { limit: max_rounds });
    }
    let rounds_executed = outcomes
        .iter()
        .map(|o| match o {
            Outcome::Decided { round, .. } | Outcome::Crashed { round } => *round,
            Outcome::Undecided => 0,
        })
        .max()
        .unwrap_or(0);
    Ok(Trace::from_parts(outcomes, rounds_executed, delivered()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use setagree_sync::{bounds, run_protocol};

    /// A local max-flooding protocol (this crate cannot dev-depend on
    /// `setagree-core`'s `FloodSet` — core depends on this crate for the
    /// `Executor::Networked` backend).
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

    fn floods(t: usize, k: usize, inputs: &[u32]) -> Vec<MaxFlood> {
        let rounds = bounds::classical(t, k);
        inputs
            .iter()
            .map(|&v| MaxFlood { rounds, best: v })
            .collect()
    }

    #[test]
    fn failure_free_matches_simulator() {
        let inputs = [3u32, 9, 1, 4];
        let pattern = FailurePattern::none(4);
        let nodes = run_loopback(floods(2, 1, &inputs), &pattern, 10).unwrap();
        let simulated = run_protocol(floods(2, 1, &inputs), &pattern, 10).unwrap();
        assert_eq!(nodes, simulated);
    }

    #[test]
    fn killed_nodes_match_simulated_crashes() {
        let inputs = [9u32, 1, 1, 1, 1];
        let mut pattern = FailurePattern::none(5);
        pattern
            .crash(ProcessId::new(0), CrashSpec::new(1, 2))
            .unwrap();
        pattern
            .crash(ProcessId::new(4), CrashSpec::new(2, 0))
            .unwrap();
        let nodes = run_loopback(floods(2, 1, &inputs), &pattern, 10).unwrap();
        let simulated = run_protocol(floods(2, 1, &inputs), &pattern, 10).unwrap();
        assert_eq!(nodes, simulated);
        assert_eq!(nodes.crashed_count(), 2);
    }

    #[test]
    fn a_panicking_node_is_killed_not_deadlocked() {
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        enum Hook {
            Message,
            Receive,
            Compute,
        }
        /// Panics in `explode`'s hook, decides 7 in round 1 otherwise.
        #[derive(Debug)]
        struct Volatile {
            explode: Option<Hook>,
        }
        impl Volatile {
            fn trip(&self, hook: Hook) {
                if self.explode == Some(hook) {
                    panic!("protocol bug in {hook:?}");
                }
            }
        }
        impl SyncProtocol for Volatile {
            type Msg = ();
            type Output = u32;
            fn message(&mut self, _round: usize) {
                self.trip(Hook::Message);
            }
            fn receive(&mut self, _round: usize, _from: ProcessId, _msg: &()) {
                self.trip(Hook::Receive);
            }
            fn compute(&mut self, _round: usize) -> Step<u32> {
                self.trip(Hook::Compute);
                Step::Decide(7)
            }
        }
        for hook in [Hook::Message, Hook::Receive, Hook::Compute] {
            for n in [2usize, 3, 8] {
                for victim in 0..n {
                    let procs = (0..n)
                        .map(|i| Volatile {
                            explode: (i == victim).then_some(hook),
                        })
                        .collect();
                    let err = run_loopback(procs, &FailurePattern::none(n), 5).unwrap_err();
                    assert_eq!(
                        err,
                        NodeError::ProcessPanicked {
                            process: ProcessId::new(victim)
                        },
                        "{hook:?} panics at p{victim} of {n}"
                    );
                }
            }
        }
    }

    #[test]
    fn size_mismatch_is_reported() {
        let err = run_loopback(floods(1, 1, &[1, 2]), &FailurePattern::none(3), 5).unwrap_err();
        assert_eq!(
            err,
            NodeError::SystemSizeMismatch {
                processes: 2,
                pattern: 3
            }
        );
    }

    #[test]
    fn round_limit_is_reported() {
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
        let err = run_loopback(vec![Stubborn, Stubborn], &FailurePattern::none(2), 3).unwrap_err();
        assert_eq!(err, NodeError::RoundLimitExceeded { limit: 3 });
    }
}
