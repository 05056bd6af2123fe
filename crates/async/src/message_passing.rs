//! The asynchronous **message-passing** substrate and the condition-based
//! ℓ-set agreement algorithm on top of it.
//!
//! Section 4's condition-based approach works in both asynchronous models
//! the literature uses: shared memory (see [`memory`](crate::memory)) and
//! reliable message passing (the FLP setting of \[10\]). This module
//! implements the latter: point-to-point channels with unbounded,
//! adversarially-chosen delays, no loss, no duplication.
//!
//! The algorithm is the message-passing rendering of the same idea:
//!
//! 1. broadcast your proposal (reliable broadcast is trivial with
//!    reliable channels and crash faults — the sender either reaches
//!    everyone or is allowed to have its echoes missing);
//! 2. collect proposals until `n − x` distinct senders are represented;
//! 3. decide `max(h_ℓ(J))` from the assembled view `J` when `P(J)` holds.
//!
//! # Guarantees — and an honest limitation
//!
//! Unlike the snapshot-based version, two processes' views here are **not**
//! ordered by containment: the adversary can deliver different subsets.
//! What still holds is Definition 4's *monotonicity*: every view `J ≤ I`
//! decodes to `h_ℓ(J) ⊆ h_ℓ(I)`. Hence, **when the input vector is in the
//! condition**, every decided value lies in `h_ℓ(I)` — at most ℓ distinct
//! values — and termination follows with at most `x` crashes. Deciders
//! also re-broadcast their locked-in views, which speeds late deciders up.
//!
//! **Outside the condition no guarantee survives**: incomparable partial
//! views can decode through *different completions* and split (the
//! `out_of_condition_safety_is_not_guaranteed` test exhibits it). This is
//! not sloppiness but the known gap between the models: \[20\]'s
//! message-passing protocol closes it by emulating registers over majority
//! quorums (ABD), which re-linearizes the views — i.e. it reduces to the
//! shared-memory substrate in [`memory`](crate::memory). The paper's
//! Section 4 claims (solvability *under the condition*) are what this
//! module reproduces natively in the message-passing model.
//!
//! # Adversary model and seeding
//!
//! The adversary controls *delivery order*: at every tick it picks any
//! in-flight message and delivers it (reliable channels — no loss, no
//! duplication, unbounded reordering). The seeded runner draws that pick
//! from a `u64`-seeded RNG, so the same `(seed, input, crashes, budget)`
//! replays the byte-identical execution; the seed lives in the executor
//! (`Executor::AsyncMessagePassing { seed }`) of the unified experiment
//! API. Crashes *silence* a process once enough messages have been
//! delivered to it (its earlier sends may still arrive: crash faults,
//! not omission faults); a zero budget cancels even its initial
//! broadcast. A global delivery budget bounds the run, and processes
//! still waiting at exhaustion are reported as
//! [`AsyncOutcome::Unfinished`](crate::AsyncOutcome). As with the
//! shared-memory scheduler, outcome *distributions* over seed ranges
//! depend on the RNG stream — assert model guarantees across seeds, not
//! exact per-seed outcomes.
//!
//! # Example
//!
//! ```
//! use setagree_conditions::{LegalityParams, MaxCondition};
//! use setagree_core::{Executor, Scenario};
//!
//! let params = LegalityParams::new(1, 1)?;
//! let report = Scenario::async_set_agreement(4, params, MaxCondition::new(params))
//!     .input(vec![5u32, 5, 5, 2])
//!     .executor(Executor::AsyncMessagePassing { seed: 42 })
//!     .run()?;
//! assert!(report.satisfies_all());
//! assert!(report.decided_values().len() <= 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::collections::VecDeque;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use setagree_conditions::ConditionOracle;
use setagree_types::{InputVector, ProcessId, ProposalValue, View};

use crate::report::{AsyncOutcome, AsyncReport};

/// A message of the asynchronous message-passing algorithm: a (partial)
/// view of the input vector. Initial broadcasts carry the single-entry
/// view holding the sender's proposal; decider re-broadcasts carry the
/// full view the decider locked in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MpMessage<V> {
    /// The observed entries being gossiped.
    pub view: View<V>,
}

/// The state of one message-passing process.
#[derive(Debug)]
struct MpProcess<V> {
    view: View<V>,
    decided: Option<V>,
    blocked: bool,
    steps: u64,
}

/// An in-flight message.
#[derive(Debug, Clone)]
struct InFlight<V> {
    to: usize,
    msg: MpMessage<V>,
}

/// The asynchronous message-passing system: `n` processes, reliable
/// channels, a seeded adversary choosing which in-flight message is
/// delivered next, and crash injection by *silencing* a process (its
/// undelivered messages may still arrive — crash faults, not omission).
///
/// # Example
///
/// ```
/// use setagree_async::message_passing::{default_delivery_budget, execute_message_passing};
/// use setagree_async::AsyncCrashes;
/// use setagree_conditions::{LegalityParams, MaxCondition};
/// use setagree_types::InputVector;
///
/// let params = LegalityParams::new(1, 1).unwrap();
/// let oracle = MaxCondition::new(params);
/// let input = InputVector::new(vec![5u32, 5, 5, 2]);
/// let report = execute_message_passing(
///     &oracle, 1, &input, &AsyncCrashes::none(), 42, default_delivery_budget(4));
/// assert!(report.all_correct_decided());
/// assert!(report.decided_values().len() <= 1);
/// ```
#[derive(Debug)]
pub struct MessagePassingSystem<V, O> {
    oracle: O,
    x: usize,
    processes: Vec<MpProcess<V>>,
    in_flight: VecDeque<InFlight<V>>,
    crashed: Vec<bool>,
    delivered: u64,
}

impl<V: ProposalValue, O: ConditionOracle<V>> MessagePassingSystem<V, O> {
    /// Creates the system with every proposal already broadcast (the
    /// algorithm's step 1): `n·(n−1)` single-entry view messages start in
    /// flight.
    pub fn new(oracle: O, x: usize, input: &InputVector<V>) -> Self {
        let n = input.len();
        let mut processes = Vec::with_capacity(n);
        let mut in_flight = VecDeque::new();
        for id in ProcessId::all(n) {
            let mut view = View::all_bottom(n);
            view.set(id, input.get(id).clone());
            processes.push(MpProcess {
                view: view.clone(),
                decided: None,
                blocked: false,
                steps: 0,
            });
            for to in 0..n {
                if to != id.index() {
                    in_flight.push_back(InFlight {
                        to,
                        msg: MpMessage { view: view.clone() },
                    });
                }
            }
        }
        MessagePassingSystem {
            oracle,
            x,
            processes,
            in_flight,
            crashed: vec![false; n],
            delivered: 0,
        }
    }

    /// Crashes a process: it stops reacting, though its already-sent
    /// messages may still be delivered (crash ≠ omission).
    pub fn crash(&mut self, id: ProcessId) {
        self.crashed[id.index()] = true;
    }

    /// Number of messages still in flight.
    fn in_flight_count(&self) -> usize {
        self.in_flight.len()
    }

    /// Delivers the `choice`-th in-flight message (adversary's pick);
    /// returns `false` when nothing is in flight.
    pub fn deliver_nth(&mut self, choice: usize) -> bool {
        let Some(flight) = remove_nth(&mut self.in_flight, choice) else {
            return false;
        };
        self.delivered += 1;
        let to = flight.to;
        if self.crashed[to] {
            return true; // delivered into the void
        }
        let n = self.processes.len();
        let (decided_before, view_after) = {
            let proc = &mut self.processes[to];
            proc.steps += 1;
            // Merge the gossiped view into ours: the union keeps every
            // observed entry.
            proc.view.merge_from(&flight.msg.view);
            (proc.decided.is_some() || proc.blocked, proc.view.clone())
        };
        if decided_before {
            return true;
        }
        let visible = view_after.len() - view_after.count_bottom();
        if visible + self.x < n {
            return true; // below the n − x threshold, keep collecting
        }
        match self.oracle.decode_view(&view_after) {
            Some(decoded) => {
                let value = decoded
                    .into_iter()
                    .max()
                    .expect("Theorem 1: non-empty for ≤ x missing entries");
                self.processes[to].decided = Some(value);
                // Re-broadcast the locked-in view: late processes reach
                // their threshold faster (a liveness boost, not a safety
                // mechanism — see the module-level limitation note).
                for other in 0..n {
                    if other != to {
                        self.in_flight.push_back(InFlight {
                            to: other,
                            msg: MpMessage {
                                view: view_after.clone(),
                            },
                        });
                    }
                }
            }
            None => {
                self.processes[to].blocked = true;
            }
        }
        true
    }
}

fn remove_nth<T>(queue: &mut VecDeque<T>, n: usize) -> Option<T> {
    if queue.is_empty() {
        return None;
    }
    let idx = n % queue.len();
    queue.remove(idx)
}

/// The default global delivery budget for an `n`-process run: `n·(n−1)`
/// initial broadcasts plus decider re-broadcasts and waiting slack;
/// `n² × 32` covers every schedule comfortably.
pub fn default_delivery_budget(n: usize) -> u64 {
    (n as u64).pow(2) * 32 + 128
}

/// The message-passing engine entry point, mirroring
/// [`execute_shared_memory`](crate::scheduler::execute_shared_memory):
/// runs the algorithm under a seeded delivery adversary with an explicit
/// delivery budget.
///
/// `crashes` uses the same schedule type as the shared-memory runner; a
/// process is silenced once `steps` of its messages have been delivered
/// *to* it (crash timing in an async message-passing system is only
/// meaningful relative to deliveries).
///
/// This is the backend behind `Executor::AsyncMessagePassing { seed }` in
/// `setagree-core`; experiments should go through that API rather than
/// call this directly.
pub fn execute_message_passing<V, O>(
    oracle: &O,
    x: usize,
    input: &InputVector<V>,
    crashes: &crate::scheduler::AsyncCrashes,
    seed: u64,
    max_deliveries: u64,
) -> AsyncReport<V>
where
    V: ProposalValue,
    O: ConditionOracle<V> + Clone,
{
    let n = input.len();
    let mut system = MessagePassingSystem::new(oracle.clone(), x, input);
    // Apply zero-step crashes up front (the process never participates
    // beyond its initial broadcast — which, for an initial crash, we
    // cancel by dropping its outgoing messages).
    let mut initial: Vec<ProcessId> = Vec::new();
    for id in ProcessId::all(n) {
        if crashes.budget(id) == Some(0) {
            system.crash(id);
            initial.push(id);
        }
    }
    if !initial.is_empty() {
        // Remove the initial crashers' broadcasts: they "took no step".
        system.in_flight.retain(|flight| {
            let j = &flight.msg.view;
            !initial
                .iter()
                .any(|id| j.get(*id).is_some() && j.count_bottom() == n - 1)
        });
    }

    let mut rng = SmallRng::seed_from_u64(seed);
    let mut steps = 0u64;
    while steps < max_deliveries && system.in_flight_count() > 0 {
        // Late crashes: silence processes whose delivery budget ran out.
        for id in ProcessId::all(n) {
            if let Some(b) = crashes.budget(id) {
                if b > 0 && system.processes[id.index()].steps >= b {
                    system.crash(id);
                }
            }
        }
        let choice = rng.gen_range(0..usize::MAX);
        system.deliver_nth(choice);
        steps += 1;
    }
    let outcomes = system
        .processes
        .iter()
        .zip(&system.crashed)
        .map(|(p, &crashed)| {
            if crashed {
                AsyncOutcome::Crashed
            } else {
                match &p.decided {
                    Some(v) => AsyncOutcome::Decided {
                        value: v.clone(),
                        steps: p.steps,
                    },
                    None if p.blocked => AsyncOutcome::Blocked,
                    None => AsyncOutcome::Unfinished,
                }
            }
        })
        .collect();
    AsyncReport::new(outcomes, system.delivered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::tests::run_sm;
    use crate::scheduler::AsyncCrashes;
    use setagree_conditions::{LegalityParams, MaxCondition};

    /// The message-passing engine at the default budget, as `Scenario`
    /// runs it.
    fn run_mp(
        oracle: &MaxCondition,
        x: usize,
        input: &InputVector<u32>,
        crashes: &AsyncCrashes,
        seed: u64,
    ) -> AsyncReport<u32> {
        let budget = default_delivery_budget(input.len());
        execute_message_passing(oracle, x, input, crashes, seed, budget)
    }

    fn oracle(x: usize, ell: usize) -> MaxCondition {
        MaxCondition::new(LegalityParams::new(x, ell).unwrap())
    }

    fn input(entries: &[u32]) -> InputVector<u32> {
        InputVector::new(entries.to_vec())
    }

    #[test]
    fn failure_free_terminates_with_ell_values() {
        let inp = input(&[9, 9, 8, 8, 1]);
        for seed in 0..40 {
            let report = run_mp(&oracle(2, 2), 2, &inp, &AsyncCrashes::none(), seed);
            assert!(report.all_correct_decided(), "seed {seed}: {report}");
            assert!(
                report.decided_values().len() <= 2,
                "seed {seed}: {:?}",
                report.decided_values()
            );
            for v in report.decided_values() {
                assert!(inp.distinct_values().contains(&v), "seed {seed}");
            }
        }
    }

    #[test]
    fn consensus_grade_agreement() {
        let inp = input(&[7, 7, 7, 2, 3, 7]);
        for seed in 0..40 {
            let report = run_mp(&oracle(2, 1), 2, &inp, &AsyncCrashes::none(), seed);
            assert!(report.all_correct_decided(), "seed {seed}");
            assert!(report.decided_values().len() <= 1, "seed {seed}");
        }
    }

    #[test]
    fn terminates_despite_x_initial_crashes() {
        let inp = input(&[9, 9, 9, 2, 3]);
        let crashes = AsyncCrashes::none()
            .crash_after(ProcessId::new(3), 0)
            .crash_after(ProcessId::new(4), 0);
        for seed in 0..30 {
            let report = run_mp(&oracle(2, 1), 2, &inp, &crashes, seed);
            assert_eq!(report.crashed_count(), 2, "seed {seed}");
            assert!(report.all_correct_decided(), "seed {seed}: {report}");
            assert!(report.decided_values().len() <= 1, "seed {seed}");
        }
    }

    /// The documented limitation, exhibited: outside the condition the
    /// raw message-passing collect is **unsafe** — incomparable partial
    /// views decode through different completions and split. ([20]'s
    /// message-passing protocol avoids this by emulating registers over
    /// majority quorums, i.e. by reducing to the shared-memory substrate,
    /// which [`execute_shared_memory`] keeps safe unconditionally.)
    #[test]
    fn out_of_condition_safety_is_not_guaranteed() {
        let inp = input(&[1, 2, 3, 4]);
        let mut blocked_total = 0;
        let mut max_decided = 0;
        for seed in 0..40 {
            let report = run_mp(&oracle(1, 1), 1, &inp, &AsyncCrashes::none(), seed);
            max_decided = max_decided.max(report.decided_values().len());
            blocked_total += report.blocked_count();
        }
        assert!(blocked_total > 0, "full views must prove non-membership");
        // Existence claim over a seed *range*, not an exact per-seed
        // outcome: the split only needs to be reachable somewhere in the
        // sweep, which survives changes to the RNG stream far better
        // than pinning the seed that exhibits it.
        assert!(
            max_decided > 1,
            "the split must be reachable — otherwise the limitation is stale"
        );
        // Contrast: the shared-memory substrate stays safe on the same
        // out-of-condition input under every schedule.
        for seed in 0..40 {
            let sm = run_sm(&oracle(1, 1), 1, &inp, &AsyncCrashes::none(), seed);
            assert!(
                sm.decided_values().len() <= 1,
                "seed {seed}: snapshots keep MP-safety"
            );
        }
    }

    #[test]
    fn replay_is_deterministic() {
        let inp = input(&[9, 9, 8, 8, 1]);
        let a = run_mp(&oracle(2, 2), 2, &inp, &AsyncCrashes::none(), 77);
        let b = run_mp(&oracle(2, 2), 2, &inp, &AsyncCrashes::none(), 77);
        assert_eq!(a, b);
    }

    #[test]
    fn shared_memory_and_message_passing_agree_on_guarantees() {
        // Same oracle, same input: both substrates terminate with ≤ ℓ
        // values (the decided values themselves may differ — different
        // adversaries).
        let inp = input(&[6, 6, 5, 5, 1, 6]);
        let o = oracle(2, 2);
        for seed in 0..20 {
            let mp = run_mp(&o, 2, &inp, &AsyncCrashes::none(), seed);
            let sm = run_sm(&o, 2, &inp, &AsyncCrashes::none(), seed);
            for r in [&mp, &sm] {
                assert!(r.all_correct_decided(), "seed {seed}");
                assert!(r.decided_values().len() <= 2, "seed {seed}");
            }
        }
    }
}
