//! The asynchronous **shared-memory adversary**: a seeded scheduler
//! interleaving process steps, with crash injection.
//!
//! # Adversary model
//!
//! Asynchrony is modelled as an adversary choosing, at every tick, which
//! process performs its next linearized memory operation (one register
//! write or one atomic snapshot per tick). The [`Scheduler`] draws that
//! choice uniformly from the runnable processes using a seeded RNG, so
//! an execution is an arbitrary-but-replayable interleaving: processes
//! can be starved for long stretches, overtaken arbitrarily often, and
//! crashed mid-protocol via an [`AsyncCrashes`] schedule (a process with
//! a step budget of `b` halts forever once it has taken `b` steps; `0`
//! is the asynchronous analogue of an initial crash). A global step
//! budget bounds the run — processes still waiting when it runs out are
//! reported as [`AsyncOutcome::Unfinished`](crate::AsyncOutcome), which
//! is how over-budget crash schedules (more than `x` crashes) surface
//! the impossibility frontier instead of hanging.
//!
//! # Seeding and determinism
//!
//! The same `(seed, input, crashes, budget)` quadruple replays the
//! byte-identical execution — that is what makes an asynchronous run a
//! [`Scenario`](../../setagree_core/experiment/struct.Scenario.html) in
//! the unified experiment API: inert, replayable data. The seed lives in the
//! executor (`Executor::AsyncSharedMemory { seed }`), not in the spec.
//! Which *outcome distribution* a range of seeds produces depends on the
//! RNG stream, so tests should assert the model's guarantees across
//! seeds (agreement, termination under ≤ x crashes) rather than exact
//! per-seed outcomes.
//!
//! # Example
//!
//! Drive the algorithm through the unified experiment API:
//!
//! ```
//! use setagree_conditions::{LegalityParams, MaxCondition};
//! use setagree_core::{Executor, Scenario};
//!
//! let params = LegalityParams::new(1, 1)?; // (x, ℓ): consensus despite 1 crash
//! let report = Scenario::async_set_agreement(4, params, MaxCondition::new(params))
//!     .input(vec![7u32, 7, 7, 2]) // top value covers > x entries: in C_max
//!     .executor(Executor::AsyncSharedMemory { seed: 42 })
//!     .run()?;
//! assert!(report.satisfies_all());
//! assert_eq!(report.executor(), Executor::AsyncSharedMemory { seed: 42 });
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::collections::BTreeMap;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use setagree_conditions::ConditionOracle;
use setagree_types::{InputVector, ProcessId, ProposalValue};

use crate::memory::SharedMemory;
use crate::process::CondSetAgreement;
use crate::report::{AsyncOutcome, AsyncReport};

/// Which processes crash, and after how many of their own steps.
///
/// A budget of `0` steps crashes the process before it writes its proposal
/// (the asynchronous analogue of an initial crash).
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct AsyncCrashes {
    crashes: BTreeMap<ProcessId, u64>,
}

impl AsyncCrashes {
    /// No crashes.
    pub fn none() -> Self {
        AsyncCrashes::default()
    }

    /// Crashes `id` after it has taken `steps` steps.
    pub fn crash_after(mut self, id: ProcessId, steps: u64) -> Self {
        self.crashes.insert(id, steps);
        self
    }

    /// The number of faulty processes.
    pub fn fault_count(&self) -> usize {
        self.crashes.len()
    }

    /// The step budget after which `id` crashes, if it is faulty.
    pub fn budget(&self, id: ProcessId) -> Option<u64> {
        self.crashes.get(&id).copied()
    }

    /// The scheduled victims, in process order — lets callers validate a
    /// schedule against their system size (the engines silently ignore
    /// out-of-range victims, since a schedule does not fix `n`).
    pub fn victims(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.crashes.keys().copied()
    }
}

/// A seeded, adversarial interleaving of process steps.
///
/// Each scheduler tick picks a uniformly random runnable process and lets
/// it perform one linearized memory operation. Determinism: the same seed,
/// crashes and inputs replay the same execution.
#[derive(Debug)]
pub struct Scheduler {
    rng: SmallRng,
    max_steps: u64,
}

impl Scheduler {
    /// A scheduler with the given seed and a global step budget (the run
    /// stops once the budget is exhausted; still-running processes are
    /// reported as blocked-by-scheduler via [`AsyncOutcome::Unfinished`]).
    pub fn new(seed: u64, max_steps: u64) -> Self {
        Scheduler {
            rng: SmallRng::seed_from_u64(seed),
            max_steps,
        }
    }

    /// Runs the processes to completion (or budget exhaustion).
    pub fn run<V, O>(
        &mut self,
        mut processes: Vec<CondSetAgreement<V, O>>,
        memory: &mut SharedMemory<V>,
        crashes: &AsyncCrashes,
    ) -> AsyncReport<V>
    where
        V: ProposalValue,
        O: ConditionOracle<V>,
    {
        let n = processes.len();
        let mut crashed = vec![false; n];
        let mut total_steps: u64 = 0;

        loop {
            let runnable: Vec<usize> = (0..n)
                .filter(|&i| !crashed[i] && !processes[i].is_settled())
                .collect();
            if runnable.is_empty() || total_steps >= self.max_steps {
                break;
            }
            let idx = runnable[self.rng.gen_range(0..runnable.len())];
            let id = ProcessId::new(idx);
            // Crash check: a process with an exhausted budget stops now.
            if let Some(budget) = crashes.budget(id) {
                if processes[idx].steps_taken() >= budget {
                    crashed[idx] = true;
                    continue;
                }
            }
            processes[idx].step(memory);
            total_steps += 1;
        }

        let outcomes = processes
            .iter()
            .enumerate()
            .map(|(i, p)| {
                if crashed[i] {
                    AsyncOutcome::Crashed
                } else {
                    match p.decision() {
                        Some(v) => AsyncOutcome::Decided {
                            value: v.clone(),
                            steps: p.steps_taken(),
                        },
                        None if p.is_settled() => AsyncOutcome::Blocked,
                        None => AsyncOutcome::Unfinished,
                    }
                }
            })
            .collect();
        AsyncReport::new(outcomes, total_steps)
    }
}

/// The default global step budget for an `n`-process run: each process
/// needs 2 steps plus retries while waiting for slow writers; `n² × 16`
/// covers every schedule comfortably.
pub fn default_step_budget(n: usize) -> u64 {
    (n as u64).pow(2) * 16 + 64
}

/// The shared-memory engine entry point: builds the processes from an
/// input vector and runs them under the seeded scheduler with an explicit
/// global step budget.
///
/// `x` is the crash tolerance the oracle's condition is designed for; the
/// schedule in `crashes` may exceed it (the function does not enforce the
/// bound — over-budget schedules are how the tests probe the
/// impossibility frontier, and stranded processes surface honestly as
/// [`AsyncOutcome::Unfinished`](crate::AsyncOutcome)).
///
/// This is the backend behind `Executor::AsyncSharedMemory { seed }` in
/// `setagree-core`; experiments should go through that API rather than
/// call this directly.
pub fn execute_shared_memory<V, O>(
    oracle: &O,
    x: usize,
    input: &InputVector<V>,
    crashes: &AsyncCrashes,
    seed: u64,
    max_steps: u64,
) -> AsyncReport<V>
where
    V: ProposalValue,
    O: ConditionOracle<V> + Clone,
{
    let n = input.len();
    let mut memory = SharedMemory::new(n);
    let processes: Vec<CondSetAgreement<V, O>> = ProcessId::all(n)
        .map(|id| CondSetAgreement::new(id, x, input.get(id).clone(), oracle.clone()))
        .collect();
    Scheduler::new(seed, max_steps).run(processes, &mut memory, crashes)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use setagree_conditions::{LegalityParams, MaxCondition};

    /// The shared-memory engine at the default budget, as `Scenario`
    /// runs it.
    pub(crate) fn run_sm(
        oracle: &MaxCondition,
        x: usize,
        input: &InputVector<u32>,
        crashes: &AsyncCrashes,
        seed: u64,
    ) -> AsyncReport<u32> {
        let budget = default_step_budget(input.len());
        execute_shared_memory(oracle, x, input, crashes, seed, budget)
    }

    fn oracle(x: usize, ell: usize) -> MaxCondition {
        MaxCondition::new(LegalityParams::new(x, ell).unwrap())
    }

    fn input(entries: &[u32]) -> InputVector<u32> {
        InputVector::new(entries.to_vec())
    }

    #[test]
    fn failure_free_in_condition_terminates_with_ell_values() {
        // (x, ℓ) = (2, 2); input's top-2 {8, 9} occupy 4 > 2 entries: in C.
        let inp = input(&[9, 9, 8, 8, 1]);
        for seed in 0..30 {
            let report = run_sm(&oracle(2, 2), 2, &inp, &AsyncCrashes::none(), seed);
            assert!(report.all_settled_or_crashed(), "seed {seed}");
            assert!(report.decided_values().len() <= 2, "seed {seed}");
            for v in report.decided_values() {
                assert!(inp.distinct_values().contains(&v), "seed {seed}");
            }
            assert_eq!(report.crashed_count(), 0);
            assert_eq!(report.blocked_count(), 0);
        }
    }

    #[test]
    fn terminates_despite_x_crashes() {
        let inp = input(&[9, 9, 9, 2, 3]);
        let crashes = AsyncCrashes::none()
            .crash_after(ProcessId::new(3), 0)
            .crash_after(ProcessId::new(4), 1);
        for seed in 0..30 {
            let report = run_sm(&oracle(2, 1), 2, &inp, &crashes, seed);
            assert!(report.all_settled_or_crashed(), "seed {seed}: {report}");
            // Model guarantee, not a seed artefact: a budgeted process
            // stays runnable until scheduled past its budget, and the run
            // cannot end while it is runnable — so both crashes land on
            // every schedule.
            assert_eq!(report.crashed_count(), 2);
            // ℓ = 1: consensus-grade agreement among survivors.
            assert!(report.decided_values().len() <= 1, "seed {seed}");
        }
    }

    #[test]
    fn blocks_outside_condition() {
        // All values distinct: outside C_max(1,1). A process whose
        // snapshot refutes the condition blocks — the honest price of the
        // condition-based approach. A process whose early n − x snapshot
        // is still *compatible* with C may decide optimistically;
        // agreement must hold among those regardless. The last writer
        // always snapshots the full vector, so at least one process
        // blocks on every schedule.
        let inp = input(&[1, 2, 3, 4]);
        let mut fully_blocked = 0;
        for seed in 0..30 {
            let report = run_sm(&oracle(1, 1), 1, &inp, &AsyncCrashes::none(), seed);
            assert!(report.all_settled_or_crashed(), "seed {seed}: {report}");
            assert!(
                report.blocked_count() >= 1,
                "seed {seed}: full snapshot must refute C"
            );
            assert!(report.decided_values().len() <= 1, "seed {seed}: agreement");
            if report.blocked_count() == 4 {
                fully_blocked += 1;
            }
        }
        assert!(fully_blocked > 0, "some schedule must block every process");
    }

    #[test]
    fn too_many_crashes_strand_the_survivor_on_every_schedule() {
        // x = 1 condition but 3 initial crashes: the lone survivor can
        // only ever see its own entry, one short of the n − x = 3 it
        // waits for. That is a model guarantee — no initial crasher ever
        // writes — so it holds on *every* schedule, not just one seed.
        let inp = input(&[5, 5, 1, 2]);
        let crashes = AsyncCrashes::none()
            .crash_after(ProcessId::new(0), 0)
            .crash_after(ProcessId::new(1), 0)
            .crash_after(ProcessId::new(2), 0);
        for seed in 0..30 {
            let report = run_sm(&oracle(1, 1), 1, &inp, &crashes, seed);
            assert_eq!(report.crashed_count(), 3, "seed {seed}");
            assert_eq!(report.unfinished_count(), 1, "seed {seed}: {report}");
            assert!(!report.all_settled_or_crashed(), "seed {seed}");
        }
    }

    #[test]
    fn replay_is_deterministic() {
        let inp = input(&[9, 9, 8, 8, 1]);
        let crashes = AsyncCrashes::none().crash_after(ProcessId::new(2), 1);
        let a = run_sm(&oracle(2, 2), 2, &inp, &crashes, 99);
        let b = run_sm(&oracle(2, 2), 2, &inp, &crashes, 99);
        assert_eq!(a, b);
    }

    #[test]
    fn crash_accounting() {
        let c = AsyncCrashes::none()
            .crash_after(ProcessId::new(0), 0)
            .crash_after(ProcessId::new(1), 2);
        assert_eq!(c.fault_count(), 2);
        assert_eq!(AsyncCrashes::none().fault_count(), 0);
    }
}
