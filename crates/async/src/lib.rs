//! The asynchronous side of the paper (Section 4): a simulated
//! linearizable shared memory with atomic snapshots, and the
//! condition-based **ℓ-set agreement** algorithm that generalizes the
//! consensus protocol of Mostefaoui–Rajsbaum–Raynal \[20\] to
//! (x, ℓ)-legal conditions.
//!
//! In an asynchronous system prone to `x` crashes, ℓ-set agreement is
//! unsolvable when `ℓ ≤ x` — unless the inputs are restricted. With an
//! (x, ℓ)-legal condition the algorithm is simple:
//!
//! 1. write your proposal into your single-writer register;
//! 2. repeatedly take atomic snapshots until at least `n − x` entries are
//!    non-`⊥` (with at most `x` crashes this terminates);
//! 3. if the snapshot `J` is compatible with the condition (`P(J)`),
//!    decide `max(h_ℓ(J))` — Theorem 1 guarantees `h_ℓ(J)` is non-empty
//!    and, because snapshots are totally ordered by containment, at most ℓ
//!    distinct values are decided system-wide.
//!
//! When the input vector is **outside** the condition the algorithm may
//! block — that is the price the condition-based approach pays for
//! circumventing the impossibility, and the executions report it honestly
//! as [`AsyncOutcome::Blocked`].
//!
//! The substrate ([`SharedMemory`]) is a single-writer multi-reader
//! register array with an atomic snapshot operation, after Afek et al.;
//! the simulation schedules process steps sequentially (each step is one
//! linearized memory operation), so linearizability holds by construction
//! while the seeded [`Scheduler`] adversary controls interleaving and
//! crashes.
//!
//! # Driving the asynchronous protocols
//!
//! Experiments run through the unified `Scenario`/`Executor` API of
//! `setagree-core`: the two asynchronous runtimes are the
//! `Executor::AsyncSharedMemory { seed }` and
//! `Executor::AsyncMessagePassing { seed }` executors, crash schedules
//! are [`AsyncCrashes`] adversaries, and results come back as the same
//! unified `Report` the synchronous protocols produce (with the raw
//! [`AsyncReport`] still reachable through it). The seed is executor
//! state — the spec and input stay inert, replayable data:
//!
//! ```
//! use setagree_async::AsyncCrashes;
//! use setagree_conditions::{LegalityParams, MaxCondition};
//! use setagree_core::{Executor, Scenario};
//! use setagree_types::ProcessId;
//!
//! let params = LegalityParams::new(2, 2)?; // tolerate x = 2 crashes, decide ≤ ℓ = 2 values
//! let report = Scenario::async_set_agreement(5, params, MaxCondition::new(params))
//!     .input(vec![9u32, 9, 8, 8, 1]) // top-2 {9, 8} cover > x entries: in C_max
//!     .pattern(AsyncCrashes::none().crash_after(ProcessId::new(4), 1))
//!     .executor(Executor::AsyncSharedMemory { seed: 7 })
//!     .run()?;
//! assert!(report.satisfies_all());
//! assert!(report.decided_values().len() <= 2);
//! let raw = report.async_report().expect("asynchronous execution");
//! assert_eq!(raw.crashed_count(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! `Scenario` runs the engines [`execute_shared_memory`] and
//! [`execute_message_passing`] at [`default_step_budget`] and
//! [`default_delivery_budget`] unless a step budget is set; call the
//! engines directly for an explicit budget. Identical seeds replay
//! identical executions.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod memory;
pub mod message_passing;
pub mod process;
pub mod report;
pub mod scheduler;

pub use memory::SharedMemory;
pub use message_passing::{
    default_delivery_budget, execute_message_passing, MessagePassingSystem, MpMessage,
};
pub use process::{AsyncPhase, CondSetAgreement};
pub use report::{AsyncOutcome, AsyncReport};
pub use scheduler::{default_step_budget, execute_shared_memory, AsyncCrashes, Scheduler};
