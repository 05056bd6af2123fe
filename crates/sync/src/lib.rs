//! A deterministic synchronous round-based message-passing simulator with
//! crash failures — the computation model of Section 6.2 of Bonnet &
//! Raynal (ICDCS 2008).
//!
//! The model:
//!
//! * executions proceed in rounds `1, 2, …`; each round has a **send**
//!   phase, a **receive** phase and a **compute** phase;
//! * a message sent in round `r` is received in round `r` (synchrony);
//! * every process broadcasts in the predetermined order `p_1, …, p_n`;
//!   a process that crashes during its send phase delivers only a
//!   **prefix** of its sends — this ordered-send discipline is what gives
//!   round-1 views that are totally ordered by containment (the paper's
//!   departure from the standard model, discussed in Section 6.2);
//! * at most `t` processes crash; crashed processes take no further steps.
//!
//! Protocols implement [`SyncProtocol`]; the adversary is an explicit,
//! replayable [`FailurePattern`]; [`run_protocol`] executes the system and
//! returns a [`Trace`] recording who decided what and when.
//!
//! # Example
//!
//! ```
//! use setagree_sync::{run_protocol, FailurePattern, Step, SyncProtocol};
//! use setagree_types::ProcessId;
//!
//! /// A one-round protocol: everyone broadcasts its input and decides the max.
//! struct MaxOnce { input: u32, best: u32 }
//! impl SyncProtocol for MaxOnce {
//!     type Msg = u32;
//!     type Output = u32;
//!     fn message(&mut self, _round: usize) -> u32 { self.input }
//!     fn receive(&mut self, _round: usize, _from: ProcessId, msg: &u32) {
//!         self.best = self.best.max(*msg);
//!     }
//!     fn compute(&mut self, _round: usize) -> Step<u32> { Step::Decide(self.best) }
//! }
//!
//! let procs = (1..=4u32).map(|input| MaxOnce { input, best: 0 }).collect();
//! let trace = run_protocol(procs, &FailurePattern::none(4), 10).unwrap();
//! assert_eq!(trace.decided_values(), [4].into_iter().collect());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod adversary;
pub mod bounds;
pub mod engine;
pub mod fault;
pub mod protocol;
pub mod trace;

pub use adversary::{
    CrashSpec, FailurePattern, PatternError, SubsetCrash, UnorderedFailurePattern,
};
pub use engine::{
    run_protocol, run_protocol_faulty, run_protocol_unordered, run_protocol_unordered_faulty,
    EngineError,
};
pub use fault::{FaultInbox, FaultPlan, LinkFault, Partition, RATE_SCALE};
pub use protocol::{Step, SyncProtocol};
pub use trace::{Outcome, Trace};
