//! # setagree-node — the networked execution tier
//!
//! The paper's processes (Bonnet & Raynal, ICDCS 2008) are
//! message-passing programs; this crate runs them as *real nodes*. Each
//! node drives one [`SyncProtocol`](setagree_sync::SyncProtocol)
//! instance through the shared round loop ([`drive`]) over a
//! [`Transport`]:
//!
//! * [`LoopbackTransport`] — in-process node tasks over the shared
//!   [`delivery`](setagree_runtime::delivery) mesh. Trace-equivalent to
//!   the deterministic simulator (pinned by the
//!   `tests/node_equivalence.rs` property suite); the backend of both
//!   `Executor::Threaded` and
//!   `Executor::Networked { transport: TransportKind::Loopback }` in
//!   `setagree-core`.
//! * [`TcpTransport`] — real sockets between node processes, framed
//!   with the self-contained length-prefixed [`Frame`] codec (the
//!   vendored `serde` is a no-op shim, so the wire format is explicit).
//!
//! Crash injection is **kill-based** in both: a victim *leaves* at its
//! scheduled point — after its ordered-send prefix — instead of
//! lingering silently. A loopback victim's task exits and its channel
//! closes; a TCP victim's process aborts and peers observe end-of-stream.
//! The [`testnet`] harness orchestrates the multi-process version:
//! spawn `n` node binaries, kill the victims, collect the survivors'
//! outcomes into a [`Trace`](setagree_sync::Trace).
//!
//! # Example: four loopback nodes, one killed
//!
//! ```
//! use setagree_node::run_loopback;
//! use setagree_sync::{CrashSpec, FailurePattern, Step, SyncProtocol};
//! use setagree_types::ProcessId;
//!
//! /// A three-round max-flood: decides the largest input it heard.
//! struct MaxFlood { best: u32 }
//! impl SyncProtocol for MaxFlood {
//!     type Msg = u32;
//!     type Output = u32;
//!     fn message(&mut self, _round: usize) -> u32 { self.best }
//!     fn receive(&mut self, _round: usize, _from: ProcessId, msg: &u32) {
//!         self.best = self.best.max(*msg);
//!     }
//!     fn compute(&mut self, round: usize) -> Step<u32> {
//!         if round >= 3 { Step::Decide(self.best) } else { Step::Continue }
//!     }
//! }
//!
//! let procs: Vec<_> = [3u32, 9, 1, 4].into_iter().map(|best| MaxFlood { best }).collect();
//! let mut pattern = FailurePattern::none(4);
//! pattern.crash(ProcessId::new(2), CrashSpec::new(1, 0))?;
//! let trace = run_loopback(procs, &pattern, 10)?;
//! assert_eq!(trace.decided_values(), [9].into_iter().collect());
//! assert_eq!(trace.crashed_count(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod cli;
pub mod config;
pub mod faulty;
pub mod loopback;
pub mod node;
pub mod tcp;
pub mod testnet;
pub mod transport;

pub use cli::{fault_plan, parse_command, CliError, NodeCommand, RunArgs, TestnetArgs, USAGE};
pub use config::{localhost_peers, parse_peers, ConfigError, NodeConfig};
// The frame codec moved to the shared `setagree-codec` wire tier; both
// the module path and the flat re-exports keep working from here.
pub use faulty::{run_loopback_faulty, FaultyTransport};
pub use loopback::{loopback_mesh, LoopbackTransport, RoundGate};
pub use node::{drive, run_loopback, DriveError, NodeError};
pub use setagree_codec::frame;
pub use setagree_codec::{Frame, FrameError, FrameKind, MAX_FRAME_LEN};
pub use tcp::{TcpError, TcpTransport};
pub use testnet::{run_testnet, run_testnet_observed, TestnetConfig, TestnetError};
pub use transport::{
    DenseViewCodec, MsgCodec, Transport, TransportKind, Typed, TypedError, U32Codec,
    UnknownTransport,
};
