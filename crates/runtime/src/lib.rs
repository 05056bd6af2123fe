//! The in-process plumbing every threaded execution tier shares: a
//! worker [`pool`] with `thread::spawn` semantics and the [`delivery`]
//! mesh that fans each broadcast out as `Arc` bumps.
//!
//! The round loop itself lives elsewhere. `Executor::Threaded` and the
//! loopback transport of `setagree-node` run `setagree_node::drive` on one
//! pooled task per process over this crate's mesh; the suite engine runs
//! its workers on the same pool.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod delivery;
pub mod pool;

pub use pool::PooledJoinHandle;
