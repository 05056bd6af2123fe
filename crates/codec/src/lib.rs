//! # setagree-codec — the wire tier
//!
//! The build environment is offline and the vendored `serde` is a no-op
//! shim (its derives expand to nothing), so every byte that crosses a
//! process or file boundary in this workspace goes through the explicit,
//! hand-rolled codecs in this crate. Three layers, bottom up:
//!
//! * [`wire`] — primitive little-endian [`Writer`]/[`Reader`] pairs with
//!   a never-panicking, allocation-bounded decode discipline: a reader
//!   checks every length and count against the bytes it actually holds
//!   before allocating, so hostile input cannot balloon memory.
//! * [`frame`] — the length-prefixed network [`Frame`] of the TCP
//!   transport (extracted from `setagree-node`, which re-exports it).
//! * [`chain`] + [`journal`] — an append-only, **hash-chained execution
//!   journal**: every record stores the two-lane, word-at-a-time
//!   [`chain::Mixer`] hash of (predecessor hash ‖ payload length ‖
//!   payload), a [`Cursor`] streams records back for replay, and a
//!   truncated or corrupted tail is *detected and reported*
//!   ([`JournalTail`]) rather than panicked on — the valid prefix always
//!   survives. This is what makes suite sweeps resumable after a crash;
//!   the same mixer derives `setagree-core`'s cache keys.
//!
//! Decoding arbitrary bytes through any of these layers never panics; a
//! fuzz-grade proptest battery (`tests/journal_roundtrip.rs`,
//! `tests/journal_chain.rs` at the workspace root) pins both that and
//! byte-identical round-trips.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod chain;
pub mod dense;
pub mod frame;
pub mod journal;
pub mod obs;
pub mod wire;

pub use chain::ChainHash;
pub use dense::{decode_dense_view, encode_dense_view};
pub use frame::{Frame, FrameError, FrameKind, MAX_FRAME_LEN};
pub use journal::{Cursor, JournalTail, JournalWriter, JOURNAL_MAGIC, MAX_RECORD_LEN};
pub use obs::SnapshotCodec;
pub use wire::{DecodeError, Reader, Writer};
