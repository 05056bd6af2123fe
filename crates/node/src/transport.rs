//! The transport abstraction: how a node's round broadcasts reach its
//! peers.
//!
//! The networked tier separates *protocol driving* (the generic round
//! loop in [`drive`](crate::drive)) from *message movement* (this trait).
//! Two implementations ship:
//!
//! * [`LoopbackTransport`](crate::LoopbackTransport) — in-process tasks
//!   over the shared [`delivery`](setagree_runtime::delivery) mesh,
//!   trace-equivalent to the simulator;
//! * [`TcpTransport`](crate::TcpTransport) — real sockets with
//!   length-prefixed [`Frame`](crate::Frame)s, where a peer's death is
//!   observed as end-of-stream.

use std::borrow::Borrow;
use std::fmt;
use std::str::FromStr;

use setagree_types::ProcessId;

/// Which transport a networked execution runs on. The payload of
/// `Executor::Networked` in `setagree-core`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TransportKind {
    /// In-process tasks over channels; trace-equivalent to the simulator.
    #[default]
    Loopback,
    /// Real TCP sockets between node processes (via the testnet harness
    /// and the `setagree-node` binary).
    Tcp,
}

impl fmt::Display for TransportKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportKind::Loopback => write!(f, "loopback"),
            TransportKind::Tcp => write!(f, "tcp"),
        }
    }
}

impl FromStr for TransportKind {
    type Err = UnknownTransport;

    fn from_str(s: &str) -> Result<TransportKind, UnknownTransport> {
        match s {
            "loopback" => Ok(TransportKind::Loopback),
            "tcp" => Ok(TransportKind::Tcp),
            other => Err(UnknownTransport {
                name: other.to_string(),
            }),
        }
    }
}

/// An unrecognized transport name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownTransport {
    /// The offending name.
    pub name: String,
}

impl fmt::Display for UnknownTransport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown transport {:?} (expected loopback or tcp)",
            self.name
        )
    }
}

impl std::error::Error for UnknownTransport {}

/// One node's connection to the rest of the system, for one execution.
///
/// The [`drive`](crate::drive) loop calls, per round and in order:
/// [`broadcast`](Transport::broadcast), [`sends_done`](Transport::sends_done),
/// then either [`collect`](Transport::collect) +
/// (optionally) [`settle`](Transport::settle) followed by
/// [`round_done`](Transport::round_done), or — when the node crashes or
/// its protocol panics mid-round — [`depart`](Transport::depart).
///
/// `Letter` lets each transport pick its natural delivery representation
/// without copies: the loopback hands out the sender's `Arc<Msg>`, a
/// byte transport hands out decoded owned values.
pub trait Transport {
    /// The broadcast payload type.
    type Msg;
    /// What a delivery dereferences to — anything that borrows as `Msg`.
    type Letter: Borrow<Self::Msg>;
    /// Transport-level failure.
    type Error: fmt::Debug + fmt::Display;

    /// The system size.
    fn n(&self) -> usize;

    /// The process this transport belongs to.
    fn me(&self) -> ProcessId;

    /// Broadcasts `msg` to recipients `p_1 … p_reach` in the predetermined
    /// order — the paper's ordered-send model, where `reach < n` realizes
    /// a crash that delivered only a prefix.
    fn broadcast(&mut self, round: usize, msg: Self::Msg, reach: usize) -> Result<(), Self::Error>;

    /// Marks the end of this node's send phase for `round` (loopback:
    /// a gate crossing; TCP: a flush). After it returns, all of the
    /// round's deliveries to this node are determined.
    fn sends_done(&mut self, round: usize) -> Result<(), Self::Error>;

    /// This round's inbox, sorted by sender.
    fn collect(&mut self, round: usize) -> Result<Vec<(ProcessId, Self::Letter)>, Self::Error>;

    /// Announces that this node settled (decided) at the end of `round`:
    /// peers stop delivering to it and stop waiting for it after that
    /// round.
    fn settle(&mut self, round: usize) -> Result<(), Self::Error>;

    /// End-of-round synchronization. `settled` is whether this node has
    /// settled; returns `true` when the execution is over for this node
    /// and the round loop should stop.
    fn round_done(&mut self, round: usize, settled: bool) -> Result<bool, Self::Error>;

    /// Abrupt, kill-style departure mid-round: used both for injected
    /// crashes and for panic bail-out. The node leaves the round
    /// structure immediately; peers observe the death through the
    /// transport (settled flag + closed channel, or end-of-stream).
    fn depart(&mut self, round: usize);
}

/// A mutable reference drives like the transport itself — so a caller
/// (e.g. the node binary) can lend its transport to
/// [`drive`](crate::drive) and still read its counters afterwards.
impl<T: Transport> Transport for &mut T {
    type Msg = T::Msg;
    type Letter = T::Letter;
    type Error = T::Error;

    fn n(&self) -> usize {
        (**self).n()
    }

    fn me(&self) -> ProcessId {
        (**self).me()
    }

    fn broadcast(&mut self, round: usize, msg: T::Msg, reach: usize) -> Result<(), T::Error> {
        (**self).broadcast(round, msg, reach)
    }

    fn sends_done(&mut self, round: usize) -> Result<(), T::Error> {
        (**self).sends_done(round)
    }

    fn collect(&mut self, round: usize) -> Result<Vec<(ProcessId, T::Letter)>, T::Error> {
        (**self).collect(round)
    }

    fn settle(&mut self, round: usize) -> Result<(), T::Error> {
        (**self).settle(round)
    }

    fn round_done(&mut self, round: usize, settled: bool) -> Result<bool, T::Error> {
        (**self).round_done(round, settled)
    }

    fn depart(&mut self, round: usize) {
        (**self).depart(round)
    }
}

/// Encodes one protocol's messages for a byte transport.
///
/// The vendored `serde` is a no-op shim, so typed messages cross the
/// wire through explicit codecs — the same approach the suite cache
/// takes with its token codec.
pub trait MsgCodec {
    /// The typed message.
    type Msg;

    /// The message's wire bytes.
    fn encode(&self, msg: &Self::Msg) -> Vec<u8>;

    /// Decodes wire bytes; `None` marks a malformed payload.
    fn decode(&self, bytes: &[u8]) -> Option<Self::Msg>;
}

/// The codec for `u32` payloads (e.g. `FloodSet<u32>` messages): four
/// little-endian bytes.
#[derive(Debug, Clone, Copy, Default)]
pub struct U32Codec;

impl MsgCodec for U32Codec {
    type Msg = u32;

    fn encode(&self, msg: &u32) -> Vec<u8> {
        msg.to_le_bytes().to_vec()
    }

    fn decode(&self, bytes: &[u8]) -> Option<u32> {
        Some(u32::from_le_bytes(bytes.try_into().ok()?))
    }
}

/// Lifts a byte transport (`Msg = Vec<u8>`) to a typed one through a
/// [`MsgCodec`].
#[derive(Debug)]
pub struct Typed<T, C> {
    inner: T,
    codec: C,
}

impl<T, C> Typed<T, C> {
    /// Wraps `inner`, moving messages through `codec`.
    pub fn new(inner: T, codec: C) -> Typed<T, C> {
        Typed { inner, codec }
    }

    /// The wrapped byte transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }
}

/// A typed-transport failure: the underlying transport failed, or a peer
/// sent undecodable bytes.
#[derive(Debug)]
pub enum TypedError<E> {
    /// The byte transport failed.
    Transport(E),
    /// A payload did not decode.
    Codec {
        /// The sender of the malformed payload.
        from: ProcessId,
        /// The round it arrived in.
        round: usize,
    },
}

impl<E: fmt::Display> fmt::Display for TypedError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypedError::Transport(e) => write!(f, "{e}"),
            TypedError::Codec { from, round } => {
                write!(f, "undecodable payload from {from} in round {round}")
            }
        }
    }
}

impl<E: fmt::Debug + fmt::Display> std::error::Error for TypedError<E> {}

impl<T, C> Transport for Typed<T, C>
where
    T: Transport<Msg = Vec<u8>>,
    C: MsgCodec,
{
    type Msg = C::Msg;
    type Letter = C::Msg;
    type Error = TypedError<T::Error>;

    fn n(&self) -> usize {
        self.inner.n()
    }

    fn me(&self) -> ProcessId {
        self.inner.me()
    }

    fn broadcast(&mut self, round: usize, msg: C::Msg, reach: usize) -> Result<(), Self::Error> {
        self.inner
            .broadcast(round, self.codec.encode(&msg), reach)
            .map_err(TypedError::Transport)
    }

    fn sends_done(&mut self, round: usize) -> Result<(), Self::Error> {
        self.inner.sends_done(round).map_err(TypedError::Transport)
    }

    fn collect(&mut self, round: usize) -> Result<Vec<(ProcessId, C::Msg)>, Self::Error> {
        self.inner
            .collect(round)
            .map_err(TypedError::Transport)?
            .into_iter()
            .map(|(from, letter)| {
                let msg = self
                    .codec
                    .decode(letter.borrow())
                    .ok_or(TypedError::Codec { from, round })?;
                Ok((from, msg))
            })
            .collect()
    }

    fn settle(&mut self, round: usize) -> Result<(), Self::Error> {
        self.inner.settle(round).map_err(TypedError::Transport)
    }

    fn round_done(&mut self, round: usize, settled: bool) -> Result<bool, Self::Error> {
        self.inner
            .round_done(round, settled)
            .map_err(TypedError::Transport)
    }

    fn depart(&mut self, round: usize) {
        self.inner.depart(round);
    }
}
