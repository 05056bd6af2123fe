//! The TCP transport: real sockets between node processes, framed with
//! the length-prefixed [`Frame`] codec.
//!
//! A node establishes a full mesh at startup — it dials every lower id
//! (retrying until the connect deadline, so start order does not matter)
//! and accepts a [`FrameKind::Hello`]-identified connection from every
//! higher id. One reader thread per peer feeds a single event channel,
//! preserving each peer's frame order.
//!
//! There is no barrier over TCP: lock-step rounds emerge from
//! [`collect`](Transport::collect), which blocks until every live,
//! unsettled peer has contributed its frame for the round (early frames
//! from fast peers are buffered per round). A deciding node announces
//! [`FrameKind::Settled`] so peers distinguish a clean exit from a kill.
//!
//! # Self-healing
//!
//! An anomaly is not instantly a death. A round that stalls
//! rebroadcasts [`FrameKind::Resend`] requests, and any peer answers
//! with [`FrameKind::Relay`] copies of the round's broadcasts it has
//! seen (including a crashed sender's delivered prefix — relays
//! propagate it to peers the prefix missed). A resend changes no link
//! state.
//!
//! A link is up, or closed since some instant, and a break closes it
//! once: a `Closed` from a replaced stream is stale. The dialing side
//! then redials with doubling backoff and the accepting side waits on
//! its persistent listener, both for one reconnect window. A
//! re-handshake that beats the old stream's close is parked until that
//! close arrives, and discarded once older than the window, so a stray
//! hello never takes over a link. A successful re-handshake resumes at
//! the current round by replaying the sender's recent frames. A link
//! closed for the whole window, or through a round deadline, confirms
//! the peer dead. A peer that stays *connected but silent* past
//! `round_timeout` is **not** declared crashed — that would fabricate a
//! paper-model failure the adversary never scheduled — and surfaces as
//! [`TcpError::RoundTimeout`] instead.
//!
//! # Injected faults
//!
//! An optional [`FaultPlan`] (see [`NodeConfig::fault_plan`]) filters
//! **first-arrival [`FrameKind::Msg`] frames** at the receive boundary
//! with the same per-`(round, sender, receiver)` decisions the
//! simulator uses. Recovery frames ([`FrameKind::Relay`]) are exempt:
//! the plan models loss of the original transmission, and recovery is
//! recovery. Consequences of real sockets:
//!
//! * a **drop** (or a partition cut) loses the original frame; the
//!   round then heals through resend/relay, so the verdict survives;
//! * a **delay** stashes the original for a later round's inbox while
//!   the current round heals through relay — over TCP a delay behaves
//!   like a drop-with-recovery plus a stale duplicate;
//! * a **duplicate** is absorbed by the sender-keyed round inbox;
//! * a **reorder** is absorbed by the ordered collect.
//!
//! Strict byte-level trace equality under a plan is a simulator ↔
//! loopback property (`tests/fault_equivalence.rs`); the TCP tier's
//! contract is to *survive* the plan with a correct verdict.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::{mpsc, Arc, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

use setagree_obs::Counter;
use setagree_sync::{FaultPlan, LinkFault};
use setagree_types::ProcessId;

use crate::config::NodeConfig;
use crate::frame::{Frame, FrameError, FrameKind};
use crate::transport::Transport;

/// How many past rounds of broadcasts are retained for relay service.
const RELAY_KEEP: usize = 4;

/// Poll granularity of the collect loop: how often reconnect windows
/// and the round deadline are re-checked while blocked on the event
/// channel.
const COLLECT_TICK: Duration = Duration::from_millis(25);

/// First delay of a redial campaign; doubles per attempt.
const REDIAL_BASE_DELAY: Duration = Duration::from_millis(25);

/// How long a closed link may take to re-handshake before the peer is
/// confirmed dead. Also the lifetime of a parked re-handshake.
const RECONNECT_WINDOW: Duration = Duration::from_millis(500);

/// Every frame kind, in tag order — drives the per-kind counter arrays.
const FRAME_KINDS: [FrameKind; 5] = [
    FrameKind::Hello,
    FrameKind::Msg,
    FrameKind::Settled,
    FrameKind::Resend,
    FrameKind::Relay,
];

/// The `kind` label value for a frame-kind counter.
fn kind_label(kind: FrameKind) -> &'static str {
    match kind {
        FrameKind::Hello => "hello",
        FrameKind::Msg => "msg",
        FrameKind::Settled => "settled",
        FrameKind::Resend => "resend",
        FrameKind::Relay => "relay",
    }
}

/// Index of `kind` into a [`FRAME_KINDS`]-ordered counter array.
fn kind_index(kind: FrameKind) -> usize {
    match kind {
        FrameKind::Hello => 0,
        FrameKind::Msg => 1,
        FrameKind::Settled => 2,
        FrameKind::Resend => 3,
        FrameKind::Relay => 4,
    }
}

/// Registry handles for the transport counters, resolved once per
/// process so the per-frame cost is one relaxed load plus one atomic
/// add. `tcp_frames_sent`/`tcp_frames_received` are labeled by frame
/// kind; the recovery counters (`tcp_frames_resent`,
/// `tcp_relays_served`, `tcp_redial_*`, `tcp_peers_confirmed_down`,
/// `tcp_round_timeouts`) expose how hard the self-healing machinery is
/// working.
struct TcpMetrics {
    frames_sent: [Arc<Counter>; 5],
    frames_received: [Arc<Counter>; 5],
    frames_resent: Arc<Counter>,
    relays_served: Arc<Counter>,
    redial_attempts: Arc<Counter>,
    redials_ok: Arc<Counter>,
    redials_failed: Arc<Counter>,
    peers_confirmed_down: Arc<Counter>,
    round_timeouts: Arc<Counter>,
}

fn tcp_metrics() -> &'static TcpMetrics {
    static METRICS: OnceLock<TcpMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let per_kind = |name: &'static str| {
            FRAME_KINDS.map(|kind| setagree_obs::counter(name, &[("kind", kind_label(kind))]))
        };
        TcpMetrics {
            frames_sent: per_kind("tcp_frames_sent"),
            frames_received: per_kind("tcp_frames_received"),
            frames_resent: setagree_obs::counter("tcp_frames_resent", &[]),
            relays_served: setagree_obs::counter("tcp_relays_served", &[]),
            redial_attempts: setagree_obs::counter("tcp_redial_attempts", &[]),
            redials_ok: setagree_obs::counter("tcp_redials_ok", &[]),
            redials_failed: setagree_obs::counter("tcp_redials_failed", &[]),
            peers_confirmed_down: setagree_obs::counter("tcp_peers_confirmed_down", &[]),
            round_timeouts: setagree_obs::counter("tcp_round_timeouts", &[]),
        }
    })
}

/// A TCP transport failure.
#[derive(Debug)]
#[non_exhaustive]
pub enum TcpError {
    /// An I/O operation failed.
    Io {
        /// What the transport was doing.
        context: String,
        /// The underlying error.
        source: io::Error,
    },
    /// A handshake frame was malformed.
    Frame(FrameError),
    /// A peer's first frame was not a valid, expected `Hello`.
    BadHello,
    /// Not every peer connected before the deadline.
    HandshakeTimeout,
    /// A round stalled past `round_timeout` on peers that are still
    /// *connected* — resent to, but neither heard from nor confirmed
    /// dead. Treating them as crashed would mislabel a slow node as a
    /// paper-model failure, so the round fails loudly instead.
    RoundTimeout {
        /// The round that stalled.
        round: usize,
        /// The connected but silent peers.
        peers: Vec<ProcessId>,
    },
}

impl TcpError {
    fn io(context: &str, source: io::Error) -> TcpError {
        TcpError::Io {
            context: context.to_string(),
            source,
        }
    }
}

impl fmt::Display for TcpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TcpError::Io { context, source } => write!(f, "{context}: {source}"),
            TcpError::Frame(e) => write!(f, "malformed handshake: {e}"),
            TcpError::BadHello => write!(f, "peer's first frame was not a valid hello"),
            TcpError::HandshakeTimeout => {
                write!(f, "full mesh did not form before the connect deadline")
            }
            TcpError::RoundTimeout { round, peers } => {
                write!(f, "round {round} timed out waiting on unconfirmed peers")?;
                for (i, peer) in peers.iter().enumerate() {
                    write!(f, "{} {peer}", if i == 0 { ":" } else { "," })?;
                }
                Ok(())
            }
        }
    }
}

impl Error for TcpError {}

#[derive(Debug)]
enum PeerEvent {
    Frame(Frame),
    /// The reader of the stream adopted at this epoch saw end-of-stream
    /// or a read error.
    Closed(u64),
    /// A (re)connected, hello-identified stream for this peer — from the
    /// persistent listener (peer redialled us) or from our redial
    /// campaign (we reached the peer again).
    Reconnected(TcpStream),
}

/// What this node knows about one peer. The link is up while
/// `closed_at` is `None`, and closed since that instant otherwise.
#[derive(Debug, Default)]
struct PeerState {
    /// The round after which the peer (cleanly) stopped participating.
    settled_at: Option<usize>,
    /// Confirmed dead: the link stayed closed for the reconnect window,
    /// or through a round deadline.
    down: bool,
    /// When the link closed; `None` while it is up.
    closed_at: Option<Instant>,
    /// Streams adopted since the mesh formed. A `Closed` from the reader
    /// of an older stream reports a break already recorded.
    epoch: u64,
    /// A re-handshake that arrived while the link was still up, and
    /// when: adopted once the current stream closes, if it is younger
    /// than the reconnect window by then.
    parked: Option<(TcpStream, Instant)>,
}

/// One node's TCP connection to the rest of the system.
#[derive(Debug)]
pub struct TcpTransport {
    me: ProcessId,
    n: usize,
    writers: Vec<Option<TcpStream>>,
    events: mpsc::Receiver<(usize, PeerEvent)>,
    /// Kept for redial campaigns and adopted-stream reader threads; also
    /// guarantees `events` never observes a disconnect.
    event_tx: mpsc::Sender<(usize, PeerEvent)>,
    peer_addrs: Vec<SocketAddr>,
    peers: Vec<PeerState>,
    /// Frames that arrived for rounds we have not collected yet,
    /// `round → sender → payload`.
    pending: BTreeMap<usize, BTreeMap<usize, Vec<u8>>>,
    /// This node's own broadcast, looped back locally (the model: a
    /// process receives its own message when its send prefix reaches it).
    self_letter: Option<(usize, Vec<u8>)>,
    /// This node's recent broadcasts, `round → payload` — replayed on
    /// reconnect and served to `Resend` requests.
    sent_log: BTreeMap<usize, Vec<u8>>,
    /// Recent broadcasts *accepted* from others, `round → sender →
    /// payload` — the relay pool answering peers' `Resend` requests.
    relay_store: BTreeMap<usize, BTreeMap<usize, Vec<u8>>>,
    /// Fault-delayed originals waiting for their due round,
    /// `due round → [(sender, payload)]`.
    delayed: BTreeMap<usize, Vec<(usize, Vec<u8>)>>,
    received: u64,
    current_round: usize,
    settled_round: Option<usize>,
    round_timeout: Duration,
    fault_plan: Option<FaultPlan>,
}

impl TcpTransport {
    /// Establishes the full mesh for `config`, blocking until every peer
    /// is connected and identified (or the connect deadline passes). The
    /// listener then stays alive for the node's lifetime, accepting
    /// re-handshakes from peers recovering a broken link.
    ///
    /// # Errors
    ///
    /// [`TcpError`] if the listener cannot bind, a dial or handshake
    /// fails permanently, or the mesh does not form before the deadline.
    pub fn establish(config: &NodeConfig) -> Result<TcpTransport, TcpError> {
        let me = config.me;
        let n = config.n();
        let deadline = Instant::now() + config.connect_timeout;
        let listener =
            TcpListener::bind(config.my_addr()).map_err(|e| TcpError::io("bind listener", e))?;

        let (event_tx, events) = mpsc::channel();

        // Inbound half of the mesh: every higher id dials us. After the
        // initial mesh forms, the same listener keeps accepting —
        // re-handshakes from peers healing a broken link arrive as
        // identified `Reconnected` events.
        let expected_inbound = n - 1 - me.index();
        let (accept_tx, accept_rx) = mpsc::channel();
        let reconnect_tx = event_tx.clone();
        thread::spawn(move || {
            for _ in 0..expected_inbound {
                match listener.accept() {
                    Ok((stream, _)) => {
                        if accept_tx.send(stream).is_err() {
                            return;
                        }
                    }
                    Err(_) => return,
                }
            }
            drop(accept_tx);
            loop {
                let Ok((mut stream, _)) = listener.accept() else {
                    return;
                };
                let _ = stream.set_nodelay(true);
                // Identify inline, but never let a silent dialer wedge
                // the listener.
                let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
                let hello = Frame::read_from(&mut stream);
                let _ = stream.set_read_timeout(None);
                let peer = match hello {
                    Ok(Some(f)) if f.kind == FrameKind::Hello => f.from.index(),
                    _ => continue,
                };
                if reconnect_tx
                    .send((peer, PeerEvent::Reconnected(stream)))
                    .is_err()
                {
                    return;
                }
            }
        });

        let mut writers: Vec<Option<TcpStream>> = (0..n).map(|_| None).collect();

        // Outbound half: dial every lower id, retrying until the
        // deadline so nodes may start in any order.
        for (peer, &addr) in config.peers.iter().enumerate().take(me.index()) {
            let stream = loop {
                match TcpStream::connect(addr) {
                    Ok(s) => break s,
                    Err(e) => {
                        if Instant::now() >= deadline {
                            return Err(TcpError::io(&format!("connect to {addr}"), e));
                        }
                        thread::sleep(Duration::from_millis(25));
                    }
                }
            };
            let _ = stream.set_nodelay(true);
            let mut hello_half = stream
                .try_clone()
                .map_err(|e| TcpError::io("clone stream", e))?;
            Frame::hello(me)
                .write_to(&mut hello_half)
                .map_err(|e| TcpError::io("send hello", e))?;
            writers[peer] = Some(stream);
        }

        // Identify the inbound connections by their hello frames.
        for _ in 0..expected_inbound {
            let remaining = deadline.saturating_duration_since(Instant::now());
            let mut stream = accept_rx
                .recv_timeout(remaining)
                .map_err(|_| TcpError::HandshakeTimeout)?;
            let _ = stream.set_nodelay(true);
            let hello = Frame::read_from(&mut stream).map_err(TcpError::Frame)?;
            let peer = match hello {
                Some(f) if f.kind == FrameKind::Hello => f.from.index(),
                _ => return Err(TcpError::BadHello),
            };
            if peer <= me.index() || peer >= n || writers[peer].is_some() {
                return Err(TcpError::BadHello);
            }
            writers[peer] = Some(stream);
        }

        // One reader thread per peer, all feeding one ordered channel.
        for (peer, writer) in writers.iter().enumerate() {
            let Some(writer) = writer else { continue };
            let reader = writer
                .try_clone()
                .map_err(|e| TcpError::io("clone stream", e))?;
            spawn_reader(peer, 0, reader, event_tx.clone());
        }

        Ok(TcpTransport {
            me,
            n,
            writers,
            events,
            event_tx,
            peer_addrs: config.peers.clone(),
            peers: (0..n).map(|_| PeerState::default()).collect(),
            pending: BTreeMap::new(),
            self_letter: None,
            sent_log: BTreeMap::new(),
            relay_store: BTreeMap::new(),
            delayed: BTreeMap::new(),
            received: 0,
            current_round: 0,
            settled_round: None,
            round_timeout: config.round_timeout,
            fault_plan: config.fault_plan.clone(),
        })
    }

    /// Total letters this node has collected — its contribution to a
    /// testnet-wide delivery count.
    pub fn received_total(&self) -> u64 {
        self.received
    }

    /// Whether the round loop still expects a frame from `peer` in
    /// `round`. A closed link is expected until confirmed dead: it may
    /// heal.
    fn expects(&self, peer: usize, round: usize) -> bool {
        let state = &self.peers[peer];
        !state.down && state.settled_at.is_none_or(|r| r >= round)
    }

    /// Confirms a peer dead: its link stayed closed for the reconnect
    /// window, or through a round deadline.
    fn mark_down(&mut self, peer: usize) {
        if !self.peers[peer].down && setagree_obs::enabled() {
            tcp_metrics().peers_confirmed_down.inc();
        }
        self.peers[peer].down = true;
        if let Some(w) = self.writers[peer].take() {
            let _ = w.shutdown(Shutdown::Both);
        }
    }

    /// A peer's stream broke (EOF, read error or write failure). The
    /// first report closes the link and starts its one recovery: adopt
    /// a parked re-handshake that is still inside the window, or else,
    /// on the dialing side, redial until the window ends. Later reports
    /// of the same break change nothing.
    fn note_closed(&mut self, peer: usize) {
        let state = &mut self.peers[peer];
        if state.down || state.closed_at.is_some() {
            return;
        }
        let now = Instant::now();
        state.closed_at = Some(now);
        let parked = state.parked.take();
        if let Some(w) = self.writers[peer].take() {
            let _ = w.shutdown(Shutdown::Both);
        }
        match parked {
            Some((stream, at)) if now < at + RECONNECT_WINDOW => {
                return self.adopt_stream(peer, stream);
            }
            Some((stale, _)) => {
                let _ = stale.shutdown(Shutdown::Both);
            }
            None => {}
        }
        if peer < self.me.index() {
            let deadline = now + RECONNECT_WINDOW;
            spawn_redial(
                self.me,
                peer,
                self.peer_addrs[peer],
                deadline,
                self.event_tx.clone(),
            );
        }
    }

    /// Adopts a freshly (re)identified stream for `peer` and resumes at
    /// the current round: replay our recent broadcasts (the originals
    /// may have died with the old socket) and our settlement, then pull
    /// whatever we missed. While the link is still up the stream is
    /// parked instead: the old stream's `Closed` may be in flight behind
    /// this handshake.
    fn adopt_stream(&mut self, peer: usize, stream: TcpStream) {
        if peer == self.me.index() || self.peers[peer].down {
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
        if self.peers[peer].closed_at.is_none() {
            let parked = (stream, Instant::now());
            if let Some((older, _)) = self.peers[peer].parked.replace(parked) {
                let _ = older.shutdown(Shutdown::Both);
            }
            return;
        }
        let Ok(reader) = stream.try_clone() else {
            let _ = stream.shutdown(Shutdown::Both);
            return;
        };
        let state = &mut self.peers[peer];
        state.epoch += 1;
        state.closed_at = None;
        spawn_reader(peer, state.epoch, reader, self.event_tx.clone());
        self.writers[peer] = Some(stream);

        // Resume: recent broadcasts as ordinary first-arrival Msg frames
        // (an injected plan judges them exactly once, deterministically),
        // plus our settlement notice, plus a pull for the stalled round.
        let replay: Vec<Frame> = self
            .sent_log
            .iter()
            .map(|(&round, payload)| Frame::msg(self.me, round, payload.clone()))
            .collect();
        for frame in replay {
            self.write_frame(peer, &frame);
        }
        if let Some(round) = self.settled_round {
            self.write_frame(peer, &Frame::settled(self.me, round));
        }
        let round = self.current_round;
        if round > 0 {
            self.write_frame(peer, &Frame::resend(self.me, round));
        }
    }

    /// Writes one frame to `peer`, converting a write failure into a
    /// closed-stream observation.
    fn write_frame(&mut self, peer: usize, frame: &Frame) {
        let wrote = self.writers[peer]
            .as_mut()
            .map(|w| frame.write_to(w).is_ok());
        match wrote {
            Some(true) if setagree_obs::enabled() => {
                tcp_metrics().frames_sent[kind_index(frame.kind)].inc();
            }
            Some(false) => self.note_closed(peer),
            _ => {}
        }
    }

    /// Asks every reachable peer to relay what it has seen of `round`.
    fn send_resends(&mut self, round: usize) {
        let obs_on = setagree_obs::enabled();
        for peer in 0..self.n {
            if peer == self.me.index() || self.writers[peer].is_none() {
                continue;
            }
            if obs_on {
                tcp_metrics().frames_resent.inc();
            }
            self.write_frame(peer, &Frame::resend(self.me, round));
        }
    }

    /// Answers a peer's `Resend` for `round` with relays of everything
    /// this node has: its own broadcast and the accepted broadcasts of
    /// others (which is how a crashed sender's delivered prefix still
    /// propagates to peers the prefix missed).
    fn serve_resend(&mut self, peer: usize, round: usize) {
        let mut relays = Vec::new();
        if let Some(payload) = self.sent_log.get(&round) {
            relays.push(Frame::relay(self.me, self.me, round, payload));
        }
        if let Some(seen) = self.relay_store.get(&round) {
            for (&orig, payload) in seen {
                if orig != peer {
                    relays.push(Frame::relay(self.me, ProcessId::new(orig), round, payload));
                }
            }
        }
        if setagree_obs::enabled() {
            tcp_metrics().relays_served.add(relays.len() as u64);
        }
        for frame in relays {
            self.write_frame(peer, &frame);
        }
    }

    /// The injected-fault verdict for a first-arrival `Msg` frame.
    fn filter(&self, round: usize, from: usize) -> LinkFault {
        match &self.fault_plan {
            Some(plan) => plan.decide(round, ProcessId::new(from), self.me),
            None => LinkFault::Deliver,
        }
    }

    /// Stores an accepted broadcast in the relay pool.
    fn remember(&mut self, round: usize, from: usize, payload: &[u8]) {
        self.relay_store
            .entry(round)
            .or_default()
            .entry(from)
            .or_insert_with(|| payload.to_vec());
    }

    fn note_frame(
        &mut self,
        peer: usize,
        frame: Frame,
        round: usize,
        got: &mut BTreeMap<usize, Vec<u8>>,
    ) {
        let obs_on = setagree_obs::enabled();
        if obs_on {
            tcp_metrics().frames_received[kind_index(frame.kind)].inc();
        }
        match frame.kind {
            FrameKind::Msg if frame.round >= round => {
                match self.filter(frame.round, peer) {
                    LinkFault::Drop => {
                        // Same counter names the simulator's fault inbox
                        // uses, so a fault plan's footprint aggregates
                        // across tiers.
                        if obs_on {
                            setagree_obs::counter("fault_messages_dropped", &[]).inc();
                        }
                        return;
                    }
                    LinkFault::Delay(by) => {
                        if obs_on {
                            setagree_obs::counter("fault_messages_delayed", &[]).inc();
                        }
                        self.delayed
                            .entry(frame.round + by)
                            .or_default()
                            .push((peer, frame.payload));
                        return;
                    }
                    // The sender-keyed round inbox absorbs duplicates.
                    LinkFault::Deliver | LinkFault::Duplicate => {}
                }
                self.remember(frame.round, peer, &frame.payload);
                if frame.round == round {
                    got.entry(peer).or_insert(frame.payload);
                } else {
                    self.pending
                        .entry(frame.round)
                        .or_default()
                        .entry(peer)
                        .or_insert(frame.payload);
                }
            }
            // Stale rounds (we gave up on the sender) and stray hellos
            // are dropped.
            FrameKind::Msg | FrameKind::Hello => {}
            FrameKind::Settled => {
                self.peers[peer].settled_at = Some(frame.round);
            }
            FrameKind::Resend => {
                self.serve_resend(peer, frame.round);
            }
            FrameKind::Relay => {
                // Recovery data: exempt from the fault filter, deduped by
                // the sender-keyed maps. A malformed relay is dropped.
                let Some((orig, payload)) = frame.relay_parts() else {
                    return;
                };
                let (orig, payload) = (orig.index(), payload.to_vec());
                if orig >= self.n || orig == self.me.index() {
                    return;
                }
                if frame.round >= round {
                    self.remember(frame.round, orig, &payload);
                    if frame.round == round {
                        if self.expects(orig, round) {
                            got.entry(orig).or_insert(payload);
                        }
                    } else {
                        self.pending
                            .entry(frame.round)
                            .or_default()
                            .entry(orig)
                            .or_insert(payload);
                    }
                }
            }
        }
    }

    fn handle_event(
        &mut self,
        peer: usize,
        event: PeerEvent,
        round: usize,
        got: &mut BTreeMap<usize, Vec<u8>>,
    ) {
        if peer >= self.n {
            return;
        }
        match event {
            PeerEvent::Frame(frame) => self.note_frame(peer, frame, round, got),
            PeerEvent::Closed(epoch) if epoch == self.peers[peer].epoch => self.note_closed(peer),
            // The reader of a stream already replaced: its break was
            // recorded when it happened.
            PeerEvent::Closed(_) => {}
            PeerEvent::Reconnected(stream) => self.adopt_stream(peer, stream),
        }
    }

    /// Drops relay/broadcast history too old to be useful.
    fn prune(&mut self, round: usize) {
        let floor = round.saturating_sub(RELAY_KEEP);
        self.sent_log = self.sent_log.split_off(&floor);
        self.relay_store = self.relay_store.split_off(&floor);
    }
}

fn spawn_reader(
    peer: usize,
    epoch: u64,
    mut reader: TcpStream,
    tx: mpsc::Sender<(usize, PeerEvent)>,
) {
    thread::spawn(move || loop {
        match Frame::read_from(&mut reader) {
            Ok(Some(frame)) => {
                if tx.send((peer, PeerEvent::Frame(frame))).is_err() {
                    return;
                }
            }
            Ok(None) | Err(_) => {
                let _ = tx.send((peer, PeerEvent::Closed(epoch)));
                return;
            }
        }
    });
}

/// The redial campaign for one break: retries with doubling backoff
/// from [`REDIAL_BASE_DELAY`] until `deadline`, the end of the
/// reconnect window, then stops.
fn spawn_redial(
    me: ProcessId,
    peer: usize,
    addr: SocketAddr,
    deadline: Instant,
    tx: mpsc::Sender<(usize, PeerEvent)>,
) {
    thread::spawn(move || {
        let obs_on = setagree_obs::enabled();
        let mut delay = REDIAL_BASE_DELAY;
        loop {
            if obs_on {
                tcp_metrics().redial_attempts.inc();
            }
            if let Ok(mut stream) = TcpStream::connect(addr) {
                let _ = stream.set_nodelay(true);
                if Frame::hello(me).write_to(&mut stream).is_ok() {
                    if obs_on {
                        tcp_metrics().redials_ok.inc();
                    }
                    let _ = tx.send((peer, PeerEvent::Reconnected(stream)));
                    return;
                }
            }
            if Instant::now() + delay >= deadline {
                break;
            }
            thread::sleep(delay);
            delay = delay.saturating_mul(2);
        }
        if obs_on {
            tcp_metrics().redials_failed.inc();
        }
    });
}

impl Transport for TcpTransport {
    type Msg = Vec<u8>;
    type Letter = Vec<u8>;
    type Error = TcpError;

    fn n(&self) -> usize {
        self.n
    }

    fn me(&self) -> ProcessId {
        self.me
    }

    fn broadcast(&mut self, round: usize, payload: Vec<u8>, reach: usize) -> Result<(), TcpError> {
        self.current_round = round;
        self.sent_log.insert(round, payload.clone());
        for recipient in 0..reach.min(self.n) {
            if recipient == self.me.index() {
                self.self_letter = Some((round, payload.clone()));
                continue;
            }
            if !self.expects(recipient, round) {
                continue;
            }
            let frame = Frame::msg(self.me, round, payload.clone());
            self.write_frame(recipient, &frame);
        }
        Ok(())
    }

    fn sends_done(&mut self, _round: usize) -> Result<(), TcpError> {
        // Writes are unbuffered (`write_all` + TCP_NODELAY): nothing to
        // flush, and rounds need no barrier — `collect` blocks until the
        // round's frames arrive.
        Ok(())
    }

    fn collect(&mut self, round: usize) -> Result<Vec<(ProcessId, Vec<u8>)>, TcpError> {
        self.current_round = round;
        self.prune(round);

        // Fault-delayed originals whose due round has come: delivered
        // first, like the simulator's inbox (stale metadata and all).
        let mut late = Vec::new();
        while let Some((&due, _)) = self.delayed.first_key_value() {
            if due > round {
                break;
            }
            let (_, batch) = self.delayed.pop_first().expect("checked non-empty");
            late.extend(batch);
        }

        let mut got: BTreeMap<usize, Vec<u8>> = self.pending.remove(&round).unwrap_or_default();
        if let Some((r, payload)) = self.self_letter.take() {
            if r == round {
                got.insert(self.me.index(), payload);
            }
        }
        let deadline = Instant::now() + self.round_timeout;
        // Resend cadence: a stalled round asks for relays well before
        // the deadline, and keeps asking.
        let resend_interval =
            (self.round_timeout / 10).clamp(Duration::from_millis(50), Duration::from_secs(1));
        let mut next_resend = Instant::now() + resend_interval;
        loop {
            let missing: Vec<usize> = (0..self.n)
                .filter(|&p| {
                    p != self.me.index() && self.expects(p, round) && !got.contains_key(&p)
                })
                .collect();
            if missing.is_empty() {
                break;
            }
            let now = Instant::now();
            // A link that stayed closed for the whole reconnect window
            // confirms its peer dead.
            for &p in &missing {
                if self.peers[p]
                    .closed_at
                    .is_some_and(|at| now >= at + RECONNECT_WINDOW)
                {
                    self.mark_down(p);
                }
            }
            if now >= deadline {
                let mut silent = Vec::new();
                for &p in &missing {
                    let state = &self.peers[p];
                    if state.down {
                        continue;
                    }
                    if state.closed_at.is_some() {
                        // Closed, and the deadline beat the window.
                        self.mark_down(p);
                    } else {
                        silent.push(ProcessId::new(p));
                    }
                }
                if silent.is_empty() {
                    break;
                }
                if setagree_obs::enabled() {
                    tcp_metrics().round_timeouts.inc();
                }
                return Err(TcpError::RoundTimeout {
                    round,
                    peers: silent,
                });
            }
            if now >= next_resend {
                self.send_resends(round);
                next_resend = now + resend_interval;
            }
            let wait = COLLECT_TICK
                .min(deadline.saturating_duration_since(now))
                .min(next_resend.saturating_duration_since(now))
                .max(Duration::from_millis(1));
            // A timeout tick just re-checks the deadlines; `event_tx`
            // lives in self, so the channel can never disconnect.
            if let Ok((peer, event)) = self.events.recv_timeout(wait) {
                self.handle_event(peer, event, round, &mut got);
            }
        }
        self.received += (late.len() + got.len()) as u64;
        let mut letters: Vec<(ProcessId, Vec<u8>)> = late
            .into_iter()
            .map(|(peer, payload)| (ProcessId::new(peer), payload))
            .collect();
        letters.extend(
            got.into_iter()
                .map(|(peer, payload)| (ProcessId::new(peer), payload)),
        );
        Ok(letters)
    }

    fn settle(&mut self, round: usize) -> Result<(), TcpError> {
        self.settled_round = Some(round);
        for recipient in 0..self.n {
            if recipient == self.me.index() {
                continue;
            }
            let frame = Frame::settled(self.me, round);
            self.write_frame(recipient, &frame);
        }
        Ok(())
    }

    fn round_done(&mut self, _round: usize, settled: bool) -> Result<bool, TcpError> {
        // A settled node leaves immediately: peers were told via the
        // `Settled` frame and stop waiting for it, so there is nothing
        // left to synchronize with.
        Ok(settled)
    }

    fn depart(&mut self, _round: usize) {
        // The kill: slam every socket shut without a goodbye. Peers see
        // end-of-stream after exactly the frames already written — the
        // ordered-send prefix. (When the node binary injects a crash it
        // additionally aborts the whole process.)
        for writer in &mut self.writers {
            if let Some(w) = writer.take() {
                let _ = w.shutdown(Shutdown::Both);
            }
        }
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        // Unblock this node's reader threads and send FIN to peers; by
        // now they either saw our `Settled` or treat the close as a
        // crash, which is the honest reading.
        for writer in &mut self.writers {
            if let Some(w) = writer.take() {
                let _ = w.shutdown(Shutdown::Both);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::localhost_peers;
    use crate::drive;
    use crate::transport::{MsgCodec, Typed, U32Codec};
    use setagree_sync::{CrashSpec, Outcome, Partition, Step, SyncProtocol};
    use setagree_types::ProcessSet;

    /// Max-flood over real sockets (in-process: one thread per node).
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

    fn tcp_system_with(
        port_base: u16,
        inputs: &[u32],
        crash: Option<(usize, CrashSpec)>,
        plan: Option<FaultPlan>,
        round_timeout: Duration,
    ) -> Vec<Option<Outcome<u32>>> {
        let n = inputs.len();
        let peers = localhost_peers(n, port_base);
        let handles: Vec<_> = inputs
            .iter()
            .enumerate()
            .map(|(i, &best)| {
                let peers = peers.clone();
                let plan = plan.clone();
                let spec = crash.and_then(|(victim, s)| (victim == i).then_some(s));
                thread::spawn(move || {
                    let mut config = NodeConfig::new(ProcessId::new(i), peers)
                        .expect("valid config")
                        .with_round_timeout(round_timeout);
                    if let Some(plan) = plan {
                        config = config.with_fault_plan(plan);
                    }
                    let tcp = TcpTransport::establish(&config).expect("mesh forms");
                    let transport = Typed::new(tcp, U32Codec);
                    drive(MaxFlood { rounds: 3, best }, transport, spec, 10).ok()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("node thread"))
            .collect()
    }

    fn tcp_system(
        port_base: u16,
        inputs: &[u32],
        crash: Option<(usize, CrashSpec)>,
    ) -> Vec<Option<Outcome<u32>>> {
        tcp_system_with(port_base, inputs, crash, None, Duration::from_secs(5))
    }

    /// A 2-node mesh formed in-process; the caller drives both ends.
    fn tcp_pair(port_base: u16, round_timeout: Duration) -> (TcpTransport, TcpTransport) {
        let peers = localhost_peers(2, port_base);
        let establish = |i: usize| {
            let config = NodeConfig::new(ProcessId::new(i), peers.clone())
                .expect("valid config")
                .with_round_timeout(round_timeout);
            thread::spawn(move || TcpTransport::establish(&config).expect("mesh forms"))
        };
        let (a, b) = (establish(0), establish(1));
        (a.join().expect("node 0"), b.join().expect("node 1"))
    }

    /// Handles the next event of `node`, outside any round.
    fn pump(node: &mut TcpTransport) {
        let (peer, event) = node
            .events
            .recv_timeout(Duration::from_secs(5))
            .expect("an event within 5 s");
        node.handle_event(peer, event, 0, &mut BTreeMap::new());
    }

    /// Slams node 1's stream to node 0 (a transient break, not a kill),
    /// reports the break to node 1 `extra` more times, and handles node
    /// 1's events until it has adopted its redial.
    fn break_and_redial(b: &mut TcpTransport, extra: usize) {
        if let Some(w) = &b.writers[0] {
            let _ = w.shutdown(Shutdown::Both);
        }
        for _ in 0..extra {
            b.event_tx.send((0, PeerEvent::Closed(0))).expect("inject");
        }
        while b.peers[0].closed_at.is_some() || b.peers[0].epoch == 0 {
            pump(b);
        }
    }

    /// Takes node 0's own events for the break off its channel
    /// unhandled — the old stream's `Closed` and node 1's re-handshake —
    /// so the test can replay them in the order it chooses.
    fn withhold_break(a: &mut TcpTransport) -> TcpStream {
        let (mut closed, mut handshake) = (false, None);
        while !closed || handshake.is_none() {
            match a.events.recv_timeout(Duration::from_secs(5)) {
                Ok((1, PeerEvent::Closed(0))) => closed = true,
                Ok((1, PeerEvent::Reconnected(stream))) => handshake = Some(stream),
                other => panic!("unexpected event: {other:?}"),
            }
        }
        handshake.expect("collected")
    }

    /// Node 0 and node 1 hold the two ends of one stream, complete round
    /// 1 over it, and neither has confirmed the other dead.
    fn assert_one_stream(a: &mut TcpTransport, b: &mut TcpTransport) {
        let a_end = a.writers[1].as_ref().expect("node 0's link is up");
        let b_end = b.writers[0].as_ref().expect("node 1's link is up");
        assert_eq!(a_end.peer_addr().ok(), b_end.local_addr().ok());
        for (i, node) in [&mut *a, &mut *b].into_iter().enumerate() {
            node.broadcast(1, vec![i as u8], 2).expect("broadcast");
        }
        for node in [&mut *a, &mut *b] {
            assert_eq!(node.collect(1).expect("collect").len(), 2);
        }
        assert!(
            !a.peers[1].down && !b.peers[0].down,
            "a live peer confirmed dead"
        );
    }

    #[test]
    fn failure_free_mesh_floods_the_maximum() {
        let outcomes = tcp_system(42110, &[3, 9, 1, 4], None);
        for outcome in outcomes {
            assert_eq!(outcome, Some(Outcome::Decided { value: 9, round: 3 }));
        }
    }

    #[test]
    fn a_killed_node_delivers_only_its_prefix() {
        // Node 0 holds the maximum and dies in round 1 after reaching
        // only itself and node 1; node 1 floods 9 onward, so everyone
        // still converges on 9 — via the survivor.
        let outcomes = tcp_system(42120, &[9, 1, 1, 1], Some((0, CrashSpec::new(1, 2))));
        assert_eq!(outcomes[0], Some(Outcome::Crashed { round: 1 }));
        for outcome in &outcomes[1..] {
            assert_eq!(*outcome, Some(Outcome::Decided { value: 9, round: 3 }));
        }
    }

    #[test]
    fn dropped_links_heal_through_relays() {
        // A plan that cuts node 0 off from everyone for rounds 1–2 (its
        // original frames in both directions). Resend/relay recovery
        // restores the lost broadcasts, so every node still floods the
        // maximum held by node 0.
        let mut side = ProcessSet::empty(3);
        side.insert(ProcessId::new(0));
        let plan = FaultPlan::new(3, 0xD1A1).partition(Partition::new(side, 1, 2));
        let outcomes = tcp_system_with(42130, &[9, 1, 4], None, Some(plan), Duration::from_secs(5));
        for outcome in outcomes {
            assert_eq!(outcome, Some(Outcome::Decided { value: 9, round: 3 }));
        }
    }

    #[test]
    fn a_broken_link_reconnects_and_resumes() {
        // Two nodes run three manual rounds; between rounds 1 and 2 node
        // 1 slams its socket to node 0 (a transient link failure, not a
        // kill — both processes keep running). The redial campaign plus
        // the persistent listener re-form the link and the remaining
        // rounds complete with full inboxes; nobody is declared dead.
        let peers = localhost_peers(2, 42140);
        let run = |i: usize, sabotage: bool| {
            let peers = peers.clone();
            thread::spawn(move || {
                let config = NodeConfig::new(ProcessId::new(i), peers)
                    .expect("valid config")
                    .with_round_timeout(Duration::from_secs(5));
                let mut tcp = TcpTransport::establish(&config).expect("mesh forms");
                let mut counts = Vec::new();
                for round in 1..=3 {
                    tcp.broadcast(round, vec![i as u8, round as u8], 2)
                        .expect("broadcast");
                    let letters = tcp.collect(round).expect("collect");
                    counts.push(letters.len());
                    if sabotage && round == 1 {
                        if let Some(w) = &tcp.writers[0] {
                            let _ = w.shutdown(Shutdown::Both);
                        }
                    }
                }
                assert!(!tcp.peers[1 - i].down, "peer wrongly confirmed dead");
                counts
            })
        };
        let a = run(0, false);
        let b = run(1, true);
        assert_eq!(a.join().expect("node 0"), vec![2, 2, 2]);
        assert_eq!(b.join().expect("node 1"), vec![2, 2, 2]);
    }

    /// A node 1 that connects and identifies itself but never
    /// broadcasts. Node 0's round must fail as a round timeout naming
    /// it, not pass with node 1 counted as crashed.
    #[test]
    fn a_silent_connected_peer_is_a_round_timeout() {
        let (mut a, b) = tcp_pair(42170, Duration::from_millis(600));
        a.broadcast(1, vec![0], 2).expect("broadcast");
        match a.collect(1) {
            Err(TcpError::RoundTimeout { round, peers }) => {
                assert_eq!((round, peers), (1, vec![ProcessId::new(1)]));
            }
            other => panic!("expected a round timeout, got {other:?}"),
        }
        assert!(!a.peers[1].down, "a connected peer was confirmed dead");
        drop(b);
    }

    /// One break, reported out of order and twice on each side: node
    /// 0's listener hands over node 1's re-handshake *before* the old
    /// stream's `Closed`, and a second `Closed` follows. Node 1 hears
    /// about its own break twice more. The events go through `event_tx`
    /// in this order, so the interleaving is fixed.
    #[test]
    fn a_reordered_and_repeated_break_heals_onto_one_stream() {
        let (mut a, mut b) = tcp_pair(42180, Duration::from_secs(5));
        break_and_redial(&mut b, 2);
        let handshake = withhold_break(&mut a);
        a.event_tx
            .send((1, PeerEvent::Reconnected(handshake)))
            .expect("inject");
        pump(&mut a);
        assert!(
            a.peers[1].parked.is_some(),
            "an open link parks a handshake"
        );
        for _ in 0..2 {
            a.event_tx.send((1, PeerEvent::Closed(0))).expect("inject");
            pump(&mut a);
        }

        // One campaign: no further handshake reaches either side, and
        // the old streams' late `Closed` events are stale. The wait can
        // only miss a second campaign, never invent one.
        thread::sleep(Duration::from_millis(300));
        for node in [&mut a, &mut b] {
            while let Ok((peer, event)) = node.events.try_recv() {
                let second = matches!(event, PeerEvent::Reconnected(_));
                assert!(!second, "a second campaign");
                node.handle_event(peer, event, 0, &mut BTreeMap::new());
            }
        }
        assert_eq!((a.peers[1].epoch, b.peers[0].epoch), (1, 1));
        assert_one_stream(&mut a, &mut b);
    }

    /// A stray hello parks on node 0's healthy link and lingers past the
    /// reconnect window. When the link later breaks for real and node 0
    /// sees the break before node 1's redial, it must adopt the redial,
    /// not the stale stray.
    #[test]
    fn a_stale_parked_handshake_cannot_take_over_a_link() {
        let (mut a, mut b) = tcp_pair(42190, Duration::from_secs(5));
        let mut stray = TcpStream::connect(a.peer_addrs[0]).expect("stray dial");
        Frame::hello(ProcessId::new(1))
            .write_to(&mut stray)
            .expect("stray hello");
        pump(&mut a);
        assert!(
            a.peers[1].parked.is_some(),
            "an open link parks a handshake"
        );
        thread::sleep(RECONNECT_WINDOW + Duration::from_millis(100));

        break_and_redial(&mut b, 0);
        let handshake = withhold_break(&mut a);
        a.event_tx.send((1, PeerEvent::Closed(0))).expect("inject");
        a.event_tx
            .send((1, PeerEvent::Reconnected(handshake)))
            .expect("inject");
        pump(&mut a);
        pump(&mut a);
        assert_one_stream(&mut a, &mut b);
    }

    /// A hostile peer speaks the frame protocol badly on purpose:
    /// duplicated round frames, future rounds out of order, a malformed
    /// relay, a stray resend, and finally a truncated frame that kills
    /// the stream mid-conversation. The real nodes never panic, absorb
    /// the noise (sender-keyed inboxes dedup, pending buffers reorder,
    /// malformed relays drop), and still reach their verdict.
    #[test]
    fn hostile_frames_mid_round_never_panic_the_readers() {
        use std::io::Write;

        let peers = localhost_peers(3, 42160);
        let real = |i: usize| {
            let peers = peers.clone();
            thread::spawn(move || {
                let config = NodeConfig::new(ProcessId::new(i), peers)
                    .expect("valid config")
                    .with_round_timeout(Duration::from_secs(5));
                let tcp = TcpTransport::establish(&config).expect("mesh forms");
                let transport = Typed::new(tcp, U32Codec);
                drive(
                    MaxFlood {
                        rounds: 3,
                        best: (i + 1) as u32,
                    },
                    transport,
                    None,
                    10,
                )
                .expect("hostile peer must not break the drive loop")
            })
        };
        let a = real(0);
        let b = real(1);

        let targets: Vec<_> = peers[..2].to_vec();
        let hostile = thread::spawn(move || {
            let codec = U32Codec;
            let me = ProcessId::new(2);
            for addr in targets {
                let mut s = loop {
                    match TcpStream::connect(addr) {
                        Ok(s) => break s,
                        Err(_) => thread::sleep(Duration::from_millis(10)),
                    }
                };
                Frame::hello(me).write_to(&mut s).expect("hello");
                let msg = |r: usize| Frame::msg(me, r, codec.encode(&9));
                // The round-1 frame, three times over.
                for _ in 0..3 {
                    msg(1).write_to(&mut s).expect("dup");
                }
                // Rounds 3 and 2, reordered.
                msg(3).write_to(&mut s).expect("future");
                msg(2).write_to(&mut s).expect("reordered");
                // A relay whose payload is shorter than its own header.
                Frame {
                    kind: FrameKind::Relay,
                    from: me,
                    round: 2,
                    payload: vec![1, 2],
                }
                .write_to(&mut s)
                .expect("malformed relay");
                // A resend for a round nobody has run.
                Frame::resend(me, 7).write_to(&mut s).expect("stray resend");
                Frame::settled(me, 3).write_to(&mut s).expect("settled");
                // A truncated frame: a length header promising far more
                // bytes than ever arrive, then a slammed socket.
                s.write_all(&[200, 0, 0, 0, 1]).expect("truncated header");
                let _ = s.shutdown(Shutdown::Both);
            }
        });

        hostile.join().expect("hostile thread");
        // The hostile peer's value 9 arrived through ordinary (if noisy)
        // Msg frames, so the flood still converges on it.
        for handle in [a, b] {
            assert_eq!(
                handle.join().expect("node thread"),
                Outcome::Decided { value: 9, round: 3 }
            );
        }
    }

    #[test]
    fn u32_codec_round_trips() {
        let codec = U32Codec;
        let bytes = codec.encode(&0xDEAD_BEEF);
        assert_eq!(codec.decode(&bytes), Some(0xDEAD_BEEF));
        assert_eq!(codec.decode(&bytes[..3]), None);
    }
}
