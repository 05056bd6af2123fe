//! Peer configuration for a TCP node: who is in the system, where each
//! node listens, and how patient the transport is.

use std::error::Error;
use std::fmt;
use std::net::SocketAddr;
use std::time::Duration;

use setagree_sync::FaultPlan;
use setagree_types::ProcessId;

/// Default for [`NodeConfig::connect_timeout`] — the single source the
/// CLI default derives from.
pub const DEFAULT_CONNECT_TIMEOUT: Duration = Duration::from_secs(10);

/// Default for [`NodeConfig::round_timeout`] — the single source the
/// CLI default derives from.
pub const DEFAULT_ROUND_TIMEOUT: Duration = Duration::from_secs(10);

/// Configuration of one node in an `n`-node TCP system.
///
/// Node `i` listens on `peers[i]`; the full peer list is the system
/// membership, identical on every node (the synchronous model's known,
/// fixed membership).
///
/// Link recovery has no knobs: a broken link gets one redial campaign
/// and one 500 ms reconnect window, after which the peer is confirmed
/// dead (see the [`tcp`](crate::tcp) module's "Self-healing").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeConfig {
    /// This node's identity.
    pub me: ProcessId,
    /// Listen address of every node, indexed by process.
    pub peers: Vec<SocketAddr>,
    /// How long to keep retrying the initial full-mesh connection.
    pub connect_timeout: Duration,
    /// How long one round may wait for missing peers before the
    /// transport gives up: peers whose link is closed are then confirmed
    /// dead, and still-connected silent peers surface as a round
    /// timeout rather than a fabricated crash.
    pub round_timeout: Duration,
    /// An injected link-fault plan, applied to first-arrival `Msg`
    /// frames at this node's receive boundary (recovery frames are
    /// exempt — they model recovery, not fresh transmissions).
    pub fault_plan: Option<FaultPlan>,
}

impl NodeConfig {
    /// A configuration with default timeouts
    /// ([`DEFAULT_CONNECT_TIMEOUT`], [`DEFAULT_ROUND_TIMEOUT`]) and no
    /// fault plan.
    ///
    /// # Errors
    ///
    /// [`ConfigError::IdOutOfRange`] if `me` is not an index into
    /// `peers`; [`ConfigError::TooFewPeers`] for systems under two nodes.
    pub fn new(me: ProcessId, peers: Vec<SocketAddr>) -> Result<NodeConfig, ConfigError> {
        if peers.len() < 2 {
            return Err(ConfigError::TooFewPeers { count: peers.len() });
        }
        if me.index() >= peers.len() {
            return Err(ConfigError::IdOutOfRange {
                id: me.index(),
                n: peers.len(),
            });
        }
        Ok(NodeConfig {
            me,
            peers,
            connect_timeout: DEFAULT_CONNECT_TIMEOUT,
            round_timeout: DEFAULT_ROUND_TIMEOUT,
            fault_plan: None,
        })
    }

    /// The system size.
    pub fn n(&self) -> usize {
        self.peers.len()
    }

    /// The address this node listens on.
    pub fn my_addr(&self) -> SocketAddr {
        self.peers[self.me.index()]
    }

    /// Overrides the connection-establishment timeout.
    pub fn with_connect_timeout(mut self, timeout: Duration) -> NodeConfig {
        self.connect_timeout = timeout;
        self
    }

    /// Overrides the per-round wait for missing peers.
    pub fn with_round_timeout(mut self, timeout: Duration) -> NodeConfig {
        self.round_timeout = timeout;
        self
    }

    /// Installs an injected link-fault plan.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> NodeConfig {
        self.fault_plan = Some(plan);
        self
    }
}

/// A localhost peer list for an `n`-node testnet: node `i` listens on
/// `127.0.0.1:(port_base + i)`.
pub fn localhost_peers(n: usize, port_base: u16) -> Vec<SocketAddr> {
    (0..n)
        .map(|i| {
            SocketAddr::from((
                [127, 0, 0, 1],
                port_base + u16::try_from(i).unwrap_or(u16::MAX),
            ))
        })
        .collect()
}

/// Parses a comma-separated peer list (`"127.0.0.1:7000,127.0.0.1:7001"`).
///
/// # Errors
///
/// [`ConfigError::BadAddr`] on any entry that is not a socket address.
pub fn parse_peers(list: &str) -> Result<Vec<SocketAddr>, ConfigError> {
    list.split(',')
        .map(|entry| {
            let entry = entry.trim();
            entry.parse().map_err(|_| ConfigError::BadAddr {
                text: entry.to_string(),
            })
        })
        .collect()
}

/// An invalid node configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// A peer entry is not a socket address.
    BadAddr {
        /// The unparsable text.
        text: String,
    },
    /// The node's own id is not an index into the peer list.
    IdOutOfRange {
        /// The claimed id.
        id: usize,
        /// The system size.
        n: usize,
    },
    /// A networked system needs at least two nodes.
    TooFewPeers {
        /// The peer count supplied.
        count: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::BadAddr { text } => write!(f, "invalid peer address {text:?}"),
            ConfigError::IdOutOfRange { id, n } => {
                write!(f, "node id {id} out of range for {n} peers")
            }
            ConfigError::TooFewPeers { count } => {
                write!(f, "need at least two peers, got {count}")
            }
        }
    }
}

impl Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn localhost_peer_lists_count_up_from_the_base_port() {
        let peers = localhost_peers(3, 7000);
        assert_eq!(peers.len(), 3);
        assert_eq!(peers[0].port(), 7000);
        assert_eq!(peers[2].port(), 7002);
        assert!(peers.iter().all(|a| a.ip().is_loopback()));
    }

    #[test]
    fn parse_peers_round_trips_and_rejects_garbage() {
        let peers = parse_peers("127.0.0.1:7000, 127.0.0.1:7001").unwrap();
        assert_eq!(peers, localhost_peers(2, 7000));
        assert_eq!(
            parse_peers("127.0.0.1:7000,nonsense"),
            Err(ConfigError::BadAddr {
                text: "nonsense".to_string()
            })
        );
    }

    #[test]
    fn config_validates_identity_and_size() {
        let peers = localhost_peers(3, 7000);
        let config = NodeConfig::new(ProcessId::new(1), peers.clone()).unwrap();
        assert_eq!(config.n(), 3);
        assert_eq!(config.my_addr(), peers[1]);
        assert_eq!(
            NodeConfig::new(ProcessId::new(3), peers.clone()),
            Err(ConfigError::IdOutOfRange { id: 3, n: 3 })
        );
        assert_eq!(
            NodeConfig::new(ProcessId::new(0), vec![peers[0]]),
            Err(ConfigError::TooFewPeers { count: 1 })
        );
    }
}
