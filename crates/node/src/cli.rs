//! Argument parsing for the `setagree-node` binary.
//!
//! Parsing lives in the library so it is unit-testable and so the
//! testnet harness and the binary cannot drift apart on flag names. The
//! binary itself (in the facade crate, which can see `setagree-core`'s
//! protocols) maps these plain values onto protocol instances.

use std::error::Error;
use std::fmt;
use std::net::SocketAddr;

use setagree_sync::fault::parse_seed_rate;
use setagree_sync::{FaultPlan, Partition};
use setagree_types::{ProcessId, ProcessSet};

use crate::config::{parse_peers, DEFAULT_ROUND_TIMEOUT};
use crate::transport::TransportKind;

/// Usage text for the binary.
pub const USAGE: &str = "\
setagree-node — networked condition-based k-set agreement nodes

USAGE:
    setagree-node run --id <I> --peers <A,B,…> --input <V,V,…> \
[--t <T>] [--k <K>] [--crash <ROUND>:<AFTER_SENDS>] [--round-timeout-ms <MS>] \
[--faults <SEED>:<DROP_RATE>] [--partition <ID,ID,…>:<FROM>:<TO> …] \
[--metrics <PATH|->]
        One TCP node: joins the mesh, runs FloodSet over its proposal,
        prints `OUTCOME`/`RECEIVED` lines. With --crash, aborts itself
        at the scheduled point (the kill-based adversary). --faults and
        --partition install the seeded link-fault plan (identical flags
        on every node yield the identical plan). --metrics enables the
        observability registry: machine-readable `METRIC` lines go to
        stdout (for the testnet harness) and a rendered snapshot to
        PATH, or stderr for `-`.

    setagree-node testnet --input <V,V,…> [--t <T>] [--k <K>] \
[--crash <ID>:<ROUND>:<AFTER_SENDS> …] [--port-base <P>] \
[--transport tcp|loopback] [--round-timeout-ms <MS>] \
[--faults <SEED>:<DROP_RATE>] [--partition <ID,ID,…>:<FROM>:<TO> …] \
[--metrics <PATH|->]
        Spawns one node per proposal (TCP: real processes on localhost;
        loopback: in-process tasks), kills the scheduled victims, and
        prints the collected Report. Fault flags are forwarded to every
        node; DROP_RATE is parts per 10,000 per link per round.
        --metrics aggregates every node's snapshot into one system-wide
        report written to PATH (stderr for `-`).";

/// What the binary was asked to do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeCommand {
    /// `run`: be one TCP node.
    Run(RunArgs),
    /// `testnet`: orchestrate a whole system.
    Testnet(TestnetArgs),
}

/// Arguments of the `run` subcommand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunArgs {
    /// This node's id.
    pub id: usize,
    /// Listen address of every node, indexed by id.
    pub peers: Vec<SocketAddr>,
    /// Crash resilience `t`.
    pub t: usize,
    /// Agreement degree `k`.
    pub k: usize,
    /// One proposal per node.
    pub input: Vec<u32>,
    /// Kill self in round `.0` after `.1` sends.
    pub crash: Option<(usize, usize)>,
    /// Per-round wait for silent peers, in milliseconds.
    pub round_timeout_ms: u64,
    /// Injected link faults: `(seed, drop rate in parts per 10,000)`.
    pub faults: Option<(u64, u32)>,
    /// Scheduled partitions: `(members, from_round, to_round)`.
    pub partitions: Vec<(Vec<usize>, usize, usize)>,
    /// Metrics dump target (`-` for stderr); `None` leaves the
    /// observability layer disabled.
    pub metrics: Option<String>,
}

/// Arguments of the `testnet` subcommand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestnetArgs {
    /// Crash resilience `t`.
    pub t: usize,
    /// Agreement degree `k`.
    pub k: usize,
    /// One proposal per node.
    pub input: Vec<u32>,
    /// Victims: `(id, round, after_sends)`.
    pub crashes: Vec<(usize, usize, usize)>,
    /// Node `i` listens on `port_base + i` (TCP only).
    pub port_base: u16,
    /// Which transport to run the system on.
    pub transport: TransportKind,
    /// Per-round wait for silent peers, in milliseconds (TCP only).
    pub round_timeout_ms: u64,
    /// Injected link faults: `(seed, drop rate in parts per 10,000)`.
    pub faults: Option<(u64, u32)>,
    /// Scheduled partitions: `(members, from_round, to_round)`.
    pub partitions: Vec<(Vec<usize>, usize, usize)>,
    /// Metrics dump target (`-` for stderr); `None` leaves the
    /// observability layer disabled.
    pub metrics: Option<String>,
}

/// Builds the [`FaultPlan`] the fault flags describe, or `None` when no
/// fault flag was given. Every node passes the same flags, so every
/// node derives the identical plan — the seeded decisions are a pure
/// function of `(seed, round, sender, receiver)`.
///
/// # Errors
///
/// [`CliError::InvalidValue`] when a partition member is out of range
/// for the system size `n`.
pub fn fault_plan(
    n: usize,
    faults: Option<(u64, u32)>,
    partitions: &[(Vec<usize>, usize, usize)],
) -> Result<Option<FaultPlan>, CliError> {
    if faults.is_none() && partitions.is_empty() {
        return Ok(None);
    }
    let (seed, rate) = faults.unwrap_or((0, 0));
    let mut plan = FaultPlan::new(n, seed).drop_rate(rate);
    for (members, from_round, to_round) in partitions {
        let mut side = ProcessSet::empty(n);
        for &id in members {
            if id >= n {
                return Err(CliError::InvalidValue {
                    flag: "--partition".to_string(),
                    value: id.to_string(),
                });
            }
            side.insert(ProcessId::new(id));
        }
        plan = plan.partition(Partition::new(side, *from_round, *to_round));
    }
    Ok(Some(plan))
}

/// A bad command line.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CliError {
    /// No subcommand given.
    NoCommand,
    /// An unrecognized subcommand.
    UnknownCommand {
        /// The offending word.
        name: String,
    },
    /// An unrecognized flag.
    UnknownFlag {
        /// The offending flag.
        flag: String,
    },
    /// A flag without its value.
    MissingValue {
        /// The flag.
        flag: String,
    },
    /// A required flag was not given.
    MissingFlag {
        /// The flag.
        flag: String,
    },
    /// A value that does not parse.
    InvalidValue {
        /// The flag.
        flag: String,
        /// The unparsable text.
        value: String,
    },
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::NoCommand => write!(f, "expected a subcommand: run or testnet"),
            CliError::UnknownCommand { name } => {
                write!(f, "unknown subcommand {name:?} (expected run or testnet)")
            }
            CliError::UnknownFlag { flag } => write!(f, "unknown flag {flag}"),
            CliError::MissingValue { flag } => write!(f, "flag {flag} needs a value"),
            CliError::MissingFlag { flag } => write!(f, "required flag {flag} missing"),
            CliError::InvalidValue { flag, value } => {
                write!(f, "invalid value {value:?} for {flag}")
            }
        }
    }
}

impl Error for CliError {}

fn parse_u32_list(flag: &str, value: &str) -> Result<Vec<u32>, CliError> {
    value
        .split(',')
        .map(|v| {
            v.trim().parse().map_err(|_| CliError::InvalidValue {
                flag: flag.to_string(),
                value: v.to_string(),
            })
        })
        .collect()
}

fn parse_faults(value: &str) -> Result<(u64, u32), CliError> {
    let invalid = || CliError::InvalidValue {
        flag: "--faults".to_string(),
        value: value.to_string(),
    };
    parse_seed_rate(value).ok_or_else(invalid)
}

fn parse_partition(value: &str) -> Result<(Vec<usize>, usize, usize), CliError> {
    let invalid = || CliError::InvalidValue {
        flag: "--partition".to_string(),
        value: value.to_string(),
    };
    let parts: Vec<&str> = value.split(':').collect();
    let [ids, from_round, to_round] = parts.as_slice() else {
        return Err(invalid());
    };
    let members = ids
        .split(',')
        .map(|v| v.trim().parse().map_err(|_| invalid()))
        .collect::<Result<Vec<usize>, CliError>>()?;
    Ok((
        members,
        from_round.trim().parse().map_err(|_| invalid())?,
        to_round.trim().parse().map_err(|_| invalid())?,
    ))
}

fn parse_colon_tuple<const N: usize>(flag: &str, value: &str) -> Result<[usize; N], CliError> {
    let invalid = || CliError::InvalidValue {
        flag: flag.to_string(),
        value: value.to_string(),
    };
    let parts: Vec<usize> = value
        .split(':')
        .map(|p| p.trim().parse().map_err(|_| invalid()))
        .collect::<Result<_, _>>()?;
    parts.try_into().map_err(|_| invalid())
}

/// Parses the command line (without the program name).
///
/// # Errors
///
/// [`CliError`] describing the first problem found.
pub fn parse_command(args: impl IntoIterator<Item = String>) -> Result<NodeCommand, CliError> {
    let mut args = args.into_iter();
    let command = args.next().ok_or(CliError::NoCommand)?;
    let mut flags: Vec<(String, String)> = Vec::new();
    let mut args = args.peekable();
    while let Some(flag) = args.next() {
        if !flag.starts_with("--") {
            return Err(CliError::UnknownFlag { flag });
        }
        let value = args
            .next()
            .ok_or_else(|| CliError::MissingValue { flag: flag.clone() })?;
        flags.push((flag, value));
    }

    let take = |name: &str| -> Vec<String> {
        flags
            .iter()
            .filter(|(flag, _)| flag == name)
            .map(|(_, value)| value.clone())
            .collect()
    };
    let known = |allowed: &[&str]| -> Result<(), CliError> {
        for (flag, _) in &flags {
            if !allowed.contains(&flag.as_str()) {
                return Err(CliError::UnknownFlag { flag: flag.clone() });
            }
        }
        Ok(())
    };
    let single = |name: &str| -> Result<Option<String>, CliError> { Ok(take(name).pop()) };
    let required = |name: &str| -> Result<String, CliError> {
        single(name)?.ok_or(CliError::MissingFlag {
            flag: name.to_string(),
        })
    };
    let parse_num = |name: &str, value: &str| -> Result<usize, CliError> {
        value.parse().map_err(|_| CliError::InvalidValue {
            flag: name.to_string(),
            value: value.to_string(),
        })
    };

    match command.as_str() {
        "run" => {
            known(&[
                "--id",
                "--peers",
                "--t",
                "--k",
                "--input",
                "--crash",
                "--round-timeout-ms",
                "--faults",
                "--partition",
                "--metrics",
            ])?;
            let peers_text = required("--peers")?;
            let peers = parse_peers(&peers_text).map_err(|_| CliError::InvalidValue {
                flag: "--peers".to_string(),
                value: peers_text.clone(),
            })?;
            let input = parse_u32_list("--input", &required("--input")?)?;
            let crash = match single("--crash")? {
                Some(v) => {
                    let [round, after_sends] = parse_colon_tuple("--crash", &v)?;
                    Some((round, after_sends))
                }
                None => None,
            };
            Ok(NodeCommand::Run(RunArgs {
                id: parse_num("--id", &required("--id")?)?,
                peers,
                t: match single("--t")? {
                    Some(v) => parse_num("--t", &v)?,
                    None => 1,
                },
                k: match single("--k")? {
                    Some(v) => parse_num("--k", &v)?,
                    None => 1,
                },
                input,
                crash,
                round_timeout_ms: match single("--round-timeout-ms")? {
                    Some(v) => parse_num("--round-timeout-ms", &v)? as u64,
                    None => DEFAULT_ROUND_TIMEOUT.as_millis() as u64,
                },
                faults: single("--faults")?
                    .as_deref()
                    .map(parse_faults)
                    .transpose()?,
                partitions: take("--partition")
                    .iter()
                    .map(|v| parse_partition(v))
                    .collect::<Result<_, _>>()?,
                metrics: single("--metrics")?,
            }))
        }
        "testnet" => {
            known(&[
                "--t",
                "--k",
                "--input",
                "--crash",
                "--port-base",
                "--transport",
                "--round-timeout-ms",
                "--faults",
                "--partition",
                "--metrics",
            ])?;
            let input = parse_u32_list("--input", &required("--input")?)?;
            let crashes = take("--crash")
                .iter()
                .map(|v| {
                    let [id, round, after_sends] = parse_colon_tuple("--crash", v)?;
                    Ok((id, round, after_sends))
                })
                .collect::<Result<Vec<_>, CliError>>()?;
            let transport = match single("--transport")? {
                Some(v) => v.parse().map_err(|_| CliError::InvalidValue {
                    flag: "--transport".to_string(),
                    value: v.clone(),
                })?,
                None => TransportKind::Tcp,
            };
            Ok(NodeCommand::Testnet(TestnetArgs {
                t: match single("--t")? {
                    Some(v) => parse_num("--t", &v)?,
                    None => 1,
                },
                k: match single("--k")? {
                    Some(v) => parse_num("--k", &v)?,
                    None => 1,
                },
                input,
                crashes,
                port_base: match single("--port-base")? {
                    Some(v) => v.parse().map_err(|_| CliError::InvalidValue {
                        flag: "--port-base".to_string(),
                        value: v.clone(),
                    })?,
                    None => 45_800,
                },
                transport,
                round_timeout_ms: match single("--round-timeout-ms")? {
                    Some(v) => parse_num("--round-timeout-ms", &v)? as u64,
                    None => DEFAULT_ROUND_TIMEOUT.as_millis() as u64,
                },
                faults: single("--faults")?
                    .as_deref()
                    .map(parse_faults)
                    .transpose()?,
                partitions: take("--partition")
                    .iter()
                    .map(|v| parse_partition(v))
                    .collect::<Result<_, _>>()?,
                metrics: single("--metrics")?,
            }))
        }
        other => Err(CliError::UnknownCommand {
            name: other.to_string(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{localhost_peers, NodeConfig};

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_a_full_run_command() {
        let cmd = parse_command(strings(&[
            "run",
            "--id",
            "2",
            "--peers",
            "127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002",
            "--t",
            "1",
            "--k",
            "1",
            "--input",
            "3,9,1",
            "--crash",
            "1:2",
            "--round-timeout-ms",
            "500",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            NodeCommand::Run(RunArgs {
                id: 2,
                peers: localhost_peers(3, 7000),
                t: 1,
                k: 1,
                input: vec![3, 9, 1],
                crash: Some((1, 2)),
                round_timeout_ms: 500,
                faults: None,
                partitions: vec![],
                metrics: None,
            })
        );
    }

    #[test]
    fn metrics_flag_takes_a_dump_target() {
        let cmd = parse_command(strings(&["testnet", "--input", "1,2", "--metrics", "-"])).unwrap();
        let NodeCommand::Testnet(args) = cmd else {
            panic!("expected testnet");
        };
        assert_eq!(args.metrics.as_deref(), Some("-"));
    }

    #[test]
    fn fault_flags_build_the_same_plan_on_every_node() {
        let cmd = parse_command(strings(&[
            "testnet",
            "--input",
            "1,2,3,4,5",
            "--faults",
            "7:2500",
            "--partition",
            "0,1:1:2",
            "--partition",
            "4:3:3",
        ]))
        .unwrap();
        let NodeCommand::Testnet(args) = cmd else {
            panic!("expected testnet");
        };
        assert_eq!(args.faults, Some((7, 2500)));
        assert_eq!(args.partitions, vec![(vec![0, 1], 1, 2), (vec![4], 3, 3)]);
        let plan = fault_plan(5, args.faults, &args.partitions)
            .unwrap()
            .expect("fault flags present");
        assert_eq!(plan.seed(), 7);
        assert_eq!(plan.partitions().len(), 2);
        // The plan is a pure function of the flags: re-deriving it (as
        // every node process does independently) yields the same plan.
        assert_eq!(
            Some(plan),
            fault_plan(5, args.faults, &args.partitions).unwrap()
        );
        assert_eq!(fault_plan(5, None, &[]).unwrap(), None);
        assert_eq!(
            fault_plan(3, None, &[(vec![3], 1, 2)]),
            Err(CliError::InvalidValue {
                flag: "--partition".to_string(),
                value: "3".to_string(),
            })
        );
    }

    #[test]
    fn cli_round_timeout_default_matches_the_node_config_default() {
        // Satellite of the robustness issue: the CLI's default must be
        // *derived from* NodeConfig's, not a second hard-coded copy.
        let cmd = parse_command(strings(&["testnet", "--input", "1,2"])).unwrap();
        let NodeCommand::Testnet(args) = cmd else {
            panic!("expected testnet");
        };
        let config = NodeConfig::new(ProcessId::new(0), localhost_peers(2, 7000)).unwrap();
        assert_eq!(
            u128::from(args.round_timeout_ms),
            config.round_timeout.as_millis()
        );
        assert_eq!(config.round_timeout, DEFAULT_ROUND_TIMEOUT);
    }

    #[test]
    fn testnet_defaults_and_repeated_crashes() {
        let cmd = parse_command(strings(&[
            "testnet",
            "--input",
            "3,9,1,4,7",
            "--crash",
            "1:1:2",
            "--crash",
            "4:2:0",
        ]))
        .unwrap();
        let NodeCommand::Testnet(args) = cmd else {
            panic!("expected testnet");
        };
        assert_eq!(args.input.len(), 5);
        assert_eq!(args.crashes, vec![(1, 1, 2), (4, 2, 0)]);
        assert_eq!(args.transport, TransportKind::Tcp);
        assert_eq!(args.port_base, 45_800);
        assert_eq!((args.t, args.k), (1, 1));
    }

    #[test]
    fn loopback_transport_is_selectable() {
        let cmd = parse_command(strings(&[
            "testnet",
            "--input",
            "1,2",
            "--transport",
            "loopback",
        ]))
        .unwrap();
        let NodeCommand::Testnet(args) = cmd else {
            panic!("expected testnet");
        };
        assert_eq!(args.transport, TransportKind::Loopback);
    }

    #[test]
    fn errors_name_the_problem() {
        assert_eq!(parse_command(strings(&[])), Err(CliError::NoCommand));
        assert_eq!(
            parse_command(strings(&["serve"])),
            Err(CliError::UnknownCommand {
                name: "serve".to_string()
            })
        );
        assert_eq!(
            parse_command(strings(&[
                "run",
                "--peers",
                "127.0.0.1:7000,127.0.0.1:7001"
            ])),
            Err(CliError::MissingFlag {
                flag: "--input".to_string()
            })
        );
        assert_eq!(
            parse_command(strings(&["testnet", "--input", "1,2", "--crash", "1:2"])),
            Err(CliError::InvalidValue {
                flag: "--crash".to_string(),
                value: "1:2".to_string()
            })
        );
        // A rate is parts per 10 000: past that it is no rate, and parsed
        // it would label the run differently from the plan it runs.
        for faults in ["7", "a:b", "7:10001", "7:25000"] {
            assert_eq!(
                parse_command(strings(&["testnet", "--input", "1,2", "--faults", faults])),
                Err(CliError::InvalidValue {
                    flag: "--faults".to_string(),
                    value: faults.to_string()
                })
            );
        }
        assert!(parse_command(strings(&[
            "testnet", "--input", "1,2", "--faults", "7:10000"
        ]))
        .is_ok());
        assert_eq!(
            parse_command(strings(&["testnet", "--input", "1,2", "--fast", "yes"])),
            Err(CliError::UnknownFlag {
                flag: "--fast".to_string()
            })
        );
    }
}
