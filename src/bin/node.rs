//! The `setagree-node` binary: the networked execution tier's entry
//! point.
//!
//! Two subcommands (see [`setagree_node::USAGE`]):
//!
//! * `run` — be one TCP node: join the mesh, run `FloodSet` over this
//!   node's proposal, print `OUTCOME` / `RECEIVED` lines for the testnet
//!   harness. With `--crash R:S`, **abort the process** at the scheduled
//!   point — the kill-based adversary made physical.
//! * `testnet` — orchestrate a whole system: spawn one node per proposal
//!   (TCP: real processes on localhost, each one an invocation of this
//!   same binary; loopback: in-process tasks through
//!   `Executor::Networked`), kill the victims, and print the collected
//!   [`Report`] with a final `verdict:` line.
//!
//! Argument parsing lives in `setagree_node::cli` (unit-tested there);
//! this file only maps parsed values onto protocol instances, which
//! requires `setagree-core` — a dependency the node crate cannot have,
//! since core depends on it for the networked executor.

use std::error::Error;
use std::process::ExitCode;
use std::time::Duration;

use setagree_codec::SnapshotCodec;
use setagree_core::{Adversary, Executor, FloodSet, ProtocolKind, Report, Scenario, TransportKind};
use setagree_node::{
    drive, fault_plan, parse_command, run_testnet_observed, DriveError, NodeCommand, NodeConfig,
    RunArgs, TcpError, TcpTransport, TestnetArgs, TestnetConfig, Typed, TypedError, U32Codec,
    USAGE,
};
use setagree_obs::Snapshot;
use setagree_sync::{bounds, CrashSpec, FailurePattern, Outcome};
use setagree_types::{InputVector, ProcessId};

/// Resolves the metrics dump target — the `--metrics` flag wins, then
/// the `SETAGREE_METRICS` environment variable — and enables the
/// observability registry when one is set.
fn metrics_target(flag: &Option<String>) -> Option<String> {
    let target = flag.clone().or_else(setagree_obs::init_from_env);
    if target.is_some() {
        setagree_obs::set_enabled(true);
    }
    target
}

fn main() -> ExitCode {
    let command = match parse_command(std::env::args().skip(1)) {
        Ok(command) => command,
        Err(err) => {
            eprintln!("{USAGE}\n\nerror: {err}");
            return ExitCode::from(2);
        }
    };
    let result = match command {
        NodeCommand::Run(args) => run_one_node(args),
        NodeCommand::Testnet(args) => run_testnet_system(args),
    };
    match result {
        Ok(code) => code,
        Err(err) => {
            eprintln!("error: {err}");
            ExitCode::FAILURE
        }
    }
}

/// FloodSet's round bound, `⌊t/k⌋ + 1` — also the drive loop's limit
/// (the protocol decides exactly then, so no slack is needed).
fn predicted_rounds(t: usize, k: usize) -> Result<usize, Box<dyn Error>> {
    if k == 0 {
        return Err("k must be at least 1".into());
    }
    Ok(bounds::classical(t, k))
}

/// The `run` subcommand: one real TCP node.
fn run_one_node(args: RunArgs) -> Result<ExitCode, Box<dyn Error>> {
    if args.peers.len() != args.input.len() {
        return Err(format!(
            "{} peers but {} proposals — one proposal per node",
            args.peers.len(),
            args.input.len()
        )
        .into());
    }
    if args.id >= args.input.len() {
        return Err(format!("--id {} out of range for n = {}", args.id, args.input.len()).into());
    }
    let metrics = metrics_target(&args.metrics);
    let limit = predicted_rounds(args.t, args.k)?;
    let mut config = NodeConfig::new(ProcessId::new(args.id), args.peers)?
        .with_round_timeout(Duration::from_millis(args.round_timeout_ms));
    if let Some(plan) = fault_plan(args.input.len(), args.faults, &args.partitions)? {
        config = config.with_fault_plan(plan);
    }
    let tcp = TcpTransport::establish(&config)?;
    let mut transport = Typed::new(tcp, U32Codec);
    let proto = FloodSet::new(args.t, args.k, args.input[args.id]);
    let crash = args
        .crash
        .map(|(round, after_sends)| CrashSpec::new(round, after_sends));

    match drive(proto, &mut transport, crash, limit) {
        Ok(Outcome::Crashed { .. }) => {
            // The kill: die for real. The kernel closes the sockets and
            // peers observe end-of-stream; nothing is printed, the
            // harness fills in the Crashed outcome it injected.
            std::process::abort();
        }
        Ok(Outcome::Decided { value, round }) => {
            println!("OUTCOME decided {value} {round}");
            println!("RECEIVED {}", transport.inner().received_total());
            if let Some(target) = metrics {
                let snapshot = setagree_obs::global().snapshot();
                // Machine lines on stdout for the testnet harness; the
                // rendered exposition goes to the target (stderr for
                // `-`), keeping stdout parseable.
                for line in snapshot.to_lines() {
                    println!("{line}");
                }
                setagree_obs::dump(&target, &snapshot)?;
            }
            Ok(ExitCode::SUCCESS)
        }
        Ok(Outcome::Undecided) => Err(format!("no decision within the {limit}-round bound").into()),
        Err(DriveError::Transport(TypedError::Transport(TcpError::RoundTimeout {
            round,
            peers,
        }))) => {
            // A liveness anomaly, not a crash: silent-but-connected
            // peers. Report it machine-readably so the harness can
            // surface a distinct RoundTimeout instead of NodeFailed.
            let peers = peers
                .iter()
                .map(|p| p.to_string())
                .collect::<Vec<_>>()
                .join(",");
            println!("TIMEOUT {round} {peers}");
            Err(format!("node {}: round {round} timed out on {peers}", args.id).into())
        }
        Err(err) => Err(format!("node {}: {err}", args.id).into()),
    }
}

/// The `testnet` subcommand: a whole system, on either transport.
fn run_testnet_system(args: TestnetArgs) -> Result<ExitCode, Box<dyn Error>> {
    let n = args.input.len();
    let predicted = predicted_rounds(args.t, args.k)?;
    let mut pattern = FailurePattern::none(n);
    for &(id, round, after_sends) in &args.crashes {
        pattern.crash(ProcessId::new(id), CrashSpec::new(round, after_sends))?;
    }

    let metrics = metrics_target(&args.metrics);
    let plan = fault_plan(n, args.faults, &args.partitions)?;
    // Attribution suffix for the verdict line: a run shaped by an
    // injected fault plan says so, compactly and deterministically.
    let fault_suffix = plan
        .as_ref()
        .map(|p| format!(" [{}]", p.summary()))
        .unwrap_or_default();

    let mut child_metrics = Snapshot::new();
    let report = match args.transport {
        TransportKind::Tcp => {
            let config = TestnetConfig {
                binary: std::env::current_exe()?,
                t: args.t,
                k: args.k,
                input: args.input.clone(),
                pattern,
                port_base: args.port_base,
                round_timeout: Duration::from_millis(args.round_timeout_ms),
                faults: args.faults,
                partitions: args.partitions.clone(),
                metrics: metrics.is_some(),
            };
            println!(
                "testnet: {n} node processes on 127.0.0.1:{}…, {} kill(s) scheduled{}",
                args.port_base,
                args.crashes.len(),
                if plan.is_some() {
                    ", link faults injected"
                } else {
                    ""
                }
            );
            let (trace, folded) = run_testnet_observed(&config)?;
            child_metrics = folded;
            Report::from_trace(
                trace,
                InputVector::new(args.input),
                args.k,
                predicted,
                ProtocolKind::FloodSet,
                Executor::Networked {
                    transport: TransportKind::Tcp,
                },
            )
        }
        TransportKind::Loopback => {
            println!(
                "testnet: {n} loopback node tasks, {} kill(s) scheduled{}",
                args.crashes.len(),
                if plan.is_some() {
                    ", link faults injected"
                } else {
                    ""
                }
            );
            let adversary = match plan.clone() {
                Some(plan) => Adversary::Omission {
                    plan,
                    crashes: pattern,
                },
                None => Adversary::from(pattern),
            };
            Scenario::flood_set(n, args.t, args.k)
                .input(args.input)
                .pattern(adversary)
                .executor(Executor::Networked {
                    transport: TransportKind::Loopback,
                })
                .run()?
        }
    };

    println!("{report}");
    if let Some(trace) = report.trace() {
        print!("{trace}");
    }
    if let Some(target) = metrics {
        // System-wide snapshot: the children's folded METRIC lines (TCP)
        // merged with this process's own registry (which holds
        // everything on the loopback tier).
        let mut aggregate = child_metrics;
        aggregate.merge(&setagree_obs::global().snapshot());
        // The snapshot must survive the cache/journal wire format
        // losslessly before anyone stores it there.
        let bytes = SnapshotCodec::encode(&aggregate);
        let decoded = SnapshotCodec::decode(&bytes)
            .map_err(|e| format!("metrics snapshot failed to decode: {e}"))?;
        if SnapshotCodec::encode(&decoded) != bytes {
            return Err("metrics snapshot codec round-trip diverged".into());
        }
        eprintln!(
            "metrics: {} series from {} ({} bytes, codec round-trip ok)",
            aggregate.entries().len(),
            report.executor().label_with_faults(plan.as_ref()),
            bytes.len(),
        );
        setagree_obs::dump(&target, &aggregate)?;
    }
    let satisfied = report.satisfies_all();
    println!(
        "verdict: {}{fault_suffix}",
        if satisfied { "SATISFIED" } else { "VIOLATED" }
    );
    Ok(if satisfied {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
