//! The `setagree` benchmark: one command runs one named workload from a
//! seed, checks every output, and prints every metric by name with its
//! unit. `--trace 1` reruns the workload with spans around each call
//! into a layer and prints the per-layer numbers instead. See
//! `benchmark/README.md`.

mod calib;
mod inputs;
mod metrics;
mod probes;
mod procstat;
mod rng;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use setagree::obs::{self, MetricValue, Snapshot};

use crate::calib::HostSpeed;
use crate::metrics::{manifest, name_is_valid, MetricDef, END_TO_END, PER_LAYER, RUN_SECONDS};
use crate::probes::Probes;
use crate::stats::{median, p90, quantile, Stat};
use crate::trace::{self_times_ns, Tracer};
use crate::workloads::{Env, Ledger, Scale, Workload, WorkloadDef, DEFAULT_SEED, WORKLOADS};

const USAGE: &str = "\
usage: setagree-benchmark --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
                          [--node-binary <path>] [--out <dir>]
       setagree-benchmark --check      every workload at reduced size, all output checks on
       setagree-benchmark --manifest   print BENCHMARK.json";

/// Every measured phase runs at least this many ops, so `op_ms_p90` has
/// ten samples beyond it and the digested prefix is the same in every
/// run, however fast the machine.
const MIN_OPS: usize = 100;
/// Setup runs this many times per run; `setup_s` is the median.
const SETUP_REPEATS: usize = 5;
/// The traced run alternates chunks of this many ops with tracing (and
/// the program's own metrics) off and on. At check size, where a pool
/// holds fewer ops than a chunk, every op is traced.
const TRACE_CHUNK: usize = 4;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    check: bool,
    manifest: bool,
    node_binary: PathBuf,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        check: false,
        manifest: false,
        node_binary: PathBuf::from("target/release/setagree-node"),
        out: PathBuf::from("benchmark/out"),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--node-binary" => args.node_binary = PathBuf::from(value()?),
            "--out" => args.out = PathBuf::from(value()?),
            "--check" => args.check = true,
            "--manifest" => args.manifest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// The run's private directory for journals: `<out>/tmp-<pid>`, removed
/// when the run ends — also when it ends by panic.
struct Scratch(PathBuf);

impl Scratch {
    fn create(out: &Path) -> Scratch {
        let path = out.join(format!("tmp-{}", std::process::id()));
        fs::create_dir_all(&path).expect("the output directory is writable");
        Scratch(path)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// One finished run: what goes on the last line.
struct Outcome {
    attempted: u64,
    failed: u64,
    /// The verdict digest of the checked prefix.
    verdict_digest: u64,
    metrics: Vec<(&'static str, &'static str, Stat)>,
    complaints: Vec<String>,
}

impl Outcome {
    /// Lines the measured `values` up with the metrics the manifest
    /// names: one missing or one too many is a complaint.
    fn new<'a>(
        ledger: Ledger,
        mut complaints: Vec<String>,
        defs: impl Iterator<Item = &'a MetricDef>,
        mut values: BTreeMap<&'static str, Stat>,
    ) -> Outcome {
        complaints.extend(ledger.complaints);
        let mut metrics = Vec::new();
        for def in defs {
            match values.remove(def.name) {
                Some(stat) => metrics.push((def.name, def.unit, stat)),
                None => complaints.push(format!("metric {} was not measured", def.name)),
            }
        }
        complaints.extend(
            values
                .keys()
                .map(|name| format!("metric {name} is not in the manifest")),
        );
        Outcome {
            attempted: ledger.attempted,
            failed: ledger.failed,
            verdict_digest: ledger.sim.digest.value(),
            metrics,
            complaints,
        }
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.complaints.is_empty()
    }

    /// The single JSON object the driver reads.
    fn to_json(&self) -> String {
        let mut metrics = String::new();
        for (index, (name, unit, stat)) in self.metrics.iter().enumerate() {
            let comma = if index == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{comma}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                stat.median
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }

    /// One line per metric for people: name, value, unit, spread.
    fn print(&self) {
        for (name, unit, stat) in &self.metrics {
            println!(
                "METRIC {name} {} {unit} mad={} samples={}",
                stat.median, stat.mad, stat.samples
            );
        }
        for complaint in &self.complaints {
            println!("FAILED {complaint}");
        }
    }
}

/// The op times of one measured phase, in seconds.
struct Measured {
    ops: Vec<f64>,
    /// Wall time of the phase outside ops: the output checks and what
    /// `before_op` does, one busy thread throughout.
    outside: f64,
}

/// Runs ops until both the time box and the op floor are met (or the
/// pool runs out).
fn measure(
    workload: &mut dyn Workload,
    seconds: f64,
    min_ops: usize,
    tracer: &mut Tracer,
    ledger: &mut Ledger,
    mut before_op: impl FnMut(usize, &mut Tracer),
) -> Measured {
    let started = Instant::now();
    let deadline = Duration::from_secs_f64(seconds);
    let mut ops = Vec::new();
    for index in 0..workload.ops_available() {
        if index >= min_ops && started.elapsed() >= deadline {
            break;
        }
        before_op(index, tracer);
        tracer.set_op(index);
        let (elapsed, seen) = workload.op(index, tracer);
        ledger.merge(seen, index < min_ops);
        ops.push(elapsed.as_secs_f64());
    }
    Measured {
        outside: started.elapsed().as_secs_f64() - ops.iter().sum::<f64>(),
        ops,
    }
}

/// Fails the run when the inputs of the default seed have drifted.
fn check_inputs_digest(def: &WorkloadDef, env: &Env, digest: u64, complaints: &mut Vec<String>) {
    println!("inputs_digest {digest:#018x}");
    if env.seed == DEFAULT_SEED && env.scale == Scale::Full && digest != def.inputs_digest {
        complaints.push(format!(
            "inputs_digest {digest:#018x} differs from the recorded {:#018x}: the inputs drifted",
            def.inputs_digest
        ));
    }
}

/// The 90th percentile of the op times; with fewer than 100 ops (only
/// at check size, where no timing is claimed) whatever quantile there is.
fn tail_ms(op_ms: &[f64]) -> f64 {
    p90(op_ms).unwrap_or_else(|| quantile(op_ms, 0.9))
}

fn print_sim(ledger: &Ledger, ops: usize) {
    let sim = &ledger.sim;
    println!(
        "sim over the first {} ops: cells={} rounds={} messages={} decided_values={} \
         agreement_violations={} verdict_digest={:#018x}",
        ops.min(MIN_OPS),
        sim.cells,
        sim.rounds,
        sim.messages,
        sim.decided_values,
        sim.agreement_violations,
        sim.digest.value()
    );
}

/// The untraced run: the end-to-end metrics.
fn run_end_to_end(def: &WorkloadDef, env: &Env, seconds: f64, min_ops: usize) -> Outcome {
    let name = def.name;
    let mut setup_seconds = Vec::new();
    let mut workload = None;
    for _ in 0..SETUP_REPEATS {
        // Tear the previous instance down off the clock.
        drop(workload.take());
        let started = Instant::now();
        workload = Some((def.setup)(env));
        setup_seconds.push(started.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("set up at least once");
    let mut complaints = Vec::new();
    check_inputs_digest(def, env, workload.inputs_digest(), &mut complaints);

    let mut ledger = Ledger::default();
    let mut speed = HostSpeed::new();
    let cpu_before = procstat::cpu_seconds();
    let measured = measure(
        workload.as_mut(),
        seconds,
        min_ops,
        &mut Tracer::new(),
        &mut ledger,
        |_, _| speed.read_if_due(),
    );
    // Outside ops the benchmark's own thread is busy (checks and kernel
    // readings) and the program idle: that wall time is CPU time the
    // program did not spend.
    let cpu = procstat::cpu_seconds() - cpu_before - measured.outside;
    let peak_rss_mb = procstat::peak_rss_mb();

    let cells = ledger.attempted as f64;
    let busy: f64 = measured.ops.iter().sum();
    let slowdown = speed.slowdown();
    let op_ms: Vec<f64> = measured.ops.iter().map(|s| s * 1e3).collect();
    println!(
        "{name}: {} ops, {} cells, {busy:.3} s inside ops, host {slowdown:.3}x slower than nominal",
        op_ms.len(),
        ledger.attempted,
    );
    println!(
        "RAW cells_per_s={} cpu_us_per_cell={}",
        cells / busy,
        cpu * 1e6 / cells
    );
    println!(
        "op_ms_p50 {} ms, op_ms_p90 {} ms over {} samples, {} of them beyond the 90th percentile",
        median(&op_ms),
        tail_ms(&op_ms),
        op_ms.len(),
        stats::samples_beyond(op_ms.len(), 0.9)
    );
    print_sim(&ledger, op_ms.len());
    let values = BTreeMap::from([
        ("cells_per_s", Stat::exact(cells * slowdown / busy)),
        ("cpu_us_per_cell", Stat::exact(cpu / slowdown * 1e6 / cells)),
        ("peak_rss_mb", Stat::exact(peak_rss_mb)),
        ("setup_s", Stat::of(&setup_seconds)),
    ]);
    Outcome::new(
        ledger,
        complaints,
        END_TO_END.iter().map(|(def, _)| def),
        values,
    )
}

fn histogram_mean(snapshot: &Snapshot, name: &str) -> f64 {
    let (mut count, mut sum) = (0u64, 0u64);
    for entry in snapshot.entries() {
        if let (true, MetricValue::Histogram(data)) = (entry.name == name, &entry.value) {
            count += data.count;
            sum += data.sum;
        }
    }
    if count == 0 {
        0.0
    } else {
        sum as f64 / count as f64
    }
}

/// The traced run: the layer probes (`probe`; they are the same for
/// every workload, and run first so that they always meet the process
/// in the same state), then the workload again with spans and the
/// program's own metrics on for every other chunk of ops.
fn run_traced(
    def: &WorkloadDef,
    env: &Env,
    seconds: f64,
    min_ops: usize,
    out: &Path,
    probe: impl FnOnce() -> Probed,
) -> Outcome {
    let (probed, mut complaints) = probe();
    let name = def.name;
    let mut workload = (def.setup)(env);
    check_inputs_digest(def, env, workload.inputs_digest(), &mut complaints);

    let mut tracer = Tracer::new();
    let mut ledger = Ledger::default();
    let traced = |index: usize| env.scale == Scale::Check || (index / TRACE_CHUNK) % 2 == 1;
    let op_seconds = measure(
        workload.as_mut(),
        seconds,
        min_ops,
        &mut tracer,
        &mut ledger,
        |index, tracer| {
            tracer.set_on(traced(index));
            obs::set_enabled(traced(index));
        },
    )
    .ops;
    obs::set_enabled(false);
    let snapshot = obs::global().snapshot();
    drop(workload);
    print_sim(&ledger, op_seconds.len());
    let op_ms: Vec<f64> = op_seconds.iter().map(|s| s * 1e3).collect();
    let tail = tail_ms(&op_ms);

    let (mut on, mut off) = (Vec::new(), Vec::new());
    for (index, seconds) in op_seconds.iter().enumerate() {
        if traced(index) { &mut on } else { &mut off }.push(*seconds);
    }
    let traced_ops = on.len().max(1) as f64;
    let own = self_times_ns(tracer.spans());
    let op_total: u64 = tracer
        .spans()
        .iter()
        .filter(|span| span.parent.is_none())
        .map(|span| span.duration_ns())
        .sum();
    let share = |names: &[&str]| -> f64 {
        let ns: u64 = names.iter().filter_map(|name| own.get(name)).sum();
        ns as f64 / op_total.max(1) as f64
    };
    let sim = ledger.sim;
    let mut values: BTreeMap<&str, Stat> = [
        (
            "obs.trace_overhead_share",
            if on.is_empty() || off.is_empty() {
                0.0
            } else {
                median(&on) / median(&off) - 1.0
            },
        ),
        ("span.op.self_share", share(&["op"])),
        ("span.core_suite.self_share", share(&["core.suite.run"])),
        (
            "span.core_cache.self_share",
            share(&["core.cache.resume_journal"]),
        ),
        (
            "span.core_scenario.self_share",
            share(&["core.scenario.run"]),
        ),
        ("span.sync_engine.self_share", share(&["sync.run_protocol"])),
        (
            "obs.suite_cell_latency_us.mean",
            histogram_mean(&snapshot, "suite_cell_latency_us"),
        ),
        (
            "obs.suite_queue_wait_us.mean",
            histogram_mean(&snapshot, "suite_queue_wait_us"),
        ),
        (
            "obs.engine_round_us.mean",
            histogram_mean(&snapshot, "engine_round_duration_us"),
        ),
        (
            "obs.pool_handoff_wait_us.mean",
            histogram_mean(&snapshot, "pool_handoff_wait_us"),
        ),
        (
            "obs.engine_messages_per_op",
            snapshot.counter("engine_messages_delivered") as f64 / traced_ops,
        ),
        (
            "obs.suite_cache_hits_per_op",
            snapshot.counter("suite_cache_hits") as f64 / traced_ops,
        ),
        (
            "obs.fault_dropped_per_op",
            snapshot.counter("fault_messages_dropped") as f64 / traced_ops,
        ),
        ("op.ms_p50", median(&op_ms)),
        ("op.ms_p90", tail),
        ("sim.cells", sim.cells as f64),
        ("sim.rounds", sim.rounds as f64),
        ("sim.messages", sim.messages as f64),
        ("sim.decided_values", sim.decided_values as f64),
        ("sim.agreement_violations", sim.agreement_violations as f64),
        (
            "sim.verdict_digest",
            (sim.digest.value() & ((1 << 48) - 1)) as f64,
        ),
    ]
    .into_iter()
    .map(|(name, value)| (name, Stat::exact(value)))
    .collect();

    values.extend(probed);
    if tracer.spans().is_empty() {
        complaints.push("the traced run recorded no span".to_string());
    }

    fs::create_dir_all(out).expect("the output directory is writable");
    let path = out.join(format!("{name}.trace.json"));
    fs::write(&path, tracer.to_json()).expect("the output directory is writable");
    println!(
        "{} spans over {} traced ops written to {}",
        tracer.spans().len(),
        on.len(),
        path.display()
    );

    Outcome::new(ledger, complaints, PER_LAYER.iter(), values)
}

/// What the layer probes measured, and what they have to complain of.
type Probed = (Vec<(&'static str, Stat)>, Vec<String>);

fn probe_layers(env: &Env) -> Probed {
    let mut probes = Probes::new(env);
    probes.run_all();
    (probes.results, probes.complaints)
}

/// `--check`: every workload at reduced size, traced and untraced, all
/// output checks on, no timing assertions. (All workloads share one
/// process here, so the program's own counters — the `obs.*` metrics of
/// the traced runs — add up across them; only their presence is checked.)
fn check(args: &Args) -> bool {
    let mut ok = true;
    let mut complain = |what: String| {
        println!("CHECK FAILED {what}");
        ok = false;
    };
    match fs::read_to_string("BENCHMARK.json") {
        Ok(committed) if committed == manifest() => {}
        Ok(_) => complain("BENCHMARK.json differs from --manifest".to_string()),
        Err(error) => complain(format!("BENCHMARK.json: {error}")),
    }
    let scratch = Scratch::create(&args.out);
    let env = Env {
        seed: args.seed,
        scale: Scale::Check,
        node_binary: args.node_binary.clone(),
        scratch: scratch.0.clone(),
    };
    let probed = probe_layers(&env);
    let mut digests = BTreeMap::new();
    for workload in &WORKLOADS {
        let runs = [
            run_end_to_end(workload, &env, 0.0, usize::MAX),
            run_traced(workload, &env, 0.0, usize::MAX, &scratch.0, || {
                probed.clone()
            }),
        ];
        for (run, expected) in runs.iter().zip([END_TO_END.len(), PER_LAYER.len()]) {
            run.print();
            if !run.correct() {
                complain(format!("{}: {} failed cells", workload.name, run.failed));
            }
            if run.metrics.len() != expected {
                complain(format!("{}: a metric is missing", workload.name));
            }
            for (name, _, stat) in &run.metrics {
                if !name_is_valid(name) || !stat.median.is_finite() {
                    complain(format!(
                        "{}: bad metric {name} = {}",
                        workload.name, stat.median
                    ));
                }
            }
        }
        if runs[0].verdict_digest != runs[1].verdict_digest {
            complain(format!(
                "{}: the traced run reached other verdicts than the untraced one",
                workload.name
            ));
        }
        digests.insert(workload.name, runs[0].verdict_digest);
        println!("check {}: done", workload.name);
    }
    // Same seed, same passes: the journaled sweep must reach the cold
    // sweep's verdicts. (`sweep_warm` holds each pass it serves against
    // its own cold priming run.)
    if digests["sweep_cold"] != digests["sweep_journaled"] {
        complain("sweep_cold and sweep_journaled reached different verdicts".to_string());
    }
    ok
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("{USAGE}\n\nerror: {error}");
            return ExitCode::from(2);
        }
    };
    if args.manifest {
        print!("{}", manifest());
        return ExitCode::SUCCESS;
    }
    if args.check {
        return if check(&args) {
            println!("check: every workload passed");
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let name = args.workload.as_deref();
    let Some(def) = WORKLOADS.iter().find(|def| Some(def.name) == name) else {
        eprintln!("{USAGE}\n\nerror: --workload must name one of the workloads, not {name:?}");
        return ExitCode::from(2);
    };
    let scratch = Scratch::create(&args.out);
    let env = Env {
        seed: args.seed,
        scale: Scale::Full,
        node_binary: args.node_binary.clone(),
        scratch: scratch.0.clone(),
    };
    let outcome = if args.trace {
        run_traced(def, &env, args.seconds, MIN_OPS, &args.out, || {
            probe_layers(&env)
        })
    } else {
        run_end_to_end(def, &env, args.seconds, MIN_OPS)
    };
    drop(scratch);
    outcome.print();
    println!("{}", outcome.to_json());
    // A run that printed its result exits 0 even when cells failed: the
    // failures are in the result, where the reader compares them.
    ExitCode::SUCCESS
}
