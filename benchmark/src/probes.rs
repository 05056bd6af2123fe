//! Layer probes: each layer's public functions priced on their own,
//! from outside, on inputs drawn from the run's seed. Every probe takes
//! `k` independent samples and is reported as median + MAD.
//!
//! The probes are the same for every workload (the driver's contract
//! wants every per-layer metric from every traced run); what differs
//! per workload is the traced workload itself, measured in `main`.

use std::fs;
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use setagree::codec::journal::{Cursor, JournalWriter};
use setagree::codec::{Frame, Reader, SnapshotCodec, Writer};
use setagree::conditions::{ConditionOracle, LegalityParams, MaxCondition};
use setagree::core::codec::{decode_report, encode_report};
use setagree::core::{
    Adversary, DenseFlood, Executor, FaultPlan, ProtocolSpec, Report, Scenario, ScenarioSuite,
    SuiteCache, SuiteReport, TransportKind,
};
use setagree::node::config::DEFAULT_ROUND_TIMEOUT;
use setagree::node::{run_testnet, TestnetConfig};
use setagree::obs;
use setagree::runtime::{delivery, pool};
use setagree::sync::{
    run_protocol, run_protocol_faulty, CrashSpec, FailurePattern, Step, SyncProtocol, Trace,
};
use setagree::types::{ProcessId, ValueTable, View};

use crate::inputs::{
    family_specs, grid_pass, in_condition, lossy_plan, operating_point, out_of_condition, spread,
    Fnv, Links, SuiteInputs, CELLS_PER_PASS,
};
use crate::rng::SplitMix64;
use crate::stats::Stat;
use crate::trace::Tracer;
use crate::workloads::{fresh_journaled_cache, Env};

/// Collects probe results.
pub struct Probes<'a> {
    env: &'a Env,
    /// Independent samples per probe.
    k: usize,
    /// How long one sample of a cheap operation should last.
    sample_budget: Duration,
    rng: SplitMix64,
    pub results: Vec<(&'static str, Stat)>,
    /// Probes that reached no result: each makes the run incorrect.
    pub complaints: Vec<String>,
}

/// A benchmark-owned flood with a one-word message: the engine's round
/// loop priced with no `types` work inside it (view merging has its own
/// probes).
#[derive(Debug)]
struct MaxFlood {
    rounds: usize,
    best: u32,
}

impl MaxFlood {
    fn system(n: usize, rounds: usize) -> Vec<MaxFlood> {
        (0..n as u32)
            .map(|i| MaxFlood {
                rounds,
                best: i + 1,
            })
            .collect()
    }
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

const FLOOD_ROUNDS: usize = 3;

/// The TCP probes' testnet: five real `setagree-node` processes on
/// localhost, input `3,9,1,4,7`, t = 2, k = 1, default timeouts; the
/// kill run crashes node 1 in round 1 after two of its five sends
/// (`--crash 1:1:2`).
const TESTNET_INPUT: [u32; 5] = [3, 9, 1, 4, 7];

fn testnet_config(binary: &Path, kill: bool, port_base: u16) -> TestnetConfig {
    let mut pattern = FailurePattern::none(TESTNET_INPUT.len());
    if kill {
        pattern
            .crash(ProcessId::new(1), CrashSpec::new(1, 2))
            .expect("the victim exists");
    }
    TestnetConfig {
        binary: binary.to_path_buf(),
        t: 2,
        k: 1,
        input: TESTNET_INPUT.to_vec(),
        pattern,
        port_base,
        round_timeout: DEFAULT_ROUND_TIMEOUT,
        faults: None,
        partitions: Vec::new(),
        metrics: false,
    }
}

/// Port bases rotate through 10000..30000 in steps of 8: below the
/// kernel's ephemeral range, so a node's outgoing connection never
/// squats on a later run's listening port.
fn port_base(slot: usize) -> u16 {
    (10_000 + (slot * 8) % 20_000) as u16
}

/// The sum of a counter over all its label sets in a rendered snapshot
/// (`name{labels} value` or `name value` lines).
fn rendered_counter(rendered: &str, name: &str) -> f64 {
    rendered
        .lines()
        .filter_map(|line| line.rsplit_once(' '))
        .filter(|(series, _)| series.split('{').next() == Some(name))
        .filter_map(|(_, value)| value.parse::<f64>().ok())
        .sum()
}

impl<'a> Probes<'a> {
    pub fn new(env: &'a Env) -> Probes<'a> {
        let (k, sample_budget) = env.scale.pick(
            (15, Duration::from_millis(2)),
            (2, Duration::from_micros(100)),
        );
        Probes {
            env,
            k,
            sample_budget,
            // The probes draw from their own stream of the seed, apart
            // from every workload's pool.
            rng: SplitMix64::new(env.seed).fork(u64::MAX),
            results: Vec::new(),
            complaints: Vec::new(),
        }
    }

    fn push(&mut self, name: &'static str, samples: &[f64]) {
        self.results.push((name, Stat::of(samples)));
    }

    /// Records `samples ÷ divisor`: unit conversions and per-item costs.
    fn push_per(&mut self, name: &'static str, samples: &[f64], divisor: f64) {
        let scaled: Vec<f64> = samples.iter().map(|sample| sample / divisor).collect();
        self.push(name, &scaled);
    }

    /// Records `amount ÷ duration` for each sampled duration: a rate.
    fn push_rate(&mut self, name: &'static str, amount: f64, durations: &[f64]) {
        let rates: Vec<f64> = durations.iter().map(|duration| amount / duration).collect();
        self.push(name, &rates);
    }

    fn push_exact(&mut self, name: &'static str, value: f64) {
        self.results.push((name, Stat::exact(value)));
    }

    /// Nanoseconds per call of `f`: `k` samples, each timing as many
    /// back-to-back calls as fit the sample budget.
    fn ns_per_call(&self, mut f: impl FnMut()) -> Vec<f64> {
        let started = Instant::now();
        f();
        let once = started.elapsed().max(Duration::from_nanos(20));
        let calls = (self.sample_budget.as_nanos() / once.as_nanos()).clamp(1, 1 << 20) as u32;
        (0..self.k)
            .map(|_| {
                let started = Instant::now();
                for _ in 0..calls {
                    f();
                }
                started.elapsed().as_nanos() as f64 / f64::from(calls)
            })
            .collect()
    }

    /// Nanoseconds per call of `f` on a *fresh* state each call: the
    /// states of a sample are made (and later dropped) off the clock.
    fn ns_per_fresh_call<S>(&self, make: impl Fn() -> S, mut f: impl FnMut(&mut S)) -> Vec<f64> {
        const CALLS: usize = 32;
        (0..self.k)
            .map(|_| {
                let mut states: Vec<S> = (0..CALLS).map(|_| make()).collect();
                let started = Instant::now();
                states.iter_mut().for_each(&mut f);
                started.elapsed().as_nanos() as f64 / CALLS as f64
            })
            .collect()
    }

    pub fn run_all(&mut self) {
        self.types();
        self.conditions();
        self.sync_engine();
        self.core_families();
        self.suite_and_cache();
        self.codec();
        self.runtime_and_node();
        self.tcp();
        self.asynchronous();
        self.obs();
    }

    fn types(&mut self) {
        for (n, name) in [
            (64usize, "types.view.merge_ns.n64"),
            (1024, "types.view.merge_ns.n1024"),
        ] {
            let half = |parity: usize| {
                View::from_options(
                    (0..n)
                        .map(|i| (i % 2 == parity).then_some(i as u32))
                        .collect(),
                )
            };
            let (mine, theirs) = (half(0), half(1));
            let samples = self.ns_per_fresh_call(|| mine.clone(), |view| view.merge_from(&theirs));
            self.push(name, &samples);
        }
        let n = 1024;
        let input = spread(n, &mut self.rng);
        let table = ValueTable::from_vector(&input);
        let dense = table.intern_vector(&input);
        let (mine, theirs) = (
            dense.initial_view(ProcessId::new(0)),
            dense.initial_view(ProcessId::new(n - 1)),
        );
        let samples = self.ns_per_fresh_call(|| mine.clone(), |view| view.merge_from(&theirs));
        self.push("types.dense.merge_ns.n1024", &samples);
        let samples = self.ns_per_call(|| {
            black_box(ValueTable::from_vector(&input).intern_vector(&input));
        });
        self.push("types.intern_ns.n1024", &samples);
    }

    fn conditions(&mut self) {
        for (n, contains, decode) in [
            (
                64usize,
                "conditions.max.contains_ns.n64",
                "conditions.max.decode_view_ns.n64",
            ),
            (
                1024,
                "conditions.max.contains_ns.n1024",
                "conditions.max.decode_view_ns.n1024",
            ),
        ] {
            let params = operating_point(n).legality();
            let condition = MaxCondition::new(params);
            let input = in_condition(n, params, &mut self.rng);
            let view = input.to_view();
            let samples = self.ns_per_call(|| {
                black_box(condition.contains(black_box(&input)));
            });
            self.push(contains, &samples);
            let samples = self.ns_per_call(|| {
                black_box(condition.decode_view(black_box(&view)));
            });
            self.push(decode, &samples);
            if n == 1024 {
                let dense = ValueTable::from_vector(&input)
                    .intern_vector(&input)
                    .to_view();
                let samples = self.ns_per_call(|| {
                    black_box(condition.decode_dense(black_box(&dense)));
                });
                self.push("conditions.max.decode_dense_ns.n1024", &samples);
            }
        }
    }

    fn sync_engine(&mut self) {
        let ns_per_round_us = 1e3 * FLOOD_ROUNDS as f64;
        let flood = |n: usize, plan: Option<&FaultPlan>| -> Trace<u32> {
            let system = MaxFlood::system(n, FLOOD_ROUNDS);
            let pattern = FailurePattern::none(n);
            match plan {
                None => run_protocol(system, &pattern, FLOOD_ROUNDS + 1),
                Some(plan) => run_protocol_faulty(system, &pattern, plan, FLOOD_ROUNDS + 1),
            }
            .expect("a fixed-round flood terminates")
        };
        for (n, name) in [
            (64usize, "sync.engine.plain.round_us.n64"),
            (256, "sync.engine.plain.round_us.n256"),
            (1024, "sync.engine.plain.round_us.n1024"),
        ] {
            let samples = self.ns_per_call(|| {
                black_box(flood(n, None));
            });
            if n == 256 {
                let messages = flood(n, None).messages_delivered() as f64;
                self.push_per("sync.engine.host_ns_per_msg", &samples, messages);
            }
            self.push_per(name, &samples, ns_per_round_us);
        }
        for (n, benign, lossy) in [
            (
                64usize,
                "sync.engine.faulty_benign.round_us.n64",
                "sync.engine.faulty_lossy.round_us.n64",
            ),
            (
                256,
                "sync.engine.faulty_benign.round_us.n256",
                "sync.engine.faulty_lossy.round_us.n256",
            ),
        ] {
            for (name, plan) in [
                (benign, FaultPlan::none(n)),
                (lossy, lossy_plan(n, self.rng.next_u64())),
            ] {
                let samples = self.ns_per_call(|| {
                    black_box(flood(n, Some(&plan)));
                });
                self.push_per(name, &samples, ns_per_round_us);
            }
        }

        let n = 64;
        let plan = lossy_plan(n, self.rng.next_u64());
        let samples = self.ns_per_call(|| {
            for from in ProcessId::all(n) {
                for to in ProcessId::all(n) {
                    black_box(plan.decide(1, from, to));
                }
            }
        });
        self.push_per("sync.fault.decide_ns", &samples, (n * n) as f64);
        let mut inbox: Vec<u32> = (0..n as u32).collect();
        let mut round = 0;
        let samples = self.ns_per_call(|| {
            round += 1;
            plan.permute(round, ProcessId::new(round % n), &mut inbox);
        });
        self.push("sync.fault.permute_ns.n64", &samples);
    }

    fn core_families(&mut self) {
        for (n, names) in [
            (
                64usize,
                [
                    "core.cb.run_us.n64",
                    "core.ecb.run_us.n64",
                    "core.floodset.run_us.n64",
                    "core.early.run_us.n64",
                ],
            ),
            (256, ["", "", "core.floodset.run_us.n256", ""]),
            (
                1024,
                [
                    "core.cb.run_us.n1024",
                    "core.ecb.run_us.n1024",
                    "",
                    "core.early.run_us.n1024",
                ],
            ),
        ] {
            let config = operating_point(n);
            let specs = family_specs(n);
            let staircase: Arc<Adversary> =
                Arc::new(FailurePattern::staircase(n, config.t(), 2).into());
            let inside = in_condition(n, config.legality(), &mut self.rng);
            let outside = out_of_condition(n, &mut self.rng);
            let spread = Arc::new(spread(n, &mut self.rng));
            let scenarios = [
                Scenario::from_shared(Arc::clone(&specs[0])).input(inside),
                Scenario::from_shared(Arc::clone(&specs[1]))
                    .input(outside)
                    .pattern_shared(Arc::clone(&staircase)),
                Scenario::from_shared(Arc::clone(&specs[2]))
                    .input_shared(Arc::clone(&spread))
                    .pattern_shared(Arc::clone(&staircase)),
                Scenario::from_shared(Arc::clone(&specs[3]))
                    .input_shared(Arc::clone(&spread))
                    .pattern_shared(Arc::clone(&staircase)),
            ];
            for (name, scenario) in names.into_iter().zip(&scenarios) {
                if name.is_empty() {
                    continue;
                }
                let samples = self.ns_per_call(|| {
                    black_box(scenario.run().expect("the probe scenario is valid"));
                });
                self.push_per(name, &samples, 1e3);
            }
            if n == 1024 {
                let dense = ValueTable::from_vector(&spread).intern_vector(&spread);
                let pattern = FailurePattern::none(n);
                let samples = self.ns_per_call(|| {
                    let system = DenseFlood::system(&dense, FLOOD_ROUNDS);
                    black_box(
                        run_protocol(system, &pattern, FLOOD_ROUNDS + 1).expect("terminates"),
                    );
                });
                self.push_per("core.denseflood.run_us.n1024", &samples, 1e3);
            }
        }
        let floor = Scenario::flood_set(4, 1, 1).input(vec![3u32, 9, 1, 4]);
        let samples = self.ns_per_call(|| {
            black_box(floor.run().expect("valid"));
        });
        self.push_per("core.scenario.overhead_us", &samples, 1e3);
    }

    /// One timed grid pass through `run`, `k` times, in seconds.
    fn pass_seconds(&self, mut run: impl FnMut()) -> Vec<f64> {
        (0..self.k)
            .map(|_| {
                let started = Instant::now();
                run();
                started.elapsed().as_secs_f64()
            })
            .collect()
    }

    fn suite_and_cache(&mut self) {
        let root = SplitMix64::new(self.rng.next_u64());
        let pass = grid_pass(&root, 0, Links::Reliable, &mut Fnv::default());
        let cells = CELLS_PER_PASS as f64;
        // Cells whose engine work is small beside their report: the
        // early-deciding baseline at n = 64, 32 spread inputs under the
        // pass's six patterns. The cache's write side is priced on
        // these, as the time a cache adds to a pass — on the full grid
        // that difference drowns in the engine's own run-to-run noise.
        let cheap = [SuiteInputs {
            specs: vec![Arc::clone(&pass.suites[2].specs[3])],
            inputs: (0..32)
                .map(|_| Arc::new(spread(64, &mut self.rng)))
                .collect(),
            patterns: pass.suites[2].patterns.clone(),
        }];
        let cheap_cells = cheap[0].cells() as f64;
        // One pass through the suite engine, in seconds; the checks run
        // after the clock stops.
        let suite_pass = |suites: &[SuiteInputs],
                          threads: Option<usize>,
                          cache: Option<&Arc<SuiteCache<u32>>>|
         -> f64 {
            let started = Instant::now();
            let reports: Vec<SuiteReport<u32>> = suites
                .iter()
                .map(|inputs| {
                    let mut suite = inputs.suite();
                    if let Some(threads) = threads {
                        suite = suite.threads(threads);
                    }
                    if let Some(cache) = cache {
                        suite = suite.cache(cache);
                    }
                    suite.run()
                })
                .collect();
            let seconds = started.elapsed().as_secs_f64();
            assert!(
                reports.iter().all(SuiteReport::all_ok),
                "a probe pass failed its checks"
            );
            seconds
        };
        // The same cells called directly, one after another: what the
        // suite adds at one worker is the difference.
        let direct_pass = || -> f64 {
            let started = Instant::now();
            for inputs in &pass.suites {
                for spec in &inputs.specs {
                    for input in &inputs.inputs {
                        for pattern in &inputs.patterns {
                            let scenario = Scenario::from_shared(Arc::clone(spec))
                                .input_shared(Arc::clone(input))
                                .pattern_shared(Arc::clone(pattern));
                            black_box(scenario.run().expect("valid"));
                        }
                    }
                }
            }
            started.elapsed().as_secs_f64()
        };
        let journaled_cache = |path: &Path| fresh_journaled_cache(path, &mut Tracer::new());

        // The read side works on one filled cache and its journal.
        let journal = self.env.scratch.join("probe.journal");
        let filled = journaled_cache(&journal);
        suite_pass(&pass.suites, Some(1), Some(&filled));
        let cheap_journal = self.env.scratch.join("probe.cheap.journal");

        // Every round takes each variant once, so a drift in host speed
        // hits them all alike and the differences below stay meaningful.
        let (mut plain_w1, mut plain_wn, mut self_share) = (Vec::new(), Vec::new(), Vec::new());
        let (mut insert, mut append, mut journaled_wn) = (Vec::new(), Vec::new(), Vec::new());
        let (mut hit_w1, mut hit_wn, mut replay) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..self.k {
            let w1 = suite_pass(&pass.suites, Some(1), None);
            plain_w1.push(cells / w1);
            plain_wn.push(cells / suite_pass(&pass.suites, None, None));
            self_share.push(1.0 - direct_pass() / w1);

            let plain = suite_pass(&cheap, Some(1), None);
            let cached = suite_pass(&cheap, Some(1), Some(&Arc::new(SuiteCache::new())));
            let journaled = suite_pass(&cheap, Some(1), Some(&journaled_cache(&cheap_journal)));
            insert.push((cached - plain) * 1e6 / cheap_cells);
            append.push((journaled - cached) * 1e6 / cheap_cells);
            let journaled = suite_pass(&pass.suites, None, Some(&journaled_cache(&cheap_journal)));
            journaled_wn.push(cells / journaled);

            hit_w1.push(suite_pass(&pass.suites, Some(1), Some(&filled)) * 1e6 / cells);
            hit_wn.push(suite_pass(&pass.suites, None, Some(&filled)) * 1e6 / cells);
            let started = Instant::now();
            let stats = SuiteCache::<u32>::new()
                .resume_journal(&journal)
                .expect("the journal just written replays");
            replay.push(cells / started.elapsed().as_secs_f64());
            assert_eq!(stats.recovered, CELLS_PER_PASS);
        }
        self.push("core.suite.cells_per_s.w1", &plain_w1);
        self.push("core.suite.cells_per_s.wN", &plain_wn);
        self.push("core.suite.self_share", &self_share);
        self.push("core.cache.insert_us_per_cell", &insert);
        self.push("core.cache.journal_append_us_per_cell", &append);
        self.push("core.cache.journaled_cells_per_s.wN", &journaled_wn);
        self.push("core.cache.hit_us_per_cell.w1", &hit_w1);
        self.push("core.cache.hit_us_per_cell.wN", &hit_wn);
        self.push("core.cache.journal_replay_cells_per_s", &replay);

        let tiny_cells = 512;
        let mut tiny = ScenarioSuite::new().spec(ProtocolSpec::<u32>::flood_set(4, 1, 1));
        for i in 0..tiny_cells {
            tiny = tiny.input(vec![i, i + 1, i + 2, i + 3]);
        }
        let samples = self.pass_seconds(|| {
            black_box(tiny.run());
        });
        // seconds per pass → µs per cell
        self.push_per(
            "core.suite.dispatch_us_per_cell",
            &samples,
            f64::from(tiny_cells) / 1e6,
        );

        let saved = self.env.scratch.join("probe.cache");
        let save = self.pass_seconds(|| filled.save(&saved).expect("scratch is writable"));
        let megabytes = fs::metadata(&saved).expect("just saved").len() as f64 / 1e6;
        let load = self.pass_seconds(|| {
            let loaded = SuiteCache::<u32>::load_or_empty(&saved).expect("just saved");
            assert_eq!(loaded.len(), CELLS_PER_PASS);
        });
        self.push_rate("core.cache.save_mb_per_s", megabytes, &save);
        self.push_rate("core.cache.load_mb_per_s", megabytes, &load);

        let report: Report<u32> = Scenario::from_shared(Arc::clone(&pass.suites[2].specs[0]))
            .input_shared(Arc::clone(&pass.suites[2].inputs[0]))
            .run()
            .expect("valid");
        let mut encoded = Writer::new();
        encode_report(&report, &mut encoded);
        let bytes = encoded.into_vec();
        let samples = self.ns_per_call(|| {
            let mut out = Writer::new();
            encode_report(&report, &mut out);
            black_box(out);
        });
        self.push("core.codec.report_encode_ns", &samples);
        let samples = self.ns_per_call(|| {
            black_box(decode_report::<u32>(&mut Reader::new(&bytes)).expect("round-trips"));
        });
        self.push("core.codec.report_decode_ns", &samples);
        self.push_exact("core.codec.report_bytes", bytes.len() as f64);
    }

    fn codec(&mut self) {
        // Frames: 64 B and 4 KiB payloads, the two rates averaged.
        let frames = [64usize, 4096].map(|len| Frame::msg(ProcessId::new(1), 3, vec![0xAB; len]));
        let wires = frames.each_ref().map(Frame::encode);
        let mut buffer = Vec::with_capacity(8192);
        let mut encode = Vec::new();
        let mut decode = Vec::new();
        for (frame, wire) in frames.iter().zip(&wires) {
            // bytes per ns × 1e3 = MB/s
            let mb_per_s = |ns_per_call: Vec<f64>| -> Vec<f64> {
                let bytes = wire.len() as f64;
                ns_per_call.iter().map(|ns| bytes * 1e3 / ns).collect()
            };
            encode.push(mb_per_s(self.ns_per_call(|| {
                buffer.clear();
                frame.encode_into(&mut buffer);
                black_box(&buffer);
            })));
            decode.push(mb_per_s(self.ns_per_call(|| {
                black_box(Frame::decode(black_box(wire)).expect("round-trips"));
            })));
        }
        let averaged = |rates: &[Vec<f64>]| -> Vec<f64> {
            rates[0]
                .iter()
                .zip(&rates[1])
                .map(|(a, b)| (a + b) / 2.0)
                .collect()
        };
        self.push("codec.frame.encode_mb_per_s", &averaged(&encode));
        self.push("codec.frame.decode_mb_per_s", &averaged(&decode));

        const RECORDS: usize = 1024;
        /// A journal of `RECORDS` 128-byte records written into `sink`.
        fn write_journal<W: Write>(sink: W) -> W {
            let mut writer = JournalWriter::create(sink, 1).expect("writes the header");
            for _ in 0..RECORDS {
                writer.append(&[0x5A; 128]).expect("appends");
            }
            writer.into_inner()
        }
        let records = RECORDS as f64;
        let mut journal = Vec::new();
        let memory = self.pass_seconds(|| journal = write_journal(Vec::new()));
        self.push_rate("codec.journal.append_rec_per_s", records, &memory);
        let path = self.env.scratch.join("probe.records");
        let file = self.pass_seconds(|| {
            let sink = fs::File::create(&path).expect("scratch is writable");
            write_journal(sink).flush().expect("flushes");
        });
        self.push_rate("codec.journal.append_file_rec_per_s", records, &file);
        let replay = self.pass_seconds(|| {
            assert_eq!(Cursor::new(&journal).count(), RECORDS);
        });
        self.push_rate("codec.journal.replay_rec_per_s", records, &replay);

        // A fixed 20-series registry, so the number does not depend on
        // what ran before the probe.
        let registry = obs::Registry::new();
        for i in 0..16 {
            registry.counter(&format!("probe_counter_{i}"), &[]).add(i);
        }
        for i in 0..4 {
            let histogram = registry.histogram(&format!("probe_histogram_{i}"), &[]);
            (0..64).for_each(|v| histogram.record(v * 37));
        }
        let snapshot = registry.snapshot();
        let samples = self.ns_per_call(|| {
            black_box(SnapshotCodec::encode(&snapshot));
        });
        self.push("codec.snapshot.encode_ns", &samples);
    }

    fn runtime_and_node(&mut self) {
        let n = 16;
        let samples = self.ns_per_fresh_call(
            || delivery::mesh::<u32>(n).0,
            |endpoints| {
                for endpoint in endpoints.iter() {
                    endpoint.broadcast(1, 7, n);
                }
                for endpoint in endpoints.iter() {
                    black_box(endpoint.drain_round(1));
                    endpoint.settle();
                }
            },
        );
        self.push_per(
            "runtime.mesh.fanout_ns_per_msg.n16",
            &samples,
            (n * n) as f64,
        );

        let samples = self.ns_per_call(|| {
            pool::spawn(|| ()).join().expect("a no-op does not panic");
        });
        self.push_per("runtime.pool.handoff_us", &samples, 1e3);

        let loopback = Executor::Networked {
            transport: TransportKind::Loopback,
        };
        for (n, threaded_name, loopback_name) in [
            (
                8usize,
                "runtime.threaded.run_us.n8",
                "node.loopback.run_us.n8",
            ),
            (
                16,
                "runtime.threaded.run_us.n16",
                "node.loopback.run_us.n16",
            ),
        ] {
            let t = operating_point(n).t();
            let flood = Scenario::flood_set(n, t, 2)
                .input(spread(n, &mut self.rng))
                .pattern(FailurePattern::staircase(n, t, 2));
            let mut runs = vec![
                (threaded_name, flood.clone().executor(Executor::Threaded)),
                (loopback_name, flood.clone().executor(loopback)),
            ];
            if n == 8 {
                let benign = Adversary::Omission {
                    plan: FaultPlan::none(n),
                    crashes: FailurePattern::staircase(n, t, 2),
                };
                runs.push((
                    "node.loopback.faulty.run_us.n8",
                    flood.pattern(benign).executor(loopback),
                ));
            }
            for (name, scenario) in runs {
                let samples = self.ns_per_call(|| {
                    black_box(scenario.run().expect("valid"));
                });
                self.push_per(name, &samples, 1e3);
            }
        }
    }

    fn tcp(&mut self) {
        let env = self.env;
        let binary = &env.node_binary;
        // Five children that only print usage and exit: the floor under
        // every testnet run.
        let spawn = self.pass_seconds(|| {
            let children: Vec<_> = (0..5)
                .map(|_| {
                    Command::new(binary)
                        .stdout(Stdio::null())
                        .stderr(Stdio::null())
                        .spawn()
                        .expect("the node binary starts")
                })
                .collect();
            for mut child in children {
                child.wait().expect("the child is ours to wait for");
            }
        });
        self.push_per("node.tcp.spawn_ms", &spawn, 1e-3);

        // Port slots start where this process's id puts them, so
        // back-to-back benchmark processes do not meet in TIME_WAIT, and
        // every testnet takes the next one.
        let mut slot = std::process::id() as usize * 131;
        let mut next_port_base = || {
            slot += 1;
            port_base(slot)
        };
        // A port still held by an earlier run shows as a node that failed
        // to come up: every testnet gets one retry on the next slot.
        let mut verdict = |kill: bool, samples: usize| -> Result<Vec<f64>, String> {
            (0..samples)
                .map(|_| {
                    let mut attempt = || {
                        let config = testnet_config(binary, kill, next_port_base());
                        let started = Instant::now();
                        let trace = run_testnet(&config)?;
                        Ok((trace, started.elapsed().as_secs_f64() * 1e3))
                    };
                    let (trace, elapsed) = attempt()
                        .or_else(|_: setagree::node::TestnetError| attempt())
                        .map_err(|error| format!("the probe testnet failed twice: {error}"))?;
                    let right = trace.all_correct_decided()
                        && trace.decided_values().len() == 1
                        && trace.crashed_count() == usize::from(kill);
                    right.then_some(elapsed).ok_or_else(|| {
                        format!("the probe testnet reached a wrong verdict: {trace:?}")
                    })
                })
                .collect()
        };
        let clean = verdict(false, self.k);
        // The kill path is set by the 500 ms reconnect window, not by
        // CPU: five samples say as much as fifteen.
        let kill = verdict(true, self.k.min(5));
        for (name, samples) in [
            ("node.tcp.clean_verdict_ms", clean),
            ("node.tcp.kill_verdict_ms", kill),
        ] {
            match samples {
                Ok(samples) => self.push(name, &samples),
                Err(complaint) => self.complaints.push(complaint),
            }
        }

        // The counts of one kill run, through the CLI a user would type:
        // `testnet --metrics <file>` folds every node's counters into one
        // rendered snapshot (and keeps the nodes' own dumps off our
        // stderr, which the in-process harness would inherit).
        let rendered = env.scratch.join("probe.metrics");
        let mut observed = || {
            Command::new(binary)
                .args(["testnet", "--input", "3,9,1,4,7", "--t", "2", "--k", "1"])
                .args(["--crash", "1:1:2", "--transport", "tcp"])
                .args(["--port-base", &next_port_base().to_string()])
                .arg("--metrics")
                .arg(&rendered)
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .status()
                .expect("the node binary starts")
                .success()
        };
        if !(observed() || observed()) {
            self.complaints
                .push("the observed testnet reached no verdict, twice".to_string());
            return;
        }
        let rendered = fs::read_to_string(&rendered).expect("the testnet wrote its metrics");
        for (name, counter) in [
            ("node.tcp.frames_sent", "tcp_frames_sent"),
            ("node.tcp.frames_resent", "tcp_frames_resent"),
            ("node.tcp.redial_attempts", "tcp_redial_attempts"),
        ] {
            self.push_exact(name, rendered_counter(&rendered, counter));
        }
    }

    fn asynchronous(&mut self) {
        let n = 32;
        let params = LegalityParams::new(2, 2).expect("valid");
        let scenario = Scenario::async_set_agreement(n, params, MaxCondition::new(params))
            .input(in_condition(n, params, &mut self.rng));
        let shared = scenario
            .clone()
            .executor(Executor::AsyncSharedMemory { seed: 3 });
        let message = scenario.executor(Executor::AsyncMessagePassing { seed: 3 });
        let steps = shared.run().expect("valid").total_steps().expect("async") as f64;
        let samples = self.ns_per_call(|| {
            black_box(shared.run().expect("valid"));
        });
        self.push_rate("async.sm.steps_per_s", steps * 1e9, &samples);
        self.push_per("async.sm.run_us.n32", &samples, 1e3);
        let samples = self.ns_per_call(|| {
            black_box(message.run().expect("valid"));
        });
        self.push_per("async.mp.run_us.n32", &samples, 1e3);
    }

    fn obs(&mut self) {
        let counter = obs::counter("benchmark_probe_counter", &[]);
        let histogram = obs::histogram("benchmark_probe_histogram", &[]);
        // The shape of every instrumentation site in the program: one
        // `enabled()` load guarding the update.
        const UPDATES: usize = 64;
        for (on, name) in [
            (false, "obs.off.counter_inc_ns"),
            (true, "obs.on.counter_inc_ns"),
        ] {
            obs::set_enabled(on);
            let samples = self.ns_per_call(|| {
                for _ in 0..UPDATES {
                    if obs::enabled() {
                        counter.inc();
                    }
                    black_box(&counter);
                }
            });
            self.push_per(name, &samples, UPDATES as f64);
        }
        let mut value = 0u64;
        let record = self.ns_per_call(|| {
            for _ in 0..UPDATES {
                value = value.wrapping_mul(6364136223846793005).wrapping_add(1);
                if obs::enabled() {
                    histogram.record(value >> 40);
                }
            }
        });
        let snapshot = self.ns_per_call(|| {
            black_box(obs::global().snapshot());
        });
        // The probes run with the program's metrics off, as they found them.
        obs::set_enabled(false);
        self.push_per("obs.on.histogram_record_ns", &record, UPDATES as f64);
        self.push_per("obs.snapshot_us", &snapshot, 1e3);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendered_counters_sum_over_label_sets() {
        let rendered = "# TYPE tcp_frames_sent counter\n\
                        tcp_frames_sent{kind=\"msg\"} 10\n\
                        tcp_frames_sent{kind=\"settled\"} 3\n\
                        tcp_frames_sent_total 99\n\
                        tcp_redial_attempts 4\n";
        assert_eq!(rendered_counter(rendered, "tcp_frames_sent"), 13.0);
        assert_eq!(rendered_counter(rendered, "tcp_redial_attempts"), 4.0);
        assert_eq!(rendered_counter(rendered, "tcp_frames_resent"), 0.0);
    }
}
