//! The workloads. Each is closed loop with one client: the benchmark's
//! main thread issues the next op when the previous one returns, and the
//! only parallelism is the system's own (suite workers at their default
//! count).
//!
//! A workload is built by its `setup` (everything before the first
//! timed op: input generation for the whole pool, journal priming,
//! untimed warm-up ops) and then serves `op(index)` calls. An op times
//! only the calls into the program; the output checks run after the
//! clock stops.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use setagree::core::{DenseFlood, ExperimentError, Report, Scenario, SuiteCache, SuiteReport};
use setagree::sync::{run_protocol, FailurePattern, Outcome, Trace};
use setagree::types::{DenseVector, ValueTable};

use crate::inputs::{
    family_specs, grid_pass, in_condition, operating_point, out_of_condition, spread, Fnv,
    GridPass, Links,
};
use crate::rng::SplitMix64;
use crate::trace::Tracer;

/// A workload: its name, why it exists, how to set it up, and the
/// digest its inputs must have.
#[derive(Clone, Copy)]
pub struct WorkloadDef {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`.
    pub why: &'static str,
    /// Everything before the first timed op.
    pub setup: fn(&Env) -> Box<dyn Workload>,
    /// `inputs_digest` at [`DEFAULT_SEED`] and full size. A run at the
    /// default seed fails if its digest differs, so input drift can never
    /// pass for a speed change.
    pub inputs_digest: u64,
}

/// The seed the recorded digests and the baseline were taken with.
pub const DEFAULT_SEED: u64 = 1;

pub const WORKLOADS: [WorkloadDef; 5] = [
    WorkloadDef {
        name: "sweep_cold",
        why: "Bulk small-n grid passes, no cache: suite dispatch, the plain round loop and the four protocol families share the time.",
        setup: |env| Box::new(Sweep::setup(env, Links::Reliable, Caching::Off)),
        inputs_digest: 0x4bce_1ff3_4624_1cfe,
    },
    WorkloadDef {
        name: "sweep_journaled",
        why: "The same grid at one worker with every cell inserted into a journaled SuiteCache: the write side of cache, codec and journal.",
        setup: |env| Box::new(Sweep::setup(env, Links::Reliable, Caching::Journaled)),
        inputs_digest: 0x4bce_1ff3_4624_1cfe,
    },
    WorkloadDef {
        name: "sweep_warm",
        why: "A killed sweep resumed at the default worker count: journal replay, then all-hit passes. The read side of cache, codec and suite under the workers' contention.",
        setup: |env| Box::new(SweepWarm::setup(env)),
        inputs_digest: 0xa7da_55af_38a5_1293,
    },
    WorkloadDef {
        name: "large_n",
        why: "Single runs at n = 256 and 1024: state representation and the per-round loop dominate, suite and cache do nothing.",
        setup: |env| Box::new(LargeN::setup(env)),
        inputs_digest: 0x4972_42a3_621f_0dfd,
    },
    WorkloadDef {
        name: "faulty_net",
        why: "The grid under seeded link-fault plans: the faulty round loop instead of the plain one.",
        setup: |env| Box::new(Sweep::setup(env, Links::Faulty, Caching::Off)),
        inputs_digest: 0x0c3b_3143_8cee_3912,
    },
];

/// Full size for measuring, reduced size for `--check`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Check,
}

/// What a workload needs from the process around it.
#[derive(Debug, Clone)]
pub struct Env {
    pub seed: u64,
    pub scale: Scale,
    /// The `setagree-node` binary of the root release build (the TCP
    /// probes start it).
    pub node_binary: PathBuf,
    /// A private directory for journals, removed at exit.
    pub scratch: PathBuf,
}

impl Scale {
    /// `full` when measuring, `check` under `--check`.
    pub fn pick<T>(self, full: T, check: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Check => check,
        }
    }
}

/// Exact simulated statistics of the checked prefix of a run: these
/// must repeat bit for bit across runs and across any PR that claims
/// only a speed-up.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sim {
    pub cells: u64,
    pub rounds: u64,
    pub messages: u64,
    pub decided_values: u64,
    pub agreement_violations: u64,
    pub digest: Fnv,
}

impl Sim {
    /// Folds one execution.
    fn absorb<Out: Clone + Ord>(
        &mut self,
        trace: &Trace<Out>,
        k: usize,
        value: impl Fn(&Out) -> u64,
    ) {
        self.cells += 1;
        self.rounds += trace.rounds_executed() as u64;
        let decided = trace.decided_values().len();
        self.decided_values += decided as u64;
        self.agreement_violations += u64::from(decided > k);
        self.messages += trace.messages_delivered();
        self.digest.word(trace.messages_delivered());
        self.digest.word(trace.rounds_executed() as u64);
        for outcome in trace.outcomes() {
            match outcome {
                Outcome::Decided { value: v, round } => {
                    self.digest.word(1);
                    self.digest.word(value(v));
                    self.digest.word(*round as u64);
                }
                Outcome::Crashed { round } => {
                    self.digest.word(2);
                    self.digest.word(*round as u64);
                }
                Outcome::Undecided => self.digest.word(3),
            }
        }
    }

    fn absorb_error(&mut self) {
        self.cells += 1;
        self.digest.word(4);
    }
}

/// What the output checks saw: of one op, or (merged) of a whole run.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Cells attempted and cells that failed a check.
    pub attempted: u64,
    pub failed: u64,
    pub sim: Sim,
    /// The first few failures, for the log.
    pub complaints: Vec<String>,
}

/// How many failures a ledger keeps the text of.
const MAX_COMPLAINTS: usize = 8;

impl Ledger {
    fn fail(&mut self, cells: u64, complaint: impl FnOnce() -> String) {
        self.failed += cells;
        if self.complaints.len() < MAX_COMPLAINTS {
            self.complaints.push(complaint());
        }
    }

    /// Folds one op's ledger into the run's. The simulated statistics
    /// count only while `in_prefix`, so they cover the same ops in every
    /// run however many more the time box admits.
    pub fn merge(&mut self, op: Ledger, in_prefix: bool) {
        self.attempted += op.attempted;
        self.failed += op.failed;
        let room = MAX_COMPLAINTS.saturating_sub(self.complaints.len());
        self.complaints.extend(op.complaints.into_iter().take(room));
        if in_prefix {
            self.sim.cells += op.sim.cells;
            self.sim.rounds += op.sim.rounds;
            self.sim.messages += op.sim.messages;
            self.sim.decided_values += op.sim.decided_values;
            self.sim.agreement_violations += op.sim.agreement_violations;
            self.sim.digest.word(op.sim.digest.value());
        }
    }
}

/// What the model promises for a cell, i.e. what counts as failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Promise {
    /// The paper's model: termination, validity, ≤ k values, and the
    /// predicted round bound.
    Paper,
    /// Under a link-fault plan agreement is outside the model: only an
    /// error or a process left undecided fails; agreement violations
    /// are counted in [`Sim`] instead.
    Terminates,
}

fn check_report(
    result: &Result<Report<u32>, ExperimentError>,
    promise: Promise,
    ledger: &mut Ledger,
) {
    ledger.attempted += 1;
    match result {
        Ok(report) => {
            let trace = report.trace().expect("round-based executors report traces");
            ledger.sim.absorb(trace, report.k(), |v| u64::from(*v));
            let ok = match promise {
                Promise::Paper => report.satisfies_all() && report.within_predicted_rounds(),
                Promise::Terminates => report.satisfies_termination(),
            };
            if !ok {
                ledger.fail(1, || format!("property check failed: {report}"));
            }
        }
        Err(error) => {
            ledger.sim.absorb_error();
            ledger.fail(1, || format!("cell returned an error: {error}"));
        }
    }
}

fn check_suite(report: &SuiteReport<u32>, cells: usize, promise: Promise, ledger: &mut Ledger) {
    if report.len() != cells {
        ledger.attempted += cells as u64;
        ledger.fail(cells as u64, || {
            format!("suite returned {} cases for {cells} cells", report.len())
        });
        return;
    }
    for case in report.cases() {
        check_report(&case.result, promise, ledger);
    }
}

/// Runs `body` as one op: inside an `op` span, on the op clock.
fn timed_op<T>(tracer: &mut Tracer, body: impl FnOnce(&mut Tracer) -> T) -> (T, Duration) {
    let started = Instant::now();
    let out = tracer.span("op", body);
    (out, started.elapsed())
}

pub trait Workload {
    /// How many ops the generated pool can serve.
    fn ops_available(&self) -> usize;
    /// The digest of everything `setup` generated.
    fn inputs_digest(&self) -> u64;
    /// Runs op `index` and checks its outputs: the time spent inside the
    /// program, and what the checks saw.
    fn op(&mut self, index: usize, tracer: &mut Tracer) -> (Duration, Ledger);
}

// ---------------------------------------------------------------- sweeps

fn grid_pool(env: &Env, passes: usize, links: Links) -> (Vec<GridPass>, Fnv) {
    let root = SplitMix64::new(env.seed);
    let mut digest = Fnv::default();
    let pool = (0..passes)
        .map(|index| grid_pass(&root, index, links, &mut digest))
        .collect();
    (pool, digest)
}

/// One grid pass through the suite engine, bound to `cache` if there is
/// one; at the suite's default worker count, as every caller of the
/// suite runs it, unless `workers` says otherwise.
fn run_pass(
    pass: &GridPass,
    cache: Option<&Arc<SuiteCache<u32>>>,
    workers: Option<usize>,
    tracer: &mut Tracer,
) -> Vec<SuiteReport<u32>> {
    pass.suites
        .iter()
        .map(|inputs| {
            let mut suite = inputs.suite();
            if let Some(cache) = cache {
                suite = suite.cache(cache);
            }
            if let Some(workers) = workers {
                suite = suite.threads(workers);
            }
            tracer.span("core.suite.run", |_| suite.run())
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Caching {
    Off,
    Journaled,
}

/// A journal-backed cache on a fresh file.
pub fn fresh_journaled_cache(path: &Path, tracer: &mut Tracer) -> Arc<SuiteCache<u32>> {
    let _ = fs::remove_file(path);
    let cache = Arc::new(SuiteCache::new());
    tracer
        .span("core.cache.resume_journal", |_| cache.resume_journal(path))
        .expect("the scratch directory is writable");
    cache
}

/// `sweep_cold`, `sweep_journaled` and `faulty_net`: one op is one pass
/// of the paper grid, every pass a different set of cells.
struct Sweep {
    pool: Vec<GridPass>,
    digest: Fnv,
    links: Links,
    /// `sweep_journaled`: the live cache, and where its journal lives.
    /// The cache and its file are replaced every `rotate` passes so
    /// memory and disk stay bounded however long the run is.
    journal: Option<(Arc<SuiteCache<u32>>, PathBuf)>,
    rotate: usize,
    /// `faulty_net`: the verdict digest of pass 0 from the warm-up;
    /// op 0 replays the pass and must reproduce it.
    first_pass_digest: Option<Fnv>,
}

impl Sweep {
    fn setup(env: &Env, links: Links, caching: Caching) -> Sweep {
        let (pool, digest) = grid_pool(env, env.scale.pick(1024, 3), links);
        let mut sweep = Sweep {
            pool,
            digest,
            links,
            journal: None,
            rotate: env.scale.pick(25, 2),
            first_pass_digest: None,
        };
        if caching == Caching::Journaled {
            let path = env.scratch.join("sweep.journal");
            let cache = fresh_journaled_cache(&path, &mut Tracer::new());
            sweep.journal = Some((cache, path));
        }
        // Warm-up: pool threads up, lazy statics initialised, the
        // journal file exercised. Pass 0 is replayed as op 0 (on a
        // fresh cache, so it is cold again there).
        let (_, first) = sweep.op(0, &mut Tracer::new());
        if links == Links::Faulty {
            sweep.first_pass_digest = Some(first.sim.digest);
        }
        sweep.op(1, &mut Tracer::new());
        sweep
    }

    fn promise(&self) -> Promise {
        match self.links {
            Links::Reliable => Promise::Paper,
            Links::Faulty => Promise::Terminates,
        }
    }

    /// Replaces the journaled cache at every `rotate`-th pass, after
    /// checking (once) that the file it leaves behind replays whole.
    fn rotate_journal(&mut self, index: usize, tracer: &mut Tracer, ledger: &mut Ledger) {
        let Some((cache, path)) = &self.journal else {
            return;
        };
        if !index.is_multiple_of(self.rotate) {
            return;
        }
        if index == self.rotate {
            let written = cache.len();
            let replayed = SuiteCache::<u32>::new().resume_journal(path);
            match replayed {
                Ok(stats) if stats.recovered == written && stats.tail.is_clean() => {}
                other => ledger.fail(written as u64, || {
                    format!("journal of {written} cells replayed as {other:?}")
                }),
            }
        }
        let path = path.clone();
        self.journal = Some((fresh_journaled_cache(&path, tracer), path));
    }
}

impl Workload for Sweep {
    fn ops_available(&self) -> usize {
        self.pool.len()
    }

    fn inputs_digest(&self) -> u64 {
        self.digest.value()
    }

    fn op(&mut self, index: usize, tracer: &mut Tracer) -> (Duration, Ledger) {
        let mut ledger = Ledger::default();
        self.rotate_journal(index, tracer, &mut ledger);
        let pass = &self.pool[index];
        let cache = self.journal.as_ref().map(|(cache, _)| cache);
        // The journaled sweep runs at one worker, the one departure from
        // the default count: at two workers on the reference box a whole
        // run lands in one of three scheduling regimes (12 k, 17 k or
        // 24 k cells/s, ten runs spreading 33 %), which no bound the
        // contract allows can hold. `sweep_warm` keeps the cache under
        // the workers' contention; the write side at the default count is
        // the per-layer `core.cache.journaled_cells_per_s.wN`.
        let workers = cache.map(|_| 1);
        let (reports, elapsed) = timed_op(tracer, |t| run_pass(pass, cache, workers, t));

        for (report, inputs) in reports.iter().zip(&pass.suites) {
            check_suite(report, inputs.cells(), self.promise(), &mut ledger);
            if cache.is_some() && report.cache_hits() + report.cache_misses() != report.len() as u64
            {
                ledger.fail(inputs.cells() as u64, || {
                    "cache lookups do not add up to the cells".to_string()
                });
            }
        }
        if let Some(cache) = cache {
            if let Some(kind) = cache.journal_error() {
                ledger.fail(pass.cells() as u64, || {
                    format!("journal append failed: {kind}")
                });
            }
        }
        if index == 0
            && self
                .first_pass_digest
                .is_some_and(|first| first != ledger.sim.digest)
        {
            ledger.fail(pass.cells() as u64, || {
                "replaying pass 0 under the same fault plans gave other verdicts".to_string()
            });
        }
        (elapsed, ledger)
    }
}

/// `sweep_warm`: setup primes a journal with a few cold passes; the
/// measured phase is the killed-sweep-resume path over and over — replay
/// the journal into a fresh cache, then serve every primed pass from it.
/// An op is one pass served from the cache; the first op of each cycle
/// also carries the replay, so its cost is in the throughput.
struct SweepWarm {
    pool: Vec<GridPass>,
    digest: Fnv,
    journal: PathBuf,
    /// How many cells the journal holds (two passes can draw the same
    /// cell; the journal holds it once).
    journaled_cells: usize,
    /// The verdict digest of each pass as the cold priming run computed
    /// it: what the cache must serve back (cold ≡ warm).
    cold_digests: Vec<Fnv>,
    /// The cache of the current cycle.
    cache: Arc<SuiteCache<u32>>,
    /// Unbounded at full size, two cycles at check size.
    ops: usize,
}

impl SweepWarm {
    fn setup(env: &Env) -> SweepWarm {
        let (pool, digest) = grid_pool(env, env.scale.pick(12, 2), Links::Reliable);
        let journal = env.scratch.join("warm.journal");
        let cache = fresh_journaled_cache(&journal, &mut Tracer::new());
        let cold_digests = pool
            .iter()
            .map(|pass| {
                let mut cold = Ledger::default();
                let reports = run_pass(pass, Some(&cache), None, &mut Tracer::new());
                for (report, inputs) in reports.iter().zip(&pass.suites) {
                    check_suite(report, inputs.cells(), Promise::Paper, &mut cold);
                }
                cold.sim.digest
            })
            .collect();
        assert!(
            cache.journal_error().is_none(),
            "priming the warm journal failed"
        );
        let mut warm = SweepWarm {
            ops: env.scale.pick(usize::MAX, 2 * pool.len()),
            pool,
            digest,
            journal,
            journaled_cells: cache.len(),
            cold_digests,
            cache,
        };
        for index in 0..warm.pool.len() {
            warm.op(index, &mut Tracer::new());
        }
        warm
    }
}

impl Workload for SweepWarm {
    fn ops_available(&self) -> usize {
        self.ops
    }

    fn inputs_digest(&self) -> u64 {
        self.digest.value()
    }

    fn op(&mut self, index: usize, tracer: &mut Tracer) -> (Duration, Ledger) {
        let mut ledger = Ledger::default();
        let at = index % self.pool.len();
        let pass = &self.pool[at];
        let ((replay, reports), elapsed) = timed_op(tracer, |t| {
            let replay = (at == 0).then(|| {
                self.cache = Arc::new(SuiteCache::new());
                t.span("core.cache.resume_journal", |_| {
                    self.cache.resume_journal(&self.journal)
                })
            });
            (replay, run_pass(pass, Some(&self.cache), None, t))
        });

        match replay {
            None => {}
            Some(Ok(stats)) if stats.recovered == self.journaled_cells && stats.tail.is_clean() => {
            }
            Some(other) => ledger.fail(self.journaled_cells as u64, || {
                format!(
                    "journal of {} cells replayed as {other:?}",
                    self.journaled_cells
                )
            }),
        }
        for (report, inputs) in reports.iter().zip(&pass.suites) {
            check_suite(report, inputs.cells(), Promise::Paper, &mut ledger);
            if report.cache_hits() != report.len() as u64 || report.cache_misses() != 0 {
                ledger.fail(inputs.cells() as u64, || {
                    format!(
                        "warm pass missed: {} hits, {} misses",
                        report.cache_hits(),
                        report.cache_misses()
                    )
                });
            }
        }
        if ledger.sim.digest != self.cold_digests[at] {
            ledger.fail(pass.cells() as u64, || {
                "the cache served other verdicts than the cold run computed".to_string()
            });
        }
        (elapsed, ledger)
    }
}

// --------------------------------------------------------------- large_n

const DENSE_ROUNDS: usize = 3;

/// One rotation's inputs at one size.
struct LargeSize {
    n: usize,
    scenarios: Vec<Scenario<u32>>,
    dense: Option<DenseVector>,
}

/// `large_n`: one op is a rotation over 10 single runs — at n = 256 and
/// 1024 the condition-based algorithm in-condition crash-free and
/// out-of-condition under the staircase, the early condition-based one
/// out-of-condition under the staircase, and the early-deciding baseline
/// on the spread input under the staircase, all through `Scenario::run`;
/// at n = 256 also FloodSet, and the dense flood through `run_protocol`.
/// (The dense flood at n = 1024 would be two fifths of the rotation; it
/// keeps its per-layer probe instead.)
struct LargeN {
    pool: Vec<Vec<LargeSize>>,
    digest: Fnv,
}

impl LargeN {
    fn setup(env: &Env) -> LargeN {
        let root = SplitMix64::new(env.seed);
        let mut digest = Fnv::default();
        let sizes = [256usize, 1024];
        let specs: Vec<_> = sizes.iter().map(|&n| family_specs(n)).collect();
        let pool = (0..env.scale.pick(384, 2))
            .map(|index| {
                let mut rng = root.fork(index as u64);
                sizes
                    .iter()
                    .zip(&specs)
                    .map(|(&n, specs)| {
                        let config = operating_point(n);
                        let inside = Arc::new(in_condition(n, config.legality(), &mut rng));
                        let outside = Arc::new(out_of_condition(n, &mut rng));
                        let spread = Arc::new(spread(n, &mut rng));
                        for input in [&inside, &outside, &spread] {
                            digest.input(input);
                        }
                        let staircase =
                            Arc::new(FailurePattern::staircase(n, config.t(), 2).into());
                        let [cb, ecb, flood, early] = &specs[..] else {
                            unreachable!("four families")
                        };
                        let cell = |spec: &Arc<_>, input: &Arc<_>| {
                            Scenario::from_shared(Arc::clone(spec)).input_shared(Arc::clone(input))
                        };
                        let mut scenarios = vec![
                            cell(cb, &inside),
                            cell(cb, &outside).pattern_shared(Arc::clone(&staircase)),
                            cell(ecb, &outside).pattern_shared(Arc::clone(&staircase)),
                            cell(early, &spread).pattern_shared(Arc::clone(&staircase)),
                        ];
                        // FloodSet runs ⌊t/k⌋ + 1 = n/4 + 1 all-to-all
                        // rounds: affordable at 256 only.
                        let small = n == 256;
                        if small {
                            scenarios
                                .push(cell(flood, &spread).pattern_shared(Arc::clone(&staircase)));
                        }
                        LargeSize {
                            n,
                            scenarios,
                            dense: small
                                .then(|| ValueTable::from_vector(&spread).intern_vector(&spread)),
                        }
                    })
                    .collect()
            })
            .collect();
        let mut large = LargeN { pool, digest };
        large.op(0, &mut Tracer::new());
        large
    }
}

impl Workload for LargeN {
    fn ops_available(&self) -> usize {
        self.pool.len()
    }

    fn inputs_digest(&self) -> u64 {
        self.digest.value()
    }

    fn op(&mut self, index: usize, tracer: &mut Tracer) -> (Duration, Ledger) {
        let mut ledger = Ledger::default();
        let rotation = &self.pool[index];
        let (results, elapsed) = timed_op(tracer, |t| {
            rotation
                .iter()
                .map(|size| {
                    let reports: Vec<_> = size
                        .scenarios
                        .iter()
                        .map(|scenario| t.span("core.scenario.run", |_| scenario.run()))
                        .collect();
                    let dense = size.dense.as_ref().map(|inputs| {
                        t.span("sync.run_protocol", |_| {
                            run_protocol(
                                DenseFlood::system(inputs, DENSE_ROUNDS),
                                &FailurePattern::none(size.n),
                                DENSE_ROUNDS + 1,
                            )
                        })
                    });
                    (reports, dense)
                })
                .collect::<Vec<_>>()
        });

        for (size, (reports, dense)) in rotation.iter().zip(&results) {
            for report in reports {
                check_report(report, Promise::Paper, &mut ledger);
            }
            let Some(dense) = dense else {
                continue;
            };
            ledger.attempted += 1;
            match dense {
                // Crash-free flooding of n distinct values: everyone
                // ends up seeing all n.
                Ok(trace) => {
                    ledger.sim.absorb(trace, 1, |v| *v as u64);
                    let all_see_all = trace.outcomes().iter().all(|o| {
                        matches!(o, Outcome::Decided { value, round }
                            if *value == size.n && *round == DENSE_ROUNDS)
                    });
                    if !all_see_all {
                        ledger.fail(1, || format!("dense flood at n = {} lost values", size.n));
                    }
                }
                Err(error) => ledger.fail(1, || format!("dense flood failed: {error}")),
            }
        }
        (elapsed, ledger)
    }
}
