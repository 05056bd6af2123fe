//! Batched experiments: a [`ScenarioSuite`] expands the cartesian grid
//! *executors × specs × inputs × patterns* (plus any explicit
//! [`cases`](ScenarioSuite::cases)) and executes every cell across a
//! worker pool. The consuming thread is one of the workers: while the
//! block of cells it must emit next is still out, it runs blocks itself.
//!
//! Three ways to consume a suite:
//!
//! * [`ScenarioSuite::run`] — collect everything into one
//!   [`SuiteReport`] (the original batch interface, now a thin adapter
//!   over the streaming engine);
//! * [`ScenarioSuite::run_streaming`] — a callback receives each
//!   [`SuiteCase`] in deterministic grid order *as it completes*, so
//!   table binaries print rows while later cells are still running and
//!   memory stays bounded on huge sweeps;
//! * [`ScenarioSuite::stream`] — the underlying [`SuiteRun`] iterator,
//!   when you want to drive the consumption yourself.
//!
//! All three emit the identical cases in the identical order (pattern
//! fastest, then input, then spec, then executor, then explicit cases),
//! regardless of how the worker pool schedules them — a bounded reorder
//! buffer puts completions back into grid order, so a suite run stays
//! replayable data like a single [`Scenario`] run.
//!
//! Specs, inputs and patterns are held behind [`Arc`]s and shared with
//! the workers: expanding a thousand-cell grid out of one
//! `ExplicitOracle` spec copies the oracle zero times.
//!
//! Executors are a grid dimension like any other: add several (including
//! the asynchronous ones — seeds and all) and every spec × input ×
//! pattern combination runs on each. A grid can therefore mix
//! synchronous and asynchronous cells; use failure-free or
//! [`Adversary::Async`]-compatible patterns for the cells shared across
//! models (a crashing synchronous pattern on an async executor is a
//! positioned per-case error, not a panic). When a grid would cross
//! incompatible dimensions — say round-based specs × async executors —
//! use explicit [`cases`](ScenarioSuite::cases) instead of letting the
//! product manufacture deliberate `UnsupportedProtocol` cells.
//!
//! Attach a [`SuiteCache`] with [`ScenarioSuite::cache`] and warm cells
//! are served without re-execution; see [`crate::cache`] for the keying
//! and persistence story.
//!
//! ```
//! use setagree_conditions::MaxCondition;
//! use setagree_core::{ConditionBasedConfig, ProtocolSpec, ScenarioSuite};
//! use setagree_sync::FailurePattern;
//!
//! let config = ConditionBasedConfig::builder(6, 3, 2)
//!     .condition_degree(2)
//!     .ell(1)
//!     .build()?;
//! let suite = ScenarioSuite::new()
//!     .spec(ProtocolSpec::condition_based(config, MaxCondition::new(config.legality())))
//!     .spec(ProtocolSpec::flood_set(6, 3, 2))
//!     .input(vec![5u32, 5, 1, 2, 5, 5])
//!     .pattern(FailurePattern::none(6))
//!     .pattern(FailurePattern::staircase(6, 3, 2));
//! let outcome = suite.run();
//! assert_eq!(outcome.len(), 4); // 2 specs × 1 input × 2 patterns
//! assert!(outcome.all_satisfy_properties());
//!
//! // The same grid, streamed: cases arrive in the same order, as they
//! // complete, without buffering the whole grid.
//! let mut rows = 0;
//! suite.run_streaming(|case| {
//!     assert!(case.report().is_some());
//!     rows += 1;
//! });
//! assert_eq!(rows, 4);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::collections::BTreeMap;
use std::fmt;
use std::hash::Hash;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::panic;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, OnceLock};
use std::thread;
use std::time::Instant;
use std::vec;

use setagree_conditions::{ConditionOracle, MaxCondition};
use setagree_types::{InputVector, ProposalValue};

use crate::cache::{stable_pair, CacheKey, SuiteCache};
use crate::experiment::{Adversary, Executor, ExperimentError, ProtocolSpec, Scenario};
use crate::report::Report;

/// The coordinates of one cell: indices into the suite's component
/// lists (`None` pattern = implicit failure-free, `None` executor =
/// implicit default simulator).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CellCoords {
    spec: usize,
    input: usize,
    pattern: Option<usize>,
    executor: Option<usize>,
}

impl CellCoords {
    /// The cell's case: `result` at these coordinates.
    fn positioned<V: Ord>(self, result: Result<Report<V>, ExperimentError>) -> SuiteCase<V> {
        SuiteCase {
            spec_index: self.spec,
            input_index: self.input,
            pattern_index: self.pattern,
            executor_index: self.executor,
            result,
        }
    }
}

/// One explicit (spec, input, pattern, executor) cell for
/// [`ScenarioSuite::cases`] — the escape hatch for heterogeneous sweeps
/// the cartesian product cannot express without deliberate error cells.
///
/// Build from tuples (`(spec, input, executor)` or
/// `(spec, input, pattern, executor)`), or with [`CaseSpec::new`] /
/// [`CaseSpec::shared`] plus the builder methods. `Arc`-shared
/// components are deduplicated inside the suite, so a thousand-case
/// seed sweep over one spec stores the spec once.
pub struct CaseSpec<V, O = MaxCondition> {
    spec: Arc<ProtocolSpec<V, O>>,
    input: Arc<InputVector<V>>,
    pattern: Option<Arc<Adversary>>,
    executor: Executor,
}

impl<V: fmt::Debug, O> fmt::Debug for CaseSpec<V, O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CaseSpec")
            .field("spec", &self.spec)
            .field("input", &self.input)
            .field("pattern", &self.pattern)
            .field("executor", &self.executor)
            .finish()
    }
}

impl<V, O> CaseSpec<V, O> {
    /// A failure-free case of `spec` on `input` under `executor`.
    pub fn new(
        spec: ProtocolSpec<V, O>,
        input: impl Into<InputVector<V>>,
        executor: Executor,
    ) -> Self {
        CaseSpec::shared(Arc::new(spec), Arc::new(input.into()), executor)
    }

    /// As [`CaseSpec::new`], from shared components (no copies; the
    /// suite dedups `Arc`-identical components).
    pub fn shared(
        spec: Arc<ProtocolSpec<V, O>>,
        input: Arc<InputVector<V>>,
        executor: Executor,
    ) -> Self {
        CaseSpec {
            spec,
            input,
            pattern: None,
            executor,
        }
    }

    /// Sets the case's adversary.
    pub fn pattern(mut self, pattern: impl Into<Adversary>) -> Self {
        self.pattern = Some(Arc::new(pattern.into()));
        self
    }

    /// Sets an `Arc`-shared adversary.
    pub fn pattern_shared(mut self, pattern: Arc<Adversary>) -> Self {
        self.pattern = Some(pattern);
        self
    }
}

impl<V, O, I: Into<InputVector<V>>> From<(ProtocolSpec<V, O>, I, Executor)> for CaseSpec<V, O> {
    fn from((spec, input, executor): (ProtocolSpec<V, O>, I, Executor)) -> Self {
        CaseSpec::new(spec, input, executor)
    }
}

impl<V, O, I: Into<InputVector<V>>, A: Into<Adversary>> From<(ProtocolSpec<V, O>, I, A, Executor)>
    for CaseSpec<V, O>
{
    fn from((spec, input, pattern, executor): (ProtocolSpec<V, O>, I, A, Executor)) -> Self {
        CaseSpec::new(spec, input, executor).pattern(pattern)
    }
}

impl<V, O> From<(Arc<ProtocolSpec<V, O>>, Arc<InputVector<V>>, Executor)> for CaseSpec<V, O> {
    fn from(
        (spec, input, executor): (Arc<ProtocolSpec<V, O>>, Arc<InputVector<V>>, Executor),
    ) -> Self {
        CaseSpec::shared(spec, input, executor)
    }
}

impl<V, O, A: Into<Adversary>> From<(Arc<ProtocolSpec<V, O>>, Arc<InputVector<V>>, A, Executor)>
    for CaseSpec<V, O>
{
    fn from(
        (spec, input, pattern, executor): (
            Arc<ProtocolSpec<V, O>>,
            Arc<InputVector<V>>,
            A,
            Executor,
        ),
    ) -> Self {
        CaseSpec::shared(spec, input, executor).pattern(pattern)
    }
}

/// A shareable hasher of one grid component into a key-pair half.
type ComponentHasher<T> = Arc<dyn Fn(&T) -> (u64, u64) + Send + Sync>;

/// The cache attachment: the cache itself plus the component hashers,
/// constructed inside [`ScenarioSuite::cache`] where the `Hash` bounds
/// hold so the rest of the suite stays bound-free.
struct CacheBinding<V: Ord, O> {
    cache: Arc<SuiteCache<V>>,
    hash_spec: ComponentHasher<ProtocolSpec<V, O>>,
    hash_input: ComponentHasher<InputVector<V>>,
}

impl<V: Ord, O> Clone for CacheBinding<V, O> {
    fn clone(&self) -> Self {
        CacheBinding {
            cache: Arc::clone(&self.cache),
            hash_spec: Arc::clone(&self.hash_spec),
            hash_input: Arc::clone(&self.hash_input),
        }
    }
}

/// A cartesian batch of scenarios over one or more executors, plus any
/// explicit cases.
pub struct ScenarioSuite<V: Ord, O = MaxCondition> {
    specs: Vec<Arc<ProtocolSpec<V, O>>>,
    inputs: Vec<Arc<InputVector<V>>>,
    patterns: Vec<Arc<Adversary>>,
    executors: Vec<Executor>,
    // The component indices participating in the cartesian grid, in
    // insertion order. Explicit cases reference components outside
    // these lists, so the product never crosses them.
    grid_specs: Vec<usize>,
    grid_inputs: Vec<usize>,
    grid_patterns: Vec<usize>,
    grid_executors: Vec<usize>,
    explicit: Vec<CellCoords>,
    round_limit: Option<usize>,
    step_budget: Option<u64>,
    threads: Option<usize>,
    cache: Option<CacheBinding<V, O>>,
}

impl<V: Ord, O> Default for ScenarioSuite<V, O> {
    fn default() -> Self {
        ScenarioSuite {
            specs: Vec::new(),
            inputs: Vec::new(),
            patterns: Vec::new(),
            executors: Vec::new(),
            grid_specs: Vec::new(),
            grid_inputs: Vec::new(),
            grid_patterns: Vec::new(),
            grid_executors: Vec::new(),
            explicit: Vec::new(),
            round_limit: None,
            step_budget: None,
            threads: None,
            cache: None,
        }
    }
}

impl<V: Ord + fmt::Debug, O> fmt::Debug for ScenarioSuite<V, O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ScenarioSuite")
            .field("specs", &self.specs)
            .field("inputs", &self.inputs.len())
            .field("patterns", &self.patterns.len())
            .field("executors", &self.executors)
            .field("explicit_cases", &self.explicit.len())
            .field("cached", &self.cache.is_some())
            .finish()
    }
}

impl<V: Ord, O> ScenarioSuite<V, O> {
    /// An empty suite (simulator executor, parallel execution).
    pub fn new() -> Self {
        Self::default()
    }

    fn intern_spec(&mut self, spec: Arc<ProtocolSpec<V, O>>) -> usize {
        match self.specs.iter().position(|s| Arc::ptr_eq(s, &spec)) {
            Some(i) => i,
            None => {
                self.specs.push(spec);
                self.specs.len() - 1
            }
        }
    }

    fn intern_input(&mut self, input: Arc<InputVector<V>>) -> usize {
        match self.inputs.iter().position(|i| Arc::ptr_eq(i, &input)) {
            Some(i) => i,
            None => {
                self.inputs.push(input);
                self.inputs.len() - 1
            }
        }
    }

    fn intern_pattern(&mut self, pattern: Arc<Adversary>) -> usize {
        match self.patterns.iter().position(|p| Arc::ptr_eq(p, &pattern)) {
            Some(i) => i,
            None => {
                self.patterns.push(pattern);
                self.patterns.len() - 1
            }
        }
    }

    fn intern_executor(&mut self, executor: Executor) -> usize {
        match self.executors.iter().position(|e| *e == executor) {
            Some(i) => i,
            None => {
                self.executors.push(executor);
                self.executors.len() - 1
            }
        }
    }

    /// Adds one protocol spec to the grid.
    pub fn spec(mut self, spec: ProtocolSpec<V, O>) -> Self {
        self.specs.push(Arc::new(spec));
        self.grid_specs.push(self.specs.len() - 1);
        self
    }

    /// Adds an `Arc`-shared spec to the grid without copying it.
    pub fn spec_shared(mut self, spec: Arc<ProtocolSpec<V, O>>) -> Self {
        let idx = self.intern_spec(spec);
        self.grid_specs.push(idx);
        self
    }

    /// Adds several protocol specs.
    pub fn specs(mut self, specs: impl IntoIterator<Item = ProtocolSpec<V, O>>) -> Self {
        for spec in specs {
            self = self.spec(spec);
        }
        self
    }

    /// Adds one input vector to the grid.
    pub fn input(mut self, input: impl Into<InputVector<V>>) -> Self {
        self.inputs.push(Arc::new(input.into()));
        self.grid_inputs.push(self.inputs.len() - 1);
        self
    }

    /// Adds an `Arc`-shared input vector to the grid.
    pub fn input_shared(mut self, input: Arc<InputVector<V>>) -> Self {
        let idx = self.intern_input(input);
        self.grid_inputs.push(idx);
        self
    }

    /// Adds several input vectors.
    pub fn inputs(mut self, inputs: impl IntoIterator<Item = InputVector<V>>) -> Self {
        for input in inputs {
            self = self.input(input);
        }
        self
    }

    /// Adds one adversary to the grid. When a suite has no patterns at
    /// all, every spec runs failure-free.
    pub fn pattern(mut self, pattern: impl Into<Adversary>) -> Self {
        self.patterns.push(Arc::new(pattern.into()));
        self.grid_patterns.push(self.patterns.len() - 1);
        self
    }

    /// Adds an `Arc`-shared adversary to the grid.
    pub fn pattern_shared(mut self, pattern: Arc<Adversary>) -> Self {
        let idx = self.intern_pattern(pattern);
        self.grid_patterns.push(idx);
        self
    }

    /// Adds several adversaries.
    pub fn patterns(mut self, patterns: impl IntoIterator<Item = Adversary>) -> Self {
        for pattern in patterns {
            self = self.pattern(pattern);
        }
        self
    }

    /// Adds one executor to the grid. When a suite has no executors at
    /// all, every case runs on the default simulator; adding several
    /// expands the grid across them (the executors are the
    /// slowest-varying dimension), which is how a grid mixes synchronous
    /// and asynchronous cells — or sweeps adversary seeds, since the
    /// async executors carry their seed.
    pub fn executor(mut self, executor: Executor) -> Self {
        self.executors.push(executor);
        self.grid_executors.push(self.executors.len() - 1);
        self
    }

    /// Adds several executors.
    pub fn executors(mut self, executors: impl IntoIterator<Item = Executor>) -> Self {
        for executor in executors {
            self = self.executor(executor);
        }
        self
    }

    /// Appends one explicit case — see [`ScenarioSuite::cases`].
    pub fn case(mut self, case: impl Into<CaseSpec<V, O>>) -> Self {
        let case = case.into();
        let coords = CellCoords {
            spec: self.intern_spec(case.spec),
            input: self.intern_input(case.input),
            pattern: case.pattern.map(|p| self.intern_pattern(p)),
            executor: Some(self.intern_executor(case.executor)),
        };
        self.explicit.push(coords);
        self
    }

    /// Appends explicit (spec, input, \[pattern,\] executor) cases to the
    /// suite — the escape hatch for heterogeneous sweeps. The cartesian
    /// product crosses *every* spec with *every* executor, so a grid
    /// mixing round-based specs with async executors manufactures
    /// deliberate `UnsupportedProtocol` error cells; explicit cases pair
    /// each spec with exactly the executors (and adversaries) that can
    /// run it. Explicit cases run after the grid cells, in insertion
    /// order, and coexist with grid dimensions in one suite.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use setagree_conditions::{LegalityParams, MaxCondition};
    /// use setagree_core::{CaseSpec, Executor, ProtocolSpec, ScenarioSuite};
    ///
    /// let params = LegalityParams::new(1, 1)?;
    /// let async_spec = Arc::new(ProtocolSpec::async_set_agreement(
    ///     4,
    ///     params,
    ///     MaxCondition::new(params),
    /// ));
    /// let input = Arc::new(vec![7u32, 7, 7, 2].into());
    /// // A flood-set on the simulator next to an async seed sweep:
    /// // inexpressible as a product without error cells.
    /// let outcome = ScenarioSuite::new()
    ///     .case((
    ///         ProtocolSpec::flood_set(4, 2, 1),
    ///         vec![3u32, 9, 1, 4],
    ///         Executor::Simulator,
    ///     ))
    ///     .cases((0..4).map(|seed| {
    ///         CaseSpec::shared(
    ///             Arc::clone(&async_spec),
    ///             Arc::clone(&input),
    ///             Executor::AsyncSharedMemory { seed },
    ///         )
    ///     }))
    ///     .run();
    /// assert_eq!(outcome.len(), 5);
    /// assert!(outcome.all_ok(), "no UnsupportedProtocol cells");
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn cases<I>(mut self, cases: I) -> Self
    where
        I: IntoIterator,
        I::Item: Into<CaseSpec<V, O>>,
    {
        for case in cases {
            self = self.case(case);
        }
        self
    }

    /// Overrides the engine round limit for every round-based case
    /// (asynchronous cells keep their step budgets — the units differ;
    /// see [`ScenarioSuite::step_budget`]).
    pub fn round_limit(mut self, limit: usize) -> Self {
        self.round_limit = Some(limit);
        self
    }

    /// Overrides the global step/delivery budget for every asynchronous
    /// case (round-based cells keep their round limits).
    pub fn step_budget(mut self, budget: u64) -> Self {
        self.step_budget = Some(budget);
        self
    }

    /// Caps the suite's worker threads (`1` forces sequential execution;
    /// default: the machine's available parallelism). `w` workers are
    /// the calling thread plus `w − 1` pool tasks. Note that when any
    /// grid executor is `Threaded`, the default worker count is divided
    /// by the largest system size so concurrent threaded cells cannot
    /// multiply OS threads past the machine — which also serializes the
    /// *other* cells of a mixed grid; set an explicit `.threads(...)`
    /// when a mostly-async grid carries a token threaded cell.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// The number of cases the suite expands to (grid product plus
    /// explicit cases).
    pub fn len(&self) -> usize {
        self.grid_len() + self.explicit.len()
    }

    fn grid_len(&self) -> usize {
        self.grid_specs.len()
            * self.grid_inputs.len()
            * self.grid_patterns.len().max(1)
            * self.grid_executors.len().max(1)
    }

    /// Whether the suite expands to no cases.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<V, O> ScenarioSuite<V, O>
where
    V: ProposalValue + Hash,
    O: Hash,
{
    /// Attaches a result cache: cells whose (spec, input, pattern,
    /// executor-including-seed, round-limit/step-budget) coordinates
    /// were already executed under this cache are served from it
    /// without re-running the protocol. The run's [`SuiteReport`] (or
    /// [`SuiteRunStats`]) exposes hit/miss counters; see
    /// [`crate::cache`] for keying and persistence.
    ///
    /// The `Hash` bounds live only here: uncached suites accept value
    /// and oracle types with no `Hash` at all.
    pub fn cache(mut self, cache: &Arc<SuiteCache<V>>) -> Self {
        self.cache = Some(CacheBinding {
            cache: Arc::clone(cache),
            hash_spec: Arc::new(|spec: &ProtocolSpec<V, O>| stable_pair(spec)),
            hash_input: Arc::new(|input: &InputVector<V>| stable_pair(input)),
        });
        self
    }
}

/// Per-run cache counters, shared between the workers and the consumer.
///
/// These stay per-run (table binaries and tests assert exact per-run
/// hit/miss numbers); when `setagree_obs` instrumentation is enabled
/// every increment is *also* mirrored into the process-cumulative
/// registry counters (`suite_cache_hits` / `suite_cache_misses`).
#[derive(Debug, Default)]
struct RunCounters {
    hits: AtomicU64,
    misses: AtomicU64,
}

/// The suite engine's registry handles, created once on first use.
struct SuiteMetrics {
    cell_latency_us: Arc<setagree_obs::Histogram>,
    queue_wait_us: Arc<setagree_obs::Histogram>,
    emit_wait_us: Arc<setagree_obs::Histogram>,
    cache_hits: Arc<setagree_obs::Counter>,
    cache_misses: Arc<setagree_obs::Counter>,
}

fn suite_metrics() -> &'static SuiteMetrics {
    static METRICS: OnceLock<SuiteMetrics> = OnceLock::new();
    METRICS.get_or_init(|| SuiteMetrics {
        cell_latency_us: setagree_obs::histogram("suite_cell_latency_us", &[]),
        queue_wait_us: setagree_obs::histogram("suite_queue_wait_us", &[]),
        emit_wait_us: setagree_obs::histogram("suite_emit_wait_us", &[]),
        cache_hits: setagree_obs::counter("suite_cache_hits", &[]),
        cache_misses: setagree_obs::counter("suite_cache_misses", &[]),
    })
}

/// How a parallel run cuts the cells it was started over — the whole
/// grid, or what is left of it behind a cached prefix — into contiguous
/// blocks, the unit workers claim, send and the consumer reorders. A
/// pure function of that range and the worker count: a quarter of a
/// worker's even share, so the tail of a run idles a worker for at most
/// that, capped at 64 cells so a huge grid still streams; ranges of at
/// most `4 × workers` cells get one-cell blocks.
#[derive(Debug, Clone)]
struct Blocks {
    cells: Range<usize>,
    size: usize,
}

impl Blocks {
    fn new(cells: Range<usize>, workers: usize) -> Blocks {
        Blocks {
            size: (cells.len() / (4 * workers)).clamp(1, 64),
            cells,
        }
    }

    fn count(&self) -> usize {
        self.cells.len().div_ceil(self.size)
    }

    fn cells(&self, block: usize) -> Range<usize> {
        let start = self.cells.start + block * self.size;
        start..(start + self.size).min(self.cells.end)
    }
}

/// Hands out blocks and gates how far workers may run ahead of the
/// consumer's emission frontier. Claims are sequential, so admitting
/// only blocks within `window` of the frontier bounds the reorder
/// buffer at `window` blocks — channel backpressure alone would not: a
/// slow cell at the front of grid order forces the consumer to drain
/// every later completion into the buffer, freeing channel slots and
/// letting the grid race arbitrarily far ahead. The consumer is a
/// worker too, but it advances the frontier itself and so must never
/// wait at the edge: it claims with [`try_claim`](Self::try_claim),
/// inside the window or not at all.
#[derive(Debug, Default)]
struct ClaimWindow {
    /// The next unclaimed block.
    next: AtomicUsize,
    /// The consumer hung up. Written before `advanced` is notified
    /// under the `frontier` lock, read under it by waiters and lock-free
    /// by workers between cells.
    closed: AtomicBool,
    /// Blocks the consumer has taken out of the reorder buffer so far.
    frontier: Mutex<usize>,
    advanced: Condvar,
}

impl ClaimWindow {
    /// Claims the next block (which may lie past the grid's end).
    fn claim(&self) -> usize {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Claims the next block if it lies below `limit`.
    fn try_claim(&self, limit: usize) -> Option<usize> {
        self.next
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |next| {
                (next < limit).then_some(next + 1)
            })
            .ok()
    }

    fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Blocks until `block` is within `window` of the frontier; `false`
    /// means the consumer is gone and the worker should stop.
    ///
    /// No deadlock: the very next block the consumer needs was claimed
    /// before every later one and always satisfies
    /// `block < frontier + window`, so its holder is never blocked here.
    fn admit(&self, block: usize, window: usize) -> bool {
        let mut frontier = self.frontier.lock().expect("window lock poisoned");
        if !self.is_closed() && block >= *frontier + window {
            // The worker is about to block at the window's edge — that
            // wait is the suite's queue-wait metric.
            let blocked_at = setagree_obs::enabled().then(Instant::now);
            while !self.is_closed() && block >= *frontier + window {
                frontier = self.advanced.wait(frontier).expect("window lock poisoned");
            }
            if let Some(at) = blocked_at {
                let us = u64::try_from(at.elapsed().as_micros()).unwrap_or(u64::MAX);
                suite_metrics().queue_wait_us.record(us);
            }
        }
        !self.is_closed()
    }

    /// Records one block taken for emission, releasing workers waiting
    /// at the edge.
    fn advance(&self) {
        *self.frontier.lock().expect("window lock poisoned") += 1;
        self.advanced.notify_all();
    }

    /// Marks the consumer gone, releasing every waiting worker.
    fn close(&self) {
        self.closed.store(true, Ordering::Release);
        // Taking the lock orders the store before any waiter's next
        // check, so the wake-up cannot be missed. Runs in `Drop`, hence
        // no `expect`: a poisoned lock still serializes.
        drop(self.frontier.lock());
        self.advanced.notify_all();
    }
}

/// The cache view of one run: the cache plus the component hashes,
/// computed once per dimension entry instead of once per cell (an
/// `ExplicitOracle` spec can be large; its hash is reused by every cell
/// it participates in).
struct CachePlan<V: Ord> {
    cache: Arc<SuiteCache<V>>,
    spec_hashes: Vec<(u64, u64)>,
    input_hashes: Vec<(u64, u64)>,
    pattern_hashes: Vec<(u64, u64)>,
    /// What a cell without a pattern hashes in its place.
    failure_free_hash: (u64, u64),
    executor_hashes: Vec<(u64, u64)>,
    /// The hash of the executor a cell without one runs on.
    default_executor_hash: (u64, u64),
    settings_hash: (u64, u64),
}

impl<V: ProposalValue> CachePlan<V> {
    fn key(&self, coords: CellCoords) -> CacheKey {
        CacheKey::combine(&[
            self.spec_hashes[coords.spec],
            self.input_hashes[coords.input],
            coords
                .pattern
                .map_or(self.failure_free_hash, |p| self.pattern_hashes[p]),
            coords
                .executor
                .map_or(self.default_executor_hash, |e| self.executor_hashes[e]),
            self.settings_hash,
        ])
    }
}

/// An immutable snapshot of a suite, shared by the run's workers.
struct GridPlan<V: Ord, O> {
    specs: Vec<Arc<ProtocolSpec<V, O>>>,
    inputs: Vec<Arc<InputVector<V>>>,
    patterns: Vec<Arc<Adversary>>,
    executors: Vec<Executor>,
    grid_specs: Vec<usize>,
    grid_inputs: Vec<usize>,
    grid_patterns: Vec<usize>,
    grid_executors: Vec<usize>,
    explicit: Vec<CellCoords>,
    round_limit: Option<usize>,
    step_budget: Option<u64>,
    total: usize,
    cache: Option<CachePlan<V>>,
    counters: Arc<RunCounters>,
}

impl<V: Ord, O> GridPlan<V, O> {
    fn coords(&self, case: usize) -> CellCoords {
        let pattern_count = self.grid_patterns.len().max(1);
        let input_count = self.grid_inputs.len();
        let spec_count = self.grid_specs.len();
        let grid_len = spec_count * input_count * pattern_count * self.grid_executors.len().max(1);
        if case >= grid_len {
            return self.explicit[case - grid_len];
        }
        let pattern_slot = case % pattern_count;
        let input_slot = (case / pattern_count) % input_count;
        let spec_slot = (case / (pattern_count * input_count)) % spec_count;
        let executor_slot = case / (pattern_count * input_count * spec_count);
        CellCoords {
            spec: self.grid_specs[spec_slot],
            input: self.grid_inputs[input_slot],
            pattern: self.grid_patterns.get(pattern_slot).copied(),
            executor: self.grid_executors.get(executor_slot).copied(),
        }
    }
}

impl<V: ProposalValue, O> GridPlan<V, O> {
    /// Counts a cell served from the cache.
    fn served(
        &self,
        coords: CellCoords,
        result: Result<Report<V>, ExperimentError>,
    ) -> SuiteCase<V> {
        self.counters.hits.fetch_add(1, Ordering::Relaxed);
        if setagree_obs::enabled() {
            suite_metrics().cache_hits.inc();
        }
        coords.positioned(result)
    }

    /// Serves `case` from the attached cache if it is there. A cell that
    /// is not counts nothing here: whoever runs it counts the miss.
    fn probe_case(&self, case: usize) -> Option<SuiteCase<V>> {
        let plan = self.cache.as_ref()?;
        let coords = self.coords(case);
        let result = plan.cache.probe(&plan.key(coords))?;
        Some(self.served(coords, result))
    }
}

impl<V, O> GridPlan<V, O>
where
    V: ProposalValue + Send + Sync + 'static,
    O: ConditionOracle<V> + Clone + Send + Sync + 'static,
{
    fn run_case(&self, case: usize) -> SuiteCase<V> {
        let coords = self.coords(case);
        let executor = coords
            .executor
            .map(|e| self.executors[e])
            .unwrap_or_default();

        let key = self.cache.as_ref().map(|plan| plan.key(coords));
        if let (Some(plan), Some(key)) = (&self.cache, key) {
            if let Some(result) = plan.cache.lookup(&key) {
                return self.served(coords, result);
            }
            self.counters.misses.fetch_add(1, Ordering::Relaxed);
            if setagree_obs::enabled() {
                suite_metrics().cache_misses.inc();
            }
        }

        let mut scenario = Scenario::from_shared(Arc::clone(&self.specs[coords.spec]))
            .input_shared(Arc::clone(&self.inputs[coords.input]))
            .executor(executor);
        if let Some(pattern) = coords.pattern {
            scenario = scenario.pattern_shared(Arc::clone(&self.patterns[pattern]));
        }
        if let Some(limit) = self.round_limit {
            scenario = scenario.round_limit(limit);
        }
        if let Some(budget) = self.step_budget {
            scenario = scenario.step_budget(budget);
        }
        // A panicking protocol/oracle must cost its own cell, not the
        // whole grid — mirroring how the threaded executor already
        // degrades (per-case ProcessPanicked).
        let _cell_span = setagree_obs::Span::start("suite", "cell")
            .with_histogram(&suite_metrics().cell_latency_us)
            .with_detail(case as u64);
        let result = panic::catch_unwind(panic::AssertUnwindSafe(|| scenario.run()))
            .unwrap_or_else(|payload| {
                let message = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "opaque panic payload".into());
                Err(ExperimentError::Internal {
                    message: format!("case panicked: {message}"),
                })
            });
        if let (Some(plan), Some(key)) = (&self.cache, key) {
            plan.cache.insert(key, result.clone());
        }
        coords.positioned(result)
    }
}

/// `thread::available_parallelism()`, sampled once per process: where
/// the answer comes out of cgroup files a call costs as much as a cell
/// or two, and every `stream()` of a suite without `.threads(...)` asks.
fn machine_parallelism() -> usize {
    static PARALLELISM: OnceLock<usize> = OnceLock::new();
    *PARALLELISM.get_or_init(|| {
        thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

impl<V, O> ScenarioSuite<V, O>
where
    V: ProposalValue + Send + Sync + 'static,
    O: ConditionOracle<V> + Clone + Send + Sync + 'static,
{
    fn worker_count(&self, total: usize) -> usize {
        self.threads
            .unwrap_or_else(|| {
                let parallelism = machine_parallelism();
                // Threaded and networked-loopback cases both spawn one
                // OS thread per process;
                // divide the worker pool by the largest system size so
                // the total thread count stays near the machine's
                // parallelism instead of multiplying with it. An
                // explicit `.threads(...)` overrides this.
                let any_threaded = self
                    .executors
                    .iter()
                    .any(|e| matches!(e, Executor::Threaded | Executor::Networked { .. }));
                if any_threaded {
                    let max_n = self.specs.iter().map(|s| s.n()).max().unwrap_or(1);
                    (parallelism / max_n.max(1)).max(1)
                } else {
                    parallelism
                }
            })
            .min(total.max(1))
    }

    fn plan(&self) -> GridPlan<V, O> {
        let cache = self.cache.as_ref().map(|binding| CachePlan {
            cache: Arc::clone(&binding.cache),
            spec_hashes: self.specs.iter().map(|s| (binding.hash_spec)(s)).collect(),
            input_hashes: self
                .inputs
                .iter()
                .map(|i| (binding.hash_input)(i))
                .collect(),
            pattern_hashes: self.patterns.iter().map(|p| stable_pair(&**p)).collect(),
            failure_free_hash: stable_pair(&"failure-free"),
            executor_hashes: self.executors.iter().map(stable_pair).collect(),
            default_executor_hash: stable_pair(&Executor::default()),
            settings_hash: stable_pair(&(self.round_limit, self.step_budget)),
        });
        GridPlan {
            specs: self.specs.clone(),
            inputs: self.inputs.clone(),
            patterns: self.patterns.clone(),
            executors: self.executors.clone(),
            grid_specs: self.grid_specs.clone(),
            grid_inputs: self.grid_inputs.clone(),
            grid_patterns: self.grid_patterns.clone(),
            grid_executors: self.grid_executors.clone(),
            explicit: self.explicit.clone(),
            round_limit: self.round_limit,
            step_budget: self.step_budget,
            total: self.len(),
            cache,
            counters: Arc::new(RunCounters::default()),
        }
    }

    /// Starts executing the suite and returns the [`SuiteRun`] iterator
    /// over its cases, in deterministic grid order, as they complete.
    ///
    /// Cells execute on a worker pool (sized like
    /// [`ScenarioSuite::run`]'s) whose first worker is the thread that
    /// consumes the iterator. Workers claim the grid in contiguous
    /// *blocks* of cells — `cells / (4 × workers)`, at least 1 and at
    /// most 64, so a grid of up to `4 × workers` cells is dispatched
    /// cell by cell — and pool tasks hand each block over whole, which
    /// makes the claim, the wake-up and the channel send per-block
    /// costs. While the block it must emit next is still out, `next()`
    /// runs the next unclaimed block itself, and waits only when none is
    /// left inside the window. A bounded reorder buffer — at most
    /// `2 × workers` completed blocks in flight — puts completions back
    /// into grid order, so memory stays bounded however large the sweep
    /// is. Dropping the iterator early stops the run: pool tasks finish
    /// their in-progress cell (not their block) and exit.
    ///
    /// **Cached prefix.** With a [cache](ScenarioSuite::cache) attached,
    /// a parallel run begins on the calling thread: this call looks the
    /// grid's first cell up, and as long as each next cell in grid order
    /// is in the cache, `next()` serves it right there — no worker is
    /// woken, nothing is buffered. The pool starts at the first cell the
    /// cache does not hold (inside this call when that is cell 0, so a
    /// cold run starts as eagerly as an uncached one), over the cells
    /// from that one on, and the run stays parallel from there however
    /// many later cells are warm. A fully warm rerun therefore never
    /// touches the pool, and a resumed killed sweep — whose journal is a
    /// prefix of grid order, up to the blocks in flight at the kill —
    /// serves that prefix at the speed of a lookup and goes parallel at
    /// the first hole. Hit and miss counts are the same either way.
    pub fn stream(&self) -> SuiteRun<V> {
        let plan = Arc::new(self.plan());
        let total = plan.total;
        let counters = Arc::clone(&plan.counters);
        let worker_count = self.worker_count(total);
        let source = if worker_count <= 1 {
            RunSource::Inline(Box::new(move |case| plan.run_case(case)))
        } else {
            let probe = move |case| match plan.probe_case(case) {
                Some(hit) => Probe::Hit(hit),
                None => Probe::Miss(start_workers(&plan, case..total, worker_count)),
            };
            match probe(0) {
                Probe::Hit(first) => RunSource::CachedPrefix {
                    ready: Some(first),
                    probe: Box::new(probe),
                },
                Probe::Miss(workers) => RunSource::Workers(workers),
            }
        };
        SuiteRun {
            total,
            next_emit: 0,
            source,
            counters,
        }
    }

    /// Expands the suite and runs every case in parallel, returning the
    /// outcomes in deterministic order (pattern fastest, then input,
    /// then spec, then executor, then explicit cases) — a thin
    /// collecting adapter over [`ScenarioSuite::stream`].
    ///
    /// A case whose protocol or oracle panics is contained as a
    /// positioned [`ExperimentError::Internal`]; note the process's
    /// panic hook still prints each caught panic to stderr (the suite
    /// deliberately does not swap the global hook, which would race
    /// with unrelated threads).
    pub fn run(&self) -> SuiteReport<V> {
        let mut stream = self.stream();
        let mut cases = Vec::with_capacity(stream.len());
        cases.extend(&mut stream);
        SuiteReport {
            cases,
            cache_hits: stream.cache_hits(),
            cache_misses: stream.cache_misses(),
        }
    }

    /// Runs the suite, handing each [`SuiteCase`] to `sink` in
    /// deterministic grid order as it completes — print a table row per
    /// case and a terabyte-scale sweep needs constant memory. Returns
    /// the run's totals.
    pub fn run_streaming(&self, mut sink: impl FnMut(SuiteCase<V>)) -> SuiteRunStats {
        let mut stream = self.stream();
        let mut cases = 0;
        for case in &mut stream {
            cases += 1;
            sink(case);
        }
        SuiteRunStats {
            cases,
            cache_hits: stream.cache_hits(),
            cache_misses: stream.cache_misses(),
        }
    }
}

/// Starts a run of up to `worker_count` workers over `cells` — the
/// whole grid, or the rest of it behind a cached prefix — and returns
/// the consumer's half. The consuming thread is one of the workers, so
/// the pool gets one task fewer.
fn start_workers<V, O>(
    plan: &Arc<GridPlan<V, O>>,
    cells: Range<usize>,
    worker_count: usize,
) -> WorkerSource<V>
where
    V: ProposalValue + Send + Sync + 'static,
    O: ConditionOracle<V> + Clone + Send + Sync + 'static,
{
    let worker_count = worker_count.min(cells.len());
    let blocks = Blocks::new(cells, worker_count);
    // The claim window keeps every claimed-but-unemitted block within
    // `2 × workers` of the consumer's frontier, which bounds the reorder
    // buffer (and the channel occupancy) at that window however the pool
    // schedules.
    let window_size = worker_count * 2;
    let (tx, rx) = mpsc::sync_channel(window_size);
    let window = Arc::new(ClaimWindow::default());
    let handles = (1..worker_count)
        .map(|_| {
            let plan = Arc::clone(plan);
            let window = Arc::clone(&window);
            let blocks = blocks.clone();
            let tx = tx.clone();
            // Pooled: a sweep-heavy binary opening many suites back to
            // back reuses the same OS threads instead of spawning
            // `workers` fresh ones per suite.
            setagree_runtime::pool::spawn(move || loop {
                let block = window.claim();
                if block >= blocks.count() {
                    break;
                }
                // Every exit below means the consumer hung up (dropped
                // the iterator): stop claiming work.
                if !window.admit(block, window_size) {
                    break;
                }
                let cells = blocks.cells(block);
                let mut cases = Vec::with_capacity(cells.len());
                for case in cells {
                    if window.is_closed() {
                        return;
                    }
                    cases.push(plan.run_case(case));
                }
                if tx.send((block, cases)).is_err() {
                    break;
                }
            })
        })
        .collect();
    let plan = Arc::clone(plan);
    WorkerSource {
        handles,
        rx,
        window,
        blocks,
        window_size,
        run: Box::new(move |case| plan.run_case(case)),
        pending: BTreeMap::new(),
        next_block: 0,
        current: Vec::new().into_iter(),
        #[cfg(test)]
        pending_high_water: 0,
    }
}

/// What looking the next cell of a cached prefix up came to.
enum Probe<V: Ord> {
    /// The cache holds the cell.
    Hit(SuiteCase<V>),
    /// It does not: the pool was started over the cells from this one
    /// on, and this is the consumer's half of it.
    Miss(WorkerSource<V>),
}

/// Where a [`SuiteRun`] gets its cases from.
enum RunSource<V: Ord> {
    /// Sequential: cells run lazily on the consuming thread, one per
    /// `next()` call.
    Inline(Box<dyn FnMut(usize) -> SuiteCase<V> + Send>),
    /// Parallel and cache-bound, every cell so far a hit: the consuming
    /// thread looks the next cell up itself. The first cell the cache
    /// does not hold turns the run into [`RunSource::Workers`] for good.
    CachedPrefix {
        /// The grid's first cell, looked up when the run was started.
        ready: Option<SuiteCase<V>>,
        probe: Box<dyn Fn(usize) -> Probe<V> + Send>,
    },
    /// Parallel: pool tasks send completed blocks through a bounded
    /// channel, gated by the claim window; the consumer runs blocks of
    /// its own while the next one it must emit is out, and reorders.
    Workers(WorkerSource<V>),
}

/// The consumer's half of a parallel run.
///
/// Ownership rule: everything the run allocated on the consuming
/// thread — the plan, the claim window, the channel — is also freed on
/// it, after the workers are joined. The workers hold clones; were one
/// of them to drop the last, the blocks would land in that worker's
/// malloc cache and be handed out again there while still belonging to
/// the consumer's arena, and from then on the two threads serialize on
/// one arena lock for every `realloc` and cache refill (measured: a
/// two-worker sweep at 0.4× the speed of a one-worker sweep). So the
/// consumer keeps its own handle on each until [`SuiteRun`]'s `Drop`
/// has joined the workers; its handle on the plan is the one inside
/// `run`.
struct WorkerSource<V: Ord> {
    handles: Vec<setagree_runtime::PooledJoinHandle<()>>,
    rx: mpsc::Receiver<(usize, Vec<SuiteCase<V>>)>,
    window: Arc<ClaimWindow>,
    blocks: Blocks,
    window_size: usize,
    /// Runs one cell on the consuming thread; owns the consumer's
    /// `Arc<GridPlan<V, O>>`, which is dropped only after the workers.
    run: Box<dyn Fn(usize) -> SuiteCase<V> + Send>,
    /// Completed blocks waiting for their turn, by block index.
    pending: BTreeMap<usize, Vec<SuiteCase<V>>>,
    next_block: usize,
    /// The block being emitted.
    current: vec::IntoIter<SuiteCase<V>>,
    #[cfg(test)]
    pending_high_water: usize,
}

impl<V: Ord> WorkerSource<V> {
    /// The next case in grid order, pulling the next block out of the
    /// reorder buffer when the current one is spent. While that block
    /// is out, the consumer takes what the pool has sent, else runs the
    /// next block inside the window itself, and waits only when there
    /// is neither.
    fn next_case(&mut self, total: usize) -> SuiteCase<V> {
        loop {
            if let Some(case) = self.current.next() {
                return case;
            }
            let limit = (self.next_block + self.window_size).min(self.blocks.count());
            let block = loop {
                if let Some(block) = self.pending.remove(&self.next_block) {
                    break block;
                }
                let (index, block) = match self.rx.try_recv() {
                    Ok(sent) => sent,
                    Err(_) => match self.window.try_claim(limit) {
                        Some(claimed) => {
                            (claimed, self.blocks.cells(claimed).map(&self.run).collect())
                        }
                        None => self.wait_for_block(total),
                    },
                };
                self.pending.insert(index, block);
                #[cfg(test)]
                {
                    self.pending_high_water = self.pending_high_water.max(self.pending.len());
                }
            };
            self.next_block += 1;
            self.window.advance();
            self.current = block.into_iter();
        }
    }

    /// Waits for the pool's next block: nothing is claimable inside the
    /// window, so the block to emit is one a pool task is running.
    fn wait_for_block(&self, total: usize) -> (usize, Vec<SuiteCase<V>>) {
        let blocked_at = setagree_obs::enabled().then(Instant::now);
        let sent = self.rx.recv().unwrap_or_else(|_| {
            panic!(
                "suite worker died before completing the grid \
                 (block {} of a {total}-cell grid never arrived)",
                self.next_block
            )
        });
        if let Some(at) = blocked_at {
            let us = u64::try_from(at.elapsed().as_micros()).unwrap_or(u64::MAX);
            suite_metrics().emit_wait_us.record(us);
        }
        sent
    }

    /// Stops the run: hangs up, lets the workers run out, reaps them.
    fn shut_down(&mut self) {
        self.window.close();
        // Drain to disconnection rather than dropping the receiver: a
        // worker blocked on a full channel gets its slot, and the
        // channel outlives every sender (see the ownership rule).
        while self.rx.recv().is_ok() {}
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// A streaming suite execution: an iterator yielding every [`SuiteCase`]
/// in deterministic grid order as cells complete. Produced by
/// [`ScenarioSuite::stream`].
///
/// The iterator is exact-size; [`SuiteRun::cache_hits`] /
/// [`SuiteRun::cache_misses`] read the run's cache counters at any
/// point (they are final once the iterator is exhausted).
///
/// Dropping a parallel run — exhausted or not — closes the claim window,
/// drains the channel until every worker has let go of it and joins the
/// workers, and only then frees the state the workers shared: what the
/// consuming thread allocated for the run is freed on the consuming
/// thread. The rule exists for speed, not safety; `WorkerSource` in the
/// source says what breaking it costs.
pub struct SuiteRun<V: Ord> {
    total: usize,
    next_emit: usize,
    source: RunSource<V>,
    counters: Arc<RunCounters>,
}

impl<V: ProposalValue> fmt::Debug for SuiteRun<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let buffered_blocks = match &self.source {
            RunSource::Inline(_) | RunSource::CachedPrefix { .. } => 0,
            RunSource::Workers(workers) => workers.pending.len(),
        };
        f.debug_struct("SuiteRun")
            .field("total", &self.total)
            .field("emitted", &self.next_emit)
            .field("buffered_blocks", &buffered_blocks)
            .finish()
    }
}

impl<V: ProposalValue> SuiteRun<V> {
    /// Cache hits so far in this run (0 without an attached cache).
    pub fn cache_hits(&self) -> u64 {
        self.counters.hits.load(Ordering::Relaxed)
    }

    /// Cache misses so far in this run (0 without an attached cache).
    pub fn cache_misses(&self) -> u64 {
        self.counters.misses.load(Ordering::Relaxed)
    }

    /// The consumer's half of a parallel run.
    #[cfg(test)]
    fn workers(&self) -> &WorkerSource<V> {
        match &self.source {
            RunSource::Workers(workers) => workers,
            _ => panic!("the run has started no workers"),
        }
    }
}

impl<V: ProposalValue> Iterator for SuiteRun<V> {
    type Item = SuiteCase<V>;

    fn next(&mut self) -> Option<SuiteCase<V>> {
        if self.next_emit >= self.total {
            return None;
        }
        let case = loop {
            match &mut self.source {
                RunSource::Inline(run) => break run(self.next_emit),
                RunSource::Workers(workers) => break workers.next_case(self.total),
                RunSource::CachedPrefix { ready, probe } => {
                    if let Some(first) = ready.take() {
                        break first;
                    }
                    match probe(self.next_emit) {
                        Probe::Hit(case) => break case,
                        Probe::Miss(workers) => self.source = RunSource::Workers(workers),
                    }
                }
            }
        };
        self.next_emit += 1;
        Some(case)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.total - self.next_emit;
        (remaining, Some(remaining))
    }
}

impl<V: ProposalValue> ExactSizeIterator for SuiteRun<V> {}

impl<V: Ord> Drop for SuiteRun<V> {
    fn drop(&mut self) {
        if let RunSource::Workers(workers) = &mut self.source {
            workers.shut_down();
        }
    }
}

/// The totals of a [`ScenarioSuite::run_streaming`] execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct SuiteRunStats {
    /// How many cases were emitted.
    pub cases: usize,
    /// Cache hits (0 without an attached cache).
    pub cache_hits: u64,
    /// Cache misses (0 without an attached cache).
    pub cache_misses: u64,
}

/// One grid cell of a suite run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuiteCase<V: Ord> {
    /// Index into the suite's specs.
    pub spec_index: usize,
    /// Index into the suite's inputs.
    pub input_index: usize,
    /// Index into the suite's patterns (`None` for the implicit
    /// failure-free run of a pattern-less suite or explicit case).
    pub pattern_index: Option<usize>,
    /// Index into the suite's executors (`None` for the implicit
    /// default-simulator run of an executor-less suite).
    pub executor_index: Option<usize>,
    /// The case's report, or why it could not run.
    pub result: Result<Report<V>, ExperimentError>,
}

impl<V: ProposalValue> SuiteCase<V> {
    /// The report, if the case ran.
    pub fn report(&self) -> Option<&Report<V>> {
        self.result.as_ref().ok()
    }
}

/// The outcome of a [`ScenarioSuite`] run: every case, in grid order,
/// plus the run's cache counters.
#[derive(Debug)]
pub struct SuiteReport<V: Ord> {
    cases: Vec<SuiteCase<V>>,
    cache_hits: u64,
    cache_misses: u64,
}

impl<V: ProposalValue> SuiteReport<V> {
    /// All cases, in grid order.
    pub fn cases(&self) -> &[SuiteCase<V>] {
        &self.cases
    }

    /// The number of cases.
    pub fn len(&self) -> usize {
        self.cases.len()
    }

    /// Whether the suite expanded to no cases.
    pub fn is_empty(&self) -> bool {
        self.cases.is_empty()
    }

    /// How many cells this run served from the attached [`SuiteCache`]
    /// (0 when the suite had none). A fully warm rerun has
    /// `cache_hits() == len()`: zero protocol executions happened.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits
    }

    /// How many cells this run had to execute and fill into the cache
    /// (0 when the suite had none — uncached cells are not misses).
    pub fn cache_misses(&self) -> u64 {
        self.cache_misses
    }

    /// Looks one case up by its grid coordinates — the indices of the
    /// spec/input/pattern/executor as they were added to the suite
    /// (`None` for the implicit failure-free pattern or default
    /// executor) — replacing hand-computed flat grid indices in table
    /// binaries.
    pub fn find(
        &self,
        spec: usize,
        input: usize,
        pattern: Option<usize>,
        executor: Option<usize>,
    ) -> Option<&SuiteCase<V>> {
        self.cases.iter().find(|c| {
            c.spec_index == spec
                && c.input_index == input
                && c.pattern_index == pattern
                && c.executor_index == executor
        })
    }

    /// Iterates over the successful reports.
    pub fn reports(&self) -> impl Iterator<Item = &Report<V>> {
        self.cases.iter().filter_map(SuiteCase::report)
    }

    /// The errors of failed cases, with their grid position.
    pub fn failures(&self) -> impl Iterator<Item = (&SuiteCase<V>, &ExperimentError)> {
        self.cases
            .iter()
            .filter_map(|c| c.result.as_ref().err().map(|e| (c, e)))
    }

    /// Every case ran and satisfied termination, validity and agreement.
    /// False on an empty grid — zero cases verified nothing.
    pub fn all_satisfy_properties(&self) -> bool {
        !self.is_empty()
            && self
                .cases
                .iter()
                .all(|c| c.report().is_some_and(Report::satisfies_all))
    }

    /// Every case ran within its predicted round bound. False on an
    /// empty grid — zero cases verified nothing.
    pub fn all_within_bounds(&self) -> bool {
        !self.is_empty()
            && self
                .cases
                .iter()
                .all(|c| c.report().is_some_and(Report::within_predicted_rounds))
    }

    /// [`SuiteReport::all_satisfy_properties`] and
    /// [`SuiteReport::all_within_bounds`] at once — what the table
    /// binaries print as their verdict. Like its two components, false
    /// on an empty grid: a suite that accidentally expanded to zero
    /// cases (e.g. a forgotten `.input(...)`) must not read as a pass.
    pub fn all_ok(&self) -> bool {
        self.all_satisfy_properties() && self.all_within_bounds()
    }

    /// The worst measured decision round across all successful cases.
    pub fn worst_decision_round(&self) -> Option<usize> {
        self.reports().filter_map(Report::decision_round).max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ConditionBasedConfig;
    use setagree_conditions::LegalityParams;
    use setagree_sync::FailurePattern;
    use setagree_types::View;
    use std::collections::BTreeSet;
    use std::time::Duration;

    fn config() -> ConditionBasedConfig {
        ConditionBasedConfig::builder(6, 3, 2)
            .condition_degree(2)
            .ell(1)
            .build()
            .unwrap()
    }

    fn suite() -> ScenarioSuite<u32> {
        let cfg = config();
        ScenarioSuite::new()
            .spec(ProtocolSpec::condition_based(
                cfg,
                MaxCondition::new(cfg.legality()),
            ))
            .spec(ProtocolSpec::flood_set(6, 3, 2))
            .spec(ProtocolSpec::early_deciding(6, 3, 2))
            .input(vec![5u32, 5, 1, 2, 5, 5])
            .input(vec![1u32, 2, 3, 4, 5, 6])
            .pattern(FailurePattern::none(6))
            .pattern(FailurePattern::staircase(6, 3, 2))
    }

    /// The (4, 2, 1) system the oracle-driven tests below run on.
    fn small_config() -> ConditionBasedConfig {
        ConditionBasedConfig::builder(4, 2, 1)
            .condition_degree(1)
            .ell(1)
            .build()
            .unwrap()
    }

    fn decode_max(view: &View<u32>) -> Option<BTreeSet<u32>> {
        view.iter()
            .flatten()
            .max()
            .map(|&v| [v].into_iter().collect())
    }

    /// Panics on inputs containing 13; behaves like nothing otherwise.
    #[derive(Debug, Clone, Copy)]
    struct Grenade;
    impl ConditionOracle<u32> for Grenade {
        fn params(&self) -> LegalityParams {
            LegalityParams::new(1, 1).unwrap()
        }
        fn matches(&self, view: &View<u32>) -> bool {
            assert!(!view.iter().flatten().any(|&v| v == 13), "oracle bug on 13");
            true
        }
        fn decode_view(&self, view: &View<u32>) -> Option<BTreeSet<u32>> {
            decode_max(view)
        }
    }

    /// Records which inputs reach it (by their largest value) and parks
    /// every thread presenting `hold` until [`Gate::release`] — forcing
    /// the worker interleavings the chunked-dispatch tests check.
    #[derive(Debug, Clone)]
    struct Gate {
        hold: u32,
        state: Arc<(Mutex<GateState>, Condvar)>,
    }

    #[derive(Debug, Default)]
    struct GateState {
        seen: BTreeSet<u32>,
        /// The thread each value was presented on.
        ran_on: BTreeMap<u32, thread::ThreadId>,
        released: bool,
    }

    impl Gate {
        fn holding(hold: u32) -> Gate {
            Gate {
                hold,
                state: Arc::default(),
            }
        }

        /// A grid of `total` one-valued inputs `1..=total` over this
        /// oracle: cell `i` presents the value `i + 1`.
        fn suite(&self, total: u32) -> ScenarioSuite<u32, Gate> {
            ScenarioSuite::new()
                .spec(ProtocolSpec::condition_based(small_config(), self.clone()))
                .inputs((1..=total).map(|v| InputVector::new(vec![v; 4])))
        }

        fn wait_until_seen(&self, value: u32) {
            let (state, changed) = &*self.state;
            let mut state = state.lock().unwrap();
            while !state.seen.contains(&value) {
                state = changed.wait(state).unwrap();
            }
        }

        fn release(&self) {
            let (state, changed) = &*self.state;
            state.lock().unwrap().released = true;
            changed.notify_all();
        }

        fn seen(&self) -> BTreeSet<u32> {
            self.state.0.lock().unwrap().seen.clone()
        }

        fn ran_on(&self) -> BTreeMap<u32, thread::ThreadId> {
            self.state.0.lock().unwrap().ran_on.clone()
        }

        /// Releases the gate from a helper thread `grace` after `value`
        /// is seen: for a run whose calling thread, a worker itself, must
        /// get there.
        fn release_once_seen(&self, value: u32, grace: Duration) -> thread::JoinHandle<()> {
            let gate = self.clone();
            thread::spawn(move || {
                gate.wait_until_seen(value);
                thread::sleep(grace);
                gate.release();
            })
        }
    }

    impl ConditionOracle<u32> for Gate {
        fn params(&self) -> LegalityParams {
            LegalityParams::new(1, 1).unwrap()
        }
        fn matches(&self, view: &View<u32>) -> bool {
            if let Some(&value) = view.iter().flatten().max() {
                let (state, changed) = &*self.state;
                let mut state = state.lock().unwrap();
                state.seen.insert(value);
                state.ran_on.insert(value, thread::current().id());
                changed.notify_all();
                while value == self.hold && !state.released {
                    state = changed.wait(state).unwrap();
                }
            }
            true
        }
        fn decode_view(&self, view: &View<u32>) -> Option<BTreeSet<u32>> {
            decode_max(view)
        }
    }

    #[test]
    fn grid_order_is_deterministic() {
        let outcome = suite().run();
        assert_eq!(outcome.len(), 3 * 2 * 2);
        assert!(outcome.all_ok());
        for (i, case) in outcome.cases().iter().enumerate() {
            assert_eq!(case.pattern_index, Some(i % 2));
            assert_eq!(case.input_index, (i / 2) % 2);
            assert_eq!(case.spec_index, i / 4);
        }
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let parallel = suite().run();
        let sequential = suite().threads(1).run();
        assert_eq!(parallel.len(), sequential.len());
        for (p, s) in parallel.cases().iter().zip(sequential.cases()) {
            let (p, s) = (p.report().unwrap(), s.report().unwrap());
            assert_eq!(p.trace(), s.trace());
            assert_eq!(p.predicted_rounds(), s.predicted_rounds());
        }
    }

    #[test]
    fn streaming_emits_run_cases_in_order() {
        let batch = suite().run();
        let mut streamed = Vec::new();
        let stats = suite().run_streaming(|case| streamed.push(case));
        assert_eq!(stats.cases, batch.len());
        assert_eq!(stats.cache_hits, 0, "no cache attached");
        assert_eq!(streamed.as_slice(), batch.cases());
    }

    #[test]
    fn stream_iterator_is_exact_size_and_lazy_when_sequential() {
        let suite = suite().threads(1);
        let mut stream = suite.stream();
        assert_eq!(stream.len(), 12);
        let first = stream.next().unwrap();
        assert_eq!((first.spec_index, first.pattern_index), (0, Some(0)));
        assert_eq!(stream.len(), 11);
        // Dropping mid-run is fine (and, sequentially, runs nothing
        // more).
        drop(stream);
    }

    #[test]
    fn dropping_a_parallel_stream_mid_run_reaps_workers() {
        let suite = suite().threads(4);
        let mut stream = suite.stream();
        let _ = stream.next().unwrap();
        drop(stream); // must not hang or leak; workers unblock on the hangup
    }

    #[test]
    fn large_grids_stream_in_order_through_the_claim_window() {
        // 200 cells over 8 workers: the 16-cell claim window throttles
        // and releases repeatedly; a window bug shows up here as a
        // deadlock (test hangs) or an order violation.
        let suite = ScenarioSuite::<u32>::new()
            .spec(ProtocolSpec::flood_set(4, 2, 1))
            .inputs((0..200u32).map(|i| InputVector::new(vec![i, 1, 2, 3])))
            .threads(8);
        let mut seen = 0;
        let stats = suite.run_streaming(|case| {
            assert_eq!(case.input_index, seen, "grid order through the window");
            seen += 1;
        });
        assert_eq!(stats.cases, 200);
    }

    #[test]
    fn blocks_tile_the_grid_and_small_grids_go_cell_by_cell() {
        for (total, workers, size) in [
            (1, 2, 1),
            (7, 2, 1),
            (8, 2, 1),
            (15, 2, 1),
            (16, 2, 2),
            (192, 2, 24),
            (200, 8, 6),
            (511, 2, 63),
            (512, 2, 64),
            (100_000, 2, 64),
        ] {
            // From the grid's first cell, and from behind a cached
            // prefix of 37: the same cut, shifted.
            for first in [0, 37] {
                let blocks = Blocks::new(first..first + total, workers);
                assert_eq!(blocks.size, size, "{total} cells over {workers} workers");
                let tiled: Vec<usize> = (0..blocks.count()).flat_map(|b| blocks.cells(b)).collect();
                assert!(
                    tiled.iter().copied().eq(first..first + total),
                    "contiguous, complete"
                );
                assert!(!blocks.cells(blocks.count() - 1).is_empty());
            }
        }
    }

    #[test]
    fn a_panic_mid_block_costs_only_its_own_cell() {
        // 32 cells over 2 workers: blocks of 4; the input of 13s is the
        // second cell of block 3.
        assert_eq!(Blocks::new(0..32, 2).size, 4);
        let outcome = ScenarioSuite::new()
            .spec(ProtocolSpec::condition_based(small_config(), Grenade))
            .inputs((0..32u32).map(|v| InputVector::new(vec![v; 4])))
            .threads(2)
            .run();
        assert_eq!(outcome.len(), 32);
        let failed: Vec<usize> = outcome.failures().map(|(c, _)| c.input_index).collect();
        assert_eq!(failed, [13], "the rest of the block ran and was emitted");
        for (i, case) in outcome.cases().iter().enumerate() {
            assert_eq!(case.input_index, i);
        }
    }

    #[test]
    fn dropping_mid_block_stops_at_the_next_cell() {
        // Blocks of 4. Whichever worker claimed block 0 is parked inside
        // its second cell (value 2) when the consumer hangs up.
        assert_eq!(Blocks::new(0..32, 2).size, 4);
        let gate = Gate::holding(2);
        let suite = gate.suite(32).threads(2);
        let stream = suite.stream();
        gate.wait_until_seen(2);
        // What `Drop` does first — done by hand so the gate can open
        // after the hang-up and before the join `Drop` blocks in.
        stream.workers().window.close();
        gate.release();
        drop(stream);
        let seen = gate.seen();
        assert!(seen.contains(&1) && seen.contains(&2));
        assert!(
            !seen.contains(&3) && !seen.contains(&4),
            "the worker finished its cell, not its block: ran {seen:?}"
        );
    }

    #[test]
    fn reorder_buffer_holds_at_most_two_blocks_per_worker() {
        // Blocks of 8, window of 4 blocks, one pool task. The pool task
        // holding block 0 is parked in the grid's first cell while the
        // calling thread runs as far ahead as the window lets it: blocks
        // 1 to 3, then the edge.
        const WORKERS: usize = 2;
        assert_eq!(Blocks::new(0..64, WORKERS).size, 8);
        let gate = Gate::holding(1);
        let suite = gate.suite(64).threads(WORKERS);
        let mut stream = suite.stream();
        // The calling thread has claimed nothing yet: the pool task holds
        // block 0.
        gate.wait_until_seen(1);
        // Once the last cell of block 3 has started, blocks 1 and 2 are
        // in the buffer, ahead of block 0. The grace gives a calling
        // thread that claimed past the window's edge the time to show it.
        let releaser = gate.release_once_seen(32, Duration::from_millis(20));
        let emitted: Vec<usize> = stream.by_ref().map(|case| case.input_index).collect();
        releaser.join().unwrap();
        assert!(emitted.iter().copied().eq(0..64), "grid order");
        let high_water = stream.workers().pending_high_water;
        assert!(
            (2..=2 * WORKERS).contains(&high_water),
            "buffered up to {high_water} blocks"
        );
        assert!(stream.workers().pending.is_empty(), "all of it emitted");
    }

    #[test]
    fn the_calling_thread_carries_the_run() {
        // Blocks of 8, window of 4 blocks, one pool task. Whichever
        // thread presents cell 0 parks there, and the other runs blocks 1
        // to 3 up to the window's edge, so the gate opens once cell 31
        // has started: the calling thread ran cell 0 or blocks 1 to 3.
        const WORKERS: usize = 2;
        assert_eq!(Blocks::new(0..64, WORKERS).size, 8);
        let gate = Gate::holding(1);
        let releaser = gate.release_once_seen(32, Duration::ZERO);
        let parallel = gate.suite(64).threads(WORKERS).run();
        releaser.join().unwrap();
        let ran_on = gate.ran_on();
        assert_eq!(ran_on.len(), 64);
        assert!(
            ran_on.values().any(|&id| id == thread::current().id()),
            "the calling thread ran at least one cell"
        );
        assert_eq!(parallel.cases(), gate.suite(64).threads(1).run().cases());
    }

    #[test]
    fn pattern_less_suites_run_failure_free() {
        let outcome = ScenarioSuite::<u32>::new()
            .spec(ProtocolSpec::flood_set(4, 2, 1))
            .input(vec![3u32, 9, 1, 4])
            .run();
        assert_eq!(outcome.len(), 1);
        assert_eq!(outcome.cases()[0].pattern_index, None);
        assert!(outcome.all_ok());
        assert_eq!(outcome.worst_decision_round(), Some(3));
    }

    #[test]
    fn failures_are_positioned_not_panicked() {
        let outcome = ScenarioSuite::<u32>::new()
            .spec(ProtocolSpec::flood_set(4, 2, 1))
            .input(vec![3u32, 9, 1]) // wrong arity
            .run();
        assert_eq!(outcome.failures().count(), 1);
        assert!(!outcome.all_satisfy_properties());
        let (case, err) = outcome.failures().next().unwrap();
        assert_eq!(case.spec_index, 0);
        assert_eq!(
            *err,
            ExperimentError::InputSizeMismatch {
                expected: 4,
                got: 3
            }
        );
    }

    #[test]
    fn empty_grids_are_not_ok() {
        let outcome = ScenarioSuite::<u32>::new()
            .spec(ProtocolSpec::flood_set(4, 2, 1))
            .pattern(FailurePattern::none(4))
            .run(); // no inputs: zero cases
        assert!(outcome.is_empty());
        assert!(
            !outcome.all_ok(),
            "a suite that ran nothing must not read as a pass"
        );
        assert!(!outcome.all_satisfy_properties());
        assert!(!outcome.all_within_bounds());
    }

    #[test]
    fn panicking_case_costs_its_cell_not_the_grid() {
        let outcome = ScenarioSuite::new()
            .spec(ProtocolSpec::condition_based(small_config(), Grenade))
            .input(vec![5u32, 5, 5, 5])
            .input(vec![13u32, 13, 13, 13]) // detonates
            .run();
        assert_eq!(outcome.len(), 2);
        assert!(
            outcome.cases()[0].report().is_some(),
            "healthy cell survives"
        );
        let (case, err) = outcome.failures().next().unwrap();
        assert_eq!(case.input_index, 1);
        assert!(
            matches!(err, ExperimentError::Internal { message } if message.contains("panicked"))
        );
        assert!(!outcome.all_ok());
    }

    #[test]
    fn threaded_executor_works_in_batch() {
        let outcome = ScenarioSuite::<u32>::new()
            .spec(ProtocolSpec::flood_set(4, 2, 1))
            .input(vec![3u32, 9, 1, 4])
            .executor(Executor::Threaded)
            .run();
        assert!(outcome.all_ok());
        let case = &outcome.cases()[0];
        assert_eq!(case.executor_index, Some(0));
        assert_eq!(case.report().unwrap().executor(), Executor::Threaded);
    }

    #[test]
    fn grids_mix_synchronous_and_asynchronous_executors() {
        // One condition-based spec, four executors: the same scenario in
        // the synchronous model (simulator and real threads) and in the
        // asynchronous model (shared memory and message passing, where
        // the condition solves ℓ-set agreement with x = t − d).
        let cfg = config();
        let outcome = ScenarioSuite::new()
            .spec(ProtocolSpec::condition_based(
                cfg,
                MaxCondition::new(cfg.legality()),
            ))
            .input(vec![5u32, 5, 1, 2, 5, 5])
            .executors([
                Executor::Simulator,
                Executor::Threaded,
                Executor::AsyncSharedMemory { seed: 9 },
                Executor::AsyncMessagePassing { seed: 9 },
            ])
            .run();
        assert_eq!(outcome.len(), 4);
        assert!(outcome.all_ok(), "every model satisfies its guarantees");
        for (i, case) in outcome.cases().iter().enumerate() {
            assert_eq!(case.executor_index, Some(i), "executor varies slowest");
        }
        let reports: Vec<_> = outcome.reports().collect();
        assert_eq!(reports[0].executor(), Executor::Simulator);
        assert_eq!(
            reports[2].executor(),
            Executor::AsyncSharedMemory { seed: 9 }
        );
        // Sync cells carry traces, async cells carry step reports.
        assert!(reports[1].trace().is_some() && reports[1].async_report().is_none());
        assert!(reports[3].trace().is_none() && reports[3].async_report().is_some());
        // The sync cells check k = 2, the async cells ℓ = 1.
        assert_eq!(reports[0].k(), 2);
        assert_eq!(reports[2].k(), 1);
    }

    #[test]
    fn executor_dimension_sweeps_adversary_seeds() {
        // The async executors carry their seed, so a grid over executors
        // is a grid over schedules — every cell must uphold agreement.
        let params = setagree_conditions::LegalityParams::new(2, 2).unwrap();
        let outcome = ScenarioSuite::new()
            .spec(ProtocolSpec::async_set_agreement(
                5,
                params,
                MaxCondition::new(params),
            ))
            .input(vec![9u32, 9, 8, 8, 1])
            .executors((0..8).map(|seed| Executor::AsyncSharedMemory { seed }))
            .run();
        assert_eq!(outcome.len(), 8);
        assert!(outcome.all_ok(), "ℓ-set agreement on every schedule");
    }

    #[test]
    fn incompatible_cells_fail_positioned_not_panicked() {
        // A flood-set spec cannot run on an async executor: that cell
        // becomes a positioned UnsupportedProtocol, the rest survive.
        // (Explicit cases() are the way to avoid such cells entirely.)
        let outcome = ScenarioSuite::<u32>::new()
            .spec(ProtocolSpec::flood_set(4, 2, 1))
            .input(vec![3u32, 9, 1, 4])
            .executors([Executor::Simulator, Executor::AsyncSharedMemory { seed: 1 }])
            .run();
        assert_eq!(outcome.len(), 2);
        assert!(outcome.cases()[0].report().is_some());
        let (case, err) = outcome.failures().next().unwrap();
        assert_eq!(case.executor_index, Some(1));
        assert!(matches!(err, ExperimentError::UnsupportedProtocol { .. }));
        assert!(!outcome.all_ok());
    }

    #[test]
    fn explicit_cases_express_heterogeneous_sweeps_without_error_cells() {
        // The same pairing as the previous test, minus the deliberate
        // error cell: flood-set on the simulator, the async spec on the
        // async executors.
        let params = setagree_conditions::LegalityParams::new(1, 1).unwrap();
        let async_spec = Arc::new(ProtocolSpec::async_set_agreement(
            4,
            params,
            MaxCondition::new(params),
        ));
        let async_input: Arc<InputVector<u32>> = Arc::new(vec![7u32, 7, 7, 2].into());
        let outcome = ScenarioSuite::new()
            .case((
                ProtocolSpec::flood_set(4, 2, 1),
                vec![3u32, 9, 1, 4],
                Executor::Simulator,
            ))
            .cases((0..3).map(|seed| {
                CaseSpec::shared(
                    Arc::clone(&async_spec),
                    Arc::clone(&async_input),
                    Executor::AsyncSharedMemory { seed },
                )
            }))
            .run();
        assert_eq!(outcome.len(), 4);
        assert!(outcome.all_ok(), "no manufactured UnsupportedProtocol");
        // Shared components are interned once: all async cases point at
        // the same spec/input indices, distinct executors.
        assert_eq!(outcome.cases()[1].spec_index, 1);
        assert_eq!(outcome.cases()[2].spec_index, 1);
        assert_eq!(outcome.cases()[1].input_index, 1);
        assert_ne!(
            outcome.cases()[1].executor_index,
            outcome.cases()[2].executor_index
        );
    }

    #[test]
    fn explicit_cases_coexist_with_a_grid() {
        let outcome = ScenarioSuite::<u32>::new()
            .spec(ProtocolSpec::flood_set(4, 2, 1))
            .input(vec![3u32, 9, 1, 4])
            .pattern(FailurePattern::none(4))
            .case((
                ProtocolSpec::early_deciding(4, 2, 1),
                vec![5u32, 5, 5, 5],
                FailurePattern::staircase(4, 2, 1),
                Executor::Simulator,
            ))
            .run();
        // 1 grid cell first, then the explicit case.
        assert_eq!(outcome.len(), 2);
        assert!(outcome.all_ok());
        assert_eq!(outcome.cases()[0].spec_index, 0);
        let explicit = &outcome.cases()[1];
        assert_eq!(explicit.spec_index, 1);
        assert_eq!(explicit.input_index, 1);
        assert_eq!(explicit.pattern_index, Some(1));
        assert_eq!(explicit.report().unwrap().executor(), Executor::Simulator);
    }

    #[test]
    fn find_locates_cases_by_coordinates() {
        let outcome = suite().executor(Executor::Simulator).run();
        let case = outcome.find(2, 1, Some(0), Some(0)).expect("present");
        assert_eq!(case.spec_index, 2);
        assert_eq!(case.input_index, 1);
        assert_eq!(case.pattern_index, Some(0));
        assert!(outcome.find(7, 0, None, None).is_none());
    }

    #[test]
    fn cached_suites_serve_warm_cells_without_reexecution() {
        let cache = Arc::new(SuiteCache::new());
        let cfg = config();
        let build = || {
            ScenarioSuite::new()
                .spec(ProtocolSpec::condition_based(
                    cfg,
                    MaxCondition::new(cfg.legality()),
                ))
                .input(vec![5u32, 5, 1, 2, 5, 5])
                .executors([Executor::Simulator, Executor::AsyncSharedMemory { seed: 9 }])
                .cache(&cache)
        };
        let cold = build().run();
        assert_eq!((cold.cache_hits(), cold.cache_misses()), (0, 2));
        let warm = build().run();
        assert_eq!(
            (warm.cache_hits(), warm.cache_misses()),
            (2, 0),
            "every cell served warm: zero executions"
        );
        assert_eq!(cold.cases(), warm.cases(), "identical report");
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn cache_keys_distinguish_coordinates() {
        // Same spec/input, different seed → different cells, both cold.
        let cache = Arc::new(SuiteCache::new());
        let params = setagree_conditions::LegalityParams::new(1, 1).unwrap();
        let run = |seed| {
            ScenarioSuite::new()
                .spec(ProtocolSpec::async_set_agreement(
                    4,
                    params,
                    MaxCondition::new(params),
                ))
                .input(vec![7u32, 7, 7, 2])
                .executor(Executor::AsyncSharedMemory { seed })
                .cache(&cache)
                .run()
        };
        assert_eq!(run(1).cache_misses(), 1);
        assert_eq!(run(2).cache_misses(), 1, "seed is part of the key");
        assert_eq!(run(1).cache_hits(), 1, "seed 1 is warm now");
        // A changed round limit must also miss.
        let limited = ScenarioSuite::<u32>::new()
            .spec(ProtocolSpec::flood_set(4, 2, 1))
            .input(vec![3u32, 9, 1, 4])
            .cache(&cache)
            .round_limit(9)
            .run();
        assert_eq!(limited.cache_misses(), 1);
    }

    fn forty_cells() -> ScenarioSuite<u32> {
        ScenarioSuite::new()
            .spec(ProtocolSpec::flood_set(4, 2, 1))
            .inputs((0..40u32).map(|i| InputVector::new(vec![i, 1, 2, 3])))
    }

    /// The 40-cell grid at three workers, bound to a cache that holds
    /// exactly its first `warm` cells: an inline run is lazy, so taking
    /// `warm` cases of it executes — and caches — those and no others.
    fn prefilled(warm: usize) -> (ScenarioSuite<u32>, Arc<SuiteCache<u32>>) {
        let cache = Arc::new(SuiteCache::new());
        let fill = forty_cells().threads(1).cache(&cache);
        assert_eq!(fill.stream().take(warm).count(), warm);
        assert_eq!(cache.len(), warm);
        (forty_cells().threads(3).cache(&cache), cache)
    }

    #[test]
    fn an_all_hit_parallel_run_never_starts_the_pool() {
        let (suite, cache) = prefilled(40);
        let mut run = suite.stream();
        let emitted: Vec<usize> = run.by_ref().map(|case| case.input_index).collect();
        assert!(emitted.iter().copied().eq(0..40), "grid order");
        assert!(
            matches!(run.source, RunSource::CachedPrefix { .. }),
            "served to the end from the consuming thread"
        );
        assert_eq!((run.cache_hits(), run.cache_misses()), (40, 0));
        assert_eq!((cache.hits(), cache.misses()), (40, 40), "the fill missed");
    }

    #[test]
    fn the_pool_starts_at_the_first_cell_the_cache_does_not_hold() {
        let (suite, cache) = prefilled(10);
        let mut run = suite.stream();
        for expected in 0..10 {
            assert_eq!(run.next().unwrap().input_index, expected);
        }
        assert!(matches!(run.source, RunSource::CachedPrefix { .. }));
        assert_eq!(
            (cache.hits(), cache.misses()),
            (10, 10),
            "ten hits, and nothing looked up to be executed since the fill"
        );
        assert_eq!(run.next().unwrap().input_index, 10);
        // 30 cells left for 3 workers: blocks of 2 from cell 10 on, run
        // by the calling thread and two pool tasks.
        assert_eq!(run.workers().handles.len(), 2);
        assert!(run.by_ref().map(|case| case.input_index).eq(11..40));
        assert_eq!(run.workers().next_block, 15);
        assert_eq!((run.cache_hits(), run.cache_misses()), (10, 30));
        assert_eq!((cache.hits(), cache.misses()), (10, 40));
        assert_eq!(cache.len(), 40);
    }

    #[test]
    fn a_run_whose_first_cell_is_cold_starts_the_pool_in_stream() {
        let (suite, cache) = prefilled(0);
        let run = suite.stream();
        assert!(matches!(run.source, RunSource::Workers(_)));
        assert_eq!(run.count(), 40);
        assert_eq!((cache.hits(), cache.misses()), (0, 40), "one miss a cell");

        let uncached = forty_cells().threads(3);
        assert!(matches!(uncached.stream().source, RunSource::Workers(_)));
    }

    /// The durable key derivation, pinned end to end — the mixer, the
    /// `Hash` impls of every component, the order `combine` folds them
    /// in, the format version: a change of any of them must fail here
    /// (and bump `FORMAT_VERSION`) rather than silently turn every
    /// persisted cache cold.
    #[test]
    fn the_cache_key_of_a_fixed_cell_is_pinned() {
        let suite = ScenarioSuite::<u32>::new()
            .spec(ProtocolSpec::flood_set(4, 2, 1))
            .input(vec![3u32, 9, 1, 4])
            .pattern(FailurePattern::staircase(4, 2, 1))
            .executor(Executor::AsyncSharedMemory { seed: 9 })
            .round_limit(7)
            .cache(&Arc::new(SuiteCache::new()));
        let plan = suite.plan();
        let key = plan.cache.as_ref().unwrap().key(plan.coords(0));
        assert_eq!(key.to_string(), "417d3cfddc201879c69994e4749e4812");
    }

    #[test]
    fn cached_errors_replay_without_revalidation() {
        let cache = Arc::new(SuiteCache::new());
        let build = || {
            ScenarioSuite::<u32>::new()
                .spec(ProtocolSpec::flood_set(4, 2, 1))
                .input(vec![3u32, 9, 1]) // wrong arity: a deterministic error
                .cache(&cache)
        };
        let cold = build().run();
        let warm = build().run();
        assert_eq!(warm.cache_hits(), 1);
        assert_eq!(cold.cases(), warm.cases());
        assert!(matches!(
            warm.failures().next().unwrap().1,
            ExperimentError::InputSizeMismatch { .. }
        ));
    }
}
