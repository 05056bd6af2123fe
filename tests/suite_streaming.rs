//! The streaming suite engine's contract, property-tested:
//!
//! * **Streaming ≡ batch**: for any grid (mixed sync/async executors,
//!   proptest-generated inputs and failure patterns), `stream()` /
//!   `run_streaming` emit *exactly* `run()`'s cases, in grid order —
//!   the reorder buffer over the worker pool never reorders, drops or
//!   duplicates a cell.
//! * **Block boundaries are invisible**: parallel runs dispatch the grid
//!   in contiguous blocks; totals one short of, exactly at and one past
//!   a whole number of blocks — and grids too small to be cut at all —
//!   stream exactly `run()`'s cases, which are exactly the one-worker
//!   run's.
//! * **Warm caches execute nothing**: a rerun of a full mixed
//!   synchronous/asynchronous grid against the cache its cold run
//!   filled serves every cell warm (hit counter = grid size, miss
//!   counter = 0) and reproduces a byte-identical report — including
//!   through a save/load roundtrip of the persisted cache file.
//! * **A cached prefix is invisible**: a parallel cache-bound run serves
//!   the cells ahead of its first miss from the consuming thread and
//!   starts its pool at that miss. Whatever part of the grid the cache
//!   holds — any prefix of grid order, or hits and misses interleaved —
//!   the cases are the uncached one-worker run's, in order, and the
//!   run's and the cache's counters say exactly which cells were served
//!   and which executed; dropping the run on either side of the
//!   hand-over hangs nothing.
//! * **Explicit cases** (`cases(...)`) pair specs with exactly the
//!   executors that can run them, and `SuiteReport::find` looks cells
//!   up by coordinates instead of hand-computed flat indices.

use std::sync::Arc;

use proptest::prelude::*;

use setagree::codec::JournalWriter;
use setagree::conditions::{LegalityParams, MaxCondition};
use setagree::core::{
    CaseSpec, ConditionBasedConfig, Executor, ProtocolSpec, ScenarioSuite, SuiteCache,
};
use setagree::sync::{CrashSpec, FailurePattern};
use setagree::types::{InputVector, ProcessId};

const N: usize = 6;

fn pattern_strategy() -> impl Strategy<Value = FailurePattern> {
    proptest::collection::vec((0usize..N, 1usize..=3, 0usize..=N), 0..=2).prop_map(|crashes| {
        let mut pattern = FailurePattern::none(N);
        let mut victims = std::collections::BTreeSet::new();
        for (idx, round, prefix) in crashes {
            if victims.len() >= 2 || !victims.insert(idx) {
                continue;
            }
            pattern
                .crash(ProcessId::new(idx), CrashSpec::new(round, prefix))
                .expect("valid");
        }
        pattern
    })
}

/// A mixed grid over the (6, 3, 2, 2, 1) system: a condition-based spec
/// (runs on all four executor kinds) and two round-based baselines,
/// under generated inputs and patterns.
fn mixed_suite(
    entries: &[Vec<u32>],
    patterns: &[FailurePattern],
    executors: &[Executor],
) -> ScenarioSuite<u32, MaxCondition> {
    let config = ConditionBasedConfig::builder(N, 3, 2)
        .condition_degree(2)
        .ell(1)
        .build()
        .expect("valid");
    let mut suite = ScenarioSuite::new()
        .spec(ProtocolSpec::condition_based(
            config,
            MaxCondition::new(config.legality()),
        ))
        .spec(ProtocolSpec::flood_set(N, 3, 2))
        .inputs(entries.iter().map(|e| InputVector::new(e.clone())))
        .patterns(patterns.iter().cloned().map(Into::into));
    for &executor in executors {
        suite = suite.executor(executor);
    }
    suite
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline streaming property: whatever the grid and however
    /// the worker pool schedules it, the streamed cases are exactly the
    /// batch cases, in the batch order.
    #[test]
    fn streaming_emits_exactly_the_batch_cases_in_grid_order(
        entries in proptest::collection::vec(proptest::collection::vec(1u32..=9, N), 1..=3),
        patterns in proptest::collection::vec(pattern_strategy(), 0..=2),
        seed in 0u64..1000,
    ) {
        // Executors mix both models; crashing sync patterns on async
        // executors produce positioned errors, which must stream
        // identically too.
        let executors = [
            Executor::Simulator,
            Executor::AsyncSharedMemory { seed },
        ];
        let suite = mixed_suite(&entries, &patterns, &executors);
        let batch = suite.run();
        prop_assert_eq!(batch.len(), 2 * entries.len() * patterns.len().max(1) * 2);

        let mut streamed = Vec::new();
        let stats = suite.run_streaming(|case| streamed.push(case));
        prop_assert_eq!(stats.cases, batch.len());
        prop_assert_eq!(streamed.as_slice(), batch.cases());

        // The explicit iterator agrees as well (and is exact-size).
        let mut run = suite.stream();
        prop_assert_eq!(run.len(), batch.len());
        let iterated: Vec<_> = run.by_ref().collect();
        prop_assert_eq!(iterated.as_slice(), batch.cases());
    }

    /// A warm cache serves the whole grid without executing anything:
    /// the hit counter equals the grid size and the report is
    /// byte-identical to the cold one.
    #[test]
    fn warm_cache_reruns_are_identical_with_zero_executions(
        entries in proptest::collection::vec(proptest::collection::vec(1u32..=9, N), 1..=2),
        patterns in proptest::collection::vec(pattern_strategy(), 0..=1),
        seed in 0u64..1000,
    ) {
        let executors = [
            Executor::Simulator,
            Executor::Threaded,
            Executor::AsyncSharedMemory { seed },
            Executor::AsyncMessagePassing { seed },
        ];
        let cache = Arc::new(SuiteCache::new());
        let cold = mixed_suite(&entries, &patterns, &executors).cache(&cache).run();
        prop_assert_eq!(cold.cache_hits(), 0);
        prop_assert_eq!(cold.cache_misses() as usize, cold.len());

        let warm = mixed_suite(&entries, &patterns, &executors).cache(&cache).run();
        prop_assert_eq!(warm.cache_hits() as usize, warm.len(), "zero executions");
        prop_assert_eq!(warm.cache_misses(), 0);
        prop_assert_eq!(
            format!("{:?}", warm.cases()).into_bytes(),
            format!("{:?}", cold.cases()).into_bytes(),
            "byte-identical report"
        );
    }
}

/// Parallel runs cut the grid into blocks of `total / (4 × workers)`
/// cells (at least 1, at most 64). At two workers that is `total / 8`,
/// so 5 and 8 are dispatched cell by cell, 63 = 9 × 7 and 64 = 8 × 8
/// end on a block boundary, 65 and 71 leave a last block of 1 and of 7,
/// and 511 / 512 / 513 straddle the 64-cell cap (blocks of 63 with a
/// last one of 7; eight full blocks; eight full blocks and one cell).
/// Three and four workers (the calling thread and two or three pool
/// tasks) cut the same totals at other boundaries.
#[test]
fn totals_straddling_block_boundaries_stream_in_grid_order() {
    for total in [5usize, 8, 63, 64, 65, 71, 511, 512, 513] {
        let grid = |threads| {
            ScenarioSuite::<u32>::new()
                .spec(ProtocolSpec::flood_set(4, 2, 1))
                .inputs((0..total as u32).map(|i| InputVector::new(vec![i, i / 3, 2, 7])))
                .threads(threads)
        };
        let serial = grid(1).run();
        for threads in 2..=4 {
            let suite = grid(threads);
            let batch = suite.run();
            assert_eq!(batch.len(), total);
            assert_eq!(
                batch.cases(),
                serial.cases(),
                "{total} cells at {threads} workers: run() ≡ serial"
            );

            let mut run = suite.stream();
            assert_eq!(run.len(), total);
            let streamed: Vec<_> = run.by_ref().collect();
            assert_eq!(run.len(), 0, "exact-size to the end");
            assert_eq!(
                streamed.as_slice(),
                batch.cases(),
                "{total} cells at {threads} workers: stream ≡ run()"
            );
            for (i, case) in streamed.iter().enumerate() {
                assert_eq!(case.input_index, i);
            }
        }
    }
}

/// The 48-cell grid of the cached-prefix tests: both models, crashing
/// patterns (positioned errors on the async executor — cached like any
/// result), six distinct inputs.
fn prefix_grid(entries: &[Vec<u32>]) -> ScenarioSuite<u32, MaxCondition> {
    let patterns = [FailurePattern::none(N), FailurePattern::staircase(N, 3, 2)];
    let executors = [Executor::Simulator, Executor::AsyncSharedMemory { seed: 5 }];
    mixed_suite(entries, &patterns, &executors)
}

fn prefix_entries() -> Vec<Vec<u32>> {
    (0..6u32).map(|i| vec![5, 5, 1 + i, 2, 5, 9 - i]).collect()
}

/// A cache holding exactly the first `warm` cells of `prefix_grid` in
/// grid order: a one-worker run is lazy, so taking `warm` cases of it
/// executes — and caches — those and no others.
fn cache_of_first(warm: usize) -> Arc<SuiteCache<u32>> {
    let cache = Arc::new(SuiteCache::new());
    let filled = prefix_grid(&prefix_entries())
        .threads(1)
        .cache(&cache)
        .stream()
        .take(warm)
        .count();
    assert_eq!((filled, cache.len()), (warm, warm));
    cache
}

#[test]
fn every_cached_prefix_merges_into_the_serial_run() {
    let serial = prefix_grid(&prefix_entries()).threads(1).run();
    let len = serial.len();
    assert_eq!(len, 2 * 6 * 2 * 2);
    for warm in 0..=len {
        let cache = cache_of_first(warm);
        let (hits, misses) = (cache.hits(), cache.misses());
        let run = prefix_grid(&prefix_entries())
            .threads(3)
            .cache(&cache)
            .run();
        assert_eq!(run.cases(), serial.cases(), "{warm} cells warm");
        assert_eq!(
            (run.cache_hits(), run.cache_misses()),
            (warm as u64, (len - warm) as u64),
            "{warm} cells warm: the run's counters"
        );
        assert_eq!(
            (cache.hits() - hits, cache.misses() - misses),
            (warm as u64, (len - warm) as u64),
            "{warm} cells warm: the cache's lifetime counters"
        );
        assert_eq!(cache.len(), len, "every miss was executed and cached");
    }
}

#[test]
fn interleaved_hits_and_misses_merge_into_the_serial_run() {
    let entries = prefix_entries();
    let serial = prefix_grid(&entries).threads(1).run();
    // Inputs 0, 2 and 4 warm: in grid order (pattern fastest, then
    // input) two hits, two misses, two hits, … — a two-cell prefix, then
    // hits that the workers find.
    let warm_entries: Vec<Vec<u32>> = entries.iter().step_by(2).cloned().collect();
    let cache = Arc::new(SuiteCache::new());
    let fill = prefix_grid(&warm_entries).cache(&cache).run();
    assert_eq!(fill.cache_misses() as usize, serial.len() / 2);

    let run = prefix_grid(&entries).threads(3).cache(&cache).run();
    assert_eq!(run.cases(), serial.cases());
    let half = (serial.len() / 2) as u64;
    assert_eq!((run.cache_hits(), run.cache_misses()), (half, half));
    assert_eq!((cache.hits(), cache.misses()), (half, 2 * half));
    for (i, case) in run.cases().iter().enumerate() {
        assert_eq!(case.input_index, (i / 2) % 6, "grid order");
    }
}

#[test]
fn dropping_a_run_on_either_side_of_the_hand_over_hangs_nothing() {
    let serial = prefix_grid(&prefix_entries()).threads(1).run();
    let cache = cache_of_first(10);
    let suite = prefix_grid(&prefix_entries()).threads(3).cache(&cache);

    // Mid-prefix: nothing was ever handed to a worker, so nothing was
    // looked up to be executed.
    let mut run = suite.stream();
    assert_eq!(run.by_ref().take(5).count(), 5);
    assert_eq!(run.len(), serial.len() - 5);
    drop(run);
    assert_eq!(
        (cache.len(), cache.misses()),
        (10, 10),
        "only the fill missed"
    );

    // Just after the hand-over: the eleventh case comes from the pool,
    // which the drop stops and reaps.
    let mut run = suite.stream();
    let emitted: Vec<_> = run.by_ref().take(11).collect();
    assert_eq!(emitted.as_slice(), &serial.cases()[..11]);
    assert_eq!(run.cache_hits(), 10);
    drop(run);

    // The pool is as usable as before, and whatever the stopped run got
    // done is simply warm now.
    let rerun = suite.run();
    assert_eq!(rerun.cases(), serial.cases());
    assert_eq!(
        rerun.cache_hits() + rerun.cache_misses(),
        serial.len() as u64
    );
    assert!(rerun.cache_hits() >= 11);
}

/// The acceptance shape spelled out: one full mixed sync/async grid,
/// cold run persisted to a file, warm run from the *reloaded* file —
/// still zero executions, still byte-identical, across the process
/// boundary the file represents.
#[test]
fn persisted_cache_roundtrip_serves_a_mixed_grid_warm() {
    let entries = vec![vec![5u32, 5, 1, 2, 5, 5], vec![9u32, 9, 9, 1, 2, 3]];
    let patterns = vec![FailurePattern::none(N), FailurePattern::staircase(N, 3, 2)];
    let executors = [
        Executor::Simulator,
        Executor::Threaded,
        Executor::AsyncSharedMemory { seed: 11 },
        Executor::AsyncMessagePassing { seed: 11 },
    ];
    let path = std::env::temp_dir().join("setagree-suite-streaming-roundtrip");
    let _ = std::fs::remove_file(&path);

    let cache = Arc::new(SuiteCache::new());
    let cold = mixed_suite(&entries, &patterns, &executors)
        .cache(&cache)
        .run();
    assert_eq!(cold.len(), 2 * 2 * 2 * 4);
    assert_eq!(cold.cache_misses() as usize, cold.len());
    cache.save(&path).expect("cache saves");

    let reloaded = Arc::new(SuiteCache::load_or_empty(&path).expect("cache loads"));
    assert_eq!(reloaded.len(), cold.len());
    let warm = mixed_suite(&entries, &patterns, &executors)
        .cache(&reloaded)
        .run();
    assert_eq!(
        warm.cache_hits() as usize,
        warm.len(),
        "cache-hit counter equals grid size: zero protocol executions"
    );
    assert_eq!(warm.cache_misses(), 0);
    assert_eq!(
        format!("{:?}", warm.cases()),
        format!("{:?}", cold.cases()),
        "byte-identical report through the file"
    );
    std::fs::remove_file(&path).expect("cleanup");
}

/// A cache file left behind by an older format version — a journal
/// whose header names another version — reloads as a *cold* cache, never
/// an error and never misread cells; one cold rerun then re-fills it,
/// and the re-saved file serves the full mixed grid warm with zero
/// misses.
#[test]
fn stale_version_cache_files_reload_cold_then_refill_and_serve_warm() {
    let entries = vec![vec![5u32, 5, 1, 2, 5, 5]];
    let patterns = vec![FailurePattern::none(N)];
    let executors = [
        Executor::Simulator,
        Executor::AsyncSharedMemory { seed: 3 },
        Executor::AsyncMessagePassing { seed: 3 },
    ];
    let path = std::env::temp_dir().join("setagree-suite-streaming-stale");

    // A version-2 journal (the retired byte-wise chain) under the same
    // path.
    let v2 = JournalWriter::create(Vec::new(), 2)
        .expect("in-memory header")
        .into_inner();
    std::fs::write(&path, v2).expect("write stale");
    let stale: SuiteCache<u32> = SuiteCache::load_or_empty(&path).expect("stale is not an error");
    assert!(stale.is_empty(), "a stale format is a cold cache");

    let stale = Arc::new(stale);
    let cold = mixed_suite(&entries, &patterns, &executors)
        .cache(&stale)
        .run();
    assert_eq!(
        cold.cache_misses() as usize,
        cold.len(),
        "every cell re-executes from the stale file"
    );
    stale.save(&path).expect("re-save over the stale file");

    let reloaded: Arc<SuiteCache<u32>> =
        Arc::new(SuiteCache::load_or_empty(&path).expect("current-version file loads"));
    assert_eq!(reloaded.len(), cold.len(), "full reports round-tripped");
    let warm = mixed_suite(&entries, &patterns, &executors)
        .cache(&reloaded)
        .run();
    assert_eq!(warm.cache_hits() as usize, warm.len(), "hits == grid size");
    assert_eq!(warm.cache_misses(), 0, "zero misses on the warm rerun");
    assert_eq!(
        format!("{:?}", warm.cases()),
        format!("{:?}", cold.cases()),
        "byte-identical report through the refilled file"
    );
    std::fs::remove_file(&path).expect("cleanup");
}

/// Explicit cases express a heterogeneous sweep — round-based specs on
/// synchronous executors next to an async seed sweep — with no
/// manufactured `UnsupportedProtocol` cells, and `find` locates cells
/// by their coordinates.
#[test]
fn explicit_cases_and_find_cover_heterogeneous_sweeps() {
    let params = LegalityParams::new(1, 1).expect("valid");
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
        .case((
            ProtocolSpec::flood_set(4, 2, 1),
            vec![3u32, 9, 1, 4],
            FailurePattern::staircase(4, 2, 1),
            Executor::Threaded,
        ))
        .cases((0..5).map(|seed| {
            CaseSpec::shared(
                Arc::clone(&async_spec),
                Arc::clone(&async_input),
                Executor::AsyncSharedMemory { seed },
            )
        }))
        .run();

    assert_eq!(outcome.len(), 7);
    assert!(outcome.all_ok(), "no deliberate error cells anywhere");

    // find() instead of flat-index arithmetic: the two owned flood-set
    // cases intern fresh components (indices 0 and 1), so the shared
    // async sweep sits at spec/input index 2 with executors 2..7 as
    // the seeds.
    for executor in 2..7 {
        let case = outcome
            .find(2, 2, None, Some(executor))
            .expect("async cell present");
        assert_eq!(
            case.report().expect("ran").executor(),
            Executor::AsyncSharedMemory {
                seed: (executor - 2) as u64
            }
        );
    }
    assert!(outcome.find(0, 0, None, Some(99)).is_none());
}
