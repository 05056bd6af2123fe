//! Regenerates the **early-decision claim** of Section 8: k-set agreement
//! can decide in `min(⌊f/k⌋ + 2, ⌊t/k⌋ + 1)` rounds where `f` is the
//! number of *actual* crashes — the adaptive bound of \[12\] the paper's
//! extension targets. Sweeps `f` and compares the early-deciding protocol
//! against the fixed flood-set baseline, one [`ScenarioSuite`] per `f`.
//!
//! Set `SETAGREE_SUITE_CACHE` and/or `SETAGREE_SUITE_JOURNAL` to
//! persist cells across invocations — a warm rerun prints the same
//! table without re-executing a protocol, and a killed sweep resumes
//! from the journal's verified prefix (see [`SuiteStore`]).
//!
//! ```text
//! cargo run -p setagree-bench --bin table_early
//! ```

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use setagree_core::{ProtocolKind, ProtocolSpec, ScenarioSuite, SuiteCache, SuiteRunStats};
use setagree_sync::{bounds, CrashSpec, FailurePattern};
use setagree_types::{InputVector, ProcessId};

use setagree_bench::{MetricsDump, SuiteStore, Table};

fn with_cache(
    suite: ScenarioSuite<u32>,
    cache: &Option<Arc<SuiteCache<u32>>>,
) -> ScenarioSuite<u32> {
    match cache {
        Some(cache) => suite.cache(cache),
        None => suite,
    }
}

fn main() {
    let _metrics = MetricsDump::from_env();
    let n = 12;
    let t = 8;
    let k = 2;
    let store: Option<SuiteStore<u32>> = SuiteStore::from_env();
    let cache = store.as_ref().map(|s| Arc::clone(s.cache()));
    let mut run_totals = SuiteRunStats::default();
    let mut table = Table::new(vec![
        "f",
        "bound min(⌊f/k⌋+2, ⌊t/k⌋+1)",
        "early worst",
        "floodset",
        "ok",
    ]);
    let mut all_ok = true;

    for f in 0..=t {
        let bound = bounds::early_deciding(f, t, k);

        // Early-deciding and flood-set, over shuffled inputs × exactly-f
        // adversaries — including the adaptive worst case: k silent
        // crashes per round keep the early rule from firing as long as
        // crashes last.
        let outcome = with_cache(ScenarioSuite::new(), &cache)
            .spec(ProtocolSpec::early_deciding(n, t, k))
            .spec(ProtocolSpec::flood_set(n, t, k))
            .inputs((0..10).map(|seed| shuffled_input(n, seed)))
            .patterns((0..10u64).map(|seed| crash_f(n, f, seed).into()))
            .pattern(silent_staircase(n, f, k))
            .run();
        assert!(outcome.all_satisfy_properties(), "properties at f = {f}");
        run_totals.cases += outcome.len();
        run_totals.cache_hits += outcome.cache_hits();
        run_totals.cache_misses += outcome.cache_misses();

        let mut early_worst = 0;
        let mut floodset_worst = 0;
        for report in outcome.reports() {
            let rounds = report.decision_round().unwrap_or(0);
            match report.protocol() {
                ProtocolKind::EarlyDeciding => early_worst = early_worst.max(rounds),
                _ => floodset_worst = floodset_worst.max(rounds),
            }
        }

        let ok = early_worst <= bound;
        all_ok &= ok;
        table.row(vec![
            f.to_string(),
            bound.to_string(),
            early_worst.to_string(),
            floodset_worst.to_string(),
            if ok { "ok".into() } else { "FAIL".into() },
        ]);
    }

    println!("Early decision: rounds vs actual crashes f (n = {n}, t = {t}, k = {k})");
    println!();
    println!("{table}");
    println!(
        "shape: early-deciding tracks ⌊f/k⌋+2 while the baseline stays at ⌊t/k⌋+1 = {} — {}",
        bounds::classical(t, k),
        if all_ok { "VERIFIED" } else { "FAILED" }
    );
    if let Some(store) = store {
        store.finish(run_totals);
    }
    assert!(all_ok);
}

/// A deterministic pseudo-shuffled input.
fn shuffled_input(n: usize, seed: u64) -> InputVector<u32> {
    let mut entries: Vec<u32> = (1..=n as u32).collect();
    use rand::seq::SliceRandom;
    entries.shuffle(&mut SmallRng::seed_from_u64(seed));
    InputVector::new(entries)
}

/// The worst case for early decision: `k` crashes per round, each silent
/// (empty send prefix), so every round perceives exactly `k` new failures
/// until the budget runs out.
fn silent_staircase(n: usize, f: usize, k: usize) -> FailurePattern {
    let mut pattern = FailurePattern::none(n);
    for i in 0..f {
        let victim = ProcessId::new(n - 1 - i);
        let round = i / k + 1;
        pattern
            .crash(victim, CrashSpec::new(round, 0))
            .expect("valid");
    }
    pattern
}

/// Exactly `f` crashes spread over rounds with assorted prefixes.
fn crash_f(n: usize, f: usize, seed: u64) -> FailurePattern {
    use rand::Rng;
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xC0FFEE);
    let mut pattern = FailurePattern::none(n);
    for i in 0..f {
        let victim = ProcessId::new(n - 1 - i);
        let round = rng.gen_range(1..=3);
        let prefix = rng.gen_range(0..=n);
        pattern
            .crash(victim, CrashSpec::new(round, prefix))
            .expect("valid");
    }
    pattern
}
