//! Regenerates the **(k, R) pair table** of Section 1.2: with a consensus
//! condition (ℓ = 1) of degree `d`, the algorithm realizes the generic
//! pair `(k, ⌊d/k⌋ + 1)`, interpolating between condition-based consensus
//! (`k = 1`: `d + 1` rounds, \[22\]) and one-shot set agreement
//! (`k = d + 1`: formula 1, clamped to the loop's first decision round 2).
//!
//! Each (d, k) cell is a [`ScenarioSuite`]: several random in-condition
//! inputs × {failure-free, staircase, bound-attaining, random}
//! adversaries, worst-cased over the whole grid.
//!
//! Set `SETAGREE_SUITE_CACHE` and/or `SETAGREE_SUITE_JOURNAL` to
//! persist cells across invocations (warm reruns serve every cell from
//! the cache; a killed sweep resumes from the journal's verified
//! prefix — see [`SuiteStore`]), and `SETAGREE_METRICS=<path|->` to
//! dump the run's metrics snapshot at exit.
//!
//! ```text
//! cargo run -p setagree-bench --bin table_pairs
//! ```

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use setagree_conditions::MaxCondition;
use setagree_core::{ConditionBasedConfig, ProtocolSpec, ScenarioSuite, SuiteCache, SuiteRunStats};
use setagree_sync::{bounds, FailurePattern};

use setagree_bench::{in_condition_input, MetricsDump, SuiteStore, Table};
use setagree_types::ProcessId;

/// More than t − d initial crashes: every survivor witnesses too many
/// failures in round 1 and must wait for the line-18 round.
fn tmf_forcing(n: usize, t: usize, d: usize) -> FailurePattern {
    let crashes = (t - d + 1).min(t);
    FailurePattern::initial(n, (0..crashes).map(|i| ProcessId::new(n - 1 - i)))
        .expect("valid initial crashes")
}

fn main() {
    let _metrics = MetricsDump::from_env();
    let n = 14;
    let t = 8;
    let mut rng = SmallRng::seed_from_u64(0x9A12);
    let store: Option<SuiteStore<u32>> = SuiteStore::from_env();
    let cache = store.as_ref().map(|s| Arc::clone(s.cache()));
    let mut run_totals = SuiteRunStats::default();
    let mut table = Table::new(vec!["d", "k", "formula ⌊d/k⌋+1", "measured worst", "ok"]);
    let mut all_ok = true;

    for d in [2usize, 4, 6] {
        for k in 1..=(d + 1).min(t) {
            let config = ConditionBasedConfig::builder(n, t, k)
                .condition_degree(d)
                .ell(1)
                .build()
                .expect("ℓ = 1 ≤ min(k, t − d) on this grid");
            let oracle = MaxCondition::new(config.legality());
            let formula = config.rounds_in_condition();

            let outcome = with_cache(ScenarioSuite::new(), &cache)
                .spec(ProtocolSpec::condition_based(config, oracle))
                .inputs((0..8).map(|_| in_condition_input(n, config.legality(), &mut rng)))
                .pattern(FailurePattern::none(n))
                .pattern(FailurePattern::staircase(n, t, k))
                // The bound-attaining adversary: more than t − d initial
                // crashes force every survivor onto the too-many-failures
                // path, which decides exactly at round ⌊(d+ℓ−1)/k⌋ + 1
                // (Lemma 2(i) tightness).
                .pattern(tmf_forcing(n, t, d))
                .patterns((0..8u64).map(|seed| {
                    FailurePattern::random(
                        n,
                        t,
                        bounds::classical(t, k),
                        &mut SmallRng::seed_from_u64(seed),
                    )
                    .into()
                }))
                .run();
            run_totals.cases += outcome.len();
            run_totals.cache_hits += outcome.cache_hits();
            run_totals.cache_misses += outcome.cache_misses();
            assert!(
                outcome.all_satisfy_properties(),
                "properties at d={d}, k={k}"
            );
            let worst = outcome.worst_decision_round().expect("somebody decides");

            // The loop's first decision opportunity is round 2, and the
            // tmf-forcing adversary attains the bound exactly.
            let bound = bounds::from_round_two(formula);
            let ok = worst == bound;
            all_ok &= ok;
            table.row(vec![
                d.to_string(),
                k.to_string(),
                formula.to_string(),
                worst.to_string(),
                if ok { "ok".into() } else { "FAIL".into() },
            ]);
        }
    }

    println!("(k, R) pairs for ℓ = 1 conditions (n = {n}, t = {t}) — Section 1.2");
    println!();
    println!("{table}");
    println!(
        "shape: R divides by k as the paper's generic pair predicts — {}",
        if all_ok { "VERIFIED" } else { "FAILED" }
    );
    assert!(all_ok);
    if let Some(store) = store {
        store.finish(run_totals);
    }
}

fn with_cache(
    suite: ScenarioSuite<u32, MaxCondition>,
    cache: &Option<Arc<SuiteCache<u32>>>,
) -> ScenarioSuite<u32, MaxCondition> {
    match cache {
        Some(cache) => suite.cache(cache),
        None => suite,
    }
}
