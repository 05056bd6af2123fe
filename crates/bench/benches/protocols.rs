//! Criterion benches for the protocols: end-to-end [`Scenario`] runs of
//! the Figure 2 algorithm vs the baselines on the simulator, scaling with
//! `n`, plus the asynchronous algorithm, the threaded executor, and the
//! `broadcast` group tracking the zero-copy message fan-out on a
//! heavy-message flood.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use setagree_bench::{in_condition_input, out_of_condition_input, spread_input};
use setagree_conditions::MaxCondition;
use setagree_core::{
    ConditionBasedConfig, DenseFlood, Executor, ProtocolSpec, Scenario, ScenarioSuite,
};
use setagree_node::run_loopback;
use setagree_sync::{run_protocol, FailurePattern, Step, SyncProtocol};
use setagree_types::{DenseVector, InputVector, ProcessId, ValueTable, View};

fn config_for(n: usize) -> ConditionBasedConfig {
    // t ≈ n/2, k = 2, d = t − 2, ℓ = 2 — a representative operating point.
    let t = n / 2;
    ConditionBasedConfig::builder(n, t, 2)
        .condition_degree(t - 2)
        .ell(2)
        .build()
        .expect("valid for n ≥ 8")
}

fn bench_condition_based(c: &mut Criterion) {
    let mut group = c.benchmark_group("condition_based_run");
    let mut rng = SmallRng::seed_from_u64(7);
    for n in [8usize, 16, 32, 64] {
        let config = config_for(n);
        let oracle = MaxCondition::new(config.legality());
        let inside = Scenario::condition_based(config, oracle)
            .input(in_condition_input(n, config.legality(), &mut rng))
            .pattern(FailurePattern::none(n));
        let outside = Scenario::condition_based(config, oracle)
            .input(out_of_condition_input(n, config.legality()))
            .pattern(FailurePattern::none(n));
        group.bench_with_input(BenchmarkId::new("in_condition", n), &n, |b, _| {
            b.iter(|| inside.run().unwrap());
        });
        group.bench_with_input(BenchmarkId::new("out_of_condition", n), &n, |b, _| {
            b.iter(|| outside.run().unwrap());
        });
    }
    group.finish();
}

fn bench_baselines(c: &mut Criterion) {
    let mut group = c.benchmark_group("baseline_run");
    for n in [8usize, 16, 32, 64] {
        let t = n / 2;
        let floodset = Scenario::flood_set(n, t, 2).input(spread_input(n));
        let early = Scenario::early_deciding(n, t, 2).input(spread_input(n));
        group.bench_with_input(BenchmarkId::new("floodset", n), &n, |b, _| {
            b.iter(|| floodset.run().unwrap());
        });
        group.bench_with_input(BenchmarkId::new("early_deciding", n), &n, |b, _| {
            b.iter(|| early.run().unwrap());
        });
    }
    group.finish();
}

fn bench_async(c: &mut Criterion) {
    let mut group = c.benchmark_group("async_run");
    let mut rng = SmallRng::seed_from_u64(11);
    for n in [8usize, 16, 32] {
        let params = setagree_conditions::LegalityParams::new(2, 2).unwrap();
        let oracle = MaxCondition::new(params);
        let scenario = Scenario::async_set_agreement(n, params, oracle)
            .input(in_condition_input(n, params, &mut rng));
        let shared = scenario
            .clone()
            .executor(Executor::AsyncSharedMemory { seed: 3 });
        let message = scenario.executor(Executor::AsyncMessagePassing { seed: 3 });
        group.bench_with_input(BenchmarkId::new("shared_memory", n), &n, |b, _| {
            b.iter(|| shared.run().unwrap());
        });
        group.bench_with_input(BenchmarkId::new("message_passing", n), &n, |b, _| {
            b.iter(|| message.run().unwrap());
        });
    }
    group.finish();
}

fn bench_early_condition(c: &mut Criterion) {
    let mut group = c.benchmark_group("early_condition_run");
    for n in [8usize, 16, 32] {
        let config = config_for(n);
        let oracle = MaxCondition::new(config.legality());
        let scenario = Scenario::early_condition_based(config, oracle)
            .input(out_of_condition_input(n, config.legality()))
            .pattern(FailurePattern::none(n));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| scenario.run().unwrap());
        });
    }
    group.finish();
}

fn bench_executors(c: &mut Criterion) {
    let mut group = c.benchmark_group("executor");
    let n = 16;
    let t = 8;
    let simulator = Scenario::flood_set(n, t, 2).input(spread_input(n));
    let threaded = Scenario::flood_set(n, t, 2)
        .input(spread_input(n))
        .executor(Executor::Threaded);
    group.bench_function("simulator_floodset", |b| {
        b.iter(|| simulator.run().unwrap());
    });
    group.bench_function("threaded_floodset", |b| {
        b.iter(|| threaded.run().unwrap());
    });
    group.finish();
}

/// A flood-style protocol with the paper's heavy message shape: the full
/// `View<u32>` snapshot, re-broadcast and merged in place every round.
/// Each round is n broadcasts fanned out to n recipients — exactly the
/// O(n²) delivery pattern whose per-recipient deep clones the zero-copy
/// engines eliminated.
#[derive(Debug)]
struct ViewFlood {
    rounds: usize,
    view: View<u32>,
}

impl ViewFlood {
    fn system(n: usize, rounds: usize) -> Vec<ViewFlood> {
        (0..n)
            .map(|i| {
                let mut view = View::all_bottom(n);
                view.set(ProcessId::new(i), i as u32 + 1);
                ViewFlood { rounds, view }
            })
            .collect()
    }
}

impl SyncProtocol for ViewFlood {
    type Msg = View<u32>;
    type Output = u32;

    fn message(&mut self, _round: usize) -> View<u32> {
        self.view.clone()
    }

    fn receive(&mut self, _round: usize, _from: ProcessId, msg: &View<u32>) {
        self.view.merge_from(msg);
    }

    fn compute(&mut self, round: usize) -> Step<u32> {
        if round >= self.rounds {
            // The per-round check on the clone-free distinct count.
            Step::Decide(self.view.distinct_count() as u32)
        } else {
            Step::Continue
        }
    }
}

/// The interned inputs for an `n`-process dense flood with the same
/// value shape as [`ViewFlood::system`]: process `i` proposes `i + 1`.
fn dense_inputs(n: usize) -> DenseVector {
    let vector = InputVector::new((1..=n as u32).collect::<Vec<_>>());
    ValueTable::from_vector(&vector).intern_vector(&vector)
}

/// The broadcast hot path at large n: one owned view per sender per
/// round, delivered n times by reference (simulator) or behind one `Arc`
/// (threaded). The `simulator`/`threaded` rows run the generic
/// `View<u32>` flood (the pre-dense representation, kept as the
/// baseline); the `dense`/`dense_threaded` rows run [`DenseFlood`] on
/// the interned-id engine, whose word-level union merges are what make
/// the n ≥ 256 rows feasible at all.
fn bench_broadcast(c: &mut Criterion) {
    let mut group = c.benchmark_group("broadcast");
    const ROUNDS: usize = 3;
    for n in [16usize, 64, 128] {
        let pattern = FailurePattern::none(n);
        group.bench_with_input(BenchmarkId::new("simulator", n), &n, |b, &n| {
            b.iter(|| run_protocol(ViewFlood::system(n, ROUNDS), &pattern, ROUNDS + 1).unwrap());
        });
    }
    for n in [16usize, 64, 128, 256, 512, 1024] {
        let pattern = FailurePattern::none(n);
        let inputs = dense_inputs(n);
        group.bench_with_input(BenchmarkId::new("dense", n), &n, |b, _| {
            b.iter(|| {
                run_protocol(DenseFlood::system(&inputs, ROUNDS), &pattern, ROUNDS + 1).unwrap()
            });
        });
    }
    // The threaded executor runs n pooled OS threads per run; keep it to
    // the mid sizes so the group stays runnable on small machines.
    for n in [16usize, 64] {
        let pattern = FailurePattern::none(n);
        group.bench_with_input(BenchmarkId::new("threaded", n), &n, |b, &n| {
            b.iter(|| run_loopback(ViewFlood::system(n, ROUNDS), &pattern, ROUNDS + 1).unwrap());
        });
        let inputs = dense_inputs(n);
        group.bench_with_input(BenchmarkId::new("dense_threaded", n), &n, |b, _| {
            b.iter(|| {
                run_loopback(DenseFlood::system(&inputs, ROUNDS), &pattern, ROUNDS + 1).unwrap()
            });
        });
    }
    group.finish();
}

fn bench_suite_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("suite_batch");
    let mut rng = SmallRng::seed_from_u64(13);
    for n in [16usize, 32] {
        let config = config_for(n);
        let t = n / 2;
        let oracle = MaxCondition::new(config.legality());
        // Identical workload in both variants: only the scheduling differs.
        let inputs: Vec<_> = (0..8)
            .map(|_| in_condition_input(n, config.legality(), &mut rng))
            .collect();
        let build = || {
            ScenarioSuite::new()
                .spec(ProtocolSpec::condition_based(config, oracle))
                .spec(ProtocolSpec::flood_set(n, t, 2))
                .spec(ProtocolSpec::early_deciding(n, t, 2))
                .inputs(inputs.clone())
                .pattern(FailurePattern::none(n))
                .pattern(FailurePattern::staircase(n, t, 2))
        };
        let suite = build();
        group.bench_with_input(BenchmarkId::new("parallel", n), &n, |b, _| {
            b.iter(|| suite.run());
        });
        let sequential = build().threads(1);
        group.bench_with_input(BenchmarkId::new("sequential", n), &n, |b, _| {
            b.iter(|| sequential.run());
        });
    }
    group.finish();
}

fn bench_suite_cache(c: &mut Criterion) {
    use std::sync::Arc;

    use setagree_core::SuiteCache;

    let mut group = c.benchmark_group("suite_cache");
    let mut rng = SmallRng::seed_from_u64(17);
    for n in [16usize, 32] {
        let config = config_for(n);
        let t = n / 2;
        let oracle = MaxCondition::new(config.legality());
        let inputs: Vec<_> = (0..8)
            .map(|_| in_condition_input(n, config.legality(), &mut rng))
            .collect();
        let build = || {
            ScenarioSuite::new()
                .spec(ProtocolSpec::condition_based(config, oracle))
                .spec(ProtocolSpec::flood_set(n, t, 2))
                .inputs(inputs.clone())
                .pattern(FailurePattern::none(n))
                .pattern(FailurePattern::staircase(n, t, 2))
        };
        // Cold: a fresh cache every iteration — full execution plus the
        // key hashing and insertion overhead the cache adds.
        group.bench_with_input(BenchmarkId::new("cold", n), &n, |b, _| {
            b.iter(|| {
                let cache = Arc::new(SuiteCache::new());
                build().cache(&cache).run()
            });
        });
        // Warm: one shared pre-filled cache — every cell served without
        // re-execution; the floor the cache buys on reruns.
        let warm = Arc::new(SuiteCache::new());
        let primed = build().cache(&warm);
        primed.run();
        group.bench_with_input(BenchmarkId::new("warm", n), &n, |b, _| {
            b.iter(|| primed.run());
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_condition_based,
    bench_baselines,
    bench_async,
    bench_early_condition,
    bench_executors,
    bench_broadcast,
    bench_suite_batch,
    bench_suite_cache
);
criterion_main!(benches);
