//! The deterministic simulator and the real-thread executor
//! (`Executor::Threaded`: pooled node tasks running the shared node round
//! loop over the loopback mesh) are observationally equivalent: same
//! decisions, same rounds, same message counts. Randomized property test over the unified `Scenario` API —
//! one generated scenario, two `Executor`s, identical `Trace`s — across
//! seeds, all four protocols, and proptest-generated failure patterns.
//!
//! The asynchronous side gets the same treatment:
//! `Executor::AsyncSharedMemory`/`AsyncMessagePassing` must replay the
//! byte-identical executions of the raw engines at their default budgets
//! for fixed seeds, and a `ScenarioSuite` grid can mix synchronous and
//! asynchronous cells.

use proptest::prelude::*;

use setagree::asynchronous::{
    default_delivery_budget, default_step_budget, execute_message_passing, execute_shared_memory,
};
use setagree::conditions::{LegalityParams, MaxCondition};
use setagree::core::{
    AsyncCrashes, ConditionBasedConfig, Executor, ProtocolKind, ProtocolSpec, Scenario,
    ScenarioSuite,
};
use setagree::sync::{CrashSpec, FailurePattern};
use setagree::types::{InputVector, ProcessId};

fn pattern_strategy(n: usize, t: usize) -> impl Strategy<Value = FailurePattern> {
    proptest::collection::vec((0usize..n, 1usize..=4, 0usize..=n), 0..=t).prop_map(move |crashes| {
        let mut pattern = FailurePattern::none(n);
        let mut victims = std::collections::BTreeSet::new();
        for (idx, round, prefix) in crashes {
            if victims.len() >= t || !victims.insert(idx) {
                continue;
            }
            pattern
                .crash(ProcessId::new(idx), CrashSpec::new(round, prefix))
                .expect("valid");
        }
        pattern
    })
}

/// One scenario for each of the four protocol specs, over the same
/// (n, t, k, d, ℓ) = (8, 4, 2, 2, 2) system, input and pattern.
fn scenarios(entries: Vec<u32>, pattern: &FailurePattern) -> Vec<Scenario<u32, MaxCondition>> {
    let config = ConditionBasedConfig::builder(8, 4, 2)
        .condition_degree(2)
        .ell(2)
        .build()
        .expect("valid");
    let oracle = MaxCondition::new(config.legality());
    let input = InputVector::new(entries);
    [
        ProtocolSpec::condition_based(config, oracle),
        ProtocolSpec::early_condition_based(config, oracle),
        ProtocolSpec::early_deciding(8, 4, 2),
        ProtocolSpec::flood_set(8, 4, 2),
    ]
    .into_iter()
    .map(|spec| {
        Scenario::new(spec)
            .input(input.clone())
            .pattern(pattern.clone())
    })
    .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The headline property: for every protocol, every input and every
    /// ordered failure pattern, `Executor::Simulator` and
    /// `Executor::Threaded` produce the identical `Trace`.
    #[test]
    fn executors_are_observationally_equivalent(
        entries in proptest::collection::vec(1u32..=5, 8),
        pattern in pattern_strategy(8, 4),
    ) {
        for scenario in scenarios(entries.clone(), &pattern) {
            let protocol = scenario.spec().protocol();
            let simulated = scenario
                .clone()
                .executor(Executor::Simulator)
                .run()
                .expect("simulator");
            let threaded = scenario
                .executor(Executor::Threaded)
                .run()
                .expect("threaded executor");
            prop_assert_eq!(
                simulated.trace(),
                threaded.trace(),
                "{} diverged under {}",
                protocol,
                pattern
            );
            prop_assert_eq!(simulated.predicted_rounds(), threaded.predicted_rounds());
            prop_assert_eq!(simulated.executor(), Executor::Simulator);
            prop_assert_eq!(threaded.executor(), Executor::Threaded);
        }
    }

    /// Equivalence also survives the batch layer: a suite run on the
    /// threaded executor matches the same suite on the simulator.
    #[test]
    fn suites_agree_across_executors(
        entries in proptest::collection::vec(1u32..=9, 6),
        pattern in pattern_strategy(6, 3),
    ) {
        let build = |executor| {
            ScenarioSuite::new()
                .spec(ProtocolSpec::flood_set(6, 3, 2))
                .spec(ProtocolSpec::early_deciding(6, 3, 2))
                .input(InputVector::new(entries.clone()))
                .pattern(pattern.clone())
                .executor(executor)
                .run()
        };
        let simulated = build(Executor::Simulator);
        let threaded = build(Executor::Threaded);
        prop_assert_eq!(simulated.len(), threaded.len());
        for (s, t) in simulated.cases().iter().zip(threaded.cases()) {
            let s = s.report().expect("simulator case");
            let t = t.report().expect("threaded case");
            prop_assert_eq!(s.trace(), t.trace());
        }
    }
}

fn async_crashes_strategy(n: usize, x: usize) -> impl Strategy<Value = AsyncCrashes> {
    proptest::collection::vec((0usize..n, 0u64..=2), 0..=x).prop_map(move |crashes| {
        let mut schedule = AsyncCrashes::none();
        let mut victims = std::collections::BTreeSet::new();
        for (idx, steps) in crashes {
            if victims.len() >= x || !victims.insert(idx) {
                continue;
            }
            schedule = schedule.crash_after(ProcessId::new(idx), steps);
        }
        schedule
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The async executors are the engines at their default budgets:
    /// for any fixed seed, input and crash schedule they replay the
    /// byte-identical `AsyncReport` the engine entry points produce.
    #[test]
    fn async_executors_replay_the_engines(
        entries in proptest::collection::vec(1u32..=5, 6),
        crashes in async_crashes_strategy(6, 2),
        seed in any::<u64>(),
    ) {
        let params = LegalityParams::new(2, 2).expect("valid");
        let oracle = MaxCondition::new(params);
        let input = InputVector::new(entries);
        let scenario = Scenario::async_set_agreement(6, params, oracle)
            .input(input.clone())
            .pattern(crashes.clone());

        let budget = default_step_budget(6);
        let engine = execute_shared_memory(&oracle, 2, &input, &crashes, seed, budget);
        let unified = scenario
            .clone()
            .executor(Executor::AsyncSharedMemory { seed })
            .run()
            .expect("valid scenario");
        prop_assert_eq!(
            unified.async_report().expect("asynchronous run"),
            &engine,
            "shared-memory executor diverged at seed {}",
            seed
        );

        let budget = default_delivery_budget(6);
        let engine = execute_message_passing(&oracle, 2, &input, &crashes, seed, budget);
        let unified = scenario
            .executor(Executor::AsyncMessagePassing { seed })
            .run()
            .expect("valid scenario");
        prop_assert_eq!(
            unified.async_report().expect("asynchronous run"),
            &engine,
            "message-passing executor diverged at seed {}",
            seed
        );
    }
}

/// The acceptance shape of the unification: one suite grid mixing the
/// synchronous and asynchronous executors over a single condition-based
/// spec, every cell satisfying its model's guarantees.
#[test]
fn suites_mix_sync_and_async_executors() {
    let config = ConditionBasedConfig::builder(6, 3, 2)
        .condition_degree(2)
        .ell(1)
        .build()
        .expect("valid");
    let outcome = ScenarioSuite::new()
        .spec(ProtocolSpec::condition_based(
            config,
            MaxCondition::new(config.legality()),
        ))
        .input(vec![5u32, 5, 5, 2, 5, 5])
        .executors([
            Executor::Simulator,
            Executor::Threaded,
            Executor::AsyncSharedMemory { seed: 17 },
            Executor::AsyncMessagePassing { seed: 17 },
        ])
        .run();
    assert_eq!(outcome.len(), 4);
    assert!(outcome.all_ok(), "every cell satisfies its model");
    let reports: Vec<_> = outcome.reports().collect();
    // Round-based cells carry traces and predicted bounds…
    assert!(reports[0].trace().is_some());
    assert_eq!(reports[0].trace(), reports[1].trace());
    assert!(reports[0].predicted_rounds().is_some());
    // …asynchronous cells carry step reports, and check ℓ instead of k.
    assert!(reports[2].async_report().is_some());
    assert_eq!(reports[2].k(), 1);
    assert_eq!(
        reports[3].executor(),
        Executor::AsyncMessagePassing { seed: 17 }
    );
}

/// Protocol kinds are preserved through either executor (spot check, not
/// property-based: the mapping is static).
#[test]
fn protocol_kinds_round_trip() {
    let pattern = FailurePattern::none(8);
    let kinds: Vec<ProtocolKind> = scenarios(vec![1, 2, 3, 4, 5, 1, 2, 3], &pattern)
        .into_iter()
        .map(|s| s.run().expect("runs").protocol())
        .collect();
    assert_eq!(
        kinds,
        vec![
            ProtocolKind::ConditionBased,
            ProtocolKind::EarlyConditionBased,
            ProtocolKind::EarlyDeciding,
            ProtocolKind::FloodSet,
        ]
    );
}
