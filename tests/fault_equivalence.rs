//! The fault-injection battery pinning the deterministic omission
//! layer's contract (the robustness tentpole):
//!
//! * **benign identity** — `FaultPlan::none()` under `Adversary::Omission`
//!   is trace-identical to the plain crash-only path on every executor
//!   that runs omission adversaries (simulator and networked loopback);
//! * **cross-executor byte-identity** — for *any* seeded plan (drops,
//!   delays, duplicates, reorders, partitions) and any crash pattern,
//!   simulator-under-omission and loopback-under-`FaultyTransport`
//!   produce the identical `Trace` — same outcomes, rounds and delivery
//!   count — even though the loopback tier applies the plan at the
//!   frame boundary of real node tasks;
//! * **principled outcomes** — faulty runs never hang and never panic:
//!   every run either returns an honest `Report` whose decided values
//!   are genuine proposals, or fails loudly with `RoundLimitExceeded`,
//!   and both executors agree on which;
//! * **partition-then-heal** — a system cut in two for a window that
//!   closes before the round bound still decides.

use proptest::prelude::*;

use setagree::conditions::MaxCondition;
use setagree::core::{
    Adversary, ConditionBasedConfig, Executor, ExperimentError, FaultPlan, Partition, ProtocolSpec,
    Report, Scenario, ScenarioSuite, TransportKind, RATE_SCALE,
};
use setagree::sync::{CrashSpec, FailurePattern};
use setagree::types::{InputVector, ProcessId, ProcessSet};

const LOOPBACK: Executor = Executor::Networked {
    transport: TransportKind::Loopback,
};

const N: usize = 8;
const T: usize = 4;

fn pattern_strategy() -> impl Strategy<Value = FailurePattern> {
    proptest::collection::vec((0usize..N, 1usize..=4, 0usize..=N), 0..=T).prop_map(|crashes| {
        let mut pattern = FailurePattern::none(N);
        let mut victims = std::collections::BTreeSet::new();
        for (idx, round, prefix) in crashes {
            if victims.len() >= T || !victims.insert(idx) {
                continue;
            }
            pattern
                .crash(ProcessId::new(idx), CrashSpec::new(round, prefix))
                .expect("valid");
        }
        pattern
    })
}

/// Any seeded plan: independent drop/delay/duplicate/reorder rates up to
/// half of `RATE_SCALE` each, plus up to two partition windows.
fn plan_strategy() -> impl Strategy<Value = FaultPlan> {
    let rate = 0u32..=RATE_SCALE / 2;
    (
        any::<u64>(),
        rate.clone(),
        rate.clone(),
        1usize..=2,
        rate.clone(),
        rate,
        proptest::collection::vec(
            (
                proptest::collection::vec(any::<bool>(), N),
                1usize..=3,
                0usize..=2,
            ),
            0..=2,
        ),
    )
        .prop_map(|(seed, drop, delay, max_delay, dup, reorder, partitions)| {
            let mut plan = FaultPlan::new(N, seed)
                .drop_rate(drop)
                .delay_rate(delay, max_delay)
                .duplicate_rate(dup)
                .reorder_rate(reorder);
            for (side, from_round, span) in partitions {
                let mut members = ProcessSet::empty(N);
                for (i, &m) in side.iter().enumerate() {
                    if m {
                        members.insert(ProcessId::new(i));
                    }
                }
                plan = plan.partition(Partition::new(members, from_round, from_round + span));
            }
            plan
        })
}

/// One scenario per protocol spec, over the same (n, t, k, d, ℓ) =
/// (8, 4, 2, 2, 2) system, input and adversary.
fn scenarios(entries: Vec<u32>, adversary: &Adversary) -> Vec<Scenario<u32, MaxCondition>> {
    let config = ConditionBasedConfig::builder(N, T, 2)
        .condition_degree(2)
        .ell(2)
        .build()
        .expect("valid");
    let oracle = MaxCondition::new(config.legality());
    let input = InputVector::new(entries);
    [
        ProtocolSpec::condition_based(config, oracle),
        ProtocolSpec::early_condition_based(config, oracle),
        ProtocolSpec::early_deciding(N, T, 2),
        ProtocolSpec::flood_set(N, T, 2),
    ]
    .into_iter()
    .map(|spec| {
        Scenario::new(spec)
            .input(input.clone())
            .pattern(adversary.clone())
    })
    .collect()
}

/// A principled result: an honest report, or a loud round-limit failure.
/// Anything else (a hang would trip proptest's own timeout; a panic
/// fails the test) violates the robustness contract.
fn check_principled(
    result: &Result<Report<u32>, ExperimentError>,
    entries: &[u32],
) -> Result<(), TestCaseError> {
    match result {
        Ok(report) => {
            // Validity is fault-proof: drops only shrink what a process
            // sees, so every decided value is still a genuine proposal.
            prop_assert!(report.satisfies_validity());
            for value in report.decided_values() {
                prop_assert!(entries.contains(&value));
            }
        }
        Err(ExperimentError::RoundLimitExceeded { .. }) => {}
        Err(other) => prop_assert!(false, "unprincipled failure: {other}"),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `FaultPlan::none()` is invisible: the omission adversary with a
    /// benign plan reproduces the plain crash-only trace byte for byte,
    /// on both executors that run omission adversaries.
    #[test]
    fn benign_plans_are_trace_identical_to_the_plain_path(
        entries in proptest::collection::vec(1u32..=5, N),
        pattern in pattern_strategy(),
    ) {
        let benign = Adversary::Omission {
            plan: FaultPlan::none(N),
            crashes: pattern.clone(),
        };
        for (faulty, plain) in scenarios(entries.clone(), &benign)
            .into_iter()
            .zip(scenarios(entries.clone(), &Adversary::from(pattern.clone())))
        {
            for executor in [Executor::Simulator, LOOPBACK] {
                let with_plan = faulty.clone().executor(executor).run().expect("benign plan");
                let without = plain.clone().executor(executor).run().expect("plain path");
                prop_assert_eq!(
                    with_plan.trace(),
                    without.trace(),
                    "benign plan diverged on {:?} under {}",
                    executor,
                    &pattern
                );
            }
        }
    }

    /// The headline equivalence: for any seeded plan and crash pattern,
    /// the simulator's omission engine and the loopback tier's
    /// `FaultyTransport` produce the identical `Trace` — or fail with
    /// the identical round-limit error.
    #[test]
    fn simulator_and_faulty_loopback_are_byte_identical(
        entries in proptest::collection::vec(1u32..=5, N),
        pattern in pattern_strategy(),
        plan in plan_strategy(),
    ) {
        let adversary = Adversary::Omission { plan, crashes: pattern };
        for scenario in scenarios(entries.clone(), &adversary) {
            let protocol = scenario.spec().protocol();
            let simulated = scenario.clone().executor(Executor::Simulator).run();
            let networked = scenario.executor(LOOPBACK).run();
            match (&simulated, &networked) {
                (Ok(sim), Ok(net)) => prop_assert_eq!(
                    sim.trace(),
                    net.trace(),
                    "{} diverged under the plan",
                    protocol
                ),
                (Err(a), Err(b)) => prop_assert_eq!(a, b),
                (a, b) => prop_assert!(
                    false,
                    "executors disagree for {}: simulator {:?}, loopback {:?}",
                    protocol,
                    a.as_ref().map(|r| r.satisfies_all()),
                    b.as_ref().map(|r| r.satisfies_all())
                ),
            }
            check_principled(&simulated, &entries)?;
        }
    }

    /// Hostile plans (any rates, any partitions, any crashes) never
    /// hang or panic either tier: every run is a report or a loud,
    /// principled error.
    #[test]
    fn faulty_runs_always_reach_a_principled_outcome(
        entries in proptest::collection::vec(1u32..=5, N),
        pattern in pattern_strategy(),
        plan in plan_strategy(),
    ) {
        let adversary = Adversary::Omission { plan, crashes: pattern };
        for scenario in scenarios(entries.clone(), &adversary) {
            for executor in [Executor::Simulator, LOOPBACK] {
                check_principled(&scenario.clone().executor(executor).run(), &entries)?;
            }
        }
    }

    /// Partition-then-heal: a clean split (no other faults, no crashes)
    /// whose window closes before the final round still lets every
    /// process decide — after the heal, the remaining exchanges restore
    /// the flood.
    #[test]
    fn partition_then_heal_runs_decide(
        entries in proptest::collection::vec(1u32..=5, N),
        side in proptest::collection::vec(any::<bool>(), N),
    ) {
        let mut members = ProcessSet::empty(N);
        for (i, &m) in side.iter().enumerate() {
            if m {
                members.insert(ProcessId::new(i));
            }
        }
        // FloodSet runs ⌊t/k⌋ + 1 = 3 rounds; the cut covers round 1 only.
        let plan = FaultPlan::new(N, 0).partition(Partition::new(members, 1, 1));
        let adversary = Adversary::Omission {
            plan,
            crashes: FailurePattern::none(N),
        };
        let scenario = Scenario::flood_set(N, T, 2)
            .input(entries.clone())
            .pattern(adversary);
        for executor in [Executor::Simulator, LOOPBACK] {
            let report = scenario.clone().executor(executor).run().expect("heals");
            prop_assert!(report.satisfies_termination(), "undecided on {:?}", executor);
            prop_assert!(report.satisfies_validity());
        }
    }
}

/// The composed `Adversary::Network` (unordered crashes + link faults)
/// replays deterministically: the same scenario twice yields the same
/// trace, and the benign-plan case matches the plain unordered path.
#[test]
fn network_adversary_is_deterministic() {
    use setagree::sync::{SubsetCrash, UnorderedFailurePattern};

    let mut crashes = UnorderedFailurePattern::none(N);
    let mut delivered_to = ProcessSet::empty(N);
    delivered_to.insert(ProcessId::new(0));
    delivered_to.insert(ProcessId::new(3));
    crashes
        .crash(ProcessId::new(5), SubsetCrash::new(2, delivered_to))
        .expect("valid");
    let adversary = Adversary::Network {
        plan: FaultPlan::new(N, 77).drop_rate(2000).duplicate_rate(1000),
        crashes,
    };
    let scenario = Scenario::flood_set(N, T, 2)
        .input(vec![3u32, 9, 1, 4, 7, 2, 8, 5])
        .pattern(adversary);
    let first = scenario.clone().run().expect("network adversary");
    let second = scenario.run().expect("network adversary");
    assert_eq!(first.trace(), second.trace());
    assert!(first.satisfies_validity());
}

/// A suite worker keeps the link fates of the last plan it ran: a grid
/// whose adversaries alternate between three plans — two lossy ones that
/// share a seed, and the benign one — reports the same cases on one
/// worker as on two, whichever worker ran which cell after which plan.
#[test]
fn a_faulty_suite_reports_alike_on_one_worker_and_on_two() {
    let lossy = FaultPlan::new(N, 0x5EED)
        .drop_rate(1500)
        .delay_rate(1500, 2)
        .duplicate_rate(1000)
        .reorder_rate(3000);
    let plans = [lossy.clone(), lossy.drop_rate(4000), FaultPlan::none(N)];
    let mut chain = FailurePattern::none(N);
    chain
        .crash(ProcessId::new(2), CrashSpec::new(1, 5))
        .expect("valid");
    let adversaries = [FailurePattern::none(N), chain]
        .into_iter()
        .flat_map(|crashes| {
            plans
                .clone()
                .into_iter()
                .map(move |plan| Adversary::Omission {
                    plan,
                    crashes: crashes.clone(),
                })
        })
        .collect::<Vec<_>>();
    let config = ConditionBasedConfig::builder(N, T, 2)
        .condition_degree(2)
        .ell(2)
        .build()
        .expect("valid");
    let oracle = MaxCondition::new(config.legality());
    let suite = |threads| {
        ScenarioSuite::new()
            .spec(ProtocolSpec::condition_based(config, oracle))
            .spec(ProtocolSpec::flood_set(N, T, 2))
            .inputs([
                InputVector::new(vec![3u32, 9, 9, 4, 9, 2, 8, 9]),
                InputVector::new(vec![1u32, 2, 3, 4, 5, 6, 7, 8]),
            ])
            .patterns(adversaries.clone())
            .threads(threads)
    };
    let serial = suite(1).run();
    let parallel = suite(2).run();
    assert_eq!(serial.len(), 2 * 2 * 6);
    assert_eq!(parallel.cases(), serial.cases());
}
