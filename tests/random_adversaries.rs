//! Property-based tests: the three k-set agreement properties hold for
//! every protocol under arbitrary inputs and arbitrary (valid) failure
//! patterns generated by proptest, all executed through the unified
//! `Scenario` API.

use proptest::prelude::*;

use setagree::conditions::MaxCondition;
use setagree::core::{ConditionBasedConfig, ProtocolSpec, Scenario, ScenarioSuite};
use setagree::sync::{bounds, CrashSpec, FailurePattern};
use setagree::types::{InputVector, ProcessId};

/// A system description drawn by proptest: sizes, parameters, inputs and
/// a valid failure pattern.
#[derive(Debug, Clone)]
struct Drawn {
    config: ConditionBasedConfig,
    input: InputVector<u32>,
    pattern: FailurePattern,
}

fn drawn() -> impl Strategy<Value = Drawn> {
    // n in 4..=12, t in 1..n, k in 1..=3, then d and ℓ within the paper's
    // constraints, arbitrary inputs from a small palette (so the condition
    // is sometimes satisfied, sometimes not), arbitrary crash specs.
    (4usize..=12)
        .prop_flat_map(|n| (Just(n), 1usize..n))
        .prop_flat_map(|(n, t)| (Just(n), Just(t), 1usize..=3, 1usize..=t))
        .prop_flat_map(|(n, t, k, d)| {
            let max_ell = k.min(t.saturating_sub(d)).max(1);
            (Just(n), Just(t), Just(k), Just(d), 1usize..=max_ell)
        })
        .prop_filter("valid config", |&(n, t, k, d, ell)| {
            ConditionBasedConfig::builder(n, t, k)
                .condition_degree(d)
                .ell(ell)
                .build()
                .is_ok()
        })
        .prop_flat_map(|(n, t, k, d, ell)| {
            let config = ConditionBasedConfig::builder(n, t, k)
                .condition_degree(d)
                .ell(ell)
                .build()
                .expect("filtered");
            let inputs = proptest::collection::vec(1u32..=6, n);
            let crashes = proptest::collection::vec(
                (0usize..n, 1usize..=bounds::classical(t, k) + 1, 0usize..=n),
                0..=t,
            );
            (Just(config), inputs, crashes)
        })
        .prop_map(|(config, entries, crashes)| {
            let n = config.n();
            let mut pattern = FailurePattern::none(n);
            let mut victims = std::collections::BTreeSet::new();
            for (idx, round, prefix) in crashes {
                if victims.len() >= config.t() || !victims.insert(idx) {
                    continue;
                }
                pattern
                    .crash(ProcessId::new(idx), CrashSpec::new(round, prefix))
                    .expect("valid by construction");
            }
            Drawn {
                config,
                input: InputVector::new(entries),
                pattern,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The Figure 2 algorithm satisfies termination, validity, agreement
    /// and the appropriate round bound on every generated scenario.
    #[test]
    fn condition_based_properties(s in drawn()) {
        let oracle = MaxCondition::new(s.config.legality());
        let report = Scenario::condition_based(s.config, oracle)
            .input(s.input)
            .pattern(s.pattern)
            .run()
            .expect("valid scenario");
        prop_assert!(report.satisfies_termination(), "termination: {report}");
        prop_assert!(report.satisfies_validity(), "validity: {report}");
        prop_assert!(report.satisfies_agreement(), "agreement: {report}");
        prop_assert!(report.within_predicted_rounds(), "rounds: {report}");
    }

    /// The flood-set baseline satisfies the same properties at its own
    /// bound.
    #[test]
    fn floodset_properties(s in drawn()) {
        let report = Scenario::flood_set(s.config.n(), s.config.t(), s.config.k())
            .input(s.input)
            .pattern(s.pattern)
            .run()
            .expect("valid scenario");
        prop_assert!(report.satisfies_termination());
        prop_assert!(report.satisfies_validity());
        prop_assert!(report.satisfies_agreement(), "agreement: {report}");
        prop_assert!(report.within_predicted_rounds());
    }

    /// Early-deciding k-set agreement: all properties plus the adaptive
    /// min(⌊f/k⌋ + 2, ⌊t/k⌋ + 1) bound.
    #[test]
    fn early_deciding_properties(s in drawn()) {
        let report = Scenario::early_deciding(s.config.n(), s.config.t(), s.config.k())
            .input(s.input)
            .pattern(s.pattern)
            .run()
            .expect("valid scenario");
        prop_assert!(report.satisfies_termination());
        prop_assert!(report.satisfies_validity());
        prop_assert!(report.satisfies_agreement(), "agreement: {report}");
        prop_assert!(report.within_predicted_rounds(), "adaptive bound: {report}");
    }

    /// The Section 8 combined protocol: all properties plus the combined
    /// bound min(Figure 2 bound, ⌊f/k⌋ + 2).
    #[test]
    fn early_condition_based_properties(s in drawn()) {
        let oracle = MaxCondition::new(s.config.legality());
        let report = Scenario::early_condition_based(s.config, oracle)
            .input(s.input)
            .pattern(s.pattern)
            .run()
            .expect("valid scenario");
        prop_assert!(report.satisfies_termination(), "termination: {report}");
        prop_assert!(report.satisfies_validity(), "validity: {report}");
        prop_assert!(report.satisfies_agreement(), "agreement: {report}");
        prop_assert!(report.within_predicted_rounds(), "combined bound: {report}");
    }

    /// Deciders never out-decide the condition width when the input is in
    /// the condition: at most ℓ distinct values system-wide (stronger than
    /// the k bound when ℓ < k), provided no out-of-condition evidence and
    /// a failure-free first round.
    #[test]
    fn in_condition_failure_free_decides_ell_values(s in drawn()) {
        let oracle = MaxCondition::new(s.config.legality());
        prop_assume!(oracle.contains(&s.input));
        let report = Scenario::condition_based(s.config, oracle)
            .input(s.input)
            .run()
            .expect("valid scenario");
        prop_assert!(
            report.decided_values().len() <= s.config.ell(),
            "in-condition failure-free runs decide from h_ℓ: {report}"
        );
    }

    /// The whole grid at once: all four protocols on the same drawn
    /// input × pattern satisfy their properties as a `ScenarioSuite`.
    #[test]
    fn suite_covers_all_four_protocols(s in drawn()) {
        let (n, t, k) = (s.config.n(), s.config.t(), s.config.k());
        let oracle = MaxCondition::new(s.config.legality());
        let outcome = ScenarioSuite::new()
            .spec(ProtocolSpec::condition_based(s.config, oracle))
            .spec(ProtocolSpec::early_condition_based(s.config, oracle))
            .spec(ProtocolSpec::early_deciding(n, t, k))
            .spec(ProtocolSpec::flood_set(n, t, k))
            .input(s.input)
            .pattern(s.pattern)
            .run();
        prop_assert_eq!(outcome.len(), 4);
        prop_assert!(outcome.all_ok(), "suite failed on {}", s.config);
    }
}
