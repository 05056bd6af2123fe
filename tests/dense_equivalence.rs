//! The dense interned-value engine is a pure representation change: a
//! `DenseView`/`DenseVector` over a `ValueTable` must behave exactly
//! like the generic `View<V>`/`InputVector<V>` it replaces on the hot
//! paths.
//!
//! Two layers of pinning:
//!
//! 1. **Operation equivalence** — a deliberately naive reference port
//!    over `Vec<Option<V>>` (independent of both the generic and the
//!    dense implementation) computes every operation the protocols use —
//!    merges, counts, containment, `greatest_distinct`, `complete_with`
//!    — and the dense engine, resolved back through its table, must
//!    agree on random value domains, system sizes across the
//!    inline/heap and one-word/multi-word thresholds, and arbitrary
//!    `⊥` placements. The `MaxCondition` dense oracle paths are pinned
//!    against the generic oracle the same way.
//! 2. **Trace equivalence** — all four protocol families run twice per
//!    seeded adversary, once over raw `u32` proposals and once over
//!    interned `ValueId`s; because interning is order-preserving the
//!    two executions must produce the same outcomes, rounds, and
//!    delivery counts once the ids are resolved back to values.

use std::collections::BTreeSet;

use proptest::prelude::*;

use setagree::conditions::{LegalityParams, MaxCondition};
use setagree::core::{ConditionBased, EarlyConditionBased, EarlyDeciding, FloodSet};
use setagree::core::{ConditionBasedConfig, DenseFlood};
use setagree::sync::{run_protocol, CrashSpec, FailurePattern, Outcome, SyncProtocol, Trace};
use setagree::types::{DenseView, IdSet, InputVector, ProcessId, ValueId, ValueTable, View};

// ---------------------------------------------------------------------
// The reference port: every operation written the obvious way over
// `Vec<Option<u32>>`, with no sharing of code with either engine.
// ---------------------------------------------------------------------

fn ref_count_bottom(entries: &[Option<u32>]) -> usize {
    entries.iter().filter(|e| e.is_none()).count()
}

fn ref_distinct(entries: &[Option<u32>]) -> BTreeSet<u32> {
    entries.iter().flatten().copied().collect()
}

fn ref_count_of(entries: &[Option<u32>], v: u32) -> usize {
    entries.iter().filter(|e| **e == Some(v)).count()
}

fn ref_count_in(entries: &[Option<u32>], values: &BTreeSet<u32>) -> usize {
    entries
        .iter()
        .filter(|e| e.is_some_and(|v| values.contains(&v)))
        .count()
}

fn ref_greatest_distinct(entries: &[Option<u32>], ell: usize) -> BTreeSet<u32> {
    ref_distinct(entries).into_iter().rev().take(ell).collect()
}

fn ref_merge_overwrite(mine: &[Option<u32>], theirs: &[Option<u32>]) -> Vec<Option<u32>> {
    mine.iter()
        .zip(theirs)
        .map(|(m, t)| if t.is_some() { *t } else { *m })
        .collect()
}

fn ref_merge_union(mine: &[Option<u32>], theirs: &[Option<u32>]) -> Vec<Option<u32>> {
    mine.iter()
        .zip(theirs)
        .map(|(m, t)| if m.is_some() { *m } else { *t })
        .collect()
}

fn ref_contained(inner: &[Option<u32>], outer: &[Option<u32>]) -> bool {
    inner.iter().zip(outer).all(|(a, b)| a.is_none() || a == b)
}

fn ref_complete_with(entries: &[Option<u32>], fill: u32) -> Vec<u32> {
    entries.iter().map(|e| e.unwrap_or(fill)).collect()
}

// ---------------------------------------------------------------------
// Harness helpers
// ---------------------------------------------------------------------

/// A table over the whole candidate value range, so every generated
/// entry (and some values no entry uses) interns.
fn table_over(range_max: u32) -> ValueTable<u32> {
    ValueTable::from_values(0..=range_max)
}

fn dense_of(table: &ValueTable<u32>, entries: &[Option<u32>]) -> DenseView {
    table.intern_view(&View::from_options(entries.to_vec()))
}

fn resolve_ids(table: &ValueTable<u32>, ids: &IdSet) -> BTreeSet<u32> {
    table.values_of(ids)
}

fn id_set_of(table: &ValueTable<u32>, values: &BTreeSet<u32>) -> IdSet {
    let mut ids = IdSet::empty(table);
    for v in values {
        ids.insert(table.id_of(v).expect("value in table"));
    }
    ids
}

/// System sizes probing every representation regime: inline slots
/// (n ≤ 16), heap slots, one presence word (n ≤ 64), and several words.
fn size_strategy() -> impl Strategy<Value = usize> {
    (0usize..=3, 1usize..=18, 60usize..=70).prop_map(|(pick, small, mid)| match pick {
        0 | 1 => small,
        2 => mid,
        _ => 130,
    })
}

const VALUE_MAX: u32 = 9;

fn entries_strategy(n: usize) -> impl Strategy<Value = Vec<Option<u32>>> {
    proptest::collection::vec(proptest::option::of(0u32..=VALUE_MAX), n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every `View` operation: dense (resolved through the table), the
    /// generic implementation, and the naive reference agree.
    #[test]
    fn dense_view_matches_reference(
        (a, b) in size_strategy().prop_flat_map(|n| (entries_strategy(n), entries_strategy(n))),
        fill in 0u32..=VALUE_MAX,
        ell in 0usize..=4,
        probe in proptest::collection::btree_set(0u32..=VALUE_MAX, 0..=4),
    ) {
        let table = table_over(VALUE_MAX);
        let dense_a = dense_of(&table, &a);
        let dense_b = dense_of(&table, &b);
        let generic_a = View::from_options(a.clone());

        // Interning round-trips exactly.
        prop_assert_eq!(&table.view(&dense_a), &generic_a);

        // Counts.
        prop_assert_eq!(dense_a.count_bottom(), ref_count_bottom(&a));
        prop_assert_eq!(dense_a.distinct_count(), ref_distinct(&a).len());
        prop_assert_eq!(generic_a.distinct_count(), ref_distinct(&a).len());
        for v in 0..=VALUE_MAX {
            let id = table.id_of(&v).expect("in table");
            prop_assert_eq!(dense_a.count_of(id), ref_count_of(&a, v));
            prop_assert_eq!(generic_a.count_of(&v), ref_count_of(&a, v));
        }
        prop_assert_eq!(
            dense_a.count_in(&id_set_of(&table, &probe)),
            ref_count_in(&a, &probe)
        );
        prop_assert_eq!(generic_a.count_in(&probe), ref_count_in(&a, &probe));

        // Extremes and top-ℓ selections.
        let ref_max = ref_distinct(&a).into_iter().next_back();
        prop_assert_eq!(dense_a.max_id().map(|id| *table.value(id)), ref_max);
        prop_assert_eq!(generic_a.max_value().copied(), ref_max);
        let ref_top = ref_greatest_distinct(&a, ell);
        prop_assert_eq!(resolve_ids(&table, &dense_a.greatest_distinct(ell)), ref_top.clone());
        prop_assert_eq!(generic_a.greatest_distinct(ell), ref_top.clone());
        prop_assert_eq!(dense_a.greatest_distinct_weight(ell), ref_count_in(&a, &ref_top));
        prop_assert_eq!(generic_a.greatest_distinct_weight(ell), ref_count_in(&a, &ref_top));

        // Containment, both directions.
        prop_assert_eq!(dense_a.is_contained_in(&dense_b), ref_contained(&a, &b));
        prop_assert_eq!(dense_b.is_contained_in(&dense_a), ref_contained(&b, &a));

        // Overwrite merge (the generic `merge_from` semantics).
        let merged_ref = ref_merge_overwrite(&a, &b);
        let mut merged_dense = dense_a.clone();
        merged_dense.merge_from(&dense_b);
        prop_assert_eq!(
            table.view(&merged_dense),
            View::from_options(merged_ref.clone())
        );

        // Union merge (`merge_missing_from`): for same-vector views —
        // the only way protocols merge — it agrees with overwrite; in
        // general it keeps the receiver's entries.
        let union_ref = ref_merge_union(&a, &b);
        let mut union_dense = dense_a.clone();
        union_dense.merge_missing_from(&dense_b);
        prop_assert_eq!(table.view(&union_dense), View::from_options(union_ref));

        // Completion and full-view conversion.
        let fill_id = table.id_of(&fill).expect("in table");
        prop_assert_eq!(
            table.vector(&dense_a.complete_with(fill_id)).into_entries(),
            ref_complete_with(&a, fill)
        );
        prop_assert_eq!(generic_a.complete_with(&fill).into_entries(), ref_complete_with(&a, fill));
        let ref_full: Option<Vec<u32>> = a.iter().copied().collect();
        prop_assert_eq!(
            dense_a.to_vector().map(|v| table.vector(&v).into_entries()),
            ref_full
        );
    }

    /// Every `InputVector` operation agrees with the reference (full
    /// vectors are views with no `⊥`).
    #[test]
    fn dense_vector_matches_reference(
        values in size_strategy()
            .prop_flat_map(|n| proptest::collection::vec(0u32..=VALUE_MAX, n)),
        ell in 0usize..=4,
        probe in proptest::collection::btree_set(0u32..=VALUE_MAX, 0..=4),
    ) {
        let table = table_over(VALUE_MAX);
        let generic = InputVector::new(values.clone());
        let dense = table.intern_vector(&generic);
        let as_opts: Vec<Option<u32>> = values.iter().copied().map(Some).collect();

        prop_assert_eq!(&table.vector(&dense), &generic);
        prop_assert_eq!(dense.distinct_count(), ref_distinct(&as_opts).len());
        for v in 0..=VALUE_MAX {
            let id = table.id_of(&v).expect("in table");
            prop_assert_eq!(dense.count_of(id), ref_count_of(&as_opts, v));
        }
        prop_assert_eq!(
            dense.count_in(&id_set_of(&table, &probe)),
            ref_count_in(&as_opts, &probe)
        );
        prop_assert_eq!(*table.value(dense.max_id()), *values.iter().max().expect("non-empty"));
        prop_assert_eq!(*table.value(dense.min_id()), *values.iter().min().expect("non-empty"));
        let ref_top = ref_greatest_distinct(&as_opts, ell);
        prop_assert_eq!(resolve_ids(&table, &dense.greatest_distinct(ell)), ref_top.clone());
        prop_assert_eq!(dense.greatest_distinct_weight(ell), ref_count_in(&as_opts, &ref_top));
        prop_assert_eq!(generic.greatest_distinct_weight(ell), ref_count_in(&as_opts, &ref_top));

        // The fully-observed view round-trips through both engines.
        prop_assert_eq!(table.view(&dense.to_view()), generic.to_view());
    }

    /// The `MaxCondition` dense oracle paths (membership, the analytic
    /// view predicate, Definition-4 decoding) agree with the generic
    /// oracle on random views.
    #[test]
    fn dense_oracle_matches_generic(
        entries in size_strategy().prop_flat_map(entries_strategy),
        x in 0usize..=6,
        ell in 1usize..=4,
    ) {
        use setagree::conditions::ConditionOracle;

        let params = LegalityParams::new(x, ell).expect("valid");
        let oracle = MaxCondition::new(params);
        let table = table_over(VALUE_MAX);
        let generic = View::from_options(entries.clone());
        let dense = table.intern_view(&generic);

        prop_assert_eq!(oracle.matches_dense(&dense), oracle.matches(&generic));
        prop_assert_eq!(
            oracle.decode_dense(&dense).map(|ids| resolve_ids(&table, &ids)),
            oracle.decode_view(&generic)
        );
    }
}

// ---------------------------------------------------------------------
// Trace equivalence: interned executions of the four protocol families
// ---------------------------------------------------------------------

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

const N: usize = 8;
const T: usize = 4;

fn config() -> ConditionBasedConfig {
    ConditionBasedConfig::builder(N, T, 2)
        .condition_degree(2)
        .ell(2)
        .build()
        .expect("valid")
}

/// Runs `make_raw` over `u32` proposals and `make_interned` over their
/// `ValueId`s and asserts the traces agree once ids resolve back
/// through `table`.
fn assert_interned_trace_equal<P, Q, F, G>(
    table: &ValueTable<u32>,
    make_raw: F,
    make_interned: G,
    pattern: &FailurePattern,
    limit: usize,
) where
    P: SyncProtocol<Output = u32>,
    Q: SyncProtocol<Output = ValueId>,
    F: FnOnce() -> Vec<P>,
    G: FnOnce() -> Vec<Q>,
{
    let raw: Trace<u32> = run_protocol(make_raw(), pattern, limit).expect("raw run");
    let interned: Trace<ValueId> = run_protocol(make_interned(), pattern, limit).expect("interned");
    let resolved: Vec<Outcome<u32>> = interned
        .outcomes()
        .iter()
        .map(|o| match o {
            Outcome::Decided { value, round } => Outcome::Decided {
                value: *table.value(*value),
                round: *round,
            },
            Outcome::Crashed { round } => Outcome::Crashed { round: *round },
            Outcome::Undecided => Outcome::Undecided,
        })
        .collect();
    assert_eq!(
        raw.outcomes(),
        &resolved[..],
        "interned execution diverged under {pattern}"
    );
    assert_eq!(raw.rounds_executed(), interned.rounds_executed());
    assert_eq!(raw.messages_delivered(), interned.messages_delivered());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// All four protocol families produce identical traces whether they
    /// run on raw values or on interned ids — interning is invisible to
    /// protocol semantics.
    #[test]
    fn interned_traces_match_raw_traces(
        entries in proptest::collection::vec(1u32..=5, N),
        pattern in pattern_strategy(N, T),
    ) {
        let cfg = config();
        let oracle = MaxCondition::new(cfg.legality());
        let limit = cfg.round_limit();
        let table = ValueTable::from_vector(&InputVector::new(entries.clone()));
        let ids: Vec<ValueId> = entries
            .iter()
            .map(|v| table.id_of(v).expect("interned"))
            .collect();

        assert_interned_trace_equal(
            &table,
            || (0..N).map(|i| ConditionBased::new(cfg, ProcessId::new(i), entries[i], oracle)).collect::<Vec<_>>(),
            || (0..N).map(|i| ConditionBased::new(cfg, ProcessId::new(i), ids[i], oracle)).collect::<Vec<_>>(),
            &pattern,
            limit,
        );
        assert_interned_trace_equal(
            &table,
            || (0..N).map(|i| EarlyConditionBased::new(cfg, ProcessId::new(i), entries[i], oracle)).collect::<Vec<_>>(),
            || (0..N).map(|i| EarlyConditionBased::new(cfg, ProcessId::new(i), ids[i], oracle)).collect::<Vec<_>>(),
            &pattern,
            limit,
        );
        assert_interned_trace_equal(
            &table,
            || entries.iter().map(|&v| FloodSet::new(T, 2, v)).collect::<Vec<_>>(),
            || ids.iter().map(|&id| FloodSet::new(T, 2, id)).collect::<Vec<_>>(),
            &pattern,
            limit,
        );
        assert_interned_trace_equal(
            &table,
            || entries.iter().map(|&v| EarlyDeciding::new(N, T, 2, v)).collect::<Vec<_>>(),
            || ids.iter().map(|&id| EarlyDeciding::new(N, T, 2, id)).collect::<Vec<_>>(),
            &pattern,
            limit,
        );
    }

    /// The dense flood protocol (interned views, union merges) decides
    /// exactly like a generic `View<u32>` flood under every adversary.
    #[test]
    fn dense_flood_matches_generic_flood(
        entries in proptest::collection::vec(1u32..=5, N),
        pattern in pattern_strategy(N, T),
        rounds in 1usize..=4,
    ) {
        #[derive(Debug, Clone)]
        struct GenericFlood {
            rounds: usize,
            view: View<u32>,
        }
        impl SyncProtocol for GenericFlood {
            type Msg = View<u32>;
            type Output = usize;
            fn message(&mut self, _round: usize) -> Self::Msg {
                self.view.clone()
            }
            fn receive(&mut self, _round: usize, _from: ProcessId, msg: &Self::Msg) {
                self.view.merge_from(msg);
            }
            fn compute(&mut self, round: usize) -> setagree::sync::Step<usize> {
                if round >= self.rounds {
                    setagree::sync::Step::Decide(self.view.distinct_count())
                } else {
                    setagree::sync::Step::Continue
                }
            }
        }

        let vector = InputVector::new(entries.clone());
        let table = ValueTable::from_vector(&vector);
        let inputs = table.intern_vector(&vector);

        let generic: Vec<GenericFlood> = (0..N)
            .map(|i| {
                let mut view = View::all_bottom(N);
                view.set(ProcessId::new(i), entries[i]);
                GenericFlood { rounds, view }
            })
            .collect();

        let dense_trace = run_protocol(DenseFlood::system(&inputs, rounds), &pattern, rounds + 1)
            .expect("dense");
        let generic_trace = run_protocol(generic, &pattern, rounds + 1).expect("generic");
        prop_assert_eq!(dense_trace.outcomes(), generic_trace.outcomes());
        prop_assert_eq!(dense_trace.rounds_executed(), generic_trace.rounds_executed());
        prop_assert_eq!(
            dense_trace.messages_delivered(),
            generic_trace.messages_delivered()
        );
    }
}
