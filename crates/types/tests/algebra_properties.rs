//! Property-based tests for the vector/view algebra: the laws the rest of
//! the workspace silently relies on.

use std::collections::BTreeSet;

use proptest::prelude::*;

use setagree_types::{distance, InputVector, ProcessId, View};

fn vectors(n: usize, count: usize) -> impl Strategy<Value = Vec<InputVector<u32>>> {
    proptest::collection::vec(proptest::collection::vec(0u32..5, n), 1..=count)
        .prop_map(|vs| vs.into_iter().map(InputVector::new).collect())
}

fn view_of(n: usize) -> impl Strategy<Value = View<u32>> {
    proptest::collection::vec(proptest::option::of(0u32..5), n).prop_map(View::from_options)
}

/// What sorting everything gives: the values and total multiplicity of
/// the last `ell` runs of an ascending `distinct_with_counts`.
fn top_by_sorting(runs: &[(&u32, usize)], ell: usize) -> (BTreeSet<u32>, usize) {
    let top = runs.iter().rev().take(ell);
    (
        top.clone().map(|(v, _)| **v).collect(),
        top.map(|(_, count)| count).sum(),
    )
}

/// The one-pass top-ℓ selection behind `greatest_distinct` and
/// `greatest_distinct_weight` agrees with the sort-based reference on the
/// view of `entries`, on the full view and on the vector of its non-`⊥`
/// values, for every `ell` from 0 to two past the length.
fn assert_selection_matches_sorting(entries: &[Option<u32>]) {
    let observed: Vec<u32> = entries.iter().flatten().copied().collect();
    let view = View::from_options(entries.to_vec());
    for ell in 0..=entries.len() + 2 {
        let (values, weight) = top_by_sorting(&view.distinct_with_counts(), ell);
        assert_eq!(view.greatest_distinct(ell), values, "{view}, ℓ = {ell}");
        assert_eq!(
            view.greatest_distinct_weight(ell),
            weight,
            "{view}, ℓ = {ell}"
        );
        let held = view.greatest_with_counts(ell);
        assert!(
            held.windows(2).all(|pair| pair[0].0 > pair[1].0),
            "{view}: greatest first"
        );
        assert!(
            held.iter().all(|(v, count)| view.count_of(v) == *count),
            "{view}, ℓ = {ell}"
        );
        if observed.is_empty() {
            continue;
        }
        let vector = InputVector::new(observed.clone());
        let full = vector.to_view();
        let (values, weight) = top_by_sorting(&vector.distinct_with_counts(), ell);
        assert_eq!(vector.greatest_distinct(ell), values, "{vector}, ℓ = {ell}");
        assert_eq!(
            vector.greatest_distinct_weight(ell),
            weight,
            "{vector}, ℓ = {ell}"
        );
        assert_eq!(full.greatest_distinct(ell), values, "{full}, ℓ = {ell}");
        assert_eq!(
            full.greatest_distinct_weight(ell),
            weight,
            "{full}, ℓ = {ell}"
        );
    }
}

/// The input orders that steer the selection buffer through each of its
/// branches; `assert_selection_matches_sorting` adds ℓ = 0 and ℓ beyond
/// the distinct count to each.
#[test]
fn top_selection_matches_sorting_on_adversarial_orders() {
    let ascending: Vec<Option<u32>> = (0..9).map(Some).collect();
    let descending: Vec<Option<u32>> = (0..9).rev().map(Some).collect();
    // Every entry a new maximum, each evicted value returning later.
    let sawtooth: Vec<Option<u32>> = (0..12).map(|i| Some(i % 4 + i / 4)).collect();
    for entries in [
        ascending,
        descending,
        sawtooth,
        vec![Some(3); 7],
        vec![None; 5],
        vec![None, Some(2), None, Some(2), Some(1), None],
        vec![Some(4)],
    ] {
        assert_selection_matches_sorting(&entries);
    }
}

proptest! {
    /// Random views over a small domain (many duplicates, `⊥` in one
    /// entry of four): selection ≡ sorting.
    #[test]
    fn top_selection_matches_sorting(
        entries in proptest::collection::vec(proptest::option::of(0u32..5), 1..=12),
    ) {
        assert_selection_matches_sorting(&entries);
    }

    /// d_H is a metric: identity, symmetry, triangle inequality.
    #[test]
    fn hamming_is_a_metric(
        a in proptest::collection::vec(0u32..5, 6),
        b in proptest::collection::vec(0u32..5, 6),
        c in proptest::collection::vec(0u32..5, 6),
    ) {
        let (a, b, c) = (InputVector::new(a), InputVector::new(b), InputVector::new(c));
        prop_assert_eq!(distance::hamming(&a, &a), 0);
        prop_assert_eq!(distance::hamming(&a, &b), distance::hamming(&b, &a));
        prop_assert!(
            distance::hamming(&a, &c)
                <= distance::hamming(&a, &b) + distance::hamming(&b, &c)
        );
    }

    /// d_G generalizes d_H: pairwise max ≤ d_G ≤ sum of pairwise distances,
    /// and d_G is monotone under adding vectors.
    #[test]
    fn generalized_distance_bounds(vs in vectors(5, 4)) {
        let refs: Vec<&InputVector<u32>> = vs.iter().collect();
        let dg = distance::generalized(&refs);
        let mut pair_max = 0;
        let mut pair_sum = 0;
        for i in 0..vs.len() {
            for j in (i + 1)..vs.len() {
                let d = distance::hamming(&vs[i], &vs[j]);
                pair_max = pair_max.max(d);
                pair_sum += d;
            }
        }
        if vs.len() >= 2 {
            prop_assert!(dg >= pair_max, "d_G dominates every pairwise d_H");
            prop_assert!(dg <= pair_sum.max(pair_max), "d_G ≤ total disagreement");
        }
        // Monotone: dropping the last vector cannot increase d_G.
        if vs.len() >= 2 {
            let fewer = distance::generalized(&refs[..refs.len() - 1]);
            prop_assert!(fewer <= dg);
        }
    }

    /// The intersecting vector is the greatest lower bound: contained in
    /// every vector, with exactly n − d_G defined entries, and any view
    /// contained in all vectors is contained in it.
    #[test]
    fn intersecting_vector_is_meet(vs in vectors(5, 3), j in view_of(5)) {
        let refs: Vec<&InputVector<u32>> = vs.iter().collect();
        let inter = distance::intersecting_vector(&refs);
        for v in &vs {
            prop_assert!(inter.is_contained_in_vector(v));
        }
        prop_assert_eq!(
            inter.len() - inter.count_bottom(),
            5 - distance::generalized(&refs)
        );
        if vs.iter().all(|v| j.is_contained_in_vector(v)) {
            prop_assert!(j.is_contained_in(&inter), "meet property");
        }
    }

    /// Containment is a partial order: reflexive, antisymmetric,
    /// transitive.
    #[test]
    fn containment_is_a_partial_order(
        a in view_of(5),
        b in view_of(5),
        c in view_of(5),
    ) {
        prop_assert!(a.is_contained_in(&a));
        if a.is_contained_in(&b) && b.is_contained_in(&a) {
            prop_assert_eq!(&a, &b);
        }
        if a.is_contained_in(&b) && b.is_contained_in(&c) {
            prop_assert!(a.is_contained_in(&c));
        }
    }

    /// Counting identities: distinct occurrences sum to the defined-entry
    /// count; count_in distributes over disjoint sets.
    #[test]
    fn occurrence_counts_are_consistent(j in view_of(6)) {
        let defined = j.len() - j.count_bottom();
        let total: usize = j.distinct_values().iter().map(|v| j.count_of(v)).sum();
        prop_assert_eq!(total, defined);
        let all = j.distinct_values();
        prop_assert_eq!(j.count_in(&all), defined);
    }

    /// max_ℓ/min_ℓ extraction: sizes, ordering, and complementarity.
    #[test]
    fn extremal_extraction_laws(
        entries in proptest::collection::vec(0u32..6, 6),
        ell in 1usize..=6,
    ) {
        let i = InputVector::new(entries);
        let top = i.greatest_distinct(ell);
        let bottom = i.smallest_distinct(ell);
        let distinct = i.distinct_count();
        prop_assert_eq!(top.len(), ell.min(distinct));
        prop_assert_eq!(bottom.len(), ell.min(distinct));
        // Every non-top value is below every top value.
        let all = i.distinct_values();
        for v in all.difference(&top) {
            for t in &top {
                prop_assert!(v < t);
            }
        }
        if 2 * ell >= distinct {
            // top and bottom together cover everything.
            let union: std::collections::BTreeSet<u32> =
                top.union(&bottom).cloned().collect();
            prop_assert_eq!(union, all);
        }
    }

    /// View mutation: setting an entry makes exactly that entry defined.
    #[test]
    fn set_affects_one_entry(j in view_of(5), idx in 0usize..5, v in 0u32..5) {
        let mut j2 = j.clone();
        j2.set(ProcessId::new(idx), v);
        prop_assert_eq!(j2.get(ProcessId::new(idx)), Some(&v));
        for other in 0..5 {
            if other != idx {
                prop_assert_eq!(j.get(ProcessId::new(other)), j2.get(ProcessId::new(other)));
            }
        }
    }

    /// Round-trips: vector → view → vector, and completion containment.
    #[test]
    fn vector_view_round_trip(entries in proptest::collection::vec(0u32..5, 5), fill in 0u32..5) {
        let i = InputVector::new(entries);
        let j = i.to_view();
        let rebuilt = j.to_vector();
        prop_assert_eq!(rebuilt.as_ref(), Some(&i));
        prop_assert!(j.is_contained_in_vector(&i));
        // Any view completed with a constant contains the original view.
        let partial = View::from_options(
            i.iter().enumerate().map(|(k, v)| if k % 2 == 0 { Some(*v) } else { None }).collect(),
        );
        let completed = partial.complete_with(&fill);
        prop_assert!(partial.is_contained_in_vector(&completed));
    }
}
