//! The maximal condition generated by `max_ℓ` (Section 2.3, Theorem 2).
//!
//! `C_max(x, ℓ)` contains every input vector `I` whose ℓ greatest distinct
//! values occupy **more than** `x` entries:
//!
//! ```text
//! I ∈ C_max(x, ℓ)  ⟺  Σ_{v ∈ max_ℓ(I)} #_v(I) > x
//! ```
//!
//! Theorem 2 proves this condition is (x, ℓ)-legal with recognizing
//! function `max_ℓ`, and it is the *largest* such condition (adding any
//! vector breaks legality — `max_ℓ` is an (x, ℓ)-*generating* function).
//!
//! Unlike an explicit [`Condition`], `C_max` is defined
//! **analytically**: membership, the view predicate `P(J)` and the
//! Definition-4 decoding `h_ℓ(J)` each take one pass over the `n` entries
//! — a top-ℓ selection, `O(n log ℓ)` comparisons, no sort — without
//! enumerating the (exponentially many) member vectors: all three depend
//! only on the ℓ greatest distinct values present and their
//! multiplicities (plus `#_⊥(J)`). The closed forms are derived in the
//! module source and cross-checked in tests against the brute-force
//! Definition-4 computation on enumerated instances.
//!
//! # The analytic view decoding
//!
//! Let `J` be a view with `b = #_⊥(J)` missing entries and observed
//! distinct values `v_1 < … < v_q` with multiplicities `c_1 … c_q`. Write
//! `above(i) = Σ_{j>i} c_j` and `a_i = q − i` (the number of observed
//! distinct values greater than `v_i`). Over an unbounded-above value
//! domain:
//!
//! * **Predicate** `P(J)` (some completion of `J` lies in `C_max`): the
//!   densest completion fills every `⊥` with `max(J)`, so
//!   `P(J) ⟺ Σ_{top-ℓ observed} c + b > x` (and, for the all-`⊥` view,
//!   `n > x`).
//! * **Decoding** `h_ℓ(J) = ⋂_{I ∈ C_max, J ≤ I} max_ℓ(I) ∩ val(J)`:
//!   a completion *evicts* `v_i` iff it has ℓ distinct values above `v_i`
//!   and still satisfies density. Minting `g = ℓ − a_i` fresh values above
//!   `max(J)` and boosting them with the remaining fills achieves the
//!   maximal top-ℓ count `above(i) + b`; conversely any completion with ℓ
//!   distinct values above `v_i` has top-ℓ count at most `above(i) + b`.
//!   Hence
//!
//!   ```text
//!   v_i ∈ h_ℓ(J)  ⟺  a_i ≤ ℓ−1  ∧  ¬( b ≥ ℓ − a_i  ∧  above(i) + b > x )
//!   ```
//!
//! The unbounded-above assumption matches the paper's arbitrary value
//! universe `V`; for a *finite* universe enumerate the condition with
//! [`MaxCondition::enumerate`] and use an
//! [`ExplicitOracle`](crate::ExplicitOracle) instead.

use std::collections::BTreeSet;
use std::fmt;

use serde::{Deserialize, Serialize};

use setagree_types::{DenseView, IdSet, InputVector, ProcessId, ProposalValue, ValueId, View};

use crate::condition::Condition;
use crate::legality::LegalityParams;
use crate::oracle::ConditionOracle;

/// The maximal (x, ℓ)-legal condition generated by `max_ℓ` (Theorem 2),
/// with analytic membership and decoding.
///
/// # Example
///
/// ```
/// use setagree_conditions::{ConditionOracle, LegalityParams, MaxCondition};
/// use setagree_types::{InputVector, View};
///
/// let c = MaxCondition::new(LegalityParams::new(2, 1)?);
/// // 7 appears 3 > x = 2 times: member.
/// assert!(c.contains(&InputVector::new(vec![7, 7, 7, 1])));
/// // 7 appears only twice: not a member.
/// assert!(!c.contains(&InputVector::new(vec![7, 7, 2, 1])));
///
/// // A view with one missing entry still matches (the completion 7,7,7,1 works)...
/// let j = View::from_options(vec![Some(7), Some(7), None, Some(1)]);
/// assert!(c.matches(&j));
/// // ...and decodes to {7}.
/// assert_eq!(c.decode_view(&j), Some([7].into_iter().collect()));
/// # Ok::<(), setagree_conditions::ParamsError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MaxCondition {
    params: LegalityParams,
}

impl MaxCondition {
    /// The maximal condition for the given `(x, ℓ)`.
    pub const fn new(params: LegalityParams) -> Self {
        MaxCondition { params }
    }

    /// The legality parameters `(x, ℓ)`.
    pub const fn params(&self) -> LegalityParams {
        self.params
    }

    /// Membership test: `Σ_{v ∈ max_ℓ(I)} #_v(I) > x` — one top-ℓ
    /// selection pass, no sort, no value set materialized.
    pub fn contains<V: ProposalValue>(&self, vector: &InputVector<V>) -> bool {
        vector.greatest_distinct_weight(self.params.ell()) > self.params.x()
    }

    /// The recognizing function applied to a member vector: `max_ℓ(I)`.
    ///
    /// The result is meaningful only for members; callers deciding from a
    /// non-member get `max_ℓ` of it all the same (the function is total).
    pub fn decode<V: ProposalValue>(&self, vector: &InputVector<V>) -> BTreeSet<V> {
        vector.greatest_distinct(self.params.ell())
    }

    /// The view predicate `P(J)` on the dense engine — the id-bitmap
    /// counterpart of [`ConditionOracle::matches`].
    fn matches_dense(&self, view: &DenseView) -> bool {
        let b = view.count_bottom();
        if b == view.len() {
            return view.len() > self.params.x();
        }
        view.greatest_distinct_weight(self.params.ell()) + b > self.params.x()
    }

    /// The Definition-4 decoding `h_ℓ(J)` on the dense engine: the same
    /// analytic closed form as [`ConditionOracle::decode_view`], over an
    /// id-multiplicity pass — returns the decoded ids as an [`IdSet`]
    /// without cloning a value.
    pub fn decode_dense(&self, view: &DenseView) -> Option<IdSet> {
        if !self.matches_dense(view) {
            return None;
        }
        let b = view.count_bottom();
        let ell = self.params.ell();
        let x = self.params.x();
        let n = view.len();
        // Id multiplicities in one flat pass (the dense analogue of
        // `distinct_with_counts`; ids are already sort keys).
        let mut counts = vec![0usize; view.domain()];
        for i in 0..n {
            if let Some(id) = view.get(ProcessId::new(i)) {
                counts[id.index()] += 1;
            }
        }
        let mut decoded = IdSet::over(view.domain());
        let mut above = 0usize;
        let mut rank_from_top = 0usize;
        for (raw, &count) in counts.iter().enumerate().rev() {
            if count == 0 {
                continue;
            }
            let a_i = rank_from_top;
            if a_i >= ell {
                break;
            }
            if !evictable(b, a_i, above, ell, x) {
                decoded.insert(ValueId::new(raw as u32));
            }
            above += count;
            rank_from_top += 1;
        }
        Some(decoded)
    }

    /// Enumerates the condition over the value palette `{1, …, m}` for a
    /// system of `n` processes — exponential; intended for cross-checks and
    /// small-system experiments.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`, `n == 0`, or `m^n` exceeds `2^24` (an enumeration
    /// that large is certainly a mistake).
    pub fn enumerate(&self, n: usize, m: u32) -> Condition<u32> {
        let palette: Vec<u32> = (1..=m).collect();
        self.enumerate_over(n, &palette)
    }

    /// Enumerates the condition over an arbitrary finite value palette.
    ///
    /// # Panics
    ///
    /// Panics if the palette is empty, `n == 0`, or `|palette|^n > 2^24`.
    pub fn enumerate_over<V: ProposalValue>(&self, n: usize, palette: &[V]) -> Condition<V> {
        assert!(!palette.is_empty(), "palette must be non-empty");
        assert!(n > 0, "a condition needs a system of at least one process");
        let total = (palette.len() as u128)
            .checked_pow(n as u32)
            .expect("palette^n overflows");
        assert!(total <= 1 << 24, "enumeration of {total} vectors refused");

        let mut condition = Condition::new(n);
        let mut indices = vec![0usize; n];
        loop {
            let vector = InputVector::new(indices.iter().map(|&i| palette[i].clone()).collect());
            if self.contains(&vector) {
                condition
                    .insert(vector)
                    .expect("enumerated vectors have length n");
            }
            // Odometer increment.
            let mut pos = 0;
            loop {
                if pos == n {
                    return condition;
                }
                indices[pos] += 1;
                if indices[pos] < palette.len() {
                    break;
                }
                indices[pos] = 0;
                pos += 1;
            }
        }
    }
}

impl<V: ProposalValue> ConditionOracle<V> for MaxCondition {
    fn params(&self) -> LegalityParams {
        self.params
    }

    fn matches(&self, view: &View<V>) -> bool {
        let b = view.count_bottom();
        if b == view.len() {
            // All-⊥ view: any dense-enough completion works.
            return view.len() > self.params.x();
        }
        view.greatest_distinct_weight(self.params.ell()) + b > self.params.x()
    }

    fn decode_view(&self, view: &View<V>) -> Option<BTreeSet<V>> {
        let b = view.count_bottom();
        let ell = self.params.ell();
        let x = self.params.x();
        // One selection pass answers both questions: the ≤ ℓ greatest
        // observed values with their multiplicities, greatest first (so
        // a value's index is `a_i`, the number of observed distinct values
        // above it, and `a_i ≤ ℓ − 1` holds for every value returned).
        let top = view.greatest_with_counts(ell);
        // P(J). The all-⊥ view has nothing observed and b = n, so this
        // is `n > x` there, as in `matches`.
        let weight: usize = top.iter().map(|(_, count)| count).sum();
        if weight + b <= x {
            return None;
        }
        let mut decoded = BTreeSet::new();
        // `above` = Σ_{j > i} c_j, accumulated from the top down.
        let mut above = 0usize;
        for (a_i, (v, count)) in top.into_iter().enumerate() {
            if !evictable(b, a_i, above, ell, x) {
                decoded.insert(v.clone());
            }
            above += count;
        }
        Some(decoded)
    }
}

/// Definition 4's eviction rule, for both decoders: a completion of a
/// view with `b` missing entries evicts the observed value that has
/// `a_i ≤ ℓ − 1` distinct observed values and `above` observed entries
/// above it iff its `⊥`s can mint the `ℓ − a_i` distinct values still
/// missing above it and the completion stays dense (top-ℓ count > `x`).
#[inline]
fn evictable(b: usize, a_i: usize, above: usize, ell: usize, x: usize) -> bool {
    b >= ell - a_i && above + b > x
}

impl fmt::Display for MaxCondition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C_max{}", self.params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::legality::{self, decode_view as explicit_decode_view};
    use crate::recognizing::MaxEll;

    fn params(x: usize, ell: usize) -> LegalityParams {
        LegalityParams::new(x, ell).unwrap()
    }

    fn v(entries: &[u32]) -> InputVector<u32> {
        InputVector::new(entries.to_vec())
    }

    #[test]
    fn membership_counts_top_ell_occurrences() {
        let c = MaxCondition::new(params(2, 2));
        // top-2 = {8, 9}: 3 occurrences > 2 → member.
        assert!(c.contains(&v(&[9, 8, 8, 1])));
        // top-2 = {8, 9}: 2 occurrences ≤ 2 → not a member.
        assert!(!c.contains(&v(&[9, 8, 1, 2])));
    }

    #[test]
    fn enumerated_condition_is_legal_theorem_2() {
        for (x, ell) in [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2)] {
            let p = params(x, ell);
            let c = MaxCondition::new(p);
            let cond = c.enumerate(4, 3);
            assert!(
                legality::check(&cond, &MaxEll::new(ell), p).is_ok(),
                "C_max{p} over n=4, m=3 must be legal"
            );
        }
    }

    #[test]
    fn enumeration_matches_membership() {
        let c = MaxCondition::new(params(1, 1));
        let cond = c.enumerate(3, 3);
        for vector in &cond {
            assert!(c.contains(vector));
        }
        // Complement check on a handful of non-members.
        assert!(!cond.contains(&v(&[1, 2, 3])));
        assert!(cond.contains(&v(&[3, 3, 1])));
    }

    #[test]
    fn full_vector_decodes_to_max_ell() {
        let c = MaxCondition::new(params(1, 2));
        let i = v(&[4, 4, 7, 1]);
        assert_eq!(c.decode(&i), [4, 7].into_iter().collect());
        let view: View<u32> = i.into();
        assert_eq!(
            <MaxCondition as ConditionOracle<u32>>::decode_view(&c, &view),
            Some([4, 7].into_iter().collect())
        );
    }

    #[test]
    fn predicate_uses_densest_completion() {
        let c = MaxCondition::new(params(3, 1));
        // Observed: 5 twice; b = 2. Completion filling ⊥ with 5 yields 4 > 3.
        let j = View::from_options(vec![Some(5), Some(5), None, None, Some(1)]);
        assert!(c.matches(&j));
        // b = 1: best completion has 3 fives ≤ x = 3.
        let j2 = View::from_options(vec![Some(5), Some(5), None, Some(1), Some(1)]);
        assert!(!c.matches(&j2));
    }

    #[test]
    fn all_bottom_view_matches_iff_n_exceeds_x() {
        let c = MaxCondition::new(params(3, 1));
        assert!(c.matches(&View::<u32>::all_bottom(4)));
        assert!(!c.matches(&View::<u32>::all_bottom(3)));
        assert_eq!(
            c.decode_view(&View::<u32>::all_bottom(4)),
            Some(BTreeSet::new()),
            "no observed value can be decoded from an all-⊥ view"
        );
    }

    #[test]
    fn decode_view_none_when_predicate_false() {
        let c = MaxCondition::new(params(3, 1));
        let j = View::from_options(vec![Some(5), Some(5), None, Some(1), Some(1)]);
        assert_eq!(
            <MaxCondition as ConditionOracle<u32>>::decode_view(&c, &j),
            None
        );
    }

    #[test]
    fn top_value_survives_when_bottoms_within_x() {
        // Theorem 1 shape: b ≤ x ⇒ max(J) ∈ h(J).
        let c = MaxCondition::new(params(2, 1));
        let j = View::from_options(vec![Some(9), Some(9), Some(9), None, Some(1)]);
        let decoded = c.decode_view(&j).unwrap();
        assert!(decoded.contains(&9));
    }

    #[test]
    fn eviction_by_fresh_values() {
        // ℓ = 1, x = 2: J = (9, 9, ⊥, ⊥, ⊥). b = 3 ≥ ℓ − a = 1 and
        // above + b = 0 + 3 > 2: a completion (9,9,w,w,w) with fresh w > 9
        // is in C_max and evicts 9 → h(J) = ∅ even though P(J) holds.
        let c = MaxCondition::new(params(2, 1));
        let j = View::from_options(vec![Some(9), Some(9), None, None, None]);
        assert!(c.matches(&j));
        assert_eq!(c.decode_view(&j), Some(BTreeSet::new()));
    }

    /// Cross-check the analytic `decode_view` against the brute-force
    /// Definition-4 intersection over an enumerated `C_max`, for every view
    /// obtainable by erasing entries of member vectors.
    ///
    /// The enumeration palette is extended by ℓ fresh values above the view
    /// palette so the finite enumeration can express the adversary's fresh
    /// completions (the analytic form assumes an unbounded-above domain).
    #[test]
    fn analytic_decode_matches_definition_4() {
        fn all_views(n: usize, m: u32) -> Vec<View<u32>> {
            // Every view over entries in {⊥, 1, …, m}.
            let mut views = Vec::new();
            let mut idx = vec![0usize; n];
            'outer: loop {
                views.push(View::from_options(
                    idx.iter()
                        .map(|&i| if i == 0 { None } else { Some(i as u32) })
                        .collect(),
                ));
                let mut pos = 0;
                loop {
                    if pos == n {
                        break 'outer;
                    }
                    idx[pos] += 1;
                    if idx[pos] <= m as usize {
                        break;
                    }
                    idx[pos] = 0;
                    pos += 1;
                }
            }
            views
        }

        let n = 4;
        let m = 3u32;
        for (x, ell) in [(1usize, 1usize), (2, 1), (1, 2), (2, 2)] {
            let p = params(x, ell);
            let c = MaxCondition::new(p);
            // Views draw from {1..m}; completions may use {1..m+ℓ} so the
            // finite reference can express the adversary's fresh values.
            let big = c.enumerate(n, m + ell as u32);
            let h = MaxEll::new(ell);
            for view in all_views(n, m) {
                let analytic = c.decode_view(&view);
                let reference = explicit_decode_view(&big, &h, &view);
                assert_eq!(
                    analytic, reference,
                    "decode mismatch at {p} for view {view:?}"
                );
                assert_eq!(
                    <MaxCondition as ConditionOracle<u32>>::matches(&c, &view),
                    reference.is_some(),
                    "predicate mismatch at {p} for view {view:?}"
                );
            }
        }
    }

    /// The sort-based `decode_view` the selection kernel replaced, kept as
    /// the reference the new body is compared against: the predicate from
    /// one full sort-and-count, the decoding from a second.
    fn decode_view_by_sorting(c: &MaxCondition, view: &View<u32>) -> Option<BTreeSet<u32>> {
        let b = view.count_bottom();
        let ell = c.params.ell();
        let x = c.params.x();
        let matches = if b == view.len() {
            view.len() > x
        } else {
            let weight: usize = view
                .distinct_with_counts()
                .iter()
                .rev()
                .take(ell)
                .map(|(_, count)| count)
                .sum();
            weight + b > x
        };
        if !matches {
            return None;
        }
        let observed = view.distinct_with_counts();
        let mut decoded = BTreeSet::new();
        let mut above = 0usize;
        for (rank_from_top, (v, count)) in observed.iter().rev().enumerate() {
            let a_i = rank_from_top;
            if a_i >= ell {
                break;
            }
            let evictable = b >= ell - a_i && above + b > x;
            if !evictable {
                decoded.insert(**v);
            }
            above += count;
        }
        Some(decoded)
    }

    const REFERENCE_PARAMS: [(usize, usize); 6] = [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (2, 3)];

    fn assert_matches_sorting_reference(c: &MaxCondition, view: &View<u32>) {
        let reference = decode_view_by_sorting(c, view);
        assert_eq!(
            c.decode_view(view),
            reference,
            "decode mismatch at {c} for view {view}"
        );
        assert_eq!(
            c.matches(view),
            reference.is_some(),
            "predicate mismatch at {c} for view {view}"
        );
    }

    #[test]
    fn one_pass_decode_equals_the_sorting_reference_on_every_small_view() {
        // Every view over {⊥, 1, …, 4}^5, read off the base-5 digits.
        const N: usize = 5;
        const M: usize = 4;
        for (x, ell) in REFERENCE_PARAMS {
            let c = MaxCondition::new(params(x, ell));
            for mut code in 0..(M + 1).pow(N as u32) {
                let entries = (0..N)
                    .map(|_| {
                        let digit = code % (M + 1);
                        code /= M + 1;
                        (digit != 0).then_some(digit as u32)
                    })
                    .collect();
                assert_matches_sorting_reference(&c, &View::from_options(entries));
            }
        }
    }

    proptest::proptest! {
        /// Seeded random 64-entry views over a small domain (many
        /// duplicates), with `x` and the number of `⊥` entries drawn over
        /// their whole range so both predicate outcomes and both eviction
        /// outcomes occur.
        #[test]
        fn one_pass_decode_equals_the_sorting_reference_at_n_64(
            values in proptest::collection::vec(0u32..7, 64),
            bottoms in 0usize..=64,
            x in 0usize..64,
            ell in 1usize..=4,
        ) {
            let entries = values
                .into_iter()
                .enumerate()
                .map(|(i, v)| (i >= bottoms).then_some(v))
                .collect();
            let view = View::from_options(entries);
            assert_matches_sorting_reference(&MaxCondition::new(params(x, ell)), &view);
            for (x, ell) in REFERENCE_PARAMS {
                assert_matches_sorting_reference(&MaxCondition::new(params(x, ell)), &view);
            }
        }
    }

    #[test]
    fn display_names_the_condition() {
        let c = MaxCondition::new(params(1, 2));
        assert_eq!(c.to_string(), "C_max(x = 1, ℓ = 2)");
    }

    #[test]
    #[should_panic(expected = "refused")]
    fn oversized_enumeration_is_refused() {
        let c = MaxCondition::new(params(1, 1));
        let _ = c.enumerate(30, 10);
    }
}
