//! Views: input vectors with possibly-missing (`⊥`) entries.
//!
//! A *view* `J` is what a process observes of the input vector: entry `J[i]`
//! is either the value proposed by `p_i` or the default value `⊥` if `p_i`'s
//! proposal was not received (Section 2.1). `⊥` is represented by
//! [`Option::None`], which statically guarantees `⊥ ∉ V`.
//!
//! Views are partially ordered by *containment*: `J ≤ J'` iff every non-`⊥`
//! entry of `J` equals the corresponding entry of `J'`. The synchronous
//! model's ordered round-1 sends guarantee the views obtained by the
//! processes are totally ordered by containment, which the agreement proof
//! of the paper's algorithm relies on.

use std::collections::BTreeSet;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::process::ProcessId;
use crate::top;
use crate::value::ProposalValue;
use crate::vector::InputVector;

/// An input vector in which some entries may be `⊥` (unobserved).
///
/// # Example
///
/// ```
/// use setagree_types::{InputVector, View};
///
/// let smaller = View::from_options(vec![Some(1), None, None]);
/// let larger = View::from_options(vec![Some(1), Some(2), None]);
/// let full = InputVector::new(vec![1, 2, 3]);
///
/// assert!(smaller.is_contained_in(&larger));
/// assert!(larger.is_contained_in_vector(&full));
/// assert_eq!(smaller.count_bottom(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct View<V> {
    entries: Vec<Option<V>>,
}

impl<V: ProposalValue> View<V> {
    /// Creates a view from per-process optional values (`None` is `⊥`).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is empty.
    pub fn from_options(entries: Vec<Option<V>>) -> Self {
        assert!(!entries.is_empty(), "a view needs at least one entry");
        View { entries }
    }

    /// The all-`⊥` view over `n` processes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn all_bottom(n: usize) -> Self {
        assert!(n > 0, "a view needs at least one entry");
        View {
            entries: vec![None; n],
        }
    }

    /// The number of processes `n = |J|`.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Always `false`: views have at least one entry.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The entry observed for the given process (`None` is `⊥`).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a process of this system.
    pub fn get(&self, id: ProcessId) -> Option<&V> {
        self.entries[id.index()].as_ref()
    }

    /// Records the value proposed by `id`, overwriting `⊥` or a previous
    /// observation.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a process of this system.
    pub fn set(&mut self, id: ProcessId, v: V) {
        self.entries[id.index()] = Some(v);
    }

    /// Iterates over the entries in process order (`None` is `⊥`).
    pub fn iter(&self) -> std::slice::Iter<'_, Option<V>> {
        self.entries.iter()
    }

    /// `#_⊥(J)`: the number of `⊥` entries.
    pub fn count_bottom(&self) -> usize {
        self.entries.iter().filter(|e| e.is_none()).count()
    }

    /// `val(J)`: the set of distinct non-`⊥` values present in the view.
    pub fn distinct_values(&self) -> BTreeSet<V> {
        self.entries.iter().flatten().cloned().collect()
    }

    /// `|val(J)|`: the number of distinct non-`⊥` values, without cloning
    /// any value out of the view (mirrors
    /// [`InputVector::distinct_count`](crate::InputVector::distinct_count)
    /// — use it in checks that would otherwise materialize
    /// [`distinct_values`](View::distinct_values) only to take `.len()`).
    pub fn distinct_count(&self) -> usize {
        self.distinct_with_counts().len()
    }

    /// The distinct non-`⊥` values with their multiplicities, ascending —
    /// one sort of borrowed entries, **zero clones**, behind
    /// [`distinct_count`](View::distinct_count). Questions about the
    /// greatest values only ([`greatest_distinct`](View::greatest_distinct),
    /// the `C_max` checks) go through
    /// [`greatest_with_counts`](View::greatest_with_counts) instead, which
    /// does not sort.
    pub fn distinct_with_counts(&self) -> Vec<(&V, usize)> {
        // Sized up front: `flatten()` reports no lower bound, so a plain
        // `collect()` would grow the buffer one `realloc` at a time.
        let mut refs: Vec<&V> = Vec::with_capacity(self.len());
        refs.extend(self.entries.iter().flatten());
        refs.sort_unstable();
        let mut runs: Vec<(&V, usize)> = Vec::with_capacity(refs.len().min(16));
        for v in refs {
            match runs.last_mut() {
                Some((last, count)) if *last == v => *count += 1,
                _ => runs.push((v, 1)),
            }
        }
        runs
    }

    /// The `min(ℓ, |val(J)|)` greatest distinct non-`⊥` values, greatest
    /// first, each with its multiplicity `#_v(J)` — everything `C_max(x, ℓ)`
    /// asks of a view. One pass over the entries with a buffer of
    /// `min(ℓ, n)` slots, its only allocation: `O(n log ℓ)` comparisons
    /// and `O(n·ℓ)` slot moves at worst, no sort, zero clones.
    ///
    /// # Example
    ///
    /// ```
    /// use setagree_types::View;
    ///
    /// let j = View::from_options(vec![Some(5), None, Some(9), Some(5), Some(2)]);
    /// assert_eq!(j.greatest_with_counts(2), vec![(&9, 1), (&5, 2)]);
    /// ```
    pub fn greatest_with_counts(&self, ell: usize) -> Vec<(&V, usize)> {
        top::greatest_with_counts(self.entries.iter().flatten(), self.len(), ell)
    }

    /// `Σ_{v ∈ max_ℓ(J)} #_v(J)`: the total multiplicity of the `ℓ`
    /// greatest distinct observed values — the density `C_max` compares
    /// against `x` — in one selection pass with no value set materialized.
    pub fn greatest_distinct_weight(&self, ell: usize) -> usize {
        self.greatest_with_counts(ell)
            .iter()
            .map(|(_, count)| count)
            .sum()
    }

    /// `#_v(J)`: the number of non-`⊥` entries equal to `v`.
    pub fn count_of(&self, v: &V) -> usize {
        self.entries
            .iter()
            .filter(|e| e.as_ref() == Some(v))
            .count()
    }

    /// The total number of non-`⊥` entries whose value belongs to `values`.
    pub fn count_in(&self, values: &BTreeSet<V>) -> usize {
        self.entries
            .iter()
            .flatten()
            .filter(|v| values.contains(*v))
            .count()
    }

    /// The greatest non-`⊥` value (`max(V_i)` in Figure 2), or `None` if the
    /// view is all-`⊥`.
    pub fn max_value(&self) -> Option<&V> {
        self.entries.iter().flatten().max()
    }

    /// The `ℓ` greatest distinct non-`⊥` values (`max_ℓ(J)`). Clones only
    /// the `≤ ℓ` returned values, not the whole distinct set.
    pub fn greatest_distinct(&self, ell: usize) -> BTreeSet<V> {
        self.greatest_with_counts(ell)
            .into_iter()
            .map(|(v, _)| v.clone())
            .collect()
    }

    /// Containment `J ≤ J'`: every non-`⊥` entry of `self` equals the
    /// corresponding entry of `other`.
    ///
    /// # Panics
    ///
    /// Panics if the views have different lengths.
    pub fn is_contained_in(&self, other: &View<V>) -> bool {
        assert_eq!(self.len(), other.len(), "views over different systems");
        self.entries
            .iter()
            .zip(&other.entries)
            .all(|(a, b)| match a {
                None => true,
                Some(va) => b.as_ref() == Some(va),
            })
    }

    /// Containment `J ≤ I` against a full input vector.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn is_contained_in_vector(&self, vector: &InputVector<V>) -> bool {
        assert_eq!(self.len(), vector.len(), "view and vector lengths differ");
        self.entries
            .iter()
            .zip(vector.iter())
            .all(|(a, b)| match a {
                None => true,
                Some(va) => va == b,
            })
    }

    /// Converts to a full input vector if the view has no `⊥` entry.
    pub fn to_vector(&self) -> Option<InputVector<V>> {
        let entries: Option<Vec<V>> = self.entries.iter().cloned().collect();
        entries.map(InputVector::new)
    }

    /// Merges another view's observations into this one (entry-wise union;
    /// `other`'s non-`⊥` entries overwrite). For views of the *same* input
    /// vector — the only way protocols use it — the union is exactly the
    /// least upper bound in the containment order.
    ///
    /// # Panics
    ///
    /// Panics if the views have different lengths.
    ///
    /// # Example
    ///
    /// ```
    /// use setagree_types::View;
    ///
    /// let mut mine = View::from_options(vec![Some(1), None, None]);
    /// let theirs = View::from_options(vec![None, Some(2), None]);
    /// mine.merge_from(&theirs);
    /// assert_eq!(mine, View::from_options(vec![Some(1), Some(2), None]));
    /// ```
    pub fn merge_from(&mut self, other: &View<V>) {
        assert_eq!(self.len(), other.len(), "views over different systems");
        for (mine, theirs) in self.entries.iter_mut().zip(other.entries.iter()) {
            if let Some(v) = theirs {
                *mine = Some(v.clone());
            }
        }
    }

    /// Completes the view into a full vector by substituting `fill` for
    /// every `⊥` entry. Used by adversarial completion enumeration.
    pub fn complete_with(&self, fill: &V) -> InputVector<V> {
        InputVector::new(
            self.entries
                .iter()
                .map(|e| e.clone().unwrap_or_else(|| fill.clone()))
                .collect(),
        )
    }

    /// Consumes the view, returning its entries.
    pub fn into_entries(self) -> Vec<Option<V>> {
        self.entries
    }
}

impl<V: ProposalValue> From<InputVector<V>> for View<V> {
    fn from(vector: InputVector<V>) -> Self {
        View {
            entries: vector.into_entries().into_iter().map(Some).collect(),
        }
    }
}

impl<V: fmt::Display> fmt::Display for View<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            match e {
                Some(v) => write!(f, "{v}")?,
                None => write!(f, "⊥")?,
            }
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jv(entries: &[Option<u32>]) -> View<u32> {
        View::from_options(entries.to_vec())
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn empty_view_is_rejected() {
        let _ = View::<u32>::from_options(vec![]);
    }

    #[test]
    fn all_bottom_counts() {
        let j = View::<u32>::all_bottom(4);
        assert_eq!(j.count_bottom(), 4);
        assert_eq!(j.distinct_values(), BTreeSet::new());
        assert_eq!(j.distinct_count(), 0);
        assert_eq!(j.max_value(), None);
    }

    #[test]
    fn distinct_count_matches_distinct_values() {
        for entries in [
            vec![Some(1u32), Some(1), None, Some(2)],
            vec![Some(3), Some(2), Some(1)],
            vec![None, Some(7)],
        ] {
            let j = View::from_options(entries);
            assert_eq!(j.distinct_count(), j.distinct_values().len());
        }
    }

    #[test]
    fn set_and_get() {
        let mut j = View::all_bottom(3);
        j.set(ProcessId::new(1), 7u32);
        assert_eq!(j.get(ProcessId::new(1)), Some(&7));
        assert_eq!(j.get(ProcessId::new(0)), None);
        assert_eq!(j.count_bottom(), 2);
    }

    #[test]
    fn containment_is_reflexive_and_monotone() {
        let j1 = jv(&[Some(1), None, None]);
        let j2 = jv(&[Some(1), Some(2), None]);
        let j3 = jv(&[Some(1), Some(2), Some(3)]);
        assert!(j1.is_contained_in(&j1));
        assert!(j1.is_contained_in(&j2));
        assert!(j2.is_contained_in(&j3));
        assert!(j1.is_contained_in(&j3), "containment is transitive");
        assert!(!j2.is_contained_in(&j1));
    }

    #[test]
    fn containment_requires_matching_values() {
        let j1 = jv(&[Some(1), None]);
        let j2 = jv(&[Some(2), Some(2)]);
        assert!(!j1.is_contained_in(&j2));
    }

    #[test]
    fn containment_in_vector() {
        let i = InputVector::new(vec![1, 2, 3]);
        assert!(jv(&[None, Some(2), None]).is_contained_in_vector(&i));
        assert!(!jv(&[Some(9), None, None]).is_contained_in_vector(&i));
    }

    #[test]
    fn to_vector_requires_fullness() {
        assert_eq!(jv(&[Some(1), None]).to_vector(), None);
        assert_eq!(
            jv(&[Some(1), Some(2)]).to_vector(),
            Some(InputVector::new(vec![1, 2]))
        );
    }

    #[test]
    fn complete_with_fills_bottoms() {
        let j = jv(&[Some(1), None, Some(3)]);
        assert_eq!(j.complete_with(&9), InputVector::new(vec![1, 9, 3]));
    }

    #[test]
    fn count_helpers() {
        let j = jv(&[Some(1), Some(1), None, Some(2)]);
        assert_eq!(j.count_of(&1), 2);
        assert_eq!(j.count_in(&[1, 2].into_iter().collect()), 3);
        assert_eq!(j.greatest_distinct(1), [2].into_iter().collect());
    }

    #[test]
    fn merge_from_is_union_and_idempotent() {
        let mut a = jv(&[Some(1), None, Some(3)]);
        let b = jv(&[None, Some(2), Some(3)]);
        a.merge_from(&b);
        assert_eq!(a, jv(&[Some(1), Some(2), Some(3)]));
        let before = a.clone();
        a.merge_from(&b);
        assert_eq!(a, before, "merging again changes nothing");
    }

    #[test]
    fn merge_from_makes_the_least_upper_bound() {
        let a = jv(&[Some(1), None, None]);
        let b = jv(&[None, None, Some(3)]);
        let mut union = a.clone();
        union.merge_from(&b);
        assert!(a.is_contained_in(&union));
        assert!(b.is_contained_in(&union));
        assert_eq!(union.count_bottom(), 1);
    }

    #[test]
    #[should_panic(expected = "different systems")]
    fn merge_from_rejects_length_mismatch() {
        let mut a = jv(&[Some(1)]);
        a.merge_from(&View::from_options(vec![Some(1), Some(2)]));
    }

    #[test]
    fn display_prints_bottom() {
        assert_eq!(jv(&[Some(1), None]).to_string(), "[1, ⊥]");
    }

    #[test]
    fn from_vector_is_full() {
        let j: View<u32> = InputVector::new(vec![4, 5]).into();
        assert_eq!(j.count_bottom(), 0);
    }
}
