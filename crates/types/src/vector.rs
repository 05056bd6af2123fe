//! Input vectors.
//!
//! An *input vector* `I` has one entry per process: `I[i]` is the value
//! proposed by `p_i` (Section 2.1). Unlike a [`View`], an
//! input vector has **no** `⊥` entries — it is the ground truth of an
//! execution, of which processes observe views.

use std::collections::BTreeSet;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::process::ProcessId;
use crate::top;
use crate::value::ProposalValue;
use crate::view::View;

/// A vector with one proposed value per process (no `⊥` entries).
///
/// # Example
///
/// ```
/// use setagree_types::{InputVector, ProcessId};
///
/// let i = InputVector::new(vec![3, 1, 3, 2]);
/// assert_eq!(i.len(), 4);
/// assert_eq!(*i.get(ProcessId::new(0)), 3);
/// // val(I): the set of distinct values present in I.
/// assert_eq!(i.distinct_values(), [1, 2, 3].into_iter().collect());
/// // #_3(I): the number of occurrences of 3 in I.
/// assert_eq!(i.count_of(&3), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct InputVector<V> {
    entries: Vec<V>,
}

impl<V: ProposalValue> InputVector<V> {
    /// Creates an input vector from one value per process.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is empty: the paper assumes `n ≥ 1`.
    pub fn new(entries: Vec<V>) -> Self {
        assert!(
            !entries.is_empty(),
            "an input vector needs at least one entry"
        );
        InputVector { entries }
    }

    /// The number of processes `n = |I|`.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Always `false`: input vectors have at least one entry.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The value proposed by the given process.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a process of this system (index ≥ n).
    pub fn get(&self, id: ProcessId) -> &V {
        &self.entries[id.index()]
    }

    /// Iterates over the entries in process order `p_1 … p_n`.
    pub fn iter(&self) -> std::slice::Iter<'_, V> {
        self.entries.iter()
    }

    /// Borrows the entries as a slice, in process order.
    pub fn as_slice(&self) -> &[V] {
        &self.entries
    }

    /// `val(I)`: the set of distinct values present in the vector.
    pub fn distinct_values(&self) -> BTreeSet<V> {
        self.entries.iter().cloned().collect()
    }

    /// `|val(I)|`: the number of distinct values, without allocating the set
    /// contents beyond what ordering requires.
    pub fn distinct_count(&self) -> usize {
        self.distinct_with_counts().len()
    }

    /// The distinct values with their multiplicities, ascending — one
    /// sort of borrowed entries, zero clones (the counterpart of
    /// [`View::distinct_with_counts`](crate::View::distinct_with_counts)).
    pub fn distinct_with_counts(&self) -> Vec<(&V, usize)> {
        let mut refs: Vec<&V> = Vec::with_capacity(self.len());
        refs.extend(self.entries.iter());
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

    /// The `min(ℓ, |val(I)|)` greatest distinct values, greatest first,
    /// each with its multiplicity `#_v(I)` — one pass with an ℓ-slot
    /// buffer, no sort (the counterpart of
    /// [`View::greatest_with_counts`](crate::View::greatest_with_counts)).
    pub fn greatest_with_counts(&self, ell: usize) -> Vec<(&V, usize)> {
        top::greatest_with_counts(self.entries.iter(), self.len(), ell)
    }

    /// `Σ_{v ∈ max_ℓ(I)} #_v(I)`: the total multiplicity of the `ℓ`
    /// greatest distinct values — the density the paper's `C_max(x, ℓ)`
    /// membership compares against `x` — without materializing any value
    /// set.
    pub fn greatest_distinct_weight(&self, ell: usize) -> usize {
        self.greatest_with_counts(ell)
            .iter()
            .map(|(_, count)| count)
            .sum()
    }

    /// `#_v(I)`: the number of entries equal to `v`.
    pub fn count_of(&self, v: &V) -> usize {
        self.entries.iter().filter(|e| *e == v).count()
    }

    /// The total number of entries whose value belongs to `values`
    /// (`Σ_{v ∈ values} #_v(I)` — the quantity bounded by the paper's
    /// *density* property).
    pub fn count_in(&self, values: &BTreeSet<V>) -> usize {
        self.entries.iter().filter(|e| values.contains(*e)).count()
    }

    /// The greatest value of the vector (`max(I)`).
    pub fn max_value(&self) -> &V {
        self.entries
            .iter()
            .max()
            .expect("input vectors are non-empty")
    }

    /// The `ℓ` greatest **distinct** values of the vector — the paper's
    /// `max_ℓ(I)` (Section 2.3). Returns `min(ℓ, |val(I)|)` values.
    ///
    /// # Example
    ///
    /// ```
    /// use setagree_types::InputVector;
    ///
    /// let i = InputVector::new(vec![5, 2, 5, 9]);
    /// assert_eq!(i.greatest_distinct(2), [5, 9].into_iter().collect());
    /// ```
    pub fn greatest_distinct(&self, ell: usize) -> BTreeSet<V> {
        self.greatest_with_counts(ell)
            .into_iter()
            .map(|(v, _)| v.clone())
            .collect()
    }

    /// The `ℓ` smallest distinct values — the paper's `min_ℓ(I)`.
    pub fn smallest_distinct(&self, ell: usize) -> BTreeSet<V> {
        self.distinct_with_counts()
            .iter()
            .take(ell)
            .map(|(v, _)| (*v).clone())
            .collect()
    }

    /// The full view of this vector: every entry observed, none `⊥`.
    pub fn to_view(&self) -> View<V> {
        View::from_options(self.entries.iter().cloned().map(Some).collect())
    }

    /// Consumes the vector, returning its entries.
    pub fn into_entries(self) -> Vec<V> {
        self.entries
    }
}

impl<V: ProposalValue> From<Vec<V>> for InputVector<V> {
    /// Equivalent to [`InputVector::new`].
    ///
    /// # Panics
    ///
    /// Panics if `entries` is empty.
    fn from(entries: Vec<V>) -> Self {
        InputVector::new(entries)
    }
}

impl<'a, V: ProposalValue> IntoIterator for &'a InputVector<V> {
    type Item = &'a V;
    type IntoIter = std::slice::Iter<'a, V>;
    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter()
    }
}

impl<V: ProposalValue> IntoIterator for InputVector<V> {
    type Item = V;
    type IntoIter = std::vec::IntoIter<V>;
    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}

impl<V: fmt::Display> fmt::Display for InputVector<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(entries: &[u32]) -> InputVector<u32> {
        InputVector::new(entries.to_vec())
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn empty_vector_is_rejected() {
        let _ = InputVector::<u32>::new(vec![]);
    }

    #[test]
    fn get_indexes_by_process() {
        let i = v(&[10, 20, 30]);
        assert_eq!(*i.get(ProcessId::new(1)), 20);
    }

    #[test]
    fn distinct_values_and_count() {
        let i = v(&[1, 1, 2, 3, 3, 3]);
        assert_eq!(i.distinct_values(), [1, 2, 3].into_iter().collect());
        assert_eq!(i.distinct_count(), 3);
        assert_eq!(i.count_of(&3), 3);
        assert_eq!(i.count_of(&9), 0);
    }

    #[test]
    fn count_in_sums_occurrences() {
        let i = v(&[1, 1, 2, 3]);
        let set: BTreeSet<u32> = [1, 3].into_iter().collect();
        assert_eq!(i.count_in(&set), 3);
        assert_eq!(i.count_in(&BTreeSet::new()), 0);
    }

    #[test]
    fn min_max_values() {
        let i = v(&[4, 2, 9, 2]);
        assert_eq!(*i.max_value(), 9);
    }

    #[test]
    fn greatest_distinct_takes_top_ell() {
        let i = v(&[5, 2, 5, 9, 1]);
        assert_eq!(i.greatest_distinct(1), [9].into_iter().collect());
        assert_eq!(i.greatest_distinct(2), [9, 5].into_iter().collect());
        assert_eq!(i.greatest_distinct(10), [1, 2, 5, 9].into_iter().collect());
        assert_eq!(i.greatest_distinct(0), BTreeSet::new());
    }

    #[test]
    fn smallest_distinct_takes_bottom_ell() {
        let i = v(&[5, 2, 5, 9, 1]);
        assert_eq!(i.smallest_distinct(2), [1, 2].into_iter().collect());
    }

    #[test]
    fn to_view_has_no_bottom() {
        let i = v(&[1, 2]);
        let j = i.to_view();
        assert_eq!(j.count_bottom(), 0);
        assert!(j.is_contained_in_vector(&i));
    }

    #[test]
    fn display_formats_like_a_vector() {
        assert_eq!(v(&[1, 2, 3]).to_string(), "[1, 2, 3]");
    }

    #[test]
    fn iteration_yields_entries_in_order() {
        let i = v(&[7, 8]);
        assert_eq!(i.iter().copied().collect::<Vec<_>>(), vec![7, 8]);
        assert_eq!((&i).into_iter().count(), 2);
        assert_eq!(i.clone().into_iter().collect::<Vec<_>>(), vec![7, 8]);
        assert_eq!(i.into_entries(), vec![7, 8]);
    }
}
