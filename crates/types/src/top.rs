//! One-pass top-ℓ selection: the kernel behind `max_ℓ` and the density
//! `Σ_{v ∈ max_ℓ} #_v` on both [`View`](crate::View) and
//! [`InputVector`](crate::InputVector).
//!
//! `C_max(x, ℓ)` asks only about the ℓ greatest *distinct* values and how
//! often each occurs, so nothing below them needs ordering: one pass over
//! the entries with an ℓ-slot buffer answers it, where a sort orders all
//! `n` entries to read off the last ℓ runs.

/// The `min(ℓ, |val|)` greatest distinct values among `entries`, greatest
/// first, each with its multiplicity. `len` bounds the number of entries
/// (it only sizes the buffer, so `ℓ > len` costs nothing).
///
/// The buffer is allocated once at `min(ℓ, len)` slots and kept ordered
/// greatest-first. Once it is full its last slot is the `floor`, the
/// smallest value that still counts, held in a local: an entry below it —
/// one that cannot enter — costs a single comparison. Any other entry is
/// located by binary search and, if new, inserted by shifting the smaller
/// slots down (the floor drops out). Worst case (ascending input, every
/// entry a new maximum): `O(n log ℓ)` comparisons and `O(n·ℓ)` slot moves
/// of one `(&V, usize)` pair each; no sort, no allocation but the buffer,
/// no reallocation.
pub(crate) fn greatest_with_counts<'a, V: Ord>(
    entries: impl Iterator<Item = &'a V>,
    len: usize,
    ell: usize,
) -> Vec<(&'a V, usize)> {
    let slots = ell.min(len);
    let mut top: Vec<(&V, usize)> = Vec::with_capacity(slots);
    if slots == 0 {
        return top;
    }
    let mut floor: Option<&V> = None;
    for v in entries {
        if floor.is_some_and(|floor| v < floor) {
            continue;
        }
        // Greatest-first order: a slot sorts before `v` iff it is greater.
        match top.binary_search_by(|(held, _)| v.cmp(held)) {
            Ok(at) => top[at].1 += 1,
            Err(at) => {
                if top.len() == slots {
                    top.pop();
                }
                top.insert(at, (v, 1));
                if top.len() == slots {
                    floor = Some(top[slots - 1].0);
                }
            }
        }
    }
    top
}

#[cfg(test)]
mod tests {
    use super::*;

    fn top(entries: &[u32], ell: usize) -> Vec<(u32, usize)> {
        greatest_with_counts(entries.iter(), entries.len(), ell)
            .into_iter()
            .map(|(v, count)| (*v, count))
            .collect()
    }

    #[test]
    fn keeps_the_greatest_distinct_values_with_their_counts() {
        let entries = [3, 9, 1, 9, 5, 3, 9, 5];
        assert_eq!(top(&entries, 1), [(9, 3)]);
        assert_eq!(top(&entries, 2), [(9, 3), (5, 2)]);
        assert_eq!(top(&entries, 3), [(9, 3), (5, 2), (3, 2)]);
    }

    #[test]
    fn ell_zero_and_ell_beyond_the_distinct_count() {
        let entries = [2, 7, 2];
        assert_eq!(top(&entries, 0), []);
        assert_eq!(top(&entries, 2), [(7, 1), (2, 2)]);
        assert_eq!(top(&entries, usize::MAX), [(7, 1), (2, 2)]);
        assert_eq!(top(&[], 3), []);
    }

    #[test]
    fn a_late_maximum_evicts_the_smallest_held_value() {
        // Ascending input: every entry is a new maximum.
        assert_eq!(top(&[1, 2, 3, 4, 5], 2), [(5, 1), (4, 1)]);
        // An evicted value that shows up again stays out.
        assert_eq!(top(&[1, 2, 3, 1, 1], 2), [(3, 1), (2, 1)]);
    }
}
