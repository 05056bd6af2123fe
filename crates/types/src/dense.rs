//! The dense interned-value view.
//!
//! Every protocol of the paper runs on the generic [`View`]/[`InputVector`].
//! This module keeps a second representation for one job: a view flood at
//! large `n`, where a round is `n²` deliveries and each delivery is an
//! entry-wise merge of an `n`-entry view (`DenseFlood` in `setagree-core`;
//! `MaxCondition::decode_dense` in `setagree-conditions` decodes the same
//! views).
//!
//! Proposal values are interned once into a per-system [`ValueTable`]
//! (sorted and deduped, so **id order is value order**), and a view becomes
//! a flat process-indexed array of [`ValueId`]s with a presence bitmap:
//!
//! * [`DenseView`]/[`DenseVector`] hold one `u32` id per process — no heap
//!   allocation at all for systems of `n ≤ 16` processes (the inline
//!   representation), one flat allocation above that;
//! * the `⊥` count is maintained incrementally, so
//!   [`DenseView::count_bottom`] is an O(1) read;
//! * [`DenseView::merge_from`] walks the presence bitmap a word (64
//!   entries) at a time and [`DenseView::merge_missing_from`] skips
//!   already-saturated words entirely — O(n/64) per delivery, and O(1)
//!   once the receiver has no `⊥` left, the steady state of a flood;
//! * [`DenseView::distinct_count`] and
//!   [`DenseView::greatest_distinct_weight`] are counting passes over id
//!   bitmaps ([`IdSet`]) that clone no value.
//!
//! [`ValueTable::intern_view`] and [`ValueTable::view`] translate between
//! the two representations; the `dense_equivalence` suite pins every
//! operation here to the generic one through them.
//!
//! # Example
//!
//! ```
//! use setagree_types::{DenseView, InputVector, ProcessId, ValueTable};
//!
//! let input = InputVector::new(vec![30u32, 10, 30, 20]);
//! let table = ValueTable::from_vector(&input);
//! assert_eq!(table.len(), 3); // {10, 20, 30} interned, sorted
//!
//! let mut mine = DenseView::all_bottom(4, &table);
//! mine.set(ProcessId::new(0), table.id_of(&30).unwrap());
//! let mut theirs = DenseView::all_bottom(4, &table);
//! theirs.set(ProcessId::new(1), table.id_of(&10).unwrap());
//!
//! mine.merge_missing_from(&theirs);
//! assert_eq!(mine.count_bottom(), 2);
//! assert_eq!(mine.distinct_count(), 2);
//! assert_eq!(table.view(&mine).get(ProcessId::new(1)), Some(&10));
//! ```

use crate::process::ProcessId;
use crate::value::ProposalValue;
use crate::vector::InputVector;
use crate::view::View;

/// The index of an interned proposal value in its [`ValueTable`].
///
/// Tables are sorted: `a < b` as values implies `id_of(a) < id_of(b)` —
/// every order-based operation (`max`, `max_ℓ`) runs on raw ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ValueId(u32);

impl ValueId {
    /// Wraps a raw table index. Meaningful only against the table that
    /// produced it (see [`ValueTable::id_of`]).
    pub const fn new(raw: u32) -> Self {
        ValueId(raw)
    }

    /// The raw table index.
    pub const fn get(self) -> u32 {
        self.0
    }

    /// The index as a `usize`.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

/// The interned, sorted value domain of one system: every distinct value
/// the scenario can propose, mapped to a dense [`ValueId`] once at
/// construction.
///
/// Sorting is the engine's load-bearing invariant: id order **is** value
/// order, so the paper's recognizing functions (`max_ℓ`, `min_ℓ`) and the
/// Figure 2 `max` folds need never touch a `V` again.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ValueTable<V> {
    values: Vec<V>,
}

impl<V: ProposalValue> ValueTable<V> {
    /// Interns every distinct value of `values`, sorted ascending.
    ///
    /// # Panics
    ///
    /// Panics if the iterator yields no value, or more than `u32::MAX`
    /// distinct values.
    pub fn from_values(values: impl IntoIterator<Item = V>) -> Self {
        let mut values: Vec<V> = values.into_iter().collect();
        assert!(!values.is_empty(), "a value table needs at least one value");
        values.sort_unstable();
        values.dedup();
        assert!(
            u32::try_from(values.len()).is_ok(),
            "value domain exceeds u32 ids"
        );
        ValueTable { values }
    }

    /// The table of an input vector's value domain — the natural
    /// construction point: one table per scenario, at scenario build time.
    pub fn from_vector(vector: &InputVector<V>) -> Self {
        Self::from_values(vector.iter().cloned())
    }

    /// The number of distinct interned values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Always `false`: tables hold at least one value.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The id of `v`, or `None` if `v` is outside the interned domain.
    pub fn id_of(&self, v: &V) -> Option<ValueId> {
        self.values.binary_search(v).ok().map(|i| ValueId(i as u32))
    }

    /// The value behind an id.
    ///
    /// # Panics
    ///
    /// Panics if the id is not from this table.
    pub fn value(&self, id: ValueId) -> &V {
        &self.values[id.index()]
    }

    /// Interns a full input vector.
    ///
    /// # Panics
    ///
    /// Panics if an entry is outside the table's domain.
    pub fn intern_vector(&self, vector: &InputVector<V>) -> DenseVector {
        let ids = vector.iter().map(|v| {
            self.id_of(v)
                .expect("input vector entry outside the interned domain")
        });
        DenseVector::from_ids(self.len(), ids)
    }

    /// Interns a view (`⊥` entries stay `⊥`).
    ///
    /// # Panics
    ///
    /// Panics if an observed entry is outside the table's domain.
    pub fn intern_view(&self, view: &View<V>) -> DenseView {
        let mut dense = DenseView::all_bottom(view.len(), self);
        for (i, entry) in view.iter().enumerate() {
            if let Some(v) = entry {
                let id = self
                    .id_of(v)
                    .expect("view entry outside the interned domain");
                dense.set(ProcessId::new(i), id);
            }
        }
        dense
    }

    /// Resolves a dense view back to owned values.
    ///
    /// # Panics
    ///
    /// Panics if the view was interned against a different table.
    pub fn view(&self, dense: &DenseView) -> View<V> {
        View::from_options(
            dense
                .as_slots()
                .iter()
                .map(|&slot| {
                    if slot == BOTTOM {
                        None
                    } else {
                        Some(self.values[slot as usize].clone())
                    }
                })
                .collect(),
        )
    }
}

/// The slot sentinel for `⊥` (absent) entries.
const BOTTOM: u32 = u32::MAX;

/// Entries inline up to this system size — a 16-process view lives
/// entirely on the stack.
const INLINE_SLOTS: usize = 16;

/// Per-process id slots: inline for `n ≤ 16`, one flat allocation above.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum Slots {
    /// `n ≤ INLINE_SLOTS`; unused trailing slots stay `BOTTOM` so the
    /// derived equality and hash are canonical.
    Inline([u32; INLINE_SLOTS]),
    Heap(Vec<u32>),
}

impl Slots {
    fn bottom(n: usize) -> Self {
        if n <= INLINE_SLOTS {
            Slots::Inline([BOTTOM; INLINE_SLOTS])
        } else {
            Slots::Heap(vec![BOTTOM; n])
        }
    }

    fn as_slice(&self, n: usize) -> &[u32] {
        match self {
            Slots::Inline(a) => &a[..n],
            Slots::Heap(v) => v,
        }
    }

    fn as_mut_slice(&mut self, n: usize) -> &mut [u32] {
        match self {
            Slots::Inline(a) => &mut a[..n],
            Slots::Heap(v) => v,
        }
    }
}

/// Presence bitmap words: one inline word covers `n ≤ 64`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum Words {
    Inline(u64),
    Heap(Vec<u64>),
}

impl Words {
    fn zero(bits: usize) -> Self {
        if bits <= 64 {
            Words::Inline(0)
        } else {
            Words::Heap(vec![0; bits.div_ceil(64)])
        }
    }

    fn as_slice(&self) -> &[u64] {
        match self {
            Words::Inline(w) => std::slice::from_ref(w),
            Words::Heap(v) => v,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [u64] {
        match self {
            Words::Inline(w) => std::slice::from_mut(w),
            Words::Heap(v) => v,
        }
    }

    fn get(&self, bit: usize) -> bool {
        self.as_slice()[bit / 64] & (1u64 << (bit % 64)) != 0
    }

    fn set(&mut self, bit: usize) {
        self.as_mut_slice()[bit / 64] |= 1u64 << (bit % 64);
    }
}

/// A set of [`ValueId`]s as a bitmap over a table's domain: the dense
/// engine's replacement for the `BTreeSet<V>` that
/// [`View::count_in`]/[`View::greatest_distinct`] materialize — no value
/// is ever cloned into it, and membership is one bit test.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct IdSet {
    domain: u32,
    words: Words,
}

impl IdSet {
    /// The empty set over a raw domain size (ids `0..domain`).
    pub fn over(domain: usize) -> Self {
        IdSet {
            domain: domain as u32,
            words: Words::zero(domain),
        }
    }

    /// Inserts an id; returns whether it was new.
    ///
    /// # Panics
    ///
    /// Panics if the id is outside the set's domain.
    pub fn insert(&mut self, id: ValueId) -> bool {
        assert!(id.get() < self.domain, "id outside the set's domain");
        let fresh = !self.words.get(id.index());
        self.words.set(id.index());
        fresh
    }

    /// The ids in ascending (= ascending value) order.
    pub fn iter(&self) -> impl Iterator<Item = ValueId> + '_ {
        self.words
            .as_slice()
            .iter()
            .enumerate()
            .flat_map(|(wi, &word)| {
                let mut bits = word;
                std::iter::from_fn(move || {
                    if bits == 0 {
                        return None;
                    }
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(ValueId((wi * 64 + b) as u32))
                })
            })
    }

    /// Keeps only the `ell` greatest ids, dropping the rest — the bitmap
    /// form of `max_ℓ`.
    fn retain_greatest(&mut self, ell: usize) {
        let mut keep = ell;
        let words = self.words.as_mut_slice();
        for word in words.iter_mut().rev() {
            let ones = word.count_ones() as usize;
            if ones <= keep {
                keep -= ones;
                continue;
            }
            // Clear the (ones - keep) lowest set bits of this word.
            let mut w = *word;
            for _ in 0..ones - keep {
                w &= w - 1;
            }
            *word = w;
            keep = 0;
        }
    }
}

/// A process-indexed view over interned values: the dense form of
/// [`View`]. See the [module docs](self) for the representation and its
/// complexity guarantees.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DenseView {
    n: u32,
    domain: u32,
    /// `#_⊥`, maintained incrementally: merges and sets only ever flip
    /// entries from `⊥` to observed.
    bottoms: u32,
    present: Words,
    slots: Slots,
}

impl DenseView {
    /// The all-`⊥` view over `n` processes, interned against `table`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn all_bottom<V: ProposalValue>(n: usize, table: &ValueTable<V>) -> Self {
        Self::bottom_with_domain(n, table.len())
    }

    fn bottom_with_domain(n: usize, domain: usize) -> Self {
        assert!(n > 0, "a view needs at least one entry");
        DenseView {
            n: n as u32,
            domain: domain as u32,
            bottoms: n as u32,
            present: Words::zero(n),
            slots: Slots::bottom(n),
        }
    }

    /// The number of processes `n`.
    pub fn len(&self) -> usize {
        self.n as usize
    }

    /// Always `false`: views have at least one entry.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The size of the interned value domain this view indexes into.
    pub fn domain(&self) -> usize {
        self.domain as usize
    }

    /// The entry observed for a process, or `None` for `⊥`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a process of this system.
    pub fn get(&self, id: ProcessId) -> Option<ValueId> {
        let slot = self.as_slots()[id.index()];
        if slot == BOTTOM {
            None
        } else {
            Some(ValueId(slot))
        }
    }

    /// Records the value observed for `id`, overwriting `⊥` or a previous
    /// observation.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a process of this system or `value` is
    /// outside the view's domain.
    pub fn set(&mut self, id: ProcessId, value: ValueId) {
        assert!(value.get() < self.domain, "id outside the view's domain");
        let n = self.n as usize;
        let slot = &mut self.slots.as_mut_slice(n)[id.index()];
        if *slot == BOTTOM {
            self.bottoms -= 1;
            self.present.set(id.index());
        }
        *slot = value.get();
    }

    /// `#_⊥(J)` — an O(1) read off the incremental counter.
    pub fn count_bottom(&self) -> usize {
        self.bottoms as usize
    }

    /// `|val(J)|` in one counting pass over a value-domain bitmap (stack
    /// allocated for domains up to 1024 ids).
    pub fn distinct_count(&self) -> usize {
        self.seen_bitmap(|seen| seen.iter().map(|w| w.count_ones() as usize).sum())
    }

    /// The number of observed entries whose value is in `ids`: a flat
    /// pass of bit tests, the dense [`View::count_in`].
    fn count_in(&self, ids: &IdSet) -> usize {
        self.as_slots()
            .iter()
            .filter(|&&slot| slot != BOTTOM && ids.words.get(slot as usize))
            .count()
    }

    /// The `ℓ` greatest observed distinct values as an [`IdSet`]
    /// (`max_ℓ(J)`): one counting pass, no value clones.
    fn greatest_distinct(&self, ell: usize) -> IdSet {
        let mut set = IdSet {
            domain: self.domain,
            words: Words::zero(self.domain as usize),
        };
        let words = set.words.as_mut_slice();
        for &slot in self.as_slots() {
            if slot != BOTTOM {
                words[slot as usize / 64] |= 1u64 << (slot % 64);
            }
        }
        set.retain_greatest(ell);
        set
    }

    /// `Σ_{v ∈ max_ℓ(J)} #_v(J)` — the density the `C_max` predicate
    /// tests — without materializing the set: one counting pass and one
    /// weighting pass.
    pub fn greatest_distinct_weight(&self, ell: usize) -> usize {
        let top = self.greatest_distinct(ell);
        self.count_in(&top)
    }

    /// Merges another view's observations into this one with the generic
    /// [`View::merge_from`] semantics: every observed entry of `other`
    /// overwrites. Walks the presence bitmap a word at a time and copies
    /// saturated 64-entry chunks as slices.
    ///
    /// # Panics
    ///
    /// Panics if the views have different lengths.
    pub fn merge_from(&mut self, other: &DenseView) {
        assert_eq!(self.n, other.n, "views over different systems");
        let n = self.n as usize;
        let theirs_words = other.present.as_slice();
        let mine_words = self.present.as_mut_slice();
        let mine = self.slots.as_mut_slice(n);
        let theirs = other.slots.as_slice(n);
        for (w, &tw) in theirs_words.iter().enumerate() {
            if tw == 0 {
                continue;
            }
            let extra = tw & !mine_words[w];
            self.bottoms -= extra.count_ones();
            mine_words[w] |= tw;
            let base = w * 64;
            let end = (base + 64).min(n);
            if tw == chunk_mask(base, end) {
                mine[base..end].copy_from_slice(&theirs[base..end]);
            } else {
                let mut bits = tw;
                while bits != 0 {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    mine[base + b] = theirs[base + b];
                }
            }
        }
    }

    /// Union of observations: copies only entries that are `⊥` here and
    /// observed in `other`, skipping already-saturated bitmap words
    /// entirely. A receiver with no `⊥` left has nothing to copy and
    /// returns after the length check, so a call costs O(1) once the
    /// receiver has converged and O(n/64) otherwise. For views of the
    /// same input vector (the only way protocols merge) this equals
    /// [`DenseView::merge_from`].
    ///
    /// # Panics
    ///
    /// Panics if the views have different lengths.
    // Inlinable across crates: it is a dense flood's whole per-delivery
    // cost, called from `setagree-core`, and the release profile has no
    // LTO to inline a non-generic function without the attribute.
    #[inline]
    pub fn merge_missing_from(&mut self, other: &DenseView) {
        assert_eq!(self.n, other.n, "views over different systems");
        if self.bottoms == 0 {
            return;
        }
        let n = self.n as usize;
        let theirs_words = other.present.as_slice();
        let mine_words = self.present.as_mut_slice();
        let mine = self.slots.as_mut_slice(n);
        let theirs = other.slots.as_slice(n);
        for (w, &tw) in theirs_words.iter().enumerate() {
            let mut missing = tw & !mine_words[w];
            if missing == 0 {
                continue;
            }
            self.bottoms -= missing.count_ones();
            mine_words[w] |= missing;
            let base = w * 64;
            while missing != 0 {
                let b = missing.trailing_zeros() as usize;
                missing &= missing - 1;
                mine[base + b] = theirs[base + b];
            }
        }
    }

    /// The raw slots (`u32::MAX` is `⊥`).
    fn as_slots(&self) -> &[u32] {
        self.slots.as_slice(self.n as usize)
    }

    /// Runs `f` on the bitmap of observed value ids (bit = id present).
    fn seen_bitmap<R>(&self, f: impl FnOnce(&[u64]) -> R) -> R {
        /// Stack bitmap budget: domains up to 1024 ids (the bench's
        /// largest system) never allocate.
        const STACK_WORDS: usize = 16;
        let words = (self.domain as usize).div_ceil(64);
        let mut stack = [0u64; STACK_WORDS];
        let mut heap;
        let seen: &mut [u64] = if words <= STACK_WORDS {
            &mut stack[..words]
        } else {
            heap = vec![0u64; words];
            &mut heap
        };
        for &slot in self.as_slots() {
            if slot != BOTTOM {
                seen[slot as usize / 64] |= 1u64 << (slot % 64);
            }
        }
        f(seen)
    }
}

/// A process-indexed full vector over interned values: the dense form of
/// [`InputVector`] (no `⊥` entries).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DenseVector {
    domain: u32,
    slots: Slots,
    n: u32,
}

impl DenseVector {
    /// Builds a vector from one id per process.
    ///
    /// # Panics
    ///
    /// Panics if `ids` is empty or an id is outside the domain.
    fn from_ids(domain: usize, ids: impl IntoIterator<Item = ValueId>) -> Self {
        let mut n = 0usize;
        let mut buf: Vec<u32> = Vec::new();
        let mut inline = [BOTTOM; INLINE_SLOTS];
        for id in ids {
            assert!(id.index() < domain, "id outside the vector's domain");
            if n < INLINE_SLOTS {
                inline[n] = id.get();
            } else {
                if buf.is_empty() {
                    buf.extend_from_slice(&inline[..n]);
                }
                buf.push(id.get());
            }
            n += 1;
        }
        assert!(n > 0, "an input vector needs at least one entry");
        let slots = if n <= INLINE_SLOTS {
            Slots::Inline(inline)
        } else {
            Slots::Heap(buf)
        };
        DenseVector {
            domain: domain as u32,
            slots,
            n: n as u32,
        }
    }

    /// The number of processes `n`.
    pub fn len(&self) -> usize {
        self.n as usize
    }

    /// Always `false`: vectors have at least one entry.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The value proposed by a process.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a process of this system.
    pub fn get(&self, id: ProcessId) -> ValueId {
        ValueId(self.as_ids()[id.index()])
    }

    /// The raw ids in process order.
    fn as_ids(&self) -> &[u32] {
        self.slots.as_slice(self.n as usize)
    }

    /// The view where only `me`'s entry is observed — the initial local
    /// view of a flood protocol before any round-1 delivery.
    ///
    /// # Panics
    ///
    /// Panics if `me` is not a process of this system.
    pub fn initial_view(&self, me: ProcessId) -> DenseView {
        let mut view = DenseView::bottom_with_domain(self.len(), self.domain as usize);
        view.set(me, self.get(me));
        view
    }

    /// The fully-observed dense view of this vector.
    pub fn to_view(&self) -> DenseView {
        let n = self.n as usize;
        let mut view = DenseView::bottom_with_domain(n, self.domain as usize);
        view.bottoms = 0;
        let words = view.present.as_mut_slice();
        for (w, word) in words.iter_mut().enumerate() {
            *word = chunk_mask(w * 64, (w * 64 + 64).min(n));
        }
        view.slots.as_mut_slice(n).copy_from_slice(self.as_ids());
        view
    }
}

/// The bitmap word covering entries `[base, end)` of the word at `base`.
fn chunk_mask(base: usize, end: usize) -> u64 {
    debug_assert!(end > base && end - base <= 64);
    if end - base == 64 {
        u64::MAX
    } else {
        (1u64 << (end - base)) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(values: &[u32]) -> ValueTable<u32> {
        ValueTable::from_values(values.iter().copied())
    }

    #[test]
    fn table_is_sorted_and_deduped() {
        let t = table(&[30, 10, 30, 20]);
        assert_eq!(t.len(), 3);
        assert_eq!(
            (0..3)
                .map(|i| *t.value(ValueId::new(i)))
                .collect::<Vec<_>>(),
            vec![10, 20, 30]
        );
        assert_eq!(t.id_of(&10), Some(ValueId::new(0)));
        assert_eq!(t.id_of(&30), Some(ValueId::new(2)));
        assert_eq!(t.id_of(&15), None);
    }

    #[test]
    fn id_order_is_value_order() {
        let t = table(&[7, 3, 99, 42]);
        let mut sorted: Vec<u32> = vec![7, 3, 99, 42];
        sorted.sort_unstable();
        for pair in sorted.windows(2) {
            assert!(t.id_of(&pair[0]).unwrap() < t.id_of(&pair[1]).unwrap());
        }
    }

    #[test]
    fn intern_round_trips() {
        let input = InputVector::new(vec![5u32, 2, 5, 9, 2]);
        let t = ValueTable::from_vector(&input);
        let dense = t.intern_vector(&input);
        assert_eq!(t.view(&dense.to_view()), input.to_view());

        let view = View::from_options(vec![Some(5u32), None, Some(2), None, Some(9)]);
        let dv = t.intern_view(&view);
        assert_eq!(t.view(&dv), view);
        assert_eq!(dv.count_bottom(), 2);
    }

    #[test]
    fn inline_views_never_allocate_slots() {
        let t = table(&[1, 2, 3]);
        let v = DenseView::all_bottom(16, &t);
        assert!(matches!(v.slots, Slots::Inline(_)));
        assert!(matches!(v.present, Words::Inline(_)));
        let big = DenseView::all_bottom(17, &t);
        assert!(matches!(big.slots, Slots::Heap(_)));
    }

    #[test]
    fn set_and_counts() {
        let t = table(&[10, 20, 30]);
        let mut v = DenseView::all_bottom(4, &t);
        assert_eq!(v.count_bottom(), 4);
        assert_eq!(v.distinct_count(), 0);
        v.set(ProcessId::new(0), t.id_of(&30).unwrap());
        v.set(ProcessId::new(2), t.id_of(&30).unwrap());
        v.set(ProcessId::new(3), t.id_of(&10).unwrap());
        assert_eq!(v.count_bottom(), 1);
        assert_eq!(v.distinct_count(), 2);
        // Overwrite does not disturb the bottom counter.
        v.set(ProcessId::new(0), t.id_of(&20).unwrap());
        assert_eq!(v.count_bottom(), 1);
        assert_eq!(v.distinct_count(), 3);
    }

    #[test]
    fn merge_missing_is_union() {
        let t = table(&[1, 2, 3]);
        let mut a = DenseView::all_bottom(3, &t);
        a.set(ProcessId::new(0), ValueId::new(0));
        let mut b = DenseView::all_bottom(3, &t);
        b.set(ProcessId::new(1), ValueId::new(1));
        b.set(ProcessId::new(0), ValueId::new(2)); // conflicting entry
        a.merge_missing_from(&b);
        // Union keeps a's existing entry, adopts b's fresh one.
        assert_eq!(a.get(ProcessId::new(0)), Some(ValueId::new(0)));
        assert_eq!(a.get(ProcessId::new(1)), Some(ValueId::new(1)));
        assert_eq!(a.count_bottom(), 1);

        let mut c = DenseView::all_bottom(3, &t);
        c.set(ProcessId::new(0), ValueId::new(0));
        c.merge_from(&b);
        // Overwrite adopts b's conflicting entry — the View::merge_from
        // semantics.
        assert_eq!(c.get(ProcessId::new(0)), Some(ValueId::new(2)));
    }

    #[test]
    fn merge_missing_into_a_complete_view_changes_nothing() {
        // n = 130: three presence words, heap slots.
        let n = 130;
        let t = table(&(0..n as u32).collect::<Vec<_>>());
        let full = DenseVector::from_ids(t.len(), (0..n as u32).map(ValueId::new));
        let mut complete = full.to_view();
        let mut conflicting = DenseView::all_bottom(n, &t);
        for i in (0..n).step_by(3) {
            conflicting.set(ProcessId::new(i), ValueId::new((n - 1 - i) as u32));
        }
        complete.merge_missing_from(&conflicting);
        complete.merge_missing_from(&DenseView::all_bottom(n, &t));
        assert_eq!(complete, full.to_view(), "every entry is kept");
        assert_eq!(complete.count_bottom(), 0);
    }

    #[test]
    #[should_panic(expected = "views over different systems")]
    fn merge_missing_into_a_complete_view_still_checks_lengths() {
        let t = table(&[1, 2]);
        let full = t.intern_vector(&InputVector::new(vec![1u32, 2]));
        let mut complete = full.to_view();
        complete.merge_missing_from(&DenseView::all_bottom(3, &t));
    }

    #[test]
    fn merge_matches_generic_view_across_word_boundaries() {
        // n = 130 spans three bitmap words; exercise full-word copies.
        let n = 130;
        let t = table(&(0..n as u32).collect::<Vec<_>>());
        let mut generic_a = View::all_bottom(n);
        let mut generic_b = View::all_bottom(n);
        let mut dense_a = DenseView::all_bottom(n, &t);
        let mut dense_b = DenseView::all_bottom(n, &t);
        for i in 0..n {
            if i % 3 != 0 {
                generic_a.set(ProcessId::new(i), (i % 7) as u32);
                dense_a.set(ProcessId::new(i), ValueId::new((i % 7) as u32));
            }
            if i % 2 == 0 {
                generic_b.set(ProcessId::new(i), (i % 5) as u32);
                dense_b.set(ProcessId::new(i), ValueId::new((i % 5) as u32));
            }
        }
        let mut merged = dense_a.clone();
        merged.merge_from(&dense_b);
        generic_a.merge_from(&generic_b);
        assert_eq!(t.view(&merged), generic_a);
        assert_eq!(
            merged.count_bottom(),
            generic_a.count_bottom(),
            "incremental ⊥ counter stays exact through word-chunk merges"
        );
        assert_eq!(merged.distinct_count(), generic_a.distinct_count());
    }

    #[test]
    fn greatest_distinct_and_weights() {
        let t = table(&[1, 5, 9, 12]);
        let input = InputVector::new(vec![5u32, 1, 5, 12, 9]);
        let dense = t.intern_vector(&input).to_view();
        let top2 = dense.greatest_distinct(2);
        assert_eq!(
            top2.iter().map(|id| *t.value(id)).collect::<Vec<_>>(),
            vec![9, 12]
        );
        assert_eq!(dense.count_in(&top2), 2);
        assert_eq!(dense.greatest_distinct_weight(2), 2);
        assert_eq!(dense.greatest_distinct_weight(3), 4);
        assert_eq!(dense.greatest_distinct(0).iter().next(), None);
    }

    #[test]
    fn idset_retains_greatest_across_words() {
        let mut set = IdSet::over(200);
        for id in [3u32, 70, 130, 199] {
            assert!(set.insert(ValueId::new(id)));
        }
        assert!(!set.insert(ValueId::new(70)));
        assert_eq!(set.iter().count(), 4);
        set.retain_greatest(2);
        assert_eq!(
            set.iter().collect::<Vec<_>>(),
            vec![ValueId::new(130), ValueId::new(199)]
        );
        set.retain_greatest(0);
        assert_eq!(set.iter().next(), None);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn empty_dense_vector_is_rejected() {
        let _ = DenseVector::from_ids(1, std::iter::empty());
    }

    #[test]
    #[should_panic(expected = "different systems")]
    fn merge_rejects_length_mismatch() {
        let t = table(&[1]);
        let mut a = DenseView::all_bottom(2, &t);
        let b = DenseView::all_bottom(3, &t);
        a.merge_from(&b);
    }
}
