//! The dense interned-value state engine.
//!
//! The generic [`View`]/[`InputVector`] store owned values in
//! `Vec<Option<V>>`/`Vec<V>`: every merge clones values, every count walks
//! `Option`s, and every distinct-count builds a `BTreeSet`. That is the
//! per-message cost of the paper's protocols — a flood round is `n²`
//! deliveries, each an entry-wise merge of an `n`-entry view.
//!
//! This module replaces the storage for the hot paths: proposal values are
//! interned **once** into a per-system [`ValueTable`] (sorted and deduped,
//! so **id order is value order** and `max_ℓ` becomes integer arithmetic),
//! and views become flat process-indexed [`ValueId`] arrays with a
//! presence bitmap:
//!
//! * [`DenseView`]/[`DenseVector`] hold one `u32` id per process — no
//!   heap allocation at all for systems of `n ≤ 16` processes (the
//!   inline representation), one flat allocation above that;
//! * the `⊥` count is maintained incrementally, so
//!   [`DenseView::count_bottom`] is an O(1) read;
//! * [`DenseView::merge_from`] walks the presence bitmap a word (64
//!   entries) at a time and [`DenseView::merge_missing_from`] skips
//!   already-saturated words entirely — the steady state of a flood is
//!   O(n/64) per delivery instead of O(n) `Option` clones;
//! * [`DenseView::distinct_count`] is a single counting pass over a
//!   stack-allocated id bitmap, and [`DenseView::count_in`]/
//!   [`DenseView::greatest_distinct`] are id-bitmap ([`IdSet`]) passes
//!   that clone no value.
//!
//! The engine is pinned byte-equivalent to the generic representation by
//! the `dense_equivalence` property suite: every operation here matches
//! the corresponding `Vec<Option<V>>` reference through
//! [`ValueTable::view`]/[`ValueTable::intern_view`] round-trips.
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

use std::fmt;

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

impl fmt::Display for ValueId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
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

    /// The greatest interned value's id (the table is never empty).
    pub fn max_id(&self) -> ValueId {
        ValueId(self.values.len() as u32 - 1)
    }

    /// The interned values in id (= value) order.
    pub fn iter(&self) -> std::slice::Iter<'_, V> {
        self.values.iter()
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

    /// Resolves a dense vector back to owned values.
    ///
    /// # Panics
    ///
    /// Panics if the vector was interned against a different table.
    pub fn vector(&self, dense: &DenseVector) -> InputVector<V> {
        InputVector::new(
            dense
                .as_ids()
                .iter()
                .map(|&id| self.values[id as usize].clone())
                .collect(),
        )
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

    /// Resolves an id set to an owned value set.
    pub fn values_of(&self, ids: &IdSet) -> std::collections::BTreeSet<V> {
        ids.iter()
            .map(|id| self.values[id.index()].clone())
            .collect()
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

    fn count_ones(&self) -> usize {
        self.as_slice()
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }
}

/// A set of [`ValueId`]s as a bitmap over a table's domain: the dense
/// engine's replacement for the `BTreeSet<V>` that
/// [`View::count_in`]/[`View::greatest_distinct`] materialize — no value
/// is ever cloned into it, membership is one bit test, and intersection
/// weights come from single passes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct IdSet {
    domain: u32,
    words: Words,
}

impl IdSet {
    /// The empty set over a table's domain.
    pub fn empty<V: ProposalValue>(table: &ValueTable<V>) -> Self {
        Self::over(table.len())
    }

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

    /// Membership: one bit test.
    pub fn contains(&self, id: ValueId) -> bool {
        id.get() < self.domain && self.words.get(id.index())
    }

    /// The number of ids in the set.
    pub fn len(&self) -> usize {
        self.words.count_ones()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.as_slice().iter().all(|&w| w == 0)
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
    pub fn retain_greatest(&mut self, ell: usize) {
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

    /// `#_v(J)` for an interned value: a single flat pass.
    pub fn count_of(&self, value: ValueId) -> usize {
        let v = value.get();
        self.as_slots().iter().filter(|&&slot| slot == v).count()
    }

    /// The number of observed entries whose value is in `ids`: a flat
    /// pass of bit tests, the dense [`View::count_in`].
    pub fn count_in(&self, ids: &IdSet) -> usize {
        self.as_slots()
            .iter()
            .filter(|&&slot| slot != BOTTOM && ids.words.get(slot as usize))
            .count()
    }

    /// The greatest observed value, or `None` for the all-`⊥` view.
    pub fn max_id(&self) -> Option<ValueId> {
        self.as_slots()
            .iter()
            .filter(|&&slot| slot != BOTTOM)
            .max()
            .map(|&slot| ValueId(slot))
    }

    /// The `ℓ` greatest observed distinct values as an [`IdSet`]
    /// (`max_ℓ(J)`): one counting pass, no value clones.
    pub fn greatest_distinct(&self, ell: usize) -> IdSet {
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

    /// Containment `J ≤ J'`: bitmap-subset word ops plus slot equality
    /// where both are observed.
    ///
    /// # Panics
    ///
    /// Panics if the views have different lengths.
    pub fn is_contained_in(&self, other: &DenseView) -> bool {
        assert_eq!(self.n, other.n, "views over different systems");
        let (mine, theirs) = (self.present.as_slice(), other.present.as_slice());
        if mine.iter().zip(theirs).any(|(m, t)| m & !t != 0) {
            return false;
        }
        self.as_slots()
            .iter()
            .zip(other.as_slots())
            .all(|(&a, &b)| a == BOTTOM || a == b)
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
    /// entirely — O(n/64) per call once a flood converges. For views of
    /// the same input vector (the only way protocols merge) this equals
    /// [`DenseView::merge_from`].
    ///
    /// # Panics
    ///
    /// Panics if the views have different lengths.
    pub fn merge_missing_from(&mut self, other: &DenseView) {
        assert_eq!(self.n, other.n, "views over different systems");
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

    /// Completes the view into a full dense vector by substituting `fill`
    /// for every `⊥` entry.
    ///
    /// # Panics
    ///
    /// Panics if `fill` is outside the view's domain.
    pub fn complete_with(&self, fill: ValueId) -> DenseVector {
        assert!(fill.get() < self.domain, "id outside the view's domain");
        DenseVector::from_ids(
            self.domain as usize,
            self.as_slots()
                .iter()
                .map(|&slot| if slot == BOTTOM { fill } else { ValueId(slot) }),
        )
    }

    /// Converts to a full dense vector if no entry is `⊥`.
    pub fn to_vector(&self) -> Option<DenseVector> {
        if self.bottoms != 0 {
            return None;
        }
        Some(DenseVector::from_ids(
            self.domain as usize,
            self.as_slots().iter().map(|&slot| ValueId(slot)),
        ))
    }

    /// The raw slots (`u32::MAX` is `⊥`).
    pub fn as_slots(&self) -> &[u32] {
        self.slots.as_slice(self.n as usize)
    }

    /// Rebuilds a view from raw slots (`u32::MAX` is `⊥`) over a domain
    /// of `domain` interned values.
    ///
    /// Returns `None` if `slots` is empty or an entry is outside the
    /// domain.
    pub fn from_slots(domain: usize, slots: &[u32]) -> Option<Self> {
        if slots.is_empty() {
            return None;
        }
        let mut view = Self::bottom_with_domain(slots.len(), domain);
        for (i, &slot) in slots.iter().enumerate() {
            if slot == BOTTOM {
                continue;
            }
            if slot as usize >= domain {
                return None;
            }
            view.set(ProcessId::new(i), ValueId(slot));
        }
        Some(view)
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

impl fmt::Display for DenseView {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, &slot) in self.as_slots().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            if slot == BOTTOM {
                write!(f, "⊥")?;
            } else {
                write!(f, "#{slot}")?;
            }
        }
        write!(f, "]")
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
    pub fn from_ids(domain: usize, ids: impl IntoIterator<Item = ValueId>) -> Self {
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

    /// The size of the interned value domain this vector indexes into.
    pub fn domain(&self) -> usize {
        self.domain as usize
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
    pub fn as_ids(&self) -> &[u32] {
        self.slots.as_slice(self.n as usize)
    }

    /// `|val(I)|` in one counting pass.
    pub fn distinct_count(&self) -> usize {
        self.to_view().distinct_count()
    }

    /// `#_v(I)` for an interned value.
    pub fn count_of(&self, value: ValueId) -> usize {
        let v = value.get();
        self.as_ids().iter().filter(|&&slot| slot == v).count()
    }

    /// The number of entries whose value is in `ids`.
    pub fn count_in(&self, ids: &IdSet) -> usize {
        self.as_ids()
            .iter()
            .filter(|&&slot| ids.words.get(slot as usize))
            .count()
    }

    /// The greatest proposed value (`max(I)`).
    pub fn max_id(&self) -> ValueId {
        ValueId(*self.as_ids().iter().max().expect("vectors are non-empty"))
    }

    /// The smallest proposed value (`min(I)`).
    pub fn min_id(&self) -> ValueId {
        ValueId(*self.as_ids().iter().min().expect("vectors are non-empty"))
    }

    /// The `ℓ` greatest distinct values (`max_ℓ(I)`) as an [`IdSet`].
    pub fn greatest_distinct(&self, ell: usize) -> IdSet {
        self.to_view().greatest_distinct(ell)
    }

    /// `Σ_{v ∈ max_ℓ(I)} #_v(I)` without materializing a value set — the
    /// quantity `C_max` membership compares against `x`.
    pub fn greatest_distinct_weight(&self, ell: usize) -> usize {
        let top = self.greatest_distinct(ell);
        self.count_in(&top)
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

impl fmt::Display for DenseVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, &slot) in self.as_ids().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "#{slot}")?;
        }
        write!(f, "]")
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
        assert_eq!(t.iter().copied().collect::<Vec<_>>(), vec![10, 20, 30]);
        assert_eq!(t.id_of(&10), Some(ValueId::new(0)));
        assert_eq!(t.id_of(&30), Some(ValueId::new(2)));
        assert_eq!(t.id_of(&15), None);
        assert_eq!(*t.value(t.max_id()), 30);
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
        assert_eq!(t.vector(&dense), input);

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
        assert_eq!(v.count_of(t.id_of(&30).unwrap()), 2);
        assert_eq!(v.max_id(), t.id_of(&30));
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
        let dense = t.intern_vector(&input);
        let top2 = dense.greatest_distinct(2);
        assert_eq!(t.values_of(&top2), [9, 12].into_iter().collect());
        assert_eq!(dense.count_in(&top2), 2);
        assert_eq!(dense.greatest_distinct_weight(2), 2);
        assert_eq!(dense.greatest_distinct_weight(3), 4);
        assert_eq!(t.values_of(&dense.greatest_distinct(0)), Default::default());
        assert_eq!(dense.max_id(), t.id_of(&12).unwrap());
        assert_eq!(dense.min_id(), t.id_of(&1).unwrap());
    }

    #[test]
    fn idset_retains_greatest_across_words() {
        let mut set = IdSet::over(200);
        for id in [3u32, 70, 130, 199] {
            assert!(set.insert(ValueId::new(id)));
        }
        assert!(!set.insert(ValueId::new(70)));
        assert_eq!(set.len(), 4);
        set.retain_greatest(2);
        assert_eq!(
            set.iter().collect::<Vec<_>>(),
            vec![ValueId::new(130), ValueId::new(199)]
        );
        set.retain_greatest(0);
        assert!(set.is_empty());
    }

    #[test]
    fn containment_and_completion() {
        let t = table(&[1, 2, 3]);
        let full = t.intern_vector(&InputVector::new(vec![1u32, 2, 3]));
        let mut partial = DenseView::all_bottom(3, &t);
        partial.set(ProcessId::new(1), t.id_of(&2).unwrap());
        assert!(partial.is_contained_in(&full.to_view()));
        assert!(!full.to_view().is_contained_in(&partial));
        assert_eq!(partial.to_vector(), None);
        assert_eq!(full.to_view().to_vector(), Some(full.clone()));

        let completed = partial.complete_with(t.id_of(&3).unwrap());
        assert_eq!(t.vector(&completed), InputVector::new(vec![3u32, 2, 3]));
    }

    #[test]
    fn slots_round_trip_through_the_wire_shape() {
        let t = table(&[4, 8]);
        let mut v = DenseView::all_bottom(70, &t);
        v.set(ProcessId::new(0), ValueId::new(1));
        v.set(ProcessId::new(69), ValueId::new(0));
        let decoded = DenseView::from_slots(t.len(), v.as_slots()).unwrap();
        assert_eq!(decoded, v);
        assert_eq!(DenseView::from_slots(2, &[]), None);
        assert_eq!(DenseView::from_slots(1, &[1]), None, "id beyond domain");
    }

    #[test]
    fn display_shows_ids_and_bottom() {
        let t = table(&[4, 8]);
        let mut v = DenseView::all_bottom(2, &t);
        v.set(ProcessId::new(0), ValueId::new(1));
        assert_eq!(v.to_string(), "[#1, ⊥]");
        let vec = t.intern_vector(&InputVector::new(vec![4u32, 8]));
        assert_eq!(vec.to_string(), "[#0, #1]");
        assert_eq!(ValueId::new(3).to_string(), "#3");
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
