//! The shared-memory substrate: a single-writer multi-reader register
//! array with atomic snapshots (after Afek–Attiya–Dolev–Gafni–Merritt–
//! Shavit).
//!
//! The simulation linearizes every operation (each scheduler step performs
//! exactly one), so `snapshot` is trivially atomic and — because each
//! process writes its register at most once in the set-agreement protocol —
//! any two snapshots are ordered by containment, the property Theorem 1
//! feeds on.

use setagree_types::{ProcessId, ProposalValue, View};

/// An array of `n` single-writer registers with an atomic snapshot.
///
/// # Example
///
/// ```
/// use setagree_async::SharedMemory;
/// use setagree_types::ProcessId;
///
/// let mut mem = SharedMemory::<u32>::new(3);
/// mem.write(ProcessId::new(1), 7);
/// let snap = mem.snapshot();
/// assert_eq!(snap.get(ProcessId::new(1)), Some(&7));
/// assert_eq!(snap.count_bottom(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharedMemory<V> {
    registers: Vec<Option<V>>,
    snapshots: u64,
}

impl<V: ProposalValue> SharedMemory<V> {
    /// Creates `n` empty registers.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "a system needs at least one process");
        SharedMemory {
            registers: vec![None; n],
            snapshots: 0,
        }
    }

    /// The number of registers.
    pub fn len(&self) -> usize {
        self.registers.len()
    }

    /// Always `false`: there is at least one register.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Writes `value` into `owner`'s register (single-writer: the protocol
    /// guarantees each process only writes its own slot).
    ///
    /// # Panics
    ///
    /// Panics if `owner` is out of range.
    pub fn write(&mut self, owner: ProcessId, value: V) {
        self.registers[owner.index()] = Some(value);
    }

    /// An atomic snapshot of all registers.
    pub fn snapshot(&mut self) -> View<V> {
        self.snapshots += 1;
        View::from_options(self.registers.clone())
    }

    /// Reads a single register without snapshotting.
    pub fn read(&self, owner: ProcessId) -> Option<&V> {
        self.registers[owner.index()].as_ref()
    }

    /// Total snapshots performed.
    pub fn snapshot_count(&self) -> u64 {
        self.snapshots
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_become_visible_in_snapshots() {
        let mut mem = SharedMemory::<u32>::new(2);
        assert_eq!(mem.snapshot().count_bottom(), 2);
        mem.write(ProcessId::new(0), 4);
        let snap = mem.snapshot();
        assert_eq!(snap.get(ProcessId::new(0)), Some(&4));
        assert_eq!(snap.get(ProcessId::new(1)), None);
    }

    #[test]
    fn snapshots_grow_by_containment() {
        let mut mem = SharedMemory::<u32>::new(3);
        mem.write(ProcessId::new(0), 1);
        let s1 = mem.snapshot();
        mem.write(ProcessId::new(2), 3);
        let s2 = mem.snapshot();
        assert!(s1.is_contained_in(&s2));
        assert!(!s2.is_contained_in(&s1));
    }

    #[test]
    fn read_views_one_register() {
        let mut mem = SharedMemory::<u32>::new(2);
        mem.write(ProcessId::new(1), 9);
        assert_eq!(mem.read(ProcessId::new(1)), Some(&9));
        assert_eq!(mem.read(ProcessId::new(0)), None);
    }

    #[test]
    fn operation_counters() {
        let mut mem = SharedMemory::<u32>::new(2);
        mem.write(ProcessId::new(0), 1);
        mem.write(ProcessId::new(1), 2);
        let _ = mem.snapshot();
        assert_eq!(mem.snapshot_count(), 1);
        assert_eq!(mem.len(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one process")]
    fn zero_registers_rejected() {
        let _ = SharedMemory::<u32>::new(0);
    }
}
