//! The dense-engine view flood: every process broadcasts its interned
//! [`DenseView`] each round and unions what it hears, deciding the
//! number of distinct proposals it observed after a fixed round budget.
//!
//! This is the workhorse protocol of the large-`n` tier. Messages are
//! flat id arrays over a shared [`ValueTable`](setagree_types::ValueTable) domain, merges are the
//! word-level [`DenseView::merge_missing_from`] (a saturated 64-entry
//! chunk of the view costs one bitmap test to skip, and a converged
//! view with no `⊥` left costs one test for the whole delivery), and
//! the decision is a single counting pass — no value clones anywhere in
//! the round loop. It prices one merge per delivery: O(n/64) until the
//! receiver converges, O(1) after. The `broadcast` benches, the
//! benchmark's `large_n` workload, and the dense-equivalence property
//! suite all run this protocol; its generic twin (a `View<V>`-flooding
//! protocol with the same shape) is what the before/after numbers in the
//! README compare against.

use std::fmt;

use setagree_sync::{Step, SyncProtocol};
use setagree_types::{DenseVector, DenseView, ProcessId};

/// One process of the dense view flood. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct DenseFlood {
    rounds: usize,
    view: DenseView,
}

impl DenseFlood {
    /// Creates the process `me` of a system proposing `inputs`, flooding
    /// for `rounds` rounds. Its initial view observes only its own
    /// entry.
    ///
    /// # Panics
    ///
    /// Panics if `rounds == 0` or `me` is not a process of the system.
    pub fn new(inputs: &DenseVector, me: ProcessId, rounds: usize) -> Self {
        assert!(rounds > 0, "rounds are 1-based");
        DenseFlood {
            rounds,
            view: inputs.initial_view(me),
        }
    }

    /// Creates the whole system over `inputs` — one process per entry.
    ///
    /// # Panics
    ///
    /// Panics if `rounds == 0`.
    pub fn system(inputs: &DenseVector, rounds: usize) -> Vec<DenseFlood> {
        (0..inputs.len())
            .map(|i| DenseFlood::new(inputs, ProcessId::new(i), rounds))
            .collect()
    }

    /// The round at which this process decides.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// The view accumulated so far.
    pub fn view(&self) -> &DenseView {
        &self.view
    }
}

impl SyncProtocol for DenseFlood {
    type Msg = DenseView;
    type Output = usize;

    fn message(&mut self, _round: usize) -> DenseView {
        self.view.clone()
    }

    // Inlinable into the engine's delivery loop in `setagree-sync`.
    #[inline]
    fn receive(&mut self, _round: usize, _from: ProcessId, msg: &DenseView) {
        self.view.merge_missing_from(msg);
    }

    // No `fold`, on purpose: a union of views would fold, but this
    // protocol exists to price one dense merge per delivery
    // (`core.denseflood.*` in the benchmark), so it keeps the
    // per-message loop.

    fn compute(&mut self, round: usize) -> Step<usize> {
        if round >= self.rounds {
            Step::Decide(self.view.distinct_count())
        } else {
            Step::Continue
        }
    }
}

impl fmt::Display for DenseFlood {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "denseflood(seen = {}/{}, decides @ r{})",
            self.view.len() - self.view.count_bottom(),
            self.view.len(),
            self.rounds
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use setagree_sync::{run_protocol, CrashSpec, FailurePattern};
    use setagree_types::{InputVector, ValueTable};

    fn dense_inputs(values: &[u32]) -> DenseVector {
        let vector = InputVector::new(values.to_vec());
        ValueTable::from_vector(&vector).intern_vector(&vector)
    }

    #[test]
    fn failure_free_flood_sees_every_value() {
        let inputs = dense_inputs(&[3, 9, 9, 1, 4, 3]);
        let trace =
            run_protocol(DenseFlood::system(&inputs, 3), &FailurePattern::none(6), 10).unwrap();
        // 4 distinct proposals; everyone converges on the full view.
        assert_eq!(trace.decided_values(), [4].into_iter().collect());
        assert_eq!(trace.last_decision_round(), Some(3));
    }

    #[test]
    fn matches_generic_view_flood_under_crashes() {
        // The generic twin: flood `View<u32>`s with overwrite-merge.
        #[derive(Debug, Clone)]
        struct GenericFlood {
            rounds: usize,
            view: setagree_types::View<u32>,
        }
        impl SyncProtocol for GenericFlood {
            type Msg = setagree_types::View<u32>;
            type Output = usize;
            fn message(&mut self, _round: usize) -> Self::Msg {
                self.view.clone()
            }
            fn receive(&mut self, _round: usize, _from: ProcessId, msg: &Self::Msg) {
                self.view.merge_from(msg);
            }
            fn compute(&mut self, round: usize) -> Step<usize> {
                if round >= self.rounds {
                    Step::Decide(self.view.distinct_count())
                } else {
                    Step::Continue
                }
            }
        }

        let values = [7u32, 2, 7, 5, 1, 2, 9, 5];
        let vector = InputVector::new(values.to_vec());
        let table = ValueTable::from_vector(&vector);
        let inputs = table.intern_vector(&vector);

        let generic: Vec<GenericFlood> = (0..values.len())
            .map(|i| {
                let mut view = setagree_types::View::all_bottom(values.len());
                view.set(ProcessId::new(i), values[i]);
                GenericFlood { rounds: 3, view }
            })
            .collect();

        let mut pattern = FailurePattern::none(values.len());
        pattern
            .crash(ProcessId::new(1), CrashSpec::new(1, 3))
            .unwrap();
        pattern
            .crash(ProcessId::new(6), CrashSpec::new(2, 0))
            .unwrap();

        let dense_trace = run_protocol(DenseFlood::system(&inputs, 3), &pattern, 10).unwrap();
        let generic_trace = run_protocol(generic, &pattern, 10).unwrap();
        assert_eq!(dense_trace.decided_values(), generic_trace.decided_values());
        assert_eq!(
            dense_trace.last_decision_round(),
            generic_trace.last_decision_round()
        );
    }

    #[test]
    fn display_and_accessors() {
        let inputs = dense_inputs(&[4, 4, 8]);
        let p = DenseFlood::new(&inputs, ProcessId::new(2), 2);
        assert_eq!(p.rounds(), 2);
        assert_eq!(p.view().count_bottom(), 2);
        assert_eq!(p.to_string(), "denseflood(seen = 1/3, decides @ r2)");
    }

    #[test]
    #[should_panic(expected = "rounds are 1-based")]
    fn zero_rounds_is_rejected() {
        let inputs = dense_inputs(&[1, 2]);
        let _ = DenseFlood::system(&inputs, 0);
    }
}
