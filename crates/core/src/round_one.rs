//! Round 1 of Figure 2 (lines 3–10), as
//! [`ConditionBased`](crate::ConditionBased) runs it (and, through it,
//! [`EarlyConditionBased`](crate::EarlyConditionBased)): broadcast the
//! proposal, assemble the view `V_i`, and prime one of the three state
//! slots from it.
//!
//! The view is **lazy**. A process holds its own proposal in a field and
//! materialises `V_i` — an `n`-entry vector seeded with that proposal —
//! at its first round-1 delivery, or at classification if nothing was
//! delivered. A process that adopts its round 1 from a twin
//! ([`SyncProtocol::adopt`](setagree_sync::SyncProtocol::adopt)) is
//! delivered nothing and classifies nothing, so it never allocates one;
//! a process that classifies drops its view there, since no later line
//! reads it.

use setagree_conditions::ConditionOracle;
use setagree_types::{ProcessId, ProposalValue, View};

use crate::config::ConditionBasedConfig;

/// One process's round-1 state: its proposal and, once something was
/// delivered, its view.
#[derive(Debug)]
pub(crate) struct RoundOne<V> {
    proposal: V,
    /// `V_i` (line 1/5), `None` until the first delivery.
    view: Option<View<V>>,
}

/// The state triple `(v_cond, v_tmf, v_out)` as lines 6–8 prime it:
/// exactly one slot set (unless the view holds no value at all).
pub(crate) type Primed<V> = (Option<V>, Option<V>, Option<V>);

impl<V: ProposalValue> RoundOne<V> {
    pub(crate) fn new(proposal: V) -> Self {
        RoundOne {
            proposal,
            view: None,
        }
    }

    /// Line 4: what the process broadcasts.
    pub(crate) fn proposal(&self) -> &V {
        &self.proposal
    }

    /// Line 5: records `from`'s proposal in the view of process `me` of
    /// `n`, creating the view first if this is the round's first delivery.
    pub(crate) fn receive(&mut self, n: usize, me: ProcessId, from: ProcessId, v: &V) {
        self.view
            .get_or_insert_with(|| seeded_view(n, me, &self.proposal))
            .set(from, v.clone());
    }

    /// Lines 6–8: classifies the view of process `me` and primes one
    /// state slot; the view is not kept.
    pub(crate) fn classify<O: ConditionOracle<V>>(
        &mut self,
        config: &ConditionBasedConfig,
        me: ProcessId,
        oracle: &O,
    ) -> Primed<V> {
        let view = self
            .view
            .take()
            .unwrap_or_else(|| seeded_view(config.n(), me, &self.proposal));
        let missing = view.count_bottom();
        let t_minus_d = config.t() - config.d();
        let max = || view.max_value().cloned();
        if missing > t_minus_d {
            // Line 8: too many failures witnessed.
            return (None, max(), None);
        }
        // Line 6 if P(V_i) holds: Theorem 1 makes the decoded set
        // non-empty for a legal condition, and an ill-formed oracle falls
        // back to line 7. Line 7 if the input vector is provably outside
        // C.
        match oracle
            .decode_view(&view)
            .and_then(|decoded| decoded.into_iter().max())
        {
            Some(v) => (Some(v), None, None),
            None => (None, None, max()),
        }
    }
}

/// The all-`⊥` view of `n` processes holding `me`'s own proposal: once
/// per process that receives or classifies round 1, never per delivery.
#[cold]
#[inline(never)]
fn seeded_view<V: ProposalValue>(n: usize, me: ProcessId, proposal: &V) -> View<V> {
    let mut view = View::all_bottom(n);
    view.set(me, proposal.clone());
    view
}
