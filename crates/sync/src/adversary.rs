//! The crash adversary: explicit, replayable failure patterns.
//!
//! A [`FailurePattern`] assigns to each faulty process the round in which
//! it crashes and how far through its ordered send phase it got
//! ([`CrashSpec`]). Patterns are plain data: the same pattern replayed on
//! the same protocol yields the same execution, which is what lets the
//! test-suite enumerate the adversarial scenarios used in the paper's
//! proofs (initial crashes, crashes mid-send, the staircase of `k` crashes
//! per round from the agreement proof of Theorem 12).

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

use setagree_types::{ProcessId, ProcessSet};

/// When and how a process crashes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CrashSpec {
    /// The round (1-based) during whose send phase the process crashes.
    pub round: usize,
    /// How many sends of that round are delivered before the crash: the
    /// message reaches processes `p_1, …, p_{after_sends}` only.
    ///
    /// `0` in round 1 models an *initial* crash (the process "did not take
    /// any step": its entry of the input vector stays `⊥` in every view).
    pub after_sends: usize,
}

impl CrashSpec {
    /// Crash during `round` after delivering to the first `after_sends`
    /// processes.
    pub const fn new(round: usize, after_sends: usize) -> Self {
        CrashSpec { round, after_sends }
    }

    /// An initial crash: the process never takes a step.
    pub const fn initial() -> Self {
        CrashSpec {
            round: 1,
            after_sends: 0,
        }
    }
}

/// Error building a [`FailurePattern`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PatternError {
    /// The crash round must be at least 1.
    ZeroRound {
        /// The offending process.
        process: ProcessId,
    },
    /// `after_sends` may not exceed the number of processes.
    PrefixTooLong {
        /// The offending process.
        process: ProcessId,
        /// The requested prefix length.
        after_sends: usize,
        /// The system size.
        n: usize,
    },
    /// The process id is outside the system.
    UnknownProcess {
        /// The offending process.
        process: ProcessId,
        /// The system size.
        n: usize,
    },
}

impl fmt::Display for PatternError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatternError::ZeroRound { process } => {
                write!(f, "{process} cannot crash in round 0 (rounds are 1-based)")
            }
            PatternError::PrefixTooLong {
                process,
                after_sends,
                n,
            } => write!(
                f,
                "{process} cannot deliver {after_sends} sends in a system of {n} processes"
            ),
            PatternError::UnknownProcess { process, n } => {
                write!(f, "{process} is not a process of a system of size {n}")
            }
        }
    }
}

impl Error for PatternError {}

/// A complete crash schedule for one execution.
///
/// # Example
///
/// ```
/// use setagree_sync::{CrashSpec, FailurePattern};
/// use setagree_types::{ProcessId, ProcessSet};
///
/// // p3 crashes initially; p1 crashes in round 2 after reaching only p1 itself.
/// let mut pattern = FailurePattern::none(4);
/// pattern.crash(ProcessId::new(2), CrashSpec::initial())?;
/// pattern.crash(ProcessId::new(0), CrashSpec::new(2, 1))?;
/// assert_eq!(pattern.fault_count(), 2);
/// # Ok::<(), setagree_sync::PatternError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FailurePattern {
    n: usize,
    crashes: BTreeMap<ProcessId, CrashSpec>,
}

impl FailurePattern {
    /// The failure-free pattern over `n` processes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn none(n: usize) -> Self {
        assert!(n > 0, "a system needs at least one process");
        FailurePattern {
            n,
            crashes: BTreeMap::new(),
        }
    }

    /// The system size `n`.
    pub fn system_size(&self) -> usize {
        self.n
    }

    /// Schedules a crash, replacing any previous spec for the process.
    ///
    /// # Errors
    ///
    /// Rejects zero rounds, prefixes longer than `n`, and foreign ids.
    pub fn crash(&mut self, id: ProcessId, spec: CrashSpec) -> Result<(), PatternError> {
        if id.index() >= self.n {
            return Err(PatternError::UnknownProcess {
                process: id,
                n: self.n,
            });
        }
        if spec.round == 0 {
            return Err(PatternError::ZeroRound { process: id });
        }
        if spec.after_sends > self.n {
            return Err(PatternError::PrefixTooLong {
                process: id,
                after_sends: spec.after_sends,
                n: self.n,
            });
        }
        self.crashes.insert(id, spec);
        Ok(())
    }

    /// The number of faulty processes (`f` in the paper).
    pub fn fault_count(&self) -> usize {
        self.crashes.len()
    }

    /// The crash spec of a process, if it is faulty.
    pub fn spec(&self, id: ProcessId) -> Option<CrashSpec> {
        self.crashes.get(&id).copied()
    }

    /// Iterates over `(process, spec)` pairs in process order.
    pub fn iter(&self) -> impl Iterator<Item = (ProcessId, CrashSpec)> + '_ {
        self.crashes.iter().map(|(&id, &spec)| (id, spec))
    }

    /// The number of processes that crash **initially** (round 1, before
    /// any send) — the quantity compared against `t − d` in Lemma 2.
    pub fn initial_crash_count(&self) -> usize {
        self.crashes
            .values()
            .filter(|s| s.round == 1 && s.after_sends == 0)
            .count()
    }

    /// The number of crashes in rounds `≤ round`.
    pub fn crashes_by_round(&self, round: usize) -> usize {
        self.crashes.values().filter(|s| s.round <= round).count()
    }

    /// Initial crashes of the given processes (they never take a step).
    ///
    /// # Errors
    ///
    /// Propagates [`PatternError::UnknownProcess`].
    pub fn initial(
        n: usize,
        ids: impl IntoIterator<Item = ProcessId>,
    ) -> Result<Self, PatternError> {
        let mut pattern = FailurePattern::none(n);
        for id in ids {
            pattern.crash(id, CrashSpec::initial())?;
        }
        Ok(pattern)
    }

    /// The *staircase* adversary from the agreement lower-bound argument
    /// (proof of Theorem 12): `per_round` crashes in every round, each
    /// crasher delivering a distinct prefix of its sends, keeping the
    /// number of distinct states as high as possible. Crashes processes
    /// `p_n, p_{n-1}, …` until `budget` crashes are scheduled.
    ///
    /// # Panics
    ///
    /// Panics if `budget ≥ n` (someone must survive) or `per_round == 0`.
    pub fn staircase(n: usize, budget: usize, per_round: usize) -> Self {
        assert!(budget < n, "at least one process must survive");
        assert!(per_round > 0, "per_round must be positive");
        let mut pattern = FailurePattern::none(n);
        let mut victim = n;
        let mut scheduled = 0;
        let mut round = 1;
        while scheduled < budget {
            for slot in 0..per_round {
                if scheduled == budget {
                    break;
                }
                victim -= 1;
                // Distinct prefixes within a round maximize distinct views.
                let prefix = (slot * n) / per_round.max(1);
                pattern
                    .crash(ProcessId::new(victim), CrashSpec::new(round, prefix.min(n)))
                    .expect("victim < n and prefix ≤ n by construction");
                scheduled += 1;
            }
            round += 1;
        }
        pattern
    }

    /// The classic *chain* adversary behind the `t + 1` consensus lower
    /// bound (Fischer–Lynch / Aguilera–Toueg): in round `r`, the carrier
    /// of the hidden extremal value crashes after whispering it to exactly
    /// one fresh process — the next carrier. After `t` rounds of this, one
    /// round of honest flooding remains necessary; any protocol deciding
    /// earlier splits.
    ///
    /// The hidden value starts at `p_1`; the carriers in round `r` are
    /// `p_1, p_2, …` in order; each crashes delivering only to its
    /// successor (prefix `r + 1` reaches exactly `p_1..p_{r+1}`, all of
    /// which crashed except the successor).
    ///
    /// # Panics
    ///
    /// Panics if `t ≥ n` (someone must survive).
    pub fn chain(n: usize, t: usize) -> Self {
        assert!(t < n, "at least one process must survive");
        let mut pattern = FailurePattern::none(n);
        for r in 1..=t {
            // Carrier p_r crashes in round r reaching p_1..p_{r+1}: the
            // only *alive* recipient is p_{r+1}, the next carrier.
            pattern
                .crash(ProcessId::new(r - 1), CrashSpec::new(r, (r + 1).min(n)))
                .expect("r − 1 < t < n and prefix ≤ n");
        }
        pattern
    }

    /// A uniformly random pattern: chooses between 0 and `max_faults`
    /// victims, each with a crash round in `1..=max_round` and a uniform
    /// send prefix. Deterministic given the RNG state — log the seed to
    /// replay.
    ///
    /// # Panics
    ///
    /// Panics if `max_faults >= n`.
    pub fn random<R: Rng + ?Sized>(
        n: usize,
        max_faults: usize,
        max_round: usize,
        rng: &mut R,
    ) -> Self {
        assert!(max_faults < n, "at least one process must survive");
        let f = rng.gen_range(0..=max_faults);
        let mut ids: Vec<usize> = (0..n).collect();
        ids.shuffle(rng);
        let mut pattern = FailurePattern::none(n);
        for &idx in ids.iter().take(f) {
            let round = rng.gen_range(1..=max_round.max(1));
            let after_sends = rng.gen_range(0..=n);
            pattern
                .crash(ProcessId::new(idx), CrashSpec::new(round, after_sends))
                .expect("generated specs are valid");
        }
        pattern
    }
}

/// A crash that loses an **arbitrary subset** of the crash-round
/// broadcast — the standard synchronous model, used by the ablation runs
/// (see [`run_protocol_unordered`](crate::engine::run_protocol_unordered)).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SubsetCrash {
    /// The crash round (1-based).
    pub round: usize,
    /// Exactly which processes receive the crash-round broadcast.
    pub delivered_to: ProcessSet,
}

impl SubsetCrash {
    /// Crash during `round`, delivering that round's broadcast to exactly
    /// the given recipients.
    pub fn new(round: usize, delivered_to: ProcessSet) -> Self {
        SubsetCrash {
            round,
            delivered_to,
        }
    }
}

/// A crash schedule in the standard model: each faulty process loses an
/// arbitrary subset of its crash-round broadcast. Unlike
/// [`FailurePattern`], round-1 views under this adversary are **not**
/// totally ordered by containment.
///
/// # Example
///
/// ```
/// use setagree_sync::{SubsetCrash, UnorderedFailurePattern};
/// use setagree_types::{ProcessId, ProcessSet};
///
/// let mut delivered = ProcessSet::empty(4);
/// delivered.insert(ProcessId::new(2)); // reaches only p3
/// let mut pattern = UnorderedFailurePattern::none(4);
/// pattern.crash(ProcessId::new(0), SubsetCrash::new(1, delivered))?;
/// assert_eq!(pattern.fault_count(), 1);
/// # Ok::<(), setagree_sync::PatternError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct UnorderedFailurePattern {
    n: usize,
    crashes: BTreeMap<ProcessId, SubsetCrash>,
}

impl UnorderedFailurePattern {
    /// The failure-free pattern over `n` processes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn none(n: usize) -> Self {
        assert!(n > 0, "a system needs at least one process");
        UnorderedFailurePattern {
            n,
            crashes: BTreeMap::new(),
        }
    }

    /// The system size `n`.
    pub fn system_size(&self) -> usize {
        self.n
    }

    /// Schedules a crash, replacing any previous spec for the process.
    ///
    /// # Errors
    ///
    /// Rejects zero rounds, recipient sets over the wrong universe, and
    /// foreign ids.
    pub fn crash(&mut self, id: ProcessId, spec: SubsetCrash) -> Result<(), PatternError> {
        if id.index() >= self.n {
            return Err(PatternError::UnknownProcess {
                process: id,
                n: self.n,
            });
        }
        if spec.round == 0 {
            return Err(PatternError::ZeroRound { process: id });
        }
        if spec.delivered_to.universe() != self.n {
            return Err(PatternError::PrefixTooLong {
                process: id,
                after_sends: spec.delivered_to.universe(),
                n: self.n,
            });
        }
        self.crashes.insert(id, spec);
        Ok(())
    }

    /// The number of faulty processes.
    pub fn fault_count(&self) -> usize {
        self.crashes.len()
    }

    /// The crash spec of a process, if it is faulty.
    pub fn spec(&self, id: ProcessId) -> Option<&SubsetCrash> {
        self.crashes.get(&id)
    }

    /// Iterates over `(process, spec)` pairs in process order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (ProcessId, &SubsetCrash)> + '_ {
        self.crashes.iter().map(|(&id, spec)| (id, spec))
    }
}

impl From<&FailurePattern> for UnorderedFailurePattern {
    /// Every ordered pattern is also expressible in the standard model:
    /// the prefix becomes the delivered set.
    fn from(ordered: &FailurePattern) -> Self {
        let n = ordered.system_size();
        let mut unordered = UnorderedFailurePattern::none(n);
        for (id, spec) in ordered.iter() {
            let mut delivered = ProcessSet::empty(n);
            for r in 0..spec.after_sends.min(n) {
                delivered.insert(ProcessId::new(r));
            }
            unordered
                .crash(id, SubsetCrash::new(spec.round, delivered))
                .expect("ordered patterns are valid");
        }
        unordered
    }
}

impl fmt::Display for FailurePattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.crashes.is_empty() {
            return write!(f, "no crashes (n = {})", self.n);
        }
        write!(f, "crashes (n = {}):", self.n)?;
        for (id, spec) in &self.crashes {
            write!(f, " {id}@r{}+{}", spec.round, spec.after_sends)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn none_has_no_faults() {
        let p = FailurePattern::none(5);
        assert_eq!(p.fault_count(), 0);
        assert_eq!(p.initial_crash_count(), 0);
        assert_eq!(p.spec(ProcessId::new(0)), None);
    }

    #[test]
    fn crash_validates_inputs() {
        let mut p = FailurePattern::none(3);
        assert!(matches!(
            p.crash(ProcessId::new(5), CrashSpec::initial()),
            Err(PatternError::UnknownProcess { .. })
        ));
        assert!(matches!(
            p.crash(ProcessId::new(0), CrashSpec::new(0, 0)),
            Err(PatternError::ZeroRound { .. })
        ));
        assert!(matches!(
            p.crash(ProcessId::new(0), CrashSpec::new(1, 4)),
            Err(PatternError::PrefixTooLong { .. })
        ));
        assert!(p.crash(ProcessId::new(0), CrashSpec::new(1, 3)).is_ok());
    }

    #[test]
    fn initial_counts_only_round_one_zero_prefix() {
        let mut p = FailurePattern::none(4);
        p.crash(ProcessId::new(0), CrashSpec::initial()).unwrap();
        p.crash(ProcessId::new(1), CrashSpec::new(1, 2)).unwrap();
        p.crash(ProcessId::new(2), CrashSpec::new(2, 0)).unwrap();
        assert_eq!(p.initial_crash_count(), 1);
        assert_eq!(p.fault_count(), 3);
        assert_eq!(p.crashes_by_round(1), 2);
        assert_eq!(p.crashes_by_round(2), 3);
    }

    #[test]
    fn initial_constructor() {
        let p = FailurePattern::initial(4, [ProcessId::new(1), ProcessId::new(3)]).unwrap();
        assert_eq!(p.initial_crash_count(), 2);
        assert_eq!(p.spec(ProcessId::new(1)), Some(CrashSpec::initial()));
    }

    #[test]
    fn staircase_schedules_per_round() {
        let p = FailurePattern::staircase(10, 6, 2);
        assert_eq!(p.fault_count(), 6);
        // Two crashes in each of rounds 1, 2, 3.
        for r in 1..=3 {
            assert_eq!(p.crashes_by_round(r), 2 * r);
        }
        // Victims are the highest process ids.
        assert!(p.spec(ProcessId::new(9)).is_some());
        assert!(p.spec(ProcessId::new(0)).is_none());
    }

    #[test]
    #[should_panic(expected = "survive")]
    fn staircase_requires_survivor() {
        let _ = FailurePattern::staircase(4, 4, 1);
    }

    #[test]
    fn random_is_replayable_and_bounded() {
        let a = FailurePattern::random(8, 3, 4, &mut SmallRng::seed_from_u64(42));
        let b = FailurePattern::random(8, 3, 4, &mut SmallRng::seed_from_u64(42));
        assert_eq!(a, b, "same seed, same pattern");
        assert!(a.fault_count() <= 3);
        for (_, spec) in a.iter() {
            assert!((1..=4).contains(&spec.round));
            assert!(spec.after_sends <= 8);
        }
    }

    #[test]
    fn display_formats() {
        assert_eq!(FailurePattern::none(3).to_string(), "no crashes (n = 3)");
        let mut p = FailurePattern::none(3);
        p.crash(ProcessId::new(1), CrashSpec::new(2, 1)).unwrap();
        assert_eq!(p.to_string(), "crashes (n = 3): p2@r2+1");
    }
}
