//! Algorithm parameters `(n, t, k, d, ℓ)`, with typed entry points to the
//! paper's round formulas (defined once, in [`setagree_sync::bounds`]).

use std::error::Error;
use std::fmt;

use serde::{Deserialize, Serialize};

use setagree_conditions::{LegalityParams, SdtParams};
use setagree_sync::bounds;

/// Error building a [`ConditionBasedConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// Need `1 ≤ t < n` (at least one process must survive, and a fault
    /// bound of zero leaves nothing to tolerate).
    BadFaultBound {
        /// The system size.
        n: usize,
        /// The offending fault bound.
        t: usize,
    },
    /// Need `k ≥ 1`.
    ZeroK,
    /// Need `1 ≤ ℓ ≤ k`: a condition encoding more values than the
    /// processes may decide is useless (Section 6.1).
    EllExceedsK {
        /// The agreement width of the condition.
        ell: usize,
        /// The number of values that may be decided.
        k: usize,
    },
    /// Need `ℓ ≥ 1`.
    ZeroEll,
    /// Need `d ≤ t`.
    DegreeExceedsFaults {
        /// The condition degree.
        d: usize,
        /// The fault bound.
        t: usize,
    },
    /// The paper requires `ℓ ≤ t − d`; beyond it the condition may include
    /// all input vectors and cannot beat `⌊t/k⌋ + 1` (Theorem 8 /
    /// footnote 6). Opt in with
    /// [`ConfigBuilder::permit_trivial_condition`].
    TrivialConditionRegime {
        /// The agreement width.
        ell: usize,
        /// `t − d`.
        t_minus_d: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::BadFaultBound { n, t } => {
                write!(f, "fault bound t = {t} must satisfy 1 ≤ t < n = {n}")
            }
            ConfigError::ZeroK => write!(f, "k must be at least 1"),
            ConfigError::ZeroEll => write!(f, "ℓ must be at least 1"),
            ConfigError::EllExceedsK { ell, k } => {
                write!(
                    f,
                    "condition width ℓ = {ell} exceeds the agreement degree k = {k}"
                )
            }
            ConfigError::DegreeExceedsFaults { d, t } => {
                write!(
                    f,
                    "condition degree d = {d} exceeds the fault bound t = {t}"
                )
            }
            ConfigError::TrivialConditionRegime { ell, t_minus_d } => write!(
                f,
                "ℓ = {ell} > t − d = {t_minus_d}: the condition is in the trivial regime \
                 (enable permit_trivial_condition to run it anyway)"
            ),
        }
    }
}

impl Error for ConfigError {}

/// The validated parameters of one [`ConditionBased`](crate::ConditionBased)
/// instantiation.
///
/// # Example
///
/// ```
/// use setagree_core::ConditionBasedConfig;
///
/// let config = ConditionBasedConfig::builder(8, 4, 2)
///     .condition_degree(2)
///     .ell(2)
///     .build()?;
/// assert_eq!(config.legality().x(), 2); // x = t − d
/// // ⌊(d+ℓ−1)/k⌋ + 1 = ⌊3/2⌋ + 1 = 2 rounds in-condition…
/// assert_eq!(config.rounds_in_condition(), 2);
/// // …vs ⌊t/k⌋ + 1 = 3 rounds outside.
/// assert_eq!(config.rounds_outside_condition(), 3);
/// # Ok::<(), setagree_core::ConfigError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ConditionBasedConfig {
    n: usize,
    t: usize,
    k: usize,
    d: usize,
    ell: usize,
}

impl ConditionBasedConfig {
    /// Starts a builder for a system of `n` processes tolerating `t`
    /// crashes and deciding at most `k` values.
    ///
    /// Defaults: `d = t`, `ℓ = 1` — the weakest consensus-grade condition.
    pub fn builder(n: usize, t: usize, k: usize) -> ConfigBuilder {
        ConfigBuilder {
            n,
            t,
            k,
            d: t,
            ell: 1,
            permit_trivial: false,
        }
    }

    /// The system size `n`.
    pub const fn n(&self) -> usize {
        self.n
    }

    /// The fault bound `t`.
    pub const fn t(&self) -> usize {
        self.t
    }

    /// The agreement degree `k` (at most `k` values decided).
    pub const fn k(&self) -> usize {
        self.k
    }

    /// The condition degree `d` (the condition is in `S^d_t[ℓ]`).
    pub const fn d(&self) -> usize {
        self.d
    }

    /// The condition width ℓ.
    pub const fn ell(&self) -> usize {
        self.ell
    }

    /// The legality parameters of the condition: `(x, ℓ) = (t − d, ℓ)`.
    pub fn legality(&self) -> LegalityParams {
        LegalityParams::new(self.t - self.d, self.ell).expect("ℓ ≥ 1 validated")
    }

    /// The hierarchy member `S^d_t[ℓ]` the condition belongs to.
    pub fn sdt(&self) -> SdtParams {
        SdtParams::new(self.t, self.d, self.ell).expect("d ≤ t and ℓ ≥ 1 validated")
    }

    /// The paper's in-condition round bound `⌊(d+ℓ−1)/k⌋ + 1`
    /// ([`bounds::in_condition`]).
    pub const fn rounds_in_condition(&self) -> usize {
        bounds::in_condition(self.d, self.ell, self.k)
    }

    /// The out-of-condition bound `⌊t/k⌋ + 1` (the classical synchronous
    /// k-set agreement bound, [`bounds::classical`]).
    pub const fn rounds_outside_condition(&self) -> usize {
        bounds::classical(self.t, self.k)
    }

    /// The round at which the line-18 early predicate fires: the
    /// in-condition bound clamped to at least 2 (the algorithm's decision
    /// loop starts at round 2).
    pub fn condition_decision_round(&self) -> usize {
        bounds::from_round_two(self.rounds_in_condition())
    }

    /// The final decision round, clamped to at least 2.
    pub fn final_decision_round(&self) -> usize {
        bounds::from_round_two(self.rounds_outside_condition())
    }

    /// A safe engine round limit for executions of this configuration.
    pub fn round_limit(&self) -> usize {
        bounds::round_limit(
            self.final_decision_round()
                .max(self.condition_decision_round()),
        )
    }
}

impl fmt::Display for ConditionBasedConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} t={} k={} d={} ℓ={}",
            self.n, self.t, self.k, self.d, self.ell
        )
    }
}

/// Builder for [`ConditionBasedConfig`]; see
/// [`ConditionBasedConfig::builder`].
#[derive(Debug, Clone)]
pub struct ConfigBuilder {
    n: usize,
    t: usize,
    k: usize,
    d: usize,
    ell: usize,
    permit_trivial: bool,
}

impl ConfigBuilder {
    /// Sets the condition degree `d` (default: `t`).
    pub fn condition_degree(mut self, d: usize) -> Self {
        self.d = d;
        self
    }

    /// Sets the condition width ℓ (default: 1).
    pub fn ell(mut self, ell: usize) -> Self {
        self.ell = ell;
        self
    }

    /// Allows `ℓ > t − d` — the regime where the condition may contain all
    /// input vectors and the algorithm cannot beat `⌊t/k⌋ + 1` (useful for
    /// baseline measurements; see the paper's footnote 6).
    pub fn permit_trivial_condition(mut self) -> Self {
        self.permit_trivial = true;
        self
    }

    /// Validates and builds the configuration.
    ///
    /// # Errors
    ///
    /// See [`ConfigError`] for each rejected combination.
    pub fn build(self) -> Result<ConditionBasedConfig, ConfigError> {
        let ConfigBuilder {
            n,
            t,
            k,
            d,
            ell,
            permit_trivial,
        } = self;
        if t == 0 || t >= n {
            return Err(ConfigError::BadFaultBound { n, t });
        }
        if k == 0 {
            return Err(ConfigError::ZeroK);
        }
        if ell == 0 {
            return Err(ConfigError::ZeroEll);
        }
        if ell > k {
            return Err(ConfigError::EllExceedsK { ell, k });
        }
        if d > t {
            return Err(ConfigError::DegreeExceedsFaults { d, t });
        }
        if ell + d > t && !permit_trivial {
            return Err(ConfigError::TrivialConditionRegime {
                ell,
                t_minus_d: t - d,
            });
        }
        Ok(ConditionBasedConfig { n, t, k, d, ell })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_and_accessors() {
        let c = ConditionBasedConfig::builder(8, 4, 2)
            .condition_degree(3)
            .ell(1)
            .build()
            .unwrap();
        assert_eq!((c.n(), c.t(), c.k(), c.d(), c.ell()), (8, 4, 2, 3, 1));
        assert_eq!(c.legality(), LegalityParams::new(1, 1).unwrap());
        assert_eq!(c.sdt().degree(), 3);
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        assert!(matches!(
            ConditionBasedConfig::builder(4, 0, 1).build(),
            Err(ConfigError::BadFaultBound { .. })
        ));
        assert!(matches!(
            ConditionBasedConfig::builder(4, 4, 1).build(),
            Err(ConfigError::BadFaultBound { .. })
        ));
        assert!(matches!(
            ConditionBasedConfig::builder(4, 2, 0).build(),
            Err(ConfigError::ZeroK)
        ));
        assert!(matches!(
            ConditionBasedConfig::builder(8, 4, 2).ell(0).build(),
            Err(ConfigError::ZeroEll)
        ));
        assert!(matches!(
            ConditionBasedConfig::builder(8, 4, 2).ell(3).build(),
            Err(ConfigError::EllExceedsK { .. })
        ));
        assert!(matches!(
            ConditionBasedConfig::builder(8, 4, 2)
                .condition_degree(5)
                .build(),
            Err(ConfigError::DegreeExceedsFaults { .. })
        ));
    }

    #[test]
    fn trivial_regime_needs_opt_in() {
        // t = 2, d = 2 → t − d = 0 < ℓ = 1.
        let builder = || {
            ConditionBasedConfig::builder(6, 2, 2)
                .condition_degree(2)
                .ell(1)
        };
        assert!(matches!(
            builder().build(),
            Err(ConfigError::TrivialConditionRegime { .. })
        ));
        assert!(builder().permit_trivial_condition().build().is_ok());
    }

    #[test]
    fn round_formula_special_cases() {
        // ℓ = 1, k = 1: consensus in d + 1 rounds [22].
        let consensus = ConditionBasedConfig::builder(8, 5, 1)
            .condition_degree(3)
            .ell(1)
            .build()
            .unwrap();
        assert_eq!(consensus.rounds_in_condition(), 4);
        assert_eq!(consensus.rounds_outside_condition(), 6);

        // ℓ = 1: the generic pair (k, ⌊d/k⌋ + 1) of Section 1.2.
        let pair = ConditionBasedConfig::builder(10, 6, 3)
            .condition_degree(4)
            .ell(1)
            .build()
            .unwrap();
        assert_eq!(pair.rounds_in_condition(), 4 / 3 + 1);

        // d = t − ℓ + 1 (trivial boundary): in-condition bound equals ⌊t/k⌋ + 1.
        let boundary = ConditionBasedConfig::builder(10, 6, 2)
            .condition_degree(5)
            .ell(2)
            .permit_trivial_condition()
            .build()
            .unwrap();
        assert_eq!(
            boundary.rounds_in_condition(),
            boundary.rounds_outside_condition()
        );
    }

    #[test]
    fn k_greater_than_d_plus_ell_gives_one_round_formula() {
        // ⌊(d+ℓ−1)/k⌋ + 1 = 1 when k > d + ℓ − 1: the [21]-style one-round
        // regime; the runnable decision round clamps to 2.
        let c = ConditionBasedConfig::builder(10, 5, 4)
            .condition_degree(2)
            .ell(1)
            .build()
            .unwrap();
        assert_eq!(c.rounds_in_condition(), 1);
        assert_eq!(c.condition_decision_round(), 2);
    }

    #[test]
    fn round_limit_covers_both_bounds() {
        let c = ConditionBasedConfig::builder(9, 6, 2)
            .condition_degree(3)
            .ell(2)
            .build()
            .unwrap();
        assert!(c.round_limit() > c.final_decision_round());
        assert!(c.round_limit() > c.condition_decision_round());
    }

    #[test]
    fn display_lists_parameters() {
        let c = ConditionBasedConfig::builder(8, 4, 2)
            .condition_degree(2)
            .build()
            .unwrap();
        assert_eq!(c.to_string(), "n=8 t=4 k=2 d=2 ℓ=1");
    }
}
