//! The benchmark's own input generation: input vectors, crash patterns,
//! fault plans and the *paper grid*, all drawn from [`SplitMix64`].
//!
//! Nothing here calls `crates/bench` or `vendor/rand`, so a later PR
//! cannot move the inputs by editing either; every workload folds what
//! it generated into an `inputs_digest`, and `WORKLOADS` pins the
//! digests of the default seed.

use std::sync::Arc;

use setagree::conditions::{LegalityParams, MaxCondition};
use setagree::core::{Adversary, ConditionBasedConfig, FaultPlan, ProtocolSpec, ScenarioSuite};
use setagree::sync::{CrashSpec, FailurePattern};
use setagree::types::{InputVector, ProcessId};

use crate::rng::SplitMix64;

/// FNV-1a over 64-bit words: the digest behind `inputs_digest` and
/// `verdict_digest`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    pub fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }

    pub fn input(&mut self, input: &InputVector<u32>) {
        self.word(input.len() as u64);
        for value in input.iter() {
            self.word(u64::from(*value));
        }
    }

    pub fn pattern(&mut self, pattern: &FailurePattern) {
        self.word(pattern.system_size() as u64);
        self.word(pattern.fault_count() as u64);
        for (id, spec) in pattern.iter() {
            self.word(id.index() as u64);
            self.word(spec.round as u64);
            self.word(spec.after_sends as u64);
        }
    }

    pub fn plan(&mut self, plan: &FaultPlan) {
        self.word(plan.n() as u64);
        self.word(plan.seed());
        for byte in plan.summary().bytes() {
            self.word(u64::from(byte));
        }
    }
}

/// The operating point of `benches/protocols.rs`: t = n/2, k = 2,
/// d = t − 2, ℓ = 2, so the condition is (x, ℓ) = (2, 2)-legal.
pub fn operating_point(n: usize) -> ConditionBasedConfig {
    let t = n / 2;
    ConditionBasedConfig::builder(n, t, 2)
        .condition_degree(t - 2)
        .ell(2)
        .build()
        .expect("the operating point is valid for n ≥ 8")
}

/// A vector inside `C_max(x, ℓ)`: ℓ heavy values fill x + 1 entries,
/// the rest are smaller noise, positions shuffled.
pub fn in_condition(n: usize, params: LegalityParams, rng: &mut SplitMix64) -> InputVector<u32> {
    let (x, ell) = (params.x(), params.ell());
    assert!(x < n && ell <= x + 1, "no dense-enough vector exists");
    let mut entries: Vec<u32> = (0..=x).map(|slot| 1000 + (slot % ell) as u32).collect();
    entries.resize_with(n, || rng.range(1, 100) as u32);
    rng.shuffle(&mut entries);
    InputVector::new(entries)
}

/// A vector outside `C_max(x, ℓ)` for ℓ ≤ x: all entries distinct, so
/// the top ℓ values fill only ℓ ≤ x entries. Shuffled, so two passes
/// never share the cell.
pub fn out_of_condition(n: usize, rng: &mut SplitMix64) -> InputVector<u32> {
    let base = rng.range(0, 1000) as u32;
    let mut entries: Vec<u32> = (1..=n as u32).map(|v| base + v).collect();
    rng.shuffle(&mut entries);
    InputVector::new(entries)
}

/// All values distinct, descending: the worst case for the baselines.
/// The base is drawn from a range wide enough that two passes hardly
/// ever share the vector.
pub fn spread(n: usize, rng: &mut SplitMix64) -> InputVector<u32> {
    let base = rng.range(0, 1 << 30) as u32;
    InputVector::new((1..=n as u32).rev().map(|v| base + v).collect())
}

/// Between 1 and `max_faults` distinct victims, each crashing in a
/// round of `1..=max_round` after a uniform send prefix.
pub fn random_pattern(
    n: usize,
    max_faults: usize,
    max_round: usize,
    rng: &mut SplitMix64,
) -> FailurePattern {
    assert!(max_faults < n, "at least one process must survive");
    let faults = rng.range(1, max_faults as u64) as usize;
    let mut ids: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut ids);
    let mut pattern = FailurePattern::none(n);
    for &id in &ids[..faults] {
        let round = rng.range(1, max_round as u64) as usize;
        let after_sends = rng.range(0, n as u64) as usize;
        pattern
            .crash(ProcessId::new(id), CrashSpec::new(round, after_sends))
            .expect("victims are distinct and in range");
    }
    pattern
}

/// The lossy link-fault plan of `faulty_net`: per 10 000, 300 drops,
/// 300 delays of at most 2 rounds, 300 duplicates, 2 000 reorders.
pub fn lossy_plan(n: usize, seed: u64) -> FaultPlan {
    FaultPlan::new(n, seed)
        .drop_rate(300)
        .delay_rate(300, 2)
        .duplicate_rate(300)
        .reorder_rate(2000)
}

/// How a grid pass wraps its crash patterns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Links {
    /// `Adversary::Ordered`: the paper's model, the plain round loop.
    Reliable,
    /// `Adversary::Omission` under [`lossy_plan`] (every tenth pass under
    /// `FaultPlan::none`): the faulty round loop.
    Faulty,
}

pub const GRID_SIZES: [usize; 3] = [16, 32, 64];
const IN_CONDITION_INPUTS: usize = 6;
const RANDOM_PATTERNS: usize = 3;
/// 3 sizes × 4 specs × 8 inputs × 6 patterns.
pub const CELLS_PER_PASS: usize =
    GRID_SIZES.len() * 4 * (IN_CONDITION_INPUTS + 2) * (3 + RANDOM_PATTERNS);

/// The four protocol families at the operating point for `n`, shared by
/// every pass (specs do not depend on the seed).
pub fn family_specs(n: usize) -> Vec<Arc<ProtocolSpec<u32>>> {
    let config = operating_point(n);
    let oracle = MaxCondition::new(config.legality());
    vec![
        Arc::new(ProtocolSpec::condition_based(config, oracle)),
        Arc::new(ProtocolSpec::early_condition_based(config, oracle)),
        Arc::new(ProtocolSpec::flood_set(n, config.t(), config.k())),
        Arc::new(ProtocolSpec::early_deciding(n, config.t(), config.k())),
    ]
}

/// One `ScenarioSuite`'s worth of generated components.
#[derive(Debug)]
pub struct SuiteInputs {
    pub specs: Vec<Arc<ProtocolSpec<u32>>>,
    pub inputs: Vec<Arc<InputVector<u32>>>,
    pub patterns: Vec<Arc<Adversary>>,
}

impl SuiteInputs {
    pub fn cells(&self) -> usize {
        self.specs.len() * self.inputs.len() * self.patterns.len()
    }

    /// The suite over these components (default workers, no cache).
    pub fn suite(&self) -> ScenarioSuite<u32> {
        let mut suite = ScenarioSuite::new();
        for spec in &self.specs {
            suite = suite.spec_shared(Arc::clone(spec));
        }
        for input in &self.inputs {
            suite = suite.input_shared(Arc::clone(input));
        }
        for pattern in &self.patterns {
            suite = suite.pattern_shared(Arc::clone(pattern));
        }
        suite
    }
}

/// One pass of the paper grid: a suite per size in [`GRID_SIZES`].
#[derive(Debug)]
pub struct GridPass {
    pub suites: Vec<SuiteInputs>,
}

impl GridPass {
    pub fn cells(&self) -> usize {
        self.suites.iter().map(SuiteInputs::cells).sum()
    }
}

/// Generates pass `index` of seed `root`, folding every input, pattern
/// and plan into `digest`.
pub fn grid_pass(root: &SplitMix64, index: usize, links: Links, digest: &mut Fnv) -> GridPass {
    let mut rng = root.fork(index as u64);
    let suites = GRID_SIZES
        .iter()
        .map(|&n| {
            let config = operating_point(n);
            let (t, k) = (config.t(), config.k());
            let mut inputs: Vec<InputVector<u32>> = (0..IN_CONDITION_INPUTS)
                .map(|_| in_condition(n, config.legality(), &mut rng))
                .collect();
            inputs.push(out_of_condition(n, &mut rng));
            inputs.push(spread(n, &mut rng));
            let mut crashes = vec![
                FailurePattern::none(n),
                FailurePattern::staircase(n, t, 2),
                FailurePattern::chain(n, t),
            ];
            crashes.extend((0..RANDOM_PATTERNS).map(|_| random_pattern(n, t, t / k + 1, &mut rng)));
            let plan = match links {
                Links::Reliable => None,
                Links::Faulty if index % 10 == 9 => Some(FaultPlan::none(n)),
                Links::Faulty => Some(lossy_plan(n, rng.fork(n as u64).next_u64())),
            };
            inputs.iter().for_each(|input| digest.input(input));
            crashes.iter().for_each(|pattern| digest.pattern(pattern));
            if let Some(plan) = &plan {
                digest.plan(plan);
            }
            let patterns = crashes
                .into_iter()
                .map(|crashes| match &plan {
                    None => Adversary::Ordered(crashes),
                    Some(plan) => Adversary::Omission {
                        plan: plan.clone(),
                        crashes,
                    },
                })
                .map(Arc::new)
                .collect();
            SuiteInputs {
                specs: family_specs(n),
                inputs: inputs.into_iter().map(Arc::new).collect(),
                patterns,
            }
        })
        .collect();
    GridPass { suites }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_vectors_sit_on_the_promised_side_of_the_condition() {
        let mut rng = SplitMix64::new(3);
        for n in [8usize, 16, 64, 256] {
            let params = operating_point(n).legality();
            let condition = MaxCondition::new(params);
            for _ in 0..20 {
                let inside = in_condition(n, params, &mut rng);
                assert_eq!(inside.len(), n);
                assert!(condition.contains(&inside), "n = {n}: {inside:?}");
                assert!(!condition.contains(&out_of_condition(n, &mut rng)));
                assert_eq!(spread(n, &mut rng).distinct_count(), n);
            }
        }
    }

    #[test]
    fn random_patterns_respect_the_budget() {
        let mut rng = SplitMix64::new(5);
        for _ in 0..200 {
            let pattern = random_pattern(16, 8, 5, &mut rng);
            assert!((1..=8).contains(&pattern.fault_count()));
            for (_, spec) in pattern.iter() {
                assert!((1..=5).contains(&spec.round) && spec.after_sends <= 16);
            }
        }
    }

    #[test]
    fn a_pass_is_a_pure_function_of_seed_and_index() {
        let digest_of = |seed: u64, index: usize, links: Links| {
            let mut digest = Fnv::default();
            let pass = grid_pass(&SplitMix64::new(seed), index, links, &mut digest);
            assert_eq!(pass.cells(), CELLS_PER_PASS);
            assert_eq!(CELLS_PER_PASS, 576);
            digest.value()
        };
        assert_eq!(
            digest_of(1, 0, Links::Reliable),
            digest_of(1, 0, Links::Reliable)
        );
        assert_ne!(
            digest_of(1, 0, Links::Reliable),
            digest_of(1, 1, Links::Reliable)
        );
        assert_ne!(
            digest_of(1, 0, Links::Reliable),
            digest_of(2, 0, Links::Reliable)
        );
        assert_ne!(
            digest_of(1, 0, Links::Reliable),
            digest_of(1, 0, Links::Faulty)
        );
    }
}
