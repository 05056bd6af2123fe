//! The paper's round bounds, each defined once.
//!
//! Every decision-round formula of Bonnet & Raynal (ICDCS 2008) and the
//! one slack rule behind the engine's round limits live here as pure
//! `const` arithmetic: the oracle call and the failure-pattern counts
//! stay with the caller. Parameters follow the paper: `t` crashes at
//! most, `k` values may be decided, the condition `C ∈ S^d_t[ℓ]` is
//! `(t − d, ℓ)`-legal, and `f` is the number of crashes that actually
//! happen.
//!
//! Every function divides by `k` and so requires `k ≥ 1`;
//! [`in_condition`] also requires `ℓ ≥ 1`.
//!
//! ```
//! use setagree_sync::bounds;
//!
//! // ℓ = 1, k = 1: condition-based consensus decides in d + 1 rounds.
//! assert_eq!(bounds::in_condition(3, 1, 1), 4);
//! // d = t, k = 1: classical consensus, t + 1 rounds.
//! assert_eq!(bounds::in_condition(5, 1, 1), bounds::classical(5, 1));
//! ```

/// Lemma 1(ii) and Lemma 2(i): with the input in the condition (or more
/// than `t − d` initial crashes), Figure 2 decides by round
/// `⌊(d+ℓ−1)/k⌋ + 1`.
///
/// It interpolates the known special cases: `ℓ = 1, k = 1` gives the
/// `d + 1` of condition-based consensus, and `d = t − ℓ + 1` (the
/// trivial-regime boundary) gives [`classical`]`(t, k)`.
pub const fn in_condition(d: usize, ell: usize, k: usize) -> usize {
    (d + ell - 1) / k + 1
}

/// Lemma 2(ii) and Theorem 10: any input under any adversary decides by
/// round `⌊t/k⌋ + 1`, the classical synchronous k-set agreement bound
/// (and the flood-set baseline's decision round).
pub const fn classical(t: usize, k: usize) -> usize {
    t / k + 1
}

/// Figure 2's `max(2, r)`: its decision loop starts at round 2, so no
/// bound it attains is below 2.
pub const fn from_round_two(r: usize) -> usize {
    if r < 2 {
        2
    } else {
        r
    }
}

/// Section 8: the early-deciding extension of Figure 2 decides by round
/// `⌊f/k⌋ + 2` once `f` crashes have actually happened. It is at least
/// 2, so it needs no [`from_round_two`].
pub const fn section_8(f: usize, k: usize) -> usize {
    f / k + 2
}

/// The early-deciding baseline of Gafni, Guerraoui and Pochon, the
/// adaptive bound Section 8 targets: `min(⌊f/k⌋ + 2, ⌊t/k⌋ + 1)`.
pub const fn early_deciding(f: usize, t: usize, k: usize) -> usize {
    let adaptive = section_8(f, k);
    let worst = classical(t, k);
    if adaptive < worst {
        adaptive
    } else {
        worst
    }
}

/// Figure 2's sharp bound, Lemmas 1 and 2's case analysis:
///
/// * input in the condition and at most `t − d` crashes by the end of
///   round 1: round 2 (Lemma 1(i));
/// * input in the condition otherwise, or outside it with more than
///   `t − d` initial crashes: `max(2, `[`in_condition`]`)` (Lemma 1(ii),
///   Lemma 2(i));
/// * otherwise: `max(2, `[`classical`]`)` (Lemma 2(ii), Theorem 10).
///
/// `input_in_condition` is the oracle's verdict on the input vector;
/// `crashes_by_round_one` and `initial_crashes` count the failure
/// pattern's crashes in rounds ≤ 1 and before round 1's sends.
pub const fn figure_2(
    input_in_condition: bool,
    crashes_by_round_one: usize,
    initial_crashes: usize,
    t: usize,
    d: usize,
    ell: usize,
    k: usize,
) -> usize {
    let t_minus_d = t - d;
    if input_in_condition && crashes_by_round_one <= t_minus_d {
        2
    } else if input_in_condition || initial_crashes > t_minus_d {
        from_round_two(in_condition(d, ell, k))
    } else {
        from_round_two(classical(t, k))
    }
}

/// The engine round limit for a run whose protocols decide by round
/// `bound`: two rounds of slack, so a run that overshoots its bound
/// still ends in a trace the bound check can reject.
pub const fn round_limit(bound: usize) -> usize {
    bound + 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn lemma_1_i_holds_up_to_t_minus_d_round_one_crashes() {
        // t = 6, d = 4, ℓ = 1, k = 1: t − d = 2, and the in-condition
        // bound ⌊(d+ℓ−1)/k⌋ + 1 = 5 is far from round 2.
        assert_eq!(figure_2(true, 2, 0, 6, 4, 1, 1), 2);
        assert_eq!(figure_2(true, 3, 0, 6, 4, 1, 1), 5);
        // Outside the condition, t − d initial crashes keep the classical
        // bound; one more switches to the in-condition one.
        assert_eq!(figure_2(false, 2, 2, 6, 4, 1, 1), 7);
        assert_eq!(figure_2(false, 3, 3, 6, 4, 1, 1), 5);
    }

    #[test]
    fn figure_2_never_decides_before_round_two() {
        // k > t, which the configuration allows: both formulas give 1.
        assert_eq!(in_condition(1, 1, 4), 1);
        assert_eq!(classical(3, 4), 1);
        assert_eq!(figure_2(true, 3, 0, 3, 1, 1, 4), 2);
        assert_eq!(figure_2(false, 0, 0, 3, 1, 1, 4), 2);
        assert_eq!(figure_2(false, 3, 3, 3, 1, 1, 4), 2);
    }

    #[test]
    fn section_8_values() {
        assert_eq!(section_8(0, 1), 2);
        assert_eq!(section_8(1, 1), 3);
        assert_eq!(section_8(1, 2), 2);
        assert_eq!(section_8(3, 2), 3);
        assert_eq!(section_8(7, 3), 4);
        assert_eq!(early_deciding(0, 8, 2), 2);
        assert_eq!(early_deciding(5, 8, 2), 4);
        assert_eq!(early_deciding(8, 8, 2), 5);
        assert_eq!(early_deciding(6, 6, 1), 7);
    }

    #[test]
    fn the_readme_special_cases() {
        for t in 1..=12 {
            for d in 0..=t {
                // ℓ = 1, k = 1: condition-based consensus, d + 1 rounds.
                assert_eq!(in_condition(d, 1, 1), d + 1);
            }
            // d = t, k = 1: classical consensus, t + 1 rounds.
            assert_eq!(in_condition(t, 1, 1), t + 1);
            assert_eq!(classical(t, 1), t + 1);
            for k in 1..=t + 1 {
                for ell in 1..=t {
                    // d = t − ℓ + 1, the trivial-regime boundary.
                    assert_eq!(in_condition(t - ell + 1, ell, k), classical(t, k));
                }
            }
        }
    }

    /// Small parameters, including the trivial regime `ℓ > t − d` and
    /// `k > t`.
    fn params() -> impl Strategy<Value = (usize, usize, usize, usize, usize)> {
        (1usize..=16, 1usize..=20)
            .prop_flat_map(|(t, k)| (Just(t), Just(k), 0usize..=t, 1usize..=k, 0usize..=t))
    }

    proptest! {
        /// Each function equals the literal expression it replaced at its
        /// call sites (the reference, kept as such).
        #[test]
        fn old_expressions_match(
            (t, k, d, ell, f) in params(),
            crashes in 0usize..=16,
            initial in 0usize..=16,
        ) {
            prop_assert_eq!(in_condition(d, ell, k), (d + ell - 1) / k + 1);
            prop_assert_eq!(classical(t, k), t / k + 1);
            prop_assert_eq!(from_round_two(classical(t, k)), (t / k + 1).max(2));
            prop_assert_eq!(section_8(f, k), (f / k + 2).max(2));
            prop_assert_eq!(early_deciding(f, t, k), (f / k + 2).min(t / k + 1));
            prop_assert_eq!(round_limit(classical(t, k)), t / k + 3);

            let condition_round = ((d + ell - 1) / k + 1).max(2);
            let final_round = (t / k + 1).max(2);
            prop_assert_eq!(
                round_limit(from_round_two(classical(t, k)).max(from_round_two(in_condition(d, ell, k)))),
                final_round.max(condition_round) + 2
            );
            for in_c in [false, true] {
                let old = if in_c {
                    if crashes <= t - d { 2 } else { condition_round }
                } else if initial > t - d {
                    condition_round
                } else {
                    final_round
                };
                prop_assert_eq!(figure_2(in_c, crashes, initial, t, d, ell, k), old);
            }
        }
    }
}
