//! The inclusion structure of the sets of (x, ℓ)-legal conditions
//! (Section 3, Figure 1).
//!
//! Write `F(x, ℓ)` for the *family* of all (x, ℓ)-legal conditions. The
//! paper establishes:
//!
//! * **Theorem 4** — `F(x+1, ℓ) ⊆ F(x, ℓ)` (tolerating more crashes is
//!   harder);
//! * **Theorem 5** — the inclusion is strict;
//! * **Theorem 6** — `F(x, ℓ) ⊆ F(x, ℓ+1)` (allowing more decided values
//!   is easier);
//! * **Theorem 7** — strict as well;
//! * **Theorems 14, 15** — no diagonal implications: `F(x, ℓ)` and
//!   `F(x+1, ℓ+1)` are incomparable;
//! * **Theorems 8, 9** — `F(x, ℓ)` contains the all-vectors condition iff
//!   `ℓ > x`.
//!
//! Consequently family inclusion is exactly the product order
//! `F(a) ⊆ F(b) ⟺ a.x ≥ b.x ∧ a.ℓ ≤ b.ℓ`, and the parameter pairs form a
//! lattice under it — this module exposes that order and its meet/join.

use crate::legality::LegalityParams;

/// How two families of legal conditions relate by inclusion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FamilyRelation {
    /// The families are the same (`a = b`).
    Equal,
    /// `F(a) ⊊ F(b)`: every a-legal condition is b-legal, not conversely.
    StrictlyIncluded,
    /// `F(b) ⊊ F(a)`.
    StrictlyIncludes,
    /// Neither family includes the other (Theorems 14/15 territory).
    Incomparable,
}

/// Returns `true` iff every (a.x, a.ℓ)-legal condition is also
/// (b.x, b.ℓ)-legal — the transitive closure of Theorems 4 and 6.
///
/// # Example
///
/// ```
/// use setagree_conditions::{lattice, LegalityParams};
///
/// let strong = LegalityParams::new(3, 1)?; // consensus-grade, 3 crashes
/// let weak = LegalityParams::new(1, 2)?;   // 2-set grade, 1 crash
/// assert!(lattice::implies(strong, weak));
/// assert!(!lattice::implies(weak, strong));
/// # Ok::<(), setagree_conditions::ParamsError>(())
/// ```
pub fn implies(a: LegalityParams, b: LegalityParams) -> bool {
    a.x() >= b.x() && a.ell() <= b.ell()
}

/// Classifies the inclusion relation between the families `F(a)` and
/// `F(b)`.
pub fn relation(a: LegalityParams, b: LegalityParams) -> FamilyRelation {
    match (implies(a, b), implies(b, a)) {
        (true, true) => FamilyRelation::Equal,
        (true, false) => FamilyRelation::StrictlyIncluded,
        (false, true) => FamilyRelation::StrictlyIncludes,
        (false, false) => FamilyRelation::Incomparable,
    }
}

/// The meet (greatest lower bound) of two parameter pairs in the family
/// order: the weakest parameters whose family is included in both.
pub fn meet(a: LegalityParams, b: LegalityParams) -> LegalityParams {
    LegalityParams::new(a.x().max(b.x()), a.ell().min(b.ell()))
        .expect("meet of valid params is valid")
}

/// The join (least upper bound): the strongest parameters whose family
/// includes both.
pub fn join(a: LegalityParams, b: LegalityParams) -> LegalityParams {
    LegalityParams::new(a.x().min(b.x()), a.ell().max(b.ell()))
        .expect("join of valid params is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: usize, ell: usize) -> LegalityParams {
        LegalityParams::new(x, ell).unwrap()
    }

    #[test]
    fn theorem_4_direction_more_crashes_implies_fewer() {
        assert!(implies(p(3, 2), p(2, 2)));
        assert!(implies(p(3, 2), p(0, 2)));
        assert!(!implies(p(2, 2), p(3, 2)));
    }

    #[test]
    fn theorem_6_direction_fewer_values_implies_more() {
        assert!(implies(p(2, 1), p(2, 2)));
        assert!(implies(p(2, 1), p(2, 5)));
        assert!(!implies(p(2, 2), p(2, 1)));
    }

    #[test]
    fn diagonals_are_incomparable() {
        // Theorems 14 and 15.
        assert_eq!(relation(p(1, 1), p(2, 2)), FamilyRelation::Incomparable);
        assert_eq!(relation(p(2, 2), p(1, 1)), FamilyRelation::Incomparable);
        assert_eq!(relation(p(3, 1), p(4, 2)), FamilyRelation::Incomparable);
    }

    #[test]
    fn relation_is_consistent_with_implies() {
        let pairs = [p(0, 1), p(1, 1), p(2, 1), p(0, 2), p(1, 2), p(2, 2)];
        for &a in &pairs {
            for &b in &pairs {
                let r = relation(a, b);
                match r {
                    FamilyRelation::Equal => assert_eq!(a, b),
                    FamilyRelation::StrictlyIncluded => {
                        assert!(implies(a, b) && !implies(b, a))
                    }
                    FamilyRelation::StrictlyIncludes => {
                        assert!(implies(b, a) && !implies(a, b))
                    }
                    FamilyRelation::Incomparable => {
                        assert!(!implies(a, b) && !implies(b, a))
                    }
                }
            }
        }
    }

    #[test]
    fn meet_and_join_are_lattice_operations() {
        let a = p(3, 1);
        let b = p(1, 2);
        let m = meet(a, b);
        let j = join(a, b);
        assert_eq!(m, p(3, 1));
        assert_eq!(j, p(1, 2));
        // meet implies both; both imply join.
        assert!(implies(m, a) && implies(m, b));
        assert!(implies(a, j) && implies(b, j));
        // Commutativity and idempotence.
        assert_eq!(meet(a, b), meet(b, a));
        assert_eq!(join(a, b), join(b, a));
        assert_eq!(meet(a, a), a);
        assert_eq!(join(a, a), a);
    }

    #[test]
    fn meet_join_absorption() {
        let a = p(2, 2);
        let b = p(4, 1);
        assert_eq!(join(a, meet(a, b)), a);
        assert_eq!(meet(a, join(a, b)), a);
    }

    #[test]
    fn wait_free_line_starts_at_consensus() {
        // Figure 1's wait-free line for n = 4: (x = n − 1, ℓ) for
        // 1 ≤ ℓ ≤ n, from wait-free consensus at (3, 1).
        let line = [p(3, 1), p(3, 2), p(3, 3), p(3, 4)];
        // Along the line, families grow with ℓ.
        assert!(line.windows(2).all(|w| implies(w[0], w[1])));
        assert!(!implies(p(3, 2), p(3, 1)));
    }

    #[test]
    fn trivial_condition_frontier_on_lines() {
        // On the wait-free line for n = 3 processes, C_all becomes legal
        // exactly when ℓ > n − 1, i.e. only at ℓ = n.
        assert!(!p(2, 1).admits_all_vectors());
        assert!(!p(2, 2).admits_all_vectors());
        assert!(p(2, 3).admits_all_vectors());
        // On the reliable line (x = 0) every ℓ admits it.
        assert!((1..=3).all(|ell| p(0, ell).admits_all_vectors()));
    }

    #[test]
    fn resilience_line_is_monotone() {
        // The x-resilience line for x = 2, n = 5: (2, ℓ) for 1 ≤ ℓ ≤ 5.
        let line: Vec<_> = (1..=5).map(|ell| p(2, ell)).collect();
        assert!(line.windows(2).all(|w| implies(w[0], w[1])));
    }
}
