//! A guided tour: the paper's definitions, mapped to this crate's API.
//!
//! This module contains no code — it is the cross-reference between
//! Bonnet & Raynal's notation and the types that implement it, with
//! runnable doctests as executable definitions.
//!
//! # Section 2.1 — vectors, views, distances
//!
//! | paper | API |
//! |---|---|
//! | input vector `I` | [`InputVector`](setagree_types::InputVector) |
//! | view `J` with `⊥` entries | [`View`](setagree_types::View) |
//! | `J1 ≤ J2` (containment) | [`View::is_contained_in`](setagree_types::View::is_contained_in) |
//! | `val(I)`, `#_a(I)` | [`InputVector::distinct_values`](setagree_types::InputVector::distinct_values), [`InputVector::count_of`](setagree_types::InputVector::count_of) |
//! | `d_H`, `d_G`, `⋂_{1..z} I_j` | [`distance::hamming`](setagree_types::distance::hamming), [`distance::generalized`](setagree_types::distance::generalized), [`distance::intersecting_vector`](setagree_types::distance::intersecting_vector) |
//!
//! ```
//! use setagree_types::{distance, InputVector};
//! // The paper's running example: d_G of three vectors is 3.
//! let i1 = InputVector::new(vec!['a', 'a', 'e', 'b', 'b']);
//! let i2 = InputVector::new(vec!['a', 'a', 'e', 'c', 'c']);
//! let i3 = InputVector::new(vec!['a', 'f', 'e', 'b', 'c']);
//! assert_eq!(distance::generalized(&[&i1, &i2, &i3]), 3);
//! ```
//!
//! # Section 2.2 — (x, ℓ)-legality (Definition 2)
//!
//! A condition [`Condition`](crate::Condition) is (x, ℓ)-legal w.r.t. a
//! recognizing function [`RecognizingFn`](crate::RecognizingFn) when
//! validity, density and distance hold — [`legality::check`](crate::legality::check)
//! verifies all three exhaustively and reports the violated clause:
//!
//! ```
//! use setagree_conditions::{legality, Condition, LegalityParams, MaxEll};
//! use setagree_types::InputVector;
//!
//! let c = Condition::from_vectors(vec![
//!     InputVector::new(vec![5, 5, 5, 1]),
//!     InputVector::new(vec![9, 9, 9, 2]),
//! ]).unwrap();
//! // Both maxima appear 3 > x = 2 times and the vectors are far apart.
//! assert!(legality::check(&c, &MaxEll::new(1), LegalityParams::new(2, 1).unwrap()).is_ok());
//! ```
//!
//! The ℓ = 1 case *is* the x-legality of Mostefaoui–Rajsbaum–Raynal:
//! conditions that solve asynchronous consensus despite x crashes.
//!
//! # Theorem 1 and Definition 4 — decoding views
//!
//! [`legality::decode_view`](crate::legality::decode_view) computes
//! `h_ℓ(J) = ⋂_{I ∈ C, J ≤ I} h_ℓ(I) ∩ val(J)`; for views with at most x
//! missing entries of a member vector it is non-empty with at most ℓ
//! values (Theorem 1), and it is **monotone** under containment — the
//! property both the synchronous and asynchronous agreement arguments use.
//!
//! # Section 2.3 — the maximal condition and its size
//!
//! [`MaxCondition`](crate::MaxCondition) is `C_max(x, ℓ)`, the largest
//! condition recognized by `max_ℓ` (Theorem 2), implemented *analytically*
//! (membership, predicate `P(J)` and decoding in one `O(n log ℓ)`
//! top-ℓ selection pass each).
//! [`counting::nb`](crate::counting::nb) evaluates its exact size
//! `NB(x, ℓ)` (Theorems 3/13):
//!
//! ```
//! use setagree_conditions::{counting, LegalityParams};
//! let p = LegalityParams::new(2, 1).unwrap();
//! assert_eq!(counting::nb(4, 3, p), 15); // over n = 4 processes, values {1,2,3}
//! ```
//!
//! # Section 3 — the lattice (Figure 1)
//!
//! [`lattice`](crate::lattice) orders the families: `F(x+1, ℓ) ⊊ F(x, ℓ)`
//! (Theorems 4/5), `F(x, ℓ) ⊊ F(x, ℓ+1)` (Theorems 6/7), diagonals
//! incomparable (Theorems 14/15 — witnesses in [`witness`](crate::witness),
//! including the paper's Table 1 via [`witness::table_1`](crate::witness::table_1)).
//! The all-vectors condition sits at the `ℓ > x` frontier
//! ([`LegalityParams::admits_all_vectors`](crate::LegalityParams::admits_all_vectors),
//! Theorems 8/9).
//!
//! # Section 5 — hierarchies for synchronous systems
//!
//! [`SdtParams`](crate::SdtParams) is `S^d_t[ℓ]`, the set of
//! `(t−d, ℓ)`-legal conditions; larger degree d means more conditions but
//! slower decisions — the trade-off quantified by
//! `⌊(d+ℓ−1)/k⌋ + 1`, defined once as `setagree-sync`'s
//! `bounds::in_condition`.
//!
//! # Sections 6–8 — the algorithms
//!
//! Implemented in `setagree-core` (the Figure 2 protocol, baselines and
//! the early-deciding extension) over the `setagree-sync` simulator; the
//! asynchronous Section 4 algorithm lives in `setagree-async`. Conditions
//! reach the protocols through the [`ConditionOracle`](crate::ConditionOracle)
//! interface.

// Documentation-only module.
