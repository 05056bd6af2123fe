//! The *(x, ℓ)-legality* framework of Bonnet & Raynal (ICDCS 2008),
//! Sections 2, 3 and 5.
//!
//! A **condition** is a set of input vectors. An *(x, ℓ)-legal* condition
//! is one whose every vector can be decoded — by a *recognizing function*
//! `h_ℓ` — into at most ℓ values in a way that tolerates up to `x` missing
//! entries (process crashes). This crate provides:
//!
//! * [`LegalityParams`] — the pair `(x, ℓ)`;
//! * [`RecognizingFn`] and the canonical [`MaxEll`]/[`MinEll`] decoders
//!   (Section 2.3) plus explicit [`TableFn`] decoders;
//! * [`Condition`] — explicit, enumerated conditions;
//! * [`legality`] — the validity / density / distance checker
//!   (Definition 2) with violation reporting, and the Definition-4
//!   extension of `h_ℓ` to views;
//! * [`MaxCondition`] — the *maximal* condition generated by `max_ℓ`
//!   (Theorem 2), with analytic membership, predicate and view decoding
//!   in one `O(n log ℓ)` selection pass each (no enumeration, no sort);
//! * [`counting`] — the exact size `NB(x, ℓ)` of the maximal condition
//!   (Theorems 3 and 13) as closed forms, with a brute-force cross-check;
//! * [`lattice`] — the inclusion structure of Figure 1 (Theorems 4–9);
//! * [`witness`] — the strictness witnesses of Theorems 5, 7, 14 and 15,
//!   including the paper's Table 1;
//! * [`hierarchy`] — the synchronous hierarchies `S^d_t[ℓ]` of Section 5;
//! * [`ConditionOracle`] — the interface through which agreement protocols
//!   consult a condition.
//!
//! # Example
//!
//! ```
//! use setagree_conditions::{legality, LegalityParams, MaxCondition, MaxEll};
//!
//! let params = LegalityParams::new(2, 1).unwrap(); // x = 2 crashes, ℓ = 1 value
//! let cond = MaxCondition::new(params).enumerate(4, 3); // n = 4 processes, values {1,2,3}
//! // Theorem 2: the max_ℓ condition is (x, ℓ)-legal.
//! assert!(legality::check(&cond, &MaxEll::new(1), params).is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod condition;
pub mod counting;
pub mod error;
pub mod hierarchy;
pub mod lattice;
pub mod legality;
pub mod max_condition;
pub mod oracle;
pub mod recognizing;
pub mod theory;
pub mod witness;

pub use condition::Condition;
pub use error::{ConditionError, ParamsError};
pub use hierarchy::SdtParams;
pub use legality::{LegalityParams, LegalityViolation};
pub use max_condition::MaxCondition;
pub use oracle::{ConditionOracle, ExplicitOracle, TrivialOracle};
pub use recognizing::{MaxEll, MinEll, RecognizingFn, TableFn};
