//! Value, process and input-vector algebra for condition-based set agreement.
//!
//! This crate is the foundational substrate of the `setagree` workspace. It
//! implements the combinatorial objects of Section 2.1 of Bonnet & Raynal,
//! *Conditions for Set Agreement with an Application to Synchronous Systems*
//! (ICDCS 2008):
//!
//! * [`ProcessId`] — the identity of one of the `n` processes `p_1 … p_n`.
//! * [`InputVector`] — a vector with one *proposed value* per process.
//! * [`View`] — an input vector in which some entries may be the default
//!   value `⊥` (a process whose proposal was not observed); views are
//!   ordered by *containment* (`J ≤ J'`).
//! * [`distance`] — the Hamming distance `d_H`, the *generalized distance*
//!   `d_G` over arbitrary sets of vectors, and the *intersecting vector*.
//!
//! # Example
//!
//! ```
//! use setagree_types::{InputVector, View, distance};
//!
//! let i1 = InputVector::new(vec![1, 1, 3, 4]);
//! let i2 = InputVector::new(vec![2, 2, 3, 4]);
//!
//! // The two vectors differ in their first two entries.
//! assert_eq!(distance::hamming(&i1, &i2), 2);
//! assert_eq!(distance::generalized(&[&i1, &i2]), 2);
//!
//! // A view observed by a process that missed p1 and p2's proposals:
//! let j = View::from_options(vec![None, None, Some(3), Some(4)]);
//! assert!(j.is_contained_in_vector(&i1));
//! assert!(j.is_contained_in_vector(&i2));
//! assert_eq!(j.count_bottom(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod dense;
pub mod distance;
pub mod process;
mod top;
pub mod value;
pub mod vector;
pub mod view;

pub use dense::{DenseVector, DenseView, IdSet, ValueId, ValueTable};
pub use distance::{generalized, hamming, intersecting_vector};
pub use process::{ProcessId, ProcessSet};
pub use value::{ProposalValue, Value};
pub use vector::InputVector;
pub use view::View;
