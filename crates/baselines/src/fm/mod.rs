//! Fiduccia–Mattheyses partitioning.
//!
//! * [`bipartition`] — the two-way pass with gain updates, balance bounds,
//!   and best-prefix rollback, on a lazy max-heap (handles fractional
//!   capacities).
//! * [`kway`] — recursive bisection into `k` capacity-bounded blocks.

pub mod bipartition;
pub mod kway;

pub use bipartition::{fm_bipartition, BisectionBounds, FmResult};
pub use kway::{direct_kway, recursive_bisection};
