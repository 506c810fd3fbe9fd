//! Circuit clustering by stochastic flow injection, and the multilevel
//! V-cycle built on it.
//!
//! The paper's Algorithm 2 descends from the clustering method of Yeh,
//! Cheng & Lin (its reference \[17\]): inject flow on shortest paths between
//! randomly chosen node pairs, re-price nets exponentially in their
//! congestion, and read the cluster structure off the resulting
//! congestion profile — lightly-used nets are intra-cluster, saturated
//! nets separate clusters. This crate implements that ancestor technique
//! and puts it to work as a *coarsening stage* in front of the flow-based
//! partitioner (the multilevel pattern that later dominated the field):
//!
//! * [`congestion`] — pairwise stochastic flow injection; per-net flows.
//! * [`clusters`] — size-capped agglomeration along low-congestion nets.
//! * [`vcycle`] — the full multilevel V-cycle: recursive coarsening, FLOW
//!   at the coarsest level, flow-based boundary refinement per level.
//! * [`refine`] — the Heuer–Sanders–Schlag-style flow refinement pass.

// Library code must surface failures as typed errors, not panics.
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]
pub mod clusters;
pub mod congestion;
pub mod refine;
pub mod vcycle;
