//! # htp-eco — incremental repartitioning (ECO mode)
//!
//! Real placement flows re-run partitioning after *small* netlist edits
//! ("engineering change orders"). The DAC'97 spreading-metric
//! formulation is naturally warm-startable: converged net lengths remain
//! a feasible starting point after a local edit, because injection only
//! ever *grows* lengths — so exponential re-pricing needs to touch only
//! the perturbed neighbourhood, and untouched subtrees of the prior
//! partition can be replayed verbatim when their capacity/fanout
//! certificates still hold.
//!
//! The crate has three layers:
//!
//! * [`delta`] — the typed edit API: record a [`NetlistDelta`]
//!   (`add_node` / `remove_node` / `resize_node` / `add_net` /
//!   `remove_net` / `reweight_net`) against a base netlist and
//!   [`apply`](NetlistDelta::apply) it, getting the edited
//!   [`Hypergraph`](htp_netlist::Hypergraph) plus a [`TouchedReport`]:
//!   old→new id maps and the one-hop-expanded perturbation frontier.
//!   [`diff`] recovers the same report from two already-built netlists
//!   (the job-server resubmission path).
//! * [`session`] — [`warm_partition`] puts a [`WarmPolicy`] locality gate
//!   in front of the partitioner: non-local or tiny edits go back to cold
//!   metrics, and local ones run Algorithm 1 itself
//!   (`FlowPartitioner::run_seeded` in `htp-core`) seeded with the prior
//!   state — warm metric restarts on the touched frontier, then
//!   construction with subtree salvage. The crate keeps no solver loop of
//!   its own, so budgets, outcomes and errors follow the cold
//!   partitioner's rules. [`EcoSession`] chains edits, feeding each
//!   solve's converged lengths and partition into the next edit.
//! * [`script`] — seeded random edit scripts, scattered
//!   ([`random_delta`]) or neighborhood-clustered like a real ECO
//!   ([`random_delta_clustered`]), shared by the differential tests and
//!   the `eco` bench.
//!
//! Every incremental result is an ordinary partition: it passes
//! `htp_verify::certify` like a cold run's, and the differential tests
//! bound its cost against a from-scratch solve. Warm-starting is a
//! *quality-preserving accelerator*, not a different algorithm.

// Library code must surface failures as typed errors, not panics.
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod delta;
pub mod error;
pub mod script;
pub mod session;

pub use delta::{diff, AppliedDelta, EditOp, NetlistDelta, TouchedReport};
pub use error::EcoError;
pub use script::{random_delta, random_delta_clustered};
pub use session::{warm_partition, EcoReport, EcoSession, WarmPolicy, WarmRun};
