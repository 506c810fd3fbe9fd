//! Problem model for hierarchical tree partitioning (HTP).
//!
//! This crate defines the *language* of the paper's problem, shared by the
//! flow-based partitioner and all baselines:
//!
//! * [`TreeSpec`] — the hierarchy parameters: per-level size bound `C_l`,
//!   branching bound `K_l`, and cost weight `w_l`.
//! * [`HierarchicalPartition`] — a rooted tree of blocks with all leaves at
//!   level 0 and every netlist node assigned to a leaf.
//! * [`cost`] — the objective `cost(e) = Σ_l w_l · span(e, l) · c(e)` and
//!   its per-level breakdown.
//! * [`gfn`] — the spreading bound `g(x)` from the linear program (P1).
//! * [`validate`] — checks a partition against a spec (`C_l`, `K_l`).
//! * [`io`] — saves/loads partitions in a small text format.
//!
//! # Examples
//!
//! ```
//! use htp_model::{TreeSpec, HierarchicalPartition, cost};
//! use htp_netlist::{HypergraphBuilder, NodeId};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Two 2-node leaves under one root; a single net crossing them.
//! let mut b = HypergraphBuilder::with_unit_nodes(4);
//! b.add_net(1.0, [NodeId(1), NodeId(2)])?;
//! let h = b.build()?;
//!
//! let spec = TreeSpec::new(vec![(2, 1, 1.0), (4, 2, 1.0)])?;
//! let p = HierarchicalPartition::from_leaf_assignment(1, &[0, 0, 1, 1])?;
//! assert_eq!(cost::partition_cost(&h, &spec, &p), 2.0); // span 2 at level 0
//! # Ok(())
//! # }
//! ```

// Library code must surface failures as typed errors, not panics.
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]
pub mod cost;
pub mod error;
pub mod gfn;
pub mod io;
pub mod partition;
pub mod spec;
pub mod validate;

pub use error::ModelError;
pub use partition::{HierarchicalPartition, PartitionBuilder, VertexId};
pub use spec::TreeSpec;
