//! # htp — hierarchical tree partitioning via network flows
//!
//! A reproduction of Kuo & Cheng, *A Network Flow Approach for Hierarchical
//! Tree Partitioning* (DAC 1997), as a Rust workspace. This facade crate
//! re-exports the whole stack so applications can depend on one crate:
//!
//! * [`netlist`] — hypergraph netlists, I/O, synthetic circuit generators.
//! * [`graph`] — shared kernel pieces (frontiers, indexed heap, union–find),
//!   Dinic max-flow, and a reference graph Dijkstra.
//! * [`model`] — the HTP problem: tree specs, partitions, the cost
//!   objective.
//! * [`core`] — the paper's contribution: spreading metrics by stochastic
//!   flow injection and the FLOW constructive partitioner.
//! * [`baselines`] — GFM, RFM, FM bipartitioning, and hierarchical FM
//!   improvement from the companion DAC '96 paper.
//! * [`lp`] — exact (P1) lower bounds by cutting-plane linear programming.
//! * [`cluster`] — stochastic flow-injection clustering (reference \[17\])
//!   and the multilevel V-cycle built on it.
//! * [`verify`] — clean-room verification oracles: partition
//!   certificates, spreading-metric audits, and adversarial instance
//!   generators (shares no computation code with [`core`]).
//! * [`server`] — a fault-tolerant partitioning job server: framed JSON
//!   socket protocol, budget-scheduled worker pool with per-job panic
//!   isolation and retry, certified result cache, load shedding, and
//!   graceful drain.
//!
//! # Quickstart
//!
//! ```
//! use htp::core::partitioner::{FlowPartitioner, PartitionerParams};
//! use htp::model::TreeSpec;
//! use htp::netlist::{HypergraphBuilder, NodeId};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // An 8-node chain, partitioned onto a height-2 binary hierarchy.
//! let mut b = HypergraphBuilder::with_unit_nodes(8);
//! for i in 0..7u32 {
//!     b.add_net(1.0, [NodeId(i), NodeId(i + 1)])?;
//! }
//! let h = b.build()?;
//! let spec = TreeSpec::full_tree(h.total_size(), 2, 2, 1.2, 1.0)?;
//! let result = FlowPartitioner::try_new(PartitionerParams::default())?
//!     .run(&h, &spec, &mut StdRng::seed_from_u64(7))?;
//! println!("cost {}", result.cost);
//! # Ok(())
//! # }
//! ```

// Library code must surface failures as typed errors, not panics.
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]
pub use htp_baselines as baselines;
pub use htp_cluster as cluster;
pub use htp_core as core;
pub use htp_eco as eco;
pub use htp_graph as graph;
pub use htp_lp as lp;
pub use htp_model as model;
pub use htp_netlist as netlist;
pub use htp_server as server;
pub use htp_verify as verify;

/// The crate version, for tooling.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn version_is_nonempty() {
        assert!(!super::VERSION.is_empty());
    }
}
