//! The network-flow approach to hierarchical tree partitioning
//! (Kuo & Cheng, DAC 1997).
//!
//! This crate implements the paper's contribution on top of the
//! [`htp_netlist`]/[`htp_model`] substrates:
//!
//! * [`metric::SpreadingMetric`] — fractional net lengths `d(e)`, the
//!   decision variables of linear program (P1).
//! * [`injector`] — **Algorithm 2**: computes a spreading metric by
//!   stochastic flow injection. Shortest-path trees `S(v, k)` are grown with
//!   a hypergraph Dijkstra ([`sptree`]); whenever a tree violates its
//!   spreading constraint ([`constraint`]), flow is injected on its nets and
//!   lengths are re-priced with the exponential function
//!   `d(e) = exp(α·f(e)/c(e)) − 1`. The probe phase of each round runs on a
//!   speculative worker pool ([`injector::FlowParams::threads`]) with
//!   sequential, re-validated commits — bit-identical results at any
//!   thread count.
//! * [`construct`] — **Algorithm 3**: recursive top-down construction of a
//!   hierarchical tree partition, with the Prim-style [`findcut`] procedure
//!   growing blocks along small `d(e)` and recording the cheapest cut in the
//!   prescribed size window.
//! * [`partitioner`] — **Algorithm 1**: the outer loop iterating metric
//!   computation and construction, keeping the best partition (plus the
//!   conclusions' extension: several constructions per metric).
//! * [`lower_bound`] — Lemma 1 (every partition induces a feasible metric)
//!   and the machinery for cost lower bounds.
//!
//! # Examples
//!
//! ```
//! use htp_core::partitioner::{FlowPartitioner, PartitionerParams};
//! use htp_model::TreeSpec;
//! use htp_netlist::gen::clustered::{clustered_hypergraph, ClusteredParams};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = StdRng::seed_from_u64(1);
//! let inst = clustered_hypergraph(ClusteredParams::default(), &mut rng);
//! let spec = TreeSpec::full_tree(inst.hypergraph.total_size(), 2, 2, 1.15, 1.0)?;
//! let result = FlowPartitioner::try_new(PartitionerParams::default())?
//!     .run(&inst.hypergraph, &spec, &mut rng)?;
//! assert!(result.cost >= 0.0);
//! # Ok(())
//! # }
//! ```

// Library code must surface failures as typed errors, not panics.
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]
pub mod constraint;
pub mod construct;
pub mod error;
pub mod findcut;
pub mod injector;
pub mod lower_bound;
pub mod metric;
pub mod partitioner;
pub mod pool;
pub mod runtime;
pub mod sptree;

pub use error::CoreError;
pub use metric::SpreadingMetric;
pub use pool::{parallel_fill, parallel_fill_with, resolve_threads};
#[cfg(feature = "fault-injection")]
pub use runtime::FaultPlan;
pub use runtime::{Budget, CancelToken, Interrupt, RunOutcome};
