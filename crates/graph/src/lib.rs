//! Graph-algorithm substrate for hierarchical tree partitioning.
//!
//! The paper's kernels run on `htp-core`'s CSR hypergraph; this crate
//! holds the pieces they share, plus the max-flow that the V-cycle's
//! flow refinement solves and the plain-graph Dijkstra that tests use as
//! a reference:
//!
//! * [`Graph`] — undirected weighted graph with stable edge ids and mutable
//!   edge weights; [`dijkstra`] computes shortest paths on it.
//! * [`maxflow`] (Dinic) — the min-cut behind the flow/cut duality.
//! * [`frontier`] — the dial queue and the per-round dial/heap choice
//!   the shortest-path kernels use.
//! * [`UnionFind`], [`IndexedMinHeap`] — supporting data structures.
//!
//! # Examples
//!
//! ```
//! use htp_graph::{Graph, dijkstra::shortest_paths};
//!
//! let g = Graph::from_edges(3, &[(0, 1, 1.0), (1, 2, 2.0), (0, 2, 5.0)]);
//! let sp = shortest_paths(&g, 0);
//! assert_eq!(sp.dist[2], 3.0); // via node 1, not the direct 5.0 edge
//! ```

// Library code must surface failures as typed errors, not panics.
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]
pub mod dijkstra;
pub mod frontier;
pub mod graph;
pub mod heap;
pub mod maxflow;
pub mod random;
pub mod unionfind;

pub use frontier::{dial_plan, dial_plan_forced, DialQueue, Frontier};
pub use graph::{EdgeId, Graph};
pub use heap::IndexedMinHeap;
pub use unionfind::UnionFind;
