//! Incremental shortest-path trees on hypergraphs.
//!
//! Algorithm 2 grows, for a source `v`, the shortest-path trees `S(v, k)`
//! for `k = 1, 2, …` under the current spreading metric, stopping as soon as
//! a spreading constraint is violated. [`CsrGrowerScratch`] supports exactly
//! that access pattern over a flat [`CsrHypergraph`]:
//! [`start`](CsrGrowerScratch::start) seeds a tree and each
//! [`step`](CsrGrowerScratch::step) settles one node, in non-decreasing
//! distance order, so the caller can stop paying as soon as it has seen
//! enough. The priority queue is passed in as any [`Frontier`], so one
//! scratch serves both the heap and the dial kernel.
//!
//! Distances traverse nets: stepping from any pin of net `e` to any other
//! pin costs `d(e)` (the hypergraph generalization the paper sketches in
//! Section 3.1). Since `d(e)` is the same from every pin, each net needs to
//! be relaxed only once — from its first settled pin — giving the
//! `O((n + p) log n)` bound the paper quotes.
//!
//! # Examples
//!
//! ```
//! use htp_core::sptree::CsrGrowerScratch;
//! use htp_graph::IndexedMinHeap;
//! use htp_netlist::{CsrHypergraph, HypergraphBuilder, NodeId};
//!
//! # fn main() -> Result<(), htp_netlist::NetlistError> {
//! let mut b = HypergraphBuilder::with_unit_nodes(3);
//! b.add_net(1.0, [NodeId(0), NodeId(1)])?;
//! b.add_net(1.0, [NodeId(1), NodeId(2)])?;
//! let csr = CsrHypergraph::with_lengths(&b.build()?, &[1.0, 2.0]);
//! let mut grower = CsrGrowerScratch::new(&csr);
//! let mut heap = IndexedMinHeap::new(csr.num_nodes());
//! grower.start(&csr, &mut heap, 0);
//! let dists: Vec<f64> = std::iter::from_fn(|| grower.step(&csr, &mut heap))
//!     .map(|s| s.dist)
//!     .collect();
//! assert_eq!(dists, vec![0.0, 1.0, 3.0]);
//! # Ok(())
//! # }
//! ```

use htp_graph::Frontier;
use htp_netlist::{CsrHypergraph, NetId, NodeId};

/// One settled node of a growing shortest-path tree.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TreeStep {
    /// The settled node.
    pub node: NodeId,
    /// Its distance from the source under the spreading metric.
    pub dist: f64,
    /// The net through which it was first reached (`None` for the source).
    pub via_net: Option<NetId>,
    /// The already-settled node from which that net was relaxed (`None`
    /// for the source). Together with [`via_net`](TreeStep::via_net) this
    /// gives the full tree structure, which the LP machinery needs to
    /// compute the subtree weights `δ(S(v,k), e)`.
    pub parent: Option<NodeId>,
}

/// Sentinel for "no via-net / no parent" in the CSR scratch's raw arrays.
const NONE32: u32 = u32::MAX;

/// Reusable buffers for growing shortest-path trees.
///
/// Every tree grow needs distance/parent/visited arrays sized by the
/// hypergraph. Allocating (and zeroing) them per probe would dominate the
/// cost of small trees, which is exactly what Algorithm 2 grows most of
/// the time — the constraint oracle stops at the first violated prefix.
/// One scratch is allocated per worker and reset in time proportional to
/// the *touched* region only. The `via`/`parent` arrays store raw `u32`
/// ids with a [`u32::MAX`] sentinel, and the frontier is *external* —
/// passed into [`start`](CsrGrowerScratch::start) and
/// [`step`](CsrGrowerScratch::step) as any [`Frontier`] — so the same
/// scratch serves both the heap and the dial kernel.
#[derive(Debug)]
pub struct CsrGrowerScratch {
    dist: Vec<f64>,
    via: Vec<u32>,
    parent: Vec<u32>,
    net_used: Vec<bool>,
    touched_nodes: Vec<u32>,
    touched_nets: Vec<u32>,
}

impl CsrGrowerScratch {
    /// Buffers sized for `csr`.
    pub fn new(csr: &CsrHypergraph) -> Self {
        let n = csr.num_nodes();
        CsrGrowerScratch {
            dist: vec![f64::INFINITY; n],
            via: vec![NONE32; n],
            parent: vec![NONE32; n],
            net_used: vec![false; csr.num_nets()],
            touched_nodes: Vec::new(),
            touched_nets: Vec::new(),
        }
    }

    /// Restores the pristine state, in `O(touched)`.
    fn reset(&mut self) {
        for &i in &self.touched_nodes {
            self.dist[i as usize] = f64::INFINITY;
            self.via[i as usize] = NONE32;
            self.parent[i as usize] = NONE32;
        }
        self.touched_nodes.clear();
        for &e in &self.touched_nets {
            self.net_used[e as usize] = false;
        }
        self.touched_nets.clear();
    }

    /// Resets the scratch and `frontier` and seeds a tree at `source` in
    /// `csr`. The shape checks run here, once per grow, so
    /// [`step`](CsrGrowerScratch::step) stays check-free.
    ///
    /// # Panics
    ///
    /// Panics if the scratch was built for a hypergraph with a different
    /// node or net count than `csr`, or if `source` is out of range.
    pub fn start<F: Frontier>(&mut self, csr: &CsrHypergraph, frontier: &mut F, source: u32) {
        assert_eq!(
            self.dist.len(),
            csr.num_nodes(),
            "scratch sized for a different node count"
        );
        assert_eq!(
            self.net_used.len(),
            csr.num_nets(),
            "scratch sized for a different net count"
        );
        assert!(
            (source as usize) < self.dist.len(),
            "source {source} out of range"
        );
        self.reset();
        frontier.clear();
        self.dist[source as usize] = 0.0;
        self.touched_nodes.push(source);
        frontier.push_or_decrease(source as usize, 0.0);
    }

    /// Settles the closest unsettled node, relaxing its fresh nets, and
    /// reports how it was reached; `None` once every reachable node is
    /// settled. `csr` must be the hypergraph passed to
    /// [`start`](CsrGrowerScratch::start).
    pub fn step<F: Frontier>(&mut self, csr: &CsrHypergraph, frontier: &mut F) -> Option<TreeStep> {
        let (v, dv) = frontier.pop()?;
        for &e in csr.node_nets(v as u32) {
            if self.net_used[e as usize] {
                continue;
            }
            self.net_used[e as usize] = true;
            self.touched_nets.push(e);
            let cand = dv + csr.net_len(e);
            for &w in csr.net_pins(e) {
                if cand < self.dist[w as usize] {
                    if self.dist[w as usize].is_infinite() {
                        self.touched_nodes.push(w);
                    }
                    self.dist[w as usize] = cand;
                    self.via[w as usize] = e;
                    self.parent[w as usize] = v as u32;
                    frontier.push_or_decrease(w as usize, cand);
                }
            }
        }
        Some(TreeStep {
            node: NodeId::new(v),
            dist: dv,
            via_net: (self.via[v] != NONE32).then(|| NetId(self.via[v])),
            parent: (self.parent[v] != NONE32).then(|| NodeId(self.parent[v])),
        })
    }

    /// Distance of a node settled so far (`INFINITY` otherwise).
    #[inline]
    pub fn distance(&self, v: u32) -> f64 {
        self.dist[v as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htp_graph::{dial_plan_forced, DialQueue, IndexedMinHeap};
    use htp_netlist::{Hypergraph, HypergraphBuilder};
    use proptest::prelude::*;

    fn chain(lengths: &[f64]) -> CsrHypergraph {
        let n = lengths.len() + 1;
        let mut b = HypergraphBuilder::with_unit_nodes(n);
        for i in 0..lengths.len() {
            b.add_net(1.0, [NodeId::new(i), NodeId::new(i + 1)])
                .unwrap();
        }
        CsrHypergraph::with_lengths(&b.build().unwrap(), lengths)
    }

    /// Grows the full tree with the CSR kernel over `frontier`.
    fn csr_steps<F: Frontier>(
        csr: &CsrHypergraph,
        scratch: &mut CsrGrowerScratch,
        frontier: &mut F,
        source: u32,
    ) -> Vec<TreeStep> {
        scratch.start(csr, frontier, source);
        std::iter::from_fn(|| scratch.step(csr, frontier)).collect()
    }

    /// Full single-source distances (`INFINITY` for unreachable nodes).
    fn distances(csr: &CsrHypergraph, source: u32) -> Vec<f64> {
        let mut scratch = CsrGrowerScratch::new(csr);
        let mut heap = IndexedMinHeap::new(csr.num_nodes());
        csr_steps(csr, &mut scratch, &mut heap, source);
        (0..csr.num_nodes() as u32)
            .map(|v| scratch.distance(v))
            .collect()
    }

    #[test]
    fn settles_in_distance_order() {
        let csr = chain(&[3.0, 1.0, 1.0]);
        let mut scratch = CsrGrowerScratch::new(&csr);
        let mut heap = IndexedMinHeap::new(csr.num_nodes());
        let steps = csr_steps(&csr, &mut scratch, &mut heap, 1);
        let order: Vec<u32> = steps.iter().map(|s| s.node.0).collect();
        assert_eq!(order, vec![1, 2, 3, 0]);
        let dists: Vec<f64> = steps.iter().map(|s| s.dist).collect();
        assert_eq!(dists, vec![0.0, 1.0, 2.0, 3.0]);
        assert_eq!(steps[0].via_net, None);
        assert_eq!(steps[0].parent, None);
        assert_eq!(steps[1].via_net, Some(NetId(1)));
        assert_eq!(steps[1].parent, Some(NodeId(1)));
        assert_eq!(steps[3].parent, Some(NodeId(1))); // 0 reached through net 0
    }

    #[test]
    fn multi_pin_net_is_a_single_hop() {
        let mut b = HypergraphBuilder::with_unit_nodes(4);
        b.add_net(1.0, [NodeId(0), NodeId(1), NodeId(2), NodeId(3)])
            .unwrap();
        let csr = CsrHypergraph::with_lengths(&b.build().unwrap(), &[2.5]);
        assert_eq!(distances(&csr, 0), vec![0.0, 2.5, 2.5, 2.5]);
    }

    #[test]
    fn unreachable_nodes_stay_infinite() {
        let mut b = HypergraphBuilder::with_unit_nodes(4);
        b.add_net(1.0, [NodeId(0), NodeId(1)]).unwrap();
        b.add_net(1.0, [NodeId(2), NodeId(3)]).unwrap();
        let csr = CsrHypergraph::with_lengths(&b.build().unwrap(), &[1.0, 1.0]);
        let d = distances(&csr, 0);
        assert!(d[2].is_infinite() && d[3].is_infinite());
        // The grow also terminates without visiting them.
        let mut scratch = CsrGrowerScratch::new(&csr);
        let mut heap = IndexedMinHeap::new(csr.num_nodes());
        assert_eq!(csr_steps(&csr, &mut scratch, &mut heap, 0).len(), 2);
    }

    #[test]
    fn zero_length_metric_collapses_distances() {
        let csr = chain(&[0.0, 0.0, 0.0]);
        assert_eq!(distances(&csr, 3), vec![0.0; 4]);
    }

    #[test]
    fn heap_and_dial_frontiers_settle_identically() {
        let csr = chain(&[3.0, 1.0, 1.0]);
        let mut scratch = CsrGrowerScratch::new(&csr);
        let mut heap = IndexedMinHeap::new(csr.num_nodes());
        let (width, buckets) = dial_plan_forced(csr.lengths(), 4096);
        let mut dial = DialQueue::new(csr.num_nodes(), width, buckets);
        for source in 0..csr.num_nodes() as u32 {
            let by_heap = csr_steps(&csr, &mut scratch, &mut heap, source);
            let by_dial = csr_steps(&csr, &mut scratch, &mut dial, source);
            assert_eq!(by_dial, by_heap, "source {source}");
        }
    }

    #[test]
    fn csr_scratch_reuse_equals_fresh_across_same_shaped_graphs() {
        // A scratch carried from one graph to a *different*
        // same-shaped graph must behave exactly like a fresh allocation.
        let csr1 = chain(&[3.0, 1.0, 1.0]);
        let csr2 = chain(&[0.5, 4.0, 0.25]);

        let mut reused = CsrGrowerScratch::new(&csr1);
        let mut heap = IndexedMinHeap::new(csr1.num_nodes());
        // Dirty the scratch thoroughly on graph 1 (full grow + a partial
        // grow abandoned mid-way, leaving a non-empty frontier).
        csr_steps(&csr1, &mut reused, &mut heap, 0);
        reused.start(&csr1, &mut heap, 1);
        reused.step(&csr1, &mut heap);

        for source in 0..csr2.num_nodes() as u32 {
            let mut fresh = CsrGrowerScratch::new(&csr2);
            let mut fresh_heap = IndexedMinHeap::new(csr2.num_nodes());
            let want = csr_steps(&csr2, &mut fresh, &mut fresh_heap, source);
            let got = csr_steps(&csr2, &mut reused, &mut heap, source);
            assert_eq!(got, want, "reused scratch diverged at source {source}");
        }
    }

    #[test]
    fn csr_scratch_reset_is_o_touched_and_restores_pristine_state() {
        // The touched lists must cover exactly the dirtied
        // slots, and reset must restore every slot without scanning the
        // untouched remainder.
        let mut b = HypergraphBuilder::with_unit_nodes(8);
        b.add_net(1.0, [NodeId(0), NodeId(1)]).unwrap();
        b.add_net(1.0, [NodeId(1), NodeId(2)]).unwrap();
        b.add_net(1.0, [NodeId(2), NodeId(3)]).unwrap();
        // Nodes 4..8 and net 3 form a disconnected island the grow from 0
        // must never touch.
        b.add_net(1.0, [NodeId(4), NodeId(5), NodeId(6), NodeId(7)])
            .unwrap();
        let h = b.build().unwrap();
        let csr = CsrHypergraph::with_lengths(&h, &[1.0, 1.0, 1.0, 1.0]);
        let mut s = CsrGrowerScratch::new(&csr);
        let mut heap = IndexedMinHeap::new(csr.num_nodes());

        // Partial grow: settle two nodes, then abandon.
        s.start(&csr, &mut heap, 0);
        s.step(&csr, &mut heap);
        s.step(&csr, &mut heap);

        // Every dirty slot is recorded in a touched list...
        for v in 0..csr.num_nodes() {
            let dirty = s.dist[v].is_finite() || s.via[v] != NONE32 || s.parent[v] != NONE32;
            let listed = s.touched_nodes.contains(&(v as u32));
            assert!(!dirty || listed, "node {v} dirty but not in touched_nodes");
        }
        for e in 0..csr.num_nets() {
            assert!(
                !s.net_used[e] || s.touched_nets.contains(&(e as u32)),
                "net {e} used but not in touched_nets"
            );
        }
        // ...and the island was never touched (the O(touched) bound).
        assert!(s.touched_nodes.iter().all(|&v| v < 4));
        assert!(s.touched_nets.iter().all(|&e| e < 3));
        assert!(s.touched_nodes.len() <= 4 && s.touched_nets.len() <= 3);

        // Reset restores every slot to pristine and empties the lists.
        s.reset();
        for v in 0..csr.num_nodes() {
            assert!(s.dist[v].is_infinite(), "dist[{v}] not pristine");
            assert_eq!(s.via[v], NONE32, "via[{v}] not pristine");
            assert_eq!(s.parent[v], NONE32, "parent[{v}] not pristine");
        }
        assert!(s.net_used.iter().all(|&u| !u));
        assert!(s.touched_nodes.is_empty() && s.touched_nets.is_empty());
    }

    proptest! {
        /// Hypergraph Dijkstra must agree with graph Dijkstra on the star
        /// expansion (each pin-to-pin hop through a net costs d(e)).
        #[test]
        fn agrees_with_star_expansion_dijkstra(seed in 0u64..60) {
            use htp_netlist::gen::random::{random_hypergraph, RandomParams};
            use rand::{rngs::StdRng, SeedableRng, RngExt};

            let mut rng = StdRng::seed_from_u64(seed);
            let p = RandomParams { nodes: 14, nets: 20, min_net_size: 2, max_net_size: 4 };
            let h: Hypergraph = random_hypergraph(p, &mut rng);
            let lengths: Vec<f64> = (0..h.num_nets()).map(|_| rng.random_range(0.0..3.0)).collect();

            // Star expansion with half-lengths per spoke.
            let mut edges = Vec::new();
            for e in h.nets() {
                for &v in h.net_pins(e) {
                    edges.push((v.index(), 14 + e.index(), lengths[e.index()] / 2.0));
                }
            }
            let g = htp_graph::Graph::from_edges(14 + h.num_nets(), &edges);
            let sp = htp_graph::dijkstra::shortest_paths(&g, 0);

            let d = distances(&CsrHypergraph::with_lengths(&h, &lengths), 0);
            for (v, &got) in d.iter().enumerate().take(14) {
                if sp.dist[v].is_infinite() {
                    prop_assert!(got.is_infinite());
                } else {
                    prop_assert!((got - sp.dist[v]).abs() < 1e-9,
                        "node {}: hyper {} vs star {}", v, got, sp.dist[v]);
                }
            }
        }
    }
}
