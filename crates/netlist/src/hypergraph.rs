//! The immutable CSR hypergraph.

use crate::{NetId, NodeId};

/// An immutable hypergraph `H = (V, E)` representing a netlist.
///
/// Nodes model cells/gates and carry an integral size `s(v) >= 1`; nets model
/// hyperedges and carry a positive capacity `c(e)`. Pin membership is stored
/// twice in compressed sparse row form — nets to pins and nodes to incident
/// nets — so both directions of traversal are cache-friendly and
/// allocation-free.
///
/// Construct instances with [`crate::HypergraphBuilder`]; the builder
/// guarantees every invariant this type relies on (dense ids, deduplicated
/// pins, `|e| >= 2`, positive weights).
#[derive(Clone, Debug, PartialEq)]
pub struct Hypergraph {
    pub(crate) node_size: Vec<u64>,
    pub(crate) net_capacity: Vec<f64>,
    /// CSR: pins of net `e` are `pins[net_off[e]..net_off[e+1]]`.
    pub(crate) net_off: Vec<u32>,
    pub(crate) pins: Vec<NodeId>,
    /// CSR: nets incident to node `v` are `nets[node_off[v]..node_off[v+1]]`.
    pub(crate) node_off: Vec<u32>,
    pub(crate) node_nets: Vec<NetId>,
}

impl Hypergraph {
    /// Number of nodes `|V|`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.node_size.len()
    }

    /// Number of nets `|E|`.
    #[inline]
    pub fn num_nets(&self) -> usize {
        self.net_capacity.len()
    }

    /// Total number of pins, i.e. `sum over e of |e|`.
    #[inline]
    pub fn num_pins(&self) -> usize {
        self.pins.len()
    }

    /// Size `s(v)` of a node.
    #[inline]
    pub fn node_size(&self, v: NodeId) -> u64 {
        self.node_size[v.index()]
    }

    /// Capacity `c(e)` of a net.
    #[inline]
    pub fn net_capacity(&self, e: NetId) -> f64 {
        self.net_capacity[e.index()]
    }

    /// The pins (member nodes) of net `e`, in ascending node order.
    #[inline]
    pub fn net_pins(&self, e: NetId) -> &[NodeId] {
        let lo = self.net_off[e.index()] as usize;
        let hi = self.net_off[e.index() + 1] as usize;
        &self.pins[lo..hi]
    }

    /// The nets incident to node `v`, in ascending net order.
    #[inline]
    pub fn node_nets(&self, v: NodeId) -> &[NetId] {
        let lo = self.node_off[v.index()] as usize;
        let hi = self.node_off[v.index() + 1] as usize;
        &self.node_nets[lo..hi]
    }

    /// Degree of a node: the number of nets it belongs to.
    #[inline]
    pub fn node_degree(&self, v: NodeId) -> usize {
        self.node_nets(v).len()
    }

    /// Iterator over all node ids `0..n`.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = NodeId> + Clone {
        (0..self.num_nodes() as u32).map(NodeId)
    }

    /// Iterator over all net ids `0..m`.
    pub fn nets(&self) -> impl ExactSizeIterator<Item = NetId> + Clone {
        (0..self.num_nets() as u32).map(NetId)
    }

    /// Total node size `s(V)`.
    pub fn total_size(&self) -> u64 {
        self.node_size.iter().sum()
    }

    /// Total size of a subset of nodes, `s(V')`.
    pub fn subset_size<I>(&self, subset: I) -> u64
    where
        I: IntoIterator<Item = NodeId>,
    {
        subset.into_iter().map(|v| self.node_size(v)).sum()
    }

    /// Sum of all net capacities.
    pub fn total_capacity(&self) -> f64 {
        self.net_capacity.iter().sum()
    }

    /// Returns `true` if all nodes have size 1.
    pub fn has_unit_sizes(&self) -> bool {
        self.node_size.iter().all(|&s| s == 1)
    }

    /// Returns `true` if all nets have capacity 1.
    pub fn has_unit_capacities(&self) -> bool {
        self.net_capacity.iter().all(|&c| c == 1.0)
    }

    /// Largest net cardinality, or 0 for a netless graph.
    pub fn max_net_size(&self) -> usize {
        self.nets()
            .map(|e| self.net_pins(e).len())
            .max()
            .unwrap_or(0)
    }

    /// The neighbours of `v`: every distinct node sharing at least one net
    /// with `v`, excluding `v` itself. Allocates; intended for small-scale
    /// inspection and tests rather than hot loops.
    pub fn neighbours(&self, v: NodeId) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self
            .node_nets(v)
            .iter()
            .flat_map(|&e| self.net_pins(e).iter().copied())
            .filter(|&u| u != v)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Builds the induced sub-hypergraph on `keep` (which must contain
    /// distinct valid node ids). A net survives iff at least two of its pins
    /// are kept. Returns the sub-hypergraph together with the mapping from
    /// new node ids to original ids (`original[new.index()] == old`).
    ///
    /// # Panics
    ///
    /// Panics if `keep` contains an out-of-range or duplicate node id.
    pub fn induce(&self, keep: &[NodeId]) -> (Hypergraph, Vec<NodeId>) {
        let induced = self.induce_tracked(keep);
        (induced.hypergraph, induced.node_map)
    }

    /// Like [`induce`](Hypergraph::induce) but also returns the net
    /// provenance, which callers need to carry per-net data (e.g. a
    /// spreading metric) into the subgraph.
    ///
    /// # Panics
    ///
    /// Panics if `keep` contains an out-of-range or duplicate node id.
    pub fn induce_tracked(&self, keep: &[NodeId]) -> InducedSubgraph {
        const UNMAPPED: u32 = u32::MAX;
        let mut remap = vec![UNMAPPED; self.num_nodes()];
        for (new, &old) in keep.iter().enumerate() {
            assert!(
                remap[old.index()] == UNMAPPED,
                "duplicate node {old} in induce set"
            );
            remap[old.index()] = new as u32;
        }

        let mut b = crate::HypergraphBuilder::new();
        for &old in keep {
            b.add_node(self.node_size(old));
        }
        let mut net_map = Vec::new();
        for e in self.nets() {
            let pins: Vec<NodeId> = self
                .net_pins(e)
                .iter()
                .filter_map(|&v| {
                    let m = remap[v.index()];
                    (m != UNMAPPED).then_some(NodeId(m))
                })
                .collect();
            if pins.len() >= 2 {
                b.add_net(self.net_capacity(e), pins)
                    .expect("induced net pins are valid by construction");
                net_map.push(e);
            }
        }
        InducedSubgraph {
            hypergraph: b
                .build()
                .expect("induced hypergraph is valid by construction"),
            node_map: keep.to_vec(),
            net_map,
        }
    }
}

/// An induced sub-hypergraph with provenance, from
/// [`Hypergraph::induce_tracked`].
#[derive(Clone, Debug)]
pub struct InducedSubgraph {
    /// The induced hypergraph.
    pub hypergraph: Hypergraph,
    /// `node_map[new.index()]` is the original id of node `new`.
    pub node_map: Vec<NodeId>,
    /// `net_map[new.index()]` is the original id of net `new`.
    pub net_map: Vec<NetId>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{contract_with, ContractScratch, HypergraphBuilder};

    fn contract(h: &Hypergraph, cluster_of: &[usize]) -> Hypergraph {
        contract_with(h, cluster_of, &mut ContractScratch::new()).0
    }

    fn triangle() -> Hypergraph {
        let mut b = HypergraphBuilder::new();
        let v: Vec<NodeId> = (0..3).map(|i| b.add_node(i + 1)).collect();
        b.add_net(1.0, [v[0], v[1]]).unwrap();
        b.add_net(2.0, [v[1], v[2]]).unwrap();
        b.add_net(3.0, [v[0], v[1], v[2]]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn csr_views_are_consistent() {
        let h = triangle();
        assert_eq!(h.num_nodes(), 3);
        assert_eq!(h.num_nets(), 3);
        assert_eq!(h.num_pins(), 7);
        assert_eq!(h.net_pins(NetId(0)), &[NodeId(0), NodeId(1)]);
        assert_eq!(h.node_nets(NodeId(0)), &[NetId(0), NetId(2)]);
        assert_eq!(h.node_nets(NodeId(1)), &[NetId(0), NetId(1), NetId(2)]);
        assert_eq!(h.node_degree(NodeId(2)), 2);
    }

    #[test]
    fn sizes_and_capacities() {
        let h = triangle();
        assert_eq!(h.total_size(), 6);
        assert_eq!(h.subset_size([NodeId(0), NodeId(2)]), 4);
        assert!((h.total_capacity() - 6.0).abs() < 1e-12);
        assert!(!h.has_unit_sizes());
        assert!(!h.has_unit_capacities());
        assert_eq!(h.max_net_size(), 3);
    }

    #[test]
    fn neighbours_are_sorted_and_deduped() {
        let h = triangle();
        assert_eq!(h.neighbours(NodeId(0)), vec![NodeId(1), NodeId(2)]);
        assert_eq!(h.neighbours(NodeId(1)), vec![NodeId(0), NodeId(2)]);
    }

    #[test]
    fn induce_keeps_multi_pin_nets_only() {
        let h = triangle();
        let (sub, orig) = h.induce(&[NodeId(1), NodeId(2)]);
        assert_eq!(sub.num_nodes(), 2);
        // Net 1 (v1,v2) and net 2 restricted to (v1,v2) both survive.
        assert_eq!(sub.num_nets(), 2);
        assert_eq!(orig, vec![NodeId(1), NodeId(2)]);
        assert_eq!(sub.node_size(NodeId(0)), 2); // old v1 had size 2
    }

    #[test]
    fn induce_single_node_has_no_nets() {
        let h = triangle();
        let (sub, _) = h.induce(&[NodeId(0)]);
        assert_eq!(sub.num_nodes(), 1);
        assert_eq!(sub.num_nets(), 0);
    }

    #[test]
    #[should_panic(expected = "duplicate node")]
    fn induce_rejects_duplicates() {
        let h = triangle();
        let _ = h.induce(&[NodeId(0), NodeId(0)]);
    }

    #[test]
    fn contract_merges_nodes_nets_and_capacities() {
        // 4 nodes on a path; contract {0,1} and {2,3}.
        let mut b = HypergraphBuilder::with_unit_nodes(4);
        b.add_net(1.0, [NodeId(0), NodeId(1)]).unwrap(); // internal -> dropped
        b.add_net(2.0, [NodeId(1), NodeId(2)]).unwrap(); // crosses -> kept
        b.add_net(3.0, [NodeId(0), NodeId(3)]).unwrap(); // same coarse pins -> merged
        b.add_net(1.0, [NodeId(2), NodeId(3)]).unwrap(); // internal -> dropped
        let h = b.build().unwrap();
        let coarse = contract(&h, &[0, 0, 1, 1]);
        assert_eq!(coarse.num_nodes(), 2);
        assert_eq!(coarse.node_size(NodeId(0)), 2);
        assert_eq!(coarse.num_nets(), 1, "parallel coarse nets merge");
        assert!((coarse.net_capacity(NetId(0)) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn contract_to_single_node_drops_all_nets() {
        let h = triangle();
        let coarse = contract(&h, &[0, 0, 0]);
        assert_eq!(coarse.num_nodes(), 1);
        assert_eq!(coarse.num_nets(), 0);
        assert_eq!(coarse.total_size(), h.total_size());
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn contract_rejects_sparse_ids() {
        let h = triangle();
        let _ = contract(&h, &[0, 2, 2]); // id 1 unused
    }

    #[test]
    fn induce_tracked_maps_nets_to_originals() {
        let h = triangle();
        let sub = h.induce_tracked(&[NodeId(1), NodeId(2)]);
        // Net 0 (v0,v1) dies; nets 1 and 2 survive restricted to {v1,v2}.
        assert_eq!(sub.net_map, vec![NetId(1), NetId(2)]);
        assert_eq!(sub.hypergraph.net_capacity(NetId(0)), 2.0);
        assert_eq!(sub.node_map, vec![NodeId(1), NodeId(2)]);
    }
}
