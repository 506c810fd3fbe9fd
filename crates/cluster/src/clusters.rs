//! Size-capped agglomeration along low-congestion nets.
//!
//! With a congestion profile in hand, clustering is a capacitated
//! Kruskal: visit nets from least to most congested and merge their pins'
//! clusters whenever the merged size stays within the cap. Saturated nets
//! are visited last and usually find their endpoints already at the cap —
//! exactly the "saturated edges disconnect dense clusters" reading of the
//! flow/cut duality the paper builds on.

use htp_graph::UnionFind;
use htp_netlist::Hypergraph;

use crate::congestion::CongestionProfile;

/// Result of a clustering pass.
#[derive(Clone, Debug)]
pub struct Clustering {
    /// Dense cluster id of every node.
    pub cluster_of: Vec<usize>,
    /// Number of clusters.
    pub count: usize,
}

impl Clustering {
    /// Total node size per cluster.
    pub fn sizes(&self, h: &Hypergraph) -> Vec<u64> {
        let mut sizes = vec![0u64; self.count];
        for v in h.nodes() {
            sizes[self.cluster_of[v.index()]] += h.node_size(v);
        }
        sizes
    }
}

/// Nets of `h` in ascending congestion order (ties by net id) — the visit
/// order of the capacitated Kruskal in [`agglomerate_ordered`].
///
/// Split out so callers that re-cluster the same graph several times (the
/// V-cycle's cap-decay and adaptive-filler retries) sort once per level
/// instead of once per attempt.
pub fn net_order(h: &Hypergraph, profile: &CongestionProfile) -> Vec<usize> {
    let util = profile.utilization(h);
    let mut order: Vec<usize> = (0..h.num_nets()).collect();
    order.sort_by(|&a, &b| {
        util[a]
            .partial_cmp(&util[b])
            .expect("utilization is finite")
            .then(a.cmp(&b))
    });
    order
}

/// The agglomeration core: merges along `order` (a permutation of the net
/// ids, typically from [`net_order`]) under the size cap, keeping every
/// node with `frozen[v]` set as a singleton cluster. `frozen` may be empty
/// (nothing frozen); otherwise it must have one entry per node.
///
/// A frozen node never merges, so it stays the root of its own union-find
/// class — checking the mask on class roots is exactly checking it on the
/// original nodes.
///
/// # Panics
///
/// Panics if `max_cluster_size` is smaller than some node, or if `frozen`
/// is non-empty with the wrong length.
pub fn agglomerate_ordered(
    h: &Hypergraph,
    order: &[usize],
    frozen: &[bool],
    max_cluster_size: u64,
) -> Clustering {
    assert!(
        h.nodes().all(|v| h.node_size(v) <= max_cluster_size),
        "max_cluster_size must fit every single node"
    );
    assert!(
        frozen.is_empty() || frozen.len() == h.num_nodes(),
        "frozen mask must be empty or one entry per node"
    );
    let frozen = |v: usize| !frozen.is_empty() && frozen[v];
    let mut uf = UnionFind::new(h.num_nodes());
    let mut size: Vec<u64> = h.nodes().map(|v| h.node_size(v)).collect();
    for &e in order {
        let pins = h.net_pins(htp_netlist::NetId::new(e));
        // Try to merge all pins pairwise into the first pin's cluster.
        for w in pins.windows(2) {
            let (a, b) = (uf.find(w[0].index()), uf.find(w[1].index()));
            if a == b || frozen(a) || frozen(b) {
                continue;
            }
            if size[a] + size[b] <= max_cluster_size {
                uf.union(a, b);
                let root = uf.find(a);
                size[root] = size[a] + size[b];
            }
        }
    }

    // Dense renumbering.
    let mut id = vec![usize::MAX; h.num_nodes()];
    let mut count = 0;
    let mut cluster_of = vec![0usize; h.num_nodes()];
    for (v, slot) in cluster_of.iter_mut().enumerate() {
        let root = uf.find(v);
        if id[root] == usize::MAX {
            id[root] = count;
            count += 1;
        }
        *slot = id[root];
    }
    Clustering { cluster_of, count }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::congestion::{flow_congestion, CongestionParams};
    use htp_netlist::gen::clustered::{clustered_hypergraph, ClusteredParams};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn recovers_planted_clusters() {
        let mut rng = StdRng::seed_from_u64(7);
        let params = ClusteredParams {
            clusters: 4,
            cluster_size: 8,
            intra_nets: 120,
            inter_nets: 6,
            min_net_size: 2,
            max_net_size: 2,
        };
        let inst = clustered_hypergraph(params, &mut rng);
        let h = &inst.hypergraph;
        let profile = flow_congestion(h, CongestionParams::default(), &mut rng);
        let clustering = agglomerate_ordered(h, &net_order(h, &profile), &[], 8);

        // Every cluster must be pure (all members from one planted group).
        for c in 0..clustering.count {
            let members: Vec<usize> = (0..h.num_nodes())
                .filter(|&v| clustering.cluster_of[v] == c)
                .map(|v| inst.cluster_of[v])
                .collect();
            assert!(
                members.iter().all(|&g| g == members[0]),
                "cluster {c} is mixed: {members:?}"
            );
        }
        // And the planted groups should mostly stay whole: at most a couple
        // of fragments each.
        assert!(
            clustering.count <= 8,
            "4 planted groups fragmented into {} clusters",
            clustering.count
        );
    }

    #[test]
    fn size_cap_is_respected() {
        let mut rng = StdRng::seed_from_u64(8);
        let inst = clustered_hypergraph(ClusteredParams::default(), &mut rng);
        let h = &inst.hypergraph;
        let profile = flow_congestion(h, CongestionParams::default(), &mut rng);
        let order = net_order(h, &profile);
        for cap in [1u64, 3, 7, 16] {
            let clustering = agglomerate_ordered(h, &order, &[], cap);
            assert!(clustering.sizes(h).iter().all(|&s| s <= cap), "cap {cap}");
        }
    }

    #[test]
    fn cap_one_yields_singletons() {
        let mut rng = StdRng::seed_from_u64(9);
        let inst = clustered_hypergraph(ClusteredParams::default(), &mut rng);
        let h = &inst.hypergraph;
        let profile = flow_congestion(h, CongestionParams::default(), &mut rng);
        let clustering = agglomerate_ordered(h, &net_order(h, &profile), &[], 1);
        assert_eq!(clustering.count, h.num_nodes());
    }

    #[test]
    fn frozen_mask_nodes_stay_singletons() {
        let mut rng = StdRng::seed_from_u64(10);
        let inst = clustered_hypergraph(ClusteredParams::default(), &mut rng);
        let h = &inst.hypergraph;
        let profile = flow_congestion(h, CongestionParams::default(), &mut rng);
        let order = net_order(h, &profile);
        let frozen: Vec<bool> = (0..h.num_nodes()).map(|v| v % 3 == 0).collect();
        let clustering = agglomerate_ordered(h, &order, &frozen, 16);
        for (v, &f) in frozen.iter().enumerate() {
            if f {
                let c = clustering.cluster_of[v];
                let members = clustering.cluster_of.iter().filter(|&&x| x == c).count();
                assert_eq!(members, 1, "frozen node {v} merged");
            }
        }
    }
}
