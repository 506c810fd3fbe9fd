//! Pairwise stochastic flow injection (Yeh/Cheng/Lin-style).
//!
//! Repeatedly pick a random source/target pair, route one unit of flow on
//! the currently-shortest path between them, and re-price every net on the
//! path with the exponential length function `d(e) = exp(α·f(e)/c(e)) − 1`.
//! Congested nets grow long and repel subsequent paths, so the steady-state
//! flow profile concentrates on the netlist's natural bottlenecks.

use rand::{Rng, RngExt};

use htp_core::sptree::CsrGrowerScratch;
use htp_graph::IndexedMinHeap;
use htp_netlist::{CsrHypergraph, Hypergraph, NetId, NodeId};

/// Parameters of the congestion computation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CongestionParams {
    /// Number of random pairs to route. A small multiple of the node count
    /// (2–4×) is usually enough for a stable profile.
    pub pairs: usize,
    /// Exponent scale of the re-pricing function.
    pub alpha: f64,
    /// Initial flow on every net.
    pub epsilon: f64,
    /// Flow injected per routed path.
    pub delta: f64,
}

impl Default for CongestionParams {
    fn default() -> Self {
        CongestionParams {
            pairs: 256,
            alpha: 1.0,
            epsilon: 1e-3,
            delta: 1.0,
        }
    }
}

/// The congestion profile: per-net flow accumulated by the random paths.
#[derive(Clone, Debug)]
pub struct CongestionProfile {
    /// `flow[e.index()]` — total flow routed through net `e`.
    pub flow: Vec<f64>,
    /// Pairs actually routed (pairs in separate components are skipped).
    pub routed: usize,
}

impl CongestionProfile {
    /// Flow normalized by capacity, the congestion measure used for
    /// clustering decisions.
    pub fn utilization(&self, h: &Hypergraph) -> Vec<f64> {
        h.nets()
            .map(|e| self.flow[e.index()] / h.net_capacity(e))
            .collect()
    }
}

/// Computes the congestion profile of `h`.
///
/// # Panics
///
/// Panics if the netlist has fewer than 2 nodes or a parameter is
/// non-positive.
pub fn flow_congestion<R: Rng + ?Sized>(
    h: &Hypergraph,
    params: CongestionParams,
    rng: &mut R,
) -> CongestionProfile {
    assert!(
        h.num_nodes() >= 2,
        "need at least two nodes to route between"
    );
    assert!(
        params.alpha > 0.0 && params.epsilon > 0.0 && params.delta > 0.0,
        "parameters must be positive"
    );
    let n = h.num_nodes();
    let mut flow = vec![params.epsilon; h.num_nets()];
    let mut csr = CsrHypergraph::new(h);
    for (e, len) in csr.lengths_mut().iter_mut().enumerate() {
        *len = length_of(params.alpha, params.epsilon, h.net_capacity(NetId::new(e)));
    }
    let mut grower = CsrGrowerScratch::new(&csr);
    let mut heap = IndexedMinHeap::new(n);
    // Tree edge `(via net, parent)` of every node settled by the current
    // grow. Only the path from `t` back to `s` is read, and every node on
    // it was settled (and so written) by this grow, so stale entries from
    // earlier pairs are never observed and the buffer needs no reset.
    let mut tree_edge: Vec<Option<(NetId, NodeId)>> = vec![None; n];
    let mut routed = 0;

    for _ in 0..params.pairs {
        let s = NodeId::new(rng.random_range(0..n));
        let t = NodeId::new(rng.random_range(0..n));
        if s == t {
            continue;
        }
        // Route s -> t on the current lengths; stop as soon as t settles.
        let mut reached = false;
        grower.start(&csr, &mut heap, s.0);
        while let Some(step) = grower.step(&csr, &mut heap) {
            tree_edge[step.node.index()] = step.via_net.zip(step.parent);
            if step.node == t {
                reached = true;
                break;
            }
        }
        if !reached {
            continue; // different components
        }
        routed += 1;
        // Walk the path back, injecting flow and re-pricing in place.
        let mut cur = t;
        while let Some((e, p)) = tree_edge[cur.index()] {
            flow[e.index()] += params.delta;
            csr.lengths_mut()[e.index()] =
                length_of(params.alpha, flow[e.index()], h.net_capacity(e));
            cur = p;
        }
    }
    CongestionProfile { flow, routed }
}

#[inline]
fn length_of(alpha: f64, flow: f64, capacity: f64) -> f64 {
    (alpha * flow / capacity).exp() - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use htp_netlist::gen::clustered::{clustered_hypergraph, ClusteredParams};
    use htp_netlist::HypergraphBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn bottleneck_nets_accumulate_the_most_flow() {
        let mut rng = StdRng::seed_from_u64(1);
        let params = ClusteredParams {
            clusters: 2,
            cluster_size: 10,
            intra_nets: 60,
            inter_nets: 2,
            min_net_size: 2,
            max_net_size: 2,
        };
        let inst = clustered_hypergraph(params, &mut rng);
        let h = &inst.hypergraph;
        let profile = flow_congestion(h, CongestionParams::default(), &mut rng);
        let util = profile.utilization(h);

        let crosses = |e: htp_netlist::NetId| {
            let pins = h.net_pins(e);
            pins.iter()
                .any(|v| inst.cluster_of[v.index()] != inst.cluster_of[pins[0].index()])
        };
        let avg = |filter: bool| {
            let vals: Vec<f64> = h
                .nets()
                .filter(|&e| crosses(e) == filter)
                .map(|e| util[e.index()])
                .collect();
            vals.iter().sum::<f64>() / vals.len() as f64
        };
        assert!(
            avg(true) > 3.0 * avg(false),
            "inter-cluster nets should be far more congested: {} vs {}",
            avg(true),
            avg(false)
        );
    }

    #[test]
    fn disconnected_pairs_are_skipped_not_fatal() {
        let mut b = HypergraphBuilder::with_unit_nodes(4);
        b.add_net(1.0, [NodeId(0), NodeId(1)]).unwrap();
        b.add_net(1.0, [NodeId(2), NodeId(3)]).unwrap();
        let h = b.build().unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let profile = flow_congestion(
            &h,
            CongestionParams {
                pairs: 64,
                ..Default::default()
            },
            &mut rng,
        );
        assert!(profile.routed < 64, "cross-component pairs cannot route");
        assert!(profile.routed > 0);
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let mut rng = StdRng::seed_from_u64(3);
        let inst = clustered_hypergraph(ClusteredParams::default(), &mut rng);
        let p = CongestionParams {
            pairs: 100,
            ..Default::default()
        };
        let a = flow_congestion(&inst.hypergraph, p, &mut StdRng::seed_from_u64(4));
        let b = flow_congestion(&inst.hypergraph, p, &mut StdRng::seed_from_u64(4));
        assert_eq!(a.flow, b.flow);
    }

    #[test]
    #[should_panic(expected = "at least two nodes")]
    fn tiny_netlist_panics() {
        let h = HypergraphBuilder::with_unit_nodes(1).build().unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let _ = flow_congestion(&h, CongestionParams::default(), &mut rng);
    }
}
