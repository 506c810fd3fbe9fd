//! The span cost of a hierarchical partition equals the Steiner-tree cost
//! of routing every net on the partition's own tree (Vijayan's min-cost
//! tree partitioning, the paper's reference \[16\]), when the edge from a
//! level-`l` vertex to its parent at level `p` weighs
//! `Σ_{l <= i < p} w_i`. A gain model that prices moves by Steiner-tree
//! cost therefore optimises the HTP objective itself.

use htp_model::{cost, HierarchicalPartition, TreeSpec};
use htp_netlist::gen::random::{random_hypergraph, RandomParams};
use htp_netlist::{Hypergraph, NodeId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Routing cost of `p`'s assignment on `p`'s tree, computed from the tree
/// alone: a net pays `c(e)` times the weight of every up-edge whose
/// subtree holds some, but not all, of the net's pins — exactly the edges
/// of the minimal subtree spanning the leaves that host them.
fn routing_cost(h: &Hypergraph, spec: &TreeSpec, p: &HierarchicalPartition) -> f64 {
    let up_weight: Vec<f64> = p
        .vertices()
        .map(|q| match p.parent(q) {
            Some(par) => (p.level(q)..p.level(par)).map(|l| spec.weight(l)).sum(),
            None => 0.0,
        })
        .collect();
    let mut below = vec![0usize; p.num_vertices()];
    let mut total = 0.0;
    for e in h.nets() {
        let pins = h.net_pins(e);
        below.iter_mut().for_each(|c| *c = 0);
        for &v in pins {
            let mut q = Some(p.leaf_of(v));
            while let Some(u) = q {
                below[u.index()] += 1;
                q = p.parent(u);
            }
        }
        let steiner: f64 = p
            .vertices()
            .filter(|q| (1..pins.len()).contains(&below[q.index()]))
            .map(|q| up_weight[q.index()])
            .sum();
        total += h.net_capacity(e) * steiner;
    }
    total
}

#[test]
fn hand_checked_case() {
    // 4 nodes, one net crossing the level-1 boundary.
    let mut b = htp_netlist::HypergraphBuilder::with_unit_nodes(4);
    b.add_net(1.0, [NodeId(1), NodeId(2)]).unwrap();
    let h = b.build().unwrap();
    let spec = TreeSpec::new(vec![(1, 2, 1.0), (2, 2, 2.0), (4, 2, 1.0)]).unwrap();
    let p = HierarchicalPartition::full_kary(2, 2, &[0, 1, 2, 3]).unwrap();
    let htp_cost = cost::partition_cost(&h, &spec, &p);
    assert_eq!(htp_cost, 6.0);
    assert_eq!(routing_cost(&h, &spec, &p), htp_cost);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Equivalence on random hypergraphs and random balanced assignments
    /// over a height-2 binary hierarchy with non-uniform weights.
    #[test]
    fn span_cost_equals_routing_cost(seed in 0u64..400) {
        let mut rng = StdRng::seed_from_u64(seed);
        let h = random_hypergraph(
            RandomParams { nodes: 16, nets: 28, min_net_size: 2, max_net_size: 5 },
            &mut rng,
        );
        let spec = TreeSpec::new(vec![(6, 2, 1.0), (10, 2, 3.0), (16, 2, 1.0)]).unwrap();
        let assignment: Vec<usize> =
            (0..16).map(|_| rng.random_range(0..4)).collect();
        let p = HierarchicalPartition::full_kary(2, 2, &assignment).unwrap();

        let htp_cost = cost::partition_cost(&h, &spec, &p);
        let routed = routing_cost(&h, &spec, &p);
        prop_assert!(
            (htp_cost - routed).abs() < 1e-9,
            "span {htp_cost} vs routed {routed}"
        );
    }

    /// The equivalence also survives level gaps (a flat multiway partition
    /// inside a deeper spec).
    #[test]
    fn equivalence_with_level_gaps(seed in 0u64..200) {
        let mut rng = StdRng::seed_from_u64(seed);
        let h = random_hypergraph(
            RandomParams { nodes: 12, nets: 20, min_net_size: 2, max_net_size: 3 },
            &mut rng,
        );
        let spec = TreeSpec::new(vec![(5, 4, 2.0), (8, 4, 1.0), (12, 4, 0.5)]).unwrap();
        // Leaves hang directly under a level-2 root: levels 0 and 1 share
        // blocks, and the routed tree collapses w_0 + w_1 onto one edge.
        let assignment: Vec<usize> = (0..12).map(|_| rng.random_range(0..3)).collect();
        let p = HierarchicalPartition::from_leaf_assignment(2, &assignment).unwrap();

        let htp_cost = cost::partition_cost(&h, &spec, &p);
        let routed = routing_cost(&h, &spec, &p);
        prop_assert!(
            (htp_cost - routed).abs() < 1e-9,
            "span {htp_cost} vs routed {routed}"
        );
    }
}
