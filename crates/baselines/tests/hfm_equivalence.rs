//! Differential suite for the hierarchical-FM engine.
//!
//! `hfm::improve` evaluates all targets of a node in one sweep, checks
//! capacities without allocating, and refreshes each neighbour once per
//! move. None of that may change a result: on every input below it must
//! return exactly what the straightforward engine it replaced returns —
//! the same partition, the same `cost_after` bits, the same number of
//! passes and moves. That engine is kept verbatim in `reference.rs`.
//!
//! The inputs cover what the sweep's exactness rests on: non-dyadic net
//! capacities and level weights (where any re-association of the gain
//! sums changes their bits and with them tie-breaks), trees with repeated
//! chain entries and arity 3, capacities tight enough that queued moves
//! stop fitting before they are popped, and a recorded V-cycle level.

use htp_baselines::gfm::{gfm_partition, GfmParams};
use htp_baselines::hfm::{improve, HfmParams, HfmResult};
use htp_model::{HierarchicalPartition, PartitionBuilder, TreeSpec};
use htp_netlist::gen::clustered::{clustered_hypergraph, ClusteredParams};
use htp_netlist::gen::rent::{rent_circuit, RentParams};
use htp_netlist::{Hypergraph, HypergraphBuilder, NodeId};
use htp_verify::gen::all_families;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[path = "hfm_equivalence/reference.rs"]
mod reference;

/// Runs both engines and asserts every output matches to the bit.
fn assert_same(
    label: &str,
    h: &Hypergraph,
    spec: &TreeSpec,
    p: &HierarchicalPartition,
    params: HfmParams,
) -> HfmResult {
    let got = improve(h, spec, p, params).unwrap_or_else(|e| panic!("{label}: {e}"));
    let want = reference::improve(h, spec, p, params).unwrap();
    assert_eq!(got.partition, want.partition, "{label}: partition");
    assert_eq!(
        got.cost_before.to_bits(),
        want.cost_before.to_bits(),
        "{label}: cost_before"
    );
    assert_eq!(
        got.cost_after.to_bits(),
        want.cost_after.to_bits(),
        "{label}: cost_after {} vs {}",
        got.cost_after,
        want.cost_after
    );
    assert_eq!(got.passes, want.passes, "{label}: passes");
    assert_eq!(got.moves, want.moves, "{label}: moves");
    got
}

/// Both engines at the default pass limit and at one pass (the first
/// pass's rollback point, before later passes can mask a divergence).
fn assert_same_both_limits(
    label: &str,
    h: &Hypergraph,
    spec: &TreeSpec,
    p: &HierarchicalPartition,
) -> usize {
    assert_same(label, h, spec, p, HfmParams { max_passes: 1 });
    assert_same(label, h, spec, p, HfmParams::default()).moves
}

fn rent(nodes: usize, seed: u64) -> Hypergraph {
    let mut rng = StdRng::seed_from_u64(seed);
    rent_circuit(
        RentParams {
            nodes,
            primary_inputs: (nodes / 16).max(1),
            locality: 0.8,
            ..RentParams::default()
        },
        &mut rng,
    )
}

/// `h` with node sizes and net capacities replaced.
fn reweighted(
    h: &Hypergraph,
    size: impl Fn(usize) -> u64,
    capacity: impl Fn(usize) -> f64,
) -> Hypergraph {
    let mut b = HypergraphBuilder::new();
    for v in h.nodes() {
        b.add_node(size(v.index()));
    }
    for e in h.nets() {
        b.add_net(capacity(e.index()), h.net_pins(e).to_vec())
            .unwrap();
    }
    b.build().unwrap()
}

/// Node `v` on leaf `v mod leaves` of a full `k`-ary tree.
fn round_robin(h: &Hypergraph, height: usize, k: usize) -> HierarchicalPartition {
    let leaves = k.pow(height as u32);
    let assignment: Vec<usize> = (0..h.num_nodes()).map(|v| v % leaves).collect();
    HierarchicalPartition::full_kary(height, k, &assignment).unwrap()
}

#[test]
fn conformance_families_from_gfm_starts() {
    let mut moved = 0;
    for seed in [1997, 7, 31] {
        for inst in all_families(seed) {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x6766_6d00);
            let start = gfm_partition(&inst.hypergraph, &inst.spec, GfmParams::default(), &mut rng)
                .unwrap();
            let label = format!("{} seed {seed}", inst.family);
            moved += assert_same_both_limits(&label, &inst.hypergraph, &inst.spec, &start);
        }
    }
    assert!(moved > 0, "no family improved: the comparison is vacuous");
}

#[test]
fn round_robin_starts_on_mixed_size_rent() {
    for (nodes, seed) in [(300, 1), (700, 2)] {
        let h = reweighted(
            &rent(nodes, seed),
            |v| [1, 2, 1, 3, 1, 1, 2][v % 7],
            |_| 1.0,
        );
        let spec = TreeSpec::full_tree(h.total_size(), 4, 2, 1.25, 1.0).unwrap();
        let start = round_robin(&h, 4, 2);
        let moves = assert_same_both_limits(&format!("rent:{nodes}"), &h, &spec, &start);
        assert!(moves > 0, "rent:{nodes}: round robin left untouched");
    }
}

#[test]
fn recorded_vcycle_level_of_clustered_20x100() {
    let h =
        htp_netlist::io::hgr::from_str(include_str!("data/vcycle_clustered20x100.hgr")).unwrap();
    let start = htp_model::io::from_str(include_str!("data/vcycle_clustered20x100.part")).unwrap();
    assert_eq!(h.num_nodes(), 616);
    assert!(!h.has_unit_sizes() && !h.has_unit_capacities());
    let spec = TreeSpec::full_tree(h.total_size(), 4, 2, 1.10, 1.0).unwrap();
    let moves = assert_same_both_limits("clustered:20x100 level", &h, &spec, &start);
    assert!(moves > 0);
}

#[test]
fn non_dyadic_capacities_and_level_weights() {
    // 0.37 and the weights below have no short binary expansion, so
    // every partial sum rounds and summation order shows in the bits.
    for (nodes, seed) in [(256, 3), (600, 4)] {
        let h = reweighted(
            &rent(nodes, seed),
            |v| 1 + u64::from(v % 5 == 0),
            |e| 0.1 + 0.37 * (e % 6) as f64,
        );
        let base = TreeSpec::full_tree(h.total_size(), 4, 2, 1.2, 1.0).unwrap();
        let weights = [0.3, 1.7, 0.0, 0.9, 1.0];
        let spec = TreeSpec::new(
            base.levels()
                .iter()
                .zip(weights)
                .map(|(l, w)| (l.capacity, l.max_children, w))
                .collect(),
        )
        .unwrap();
        let label = format!("non-dyadic rent:{nodes}");
        assert_same_both_limits(&label, &h, &spec, &round_robin(&h, 4, 2));
        let mut rng = StdRng::seed_from_u64(seed);
        let gfm = gfm_partition(&h, &spec, GfmParams::default(), &mut rng).unwrap();
        assert_same_both_limits(&format!("{label} from gfm"), &h, &spec, &gfm);
    }
}

#[test]
fn ternary_trees() {
    for (nodes, seed) in [(200, 5), (450, 6)] {
        let h = rent(nodes, seed);
        let spec = TreeSpec::full_tree(h.total_size(), 2, 3, 1.2, 1.0).unwrap();
        let moves = assert_same_both_limits(
            &format!("ternary rent:{nodes}"),
            &h,
            &spec,
            &round_robin(&h, 2, 3),
        );
        assert!(moves > 0);
        let spec3 = TreeSpec::full_tree(h.total_size(), 3, 3, 1.3, 1.0).unwrap();
        assert_same_both_limits(
            &format!("ternary height-3 rent:{nodes}"),
            &h,
            &spec3,
            &round_robin(&h, 3, 3),
        );
    }
}

#[test]
fn leaf_directly_under_a_level_two_vertex() {
    // root(3) ─ x(2) ─ a(1) ─ leaves 0, 1
    //         │      └ leaf 2            (its level-0 and level-1 block)
    //         └ y(2) ─ b(1) ─ leaves 3, 4
    //                └ c(1) ─ leaves 5, 6
    let h = rent(280, 8);
    let mut b = PartitionBuilder::new(h.num_nodes(), 3);
    let root = b.root();
    let x = b.add_child(root, 2).unwrap();
    let y = b.add_child(root, 2).unwrap();
    let a = b.add_child(x, 1).unwrap();
    let mut leaves = vec![b.add_child(a, 0).unwrap(), b.add_child(a, 0).unwrap()];
    leaves.push(b.add_child(x, 0).unwrap());
    for parent in [y, y] {
        let mid = b.add_child(parent, 1).unwrap();
        leaves.push(b.add_child(mid, 0).unwrap());
        leaves.push(b.add_child(mid, 0).unwrap());
    }
    for v in h.nodes() {
        b.assign(v, leaves[v.index() % leaves.len()]).unwrap();
    }
    let start = b.build().unwrap();
    let spec = TreeSpec::new(vec![
        (52, 2, 1.0),
        (96, 2, 1.0),
        (170, 2, 1.0),
        (280, 2, 1.0),
    ])
    .unwrap();
    let moves = assert_same_both_limits("leaf under level 2", &h, &spec, &start);
    assert!(moves > 0);
}

#[test]
fn capacities_tight_enough_to_invalidate_queued_moves() {
    // Scrambled planted clusters in leaves with only a few free slots:
    // many nodes queue a move into the same roomy leaf, and once it
    // fills, their queued candidates no longer fit when popped.
    for (seed, slack_nodes) in [(11u64, 4usize), (12, 9), (13, 2)] {
        let mut rng = StdRng::seed_from_u64(seed);
        let inst = clustered_hypergraph(
            ClusteredParams {
                clusters: 8,
                cluster_size: 12,
                intra_nets: 300,
                inter_nets: 20,
                min_net_size: 2,
                max_net_size: 4,
            },
            &mut rng,
        );
        let full = &inst.hypergraph;
        // Drop `slack_nodes` nodes' worth of load so a few slots open up.
        let n = full.num_nodes() - slack_nodes;
        let mut b = HypergraphBuilder::new();
        for v in 0..n {
            b.add_node(1 + u64::from(v % 9 == 4));
        }
        for e in full.nets() {
            let pins: Vec<NodeId> = full
                .net_pins(e)
                .iter()
                .copied()
                .filter(|v| v.index() < n)
                .collect();
            if pins.len() >= 2 {
                b.add_net(full.net_capacity(e), pins).unwrap();
            }
        }
        let h = b.build().unwrap();
        let start = round_robin(&h, 3, 2);
        let max_leaf = {
            let mut load = [0u64; 8];
            for v in h.nodes() {
                load[v.index() % 8] += h.node_size(v);
            }
            load.into_iter().max().unwrap()
        };
        let spec = TreeSpec::new(vec![
            (max_leaf + 1, 2, 1.0),
            (2 * max_leaf + 1, 2, 1.0),
            (4 * max_leaf + 2, 2, 1.0),
            (h.total_size(), 2, 1.0),
        ])
        .unwrap();
        assert_same_both_limits(&format!("tight seed {seed}"), &h, &spec, &start);
    }
}
