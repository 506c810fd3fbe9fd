//! Scratch-reusing, allocation-light contraction for the multilevel down
//! pass.
//!
//! Contracting through [`HypergraphBuilder`](crate::HypergraphBuilder)
//! is simple but costs one `Vec<NodeId>` per coarse net, a
//! `HashMap<Vec<NodeId>, f64>` that owns every key, and a full builder
//! re-pack. At V-cycle scale (a million nodes, a dozen levels) that
//! allocation churn dominates the down pass. This module contracts
//! straight over the source CSR slabs into a fresh CSR, keeping every
//! intermediate buffer in a caller-owned [`ContractScratch`] so repeated
//! contractions (one per level) allocate almost nothing after the first.
//!
//! The output is **bit-identical** to that builder contraction: coarse
//! nets are the distinct coarse pin sets in lexicographic pin order,
//! identical pin sets merge with capacities summed in ascending fine
//! net-id order (so the floating-point sums associate identically), and
//! nets left with fewer than two distinct coarse pins are dropped. The
//! equivalence is pinned by tests against a naive builder
//! reimplementation.

use std::collections::HashMap;

use crate::hypergraph::Hypergraph;
use crate::{NetId, NodeId};

/// Sentinel in a net provenance map for fine nets that vanished during
/// contraction (fewer than two distinct coarse pins).
pub const DROPPED_NET: u32 = u32::MAX;

/// Counters from one contraction, for coarsening telemetry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ContractStats {
    /// Nets in the coarse hypergraph (distinct multi-pin coarse pin sets).
    pub coarse_nets: usize,
    /// Fine nets that merged into another net with the identical coarse
    /// pin set (their capacity was summed into the survivor).
    pub merged_nets: usize,
    /// Fine nets dropped for having fewer than two distinct coarse pins.
    pub dropped_nets: usize,
}

/// Reusable working memory for [`contract_with`].
///
/// Holds the mapped-pin buffer, the distinct-pin-set group table, the
/// hash buckets, and the CSR assembly counters. Create once, pass to
/// every contraction in a loop; buffers grow to the high-water mark and
/// stay there.
#[derive(Debug, Default)]
pub struct ContractScratch {
    /// Current net's pins mapped to coarse ids, sorted and deduped.
    pin_buf: Vec<NodeId>,
    /// Flat storage of distinct coarse pin sets, first-occurrence order.
    group_pins: Vec<NodeId>,
    /// `group_pins[group_off[g]..group_off[g+1]]` is group `g`'s pin set.
    group_off: Vec<u32>,
    /// Accumulated capacity per group (summed in fine net-id order).
    group_cap: Vec<f64>,
    /// FNV-1a bucket table: hash → candidate group ids (collision-safe:
    /// membership is decided by slice comparison, never by hash alone).
    buckets: HashMap<u64, Vec<u32>>,
    /// Group ids sorted lexicographically by pin set.
    order: Vec<u32>,
    /// Output position of each group under `order`.
    rank_of_group: Vec<u32>,
    /// Per-coarse-node degree counter for the node→net CSR.
    degree: Vec<u32>,
}

impl ContractScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    fn reset(&mut self) {
        self.pin_buf.clear();
        self.group_pins.clear();
        self.group_off.clear();
        self.group_cap.clear();
        self.buckets.clear();
        self.order.clear();
        self.rank_of_group.clear();
        self.degree.clear();
    }

    fn group(&self, g: u32) -> &[NodeId] {
        &self.group_pins
            [self.group_off[g as usize] as usize..self.group_off[g as usize + 1] as usize]
    }
}

#[inline]
fn fnv1a_pins(pins: &[NodeId]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &p in pins {
        for b in p.0.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    }
    h
}

/// Contracts node groups into coarse nodes, reusing `scratch` across
/// calls: `cluster_of[v.index()]` names the coarse node of `v` (dense ids
/// `0..k`). Coarse node sizes are group sums. Nets are re-pinned to coarse
/// nodes; nets left with a single distinct pin disappear, and nets with
/// identical coarse pin sets merge with summed capacities (the standard
/// multilevel coarsening rule). Returns the coarse hypergraph and the
/// contraction counters; `cluster_of` itself is the fine→coarse node
/// mapping.
///
/// # Panics
///
/// Panics if `cluster_of` has the wrong length or its ids are not dense.
pub fn contract_with(
    h: &Hypergraph,
    cluster_of: &[usize],
    scratch: &mut ContractScratch,
) -> (Hypergraph, ContractStats) {
    let (coarse, _, stats) = contract_core(h, cluster_of, scratch, false);
    (coarse, stats)
}

/// Like [`contract_with`] but also returns the net provenance:
/// `net_map[e]` is the coarse net a fine net `e` merged into, or
/// [`DROPPED_NET`] if it vanished. Callers use this to carry per-net data
/// (e.g. spreading-metric lengths) across the contraction.
///
/// # Panics
///
/// Panics if `cluster_of` has the wrong length or its ids are not dense.
pub fn contract_tracked_with(
    h: &Hypergraph,
    cluster_of: &[usize],
    scratch: &mut ContractScratch,
) -> (Hypergraph, Vec<u32>, ContractStats) {
    let (coarse, map, stats) = contract_core(h, cluster_of, scratch, true);
    (coarse, map.unwrap_or_default(), stats)
}

/// Merges nets with identical pin sets (summing capacities) without
/// touching the node set: contraction by the identity map. The returned
/// `net_map` sends each original net to its merged representative.
///
/// Node ids are unchanged, so any partition of the deduped hypergraph is
/// a partition of the original — and has the same cost, since a cut pin
/// set pays its summed capacity either way. Net ids are *renumbered*
/// (lexicographic pin order), which is what the provenance map is for.
pub fn dedup_nets(h: &Hypergraph) -> (Hypergraph, Vec<u32>, ContractStats) {
    let identity: Vec<usize> = (0..h.num_nodes()).collect();
    contract_tracked_with(h, &identity, &mut ContractScratch::new())
}

fn contract_core(
    h: &Hypergraph,
    cluster_of: &[usize],
    scratch: &mut ContractScratch,
    track: bool,
) -> (Hypergraph, Option<Vec<u32>>, ContractStats) {
    assert_eq!(cluster_of.len(), h.num_nodes(), "one cluster id per node");
    let k = match cluster_of.iter().max() {
        Some(&m) => m + 1,
        None => 0,
    };
    let mut sizes = vec![0u64; k];
    for v in h.nodes() {
        sizes[cluster_of[v.index()]] += h.node_size(v);
    }
    assert!(
        sizes.iter().all(|&s| s > 0),
        "cluster ids must be dense (every id 0..k used)"
    );

    scratch.reset();
    scratch.group_off.push(0);
    let mut net_map = track.then(|| vec![DROPPED_NET; h.num_nets()]);
    let mut stats = ContractStats::default();

    // Group nets by coarse pin set, accumulating capacities in fine
    // net-id order so the f64 sums match the legacy HashMap entry order.
    for e in h.nets() {
        scratch.pin_buf.clear();
        scratch.pin_buf.extend(
            h.net_pins(e)
                .iter()
                .map(|&v| NodeId::new(cluster_of[v.index()])),
        );
        scratch.pin_buf.sort_unstable();
        scratch.pin_buf.dedup();
        if scratch.pin_buf.len() < 2 {
            stats.dropped_nets += 1;
            continue;
        }
        let hash = fnv1a_pins(&scratch.pin_buf);
        let mut found = None;
        if let Some(candidates) = scratch.buckets.get(&hash) {
            for &g in candidates {
                if scratch.group(g) == scratch.pin_buf.as_slice() {
                    found = Some(g);
                    break;
                }
            }
        }
        let g = match found {
            Some(g) => {
                scratch.group_cap[g as usize] += h.net_capacity(e);
                stats.merged_nets += 1;
                g
            }
            None => {
                let g = scratch.group_cap.len() as u32;
                scratch.group_pins.extend_from_slice(&scratch.pin_buf);
                scratch.group_off.push(scratch.group_pins.len() as u32);
                scratch.group_cap.push(h.net_capacity(e));
                scratch.buckets.entry(hash).or_default().push(g);
                g
            }
        };
        if let Some(map) = net_map.as_deref_mut() {
            map[e.index()] = g;
        }
    }

    let groups = scratch.group_cap.len();
    stats.coarse_nets = groups;

    // Deterministic net order: lexicographic by coarse pin set, exactly
    // the legacy sort. Keys are distinct, so the order is total.
    scratch.order.extend(0..groups as u32);
    let (group_pins, group_off) = (&scratch.group_pins, &scratch.group_off);
    scratch.order.sort_unstable_by(|&a, &b| {
        let pa = &group_pins[group_off[a as usize] as usize..group_off[a as usize + 1] as usize];
        let pb = &group_pins[group_off[b as usize] as usize..group_off[b as usize + 1] as usize];
        pa.cmp(pb)
    });
    scratch.rank_of_group.resize(groups, 0);
    for (rank, &g) in scratch.order.iter().enumerate() {
        scratch.rank_of_group[g as usize] = rank as u32;
    }
    if let Some(map) = net_map.as_deref_mut() {
        for slot in map.iter_mut() {
            if *slot != DROPPED_NET {
                *slot = scratch.rank_of_group[*slot as usize];
            }
        }
    }

    // Emit the coarse CSR directly, mirroring HypergraphBuilder::build:
    // pins in net order, node→net lists filled by ascending net id.
    let total_pins: usize = scratch.group_pins.len();
    let mut net_off = Vec::with_capacity(groups + 1);
    let mut pins = Vec::with_capacity(total_pins);
    let mut net_capacity = Vec::with_capacity(groups);
    net_off.push(0u32);
    for &g in &scratch.order {
        let cap = scratch.group_cap[g as usize];
        debug_assert!(
            cap.is_finite() && cap > 0.0,
            "coarse net capacity must stay finite and positive"
        );
        net_capacity.push(cap);
        pins.extend_from_slice(scratch.group(g));
        net_off.push(pins.len() as u32);
    }

    scratch.degree.resize(k, 0);
    scratch.degree[..k].fill(0);
    for &v in &pins {
        scratch.degree[v.index()] += 1;
    }
    let mut node_off = Vec::with_capacity(k + 1);
    node_off.push(0u32);
    for v in 0..k {
        node_off.push(node_off[v] + scratch.degree[v]);
    }
    let mut cursor: Vec<u32> = node_off[..k].to_vec();
    let mut node_nets = vec![NetId(0); pins.len()];
    for e in 0..groups {
        for &v in &pins[net_off[e] as usize..net_off[e + 1] as usize] {
            node_nets[cursor[v.index()] as usize] = NetId::new(e);
            cursor[v.index()] += 1;
        }
    }

    let coarse = Hypergraph {
        node_size: sizes,
        net_capacity,
        net_off,
        pins,
        node_off,
        node_nets,
    };
    (coarse, net_map, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::clustered::{clustered_hypergraph, ClusteredParams};
    use crate::HypergraphBuilder;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// The builder contraction, as the equivalence oracle.
    fn contract_naive(h: &Hypergraph, cluster_of: &[usize]) -> Hypergraph {
        let k = cluster_of.iter().max().map_or(0, |&m| m + 1);
        let mut sizes = vec![0u64; k];
        for v in h.nodes() {
            sizes[cluster_of[v.index()]] += h.node_size(v);
        }
        let mut b = HypergraphBuilder::new();
        for &s in &sizes {
            b.add_node(s);
        }
        let mut merged: HashMap<Vec<NodeId>, f64> = HashMap::new();
        for e in h.nets() {
            let mut pins: Vec<NodeId> = h
                .net_pins(e)
                .iter()
                .map(|&v| NodeId::new(cluster_of[v.index()]))
                .collect();
            pins.sort_unstable();
            pins.dedup();
            if pins.len() >= 2 {
                *merged.entry(pins).or_insert(0.0) += h.net_capacity(e);
            }
        }
        let mut entries: Vec<(Vec<NodeId>, f64)> = merged.into_iter().collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        for (pins, capacity) in entries {
            b.add_net(capacity, pins).unwrap();
        }
        b.build().unwrap()
    }

    fn random_dense_clustering(n: usize, k: usize, rng: &mut StdRng) -> Vec<usize> {
        // Every id 0..k used at least once, rest random.
        let mut cluster_of: Vec<usize> = (0..n).map(|_| rng.random_range(0..k)).collect();
        for c in 0..k {
            let slot = c * n / k;
            cluster_of[slot] = c;
        }
        cluster_of
    }

    #[test]
    fn matches_the_legacy_contraction_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(42);
        let inst = clustered_hypergraph(ClusteredParams::default(), &mut rng);
        let h = &inst.hypergraph;
        let mut scratch = ContractScratch::new();
        for k in [2, 7, h.num_nodes() / 3, h.num_nodes()] {
            let cluster_of = random_dense_clustering(h.num_nodes(), k, &mut rng);
            let (fast, _) = contract_with(h, &cluster_of, &mut scratch);
            let naive = contract_naive(h, &cluster_of);
            assert_eq!(fast, naive, "k={k}");
        }
    }

    #[test]
    fn scratch_reuse_across_graphs_is_clean() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut scratch = ContractScratch::new();
        for seed in 0..4u64 {
            let mut g = StdRng::seed_from_u64(seed);
            let inst = clustered_hypergraph(
                ClusteredParams {
                    clusters: 4,
                    cluster_size: 10,
                    ..ClusteredParams::default()
                },
                &mut g,
            );
            let h = &inst.hypergraph;
            let cluster_of = random_dense_clustering(h.num_nodes(), 5, &mut rng);
            let (reused, _) = contract_with(h, &cluster_of, &mut scratch);
            let (fresh, _) = contract_with(h, &cluster_of, &mut ContractScratch::new());
            assert_eq!(reused, fresh, "seed={seed}");
        }
    }

    #[test]
    fn stats_count_merges_and_drops() {
        // 4 nodes on a path; contract {0,1} and {2,3}: two internal nets
        // drop, two parallel coarse nets merge into one survivor.
        let mut b = HypergraphBuilder::with_unit_nodes(4);
        b.add_net(1.0, [NodeId(0), NodeId(1)]).unwrap();
        b.add_net(2.0, [NodeId(1), NodeId(2)]).unwrap();
        b.add_net(3.0, [NodeId(0), NodeId(3)]).unwrap();
        b.add_net(1.0, [NodeId(2), NodeId(3)]).unwrap();
        let h = b.build().unwrap();
        let (coarse, stats) = contract_with(&h, &[0, 0, 1, 1], &mut ContractScratch::new());
        assert_eq!(coarse.num_nets(), 1);
        assert_eq!(
            stats,
            ContractStats {
                coarse_nets: 1,
                merged_nets: 1,
                dropped_nets: 2,
            }
        );
        assert!((coarse.net_capacity(NetId(0)) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn tracked_map_points_every_net_at_its_survivor() {
        let mut b = HypergraphBuilder::with_unit_nodes(6);
        b.add_net(1.0, [NodeId(0), NodeId(1)]).unwrap(); // internal to cluster 0
        b.add_net(2.0, [NodeId(0), NodeId(2)]).unwrap(); // 0-1 bridge
        b.add_net(4.0, [NodeId(1), NodeId(3)]).unwrap(); // 0-1 bridge (merges)
        b.add_net(8.0, [NodeId(4), NodeId(5), NodeId(0)]).unwrap(); // 0-2 bridge
        let h = b.build().unwrap();
        let (coarse, net_map, stats) =
            contract_tracked_with(&h, &[0, 0, 1, 1, 2, 2], &mut ContractScratch::new());
        assert_eq!(stats.dropped_nets, 1);
        assert_eq!(net_map[0], DROPPED_NET);
        // Nets 1 and 2 share coarse pins {0,1}; net 3 becomes {0,2}.
        assert_eq!(net_map[1], net_map[2]);
        assert_ne!(net_map[1], net_map[3]);
        let survivor = NetId(net_map[1]);
        assert!((coarse.net_capacity(survivor) - 6.0).abs() < 1e-12);
        for (e, &m) in net_map.iter().enumerate() {
            if m != DROPPED_NET {
                // Every mapped net's coarse pin set is its image's pins.
                let mut want: Vec<NodeId> = h
                    .net_pins(NetId::new(e))
                    .iter()
                    .map(|&v| NodeId::new([0, 0, 1, 1, 2, 2][v.index()]))
                    .collect();
                want.sort_unstable();
                want.dedup();
                assert_eq!(coarse.net_pins(NetId(m)), want.as_slice());
            }
        }
    }

    #[test]
    fn dedup_merges_parallel_nets_and_keeps_nodes() {
        let mut b = HypergraphBuilder::new();
        for i in 0..4 {
            b.add_node(i + 1);
        }
        b.add_net(1.0, [NodeId(0), NodeId(1)]).unwrap();
        b.add_net(2.5, [NodeId(0), NodeId(1)]).unwrap(); // duplicate pin set
        b.add_net(1.0, [NodeId(2), NodeId(3)]).unwrap();
        b.add_net(0.5, [NodeId(1), NodeId(0)]).unwrap(); // same set, reordered
        let h = b.build().unwrap();
        let (deduped, net_map, stats) = dedup_nets(&h);
        assert_eq!(deduped.num_nodes(), 4);
        for v in h.nodes() {
            assert_eq!(deduped.node_size(v), h.node_size(v));
        }
        assert_eq!(deduped.num_nets(), 2);
        assert_eq!(stats.merged_nets, 2);
        assert_eq!(stats.dropped_nets, 0);
        assert_eq!(net_map[0], net_map[1]);
        assert_eq!(net_map[0], net_map[3]);
        let merged = NetId(net_map[0]);
        assert!((deduped.net_capacity(merged) - 4.0).abs() < 1e-12);
        // Total capacity is conserved by dedup.
        assert!((deduped.total_capacity() - h.total_capacity()).abs() < 1e-12);
    }

    #[test]
    fn dedup_of_a_duplicate_free_graph_is_a_renumbering() {
        let mut rng = StdRng::seed_from_u64(3);
        let inst = clustered_hypergraph(ClusteredParams::default(), &mut rng);
        let h = &inst.hypergraph;
        let (deduped, net_map, stats) = dedup_nets(h);
        assert_eq!(stats.dropped_nets, 0);
        assert_eq!(
            deduped.num_nets() + stats.merged_nets,
            h.num_nets(),
            "every net is either a survivor or merged"
        );
        for e in h.nets() {
            let m = net_map[e.index()];
            assert_ne!(m, DROPPED_NET);
            assert_eq!(deduped.net_pins(NetId(m)), h.net_pins(e));
        }
    }

    #[test]
    fn empty_graph_contracts_to_empty() {
        let h = HypergraphBuilder::new().build().unwrap();
        let (coarse, stats) = contract_with(&h, &[], &mut ContractScratch::new());
        assert_eq!(coarse.num_nodes(), 0);
        assert_eq!(coarse.num_nets(), 0);
        assert_eq!(stats, ContractStats::default());
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn rejects_sparse_cluster_ids() {
        let h = HypergraphBuilder::with_unit_nodes(3).build().unwrap();
        let _ = contract_with(&h, &[0, 2, 2], &mut ContractScratch::new());
    }
}
