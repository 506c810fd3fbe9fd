//! Hierarchical FM iterative improvement (the `+` of GFM+/RFM+/FLOW+).
//!
//! Reference \[9\] improves an existing hierarchical tree partition with a
//! Fiduccia–Mattheyses-style pass generalized to the *hierarchical* cost:
//! a move relocates a node from its leaf to another leaf of the same tree,
//! changing its block at every level below the two leaves' lowest common
//! ancestor, and its gain is the exact change of
//! `Σ_e Σ_l w_l · span(e, l) · c(e)`. Moves must respect the capacity
//! `C_l` of every block they enter. Passes move each node at most once
//! (highest gain first, negative gains allowed), then roll back to the best
//! prefix; they repeat until a pass brings no improvement.
//!
//! A gain evaluation is one allocation-free sweep over the node's
//! `(level, net)` pairs that prices every feasible target at once, and a
//! move re-evaluates each free neighbour once. Each target's gain still
//! sums the same terms in the same order as pricing that target alone, so
//! results match a per-target engine to the bit; `tests/hfm_equivalence.rs`
//! holds the engine to one.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use htp_model::{cost, HierarchicalPartition, TreeSpec, VertexId};
use htp_netlist::{Hypergraph, NodeId};

use crate::BaselineError;

/// Parameters of the improvement loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HfmParams {
    /// Maximum improvement passes.
    pub max_passes: usize,
}

impl Default for HfmParams {
    fn default() -> Self {
        HfmParams { max_passes: 12 }
    }
}

/// Result of an improvement run.
#[derive(Clone, Debug)]
pub struct HfmResult {
    /// The improved partition (same tree, new node assignment).
    pub partition: HierarchicalPartition,
    /// Cost before improvement.
    pub cost_before: f64,
    /// Cost after improvement (`<= cost_before`).
    pub cost_after: f64,
    /// Passes executed.
    pub passes: usize,
    /// Accepted (kept) moves across all passes.
    pub moves: usize,
}

impl HfmResult {
    /// Relative improvement `1 − after/before` (0 when nothing improved or
    /// the initial cost was already 0).
    pub fn improvement(&self) -> f64 {
        if self.cost_before <= 0.0 {
            0.0
        } else {
            1.0 - self.cost_after / self.cost_before
        }
    }
}

/// Improves `p` by hierarchical FM passes.
///
/// # Errors
///
/// Returns a [`BaselineError::Model`] if `p` does not fit `h` or `spec`.
pub fn improve(
    h: &Hypergraph,
    spec: &TreeSpec,
    p: &HierarchicalPartition,
    params: HfmParams,
) -> Result<HfmResult, BaselineError> {
    htp_model::validate::validate(h, spec, p)?;
    let cost_before = cost::partition_cost(h, spec, p);
    let leaves = p.leaves();
    if leaves.len() < 2 || h.num_nodes() == 0 {
        return Ok(HfmResult {
            partition: p.clone(),
            cost_before,
            cost_after: cost_before,
            passes: 0,
            moves: 0,
        });
    }

    let mut engine = Engine::new(h, spec, p, &leaves);
    let mut buffers = PassBuffers::new(h.num_nodes(), leaves.len());
    let mut passes = 0;
    let mut total_moves = 0;
    while passes < params.max_passes {
        passes += 1;
        let kept = engine.run_pass(&mut buffers);
        total_moves += kept;
        if kept == 0 {
            break;
        }
    }

    let leaf_of: Vec<VertexId> = engine.leaf_rank_of.iter().map(|&r| leaves[r]).collect();
    let partition = p.with_assignment(leaf_of)?;
    let cost_after = cost::partition_cost(h, spec, &partition);
    Ok(HfmResult {
        partition,
        cost_before,
        cost_after,
        passes,
        moves: total_moves,
    })
}

#[derive(Debug)]
struct Candidate {
    gain: f64,
    node: u32,
    target: u32,
    version: u32,
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.gain == other.gain && self.node == other.node
    }
}
impl Eq for Candidate {}
impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        self.gain
            .partial_cmp(&other.gain)
            .expect("gains are not NaN")
            .then(other.node.cmp(&self.node))
    }
}

/// Every leaf's ancestor chain (leaf up to the root), flattened.
struct Chains {
    /// Raw vertex ids, one chain after another.
    vertices: Vec<u32>,
    /// Leaf rank `r`'s chain is `vertices[start[r]..start[r + 1]]`.
    start: Vec<usize>,
}

impl Chains {
    /// The non-shared prefixes of two leaves' chains, `(from side, to
    /// side)`: the vertices whose subtree size falls and rises when a node
    /// moves from leaf rank `from` to leaf rank `to`.
    #[inline]
    fn divergent(&self, from: usize, to: usize) -> (&[u32], &[u32]) {
        let fa = &self.vertices[self.start[from]..self.start[from + 1]];
        let ta = &self.vertices[self.start[to]..self.start[to + 1]];
        let mut fi = fa.len();
        let mut ti = ta.len();
        while fi > 0 && ti > 0 && fa[fi - 1] == ta[ti - 1] {
            fi -= 1;
            ti -= 1;
        }
        (&fa[..fi], &ta[..ti])
    }
}

/// Incremental state: per-level block ranks, per-net per-level pin counts,
/// per-vertex subtree sizes.
struct Engine<'a> {
    h: &'a Hypergraph,
    spec: &'a TreeSpec,
    /// Cost levels `0..levels` (the root level never pays).
    levels: usize,
    /// Number of leaves, i.e. of move targets.
    num_leaves: usize,
    /// Level-major block ranks: `block[l * num_leaves + r]` is the rank of
    /// leaf rank `r`'s block at cost level `l`.
    block: Vec<u32>,
    /// Ancestor chain of every leaf rank.
    chains: Chains,
    /// Number of blocks at each cost level.
    num_blocks: Vec<usize>,
    /// `counts[l][e.index() * num_blocks[l] + block_rank]`.
    counts: Vec<Vec<u32>>,
    /// `distinct[l][e.index()]`: blocks with non-zero count.
    distinct: Vec<Vec<u32>>,
    /// Subtree size per vertex (raw id indexed).
    sizes: Vec<u64>,
    /// `C_l` of every vertex's level (raw id indexed).
    capacity: Vec<u64>,
    /// Current leaf rank of every node.
    leaf_rank_of: Vec<usize>,
}

/// Scratch of one gain evaluation ([`Engine::best_move`]).
struct Sweep {
    /// Feasible targets of the evaluated node, ascending.
    targets: Vec<u32>,
    /// Cost delta of moving the node to `targets[i]`.
    delta: Vec<f64>,
    /// At the current level, per net of the node: the net's offset into
    /// the level's counts, then its term for a target block already on
    /// the net and for one not on it.
    terms: Vec<(usize, f64, f64)>,
}

/// Buffers every pass reuses, allocated once per [`improve`] call.
struct PassBuffers {
    /// Not yet moved in this pass.
    free: Vec<bool>,
    /// Version of each node's one valid heap entry.
    version: Vec<u32>,
    /// Move stamp of each node's last refresh.
    refreshed: Vec<u32>,
    heap: BinaryHeap<Candidate>,
    /// `(node, from, to)` in move order.
    moves: Vec<(NodeId, usize, usize)>,
    sweep: Sweep,
}

impl PassBuffers {
    fn new(n: usize, num_leaves: usize) -> Self {
        PassBuffers {
            free: vec![true; n],
            version: vec![0; n],
            refreshed: vec![0; n],
            heap: BinaryHeap::with_capacity(n),
            moves: Vec::new(),
            sweep: Sweep {
                targets: Vec::with_capacity(num_leaves),
                delta: Vec::with_capacity(num_leaves),
                terms: Vec::new(),
            },
        }
    }
}

impl<'a> Engine<'a> {
    fn new(
        h: &'a Hypergraph,
        spec: &'a TreeSpec,
        p: &HierarchicalPartition,
        leaves: &[VertexId],
    ) -> Self {
        let levels = p.root_level();
        let num_leaves = leaves.len();
        let mut leaf_rank = vec![usize::MAX; p.num_vertices()];
        for (r, &q) in leaves.iter().enumerate() {
            leaf_rank[q.index()] = r;
        }

        // Block vertices per level, then their dense ranks.
        let mut block = Vec::with_capacity(levels * num_leaves);
        let mut cur: Vec<VertexId> = leaves.to_vec();
        let mut num_blocks = Vec::with_capacity(levels);
        let mut rank = vec![u32::MAX; p.num_vertices()];
        for l in 0..levels {
            for q in &mut cur {
                while let Some(par) = p.parent(*q) {
                    if p.level(par) <= l {
                        *q = par;
                    } else {
                        break;
                    }
                }
            }
            let mut ids: Vec<u32> = cur.iter().map(|q| q.0).collect();
            ids.sort_unstable();
            ids.dedup();
            for (r, &id) in ids.iter().enumerate() {
                rank[id as usize] = r as u32;
            }
            num_blocks.push(ids.len());
            block.extend(cur.iter().map(|q| rank[q.index()]));
        }

        let mut chains = Chains {
            vertices: Vec::new(),
            start: Vec::with_capacity(num_leaves + 1),
        };
        for &q in leaves {
            chains.start.push(chains.vertices.len());
            let mut cur = Some(q);
            while let Some(v) = cur {
                chains.vertices.push(v.0);
                cur = p.parent(v);
            }
        }
        chains.start.push(chains.vertices.len());

        let leaf_rank_of: Vec<usize> = h.nodes().map(|v| leaf_rank[p.leaf_of(v).index()]).collect();

        // Net pin counts per level block.
        let mut counts: Vec<Vec<u32>> = (0..levels)
            .map(|l| vec![0u32; h.num_nets() * num_blocks[l]])
            .collect();
        let mut distinct: Vec<Vec<u32>> = (0..levels).map(|_| vec![0u32; h.num_nets()]).collect();
        for e in h.nets() {
            for &v in h.net_pins(e) {
                let r = leaf_rank_of[v.index()];
                for l in 0..levels {
                    let idx = e.index() * num_blocks[l] + block[l * num_leaves + r] as usize;
                    if counts[l][idx] == 0 {
                        distinct[l][e.index()] += 1;
                    }
                    counts[l][idx] += 1;
                }
            }
        }

        let node_sizes: Vec<u64> = h.nodes().map(|v| h.node_size(v)).collect();
        let sizes = p.subtree_sizes(&node_sizes);
        let capacity: Vec<u64> = (0..p.num_vertices())
            .map(|q| spec.capacity(p.level(VertexId::new(q))))
            .collect();

        Engine {
            h,
            spec,
            levels,
            num_leaves,
            block,
            chains,
            num_blocks,
            counts,
            distinct,
            sizes,
            capacity,
            leaf_rank_of,
        }
    }

    /// Cost contribution of a block-count `b`: `span` is 0 below 2 blocks.
    #[inline]
    fn val(b: u32) -> f64 {
        if b >= 2 {
            b as f64
        } else {
            0.0
        }
    }

    /// Block rank of leaf rank `r` at cost level `l`.
    #[inline]
    fn block_of(&self, l: usize, r: usize) -> u32 {
        self.block[l * self.num_leaves + r]
    }

    /// Exact cost change of moving `v` from its leaf to leaf rank `to`.
    fn move_delta(&self, v: NodeId, to: usize) -> f64 {
        let from = self.leaf_rank_of[v.index()];
        let mut delta = 0.0;
        for l in 0..self.levels {
            let a = self.block_of(l, from);
            let b = self.block_of(l, to);
            if a == b {
                continue;
            }
            let w = self.spec.weight(l);
            let nb = self.num_blocks[l];
            for &e in self.h.node_nets(v) {
                let base = e.index() * nb;
                let cnt_a = self.counts[l][base + a as usize];
                let cnt_b = self.counts[l][base + b as usize];
                let before = self.distinct[l][e.index()];
                let after = before - u32::from(cnt_a == 1) + u32::from(cnt_b == 0);
                if after != before || (before >= 2) != (after >= 2) {
                    delta += w * self.h.net_capacity(e) * (Self::val(after) - Self::val(before));
                }
            }
        }
        delta
    }

    /// Whether leaf rank `to` has room for `size` at every level a move
    /// from leaf rank `from` enters.
    #[inline]
    fn move_fits(&self, from: usize, to: usize, size: u64) -> bool {
        if from == to {
            return false;
        }
        let (_, gainers) = self.chains.divergent(from, to);
        gainers
            .iter()
            .all(|&q| self.sizes[q as usize] + size <= self.capacity[q as usize])
    }

    /// Best feasible move of `v`, if any: the first target with the
    /// strictly largest gain.
    ///
    /// One sweep over `(level, net)` evaluates every feasible target. Per
    /// pair it decides once whether `v` leaves its block, which leaves one
    /// possible non-zero term; each target then adds that term or `+0.0`,
    /// by whether its block is already on the net. A target so receives
    /// exactly [`Engine::move_delta`]'s additions in the same order, and
    /// the added zeros are exact: a sum that starts at `+0.0` is never
    /// `−0.0`, and `x + 0.0 == x` for every other `x`.
    fn best_move(&self, v: NodeId, sweep: &mut Sweep) -> Option<(usize, f64)> {
        let from = self.leaf_rank_of[v.index()];
        let size = self.h.node_size(v);
        let Sweep {
            targets,
            delta,
            terms,
        } = sweep;
        targets.clear();
        targets.extend(
            (0..self.num_leaves)
                .filter(|&to| self.move_fits(from, to, size))
                .map(|to| to as u32),
        );
        if targets.is_empty() {
            return None;
        }
        delta.clear();
        delta.resize(targets.len(), 0.0);

        for l in 0..self.levels {
            let row = &self.block[l * self.num_leaves..(l + 1) * self.num_leaves];
            let a = row[from];
            if targets.iter().all(|&to| row[to as usize] == a) {
                continue;
            }
            let w = self.spec.weight(l);
            let nb = self.num_blocks[l];
            let counts = &self.counts[l];
            let distinct = &self.distinct[l];
            terms.clear();
            terms.extend(self.h.node_nets(v).iter().map(|&e| {
                let base = e.index() * nb;
                let before = distinct[e.index()];
                let wc = w * self.h.net_capacity(e);
                if counts[base + a as usize] == 1 {
                    // `v` leaves its block: a target block already on the
                    // net takes the count down by one, an absent one
                    // keeps it.
                    (base, wc * (Self::val(before - 1) - Self::val(before)), 0.0)
                } else {
                    // `v`'s block stays: only an absent block adds one.
                    (base, 0.0, wc * (Self::val(before + 1) - Self::val(before)))
                }
            }));
            // Target by target, so each sum stays in a register; its
            // additions still come in net order.
            for (&to, d) in targets.iter().zip(delta.iter_mut()) {
                let b = row[to as usize];
                if b == a {
                    continue;
                }
                let mut sum = *d;
                for &(base, on, off) in terms.iter() {
                    sum += if counts[base + b as usize] != 0 {
                        on
                    } else {
                        off
                    };
                }
                *d = sum;
            }
        }

        let mut best: Option<(usize, f64)> = None;
        for (&to, &d) in targets.iter().zip(delta.iter()) {
            let gain = -d;
            if best.is_none_or(|(_, g)| gain > g) {
                best = Some((to as usize, gain));
            }
        }
        best
    }

    /// Applies the move, maintaining counts, distinct counts, and sizes.
    /// Returns the exact cost delta.
    fn apply_move(&mut self, v: NodeId, to: usize) -> f64 {
        let from = self.leaf_rank_of[v.index()];
        let delta = self.move_delta(v, to);
        for l in 0..self.levels {
            let a = self.block_of(l, from);
            let b = self.block_of(l, to);
            if a == b {
                continue;
            }
            let nb = self.num_blocks[l];
            for &e in self.h.node_nets(v) {
                let base = e.index() * nb;
                let cnt_a = &mut self.counts[l][base + a as usize];
                *cnt_a -= 1;
                if *cnt_a == 0 {
                    self.distinct[l][e.index()] -= 1;
                }
                let cnt_b = &mut self.counts[l][base + b as usize];
                if *cnt_b == 0 {
                    self.distinct[l][e.index()] += 1;
                }
                *cnt_b += 1;
            }
        }
        let s = self.h.node_size(v);
        let (losers, gainers) = self.chains.divergent(from, to);
        for &q in losers {
            self.sizes[q as usize] -= s;
        }
        for &q in gainers {
            self.sizes[q as usize] += s;
        }
        self.leaf_rank_of[v.index()] = to;
        delta
    }

    /// One pass; returns the number of kept (non-rolled-back) moves.
    fn run_pass(&mut self, buffers: &mut PassBuffers) -> usize {
        let PassBuffers {
            free,
            version,
            refreshed,
            heap,
            moves,
            sweep,
        } = buffers;
        free.fill(true);
        version.fill(0);
        refreshed.fill(0);
        heap.clear();
        moves.clear();
        for v in self.h.nodes() {
            if let Some((to, gain)) = self.best_move(v, sweep) {
                heap.push(Candidate {
                    gain,
                    node: v.0,
                    target: to as u32,
                    version: 0,
                });
            }
        }

        let mut cum = 0.0;
        let mut best_cum = 0.0;
        let mut best_len = 0usize;

        while let Some(c) = heap.pop() {
            let vi = c.node as usize;
            if !free[vi] || c.version != version[vi] {
                continue;
            }
            let v = NodeId(c.node);
            let to = c.target as usize;
            let from = self.leaf_rank_of[vi];
            if !self.move_fits(from, to, self.h.node_size(v)) {
                // Capacities shifted since the candidate was queued;
                // recompute the node's best feasible move.
                version[vi] += 1;
                if let Some((t2, g2)) = self.best_move(v, sweep) {
                    heap.push(Candidate {
                        gain: g2,
                        node: c.node,
                        target: t2 as u32,
                        version: version[vi],
                    });
                }
                continue;
            }
            cum += self.apply_move(v, to);
            free[vi] = false;
            moves.push((v, from, to));
            if cum < best_cum - 1e-12 {
                best_cum = cum;
                best_len = moves.len();
            }

            // Refresh the candidate of every free pin sharing a net with
            // v, once: the state is fixed during this loop, so a second
            // evaluation would only queue an identical candidate.
            let stamp = moves.len() as u32;
            for &e in self.h.node_nets(v) {
                for &u in self.h.net_pins(e) {
                    let ui = u.index();
                    if u != v && free[ui] && refreshed[ui] != stamp {
                        refreshed[ui] = stamp;
                        version[ui] += 1;
                        if let Some((t, g)) = self.best_move(u, sweep) {
                            heap.push(Candidate {
                                gain: g,
                                node: u.0,
                                target: t as u32,
                                version: version[ui],
                            });
                        }
                    }
                }
            }
        }

        // Roll back past the best prefix.
        for &(v, from, _) in moves[best_len..].iter().rev() {
            self.apply_move(v, from);
        }
        if best_cum < -1e-12 {
            best_len
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htp_model::validate;
    use htp_netlist::gen::clustered::{clustered_hypergraph, ClusteredParams};
    use htp_netlist::HypergraphBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn repairs_a_deliberately_bad_assignment() {
        // Two tight clusters assigned half-and-half across two leaves; HFM
        // must unscramble them down to the planted cut.
        let mut rng = StdRng::seed_from_u64(0);
        let params = ClusteredParams {
            clusters: 2,
            cluster_size: 8,
            intra_nets: 48,
            inter_nets: 2,
            min_net_size: 2,
            max_net_size: 2,
        };
        let inst = clustered_hypergraph(params, &mut rng);
        let h = &inst.hypergraph;
        let spec = TreeSpec::new(vec![(10, 2, 1.0), (16, 2, 1.0)]).unwrap();
        // Interleave: node i -> leaf i % 2 (maximally scrambled).
        let scrambled: Vec<usize> = (0..16).map(|i| i % 2).collect();
        let p = HierarchicalPartition::from_leaf_assignment(1, &scrambled).unwrap();
        let r = improve(h, &spec, &p, HfmParams::default()).unwrap();
        assert!(r.cost_after < r.cost_before);
        assert_eq!(r.cost_after, 4.0, "planted cut: 2 inter nets × span 2");
        validate::validate(h, &spec, &r.partition).unwrap();
        assert!(r.improvement() > 0.5);
    }

    #[test]
    fn already_optimal_partition_is_untouched() {
        let mut b = HypergraphBuilder::with_unit_nodes(4);
        b.add_net(1.0, [NodeId(0), NodeId(1)]).unwrap();
        b.add_net(1.0, [NodeId(2), NodeId(3)]).unwrap();
        let h = b.build().unwrap();
        let spec = TreeSpec::new(vec![(2, 2, 1.0), (4, 2, 1.0)]).unwrap();
        let p = HierarchicalPartition::from_leaf_assignment(1, &[0, 0, 1, 1]).unwrap();
        let r = improve(&h, &spec, &p, HfmParams::default()).unwrap();
        assert_eq!(r.cost_before, 0.0);
        assert_eq!(r.cost_after, 0.0);
        assert_eq!(r.moves, 0);
    }

    #[test]
    fn respects_capacities_during_improvement() {
        // A net wants everything in one leaf, but C_0 forbids it.
        let mut b = HypergraphBuilder::with_unit_nodes(6);
        b.add_net(1.0, (0..6).map(NodeId).collect::<Vec<_>>())
            .unwrap();
        let h = b.build().unwrap();
        let spec = TreeSpec::new(vec![(3, 2, 1.0), (6, 2, 1.0)]).unwrap();
        let p = HierarchicalPartition::from_leaf_assignment(1, &[0, 0, 0, 1, 1, 1]).unwrap();
        let r = improve(&h, &spec, &p, HfmParams::default()).unwrap();
        validate::validate(&h, &spec, &r.partition).unwrap();
        // The big net spans both leaves no matter what: cost stays 2.
        assert_eq!(r.cost_after, 2.0);
    }

    #[test]
    fn improves_multilevel_cost_not_just_leaf_cuts() {
        // Height-2 binary tree. Nodes 0-3 form a clique, as do 4-7. A bad
        // assignment splits each clique across the level-1 boundary, which
        // costs at both levels; HFM should pull each clique under one
        // level-1 vertex.
        let mut b = HypergraphBuilder::with_unit_nodes(8);
        for group in [0u32, 4] {
            for i in 0..4 {
                for j in i + 1..4 {
                    b.add_net(1.0, [NodeId(group + i), NodeId(group + j)])
                        .unwrap();
                }
            }
        }
        let h = b.build().unwrap();
        let spec = TreeSpec::new(vec![(3, 2, 1.0), (5, 2, 1.0), (8, 2, 1.0)]).unwrap();
        // leaves 0,1 under mid A; 2,3 under mid B. Scatter the cliques.
        let p = HierarchicalPartition::full_kary(2, 2, &[0, 0, 2, 2, 1, 1, 3, 3]).unwrap();
        let before = cost::partition_cost(&h, &spec, &p);
        let r = improve(&h, &spec, &p, HfmParams::default()).unwrap();
        assert!(r.cost_after < before);
        // Each clique should end up inside one mid vertex, paying only at
        // level 0: a 3|1 split cuts 3 nets (cost 6), a 2|2 split 4 (cost 8).
        assert!(r.cost_after <= 16.0, "got {}", r.cost_after);
    }

    #[test]
    fn single_leaf_partition_is_a_no_op() {
        let mut b = HypergraphBuilder::with_unit_nodes(3);
        b.add_net(1.0, [NodeId(0), NodeId(1)]).unwrap();
        let h = b.build().unwrap();
        let spec = TreeSpec::new(vec![(4, 2, 1.0), (8, 2, 1.0)]).unwrap();
        let p = HierarchicalPartition::from_leaf_assignment(1, &[0, 0, 0]).unwrap();
        let r = improve(&h, &spec, &p, HfmParams::default()).unwrap();
        assert_eq!(r.passes, 0);
        assert_eq!(r.partition, p);
    }

    #[test]
    fn invalid_input_partition_is_rejected() {
        let h = HypergraphBuilder::with_unit_nodes(4).build().unwrap();
        let spec = TreeSpec::new(vec![(1, 2, 1.0), (4, 2, 1.0)]).unwrap();
        let p = HierarchicalPartition::from_leaf_assignment(1, &[0, 0, 1, 1]).unwrap();
        assert!(matches!(
            improve(&h, &spec, &p, HfmParams::default()),
            Err(BaselineError::Model(_))
        ));
    }
}
