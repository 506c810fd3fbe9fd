//! The hierarchical-FM engine before the single-sweep rewrite, verbatim:
//! every gain evaluation checks each target's capacities through two
//! freshly allocated ancestor lists and re-reads the node's pin counts per
//! target, and a moved node's neighbours are re-evaluated once per shared
//! net. `hfm_equivalence` holds the production engine to its results.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use htp_baselines::hfm::{HfmParams, HfmResult};
use htp_baselines::BaselineError;
use htp_model::{cost, HierarchicalPartition, TreeSpec, VertexId};
use htp_netlist::{Hypergraph, NodeId};

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
    let mut passes = 0;
    let mut total_moves = 0;
    while passes < params.max_passes {
        passes += 1;
        let kept = engine.run_pass();
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

/// Incremental state: per-level block ranks, per-net per-level pin counts,
/// per-vertex subtree sizes.
struct Engine<'a> {
    h: &'a Hypergraph,
    spec: &'a TreeSpec,
    /// Cost levels `0..levels` (the root level never pays).
    levels: usize,
    /// Per leaf rank: the block rank at each cost level.
    chain: Vec<Vec<u32>>,
    /// Per leaf rank: ancestor vertices from the leaf up to the root.
    ancestors: Vec<Vec<VertexId>>,
    /// Number of blocks at each cost level.
    num_blocks: Vec<usize>,
    /// `counts[l][e.index() * num_blocks[l] + block_rank]`.
    counts: Vec<Vec<u32>>,
    /// `distinct[l][e.index()]`: blocks with non-zero count.
    distinct: Vec<Vec<u32>>,
    /// Subtree size per vertex (raw id indexed).
    sizes: Vec<u64>,
    /// Current leaf rank of every node.
    leaf_rank_of: Vec<usize>,
    /// Hierarchy level per vertex (raw id indexed), for capacity checks.
    vertex_levels: Vec<usize>,
}

impl<'a> Engine<'a> {
    fn new(
        h: &'a Hypergraph,
        spec: &'a TreeSpec,
        p: &HierarchicalPartition,
        leaves: &[VertexId],
    ) -> Self {
        let levels = p.root_level();
        let mut leaf_rank = vec![usize::MAX; p.num_vertices()];
        for (r, &q) in leaves.iter().enumerate() {
            leaf_rank[q.index()] = r;
        }

        // Block chains and ranks per level.
        let mut chain_vertices: Vec<Vec<u32>> = Vec::with_capacity(leaves.len());
        for &q in leaves {
            let mut row = Vec::with_capacity(levels);
            let mut cur = q;
            for l in 0..levels {
                while let Some(par) = p.parent(cur) {
                    if p.level(par) <= l {
                        cur = par;
                    } else {
                        break;
                    }
                }
                row.push(cur.0);
            }
            chain_vertices.push(row);
        }
        let mut num_blocks = Vec::with_capacity(levels);
        let mut rank_at: Vec<Vec<u32>> = Vec::with_capacity(levels);
        for l in 0..levels {
            let mut ids: Vec<u32> = chain_vertices.iter().map(|row| row[l]).collect();
            ids.sort_unstable();
            ids.dedup();
            let mut rank = vec![u32::MAX; p.num_vertices()];
            for (r, &id) in ids.iter().enumerate() {
                rank[id as usize] = r as u32;
            }
            num_blocks.push(ids.len());
            rank_at.push(rank);
        }
        let chain: Vec<Vec<u32>> = chain_vertices
            .iter()
            .map(|row| {
                row.iter()
                    .enumerate()
                    .map(|(l, &id)| rank_at[l][id as usize])
                    .collect()
            })
            .collect();

        let ancestors: Vec<Vec<VertexId>> = leaves
            .iter()
            .map(|&q| {
                let mut list = vec![q];
                let mut cur = q;
                while let Some(par) = p.parent(cur) {
                    list.push(par);
                    cur = par;
                }
                list
            })
            .collect();

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
                    let idx = e.index() * num_blocks[l] + chain[r][l] as usize;
                    if counts[l][idx] == 0 {
                        distinct[l][e.index()] += 1;
                    }
                    counts[l][idx] += 1;
                }
            }
        }

        let node_sizes: Vec<u64> = h.nodes().map(|v| h.node_size(v)).collect();
        let sizes = p.subtree_sizes(&node_sizes);
        let size_per_vertex = {
            let mut s = vec![0u64; p.num_vertices()];
            for (q, &v) in sizes.iter().enumerate() {
                s[q] = v;
            }
            s
        };
        // Capture the level of every vertex for capacity checks.
        let vertex_levels: Vec<usize> = (0..p.num_vertices())
            .map(|q| p.level(VertexId::new(q)))
            .collect();

        Engine {
            h,
            spec,
            levels,
            chain,
            ancestors,
            num_blocks,
            counts,
            distinct,
            sizes: size_per_vertex,
            leaf_rank_of,
            vertex_levels,
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

    /// Exact cost change of moving `v` from its leaf to leaf rank `to`.
    fn move_delta(&self, v: NodeId, to: usize) -> f64 {
        let from = self.leaf_rank_of[v.index()];
        let mut delta = 0.0;
        for l in 0..self.levels {
            let a = self.chain[from][l];
            let b = self.chain[to][l];
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

    /// The vertices whose size changes when moving between two leaf ranks:
    /// the non-shared prefixes of the two ancestor chains.
    fn divergent_ancestors(&self, from: usize, to: usize) -> (Vec<VertexId>, Vec<VertexId>) {
        let fa = &self.ancestors[from];
        let ta = &self.ancestors[to];
        let mut fi = fa.len();
        let mut ti = ta.len();
        while fi > 0 && ti > 0 && fa[fi - 1] == ta[ti - 1] {
            fi -= 1;
            ti -= 1;
        }
        (fa[..fi].to_vec(), ta[..ti].to_vec())
    }

    /// Whether the target side has room for `size` at every level it gains.
    fn move_fits(&self, v: NodeId, to: usize) -> bool {
        let from = self.leaf_rank_of[v.index()];
        if from == to {
            return false;
        }
        let s = self.h.node_size(v);
        let (_, gainers) = self.divergent_ancestors(from, to);
        gainers.iter().all(|&q| {
            self.sizes[q.index()] + s <= self.spec.capacity(self.vertex_levels[q.index()])
        })
    }

    /// Best feasible move of `v`, if any.
    fn best_move(&self, v: NodeId) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for to in 0..self.chain.len() {
            if !self.move_fits(v, to) {
                continue;
            }
            let gain = -self.move_delta(v, to);
            if best.is_none_or(|(_, g)| gain > g) {
                best = Some((to, gain));
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
            let a = self.chain[from][l];
            let b = self.chain[to][l];
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
        let (losers, gainers) = self.divergent_ancestors(from, to);
        for q in losers {
            self.sizes[q.index()] -= s;
        }
        for q in gainers {
            self.sizes[q.index()] += s;
        }
        self.leaf_rank_of[v.index()] = to;
        delta
    }

    /// One pass; returns the number of kept (non-rolled-back) moves.
    fn run_pass(&mut self) -> usize {
        let n = self.h.num_nodes();
        let mut free = vec![true; n];
        let mut version = vec![0u32; n];
        let mut heap: BinaryHeap<Candidate> = BinaryHeap::with_capacity(n);
        for v in self.h.nodes() {
            if let Some((to, gain)) = self.best_move(v) {
                heap.push(Candidate {
                    gain,
                    node: v.0,
                    target: to as u32,
                    version: 0,
                });
            }
        }

        let mut moves: Vec<(NodeId, usize, usize)> = Vec::new();
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
            if !self.move_fits(v, to) {
                // Capacities shifted since the candidate was queued;
                // recompute the node's best feasible move.
                version[vi] += 1;
                if let Some((t2, g2)) = self.best_move(v) {
                    heap.push(Candidate {
                        gain: g2,
                        node: c.node,
                        target: t2 as u32,
                        version: version[vi],
                    });
                }
                continue;
            }
            let from = self.leaf_rank_of[vi];
            cum += self.apply_move(v, to);
            free[vi] = false;
            moves.push((v, from, to));
            if cum < best_cum - 1e-12 {
                best_cum = cum;
                best_len = moves.len();
            }

            // Refresh candidates of the free pins sharing a net with v.
            for &e in self.h.node_nets(v) {
                for &u in self.h.net_pins(e) {
                    if u != v && free[u.index()] {
                        version[u.index()] += 1;
                        if let Some((t, g)) = self.best_move(u) {
                            heap.push(Candidate {
                                gain: g,
                                node: u.0,
                                target: t as u32,
                                version: version[u.index()],
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
