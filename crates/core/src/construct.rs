//! Algorithm 3: top-down construction of a hierarchical tree partition from
//! a spreading metric.
//!
//! The top level is determined by the netlist's total size; at each level
//! `l` the node set is carved into children by repeatedly calling
//! [`find_cut_scoped`] with the window
//! `[s(V)/K_l, C_{l−1}]`, and each child is partitioned recursively.
//!
//! The carving is **in place**: instead of cloning the remainder and
//! re-inducing a sub-hypergraph (plus a restricted metric) per child, the
//! whole recursion walks the original hypergraph under an alive-node mask
//! with an incrementally maintained per-net alive-pin count. Carving a
//! block off just flips its mask bits and decrements the pin counts of its
//! nets; recursing into a block flips them back. Node ids stay the
//! original ones throughout, so no id-translation maps are carried either.
//!
//! One refinement over the paper's listing: the window's lower bound is
//! raised to `s(remaining) − (slots_left − 1)·UB` so that the nodes not yet
//! carved always still fit into the remaining child slots — without this,
//! an early sequence of small cuts can strand more than `K_l · C_{l−1}`
//! worth of nodes.

use rand::Rng;

use htp_model::{HierarchicalPartition, PartitionBuilder, TreeSpec, VertexId};
use htp_netlist::{CsrHypergraph, Hypergraph, NodeId};

use crate::findcut::{find_cut_scoped, FindCutScratch};
use crate::runtime::Budget;
use crate::{CoreError, SpreadingMetric};

/// Reusable state for the in-place carve: the alive mask, the per-net
/// alive-pin counts it implies, the flat incidence view every growth runs
/// over, and the cut-growth scratch.
struct CarveScratch {
    /// Whether each (original) node belongs to the region being split.
    alive: Vec<bool>,
    /// Number of alive pins of each (original) net.
    alive_pins: Vec<u32>,
    /// Flat view of the host hypergraph with the metric lengths baked in,
    /// built once per construction and shared by every carve.
    csr: CsrHypergraph,
    /// Growth buffers shared by every `find_cut_scoped` call.
    cut: FindCutScratch,
}

impl CarveScratch {
    /// Creates the scratch with every node alive.
    fn new(h: &Hypergraph, metric: &SpreadingMetric) -> Self {
        CarveScratch {
            alive: vec![true; h.num_nodes()],
            alive_pins: h.nets().map(|e| h.net_pins(e).len() as u32).collect(),
            csr: CsrHypergraph::with_lengths(h, metric.lengths()),
            cut: FindCutScratch::new(h),
        }
    }

    /// Removes `nodes` from the alive region.
    fn deactivate(&mut self, h: &Hypergraph, nodes: &[NodeId]) {
        for &v in nodes {
            debug_assert!(self.alive[v.index()]);
            self.alive[v.index()] = false;
            for &e in h.node_nets(v) {
                self.alive_pins[e.index()] -= 1;
            }
        }
    }

    /// Adds `nodes` back to the alive region.
    fn activate(&mut self, h: &Hypergraph, nodes: &[NodeId]) {
        for &v in nodes {
            debug_assert!(!self.alive[v.index()]);
            self.alive[v.index()] = true;
            for &e in h.node_nets(v) {
                self.alive_pins[e.index()] += 1;
            }
        }
    }
}

/// Builds a hierarchical tree partition guided by `metric` (**Algorithm 3**).
///
/// # Errors
///
/// * [`CoreError::EmptyNetlist`] for a netlist without nodes.
/// * [`CoreError::Infeasible`] if the total size exceeds the root capacity.
/// * [`CoreError::NoFeasibleCut`] if no block within the prescribed size
///   window exists at some level (e.g. a node larger than `C_{l−1}`).
pub fn construct_partition<R: Rng + ?Sized>(
    h: &Hypergraph,
    spec: &TreeSpec,
    metric: &SpreadingMetric,
    rng: &mut R,
) -> Result<HierarchicalPartition, CoreError> {
    construct_partition_budgeted(h, spec, metric, rng, &Budget::unlimited(), None).map(|(p, _)| p)
}

/// What subtree salvage managed to reuse from the prior partition (see
/// [`construct_partition_budgeted`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SalvageReport {
    /// Root-child subtrees of the prior partition examined for reuse.
    pub candidates: usize,
    /// Subtrees replayed verbatim into the new partition.
    pub accepted: usize,
    /// Subtrees rejected because the edit touched one of their nodes (or
    /// removed one outright).
    pub rejected_touched: usize,
    /// Subtrees rejected because a capacity/fanout certificate no longer
    /// holds against the new netlist and spec.
    pub rejected_certificate: usize,
    /// Subtrees rejected because accepting them would leave the carved
    /// remainder more mass than the remaining root slots can hold.
    pub rejected_slots: usize,
    /// Total nodes of the edited netlist covered by accepted subtrees.
    pub salvaged_nodes: usize,
}

impl SalvageReport {
    /// Fraction of the edited netlist's nodes covered by salvaged
    /// subtrees (`0.0` when the netlist is empty).
    pub fn salvaged_fraction(&self, num_nodes: usize) -> f64 {
        if num_nodes == 0 {
            0.0
        } else {
            self.salvaged_nodes as f64 / num_nodes as f64
        }
    }
}

/// A partition of the pre-edit netlist whose untouched subtrees an ECO
/// construction may replay (the ECO input to Algorithm 3).
#[derive(Clone, Copy, Debug)]
pub struct Prior<'a> {
    /// The prior partition.
    pub partition: &'a HierarchicalPartition,
    /// `node_map[old]` is the post-edit id of pre-edit node `old` (`None`
    /// when the edit removed it).
    pub node_map: &'a [Option<NodeId>],
    /// `touched[new]` flags post-edit nodes the edit perturbed (see
    /// `htp-eco`'s touched-set report).
    pub touched: &'a [bool],
}

/// [`construct_partition`] under a [`Budget`], with optional **subtree
/// salvage** from a [`Prior`] partition of the pre-edit netlist (the ECO
/// construction path).
///
/// The carve loop polls [`Budget::check_time`] before every block and
/// inside the cut growth. Only cancellation and the wall-clock deadline
/// can interrupt — construction consumes no rounds or probes, so a
/// round/probe cap spent by the metric phase does not abort building on
/// the metric in hand.
///
/// With a prior, each child subtree of the prior root is a salvage
/// candidate. A candidate is replayed verbatim into the new partition —
/// skipping both its carving and its entire recursive descent — when its
/// certificates still hold:
///
/// 1. **untouched**: every prior node in the subtree survives the edit
///    (`node_map` maps it) and none of the survivors is `touched`;
/// 2. **capacity/fanout**: every subtree vertex still satisfies the new
///    spec's level capacity and fanout bounds under the *edited* node
///    sizes, and the subtree's level sits below the new top level;
/// 3. **slots**: accepting it leaves the un-salvaged remainder no more
///    mass than the remaining root child slots can hold.
///
/// Candidates are considered largest-first (ties by prior vertex order)
/// so the greedy slot check deterministically favours the biggest
/// savings. The remainder is carved fresh by the ordinary Algorithm 3
/// descent with the root's child budget reduced by the accepted count.
/// A prior whose root sits at another level than the new top level
/// donates nothing. The [`SalvageReport`] says what was reused (all zero
/// without a prior).
///
/// # Errors
///
/// As [`construct_partition`], plus [`CoreError::Interrupted`] when the
/// deadline passes or the run is cancelled mid-construction (the partial
/// partition is discarded — the caller keeps its previous best). Salvage
/// never *adds* failure modes because a candidate that would make the
/// remainder infeasible is simply not accepted.
///
/// # Panics
///
/// Panics if the prior's `node_map` is not sized to its partition's
/// nodes or `touched` is not sized to `h`.
pub fn construct_partition_budgeted<R: Rng + ?Sized>(
    h: &Hypergraph,
    spec: &TreeSpec,
    metric: &SpreadingMetric,
    rng: &mut R,
    budget: &Budget,
    prior: Option<&Prior<'_>>,
) -> Result<(HierarchicalPartition, SalvageReport), CoreError> {
    if let Some(prior) = prior {
        assert_eq!(
            prior.node_map.len(),
            prior.partition.num_nodes(),
            "node_map must cover the prior netlist"
        );
        assert_eq!(
            prior.touched.len(),
            h.num_nodes(),
            "touched must cover the edited netlist"
        );
    }
    if h.num_nodes() == 0 {
        return Err(CoreError::EmptyNetlist);
    }
    let total = h.total_size();
    let top = spec.level_for_size(total).ok_or(CoreError::Infeasible {
        total_size: total,
        root_capacity: spec.capacity(spec.root_level()),
    })?;

    let mut report = SalvageReport::default();
    if top == 0 {
        // Everything fits in a single leaf; hang it under a 1-level root.
        let mut b = PartitionBuilder::new(h.num_nodes(), 1);
        let leaf = b.add_child(b.root(), 0)?;
        for v in h.nodes() {
            b.assign(v, leaf)?;
        }
        return Ok((b.build()?, report));
    }

    let mut b = PartitionBuilder::new(h.num_nodes(), top);
    let root = b.root();
    let mut scratch = CarveScratch::new(h, metric);
    // A prior at another root level (the edit moved the instance across a
    // level boundary) has its root children at the wrong depth to be root
    // children here, so it donates nothing.
    let mut reserved = 0;
    if let Some(prior) = prior.filter(|p| p.partition.root_level() == top) {
        reserved = salvage(&mut b, &mut scratch, h, spec, prior, top, &mut report)?;
    }
    let rem: Vec<NodeId> = h.nodes().filter(|&v| scratch.alive[v.index()]).collect();
    if !rem.is_empty() {
        split(
            &mut b,
            root,
            top,
            h,
            rem,
            spec,
            rng,
            budget,
            &mut scratch,
            reserved,
        )?;
    }
    Ok((b.build()?, report))
}

/// Replays the prior root children that pass their certificates (see
/// [`construct_partition_budgeted`]) under the builder's root and masks
/// their nodes out of the carve. Returns the number of root slots they
/// take.
fn salvage(
    b: &mut PartitionBuilder,
    scratch: &mut CarveScratch,
    h: &Hypergraph,
    spec: &TreeSpec,
    prior: &Prior<'_>,
    top: usize,
    report: &mut SalvageReport,
) -> Result<u64, CoreError> {
    let Prior {
        partition: prior,
        node_map,
        touched,
    } = *prior;
    // Old node id -> leaf vertex, gathered once (nodes_in is O(n) per call).
    let mut by_leaf: Vec<Vec<NodeId>> = vec![Vec::new(); prior.num_vertices()];
    for old in 0..prior.num_nodes() {
        by_leaf[prior.leaf_of(NodeId::new(old)).index()].push(NodeId::new(old));
    }

    // Certificate checks 1 and 2 per candidate.
    struct Candidate {
        vertex: VertexId,
        size: u64,
        new_nodes: Vec<NodeId>,
    }
    let k = spec.max_children(top) as u64;
    let ub = spec.capacity(top - 1);
    let mut passed: Vec<Candidate> = Vec::new();
    report.candidates = prior.children(prior.root()).len();
    'cand: for &q in prior.children(prior.root()) {
        // Walk the subtree once: collect surviving node ids and check the
        // structural certificates bottom-up via a recursive size fold.
        let mut new_nodes: Vec<NodeId> = Vec::new();
        let mut stack = vec![q];
        let mut order: Vec<VertexId> = Vec::new();
        while let Some(u) = stack.pop() {
            order.push(u);
            stack.extend_from_slice(prior.children(u));
        }
        for &u in &order {
            if prior.level(u) == 0 {
                for &old in &by_leaf[u.index()] {
                    match node_map[old.index()] {
                        Some(new) if !touched[new.index()] => new_nodes.push(new),
                        _ => {
                            report.rejected_touched += 1;
                            continue 'cand;
                        }
                    }
                }
            }
        }
        if new_nodes.is_empty() {
            // An empty subtree salvages nothing; don't burn a root slot.
            continue;
        }
        // Sizes fold: `order` is a parent-before-child DFS, so iterate it
        // in reverse to accumulate child sizes into parents.
        let mut size_of = vec![0u64; order.len()];
        let mut slot_of = vec![usize::MAX; prior.num_vertices()];
        for (i, &u) in order.iter().enumerate() {
            slot_of[u.index()] = i;
        }
        for (i, &u) in order.iter().enumerate().rev() {
            if prior.level(u) == 0 {
                size_of[i] = h.subset_size(
                    by_leaf[u.index()]
                        .iter()
                        .map(|&old| node_map[old.index()].expect("checked above")),
                );
            }
            let lvl = prior.level(u);
            if size_of[i] > spec.capacity(lvl)
                || (lvl >= 1 && prior.children(u).len() > spec.max_children(lvl))
            {
                report.rejected_certificate += 1;
                continue 'cand;
            }
            if let Some(p) = prior.parent(u) {
                if p != prior.root() {
                    size_of[slot_of[p.index()]] += size_of[i];
                }
            }
        }
        passed.push(Candidate {
            vertex: q,
            size: size_of[0],
            new_nodes,
        });
    }

    // Greedy slot-feasible acceptance, largest first (ties: prior order;
    // the DFS above visited root children in prior order, and the sort
    // is stable, so this is deterministic).
    passed.sort_by_key(|c| std::cmp::Reverse(c.size));
    let total = h.total_size();
    let mut accepted = 0u64;
    let mut salv_size = 0u64;
    let root = b.root();
    for c in passed {
        let count = accepted + 1;
        let rem_after = total - salv_size - c.size;
        let feasible =
            count <= k && (rem_after == 0 || (count < k && rem_after <= (k - count) * ub));
        if !feasible {
            report.rejected_slots += 1;
            continue;
        }
        salv_size += c.size;
        accepted = count;
        report.salvaged_nodes += c.new_nodes.len();
        replay_subtree(b, root, prior, c.vertex, node_map, &by_leaf)?;
        scratch.deactivate(h, &c.new_nodes);
    }
    report.accepted = accepted as usize;
    Ok(accepted)
}

/// Copies the prior subtree rooted at `q` under `parent` in the builder,
/// re-assigning its (surviving, untouched) nodes through `node_map`.
fn replay_subtree(
    b: &mut PartitionBuilder,
    parent: VertexId,
    prior: &HierarchicalPartition,
    q: VertexId,
    node_map: &[Option<NodeId>],
    by_leaf: &[Vec<NodeId>],
) -> Result<(), CoreError> {
    let v = b.add_child(parent, prior.level(q))?;
    if prior.level(q) == 0 {
        for &old in &by_leaf[q.index()] {
            if let Some(new) = node_map[old.index()] {
                b.assign(new, v)?;
            }
        }
    } else {
        for &c in prior.children(q) {
            replay_subtree(b, v, prior, c, node_map, by_leaf)?;
        }
    }
    Ok(())
}

/// Carves `nodes` into children of `vertex`, which sits at `level >= 1`,
/// recursing per child. `reserved` child slots of `vertex` are already
/// occupied (by salvaged subtrees) and excluded from the carve budget.
///
/// On entry the alive mask covers exactly `nodes`; on exit all of them are
/// masked out again (each carve deactivates a block, and the recursive
/// descent re-activates a block only for its own `split`, which restores
/// the invariant before returning).
#[allow(clippy::too_many_arguments)]
fn split<R: Rng + ?Sized>(
    b: &mut PartitionBuilder,
    vertex: VertexId,
    level: usize,
    h: &Hypergraph,
    nodes: Vec<NodeId>,
    spec: &TreeSpec,
    rng: &mut R,
    budget: &Budget,
    scratch: &mut CarveScratch,
    reserved: u64,
) -> Result<(), CoreError> {
    debug_assert!(level >= 1);
    debug_assert!(nodes.iter().all(|&v| scratch.alive[v.index()]));
    let size = h.subset_size(nodes.iter().copied());
    let k = (spec.max_children(level) as u64).saturating_sub(reserved);
    let ub = spec.capacity(level - 1);
    debug_assert!(k >= 1, "salvage acceptance keeps a carve slot available");
    let lb_spec = size.div_ceil(k.max(1));
    if size > k * ub {
        return Err(CoreError::NoFeasibleCut {
            level,
            remaining: size,
            lb: lb_spec,
            ub,
        });
    }

    let mut rem = nodes;
    let mut rem_size = size;
    let mut blocks: Vec<Vec<NodeId>> = Vec::new();
    let mut children = 0u64;

    loop {
        budget.check_time().map_err(CoreError::Interrupted)?;
        if rem_size == 0 {
            break;
        }
        let slots_left = k - children;
        debug_assert!(slots_left >= 1, "window arithmetic keeps a slot available");

        if rem_size <= ub {
            // The remainder fits in one final child.
            scratch.deactivate(h, &rem);
            blocks.push(std::mem::take(&mut rem));
            break;
        }

        // The feasibility floor: the nodes left behind must fit the
        // remaining child slots. The paper's `s(V)/K_l` floor additionally
        // biases toward balanced children, but can squeeze the window shut
        // when node sizes are chunky, so it is dropped on retry.
        let lb_floor = rem_size.saturating_sub((slots_left - 1) * ub).min(ub);
        let lb = lb_spec.max(lb_floor).min(ub);
        let mut cut = find_cut_scoped(
            &scratch.csr,
            &rem,
            &scratch.alive,
            &scratch.alive_pins,
            lb,
            ub,
            rng,
            budget,
            &mut scratch.cut,
        )
        .map_err(CoreError::Interrupted)?;
        for attempt in 0..5 {
            if cut.in_window {
                break;
            }
            let retry_lb = if attempt < 2 { lb } else { lb_floor };
            cut = find_cut_scoped(
                &scratch.csr,
                &rem,
                &scratch.alive,
                &scratch.alive_pins,
                retry_lb,
                ub,
                rng,
                budget,
                &mut scratch.cut,
            )
            .map_err(CoreError::Interrupted)?;
        }
        if !cut.in_window {
            return Err(CoreError::NoFeasibleCut {
                level,
                remaining: rem_size,
                lb: lb_floor,
                ub,
            });
        }

        // Carve the block off: mask it out and compact the remainder.
        rem_size -= h.subset_size(cut.nodes.iter().copied());
        scratch.deactivate(h, &cut.nodes);
        rem.retain(|&v| scratch.alive[v.index()]);
        blocks.push(cut.nodes);
        children += 1;
    }

    // The whole level is carved (and masked out); attach each block,
    // re-activating its nodes only for the recursive descent.
    for block in blocks {
        attach_child(b, vertex, h, block, spec, rng, budget, scratch)?;
    }
    Ok(())
}

/// Attaches `block` under `parent` as one child subtree whose level
/// follows from its size (Algorithm 3's level computation).
///
/// Expects the block's nodes masked out; re-activates them only when the
/// child is internal and must itself be split.
#[allow(clippy::too_many_arguments)]
fn attach_child<R: Rng + ?Sized>(
    b: &mut PartitionBuilder,
    parent: VertexId,
    h: &Hypergraph,
    block: Vec<NodeId>,
    spec: &TreeSpec,
    rng: &mut R,
    budget: &Budget,
    scratch: &mut CarveScratch,
) -> Result<(), CoreError> {
    let size = h.subset_size(block.iter().copied());
    let child_level = spec.level_for_size(size).ok_or(CoreError::Infeasible {
        total_size: size,
        root_capacity: spec.capacity(spec.root_level()),
    })?;
    if child_level == 0 {
        let leaf = b.add_child(parent, 0)?;
        for &v in &block {
            b.assign(v, leaf)?;
        }
    } else {
        let child = b.add_child(parent, child_level)?;
        scratch.activate(h, &block);
        split(
            b,
            child,
            child_level,
            h,
            block,
            spec,
            rng,
            budget,
            scratch,
            0,
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use htp_model::{cost, validate};
    use htp_netlist::gen::clustered::{clustered_hypergraph, ClusteredParams};
    use htp_netlist::HypergraphBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn unit_metric(h: &Hypergraph) -> SpreadingMetric {
        SpreadingMetric::from_lengths(vec![1.0; h.num_nets()])
    }

    #[test]
    fn tiny_netlist_becomes_a_single_leaf() {
        let mut b = HypergraphBuilder::with_unit_nodes(3);
        b.add_net(1.0, [NodeId(0), NodeId(1)]).unwrap();
        let h = b.build().unwrap();
        let spec = TreeSpec::new(vec![(4, 2, 1.0), (8, 2, 1.0)]).unwrap();
        let p = construct_partition(&h, &spec, &unit_metric(&h), &mut StdRng::seed_from_u64(0))
            .unwrap();
        assert_eq!(p.leaves().len(), 1);
        assert_eq!(cost::partition_cost(&h, &spec, &p), 0.0);
        validate::validate(&h, &spec, &p).unwrap();
    }

    #[test]
    fn produces_valid_partitions_at_every_seed() {
        let mut rng = StdRng::seed_from_u64(42);
        let inst = clustered_hypergraph(ClusteredParams::default(), &mut rng);
        let h = &inst.hypergraph;
        let spec = TreeSpec::full_tree(h.total_size(), 3, 2, 1.2, 1.0).unwrap();
        for seed in 0..10 {
            let p =
                construct_partition(h, &spec, &unit_metric(h), &mut StdRng::seed_from_u64(seed))
                    .unwrap();
            validate::validate(h, &spec, &p).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn good_metric_recovers_the_planted_hierarchy() {
        // Two clusters; inter-cluster nets priced high. The constructed
        // level-1 cut should cost exactly the planted inter nets.
        let mut rng = StdRng::seed_from_u64(3);
        let params = ClusteredParams {
            clusters: 2,
            cluster_size: 8,
            intra_nets: 48,
            inter_nets: 3,
            min_net_size: 2,
            max_net_size: 2,
        };
        let inst = clustered_hypergraph(params, &mut rng);
        let h = &inst.hypergraph;
        let spec = TreeSpec::new(vec![(8, 2, 1.0), (16, 2, 1.0)]).unwrap();
        let lengths: Vec<f64> = h
            .nets()
            .map(|e| {
                let pins = h.net_pins(e);
                if pins
                    .iter()
                    .any(|v| inst.cluster_of[v.index()] != inst.cluster_of[pins[0].index()])
                {
                    10.0
                } else {
                    0.1
                }
            })
            .collect();
        let metric = SpreadingMetric::from_lengths(lengths);
        let p = construct_partition(h, &spec, &metric, &mut StdRng::seed_from_u64(1)).unwrap();
        validate::validate(h, &spec, &p).unwrap();
        // Cost = span 2 × 3 inter nets × w_0 = 6 if the clusters are found.
        assert_eq!(cost::partition_cost(h, &spec, &p), 6.0);
    }

    #[test]
    fn infeasible_total_size_is_reported() {
        let h = HypergraphBuilder::with_unit_nodes(10).build().unwrap();
        let spec = TreeSpec::new(vec![(2, 2, 1.0), (4, 2, 1.0)]).unwrap();
        let err = construct_partition(&h, &spec, &unit_metric(&h), &mut StdRng::seed_from_u64(0))
            .unwrap_err();
        assert!(matches!(
            err,
            CoreError::Infeasible {
                total_size: 10,
                root_capacity: 4
            }
        ));
    }

    #[test]
    fn oversized_node_yields_no_feasible_cut() {
        let mut b = HypergraphBuilder::new();
        b.add_node(5); // bigger than C_0
        b.add_node(1);
        b.add_node(1);
        b.add_net(1.0, [NodeId(0), NodeId(1)]).unwrap();
        b.add_net(1.0, [NodeId(1), NodeId(2)]).unwrap();
        let h = b.build().unwrap();
        let spec = TreeSpec::new(vec![(3, 2, 1.0), (7, 2, 1.0)]).unwrap();
        let err = construct_partition(&h, &spec, &unit_metric(&h), &mut StdRng::seed_from_u64(0))
            .unwrap_err();
        assert!(
            matches!(err, CoreError::NoFeasibleCut { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn empty_netlist_is_rejected() {
        let h = HypergraphBuilder::new().build().unwrap();
        let spec = TreeSpec::new(vec![(2, 2, 1.0), (4, 2, 1.0)]).unwrap();
        let err = construct_partition(&h, &spec, &unit_metric(&h), &mut StdRng::seed_from_u64(0))
            .unwrap_err();
        assert_eq!(err, CoreError::EmptyNetlist);
    }

    #[test]
    fn cancelled_budget_yields_interrupted() {
        let mut rng = StdRng::seed_from_u64(42);
        let inst = clustered_hypergraph(ClusteredParams::default(), &mut rng);
        let h = &inst.hypergraph;
        let spec = TreeSpec::full_tree(h.total_size(), 3, 2, 1.2, 1.0).unwrap();
        let budget = Budget::unlimited();
        budget.cancel_token().cancel();
        let err = construct_partition_budgeted(
            h,
            &spec,
            &unit_metric(h),
            &mut StdRng::seed_from_u64(0),
            &budget,
            None,
        )
        .unwrap_err();
        assert_eq!(
            err,
            CoreError::Interrupted(crate::Interrupt::Cancelled),
            "got {err:?}"
        );
    }

    #[test]
    fn unlimited_budget_matches_the_plain_call() {
        let mut rng = StdRng::seed_from_u64(42);
        let inst = clustered_hypergraph(ClusteredParams::default(), &mut rng);
        let h = &inst.hypergraph;
        let spec = TreeSpec::full_tree(h.total_size(), 3, 2, 1.2, 1.0).unwrap();
        let p1 =
            construct_partition(h, &spec, &unit_metric(h), &mut StdRng::seed_from_u64(6)).unwrap();
        let (p2, report) = construct_partition_budgeted(
            h,
            &spec,
            &unit_metric(h),
            &mut StdRng::seed_from_u64(6),
            &Budget::unlimited(),
            None,
        )
        .unwrap();
        assert_eq!(p1, p2);
        assert_eq!(report, SalvageReport::default());
    }

    #[test]
    fn salvage_with_no_edits_replays_every_subtree() {
        let mut rng = StdRng::seed_from_u64(42);
        let inst = clustered_hypergraph(ClusteredParams::default(), &mut rng);
        let h = &inst.hypergraph;
        let spec = TreeSpec::full_tree(h.total_size(), 3, 2, 1.2, 1.0).unwrap();
        let m = unit_metric(h);
        let prior = construct_partition(h, &spec, &m, &mut StdRng::seed_from_u64(9)).unwrap();
        let node_map: Vec<Option<NodeId>> = h.nodes().map(Some).collect();
        let touched = vec![false; h.num_nodes()];
        let (p, report) = construct_partition_budgeted(
            h,
            &spec,
            &m,
            &mut StdRng::seed_from_u64(9),
            &Budget::unlimited(),
            Some(&Prior {
                partition: &prior,
                node_map: &node_map,
                touched: &touched,
            }),
        )
        .unwrap();
        validate::validate(h, &spec, &p).unwrap();
        assert_eq!(report.accepted, report.candidates, "report: {report:?}");
        assert_eq!(report.salvaged_nodes, h.num_nodes());
        assert_eq!(
            cost::partition_cost(h, &spec, &p),
            cost::partition_cost(h, &spec, &prior),
            "a full replay must reproduce the prior cost"
        );
    }

    #[test]
    fn salvage_recarves_only_the_touched_subtree() {
        let mut rng = StdRng::seed_from_u64(42);
        let inst = clustered_hypergraph(ClusteredParams::default(), &mut rng);
        let h = &inst.hypergraph;
        let spec = TreeSpec::full_tree(h.total_size(), 3, 2, 1.2, 1.0).unwrap();
        let m = unit_metric(h);
        let prior = construct_partition(h, &spec, &m, &mut StdRng::seed_from_u64(9)).unwrap();
        let node_map: Vec<Option<NodeId>> = h.nodes().map(Some).collect();
        let mut touched = vec![false; h.num_nodes()];
        touched[0] = true;
        let (p, report) = construct_partition_budgeted(
            h,
            &spec,
            &m,
            &mut StdRng::seed_from_u64(9),
            &Budget::unlimited(),
            Some(&Prior {
                partition: &prior,
                node_map: &node_map,
                touched: &touched,
            }),
        )
        .unwrap();
        validate::validate(h, &spec, &p).unwrap();
        assert_eq!(report.rejected_touched, 1, "report: {report:?}");
        assert_eq!(report.accepted, report.candidates - 1);
        assert!(report.salvaged_nodes < h.num_nodes());
        assert!(report.salvaged_nodes > 0);
    }

    #[test]
    fn salvage_falls_back_cleanly_when_the_prior_tree_is_too_shallow() {
        // Prior partition built for a 4-node instance (top level 1) cannot
        // donate subtrees to a spec whose top level is higher.
        let mut b = HypergraphBuilder::with_unit_nodes(8);
        for i in 0..7u32 {
            b.add_net(1.0, [NodeId(i), NodeId(i + 1)]).unwrap();
        }
        let h = b.build().unwrap();
        let spec = TreeSpec::new(vec![(2, 2, 1.0), (4, 2, 1.0), (8, 2, 1.0)]).unwrap();
        let m = unit_metric(&h);
        // A prior tree whose root sits at level 1 (wrong depth for top=2).
        let shallow = HierarchicalPartition::full_kary(1, 8, &[0, 1, 2, 3, 4, 5, 6, 7]).unwrap();
        let node_map: Vec<Option<NodeId>> = h.nodes().map(Some).collect();
        let touched = vec![false; h.num_nodes()];
        let (p, report) = construct_partition_budgeted(
            &h,
            &spec,
            &m,
            &mut StdRng::seed_from_u64(1),
            &Budget::unlimited(),
            Some(&Prior {
                partition: &shallow,
                node_map: &node_map,
                touched: &touched,
            }),
        )
        .unwrap();
        validate::validate(&h, &spec, &p).unwrap();
        assert_eq!(report, SalvageReport::default());
    }

    #[test]
    fn disconnected_netlists_are_partitioned() {
        // Two components of 4; binary tree of height 2 with C_0 = 2.
        let mut b = HypergraphBuilder::with_unit_nodes(8);
        for base in [0u32, 4] {
            for i in 0..3 {
                b.add_net(1.0, [NodeId(base + i), NodeId(base + i + 1)])
                    .unwrap();
            }
        }
        let h = b.build().unwrap();
        let spec = TreeSpec::new(vec![(2, 2, 1.0), (4, 2, 1.0), (8, 2, 1.0)]).unwrap();
        let p = construct_partition(&h, &spec, &unit_metric(&h), &mut StdRng::seed_from_u64(7))
            .unwrap();
        validate::validate(&h, &spec, &p).unwrap();
    }
}
