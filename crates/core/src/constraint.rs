//! The spreading-constraint oracle.
//!
//! Constraint (5) of the paper: for every node `v` and every prefix size
//! `k`, the shortest-path tree `S(v, k)` must satisfy
//! `Σ_{u ∈ S(v,k)} dist(v, u)·s(u) >= g(s(S(v, k)))`. Checking these
//! `O(n²)` constraints is equivalent to checking constraint (3) over all
//! subsets (Claim 4 of Even et al.), so this oracle is both the separation
//! routine of Algorithm 2 and the feasibility test behind Lemma 1/2.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use htp_graph::{DialQueue, Frontier, IndexedMinHeap};
use htp_model::{gfn, TreeSpec};
use htp_netlist::{CsrHypergraph, Hypergraph, NetId, NodeId};

use crate::sptree::{CsrGrowerScratch, TreeStep};
use crate::SpreadingMetric;

/// A shortest-path tree whose spreading constraint is violated.
#[derive(Clone, Debug)]
pub struct ViolatingTree {
    /// The source node `v` the tree was grown from.
    pub source: NodeId,
    /// The settled nodes of `S(v, k)`, in distance order (source first).
    pub nodes: Vec<NodeId>,
    /// The distinct nets forming the tree (flow is injected on these).
    pub nets: Vec<NetId>,
    /// Subtree weight `W(e)` per entry of [`nets`](ViolatingTree::nets):
    /// the total size of tree nodes whose source-path crosses `e`. The
    /// tree's left-hand side decomposes as `lhs = Σ_e d(e)·W(e)`, which is
    /// what lets [`repriced_lhs`](ViolatingTree::repriced_lhs) re-evaluate
    /// the constraint under an updated metric without re-running Dijkstra.
    pub net_weights: Vec<f64>,
    /// Total node size `s(S(v, k))`.
    pub size: u64,
    /// The violated left-hand side `Σ dist(v, u)·s(u)`.
    pub lhs: f64,
    /// The bound `g(s(S(v, k)))` it fell short of.
    pub bound: f64,
}

impl ViolatingTree {
    /// Re-prices the tree's left-hand side under `metric`, routing every
    /// tree node along the path it was found on: `Σ_e d(e)·W(e)`.
    ///
    /// Shortest-path distances under `metric` can only be smaller than
    /// these fixed-path distances, so the returned value is an *upper
    /// bound* on the true `lhs` of the tree's node set. In particular, if
    /// it still falls short of [`bound`](ViolatingTree::bound), the set is
    /// certifiably still violated — the soundness condition behind the
    /// parallel injector's speculative commits.
    pub fn repriced_lhs(&self, metric: &SpreadingMetric) -> f64 {
        self.nets
            .iter()
            .zip(&self.net_weights)
            .map(|(&e, &w)| metric.length(e) * w)
            .sum()
    }

    /// Whether the tree's constraint is still violated (beyond
    /// `tolerance`) when re-priced under `metric`; see
    /// [`repriced_lhs`](ViolatingTree::repriced_lhs) for why `true` is a
    /// sound certificate.
    pub fn still_violated(&self, metric: &SpreadingMetric, tolerance: f64) -> bool {
        self.repriced_lhs(metric) + tolerance < self.bound
    }
}

/// Reusable buffers for the violation oracle: a [`CsrGrowerScratch`],
/// *both* frontier implementations, and the probe-level bookkeeping
/// (settle order, tree nets, subtree-weight accumulators, and the weighted
/// order's pending heap and scanned prefix). One scratch per
/// worker thread turns a probe into an allocation-free operation whose
/// reset cost is proportional to the *touched* region of the previous
/// probe only. Carrying the heap and the dial side by side lets the
/// injector switch kernels per round (the quantization probe re-plans as
/// the length spectrum evolves) without ever allocating; the unused
/// frontier is just idle capacity.
#[derive(Debug)]
pub struct CsrProbeScratch {
    heap: IndexedMinHeap,
    dial: DialQueue,
    buf: ProbeBuffers,
}

/// The frontier-independent part of a [`CsrProbeScratch`], a separate
/// struct so a probe can borrow it alongside one of the frontiers.
#[derive(Debug)]
struct ProbeBuffers {
    grower: CsrGrowerScratch,
    /// Settle-order index per node (`usize::MAX` when not in `steps`).
    index_of: Vec<usize>,
    /// Whether a net is already recorded in `nets`.
    net_in_tree: Vec<bool>,
    /// Per-net subtree-weight accumulator (zeroed outside `nets`).
    per_net: Vec<f64>,
    /// Settled steps of the current probe, in settle order.
    steps: Vec<TreeStep>,
    /// Distinct nets of the current tree, in first-use order.
    nets: Vec<NetId>,
    /// Weighted order only: settled but not yet scanned nodes, a min-heap
    /// on (`(dist + 1)·s(u)` as `f64` bits, settle index); the source is
    /// keyed 0 so it always leads.
    pending: BinaryHeap<Reverse<(u64, usize)>>,
    /// Weighted order only, per settle index: whether the step is in the
    /// injection subtree (a member or a connector on a member's path).
    in_subtree: Vec<bool>,
    /// Weighted order only, per settle index: the member size, 0 for
    /// connectors and unscanned nodes.
    member_weight: Vec<f64>,
    /// Weighted order only: the scanned prefix, in scan order.
    nodes: Vec<NodeId>,
}

impl CsrProbeScratch {
    /// Buffers sized for `csr`.
    pub fn new(csr: &CsrHypergraph) -> Self {
        CsrProbeScratch {
            heap: IndexedMinHeap::new(csr.num_nodes()),
            dial: DialQueue::new(csr.num_nodes(), 1.0, 1),
            buf: ProbeBuffers {
                grower: CsrGrowerScratch::new(csr),
                index_of: vec![usize::MAX; csr.num_nodes()],
                net_in_tree: vec![false; csr.num_nets()],
                per_net: vec![0.0; csr.num_nets()],
                steps: Vec::new(),
                nets: Vec::new(),
                pending: BinaryHeap::new(),
                in_subtree: Vec::new(),
                member_weight: Vec::new(),
                nodes: Vec::new(),
            },
        }
    }

    /// Re-parameterises the dial frontier for a new length spectrum (one
    /// call per worker per round when the dial kernel is selected).
    pub fn plan_dial(&mut self, width: f64, buckets: usize) {
        self.dial.reconfigure(width, buckets);
    }
}

impl ProbeBuffers {
    /// Restores the pristine state in `O(touched)`. Called on probe entry,
    /// so a probe that panicked or exited early self-heals on the next use
    /// — steps and nets are pushed *before* their slot markers are written,
    /// which makes the touched lists a complete record of every dirty slot.
    fn reset(&mut self) {
        for s in &self.steps {
            self.index_of[s.node.index()] = usize::MAX;
        }
        self.steps.clear();
        for e in &self.nets {
            self.net_in_tree[e.index()] = false;
            self.per_net[e.index()] = 0.0;
        }
        self.nets.clear();
        self.pending.clear();
        self.in_subtree.clear();
        self.member_weight.clear();
        self.nodes.clear();
    }
}

/// What a single probe of one source learned.
#[derive(Clone, Debug)]
pub struct ProbeReport {
    /// The first violated prefix, if any.
    pub violation: Option<ViolatingTree>,
    /// Minimum relative slack `(lhs − g) / g` over the prefixes scanned
    /// before the probe stopped, counting those with a positive bound
    /// (violated prefixes excluded). `f64::INFINITY` when no such prefix
    /// was seen — every scanned bound was zero, or the very first prefix
    /// violated. A clear probe may stop at an early exit, so on a clear
    /// report the value covers only the prefixes before that exit. The
    /// injector reads it only from violated reports, keying the adaptive
    /// scheduler's re-probe backoff on it.
    pub min_rel_slack: f64,
}

/// Computes the subtree weights `W(e)` of a grown tree: `steps` in settle
/// order (so every parent precedes its children), `weight[i]` initialized
/// to the member size of `steps[i]` (zero for pure connectors and for
/// settled nodes outside the tree). Weights accumulate bottom-up, in place;
/// each node deposits its accumulated weight on the net it was reached
/// through. `per_net` must be zeroed on entry; it is re-zeroed before
/// returning (every deposit lands on a net in `nets`).
fn subtree_net_weights(
    steps: &[TreeStep],
    index_of: impl Fn(NodeId) -> usize,
    weight: &mut [f64],
    nets: &[NetId],
    per_net: &mut [f64],
) -> Vec<f64> {
    for i in (1..steps.len()).rev() {
        if weight[i] == 0.0 {
            continue;
        }
        if let (Some(e), Some(p)) = (steps[i].via_net, steps[i].parent) {
            per_net[e.index()] += weight[i];
            weight[index_of(p)] += weight[i];
        }
    }
    let out = nets.iter().map(|e| per_net[e.index()]).collect();
    for e in nets {
        per_net[e.index()] = 0.0;
    }
    out
}

/// The largest slope `g` can attain on `[0, total]`:
/// `2 · Σ_{l : C_l < total} w_l`. Together with convexity this bounds
/// `g(x) − g(k) <= max_slope · (x − k)` for `k <= x <= total`.
fn max_bound_slope(spec: &TreeSpec, total: u64) -> f64 {
    2.0 * (0..spec.root_level())
        .filter(|&l| spec.capacity(l) < total)
        .map(|l| spec.weight(l))
        .sum::<f64>()
}

/// Grows shortest-path trees from `source` over the flat CSR view (whose
/// length slab holds the metric) and reports the first prefix whose
/// spreading constraint is violated by more than `tolerance` (absolute),
/// or no violation if every prefix up to the full reachable set satisfies
/// its constraint. This is Steps 2.1.1–2.1.3 of Algorithm 2, and the hot
/// entry point of its probe workers, which keep one [`CsrProbeScratch`]
/// per thread across thousands of probes.
///
/// `use_dial` selects the frontier: the caller (the injector's per-round
/// quantization probe) must have sized the dial via
/// [`CsrProbeScratch::plan_dial`] first. The monomorphised frontier is the
/// only difference between the two paths, and the frontier contract makes
/// that difference unobservable.
///
/// The grow loop exits early once *no* future prefix can violate, by two
/// sound bounds (each prefix's `lhs` only grows as the tree grows, while
/// `g` is fixed and convex):
///
/// * once `lhs + tolerance >= g(s(V))`, no bound `g(x) <= g(s(V))` can
///   ever exceed a future `lhs`;
/// * once the settled distance reaches the largest slope of `g` while the
///   current prefix is satisfied, every future prefix gains `lhs` at least
///   as fast as `g` can grow (`lhs_x − lhs_k >= d_k·(x−k) >=
///   max_slope·(x−k) >= g(x) − g(k)`, using Dijkstra's non-decreasing
///   settle distances and convexity of `g`).
///
/// Both exits report no violation exactly when the full grow would have.
///
/// # Panics
///
/// Panics if `scratch` was built for a hypergraph of a different shape
/// or `source` is out of range.
pub fn probe_source_csr(
    csr: &CsrHypergraph,
    spec: &TreeSpec,
    source: NodeId,
    tolerance: f64,
    scratch: &mut CsrProbeScratch,
    use_dial: bool,
) -> ProbeReport {
    let CsrProbeScratch { heap, dial, buf } = scratch;
    buf.reset();
    if use_dial {
        probe_csr_inner(csr, spec, source, tolerance, buf, dial)
    } else {
        probe_csr_inner(csr, spec, source, tolerance, buf, heap)
    }
}

/// [`probe_source_csr`] under the paper's non-unit-size ordering: prefixes
/// are taken by increasing *weighted* distance `(dist(v, u) + 1)·s(u)`
/// (Section 3.1) rather than raw distance, which is the correct reading of
/// "k closest nodes" when node sizes differ. Ties keep settle order.
///
/// The prefixes are scanned while the shortest-path tree grows. Each
/// settled node waits in a pending heap until the settle distance `D`
/// proves that no unsettled node can precede it: settle distances never
/// decrease and rounded `+` and `×` are monotone, so no unsettled key is
/// below `(D + 1)·s_min`, and later settles take larger tie-break indices.
/// Pending nodes keyed at or below that are scanned in key order, the rest
/// once the frontier empties, so the scan is exactly the stable sort of the
/// full tree by weighted distance.
///
/// A clear probe stops early once no later prefix can violate. Each later
/// prefix adds pending nodes (distance `>= 0`) and then unsettled ones
/// (distance `>= D`), so with the scanned prefix of size `k` satisfied,
/// `S_p` the pending size and `g` fixed and convex, three sound exits apply:
///
/// * *slope exit*, after a settle: `D >= max_slope` and
///   `lhs + tolerance − g(k) >= max_slope · S_near`, where `S_near` is the
///   size of the pending nodes closer than `max_slope` — the distance-order
///   exit of [`probe_source_csr`], charged for the near nodes not yet
///   scanned;
/// * *convex exit*, after a settle: `lhs + tolerance >= max(g(k + S_p),
///   g(s(V)) − D·(s(V) − k − S_p))`, the two ends of the range where the
///   worst later prefix of a convex `g` must sit;
/// * after each scanned prefix: `lhs + tolerance >= g(s(V))`.
///
/// An exit only ends a probe the full grow would have reported clear, so
/// every violation, with its `min_rel_slack`, equals the full grow's. The
/// frontier is selected exactly as in [`probe_source_csr`]; since every
/// frontier settles the identical sequence, the report is
/// frontier-independent.
///
/// # Panics
///
/// As [`probe_source_csr`].
pub fn probe_source_weighted_csr(
    csr: &CsrHypergraph,
    spec: &TreeSpec,
    source: NodeId,
    tolerance: f64,
    scratch: &mut CsrProbeScratch,
    use_dial: bool,
) -> ProbeReport {
    let CsrProbeScratch { heap, dial, buf } = scratch;
    buf.reset();
    if use_dial {
        probe_weighted_inner(csr, spec, source, tolerance, buf, dial)
    } else {
        probe_weighted_inner(csr, spec, source, tolerance, buf, heap)
    }
}

/// The distance-order probe loop of [`probe_source_csr`] over any
/// [`Frontier`].
fn probe_csr_inner<F: Frontier>(
    csr: &CsrHypergraph,
    spec: &TreeSpec,
    source: NodeId,
    tolerance: f64,
    buf: &mut ProbeBuffers,
    frontier: &mut F,
) -> ProbeReport {
    let g_total = gfn::spreading_bound(spec, csr.total_size());
    let max_slope = max_bound_slope(spec, csr.total_size());
    let ProbeBuffers {
        grower,
        index_of,
        net_in_tree,
        per_net,
        steps,
        nets,
        ..
    } = buf;
    let mut size = 0u64;
    let mut lhs = 0.0;
    let mut min_rel_slack = f64::INFINITY;
    grower.start(csr, frontier, source.0);
    while let Some(step) = grower.step(csr, frontier) {
        steps.push(step);
        index_of[step.node.index()] = steps.len() - 1;
        size += csr.node_size(step.node.0);
        lhs += step.dist * csr.node_size(step.node.0) as f64;
        if let Some(e) = step.via_net {
            if !net_in_tree[e.index()] {
                nets.push(e);
                net_in_tree[e.index()] = true;
            }
        }
        let bound = gfn::spreading_bound(spec, size);
        if lhs + tolerance < bound {
            let mut weight: Vec<f64> = steps
                .iter()
                .map(|s| csr.node_size(s.node.0) as f64)
                .collect();
            let net_weights =
                subtree_net_weights(steps, |v| index_of[v.index()], &mut weight, nets, per_net);
            let nodes = steps.iter().map(|s| s.node).collect();
            let tree = ViolatingTree {
                source,
                nodes,
                nets: nets.clone(),
                net_weights,
                size,
                lhs,
                bound,
            };
            return ProbeReport {
                violation: Some(tree),
                min_rel_slack,
            };
        }
        if bound > 0.0 {
            min_rel_slack = min_rel_slack.min((lhs - bound) / bound);
        }
        // Early exits: every remaining prefix is provably satisfied.
        if lhs + tolerance >= g_total || step.dist >= max_slope {
            break;
        }
    }
    ProbeReport {
        violation: None,
        min_rel_slack,
    }
}

/// The weighted-order probe loop of [`probe_source_weighted_csr`] over any
/// [`Frontier`]: grow the tree, release settled nodes into the scan in
/// `(dist + 1)·s(u)` order, and connect each scanned member to the subtree
/// along its shortest-path parents so the injection tree stays connected.
fn probe_weighted_inner<F: Frontier>(
    csr: &CsrHypergraph,
    spec: &TreeSpec,
    source: NodeId,
    tolerance: f64,
    buf: &mut ProbeBuffers,
    frontier: &mut F,
) -> ProbeReport {
    let total = csr.total_size();
    let g_total = gfn::spreading_bound(spec, total);
    let max_slope = max_bound_slope(spec, total);
    let s_min = csr.min_node_size() as f64;
    let ProbeBuffers {
        grower,
        index_of,
        net_in_tree,
        per_net,
        steps,
        nets,
        pending,
        in_subtree,
        member_weight,
        nodes,
    } = buf;
    let size_of = |v: NodeId| csr.node_size(v.0);
    let mut size = 0u64;
    let mut lhs = 0.0;
    let mut min_rel_slack = f64::INFINITY;
    // Total size of the pending nodes, and of those closer than `max_slope`.
    let mut pending_size = 0u64;
    let mut near_size = 0u64;
    grower.start(csr, frontier, source.0);
    loop {
        let settled = grower.step(csr, frontier);
        // Every pending key up to `release` precedes every unsettled node.
        let release = match settled {
            Some(step) => {
                let i = steps.len();
                steps.push(step);
                index_of[step.node.index()] = i;
                in_subtree.push(false);
                member_weight.push(0.0);
                let s = size_of(step.node);
                // The source settles first and leads every prefix, whatever
                // its weighted distance.
                let key = if i == 0 {
                    0.0
                } else {
                    (step.dist + 1.0) * s as f64
                };
                pending.push(Reverse((key.to_bits(), i)));
                pending_size += s;
                if step.dist < max_slope {
                    near_size += s;
                }
                (step.dist + 1.0) * s_min
            }
            None => f64::INFINITY,
        };
        while let Some(&Reverse((key, i))) = pending.peek() {
            if f64::from_bits(key) > release {
                break;
            }
            pending.pop();
            let step = steps[i];
            let s = size_of(step.node);
            pending_size -= s;
            if step.dist < max_slope {
                near_size -= s;
            }
            nodes.push(step.node);
            member_weight[i] = s as f64;
            size += s;
            lhs += step.dist * s as f64;
            // Connect the member to the already-built subtree along its SPT
            // path, recording every net on the way.
            let mut cur = i;
            while !in_subtree[cur] {
                in_subtree[cur] = true;
                let hop = &steps[cur];
                if let Some(e) = hop.via_net {
                    if !net_in_tree[e.index()] {
                        nets.push(e);
                        net_in_tree[e.index()] = true;
                    }
                }
                match hop.parent {
                    Some(p) => cur = index_of[p.index()],
                    None => break,
                }
            }
            let bound = gfn::spreading_bound(spec, size);
            if lhs + tolerance < bound {
                let net_weights = subtree_net_weights(
                    steps,
                    |v| index_of[v.index()],
                    member_weight,
                    nets,
                    per_net,
                );
                let tree = ViolatingTree {
                    source,
                    nodes: nodes.clone(),
                    nets: nets.clone(),
                    net_weights,
                    size,
                    lhs,
                    bound,
                };
                debug_assert!(
                    {
                        let repriced: f64 = (tree.nets.iter().zip(&tree.net_weights))
                            .map(|(e, w)| csr.net_len(e.0) * w)
                            .sum();
                        (repriced - lhs).abs() <= 1e-6 * lhs.max(1.0)
                    },
                    "net weights must reconstruct the lhs {lhs}"
                );
                return ProbeReport {
                    violation: Some(tree),
                    min_rel_slack,
                };
            }
            if bound > 0.0 {
                min_rel_slack = min_rel_slack.min((lhs - bound) / bound);
            }
            if lhs + tolerance >= g_total {
                return ProbeReport {
                    violation: None,
                    min_rel_slack,
                };
            }
        }
        let Some(step) = settled else { break };
        // Early exits: every later prefix is provably satisfied.
        let d = step.dist;
        let with_pending = size + pending_size;
        let slope_exit = d >= max_slope
            && lhs + tolerance - gfn::spreading_bound(spec, size) >= max_slope * near_size as f64;
        let convex_exit = lhs + tolerance
            >= gfn::spreading_bound(spec, with_pending)
                .max(g_total - d * (total - with_pending) as f64);
        if slope_exit || convex_exit {
            break;
        }
    }
    ProbeReport {
        violation: None,
        min_rel_slack,
    }
}

/// Outcome of a full feasibility scan of a metric.
#[derive(Clone, Debug)]
pub struct FeasibilityReport {
    /// `true` when no constraint is violated beyond the tolerance.
    pub feasible: bool,
    /// The largest shortfall `g − lhs` observed (0 when feasible).
    pub worst_shortfall: f64,
    /// Source node of the worst constraint, if any shortfall exists.
    pub worst_source: Option<NodeId>,
}

/// Checks the spreading constraints of (P1) from every source against
/// `metric`, over the *distance-order* prefixes `S(v, k)` of
/// [`probe_source_csr`]. For mixed node sizes this is not the weighted
/// `(dist + 1)·s(u)` prefix family that Algorithm 2 enforces through
/// [`probe_source_weighted_csr`], so a metric that family accepts can
/// still show a shortfall here. `O(n · (n + p) log n)`; intended for
/// validation and the LP machinery, not for inner loops.
pub fn check_feasibility(
    h: &Hypergraph,
    spec: &TreeSpec,
    metric: &SpreadingMetric,
    tolerance: f64,
) -> FeasibilityReport {
    let mut worst_shortfall = 0.0;
    let mut worst_source = None;
    let csr = CsrHypergraph::with_lengths(h, metric.lengths());
    let mut grower = CsrGrowerScratch::new(&csr);
    let mut heap = IndexedMinHeap::new(csr.num_nodes());
    for v in h.nodes() {
        if let Some(t) = find_worst_shortfall(&csr, spec, v, &mut grower, &mut heap) {
            if t > worst_shortfall {
                worst_shortfall = t;
                worst_source = Some(v);
            }
        }
    }
    FeasibilityReport {
        feasible: worst_shortfall <= tolerance,
        worst_shortfall,
        worst_source,
    }
}

/// Largest `g − lhs` over all prefixes from `v`, or `None` if none positive.
///
/// Uses the same sound early exits as [`probe_source_csr`] (with zero
/// tolerance): once no future prefix can have a positive shortfall, the
/// remaining grow cannot change the maximum.
fn find_worst_shortfall(
    csr: &CsrHypergraph,
    spec: &TreeSpec,
    v: NodeId,
    grower: &mut CsrGrowerScratch,
    heap: &mut IndexedMinHeap,
) -> Option<f64> {
    let g_total = gfn::spreading_bound(spec, csr.total_size());
    let max_slope = max_bound_slope(spec, csr.total_size());
    let mut size = 0u64;
    let mut lhs = 0.0;
    let mut worst: Option<f64> = None;
    grower.start(csr, heap, v.0);
    while let Some(step) = grower.step(csr, heap) {
        size += csr.node_size(step.node.0);
        lhs += step.dist * csr.node_size(step.node.0) as f64;
        let shortfall = gfn::spreading_bound(spec, size) - lhs;
        if shortfall > 0.0 && worst.is_none_or(|w| shortfall > w) {
            worst = Some(shortfall);
        }
        if lhs >= g_total || (shortfall <= 0.0 && step.dist >= max_slope) {
            break;
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use htp_netlist::HypergraphBuilder;

    /// One probe of `source` in the given prefix order, heap frontier.
    fn probe(
        h: &Hypergraph,
        spec: &TreeSpec,
        m: &SpreadingMetric,
        source: NodeId,
        weighted: bool,
    ) -> Option<ViolatingTree> {
        let csr = CsrHypergraph::with_lengths(h, m.lengths());
        let mut scratch = CsrProbeScratch::new(&csr);
        let probe = if weighted {
            probe_source_weighted_csr
        } else {
            probe_source_csr
        };
        probe(&csr, spec, source, 1e-9, &mut scratch, false).violation
    }

    /// Path of 4 unit nodes, spec C_0 = 2, C_1 = 4, w = 1.
    fn fixture() -> (Hypergraph, TreeSpec) {
        let mut b = HypergraphBuilder::with_unit_nodes(4);
        for i in 0..3u32 {
            b.add_net(1.0, [NodeId(i), NodeId(i + 1)]).unwrap();
        }
        (
            b.build().unwrap(),
            TreeSpec::new(vec![(2, 2, 1.0), (4, 2, 1.0)]).unwrap(),
        )
    }

    #[test]
    fn zero_metric_violates_immediately() {
        let (h, spec) = fixture();
        let m = SpreadingMetric::zeros(h.num_nets());
        let t = probe(&h, &spec, &m, NodeId(0), false).expect("must violate");
        // At zero lengths the third settled node pushes size to 3 > C_0
        // with lhs = 0 < g(3) = 2.
        assert_eq!(t.size, 3);
        assert_eq!(t.lhs, 0.0);
        assert_eq!(t.bound, 2.0);
        assert_eq!(t.nodes.len(), 3);
        assert!(!t.nets.is_empty(), "violating tree has nets to inject on");
    }

    #[test]
    fn partition_induced_metric_is_feasible() {
        use htp_model::HierarchicalPartition;
        let (h, spec) = fixture();
        let p = HierarchicalPartition::from_leaf_assignment(1, &[0, 0, 1, 1]).unwrap();
        let m = SpreadingMetric::from_partition(&h, &spec, &p);
        for v in h.nodes() {
            assert!(probe(&h, &spec, &m, v, false).is_none(), "source {v}");
        }
        let report = check_feasibility(&h, &spec, &m, 1e-9);
        assert!(report.feasible);
        assert_eq!(report.worst_shortfall, 0.0);
    }

    #[test]
    fn infeasibility_reports_the_shortfall() {
        let (h, spec) = fixture();
        let m = SpreadingMetric::zeros(h.num_nets());
        let report = check_feasibility(&h, &spec, &m, 1e-9);
        assert!(!report.feasible);
        // Worst prefix is the full graph: g(4) = 2·(4−2) = 4, lhs = 0.
        assert_eq!(report.worst_shortfall, 4.0);
        assert!(report.worst_source.is_some());
    }

    #[test]
    fn tolerance_forgives_tiny_shortfalls() {
        let (h, spec) = fixture();
        // Slightly under the feasible metric: d = 2 - 1e-12 on the cut net.
        let m = SpreadingMetric::from_lengths(vec![0.0, 2.0 - 1e-12, 0.0]);
        assert!(check_feasibility(&h, &spec, &m, 1e-9).feasible);
        assert!(!check_feasibility(&h, &spec, &m, 1e-15).feasible);
    }

    #[test]
    fn weighted_order_matches_distance_order_on_unit_sizes() {
        let (h, spec) = fixture();
        let m = SpreadingMetric::zeros(h.num_nets());
        for v in h.nodes() {
            let a = probe(&h, &spec, &m, v, false);
            let b = probe(&h, &spec, &m, v, true);
            match (a, b) {
                (Some(x), Some(y)) => {
                    assert_eq!(x.size, y.size, "source {v}");
                    assert_eq!(x.bound, y.bound, "source {v}");
                }
                (None, None) => {}
                other => panic!("source {v}: disagreement {other:?}"),
            }
        }
    }

    #[test]
    fn weighted_order_prefers_small_nodes() {
        // Source 0 (size 1); neighbours: node 1 at distance 1 with size 10,
        // node 2 at distance 0.5 with size 1. Weighted keys: (1+1)*10 = 20
        // vs (0.5+1)*1 = 1.5, so the weighted prefix takes node 2 first,
        // and {0, 2} already violates: lhs = 0.5 < g(2) = 2.
        let mut b = HypergraphBuilder::new();
        b.add_node(1);
        b.add_node(10);
        b.add_node(1);
        b.add_net(1.0, [NodeId(0), NodeId(1)]).unwrap();
        b.add_net(2.0, [NodeId(0), NodeId(2)]).unwrap();
        let h = b.build().unwrap();
        let spec = TreeSpec::new(vec![(1, 2, 1.0), (12, 2, 1.0)]).unwrap();
        let m = SpreadingMetric::from_lengths(vec![1.0, 0.5]);
        let t = probe(&h, &spec, &m, NodeId(0), true).expect("size 2 > C_0 = 1 with small lhs");
        assert_eq!(t.nodes, vec![NodeId(0), NodeId(2)]);
        assert_eq!(t.size, 2);
    }

    #[test]
    fn weighted_tree_connects_through_intermediate_nodes() {
        // Path 0 - 1 - 2 where node 1 is huge: the weighted order reaches
        // node 2 before node 1, so the injection tree must still include
        // both nets of the path to stay connected.
        let mut b = HypergraphBuilder::new();
        b.add_node(1);
        b.add_node(50);
        b.add_node(1);
        b.add_net(1.0, [NodeId(0), NodeId(1)]).unwrap();
        b.add_net(1.0, [NodeId(1), NodeId(2)]).unwrap();
        let h = b.build().unwrap();
        let spec = TreeSpec::new(vec![(1, 2, 1.0), (52, 2, 1.0)]).unwrap();
        let m = SpreadingMetric::from_lengths(vec![0.01, 0.01]);
        let t = probe(&h, &spec, &m, NodeId(0), true).expect("violated");
        assert_eq!(t.nodes, vec![NodeId(0), NodeId(2)]);
        assert_eq!(t.nets.len(), 2, "both path nets are needed: {:?}", t.nets);
    }

    /// Builds a hypergraph from node sizes and `(length, pins)` nets, then
    /// probes `source` in weighted order (heap frontier). Returns the
    /// violation with the number of nodes the probe settled and scanned.
    fn weighted_probe_counts(
        sizes: &[u64],
        nets: &[(f64, &[u32])],
        spec: &TreeSpec,
    ) -> (Option<ViolatingTree>, usize, usize) {
        let mut b = HypergraphBuilder::new();
        for &s in sizes {
            b.add_node(s);
        }
        for (_, pins) in nets {
            b.add_net(1.0, pins.iter().map(|&v| NodeId(v))).unwrap();
        }
        let lengths: Vec<f64> = nets.iter().map(|&(d, _)| d).collect();
        let csr = CsrHypergraph::with_lengths(&b.build().unwrap(), &lengths);
        let mut scratch = CsrProbeScratch::new(&csr);
        let report = probe_source_weighted_csr(&csr, spec, NodeId(0), 1e-9, &mut scratch, false);
        (
            report.violation,
            scratch.buf.steps.len(),
            scratch.buf.nodes.len(),
        )
    }

    #[test]
    fn weighted_slope_exit_stops_a_clear_probe() {
        // g(x) = 2·[0.5·(x−1)⁺ + 2·(x−3)⁺], so max_slope = 5 on s(V) = 5.
        // Node 1 (size 2) settles at D = 5 but stays pending (key 12 > 6).
        // The slope exit fires there: D >= 5 and no pending node is nearer
        // than 5. The convex exit cannot: g(k + S_p) = g(3) = 2 > lhs = 0.
        let spec = TreeSpec::new(vec![(1, 2, 0.5), (3, 2, 2.0), (16, 2, 1.0)]).unwrap();
        let (violation, settled, scanned) =
            weighted_probe_counts(&[1, 2, 1, 1], &[(5.0, &[0, 1, 2]), (15.0, &[2, 3])], &spec);
        assert!(violation.is_none());
        assert_eq!((settled, scanned), (2, 1), "4 nodes are reachable");
    }

    #[test]
    fn weighted_convex_exit_stops_a_clear_probe() {
        // Same g, now on s(V) = 7: g(7) = 22 and max_slope = 5. Node 1
        // settles at D = 4 and is scanned at once: k = 2, lhs = 4 >= g(2).
        // Every later node lies at distance >= 4, so a later prefix of
        // size x has lhs >= 4 + 4·(x − 2), and by convexity g(x) − 4·(x − 2)
        // peaks at an end of [2, 7]: max(g(2), 22 − 4·5) = 2 <= lhs. The
        // convex exit fires; the slope exit needs D >= 5, and g(s(V)) is
        // far above lhs.
        let spec = TreeSpec::new(vec![(1, 2, 0.5), (3, 2, 2.0), (16, 2, 1.0)]).unwrap();
        let (violation, settled, scanned) = weighted_probe_counts(
            &[1, 1, 1, 1, 1, 2],
            &[(4.0, &[0, 1]), (4.0, &[1, 2, 3, 4, 5])],
            &spec,
        );
        assert!(violation.is_none());
        assert_eq!((settled, scanned), (2, 2), "6 nodes are reachable");
    }

    #[test]
    fn weighted_total_bound_exit_stops_a_clear_probe() {
        // g(x) = 2·[0.1·(x−2)⁺ + (x−6)⁺], so g(s(V) = 7) = 3 and
        // max_slope = 2.2. Nodes 1 and 2 (size 2, key 5) settle at 1.5 and
        // wait; node 3 settles at 4 and releases all three (keys 5). The
        // first of them lifts lhs to 3 = g(s(V)), which ends the probe
        // mid-release. Before that, D = 1.5 is below max_slope and the
        // convex bounds g(3) = 0.2 and g(5) = 0.6 exceed lhs = 0.
        let spec = TreeSpec::new(vec![(2, 2, 0.1), (6, 2, 1.0), (16, 2, 1.0)]).unwrap();
        let (violation, settled, scanned) = weighted_probe_counts(
            &[1, 2, 2, 1, 1],
            &[(1.5, &[0, 1, 2]), (4.0, &[0, 3]), (10.0, &[3, 4])],
            &spec,
        );
        assert!(violation.is_none());
        assert_eq!((settled, scanned), (4, 2), "5 nodes are reachable");
    }

    #[test]
    fn oversized_single_node_violates_with_no_nets() {
        let mut b = HypergraphBuilder::new();
        b.add_node(5);
        b.add_node(1);
        b.add_net(1.0, [NodeId(0), NodeId(1)]).unwrap();
        let h = b.build().unwrap();
        let spec = TreeSpec::new(vec![(2, 2, 1.0), (8, 2, 1.0)]).unwrap();
        let m = SpreadingMetric::from_lengths(vec![100.0]);
        let t = probe(&h, &spec, &m, NodeId(0), false).expect("node too big");
        assert!(
            t.nets.is_empty(),
            "no nets to inject on: instance is infeasible"
        );
        assert_eq!(t.size, 5);
    }
}
