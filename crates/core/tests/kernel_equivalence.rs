//! Differential kernel-equivalence suite: the CSR probe kernel must give
//! the same answer under either frontier, and that answer must agree with
//! the clean-room Dijkstra and spreading bound of `htp-verify`, which
//! shares no code with `htp-core`'s kernel.
//!
//! Three layers of lockdown:
//!
//! 1. **Settle sequences** — the `(node, dist, via_net, parent)` stream of
//!    the CSR grower under the heap frontier equals the one under the
//!    dial frontier, and every settled distance is bit-equal to
//!    `htp_verify::audit::shortest_distances_csr`, on every conformance
//!    family and on proptest-generated hypergraphs (single-pin nets routed
//!    through `add_net_lenient`, duplicate nets, zero-length nets).
//! 2. **Probe reports** — for *both* prefix orders, the heap and dial
//!    probes return Debug-equal `ProbeReport`s (nets, weights and `f64`
//!    sums included), and every violating tree is re-audited: its `lhs`
//!    re-summed from the `htp-verify` distances in report order, its
//!    bound recomputed by `htp_verify::audit::spreading_bound`, and its
//!    net weights re-pricing the `lhs`.
//! 3. **Full pipeline** — `FlowPartitioner` digests are identical at 1, 2,
//!    4, and 8 probe threads crossed with forced-heap and forced-dial
//!    frontiers, including the mixed-size (weighted-order) star family.
//!
//! Both probes stop clear probes early, and the weighted-order probe
//! scans its prefixes while the tree grows, so each is also pinned against
//! a reference that grows the full tree and scans every prefix in its
//! order: violations (and their `min_rel_slack`) must be Debug-equal,
//! clear reports clear. `check_feasibility`, which shares the
//! distance-order exit, is pinned against a full scan of every prefix.
//!
//! `f64` equality throughout is exact (`==` / `assert_eq!` on the raw
//! values, debug-formatted reports for the nested structs) — "close
//! enough" would defeat the purpose of pinning the kernels together. The
//! one exception is the net-weight re-pricing, which sums the same terms
//! in a different order.

use htp_core::constraint::{
    check_feasibility, probe_source_csr, probe_source_weighted_csr, CsrProbeScratch, ProbeReport,
    ViolatingTree,
};
use htp_core::injector::{compute_spreading_metric, FlowParams, FrontierMode};
use htp_core::partitioner::{FlowPartitioner, PartitionerParams};
use htp_core::sptree::{CsrGrowerScratch, TreeStep};
use htp_core::SpreadingMetric;
use htp_graph::{dial_plan_forced, DialQueue, Frontier, IndexedMinHeap};
use htp_model::{gfn, TreeSpec};
use htp_netlist::gen::rent::{rent_circuit, RentParams};
use htp_netlist::{CsrHypergraph, Hypergraph, HypergraphBuilder, NetId, NodeId};
use htp_verify::audit::{shortest_distances_csr, spreading_bound, DistanceScratch};
use htp_verify::gen::all_families;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Seed shared with the conformance harness.
const SEED: u64 = 1997;

/// A settled node as a plain comparable record.
type Step = (u32, f64, Option<u32>, Option<u32>);

fn rec(s: TreeStep) -> Step {
    (
        s.node.0,
        s.dist,
        s.via_net.map(|e| e.0),
        s.parent.map(|v| v.0),
    )
}

/// Deterministic, quantized-ish positive lengths: a small set of distinct
/// values so the dial queue gets real multi-key buckets and real ties.
fn synthetic_lengths(nets: usize) -> Vec<f64> {
    (0..nets)
        .map(|e| 0.125 * ((e * 17) % 13 + 1) as f64)
        .collect()
}

fn csr_steps<F: Frontier>(csr: &CsrHypergraph, frontier: &mut F, source: u32) -> Vec<Step> {
    let mut g = CsrGrowerScratch::new(csr);
    g.start(csr, frontier, source);
    let mut out = Vec::new();
    while let Some(s) = g.step(csr, frontier) {
        out.push(rec(s));
    }
    out
}

/// The clean-room single-source distances of `htp-verify`.
fn oracle_distances(csr: &CsrHypergraph, source: u32) -> Vec<f64> {
    let mut dist = Vec::new();
    shortest_distances_csr(csr, source, &mut DistanceScratch::default(), &mut dist);
    dist
}

/// Asserts the heap and dial growers settle the identical sequence from
/// `source`, and that it settles exactly the oracle's reachable set at
/// the oracle's distances, bit for bit.
fn assert_kernels_agree(h: &Hypergraph, lengths: &[f64], source: usize, what: &str) {
    let csr = CsrHypergraph::with_lengths(h, lengths);
    let mut heap = IndexedMinHeap::new(h.num_nodes());
    let by_heap = csr_steps(&csr, &mut heap, source as u32);

    let (width, buckets) = dial_plan_forced(csr.lengths(), 4096);
    let mut dial = DialQueue::new(h.num_nodes(), width, buckets);
    let by_dial = csr_steps(&csr, &mut dial, source as u32);
    assert_eq!(by_dial, by_heap, "{what}: dial vs heap, source {source}");

    let want = oracle_distances(&csr, source as u32);
    let reachable = want.iter().filter(|d| d.is_finite()).count();
    assert_eq!(
        by_heap.len(),
        reachable,
        "{what}: settled set, source {source}"
    );
    for &(v, dist, _, _) in &by_heap {
        assert_eq!(
            dist.to_bits(),
            want[v as usize].to_bits(),
            "{what}: distance of node {v} from {source}"
        );
    }
}

#[test]
fn settle_sequences_agree_on_every_conformance_family() {
    for inst in all_families(SEED) {
        let h = &inst.hypergraph;
        let lengths = synthetic_lengths(h.num_nets());
        for source in [0, h.num_nodes() / 2, h.num_nodes() - 1] {
            assert_kernels_agree(h, &lengths, source, inst.family);
        }
    }
}

/// Re-audits a probe's violating tree, if any, against `htp-verify`.
fn audit_report(
    csr: &CsrHypergraph,
    spec: &TreeSpec,
    metric: &SpreadingMetric,
    report: &ProbeReport,
) -> Result<(), String> {
    let Some(t) = &report.violation else {
        return Ok(());
    };
    let dist = oracle_distances(csr, t.source.0);
    let mut lhs = 0.0;
    let mut size = 0u64;
    for v in &t.nodes {
        lhs += dist[v.index()] * csr.node_size(v.0) as f64;
        size += csr.node_size(v.0);
    }
    if t.nodes.first() != Some(&t.source) || size != t.size {
        return Err(format!("tree of {:?} lists the wrong nodes", t.source));
    }
    if lhs.to_bits() != t.lhs.to_bits() {
        return Err(format!("{:?}: lhs {} vs oracle {lhs}", t.source, t.lhs));
    }
    if t.bound != spreading_bound(spec, t.size) {
        return Err(format!("{:?}: bound {} vs oracle", t.source, t.bound));
    }
    if (t.repriced_lhs(metric) - t.lhs).abs() > 1e-9 * t.lhs.max(1.0) {
        return Err(format!(
            "{:?}: repriced lhs {} vs {}",
            t.source,
            t.repriced_lhs(metric),
            t.lhs
        ));
    }
    Ok(())
}

/// A probe entry point of `htp_core::constraint`.
type Probe = fn(&CsrHypergraph, &TreeSpec, NodeId, f64, &mut CsrProbeScratch, bool) -> ProbeReport;

/// A full-grow reference for a [`Probe`].
type FullGrow = fn(&CsrHypergraph, &TreeSpec, NodeId, f64) -> ProbeReport;

/// Probes every source in both prefix orders with both frontiers: the
/// heap and dial reports must be Debug-equal (Debug formatting
/// round-trips every distinct `f64` to a distinct string, so this is
/// bit-equality of all the sums), and every violation must pass the
/// oracle audit.
fn probe_all_sources(
    h: &Hypergraph,
    spec: &TreeSpec,
    lengths: &[f64],
    tolerance: f64,
) -> Result<(), String> {
    let orders: [(&str, Probe); 2] = [
        ("distance", probe_source_csr),
        ("weighted", probe_source_weighted_csr),
    ];
    let metric = SpreadingMetric::from_lengths(lengths.to_vec());
    let csr = CsrHypergraph::with_lengths(h, lengths);
    let mut scratch = CsrProbeScratch::new(&csr);
    let (width, buckets) = dial_plan_forced(csr.lengths(), 4096);
    scratch.plan_dial(width, buckets);
    for v in h.nodes() {
        for (order, probe) in orders {
            let heap = probe(&csr, spec, v, tolerance, &mut scratch, false);
            let dial = probe(&csr, spec, v, tolerance, &mut scratch, true);
            if format!("{heap:?}") != format!("{dial:?}") {
                return Err(format!("{order} probe of {v:?}: heap and dial differ"));
            }
            audit_report(&csr, spec, &metric, &heap).map_err(|e| format!("{order}: {e}"))?;
        }
    }
    Ok(())
}

#[test]
fn probe_reports_agree_on_every_conformance_family() {
    for inst in all_families(SEED) {
        let h = &inst.hypergraph;
        let lengths = synthetic_lengths(h.num_nets());
        if let Err(e) = probe_all_sources(h, &inst.spec, &lengths, 1e-9) {
            panic!("{}: {e}", inst.family);
        }
    }
}

/// Every node reachable from `source`, in settle order (heap frontier),
/// with each node's settle index.
fn full_grow(csr: &CsrHypergraph, source: NodeId) -> (Vec<TreeStep>, Vec<usize>) {
    let mut grower = CsrGrowerScratch::new(csr);
    let mut heap = IndexedMinHeap::new(csr.num_nodes());
    grower.start(csr, &mut heap, source.0);
    let steps: Vec<TreeStep> = std::iter::from_fn(|| grower.step(csr, &mut heap)).collect();
    let mut index_of = vec![usize::MAX; csr.num_nodes()];
    for (i, s) in steps.iter().enumerate() {
        index_of[s.node.index()] = i;
    }
    (steps, index_of)
}

/// Subtree weights `W(e)` of `nets`: `weight[i]` starts as the member size
/// of `steps[i]` (0 for connectors and unscanned nodes) and accumulates
/// bottom-up, in reverse settle order, onto the net each node was reached
/// through.
fn reference_net_weights(
    csr: &CsrHypergraph,
    steps: &[TreeStep],
    index_of: &[usize],
    mut weight: Vec<f64>,
    nets: &[NetId],
) -> Vec<f64> {
    let mut per_net = vec![0.0f64; csr.num_nets()];
    for i in (1..steps.len()).rev() {
        if weight[i] == 0.0 {
            continue;
        }
        if let (Some(e), Some(p)) = (steps[i].via_net, steps[i].parent) {
            per_net[e.index()] += weight[i];
            weight[index_of[p.index()]] += weight[i];
        }
    }
    nets.iter().map(|e| per_net[e.index()]).collect()
}

/// The distance-order probe as a full grow: settle every reachable node,
/// then scan the prefixes in settle order and stop only at a violation or
/// at the end. This is the reference the probe, with its clear exit, must
/// reproduce.
fn full_grow_distance_probe(
    csr: &CsrHypergraph,
    spec: &TreeSpec,
    source: NodeId,
    tolerance: f64,
) -> ProbeReport {
    let (steps, index_of) = full_grow(csr, source);
    let mut net_in_tree = vec![false; csr.num_nets()];
    let mut nets: Vec<NetId> = Vec::new();
    let mut size = 0u64;
    let mut lhs = 0.0;
    let mut min_rel_slack = f64::INFINITY;
    for (k, step) in steps.iter().enumerate() {
        let s = csr.node_size(step.node.0);
        size += s;
        lhs += step.dist * s as f64;
        if let Some(e) = step.via_net {
            if !net_in_tree[e.index()] {
                nets.push(e);
                net_in_tree[e.index()] = true;
            }
        }
        let bound = gfn::spreading_bound(spec, size);
        if lhs + tolerance < bound {
            let prefix = &steps[..=k];
            let weight = prefix
                .iter()
                .map(|p| csr.node_size(p.node.0) as f64)
                .collect();
            let net_weights = reference_net_weights(csr, prefix, &index_of, weight, &nets);
            let tree = ViolatingTree {
                source,
                nodes: prefix.iter().map(|p| p.node).collect(),
                nets,
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
    }
    ProbeReport {
        violation: None,
        min_rel_slack,
    }
}

/// The weighted-order probe as a full grow: settle every reachable node,
/// stable-sort by `(dist + 1)·s(u)` (ties keep settle order), then scan
/// prefixes with the source first, relaying subtree weight through
/// connector nodes and stopping only at the `g(s(V))` exit. This is the
/// reference the incremental probe, with its release rule and early
/// exits, must reproduce.
fn full_grow_weighted_probe(
    csr: &CsrHypergraph,
    spec: &TreeSpec,
    source: NodeId,
    tolerance: f64,
) -> ProbeReport {
    let (steps, index_of) = full_grow(csr, source);
    let size_of = |i: usize| csr.node_size(steps[i].node.0);
    let key = |i: usize| (steps[i].dist + 1.0) * size_of(i) as f64;
    let mut order: Vec<usize> = (1..steps.len()).collect();
    order.sort_by(|&a, &b| key(a).total_cmp(&key(b)));

    let g_total = gfn::spreading_bound(spec, csr.total_size());
    let mut in_subtree = vec![false; steps.len()];
    in_subtree[0] = true;
    let mut member_weight = vec![0.0f64; steps.len()];
    member_weight[0] = size_of(0) as f64;
    let mut net_in_tree = vec![false; csr.num_nets()];
    let mut nets: Vec<NetId> = Vec::new();
    let mut nodes = vec![source];
    let mut size = size_of(0);
    let mut lhs = 0.0;
    let mut min_rel_slack = f64::INFINITY;
    let mut bound = gfn::spreading_bound(spec, size);
    let mut scanned = order.iter();
    loop {
        if lhs + tolerance < bound {
            let net_weights = reference_net_weights(csr, &steps, &index_of, member_weight, &nets);
            let tree = ViolatingTree {
                source,
                nodes,
                nets,
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
        if lhs + tolerance >= g_total {
            break;
        }
        let Some(&i) = scanned.next() else { break };
        nodes.push(steps[i].node);
        member_weight[i] = size_of(i) as f64;
        size += size_of(i);
        lhs += steps[i].dist * size_of(i) as f64;
        let mut cur = i;
        while !in_subtree[cur] {
            in_subtree[cur] = true;
            if let Some(e) = steps[cur].via_net {
                if !net_in_tree[e.index()] {
                    nets.push(e);
                    net_in_tree[e.index()] = true;
                }
            }
            match steps[cur].parent {
                Some(p) => cur = index_of[p.index()],
                None => break,
            }
        }
        bound = gfn::spreading_bound(spec, size);
    }
    ProbeReport {
        violation: None,
        min_rel_slack,
    }
}

/// Probes every source with `probe` under both frontiers, one scratch
/// reused throughout so each probe starts from the leftovers of an early
/// exit, and compares each report with the `full_grow` reference. Returns
/// how many sources violate.
fn probe_matches_full_grow(
    h: &Hypergraph,
    spec: &TreeSpec,
    lengths: &[f64],
    tolerance: f64,
    (probe, full_grow): (Probe, FullGrow),
) -> Result<usize, String> {
    let csr = CsrHypergraph::with_lengths(h, lengths);
    let mut scratch = CsrProbeScratch::new(&csr);
    let (width, buckets) = dial_plan_forced(csr.lengths(), 4096);
    scratch.plan_dial(width, buckets);
    let mut violated = 0;
    for v in h.nodes() {
        let want = full_grow(&csr, spec, v, tolerance);
        for use_dial in [false, true] {
            let got = probe(&csr, spec, v, tolerance, &mut scratch, use_dial);
            match (&got.violation, &want.violation) {
                (Some(g), Some(w)) => {
                    if format!("{g:?}") != format!("{w:?}") {
                        return Err(format!("{v:?}: tree {g:?} vs full grow {w:?}"));
                    }
                    if got.min_rel_slack.to_bits() != want.min_rel_slack.to_bits() {
                        return Err(format!(
                            "{v:?}: min_rel_slack {} vs full grow {}",
                            got.min_rel_slack, want.min_rel_slack
                        ));
                    }
                }
                (None, None) => {}
                (g, w) => return Err(format!("{v:?}: {g:?} vs full grow {w:?}")),
            }
        }
        violated += usize::from(want.violation.is_some());
    }
    Ok(violated)
}

const DISTANCE: (Probe, FullGrow) = (probe_source_csr, full_grow_distance_probe);
const WEIGHTED: (Probe, FullGrow) = (probe_source_weighted_csr, full_grow_weighted_probe);

/// `check_feasibility`'s worst shortfall and its source as a full scan:
/// every distance-order prefix of every source's full grow, no early exit.
fn full_scan_worst_shortfall(csr: &CsrHypergraph, spec: &TreeSpec) -> (f64, Option<NodeId>) {
    let mut worst = (0.0, None);
    for v in (0..csr.num_nodes()).map(NodeId::new) {
        let (steps, _) = full_grow(csr, v);
        let (mut size, mut lhs) = (0u64, 0.0);
        let mut source_worst: Option<f64> = None;
        for step in &steps {
            size += csr.node_size(step.node.0);
            lhs += step.dist * csr.node_size(step.node.0) as f64;
            let shortfall = gfn::spreading_bound(spec, size) - lhs;
            if shortfall > 0.0 && source_worst.is_none_or(|w| shortfall > w) {
                source_worst = Some(shortfall);
            }
        }
        if let Some(t) = source_worst.filter(|&t| t > worst.0) {
            worst = (t, Some(v));
        }
    }
    worst
}

/// Compares `check_feasibility` with [`full_scan_worst_shortfall`]: the
/// worst shortfall bit for bit, and its source.
fn feasibility_matches_full_scan(
    h: &Hypergraph,
    spec: &TreeSpec,
    lengths: &[f64],
) -> Result<(), String> {
    let report = check_feasibility(
        h,
        spec,
        &SpreadingMetric::from_lengths(lengths.to_vec()),
        0.0,
    );
    let want = full_scan_worst_shortfall(&CsrHypergraph::with_lengths(h, lengths), spec);
    if (report.worst_shortfall.to_bits(), report.worst_source) != (want.0.to_bits(), want.1) {
        return Err(format!(
            "worst shortfall {} at {:?} vs full scan {} at {:?}",
            report.worst_shortfall, report.worst_source, want.0, want.1
        ));
    }
    Ok(())
}

#[test]
fn distance_probe_matches_the_full_grow_on_every_conformance_family() {
    for inst in all_families(SEED) {
        let h = &inst.hypergraph;
        let lengths = synthetic_lengths(h.num_nets());
        if let Err(e) = probe_matches_full_grow(h, &inst.spec, &lengths, 1e-9, DISTANCE) {
            panic!("{}: {e}", inst.family);
        }
        if let Err(e) = feasibility_matches_full_scan(h, &inst.spec, &lengths) {
            panic!("{}: {e}", inst.family);
        }
    }
}

#[test]
fn weighted_probe_matches_the_full_grow_on_every_conformance_family() {
    for inst in all_families(SEED) {
        let h = &inst.hypergraph;
        let lengths = synthetic_lengths(h.num_nets());
        if let Err(e) = probe_matches_full_grow(h, &inst.spec, &lengths, 1e-9, WEIGHTED) {
            panic!("{}: {e}", inst.family);
        }
    }
}

/// The 2000-node Rent netlist both rent tests below probe.
fn rent_2000() -> Hypergraph {
    rent_circuit(
        RentParams {
            nodes: 2000,
            primary_inputs: 125,
            locality: 0.8,
            ..RentParams::default()
        },
        &mut StdRng::seed_from_u64(SEED),
    )
}

/// Probes every source of `h` with `probe` at the injector's initial `ε`
/// lengths, at its converged lengths (two threads) and at half of those,
/// checking each against its full grow: at least nine tenths of the
/// sources must violate at `ε`, none at the converged lengths, and some
/// at half of those. Solver seed 5 converges to a metric whose halving
/// leaves many sources violated, so both probe outcomes stay in play.
/// Returns the spec and the three length vectors.
fn probe_matches_full_grow_at_three_lengths(
    h: &Hypergraph,
    probe: (Probe, FullGrow),
) -> (TreeSpec, [Vec<f64>; 3]) {
    let spec = TreeSpec::full_tree(h.total_size(), 4, 2, 1.1, 1.0).expect("spec is valid");
    let params = FlowParams {
        threads: 2,
        ..FlowParams::default()
    };
    let (metric, stats) = compute_spreading_metric(h, &spec, params, &mut StdRng::seed_from_u64(5));
    assert!(stats.converged);
    let epsilon: Vec<f64> = h
        .nets()
        .map(|e| (params.alpha * params.epsilon / h.net_capacity(e)).exp() - 1.0)
        .collect();
    let converged = metric.lengths().to_vec();
    let half: Vec<f64> = converged.iter().map(|d| d / 2.0).collect();
    let lengths = [epsilon, converged, half];
    let n = h.num_nodes();
    for ((what, lengths), expect) in ["epsilon", "converged", "half"]
        .into_iter()
        .zip(&lengths)
        .zip([n * 9 / 10..n + 1, 0..1, 1..n])
    {
        match probe_matches_full_grow(h, &spec, lengths, params.tolerance, probe) {
            Ok(violated) => assert!(
                expect.contains(&violated),
                "{what}: {violated} of {n} sources violate, expected {expect:?}"
            ),
            Err(e) => panic!("{what} lengths: {e}"),
        }
    }
    (spec, lengths)
}

/// The unit-size netlist, probed in distance order: nearly every source
/// violates at `ε` (1965), none at the converged lengths, and a third at
/// half of those (659). `check_feasibility` must match its full scan at
/// all three.
#[test]
fn distance_probe_matches_the_full_grow_on_a_unit_size_rent_netlist() {
    let h = rent_2000();
    let (spec, lengths) = probe_matches_full_grow_at_three_lengths(&h, DISTANCE);
    for lengths in &lengths {
        if let Err(e) = feasibility_matches_full_scan(&h, &spec, lengths) {
            panic!("{e}");
        }
    }
}

/// The same netlist with every 7th node of size 2 (the ECO benchmark's
/// mixed sizes), probed in weighted order: nearly every source violates
/// at `ε` (1965), none at the converged lengths, and some at half of those
/// (213).
#[test]
fn weighted_probe_matches_the_full_grow_on_a_mixed_size_rent_netlist() {
    let rent = rent_2000();
    let sizes: Vec<u64> = rent
        .nodes()
        .map(|v| if v.index() % 7 == 0 { 2 } else { 1 })
        .collect();
    let nets: Vec<(f64, Vec<usize>)> = rent
        .nets()
        .map(|e| {
            let pins = rent.net_pins(e).iter().map(|v| v.index()).collect();
            (rent.net_capacity(e), pins)
        })
        .collect();
    probe_matches_full_grow_at_three_lengths(&build_lenient(&sizes, &nets), WEIGHTED);
}

/// FNV-1a, as in the conformance harness.
fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Digest of (cost, per-node leaf rank), stable under vertex renumbering.
fn digest(h: &Hypergraph, r: &htp_core::partitioner::FlowResult) -> u64 {
    let leaves = r.partition.leaves();
    let rank_of = |v| {
        leaves
            .iter()
            .position(|&l| l == r.partition.leaf_of(v))
            .expect("every node maps to a leaf") as u64
    };
    let mut acc = fnv1a(0xcbf2_9ce4_8422_2325, &r.cost.to_bits().to_le_bytes());
    for v in h.nodes() {
        acc = fnv1a(acc, &rank_of(v).to_le_bytes());
    }
    acc
}

#[test]
fn full_pipeline_digests_are_identical_across_threads_and_frontiers() {
    // Four families keep the 8-way matrix fast in debug; rent-like is the
    // workhorse, the others cover duplicate nets, zero-weight levels and
    // mixed node sizes (the weighted prefix order) end to end.
    for inst in all_families(SEED).into_iter().filter(|i| {
        matches!(
            i.family,
            "rent-like" | "zero-weight" | "duplicate-nets" | "star"
        )
    }) {
        let mut baseline = None;
        for threads in [1usize, 2, 4, 8] {
            for frontier in [FrontierMode::Heap, FrontierMode::Dial] {
                let params = PartitionerParams {
                    iterations: 2,
                    constructions_per_metric: 4,
                    flow: FlowParams {
                        threads,
                        frontier,
                        ..FlowParams::default()
                    },
                };
                let result = FlowPartitioner::try_new(params)
                    .expect("params are valid")
                    .run(
                        &inst.hypergraph,
                        &inst.spec,
                        &mut StdRng::seed_from_u64(SEED),
                    )
                    .expect("conformance families are solvable");
                let d = digest(&inst.hypergraph, &result);
                match baseline {
                    None => baseline = Some(d),
                    Some(want) => assert_eq!(
                        d, want,
                        "{}: digest diverged at threads={threads}, {frontier:?}",
                        inst.family
                    ),
                }
            }
        }
    }
}

/// Builds a hypergraph with the given node sizes from raw net
/// descriptors, routing every net through `add_net_lenient` so
/// single-pin (post-dedup) nets are legal input and simply dropped,
/// exactly like production ingestion.
fn build_lenient(sizes: &[u64], nets: &[(f64, Vec<usize>)]) -> Hypergraph {
    let mut b = HypergraphBuilder::new();
    for &s in sizes {
        b.add_node(s);
    }
    for (cap, pins) in nets {
        let mut pins: Vec<NodeId> = pins.iter().map(|&p| NodeId::new(p % sizes.len())).collect();
        pins.sort();
        pins.dedup();
        b.add_net_lenient(*cap, pins).expect("pins are in range");
    }
    b.build().expect("lenient nets always build")
}

/// Spec with a zero-weight middle level, exercised by every probe below.
fn zero_weight_spec() -> TreeSpec {
    TreeSpec::new(vec![(2, 2, 1.0), (8, 2, 0.0), (64, 4, 1.0)]).expect("spec is valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_hypergraphs_settle_identically(
        nodes in 2usize..24,
        nets in proptest::collection::vec(
            (0.1f64..4.0, proptest::collection::vec(0usize..24, 1..5)),
            0..32,
        ),
        base in 0.0f64..2.0,
        mult in 0.0f64..1.0,
        source in 0usize..24,
    ) {
        let h = build_lenient(&vec![1; nodes], &nets);
        // Quantized spectrum with occasional exact zeros and ties.
        let lengths: Vec<f64> = (0..h.num_nets())
            .map(|e| base + ((e * 7) % 5) as f64 * mult)
            .collect();
        assert_kernels_agree(&h, &lengths, source % nodes, "random");
    }

    #[test]
    fn random_mixed_size_hypergraphs_probe_identically(
        sizes in proptest::collection::vec(1u64..6, 2..20),
        nets in proptest::collection::vec(
            (0.1f64..4.0, proptest::collection::vec(0usize..20, 1..5)),
            0..24,
        ),
        base in 0.0f64..2.0,
        mult in 0.0f64..1.0,
    ) {
        let h = build_lenient(&sizes, &nets);
        let lengths: Vec<f64> = (0..h.num_nets())
            .map(|e| base + ((e * 3) % 4) as f64 * mult)
            .collect();
        let checked = probe_all_sources(&h, &zero_weight_spec(), &lengths, 1e-9);
        prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
        let pinned = probe_matches_full_grow(&h, &zero_weight_spec(), &lengths, 1e-9, WEIGHTED);
        prop_assert!(pinned.is_ok(), "{}", pinned.unwrap_err());
    }

    #[test]
    fn random_unit_size_hypergraphs_probe_like_the_full_grow(
        nodes in 2usize..24,
        nets in proptest::collection::vec(
            (0.1f64..4.0, proptest::collection::vec(0usize..24, 1..5)),
            0..32,
        ),
        base in 0.0f64..2.0,
        mult in 0.0f64..1.0,
    ) {
        let h = build_lenient(&vec![1; nodes], &nets);
        let lengths: Vec<f64> = (0..h.num_nets())
            .map(|e| base + ((e * 3) % 4) as f64 * mult)
            .collect();
        let full_tree =
            TreeSpec::full_tree(h.total_size(), 2, 2, 1.1, 1.0).expect("spec is valid");
        for spec in [zero_weight_spec(), full_tree] {
            let pinned = probe_matches_full_grow(&h, &spec, &lengths, 1e-9, DISTANCE);
            prop_assert!(pinned.is_ok(), "{}", pinned.unwrap_err());
            let scanned = feasibility_matches_full_scan(&h, &spec, &lengths);
            prop_assert!(scanned.is_ok(), "{}", scanned.unwrap_err());
        }
    }
}
