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
//! `f64` equality throughout is exact (`==` / `assert_eq!` on the raw
//! values, debug-formatted reports for the nested structs) — "close
//! enough" would defeat the purpose of pinning the kernels together. The
//! one exception is the net-weight re-pricing, which sums the same terms
//! in a different order.

use htp_core::constraint::{
    probe_source_csr, probe_source_weighted_csr, CsrProbeScratch, ProbeReport,
};
use htp_core::injector::{FlowParams, FrontierMode};
use htp_core::partitioner::{FlowPartitioner, PartitionerParams};
use htp_core::sptree::{CsrGrowerScratch, TreeStep};
use htp_core::SpreadingMetric;
use htp_graph::{dial_plan_forced, DialQueue, Frontier, IndexedMinHeap};
use htp_model::TreeSpec;
use htp_netlist::{CsrHypergraph, Hypergraph, HypergraphBuilder, NodeId};
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
    type Probe =
        fn(&CsrHypergraph, &TreeSpec, NodeId, f64, &mut CsrProbeScratch, bool) -> ProbeReport;
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
    }
}
