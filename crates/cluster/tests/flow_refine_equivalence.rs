//! Differential suite for the flow-refinement engine.
//!
//! `flow_refine_pass` proposes each pair's whole region-halving cascade
//! on the worker pool against the batch-start snapshot, builds every
//! Lawler gadget in reused per-worker buffers, and runs a Dinic BFS that
//! stops once it labels the sink. None of that may change a result: on
//! every input below it must return exactly what the pass it replaced
//! returns — the same partition, the same cost bits and the same report
//! counters — at every thread count. That pass, which ran the retries
//! inline in the commit phase, is kept verbatim with its max-flow in
//! `reference.rs`.
//!
//! The inputs cover what the cascade's exactness rests on: recorded
//! V-cycle levels (the pass's real inputs), a tight slack under which
//! most proposals fail the capacity check and cascades run to their end,
//! the smallest and the default region, and a gain gate that fires on
//! first proposals and on retries.

use htp_cluster::refine::{flow_refine_pass, FlowRefineParams, FlowRefineReport};
use htp_cluster::vcycle::{vcycle_partition, VCycleParams};
use htp_core::runtime::Budget;
use htp_model::{cost, HierarchicalPartition, TreeSpec};
use htp_netlist::gen::clustered::{clustered_hypergraph, ClusteredParams};
use htp_netlist::gen::rent::{rent_circuit, RentParams};
use htp_netlist::Hypergraph;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[path = "flow_refine_equivalence/reference.rs"]
mod reference;

/// Sums over the compared passes, so a test can show it is not vacuous.
#[derive(Debug, Default)]
struct Tally {
    pairs_tried: usize,
    pairs_accepted: usize,
    pairs_skipped: usize,
    gadgets: usize,
}

impl Tally {
    fn add(&mut self, r: &FlowRefineReport) {
        self.pairs_tried += r.pairs_tried;
        self.pairs_accepted += r.pairs_accepted;
        self.pairs_skipped += r.pairs_skipped;
        self.gadgets += r.gadgets;
    }

    /// Cascades ran (more gadgets than pairs) and something was accepted.
    fn assert_exercised(&self, label: &str) {
        assert!(
            self.gadgets > self.pairs_tried,
            "{label}: no cascade went past its first proposal: {self:?}"
        );
        assert!(
            self.pairs_accepted > 0,
            "{label}: nothing accepted: {self:?}"
        );
    }
}

/// Runs the reference pass once and the production pass at threads 1, 2,
/// 4 and 0, asserts every output matches to the bit, and returns the
/// production report.
fn assert_same(
    label: &str,
    h: &Hypergraph,
    spec: &TreeSpec,
    p: &HierarchicalPartition,
    params: FlowRefineParams,
    tally: &mut Tally,
) -> FlowRefineReport {
    let start = cost::partition_cost(h, spec, p);
    let unlimited = Budget::unlimited();
    let reference_params = reference::FlowRefineParams {
        max_pairs: params.max_pairs,
        max_region: params.max_region,
        max_span_for_pairs: params.max_span_for_pairs,
        min_gain: params.min_gain,
        threads: 1,
    };
    let (want_p, want_cost, want) =
        reference::flow_refine_pass(h, spec, p, start, &reference_params, &unlimited).unwrap();
    let mut first: Option<FlowRefineReport> = None;
    for threads in [1, 2, 4, 0] {
        let label = format!("{label} threads={threads}");
        let (got_p, got_cost, got) = flow_refine_pass(
            h,
            spec,
            p,
            start,
            &FlowRefineParams { threads, ..params },
            &unlimited,
        )
        .unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_eq!(got_p, want_p, "{label}: partition");
        assert_eq!(
            got_cost.to_bits(),
            want_cost.to_bits(),
            "{label}: cost {got_cost} vs {want_cost}"
        );
        assert_eq!(got.pairs_tried, want.pairs_tried, "{label}: pairs_tried");
        assert_eq!(
            got.pairs_accepted, want.pairs_accepted,
            "{label}: pairs_accepted"
        );
        assert_eq!(
            got.pairs_skipped, want.pairs_skipped,
            "{label}: pairs_skipped"
        );
        assert_eq!(
            got.skipped_gain_bound.to_bits(),
            want.skipped_gain_bound.to_bits(),
            "{label}: skipped_gain_bound"
        );
        assert_eq!(got.moved_nodes, want.moved_nodes, "{label}: moved_nodes");
        assert_eq!(got.gain.to_bits(), want.gain.to_bits(), "{label}: gain");
        assert_eq!(got.interrupt, want.interrupt, "{label}: interrupt");
        // The reference has no gadget count; the production count is a
        // pure function of the snapshots, so it must not vary either.
        let first = first.get_or_insert_with(|| {
            tally.add(&got);
            got
        });
        assert_eq!(got.gadgets, first.gadgets, "{label}: gadgets");
    }
    first.expect("at least one thread count ran")
}

/// The default pass and the smallest region that still retries, on one
/// level.
fn assert_same_regions(
    label: &str,
    h: &Hypergraph,
    spec: &TreeSpec,
    p: &HierarchicalPartition,
    tally: &mut Tally,
) {
    for max_region in [1500, 16] {
        let params = FlowRefineParams {
            max_region,
            ..FlowRefineParams::default()
        };
        assert_same(
            &format!("{label} max_region={max_region}"),
            h,
            spec,
            p,
            params,
            tally,
        );
    }
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

/// `clusters` clusters of `size` nodes with the repository benchmark's
/// net densities.
fn clustered(clusters: usize, size: usize, seed: u64) -> Hypergraph {
    let nodes = clusters * size;
    let mut rng = StdRng::seed_from_u64(seed);
    clustered_hypergraph(
        ClusteredParams {
            clusters,
            cluster_size: size,
            intra_nets: nodes * 5 / 2,
            inter_nets: nodes / 5,
            ..ClusteredParams::default()
        },
        &mut rng,
    )
    .hypergraph
}

/// The recorded clustered:20x100 level and its projected partition: the
/// flow pass's input at that level, as the V-cycle handed it over.
fn recorded_level() -> (Hypergraph, TreeSpec, HierarchicalPartition) {
    let h = htp_netlist::io::hgr::from_str(include_str!(
        "../../baselines/tests/data/vcycle_clustered20x100.hgr"
    ))
    .unwrap();
    let p = htp_model::io::from_str(include_str!(
        "../../baselines/tests/data/vcycle_clustered20x100.part"
    ))
    .unwrap();
    let spec = TreeSpec::full_tree(h.total_size(), 4, 2, 1.10, 1.0).unwrap();
    (h, spec, p)
}

/// Runs the benchmark's V-cycle (height 4, arity 2) at `slack` with
/// `record_levels`, and checks every level's projected partition — the
/// flow pass's input there — with `check(label, fine graph, spec,
/// projected)`. Returns the number of levels.
fn for_each_level(
    name: &str,
    h: &Hypergraph,
    slack: f64,
    seed: u64,
    mut check: impl FnMut(&str, &Hypergraph, &TreeSpec, &HierarchicalPartition),
) -> usize {
    let spec = TreeSpec::full_tree(h.total_size(), 4, 2, slack, 1.0).unwrap();
    let params = VCycleParams {
        record_levels: true,
        ..VCycleParams::default()
    };
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_5eed);
    let r = vcycle_partition(h, &spec, params, &mut rng).unwrap();
    let levels = r.level_partitions.len();
    for (j, (projected, _)) in r.level_partitions.iter().enumerate() {
        let fine = if j + 1 == levels {
            h
        } else {
            &r.coarse_graphs[levels - 2 - j]
        };
        assert_eq!(fine.num_nodes(), projected.num_nodes(), "{name}: level {j}");
        let label = format!(
            "{name} slack {slack} level {j} ({} nodes)",
            fine.num_nodes()
        );
        check(&label, fine, &spec, projected);
    }
    levels
}

// The gadget counts pinned on the recorded level below are what the
// cascade definition gives when applied to the reference pass's own
// proposals: at each pair's turn, propose at `max_region`, then at half
// the region while it is at least 8, until the first gated or empty
// proposal, and count the proposals that reach max-flow. The results
// cannot show speculation that runs too far: on these inputs no retry
// below a gated or empty one proposes a move. So these counts are the
// lock on where a cascade ends and where its retries start.

#[test]
fn recorded_vcycle_level_of_clustered_20x100() {
    let (h, spec, p) = recorded_level();
    assert_eq!(h.num_nodes(), 616);
    let mut tally = Tally::default();
    for (max_region, gadgets) in [(1500, 189), (16, 45)] {
        let params = FlowRefineParams {
            max_region,
            ..FlowRefineParams::default()
        };
        let label = format!("clustered:20x100 level max_region={max_region}");
        let report = assert_same(&label, &h, &spec, &p, params, &mut tally);
        assert_eq!(report.gadgets, gadgets, "{label}: gadgets");
    }
    tally.assert_exercised("clustered:20x100 level");
}

#[test]
fn every_vcycle_level_of_rent_3000() {
    let h = rent(3000, 1997);
    for slack in [1.10, 1.02] {
        let mut tally = Tally::default();
        let levels = for_each_level("rent:3000", &h, slack, 1997, |label, g, spec, p| {
            assert_same_regions(label, g, spec, p, &mut tally);
        });
        assert!(levels >= 2, "rent:3000 slack {slack}: {levels} levels");
        tally.assert_exercised(&format!("rent:3000 slack {slack}"));
    }
}

#[test]
fn every_vcycle_level_of_clustered_20x100() {
    let h = clustered(20, 100, 1997);
    for slack in [1.10, 1.02] {
        let mut tally = Tally::default();
        let levels = for_each_level("clustered:20x100", &h, slack, 1997, |label, g, spec, p| {
            assert_same_regions(label, g, spec, p, &mut tally);
        });
        assert!(
            levels >= 2,
            "clustered:20x100 slack {slack}: {levels} levels"
        );
        tally.assert_exercised(&format!("clustered:20x100 slack {slack}"));
    }
}

#[test]
fn gain_gate_fires_on_first_proposals_and_retries() {
    // On this level's merged capacities the first proposals' gain bounds
    // run from about 30 to 290, and retries at regions of 8 to 32 nodes
    // bound from about 15 to 96. Both gates skip some pairs outright and
    // end some cascades at a retry; at 50 a pair is still accepted.
    let (h, spec, p) = recorded_level();
    let mut tally = Tally::default();
    for (min_gain, max_region, gadgets) in [
        (50.0, 1500, 137),
        (50.0, 64, 60),
        (100.0, 1500, 70),
        (100.0, 64, 25),
    ] {
        let params = FlowRefineParams {
            max_region,
            min_gain,
            ..FlowRefineParams::default()
        };
        let label = format!("clustered:20x100 level min_gain={min_gain} max_region={max_region}");
        let report = assert_same(&label, &h, &spec, &p, params, &mut tally);
        assert_eq!(report.gadgets, gadgets, "{label}: gadgets");
    }
    assert!(tally.pairs_skipped > 0, "the gate never fired: {tally:?}");
    assert!(
        tally.pairs_tried > 0,
        "the gate skipped everything: {tally:?}"
    );
    tally.assert_exercised("gated clustered:20x100 level");
}
