//! The parallel flow-refinement pass must be bit-identical at every
//! thread count.
//!
//! The proposal phase runs on a scoped worker pool, but proposals are
//! pure functions of the batch-start snapshot, land in index-addressed
//! slots, and commit sequentially in ranked order — so the refined
//! partition, its cost bits, and every per-level counter (the speculative
//! gadget count included) must not depend on how many workers computed
//! the proposals. This is the contract that
//! lets `HTP_THREADS` scale the V-cycle without forking the conformance
//! goldens.

use htp_cluster::congestion::CongestionParams;
use htp_cluster::vcycle::{vcycle_partition, VCycleParams};
use htp_core::partitioner::PartitionerParams;
use htp_model::TreeSpec;
use htp_netlist::gen::rent::{rent_circuit, RentParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The flow pass's counters at one level, with its float fields as bits.
#[derive(Debug, PartialEq)]
struct LevelDigest {
    pairs_tried: usize,
    pairs_accepted: usize,
    pairs_skipped: usize,
    gadgets: usize,
    moved_nodes: usize,
    skipped_gain_bound: u64,
    refined_cost: u64,
}

/// A compact, total digest of one run: every leaf assignment, the exact
/// cost bits, and the per-level refinement counters.
#[derive(Debug, PartialEq)]
struct RunDigest {
    leaves: Vec<usize>,
    cost: u64,
    levels: Vec<LevelDigest>,
}

fn run_digest(threads: usize) -> RunDigest {
    let mut rng = StdRng::seed_from_u64(1997);
    let h = rent_circuit(
        RentParams {
            nodes: 1500,
            primary_inputs: 1500 / 16,
            locality: 0.8,
            ..RentParams::default()
        },
        &mut rng,
    );
    let spec = TreeSpec::full_tree(h.total_size(), 3, 2, 1.15, 1.0).unwrap();
    let mut params = VCycleParams {
        coarsest_nodes: 96,
        congestion: CongestionParams {
            pairs: 32,
            ..CongestionParams::default()
        },
        partitioner: PartitionerParams {
            iterations: 1,
            ..PartitionerParams::default()
        },
        ..VCycleParams::default()
    };
    params.refine.threads = threads;

    let mut run_rng = StdRng::seed_from_u64(42);
    let r = vcycle_partition(&h, &spec, params, &mut run_rng).unwrap();
    let leaves: Vec<usize> = h.nodes().map(|v| r.partition.leaf_of(v).index()).collect();
    let levels = r
        .levels
        .iter()
        .map(|l| LevelDigest {
            pairs_tried: l.flow_pairs_tried,
            pairs_accepted: l.flow_pairs_accepted,
            pairs_skipped: l.flow_pairs_skipped,
            gadgets: l.flow_gadgets,
            moved_nodes: l.flow_moved_nodes,
            skipped_gain_bound: l.flow_skipped_gain_bound.to_bits(),
            refined_cost: l.refined_cost.to_bits(),
        })
        .collect();
    RunDigest {
        leaves,
        cost: r.cost.to_bits(),
        levels,
    }
}

#[test]
fn refinement_is_bit_identical_at_every_thread_count() {
    let baseline = run_digest(1);
    // The single-threaded run must actually refine something, or the
    // equality below is vacuous.
    assert!(
        baseline.levels.iter().any(|l| l.gadgets > 0),
        "workload never reached the max-flow stage: {:?}",
        baseline.levels
    );
    for threads in [2, 4, 8, 0] {
        let run = run_digest(threads);
        assert_eq!(
            run, baseline,
            "threads={threads} diverged from the single-threaded run"
        );
    }
}
