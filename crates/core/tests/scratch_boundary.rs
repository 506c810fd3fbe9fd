use htp_core::injector::{compute_spreading_metric_budgeted, FlowParams};
use htp_core::partitioner::{FlowPartitioner, PartitionerParams};
use htp_core::runtime::Budget;
use htp_model::TreeSpec;
use htp_netlist::gen::clustered::{clustered_hypergraph, ClusteredParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn exact_round_budget_boundary() {
    let mut rng = StdRng::seed_from_u64(8);
    let inst = clustered_hypergraph(ClusteredParams::default(), &mut rng);
    let h = &inst.hypergraph;
    let spec = TreeSpec::full_tree(h.total_size(), 2, 2, 1.2, 1.0).unwrap();
    // Natural round count of the first metric:
    let (_, stats) = compute_spreading_metric_budgeted(
        h,
        &spec,
        FlowParams::default(),
        &mut StdRng::seed_from_u64(23),
        &Budget::unlimited(),
        None,
    );
    let natural = stats.rounds as u64;
    println!(
        "natural rounds = {natural}, converged = {}",
        stats.converged
    );
    // Budget with exactly that many rounds: the metric fits the budget.
    let budget = Budget::unlimited().with_max_rounds(natural);
    let part = FlowPartitioner::try_new(PartitionerParams {
        iterations: 1,
        constructions_per_metric: 1,
        flow: FlowParams::default(),
    })
    .unwrap();
    let run = part.run_with_budget(h, &spec, &mut StdRng::seed_from_u64(23), &budget);
    match &run {
        Ok(r) => println!("OK outcome={:?}", r.outcome),
        Err(e) => println!("ERR: {e}"),
    }
    // A metric that converged within budget should yield a partition.
    assert!(run.is_ok(), "converged-in-budget run returned an error");
}
