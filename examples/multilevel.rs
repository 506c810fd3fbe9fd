//! Multilevel partitioning: flow-injection clustering as a coarsening
//! stage in front of the FLOW partitioner.
//!
//! The paper's reference \[17\] (Yeh, Cheng & Lin) used stochastic flow
//! injection for *clustering*; the paper itself uses the same engine for
//! *partitioning*. This example combines them the way the field eventually
//! did (hMETIS-style multilevel): the V-cycle clusters and contracts level
//! by level, partitions the coarsest netlist, then projects back and
//! refines at every level — and compares cost and wall-clock against the
//! flat partitioner.
//!
//! Run with `cargo run --release --example multilevel`.

use std::time::Instant;

use htp::cluster::vcycle::{vcycle_partition, VCycleParams};
use htp::core::partitioner::{FlowPartitioner, PartitionerParams};
use htp::model::TreeSpec;
use htp::netlist::gen::rent::{rent_circuit, RentParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(2026);
    let h = rent_circuit(
        RentParams {
            nodes: 1500,
            primary_inputs: 90,
            locality: 0.8,
            ..RentParams::default()
        },
        &mut rng,
    );
    println!("design: {}", htp::netlist::NetlistStats::of(&h));
    let spec = TreeSpec::full_tree(h.total_size(), 4, 2, 1.10, 1.0)?;

    let start = Instant::now();
    let flat = FlowPartitioner::try_new(PartitionerParams::default())?.run(&h, &spec, &mut rng)?;
    let flat_secs = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let multi = vcycle_partition(&h, &spec, VCycleParams::default(), &mut rng)?;
    let multi_secs = start.elapsed().as_secs_f64();

    println!(
        "\nflat FLOW        : cost {:>7.0}  in {flat_secs:.2}s",
        flat.cost
    );
    println!(
        "V-cycle          : cost {:>7.0}  in {multi_secs:.2}s \
         ({} levels, {} coarsest nodes, coarsest cost {:.0})",
        multi.cost, multi.num_levels, multi.coarsest_nodes, multi.coarsest_cost
    );
    println!(
        "\ncoarsening kept {:.0}% of the nodes and {:.0}% of the runtime",
        100.0 * multi.coarsest_nodes as f64 / h.num_nodes() as f64,
        100.0 * multi_secs / flat_secs
    );
    Ok(())
}
