//! Ablation studies for the design choices called out in `DESIGN.md`:
//!
//! 1. the free parameters `α` and `Δ` of Algorithm 2 (the paper never
//!    states them),
//! 2. the number of outer iterations `N`,
//! 3. the conclusions' suggestion of multiple constructions per spreading
//!    metric (quality vs. runtime trade-off).
//!
//! Runs on the c2670 surrogate by default; `--quick` shrinks to a smaller
//! clustered instance.

use std::time::Instant;

use htp_bench::{paper_spec, EXPERIMENT_SEED};
use htp_core::injector::FlowParams;
use htp_core::partitioner::{FlowPartitioner, PartitionerParams};
use htp_netlist::gen::clustered::{clustered_hypergraph, ClusteredParams};
use htp_netlist::gen::iscas::surrogate_by_name;
use htp_netlist::Hypergraph;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn workload(quick: bool) -> Hypergraph {
    if quick {
        let mut rng = StdRng::seed_from_u64(EXPERIMENT_SEED);
        clustered_hypergraph(
            ClusteredParams {
                clusters: 8,
                cluster_size: 16,
                intra_nets: 600,
                inter_nets: 60,
                min_net_size: 2,
                max_net_size: 3,
            },
            &mut rng,
        )
        .hypergraph
    } else {
        surrogate_by_name("c2670", EXPERIMENT_SEED).expect("known circuit")
    }
}

fn run(h: &Hypergraph, params: PartitionerParams) -> (f64, f64) {
    let spec = paper_spec(h);
    let mut rng = StdRng::seed_from_u64(EXPERIMENT_SEED);
    let start = Instant::now();
    let result = FlowPartitioner::try_new(params)
        .expect("valid partitioner parameters")
        .run(h, &spec, &mut rng)
        .expect("FLOW succeeds on the ablation workload");
    (result.cost, start.elapsed().as_secs_f64())
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let h = workload(quick);
    println!(
        "ABLATION on {} nodes / {} nets",
        h.num_nodes(),
        h.num_nets()
    );

    println!("\n(a) Exponential re-pricing: alpha x delta sweep (N = 2, M = 2)");
    let mut t = htp_bench::TextTable::new(["alpha", "delta", "cost", "secs"]);
    for alpha in [0.5, 1.0, 2.0] {
        for delta in [0.25, 0.5, 1.0] {
            let params = PartitionerParams {
                iterations: 2,
                constructions_per_metric: 2,
                flow: FlowParams {
                    alpha,
                    delta,
                    ..FlowParams::default()
                },
            };
            let (cost, secs) = run(&h, params);
            t.row([
                format!("{alpha}"),
                format!("{delta}"),
                format!("{cost:.0}"),
                format!("{secs:.1}"),
            ]);
        }
    }
    println!("{t}");

    println!("(b) Outer iterations N (M = 1)");
    let mut t = htp_bench::TextTable::new(["N", "cost", "secs"]);
    for n in [1, 2, 4, 8] {
        let params = PartitionerParams {
            iterations: n,
            constructions_per_metric: 1,
            flow: FlowParams::default(),
        };
        let (cost, secs) = run(&h, params);
        t.row([format!("{n}"), format!("{cost:.0}"), format!("{secs:.1}")]);
    }
    println!("{t}");

    println!("(c) Constructions per metric M (N = 2): the conclusions' extension");
    let mut t = htp_bench::TextTable::new(["M", "cost", "secs"]);
    for m in [1, 2, 4, 8] {
        let params = PartitionerParams {
            iterations: 2,
            constructions_per_metric: m,
            flow: FlowParams::default(),
        };
        let (cost, secs) = run(&h, params);
        t.row([format!("{m}"), format!("{cost:.0}"), format!("{secs:.1}")]);
    }
    println!("{t}");
    println!("(d) RFM split seeding: random vs spectral (Fiedler sweep)");
    {
        use htp_baselines::rfm::{rfm_partition, RfmParams, SplitInit};
        use htp_model::cost::partition_cost;
        let spec = paper_spec(&h);
        let mut t = htp_bench::TextTable::new(["init", "cost", "secs"]);
        for (name, init) in [
            ("random", SplitInit::Random),
            ("spectral", SplitInit::Spectral),
        ] {
            let mut rng = StdRng::seed_from_u64(EXPERIMENT_SEED);
            let start = Instant::now();
            let p = rfm_partition(
                &h,
                &spec,
                RfmParams {
                    init,
                    ..RfmParams::default()
                },
                &mut rng,
            )
            .expect("RFM succeeds on the ablation workload");
            let secs = start.elapsed().as_secs_f64();
            t.row([
                name.to_string(),
                format!("{:.0}", partition_cost(&h, &spec, &p)),
                format!("{secs:.1}"),
            ]);
        }
        println!("{t}");
    }

    println!("(e) Multilevel: the V-cycle vs flat FLOW");
    {
        use htp_cluster::vcycle::{vcycle_partition, VCycleParams};
        let spec = paper_spec(&h);
        let mut t = htp_bench::TextTable::new(["variant", "cost", "secs"]);
        let mut rng = StdRng::seed_from_u64(EXPERIMENT_SEED);
        let start = Instant::now();
        let flat = FlowPartitioner::try_new(PartitionerParams::default())
            .expect("valid partitioner parameters")
            .run(&h, &spec, &mut rng)
            .expect("flat FLOW succeeds");
        t.row([
            "flat".to_string(),
            format!("{:.0}", flat.cost),
            format!("{:.1}", start.elapsed().as_secs_f64()),
        ]);
        let mut rng = StdRng::seed_from_u64(EXPERIMENT_SEED);
        let start = Instant::now();
        let multi = vcycle_partition(&h, &spec, VCycleParams::default(), &mut rng)
            .expect("the V-cycle succeeds");
        t.row([
            format!(
                "V-cycle ({} levels, {} coarsest)",
                multi.num_levels, multi.coarsest_nodes
            ),
            format!("{:.0}", multi.cost),
            format!("{:.1}", start.elapsed().as_secs_f64()),
        ]);
        println!("{t}");
    }

    println!("Expect (c): cost drops with M at little extra runtime, because");
    println!("the metric computation dominates (paper Section 5).");
}
