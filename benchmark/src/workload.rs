//! The workloads, their solver settings, and how each one's input files
//! are made from a seed.
//!
//! Why each workload exists is recorded in `BENCHMARK.json` and, with the
//! layer map, in `BENCHMARK.md`.

use std::fs;
use std::path::Path;

use htp_cluster::vcycle::VCycleParams;
use htp_core::injector::FlowParams;
use htp_core::partitioner::{FlowPartitioner, PartitionerParams};
use htp_eco::random_delta_clustered;
use htp_model::TreeSpec;
use htp_netlist::gen::clustered::{clustered_hypergraph, ClusteredParams};
use htp_netlist::gen::rent::{rent_circuit, RentParams};
use htp_netlist::io::hgr;
use htp_netlist::{Hypergraph, HypergraphBuilder, NodeId};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Probe-pool and refinement threads: the core count of the machine the
/// sizes were chosen on. Results are bit-identical at any setting.
pub const THREADS: usize = 2;

/// The hierarchy every workload partitions into: the `htp` CLI defaults.
pub const HEIGHT: usize = 4;
pub const ARITY: usize = 2;
pub const SLACK: f64 = 1.10;
/// Leaves of the full tree, which is how an emitted assignment is read.
pub const LEAVES: usize = ARITY.pow(HEIGHT as u32);

/// Share of the nodes the ECO edit script touches.
pub const EDIT_RATE: f64 = 0.01;
/// Outer iterations of the ECO solve (and of its untimed cold bootstrap).
pub const ECO_ITERATIONS: usize = 2;

/// Files in a run's work directory.
pub const INPUT: &str = "input.hgr";
pub const PRIOR_HGR: &str = "prior.hgr";
pub const PRIOR_TREE: &str = "prior.tree";
pub const PRIOR_LENGTHS: &str = "prior.lengths";
pub const ASSIGNMENT: &str = "assignment.txt";

/// The public entry point a workload times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Entry {
    /// `FlowPartitioner::run_with_budget` with default parameters.
    Flat,
    /// `vcycle_partition_with_budget` with default parameters.
    VCycle,
    /// `htp_eco::warm_partition` from a prior solve of the unedited netlist.
    Eco,
}

/// A generated input netlist.
#[derive(Clone, Copy, Debug)]
pub enum Netlist {
    /// Rent's-rule logic; `mixed_sizes` makes every 7th node size 2.
    Rent { nodes: usize, mixed_sizes: bool },
    /// Planted clusters.
    Clustered { clusters: usize, size: usize },
}

/// A workload: `instances` netlists of one kind, each solved by `entry`.
///
/// One instance's time, cost and memory swing by tens of percent from
/// seed to seed, so a run measures a batch of distinct instances and
/// reports batch means; with `--quick` the batch is one small instance.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub entry: Entry,
    pub netlist: Netlist,
    pub instances: usize,
    /// The `--quick` instance.
    pub quick: Netlist,
}

const fn rent(nodes: usize) -> Netlist {
    Netlist::Rent {
        nodes,
        mixed_sizes: false,
    }
}

const fn mixed_rent(nodes: usize) -> Netlist {
    Netlist::Rent {
        nodes,
        mixed_sizes: true,
    }
}

/// Batch sizes hold a batch near 6-10 s on a 2-core x86-64 VM, so a 20 s
/// run measures two or three batches, and are large enough that the
/// seed-to-seed quartile spread of the batch means of cost and memory
/// stays under a third of their bounds in `BENCHMARK.json` (see
/// `BENCHMARK.md`).
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "flat-rent1k",
        entry: Entry::Flat,
        netlist: rent(1_000),
        instances: 48,
        quick: rent(800),
    },
    Workload {
        name: "vcycle-rent20k",
        entry: Entry::VCycle,
        netlist: rent(20_000),
        instances: 8,
        quick: rent(10_000),
    },
    Workload {
        name: "vcycle-clustered5k",
        entry: Entry::VCycle,
        netlist: Netlist::Clustered {
            clusters: 50,
            size: 100,
        },
        instances: 8,
        quick: Netlist::Clustered {
            clusters: 20,
            size: 100,
        },
    },
    Workload {
        name: "eco-rent2k",
        entry: Entry::Eco,
        netlist: mixed_rent(2_000),
        instances: 16,
        quick: mixed_rent(1_200),
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Seed of instance `i` of a run: instance 0 uses `--seed` itself.
pub fn instance_seed(seed: u64, i: usize) -> u64 {
    seed ^ ((i as u64) << 40)
}

/// The generator stream, the solver stream and the edit-script stream
/// all derive from an instance's seed.
fn gen_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

pub fn solver_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ 0x5eed_5eed)
}

fn script_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ 0xec0)
}

pub fn spec(h: &Hypergraph) -> Result<TreeSpec, String> {
    TreeSpec::full_tree(h.total_size(), HEIGHT, ARITY, SLACK, 1.0).map_err(|e| e.to_string())
}

fn flow_params() -> FlowParams {
    FlowParams {
        threads: THREADS,
        ..FlowParams::default()
    }
}

pub fn flat_params() -> PartitionerParams {
    PartitionerParams {
        flow: flow_params(),
        ..PartitionerParams::default()
    }
}

pub fn eco_params() -> PartitionerParams {
    PartitionerParams {
        iterations: ECO_ITERATIONS,
        ..flat_params()
    }
}

pub fn vcycle_params(record_levels: bool) -> VCycleParams {
    let mut params = VCycleParams::default();
    params.partitioner.flow.threads = THREADS;
    params.refine.threads = THREADS;
    params.record_levels = record_levels;
    params
}

/// Generates `netlist` with the Rent and cluster parameters of the
/// repository's `trajectory` bench.
fn generate(netlist: Netlist, seed: u64) -> Hypergraph {
    let mut rng = gen_rng(seed);
    match netlist {
        Netlist::Rent { nodes, mixed_sizes } => {
            let h = rent_circuit(
                RentParams {
                    nodes,
                    primary_inputs: (nodes / 16).max(1),
                    locality: 0.8,
                    ..RentParams::default()
                },
                &mut rng,
            );
            if mixed_sizes {
                with_mixed_sizes(&h)
            } else {
                h
            }
        }
        Netlist::Clustered { clusters, size } => {
            let nodes = clusters * size;
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
    }
}

/// Every 7th node becomes size 2, as in the repository's `eco` bench: on
/// all-unit netlists any resize edit makes the cold metric probe far
/// deeper, and the ECO workload would measure that artifact instead of
/// the warm path.
fn with_mixed_sizes(h: &Hypergraph) -> Hypergraph {
    let mut b = HypergraphBuilder::new();
    for v in h.nodes() {
        b.add_node(if v.index() % 7 == 0 { 2 } else { 1 });
    }
    for net in h.nets() {
        let _ = b.add_net_lenient(h.net_capacity(net), h.net_pins(net).to_vec());
    }
    b.build().expect("resizing nodes keeps the netlist valid")
}

/// Renumbers an edited netlist the way an ECO flow that keeps instance
/// names does: every surviving node keeps its base id, and added nodes
/// (then survivors whose id is past the new end) fill the ids removals
/// freed. `htp_eco::diff` matches nodes by position, so under the dense
/// numbering `NetlistDelta::apply` returns, one removed node would shift
/// every later id and the diff would report almost the whole netlist as
/// touched.
fn with_stable_ids(edited: &Hypergraph, node_map: &[Option<NodeId>]) -> Hypergraph {
    let n = edited.num_nodes();
    let mut id = vec![usize::MAX; n];
    let mut taken = vec![false; n];
    for (base, new) in node_map.iter().enumerate() {
        if let Some(new) = new {
            if base < n {
                id[new.index()] = base;
                taken[base] = true;
            }
        }
    }
    let mut free = (0..n).filter(|&i| !taken[i]);
    for slot in id.iter_mut().filter(|s| **s == usize::MAX) {
        *slot = free.next().expect("as many free ids as unplaced nodes");
    }
    let mut node_at = vec![NodeId::new(0); n];
    for v in edited.nodes() {
        node_at[id[v.index()]] = v;
    }
    let mut b = HypergraphBuilder::new();
    for &v in &node_at {
        b.add_node(edited.node_size(v));
    }
    for net in edited.nets() {
        let pins: Vec<NodeId> = edited
            .net_pins(net)
            .iter()
            .map(|p| NodeId::new(id[p.index()]))
            .collect();
        let _ = b.add_net_lenient(edited.net_capacity(net), pins);
    }
    b.build()
        .expect("renumbering nodes keeps the netlist valid")
}

/// Sizes of the netlist an instance's reps read.
#[derive(Clone, Copy, Debug, Default)]
pub struct InputSize {
    pub nodes: usize,
    pub nets: usize,
    pub pins: usize,
}

/// Writes one instance's input files into `dir`. For ECO this includes
/// the untimed cold bootstrap whose result the reps start from.
pub fn prepare(w: &Workload, dir: &Path, seed: u64, quick: bool) -> Result<InputSize, String> {
    let netlist = if quick { w.quick } else { w.netlist };
    let write = |name: &str, text: String| {
        fs::write(dir.join(name), text).map_err(|e| format!("cannot write {name}: {e}"))
    };
    let h = generate(netlist, seed);
    let input = if w.entry == Entry::Eco {
        let spec = spec(&h)?;
        // One iteration is enough for a converged prior; the bootstrap
        // is untimed, so it only costs run length.
        let bootstrap = PartitionerParams {
            iterations: 1,
            ..eco_params()
        };
        let prior = FlowPartitioner::try_new(bootstrap)
            .and_then(|p| p.run(&h, &spec, &mut solver_rng(seed)))
            .map_err(|e| format!("ECO bootstrap: {e}"))?;
        write(PRIOR_HGR, hgr::to_string(&h))?;
        write(PRIOR_TREE, htp_model::io::to_string(&prior.partition))?;
        let mut lengths = String::new();
        for d in prior.metric.lengths() {
            lengths.push_str(&format!("{d}\n"));
        }
        write(PRIOR_LENGTHS, lengths)?;
        let delta = random_delta_clustered(&h, EDIT_RATE, &mut script_rng(seed));
        let applied = delta
            .apply(&h)
            .map_err(|e| format!("ECO edit script: {e}"))?;
        with_stable_ids(&applied.hypergraph, &applied.report.node_map)
    } else {
        h
    };
    write(INPUT, hgr::to_string(&input))?;
    Ok(InputSize {
        nodes: input.num_nodes(),
        nets: input.num_nets(),
        pins: input.num_pins(),
    })
}
