//! Machine-readable perf trajectory for the Algorithm-2 hot path.
//!
//! Runs the two reference instances (rent:2000 and a planted-cluster
//! netlist of comparable size), times the spreading-metric phase and one
//! construction separately, and writes the measurements to `BENCH_5.json`
//! so every future perf PR has a pinned before/after. The JSON is
//! hand-rolled (the workspace vendors no serde); the schema is validated
//! by CI's `bench-smoke` job.
//!
//! Usage: `trajectory [--quick] [--multilevel] [--kernel] [--out PATH]`
//!
//! * `--quick` shrinks the instances for CI smoke runs (~400 nodes flat,
//!   20k nodes multilevel).
//! * `--multilevel` benchmarks the V-cycle engine instead of the flat
//!   Algorithm-2 hot path, writing a per-level time/cost/telemetry
//!   breakdown to `BENCH_10.json`. Full mode runs rent:100000,
//!   clustered:1000x100, and the rent:1000000 scale target; instances up
//!   to 150k nodes additionally sweep the refinement pool across
//!   `refine.threads = 1, 2, 4, 8`, asserting the partition digest is
//!   bit-identical at every rung.
//! * `--kernel` sweeps the probe kernel across `threads = 1, 2, 4, 8`,
//!   asserting the metric is bit-identical at every setting and recording
//!   per-thread efficiency plus kernel-choice telemetry (dial vs heap
//!   rounds, batched re-pricing time) to `BENCH_9.json`. The file records
//!   the machine's `available_parallelism`, and each rung above it says
//!   `"scaling": false`: it checks determinism, not speed-up.
//! * `--out PATH` changes the output path (default `BENCH_5.json`,
//!   `BENCH_10.json` with `--multilevel`, or `BENCH_9.json` with
//!   `--kernel`).
//!
//! Thread count comes from `HTP_THREADS` (default 1) except under
//! `--kernel`, which sweeps its fixed ladder. The metric itself is
//! bit-identical at any thread count; only wall-clock moves.

use std::fmt::Write as _;
use std::time::Instant;

use htp_bench::{paper_spec, threads_from_env, EXPERIMENT_SEED};
use htp_cluster::vcycle::{vcycle_partition, VCycleParams, VCycleResult};
use htp_core::construct::construct_partition;
use htp_core::injector::{compute_spreading_metric, FlowParams, InjectionStats};
use htp_model::{cost, validate, TreeSpec};
use htp_netlist::gen::clustered::{clustered_hypergraph, ClusteredParams};
use htp_netlist::gen::rent::{rent_circuit, RentParams};
use htp_netlist::Hypergraph;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One instance's measurements.
struct Sample {
    name: String,
    nodes: usize,
    nets: usize,
    metric_seconds: f64,
    construct_seconds: f64,
    stats: InjectionStats,
    cost: f64,
}

fn rent_instance(nodes: usize) -> (String, Hypergraph) {
    let mut rng = StdRng::seed_from_u64(EXPERIMENT_SEED ^ 1);
    let h = rent_circuit(
        RentParams {
            nodes,
            primary_inputs: (nodes / 16).max(1),
            locality: 0.8,
            ..RentParams::default()
        },
        &mut rng,
    );
    (format!("rent:{nodes}"), h)
}

fn clustered_instance(clusters: usize, cluster_size: usize) -> (String, Hypergraph) {
    let mut rng = StdRng::seed_from_u64(EXPERIMENT_SEED ^ 2);
    let nodes = clusters * cluster_size;
    let inst = clustered_hypergraph(
        ClusteredParams {
            clusters,
            cluster_size,
            intra_nets: nodes * 5 / 2,
            inter_nets: nodes / 5,
            ..ClusteredParams::default()
        },
        &mut rng,
    );
    (
        format!("clustered:{clusters}x{cluster_size}"),
        inst.hypergraph,
    )
}

fn measure(name: String, h: &Hypergraph, spec: &TreeSpec, threads: usize) -> Sample {
    let params = FlowParams {
        threads,
        ..FlowParams::default()
    };
    let mut rng = StdRng::seed_from_u64(EXPERIMENT_SEED);
    let start = Instant::now();
    let (metric, stats) = compute_spreading_metric(h, spec, params, &mut rng);
    let metric_seconds = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let partition =
        construct_partition(h, spec, &metric, &mut rng).expect("construction must succeed");
    let construct_seconds = start.elapsed().as_secs_f64();
    validate::validate(h, spec, &partition).expect("construction output is feasible");
    let cost = cost::partition_cost(h, spec, &partition);

    eprintln!(
        "{name}: metric {metric_seconds:.3}s ({} rounds, {} probes, {} wasted), \
         construct {construct_seconds:.3}s, cost {cost}",
        stats.rounds, stats.probes, stats.wasted_probes
    );
    Sample {
        name,
        nodes: h.num_nodes(),
        nets: h.num_nets(),
        metric_seconds,
        construct_seconds,
        stats,
        cost,
    }
}

/// Peak resident set size of this process in bytes (`VmHWM`), or 0 when
/// the platform does not expose it.
fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn render(samples: &[Sample], threads: usize, quick: bool) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"bench\": \"trajectory\",");
    let _ = writeln!(out, "  \"schema_version\": 1,");
    let _ = writeln!(out, "  \"threads\": {threads},");
    let _ = writeln!(out, "  \"quick\": {quick},");
    let _ = writeln!(out, "  \"peak_rss_bytes\": {},", peak_rss_bytes());
    out.push_str("  \"instances\": [\n");
    for (i, s) in samples.iter().enumerate() {
        let st = &s.stats;
        let wasted_ratio = if st.probes > 0 {
            st.wasted_probes as f64 / st.probes as f64
        } else {
            0.0
        };
        out.push_str("    {\n");
        let _ = writeln!(out, "      \"name\": \"{}\",", json_escape(&s.name));
        let _ = writeln!(out, "      \"nodes\": {},", s.nodes);
        let _ = writeln!(out, "      \"nets\": {},", s.nets);
        let _ = writeln!(out, "      \"metric_seconds\": {:.6},", s.metric_seconds);
        let _ = writeln!(
            out,
            "      \"construct_seconds\": {:.6},",
            s.construct_seconds
        );
        let _ = writeln!(
            out,
            "      \"probe_seconds\": {:.6},",
            st.probe_time.as_secs_f64()
        );
        let _ = writeln!(
            out,
            "      \"commit_seconds\": {:.6},",
            st.commit_time.as_secs_f64()
        );
        let _ = writeln!(out, "      \"rounds\": {},", st.rounds);
        let _ = writeln!(out, "      \"probes\": {},", st.probes);
        let _ = writeln!(out, "      \"wasted_probes\": {},", st.wasted_probes);
        let _ = writeln!(out, "      \"wasted_probe_ratio\": {wasted_ratio:.6},");
        let _ = writeln!(out, "      \"deferrals\": {},", st.deferrals);
        let _ = writeln!(out, "      \"injections\": {},", st.injections);
        let _ = writeln!(out, "      \"converged\": {},", st.converged);
        let _ = writeln!(out, "      \"cost\": {}", s.cost);
        out.push_str(if i + 1 == samples.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

/// One `(instance, threads)` cell of the `--kernel` sweep.
struct KernelCell {
    threads: usize,
    metric_seconds: f64,
    stats: InjectionStats,
}

/// One instance of the `--kernel` sweep: the thread ladder plus a single
/// construction (timed at one thread — construction is single-threaded).
struct KernelSample {
    name: String,
    nodes: usize,
    nets: usize,
    construct_seconds: f64,
    cost: f64,
    cells: Vec<KernelCell>,
}

/// Runs the metric phase at every thread count on the ladder, asserting
/// the computed lengths are bit-identical throughout, and constructs once
/// from the shared metric.
fn measure_kernel_sweep(name: String, h: &Hypergraph, spec: &TreeSpec) -> KernelSample {
    let mut cells = Vec::new();
    let mut baseline: Option<htp_core::SpreadingMetric> = None;
    for threads in [1usize, 2, 4, 8] {
        let params = FlowParams {
            threads,
            ..FlowParams::default()
        };
        let mut rng = StdRng::seed_from_u64(EXPERIMENT_SEED);
        let start = Instant::now();
        let (metric, stats) = compute_spreading_metric(h, spec, params, &mut rng);
        let metric_seconds = start.elapsed().as_secs_f64();
        eprintln!(
            "{name} T={threads}: metric {metric_seconds:.3}s \
             ({} rounds: {} dial / {} heap, repricing {:.3}s)",
            stats.rounds,
            stats.dial_rounds,
            stats.heap_rounds,
            stats.repricing_time.as_secs_f64()
        );
        match &baseline {
            None => baseline = Some(metric),
            Some(first) => assert_eq!(
                first.lengths(),
                metric.lengths(),
                "{name}: metric diverged at {threads} threads"
            ),
        }
        cells.push(KernelCell {
            threads,
            metric_seconds,
            stats,
        });
    }

    let metric = baseline.expect("the ladder is non-empty");
    // Re-derive the construction RNG exactly as `measure` does: the
    // stream continues past the metric phase.
    let mut rng = StdRng::seed_from_u64(EXPERIMENT_SEED);
    let params = FlowParams {
        threads: 1,
        ..FlowParams::default()
    };
    let (_, _) = compute_spreading_metric(h, spec, params, &mut rng);
    let start = Instant::now();
    let partition =
        construct_partition(h, spec, &metric, &mut rng).expect("construction must succeed");
    let construct_seconds = start.elapsed().as_secs_f64();
    validate::validate(h, spec, &partition).expect("construction output is feasible");
    let cost = cost::partition_cost(h, spec, &partition);
    eprintln!("{name}: construct {construct_seconds:.3}s, cost {cost}");

    KernelSample {
        name,
        nodes: h.num_nodes(),
        nets: h.num_nets(),
        construct_seconds,
        cost,
        cells,
    }
}

fn render_kernel(samples: &[KernelSample], quick: bool) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"bench\": \"trajectory-kernel\",");
    let _ = writeln!(out, "  \"schema_version\": 1,");
    let _ = writeln!(out, "  \"quick\": {quick},");
    let _ = writeln!(out, "  \"peak_rss_bytes\": {},", peak_rss_bytes());
    // Rungs with more threads than cores time the same work on shared
    // cores: they check determinism, not scaling.
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let _ = writeln!(out, "  \"available_parallelism\": {cores},");
    out.push_str("  \"instances\": [\n");
    for (i, s) in samples.iter().enumerate() {
        out.push_str("    {\n");
        let _ = writeln!(out, "      \"name\": \"{}\",", json_escape(&s.name));
        let _ = writeln!(out, "      \"nodes\": {},", s.nodes);
        let _ = writeln!(out, "      \"nets\": {},", s.nets);
        let _ = writeln!(
            out,
            "      \"construct_seconds\": {:.6},",
            s.construct_seconds
        );
        let _ = writeln!(out, "      \"cost\": {},", s.cost);
        out.push_str("      \"threads\": [\n");
        let t1 = s.cells.first().map_or(0.0, |c| c.metric_seconds);
        for (j, c) in s.cells.iter().enumerate() {
            let st = &c.stats;
            let efficiency = if c.metric_seconds > 0.0 && c.threads > 0 {
                t1 / (c.metric_seconds * c.threads as f64)
            } else {
                0.0
            };
            // Kernel choice is per-round: under `FrontierMode::Auto` the
            // quantization probe decides each round, and these counters
            // record the split.
            let kernel = if st.dial_rounds == 0 {
                "heap"
            } else if st.heap_rounds == 0 {
                "dial"
            } else {
                "mixed"
            };
            out.push_str("        {\n");
            let _ = writeln!(out, "          \"threads\": {},", c.threads);
            let _ = writeln!(out, "          \"scaling\": {},", c.threads <= cores);
            let _ = writeln!(
                out,
                "          \"metric_seconds\": {:.6},",
                c.metric_seconds
            );
            let _ = writeln!(
                out,
                "          \"probe_seconds\": {:.6},",
                st.probe_time.as_secs_f64()
            );
            let _ = writeln!(
                out,
                "          \"commit_seconds\": {:.6},",
                st.commit_time.as_secs_f64()
            );
            let _ = writeln!(
                out,
                "          \"repricing_seconds\": {:.6},",
                st.repricing_time.as_secs_f64()
            );
            let _ = writeln!(out, "          \"efficiency\": {efficiency:.6},");
            let _ = writeln!(out, "          \"kernel\": \"{kernel}\",");
            let _ = writeln!(out, "          \"dial_rounds\": {},", st.dial_rounds);
            let _ = writeln!(out, "          \"heap_rounds\": {},", st.heap_rounds);
            let _ = writeln!(out, "          \"rounds\": {},", st.rounds);
            let _ = writeln!(out, "          \"probes\": {},", st.probes);
            let _ = writeln!(out, "          \"converged\": {}", st.converged);
            out.push_str(if j + 1 == s.cells.len() {
                "        }\n"
            } else {
                "        },\n"
            });
        }
        out.push_str("      ]\n");
        out.push_str(if i + 1 == samples.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

/// One rung of the refinement-pool thread ladder: the same V-cycle run
/// with only `refine.threads` changed. The digest-equality assertion in
/// [`measure_multilevel`] guarantees the partition is bit-identical, so
/// only the timings vary.
struct LadderCell {
    threads: usize,
    total_seconds: f64,
    refine_seconds: f64,
}

/// One instance's multilevel (V-cycle) measurements.
struct MlSample {
    name: String,
    nodes: usize,
    nets: usize,
    total_seconds: f64,
    certified: bool,
    result: VCycleResult,
    refine_ladder: Vec<LadderCell>,
}

/// FNV-1a digest over the leaf assignment plus the exact cost bits: equal
/// digests mean equal partitions for all practical purposes.
fn partition_digest(h: &Hypergraph, r: &VCycleResult) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut d = 0xcbf2_9ce4_8422_2325u64;
    for v in h.nodes() {
        d ^= r.partition.leaf_of(v).index() as u64;
        d = d.wrapping_mul(PRIME);
    }
    d ^= r.cost.to_bits();
    d.wrapping_mul(PRIME)
}

fn measure_multilevel(
    name: String,
    h: &Hypergraph,
    spec: &TreeSpec,
    threads: usize,
    ladder: bool,
) -> MlSample {
    let run_once = |refine_threads: usize| -> (VCycleResult, f64) {
        let mut rng = StdRng::seed_from_u64(EXPERIMENT_SEED);
        let mut params = VCycleParams::default();
        params.partitioner.flow.threads = threads;
        params.refine.threads = refine_threads;
        let start = Instant::now();
        let result = vcycle_partition(h, spec, params, &mut rng).expect("V-cycle must succeed");
        (result, start.elapsed().as_secs_f64())
    };

    let (result, total_seconds) = run_once(threads);
    let cert = htp_verify::certificate::certify(h, spec, &result.partition);
    assert!(
        cert.is_valid(),
        "{name}: V-cycle output failed certification: {:?}",
        cert.violations
    );
    eprintln!(
        "{name}: {} levels, coarsest {} nodes, total {total_seconds:.3}s \
         (coarsen {:.3}s, solve {:.3}s), cost {} (coarsest {})",
        result.num_levels,
        result.coarsest_nodes,
        result.coarsen_seconds,
        result.solve_seconds,
        result.cost,
        result.coarsest_cost
    );

    let mut refine_ladder = Vec::new();
    if ladder {
        let baseline = partition_digest(h, &result);
        for refine_threads in [1usize, 2, 4, 8] {
            let (r, total) = run_once(refine_threads);
            assert_eq!(
                partition_digest(h, &r),
                baseline,
                "{name}: refinement diverged at {refine_threads} threads"
            );
            let refine_seconds: f64 = r.levels.iter().map(|l| l.refine_seconds).sum();
            eprintln!(
                "{name} refine T={refine_threads}: total {total:.3}s, refine {refine_seconds:.3}s \
                 (digest identical)"
            );
            refine_ladder.push(LadderCell {
                threads: refine_threads,
                total_seconds: total,
                refine_seconds,
            });
        }
    } else {
        eprintln!("{name}: refine-thread ladder skipped (instance above the 150k-node cap)");
    }

    MlSample {
        name,
        nodes: h.num_nodes(),
        nets: h.num_nets(),
        total_seconds,
        certified: cert.is_valid(),
        result,
        refine_ladder,
    }
}

fn render_multilevel(samples: &[MlSample], threads: usize, quick: bool) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"bench\": \"trajectory-multilevel\",");
    let _ = writeln!(out, "  \"schema_version\": 2,");
    let _ = writeln!(out, "  \"threads\": {threads},");
    let _ = writeln!(out, "  \"quick\": {quick},");
    let _ = writeln!(out, "  \"peak_rss_bytes\": {},", peak_rss_bytes());
    out.push_str("  \"instances\": [\n");
    for (i, s) in samples.iter().enumerate() {
        let r = &s.result;
        let refine_seconds: f64 = r.levels.iter().map(|l| l.refine_seconds).sum();
        let refinement_gain: f64 = r
            .levels
            .iter()
            .map(|l| l.projected_cost - l.refined_cost)
            .sum();
        out.push_str("    {\n");
        let _ = writeln!(out, "      \"name\": \"{}\",", json_escape(&s.name));
        let _ = writeln!(out, "      \"nodes\": {},", s.nodes);
        let _ = writeln!(out, "      \"nets\": {},", s.nets);
        let _ = writeln!(out, "      \"num_levels\": {},", r.num_levels);
        let _ = writeln!(out, "      \"coarsest_nodes\": {},", r.coarsest_nodes);
        let _ = writeln!(out, "      \"coarsest_cost\": {},", r.coarsest_cost);
        let _ = writeln!(out, "      \"total_seconds\": {:.6},", s.total_seconds);
        let _ = writeln!(out, "      \"coarsen_seconds\": {:.6},", r.coarsen_seconds);
        let _ = writeln!(out, "      \"solve_seconds\": {:.6},", r.solve_seconds);
        let _ = writeln!(out, "      \"refine_seconds\": {refine_seconds:.6},");
        let _ = writeln!(out, "      \"refinement_gain\": {refinement_gain},");
        let _ = writeln!(out, "      \"outcome\": \"{}\",", r.outcome);
        let _ = writeln!(out, "      \"certified\": {},", s.certified);
        let _ = writeln!(out, "      \"cost\": {},", r.cost);
        out.push_str("      \"refine_ladder\": [\n");
        for (j, c) in s.refine_ladder.iter().enumerate() {
            out.push_str("        {\n");
            let _ = writeln!(out, "          \"threads\": {},", c.threads);
            let _ = writeln!(out, "          \"total_seconds\": {:.6},", c.total_seconds);
            let _ = writeln!(
                out,
                "          \"refine_seconds\": {:.6},",
                c.refine_seconds
            );
            let _ = writeln!(out, "          \"identical\": true");
            out.push_str(if j + 1 == s.refine_ladder.len() {
                "        }\n"
            } else {
                "        },\n"
            });
        }
        out.push_str("      ],\n");
        out.push_str("      \"levels\": [\n");
        for (j, lvl) in r.levels.iter().enumerate() {
            out.push_str("        {\n");
            let _ = writeln!(out, "          \"nodes\": {},", lvl.nodes);
            let _ = writeln!(out, "          \"nets\": {},", lvl.nets);
            let _ = writeln!(
                out,
                "          \"coarsen_seconds\": {:.6},",
                lvl.coarsen_seconds
            );
            let _ = writeln!(
                out,
                "          \"refine_seconds\": {:.6},",
                lvl.refine_seconds
            );
            let _ = writeln!(out, "          \"hfm_seconds\": {:.6},", lvl.hfm_seconds);
            let _ = writeln!(out, "          \"projected_cost\": {},", lvl.projected_cost);
            let _ = writeln!(out, "          \"refined_cost\": {},", lvl.refined_cost);
            let _ = writeln!(
                out,
                "          \"flow_pairs_tried\": {},",
                lvl.flow_pairs_tried
            );
            let _ = writeln!(out, "          \"flow_gadgets\": {},", lvl.flow_gadgets);
            let _ = writeln!(
                out,
                "          \"flow_pairs_accepted\": {},",
                lvl.flow_pairs_accepted
            );
            let _ = writeln!(
                out,
                "          \"flow_pairs_skipped\": {},",
                lvl.flow_pairs_skipped
            );
            let _ = writeln!(
                out,
                "          \"flow_skipped_gain_bound\": {},",
                lvl.flow_skipped_gain_bound
            );
            let _ = writeln!(
                out,
                "          \"flow_moved_nodes\": {},",
                lvl.flow_moved_nodes
            );
            let _ = writeln!(out, "          \"frozen_fillers\": {},", lvl.frozen_fillers);
            let _ = writeln!(out, "          \"merged_nets\": {},", lvl.merged_nets);
            let _ = writeln!(out, "          \"dropped_nets\": {},", lvl.dropped_nets);
            let _ = writeln!(out, "          \"hfm_used\": {}", lvl.hfm_used);
            out.push_str(if j + 1 == r.levels.len() {
                "        }\n"
            } else {
                "        },\n"
            });
        }
        out.push_str("      ]\n");
        out.push_str(if i + 1 == samples.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let multilevel = args.iter().any(|a| a == "--multilevel");
    let kernel = args.iter().any(|a| a == "--kernel");
    let default_out = if multilevel {
        "BENCH_10.json"
    } else if kernel {
        "BENCH_9.json"
    } else {
        "BENCH_5.json"
    };
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| default_out.to_string());
    let threads = threads_from_env();

    let json = if multilevel {
        // V-cycle scale: the flat path tops out around 2k nodes; the
        // multilevel engine is benchmarked at 20k (quick) / 100k nodes,
        // plus the 1M-node scale target in full mode. The refine-thread
        // ladder (4 extra full runs per instance) is capped at 150k
        // nodes so the 1M certification run happens exactly once.
        const LADDER_MAX_NODES: usize = 150_000;
        let instances = if quick {
            vec![rent_instance(20_000), clustered_instance(200, 100)]
        } else {
            vec![
                rent_instance(100_000),
                clustered_instance(1000, 100),
                rent_instance(1_000_000),
            ]
        };
        let mut samples = Vec::new();
        for (name, h) in instances {
            let spec = paper_spec(&h);
            let ladder = h.num_nodes() <= LADDER_MAX_NODES;
            samples.push(measure_multilevel(name, &h, &spec, threads, ladder));
        }
        render_multilevel(&samples, threads, quick)
    } else if kernel {
        // Same instances and seed as the flat trajectory, so BENCH_9's
        // one-thread cells are directly comparable to BENCH_5.
        let (rent_nodes, clusters, cluster_size) =
            if quick { (400, 4, 100) } else { (2000, 8, 250) };
        let mut samples = Vec::new();
        for (name, h) in [
            rent_instance(rent_nodes),
            clustered_instance(clusters, cluster_size),
        ] {
            let spec = paper_spec(&h);
            samples.push(measure_kernel_sweep(name, &h, &spec));
        }
        render_kernel(&samples, quick)
    } else {
        let (rent_nodes, clusters, cluster_size) =
            if quick { (400, 4, 100) } else { (2000, 8, 250) };
        let mut samples = Vec::new();
        for (name, h) in [
            rent_instance(rent_nodes),
            clustered_instance(clusters, cluster_size),
        ] {
            let spec = paper_spec(&h);
            samples.push(measure(name, &h, &spec, threads));
        }
        render(&samples, threads, quick)
    };

    std::fs::write(&out_path, &json).expect("writing the trajectory JSON");
    println!("wrote {out_path}");
}
