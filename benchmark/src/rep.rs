//! One rep, run in a fresh child process so that its peak RSS is its own.
//!
//! The timed part is what a user of `htp partition --out` waits for: load
//! the input, build the spec, call the entry point, validate, and write
//! the assignment with canonical leaf numbering. The checks run after
//! the clock stops: the written file is re-parsed and certified by the
//! clean-room `htp-verify`, and its certified cost must match the
//! solver's.
//!
//! A traced rep also samples memory at span boundaries, keeps the
//! V-cycle's coarse levels, and after the run closes times the layers
//! that run inside the entry point as standalone public calls.

use std::fs::{self, File};
use std::hint::black_box;
use std::io::{BufReader, BufWriter, Write};
use std::path::Path;

use htp_cluster::refine::{flow_refine_pass, FlowRefineParams};
use htp_cluster::vcycle::{vcycle_partition_with_budget, VCycleLevelReport, VCycleResult};
use htp_core::construct::construct_partition;
use htp_core::injector::{compute_spreading_metric, InjectionStats};
use htp_core::partitioner::{BudgetedRun, FlowPartitioner};
use htp_core::{Budget, RunOutcome, SpreadingMetric};
use htp_eco::{warm_partition, TouchedReport, WarmPolicy, WarmRun};
use htp_model::{validate, HierarchicalPartition, TreeSpec};
use htp_netlist::io::hgr;
use htp_netlist::{CsrHypergraph, Hypergraph};
use htp_server::json::{obj, Json};

use crate::stats::median;
use crate::trace::{mem, Trace};
use crate::workload::{self as wl, Entry, Workload};

/// Set-ups per rep: the timed one plus repeats after the checks, so that
/// `setup_s` is a median even though set-up is short.
const SETUP_REPEATS: usize = 5;

/// What the set-up span produces.
struct Loaded {
    h: Hypergraph,
    spec: TreeSpec,
    prior: Option<Prior>,
}

/// The prior solve an ECO rep starts from, plus the edit it reconstructs.
struct Prior {
    partition: HierarchicalPartition,
    lengths: Vec<f64>,
    report: TouchedReport,
}

enum Solved {
    Flat(BudgetedRun),
    VCycle(Box<VCycleResult>),
    Eco(Box<WarmRun>),
}

impl Solved {
    fn partition(&self) -> &HierarchicalPartition {
        match self {
            Solved::Flat(r) => &r.result.partition,
            Solved::VCycle(r) => &r.partition,
            Solved::Eco(r) => &r.partition,
        }
    }

    fn cost(&self) -> f64 {
        match self {
            Solved::Flat(r) => r.result.cost,
            Solved::VCycle(r) => r.cost,
            Solved::Eco(r) => r.cost,
        }
    }

    fn outcome(&self) -> RunOutcome {
        match self {
            Solved::Flat(r) => r.outcome,
            Solved::VCycle(r) => r.outcome,
            Solved::Eco(r) => r.outcome,
        }
    }

    /// Metric statistics the entry point returns, summed over its
    /// metric runs (the V-cycle returns none).
    fn metric_stats(&self) -> Option<MetricTotals> {
        match self {
            Solved::Flat(r) => {
                let mut t = MetricTotals::default();
                for it in &r.result.history {
                    t.add(&it.stats);
                }
                Some(t)
            }
            Solved::VCycle(_) => None,
            Solved::Eco(r) => {
                let mut t = MetricTotals::default();
                t.add(&r.stats);
                Some(t)
            }
        }
    }
}

/// [`InjectionStats`] summed over metric runs.
#[derive(Clone, Copy, Debug, Default)]
struct MetricTotals {
    probe_s: f64,
    commit_s: f64,
    reprice_s: f64,
    rounds: usize,
    probes: usize,
    wasted_probes: usize,
    injections: usize,
    deferrals: usize,
    dial_rounds: usize,
    heap_rounds: usize,
}

impl MetricTotals {
    fn add(&mut self, s: &InjectionStats) {
        self.probe_s += s.probe_time.as_secs_f64();
        self.commit_s += s.commit_time.as_secs_f64();
        self.reprice_s += s.repricing_time.as_secs_f64();
        self.rounds += s.rounds;
        self.probes += s.probes;
        self.wasted_probes += s.wasted_probes;
        self.injections += s.injections;
        self.deferrals += s.deferrals;
        self.dial_rounds += s.dial_rounds;
        self.heap_rounds += s.heap_rounds;
    }

    fn seconds(&self) -> f64 {
        self.probe_s + self.commit_s + self.reprice_s
    }
}

fn read_hgr(path: &Path) -> Result<Hypergraph, String> {
    let file = File::open(path).map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    hgr::read(BufReader::new(file)).map_err(|e| format!("cannot parse {}: {e}", path.display()))
}

fn read_text(path: &Path) -> Result<String, String> {
    fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// The set-up span: everything before the entry point is called.
fn setup(w: &Workload, dir: &Path, tr: &mut Trace) -> Result<Loaded, String> {
    let id = tr.enter("setup");
    let h = tr.span("parse", || read_hgr(&dir.join(wl::INPUT)))?;
    let spec = tr.span("spec", || wl::spec(&h))?;
    let prior = if w.entry == Entry::Eco {
        let (prior_h, partition, lengths) = tr.span("eco.load", || -> Result<_, String> {
            let prior_h = read_hgr(&dir.join(wl::PRIOR_HGR))?;
            let partition = htp_model::io::from_str(&read_text(&dir.join(wl::PRIOR_TREE))?)
                .map_err(|e| format!("bad prior tree: {e}"))?;
            let lengths = read_text(&dir.join(wl::PRIOR_LENGTHS))?
                .lines()
                .map(|l| {
                    l.parse::<f64>()
                        .map_err(|e| format!("bad prior length: {e}"))
                })
                .collect::<Result<Vec<f64>, String>>()?;
            Ok((prior_h, partition, lengths))
        })?;
        let report = tr.span("eco.diff", || htp_eco::diff(&prior_h, &h));
        Some(Prior {
            partition,
            lengths,
            report,
        })
    } else {
        None
    };
    tr.exit(id);
    Ok(Loaded { h, spec, prior })
}

/// The solve span: one call of the workload's entry point. Durations the
/// entry point reports are hung off the span afterwards.
fn solve(
    w: &Workload,
    input: &Loaded,
    seed: u64,
    traced: bool,
    tr: &mut Trace,
) -> Result<Solved, String> {
    let (h, spec) = (&input.h, &input.spec);
    let mut rng = wl::solver_rng(seed);
    let budget = Budget::unlimited();
    let id = tr.enter("solve");
    let failed = |e: &dyn std::fmt::Display| format!("{} failed: {e}", w.name);
    let solved = match (w.entry, &input.prior) {
        (Entry::Flat, _) => FlowPartitioner::try_new(wl::flat_params())
            .and_then(|p| p.run_with_budget(h, spec, &mut rng, &budget))
            .map(Solved::Flat)
            .map_err(|e| failed(&e)),
        (Entry::VCycle, _) => {
            vcycle_partition_with_budget(h, spec, wl::vcycle_params(traced), &mut rng, &budget)
                .map(|r| Solved::VCycle(Box::new(r)))
                .map_err(|e| failed(&e))
        }
        (Entry::Eco, Some(prior)) => warm_partition(
            h,
            spec,
            &wl::eco_params(),
            &WarmPolicy::default(),
            &prior.partition,
            &prior.lengths,
            &prior.report,
            &mut rng,
            &budget,
        )
        .map(|r| Solved::Eco(Box::new(r)))
        .map_err(|e| failed(&e)),
        (Entry::Eco, None) => unreachable!("ECO set-up always loads a prior"),
    }?;
    tr.exit(id);
    match &solved {
        Solved::VCycle(r) => {
            tr.report(id, "cluster.coarsen", r.coarsen_seconds);
            tr.report(id, "cluster.solve", r.solve_seconds);
            tr.report(
                id,
                "cluster.refine",
                r.levels.iter().map(|l| l.refine_seconds).sum(),
            );
        }
        other => {
            let m = other
                .metric_stats()
                .expect("flat and ECO runs report metric stats");
            tr.report(id, "core.metric.probe", m.probe_s);
            tr.report(id, "core.metric.commit", m.commit_s);
            tr.report(id, "core.metric.reprice", m.reprice_s);
        }
    }
    Ok(solved)
}

/// Writes the assignment exactly as `htp partition --out` does: one
/// `<node> <leaf>` line per node, leaves ranked in canonical
/// left-to-right tree order.
fn emit(h: &Hypergraph, p: &HierarchicalPartition, path: &Path) -> Result<(), String> {
    let leaves = p.leaves_in_order();
    let mut rank = vec![usize::MAX; p.num_vertices()];
    for (i, q) in leaves.iter().enumerate() {
        rank[q.index()] = i;
    }
    let file = File::create(path).map_err(|e| format!("cannot create {}: {e}", path.display()))?;
    let mut w = BufWriter::new(file);
    for v in h.nodes() {
        writeln!(w, "{} {}", v.index(), rank[p.leaf_of(v).index()]).map_err(|e| e.to_string())?;
    }
    w.flush().map_err(|e| e.to_string())
}

/// FNV-1a over the emitted leaf assignment and the certified cost bits.
fn digest(assignment: &[usize], cost: f64) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut d = 0xcbf2_9ce4_8422_2325u64;
    for &leaf in assignment {
        d ^= leaf as u64;
        d = d.wrapping_mul(PRIME);
    }
    d ^= cost.to_bits();
    d.wrapping_mul(PRIME)
}

/// Runs one rep and returns its report. `Err` means the rep failed.
pub fn run(w: &Workload, dir: &Path, seed: u64, traced: bool) -> Result<Json, String> {
    let mut tr = Trace::new(traced);
    let run = tr.enter("run");
    let input = setup(w, dir, &mut tr)?;
    let solved = solve(w, &input, seed, traced, &mut tr)?;
    let (h, spec) = (&input.h, &input.spec);
    tr.span("validate", || {
        validate::validate(h, spec, solved.partition())
    })
    .map_err(|e| format!("validate: {e}"))?;
    let assignment_path = dir.join(wl::ASSIGNMENT);
    tr.span("emit", || emit(h, solved.partition(), &assignment_path))?;
    tr.exit(run);
    let peak_rss_mb = mem().hwm_mb;

    // The checks, on the file as written.
    let assignment = tr.span(
        "verify.parse_assignment",
        || -> Result<Vec<usize>, String> {
            let text = read_text(&assignment_path)?;
            htp_verify::parse_assignment(&text, h.num_nodes(), wl::LEAVES)
                .map_err(|e| format!("emitted assignment: {e}"))
        },
    )?;
    let cert = tr.span("verify.certify", || {
        HierarchicalPartition::full_kary(wl::HEIGHT, wl::ARITY, &assignment)
            .map(|p| htp_verify::certify(h, spec, &p))
    });
    let cert = cert.map_err(|e| format!("emitted assignment: {e}"))?;
    if !cert.is_valid() {
        return Err(format!(
            "certificate failed with {} violation(s), first: {}",
            cert.violations.len(),
            cert.violations[0]
        ));
    }
    let cost = cert.cost.ok_or("certificate priced no cost")?;
    let solver_cost = solved.cost();
    if (cost - solver_cost).abs() > 1e-9 * solver_cost.abs().max(1.0) {
        return Err(format!(
            "certified cost {cost} != solver cost {solver_cost}"
        ));
    }
    if !solved.outcome().is_complete() {
        return Err(format!("outcome {}", solved.outcome()));
    }

    let mut setups = vec![tr.seconds("setup")];
    for _ in 1..SETUP_REPEATS {
        let mut quiet = Trace::new(false);
        black_box(setup(w, dir, &mut quiet)?);
        setups.push(quiet.seconds("setup"));
    }

    let kernel = solved.metric_stats().map_or(Json::Null, |m| {
        obj(vec![
            ("dial_rounds", Json::Num(m.dial_rounds as f64)),
            ("heap_rounds", Json::Num(m.heap_rounds as f64)),
        ])
    });
    let mut report = vec![
        ("wall_s", Json::Num(tr.seconds("run"))),
        ("setup_s", Json::Num(median(&setups))),
        ("cost", Json::Num(cost)),
        ("peak_rss_mb", Json::Num(peak_rss_mb)),
        (
            "digest",
            Json::Str(format!("{:016x}", digest(&assignment, cost))),
        ),
        ("outcome", Json::Str(solved.outcome().to_string())),
        ("kernel", kernel),
    ];
    if traced {
        let layers = layers(&input, &solved, seed, &mut tr);
        report.push((
            "layers",
            Json::Obj(
                layers
                    .into_iter()
                    .map(|(k, v)| (k.to_owned(), Json::Num(v)))
                    .collect(),
            ),
        ));
        report.push(("spans", tr.to_json()));
    }
    Ok(obj(report))
}

/// The traced rep's per-layer metrics. The standalone calls run here,
/// after the `run` span has closed, so they cannot perturb it.
fn layers(input: &Loaded, solved: &Solved, seed: u64, tr: &mut Trace) -> Vec<(&'static str, f64)> {
    let (h, spec) = (&input.h, &input.spec);
    let mut rng = wl::solver_rng(seed);

    tr.span("standalone.csr_build", || black_box(CsrHypergraph::new(h)));

    // The metric layer: reported by the flat and ECO entry points. The
    // V-cycle reports none, so its coarsest metric is recomputed here on
    // the coarse netlist it solved.
    let coarsest: Option<(&Hypergraph, SpreadingMetric)>;
    let metric = match solved {
        Solved::VCycle(r) => {
            let g = r.coarse_graphs.last().unwrap_or(h);
            let flow = wl::vcycle_params(false).partitioner.flow;
            let (m, stats) = tr.span("standalone.metric", || {
                compute_spreading_metric(g, spec, flow, &mut rng)
            });
            coarsest = Some((g, m));
            let mut t = MetricTotals::default();
            t.add(&stats);
            t
        }
        other => {
            coarsest = None;
            other
                .metric_stats()
                .expect("flat and ECO runs report metric stats")
        }
    };
    let (construct_h, construct_metric) = match (solved, coarsest) {
        (_, Some((g, m))) => (g, m),
        (Solved::Flat(r), None) => (h, r.result.metric.clone()),
        (Solved::Eco(r), None) => (h, SpreadingMetric::from_lengths(r.lengths.clone())),
        (Solved::VCycle(_), None) => unreachable!("the V-cycle arm sets the coarsest metric"),
    };
    // Only the time is wanted; a construction that finds no feasible cut
    // on a coarse netlist still did its work.
    tr.span("standalone.construct", || {
        black_box(construct_partition(construct_h, spec, &construct_metric, &mut rng).is_ok())
    });
    let refine = FlowRefineParams {
        threads: wl::THREADS,
        ..FlowRefineParams::default()
    };
    tr.span("standalone.fine_refine_pass", || {
        black_box(
            flow_refine_pass(
                h,
                spec,
                solved.partition(),
                solved.cost(),
                &refine,
                &Budget::unlimited(),
            )
            .is_ok(),
        )
    });

    let solve_s = tr.seconds("solve");
    let hwm = |name: &str| {
        tr.find(name)
            .and_then(|s| s.mem_end)
            .map_or(0.0, |m| m.hwm_mb)
    };
    let solve_span = tr.find("solve").expect("the solve span ran");
    let solve_rss_delta = match (solve_span.mem_start, solve_span.mem_end) {
        (Some(a), Some(b)) => b.rss_mb - a.rss_mb,
        _ => 0.0,
    };
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let mut out = vec![
        ("netlist.parse_s", tr.seconds("parse")),
        ("netlist.pins", h.num_pins() as f64),
        ("netlist.csr_build_s", tr.seconds("standalone.csr_build")),
        ("core.metric_s", metric.seconds()),
        ("core.metric.probe_s", metric.probe_s),
        ("core.metric.commit_s", metric.commit_s),
        // Only the dial kernel re-prices in a batch, so this is a share:
        // as a time it would read 0 on every heap-kernel workload.
        (
            "core.metric.reprice_frac",
            ratio(metric.reprice_s, metric.seconds()),
        ),
        ("core.metric.rounds", metric.rounds as f64),
        ("core.metric.probes", metric.probes as f64),
        ("core.metric.injections", metric.injections as f64),
        ("core.metric.deferrals", metric.deferrals as f64),
        ("core.metric.dial_rounds", metric.dial_rounds as f64),
        ("core.metric.heap_rounds", metric.heap_rounds as f64),
        (
            "core.metric.useful_probe_ratio",
            ratio(
                (metric.probes - metric.wasted_probes) as f64,
                metric.probes as f64,
            ),
        ),
        ("core.construct_s", tr.seconds("standalone.construct")),
    ];

    // The V-cycle's own report. A flat or ECO run solves the input
    // directly, which the V-cycle reports as zero levels.
    let vcycle = match solved {
        Solved::VCycle(r) => Some(r.as_ref()),
        _ => None,
    };
    let get = |f: fn(&VCycleResult) -> f64, otherwise: f64| vcycle.map_or(otherwise, f);
    let sum =
        |f: fn(&VCycleLevelReport) -> f64| vcycle.map_or(0.0, |r| r.levels.iter().map(f).sum());
    let n = h.num_nodes() as f64;
    let levels = get(|r| r.num_levels as f64, 0.0);
    let coarsest_nodes = get(|r| r.coarsest_nodes as f64, n);
    let tried = sum(|l| l.flow_pairs_tried as f64);
    let accepted = sum(|l| l.flow_pairs_accepted as f64);
    out.extend([
        ("cluster.levels", levels),
        ("cluster.coarsest_nodes", coarsest_nodes),
        (
            "cluster.shrink_ratio",
            if levels > 0.0 {
                (coarsest_nodes / n).powf(1.0 / levels)
            } else {
                1.0
            },
        ),
        ("cluster.merged_nets", sum(|l| l.merged_nets as f64)),
        ("cluster.dropped_nets", sum(|l| l.dropped_nets as f64)),
        ("cluster.frozen_fillers", sum(|l| l.frozen_fillers as f64)),
        (
            "cluster.precheck_rejected_levels",
            get(|r| r.precheck_rejected_levels as f64, 0.0),
        ),
        (
            "cluster.backoff_popped_levels",
            get(|r| r.backoff_popped_levels as f64, 0.0),
        ),
        (
            "cluster.coarsen_frac",
            ratio(tr.seconds("cluster.coarsen"), solve_s),
        ),
        (
            "cluster.solve_frac",
            ratio(tr.seconds("cluster.solve"), solve_s),
        ),
        (
            "cluster.refine_frac",
            ratio(tr.seconds("cluster.refine"), solve_s),
        ),
        ("cluster.refine.pairs_tried", tried),
        ("cluster.refine.pairs_accepted", accepted),
        (
            "cluster.refine.pairs_skipped",
            sum(|l| l.flow_pairs_skipped as f64),
        ),
        ("cluster.refine.accept_ratio", ratio(accepted, tried)),
        (
            "cluster.refine.moved_nodes",
            sum(|l| l.flow_moved_nodes as f64),
        ),
        (
            "cluster.refine.gain",
            sum(|l| l.projected_cost - l.refined_cost),
        ),
        (
            "cluster.refine.hfm_levels",
            sum(|l| f64::from(u8::from(l.hfm_used))),
        ),
        (
            "cluster.refine.fine_pass_s",
            tr.seconds("standalone.fine_refine_pass"),
        ),
    ]);

    let (warm, touched, salvaged) = match (solved, &input.prior) {
        (Solved::Eco(r), Some(prior)) => (
            f64::from(u8::from(r.warm)),
            prior.report.touched_nodes.len() as f64,
            r.salvage.salvaged_fraction(h.num_nodes()),
        ),
        _ => (0.0, 0.0, 0.0),
    };
    out.extend([
        ("eco.warm", warm),
        ("eco.touched_nodes", touched),
        ("eco.salvaged_fraction", salvaged),
        (
            "eco.diff_frac",
            ratio(tr.seconds("eco.diff"), tr.seconds("setup")),
        ),
        ("model.validate_s", tr.seconds("validate")),
        ("emit.assignment_s", tr.seconds("emit")),
        (
            "verify.parse_assignment_s",
            tr.seconds("verify.parse_assignment"),
        ),
        ("verify.certify_s", tr.seconds("verify.certify")),
        ("mem.setup_hwm_mb", hwm("setup")),
        ("mem.solve_hwm_mb", hwm("solve")),
        ("mem.certify_hwm_mb", hwm("verify.certify")),
        ("mem.solve_rss_delta_mb", solve_rss_delta),
        (
            "trace.solve_attributed_frac",
            ratio(tr.reported_under("solve"), solve_s),
        ),
    ]);
    out
}
