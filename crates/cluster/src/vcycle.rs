//! The multilevel V-cycle: recursive coarsening, FLOW at the coarsest
//! level, and level-by-level uncoarsening with flow-based refinement.
//!
//! Coarsen, solve FLOW on the coarse netlist, project back: this module
//! recurses that scheme. The down pass agglomerates repeatedly
//! — congestion-guided while the graph is small enough to afford the
//! stochastic routing, heavy-edge-rated above that — until the coarsest
//! netlist fits a node threshold. FLOW solves the coarsest instance, and
//! the up pass projects through each level, running a flow-based
//! boundary-refinement pass ([`crate::refine`]) and then, on levels small
//! enough for FM's full move scan, a hierarchical-FM sweep whose result is
//! kept when it lowers the cost.
//!
//! Every phase polls the caller's [`Budget`]: a deadline or cancellation
//! mid-cycle stops refinement and projects the best partition found so
//! far straight up to the fine level, so the caller always receives a
//! valid (certifiable) partition plus an honest [`RunOutcome`].

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use rand::Rng;

use htp_baselines::hfm::{improve, HfmParams};
use htp_core::injector::FlowParams;
use htp_core::partitioner::{solve_budgeted, FlowPartitioner, PartitionerParams};
use htp_core::runtime::{Budget, RunOutcome};
use htp_core::CoreError;
use htp_model::{cost, HierarchicalPartition, PartitionBuilder, TreeSpec, VertexId};
use htp_netlist::{contract_with, ContractScratch, Hypergraph, NodeId};

use crate::clusters::{agglomerate_ordered, net_order, Clustering};
use crate::congestion::{flow_congestion, CongestionParams, CongestionProfile};
use crate::refine::{flow_refine_pass, FlowRefineParams, FlowRefineReport};

/// A coarsening level is abandoned when it shrinks the node count by less
/// than this factor — further passes would stall at the same size.
const MIN_SHRINK: f64 = 0.95;

/// Node-count fractions coarsening tries to freeze as filler singletons,
/// in escalation order: start with nothing frozen and add smallest-first
/// stripes until the coarse size distribution passes the packing screen.
const ADAPTIVE_FRACTIONS: [f64; 6] = [
    0.0,
    1.0 / 64.0,
    1.0 / 32.0,
    1.0 / 16.0,
    1.0 / 8.0,
    1.0 / 4.0,
];

/// Parameters of the multilevel V-cycle.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct VCycleParams {
    /// Stop coarsening once the graph has at most this many nodes; FLOW
    /// runs on that coarsest netlist.
    pub coarsest_nodes: usize,
    /// Floor of the node-count target that sets the per-level cluster
    /// size cap. Normally the target is `n / level_shrink` (so the cap
    /// is the average cluster size that shrink would need), but when a
    /// level stalls — the cap leaves almost nothing to merge — the
    /// target decays by another `level_shrink` factor and the level
    /// retries with the larger cap, down to this floor. Keep it below
    /// `coarsest_nodes`: the old behaviour (give up on the first
    /// stall, target never below `coarsest_nodes`) coupled cap growth
    /// to merge success, a feedback loop that stalled coarsening
    /// several times above the threshold so the coarsest solve
    /// dominated the cycle.
    pub cap_decay_floor: usize,
    /// Hard cap on coarsening levels (safety net for pathological
    /// instances).
    pub max_levels: usize,
    /// Target node-count shrink factor per level (must exceed 1).
    pub level_shrink: f64,
    /// Cluster size cap as a fraction of the leaf capacity `C_0`, in
    /// `(0, 1]`. Bounds how big a coarse node may grow at any level.
    pub cluster_cap_fraction: f64,
    /// Congestion-profile parameters for congestion-guided coarsening.
    pub congestion: CongestionParams,
    /// Use congestion-guided coarsening up to this many nodes; larger
    /// graphs are rated by the cheap heavy-edge heuristic instead.
    pub congestion_max_nodes: usize,
    /// Inner partitioner parameters for the coarsest solve.
    pub partitioner: PartitionerParams,
    /// Parameters of the flow-refinement pass.
    pub refine: FlowRefineParams,
    /// Run the hierarchical-FM sweep after the flow pass on every level
    /// with at most this many nodes (keeping its result only when it
    /// strictly lowers the cost); larger levels skip it, because FM's
    /// move scan is too expensive above this size.
    pub hfm_max_nodes: usize,
    /// Keep a snapshot of the (projected, refined) partition at every
    /// uncoarsening level in [`VCycleResult::level_partitions`] (test and
    /// audit hook; costs memory on big instances).
    pub record_levels: bool,
}

impl Default for VCycleParams {
    fn default() -> Self {
        VCycleParams {
            // Coarser than this and the coarse node granularity starts
            // missing the spec's carve windows (NoFeasibleCut).
            coarsest_nodes: 512,
            // Half of `coarsest_nodes`: stalled levels retry with caps
            // up to total/256 instead of giving up (measured on
            // rent:100000: the plateau drops from ~2.4k nodes to near
            // the threshold). Lower floors raise the caps past the
            // carve-window granularity and the coarsest levels go
            // infeasible.
            cap_decay_floor: 256,
            max_levels: 12,
            level_shrink: 4.0,
            cluster_cap_fraction: 0.5,
            congestion: CongestionParams::default(),
            congestion_max_nodes: 4096,
            // One metric iteration suffices at the coarsest level: the
            // per-level refinement passes recover what a longer coarse
            // solve would buy, at a fraction of the cost. Constructions
            // are nearly free next to the metric (a few ms each at
            // coarse sizes), and extra rolls make a feasible carve far
            // more likely on chunky coarse nodes — the spec's carve
            // windows are near-exact between levels, so whether a roll
            // lands is noisy, and every level the backoff pops costs a
            // full paid metric.
            partitioner: PartitionerParams {
                iterations: 1,
                constructions_per_metric: 64,
                // Round cap on the coarse metric: a well-clustered coarse
                // graph converges in a few dozen rounds, a fragmented one
                // can crawl for hundreds while the refinement passes would
                // recover the difference anyway. Hitting the cap is honest
                // convergence (`converged = false`), not an interrupt.
                flow: FlowParams {
                    max_rounds: 128,
                    ..FlowParams::default()
                },
            },
            refine: FlowRefineParams::default(),
            hfm_max_nodes: 4096,
            record_levels: false,
        }
    }
}

/// What happened at one uncoarsening level (coarse→fine order in
/// [`VCycleResult::levels`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct VCycleLevelReport {
    /// Nodes of the fine graph at this level.
    pub nodes: usize,
    /// Nets of the fine graph at this level.
    pub nets: usize,
    /// Time spent coarsening this graph during the down pass.
    pub coarsen_seconds: f64,
    /// Time spent refining after projection: the flow pass plus the
    /// hierarchical-FM sweep.
    pub refine_seconds: f64,
    /// Wall time of the hierarchical-FM sweep alone (part of
    /// `refine_seconds`); 0.0 when it did not run.
    pub hfm_seconds: f64,
    /// Cost right after projecting the coarser partition.
    pub projected_cost: f64,
    /// Cost after refinement (never above `projected_cost`).
    pub refined_cost: f64,
    /// Block pairs the flow refiner took to the max-flow stage.
    pub flow_pairs_tried: usize,
    /// Flow gadgets solved by max-flow: first proposals, region-halving
    /// retries and speculative retries
    /// ([`FlowRefineReport::gadgets`]).
    pub flow_gadgets: usize,
    /// Pairs whose min-cut move was accepted.
    pub flow_pairs_accepted: usize,
    /// Pairs the estimated-gain gate skipped before max-flow.
    pub flow_pairs_skipped: usize,
    /// Sum of the gain upper bounds the gate discarded (near zero when
    /// the gate only skips genuinely hopeless pairs).
    pub flow_skipped_gain_bound: f64,
    /// Nodes moved by accepted flow proposals.
    pub flow_moved_nodes: usize,
    /// Whether the hierarchical-FM sweep strictly lowered the cost at this
    /// level, so its partition was kept. A sweep that ran without
    /// improving leaves this `false` (see `hfm_seconds`).
    pub hfm_used: bool,
    /// Filler singletons frozen while coarsening this graph.
    pub frozen_fillers: usize,
    /// Fine nets of this graph that merged into an identical-pin-set
    /// survivor while contracting it to the next coarser level.
    pub merged_nets: usize,
    /// Fine nets of this graph the contraction dropped (single coarse
    /// pin).
    pub dropped_nets: usize,
}

/// Result of a V-cycle run.
#[derive(Clone, Debug)]
pub struct VCycleResult {
    /// The final fine-level partition (always valid under the spec).
    pub partition: HierarchicalPartition,
    /// Its exact interconnection cost.
    pub cost: f64,
    /// How the budgeted run ended.
    pub outcome: RunOutcome,
    /// Coarsening levels performed (0 means FLOW ran directly on the
    /// input).
    pub num_levels: usize,
    /// Node count of the coarsest netlist FLOW solved.
    pub coarsest_nodes: usize,
    /// Cost of the coarsest solve (on the coarse netlist).
    pub coarsest_cost: f64,
    /// Total down-pass (coarsening) time.
    pub coarsen_seconds: f64,
    /// Coarsest FLOW solve time.
    pub solve_seconds: f64,
    /// Per-level uncoarsening reports, coarsest-to-finest.
    pub levels: Vec<VCycleLevelReport>,
    /// Coarse levels rejected by the size-packing pre-check before any
    /// metric run (each would otherwise have cost one full metric under
    /// the `NoFeasibleCut` backoff).
    pub precheck_rejected_levels: usize,
    /// Coarse levels popped by the `NoFeasibleCut` backoff after a paid
    /// solve attempt (the pre-check is a necessary condition only, so
    /// heuristically infeasible levels still reach the solver).
    pub backoff_popped_levels: usize,
    /// Panics contained by the fault isolation around coarsening and
    /// refinement; each degrades the outcome instead of aborting the run.
    pub contained_panics: usize,
    /// `(projected, refined)` partitions per uncoarsening level when
    /// [`VCycleParams::record_levels`] is set (coarsest-to-finest, same
    /// order as `levels`).
    pub level_partitions: Vec<(HierarchicalPartition, HierarchicalPartition)>,
    /// The coarse netlists, finest-to-coarsest, when
    /// [`VCycleParams::record_levels`] is set (audit hook: the partition
    /// pair `level_partitions[j]` lives on `coarse_graphs[L - 2 - j]`
    /// where `L = num_levels`, and on the input netlist for
    /// `j == L - 1`).
    pub coarse_graphs: Vec<Hypergraph>,
}

/// Runs the multilevel V-cycle with no budget.
///
/// # Errors
///
/// Propagates [`CoreError`] from parameter validation, the coarsest FLOW
/// solve, projection, and refinement.
pub fn vcycle_partition<R: Rng + ?Sized>(
    h: &Hypergraph,
    spec: &TreeSpec,
    params: VCycleParams,
    rng: &mut R,
) -> Result<VCycleResult, CoreError> {
    vcycle_partition_with_budget(h, spec, params, rng, &Budget::unlimited())
}

/// Runs the multilevel V-cycle under `budget`.
///
/// The coarsest FLOW solve consumes the budget's rounds and probes; every
/// other phase polls its deadline and cancel token. When the budget fires
/// mid-cycle, the best partition found so far is projected up the
/// remaining levels without refinement, so the caller still receives a
/// valid partition and an outcome naming the interrupt.
///
/// # Errors
///
/// Propagates [`CoreError`] from parameter validation, the coarsest FLOW
/// solve, projection, and refinement.
pub fn vcycle_partition_with_budget<R: Rng + ?Sized>(
    h: &Hypergraph,
    spec: &TreeSpec,
    params: VCycleParams,
    rng: &mut R,
    budget: &Budget,
) -> Result<VCycleResult, CoreError> {
    validate_params(&params)?;
    if h.num_nodes() == 0 {
        return Err(CoreError::EmptyNetlist);
    }

    let mut precheck_rejected_levels = 0usize;
    let mut backoff_popped_levels = 0usize;

    // ---- Down pass: recursive coarsening. -------------------------------
    let down = down_pass(h, spec, &params, rng, budget);
    let DownPass {
        mut coarse_graphs,
        mut maps,
        mut coarsen_times,
        mut coarsen_stats,
        mut outcome,
        mut contained_panics,
        seconds: coarsen_seconds,
    } = down;

    // ---- Coarsest solve. ------------------------------------------------
    // Coarse nodes can be too chunky to land inside the spec's carve
    // windows; when the coarsest solve finds no feasible cut, back off one
    // level and solve the next-finer graph instead of failing.
    let solve_start = Instant::now();
    let partitioner = FlowPartitioner::try_new(params.partitioner)?;
    let (mut partition, coarsest_node_count, coarsest_cost) = loop {
        // Cheap necessary-condition screen first: when the coarse node
        // sizes provably cannot be packed into the spec's carve windows,
        // back off without paying the full metric run the NoFeasibleCut
        // backoff below would cost.
        let provably_infeasible = {
            let coarsest = coarse_graphs.last().unwrap_or(h);
            let sizes: Vec<u64> = coarsest.nodes().map(|v| coarsest.node_size(v)).collect();
            packing_infeasibility(&sizes, spec)
        };
        if let Some(e) = provably_infeasible {
            if coarse_graphs.is_empty() {
                // The input netlist itself cannot fit the spec; surface
                // the same typed error the construction would raise.
                return Err(e);
            }
            precheck_rejected_levels += 1;
            coarse_graphs.pop();
            maps.pop();
            coarsen_times.pop();
            coarsen_stats.pop();
            continue;
        }
        let attempt = {
            let coarsest = coarse_graphs.last().unwrap_or(h);
            solve_budgeted(&partitioner, coarsest, spec, rng, budget).map(|(p, o)| {
                let c = cost::partition_cost(coarsest, spec, &p);
                (p, o, coarsest.num_nodes(), c)
            })
        };
        match attempt {
            Ok((p, solve_outcome, n, c)) => {
                outcome = outcome.combine(solve_outcome);
                break (p, n, c);
            }
            Err(CoreError::NoFeasibleCut { .. }) if !coarse_graphs.is_empty() => {
                backoff_popped_levels += 1;
                coarse_graphs.pop();
                maps.pop();
                coarsen_times.pop();
                coarsen_stats.pop();
            }
            Err(e) => return Err(e),
        }
    };
    let solve_seconds = solve_start.elapsed().as_secs_f64();

    // ---- Up pass: project + refine level by level. ----------------------
    let mut levels = Vec::with_capacity(maps.len());
    let mut level_partitions = Vec::new();
    let mut cost_now = coarsest_cost;
    for i in (0..maps.len()).rev() {
        let fine: &Hypergraph = if i == 0 { h } else { &coarse_graphs[i - 1] };
        let projected = project(&partition, &maps[i], fine.num_nodes())?;
        htp_model::validate::validate(fine, spec, &projected)?;
        let projected_cost = cost::partition_cost(fine, spec, &projected);

        let refine_start = Instant::now();
        let budget_ok = match budget.check_time() {
            Ok(()) => true,
            Err(irq) => {
                outcome = outcome.combine(RunOutcome::from_interrupt(irq));
                false
            }
        };
        // The whole refinement stage (flow pass + HFM sweep) is
        // fault-isolated: a panic inside either refiner keeps the valid
        // projected partition for this level and degrades the outcome
        // instead of aborting the cycle.
        type RefineAttempt =
            Result<(HierarchicalPartition, f64, FlowRefineReport, bool, f64), CoreError>;
        let attempt: std::thread::Result<RefineAttempt> = if budget_ok {
            catch_unwind(AssertUnwindSafe(|| {
                #[cfg(feature = "fault-injection")]
                if let Some(plan) = budget.fault_plan() {
                    if plan.should_panic_refinement(levels.len() as u64) {
                        panic!("fault injection: scripted refinement panic");
                    }
                }
                let (refined, refined_cost, report) = flow_refine_pass(
                    fine,
                    spec,
                    &projected,
                    projected_cost,
                    &params.refine,
                    budget,
                )?;
                // HFM sweep on top of the flow pass, at levels small
                // enough for FM's full move scan; kept only when it
                // strictly improves.
                let mut hfm_used = false;
                let mut hfm_seconds = 0.0;
                let (refined, refined_cost) =
                    if fine.num_nodes() <= params.hfm_max_nodes && budget.check_time().is_ok() {
                        let hfm_start = Instant::now();
                        let (p2, c2) = refine_partition(fine, spec, &refined)?;
                        hfm_seconds = hfm_start.elapsed().as_secs_f64();
                        if c2 < refined_cost - 1e-12 {
                            hfm_used = true;
                            (p2, c2)
                        } else {
                            (refined, refined_cost)
                        }
                    } else {
                        (refined, refined_cost)
                    };
                Ok((refined, refined_cost, report, hfm_used, hfm_seconds))
            }))
        } else {
            Ok(Ok((
                projected.clone(),
                projected_cost,
                FlowRefineReport::default(),
                false,
                0.0,
            )))
        };
        let (refined, refined_cost, report, hfm_used, hfm_seconds) = match attempt {
            Ok(Ok(stage)) => stage,
            Ok(Err(e)) => return Err(e),
            Err(_) => {
                contained_panics += 1;
                outcome = outcome.combine(RunOutcome::Degraded);
                (
                    projected.clone(),
                    projected_cost,
                    FlowRefineReport::default(),
                    false,
                    0.0,
                )
            }
        };
        if let Some(irq) = report.interrupt {
            outcome = outcome.combine(RunOutcome::from_interrupt(irq));
        }
        let refine_seconds = refine_start.elapsed().as_secs_f64();

        levels.push(VCycleLevelReport {
            nodes: fine.num_nodes(),
            nets: fine.num_nets(),
            coarsen_seconds: coarsen_times[i],
            refine_seconds,
            hfm_seconds,
            projected_cost,
            refined_cost,
            flow_pairs_tried: report.pairs_tried,
            flow_gadgets: report.gadgets,
            flow_pairs_accepted: report.pairs_accepted,
            flow_pairs_skipped: report.pairs_skipped,
            flow_skipped_gain_bound: report.skipped_gain_bound,
            flow_moved_nodes: report.moved_nodes,
            hfm_used,
            frozen_fillers: coarsen_stats[i].frozen_fillers,
            merged_nets: coarsen_stats[i].merged_nets,
            dropped_nets: coarsen_stats[i].dropped_nets,
        });
        if params.record_levels {
            level_partitions.push((projected, refined.clone()));
        }
        partition = refined;
        cost_now = refined_cost;
    }

    Ok(VCycleResult {
        partition,
        cost: cost_now,
        outcome,
        num_levels: maps.len(),
        coarsest_nodes: coarsest_node_count,
        coarsest_cost,
        coarsen_seconds,
        solve_seconds,
        precheck_rejected_levels,
        backoff_popped_levels,
        contained_panics,
        levels,
        level_partitions,
        coarse_graphs: if params.record_levels {
            coarse_graphs
        } else {
            Vec::new()
        },
    })
}

/// Improves `p` with the hierarchical FM pass, mapping every baseline
/// failure to a typed [`CoreError`] (an invalid partition surfaces as
/// [`CoreError::Model`], anything else as [`CoreError::Refinement`] —
/// never a panic).
///
/// # Errors
///
/// Returns [`CoreError::Model`] when `p` is not a valid partition of `h`,
/// and [`CoreError::Refinement`] for any other baseline-layer failure.
fn refine_partition(
    h: &Hypergraph,
    spec: &TreeSpec,
    p: &HierarchicalPartition,
) -> Result<(HierarchicalPartition, f64), CoreError> {
    match improve(h, spec, p, HfmParams::default()) {
        Ok(r) => {
            let c = r.cost_after;
            Ok((r.partition, c))
        }
        Err(htp_baselines::BaselineError::Model(m)) => Err(CoreError::Model(m)),
        Err(other) => Err(CoreError::Refinement {
            what: format!("hierarchical FM failed on the projected partition: {other}"),
        }),
    }
}

/// Replicates the coarse partition's tree for the fine netlist, assigning
/// each fine node to its cluster's leaf.
fn project(
    coarse: &HierarchicalPartition,
    cluster_of: &[usize],
    fine_nodes: usize,
) -> Result<HierarchicalPartition, htp_model::ModelError> {
    let mut b = PartitionBuilder::new(fine_nodes, coarse.root_level());
    let mut map = vec![VertexId(0); coarse.num_vertices()];
    map[coarse.root().index()] = b.root();
    let mut queue = vec![coarse.root()];
    while let Some(q) = queue.pop() {
        for &c in coarse.children(q) {
            let fine_vertex = b.add_child(map[q.index()], coarse.level(c))?;
            map[c.index()] = fine_vertex;
            queue.push(c);
        }
    }
    for (v, &cl) in cluster_of.iter().enumerate().take(fine_nodes) {
        let coarse_leaf = coarse.leaf_of(NodeId::new(cl));
        b.assign(NodeId::new(v), map[coarse_leaf.index()])?;
    }
    b.build()
}

/// Per-level counters from the coarsening down pass, aligned with
/// `coarsen_times` (index `i` describes contracting the level-`i` fine
/// graph into the next coarser one).
#[derive(Clone, Copy, Default)]
struct CoarsenLevelStats {
    frozen_fillers: usize,
    merged_nets: usize,
    dropped_nets: usize,
}

/// Everything the coarsening down pass produced: the coarse cascade
/// (finest-to-coarsest), its projection maps, per-level times and
/// counters, and how the pass ended.
struct DownPass {
    coarse_graphs: Vec<Hypergraph>,
    maps: Vec<Vec<usize>>,
    coarsen_times: Vec<f64>,
    coarsen_stats: Vec<CoarsenLevelStats>,
    outcome: RunOutcome,
    contained_panics: usize,
    seconds: f64,
}

/// The recursive coarsening loop: agglomerate level by level until the
/// coarsest threshold, the level cap, a budget interrupt, or a stall
/// (a level that shrinks by less than [`MIN_SHRINK`]) stops it.
fn down_pass<R: Rng + ?Sized>(
    h: &Hypergraph,
    spec: &TreeSpec,
    params: &VCycleParams,
    rng: &mut R,
    budget: &Budget,
) -> DownPass {
    let down_start = Instant::now();
    let mut outcome = RunOutcome::Complete;
    let mut contained_panics = 0usize;
    let mut coarse_graphs: Vec<Hypergraph> = Vec::new();
    let mut maps: Vec<Vec<usize>> = Vec::new();
    let mut coarsen_times: Vec<f64> = Vec::new();
    let mut coarsen_stats: Vec<CoarsenLevelStats> = Vec::new();
    // Contraction scratch shared across every level: the buffers grow to
    // the finest level's size once and are reused all the way down.
    let mut scratch = ContractScratch::new();
    let global_cap =
        ((spec.capacity(0) as f64 * params.cluster_cap_fraction).floor() as u64).max(1);
    loop {
        let cur = coarse_graphs.last().unwrap_or(h);
        let n = cur.num_nodes();
        if n <= params.coarsest_nodes || maps.len() >= params.max_levels || n < 2 {
            break;
        }
        if let Err(irq) = budget.check_time() {
            outcome = outcome.combine(RunOutcome::from_interrupt(irq));
            break;
        }
        let t0 = Instant::now();
        let max_node = cur.nodes().map(|v| cur.node_size(v)).max().unwrap_or(1);
        // The level body is fault-isolated: a panic while rating or
        // contracting stops the down pass at the last good level and the
        // cycle solves that graph instead, degrading the outcome.
        let step = catch_unwind(AssertUnwindSafe(|| {
            #[cfg(feature = "fault-injection")]
            if let Some(plan) = budget.fault_plan() {
                if plan.should_panic_coarsening(maps.len() as u64) {
                    panic!("fault injection: scripted coarsening panic");
                }
            }
            let profile = if n <= params.congestion_max_nodes {
                flow_congestion(cur, params.congestion, rng)
            } else {
                heavy_edge_profile(cur)
            };
            // Sorted once per level and reused across every cap-decay and
            // filler-escalation retry below.
            let order = net_order(cur, &profile);
            let mut freeze_order: Vec<usize> = (0..n).collect();
            freeze_order.sort_by_key(|&v| (cur.node_size(NodeId::new(v)), v));
            // A stall — the cap leaves (almost) nothing to merge — does
            // not end the down pass outright: the cap target decays
            // another `level_shrink` step and the level retries with
            // the larger cap, until the `cap_decay_floor`. Giving up on
            // the first stall coupled cap growth to merge success, a
            // feedback loop that plateaued rent:100000 around 2.4k
            // nodes with the coarsest solve dominating the cycle.
            let mut target = (n as f64 / params.level_shrink)
                .ceil()
                .max(params.coarsest_nodes as f64);
            loop {
                let cap = ((cur.total_size() as f64 / target).ceil() as u64)
                    .min(global_cap)
                    .max(max_node);
                let (clustering, frozen_fillers) =
                    cluster_level(cur, &order, &freeze_order, cap, spec);
                if clustering.count as f64 <= n as f64 * MIN_SHRINK {
                    let (coarse, cstats) = contract_with(cur, &clustering.cluster_of, &mut scratch);
                    let stats = CoarsenLevelStats {
                        frozen_fillers,
                        merged_nets: cstats.merged_nets,
                        dropped_nets: cstats.dropped_nets,
                    };
                    return Some((clustering.cluster_of, coarse, stats));
                }
                if target <= params.cap_decay_floor as f64 {
                    return None; // stalled even at the decay floor
                }
                target = (target / params.level_shrink).max(params.cap_decay_floor as f64);
            }
        }));
        match step {
            Ok(Some((map, coarse, stats))) => {
                maps.push(map);
                coarse_graphs.push(coarse);
                coarsen_times.push(t0.elapsed().as_secs_f64());
                coarsen_stats.push(stats);
            }
            Ok(None) => break,
            Err(_) => {
                contained_panics += 1;
                outcome = outcome.combine(RunOutcome::Degraded);
                break;
            }
        }
    }
    DownPass {
        coarse_graphs,
        maps,
        coarsen_times,
        coarsen_stats,
        outcome,
        contained_panics,
        seconds: down_start.elapsed().as_secs_f64(),
    }
}

/// Clusters one coarsening level, returning the clustering and how many
/// filler singletons were frozen.
///
/// Freezes only as much as the level provably needs: walks the
/// [`ADAPTIVE_FRACTIONS`] escalation — freezing the `freeze_order` prefix
/// (smallest nodes first, ties by index) — and accepts the first
/// clustering whose coarse sizes pass the [`packing_infeasibility`]
/// screen. Levels that never need fillers freeze nothing and shrink at
/// full speed. When even the largest stripe fails the screen, the last
/// clustering is returned anyway: the screen is a necessary condition
/// only, and the coarsest-solve pre-check/backoff pops genuinely
/// infeasible levels.
fn cluster_level(
    cur: &Hypergraph,
    order: &[usize],
    freeze_order: &[usize],
    cap: u64,
    spec: &TreeSpec,
) -> (Clustering, usize) {
    let n = cur.num_nodes();
    let mut frozen = vec![false; n];
    let mut prev = 0usize;
    let mut last = None;
    for &frac in &ADAPTIVE_FRACTIONS {
        let count = (((n as f64) * frac).ceil() as usize).min(n);
        for &v in &freeze_order[prev..count] {
            frozen[v] = true;
        }
        prev = count;
        let clustering = agglomerate_ordered(cur, order, &frozen, cap);
        let sizes = clustering.sizes(cur);
        let feasible = packing_infeasibility(&sizes, spec).is_none();
        last = Some((clustering, count));
        if feasible {
            break;
        }
    }
    last.expect("ADAPTIVE_FRACTIONS is non-empty")
}

/// Provable size-packing infeasibility screen.
///
/// Returns the typed [`CoreError`] the construction would eventually
/// raise when `sizes` provably cannot be packed under `spec`, or `None`
/// when packing *may* be possible. The check is a sound necessary
/// condition — it never condemns a packable instance — built from three
/// facts about any valid partition:
///
/// - every node must fit a leaf, so a node bigger than `C_0` is hopeless;
/// - the total must fit the root capacity;
/// - the root carve splits the total into at most `K_top` blocks of at
///   most `ub = C_{top-1}` each, so some block's size is a subset sum of
///   `sizes` inside the window `[total - (K_top - 1)·ub, ub]`; a bitset
///   subset-sum sweep proves when no such subset exists.
///
/// The subset-sum sweep is skipped (assumed packable) when `ub` exceeds
/// 2^22, bounding the screen at a few milliseconds on any input.
pub fn packing_infeasibility(sizes: &[u64], spec: &TreeSpec) -> Option<CoreError> {
    const MAX_DP_SUM: u64 = 1 << 22;
    let total: u64 = sizes.iter().sum();
    if total == 0 {
        return None;
    }
    let leaf_cap = spec.capacity(0);
    if let Some(&big) = sizes.iter().find(|&&s| s > leaf_cap) {
        return Some(CoreError::NoFeasibleCut {
            level: 0,
            remaining: big,
            lb: 1,
            ub: leaf_cap,
        });
    }
    let Some(top) = spec.level_for_size(total) else {
        return Some(CoreError::Infeasible {
            total_size: total,
            root_capacity: spec.capacity(spec.root_level()),
        });
    };
    if top == 0 {
        return None; // everything fits a single leaf
    }
    let k = spec.max_children(top) as u64;
    let ub = spec.capacity(top - 1);
    let lb = total.saturating_sub((k - 1).saturating_mul(ub)).max(1);
    if u128::from(total) > u128::from(k) * u128::from(ub) {
        return Some(CoreError::NoFeasibleCut {
            level: top,
            remaining: total,
            lb,
            ub,
        });
    }
    if ub > MAX_DP_SUM {
        return None; // too wide to prove anything cheaply
    }
    // Bitset subset-sum DP: bit `s` of `reach` means some subset of
    // `sizes` sums to exactly `s` (sums above `ub` are truncated — no
    // block may exceed `ub` anyway).
    let ubz = ub as usize;
    let words = ubz / 64 + 1;
    let mut reach = vec![0u64; words];
    reach[0] = 1; // the empty subset
    for &s in sizes {
        let s = s as usize;
        if s == 0 || s > ubz {
            continue;
        }
        let (ws, bs) = (s / 64, s % 64);
        for i in (ws..words).rev() {
            let mut v = reach[i - ws] << bs;
            if bs != 0 && i > ws {
                v |= reach[i - ws - 1] >> (64 - bs);
            }
            reach[i] |= v;
        }
    }
    let window_hit = (lb as usize..=ubz).any(|s| (reach[s / 64] >> (s % 64)) & 1 == 1);
    if window_hit {
        None
    } else {
        Some(CoreError::NoFeasibleCut {
            level: top,
            remaining: total,
            lb,
            ub,
        })
    }
}

/// Rates every net for heavy-edge coarsening: utilization becomes
/// `pins/capacity`, so small, heavy nets merge first — the classic
/// heavy-edge rating expressed as a [`CongestionProfile`] so
/// [`agglomerate_ordered`] can consume it unchanged.
fn heavy_edge_profile(h: &Hypergraph) -> CongestionProfile {
    CongestionProfile {
        flow: h.nets().map(|e| h.net_pins(e).len() as f64).collect(),
        routed: 0,
    }
}

fn validate_params(p: &VCycleParams) -> Result<(), CoreError> {
    if p.coarsest_nodes == 0 {
        return Err(CoreError::InvalidParams {
            what: "coarsest_nodes must be at least 1",
        });
    }
    if p.max_levels == 0 {
        return Err(CoreError::InvalidParams {
            what: "max_levels must be at least 1",
        });
    }
    if p.cap_decay_floor == 0 {
        return Err(CoreError::InvalidParams {
            what: "cap_decay_floor must be at least 1",
        });
    }
    // `>` is false for NaN, so this also rejects NaN shrink factors.
    if p.level_shrink.partial_cmp(&1.0) != Some(std::cmp::Ordering::Greater) {
        return Err(CoreError::InvalidParams {
            what: "level_shrink must exceed 1",
        });
    }
    if !(p.cluster_cap_fraction > 0.0 && p.cluster_cap_fraction <= 1.0) {
        return Err(CoreError::InvalidParams {
            what: "cluster_cap_fraction must be in (0, 1]",
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use htp_core::runtime::CancelToken;
    use htp_model::validate;
    use htp_netlist::gen::rent::{rent_circuit, RentParams};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn workload(nodes: usize, height: usize) -> (Hypergraph, TreeSpec) {
        let mut rng = StdRng::seed_from_u64(41);
        let h = rent_circuit(
            RentParams {
                nodes,
                primary_inputs: (nodes / 16).max(1),
                locality: 0.8,
                ..RentParams::default()
            },
            &mut rng,
        );
        let spec = TreeSpec::full_tree(h.total_size(), height, 2, 1.15, 1.0).unwrap();
        (h, spec)
    }

    fn quick_params() -> VCycleParams {
        VCycleParams {
            coarsest_nodes: 64,
            congestion: CongestionParams {
                pairs: 64,
                ..CongestionParams::default()
            },
            partitioner: PartitionerParams {
                iterations: 2,
                ..PartitionerParams::default()
            },
            ..VCycleParams::default()
        }
    }

    #[test]
    fn vcycle_produces_valid_multilevel_partitions() {
        let (h, spec) = workload(1024, 3);
        let mut rng = StdRng::seed_from_u64(42);
        let r = vcycle_partition(&h, &spec, quick_params(), &mut rng).unwrap();
        validate::validate(&h, &spec, &r.partition).unwrap();
        assert!(r.num_levels >= 2, "1024 -> 64 needs >= 2 shrink-4 levels");
        assert!(r.coarsest_nodes <= 4 * 64, "coarsest level near threshold");
        assert!(r.outcome.is_complete());
        assert_eq!(r.contained_panics, 0);
        assert!((cost::partition_cost(&h, &spec, &r.partition) - r.cost).abs() < 1e-9);
        for lvl in &r.levels {
            assert!(
                lvl.refined_cost <= lvl.projected_cost + 1e-9,
                "refinement never hurts at any level"
            );
        }
    }

    #[test]
    fn projection_preserves_block_comembership() {
        let (h, spec) = workload(256, 3);
        let mut rng = StdRng::seed_from_u64(16);
        let cap = ((spec.capacity(0) as f64 * 0.125).floor() as u64).max(1);
        let profile = flow_congestion(&h, CongestionParams::default(), &mut rng);
        let clustering = agglomerate_ordered(&h, &net_order(&h, &profile), &[], cap);
        let (coarse, _) = contract_with(&h, &clustering.cluster_of, &mut ContractScratch::new());
        let coarse_partition = FlowPartitioner::try_new(PartitionerParams::default())
            .unwrap()
            .run(&coarse, &spec, &mut rng)
            .unwrap()
            .partition;
        let p = project(&coarse_partition, &clustering.cluster_of, h.num_nodes()).unwrap();
        validate::validate(&h, &spec, &p).unwrap();
        // Nodes in one cluster must share a leaf after projection.
        for v in 0..h.num_nodes() {
            for u in v + 1..h.num_nodes() {
                if clustering.cluster_of[v] == clustering.cluster_of[u] {
                    assert_eq!(p.leaf_of(NodeId::new(v)), p.leaf_of(NodeId::new(u)));
                }
            }
        }
    }

    #[test]
    fn corrupted_partition_surfaces_a_typed_error_not_a_panic() {
        let (h, spec) = workload(256, 3);
        // Cram every node into one leaf: wildly over capacity, so the FM
        // baseline must reject it — through a typed error, never a panic.
        let mut rng = StdRng::seed_from_u64(19);
        let good = vcycle_partition(&h, &spec, quick_params(), &mut rng)
            .unwrap()
            .partition;
        let one_leaf = good.leaf_of(NodeId::new(0));
        let corrupted = good.with_assignment(vec![one_leaf; h.num_nodes()]).unwrap();
        let err = refine_partition(&h, &spec, &corrupted).unwrap_err();
        assert!(
            matches!(err, CoreError::Model(_) | CoreError::Refinement { .. }),
            "expected a typed refinement error, got {err:?}"
        );
    }

    #[test]
    fn tiny_instances_skip_coarsening() {
        let (h, spec) = workload(128, 3);
        let mut rng = StdRng::seed_from_u64(43);
        let params = VCycleParams {
            coarsest_nodes: 512,
            ..quick_params()
        };
        let r = vcycle_partition(&h, &spec, params, &mut rng).unwrap();
        assert_eq!(r.num_levels, 0, "already below the threshold");
        assert!(r.levels.is_empty());
        validate::validate(&h, &spec, &r.partition).unwrap();
    }

    #[test]
    fn pre_cancelled_token_degrades_to_a_valid_projection() {
        let (h, spec) = workload(1024, 3);
        let mut rng = StdRng::seed_from_u64(44);
        let token = CancelToken::new();
        token.cancel();
        let budget = Budget::unlimited().with_cancel_token(token);
        let r = vcycle_partition_with_budget(&h, &spec, quick_params(), &mut rng, &budget).unwrap();
        assert_eq!(r.outcome, RunOutcome::Cancelled);
        validate::validate(&h, &spec, &r.partition).unwrap();
        // Refinement was skipped on every level.
        assert!(r.levels.iter().all(|l| l.flow_pairs_tried == 0));
    }

    #[test]
    fn record_levels_snapshots_every_boundary() {
        let (h, spec) = workload(1024, 3);
        let mut rng = StdRng::seed_from_u64(45);
        let params = VCycleParams {
            record_levels: true,
            ..quick_params()
        };
        let r = vcycle_partition(&h, &spec, params, &mut rng).unwrap();
        assert_eq!(r.level_partitions.len(), r.num_levels);
        assert_eq!(r.levels.len(), r.num_levels);
    }

    #[test]
    fn cap_decay_floor_deepens_coarsening_on_rent_100k() {
        // rent:100000 is the documented stall case: giving up on the
        // first stalled level left the coarsest graph several times
        // `coarsest_nodes`, so the coarsest solve dominated the cycle.
        // Only the down pass runs here — no coarsest solve, no up pass
        // — so the regression stays cheap, and heavy-edge rating is
        // used at every level for the same reason (the stall is about
        // size caps, not rating quality).
        let mut rng = StdRng::seed_from_u64(48);
        let h = rent_circuit(
            RentParams {
                nodes: 100_000,
                primary_inputs: 100_000 / 16,
                locality: 0.8,
                ..RentParams::default()
            },
            &mut rng,
        );
        let spec = TreeSpec::full_tree(h.total_size(), 4, 2, 1.10, 1.0).unwrap();
        let params = VCycleParams {
            congestion_max_nodes: 0,
            ..VCycleParams::default()
        };
        let budget = Budget::unlimited();
        let down = down_pass(&h, &spec, &params, &mut rng, &budget);
        let deep = down.coarse_graphs.last().unwrap().num_nodes();

        // The legacy behaviour — stop at the first stall — is exactly
        // the decay floor pinned at `coarsest_nodes`.
        let legacy = VCycleParams {
            cap_decay_floor: params.coarsest_nodes,
            ..params
        };
        let down = down_pass(&h, &spec, &legacy, &mut rng, &budget);
        let plateau = down.coarse_graphs.last().unwrap().num_nodes();

        assert!(
            deep < plateau,
            "the decay floor coarsens strictly deeper: {deep} vs the {plateau}-node plateau"
        );
        assert!(
            deep <= 3 * params.coarsest_nodes,
            "the down pass bottoms out near the threshold, got {deep} nodes"
        );
    }

    #[test]
    fn packing_precheck_is_a_sound_screen() {
        let spec = TreeSpec::new(vec![(16, 2, 1.0), (32, 2, 1.0)]).unwrap();
        // Unit sizes always pack: every window sum is reachable.
        assert!(packing_infeasibility(&[1; 30], &spec).is_none());
        // Three 10s must carve a block of size in [14, 16] at the top,
        // but subset sums are multiples of 10 — provably unpackable.
        assert!(matches!(
            packing_infeasibility(&[10, 10, 10], &spec),
            Some(CoreError::NoFeasibleCut {
                level: 1,
                remaining: 30,
                lb: 14,
                ub: 16,
            })
        ));
        // The same total with a finer tail closes the gap (10 + 6 = 16).
        assert!(packing_infeasibility(&[10, 6, 10, 4], &spec).is_none());
        // A node above the leaf capacity can never be placed.
        assert!(matches!(
            packing_infeasibility(&[20, 5], &spec),
            Some(CoreError::NoFeasibleCut { level: 0, .. })
        ));
        // A total above the root capacity is Infeasible, not NoFeasibleCut.
        assert!(matches!(
            packing_infeasibility(&[16, 16, 16], &spec),
            Some(CoreError::Infeasible { .. })
        ));
        // Total over K_top * C_{top-1} without any single oversized node.
        let deep = TreeSpec::new(vec![(4, 2, 1.0), (8, 2, 1.0), (32, 2, 1.0)]).unwrap();
        assert!(matches!(
            packing_infeasibility(&[4, 4, 4, 4, 4], &deep),
            Some(CoreError::NoFeasibleCut { level: 2, .. })
        ));
        // Empty input is trivially packable.
        assert!(packing_infeasibility(&[], &spec).is_none());
    }

    #[test]
    fn provably_unpackable_inputs_fail_fast_without_a_metric_run() {
        // Five size-6 nodes against a [14, 16] top window: subset sums
        // are multiples of 6, so no feasible carve exists. The pre-check
        // must reject before the budget is charged a single metric round.
        let mut b = htp_netlist::HypergraphBuilder::new();
        let nodes: Vec<_> = (0..5).map(|_| b.add_node(6)).collect();
        for w in nodes.windows(2) {
            b.add_net(1.0, w.iter().copied()).unwrap();
        }
        let h = b.build().unwrap();
        let spec = TreeSpec::new(vec![(16, 2, 1.0), (32, 2, 1.0)]).unwrap();
        let mut rng = StdRng::seed_from_u64(47);
        let budget = Budget::unlimited();
        let err =
            vcycle_partition_with_budget(&h, &spec, VCycleParams::default(), &mut rng, &budget)
                .unwrap_err();
        assert!(matches!(err, CoreError::NoFeasibleCut { .. }));
        assert_eq!(budget.rounds_used(), 0, "rejected before any metric run");
    }

    #[test]
    fn bad_params_are_typed_errors() {
        let (h, spec) = workload(128, 3);
        let mut rng = StdRng::seed_from_u64(46);
        for params in [
            VCycleParams {
                coarsest_nodes: 0,
                ..VCycleParams::default()
            },
            VCycleParams {
                level_shrink: 1.0,
                ..VCycleParams::default()
            },
            VCycleParams {
                cluster_cap_fraction: 0.0,
                ..VCycleParams::default()
            },
            VCycleParams {
                max_levels: 0,
                ..VCycleParams::default()
            },
            VCycleParams {
                cap_decay_floor: 0,
                ..VCycleParams::default()
            },
        ] {
            assert!(matches!(
                vcycle_partition(&h, &spec, params, &mut rng),
                Err(CoreError::InvalidParams { .. })
            ));
        }
    }
}
