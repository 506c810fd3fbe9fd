//! The incremental solve driver: warm metric + salvaged construction,
//! and the [`EcoSession`] that chains edits across calls.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use htp_core::construct::{
    construct_partition_budgeted, construct_partition_salvaged, SalvageReport,
};
use htp_core::injector::{compute_spreading_metric_warm, InjectionStats, WarmStart};
use htp_core::partitioner::{FlowPartitioner, PartitionerParams};
use htp_core::{Budget, CoreError, Interrupt, RunOutcome};
use htp_model::{cost, validate, HierarchicalPartition, TreeSpec};
use htp_netlist::Hypergraph;

use crate::delta::{NetlistDelta, TouchedReport};
use crate::error::EcoError;

/// Policy knobs of the incremental solver that the cold partitioner's
/// [`PartitionerParams`] do not cover.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WarmPolicy {
    /// When the one-hop touched closure covers more than this fraction
    /// of the edited netlist's nodes, the edit is not local: carried
    /// lengths would anchor the metric in the pre-edit basin while most
    /// of the instance changed underneath it. The solve then falls back
    /// to cold metrics — but still offers the prior partition's subtrees
    /// to the construction portfolio, so surviving structure is reused
    /// either way.
    pub cold_fallback_fraction: f64,
    /// Netlists smaller than this always take the cold path. On tiny
    /// instances a from-scratch metric costs about as much as a warm
    /// re-pricing, while the stochastic injector's metric-to-metric
    /// variance is at its worst — carrying the pre-edit basin risks real
    /// quality for no real speedup.
    pub min_warm_nodes: usize,
}

impl Default for WarmPolicy {
    fn default() -> Self {
        // Below ~a quarter of the instance, warm re-pricing reliably
        // tracks the edit; past it, the pre-edit basin starts to cost
        // more quality than the locality saves (differential test,
        // `warm_solves_certify_within_five_percent_of_cold`). The node
        // floor matches the injector's own small-instance threshold for
        // the adaptive probe schedule.
        WarmPolicy {
            cold_fallback_fraction: 0.25,
            min_warm_nodes: 256,
        }
    }
}

/// Result of one incremental (warm) solve.
#[derive(Clone, Debug)]
pub struct WarmRun {
    /// The certified-quality partition of the edited netlist.
    pub partition: HierarchicalPartition,
    /// Its interconnection cost.
    pub cost: f64,
    /// The (re-)converged per-net lengths — the warm seed for the *next*
    /// edit in the chain.
    pub lengths: Vec<f64>,
    /// How the run ended.
    pub outcome: RunOutcome,
    /// Metric-phase statistics (rounds, injections, probes).
    pub stats: InjectionStats,
    /// What subtree salvage reused, for the best construction.
    pub salvage: SalvageReport,
    /// `false` when the [`WarmPolicy`] routed this solve through cold
    /// metrics because the edit touched too much of the netlist.
    pub warm: bool,
}

/// [`WarmRun`] without the bulky fields — what [`EcoSession::apply`]
/// hands back after folding the rest into the session state.
#[derive(Clone, Copy, Debug)]
pub struct EcoReport {
    /// How the run ended.
    pub outcome: RunOutcome,
    /// Cost of the new incumbent partition.
    pub cost: f64,
    /// Directly perturbed nodes (pre-expansion).
    pub changed_nodes: usize,
    /// Nodes re-probed by the warm metric run.
    pub touched_nodes: usize,
    /// Nets live for re-pricing.
    pub touched_nets: usize,
    /// Metric-phase statistics.
    pub stats: InjectionStats,
    /// Subtree-salvage summary for the winning construction.
    pub salvage: SalvageReport,
    /// Whether the warm path ran (`false`: cold-fallback policy fired).
    pub warm: bool,
}

/// Runs the incremental pipeline: first the [`WarmPolicy`] locality gate
/// (a touched closure past `cold_fallback_fraction` routes to the cold
/// fallback — fresh metrics, prior subtrees still offered to
/// construction); then, like the cold solver's outer loop,
/// `params.iterations` metric+construct rounds — but each round's metric
/// is warm-started from the prior lengths (only `report.touched_nodes`
/// live for re-pricing), so a round costs a local re-convergence instead
/// of a from-scratch one. Multiple warm rounds matter for quality, not
/// just speed: the stochastic injector's metric-to-metric variance is
/// what the cold solver's best-of-`iterations` exploits, and a single
/// warm metric would forfeit that.
///
/// Each round constructs both *salvaged* attempts (replaying untouched
/// prior subtrees) and plain attempts from its warm metric; the best
/// partition across all rounds wins, and that round's converged lengths
/// become the next edit's warm seed.
///
/// The outcome follows the cold partitioner's rule
/// ([`RunOutcome::of_run`]): an interrupted metric still constructs
/// (unbudgeted salvage) and stops iterating. The run is then
/// [`RunOutcome::Degraded`] when the best partition came from that
/// interrupted metric and [`RunOutcome::DeadlineExceeded`] when it came
/// from an earlier, clean round; an explicit cancel is
/// [`RunOutcome::Cancelled`]; contained probe faults degrade an
/// otherwise-complete run. Reported stats aggregate every round.
///
/// # Errors
///
/// [`EcoError::PriorMismatch`] when the prior state does not fit;
/// [`EcoError::Core`] when no construction produced a feasible partition.
#[allow(clippy::too_many_arguments)]
pub fn warm_partition<R: Rng + ?Sized>(
    new_h: &Hypergraph,
    spec: &TreeSpec,
    params: &PartitionerParams,
    policy: &WarmPolicy,
    prior_partition: &HierarchicalPartition,
    prior_lengths: &[f64],
    report: &TouchedReport,
    rng: &mut R,
    budget: &Budget,
) -> Result<WarmRun, EcoError> {
    warm_partition_rounds(
        new_h,
        spec,
        params,
        policy,
        prior_partition,
        prior_lengths,
        report,
        rng,
        budget,
    )
    .map(|(run, _)| run)
}

/// Sums per-metric-run stats into one aggregate.
fn aggregate(runs: &[InjectionStats]) -> InjectionStats {
    let mut agg = InjectionStats {
        converged: true,
        ..InjectionStats::default()
    };
    for stats in runs {
        agg.accumulate(stats);
    }
    agg
}

/// [`warm_partition`], also returning the stats of every metric run its
/// [`WarmRun::stats`] aggregates.
#[allow(clippy::too_many_arguments)]
fn warm_partition_rounds<R: Rng + ?Sized>(
    new_h: &Hypergraph,
    spec: &TreeSpec,
    params: &PartitionerParams,
    policy: &WarmPolicy,
    prior_partition: &HierarchicalPartition,
    prior_lengths: &[f64],
    report: &TouchedReport,
    rng: &mut R,
    budget: &Budget,
) -> Result<(WarmRun, Vec<InjectionStats>), EcoError> {
    if prior_lengths.len() != report.net_map.len() {
        return Err(EcoError::PriorMismatch {
            what: "prior lengths are not sized to the prior netlist's nets",
        });
    }
    if prior_partition.num_nodes() != report.node_map.len() {
        return Err(EcoError::PriorMismatch {
            what: "prior partition is not sized to the prior netlist's nodes",
        });
    }
    if new_h.num_nodes() == 0 {
        return Err(EcoError::Core(CoreError::EmptyNetlist));
    }

    // The edit-locality gate: a non-local edit (too much of the netlist
    // in the touched closure) is better served by fresh metrics. Decided
    // before any rng use, so the fallback consumes the stream exactly as
    // a from-scratch run would.
    let touched_fraction = report.touched_nodes.len() as f64 / new_h.num_nodes() as f64;
    if new_h.num_nodes() < policy.min_warm_nodes || touched_fraction > policy.cold_fallback_fraction
    {
        return cold_fallback(new_h, spec, params, prior_partition, report, rng, budget);
    }

    let carry = report.carry_lengths(prior_lengths, new_h.num_nets());
    let touched_mask = report.touched_mask(new_h.num_nodes());
    let unlimited = Budget::unlimited();

    // Best across every round, with the lengths of the metric that
    // produced it (the next edit's warm seed).
    let mut best: Option<(HierarchicalPartition, f64, SalvageReport, Vec<f64>)> = None;
    let mut best_from_partial = false;
    let mut last_err = CoreError::EmptyNetlist;
    let mut interrupt: Option<Interrupt> = None;
    let mut metric_irq: Option<Interrupt> = None;
    let mut round_stats = Vec::new();
    let attempts = params.constructions_per_metric.max(1);

    let rounds = params.iterations.max(1);
    let all_nodes: Vec<_> = new_h.nodes().collect();
    'rounds: for round in 0..rounds {
        // Every round re-prices the same touched frontier from the same
        // carried lengths, but with a fresh slice of the rng stream — an
        // independent sample of the stochastic injector. The final round
        // probes the *full* node set: satisfied constraints retire after
        // one cheap probe, while any far constraint an edit invalidated
        // (a new near-zero-length net can shorten distances well outside
        // the touched closure) gets caught and re-injected — so at least
        // one metric in the portfolio is fully re-validated against the
        // edited netlist.
        let active: &[_] = if round + 1 == rounds {
            &all_nodes
        } else {
            &report.touched_nodes
        };
        let (metric, stats) = compute_spreading_metric_warm(
            new_h,
            spec,
            params.flow,
            rng,
            budget,
            &WarmStart {
                lengths: &carry,
                active,
            },
        );
        let round_irq = stats.interrupt;
        round_stats.push(stats);

        // As in the cold partitioner: constructions from an interrupted
        // metric are salvage work and run unbudgeted.
        let construct_budget = if round_irq.is_some() {
            &unlimited
        } else {
            budget
        };

        // Construction portfolio: salvaged attempts (replay untouched
        // prior subtrees, carve only the perturbed remainder) *and*
        // plain attempts from the warm metric. Salvage gives speed and
        // stability; the plain attempts keep quality parity with a cold
        // run when the prior structure is a poor fit for the edited
        // instance. Construction is a small fraction of the metric
        // phase's cost, so doubling the attempts barely dents the warm
        // speedup.
        for attempt in 0..attempts * 2 {
            let salvaged = attempt < attempts;
            let built = if salvaged {
                construct_partition_salvaged(
                    new_h,
                    spec,
                    &metric,
                    rng,
                    construct_budget,
                    prior_partition,
                    &report.node_map,
                    &touched_mask,
                )
            } else {
                construct_partition_budgeted(new_h, spec, &metric, rng, construct_budget)
                    .map(|p| (p, SalvageReport::default()))
            };
            match built {
                Ok((p, salvage)) => {
                    if let Err(e) = validate::validate(new_h, spec, &p) {
                        last_err = CoreError::Model(e);
                        continue;
                    }
                    let c = cost::partition_cost(new_h, spec, &p);
                    if best.as_ref().is_none_or(|(_, b, _, _)| c < *b) {
                        best = Some((p, c, salvage, metric.lengths().to_vec()));
                        best_from_partial = round_irq.is_some();
                    }
                }
                Err(CoreError::Interrupted(irq)) => {
                    interrupt = Some(irq);
                    break 'rounds;
                }
                Err(e) => last_err = e,
            }
        }

        if round_irq.is_some() {
            metric_irq = round_irq;
            break;
        }
    }
    let mut agg = aggregate(&round_stats);
    agg.interrupt = interrupt.or(metric_irq);

    match best {
        Some((partition, cost, salvage, lengths)) => {
            let faulted = agg.panicked_probes > 0 || agg.oracle_faults > 0;
            let outcome = RunOutcome::of_run(agg.interrupt, best_from_partial, faulted);
            let run = WarmRun {
                partition,
                cost,
                lengths,
                outcome,
                stats: agg,
                salvage,
                warm: true,
            };
            Ok((run, round_stats))
        }
        None => match interrupt {
            Some(irq) => Err(EcoError::Core(CoreError::Interrupted(irq))),
            None => Err(EcoError::Core(last_err)),
        },
    }
}

/// The non-local-edit path: a full cold solve, with the prior partition's
/// subtrees still offered to the construction portfolio afterwards. Runs
/// off the same rng stream a from-scratch solve would, so (given the same
/// seed) it can only match or beat one.
fn cold_fallback<R: Rng + ?Sized>(
    new_h: &Hypergraph,
    spec: &TreeSpec,
    params: &PartitionerParams,
    prior_partition: &HierarchicalPartition,
    report: &TouchedReport,
    rng: &mut R,
    budget: &Budget,
) -> Result<(WarmRun, Vec<InjectionStats>), EcoError> {
    let run = FlowPartitioner::try_new(*params)?.run_with_budget(new_h, spec, rng, budget)?;
    let run_stats: Vec<InjectionStats> = run.result.history.iter().map(|r| r.stats).collect();

    // Salvaged attempts against the winning cold metric: untouched prior
    // subtrees may still beat freshly carved ones.
    let touched_mask = report.touched_mask(new_h.num_nodes());
    let mut partition = run.result.partition;
    let mut best_cost = run.result.cost;
    let mut best_salvage = SalvageReport::default();
    for _ in 0..params.constructions_per_metric.max(1) {
        match construct_partition_salvaged(
            new_h,
            spec,
            &run.result.metric,
            rng,
            budget,
            prior_partition,
            &report.node_map,
            &touched_mask,
        ) {
            Ok((p, salvage)) => {
                if validate::validate(new_h, spec, &p).is_ok() {
                    let c = cost::partition_cost(new_h, spec, &p);
                    if c < best_cost {
                        partition = p;
                        best_cost = c;
                        best_salvage = salvage;
                    }
                }
            }
            Err(CoreError::Interrupted(_)) => break,
            Err(_) => {}
        }
    }

    let warm_run = WarmRun {
        partition,
        cost: best_cost,
        lengths: run.result.metric.lengths().to_vec(),
        outcome: run.outcome,
        stats: aggregate(&run_stats),
        salvage: best_salvage,
        warm: false,
    };
    Ok((warm_run, run_stats))
}

/// A chained incremental-repartitioning session: holds the current
/// netlist, its partition, and the converged metric lengths, and applies
/// [`NetlistDelta`]s against that state — each warm solve's output
/// becomes the next edit's warm seed.
#[derive(Clone, Debug)]
pub struct EcoSession {
    h: Hypergraph,
    spec: TreeSpec,
    params: PartitionerParams,
    policy: WarmPolicy,
    lengths: Vec<f64>,
    partition: HierarchicalPartition,
    cost: f64,
}

impl EcoSession {
    /// Starts a session with a cold from-scratch solve of `h`.
    ///
    /// # Errors
    ///
    /// [`EcoError::Core`] when the cold solve fails (invalid params,
    /// infeasible instance, …).
    pub fn bootstrap(
        h: Hypergraph,
        spec: TreeSpec,
        params: PartitionerParams,
        seed: u64,
    ) -> Result<Self, EcoError> {
        let result =
            FlowPartitioner::try_new(params)?.run(&h, &spec, &mut StdRng::seed_from_u64(seed))?;
        Ok(EcoSession {
            lengths: result.metric.lengths().to_vec(),
            partition: result.partition,
            cost: result.cost,
            h,
            spec,
            params,
            policy: WarmPolicy::default(),
        })
    }

    /// Resumes a session from an externally stored prior result (a state
    /// file or a server cache entry).
    ///
    /// # Errors
    ///
    /// [`EcoError::PriorMismatch`] when `lengths` or `partition` is not
    /// sized to `h`; [`EcoError::Core`] for invalid params.
    pub fn from_prior(
        h: Hypergraph,
        spec: TreeSpec,
        params: PartitionerParams,
        lengths: Vec<f64>,
        partition: HierarchicalPartition,
        cost: f64,
    ) -> Result<Self, EcoError> {
        FlowPartitioner::try_new(params)?;
        if lengths.len() != h.num_nets() {
            return Err(EcoError::PriorMismatch {
                what: "length vector is not sized to the netlist's nets",
            });
        }
        if partition.num_nodes() != h.num_nodes() {
            return Err(EcoError::PriorMismatch {
                what: "partition is not sized to the netlist's nodes",
            });
        }
        Ok(EcoSession {
            h,
            spec,
            params,
            policy: WarmPolicy::default(),
            lengths,
            partition,
            cost,
        })
    }

    /// Overrides the default [`WarmPolicy`].
    pub fn set_policy(&mut self, policy: WarmPolicy) {
        self.policy = policy;
    }

    /// Starts an edit script against the session's current netlist.
    pub fn delta(&self) -> NetlistDelta {
        NetlistDelta::for_graph(&self.h)
    }

    /// The session's current netlist.
    pub fn hypergraph(&self) -> &Hypergraph {
        &self.h
    }

    /// The session's tree spec.
    pub fn spec(&self) -> &TreeSpec {
        &self.spec
    }

    /// The current incumbent partition.
    pub fn partition(&self) -> &HierarchicalPartition {
        &self.partition
    }

    /// The incumbent's cost.
    pub fn cost(&self) -> f64 {
        self.cost
    }

    /// The converged per-net lengths of the current netlist.
    pub fn lengths(&self) -> &[f64] {
        &self.lengths
    }

    /// Applies an edit script incrementally: edits the netlist, warm
    /// starts the metric on the touched frontier, constructs with subtree
    /// salvage, and commits the result as the new session state.
    ///
    /// On error the session state is unchanged.
    ///
    /// # Errors
    ///
    /// Delta validation errors from [`NetlistDelta::apply`], plus
    /// [`EcoError::Core`] when the warm solve fails.
    pub fn apply(
        &mut self,
        delta: &NetlistDelta,
        seed: u64,
        budget: &Budget,
    ) -> Result<EcoReport, EcoError> {
        let applied = delta.apply(&self.h)?;
        let run = warm_partition(
            &applied.hypergraph,
            &self.spec,
            &self.params,
            &self.policy,
            &self.partition,
            &self.lengths,
            &applied.report,
            &mut StdRng::seed_from_u64(seed),
            budget,
        )?;
        let report = EcoReport {
            outcome: run.outcome,
            cost: run.cost,
            changed_nodes: applied.report.changed_nodes,
            touched_nodes: applied.report.touched_nodes.len(),
            touched_nets: applied.report.touched_nets.len(),
            stats: run.stats,
            salvage: run.salvage,
            warm: run.warm,
        };
        self.h = applied.hypergraph;
        self.lengths = run.lengths;
        self.partition = run.partition;
        self.cost = run.cost;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random_delta_clustered;
    use htp_netlist::gen::rent::{rent_circuit, RentParams};
    use htp_netlist::{HypergraphBuilder, NodeId};

    fn chain(n: usize) -> Hypergraph {
        let mut b = HypergraphBuilder::with_unit_nodes(n);
        for i in 0..n - 1 {
            b.add_net(1.0, [NodeId::new(i), NodeId::new(i + 1)])
                .unwrap();
        }
        b.build().unwrap()
    }

    fn quick_params() -> PartitionerParams {
        PartitionerParams {
            iterations: 2,
            constructions_per_metric: 2,
            ..PartitionerParams::default()
        }
    }

    #[test]
    fn session_chains_edits_and_stays_valid() {
        let h = chain(16);
        let spec = TreeSpec::full_tree(16, 2, 2, 1.25, 1.0).unwrap();
        let mut s = EcoSession::bootstrap(h, spec, quick_params(), 7).unwrap();
        for round in 0..3u64 {
            let mut d = s.delta();
            let v = d.add_node(1).unwrap();
            let anchor = NodeId::new(round as usize);
            d.add_net(1.0, vec![anchor, v]).unwrap();
            let report = s.apply(&d, 100 + round, &Budget::unlimited()).unwrap();
            assert_eq!(report.outcome, RunOutcome::Complete);
            assert!(report.touched_nodes >= 2);
            validate::validate(s.hypergraph(), s.spec(), s.partition()).unwrap();
            assert_eq!(s.cost(), report.cost);
        }
        assert_eq!(s.hypergraph().num_nodes(), 19);
    }

    #[test]
    fn multi_round_aggregate_is_the_field_wise_sum_of_its_rounds() {
        let h = chain(32);
        let spec = TreeSpec::full_tree(32, 2, 2, 1.25, 1.0).unwrap();
        let params = PartitionerParams {
            iterations: 3,
            constructions_per_metric: 1,
            ..PartitionerParams::default()
        };
        let s = EcoSession::bootstrap(h, spec, params, 3).unwrap();
        let mut d = s.delta();
        let v = d.add_node(1).unwrap();
        d.add_net(1.0, vec![NodeId::new(5), v]).unwrap();
        let applied = d.apply(s.hypergraph()).unwrap();
        // Force the warm path whatever the instance size.
        let policy = WarmPolicy {
            cold_fallback_fraction: 1.0,
            min_warm_nodes: 0,
        };
        let (run, rounds) = warm_partition_rounds(
            &applied.hypergraph,
            s.spec(),
            &params,
            &policy,
            s.partition(),
            s.lengths(),
            &applied.report,
            &mut StdRng::seed_from_u64(4),
            &Budget::unlimited(),
        )
        .unwrap();
        assert!(run.warm);
        assert_eq!(rounds.len(), 3);
        let sum = |f: fn(&InjectionStats) -> usize| rounds.iter().map(f).sum::<usize>();
        let time = |f: fn(&InjectionStats) -> std::time::Duration| {
            rounds.iter().map(f).sum::<std::time::Duration>()
        };
        let agg = run.stats;
        assert_eq!(agg.injections, sum(|r| r.injections));
        assert_eq!(agg.rounds, sum(|r| r.rounds));
        assert_eq!(agg.probes, sum(|r| r.probes));
        assert_eq!(agg.wasted_probes, sum(|r| r.wasted_probes));
        assert_eq!(agg.panicked_probes, sum(|r| r.panicked_probes));
        assert_eq!(agg.deferrals, sum(|r| r.deferrals));
        assert_eq!(agg.oracle_faults, sum(|r| r.oracle_faults));
        assert_eq!(agg.dial_rounds, sum(|r| r.dial_rounds));
        assert_eq!(agg.heap_rounds, sum(|r| r.heap_rounds));
        assert_eq!(agg.probe_time, time(|r| r.probe_time));
        assert_eq!(agg.commit_time, time(|r| r.commit_time));
        assert_eq!(agg.repricing_time, time(|r| r.repricing_time));
        assert_eq!(agg.converged, rounds.iter().all(|r| r.converged));
        assert_eq!(agg.interrupt, None);
        // Every round is probed with exactly one of the two frontiers.
        assert_eq!(agg.dial_rounds + agg.heap_rounds, agg.rounds);
        assert!(agg.rounds > 0);
    }

    #[test]
    fn interrupted_warm_runs_name_where_the_best_partition_came_from() {
        // Round 1 re-converges in the budget's only round; round 2 is
        // stopped before its first and salvages from the carried metric.
        // The outcome must say which of them produced the winner, as the
        // cold partitioner's does: seed 0's winner is salvage work from
        // round 2, seed 1's comes from the clean round 1.
        for (seed, expected) in [(0, RunOutcome::Degraded), (1, RunOutcome::DeadlineExceeded)] {
            let mut rng = StdRng::seed_from_u64(seed);
            let h = rent_circuit(
                RentParams {
                    nodes: 600,
                    primary_inputs: 600 / 16,
                    locality: 0.8,
                    ..RentParams::default()
                },
                &mut rng,
            );
            let spec = TreeSpec::full_tree(h.total_size(), 3, 2, 1.15, 1.0).unwrap();
            let s = EcoSession::bootstrap(h, spec, quick_params(), seed).unwrap();
            let delta = random_delta_clustered(s.hypergraph(), 0.02, &mut rng);
            let applied = delta.apply(s.hypergraph()).unwrap();
            let (run, rounds) = warm_partition_rounds(
                &applied.hypergraph,
                s.spec(),
                &quick_params(),
                &WarmPolicy::default(),
                s.partition(),
                s.lengths(),
                &applied.report,
                &mut StdRng::seed_from_u64(seed + 100),
                &Budget::unlimited().with_max_rounds(1),
            )
            .unwrap();
            assert!(run.warm, "seed {seed}");
            assert_eq!(rounds.len(), 2, "seed {seed}");
            assert!(
                rounds[0].interrupt.is_none() && rounds[0].converged,
                "seed {seed}"
            );
            assert_eq!(
                rounds[1].interrupt,
                Some(Interrupt::RoundLimit),
                "seed {seed}"
            );
            assert_eq!(run.outcome, expected, "seed {seed}");
        }
    }

    #[test]
    fn failed_apply_leaves_the_session_untouched() {
        let h = chain(8);
        let spec = TreeSpec::full_tree(8, 2, 2, 1.25, 1.0).unwrap();
        let mut s = EcoSession::bootstrap(h, spec, quick_params(), 1).unwrap();
        let before_cost = s.cost();
        let mut d = s.delta();
        d.remove_node(NodeId::new(3)).unwrap();
        d.remove_node(NodeId::new(3)).unwrap(); // double removal: typed error
        let err = s.apply(&d, 2, &Budget::unlimited()).unwrap_err();
        assert_eq!(err, EcoError::NodeAlreadyRemoved { node: 3 });
        assert_eq!(s.cost(), before_cost);
        assert_eq!(s.hypergraph().num_nodes(), 8);
    }

    #[test]
    fn from_prior_rejects_mismatched_state() {
        let h = chain(8);
        let spec = TreeSpec::full_tree(8, 2, 2, 1.25, 1.0).unwrap();
        let s = EcoSession::bootstrap(h.clone(), spec.clone(), quick_params(), 1).unwrap();
        let err = EcoSession::from_prior(
            h,
            spec,
            quick_params(),
            vec![1.0; 3], // wrong net count
            s.partition().clone(),
            s.cost(),
        )
        .unwrap_err();
        assert!(matches!(err, EcoError::PriorMismatch { .. }));
    }
}
