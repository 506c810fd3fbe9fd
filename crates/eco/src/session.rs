//! The incremental solve driver: the [`WarmPolicy`] gate in front of the
//! partitioner's seeded run, and the [`EcoSession`] that chains edits
//! across calls.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use htp_core::construct::{construct_partition_budgeted, Prior, SalvageReport};
use htp_core::injector::InjectionStats;
use htp_core::partitioner::{FlowPartitioner, IterationRecord, PartitionerParams, WarmSeed};
use htp_core::{Budget, CoreError, RunOutcome};
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

/// Runs the incremental pipeline: the [`WarmPolicy`] locality gate, then
/// Algorithm 1 seeded with the prior state ([`FlowPartitioner::run_seeded`]
/// names the three rules a seed changes). A touched closure past
/// `cold_fallback_fraction`, or a netlist under `min_warm_nodes`, takes
/// the cold fallback instead: fresh metrics, with the prior subtrees still
/// offered to construction. The best partition's metric lengths become
/// the next edit's warm seed; the stats aggregate every metric run and
/// carry the run's final interrupt.
///
/// # Errors
///
/// [`EcoError::PriorMismatch`] when the prior state does not fit;
/// [`EcoError::Core`] for invalid params (checked before the gate, with
/// the cold route's [`CoreError::InvalidParams`]) or when no construction
/// produced a feasible partition.
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
    let partitioner = FlowPartitioner::try_new(*params)?;

    // The edit-locality gate: a non-local edit (too much of the netlist
    // in the touched closure) is better served by fresh metrics. Decided
    // before any rng use, so the fallback consumes the stream exactly as
    // a from-scratch run would.
    let touched_fraction = report.touched_nodes.len() as f64 / new_h.num_nodes() as f64;
    if new_h.num_nodes() < policy.min_warm_nodes || touched_fraction > policy.cold_fallback_fraction
    {
        return cold_fallback(
            &partitioner,
            new_h,
            spec,
            prior_partition,
            report,
            rng,
            budget,
        );
    }

    let carry = report.carry_lengths(prior_lengths, new_h.num_nets());
    let seed = WarmSeed {
        lengths: &carry,
        touched: &report.touched_nodes,
        prior: prior_partition,
        node_map: &report.node_map,
    };
    let run = partitioner.run_seeded(new_h, spec, rng, budget, Some(&seed))?;
    let mut stats = aggregate(&run.result.history);
    stats.interrupt = run.interrupt;
    Ok(WarmRun {
        partition: run.result.partition,
        cost: run.result.cost,
        lengths: run.result.metric.lengths().to_vec(),
        outcome: run.outcome,
        stats,
        salvage: run.result.salvage,
        warm: true,
    })
}

/// Sums the metric stats of every iteration into one aggregate.
fn aggregate(history: &[IterationRecord]) -> InjectionStats {
    let mut agg = InjectionStats {
        converged: true,
        ..InjectionStats::default()
    };
    for record in history {
        agg.accumulate(&record.stats);
    }
    agg
}

/// The non-local-edit path: a full cold solve, with the prior partition's
/// subtrees still offered to the construction portfolio afterwards. Runs
/// off the same rng stream a from-scratch solve would, so (given the same
/// seed) it can only match or beat one.
fn cold_fallback<R: Rng + ?Sized>(
    partitioner: &FlowPartitioner,
    new_h: &Hypergraph,
    spec: &TreeSpec,
    prior_partition: &HierarchicalPartition,
    report: &TouchedReport,
    rng: &mut R,
    budget: &Budget,
) -> Result<WarmRun, EcoError> {
    let run = partitioner.run_with_budget(new_h, spec, rng, budget)?;

    // Salvaged attempts against the winning cold metric: untouched prior
    // subtrees may still beat freshly carved ones.
    let touched = report.touched_mask(new_h.num_nodes());
    let prior = Prior {
        partition: prior_partition,
        node_map: &report.node_map,
        touched: &touched,
    };
    let mut partition = run.result.partition;
    let mut best_cost = run.result.cost;
    let mut best_salvage = SalvageReport::default();
    for _ in 0..partitioner.params().constructions_per_metric {
        match construct_partition_budgeted(
            new_h,
            spec,
            &run.result.metric,
            rng,
            budget,
            Some(&prior),
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

    Ok(WarmRun {
        partition,
        cost: best_cost,
        lengths: run.result.metric.lengths().to_vec(),
        outcome: run.outcome,
        stats: aggregate(&run.result.history),
        salvage: best_salvage,
        warm: false,
    })
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
    use crate::{random_delta_clustered, AppliedDelta};
    use htp_core::injector::FlowParams;
    use htp_core::partitioner::BudgetedRun;
    use htp_core::Interrupt;
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

    /// The seeded run the warm route makes for `applied`, with the
    /// per-iteration history [`WarmRun::stats`] aggregates.
    fn seeded_run(
        s: &EcoSession,
        applied: &AppliedDelta,
        params: PartitionerParams,
        seed: u64,
        budget: &Budget,
    ) -> BudgetedRun {
        let h = &applied.hypergraph;
        let carry = applied.report.carry_lengths(s.lengths(), h.num_nets());
        let warm = WarmSeed {
            lengths: &carry,
            touched: &applied.report.touched_nodes,
            prior: s.partition(),
            node_map: &applied.report.node_map,
        };
        FlowPartitioner::try_new(params)
            .unwrap()
            .run_seeded(
                h,
                s.spec(),
                &mut StdRng::seed_from_u64(seed),
                budget,
                Some(&warm),
            )
            .unwrap()
    }

    /// A rent:600 session and a 2% clustered edit of it, which takes the
    /// warm route under the default policy.
    fn rent600_edit(seed: u64) -> (EcoSession, AppliedDelta) {
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
        (s, applied)
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
        let run = warm_partition(
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
        let seeded = seeded_run(&s, &applied, params, 4, &Budget::unlimited());
        assert_eq!(run.partition, seeded.result.partition);
        let rounds: Vec<InjectionStats> = seeded.result.history.iter().map(|r| r.stats).collect();
        assert_eq!(rounds.len(), 3);
        let agg = aggregate(&seeded.result.history);
        // Equality covers the deterministic counters; the timings of two
        // runs differ, so the sums below check them on one run.
        assert_eq!(run.stats, agg);
        let sum = |f: fn(&InjectionStats) -> usize| rounds.iter().map(f).sum::<usize>();
        let time = |f: fn(&InjectionStats) -> std::time::Duration| {
            rounds.iter().map(f).sum::<std::time::Duration>()
        };
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
        // Iteration 1 re-converges in the budget's only round; iteration
        // 2 is stopped before its first and salvages from the carried
        // metric. The outcome must say which of them produced the winner,
        // as the cold partitioner's does: seed 0's winner is salvage work
        // from iteration 2, seed 1's comes from the clean iteration 1.
        for (seed, expected) in [(0, RunOutcome::Degraded), (1, RunOutcome::DeadlineExceeded)] {
            let (s, applied) = rent600_edit(seed);
            let budget = || Budget::unlimited().with_max_rounds(1);
            let run = warm_partition(
                &applied.hypergraph,
                s.spec(),
                &quick_params(),
                &WarmPolicy::default(),
                s.partition(),
                s.lengths(),
                &applied.report,
                &mut StdRng::seed_from_u64(seed + 100),
                &budget(),
            )
            .unwrap();
            assert!(run.warm, "seed {seed}");
            assert_eq!(run.outcome, expected, "seed {seed}");
            assert_eq!(run.stats.interrupt, Some(Interrupt::RoundLimit));
            let seeded = seeded_run(&s, &applied, quick_params(), seed + 100, &budget());
            let rounds = &seeded.result.history;
            assert_eq!(rounds.len(), 2, "seed {seed}");
            assert!(
                rounds[0].stats.interrupt.is_none() && rounds[0].stats.converged,
                "seed {seed}"
            );
            assert_eq!(
                rounds[1].stats.interrupt,
                Some(Interrupt::RoundLimit),
                "seed {seed}"
            );
            assert_eq!(seeded.outcome, expected, "seed {seed}");
        }
    }

    #[test]
    fn an_interrupted_warm_run_without_a_partition_reports_the_interrupt() {
        // One node grown past the root capacity: a local edit that no
        // construction can place.
        let (s, _) = rent600_edit(3);
        let mut d = s.delta();
        d.resize_node(NodeId::new(0), 200).unwrap();
        let applied = d.apply(s.hypergraph()).unwrap();
        let solve = |budget: &Budget| {
            warm_partition(
                &applied.hypergraph,
                s.spec(),
                &quick_params(),
                &WarmPolicy::default(),
                s.partition(),
                s.lengths(),
                &applied.report,
                &mut StdRng::seed_from_u64(4),
                budget,
            )
        };
        let err = solve(&Budget::unlimited()).unwrap_err();
        assert!(
            matches!(err, EcoError::Core(CoreError::Infeasible { .. })),
            "{err:?}"
        );
        // As on the cold route, an interrupt that left nothing to salvage
        // is the error, not the last construction failure.
        let cancelled = Budget::unlimited();
        cancelled.cancel_token().cancel();
        assert_eq!(
            solve(&cancelled).unwrap_err(),
            EcoError::Core(CoreError::Interrupted(Interrupt::Cancelled))
        );
    }

    #[test]
    fn bad_params_on_the_warm_route_are_the_cold_routes_typed_errors() {
        let (s, applied) = rent600_edit(1);
        let solve = |params: &PartitionerParams| {
            warm_partition(
                &applied.hypergraph,
                s.spec(),
                params,
                &WarmPolicy::default(),
                s.partition(),
                s.lengths(),
                &applied.report,
                &mut StdRng::seed_from_u64(2),
                &Budget::unlimited(),
            )
        };
        assert!(solve(&quick_params()).unwrap().warm, "the edit is local");
        let nan_delta = PartitionerParams {
            flow: FlowParams {
                delta: f64::NAN,
                ..FlowParams::default()
            },
            ..quick_params()
        };
        let no_iterations = PartitionerParams {
            iterations: 0,
            ..quick_params()
        };
        for (params, what) in [
            (nan_delta, "delta must be positive"),
            (no_iterations, "need at least one iteration"),
        ] {
            let err = solve(&params).unwrap_err();
            assert_eq!(err, EcoError::Core(CoreError::InvalidParams { what }));
            let cold = FlowPartitioner::try_new(params).unwrap_err();
            assert_eq!(err, EcoError::Core(cold));
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
