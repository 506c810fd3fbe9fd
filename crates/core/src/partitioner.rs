//! Algorithm 1: the outer flow-based partitioning loop.
//!
//! Each iteration computes a fresh spreading metric (Algorithm 2) and
//! constructs one or more partitions from it (Algorithm 3), keeping the best
//! feasible partition seen. Running several constructions per metric is the
//! extension suggested in the paper's conclusions: the metric computation
//! dominates the runtime, so re-rolling only the (randomized) construction
//! buys extra quality almost for free. An ECO (incremental) solve is the
//! same loop started from a prior solve's state ([`WarmSeed`]).

use rand::Rng;

use htp_model::{cost, validate, HierarchicalPartition, TreeSpec};
use htp_netlist::{Hypergraph, NodeId};

use crate::construct::{construct_partition_budgeted, Prior, SalvageReport};
use crate::injector::{compute_spreading_metric_budgeted, FlowParams, InjectionStats, WarmStart};
use crate::runtime::{Budget, Interrupt, RunOutcome};
use crate::{CoreError, SpreadingMetric};

/// Parameters of the outer loop.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PartitionerParams {
    /// Number of outer iterations `N` (fresh metric each time).
    pub iterations: usize,
    /// Constructions attempted per metric (the conclusions' extension;
    /// `1` reproduces the paper's Algorithm 1 exactly).
    pub constructions_per_metric: usize,
    /// Parameters of the metric computation, including the probe-worker
    /// thread count ([`FlowParams::threads`]) — the partitioner's output
    /// is bit-identical at any thread setting.
    pub flow: FlowParams,
}

impl Default for PartitionerParams {
    fn default() -> Self {
        PartitionerParams {
            iterations: 4,
            constructions_per_metric: 4,
            flow: FlowParams::default(),
        }
    }
}

/// Record of one outer iteration, for experiment logging.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IterationRecord {
    /// LP objective `Σ c(e)·d(e)` of the iteration's metric.
    pub metric_objective: f64,
    /// Best construction cost achieved with this metric (`None` if every
    /// construction failed).
    pub best_cost: Option<f64>,
    /// Metric-computation statistics.
    pub stats: InjectionStats,
}

/// Result of a [`FlowPartitioner`] run.
#[derive(Clone, Debug)]
pub struct FlowResult {
    /// The best feasible partition found.
    pub partition: HierarchicalPartition,
    /// Its interconnection cost.
    pub cost: f64,
    /// The spreading metric that produced the best partition.
    pub metric: SpreadingMetric,
    /// What the best partition's construction salvaged from the seed's
    /// prior partition (all zero for an unseeded run).
    pub salvage: SalvageReport,
    /// Per-iteration log.
    pub history: Vec<IterationRecord>,
}

/// Result of a budgeted [`FlowPartitioner::run_with_budget`] run: the best
/// feasible partition found, plus how the run ended.
#[derive(Clone, Debug)]
pub struct BudgetedRun {
    /// How the run ended (complete, degraded, out of budget, cancelled).
    pub outcome: RunOutcome,
    /// The best feasible partition found before the run ended. On a
    /// [`RunOutcome::Degraded`] outcome this was constructed from a
    /// partially-converged metric — still a valid partition, possibly of
    /// lower quality than a full run's.
    pub result: FlowResult,
    /// The interrupt that ended the run early, from the metric or from a
    /// construction (`None` when every iteration ran to the end).
    pub interrupt: Option<Interrupt>,
}

/// An ECO (incremental) input to Algorithm 1: the state a prior solve of
/// the pre-edit netlist left, in the edited netlist's id space.
///
/// A seeded run differs from a cold one in three rules, each a property
/// of this input (see [`FlowPartitioner::run_seeded`]).
#[derive(Clone, Copy, Debug)]
pub struct WarmSeed<'a> {
    /// Per-net carried lengths (`None` starts a net cold), as in
    /// [`WarmStart::lengths`].
    pub lengths: &'a [Option<f64>],
    /// The nodes whose spreading constraints the edit may have perturbed.
    pub touched: &'a [NodeId],
    /// The prior partition of the pre-edit netlist.
    pub prior: &'a HierarchicalPartition,
    /// `node_map[old]` is the post-edit id of pre-edit node `old` (`None`
    /// when the edit removed it).
    pub node_map: &'a [Option<NodeId>],
}

/// The network-flow-based constructive partitioner (**Algorithm 1**).
///
/// # Examples
///
/// ```
/// use htp_core::partitioner::{FlowPartitioner, PartitionerParams};
/// use htp_model::TreeSpec;
/// use htp_netlist::{HypergraphBuilder, NodeId};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = HypergraphBuilder::with_unit_nodes(8);
/// for i in 0..7u32 {
///     b.add_net(1.0, [NodeId(i), NodeId(i + 1)])?;
/// }
/// let h = b.build()?;
/// let spec = TreeSpec::new(vec![(2, 2, 1.0), (4, 2, 1.0), (8, 2, 1.0)])?;
/// let result = FlowPartitioner::try_new(PartitionerParams::default())?
///     .run(&h, &spec, &mut StdRng::seed_from_u64(1))?;
/// // A path cut into 4 leaves of 2 and 2 mid blocks of 4:
/// // 3 nets are cut, the middle one at both levels.
/// assert!(result.cost >= 4.0);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, Debug)]
pub struct FlowPartitioner {
    params: PartitionerParams,
}

impl FlowPartitioner {
    /// Creates a partitioner with the given parameters.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParams`] if `iterations` or
    /// `constructions_per_metric` is zero, or the flow parameters are out
    /// of range (see [`FlowParams::check`]).
    pub fn try_new(params: PartitionerParams) -> Result<Self, CoreError> {
        if params.iterations < 1 {
            return Err(CoreError::InvalidParams {
                what: "need at least one iteration",
            });
        }
        if params.constructions_per_metric < 1 {
            return Err(CoreError::InvalidParams {
                what: "need at least one construction",
            });
        }
        params
            .flow
            .check()
            .map_err(|what| CoreError::InvalidParams { what })?;
        Ok(FlowPartitioner { params })
    }

    /// The configured parameters.
    pub fn params(&self) -> PartitionerParams {
        self.params
    }

    /// Runs Algorithm 1 on `h` under `spec`.
    ///
    /// Equivalent to [`run_with_budget`](FlowPartitioner::run_with_budget)
    /// with an unlimited budget — and implemented as exactly that, so
    /// budgeted runs that are never interrupted are bit-identical to this.
    ///
    /// # Errors
    ///
    /// Returns the last construction error if no iteration produced a
    /// feasible partition (empty netlist, infeasible size, or no feasible
    /// cuts).
    pub fn run<R: Rng + ?Sized>(
        &self,
        h: &Hypergraph,
        spec: &TreeSpec,
        rng: &mut R,
    ) -> Result<FlowResult, CoreError> {
        self.run_with_budget(h, spec, rng, &Budget::unlimited())
            .map(|r| r.result)
    }

    /// Runs Algorithm 1 under a [`Budget`]: wall-clock deadline, global
    /// round/probe caps, and cooperative cancellation.
    ///
    /// The run degrades gracefully instead of discarding work:
    ///
    /// * A limit firing **mid-metric** stops the injection loop, then
    ///   constructs from the partially-converged metric anyway (it is
    ///   still a valid length assignment). If that salvage produces the
    ///   best partition of the run, the outcome is
    ///   [`RunOutcome::Degraded`]; if the best came from an earlier,
    ///   fully-converged iteration, it is [`RunOutcome::DeadlineExceeded`]
    ///   (or [`RunOutcome::Cancelled`] for an explicit cancel, which
    ///   always takes that name).
    /// * A limit firing **between iterations** (or mid-construction)
    ///   returns the best partition found so far as
    ///   [`RunOutcome::DeadlineExceeded`]/[`RunOutcome::Cancelled`].
    /// * Contained probe faults (panicked probes, injected oracle errors)
    ///   mark an otherwise-finished run [`RunOutcome::Degraded`].
    ///
    /// Budget checks never consume randomness: with no interrupt and no
    /// fault, the result is **bit-identical** to [`run`](FlowPartitioner::run)
    /// at any thread count, and the outcome is [`RunOutcome::Complete`].
    ///
    /// # Errors
    ///
    /// As [`run`](FlowPartitioner::run); additionally
    /// [`CoreError::Interrupted`] when the budget fired before *any*
    /// feasible partition existed (nothing to salvage).
    pub fn run_with_budget<R: Rng + ?Sized>(
        &self,
        h: &Hypergraph,
        spec: &TreeSpec,
        rng: &mut R,
        budget: &Budget,
    ) -> Result<BudgetedRun, CoreError> {
        self.run_seeded(h, spec, rng, budget, None)
    }

    /// [`run_with_budget`](FlowPartitioner::run_with_budget), optionally
    /// started from an ECO [`WarmSeed`]. Without a seed this is the cold
    /// Algorithm 1. A seed changes three rules, and nothing else:
    ///
    /// * **Metric start.** Each iteration's metric starts from the carried
    ///   lengths with only the touched nodes active — a local
    ///   re-convergence with a fresh slice of the rng stream, so the
    ///   best-of-`iterations` still samples the injector's variance. The
    ///   last iteration activates every node instead: satisfied constraints
    ///   retire after one cheap probe, while a far constraint the edit
    ///   invalidated (a new near-zero-length net can shorten distances
    ///   well outside the touched closure) is caught and re-injected, so
    ///   at least one metric of the run is re-validated against the whole
    ///   edited netlist.
    /// * **Construction order.** Each iteration first tries
    ///   `constructions_per_metric` salvaged constructions (replaying
    ///   untouched prior subtrees, see
    ///   [`construct_partition_budgeted`]), then as many plain ones, so
    ///   quality keeps parity with a cold run when the prior structure
    ///   fits the edited netlist poorly.
    /// * **Budget pre-check.** An unseeded iteration does not start once
    ///   the budget is spent. A seeded one starts anyway: its carried
    ///   lengths are already a usable metric, so even an immediately
    ///   interrupted metric still feeds salvage constructions.
    ///
    /// # Errors
    ///
    /// As [`run_with_budget`](FlowPartitioner::run_with_budget).
    ///
    /// # Panics
    ///
    /// Panics if the seed is not sized to `h` (see [`WarmStart`] and
    /// [`Prior`]).
    pub fn run_seeded<R: Rng + ?Sized>(
        &self,
        h: &Hypergraph,
        spec: &TreeSpec,
        rng: &mut R,
        budget: &Budget,
        seed: Option<&WarmSeed<'_>>,
    ) -> Result<BudgetedRun, CoreError> {
        // What a seed derives once: the touched mask salvage checks, and
        // the node set its last iteration re-validates.
        let (touched, all_nodes): (Vec<bool>, Vec<NodeId>) = match seed {
            Some(s) => {
                let mut touched = vec![false; h.num_nodes()];
                for &v in s.touched {
                    touched[v.index()] = true;
                }
                (touched, h.nodes().collect())
            }
            None => (Vec::new(), Vec::new()),
        };
        let prior = seed.map(|s| Prior {
            partition: s.prior,
            node_map: s.node_map,
            touched: &touched,
        });
        // Each iteration's construction attempts: with a seed,
        // `constructions_per_metric` salvaged ones, then as many plain ones.
        let k = self.params.constructions_per_metric;
        let attempts: Vec<Option<&Prior<'_>>> = match &prior {
            Some(prior) => [vec![Some(prior); k], vec![None; k]].concat(),
            None => vec![None; k],
        };

        let mut best: Option<FlowResult> = None;
        let mut best_from_partial = false;
        let mut history = Vec::with_capacity(self.params.iterations);
        let mut last_err = CoreError::EmptyNetlist;
        let mut interrupt: Option<Interrupt> = None;
        let mut faulted = false;

        for iteration in 0..self.params.iterations {
            if seed.is_none() {
                if let Err(irq) = budget.check() {
                    interrupt = Some(irq);
                    break;
                }
            }
            let warm = seed.map(|s| WarmStart {
                lengths: s.lengths,
                active: if iteration + 1 == self.params.iterations {
                    &all_nodes
                } else {
                    s.touched
                },
            });
            let (metric, stats) = compute_spreading_metric_budgeted(
                h,
                spec,
                self.params.flow,
                rng,
                budget,
                warm.as_ref(),
            );
            if stats.panicked_probes > 0 || stats.oracle_faults > 0 {
                faulted = true;
            }
            let metric_irq = stats.interrupt;
            let metric_objective = metric.objective(h);
            let mut iter_best: Option<f64> = None;

            // Constructions from an interrupted metric are salvage work:
            // run them unbudgeted (construction is a small fraction of the
            // metric's cost, and the expired budget would abort them
            // immediately), then stop after this iteration.
            let unlimited = Budget::unlimited();
            let construct_budget = if metric_irq.is_some() {
                &unlimited
            } else {
                budget
            };

            for &prior in &attempts {
                match construct_partition_budgeted(h, spec, &metric, rng, construct_budget, prior) {
                    Ok((p, salvage)) => {
                        if let Err(e) = validate::validate(h, spec, &p) {
                            last_err = CoreError::Model(e);
                            continue;
                        }
                        let c = cost::partition_cost(h, spec, &p);
                        if iter_best.is_none_or(|b| c < b) {
                            iter_best = Some(c);
                        }
                        let better = best.as_ref().is_none_or(|b| c < b.cost);
                        if better {
                            best = Some(FlowResult {
                                partition: p,
                                cost: c,
                                metric: metric.clone(),
                                salvage,
                                history: Vec::new(),
                            });
                            best_from_partial = metric_irq.is_some();
                        }
                    }
                    Err(CoreError::Interrupted(irq)) => {
                        interrupt = Some(irq);
                        break;
                    }
                    Err(e) => last_err = e,
                }
            }
            history.push(IterationRecord {
                metric_objective,
                best_cost: iter_best,
                stats,
            });
            if interrupt.is_some() || metric_irq.is_some() {
                interrupt = interrupt.or(metric_irq);
                break;
            }
        }

        match best {
            Some(mut result) => {
                result.history = history;
                let outcome = RunOutcome::of_run(interrupt, best_from_partial, faulted);
                Ok(BudgetedRun {
                    outcome,
                    result,
                    interrupt,
                })
            }
            None => match interrupt {
                Some(irq) => Err(CoreError::Interrupted(irq)),
                None => Err(last_err),
            },
        }
    }
}

/// Runs the inner partitioner under `budget`, falling back to one bounded
/// salvage round when the budget fires before anything was found. Used by
/// the V-cycle's coarsest solve and the job server's flat path.
///
/// # Errors
///
/// Propagates [`CoreError`] from the partitioner; an interrupt with a
/// successful salvage round is *not* an error (the interrupt stays
/// visible in the returned [`RunOutcome`]).
pub fn solve_budgeted<R: Rng + ?Sized>(
    partitioner: &FlowPartitioner,
    h: &Hypergraph,
    spec: &TreeSpec,
    rng: &mut R,
    budget: &Budget,
) -> Result<(HierarchicalPartition, RunOutcome), CoreError> {
    match partitioner.run_with_budget(h, spec, rng, budget) {
        Ok(run) => Ok((run.result.partition, run.outcome)),
        Err(CoreError::Interrupted(irq)) => {
            // The budget died before the solver could salvage anything.
            // One bounded round still yields a valid (if rough) partition;
            // the interrupt stays visible in the outcome.
            let salvage = Budget::unlimited().with_max_rounds(1);
            let run = partitioner.run_with_budget(h, spec, rng, &salvage)?;
            Ok((run.result.partition, RunOutcome::from_interrupt(irq)))
        }
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htp_netlist::gen::clustered::{clustered_hypergraph, ClusteredParams};
    use htp_netlist::{HypergraphBuilder, NodeId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn finds_the_planted_two_cluster_cut() {
        let mut rng = StdRng::seed_from_u64(2);
        let params = ClusteredParams {
            clusters: 2,
            cluster_size: 8,
            intra_nets: 48,
            inter_nets: 3,
            min_net_size: 2,
            max_net_size: 2,
        };
        let inst = clustered_hypergraph(params, &mut rng);
        let h = &inst.hypergraph;
        let spec = TreeSpec::new(vec![(8, 2, 1.0), (16, 2, 1.0)]).unwrap();
        let result = FlowPartitioner::try_new(PartitionerParams::default())
            .unwrap()
            .run(h, &spec, &mut rng)
            .unwrap();
        // The planted optimum cuts exactly the 3 inter-cluster nets.
        assert_eq!(result.cost, 6.0, "history: {:?}", result.history);
        assert_eq!(result.history.len(), 4);
    }

    #[test]
    fn history_and_metric_are_reported() {
        let mut b = HypergraphBuilder::with_unit_nodes(8);
        for i in 0..7u32 {
            b.add_net(1.0, [NodeId(i), NodeId(i + 1)]).unwrap();
        }
        let h = b.build().unwrap();
        let spec = TreeSpec::new(vec![(4, 2, 1.0), (8, 2, 1.0)]).unwrap();
        let result = FlowPartitioner::try_new(PartitionerParams {
            iterations: 2,
            constructions_per_metric: 3,
            flow: FlowParams::default(),
        })
        .unwrap()
        .run(&h, &spec, &mut StdRng::seed_from_u64(5))
        .unwrap();
        assert_eq!(result.history.len(), 2);
        for rec in &result.history {
            assert!(rec.metric_objective > 0.0);
            assert!(rec.best_cost.is_some());
        }
        assert_eq!(result.metric.len(), h.num_nets());
        // A path of 8 with C_0 = 4 needs at least one cut net: cost >= 2.
        assert!(result.cost >= 2.0);
    }

    #[test]
    fn propagates_infeasibility() {
        let h = HypergraphBuilder::with_unit_nodes(100).build().unwrap();
        let spec = TreeSpec::new(vec![(2, 2, 1.0), (4, 2, 1.0)]).unwrap();
        let err = FlowPartitioner::try_new(PartitionerParams::default())
            .unwrap()
            .run(&h, &spec, &mut StdRng::seed_from_u64(0))
            .unwrap_err();
        assert!(matches!(err, CoreError::Infeasible { .. }));
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let mut rng = StdRng::seed_from_u64(8);
        let inst = clustered_hypergraph(ClusteredParams::default(), &mut rng);
        let spec = TreeSpec::full_tree(inst.hypergraph.total_size(), 2, 2, 1.2, 1.0).unwrap();
        let p = PartitionerParams {
            iterations: 2,
            constructions_per_metric: 2,
            flow: FlowParams::default(),
        };
        let r1 = FlowPartitioner::try_new(p)
            .unwrap()
            .run(&inst.hypergraph, &spec, &mut StdRng::seed_from_u64(11))
            .unwrap();
        let r2 = FlowPartitioner::try_new(p)
            .unwrap()
            .run(&inst.hypergraph, &spec, &mut StdRng::seed_from_u64(11))
            .unwrap();
        assert_eq!(r1.cost, r2.cost);
        assert_eq!(r1.partition, r2.partition);
    }

    #[test]
    fn zero_iterations_is_an_invalid_params_error() {
        let err = FlowPartitioner::try_new(PartitionerParams {
            iterations: 0,
            ..PartitionerParams::default()
        })
        .unwrap_err();
        assert_eq!(
            err,
            CoreError::InvalidParams {
                what: "need at least one iteration"
            }
        );
        let err = FlowPartitioner::try_new(PartitionerParams {
            constructions_per_metric: 0,
            ..PartitionerParams::default()
        })
        .unwrap_err();
        assert!(matches!(err, CoreError::InvalidParams { .. }));
        let err = FlowPartitioner::try_new(PartitionerParams {
            flow: FlowParams {
                delta: f64::NAN,
                ..FlowParams::default()
            },
            ..PartitionerParams::default()
        })
        .unwrap_err();
        assert_eq!(
            err,
            CoreError::InvalidParams {
                what: "delta must be positive"
            }
        );
    }

    #[test]
    fn run_with_budget_matches_run_when_unlimited() {
        let mut rng = StdRng::seed_from_u64(8);
        let inst = clustered_hypergraph(ClusteredParams::default(), &mut rng);
        let spec = TreeSpec::full_tree(inst.hypergraph.total_size(), 2, 2, 1.2, 1.0).unwrap();
        let part = FlowPartitioner::try_new(PartitionerParams {
            iterations: 2,
            constructions_per_metric: 2,
            flow: FlowParams::default(),
        })
        .unwrap();
        let plain = part
            .run(&inst.hypergraph, &spec, &mut StdRng::seed_from_u64(23))
            .unwrap();
        let budgeted = part
            .run_with_budget(
                &inst.hypergraph,
                &spec,
                &mut StdRng::seed_from_u64(23),
                &Budget::unlimited(),
            )
            .unwrap();
        assert_eq!(budgeted.outcome, RunOutcome::Complete);
        assert_eq!(plain.partition, budgeted.result.partition);
        assert_eq!(plain.cost, budgeted.result.cost);
        assert_eq!(plain.history, budgeted.result.history);
    }

    #[test]
    fn pre_cancelled_budget_has_nothing_to_salvage() {
        let mut rng = StdRng::seed_from_u64(8);
        let inst = clustered_hypergraph(ClusteredParams::default(), &mut rng);
        let spec = TreeSpec::full_tree(inst.hypergraph.total_size(), 2, 2, 1.2, 1.0).unwrap();
        let budget = Budget::unlimited();
        budget.cancel_token().cancel();
        let err = FlowPartitioner::try_new(PartitionerParams::default())
            .unwrap()
            .run_with_budget(&inst.hypergraph, &spec, &mut rng, &budget)
            .unwrap_err();
        assert_eq!(err, CoreError::Interrupted(crate::Interrupt::Cancelled));
    }

    #[test]
    fn solve_budgeted_salvages_a_pre_cancelled_budget() {
        let mut rng = StdRng::seed_from_u64(17);
        let inst = clustered_hypergraph(ClusteredParams::default(), &mut rng);
        let h = &inst.hypergraph;
        let spec = TreeSpec::full_tree(h.total_size(), 2, 2, 1.2, 1.0).unwrap();
        let budget = Budget::unlimited();
        budget.cancel_token().cancel(); // cancelled before the solve starts
        let partitioner = FlowPartitioner::try_new(PartitionerParams::default()).unwrap();
        let (partition, outcome) =
            solve_budgeted(&partitioner, h, &spec, &mut rng, &budget).unwrap();
        assert_eq!(
            outcome,
            RunOutcome::Cancelled,
            "the interrupt must be visible, not swallowed"
        );
        htp_model::validate::validate(h, &spec, &partition).unwrap();
    }

    #[test]
    fn round_capped_run_degrades_to_a_valid_partition() {
        let mut rng = StdRng::seed_from_u64(8);
        let inst = clustered_hypergraph(ClusteredParams::default(), &mut rng);
        let h = &inst.hypergraph;
        let spec = TreeSpec::full_tree(h.total_size(), 2, 2, 1.2, 1.0).unwrap();
        // One injection round is nowhere near convergence on this
        // instance, so the first metric is interrupted and the partition
        // is salvaged from it.
        let budget = Budget::unlimited().with_max_rounds(1);
        let run = FlowPartitioner::try_new(PartitionerParams::default())
            .unwrap()
            .run_with_budget(h, &spec, &mut StdRng::seed_from_u64(23), &budget)
            .unwrap();
        assert_eq!(run.outcome, RunOutcome::Degraded);
        assert_eq!(run.result.history.len(), 1);
        let stats = run.result.history[0].stats;
        assert_eq!(stats.interrupt, Some(crate::Interrupt::RoundLimit));
        assert!(!stats.converged);
        htp_model::validate::validate(h, &spec, &run.result.partition).unwrap();
    }
}
