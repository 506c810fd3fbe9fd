//! Cutting-plane (row-generation) solving of (P1) and the Lemma 2 lower
//! bound.
//!
//! Starting from the empty restricted LP, each round solves
//! `min Σ c(e)·d(e)` over the rows generated so far, then asks the
//! separation oracle for violated spreading constraints at the current
//! optimum. Since every restricted LP is a relaxation of (P1), **every
//! round's optimum is already a valid lower bound** on the cost of any
//! feasible hierarchical tree partition; at convergence the bound is the
//! (P1) optimum over the paper's constraint family (5).

use htp_core::constraint::check_feasibility;
use htp_core::SpreadingMetric;
use htp_model::TreeSpec;
use htp_netlist::{CsrHypergraph, Hypergraph};

use crate::separation::most_violated_row;
use crate::simplex::solve;
use crate::{LinearProgram, LpError, LpOutcome};

/// Parameters of the cutting-plane loop.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CuttingPlaneParams {
    /// Maximum solve/separate rounds.
    pub max_rounds: usize,
    /// Constraint-violation slack.
    pub tolerance: f64,
    /// At most this many new rows per round (the most violated ones),
    /// bounding the growth of the dense restricted LP.
    pub rows_per_round: usize,
}

impl Default for CuttingPlaneParams {
    fn default() -> Self {
        CuttingPlaneParams {
            max_rounds: 60,
            tolerance: 1e-7,
            rows_per_round: 24,
        }
    }
}

/// Result of the cutting-plane computation.
#[derive(Clone, Debug)]
pub struct LowerBoundResult {
    /// The best (largest) valid lower bound found: the final restricted
    /// LP's optimum.
    pub lower_bound: f64,
    /// The final fractional metric.
    pub metric: SpreadingMetric,
    /// `true` when no spreading constraint was violated at the final
    /// metric, i.e. `lower_bound` is the exact (P1) optimum over the
    /// constraint family (5).
    pub converged: bool,
    /// Rounds executed.
    pub rounds: usize,
    /// Constraint rows generated in total.
    pub constraints: usize,
}

/// Computes a Lemma 2 lower bound on the cost of every feasible
/// hierarchical tree partition of `h` under `spec`.
///
/// Intended for small instances (the LP is dense); complexity grows with
/// the number of generated rows.
///
/// # Errors
///
/// Returns [`LpError::Infeasible`] or [`LpError::Unbounded`] only if the
/// generated program is malformed — structurally impossible for (P1).
pub fn lower_bound(
    h: &Hypergraph,
    spec: &TreeSpec,
    params: CuttingPlaneParams,
) -> Result<LowerBoundResult, LpError> {
    let objective: Vec<f64> = h.nets().map(|e| h.net_capacity(e)).collect();
    let mut lp = LinearProgram::new(objective)?;
    let mut metric = SpreadingMetric::zeros(h.num_nets());
    let mut bound = 0.0;
    let mut rounds = 0;
    let mut converged = false;

    while rounds < params.max_rounds {
        rounds += 1;
        // Separate at the current point: one candidate row per source
        // node, keeping only the most violated ones.
        let csr = CsrHypergraph::with_lengths(h, metric.lengths());
        let mut candidates: Vec<(f64, crate::separation::ConstraintRow)> = h
            .nodes()
            .filter_map(|v| {
                most_violated_row(&csr, spec, v, params.tolerance).map(|row| {
                    let lhs: f64 = row
                        .coeffs
                        .iter()
                        .enumerate()
                        .map(|(e, &c)| c * metric.length(htp_netlist::NetId::new(e)))
                        .sum();
                    (row.rhs - lhs, row)
                })
            })
            .collect();
        candidates.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("shortfalls are not NaN"));
        candidates.truncate(params.rows_per_round);
        let added = candidates.len();
        for (_, row) in candidates {
            // A tiny per-row *downward* perturbation of the right-hand side
            // breaks the heavy degeneracy of near-duplicate tree rows (which
            // otherwise stalls the simplex). Relaxing rhs can only lower
            // the restricted optimum, so the bound stays valid.
            let jitter = 1e-9 * (1.0 + lp.num_constraints() as f64) * (1.0 + row.rhs.abs());
            lp.add_ge_constraint(row.coeffs, row.rhs - jitter)?;
        }
        if added == 0 {
            converged = true;
            break;
        }
        match solve(&lp) {
            LpOutcome::Optimal { x, objective } => {
                metric = SpreadingMetric::from_lengths(x.into_iter().map(|d| d.max(0.0)).collect());
                bound = objective;
            }
            LpOutcome::Infeasible => return Err(LpError::Infeasible),
            LpOutcome::Unbounded => return Err(LpError::Unbounded),
            // The solver gave up on this restriction; the previous round's
            // optimum is still a valid bound, so stop here.
            LpOutcome::Stalled => break,
        }
    }
    if !converged {
        // One last check so `converged` is meaningful at the round cap.
        converged = check_feasibility(h, spec, &metric, params.tolerance).feasible;
    }
    Ok(LowerBoundResult {
        lower_bound: bound,
        metric,
        converged,
        rounds,
        constraints: lp.num_constraints(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use htp_core::lower_bound::verify_lemma1;
    use htp_model::{cost, validate, HierarchicalPartition};
    use htp_netlist::{HypergraphBuilder, NodeId};

    /// Path of 4 unit nodes, C_0 = 2: the optimum cuts the middle net only,
    /// cost 2.
    fn path4() -> (Hypergraph, TreeSpec) {
        let mut b = HypergraphBuilder::with_unit_nodes(4);
        for i in 0..3u32 {
            b.add_net(1.0, [NodeId(i), NodeId(i + 1)]).unwrap();
        }
        (
            b.build().unwrap(),
            TreeSpec::new(vec![(2, 2, 1.0), (4, 2, 1.0)]).unwrap(),
        )
    }

    #[test]
    fn path_bound_is_tight() {
        let (h, spec) = path4();
        let r = lower_bound(&h, &spec, CuttingPlaneParams::default()).unwrap();
        assert!(r.converged, "rounds {}", r.rounds);
        // The optimal partition {0,1}|{2,3} costs 2 and its induced metric
        // is LP-feasible, so the LP optimum is at most 2; spreading
        // constraints force at least 2 here (g(3) = 2 from either end).
        assert!(
            (r.lower_bound - 2.0).abs() < 1e-6,
            "bound {}",
            r.lower_bound
        );
        let p = HierarchicalPartition::from_leaf_assignment(1, &[0, 0, 1, 1]).unwrap();
        assert!((cost::partition_cost(&h, &spec, &p) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn bound_never_exceeds_any_valid_partition_cost() {
        // A 2-cluster instance: check the bound against several partitions.
        let mut b = HypergraphBuilder::with_unit_nodes(8);
        for (x, y) in [
            (0u32, 1),
            (1, 2),
            (2, 3),
            (0, 3),
            (4, 5),
            (5, 6),
            (6, 7),
            (4, 7),
        ] {
            b.add_net(1.0, [NodeId(x), NodeId(y)]).unwrap();
        }
        b.add_net(1.0, [NodeId(3), NodeId(4)]).unwrap();
        let h = b.build().unwrap();
        let spec = TreeSpec::new(vec![(4, 2, 1.0), (8, 2, 1.0)]).unwrap();
        let r = lower_bound(&h, &spec, CuttingPlaneParams::default()).unwrap();
        assert!(r.converged);

        for assignment in [
            vec![0, 0, 0, 0, 1, 1, 1, 1], // planted: cost 2
            vec![0, 1, 0, 1, 0, 1, 0, 1], // scrambled
            vec![0, 0, 1, 1, 0, 0, 1, 1],
        ] {
            let p = HierarchicalPartition::from_leaf_assignment(1, &assignment).unwrap();
            validate::validate(&h, &spec, &p).unwrap();
            let c = cost::partition_cost(&h, &spec, &p);
            assert!(
                r.lower_bound <= c + 1e-6,
                "bound {} exceeds partition cost {c}",
                r.lower_bound
            );
        }
        // And here the bound certifies the planted optimum.
        assert!(
            (r.lower_bound - 2.0).abs() < 1e-6,
            "bound {}",
            r.lower_bound
        );
    }

    #[test]
    fn converged_metric_is_feasible_for_p1() {
        let (h, spec) = path4();
        let r = lower_bound(&h, &spec, CuttingPlaneParams::default()).unwrap();
        let report = htp_core::constraint::check_feasibility(&h, &spec, &r.metric, 1e-6);
        assert!(report.feasible, "shortfall {}", report.worst_shortfall);
    }

    #[test]
    fn lemma1_metric_bounds_the_lp_from_above() {
        // LP optimum <= objective of any feasible point, in particular the
        // induced metric of a feasible partition (Lemma 1 + Lemma 2 sandwich).
        let (h, spec) = path4();
        let p = HierarchicalPartition::from_leaf_assignment(1, &[0, 0, 1, 1]).unwrap();
        let (report, obj) = verify_lemma1(&h, &spec, &p, 1e-9);
        assert!(report.feasible);
        let r = lower_bound(&h, &spec, CuttingPlaneParams::default()).unwrap();
        assert!(r.lower_bound <= obj + 1e-6);
    }

    #[test]
    fn loose_spec_gives_zero_bound() {
        let (h, _) = path4();
        let spec = TreeSpec::new(vec![(10, 2, 1.0), (20, 2, 1.0)]).unwrap();
        let r = lower_bound(&h, &spec, CuttingPlaneParams::default()).unwrap();
        assert!(r.converged);
        assert_eq!(r.lower_bound, 0.0);
        assert_eq!(r.constraints, 0);
    }
}
