//! Separation oracle: violating shortest-path trees as LP rows.
//!
//! For a fixed tree `S(v, k)` with parent structure, Equation 6 of the
//! paper rewrites the left-hand side of a spreading constraint as
//! `Σ_e d(e)·δ(S(v,k), e)`, where `δ(S(v,k), e)` is the total node size of
//! the subtree hanging below net `e`. Since shortest-path distances are
//! never longer than tree-path distances, the tree-linearized constraint is
//! implied by the true constraint — adding it to a restricted LP keeps that
//! LP a *relaxation* of (P1), which is what makes the cutting-plane lower
//! bound valid.

use htp_core::sptree::{CsrGrowerScratch, TreeStep};
use htp_graph::IndexedMinHeap;
use htp_model::{gfn, TreeSpec};
use htp_netlist::{CsrHypergraph, NodeId};

/// One linearized spreading constraint: `Σ_e coeffs[e]·d(e) >= rhs`.
#[derive(Clone, Debug, PartialEq)]
pub struct ConstraintRow {
    /// δ coefficients, one per net (dense).
    pub coeffs: Vec<f64>,
    /// The bound `g(s(S(v, k)))`.
    pub rhs: f64,
    /// The source node the tree was grown from (for diagnostics).
    pub source: NodeId,
}

/// Grows the shortest-path tree from `source` under the lengths in `csr`'s
/// slab and returns a row for the **most violated** prefix (largest
/// `g − lhs`), or `None` if every prefix satisfies its constraint within
/// `tolerance`.
pub fn most_violated_row(
    csr: &CsrHypergraph,
    spec: &TreeSpec,
    source: NodeId,
    tolerance: f64,
) -> Option<ConstraintRow> {
    let steps = full_tree(csr, source);

    // Find the prefix with the worst shortfall.
    let mut size = 0u64;
    let mut lhs = 0.0;
    let mut worst: Option<(usize, f64)> = None;
    for (k, step) in steps.iter().enumerate() {
        size += csr.node_size(step.node.0);
        lhs += step.dist * csr.node_size(step.node.0) as f64;
        let shortfall = gfn::spreading_bound(spec, size) - lhs;
        if shortfall > tolerance && worst.is_none_or(|(_, w)| shortfall > w) {
            worst = Some((k, shortfall));
        }
    }
    let (k, _) = worst?;
    Some(row_for_prefix(csr, spec, &steps[..=k], source))
}

/// The full shortest-path tree from `source`, in settle order.
fn full_tree(csr: &CsrHypergraph, source: NodeId) -> Vec<TreeStep> {
    let mut grower = CsrGrowerScratch::new(csr);
    let mut heap = IndexedMinHeap::new(csr.num_nodes());
    grower.start(csr, &mut heap, source.0);
    std::iter::from_fn(|| grower.step(csr, &mut heap)).collect()
}

/// Builds the δ row for an explicit tree prefix (settle order, source
/// first).
fn row_for_prefix(
    csr: &CsrHypergraph,
    spec: &TreeSpec,
    prefix: &[TreeStep],
    source: NodeId,
) -> ConstraintRow {
    // subtree[u] accumulates the node sizes hanging at-or-below u; walking
    // the prefix in reverse settle order sees every child before its
    // parent.
    let mut subtree = vec![0u64; csr.num_nodes()];
    let mut coeffs = vec![0.0; csr.num_nets()];
    let mut size = 0u64;
    for step in prefix {
        subtree[step.node.index()] = csr.node_size(step.node.0);
        size += csr.node_size(step.node.0);
    }
    for step in prefix.iter().rev() {
        if let (Some(e), Some(parent)) = (step.via_net, step.parent) {
            coeffs[e.index()] += subtree[step.node.index()] as f64;
            subtree[parent.index()] += subtree[step.node.index()];
        }
    }
    ConstraintRow {
        coeffs,
        rhs: gfn::spreading_bound(spec, size),
        source,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htp_netlist::{Hypergraph, HypergraphBuilder};

    /// Path of 5 unit nodes; C_0 = 2 so prefixes of 3+ need spreading.
    fn fixture() -> (Hypergraph, TreeSpec) {
        let mut b = HypergraphBuilder::with_unit_nodes(5);
        for i in 0..4u32 {
            b.add_net(1.0, [NodeId(i), NodeId(i + 1)]).unwrap();
        }
        (
            b.build().unwrap(),
            TreeSpec::new(vec![(2, 2, 1.0), (5, 2, 1.0)]).unwrap(),
        )
    }

    #[test]
    fn zero_metric_yields_a_row_with_subtree_weights() {
        let (h, spec) = fixture();
        let csr = CsrHypergraph::new(&h);
        let row = most_violated_row(&csr, &spec, NodeId(0), 1e-9).expect("violated");
        // Worst prefix is the whole path: g(5) = 2·3 = 6.
        assert_eq!(row.rhs, 6.0);
        // From node 0, the tree is the path itself: δ of net i (between
        // node i and i+1) is the 4-i nodes hanging beyond it.
        assert_eq!(row.coeffs, vec![4.0, 3.0, 2.0, 1.0]);
        assert_eq!(row.source, NodeId(0));
    }

    #[test]
    fn row_lhs_matches_distance_sum() {
        // Equation 6: Σ dist·s == Σ δ·d for the tree's own metric.
        let (h, spec) = fixture();
        let csr = CsrHypergraph::with_lengths(&h, &[0.3, 0.7, 0.1, 0.2]);
        // Force a full-tree row by using a huge bound: grow from node 2.
        let steps = full_tree(&csr, NodeId(2));
        let row = row_for_prefix(&csr, &spec, &steps, NodeId(2));
        let lhs_by_delta: f64 = row
            .coeffs
            .iter()
            .zip(csr.lengths())
            .map(|(&delta, &d)| delta * d)
            .sum();
        let lhs_by_dist: f64 = steps.iter().map(|s| s.dist).sum();
        assert!((lhs_by_delta - lhs_by_dist).abs() < 1e-9);
    }

    #[test]
    fn feasible_metric_yields_no_row() {
        let (h, spec) = fixture();
        // Generous lengths: everything is well spread.
        let csr = CsrHypergraph::with_lengths(&h, &[10.0; 4]);
        for v in h.nodes() {
            assert!(
                most_violated_row(&csr, &spec, v, 1e-9).is_none(),
                "source {v}"
            );
        }
    }

    #[test]
    fn violated_row_is_violated_by_the_current_metric() {
        let (h, spec) = fixture();
        let csr = CsrHypergraph::with_lengths(&h, &[0.1; 4]);
        let row = most_violated_row(&csr, &spec, NodeId(4), 1e-9).unwrap();
        let lhs: f64 = row
            .coeffs
            .iter()
            .zip(csr.lengths())
            .map(|(&delta, &d)| delta * d)
            .sum();
        assert!(
            lhs < row.rhs,
            "the returned row must cut off the current point"
        );
    }
}
