//! Random graph generators for tests and benchmarks.

use std::ops::Range;

use rand::{Rng, RngExt};

use crate::Graph;

/// Erdős–Rényi `G(n, p)` with weights drawn uniformly from `weight_range`.
///
/// # Panics
///
/// Panics if `p` is not a probability or the weight range is empty/negative.
pub fn gnp_graph<R: Rng + ?Sized>(
    n: usize,
    p: f64,
    weight_range: Range<f64>,
    rng: &mut R,
) -> Graph {
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    assert!(
        weight_range.start >= 0.0 && weight_range.start < weight_range.end,
        "weight range must be non-empty and non-negative"
    );
    let mut edges = Vec::new();
    for u in 0..n {
        for v in u + 1..n {
            if rng.random_bool(p) {
                edges.push((u, v, rng.random_range(weight_range.clone())));
            }
        }
    }
    Graph::from_edges(n, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gnp_extremes() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(gnp_graph(10, 0.0, 1.0..2.0, &mut rng).num_edges(), 0);
        assert_eq!(gnp_graph(10, 1.0, 1.0..2.0, &mut rng).num_edges(), 45);
    }

    #[test]
    fn weights_stay_in_range() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = gnp_graph(30, 0.3, 2.0..4.0, &mut rng);
        for e in g.edge_ids() {
            let w = g.weight(e);
            assert!((2.0..4.0).contains(&w));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = gnp_graph(12, 0.3, 1.0..2.0, &mut StdRng::seed_from_u64(9));
        let b = gnp_graph(12, 0.3, 1.0..2.0, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }
}
