//! Undirected weighted CSR graph with stable edge ids.

/// Index of an undirected edge in a [`Graph`].
///
/// Edge ids are dense and stable: they correspond to the order edges were
/// supplied to [`Graph::from_edges`]. Algorithms that re-price edges (such
/// as spreading-metric computations) address weights by `EdgeId`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// Creates an edge id from a dense index.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in `u32`.
    #[inline]
    pub fn new(index: usize) -> Self {
        EdgeId(u32::try_from(index).expect("edge index exceeds u32::MAX"))
    }

    /// Returns the id as a `usize` suitable for slice indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for EdgeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// An undirected graph with `f64` edge weights, stored in CSR form.
///
/// Parallel edges and self-loops are permitted at this level (self-loops are
/// simply ignored by the path algorithms since they never improve a
/// distance). Edge weights are mutable through
/// [`set_weight`](Graph::set_weight), which is what lets the spreading-metric
/// code reuse one graph across re-pricing rounds.
#[derive(Clone, Debug, PartialEq)]
pub struct Graph {
    /// Endpoints and weight of each undirected edge, in insertion order.
    edges: Vec<(u32, u32)>,
    weights: Vec<f64>,
    /// CSR: incident half-edges of node `v` are `adj[off[v]..off[v+1]]`,
    /// storing `(neighbour, edge id)`.
    off: Vec<u32>,
    adj: Vec<(u32, EdgeId)>,
}

impl Graph {
    /// Builds a graph on `n` nodes from `(u, v, weight)` triples.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is `>= n` or a weight is negative or NaN
    /// (zero weights are allowed — spreading metrics start near zero).
    pub fn from_edges(n: usize, edges: &[(usize, usize, f64)]) -> Self {
        let mut degree = vec![0u32; n];
        for &(u, v, w) in edges {
            assert!(u < n && v < n, "edge ({u}, {v}) out of range for {n} nodes");
            assert!(w >= 0.0, "edge weights must be non-negative, got {w}");
            degree[u] += 1;
            if u != v {
                degree[v] += 1;
            }
        }
        let mut off = Vec::with_capacity(n + 1);
        off.push(0u32);
        for v in 0..n {
            off.push(off[v] + degree[v]);
        }
        let mut cursor: Vec<u32> = off[..n].to_vec();
        let mut adj = vec![(0u32, EdgeId(0)); *off.last().unwrap_or(&0) as usize];
        let mut edge_list = Vec::with_capacity(edges.len());
        let mut weights = Vec::with_capacity(edges.len());
        for (i, &(u, v, w)) in edges.iter().enumerate() {
            let id = EdgeId::new(i);
            adj[cursor[u] as usize] = (v as u32, id);
            cursor[u] += 1;
            if u != v {
                adj[cursor[v] as usize] = (u as u32, id);
                cursor[v] += 1;
            }
            edge_list.push((u as u32, v as u32));
            weights.push(w);
        }
        Graph {
            edges: edge_list,
            weights,
            off,
            adj,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.off.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The `(u, v)` endpoints of an edge.
    #[inline]
    pub fn endpoints(&self, e: EdgeId) -> (usize, usize) {
        let (u, v) = self.edges[e.index()];
        (u as usize, v as usize)
    }

    /// Current weight of an edge.
    #[inline]
    pub fn weight(&self, e: EdgeId) -> f64 {
        self.weights[e.index()]
    }

    /// Overwrites the weight of an edge.
    ///
    /// # Panics
    ///
    /// Panics if `w` is negative or NaN.
    #[inline]
    pub fn set_weight(&mut self, e: EdgeId, w: f64) {
        assert!(w >= 0.0, "edge weights must be non-negative, got {w}");
        self.weights[e.index()] = w;
    }

    /// Incident `(neighbour, edge)` pairs of `v`. Self-loops appear once.
    #[inline]
    pub fn neighbours(&self, v: usize) -> &[(u32, EdgeId)] {
        &self.adj[self.off[v] as usize..self.off[v + 1] as usize]
    }

    /// Degree of `v` (self-loops count once).
    #[inline]
    pub fn degree(&self, v: usize) -> usize {
        self.neighbours(v).len()
    }

    /// Iterator over all edge ids.
    pub fn edge_ids(&self) -> impl ExactSizeIterator<Item = EdgeId> + Clone {
        (0..self.edges.len() as u32).map(EdgeId)
    }

    /// The other endpoint of `e` as seen from `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not an endpoint of `e`.
    #[inline]
    pub fn opposite(&self, e: EdgeId, v: usize) -> usize {
        let (a, b) = self.endpoints(e);
        if v == a {
            b
        } else {
            assert_eq!(v, b, "node {v} is not an endpoint of edge {e}");
            a
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csr_adjacency_matches_edge_list() {
        let g = Graph::from_edges(4, &[(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0), (0, 3, 4.0)]);
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(1), 2);
        let n0: Vec<u32> = g.neighbours(0).iter().map(|&(u, _)| u).collect();
        assert_eq!(n0, vec![1, 3]);
        assert_eq!(g.endpoints(EdgeId(1)), (1, 2));
        assert_eq!(g.weight(EdgeId(2)), 3.0);
    }

    #[test]
    fn weights_are_mutable_by_edge_id() {
        let mut g = Graph::from_edges(2, &[(0, 1, 1.0)]);
        g.set_weight(EdgeId(0), 9.5);
        assert_eq!(g.weight(EdgeId(0)), 9.5);
    }

    #[test]
    fn self_loops_appear_once_in_adjacency() {
        let g = Graph::from_edges(2, &[(0, 0, 1.0), (0, 1, 1.0)]);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(1), 1);
    }

    #[test]
    fn opposite_resolves_both_directions() {
        let g = Graph::from_edges(3, &[(0, 2, 1.0)]);
        assert_eq!(g.opposite(EdgeId(0), 0), 2);
        assert_eq!(g.opposite(EdgeId(0), 2), 0);
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn opposite_rejects_non_endpoint() {
        let g = Graph::from_edges(3, &[(0, 2, 1.0)]);
        let _ = g.opposite(EdgeId(0), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let _ = Graph::from_edges(2, &[(0, 5, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weight_panics() {
        let _ = Graph::from_edges(2, &[(0, 1, -1.0)]);
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = Graph::from_edges(0, &[]);
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
    }
}
