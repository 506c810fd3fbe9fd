//! Dinic's maximum-flow algorithm on a directed flow network.
//!
//! The max-flow min-cut duality is the theoretical root of the paper's whole
//! approach; the V-cycle's flow refinement in `htp-cluster` solves its
//! boundary gadgets with this solver.

/// Floating-point slack for residual-capacity comparisons.
const EPS: f64 = 1e-12;

/// A directed flow network under construction / after solving.
///
/// Arcs are added with [`add_arc`](FlowNetwork::add_arc); each arc implicitly
/// creates a residual reverse arc of capacity 0. For an undirected edge, add
/// two opposing arcs with the same capacity.
///
/// A network can be cleared with [`reset`](FlowNetwork::reset) and rebuilt
/// without giving back its buffers, so a caller that solves many small
/// networks allocates only while they grow.
#[derive(Clone, Debug)]
pub struct FlowNetwork {
    // Arc i and its reverse are paired as (2k, 2k+1).
    head: Vec<u32>,
    cap: Vec<f64>,
    // Capacity each arc was created with, so flow can be recovered without
    // trusting the caller to remember it.
    orig: Vec<f64>,
    // Out-arcs of each node in insertion order. Only the first `n` lists
    // are live; the rest are empty buffers kept for a later `reset`.
    adj: Vec<Vec<u32>>,
    n: usize,
    level: Vec<i32>,
    iter: Vec<usize>,
    // BFS queue (read through a cursor) and the DFS's current path, kept
    // so a solve allocates nothing once the buffers have grown.
    queue: Vec<u32>,
    path: Vec<usize>,
}

impl FlowNetwork {
    /// Creates a network with `n` nodes and no arcs.
    pub fn new(n: usize) -> Self {
        FlowNetwork {
            head: Vec::new(),
            cap: Vec::new(),
            orig: Vec::new(),
            adj: vec![Vec::new(); n],
            n,
            level: vec![0; n],
            iter: vec![0; n],
            queue: Vec::new(),
            path: Vec::new(),
        }
    }

    /// Clears the network to `n` nodes and no arcs, keeping its buffers.
    /// The result behaves exactly like [`FlowNetwork::new(n)`](FlowNetwork::new).
    pub fn reset(&mut self, n: usize) {
        for out in &mut self.adj[..self.n] {
            out.clear();
        }
        if self.adj.len() < n {
            self.adj.resize_with(n, Vec::new);
        }
        self.n = n;
        self.head.clear();
        self.cap.clear();
        self.orig.clear();
        self.level.clear();
        self.level.resize(n, 0);
        self.iter.clear();
        self.iter.resize(n, 0);
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Adds a directed arc `from -> to` with capacity `capacity` and returns
    /// its arc index (use it with [`flow_on`](FlowNetwork::flow_on)).
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range or the capacity is negative/NaN.
    pub fn add_arc(&mut self, from: usize, to: usize, capacity: f64) -> usize {
        assert!(from < self.n && to < self.n, "arc endpoint out of range");
        assert!(capacity >= 0.0, "arc capacity must be non-negative");
        let id = self.head.len();
        self.adj[from].push(id as u32);
        self.head.push(to as u32);
        self.cap.push(capacity);
        self.orig.push(capacity);
        self.adj[to].push((id + 1) as u32);
        self.head.push(from as u32);
        self.cap.push(0.0);
        self.orig.push(0.0);
        id
    }

    /// Adds an undirected edge as a pair of opposing arcs of capacity
    /// `capacity` each; returns the forward arc index.
    pub fn add_undirected(&mut self, a: usize, b: usize, capacity: f64) -> usize {
        assert!(a < self.n && b < self.n, "edge endpoint out of range");
        assert!(capacity >= 0.0, "edge capacity must be non-negative");
        // An undirected edge is one arc pair whose *reverse* also has full
        // capacity, so flow can use either direction.
        let id = self.head.len();
        self.adj[a].push(id as u32);
        self.head.push(b as u32);
        self.cap.push(capacity);
        self.orig.push(capacity);
        self.adj[b].push((id + 1) as u32);
        self.head.push(a as u32);
        self.cap.push(capacity);
        self.orig.push(capacity);
        id
    }

    /// Flow currently routed through the arc returned by `add_arc`
    /// (original capacity minus residual).
    ///
    /// # Caller contract
    ///
    /// `original_capacity` must be the exact capacity this arc was created
    /// with ([`add_arc`](FlowNetwork::add_arc) /
    /// [`add_undirected`](FlowNetwork::add_undirected)); passing anything
    /// else silently shifts the reported flow. The network records the
    /// creation capacity, so prefer [`flow`](FlowNetwork::flow), which cannot
    /// be misused. This form is kept for callers that already track
    /// capacities; it debug-asserts against the recorded value.
    pub fn flow_on(&self, arc: usize, original_capacity: f64) -> f64 {
        debug_assert!(
            (self.orig[arc] - original_capacity).abs() <= EPS,
            "flow_on called with capacity {original_capacity} but arc {arc} was created with {}",
            self.orig[arc]
        );
        original_capacity - self.cap[arc]
    }

    /// Flow currently routed through `arc`, computed from the capacity the
    /// arc was created with (no caller-supplied value to get wrong).
    pub fn flow(&self, arc: usize) -> f64 {
        self.orig[arc] - self.cap[arc]
    }

    /// Residual capacity currently left on `arc`.
    pub fn residual(&self, arc: usize) -> f64 {
        self.cap[arc]
    }

    /// Labels the level graph breadth-first from `s` and stops as soon as
    /// it labels `t`. Every node left unlabelled would sit at `t`'s level
    /// or deeper, and no level-graph path to `t` passes through such a
    /// node, so the blocking flow below finds exactly the augmenting paths
    /// a full labelling would; it only skips dead ends.
    fn bfs(&mut self, s: usize, t: usize) -> bool {
        self.level.fill(-1);
        self.queue.clear();
        self.level[s] = 0;
        self.queue.push(s as u32);
        let mut next = 0;
        while let Some(&v) = self.queue.get(next) {
            next += 1;
            let v = v as usize;
            for &a in &self.adj[v] {
                let u = self.head[a as usize] as usize;
                if self.cap[a as usize] > EPS && self.level[u] < 0 {
                    self.level[u] = self.level[v] + 1;
                    if u == t {
                        return true;
                    }
                    self.queue.push(u as u32);
                }
            }
        }
        false
    }

    /// Finds one augmenting path `s`→`t` in the level graph and pushes its
    /// bottleneck, or returns `0.0` if none remains.
    ///
    /// Iterative (explicit path stack) on purpose: the textbook recursive
    /// formulation blows the thread stack on path-like residual graphs at
    /// 100k+ nodes, which multilevel refinement routinely builds. The arc
    /// scan order and per-node `iter` advancement are identical to the
    /// recursive version, so results are bit-for-bit unchanged.
    fn dfs(&mut self, s: usize, t: usize, pushed: f64) -> f64 {
        // `path` holds the arcs of the current partial path from `s`.
        self.path.clear();
        let mut v = s;
        loop {
            if v == t {
                let mut d = pushed;
                for &a in &self.path {
                    d = d.min(self.cap[a]);
                }
                for &a in &self.path {
                    self.cap[a] -= d;
                    self.cap[a ^ 1] += d;
                }
                return d;
            }
            let mut advanced = false;
            while self.iter[v] < self.adj[v].len() {
                let a = self.adj[v][self.iter[v]] as usize;
                let u = self.head[a] as usize;
                if self.cap[a] > EPS && self.level[u] == self.level[v] + 1 {
                    // Descend; `iter[v]` stays put so a later path can reuse
                    // this arc until it saturates.
                    self.path.push(a);
                    v = u;
                    advanced = true;
                    break;
                }
                self.iter[v] += 1;
            }
            if !advanced {
                // Dead end: retreat one hop and retire the arc that led here.
                match self.path.pop() {
                    Some(a) => {
                        v = self.head[a ^ 1] as usize;
                        self.iter[v] += 1;
                    }
                    None => return 0.0,
                }
            }
        }
    }

    /// Computes the maximum `s`→`t` flow, mutating residual capacities.
    ///
    /// # Panics
    ///
    /// Panics if `s == t` or either is out of range.
    pub fn max_flow(&mut self, s: usize, t: usize) -> f64 {
        assert!(s < self.n && t < self.n, "terminal out of range");
        assert_ne!(s, t, "source and sink must differ");
        let mut flow = 0.0;
        while self.bfs(s, t) {
            self.iter.fill(0);
            loop {
                let f = self.dfs(s, t, f64::INFINITY);
                if f <= EPS {
                    break;
                }
                flow += f;
            }
        }
        flow
    }

    /// After [`max_flow`](FlowNetwork::max_flow), returns the source side of
    /// a minimum cut: every node reachable from `s` in the residual network.
    pub fn min_cut_side(&mut self, s: usize) -> Vec<bool> {
        let mut side = Vec::new();
        self.min_cut_side_into(s, &mut side);
        side
    }

    /// [`min_cut_side`](FlowNetwork::min_cut_side) into a caller's buffer,
    /// which is cleared and resized to [`num_nodes`](FlowNetwork::num_nodes).
    pub fn min_cut_side_into(&mut self, s: usize, side: &mut Vec<bool>) {
        side.clear();
        side.resize(self.n, false);
        self.queue.clear();
        side[s] = true;
        self.queue.push(s as u32);
        let mut next = 0;
        while let Some(&v) = self.queue.get(next) {
            next += 1;
            for &a in &self.adj[v as usize] {
                let u = self.head[a as usize] as usize;
                if self.cap[a as usize] > EPS && !side[u] {
                    side[u] = true;
                    self.queue.push(u as u32);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn classic_diamond() {
        // s -> a, b -> t with a cross edge.
        let mut net = FlowNetwork::new(4);
        net.add_arc(0, 1, 3.0);
        net.add_arc(0, 2, 2.0);
        net.add_arc(1, 2, 5.0);
        net.add_arc(1, 3, 2.0);
        net.add_arc(2, 3, 3.0);
        assert!((net.max_flow(0, 3) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn bottleneck_limits_flow() {
        let mut net = FlowNetwork::new(3);
        net.add_arc(0, 1, 10.0);
        net.add_arc(1, 2, 1.5);
        assert!((net.max_flow(0, 2) - 1.5).abs() < 1e-9);
    }

    #[test]
    fn disconnected_terminals_have_zero_flow() {
        let mut net = FlowNetwork::new(4);
        net.add_arc(0, 1, 1.0);
        net.add_arc(2, 3, 1.0);
        assert_eq!(net.max_flow(0, 3), 0.0);
        let side = net.min_cut_side(0);
        assert_eq!(side, vec![true, true, false, false]);
    }

    #[test]
    fn min_cut_side_is_a_real_cut() {
        let mut net = FlowNetwork::new(4);
        net.add_undirected(0, 1, 1.0);
        net.add_undirected(1, 2, 1.0);
        net.add_undirected(2, 3, 1.0);
        net.add_undirected(0, 2, 1.0);
        let f = net.max_flow(0, 3);
        assert!((f - 1.0).abs() < 1e-9, "single bridge to node 3");
        let side = net.min_cut_side(0);
        assert!(side[0] && !side[3]);
    }

    #[test]
    fn undirected_edges_carry_flow_both_ways() {
        let mut net = FlowNetwork::new(3);
        net.add_undirected(0, 1, 2.0);
        net.add_undirected(1, 2, 2.0);
        assert!((net.max_flow(2, 0) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn flow_on_reports_arc_utilisation() {
        let mut net = FlowNetwork::new(2);
        let arc = net.add_arc(0, 1, 4.0);
        let f = net.max_flow(0, 1);
        assert!((f - 4.0).abs() < 1e-9);
        assert!((net.flow_on(arc, 4.0) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn flow_reports_without_caller_capacity() {
        let mut net = FlowNetwork::new(3);
        let a = net.add_arc(0, 1, 4.0);
        let b = net.add_arc(1, 2, 1.0);
        let f = net.max_flow(0, 2);
        assert!((f - 1.0).abs() < 1e-9);
        assert!((net.flow(a) - 1.0).abs() < 1e-9);
        assert!((net.flow(b) - 1.0).abs() < 1e-9);
        assert!((net.residual(a) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn long_chain_does_not_overflow_the_stack() {
        // Regression: the blocking-flow DFS used to be recursive and
        // overflowed the (2 MiB test-thread) stack on path-like residual
        // graphs. A 200k-node chain forces one 200k-deep augmenting path.
        let n = 200_000;
        let mut net = FlowNetwork::new(n);
        for v in 0..n - 1 {
            // A capacity dip in the middle makes the answer non-trivial.
            let c = if v == n / 2 { 0.5 } else { 1.0 };
            net.add_arc(v, v + 1, c);
        }
        let f = net.max_flow(0, n - 1);
        assert!((f - 0.5).abs() < 1e-9);
        let side = net.min_cut_side(0);
        assert!(side[n / 2] && !side[n / 2 + 1]);
    }

    #[test]
    fn chain_with_residual_detour_augments_iteratively() {
        // Two long disjoint chains plus a cross link: the second blocking
        // flow phase must retreat through dead ends without recursion.
        let n = 100_000;
        let mut net = FlowNetwork::new(2 * n + 2);
        let (s, t) = (2 * n, 2 * n + 1);
        net.add_arc(s, 0, 2.0);
        for v in 0..n - 1 {
            net.add_arc(v, v + 1, 2.0);
        }
        net.add_arc(n - 1, t, 1.0);
        // Detour from the middle of chain A into chain B.
        net.add_arc(n / 2, n, 1.0);
        for v in n..2 * n - 1 {
            net.add_arc(v, v + 1, 1.0);
        }
        net.add_arc(2 * n - 1, t, 1.0);
        let f = net.max_flow(s, t);
        assert!((f - 2.0).abs() < 1e-9, "both exits saturate: {f}");
    }

    /// Adds `arcs` (endpoints folded into `0..n`, self-loops dropped) with
    /// non-dyadic capacities; every fourth arc is undirected.
    fn build(net: &mut FlowNetwork, n: usize, arcs: &[(usize, usize, u32)]) -> Vec<usize> {
        let mut ids = Vec::new();
        for (k, &(a, b, c)) in arcs.iter().enumerate() {
            let (a, b) = (a % n, b % n);
            if a == b {
                continue;
            }
            let cap = 0.1 + 0.37 * f64::from(c % 7) + f64::from(c) / 3.0;
            ids.push(if k % 4 == 3 {
                net.add_undirected(a, b, cap)
            } else {
                net.add_arc(a, b, cap)
            });
        }
        ids
    }

    proptest! {
        /// A network rebuilt through `reset` — after solving networks of
        /// other shapes, smaller and larger — solves exactly like a fresh
        /// one: the same max-flow bits, per-arc flow bits and min-cut side.
        #[test]
        fn reset_network_solves_like_a_fresh_one(
            builds in proptest::collection::vec(
                (2usize..24, proptest::collection::vec((0usize..24, 0usize..24, 0u32..40), 0..90)),
                1..6,
            ),
        ) {
            let mut reused = FlowNetwork::new(0);
            let mut side = Vec::new();
            for (n, arcs) in &builds {
                let n = *n;
                let mut fresh = FlowNetwork::new(n);
                let ids = build(&mut fresh, n, arcs);
                reused.reset(n);
                prop_assert_eq!(build(&mut reused, n, arcs), ids.clone());
                let want = fresh.max_flow(0, n - 1);
                let got = reused.max_flow(0, n - 1);
                prop_assert_eq!(got.to_bits(), want.to_bits(), "max_flow {} vs {}", got, want);
                for &a in &ids {
                    prop_assert_eq!(reused.flow(a).to_bits(), fresh.flow(a).to_bits(), "arc {}", a);
                    prop_assert_eq!(reused.flow(a ^ 1).to_bits(), fresh.flow(a ^ 1).to_bits());
                }
                reused.min_cut_side_into(0, &mut side);
                prop_assert_eq!(&side, &fresh.min_cut_side(0));
            }
        }
    }

    #[test]
    #[should_panic(expected = "must differ")]
    fn same_terminal_panics() {
        let mut net = FlowNetwork::new(2);
        let _ = net.max_flow(1, 1);
    }
}
