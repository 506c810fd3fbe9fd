//! The flow-refinement pass before the engine rewrite, verbatim, with the
//! Dinic max-flow it ran on: every pair's region-halving retries run
//! inline in the commit phase against the current state, every gadget
//! allocates fresh node and net marks, a `HashMap` of local slots and a
//! new flow network, and the BFS labels the whole level graph.
//! `flow_refine_equivalence` holds the production pass to its results.
#![allow(dead_code)]

/// `htp_graph::maxflow` before the rewrite, verbatim.
mod maxflow {
    use std::collections::VecDeque;

    /// Floating-point slack for residual-capacity comparisons.
    const EPS: f64 = 1e-12;

    /// A directed flow network under construction / after solving.
    ///
    /// Arcs are added with [`add_arc`](FlowNetwork::add_arc); each arc implicitly
    /// creates a residual reverse arc of capacity 0. For an undirected edge, add
    /// two opposing arcs with the same capacity.
    #[derive(Clone, Debug)]
    pub struct FlowNetwork {
        // Arc i and its reverse are paired as (2k, 2k+1).
        head: Vec<u32>,
        cap: Vec<f64>,
        // Capacity each arc was created with, so flow can be recovered without
        // trusting the caller to remember it.
        orig: Vec<f64>,
        adj: Vec<Vec<u32>>,
        level: Vec<i32>,
        iter: Vec<usize>,
    }

    impl FlowNetwork {
        /// Creates a network with `n` nodes and no arcs.
        pub fn new(n: usize) -> Self {
            FlowNetwork {
                head: Vec::new(),
                cap: Vec::new(),
                orig: Vec::new(),
                adj: vec![Vec::new(); n],
                level: vec![0; n],
                iter: vec![0; n],
            }
        }

        /// Number of nodes.
        pub fn num_nodes(&self) -> usize {
            self.adj.len()
        }

        /// Adds a directed arc `from -> to` with capacity `capacity` and returns
        /// its arc index (use it with [`flow_on`](FlowNetwork::flow_on)).
        ///
        /// # Panics
        ///
        /// Panics if an endpoint is out of range or the capacity is negative/NaN.
        pub fn add_arc(&mut self, from: usize, to: usize, capacity: f64) -> usize {
            assert!(
                from < self.adj.len() && to < self.adj.len(),
                "arc endpoint out of range"
            );
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
            assert!(
                a < self.adj.len() && b < self.adj.len(),
                "edge endpoint out of range"
            );
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

        fn bfs(&mut self, s: usize, t: usize) -> bool {
            self.level.iter_mut().for_each(|l| *l = -1);
            let mut q = VecDeque::new();
            self.level[s] = 0;
            q.push_back(s);
            while let Some(v) = q.pop_front() {
                for &a in &self.adj[v] {
                    let u = self.head[a as usize] as usize;
                    if self.cap[a as usize] > EPS && self.level[u] < 0 {
                        self.level[u] = self.level[v] + 1;
                        q.push_back(u);
                    }
                }
            }
            self.level[t] >= 0
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
            let mut path: Vec<usize> = Vec::new();
            let mut v = s;
            loop {
                if v == t {
                    let mut d = pushed;
                    for &a in &path {
                        d = d.min(self.cap[a]);
                    }
                    for &a in &path {
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
                        path.push(a);
                        v = u;
                        advanced = true;
                        break;
                    }
                    self.iter[v] += 1;
                }
                if !advanced {
                    // Dead end: retreat one hop and retire the arc that led here.
                    match path.pop() {
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
            assert!(
                s < self.adj.len() && t < self.adj.len(),
                "terminal out of range"
            );
            assert_ne!(s, t, "source and sink must differ");
            let mut flow = 0.0;
            while self.bfs(s, t) {
                self.iter.iter_mut().for_each(|i| *i = 0);
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
        pub fn min_cut_side(&self, s: usize) -> Vec<bool> {
            let mut side = vec![false; self.adj.len()];
            let mut q = VecDeque::new();
            side[s] = true;
            q.push_back(s);
            while let Some(v) = q.pop_front() {
                for &a in &self.adj[v] {
                    let u = self.head[a as usize] as usize;
                    if self.cap[a as usize] > EPS && !side[u] {
                        side[u] = true;
                        q.push_back(u);
                    }
                }
            }
            side
        }
    }
}

use std::collections::HashMap;

use self::maxflow::FlowNetwork;
use htp_core::runtime::{Budget, Interrupt};
use htp_core::CoreError;
use htp_model::{HierarchicalPartition, TreeSpec, VertexId};
use htp_netlist::{Hypergraph, NetId, NodeId};

/// Parameters of one flow-refinement pass.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FlowRefineParams {
    /// Maximum number of block pairs to refine per pass, in descending
    /// cut-weight order.
    pub max_pairs: usize,
    /// Maximum boundary-region nodes per side; larger regions give the
    /// min-cut more freedom but cost more per pair.
    pub max_region: usize,
    /// Nets spanning more than this many leaves are ignored when ranking
    /// block pairs (they are cut whatever the pair decides).
    pub max_span_for_pairs: usize,
    /// Skip a pair when the gadget's modeled gain upper bound is at most
    /// this (see the [module docs](self)); `0.0` disables only for
    /// exactly-zero bounds.
    pub min_gain: f64,
    /// Worker threads for the proposal phase: `1` proposes inline, `0`
    /// uses all available parallelism. The refined partition is
    /// bit-identical at every setting.
    pub threads: usize,
}

impl Default for FlowRefineParams {
    fn default() -> Self {
        FlowRefineParams {
            max_pairs: 24,
            max_region: 1500,
            max_span_for_pairs: 8,
            min_gain: 1e-9,
            threads: 1,
        }
    }
}

/// What one flow-refinement pass did.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FlowRefineReport {
    /// Block pairs whose gadget went to the max-flow stage.
    pub pairs_tried: usize,
    /// Pairs whose min-cut move was feasible and strictly improving.
    pub pairs_accepted: usize,
    /// Pairs skipped by the estimated-gain gate before max-flow.
    pub pairs_skipped: usize,
    /// Sum of the (non-negative) gain upper bounds the gate discarded;
    /// stays near zero when the gate only skips genuinely hopeless pairs.
    pub skipped_gain_bound: f64,
    /// Nodes that changed leaf.
    pub moved_nodes: usize,
    /// Total cost decrease (non-negative by construction).
    pub gain: f64,
    /// Set when the budget stopped the pass early.
    pub interrupt: Option<Interrupt>,
}

/// One refinement task: a ranked leaf pair plus the nets that spanned
/// both of its blocks at pass start (the gadget seeds, ascending id).
struct PairTask {
    ra: usize,
    rb: usize,
    seeds: Vec<NetId>,
}

/// Outcome of one gadget proposal.
enum Proposal {
    /// Min-cut node moves `(node index, target rank)`.
    Moves(Vec<(usize, usize)>),
    /// The estimated-gain gate fired; carries the discarded bound.
    Gated(f64),
    /// No boundary, or the min cut moves nothing.
    Empty,
}

/// Runs one flow-based boundary-refinement pass over the heaviest cut
/// pairs of `p`, returning the refined partition, its exact cost, and a
/// report. The result never costs more than `start_cost` and always stays
/// valid under `spec`.
///
/// # Errors
///
/// Returns [`CoreError::Model`] if an accepted assignment cannot be
/// rebuilt into a partition (cannot happen for in-range moves; surfaced
/// rather than unwrapped).
pub fn flow_refine_pass(
    h: &Hypergraph,
    spec: &TreeSpec,
    p: &HierarchicalPartition,
    start_cost: f64,
    params: &FlowRefineParams,
    budget: &Budget,
) -> Result<(HierarchicalPartition, f64, FlowRefineReport), CoreError> {
    let mut report = FlowRefineReport::default();
    let engine = RefineEngine::new(h, spec, p);
    let mut state = RefineState::new(h, p);

    let tasks = engine.ranked_tasks(&state, params);

    // Greedy first-fit batching: a pair joins the earliest batch in which
    // neither of its blocks already appears. Regions only contain nodes
    // of their own two blocks, so pairs in a batch touch disjoint nodes.
    let mut batches: Vec<Vec<usize>> = Vec::new();
    let mut batch_ranks: Vec<Vec<usize>> = Vec::new();
    for (i, t) in tasks.iter().enumerate() {
        let slot = batch_ranks
            .iter()
            .position(|ranks| !ranks.contains(&t.ra) && !ranks.contains(&t.rb));
        match slot {
            Some(b) => {
                batches[b].push(i);
                batch_ranks[b].extend([t.ra, t.rb]);
            }
            None => {
                batches.push(vec![i]);
                batch_ranks.push(vec![t.ra, t.rb]);
            }
        }
    }

    'pass: for batch in &batches {
        if let Err(irq) = budget.check_time() {
            report.interrupt = Some(irq);
            break 'pass;
        }
        // Proposal phase: every pair in the batch against the batch-start
        // snapshot, on the shared scoped pool. Slot i belongs to pair
        // batch[i], so the result vector is thread-count independent.
        let state_ref = &state;
        let proposals = htp_core::parallel_fill(batch.len(), params.threads, |i| {
            let t = &tasks[batch[i]];
            engine.propose(state_ref, t, params.max_region, params.min_gain)
        });

        // Commit phase: sequential, in the batch's fixed order, each
        // proposal re-validated exactly against the *current* state.
        for (&ti, proposal) in batch.iter().zip(proposals) {
            let t = &tasks[ti];
            match proposal {
                Proposal::Gated(bound) => {
                    report.pairs_skipped += 1;
                    report.skipped_gain_bound += bound;
                }
                Proposal::Empty => report.pairs_tried += 1,
                Proposal::Moves(moves) => {
                    report.pairs_tried += 1;
                    if let Some(gain) = state.try_apply(&engine, &moves) {
                        report.pairs_accepted += 1;
                        report.moved_nodes += moves.len();
                        report.gain += gain;
                        continue;
                    }
                    // Region scaling: a min cut over a large region can
                    // propose a bulk move no nearly-full block absorbs.
                    // Halving pulls the cut toward the boundary (more
                    // anchors, smaller move sets) until a proposal fits.
                    // Retries run inline against the current state, so
                    // the commit order stays deterministic.
                    let mut max_region = params.max_region / 2;
                    while max_region >= 8 {
                        match engine.propose(&state, t, max_region, params.min_gain) {
                            Proposal::Moves(m) => {
                                if let Some(gain) = state.try_apply(&engine, &m) {
                                    report.pairs_accepted += 1;
                                    report.moved_nodes += m.len();
                                    report.gain += gain;
                                    break;
                                }
                            }
                            // Gated or empty at a smaller region: smaller
                            // regions only lower the bound — stop.
                            _ => break,
                        }
                        max_region /= 2;
                    }
                }
            }
        }
    }

    if report.moved_nodes == 0 {
        return Ok((p.clone(), start_cost, report));
    }
    let refined = p.with_assignment(state.assign)?;
    let cost = start_cost - report.gain;
    Ok((refined, cost, report))
}

/// Immutable per-pass context: leaf chains, weights, net pins.
struct RefineEngine<'a> {
    h: &'a Hypergraph,
    spec: &'a TreeSpec,
    /// Leaf vertices in id order; `rank` is an index into this.
    leaves: Vec<VertexId>,
    /// `chain[rank][l]` — raw vertex id of the leaf's block at level `l`,
    /// for `l < root_level` (the levels the cost counts).
    chain: Vec<Vec<u32>>,
    /// Ancestor vertices of each leaf, bottom-up, excluding the root.
    ancestors: Vec<Vec<VertexId>>,
    /// Level of every vertex (for ancestor capacity checks).
    vertex_level: Vec<usize>,
    levels: usize,
}

impl<'a> RefineEngine<'a> {
    fn new(h: &'a Hypergraph, spec: &'a TreeSpec, p: &HierarchicalPartition) -> Self {
        let leaves = p.leaves();
        let levels = p.root_level();
        let mut chain = Vec::with_capacity(leaves.len());
        let mut ancestors = Vec::with_capacity(leaves.len());
        for &leaf in &leaves {
            let mut row = vec![0u32; levels];
            let mut cur = leaf;
            let mut next = p.parent(cur);
            for (l, slot) in row.iter_mut().enumerate() {
                while let Some(q) = next {
                    if p.level(q) <= l {
                        cur = q;
                        next = p.parent(cur);
                    } else {
                        break;
                    }
                }
                *slot = cur.0;
            }
            let mut anc = Vec::new();
            let mut cur = leaf;
            while let Some(q) = p.parent(cur) {
                if p.parent(q).is_some() {
                    anc.push(q);
                }
                cur = q;
            }
            chain.push(row);
            ancestors.push(anc);
        }
        let vertex_level = p.vertices().map(|q| p.level(q)).collect();
        RefineEngine {
            h,
            spec,
            leaves,
            chain,
            ancestors,
            vertex_level,
            levels,
        }
    }

    /// Lowest level at which two leaves share a block (`levels` when they
    /// only meet at the root).
    fn divergence(&self, ra: usize, rb: usize) -> usize {
        (0..self.levels)
            .find(|&l| self.chain[ra][l] == self.chain[rb][l])
            .unwrap_or(self.levels)
    }

    /// Marginal cost a net of capacity `c` pays for spanning both leaves,
    /// summed over the levels where they sit in different blocks.
    fn bridge_weight(&self, ra: usize, rb: usize, c: f64) -> f64 {
        let div = self.divergence(ra, rb);
        (0..div).map(|l| self.spec.weight(l) * c).sum()
    }

    /// Leaf pairs joined by cut nets, heaviest total cut first, capped at
    /// `max_pairs`, each carrying its seed nets (every net with pins in
    /// both blocks at pass start, ascending id). Two net passes total,
    /// instead of the old one-full-scan-per-pair seed search.
    fn ranked_tasks(&self, state: &RefineState, params: &FlowRefineParams) -> Vec<PairTask> {
        let mut weight: HashMap<(usize, usize), f64> = HashMap::new();
        let mut spanned: Vec<usize> = Vec::new();
        for e in self.h.nets() {
            spanned.clear();
            spanned.extend(self.h.net_pins(e).iter().map(|&v| state.rank[v.index()]));
            spanned.sort_unstable();
            spanned.dedup();
            if spanned.len() < 2 || spanned.len() > params.max_span_for_pairs {
                continue;
            }
            let c = self.h.net_capacity(e);
            for i in 0..spanned.len() {
                for j in i + 1..spanned.len() {
                    *weight.entry((spanned[i], spanned[j])).or_insert(0.0) +=
                        self.bridge_weight(spanned[i], spanned[j], c);
                }
            }
        }
        let mut pairs: Vec<((usize, usize), f64)> = weight.into_iter().collect();
        pairs.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        let mut tasks: Vec<PairTask> = pairs
            .into_iter()
            .take(params.max_pairs)
            .map(|((ra, rb), _)| PairTask {
                ra,
                rb,
                seeds: Vec::new(),
            })
            .collect();

        // Second pass: hand every net (any span — wide nets seed regions
        // too) to each selected pair whose two blocks it touches.
        let mut tasks_of_rank: HashMap<usize, Vec<usize>> = HashMap::new();
        for (i, t) in tasks.iter().enumerate() {
            tasks_of_rank.entry(t.ra).or_default().push(i);
            tasks_of_rank.entry(t.rb).or_default().push(i);
        }
        let mut hits: Vec<u8> = vec![0; tasks.len()];
        let mut touched: Vec<usize> = Vec::new();
        for e in self.h.nets() {
            spanned.clear();
            spanned.extend(self.h.net_pins(e).iter().map(|&v| state.rank[v.index()]));
            spanned.sort_unstable();
            spanned.dedup();
            if spanned.len() < 2 {
                continue;
            }
            for &r in &spanned {
                if let Some(ids) = tasks_of_rank.get(&r) {
                    for &i in ids {
                        if hits[i] == 0 {
                            touched.push(i);
                        }
                        hits[i] += 1;
                    }
                }
            }
            for &i in &touched {
                if hits[i] == 2 {
                    tasks[i].seeds.push(e);
                }
                hits[i] = 0;
            }
            touched.clear();
        }
        tasks
    }

    /// Builds the boundary flow network for the pair and proposes the
    /// min-cut node moves, or gates the pair when the modeled gain bound
    /// is at most `min_gain`. The seed list is a superset computed at
    /// pass start; nets no longer spanning both blocks under `state` are
    /// filtered here, so stale entries cost one pin scan.
    fn propose(
        &self,
        state: &RefineState,
        task: &PairTask,
        max_region: usize,
        min_gain: f64,
    ) -> Proposal {
        let (ra, rb) = (task.ra, task.rb);
        // Per-side regions, grown breadth-first from the boundary. Capping
        // each side separately keeps the movable mass balanced.
        let side_cap = (max_region / 2).max(4);
        let mut in_region = vec![false; self.h.num_nodes()];
        let mut side_nodes: [Vec<usize>; 2] = [Vec::new(), Vec::new()];
        let mut nets: Vec<NetId> = Vec::new();
        let mut net_seen = vec![false; self.h.num_nets()];
        let side_of = |r: usize| {
            if r == ra {
                Some(0)
            } else if r == rb {
                Some(1)
            } else {
                None
            }
        };

        // Seeds: pins of the nets spanning both blocks.
        for &e in &task.seeds {
            let pins = self.h.net_pins(e);
            let mut hits_a = false;
            let mut hits_b = false;
            for &v in pins {
                let r = state.rank[v.index()];
                hits_a |= r == ra;
                hits_b |= r == rb;
            }
            if !(hits_a && hits_b) {
                continue;
            }
            net_seen[e.index()] = true;
            nets.push(e);
            for &v in pins {
                let Some(s) = side_of(state.rank[v.index()]) else {
                    continue;
                };
                if !in_region[v.index()] && side_nodes[s].len() < side_cap {
                    in_region[v.index()] = true;
                    side_nodes[s].push(v.index());
                }
            }
        }
        if side_nodes[0].is_empty() && side_nodes[1].is_empty() {
            return Proposal::Empty;
        }

        // Grow one hop inside the two blocks so the cut can move interior
        // nodes together with their boundary neighbours.
        let seeds = [side_nodes[0].len(), side_nodes[1].len()];
        for s in 0..2 {
            for i in 0..seeds[s] {
                for &e in self.h.node_nets(NodeId::new(side_nodes[s][i])) {
                    if net_seen[e.index()] {
                        continue;
                    }
                    net_seen[e.index()] = true;
                    nets.push(e);
                    for &u in self.h.net_pins(e) {
                        let Some(su) = side_of(state.rank[u.index()]) else {
                            continue;
                        };
                        if !in_region[u.index()] && side_nodes[su].len() < side_cap {
                            in_region[u.index()] = true;
                            side_nodes[su].push(u.index());
                        }
                    }
                }
            }
        }

        // Frontier: every remaining net incident to a region node joins the
        // gadget *without* its pins, so its out-of-region pins anchor the
        // cut to S or T — without this the min cut degenerates into
        // sweeping one whole side across.
        for side in &side_nodes {
            for &v in side {
                for &e in self.h.node_nets(NodeId::new(v)) {
                    if !net_seen[e.index()] {
                        net_seen[e.index()] = true;
                        nets.push(e);
                    }
                }
            }
        }

        // A side whose block sits entirely inside the region has no anchors
        // at all; retain its deepest (last-grown) eighth as out-of-region
        // core so the cut cannot dissolve the block.
        for (s, side) in side_nodes.iter_mut().enumerate() {
            let anchored = nets.iter().any(|&e| {
                self.h
                    .net_pins(e)
                    .iter()
                    .any(|&v| !in_region[v.index()] && side_of(state.rank[v.index()]) == Some(s))
            });
            if !anchored && !side.is_empty() {
                let keep = side.len() - side.len().div_ceil(8);
                for &v in &side[keep..] {
                    in_region[v] = false;
                }
                side.truncate(keep);
            }
        }
        let region: Vec<usize> = side_nodes.iter().flatten().copied().collect();
        if region.is_empty() {
            return Proposal::Empty;
        }

        // Estimated-gain gate, before any max-flow work. A net whose pins
        // all left the region pays the same on either side of any cut; a
        // net anchored out-of-region to both blocks is saturated in every
        // s–t cut. What remains — currently-spanning nets that the cut
        // could pull to one side — bounds the modeled gain from above.
        let mut upper_gain = 0.0;
        for &e in &nets {
            let w = self.bridge_weight(ra, rb, self.h.net_capacity(e));
            if w <= 0.0 {
                continue;
            }
            let pins = self.h.net_pins(e);
            let mut any_in_region = false;
            let mut hits_a = false;
            let mut hits_b = false;
            let mut anchored_a = false;
            let mut anchored_b = false;
            for &v in pins {
                let r = state.rank[v.index()];
                hits_a |= r == ra;
                hits_b |= r == rb;
                if in_region[v.index()] {
                    any_in_region = true;
                } else {
                    anchored_a |= r == ra;
                    anchored_b |= r == rb;
                }
            }
            if any_in_region && hits_a && hits_b && !(anchored_a && anchored_b) {
                upper_gain += w;
            }
        }
        if upper_gain <= min_gain {
            return Proposal::Gated(upper_gain.max(0.0));
        }

        // Lawler construction: region nodes, then S, T, then one
        // (e_in, e_out) pair per touched net.
        let r_len = region.len();
        let mut local = HashMap::with_capacity(r_len);
        for (i, &v) in region.iter().enumerate() {
            local.insert(v, i);
        }
        let (s, t) = (r_len, r_len + 1);
        let mut net = FlowNetwork::new(r_len + 2 + 2 * nets.len());
        const INF: f64 = f64::MAX / 4.0;
        for (k, &e) in nets.iter().enumerate() {
            let w = self.bridge_weight(ra, rb, self.h.net_capacity(e));
            if w <= 0.0 {
                continue;
            }
            let pins = self.h.net_pins(e);
            if !pins.iter().any(|&v| in_region[v.index()]) {
                // All pins were demoted to anchors; the net pays the same
                // on either side of any cut, so it constrains nothing.
                continue;
            }
            let e_in = r_len + 2 + 2 * k;
            let e_out = e_in + 1;
            net.add_arc(e_in, e_out, w);
            let mut anchored_a = false;
            let mut anchored_b = false;
            for &v in pins {
                match local.get(&v.index()) {
                    Some(&i) if in_region[v.index()] => {
                        net.add_arc(i, e_in, INF);
                        net.add_arc(e_out, i, INF);
                    }
                    _ => {
                        let r = state.rank[v.index()];
                        anchored_a |= r == ra;
                        anchored_b |= r == rb;
                    }
                }
            }
            if anchored_a {
                net.add_arc(s, e_in, INF);
            }
            if anchored_b {
                net.add_arc(e_out, t, INF);
            }
        }
        let _ = net.max_flow(s, t);
        let side = net.min_cut_side(s);

        let mut moves = Vec::new();
        for (i, &v) in region.iter().enumerate() {
            let target = if side[i] { ra } else { rb };
            if state.rank[v] != target {
                moves.push((v, target));
            }
        }
        if moves.is_empty() {
            Proposal::Empty
        } else {
            Proposal::Moves(moves)
        }
    }

    /// Exact cost of net `e` under the candidate leaf ranks.
    fn net_cost_under(&self, rank: &[usize], e: NetId) -> f64 {
        let c = self.h.net_capacity(e);
        let pins = self.h.net_pins(e);
        let mut total = 0.0;
        let mut scratch: Vec<u32> = Vec::with_capacity(pins.len());
        for l in 0..self.levels {
            scratch.clear();
            scratch.extend(pins.iter().map(|&v| self.chain[rank[v.index()]][l]));
            scratch.sort_unstable();
            scratch.dedup();
            if scratch.len() > 1 {
                total += self.spec.weight(l) * scratch.len() as f64 * c;
            }
        }
        total
    }
}

/// Mutable pass state: the candidate assignment and block sizes.
struct RefineState {
    /// Current leaf rank of every node.
    rank: Vec<usize>,
    /// Current leaf vertex of every node (kept in sync with `rank`).
    assign: Vec<VertexId>,
    /// Subtree size of every vertex under the candidate assignment.
    sizes: Vec<u64>,
    node_sizes: Vec<u64>,
}

impl RefineState {
    fn new(h: &Hypergraph, p: &HierarchicalPartition) -> Self {
        let node_sizes: Vec<u64> = h.nodes().map(|v| h.node_size(v)).collect();
        let sizes = p.subtree_sizes(&node_sizes);
        let mut rank_of = vec![usize::MAX; p.num_vertices()];
        for (r, q) in p.leaves().into_iter().enumerate() {
            rank_of[q.index()] = r;
        }
        let assign: Vec<VertexId> = (0..h.num_nodes())
            .map(|v| p.leaf_of(NodeId::new(v)))
            .collect();
        let rank = assign.iter().map(|q| rank_of[q.index()]).collect();
        RefineState {
            rank,
            assign,
            sizes,
            node_sizes,
        }
    }

    /// Applies `moves` if they keep every block within capacity and
    /// strictly lower the exact cost; returns the gain when accepted.
    fn try_apply(&mut self, engine: &RefineEngine, moves: &[(usize, usize)]) -> Option<f64> {
        // Capacity check: accumulate the size delta per leaf rank, then
        // walk each affected chain.
        let mut delta: HashMap<usize, i64> = HashMap::new();
        for &(v, target) in moves {
            let s = self.node_sizes[v] as i64;
            *delta.entry(self.rank[v]).or_insert(0) -= s;
            *delta.entry(target).or_insert(0) += s;
        }
        let mut vertex_delta: HashMap<u32, i64> = HashMap::new();
        for (&r, &d) in &delta {
            if d == 0 {
                continue;
            }
            let leaf = engine.leaves[r];
            *vertex_delta.entry(leaf.0).or_insert(0) += d;
            for &q in &engine.ancestors[r] {
                *vertex_delta.entry(q.0).or_insert(0) += d;
            }
        }
        for (&q, &d) in &vertex_delta {
            let new = self.sizes[q as usize] as i64 + d;
            let level = engine.vertex_level[q as usize];
            if new < 0 || new as u64 > engine.spec.capacity(level) {
                return None;
            }
        }

        // Exact cost delta over the nets the moves touch.
        let mut touched: Vec<NetId> = Vec::new();
        let mut seen = vec![false; engine.h.num_nets()];
        for &(v, _) in moves {
            for &e in engine.h.node_nets(NodeId::new(v)) {
                if !seen[e.index()] {
                    seen[e.index()] = true;
                    touched.push(e);
                }
            }
        }
        let before: f64 = touched
            .iter()
            .map(|&e| engine.net_cost_under(&self.rank, e))
            .sum();
        let mut candidate = self.rank.clone();
        for &(v, target) in moves {
            candidate[v] = target;
        }
        let after: f64 = touched
            .iter()
            .map(|&e| engine.net_cost_under(&candidate, e))
            .sum();
        let gain = before - after;
        if gain <= 1e-9 {
            return None;
        }

        // Commit.
        self.rank = candidate;
        for &(v, target) in moves {
            self.assign[v] = engine.leaves[target];
        }
        for (&q, &d) in &vertex_delta {
            self.sizes[q as usize] = (self.sizes[q as usize] as i64 + d) as u64;
        }
        Some(gain)
    }
}
