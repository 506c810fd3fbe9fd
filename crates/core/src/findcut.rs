//! Procedure `find_cut`: Prim-style block growth along a spreading metric.
//!
//! Starting from a random node, the block greedily absorbs the node whose
//! cheapest connecting net (by `d(e)`) is smallest — exactly Prim's minimum
//! spanning tree rule, with the spreading metric as the length function.
//! After every absorption the cut between the block and the rest is
//! recorded; the returned block is the prefix with minimum cut among those
//! whose size lies in the prescribed `[LB, UB]` window.
//!
//! Two practical extensions over the paper's listing (which assumes a
//! connected graph):
//!
//! * when the frontier empties (the current component is exhausted) growth
//!   restarts from a random untouched node, so the window is reached even on
//!   disconnected remainders. Restart candidates live in a compacting pool:
//!   a uniform sample whose entry has gone stale (absorbed, skipped, or too
//!   big to ever fit — all permanent states) is `swap_remove`d on contact,
//!   so the total restart work is `O(n)` over the whole growth instead of a
//!   full `O(n)` rescan per restart;
//! * the caller learns via [`FindCutResult::in_window`] whether any prefix
//!   actually landed in the window (it cannot when the whole graph is
//!   smaller than `LB`).
//!
//! [`find_cut_scoped`] grows inside an *alive mask* over a larger host
//! hypergraph: dead pins are invisible and per-net pin counts come from the
//! caller-maintained `alive_pins` table. This is what lets Algorithm 3
//! carve a shrinking remainder in place instead of re-inducing a fresh
//! hypergraph per child.
//!
//! The growth loop itself runs over a [`CsrHypergraph`] — the same flat
//! incidence view the probe kernel uses, with the metric lengths baked into
//! its `net_len` slab. [`find_cut_scoped`] takes it caller-shared, so
//! Algorithm 3 flattens once per construction, not once per carve.

use rand::{Rng, RngExt};

use htp_netlist::{CsrHypergraph, Hypergraph, NodeId};

use crate::runtime::{Budget, Interrupt};
use htp_graph::IndexedMinHeap;

/// How many growth-loop iterations pass between budget checks in
/// [`find_cut_scoped`]. Each iteration is a cheap heap operation, so
/// checking the (possibly `Instant::now()`-backed) budget every iteration
/// would dominate; 256 keeps the interrupt latency well under a
/// millisecond while making the check cost invisible.
const BUDGET_CHECK_STRIDE: u32 = 256;

/// The block selected by [`find_cut_scoped`].
#[derive(Clone, Debug)]
pub struct FindCutResult {
    /// The selected nodes, in growth order.
    pub nodes: Vec<NodeId>,
    /// Total capacity of nets crossing between `nodes` and the rest at the
    /// selected prefix.
    pub cut: f64,
    /// Whether the selected prefix's size lies in `[lb, ub]`.
    pub in_window: bool,
}

/// Reusable working state for repeated cut growths over one hypergraph.
///
/// All buffers are sized for the *host* hypergraph once and reset lazily:
/// every marker written during a growth is also recorded in a touched list,
/// and the next call clears exactly those entries on entry. A growth that
/// unwinds through a panic therefore leaves the scratch self-healing — the
/// stale markers are still on the touched lists and vanish at the next use.
#[derive(Debug)]
pub struct FindCutScratch {
    /// Nodes absorbed into the growing block.
    in_set: Vec<bool>,
    /// Nodes skipped for good because they can no longer fit the window.
    skipped: Vec<bool>,
    /// Absorbed-pin count per net.
    inside: Vec<u32>,
    /// Prim frontier keyed by the cheapest connecting net length.
    frontier: IndexedMinHeap,
    /// Compacting restart pool (node ids; stale entries purged on contact).
    candidates: Vec<u32>,
    /// Every node id written into `in_set` or `skipped` this growth.
    touched_nodes: Vec<u32>,
    /// Every net with a nonzero `inside` count this growth.
    touched_nets: Vec<u32>,
}

impl FindCutScratch {
    /// Creates scratch sized for `h`.
    pub fn new(h: &Hypergraph) -> Self {
        FindCutScratch {
            in_set: vec![false; h.num_nodes()],
            skipped: vec![false; h.num_nodes()],
            inside: vec![0; h.num_nets()],
            frontier: IndexedMinHeap::new(h.num_nodes()),
            candidates: Vec::with_capacity(h.num_nodes()),
            touched_nodes: Vec::new(),
            touched_nets: Vec::new(),
        }
    }

    /// Clears the markers left by the previous growth (`O(touched)`).
    fn reset(&mut self) {
        for &v in &self.touched_nodes {
            self.in_set[v as usize] = false;
            self.skipped[v as usize] = false;
        }
        self.touched_nodes.clear();
        for &e in &self.touched_nets {
            self.inside[e as usize] = 0;
        }
        self.touched_nets.clear();
        self.frontier.clear();
        self.candidates.clear();
    }
}

/// Grows a block inside the alive sub-hypergraph and returns the
/// minimum-cut prefix with size in `[lb, ub]`.
///
/// If no prefix lands in the window (only possible when the alive size is
/// below `lb`), the entire grown set is returned with
/// [`in_window`](FindCutResult::in_window) set to `false`.
///
/// `csr` is the flat view of the host hypergraph with the metric lengths
/// already in its `net_len` slab (build it once per construction with
/// [`CsrHypergraph::with_lengths`]). `pool` lists exactly the alive nodes
/// (any order); `alive` is the node mask over the host hypergraph and
/// `alive_pins[e]` the number of alive pins of each net — the caller
/// maintains both incrementally while carving. The growth never touches a
/// dead node: dead pins neither join the frontier nor count toward a net's
/// pin total, so the result is identical to growing over the induced
/// sub-hypergraph with every node alive (modulo node renaming and the
/// random stream).
///
/// The growth loop polls [`Budget::check_time`] every
/// `BUDGET_CHECK_STRIDE` (256) iterations and returns the interrupt
/// instead of a block when the deadline passes or the run is cancelled
/// mid-growth. Round/probe caps are *not* consulted — those meter the
/// metric phase, and an exhausted metric budget must not abort
/// construction on the metric already in hand.
///
/// `scratch` is reset on entry in `O(touched)` and may be reused across
/// calls with different masks.
///
/// # Errors
///
/// The [`Interrupt`] that stopped the growth.
///
/// # Panics
///
/// Panics if `pool` is empty or `lb > ub`.
#[allow(clippy::too_many_arguments)]
pub fn find_cut_scoped<R: Rng + ?Sized>(
    csr: &CsrHypergraph,
    pool: &[NodeId],
    alive: &[bool],
    alive_pins: &[u32],
    lb: u64,
    ub: u64,
    rng: &mut R,
    budget: &Budget,
    scratch: &mut FindCutScratch,
) -> Result<FindCutResult, Interrupt> {
    assert!(!pool.is_empty(), "cannot cut an empty hypergraph");
    assert!(lb <= ub, "empty size window [{lb}, {ub}]");

    scratch.reset();
    let FindCutScratch {
        in_set,
        skipped,
        inside,
        frontier,
        candidates,
        touched_nodes,
        touched_nets,
    } = scratch;
    candidates.extend(pool.iter().map(|v| v.index() as u32));

    let mut grown: Vec<NodeId> = Vec::new();
    let mut size = 0u64;
    let mut cut = 0.0f64;
    let mut best: Option<(f64, usize)> = None; // (cut, prefix length)

    let absorb = |v: u32,
                  in_set: &mut Vec<bool>,
                  inside: &mut Vec<u32>,
                  frontier: &mut IndexedMinHeap,
                  touched_nodes: &mut Vec<u32>,
                  touched_nets: &mut Vec<u32>,
                  cut: &mut f64| {
        touched_nodes.push(v);
        in_set[v as usize] = true;
        for &e in csr.node_nets(v) {
            let pins = alive_pins[e as usize];
            if pins <= 1 {
                // A net with one in-scope pin can never cross the block
                // boundary; skipping it entirely (rather than adding and
                // re-subtracting its capacity) keeps the running cut
                // bit-identical to growth on the induced sub-hypergraph,
                // where such nets do not exist at all.
                continue;
            }
            if inside[e as usize] == 0 {
                touched_nets.push(e);
            }
            inside[e as usize] += 1;
            let now_inside = inside[e as usize];
            if now_inside == 1 {
                *cut += csr.net_capacity(e);
                // The net just reached the block: its (in-scope) outside
                // pins become reachable at distance d(e).
                for &w in csr.net_pins(e) {
                    if alive[w as usize] && !in_set[w as usize] {
                        frontier.push_or_decrease(w as usize, csr.net_len(e));
                    }
                }
            }
            if now_inside == pins {
                *cut -= csr.net_capacity(e);
            }
        }
    };

    let start = pool[rng.random_range(0..pool.len())].index() as u32;
    let mut next = Some(start);
    let mut ticks: u32 = 0;
    while size < ub {
        ticks = ticks.wrapping_add(1);
        if ticks.is_multiple_of(BUDGET_CHECK_STRIDE) {
            budget.check_time()?;
        }
        let v = match next.take() {
            Some(v) => v,
            None => match frontier.pop() {
                Some((idx, _)) => idx as u32,
                None => {
                    // Component exhausted: restart from a random untouched
                    // (and still fitting) node. Stale pool entries — already
                    // absorbed, skipped for good, or too big to ever fit a
                    // block that only grows — are purged on contact, so all
                    // restarts together cost `O(|pool|)`.
                    let mut pick = None;
                    while !candidates.is_empty() {
                        let i = rng.random_range(0..candidates.len());
                        let c = candidates[i];
                        let stale = in_set[c as usize]
                            || skipped[c as usize]
                            || size + csr.node_size(c) > ub;
                        if stale {
                            candidates.swap_remove(i);
                        } else {
                            pick = Some(c);
                            break;
                        }
                    }
                    match pick {
                        Some(v) => v,
                        None => break,
                    }
                }
            },
        };
        if in_set[v as usize] || skipped[v as usize] {
            continue;
        }
        if size + csr.node_size(v) > ub {
            // Absorbing v would overshoot the window; with non-unit sizes a
            // smaller frontier node may still fit, so skip v rather than
            // stopping (unit sizes never take this branch mid-growth).
            touched_nodes.push(v);
            skipped[v as usize] = true;
            continue;
        }
        absorb(
            v,
            in_set,
            inside,
            frontier,
            touched_nodes,
            touched_nets,
            &mut cut,
        );
        grown.push(NodeId(v));
        size += csr.node_size(v);
        if (lb..=ub).contains(&size) {
            let better = best.is_none_or(|(bc, _)| cut < bc);
            if better {
                best = Some((cut, grown.len()));
            }
        }
    }

    Ok(match best {
        Some((best_cut, k)) => {
            grown.truncate(k);
            FindCutResult {
                nodes: grown,
                cut: best_cut,
                in_window: true,
            }
        }
        None => FindCutResult {
            nodes: grown,
            cut,
            in_window: false,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SpreadingMetric;
    use htp_netlist::gen::clustered::{clustered_hypergraph, ClusteredParams};
    use htp_netlist::HypergraphBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Builds the alive mask and per-net alive-pin table for `keep`.
    fn scoped_setup(h: &Hypergraph, keep: &[NodeId]) -> (Vec<bool>, Vec<u32>) {
        let mut alive = vec![false; h.num_nodes()];
        for &v in keep {
            alive[v.index()] = true;
        }
        let alive_pins: Vec<u32> = h
            .nets()
            .map(|e| h.net_pins(e).iter().filter(|v| alive[v.index()]).count() as u32)
            .collect();
        (alive, alive_pins)
    }

    /// [`find_cut_scoped`] over the whole of `h`: every node alive.
    fn find_cut_all(
        h: &Hypergraph,
        metric: &SpreadingMetric,
        lb: u64,
        ub: u64,
        rng: &mut StdRng,
        budget: &Budget,
    ) -> Result<FindCutResult, Interrupt> {
        let all: Vec<NodeId> = h.nodes().collect();
        let (alive, alive_pins) = scoped_setup(h, &all);
        let csr = CsrHypergraph::with_lengths(h, metric.lengths());
        let mut scratch = FindCutScratch::new(h);
        find_cut_scoped(
            &csr,
            &all,
            &alive,
            &alive_pins,
            lb,
            ub,
            rng,
            budget,
            &mut scratch,
        )
    }

    /// Recomputes the cut of a node set by brute force.
    fn brute_cut(h: &Hypergraph, nodes: &[NodeId]) -> f64 {
        let in_set: Vec<bool> = {
            let mut v = vec![false; h.num_nodes()];
            for &x in nodes {
                v[x.index()] = true;
            }
            v
        };
        h.nets()
            .filter(|&e| {
                let inside = h.net_pins(e).iter().filter(|v| in_set[v.index()]).count();
                inside > 0 && inside < h.net_pins(e).len()
            })
            .map(|e| h.net_capacity(e))
            .sum()
    }

    #[test]
    fn respects_the_window_and_reports_the_true_cut() {
        let mut rng = StdRng::seed_from_u64(0);
        let inst = clustered_hypergraph(ClusteredParams::default(), &mut rng);
        let h = &inst.hypergraph;
        let m = SpreadingMetric::from_lengths(vec![1.0; h.num_nets()]);
        for seed in 0..10 {
            let mut rng = StdRng::seed_from_u64(seed);
            let r = find_cut_all(h, &m, 12, 20, &mut rng, &Budget::unlimited()).unwrap();
            assert!(r.in_window);
            let size = h.subset_size(r.nodes.iter().copied());
            assert!((12..=20).contains(&size), "size {size}");
            assert!((r.cut - brute_cut(h, &r.nodes)).abs() < 1e-9);
        }
    }

    #[test]
    fn follows_small_metric_lengths_into_the_planted_cluster() {
        // Two clusters; intra nets short, inter nets long. Growing with the
        // window set to one cluster size must recover a planted cluster.
        let mut rng = StdRng::seed_from_u64(5);
        let params = ClusteredParams {
            clusters: 2,
            cluster_size: 12,
            intra_nets: 60,
            inter_nets: 4,
            min_net_size: 2,
            max_net_size: 2,
        };
        let inst = clustered_hypergraph(params, &mut rng);
        let h = &inst.hypergraph;
        let lengths: Vec<f64> = h
            .nets()
            .map(|e| {
                let pins = h.net_pins(e);
                let crosses = pins
                    .iter()
                    .any(|v| inst.cluster_of[v.index()] != inst.cluster_of[pins[0].index()]);
                if crosses {
                    10.0
                } else {
                    0.1
                }
            })
            .collect();
        let m = SpreadingMetric::from_lengths(lengths);
        let r = find_cut_all(
            h,
            &m,
            12,
            12,
            &mut StdRng::seed_from_u64(1),
            &Budget::unlimited(),
        )
        .unwrap();
        assert!(r.in_window);
        let clusters: Vec<usize> = r.nodes.iter().map(|v| inst.cluster_of[v.index()]).collect();
        assert!(
            clusters.iter().all(|&c| c == clusters[0]),
            "block should be one planted cluster, got {clusters:?}"
        );
        assert!(
            (r.cut - 4.0).abs() < 1e-9,
            "exactly the planted inter nets: {}",
            r.cut
        );
    }

    #[test]
    fn disconnected_remainder_restarts_growth() {
        // Two disjoint 2-node components; window requires 3 nodes.
        let mut b = HypergraphBuilder::with_unit_nodes(4);
        b.add_net(1.0, [NodeId(0), NodeId(1)]).unwrap();
        b.add_net(1.0, [NodeId(2), NodeId(3)]).unwrap();
        let h = b.build().unwrap();
        let m = SpreadingMetric::from_lengths(vec![1.0, 1.0]);
        let r = find_cut_all(
            &h,
            &m,
            3,
            3,
            &mut StdRng::seed_from_u64(2),
            &Budget::unlimited(),
        )
        .unwrap();
        assert!(r.in_window);
        assert_eq!(r.nodes.len(), 3);
    }

    #[test]
    fn unreachable_window_is_flagged() {
        let mut b = HypergraphBuilder::with_unit_nodes(2);
        b.add_net(1.0, [NodeId(0), NodeId(1)]).unwrap();
        let h = b.build().unwrap();
        let m = SpreadingMetric::from_lengths(vec![1.0]);
        let r = find_cut_all(
            &h,
            &m,
            5,
            9,
            &mut StdRng::seed_from_u64(3),
            &Budget::unlimited(),
        )
        .unwrap();
        assert!(!r.in_window);
        assert_eq!(r.nodes.len(), 2, "everything was grown");
    }

    #[test]
    fn window_prefers_smaller_cut_over_first_hit() {
        // Path 0-1-2-3 with an expensive middle net; window [1, 3] should
        // pick a prefix cutting a cheap end net, not the heavy middle one.
        let mut b = HypergraphBuilder::with_unit_nodes(4);
        b.add_net(1.0, [NodeId(0), NodeId(1)]).unwrap();
        b.add_net(5.0, [NodeId(1), NodeId(2)]).unwrap();
        b.add_net(1.0, [NodeId(2), NodeId(3)]).unwrap();
        let h = b.build().unwrap();
        let m = SpreadingMetric::from_lengths(vec![0.1, 9.0, 0.1]);
        for seed in 0..8 {
            let r = find_cut_all(
                &h,
                &m,
                1,
                3,
                &mut StdRng::seed_from_u64(seed),
                &Budget::unlimited(),
            )
            .unwrap();
            assert!(r.in_window);
            // Best achievable cut within the window is 1.0 (cut an end net),
            // never the 5.0 middle net alone.
            assert!(
                r.cut <= 1.0 + 1e-9,
                "cut {} with nodes {:?}",
                r.cut,
                r.nodes
            );
        }
    }

    #[test]
    fn cancelled_budget_interrupts_growth() {
        // A pre-cancelled budget must surface within one check stride even
        // on a sizeable instance.
        let mut rng = StdRng::seed_from_u64(0);
        let inst = clustered_hypergraph(ClusteredParams::default(), &mut rng);
        let h = &inst.hypergraph;
        let m = SpreadingMetric::from_lengths(vec![1.0; h.num_nets()]);
        let budget = Budget::unlimited();
        budget.cancel_token().cancel();
        // Small instances may finish before the first stride check; both
        // outcomes are legal, but an interrupt must be `Cancelled`.
        if let Err(irq) = find_cut_all(h, &m, 12, 20, &mut rng, &budget) {
            assert_eq!(irq, Interrupt::Cancelled);
        }
    }

    #[test]
    fn scoped_growth_matches_the_induced_subgraph() {
        // Masked growth over the host graph must reproduce all-alive
        // growth on the induced sub-hypergraph node for node. `keep` is ascending, so
        // local ids order like global ids and heap tie-breaks agree. One
        // scratch serves all seeds, which also exercises reset-on-entry.
        let mut rng = StdRng::seed_from_u64(9);
        let inst = clustered_hypergraph(ClusteredParams::default(), &mut rng);
        let h = &inst.hypergraph;
        let keep: Vec<NodeId> = h.nodes().filter(|v| v.index() % 3 != 0).collect();
        let (alive, alive_pins) = scoped_setup(h, &keep);
        let m = SpreadingMetric::from_lengths(
            (0..h.num_nets()).map(|i| 0.5 + (i % 7) as f64).collect(),
        );

        let induced = h.induce_tracked(&keep);
        let m_local = m.restrict(&induced.net_map);

        let csr = CsrHypergraph::with_lengths(h, m.lengths());
        let mut scratch = FindCutScratch::new(h);
        for seed in 0..6 {
            let r_scoped = find_cut_scoped(
                &csr,
                &keep,
                &alive,
                &alive_pins,
                10,
                18,
                &mut StdRng::seed_from_u64(seed),
                &Budget::unlimited(),
                &mut scratch,
            )
            .unwrap();
            let r_local = find_cut_all(
                &induced.hypergraph,
                &m_local,
                10,
                18,
                &mut StdRng::seed_from_u64(seed),
                &Budget::unlimited(),
            )
            .unwrap();
            let mapped: Vec<NodeId> = r_local
                .nodes
                .iter()
                .map(|v| induced.node_map[v.index()])
                .collect();
            assert_eq!(r_scoped.nodes, mapped, "seed {seed}");
            assert!((r_scoped.cut - r_local.cut).abs() < 1e-9, "seed {seed}");
            assert_eq!(r_scoped.in_window, r_local.in_window, "seed {seed}");
            assert!(r_scoped.nodes.iter().all(|v| alive[v.index()]));
        }
    }

    #[test]
    fn restart_pool_drains_every_component() {
        // 30 isolated 2-node components; the window demands all 60 nodes,
        // so the compacting restart pool must be emptied without missing a
        // component (and without the quadratic full rescan it replaced).
        let mut b = HypergraphBuilder::with_unit_nodes(60);
        for i in 0..30u32 {
            b.add_net(1.0, [NodeId(2 * i), NodeId(2 * i + 1)]).unwrap();
        }
        let h = b.build().unwrap();
        let m = SpreadingMetric::from_lengths(vec![1.0; 30]);
        let r = find_cut_all(
            &h,
            &m,
            60,
            60,
            &mut StdRng::seed_from_u64(11),
            &Budget::unlimited(),
        )
        .unwrap();
        assert!(r.in_window);
        assert_eq!(r.nodes.len(), 60);
        assert!(r.cut.abs() < 1e-9, "nothing crosses the full set");
    }

    #[test]
    #[should_panic(expected = "empty size window")]
    fn inverted_window_panics() {
        let mut b = HypergraphBuilder::with_unit_nodes(2);
        b.add_net(1.0, [NodeId(0), NodeId(1)]).unwrap();
        let h = b.build().unwrap();
        let m = SpreadingMetric::from_lengths(vec![1.0]);
        let _ = find_cut_all(
            &h,
            &m,
            3,
            2,
            &mut StdRng::seed_from_u64(0),
            &Budget::unlimited(),
        );
    }
}
