//! Boundary tests for `find_cut_scoped`'s stride-256 budget check and
//! for `CsrGrowerScratch` reuse across graphs.

use htp_core::constraint::{probe_source_csr, CsrProbeScratch};
use htp_core::findcut::{find_cut_scoped, FindCutResult, FindCutScratch};
use htp_core::sptree::CsrGrowerScratch;
use htp_core::{Budget, CancelToken, Interrupt, SpreadingMetric};
use htp_graph::IndexedMinHeap;
use htp_model::TreeSpec;
use htp_netlist::{CsrHypergraph, Hypergraph, HypergraphBuilder, NodeId};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn unit_chain(n: usize) -> Hypergraph {
    let mut b = HypergraphBuilder::with_unit_nodes(n);
    for i in 0..n as u32 - 1 {
        b.add_net(1.0, [NodeId(i), NodeId(i + 1)]).unwrap();
    }
    b.build().unwrap()
}

/// `find_cut_scoped` over the whole of `h`: every node alive.
fn find_cut_all(
    h: &Hypergraph,
    metric: &SpreadingMetric,
    lb: u64,
    ub: u64,
    rng: &mut StdRng,
    budget: &Budget,
) -> Result<FindCutResult, Interrupt> {
    let all: Vec<NodeId> = h.nodes().collect();
    let alive = vec![true; h.num_nodes()];
    let alive_pins: Vec<u32> = h.nets().map(|e| h.net_pins(e).len() as u32).collect();
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

fn cancelled_budget() -> Budget {
    let token = CancelToken::new();
    token.cancel();
    Budget::unlimited().with_cancel_token(token)
}

/// Grows up to `ub` unit nodes under a pre-cancelled budget and reports
/// whether the growth was interrupted. The growth loop absorbs one node
/// per iteration and only consults the budget every 256 iterations, so
/// the cancellation becomes observable exactly when `ub` reaches 256.
fn grow_with_cancelled_budget(ub: u64) -> Result<(), Interrupt> {
    let h = unit_chain(300);
    let metric = SpreadingMetric::from_lengths(vec![1.0; h.num_nets()]);
    let mut rng = StdRng::seed_from_u64(1);
    find_cut_all(&h, &metric, 1, ub, &mut rng, &cancelled_budget()).map(|r| {
        assert!(r.in_window);
    })
}

#[test]
fn growth_of_255_steps_never_reaches_the_budget_check() {
    // 255 iterations: the stride counter never hits 256, so even a
    // cancelled budget goes unnoticed and the cut completes.
    assert_eq!(grow_with_cancelled_budget(255), Ok(()));
}

#[test]
fn growth_step_256_hits_the_budget_check() {
    assert_eq!(grow_with_cancelled_budget(256), Err(Interrupt::Cancelled));
}

#[test]
fn growth_step_257_is_interrupted_at_256() {
    assert_eq!(grow_with_cancelled_budget(257), Err(Interrupt::Cancelled));
}

#[test]
fn unlimited_budget_passes_the_stride_check() {
    let h = unit_chain(300);
    let metric = SpreadingMetric::from_lengths(vec![1.0; h.num_nets()]);
    let mut rng = StdRng::seed_from_u64(1);
    let r = find_cut_all(&h, &metric, 1, 257, &mut rng, &Budget::unlimited())
        .expect("an unlimited budget never interrupts");
    assert!(r.in_window);
    let prefix: u64 = r.nodes.iter().map(|&v| h.node_size(v)).sum();
    assert!((1..=257).contains(&prefix));
}

fn unit_cycle(n: usize) -> Hypergraph {
    let mut b = HypergraphBuilder::with_unit_nodes(n);
    for i in 0..n as u32 {
        b.add_net(1.0, [NodeId(i), NodeId((i + 1) % n as u32)])
            .unwrap();
    }
    b.build().unwrap()
}

#[test]
#[should_panic(expected = "scratch sized for a different node count")]
fn scratch_from_a_smaller_graph_is_rejected() {
    let small = CsrHypergraph::new(&unit_chain(4));
    let big = CsrHypergraph::new(&unit_chain(5));
    let mut scratch = CsrGrowerScratch::new(&small);
    let mut heap = IndexedMinHeap::new(big.num_nodes());
    scratch.start(&big, &mut heap, 0);
}

#[test]
#[should_panic(expected = "scratch sized for a different net count")]
fn scratch_with_a_different_net_count_is_rejected() {
    // Same node count, different net count: a chain vs. a cycle.
    let chain = CsrHypergraph::new(&unit_chain(6));
    let cycle = CsrHypergraph::new(&unit_cycle(6));
    let mut scratch = CsrGrowerScratch::new(&chain);
    let mut heap = IndexedMinHeap::new(cycle.num_nodes());
    scratch.start(&cycle, &mut heap, 0);
}

#[test]
#[should_panic(expected = "scratch sized for a different net count")]
fn probe_scratch_for_another_graph_is_rejected() {
    let chain = CsrHypergraph::new(&unit_chain(6));
    let cycle = CsrHypergraph::new(&unit_cycle(6));
    let spec = TreeSpec::new(vec![(2, 2, 1.0), (6, 3, 1.0)]).unwrap();
    let mut scratch = CsrProbeScratch::new(&chain);
    let _ = probe_source_csr(&cycle, &spec, NodeId(0), 1e-9, &mut scratch, false);
}

#[test]
fn scratch_reuse_across_same_shaped_graphs_matches_fresh_buffers() {
    // Two different topologies with identical node/net counts: a chain
    // and a star-ish tree. One scratch serves both, in alternation, and
    // must always reproduce the fresh-buffer distances.
    let chain = unit_chain(8);
    let mut b = HypergraphBuilder::with_unit_nodes(8);
    for i in 1..8u32 {
        b.add_net(1.0, [NodeId(0), NodeId(i)]).unwrap();
    }
    let star = b.build().unwrap();
    let lengths: Vec<f64> = (0..7).map(|i| 1.0 + i as f64).collect();
    let (chain, star) = (
        CsrHypergraph::with_lengths(&chain, &lengths),
        CsrHypergraph::with_lengths(&star, &lengths),
    );
    let grow = |csr: &CsrHypergraph, scratch: &mut CsrGrowerScratch, source: u32| {
        let mut heap = IndexedMinHeap::new(csr.num_nodes());
        scratch.start(csr, &mut heap, source);
        std::iter::from_fn(|| scratch.step(csr, &mut heap))
            .map(|step| (step.node, step.dist))
            .collect::<Vec<_>>()
    };

    let mut scratch = CsrGrowerScratch::new(&chain);
    for round in 0..3 {
        for csr in [&chain, &star] {
            for source in 0..8 {
                let reused = grow(csr, &mut scratch, source);
                let fresh = grow(csr, &mut CsrGrowerScratch::new(csr), source);
                assert_eq!(reused, fresh, "round {round}, source {source}");
            }
        }
    }
}
