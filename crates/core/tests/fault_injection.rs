//! Deterministic fault-injection harness (requires `--features
//! fault-injection`): seeded probe panics, injected oracle errors, and
//! forced deadline expiry, all reproducible bit-for-bit.
#![cfg(feature = "fault-injection")]

use std::sync::Once;

use htp_core::injector::{compute_spreading_metric_budgeted, FlowParams};
use htp_core::partitioner::{FlowPartitioner, PartitionerParams};
use htp_core::{Budget, FaultPlan, Interrupt, RunOutcome};
use htp_model::{validate, TreeSpec};
use htp_netlist::gen::clustered::{clustered_hypergraph, ClusteredParams};
use htp_netlist::{Hypergraph, HypergraphBuilder};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Keep the expected probe panics out of the test output.
fn silence_panic_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.contains("injected probe fault"))
                || info
                    .payload()
                    .downcast_ref::<&str>()
                    .is_some_and(|m| m.contains("injected probe fault"));
            if !injected {
                default(info);
            }
        }));
    });
}

/// `h` with every 7th node resized to 2, so the metric probes run in the
/// weighted `(dist + 1)·s(u)` prefix order instead of distance order.
fn with_mixed_sizes(h: &Hypergraph) -> Hypergraph {
    let mut b = HypergraphBuilder::new();
    for v in h.nodes() {
        b.add_node(if v.index() % 7 == 0 { 2 } else { 1 });
    }
    for e in h.nets() {
        b.add_net(h.net_capacity(e), h.net_pins(e).iter().copied())
            .expect("pins are unchanged");
    }
    b.build().expect("sizes are positive")
}

/// A clustered instance from `seed`, unit-size and mixed-size.
fn unit_and_mixed(seed: u64) -> [Hypergraph; 2] {
    let mut rng = StdRng::seed_from_u64(seed);
    let h = clustered_hypergraph(ClusteredParams::default(), &mut rng).hypergraph;
    let mixed = with_mixed_sizes(&h);
    [h, mixed]
}

fn params(threads: usize) -> PartitionerParams {
    let mut p = PartitionerParams {
        iterations: 2,
        constructions_per_metric: 2,
        ..PartitionerParams::default()
    };
    p.flow.threads = threads;
    p
}

/// Acceptance (a): deadline expiry in the middle of a metric computation —
/// forced deterministically at round 2 — degrades gracefully to a valid
/// best-so-far partition, identically at every thread count, in either
/// prefix order.
#[test]
fn forced_expiry_mid_metric_degrades_deterministically() {
    for h in &unit_and_mixed(1) {
        let spec = TreeSpec::full_tree(h.total_size(), 2, 2, 1.2, 1.0).unwrap();
        let mut outputs = Vec::new();
        for threads in [1usize, 2, 4] {
            let plan = FaultPlan::new().expire_at_round(2);
            let budget = Budget::unlimited().with_faults(plan);
            let mut run_rng = StdRng::seed_from_u64(9);
            let run = FlowPartitioner::try_new(params(threads))
                .unwrap()
                .run_with_budget(h, &spec, &mut run_rng, &budget)
                .expect("salvage succeeds on this instance");

            let what = format!("unit sizes {}, threads={threads}", h.has_unit_sizes());
            assert_eq!(run.outcome, RunOutcome::Degraded, "{what}");
            validate::validate(h, &spec, &run.result.partition).unwrap();
            let stats = &run.result.history[0].stats;
            assert_eq!(stats.interrupt, Some(Interrupt::Deadline), "{what}");
            assert!(!stats.converged, "{what}");
            outputs.push((run.result.partition.clone(), run.result.cost));
        }
        for (p, c) in &outputs[1..] {
            assert_eq!(
                *p, outputs[0].0,
                "degraded output must not depend on threads"
            );
            assert_eq!(c.to_bits(), outputs[0].1.to_bits());
        }
    }
}

/// Acceptance (b): a seeded probe panic is contained — the run completes,
/// the panic is recorded in `InjectionStats`, and the final metric is
/// unaffected by the worker thread count, in either prefix order.
#[test]
fn seeded_probe_panic_is_contained_and_recorded() {
    silence_panic_hook();
    for h in &unit_and_mixed(2) {
        let spec = TreeSpec::full_tree(h.total_size(), 2, 2, 1.2, 1.0).unwrap();
        let mut metrics = Vec::new();
        for threads in [1usize, 2, 4] {
            let plan = FaultPlan::new().panic_at_probe(3).panic_at_probe(17);
            let budget = Budget::unlimited().with_faults(plan);
            let flow = FlowParams {
                threads,
                ..FlowParams::default()
            };
            let mut run_rng = StdRng::seed_from_u64(4);
            let (metric, stats) =
                compute_spreading_metric_budgeted(h, &spec, flow, &mut run_rng, &budget, None);

            let what = format!("unit sizes {}, threads={threads}", h.has_unit_sizes());
            assert_eq!(stats.panicked_probes, 2, "{what}");
            assert_eq!(
                stats.interrupt, None,
                "a contained panic is not an interrupt"
            );
            assert!(
                stats.converged,
                "the panicked nodes are re-probed and converge ({what})"
            );
            metrics.push(metric);
        }
        for m in &metrics[1..] {
            assert_eq!(*m, metrics[0], "metric must not depend on threads");
        }
    }
}

/// A probe panic inside a full partitioner run is contained too: the run
/// completes with a valid partition and the fault shows up in the history.
#[test]
fn probe_panic_during_a_full_run_does_not_abort_it() {
    silence_panic_hook();
    let mut rng = StdRng::seed_from_u64(6);
    let inst = clustered_hypergraph(ClusteredParams::default(), &mut rng);
    let h = &inst.hypergraph;
    let spec = TreeSpec::full_tree(h.total_size(), 2, 2, 1.2, 1.0).unwrap();

    let plan = FaultPlan::new().panic_at_probe(5);
    let budget = Budget::unlimited().with_faults(plan);
    let mut run_rng = StdRng::seed_from_u64(8);
    let run = FlowPartitioner::try_new(params(2))
        .unwrap()
        .run_with_budget(h, &spec, &mut run_rng, &budget)
        .unwrap();

    // The run reached the end; the fault was absorbed, not fatal, and the
    // outcome reports the degradation.
    assert_eq!(run.outcome, RunOutcome::Degraded);
    validate::validate(h, &spec, &run.result.partition).unwrap();
    // Fault-plan probe indices are relative to each metric computation, so
    // probe 5 panics once per iteration.
    let total_panics: usize = run
        .result
        .history
        .iter()
        .map(|r| r.stats.panicked_probes)
        .sum();
    assert_eq!(total_panics, run.result.history.len());
}

/// Injected oracle errors are handled like contained panics: recorded,
/// node kept in the working set, computation converges.
#[test]
fn injected_oracle_errors_are_recorded_and_survived() {
    let mut rng = StdRng::seed_from_u64(10);
    let inst = clustered_hypergraph(ClusteredParams::default(), &mut rng);
    let h = &inst.hypergraph;
    let spec = TreeSpec::full_tree(h.total_size(), 2, 2, 1.2, 1.0).unwrap();

    let plan = FaultPlan::new()
        .oracle_error_at_probe(0)
        .oracle_error_at_probe(11);
    let budget = Budget::unlimited().with_faults(plan);
    let mut run_rng = StdRng::seed_from_u64(12);
    let (_, stats) = compute_spreading_metric_budgeted(
        h,
        &spec,
        FlowParams::default(),
        &mut run_rng,
        &budget,
        None,
    );
    assert_eq!(stats.oracle_faults, 2);
    assert!(stats.converged);
}

/// Seeded random panics hit a deterministic probe subset: two identical
/// plans produce bit-identical stats and metrics.
#[test]
fn seeded_panic_rate_is_reproducible() {
    silence_panic_hook();
    let mut rng = StdRng::seed_from_u64(14);
    let inst = clustered_hypergraph(ClusteredParams::default(), &mut rng);
    let h = &inst.hypergraph;
    let spec = TreeSpec::full_tree(h.total_size(), 2, 2, 1.2, 1.0).unwrap();

    let run = |threads: usize| {
        // ~5% of probes panic.
        let plan = FaultPlan::new().seeded_panics(0xFEED, 50_000);
        let budget = Budget::unlimited().with_faults(plan);
        let flow = FlowParams {
            threads,
            ..FlowParams::default()
        };
        let mut run_rng = StdRng::seed_from_u64(16);
        compute_spreading_metric_budgeted(h, &spec, flow, &mut run_rng, &budget, None)
    };
    let (m1, s1) = run(1);
    let (m1_again, s1_again) = run(1);
    assert!(
        s1.panicked_probes > 0,
        "the 5% rate should hit at least once"
    );
    assert_eq!(s1, s1_again, "identical plans replay bit-for-bit");
    assert_eq!(m1, m1_again);
    // Panic sites are probe-indexed, so they are thread-count invariant
    // (speculative waste is not, so only the metric and panic count must
    // agree across thread counts).
    let (m4, s4) = run(4);
    assert_eq!(s1.panicked_probes, s4.panicked_probes);
    assert_eq!(m1, m4);
}

/// An empty fault plan behaves exactly like no plan at all.
#[test]
fn empty_fault_plan_is_a_no_op() {
    let mut rng = StdRng::seed_from_u64(18);
    let inst = clustered_hypergraph(ClusteredParams::default(), &mut rng);
    let h = &inst.hypergraph;
    let spec = TreeSpec::full_tree(h.total_size(), 2, 2, 1.2, 1.0).unwrap();

    let part = FlowPartitioner::try_new(params(2)).unwrap();
    let mut rng_a = StdRng::seed_from_u64(20);
    let plain = part.run(h, &spec, &mut rng_a).unwrap();

    let budget = Budget::unlimited().with_faults(FaultPlan::new());
    let mut rng_b = StdRng::seed_from_u64(20);
    let faulted = part.run_with_budget(h, &spec, &mut rng_b, &budget).unwrap();

    assert_eq!(faulted.outcome, RunOutcome::Complete);
    assert_eq!(plain.partition, faulted.result.partition);
    assert_eq!(plain.cost.to_bits(), faulted.result.cost.to_bits());
}
