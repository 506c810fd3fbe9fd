//! ECO golden: every route of `warm_partition` pinned line by line.
//!
//! Each case edits a bootstrapped netlist and re-solves it under one
//! budget. Its golden line records how the run ended, which route it took
//! (`warm`), the cost bits, digests of the partition and of the carried
//! lengths, the deterministic metric counters including the interrupt, and
//! the subtree-salvage report; a failing case records its error text.
//!
//! The cases cover both routes:
//!
//! * warm: clustered 1% and 5% edits of a mixed-size Rent netlist, a
//!   unit-size Rent netlist and a planted-cluster netlist;
//! * cold fallback: an edit past the locality gate, and a netlist under
//!   the gate's node floor.
//!
//! and five budgets each: unlimited, one round, exactly the first metric's
//! round count (the second metric is stopped before its first round), 200
//! probes, and cancelled before the start.
//!
//! The report is the same at 1 and 2 threads, except for the probe cap:
//! probe workers race to charge it, so that budget runs at one thread only.
//! The dial/heap split of the rounds is left out of the lines because the
//! CI matrix forces each frontier in turn; it is checked to sum to the
//! round count instead.
//!
//! Regenerate the golden file after an intentional algorithm change with:
//!
//! ```text
//! HTP_UPDATE_GOLDEN=1 cargo test -p htp-eco --test warm_golden
//! ```

use std::fmt::Write as _;

use rand::rngs::StdRng;
use rand::SeedableRng;

use htp_core::injector::{
    compute_spreading_metric, compute_spreading_metric_budgeted, FlowParams, WarmStart,
};
use htp_core::partitioner::PartitionerParams;
use htp_core::Budget;
use htp_eco::{
    random_delta, random_delta_clustered, warm_partition, AppliedDelta, EcoSession, NetlistDelta,
    WarmPolicy, WarmRun,
};
use htp_model::{HierarchicalPartition, TreeSpec};
use htp_netlist::gen::clustered::{clustered_hypergraph, ClusteredParams};
use htp_netlist::gen::rent::{rent_circuit, RentParams};
use htp_netlist::{Hypergraph, HypergraphBuilder};

const GOLDEN_PATH: &str = "tests/golden/warm.txt";

fn params(threads: usize) -> PartitionerParams {
    PartitionerParams {
        iterations: 2,
        constructions_per_metric: 2,
        flow: FlowParams {
            threads,
            ..FlowParams::default()
        },
    }
}

fn rent(nodes: usize, seed: u64) -> Hypergraph {
    rent_circuit(
        RentParams {
            nodes,
            primary_inputs: (nodes / 16).max(1),
            locality: 0.8,
            ..RentParams::default()
        },
        &mut StdRng::seed_from_u64(seed),
    )
}

/// Every 7th node becomes size 2, as in the `eco-rent2k` workload.
fn mixed_sizes(h: &Hypergraph) -> Hypergraph {
    let mut b = HypergraphBuilder::new();
    for v in h.nodes() {
        b.add_node(if v.index() % 7 == 0 { 2 } else { 1 });
    }
    for e in h.nets() {
        b.add_net_lenient(h.net_capacity(e), h.net_pins(e).to_vec())
            .unwrap();
    }
    b.build().unwrap()
}

fn planted(seed: u64) -> Hypergraph {
    clustered_hypergraph(
        ClusteredParams {
            clusters: 8,
            cluster_size: 60,
            intra_nets: 600,
            inter_nets: 40,
            min_net_size: 2,
            max_net_size: 3,
        },
        &mut StdRng::seed_from_u64(seed),
    )
    .hypergraph
}

fn fnv1a(mut acc: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        acc ^= u64::from(b);
        acc = acc.wrapping_mul(0x0000_0100_0000_01b3);
    }
    acc
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Digests the leaf assignment by leaf rank in `leaves()` order, which is
/// stable under internal vertex renumbering.
fn partition_digest(h: &Hypergraph, p: &HierarchicalPartition) -> u64 {
    let mut rank = vec![u64::MAX; p.num_vertices()];
    for (i, q) in p.leaves().into_iter().enumerate() {
        rank[q.index()] = i as u64;
    }
    h.nodes().fold(FNV_OFFSET, |acc, v| {
        fnv1a(acc, &rank[p.leaf_of(v).index()].to_le_bytes())
    })
}

fn lengths_digest(lengths: &[f64]) -> u64 {
    lengths
        .iter()
        .fold(FNV_OFFSET, |acc, d| fnv1a(acc, &d.to_bits().to_le_bytes()))
}

fn line(run: &WarmRun, h: &Hypergraph) -> String {
    let s = &run.stats;
    assert_eq!(s.dial_rounds + s.heap_rounds, s.rounds, "frontier split");
    let v = &run.salvage;
    format!(
        "outcome={:?} warm={} cost={:016x} partition={:016x} lengths={:016x} \
         injections={} rounds={} converged={} probes={} wasted={} panicked={} \
         deferrals={} oracle_faults={} interrupt={:?} \
         salvage={}/{}/{}/{}/{}/{}",
        run.outcome,
        run.warm,
        run.cost.to_bits(),
        partition_digest(h, &run.partition),
        lengths_digest(&run.lengths),
        s.injections,
        s.rounds,
        s.converged,
        s.probes,
        s.wasted_probes,
        s.panicked_probes,
        s.deferrals,
        s.oracle_faults,
        s.interrupt,
        v.candidates,
        v.accepted,
        v.rejected_touched,
        v.rejected_certificate,
        v.rejected_slots,
        v.salvaged_nodes,
    )
}

/// Rounds of the first metric the solve runs: warm from the carried
/// lengths on the touched nodes, or cold on the fallback route.
fn first_metric_rounds(
    s: &EcoSession,
    applied: &AppliedDelta,
    threads: usize,
    seed: u64,
    warm: bool,
) -> u64 {
    let h = &applied.hypergraph;
    let flow = params(threads).flow;
    let mut rng = StdRng::seed_from_u64(seed);
    let (_, stats) = if warm {
        let carry = applied.report.carry_lengths(s.lengths(), h.num_nets());
        compute_spreading_metric_budgeted(
            h,
            s.spec(),
            flow,
            &mut rng,
            &Budget::unlimited(),
            Some(&WarmStart {
                lengths: &carry,
                active: &applied.report.touched_nodes,
            }),
        )
    } else {
        compute_spreading_metric(h, s.spec(), flow, &mut rng)
    };
    stats.rounds as u64
}

struct Scenario {
    name: &'static str,
    session: EcoSession,
    delta: NetlistDelta,
}

fn scenarios(threads: usize) -> Vec<Scenario> {
    // Each netlist with the edit-script seeds of its 1% and 5% clustered
    // edits; all four edits keep the touched closure under the gate.
    let base = [
        ("rent-mixed400", mixed_sizes(&rent(400, 11)), [200, 211]),
        ("rent-unit600", rent(600, 12), [210, 211]),
        ("planted8x60", planted(13), [220, 221]),
    ];
    let mut out = Vec::new();
    for (i, (name, h, edit_seeds)) in base.into_iter().enumerate() {
        let session = bootstrap(h, 100 + i as u64, threads);
        for (rate, seed) in [0.01, 0.05].into_iter().zip(edit_seeds) {
            let mut rng = StdRng::seed_from_u64(seed);
            out.push(Scenario {
                name,
                delta: random_delta_clustered(session.hypergraph(), rate, &mut rng),
                session: session.clone(),
            });
        }
        if i == 1 {
            // Scattered edits of 30% of the nodes: the touched closure is
            // far past the gate's 25%.
            let mut rng = StdRng::seed_from_u64(300);
            out.push(Scenario {
                name,
                delta: random_delta(session.hypergraph(), 0.3, &mut rng),
                session,
            });
        }
    }
    // Under the gate's 256-node floor.
    let session = bootstrap(rent(200, 14), 104, threads);
    let delta = random_delta_clustered(session.hypergraph(), 0.05, &mut StdRng::seed_from_u64(301));
    out.push(Scenario {
        name: "rent-unit200",
        session,
        delta,
    });
    out
}

fn bootstrap(h: Hypergraph, seed: u64, threads: usize) -> EcoSession {
    let spec = TreeSpec::full_tree(h.total_size(), 3, 3, 1.2, 1.0).unwrap();
    EcoSession::bootstrap(h, spec, params(threads), seed).unwrap()
}

fn report(threads: usize) -> String {
    let mut out = String::new();
    for (k, sc) in scenarios(threads).iter().enumerate() {
        let s = &sc.session;
        let applied = sc.delta.apply(s.hypergraph()).unwrap();
        let h = &applied.hypergraph;
        let seed = 400 + k as u64;
        let solve = |budget: &Budget| {
            warm_partition(
                h,
                s.spec(),
                &params(threads),
                &WarmPolicy::default(),
                s.partition(),
                s.lengths(),
                &applied.report,
                &mut StdRng::seed_from_u64(seed),
                budget,
            )
        };
        let unlimited = solve(&Budget::unlimited()).unwrap();
        let r = first_metric_rounds(s, &applied, threads, seed, unlimited.warm);
        let cancelled = Budget::unlimited();
        cancelled.cancel_token().cancel();
        let mut budgets = vec![
            ("unlimited".to_string(), Budget::unlimited()),
            (
                "rounds1".to_string(),
                Budget::unlimited().with_max_rounds(1),
            ),
            (format!("rounds{r}"), Budget::unlimited().with_max_rounds(r)),
            ("cancelled".to_string(), cancelled),
        ];
        if threads == 1 {
            budgets.push((
                "probes200".to_string(),
                Budget::unlimited().with_max_probes(200),
            ));
        }
        for (name, budget) in budgets {
            let text = match solve(&budget) {
                Ok(run) => line(&run, h),
                Err(e) => format!("error: {e}"),
            };
            writeln!(
                out,
                "{} case{k} edit={} nodes={} {name} {text}",
                sc.name,
                sc.delta.len(),
                h.num_nodes()
            )
            .unwrap();
        }
    }
    out
}

/// Every case matches its golden line. Set `HTP_UPDATE_GOLDEN=1` to
/// rewrite the golden file instead.
#[test]
fn warm_and_cold_fallback_routes_match_the_golden() {
    let report = report(1);
    if std::env::var_os("HTP_UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, &report).expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file exists (regenerate with HTP_UPDATE_GOLDEN=1)");
    assert_eq!(
        report, golden,
        "ECO drift: rerun with HTP_UPDATE_GOLDEN=1 if intentional"
    );
}

/// Two probe threads reproduce the one-thread report line for line.
#[test]
fn two_threads_match_one() {
    let single: String = report(1)
        .lines()
        .filter(|l| !l.contains(" probes200 "))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(report(2), single);
}
