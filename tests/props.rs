//! Cross-crate property tests: invariants that must hold for arbitrary
//! generated workloads.

use htp::baselines::hfm::{improve, HfmParams};
use htp::core::constraint::{
    check_feasibility, probe_source_csr, probe_source_weighted_csr, CsrProbeScratch,
};
use htp::core::construct::construct_partition;
use htp::core::injector::{compute_spreading_metric, FlowParams};
use htp::core::SpreadingMetric;
use htp::model::{cost, validate, HierarchicalPartition, TreeSpec};
use htp::netlist::gen::random::{random_hypergraph, RandomParams};
use htp::netlist::io::hgr;
use htp::netlist::CsrHypergraph;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn small_instance(seed: u64) -> htp::netlist::Hypergraph {
    let mut rng = StdRng::seed_from_u64(seed);
    random_hypergraph(
        RandomParams {
            nodes: 24,
            nets: 40,
            min_net_size: 2,
            max_net_size: 4,
        },
        &mut rng,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Generated netlists survive an hgr round-trip bit-for-bit.
    #[test]
    fn hgr_round_trip(seed in 0u64..500) {
        let h = small_instance(seed);
        let text = hgr::to_string(&h);
        let back = hgr::from_str(&text).unwrap();
        prop_assert_eq!(h, back);
    }

    /// Algorithm 2 always converges to a (P1)-feasible metric on feasible
    /// unit-size instances.
    #[test]
    fn injector_always_converges_feasibly(seed in 0u64..60) {
        let h = small_instance(seed);
        let spec = TreeSpec::new(vec![(5, 2, 1.0), (10, 2, 1.0), (24, 2, 1.0)]).unwrap();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xabcd);
        let (metric, stats) = compute_spreading_metric(&h, &spec, FlowParams::default(), &mut rng);
        prop_assert!(stats.converged);
        let report = check_feasibility(&h, &spec, &metric, 1e-6);
        prop_assert!(report.feasible, "shortfall {}", report.worst_shortfall);
    }

    /// Algorithm 3 always yields a spec-valid partition, whatever the
    /// metric.
    #[test]
    fn construction_is_always_valid(seed in 0u64..60, scale in 0.0f64..5.0) {
        let h = small_instance(seed);
        // Feasible by construction: C_l <= K·C_{l-1} at every level.
        let spec = TreeSpec::new(vec![(7, 2, 1.0), (13, 2, 1.0), (25, 2, 1.0)]).unwrap();
        let lengths: Vec<f64> = (0..h.num_nets()).map(|e| scale * (e % 7) as f64).collect();
        let metric = SpreadingMetric::from_lengths(lengths);
        let mut rng = StdRng::seed_from_u64(seed);
        let p = construct_partition(&h, &spec, &metric, &mut rng).unwrap();
        prop_assert!(validate::validate(&h, &spec, &p).is_ok());
    }

    /// The FM post-pass never increases cost and never breaks feasibility.
    #[test]
    fn improvement_is_monotone(seed in 0u64..60) {
        let h = small_instance(seed);
        let spec = TreeSpec::new(vec![(6, 2, 1.0), (13, 2, 2.0), (24, 2, 1.0)]).unwrap();
        // Start from a deliberately arbitrary assignment over 4 leaves.
        let assignment: Vec<usize> = (0..h.num_nodes()).map(|v| v % 4).collect();
        let p = HierarchicalPartition::full_kary(2, 2, &assignment).unwrap();
        prop_assume!(validate::validate(&h, &spec, &p).is_ok());
        let r = improve(&h, &spec, &p, HfmParams::default()).unwrap();
        prop_assert!(r.cost_after <= r.cost_before + 1e-9);
        prop_assert!(validate::validate(&h, &spec, &r.partition).is_ok());
        prop_assert!((cost::partition_cost(&h, &spec, &r.partition) - r.cost_after).abs() < 1e-9);
    }

    /// On unit-size netlists the weighted prefix order `(dist+1)·s(u)`
    /// degenerates to plain distance order, so the two violation oracles
    /// must agree: same verdict and, because any two distance-sorted
    /// enumerations share the distance multiset at every prefix length,
    /// identical size/lhs/bound at the first violating prefix.
    #[test]
    fn violation_oracles_agree_on_unit_sizes(seed in 0u64..40, scale in 0.0f64..3.0) {
        let h = small_instance(seed);
        let spec = TreeSpec::new(vec![(5, 2, 1.0), (10, 2, 1.0), (24, 2, 1.0)]).unwrap();
        let lengths: Vec<f64> =
            (0..h.num_nets()).map(|e| scale * ((e % 5) as f64) * 0.25).collect();
        let csr = CsrHypergraph::with_lengths(&h, &lengths);
        let mut scratch = CsrProbeScratch::new(&csr);
        for v in h.nodes() {
            let a = probe_source_csr(&csr, &spec, v, 1e-9, &mut scratch, false).violation;
            let b = probe_source_weighted_csr(&csr, &spec, v, 1e-9, &mut scratch, false).violation;
            match (&a, &b) {
                (Some(x), Some(y)) => {
                    prop_assert_eq!(x.size, y.size, "source {}", v);
                    prop_assert_eq!(x.bound, y.bound, "source {}", v);
                    prop_assert!(
                        (x.lhs - y.lhs).abs() <= 1e-9 * x.lhs.max(1.0),
                        "source {}: lhs {} vs {}", v, x.lhs, y.lhs
                    );
                }
                (None, None) => {}
                _ => prop_assert!(
                    false,
                    "source {}: oracles disagree ({} vs {})",
                    v, a.is_some(), b.is_some()
                ),
            }
        }
    }

    /// Lemma 1 across the whole stack: any valid partition produced by the
    /// real constructor induces a feasible metric with matching objective.
    #[test]
    fn lemma1_for_constructed_partitions(seed in 0u64..40) {
        let h = small_instance(seed);
        let spec = TreeSpec::new(vec![(7, 2, 1.0), (13, 2, 1.5), (25, 2, 1.0)]).unwrap();
        let metric = SpreadingMetric::from_lengths(vec![1.0; h.num_nets()]);
        let mut rng = StdRng::seed_from_u64(seed);
        let p = construct_partition(&h, &spec, &metric, &mut rng).unwrap();
        prop_assume!(validate::validate(&h, &spec, &p).is_ok());
        let induced = SpreadingMetric::from_partition(&h, &spec, &p);
        let report = check_feasibility(&h, &spec, &induced, 1e-9);
        prop_assert!(report.feasible, "Lemma 1 violated: {}", report.worst_shortfall);
        prop_assert!(
            (induced.objective(&h) - cost::partition_cost(&h, &spec, &p)).abs() < 1e-9
        );
    }
}
