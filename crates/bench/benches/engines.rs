//! Criterion bench: alternative engines — FM with and without spectral
//! seeding, the multilevel V-cycle vs flat FLOW, and the V-cycle's
//! flow-refinement pass.

use criterion::{criterion_group, criterion_main, Criterion};
use htp_baselines::fm::bipartition::{fm_bipartition, random_balanced_init, BisectionBounds};
use htp_baselines::spectral::{spectral_fm_bipartition, SpectralParams};
use htp_bench::{paper_spec, threads_from_env};
use htp_cluster::refine::{flow_refine_pass, FlowRefineParams};
use htp_cluster::vcycle::{vcycle_partition, VCycleParams};
use htp_core::injector::FlowParams;
use htp_core::partitioner::{FlowPartitioner, PartitionerParams};
use htp_core::runtime::Budget;
use htp_model::{cost, TreeSpec};
use htp_netlist::gen::rent::{rent_circuit, RentParams};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_fm_engines(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(11);
    let h = rent_circuit(
        RentParams {
            nodes: 1024,
            primary_inputs: 64,
            ..RentParams::default()
        },
        &mut rng,
    );
    let bounds = BisectionBounds::symmetric((h.total_size() * 11).div_ceil(20));
    let init = random_balanced_init(&h, bounds, &mut rng).unwrap();

    let mut group = c.benchmark_group("fm_engines");
    group.bench_function("heap", |b| {
        b.iter(|| black_box(fm_bipartition(&h, init.clone(), bounds, 8).unwrap()))
    });
    group.bench_function("spectral_seed_plus_fm", |b| {
        b.iter(|| {
            black_box(spectral_fm_bipartition(&h, bounds, SpectralParams::default(), 8).unwrap())
        })
    });
    group.finish();
}

fn bench_multilevel(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(12);
    let h = rent_circuit(
        RentParams {
            nodes: 700,
            primary_inputs: 48,
            locality: 0.8,
            ..RentParams::default()
        },
        &mut rng,
    );
    let spec = paper_spec(&h);

    // Both engines honour the shared HTP_THREADS knob; results are
    // bit-identical at any thread count, only the wall-clock moves.
    let threads = threads_from_env();
    let partitioner = PartitionerParams {
        flow: FlowParams {
            threads,
            ..FlowParams::default()
        },
        ..PartitionerParams::default()
    };
    let mut vcycle = VCycleParams::default();
    vcycle.partitioner.flow.threads = threads;
    vcycle.refine.threads = threads;

    let mut group = c.benchmark_group("multilevel_vs_flat");
    group.sample_size(10);
    group.bench_function("flat_flow", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(13);
            black_box(
                FlowPartitioner::try_new(partitioner)
                    .unwrap()
                    .run(&h, &spec, &mut rng)
                    .unwrap(),
            )
        })
    });
    group.bench_function("vcycle", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(13);
            black_box(vcycle_partition(&h, &spec, vcycle, &mut rng).unwrap())
        })
    });
    group.finish();
}

fn bench_flow_refine(c: &mut Criterion) {
    // What the V-cycle hands the flow pass: a recorded uncoarsening level
    // of clustered:20x100 (616 coarse nodes of mixed size, 4157 merged
    // nets) and its projected partition. See the header of the .hgr file
    // for how it was recorded.
    let level = htp_netlist::io::hgr::from_str(include_str!(
        "../../baselines/tests/data/vcycle_clustered20x100.hgr"
    ))
    .unwrap();
    let start = htp_model::io::from_str(include_str!(
        "../../baselines/tests/data/vcycle_clustered20x100.part"
    ))
    .unwrap();
    let spec = TreeSpec::full_tree(level.total_size(), 4, 2, 1.10, 1.0).unwrap();
    let start_cost = cost::partition_cost(&level, &spec, &start);
    // One thread: the cascades, gadget builds and max-flows themselves,
    // without the pool's fan-out.
    let params = FlowRefineParams {
        threads: 1,
        ..FlowRefineParams::default()
    };

    let mut group = c.benchmark_group("flow_refine");
    group.sample_size(10);
    group.bench_function("pass_vcycle_level", |b| {
        b.iter(|| {
            black_box(
                flow_refine_pass(
                    &level,
                    &spec,
                    &start,
                    start_cost,
                    &params,
                    &Budget::unlimited(),
                )
                .unwrap(),
            )
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_fm_engines,
    bench_multilevel,
    bench_flow_refine
);
criterion_main!(benches);
