//! Criterion bench: the FM engine underneath GFM/RFM/HFM.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use htp_baselines::fm::bipartition::{fm_bipartition, random_balanced_init, BisectionBounds};
use htp_baselines::hfm::{improve, HfmParams};
use htp_bench::paper_spec;
use htp_model::{HierarchicalPartition, TreeSpec};
use htp_netlist::gen::rent::{rent_circuit, RentParams};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_fm(c: &mut Criterion) {
    let mut group = c.benchmark_group("fm_bipartition");
    for nodes in [256usize, 1024] {
        let mut rng = StdRng::seed_from_u64(6);
        let h = rent_circuit(
            RentParams {
                nodes,
                primary_inputs: (nodes / 16).max(1),
                ..RentParams::default()
            },
            &mut rng,
        );
        let bounds = BisectionBounds::symmetric((h.total_size() * 11).div_ceil(20));
        group.bench_with_input(BenchmarkId::from_parameter(nodes), &nodes, |b, _| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(7);
                let init = random_balanced_init(&h, bounds, &mut rng).unwrap();
                black_box(fm_bipartition(&h, init, bounds, 8).unwrap())
            })
        });
    }
    group.finish();
}

fn bench_hfm(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(8);
    let h = rent_circuit(
        RentParams {
            nodes: 512,
            primary_inputs: 32,
            ..RentParams::default()
        },
        &mut rng,
    );
    let spec = paper_spec(&h);
    // A deliberately mediocre starting point: round-robin into 16 leaves.
    let assignment: Vec<usize> = (0..h.num_nodes()).map(|v| v % 16).collect();
    let p = HierarchicalPartition::full_kary(4, 2, &assignment).unwrap();

    // What the V-cycle hands HFM: a recorded uncoarsening level of
    // clustered:20x100 (616 coarse nodes of mixed size, 4157 merged nets
    // with summed capacities, about 17 nets per node) and its projected
    // partition. See the header of the .hgr file for how it was recorded.
    let level = htp_netlist::io::hgr::from_str(include_str!(
        "../../baselines/tests/data/vcycle_clustered20x100.hgr"
    ))
    .unwrap();
    let level_start = htp_model::io::from_str(include_str!(
        "../../baselines/tests/data/vcycle_clustered20x100.part"
    ))
    .unwrap();
    let level_spec = TreeSpec::full_tree(level.total_size(), 4, 2, 1.10, 1.0).unwrap();

    let mut group = c.benchmark_group("hierarchical_fm");
    group.sample_size(10);
    group.bench_function("improve_512", |b| {
        b.iter(|| black_box(improve(&h, &spec, &p, HfmParams::default()).unwrap()))
    });
    group.bench_function("improve_vcycle_level", |b| {
        b.iter(|| {
            black_box(improve(&level, &level_spec, &level_start, HfmParams::default()).unwrap())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_fm, bench_hfm);
criterion_main!(benches);
