//! CSB ablations (design choices from DESIGN.md): one-to-one vs dynamic
//! column allocation, group width factor `k`, and the throughput of the
//! one-thread insertion the engine's buffer steps run.

use phigraph_apps::workloads::{self, Scale};
use phigraph_apps::Sssp;
use phigraph_bench::harness::{BenchmarkId, Criterion, Throughput};
use phigraph_bench::{criterion_group, criterion_main};
use phigraph_core::benchable::csb_fixture;
use phigraph_core::csb::{ColumnMode, CsbLayout};
use phigraph_core::engine::{run_single, EngineConfig};
use phigraph_device::DeviceSpec;

fn bench_column_modes(c: &mut Criterion) {
    let g = workloads::pokec_like_weighted(Scale::Tiny, 5);
    let mut group = c.benchmark_group("csb/column_mode");
    group.sample_size(10);
    for mode in [ColumnMode::OneToOne, ColumnMode::Dynamic] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{mode:?}")),
            &mode,
            |b, &mode| {
                b.iter(|| {
                    run_single(
                        &Sssp { source: 0 },
                        &g,
                        DeviceSpec::xeon_phi_se10p(),
                        &EngineConfig::locking().with_column_mode(mode),
                    )
                })
            },
        );
    }
    group.finish();
}

fn bench_k_sweep(c: &mut Criterion) {
    let g = workloads::pokec_like_weighted(Scale::Tiny, 5);
    let mut group = c.benchmark_group("csb/k_sweep");
    group.sample_size(10);
    for k in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            b.iter(|| {
                run_single(
                    &Sssp { source: 0 },
                    &g,
                    DeviceSpec::xeon_phi_se10p(),
                    &EngineConfig::locking().with_k(k),
                )
            })
        });
    }
    group.finish();
}

fn bench_insert_throughput(c: &mut Criterion) {
    // A seeded uniform-destination stream inserted in stream order on the
    // calling thread, one full buffer fill + reset per iteration.
    let (n, n_msgs) = (4096usize, 200_000usize);
    let mut group = c.benchmark_group("csb/insert");
    group.throughput(Throughput::Elements(n_msgs as u64));
    group.sample_size(10);
    for mode in [ColumnMode::OneToOne, ColumnMode::Dynamic] {
        let mut fx = csb_fixture(n, n_msgs, mode, 9);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{mode:?}")),
            &mode,
            |b, _| b.iter(|| fx.insert()),
        );
    }
    group.finish();
}

fn bench_layout_build(c: &mut Criterion) {
    let g = workloads::pokec_like(Scale::Tiny, 5);
    let n = g.num_vertices();
    let owned: Vec<u32> = (0..n as u32).collect();
    let cap = g.in_degrees();
    c.bench_function("csb/layout_build", |b| {
        b.iter(|| CsbLayout::build(n, &owned, &cap, 16, 4))
    });
}

criterion_group!(
    benches,
    bench_column_modes,
    bench_k_sweep,
    bench_insert_throughput,
    bench_layout_build
);
criterion_main!(benches);
