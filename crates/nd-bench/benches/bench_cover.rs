//! E2 — neighborhood covers (Thm 4.4): pseudo-linear construction, and
//! bag successor queries, each one binary search in the sorted bag row
//! (`cover/successor_in_bag`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use nd_bench::{GraphFamily, SPARSE_FAMILIES};
use nd_cover::Cover;

fn bench_cover_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("cover/build");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(1));
    for &f in SPARSE_FAMILIES {
        for n in [4_000usize, 16_000, 64_000] {
            let g = f.build(n, 1);
            group.throughput(Throughput::Elements(g.n() as u64));
            group.bench_with_input(BenchmarkId::new(f.name(), g.n()), &g, |b, g| {
                b.iter(|| Cover::build(g, 2, 0.5))
            });
        }
    }
    group.finish();
}

fn bench_cover_radius(c: &mut Criterion) {
    let mut group = c.benchmark_group("cover/radius");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(1));
    let g = GraphFamily::Grid.build(16_000, 1);
    for r in [1u32, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(r), &r, |b, &r| {
            b.iter(|| Cover::build(&g, r, 0.5))
        });
    }
    group.finish();
}

fn bench_membership(c: &mut Criterion) {
    let mut group = c.benchmark_group("cover/successor_in_bag");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(1));
    for n in [4_000usize, 64_000] {
        let g = GraphFamily::BoundedDegree4.build(n, 2);
        let cover = Cover::build(&g, 2, 0.5);
        let probes = nd_bench::random_vertices(g.n(), 1_024, 3);
        group.throughput(Throughput::Elements(probes.len() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                for &v in &probes {
                    std::hint::black_box(cover.successor_in_bag(cover.bag_of(v), v));
                }
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_cover_build,
    bench_cover_radius,
    bench_membership
);
criterion_main!(benches);
