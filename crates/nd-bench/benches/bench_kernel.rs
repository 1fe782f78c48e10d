//! E9 — kernels (Lemma 5.7): `K_p(X)` in `O(p · ‖G[X]‖)`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use nd_bench::SPARSE_FAMILIES;
use nd_cover::{Cover, KernelIndex};
use nd_graph::budget::BudgetTracker;

fn bench_kernel_index(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel/index");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(1));
    for &f in SPARSE_FAMILIES {
        let g = f.build(16_000, 8);
        let cover = Cover::build(&g, 4, 0.5);
        for p in [1u32, 2, 4] {
            group.throughput(Throughput::Elements(cover.total_bag_size() as u64));
            group.bench_with_input(BenchmarkId::new(f.name(), p), &p, |b, &p| {
                b.iter(|| KernelIndex::build(&g, &cover, p))
            });
        }
    }
    group.finish();
}

/// The cover alone, the cover then a separate kernel pass, and the fused
/// pass that emits the `K_p` rows from the cover's own boundary BFS.
fn bench_fused_cover_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel/fused");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(1));
    for &f in SPARSE_FAMILIES {
        let g = f.build(16_000, 8);
        let tracker = BudgetTracker::unlimited();
        group.throughput(Throughput::Elements(g.n() as u64));
        group.bench_with_input(BenchmarkId::new(f.name(), "cover"), &g, |b, g| {
            b.iter(|| Cover::try_build(g, 4, 0.5, &tracker).unwrap())
        });
        group.bench_with_input(BenchmarkId::new(f.name(), "two-pass"), &g, |b, g| {
            b.iter(|| {
                let cover = Cover::try_build(g, 4, 0.5, &tracker).unwrap();
                KernelIndex::try_build(g, &cover, 2, &tracker).unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new(f.name(), "fused"), &g, |b, g| {
            b.iter(|| Cover::try_build_with_kernels(g, 4, 2, &tracker).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_kernel_index, bench_fused_cover_kernels);
criterion_main!(benches);
