//! E8 — skip pointers (Lemma 5.8): constant-time `SKIP` queries; build cost
//! `O(n · δ^k)`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use nd_bench::{random_vertices, GraphFamily, SPARSE_FAMILIES};
use nd_core::SkipPointers;
use nd_cover::{Cover, KernelIndex};

/// `SKIP` queries over lists of every third vertex: `skip/query` asks
/// two-bag sets of a k = 2 table (Claim 5.9's keyed rows), `skip/hop_k1`
/// one-bag sets of a k = 1 table (one kernel search per hop).
fn bench_skip_query(c: &mut Criterion) {
    for (name, k) in [("skip/query", 2usize), ("skip/hop_k1", 1)] {
        let mut group = c.benchmark_group(name);
        group.sample_size(10);
        group.warm_up_time(std::time::Duration::from_millis(300));
        group.measurement_time(std::time::Duration::from_secs(1));
        for &f in SPARSE_FAMILIES {
            for n in [4_000usize, 16_000, 64_000] {
                let g = f.build(n, 7);
                let r = 2;
                let cover = Cover::build(&g, 2 * r, 0.5);
                let kernels = KernelIndex::build(&g, &cover, r);
                let list: Vec<u32> = (0..g.n() as u32).filter(|v| v % 3 == 0).collect();
                let sp = SkipPointers::build_with_cap(g.n(), &kernels, list, k, 64 * g.n());
                let bs = random_vertices(g.n(), 512, 21);
                let anchors = random_vertices(g.n(), 1_024, 22);
                group.throughput(Throughput::Elements(bs.len() as u64));
                group.bench_with_input(BenchmarkId::new(f.name(), g.n()), &sp, |b, sp| {
                    b.iter(|| {
                        for (i, &probe) in bs.iter().enumerate() {
                            let bags = [
                                cover.bag_of(anchors[2 * i]),
                                cover.bag_of(anchors[2 * i + 1]),
                            ];
                            std::hint::black_box(sp.skip(&kernels, probe, &bags[..k]));
                        }
                    })
                });
            }
        }
        group.finish();
    }
}

/// Table builds over the full list on grids: `skip/build_k1` is the
/// one-sweep singleton values alone, `skip/build` at k = 2 adds Claim
/// 5.10's keyed closure.
fn bench_skip_build(c: &mut Criterion) {
    for (name, k) in [("skip/build", 2usize), ("skip/build_k1", 1)] {
        let mut group = c.benchmark_group(name);
        group.sample_size(10);
        group.warm_up_time(std::time::Duration::from_millis(300));
        group.measurement_time(std::time::Duration::from_secs(1));
        for n in [4_000usize, 16_000, 64_000] {
            let g = GraphFamily::Grid.build(n, 7);
            let cover = Cover::build(&g, 4, 0.5);
            let kernels = KernelIndex::build(&g, &cover, 2);
            let list: Vec<u32> = (0..g.n() as u32).collect();
            group.throughput(Throughput::Elements(g.n() as u64));
            group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
                b.iter(|| {
                    SkipPointers::build_with_cap(g.n(), &kernels, list.clone(), k, 64 * g.n())
                })
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_skip_query, bench_skip_build);
criterion_main!(benches);
