//! Thm 3.1 — lookup-or-successor per store layout.
//!
//! The Storing Theorem's constant-time claim, measured separately for the
//! pointer trie (`FnStore`, the paper's node-allocated `T(f)`) and the
//! flat sorted arena (`FlatStore`, radix directory + bucket binary
//! search). Identical domains and probe streams, packed-key API on both
//! sides so neither layout pays tuple packing inside the timed loop. The
//! flat layout's probe cost inside a served index is the benchmark's
//! `store.successor_ns`; this bench keeps the flat-vs-trie contrast
//! (EXPERIMENTS.md A10 holds the last in-binary ratios).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use nd_bench::mix;
use nd_store::{FlatStore, FnStore, StoreParams};
use std::hint::black_box;

fn keys(n: u64, k: usize, count: usize, seed: u64) -> Vec<Vec<u64>> {
    (0..count as u64)
        .map(|i| {
            (0..k)
                .map(|c| mix(i * k as u64 + c as u64, seed) % n)
                .collect()
        })
        .collect()
}

fn bench_lookup_or_successor(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_lookup/lookup_or_successor");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(1));
    for log_n in [12u32, 16, 20] {
        let n = 1u64 << log_n;
        let params = StoreParams::new(n, 2, 0.25);
        let dom = keys(n, 2, 8_192, 3);
        let trie = FnStore::from_pairs(params, dom.iter().map(|k| (k.as_slice(), 1u64)));
        let flat = FlatStore::from_pairs(params, dom.iter().map(|k| (k.as_slice(), 1u64)));
        // Mostly-miss probes: the successor-on-miss path is what the
        // enumeration hot loop exercises.
        let probes: Vec<u128> = keys(n, 2, 1_024, 5)
            .iter()
            .map(|k| params.pack(k))
            .collect();
        group.throughput(Throughput::Elements(probes.len() as u64));
        group.bench_with_input(BenchmarkId::new("trie", n), &n, |b, _| {
            b.iter(|| {
                for &p in &probes {
                    black_box(trie.successor_inclusive_packed(black_box(p)));
                }
            })
        });
        group.bench_with_input(BenchmarkId::new("flat", n), &n, |b, _| {
            b.iter(|| {
                for &p in &probes {
                    black_box(flat.successor_inclusive_packed(black_box(p)));
                }
            })
        });
    }
    group.finish();
}

fn bench_bulk_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_lookup/bulk_build");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(1));
    for dom_size in [10_000usize, 100_000] {
        let n = 1u64 << 20;
        let params = StoreParams::new(n, 2, 0.25);
        let dom = keys(n, 2, dom_size, 11);
        group.throughput(Throughput::Elements(dom_size as u64));
        group.bench_with_input(BenchmarkId::new("trie", dom_size), &dom_size, |b, _| {
            b.iter(|| FnStore::from_pairs(params, dom.iter().map(|k| (k.as_slice(), 1u64))))
        });
        group.bench_with_input(BenchmarkId::new("flat", dom_size), &dom_size, |b, _| {
            b.iter(|| FlatStore::from_pairs(params, dom.iter().map(|k| (k.as_slice(), 1u64))))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_lookup_or_successor, bench_bulk_build);
criterion_main!(benches);
