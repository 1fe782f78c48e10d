//! The traced run: per-layer metrics, timed from outside.
//!
//! Each layer is timed by wrapping the benchmark's own calls into that
//! layer's public functions in spans. The prepare-side layers are rebuilt
//! outside the engine with the engine's own radius, ε and skip cap, and
//! their counts must equal the engine's `PrepareStats`. A first phase
//! repeats the end-to-end rounds with tracing alternately off and on, so
//! the tracing overhead is measured as traced minus untraced.

use crate::bench::{ms, Ctx, PROBES};
use crate::record::Samples;
use nd_bench::time_it;
use nd_core::engine::fragment::{compile, BinKind, FragmentQuery};
use nd_core::{DistOracle, MmapLoadOpts, SharedPreparedQuery, SkipPointers, VerifyPolicy};
use nd_cover::{Cover, KernelIndex};
use nd_graph::{BudgetTracker, ColoredGraph, Vertex};
use nd_logic::Formula;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Probe tuples per layer micro-batch: enough that one timer reading
/// covers tens of microseconds or more.
const PROBE_BATCH: usize = 4_096;
/// Layer rounds (and traced/untraced round pairs) every run makes.
const MIN_LAYER_ROUNDS: u64 = 3;
/// Stream salt of the layer probes, apart from the end-to-end streams.
const LAYER_PROBES: u64 = PROBES ^ 0x4c;
/// Mutation batches of the layer rounds are drawn after the ones the
/// end-to-end rounds use.
const LAYER_LOGS: u64 = 1 << 20;

/// End-to-end metrics whose tracing overhead is reported.
const OVERHEAD: [(&str, &str, &str); 5] = [
    ("setup_s", "trace.overhead.setup_s", "s"),
    ("first_answer_ms", "trace.overhead.first_answer_ms", "ms"),
    ("probe_rps", "trace.overhead.probe_rps", "requests/s"),
    (
        "enum_ns_per_answer",
        "trace.overhead.enum_ns_per_answer",
        "ns",
    ),
    ("update_ms", "trace.overhead.update_ms", "ms"),
];

pub fn run(ctx: &mut Ctx, budget: Duration, trace_path: &Path) -> Samples {
    let mut s = Samples::default();
    let t0 = Instant::now();

    let (mut off, mut on) = (Samples::default(), Samples::default());
    let mut round = 0;
    while round < 2 * MIN_LAYER_ROUNDS || t0.elapsed() < budget * 2 / 5 {
        let traced = round % 2 == 1;
        ctx.tracer.set_enabled(traced);
        let id = ctx.tracer.begin("round", round);
        ctx.round(round, if traced { &mut on } else { &mut off });
        ctx.tracer.end(id);
        round += 1;
    }
    for (name, overhead, unit) in OVERHEAD {
        if let (Some(a), Some(b)) = (on.value(name), off.value(name)) {
            s.count(overhead, unit, a - b);
        }
    }

    ctx.tracer.set_enabled(true);
    let branches = match compile(&ctx.query) {
        Ok(b) => b,
        Err(e) => {
            ctx.tally
                .check(false, || format!("query left the fragment: {e:?}"));
            return s;
        }
    };
    let mut rebuilds = 0u64;
    let mut applies = 0u64;
    let mut layer_round = 0;
    let t1 = Instant::now();
    let phase_b = budget.saturating_sub(t0.elapsed());
    while layer_round < MIN_LAYER_ROUNDS || t1.elapsed() < phase_b {
        let req = round + layer_round;
        let id = ctx.tracer.begin("layer_round", req);
        let mut built = Vec::new();
        let mut outside = 0.0;
        for fq in &branches {
            let (b, t) = Outside::build(ctx, fq, req, &mut s);
            outside += t;
            built.push(b);
        }
        let setup = ctx.prepare(req);
        s.count("prepare.outside_share", "ratio", outside / ms(setup));
        check_counts(ctx, &built, &mut s);
        if let Some(b) = built.iter().find(|b| b.far.is_some()) {
            b.probe(ctx, req, &mut s);
        }
        engine_layer(ctx, req, &mut s);
        serve_layer(ctx, req, &mut s);
        persist_layer(ctx, req, &mut s);
        let (applied, rebuilt) = update_layer(ctx, req, &mut s);
        applies += applied;
        rebuilds += rebuilt;
        ctx.tracer.end(id);
        layer_round += 1;
    }
    if applies > 0 {
        s.count(
            "update.rebuild_ratio",
            "ratio",
            rebuilds as f64 / applies as f64,
        );
    }
    ctx.tracer.set_enabled(false);
    for (name, (total, own)) in ctx.tracer.self_times() {
        eprintln!(
            "perfbench: span {name:<18} total {:>10.3} ms  self {:>10.3} ms",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
    if let Err(e) = ctx.tracer.write(trace_path) {
        eprintln!("perfbench: writing {}: {e}", trace_path.display());
    }
    s
}

/// One branch's prepare-side structures, rebuilt outside the engine.
struct Outside {
    oracles: Vec<(u32, DistOracle)>,
    cover: Option<Cover>,
    kernels: Option<KernelIndex>,
    skips: Vec<SkipPointers>,
    /// The first far constraint `(anchor position, far position, radius)`;
    /// `skips[0]` belongs to its far position.
    far: Option<(usize, usize, u32)>,
}

impl Outside {
    /// Rebuild the structures `BranchEngine` builds for `fq`, in its
    /// order and with its parameters. Returns them with the summed build
    /// time in milliseconds. The branches of the workload queries carry
    /// no sentences, so every branch is active.
    fn build(ctx: &mut Ctx, fq: &FragmentQuery, req: u64, s: &mut Samples) -> (Outside, f64) {
        let g: &ColoredGraph = &ctx.inputs.graph.clone();
        let n = g.n();
        let eps = ctx.opts.epsilon;
        let tracker = BudgetTracker::unlimited();
        let tr = &mut ctx.tracer;
        let mut total = 0.0;
        let add = |s: &mut Samples, total: &mut f64, name: &'static str, t: Duration| {
            s.timed(name, "ms", ms(t), t);
            *total += ms(t);
        };

        let (lists, t) = tr.span("logic.unary", req, |_| {
            time_it(|| {
                (0..fq.k)
                    .map(|j| match &fq.unary[j] {
                        Formula::True => (0..n as Vertex).collect(),
                        f => nd_logic::locality::evaluate_unary(g, f, fq.vars[j]),
                    })
                    .collect::<Vec<Vec<Vertex>>>()
            })
        });
        add(s, &mut total, "unary.build_ms", t);

        let mut dist_opts = ctx.opts.dist;
        dist_opts.epsilon = eps;
        let mut radii: Vec<u32> = fq
            .binary
            .iter()
            .filter_map(|c| match c.kind {
                BinKind::Le(d) | BinKind::Gt(d) => Some(d),
                _ => None,
            })
            .collect();
        radii.sort_unstable();
        radii.dedup();
        let (oracles, t) = tr.span("dist.build", req, |_| {
            time_it(|| {
                radii
                    .iter()
                    .map(|&d| (d, DistOracle::try_build(g, d, &dist_opts, &tracker)))
                    .collect::<Vec<_>>()
            })
        });
        add(s, &mut total, "dist.build_ms", t);
        let oracles: Vec<(u32, DistOracle)> = oracles
            .into_iter()
            .filter_map(|(d, o)| ctx.tally.op("dist build", o).map(|o| (d, o)))
            .collect();

        let r = fq.max_radius();
        let mut out = Outside {
            oracles,
            cover: None,
            kernels: None,
            skips: Vec::new(),
            far: None,
        };
        let tr = &mut ctx.tracer;
        if !radii.is_empty() {
            let (cover, t) = tr.span("cover.build", req, |_| {
                time_it(|| Cover::try_build(g, 2 * r, eps, &tracker))
            });
            add(s, &mut total, "cover.build_ms", t);
            out.cover = ctx.tally.op("cover build", cover);
        }
        let far_positions: Vec<(usize, usize)> = (0..fq.k)
            .filter_map(|j| {
                let far = fq.constraints_on(j).filter(|c| c.kind.excluding()).count();
                (far > 0).then_some((j, far))
            })
            .collect();
        if let (Some(cover), false) = (&out.cover, far_positions.is_empty()) {
            let tr = &mut ctx.tracer;
            let (kernels, t) = tr.span("kernel.build", req, |_| {
                time_it(|| KernelIndex::try_build_threads(g, cover, r, 1, &tracker))
            });
            add(s, &mut total, "kernel.build_ms", t);
            let Some(kernels) = ctx.tally.op("kernel build", kernels) else {
                return (out, total);
            };
            let cap = (64 * n).max(1_000_000);
            let tr = &mut ctx.tracer;
            let (skips, t) = tr.span("skip.build", req, |_| {
                time_it(|| {
                    far_positions
                        .iter()
                        .map(|&(j, far)| {
                            SkipPointers::try_build_with_cap(
                                n,
                                &kernels,
                                lists[j].clone(),
                                far,
                                cap,
                                &tracker,
                            )
                        })
                        .collect::<Vec<_>>()
                })
            });
            add(s, &mut total, "skip.build_ms", t);
            for sp in skips {
                if let Some(sp) = ctx.tally.op("skip build", sp) {
                    out.skips.push(sp);
                }
            }
            let (j, _) = far_positions[0];
            if out.skips.len() == far_positions.len() {
                out.far = fq
                    .constraints_on(j)
                    .find(|c| c.kind.excluding())
                    .map(|c| (c.i, j, c.kind.radius()));
            }
            out.kernels = Some(kernels);
        }
        (out, total)
    }

    /// Probe each rebuilt layer with a batch of seeded tuples.
    fn probe(&self, ctx: &mut Ctx, req: u64, s: &mut Samples) {
        let Some((i, j, d)) = self.far else {
            return;
        };
        let (Some(cover), Some(kernels)) = (&self.cover, &self.kernels) else {
            return;
        };
        let g = ctx.inputs.graph.clone();
        let tuples = ctx
            .inputs
            .tuples(LAYER_PROBES, req * PROBE_BATCH as u64, PROBE_BATCH);
        let per = |t: Duration| t.as_nanos() as f64 / PROBE_BATCH as f64;
        let tr = &mut ctx.tracer;

        if let Some((_, oracle)) = self.oracles.iter().find(|(r, _)| *r == d) {
            let (_, t) = tr.span("dist.test", req, |_| {
                time_it(|| black_box(tuples.iter().filter(|t| oracle.test(t[i], t[j])).count()))
            });
            s.timed("dist.test_ns", "ns", per(t), t);
        }

        let (_, t) = tr.span("graph.ball", req, |_| {
            time_it(|| {
                tuples
                    .iter()
                    .map(|t| black_box(nd_graph::bfs::ball(&g, t[i], d)).len())
                    .sum::<usize>()
            })
        });
        s.timed("graph.ball_ns", "ns", per(t), t);

        let sp = &self.skips[0];
        let (_, t) = tr.span("skip.hop", req, |_| {
            time_it(|| {
                tuples
                    .iter()
                    .filter_map(|t| sp.skip(kernels, t[j], &[cover.bag_of(t[i])]))
                    .count()
            })
        });
        s.timed("skip.hop_ns", "ns", per(t), t);

        // The cover's membership store, reached through its public
        // lookup: a hit is a far vertex inside the anchor's bag.
        let keys: Vec<(u32, Vertex)> = tuples.iter().map(|t| (cover.bag_of(t[i]), t[j])).collect();
        let (hits, t) = tr.span("store.successor", req, |_| {
            time_it(|| {
                keys.iter()
                    .filter(|&&(bag, v)| cover.successor_in_bag(bag, v) == Some(v))
                    .count()
            })
        });
        s.timed("store.successor_ns", "ns", per(t), t);
        s.count("store.hit_ratio", "ratio", hits as f64 / PROBE_BATCH as f64);
    }
}

/// The outside rebuild must reproduce the engine's own counts.
fn check_counts(ctx: &mut Ctx, built: &[Outside], s: &mut Samples) {
    let want = ctx.snapshot.prepared().stats();
    let oracle_vertices: usize = built
        .iter()
        .flat_map(|b| &b.oracles)
        .map(|(_, o)| o.stats().total_vertices)
        .sum();
    let covers = || built.iter().filter_map(|b| b.cover.as_ref());
    let cover_degree = covers().map(Cover::degree).max().unwrap_or(0);
    let cover_total: usize = covers().map(Cover::total_bag_size).sum();
    let skips = || built.iter().flat_map(|b| &b.skips);
    let skip_entries: usize = skips().map(SkipPointers::table_len).sum();
    let truncated = skips().any(SkipPointers::truncated);
    let kernel_degree = built
        .iter()
        .filter_map(|b| b.kernels.as_ref())
        .map(KernelIndex::degree)
        .max()
        .unwrap_or(0);
    let pairs = [
        ("oracle vertices", oracle_vertices, want.oracle_vertices),
        ("cover degree", cover_degree, want.cover_degree),
        ("cover total size", cover_total, want.cover_total_size),
        ("skip entries", skip_entries, want.skip_entries),
        (
            "skip truncated",
            truncated as usize,
            want.skip_truncated as usize,
        ),
    ];
    for (what, got, want) in pairs {
        ctx.tally.check(got == want, || {
            format!("outside rebuild {what} = {got}, engine reports {want}")
        });
    }
    s.count("dist.oracle_vertices", "count", oracle_vertices as f64);
    s.count("cover.degree", "count", cover_degree as f64);
    s.count("cover.total_size", "count", cover_total as f64);
    s.count("kernel.degree", "count", kernel_degree as f64);
    s.count("skip.entries", "count", skip_entries as f64);
    s.count("skip.truncated", "count", f64::from(u8::from(truncated)));
}

/// Direct engine calls, no pool.
fn engine_layer(ctx: &mut Ctx, req: u64, s: &mut Samples) {
    let tuples = ctx
        .inputs
        .tuples(LAYER_PROBES ^ 1, req * PROBE_BATCH as u64, PROBE_BATCH);
    let pq = ctx.snapshot.prepared();
    let per = |t: Duration| t.as_nanos() as f64 / PROBE_BATCH as f64;
    let tr = &mut ctx.tracer;
    let (errors, t) = tr.span("engine.test", req, |_| {
        time_it(|| tuples.iter().filter(|t| pq.try_test(t).is_err()).count())
    });
    s.timed("engine.test_ns", "ns", per(t), t);
    let (errors2, t) = tr.span("engine.next", req, |_| {
        time_it(|| {
            tuples
                .iter()
                .filter(|t| black_box(pq.try_next_solution(t)).is_err())
                .count()
        })
    });
    s.timed("engine.next_ns", "ns", per(t), t);
    ctx.tally
        .ops(2 * PROBE_BATCH as u64, (errors + errors2) as u64);
    let (answers, t) = ctx
        .enumerate(req)
        .into_iter()
        .fold((0, Duration::ZERO), |(a, t), (n, d)| (a + n, t + d));
    if answers > 0 {
        s.timed(
            "engine.enum_ns_per_answer",
            "ns",
            t.as_nanos() as f64 / answers as f64,
            t,
        );
    }
}

/// The same request batch executed directly on the snapshot and through
/// the pool; the difference is the pool's per-request overhead.
fn serve_layer(ctx: &mut Ctx, req: u64, s: &mut Samples) {
    let batch = ctx.requests((LAYER_LOGS + req) * PROBE_BATCH as u64, PROBE_BATCH);
    let per = |t: Duration| t.as_nanos() as f64 / PROBE_BATCH as f64;
    let (snap, pool) = (&ctx.snapshot, &ctx.pool);
    let tr = &mut ctx.tracer;
    let (direct, td) = tr.span("serve.direct", req, |_| {
        time_it(|| batch.iter().map(|r| snap.execute(r)).collect::<Vec<_>>())
    });
    let pooled = batch.clone();
    let (pooled, tp) = tr.span("serve.pool", req, |_| {
        time_it(|| pool.submit(pooled).map(|h| h.wait()))
    });
    s.timed("serve.direct_ns", "ns", per(td), td);
    s.timed("serve.pool_ns", "ns", per(tp), tp);
    s.count("serve.overhead_ns", "ns", per(tp) - per(td));
    let mut errors = direct.iter().filter(|r| r.is_err()).count() as u64;
    match pooled {
        Ok(replies) => {
            errors += replies.iter().filter(|r| r.is_err()).count() as u64;
            for ((r, a), b) in batch.iter().zip(&direct).zip(&replies) {
                if let (Ok(a), Ok(b)) = (a, b) {
                    ctx.tally.check(a == b, || {
                        format!("pool answered {r:?} with {b:?}, direct {a:?}")
                    });
                }
            }
        }
        Err(_) => errors += PROBE_BATCH as u64,
    }
    ctx.tally.ops(2 * PROBE_BATCH as u64, errors);
    s.count("serve.errors", "count", errors as f64);
}

fn persist_layer(ctx: &mut Ctx, req: u64, s: &mut Samples) {
    let path = ctx.base_path.clone();
    let opts = MmapLoadOpts {
        verify: VerifyPolicy::Lazy,
        prewarm: false,
    };
    let tr = &mut ctx.tracer;
    let (loaded, t) = tr.span("persist.load", req, |_| {
        time_it(|| SharedPreparedQuery::load_index_mmap(&path, &opts))
    });
    let Some(loaded) = ctx.tally.op("mmap load", loaded) else {
        return;
    };
    s.timed("persist.load_ms", "ms", ms(t), t);
    if let Some(d) = &loaded.deferred {
        let (r, t) = ctx
            .tracer
            .span("persist.verify", req, |_| time_it(|| d.verify()));
        ctx.tally.op("deferred CRC", r);
        s.timed("persist.verify_ms", "ms", ms(t), t);
    }
    s.count(
        "persist.bytes_mapped",
        "bytes",
        loaded.stats.bytes_mapped as f64,
    );
    s.count(
        "persist.bytes_decoded",
        "bytes",
        loaded.stats.bytes_decoded as f64,
    );
}

/// Returns (applies, rebuilds) made.
fn update_layer(ctx: &mut Ctx, req: u64, s: &mut Samples) -> (u64, u64) {
    let log = ctx.inputs.mutation_log(LAYER_LOGS + req);
    let g = ctx.inputs.graph.clone();
    let tr = &mut ctx.tracer;
    let (applied, t) = tr.span("update.log_apply", req, |_| time_it(|| log.apply_to(&g)));
    if ctx.tally.op("log apply", applied).is_none() {
        return (0, 0);
    }
    s.timed("update.log_apply_ms", "ms", ms(t), t);
    let Some((next, _)) = ctx.update_with(&log, req) else {
        return (0, 0);
    };
    let stats = next.stats();
    s.count("update.repaired_bags", "count", stats.repaired_bags as f64);
    let (q, opts) = (&ctx.query, &ctx.opts);
    let (fresh, t) = ctx.tracer.span("update.reprepare", req, |_| {
        time_it(|| SharedPreparedQuery::prepare(next.graph_shared(), q, opts))
    });
    if let Some(fresh) = ctx.tally.op("re-prepare", fresh) {
        s.timed("update.reprepare_ms", "ms", ms(t), t);
        ctx.compare_epoch(&next, &fresh);
    }
    (1, stats.rebuilt as u64)
}
