//! The end-to-end operations a user of the engine waits for, run through
//! the public APIs of the crates, plus the answer checks that gate them.
//!
//! One measurement round performs every operation of the workload once
//! (with the workload's repetition counts), so slow phases of the host
//! hit all metrics alike. `setup_s` and `update_ms` are medians over
//! rounds; the other timed metrics are the slow tail of their samples
//! (see [`crate::record::TAIL`]).

use crate::inputs::{FirstAnswer, Inputs, Workload, BASE_RELOADS};
use crate::record::{peak_rss_mb, Samples, Tally};
use crate::trace::Tracer;
use nd_bench::time_it;
use nd_core::{MmapLoadOpts, MutationLog, PrepareOpts, SharedPreparedQuery, VerifyPolicy};
use nd_graph::Vertex;
use nd_logic::Query;
use nd_serve::{Request, ServeOpts, ServerPool, Snapshot};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Stream salts: each kind of generated input draws from its own stream.
pub const PROBES: u64 = 0x7072;
const WINDOWS: u64 = 0x656e;
const PANEL: u64 = 0x706e;
const GATE: u64 = 0x6761;

/// Tuples in the fixed probe panel whose answers are compared between
/// index copies.
const PANEL_SIZE: usize = 256;
/// Answers compared between an applied epoch and a fresh prepare.
const PREFIX_CHECK: usize = 256;
/// Requests per batch submitted to the serving pool: large enough that
/// the two thread hand-offs per batch are a small share of its time.
pub const BATCH: usize = 4096;
/// Answers drawn per enumeration window.
const WINDOW_LEN: usize = 256;
/// Enumeration windows timed together as one sample.
const WINDOWS_PER_SAMPLE: usize = 8;

pub struct Ctx {
    pub w: &'static Workload,
    pub inputs: Inputs,
    pub query: Query,
    pub opts: PrepareOpts,
    pub pool: ServerPool,
    pub snapshot: Snapshot,
    pub base_path: PathBuf,
    pub index_bytes: u64,
    pub tally: Tally,
    pub tracer: Tracer,
    panel: Vec<Vec<Vertex>>,
    base_sum: u64,
    first_from: Vec<Vertex>,
    scratch_dir: PathBuf,
    probe_cursor: u64,
    window_cursor: u64,
}

impl Ctx {
    /// Generate the inputs, prepare the base index untimed (it warms the
    /// allocator and page cache for every later round), save it, and
    /// start the serving pool: one worker beside this client thread.
    pub fn setup(w: &'static Workload, seed: u64, dir: &Path) -> Result<Ctx, String> {
        let query = nd_logic::parse_query(w.query).map_err(|e| format!("query: {e}"))?;
        let inputs = Inputs::generate(w, seed, query.arity());
        let opts = PrepareOpts {
            threads: 1,
            ..PrepareOpts::default()
        };
        let base = SharedPreparedQuery::prepare(inputs.graph.clone(), &query, &opts)
            .map_err(|e| format!("prepare: {e}"))?;
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let base_path = dir.join(format!("base-{}-{}.idx", w.name, std::process::id()));
        base.save_index(&query, w.query, &base_path)
            .map_err(|e| format!("save: {e}"))?;
        let index_bytes = std::fs::metadata(&base_path)
            .map_err(|e| format!("{}: {e}", base_path.display()))?
            .len();
        let panel = inputs.tuples(PANEL, 0, PANEL_SIZE);
        let mut tally = Tally::default();
        let base_sum = tally
            .op("panel checksum", panel_checksum(&base, &panel))
            .unwrap_or(0);
        let snapshot = Snapshot::from_prepared(base, query.clone(), w.query.to_string(), 0);
        let pool = ServerPool::start(
            snapshot.clone(),
            &ServeOpts {
                workers: 1,
                ..ServeOpts::default()
            },
        );
        Ok(Ctx {
            first_from: vec![0; query.arity()],
            w,
            inputs,
            query,
            opts,
            pool,
            snapshot,
            base_path,
            index_bytes,
            tally,
            tracer: Tracer::new(),
            panel,
            base_sum,
            scratch_dir: dir.to_path_buf(),
            probe_cursor: 0,
            window_cursor: 0,
        })
    }

    /// Answer checks made once per run: `test` against the reference
    /// evaluator, `next_solution` against the first answer of
    /// `enumerate_from`, and the enumeration order.
    pub fn gate(&mut self) {
        let g = self.inputs.graph.clone();
        let tuples = self.inputs.tuples(GATE, 0, 1_000);
        let mut positives = Vec::new();
        for t in &tuples {
            let Some(got) = self.tally.op("test", self.snapshot.prepared().try_test(t)) else {
                continue;
            };
            let want = nd_logic::eval(&g, &self.query, t);
            self.tally.check(got == want, || {
                format!("test {t:?}: index {got}, eval {want}")
            });
        }
        for t in tuples.iter().take(250) {
            let Some(next) = self.tally.op(
                "next_solution",
                self.snapshot.prepared().try_next_solution(t),
            ) else {
                continue;
            };
            let Some(mut it) = self
                .tally
                .op("enumerate_from", self.snapshot.prepared().enumerate_from(t))
            else {
                continue;
            };
            let first = it.next();
            self.tally.check(next == first, || {
                format!("next_solution {t:?} = {next:?}, enumerate_from gives {first:?}")
            });
            let rest: Vec<Vec<Vertex>> = it.take(16).collect();
            let ordered = first.iter().chain(&rest).collect::<Vec<_>>();
            self.tally
                .check(ordered.windows(2).all(|p| p[0] < p[1]), || {
                    format!("enumerate_from {t:?} is not strictly increasing")
                });
            positives.extend(first);
        }
        for t in &positives {
            let want = nd_logic::eval(&g, &self.query, t);
            self.tally.check(want, || {
                format!("answer {t:?} fails the reference evaluator")
            });
        }
    }

    /// `PreparedQuery::prepare` from the graph in memory to a ready index.
    pub fn prepare(&mut self, round: u64) -> Duration {
        let (g, q, opts) = (self.inputs.graph.clone(), &self.query, &self.opts);
        let (r, t) = self.tracer.span("engine.prepare", round, |_| {
            time_it(|| SharedPreparedQuery::prepare(g, q, opts))
        });
        self.tally.op("prepare", r);
        t
    }

    /// Index file → `load_index_mmap` → deferred CRCs settled → first
    /// `next_solution`. The loaded copy must then answer the probe panel
    /// exactly like `expect`, the in-memory index the file was saved from.
    pub fn first_answer(
        &mut self,
        path: &Path,
        expect: &SharedPreparedQuery,
        expect_sum: u64,
        round: u64,
    ) -> Option<Duration> {
        let from = self.first_from.clone();
        let (loaded, t) = self.tracer.span("first_answer", round, |tr| {
            time_it(|| -> Result<_, nd_core::PersistError> {
                let opts = MmapLoadOpts {
                    verify: VerifyPolicy::Lazy,
                    prewarm: false,
                };
                let loaded = tr.span("persist.load", round, |_| {
                    SharedPreparedQuery::load_index_mmap(path, &opts)
                })?;
                if let Some(d) = &loaded.deferred {
                    tr.span("persist.verify", round, |_| d.verify())?;
                }
                let first = tr.span("engine.next", round, |_| {
                    loaded.prepared.try_next_solution(&from)
                });
                Ok((loaded, first))
            })
        });
        let (loaded, first) = self.tally.op("mmap load", loaded)?;
        let first = self.tally.op("first next_solution", first)?;
        let want = expect.try_next_solution(&from).ok().flatten();
        self.tally.check(first == want, || {
            format!("mmap first answer {first:?}, in-memory {want:?}")
        });
        if let Some(sum) = self.tally.op(
            "panel checksum",
            panel_checksum(&loaded.prepared, &self.panel),
        ) {
            self.tally.check(sum == expect_sum, || {
                format!("mmap-loaded index checksum {sum:#x}, in-memory {expect_sum:#x}")
            });
        }
        Some(t)
    }

    /// Reload the saved base index.
    pub fn reload_base(&mut self, round: u64) -> Option<Duration> {
        let (path, snap, sum) = (self.base_path.clone(), self.snapshot.clone(), self.base_sum);
        self.first_answer(&path, snap.prepared(), sum, round)
    }

    /// Closed-loop probing through the pool: `batches` batches of seeded
    /// 3:1 `Test`:`NextSolution` requests, each submitted after the
    /// previous one is answered. Returns (requests answered, time) per
    /// batch.
    pub fn probe(&mut self, round: u64) -> Vec<(u64, Duration)> {
        let batches: Vec<Vec<Request>> = (0..self.w.batches)
            .map(|_| {
                let start = self.probe_cursor;
                self.probe_cursor += BATCH as u64;
                self.requests(start, BATCH)
            })
            .collect();
        let check = batches[0].clone();
        let pool = &self.pool;
        let results = self.tracer.span("probe", round, |tr| {
            batches
                .into_iter()
                .map(|b| {
                    tr.span("serve.pool", round, |_| {
                        time_it(|| pool.submit(b).map(|h| h.wait()))
                    })
                })
                .collect::<Vec<_>>()
        });
        let mut answered = Vec::with_capacity(results.len());
        let mut first: Option<Vec<_>> = None;
        for (r, t) in results {
            match r {
                Ok(replies) => {
                    let failed = replies.iter().filter(|x| x.is_err()).count() as u64;
                    self.tally.ops(replies.len() as u64, failed);
                    answered.push((replies.len() as u64 - failed, t));
                    first.get_or_insert(replies);
                }
                Err(e) => {
                    self.tally.ops(BATCH as u64, BATCH as u64);
                    eprintln!("perfbench: batch rejected: {e}");
                }
            }
        }
        for (req, got) in check.iter().zip(first.iter().flatten()) {
            let want = self.snapshot.execute(req);
            if let (Ok(got), Ok(want)) = (got, &want) {
                self.tally.check(got == want, || {
                    format!("pool answered {req:?} with {got:?}, direct {want:?}")
                });
            }
        }
        answered
    }

    /// Seeded 3:1 `Test`:`NextSolution` requests.
    pub fn requests(&self, start: u64, count: usize) -> Vec<Request> {
        (start..start + count as u64)
            .map(|i| {
                let tuple = self.inputs.tuple(PROBES, i);
                if i % 4 == 3 {
                    Request::NextSolution { from: tuple }
                } else {
                    Request::Test { tuple }
                }
            })
            .collect()
    }

    /// `enumerate_from` windows opened at seeded start tuples. Returns
    /// (answers, time) per group of [`WINDOWS_PER_SAMPLE`] windows.
    pub fn enumerate(&mut self, round: u64) -> Vec<(u64, Duration)> {
        let starts = self
            .inputs
            .tuples(WINDOWS, self.window_cursor, self.w.windows);
        self.window_cursor += self.w.windows as u64;
        let base = self.snapshot.prepared();
        let mut errors = 0u64;
        let samples = self.tracer.span("enumerate", round, |tr| {
            starts
                .chunks(WINDOWS_PER_SAMPLE)
                .map(|group| {
                    time_it(|| {
                        let mut answers = 0u64;
                        for s in group {
                            tr.span("engine.enumerate", round, |_| {
                                match base.enumerate_from(s) {
                                    Ok(it) => answers += it.take(WINDOW_LEN).count() as u64,
                                    Err(_) => errors += 1,
                                }
                            });
                        }
                        answers
                    })
                })
                .collect()
        });
        self.tally.ops(starts.len() as u64, errors);
        samples
    }

    /// `PreparedQuery::apply` of the round's mutation batch to the base
    /// index. When `check` is set, the new epoch must answer like a fresh
    /// prepare of the mutated graph.
    pub fn update(&mut self, round: u64, check: bool) -> Option<(SharedPreparedQuery, Duration)> {
        let log = self.inputs.mutation_log(round);
        let (next, t) = self.update_with(&log, round)?;
        if check {
            let fresh = SharedPreparedQuery::prepare(next.graph_shared(), &self.query, &self.opts);
            if let Some(fresh) = self.tally.op("re-prepare", fresh) {
                self.compare_epoch(&next, &fresh);
            }
        }
        Some((next, t))
    }

    pub fn update_with(
        &mut self,
        log: &MutationLog,
        round: u64,
    ) -> Option<(SharedPreparedQuery, Duration)> {
        let (base, q, opts) = (self.snapshot.prepared(), &self.query, &self.opts);
        let (r, t) = self.tracer.span("update.apply", round, |_| {
            time_it(|| base.apply(log, q, opts))
        });
        self.tally.op("apply", r).map(|next| (next, t))
    }

    /// An applied epoch must answer like a fresh prepare of its graph.
    pub fn compare_epoch(&mut self, next: &SharedPreparedQuery, fresh: &SharedPreparedQuery) {
        let (a, b) = (
            panel_checksum(next, &self.panel),
            panel_checksum(fresh, &self.panel),
        );
        self.tally.check(a.is_ok() && a.ok() == b.ok(), || {
            "applied epoch and fresh prepare disagree on the probe panel".into()
        });
        let got: Vec<_> = next.enumerate().take(PREFIX_CHECK).collect();
        let want: Vec<_> = fresh.enumerate().take(PREFIX_CHECK).collect();
        self.tally.check(got == want, || {
            "applied epoch and fresh prepare enumerate differently".into()
        });
    }

    /// Save an applied epoch and reload it: the restart path of a live
    /// index. Returns the first-answer time of the reload.
    pub fn restart(&mut self, epoch: &SharedPreparedQuery, round: u64) -> Option<Duration> {
        let path =
            self.scratch_dir
                .join(format!("epoch-{}-{}.idx", self.w.name, std::process::id()));
        let (q, src) = (&self.query, self.w.query);
        let saved = self
            .tracer
            .span("persist.save", round, |_| epoch.save_index(q, src, &path));
        self.tally.op("save epoch", saved)?;
        let sum = self
            .tally
            .op("panel checksum", panel_checksum(epoch, &self.panel))?;
        let t = self.first_answer(&path, epoch, sum, round);
        let _ = std::fs::remove_file(&path);
        t
    }

    /// One measurement round; samples go to `s`.
    pub fn round(&mut self, round: u64, s: &mut Samples) {
        let t = self.prepare(round);
        s.timed("setup_s", "s", t.as_secs_f64(), t);

        if self.w.first_answer == FirstAnswer::Base {
            for _ in 0..BASE_RELOADS {
                if let Some(t) = self.reload_base(round) {
                    s.tail("first_answer_ms", "ms", false, ms(t), t);
                }
            }
        }

        for (answered, t) in self.probe(round) {
            if answered > 0 {
                let rps = answered as f64 / t.as_secs_f64();
                s.tail("probe_rps", "requests/s", true, rps, t);
            }
        }

        for (answers, t) in self.enumerate(round) {
            if answers > 0 {
                let ns = t.as_nanos() as f64 / answers as f64;
                s.tail("enum_ns_per_answer", "ns", false, ns, t);
            }
        }

        // Mutation batches differ in cost by 2-4x (on prepare-heavy about a
        // quarter cost twice the rest), so a tail quantile of `update_ms`
        // would sit on the edge between cost classes; its median does not.
        let check = round.is_multiple_of(4);
        if let Some((epoch, t)) = self.update(round, check) {
            s.timed("update_ms", "ms", ms(t), t);
            if self.w.first_answer == FirstAnswer::Epoch {
                if let Some(t) = self.restart(&epoch, round) {
                    s.tail("first_answer_ms", "ms", false, ms(t), t);
                }
            }
        }
    }

    /// Sizes measured once: the saved index and the process peak.
    pub fn sizes(&self, s: &mut Samples) {
        s.count("index_bytes", "bytes", self.index_bytes as f64);
        s.count("peak_rss_mb", "MB", peak_rss_mb());
    }

    pub fn cleanup(&self) {
        let _ = std::fs::remove_file(&self.base_path);
    }
}

pub fn ms(t: Duration) -> f64 {
    t.as_secs_f64() * 1e3
}

/// FNV-1a over the probe panel's `test` bits and `next_solution` answers.
pub fn panel_checksum(
    pq: &SharedPreparedQuery,
    panel: &[Vec<Vertex>],
) -> Result<u64, nd_core::QueryError> {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for t in panel {
        eat(pq.try_test(t)? as u64);
        match pq.try_next_solution(t)? {
            Some(next) => next.iter().for_each(|&v| eat(u64::from(v))),
            None => eat(u64::MAX),
        }
    }
    Ok(h)
}
