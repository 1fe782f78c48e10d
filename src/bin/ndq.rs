//! `ndq` — a command-line front-end for the nowhere-dense query engine.
//!
//! ```sh
//! # enumerate the first 10 answers of a query over a generated graph
//! ndq --graph grid:80x80 --color Blue:0.15:7 \
//!     --query "dist(x,y) > 2 && Blue(y)" --enumerate 10
//!
//! # count answers over a graph file (see nd-graph::io for the format)
//! ndq --graph-file network.g --query "E(x,y) && Hub(x)" --count
//!
//! # constant-time membership tests and next-solution jumps
//! ndq --graph tree:50000:3 --color Blue:0.1:1 \
//!     --query "dist(x,y) > 4 && Blue(y)" --test 17,3009 --next 17,0 --stats
//!
//! # serve probes over a line protocol (stdin or TCP)
//! ndq serve --graph grid:60x60 --color Blue:0.3:7 \
//!     --query "dist(x,y) > 2 && Blue(y)" --workers 4
//! ```

use nowhere_dense::core::{
    Budget, Epsilon, LoadedIndex, MmapLoadOpts, NdError, PrepareOpts, PreparedQuery,
    SharedPreparedQuery, VerifyPolicy,
};
use nowhere_dense::graph::{generators, io, ColoredGraph, Vertex};
use nowhere_dense::logic::parse_query;
use nowhere_dense::serve::{
    Reply, ServeError, ServeOpts, Session, DEFAULT_CACHE_CAPACITY, SESSION_PROTOCOL_HELP,
};
use std::borrow::Borrow;
use std::io::{BufRead, Write};
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Errors and exit codes
// ---------------------------------------------------------------------------

/// Top-level CLI failure. Every variant maps to a distinct exit code (see
/// `EXIT CODES` in `--help`), so scripts can dispatch on `$?` without
/// scraping stderr.
#[derive(Debug)]
enum CliError {
    /// Malformed command line or un-parseable client input.
    Usage(String),
    /// A typed engine error, exit-coded per `NdError` variant.
    Nd(NdError),
    /// A serving-runtime error outside the `NdError` hierarchy.
    Serve(ServeError),
    /// An operating-system I/O failure (file open/write, socket bind).
    Io(String),
    /// The conformance harness found engine/oracle disagreements.
    Conform(usize),
}

impl CliError {
    fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Nd(NdError::Graph(_)) => 10,
            CliError::Nd(NdError::Budget(_)) => 12,
            CliError::Nd(NdError::Prepare(_)) => 13,
            CliError::Nd(NdError::Query(_)) => 14,
            CliError::Nd(NdError::Read(_)) => 15,
            // Admission rejections are budget overruns; probe defects are
            // query errors — keep their codes aligned with the NdError ones.
            CliError::Serve(ServeError::Overloaded(_)) => 12,
            CliError::Serve(ServeError::Query(_)) => 14,
            CliError::Serve(_) => 16,
            CliError::Io(_) => 17,
            CliError::Conform(_) => 18,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(s) => write!(f, "{s}"),
            CliError::Nd(e) => write!(f, "{e}"),
            CliError::Serve(e) => write!(f, "{e}"),
            CliError::Io(s) => write!(f, "{s}"),
            CliError::Conform(n) => write!(f, "conformance: {n} disagreement(s) found"),
        }
    }
}

impl From<NdError> for CliError {
    fn from(e: NdError) -> Self {
        CliError::Nd(e)
    }
}

impl From<ServeError> for CliError {
    fn from(e: ServeError) -> Self {
        CliError::Serve(e)
    }
}

fn usage(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

const USAGE: &str = "\
ndq — constant-delay FO query evaluation over sparse graphs

USAGE:
  ndq [OPTIONS]               one-shot query evaluation
  ndq update [OPTIONS]        apply a mutation log and re-prepare the index
  ndq serve [OPTIONS]         serve probes over stdin or TCP (line protocol)
  ndq conform [OPTIONS]       differential conformance run (all engines vs oracle)

GRAPH / QUERY OPTIONS (all modes):
  --graph SPEC | --graph-file PATH   the input graph
      [--color NAME:DENSITY:SEED]...     add a random color
      --query QUERY                      FO+ query (see README for syntax)
      [--epsilon F]                      accuracy parameter (default 0.5)
      [--no-fallback]                    error on non-fragment queries
      [--budget-nodes N]                 cap preprocessing node expansions
                                         (and, separately, the answers a
                                         --count enumerates)
      [--prepare-threads N]              preprocessing worker threads
                                         (0 = all cores; index is identical
                                         for every thread count)
      [--save PATH]                      persist the prepared index
                                         (checksummed, atomically written)
      [--load PATH]                      warm-start from a persisted index,
                                         mmapped and served zero-copy out of
                                         the mapped pages; replaces
                                         --graph/--query (the file carries
                                         both)
      [--verify full|lazy]               CRC policy for --load: check
                                         everything up front (default) or
                                         defer the engine-section CRC until
                                         after the probes (then exit 15 on
                                         mismatch)
      [--prewarm]                        with --load, touch every mapped
                                         page up front (trades first-probe
                                         latency for load latency)

ONE-SHOT OPTIONS:
      [--enumerate N]                    stream the first N answers
      [--count]                          count all answers
      [--test a,b,...]...                membership tests (Cor 2.4)
      [--next a,b,...]...                next-solution jumps (Thm 2.3)
      [--stats]                          print index statistics (one JSON
                                         line on stderr, as serve `stats`)

UPDATE OPTIONS (plus all one-shot probe flags, run on the mutated index):
      --mutate LOG                       mutations, ';'- or newline-separated
                                         (repeatable; see MUTATIONS below)
      [--mutate-file PATH]               read mutations from a file
      --load starts from a persisted index; --save persists the new one
      (lineage epoch and chained log digest travel with the file)

SERVE OPTIONS:
      [--workers N]                      worker threads (0 = all cores)
      [--listen HOST:PORT]               serve TCP instead of stdin
      [--max-inflight N]                 admission cap: queued+in-flight requests
      [--max-queued-bytes N]             admission cap: queued request bytes
      [--deadline-ms N]                  default per-request deadline
      [--prepare-cache N]                cached prepared queries [8]
      [--fallback-reprepare]             if --load fails, cold-prepare from
                                         --graph/--query instead of exiting
  protocol, one command per line:
      prepare QUERY   swap PATH   update MUTATION   commit
      test a,b,..   next a,b,..   page a,b,.. LIMIT
      stats   metrics   help   shutdown   quit

CONFORM OPTIONS (defaults in brackets):
      [--seed N]                         run seed [42]
      [--cases N]                        seeded (graph, query) cases [500]
      [--max-n N]                        largest graph size [28]
      [--serve-every N]                  wire-protocol config cadence, 0=off [8]
      [--no-shrink]                      skip counterexample minimization
      [--fuzz N]                         also fuzz the serve protocol for N lines [200]
      [--json PATH]                      write the JSON report ('-' = stdout)

MUTATIONS (one per line or ';'-separated):
  add-edge U V   remove-edge U V   add-node   remove-node V
  color V NAME   uncolor V NAME

GRAPH SPECS:
  grid:WxH           W×H grid
  pgrid:WxH:EXTRA    perturbed grid with EXTRA random chords
  tree:N:SEED        random tree
  bdeg:N:D:SEED      random graph with max degree D
  path:N | cycle:N | star:N | clique:N

EXIT CODES:
  0 ok          2 usage        10 graph     12 budget/overload
  13 prepare    14 query       15 read      16 serve     17 I/O
  18 conformance disagreement
  (11, once the store error, is retired and never reused)
";

// ---------------------------------------------------------------------------
// Shared argument parsing
// ---------------------------------------------------------------------------

/// Graph + query options shared by all three modes.
struct Common {
    graph_spec: Option<String>,
    graph_file: Option<String>,
    colors: Vec<String>,
    query: Option<String>,
    epsilon: f64,
    no_fallback: bool,
    budget_nodes: Option<u64>,
    prepare_threads: usize,
    /// Persist the prepared index to this path (one-shot and serve).
    save: Option<String>,
    /// Warm-start from a persisted index (mmapped, bulk sections served
    /// zero-copy) instead of preparing; replaces
    /// `--graph`/`--graph-file`/`--query` (the file carries both).
    load: Option<String>,
    /// CRC policy for `--load`: check everything up front (default) or
    /// defer the engine-section CRC until after the probes. `None` when
    /// `--verify` was not given.
    verify: Option<VerifyPolicy>,
    /// Touch every mapped page up front instead of faulting on demand.
    prewarm: bool,
}

impl Common {
    fn new() -> Common {
        Common {
            graph_spec: None,
            graph_file: None,
            colors: Vec::new(),
            query: None,
            epsilon: 0.5,
            no_fallback: false,
            budget_nodes: None,
            prepare_threads: 1,
            save: None,
            load: None,
            verify: None,
            prewarm: false,
        }
    }

    /// Try to consume `flag` as a shared option; `Ok(false)` means the flag
    /// belongs to the caller's mode-specific set.
    fn try_parse_flag(
        &mut self,
        flag: &str,
        it: &mut impl Iterator<Item = String>,
    ) -> Result<bool, CliError> {
        let mut val = |what: &str| {
            it.next()
                .ok_or_else(|| usage(format!("missing value for {what}")))
        };
        match flag {
            "--graph" => self.graph_spec = Some(val("--graph")?),
            "--graph-file" => self.graph_file = Some(val("--graph-file")?),
            "--color" => self.colors.push(val("--color")?),
            "--query" => self.query = Some(val("--query")?),
            "--epsilon" => {
                self.epsilon = val("--epsilon")?
                    .parse()
                    .map_err(|e| usage(format!("bad --epsilon: {e}")))?
            }
            "--no-fallback" => self.no_fallback = true,
            "--budget-nodes" => {
                self.budget_nodes = Some(
                    val("--budget-nodes")?
                        .parse()
                        .map_err(|e| usage(format!("bad --budget-nodes: {e}")))?,
                )
            }
            "--prepare-threads" => {
                self.prepare_threads = val("--prepare-threads")?
                    .parse()
                    .map_err(|e| usage(format!("bad --prepare-threads: {e}")))?
            }
            "--save" => self.save = Some(val("--save")?),
            "--load" => self.load = Some(val("--load")?),
            "--verify" => {
                self.verify = Some(
                    VerifyPolicy::parse(&val("--verify")?)
                        .ok_or_else(|| usage("bad --verify: expected full|lazy"))?,
                )
            }
            "--prewarm" => self.prewarm = true,
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The warm-start path, if any. Rejects flag combinations that would
    /// make the index file's graph/query ambiguous, and load knobs without
    /// a load.
    fn warm_start(&self) -> Result<Option<&str>, CliError> {
        if self.load.is_none() && (self.verify.is_some() || self.prewarm) {
            return Err(usage("--verify and --prewarm apply only to --load"));
        }
        if self.load.is_some()
            && (self.graph_spec.is_some() || self.graph_file.is_some() || self.query.is_some())
        {
            return Err(usage(
                "--load replaces --graph/--graph-file/--query: the index file carries both",
            ));
        }
        Ok(self.load.as_deref())
    }

    /// Map a persisted index, logging how it came back.
    fn open_index(&self, path: &str) -> Result<LoadedIndex, CliError> {
        let t0 = Instant::now();
        let opts = self.mmap_opts();
        let loaded =
            SharedPreparedQuery::load_index_mmap(Path::new(path), &opts).map_err(read_err)?;
        eprintln!(
            "loaded {path} in {:?}: {} vertices, query: {} (rung: {}), {}/{} bytes mapped zero-copy ({} verify)",
            t0.elapsed(),
            loaded.prepared.graph().n(),
            loaded.query_src,
            loaded.prepared.stats().rung.name(),
            loaded.stats.bytes_mapped,
            loaded.stats.bytes_total,
            opts.verify.as_str(),
        );
        Ok(loaded)
    }

    fn mmap_opts(&self) -> MmapLoadOpts {
        MmapLoadOpts {
            verify: self.verify.unwrap_or_default(),
            prewarm: self.prewarm,
        }
    }

    fn build_graph(&self) -> Result<ColoredGraph, CliError> {
        let mut g = match (&self.graph_spec, &self.graph_file) {
            (Some(spec), None) => build_graph(spec)?,
            (None, Some(path)) => {
                let f = std::fs::File::open(path)
                    .map_err(|e| CliError::Io(format!("open {path}: {e}")))?;
                io::read_graph(std::io::BufReader::new(f)).map_err(NdError::from)?
            }
            _ => {
                return Err(usage(
                    "provide exactly one of --graph / --graph-file (see --help)",
                ))
            }
        };
        for c in &self.colors {
            add_color(&mut g, c)?;
        }
        Ok(g)
    }

    fn prepare_opts(&self) -> Result<PrepareOpts, CliError> {
        // Validate ε up front: a typed error here beats a panic mid-preparation.
        let epsilon = Epsilon::try_new(self.epsilon)?;
        Ok(PrepareOpts {
            epsilon: epsilon.get(),
            allow_fallback: !self.no_fallback,
            budget: match self.budget_nodes {
                Some(cap) => Budget::UNLIMITED.with_node_expansions(cap),
                None => Budget::UNLIMITED,
            },
            threads: self.prepare_threads,
            ..PrepareOpts::default()
        })
    }
}

fn build_graph(spec: &str) -> Result<ColoredGraph, CliError> {
    let parts: Vec<&str> = spec.split(':').collect();
    let num = |s: &str| -> Result<usize, CliError> {
        s.parse()
            .map_err(|e| usage(format!("bad number {s:?}: {e}")))
    };
    match parts.as_slice() {
        ["grid", wh] | ["pgrid", wh, ..] => {
            let (w, h) = wh
                .split_once('x')
                .ok_or_else(|| usage(format!("expected WxH, got {wh:?}")))?;
            let (w, h) = (num(w)?, num(h)?);
            if parts[0] == "grid" {
                Ok(generators::grid(w, h))
            } else {
                let extra = num(parts.get(2).copied().unwrap_or("0"))?;
                Ok(generators::perturbed_grid(w, h, extra, 1))
            }
        }
        ["tree", n, seed] => Ok(generators::random_tree(num(n)?, num(seed)? as u64)),
        ["tree", n] => Ok(generators::random_tree(num(n)?, 1)),
        ["bdeg", n, d, seed] => Ok(generators::bounded_degree(
            num(n)?,
            num(d)?,
            num(seed)? as u64,
        )),
        ["path", n] => Ok(generators::path(num(n)?)),
        ["cycle", n] => Ok(generators::cycle(num(n)?)),
        ["star", n] => Ok(generators::star(num(n)?)),
        ["clique", n] => Ok(generators::clique(num(n)?)),
        _ => Err(usage(format!("unknown graph spec {spec:?} (see --help)"))),
    }
}

fn add_color(g: &mut ColoredGraph, spec: &str) -> Result<(), CliError> {
    let parts: Vec<&str> = spec.split(':').collect();
    let [name, density, seed] = parts.as_slice() else {
        return Err(usage(format!("expected NAME:DENSITY:SEED, got {spec:?}")));
    };
    let density: f64 = density
        .parse()
        .map_err(|e| usage(format!("bad density: {e}")))?;
    let seed: u64 = seed.parse().map_err(|e| usage(format!("bad seed: {e}")))?;
    let threshold = (density.clamp(0.0, 1.0) * u32::MAX as f64) as u32;
    let members: Vec<Vertex> = (0..g.n() as Vertex)
        .filter(|v| {
            let mut z = (*v as u64)
                .wrapping_add(seed)
                .wrapping_mul(0x9e3779b97f4a7c15);
            z ^= z >> 31;
            (z as u32) < threshold
        })
        .collect();
    g.add_color(members, Some(name.to_string()));
    Ok(())
}

fn parse_tuple(s: &str, arity: usize, n: usize) -> Result<Vec<Vertex>, CliError> {
    let t: Result<Vec<Vertex>, _> = s.split(',').map(|p| p.trim().parse()).collect();
    let t = t.map_err(|e| usage(format!("bad tuple {s:?}: {e}")))?;
    if t.len() != arity {
        return Err(usage(format!(
            "tuple {s:?} has arity {}, query has {arity}",
            t.len()
        )));
    }
    if let Some(&v) = t.iter().find(|&&v| (v as usize) >= n) {
        return Err(usage(format!("vertex {v} out of range [0,{n})")));
    }
    Ok(t)
}

// ---------------------------------------------------------------------------
// One-shot mode (the original ndq)
// ---------------------------------------------------------------------------

struct QueryArgs {
    common: Common,
    enumerate: Option<usize>,
    count: bool,
    tests: Vec<String>,
    nexts: Vec<String>,
    stats: bool,
}

fn parse_query_args(argv: Vec<String>) -> Result<QueryArgs, CliError> {
    let mut args = QueryArgs {
        common: Common::new(),
        enumerate: None,
        count: false,
        tests: Vec::new(),
        nexts: Vec::new(),
        stats: false,
    };
    let mut it = argv.into_iter();
    while let Some(a) = it.next() {
        if args.common.try_parse_flag(&a, &mut it)? {
            continue;
        }
        let mut val = |what: &str| {
            it.next()
                .ok_or_else(|| usage(format!("missing value for {what}")))
        };
        match a.as_str() {
            "--enumerate" => {
                args.enumerate = Some(
                    val("--enumerate")?
                        .parse()
                        .map_err(|e| usage(format!("bad --enumerate: {e}")))?,
                )
            }
            "--count" => args.count = true,
            "--test" => args.tests.push(val("--test")?),
            "--next" => args.nexts.push(val("--next")?),
            "--stats" => args.stats = true,
            other => return Err(usage(format!("unknown argument {other:?}"))),
        }
    }
    Ok(args)
}

/// Map an index read/decode failure to the typed `read` exit code (15).
fn read_err(e: nowhere_dense::persist::PersistError) -> CliError {
    CliError::Nd(NdError::Read(e.into()))
}

/// Execute the probe/enumerate/count flags against a prepared index,
/// whether it borrows the graph (cold prepare) or owns it (warm load).
fn run_probes<G: Borrow<ColoredGraph>>(
    args: &QueryArgs,
    prepared: &PreparedQuery<G>,
) -> Result<(), CliError> {
    let arity = prepared.arity();
    let n = prepared.graph().n();
    if args.stats {
        // One JSON object on one line: the schema of the serve `stats` verb.
        eprintln!("index: {}", prepared.stats().to_json());
    }
    for t in &args.tests {
        let tuple = parse_tuple(t, arity, n)?;
        let t0 = Instant::now();
        let ans = prepared.test(&tuple);
        println!("test {tuple:?} -> {ans}  ({:?})", t0.elapsed());
    }
    for t in &args.nexts {
        let tuple = parse_tuple(t, arity, n)?;
        let t0 = Instant::now();
        let ans = prepared.next_solution(&tuple);
        println!("next {tuple:?} -> {ans:?}  ({:?})", t0.elapsed());
    }
    if args.count {
        let t0 = Instant::now();
        let count = prepared
            .try_count(&args.common.prepare_opts()?.budget)
            .map_err(NdError::from)?;
        println!("count: {count}  ({:?})", t0.elapsed());
    }
    if let Some(limit) = args.enumerate {
        let t0 = Instant::now();
        let mut shown = 0;
        for sol in prepared.enumerate().take(limit) {
            println!("{sol:?}");
            shown += 1;
        }
        eprintln!("{shown} answers in {:?}", t0.elapsed());
    }
    Ok(())
}

fn cmd_query(argv: Vec<String>) -> Result<(), CliError> {
    let args = parse_query_args(argv)?;

    // Warm start: the index file carries the graph, the query and every
    // engine structure — no preprocessing runs.
    if let Some(path) = args.common.warm_start()? {
        let loaded = args.common.open_index(path)?;
        run_probes(&args, &loaded.prepared)?;
        // Lazy verification: the probes above may have answered out of
        // unchecked pages — settle the deferred bulk CRCs before
        // declaring success, and fail with the typed read exit code if
        // the file was corrupt all along.
        if let Some(deferred) = &loaded.deferred {
            deferred.verify().map_err(read_err)?;
            eprintln!("deferred CRC verification passed");
        }
        if let Some(save) = &args.common.save {
            loaded
                .prepared
                .save_index(&loaded.query, &loaded.query_src, Path::new(save))
                .map_err(read_err)?;
            eprintln!("saved index to {save}");
        }
        return Ok(());
    }

    let g = args.common.build_graph()?;
    eprintln!(
        "graph: {} vertices, {} edges, {} colors",
        g.n(),
        g.m(),
        g.num_colors()
    );

    let query_src = args
        .common
        .query
        .as_deref()
        .ok_or_else(|| usage("missing --query (see --help)"))?;
    let q = parse_query(query_src).map_err(|e| usage(e.to_string()))?;
    eprintln!("query: {q}");

    let opts = args.common.prepare_opts()?;
    let t0 = Instant::now();
    let prepared = PreparedQuery::prepare(&g, &q, &opts).map_err(NdError::from)?;
    eprintln!(
        "prepared in {:?} ({:?})",
        t0.elapsed(),
        prepared.engine_kind()
    );

    if let Some(save) = &args.common.save {
        prepared
            .save_index(&q, query_src, Path::new(save))
            .map_err(read_err)?;
        eprintln!("saved index to {save}");
    }
    run_probes(&args, &prepared)
}

// ---------------------------------------------------------------------------
// update mode: mutate the graph, re-prepare the index
// ---------------------------------------------------------------------------

/// Map an apply failure onto the existing exit codes: a bad log or
/// mismatched query is client input (2), a failed re-prepare is a prepare
/// error (13).
fn apply_err(e: nowhere_dense::core::ApplyError) -> CliError {
    use nowhere_dense::core::ApplyError;
    match e {
        ApplyError::Update(_) | ApplyError::QueryMismatch => usage(e.to_string()),
        ApplyError::Prepare(p) => CliError::Nd(NdError::Prepare(p)),
    }
}

fn cmd_update(argv: Vec<String>) -> Result<(), CliError> {
    // Split off the update-specific flags, then let the one-shot parser
    // handle the shared graph/query/probe set.
    let mut mutate: Vec<String> = Vec::new();
    let mut mutate_file: Option<String> = None;
    let mut rest: Vec<String> = Vec::new();
    let mut it = argv.into_iter();
    while let Some(a) = it.next() {
        let mut val = |what: &str| {
            it.next()
                .ok_or_else(|| usage(format!("missing value for {what}")))
        };
        match a.as_str() {
            "--mutate" => mutate.push(val("--mutate")?),
            "--mutate-file" => mutate_file = Some(val("--mutate-file")?),
            _ => rest.push(a),
        }
    }
    let args = parse_query_args(rest)?;

    let mut text = String::new();
    if let Some(path) = &mutate_file {
        text =
            std::fs::read_to_string(path).map_err(|e| CliError::Io(format!("read {path}: {e}")))?;
    }
    for m in &mutate {
        text.push('\n');
        text.push_str(&m.replace(';', "\n"));
    }
    if text.trim().is_empty() {
        return Err(usage(
            "missing mutations: pass --mutate \"add-edge U V\" or --mutate-file PATH",
        ));
    }
    let log = nowhere_dense::core::MutationLog::parse(&text)
        .map_err(|e| usage(format!("bad mutation log: {e}")))?;

    let opts = args.common.prepare_opts()?;
    let (base, query, query_src) = if let Some(path) = args.common.warm_start()? {
        let loaded = args.common.open_index(path)?;
        // Mutations must not start from a corrupt index: settle any
        // deferred bulk CRCs before the apply reads mapped data.
        if let Some(deferred) = &loaded.deferred {
            deferred.verify().map_err(read_err)?;
        }
        (loaded.prepared, loaded.query, loaded.query_src)
    } else {
        let g = Arc::new(args.common.build_graph()?);
        let query_src = args
            .common
            .query
            .as_deref()
            .ok_or_else(|| usage("missing --query (see --help)"))?
            .to_string();
        let q = parse_query(&query_src).map_err(|e| usage(e.to_string()))?;
        let t0 = Instant::now();
        let prepared =
            SharedPreparedQuery::prepare(Arc::clone(&g), &q, &opts).map_err(NdError::from)?;
        eprintln!(
            "prepared {} vertices in {:?} ({:?})",
            g.n(),
            t0.elapsed(),
            prepared.engine_kind(),
        );
        (prepared, q, query_src)
    };

    let updated = base.apply(&log, &query, &opts).map_err(apply_err)?;
    let lin = updated.lineage();
    eprintln!(
        "applied {} mutation(s) in {}ms: epoch {}, log digest {:016x}",
        log.len(),
        lin.update_ms,
        lin.epoch,
        lin.log_digest,
    );
    eprintln!(
        "graph now: {} vertices, {} edges",
        updated.graph().n(),
        updated.graph().m(),
    );

    if let Some(save) = &args.common.save {
        updated
            .save_index(&query, &query_src, Path::new(save))
            .map_err(read_err)?;
        eprintln!("saved index to {save}");
    }
    run_probes(&args, &updated)
}

// ---------------------------------------------------------------------------
// serve mode: a line protocol over stdin or TCP
// ---------------------------------------------------------------------------

struct ServeArgs {
    common: Common,
    workers: usize,
    listen: Option<String>,
    max_inflight: Option<u64>,
    max_queued_bytes: Option<u64>,
    deadline_ms: Option<u64>,
    prepare_cache: usize,
    /// When a `--load` fails, fall back to a cold prepare from
    /// `--graph`/`--query` instead of exiting with the typed read error.
    fallback_reprepare: bool,
}

fn parse_serve_args(argv: Vec<String>) -> Result<ServeArgs, CliError> {
    let mut args = ServeArgs {
        common: Common::new(),
        workers: 0,
        listen: None,
        max_inflight: None,
        max_queued_bytes: None,
        deadline_ms: None,
        prepare_cache: DEFAULT_CACHE_CAPACITY,
        fallback_reprepare: false,
    };
    let mut it = argv.into_iter();
    while let Some(a) = it.next() {
        if args.common.try_parse_flag(&a, &mut it)? {
            continue;
        }
        let mut val = |what: &str| {
            it.next()
                .ok_or_else(|| usage(format!("missing value for {what}")))
        };
        let parse_u64 = |what: &str, s: String| -> Result<u64, CliError> {
            s.parse().map_err(|e| usage(format!("bad {what}: {e}")))
        };
        match a.as_str() {
            "--workers" => {
                args.workers = val("--workers")?
                    .parse()
                    .map_err(|e| usage(format!("bad --workers: {e}")))?
            }
            "--listen" => args.listen = Some(val("--listen")?),
            "--max-inflight" => {
                args.max_inflight = Some(parse_u64("--max-inflight", val("--max-inflight")?)?)
            }
            "--max-queued-bytes" => {
                args.max_queued_bytes =
                    Some(parse_u64("--max-queued-bytes", val("--max-queued-bytes")?)?)
            }
            "--deadline-ms" => {
                args.deadline_ms = Some(parse_u64("--deadline-ms", val("--deadline-ms")?)?)
            }
            "--prepare-cache" => {
                args.prepare_cache = parse_u64("--prepare-cache", val("--prepare-cache")?)? as usize
            }
            "--fallback-reprepare" => args.fallback_reprepare = true,
            other => return Err(usage(format!("unknown argument {other:?}"))),
        }
    }
    Ok(args)
}

fn admission_budget(args: &ServeArgs) -> Budget {
    let mut b = Budget::UNLIMITED;
    if let Some(cap) = args.max_inflight {
        b = b.with_node_expansions(cap);
    }
    if let Some(cap) = args.max_queued_bytes {
        b = b.with_memory_bytes(cap);
    }
    if let Some(ms) = args.deadline_ms {
        b = b.with_wall_clock(Duration::from_millis(ms));
    }
    b
}

// The line protocol itself (parsing, formatting, dispatch) lives in
// `nd_serve::protocol`/`nd_serve::session` so the conformance harness can
// fuzz the exact production path in-process; the binary only owns the
// transports. The session is shared — a `prepare` from one client
// re-points probes for all of them, and the cache is process-wide.

fn serve_stdin(session: &Mutex<Session>) -> Result<(), CliError> {
    let stdin = std::io::stdin();
    let mut out = std::io::stdout().lock();
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| CliError::Io(format!("stdin: {e}")))?;
        match session.lock().unwrap().handle(&line) {
            None => {}
            Some(Reply::Quit) => break,
            Some(Reply::Line(reply)) => {
                writeln!(out, "{reply}").map_err(|e| CliError::Io(format!("stdout: {e}")))?;
                out.flush()
                    .map_err(|e| CliError::Io(format!("stdout: {e}")))?;
            }
        }
    }
    Ok(())
}

fn serve_tcp(session: Arc<Mutex<Session>>, addr: &str) -> Result<(), CliError> {
    let listener =
        std::net::TcpListener::bind(addr).map_err(|e| CliError::Io(format!("bind {addr}: {e}")))?;
    eprintln!(
        "listening on {} ({})",
        listener
            .local_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| addr.to_string()),
        SESSION_PROTOCOL_HELP
    );
    for stream in listener.incoming() {
        let stream = match stream {
            Ok(s) => s,
            // A failed accept poisons nothing; keep serving other clients.
            Err(e) => {
                eprintln!("accept: {e}");
                continue;
            }
        };
        let session = Arc::clone(&session);
        std::thread::spawn(move || {
            let peer = stream
                .peer_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| "?".into());
            let reader = std::io::BufReader::new(match stream.try_clone() {
                Ok(s) => s,
                Err(_) => return,
            });
            let mut writer = std::io::BufWriter::new(stream);
            for line in reader.lines() {
                let Ok(line) = line else { break };
                match session.lock().unwrap().handle(&line) {
                    None => continue,
                    Some(Reply::Quit) => break,
                    Some(Reply::Line(reply)) => {
                        if writeln!(writer, "{reply}")
                            .and_then(|_| writer.flush())
                            .is_err()
                        {
                            break;
                        }
                    }
                }
            }
            eprintln!("client {peer} disconnected");
        });
    }
    Ok(())
}

/// Cold-start a serving session: build the graph, parse the query,
/// prepare. Honors `--save` so an operator can persist the index the
/// server just built.
fn cold_serve_session(args: &ServeArgs, opts: ServeOpts) -> Result<Session, CliError> {
    let g = args.common.build_graph()?;
    eprintln!(
        "graph: {} vertices, {} edges, {} colors",
        g.n(),
        g.m(),
        g.num_colors()
    );
    let query_src = args
        .common
        .query
        .as_deref()
        .ok_or_else(|| usage("missing --query (see --help)"))?;
    let q = parse_query(query_src).map_err(|e| usage(e.to_string()))?;
    eprintln!("query: {q}");
    let session = Session::start(
        g.into_shared(),
        &q,
        args.common.prepare_opts()?,
        opts,
        args.prepare_cache,
    )
    .map_err(NdError::from)?;
    eprintln!(
        "prepared in {} ms (rung: {}); cache capacity {}",
        session.snapshot().build_ms(),
        session.snapshot().stats().rung.name(),
        args.prepare_cache,
    );
    if let Some(save) = &args.common.save {
        session
            .snapshot()
            .prepared()
            .save_index(&q, query_src, Path::new(save))
            .map_err(read_err)?;
        eprintln!("saved index to {save}");
    }
    Ok(session)
}

/// Start the serving session: warm from `--load` when given (with an
/// optional cold-prepare fallback), cold otherwise.
fn start_serve_session(args: &ServeArgs, opts: ServeOpts) -> Result<Session, CliError> {
    if let Some(path) = args.common.warm_start()? {
        let t0 = Instant::now();
        let load = || -> Result<LoadedIndex, nowhere_dense::persist::PersistError> {
            let loaded =
                SharedPreparedQuery::load_index_mmap(Path::new(path), &args.common.mmap_opts())?;
            // A long-lived server must not discover corruption on a probe
            // weeks in: settle deferred bulk CRCs before the first request.
            if let Some(deferred) = &loaded.deferred {
                deferred.verify()?;
            }
            Ok(loaded)
        };
        match load() {
            Ok(loaded) => {
                let load_ms = t0.elapsed().as_millis() as u64;
                eprintln!(
                    "warm start: loaded {path} in {load_ms} ms: {} vertices, query: {} (rung: {}), {} bytes mapped zero-copy",
                    loaded.prepared.graph().n(),
                    loaded.query_src,
                    loaded.prepared.stats().rung.name(),
                    loaded.stats.bytes_mapped,
                );
                return Ok(Session::start_loaded(
                    loaded,
                    args.common.prepare_opts()?,
                    opts,
                    args.prepare_cache,
                    load_ms,
                ));
            }
            Err(e) if args.fallback_reprepare => {
                eprintln!("warning: loading {path} failed ({e}); falling back to a cold prepare");
            }
            Err(e) => return Err(read_err(e)),
        }
    }
    cold_serve_session(args, opts)
}

fn cmd_serve(argv: Vec<String>) -> Result<(), CliError> {
    let args = parse_serve_args(argv)?;
    let opts = ServeOpts {
        workers: args.workers,
        admission: admission_budget(&args),
        ..ServeOpts::default()
    };
    let session = start_serve_session(&args, opts)?;
    eprintln!(
        "serving with {} workers; {}",
        session.pool().workers(),
        SESSION_PROTOCOL_HELP
    );
    let session = Mutex::new(session);
    match &args.listen {
        None => serve_stdin(&session),
        Some(addr) => serve_tcp(Arc::new(session), addr),
    }
}

// ---------------------------------------------------------------------------
// conform mode
// ---------------------------------------------------------------------------

/// `ndq conform`: run the differential conformance harness (every engine
/// configuration against the naive-semantics oracle, metamorphic
/// invariants, wire-protocol round trips) plus the protocol fuzzer, and
/// exit non-zero (code 18) on any disagreement.
fn cmd_conform(argv: Vec<String>) -> Result<(), CliError> {
    let mut opts = nowhere_dense::conform::ConformOpts {
        cases: 500,
        ..nowhere_dense::conform::ConformOpts::default()
    };
    let mut fuzz_lines: usize = 200;
    let mut json_path: Option<String> = None;
    let mut it = argv.into_iter();
    while let Some(a) = it.next() {
        let mut val = |what: &str| {
            it.next()
                .ok_or_else(|| usage(format!("missing value for {what}")))
        };
        let parse = |what: &str, s: String| -> Result<u64, CliError> {
            s.parse().map_err(|e| usage(format!("bad {what}: {e}")))
        };
        match a.as_str() {
            "--seed" => opts.seed = parse("--seed", val("--seed")?)?,
            "--cases" => opts.cases = parse("--cases", val("--cases")?)? as usize,
            "--max-n" => {
                opts.max_n = (parse("--max-n", val("--max-n")?)? as usize).max(9);
            }
            "--serve-every" => {
                opts.serve_every = parse("--serve-every", val("--serve-every")?)? as usize;
            }
            "--no-shrink" => opts.shrink = false,
            "--fuzz" => fuzz_lines = parse("--fuzz", val("--fuzz")?)? as usize,
            "--json" => json_path = Some(val("--json")?),
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(());
            }
            other => return Err(usage(format!("unknown argument {other:?}"))),
        }
    }

    let t0 = Instant::now();
    let mut report = nowhere_dense::conform::run(&opts);
    if fuzz_lines > 0 {
        let fuzz = nowhere_dense::conform::protocol_fuzz::fuzz_protocol(opts.seed, fuzz_lines);
        report.configs_checked += fuzz.configs_checked;
        report.probes += fuzz.probes;
        report.disagreements.extend(fuzz.disagreements);
    }

    eprintln!(
        "conform: seed={} cases={} configs={} probes={} skipped={} disagreements={} ({:.1}s)",
        opts.seed,
        opts.cases,
        report.configs_checked,
        report.probes,
        report.skipped,
        report.disagreements.len(),
        t0.elapsed().as_secs_f64(),
    );
    for d in &report.disagreements {
        eprintln!(
            "  [{}] {} / {}: {} :: {}{}",
            d.case_seed,
            d.config,
            d.check,
            d.query,
            d.detail,
            d.minimized
                .as_deref()
                .map(|m| format!(" (minimized: {m})"))
                .unwrap_or_default(),
        );
    }

    match json_path.as_deref() {
        Some("-") => println!("{}", report.to_json()),
        Some(path) => std::fs::write(path, report.to_json())
            .map_err(|e| CliError::Io(format!("write {path}: {e}")))?,
        None => {}
    }

    if report.ok() {
        Ok(())
    } else {
        Err(CliError::Conform(report.disagreements.len()))
    }
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("update") => cmd_update(argv.split_off(1)),
        Some("serve") => cmd_serve(argv.split_off(1)),
        Some("conform") => cmd_conform(argv.split_off(1)),
        _ => cmd_query(argv),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}
