//! A serving session: one pool plus a prepared-query cache, with a
//! `prepare` command on top of the base line protocol.
//!
//! [`handle_command`](crate::protocol::handle_command) serves probes
//! against one fixed snapshot. A [`Session`] wraps that with query
//! *switching*: `prepare <query>` re-points the session at a (possibly
//! cached) snapshot of the same graph, restarting the worker pool over
//! it. Repeated `prepare`s of a query already in the [`PrepareCache`] are
//! O(1) — a lookup and an `Arc` bump instead of a cover/kernel/store
//! rebuild.
//!
//! The session also extends the `metrics` reply with the cache's
//! hit/miss/eviction counters under `"prepare_cache"`, and `help` with
//! the extended grammar.

use crate::cache::PrepareCache;
use crate::pool::{ServeOpts, ServerPool};
use crate::protocol::{handle_command, Reply};
use crate::snapshot::Snapshot;
use nd_core::{
    LoadedIndex, MmapLoadOpts, MutationLog, PrepareError, PrepareOpts, SharedPreparedQuery,
};
use nd_graph::json::JsonObject;
use nd_graph::ColoredGraph;
use nd_logic::ast::Query;
use nd_logic::parse_query;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Command summary for sessions (the base protocol plus `prepare`,
/// `swap` and `shutdown`).
pub const SESSION_PROTOCOL_HELP: &str =
    "commands: prepare QUERY | update MUTATION | commit | swap PATH | test a,b,.. | next a,b,.. | page a,b,.. LIMIT | stats | metrics | help | shutdown | quit";

/// The mutation grammar echoed by `update` usage errors.
const UPDATE_GRAMMAR: &str =
    "add-edge U V | remove-edge U V | add-node | remove-node V | color V NAME | uncolor V NAME";

/// How long `shutdown` waits for queued work before typed-rejecting it.
const SHUTDOWN_DRAIN_DEADLINE: Duration = Duration::from_secs(5);

/// One client-facing serving session over a shared graph.
pub struct Session {
    graph: Arc<ColoredGraph>,
    prepare_opts: PrepareOpts,
    serve_opts: ServeOpts,
    cache: PrepareCache,
    pool: ServerPool,
    /// Snapshot generation: bumped on every pool replacement (`prepare`
    /// or `swap`). In-flight work always finishes on the epoch it was
    /// admitted under — the replaced pool drains fully before joining.
    epoch: u64,
    /// How many of those replacements were `swap`s of a persisted index.
    swaps: u64,
    /// How many were `commit`s of staged mutations.
    commits: u64,
    /// Mutations staged by `update` and not yet committed. Probes keep
    /// answering on the current epoch while this accumulates; `commit`
    /// applies the whole log at once and swaps atomically.
    pending: MutationLog,
    /// Set by `shutdown`: probes get typed `err shutdown:` replies, and
    /// `prepare`/`swap` refuse to resurrect the pool.
    closed: bool,
}

impl Session {
    /// Prepare the initial query (through the cache) and start serving.
    pub fn start(
        graph: Arc<ColoredGraph>,
        q: &Query,
        prepare_opts: PrepareOpts,
        serve_opts: ServeOpts,
        cache_capacity: usize,
    ) -> Result<Session, PrepareError> {
        let cache = PrepareCache::new(cache_capacity);
        let (snapshot, _) = cache.get_or_prepare(&graph, q, &prepare_opts)?;
        let pool = ServerPool::start(snapshot, &serve_opts);
        Ok(Session {
            graph,
            prepare_opts,
            serve_opts,
            cache,
            pool,
            epoch: 0,
            swaps: 0,
            commits: 0,
            pending: MutationLog::new(),
            closed: false,
        })
    }

    /// Start serving from an index loaded off disk (a warm start): no
    /// preprocessing runs. `load_ms` is the observed load wall-clock,
    /// reported as the snapshot's build time. Later `prepare` commands
    /// work as usual, against the loaded graph.
    pub fn start_loaded(
        loaded: LoadedIndex,
        prepare_opts: PrepareOpts,
        serve_opts: ServeOpts,
        cache_capacity: usize,
        load_ms: u64,
    ) -> Session {
        let graph = loaded.prepared.graph_shared();
        let snapshot =
            Snapshot::from_prepared(loaded.prepared, loaded.query, loaded.query_src, load_ms);
        let pool = ServerPool::start(snapshot, &serve_opts);
        Session {
            graph,
            prepare_opts,
            serve_opts,
            cache: PrepareCache::new(cache_capacity),
            pool,
            epoch: 0,
            swaps: 0,
            commits: 0,
            pending: MutationLog::new(),
            closed: false,
        }
    }

    /// The pool currently serving probes.
    pub fn pool(&self) -> &ServerPool {
        &self.pool
    }

    /// The session's prepare cache (counters for tests and metrics).
    pub fn cache(&self) -> &PrepareCache {
        &self.cache
    }

    /// Current snapshot convenience.
    pub fn snapshot(&self) -> &Snapshot {
        self.pool.snapshot()
    }

    /// The snapshot generation currently serving (see the `epoch` field).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether `shutdown` has been issued.
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// How many mutations are staged by `update` and not yet committed.
    pub fn staged_ops(&self) -> usize {
        self.pending.len()
    }

    /// The session's metrics document: the pool's metrics JSON extended
    /// with the prepare-cache counters and the session's epoch state.
    pub fn metrics_json(&self) -> String {
        let mut session = JsonObject::new();
        session
            .field_u64("epoch", self.epoch)
            .field_u64("swaps", self.swaps)
            .field_u64("commits", self.commits)
            .field_u64("staged_ops", self.pending.len() as u64)
            .field_bool("closed", self.closed);
        self.pool.metrics_json_with(&[
            ("prepare_cache", self.cache.counters().to_json()),
            ("session", session.finish()),
        ])
    }

    /// Execute one protocol line. `prepare`, `metrics` and `help` are
    /// handled here; everything else delegates to the base protocol
    /// against the current pool.
    pub fn handle(&mut self, line: &str) -> Option<Reply> {
        let trimmed = line.trim();
        let (cmd, rest) = match trimmed.split_once(char::is_whitespace) {
            Some((c, r)) => (c, r.trim()),
            None => (trimmed, ""),
        };
        match cmd {
            "prepare" => Some(Reply::Line(self.prepare(rest))),
            "update" => Some(Reply::Line(self.update(rest))),
            "commit" => Some(Reply::Line(self.commit(rest))),
            "swap" => Some(Reply::Line(self.swap_verb(rest))),
            "shutdown" => Some(Reply::Line(self.shutdown_cmd())),
            "metrics" => Some(Reply::Line(self.metrics_json())),
            "help" => Some(Reply::Line(SESSION_PROTOCOL_HELP.to_string())),
            _ => handle_command(&self.pool, line),
        }
    }

    /// Switch the session to `query_src`, reusing a cached snapshot when
    /// one exists. Replies `prepared hit|miss arity=K rung=R` on success,
    /// `err usage:`/`err prepare:` on failure (the old snapshot keeps
    /// serving).
    fn prepare(&mut self, query_src: &str) -> String {
        if self.closed {
            return "err shutdown: session is shut down".to_string();
        }
        if query_src.is_empty() {
            return format!("err usage: expected: prepare QUERY ({SESSION_PROTOCOL_HELP})");
        }
        let q = match parse_query(query_src) {
            Ok(q) => q,
            Err(e) => return format!("err usage: bad query: {e}"),
        };
        match self
            .cache
            .get_or_prepare(&self.graph, &q, &self.prepare_opts)
        {
            Ok((snapshot, hit)) => {
                let arity = snapshot.arity();
                let rung = snapshot.stats().rung.name();
                self.install(snapshot);
                let tag = if hit { "hit" } else { "miss" };
                format!("prepared {tag} arity={arity} rung={rung}")
            }
            Err(e) => format!("err prepare: {e}"),
        }
    }

    /// Stage mutations (the `update MUTATION` verb) against the session
    /// graph. Nothing changes until `commit`: probes keep answering on
    /// the current epoch while the log accumulates, and a malformed
    /// mutation rejects only that line — previously staged ops survive.
    fn update(&mut self, mutation: &str) -> String {
        if self.closed {
            return "err shutdown: session is shut down".to_string();
        }
        if mutation.is_empty() {
            return format!("err usage: expected: update MUTATION ({UPDATE_GRAMMAR})");
        }
        match MutationLog::parse(mutation) {
            Ok(log) if log.is_empty() => {
                format!("err usage: empty mutation ({UPDATE_GRAMMAR})")
            }
            Ok(log) => {
                for m in log.mutations() {
                    self.pending.push(m.clone());
                }
                format!("staged ops={}", self.pending.len())
            }
            Err(e) => format!("err usage: bad mutation: {e} ({UPDATE_GRAMMAR})"),
        }
    }

    /// Apply every staged mutation at once (the `commit` verb): the
    /// mutated graph is prepared afresh off to the side while probes keep
    /// answering on the old epoch, then the
    /// serving snapshot is swapped atomically — the replaced pool drains
    /// fully, so in-flight requests all complete against the graph they
    /// were admitted under. On failure (an invalid log, say a vertex out
    /// of range) the staged log is discarded, the reply is a typed
    /// `err update:` line, and the old snapshot keeps serving.
    fn commit(&mut self, rest: &str) -> String {
        if self.closed {
            return "err shutdown: session is shut down".to_string();
        }
        if !rest.is_empty() {
            return format!(
                "err usage: expected: commit, with no arguments ({SESSION_PROTOCOL_HELP})"
            );
        }
        if self.pending.is_empty() {
            return "err usage: nothing staged: issue update MUTATION before commit".to_string();
        }
        let query_src = self.pool.snapshot().query_src().to_string();
        let q = self.pool.snapshot().query_ast().clone();
        let log = std::mem::take(&mut self.pending);
        let t0 = Instant::now();
        let applied = match self
            .pool
            .snapshot()
            .prepared()
            .apply(&log, &q, &self.prepare_opts)
        {
            Ok(a) => a,
            Err(e) => return format!("err update: {e}"),
        };
        let update_ms = t0.elapsed().as_millis() as u64;
        let lineage = applied.lineage().clone();
        // The mutated graph is a fresh allocation: every cached snapshot
        // (keyed on graph identity) is stale, exactly as after `swap`.
        self.graph = applied.graph_shared();
        self.cache = PrepareCache::new(self.cache.counters().capacity);
        let snapshot = Snapshot::from_prepared(applied, q, query_src, update_ms);
        self.install(snapshot);
        self.commits += 1;
        format!(
            "committed epoch={} ops={} index_epoch={} update_ms={}",
            self.epoch,
            log.len(),
            lineage.epoch,
            lineage.update_ms,
        )
    }

    /// Hot-swap the serving index to one mapped from `path` (the
    /// `swap PATH` protocol verb). On success the epoch advances and the
    /// reply is `swapped epoch=N .. mapped_bytes=B`; on any load failure —
    /// missing file, truncation, bit flips, version skew, a forged payload
    /// behind valid CRCs — the current snapshot keeps serving and the reply
    /// is a typed `err read:` line. Requests admitted before the swap all
    /// complete on the old epoch: the replaced pool drains its queues fully
    /// before joining, so a swap never fails in-flight work.
    ///
    /// The bulk sections are served zero-copy straight out of the page
    /// cache, and the mapping stays alive for exactly as long as any
    /// snapshot (current or draining) still references it — the `Arc`
    /// pinning is per-slab, so a later `update`+`commit` prepares a new
    /// owned index while the mapped snapshot keeps serving until the swap.
    /// The load runs [`nd_core::VerifyPolicy::Full`]: every CRC and every
    /// structural check settles before the swap is acknowledged.
    fn swap_verb(&mut self, path: &str) -> String {
        if self.closed {
            return "err shutdown: session is shut down".to_string();
        }
        if path.is_empty() {
            return format!("err usage: expected: swap PATH ({SESSION_PROTOCOL_HELP})");
        }
        let t0 = Instant::now();
        let loaded =
            match SharedPreparedQuery::load_index_mmap(Path::new(path), &MmapLoadOpts::default()) {
                Ok(l) => l,
                Err(e) => return format!("err read: {e}"),
            };
        let mapped_bytes = loaded.stats.bytes_mapped;
        let load_ms = t0.elapsed().as_millis() as u64;
        // The loaded graph is a fresh allocation, so every cached snapshot
        // (keyed on graph identity) is stale: re-point the session's graph
        // and start a fresh cache for subsequent `prepare`s.
        self.graph = loaded.prepared.graph_shared();
        self.cache = PrepareCache::new(self.cache.counters().capacity);
        // Staged mutations referred to the replaced graph: drop them.
        self.pending = MutationLog::new();
        let snapshot =
            Snapshot::from_prepared(loaded.prepared, loaded.query, loaded.query_src, load_ms);
        let arity = snapshot.arity();
        let rung = snapshot.stats().rung.name().to_string();
        self.install(snapshot);
        self.swaps += 1;
        format!(
            "swapped epoch={} arity={arity} rung={rung} load_ms={load_ms} mapped_bytes={mapped_bytes}",
            self.epoch,
        )
    }

    /// Replace the worker pool with one serving `snapshot`, advancing the
    /// epoch. The old pool drains and joins: every request it admitted is
    /// answered (or typed-rejected by its own deadline logic) before the
    /// replacement completes.
    fn install(&mut self, snapshot: Snapshot) {
        let old = std::mem::replace(
            &mut self.pool,
            ServerPool::start(snapshot, &self.serve_opts),
        );
        old.shutdown();
        self.epoch += 1;
    }

    /// Graceful shutdown (the `shutdown` protocol verb): stop admitting,
    /// drain queued work up to a deadline, typed-reject the remainder.
    /// The session object stays alive so further probes get typed
    /// `err shutdown:` replies instead of a dropped connection; `quit`
    /// ends the conversation.
    fn shutdown_cmd(&mut self) -> String {
        self.closed = true;
        self.pool.begin_shutdown();
        let drained = self.pool.drain_with_deadline(SHUTDOWN_DRAIN_DEADLINE);
        format!("shutdown drained={drained}")
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("query", &self.pool.snapshot().query_src())
            .field("cache", &self.cache)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::PROTOCOL_HELP;
    use nd_graph::generators;

    fn session() -> Session {
        let mut g = generators::grid(6, 6);
        g.add_color((0..36).step_by(3).collect(), Some("Blue".into()));
        Session::start(
            g.into_shared(),
            &parse_query("dist(x,y) <= 2 && Blue(y)").unwrap(),
            PrepareOpts::default(),
            ServeOpts {
                workers: 1,
                ..Default::default()
            },
            4,
        )
        .unwrap()
    }

    /// Total over all reply shapes: non-line replies come back as
    /// sentinel strings so downstream assertions report them legibly.
    fn line(reply: Option<Reply>) -> String {
        match reply {
            Some(Reply::Line(s)) => s,
            Some(Reply::Quit) => "<quit>".to_string(),
            None => "<no reply>".to_string(),
        }
    }

    #[test]
    fn repeated_prepare_is_a_cache_hit() {
        let mut s = session();
        let first = line(s.handle("prepare E(x,y) && Blue(x)"));
        assert!(first.starts_with("prepared miss"), "{first}");
        let second = line(s.handle("prepare E(x,y) && Blue(x)"));
        assert!(second.starts_with("prepared hit"), "{second}");
        // The initial query is still cached from Session::start.
        let back = line(s.handle("prepare dist(x,y) <= 2 && Blue(y)"));
        assert!(back.starts_with("prepared hit"), "{back}");
        // Probes keep working against the switched snapshot.
        let t = line(s.handle("test 0,3"));
        assert!(t == "true" || t == "false", "{t}");
    }

    #[test]
    fn metrics_include_cache_counters() {
        let mut s = session();
        s.handle("prepare E(x,y)");
        s.handle("prepare E(x,y)");
        let m = line(s.handle("metrics"));
        assert!(m.contains("\"prepare_cache\":{"), "{m}");
        assert!(m.contains("\"hits\":1"), "{m}");
        assert!(m.contains("\"misses\":2"), "{m}"); // initial + E(x,y)
        assert!(m.contains("\"requests\":{"), "{m}");
    }

    #[test]
    fn bad_prepare_keeps_serving() {
        let mut s = session();
        let err = line(s.handle("prepare ((("));
        assert!(err.starts_with("err usage: bad query"), "{err}");
        let empty = line(s.handle("prepare"));
        assert!(empty.starts_with("err usage: expected: prepare"), "{empty}");
        let t = line(s.handle("test 0,3"));
        assert!(t == "true" || t == "false", "{t}");
    }

    #[test]
    fn help_advertises_prepare() {
        let mut s = session();
        let h = line(s.handle("help"));
        assert!(h.contains("prepare QUERY"), "{h}");
        assert!(h.contains("update MUTATION"), "{h}");
        assert!(h.contains("commit"), "{h}");
        assert!(h.contains("swap PATH"), "{h}");
        assert!(h.contains("shutdown"), "{h}");
        assert!(h.contains("page"), "{h}");
        // The base protocol help must stay a strict subset story.
        assert!(PROTOCOL_HELP.contains("page"));
    }

    #[test]
    fn swap_errors_are_typed_and_keep_serving() {
        let mut s = session();
        let usage = line(s.handle("swap"));
        assert!(usage.starts_with("err usage: expected: swap"), "{usage}");
        let missing = line(s.handle("swap /nonexistent/nd-idx.bin"));
        assert!(missing.starts_with("err read:"), "{missing}");
        assert_eq!(s.epoch(), 0, "failed swap must not advance the epoch");
        let t = line(s.handle("test 0,3"));
        assert!(t == "true" || t == "false", "{t}");
    }

    #[test]
    fn shutdown_is_graceful_and_typed() {
        let mut s = session();
        let r = line(s.handle("shutdown"));
        assert_eq!(r, "shutdown drained=true");
        assert!(s.is_closed());
        // Probes, prepares and swaps now get typed rejections — the
        // session never drops the conversation or panics.
        let t = line(s.handle("test 0,3"));
        assert!(t.starts_with("err shutdown:"), "{t}");
        let p = line(s.handle("prepare E(x,y)"));
        assert!(p.starts_with("err shutdown:"), "{p}");
        let w = line(s.handle("swap idx.bin"));
        assert!(w.starts_with("err shutdown:"), "{w}");
        let u = line(s.handle("update add-edge 0 1"));
        assert!(u.starts_with("err shutdown:"), "{u}");
        let c = line(s.handle("commit"));
        assert!(c.starts_with("err shutdown:"), "{c}");
        // Idempotent.
        let again = line(s.handle("shutdown"));
        assert!(again.starts_with("shutdown drained="), "{again}");
    }

    #[test]
    fn update_stages_and_commit_swaps_atomically() {
        let mut s = session();
        // dist(0,3) = 3 on the grid: not a solution yet.
        assert_eq!(line(s.handle("test 0,3")), "false");
        let staged = line(s.handle("update add-edge 0 3"));
        assert_eq!(staged, "staged ops=1");
        // Staged but uncommitted: probes still answer on the old graph.
        assert_eq!(line(s.handle("test 0,3")), "false");
        assert_eq!(s.staged_ops(), 1);
        let staged = line(s.handle("update color 4 Blue"));
        assert_eq!(staged, "staged ops=2");

        let c = line(s.handle("commit"));
        assert!(
            c.starts_with("committed epoch=1 ops=2 index_epoch=1"),
            "{c}"
        );
        assert_eq!(s.epoch(), 1);
        assert_eq!(s.staged_ops(), 0);
        // The new edge makes dist(0,3) = 1 and vertex 4 Blue.
        assert_eq!(line(s.handle("test 0,3")), "true");
        assert_eq!(line(s.handle("test 3,4")), "true");
        // Lineage is visible through `stats`.
        let st = line(s.handle("stats"));
        assert!(st.contains("\"epoch\":1"), "{st}");

        // A second commit chains the lineage.
        line(s.handle("update remove-edge 0 3"));
        let c = line(s.handle("commit"));
        assert!(
            c.starts_with("committed epoch=2 ops=1 index_epoch=2"),
            "{c}"
        );
        assert_eq!(line(s.handle("test 0,3")), "false");
    }

    #[test]
    fn update_errors_are_typed_and_keep_serving() {
        let mut s = session();
        let empty = line(s.handle("update"));
        assert!(empty.starts_with("err usage: expected: update"), "{empty}");
        let bad = line(s.handle("update frobnicate 1 2"));
        assert!(bad.starts_with("err usage: bad mutation:"), "{bad}");
        let bad = line(s.handle("update add-edge 0"));
        assert!(bad.starts_with("err usage: bad mutation:"), "{bad}");
        // A malformed line never contaminates the staged log.
        assert_eq!(s.staged_ops(), 0);

        let premature = line(s.handle("commit"));
        assert!(
            premature.starts_with("err usage: nothing staged"),
            "{premature}"
        );
        let noise = line(s.handle("commit now"));
        assert!(noise.starts_with("err usage: expected: commit"), "{noise}");

        // A log that parses but is invalid against the graph fails at
        // commit time, typed, without advancing the epoch — and the bad
        // log is discarded rather than wedging every later commit.
        line(s.handle("update add-edge 0 9999"));
        let c = line(s.handle("commit"));
        assert!(c.starts_with("err update:"), "{c}");
        assert_eq!(s.epoch(), 0);
        assert_eq!(s.staged_ops(), 0);
        let t = line(s.handle("test 0,3"));
        assert!(t == "true" || t == "false", "{t}");
    }

    #[test]
    fn metrics_report_staged_and_committed_counts() {
        let mut s = session();
        line(s.handle("update add-node"));
        let m = line(s.handle("metrics"));
        assert!(m.contains("\"staged_ops\":1"), "{m}");
        assert!(m.contains("\"commits\":0"), "{m}");
        line(s.handle("commit"));
        let m = line(s.handle("metrics"));
        assert!(m.contains("\"staged_ops\":0"), "{m}");
        assert!(m.contains("\"commits\":1"), "{m}");
        assert!(m.contains("\"epoch\":1"), "{m}");
    }

    #[test]
    fn prepare_advances_epoch_and_metrics_report_it() {
        let mut s = session();
        assert_eq!(s.epoch(), 0);
        line(s.handle("prepare E(x,y)"));
        assert_eq!(s.epoch(), 1);
        let m = line(s.handle("metrics"));
        assert!(m.contains("\"session\":{"), "{m}");
        assert!(m.contains("\"epoch\":1"), "{m}");
        assert!(m.contains("\"swaps\":0"), "{m}");
        assert!(m.contains("\"worker_panics\":0"), "{m}");
    }
}
