//! Shared, immutable index snapshots.
//!
//! The paper's contract is *prepare once, probe forever*: after the
//! pseudo-linear preprocessing of Theorem 2.3, `test`/`next_solution`
//! answer in constant time and never mutate the index. A [`Snapshot`]
//! packages one graph and one prepared query behind an [`Arc`] so any
//! number of worker threads can serve probes against the same physical
//! index with zero synchronization — the whole structure is plain owned
//! data, `Send + Sync` by construction (statically asserted in
//! `lib.rs`).

use crate::error::ServeError;
use crate::request::{Request, Response};
use nd_core::{PrepareError, PrepareOpts, PrepareStats, SharedPreparedQuery};
use nd_graph::ColoredGraph;
use nd_logic::ast::Query;
use std::sync::Arc;
use std::time::Instant;

struct SnapshotInner {
    query: SharedPreparedQuery,
    stats: PrepareStats,
    /// The parsed query, kept so operations that re-prepare the index
    /// (`commit`) never re-parse `query_src` — the
    /// display form is not guaranteed to round-trip through the parser.
    ast: Query,
    query_src: String,
    /// Wall-clock of the whole `Snapshot::build` (parse excluded), for the
    /// metrics layer's prepare-phase timings.
    build_ms: u64,
}

/// An immutable, shareable (graph, prepared query) pair. `Clone` is an
/// `Arc` bump — hand copies to every worker and every client thread.
#[derive(Clone)]
pub struct Snapshot {
    inner: Arc<SnapshotInner>,
}

impl Snapshot {
    /// Prepare `q` over a shared graph. The graph `Arc` is co-owned by the
    /// returned snapshot, so the caller may drop (or keep sharing) its
    /// handle freely.
    pub fn build(
        graph: Arc<ColoredGraph>,
        q: &Query,
        opts: &PrepareOpts,
    ) -> Result<Snapshot, PrepareError> {
        let t0 = Instant::now();
        let query = SharedPreparedQuery::prepare(graph, q, opts)?;
        let stats = query.stats();
        Ok(Snapshot {
            inner: Arc::new(SnapshotInner {
                stats,
                ast: q.clone(),
                query_src: q.to_string(),
                build_ms: t0.elapsed().as_millis() as u64,
                query,
            }),
        })
    }

    /// Wrap an already-prepared query — typically one deserialized from a
    /// persistent index file — in a snapshot without re-running the
    /// preprocessing. `build_ms` records whatever wall-clock produced the
    /// prepared query (the load time, for a warm start), so the metrics
    /// layer stays truthful about how this snapshot came to be.
    pub fn from_prepared(
        query: SharedPreparedQuery,
        ast: Query,
        query_src: String,
        build_ms: u64,
    ) -> Snapshot {
        let stats = query.stats();
        Snapshot {
            inner: Arc::new(SnapshotInner {
                stats,
                ast,
                query_src,
                build_ms,
                query,
            }),
        }
    }

    /// Convenience over [`Snapshot::build`] for a graph not yet shared.
    pub fn build_owned(
        graph: ColoredGraph,
        q: &Query,
        opts: &PrepareOpts,
    ) -> Result<Snapshot, PrepareError> {
        Self::build(graph.into_shared(), q, opts)
    }

    pub fn graph(&self) -> &ColoredGraph {
        self.inner.query.graph()
    }

    /// The underlying prepared query, for direct (non-pooled) probing.
    pub fn prepared(&self) -> &SharedPreparedQuery {
        &self.inner.query
    }

    /// Index statistics captured at build time.
    pub fn stats(&self) -> &PrepareStats {
        &self.inner.stats
    }

    /// The query's source form (for logs and the metrics endpoint).
    pub fn query_src(&self) -> &str {
        &self.inner.query_src
    }

    /// The parsed query this snapshot serves.
    pub fn query_ast(&self) -> &Query {
        &self.inner.ast
    }

    /// Wall-clock milliseconds the snapshot build took.
    pub fn build_ms(&self) -> u64 {
        self.inner.build_ms
    }

    pub fn arity(&self) -> usize {
        self.inner.query.arity()
    }

    /// Execute one request. Pure read — safe from any thread, constant
    /// time per probe (plus output size for pages).
    pub fn execute(&self, req: &Request) -> Result<Response, ServeError> {
        let pq = &self.inner.query;
        match req {
            Request::Test { tuple } => Ok(Response::Test(pq.try_test(tuple)?)),
            Request::NextSolution { from } => {
                Ok(Response::NextSolution(pq.try_next_solution(from)?))
            }
            Request::EnumeratePage { from, limit } => {
                let solutions = pq.page(from, *limit)?;
                // A short page means enumeration is exhausted; a full page
                // resumes after its last row. `limit == 0` makes no
                // progress by definition — the cursor stays put.
                let next_from = if *limit == 0 {
                    Some(from.clone())
                } else if solutions.len() < *limit {
                    None
                } else {
                    solutions.last().and_then(|last| pq.lex_increment(last))
                };
                Ok(Response::Page {
                    solutions,
                    next_from,
                })
            }
        }
    }
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("query", &self.inner.query_src)
            .field("n", &self.graph().n())
            .field("m", &self.graph().m())
            .field("arity", &self.arity())
            .field("rung", &self.inner.stats.rung)
            .finish()
    }
}
