//! The prepared-query front-end: **Theorem 2.3** (next solution),
//! **Corollary 2.4** (testing) and **Corollary 2.5** (constant-delay
//! enumeration in lexicographic order).
//!
//! Preparation (Section 5.2.1, adapted to the fragment of
//! [`crate::engine::fragment`]):
//!
//! 1. check the branch's sentences (the `ξ` analogues) once;
//! 2. evaluate every unary formula `U_i` for all vertices (Unary Theorem
//!    substitute) into sorted lists `L_i` + membership bitsets;
//! 3. build one distance oracle (Prop 4.2) per distinct constraint radius;
//! 4. build a `2r`-cover, its `r`-kernels, and — for every position with a
//!    far constraint — skip pointers (Lemma 5.8) over `L_j`.
//!
//! Answering — `test`, `next_solution` and enumeration over these
//! structures — lives in the sibling `probe` module.

use crate::dist::{DistOracle, DistOracleOpts};
use crate::engine::fragment::{compile, BinKind, FragmentQuery, UnsupportedReason};
use crate::engine::naive::NaiveEngine;
use crate::engine::probe::merge_branches;
pub use crate::engine::probe::Enumerate;
use crate::error::{ApplyError, InvalidInput, PrepareError, QueryError};
use crate::skip::SkipPointers;
use nd_cover::{Cover, KernelIndex};
use nd_graph::budget::{Budget, BudgetExceeded, BudgetTracker, Phase, Resource};
use nd_graph::par::try_parallel_map;
use nd_graph::{ColoredGraph, Vertex};
use nd_logic::ast::{ColorRef, Formula, Query};
use nd_logic::eval::eval;
use nd_logic::locality::evaluate_unary;
use nd_persist::{
    malformed, parse_container_frames, ContainerWriter, DeferredVerify, MmapFile, PersistError,
    Reader, SectionFrame, SlabCtx, VerifyPolicy, Writer,
};
use nd_update::MutationLog;
use std::borrow::Borrow;
use std::sync::Arc;
use std::time::Instant;

/// Preparation options.
#[derive(Clone, Debug)]
pub struct PrepareOpts {
    /// The paper's pseudo-linearity accuracy `ε`. Validated (finite and
    /// positive) and part of a serving cache key, but the index it
    /// prepares is the same for every `ε`: covers, skip tables and oracles
    /// use flat sorted layouts whose shape does not depend on it.
    pub epsilon: f64,
    /// Distance-oracle construction knobs.
    pub dist: DistOracleOpts,
    /// Fall back to the naive engine when the query is outside the
    /// fragment (`true`), or report the reason (`false`). Also gates the
    /// budget-degradation rungs of the ladder (see
    /// [`PreparedQuery::prepare`]).
    pub allow_fallback: bool,
    /// Prune backtracking with per-future-position extendability checks.
    pub extendability_check: bool,
    /// Resource caps for the preprocessing phases. Unlimited by default;
    /// a capped run degrades down the ladder and ultimately returns
    /// [`PrepareError::BudgetExceeded`] instead of hanging.
    pub budget: Budget,
    /// Worker threads for the parallel preprocessing phases (branch
    /// fan-out, unary-list evaluation, per-position skip pointers; the
    /// kernels come out of the sequential cover pass). `1` = fully sequential (the default); `0` = use the
    /// host's available parallelism. The produced index is identical for
    /// every thread count — the fan-out units are pure functions merged by
    /// input slot, and the shared budget tracker enforces one total cap.
    pub threads: usize,
}

impl Default for PrepareOpts {
    fn default() -> Self {
        PrepareOpts {
            epsilon: 0.5,
            dist: DistOracleOpts::default(),
            allow_fallback: true,
            extendability_check: true,
            budget: Budget::UNLIMITED,
            threads: 1,
        }
    }
}

/// Which rung of the graceful-degradation ladder produced the index.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DegradationRung {
    /// The paper's machinery.
    #[default]
    Indexed,
    /// Naive materialization (budget-checked).
    NaiveFallback,
}

/// Why preparation stepped down from the previous rung.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DegradationReason {
    /// The query is outside the distance-type fragment.
    UnsupportedFragment(UnsupportedReason),
    /// A budget cap interrupted the previous rung.
    BudgetExceeded(BudgetExceeded),
}

/// Update lineage of a prepared index: how many [`PreparedQuery::apply`]
/// epochs it is away from its original prepare, the chained digest of the
/// mutation logs that got it there, and how long the latest apply took.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct UpdateLineage {
    /// Number of applied mutation logs since the original prepare.
    pub epoch: u64,
    /// FNV-chained digest over the applied logs (0 at epoch 0): each
    /// apply folds its log's [`MutationLog::digest`] into the previous
    /// value, so two indexes agree on the digest iff they were produced
    /// by the same log sequence.
    pub log_digest: u64,
    /// Wall-clock milliseconds of the latest apply (0 on a loaded index:
    /// index files persist no wall-clock field).
    pub update_ms: u64,
}

/// Sizes of a prepared query's index structures (see
/// [`PreparedQuery::stats`]), plus which degradation rung produced them
/// and what the preparation spent against its budget.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PrepareStats {
    /// The ladder rung that produced the index.
    pub rung: DegradationRung,
    /// Why the ladder stepped below [`DegradationRung::Indexed`] (absent
    /// when the first rung succeeded).
    pub degradation_reason: Option<DegradationReason>,
    /// Node-expansion charges accumulated by the successful rung (or, in
    /// the `partial` stats of [`PrepareError::BudgetExceeded`], by the
    /// last rung attempted).
    pub budget_nodes_spent: u64,
    /// Wall-clock milliseconds consumed by the same rung (0 on a loaded
    /// index, like every wall-clock field below).
    pub budget_ms_spent: u64,
    /// Union branches compiled.
    pub branches: usize,
    /// Branches whose sentences held.
    pub active_branches: usize,
    /// Distance oracles built (one per distinct constraint radius/branch).
    pub oracles: usize,
    /// Total vertices materialized across all oracle recursion levels.
    pub oracle_vertices: usize,
    /// Oracles whose root is one flat ball table (`Σ_v |N_r(v)|` fit the
    /// oracle budget, so no splitter recursion was built).
    pub oracle_flat: usize,
    /// Deepest oracle recursion.
    pub oracle_depth: u32,
    /// Bags across all branch covers.
    pub cover_bags: usize,
    /// `Σ|X|` across all branch covers.
    pub cover_total_size: usize,
    /// Maximum cover degree.
    pub cover_degree: usize,
    /// `Σ_j |L_j|` across branches.
    pub unary_list_sizes: usize,
    /// Total tabulated skip-pointer entries.
    pub skip_entries: usize,
    /// Whether any skip table hit its size cap.
    pub skip_truncated: bool,
    /// For the naive engine: the materialized solution count.
    pub naive_solutions: Option<usize>,
    /// Resolved worker-thread count the prepare ran with.
    pub threads: usize,
    /// Per-phase wall-clock breakdown, summed across branches (so with a
    /// parallel branch fan-out these behave like CPU time, not elapsed
    /// time): greedy cover construction, including the one boundary BFS
    /// per bag that decides which vertices the bag covers, …
    pub cover_ms: u64,
    /// … reading each bag's `r`-kernel row (Lemma 5.7) off that same
    /// BFS's labels, with the row's budget charges, …
    pub kernel_ms: u64,
    /// … the cover's membership directory (one counting pass over the
    /// bag rows), …
    pub store_ms: u64,
    /// … and the skip-pointer closure (Lemma 5.8).
    pub skip_ms: u64,
    /// Update epoch (0 = the original prepare; see [`UpdateLineage`]).
    pub epoch: u64,
    /// Chained digest of the applied mutation logs (0 at epoch 0).
    pub log_digest: u64,
    /// Always 0: [`PreparedQuery::apply`] re-prepares the mutated graph
    /// and repairs no bag in place. Kept so existing stats readers still
    /// find the field.
    pub repaired_bags: usize,
    /// Whether this index came out of an [`PreparedQuery::apply`] (a
    /// re-prepare of the mutated graph): derived as `epoch > 0`.
    pub rebuilt: bool,
    /// Wall-clock milliseconds of the latest apply.
    pub update_ms: u64,
}

impl DegradationRung {
    /// Stable machine-readable name (used in JSON and CLI output).
    pub fn name(&self) -> &'static str {
        match self {
            DegradationRung::Indexed => "indexed",
            DegradationRung::NaiveFallback => "naive_fallback",
        }
    }
}

impl PrepareStats {
    /// Serde-free JSON rendering (see `nd_graph::json`): one flat object,
    /// stable keys, suitable for bench artifacts and the serving metrics
    /// endpoint.
    pub fn to_json(&self) -> String {
        use nd_graph::json::JsonObject;
        let mut o = JsonObject::new();
        o.field_str("rung", self.rung.name());
        match &self.degradation_reason {
            Some(r) => o.field_str("degradation_reason", &format!("{r:?}")),
            None => o.field_null("degradation_reason"),
        };
        o.field_u64("budget_nodes_spent", self.budget_nodes_spent)
            .field_u64("budget_ms_spent", self.budget_ms_spent)
            .field_u64("branches", self.branches as u64)
            .field_u64("active_branches", self.active_branches as u64)
            .field_u64("oracles", self.oracles as u64)
            .field_u64("oracle_vertices", self.oracle_vertices as u64)
            .field_u64("oracle_flat", self.oracle_flat as u64)
            .field_u64("oracle_depth", self.oracle_depth as u64)
            .field_u64("cover_bags", self.cover_bags as u64)
            .field_u64("cover_total_size", self.cover_total_size as u64)
            .field_u64("cover_degree", self.cover_degree as u64)
            .field_u64("unary_list_sizes", self.unary_list_sizes as u64)
            .field_u64("skip_entries", self.skip_entries as u64)
            .field_bool("skip_truncated", self.skip_truncated);
        match self.naive_solutions {
            Some(c) => o.field_u64("naive_solutions", c as u64),
            None => o.field_null("naive_solutions"),
        };
        o.field_u64("threads", self.threads as u64)
            .field_u64("cover_ms", self.cover_ms)
            .field_u64("kernel_ms", self.kernel_ms)
            .field_u64("store_ms", self.store_ms)
            .field_u64("skip_ms", self.skip_ms)
            .field_u64("epoch", self.epoch)
            .field_u64("log_digest", self.log_digest)
            .field_u64("repaired_bags", self.repaired_bags as u64)
            .field_bool("rebuilt", self.rebuilt)
            .field_u64("update_ms", self.update_ms);
        o.finish()
    }

    /// The timing-free view of the stats: every field that must be
    /// identical when two prepares of the same inputs are compared
    /// (e.g. sequential vs. parallel), with wall-clock measurements and
    /// the thread count zeroed out. `budget_nodes_spent` is kept — charge
    /// totals are deterministic counts of work done, not timings. Update
    /// lineage is also ignored: an applied epoch and a fresh prepare of
    /// the mutated graph are the same index reached by different routes.
    pub fn structural(&self) -> PrepareStats {
        PrepareStats {
            budget_ms_spent: 0,
            threads: 0,
            cover_ms: 0,
            kernel_ms: 0,
            store_ms: 0,
            skip_ms: 0,
            epoch: 0,
            log_digest: 0,
            repaired_bags: 0,
            rebuilt: false,
            update_ms: 0,
            ..self.clone()
        }
    }
}

/// Which engine backs a prepared query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineKind {
    /// The paper's machinery, with this many union branches.
    Indexed { branches: usize },
    /// Naive materialization (fallback / baseline).
    Naive,
}

/// A query prepared against a fixed graph (Theorem 2.3's data structure).
///
/// Generic over how the graph is owned: `G` is anything that can lend a
/// [`ColoredGraph`] — a plain `&ColoredGraph` for the classic borrowed
/// use, or an [`Arc<ColoredGraph>`] for a self-contained `Send + Sync`
/// value that serving runtimes (`nd-serve`) can share across threads.
/// Every index structure inside is owned, so the only question is who
/// owns the graph itself.
pub struct PreparedQuery<G: Borrow<ColoredGraph>> {
    g: G,
    arity: usize,
    pub(super) engine: EngineImpl,
    rung: DegradationRung,
    degradation_reason: Option<DegradationReason>,
    budget_nodes_spent: u64,
    budget_ms_spent: u64,
    threads_used: usize,
    lineage: UpdateLineage,
}

/// A [`PreparedQuery`] that co-owns its graph through an [`Arc`]: fully
/// self-contained, `Send + Sync`, cheap to hand to worker threads.
pub type SharedPreparedQuery = PreparedQuery<Arc<ColoredGraph>>;

pub(super) enum EngineImpl {
    Indexed(Vec<BranchEngine>),
    Naive(NaiveEngine),
}

impl<G: Borrow<ColoredGraph>> std::fmt::Debug for PreparedQuery<G> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedQuery")
            .field("arity", &self.arity)
            .field("engine", &self.engine_kind())
            .field("rung", &self.rung)
            .finish_non_exhaustive()
    }
}

/// Reject color references the graph cannot resolve — `eval` and
/// `evaluate_unary` would panic on them far from the input boundary.
fn validate_colors(g: &ColoredGraph, f: &Formula) -> Result<(), PrepareError> {
    match f {
        Formula::Color(ColorRef::Named(name), _) if g.color_by_name(name).is_none() => {
            return Err(PrepareError::InvalidInput(InvalidInput::UnknownColor(
                name.clone(),
            )));
        }
        Formula::Color(ColorRef::Id(i), _) if (*i as usize) >= g.num_colors() => {
            return Err(PrepareError::InvalidInput(InvalidInput::UnknownColorId(*i)));
        }
        Formula::Not(inner) | Formula::Exists(_, inner) | Formula::Forall(_, inner) => {
            validate_colors(g, inner)?
        }
        Formula::And(fs) | Formula::Or(fs) => {
            for sub in fs {
                validate_colors(g, sub)?;
            }
        }
        _ => {}
    }
    Ok(())
}

impl<G: Borrow<ColoredGraph>> PreparedQuery<G> {
    /// Preprocess `q` over `g`. Pseudo-linear for fragment queries;
    /// `O(n^k)`-ish for fallback queries.
    ///
    /// Never panics on malformed input. Runs the graceful-degradation
    /// ladder:
    ///
    /// 1. **Indexed** — the paper's machinery, within `opts.budget`;
    /// 2. **NaiveFallback** — budget-checked materialization with a fresh
    ///    budget, also used when the query is outside the fragment;
    /// 3. a typed [`PrepareError`] when every permitted rung fails.
    ///
    /// No rung retries the index at a coarser `ε`: no layout depends on
    /// `ε`, so a retry would repeat the same charges.
    ///
    /// Rung 2 requires `opts.allow_fallback`; with it off, the first
    /// failure is reported directly. The chosen rung and the reason for
    /// any step-down are recorded in [`PreparedQuery::stats`]. Relational
    /// atoms never fall back (naive evaluation cannot interpret them over
    /// a colored graph): they always yield
    /// [`PrepareError::UnsupportedFragment`].
    pub fn prepare(g: G, q: &Query, opts: &PrepareOpts) -> Result<PreparedQuery<G>, PrepareError> {
        if !(opts.epsilon.is_finite() && opts.epsilon > 0.0) {
            return Err(PrepareError::InvalidInput(InvalidInput::BadEpsilon(
                opts.epsilon,
            )));
        }
        let gr = g.borrow();
        validate_colors(gr, &q.formula)?;
        let threads = nd_graph::resolve_threads(opts.threads);

        let branches = match compile(q) {
            Ok(branches) => branches,
            Err(reason @ UnsupportedReason::RelationalAtom(_)) => {
                return Err(PrepareError::UnsupportedFragment(reason))
            }
            Err(reason) if opts.allow_fallback => {
                let tracker = opts.budget.start();
                return match NaiveEngine::try_prepare(gr, q, &tracker) {
                    Ok(n) => Ok(Self::from_naive(
                        g,
                        q.arity(),
                        n,
                        DegradationReason::UnsupportedFragment(reason),
                        &tracker,
                        threads,
                    )),
                    Err(e) => Err(Self::budget_error(e, 0, &tracker)),
                };
            }
            Err(reason) => return Err(PrepareError::UnsupportedFragment(reason)),
        };

        // Rung 1: indexed.
        let tracker = opts.budget.start();
        let exceeded = match Self::try_indexed(gr, &branches, opts, &tracker) {
            Ok(engines) => {
                return Ok(PreparedQuery {
                    arity: q.arity(),
                    engine: EngineImpl::Indexed(engines),
                    rung: DegradationRung::Indexed,
                    degradation_reason: None,
                    budget_nodes_spent: tracker.nodes_spent(),
                    budget_ms_spent: tracker.elapsed().as_millis() as u64,
                    threads_used: threads,
                    lineage: UpdateLineage::default(),
                    g,
                })
            }
            Err(e) => e,
        };

        // Rung 2: budget-checked naive materialization, fresh budget.
        if opts.allow_fallback {
            let tracker2 = opts.budget.start();
            return match NaiveEngine::try_prepare(gr, q, &tracker2) {
                Ok(n) => Ok(Self::from_naive(
                    g,
                    q.arity(),
                    n,
                    DegradationReason::BudgetExceeded(exceeded),
                    &tracker2,
                    threads,
                )),
                Err(e) => Err(Self::budget_error(e, branches.len(), &tracker2)),
            };
        }
        Err(Self::budget_error(exceeded, branches.len(), &tracker))
    }

    /// Prepare every union branch, fanned across `opts.threads` workers.
    /// Branches only read the immutable graph and their own compiled
    /// form, and the merge is by branch index, so the result is identical
    /// to the sequential loop; the shared `tracker` keeps one total
    /// budget across all workers.
    fn try_indexed(
        g: &ColoredGraph,
        branches: &[FragmentQuery],
        opts: &PrepareOpts,
        tracker: &BudgetTracker,
    ) -> Result<Vec<BranchEngine>, BudgetExceeded> {
        try_parallel_map(opts.threads, branches, |_, fq| {
            BranchEngine::try_prepare(g, fq.clone(), opts, tracker)
        })
    }

    fn from_naive(
        g: G,
        arity: usize,
        n: NaiveEngine,
        reason: DegradationReason,
        tracker: &BudgetTracker,
        threads: usize,
    ) -> PreparedQuery<G> {
        PreparedQuery {
            g,
            arity,
            engine: EngineImpl::Naive(n),
            rung: DegradationRung::NaiveFallback,
            degradation_reason: Some(reason),
            budget_nodes_spent: tracker.nodes_spent(),
            budget_ms_spent: tracker.elapsed().as_millis() as u64,
            threads_used: threads,
            lineage: UpdateLineage::default(),
        }
    }

    /// Build the `BudgetExceeded` error with partial stats — the spend of
    /// the last rung attempted, so callers can see how far preparation got.
    fn budget_error(
        exceeded: BudgetExceeded,
        branches: usize,
        tracker: &BudgetTracker,
    ) -> PrepareError {
        let partial = Box::new(PrepareStats {
            branches,
            degradation_reason: Some(DegradationReason::BudgetExceeded(exceeded.clone())),
            budget_nodes_spent: tracker.nodes_spent(),
            budget_ms_spent: tracker.elapsed().as_millis() as u64,
            ..PrepareStats::default()
        });
        PrepareError::BudgetExceeded { exceeded, partial }
    }

    /// Which engine ended up backing the query.
    pub fn engine_kind(&self) -> EngineKind {
        match &self.engine {
            EngineImpl::Indexed(bs) => EngineKind::Indexed { branches: bs.len() },
            EngineImpl::Naive(_) => EngineKind::Naive,
        }
    }

    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The graph this query was prepared against.
    pub fn graph(&self) -> &ColoredGraph {
        self.g.borrow()
    }

    /// Sizes of the preprocessed structures (index observability; used by
    /// the experiment harness to verify pseudo-linearity).
    pub fn stats(&self) -> PrepareStats {
        let mut s = PrepareStats {
            rung: self.rung,
            degradation_reason: self.degradation_reason.clone(),
            budget_nodes_spent: self.budget_nodes_spent,
            budget_ms_spent: self.budget_ms_spent,
            threads: self.threads_used,
            epoch: self.lineage.epoch,
            log_digest: self.lineage.log_digest,
            rebuilt: self.lineage.epoch > 0,
            update_ms: self.lineage.update_ms,
            ..PrepareStats::default()
        };
        match &self.engine {
            EngineImpl::Naive(n) => {
                s.naive_solutions = Some(n.count());
            }
            EngineImpl::Indexed(bs) => {
                s.branches = bs.len();
                for b in bs {
                    s.active_branches += b.active as usize;
                    s.oracles += b.oracles.len();
                    for (_, o) in &b.oracles {
                        let os = o.stats();
                        s.oracle_vertices += os.total_vertices;
                        s.oracle_flat += o.is_flat() as usize;
                        s.oracle_depth = s.oracle_depth.max(os.depth);
                    }
                    if let Some(c) = &b.cover {
                        s.cover_bags += c.num_bags();
                        s.cover_total_size += c.total_bag_size();
                        s.cover_degree = s.cover_degree.max(c.degree());
                    }
                    s.unary_list_sizes += b.unary_lists.iter().map(|l| l.len()).sum::<usize>();
                    for sp in b.skips.iter().flatten() {
                        s.skip_entries += sp.table_len();
                        s.skip_truncated |= sp.truncated();
                    }
                    s.cover_ms += b.timings.cover_ms;
                    s.kernel_ms += b.timings.kernel_ms;
                    s.store_ms += b.timings.store_ms;
                    s.skip_ms += b.timings.skip_ms;
                }
            }
        }
        s
    }

    /// **Corollary 2.4**: is `tuple` a solution? Constant time. Rejects
    /// mis-sized or out-of-range probes with a typed error.
    pub fn try_test(&self, tuple: &[Vertex]) -> Result<bool, QueryError> {
        let g = self.g.borrow();
        if tuple.len() != self.arity {
            return Err(QueryError::ArityMismatch {
                expected: self.arity,
                got: tuple.len(),
            });
        }
        if let Some(&v) = tuple.iter().find(|&&v| (v as usize) >= g.n()) {
            return Err(QueryError::VertexOutOfRange { v, n: g.n() });
        }
        Ok(match &self.engine {
            EngineImpl::Indexed(bs) => bs.iter().any(|b| b.test_tuple(g, tuple)),
            EngineImpl::Naive(n) => n.test(tuple),
        })
    }

    /// Panicking convenience over [`PreparedQuery::try_test`] for
    /// pre-validated tuples.
    pub fn test(&self, tuple: &[Vertex]) -> bool {
        self.try_test(tuple).expect("invalid probe tuple")
    }

    /// **Theorem 2.3**: the lexicographically smallest solution `≥ from`,
    /// or `None`. Rejects a mis-sized probe with a typed error
    /// (out-of-range components are fine: they just mean "no successor"
    /// in that subrange).
    pub fn try_next_solution(&self, from: &[Vertex]) -> Result<Option<Vec<Vertex>>, QueryError> {
        if from.len() != self.arity {
            return Err(QueryError::ArityMismatch {
                expected: self.arity,
                got: from.len(),
            });
        }
        let g = self.g.borrow();
        Ok(match &self.engine {
            EngineImpl::Indexed(bs) => {
                merge_branches(bs.iter().filter_map(|b| b.next_solution(g, from)))
            }
            EngineImpl::Naive(n) => n.next_solution(from),
        })
    }

    /// Panicking convenience over [`PreparedQuery::try_next_solution`].
    pub fn next_solution(&self, from: &[Vertex]) -> Option<Vec<Vertex>> {
        self.try_next_solution(from).expect("invalid probe tuple")
    }

    /// **Corollary 2.5**: enumerate `q(G)` in increasing lexicographic
    /// order with constant delay.
    pub fn enumerate(&self) -> Enumerate<'_, G> {
        Enumerate::start(self, &vec![0; self.arity])
    }

    /// Enumerate `q(G)` starting from the lexicographically smallest
    /// solution `≥ from`. `enumerate_from(&[0; k])` is equivalent to
    /// [`PreparedQuery::enumerate`]. Rejects a mis-sized probe with a
    /// typed error.
    pub fn enumerate_from(&self, from: &[Vertex]) -> Result<Enumerate<'_, G>, QueryError> {
        if from.len() != self.arity {
            return Err(QueryError::ArityMismatch {
                expected: self.arity,
                got: from.len(),
            });
        }
        Ok(Enumerate::start(self, from))
    }

    /// One page of enumeration: up to `limit` solutions `≥ from`, in
    /// lexicographic order. The serving layer's unit of work — a caller
    /// can resume with `lex_increment(last_of_page)` as the next `from`.
    pub fn page(&self, from: &[Vertex], limit: usize) -> Result<Vec<Vec<Vertex>>, QueryError> {
        Ok(self.enumerate_from(from)?.take(limit).collect())
    }

    /// Count all solutions. Pseudo-linear for single-branch fragment
    /// queries whose constraint components have ≤ 2 positions (the
    /// Grohe–Schweikardt counting claim for our fragment — see
    /// `engine::counting`); enumeration-based otherwise, without a bound
    /// on its cost ([`PreparedQuery::try_count`] bounds it).
    pub fn count(&self) -> usize {
        self.try_count(&Budget::UNLIMITED)
            .expect("unlimited budget cannot be exceeded")
    }

    /// [`PreparedQuery::count`] under `budget`: the enumeration-based
    /// fallback charges one node per answer to a tracker started from
    /// `budget`, which also samples the wall clock on its usual cadence,
    /// and stops with [`BudgetExceeded`] (phase [`Phase::Counting`]) once
    /// a cap is crossed. The pseudo-linear count and a naive index's
    /// stored count are not charged.
    pub fn try_count(&self, budget: &Budget) -> Result<usize, BudgetExceeded> {
        match &self.engine {
            EngineImpl::Indexed(bs) => {
                if let [branch] = bs.as_slice() {
                    if let Some(c) = branch.fast_count(self.g.borrow()) {
                        return Ok(c as usize);
                    }
                }
            }
            EngineImpl::Naive(n) => return Ok(n.count()),
        }
        let tracker = budget.start();
        let mut count = 0;
        for _ in self.enumerate() {
            tracker.charge_nodes(Phase::Counting, 1)?;
            count += 1;
        }
        Ok(count)
    }

    /// The lexicographic successor tuple over `[0, n)^k`, or `None` at the
    /// top. Public so paging clients (`nd-serve`) can resume enumeration
    /// after the last solution of a page.
    pub fn lex_increment(&self, t: &[Vertex]) -> Option<Vec<Vertex>> {
        let n = self.g.borrow().n() as Vertex;
        let mut out = t.to_vec();
        for i in (0..out.len()).rev() {
            if out[i] + 1 < n {
                out[i] += 1;
                return Some(out);
            }
            out[i] = 0;
        }
        None
    }

    /// Is `query` the query this index was prepared for? Same arity and,
    /// on the indexed engine, every compiled branch equal to the stored
    /// one. A naive-rung index keeps no compiled query, so only the arity
    /// is checked there.
    fn prepared_for(&self, query: &Query) -> bool {
        if query.arity() != self.arity {
            return false;
        }
        match &self.engine {
            EngineImpl::Naive(_) => true,
            EngineImpl::Indexed(bs) => compile(query).is_ok_and(|branches| {
                branches.len() == bs.len() && branches.iter().zip(bs).all(|(fq, b)| *fq == b.fq)
            }),
        }
    }

    /// Update lineage: epoch distance from the original prepare, chained
    /// log digest, and how long the latest [`PreparedQuery::apply`] took.
    pub fn lineage(&self) -> &UpdateLineage {
        &self.lineage
    }

    /// **Dynamic update**: apply a mutation log and return a new prepared
    /// query over the mutated graph; `self` is untouched.
    ///
    /// The paper builds its index for a fixed graph, so the update path
    /// is that build: validate `query` against this index, apply `log` to
    /// the graph, [`PreparedQuery::prepare`] the result under `opts`, and
    /// advance the lineage one epoch. The new index is exactly what a
    /// fresh prepare of the mutated graph yields, lineage aside.
    ///
    /// `query` must be the query this index was prepared for: every
    /// compiled branch must equal the stored one, or the call returns
    /// [`ApplyError::QueryMismatch`]. A naive-rung index keeps no compiled
    /// query, so only its arity is checked.
    pub fn apply(
        &self,
        log: &MutationLog,
        query: &Query,
        opts: &PrepareOpts,
    ) -> Result<SharedPreparedQuery, ApplyError> {
        let t0 = Instant::now();
        if !self.prepared_for(query) {
            return Err(ApplyError::QueryMismatch);
        }
        let graph = log.apply_to(self.g.borrow()).map_err(ApplyError::Update)?;
        let mut pq =
            PreparedQuery::prepare(Arc::new(graph), query, opts).map_err(ApplyError::Prepare)?;
        pq.lineage = UpdateLineage {
            epoch: self.lineage.epoch + 1,
            log_digest: chain_digest(self.lineage.log_digest, log.digest()),
            update_ms: t0.elapsed().as_millis() as u64,
        };
        Ok(pq)
    }
}

/// Fold a log digest into the chained lineage digest (FNV-1a over the
/// 16 little-endian bytes of the pair).
fn chain_digest(prev: u64, log: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in prev.to_le_bytes().into_iter().chain(log.to_le_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------
// One branch of the indexed engine.
// ---------------------------------------------------------------------

/// One branch of the indexed engine. Owns every index structure; the
/// graph itself is passed into each method by the `PreparedQuery`
/// front-end, so the branch carries no lifetime and the whole engine can
/// be owned by an `Arc`-backed snapshot.
pub(super) struct BranchEngine {
    pub(super) fq: FragmentQuery,
    /// All sentences hold (otherwise the branch is empty and inert).
    pub(super) active: bool,
    /// One distance oracle per distinct constraint radius `≥ 1`, sorted
    /// by radius (a query has a handful, so a probe finds its oracle by a
    /// short scan).
    pub(super) oracles: Vec<(u32, DistOracle)>,
    /// `2r`-cover (present iff some constraint is `Le` or `Gt`).
    pub(super) cover: Option<Cover>,
    /// `r`-kernels of the cover bags (present iff some constraint is `Gt`).
    pub(super) kernels: Option<KernelIndex>,
    /// Per-position sorted unary candidate lists `L_j`.
    /// [`nd_persist::Slab`]s: file-backed after a mapped load, owned after
    /// a prepare.
    pub(super) unary_lists: Vec<nd_persist::Slab<Vertex>>,
    /// Membership bitsets per position.
    pub(super) unary_bits: Vec<Vec<bool>>,
    /// Skip pointers per position (present iff the position has a far
    /// constraint).
    pub(super) skips: Vec<Option<SkipPointers>>,
    pub(super) extend_check: bool,
    /// Per-phase build-time breakdown for this branch.
    timings: PhaseTimings,
}

/// Wall-clock spent in each index-construction phase of one branch.
#[derive(Clone, Copy, Debug, Default)]
struct PhaseTimings {
    cover_ms: u64,
    kernel_ms: u64,
    store_ms: u64,
    skip_ms: u64,
}

impl BranchEngine {
    fn try_prepare(
        g: &ColoredGraph,
        fq: FragmentQuery,
        opts: &PrepareOpts,
        tracker: &BudgetTracker,
    ) -> Result<BranchEngine, BudgetExceeded> {
        let n = g.n();
        // Step 1: sentences (the ξ analogues). Independence sentences get
        // the fast scattered-set decision of Theorem 5.4's toolbox; other
        // sentences fall back to naive model checking. Each check touches
        // the whole vertex set at least once.
        let mut active = true;
        for s in &fq.sentences {
            tracker.charge_nodes(Phase::SentenceCheck, n as u64 + 1)?;
            let holds = if let Some(ind) = crate::independence::recognize(s) {
                let witnesses = evaluate_unary(g, &ind.psi, ind.var);
                crate::independence::holds(g, &ind, &witnesses)
            } else {
                eval(g, &Query::new(s.clone(), vec![]), &[])
            };
            if !holds {
                active = false;
                break;
            }
        }

        let mut engine = BranchEngine {
            active,
            oracles: Vec::new(),
            cover: None,
            kernels: None,
            unary_lists: vec![nd_persist::Slab::default(); fq.k],
            unary_bits: vec![Vec::new(); fq.k],
            skips: (0..fq.k).map(|_| None).collect(),
            extend_check: opts.extendability_check,
            timings: PhaseTimings::default(),
            fq,
        };
        if !active {
            return Ok(engine);
        }

        // Step 2: unary lists + bitsets (Unary Theorem substitute). Each
        // position's list is a pure function of (graph, formula), so the
        // positions fan out across the prepare workers.
        let positions: Vec<usize> = (0..engine.fq.k).collect();
        let fq_ref = &engine.fq;
        let unary = try_parallel_map(opts.threads, &positions, |_, &j| {
            tracker.charge_nodes(Phase::UnaryEvaluation, n as u64 + 1)?;
            let list: Vec<Vertex> = match &fq_ref.unary[j] {
                Formula::True => (0..n as Vertex).collect(),
                f => evaluate_unary(g, f, fq_ref.vars[j]),
            };
            tracker.charge_memory(Phase::UnaryEvaluation, 4 * list.len() as u64 + n as u64)?;
            let mut bits = vec![false; n];
            for &v in &list {
                bits[v as usize] = true;
            }
            Ok((list, bits))
        })?;
        for (j, (list, bits)) in unary.into_iter().enumerate() {
            engine.unary_lists[j] = list.into();
            engine.unary_bits[j] = bits;
        }

        // Step 3: distance oracles per distinct radius.
        let mut opts_dist = opts.dist;
        opts_dist.epsilon = opts.epsilon;
        for c in &engine.fq.binary {
            if let BinKind::Le(d) | BinKind::Gt(d) = c.kind {
                if let Err(pos) = engine.oracles.binary_search_by_key(&d, |(r, _)| *r) {
                    let oracle = DistOracle::try_build(g, d, &opts_dist, tracker)?;
                    engine.oracles.insert(pos, (d, oracle));
                }
            }
        }

        // Step 4: cover, kernels, skip pointers.
        let r = engine.fq.max_radius();
        let needs_cover = engine
            .fq
            .binary
            .iter()
            .any(|c| matches!(c.kind, BinKind::Le(_) | BinKind::Gt(_)));
        let needs_kernels = engine.fq.binary.iter().any(|c| c.kind.excluding());
        // The kernel rows come out of the cover's own boundary BFS
        // (Lemma 5.7 paid once per bag), so they are built in the same
        // sequential pass rather than fanned out per bag.
        let mut kernels = None;
        if needs_kernels {
            let (cover, k) = Cover::try_build_with_kernels(g, 2 * r, r, tracker)?;
            engine.cover = Some(cover);
            kernels = Some(k);
        } else if needs_cover {
            engine.cover = Some(Cover::try_build(g, 2 * r, opts.epsilon, tracker)?);
        }
        if let Some(cover) = &engine.cover {
            let ct = cover.build_timings();
            engine.timings.cover_ms = ct.greedy_ms;
            engine.timings.store_ms = ct.store_ms;
            engine.timings.kernel_ms = ct.kernel_ms;
        }
        if let Some(kernels) = kernels {
            // Skip pointers are per-position and independent (each reads
            // the shared kernel index plus its own L_j), so they fan out
            // like the unary lists.
            let t_skip = Instant::now();
            let far_positions: Vec<(usize, usize)> = (0..engine.fq.k)
                .filter_map(|j| {
                    let far_count = engine
                        .fq
                        .constraints_on(j)
                        .filter(|c| c.kind.excluding())
                        .count();
                    (far_count > 0).then_some((j, far_count))
                })
                .collect();
            // Cap the SC closure so expander-like inputs (huge kernel
            // degrees) degrade to scans instead of blowing memory — the
            // pseudo-linear budget of Lemma 5.8.
            let cap = (64 * n).max(1_000_000);
            let unary_lists = &engine.unary_lists;
            let built = try_parallel_map(opts.threads, &far_positions, |_, &(j, far_count)| {
                SkipPointers::try_build_with_cap(
                    n,
                    &kernels,
                    &unary_lists[j],
                    far_count,
                    cap,
                    tracker,
                )
            })?;
            for ((j, _), sp) in far_positions.into_iter().zip(built) {
                engine.skips[j] = Some(sp);
            }
            engine.timings.skip_ms = t_skip.elapsed().as_millis() as u64;
            engine.kernels = Some(kernels);
        }
        Ok(engine)
    }

    /// Pseudo-linear counting (see `engine::counting`).
    fn fast_count(&self, g: &ColoredGraph) -> Option<u64> {
        crate::engine::counting::fast_count(
            g,
            &self.fq,
            self.active,
            &self.unary_lists,
            &self.unary_bits,
        )
    }
}

// ---------------------------------------------------------------------
// Persistence (DESIGN.md §9): crash-safe save/load of a prepared index.
// ---------------------------------------------------------------------

/// Section tags of the on-disk index container.
const SEC_GRAPH: [u8; 4] = *b"GRPH";
const SEC_QUERY: [u8; 4] = *b"QURY";
const SEC_META: [u8; 4] = *b"META";
const SEC_ENGINE: [u8; 4] = *b"ENGN";

/// Recursion cap for the `BadDisjunct` chain of a stored reason.
const MAX_REASON_DEPTH: u32 = 32;

fn write_phase(w: &mut Writer, p: Phase) {
    w.u8(match p {
        Phase::SentenceCheck => 0,
        Phase::UnaryEvaluation => 1,
        Phase::DistOracle => 2,
        Phase::CoverConstruction => 3,
        Phase::KernelConstruction => 4,
        Phase::SkipClosure => 5,
        Phase::TrieBuild => 6,
        Phase::NaiveMaterialize => 7,
        Phase::Admission => 8,
        Phase::Counting => 9,
    });
}

fn read_phase(r: &mut Reader<'_>) -> Result<Phase, PersistError> {
    Ok(match r.u8("budget phase")? {
        0 => Phase::SentenceCheck,
        1 => Phase::UnaryEvaluation,
        2 => Phase::DistOracle,
        3 => Phase::CoverConstruction,
        4 => Phase::KernelConstruction,
        5 => Phase::SkipClosure,
        6 => Phase::TrieBuild,
        7 => Phase::NaiveMaterialize,
        8 => Phase::Admission,
        9 => Phase::Counting,
        _ => return Err(malformed("invalid budget phase")),
    })
}

fn write_resource(w: &mut Writer, res: Resource) {
    w.u8(match res {
        Resource::WallClockMs => 0,
        Resource::NodeExpansions => 1,
        Resource::MemoryBytes => 2,
    });
}

fn read_resource(r: &mut Reader<'_>) -> Result<Resource, PersistError> {
    Ok(match r.u8("budget resource")? {
        0 => Resource::WallClockMs,
        1 => Resource::NodeExpansions,
        2 => Resource::MemoryBytes,
        _ => return Err(malformed("invalid budget resource")),
    })
}

fn write_unsupported(w: &mut Writer, u: &UnsupportedReason) {
    match u {
        UnsupportedReason::WideConjunct(s) => {
            w.u8(0);
            w.str(s);
        }
        UnsupportedReason::ComplexBinary(s) => {
            w.u8(1);
            w.str(s);
        }
        UnsupportedReason::BadDisjunct(inner) => {
            w.u8(2);
            write_unsupported(w, inner);
        }
        UnsupportedReason::RelationalAtom(s) => {
            w.u8(3);
            w.str(s);
        }
    }
}

fn read_unsupported(r: &mut Reader<'_>, depth: u32) -> Result<UnsupportedReason, PersistError> {
    if depth > MAX_REASON_DEPTH {
        return Err(malformed("unsupported-reason nesting too deep"));
    }
    Ok(match r.u8("unsupported-reason tag")? {
        0 => UnsupportedReason::WideConjunct(r.str("wide-conjunct detail")?),
        1 => UnsupportedReason::ComplexBinary(r.str("complex-binary detail")?),
        2 => UnsupportedReason::BadDisjunct(Box::new(read_unsupported(r, depth + 1)?)),
        3 => UnsupportedReason::RelationalAtom(r.str("relational-atom detail")?),
        _ => return Err(malformed("invalid unsupported-reason tag")),
    })
}

fn write_degradation_opt(w: &mut Writer, reason: &Option<DegradationReason>) {
    match reason {
        None => w.u8(0),
        Some(DegradationReason::UnsupportedFragment(u)) => {
            w.u8(1);
            write_unsupported(w, u);
        }
        Some(DegradationReason::BudgetExceeded(b)) => {
            w.u8(2);
            write_phase(w, b.phase);
            write_resource(w, b.resource);
            w.u64(b.spent);
            w.u64(b.cap);
        }
    }
}

fn read_degradation_opt(r: &mut Reader<'_>) -> Result<Option<DegradationReason>, PersistError> {
    Ok(match r.u8("degradation-reason tag")? {
        0 => None,
        1 => Some(DegradationReason::UnsupportedFragment(read_unsupported(
            r, 0,
        )?)),
        2 => Some(DegradationReason::BudgetExceeded(BudgetExceeded {
            phase: read_phase(r)?,
            resource: read_resource(r)?,
            spent: r.u64("budget spent")?,
            cap: r.u64("budget cap")?,
        })),
        _ => return Err(malformed("invalid degradation-reason tag")),
    })
}

impl BranchEngine {
    /// Append the branch's binary encoding to `w`. Oracles are written in
    /// increasing radius order and the skip tables sort their entries, so
    /// the encoding is a pure function of the index value (load → save is
    /// bit-identical).
    fn write_into(&self, w: &mut Writer) {
        w.bool(self.active);
        w.seq_len(self.oracles.len());
        for (d, oracle) in &self.oracles {
            w.u32(*d);
            oracle.write_into(w);
        }
        match &self.cover {
            None => w.u8(0),
            Some(c) => {
                w.u8(1);
                c.write_into(w);
            }
        }
        match &self.kernels {
            None => w.u8(0),
            Some(k) => {
                w.u8(1);
                k.write_into(w);
            }
        }
        for list in &self.unary_lists {
            w.u32_slab(list);
        }
        for sp in &self.skips {
            match sp {
                None => w.u8(0),
                Some(sp) => {
                    w.u8(1);
                    sp.write_into(w);
                }
            }
        }
        w.bool(self.extend_check);
    }

    /// Decode one branch against its recompiled fragment `fq`. Re-checks
    /// every invariant the answering hot path dereferences without a
    /// guard — a hostile payload behind intact CRCs must surface as a
    /// typed error here, never as a panic inside `next_value`.
    fn read_from(
        r: &mut Reader<'_>,
        n: usize,
        fq: FragmentQuery,
    ) -> Result<BranchEngine, PersistError> {
        let active = r.bool("branch active flag")?;
        let num_oracles = r.seq_len(5, "branch oracle count")?;
        let mut oracles: Vec<(u32, DistOracle)> = Vec::new();
        let mut prev: Option<u32> = None;
        for _ in 0..num_oracles {
            let d = r.u32("oracle radius key")?;
            if prev.is_some_and(|p| p >= d) {
                return Err(malformed("oracle radii not strictly increasing"));
            }
            prev = Some(d);
            let oracle = DistOracle::read_from(r, n)?;
            if oracle.radius() != d {
                return Err(malformed("oracle radius does not match its key"));
            }
            oracles.push((d, oracle));
        }
        let cover = match r.u8("cover presence tag")? {
            0 => None,
            1 => {
                let c = Cover::read_from(r)?;
                if c.n() != n {
                    return Err(malformed("cover vertex count does not match graph"));
                }
                Some(c)
            }
            _ => return Err(malformed("invalid cover presence tag")),
        };
        let kernels = match r.u8("kernel presence tag")? {
            0 => None,
            1 => {
                let Some(c) = &cover else {
                    return Err(malformed("kernels present without a cover"));
                };
                let k = KernelIndex::read_from(r, n)?;
                if k.num_bags() != c.num_bags() {
                    return Err(malformed("kernel count does not match cover bags"));
                }
                Some(k)
            }
            _ => return Err(malformed("invalid kernel presence tag")),
        };
        let mut unary_lists = Vec::with_capacity(fq.k);
        let mut unary_bits = Vec::with_capacity(fq.k);
        for _ in 0..fq.k {
            let list = r.u32_slab_sorted(n as u32, "unary list")?;
            let mut bits = vec![false; n];
            // A lazy load skips the slab's range sweep, so the bitset
            // write itself is the range check.
            for &v in list.iter() {
                *bits
                    .get_mut(v as usize)
                    .ok_or_else(|| malformed("unary list member out of range"))? = true;
            }
            unary_lists.push(list);
            unary_bits.push(bits);
        }
        let mut skips = Vec::with_capacity(fq.k);
        for list in &unary_lists {
            skips.push(match r.u8("skip presence tag")? {
                0 => None,
                1 => {
                    let Some(k) = &kernels else {
                        return Err(malformed("skip pointers present without kernels"));
                    };
                    Some(SkipPointers::read_from(r, n, list, k)?)
                }
                _ => return Err(malformed("invalid skip presence tag")),
            });
        }
        let extend_check = r.bool("extendability flag")?;
        if active {
            for c in &fq.binary {
                if let BinKind::Le(d) | BinKind::Gt(d) = c.kind {
                    if oracles.binary_search_by_key(&d, |(r, _)| *r).is_err() {
                        return Err(malformed("missing distance oracle for constraint radius"));
                    }
                }
            }
            let needs_cover = fq
                .binary
                .iter()
                .any(|c| matches!(c.kind, BinKind::Le(_) | BinKind::Gt(_)));
            if needs_cover && cover.is_none() {
                return Err(malformed("missing cover for distance constraints"));
            }
            if fq.binary.iter().any(|c| c.kind.excluding()) && kernels.is_none() {
                return Err(malformed("missing kernels for far constraints"));
            }
            for (j, sp) in skips.iter().enumerate() {
                if fq.constraints_on(j).any(|c| c.kind.excluding()) && sp.is_none() {
                    return Err(malformed("missing skip pointers for a far position"));
                }
            }
        }
        Ok(BranchEngine {
            fq,
            active,
            oracles,
            cover,
            kernels,
            unary_lists,
            unary_bits,
            skips,
            extend_check,
            timings: PhaseTimings::default(),
        })
    }
}

/// A deserialized index: the prepared query re-attached to the query AST
/// and source text it was saved with. The serving layer needs all three —
/// the engine to answer, the AST for arity/metadata, and the source text
/// for display and for a cold re-prepare fallback.
pub struct LoadedIndex {
    pub prepared: SharedPreparedQuery,
    pub query: Query,
    pub query_src: String,
    /// The engine-section checksum postponed by a `--verify lazy` load;
    /// `None` after a full-verify load. The caller decides when to pay for
    /// it — the CLI after the first probe, a server before its first
    /// request.
    pub deferred: Option<DeferredVerify>,
    /// Borrowed-vs-decoded byte accounting for this load.
    pub stats: LoadStats,
}

/// How the bytes of a loaded container were materialized: borrowed in
/// place from the file image (mapping or heap copy) versus decoded into
/// owned memory. `bytes_decoded + bytes_mapped == bytes_total` (the summed
/// section payload sizes).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LoadStats {
    pub bytes_total: usize,
    pub bytes_mapped: usize,
    pub bytes_decoded: usize,
}

/// Knobs for [`SharedPreparedQuery::load_index_mmap`].
#[derive(Clone, Copy, Debug, Default)]
pub struct MmapLoadOpts {
    /// CRC policy: [`VerifyPolicy::Full`] checksums and structurally
    /// validates everything before returning; [`VerifyPolicy::Lazy`]
    /// defers the engine-section CRC into [`LoadedIndex::deferred`].
    pub verify: VerifyPolicy,
    /// Eagerly fault in every page (sequential read) instead of paying
    /// page faults on first probe.
    pub prewarm: bool,
}

impl<G: Borrow<ColoredGraph>> PreparedQuery<G> {
    /// Serialize the index (graph + engine + provenance metadata) into the
    /// versioned, checksummed container of DESIGN.md §9. `query` must be
    /// the query this index was prepared for — its compiled branches are
    /// cross-checked against the engine before any byte is written.
    pub fn save_index_bytes(
        &self,
        query: &Query,
        query_src: &str,
    ) -> Result<Vec<u8>, PersistError> {
        let g = self.g.borrow();
        if !self.prepared_for(query) {
            return Err(malformed("query does not match the prepared index"));
        }
        let mut cw = ContainerWriter::new();

        let mut w = Writer::new();
        g.write_into(&mut w);
        cw.section(SEC_GRAPH, w.into_bytes());

        let mut w = Writer::new();
        nd_logic::codec::write_query(query, &mut w);
        w.str(query_src);
        cw.section(SEC_QUERY, w.into_bytes());

        let mut w = Writer::new();
        w.u64(self.arity as u64);
        w.u8(match self.rung {
            DegradationRung::Indexed => 0,
            // Tag 1 stays unused: it named the retired coarsened-ε rung,
            // and loads refuse it.
            DegradationRung::NaiveFallback => 2,
        });
        write_degradation_opt(&mut w, &self.degradation_reason);
        w.u64(self.budget_nodes_spent);
        // No wall-clock field is persisted: the saved bytes must be a pure
        // function of the index's logical state, so two applies of the
        // same log re-save bit-identically regardless of how many
        // milliseconds each step happened to take. A loaded index reports
        // 0 for every timing.
        w.u64(self.threads_used as u64);
        // Snapshot lineage: which update epoch this index is at and the
        // chained digest of the mutation logs that produced it.
        w.u64(self.lineage.epoch);
        w.u64(self.lineage.log_digest);
        cw.section(SEC_META, w.into_bytes());

        let mut w = Writer::new();
        match &self.engine {
            EngineImpl::Indexed(bs) => {
                w.u8(0);
                w.seq_len(bs.len());
                for b in bs {
                    b.write_into(&mut w);
                }
            }
            EngineImpl::Naive(nv) => {
                w.u8(1);
                nv.write_into(&mut w);
            }
        }
        cw.section(SEC_ENGINE, w.into_bytes());

        Ok(cw.finish())
    }

    /// [`PreparedQuery::save_index_bytes`] plus the crash-safe file
    /// protocol: temp file, fsync, atomic rename.
    pub fn save_index(
        &self,
        query: &Query,
        query_src: &str,
        path: &std::path::Path,
    ) -> Result<(), PersistError> {
        let bytes = self.save_index_bytes(query, query_src)?;
        nd_persist::write_file_atomic(path, &bytes)
    }
}

/// The four sections of an index container, located but not yet
/// checksummed.
struct IndexFrames<'a> {
    graph: SectionFrame<'a>,
    query: SectionFrame<'a>,
    meta: SectionFrame<'a>,
    engine: SectionFrame<'a>,
}

impl<'a> IndexFrames<'a> {
    /// Parse the container framing (magic, version, section lengths) and
    /// find each section by tag.
    fn locate(data: &'a [u8]) -> Result<IndexFrames<'a>, PersistError> {
        let frames = parse_container_frames(data)?.frames;
        let find = |tag: [u8; 4]| {
            frames
                .iter()
                .find(|f| f.tag == tag)
                .copied()
                .ok_or_else(|| {
                    malformed(format!("missing section {}", String::from_utf8_lossy(&tag)))
                })
        };
        Ok(IndexFrames {
            graph: find(SEC_GRAPH)?,
            query: find(SEC_QUERY)?,
            meta: find(SEC_META)?,
            engine: find(SEC_ENGINE)?,
        })
    }

    /// Checksum every section but the engine. The engine decode reads the
    /// graph, so it must be intact before any decode starts.
    fn verify_small(&self) -> Result<(), PersistError> {
        self.graph.verify()?;
        self.query.verify()?;
        self.meta.verify()
    }
}

impl SharedPreparedQuery {
    /// Decode an index container held in memory: the bytes are copied
    /// into a 16-byte-aligned heap buffer and decoded exactly like a
    /// mapped file under [`VerifyPolicy::Full`] — the bulk arrays borrow
    /// from that buffer. Every section is CRC-checked and every structural
    /// invariant of the engine re-validated, so any corruption —
    /// truncation, bit flips, or a forged payload behind valid CRCs —
    /// yields a typed error, never a panic or an engine that panics later.
    pub fn load_index_bytes(bytes: &[u8]) -> Result<LoadedIndex, PersistError> {
        Self::load_from(
            Arc::new(MmapFile::from_bytes(bytes)),
            &MmapLoadOpts::default(),
        )
    }

    /// Load an index file written by [`PreparedQuery::save_index`] by
    /// mmapping its container and serving the bulk arrays (graph CSR,
    /// stores, skip tables, ball grids, unary lists) straight out of the
    /// mapped pages. Small or variable sections (AST, metadata, cover
    /// structure) still decode owned. The mapping stays alive for as long
    /// as any decoded structure borrows from it (`Arc`-pinned per slab). A
    /// mapped index is never written to: an [`PreparedQuery::apply`] reads
    /// its graph and prepares a new, owned index.
    ///
    /// SIGBUS safety: every section length is checked against the mapping
    /// length up front by `parse_container_frames`, and saves go through
    /// the atomic temp-file + rename protocol — a mapped inode is never
    /// truncated in place, so no probe can fault past end-of-file.
    pub fn load_index_mmap(
        path: &std::path::Path,
        opts: &MmapLoadOpts,
    ) -> Result<LoadedIndex, PersistError> {
        Self::load_from(Arc::new(MmapFile::map(path)?), opts)
    }

    /// The one load: locate the frames, checksum the small sections, then
    /// checksum the engine now ([`VerifyPolicy::Full`]) or defer it
    /// ([`VerifyPolicy::Lazy`]) and decode with slabs borrowing from `file`.
    fn load_from(file: Arc<MmapFile>, opts: &MmapLoadOpts) -> Result<LoadedIndex, PersistError> {
        let frames = IndexFrames::locate(file.as_slice())?;
        file.advise_willneed();
        if opts.prewarm {
            file.prewarm();
        }
        frames.verify_small()?;
        // Under lazy verification the engine section — the bulk of the
        // file — skips its up-front CRC pass (that pass would fault in
        // every page); the caller settles it through `deferred`.
        let deferred = if opts.verify == VerifyPolicy::Lazy {
            Some(frames.engine.defer(&file))
        } else {
            frames.engine.verify()?;
            None
        };
        let ctx = SlabCtx {
            file: Arc::clone(&file),
            validate: opts.verify == VerifyPolicy::Full,
        };
        let mut loaded = Self::load_index_sections(&frames, &ctx)?;
        loaded.deferred = deferred;
        Ok(loaded)
    }

    /// Decode the four sections. The caller has verified the small ones
    /// ([`IndexFrames::verify_small`]) and owns the engine CRC (verified
    /// or deferred).
    fn load_index_sections(
        frames: &IndexFrames<'_>,
        slab: &SlabCtx,
    ) -> Result<LoadedIndex, PersistError> {
        let mut stats = LoadStats::default();

        let mut r = Reader::with_slab(frames.graph.payload, slab.clone());
        let g = ColoredGraph::read_from(&mut r)?;
        stats.bytes_total += frames.graph.payload.len();
        stats.bytes_mapped += r.mapped_bytes();
        r.finish()?;

        let mut r = Reader::new(frames.query.payload);
        let query = nd_logic::codec::read_query(&mut r)?;
        let query_src = r.str("query source text")?;
        stats.bytes_total += frames.query.payload.len();
        r.finish()?;

        let mut r = Reader::new(frames.meta.payload);
        let arity = r.u64("index arity")? as usize;
        if arity != query.arity() {
            return Err(malformed("stored arity does not match the query"));
        }
        let rung = match r.u8("degradation rung")? {
            0 => DegradationRung::Indexed,
            2 => DegradationRung::NaiveFallback,
            _ => return Err(malformed("invalid degradation rung")),
        };
        let degradation_reason = read_degradation_opt(&mut r)?;
        let budget_nodes_spent = r.u64("budget nodes spent")?;
        let threads_used = r.u64("threads used")? as usize;
        let lineage = UpdateLineage {
            epoch: r.u64("update epoch")?,
            log_digest: r.u64("lineage log digest")?,
            update_ms: 0,
        };
        stats.bytes_total += frames.meta.payload.len();
        r.finish()?;

        let mut r = Reader::with_slab(frames.engine.payload, slab.clone());
        let engine = match r.u8("engine tag")? {
            0 => {
                if rung == DegradationRung::NaiveFallback {
                    return Err(malformed("naive rung with an indexed engine"));
                }
                let branches = compile(&query)
                    .map_err(|_| malformed("stored query does not compile to branches"))?;
                // The smallest branch is a Boolean one: four flag/tag
                // bytes plus an empty oracle list.
                let count = r.seq_len(12, "branch count")?;
                if count != branches.len() {
                    return Err(malformed("stored branch count does not match the query"));
                }
                let mut bs = Vec::with_capacity(count);
                for fq in branches {
                    bs.push(BranchEngine::read_from(&mut r, g.n(), fq)?);
                }
                EngineImpl::Indexed(bs)
            }
            1 => {
                if rung != DegradationRung::NaiveFallback {
                    return Err(malformed("naive engine without the naive rung"));
                }
                EngineImpl::Naive(NaiveEngine::read_from(&mut r, arity, g.n())?)
            }
            _ => return Err(malformed("invalid engine tag")),
        };
        stats.bytes_total += frames.engine.payload.len();
        stats.bytes_mapped += r.mapped_bytes();
        r.finish()?;
        stats.bytes_decoded = stats.bytes_total - stats.bytes_mapped;

        Ok(LoadedIndex {
            prepared: PreparedQuery {
                g: Arc::new(g),
                arity,
                engine,
                rung,
                degradation_reason,
                budget_nodes_spent,
                budget_ms_spent: 0,
                threads_used,
                lineage,
            },
            query,
            query_src,
            deferred: None,
            stats,
        })
    }

    /// The shared graph handle, for runtimes that prepare further queries
    /// over the same graph (e.g. a serving session seeded from a loaded
    /// index).
    pub fn graph_shared(&self) -> Arc<ColoredGraph> {
        Arc::clone(&self.g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nd_graph::generators;
    use nd_logic::eval::materialize;
    use nd_logic::parse_query;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// Full-contract check: enumeration matches naive materialization,
    /// test matches membership, next_solution matches partition points on
    /// random probes.
    fn check_full(g: &ColoredGraph, src: &str, opts: &PrepareOpts, seed: u64) {
        let q = parse_query(src).unwrap();
        let pq = PreparedQuery::prepare(g, &q, opts).unwrap();
        let want = materialize(g, &q);
        let got: Vec<_> = pq.enumerate().collect();
        assert_eq!(got, want, "enumeration mismatch for {src}");

        let mut rng = StdRng::seed_from_u64(seed);
        let k = q.arity();
        for _ in 0..40 {
            let probe: Vec<Vertex> = (0..k)
                .map(|_| rng.random_range(0..g.n() as Vertex))
                .collect();
            let member = want.binary_search(&probe).is_ok();
            assert_eq!(pq.test(&probe), member, "test({probe:?}) for {src}");
            let idx = want.partition_point(|s| s < &probe);
            assert_eq!(
                pq.next_solution(&probe),
                want.get(idx).cloned(),
                "next_solution({probe:?}) for {src}"
            );
        }
    }

    fn colored(g: ColoredGraph, seed: u64) -> ColoredGraph {
        let g = generators::with_random_colors(g, 2, 0.4, seed);
        // Name the colors Blue/Red for query readability.
        let b = g.color_members(nd_graph::ColorId(0)).to_vec();
        let r = g.color_members(nd_graph::ColorId(1)).to_vec();
        let mut fresh = generators::with_random_colors(
            {
                let mut only_edges = nd_graph::GraphBuilder::new(g.n());
                for (u, v) in g.edges() {
                    only_edges.add_edge(u, v);
                }
                only_edges.build()
            },
            0,
            0.0,
            0,
        );
        fresh.add_color(b, Some("Blue".into()));
        fresh.add_color(r, Some("Red".into()));
        fresh
    }

    fn small_opts() -> PrepareOpts {
        PrepareOpts {
            epsilon: 0.5,
            dist: DistOracleOpts {
                max_rounds: 8,
                naive_threshold: 6,
                // Keeps the splitter recursion under test: on these small
                // graphs a 20·n budget would fit every flat ball table.
                budget_factor: 1,
                ..DistOracleOpts::default()
            },
            allow_fallback: true,
            extendability_check: true,
            budget: Budget::UNLIMITED,
            threads: 1,
        }
    }

    const QUERIES: &[&str] = &[
        // Paper Example 1-A.
        "dist(x,y) <= 2",
        // Paper Example 2.
        "dist(x,y) > 2 && Blue(y)",
        // Paper's ternary example.
        "dist(x,z) > 2 && dist(y,z) > 2 && Blue(z)",
        // Mixed close/far.
        "dist(x,y) <= 2 && dist(y,z) > 3 && Red(x)",
        // Edges, inequality, filters.
        "E(x,y) && x != y && Blue(x)",
        "Blue(x) && !E(x,y) && Red(y)",
        // Guarded unary subformulas (parenthesized: a bare quantifier in
        // operand position scopes over the whole rest of the conjunction).
        "(exists u. (E(x,u) && Blue(u))) && dist(x,y) > 2",
        // Union.
        "E(x,y) || (dist(x,y) > 3 && Blue(y))",
        // Equality pin.
        "dist(x,y) <= 1 && x = y",
        // Pure unary product.
        "Blue(x) && Red(y)",
        // Mixed radii far constraints.
        "dist(x,y) > 1 && dist(x,z) > 3 && Red(z)",
    ];

    #[test]
    fn matches_naive_on_random_sparse_graphs() {
        for (gi, base) in [
            generators::random_tree(28, 3),
            generators::grid(5, 5),
            generators::bounded_degree(30, 3, 7),
            generators::cycle(26),
        ]
        .into_iter()
        .enumerate()
        {
            let g = colored(base, gi as u64 + 10);
            for (qi, src) in QUERIES.iter().enumerate() {
                check_full(&g, src, &small_opts(), (gi * 100 + qi) as u64);
            }
        }
    }

    #[test]
    fn more_far_anchor_bags_than_a_stack_set_holds() {
        // Five far constraints into the last position. Anchors in the
        // five components of this graph sit in five distinct bags, one
        // more than the stack bag set holds (and than a skip table is
        // built for): `next_value` keeps four and the fifth constraint
        // only filters candidates.
        let mut b = nd_graph::GraphBuilder::new(7);
        b.add_edge(0, 1);
        b.add_edge(2, 3);
        let g = b.build();
        let src = "q(a,b,c,d,e,f) := dist(a,f) > 1 && dist(b,f) > 1 && dist(c,f) > 1 \
                   && dist(d,f) > 1 && dist(e,f) > 1";
        let q = parse_query(src).unwrap();
        let pq = PreparedQuery::prepare(&g, &q, &PrepareOpts::default()).unwrap();
        assert_eq!(pq.engine_kind(), EngineKind::Indexed { branches: 1 });
        check_full(&g, src, &PrepareOpts::default(), 3);
    }

    #[test]
    fn all_fragment_queries_use_indexed_engine() {
        let g = colored(generators::grid(4, 4), 5);
        for src in QUERIES {
            let q = parse_query(src).unwrap();
            let pq = PreparedQuery::prepare(&g, &q, &small_opts()).unwrap();
            assert!(
                matches!(pq.engine_kind(), EngineKind::Indexed { .. }),
                "{src} fell back to naive"
            );
        }
    }

    #[test]
    fn fallback_engine_handles_general_fo() {
        let g = colored(generators::cycle(12), 6);
        // A genuinely non-fragment query: common neighbor.
        let src = "exists u. (E(x,u) && E(u,y)) && x != y";
        let q = parse_query(src).unwrap();
        let pq = PreparedQuery::prepare(&g, &q, &small_opts()).unwrap();
        assert_eq!(pq.engine_kind(), EngineKind::Naive);
        let want = materialize(&g, &q);
        let got: Vec<_> = pq.enumerate().collect();
        assert_eq!(got, want);

        let mut strict = small_opts();
        strict.allow_fallback = false;
        assert!(PreparedQuery::prepare(&g, &q, &strict).is_err());
    }

    #[test]
    fn boolean_queries() {
        let g = colored(generators::path(10), 1);
        let yes = parse_query("exists x. Blue(x)").unwrap();
        let pq = PreparedQuery::prepare(&g, &yes, &small_opts()).unwrap();
        assert_eq!(
            pq.enumerate().collect::<Vec<_>>(),
            vec![Vec::<Vertex>::new()]
        );
        assert!(pq.test(&[]));

        let no = parse_query("exists x. (Blue(x) && Red(x) && !Blue(x))").unwrap();
        let pq = PreparedQuery::prepare(&g, &no, &small_opts()).unwrap();
        assert_eq!(pq.enumerate().count(), 0);
        assert!(!pq.test(&[]));
    }

    #[test]
    fn unary_queries() {
        let g = colored(generators::random_tree(40, 2), 3);
        check_full(&g, "Blue(x)", &small_opts(), 1);
        check_full(&g, "exists u. (dist(x,u) <= 2 && Red(u))", &small_opts(), 2);
    }

    #[test]
    fn empty_graph_and_no_solutions() {
        let g = generators::path(0);
        let q = parse_query("E(x,y)").unwrap();
        let pq = PreparedQuery::prepare(&g, &q, &small_opts()).unwrap();
        assert_eq!(pq.enumerate().count(), 0);

        let mut g1 = generators::path(5);
        g1.add_color(vec![], Some("Blue".into()));
        let q = parse_query("Blue(x) && E(x,y)").unwrap();
        let pq = PreparedQuery::prepare(&g1, &q, &small_opts()).unwrap();
        assert_eq!(pq.enumerate().count(), 0);
        assert_eq!(pq.next_solution(&[0, 0]), None);
    }

    /// A count that must enumerate stops typed at a node cap, one node per
    /// answer, and answers like `count` under a cap it fits.
    #[test]
    fn budgeted_count_fails_typed_past_its_cap() {
        let q = parse_query("dist(x,z) > 2 && dist(y,z) > 2 && dist(x,y) <= 3 && Blue(z)").unwrap();
        let g = colored(generators::grid(60, 60), 3);
        let pq = PreparedQuery::prepare(&g, &q, &PrepareOpts::default()).unwrap();
        assert_eq!(pq.engine_kind(), EngineKind::Indexed { branches: 1 });
        let cap = 10_000;
        let e = pq
            .try_count(&Budget::UNLIMITED.with_node_expansions(cap))
            .unwrap_err();
        assert_eq!(
            (e.phase, e.resource, e.spent, e.cap),
            (Phase::Counting, Resource::NodeExpansions, cap + 1, cap)
        );

        let g = colored(generators::grid(8, 8), 3);
        let pq = PreparedQuery::prepare(&g, &q, &PrepareOpts::default()).unwrap();
        let count = pq.count();
        assert!(count > 0);
        let capped = |cap: usize| pq.try_count(&Budget::UNLIMITED.with_node_expansions(cap as u64));
        assert_eq!(capped(count), Ok(count));
        assert!(capped(count - 1).is_err());
        assert_eq!(pq.try_count(&Budget::UNLIMITED), Ok(count));
    }

    /// The oracle picks a flat ball table when `Σ_v |N_r(v)|` fits its
    /// budget, and the splitter recursion otherwise; the stats say which.
    #[test]
    fn oracle_flat_records_the_oracle_choice() {
        let g = colored(generators::grid(30, 30), 4);
        let q = parse_query("dist(x,y) > 2 && Blue(y)").unwrap();
        for (opts, flat) in [(PrepareOpts::default(), 1), (small_opts(), 0)] {
            let pq = PreparedQuery::prepare(&g, &q, &opts).unwrap();
            let stats = pq.stats();
            assert_eq!(stats.oracles, 1);
            assert_eq!(stats.oracle_flat, flat);
            assert_eq!(stats.structural().oracle_flat, flat);
            assert!(stats.to_json().contains(&format!("\"oracle_flat\":{flat}")));
            if flat == 1 {
                assert_eq!((stats.oracle_depth, stats.oracle_vertices), (0, g.n()));
            }
        }
    }

    #[test]
    fn enumeration_is_strictly_increasing() {
        let g = colored(generators::grid(6, 6), 9);
        let q = parse_query("dist(x,y) > 2 && Blue(y)").unwrap();
        let pq = PreparedQuery::prepare(&g, &q, &small_opts()).unwrap();
        let sols: Vec<_> = pq.enumerate().collect();
        for w in sols.windows(2) {
            assert!(w[0] < w[1], "not strictly increasing: {w:?}");
        }
    }

    #[test]
    fn parallel_prepare_is_identical_to_sequential() {
        // The prepared index is the same value for every thread count:
        // equal structural stats, equal enumeration, and the same saved
        // bytes. Random trees over three seeds, a grid, and a
        // bounded-degree-4 expander (where the skip closure dominates
        // prepare).
        let mut inputs: Vec<(String, ColoredGraph)> = [11u64, 22, 33]
            .into_iter()
            .map(|seed| {
                let g = colored(generators::random_tree(60, seed), seed);
                (format!("tree seed={seed}"), g)
            })
            .collect();
        inputs.push(("grid".into(), colored(generators::grid(6, 6), 44)));
        inputs.push((
            "bdeg4".into(),
            colored(generators::bounded_degree(40, 4, 55), 55),
        ));
        for (name, g) in &inputs {
            for src in [
                "dist(x,y) > 2 && Blue(y)",
                "dist(x,z) > 2 && dist(y,z) > 2 && Blue(z)",
                "E(x,y) || (dist(x,y) > 3 && Blue(y))",
            ] {
                let q = parse_query(src).unwrap();
                let seq = PreparedQuery::prepare(g, &q, &small_opts()).unwrap();
                let seq_sols: Vec<_> = seq.enumerate().collect();
                let seq_bytes = seq.save_index_bytes(&q, src).unwrap();
                for threads in [2usize, 4] {
                    let mut opts = small_opts();
                    opts.threads = threads;
                    let par = PreparedQuery::prepare(g, &q, &opts).unwrap();
                    assert_eq!(
                        seq.stats().structural(),
                        par.stats().structural(),
                        "stats diverged for {src} on {name} threads={threads}"
                    );
                    assert_eq!(par.stats().threads, threads);
                    let par_sols: Vec<_> = par.enumerate().collect();
                    assert_eq!(
                        seq_sols, par_sols,
                        "solutions diverged for {src} on {name} threads={threads}"
                    );
                    // Graph, query and engine sections are byte-identical.
                    // META differs in one word only: the thread count the
                    // index was built with, which it records (followed by
                    // the two lineage words).
                    let par_bytes = par.save_index_bytes(&q, src).unwrap();
                    for tag in [SEC_GRAPH, SEC_QUERY, SEC_ENGINE] {
                        assert!(
                            section(&seq_bytes, tag) == section(&par_bytes, tag),
                            "{src} on {name} threads={threads}: {} section differs",
                            String::from_utf8_lossy(&tag)
                        );
                    }
                    let (ms, mp) = (section(&seq_bytes, SEC_META), section(&par_bytes, SEC_META));
                    assert_eq!(ms.len(), mp.len());
                    let t = ms.len() - 24;
                    assert_eq!(ms[..t], mp[..t], "{src} on {name} threads={threads}");
                    assert_eq!(ms[t + 8..], mp[t + 8..], "{src} on {name}");
                    assert_eq!(mp[t..t + 8], (threads as u64).to_le_bytes());
                }
            }
        }
    }

    /// `s` with the six wall-clock fields zeroed: exactly the fields an
    /// index file does not persist.
    fn without_wall_clock(s: PrepareStats) -> PrepareStats {
        PrepareStats {
            budget_ms_spent: 0,
            cover_ms: 0,
            kernel_ms: 0,
            store_ms: 0,
            skip_ms: 0,
            update_ms: 0,
            ..s
        }
    }

    /// A loaded index reports 0 for every wall-clock field.
    fn assert_wall_clock_free(s: &PrepareStats) {
        assert_eq!(
            *s,
            without_wall_clock(s.clone()),
            "loaded index kept a timing"
        );
    }

    /// Tentpole roundtrip: save → load reproduces bit-identical probe
    /// behavior (enumeration, membership tests, successor probes) and a
    /// bit-identical re-save, across the indexed engine (all fragment
    /// query shapes), the naive fallback, and Boolean queries.
    #[test]
    fn index_save_load_roundtrip() {
        let g = colored(generators::grid(4, 4), 7);
        let extra = [
            // Naive fallback (outside the fragment).
            "exists u. (E(x,u) && E(u,y)) && x != y",
            // Boolean.
            "exists x. Blue(x)",
        ];
        for src in QUERIES.iter().chain(extra.iter()) {
            let q = parse_query(src).unwrap();
            let pq = PreparedQuery::prepare(&g, &q, &small_opts()).unwrap();
            let bytes = pq.save_index_bytes(&q, src).unwrap();
            let loaded = SharedPreparedQuery::load_index_bytes(&bytes)
                .unwrap_or_else(|e| panic!("load failed for {src}: {e}"));
            assert_eq!(loaded.query_src, *src);
            assert_eq!(loaded.query, q);
            assert_wall_clock_free(&loaded.prepared.stats());
            assert_eq!(
                without_wall_clock(loaded.prepared.stats()),
                without_wall_clock(pq.stats()),
                "{src}"
            );

            let want: Vec<_> = pq.enumerate().collect();
            let got: Vec<_> = loaded.prepared.enumerate().collect();
            assert_eq!(got, want, "enumeration diverged after load for {src}");
            let mut rng = StdRng::seed_from_u64(99);
            for _ in 0..25 {
                let probe: Vec<Vertex> = (0..q.arity())
                    .map(|_| rng.random_range(0..g.n() as Vertex))
                    .collect();
                assert_eq!(pq.test(&probe), loaded.prepared.test(&probe), "{src}");
                assert_eq!(
                    pq.next_solution(&probe),
                    loaded.prepared.next_solution(&probe),
                    "{src}"
                );
            }

            let again = loaded
                .prepared
                .save_index_bytes(&loaded.query, &loaded.query_src)
                .unwrap();
            assert_eq!(again, bytes, "re-save not bit-identical for {src}");
        }
    }

    /// Every unary-list slab of an indexed engine (none for the naive one).
    fn unary_slabs<G: Borrow<ColoredGraph>>(
        pq: &PreparedQuery<G>,
    ) -> impl Iterator<Item = &nd_persist::Slab<Vertex>> {
        let branches = match &pq.engine {
            EngineImpl::Indexed(bs) => &bs[..],
            EngineImpl::Naive(_) => &[],
        };
        branches.iter().flat_map(|b| b.unary_lists.iter())
    }

    fn mmap_tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("ndq-prepared-{}-{name}.ndqidx", std::process::id()))
    }

    /// Every load runs the one slab decode: the in-memory bytes load
    /// borrows its bulk arrays from a heap copy exactly as a full-verify
    /// file load borrows them from the mapping, so both report the same
    /// `LoadStats` and neither copies a slab. On a grid and on the dense
    /// contrast family (`gnm` with `m = n^1.5`), a cold prepare, the bytes
    /// load and the mapped loads under both verify policies enumerate the
    /// same answers and re-save the same bytes; lazy verification defers
    /// the engine CRC.
    #[test]
    fn index_mmap_load_matches_owned_and_maps_bulk() {
        let src = "dist(x,y) > 2 && Blue(y)";
        let q = parse_query(src).unwrap();
        for (name, g) in [
            ("grid", colored(generators::grid(6, 6), 11)),
            ("gnm1.5", colored(generators::gnm(64, 512, 17), 17)),
        ] {
            let pq = PreparedQuery::prepare(&g, &q, &small_opts()).unwrap();
            let want: Vec<_> = pq.enumerate().collect();
            assert!(!want.is_empty(), "no answers on {name}");
            let bytes = pq.save_index_bytes(&q, src).unwrap();
            let path = mmap_tmp(&format!("roundtrip-{name}"));
            pq.save_index(&q, src, &path).unwrap();

            let in_memory = SharedPreparedQuery::load_index_bytes(&bytes).expect("bytes load");
            let full = SharedPreparedQuery::load_index_mmap(&path, &MmapLoadOpts::default())
                .expect("mmap load (full verify)");
            assert!(full.deferred.is_none(), "full verify must not defer CRCs");
            assert!(in_memory.deferred.is_none(), "bytes load verifies in full");
            assert!(
                full.stats.bytes_mapped > 0,
                "bulk sections should be mapped on {name}"
            );
            assert_eq!(
                full.stats.bytes_mapped + full.stats.bytes_decoded,
                full.stats.bytes_total,
                "every payload byte is either mapped or decoded"
            );
            assert_eq!(
                in_memory.stats, full.stats,
                "bytes load and file load must decode alike on {name}"
            );
            for loaded in [&in_memory, &full] {
                assert!(
                    unary_slabs(&loaded.prepared).all(|s| s.is_empty() || s.is_mapped()),
                    "a load copied a unary slab on {name}"
                );
            }
            for probe in &want {
                assert!(full.prepared.test(probe));
            }

            let lazy = SharedPreparedQuery::load_index_mmap(
                &path,
                &MmapLoadOpts {
                    verify: VerifyPolicy::Lazy,
                    prewarm: true,
                },
            )
            .expect("mmap load (lazy verify)");
            let deferred = lazy
                .deferred
                .as_ref()
                .expect("lazy verify must defer the engine CRC");

            for (how, loaded) in [("bytes", &in_memory), ("full", &full), ("lazy", &lazy)] {
                let got: Vec<_> = loaded.prepared.enumerate().collect();
                assert_eq!(got, want, "{how}-loaded answers diverged on {name}");
                let again = loaded
                    .prepared
                    .save_index_bytes(&loaded.query, &loaded.query_src)
                    .unwrap();
                assert!(again == bytes, "{how}-loaded re-save differs on {name}");
            }
            deferred
                .verify()
                .expect("deferred CRC pass on a clean file");

            std::fs::remove_file(&path).ok();
        }

        // What a load still decodes into owned memory is the query, META
        // and the small per-structure scalars — not the covers and kernels,
        // which are borrowed slabs. This 48×48 grid far-query index
        // decodes about 11 KB; format v6, which rebuilt covers and kernels
        // at load, decoded about 150 KB of it.
        let g = colored(generators::grid(48, 48), 5);
        let pq = PreparedQuery::prepare(&g, &q, &PrepareOpts::default()).unwrap();
        let bytes = pq.save_index_bytes(&q, src).unwrap();
        let loaded = SharedPreparedQuery::load_index_bytes(&bytes).unwrap();
        assert!(
            loaded.stats.bytes_decoded < 64 << 10,
            "decoded {} of {} bytes",
            loaded.stats.bytes_decoded,
            loaded.stats.bytes_total
        );

        // The saved cover stores each bag member once (its `u32` row
        // entry) plus at most about one `u32` directory word.
        let EngineImpl::Indexed(branches) = &loaded.prepared.engine else {
            panic!("the far query prepares indexed");
        };
        let cover = branches[0]
            .cover
            .as_ref()
            .expect("far query builds a cover");
        let mut w = Writer::new();
        cover.write_into(&mut w);
        let (n, bags, members) = (cover.n(), cover.num_bags(), cover.total_bag_size());
        let bound = 4 * (n + 2 * bags + 2) + 8 * members;
        assert!(
            w.len() <= bound,
            "cover section {} bytes > {bound} (n={n}, bags={bags}, members={members})",
            w.len()
        );
    }

    /// A unary list is a slab whose range sweep a lazy load skips; a
    /// member past `n` (intact framing, engine CRC deferred) must fail the
    /// load typed instead of indexing the position's bitset out of bounds.
    #[test]
    fn lazy_load_rejects_an_out_of_range_unary_entry() {
        let g = colored(generators::grid(10, 10), 3);
        let src = "dist(x,y) <= 2 && Blue(y)";
        let q = parse_query(src).unwrap();
        let pq = PreparedQuery::prepare(&g, &q, &small_opts()).unwrap();
        let list: Vec<u8> = unary_slabs(&pq)
            .max_by_key(|s| s.len())
            .unwrap()
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        assert!(list.len() >= 4 * 8, "too few Blue vertices to locate");
        let mut bytes = pq.save_index_bytes(&q, src).unwrap();
        let frames = nd_persist::parse_container_frames(&bytes).unwrap();
        let engine = frames.frames.iter().find(|f| &f.tag == b"ENGN").unwrap();
        let base = engine.payload.as_ptr() as usize - bytes.as_ptr() as usize;
        let hits: Vec<usize> = engine
            .payload
            .windows(list.len())
            .enumerate()
            .filter(|(_, w)| *w == &list[..])
            .map(|(i, _)| base + i)
            .collect();
        assert_eq!(hits.len(), 1, "the unary list is not unique in ENGN");
        let last = hits[0] + list.len() - 4;
        bytes[last..last + 4].copy_from_slice(&0x7fff_ff00u32.to_le_bytes());
        let path = mmap_tmp("unary-range");
        nd_persist::write_file_atomic(&path, &bytes).unwrap();
        let lazy = MmapLoadOpts {
            verify: VerifyPolicy::Lazy,
            prewarm: false,
        };
        assert!(matches!(
            SharedPreparedQuery::load_index_mmap(&path, &lazy).err(),
            Some(PersistError::Malformed { .. })
        ));
        assert!(matches!(
            SharedPreparedQuery::load_index_mmap(&path, &MmapLoadOpts::default()).err(),
            Some(PersistError::ChecksumMismatch { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    /// A mutation applied to an mmap-backed index answers identically to
    /// the same mutation applied to the owned index it was saved from, the
    /// re-save of either is bit-identical, and the mapped snapshot it
    /// started from keeps serving unchanged.
    #[test]
    fn apply_on_mapped_base_matches_apply_on_owned_base() {
        let g = colored(generators::grid(5, 5), 13);
        let src = "dist(x,y) > 2 && Blue(y)";
        let q = parse_query(src).unwrap();
        let pq = PreparedQuery::prepare(&g, &q, &small_opts()).unwrap();
        let path = mmap_tmp("apply");
        pq.save_index(&q, src, &path).unwrap();

        let mapped = SharedPreparedQuery::load_index_mmap(&path, &MmapLoadOpts::default())
            .expect("mmap load");

        let log = nd_update::MutationLog::parse("add-edge 0 7\ncolor 3 Red").unwrap();
        let from_mapped = mapped.prepared.apply(&log, &q, &small_opts()).unwrap();
        let from_owned = pq.apply(&log, &q, &small_opts()).unwrap();
        let a: Vec<_> = from_mapped.enumerate().collect();
        let b: Vec<_> = from_owned.enumerate().collect();
        assert_eq!(a, b, "mapped-base apply diverged from owned-base apply");
        assert_eq!(
            from_mapped.save_index_bytes(&q, src).unwrap(),
            from_owned.save_index_bytes(&q, src).unwrap(),
            "re-save after mutation must be bit-identical regardless of backing"
        );

        // The pre-mutation mapped snapshot is untouched and still serves.
        let still: Vec<_> = mapped.prepared.enumerate().collect();
        assert_eq!(still, pq.enumerate().collect::<Vec<_>>());

        std::fs::remove_file(&path).ok();
    }

    /// Older containers (v2, unpadded v3.0, padded v3.1, v4 with its
    /// overlay/patch lists and repair lineage, v5 with per-ball oracle
    /// sets, v6 with per-bag cover and kernel lists, and v7 with a cover
    /// key store and skip rows outside the lists) are refused with
    /// the typed version error by the bytes load and by the file load
    /// under both verify policies — no decoder runs on their payloads.
    #[test]
    fn older_containers_are_rejected_by_every_load() {
        let g = colored(generators::grid(4, 4), 7);
        let src = "dist(x,y) > 2 && Blue(y)";
        let q = parse_query(src).unwrap();
        let pq = PreparedQuery::prepare(&g, &q, &small_opts()).unwrap();
        let bytes = pq.save_index_bytes(&q, src).unwrap();
        let path = mmap_tmp("older");
        for word in [2u32, 3, 3 | 1 << 16, 4, 5, 6, 7] {
            let mut old = bytes.clone();
            old[8..12].copy_from_slice(&word.to_le_bytes());
            let want = PersistError::UnsupportedVersion {
                found: word,
                supported: nd_persist::FORMAT_VERSION,
            };
            assert_eq!(
                SharedPreparedQuery::load_index_bytes(&old).err(),
                Some(want.clone())
            );
            nd_persist::write_file_atomic(&path, &old).unwrap();
            for verify in [VerifyPolicy::Full, VerifyPolicy::Lazy] {
                let opts = MmapLoadOpts {
                    verify,
                    prewarm: false,
                };
                assert_eq!(
                    SharedPreparedQuery::load_index_mmap(&path, &opts).err(),
                    Some(want.clone()),
                    "{verify:?}"
                );
            }
        }
        std::fs::remove_file(&path).ok();
    }

    /// META tag 1 was the retired coarsened-ε rung: even behind a valid
    /// section checksum, a load refuses it as malformed.
    #[test]
    fn retired_rung_tag_is_refused() {
        let g = colored(generators::grid(4, 4), 7);
        let src = "dist(x,y) > 2 && Blue(y)";
        let q = parse_query(src).unwrap();
        let pq = PreparedQuery::prepare(&g, &q, &small_opts()).unwrap();
        let mut bytes = pq.save_index_bytes(&q, src).unwrap();
        let frames = nd_persist::parse_container_frames(&bytes).unwrap();
        let meta = frames.frames.iter().find(|f| &f.tag == b"META").unwrap();
        let at = meta.payload.as_ptr() as usize - bytes.as_ptr() as usize;
        let len = meta.payload.len();
        // META opens with the arity (u64), then the rung tag.
        assert_eq!(bytes[at + 8], 0, "an indexed rung");
        bytes[at + 8] = 1;
        let crc = nd_persist::crc32_update(
            nd_persist::crc32_update(nd_persist::crc32(b"META"), &(len as u64).to_le_bytes()),
            &bytes[at..at + len],
        );
        bytes[at - 4..at].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            SharedPreparedQuery::load_index_bytes(&bytes).err(),
            Some(PersistError::Malformed { .. })
        ));
    }

    /// Chaos: every truncation point, every single-bit flip, and a stale
    /// format version must produce a typed error — never a panic, and
    /// never a silently-accepted corrupt index.
    #[test]
    fn index_load_rejects_corruption() {
        let g = colored(generators::grid(4, 4), 3);
        let src = "dist(x,y) > 2 && Blue(y)";
        let q = parse_query(src).unwrap();
        let pq = PreparedQuery::prepare(&g, &q, &small_opts()).unwrap();
        let bytes = pq.save_index_bytes(&q, src).unwrap();

        for cut in 0..bytes.len() {
            assert!(
                SharedPreparedQuery::load_index_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} accepted"
            );
        }
        for i in 0..bytes.len() {
            let mut c = bytes.clone();
            c[i] ^= 0x40;
            assert!(
                SharedPreparedQuery::load_index_bytes(&c).is_err(),
                "bit flip at {i} accepted"
            );
        }
        let mut stale = bytes.clone();
        stale[8] = stale[8].wrapping_add(1); // format version u32 at offset 8
        assert!(matches!(
            SharedPreparedQuery::load_index_bytes(&stale),
            Err(PersistError::UnsupportedVersion { .. })
        ));

        // Mismatched save inputs are rejected before writing.
        let other = parse_query("Blue(x)").unwrap();
        assert!(pq.save_index_bytes(&other, "Blue(x)").is_err());
    }

    #[test]
    fn degradation_reason_codec_roundtrip() {
        let reasons = [
            None,
            Some(DegradationReason::UnsupportedFragment(
                UnsupportedReason::BadDisjunct(Box::new(UnsupportedReason::WideConjunct(
                    "three-variable component".into(),
                ))),
            )),
            Some(DegradationReason::UnsupportedFragment(
                UnsupportedReason::RelationalAtom("R".into()),
            )),
            Some(DegradationReason::BudgetExceeded(BudgetExceeded {
                phase: Phase::CoverConstruction,
                resource: Resource::NodeExpansions,
                spent: 7,
                cap: 3,
            })),
            Some(DegradationReason::BudgetExceeded(BudgetExceeded {
                phase: Phase::Counting,
                resource: Resource::WallClockMs,
                spent: 12,
                cap: 10,
            })),
        ];
        for reason in &reasons {
            let mut w = Writer::new();
            write_degradation_opt(&mut w, reason);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            assert_eq!(&read_degradation_opt(&mut r).unwrap(), reason);
            r.finish().unwrap();
        }
        assert!(read_degradation_opt(&mut Reader::new(&[9])).is_err());
        assert!(read_degradation_opt(&mut Reader::new(&[2, 200])).is_err());
    }

    /// A random valid mutation log against `g`: edge flips, vertex
    /// appends, Removal-Lemma deletions, color flips on Blue/Red.
    fn random_log(g: &ColoredGraph, rng: &mut StdRng, ops: usize) -> nd_update::MutationLog {
        use nd_update::Mutation;
        let mut log = nd_update::MutationLog::new();
        let mut n = g.n() as Vertex;
        let mut removed: Vec<Vertex> = Vec::new();
        let edges: Vec<(Vertex, Vertex)> = g.edges().collect();
        for _ in 0..ops {
            let pick = |rng: &mut StdRng, n: Vertex, removed: &[Vertex]| -> Option<Vertex> {
                (0..20)
                    .map(|_| rng.random_range(0..n))
                    .find(|v| !removed.contains(v))
            };
            match rng.random_range(0..6u32) {
                0 => {
                    if let (Some(u), Some(v)) = (pick(rng, n, &removed), pick(rng, n, &removed)) {
                        if u != v {
                            log.push(Mutation::AddEdge(u, v));
                        }
                    }
                }
                1 => {
                    if !edges.is_empty() {
                        let (u, v) = edges[rng.random_range(0..edges.len())];
                        log.push(Mutation::RemoveEdge(u, v));
                    }
                }
                2 => {
                    log.push(Mutation::AddNode);
                    n += 1;
                }
                3 => {
                    if let Some(v) = pick(rng, n, &removed) {
                        log.push(Mutation::RemoveNode(v));
                        removed.push(v);
                    }
                }
                c => {
                    if let Some(v) = pick(rng, n, &removed) {
                        let name = if c == 4 { "Blue" } else { "Red" };
                        if rng.random_range(0..2u32) == 0 {
                            log.push(Mutation::Color(v, name.into()));
                        } else {
                            log.push(Mutation::Uncolor(v, name.into()));
                        }
                    }
                }
            }
        }
        log
    }

    /// Payload of the section tagged `tag` in an index container.
    fn section(bytes: &[u8], tag: [u8; 4]) -> Vec<u8> {
        let frames = parse_container_frames(bytes).unwrap().frames;
        frames
            .iter()
            .find(|f| f.tag == tag)
            .unwrap()
            .payload
            .to_vec()
    }

    /// An applied epoch *is* a fresh prepare of the mutated graph: same
    /// answers (enumeration, count, membership, successor probes), same
    /// structural stats, and byte-identical graph, query and engine
    /// sections on save — only the META lineage words (epoch, digest)
    /// differ. Across graph families, every query shape plus a naive-rung
    /// query and a sentence that random color flips can switch on or off,
    /// and random mutation logs, including chained applies.
    #[test]
    fn apply_matches_fresh_prepare_over_random_logs() {
        let extra = [
            "exists u. (E(x,u) && E(u,y)) && x != y",
            "(exists u. (Blue(u) && Red(u))) && E(x,y)",
        ];
        for (gi, base) in [
            generators::random_tree(30, 3),
            generators::grid(5, 5),
            generators::bounded_degree(28, 3, 7),
        ]
        .into_iter()
        .enumerate()
        {
            let g = colored(base, gi as u64 + 40);
            for (qi, src) in QUERIES.iter().chain(extra.iter()).enumerate() {
                let q = parse_query(src).unwrap();
                let pq = PreparedQuery::prepare(&g, &q, &small_opts()).unwrap();
                let mut rng = StdRng::seed_from_u64((gi * 131 + qi) as u64);

                let log1 = random_log(&g, &mut rng, 6);
                let inc1 = pq.apply(&log1, &q, &small_opts()).unwrap();
                let g1 = log1.apply_to(&g).unwrap();
                let log2 = random_log(&g1, &mut rng, 4);
                let inc2 = inc1.apply(&log2, &q, &small_opts()).unwrap();
                let g2 = log2.apply_to(&g1).unwrap();

                for (step, (inc, gn)) in [(&inc1, &g1), (&inc2, &g2)].into_iter().enumerate() {
                    let fresh = PreparedQuery::prepare(gn, &q, &small_opts()).unwrap();
                    let want: Vec<_> = fresh.enumerate().collect();
                    let got: Vec<_> = inc.enumerate().collect();
                    assert_eq!(got, want, "{src} gi={gi} step={step}");
                    assert_eq!(inc.count(), fresh.count(), "{src} gi={gi} step={step}");
                    assert_eq!(
                        inc.stats().structural(),
                        fresh.stats().structural(),
                        "{src} gi={gi} step={step}"
                    );
                    let (a, b) = (
                        inc.save_index_bytes(&q, src).unwrap(),
                        fresh.save_index_bytes(&q, src).unwrap(),
                    );
                    for tag in [SEC_GRAPH, SEC_QUERY, SEC_ENGINE] {
                        assert!(
                            section(&a, tag) == section(&b, tag),
                            "{src} gi={gi} step={step}: {} section differs",
                            String::from_utf8_lossy(&tag)
                        );
                    }
                    // META ends with the two lineage words.
                    let (ma, mb) = (section(&a, SEC_META), section(&b, SEC_META));
                    assert_eq!(ma.len(), mb.len());
                    assert_eq!(ma[..ma.len() - 16], mb[..mb.len() - 16], "{src}");
                    for _ in 0..25 {
                        let probe: Vec<Vertex> = (0..q.arity())
                            .map(|_| rng.random_range(0..gn.n() as Vertex))
                            .collect();
                        assert_eq!(inc.test(&probe), fresh.test(&probe), "{src} {probe:?}");
                        assert_eq!(
                            inc.next_solution(&probe),
                            fresh.next_solution(&probe),
                            "{src} {probe:?}"
                        );
                    }
                }
                assert_eq!(inc1.lineage().epoch, 1);
                assert_eq!(inc2.lineage().epoch, 2);
                assert_ne!(inc2.lineage().log_digest, inc1.lineage().log_digest);
            }
        }
    }

    #[test]
    fn apply_rejects_bad_inputs() {
        let g = colored(generators::grid(4, 4), 7);
        let q = parse_query("dist(x,y) > 2 && Blue(y)").unwrap();
        let pq = PreparedQuery::prepare(&g, &q, &small_opts()).unwrap();
        // Invalid log: typed update error, index untouched.
        let bad = nd_update::MutationLog::parse("add-edge 0 99").unwrap();
        assert!(matches!(
            pq.apply(&bad, &q, &small_opts()),
            Err(ApplyError::Update(_))
        ));
        // A query other than the prepared one: different arity, and same
        // shape with another radius (a radius-3 index is not a radius-2
        // one).
        let log = nd_update::MutationLog::parse("add-edge 0 5").unwrap();
        for other in ["Blue(x)", "dist(x,y) > 3 && Blue(y)"] {
            let other = parse_query(other).unwrap();
            assert!(matches!(
                pq.apply(&log, &other, &small_opts()),
                Err(ApplyError::QueryMismatch)
            ));
        }
    }

    /// An applied index survives save → load: same stats
    /// (including lineage) up to the unpersisted wall-clock fields, same
    /// answers, bit-identical re-save.
    #[test]
    fn applied_index_roundtrips_through_persistence() {
        let g = colored(generators::grid(5, 5), 11);
        for src in ["dist(x,y) > 2 && Blue(y)", "dist(x,y) <= 2 && Red(x)"] {
            let q = parse_query(src).unwrap();
            let pq = PreparedQuery::prepare(&g, &q, &small_opts()).unwrap();
            let log = nd_update::MutationLog::parse(
                "add-node\nadd-edge 3 25\nremove-edge 0 1\ncolor 7 Blue",
            )
            .unwrap();
            let upd = pq.apply(&log, &q, &small_opts()).unwrap();
            assert_eq!(upd.lineage().epoch, 1);
            assert_ne!(upd.lineage().log_digest, 0);

            let bytes = upd.save_index_bytes(&q, src).unwrap();
            let loaded = SharedPreparedQuery::load_index_bytes(&bytes).unwrap();
            assert_wall_clock_free(&loaded.prepared.stats());
            assert_eq!(
                without_wall_clock(loaded.prepared.stats()),
                without_wall_clock(upd.stats()),
                "{src}"
            );
            assert_eq!(loaded.prepared.lineage().update_ms, 0, "{src}");
            assert_eq!(
                *loaded.prepared.lineage(),
                UpdateLineage {
                    update_ms: 0,
                    ..upd.lineage().clone()
                },
                "{src}"
            );
            assert_eq!(
                loaded.prepared.enumerate().collect::<Vec<_>>(),
                upd.enumerate().collect::<Vec<_>>(),
                "{src}"
            );
            let again = loaded.prepared.save_index_bytes(&q, src).unwrap();
            assert_eq!(again, bytes, "re-save not bit-identical for {src}");

            // Truncation through the engine tail still rejects.
            for cut in (bytes.len().saturating_sub(64))..bytes.len() {
                assert!(SharedPreparedQuery::load_index_bytes(&bytes[..cut]).is_err());
            }
        }
    }

    #[test]
    fn without_extendability_check_still_correct() {
        let mut opts = small_opts();
        opts.extendability_check = false;
        let g = colored(generators::random_tree(25, 8), 4);
        for src in [
            "dist(x,z) > 2 && dist(y,z) > 2 && Blue(z)",
            "E(x,y) && Blue(x)",
        ] {
            check_full(&g, src, &opts, 77);
        }
    }
}
