//! The paper's main contribution: after pseudo-linear preprocessing of a
//! sparse colored graph, answer
//!
//! * **testing** (Corollary 2.4) — `ā ∈ q(G)`? in constant time,
//! * **next-solution** (Theorem 2.3) — the lexicographically smallest
//!   solution `≥ ā` in constant time,
//! * **enumeration** (Corollary 2.5) — all of `q(G)` in lexicographic order
//!   with constant delay,
//!
//! for first-order queries `q` in the *distance-type fragment* (conjunctions
//! of guarded unary formulas per variable and binary distance constraints
//! between variables, plus top-level disjunctions thereof — the output shape
//! of the Rank-Preserving Normal Form; see DESIGN.md §2). Queries outside
//! the fragment transparently fall back to a naive engine exposing the same
//! API (and serving as the experimental baseline).
//!
//! Module map (paper section in parentheses):
//!
//! * [`dist`] — the constant-time distance oracle (Proposition 4.2):
//!   neighborhood covers + splitter-game recursion + removal recoloring.
//! * [`skip`] — skip pointers (Lemma 5.8): `SKIP(b, S)` with the `SC(b)`
//!   closure of Claims 5.9/5.10.
//! * [`removal`] — the Removal Lemma (Lemma 5.5) as a general formula
//!   rewriting + graph recoloring.
//! * [`engine`] — query compilation and the `PreparedQuery` front-end
//!   (Sections 5.2.1/5.2.2).
//! * [`error`] — the workspace-wide typed error rollup ([`NdError`]) and
//!   the engine-level [`PrepareError`] / [`QueryError`]. Public entry
//!   points return these instead of panicking; preprocessing respects the
//!   resource caps of [`Budget`] and degrades down a ladder (see
//!   `PreparedQuery::prepare`) before giving up.

pub mod dist;
pub mod engine;
pub mod error;
pub mod independence;
pub mod removal;
#[cfg(feature = "sabotage")]
pub mod sabotage;
pub mod skip;

pub use dist::DistOracle;
pub use engine::fragment::{BinKind, FragmentQuery, UnsupportedReason};
pub use engine::prepared::{
    DegradationReason, DegradationRung, EngineKind, Enumerate, LoadStats, LoadedIndex,
    MmapLoadOpts, PrepareOpts, PrepareStats, PreparedQuery, SharedPreparedQuery, UpdateLineage,
};
pub use error::{ApplyError, InvalidInput, NdError, PrepareError, QueryError};
pub use nd_graph::budget::{Budget, BudgetExceeded, BudgetTracker, Phase, Resource};
pub use nd_persist::{write_file_atomic, PersistError, VerifyPolicy};
pub use nd_update::{Mutation, MutationLog, UpdateError};
pub use skip::SkipPointers;

/// The accuracy parameter `ε` of every pseudo-linear bound. Must be
/// positive; smaller values mean flatter (more `n^ε`-like) auxiliary
/// structures at the price of deeper tries.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Epsilon(f64);

impl Epsilon {
    /// Panicking convenience over [`Epsilon::try_new`] for literal values.
    pub fn new(eps: f64) -> Epsilon {
        Self::try_new(eps).expect("epsilon must be positive and finite")
    }

    /// Validate `ε`: it must be a finite positive real.
    pub fn try_new(eps: f64) -> Result<Epsilon, NdError> {
        if eps > 0.0 && eps.is_finite() {
            Ok(Epsilon(eps))
        } else {
            Err(NdError::Prepare(PrepareError::InvalidInput(
                InvalidInput::BadEpsilon(eps),
            )))
        }
    }

    pub fn get(self) -> f64 {
        self.0
    }
}

impl Default for Epsilon {
    /// `ε = 1/2`: a sensible laptop-scale default.
    fn default() -> Self {
        Epsilon(0.5)
    }
}
