//! The workspace-wide typed error hierarchy.
//!
//! Every crate in the DAG owns the errors of its layer — [`GraphError`]
//! (nd-graph), [`StoreError`] (nd-store), [`BudgetExceeded`] (nd-graph's
//! budget module, shared by nd-cover and this crate) — and this module
//! rolls them up into [`NdError`] plus the engine-level [`PrepareError`]
//! and [`QueryError`]. Public entry points of this crate never panic on
//! malformed input: they return one of these types (panicking convenience
//! wrappers are kept, documented, for pre-validated callers).

use crate::engine::fragment::UnsupportedReason;
use crate::engine::prepared::PrepareStats;
use nd_graph::io::ReadError;
use nd_graph::{BudgetExceeded, GraphError};
use nd_store::StoreError;
use std::fmt;

/// Why [`crate::PreparedQuery::prepare`] could not produce an index.
#[derive(Clone, Debug, PartialEq)]
pub enum PrepareError {
    /// The query is outside the distance-type fragment and
    /// `allow_fallback` is off.
    UnsupportedFragment(UnsupportedReason),
    /// A preprocessing budget cap was hit on every rung of the degradation
    /// ladder. `partial` carries the statistics accumulated up to the
    /// point of cancellation (branch counts, budget spend), so callers can
    /// see how far preparation got. Boxed to keep the `Err` variant small
    /// on the happy path.
    BudgetExceeded {
        exceeded: BudgetExceeded,
        partial: Box<PrepareStats>,
    },
    /// Malformed input detected before any index work started.
    InvalidInput(InvalidInput),
}

/// Input defects rejected by `prepare` and friends.
#[derive(Clone, Debug, PartialEq)]
pub enum InvalidInput {
    /// `ε` must be a finite positive real.
    BadEpsilon(f64),
    /// The query mentions a color name the graph does not define (naive
    /// evaluation would otherwise panic deep inside `eval`).
    UnknownColor(String),
    /// The query mentions a color id `≥ g.num_colors()`.
    UnknownColorId(u32),
    /// A graph-layer defect (out-of-range vertex, oversized domain).
    Graph(GraphError),
}

impl fmt::Display for PrepareError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrepareError::UnsupportedFragment(r) => {
                write!(f, "query outside the distance-type fragment: {r}")
            }
            PrepareError::BudgetExceeded { exceeded, .. } => {
                write!(f, "preprocessing aborted: {exceeded}")
            }
            PrepareError::InvalidInput(i) => write!(f, "invalid input: {i}"),
        }
    }
}

impl fmt::Display for InvalidInput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvalidInput::BadEpsilon(e) => {
                write!(f, "epsilon must be a finite positive real, got {e}")
            }
            InvalidInput::UnknownColor(name) => {
                write!(
                    f,
                    "query mentions color {name:?}, which the graph does not define"
                )
            }
            InvalidInput::UnknownColorId(i) => {
                write!(
                    f,
                    "query mentions color id {i}, which the graph does not define"
                )
            }
            InvalidInput::Graph(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PrepareError {}
impl std::error::Error for InvalidInput {}

impl From<UnsupportedReason> for PrepareError {
    fn from(r: UnsupportedReason) -> Self {
        PrepareError::UnsupportedFragment(r)
    }
}

impl From<GraphError> for PrepareError {
    fn from(e: GraphError) -> Self {
        PrepareError::InvalidInput(InvalidInput::Graph(e))
    }
}

/// Why [`crate::PreparedQuery::apply`] could not produce an updated index.
#[derive(Clone, Debug, PartialEq)]
pub enum ApplyError {
    /// The mutation log itself is invalid (bad vertex, removed-vertex
    /// reference, reserved color, …).
    Update(nd_update::UpdateError),
    /// The re-prepare of the mutated graph failed.
    Prepare(PrepareError),
    /// The query passed to `apply` is not the query this index was
    /// prepared for.
    QueryMismatch,
}

impl fmt::Display for ApplyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApplyError::Update(e) => write!(f, "invalid mutation log: {e}"),
            ApplyError::Prepare(e) => write!(f, "re-prepare after mutation failed: {e}"),
            ApplyError::QueryMismatch => {
                write!(f, "query does not match the prepared index")
            }
        }
    }
}

impl std::error::Error for ApplyError {}

impl From<nd_update::UpdateError> for ApplyError {
    fn from(e: nd_update::UpdateError) -> Self {
        ApplyError::Update(e)
    }
}

/// Why a runtime query (`try_test` / `try_next_solution`) was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryError {
    /// The probe tuple does not match the query arity.
    ArityMismatch { expected: usize, got: usize },
    /// A probe component is not a vertex of the prepared graph.
    VertexOutOfRange { v: nd_graph::Vertex, n: usize },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::ArityMismatch { expected, got } => {
                write!(f, "tuple has {got} components, query arity is {expected}")
            }
            QueryError::VertexOutOfRange { v, n } => {
                write!(
                    f,
                    "tuple component {v} is not a vertex of the graph (n = {n})"
                )
            }
        }
    }
}

impl std::error::Error for QueryError {}

/// Workspace-wide error rollup: everything the library can report, under
/// one `match`-able roof for binaries and tests.
#[derive(Debug)]
pub enum NdError {
    Graph(GraphError),
    Store(StoreError),
    Budget(BudgetExceeded),
    Prepare(PrepareError),
    Query(QueryError),
    Read(ReadError),
}

impl fmt::Display for NdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NdError::Graph(e) => write!(f, "graph error: {e}"),
            NdError::Store(e) => write!(f, "store error: {e}"),
            NdError::Budget(e) => write!(f, "{e}"),
            NdError::Prepare(e) => write!(f, "prepare error: {e}"),
            NdError::Query(e) => write!(f, "query error: {e}"),
            NdError::Read(e) => write!(f, "read error: {e}"),
        }
    }
}

impl std::error::Error for NdError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NdError::Graph(e) => Some(e),
            NdError::Store(e) => Some(e),
            NdError::Budget(e) => Some(e),
            NdError::Prepare(e) => Some(e),
            NdError::Query(e) => Some(e),
            NdError::Read(e) => Some(e),
        }
    }
}

impl From<GraphError> for NdError {
    fn from(e: GraphError) -> Self {
        NdError::Graph(e)
    }
}
impl From<StoreError> for NdError {
    fn from(e: StoreError) -> Self {
        NdError::Store(e)
    }
}
impl From<BudgetExceeded> for NdError {
    fn from(e: BudgetExceeded) -> Self {
        NdError::Budget(e)
    }
}
impl From<PrepareError> for NdError {
    fn from(e: PrepareError) -> Self {
        NdError::Prepare(e)
    }
}
impl From<QueryError> for NdError {
    fn from(e: QueryError) -> Self {
        NdError::Query(e)
    }
}
impl From<ReadError> for NdError {
    fn from(e: ReadError) -> Self {
        NdError::Read(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nd_graph::{Phase, Resource};

    #[test]
    fn display_and_source_chains() {
        let b = BudgetExceeded {
            phase: Phase::CoverConstruction,
            resource: Resource::NodeExpansions,
            spent: 11,
            cap: 10,
        };
        let nd: NdError = b.clone().into();
        assert!(nd.to_string().contains("cover construction"));
        assert!(std::error::Error::source(&nd).is_some());

        let p = PrepareError::BudgetExceeded {
            exceeded: b,
            partial: Box::new(PrepareStats::default()),
        };
        assert!(p.to_string().contains("preprocessing aborted"));

        let q = QueryError::ArityMismatch {
            expected: 2,
            got: 3,
        };
        assert!(q.to_string().contains("arity"));

        let inv: PrepareError = GraphError::TooManyVertices { n: usize::MAX }.into();
        assert!(inv.to_string().contains("invalid input"));
    }
}
