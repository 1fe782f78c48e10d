//! # nd-serve — a concurrent query-serving runtime
//!
//! The paper's economics are *prepare once, probe many*: after
//! `O(|G|^{1+ε})` preprocessing (Theorem 2.3), `test`/`next_solution`
//! answer in constant time and never mutate the index. That is exactly a
//! serving workload, and this crate is the runtime for it:
//!
//! * [`Snapshot`] — one graph + one prepared query behind an [`Arc`],
//!   immutable and `Send + Sync` (statically asserted below), shared by
//!   every worker and client thread with zero synchronization.
//! * [`ServerPool`] — a work-stealing pool of std threads executing
//!   batched [`Request`]s ([`Request::Test`] / [`Request::NextSolution`] /
//!   [`Request::EnumeratePage`]) with per-request deadlines.
//! * [`Admission`] — the PR-1 [`nd_graph::Budget`]
//!   governor reinterpreted as admission control: bounded queues and typed
//!   [`ServeError::Overloaded`] backpressure instead of unbounded queueing.
//! * [`Metrics`] — lock-free counters and log2 latency histograms per
//!   request kind, exported as JSON through [`MetricsSnapshot::to_json`]
//!   together with prepare-phase timings.
//!
//! ```
//! use nd_serve::{Request, Response, ServeOpts, ServerPool, Snapshot};
//! use nd_core::PrepareOpts;
//! use nd_logic::parse_query;
//!
//! let mut g = nd_graph::generators::grid(6, 6);
//! g.add_color((0..36).step_by(3).collect(), Some("Blue".into()));
//! let q = parse_query("dist(x,y) <= 2 && Blue(y)").unwrap();
//! let snap = Snapshot::build_owned(g, &q, &PrepareOpts::default()).unwrap();
//!
//! let pool = ServerPool::start(snap, &ServeOpts { workers: 2, ..Default::default() });
//! match pool.call(Request::Test { tuple: vec![0, 3] }).unwrap() {
//!     Response::Test(hit) => println!("member: {hit}"),
//!     _ => unreachable!(),
//! }
//! ```
//!
//! Architecture rationale lives in DESIGN.md §5; `ndq serve` is the
//! CLI front-end. The repository benchmark (`perfbench/`) measures this
//! pool end to end (`probe_rps`) and per layer (`serve.*`).

pub mod admission;
pub mod cache;
pub mod error;
pub mod metrics;
pub mod pool;
pub mod protocol;
pub mod request;
pub mod session;
pub mod snapshot;

pub use admission::{Admission, AdmissionPermit};
pub use cache::{CacheCounters, PrepareCache, DEFAULT_CACHE_CAPACITY};
pub use error::ServeError;
pub use metrics::{HistogramSnapshot, KindSnapshot, LatencyHistogram, Metrics, MetricsSnapshot};
pub use pool::{BatchHandle, ServeOpts, ServerPool, CHAOS_PANIC_MSG};
pub use protocol::{handle_command, Reply, PROTOCOL_HELP};
pub use request::{Request, RequestKind, Response, REQUEST_KINDS};
pub use session::{Session, SESSION_PROTOCOL_HELP};
pub use snapshot::Snapshot;

use std::sync::Arc;

// ---------------------------------------------------------------------
// Thread-safety audit, as compile-time facts. The whole value of a
// snapshot is that it can be shared across threads without locks; if a
// future change smuggles a `Cell`/`Rc` into the index structures, the
// build breaks here instead of the behavior breaking in production.
// ---------------------------------------------------------------------
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    const fn assert_send<T: Send>() {}
    assert_send_sync::<Snapshot>();
    assert_send_sync::<Arc<nd_graph::ColoredGraph>>();
    assert_send_sync::<nd_core::SharedPreparedQuery>();
    assert_send_sync::<ServerPool>();
    assert_send_sync::<Metrics>();
    assert_send_sync::<MetricsSnapshot>();
    assert_send_sync::<Admission>();
    assert_send_sync::<ServeError>();
    assert_send_sync::<Request>();
    assert_send_sync::<Response>();
    assert_send_sync::<PrepareCache>();
    assert_send_sync::<Session>();
    // Handles move to a waiting thread but are owned by one client.
    assert_send::<BatchHandle>();
    assert_send::<AdmissionPermit>();
};
