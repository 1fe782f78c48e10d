//! The serving pool: work-stealing std-thread workers over one shared
//! [`Snapshot`].
//!
//! Architecture (DESIGN.md §5):
//!
//! * **Batches, not requests, are the unit of dispatch.** A probe is
//!   sub-microsecond; channel + queue overhead is not. Clients submit a
//!   `Vec<Request>` which travels the queue as one `Job` and is executed
//!   by one worker, so dispatch overhead amortizes across the batch.
//! * **Work stealing.** Each worker owns a deque; submits are spread
//!   round-robin. A worker pops its own deque from the front (FIFO — the
//!   oldest batch has the tightest deadline) and steals from the *back* of
//!   a victim's deque when idle, so skewed submit bursts rebalance.
//! * **Admission before enqueue.** The [`Admission`] governor (the PR-1
//!   `Budget`, reinterpreted) is charged synchronously at submit; an
//!   over-cap submit returns `ServeError::Overloaded` immediately and
//!   nothing is queued. Capacity is released by RAII when the job's
//!   permit drops.
//! * **Deadlines are reaped at dequeue.** A worker that picks up an
//!   expired job answers `DeadlineExceeded` without touching the index —
//!   under overload, stale work is shed instead of executed.

use crate::admission::{Admission, AdmissionPermit};
use crate::error::ServeError;
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::request::{Request, Response, REQUEST_KINDS};
use crate::snapshot::Snapshot;
use nd_graph::json::JsonObject;
use nd_graph::Budget;
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long an idle worker sleeps between queue re-checks. The condvar is
/// notified on every submit, so this is only a lost-wakeup backstop.
const IDLE_PARK: Duration = Duration::from_millis(2);

/// Polling period of [`ServerPool::drain_with_deadline`]. The drain is a
/// shutdown-path operation, so a short sleep loop beats threading another
/// condvar through the hot submit path.
const DRAIN_POLL: Duration = Duration::from_micros(200);

/// Payload of chaos-injected worker panics (see
/// [`ServeOpts::chaos_panic_period`]).
pub const CHAOS_PANIC_MSG: &str = "chaos: injected worker panic";

/// Render a caught panic payload as a message for
/// [`ServeError::WorkerPanic`].
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Pool configuration.
#[derive(Clone, Debug)]
pub struct ServeOpts {
    /// Worker threads. `0` means one per available CPU.
    pub workers: usize,
    /// Admission-control budget: `node_expansions` caps queued+in-flight
    /// requests, `memory_bytes` caps queued request bytes, `wall_clock`
    /// is the default per-request deadline. [`Budget::UNLIMITED`] turns
    /// admission control off.
    pub admission: Budget,
    /// Chaos harness knob: when non-zero, every `chaos_panic_period`-th
    /// request (counted across all workers) panics *inside* the
    /// per-request recovery guard, exercising the
    /// [`ServeError::WorkerPanic`] quarantine path deterministically.
    /// `0` (the default) disables injection; production configs never set
    /// this.
    pub chaos_panic_period: u64,
}

impl Default for ServeOpts {
    fn default() -> Self {
        ServeOpts {
            workers: 0,
            admission: Budget::UNLIMITED,
            chaos_panic_period: 0,
        }
    }
}

type BatchResult = Vec<Result<Response, ServeError>>;

/// Per-kind request counts of a batch, skipping absent kinds — the metric
/// recording granularity.
fn count_by_kind(batch: &[Request]) -> impl Iterator<Item = (crate::request::RequestKind, u64)> {
    let mut counts = [0u64; REQUEST_KINDS.len()];
    for req in batch {
        counts[req.kind() as usize] += 1;
    }
    REQUEST_KINDS
        .into_iter()
        .zip(counts)
        .filter(|&(_, n)| n > 0)
}

struct Job {
    batch: Vec<Request>,
    submitted: Instant,
    deadline: Option<Instant>,
    tx: mpsc::Sender<BatchResult>,
    /// Held until the job finishes; dropping releases admission capacity.
    #[allow(dead_code)]
    permit: AdmissionPermit,
}

struct PoolShared {
    snapshot: Snapshot,
    queues: Vec<Mutex<VecDeque<Job>>>,
    idle: Mutex<()>,
    wake: Condvar,
    admission: Admission,
    metrics: Metrics,
    shutdown: AtomicBool,
    rr: AtomicUsize,
    /// Worker panics caught and converted to [`ServeError::WorkerPanic`]
    /// (or swallowed by the loop-level backstop). Relaxed: a counter, not
    /// a synchronization point.
    worker_panics: AtomicU64,
    /// See [`ServeOpts::chaos_panic_period`]; `0` = off.
    chaos_period: u64,
    chaos_ticks: AtomicU64,
}

impl PoolShared {
    /// Own queue front-first, then steal from victims back-first.
    fn find_job(&self, me: usize) -> Option<Job> {
        if let Some(job) = self.queues[me].lock().ok()?.pop_front() {
            return Some(job);
        }
        let n = self.queues.len();
        for off in 1..n {
            let victim = (me + off) % n;
            if let Some(job) = self.queues[victim].lock().ok()?.pop_back() {
                return Some(job);
            }
        }
        None
    }

    fn execute(&self, job: Job) {
        let Job {
            batch,
            submitted,
            deadline,
            tx,
            permit,
        } = job;
        // Metrics are recorded per *batch*, not per request: probes are
        // sub-µs, and per-request atomics on the shared counters become
        // the cross-worker scaling bottleneck (cache-line ping-pong).
        let results: BatchResult = if deadline.is_some_and(|d| Instant::now() >= d) {
            let waited = submitted.elapsed();
            for (kind, n) in count_by_kind(&batch) {
                self.metrics.record_deadline_missed(kind, n);
            }
            batch
                .iter()
                .map(|_| Err(ServeError::DeadlineExceeded { waited }))
                .collect()
        } else {
            let mut ok_by_kind = [0u64; REQUEST_KINDS.len()];
            let results: BatchResult = batch
                .iter()
                .map(|req| {
                    // Per-request recovery guard: a panic in the engine
                    // (or injected by the chaos knob) quarantines this
                    // request as a typed error; the rest of the batch
                    // still executes and the worker keeps serving.
                    let resp = std::panic::catch_unwind(AssertUnwindSafe(|| {
                        self.maybe_inject_chaos();
                        self.snapshot.execute(req)
                    }))
                    .unwrap_or_else(|payload| {
                        self.worker_panics.fetch_add(1, Ordering::Relaxed);
                        Err(ServeError::WorkerPanic(panic_message(payload)))
                    });
                    match &resp {
                        Ok(_) => ok_by_kind[req.kind() as usize] += 1,
                        // Counted above, and not a client mistake.
                        Err(ServeError::WorkerPanic(_)) => {}
                        Err(_) => self.metrics.record_client_error(req.kind()),
                    }
                    resp
                })
                .collect();
            // Every request in the batch resolves when the batch does, so
            // one latency sample value covers them all.
            let latency_ns = submitted.elapsed().as_nanos() as u64;
            for (i, &n) in ok_by_kind.iter().enumerate() {
                self.metrics
                    .record_completed_many(REQUEST_KINDS[i], n, latency_ns);
            }
            results
        };
        // The client may have dropped its handle; that is not an error.
        let _ = tx.send(results);
        drop(permit);
    }

    /// Deterministic fault injection for the chaos harness: every
    /// `chaos_period`-th request panics. `panic_any` (not the macro) so
    /// the serving sources stay grep-clean of `panic!` outside tests.
    fn maybe_inject_chaos(&self) {
        if self.chaos_period > 0 {
            let tick = self.chaos_ticks.fetch_add(1, Ordering::Relaxed) + 1;
            if tick.is_multiple_of(self.chaos_period) {
                std::panic::panic_any(CHAOS_PANIC_MSG);
            }
        }
    }

    fn worker_loop(&self, me: usize) {
        loop {
            match self.find_job(me) {
                Some(job) => {
                    // Backstop for panics escaping the per-request guard
                    // (metrics, channel plumbing): the job's sender drops
                    // — its client sees `Shutdown` — but the worker
                    // thread survives and keeps draining the queues.
                    if std::panic::catch_unwind(AssertUnwindSafe(|| self.execute(job))).is_err() {
                        self.worker_panics.fetch_add(1, Ordering::Relaxed);
                    }
                }
                None => {
                    if self.shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    if let Ok(guard) = self.idle.lock() {
                        // Timeout bounds the lost-wakeup window; spurious
                        // wakeups just re-poll the queues.
                        let _ = self.wake.wait_timeout(guard, IDLE_PARK);
                    }
                }
            }
        }
    }
}

/// Handle for one submitted batch; resolves to one result per request, in
/// submission order.
pub struct BatchHandle {
    rx: mpsc::Receiver<BatchResult>,
    len: usize,
}

impl std::fmt::Debug for BatchHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchHandle")
            .field("len", &self.len)
            .finish()
    }
}

impl BatchHandle {
    /// Block until the batch completes. If the pool shut down with the
    /// batch still queued, every slot reports [`ServeError::Shutdown`].
    pub fn wait(self) -> BatchResult {
        self.rx
            .recv()
            .unwrap_or_else(|_| vec![Err(ServeError::Shutdown); self.len])
    }
}

/// A running serving pool. Dropping (or [`ServerPool::shutdown`]) stops
/// the workers after they drain the queues.
pub struct ServerPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerPool {
    /// Spin up the worker threads over a shared snapshot.
    pub fn start(snapshot: Snapshot, opts: &ServeOpts) -> ServerPool {
        let workers = if opts.workers > 0 {
            opts.workers
        } else {
            std::thread::available_parallelism().map_or(4, |p| p.get())
        };
        let shared = Arc::new(PoolShared {
            snapshot,
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            idle: Mutex::new(()),
            wake: Condvar::new(),
            admission: Admission::new(opts.admission),
            metrics: Metrics::new(),
            shutdown: AtomicBool::new(false),
            rr: AtomicUsize::new(0),
            worker_panics: AtomicU64::new(0),
            chaos_period: opts.chaos_panic_period,
            chaos_ticks: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("nd-serve-{i}"))
                    .spawn(move || shared.worker_loop(i))
                    .expect("spawn worker thread")
            })
            .collect();
        ServerPool {
            shared,
            workers: handles,
        }
    }

    /// Submit a batch with the admission budget's default deadline.
    pub fn submit(&self, batch: Vec<Request>) -> Result<BatchHandle, ServeError> {
        let deadline = self.shared.admission.default_deadline();
        self.submit_with_deadline(batch, deadline)
    }

    /// Submit a batch with an explicit per-batch deadline (measured from
    /// now; `None` = no deadline). Admission control runs synchronously:
    /// an over-budget submit rejects the whole batch with
    /// [`ServeError::Overloaded`] and queues nothing.
    pub fn submit_with_deadline(
        &self,
        batch: Vec<Request>,
        deadline: Option<Duration>,
    ) -> Result<BatchHandle, ServeError> {
        if self.shared.shutdown.load(Ordering::Acquire) {
            return Err(ServeError::Shutdown);
        }
        let bytes: u64 = batch.iter().map(Request::cost_bytes).sum();
        let permit = match self.shared.admission.try_admit(batch.len() as u64, bytes) {
            Ok(p) => p,
            Err(e) => {
                for (kind, n) in count_by_kind(&batch) {
                    self.shared.metrics.record_rejected(kind, n);
                }
                return Err(ServeError::Overloaded(e));
            }
        };
        for (kind, n) in count_by_kind(&batch) {
            self.shared.metrics.record_admitted(kind, n);
        }
        let now = Instant::now();
        let (tx, rx) = mpsc::channel();
        let len = batch.len();
        let job = Job {
            batch,
            submitted: now,
            deadline: deadline.map(|d| now + d),
            tx,
            permit,
        };
        let q = self.shared.rr.fetch_add(1, Ordering::Relaxed) % self.shared.queues.len();
        self.shared.queues[q]
            .lock()
            .map_err(|_| ServeError::Shutdown)?
            .push_back(job);
        self.shared.wake.notify_one();
        Ok(BatchHandle { rx, len })
    }

    /// Single-request convenience: submit, wait, unwrap the one slot.
    pub fn call(&self, req: Request) -> Result<Response, ServeError> {
        let mut results = self.submit(vec![req])?.wait();
        results.pop().unwrap_or(Err(ServeError::Shutdown))
    }

    pub fn snapshot(&self) -> &Snapshot {
        &self.shared.snapshot
    }

    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Point-in-time copy of the request counters and histograms.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// Full observability document: server config + prepare-phase stats +
    /// per-request-kind metrics, as one JSON object.
    pub fn metrics_json(&self) -> String {
        self.metrics_json_with(&[])
    }

    /// [`ServerPool::metrics_json`] with extra pre-rendered JSON sections
    /// appended at the top level (e.g. the serving session's
    /// `prepare_cache` counters).
    pub fn metrics_json_with(&self, extra: &[(&str, String)]) -> String {
        let snap = &self.shared.snapshot;
        let mut server = JsonObject::new();
        server
            .field_u64("workers", self.workers.len() as u64)
            .field_str("query", snap.query_src())
            .field_u64("graph_n", snap.graph().n() as u64)
            .field_u64("graph_m", snap.graph().m() as u64)
            .field_u64("prepare_ms", snap.build_ms())
            .field_u64(
                "inflight_requests",
                self.shared.admission.inflight_requests(),
            )
            .field_u64("worker_panics", self.worker_panics());
        let mut o = JsonObject::new();
        o.field_raw("server", &server.finish())
            .field_raw("prepare", &snap.stats().to_json())
            .field_raw("requests", &self.metrics_snapshot().to_json());
        for (name, json) in extra {
            o.field_raw(name, json);
        }
        o.finish()
    }

    /// Worker panics caught so far (per-request quarantines plus
    /// loop-level backstops).
    pub fn worker_panics(&self) -> u64 {
        self.shared.worker_panics.load(Ordering::Relaxed)
    }

    /// Stop accepting work, drain the queues, and join the workers.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    /// Stop admitting new work without consuming the pool: every submit
    /// from this point returns [`ServeError::Shutdown`]. Workers drain
    /// the already-admitted queue and then exit; dropping the pool joins
    /// them.
    pub fn begin_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.wake.notify_all();
    }

    /// Wait up to `deadline` for the queues to empty, then typed-reject
    /// every job still queued with [`ServeError::Shutdown`] per request.
    /// Returns whether the queues drained fully within the deadline.
    /// Jobs a worker already picked up run to completion either way —
    /// admitted work is answered or typed-rejected, never lost.
    pub fn drain_with_deadline(&self, deadline: Duration) -> bool {
        let t0 = Instant::now();
        loop {
            let queued: usize = self
                .shared
                .queues
                .iter()
                .map(|q| q.lock().map_or(0, |g| g.len()))
                .sum();
            if queued == 0 {
                return true;
            }
            if t0.elapsed() >= deadline {
                for q in &self.shared.queues {
                    if let Ok(mut guard) = q.lock() {
                        for job in guard.drain(..) {
                            let n = job.batch.len();
                            let _ = job.tx.send(vec![Err(ServeError::Shutdown); n]);
                        }
                    }
                }
                return false;
            }
            std::thread::sleep(DRAIN_POLL);
        }
    }

    /// Graceful shutdown: stop admitting, drain queued work until
    /// `deadline`, typed-reject the remainder, join the workers. Returns
    /// whether the drain completed without rejections.
    pub fn shutdown_with_deadline(mut self, deadline: Duration) -> bool {
        self.begin_shutdown();
        let drained = self.drain_with_deadline(deadline);
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        drained
    }

    fn stop_and_join(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.wake.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for ServerPool {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nd_core::PrepareOpts;
    use nd_graph::generators;
    use nd_logic::parse_query;

    fn small_snapshot() -> Snapshot {
        let mut g = generators::grid(8, 8);
        let members: Vec<_> = (0..g.n() as u32).filter(|v| v % 3 == 0).collect();
        g.add_color(members, Some("Blue".into()));
        let q = parse_query("dist(x,y) <= 2 && Blue(y)").unwrap();
        Snapshot::build_owned(g, &q, &PrepareOpts::default()).unwrap()
    }

    #[test]
    fn pool_answers_match_snapshot() {
        let snap = small_snapshot();
        let pool = ServerPool::start(
            snap.clone(),
            &ServeOpts {
                workers: 3,
                ..Default::default()
            },
        );
        let reqs: Vec<Request> = (0..40)
            .map(|i| Request::Test {
                tuple: vec![i % 8, (i * 7) % 64],
            })
            .collect();
        let results = pool.submit(reqs.clone()).unwrap().wait();
        for (req, res) in reqs.iter().zip(results) {
            assert_eq!(res.unwrap(), snap.execute(req).unwrap());
        }
        let m = pool.metrics_snapshot();
        assert_eq!(m.kind(crate::request::RequestKind::Test).completed, 40);
    }

    #[test]
    fn call_roundtrip_and_pages() {
        let snap = small_snapshot();
        let pool = ServerPool::start(
            snap.clone(),
            &ServeOpts {
                workers: 2,
                ..Default::default()
            },
        );
        // Walk the full enumeration through pages and compare to the
        // direct iterator.
        let mut via_pages = Vec::new();
        let mut cursor = Some(vec![0, 0]);
        while let Some(from) = cursor {
            let resp = pool
                .call(Request::EnumeratePage { from, limit: 17 })
                .unwrap();
            let Response::Page {
                solutions,
                next_from,
            } = resp
            else {
                unreachable!("page requests yield page responses, got {resp:?}")
            };
            via_pages.extend(solutions);
            cursor = next_from;
        }
        let direct: Vec<_> = snap.prepared().enumerate().collect();
        assert_eq!(via_pages, direct);
    }

    #[test]
    fn client_errors_are_typed_not_fatal() {
        let snap = small_snapshot();
        let pool = ServerPool::start(
            snap,
            &ServeOpts {
                workers: 1,
                ..Default::default()
            },
        );
        let res = pool.call(Request::Test { tuple: vec![0] });
        assert!(matches!(res, Err(ServeError::Query(_))), "{res:?}");
        // Pool still serves after a client error.
        assert!(pool.call(Request::Test { tuple: vec![0, 1] }).is_ok());
        let m = pool.metrics_snapshot();
        assert_eq!(m.kind(crate::request::RequestKind::Test).client_errors, 1);
    }

    #[test]
    fn expired_deadline_is_reaped() {
        let snap = small_snapshot();
        let pool = ServerPool::start(
            snap,
            &ServeOpts {
                workers: 1,
                ..Default::default()
            },
        );
        let handle = pool
            .submit_with_deadline(
                vec![Request::Test { tuple: vec![0, 1] }],
                Some(Duration::ZERO),
            )
            .unwrap();
        let results = handle.wait();
        assert!(
            matches!(results[0], Err(ServeError::DeadlineExceeded { .. })),
            "{results:?}"
        );
        let m = pool.metrics_snapshot();
        assert_eq!(m.kind(crate::request::RequestKind::Test).deadline_missed, 1);
    }

    #[test]
    fn shutdown_rejects_new_work() {
        let snap = small_snapshot();
        let pool = ServerPool::start(
            snap,
            &ServeOpts {
                workers: 1,
                ..Default::default()
            },
        );
        let shared = Arc::clone(&pool.shared);
        pool.shutdown();
        assert!(shared.shutdown.load(Ordering::Acquire));
    }
}
