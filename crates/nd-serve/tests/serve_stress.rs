//! Multi-threaded stress: N reader threads hammer one shared snapshot
//! (directly and through the pool) and every one of them must observe
//! exactly the answers single-threaded enumeration produces.
//!
//! The snapshot is immutable plain data, so this is the executable proof
//! of the `Send + Sync` audit: no interleaving may change an answer.

use nd_core::PrepareOpts;
use nd_graph::{generators, Vertex};
use nd_logic::parse_query;
use nd_serve::{Request, Response, ServeOpts, ServerPool, Snapshot};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;
use std::thread;

fn snapshot(n_side: usize) -> Snapshot {
    let mut g = generators::grid(n_side, n_side);
    let blue: Vec<Vertex> = (0..g.n() as Vertex).filter(|v| v % 3 == 0).collect();
    g.add_color(blue, Some("Blue".into()));
    let q = parse_query("dist(x,y) > 2 && Blue(y)").unwrap();
    Snapshot::build_owned(g, &q, &PrepareOpts::default()).unwrap()
}

/// Walk the whole solution set through EnumeratePage requests.
fn page_walk(pool: &ServerPool, arity: usize, page: usize) -> Vec<Vec<Vertex>> {
    let mut out = Vec::new();
    let mut cursor = Some(vec![0; arity]);
    while let Some(from) = cursor {
        match pool
            .call(Request::EnumeratePage { from, limit: page })
            .unwrap()
        {
            Response::Page {
                solutions,
                next_from,
            } => {
                out.extend(solutions);
                cursor = next_from;
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    out
}

#[test]
fn shared_snapshot_is_deterministic_across_threads() {
    let snap = snapshot(14);
    let reference: Vec<Vec<Vertex>> = snap.prepared().enumerate().collect();
    assert!(!reference.is_empty(), "workload must be non-trivial");
    let reference = Arc::new(reference);
    for workers in [1, 2, 4] {
        let pool = Arc::new(ServerPool::start(
            snap.clone(),
            &ServeOpts {
                workers,
                ..Default::default()
            },
        ));

        let n = snap.graph().n() as Vertex;
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let snap = snap.clone();
                let pool = Arc::clone(&pool);
                let reference = Arc::clone(&reference);
                thread::spawn(move || {
                    // (a) Full enumeration through the pool, page size varying
                    // per thread so threads hit different request shapes.
                    let via_pages = page_walk(&pool, snap.arity(), 7 + t * 13);
                    assert_eq!(
                        via_pages, *reference,
                        "{workers} workers, thread {t}: page walk diverged"
                    );

                    // (b) Direct (no pool) enumeration on the shared snapshot.
                    let direct: Vec<Vec<Vertex>> = snap.prepared().enumerate().collect();
                    assert_eq!(
                        direct, *reference,
                        "thread {t}: direct enumeration diverged"
                    );

                    // (c) Random test/next_solution probes, checked against the
                    // reference materialization.
                    let mut rng = StdRng::seed_from_u64(0xbeef + t as u64);
                    for _ in 0..300 {
                        let probe: Vec<Vertex> = (0..2).map(|_| rng.random_range(0..n)).collect();
                        let want_member = reference.binary_search(&probe).is_ok();
                        match pool.call(Request::Test {
                            tuple: probe.clone(),
                        }) {
                            Ok(Response::Test(got)) => {
                                assert_eq!(got, want_member, "thread {t}: test({probe:?})")
                            }
                            other => panic!("unexpected {other:?}"),
                        }
                        let idx = reference.partition_point(|s| s < &probe);
                        match pool.call(Request::NextSolution {
                            from: probe.clone(),
                        }) {
                            Ok(Response::NextSolution(got)) => assert_eq!(
                                got,
                                reference.get(idx).cloned(),
                                "thread {t}: next_solution({probe:?})"
                            ),
                            other => panic!("unexpected {other:?}"),
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("reader thread panicked");
        }

        // Metrics saw every pooled request and no rejections (admission was
        // unlimited).
        let m = pool.metrics_snapshot();
        assert_eq!(m.total_rejected(), 0);
        assert_eq!(m.kind(nd_serve::RequestKind::Test).completed, 8 * 300);
        assert_eq!(
            m.kind(nd_serve::RequestKind::NextSolution).completed,
            8 * 300
        );
        assert!(m.kind(nd_serve::RequestKind::EnumeratePage).completed >= 8);
        let json = pool.metrics_json();
        assert!(json.contains("\"requests\":{"));
        assert!(json.contains("\"p50_ns\":"));
    }
}

/// Twenty batches are queued before any is awaited, so the workers pick
/// them up concurrently; each must still answer in submission order.
#[test]
fn batched_submission_preserves_order() {
    let snap = snapshot(10);
    let n = snap.graph().n() as Vertex;
    for workers in [1, 2, 4] {
        let pool = ServerPool::start(
            snap.clone(),
            &ServeOpts {
                workers,
                ..Default::default()
            },
        );
        let mut rng = StdRng::seed_from_u64(7);
        let submitted: Vec<_> = (0..20)
            .map(|_| {
                let reqs: Vec<Request> = (0..64)
                    .map(|_| Request::Test {
                        tuple: vec![rng.random_range(0..n), rng.random_range(0..n)],
                    })
                    .collect();
                let want: Vec<Response> = reqs.iter().map(|r| snap.execute(r).unwrap()).collect();
                (pool.submit(reqs).unwrap(), want)
            })
            .collect();
        for (handle, want) in submitted {
            let got: Vec<Response> = handle.wait().into_iter().map(|r| r.unwrap()).collect();
            assert_eq!(got, want, "{workers} workers");
        }
    }
}
