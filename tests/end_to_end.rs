//! Cross-crate integration tests: the full pipeline from query text (or a
//! relational database) to constant-delay enumeration, exercised end to end
//! and checked against naive semantics.

use nowhere_dense::baseline::{MaterializingEnumerator, NaiveEnumerator, NaiveTester};
use nowhere_dense::core::{EngineKind, PrepareOpts, PreparedQuery};
use nowhere_dense::graph::relational::{adjacency_graph, RelationalDb};
use nowhere_dense::graph::{generators, ColoredGraph, Vertex};
use nowhere_dense::logic::eval::materialize_db;
use nowhere_dense::logic::parse_query;
use nowhere_dense::logic::relational::rewrite_to_graph;

fn colored(mut g: ColoredGraph, seed: u64) -> ColoredGraph {
    let n = g.n() as Vertex;
    let blue: Vec<Vertex> = (0..n)
        .filter(|v| (v.wrapping_mul(2654435761) ^ seed as u32).is_multiple_of(3))
        .collect();
    let red: Vec<Vertex> = (0..n)
        .filter(|v| (v.wrapping_mul(40503) ^ seed as u32) % 5 == 1)
        .collect();
    g.add_color(blue, Some("Blue".into()));
    g.add_color(red, Some("Red".into()));
    g
}

#[test]
fn paper_examples_pipeline() {
    let g = colored(generators::grid(7, 7), 3);
    for src in [
        "dist(x,y) <= 2",                            // Example 1-A
        "dist(x,y) > 2 && Blue(y)",                  // Example 2
        "dist(x,z) > 2 && dist(y,z) > 2 && Blue(z)", // Example 2, arity 3
    ] {
        let q = parse_query(src).unwrap();
        let prepared = PreparedQuery::prepare(&g, &q, &PrepareOpts::default()).unwrap();
        assert!(matches!(prepared.engine_kind(), EngineKind::Indexed { .. }));
        let indexed: Vec<_> = prepared.enumerate().collect();
        let naive: Vec<_> = NaiveEnumerator::new(&g, q.clone()).collect();
        assert_eq!(indexed, naive, "query {src}");

        // Testing agrees with naive evaluation on a probe sweep.
        let tester = NaiveTester::new(&g, q.clone());
        let k = q.arity();
        for probe_seed in 0..25u32 {
            let probe: Vec<Vertex> = (0..k)
                .map(|i| probe_seed.wrapping_mul(31 + i as u32 * 7) % g.n() as u32)
                .collect();
            assert_eq!(
                prepared.test(&probe),
                tester.test(&probe),
                "{src} @ {probe:?}"
            );
        }
    }
}

#[test]
fn enumeration_in_lex_order_with_jumps() {
    let g = colored(generators::random_tree(120, 5), 8);
    let q = parse_query("dist(x,y) > 3 && Blue(y) && Red(x)").unwrap();
    let prepared = PreparedQuery::prepare(&g, &q, &PrepareOpts::default()).unwrap();
    let all: Vec<_> = prepared.enumerate().collect();
    assert!(all.windows(2).all(|w| w[0] < w[1]), "strictly increasing");

    // Theorem 2.3 contract at every gap: next_solution(t+1) from each
    // solution is the next solution.
    for w in all.windows(2) {
        let mut probe = w[0].clone();
        *probe.last_mut().unwrap() += 1; // may overflow n; next_solution handles
        if probe.last().copied().unwrap() as usize >= g.n() {
            continue;
        }
        assert_eq!(prepared.next_solution(&probe).as_ref(), Some(&w[1]));
    }
}

#[test]
fn relational_reduction_end_to_end() {
    let mut db = RelationalDb::new(40);
    let mut tuples = Vec::new();
    for p in 1..40u32 {
        tuples.push(vec![p, p / 3]);
        if p % 4 == 0 {
            tuples.push(vec![p, p - 1]);
        }
    }
    db.add_relation("R", 2, tuples);
    db.add_relation(
        "S",
        1,
        (0..40u32).filter(|p| p % 5 == 0).map(|p| vec![p]).collect(),
    );

    for src in [
        "R(x, y)",
        "R(x, y) && S(y)",
        "exists z. (R(x, z) && R(y, z)) && x != y",
    ] {
        let phi = parse_query(src).unwrap();
        let (g, mapping) = adjacency_graph(&db);
        let psi = rewrite_to_graph(&phi, &mapping);
        let via_db = materialize_db(&db, &phi);
        let prepared = PreparedQuery::prepare(&g, &psi, &PrepareOpts::default()).unwrap();
        let via_graph: Vec<_> = prepared.enumerate().collect();
        assert_eq!(via_graph, via_db, "query {src}");
    }
}

#[test]
fn union_queries_merge_in_order() {
    let g = colored(generators::cycle(40), 1);
    let q = parse_query("E(x,y) || (dist(x,y) > 4 && Blue(y)) || x = y").unwrap();
    let prepared = PreparedQuery::prepare(&g, &q, &PrepareOpts::default()).unwrap();
    let got: Vec<_> = prepared.enumerate().collect();
    let want = MaterializingEnumerator::prepare(&g, &q);
    assert_eq!(got, want.iter().cloned().collect::<Vec<_>>());
    assert!(got.windows(2).all(|w| w[0] < w[1]));
}

#[test]
fn dense_graph_correctness_degraded_performance() {
    // On a dense graph the guarantees degrade but answers stay exact.
    let g = colored(generators::gnm(40, 300, 3), 2);
    let q = parse_query("dist(x,y) > 1 && Blue(y)").unwrap();
    let prepared = PreparedQuery::prepare(&g, &q, &PrepareOpts::default()).unwrap();
    let naive: Vec<_> = NaiveEnumerator::new(&g, q).collect();
    assert_eq!(prepared.enumerate().collect::<Vec<_>>(), naive);
}

#[test]
fn larger_scale_smoke() {
    // A bigger sparse instance: verify a sample rather than the full set.
    let g = colored(generators::bounded_degree(3_000, 4, 11), 4);
    let q = parse_query("dist(x,y) > 2 && Blue(y)").unwrap();
    let prepared = PreparedQuery::prepare(&g, &q, &PrepareOpts::default()).unwrap();
    let tester = NaiveTester::new(&g, q);
    let first: Vec<_> = prepared.enumerate().take(500).collect();
    assert_eq!(first.len(), 500);
    assert!(first.windows(2).all(|w| w[0] < w[1]));
    for sol in first.iter().step_by(50) {
        assert!(tester.test(sol), "false positive {sol:?}");
    }
    // No solution was skipped before the first one.
    if let Some(first_sol) = first.first() {
        let start = prepared.next_solution(&[0, 0]).unwrap();
        assert_eq!(&start, first_sol);
    }
}

/// `ndq --stats` prints `PrepareStats::to_json`, the object the serve
/// `stats` verb answers with, as one line on stderr.
#[test]
fn cli_stats_print_the_serve_stats_schema() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_ndq"))
        .args(["--graph", "grid:12x12", "--color", "Blue:0.3:7"])
        .args(["--query", "dist(x,y) > 2 && Blue(y)", "--stats"])
        .stdin(std::process::Stdio::null())
        .output()
        .expect("run ndq");
    assert!(out.status.success(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let line = stderr
        .lines()
        .find_map(|l| l.strip_prefix("index: "))
        .unwrap_or_else(|| panic!("no stats line in {stderr}"));
    assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
    let field = |key: &str| {
        line.split_once(&format!("\"{key}\":"))
            .and_then(|(_, rest)| rest.split([',', '}']).next())
            .unwrap_or_else(|| panic!("no {key} in {line}"))
    };
    field("cover_ms")
        .parse::<u64>()
        .expect("cover_ms is a count");
    assert_eq!(field("rung"), "\"indexed\"");
    assert!(field("cover_bags").parse::<u64>().unwrap() > 0);
}
