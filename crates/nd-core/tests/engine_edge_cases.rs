//! Edge cases for the prepared-query engine: degenerate arities, empty
//! predicates, probes at domain boundaries, fallback behaviour and stats.

use nd_core::{EngineKind, PrepareOpts, PreparedQuery};
use nd_graph::{generators, ColoredGraph, Vertex};
use nd_logic::eval::materialize;
use nd_logic::parse_query;

fn blue(mut g: ColoredGraph, every: u32) -> ColoredGraph {
    let n = g.n() as Vertex;
    g.add_color(
        (0..n).filter(|v| v % every == 0).collect(),
        Some("Blue".into()),
    );
    g
}

#[test]
fn unary_query_contract() {
    let g = blue(generators::path(30), 3);
    let q = parse_query("Blue(x)").unwrap();
    let pq = PreparedQuery::prepare(&g, &q, &PrepareOpts::default()).unwrap();
    assert_eq!(pq.arity(), 1);
    assert_eq!(pq.count(), 10);
    assert_eq!(pq.next_solution(&[4]), Some(vec![6]));
    assert_eq!(pq.next_solution(&[28]), None);
    assert!(pq.test(&[27]));
    assert!(!pq.test(&[1]));
}

#[test]
fn empty_color_everywhere() {
    let mut g = generators::grid(5, 5);
    g.add_color(vec![], Some("Blue".into()));
    for src in [
        "Blue(x)",
        "Blue(x) && E(x,y)",
        "dist(x,y) > 2 && Blue(y)",
        "Blue(x) || E(x,y)",
    ] {
        let q = parse_query(src).unwrap();
        let pq = PreparedQuery::prepare(&g, &q, &PrepareOpts::default()).unwrap();
        assert_eq!(
            pq.enumerate().collect::<Vec<_>>(),
            materialize(&g, &q),
            "{src}"
        );
    }
}

#[test]
fn probe_at_domain_max() {
    let g = blue(generators::cycle(10), 2);
    let q = parse_query("dist(x,y) > 2 && Blue(y)").unwrap();
    let pq = PreparedQuery::prepare(&g, &q, &PrepareOpts::default()).unwrap();
    let last = vec![9, 9];
    assert_eq!(
        pq.next_solution(&last),
        materialize(&g, &q).into_iter().find(|t| t >= &last)
    );
}

#[test]
fn edgeless_graph() {
    let g = blue(generators::path(1), 1); // single vertex, no edges
    let q = parse_query("dist(x,y) > 2 && Blue(y)").unwrap();
    let pq = PreparedQuery::prepare(&g, &q, &PrepareOpts::default()).unwrap();
    assert_eq!(pq.enumerate().count(), 0);

    let mut iso = generators::path(0);
    iso.add_color(vec![], Some("Blue".into()));
    // Build a 6-vertex edgeless graph.
    let mut b = nd_graph::GraphBuilder::new(6);
    b.add_color((0..6).collect(), Some("Blue".into()));
    let g = b.build();
    let pq = PreparedQuery::prepare(&g, &q, &PrepareOpts::default()).unwrap();
    // All distinct pairs are "far"; dist(x,x) = 0 fails dist > 2.
    assert_eq!(pq.enumerate().count(), 30);
}

#[test]
fn far_constraint_with_radius_exceeding_diameter() {
    let g = blue(generators::path(8), 1);
    let q = parse_query("dist(x,y) > 100 && Blue(y)").unwrap();
    let pq = PreparedQuery::prepare(&g, &q, &PrepareOpts::default()).unwrap();
    assert_eq!(pq.enumerate().count(), 0);

    // Two components at infinite distance do satisfy dist > 100.
    let g2 = blue(generators::random_forest(20, 0.5, 1), 1);
    let pq = PreparedQuery::prepare(&g2, &q, &PrepareOpts::default()).unwrap();
    assert_eq!(pq.enumerate().collect::<Vec<_>>(), materialize(&g2, &q));
}

#[test]
fn close_constraint_radius_exceeding_diameter() {
    let g = blue(generators::path(6), 1);
    let q = parse_query("dist(x,y) <= 50").unwrap();
    let pq = PreparedQuery::prepare(&g, &q, &PrepareOpts::default()).unwrap();
    assert_eq!(pq.enumerate().count(), 36);
}

#[test]
fn stats_shape() {
    let g = blue(generators::grid(8, 8), 3);
    let q = parse_query("dist(x,y) > 2 && Blue(y)").unwrap();
    let pq = PreparedQuery::prepare(&g, &q, &PrepareOpts::default()).unwrap();
    let s = pq.stats();
    assert_eq!(s.branches, 1);
    assert_eq!(s.active_branches, 1);
    assert_eq!(s.oracles, 1);
    assert!(s.cover_bags > 0);
    assert!(s.cover_total_size >= g.n());
    assert!(s.skip_entries > 0);
    assert!(s.naive_solutions.is_none());

    let fallback_q = parse_query("exists u. (E(x,u) && E(u,y)) && x != y").unwrap();
    let pq = PreparedQuery::prepare(&g, &fallback_q, &PrepareOpts::default()).unwrap();
    assert_eq!(pq.engine_kind(), EngineKind::Naive);
    assert!(pq.stats().naive_solutions.is_some());
}

#[test]
fn inactive_branch_via_false_sentence() {
    let g = blue(generators::path(10), 2);
    // The sentence `exists u. (Blue(u) && !Blue(u))` is false, deactivating
    // the branch.
    let q = parse_query("(exists u. (Blue(u) && !Blue(u))) && E(x,y)").unwrap();
    let pq = PreparedQuery::prepare(&g, &q, &PrepareOpts::default()).unwrap();
    assert_eq!(pq.enumerate().count(), 0);
    assert!(!pq.test(&[0, 1]));
    assert_eq!(pq.count(), 0);

    // A true independence sentence keeps it active.
    let q = parse_query("(exists u. exists w. (dist(u,w) > 3 && Blue(u) && Blue(w))) && E(x,y)")
        .unwrap();
    let pq = PreparedQuery::prepare(&g, &q, &PrepareOpts::default()).unwrap();
    assert_eq!(pq.enumerate().count(), 18);
}

#[test]
fn multiple_constraints_same_pair() {
    let g = blue(generators::cycle(16), 2);
    // Annulus: 2 < dist ≤ 4.
    let q = parse_query("dist(x,y) > 2 && dist(x,y) <= 4 && Blue(y)").unwrap();
    let pq = PreparedQuery::prepare(&g, &q, &PrepareOpts::default()).unwrap();
    assert_eq!(pq.enumerate().collect::<Vec<_>>(), materialize(&g, &q));
    assert_eq!(pq.count(), materialize(&g, &q).len());
}

#[test]
fn head_reorders_answer_columns() {
    let g = blue(generators::path(12), 4);
    let fwd = parse_query("q(x, y) := dist(x,y) > 2 && Blue(y)").unwrap();
    let rev = parse_query("q(y, x) := dist(x,y) > 2 && Blue(y)").unwrap();
    let pq_f = PreparedQuery::prepare(&g, &fwd, &PrepareOpts::default()).unwrap();
    let pq_r = PreparedQuery::prepare(&g, &rev, &PrepareOpts::default()).unwrap();
    let mut swapped: Vec<Vec<Vertex>> = pq_f.enumerate().map(|t| vec![t[1], t[0]]).collect();
    swapped.sort();
    assert_eq!(pq_r.enumerate().collect::<Vec<_>>(), swapped);
}

#[test]
fn extra_head_variable_is_unconstrained() {
    let g = blue(generators::path(5), 2);
    let q = parse_query("q(x, y, z) := E(x, y)").unwrap();
    let pq = PreparedQuery::prepare(&g, &q, &PrepareOpts::default()).unwrap();
    // 8 ordered edges × 5 choices of z.
    assert_eq!(pq.count(), 8 * 5);
    assert_eq!(pq.enumerate().collect::<Vec<_>>(), materialize(&g, &q));
}

/// No index layout depends on `ε`: the saved bytes (`budget_nodes_spent`
/// included) are equal for every `ε`. Conformance checks one `ε` on the
/// strength of this; if a layout ever reads `ε`, this fails, and each `ε`
/// that changes the bytes needs a conformance config of its own.
#[test]
fn index_bytes_do_not_depend_on_epsilon() {
    for (g, src) in [
        (
            blue(generators::grid(14, 14), 3),
            "dist(x,y) > 2 && Blue(y)",
        ),
        (
            blue(generators::bounded_degree(200, 4, 3), 3),
            "dist(x,z) > 2 && dist(y,z) > 2 && Blue(z)",
        ),
    ] {
        let q = parse_query(src).unwrap();
        let save = |epsilon: f64| {
            let opts = PrepareOpts {
                epsilon,
                ..PrepareOpts::default()
            };
            let pq = PreparedQuery::prepare(&g, &q, &opts).unwrap();
            assert!(
                matches!(pq.engine_kind(), EngineKind::Indexed { .. }),
                "{src}"
            );
            pq.save_index_bytes(&q, src).unwrap()
        };
        let want = save(0.5);
        for epsilon in [0.25, 0.75, 1.0] {
            assert!(
                save(epsilon) == want,
                "{src}: ε = {epsilon} saves other bytes"
            );
        }
    }
}
