//! Fault-injection suite: no public entry point of the engine panics on
//! malformed input — it returns a typed error ([`PrepareError`],
//! [`QueryError`], `NdError`) or degrades down the preparation ladder.
//!
//! Covers: degenerate `ε`, unknown colors, relational atoms, tiny
//! wall-clock / node-expansion / memory budgets (with partial statistics
//! in the error), strict mode (`allow_fallback = false`), probe
//! validation, the Removal Lemma and dynamic-index front doors, and
//! randomized sweeps over all of the above.

use proptest::prelude::*;

use nd_core::{
    Budget, DegradationReason, DegradationRung, EngineKind, PrepareError, PrepareOpts,
    PrepareStats, PreparedQuery, QueryError, Resource, UnsupportedReason,
};
use nd_graph::{generators, ColoredGraph, Vertex};
use nd_logic::ast::{ColorRef, Formula, Query, VarId};
use nd_logic::eval::materialize;
use nd_logic::parse_query;

fn blue_grid(w: usize, h: usize) -> ColoredGraph {
    let mut g = generators::grid(w, h);
    let blue: Vec<Vertex> = (0..g.n() as Vertex).filter(|v| v % 3 == 0).collect();
    g.add_color(blue, Some("Blue".into()));
    g
}

fn far_query() -> Query {
    parse_query("dist(x,y) > 2 && Blue(y)").unwrap()
}

fn opts_with_budget(budget: Budget) -> PrepareOpts {
    PrepareOpts {
        budget,
        ..PrepareOpts::default()
    }
}

// -------------------------------------------------------------------
// Budgets.
// -------------------------------------------------------------------

#[test]
fn tiny_node_budget_is_a_typed_error_with_partial_stats() {
    let g = blue_grid(12, 12);
    let opts = opts_with_budget(Budget::UNLIMITED.with_node_expansions(8));
    match PreparedQuery::prepare(&g, &far_query(), &opts) {
        Err(PrepareError::BudgetExceeded { exceeded, partial }) => {
            assert_eq!(exceeded.resource, Resource::NodeExpansions);
            assert!(exceeded.spent > exceeded.cap, "{exceeded}");
            // The partial stats are non-empty: they carry the compiled
            // branch count, the spend, and the step-down reason.
            assert_ne!(*partial, PrepareStats::default());
            assert!(partial.budget_nodes_spent > 0);
            assert!(matches!(
                partial.degradation_reason,
                Some(DegradationReason::BudgetExceeded(_))
            ));
        }
        other => panic!("expected BudgetExceeded, got {other:?}"),
    }
}

#[test]
fn tiny_memory_budget_is_a_typed_error() {
    let g = blue_grid(12, 12);
    let opts = opts_with_budget(Budget::UNLIMITED.with_memory_bytes(64));
    match PreparedQuery::prepare(&g, &far_query(), &opts) {
        Err(PrepareError::BudgetExceeded { exceeded, .. }) => {
            assert_eq!(exceeded.resource, Resource::MemoryBytes);
        }
        other => panic!("expected BudgetExceeded, got {other:?}"),
    }
}

#[test]
fn zero_wall_clock_budget_is_a_typed_error() {
    let g = blue_grid(16, 16);
    let opts = opts_with_budget(Budget::UNLIMITED.with_wall_clock(std::time::Duration::ZERO));
    match PreparedQuery::prepare(&g, &far_query(), &opts) {
        Err(PrepareError::BudgetExceeded { exceeded, .. }) => {
            assert_eq!(exceeded.resource, Resource::WallClockMs);
        }
        other => panic!("expected BudgetExceeded, got {other:?}"),
    }
}

#[test]
fn strict_mode_reports_the_first_budget_failure() {
    let g = blue_grid(12, 12);
    let mut opts = opts_with_budget(Budget::UNLIMITED.with_node_expansions(8));
    opts.allow_fallback = false;
    assert!(matches!(
        PreparedQuery::prepare(&g, &far_query(), &opts),
        Err(PrepareError::BudgetExceeded { .. })
    ));
}

#[test]
fn budget_sweep_ok_results_are_correct_and_errors_are_typed() {
    let g = blue_grid(8, 8);
    let q = far_query();
    let want = materialize(&g, &q);
    let mut saw_err = false;
    let mut saw_ok = false;
    for shift in 0..22 {
        let opts = opts_with_budget(Budget::UNLIMITED.with_node_expansions(1 << shift));
        match PreparedQuery::prepare(&g, &q, &opts) {
            Ok(pq) => {
                saw_ok = true;
                assert_eq!(pq.enumerate().collect::<Vec<_>>(), want, "cap 2^{shift}");
            }
            Err(PrepareError::BudgetExceeded { .. }) => saw_err = true,
            Err(other) => panic!("unexpected error at cap 2^{shift}: {other:?}"),
        }
    }
    assert!(saw_err, "the smallest caps must exceed");
    assert!(saw_ok, "the largest caps must succeed");
}

#[test]
fn unlimited_budget_reports_indexed_rung_and_spend() {
    let g = blue_grid(8, 8);
    let pq = PreparedQuery::prepare(&g, &far_query(), &PrepareOpts::default()).unwrap();
    let s = pq.stats();
    assert_eq!(s.rung, DegradationRung::Indexed);
    assert!(s.degradation_reason.is_none());
    assert!(
        s.budget_nodes_spent > 0,
        "preparation must charge something"
    );
}

// -------------------------------------------------------------------
// The degradation ladder.
// -------------------------------------------------------------------

#[test]
fn non_fragment_query_records_fallback_rung_and_reason() {
    let g = blue_grid(4, 4);
    let q = parse_query("exists u. (E(x,u) && E(u,y)) && x != y").unwrap();
    let pq = PreparedQuery::prepare(&g, &q, &PrepareOpts::default()).unwrap();
    assert_eq!(pq.engine_kind(), EngineKind::Naive);
    let s = pq.stats();
    assert_eq!(s.rung, DegradationRung::NaiveFallback);
    assert!(matches!(
        s.degradation_reason,
        Some(DegradationReason::UnsupportedFragment(_))
    ));
}

#[test]
fn strict_mode_rejects_non_fragment_queries() {
    let g = blue_grid(4, 4);
    let q = parse_query("exists u. (E(x,u) && E(u,y)) && x != y").unwrap();
    let opts = PrepareOpts {
        allow_fallback: false,
        ..PrepareOpts::default()
    };
    assert!(matches!(
        PreparedQuery::prepare(&g, &q, &opts),
        Err(PrepareError::UnsupportedFragment(_))
    ));
}

#[test]
fn relational_atoms_never_fall_back_to_naive() {
    // The naive engine cannot evaluate R(x,y) over a colored graph, so the
    // ladder must refuse instead of degrading into a panic.
    let g = blue_grid(4, 4);
    let x = VarId(0);
    let y = VarId(1);
    let q = Query::new(Formula::Rel("R".into(), vec![x, y]), vec![x, y]);
    for allow in [true, false] {
        let opts = PrepareOpts {
            allow_fallback: allow,
            ..PrepareOpts::default()
        };
        assert!(matches!(
            PreparedQuery::prepare(&g, &q, &opts),
            Err(PrepareError::UnsupportedFragment(
                UnsupportedReason::RelationalAtom(_)
            ))
        ));
    }
}

// -------------------------------------------------------------------
// Malformed inputs.
// -------------------------------------------------------------------

#[test]
fn degenerate_epsilon_is_rejected_up_front() {
    let g = blue_grid(4, 4);
    for eps in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let opts = PrepareOpts {
            epsilon: eps,
            ..PrepareOpts::default()
        };
        match PreparedQuery::prepare(&g, &far_query(), &opts) {
            Err(PrepareError::InvalidInput(_)) => {}
            other => panic!("ε = {eps}: expected InvalidInput, got {other:?}"),
        }
    }
}

#[test]
fn unknown_colors_are_rejected_not_panicked_on() {
    let g = generators::grid(4, 4); // no colors at all
    let q = parse_query("NoSuchColor(x) && E(x,y)").unwrap();
    assert!(matches!(
        PreparedQuery::prepare(&g, &q, &PrepareOpts::default()),
        Err(PrepareError::InvalidInput(_))
    ));

    let x = VarId(0);
    let q_by_id = Query::new(Formula::Color(ColorRef::Id(7), x), vec![x]);
    assert!(matches!(
        PreparedQuery::prepare(&g, &q_by_id, &PrepareOpts::default()),
        Err(PrepareError::InvalidInput(_))
    ));
}

#[test]
fn probe_validation_is_typed() {
    let g = blue_grid(4, 4);
    let pq = PreparedQuery::prepare(&g, &far_query(), &PrepareOpts::default()).unwrap();
    assert!(matches!(
        pq.try_test(&[0]),
        Err(QueryError::ArityMismatch {
            expected: 2,
            got: 1
        })
    ));
    assert!(matches!(
        pq.try_test(&[0, 10_000]),
        Err(QueryError::VertexOutOfRange { v: 10_000, .. })
    ));
    assert!(matches!(
        pq.try_next_solution(&[0, 0, 0]),
        Err(QueryError::ArityMismatch { .. })
    ));
    // Out-of-range `from` probes are semantically fine for successor
    // queries: they simply have no successor.
    assert_eq!(pq.try_next_solution(&[u32::MAX, u32::MAX]), Ok(None));
}

#[test]
fn removal_lemma_front_door_is_panic_free() {
    let g = blue_grid(4, 4);
    let q = parse_query("dist(x,y) <= 2").unwrap();
    // Removing a vertex that does not exist.
    assert!(nd_core::removal::try_remove_node(&g, &q.formula, &[], 10_000).is_err());
    // Relational atoms must be rewritten away first.
    let x = VarId(0);
    let rel = Formula::Rel("R".into(), vec![x]);
    assert!(nd_core::removal::try_remove_node(&g, &rel, &[], 0).is_err());
    // The happy path still works.
    assert!(nd_core::removal::try_remove_node(&g, &q.formula, &[], 3).is_ok());
}

#[test]
fn empty_and_degenerate_graphs_never_panic() {
    let empty = generators::path(0);
    let q = parse_query("E(x,y)").unwrap();
    for cap in [1, 1 << 20] {
        let opts = opts_with_budget(Budget::UNLIMITED.with_node_expansions(cap));
        if let Ok(pq) = PreparedQuery::prepare(&empty, &q, &opts) {
            assert_eq!(pq.enumerate().count(), 0);
        }
    }
    // A sentence over the empty graph.
    let s = parse_query("exists x. E(x,x)").unwrap();
    if let Ok(pq) = PreparedQuery::prepare(&empty, &s, &PrepareOpts::default()) {
        assert!(!pq.test(&[]));
    }
}

// -------------------------------------------------------------------
// Randomized fault injection.
// -------------------------------------------------------------------

fn graph_strategy() -> impl Strategy<Value = ColoredGraph> {
    (4usize..24, 0u64..500, 0usize..3).prop_map(|(n, seed, family)| {
        let mut g = match family {
            0 => generators::random_tree(n, seed),
            1 => generators::bounded_degree(n, 3, seed),
            _ => generators::cycle(n),
        };
        let blue: Vec<Vertex> = (0..n as Vertex)
            .filter(|v| (v.wrapping_mul(2654435761).wrapping_add(seed as u32)) % 3 == 0)
            .collect();
        g.add_color(blue, Some("Blue".into()));
        g
    })
}

/// A fragment query over x, y with a far or close constraint.
fn fragment_query_strategy() -> impl Strategy<Value = Query> {
    let x = VarId(0);
    let y = VarId(1);
    prop_oneof![
        (1u32..4).prop_map(move |d| Query::new(
            Formula::and([
                Formula::dist_gt(x, y, d),
                Formula::Color(ColorRef::Named("Blue".into()), y),
            ]),
            vec![x, y],
        )),
        (1u32..4).prop_map(move |d| Query::new(
            Formula::and([
                Formula::DistLe(x, y, d),
                Formula::Eq(x, x),
                Formula::Eq(y, y)
            ]),
            vec![x, y],
        )),
        Just(Query::new(
            Formula::and([
                Formula::Edge(x, y),
                Formula::Not(Box::new(Formula::Eq(x, y)))
            ]),
            vec![x, y],
        )),
    ]
}

/// A query guaranteed to be outside the distance-type fragment: a single
/// conjunct whose free variables span three positions.
fn non_fragment_query_strategy() -> impl Strategy<Value = Query> {
    let x = VarId(0);
    let y = VarId(1);
    let z = VarId(2);
    prop_oneof![
        Just(Formula::Or(vec![Formula::Edge(x, y), Formula::Edge(y, z),])),
        Just(Formula::Or(vec![
            Formula::Eq(x, z),
            Formula::And(vec![Formula::Edge(x, y), Formula::Edge(y, z)]),
        ])),
        (1u32..3)
            .prop_map(move |d| Formula::Or(vec![Formula::DistLe(x, z, d), Formula::Edge(y, z),])),
    ]
    .prop_map(move |wide| {
        Query::new(
            Formula::and([
                wide,
                Formula::Eq(x, x),
                Formula::Eq(y, y),
                Formula::Eq(z, z),
            ]),
            vec![x, y, z],
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Random tiny budgets: preparation either succeeds (and then agrees
    /// with naive semantics) or reports a typed budget error with
    /// non-empty partial stats — it never panics or hangs.
    #[test]
    fn random_budgets_never_panic(
        g in graph_strategy(),
        q in fragment_query_strategy(),
        cap in 1u64..50_000,
    ) {
        let opts = opts_with_budget(Budget::UNLIMITED.with_node_expansions(cap));
        match PreparedQuery::prepare(&g, &q, &opts) {
            Ok(pq) => {
                let want = materialize(&g, &q);
                prop_assert_eq!(pq.enumerate().collect::<Vec<_>>(), want);
            }
            Err(PrepareError::BudgetExceeded { exceeded, partial }) => {
                prop_assert_eq!(exceeded.resource, Resource::NodeExpansions);
                prop_assert_ne!(*partial, PrepareStats::default());
            }
            Err(other) => prop_assert!(false, "unexpected error: {other:?}"),
        }
    }

    /// Strict mode over random general-FO queries: always the typed
    /// fragment error, never a panic, never a silent naive fallback.
    #[test]
    fn strict_mode_never_silently_falls_back(
        g in graph_strategy(),
        q in non_fragment_query_strategy(),
    ) {
        let opts = PrepareOpts {
            allow_fallback: false,
            ..PrepareOpts::default()
        };
        match PreparedQuery::prepare(&g, &q, &opts) {
            Err(PrepareError::UnsupportedFragment(_)) => {}
            Ok(pq) => prop_assert!(
                false,
                "silently prepared a non-fragment query as {:?}",
                pq.engine_kind()
            ),
            Err(other) => prop_assert!(false, "unexpected error: {other:?}"),
        }
    }

    /// The same queries with fallback on: prepared naively, with the rung
    /// recorded, and matching naive semantics.
    #[test]
    fn permissive_mode_records_the_fallback(
        g in graph_strategy(),
        q in non_fragment_query_strategy(),
    ) {
        let pq = PreparedQuery::prepare(&g, &q, &PrepareOpts::default()).unwrap();
        prop_assert_eq!(pq.stats().rung, DegradationRung::NaiveFallback);
        let want = materialize(&g, &q);
        prop_assert_eq!(pq.enumerate().collect::<Vec<_>>(), want);
    }

    /// Degenerate ε values over random graphs: typed rejection, no panic.
    #[test]
    fn random_epsilon_faults_never_panic(
        g in graph_strategy(),
        q in fragment_query_strategy(),
        scaled in -4i32..5,
    ) {
        // ε sweeps through negatives, zero, and valid magnitudes.
        let eps = scaled as f64 / 2.0;
        let opts = PrepareOpts {
            epsilon: eps,
            ..PrepareOpts::default()
        };
        match PreparedQuery::prepare(&g, &q, &opts) {
            Ok(pq) => {
                prop_assert!(eps > 0.0);
                let want = materialize(&g, &q);
                prop_assert_eq!(pq.enumerate().collect::<Vec<_>>(), want);
            }
            Err(PrepareError::InvalidInput(_)) => prop_assert!(eps <= 0.0),
            Err(other) => prop_assert!(false, "unexpected error: {other:?}"),
        }
    }
}
