//! Property tests: the indexed engine against naive semantics on random
//! graphs and randomly assembled fragment queries.

use proptest::prelude::*;

use nd_core::{PrepareOpts, PreparedQuery};
use nd_graph::{generators, ColoredGraph, GraphBuilder, Vertex};
use nd_logic::ast::{ColorRef, Formula, Query, VarId};
use nd_logic::eval::materialize;

/// A random sparse-ish colored graph.
fn graph_strategy() -> impl Strategy<Value = ColoredGraph> {
    (4usize..26, 0u64..1000, 0usize..3).prop_map(|(n, seed, family)| {
        let base = match family {
            0 => generators::random_tree(n, seed),
            1 => generators::bounded_degree(n, 3, seed),
            _ => generators::random_forest(n, 0.8, seed),
        };
        let mut g = base;
        let blue: Vec<Vertex> = (0..n as Vertex)
            .filter(|v| (v.wrapping_mul(2654435761).wrapping_add(seed as u32)) % 3 == 0)
            .collect();
        let red: Vec<Vertex> = (0..n as Vertex)
            .filter(|v| (v.wrapping_mul(97).wrapping_add(seed as u32)) % 4 == 1)
            .collect();
        g.add_color(blue, Some("Blue".into()));
        g.add_color(red, Some("Red".into()));
        g
    })
}

/// A random binary-constraint atom between two variables.
fn binary_atom(x: VarId, y: VarId) -> impl Strategy<Value = Formula> {
    prop_oneof![
        (1u32..4).prop_map(move |d| Formula::DistLe(x, y, d)),
        (1u32..4).prop_map(move |d| Formula::dist_gt(x, y, d)),
        Just(Formula::Edge(x, y)),
        Just(Formula::Not(Box::new(Formula::Edge(x, y)))),
        Just(Formula::Eq(x, y)),
        Just(Formula::Not(Box::new(Formula::Eq(x, y)))),
    ]
}

/// A random unary conjunct for a variable.
fn unary_atom(x: VarId) -> impl Strategy<Value = Formula> {
    prop_oneof![
        Just(Formula::Color(ColorRef::Named("Blue".into()), x)),
        Just(Formula::Color(ColorRef::Named("Red".into()), x)),
        Just(Formula::Not(Box::new(Formula::Color(
            ColorRef::Named("Blue".into()),
            x
        )))),
        Just(Formula::True),
    ]
}

/// A random fragment query of arity 2 or 3: one unary conjunct per
/// variable plus a subset of pairwise constraints.
fn query_strategy() -> impl Strategy<Value = Query> {
    (2usize..4).prop_flat_map(|k| {
        let vars: Vec<VarId> = (0..k as u32).map(VarId).collect();
        let unaries: Vec<_> = vars.iter().map(|&v| unary_atom(v)).collect();
        let pairs: Vec<(usize, usize)> = (0..k)
            .flat_map(|i| ((i + 1)..k).map(move |j| (i, j)))
            .collect();
        let binaries: Vec<_> = pairs
            .iter()
            .map(|&(i, j)| {
                prop_oneof![
                    2 => binary_atom(VarId(i as u32), VarId(j as u32)).prop_map(Some),
                    1 => Just(None),
                ]
            })
            .collect();
        (unaries, binaries).prop_map(move |(us, bs)| {
            let mut parts: Vec<Formula> = Vec::new();
            parts.extend(us);
            parts.extend(bs.into_iter().flatten());
            // Ensure every variable is free: conjoin x = x as a no-op
            // equality... Eq(x, x) is always true but keeps x free.
            for &v in &vars {
                parts.push(Formula::Eq(v, v));
            }
            Query::new(Formula::and(parts), vars.clone())
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn indexed_engine_matches_naive(g in graph_strategy(), q in query_strategy()) {
        let opts = PrepareOpts {
            epsilon: 0.5,
            allow_fallback: true,
            ..PrepareOpts::default()
        };
        let prepared = PreparedQuery::prepare(&g, &q, &opts).unwrap();
        let want = materialize(&g, &q);
        let got: Vec<_> = prepared.enumerate().collect();
        prop_assert_eq!(&got, &want);

        // next_solution at random probes.
        for s in 0..8u32 {
            let probe: Vec<Vertex> = (0..q.arity())
                .map(|i| (s.wrapping_mul(7 + i as u32 * 13)) % g.n() as u32)
                .collect();
            let idx = want.partition_point(|t| t < &probe);
            prop_assert_eq!(prepared.next_solution(&probe), want.get(idx).cloned());
            let member = want.binary_search(&probe).is_ok();
            prop_assert_eq!(prepared.test(&probe), member);
        }
    }

    #[test]
    fn extendability_toggle_is_invisible(g in graph_strategy(), q in query_strategy()) {
        let with = PreparedQuery::prepare(&g, &q, &PrepareOpts {
            extendability_check: true, ..PrepareOpts::default()
        }).unwrap();
        let without = PreparedQuery::prepare(&g, &q, &PrepareOpts {
            extendability_check: false, ..PrepareOpts::default()
        }).unwrap();
        prop_assert_eq!(
            with.enumerate().collect::<Vec<_>>(),
            without.enumerate().collect::<Vec<_>>()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn union_queries_match_naive(
        g in graph_strategy(),
        q1 in query_strategy(),
        q2 in query_strategy(),
    ) {
        // Splice two random conjunctive queries of the same arity into a
        // union; pad the shorter one by reusing its own formula.
        prop_assume!(q1.arity() == q2.arity());
        let q = Query::new(
            Formula::or([q1.formula.clone(), q2.formula.clone()]),
            q1.free.clone(),
        );
        let prepared = PreparedQuery::prepare(&g, &q, &PrepareOpts::default()).unwrap();
        let want = materialize(&g, &q);
        prop_assert_eq!(prepared.enumerate().collect::<Vec<_>>(), want);
    }

    #[test]
    fn counting_matches_enumeration(g in graph_strategy(), q in query_strategy()) {
        let prepared = PreparedQuery::prepare(&g, &q, &PrepareOpts::default()).unwrap();
        prop_assert_eq!(prepared.count(), prepared.enumerate().count());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The resumable enumerator against the definition it shortcuts:
    /// every step must equal `next_solution(lex_increment(prev))`, on
    /// single queries and two-branch unions, with the extendability
    /// pre-check on and off.
    #[test]
    fn resumed_enumeration_matches_the_restart_chain(
        g in graph_strategy(),
        q1 in query_strategy(),
        q2 in query_strategy(),
        union in any::<bool>(),
        extend in any::<bool>(),
        seed in 0u32..10_000,
        m in 1usize..24,
    ) {
        let q = if union && q1.arity() == q2.arity() {
            Query::new(Formula::or([q1.formula, q2.formula]), q1.free)
        } else {
            q1
        };
        let opts = PrepareOpts {
            extendability_check: extend,
            ..PrepareOpts::default()
        };
        let pq = PreparedQuery::prepare(&g, &q, &opts).unwrap();
        prop_assert_eq!(pq.enumerate().collect::<Vec<_>>(), materialize(&g, &q));

        for s in 0..6u32 {
            // Start points over [0, n]^k: n itself is out of range, which
            // next_solution accepts as "no successor in that subrange".
            let t: Vec<Vertex> = (0..q.arity() as u32)
                .map(|p| seed.wrapping_mul(2_654_435_761).wrapping_add(s * 7919 + p * 104_729) % (g.n() as u32 + 1))
                .collect();
            let mut chain = Vec::new();
            let mut cur = pq.next_solution(&t);
            while let Some(sol) = cur.filter(|_| chain.len() < m) {
                cur = pq.lex_increment(&sol).and_then(|succ| pq.next_solution(&succ));
                chain.push(sol);
            }
            let resumed: Vec<_> = pq.enumerate_from(&t).unwrap().take(m).collect();
            prop_assert_eq!(resumed, chain, "from {:?}", t);
        }
    }
}

#[test]
fn eq_self_loops_regression() {
    // Eq(x, x) used by the generator must not confuse the compiler: it has
    // one free variable, so it lands in the unary slot.
    let mut b = GraphBuilder::new(3);
    b.add_edge(0, 1);
    let mut g = b.build();
    g.add_color(vec![0, 2], Some("Blue".into()));
    g.add_color(vec![], Some("Red".into()));
    let q = Query::new(
        Formula::and([
            Formula::Eq(VarId(0), VarId(0)),
            Formula::Eq(VarId(1), VarId(1)),
            Formula::Edge(VarId(0), VarId(1)),
        ]),
        vec![VarId(0), VarId(1)],
    );
    let prepared = PreparedQuery::prepare(&g, &q, &PrepareOpts::default()).unwrap();
    assert_eq!(
        prepared.enumerate().collect::<Vec<_>>(),
        vec![vec![0, 1], vec![1, 0]]
    );
}
