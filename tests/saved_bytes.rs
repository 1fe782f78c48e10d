//! Golden digests of saved index files. A prepare is a pure function of
//! the graph, the query and the options, and so is its saved file, so the
//! bytes of a fixed input pin down every layer the file holds (covers,
//! kernels, oracles, unary lists and skip tables) at once. The mixed
//! near/far query pins the bag rows that a `dist ≤ d` probe walks beside
//! the kernels and skip table of its far constraint. The radius-3 far
//! query's oracle is too large for one flat table, so it pins the layout
//! of a splitter-recursion level. A change that means to keep the index
//! as it is must keep these digests.
//!
//! The constants change only together with a `FORMAT_VERSION` bump that
//! CHANGES.md records.

use nowhere_dense::core::{DegradationRung, PrepareOpts, PreparedQuery};
use nowhere_dense::graph::{generators, ColoredGraph, Vertex};
use nowhere_dense::logic::parse_query;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Color about a third of the vertices Blue, by a fixed hash of the id.
fn blue(mut g: ColoredGraph) -> ColoredGraph {
    let n = g.n() as Vertex;
    let members = (0..n)
        .filter(|v| v.wrapping_mul(2_654_435_761).rotate_right(7) % 3 == 0)
        .collect();
    g.add_color(members, Some("Blue".into()));
    g
}

/// The digest of the saved index, and how many of its oracles are one
/// flat ball table.
fn saved_digest(g: &ColoredGraph, src: &str) -> (u64, usize) {
    let q = parse_query(src).unwrap();
    let prepared = PreparedQuery::prepare(g, &q, &PrepareOpts::default()).unwrap();
    let stats = prepared.stats();
    assert_eq!(stats.rung, DegradationRung::Indexed, "{src}");
    assert!(stats.cover_bags > 0 && stats.skip_entries > 0, "{src}");
    let bytes = prepared.save_index_bytes(&q, src).unwrap();
    (fnv1a(&bytes), stats.oracle_flat)
}

#[test]
fn saved_index_bytes_match_their_golden_digests() {
    // (name, graph, query, flat oracles, digest)
    let cases = [
        (
            "bounded degree 4, n = 600, the ternary far query",
            blue(generators::bounded_degree(600, 4, 3)),
            "dist(x,z) > 2 && dist(y,z) > 2 && Blue(z)",
            1,
            0xe089_a94a_95ae_dfa1,
        ),
        (
            "grid 20x20, the binary far query",
            blue(generators::grid(20, 20)),
            "dist(x,y) > 2 && Blue(y)",
            1,
            0x85c4_ee18_83a9_7607,
        ),
        (
            "bounded degree 4, n = 600, the mixed near/far query",
            blue(generators::bounded_degree(600, 4, 3)),
            "dist(x,y) <= 2 && dist(y,z) > 2 && Blue(z)",
            1,
            0x1437_26d0_bf54_46ad,
        ),
        (
            "grid 20x20, a far query whose radius-3 oracle splits",
            blue(generators::grid(20, 20)),
            "dist(x,y) > 3 && Blue(y)",
            0,
            0x1846_b7ee_f68b_c801,
        ),
    ];
    for (name, g, src, flat, want) in cases {
        let (got, oracle_flat) = saved_digest(&g, src);
        assert_eq!(oracle_flat, flat, "{name}: flat oracles");
        assert_eq!(got, want, "{name}: digest {got:#018x}");
    }
}
