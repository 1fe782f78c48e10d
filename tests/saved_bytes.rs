//! Golden digests of saved index files. A prepare is a pure function of
//! the graph, the query and the options, and so is its saved file, so the
//! bytes of a fixed input pin down every layer the file holds (covers,
//! kernels, oracles, unary lists and skip tables) at once. The mixed
//! near/far query pins the bag rows that a `dist ≤ d` probe walks beside
//! the kernels and skip table of its far constraint. A change that
//! means to keep the index as it is must keep these digests.
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

fn saved_digest(g: &ColoredGraph, src: &str) -> u64 {
    let q = parse_query(src).unwrap();
    let prepared = PreparedQuery::prepare(g, &q, &PrepareOpts::default()).unwrap();
    let stats = prepared.stats();
    assert_eq!(stats.rung, DegradationRung::Indexed, "{src}");
    assert!(stats.cover_bags > 0 && stats.skip_entries > 0, "{src}");
    fnv1a(&prepared.save_index_bytes(&q, src).unwrap())
}

#[test]
fn saved_index_bytes_match_their_golden_digests() {
    let cases = [
        (
            "bounded degree 4, n = 600, the ternary far query",
            blue(generators::bounded_degree(600, 4, 3)),
            "dist(x,z) > 2 && dist(y,z) > 2 && Blue(z)",
            0xc372_2bed_74dd_79a8,
        ),
        (
            "grid 20x20, the binary far query",
            blue(generators::grid(20, 20)),
            "dist(x,y) > 2 && Blue(y)",
            0xf763_2e00_56c7_24ae,
        ),
        (
            "bounded degree 4, n = 600, the mixed near/far query",
            blue(generators::bounded_degree(600, 4, 3)),
            "dist(x,y) <= 2 && dist(y,z) > 2 && Blue(z)",
            0x3065_6380_883f_c8b8,
        ),
    ];
    for (name, g, src, want) in cases {
        let got = saved_digest(&g, src);
        assert_eq!(got, want, "{name}: digest {got:#018x}");
    }
}
