//! Graph families used as empirical stand-ins for nowhere dense classes.
//!
//! Nowhere denseness is a property of infinite *classes*; to exercise the
//! algorithms we generate members of concrete classes known to be nowhere
//! dense (planar grids, trees/forests, bounded-degree graphs, long-path
//! subdivisions) plus *dense contrast* families (`G(n,m)` with superlinear
//! `m`, cliques) on which the guarantees are expected to degrade — see
//! experiment A3 in DESIGN.md.

use crate::builder::GraphBuilder;
use crate::graph::{ColoredGraph, Vertex};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A path `0 - 1 - … - (n-1)`.
pub fn path(n: usize) -> ColoredGraph {
    let mut b = GraphBuilder::new(n);
    for v in 1..n {
        b.add_edge((v - 1) as Vertex, v as Vertex);
    }
    b.build()
}

/// A cycle on `n ≥ 3` vertices (for `n < 3`, a path).
pub fn cycle(n: usize) -> ColoredGraph {
    let mut b = GraphBuilder::new(n);
    for v in 1..n {
        b.add_edge((v - 1) as Vertex, v as Vertex);
    }
    if n >= 3 {
        b.add_edge((n - 1) as Vertex, 0);
    }
    b.build()
}

/// A star with center `0` and `n-1` leaves.
pub fn star(n: usize) -> ColoredGraph {
    let mut b = GraphBuilder::new(n);
    for v in 1..n {
        b.add_edge(0, v as Vertex);
    }
    b.build()
}

/// The complete graph `K_n` (dense contrast family).
pub fn clique(n: usize) -> ColoredGraph {
    let mut b = GraphBuilder::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            b.add_edge(u as Vertex, v as Vertex);
        }
    }
    b.build()
}

/// A `w × h` grid (planar, hence nowhere dense). Vertex `(x, y)` has id
/// `y*w + x`.
pub fn grid(w: usize, h: usize) -> ColoredGraph {
    let mut b = GraphBuilder::new(w * h);
    let id = |x: usize, y: usize| (y * w + x) as Vertex;
    for y in 0..h {
        for x in 0..w {
            if x + 1 < w {
                b.add_edge(id(x, y), id(x + 1, y));
            }
            if y + 1 < h {
                b.add_edge(id(x, y), id(x, y + 1));
            }
        }
    }
    b.build()
}

/// A complete binary tree with `n` vertices (vertex `v` has children
/// `2v+1`, `2v+2`).
pub fn binary_tree(n: usize) -> ColoredGraph {
    let mut b = GraphBuilder::new(n);
    for v in 1..n {
        b.add_edge(v as Vertex, ((v - 1) / 2) as Vertex);
    }
    b.build()
}

/// A uniformly random labelled tree on `n` vertices (random attachment:
/// vertex `v` attaches to a uniform earlier vertex).
pub fn random_tree(n: usize, seed: u64) -> ColoredGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    for v in 1..n {
        let p = rng.random_range(0..v);
        b.add_edge(v as Vertex, p as Vertex);
    }
    b.build()
}

/// A random forest: a random tree with each edge kept with probability
/// `keep`.
pub fn random_forest(n: usize, keep: f64, seed: u64) -> ColoredGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    for v in 1..n {
        if rng.random_bool(keep.clamp(0.0, 1.0)) {
            let p = rng.random_range(0..v);
            b.add_edge(v as Vertex, p as Vertex);
        }
    }
    b.build()
}

/// A random graph with maximum degree at most `d` (bounded degree ⊂ bounded
/// expansion ⊂ nowhere dense). Samples `n*d/2` candidate edges and keeps
/// those that respect the degree bound.
pub fn bounded_degree(n: usize, d: usize, seed: u64) -> ColoredGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut deg = vec![0usize; n];
    let mut b = GraphBuilder::new(n);
    if n < 2 {
        return b.build();
    }
    let target = n * d / 2;
    let mut attempts = 0usize;
    let mut added = 0usize;
    let max_attempts = target * 8 + 64;
    let mut seen = std::collections::HashSet::new();
    while added < target && attempts < max_attempts {
        attempts += 1;
        let u = rng.random_range(0..n);
        let v = rng.random_range(0..n);
        if u == v || deg[u] >= d || deg[v] >= d {
            continue;
        }
        let key = (u.min(v), u.max(v));
        if !seen.insert(key) {
            continue;
        }
        deg[u] += 1;
        deg[v] += 1;
        b.add_edge(u as Vertex, v as Vertex);
        added += 1;
    }
    b.build()
}

/// Erdős–Rényi `G(n, m)`: `m` uniformly random distinct edges (dense
/// contrast family when `m` is superlinear).
pub fn gnm(n: usize, m: usize, seed: u64) -> ColoredGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    if n < 2 {
        return b.build();
    }
    let max_m = n * (n - 1) / 2;
    let m = m.min(max_m);
    let mut seen = std::collections::HashSet::with_capacity(m * 2);
    while seen.len() < m {
        let u = rng.random_range(0..n);
        let v = rng.random_range(0..n);
        if u != v && seen.insert((u.min(v), u.max(v))) {
            b.add_edge(u as Vertex, v as Vertex);
        }
    }
    b.build()
}

/// A caterpillar: a spine path of length `spine` with `legs` pendant leaves
/// per spine vertex.
pub fn caterpillar(spine: usize, legs: usize) -> ColoredGraph {
    let n = spine + spine * legs;
    let mut b = GraphBuilder::new(n);
    for v in 1..spine {
        b.add_edge((v - 1) as Vertex, v as Vertex);
    }
    let mut next = spine;
    for s in 0..spine {
        for _ in 0..legs {
            b.add_edge(s as Vertex, next as Vertex);
            next += 1;
        }
    }
    b.build()
}

/// The exact 1-subdivision of `K_n`: every edge of the clique replaced by a
/// path of length 2. Subdivided cliques are sparse (`‖G‖ = O(|G|)`) yet have
/// unbounded average "shallow" density at depth 1 — a classical example
/// separating degrees of sparseness.
pub fn subdivided_clique(n: usize) -> ColoredGraph {
    let edges = n * n.saturating_sub(1) / 2;
    let mut b = GraphBuilder::new(n + edges);
    let mut next = n;
    for u in 0..n {
        for v in (u + 1)..n {
            b.add_edge(u as Vertex, next as Vertex);
            b.add_edge(v as Vertex, next as Vertex);
            next += 1;
        }
    }
    b.build()
}

/// A random "near-planar" graph: a grid with `extra` random chords of length
/// at most `chord_radius` in grid distance (locally perturbed planar graph;
/// stays in a bounded-expansion-like regime for small parameters).
pub fn perturbed_grid(w: usize, h: usize, extra: usize, seed: u64) -> ColoredGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = w * h;
    let mut b = GraphBuilder::new(n);
    let id = |x: usize, y: usize| (y * w + x) as Vertex;
    for y in 0..h {
        for x in 0..w {
            if x + 1 < w {
                b.add_edge(id(x, y), id(x + 1, y));
            }
            if y + 1 < h {
                b.add_edge(id(x, y), id(x, y + 1));
            }
        }
    }
    for _ in 0..extra {
        let x = rng.random_range(0..w);
        let y = rng.random_range(0..h);
        let dx = rng.random_range(0..3usize);
        let dy = rng.random_range(0..3usize);
        let (x2, y2) = ((x + dx).min(w - 1), (y + dy).min(h - 1));
        if (x, y) != (x2, y2) {
            b.add_edge(id(x, y), id(x2, y2));
        }
    }
    b.build()
}

/// Barabási–Albert preferential attachment: each new vertex attaches to
/// `m` existing vertices chosen proportionally to their degree. Scale-free
/// degree distribution: sparse overall (`‖G‖ ≈ m·n`) but with high-degree
/// hubs, sitting between the uniform sparse families and the dense
/// contrasts — a stress test for cover/kernel degree.
pub fn barabasi_albert(n: usize, m: usize, seed: u64) -> ColoredGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    if n == 0 {
        return b.build();
    }
    // Endpoint multiset: each edge contributes both endpoints, so sampling
    // uniformly from it is degree-proportional sampling.
    let mut endpoints: Vec<Vertex> = vec![0];
    for v in 1..n {
        // Walked in order below, so the endpoint multiset, and with it
        // every later draw, depends on the seed alone.
        let mut targets = std::collections::BTreeSet::new();
        let wanted = m.min(v);
        let mut guard = 0;
        while targets.len() < wanted && guard < 16 * m + 16 {
            guard += 1;
            let t = endpoints[rng.random_range(0..endpoints.len())];
            if (t as usize) < v {
                targets.insert(t);
            }
        }
        for &t in &targets {
            b.add_edge(v as Vertex, t);
            endpoints.push(v as Vertex);
            endpoints.push(t);
        }
        if targets.is_empty() {
            endpoints.push(v as Vertex); // keep isolated vertices samplable
        }
    }
    b.build()
}

/// Assign `num_colors` random colors; every vertex gets each color
/// independently with probability `density`. Colors are named `C0`, `C1`, ….
pub fn with_random_colors(
    mut g: ColoredGraph,
    num_colors: usize,
    density: f64,
    seed: u64,
) -> ColoredGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    for c in 0..num_colors {
        let members: Vec<Vertex> = g
            .vertices()
            .filter(|_| rng.random_bool(density.clamp(0.0, 1.0)))
            .collect();
        g.add_color(members, Some(format!("C{c}")));
    }
    g
}

// ---------------------------------------------------------------------
// Metamorphic transforms (conformance testing).
//
// These are not graph *families* but seeded, structure-preserving (or
// deliberately structure-shrinking) rewrites of an existing instance. The
// `nd-conform` harness uses them to state invariants no single engine run
// can check: FO answers are equivariant under relabeling, and monotone
// queries only lose answers under vertex deletion.
// ---------------------------------------------------------------------

/// A seeded uniform permutation of `0..n` (Fisher–Yates over splitmix64).
pub fn random_permutation(n: usize, seed: u64) -> Vec<Vertex> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut perm: Vec<Vertex> = (0..n as Vertex).collect();
    for i in (1..n).rev() {
        let j = rng.random_range(0..i + 1);
        perm.swap(i, j);
    }
    perm
}

/// Relabel `g` by `perm`: vertex `v` of the input becomes `perm[v]` of the
/// output. Edges and colors (including names) are carried over, so for any
/// FO query `q`, `t ∈ q(g)` iff `perm(t) ∈ q(permuted(g, perm))`.
///
/// `perm` must be a permutation of `0..g.n()` (checked).
pub fn permuted(g: &ColoredGraph, perm: &[Vertex]) -> ColoredGraph {
    assert_eq!(perm.len(), g.n(), "permutation length mismatch");
    let mut seen = vec![false; g.n()];
    for &p in perm {
        assert!(
            (p as usize) < g.n() && !std::mem::replace(&mut seen[p as usize], true),
            "not a permutation"
        );
    }
    let mut b = GraphBuilder::new(g.n());
    for (u, v) in g.edges() {
        b.add_edge(perm[u as usize], perm[v as usize]);
    }
    let mut out = b.build();
    for c in 0..g.num_colors() {
        let id = crate::graph::ColorId(c as u32);
        let members = g
            .color_members(id)
            .iter()
            .map(|&v| perm[v as usize])
            .collect();
        out.add_color(members, g.color_name(id).map(str::to_owned));
    }
    out
}

/// Delete vertex `v`: the induced subgraph on the remaining vertices, with
/// ids compacted (`w > v` becomes `w - 1`) and colors carried over. The
/// compaction map is order-preserving, so lexicographic comparisons of
/// answer tuples survive the translation.
pub fn remove_vertex(g: &ColoredGraph, v: Vertex) -> ColoredGraph {
    assert!((v as usize) < g.n(), "vertex out of range");
    let shift = |w: Vertex| if w > v { w - 1 } else { w };
    let mut b = GraphBuilder::new(g.n() - 1);
    for (x, y) in g.edges() {
        if x != v && y != v {
            b.add_edge(shift(x), shift(y));
        }
    }
    let mut out = b.build();
    for c in 0..g.num_colors() {
        let id = crate::graph::ColorId(c as u32);
        let members = g
            .color_members(id)
            .iter()
            .filter(|&&w| w != v)
            .map(|&w| shift(w))
            .collect();
        out.add_color(members, g.color_name(id).map(str::to_owned));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_and_cycle() {
        assert_eq!(path(5).m(), 4);
        assert_eq!(cycle(5).m(), 5);
        assert_eq!(cycle(2).m(), 1);
    }

    #[test]
    fn grid_shape() {
        let g = grid(3, 4);
        assert_eq!(g.n(), 12);
        assert_eq!(g.m(), 2 * 12 - 3 - 4); // 2wh - w - h
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(4), 4); // interior of 3x4: (1,1)=4
    }

    #[test]
    fn trees_are_trees() {
        for seed in 0..5 {
            let g = random_tree(50, seed);
            assert_eq!(g.m(), 49);
            // connectivity via BFS
            let b = crate::bfs::ball(&g, 0, 100);
            assert_eq!(b.len(), 50);
        }
    }

    #[test]
    fn bounded_degree_respects_bound() {
        let g = bounded_degree(200, 4, 7);
        assert!(g.max_degree() <= 4);
        assert!(g.m() > 100); // should get reasonably close to n*d/2 = 400
    }

    #[test]
    fn gnm_edge_count() {
        let g = gnm(50, 100, 3);
        assert_eq!(g.m(), 100);
        let g = gnm(5, 1000, 3);
        assert_eq!(g.m(), 10); // capped at complete graph
    }

    #[test]
    fn subdivided_clique_is_sparse() {
        let g = subdivided_clique(10);
        assert_eq!(g.n(), 10 + 45);
        assert_eq!(g.m(), 90);
        assert_eq!(g.max_degree(), 9);
    }

    #[test]
    fn caterpillar_shape() {
        let g = caterpillar(4, 2);
        assert_eq!(g.n(), 12);
        assert_eq!(g.m(), 3 + 8);
    }

    #[test]
    fn random_colors_density() {
        let g = with_random_colors(path(1000), 2, 0.5, 1);
        assert_eq!(g.num_colors(), 2);
        let c = g.color_members(crate::graph::ColorId(0)).len();
        assert!((300..700).contains(&c), "density far off: {c}");
        assert_eq!(g.color_by_name("C1"), Some(crate::graph::ColorId(1)));
    }

    #[test]
    fn barabasi_albert_shape() {
        let g = barabasi_albert(500, 3, 4);
        assert_eq!(g.n(), 500);
        // Roughly m edges per vertex (duplicate draws reduce slightly).
        assert!(g.m() > 2 * 500 / 2 && g.m() <= 3 * 500);
        // Scale-free: the hubs should far exceed the mean degree.
        let mean = 2.0 * g.m() as f64 / g.n() as f64;
        assert!(g.max_degree() as f64 > 4.0 * mean, "no hubs emerged");
        // Connected by construction (every vertex attaches to an earlier one).
        assert_eq!(crate::bfs::ball(&g, 0, 1_000).len(), 500);
    }

    /// The same seed gives the same graph, edge for edge.
    #[test]
    fn barabasi_albert_is_deterministic() {
        let edges = |seed| barabasi_albert(300, 3, seed).edges().collect::<Vec<_>>();
        assert_eq!(edges(7), edges(7));
        assert_ne!(edges(7), edges(8));
    }

    #[test]
    fn permutation_is_uniformly_valid() {
        for seed in 0..5 {
            let p = random_permutation(40, seed);
            let mut sorted = p.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..40).collect::<Vec<_>>());
        }
        assert_ne!(random_permutation(40, 1), random_permutation(40, 2));
    }

    #[test]
    fn permuted_preserves_structure() {
        let mut g = grid(4, 3);
        g.add_color(vec![0, 3, 7], Some("Blue".into()));
        let perm = random_permutation(g.n(), 9);
        let h = permuted(&g, &perm);
        assert_eq!(h.n(), g.n());
        assert_eq!(h.m(), g.m());
        for (u, v) in g.edges() {
            assert!(h.has_edge(perm[u as usize], perm[v as usize]));
        }
        let blue = h.color_by_name("Blue").unwrap();
        let mut want: Vec<Vertex> = [0u32, 3, 7].iter().map(|&v| perm[v as usize]).collect();
        want.sort_unstable();
        assert_eq!(h.color_members(blue), want.as_slice());
    }

    #[test]
    fn remove_vertex_compacts_ids() {
        let mut g = path(5); // 0-1-2-3-4
        g.add_color(vec![1, 3], Some("Blue".into()));
        let h = remove_vertex(&g, 2);
        assert_eq!(h.n(), 4);
        // Edges 0-1 and (3-4 shifted to) 2-3 survive; 1-2 and 2-3 die.
        assert_eq!(h.m(), 2);
        assert!(h.has_edge(0, 1) && h.has_edge(2, 3));
        let blue = h.color_by_name("Blue").unwrap();
        assert_eq!(h.color_members(blue), &[1, 2]);
    }

    #[test]
    fn binary_tree_shape() {
        let g = binary_tree(7);
        assert_eq!(g.m(), 6);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[0, 3, 4]);
    }
}
