//! An independent reference for the greedy cover and its fused kernel
//! rows, written from the definitions: each bag is a sorted ball from a
//! plain BFS, and a member is in `K_q(X)` when its own `q`-ball lies
//! inside the bag. It makes the cover build's charges in the cover
//! build's order, so builds must agree byte for byte on the encodings and
//! exactly on the budget spent, capped runs included.

use crate::kernel::dense_words;
use crate::{row_end, BagId, Cover, CoverTimings, KernelIndex, GREEDY_BYTES_PER_VERTEX};
use nd_graph::budget::{Budget, BudgetExceeded, BudgetTracker, Phase};
use nd_graph::{generators, BfsScratch, ColoredGraph, GraphBuilder, Vertex};
use proptest::prelude::*;

/// The greedy `(r, 2r)`-cover with, for `Some(p)`, the `K_p` row of every
/// bag, from `ball_sorted` balls and a per-member kernel check.
fn naive_greedy(
    g: &ColoredGraph,
    r: u32,
    kernel_radius: Option<u32>,
    tracker: &BudgetTracker,
) -> Result<(Cover, Option<KernelIndex>), BudgetExceeded> {
    let n = g.n();
    let mut bfs = BfsScratch::new(n);
    let mut assignment: Vec<Option<BagId>> = vec![None; n];
    let (mut centers, mut starts, mut members) = (Vec::new(), vec![0], Vec::new());
    let (mut kernel_starts, mut kernel_members) = (vec![0], Vec::new());
    tracker.charge_memory(Phase::CoverConstruction, GREEDY_BYTES_PER_VERTEX * n as u64)?;
    for c in 0..n as Vertex {
        if assignment[c as usize].is_some() {
            continue;
        }
        let id = centers.len() as BagId;
        let bag = bfs.ball_sorted(g, c, 2 * r);
        tracker.charge_nodes(Phase::CoverConstruction, bag.len() as u64 + 1)?;
        tracker.charge_memory(Phase::CoverConstruction, 4 * bag.len() as u64)?;
        let mut in_kernel = |a: Vertex, q: u32| {
            bfs.ball_sorted(g, a, q)
                .iter()
                .all(|b| bag.binary_search(b).is_ok())
        };
        for &a in &bag {
            if assignment[a as usize].is_none() && in_kernel(a, r) {
                assignment[a as usize] = Some(id);
            }
        }
        if let Some(p) = kernel_radius {
            kernel_members.extend(bag.iter().copied().filter(|&a| in_kernel(a, p)));
            kernel_starts.push(row_end(&kernel_members));
        }
        members.extend_from_slice(&bag);
        starts.push(row_end(&members));
        centers.push(c);
    }
    tracker.checkpoint(Phase::CoverConstruction)?;
    let kernels = match kernel_radius {
        Some(p) => {
            for (bag, row) in starts.windows(2).zip(kernel_starts.windows(2)) {
                tracker.charge_nodes(Phase::KernelConstruction, u64::from(bag[1] - bag[0]) + 1)?;
                tracker.charge_memory(
                    Phase::KernelConstruction,
                    4 * u64::from(row[1] - row[0]) + 8,
                )?;
            }
            Some(KernelIndex::from_rows(p, n, kernel_starts, kernel_members))
        }
        None => None,
    };
    let assignment: Vec<BagId> = assignment
        .into_iter()
        .map(|id| id.expect("every vertex is covered by its own bag at the latest"))
        .collect();
    let cover = Cover {
        r,
        assignment: assignment.into(),
        centers: centers.into(),
        starts: starts.into(),
        members: members.into(),
        timings: CoverTimings::default(),
    };
    Ok((cover, kernels))
}

fn encode(write: impl FnOnce(&mut nd_persist::Writer)) -> Vec<u8> {
    let mut w = nd_persist::Writer::new();
    write(&mut w);
    w.into_bytes()
}

/// A build's outcome in comparable form: the cover and kernel encodings,
/// or the budget error, then the nodes and memory spent.
type Outcome = (Result<(Vec<u8>, Option<Vec<u8>>), BudgetExceeded>, u64, u64);

fn outcome(
    tracker: &BudgetTracker,
    built: Result<(Cover, Option<KernelIndex>), BudgetExceeded>,
) -> Outcome {
    let bytes = built.map(|(cover, kernels)| {
        (
            encode(|w| cover.write_into(w)),
            kernels.map(|k| encode(|w| k.write_into(w))),
        )
    });
    (bytes, tracker.nodes_spent(), tracker.memory_spent())
}

/// The cover build at cover radius `r`, with fused `K_p` rows for
/// `Some(p)`, against the reference, both under `budget`. Returns whether
/// the budget tripped, and the nodes and memory spent.
fn assert_matches_reference(
    name: &str,
    g: &ColoredGraph,
    r: u32,
    p: Option<u32>,
    budget: Budget,
) -> (bool, u64, u64) {
    let want_tracker = budget.start();
    let want = outcome(&want_tracker, naive_greedy(g, r, p, &want_tracker));
    let got_tracker = budget.start();
    let built = match p {
        Some(p) => Cover::try_build_with_kernels(g, r, p, &got_tracker).map(|(c, k)| (c, Some(k))),
        None => Cover::try_build(g, r, 0.5, &got_tracker).map(|c| (c, None)),
    };
    let got = outcome(&got_tracker, built);
    assert!(got == want, "{name}: r={r}, p={p:?}, {budget:?}");
    (want.0.is_err(), want.1, want.2)
}

/// Every radius pair the checks sweep: the cover alone, the engine's
/// `p = r/2` beside a cover at `r`, and kernel radii below, at and past
/// the cover radius.
fn radius_pairs(r: u32) -> [Option<u32>; 5] {
    [None, Some(r / 2), Some(0), Some(r), Some(r + 2)]
}

/// The build against the reference at every radius pair, unlimited and
/// under node and memory caps that trip at the first charge, part way and
/// at the last.
fn assert_matches_reference_capped(name: &str, g: &ColoredGraph, r: u32) {
    for p in radius_pairs(r) {
        let (_, nodes, memory) = assert_matches_reference(name, g, r, p, Budget::UNLIMITED);
        for cap in [0, nodes / 3, nodes / 2, nodes.saturating_sub(1)] {
            let budget = Budget::UNLIMITED.with_node_expansions(cap);
            let (tripped, _, _) = assert_matches_reference(name, g, r, p, budget);
            assert!(tripped || nodes == 0, "{name}: node cap {cap} did not trip");
        }
        for cap in [0, memory / 3, memory / 2, memory.saturating_sub(1)] {
            let budget = Budget::UNLIMITED.with_memory_bytes(cap);
            let (tripped, _, _) = assert_matches_reference(name, g, r, p, budget);
            assert!(
                tripped || memory == 0,
                "{name}: memory cap {cap} did not trip"
            );
        }
    }
}

/// Two cycles, a path, an edge and isolated vertices in one graph.
fn disconnected() -> ColoredGraph {
    let mut b = GraphBuilder::new(40);
    for (lo, len) in [(0, 9), (12, 14)] {
        for i in 0..len {
            b.add_edge(lo + i, lo + (i + 1) % len);
        }
    }
    for v in 27..35 {
        b.add_edge(v, v + 1);
    }
    b.add_edge(37, 38);
    b.build()
}

/// How many bags of the reference cover take each ordering path:
/// `(dense, sparse)`.
fn ordering_paths(g: &ColoredGraph, r: u32) -> (usize, usize) {
    let (cover, _) = naive_greedy(g, r, None, &BudgetTracker::unlimited()).unwrap();
    let dense = (0..cover.num_bags() as BagId)
        .filter(|&id| dense_words(cover.bag(id).verts).is_some())
        .count();
    (dense, cover.num_bags() - dense)
}

#[test]
fn small_families_match_the_reference() {
    for (name, g, r) in [
        ("grid", generators::grid(12, 12), 1),
        ("grid r=2", generators::grid(9, 9), 2),
        ("bounded", generators::bounded_degree(150, 4, 3), 2),
        ("tree", generators::random_tree(120, 5), 2),
        ("clique", generators::clique(10), 1),
        ("star", generators::star(20), 1),
        ("n0", generators::path(0), 1),
        ("n1", generators::path(1), 1),
        ("disconnected", disconnected(), 1),
        ("disconnected r=2", disconnected(), 2),
        ("forest", generators::random_forest(100, 0.6, 2), 2),
    ] {
        assert_matches_reference_capped(name, &g, r);
    }
}

/// Bags of a grid with natural ids lie on a few consecutive words and
/// take the bitmap; bags of a path or tree with randomly permuted ids
/// scatter over thousands of ids and take the sort.
#[test]
fn both_ordering_paths_match_the_reference() {
    let grid = generators::grid(40, 40);
    let (dense, _) = ordering_paths(&grid, 1);
    assert!(dense > 0, "no grid bag takes the bitmap");
    assert_matches_reference_capped("grid 40x40", &grid, 1);
    for (name, g) in [
        ("permuted path", generators::path(2_000)),
        ("permuted tree", generators::random_tree(2_000, 7)),
    ] {
        let g = generators::permuted(&g, &generators::random_permutation(g.n(), 11));
        let (_, sparse) = ordering_paths(&g, 1);
        assert!(sparse > 0, "{name}: no bag takes the sort");
        for p in radius_pairs(1) {
            assert_matches_reference(name, &g, 1, p, Budget::UNLIMITED);
        }
    }
}

fn arb_graph() -> impl Strategy<Value = ColoredGraph> {
    (0usize..40).prop_flat_map(|n| {
        prop::collection::vec((0..n.max(1) as Vertex, 0..n.max(1) as Vertex), 0..2 * n + 1)
            .prop_map(move |es| {
                let mut b = GraphBuilder::new(n);
                for (u, v) in es {
                    if u != v {
                        b.add_edge(u, v);
                    }
                }
                b.build()
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_graphs_match_the_reference(g in arb_graph(), r in 1u32..4, p in 0u32..6) {
        assert_matches_reference("random", &g, r, Some(p), Budget::UNLIMITED);
        assert_matches_reference("random", &g, r, None, Budget::UNLIMITED);
    }
}
