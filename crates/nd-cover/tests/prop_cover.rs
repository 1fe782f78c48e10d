//! Property tests: cover validity and kernel correctness on arbitrary
//! random graphs (the definitions must hold on *any* graph, sparse or not).

use proptest::prelude::*;

use nd_cover::{kernel_of_bag, BagId, Cover, KernelIndex};
use nd_graph::bfs::BfsScratch;
use nd_graph::budget::BudgetTracker;
use nd_graph::{ColoredGraph, GraphBuilder, Vertex};

fn arb_graph() -> impl Strategy<Value = ColoredGraph> {
    (2usize..30).prop_flat_map(|n| {
        prop::collection::vec((0..n as Vertex, 0..n as Vertex), 0..2 * n).prop_map(move |es| {
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
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn cover_conditions_hold(g in arb_graph(), r in 1u32..4) {
        let cover = Cover::build(&g, r, 0.5);
        cover.validate(&g);
        // Membership structure agrees with the bag lists.
        for id in 0..cover.num_bags() as BagId {
            for v in g.vertices() {
                let direct = cover.bag(id).verts.binary_search(&v).is_ok();
                prop_assert_eq!(cover.successor_in_bag(id, v) == Some(v), direct);
            }
        }
    }

    #[test]
    fn kernels_match_definition(g in arb_graph(), r in 1u32..3, p in 0u32..4) {
        let cover = Cover::build(&g, r, 0.5);
        let mut scratch = BfsScratch::new(g.n());
        for id in 0..cover.num_bags() as BagId {
            let bag = cover.bag(id).verts;
            let kernel = kernel_of_bag(&g, bag, p);
            for &v in bag {
                let n_p = scratch.ball_sorted(&g, v, p);
                let inside = n_p.iter().all(|w| bag.binary_search(w).is_ok());
                prop_assert_eq!(
                    kernel.binary_search(&v).is_ok(),
                    inside,
                    "v={} bag={} p={}",
                    v,
                    id,
                    p
                );
            }
        }
    }

    #[test]
    fn kernel_index_consistent_with_per_bag(g in arb_graph(), p in 0u32..3) {
        let cover = Cover::build(&g, 2, 0.5);
        let ki = KernelIndex::build(&g, &cover, p);
        for id in 0..cover.num_bags() as BagId {
            prop_assert_eq!(ki.kernel(id), &kernel_of_bag(&g, cover.bag(id).verts, p)[..]);
        }
    }

    #[test]
    fn degree_counts_every_overlap(g in arb_graph()) {
        let cover = Cover::build(&g, 2, 0.5);
        let mut per_vertex = vec![0usize; g.n()];
        for id in 0..cover.num_bags() as BagId {
            for &v in cover.bag(id).verts {
                per_vertex[v as usize] += 1;
            }
        }
        prop_assert_eq!(cover.degree(), per_vertex.iter().copied().max().unwrap_or(0));
        prop_assert_eq!(cover.total_bag_size(), per_vertex.iter().sum::<usize>());
    }

    #[test]
    fn kernel_bags_invert_the_kernels(g in arb_graph(), p in 0u32..3) {
        let cover = Cover::build(&g, 2, 0.5);
        let ki = KernelIndex::build(&g, &cover, p);
        let bags = ki.bags_of();
        let mut per_vertex = vec![Vec::new(); g.n()];
        for id in 0..cover.num_bags() as BagId {
            for &v in ki.kernel(id) {
                per_vertex[v as usize].push(id);
            }
        }
        for v in g.vertices() {
            prop_assert_eq!(bags.of(v), &per_vertex[v as usize][..]);
        }
        prop_assert_eq!(ki.degree(), per_vertex.iter().map(Vec::len).max().unwrap_or(0));
    }

    /// The fused pass returns the cover and kernel rows of the two-pass
    /// build and charges the same nodes and memory, at `p = r` (what the
    /// engine asks for, with the cover at `2r`) and at any other `p`,
    /// larger than the cover radius included.
    #[test]
    fn fused_kernels_match_the_two_pass_build(g in arb_graph(), r in 1u32..3, p in 0u32..7) {
        for p in [r, p] {
            let two_pass = BudgetTracker::unlimited();
            let cover = Cover::try_build(&g, 2 * r, 0.5, &two_pass).unwrap();
            let ki = KernelIndex::try_build(&g, &cover, p, &two_pass).unwrap();
            let fused_tracker = BudgetTracker::unlimited();
            let (fused, fused_ki) =
                Cover::try_build_with_kernels(&g, 2 * r, p, &fused_tracker).unwrap();
            prop_assert_eq!(encode(|w| fused.write_into(w)), encode(|w| cover.write_into(w)));
            prop_assert_eq!(encode(|w| fused_ki.write_into(w)), encode(|w| ki.write_into(w)));
            prop_assert_eq!(fused_tracker.nodes_spent(), two_pass.nodes_spent());
            prop_assert_eq!(fused_tracker.memory_spent(), two_pass.memory_spent());
        }
    }
}

fn encode(write: impl FnOnce(&mut nd_persist::Writer)) -> Vec<u8> {
    let mut w = nd_persist::Writer::new();
    write(&mut w);
    w.into_bytes()
}
