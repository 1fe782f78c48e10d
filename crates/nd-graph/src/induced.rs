//! Order-preserving induced substructures `G[X]`.
//!
//! The preprocessing phases of Sections 4 and 5 repeatedly restrict the graph
//! to a bag `X` of a neighborhood cover and recurse. We materialize `G[X]` as
//! a fresh [`ColoredGraph`] with local vertex ids `0..|X|` together with the
//! sorted list of global ids. Because the renumbering is monotone, the
//! lexicographic order on local tuples agrees with the order on global
//! tuples — which is what keeps the "smallest next solution" semantics of
//! Theorem 2.3 consistent across recursion levels.

use crate::graph::{ColorId, ColoredGraph, Vertex};

/// An induced substructure together with its embedding into the parent graph.
#[derive(Clone)]
pub struct InducedSubgraph {
    /// The materialized substructure with local ids `0..|X|`.
    pub graph: ColoredGraph,
    /// Sorted global ids; `global_ids[local] = global`.
    pub global_ids: Vec<Vertex>,
}

impl InducedSubgraph {
    /// Build `G[X]` for a **sorted, deduplicated** vertex set `X`.
    ///
    /// All colors of the parent are restricted to `X` (keeping their ids
    /// aligned: color `c` of the parent is color `c` of the substructure).
    pub fn new(g: &ColoredGraph, verts: &[Vertex]) -> Self {
        // Neighbor lists inherit sortedness: neighbors of `v` are globally
        // sorted and the renumbering is monotone.
        let mut sub = Self::new_uncolored(g, verts);
        let local = |v: Vertex| -> Option<u32> { verts.binary_search(&v).ok().map(|i| i as u32) };
        for c in 0..g.num_colors() {
            let members: Vec<Vertex> = g
                .color_members(ColorId(c as u32))
                .iter()
                .filter_map(|&v| local(v))
                .collect();
            let name = g.color_name(ColorId(c as u32)).map(str::to_owned);
            sub.graph.add_color(members, name);
        }
        sub
    }

    /// Like [`Self::new`], but restricts colors by per-vertex membership
    /// tests (`O(|X| · c · log)`) instead of scanning the full color lists
    /// (`O(Σ|C_i|)`). Preferable when `X` is a small ball of a large graph,
    /// e.g. in the per-vertex local evaluation of unary queries.
    pub fn new_small(g: &ColoredGraph, verts: &[Vertex]) -> Self {
        let mut sub = Self::new_uncolored(g, verts);
        for c in 0..g.num_colors() {
            let cid = ColorId(c as u32);
            let members: Vec<Vertex> = verts
                .iter()
                .enumerate()
                .filter(|(_, &v)| g.has_color(v, cid))
                .map(|(i, _)| i as Vertex)
                .collect();
            sub.graph
                .add_color(members, g.color_name(cid).map(str::to_owned));
        }
        sub
    }

    /// Induce only the edge relation, no colors.
    pub fn new_uncolored(g: &ColoredGraph, verts: &[Vertex]) -> Self {
        debug_assert!(
            verts.windows(2).all(|w| w[0] < w[1]),
            "verts must be sorted+dedup"
        );
        let local = |v: Vertex| -> Option<u32> { verts.binary_search(&v).ok().map(|i| i as u32) };
        let n = verts.len();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        let mut adjacency = Vec::new();
        for &v in verts.iter() {
            for &w in g.neighbors(v) {
                if let Some(lw) = local(w) {
                    adjacency.push(lw);
                }
            }
            offsets.push(adjacency.len() as u32);
        }
        InducedSubgraph {
            graph: ColoredGraph {
                offsets: offsets.into(),
                adjacency: adjacency.into(),
                color_members: Vec::new(),
                color_names: Vec::new(),
            },
            global_ids: verts.to_vec(),
        }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.global_ids.len()
    }

    /// Global id of a local vertex.
    #[inline]
    pub fn to_global(&self, local: Vertex) -> Vertex {
        self.global_ids[local as usize]
    }

    /// Local id of a global vertex, if it belongs to the substructure.
    /// `O(log |X|)`.
    #[inline]
    pub fn to_local(&self, global: Vertex) -> Option<Vertex> {
        self.global_ids
            .binary_search(&global)
            .ok()
            .map(|i| i as Vertex)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::generators;

    #[test]
    fn induce_path_segment() {
        let g = generators::path(6);
        let sub = InducedSubgraph::new(&g, &[1, 2, 3, 5]);
        assert_eq!(sub.n(), 4);
        // Edges 1-2, 2-3 survive; 5 is isolated (4 missing).
        assert_eq!(sub.graph.m(), 2);
        assert!(sub.graph.has_edge(0, 1));
        assert!(sub.graph.has_edge(1, 2));
        assert_eq!(sub.graph.neighbors(3), &[] as &[u32]);
        assert_eq!(sub.to_global(3), 5);
        assert_eq!(sub.to_local(5), Some(3));
        assert_eq!(sub.to_local(4), None);
    }

    #[test]
    fn colors_restrict() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1);
        b.add_color(vec![0, 2, 3], Some("Blue".into()));
        let g = b.build();
        let sub = InducedSubgraph::new(&g, &[0, 3]);
        assert_eq!(sub.graph.color_members(ColorId(0)), &[0, 1]);
        assert_eq!(sub.graph.color_name(ColorId(0)), Some("Blue"));
    }

    #[test]
    fn monotone_renumbering_preserves_order() {
        let g = generators::cycle(8);
        let verts = vec![1, 3, 4, 7];
        let sub = InducedSubgraph::new(&g, &verts);
        for w in sub.global_ids.windows(2) {
            assert!(w[0] < w[1]);
        }
        for (i, &gv) in verts.iter().enumerate() {
            assert_eq!(sub.to_local(gv), Some(i as u32));
        }
    }
}
