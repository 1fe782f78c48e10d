//! CSR deltas: batched graph mutations without per-mutation rebuilds.
//!
//! The CSR layout of [`ColoredGraph`] makes single-edge surgery O(m) (every
//! insertion shifts the adjacency array), so naive mutation support would
//! turn a k-edge batch into k full passes. A [`CsrDelta`] instead records a
//! normalized edit set against a fixed base graph — edge flips keyed by the
//! ordered pair, plus a count of appended isolated vertices — and reconciles
//! everything in **one** O(n + m + Δ log Δ) merge pass in [`CsrDelta::apply`].
//!
//! Invariant kept at all times: an edit `(e → true)` is recorded only when
//! `e` is absent from the base, `(e → false)` only when present. Redundant
//! operations cancel in place, so the delta is always a *minimal* diff.

use crate::error::GraphError;
use crate::graph::{ColoredGraph, Vertex};
use std::collections::BTreeMap;

/// A batch of edge/vertex edits against a fixed base [`ColoredGraph`].
#[derive(Clone, Debug, Default)]
pub struct CsrDelta {
    /// Minimal edge diff: key `(u, v)` with `u < v`; `true` = insert (absent
    /// from base), `false` = delete (present in base).
    edits: BTreeMap<(Vertex, Vertex), bool>,
    /// Number of fresh isolated vertices appended after the base domain.
    added_nodes: usize,
}

impl CsrDelta {
    /// An empty delta.
    pub fn new() -> CsrDelta {
        CsrDelta::default()
    }

    /// Whether the delta records no changes.
    pub fn is_empty(&self) -> bool {
        self.edits.is_empty() && self.added_nodes == 0
    }

    /// Domain size of the merged graph.
    pub fn n(&self, g: &ColoredGraph) -> usize {
        g.n() + self.added_nodes
    }

    fn check_vertex(&self, g: &ColoredGraph, v: Vertex) -> Result<(), GraphError> {
        if (v as usize) < self.n(g) {
            Ok(())
        } else {
            Err(GraphError::VertexOutOfRange { v, n: self.n(g) })
        }
    }

    /// Append a fresh isolated vertex; returns its id in the merged graph.
    pub fn try_add_node(&mut self, g: &ColoredGraph) -> Result<Vertex, GraphError> {
        let id = self.n(g);
        if id >= Vertex::MAX as usize {
            return Err(GraphError::TooManyVertices { n: id + 1 });
        }
        self.added_nodes += 1;
        Ok(id as Vertex)
    }

    /// Record an edge insertion. Returns `true` if the merged graph gained
    /// the edge, `false` if it was already present. Self-loops and
    /// out-of-range endpoints are rejected.
    pub fn try_add_edge(
        &mut self,
        g: &ColoredGraph,
        u: Vertex,
        v: Vertex,
    ) -> Result<bool, GraphError> {
        self.check_vertex(g, u)?;
        self.check_vertex(g, v)?;
        if u == v {
            return Err(GraphError::SelfLoop { v });
        }
        let key = (u.min(v), u.max(v));
        match self.edits.get(&key) {
            Some(&true) => Ok(false),
            Some(&false) => {
                // Deleting then re-adding a base edge cancels out.
                self.edits.remove(&key);
                Ok(true)
            }
            None => {
                if (key.1 as usize) < g.n() && g.has_edge(key.0, key.1) {
                    Ok(false)
                } else {
                    self.edits.insert(key, true);
                    Ok(true)
                }
            }
        }
    }

    /// Record an edge deletion. Returns `true` if the merged graph lost the
    /// edge, `false` if it was already absent.
    pub fn try_remove_edge(
        &mut self,
        g: &ColoredGraph,
        u: Vertex,
        v: Vertex,
    ) -> Result<bool, GraphError> {
        self.check_vertex(g, u)?;
        self.check_vertex(g, v)?;
        if u == v {
            return Err(GraphError::SelfLoop { v });
        }
        let key = (u.min(v), u.max(v));
        match self.edits.get(&key) {
            Some(&false) => Ok(false),
            Some(&true) => {
                // Removing an edge this delta added cancels out.
                self.edits.remove(&key);
                Ok(true)
            }
            None => {
                if (key.1 as usize) < g.n() && g.has_edge(key.0, key.1) {
                    self.edits.insert(key, false);
                    Ok(true)
                } else {
                    Ok(false)
                }
            }
        }
    }

    /// Delete every edge incident to `v` in the merged graph — the
    /// Removal-Lemma isolation step for vertex deletion. Returns the number
    /// of edges removed.
    pub fn try_isolate(&mut self, g: &ColoredGraph, v: Vertex) -> Result<usize, GraphError> {
        self.check_vertex(g, v)?;
        let mut removed = 0;
        if (v as usize) < g.n() {
            for i in 0..g.degree(v) {
                let u = g.neighbors(v)[i];
                if self.try_remove_edge(g, v, u)? {
                    removed += 1;
                }
            }
        }
        // Edges this delta added at v (the base loop misses them).
        let added: Vec<(Vertex, Vertex)> = self
            .edits
            .iter()
            .filter(|&(&(a, b), &p)| p && (a == v || b == v))
            .map(|(&k, _)| k)
            .collect();
        for (a, b) in added {
            self.edits.remove(&(a, b));
            removed += 1;
        }
        Ok(removed)
    }

    /// Materialize the merged graph in one CSR pass, preserving colors
    /// (appended vertices start uncolored).
    pub fn apply(&self, g: &ColoredGraph) -> ColoredGraph {
        let n = self.n(g);
        // Split edits into per-vertex sorted patch lists.
        let mut patches: Vec<Vec<(Vertex, bool)>> = vec![Vec::new(); n];
        for (&(u, v), &present) in &self.edits {
            patches[u as usize].push((v, present));
            patches[v as usize].push((u, present));
        }
        for p in &mut patches {
            p.sort_unstable_by_key(|&(u, _)| u);
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut adjacency = Vec::with_capacity(g.adjacency.len() + 2 * self.edits.len());
        offsets.push(0u32);
        for v in 0..n as Vertex {
            let base: &[Vertex] = if (v as usize) < g.n() {
                g.neighbors(v)
            } else {
                &[]
            };
            let patch = &patches[v as usize];
            if patch.is_empty() {
                adjacency.extend_from_slice(base);
            } else {
                // Two-pointer merge of the sorted base list with the sorted
                // patch list; inserts are absent from base, deletes present.
                let (mut i, mut j) = (0, 0);
                while i < base.len() || j < patch.len() {
                    if j == patch.len() || (i < base.len() && base[i] < patch[j].0) {
                        adjacency.push(base[i]);
                        i += 1;
                    } else {
                        let (u, present) = patch[j];
                        j += 1;
                        if present {
                            adjacency.push(u);
                        } else {
                            debug_assert!(i < base.len() && base[i] == u);
                            i += 1; // skip the deleted base neighbor
                        }
                    }
                }
            }
            offsets.push(adjacency.len() as u32);
        }
        ColoredGraph {
            offsets: offsets.into(),
            adjacency: adjacency.into(),
            color_members: g.color_members.clone(),
            color_names: g.color_names.clone(),
        }
    }
}

impl ColoredGraph {
    /// Add or remove `v` from color `c`'s membership list. Returns `true`
    /// if the membership changed.
    pub fn try_set_color_membership(
        &mut self,
        v: Vertex,
        c: crate::graph::ColorId,
        member: bool,
    ) -> Result<bool, GraphError> {
        if (v as usize) >= self.n() {
            return Err(GraphError::VertexOutOfRange { v, n: self.n() });
        }
        let members = &mut self.color_members[c.0 as usize];
        match (members.binary_search(&v), member) {
            (Err(i), true) => {
                members.insert(i, v);
                Ok(true)
            }
            (Ok(i), false) => {
                members.remove(i);
                Ok(true)
            }
            _ => Ok(false),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::graph::ColorId;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use std::collections::BTreeSet;

    fn path5() -> ColoredGraph {
        let mut b = GraphBuilder::new(5);
        for v in 0..4 {
            b.add_edge(v, v + 1);
        }
        b.build()
    }

    /// Build the graph on `n` vertices with exactly `edges` from scratch
    /// with the builder — the oracle `apply` must match.
    fn reference(n: usize, edges: &BTreeSet<(Vertex, Vertex)>) -> ColoredGraph {
        let mut b = GraphBuilder::new(n);
        for &(u, v) in edges {
            b.add_edge(u, v);
        }
        b.build()
    }

    fn assert_same_graph(a: &ColoredGraph, b: &ColoredGraph) {
        assert_eq!(a.n(), b.n());
        assert_eq!(a.m(), b.m());
        for v in a.vertices() {
            assert_eq!(a.neighbors(v), b.neighbors(v), "vertex {v}");
        }
    }

    #[test]
    fn add_remove_edge_roundtrip() {
        let g = path5();
        let mut d = CsrDelta::new();
        assert!(d.try_add_edge(&g, 0, 4).unwrap());
        assert!(!d.try_add_edge(&g, 4, 0).unwrap());
        assert!(d.apply(&g).has_edge(0, 4));
        assert!(d.try_remove_edge(&g, 0, 4).unwrap());
        assert!(d.is_empty());
        // Base edge: remove then re-add cancels.
        assert!(d.try_remove_edge(&g, 1, 2).unwrap());
        assert!(!d.apply(&g).has_edge(1, 2));
        assert!(d.try_add_edge(&g, 1, 2).unwrap());
        assert!(d.is_empty());
    }

    #[test]
    fn rejects_bad_endpoints() {
        let g = path5();
        let mut d = CsrDelta::new();
        assert!(matches!(
            d.try_add_edge(&g, 2, 2),
            Err(GraphError::SelfLoop { v: 2 })
        ));
        assert!(matches!(
            d.try_add_edge(&g, 0, 9),
            Err(GraphError::VertexOutOfRange { v: 9, n: 5 })
        ));
        assert!(d.is_empty());
    }

    #[test]
    fn added_node_starts_isolated_and_connects() {
        let g = path5();
        let mut d = CsrDelta::new();
        let v = d.try_add_node(&g).unwrap();
        assert_eq!(v, 5);
        assert!(!d.apply(&g).has_edge(v, 0));
        assert!(d.try_add_edge(&g, v, 0).unwrap());
        let h = d.apply(&g);
        assert_eq!(h.n(), 6);
        assert_eq!(h.neighbors(5), &[0]);
        assert_eq!(h.neighbors(0), &[1, 5]);
        assert_eq!(h.m(), 5);
    }

    #[test]
    fn isolate_removes_base_and_added_edges() {
        let g = path5();
        let mut d = CsrDelta::new();
        d.try_add_edge(&g, 2, 4).unwrap();
        let removed = d.try_isolate(&g, 2).unwrap();
        assert_eq!(removed, 3); // base {1,2}, {2,3} plus added {2,4}
        let h = d.apply(&g);
        assert_eq!(h.neighbors(2), &[] as &[Vertex]);
        assert_eq!(h.m(), 2);
    }

    #[test]
    fn apply_preserves_colors() {
        let mut g = path5();
        let blue = g.add_color(vec![0, 3], Some("Blue".into()));
        let mut d = CsrDelta::new();
        d.try_add_node(&g).unwrap();
        d.try_add_edge(&g, 0, 2).unwrap();
        let h = d.apply(&g);
        assert_eq!(h.color_members(blue), &[0, 3]);
        assert_eq!(h.color_by_name("Blue"), Some(blue));
        assert!(!h.has_color(5, blue));
    }

    #[test]
    fn randomized_delta_matches_rebuild() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..40 {
            let n = rng.random_range(1..30usize);
            let mut b = GraphBuilder::new(n);
            for _ in 0..rng.random_range(0..3 * n) {
                let u = rng.random_range(0..n as Vertex);
                let v = rng.random_range(0..n as Vertex);
                if u != v {
                    b.add_edge(u, v);
                }
            }
            let g = b.build();
            // The merged graph as a plain edge set, edited beside the delta.
            let mut n_model = g.n();
            let mut model: BTreeSet<(Vertex, Vertex)> = g.edges().collect();
            let mut d = CsrDelta::new();
            for _ in 0..rng.random_range(0..20usize) {
                let m = d.n(&g) as Vertex;
                match rng.random_range(0..10u32) {
                    0 => {
                        d.try_add_node(&g).unwrap();
                        n_model += 1;
                    }
                    1 => {
                        let v = rng.random_range(0..m);
                        d.try_isolate(&g, v).unwrap();
                        model.retain(|&(a, b)| a != v && b != v);
                    }
                    x => {
                        let u = rng.random_range(0..m);
                        let v = rng.random_range(0..m);
                        if u != v {
                            let key = (u.min(v), u.max(v));
                            if x < 6 {
                                d.try_add_edge(&g, u, v).unwrap();
                                model.insert(key);
                            } else {
                                d.try_remove_edge(&g, u, v).unwrap();
                                model.remove(&key);
                            }
                        }
                    }
                }
            }
            assert_same_graph(&d.apply(&g), &reference(n_model, &model));
        }
    }

    #[test]
    fn color_membership_edits() {
        let mut g = path5();
        let blue = g.add_color(vec![1], Some("Blue".into()));
        assert!(g.try_set_color_membership(4, blue, true).unwrap());
        assert_eq!(g.color_members(blue), &[1, 4]);
        assert!(g.try_set_color_membership(1, blue, false).unwrap());
        assert!(!g.try_set_color_membership(1, blue, false).unwrap());
        assert_eq!(g.color_members(blue), &[4]);
        assert!(g.try_set_color_membership(99, ColorId(0), true).is_err());
        // The mutated graph still round-trips the validating codec.
        let mut w = nd_persist::Writer::new();
        g.write_into(&mut w);
        let bytes = w.into_bytes();
        let mut r = nd_persist::Reader::new(&bytes);
        let g2 = ColoredGraph::read_from(&mut r).unwrap();
        assert_same_graph(&g, &g2);
    }
}
