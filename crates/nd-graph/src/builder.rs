//! Mutable construction of [`ColoredGraph`]s.

use crate::error::GraphError;
use crate::graph::{ColoredGraph, Vertex};

/// Collects edges and colors, then freezes them into a CSR-encoded
/// [`ColoredGraph`]. Duplicate edges and self-loops are silently dropped.
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(Vertex, Vertex)>,
    colors: Vec<(Vec<Vertex>, Option<String>)>,
}

impl GraphBuilder {
    /// A builder for a graph on vertices `0..n`.
    ///
    /// Panicking convenience; use [`GraphBuilder::try_new`] for untrusted
    /// vertex counts.
    pub fn new(n: usize) -> Self {
        Self::try_new(n).expect("vertex ids must fit in u32")
    }

    /// A builder for a graph on vertices `0..n`, rejecting counts that do
    /// not fit the `u32` id space.
    pub fn try_new(n: usize) -> Result<Self, GraphError> {
        if n >= u32::MAX as usize {
            return Err(GraphError::TooManyVertices { n });
        }
        Ok(GraphBuilder {
            n,
            edges: Vec::new(),
            colors: Vec::new(),
        })
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Add an undirected edge `{u, v}`. Self-loops are ignored.
    ///
    /// Panicking convenience; use [`GraphBuilder::try_add_edge`] for
    /// untrusted endpoints.
    pub fn add_edge(&mut self, u: Vertex, v: Vertex) {
        self.try_add_edge(u, v).expect("vertex out of range");
    }

    /// Add an undirected edge `{u, v}`, rejecting out-of-range endpoints.
    /// Self-loops are ignored.
    pub fn try_add_edge(&mut self, u: Vertex, v: Vertex) -> Result<(), GraphError> {
        for w in [u, v] {
            if (w as usize) >= self.n {
                return Err(GraphError::VertexOutOfRange { v: w, n: self.n });
            }
        }
        if u != v {
            self.edges.push((u.min(v), u.max(v)));
        }
        Ok(())
    }

    /// Register a color with the given members.
    pub fn add_color(&mut self, members: Vec<Vertex>, name: Option<String>) {
        self.colors.push((members, name));
    }

    /// Freeze into an immutable graph.
    ///
    /// Panicking convenience; use [`GraphBuilder::try_build`] when color
    /// member lists are untrusted.
    pub fn build(self) -> ColoredGraph {
        self.try_build().expect("color member out of range")
    }

    /// Freeze into an immutable graph, rejecting out-of-range color members.
    pub fn try_build(mut self) -> Result<ColoredGraph, GraphError> {
        self.edges.sort_unstable();
        self.edges.dedup();

        let n = self.n;
        let mut degrees = vec![0u32; n];
        for &(u, v) in &self.edges {
            degrees[u as usize] += 1;
            degrees[v as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0u32;
        offsets.push(0);
        for &d in &degrees {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut adjacency = vec![0 as Vertex; acc as usize];
        for &(u, v) in &self.edges {
            adjacency[cursor[u as usize] as usize] = v;
            cursor[u as usize] += 1;
            adjacency[cursor[v as usize] as usize] = u;
            cursor[v as usize] += 1;
        }
        // Per-vertex lists are sorted because edges were globally sorted and
        // inserted in order of the *other* endpoint... which does not hold for
        // the second insertion. Sort each list to restore the invariant.
        for v in 0..n {
            let lo = offsets[v] as usize;
            let hi = offsets[v + 1] as usize;
            adjacency[lo..hi].sort_unstable();
        }

        let mut g = ColoredGraph {
            offsets: offsets.into(),
            adjacency: adjacency.into(),
            color_members: Vec::new(),
            color_names: Vec::new(),
        };
        for (members, name) in self.colors.drain(..) {
            g.try_add_color(members, name)?;
        }
        Ok(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_and_loops() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(1, 0);
        b.add_edge(0, 1);
        b.add_edge(2, 2);
        let g = b.build();
        assert_eq!(g.m(), 1);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(2), &[] as &[u32]);
    }

    #[test]
    fn adjacency_sorted_and_symmetric() {
        let mut b = GraphBuilder::new(5);
        for (u, v) in [(4, 0), (4, 2), (4, 1), (0, 2), (3, 0)] {
            b.add_edge(u, v);
        }
        let g = b.build();
        for v in g.vertices() {
            let ns = g.neighbors(v);
            assert!(ns.windows(2).all(|w| w[0] < w[1]), "sorted, no dups");
            for &u in ns {
                assert!(g.has_edge(u, v));
            }
        }
        assert_eq!(g.neighbors(4), &[0, 1, 2]);
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new(0).build();
        assert_eq!(g.n(), 0);
        assert_eq!(g.m(), 0);
    }
}
