//! The central [`ColoredGraph`] type.
//!
//! A colored graph is a finite structure over the schema
//! `σ_c = {E, C_1, …, C_c}` where `E` is a symmetric binary relation and the
//! `C_i` are unary relations ("colors"). The vertex set is `0..n` and the
//! linear order on the domain (required by the paper for lexicographic
//! enumeration) is the natural order on vertex ids.
//!
//! The edge relation lives in an immutable CSR layout; colors are extensible
//! because the Removal Lemma (Lemma 5.5) and the distance-oracle recursion of
//! Section 4 repeatedly *recolor* graphs to encode removed vertices. Edge and
//! vertex mutations go through [`crate::delta::CsrDelta`], which batches
//! edits and re-materializes the CSR in one merge pass.

use std::fmt;

/// A vertex identifier. Vertices of a graph with `n` vertices are `0..n`.
pub type Vertex = u32;

/// Identifier of a color (unary relation `C_i`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ColorId(pub u32);

impl fmt::Display for ColorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C{}", self.0)
    }
}

/// An immutable undirected graph with extensible vertex colors.
///
/// Invariants:
/// * adjacency lists are sorted and contain no duplicates or self-loops;
/// * the graph is symmetric (`u ∈ adj(v)` iff `v ∈ adj(u)`);
/// * per-color membership lists are sorted.
#[derive(Clone)]
pub struct ColoredGraph {
    /// CSR offsets, length `n + 1`. Borrowed-or-owned: a mapped index
    /// serves these straight out of the file ([`nd_persist::Slab`]).
    pub(crate) offsets: nd_persist::Slab<u32>,
    /// CSR adjacency, length `2m` (same ownership story as `offsets`).
    pub(crate) adjacency: nd_persist::Slab<Vertex>,
    /// For each color, the sorted list of member vertices.
    pub(crate) color_members: Vec<Vec<Vertex>>,
    /// Optional human-readable color names (aligned with `color_members`).
    pub(crate) color_names: Vec<Option<String>>,
}

impl ColoredGraph {
    /// Number of vertices `|G|`.
    #[inline]
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.adjacency.len() / 2
    }

    /// Encoding size `‖G‖ = |V| + |E|`.
    #[inline]
    pub fn size(&self) -> usize {
        self.n() + self.m()
    }

    /// Iterator over all vertices in increasing order.
    #[inline]
    pub fn vertices(&self) -> impl Iterator<Item = Vertex> + '_ {
        0..self.n() as Vertex
    }

    /// Sorted neighbors of `v`.
    #[inline]
    pub fn neighbors(&self, v: Vertex) -> &[Vertex] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.adjacency[lo..hi]
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: Vertex) -> usize {
        self.neighbors(v).len()
    }

    /// Whether `{u, v}` is an edge. `O(log deg(u))`.
    #[inline]
    pub fn has_edge(&self, u: Vertex, v: Vertex) -> bool {
        u != v && self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Number of colors currently registered.
    #[inline]
    pub fn num_colors(&self) -> usize {
        self.color_members.len()
    }

    /// Whether vertex `v` has color `c`. `O(log |C_c|)`.
    #[inline]
    pub fn has_color(&self, v: Vertex, c: ColorId) -> bool {
        self.color_members[c.0 as usize].binary_search(&v).is_ok()
    }

    /// Sorted members of color `c`.
    #[inline]
    pub fn color_members(&self, c: ColorId) -> &[Vertex] {
        &self.color_members[c.0 as usize]
    }

    /// Name of color `c`, if one was registered.
    pub fn color_name(&self, c: ColorId) -> Option<&str> {
        self.color_names[c.0 as usize].as_deref()
    }

    /// Look up a color by name.
    pub fn color_by_name(&self, name: &str) -> Option<ColorId> {
        self.color_names
            .iter()
            .position(|n| n.as_deref() == Some(name))
            .map(|i| ColorId(i as u32))
    }

    /// Register a new color with the given members (sorted and deduplicated
    /// here).
    ///
    /// This is the recoloring primitive used by the Removal Lemma: a
    /// `σ_{c'}`-expansion of the graph is obtained by adding colors.
    ///
    /// Panicking convenience; use [`ColoredGraph::try_add_color`] for
    /// untrusted member lists.
    pub fn add_color(&mut self, members: Vec<Vertex>, name: Option<String>) -> ColorId {
        self.try_add_color(members, name)
            .expect("color member out of range")
    }

    /// Register a new color, rejecting out-of-range members instead of
    /// silently corrupting membership queries.
    pub fn try_add_color(
        &mut self,
        mut members: Vec<Vertex>,
        name: Option<String>,
    ) -> Result<ColorId, crate::error::GraphError> {
        members.sort_unstable();
        members.dedup();
        if let Some(&v) = members.last() {
            if (v as usize) >= self.n() {
                return Err(crate::error::GraphError::VertexOutOfRange { v, n: self.n() });
            }
        }
        let id = ColorId(self.color_members.len() as u32);
        self.color_members.push(members);
        self.color_names.push(name);
        Ok(id)
    }

    /// Maximum degree.
    pub fn max_degree(&self) -> usize {
        (0..self.n() as Vertex)
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// All edges as ordered pairs `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (Vertex, Vertex)> + '_ {
        self.vertices()
            .flat_map(move |u| self.neighbors(u).iter().map(move |&v| (u, v)))
            .filter(|&(u, v)| u < v)
    }

    /// Move the graph behind an [`std::sync::Arc`] so many threads (and the
    /// indexes prepared over it) can co-own one immutable copy. The graph
    /// is CSR-encoded plain data — `Send + Sync` is asserted below, so a
    /// shared graph never needs a lock.
    pub fn into_shared(self) -> std::sync::Arc<ColoredGraph> {
        std::sync::Arc::new(self)
    }
}

// The serving runtime shares one graph across worker threads; keep the
// thread-safety of the plain-data representation a compile-time fact.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ColoredGraph>();
};

// ---------------------------------------------------------------------
// Binary persistence (DESIGN.md §9). Lives here because the CSR fields
// are crate-private; every accessor above assumes the construction
// invariants, so the decoder re-validates all of them before handing the
// graph out — a hostile byte stream can yield a typed error, never a
// graph that panics later.
// ---------------------------------------------------------------------

impl ColoredGraph {
    /// Append the graph's binary encoding (CSR arrays + color lists) to
    /// `w`.
    pub fn write_into(&self, w: &mut nd_persist::Writer) {
        w.u32_slab(&self.offsets);
        w.u32_slab(&self.adjacency);
        w.seq_len(self.color_members.len());
        for (members, name) in self.color_members.iter().zip(&self.color_names) {
            w.u32_slice(members);
            match name {
                Some(s) => {
                    w.bool(true);
                    w.str(s);
                }
                None => w.bool(false),
            }
        }
    }

    /// Decode a graph, re-validating every structural invariant the rest
    /// of the crate relies on (monotone offsets, sorted/deduplicated and
    /// symmetric adjacency without self-loops, sorted in-range color
    /// lists).
    ///
    /// Under a lazy-verify mapped load ([`nd_persist::Reader::should_validate`]
    /// false) the O(n + m) structural sweeps are skipped — they would fault
    /// in every page, defeating the zero-copy load — and integrity rests on
    /// the deferred section CRC. Only the O(1) framing checks that guard
    /// against immediate arithmetic panics stay on.
    pub fn read_from(
        r: &mut nd_persist::Reader<'_>,
    ) -> Result<ColoredGraph, nd_persist::PersistError> {
        use nd_persist::malformed;
        let offsets = r.u32_slab("graph offsets")?;
        let adjacency = r.u32_slab("graph adjacency")?;
        if offsets.first() != Some(&0) {
            return Err(malformed("graph offsets must start with 0"));
        }
        let n = offsets.len() - 1;
        if offsets[n] as usize != adjacency.len() {
            return Err(malformed("graph offsets do not cover the adjacency array"));
        }
        let mut g = ColoredGraph {
            offsets,
            adjacency,
            color_members: Vec::new(),
            color_names: Vec::new(),
        };
        if r.should_validate() {
            if g.offsets.windows(2).any(|w| w[0] > w[1]) {
                return Err(malformed("graph offsets are not monotone"));
            }
            for v in 0..n as Vertex {
                let ns = g.neighbors(v);
                // Strict sortedness makes the range check a last-element
                // test and turns the self-loop scan into one binary search.
                if ns.windows(2).any(|w| w[0] >= w[1]) {
                    return Err(malformed(format!("adjacency list of {v} is not sorted")));
                }
                if ns.last().is_some_and(|&u| (u as usize) >= n) {
                    return Err(malformed(format!("neighbor of {v} out of range [0,{n})")));
                }
                if ns.binary_search(&v).is_ok() {
                    return Err(malformed(format!("self-loop on vertex {v}")));
                }
            }
            // Symmetry in O(n + m): walk every directed edge (v,u) in global
            // scan order and match it against a cursor into u's list. Out-
            // lists are strictly sorted and v ascends, so the in-edges of `u`
            // arrive exactly in list order iff every in-list equals the
            // corresponding out-list — i.e. iff the graph is symmetric. The
            // trailing degree check catches lists with unmatched tails.
            let mut fill: Vec<u32> = g.offsets[..n].to_vec();
            for v in 0..n as Vertex {
                for &u in g.neighbors(v) {
                    let p = fill[u as usize] as usize;
                    if p >= g.offsets[u as usize + 1] as usize || g.adjacency[p] != v {
                        return Err(malformed(format!("edge ({v},{u}) is not symmetric")));
                    }
                    fill[u as usize] += 1;
                }
            }
            if (0..n).any(|u| fill[u] != g.offsets[u + 1]) {
                return Err(malformed("adjacency is not symmetric".to_string()));
            }
        }
        let colors = r.seq_len(9, "graph color count")?;
        for _ in 0..colors {
            let members = r.u32_slice_sorted(n as u32, "color members")?;
            let name = if r.bool("color name flag")? {
                Some(r.str("color name")?)
            } else {
                None
            };
            g.color_members.push(members);
            g.color_names.push(name);
        }
        Ok(g)
    }
}

impl fmt::Debug for ColoredGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ColoredGraph")
            .field("n", &self.n())
            .field("m", &self.m())
            .field("colors", &self.num_colors())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn triangle_plus_isolated() -> ColoredGraph {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(2, 0);
        b.build()
    }

    #[test]
    fn basic_accessors() {
        let g = triangle_plus_isolated();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 3);
        assert_eq!(g.size(), 7);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(3), &[] as &[Vertex]);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 3));
        assert!(!g.has_edge(2, 2));
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn edges_iterator_yields_each_edge_once() {
        let g = triangle_plus_isolated();
        let e: Vec<_> = g.edges().collect();
        assert_eq!(e, vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn binary_codec_roundtrip() {
        let mut g = triangle_plus_isolated();
        g.add_color(vec![0, 2], Some("Blue".into()));
        g.add_color(vec![1], None);
        let mut w = nd_persist::Writer::new();
        g.write_into(&mut w);
        let bytes = w.into_bytes();
        let mut r = nd_persist::Reader::new(&bytes);
        let g2 = ColoredGraph::read_from(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(g2.n(), g.n());
        assert_eq!(g2.m(), g.m());
        for v in g.vertices() {
            assert_eq!(g2.neighbors(v), g.neighbors(v));
        }
        assert_eq!(g2.color_members(ColorId(0)), &[0, 2]);
        assert_eq!(g2.color_name(ColorId(0)), Some("Blue"));
        assert_eq!(g2.color_name(ColorId(1)), None);
    }

    #[test]
    fn binary_codec_rejects_broken_invariants() {
        use nd_persist::{PersistError, Reader, Writer};
        let decode = |f: &dyn Fn(&mut Writer)| {
            let mut w = Writer::new();
            f(&mut w);
            let bytes = w.into_bytes();
            ColoredGraph::read_from(&mut Reader::new(&bytes))
        };
        // Offsets not starting at zero.
        let e = decode(&|w| {
            w.u32_slab(&[1, 1]);
            w.u32_slab(&[]);
            w.seq_len(0);
        });
        assert!(matches!(e, Err(PersistError::Malformed { .. })));
        // Non-monotone offsets.
        let e = decode(&|w| {
            w.u32_slab(&[0, 2, 1]);
            w.u32_slab(&[1, 0]);
            w.seq_len(0);
        });
        assert!(matches!(e, Err(PersistError::Malformed { .. })));
        // Asymmetric adjacency: 0 -> 1 without 1 -> 0.
        let e = decode(&|w| {
            w.u32_slab(&[0, 1, 1]);
            w.u32_slab(&[1]);
            w.seq_len(0);
        });
        assert!(matches!(e, Err(PersistError::Malformed { .. })));
        // Self loop.
        let e = decode(&|w| {
            w.u32_slab(&[0, 1]);
            w.u32_slab(&[0]);
            w.seq_len(0);
        });
        assert!(matches!(e, Err(PersistError::Malformed { .. })));
        // Color member out of range.
        let e = decode(&|w| {
            w.u32_slab(&[0, 0]);
            w.u32_slab(&[]);
            w.seq_len(1);
            w.u32_slab(&[7]);
            w.bool(false);
        });
        assert!(matches!(e, Err(PersistError::Malformed { .. })));
        // Truncated mid-stream.
        let e = decode(&|w| {
            w.u32_slab(&[0, 0]);
        });
        assert!(matches!(e, Err(PersistError::Truncated { .. })));
    }

    #[test]
    fn colors_roundtrip() {
        let mut g = triangle_plus_isolated();
        let blue = g.add_color(vec![2, 0, 2], Some("Blue".into()));
        assert_eq!(g.color_members(blue), &[0, 2]);
        assert!(g.has_color(0, blue));
        assert!(!g.has_color(1, blue));
        assert_eq!(g.color_by_name("Blue"), Some(blue));
        assert_eq!(g.color_name(blue), Some("Blue"));
    }
}
