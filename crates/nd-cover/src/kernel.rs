//! Kernels of cover bags (Definition 5.6, Lemma 5.7).
//!
//! The `p`-kernel of a bag `X` is `K_p(X) = {a ∈ V : N_p(a) ⊆ X}` — the
//! vertices whose whole `p`-ball stays inside the bag. Lemma 5.7 computes it
//! in `O(p · ‖G[X]‖)`: a vertex is *outside* the kernel iff its distance to
//! the complement of `X` is `≤ p`, and that distance is `1 +` the distance
//! inside `G[X]` to the *boundary* (members of `X` with a neighbor outside),
//! so a single multi-source BFS inside the bag suffices.

use crate::{BagId, Cover};
use nd_graph::budget::{BudgetExceeded, BudgetTracker, Phase};
use nd_graph::par::try_parallel_map;
use nd_graph::{ColoredGraph, Vertex};
use std::sync::Mutex;

/// Reusable buffers for repeated [`kernel_of_bag_with`] calls.
///
/// Holds a graph-sized dense `vertex → bag-local index` table (so the
/// inner BFS loop does `O(1)` membership lookups on the CSR neighbor
/// slices instead of an `O(log |X|)` binary search per edge) plus the
/// per-bag `dist`/`queue` vectors. The dense table is reset by walking
/// the bag, not the whole graph, so reuse across all bags of a cover
/// costs `O(Σ_X |X|)`, keeping Lemma 5.7's `O(p · Σ_X ‖G[X]‖)` bound.
pub struct KernelScratch {
    /// Bag-local index of each vertex, plus one; `0` = not in the bag.
    local: Vec<u32>,
    /// Dist-to-outside per bag-local index, capped at `p+1`; `0` =
    /// unvisited.
    dist: Vec<u32>,
    queue: Vec<u32>,
}

impl KernelScratch {
    /// Scratch for a graph on `n` vertices.
    pub fn new(n: usize) -> KernelScratch {
        KernelScratch {
            local: vec![0; n],
            dist: Vec::new(),
            queue: Vec::new(),
        }
    }
}

/// Compute `K_p(X)` for the (sorted) bag `verts` of graph `g`.
/// Cost `O(p · ‖G[X]‖)` as in Lemma 5.7 (local-index BFS, no hashing).
///
/// Allocating convenience over [`kernel_of_bag_with`]; loops over many
/// bags should reuse one [`KernelScratch`] instead.
pub fn kernel_of_bag(g: &ColoredGraph, verts: &[Vertex], p: u32) -> Vec<Vertex> {
    kernel_of_bag_with(g, verts, p, &mut KernelScratch::new(g.n()))
}

/// [`kernel_of_bag`] against caller-owned scratch buffers.
pub fn kernel_of_bag_with(
    g: &ColoredGraph,
    verts: &[Vertex],
    p: u32,
    scratch: &mut KernelScratch,
) -> Vec<Vertex> {
    debug_assert!(verts.windows(2).all(|w| w[0] < w[1]));
    let KernelScratch { local, dist, queue } = scratch;
    if local.len() < g.n() {
        local.resize(g.n(), 0);
    }
    for (i, &v) in verts.iter().enumerate() {
        local[v as usize] = i as u32 + 1;
    }
    dist.clear();
    dist.resize(verts.len(), 0);
    queue.clear();
    for (i, &v) in verts.iter().enumerate() {
        if g.neighbors(v).iter().any(|&w| local[w as usize] == 0) {
            dist[i] = 1;
            queue.push(i as u32);
        }
    }
    let mut head = 0;
    while head < queue.len() {
        let u = queue[head] as usize;
        head += 1;
        let du = dist[u];
        if du > p {
            continue;
        }
        for &w in g.neighbors(verts[u]) {
            let lw = local[w as usize];
            if lw != 0 && dist[lw as usize - 1] == 0 {
                dist[lw as usize - 1] = du + 1;
                queue.push(lw - 1);
            }
        }
    }
    let kernel = verts
        .iter()
        .enumerate()
        .filter(|(i, _)| dist[*i] == 0 || dist[*i] > p)
        .map(|(_, &v)| v)
        .collect();
    // Undo only the bag's entries so the next bag starts clean without an
    // O(n) wipe.
    for &v in verts {
        local[v as usize] = 0;
    }
    kernel
}

/// Kernels of every bag of a cover at a fixed radius, with the inverted
/// index `v ↦ {X : v ∈ K_p(X)}` needed by the skip pointers (Lemma 5.8).
#[derive(Clone)]
pub struct KernelIndex {
    pub p: u32,
    /// Per bag, the sorted kernel members.
    kernels: Vec<Vec<Vertex>>,
    /// Per vertex, the sorted bags whose kernel contains it.
    kernel_bags_of: Vec<Vec<BagId>>,
}

impl KernelIndex {
    /// Compute `K_p(X)` for every bag (total cost `O(p · Σ_X ‖G[X]‖)`).
    ///
    /// Unbudgeted convenience; see [`KernelIndex::try_build`].
    pub fn build(g: &ColoredGraph, cover: &Cover, p: u32) -> KernelIndex {
        Self::try_build(g, cover, p, &BudgetTracker::unlimited())
            .expect("unlimited budget cannot be exceeded")
    }

    /// Compute `K_p(X)` for every bag, charging per-bag work against
    /// `tracker`. Sequential; see [`KernelIndex::try_build_threads`].
    pub fn try_build(
        g: &ColoredGraph,
        cover: &Cover,
        p: u32,
        tracker: &BudgetTracker,
    ) -> Result<KernelIndex, BudgetExceeded> {
        Self::try_build_threads(g, cover, p, 1, tracker)
    }

    /// [`KernelIndex::try_build`] fanned across up to `threads` workers.
    ///
    /// Each bag's kernel only reads the immutable graph and its own bag,
    /// so bags are mapped independently and merged in bag order — the
    /// resulting index is identical to the sequential build. The shared
    /// `tracker` enforces one total budget across all workers (which bag
    /// observes the overrun first may vary under contention, but whether
    /// the cap trips does not).
    pub fn try_build_threads(
        g: &ColoredGraph,
        cover: &Cover,
        p: u32,
        threads: usize,
        tracker: &BudgetTracker,
    ) -> Result<KernelIndex, BudgetExceeded> {
        // Checked-out scratch pool: workers reuse the graph-sized buffers
        // across the bags they process instead of allocating per bag.
        let scratches: Mutex<Vec<KernelScratch>> = Mutex::new(Vec::new());
        let ids: Vec<BagId> = (0..cover.num_bags() as BagId).collect();
        let kernels = try_parallel_map(threads, &ids, |_, &id| {
            let verts = &cover.bag(id).verts;
            tracker.charge_nodes(Phase::KernelConstruction, verts.len() as u64 + 1)?;
            let mut scratch = scratches
                .lock()
                .unwrap()
                .pop()
                .unwrap_or_else(|| KernelScratch::new(g.n()));
            let k = kernel_of_bag_with(g, verts, p, &mut scratch);
            scratches.lock().unwrap().push(scratch);
            tracker.charge_memory(Phase::KernelConstruction, 4 * k.len() as u64 + 8)?;
            Ok(k)
        })?;
        // The inverted index is rebuilt sequentially in bag order, so the
        // per-vertex bag lists come out sorted exactly as before.
        let mut kernel_bags_of: Vec<Vec<BagId>> = vec![Vec::new(); g.n()];
        for (id, k) in kernels.iter().enumerate() {
            for &v in k {
                kernel_bags_of[v as usize].push(id as BagId);
            }
        }
        Ok(KernelIndex {
            p,
            kernels,
            kernel_bags_of,
        })
    }

    /// Append the index's binary encoding to `w` (DESIGN.md §9). Only the
    /// per-bag kernels are stored; the inverted index is rebuilt on load.
    /// The vertex count is *not* stored — the loader supplies it from the
    /// graph, which prevents a corrupted count from driving a huge
    /// allocation.
    pub fn write_into(&self, w: &mut nd_persist::Writer) {
        w.u32(self.p);
        w.seq_len(self.kernels.len());
        for k in &self.kernels {
            w.u32_slice(k);
        }
    }

    /// Decode an index over a graph with `n` vertices, re-validating
    /// sortedness and vertex ranges.
    pub fn read_from(
        r: &mut nd_persist::Reader<'_>,
        n: usize,
    ) -> Result<KernelIndex, nd_persist::PersistError> {
        use nd_persist::malformed;
        let p = r.u32("kernel radius")?;
        let num_bags = r.seq_len(8, "kernel bag count")?;
        let mut kernels = Vec::with_capacity(num_bags);
        for _ in 0..num_bags {
            let k = r.u32_slice("kernel members")?;
            if k.windows(2).any(|w| w[0] >= w[1]) {
                return Err(malformed("kernel members are not sorted"));
            }
            if k.iter().any(|&v| (v as usize) >= n) {
                return Err(malformed("kernel member out of range"));
            }
            kernels.push(k);
        }
        let mut kernel_bags_of: Vec<Vec<BagId>> = vec![Vec::new(); n];
        for (id, k) in kernels.iter().enumerate() {
            for &v in k {
                kernel_bags_of[v as usize].push(id as BagId);
            }
        }
        Ok(KernelIndex {
            p,
            kernels,
            kernel_bags_of,
        })
    }

    /// Number of bags the index holds kernels for.
    pub fn num_bags(&self) -> usize {
        self.kernels.len()
    }

    /// Sorted kernel of a bag.
    pub fn kernel(&self, id: BagId) -> &[Vertex] {
        &self.kernels[id as usize]
    }

    /// Is `v ∈ K_p(X_id)`? `O(log)`.
    pub fn in_kernel(&self, id: BagId, v: Vertex) -> bool {
        self.kernels[id as usize].binary_search(&v).is_ok()
    }

    /// Sorted bags whose kernel contains `v`.
    pub fn kernel_bags_of(&self, v: Vertex) -> &[BagId] {
        &self.kernel_bags_of[v as usize]
    }

    /// Maximum number of kernels meeting at a vertex (≤ cover degree).
    pub fn degree(&self) -> usize {
        self.kernel_bags_of.iter().map(Vec::len).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nd_graph::bfs::BfsScratch;
    use nd_graph::generators;

    /// Brute-force kernel: check `N_p(a) ⊆ X` per vertex.
    fn kernel_naive(g: &ColoredGraph, verts: &[Vertex], p: u32) -> Vec<Vertex> {
        let mut scratch = BfsScratch::new(g.n());
        verts
            .iter()
            .copied()
            .filter(|&a| {
                scratch
                    .ball_sorted(g, a, p)
                    .iter()
                    .all(|b| verts.binary_search(b).is_ok())
            })
            .collect()
    }

    #[test]
    fn kernel_matches_naive() {
        for (g, r, p) in [
            (generators::path(40), 3u32, 2u32),
            (generators::grid(9, 9), 2, 1),
            (generators::grid(9, 9), 2, 2),
            (generators::random_tree(60, 9), 3, 3),
            (generators::bounded_degree(80, 4, 3), 2, 2),
        ] {
            let cover = Cover::build(&g, r, 0.5);
            for id in 0..cover.num_bags() as BagId {
                let verts = &cover.bag(id).verts;
                assert_eq!(
                    kernel_of_bag(&g, verts, p),
                    kernel_naive(&g, verts, p),
                    "bag {id}"
                );
            }
        }
    }

    #[test]
    fn whole_graph_bag_kernel_is_everything() {
        let g = generators::cycle(12);
        let all: Vec<Vertex> = g.vertices().collect();
        assert_eq!(kernel_of_bag(&g, &all, 5), all);
    }

    #[test]
    fn p_zero_kernel_is_the_bag() {
        // N_0(a) = {a} ⊆ X always.
        let g = generators::grid(6, 6);
        let cover = Cover::build(&g, 2, 0.5);
        let verts = &cover.bag(0).verts;
        assert_eq!(&kernel_of_bag(&g, verts, 0), verts);
    }

    #[test]
    fn kernel_index_inversion() {
        let g = generators::grid(8, 8);
        let cover = Cover::build(&g, 2, 0.5);
        let ki = KernelIndex::build(&g, &cover, 2);
        for id in 0..cover.num_bags() as BagId {
            for &v in ki.kernel(id) {
                assert!(ki.kernel_bags_of(v).contains(&id));
                assert!(ki.in_kernel(id, v));
            }
        }
        for v in g.vertices() {
            for &id in ki.kernel_bags_of(v) {
                assert!(ki.in_kernel(id, v));
            }
        }
        assert!(ki.degree() <= cover.degree());
    }

    #[test]
    fn parallel_build_is_identical_to_sequential() {
        for (g, r, p) in [
            (generators::grid(10, 10), 2u32, 2u32),
            (generators::random_tree(150, 11), 3, 3),
            (generators::bounded_degree(120, 4, 5), 2, 1),
        ] {
            let cover = Cover::build(&g, r, 0.5);
            let tracker = BudgetTracker::unlimited();
            let seq = KernelIndex::try_build(&g, &cover, p, &tracker).unwrap();
            for threads in [2, 4] {
                let par = KernelIndex::try_build_threads(&g, &cover, p, threads, &tracker).unwrap();
                assert_eq!(seq.kernels, par.kernels, "threads={threads}");
                assert_eq!(seq.kernel_bags_of, par.kernel_bags_of, "threads={threads}");
            }
        }
    }

    #[test]
    fn scratch_reuse_matches_fresh_allocation() {
        let g = generators::grid(9, 9);
        let cover = Cover::build(&g, 2, 0.5);
        let mut scratch = KernelScratch::new(g.n());
        for id in 0..cover.num_bags() as BagId {
            let verts = &cover.bag(id).verts;
            assert_eq!(
                kernel_of_bag_with(&g, verts, 2, &mut scratch),
                kernel_of_bag(&g, verts, 2),
                "bag {id}"
            );
        }
    }

    #[test]
    fn codec_roundtrip_rebuilds_the_inverted_index() {
        let g = generators::grid(8, 8);
        let cover = Cover::build(&g, 2, 0.5);
        let ki = KernelIndex::build(&g, &cover, 2);
        let mut w = nd_persist::Writer::new();
        ki.write_into(&mut w);
        let bytes = w.into_bytes();
        let mut r = nd_persist::Reader::new(&bytes);
        let back = KernelIndex::read_from(&mut r, g.n()).unwrap();
        r.finish().unwrap();
        assert_eq!(back.p, ki.p);
        assert_eq!(back.kernels, ki.kernels);
        assert_eq!(back.kernel_bags_of, ki.kernel_bags_of);
        // Out-of-range member against a smaller declared n fails typed.
        assert!(KernelIndex::read_from(&mut nd_persist::Reader::new(&bytes), 1).is_err());
        for cut in 0..bytes.len() {
            assert!(
                KernelIndex::read_from(&mut nd_persist::Reader::new(&bytes[..cut]), g.n()).is_err(),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn assigned_vertices_are_in_their_kernel_at_radius_r() {
        // X(a) ⊇ N_r(a), hence a ∈ K_r(X(a)).
        let g = generators::random_tree(100, 4);
        let cover = Cover::build(&g, 2, 0.5);
        let ki = KernelIndex::build(&g, &cover, 2);
        for v in g.vertices() {
            assert!(ki.in_kernel(cover.bag_of(v), v), "v={v}");
        }
    }
}
