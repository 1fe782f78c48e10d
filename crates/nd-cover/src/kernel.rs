//! Kernels of cover bags (Definition 5.6, Lemma 5.7).
//!
//! The `p`-kernel of a bag `X` is `K_p(X) = {a ∈ V : N_p(a) ⊆ X}` — the
//! vertices whose whole `p`-ball stays inside the bag. Lemma 5.7 computes it
//! in `O(p · ‖G[X]‖)`: a vertex is *outside* the kernel iff its distance to
//! the complement of `X` is `≤ p`, and that distance is `1 +` the distance
//! inside `G[X]` to the *boundary* (members of `X` with a neighbor outside),
//! so a single multi-source BFS inside the bag suffices. Its labels give
//! the kernel at every radius up to `p` at once, so the cover build
//! ([`Cover::try_build_with_kernels`]) reads both the `K_{2r}` it assigns
//! vertices by and the `K_r` rows the skip pointers need off one BFS.
//!
//! Labels live in one graph-sized array indexed by vertex and stamped with
//! the bag they belong to, so starting the next bag costs nothing: a label
//! whose stamp is not the current bag's reads as "outside". When the bag is
//! a ball `N_R(c)` ([`label_ball`], the cover's case), a member at depth
//! `< R` has every neighbor at depth `≤ R`, so the boundary lies in the
//! depth-`R` layer alone, and the ball BFS tests that layer as its last
//! step. A bag given as a vertex set ([`kernel_of_bag_with`]) tests every
//! member.

use crate::{BagId, Cover};
use nd_graph::budget::{BudgetExceeded, BudgetTracker, Phase};
use nd_graph::par::try_parallel_map;
use nd_graph::{ColoredGraph, Vertex};
use nd_persist::Slab;
use std::sync::Mutex;

/// The label of one vertex, valid only while `stamp` is the stamp of the
/// bag being labelled.
#[derive(Clone, Copy, Default)]
struct Label {
    /// The bag this label belongs to; `0` = never labelled.
    stamp: u32,
    /// Distance to the outside of the bag when it is at most the label
    /// radius; `0` = farther (or not reached yet).
    dist: u32,
}

/// Reusable buffers for labelling bags one after another
/// ([`kernel_of_bag_with`] and the cover's greedy).
///
/// The graph-sized label array is never reset: each bag takes a fresh
/// stamp, and labels carrying an older stamp read as "not in the bag". So
/// labelling every bag of a cover costs `O(Σ_X ‖G[X]‖)` in all, keeping
/// Lemma 5.7's `O(p · Σ_X ‖G[X]‖)` bound, with no fill or undo pass.
pub struct KernelScratch {
    /// Per vertex, the bag that labelled it last and its distance to that
    /// bag's outside.
    labels: Vec<Label>,
    /// The current bag's stamp; every earlier bag's is smaller.
    stamp: u32,
    /// The ball BFS queue: the members of the current ball in BFS order,
    /// layer by layer. Holds `n + 1` slots, so that a search can write
    /// each neighbor to the next slot and count it only if it is new.
    ball: Vec<Vertex>,
    /// The boundary BFS queue, in order of distance to the outside: its
    /// first `queued` slots, out of `n + 1` as in `ball`.
    queue: Vec<Vertex>,
    queued: usize,
    /// Bitmap that sorts the members of a ball with a dense vertex range.
    words: Vec<u64>,
}

impl KernelScratch {
    /// Scratch for a graph on `n` vertices.
    pub fn new(n: usize) -> KernelScratch {
        KernelScratch {
            labels: vec![Label::default(); n],
            stamp: 0,
            ball: vec![0; n + 1],
            queue: vec![0; n + 1],
            queued: 0,
            words: Vec::new(),
        }
    }

    /// Bytes held by the graph-sized buffers.
    #[cfg(test)]
    pub(crate) fn held_bytes(&self) -> usize {
        std::mem::size_of_val(&self.labels[..])
            + std::mem::size_of_val(&self.ball[..])
            + std::mem::size_of_val(&self.queue[..])
    }

    /// Start a new bag over a graph on `n` vertices: take a stamp that no
    /// label holds. When the `u32` stamps run out, every label is cleared
    /// once and the count restarts, so stamps never collide across bags.
    fn next_bag(&mut self, n: usize) {
        if self.labels.len() < n {
            self.labels.resize(n, Label::default());
            self.ball.resize(n + 1, 0);
            self.queue.resize(n + 1, 0);
        }
        if self.stamp == u32::MAX {
            self.labels.fill(Label::default());
            self.stamp = 0;
        }
        self.stamp += 1;
        self.queued = 0;
    }

    /// The boundary test, once every member is labelled: a member with a
    /// neighbor outside the bag is at distance 1 from the outside and
    /// seeds the boundary BFS.
    #[inline]
    fn test_boundary(&mut self, g: &ColoredGraph, v: Vertex) {
        let stamp = self.stamp;
        if g.neighbors(v)
            .iter()
            .any(|&w| self.labels[w as usize].stamp != stamp)
        {
            self.labels[v as usize].dist = 1;
            self.queue[self.queued] = v;
            self.queued += 1;
        }
    }

    /// The boundary BFS of Lemma 5.7, from the members the boundary test
    /// seeded: label each member with its distance to the outside of the
    /// bag when that distance is at most `p`. One labelling yields
    /// `K_q(X)` for every `q ≤ p` (read through [`Self::in_kernel`]).
    fn label_from_boundary(&mut self, g: &ColoredGraph, p: u32) {
        let KernelScratch {
            labels,
            stamp,
            queue,
            queued,
            ..
        } = self;
        let stamp = *stamp;
        let mut head = 0;
        while head < *queued {
            let u = queue[head];
            head += 1;
            // The queue is in distance order, so nothing after `u` is
            // nearer the outside either.
            let du = labels[u as usize].dist;
            if du >= p {
                break;
            }
            // Branch-free, as in the ball BFS of `label_ball`: a member's
            // distance is rewritten to itself unless it is new.
            for &w in g.neighbors(u) {
                let l = &mut labels[w as usize];
                let new = (l.stamp == stamp) & (l.dist == 0);
                l.dist = if new { du + 1 } else { l.dist };
                queue[*queued] = w;
                *queued += new as usize;
            }
        }
    }

    /// After labelling at radius `p`: is the member `v` of the current bag
    /// in `K_q(X)`, for any `q ≤ p`? Labels are exact up to `p`, and an
    /// unlabelled member is farther than that from the outside.
    #[inline]
    pub(crate) fn in_kernel(&self, v: Vertex, q: u32) -> bool {
        let d = self.labels[v as usize].dist;
        d == 0 || d > q
    }
}

/// Compute `K_p(X)` for the (sorted) bag `verts` of graph `g`.
/// Cost `O(p · ‖G[X]‖)` as in Lemma 5.7 (vertex-indexed labels, no
/// hashing).
///
/// Allocating convenience over [`kernel_of_bag_with`]; loops over many
/// bags should reuse one [`KernelScratch`] instead.
pub fn kernel_of_bag(g: &ColoredGraph, verts: &[Vertex], p: u32) -> Vec<Vertex> {
    kernel_of_bag_with(g, verts, p, &mut KernelScratch::new(g.n()))
}

/// [`kernel_of_bag`] against caller-owned scratch buffers. A bag given as
/// a vertex set can have its boundary anywhere, so every member takes the
/// boundary test.
pub fn kernel_of_bag_with(
    g: &ColoredGraph,
    verts: &[Vertex],
    p: u32,
    scratch: &mut KernelScratch,
) -> Vec<Vertex> {
    debug_assert!(verts.windows(2).all(|w| w[0] < w[1]));
    scratch.next_bag(g.n());
    let stamp = scratch.stamp;
    for &v in verts {
        scratch.labels[v as usize] = Label { stamp, dist: 0 };
    }
    for &v in verts {
        scratch.test_boundary(g, v);
    }
    scratch.label_from_boundary(g, p);
    verts
        .iter()
        .copied()
        .filter(|&v| scratch.in_kernel(v, p))
        .collect()
}

/// Label the ball `N_R(c)` as a bag, with `R = radius`, and append its
/// members to `members` in increasing order. Afterwards
/// [`KernelScratch::in_kernel`] answers `K_q(N_R(c))` for every `q ≤ p`.
///
/// One BFS, layer by layer, finds the ball. When it reaches the last
/// layer, every member is already labelled, so the boundary test runs on
/// that layer on the spot; the members above it cannot touch the outside.
/// The boundary BFS then labels distances to the outside up to `p`.
pub(crate) fn label_ball(
    g: &ColoredGraph,
    c: Vertex,
    radius: u32,
    p: u32,
    scratch: &mut KernelScratch,
    members: &mut Vec<Vertex>,
) {
    scratch.next_bag(g.n());
    let stamp = scratch.stamp;
    let KernelScratch { labels, ball, .. } = &mut *scratch;
    labels[c as usize] = Label { stamp, dist: 0 };
    ball[0] = c;
    let mut len = 1;
    let mut layer = 0..1;
    for _ in 0..radius {
        if layer.is_empty() {
            break;
        }
        // Each neighbor goes to the next free slot and is counted only if
        // it is new. With no branch on membership, a BFS over an expander
        // does not mispredict about once per edge. Relabelling a member is
        // harmless: no member has a distance yet.
        for i in layer.clone() {
            for &w in g.neighbors(ball[i]) {
                let l = &mut labels[w as usize];
                let new = l.stamp != stamp;
                *l = Label { stamp, dist: 0 };
                ball[len] = w;
                len += new as usize;
            }
        }
        layer = layer.end..len;
    }
    for i in layer {
        let u = scratch.ball[i];
        scratch.test_boundary(g, u);
    }
    scratch.label_from_boundary(g, p);
    push_sorted(&scratch.ball[..len], &mut scratch.words, members);
}

/// The 64-bit words `lo..=hi` that the vertices of `ball` fall in
/// (vertex `v` in word `v >> 6`), when they are at most `|ball|` words, so
/// that a bitmap over them sorts the ball in `O(|ball|)`. `None` for a
/// sparser range.
pub(crate) fn dense_words(ball: &[Vertex]) -> Option<(Vertex, Vertex)> {
    let (lo, hi) = ball
        .iter()
        .fold((Vertex::MAX, 0), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    let (lo, hi) = (lo >> 6, hi >> 6);
    (lo <= hi && ((hi - lo) as usize) < ball.len()).then_some((lo, hi))
}

/// Append the vertices of `ball` to `out` in increasing order: through a
/// bitmap when their range is dense ([`dense_words`]), otherwise with
/// `sort_unstable`.
fn push_sorted(ball: &[Vertex], words: &mut Vec<u64>, out: &mut Vec<Vertex>) {
    let Some((lo, hi)) = dense_words(ball) else {
        let at = out.len();
        out.extend_from_slice(ball);
        out[at..].sort_unstable();
        return;
    };
    words.clear();
    words.resize((hi - lo) as usize + 1, 0);
    for &v in ball {
        words[((v >> 6) - lo) as usize] |= 1 << (v & 63);
    }
    out.reserve(ball.len());
    for (i, &word) in words.iter().enumerate() {
        let high = (lo + i as Vertex) << 6;
        let mut bits = word;
        while bits != 0 {
            out.push(high | bits.trailing_zeros());
            bits &= bits - 1;
        }
    }
}

/// Kernels of every bag of a cover at a fixed radius, as one CSR table:
/// bag `id`'s sorted kernel is `members[starts[id]..starts[id + 1]]`.
/// Both arrays are [`Slab`]s, so a mapped load borrows them in place. The
/// inverted index `v ↦ {X : v ∈ K_p(X)}` that the skip-pointer build
/// (Lemma 5.8) walks is not kept; [`KernelIndex::bags_of`] derives it on
/// demand.
#[derive(Clone)]
pub struct KernelIndex {
    pub p: u32,
    /// Vertex count of the graph (supplied by the loader, never stored).
    n: usize,
    /// CSR row offsets, length `num_bags + 1`.
    starts: Slab<u32>,
    /// Sorted kernel members, rows concatenated in bag order.
    members: Slab<Vertex>,
}

/// The inverted kernel index `v ↦ {X : v ∈ K_p(X)}`, as CSR rows of
/// sorted bag ids. Built by [`KernelIndex::bags_of`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KernelBags {
    starts: Vec<u32>,
    bags: Vec<BagId>,
}

impl KernelBags {
    /// Sorted bags whose kernel contains `v`.
    pub fn of(&self, v: Vertex) -> &[BagId] {
        let v = v as usize;
        &self.bags[self.starts[v] as usize..self.starts[v + 1] as usize]
    }
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
            let verts = cover.bag(id).verts;
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
        let mut starts = Vec::with_capacity(kernels.len() + 1);
        starts.push(0);
        let mut members = Vec::with_capacity(kernels.iter().map(Vec::len).sum());
        for k in &kernels {
            members.extend_from_slice(k);
            starts.push(crate::row_end(&members));
        }
        Ok(KernelIndex::from_rows(p, g.n(), starts, members))
    }

    /// An index over CSR kernel rows built elsewhere (the fused cover
    /// pass, [`Cover::try_build_with_kernels`]).
    pub(crate) fn from_rows(
        p: u32,
        n: usize,
        starts: Vec<u32>,
        members: Vec<Vertex>,
    ) -> KernelIndex {
        KernelIndex {
            p,
            n,
            starts: starts.into(),
            members: members.into(),
        }
    }

    /// Append the index's binary encoding to `w` (DESIGN.md §9): the two
    /// CSR slabs, which a load borrows in place. The vertex count is *not*
    /// stored — the loader supplies it from the graph, which prevents a
    /// corrupted count from driving a huge allocation.
    pub fn write_into(&self, w: &mut nd_persist::Writer) {
        w.u32(self.p);
        w.u32_slab(&self.starts);
        w.u32_slab(&self.members);
    }

    /// Decode an index over a graph with `n` vertices, re-validating the
    /// CSR shape, row order and vertex ranges under every verify policy
    /// (one pass over each slab, no allocation).
    pub fn read_from(
        r: &mut nd_persist::Reader<'_>,
        n: usize,
    ) -> Result<KernelIndex, nd_persist::PersistError> {
        let p = r.u32("kernel radius")?;
        let starts = r.u32_slab("kernel offsets")?;
        let members = r.u32_slab("kernel members")?;
        crate::check_rows(&starts, &members, n, "kernel")?;
        Ok(KernelIndex {
            p,
            n,
            starts,
            members,
        })
    }

    /// Number of bags the index holds kernels for.
    pub fn num_bags(&self) -> usize {
        self.starts.len() - 1
    }

    /// Sorted kernel of a bag.
    #[inline]
    pub fn kernel(&self, id: BagId) -> &[Vertex] {
        let i = id as usize;
        &self.members[self.starts[i] as usize..self.starts[i + 1] as usize]
    }

    /// The slot of `v` in bag `id`'s row, when `v ∈ K_p(X_id)`: its index
    /// into the member array, rows concatenated in bag order. Values
    /// stored parallel to the rows (the skip pointers' `SKIP(v, {X})`)
    /// are read at this slot. One binary search in the row.
    #[inline]
    pub fn slot_of(&self, id: BagId, v: Vertex) -> Option<usize> {
        let i = id as usize;
        let lo = self.starts[i] as usize;
        let row = &self.members[lo..self.starts[i + 1] as usize];
        row.binary_search(&v).ok().map(|j| lo + j)
    }

    /// Is `v ∈ K_p(X_id)`? `O(log)`.
    #[inline]
    pub fn in_kernel(&self, id: BagId, v: Vertex) -> bool {
        self.slot_of(id, v).is_some()
    }

    /// Kernel members over all bags: the slot count of an array parallel
    /// to the rows.
    pub fn total_size(&self) -> usize {
        self.members.len()
    }

    /// The inverted index `v ↦` sorted bags whose kernel contains `v`, by
    /// a counting sort over the kernel rows: `O(n + Σ_X |K_p(X)|)` time,
    /// two flat arrays. Builders that walk it (the skip closure, the
    /// dynamic far index) call this once per build.
    pub fn bags_of(&self) -> KernelBags {
        let mut starts = vec![0u32; self.n + 1];
        for &v in self.members.iter() {
            starts[v as usize + 1] += 1;
        }
        for v in 0..self.n {
            starts[v + 1] += starts[v];
        }
        let mut fill: Vec<u32> = starts[..self.n].to_vec();
        let mut bags = vec![0 as BagId; self.members.len()];
        // Rows are visited in bag order, so each vertex's bags land sorted.
        for id in 0..self.num_bags() as BagId {
            for &v in self.kernel(id) {
                let slot = &mut fill[v as usize];
                bags[*slot as usize] = id;
                *slot += 1;
            }
        }
        KernelBags { starts, bags }
    }

    /// Maximum number of kernels meeting at a vertex (≤ cover degree).
    /// One counting pass over the kernel members.
    pub fn degree(&self) -> usize {
        crate::max_count(self.n, &self.members)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_codec::{decode_mapped, POLICIES};
    use nd_graph::bfs::BfsScratch;
    use nd_graph::generators;
    use nd_persist::{PersistError, VerifyPolicy};

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
                let verts = cover.bag(id).verts;
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
        let verts = cover.bag(0).verts;
        assert_eq!(kernel_of_bag(&g, verts, 0), verts);
    }

    #[test]
    fn kernel_index_inversion() {
        let g = generators::grid(8, 8);
        let cover = Cover::build(&g, 2, 0.5);
        let ki = KernelIndex::build(&g, &cover, 2);
        let bags = ki.bags_of();
        for id in 0..cover.num_bags() as BagId {
            for &v in ki.kernel(id) {
                assert!(bags.of(v).contains(&id));
                let slot = ki.slot_of(id, v).expect("a member has a slot");
                assert_eq!(ki.members[slot], v);
            }
            let start = ki.starts[id as usize] as usize;
            assert_eq!(ki.slot_of(id, Vertex::MAX), None);
            assert_eq!(
                ki.kernel(id).first().map(|&v| ki.slot_of(id, v)),
                Some(Some(start))
            );
        }
        let mut total = 0;
        for v in g.vertices() {
            assert!(bags.of(v).windows(2).all(|w| w[0] < w[1]), "v={v}");
            for &id in bags.of(v) {
                assert!(ki.in_kernel(id, v));
            }
            total += bags.of(v).len();
        }
        assert_eq!(
            total,
            (0..ki.num_bags() as BagId)
                .map(|id| ki.kernel(id).len())
                .sum()
        );
        let widest = g.vertices().map(|v| bags.of(v).len()).max().unwrap();
        assert_eq!(ki.degree(), widest);
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
                assert_eq!(seq.starts, par.starts, "threads={threads}");
                assert_eq!(seq.members, par.members, "threads={threads}");
                assert_eq!(seq.bags_of(), par.bags_of(), "threads={threads}");
            }
        }
    }

    #[test]
    fn scratch_reuse_matches_fresh_allocation() {
        let g = generators::grid(9, 9);
        let cover = Cover::build(&g, 2, 0.5);
        let mut scratch = KernelScratch::new(g.n());
        for id in 0..cover.num_bags() as BagId {
            let verts = cover.bag(id).verts;
            assert_eq!(
                kernel_of_bag_with(&g, verts, 2, &mut scratch),
                kernel_of_bag(&g, verts, 2),
                "bag {id}"
            );
        }
    }

    /// Stamps restart after `u32::MAX` bags. Labels written under a
    /// stamp that comes round again must not read as members of the new
    /// bag.
    #[test]
    fn stamps_wrap_without_collisions() {
        let g = generators::grid(9, 9);
        let cover = Cover::build(&g, 2, 0.5);
        assert!(cover.num_bags() >= 3);
        let mut scratch = KernelScratch::new(g.n());
        // Stamp 1 on every vertex.
        let all: Vec<Vertex> = g.vertices().collect();
        kernel_of_bag_with(&g, &all, 2, &mut scratch);
        // The next bags take the last stamp, then 1, 2, ... again.
        scratch.stamp = u32::MAX - 1;
        for id in 0..cover.num_bags() as BagId {
            let verts = cover.bag(id).verts;
            assert_eq!(
                kernel_of_bag_with(&g, verts, 2, &mut scratch),
                kernel_of_bag(&g, verts, 2),
                "bag {id}"
            );
        }
    }

    fn encode_rows(p: u32, starts: &[u32], members: &[Vertex]) -> Vec<u8> {
        let mut w = nd_persist::Writer::new();
        w.u32(p);
        w.u32_slab(starts);
        w.u32_slab(members);
        w.into_bytes()
    }

    fn decode(bytes: &[u8], n: usize, policy: VerifyPolicy) -> Result<KernelIndex, PersistError> {
        decode_mapped(bytes, policy, |r| KernelIndex::read_from(r, n))
    }

    #[test]
    fn codec_roundtrip_answers_identically() {
        let g = generators::grid(8, 8);
        let cover = Cover::build(&g, 2, 0.5);
        let ki = KernelIndex::build(&g, &cover, 2);
        let mut w = nd_persist::Writer::new();
        ki.write_into(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(bytes, encode_rows(ki.p, &ki.starts, &ki.members));
        for policy in POLICIES {
            let back = decode(&bytes, g.n(), policy).unwrap();
            assert!(back.starts.is_mapped() && back.members.is_mapped());
            assert_eq!(back.p, ki.p);
            assert_eq!(back.num_bags(), ki.num_bags());
            for id in 0..ki.num_bags() as BagId {
                assert_eq!(back.kernel(id), ki.kernel(id));
            }
            assert_eq!(back.bags_of(), ki.bags_of());
            assert_eq!(back.degree(), ki.degree());
            // Out-of-range member against a smaller declared n fails typed.
            assert!(matches!(
                decode(&bytes, 1, policy),
                Err(PersistError::Malformed { .. })
            ));
            for cut in 0..bytes.len() {
                assert!(decode(&bytes[..cut], g.n(), policy).is_err(), "cut {cut}");
            }
        }
    }

    #[test]
    fn codec_rejects_broken_rows() {
        let g = generators::grid(8, 8);
        let n = g.n();
        let ki = KernelIndex::build(&g, &Cover::build(&g, 2, 0.5), 2);
        assert!(ki.kernel(0).len() >= 2 && ki.num_bags() >= 2);
        let assert_malformed = |corrupt: &dyn Fn(&mut Vec<u32>, &mut Vec<u32>), what: &str| {
            let (mut starts, mut members) = (ki.starts.to_vec(), ki.members.to_vec());
            corrupt(&mut starts, &mut members);
            let bytes = encode_rows(ki.p, &starts, &members);
            for policy in POLICIES {
                assert!(
                    matches!(
                        decode(&bytes, n, policy),
                        Err(PersistError::Malformed { .. })
                    ),
                    "{what} accepted under {policy:?}"
                );
            }
        };
        assert_malformed(&|s, _| s[1] = s[2] + 1, "non-monotone offsets");
        assert_malformed(&|s, _| s[0] = 1, "offsets not starting at 0");
        assert_malformed(&|s, _| *s.last_mut().unwrap() -= 1, "offsets ending early");
        assert_malformed(
            &|s, m| {
                s.clear();
                m.clear();
            },
            "no offsets at all",
        );
        assert_malformed(&|_, m| m.swap(0, 1), "an unsorted row");
        assert_malformed(
            &|_, m| *m.last_mut().unwrap() = n as u32,
            "a member out of range",
        );
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
