//! Neighborhood covers (Theorem 4.4) and kernels (Lemma 5.7).
//!
//! An `(r, s)`-neighborhood cover of `G` is a family `X` of vertex sets
//! ("bags") such that every `r`-ball `N_r(a)` is contained in some bag, and
//! every bag is contained in some `s`-ball. Its *degree* is the maximum
//! number of bags meeting at a vertex. Theorem 4.4 (Grohe–Kreutzer–Siebertz)
//! computes, on nowhere dense classes, an `(r, 2r)`-cover with degree
//! `≤ n^ε` in pseudo-linear time.
//!
//! We substitute the GKS construction with the classical greedy cover
//! (process vertices in domain order; an uncovered vertex `c` spawns the bag
//! `N_{2r}(c)` and covers all of `N_r(c)`), which produces a *valid*
//! `(r, 2r)`-cover on any graph; its degree is measured rather than proven
//! (experiment E2) and is small on the sparse families the paper targets.
//! See DESIGN.md §2 for the substitution argument.
//!
//! Each bag costs one ball BFS and one bounded boundary BFS (DESIGN.md
//! §8.1). A member of the ball `N_{2r}(c)` at depth `< 2r` has all its
//! neighbors inside the ball, so the boundary lies in the depth-`2r`
//! layer, which the ball BFS tests as it reaches it. The boundary BFS then
//! labels each member with its distance to the outside; those labels
//! decide which vertices the bag covers (`K_r`) and, in the fused build,
//! the bag's kernel row. Labels are indexed by vertex and stamped with
//! their bag, so no pass clears them between bags (see [`kernel`]).
//!
//! Bag membership and smallest-member-≥ queries are one binary search in
//! the bag's sorted row, `O(log |X|)`, as kernel rows are searched. The
//! paper's constant time (below Theorem 4.4) comes from the Storing
//! Theorem, which `nd_store::FnStore` exhibits (DESIGN.md §2). Each member
//! is stored once, as a `u32`.

pub mod kernel;
#[cfg(test)]
mod reference;

pub use kernel::{kernel_of_bag, kernel_of_bag_with, KernelBags, KernelIndex, KernelScratch};

use nd_graph::budget::{BudgetExceeded, BudgetTracker, Phase};
use nd_graph::{BfsScratch, ColoredGraph, Vertex};
use nd_persist::{malformed, PersistError, Slab};
use std::time::{Duration, Instant};

/// Index of a bag within a cover.
pub type BagId = u32;

/// Wall-clock breakdown of a cover build, for `PrepareStats`'s per-phase
/// timings.
#[derive(Clone, Copy, Debug, Default)]
pub struct CoverTimings {
    /// The greedy bag construction, boundary BFS included.
    pub greedy_ms: u64,
    /// Emitting the `K_p` rows and their charges, in
    /// [`Cover::try_build_with_kernels`] only (0 otherwise).
    pub kernel_ms: u64,
}

/// One bag of a cover, borrowed from the cover's row slabs.
#[derive(Clone, Copy, Debug)]
pub struct Bag<'a> {
    /// The vertex whose `2r`-ball spawned (and contains) the bag.
    pub center: Vertex,
    /// Sorted members.
    pub verts: &'a [Vertex],
}

/// An `(r, 2r)`-neighborhood cover.
///
/// Every part is a flat array — [`Slab`]s that a mapped load borrows in
/// place — so loading a saved cover allocates nothing per vertex or per
/// bag. The answering phase reads `assignment` (through
/// [`Cover::bag_of`]) and the sorted bag rows.
#[derive(Clone)]
pub struct Cover {
    pub r: u32,
    /// `X(a)`: the canonical bag covering `N_r(a)`.
    assignment: Slab<BagId>,
    /// Per bag, the vertex that spawned it.
    centers: Slab<Vertex>,
    /// CSR row offsets: bag `id`'s sorted members are
    /// `members[starts[id]..starts[id + 1]]`. Length `num_bags + 1`.
    starts: Slab<u32>,
    /// The bag rows, concatenated in bag order.
    members: Slab<Vertex>,
    /// Build-time phase breakdown (not part of the cover's value — two
    /// covers built from the same input are equal regardless of timings).
    timings: CoverTimings,
}

/// One sequential pass over a CSR table of sorted vertex sets: the
/// offsets run from 0 to the end of `members`, every row is strictly
/// increasing and every member is `< n`. Rows are read through `get`, so
/// non-monotone offsets fail typed instead of panicking. Allocates
/// nothing.
pub(crate) fn check_rows(
    starts: &[u32],
    members: &[Vertex],
    n: usize,
    what: &str,
) -> Result<(), PersistError> {
    if starts.first() != Some(&0) || starts.last().map(|&e| e as usize) != Some(members.len()) {
        return Err(malformed(format!("{what} offsets do not span the members")));
    }
    for ends in starts.windows(2) {
        let row = members
            .get(ends[0] as usize..ends[1] as usize)
            .ok_or_else(|| malformed(format!("{what} offsets are not monotone")))?;
        if row.windows(2).any(|p| p[0] >= p[1]) {
            return Err(malformed(format!("{what} row is not strictly sorted")));
        }
        if row.last().is_some_and(|&v| v as usize >= n) {
            return Err(malformed(format!("{what} member out of range")));
        }
    }
    Ok(())
}

/// Bytes per vertex the cover greedy holds for its whole run: `covered`
/// (1) and `assignment` (4), and the [`KernelScratch`] labels (8) and its
/// two `n + 1`-slot queues (4 + 4).
const GREEDY_BYTES_PER_VERTEX: u64 = 21;

/// Row end offset for a CSR table. Rows are built in memory as `u32`
/// vectors, so `2^32` members would need 16 GiB before this could fail.
fn row_end(members: &[Vertex]) -> u32 {
    u32::try_from(members.len()).expect("CSR rows exceed u32 offsets")
}

impl Cover {
    /// Greedy `(r, 2r)`-cover of `g`. `epsilon` is the paper's accuracy
    /// parameter; no part of this layout depends on it.
    ///
    /// Unbudgeted convenience; see [`Cover::try_build`] for cooperative
    /// cancellation.
    pub fn build(g: &ColoredGraph, r: u32, epsilon: f64) -> Cover {
        Self::try_build(g, r, epsilon, &BudgetTracker::unlimited())
            .expect("unlimited budget cannot be exceeded")
    }

    /// Greedy `(r, 2r)`-cover of `g`, charging BFS visits and bag rows
    /// against `tracker` so that a capped preprocessing run bails out with
    /// [`BudgetExceeded`] instead of building an `Ω(n²)` cover on a dense
    /// graph.
    pub fn try_build(
        g: &ColoredGraph,
        r: u32,
        _epsilon: f64,
        tracker: &BudgetTracker,
    ) -> Result<Cover, BudgetExceeded> {
        Ok(Self::try_build_inner(g, r, None, tracker)?.0)
    }

    /// [`Cover::try_build`] that also returns the `p`-kernels of its bags,
    /// equal to [`KernelIndex::try_build`] over the finished cover. The
    /// greedy already runs a boundary BFS per bag to find the vertices the
    /// bag covers; the `K_p` row is read off the same labels while they
    /// are current, so Lemma 5.7's `O(p·‖G[X]‖)` is paid once per bag.
    ///
    /// The kernel charges are exactly [`KernelIndex::try_build`]'s, in its
    /// order: after the cover's own charges, per bag `|X| + 1` nodes and
    /// `4|K_p(X)| + 8` bytes under [`Phase::KernelConstruction`]. A capped
    /// run therefore trips at the same charge, with the same phase and
    /// spend, as the two-pass build, and the node total is the same.
    pub fn try_build_with_kernels(
        g: &ColoredGraph,
        r: u32,
        p: u32,
        tracker: &BudgetTracker,
    ) -> Result<(Cover, KernelIndex), BudgetExceeded> {
        let (cover, kernels) = Self::try_build_inner(g, r, Some(p), tracker)?;
        Ok((cover, kernels.expect("kernel rows requested")))
    }

    fn try_build_inner(
        g: &ColoredGraph,
        r: u32,
        kernel_radius: Option<u32>,
        tracker: &BudgetTracker,
    ) -> Result<(Cover, Option<KernelIndex>), BudgetExceeded> {
        let t_greedy = Instant::now();
        let n = g.n();
        let mut covered = vec![false; n];
        let mut assignment = vec![0 as BagId; n];
        let mut centers: Vec<Vertex> = Vec::new();
        let mut starts: Vec<u32> = vec![0];
        let mut members: Vec<Vertex> = Vec::new();
        let mut kernel_starts: Vec<u32> = vec![0];
        let mut kernel_members: Vec<Vertex> = Vec::new();
        let mut kernel_time = Duration::ZERO;
        let mut scratch = KernelScratch::new(n);
        // Labels exact up to both radii answer both kernels.
        let label_radius = kernel_radius.map_or(r, |p| p.max(r));
        tracker.charge_memory(Phase::CoverConstruction, GREEDY_BYTES_PER_VERTEX * n as u64)?;
        for c in 0..n as Vertex {
            if covered[c as usize] {
                continue;
            }
            let id = centers.len() as BagId;
            let lo = members.len();
            kernel::label_ball(g, c, 2 * r, label_radius, &mut scratch, &mut members);
            let verts = &members[lo..];
            // The 2r-ball BFS visits |verts| vertices and the boundary BFS
            // touches each bag member O(r) more times; charge the
            // dominant term.
            tracker.charge_nodes(Phase::CoverConstruction, verts.len() as u64 + 1)?;
            tracker.charge_memory(Phase::CoverConstruction, 4 * verts.len() as u64)?;
            // Every vertex of the bag's r-kernel has its whole r-ball inside
            // the bag, so the bag can serve as X(a) for all of them — this
            // covers a superset of N_r(c) (which is always inside the
            // kernel), reducing the number of bags and hence the cover
            // degree.
            for &a in verts {
                if scratch.in_kernel(a, r) && !covered[a as usize] {
                    covered[a as usize] = true;
                    assignment[a as usize] = id;
                }
            }
            debug_assert!(covered[c as usize], "center must cover itself");
            if let Some(p) = kernel_radius {
                let t_kernel = Instant::now();
                kernel_members.extend(verts.iter().copied().filter(|&v| scratch.in_kernel(v, p)));
                kernel_starts.push(row_end(&kernel_members));
                kernel_time += t_kernel.elapsed();
            }
            centers.push(c);
            starts.push(row_end(&members));
        }

        let greedy_ms = t_greedy.elapsed().saturating_sub(kernel_time).as_millis() as u64;
        tracker.checkpoint(Phase::CoverConstruction)?;

        let kernels = match kernel_radius {
            Some(p) => {
                let t_kernel = Instant::now();
                for (bag, row) in starts.windows(2).zip(kernel_starts.windows(2)) {
                    let (bag_len, row_len) = (bag[1] - bag[0], row[1] - row[0]);
                    tracker.charge_nodes(Phase::KernelConstruction, u64::from(bag_len) + 1)?;
                    tracker.charge_memory(Phase::KernelConstruction, 4 * u64::from(row_len) + 8)?;
                }
                kernel_time += t_kernel.elapsed();
                Some(KernelIndex::from_rows(p, n, kernel_starts, kernel_members))
            }
            None => None,
        };

        let cover = Cover {
            r,
            assignment: assignment.into(),
            centers: centers.into(),
            starts: starts.into(),
            members: members.into(),
            timings: CoverTimings {
                greedy_ms,
                kernel_ms: kernel_time.as_millis() as u64,
            },
        };
        Ok((cover, kernels))
    }

    /// Wall-clock breakdown recorded while building this cover.
    pub fn build_timings(&self) -> CoverTimings {
        self.timings
    }

    /// Number of vertices of the covered graph.
    pub fn n(&self) -> usize {
        self.assignment.len()
    }

    /// Number of bags.
    pub fn num_bags(&self) -> usize {
        self.centers.len()
    }

    /// The bag with the given id.
    pub fn bag(&self, id: BagId) -> Bag<'_> {
        let i = id as usize;
        Bag {
            center: self.centers[i],
            verts: &self.members[self.starts[i] as usize..self.starts[i + 1] as usize],
        }
    }

    /// The canonical bag `X(a)` (contains `N_r(a)`).
    pub fn bag_of(&self, a: Vertex) -> BagId {
        self.assignment[a as usize]
    }

    /// Smallest member of bag `id` that is `≥ v` — the `b_X` lookup of the
    /// answering phase (Section 5.2.2); `v` is a member exactly when the
    /// answer is `Some(v)`. One binary search in the sorted row,
    /// `O(log |X|)`. Callers that walk a bag search once and then iterate
    /// [`Bag::verts`].
    #[inline]
    pub fn successor_in_bag(&self, id: BagId, v: Vertex) -> Option<Vertex> {
        let row = self.bag(id).verts;
        row.get(row.partition_point(|&w| w < v)).copied()
    }

    /// The cover degree `δ(X)`: maximum number of bags meeting at a vertex.
    /// One counting pass over the bag members (a statistic, not a probe).
    pub fn degree(&self) -> usize {
        max_count(self.n(), &self.members)
    }

    /// `Σ_X |X|` — the quantity bounded by `n^{1+ε}` in the paper (Eq. 1).
    pub fn total_bag_size(&self) -> usize {
        self.members.len()
    }

    /// Append the cover's binary encoding to `w` (DESIGN.md §9): the
    /// assignment, the bag centers and the CSR bag rows as aligned slabs.
    /// A load borrows every part in place; there is no derived index to
    /// rebuild.
    pub fn write_into(&self, w: &mut nd_persist::Writer) {
        w.u32(self.r);
        w.u32_slab(&self.assignment);
        w.u32_slab(&self.centers);
        w.u32_slab(&self.starts);
        w.u32_slab(&self.members);
    }

    /// Decode a cover, re-validating the invariants the accessors index
    /// by — assignment targets exist, centers in range, bag rows a CSR
    /// table of sorted in-range vertex sets — under every verify policy:
    /// each check is one pass over its slab and allocates nothing.
    pub fn read_from(r: &mut nd_persist::Reader<'_>) -> Result<Cover, PersistError> {
        let radius = r.u32("cover radius")?;
        let assignment = r.u32_slab("cover assignment")?;
        let centers = r.u32_slab("cover bag centers")?;
        let starts = r.u32_slab("cover bag offsets")?;
        let members = r.u32_slab("cover bag members")?;
        let n = assignment.len();
        let num_bags = centers.len();
        if starts.len() != num_bags + 1 {
            return Err(malformed("cover bag offsets sized for another bag count"));
        }
        check_rows(&starts, &members, n, "cover bag")?;
        if centers.iter().any(|&c| c as usize >= n) {
            return Err(malformed("bag center out of range"));
        }
        if n > 0 && num_bags == 0 {
            return Err(malformed("cover of a non-empty graph has no bags"));
        }
        if assignment.iter().any(|&id| id as usize >= num_bags) {
            return Err(malformed("cover assignment targets a missing bag"));
        }
        Ok(Cover {
            r: radius,
            assignment,
            centers,
            starts,
            members,
            timings: CoverTimings::default(),
        })
    }

    /// Verify the `(r, 2r)`-cover conditions exhaustively (test helper).
    pub fn validate(&self, g: &ColoredGraph) {
        let mut scratch = BfsScratch::new(g.n());
        for a in g.vertices() {
            let ball = scratch.ball_sorted(g, a, self.r);
            let bag = self.bag(self.bag_of(a));
            for v in ball {
                assert!(
                    bag.verts.binary_search(&v).is_ok(),
                    "N_r({a}) not inside X({a})"
                );
            }
        }
        for id in 0..self.num_bags() as BagId {
            let bag = self.bag(id);
            let ball = scratch.ball_sorted(g, bag.center, 2 * self.r);
            for &v in bag.verts {
                assert!(
                    ball.binary_search(&v).is_ok(),
                    "bag of center {} exceeds its 2r-ball",
                    bag.center
                );
            }
        }
    }
}

/// Largest number of occurrences of one vertex in `members` (vertices
/// `< n`): the degree of a family of vertex sets stored as CSR rows.
pub(crate) fn max_count(n: usize, members: &[Vertex]) -> usize {
    let mut count = vec![0u32; n];
    for &v in members {
        count[v as usize] += 1;
    }
    count.into_iter().max().unwrap_or(0) as usize
}

/// Decoding through a file image, shared by the cover and kernel codec
/// tests.
#[cfg(test)]
pub(crate) mod test_codec {
    use nd_persist::{MmapFile, PersistError, Reader, SlabCtx, VerifyPolicy};
    use std::sync::Arc;

    pub const POLICIES: [VerifyPolicy; 2] = [VerifyPolicy::Full, VerifyPolicy::Lazy];

    /// Decode `bytes` through a 16-byte-aligned file image, so slabs
    /// borrow in place exactly as on a mapped load under `policy`, and
    /// require the reader to end where the value does.
    pub fn decode_mapped<T>(
        bytes: &[u8],
        policy: VerifyPolicy,
        read: impl FnOnce(&mut Reader<'_>) -> Result<T, PersistError>,
    ) -> Result<T, PersistError> {
        let file = Arc::new(MmapFile::from_bytes(bytes));
        let ctx = SlabCtx {
            file: file.clone(),
            validate: policy == VerifyPolicy::Full,
        };
        let mut r = Reader::with_slab(file.as_slice(), ctx);
        let value = read(&mut r)?;
        r.finish()?;
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_codec::{decode_mapped, POLICIES};
    use nd_graph::generators;
    use nd_persist::VerifyPolicy;

    /// The greedy's graph-sized buffers are charged before the first
    /// bag: a memory cap one byte below them trips the cover phase on
    /// that charge, with or without fused kernel rows.
    #[test]
    fn a_memory_cap_below_the_greedy_buffers_trips_the_cover() {
        use nd_graph::budget::{Budget, Resource};
        let g = generators::grid(10, 10);
        let held = GREEDY_BYTES_PER_VERTEX * g.n() as u64;
        // What the greedy allocates per vertex: the scratch's labels and
        // queues, then `covered` and `assignment`.
        let scratch = KernelScratch::new(g.n()).held_bytes() as u64;
        assert_eq!(held, scratch - 8 + (1 + 4) * g.n() as u64);
        let budget = Budget::UNLIMITED.with_memory_bytes(held - 1);
        let errs = [
            Cover::try_build(&g, 2, 0.5, &budget.start()).map(drop),
            Cover::try_build_with_kernels(&g, 2, 1, &budget.start()).map(drop),
        ];
        for err in errs {
            let err = err.unwrap_err();
            assert_eq!(err.phase, Phase::CoverConstruction);
            assert_eq!((err.resource, err.spent), (Resource::MemoryBytes, held));
        }
    }

    #[test]
    fn cover_is_valid_on_families() {
        for (g, r) in [
            (generators::path(50), 2),
            (generators::grid(10, 10), 2),
            (generators::random_tree(80, 1), 3),
            (generators::bounded_degree(120, 4, 5), 2),
            (generators::clique(12), 1),
            (generators::path(1), 1),
        ] {
            let cover = Cover::build(&g, r, 0.5);
            cover.validate(&g);
        }
    }

    #[test]
    fn every_vertex_assigned() {
        let g = generators::grid(8, 8);
        let cover = Cover::build(&g, 2, 0.5);
        for v in g.vertices() {
            let id = cover.bag_of(v);
            assert_eq!(cover.successor_in_bag(id, v), Some(v));
            assert!(cover.bag(id).verts.binary_search(&v).is_ok());
        }
    }

    /// The families the row-scan tests sweep: sparse and dense ones, a
    /// star whose one bag holds every vertex, and `n = 0` and `n = 1`.
    fn families() -> Vec<(&'static str, nd_graph::ColoredGraph, u32)> {
        vec![
            ("path", generators::path(40), 2),
            ("grid", generators::grid(9, 9), 1),
            ("tree", generators::random_tree(90, 4), 2),
            ("bounded", generators::bounded_degree(120, 4, 2), 2),
            ("clique", generators::clique(12), 1),
            ("star", generators::star(17), 1),
            ("n0", generators::path(0), 1),
            ("n1", generators::path(1), 1),
        ]
    }

    /// `successor_in_bag` answers every probe of every bag exactly as a
    /// scan of the bag's row does, probes past `n` included.
    fn assert_rows_answer(name: &str, cover: &Cover) {
        for id in 0..cover.num_bags() as BagId {
            let row = cover.bag(id).verts;
            for v in 0..cover.n() as Vertex + 2 {
                let want = row.iter().copied().find(|&w| w >= v);
                assert_eq!(
                    cover.successor_in_bag(id, v),
                    want,
                    "{name}: bag {id}, v={v}"
                );
            }
        }
    }

    #[test]
    fn successor_agrees_with_a_row_scan() {
        for (name, g, r) in families() {
            let cover = Cover::build(&g, r, 0.5);
            assert_rows_answer(name, &cover);
            let bytes = encode(&cover);
            for policy in POLICIES {
                assert_rows_answer(name, &decode(&bytes, policy).unwrap());
            }
        }
        let star = Cover::build(&generators::star(17), 1, 0.5);
        assert_eq!(star.num_bags(), 1);
        assert_eq!(star.bag(0).verts.len(), 17);
    }

    #[test]
    fn degree_small_on_path_large_on_clique() {
        let p = Cover::build(&generators::path(200), 2, 0.5);
        assert!(p.degree() <= 3, "path cover degree {}", p.degree());
        let k = Cover::build(&generators::clique(30), 2, 0.5);
        assert_eq!(k.num_bags(), 1);
        assert_eq!(k.degree(), 1);
    }

    #[test]
    fn centers_spawn_bags() {
        let g = generators::star(10);
        let cover = Cover::build(&g, 1, 0.5);
        // Vertex 0 covers everything in one bag.
        assert_eq!(cover.num_bags(), 1);
        assert_eq!(cover.bag(0).center, 0);
        assert_eq!(cover.bag(0).verts.len(), 10);
    }

    #[test]
    fn empty_graph() {
        let g = generators::path(0);
        let cover = Cover::build(&g, 2, 0.5);
        assert_eq!(cover.num_bags(), 0);
        assert_eq!(cover.degree(), 0);
    }

    #[test]
    fn codec_roundtrip_preserves_every_query_surface() {
        for (g, r) in [
            (generators::grid(8, 8), 2u32),
            (generators::path(30), 3),
            (generators::path(0), 1),
        ] {
            let cover = Cover::build(&g, r, 0.5);
            let bytes = encode(&cover);
            for policy in POLICIES {
                let back = decode(&bytes, policy).unwrap();
                assert_eq!(back.r, cover.r);
                assert_eq!(back.num_bags(), cover.num_bags());
                assert_eq!(back.degree(), cover.degree());
                assert_eq!(back.total_bag_size(), cover.total_bag_size());
                for v in g.vertices() {
                    assert_eq!(back.bag_of(v), cover.bag_of(v));
                }
                for id in 0..cover.num_bags() as BagId {
                    assert_eq!(back.bag(id).center, cover.bag(id).center);
                    assert_eq!(back.bag(id).verts, cover.bag(id).verts);
                    for v in 0..g.n() as Vertex {
                        assert_eq!(back.successor_in_bag(id, v), cover.successor_in_bag(id, v));
                    }
                }
                if g.n() > 0 {
                    back.validate(&g);
                }
                assert_eq!(encode(&back), bytes, "re-encode differs");
            }
        }
    }

    fn encode(cover: &Cover) -> Vec<u8> {
        let mut w = nd_persist::Writer::new();
        cover.write_into(&mut w);
        w.into_bytes()
    }

    fn decode(bytes: &[u8], policy: VerifyPolicy) -> Result<Cover, PersistError> {
        decode_mapped(bytes, policy, Cover::read_from)
    }

    /// The cover's slabs as plain values, to corrupt one at a time.
    struct Parts {
        assignment: Vec<u32>,
        centers: Vec<u32>,
        starts: Vec<u32>,
        members: Vec<u32>,
    }

    impl Parts {
        fn of(cover: &Cover) -> Parts {
            Parts {
                assignment: cover.assignment.to_vec(),
                centers: cover.centers.to_vec(),
                starts: cover.starts.to_vec(),
                members: cover.members.to_vec(),
            }
        }

        /// Encode exactly as [`Cover::write_into`] does, with these parts.
        fn encode(&self, cover: &Cover) -> Vec<u8> {
            let mut w = nd_persist::Writer::new();
            w.u32(cover.r);
            w.u32_slab(&self.assignment);
            w.u32_slab(&self.centers);
            w.u32_slab(&self.starts);
            w.u32_slab(&self.members);
            w.into_bytes()
        }
    }

    fn is_malformed(got: Result<Cover, PersistError>) -> bool {
        matches!(got, Err(PersistError::Malformed { .. }))
    }

    fn assert_malformed(cover: &Cover, corrupt: impl Fn(&mut Parts), what: &str) {
        let mut parts = Parts::of(cover);
        corrupt(&mut parts);
        let bytes = parts.encode(cover);
        for policy in POLICIES {
            assert!(
                is_malformed(decode(&bytes, policy)),
                "{what} accepted under {policy:?}"
            );
        }
    }

    #[test]
    fn codec_rejects_missing_bag_targets() {
        let cover = Cover::build(&generators::path(10), 2, 0.5);
        assert_eq!(Parts::of(&cover).encode(&cover), encode(&cover));
        let bags = cover.num_bags() as u32;
        assert_malformed(&cover, |p| p.assignment[0] = bags, "a missing bag");
        assert_malformed(&cover, |p| p.assignment[9] = u32::MAX, "a far missing bag");
    }

    #[test]
    fn codec_rejects_broken_bag_rows() {
        let g = generators::grid(6, 6);
        let n = g.n() as u32;
        let cover = Cover::build(&g, 1, 0.5);
        assert!(cover.num_bags() >= 3);
        assert_malformed(
            &cover,
            |p| p.starts[1] = p.starts[2] + 1,
            "non-monotone offsets",
        );
        assert_malformed(&cover, |p| p.starts[0] = 1, "offsets not starting at 0");
        assert_malformed(
            &cover,
            |p| *p.starts.last_mut().unwrap() -= 1,
            "offsets ending early",
        );
        assert_malformed(&cover, |p| p.members.swap(0, 1), "an unsorted row");
        assert_malformed(
            &cover,
            |p| *p.members.last_mut().unwrap() = n,
            "a member out of range",
        );
        assert_malformed(&cover, |p| p.centers[1] = n, "a center out of range");
        assert_malformed(
            &cover,
            |p| p.starts.push(*p.starts.last().unwrap()),
            "offsets sized for another bag count",
        );
        assert_malformed(
            &cover,
            |p| {
                p.centers.clear();
                p.starts.truncate(1);
                p.members.clear();
            },
            "a non-empty graph without bags",
        );
    }

    #[test]
    fn codec_truncations_fail_typed() {
        for g in [
            generators::grid(5, 5),
            generators::path(1),
            generators::path(0),
        ] {
            let cover = Cover::build(&g, 2, 0.5);
            let bytes = encode(&cover);
            for cut in 0..bytes.len() {
                for policy in POLICIES {
                    assert!(
                        matches!(
                            decode(&bytes[..cut], policy),
                            Err(PersistError::Truncated { .. } | PersistError::Malformed { .. })
                        ),
                        "n={}, cut {cut}",
                        g.n()
                    );
                }
            }
        }
    }
}
