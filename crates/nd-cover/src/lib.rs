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
//! Bag membership and smallest-member-≥ queries are answered in constant
//! time through the Storing Theorem structure ([`nd_store::KeySet`]) keyed
//! by `(bag, vertex)` pairs, exactly as sketched below Theorem 4.4 in the
//! paper.

pub mod kernel;

pub use kernel::{kernel_of_bag, kernel_of_bag_with, KernelIndex, KernelScratch};

use nd_graph::budget::{BudgetExceeded, BudgetTracker, Phase};
use nd_graph::{BfsScratch, ColoredGraph, Vertex};
use nd_store::{KeySet, StoreParams};
use std::time::Instant;

/// Index of a bag within a cover.
pub type BagId = u32;

/// Wall-clock breakdown of a cover build, for `PrepareStats`'s per-phase
/// timings: the greedy bag construction vs. the Storing-Theorem
/// membership store (`TrieBuild`).
#[derive(Clone, Copy, Debug, Default)]
pub struct CoverTimings {
    pub greedy_ms: u64,
    pub store_ms: u64,
}

/// One bag of a cover.
#[derive(Clone, Debug)]
pub struct Bag {
    /// The vertex whose `2r`-ball spawned (and contains) the bag.
    pub center: Vertex,
    /// Sorted members.
    pub verts: Vec<Vertex>,
}

/// An `(r, 2r)`-neighborhood cover.
#[derive(Clone)]
pub struct Cover {
    pub r: u32,
    bags: Vec<Bag>,
    /// `X(a)`: the canonical bag covering `N_r(a)`.
    assignment: Vec<BagId>,
    /// For each vertex, the sorted list of bags containing it.
    bags_of: Vec<Vec<BagId>>,
    /// For each bag, the vertices `b` with `X(b) = bag` (sorted).
    assigned_members: Vec<Vec<Vertex>>,
    /// Storing-Theorem membership structure keyed by `(bag, vertex)`.
    membership: KeySet,
    /// Build-time phase breakdown (not part of the cover's value — two
    /// covers built from the same input are equal regardless of timings).
    timings: CoverTimings,
}

impl Cover {
    /// Greedy `(r, 2r)`-cover of `g`; `epsilon` parameterizes the membership
    /// store.
    ///
    /// Unbudgeted convenience; see [`Cover::try_build`] for cooperative
    /// cancellation.
    pub fn build(g: &ColoredGraph, r: u32, epsilon: f64) -> Cover {
        Self::try_build(g, r, epsilon, &BudgetTracker::unlimited())
            .expect("unlimited budget cannot be exceeded")
    }

    /// Greedy `(r, 2r)`-cover of `g`, charging BFS visits and trie inserts
    /// against `tracker` so that a capped preprocessing run bails out with
    /// [`BudgetExceeded`] instead of building an `Ω(n²)` cover on a dense
    /// graph.
    pub fn try_build(
        g: &ColoredGraph,
        r: u32,
        epsilon: f64,
        tracker: &BudgetTracker,
    ) -> Result<Cover, BudgetExceeded> {
        let t_greedy = Instant::now();
        let n = g.n();
        let mut covered = vec![false; n];
        let mut assignment = vec![0 as BagId; n];
        let mut bags: Vec<Bag> = Vec::new();
        let mut scratch = BfsScratch::new(n);
        let mut kscratch = KernelScratch::new(n);
        tracker.charge_memory(Phase::CoverConstruction, 6 * n as u64)?;
        for c in 0..n as Vertex {
            if covered[c as usize] {
                continue;
            }
            let id = bags.len() as BagId;
            scratch.run(g, c, 2 * r);
            let mut verts: Vec<Vertex> = scratch.reached().to_vec();
            verts.sort_unstable();
            // The 2r-ball BFS visits |verts| vertices and the kernel BFS
            // below touches each bag member O(r) more times; charge the
            // dominant term.
            tracker.charge_nodes(Phase::CoverConstruction, verts.len() as u64 + 1)?;
            tracker.charge_memory(Phase::CoverConstruction, 4 * verts.len() as u64)?;
            // Every vertex of the bag's r-kernel has its whole r-ball inside
            // the bag, so the bag can serve as X(a) for all of them — this
            // covers a superset of N_r(c) (which is always inside the
            // kernel), reducing the number of bags and hence the cover
            // degree.
            for a in kernel::kernel_of_bag_with(g, &verts, r, &mut kscratch) {
                if !covered[a as usize] {
                    covered[a as usize] = true;
                    assignment[a as usize] = id;
                }
            }
            debug_assert!(covered[c as usize], "center must cover itself");
            bags.push(Bag { center: c, verts });
        }

        let mut bags_of: Vec<Vec<BagId>> = vec![Vec::new(); n];
        for (id, bag) in bags.iter().enumerate() {
            for &v in &bag.verts {
                bags_of[v as usize].push(id as BagId);
            }
        }
        let mut assigned_members: Vec<Vec<Vertex>> = vec![Vec::new(); bags.len()];
        for v in 0..n {
            assigned_members[assignment[v] as usize].push(v as Vertex);
        }

        let greedy_ms = t_greedy.elapsed().as_millis() as u64;
        let t_store = Instant::now();
        let params = StoreParams::new(n.max(bags.len()).max(1) as u64, 2, epsilon.max(1e-9));
        // Bags are enumerated in id order with sorted member lists, so the
        // packed (bag, vertex) keys come out strictly increasing — the
        // membership store builds in one bulk pass instead of
        // insert-at-a-time with per-key successor repairs.
        let mut packed = Vec::with_capacity(bags.iter().map(|b| b.verts.len()).sum());
        for (id, bag) in bags.iter().enumerate() {
            // nd-store has no budget hooks of its own (it sits below
            // nd-graph in the DAG); its callers charge store work here.
            tracker.charge_nodes(Phase::TrieBuild, bag.verts.len() as u64)?;
            tracker.charge_memory(Phase::TrieBuild, 16 * bag.verts.len() as u64)?;
            for &v in &bag.verts {
                packed.push(params.pack(&[id as u64, v as u64]));
            }
        }
        let membership = KeySet::from_sorted_packed(params, packed);
        tracker.checkpoint(Phase::CoverConstruction)?;

        Ok(Cover {
            r,
            bags,
            assignment,
            bags_of,
            assigned_members,
            membership,
            timings: CoverTimings {
                greedy_ms,
                store_ms: t_store.elapsed().as_millis() as u64,
            },
        })
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
        self.bags.len()
    }

    /// The bag with the given id.
    pub fn bag(&self, id: BagId) -> &Bag {
        &self.bags[id as usize]
    }

    /// The canonical bag `X(a)` (contains `N_r(a)`).
    pub fn bag_of(&self, a: Vertex) -> BagId {
        self.assignment[a as usize]
    }

    /// Vertices `b` with `X(b) = id` (the per-bag list of Step 3 of the
    /// Section 5.2.1 preprocessing).
    pub fn assigned_members(&self, id: BagId) -> &[Vertex] {
        &self.assigned_members[id as usize]
    }

    /// Sorted list of bags containing `v`.
    pub fn bags_containing(&self, v: Vertex) -> &[BagId] {
        &self.bags_of[v as usize]
    }

    /// Constant-time membership test via the Storing Theorem structure.
    pub fn contains(&self, id: BagId, v: Vertex) -> bool {
        self.membership.contains(&[id as u64, v as u64])
    }

    /// Smallest member of the bag that is `≥ v` (constant time) — the
    /// `b_X` lookup of the answering phase (Section 5.2.2).
    pub fn successor_in_bag(&self, id: BagId, v: Vertex) -> Option<Vertex> {
        let params = self.membership.params();
        if (v as u64) >= params.n {
            return None;
        }
        let packed = params.pack(&[id as u64, v as u64]);
        match self.membership.successor_inclusive_packed(packed) {
            Some(next) => {
                let mut key = [0u64; 2];
                params.unpack_into(next, &mut key);
                (key[0] == id as u64).then_some(key[1] as Vertex)
            }
            None => None,
        }
    }

    /// The cover degree `δ(X)`: maximum number of bags meeting at a vertex.
    pub fn degree(&self) -> usize {
        self.bags_of.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// `Σ_X |X|` — the quantity bounded by `n^{1+ε}` in the paper (Eq. 1).
    pub fn total_bag_size(&self) -> usize {
        self.bags.iter().map(|b| b.verts.len()).sum()
    }

    /// Append the cover's binary encoding to `w` (DESIGN.md §9).
    ///
    /// The Storing-Theorem membership store — the expensive part of a
    /// cover build (`store_ms` dominates on dense families) — is
    /// serialized verbatim; the cheap inverted indexes (`bags_of`,
    /// `assigned_members`) are rebuilt on load in `O(Σ_X |X| + n)`.
    pub fn write_into(&self, w: &mut nd_persist::Writer) {
        w.u32(self.r);
        w.seq_len(self.assignment.len());
        for &id in &self.assignment {
            w.u32(id);
        }
        w.seq_len(self.bags.len());
        for bag in &self.bags {
            w.u32(bag.center);
            w.u32_slice(&bag.verts);
        }
        self.membership.write_into(w);
    }

    /// Decode a cover, re-validating the invariants the accessors index
    /// by (assignment targets exist, bag members in range and sorted).
    pub fn read_from(r: &mut nd_persist::Reader<'_>) -> Result<Cover, nd_persist::PersistError> {
        use nd_persist::malformed;
        let radius = r.u32("cover radius")?;
        let n = r.seq_len(4, "cover assignment")?;
        let mut assignment = Vec::with_capacity(n);
        for _ in 0..n {
            assignment.push(r.u32("cover assignment entry")?);
        }
        let num_bags = r.seq_len(4, "cover bag count")?;
        let mut bags = Vec::with_capacity(num_bags);
        for _ in 0..num_bags {
            let center = r.u32("bag center")?;
            let verts = r.u32_slice_sorted(n as u32, "bag members")?;
            if (center as usize) >= n {
                return Err(malformed("bag center out of range"));
            }
            bags.push(Bag { center, verts });
        }
        if n > 0 && num_bags == 0 {
            return Err(malformed("cover of a non-empty graph has no bags"));
        }
        if assignment.iter().any(|&id| (id as usize) >= num_bags) {
            return Err(malformed("cover assignment targets a missing bag"));
        }
        let membership = KeySet::read_from(r)?;
        // successor_in_bag packs (bag, vertex) pairs through these params;
        // a mismatched shape would trip the packer's arity contract.
        if membership.params().k != 2 {
            return Err(malformed("cover membership store must be binary"));
        }
        if membership.params().n < n.max(num_bags).max(1) as u64 {
            return Err(malformed("cover membership key range too small"));
        }
        let mut bags_of: Vec<Vec<BagId>> = vec![Vec::new(); n];
        for (id, bag) in bags.iter().enumerate() {
            for &v in &bag.verts {
                bags_of[v as usize].push(id as BagId);
            }
        }
        let mut assigned_members: Vec<Vec<Vertex>> = vec![Vec::new(); bags.len()];
        for (v, &id) in assignment.iter().enumerate() {
            assigned_members[id as usize].push(v as Vertex);
        }
        Ok(Cover {
            r: radius,
            bags,
            assignment,
            bags_of,
            assigned_members,
            membership,
            timings: CoverTimings::default(),
        })
    }

    /// Verify the `(r, 2r)`-cover conditions exhaustively (test helper).
    pub fn validate(&self, g: &ColoredGraph) {
        let mut scratch = BfsScratch::new(g.n());
        for a in g.vertices() {
            let ball = scratch.ball_sorted(g, a, self.r);
            let bag = &self.bags[self.assignment[a as usize] as usize];
            for v in ball {
                assert!(
                    bag.verts.binary_search(&v).is_ok(),
                    "N_r({a}) not inside X({a})"
                );
            }
        }
        for bag in &self.bags {
            let ball = scratch.ball_sorted(g, bag.center, 2 * self.r);
            for &v in &bag.verts {
                assert!(
                    ball.binary_search(&v).is_ok(),
                    "bag of center {} exceeds its 2r-ball",
                    bag.center
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nd_graph::generators;

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
            assert!(cover.contains(id, v));
            assert!(cover.assigned_members(id).binary_search(&v).is_ok());
        }
        let total: usize = (0..cover.num_bags() as BagId)
            .map(|id| cover.assigned_members(id).len())
            .sum();
        assert_eq!(total, g.n());
    }

    #[test]
    fn membership_and_successor() {
        let g = generators::path(20);
        let cover = Cover::build(&g, 2, 0.5);
        let id = cover.bag_of(10);
        let bag = cover.bag(id);
        // successor_in_bag agrees with a scan.
        for v in 0..20 as Vertex {
            let want = bag.verts.iter().copied().find(|&w| w >= v);
            assert_eq!(cover.successor_in_bag(id, v), want, "v={v}");
        }
        assert_eq!(cover.successor_in_bag(id, 21), None);
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
            let mut w = nd_persist::Writer::new();
            cover.write_into(&mut w);
            let bytes = w.into_bytes();
            let mut rd = nd_persist::Reader::new(&bytes);
            let back = Cover::read_from(&mut rd).unwrap();
            rd.finish().unwrap();
            assert_eq!(back.r, cover.r);
            assert_eq!(back.num_bags(), cover.num_bags());
            for v in g.vertices() {
                assert_eq!(back.bag_of(v), cover.bag_of(v));
                assert_eq!(back.bags_containing(v), cover.bags_containing(v));
            }
            for id in 0..cover.num_bags() as BagId {
                assert_eq!(back.bag(id).verts, cover.bag(id).verts);
                assert_eq!(back.assigned_members(id), cover.assigned_members(id));
                for v in 0..g.n() as Vertex {
                    assert_eq!(back.contains(id, v), cover.contains(id, v));
                    assert_eq!(back.successor_in_bag(id, v), cover.successor_in_bag(id, v));
                }
            }
            if g.n() > 0 {
                back.validate(&g);
            }
        }
    }

    #[test]
    fn codec_rejects_missing_bag_targets() {
        let g = generators::path(10);
        let cover = Cover::build(&g, 2, 0.5);
        let mut w = nd_persist::Writer::new();
        cover.write_into(&mut w);
        let bytes = w.into_bytes();
        // Point assignment entry 0 at a bag far beyond the count: offset 4
        // (radius) + 8 (len prefix) is the first assignment word.
        let mut c = bytes.clone();
        c[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Cover::read_from(&mut nd_persist::Reader::new(&c)),
            Err(nd_persist::PersistError::Malformed { .. })
        ));
        // Truncations are typed, never panics.
        for cut in 0..bytes.len() {
            assert!(
                Cover::read_from(&mut nd_persist::Reader::new(&bytes[..cut])).is_err(),
                "cut {cut}"
            );
        }
    }
}
