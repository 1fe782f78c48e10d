//! A **dynamic** index for single-far-constraint queries — a first step on
//! the paper's stated future work.
//!
//! The conclusion of the paper asks whether the enumeration index can be
//! maintained under updates instead of being recomputed. For the simplest
//! non-trivial query class — the paper's own Example 2,
//!
//! ```text
//! q(x, y) = U(y) ∧ dist(x, y) > r
//! ```
//!
//! with a *dynamic* unary predicate `U` (vertices gain and lose the color
//! at runtime, the graph stays fixed) — the Storing Theorem already
//! provides everything needed:
//!
//! * per cover bag `X`, maintain the set `L ∖ K_r(X)` (witnesses outside
//!   the bag's kernel) in one shared Storing-Theorem trie keyed by
//!   `(bag, vertex)`;
//! * adding/removing a witness `v` touches one key per kernel *not*
//!   containing… no — per bag whose kernel does **not** contain `v` would
//!   be linear, so instead key by the bags that *do* contain `v` in their
//!   kernel and complement at query time: `SKIP₁(b, X)` = the smallest
//!   witness `≥ b` that is not in `K_r(X)`. We store, per bag `X` with
//!   `v ∈ K_r(X)`, the key `(X, v)` in an *exclusion* trie, and all
//!   witnesses in a global trie. A query walks the global successor chain,
//!   consulting the exclusion trie to leap over excluded runs via its own
//!   successor pointers.
//!
//! Concretely `skip1(b, X)` interleaves the two successor structures: the
//! global trie proposes the next witness `w ≥ b`; the exclusion trie's
//! successor for `(X, w)` decides in `O(1)` whether the *next* witness is
//! also excluded. Each loop iteration either answers or consumes one
//! excluded witness, so a query costs `O(1 + ℓ)` where `ℓ` is the number of
//! witnesses inside `K_r(X)` between `b` and the answer — at most the
//! kernel size, i.e. pseudo-constant on sparse classes. Updates cost
//! `O(δ(v) · n^ε)` where `δ(v)` is the number of kernels containing `v`.
//!
//! This does not reach the paper's full ambition (arbitrary FO, edge
//! updates), but it makes Example 2 fully dynamic with pseudo-constant
//! update cost and exact queries — and it is property-tested against
//! recomputation.

use nd_cover::{BagId, Cover, KernelBags, KernelIndex};
use nd_graph::Vertex;
use nd_store::{FnStore, StoreParams};

/// Dynamic witness set with per-bag kernel exclusion queries.
pub struct DynamicFarIndex {
    /// All current witnesses, keyed `(v)`.
    witnesses: FnStore,
    /// Excluded pairs `(bag, v)` for every bag with `v ∈ K_r(X)`.
    excluded: FnStore,
    params_w: StoreParams,
    params_e: StoreParams,
    n: usize,
}

impl DynamicFarIndex {
    /// Panicking convenience over [`DynamicFarIndex::try_new`].
    pub fn new(n: usize, num_bags: usize, epsilon: f64) -> DynamicFarIndex {
        Self::try_new(n, num_bags, epsilon).expect("invalid dynamic index parameters")
    }

    /// Empty index over a graph with `n` vertices and the given number of
    /// cover bags. Rejects a degenerate `ε` or a domain too wide for the
    /// packed trie keys.
    pub fn try_new(
        n: usize,
        num_bags: usize,
        epsilon: f64,
    ) -> Result<DynamicFarIndex, nd_store::StoreError> {
        let params_w = StoreParams::try_new(n.max(1) as u64, 1, epsilon)?;
        let params_e = StoreParams::try_new(n.max(num_bags).max(1) as u64, 2, epsilon)?;
        Ok(DynamicFarIndex {
            witnesses: FnStore::new(params_w),
            excluded: FnStore::new(params_e),
            params_w,
            params_e,
            n,
        })
    }

    /// Build from an initial witness list.
    pub fn build(
        n: usize,
        kernels: &KernelIndex,
        num_bags: usize,
        witnesses: &[Vertex],
        epsilon: f64,
    ) -> DynamicFarIndex {
        let mut idx = DynamicFarIndex::new(n, num_bags, epsilon);
        let kernel_bags = kernels.bags_of();
        for &v in witnesses {
            idx.insert(&kernel_bags, v);
        }
        idx
    }

    /// Number of current witnesses.
    pub fn len(&self) -> usize {
        self.witnesses.len()
    }

    pub fn is_empty(&self) -> bool {
        self.witnesses.is_empty()
    }

    /// Is `v` currently a witness? Constant time.
    pub fn contains(&self, v: Vertex) -> bool {
        matches!(
            self.witnesses.lookup(&[v as u64]),
            nd_store::Lookup::Found(_)
        )
    }

    /// Add a witness. `O(δ(v) · n^ε)` — one trie update plus one per
    /// kernel containing `v`, read from the inverted kernel index
    /// ([`KernelIndex::bags_of`], built once per kernel index).
    pub fn insert(&mut self, kernel_bags: &KernelBags, v: Vertex) -> bool {
        if self.witnesses.insert(&[v as u64], 1).is_some() {
            return false;
        }
        for &x in kernel_bags.of(v) {
            self.excluded.insert(&[x as u64, v as u64], 1);
        }
        true
    }

    /// Remove a witness. Same cost as [`Self::insert`].
    pub fn remove(&mut self, kernel_bags: &KernelBags, v: Vertex) -> bool {
        if self.witnesses.remove(&[v as u64]).is_none() {
            return false;
        }
        for &x in kernel_bags.of(v) {
            self.excluded.remove(&[x as u64, v as u64]);
        }
        true
    }

    /// Smallest witness `≥ b`, ignoring exclusions. Constant time.
    pub fn successor(&self, b: Vertex) -> Option<Vertex> {
        if (b as usize) >= self.n {
            return None;
        }
        self.witnesses
            .successor_inclusive_packed(self.params_w.pack(&[b as u64]))
            .map(|p| self.params_w.unpack(p)[0] as Vertex)
    }

    /// `SKIP₁(b, X)`: the smallest witness `≥ b` outside `K_r(X)`.
    /// Cost `O(1 + runs)` where `runs` counts maximal blocks of
    /// consecutive-in-`L` witnesses lying inside the kernel between `b` and
    /// the answer.
    pub fn skip1(&self, bag: BagId, b: Vertex) -> Option<Vertex> {
        let mut cur = self.successor(b)?;
        loop {
            // Is cur excluded for this bag?
            let key = self.params_e.pack(&[bag as u64, cur as u64]);
            match self.witnesses.lookup(&[cur as u64]) {
                nd_store::Lookup::Found(_) => {}
                _ => unreachable!("successor returned a non-witness"),
            }
            if !matches!(
                self.excluded.lookup_packed(key),
                nd_store::LookupPacked::Found(_)
            ) {
                return Some(cur);
            }
            // cur is excluded: jump to the next *non-excluded* point. The
            // exclusion trie's successor gives the next excluded witness
            // e > cur for this bag; every witness strictly between cur and
            // e is not excluded, so the global successor of cur either
            // answers immediately or equals e (and we loop, having consumed
            // one excluded witness).
            let next_w = match cur.checked_add(1) {
                Some(nw) if (nw as usize) < self.n => self.successor(nw)?,
                _ => return None,
            };
            let next_e = self
                .excluded
                .successor_strict(&[bag as u64, cur as u64])
                .filter(|k| k[0] == bag as u64)
                .map(|k| k[1] as Vertex);
            match next_e {
                Some(e) if e == next_w => {
                    cur = next_w; // still excluded, consume and continue
                }
                _ => return Some(next_w), // next witness escapes the kernel
            }
        }
    }

    /// Reference scan for tests.
    #[doc(hidden)]
    pub fn skip1_naive(&self, kernels: &KernelIndex, bag: BagId, b: Vertex) -> Option<Vertex> {
        let mut cur = self.successor(b)?;
        loop {
            if !kernels.in_kernel(bag, cur) {
                return Some(cur);
            }
            cur = match cur.checked_add(1) {
                Some(nb) if (nb as usize) < self.n => self.successor(nb)?,
                _ => return None,
            };
        }
    }
}

/// Convenience: build the static machinery (cover + kernels) and the
/// dynamic index together for a given radius.
pub struct DynamicFarQuery {
    pub cover: Cover,
    pub kernels: KernelIndex,
    pub index: DynamicFarIndex,
    /// `kernels.bags_of()`, kept for the per-update trie edits.
    kernel_bags: KernelBags,
    r: u32,
}

impl DynamicFarQuery {
    /// Panicking convenience over [`DynamicFarQuery::try_new`].
    pub fn new(
        g: &nd_graph::ColoredGraph,
        r: u32,
        witnesses: &[Vertex],
        epsilon: f64,
    ) -> DynamicFarQuery {
        Self::try_new(
            g,
            r,
            witnesses,
            epsilon,
            &nd_graph::BudgetTracker::unlimited(),
        )
        .expect("invalid dynamic query input")
    }

    /// Preprocess `g` for the dynamic Example 2 query `U(y) ∧ dist(x,y) > r`
    /// with initial witness set `witnesses`. Validates `ε` and the witness
    /// ids, and charges cover/kernel construction against `tracker`.
    pub fn try_new(
        g: &nd_graph::ColoredGraph,
        r: u32,
        witnesses: &[Vertex],
        epsilon: f64,
        tracker: &nd_graph::BudgetTracker,
    ) -> Result<DynamicFarQuery, crate::NdError> {
        if !(epsilon.is_finite() && epsilon > 0.0) {
            return Err(
                crate::PrepareError::InvalidInput(crate::InvalidInput::BadEpsilon(epsilon)).into(),
            );
        }
        if let Some(&v) = witnesses.iter().find(|&&v| (v as usize) >= g.n()) {
            return Err(nd_graph::GraphError::VertexOutOfRange { v, n: g.n() }.into());
        }
        let cover = Cover::try_build(g, 2 * r, epsilon, tracker)?;
        let kernels = KernelIndex::try_build(g, &cover, r, tracker)?;
        let mut index = DynamicFarIndex::try_new(g.n(), cover.num_bags(), epsilon)?;
        let kernel_bags = kernels.bags_of();
        for &v in witnesses {
            index.insert(&kernel_bags, v);
        }
        Ok(DynamicFarQuery {
            cover,
            kernels,
            index,
            kernel_bags,
            r,
        })
    }

    pub fn radius(&self) -> u32 {
        self.r
    }

    /// Smallest witness `≥ b` at distance `> r` from `a`… up to kernel
    /// granularity: returns the smallest witness `≥ b` outside
    /// `K_r(X(a))`, which is guaranteed far; witnesses *inside* the kernel
    /// may also be far and are the caller's bag-local responsibility
    /// (exactly as in the static Case I split of Section 5.2.2).
    pub fn next_far_witness(&self, a: Vertex, b: Vertex) -> Option<Vertex> {
        self.index.skip1(self.cover.bag_of(a), b)
    }

    /// Toggle a vertex's witness status; returns the new status.
    pub fn toggle(&mut self, v: Vertex) -> bool {
        if self.index.contains(v) {
            self.index.remove(&self.kernel_bags, v);
            false
        } else {
            self.index.insert(&self.kernel_bags, v);
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nd_graph::generators;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn skip1_matches_naive_under_updates() {
        let mut rng = StdRng::seed_from_u64(5);
        for g in [
            generators::grid(10, 10),
            generators::random_tree(120, 3),
            generators::bounded_degree(150, 4, 7),
        ] {
            let r = 2;
            let cover = Cover::build(&g, 2 * r, 0.5);
            let kernels = KernelIndex::build(&g, &cover, r);
            let kernel_bags = kernels.bags_of();
            let mut idx = DynamicFarIndex::new(g.n(), cover.num_bags(), 0.5);
            for round in 0..200 {
                let v = rng.random_range(0..g.n() as Vertex);
                if idx.contains(v) {
                    assert!(idx.remove(&kernel_bags, v));
                } else {
                    assert!(idx.insert(&kernel_bags, v));
                }
                // Spot-check queries after every update.
                for _ in 0..4 {
                    let bag = rng.random_range(0..cover.num_bags() as BagId);
                    let b = rng.random_range(0..g.n() as Vertex);
                    assert_eq!(
                        idx.skip1(bag, b),
                        idx.skip1_naive(&kernels, bag, b),
                        "round {round}, bag {bag}, b {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn far_witness_guarantee() {
        let g = generators::grid(12, 12);
        let r = 2;
        let witnesses: Vec<Vertex> = (0..g.n() as Vertex).filter(|v| v % 3 == 0).collect();
        let q = DynamicFarQuery::new(&g, r, &witnesses, 0.5);
        let mut scratch = nd_graph::BfsScratch::new(g.n());
        for a in (0..g.n() as Vertex).step_by(17) {
            let mut b = 0;
            while let Some(w) = q.next_far_witness(a, b) {
                assert!(
                    scratch.distance_capped(&g, a, w, r).is_none(),
                    "witness {w} too close to {a}"
                );
                b = match w.checked_add(1) {
                    Some(nb) if (nb as usize) < g.n() => nb,
                    _ => break,
                };
            }
        }
    }

    #[test]
    fn toggle_roundtrip() {
        let g = generators::path(30);
        let mut q = DynamicFarQuery::new(&g, 2, &[], 0.5);
        assert!(q.index.is_empty());
        assert!(q.toggle(7));
        assert!(q.index.contains(7));
        assert_eq!(q.index.len(), 1);
        assert!(!q.toggle(7));
        assert!(q.index.is_empty());
        assert_eq!(q.radius(), 2);
    }

    #[test]
    fn dynamic_agrees_with_static_rebuild() {
        // After a random update sequence, queries agree with an index built
        // from scratch on the final witness set.
        let g = generators::random_tree(80, 9);
        let r = 2;
        let cover = Cover::build(&g, 2 * r, 0.5);
        let kernels = KernelIndex::build(&g, &cover, r);
        let kernel_bags = kernels.bags_of();
        let mut rng = StdRng::seed_from_u64(11);
        let mut idx = DynamicFarIndex::new(g.n(), cover.num_bags(), 0.5);
        let mut model = std::collections::BTreeSet::new();
        for _ in 0..120 {
            let v = rng.random_range(0..g.n() as Vertex);
            if model.contains(&v) {
                model.remove(&v);
                idx.remove(&kernel_bags, v);
            } else {
                model.insert(v);
                idx.insert(&kernel_bags, v);
            }
        }
        let fresh = DynamicFarIndex::build(
            g.n(),
            &kernels,
            cover.num_bags(),
            &model.iter().copied().collect::<Vec<_>>(),
            0.5,
        );
        assert_eq!(idx.len(), fresh.len());
        for bag in 0..cover.num_bags() as BagId {
            for b in 0..g.n() as Vertex {
                assert_eq!(idx.skip1(bag, b), fresh.skip1(bag, b));
            }
        }
    }
}
