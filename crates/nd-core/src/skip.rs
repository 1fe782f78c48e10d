//! Skip pointers (**Lemma 5.8**).
//!
//! Given a graph `G`, an `r`-neighborhood cover `X` with kernels
//! `K_r(X)`, and a target list `L ⊆ V`, the structure answers in constant
//! time, for any vertex `b` and any set `S` of at most `k` bags,
//!
//! ```text
//! SKIP(b, S) = min { b' ∈ L : b' ≥ b  ∧  b' ∉ ⋃_{X ∈ S} K_r(X) }
//! ```
//!
//! i.e. the next list member that escapes every kernel of `S`. Because a
//! vertex outside `K_r(X(a))` is guaranteed to be at distance `> r` from `a`
//! (when the cover radius is at least `2r`), this is what lets the
//! answering phase jump over entire "too close to the prefix" regions in
//! `O(1)` — the heart of constant delay for far-apart answer tuples.
//!
//! The full `SKIP` table is quadratic, so only the closure `SC(b)` of
//! "reachable" bag sets is materialized (Claims 5.9/5.10): `{X} ∈ SC(b)`
//! for every kernel containing `b`, and `S ∪ {Y} ∈ SC(b)` whenever
//! `S ∈ SC(b)`, `|S| < k` and `SKIP(b, S) ∈ K_r(Y)`. Per vertex this is
//! `O(δ^k)` sets (`δ` = kernel degree), keeping the table pseudo-linear.
//! Arbitrary queries are then answered by the constant-time reduction of
//! Claim 5.9, which reads the table only at list members `c = next_L(b)`.
//!
//! The table has two parts. The singletons `SKIP(v, {X})` are one value
//! per kernel member, stored parallel to the kernel rows: the value of
//! `(v, X)` sits at the slot where `v` appears in `K_r(X)`
//! ([`KernelIndex::slot_of`]), so they carry no key. Sets of two or more
//! bags (only for `k ≥ 2`) are keyed rows, one per list member.

use nd_cover::{BagId, KernelIndex};
use nd_graph::budget::{BudgetExceeded, BudgetTracker, Phase};
use nd_graph::Vertex;
use nd_persist::Slab;

/// A sorted, deduplicated set of at most 4 bag ids packed into one `u128`
/// (32 bits per id, most significant first, padded with all-ones) — a
/// `Copy` table key, so building and probing the table never allocates.
type BagSet = u128;

/// Most bags a tabulated set holds (the clamp on `k`).
const MAX_SET: usize = 4;
const EMPTY_SLOT: u32 = u32::MAX;
/// "No such vertex": `SKIP(b, S) = None` in the value arrays, and no list
/// member at or past `v` in `next_incl`. Unambiguous because decoded
/// skip targets are range-checked `< n` and `n` is a `u32` vertex count.
const NO_SKIP: u32 = u32::MAX;

/// Bytes charged per keyed closure entry: its set key, its value and
/// the builder's row copy.
const KEYED_ENTRY_BYTES: u64 = 24;

/// One keyed closure row lookup: was `(b, S)` materialized, and if so
/// what is `SKIP(b, S)`?
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Entry {
    Absent,
    Present(Option<Vertex>),
}

/// A stored value as a vertex.
#[inline]
fn target(val: u32) -> Option<Vertex> {
    (val != NO_SKIP).then_some(val)
}

#[inline]
fn encode_set(s: &[BagId]) -> BagSet {
    debug_assert!(s.len() <= MAX_SET);
    debug_assert!(s.windows(2).all(|w| w[0] < w[1]));
    let mut out: u128 = 0;
    for i in 0..MAX_SET {
        let v = s.get(i).copied().unwrap_or(EMPTY_SLOT);
        out = (out << 32) | v as u128;
    }
    out
}

/// A sorted, deduplicated set of at most [`MAX_SET`] bag ids on the
/// stack: the closure builder's queue entries, Claim 5.9's growing
/// subset, and the far-anchor bags of a probe, none of which allocate.
#[derive(Clone, Copy, Debug)]
pub(crate) struct BagIds {
    ids: [BagId; MAX_SET],
    len: usize,
}

impl BagIds {
    pub(crate) const EMPTY: BagIds = BagIds {
        ids: [EMPTY_SLOT; MAX_SET],
        len: 0,
    };

    fn single(x: BagId) -> BagIds {
        let mut s = BagIds::EMPTY;
        s.insert(x);
        s
    }

    /// Add `y`, keeping the set sorted; a no-op when `y` is present.
    /// Returns `false` (and leaves the set unchanged) when `y` is absent
    /// and the set is full.
    #[inline]
    pub(crate) fn insert(&mut self, y: BagId) -> bool {
        match self.as_slice().binary_search(&y) {
            Ok(_) => true,
            Err(_) if self.len == MAX_SET => false,
            Err(pos) => {
                self.ids.copy_within(pos..self.len, pos + 1);
                self.ids[pos] = y;
                self.len += 1;
                true
            }
        }
    }

    /// `self ∪ {y}` when `y` is absent and the set is not full.
    #[inline]
    fn with(mut self, y: BagId) -> Option<BagIds> {
        let grows = self.as_slice().binary_search(&y).is_err() && self.insert(y);
        grows.then_some(self)
    }

    #[inline]
    pub(crate) fn as_slice(&self) -> &[BagId] {
        &self.ids[..self.len]
    }
}

/// The Lemma 5.8 structure.
///
/// Singleton values sit parallel to the kernel rows, 4 bytes each with no
/// key. The keyed closure of larger sets is stored compressed-sparse-row:
/// one row of `(bag-set, skip)` entries per list member, rows concatenated
/// into two flat arrays with an offset index, sorted by set, so a probe is
/// one offset load plus a binary search and serialization is a straight
/// walk. All four arrays are [`Slab`]s: file-backed when decoded from a
/// mapped container.
#[derive(Clone)]
pub struct SkipPointers {
    k: usize,
    n: usize,
    /// Sorted target list `L`: the engine's unary list of the position.
    list: Slab<Vertex>,
    /// `next_incl[v]`: the smallest member of `L` that is `≥ v`, or
    /// [`NO_SKIP`]. Length `n + 1`, so `next_incl[c + 1]` is defined for
    /// every vertex `c`.
    next_incl: Vec<u32>,
    /// `SKIP(v, {X})` for every member `v` of every kernel row, at `v`'s
    /// slot in the kernel index ([`NO_SKIP`] encodes `None`).
    single: Slab<u32>,
    /// Keyed CSR row offsets: list member `v`'s entries for sets of two
    /// or more bags live at `starts[v] .. starts[v+1]` in `sets` / `vals`.
    /// Length `n + 1`, or empty when no such set is tabulated (always at
    /// `k = 1`).
    starts: Slab<u32>,
    /// Bag sets of the keyed closure, sorted within each row.
    sets: Slab<BagSet>,
    /// `SKIP(v, sets[i])`, parallel to `sets`; [`NO_SKIP`] encodes `None`.
    vals: Slab<u32>,
    /// When the keyed closure would exceed the entry cap (kernel degrees
    /// blow up on expander-like inputs), the rows of list members below
    /// `cut` are dropped, and a query at such a member that needs a set of
    /// two or more bags takes a correct linear scan. `0`: nothing was
    /// dropped. The cut is all-or-nothing per vertex: a partially
    /// tabulated row would break the Claim 5.9 subset-growing argument,
    /// which needs every tabulated closure complete.
    cut: u32,
}

/// `next_incl` for the list `list` on `n` vertices; `None` when a member
/// is out of range.
fn next_incl_of(n: usize, list: &[Vertex]) -> Option<Vec<u32>> {
    let mut next = vec![NO_SKIP; n + 1];
    for &v in list {
        *next[..n].get_mut(v as usize)? = v;
    }
    for v in (0..n).rev() {
        if next[v] == NO_SKIP {
            next[v] = next[v + 1];
        }
    }
    Some(next)
}

/// Keyed `SKIP(b, S)` probe against a CSR row view, for `|S| ≥ 2`.
#[inline]
fn csr_get(starts: &[u32], sets: &[BagSet], vals: &[u32], v: Vertex, set: BagSet) -> Entry {
    if starts.is_empty() {
        return Entry::Absent;
    }
    let lo = starts[v as usize] as usize;
    let hi = starts[v as usize + 1] as usize;
    match sets[lo..hi].binary_search(&set) {
        Ok(i) => Entry::Present(target(vals[lo + i])),
        Err(_) => Entry::Absent,
    }
}

/// Correct (but linear) scan of `L` from `from`: the answer when a set
/// has more bags than the table's `k`, or needs a dropped keyed row.
fn scan_fallback(
    kernels: &KernelIndex,
    next_incl: &[u32],
    from: Vertex,
    s: &[BagId],
) -> Option<Vertex> {
    let mut c = next_incl[from as usize];
    while c != NO_SKIP {
        if s.iter().all(|&x| !kernels.in_kernel(x, c)) {
            return Some(c);
        }
        c = next_incl[c as usize + 1];
    }
    None
}

/// Everything a Claim 5.9 query reads besides the keyed rows.
#[derive(Clone, Copy)]
struct Singletons<'a> {
    kernels: &'a KernelIndex,
    next_incl: &'a [u32],
    single: &'a [u32],
}

impl Singletons<'_> {
    /// The Claim 5.9 case analysis, generic over the keyed-row view (the
    /// finished CSR arrays at query time, the in-progress builder during
    /// construction). With `c` the smallest list member `≥ b`,
    /// `SKIP(b, S) = SKIP(c, S)`: it is `c` when `c` escapes every kernel
    /// of `S`, and otherwise grows a maximal `S' ⊆ S` in `SC(c)` from a
    /// singleton `{X}` with `c ∈ K_r(X)`, whose value is `SKIP(c, S)`.
    /// Keyed rows are read at `c` only, and only when `|S| ≥ 2`; rows
    /// below `cut` were dropped, so a query there scans instead.
    fn skip(
        self,
        keyed: &dyn Fn(Vertex, BagSet) -> Entry,
        cut: u32,
        b: Vertex,
        s: &[BagId],
    ) -> Option<Vertex> {
        debug_assert!(s.len() <= MAX_SET && s.windows(2).all(|w| w[0] < w[1]));
        let c = self.next_incl[b as usize];
        if c == NO_SKIP {
            return None;
        }
        let Some((x0, slot)) = s
            .iter()
            .find_map(|&x| self.kernels.slot_of(x, c).map(|slot| (x, slot)))
        else {
            return Some(c);
        };
        let mut val = target(self.single[slot]);
        if s.len() == 1 {
            return val;
        }
        if c < cut {
            return scan_fallback(self.kernels, self.next_incl, c, s);
        }
        let mut s_prime = BagIds::single(x0);
        let mut grew = true;
        while grew && s_prime.len < s.len() {
            grew = false;
            for &y in s {
                if let Some(candidate) = s_prime.with(y) {
                    if let Entry::Present(v) = keyed(c, encode_set(candidate.as_slice())) {
                        (s_prime, val, grew) = (candidate, v, true);
                    }
                }
            }
        }
        val
    }
}

/// `SKIP(v, {X})` for every member `v` of every kernel row, in the
/// rows' own order. For `v ∈ K_r(X)`, `v` itself is excluded, so with
/// `c` the smallest list member `> v`, the value is `c` when
/// `c ∉ K_r(X)` and `SKIP(c, {X})` otherwise. One descending walk per
/// row keeps the smallest list member met so far, above `v`, and its
/// value: `c` is in the row iff it is that member.
fn singleton_values(kernels: &KernelIndex, next_incl: &[u32]) -> Vec<u32> {
    let mut vals = vec![NO_SKIP; kernels.total_size()];
    let mut at = 0;
    for id in 0..kernels.num_bags() as BagId {
        let row = kernels.kernel(id);
        let out = &mut vals[at..at + row.len()];
        let (mut above, mut above_val) = (NO_SKIP, NO_SKIP);
        for (slot, &v) in out.iter_mut().zip(row).rev() {
            let c = next_incl[v as usize + 1];
            *slot = if c == above { above_val } else { c };
            if next_incl[v as usize] == v {
                (above, above_val) = (v, *slot);
            }
        }
        at += row.len();
    }
    vals
}

/// A finished keyed closure in forward CSR order.
#[derive(Default)]
struct Keyed {
    starts: Vec<u32>,
    sets: Vec<BagSet>,
    vals: Vec<u32>,
    cut: u32,
}

/// Claim 5.10 for the sets of two or more bags: compute `SKIP(b, S)` for
/// `S ∈ SC(b)`, `b ∈ L` descending, sets in breadth-first (size) order.
/// The seeds are `{X, Y}` for `b ∈ K_r(X)` and `SKIP(b, {X}) ∈ K_r(Y)`,
/// read off the singleton values. Every `S ∈ SC(b)` holds a bag whose
/// kernel contains `b`, so `SKIP(b, S) = SKIP(b + 1, S)`, which reads
/// keyed rows of vertices `> b` only: that makes the descending order
/// well-founded. Rows are finalized one vertex at a time into `rev_*`
/// (so they land in descending-vertex order) and reversed into the
/// forward CSR at the end; `bounds[v]` exposes the finished rows to the
/// in-progress computation. Each entry costs a few kernel-membership
/// binary searches and row lookups.
fn closure_rows(
    singles: Singletons<'_>,
    k: usize,
    max_entries: usize,
    tracker: &BudgetTracker,
) -> Result<Keyed, BudgetExceeded> {
    let Singletons {
        kernels,
        next_incl,
        single,
    } = singles;
    let n = next_incl.len() - 1;
    // `{X : v ∈ K_r(X)}` seeds SC(v) and grows its sets.
    let kernel_bags = kernels.bags_of();
    let mut rev_sets: Vec<BagSet> = Vec::new();
    let mut rev_vals: Vec<u32> = Vec::new();
    let mut bounds: Vec<(u32, u32)> = vec![(0, 0); n];
    let mut cut = 0;
    // Current vertex's row, sorted by bag set.
    let mut row: Vec<(BagSet, u32)> = Vec::new();
    let mut queue: Vec<BagIds> = Vec::new();
    'outer: for b in (0..n as Vertex).rev() {
        // Claim 5.9 reads rows only at list members.
        if next_incl[b as usize] != b {
            continue;
        }
        row.clear();
        queue.clear();
        for &x in kernel_bags.of(b) {
            let slot = kernels
                .slot_of(x, b)
                .expect("b is in the kernels it is listed in");
            if let Some(v) = target(single[slot]) {
                let s = BagIds::single(x);
                queue.extend(kernel_bags.of(v).iter().filter_map(|&y| s.with(y)));
            }
        }
        let mut head = 0;
        while head < queue.len() {
            let s = queue[head];
            head += 1;
            let set = encode_set(s.as_slice());
            let pos = match row.binary_search_by_key(&set, |e| e.0) {
                Ok(_) => continue, // reachable along several queue paths
                Err(pos) => pos,
            };
            if rev_sets.len() + row.len() >= max_entries {
                // All-or-nothing per vertex: dropping only the overflow
                // entries would leave a partial row, and the Claim 5.9
                // subset-growing step must never see one (it concludes
                // "val escapes all of S" from "no tabulated superset").
                cut = b + 1;
                break 'outer;
            }
            tracker.charge_nodes(Phase::SkipClosure, 1)?;
            tracker.charge_memory(Phase::SkipClosure, KEYED_ENTRY_BYTES)?;
            let keyed = |v: Vertex, set| {
                let (lo, hi) = bounds[v as usize];
                match rev_sets[lo as usize..hi as usize].binary_search(&set) {
                    Ok(i) => Entry::Present(target(rev_vals[lo as usize + i])),
                    Err(_) => Entry::Absent,
                }
            };
            let skip = singles.skip(&keyed, 0, b + 1, s.as_slice());
            row.insert(pos, (set, skip.unwrap_or(NO_SKIP)));
            if s.len < k {
                if let Some(v) = skip {
                    queue.extend(kernel_bags.of(v).iter().filter_map(|&y| s.with(y)));
                }
            }
        }
        let lo = rev_sets.len() as u32;
        rev_sets.extend(row.iter().map(|e| e.0));
        rev_vals.extend(row.iter().map(|e| e.1));
        bounds[b as usize] = (lo, rev_sets.len() as u32);
    }
    if rev_sets.is_empty() {
        return Ok(Keyed {
            cut,
            ..Keyed::default()
        });
    }
    // Reverse the descending row blocks into forward CSR order.
    let total = rev_sets.len();
    let mut starts = vec![0u32; n + 1];
    for v in 0..n {
        let (lo, hi) = bounds[v];
        starts[v + 1] = starts[v] + (hi - lo);
    }
    let mut sets = Vec::with_capacity(total);
    let mut vals = Vec::with_capacity(total);
    for &(lo, hi) in &bounds {
        sets.extend_from_slice(&rev_sets[lo as usize..hi as usize]);
        vals.extend_from_slice(&rev_vals[lo as usize..hi as usize]);
    }
    Ok(Keyed {
        starts,
        sets,
        vals,
        cut,
    })
}

impl SkipPointers {
    /// Precompute the pointers for up to `k` simultaneous bags.
    /// Cost `O(n · δ^k)` table entries, each `O(1)` amortized.
    pub fn build(n: usize, kernels: &KernelIndex, list: Vec<Vertex>, k: usize) -> SkipPointers {
        Self::build_with_cap(n, kernels, list, k, usize::MAX)
    }

    /// [`Self::build`] with a cap on the keyed closure (sets of two or
    /// more bags). Past the cap no further rows are tabulated; `skip`
    /// degrades to a correct scan when it needs a dropped row.
    pub fn build_with_cap(
        n: usize,
        kernels: &KernelIndex,
        list: Vec<Vertex>,
        k: usize,
        max_entries: usize,
    ) -> SkipPointers {
        Self::try_build_with_cap(
            n,
            kernels,
            list,
            k,
            max_entries,
            &BudgetTracker::unlimited(),
        )
        .expect("unlimited budget cannot be exceeded")
    }

    /// [`Self::build_with_cap`] with cooperative cancellation: every table
    /// entry is charged against `tracker`, so a capped preprocessing run
    /// aborts the `SC(b)` closure with [`BudgetExceeded`] instead of
    /// filling memory on adversarial kernel degrees. `k` is clamped into
    /// `1..=4` (larger simultaneous sets degrade to verified scans at
    /// query time; see [`Self::skip`]).
    ///
    /// The singleton values take one sweep per kernel row and are never
    /// cut: one slot per kernel member, so never larger than the kernel
    /// index the budget already admitted. They are charged one node and 4
    /// bytes per slot. Larger `k` then run Claim 5.10's closure over the
    /// keyed sets, one node and [`KEYED_ENTRY_BYTES`] per entry, cut at
    /// `max_entries`.
    pub fn try_build_with_cap(
        n: usize,
        kernels: &KernelIndex,
        mut list: Vec<Vertex>,
        k: usize,
        max_entries: usize,
        tracker: &BudgetTracker,
    ) -> Result<SkipPointers, BudgetExceeded> {
        let k = k.clamp(1, MAX_SET);
        list.sort_unstable();
        list.dedup();
        tracker.charge_memory(Phase::SkipClosure, 4 * (n as u64 + 1))?;
        let next_incl = next_incl_of(n, &list).expect("list members are vertices of the graph");
        let slots = kernels.total_size() as u64;
        tracker.charge_nodes(Phase::SkipClosure, slots)?;
        tracker.charge_memory(Phase::SkipClosure, 4 * slots)?;
        let single = singleton_values(kernels, &next_incl);
        let singles = Singletons {
            kernels,
            next_incl: &next_incl,
            single: &single,
        };
        let keyed = if k == 1 {
            Keyed::default()
        } else {
            closure_rows(singles, k, max_entries, tracker)?
        };
        Ok(SkipPointers {
            k,
            n,
            list: list.into(),
            next_incl,
            single: single.into(),
            starts: keyed.starts.into(),
            sets: keyed.sets.into(),
            vals: keyed.vals.into(),
            cut: keyed.cut,
        })
    }

    /// Number of precomputed table entries (experiment E8: `O(|L|·δ^k)`):
    /// the singleton slots plus the keyed closure entries.
    pub fn table_len(&self) -> usize {
        self.single.len() + self.sets.len()
    }

    /// Bytes of the tabulated arrays (experiment E8): 4 per singleton
    /// slot, 20 per keyed entry and 4 per keyed row offset.
    pub fn table_bytes(&self) -> usize {
        4 * (self.single.len() + self.starts.len()) + 20 * self.sets.len()
    }

    /// Was the keyed closure cut at the size cap (queries then use the
    /// scan fallback when they need a dropped row)?
    pub fn truncated(&self) -> bool {
        self.cut > 0
    }

    /// The sorted target list `L`.
    pub fn list(&self) -> &[Vertex] {
        &self.list
    }

    /// `SKIP(b, S)` for an arbitrary set `S` of at most `k` bags
    /// (Claim 5.9). Constant time, and no heap allocation: `S` is sorted
    /// and deduplicated on the stack. Sets with more distinct bags than
    /// the prepared `k` are answered by a correct (linear) scan instead
    /// of panicking.
    ///
    /// A one-bag hop is one search: with `c` the smallest list member
    /// `≥ b`, a miss for `c` in `K_r(X)` answers `c`, and a hit answers
    /// the singleton value at its slot.
    pub fn skip(&self, kernels: &KernelIndex, b: Vertex, bags: &[BagId]) -> Option<Vertex> {
        if let [x] = *bags {
            let c = self.next_incl[b as usize];
            if c == NO_SKIP {
                return None;
            }
            return match kernels.slot_of(x, c) {
                None => Some(c),
                Some(slot) => target(self.single[slot]),
            };
        }
        let mut s = BagIds::EMPTY;
        if !bags.iter().all(|&x| s.insert(x)) || s.len > self.k {
            return scan_fallback(kernels, &self.next_incl, b, bags);
        }
        let singles = Singletons {
            kernels,
            next_incl: &self.next_incl,
            single: &self.single,
        };
        singles.skip(
            &|v, set| csr_get(&self.starts, &self.sets, &self.vals, v, set),
            self.cut,
            b,
            s.as_slice(),
        )
    }

    /// Exhaustive reference implementation for tests.
    #[doc(hidden)]
    pub fn skip_naive(&self, kernels: &KernelIndex, b: Vertex, bags: &[BagId]) -> Option<Vertex> {
        self.list
            .iter()
            .copied()
            .filter(|&v| v >= b)
            .find(|&v| bags.iter().all(|&x| !kernels.in_kernel(x, v)))
    }

    /// Memory guard used by stats: n of the underlying graph.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Append the structure's binary encoding to `w` (DESIGN.md §9).
    ///
    /// The singleton values and the three keyed CSR arrays are written
    /// raw and 16-byte aligned, so a mapped load borrows them in place.
    /// The list is not written: the loader passes the position's unary
    /// list, which is the same list. `next_incl` is rebuilt on load in
    /// `O(n)`.
    pub fn write_into(&self, w: &mut nd_persist::Writer) {
        w.u32(self.k as u32);
        w.u32(self.cut);
        w.u32_slab(&self.single);
        w.u32_slab(&self.starts);
        w.u128_slab(&self.sets);
        w.u32_slab(&self.vals);
    }

    /// Decode the structure for an `n`-vertex graph (`n` supplied by the
    /// caller from the already-validated graph, so a corrupt count cannot
    /// drive the rebuild allocations), over the target list `list` and
    /// the kernel index `kernels` the singleton values are parallel to.
    ///
    /// Every verify policy checks the shapes in `O(1)`: one singleton slot
    /// per kernel member, and keyed offsets for all `n` vertices or none.
    /// Full verification also checks every value — in range and past the
    /// vertex it belongs to, since the answering phase feeds values
    /// straight into per-position bitsets and steps forward from them —
    /// and rejects a keyed row for a vertex outside `L`, which no build
    /// writes.
    pub fn read_from(
        r: &mut nd_persist::Reader<'_>,
        n: usize,
        list: Slab<Vertex>,
        kernels: &KernelIndex,
    ) -> Result<SkipPointers, nd_persist::PersistError> {
        use nd_persist::malformed;
        let k = r.u32("skip arity")? as usize;
        if !(1..=MAX_SET).contains(&k) {
            return Err(malformed("skip arity outside 1..=4"));
        }
        let cut = r.u32("skip closure cut")?;
        let single = r.u32_slab("skip singleton values")?;
        let starts = r.u32_slab("skip row offsets")?;
        let sets: Slab<BagSet> = r.u128_slab("skip table sets")?;
        let vals = r.u32_slab("skip table values")?;
        // Always-on O(1) shape checks: every slot a kernel search returns
        // and every `starts[v]`/`starts[v+1]` row probe must be in bounds
        // even under lazy verification (a hostile *offset* can still
        // raise a safe slice panic there; the deferred CRC is the
        // backstop).
        if single.len() != kernels.total_size() {
            return Err(malformed(
                "skip singleton values not parallel to the kernel rows",
            ));
        }
        if cut as usize > n {
            return Err(malformed("skip closure cut past the last vertex"));
        }
        if starts.is_empty() && !sets.is_empty() {
            return Err(malformed("skip table sets without row offsets"));
        }
        if !starts.is_empty() && starts.len() != n + 1 {
            return Err(malformed("skip row offsets sized for another n"));
        }
        if vals.len() != sets.len() {
            return Err(malformed("skip set/value lengths disagree"));
        }
        if k == 1 && (cut != 0 || !starts.is_empty()) {
            return Err(malformed("keyed skip rows at arity 1"));
        }
        let next_incl =
            next_incl_of(n, &list).ok_or_else(|| malformed("skip list member out of range"))?;
        if r.should_validate() {
            let bad = |v: Vertex, val: u32| val != NO_SKIP && (val <= v || val as usize >= n);
            let mut at = 0;
            for id in 0..kernels.num_bags() as BagId {
                let row = kernels.kernel(id);
                if row.iter().zip(&single[at..]).any(|(&v, &val)| bad(v, val)) {
                    return Err(malformed("skip singleton value out of range"));
                }
                at += row.len();
            }
            if !starts.is_empty() {
                if starts[0] != 0 || starts[n] as usize != sets.len() {
                    return Err(malformed("skip row offsets do not span the table"));
                }
                if starts.windows(2).any(|w| w[0] > w[1]) {
                    return Err(malformed("skip row offsets not monotone"));
                }
            }
            for (v, ends) in starts.windows(2).enumerate() {
                let (lo, hi) = (ends[0] as usize, ends[1] as usize);
                if lo == hi {
                    continue;
                }
                if next_incl[v] != v as Vertex {
                    return Err(malformed("skip row for a vertex outside the list"));
                }
                if sets[lo..hi].windows(2).any(|w| w[0] >= w[1]) {
                    return Err(malformed("skip table sets not sorted within a row"));
                }
                if vals[lo..hi].iter().any(|&val| bad(v as Vertex, val)) {
                    return Err(malformed("skip table value out of range"));
                }
            }
        }
        Ok(SkipPointers {
            k,
            n,
            list,
            next_incl,
            single,
            starts,
            sets,
            vals,
            cut,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nd_cover::Cover;
    use nd_graph::{generators, ColoredGraph};
    use nd_persist::{MmapFile, PersistError, Reader, SlabCtx, VerifyPolicy, Writer};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use std::sync::Arc;

    const POLICIES: [VerifyPolicy; 2] = [VerifyPolicy::Full, VerifyPolicy::Lazy];

    /// Cover radius `2r` and `r`-kernels, so that "outside `K_r`" implies
    /// "distance `> r`" — mirroring the kr-radius cover of Section 5.
    fn kernels_of(g: &ColoredGraph, r: u32) -> KernelIndex {
        KernelIndex::build(g, &Cover::build(g, 2 * r, 0.5), r)
    }

    fn setup(g: &ColoredGraph, r: u32, list: Vec<Vertex>, k: usize) -> (KernelIndex, SkipPointers) {
        let kernels = kernels_of(g, r);
        let sp = SkipPointers::build(g.n(), &kernels, list, k);
        (kernels, sp)
    }

    /// The graphs the layout tests sweep, with their kernel radius.
    fn families() -> Vec<(ColoredGraph, u32)> {
        vec![
            (generators::path(80), 2),
            (generators::grid(9, 9), 1),
            (generators::random_tree(100, 3), 2),
            (generators::bounded_degree(120, 4, 1), 2),
        ]
    }

    fn multiples(n: usize, m: Vertex) -> Vec<Vertex> {
        (0..n as Vertex).filter(|v| v % m == 0).collect()
    }

    fn random_bagsets(
        kernels: &KernelIndex,
        n: usize,
        k: usize,
        rng: &mut StdRng,
    ) -> Vec<Vec<BagId>> {
        let kernel_bags = kernels.bags_of();
        let mut out = Vec::new();
        for _ in 0..60 {
            let mut s = Vec::new();
            for _ in 0..k {
                // Bias towards kernels of random vertices so sets are
                // non-trivial.
                let v = rng.random_range(0..n as Vertex);
                let kb = kernel_bags.of(v);
                if !kb.is_empty() {
                    s.push(kb[rng.random_range(0..kb.len())]);
                }
            }
            s.sort_unstable();
            s.dedup();
            if !s.is_empty() {
                out.push(s);
            }
        }
        out
    }

    /// `skip` against `skip_naive` for every `b` and random sets of up to
    /// `k` bags, and of `k + 1` bags (the scan fallback).
    fn assert_answers_like_naive(
        sp: &SkipPointers,
        kernels: &KernelIndex,
        k: usize,
        rng: &mut StdRng,
        what: &str,
    ) {
        let n = sp.n();
        for size in [k, k + 1] {
            for bags in random_bagsets(kernels, n, size, rng) {
                for b in 0..n as Vertex {
                    assert_eq!(
                        sp.skip(kernels, b, &bags),
                        sp.skip_naive(kernels, b, &bags),
                        "{what}: b={b}, S={bags:?}"
                    );
                }
            }
        }
    }

    /// Keyed row length of `v`.
    fn row_len(sp: &SkipPointers, v: usize) -> usize {
        match sp.starts.is_empty() {
            true => 0,
            false => (sp.starts[v + 1] - sp.starts[v]) as usize,
        }
    }

    #[test]
    fn skip_matches_naive_scan() {
        let mut rng = StdRng::seed_from_u64(99);
        for (g, r) in families() {
            let kernels = kernels_of(&g, r);
            for k in 1..=3 {
                for m in [1, 3, 7] {
                    let sp = SkipPointers::build(g.n(), &kernels, multiples(g.n(), m), k);
                    let what = format!("n={}, k={k}, m={m}", g.n());
                    assert!(!sp.truncated(), "{what}");
                    assert_answers_like_naive(&sp, &kernels, k, &mut rng, &what);
                }
            }
        }
    }

    /// Every singleton slot holds `SKIP(v, {X})` for the member `v` it is
    /// parallel to, which lies past `v` or is `None`; the values are all
    /// of a `k = 1` table.
    #[test]
    fn singleton_slots_hold_their_members_values() {
        for (g, r) in families() {
            let kernels = kernels_of(&g, r);
            for m in [1, 3, 7] {
                let sp = SkipPointers::build(g.n(), &kernels, multiples(g.n(), m), 1);
                assert_eq!(sp.single.len(), kernels.total_size());
                assert_eq!(sp.table_len(), kernels.total_size());
                assert!(sp.starts.is_empty() && sp.sets.is_empty() && sp.vals.is_empty());
                for id in 0..kernels.num_bags() as BagId {
                    for &v in kernels.kernel(id) {
                        let val = sp.single[kernels.slot_of(id, v).unwrap()];
                        assert!(val == NO_SKIP || val > v, "bag {id}, v={v}: {val}");
                        assert_eq!(
                            target(val),
                            sp.skip_naive(&kernels, v, &[id]),
                            "n={}, m={m}, bag {id}, v={v}",
                            g.n()
                        );
                    }
                }
            }
        }
    }

    /// Keyed rows exist only for list members, and the table is the
    /// singleton slots plus those rows.
    #[test]
    fn keyed_rows_only_for_list_members() {
        let mut keyed = 0;
        for (g, r) in families() {
            let kernels = kernels_of(&g, r);
            for (k, m) in [(2, 3), (2, 7), (3, 3), (3, 7)] {
                let sp = SkipPointers::build(g.n(), &kernels, multiples(g.n(), m), k);
                assert_eq!(sp.table_len(), kernels.total_size() + sp.sets.len());
                let in_l: usize = sp.list.iter().map(|&v| row_len(&sp, v as usize)).sum();
                assert_eq!(in_l, sp.sets.len());
                for b in (0..g.n()).filter(|&b| sp.next_incl[b] != b as Vertex) {
                    assert_eq!(row_len(&sp, b), 0, "keyed row for {b} ∉ L");
                }
                keyed += sp.sets.len();
            }
        }
        assert!(keyed > 0, "no keyed entries at k ≥ 2");
    }

    /// A cap on the keyed closure that cuts a row in the middle drops that
    /// row and every row below it, charges the entries it computed, leaves
    /// the singleton values whole, and still answers like the naive scan.
    #[test]
    fn a_cap_that_cuts_a_row_still_answers_like_naive() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut cuts_mid_row = 0;
        for (g, r) in families() {
            let kernels = kernels_of(&g, r);
            for (k, m) in [(2, 1), (2, 3), (3, 1)] {
                let list = multiples(g.n(), m);
                let full = SkipPointers::build(g.n(), &kernels, list.clone(), k);
                assert!(!full.truncated());
                // Keep the top rows up to the first one of two or more
                // entries, and one entry of that row.
                let Some(wide) = (0..g.n()).rev().find(|&v| row_len(&full, v) >= 2) else {
                    continue;
                };
                let above: usize = (wide + 1..g.n()).map(|v| row_len(&full, v)).sum();
                cuts_mid_row += 1;
                for cap in [above + 1, 0] {
                    let tracker = BudgetTracker::unlimited();
                    let sp = SkipPointers::try_build_with_cap(
                        g.n(),
                        &kernels,
                        list.clone(),
                        k,
                        cap,
                        &tracker,
                    )
                    .unwrap();
                    let what = format!("n={}, k={k}, m={m}, cap {cap}", g.n());
                    assert!(sp.truncated(), "{what}");
                    assert_eq!(sp.single, full.single, "{what}");
                    let kept = if cap == 0 { 0 } else { above };
                    assert_eq!(sp.sets.len(), kept, "{what}");
                    let slots = kernels.total_size() as u64;
                    // The entry of the cut row that fits is charged too.
                    assert_eq!(tracker.nodes_spent(), slots + cap as u64, "{what}");
                    assert_answers_like_naive(&sp, &kernels, k, &mut rng, &what);
                }
            }
        }
        assert!(cuts_mid_row >= 6, "{cuts_mid_row} mid-row cuts");
    }

    #[test]
    fn empty_list() {
        let g = generators::path(20);
        let (kernels, sp) = setup(&g, 2, vec![], 2);
        assert_eq!(sp.skip(&kernels, 0, &[0]), None);
        assert_eq!(sp.skip(&kernels, 0, &[]), None);
    }

    #[test]
    fn full_list_no_bags_is_identity_successor() {
        let g = generators::cycle(30);
        let list: Vec<Vertex> = (0..30).collect();
        let (kernels, sp) = setup(&g, 1, list, 2);
        for b in 0..30 as Vertex {
            assert_eq!(sp.skip(&kernels, b, &[]), Some(b));
        }
    }

    #[test]
    fn skipping_over_a_kernel_blocks_far_enough() {
        // The guarantee the enumeration relies on: a skipped-to vertex is at
        // distance > r from the kernel's assigned center vertex.
        let g = generators::grid(12, 12);
        let r = 2;
        let cover = Cover::build(&g, 2 * r, 0.5);
        let kernels = KernelIndex::build(&g, &cover, r);
        let list: Vec<Vertex> = (0..g.n() as Vertex).collect();
        let sp = SkipPointers::build(g.n(), &kernels, list, 2);
        let kernel_bags = kernels.bags_of();
        let mut scratch = nd_graph::BfsScratch::new(g.n());
        for a in (0..g.n() as Vertex).step_by(13) {
            let mut bags = kernel_bags.of(a).to_vec();
            bags.truncate(2); // the structure was prepared for k = 2
            if bags.is_empty() {
                continue;
            }
            for b in (0..g.n() as Vertex).step_by(7) {
                if let Some(v) = sp.skip(&kernels, b, &bags) {
                    // v avoids every kernel around a, and X(a)'s kernel in
                    // particular, so dist(a, v) > r.
                    let close = scratch.distance_capped(&g, a, v, r).is_some();
                    // a ∈ K_r(X(a)) always (cover radius 2r ≥ r); if v were
                    // within distance r of a, then N_r(v) ⊆ N_2r(a) ⊆ X(a),
                    // i.e. v ∈ K_r(X(a)) — contradiction.
                    let xa = cover.bag_of(a);
                    if bags.contains(&xa) {
                        assert!(!close, "skip returned {v} too close to {a}");
                    }
                }
            }
        }
    }

    fn encode(sp: &SkipPointers) -> Vec<u8> {
        let mut w = Writer::new();
        sp.write_into(&mut w);
        w.into_bytes()
    }

    /// A table encoding from raw parts, for forging hostile bytes.
    fn encode_parts(
        k: u32,
        cut: u32,
        single: &[u32],
        starts: &[u32],
        sets: &[BagSet],
        vals: &[u32],
    ) -> Vec<u8> {
        let mut w = Writer::new();
        w.u32(k);
        w.u32(cut);
        w.u32_slab(single);
        w.u32_slab(starts);
        w.u128_slab(sets);
        w.u32_slab(vals);
        w.into_bytes()
    }

    /// Decode through a 16-byte-aligned file image, so slabs borrow in
    /// place as on a mapped load under `policy`, and require the reader
    /// to end where the table does.
    fn decode(
        bytes: &[u8],
        policy: VerifyPolicy,
        n: usize,
        list: &[Vertex],
        kernels: &KernelIndex,
    ) -> Result<SkipPointers, PersistError> {
        let file = Arc::new(MmapFile::from_bytes(bytes));
        let ctx = SlabCtx {
            file: file.clone(),
            validate: policy == VerifyPolicy::Full,
        };
        let mut r = Reader::with_slab(file.as_slice(), ctx);
        let sp = SkipPointers::read_from(&mut r, n, list.to_vec().into(), kernels)?;
        r.finish()?;
        Ok(sp)
    }

    #[test]
    fn binary_codec_roundtrip_answers_identically() {
        let g = generators::grid(9, 9);
        let list: Vec<Vertex> = (0..g.n() as Vertex).filter(|v| v % 4 != 2).collect();
        let mut rng = StdRng::seed_from_u64(5);
        for k in [1, 2] {
            let (kernels, sp) = setup(&g, 2, list.clone(), k);
            let bytes = encode(&sp);
            for policy in POLICIES {
                let back = decode(&bytes, policy, g.n(), &list, &kernels).unwrap();
                assert!(back.single.is_mapped());
                assert_eq!(back.table_len(), sp.table_len());
                assert_eq!(back.truncated(), sp.truncated());
                for bags in random_bagsets(&kernels, g.n(), k, &mut rng) {
                    for probe in 0..g.n() as Vertex {
                        assert_eq!(
                            back.skip(&kernels, probe, &bags),
                            sp.skip(&kernels, probe, &bags)
                        );
                    }
                }
                // Deterministic re-encode: the rows are written in order.
                assert_eq!(encode(&back), bytes);
                for cut in 0..bytes.len() {
                    assert!(
                        decode(&bytes[..cut], policy, g.n(), &list, &kernels).is_err(),
                        "cut {cut}"
                    );
                }
            }
        }
    }

    fn is_malformed<T>(got: Result<T, PersistError>) -> bool {
        matches!(got, Err(PersistError::Malformed { .. }))
    }

    /// Hostile tables fail typed: shapes under every policy, values under
    /// full verification.
    #[test]
    fn binary_codec_rejects_hostile_tables() {
        let g = generators::grid(9, 9);
        let n = g.n();
        let list = multiples(n, 3);
        let (kernels, sp) = setup(&g, 2, list.clone(), 2);
        assert!(!sp.sets.is_empty());
        // Edits the singleton values, keyed offsets and keyed values of
        // the table and encodes them at arity `k`.
        type Edit<'a> = &'a dyn Fn(&mut Vec<u32>, &mut Vec<u32>, &mut Vec<u32>);
        let forge = |k: u32, edit: Edit<'_>| {
            let (mut single, mut starts, mut vals) =
                (sp.single.to_vec(), sp.starts.to_vec(), sp.vals.to_vec());
            edit(&mut single, &mut starts, &mut vals);
            encode_parts(k, sp.cut, &single, &starts, &sp.sets, &vals)
        };
        // Shapes: caught under every policy.
        let shapes = [
            (
                "a singleton slot short",
                forge(2, &|s, _, _| s.truncate(s.len() - 1)),
            ),
            (
                "a singleton slot over",
                forge(2, &|s, _, _| s.push(NO_SKIP)),
            ),
            (
                "keyed offsets for another n",
                forge(2, &|_, o, _| o.truncate(o.len() - 1)),
            ),
            ("keyed rows at arity 1", forge(1, &|_, _, _| ())),
        ];
        for (what, bytes) in &shapes {
            for policy in POLICIES {
                assert!(
                    is_malformed(decode(bytes, policy, n, &list, &kernels)),
                    "{what} accepted under {policy:?}"
                );
            }
        }
        // A list member out of range.
        let bytes = encode(&sp);
        for policy in POLICIES {
            let far = [list.as_slice(), &[n as Vertex]].concat();
            assert!(is_malformed(decode(&bytes, policy, n, &far, &kernels)));
        }
        // Values: caught under full verification.
        let (id, v) = (0..kernels.num_bags() as BagId)
            .find_map(|id| kernels.kernel(id).first().map(|&v| (id, v)))
            .unwrap();
        let slot = kernels.slot_of(id, v).unwrap();
        let row = list
            .iter()
            .map(|&b| b as usize)
            .find(|&b| row_len(&sp, b) > 0)
            .unwrap();
        let entry = sp.starts[row] as usize;
        let values = [
            (
                "a singleton value out of range",
                forge(2, &|s, _, _| s[slot] = n as u32),
            ),
            (
                "a singleton value at its vertex",
                forge(2, &|s, _, _| s[slot] = v),
            ),
            (
                "a keyed value out of range",
                forge(2, &|_, _, x| x[entry] = n as u32),
            ),
            (
                "a keyed value at its vertex",
                forge(2, &|_, _, x| x[entry] = row as u32),
            ),
        ];
        for (what, bytes) in &values {
            assert!(
                is_malformed(decode(bytes, VerifyPolicy::Full, n, &list, &kernels)),
                "{what} accepted"
            );
        }
        // A keyed row for a vertex the list no longer holds.
        let fewer: Vec<Vertex> = list
            .iter()
            .copied()
            .filter(|&b| b as usize != row)
            .collect();
        assert!(is_malformed(decode(
            &bytes,
            VerifyPolicy::Full,
            n,
            &fewer,
            &kernels
        )));
        assert!(decode(&bytes, VerifyPolicy::Full, n, &list, &kernels).is_ok());
    }

    #[test]
    fn table_obeys_the_claim_bound() {
        // Claim 5.10: |SC(b)| = O(δ^k) per vertex, δ = kernel degree.
        let g = generators::random_tree(400, 8);
        let list: Vec<Vertex> = (0..g.n() as Vertex).collect();
        let (kernels, sp) = setup(&g, 2, list, 2);
        let delta = kernels.degree();
        let bound = g.n() * (delta + 1).pow(2);
        assert!(
            sp.table_len() <= bound,
            "table {} exceeds n·(δ+1)^k = {bound} (δ = {delta})",
            sp.table_len()
        );
        // And it is far below the quadratic full table.
        assert!(sp.table_len() < g.n() * g.n());
    }
}
