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
//! Claim 5.9, which reads table rows only at list members
//! `c = next_L(b)` — so only the rows of `b ∈ L` are tabulated; for
//! `b ∉ L`, `SKIP(b, S) = SKIP(next_L(b), S)` and the row stays empty.

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
/// Sentinel for `SKIP(b, S) = None` in the compressed value array.
/// Unambiguous because decoded skip targets are range-checked `< n` and
/// `n` is a `u32` vertex count.
const NO_SKIP: u32 = u32::MAX;

/// One tabulated closure row: was `(b, S)` materialized, and if so what is
/// `SKIP(b, S)`?
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Entry {
    Absent,
    Present(Option<Vertex>),
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
/// The tabulated closure is stored compressed-sparse-row: one row of
/// `(bag-set, skip)` entries per vertex, rows concatenated into two flat
/// arrays with an offset index. A probe is one offset load plus a binary
/// search in an `O(δ^k)`-sized row — no hashing, 20 bytes per entry
/// instead of a hash-map node, and iteration order is the sorted
/// `(vertex, set)` order the codec wants, so serialization is a straight
/// walk.
#[derive(Clone)]
pub struct SkipPointers {
    k: usize,
    n: usize,
    /// Sorted target list `L`.
    list: Vec<Vertex>,
    in_list: Vec<bool>,
    /// `next_in_list[v]`: smallest member of `L` strictly greater than `v`.
    next_in_list: Vec<Option<Vertex>>,
    /// CSR row offsets: vertex `v`'s closure entries live at
    /// `starts[v] .. starts[v+1]` in `sets` / `vals`. Length `n + 1`;
    /// the row of every `v ∉ L` is empty.
    /// The three CSR arrays are [`Slab`]s: file-backed when decoded from
    /// a mapped container.
    starts: Slab<u32>,
    /// Bag sets of the closure, sorted within each row.
    sets: Slab<BagSet>,
    /// `SKIP(v, sets[i])`, parallel to `sets`; [`NO_SKIP`] encodes `None`.
    vals: Slab<u32>,
    /// When the `δ^k` closure would exceed this many entries (kernel
    /// degrees blow up on expander-like inputs), the closure is truncated;
    /// queries stay correct via a linear-scan fallback. Truncation is
    /// all-or-nothing per vertex: a partially-tabulated row would break
    /// the Claim 5.9 subset-growing argument, which needs every
    /// tabulated closure complete.
    truncated: bool,
}

/// `SKIP(b, S)` probe against a CSR row view. Free function so the
/// descending-vertex builder can query rows it has already finalized
/// before the final structure exists.
#[inline]
fn csr_get(starts: &[u32], sets: &[BagSet], vals: &[u32], v: Vertex, set: BagSet) -> Entry {
    let lo = starts[v as usize] as usize;
    let hi = starts[v as usize + 1] as usize;
    match sets[lo..hi].binary_search(&set) {
        Ok(i) => Entry::Present(match vals[lo + i] {
            NO_SKIP => None,
            x => Some(x),
        }),
        Err(_) => Entry::Absent,
    }
}

/// Correct (but linear) fallback used only past the table cap.
fn scan_fallback_raw(
    kernels: &KernelIndex,
    in_list: &[bool],
    next_in_list: &[Option<Vertex>],
    from: Vertex,
    s: &[BagId],
) -> Option<Vertex> {
    let mut cur = if in_list[from as usize] {
        Some(from)
    } else {
        next_in_list[from as usize]
    };
    while let Some(v) = cur {
        if s.iter().all(|&x| !kernels.in_kernel(x, v)) {
            return Some(v);
        }
        cur = next_in_list[v as usize];
    }
    None
}

/// The Claim 5.9 case analysis, generic over the closure-table view (the
/// finished CSR arrays at query time, the in-progress builder during
/// construction). Uses only `next_in_list` and table entries for vertices
/// `> b`, which is what makes the descending construction of Claim 5.10
/// well-founded.
fn compute_skip_raw(
    kernels: &KernelIndex,
    in_list: &[bool],
    next_in_list: &[Option<Vertex>],
    get: &dyn Fn(Vertex, BagSet) -> Entry,
    b: Vertex,
    s: &[BagId],
) -> Option<Vertex> {
    debug_assert!(s.len() <= MAX_SET && s.windows(2).all(|w| w[0] < w[1]));
    // Case 1: b itself qualifies.
    if in_list[b as usize] && s.iter().all(|&x| !kernels.in_kernel(x, b)) {
        return Some(b);
    }
    // Case 2: move to the next list element c > b.
    let c = next_in_list[b as usize]?;
    let Some(x0) = s.iter().copied().find(|&x| kernels.in_kernel(x, c)) else {
        return Some(c);
    };
    // Grow a maximal S' ⊆ S with S' ∈ SC(c), starting from a singleton
    // {X} with c ∈ K_r(X) (which is in SC(c) by construction).
    let mut s_prime = BagIds::single(x0);
    let mut grew = true;
    while grew && s_prime.len < s.len() {
        grew = false;
        for &y in s {
            if let Some(candidate) = s_prime.with(y) {
                if matches!(get(c, encode_set(candidate.as_slice())), Entry::Present(_)) {
                    s_prime = candidate;
                    grew = true;
                }
            }
        }
    }
    match get(c, encode_set(s_prime.as_slice())) {
        Entry::Present(v) => v,
        // The table was truncated at the size cap — or decoded from a
        // file whose closure is incomplete (hostile bytes pass the CRC
        // only on purpose-built inputs, but they must not panic): fall
        // back to a correct linear scan of L.
        Entry::Absent => scan_fallback_raw(kernels, in_list, next_in_list, c, s),
    }
}

/// A finished closure table in forward CSR order, as a row builder
/// returns it.
struct Rows {
    starts: Vec<u32>,
    sets: Vec<BagSet>,
    vals: Vec<u32>,
    truncated: bool,
}

/// Builds the closure table from the kernels, `in_list`, `next_in_list`,
/// `k` and the entry cap.
type RowBuilder = fn(
    &KernelIndex,
    &[bool],
    &[Option<Vertex>],
    usize,
    usize,
    &BudgetTracker,
) -> Result<Rows, BudgetExceeded>;

/// Claim 5.10: compute `SKIP(b, S)` for `S ∈ SC(b)`, `b` descending, sets
/// in breadth-first (size) order. Rows are finalized one vertex at a time
/// into `rev_*` (so they land in descending-vertex order) and reversed
/// into the forward CSR at the end; `bounds[v]` exposes the
/// already-finalized rows — exactly the `v > b` entries Claim 5.10 is
/// allowed to read — to the in-progress computation. Each entry costs a
/// few kernel-membership binary searches and row lookups.
fn closure_rows(
    kernels: &KernelIndex,
    in_list: &[bool],
    next_in_list: &[Option<Vertex>],
    k: usize,
    max_entries: usize,
    tracker: &BudgetTracker,
) -> Result<Rows, BudgetExceeded> {
    let n = in_list.len();
    // `{X : v ∈ K_r(X)}` seeds SC(v) and grows its sets.
    let kernel_bags = kernels.bags_of();
    let mut rev_sets: Vec<BagSet> = Vec::new();
    let mut rev_vals: Vec<u32> = Vec::new();
    let mut bounds: Vec<(u32, u32)> = vec![(0, 0); n];
    let mut truncated = false;
    // Current vertex's row, sorted by bag set.
    let mut row: Vec<(BagSet, u32)> = Vec::new();
    let mut queue: Vec<BagIds> = Vec::new();
    'outer: for b in (0..n as Vertex).rev() {
        // Claim 5.9 reads rows only at list members; a vertex outside
        // L keeps an empty row.
        if !in_list[b as usize] {
            continue;
        }
        row.clear();
        queue.clear();
        queue.extend(kernel_bags.of(b).iter().map(|&x| BagIds::single(x)));
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
                truncated = true;
                row.clear();
                break 'outer;
            }
            tracker.charge_nodes(Phase::SkipClosure, 1)?;
            tracker.charge_memory(Phase::SkipClosure, 24)?;
            let skip = compute_skip_raw(
                kernels,
                in_list,
                next_in_list,
                &|v, set| {
                    let (lo, hi) = bounds[v as usize];
                    match rev_sets[lo as usize..hi as usize].binary_search(&set) {
                        Ok(i) => Entry::Present(match rev_vals[lo as usize + i] {
                            NO_SKIP => None,
                            x => Some(x),
                        }),
                        Err(_) => Entry::Absent,
                    }
                },
                b,
                s.as_slice(),
            );
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
    Ok(Rows {
        starts,
        sets,
        vals,
        truncated,
    })
}

/// The `k = 1` table in closed form. `SC(b)` is `{{X} : b ∈ K_r(X)}` and
/// `SKIP(b, {X})`, for `b ∈ L ∩ K_r(X)`, is the smallest `c ≥ b` in `L`
/// outside `K_r(X)`: with `c = next_L(b)`, it is `c` itself when `c ∉
/// K_r(X)`, and otherwise `SKIP(c, {X})`. So one descending walk over each
/// kernel row, stamping its members with the bag id (membership in O(1))
/// and memoising each list member's value, yields every entry with one
/// lookup. Bags are walked in id order and scattered into the CSR rows by
/// a counting sort, so each row comes out sorted by its set.
///
/// Truncation and charges are [`closure_rows`]'s: rows are kept from the
/// top vertex down while each fits whole under `max_entries`, and one node
/// and 24 bytes are charged per entry the closure would tabulate —
/// `min(entries, max_entries)`, since it also charges the part of the cut
/// row that fits.
fn singleton_rows(
    kernels: &KernelIndex,
    in_list: &[bool],
    next_in_list: &[Option<Vertex>],
    _k: usize,
    max_entries: usize,
    tracker: &BudgetTracker,
) -> Result<Rows, BudgetExceeded> {
    let n = in_list.len();
    let bags = kernels.num_bags() as BagId;
    // Row lengths: the row of b ∈ L has one entry per kernel holding b.
    let mut starts = vec![0u32; n + 1];
    for id in 0..bags {
        for &v in kernels.kernel(id) {
            if in_list[v as usize] {
                starts[v as usize + 1] += 1;
            }
        }
    }
    // Rows of vertices below `cut` are dropped.
    let (mut kept, mut cut, mut truncated) = (0usize, 0usize, false);
    for v in (0..n).rev() {
        let len = starts[v + 1] as usize;
        if kept + len > max_entries {
            (cut, truncated) = (v + 1, true);
            break;
        }
        kept += len;
    }
    let charged = if truncated { max_entries } else { kept } as u64;
    tracker.charge_nodes(Phase::SkipClosure, charged)?;
    tracker.charge_memory(Phase::SkipClosure, 24 * charged)?;
    starts[1..=cut].fill(0);
    for v in 0..n {
        starts[v + 1] += starts[v];
    }
    let mut fill = starts[..n].to_vec();
    let mut sets = vec![0 as BagSet; kept];
    let mut vals = vec![NO_SKIP; kept];
    // For a list member v, `stamp[v] == id` iff v is in the kernel row
    // being walked and, as the walk descends, already visited; `memo[v]`
    // then holds SKIP(v, {id}). Only list members are stamped, since
    // `next_L` only ever asks about them.
    let mut stamp = vec![EMPTY_SLOT; n];
    let mut memo = vec![NO_SKIP; n];
    for id in 0..bags {
        let set = encode_set(&[id]);
        for &v in kernels.kernel(id).iter().rev() {
            let v = v as usize;
            if !in_list[v] {
                continue;
            }
            stamp[v] = id;
            let val = match next_in_list[v] {
                Some(c) if stamp[c as usize] == id => memo[c as usize],
                Some(c) => c,
                None => NO_SKIP,
            };
            memo[v] = val;
            if v >= cut {
                let slot = fill[v] as usize;
                sets[slot] = set;
                vals[slot] = val;
                fill[v] += 1;
            }
        }
    }
    Ok(Rows {
        starts,
        sets,
        vals,
        truncated,
    })
}

impl SkipPointers {
    /// Precompute the pointers for up to `k` simultaneous bags.
    /// Cost `O(n · δ^k)` table entries, each `O(1)` amortized.
    pub fn build(n: usize, kernels: &KernelIndex, list: Vec<Vertex>, k: usize) -> SkipPointers {
        Self::build_with_cap(n, kernels, list, k, usize::MAX)
    }

    /// [`Self::build`] with a table-size cap. Past the cap no further bag
    /// sets are tabulated; `skip` degrades to a correct scan when it needs
    /// an untabulated set.
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
    /// query time; see [`Self::skip`]). At `k = 1` the closure has a
    /// closed form, built by one sweep per kernel row
    /// ([`singleton_rows`]); larger `k` run Claim 5.10's closure
    /// ([`closure_rows`]). Both write the same table and charge the same.
    pub fn try_build_with_cap(
        n: usize,
        kernels: &KernelIndex,
        list: Vec<Vertex>,
        k: usize,
        max_entries: usize,
        tracker: &BudgetTracker,
    ) -> Result<SkipPointers, BudgetExceeded> {
        let k = k.clamp(1, MAX_SET);
        let rows: RowBuilder = if k == 1 { singleton_rows } else { closure_rows };
        Self::try_build_by(n, kernels, list, k, max_entries, tracker, rows)
    }

    fn try_build_by(
        n: usize,
        kernels: &KernelIndex,
        mut list: Vec<Vertex>,
        k: usize,
        max_entries: usize,
        tracker: &BudgetTracker,
        rows: RowBuilder,
    ) -> Result<SkipPointers, BudgetExceeded> {
        list.sort_unstable();
        list.dedup();
        let mut in_list = vec![false; n];
        for &v in &list {
            in_list[v as usize] = true;
        }
        let mut next_in_list: Vec<Option<Vertex>> = vec![None; n];
        {
            let mut next = None;
            for v in (0..n).rev() {
                next_in_list[v] = next;
                if in_list[v] {
                    next = Some(v as Vertex);
                }
            }
        }
        tracker.charge_memory(Phase::SkipClosure, 9 * n as u64)?;
        let Rows {
            starts,
            sets,
            vals,
            truncated,
        } = rows(kernels, &in_list, &next_in_list, k, max_entries, tracker)?;
        Ok(SkipPointers {
            k,
            n,
            list,
            in_list,
            next_in_list,
            starts: starts.into(),
            sets: sets.into(),
            vals: vals.into(),
            truncated,
        })
    }

    /// Number of precomputed table entries (experiment E8: `O(|L|·δ^k)`).
    pub fn table_len(&self) -> usize {
        self.sets.len()
    }

    /// Was the closure truncated at the size cap (queries then use the
    /// scan fallback when they step outside the tabulated sets)?
    pub fn truncated(&self) -> bool {
        self.truncated
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
    pub fn skip(&self, kernels: &KernelIndex, b: Vertex, bags: &[BagId]) -> Option<Vertex> {
        let mut s = BagIds::EMPTY;
        if !bags.iter().all(|&x| s.insert(x)) || s.len > self.k {
            return scan_fallback_raw(kernels, &self.in_list, &self.next_in_list, b, bags);
        }
        compute_skip_raw(
            kernels,
            &self.in_list,
            &self.next_in_list,
            &|v, set| csr_get(&self.starts, &self.sets, &self.vals, v, set),
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
    /// The tabulated `SC(b)` closure — the expensive part — is serialized
    /// as its three CSR arrays, raw and 16-byte aligned, so a mapped load
    /// borrows them in place; the cheap `in_list` / `next_in_list` arrays
    /// are rebuilt on load in `O(n)`.
    pub fn write_into(&self, w: &mut nd_persist::Writer) {
        w.u32(self.k as u32);
        w.u32_slice(&self.list);
        w.bool(self.truncated);
        w.u32_slab(&self.starts);
        w.u128_slab(&self.sets);
        w.u32_slab(&self.vals);
    }

    /// Decode the structure for an `n`-vertex graph (`n` supplied by the
    /// caller from the already-validated graph, so a corrupt count cannot
    /// drive the rebuild allocations). Table values are range-checked —
    /// the answering phase feeds them straight into per-position bitsets —
    /// and full verification also rejects a row for a vertex outside `L`,
    /// which no build writes.
    pub fn read_from(
        r: &mut nd_persist::Reader<'_>,
        n: usize,
    ) -> Result<SkipPointers, nd_persist::PersistError> {
        use nd_persist::malformed;
        let k = r.u32("skip arity")? as usize;
        if !(1..=MAX_SET).contains(&k) {
            return Err(malformed("skip arity outside 1..=4"));
        }
        let list = r.u32_slice_sorted(n as u32, "skip list")?;
        let truncated = r.bool("skip truncated flag")?;
        let starts = r.u32_slab("skip row offsets")?;
        let sets: Slab<BagSet> = r.u128_slab("skip table sets")?;
        let vals = r.u32_slab("skip table values")?;
        // Always-on O(1) shape checks: every `starts[v]`/`starts[v+1]`
        // row probe must be in bounds even under lazy verification
        // (a hostile *offset* can still raise a safe slice panic
        // there; the deferred CRC is the backstop).
        if starts.len() != n + 1 {
            return Err(malformed("skip row offsets sized for another n"));
        }
        if vals.len() != sets.len() {
            return Err(malformed("skip set/value lengths disagree"));
        }
        let mut in_list = vec![false; n];
        for &v in &list {
            in_list[v as usize] = true;
        }
        if r.should_validate() {
            if starts.first() != Some(&0) || starts[n] as usize != sets.len() {
                return Err(malformed("skip row offsets do not span the table"));
            }
            if starts.windows(2).any(|w| w[0] > w[1]) {
                return Err(malformed("skip row offsets not monotone"));
            }
            for v in 0..n {
                let row = &sets[starts[v] as usize..starts[v + 1] as usize];
                if !in_list[v] && !row.is_empty() {
                    return Err(malformed("skip row for a vertex outside the list"));
                }
                if row.windows(2).any(|w| w[0] >= w[1]) {
                    return Err(malformed("skip table sets not sorted within a row"));
                }
            }
            if vals.iter().any(|&x| x != NO_SKIP && (x as usize) >= n) {
                return Err(malformed("skip table value out of range"));
            }
        }
        let mut next_in_list: Vec<Option<Vertex>> = vec![None; n];
        let mut next = None;
        for v in (0..n).rev() {
            next_in_list[v] = next;
            if in_list[v] {
                next = Some(v as Vertex);
            }
        }
        Ok(SkipPointers {
            k,
            n,
            list,
            in_list,
            next_in_list,
            starts,
            sets,
            vals,
            truncated,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nd_cover::Cover;
    use nd_graph::generators;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn setup(
        g: &nd_graph::ColoredGraph,
        r: u32,
        list: Vec<Vertex>,
        k: usize,
    ) -> (KernelIndex, SkipPointers) {
        // Cover radius 2r so that "outside K_r" implies "distance > r" —
        // mirroring the kr-radius cover of Section 5.
        let cover = Cover::build(g, 2 * r, 0.5);
        let kernels = KernelIndex::build(g, &cover, r);
        let sp = SkipPointers::build(g.n(), &kernels, list, k);
        (kernels, sp)
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

    #[test]
    fn skip_matches_naive_scan() {
        let mut rng = StdRng::seed_from_u64(99);
        for (g, r, k) in [
            (generators::path(80), 2u32, 2usize),
            (generators::grid(9, 9), 1, 2),
            (generators::random_tree(100, 3), 2, 3),
            (generators::bounded_degree(120, 4, 1), 2, 2),
            (generators::bounded_degree(120, 4, 1), 2, 1),
        ] {
            let list: Vec<Vertex> = (0..g.n() as Vertex).filter(|v| v % 3 != 1).collect();
            let (kernels, sp) = setup(&g, r, list, k);
            for bags in random_bagsets(&kernels, g.n(), k, &mut rng) {
                for probe in 0..g.n() as Vertex {
                    assert_eq!(
                        sp.skip(&kernels, probe, &bags),
                        sp.skip_naive(&kernels, probe, &bags),
                        "b={probe}, S={bags:?}"
                    );
                }
            }
        }
    }

    /// Rows exist only for list members: the table is the sum of their
    /// rows, every other row is empty, and a probe from outside `L` still
    /// answers like the naive scan (it reads the row of `next_L(b)`).
    #[test]
    fn rows_only_for_list_members() {
        let mut rng = StdRng::seed_from_u64(7);
        for (g, r, k) in [
            (generators::path(80), 2u32, 2usize),
            (generators::grid(9, 9), 1, 2),
            (generators::random_tree(100, 3), 2, 3),
            (generators::bounded_degree(120, 4, 1), 2, 2),
        ] {
            for modulus in [3, 7] {
                let list: Vec<Vertex> = (0..g.n() as Vertex).filter(|v| v % modulus == 0).collect();
                let (kernels, sp) = setup(&g, r, list, k);
                let row_len = |v: usize| (sp.starts[v + 1] - sp.starts[v]) as usize;
                let in_l: usize = sp.list.iter().map(|&v| row_len(v as usize)).sum();
                assert_eq!(sp.table_len(), in_l);
                assert!(sp.table_len() > 0);
                for b in (0..g.n() as Vertex).filter(|&b| !sp.in_list[b as usize]) {
                    assert_eq!(row_len(b as usize), 0, "row for {b} ∉ L");
                }
                for bags in random_bagsets(&kernels, g.n(), k, &mut rng) {
                    for b in (0..g.n() as Vertex).filter(|&b| !sp.in_list[b as usize]) {
                        assert_eq!(
                            sp.skip(&kernels, b, &bags),
                            sp.skip_naive(&kernels, b, &bags),
                            "b={b}, S={bags:?}"
                        );
                    }
                }
            }
        }
    }

    /// The `k = 1` sweep writes the table Claim 5.10's closure writes, byte
    /// for byte, and charges the same: unbounded, with a cap that cuts a
    /// row in the middle, and with a cap of 0.
    #[test]
    fn singleton_sweep_matches_the_closure() {
        let build = |n: usize, kernels: &KernelIndex, list: &[Vertex], cap, rows: RowBuilder| {
            let tracker = BudgetTracker::unlimited();
            let sp = SkipPointers::try_build_by(n, kernels, list.to_vec(), 1, cap, &tracker, rows)
                .unwrap();
            let mut w = nd_persist::Writer::new();
            sp.write_into(&mut w);
            (
                sp,
                w.into_bytes(),
                tracker.nodes_spent(),
                tracker.memory_spent(),
            )
        };
        let mut cuts_mid_row = 0;
        for (g, r) in [
            (generators::path(80), 2u32),
            (generators::grid(9, 9), 1),
            (generators::random_tree(100, 3), 2),
            (generators::bounded_degree(120, 4, 1), 2),
        ] {
            let cover = Cover::build(&g, 2 * r, 0.5);
            let kernels = KernelIndex::build(&g, &cover, r);
            for modulus in [1, 3, 7] {
                let list: Vec<Vertex> = (0..g.n() as Vertex).filter(|v| v % modulus == 0).collect();
                let (full, ..) = build(g.n(), &kernels, &list, usize::MAX, closure_rows);
                assert!(!full.truncated() && full.table_len() > 0);
                // Keep the top rows up to the first one of two or more
                // entries, and one entry of that row. A cover of one bag
                // has no such row; it is cut between rows instead.
                let row_len = |v: usize| (full.starts[v + 1] - full.starts[v]) as usize;
                let cut = match (0..g.n()).rev().find(|&v| row_len(v) >= 2) {
                    Some(wide) => {
                        cuts_mid_row += 1;
                        (wide + 1..g.n()).map(row_len).sum::<usize>() + 1
                    }
                    None => full.table_len() / 2,
                };
                for cap in [usize::MAX, cut, 0] {
                    let (closure, bytes, nodes, mem) =
                        build(g.n(), &kernels, &list, cap, closure_rows);
                    let (_, sweep_bytes, sweep_nodes, sweep_mem) =
                        build(g.n(), &kernels, &list, cap, singleton_rows);
                    let what = format!("n={}, modulus {modulus}, cap {cap}", g.n());
                    assert_eq!(closure.truncated(), cap != usize::MAX, "{what}");
                    assert_eq!(sweep_bytes, bytes, "{what}");
                    assert_eq!((sweep_nodes, sweep_mem), (nodes, mem), "{what}");
                    assert_eq!(nodes, cap.min(full.table_len()) as u64, "{what}");
                }
            }
        }
        assert!(cuts_mid_row >= 6, "{cuts_mid_row} mid-row cuts");
    }

    #[test]
    fn full_verify_rejects_a_row_outside_the_list() {
        let g = generators::grid(9, 9);
        let list: Vec<Vertex> = (0..g.n() as Vertex).filter(|v| v % 3 == 0).collect();
        let (_, sp) = setup(&g, 2, list, 2);
        // Drop a member with a non-empty row from L, keeping its row.
        let mut forged = sp.clone();
        let victim = sp
            .list
            .iter()
            .position(|&v| sp.starts[v as usize + 1] > sp.starts[v as usize])
            .expect("some list member has a row");
        forged.list.remove(victim);
        let mut w = nd_persist::Writer::new();
        forged.write_into(&mut w);
        let bytes = w.into_bytes();
        let got = SkipPointers::read_from(&mut nd_persist::Reader::new(&bytes), g.n());
        assert!(
            matches!(got, Err(nd_persist::PersistError::Malformed { .. })),
            "a row outside L was accepted"
        );
    }

    #[test]
    fn empty_list() {
        let g = generators::path(20);
        let (kernels, sp) = setup(&g, 2, vec![], 2);
        assert_eq!(sp.skip(&kernels, 0, &[0]), None);
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

    #[test]
    fn binary_codec_roundtrip_answers_identically() {
        let g = generators::grid(9, 9);
        let list: Vec<Vertex> = (0..g.n() as Vertex).filter(|v| v % 4 != 2).collect();
        let (kernels, sp) = setup(&g, 2, list, 2);
        let mut w = nd_persist::Writer::new();
        sp.write_into(&mut w);
        let bytes = w.into_bytes();
        let mut r = nd_persist::Reader::new(&bytes);
        let back = SkipPointers::read_from(&mut r, g.n()).unwrap();
        r.finish().unwrap();
        assert_eq!(back.table_len(), sp.table_len());
        assert_eq!(back.truncated(), sp.truncated());
        let mut rng = StdRng::seed_from_u64(5);
        for bags in random_bagsets(&kernels, g.n(), 2, &mut rng) {
            for probe in 0..g.n() as Vertex {
                assert_eq!(
                    back.skip(&kernels, probe, &bags),
                    sp.skip(&kernels, probe, &bags)
                );
            }
        }
        // Deterministic re-encode: the CSR rows are written in order.
        let mut w2 = nd_persist::Writer::new();
        back.write_into(&mut w2);
        assert_eq!(w2.into_bytes(), bytes);
    }

    #[test]
    fn binary_codec_rejects_corruption() {
        let g = generators::path(40);
        let list: Vec<Vertex> = (0..40).collect();
        let (_, sp) = setup(&g, 2, list, 2);
        let mut w = nd_persist::Writer::new();
        sp.write_into(&mut w);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            assert!(
                SkipPointers::read_from(&mut nd_persist::Reader::new(&bytes[..cut]), g.n())
                    .is_err(),
                "cut {cut}"
            );
        }
        // Out-of-range table vertices / values are rejected (they would
        // otherwise index per-position bitsets out of bounds downstream).
        assert!(SkipPointers::read_from(&mut nd_persist::Reader::new(&bytes), 3).is_err());
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
