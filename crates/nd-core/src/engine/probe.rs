//! The probe side of the indexed engine: **Corollary 2.4** (testing),
//! **Theorem 2.3** (next solution) and **Corollary 2.5** (enumeration).
//!
//! Answering (Section 5.2.2, adapted): `next_value(prefix, j, b)` — the
//! Lemma 5.2 primitive — finds the smallest admissible value `≥ b` for
//! position `j` by case analysis on the constraints to the prefix:
//!
//! * an equality pins the candidate; an edge constraint scans the anchor's
//!   adjacency list; a `dist ≤ d` constraint binary-searches the anchor's
//!   sorted cover-bag row once and scans it from there (candidates are
//!   confined to the bag because `N_d(a) ⊆ X(a)`) — the paper's "Case II";
//! * far-only constraints take the minimum of (a) per-anchor scans of the
//!   kernels `K_r(X(a_i))` and (b) a `SKIP` jump over `L_j` past all those
//!   kernels, which is guaranteed far because outside `K_r(X(a))` implies
//!   `dist(·, a) > r` under a `2r`-cover — the paper's "Case I";
//! * no constraints: the successor in `L_j`.
//!
//! `next_solution` is then the Theorem 5.1 ⇆ Lemma 5.2 mutual induction,
//! realized as lexicographic backtracking over `next_value` with an
//! extendability pre-check per future position. Per-candidate work is
//! `O(1)`; the number of candidates inspected per output is bounded by bag/
//! kernel sizes — independent of `n` on sparse families (measured in E5/E7;
//! see DESIGN.md §2 for how this relates to the paper's strictly-constant
//! delay).
//!
//! [`Enumerate`] keeps one pending solution per union branch and gets each
//! branch's successor with `next_after`, which resumes at the deepest
//! position that still has a next candidate instead of re-descending from
//! the root. Past the first answer, neither path allocates except for the
//! tuples it returns (DESIGN.md §8.4).

use crate::engine::fragment::BinKind;
use crate::engine::prepared::{BranchEngine, EngineImpl, PreparedQuery};
use crate::skip::BagIds;
use nd_graph::{ColoredGraph, Vertex};
use std::borrow::Borrow;

/// Streaming enumeration in lexicographic order.
///
/// A well-behaved std iterator: [`Iterator::size_hint`] is exact whenever
/// the remaining count is knowable in constant time (exhausted, or a
/// Boolean query), and the iterator is [fused](std::iter::FusedIterator)
/// — once `next` returns `None` it returns `None` forever, so it composes
/// with `chain`/`zip`/`take_while` without a defensive [`Iterator::fuse`].
pub struct Enumerate<'a, G: Borrow<ColoredGraph>> {
    pq: &'a PreparedQuery<G>,
    state: State<'a>,
}

enum State<'a> {
    /// The naive rung: the buffered next solution; each successor is a
    /// fresh `next_solution(lex_increment(t))`.
    Restart(Option<Vec<Vertex>>),
    /// The indexed engine: per branch, its smallest solution not yet
    /// yielded (`None` once the branch is exhausted), and the prefix
    /// buffer `next_after` works in.
    Resume {
        g: &'a ColoredGraph,
        branches: &'a [BranchEngine],
        pending: Vec<Option<Vec<Vertex>>>,
        prefix: Vec<Vertex>,
    },
}

impl<'a, G: Borrow<ColoredGraph>> Enumerate<'a, G> {
    /// Start at the smallest solution `≥ from` (`from` has the query's
    /// arity).
    pub(super) fn start(pq: &'a PreparedQuery<G>, from: &[Vertex]) -> Self {
        let g = pq.graph();
        let state = match &pq.engine {
            EngineImpl::Indexed(branches) => State::Resume {
                g,
                branches,
                pending: branches.iter().map(|b| b.next_solution(g, from)).collect(),
                prefix: Vec::with_capacity(pq.arity()),
            },
            EngineImpl::Naive(_) => State::Restart(pq.next_solution(from)),
        };
        Enumerate { pq, state }
    }
}

/// The multi-branch merge: a union's answer is the smallest of its
/// branches' candidates. Shared by `next_solution` and [`Enumerate`], so
/// the `sabotage` feature's flipped-lex switch reaches both.
pub(super) fn merge_branches<T: Ord>(candidates: impl Iterator<Item = T>) -> Option<T> {
    #[cfg(feature = "sabotage")]
    if crate::sabotage::flip_lex() {
        return candidates.max();
    }
    candidates.min()
}

impl<G: Borrow<ColoredGraph>> Iterator for Enumerate<'_, G> {
    type Item = Vec<Vertex>;

    fn next(&mut self) -> Option<Vec<Vertex>> {
        match &mut self.state {
            State::Restart(next) => {
                let cur = next.take()?;
                // A true sentence has exactly one (empty) solution.
                if self.pq.arity() > 0 {
                    *next = self
                        .pq
                        .lex_increment(&cur)
                        .and_then(|succ| self.pq.next_solution(&succ));
                }
                Some(cur)
            }
            State::Resume {
                g,
                branches,
                pending,
                prefix,
            } => {
                let out = merge_branches(pending.iter().flatten())?.clone();
                // Every branch holding the yielded tuple moves past it.
                for (b, slot) in branches.iter().zip(pending.iter_mut()) {
                    if let Some(t) = slot.as_mut().filter(|t| **t == out) {
                        if b.next_after(g, t, prefix) {
                            t.copy_from_slice(prefix);
                        } else {
                            *slot = None;
                        }
                    }
                }
                Some(out)
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let buffered = match &self.state {
            State::Restart(next) => next.is_some(),
            State::Resume { pending, .. } => pending.iter().any(Option::is_some),
        };
        match (buffered, self.pq.arity()) {
            // Exhausted: exactly zero remaining.
            (false, _) => (0, Some(0)),
            // Boolean query with a buffered solution: exactly one.
            (true, 0) => (1, Some(1)),
            // One solution buffered; the tail length is unknown without
            // enumerating it (counting would break constant delay).
            (true, _) => (1, None),
        }
    }
}

impl<G: Borrow<ColoredGraph>> std::iter::FusedIterator for Enumerate<'_, G> {}

impl BranchEngine {
    /// `dist(a, b) ≤ d`: one lookup in the radius-`d` oracle.
    fn dist_le(&self, d: u32, a: Vertex, b: Vertex) -> bool {
        let (_, oracle) = self
            .oracles
            .iter()
            .find(|(r, _)| *r == d)
            .expect("an oracle for every constraint radius");
        oracle.test(a, b)
    }

    /// Constant-time binary-constraint test.
    fn test_bin(&self, g: &ColoredGraph, kind: BinKind, a: Vertex, b: Vertex) -> bool {
        match kind {
            BinKind::Le(d) => self.dist_le(d, a, b),
            BinKind::Gt(d) => !self.dist_le(d, a, b),
            BinKind::Edge => g.has_edge(a, b),
            BinKind::NotEdge => !g.has_edge(a, b),
            BinKind::Eq => a == b,
            BinKind::Neq => a != b,
        }
    }

    /// Corollary 2.4 test for this branch.
    pub(super) fn test_tuple(&self, g: &ColoredGraph, t: &[Vertex]) -> bool {
        self.active
            && (0..self.fq.k).all(|j| self.unary_bits[j][t[j] as usize])
            && self
                .fq
                .binary
                .iter()
                .all(|c| self.test_bin(g, c.kind, t[c.i], t[c.j]))
    }

    /// Unary + prefix-constraint test for a candidate value at position `j`.
    fn test_candidate(&self, g: &ColoredGraph, prefix: &[Vertex], j: usize, b: Vertex) -> bool {
        self.unary_bits[j][b as usize]
            && self
                .fq
                .constraints_on(j)
                .filter(|c| c.i < prefix.len())
                .all(|c| self.test_bin(g, c.kind, prefix[c.i], b))
    }

    /// The Lemma 5.2 primitive: smallest `b ≥ b0` admissible at position
    /// `j ≥ prefix.len()` given the already-fixed prefix (constraints to
    /// unassigned positions are ignored). Allocates nothing.
    fn next_value(
        &self,
        g: &ColoredGraph,
        prefix: &[Vertex],
        j: usize,
        b0: Vertex,
    ) -> Option<Vertex> {
        if !self.active || (b0 as usize) >= g.n() {
            return None;
        }
        // The constraints from position j back into the prefix.
        let relevant = || self.fq.constraints_on(j).filter(|c| c.i < prefix.len());

        // Pick the tightest confining constraint: Eq ≻ Edge ≻ Le(min d).
        if let Some(c) = relevant().find(|c| c.kind == BinKind::Eq) {
            let cand = prefix[c.i];
            return (cand >= b0 && self.test_candidate(g, prefix, j, cand)).then_some(cand);
        }
        if let Some(c) = relevant().find(|c| c.kind == BinKind::Edge) {
            let ns = g.neighbors(prefix[c.i]);
            let start = ns.partition_point(|&w| w < b0);
            return ns[start..]
                .iter()
                .copied()
                .find(|&w| self.test_candidate(g, prefix, j, w));
        }
        let le_anchor = relevant()
            .filter_map(|c| match c.kind {
                BinKind::Le(d) => Some((d, c.i)),
                _ => None,
            })
            .min();
        if let Some((_, i)) = le_anchor {
            // Case II: candidates confined to the anchor's bag; scan its
            // sorted row from b0, as Case I scans a kernel row.
            let cover = self.cover.as_ref().expect("cover built for Le");
            let row = cover.bag(cover.bag_of(prefix[i])).verts;
            let start = row.partition_point(|&w| w < b0);
            return row[start..]
                .iter()
                .copied()
                .find(|&w| self.test_candidate(g, prefix, j, w));
        }

        let far = || relevant().filter(|c| c.kind.excluding());
        if far().next().is_some() {
            // Case I: the answer is in some anchor's kernel, or the SKIP
            // jump past all kernels. Only the anchors' bags matter; they
            // are sorted and deduplicated on the stack. Past `MAX_SET`
            // distinct bags the remaining far constraints stay filters in
            // `test_candidate`: they reject only candidates within their
            // radius of an anchor, and SKIP keeps to its table.
            let cover = self.cover.as_ref().expect("cover built for Gt");
            let kernels = self.kernels.as_ref().expect("kernels built for Gt");
            let mut set = BagIds::EMPTY;
            for c in far() {
                if !set.insert(cover.bag_of(prefix[c.i])) {
                    break;
                }
            }
            let bags = set.as_slice();
            let mut best: Option<Vertex> = None;
            let better = |best: &Option<Vertex>, w: Vertex| best.is_none_or(|b| w < b);

            for &x in bags {
                let kern = kernels.kernel(x);
                let start = kern.partition_point(|&w| w < b0);
                for &w in &kern[start..] {
                    if !better(&best, w) {
                        break;
                    }
                    if self.test_candidate(g, prefix, j, w) {
                        best = Some(w);
                        break;
                    }
                }
            }

            let sp = self.skips[j].as_ref().expect("skips built for Gt");
            let mut b = b0;
            while let Some(w) = sp.skip(kernels, b, bags) {
                if !better(&best, w) {
                    break;
                }
                if self.test_candidate(g, prefix, j, w) {
                    best = Some(w);
                    break;
                }
                // Only filter constraints (≠, ¬E) can reject here; their
                // total rejections are bounded, so this loop is short.
                match w.checked_add(1) {
                    Some(next) if (next as usize) < g.n() => b = next,
                    _ => break,
                }
            }
            return best;
        }

        // Only filters (≠ / ¬E) or no constraints: scan L_j.
        let list = &self.unary_lists[j];
        let start = list.partition_point(|&w| w < b0);
        list[start..]
            .iter()
            .copied()
            .find(|&w| self.test_candidate(g, prefix, j, w))
    }

    /// Can the prefix be extended to a full solution? (Necessary per-future
    /// -position check; prunes backtracking.)
    fn extendable(&self, g: &ColoredGraph, prefix: &[Vertex]) -> bool {
        (prefix.len()..self.fq.k).all(|m| self.next_value(g, prefix, m, 0).is_some())
    }

    /// Theorem 5.1 for this branch: the smallest solution `≥ from`, by
    /// lexicographic backtracking over `next_value`.
    pub(super) fn next_solution(&self, g: &ColoredGraph, from: &[Vertex]) -> Option<Vec<Vertex>> {
        if !self.active || (self.fq.k > 0 && g.n() == 0) {
            return None;
        }
        let mut prefix = Vec::with_capacity(self.fq.k);
        (self.fq.k == 0 || self.rec(g, from, &mut prefix, from[0], true)).then_some(prefix)
    }

    /// The smallest solution `> t`, where `t` is a solution of this
    /// branch, left in `prefix`: by definition `next_solution(g,
    /// lex_increment(t))`, but found by walking `j = k−1` down to 0 and
    /// searching for the next candidate `> t[j]` under the prefix `t[..j]`
    /// — so the usual step costs one `next_value` at the last position.
    pub(super) fn next_after(
        &self,
        g: &ColoredGraph,
        t: &[Vertex],
        prefix: &mut Vec<Vertex>,
    ) -> bool {
        (0..t.len()).rev().any(|j| {
            prefix.clear();
            prefix.extend_from_slice(&t[..j]);
            t[j].checked_add(1)
                .is_some_and(|lower| self.rec(g, t, prefix, lower, false))
        })
    }

    /// Extend `prefix` (length `j`) to a full solution, trying values
    /// `≥ lower` at position `j`. While `tight`, the prefix equals
    /// `from[..j]` and later positions start at `from`'s values; once it
    /// is not, they start at 0. On success `prefix` holds the solution;
    /// on failure it is back at length `j`.
    fn rec(
        &self,
        g: &ColoredGraph,
        from: &[Vertex],
        prefix: &mut Vec<Vertex>,
        lower: Vertex,
        tight: bool,
    ) -> bool {
        let j = prefix.len();
        let mut cand = self.next_value(g, prefix, j, lower);
        while let Some(b) = cand {
            prefix.push(b);
            if j + 1 == self.fq.k {
                return true;
            }
            let tight = tight && b == from[j];
            let lower = if tight { from[j + 1] } else { 0 };
            if (!self.extend_check || self.extendable(g, prefix))
                && self.rec(g, from, prefix, lower, tight)
            {
                return true;
            }
            prefix.pop();
            cand = b
                .checked_add(1)
                .and_then(|nb| self.next_value(g, prefix, j, nb));
        }
        false
    }
}
