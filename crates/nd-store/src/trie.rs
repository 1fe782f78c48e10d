//! The trie `T(f)` of the Storing Theorem with successor-caching leaf slots.
//!
//! Every inner node owns exactly `d` slots (the paper's `d+1` consecutive
//! registers, with the parent back-pointer stored out-of-band in the node
//! header). A slot is one of
//!
//! * `Child(c)` — the paper's `(1, R')` register pointing to a child node,
//! * `Val(v)` — the paper's `(1, f(ā))` register at leaf depth,
//! * `Next(b̄)` — the paper's `(0, b̄)` register: the prefix region below
//!   this slot contains no key, and `b̄` is the smallest domain key whose
//!   encoding has a prefix larger than this slot's (or `None`).
//!
//! The `Next` caches are what make `lookup` constant time *including* the
//! successor-on-miss answer; they are maintained by the `clean` procedure
//! (the paper's `Clean`/`Fill`/`Fill_Left`/`Fill_Right`, Algorithms 6–9)
//! after every insertion and removal. Removals deallocate empty nodes
//! bottom-up (`Cut`, Algorithm 12) using swap-removal with pointer fix-up —
//! the Rust rendition of the paper's "move the last array into the hole"
//! trick that keeps space `O(|Dom(f)| · n^ε)`.
//!
//! Keys are packed into a single `u128` (a base-`n` numeral, monotone in
//! the lexicographic order — see [`StoreParams::pack`]) so every register
//! is `Copy` and the whole structure is allocation-free on the hot paths;
//! this matches the paper's RAM model, where a tuple fits in O(1) machine
//! words.

use crate::params::StoreParams;

type NodeId = u32;
const ROOT: NodeId = 0;
const NO_PARENT: NodeId = u32::MAX;

/// Digit scratch: `k·h ≤ 128·4` is astronomically more than any practical
/// shape; 160 covers `k = 4, h = 40`.
const MAX_DIGITS: usize = 160;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Slot {
    /// No key below this slot; cached successor of the slot's prefix region
    /// (packed).
    Next(Option<u128>),
    /// Inner edge to a child node (depth `< k·h - 1` only).
    Child(NodeId),
    /// Key present (depth `k·h - 1` only); stored value.
    Val(u64),
}

impl Slot {
    #[inline]
    fn is_occupied(&self) -> bool {
        !matches!(self, Slot::Next(_))
    }
}

#[derive(Clone, Debug)]
struct Node {
    slots: Box<[Slot]>,
    parent: NodeId,
    parent_slot: u32,
}

impl Node {
    fn new(d: u32, parent: NodeId, parent_slot: u32) -> Self {
        Node {
            slots: vec![Slot::Next(None); d as usize].into_boxed_slice(),
            parent,
            parent_slot,
        }
    }
}

/// Result of a lookup: either the stored value, or — constant-time, thanks
/// to the `Next` caches — the smallest domain key strictly greater than the
/// probe.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Lookup {
    /// Key is in the domain; its value.
    Found(u64),
    /// Key absent; the smallest domain key `> probe`, if any.
    Missing(Option<Vec<u64>>),
}

/// Allocation-free lookup result over packed keys.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LookupPacked {
    Found(u64),
    Missing(Option<u128>),
}

/// A partial `k`-ary function `f : [n]^k ⇀ u64` stored as the Theorem 3.1
/// trie. See the crate docs for the complexity contract.
#[derive(Clone)]
pub struct FnStore {
    params: StoreParams,
    nodes: Vec<Node>,
    len: usize,
}

impl FnStore {
    /// An empty function (Algorithm 3, *Init*).
    pub fn new(params: StoreParams) -> Self {
        FnStore {
            nodes: vec![Node::new(params.d, NO_PARENT, 0)],
            params,
            len: 0,
        }
    }

    /// Build from `(key, value)` pairs.
    pub fn from_pairs<'a>(
        params: StoreParams,
        pairs: impl IntoIterator<Item = (&'a [u64], u64)>,
    ) -> Self {
        let mut s = Self::new(params);
        for (k, v) in pairs {
            s.insert(k, v);
        }
        s
    }

    pub fn params(&self) -> &StoreParams {
        &self.params
    }

    /// `|Dom(f)|`.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of registers used (space accounting of Theorem 3.1: `d+1` per
    /// node).
    pub fn registers(&self) -> usize {
        self.nodes.len() * (self.params.d as usize + 1)
    }

    /// Lookup (Algorithm 2, *Access*) over a packed key. `O(k·h)` —
    /// constant for fixed `k`, `ε` — and allocation-free.
    #[inline]
    pub fn lookup_packed(&self, packed: u128) -> LookupPacked {
        let mut buf = [0u32; MAX_DIGITS];
        let kh = self.params.digits_packed(packed, &mut buf);
        let mut node = ROOT;
        for &dig in &buf[..kh] {
            match self.nodes[node as usize].slots[dig as usize] {
                Slot::Child(c) => node = c,
                Slot::Val(v) => return LookupPacked::Found(v),
                Slot::Next(nk) => return LookupPacked::Missing(nk),
            }
        }
        unreachable!("walk must terminate in a Val or Next slot");
    }

    /// Lookup with tuple in/out (convenience wrapper).
    pub fn lookup(&self, key: &[u64]) -> Lookup {
        match self.lookup_packed(self.params.pack(key)) {
            LookupPacked::Found(v) => Lookup::Found(v),
            LookupPacked::Missing(nk) => Lookup::Missing(nk.map(|p| self.params.unpack(p))),
        }
    }

    /// Smallest domain key `≥ key` (packed). Constant time, allocation-free.
    #[inline]
    pub fn successor_inclusive_packed(&self, packed: u128) -> Option<u128> {
        match self.lookup_packed(packed) {
            LookupPacked::Found(_) => Some(packed),
            LookupPacked::Missing(nk) => nk,
        }
    }

    /// Smallest domain key `≥ key`. Constant time.
    pub fn successor_inclusive(&self, key: &[u64]) -> Option<Vec<u64>> {
        self.successor_inclusive_packed(self.params.pack(key))
            .map(|p| self.params.unpack(p))
    }

    /// Smallest domain key `> key`. Constant time.
    pub fn successor_strict(&self, key: &[u64]) -> Option<Vec<u64>> {
        let next = self.params.increment(key)?;
        self.successor_inclusive(&next)
    }

    /// Largest domain key `< key` (packed). `O(d·k·h) = O(n^ε)`
    /// backtracking walk (the paper uses a mirrored dual trie; see crate
    /// docs).
    pub fn predecessor_strict_packed(&self, packed: u128) -> Option<u128> {
        let mut buf = [0u32; MAX_DIGITS];
        let kh = self.params.digits_packed(packed, &mut buf);
        // Walk as deep as the path exists, recording (node, digit).
        let mut path: [(NodeId, u32); MAX_DIGITS] = [(0, 0); MAX_DIGITS];
        let mut depth = 0usize;
        let mut node = ROOT;
        for &dig in &buf[..kh] {
            path[depth] = (node, dig);
            depth += 1;
            match self.nodes[node as usize].slots[dig as usize] {
                Slot::Child(c) => node = c,
                _ => break,
            }
        }
        // Backtrack: deepest level with an occupied lower slot wins.
        for level in (0..depth).rev() {
            let (nd, dig) = path[level];
            for idx in (0..dig).rev() {
                match self.nodes[nd as usize].slots[idx as usize] {
                    Slot::Val(_) => {
                        let mut digs = buf[..level].to_vec();
                        digs.push(idx);
                        return Some(self.key_of_digits(&digs));
                    }
                    Slot::Child(c) => {
                        let mut digs = buf[..level].to_vec();
                        digs.push(idx);
                        return Some(self.max_key_in(c, digs));
                    }
                    Slot::Next(_) => {}
                }
            }
        }
        None
    }

    /// Largest domain key `< key`. `O(n^ε)`.
    pub fn predecessor_strict(&self, key: &[u64]) -> Option<Vec<u64>> {
        self.predecessor_strict_packed(self.params.pack(key))
            .map(|p| self.params.unpack(p))
    }

    /// Recompose a partial digit string (padded with the largest suffix by
    /// the caller) into a packed key.
    fn key_of_digits(&self, digs: &[u32]) -> u128 {
        debug_assert_eq!(digs.len(), self.params.total_digits());
        let h = self.params.h as usize;
        let n = self.params.n.max(1) as u128;
        let d = self.params.d as u128;
        let mut out = 0u128;
        for comp in digs.chunks(h) {
            let mut a = 0u128;
            for &dig in comp {
                a = a * d + dig as u128;
            }
            out = out * n + a;
        }
        out
    }

    /// Largest key in the subtree rooted at `node`, whose prefix digits are
    /// `prefix`.
    fn max_key_in(&self, mut node: NodeId, mut prefix: Vec<u32>) -> u128 {
        loop {
            let nref = &self.nodes[node as usize];
            let idx = (0..nref.slots.len())
                .rev()
                .find(|&i| nref.slots[i].is_occupied())
                .expect("non-root node must have an occupied slot");
            prefix.push(idx as u32);
            match nref.slots[idx] {
                Slot::Val(_) => return self.key_of_digits(&prefix),
                Slot::Child(c) => node = c,
                Slot::Next(_) => unreachable!(),
            }
        }
    }

    /// Insert / overwrite (Algorithm 4, *Add*). Returns the previous value
    /// if the key was present. `O(d·k·h) = O(n^ε)`.
    pub fn insert(&mut self, key: &[u64], val: u64) -> Option<u64> {
        assert_eq!(key.len(), self.params.k, "key arity mismatch");
        let packed = self.params.pack(key);
        let mut buf = [0u32; MAX_DIGITS];
        let kh = self.params.digits_packed(packed, &mut buf);

        // Fast path: key already present — overwrite in place, no cleaning.
        if let LookupPacked::Found(old) = self.lookup_packed(packed) {
            let mut node = ROOT;
            for &dig in &buf[..kh - 1] {
                match self.nodes[node as usize].slots[dig as usize] {
                    Slot::Child(c) => node = c,
                    _ => unreachable!(),
                }
            }
            self.nodes[node as usize].slots[buf[kh - 1] as usize] = Slot::Val(val);
            return Some(old);
        }

        let pred = self.predecessor_strict_packed(packed);
        let succ = self.successor_inclusive_packed(packed); // key absent ⇒ strict

        // Insert the search path (Algorithm 5, *Insert*): create missing
        // inner nodes top-down; new slots start as placeholders fixed by
        // the Clean calls below.
        let mut node = ROOT;
        for &dig in &buf[..kh - 1] {
            node = match self.nodes[node as usize].slots[dig as usize] {
                Slot::Child(c) => c,
                Slot::Next(_) => {
                    let new_id = self.nodes.len() as NodeId;
                    self.nodes.push(Node::new(self.params.d, node, dig));
                    self.nodes[node as usize].slots[dig as usize] = Slot::Child(new_id);
                    new_id
                }
                Slot::Val(_) => unreachable!("Val above leaf depth"),
            };
        }
        self.nodes[node as usize].slots[buf[kh - 1] as usize] = Slot::Val(val);
        self.len += 1;

        // Clean(ā_<, ā) and Clean(ā, ā_>) — Algorithm 6.
        self.clean(pred, Some(packed));
        self.clean(Some(packed), succ);
        None
    }

    /// Remove (Algorithm 10, *Remove*). Returns the removed value.
    /// `O(d·k·h) = O(n^ε)`.
    pub fn remove(&mut self, key: &[u64]) -> Option<u64> {
        assert_eq!(key.len(), self.params.k, "key arity mismatch");
        let packed = self.params.pack(key);
        let mut buf = [0u32; MAX_DIGITS];
        let kh = self.params.digits_packed(packed, &mut buf);

        // Locate the leaf node (Algorithm 11, *Run*), bailing if absent.
        let mut node = ROOT;
        for &dig in &buf[..kh - 1] {
            match self.nodes[node as usize].slots[dig as usize] {
                Slot::Child(c) => node = c,
                _ => return None,
            }
        }
        let leaf_slot = buf[kh - 1] as usize;
        let old = match self.nodes[node as usize].slots[leaf_slot] {
            Slot::Val(v) => v,
            _ => return None,
        };

        let pred = self.predecessor_strict_packed(packed);
        let succ = {
            // Strict successor: temporarily treat the key as absent is not
            // needed — compute from the increment.
            match self.params.increment(key) {
                Some(next) => self.successor_inclusive_packed(self.params.pack(&next)),
                None => None,
            }
        };

        self.nodes[node as usize].slots[leaf_slot] = Slot::Next(succ);
        self.len -= 1;

        // Cut (Algorithm 12): free now-empty nodes bottom-up, reusing the
        // freed arena slots via swap-removal.
        let mut nd = node;
        while nd != ROOT && !self.nodes[nd as usize].slots.iter().any(Slot::is_occupied) {
            let mut parent = self.nodes[nd as usize].parent;
            let pslot = self.nodes[nd as usize].parent_slot as usize;
            self.nodes[parent as usize].slots[pslot] = Slot::Next(succ);

            let moved_from = (self.nodes.len() - 1) as NodeId;
            self.nodes.swap_remove(nd as usize);
            if nd != moved_from {
                // The node formerly at index `moved_from` now lives at `nd`:
                // repair its parent's child pointer and its children's
                // parent back-pointers.
                let (mp, mps) = {
                    let m = &self.nodes[nd as usize];
                    (m.parent, m.parent_slot as usize)
                };
                debug_assert_ne!(mp, NO_PARENT, "root is never relocated");
                self.nodes[mp as usize].slots[mps] = Slot::Child(nd);
                let child_ids: Vec<NodeId> = self.nodes[nd as usize]
                    .slots
                    .iter()
                    .filter_map(|s| match s {
                        Slot::Child(c) => Some(*c),
                        _ => None,
                    })
                    .collect();
                for c in child_ids {
                    self.nodes[c as usize].parent = nd;
                }
                if parent == moved_from {
                    parent = nd;
                }
            }
            nd = parent;
        }

        self.clean(pred, succ);
        Some(old)
    }

    /// All `(key, value)` pairs in increasing key order (test/debug helper;
    /// linear in the output).
    pub fn iter(&self) -> Vec<(Vec<u64>, u64)> {
        let mut out = Vec::with_capacity(self.len);
        let mut prefix = Vec::new();
        self.dfs(ROOT, &mut prefix, &mut out);
        out
    }

    fn dfs(&self, node: NodeId, prefix: &mut Vec<u32>, out: &mut Vec<(Vec<u64>, u64)>) {
        for (idx, slot) in self.nodes[node as usize].slots.iter().enumerate() {
            match slot {
                Slot::Next(_) => {}
                Slot::Val(v) => {
                    prefix.push(idx as u32);
                    out.push((self.params.unpack(self.key_of_digits(prefix)), *v));
                    prefix.pop();
                }
                Slot::Child(c) => {
                    prefix.push(idx as u32);
                    self.dfs(*c, prefix, out);
                    prefix.pop();
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Clean (Algorithms 6–9): repair the successor caches of all leaf
    // slots strictly between the paths of `left` and `right`, pointing
    // them at `right`.
    // ------------------------------------------------------------------

    fn clean(&mut self, left: Option<u128>, right: Option<u128>) {
        let mut lbuf = [0u32; MAX_DIGITS];
        let mut rbuf = [0u32; MAX_DIGITS];
        match (left, right) {
            (None, None) => {
                // Domain is empty: only the root remains (Cut guarantees
                // this); reset every slot.
                debug_assert_eq!(self.len, 0);
                for slot in self.nodes[ROOT as usize].slots.iter_mut() {
                    debug_assert!(!slot.is_occupied());
                    *slot = Slot::Next(None);
                }
            }
            (None, Some(r)) => {
                let kh = self.params.digits_packed(r, &mut rbuf);
                self.fill_left(ROOT, 0, &rbuf[..kh], Some(r));
            }
            (Some(l), None) => {
                let kh = self.params.digits_packed(l, &mut lbuf);
                self.fill_right(ROOT, 0, &lbuf[..kh], None);
            }
            (Some(l), Some(r)) => {
                let kh = self.params.digits_packed(l, &mut lbuf);
                self.params.digits_packed(r, &mut rbuf);
                self.fill_between(&lbuf[..kh], &rbuf[..kh], r);
            }
        }
    }

    #[inline]
    fn set_next(&mut self, node: NodeId, idx: usize, target: Option<u128>) {
        let slot = &mut self.nodes[node as usize].slots[idx];
        debug_assert!(
            !slot.is_occupied(),
            "clean must only touch empty regions (node {node}, slot {idx})"
        );
        *slot = Slot::Next(target);
    }

    fn child_at(&self, node: NodeId, idx: usize) -> NodeId {
        match self.nodes[node as usize].slots[idx] {
            Slot::Child(c) => c,
            other => panic!("expected Child on cleaned path, found {other:?}"),
        }
    }

    /// Algorithm 8, *Fill_Left*: along the path `digs[depth..]` starting at
    /// `node`, set every slot strictly left of the path to `target`.
    fn fill_left(
        &mut self,
        mut node: NodeId,
        mut depth: usize,
        digs: &[u32],
        target: Option<u128>,
    ) {
        let kh = digs.len();
        loop {
            let dig = digs[depth] as usize;
            for idx in 0..dig {
                self.set_next(node, idx, target);
            }
            if depth + 1 >= kh {
                return;
            }
            node = self.child_at(node, dig);
            depth += 1;
        }
    }

    /// Algorithm 7, *Fill_Right*: along the path `digs[depth..]` starting at
    /// `node`, set every slot strictly right of the path to `target`.
    fn fill_right(
        &mut self,
        mut node: NodeId,
        mut depth: usize,
        digs: &[u32],
        target: Option<u128>,
    ) {
        let kh = digs.len();
        let d = self.params.d as usize;
        loop {
            let dig = digs[depth] as usize;
            for idx in (dig + 1)..d {
                self.set_next(node, idx, target);
            }
            if depth + 1 >= kh {
                return;
            }
            node = self.child_at(node, dig);
            depth += 1;
        }
    }

    /// Algorithm 9, *Fill*: set every leaf slot strictly between the two
    /// paths to `target` (= the right key).
    fn fill_between(&mut self, ld: &[u32], rd: &[u32], right: u128) {
        debug_assert!(ld < rd, "clean bounds must be ordered");
        let kh = ld.len();
        let mut node = ROOT;
        let mut depth = 0;
        while ld[depth] == rd[depth] {
            node = self.child_at(node, ld[depth] as usize);
            depth += 1;
            debug_assert!(depth < kh, "distinct keys must diverge");
        }
        let (ldig, rdig) = (ld[depth] as usize, rd[depth] as usize);
        for idx in (ldig + 1)..rdig {
            self.set_next(node, idx, Some(right));
        }
        if depth + 1 < kh {
            let lchild = self.child_at(node, ldig);
            self.fill_right(lchild, depth + 1, ld, Some(right));
            let rchild = self.child_at(node, rdig);
            self.fill_left(rchild, depth + 1, rd, Some(right));
        }
    }

    /// Render the register layout in the style of the paper's Figure 1:
    /// node `i` occupies registers `R_{i(d+1)+1} … R_{(i+1)(d+1)}`, the last
    /// being the parent back-pointer `(-1, ·)`. For documentation and the
    /// `storing_trie` example.
    pub fn registers_dump(&self) -> Vec<String> {
        let d = self.params.d as usize;
        let reg_of = |node: usize, slot: usize| node * (d + 1) + 1 + slot;
        let mut out = Vec::new();
        out.push(format!(
            "R0: next free register = {}",
            self.nodes.len() * (d + 1) + 1
        ));
        for (i, node) in self.nodes.iter().enumerate() {
            for (s, slot) in node.slots.iter().enumerate() {
                let desc = match slot {
                    Slot::Next(None) => "(0, Null)".to_string(),
                    Slot::Next(Some(p)) => {
                        format!("(0, {:?})", self.params.unpack(*p))
                    }
                    Slot::Child(c) => format!("(1, R{})", reg_of(*c as usize, 0)),
                    Slot::Val(v) => format!("(1, {v})"),
                };
                out.push(format!("R{}: {desc}", reg_of(i, s)));
            }
            let parent = if node.parent == NO_PARENT {
                "(-1, Null)".to_string()
            } else {
                format!(
                    "(-1, R{})",
                    reg_of(node.parent as usize, node.parent_slot as usize)
                )
            };
            out.push(format!("R{}: {parent}", reg_of(i, d)));
        }
        out
    }

    // ------------------------------------------------------------------
    // Debug invariant checking (used by property tests).
    // ------------------------------------------------------------------

    /// Exhaustively verify the structural invariants: parent pointers,
    /// occupied-node liveness, and every `Next` cache agreeing with the true
    /// successor of its prefix region. Cost `O(nodes · d)` — tests only.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        let pairs = self.iter();
        assert_eq!(pairs.len(), self.len, "len mismatch");
        let keys: Vec<Vec<u64>> = pairs.into_iter().map(|(k, _)| k).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "iter not sorted");
        self.check_node(ROOT, &mut Vec::new(), &keys);
        // Every non-root node must be reachable and occupied: count them.
        let mut reachable = 1usize;
        let mut stack = vec![ROOT];
        while let Some(nd) = stack.pop() {
            for (idx, slot) in self.nodes[nd as usize].slots.iter().enumerate() {
                if let Slot::Child(c) = slot {
                    reachable += 1;
                    assert_eq!(self.nodes[*c as usize].parent, nd, "parent pointer");
                    assert_eq!(
                        self.nodes[*c as usize].parent_slot as usize, idx,
                        "parent slot"
                    );
                    assert!(
                        self.nodes[*c as usize].slots.iter().any(Slot::is_occupied)
                            || self.len == 0,
                        "non-root node with no occupied slot survived Cut"
                    );
                    stack.push(*c);
                }
            }
        }
        assert_eq!(reachable, self.nodes.len(), "arena leak: unreachable nodes");
    }

    fn check_node(&self, node: NodeId, prefix: &mut Vec<u32>, keys: &[Vec<u64>]) {
        let kh = self.params.total_digits();
        let mut buf = [0u32; MAX_DIGITS];
        for (idx, slot) in self.nodes[node as usize].slots.iter().enumerate() {
            prefix.push(idx as u32);
            match slot {
                Slot::Child(c) => self.check_node(*c, prefix, keys),
                Slot::Val(_) => assert_eq!(prefix.len(), kh, "Val above leaf depth"),
                Slot::Next(cached) => {
                    // True successor of the region: smallest key whose digit
                    // prefix is strictly greater than `prefix`.
                    let expected = keys.iter().find(|k| {
                        let packed = self.params.pack(k);
                        let n = self.params.digits_packed(packed, &mut buf);
                        buf[..prefix.len().min(n)] > prefix[..]
                    });
                    let cached_vec = cached.map(|p| self.params.unpack(p));
                    assert_eq!(
                        cached_vec,
                        expected.cloned(),
                        "stale Next cache at prefix {prefix:?}"
                    );
                }
            }
            prefix.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params_small() -> StoreParams {
        StoreParams::new(27, 1, 1.0 / 3.0)
    }

    /// The worked example of the paper's Figure 1: `n = 27`, `ε = 1/3`,
    /// domain `{2, 4, 5, 19, 24, 25}`, identity values.
    fn figure1_store() -> FnStore {
        let mut s = FnStore::new(params_small());
        for k in [2u64, 4, 5, 19, 24, 25] {
            s.insert(&[k], k);
        }
        s
    }

    #[test]
    fn figure1_example() {
        let s = figure1_store();
        assert_eq!(s.len(), 6);
        assert_eq!(s.lookup(&[5]), Lookup::Found(5));
        assert_eq!(s.lookup(&[19]), Lookup::Found(19));
        // Misses return the successor, as the (0, b̄) registers encode.
        assert_eq!(s.lookup(&[3]), Lookup::Missing(Some(vec![4])));
        assert_eq!(s.lookup(&[6]), Lookup::Missing(Some(vec![19])));
        assert_eq!(s.lookup(&[0]), Lookup::Missing(Some(vec![2])));
        assert_eq!(s.lookup(&[26]), Lookup::Missing(None));
        s.check_invariants();
    }

    #[test]
    fn figure1_removal_of_19() {
        // The appendix walks through removing 19: its subtree is cut and
        // the caches between 5 and 24 now point at 24.
        let mut s = figure1_store();
        let regs_before = s.registers();
        assert_eq!(s.remove(&[19]), Some(19));
        assert!(s.registers() < regs_before, "Cut must free the subtree");
        assert_eq!(s.lookup(&[19]), Lookup::Missing(Some(vec![24])));
        assert_eq!(s.lookup(&[6]), Lookup::Missing(Some(vec![24])));
        assert_eq!(s.lookup(&[5]), Lookup::Found(5));
        s.check_invariants();
    }

    #[test]
    fn insert_remove_all() {
        let mut s = figure1_store();
        for k in [2u64, 4, 5, 19, 24, 25] {
            assert_eq!(s.remove(&[k]), Some(k));
            s.check_invariants();
        }
        assert!(s.is_empty());
        assert_eq!(s.lookup(&[0]), Lookup::Missing(None));
        // Arena shrank back to just the root.
        assert_eq!(s.registers(), params_small().d as usize + 1);
    }

    #[test]
    fn overwrite_value() {
        let mut s = FnStore::new(StoreParams::new(100, 1, 0.5));
        assert_eq!(s.insert(&[7], 1), None);
        assert_eq!(s.insert(&[7], 2), Some(1));
        assert_eq!(s.lookup(&[7]), Lookup::Found(2));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn binary_keys() {
        let p = StoreParams::new(64, 2, 0.34);
        let mut s = FnStore::new(p);
        s.insert(&[3, 40], 1);
        s.insert(&[3, 41], 2);
        s.insert(&[10, 0], 3);
        assert_eq!(s.lookup(&[3, 40]), Lookup::Found(1));
        assert_eq!(s.lookup(&[3, 42]), Lookup::Missing(Some(vec![10, 0])));
        assert_eq!(s.lookup(&[0, 63]), Lookup::Missing(Some(vec![3, 40])));
        assert_eq!(s.successor_strict(&[3, 40]), Some(vec![3, 41]));
        assert_eq!(s.predecessor_strict(&[10, 0]), Some(vec![3, 41]));
        assert_eq!(s.predecessor_strict(&[3, 40]), None);
        s.check_invariants();
    }

    #[test]
    fn packed_api_roundtrip() {
        let p = StoreParams::new(50, 2, 0.4);
        let mut s = FnStore::new(p);
        s.insert(&[7, 8], 78);
        let packed = p.pack(&[7, 8]);
        assert_eq!(s.lookup_packed(packed), LookupPacked::Found(78));
        assert_eq!(s.successor_inclusive_packed(p.pack(&[7, 0])), Some(packed));
        assert_eq!(p.unpack(packed), vec![7, 8]);
    }

    #[test]
    fn kh_equals_one_degenerate_tree() {
        // n ≤ d: the root is the leaf level.
        let p = StoreParams::new(4, 1, 1.0); // d = 4, h = 1
        assert_eq!(p.total_digits(), 1);
        let mut s = FnStore::new(p);
        s.insert(&[2], 20);
        s.insert(&[0], 0);
        assert_eq!(s.lookup(&[1]), Lookup::Missing(Some(vec![2])));
        s.remove(&[2]);
        assert_eq!(s.lookup(&[1]), Lookup::Missing(None));
        s.check_invariants();
    }

    #[test]
    fn iter_sorted() {
        let mut s = FnStore::new(StoreParams::new(1000, 1, 0.3));
        for k in [981u64, 5, 500, 0, 999, 17] {
            s.insert(&[k], k * 10);
        }
        let got: Vec<u64> = s.iter().into_iter().map(|(k, _)| k[0]).collect();
        assert_eq!(got, vec![0, 5, 17, 500, 981, 999]);
    }

    #[test]
    fn dense_then_sparse_cycle() {
        let p = StoreParams::new(50, 1, 0.45);
        let mut s = FnStore::new(p);
        for k in 0..50u64 {
            s.insert(&[k], k);
        }
        s.check_invariants();
        for k in (0..50u64).filter(|k| k % 2 == 0) {
            s.remove(&[k]);
        }
        s.check_invariants();
        assert_eq!(s.len(), 25);
        assert_eq!(s.lookup(&[0]), Lookup::Missing(Some(vec![1])));
        assert_eq!(s.lookup(&[48]), Lookup::Missing(Some(vec![49])));
        for k in (0..50u64).filter(|k| k % 2 == 1) {
            s.remove(&[k]);
        }
        assert!(s.is_empty());
        s.check_invariants();
    }
}
