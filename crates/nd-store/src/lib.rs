//! The **Storing Theorem** data structure (Theorem 3.1 of the paper, proofs
//! in its Section 7 appendix).
//!
//! Stores a partial `k`-ary function `f : [n]^k ⇀ u64` such that, for a fixed
//! `ε > 0`:
//!
//! * initialization costs `O(|Dom(f)| · n^ε)`,
//! * inserting or removing a single pair costs `O(n^ε)`,
//! * **lookup is constant time**, and on a miss returns the smallest key of
//!   the domain that is strictly larger than the probe (lexicographically) —
//!   the "lookup-or-successor" semantics that drives the skip pointers and
//!   the answering phase of Section 5,
//! * space is `O(|Dom(f)| · n^ε)` at all times.
//!
//! The structure is the paper's trie `T(f)`: keys are decomposed in base
//! `d = ⌈n^ε⌉` into strings of length `k·h` with `h = ⌈1/ε⌉`, every inner
//! node has exactly `d` slots, and every slot that does *not* lead to a key
//! caches the successor key of its prefix region (the `(0, b̄)` registers of
//! Figure 1). Removals shrink the arena via the paper's copy-the-last-array
//! trick (here: `swap_remove` with pointer fix-up), keeping space
//! proportional to the live domain.
//!
//! One documented deviation: the paper obtains predecessor keys (needed
//! during updates) from a mirrored dual trie; we instead run an
//! `O(d·k·h) = O(n^ε)` backtracking walk, which stays within the update
//! budget and avoids doubling the space.

mod error;
mod params;
mod trie;

pub use error::StoreError;
pub use params::StoreParams;
pub use trie::{FnStore, Lookup, LookupPacked};
