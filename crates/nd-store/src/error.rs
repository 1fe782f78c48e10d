//! Typed errors for Storing-Theorem structures.

use std::fmt;

/// Errors raised when constructing trie parameters.
#[derive(Clone, Debug, PartialEq)]
pub enum StoreError {
    /// Key arity `k` must be at least 1.
    ZeroArity,
    /// `ε` must be a finite positive real.
    BadEpsilon(f64),
    /// Keys in `[n]^k` must pack into 128 bits (`k · ⌈log₂ n⌉ ≤ 120`).
    KeyTooWide { n: u64, k: usize },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::ZeroArity => write!(f, "key arity must be positive"),
            StoreError::BadEpsilon(e) => {
                write!(f, "epsilon must be a finite positive real, got {e}")
            }
            StoreError::KeyTooWide { n, k } => write!(
                f,
                "keys in [{n}]^{k} do not pack into 128 bits (k·log2(n) too large)"
            ),
        }
    }
}

impl std::error::Error for StoreError {}
