//! Trie shape parameters: `d = ⌈n^ε⌉`, `h = ⌈1/ε⌉` (adjusted so that
//! `d^h ≥ n`), as fixed at the start of Section 3.1 of the paper.

/// Shape of a Storing-Theorem trie for keys in `[n]^k`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StoreParams {
    /// Key components range over `[0, n)`.
    pub n: u64,
    /// Key arity.
    pub k: usize,
    /// Branching degree `d = max(2, ⌈n^ε⌉)`.
    pub d: u32,
    /// Digits per key component; minimal with `d^h ≥ n`.
    pub h: u32,
}

impl StoreParams {
    /// Parameters for keys in `[n]^k` at accuracy `ε`.
    ///
    /// `d` is clamped to at least 2 so that small `n` still yields a
    /// branching trie, and `h` is the minimal digit count with `d^h ≥ n`
    /// (the paper's `⌈1/ε⌉` satisfies this for `d = ⌈n^ε⌉`; recomputing the
    /// minimum keeps the tree shallow when `ε` is very small).
    /// Panicking convenience; use [`StoreParams::try_new`] for untrusted
    /// parameters.
    pub fn new(n: u64, k: usize, epsilon: f64) -> Self {
        Self::try_new(n, k, epsilon).expect("invalid store parameters")
    }

    /// Fallible twin of [`StoreParams::new`]: rejects zero arity,
    /// non-positive or non-finite `ε`, and key spaces too wide to pack into
    /// 128 bits.
    pub fn try_new(n: u64, k: usize, epsilon: f64) -> Result<Self, crate::StoreError> {
        if k < 1 {
            return Err(crate::StoreError::ZeroArity);
        }
        if !(epsilon > 0.0 && epsilon.is_finite()) {
            return Err(crate::StoreError::BadEpsilon(epsilon));
        }
        if (k as u32) * (64 - n.max(1).leading_zeros().min(63)) > 120 {
            return Err(crate::StoreError::KeyTooWide { n, k });
        }
        let n_eff = n.max(1);
        let d = ((n_eff as f64).powf(epsilon).ceil() as u64).clamp(2, u32::MAX as u64) as u32;
        let mut h = 1u32;
        let mut pow = d as u128;
        while pow < n_eff as u128 {
            pow *= d as u128;
            h += 1;
        }
        Ok(StoreParams { n, k, d, h })
    }

    /// Check that `key` has arity `k` with every component in `[0, n)` —
    /// the precondition of the (debug-asserting) hot-path methods.
    pub fn validate_key(&self, key: &[u64]) -> Result<(), crate::StoreError> {
        if key.len() != self.k {
            return Err(crate::StoreError::WrongArity {
                expected: self.k,
                got: key.len(),
            });
        }
        if let Some(&component) = key.iter().find(|&&a| a >= self.n.max(1)) {
            return Err(crate::StoreError::KeyComponentOutOfRange {
                component,
                n: self.n,
            });
        }
        Ok(())
    }

    /// Parameters with an explicit degree (used by tests reproducing the
    /// paper's Figure 1 example exactly).
    pub fn with_degree(n: u64, k: usize, d: u32) -> Self {
        assert!(d >= 2);
        let mut h = 1u32;
        let mut pow = d as u128;
        while pow < n.max(1) as u128 {
            pow *= d as u128;
            h += 1;
        }
        StoreParams { n, k, d, h }
    }

    /// Total digits per key: `k·h`.
    #[inline]
    pub fn total_digits(&self) -> usize {
        self.k * self.h as usize
    }

    /// Decompose a key into its `k·h` digits, most significant first within
    /// each component (Algorithm 1, *Decomposition*).
    pub fn digits(&self, key: &[u64], out: &mut Vec<u32>) {
        debug_assert_eq!(key.len(), self.k);
        out.clear();
        for &a in key {
            debug_assert!(
                a < self.n.max(1),
                "key component {a} out of range [0,{})",
                self.n
            );
            let start = out.len();
            let mut a = a;
            for _ in 0..self.h {
                out.push((a % self.d as u64) as u32);
                a /= self.d as u64;
            }
            out[start..].reverse();
        }
    }

    /// Recompose digits into a key (inverse of [`Self::digits`]).
    pub fn key_from_digits(&self, digits: &[u32]) -> Vec<u64> {
        debug_assert_eq!(digits.len(), self.total_digits());
        let mut key = Vec::with_capacity(self.k);
        for comp in digits.chunks(self.h as usize) {
            let mut a = 0u64;
            for &dig in comp {
                a = a * self.d as u64 + dig as u64;
            }
            key.push(a);
        }
        key
    }

    /// Lexicographic increment of a key within `[n]^k`; `None` on overflow.
    pub fn increment(&self, key: &[u64]) -> Option<Vec<u64>> {
        let mut out = key.to_vec();
        for i in (0..self.k).rev() {
            if out[i] + 1 < self.n {
                out[i] += 1;
                return Some(out);
            }
            out[i] = 0;
        }
        None
    }

    /// Pack a key into a single `u128` as a base-`n` number. Packing is
    /// monotone w.r.t. the lexicographic order, so packed keys compare like
    /// tuples. Requires `n^k ≤ 2^128` (checked in [`Self::new`] via
    /// `k · ⌈log₂ n⌉ ≤ 120`).
    #[inline]
    pub fn pack(&self, key: &[u64]) -> u128 {
        debug_assert_eq!(key.len(), self.k);
        let n = self.n.max(1) as u128;
        let mut out = 0u128;
        for &a in key {
            debug_assert!((a as u128) < n);
            out = out * n + a as u128;
        }
        out
    }

    /// Inverse of [`Self::pack`].
    #[inline]
    pub fn unpack_into(&self, mut packed: u128, out: &mut [u64]) {
        debug_assert_eq!(out.len(), self.k);
        let n = self.n.max(1) as u128;
        for i in (0..self.k).rev() {
            out[i] = (packed % n) as u64;
            packed /= n;
        }
        debug_assert_eq!(packed, 0);
    }

    /// Inverse of [`Self::pack`], allocating.
    pub fn unpack(&self, packed: u128) -> Vec<u64> {
        let mut out = vec![0u64; self.k];
        self.unpack_into(packed, &mut out);
        out
    }

    /// Decompose a packed key into its `k·h` digits (stack-friendly; `buf`
    /// must have length ≥ [`Self::total_digits`]). Returns the digit count.
    #[inline]
    pub fn digits_packed(&self, packed: u128, buf: &mut [u32]) -> usize {
        let kh = self.total_digits();
        debug_assert!(buf.len() >= kh);
        let n = self.n.max(1) as u128;
        let d = self.d as u64;
        let mut rest = packed;
        for comp in (0..self.k).rev() {
            let mut a = (rest % n) as u64;
            rest /= n;
            let base = comp * self.h as usize;
            for j in (0..self.h as usize).rev() {
                buf[base + j] = (a % d) as u32;
                a /= d;
            }
        }
        kh
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_parameters() {
        // Paper Figure 1: n = 27, ε = 1/3 ⇒ d = 3, h = 3.
        let p = StoreParams::new(27, 1, 1.0 / 3.0);
        assert_eq!(p.d, 3);
        assert_eq!(p.h, 3);
        let mut d = Vec::new();
        p.digits(&[2], &mut d);
        assert_eq!(d, vec![0, 0, 2]);
        p.digits(&[5], &mut d);
        assert_eq!(d, vec![0, 1, 2]);
        p.digits(&[19], &mut d);
        assert_eq!(d, vec![2, 0, 1]);
        assert_eq!(p.key_from_digits(&[2, 2, 0]), vec![24]);
    }

    #[test]
    fn digits_roundtrip() {
        let p = StoreParams::new(1000, 3, 0.4);
        let key = vec![0, 999, 512];
        let mut d = Vec::new();
        p.digits(&key, &mut d);
        assert_eq!(d.len(), p.total_digits());
        assert_eq!(p.key_from_digits(&d), key);
    }

    #[test]
    fn small_n_is_safe() {
        for n in 0..5u64 {
            let p = StoreParams::new(n, 2, 0.5);
            assert!(p.d >= 2);
            assert!((p.d as u128).pow(p.h) >= n.max(1) as u128);
        }
    }

    #[test]
    fn increment_carries() {
        let p = StoreParams::new(3, 2, 0.5);
        assert_eq!(p.increment(&[0, 0]), Some(vec![0, 1]));
        assert_eq!(p.increment(&[0, 2]), Some(vec![1, 0]));
        assert_eq!(p.increment(&[2, 2]), None);
    }

    #[test]
    fn digit_order_is_lexicographic() {
        // The digit string order must agree with the numeric lexicographic
        // order on keys — this is what makes successor caching correct.
        let p = StoreParams::new(50, 2, 0.3);
        let keys = [[0u64, 49], [1, 0], [7, 7], [7, 8], [49, 0]];
        let mut digs: Vec<Vec<u32>> = Vec::new();
        for k in &keys {
            let mut d = Vec::new();
            p.digits(k, &mut d);
            digs.push(d);
        }
        for w in digs.windows(2) {
            assert!(w[0] < w[1]);
        }
    }
}
