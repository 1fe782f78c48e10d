//! The radix directory over a sorted arena of packed keys.
//!
//! Bucket `b = key >> shift` covers the keys at global positions
//! `dir[b] .. dir[b + 1]`, with the bucket count sized to the arena (one
//! to two keys per bucket). A probe reads two offsets and binary-searches
//! about one key; because the offsets are global, the insertion point it
//! finds is also the global successor position, even when the probe's own
//! bucket is empty. The cover's bag rows, read in bag-major order, are
//! such an arena (see the crate docs).

/// Hard ceiling on directory buckets (2²² ⇒ ≤ 16 MiB of `u32` offsets),
/// so pathological `n^k` spans cannot balloon the directory.
const MAX_DIR_BITS: u32 = 22;

/// Shape of the canonical radix directory over `len` keys drawn from
/// `[0, span)`: the bucket shift and the directory length (bucket count
/// plus one). One bucket per one to two keys, and at most
/// `2^MAX_DIR_BITS` buckets.
pub(crate) fn radix_dir_shape(span: u128, len: usize) -> (u32, usize) {
    let top = span.max(1) - 1;
    let span_bits = 128 - top.leading_zeros();
    let want_bits = usize::BITS - len.max(1).leading_zeros() - 1;
    let dir_bits = want_bits.min(span_bits).min(MAX_DIR_BITS);
    let shift = span_bits - dir_bits;
    (shift, ((top >> shift) as usize) + 2)
}

/// The canonical radix directory over `len` strictly increasing keys in
/// `[0, span)`, shaped by [`radix_dir_shape`]: bucket `b = key >> shift`
/// holds the keys at global positions `dir[b] .. dir[b + 1]`. A pure
/// function of the key sequence, so it is also the serialized form of
/// the cover's directory.
pub(crate) fn radix_dir(
    span: u128,
    len: usize,
    keys: impl IntoIterator<Item = u128>,
) -> (u32, Vec<u32>) {
    let (shift, dir_len) = radix_dir_shape(span, len);
    let mut dir = vec![0u32; dir_len];
    for p in keys {
        dir[((p >> shift) as usize) + 1] += 1;
    }
    for b in 1..dir_len {
        dir[b] += dir[b - 1];
    }
    (shift, dir)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The directory invariants over `keys` (strictly increasing, below
    /// `span`): offsets start at 0, never decrease and end at the key
    /// count, and every key lies in its own bucket's range.
    fn check(span: u128, keys: &[u128]) -> (u32, Vec<u32>) {
        let (shift, dir) = radix_dir(span, keys.len(), keys.iter().copied());
        assert_eq!(
            (shift, dir.len()),
            radix_dir_shape(span, keys.len()),
            "directory built to another shape"
        );
        assert_eq!(dir[0], 0, "directory must start at 0");
        assert_eq!(*dir.last().unwrap() as usize, keys.len(), "must end at len");
        assert!(dir.windows(2).all(|w| w[0] <= w[1]), "offsets decrease");
        for (i, &p) in keys.iter().enumerate() {
            let b = (p >> shift) as usize;
            assert!(b + 1 < dir.len(), "bucket of key {p} out of range");
            assert!(
                (dir[b] as usize..dir[b + 1] as usize).contains(&i),
                "key {p} at {i} outside its bucket {b}"
            );
        }
        (shift, dir)
    }

    #[test]
    fn no_keys_and_a_single_key() {
        assert_eq!(check(1, &[]), (0, vec![0, 0]));
        assert_eq!(check(1000, &[]).1, vec![0, 0]);
        let (shift, dir) = check(10, &[7]);
        assert_eq!((shift, dir), (4, vec![0, 1]));
    }

    #[test]
    fn every_key_lies_in_its_bucket() {
        for (span, step, offset) in [
            (1u128 << 12, 7u128, 3u128),
            (4096 * 3 + 5, 11, 0),
            (1 << 40, (1 << 40) / 1000 + 1, 5),
            (999_983, 1, 0),
        ] {
            let keys: Vec<u128> = (0..)
                .map(|i| offset + i * step)
                .take_while(|&p| p < span)
                .take(5000)
                .collect();
            check(span, &keys);
        }
    }

    #[test]
    fn one_to_two_keys_per_bucket() {
        for len in [1usize, 2, 3, 5, 100, 1023, 1024, 1025, 70_000] {
            // A power-of-two span fills every bucket's key range.
            let (_, dir_len) = radix_dir_shape(1 << 50, len);
            let buckets = dir_len - 1;
            assert!(buckets <= len && len < 2 * buckets, "len {len}: {buckets}");
            // Any other span cuts the last bucket short.
            let (_, dir_len) = radix_dir_shape((1 << 50) + 1, len);
            let buckets = dir_len - 1;
            assert!(
                buckets <= len + 1 && len < 4 * buckets,
                "len {len}: {buckets}"
            );
        }
    }

    #[test]
    fn bucket_bits_are_capped() {
        // Shape only: a 2^60 span with 2^30 keys asks for 2^30 buckets.
        let (shift, dir_len) = radix_dir_shape(1 << 60, 1 << 30);
        assert_eq!(shift, 60 - MAX_DIR_BITS);
        assert_eq!(dir_len, (1 << MAX_DIR_BITS) + 1);
    }

    #[test]
    fn span_smaller_than_the_key_count() {
        // More keys asked for than the span holds: one bucket per key value.
        assert_eq!(radix_dir_shape(8, 1000), (0, 9));
        assert_eq!(radix_dir_shape(5, 64), (0, 6));
        // The span filled: every bucket holds exactly its one key.
        let keys: Vec<u128> = (0..8).collect();
        let (shift, dir) = check(8, &keys);
        assert_eq!(shift, 0);
        assert_eq!(dir, (0..=8).collect::<Vec<u32>>());
    }
}
