//! Crash-safe binary persistence primitives for the nowhere-dense index.
//!
//! The on-disk container is deliberately dumb (DESIGN.md §9):
//!
//! ```text
//! magic [8]  version u32  section_count u32
//! section*:  tag [4]  len u64  crc32 u32  payload [len]
//! ```
//!
//! Every multi-byte integer is little-endian. Each section carries its own
//! CRC-32 (IEEE), so a single flipped bit anywhere in a payload is caught
//! before any decoder runs, and truncation is caught by the length framing.
//! Decoding never panics on hostile bytes: every read is bounds-checked and
//! returns a typed [`PersistError`].
//!
//! Files are replaced atomically: write to a sibling temp file, `fsync`,
//! `rename` over the target, then best-effort `fsync` the directory — a
//! crash at any point leaves either the old file or the new one, never a
//! torn hybrid.

use std::fmt;
use std::io::Write as _;
use std::path::Path;

pub mod mmap;

pub use mmap::{DeferredVerify, MmapFile, Pod, Slab, SlabCtx, VerifyPolicy};

/// First 8 bytes of every index file.
pub const MAGIC: [u8; 8] = *b"NDQIDX\r\n";

/// Container format version: the 32-bit word after the magic. Bump on any
/// layout change old readers cannot decode. Readers accept exactly this
/// word and reject every other one with [`PersistError::UnsupportedVersion`]
/// rather than guessing; older files must be re-prepared from their graph.
///
/// The layout is 16-byte aligned: section payloads start on 16-byte file
/// offsets and bulk arrays inside payloads are padded to 16-byte payload
/// offsets, which is what lets a mapped file be served in place as
/// `&[u32]`/`&[u64]`/`&[u128]` slices with zero copies. It persists no
/// wall-clock field, so re-saving an index is bit-identical. v5 kept v4's
/// layout but dropped the index fields of in-place repair (per-branch
/// oracle overlay and patch lists, and the repair outcome in META). v6
/// stores a distance oracle's ball tables as two CSR slabs (offsets and
/// sorted members) instead of one adaptive list-or-bitmap set per ball.
/// v7 stores a neighborhood cover as slabs (assignment, centers, CSR bag
/// rows) and a kernel index as CSR slabs, so a mapped load borrows them
/// and builds no per-vertex inverted index. v8 drops a cover's
/// `(bag, vertex)` key store: the CSR bag rows answer membership through a
/// `u32` radix directory over their packed keys, and skip tables keep rows
/// only for list members (other rows are empty); the META degradation
/// rung no longer has tag 1 (the retired coarsened-ε rung). v9 stores a
/// skip table's singleton values `SKIP(v, {X})` as one unkeyed `u32`
/// array parallel to the kernel rows, keeps keyed rows only for sets of
/// two or more bags, records its size-cap cut as a vertex, and no longer
/// writes its own copy of the target list (the loader passes the unary
/// list). v10 drops the cover's radix directory (its shift and its slab):
/// bag membership and successor are one binary search in the sorted bag
/// row, and META no longer records the prepare's thread count. v11 keeps
/// per bag of a distance-oracle split level only what a test reads: the
/// splitter's position in the cover's bag row, one `R_i` byte per row
/// member and the inner oracle; the induced subgraph (its CSR and a second
/// copy of the members) is no longer written.
pub const FORMAT_VERSION: u32 = 11;

/// Decoders refuse single length prefixes beyond this many elements, so a
/// corrupted length field fails typed instead of attempting a huge
/// allocation.
pub const MAX_LEN: u64 = 1 << 33;

/// Why a persisted artifact could not be read (or written).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PersistError {
    /// Filesystem-level failure (message of the underlying `io::Error`).
    Io(String),
    /// The file does not start with [`MAGIC`] — not an index file at all.
    BadMagic,
    /// The file's format version is not the one this binary supports.
    UnsupportedVersion { found: u32, supported: u32 },
    /// The input ended before a declared value/section was complete.
    Truncated { context: &'static str },
    /// A section's payload does not match its recorded CRC-32.
    ChecksumMismatch { section: String },
    /// Structurally invalid content inside an intact section.
    Malformed { context: String },
    /// Bytes remain after the last declared section/value.
    TrailingData,
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "io failure: {e}"),
            PersistError::BadMagic => write!(f, "bad magic (not an ndq index file)"),
            PersistError::UnsupportedVersion { found, supported } => {
                // Pre-v4 files split the word into major (low 16 bits) and
                // minor (high 16 bits); print it that way so a v3.1 file
                // reads as "3.1", not 65539.
                write!(
                    f,
                    "unsupported index format version {}.{} (this build reads {supported}); \
                     re-prepare the index from its graph",
                    found & 0xffff,
                    found >> 16
                )
            }
            PersistError::Truncated { context } => {
                write!(f, "truncated input while reading {context}")
            }
            PersistError::ChecksumMismatch { section } => {
                write!(f, "checksum mismatch in section {section:?} (corrupt file)")
            }
            PersistError::Malformed { context } => write!(f, "malformed content: {context}"),
            PersistError::TrailingData => write!(f, "trailing bytes after the declared content"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e.to_string())
    }
}

/// Shorthand for a malformed-content error.
pub fn malformed(context: impl Into<String>) -> PersistError {
    PersistError::Malformed {
        context: context.into(),
    }
}

// ---------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected), slicing-by-16 tables built at compile
// time. The warm-restart path checksums multi-megabyte sections, so the
// classic one-table-byte-at-a-time loop (~250 MB/s) would dominate load;
// slicing-by-16 processes sixteen input bytes per iteration with four
// independent table-lookup chains.
// ---------------------------------------------------------------------

const CRC_SLICES: usize = 16;

const fn build_crc_tables() -> [[u32; 256]; CRC_SLICES] {
    let mut t = [[0u32; 256]; CRC_SLICES];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < CRC_SLICES {
        let mut i = 0;
        while i < 256 {
            t[k][i] = t[0][(t[k - 1][i] & 0xff) as usize] ^ (t[k - 1][i] >> 8);
            i += 1;
        }
        k += 1;
    }
    t
}

static CRC_TABLES: [[u32; 256]; CRC_SLICES] = build_crc_tables();

/// Extend a finalized CRC-32 with more bytes:
/// `crc32_update(crc32(a), b) == crc32(a ++ b)`. Lets section checksums
/// cover the tag and length framing without copying the payload into a
/// contiguous scratch buffer.
///
/// Large inputs take the carryless-multiply fold on x86-64 CPUs that
/// support it (~10× the table path); the result is bit-identical either
/// way, so files are portable across hosts.
pub fn crc32_update(crc: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= 64 && pclmul::available() {
        let split = data.len() & !15;
        // SAFETY: `available` confirmed pclmulqdq+sse4.1 at runtime, and
        // `split` is a multiple of 16 that is ≥ 64.
        let folded = unsafe { pclmul::crc32_blocks(crc, &data[..split]) };
        return crc32_update_table(folded, &data[split..]);
    }
    crc32_update_table(crc, data)
}

fn crc32_update_table(crc: u32, data: &[u8]) -> u32 {
    let mut c = !crc;
    let mut chunks = data.chunks_exact(CRC_SLICES);
    for chunk in chunks.by_ref() {
        let w0 = u32::from_le_bytes(chunk[0..4].try_into().unwrap()) ^ c;
        let w1 = u32::from_le_bytes(chunk[4..8].try_into().unwrap());
        let w2 = u32::from_le_bytes(chunk[8..12].try_into().unwrap());
        let w3 = u32::from_le_bytes(chunk[12..16].try_into().unwrap());
        c = CRC_TABLES[15][(w0 & 0xff) as usize]
            ^ CRC_TABLES[14][((w0 >> 8) & 0xff) as usize]
            ^ CRC_TABLES[13][((w0 >> 16) & 0xff) as usize]
            ^ CRC_TABLES[12][(w0 >> 24) as usize]
            ^ CRC_TABLES[11][(w1 & 0xff) as usize]
            ^ CRC_TABLES[10][((w1 >> 8) & 0xff) as usize]
            ^ CRC_TABLES[9][((w1 >> 16) & 0xff) as usize]
            ^ CRC_TABLES[8][(w1 >> 24) as usize]
            ^ CRC_TABLES[7][(w2 & 0xff) as usize]
            ^ CRC_TABLES[6][((w2 >> 8) & 0xff) as usize]
            ^ CRC_TABLES[5][((w2 >> 16) & 0xff) as usize]
            ^ CRC_TABLES[4][(w2 >> 24) as usize]
            ^ CRC_TABLES[3][(w3 & 0xff) as usize]
            ^ CRC_TABLES[2][((w3 >> 8) & 0xff) as usize]
            ^ CRC_TABLES[1][((w3 >> 16) & 0xff) as usize]
            ^ CRC_TABLES[0][(w3 >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = CRC_TABLES[0][((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    !c
}

/// CRC-32 (IEEE) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0, data)
}

/// Carryless-multiply CRC-32 folding for the bit-reflected IEEE polynomial.
///
/// This is the classic PCLMULQDQ scheme from Gopal et al., "Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ" (the same constants
/// zlib and friends ship): fold four 128-bit lanes in parallel over 64-byte
/// blocks, collapse to one lane, then Barrett-reduce to 32 bits. Only the
/// bulk of a buffer goes through here — the dispatcher in [`crc32_update`]
/// hands the sub-16-byte tail to the table path, which also serves as the
/// portable fallback on CPUs without the instructions.
#[cfg(target_arch = "x86_64")]
mod pclmul {
    use core::arch::x86_64::*;

    /// Runtime CPU support check (cached by `std` behind the macro).
    pub fn available() -> bool {
        std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1")
    }

    /// Fold `data` into a finalized CRC-32 state, returning the finalized
    /// result (same convention as `crc32_update`).
    ///
    /// # Safety
    ///
    /// The CPU must support `pclmulqdq` and `sse4.1` (check [`available`]);
    /// `data.len()` must be a non-zero multiple of 16 that is at least 64.
    #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
    pub unsafe fn crc32_blocks(crc: u32, data: &[u8]) -> u32 {
        debug_assert!(data.len() >= 64 && data.len().is_multiple_of(16));
        unsafe {
            // Bit-reflected domain fold constants: x^t mod P for the shift
            // distances used below, plus the Barrett pair (P', mu).
            let k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
            let k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
            let k5 = _mm_set_epi64x(0, 0x0163cd6124);
            let poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
            let low32 = _mm_setr_epi32(-1, 0, -1, 0);

            let p = data.as_ptr();
            let mut x1 = _mm_loadu_si128(p.cast());
            let mut x2 = _mm_loadu_si128(p.add(0x10).cast());
            let mut x3 = _mm_loadu_si128(p.add(0x20).cast());
            let mut x4 = _mm_loadu_si128(p.add(0x30).cast());
            x1 = _mm_xor_si128(x1, _mm_cvtsi32_si128(!crc as i32));

            // Fold 64 bytes at a time across four independent lanes.
            let mut off = 64;
            while data.len() - off >= 64 {
                let x5 = _mm_clmulepi64_si128(x1, k1k2, 0x00);
                let x6 = _mm_clmulepi64_si128(x2, k1k2, 0x00);
                let x7 = _mm_clmulepi64_si128(x3, k1k2, 0x00);
                let x8 = _mm_clmulepi64_si128(x4, k1k2, 0x00);
                x1 = _mm_clmulepi64_si128(x1, k1k2, 0x11);
                x2 = _mm_clmulepi64_si128(x2, k1k2, 0x11);
                x3 = _mm_clmulepi64_si128(x3, k1k2, 0x11);
                x4 = _mm_clmulepi64_si128(x4, k1k2, 0x11);
                x1 = _mm_xor_si128(_mm_xor_si128(x1, x5), _mm_loadu_si128(p.add(off).cast()));
                x2 = _mm_xor_si128(
                    _mm_xor_si128(x2, x6),
                    _mm_loadu_si128(p.add(off + 0x10).cast()),
                );
                x3 = _mm_xor_si128(
                    _mm_xor_si128(x3, x7),
                    _mm_loadu_si128(p.add(off + 0x20).cast()),
                );
                x4 = _mm_xor_si128(
                    _mm_xor_si128(x4, x8),
                    _mm_loadu_si128(p.add(off + 0x30).cast()),
                );
                off += 64;
            }

            // Collapse the four lanes into one.
            let mut x5 = _mm_clmulepi64_si128(x1, k3k4, 0x00);
            x1 = _mm_clmulepi64_si128(x1, k3k4, 0x11);
            x1 = _mm_xor_si128(_mm_xor_si128(x1, x2), x5);
            x5 = _mm_clmulepi64_si128(x1, k3k4, 0x00);
            x1 = _mm_clmulepi64_si128(x1, k3k4, 0x11);
            x1 = _mm_xor_si128(_mm_xor_si128(x1, x3), x5);
            x5 = _mm_clmulepi64_si128(x1, k3k4, 0x00);
            x1 = _mm_clmulepi64_si128(x1, k3k4, 0x11);
            x1 = _mm_xor_si128(_mm_xor_si128(x1, x4), x5);

            // Fold any remaining 16-byte blocks.
            while off < data.len() {
                x5 = _mm_clmulepi64_si128(x1, k3k4, 0x00);
                x1 = _mm_clmulepi64_si128(x1, k3k4, 0x11);
                x1 = _mm_xor_si128(_mm_xor_si128(x1, x5), _mm_loadu_si128(p.add(off).cast()));
                off += 16;
            }

            // Reduce 128 → 64 bits.
            let mut x0 = _mm_clmulepi64_si128(x1, k3k4, 0x10);
            x1 = _mm_srli_si128(x1, 8);
            x1 = _mm_xor_si128(x1, x0);

            // Reduce 96 → 64 bits with k5.
            x0 = _mm_srli_si128(x1, 4);
            x1 = _mm_and_si128(x1, low32);
            x1 = _mm_clmulepi64_si128(x1, k5, 0x00);
            x1 = _mm_xor_si128(x1, x0);

            // Barrett-reduce to 32 bits.
            x0 = _mm_and_si128(x1, low32);
            x0 = _mm_clmulepi64_si128(x0, poly, 0x10);
            x0 = _mm_and_si128(x0, low32);
            x0 = _mm_clmulepi64_si128(x0, poly, 0x00);
            x1 = _mm_xor_si128(x1, x0);

            !(_mm_extract_epi32(x1, 1) as u32)
        }
    }
}

// ---------------------------------------------------------------------
// Little-endian value codecs.
// ---------------------------------------------------------------------

/// Append-only little-endian encoder over a byte vector.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer. Its `*_slab` methods align their raw data to
    /// 16-byte payload offsets.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// Zero-fill to the next 16-byte payload offset.
    fn pad16(&mut self) {
        while !self.buf.len().is_multiple_of(16) {
            self.buf.push(0);
        }
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Length prefix (`u64`) for a following sequence.
    pub fn seq_len(&mut self, n: usize) {
        self.u64(n as u64);
    }

    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.seq_len(s.len());
        self.bytes(s.as_bytes());
    }

    /// Length-prefixed raw byte slice.
    pub fn byte_slice(&mut self, v: &[u8]) {
        self.seq_len(v.len());
        self.bytes(v);
    }

    /// Length-prefixed `u32` slice.
    pub fn u32_slice(&mut self, v: &[u32]) {
        self.seq_len(v.len());
        self.buf.reserve(4 * v.len());
        for &x in v {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
    }

    /// Length-prefixed `u32` array with the raw data aligned to a 16-byte
    /// payload offset. Together with 16-byte section placement in the
    /// container this is what makes the array directly mappable: the
    /// on-disk bytes at an aligned offset ARE the `&[u32]`.
    pub fn u32_slab(&mut self, v: &[u32]) {
        self.seq_len(v.len());
        self.pad16();
        self.buf.reserve(4 * v.len());
        for &x in v {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
    }

    /// Length-prefixed, 16-byte-aligned `u64` array (see [`Writer::u32_slab`]).
    pub fn u64_slab(&mut self, v: &[u64]) {
        self.seq_len(v.len());
        self.pad16();
        self.buf.reserve(8 * v.len());
        for &x in v {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
    }

    /// Length-prefixed, 16-byte-aligned `u128` array (see [`Writer::u32_slab`]).
    pub fn u128_slab(&mut self, v: &[u128]) {
        self.seq_len(v.len());
        self.pad16();
        self.buf.reserve(16 * v.len());
        for &x in v {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
    }
}

/// Bounds-checked little-endian decoder over a byte slice. Every method
/// returns [`PersistError::Truncated`] instead of panicking when the input
/// runs out.
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
    slab: Option<SlabCtx>,
    mapped_bytes: usize,
}

impl<'a> Reader<'a> {
    /// A reader decoding everything into owned storage.
    pub fn new(data: &'a [u8]) -> Reader<'a> {
        Reader {
            data,
            pos: 0,
            slab: None,
            mapped_bytes: 0,
        }
    }

    /// A reader over a slice of a file image (mapped or heap-copied):
    /// `*_slab` methods return mapped [`Slab`] views into it (when aligned
    /// and little-endian) instead of copying. `data` must lie inside
    /// `ctx.file`'s range.
    pub fn with_slab(data: &'a [u8], ctx: SlabCtx) -> Reader<'a> {
        debug_assert!(ctx.contains(data));
        Reader {
            slab: Some(ctx),
            ..Reader::new(data)
        }
    }

    /// Whether decoders should run full structural validation. True except
    /// under a lazy-verify mapped load, where bulk validation would fault in
    /// every page and the deferred section CRC provides integrity instead.
    pub fn should_validate(&self) -> bool {
        self.slab.as_ref().is_none_or(|c| c.validate)
    }

    /// Bytes served as mapped [`Slab`] views so far (0 on owned decodes).
    pub fn mapped_bytes(&self) -> usize {
        self.mapped_bytes
    }

    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Consume zero padding up to the next 16-byte payload offset. Nonzero
    /// pad bytes mean corruption.
    fn pad_align(&mut self, context: &'static str) -> Result<(), PersistError> {
        while !self.pos.is_multiple_of(16) {
            if self.u8(context)? != 0 {
                return Err(malformed(format!("{context}: nonzero alignment padding")));
            }
        }
        Ok(())
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], PersistError> {
        if self.remaining() < n {
            return Err(PersistError::Truncated { context });
        }
        let out = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    pub fn u8(&mut self, context: &'static str) -> Result<u8, PersistError> {
        Ok(self.take(1, context)?[0])
    }

    pub fn bool(&mut self, context: &'static str) -> Result<bool, PersistError> {
        match self.u8(context)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(malformed(format!("{context}: bool byte {other}"))),
        }
    }

    pub fn u32(&mut self, context: &'static str) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(
            self.take(4, context)?.try_into().unwrap(),
        ))
    }

    pub fn u64(&mut self, context: &'static str) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(
            self.take(8, context)?.try_into().unwrap(),
        ))
    }

    pub fn u128(&mut self, context: &'static str) -> Result<u128, PersistError> {
        Ok(u128::from_le_bytes(
            self.take(16, context)?.try_into().unwrap(),
        ))
    }

    /// A `u64` length prefix, validated against both [`MAX_LEN`] and the
    /// bytes actually remaining (each element takes ≥ `min_elem_bytes`),
    /// so corrupt lengths fail typed instead of triggering huge
    /// allocations.
    pub fn seq_len(
        &mut self,
        min_elem_bytes: usize,
        context: &'static str,
    ) -> Result<usize, PersistError> {
        let n = self.u64(context)?;
        if n > MAX_LEN {
            return Err(malformed(format!("{context}: length {n} exceeds cap")));
        }
        if (n as usize).saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(PersistError::Truncated { context });
        }
        Ok(n as usize)
    }

    pub fn str(&mut self, context: &'static str) -> Result<String, PersistError> {
        let n = self.seq_len(1, context)?;
        let raw = self.take(n, context)?;
        String::from_utf8(raw.to_vec()).map_err(|_| malformed(format!("{context}: invalid utf-8")))
    }

    /// Length-prefixed raw byte slice.
    pub fn byte_slice(&mut self, context: &'static str) -> Result<Vec<u8>, PersistError> {
        let n = self.seq_len(1, context)?;
        Ok(self.take(n, context)?.to_vec())
    }

    /// The reader of [`Writer::u32_slice`], fused with the two checks every
    /// index consumer performs on such vertex lists: strictly increasing
    /// order and every element `< bound`. Fusing keeps validation to the
    /// same single pass that decodes.
    pub fn u32_slice_sorted(
        &mut self,
        bound: u32,
        context: &'static str,
    ) -> Result<Vec<u32>, PersistError> {
        // `seq_len` already proved `4 * n` bytes remain, so the single
        // `take` cannot fail and the decode is one pass over raw bytes.
        let n = self.seq_len(4, context)?;
        let raw = self.take(4 * n, context)?;
        let mut out = Vec::with_capacity(n);
        out.extend(
            raw.chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().unwrap())),
        );
        if out.windows(2).any(|w| w[0] >= w[1]) {
            return Err(malformed(format!("{context}: not strictly sorted")));
        }
        // Strictly sorted, so only the maximum needs the range check.
        if out.last().is_some_and(|&x| x >= bound) {
            return Err(malformed(format!("{context}: element out of range")));
        }
        Ok(out)
    }

    /// Decode a [`Writer::u32_slab`]/[`Writer::u64_slab`]/[`Writer::u128_slab`]
    /// payload. Over a mapped file (reader built with [`Reader::with_slab`])
    /// this returns a mapped [`Slab`] view — no copy, no page faults beyond
    /// the length prefix — provided the data landed 16-byte aligned and the
    /// host is little-endian; otherwise it decodes owned exactly like the
    /// `*_slice` readers.
    fn slab_of<T: Pod>(&mut self, context: &'static str) -> Result<Slab<T>, PersistError> {
        let n = self.seq_len(T::SIZE, context)?;
        self.pad_align(context)?;
        let raw = self.take(T::SIZE * n, context)?;
        if n > 0 {
            if let Some(ctx) = &self.slab {
                if cfg!(target_endian = "little")
                    && (raw.as_ptr() as usize).is_multiple_of(align_of::<T>())
                {
                    self.mapped_bytes += raw.len();
                    return Ok(Slab::mapped_from_raw(ctx.file.clone(), raw));
                }
            }
        }
        Ok(Slab::from(T::decode_vec(raw)))
    }

    /// Length-prefixed `u32` array written by [`Writer::u32_slab`]: a
    /// mapped [`Slab`] view when the reader was built with
    /// [`Reader::with_slab`] and the data landed 16-byte aligned on a
    /// little-endian host, an owned decode otherwise.
    pub fn u32_slab(&mut self, context: &'static str) -> Result<Slab<u32>, PersistError> {
        self.slab_of(context)
    }

    /// Length-prefixed, possibly mapped `u64` array (as [`Reader::u32_slab`]).
    pub fn u64_slab(&mut self, context: &'static str) -> Result<Slab<u64>, PersistError> {
        self.slab_of(context)
    }

    /// Length-prefixed, possibly mapped `u128` array (as [`Reader::u32_slab`]).
    pub fn u128_slab(&mut self, context: &'static str) -> Result<Slab<u128>, PersistError> {
        self.slab_of(context)
    }

    /// [`Reader::u32_slab`] plus the strictly-sorted / `< bound` checks,
    /// skipped under lazy verification ([`Reader::should_validate`]) where
    /// they would fault in the whole array.
    pub fn u32_slab_sorted(
        &mut self,
        bound: u32,
        context: &'static str,
    ) -> Result<Slab<u32>, PersistError> {
        let out: Slab<u32> = self.slab_of(context)?;
        if self.should_validate() {
            if out.windows(2).any(|w| w[0] >= w[1]) {
                return Err(malformed(format!("{context}: not strictly sorted")));
            }
            if out.last().is_some_and(|&x| x >= bound) {
                return Err(malformed(format!("{context}: element out of range")));
            }
        }
        Ok(out)
    }

    /// Assert the input is fully consumed.
    pub fn finish(&self) -> Result<(), PersistError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(PersistError::TrailingData)
        }
    }
}

// ---------------------------------------------------------------------
// Section container.
// ---------------------------------------------------------------------

/// Assembles a versioned, per-section-checksummed container: every
/// section payload starts at a 16-byte file offset.
#[derive(Default)]
pub struct ContainerWriter {
    sections: Vec<([u8; 4], Vec<u8>)>,
}

impl ContainerWriter {
    pub fn new() -> ContainerWriter {
        ContainerWriter::default()
    }

    pub fn section(&mut self, tag: [u8; 4], payload: Vec<u8>) {
        self.sections.push((tag, payload));
    }

    pub fn finish(self) -> Vec<u8> {
        let total: usize = self
            .sections
            .iter()
            .map(|(_, p)| p.len() + 16 + 15)
            .sum::<usize>()
            + 16;
        let mut out = Vec::with_capacity(total);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        for (tag, payload) in &self.sections {
            out.extend_from_slice(tag);
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(&section_crc(tag, payload).to_le_bytes());
            out.extend_from_slice(payload);
            // The 16-byte container header and 16-byte section headers keep
            // every payload start ≡ 0 (mod 16) as long as each payload is
            // zero-filled out to a 16-byte file offset. Padding lives
            // outside the section CRC; the parser requires it to be zero.
            while !out.len().is_multiple_of(16) {
                out.push(0);
            }
        }
        out
    }
}

/// A parsed container: tagged sections whose checksums have already been
/// verified.
#[derive(Debug)]
pub struct Container<'a> {
    sections: Vec<([u8; 4], &'a [u8])>,
}

impl<'a> Container<'a> {
    /// The payload of the (first) section with `tag`; missing sections are
    /// a [`PersistError::Malformed`].
    pub fn section(&self, tag: [u8; 4]) -> Result<&'a [u8], PersistError> {
        self.sections
            .iter()
            .find(|(t, _)| *t == tag)
            .map(|(_, p)| *p)
            .ok_or_else(|| malformed(format!("missing section {}", tag_name(&tag))))
    }

    pub fn len(&self) -> usize {
        self.sections.len()
    }

    pub fn is_empty(&self) -> bool {
        self.sections.is_empty()
    }
}

fn tag_name(tag: &[u8; 4]) -> String {
    String::from_utf8_lossy(tag).into_owned()
}

/// Section checksum covers the tag and the length framing too, so a bit
/// flip anywhere in a section — not just its payload — is detected.
fn section_crc(tag: &[u8; 4], payload: &[u8]) -> u32 {
    let crc = crc32_update(crc32(tag), &(payload.len() as u64).to_le_bytes());
    crc32_update(crc, payload)
}

/// One framed section whose checksum has NOT been verified yet. Produced
/// by [`parse_container_frames`] so callers can pipeline CRC verification
/// with decoding: every decoder in this codebase is bounds-checked and
/// typed-error-safe on arbitrary bytes, so it is sound to decode a payload
/// while its checksum is still being confirmed on another thread — as long
/// as a failed [`SectionFrame::verify`] discards the decoded value.
#[derive(Clone, Copy, Debug)]
pub struct SectionFrame<'a> {
    pub tag: [u8; 4],
    pub payload: &'a [u8],
    want_crc: u32,
}

impl SectionFrame<'_> {
    /// Confirm the recorded CRC-32 (covering tag, length framing, and
    /// payload) against the bytes.
    pub fn verify(&self) -> Result<(), PersistError> {
        if section_crc(&self.tag, self.payload) != self.want_crc {
            return Err(PersistError::ChecksumMismatch {
                section: tag_name(&self.tag),
            });
        }
        Ok(())
    }
}

/// A container's parsed framing.
#[derive(Debug)]
pub struct ContainerFrames<'a> {
    pub frames: Vec<SectionFrame<'a>>,
}

/// Parse a container's framing — magic, version, section lengths, no
/// trailing bytes — WITHOUT verifying section checksums. Callers must
/// [`SectionFrame::verify`] every frame before trusting any decoded
/// payload. Never panics on hostile input. Accepts exactly
/// [`FORMAT_VERSION`] and reports the full version word of anything else.
pub fn parse_container_frames(data: &[u8]) -> Result<ContainerFrames<'_>, PersistError> {
    if data.len() < 8 {
        return Err(PersistError::Truncated { context: "magic" });
    }
    if data[..8] != MAGIC {
        return Err(PersistError::BadMagic);
    }
    let mut r = Reader::new(&data[8..]);
    let version = r.u32("format version")?;
    if version != FORMAT_VERSION {
        return Err(PersistError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let count = r.u32("section count")?;
    let mut frames = Vec::new();
    for _ in 0..count {
        let tag: [u8; 4] = r.take(4, "section tag")?.try_into().expect("4-byte slice");
        let len = r.u64("section length")?;
        if len > MAX_LEN || len as usize > r.remaining() {
            return Err(PersistError::Truncated {
                context: "section payload",
            });
        }
        let want_crc = r.u32("section crc")?;
        let payload = r.take(len as usize, "section payload")?;
        // `r` starts 8 bytes into the file (after the magic), so file
        // offset ≡ r.pos + 8; every section payload must be zero-filled out
        // to a 16-byte file offset. The zero check means a bit flip in the
        // (un-checksummed) padding is still detected.
        while !(r.pos + 8).is_multiple_of(16) {
            if r.u8("section padding")? != 0 {
                return Err(malformed("nonzero section alignment padding"));
            }
        }
        frames.push(SectionFrame {
            tag,
            payload,
            want_crc,
        });
    }
    r.finish()?;
    Ok(ContainerFrames { frames })
}

/// Parse and verify a container: magic, version, section framing, per-
/// section CRC, and no trailing bytes. Never panics on hostile input.
pub fn parse_container(data: &[u8]) -> Result<Container<'_>, PersistError> {
    let parsed = parse_container_frames(data)?;
    let mut sections = Vec::with_capacity(parsed.frames.len());
    for f in parsed.frames {
        f.verify()?;
        sections.push((f.tag, f.payload));
    }
    Ok(Container { sections })
}

// ---------------------------------------------------------------------
// Atomic file replacement.
// ---------------------------------------------------------------------

/// Write `bytes` to `path` atomically: temp file in the same directory,
/// `fsync`, `rename`, then best-effort directory `fsync`. A crash leaves
/// either the previous file or the complete new one.
pub fn write_file_atomic(path: &Path, bytes: &[u8]) -> Result<(), PersistError> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    drop(f);
    if let Err(e) = std::fs::rename(&tmp, path) {
        let _ = std::fs::remove_file(&tmp);
        return Err(e.into());
    }
    if let Some(dir) = dir {
        // Persist the rename itself; failure here (exotic filesystems)
        // does not lose data already fsynced into the file.
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_container() -> Vec<u8> {
        let mut a = Writer::new();
        a.u64(7);
        a.str("hello");
        a.u32_slice(&[1, 2, 3]);
        let mut b = Writer::new();
        b.u128(u128::MAX - 5);
        b.bool(true);
        let mut c = ContainerWriter::new();
        c.section(*b"AAAA", a.into_bytes());
        c.section(*b"BBBB", b.into_bytes());
        c.finish()
    }

    #[test]
    fn roundtrip() {
        let bytes = sample_container();
        let c = parse_container(&bytes).unwrap();
        assert_eq!(c.len(), 2);
        let mut r = Reader::new(c.section(*b"AAAA").unwrap());
        assert_eq!(r.u64("x").unwrap(), 7);
        assert_eq!(r.str("s").unwrap(), "hello");
        assert_eq!(r.u32_slice_sorted(4, "v").unwrap(), vec![1, 2, 3]);
        r.finish().unwrap();
        let mut r = Reader::new(c.section(*b"BBBB").unwrap());
        assert_eq!(r.u128("y").unwrap(), u128::MAX - 5);
        assert!(r.bool("b").unwrap());
        r.finish().unwrap();
        assert!(matches!(
            c.section(*b"ZZZZ"),
            Err(PersistError::Malformed { .. })
        ));
    }

    #[test]
    fn bad_magic() {
        let mut bytes = sample_container();
        bytes[0] ^= 0x01;
        assert_eq!(parse_container(&bytes).unwrap_err(), PersistError::BadMagic);
    }

    #[test]
    fn stale_version() {
        let mut bytes = sample_container();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert_eq!(
            parse_container(&bytes).unwrap_err(),
            PersistError::UnsupportedVersion {
                found: 99,
                supported: FORMAT_VERSION
            }
        );
    }

    #[test]
    fn truncation_at_every_length_is_typed() {
        let bytes = sample_container();
        for cut in 0..bytes.len() {
            let err = parse_container(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    PersistError::Truncated { .. }
                        | PersistError::BadMagic
                        | PersistError::ChecksumMismatch { .. }
                ),
                "cut at {cut}: unexpected {err:?}"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let bytes = sample_container();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut c = bytes.clone();
                c[i] ^= 1 << bit;
                assert!(
                    parse_container(&c).is_err(),
                    "undetected flip at byte {i} bit {bit}"
                );
            }
        }
    }

    /// Older version words (v2, unpadded v3.0, padded v3.1, v4, v5) are
    /// refused typed, and the message names the version as major.minor
    /// and tells the user to re-prepare.
    #[test]
    fn older_versions_are_rejected() {
        for (word, shown) in [
            (2u32, "2.0"),
            (3, "3.0"),
            (3 | 1 << 16, "3.1"),
            (4, "4.0"),
            (5, "5.0"),
        ] {
            let mut bytes = sample_container();
            bytes[8..12].copy_from_slice(&word.to_le_bytes());
            let err = parse_container_frames(&bytes).unwrap_err();
            assert_eq!(
                err,
                PersistError::UnsupportedVersion {
                    found: word,
                    supported: FORMAT_VERSION
                }
            );
            let msg = err.to_string();
            assert!(
                msg.contains(&format!("version {shown} ")) && msg.contains("re-prepare"),
                "{msg}"
            );
        }
    }

    #[test]
    fn padded_container_aligns_every_payload() {
        let bytes = sample_container();
        // Total length padded out to a 16-byte boundary, so appended bytes
        // always land after the last pad and trip TrailingData.
        assert!(bytes.len().is_multiple_of(16));
        let parsed = parse_container_frames(&bytes).unwrap();
        for f in &parsed.frames {
            f.verify().unwrap();
            let off = f.payload.as_ptr() as usize - bytes.as_ptr() as usize;
            assert!(off.is_multiple_of(16), "payload at unaligned offset {off}");
        }
    }

    #[test]
    fn slab_methods_roundtrip_and_align() {
        let mut w = Writer::new();
        w.u8(1); // deliberately knock the position off alignment
        w.u32_slab(&[5, 6]);
        w.u64_slab(&[7]);
        w.u128_slab(&[8, 9]);
        w.u128_slab(&[]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8("x").unwrap(), 1);
        assert_eq!(&*r.u32_slab("a").unwrap(), &[5, 6]);
        assert_eq!(&*r.u64_slab("b").unwrap(), &[7]);
        assert_eq!(&*r.u128_slab("c").unwrap(), &[8, 9]);
        assert!(r.u128_slab("d").unwrap().is_empty());
        r.finish().unwrap();
        // A nonzero byte smuggled into alignment padding is malformed.
        let mut bytes = bytes;
        bytes[11] = 0xff; // inside the pad gap after the 9-byte prefix
        let mut r = Reader::new(&bytes);
        r.u8("x").unwrap();
        assert!(matches!(
            r.u32_slab("a"),
            Err(PersistError::Malformed { .. })
        ));
        // The sorted variant validates order and bound by default.
        let mut w = Writer::new();
        w.u32_slab(&[3, 9]);
        assert!(matches!(
            Reader::new(&w.into_bytes()).u32_slab_sorted(9, "c"),
            Err(PersistError::Malformed { .. })
        ));
    }

    #[test]
    fn trailing_data_rejected() {
        let mut bytes = sample_container();
        bytes.push(0);
        assert_eq!(
            parse_container(&bytes).unwrap_err(),
            PersistError::TrailingData
        );
    }

    #[test]
    fn byte_slice_roundtrip_and_truncation() {
        let mut w = Writer::new();
        w.byte_slice(&[7, 0, 255]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.byte_slice("b").unwrap(), vec![7, 0, 255]);
        r.finish().unwrap();
        assert!(Reader::new(&bytes[..9]).byte_slice("b").is_err());
    }

    #[test]
    fn corrupt_length_field_does_not_allocate() {
        let mut w = Writer::new();
        w.u64(u64::MAX); // absurd length prefix
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(r.u32_slice_sorted(u32::MAX, "v").is_err());
    }

    #[test]
    fn atomic_write_and_read_back() {
        let dir = std::env::temp_dir().join(format!("nd-persist-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.bin");
        let bytes = sample_container();
        write_file_atomic(&path, &bytes).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
        // Overwrite is atomic too.
        write_file_atomic(&path, &bytes[..20]).unwrap();
        assert_eq!(std::fs::read(&path).unwrap().len(), 20);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crc_known_vector() {
        // Standard IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc_update_chains_like_concatenation() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1031).collect();
        // Every split point, so both the slicing-by-8 body and the
        // byte-at-a-time remainder are exercised on each side.
        for cut in 0..data.len() {
            let chained = crc32_update(crc32(&data[..cut]), &data[cut..]);
            assert_eq!(chained, crc32(&data), "split at {cut}");
        }
    }
}
