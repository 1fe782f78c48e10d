//! Deliberate, runtime-toggled engine bugs for conformance-harness
//! self-tests.
//!
//! A differential oracle is only trustworthy if it demonstrably *catches*
//! bugs. This module (compiled only under the `sabotage` cargo feature,
//! which `nd-conform` enables for its own tests) exposes switches that
//! inject realistic defects into the answering path. With every switch
//! off — the default — the engine behaves identically to a build without
//! the feature, so enabling the feature workspace-wide (as `cargo test`
//! feature-unification does) is harmless.
//!
//! Never enable the `sabotage` feature in a production dependency graph.

use std::sync::atomic::{AtomicBool, Ordering};

/// When set, the indexed engine's multi-branch merge, which both
/// `next_solution` and the resumable enumerator use, picks `max` instead
/// of `min`: a flipped lexicographic comparison, the classic
/// off-by-an-order bug class the conformance harness exists to catch.
/// Single-branch queries are unaffected, which is exactly what makes the
/// bug realistic: it hides until a union query with overlapping branches
/// comes along.
static FLIP_LEX: AtomicBool = AtomicBool::new(false);

/// Toggle the flipped-lex bug. Returns the previous value so tests can
/// restore state.
pub fn set_flip_lex(on: bool) -> bool {
    FLIP_LEX.swap(on, Ordering::SeqCst)
}

/// Is the flipped-lex bug currently armed?
pub fn flip_lex() -> bool {
    FLIP_LEX.load(Ordering::SeqCst)
}

/// RAII guard: arms the flipped-lex bug for a scope, restores on drop
/// (including on panic, so a failing assertion cannot poison the next
/// test in the same process).
pub struct FlipLexGuard {
    prev: bool,
}

impl FlipLexGuard {
    #[allow(clippy::new_without_default)]
    pub fn new() -> FlipLexGuard {
        FlipLexGuard {
            prev: set_flip_lex(true),
        }
    }
}

impl Drop for FlipLexGuard {
    fn drop(&mut self) {
        self.prev = set_flip_lex(self.prev);
    }
}
