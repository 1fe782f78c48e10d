//! Named regression corpus.
//!
//! Each entry pins one case seed the harness must stay clean on. The
//! names describe what the case exercises (verify with
//! `nd_conform::describe_case(seed, MAX_N)`); the seeds were curated from
//! the `seed=42` run stream, biased toward the constructs that have the
//! most cross-engine surface: unions, non-fragment fallback, far
//! (`dist > d`) constraints, degenerate arities, and dummy variables.
//!
//! Workflow: when `ndq conform` reports a disagreement, fix the engine,
//! then add the `case_seed` from the report here with a name saying what
//! broke. The corpus only grows.

use nd_conform::{describe_case, run_case};

/// `max_n` the corpus seeds were curated under — part of the seed's
/// meaning (graph sizes derive from it), so it must not drift.
const MAX_N: usize = 28;

const CORPUS: &[(&str, u64)] = &[
    // Union whose second branch holds a common-neighbor pattern outside
    // the distance-type fragment: exercises the naive-fallback rung
    // against indexed branches in one query.
    ("union-nonfragment-fallback", 0xbdd732262feb6e95),
    // Arity-3 pure negation !E(v0,v2) on a path: dense answer set, dummy
    // middle variable.
    ("negated-edge-triple", 0x2f5c8fa3624ea1a7),
    // Common-neighbor pattern centered on a star hub (every pair shares
    // the hub): fallback with maximal witness overlap.
    ("star-common-neighbor", 0x9f6acaf728beb1dd),
    // Arity-0 trivial sentence: the empty-tuple fast paths.
    ("boolean-true-sentence", 0x7fea7c8adc81c8da),
    // Conjunction of far constraints (dist > 3, dist > 2) at arity 3:
    // skip-pointer territory.
    ("far-distance-conjunction", 0xabcf8f8e7be53925),
    // Union of a far branch and a guarded near branch on a cycle: the
    // multi-branch next_solution merge.
    ("union-far-near-cycle", 0x6c747bb513432b0a),
    // Plain E(x,y) on a long cycle: the simplest binary query, largest
    // per-vertex symmetry.
    ("plain-edge-cycle", 0x87648f6d93ada5e7),
    // `true` at arity 2: enumeration must walk the full n² lattice.
    ("universal-pair", 0x722a5b763a74823d),
    // Boolean `exists Blue` sentence: arity-0 with real evaluation.
    ("boolean-exists", 0xb51e56b31a920b87),
    // Red(v0) at arity 2: v1 is unconstrained (a dummy answer variable),
    // so every solution fans out n ways.
    ("dummy-free-variable", 0x5464a5c73eac3ad8),
    // Wide 2-branch union at arity 3 on a star: guarded unaries plus
    // distance mix, branch answer sets overlap heavily.
    ("star-wide-union", 0xd0c9913203415720),
    // Far constraint on a bounded-degree expander-ish graph: the
    // kernel/skip machinery with non-trivial cover bags.
    ("far-bounded-degree", 0x36b50032ffaa6cab),
    // Two simultaneous far constraints (dist > 3 from both v0 and v1)
    // at arity 3 on cycle(24): the deepest bag-row walks in the stream,
    // with enumeration crossing from one bag row to the next
    // mid-stream.
    ("cover-row-far-pair-cycle", 0x4a3be154dedf21f1),
    // bounded_degree(28,3) at the corpus size cap with a
    // common-neighbor witness plus adjacency: the largest bags the
    // stream generates, i.e. the longest sorted bag rows a row search
    // runs over under conformance.
    ("cover-row-dense-bounded-degree", 0x7bfb6a64df5afff4),
    // dist > 4 on a diameter-4 caterpillar: the far set is empty, so
    // successor probes search past the end of every bag row and must
    // find nothing.
    ("cover-row-empty-range", 0xa1494dce3d231787),
    // star(24) with a two-branch union mixing guarded existentials and
    // negated unaries: the widest unary-list sections the corpus
    // serializes, i.e. the most per-position slabs the zero-copy loader
    // maps — curated when `mmap-load` landed.
    ("mmap-load-star-union", 0xfeedbeef0002),
    // gnm(8,12) with negated adjacency: a dense membership store behind
    // the mapped pages, plus the mapped-vs-owned add-edge apply on a graph
    // where absent edges are scarce.
    ("mmap-load-dense-gnm", 0x77aa22bb0001),
    // grid(4,3) with nested guarded existentials over dist<=1: ball
    // grids and skip CSR both populated, exercising every mapped
    // section kind through the lazy-verify load.
    ("mmap-load-grid-distance", 0xabadcafe0002),
    // Found by the 500-case sweep: a common-neighbor (naive-rung) query
    // whose add-edge apply re-prepares, so the mapped and owned paths
    // each re-captured wall-clock timings into SEC_META and the "re-save
    // after a mapped-vs-owned apply is bit-identical" check failed
    // whenever the two re-prepares crossed a millisecond boundary
    // differently. Fixed by canonicalizing saved timings to zero
    // (save_index_bytes is now a pure function of logical state).
    ("mmap-cow-resave-timing", 5038869353284556469),
];

#[test]
fn corpus_stays_clean() {
    for &(name, seed) in CORPUS {
        // serve=true: the corpus also drives the wire protocol on every
        // arity ≥ 1 case. shrink=true so a regression arrives minimized;
        // update_ops=4 replays each pinned case under mutations too.
        let outcome = run_case(seed, MAX_N, true, true, 4);
        assert!(
            outcome.disagreements.is_empty(),
            "regression {name:?} ({}):\n{:#?}",
            describe_case(seed, MAX_N),
            outcome.disagreements
        );
        assert!(outcome.configs_checked > 0, "{name}: nothing ran");
    }
}

#[test]
fn corpus_names_are_unique() {
    let mut names: Vec<&str> = CORPUS.iter().map(|&(n, _)| n).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), CORPUS.len(), "duplicate corpus names");
}

#[test]
fn protocol_fuzz_regression_seeds() {
    for seed in [42, fuzz_u64(), 7] {
        let report = nd_conform::protocol_fuzz::fuzz_protocol(seed, 150);
        assert!(report.ok(), "seed {seed}: {:?}", report.disagreements);
    }
}

/// A fixed historical seed, spelled as a function to keep the array
/// literal readable.
fn fuzz_u64() -> u64 {
    0x1ee7_5eed_f422_0001
}
