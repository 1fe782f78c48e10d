//! # nowhere-dense
//!
//! A from-scratch Rust implementation of *Enumeration for FO Queries over
//! Nowhere Dense Graphs* (Schweikardt, Segoufin, Vigny; PODS 2018 / JACM
//! 2022): constant-delay enumeration, constant-time testing and
//! "next-solution" computation for first-order queries over sparse graphs,
//! after pseudo-linear preprocessing.
//!
//! This facade crate re-exports the workspace crates:
//!
//! * [`graph`] — colored graphs, generators, the relational reduction.
//! * [`logic`] — FO⁺ formulas, parsing, naive evaluation, distance types.
//! * [`store`] — the Storing Theorem (Thm 3.1) trie.
//! * [`persist`] — the checksummed on-disk container behind `ndq`'s
//!   `--save`/`--load` index files and the serve-side `swap` verb.
//! * [`cover`] — neighborhood covers (Thm 4.4) and kernels (Lemma 5.7).
//! * [`splitter`] — the splitter game (Def 4.5, Thm 4.6).
//! * [`core`] — distance oracles (Prop 4.2), skip pointers (Lemma 5.8) and
//!   the main `PreparedQuery` machinery (Thm 2.3, Cor 2.4, Cor 2.5).
//! * [`baseline`] — naive baselines used in the experiment harness.
//! * [`serve`] — the concurrent query-serving runtime: shared snapshots,
//!   a worker pool fed from one FIFO queue, admission control and metrics.
//! * [`conform`] — the conformance harness: differential testing of every
//!   engine configuration against the naive semantics, metamorphic
//!   invariants, and a deterministic serve-protocol fuzzer (`ndq conform`).
//!
//! See `README.md` for a tour and `EXPERIMENTS.md` for the claim-by-claim
//! empirical validation.

pub use nd_baseline as baseline;
pub use nd_conform as conform;
pub use nd_core as core;
pub use nd_cover as cover;
pub use nd_graph as graph;
pub use nd_logic as logic;
pub use nd_persist as persist;
pub use nd_serve as serve;
pub use nd_splitter as splitter;
pub use nd_store as store;

pub use nd_core::{Epsilon, PrepareOpts, PreparedQuery};
pub use nd_graph::{ColoredGraph, GraphBuilder, Vertex};
pub use nd_logic::{parse_query, Query};
