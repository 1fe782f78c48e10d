//! Seeded workload inputs. Everything the program under test receives —
//! the graph, the query text, probe tuples and mutation logs — is a pure
//! function of the workload and `--seed`.

use nd_bench::{mix, GraphFamily};
use nd_graph::{ColoredGraph, Vertex};
use nd_update::{Mutation, MutationLog};
use std::sync::Arc;

/// One named workload: which graph, which query, and how much of each
/// operation one measurement round performs.
pub struct Workload {
    pub name: &'static str,
    pub family: GraphFamily,
    pub n: usize,
    pub query: &'static str,
    /// Request batches submitted to the serving pool per round.
    pub batches: usize,
    /// Enumeration windows per round.
    pub windows: usize,
    /// Which index file `first_answer_ms` is measured on.
    pub first_answer: FirstAnswer,
}

/// The index file a round reloads to its first answer.
#[derive(PartialEq, Eq)]
pub enum FirstAnswer {
    /// The saved base index, [`BASE_RELOADS`] times per round.
    Base,
    /// Each round's freshly applied epoch, saved and reloaded once: the
    /// restart path of a live index.
    Epoch,
}

/// Reloads of the base index per round under [`FirstAnswer::Base`].
/// Three give `first_answer_ms` well over 10 samples beyond its tail
/// quantile in a run.
pub const BASE_RELOADS: usize = 3;

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "prepare-heavy",
        family: GraphFamily::BoundedDegree4,
        n: 4_000,
        query: "dist(x,z) > 2 && dist(y,z) > 2 && Blue(z)",
        batches: 8,
        windows: 64,
        first_answer: FirstAnswer::Base,
    },
    Workload {
        name: "update-restart",
        family: GraphFamily::Grid,
        n: 16_000,
        query: "dist(x,y) > 2 && Blue(y)",
        batches: 8,
        windows: 64,
        first_answer: FirstAnswer::Epoch,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Edge mutations per `apply` batch.
pub const EDITS: usize = 4;

/// The generated inputs of one run.
pub struct Inputs {
    pub graph: Arc<ColoredGraph>,
    pub arity: usize,
    seed: u64,
}

impl Inputs {
    pub fn generate(w: &Workload, seed: u64, arity: usize) -> Inputs {
        let graph = w.family.build_colored(w.n, mix(seed, 0x6772)).into_shared();
        Inputs { graph, arity, seed }
    }

    /// The `i`-th tuple of stream `salt`: uniform over `V^arity`.
    pub fn tuple(&self, salt: u64, i: u64) -> Vec<Vertex> {
        let n = self.graph.n() as u64;
        (0..self.arity as u64)
            .map(|p| (mix(i.wrapping_mul(31).wrapping_add(p), self.seed ^ salt) % n) as Vertex)
            .collect()
    }

    pub fn tuples(&self, salt: u64, start: u64, count: usize) -> Vec<Vec<Vertex>> {
        (start..start + count as u64)
            .map(|i| self.tuple(salt, i))
            .collect()
    }

    /// The `i`-th mutation batch: alternately add an absent edge and
    /// remove a present one, drawn from the seed stream so reruns see the
    /// same batches.
    pub fn mutation_log(&self, i: u64) -> MutationLog {
        let g = &self.graph;
        let n = g.n() as u64;
        let mut log = MutationLog::new();
        let mut salt = mix(i, self.seed ^ 0x6c6f67);
        for e in 0..EDITS {
            loop {
                salt = salt.wrapping_add(1);
                let u = (mix(salt, 71) % n) as Vertex;
                if e % 2 == 0 {
                    let v = (mix(salt, 73) % n) as Vertex;
                    if u != v && !g.has_edge(u, v) {
                        log.push(Mutation::AddEdge(u, v));
                        break;
                    }
                } else if let Some(&v) = g.neighbors(u).first() {
                    log.push(Mutation::RemoveEdge(u, v));
                    break;
                }
            }
        }
        log
    }
}
