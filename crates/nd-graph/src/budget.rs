//! Resource budgets for preprocessing phases.
//!
//! The paper's preprocessing is pseudo-linear *on nowhere dense classes*;
//! on adversarial or merely dense inputs the same algorithms can blow up
//! (cover construction on a clique, the skip-pointer closure, naive
//! materialization). A [`Budget`] caps wall-clock time, node expansions and
//! tracked memory; the long-running loops of the upper crates thread a
//! [`BudgetTracker`] through their phase boundaries and bail out with a
//! typed [`BudgetExceeded`] instead of hanging.
//!
//! This module lives in `nd-graph` — the root of the crate DAG — so that
//! `nd-cover` and `nd-core` can share one tracker without a dependency
//! cycle. Counters are relaxed atomics, so a single tracker can be shared
//! across the scoped worker threads of a parallel prepare (`nd_graph::par`)
//! while still enforcing one *total* spend cap — the degradation ladder
//! sees the same aggregate accounting whether the phases ran on one thread
//! or eight. Charges stay cheap: an uncontended `fetch_add` plus a branch,
//! with wall-clock only sampled every `WALL_CHECK_PERIOD` (1024) charges.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// How many charge calls between wall-clock samples (`Instant::now` is the
/// expensive part of a charge; counter checks are branch-and-add).
const WALL_CHECK_PERIOD: u64 = 1024;

/// Preprocessing phase in which a budget was charged or exceeded.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Evaluation of the `r`-independence sentences / sentence checks.
    SentenceCheck,
    /// Evaluation of unary subformulas into solution lists.
    UnaryEvaluation,
    /// Recursive construction of a distance oracle (Proposition 4.2).
    DistOracle,
    /// Greedy construction of the `(r, 2r)`-neighborhood cover.
    CoverConstruction,
    /// Kernel computation for every cover bag (Lemma 5.7).
    KernelConstruction,
    /// Closure of the skip-pointer function `SC(b)` (Lemma 5.8).
    SkipClosure,
    /// Storing-Theorem trie inserts.
    TrieBuild,
    /// Naive `O(n^k)` materialization fallback.
    NaiveMaterialize,
    /// Serving-runtime admission control (`nd-serve`): the budget is
    /// interpreted as caps on queued/in-flight work instead of
    /// preprocessing spend.
    Admission,
    /// Counting answers by enumerating them, one node per answer (the
    /// fallback of a budgeted count).
    Counting,
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Phase::SentenceCheck => "sentence check",
            Phase::UnaryEvaluation => "unary evaluation",
            Phase::DistOracle => "distance oracle",
            Phase::CoverConstruction => "cover construction",
            Phase::KernelConstruction => "kernel construction",
            Phase::SkipClosure => "skip-pointer closure",
            Phase::TrieBuild => "trie build",
            Phase::NaiveMaterialize => "naive materialization",
            Phase::Admission => "admission control",
            Phase::Counting => "enumeration-based counting",
        };
        f.write_str(s)
    }
}

/// Which resource ran out.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Resource {
    WallClockMs,
    NodeExpansions,
    MemoryBytes,
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Resource::WallClockMs => "wall-clock ms",
            Resource::NodeExpansions => "node expansions",
            Resource::MemoryBytes => "memory bytes",
        };
        f.write_str(s)
    }
}

/// A budget cap was hit. Carries where, which resource, and how much had
/// been spent against the cap when the overrun was detected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BudgetExceeded {
    pub phase: Phase,
    pub resource: Resource,
    pub spent: u64,
    pub cap: u64,
}

impl fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "budget exceeded during {}: {} {} spent against a cap of {}",
            self.phase, self.spent, self.resource, self.cap
        )
    }
}

impl std::error::Error for BudgetExceeded {}

/// Caps on preprocessing resources. `None` means unlimited; the default
/// budget is fully unlimited, so threading a budget through an API is
/// zero-cost for callers that never set one.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Budget {
    /// Wall-clock cap across all phases.
    pub wall_clock: Option<Duration>,
    /// Cap on "node expansions" — the unit of combinatorial work (BFS
    /// visits, trie inserts, skip-pointer entries, tuples examined).
    pub node_expansions: Option<u64>,
    /// Cap on tracked auxiliary memory, in bytes (approximate: counts the
    /// dominant index allocations, not every `Vec`).
    pub memory_bytes: Option<u64>,
}

impl Budget {
    /// A budget with no caps.
    pub const UNLIMITED: Budget = Budget {
        wall_clock: None,
        node_expansions: None,
        memory_bytes: None,
    };

    pub fn is_unlimited(&self) -> bool {
        self.wall_clock.is_none() && self.node_expansions.is_none() && self.memory_bytes.is_none()
    }

    pub fn with_wall_clock(mut self, d: Duration) -> Budget {
        self.wall_clock = Some(d);
        self
    }

    pub fn with_node_expansions(mut self, cap: u64) -> Budget {
        self.node_expansions = Some(cap);
        self
    }

    pub fn with_memory_bytes(mut self, cap: u64) -> Budget {
        self.memory_bytes = Some(cap);
        self
    }

    /// Start the clock: create a tracker charging against this budget.
    pub fn start(&self) -> BudgetTracker {
        let now = Instant::now();
        BudgetTracker {
            started: now,
            deadline: self.wall_clock.map(|d| now + d),
            wall_cap_ms: self.wall_clock.map(|d| d.as_millis() as u64),
            node_cap: self.node_expansions,
            mem_cap: self.memory_bytes,
            nodes: AtomicU64::new(0),
            mem: AtomicU64::new(0),
            ticks: AtomicU64::new(0),
        }
    }
}

/// Running spend against a [`Budget`]. Charge methods take `&self` so the
/// tracker can be shared down a call tree — or across scoped worker
/// threads — without threading `&mut` borrows through builders. All
/// counters are relaxed atomics: exact totals, no ordering guarantees
/// needed (an overrun detected one charge late on a racing thread is
/// within the cap semantics, which were already amortized).
#[derive(Debug)]
pub struct BudgetTracker {
    started: Instant,
    deadline: Option<Instant>,
    wall_cap_ms: Option<u64>,
    node_cap: Option<u64>,
    mem_cap: Option<u64>,
    nodes: AtomicU64,
    mem: AtomicU64,
    ticks: AtomicU64,
}

impl BudgetTracker {
    /// A tracker that never trips — for callers without a budget.
    pub fn unlimited() -> BudgetTracker {
        Budget::UNLIMITED.start()
    }

    /// Charge `count` node expansions in `phase`. Fails if the node cap is
    /// exceeded, or (every `WALL_CHECK_PERIOD` charges) if the wall clock
    /// ran out.
    #[inline]
    pub fn charge_nodes(&self, phase: Phase, count: u64) -> Result<(), BudgetExceeded> {
        let spent = self
            .nodes
            .fetch_add(count, Ordering::Relaxed)
            .saturating_add(count);
        if let Some(cap) = self.node_cap {
            if spent > cap {
                return Err(BudgetExceeded {
                    phase,
                    resource: Resource::NodeExpansions,
                    spent,
                    cap,
                });
            }
        }
        self.tick_wall(phase)
    }

    /// Charge `bytes` of tracked memory in `phase`.
    #[inline]
    pub fn charge_memory(&self, phase: Phase, bytes: u64) -> Result<(), BudgetExceeded> {
        let spent = self
            .mem
            .fetch_add(bytes, Ordering::Relaxed)
            .saturating_add(bytes);
        if let Some(cap) = self.mem_cap {
            if spent > cap {
                return Err(BudgetExceeded {
                    phase,
                    resource: Resource::MemoryBytes,
                    spent,
                    cap,
                });
            }
        }
        self.tick_wall(phase)
    }

    /// Forced check of every cap, including an unconditional wall-clock
    /// sample. Call at phase boundaries.
    pub fn checkpoint(&self, phase: Phase) -> Result<(), BudgetExceeded> {
        if let Some(cap) = self.node_cap {
            let spent = self.nodes.load(Ordering::Relaxed);
            if spent > cap {
                return Err(BudgetExceeded {
                    phase,
                    resource: Resource::NodeExpansions,
                    spent,
                    cap,
                });
            }
        }
        if let Some(cap) = self.mem_cap {
            let spent = self.mem.load(Ordering::Relaxed);
            if spent > cap {
                return Err(BudgetExceeded {
                    phase,
                    resource: Resource::MemoryBytes,
                    spent,
                    cap,
                });
            }
        }
        self.check_wall(phase)
    }

    /// Amortized wall-clock check: samples `Instant::now` every
    /// [`WALL_CHECK_PERIOD`] calls.
    #[inline]
    fn tick_wall(&self, phase: Phase) -> Result<(), BudgetExceeded> {
        if self.deadline.is_none() {
            return Ok(());
        }
        let t = self.ticks.fetch_add(1, Ordering::Relaxed) + 1;
        if t.is_multiple_of(WALL_CHECK_PERIOD) {
            self.check_wall(phase)
        } else {
            Ok(())
        }
    }

    fn check_wall(&self, phase: Phase) -> Result<(), BudgetExceeded> {
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(BudgetExceeded {
                    phase,
                    resource: Resource::WallClockMs,
                    spent: self.started.elapsed().as_millis() as u64,
                    cap: self.wall_cap_ms.unwrap_or(0),
                });
            }
        }
        Ok(())
    }

    /// Node expansions charged so far.
    pub fn nodes_spent(&self) -> u64 {
        self.nodes.load(Ordering::Relaxed)
    }

    /// Tracked memory currently charged, in bytes.
    pub fn memory_spent(&self) -> u64 {
        self.mem.load(Ordering::Relaxed)
    }

    /// Time since the tracker was started.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_trips() {
        let t = BudgetTracker::unlimited();
        for _ in 0..10_000 {
            t.charge_nodes(Phase::CoverConstruction, 1_000_000).unwrap();
        }
        t.checkpoint(Phase::TrieBuild).unwrap();
        assert!(t.nodes_spent() >= 10_000 * 1_000_000);
    }

    #[test]
    fn node_cap_trips_with_context() {
        let t = Budget::default().with_node_expansions(10).start();
        t.charge_nodes(Phase::SkipClosure, 7).unwrap();
        let e = t.charge_nodes(Phase::SkipClosure, 7).unwrap_err();
        assert_eq!(e.phase, Phase::SkipClosure);
        assert_eq!(e.resource, Resource::NodeExpansions);
        assert_eq!(e.spent, 14);
        assert_eq!(e.cap, 10);
        assert!(e.to_string().contains("skip-pointer closure"));
    }

    #[test]
    fn memory_cap() {
        let t = Budget::default().with_memory_bytes(100).start();
        t.charge_memory(Phase::TrieBuild, 80).unwrap();
        t.charge_memory(Phase::TrieBuild, 20).unwrap();
        assert!(t.charge_memory(Phase::TrieBuild, 1).is_err());
    }

    #[test]
    fn wall_clock_trips_on_checkpoint() {
        let t = Budget::default().with_wall_clock(Duration::ZERO).start();
        let e = t.checkpoint(Phase::NaiveMaterialize).unwrap_err();
        assert_eq!(e.resource, Resource::WallClockMs);
    }

    #[test]
    fn wall_clock_trips_amortized() {
        let t = Budget::default().with_wall_clock(Duration::ZERO).start();
        let mut tripped = false;
        for _ in 0..(WALL_CHECK_PERIOD * 2) {
            if t.charge_nodes(Phase::DistOracle, 1).is_err() {
                tripped = true;
                break;
            }
        }
        assert!(tripped, "amortized wall check never fired");
    }

    #[test]
    fn tracker_is_shareable_across_threads() {
        // Compile-time: parallel prepare shares one tracker by reference.
        const fn assert_sync<T: Sync + Send>() {}
        const _: () = assert_sync::<BudgetTracker>();

        // Runtime: concurrent charges aggregate exactly, and the shared
        // node cap trips once total spend (not per-thread spend) crosses it.
        let t = Budget::default().with_node_expansions(1000).start();
        let tripped: Vec<bool> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        let mut hit = false;
                        for _ in 0..300 {
                            if t.charge_nodes(Phase::KernelConstruction, 1).is_err() {
                                hit = true;
                            }
                        }
                        hit
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(t.nodes_spent(), 1200);
        assert!(
            tripped.iter().any(|&b| b),
            "total spend 1200 > cap 1000 must trip on some thread"
        );
    }

    #[test]
    fn budget_builders() {
        let b = Budget::default()
            .with_wall_clock(Duration::from_secs(1))
            .with_node_expansions(5)
            .with_memory_bytes(6);
        assert!(!b.is_unlimited());
        assert!(Budget::UNLIMITED.is_unlimited());
        assert_eq!(b.node_expansions, Some(5));
        assert_eq!(b.memory_bytes, Some(6));
    }
}
