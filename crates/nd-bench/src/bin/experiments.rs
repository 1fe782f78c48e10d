//! The experiment harness: one sub-command per claim of the paper
//! (DESIGN.md §6, results recorded in EXPERIMENTS.md).
//!
//! ```sh
//! cargo run --release -p nd-bench --bin experiments            # all
//! cargo run --release -p nd-bench --bin experiments -- e1 e4   # subset
//! cargo run --release -p nd-bench --bin experiments -- --quick # smaller sweeps
//! cargo run --release -p nd-bench --bin experiments -- --json  # + @json lines
//! ```

use nd_baseline::{BfsDistanceBaseline, NaiveEnumerator, NaiveTester};
use nd_bench::*;
use nd_core::dist::{DistOracle, DistOracleOpts};
use nd_core::{PrepareOpts, PreparedQuery, SkipPointers};
use nd_cover::{Cover, KernelIndex};
use nd_graph::stats::{degeneracy_ordering, max_weak_accessibility};
use nd_logic::parse_query;
use nd_splitter::{
    play_game, BallCenter, ConnectorStrategy, MaxDegree, SplitterStrategy, TakeCenter,
};
use nd_store::{FnStore, Lookup, StoreParams};
use std::time::Instant;

struct Config {
    quick: bool,
    /// Mirror table rows as `@json` lines (see [`nd_bench::emit_json`]).
    json: bool,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).map(|a| a.to_lowercase()).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let json = args.iter().any(|a| a == "--json");
    let selected: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| !a.starts_with("--"))
        .collect();
    if let Some(bad) = args.iter().find(|a| {
        !matches!(a.as_str(), "--quick" | "--json") && !EXPERIMENTS.iter().any(|(id, _)| id == a)
    }) {
        eprintln!(
            "unknown argument {bad:?}: expected e1..e10, a1..a4, --quick or --json \
             (see EXPERIMENTS.md)"
        );
        std::process::exit(2);
    }
    let cfg = Config { quick, json };

    println!("== nowhere-dense experiment harness ==");
    println!(
        "(mode: {}; see EXPERIMENTS.md for the claim each table validates)\n",
        if quick { "quick" } else { "full" }
    );
    for (id, run) in EXPERIMENTS {
        if selected.is_empty() || selected.contains(&id) {
            run(&cfg);
        }
    }
}

type Experiment = fn(&Config);

/// Every table by its command-line id, in run order: the paper's claims
/// (E1–E10), then the ablations (A1–A4).
const EXPERIMENTS: [(&str, Experiment); 14] = [
    ("e1", e1_storing),
    ("e2", e2_cover),
    ("e3", e3_splitter),
    ("e4", e4_dist_oracle),
    ("e5", e5_next_solution),
    ("e6", e6_testing),
    ("e7", e7_enumeration),
    ("e8", e8_skip),
    ("e9", e9_kernel),
    ("e10", e10_relational),
    ("a1", a1_ablation_extend),
    ("a2", a2_ablation_splitter),
    ("a3", a3_sparse_vs_dense),
    ("a4", a4_budget_ladder),
];

/// E1 — Storing Theorem (Thm 3.1): init ~ |Dom|·n^ε, lookup flat in n.
fn e1_storing(cfg: &Config) {
    println!("\n[E1] Storing Theorem (Thm 3.1): trie init/lookup/space vs n");
    let t = Table::new(
        &["k", "eps", "n", "|Dom|", "init", "ns/lookup", "regs/|Dom|"],
        &[3, 5, 9, 8, 9, 10, 10],
    );
    let tops: &[u32] = if cfg.quick {
        &[14, 18]
    } else {
        &[12, 14, 16, 18, 20]
    };
    for &k in &[1usize, 2] {
        for &log_n in tops {
            let n = 1u64 << log_n;
            let dom = (n / 4).min(1 << 16) as usize;
            let params = StoreParams::new(n, k, 0.25);
            let keys: Vec<Vec<u64>> = (0..dom as u64)
                .map(|i| {
                    (0..k)
                        .map(|c| mix(i * k as u64 + c as u64, 7) % n)
                        .collect()
                })
                .collect();
            let (store, init) = time_it(|| {
                let mut s = FnStore::new(params);
                for key in &keys {
                    s.insert(key, 1);
                }
                s
            });
            let probes: Vec<Vec<u64>> = (0..20_000u64)
                .map(|i| (0..k).map(|c| mix(i * 31 + c as u64, 9) % n).collect())
                .collect();
            let t0 = Instant::now();
            let mut found = 0usize;
            for p in &probes {
                if matches!(store.lookup(p), Lookup::Found(_)) {
                    found += 1;
                }
            }
            let per = t0.elapsed().as_nanos() as f64 / probes.len() as f64;
            std::hint::black_box(found);
            t.row(&[
                format!("{k}"),
                "0.25".into(),
                format!("{n}"),
                format!("{}", store.len()),
                fmt_dur(init),
                format!("{per:.0}"),
                format!(
                    "{:.1}",
                    store.registers() as f64 / store.len().max(1) as f64
                ),
            ]);
        }
    }
}

/// E2 — Neighborhood covers (Thm 4.4): pseudo-linear time, low degree on
/// sparse families, degradation on dense ones.
fn e2_cover(cfg: &Config) {
    println!("\n[E2] Neighborhood cover (Thm 4.4): build time and degree");
    let t = Table::new(
        &["family", "n", "r", "bags", "degree", "Σ|X|/n", "time"],
        &[7, 8, 3, 7, 7, 8, 9],
    );
    let sizes: &[usize] = if cfg.quick {
        &[4_000, 16_000]
    } else {
        &[4_000, 16_000, 64_000]
    };
    for &f in ALL_FAMILIES {
        for &n in sizes {
            if !f.sparse() && n > 4_000 {
                continue;
            }
            let g = f.build(n, 1);
            for &r in &[2u32, 4] {
                let (cover, dur) = time_it(|| Cover::build(&g, r, 0.5));
                t.row(&[
                    f.name().to_string(),
                    format!("{}", g.n()),
                    format!("{r}"),
                    format!("{}", cover.num_bags()),
                    format!("{}", cover.degree()),
                    format!("{:.2}", cover.total_bag_size() as f64 / g.n().max(1) as f64),
                    fmt_dur(dur),
                ]);
            }
        }
    }
}

/// E3 — Splitter game (Thm 4.6): rounds until Splitter wins, per family
/// and strategy.
fn e3_splitter(cfg: &Config) {
    println!("\n[E3] Splitter game (Thm 4.6): rounds to win (lower = sparser)");
    let t = Table::new(
        &["family", "n", "r", "strategy", "rounds"],
        &[7, 7, 3, 12, 7],
    );
    let n = if cfg.quick { 2_000 } else { 10_000 };
    let strategies: [&dyn SplitterStrategy; 3] = [&BallCenter, &MaxDegree, &TakeCenter];
    for &f in ALL_FAMILIES {
        let size = if f.sparse() { n } else { 400 };
        let g = f.build(size, 3);
        for &r in &[1u32, 2] {
            for s in strategies {
                let res = play_game(
                    &g,
                    r,
                    s,
                    &ConnectorStrategy::SampledAdversary {
                        samples: 8,
                        seed: 5,
                    },
                );
                t.row(&[
                    f.name().to_string(),
                    format!("{}", g.n()),
                    format!("{r}"),
                    s.name().to_string(),
                    format!("{}", res.rounds),
                ]);
            }
        }
    }
}

/// E4 — Distance oracle (Prop 4.2): prep scaling, O(1) tests, crossover vs
/// per-query BFS.
fn e4_dist_oracle(cfg: &Config) {
    println!("\n[E4] Distance oracle (Prop 4.2) vs BFS baseline");
    let t = Table::new(
        &["family", "n", "r", "prep", "ns/test", "ns/bfs", "speedup"],
        &[7, 8, 3, 9, 9, 9, 8],
    );
    let sizes: &[usize] = if cfg.quick {
        &[4_000, 16_000]
    } else {
        &[4_000, 16_000, 64_000]
    };
    let queries = 50_000usize;
    for &f in SPARSE_FAMILIES {
        for &n in sizes {
            let g = f.build(n, 2);
            for &r in &[4u32, 8] {
                let (oracle, prep) =
                    time_it(|| DistOracle::build(&g, r, &DistOracleOpts::default()));
                let a = random_vertices(g.n(), queries, 11);
                let b = random_vertices(g.n(), queries, 13);
                let t0 = Instant::now();
                let mut hits = 0usize;
                for i in 0..queries {
                    if oracle.test(a[i], b[i]) {
                        hits += 1;
                    }
                }
                let per_test = t0.elapsed().as_nanos() as f64 / queries as f64;
                let mut bfs = BfsDistanceBaseline::new(&g);
                let bfs_queries = queries / 10;
                let t0 = Instant::now();
                let mut hits_bfs = 0usize;
                for i in 0..bfs_queries {
                    if bfs.test(a[i], b[i], r) {
                        hits_bfs += 1;
                    }
                }
                let per_bfs = t0.elapsed().as_nanos() as f64 / bfs_queries as f64;
                std::hint::black_box((hits, hits_bfs));
                t.row(&[
                    f.name().to_string(),
                    format!("{}", g.n()),
                    format!("{r}"),
                    fmt_dur(prep),
                    format!("{per_test:.0}"),
                    format!("{per_bfs:.0}"),
                    format!("{:.1}x", per_bfs / per_test.max(1.0)),
                ]);
            }
        }
    }
}

const E5_QUERY: &str = "dist(x,y) > 2 && Blue(y)";
const E5_QUERY3: &str = "dist(x,z) > 2 && dist(y,z) > 2 && Blue(z)";

/// E5 — Theorem 2.3: next_solution constant vs n after pseudo-linear prep.
fn e5_next_solution(cfg: &Config) {
    println!("\n[E5] next_solution (Thm 2.3): prep scaling + flat query time");
    let t = Table::new(&["family", "n", "k", "prep", "ns/next"], &[7, 8, 3, 9, 10]);
    let sizes: &[usize] = if cfg.quick {
        &[4_000, 16_000]
    } else {
        &[4_000, 16_000, 64_000]
    };
    for &f in SPARSE_FAMILIES {
        for &n in sizes {
            let g = f.build_colored(n, 4);
            for (k, src) in [(2, E5_QUERY), (3, E5_QUERY3)] {
                let q = parse_query(src).unwrap();
                let (pq, prep) =
                    time_it(|| PreparedQuery::prepare(&g, &q, &PrepareOpts::default()).unwrap());
                let probes = 2_000usize;
                let t0 = Instant::now();
                for i in 0..probes {
                    let probe: Vec<u32> = (0..k)
                        .map(|c| (mix((i * k + c) as u64, 17) % g.n() as u64) as u32)
                        .collect();
                    std::hint::black_box(pq.next_solution(&probe));
                }
                let per = t0.elapsed().as_nanos() as f64 / probes as f64;
                t.row(&[
                    f.name().to_string(),
                    format!("{}", g.n()),
                    format!("{k}"),
                    fmt_dur(prep),
                    format!("{per:.0}"),
                ]);
            }
        }
    }
}

/// E6 — Corollary 2.4: O(1) testing vs naive per-tuple evaluation.
fn e6_testing(cfg: &Config) {
    println!("\n[E6] testing (Cor 2.4) vs naive evaluation");
    let t = Table::new(
        &["family", "n", "ns/test", "ns/naive", "speedup"],
        &[7, 8, 9, 10, 8],
    );
    let sizes: &[usize] = if cfg.quick {
        &[4_000]
    } else {
        &[4_000, 16_000, 64_000]
    };
    let q = parse_query(E5_QUERY).unwrap();
    for &f in SPARSE_FAMILIES {
        for &n in sizes {
            let g = f.build_colored(n, 5);
            let pq = PreparedQuery::prepare(&g, &q, &PrepareOpts::default()).unwrap();
            let tester = NaiveTester::new(&g, q.clone());
            let probes = 20_000usize;
            let a = random_vertices(g.n(), probes, 3);
            let b = random_vertices(g.n(), probes, 4);
            let t0 = Instant::now();
            for i in 0..probes {
                std::hint::black_box(pq.test(&[a[i], b[i]]));
            }
            let per = t0.elapsed().as_nanos() as f64 / probes as f64;
            let naive_probes = probes / 20;
            let t0 = Instant::now();
            for i in 0..naive_probes {
                std::hint::black_box(tester.test(&[a[i], b[i]]));
            }
            let per_naive = t0.elapsed().as_nanos() as f64 / naive_probes as f64;
            t.row(&[
                f.name().to_string(),
                format!("{}", g.n()),
                format!("{per:.0}"),
                format!("{per_naive:.0}"),
                format!("{:.1}x", per_naive / per.max(1.0)),
            ]);
        }
    }
}

/// E7 — Corollary 2.5: constant delay vs n; naive delay grows.
///
/// Uses a *selective* query (rare color on both sides) so the naive
/// streaming enumerator's gaps between solutions grow with n while the
/// indexed delay stays flat.
fn e7_enumeration(cfg: &Config) {
    println!("\n[E7] enumeration (Cor 2.5): delay vs n, against streaming naive");
    let t = Table::new(
        &[
            "family",
            "n",
            "engine",
            "outputs",
            "mean ns/out",
            "max delay",
        ],
        &[7, 8, 8, 8, 12, 10],
    );
    let sizes: &[usize] = if cfg.quick {
        &[4_000, 16_000]
    } else {
        &[4_000, 16_000, 64_000]
    };
    let q = parse_query("Rare(x) && dist(x,y) > 2 && Rare(y)").unwrap();
    let limit = 20_000usize;
    for &f in SPARSE_FAMILIES {
        for &n in sizes {
            let mut g = f.build(n, 6);
            let rare: Vec<u32> = (0..g.n() as u32)
                .filter(|v| mix(*v as u64, 61).is_multiple_of(51))
                .collect();
            g.add_color(rare, Some("Rare".into()));
            let pq = PreparedQuery::prepare(&g, &q, &PrepareOpts::default()).unwrap();
            let s = measure_delays(pq.enumerate(), limit);
            t.row(&[
                f.name().to_string(),
                format!("{}", g.n()),
                "indexed".into(),
                format!("{}", s.outputs),
                format!("{:.0}", s.mean_delay_ns),
                fmt_dur(s.max_delay),
            ]);
            // The naive stream pays ~51² candidate checks per output; keep
            // its output count small so the row finishes.
            let s = measure_delays(NaiveEnumerator::new(&g, q.clone()), limit / 10);
            t.row(&[
                f.name().to_string(),
                format!("{}", g.n()),
                "naive".into(),
                format!("{}", s.outputs),
                format!("{:.0}", s.mean_delay_ns),
                fmt_dur(s.max_delay),
            ]);
        }
    }
}

/// E8 — Lemma 5.8: SC(b) table size ~ n·δ^k; skip queries O(1).
fn e8_skip(cfg: &Config) {
    println!("\n[E8] skip pointers (Lemma 5.8): table size and query time");
    let t = Table::new(
        &[
            "family",
            "n",
            "k",
            "entries",
            "entries/n",
            "bytes",
            "ns/skip",
        ],
        &[7, 8, 3, 9, 10, 10, 9],
    );
    let sizes: &[usize] = if cfg.quick {
        &[4_000]
    } else {
        &[4_000, 16_000, 64_000]
    };
    for &f in SPARSE_FAMILIES {
        for &n in sizes {
            let g = f.build(n, 7);
            let r = 2;
            let cover = Cover::build(&g, 2 * r, 0.5);
            let kernels = KernelIndex::build(&g, &cover, r);
            for &k in &[1usize, 2, 3] {
                let list: Vec<u32> = (0..g.n() as u32).filter(|v| v % 3 == 0).collect();
                let sp = SkipPointers::build_with_cap(g.n(), &kernels, list, k, 64 * g.n());
                let probes = 20_000usize;
                let bs = random_vertices(g.n(), probes, 21);
                let anchors = random_vertices(g.n(), probes * k, 22);
                let t0 = Instant::now();
                for i in 0..probes {
                    let bags: Vec<_> = (0..k).map(|c| cover.bag_of(anchors[i * k + c])).collect();
                    std::hint::black_box(sp.skip(&kernels, bs[i], &bags));
                }
                let per = t0.elapsed().as_nanos() as f64 / probes as f64;
                t.row(&[
                    f.name().to_string(),
                    format!("{}", g.n()),
                    format!("{k}"),
                    format!("{}", sp.table_len()),
                    format!("{:.2}", sp.table_len() as f64 / g.n() as f64),
                    format!("{}", sp.table_bytes()),
                    format!("{per:.0}"),
                ]);
            }
        }
    }
}

/// E9 — Lemma 5.7: kernels in `O(p·‖G[X]‖)`.
fn e9_kernel(cfg: &Config) {
    println!("\n[E9] kernels (Lemma 5.7): time linear in p·Σ‖G[X]‖");
    let t = Table::new(
        &["family", "n", "p", "Σ|X|", "time", "ns/bag-vertex"],
        &[7, 8, 3, 9, 9, 14],
    );
    let sizes: &[usize] = if cfg.quick {
        &[16_000]
    } else {
        &[16_000, 64_000]
    };
    for &f in SPARSE_FAMILIES {
        for &n in sizes {
            let g = f.build(n, 8);
            let cover = Cover::build(&g, 4, 0.5);
            for &p in &[1u32, 2, 4] {
                let (ki, dur) = time_it(|| KernelIndex::build(&g, &cover, p));
                std::hint::black_box(ki.degree());
                let total = cover.total_bag_size();
                t.row(&[
                    f.name().to_string(),
                    format!("{}", g.n()),
                    format!("{p}"),
                    format!("{total}"),
                    fmt_dur(dur),
                    format!("{:.1}", dur.as_nanos() as f64 / total.max(1) as f64),
                ]);
            }
        }
    }
}

/// E10 — Lemma 2.2: reduction sizes and agreement.
fn e10_relational(cfg: &Config) {
    println!("\n[E10] relational reduction (Lemma 2.2): A'(D) blowup + agreement");
    use nd_graph::relational::{adjacency_graph, RelationalDb};
    use nd_logic::eval::materialize_db;
    use nd_logic::relational::rewrite_to_graph;
    let t = Table::new(
        &[
            "papers",
            "db size",
            "|A'(D)|",
            "‖A'(D)‖",
            "build",
            "answers",
            "agree",
        ],
        &[7, 8, 8, 9, 9, 8, 6],
    );
    let sizes: &[usize] = if cfg.quick { &[50] } else { &[50, 100] };
    for &n in sizes {
        let mut db = RelationalDb::new(n);
        let mut tuples = Vec::new();
        for p in 1..n as u32 {
            tuples.push(vec![p, p / 2]);
            tuples.push(vec![p, (p * 7 + 1) % p]);
        }
        db.add_relation("R", 2, tuples);
        db.add_relation(
            "S",
            1,
            (0..n as u32)
                .filter(|p| p % 3 == 0)
                .map(|p| vec![p])
                .collect(),
        );
        let phi = parse_query("R(x, y) && S(y)").unwrap();
        let ((g, mapping), build) = time_it(|| adjacency_graph(&db));
        let psi = rewrite_to_graph(&phi, &mapping);
        let want = materialize_db(&db, &phi);
        let pq = PreparedQuery::prepare(&g, &psi, &PrepareOpts::default()).unwrap();
        let got: Vec<_> = pq.enumerate().collect();
        t.row(&[
            format!("{n}"),
            format!("{}", db.size()),
            format!("{}", g.n()),
            format!("{}", g.size()),
            fmt_dur(build),
            format!("{}", want.len()),
            format!("{}", got == want),
        ]);
    }
}

/// A1 — ablation: extendability pruning on vs off (backtracking waste).
fn a1_ablation_extend(cfg: &Config) {
    println!("\n[A1] ablation: extendability pruning (Thm 5.1 induction) on/off");
    let t = Table::new(
        &["family", "n", "check", "outputs", "total", "max delay"],
        &[7, 8, 6, 8, 9, 10],
    );
    let n = if cfg.quick { 8_000 } else { 32_000 };
    // Rare solutions stress backtracking: far-far with a rare color.
    for &f in &[GraphFamily::Grid, GraphFamily::BoundedDegree4] {
        let mut g = f.build(n, 9);
        let rare: Vec<u32> = (0..g.n() as u32).filter(|v| v % 301 == 7).collect();
        g.add_color(rare, Some("Blue".into()));
        let q =
            parse_query("Blue(x) && dist(x,y) > 4 && Blue(y) && dist(y,z) > 4 && Blue(z)").unwrap();
        for check in [true, false] {
            let opts = PrepareOpts {
                extendability_check: check,
                ..PrepareOpts::default()
            };
            let pq = PreparedQuery::prepare(&g, &q, &opts).unwrap();
            let s = measure_delays(pq.enumerate(), 5_000);
            t.row(&[
                f.name().to_string(),
                format!("{}", g.n()),
                format!("{check}"),
                format!("{}", s.outputs),
                fmt_dur(s.total),
                fmt_dur(s.max_delay),
            ]);
        }
    }
}

/// A2 — ablation: distance oracle recursion depth (splitter) vs flat base.
fn a2_ablation_splitter(cfg: &Config) {
    println!("\n[A2] ablation: oracle with splitter recursion vs flat naive bags");
    let t = Table::new(
        &["family", "n", "variant", "prep", "index verts", "ns/test"],
        &[7, 8, 10, 9, 12, 9],
    );
    let n = if cfg.quick { 16_000 } else { 64_000 };
    for &f in &[GraphFamily::Grid, GraphFamily::RandomTree] {
        let g = f.build(n, 10);
        let r = 6;
        for (name, opts) in [
            ("recursive", DistOracleOpts::default()),
            (
                "flat",
                DistOracleOpts {
                    max_rounds: 0, // immediate naive base case: all balls
                    ..DistOracleOpts::default()
                },
            ),
        ] {
            let (oracle, prep) = time_it(|| DistOracle::build(&g, r, &opts));
            let probes = 50_000usize;
            let a = random_vertices(g.n(), probes, 31);
            let b = random_vertices(g.n(), probes, 32);
            let t0 = Instant::now();
            for i in 0..probes {
                std::hint::black_box(oracle.test(a[i], b[i]));
            }
            let per = t0.elapsed().as_nanos() as f64 / probes as f64;
            t.row(&[
                f.name().to_string(),
                format!("{}", g.n()),
                name.into(),
                fmt_dur(prep),
                format!("{}", oracle.stats().total_vertices),
                format!("{per:.0}"),
            ]);
        }
    }
}

/// A3 — sparse vs dense contrast: weak accessibility, cover degree,
/// prep time, delay all degrade on dense inputs.
fn a3_sparse_vs_dense(cfg: &Config) {
    println!("\n[A3] sparse vs dense contrast (nowhere-dense boundary)");
    let t = Table::new(
        &[
            "family",
            "n",
            "‖G‖/n",
            "weak-acc(2)",
            "cover deg",
            "prep",
            "mean ns/out",
        ],
        &[7, 7, 8, 12, 10, 9, 12],
    );
    let n = if cfg.quick { 1_000 } else { 3_000 };
    let q = parse_query(E5_QUERY).unwrap();
    for &f in ALL_FAMILIES {
        let size = if f.sparse() { n } else { n.min(800) };
        let g = f.build_colored(size, 12);
        let (_, ord) = degeneracy_ordering(&g);
        let ord: Vec<_> = ord.into_iter().rev().collect();
        let wa = max_weak_accessibility(&g, &ord, 2);
        let cover = Cover::build(&g, 4, 0.5);
        let (pq, prep) =
            time_it(|| PreparedQuery::prepare(&g, &q, &PrepareOpts::default()).unwrap());
        let s = measure_delays(pq.enumerate(), 5_000);
        t.row(&[
            f.name().to_string(),
            format!("{}", g.n()),
            format!("{:.1}", g.size() as f64 / g.n().max(1) as f64),
            format!("{wa}"),
            format!("{}", cover.degree()),
            fmt_dur(prep),
            format!("{:.0}", s.mean_delay_ns),
        ]);
    }
}

/// A4 — preprocessing budgets and the degradation ladder: sweep the
/// node-expansion cap and report which rung the ladder lands on. A
/// `BudgetExceeded` is a measured outcome here (with its partial spend),
/// not a crash.
fn a4_budget_ladder(cfg: &Config) {
    use nd_core::{Budget, DegradationRung, PrepareError};

    println!("\n[A4] preprocessing budgets: ladder rung vs node-expansion cap");
    let t = Table::new(
        &["family", "n", "node cap", "outcome", "nodes spent", "prep"],
        &[7, 7, 12, 24, 12, 9],
    );
    let n = if cfg.quick { 500 } else { 2_000 };
    let q = parse_query(E5_QUERY).unwrap();
    for &f in ALL_FAMILIES {
        if !f.sparse() {
            continue;
        }
        let g = f.build_colored(n, 12);
        for cap in [u64::MAX, 1 << 22, 1 << 16, 1 << 10] {
            let opts = PrepareOpts {
                budget: if cap == u64::MAX {
                    Budget::UNLIMITED
                } else {
                    Budget::UNLIMITED.with_node_expansions(cap)
                },
                ..PrepareOpts::default()
            };
            let (res, prep) = time_it(|| PreparedQuery::prepare(&g, &q, &opts));
            let (outcome, spent) = match &res {
                Ok(pq) => {
                    let s = pq.stats();
                    let rung = match s.rung {
                        DegradationRung::Indexed => "indexed",
                        DegradationRung::NaiveFallback => "naive fallback",
                    };
                    (rung.to_string(), s.budget_nodes_spent)
                }
                Err(PrepareError::BudgetExceeded { exceeded, partial }) => (
                    format!("exceeded in {}", exceeded.phase),
                    partial.budget_nodes_spent,
                ),
                Err(e) => (format!("error: {e}"), 0),
            };
            t.row(&[
                f.name().to_string(),
                format!("{}", g.n()),
                if cap == u64::MAX {
                    "∞".into()
                } else {
                    format!("{cap}")
                },
                outcome.clone(),
                format!("{spent}"),
                fmt_dur(prep),
            ]);
            emit_json(cfg.json, "a4", |o| {
                o.field_str("family", f.name())
                    .field_u64("n", g.n() as u64)
                    .field_u64("node_cap", cap)
                    .field_str("outcome", &outcome)
                    .field_u64("nodes_spent", spent)
                    .field_f64("prep_s", prep.as_secs_f64());
            });
        }
    }
}
