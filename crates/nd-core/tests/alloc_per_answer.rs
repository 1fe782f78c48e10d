//! Heap allocations on the probe path, counted by a `System`-wrapping
//! global allocator.
//!
//! After the first answer, enumeration may allocate only the `Vec` it
//! yields (at most one allocation per answer), and `try_next_solution`
//! at most two per call. Checked on the two benchmark query shapes: a
//! ternary far query on a bounded-degree graph and a binary far query on
//! a grid.
//!
//! Counts are per thread, so tests running in parallel in this binary
//! cannot disturb each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use nd_core::{PrepareOpts, PreparedQuery};
use nd_graph::{generators, ColoredGraph, Vertex};
use nd_logic::parser::parse_query;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made on this thread while `f` runs.
fn allocs_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// About a third of the vertices are Blue.
fn with_blue(mut g: ColoredGraph) -> ColoredGraph {
    let blue: Vec<Vertex> = (0..g.n() as Vertex)
        .filter(|v| v.wrapping_mul(2_654_435_761) % 3 == 0)
        .collect();
    g.add_color(blue, Some("Blue".into()));
    g
}

fn check(g: &ColoredGraph, src: &str, answers: usize) {
    let q = parse_query(src).unwrap();
    let pq = PreparedQuery::prepare(g, &q, &PrepareOpts::default()).unwrap();
    let k = q.arity();

    let mut it = pq.enumerate();
    assert!(it.next().is_some(), "{src}: no answers");
    let (got, allocs) = allocs_in(|| it.by_ref().take(answers).count());
    assert_eq!(got, answers, "{src}: too few answers for the check");
    assert!(
        allocs <= answers as u64,
        "{src}: enumeration made {allocs} allocations for {answers} answers"
    );

    // Seeded probes spread over V^k.
    let probes: Vec<Vec<Vertex>> = (0..200u32)
        .map(|i| {
            (0..k as u32)
                .map(|p| i.wrapping_mul(2_654_435_761).wrapping_add(p * 40_503) % g.n() as u32)
                .collect()
        })
        .collect();
    pq.try_next_solution(&probes[0]).unwrap();
    let (_, allocs) = allocs_in(|| {
        for p in &probes {
            std::hint::black_box(pq.try_next_solution(p).unwrap());
        }
    });
    assert!(
        allocs <= 2 * probes.len() as u64,
        "{src}: {allocs} allocations over {} try_next_solution calls",
        probes.len()
    );
}

#[test]
fn ternary_far_query_on_bounded_degree() {
    let g = with_blue(generators::bounded_degree(4_000, 4, 7));
    check(&g, "dist(x,z) > 2 && dist(y,z) > 2 && Blue(z)", 2_000);
}

#[test]
fn binary_far_query_on_grid() {
    let g = with_blue(generators::grid(60, 60));
    check(&g, "dist(x,y) > 2 && Blue(y)", 2_000);
}
