//! Model-based property tests for the flat arena store: [`FlatStore`]
//! against a `BTreeMap` reference model — random key sets shaped by
//! insert/remove sequences on the model, with lookup / successor /
//! predecessor / range-iteration agreement, across several arities, `ε`
//! regimes (directory shapes), and the empty-store and single-key edge
//! cases.
//!
//! This is the test armor for the trie → arena rewrite: every answer the
//! enumeration hot path can ask of the store is checked against ordered-map
//! semantics, and the structural invariants (strict key order, directory
//! bracketing) are re-verified after every generated workload.

use proptest::prelude::*;
use std::collections::BTreeMap;

use nd_store::{FlatStore, Lookup, StoreParams};

#[derive(Clone, Debug)]
enum Op {
    Insert(Vec<u64>, u64),
    Remove(Vec<u64>),
    Lookup(Vec<u64>),
    Pred(Vec<u64>),
    SuccStrict(Vec<u64>),
}

fn key_strategy(n: u64, k: usize) -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0..n, k)
}

fn op_strategy(n: u64, k: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (key_strategy(n, k), any::<u64>()).prop_map(|(k, v)| Op::Insert(k, v)),
        2 => key_strategy(n, k).prop_map(Op::Remove),
        2 => key_strategy(n, k).prop_map(Op::Lookup),
        1 => key_strategy(n, k).prop_map(Op::Pred),
        1 => key_strategy(n, k).prop_map(Op::SuccStrict),
    ]
}

/// The inserts and removes shape the model; the store is bulk-built from
/// the final model, and every probe op must agree with it.
fn run_model(n: u64, k: usize, eps: f64, ops: Vec<Op>) {
    let params = StoreParams::new(n, k, eps);
    let mut model: BTreeMap<Vec<u64>, u64> = BTreeMap::new();
    for op in &ops {
        match op {
            Op::Insert(key, val) => {
                model.insert(key.clone(), *val);
            }
            Op::Remove(key) => {
                model.remove(key);
            }
            _ => {}
        }
    }
    let store = FlatStore::from_pairs(params, model.iter().map(|(k, v)| (k.as_slice(), *v)));
    assert_eq!(store.len(), model.len());

    for op in ops {
        match op {
            Op::Insert(..) | Op::Remove(_) => {}
            Op::Lookup(key) => {
                let got = store.lookup(&key);
                match model.get(&key) {
                    Some(&v) => assert_eq!(got, Lookup::Found(v), "hit {key:?}"),
                    None => {
                        let succ = model.range(key.clone()..).next().map(|(k2, _)| k2.clone());
                        assert_eq!(got, Lookup::Missing(succ), "miss {key:?}");
                    }
                }
            }
            Op::Pred(key) => {
                let expected = model
                    .range(..key.clone())
                    .next_back()
                    .map(|(k2, _)| k2.clone());
                assert_eq!(store.predecessor_strict(&key), expected, "pred {key:?}");
            }
            Op::SuccStrict(key) => {
                let expected = model
                    .range(key.clone()..)
                    .find(|(k2, _)| **k2 != key)
                    .map(|(k2, _)| k2.clone());
                assert_eq!(store.successor_strict(&key), expected, "succ> {key:?}");
            }
        }
    }
    store.check_invariants();
    let got: Vec<(Vec<u64>, u64)> = store.iter();
    let expected: Vec<(Vec<u64>, u64)> = model.into_iter().collect();
    assert_eq!(got, expected, "final contents");
}

/// Random insert set → bulk build must equal the model, and the codec
/// round-trip must preserve everything bit-for-bit.
fn run_bulk(n: u64, k: usize, eps: f64, pairs: Vec<(Vec<u64>, u64)>) {
    let params = StoreParams::new(n, k, eps);
    let bulk = FlatStore::from_pairs(params, pairs.iter().map(|(k, v)| (k.as_slice(), *v)));
    bulk.check_invariants();
    let mut model: BTreeMap<Vec<u64>, u64> = BTreeMap::new();
    for (key, v) in &pairs {
        model.insert(key.clone(), *v);
    }
    let expected: Vec<(Vec<u64>, u64)> = model.into_iter().collect();
    assert_eq!(bulk.iter(), expected, "bulk contents");

    let mut w = nd_persist::Writer::new();
    bulk.write_into(&mut w);
    let bytes = w.into_bytes();
    let mut r = nd_persist::Reader::new(&bytes);
    let back = FlatStore::read_from(&mut r).unwrap();
    r.finish().unwrap();
    back.check_invariants();
    assert_eq!(back.iter(), expected, "decoded contents");
    let mut w2 = nd_persist::Writer::new();
    back.write_into(&mut w2);
    assert_eq!(w2.into_bytes(), bytes, "re-save not bit-identical");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn unary_small_domain(ops in prop::collection::vec(op_strategy(17, 1), 0..120)) {
        run_model(17, 1, 0.5, ops);
    }

    #[test]
    fn unary_medium_domain(ops in prop::collection::vec(op_strategy(1000, 1), 0..80)) {
        run_model(1000, 1, 0.3, ops);
    }

    #[test]
    fn binary_keys(ops in prop::collection::vec(op_strategy(40, 2), 0..80)) {
        run_model(40, 2, 0.4, ops);
    }

    #[test]
    fn ternary_keys(ops in prop::collection::vec(op_strategy(12, 3), 0..60)) {
        run_model(12, 3, 0.5, ops);
    }

    #[test]
    fn sparse_giant_keyspace(ops in prop::collection::vec(op_strategy(1 << 20, 2), 0..60)) {
        // 2^40 packed span with a handful of keys: the directory must
        // stay tiny and the cross-bucket successor hop must be exact.
        run_model(1 << 20, 2, 0.25, ops);
    }

    #[test]
    fn bulk_build_random_insert_sets(
        pairs in prop::collection::vec((key_strategy(60, 2), any::<u64>()), 0..120)
    ) {
        run_bulk(60, 2, 0.4, pairs);
    }
}

#[test]
fn empty_store_answers_every_probe() {
    let params = StoreParams::new(100, 2, 0.5);
    let s = FlatStore::from_pairs(params, []);
    s.check_invariants();
    for probe in [[0u64, 0], [50, 50], [99, 99]] {
        assert_eq!(s.lookup(&probe), Lookup::Missing(None));
        assert_eq!(s.successor_inclusive(&probe), None);
        assert_eq!(s.successor_strict(&probe), None);
        assert_eq!(s.predecessor_strict(&probe), None);
    }
    assert!(s.iter().is_empty());
}

#[test]
fn single_key_store_brackets_correctly() {
    let params = StoreParams::new(100, 2, 0.5);
    let s = FlatStore::from_pairs(params, [(&[50u64, 50][..], 7)]);
    s.check_invariants();
    // Probes strictly below, at, and strictly above the lone key.
    assert_eq!(s.lookup(&[50, 49]), Lookup::Missing(Some(vec![50, 50])));
    assert_eq!(s.lookup(&[50, 50]), Lookup::Found(7));
    assert_eq!(s.lookup(&[50, 51]), Lookup::Missing(None));
    assert_eq!(s.successor_inclusive(&[0, 0]), Some(vec![50, 50]));
    assert_eq!(s.successor_strict(&[50, 50]), None);
    assert_eq!(s.predecessor_strict(&[50, 50]), None);
    assert_eq!(s.predecessor_strict(&[50, 51]), Some(vec![50, 50]));
}

#[test]
fn sequential_scan_via_successors() {
    // Constant-delay enumeration's primitive: repeated successor_strict
    // must visit every key exactly once, in order.
    let params = StoreParams::new(10_000, 1, 0.4);
    let keys: Vec<u64> = (0..10_000u64).filter(|k| k % 7 == 3).collect();
    let s = FlatStore::from_pairs(params, keys.iter().map(|k| (std::slice::from_ref(k), *k)));
    let mut got = Vec::new();
    let mut cur = s.successor_inclusive(&[0]);
    while let Some(k) = cur {
        got.push(k[0]);
        cur = s.successor_strict(&k);
    }
    assert_eq!(got, keys);
}
