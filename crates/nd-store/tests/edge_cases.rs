//! Edge-case suite for the Storing Theorem structure: boundary keys,
//! degenerate shapes, the register dump, and interleavings the model-based
//! suite is unlikely to hit by chance.

use nd_store::{FnStore, Lookup, StoreParams};

#[test]
fn empty_store_lookups() {
    let s = FnStore::new(StoreParams::new(100, 2, 0.5));
    assert_eq!(s.lookup(&[0, 0]), Lookup::Missing(None));
    assert_eq!(s.lookup(&[99, 99]), Lookup::Missing(None));
    assert_eq!(s.successor_inclusive(&[50, 50]), None);
    assert_eq!(s.predecessor_strict(&[99, 99]), None);
    assert_eq!(s.len(), 0);
    s.check_invariants();
}

#[test]
fn boundary_keys() {
    let p = StoreParams::new(1000, 1, 0.3);
    let mut s = FnStore::new(p);
    s.insert(&[0], 10);
    s.insert(&[999], 20);
    assert_eq!(s.lookup(&[0]), Lookup::Found(10));
    assert_eq!(s.lookup(&[999]), Lookup::Found(20));
    assert_eq!(s.lookup(&[1]), Lookup::Missing(Some(vec![999])));
    assert_eq!(s.predecessor_strict(&[999]), Some(vec![0]));
    assert_eq!(s.successor_strict(&[999]), None);
    assert_eq!(s.successor_strict(&[0]), Some(vec![999]));
    // Remove the extremes in both orders.
    s.remove(&[0]);
    assert_eq!(s.lookup(&[0]), Lookup::Missing(Some(vec![999])));
    s.remove(&[999]);
    assert!(s.is_empty());
    s.check_invariants();
}

#[test]
fn single_key_domain() {
    // n = 1: the only key is the all-zero tuple.
    let p = StoreParams::new(1, 3, 0.5);
    let mut s = FnStore::new(p);
    assert_eq!(s.insert(&[0, 0, 0], 7), None);
    assert_eq!(s.lookup(&[0, 0, 0]), Lookup::Found(7));
    assert_eq!(s.successor_strict(&[0, 0, 0]), None);
    assert_eq!(s.remove(&[0, 0, 0]), Some(7));
    s.check_invariants();
}

#[test]
fn remove_absent_is_noop() {
    let mut s = FnStore::new(StoreParams::new(64, 1, 0.4));
    s.insert(&[10], 1);
    assert_eq!(s.remove(&[11]), None);
    assert_eq!(s.remove(&[9]), None);
    assert_eq!(s.len(), 1);
    s.check_invariants();
}

#[test]
fn reinsert_after_remove_same_region() {
    let mut s = FnStore::new(StoreParams::new(256, 1, 0.25));
    for round in 0..5 {
        s.insert(&[100], round);
        s.insert(&[101], round);
        assert_eq!(s.remove(&[100]), Some(round));
        assert_eq!(s.lookup(&[100]), Lookup::Missing(Some(vec![101])));
        assert_eq!(s.remove(&[101]), Some(round));
        s.check_invariants();
    }
}

#[test]
fn registers_dump_mentions_every_node() {
    let p = StoreParams::new(27, 1, 1.0 / 3.0);
    let mut s = FnStore::new(p);
    for k in [2u64, 4, 5, 19, 24, 25] {
        s.insert(&[k], k);
    }
    let dump = s.registers_dump();
    // R0 plus (d+1) lines per node.
    assert_eq!((dump.len() - 1) % (p.d as usize + 1), 0);
    assert!(dump[0].starts_with("R0:"));
    // The root's parent register is the Null back-pointer.
    assert!(dump.iter().any(|l| l.contains("(-1, Null)")));
    // Successor caches appear with decoded tuples.
    assert!(dump.iter().any(|l| l.contains("(0, [19])")));
}

#[test]
fn with_degree_params() {
    let p = StoreParams::with_degree(27, 1, 3);
    assert_eq!(p.d, 3);
    assert_eq!(p.h, 3);
    let p = StoreParams::with_degree(8, 2, 2);
    assert_eq!(p.h, 3);
    assert_eq!(p.total_digits(), 6);
}

#[test]
fn interleaved_neighbors_consistency() {
    // After every operation, successor/predecessor form a consistent
    // doubly-linked order.
    let mut s = FnStore::new(StoreParams::new(128, 1, 0.3));
    let ops: Vec<(bool, u64)> = vec![
        (true, 64),
        (true, 32),
        (true, 96),
        (false, 64),
        (true, 1),
        (true, 127),
        (false, 32),
        (true, 64),
        (false, 96),
    ];
    for (insert, key) in ops {
        if insert {
            s.insert(&[key], key);
        } else {
            s.remove(&[key]);
        }
        let keys: Vec<u64> = s.iter().into_iter().map(|(k, _)| k[0]).collect();
        for w in keys.windows(2) {
            assert_eq!(s.successor_strict(&[w[0]]), Some(vec![w[1]]));
            assert_eq!(s.predecessor_strict(&[w[1]]), Some(vec![w[0]]));
        }
        s.check_invariants();
    }
}

#[test]
#[should_panic(expected = "key arity mismatch")]
fn arity_mismatch_panics() {
    let mut s = FnStore::new(StoreParams::new(10, 2, 0.5));
    s.insert(&[1], 1);
}

#[test]
fn oversized_keys_rejected() {
    use nd_store::StoreError;
    assert!(matches!(
        StoreParams::try_new(u64::MAX, 4, 0.5),
        Err(StoreError::KeyTooWide { k: 4, .. })
    ));
    assert!(matches!(
        StoreParams::try_new(10, 0, 0.5),
        Err(StoreError::ZeroArity)
    ));
    assert!(matches!(
        StoreParams::try_new(10, 2, f64::NAN),
        Err(StoreError::BadEpsilon(_))
    ));
}

#[test]
#[should_panic(expected = "invalid store parameters")]
fn oversized_keys_panic_via_convenience() {
    StoreParams::new(u64::MAX, 4, 0.5);
}
