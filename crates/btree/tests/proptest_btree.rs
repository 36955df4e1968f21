//! Property tests: the page-oriented B-tree behaves exactly like
//! `std::collections::BTreeMap` under arbitrary operation sequences, while
//! maintaining its structural invariants and never leaking pages.

use cedar_btree::{BTree, BTreeError, MemStore, Node, PageId, PageStore};
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Clone, Debug)]
enum Op {
    Insert(Vec<u8>, Vec<u8>),
    Delete(Vec<u8>),
    Get(Vec<u8>),
    Range(Vec<u8>, Vec<u8>),
}

fn arb_key() -> impl Strategy<Value = Vec<u8>> {
    // Small key space so inserts and deletes collide often.
    (0u32..64).prop_map(|i| format!("k{i:03}").into_bytes())
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        // Entry size 4 + 4 + vlen must stay below the smallest generated
        // page size's max entry: (128 - 3) / 4 = 31.
        (arb_key(), proptest::collection::vec(any::<u8>(), 0..22))
            .prop_map(|(k, v)| Op::Insert(k, v)),
        arb_key().prop_map(Op::Delete),
        arb_key().prop_map(Op::Get),
        (arb_key(), arb_key()).prop_map(|(a, b)| Op::Range(a, b)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matches_std_btreemap(ops in proptest::collection::vec(arb_op(), 1..400), page_size in 128usize..1024) {
        let mut store = MemStore::new(page_size);
        let mut tree = BTree::create(&mut store).unwrap();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();

        for op in &ops {
            match op {
                Op::Insert(k, v) => {
                    let got = tree.insert(&mut store, k, v).unwrap();
                    let want = model.insert(k.clone(), v.clone());
                    prop_assert_eq!(got, want);
                }
                Op::Delete(k) => {
                    let got = tree.delete(&mut store, k).unwrap();
                    let want = model.remove(k);
                    prop_assert_eq!(got, want);
                }
                Op::Get(k) => {
                    let got = tree.get(&mut store, k).unwrap();
                    let want = model.get(k).cloned();
                    prop_assert_eq!(got, want);
                }
                Op::Range(a, b) => {
                    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                    let got = tree.collect_range(&mut store, lo, Some(hi)).unwrap();
                    let want: Vec<_> = model
                        .range::<Vec<u8>, _>(lo.clone()..hi.clone())
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .collect();
                    prop_assert_eq!(got, want);
                }
            }
        }

        tree.check_invariants(&mut store).unwrap();

        // Full scan equals the model, in order.
        let got = tree.collect_range(&mut store, &[], None).unwrap();
        let want: Vec<_> = model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn pages_not_leaked_after_full_delete(
        keys in proptest::collection::btree_set(arb_key(), 1..150),
        page_size in 128usize..512,
    ) {
        let mut store = MemStore::new(page_size);
        let mut tree = BTree::create(&mut store).unwrap();
        for k in &keys {
            tree.insert(&mut store, k, b"some value bytes").unwrap();
        }
        for k in &keys {
            prop_assert!(tree.delete(&mut store, k).unwrap().is_some());
        }
        prop_assert_eq!(tree.len(&mut store).unwrap(), 0);
        // Only the root leaf remains live.
        prop_assert_eq!(store.live_pages(), 1);
    }

    #[test]
    fn invariants_hold_after_every_mutation(
        ops in proptest::collection::vec(arb_op(), 1..120),
    ) {
        let mut store = MemStore::new(192); // Small pages: frequent splits/merges.
        let mut tree = BTree::create(&mut store).unwrap();
        for op in &ops {
            match op {
                Op::Insert(k, v) => {
                    tree.insert(&mut store, k, v).unwrap();
                }
                Op::Delete(k) => {
                    tree.delete(&mut store, k).unwrap();
                }
                _ => continue,
            }
            tree.check_invariants(&mut store).unwrap();
        }
    }
}

// ----- the name table's two primitives ----------------------------------------
//
// Keys below are shaped like the name table's: `name ++ 0 ++ version`,
// every version of a name inside `[name ++ 0, name ++ 1)`.

/// Names that are prefixes of one another sort as neighbours.
const NAMES: [&str; 6] = ["a", "ab", "ab0", "b", "ba", "c"];

fn versioned(name: &str, version: u16) -> Vec<u8> {
    let mut k = name.as_bytes().to_vec();
    k.push(0);
    k.extend_from_slice(&version.to_be_bytes());
    k
}

fn versions_range(name: &str) -> (Vec<u8>, Vec<u8>) {
    let mut lo = name.as_bytes().to_vec();
    lo.push(0);
    let mut hi = name.as_bytes().to_vec();
    hi.push(1);
    (lo, hi)
}

fn version_of(key: &[u8]) -> u16 {
    u16::from_be_bytes([key[key.len() - 2], key[key.len() - 1]])
}

/// The reference: scan the range, keep the last entry.
fn last_by_scan(
    tree: &BTree,
    store: &mut MemStore,
    lo: &[u8],
    hi: &[u8],
) -> Option<(Vec<u8>, Vec<u8>)> {
    tree.collect_range(store, lo, Some(hi)).unwrap().pop()
}

/// The next version of `name` in one routed insert; returns the version.
fn create_routed(tree: &mut BTree, store: &mut MemStore, name: &str, value: &[u8]) -> u16 {
    let (lo, hi) = versions_range(name);
    let mut made = 0;
    let inserted = tree
        .insert_routed(store, &lo, &hi, &mut |newest| {
            made = newest.map_or(1, |(k, _)| version_of(k) + 1);
            Some((versioned(name, made), value.to_vec()))
        })
        .unwrap();
    assert!(inserted);
    made
}

/// The same by probe and plain insert, as the volumes used to do it.
fn create_by_probe(tree: &mut BTree, store: &mut MemStore, name: &str, value: &[u8]) -> u16 {
    let (lo, hi) = versions_range(name);
    let made = last_by_scan(tree, store, &lo, &hi).map_or(1, |(k, _)| version_of(&k) + 1);
    let old = tree.insert(store, &versioned(name, made), value).unwrap();
    assert_eq!(old, None);
    made
}

#[derive(Clone, Debug)]
enum NameOp {
    /// Next version of a name.
    Create(usize, Vec<u8>),
    /// Delete the nth existing version of a name (modulo how many).
    Delete(usize, usize),
    /// Delete every version of a name from the nth up: whole leaves of
    /// it go, and the separators that named them stay.
    DeleteFrom(usize, usize),
    /// Newest version of a name.
    Newest(usize),
    /// `last_in_range` between two arbitrary keys, existing or not.
    Last((usize, u16), (usize, u16)),
}

fn arb_name_op() -> impl Strategy<Value = NameOp> {
    let name = || 0usize..NAMES.len();
    prop_oneof![
        6 => (name(), proptest::collection::vec(any::<u8>(), 0..16))
            .prop_map(|(n, v)| NameOp::Create(n, v)),
        2 => (name(), 0usize..64).prop_map(|(n, i)| NameOp::Delete(n, i)),
        1 => (name(), 0usize..64).prop_map(|(n, i)| NameOp::DeleteFrom(n, i)),
        2 => name().prop_map(NameOp::Newest),
        2 => ((name(), 0u16..40), (name(), 0u16..40)).prop_map(|(a, b)| NameOp::Last(a, b)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // `last_in_range` is the last entry of the range scan, and a routed
    // insert leaves the tree a probe and a plain insert would have — on
    // trees that deletes have been through, whose separators name keys
    // long gone.
    #[test]
    fn routed_ops_match_scan_and_plain_insert(
        ops in proptest::collection::vec(arb_name_op(), 1..300),
        page_size in 128usize..400,
    ) {
        let mut store = MemStore::new(page_size);
        let mut tree = BTree::create(&mut store).unwrap();
        let mut twin_store = MemStore::new(page_size);
        let mut twin = BTree::create(&mut twin_store).unwrap();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        let existing = |model: &BTreeMap<Vec<u8>, Vec<u8>>, name: &str| -> Vec<Vec<u8>> {
            let (lo, hi) = versions_range(name);
            model.range(lo..hi).map(|(k, _)| k.clone()).collect()
        };

        for op in &ops {
            match op {
                NameOp::Create(n, value) => {
                    let name = NAMES[*n];
                    let want = existing(&model, name).last().map_or(1, |k| version_of(k) + 1);
                    prop_assert_eq!(create_routed(&mut tree, &mut store, name, value), want);
                    prop_assert_eq!(create_by_probe(&mut twin, &mut twin_store, name, value), want);
                    model.insert(versioned(name, want), value.clone());
                }
                NameOp::Delete(n, i) | NameOp::DeleteFrom(n, i) => {
                    let keys = existing(&model, NAMES[*n]);
                    if keys.is_empty() {
                        continue;
                    }
                    let from = i % keys.len();
                    let upto = if matches!(op, NameOp::Delete(..)) { from + 1 } else { keys.len() };
                    for key in &keys[from..upto] {
                        let want = model.remove(key);
                        prop_assert_eq!(tree.delete(&mut store, key).unwrap(), want.clone());
                        prop_assert_eq!(twin.delete(&mut twin_store, key).unwrap(), want);
                    }
                }
                NameOp::Newest(n) => {
                    let (lo, hi) = versions_range(NAMES[*n]);
                    let got = tree.last_in_range(&mut store, &lo, &hi).unwrap();
                    prop_assert_eq!(&got, &last_by_scan(&tree, &mut store, &lo, &hi));
                    let want = model.range(lo..hi).next_back().map(|(k, v)| (k.clone(), v.clone()));
                    prop_assert_eq!(got, want);
                }
                NameOp::Last((a, va), (b, vb)) => {
                    let (a, b) = (versioned(NAMES[*a], *va), versioned(NAMES[*b], *vb));
                    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                    let got = tree.last_in_range(&mut store, &lo, &hi).unwrap();
                    prop_assert_eq!(got, last_by_scan(&tree, &mut store, &lo, &hi));
                }
            }
        }

        tree.check_invariants(&mut store).unwrap();
        twin.check_invariants(&mut twin_store).unwrap();
        let got = tree.collect_range(&mut store, &[], None).unwrap();
        let want: Vec<_> = model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(twin.collect_range(&mut twin_store, &[], None).unwrap(), want);
        // Not just the same entries: the same pages.
        prop_assert_eq!(store.live_pages(), twin_store.live_pages());
    }
}

/// The tree's shape, read through the store: every leaf's keys in key
/// order, every separator, and the height (a lone root leaf is 1).
struct Shape {
    leaves: Vec<Vec<Vec<u8>>>,
    separators: Vec<Vec<u8>>,
    height: u64,
}

fn shape(tree: &BTree, store: &mut MemStore) -> Shape {
    fn walk(store: &mut MemStore, id: PageId, depth: u64, out: &mut Shape) {
        match store.with_page(id, Node::decode).unwrap().unwrap() {
            Node::Leaf(entries) => {
                out.leaves
                    .push(entries.into_iter().map(|(k, _)| k).collect());
                out.height = depth;
            }
            Node::Internal { keys, children } => {
                out.separators.extend(keys);
                for child in children {
                    walk(store, child, depth + 1, out);
                }
            }
        }
    }
    let mut out = Shape {
        leaves: Vec::new(),
        separators: Vec::new(),
        height: 0,
    };
    walk(store, tree.root(), 1, &mut out);
    out
}

/// `(reads, writes)` that `f` cost the store.
fn cost<T>(store: &mut MemStore, f: impl FnOnce(&mut MemStore) -> T) -> (T, u64, u64) {
    let before = store.ops;
    let out = f(store);
    (out, store.ops.0 - before.0, store.ops.1 - before.1)
}

/// A tree of `versions` versions of "m" between neighbours on both
/// sides, filler values sized so a leaf holds a handful of entries.
fn versions_tree(page_size: usize, versions: u16) -> (BTree, MemStore) {
    let mut store = MemStore::new(page_size);
    let mut tree = BTree::create(&mut store).unwrap();
    for name in ["k", "l", "m2", "n", "o"] {
        for v in 1..=12 {
            tree.insert(&mut store, &versioned(name, v), b"neighbour")
                .unwrap();
        }
    }
    for _ in 0..versions {
        create_routed(&mut tree, &mut store, "m", b"0123456789");
    }
    tree.check_invariants(&mut store).unwrap();
    (tree, store)
}

#[test]
fn a_lone_root_leaf_and_empty_ranges() {
    let mut store = MemStore::new(256);
    let mut tree = BTree::create(&mut store).unwrap();
    let (lo, hi) = versions_range("m");
    assert_eq!(tree.last_in_range(&mut store, &lo, &hi).unwrap(), None);
    // An empty tree takes version 1, and a builder that declines leaves
    // the tree alone.
    assert_eq!(create_routed(&mut tree, &mut store, "m", b"x"), 1);
    let written = store.ops.1;
    let declined = tree.insert_routed(&mut store, &lo, &hi, &mut |newest| {
        assert_eq!(newest.map(|(k, _)| version_of(k)), Some(1));
        None
    });
    assert_eq!((declined, store.ops.1), (Ok(false), written));
    // Neighbours on both sides, then the empty range between them.
    assert_eq!(create_routed(&mut tree, &mut store, "l", b"x"), 1);
    assert_eq!(create_routed(&mut tree, &mut store, "n", b"x"), 1);
    assert_eq!(create_routed(&mut tree, &mut store, "m", b"y"), 2);
    let (lo, hi) = versions_range("m1");
    assert_eq!(tree.last_in_range(&mut store, &lo, &hi).unwrap(), None);
    assert_eq!(tree.last_in_range(&mut store, &hi, &lo).unwrap(), None);
    assert_eq!(shape(&tree, &mut store).height, 1);
    assert_eq!(tree.len(&mut store).unwrap(), 4);
    // A key outside the range it was routed by is refused, not misfiled.
    let (lo, hi) = versions_range("m");
    for bad in [versioned("m", 2), versioned("m", 1), versioned("n", 7)] {
        let r = tree.insert_routed(&mut store, &lo, &hi, &mut |_| Some((bad.clone(), vec![])));
        assert!(r.is_err(), "{bad:?}");
    }
    assert_eq!(tree.len(&mut store).unwrap(), 4);
    tree.check_invariants(&mut store).unwrap();
}

#[test]
fn ranges_that_end_at_a_leaf_boundary_or_a_separator() {
    let (tree, mut store) = versions_tree(128, 60);
    let shape = shape(&tree, &mut store);
    assert!(shape.height >= 3 && shape.leaves.len() > 8);
    // `hi` equal to each separator: the answer is the last key of the
    // leaf to its left. `hi` just past each leaf's last key: that key.
    for sep in &shape.separators {
        let got = tree.last_in_range(&mut store, &[], sep).unwrap();
        assert_eq!(got, last_by_scan(&tree, &mut store, &[], sep));
        assert!(got.is_some_and(|(k, _)| shape.leaves.iter().any(|l| l.last() == Some(&k))));
    }
    for leaf in &shape.leaves {
        let (first, last) = (&leaf[0], &leaf[leaf.len() - 1]);
        let mut hi = last.clone();
        hi.push(0);
        let got = tree.last_in_range(&mut store, first, &hi).unwrap();
        assert_eq!(got.map(|(k, _)| k).as_ref(), Some(last));
        // Exclusive above, inclusive below.
        let got = tree.last_in_range(&mut store, first, first).unwrap();
        assert_eq!(got, None);
        let got = tree.last_in_range(&mut store, last, &hi).unwrap();
        assert_eq!(got.map(|(k, _)| k).as_ref(), Some(last));
    }
}

/// A separator that outlived its keys routes the end of the name's range
/// into a leaf with nothing of the name left in it. The lookup goes one
/// leaf left for its answer; the insert is redone as probe + insert, and
/// lands in whichever leaf the new key belongs to.
#[test]
fn a_stale_separator_forces_the_fallback() {
    const VERSIONS: u16 = 100;
    let (mut tree, mut store) = versions_tree(192, VERSIONS);
    let (lo, hi) = versions_range("m");
    let before = shape(&tree, &mut store);
    // The last leaf that starts with a version of "m": its first key is
    // a separator. It also holds the first of "m2", which will keep it
    // from emptying.
    let stale = before
        .leaves
        .iter()
        .rev()
        .find(|l| l[0].starts_with(&lo) && l[0] < hi)
        .map(|l| l[0].clone())
        .expect("a leaf that starts inside the name");
    assert!(before.separators.contains(&stale));
    let first_gone = version_of(&stale);
    assert!(first_gone > 3);
    // Delete that version and two below it, and everything above.
    for v in first_gone - 2..=VERSIONS {
        tree.delete(&mut store, &versioned("m", v))
            .unwrap()
            .expect("was there");
    }
    tree.check_invariants(&mut store).unwrap();
    let after = shape(&tree, &mut store);
    assert!(after.separators.contains(&stale), "the separator stayed");
    assert_eq!((before.height, after.height), (3, 3));
    let h = after.height;

    // The lookup: right, and one extra read for the leaf to the left.
    let (got, reads, _) = cost(&mut store, |s| tree.last_in_range(s, &lo, &hi).unwrap());
    assert_eq!(got, last_by_scan(&tree, &mut store, &lo, &hi));
    assert_eq!(got.map(|(k, _)| version_of(&k)), Some(first_gone - 3));
    assert!(reads > h && reads <= 2 * h, "{reads} reads at height {h}");

    // The insert: the next two versions sort *below* the stale
    // separator, into the left leaf; the third is the separator itself
    // and goes right. All by the fallback but the last, which finds its
    // predecessor where the walk ends.
    for (version, by_fallback) in [
        (first_gone - 2, true),
        (first_gone - 1, true),
        (first_gone, true),
        (first_gone + 1, false),
    ] {
        let (made, reads, _) = cost(&mut store, |s| create_routed(&mut tree, s, "m", b"new"));
        assert_eq!(made, version);
        assert_eq!(reads > h, by_fallback, "version {version}: {reads} reads");
        tree.check_invariants(&mut store).unwrap();
    }
    let all = tree.collect_range(&mut store, &lo, Some(&hi)).unwrap();
    let versions: Vec<u16> = all.iter().map(|(k, _)| version_of(k)).collect();
    assert_eq!(versions, (1..=first_gone + 1).collect::<Vec<_>>());
}

/// What the name table pays per operation, in node visits, at height 3:
/// newest-version lookup `h` reads; next-version insert `h` reads and one
/// write; delete `h` reads and one write, the root not read again.
#[test]
fn one_walk_per_operation_at_height_three() {
    let (mut tree, mut store) = versions_tree(256, 300);
    let (lo, hi) = versions_range("m");
    let shape = shape(&tree, &mut store);
    assert_eq!(shape.height, 3);
    let spanned = shape
        .leaves
        .iter()
        .filter(|l| l.iter().any(|k| k.starts_with(&lo)))
        .count() as u64;
    assert!(spanned > 30, "300 versions over {spanned} leaves");

    let (newest, reads, writes) = cost(&mut store, |s| tree.last_in_range(s, &lo, &hi).unwrap());
    assert_eq!(newest.map(|(k, _)| version_of(&k)), Some(300));
    assert_eq!((reads, writes), (3, 0));
    // The scan it replaces reads every leaf the name spans.
    let (_, scan_reads, _) = cost(&mut store, |s| last_by_scan(&tree, s, &lo, &hi));
    assert!(scan_reads >= spanned + 2, "{scan_reads} reads");

    // An insert that does not split: one walk, one leaf written.
    let allocs = store.ops.2;
    let (made, reads, writes) = cost(&mut store, |s| create_routed(&mut tree, s, "m", b"v"));
    assert_eq!((made, store.ops.2 - allocs), (301, 0));
    assert_eq!((reads, writes), (3, 1));

    // A delete that does not underflow: one walk, one leaf written, and
    // no second look at the root.
    let (old, reads, writes) = cost(&mut store, |s| {
        tree.delete(s, &versioned("m", 301)).unwrap()
    });
    assert_eq!(old, Some(b"v".to_vec()));
    assert_eq!((reads, writes), (3, 1));
    // A miss reads its way down and writes nothing.
    let (old, reads, writes) = cost(&mut store, |s| {
        tree.delete(s, &versioned("m", 999)).unwrap()
    });
    assert_eq!((old, reads, writes), (None, 3, 0));

    // Deleting everything still collapses the root when merges empty it.
    let all = tree.collect_range(&mut store, &[], None).unwrap();
    for (k, _) in &all {
        tree.delete(&mut store, k).unwrap().expect("was there");
    }
    assert_eq!(store.live_pages(), 1);
    tree.check_invariants(&mut store).unwrap();
}

// ----- lookups read nodes in place ---------------------------------------------
//
// `get` and `last_in_range` route through each node's bytes without
// decoding it. They must answer as the model
// does on any history — including separators that outlived their keys —
// and on a rotten page answer or fail typed, never panic.

#[derive(Clone, Debug)]
enum ModelOp {
    /// Insert `name`'s version.
    Insert(usize, u16, Vec<u8>),
    /// Delete `name`'s version, if present.
    Delete(usize, u16),
    /// Delete every version of `name` from this one up: whole leaves go,
    /// and the separators that named them stay.
    DeleteFrom(usize, u16),
}

fn arb_model_op() -> impl Strategy<Value = ModelOp> {
    let name = || 0usize..NAMES.len();
    prop_oneof![
        6 => (name(), 0u16..60, proptest::collection::vec(any::<u8>(), 0..16))
            .prop_map(|(n, v, d)| ModelOp::Insert(n, v, d)),
        2 => (name(), 0u16..60).prop_map(|(n, v)| ModelOp::Delete(n, v)),
        1 => (name(), 0u16..60).prop_map(|(n, v)| ModelOp::DeleteFrom(n, v)),
    ]
}

/// Every probe the lookups are checked with: each name's versions and
/// the keys between them, and each name's whole range.
fn probes() -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut out = Vec::new();
    for name in NAMES {
        out.push(versions_range(name));
        for v in (0u16..62).step_by(3) {
            out.push((versioned(name, v), versioned(name, v + 2)));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn in_place_lookups_match_a_model(
        ops in proptest::collection::vec(arb_model_op(), 1..300),
        page_size in 128usize..384,
    ) {
        let mut store = MemStore::new(page_size);
        let mut tree = BTree::create(&mut store).unwrap();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for op in &ops {
            match op {
                ModelOp::Insert(n, v, data) => {
                    let key = versioned(NAMES[*n], *v);
                    tree.insert(&mut store, &key, data).unwrap();
                    model.insert(key, data.clone());
                }
                ModelOp::Delete(n, v) => {
                    let key = versioned(NAMES[*n], *v);
                    prop_assert_eq!(tree.delete(&mut store, &key).unwrap(), model.remove(&key));
                }
                ModelOp::DeleteFrom(n, v) => {
                    let (_, hi) = versions_range(NAMES[*n]);
                    let gone: Vec<_> = model
                        .range(versioned(NAMES[*n], *v)..hi)
                        .map(|(k, _)| k.clone())
                        .collect();
                    for key in gone {
                        prop_assert!(tree.delete(&mut store, &key).unwrap().is_some());
                        model.remove(&key);
                    }
                }
            }
        }
        for (lo, hi) in probes() {
            prop_assert_eq!(tree.get(&mut store, &lo).unwrap(), model.get(&lo).cloned());
            let want = model
                .range(lo.clone()..hi.clone())
                .next_back()
                .map(|(k, v)| (k.clone(), v.clone()));
            prop_assert_eq!(tree.last_in_range(&mut store, &lo, &hi).unwrap(), want);
        }
        for key in model.keys() {
            prop_assert_eq!(tree.get(&mut store, key).unwrap(), model.get(key).cloned());
        }
    }
}

/// A [`MemStore`] that hands back one page rotten — cut short to `cut`
/// bytes, or with byte `flip.0` xored by `flip.1` — and fails a walk
/// after `budget` reads (a flipped child id can close a cycle).
struct Rotten {
    inner: MemStore,
    page: PageId,
    cut: usize,
    flip: Option<(usize, u8)>,
    budget: u64,
}

impl PageStore for Rotten {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn with_page<R>(
        &mut self,
        id: PageId,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R, cedar_btree::StoreError> {
        if self.budget == 0 {
            return Err(cedar_btree::StoreError::Io("read budget spent".into()));
        }
        self.budget -= 1;
        let Rotten {
            inner,
            page,
            cut,
            flip,
            ..
        } = self;
        inner.with_page(id, |bytes| {
            if id != *page {
                return f(bytes);
            }
            let mut rotten = bytes[..(*cut).min(bytes.len())].to_vec();
            if let Some((at, mask)) = *flip {
                if let Some(b) = rotten.get_mut(at) {
                    *b ^= mask;
                }
            }
            f(&rotten)
        })
    }

    fn write_page(&mut self, id: PageId, data: &[u8]) -> Result<(), cedar_btree::StoreError> {
        self.inner.write_page(id, data)
    }

    fn alloc_page(&mut self) -> Result<PageId, cedar_btree::StoreError> {
        self.inner.alloc_page()
    }

    fn free_page(&mut self, id: PageId) -> Result<(), cedar_btree::StoreError> {
        self.inner.free_page(id)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn a_rotten_page_fails_typed_never_panics(
        which in 0usize..64,
        cut in 0usize..200,
        flip in (0usize..192, 1u8..255),
        flipped in any::<bool>(),
    ) {
        let (tree, store) = versions_tree(192, 60);
        let mut pages = Vec::new();
        let mut shape_store = store.clone();
        fn ids(store: &mut MemStore, id: PageId, out: &mut Vec<PageId>) {
            out.push(id);
            if let Node::Internal { children, .. } = store.with_page(id, Node::decode).unwrap().unwrap() {
                for child in children {
                    ids(store, child, out);
                }
            }
        }
        ids(&mut shape_store, tree.root(), &mut pages);
        let page = pages[which % pages.len()];
        let mut rotten = Rotten {
            inner: store,
            page,
            cut: if flipped { 192 } else { cut },
            flip: flipped.then_some(flip),
            budget: 0,
        };
        for (lo, hi) in probes().into_iter().chain([(Vec::new(), vec![0xFF])]) {
            rotten.budget = 64;
            let got = tree.get(&mut rotten, &lo);
            prop_assert!(!matches!(got, Err(BTreeError::EntryTooLarge { .. })), "{:?}", got);
            rotten.budget = 64;
            let last = tree.last_in_range(&mut rotten, &lo, &hi);
            prop_assert!(!matches!(last, Err(BTreeError::EntryTooLarge { .. })), "{:?}", last);
            // A root cut inside its header is no node at all.
            if page == tree.root() && !flipped && cut < 3 {
                prop_assert!(matches!(got, Err(BTreeError::Corrupt(_))), "{:?}", got);
                prop_assert!(matches!(last, Err(BTreeError::Corrupt(_))), "{:?}", last);
            }
        }
    }
}

/// Every cut of every page of a height-3 tree: a walk that reads a cell
/// past the cut fails `Corrupt`, naming the page; one that does not
/// still answers as the intact tree does.
#[test]
fn a_truncated_page_is_corrupt_wherever_a_walk_reads_past_it() {
    let (tree, store) = versions_tree(192, 60);
    let (lo, hi) = versions_range("m");
    let mut intact = store.clone();
    let want_last = tree.last_in_range(&mut intact, &lo, &hi).unwrap();
    let want_get = tree.get(&mut intact, &versioned("m", 30)).unwrap();
    for page in 0..store.live_pages() as PageId + 8 {
        for cut in 0..192 {
            let mut rotten = Rotten {
                inner: store.clone(),
                page,
                cut,
                flip: None,
                budget: 64,
            };
            match tree.last_in_range(&mut rotten, &lo, &hi) {
                Ok(last) => assert_eq!(last, want_last, "page {page} cut {cut}"),
                Err(BTreeError::Corrupt(msg)) => {
                    assert!(msg.starts_with(&format!("page {page}:")), "{msg}")
                }
                Err(e) => panic!("page {page} cut {cut}: {e}"),
            }
            rotten.budget = 64;
            match tree.get(&mut rotten, &versioned("m", 30)) {
                Ok(got) => assert_eq!(got, want_get, "page {page} cut {cut}"),
                Err(BTreeError::Corrupt(msg)) => {
                    assert!(msg.starts_with(&format!("page {page}:")), "{msg}")
                }
                Err(e) => panic!("page {page} cut {cut}: {e}"),
            }
        }
    }
}
