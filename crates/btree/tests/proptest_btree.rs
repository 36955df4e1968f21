//! Property tests: the page-oriented B-tree behaves exactly like
//! `std::collections::BTreeMap` under arbitrary operation sequences, while
//! maintaining its structural invariants and never leaking pages.

use cedar_btree::{BTree, BTreeError, Entry, MemStore, Node, PageId, PageStore};
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

/// Whether the walk routed by `hi` ends at a leaf with nothing below
/// `hi`: what sends a routed edit to its fallback.
fn astray(tree: &BTree, store: &mut MemStore, hi: &[u8]) -> bool {
    let mut id = tree.root();
    loop {
        match store.with_page(id, Node::decode).unwrap().unwrap() {
            Node::Leaf(entries) => return entries.iter().all(|(k, _)| k.as_slice() >= hi),
            Node::Internal { keys, children } => {
                id = children[keys.partition_point(|sep| sep.as_slice() < hi)];
            }
        }
    }
}

/// The newest version of `name` out by one routed delete, and whether
/// its walk fell back. The fallback is counted by reads: one walk reads
/// what the plain delete of that version reads, made on a copy of the
/// store (`h`, the tree's height, when there is none); the fallback
/// reads `h` more than a lookup plus that plain delete, and is taken
/// exactly when the walk ends [`astray`]. Either way the tree ends as
/// the copy's does.
fn delete_newest(tree: &mut BTree, store: &mut MemStore, name: &str) -> (Option<u16>, bool) {
    let (lo, hi) = versions_range(name);
    let (got, fell_back) = delete_last_in_range(tree, store, &lo, &hi);
    (got.map(|(k, _)| version_of(&k)), fell_back)
}

/// The greatest entry in `[lo, hi)` out by one routed delete, checked
/// and counted as [`delete_newest`] says.
fn delete_last_in_range(
    tree: &mut BTree,
    store: &mut MemStore,
    lo: &[u8],
    hi: &[u8],
) -> (Option<Entry>, bool) {
    let h = shape(tree, &mut store.clone()).height;
    let predicted = astray(tree, &mut store.clone(), hi);
    let (mut copy, mut plain) = (store.clone(), *tree);
    let (newest, probe_reads, _) = cost(&mut copy, |s| plain.last_in_range(s, lo, hi).unwrap());
    let (_, delete_reads, _) = cost(&mut copy, |s| {
        if let Some((key, value)) = &newest {
            assert_eq!(plain.delete(s, key).unwrap().as_ref(), Some(value));
        }
    });
    let (got, reads, _) = cost(store, |s| {
        tree.delete_routed(s, lo, hi, &mut |_, _| true).unwrap()
    });
    assert_eq!(got, newest);
    let one_walk = if newest.is_some() { delete_reads } else { h };
    let fallback = h + probe_reads + delete_reads;
    assert!(
        reads == one_walk || reads == fallback,
        "{hi:?}: {reads} reads, neither one walk ({one_walk}) nor the fallback ({fallback})"
    );
    assert_eq!(reads == fallback, predicted, "{hi:?}: {reads} reads");
    assert_eq!(tree.root(), plain.root());
    assert_eq!(
        tree.collect_range(store, &[], None).unwrap(),
        plain.collect_range(&mut copy, &[], None).unwrap()
    );
    assert_eq!(store.live_pages(), copy.live_pages());
    (got, reads == fallback)
}

/// The same by probe and plain delete, as the volumes used to do it.
fn delete_newest_by_probe(tree: &mut BTree, store: &mut MemStore, name: &str) -> Option<u16> {
    let (lo, hi) = versions_range(name);
    let (key, value) = last_by_scan(tree, store, &lo, &hi)?;
    assert_eq!(tree.delete(store, &key).unwrap(), Some(value));
    Some(version_of(&key))
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
    /// Delete the newest version of a name, by routed delete.
    DeleteNewest(usize),
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
        2 => name().prop_map(NameOp::DeleteNewest),
        2 => name().prop_map(NameOp::Newest),
        2 => ((name(), 0u16..40), (name(), 0u16..40)).prop_map(|(a, b)| NameOp::Last(a, b)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // `last_in_range` is the last entry of the range scan, and a routed
    // insert or delete leaves the tree a probe and a plain insert or
    // delete would have — on trees that deletes have been through, whose
    // separators name keys long gone. Every routed delete is one walk or
    // the counted fallback, and names that are prefixes of one another
    // put a neighbour's keys in the leaf a walk ends at.
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
                NameOp::DeleteNewest(n) => {
                    let name = NAMES[*n];
                    let want = existing(&model, name).last().map(|k| version_of(k));
                    let (got, _) = delete_newest(&mut tree, &mut store, name);
                    prop_assert_eq!(got, want);
                    prop_assert_eq!(delete_newest_by_probe(&mut twin, &mut twin_store, name), want);
                    if let Some(version) = want {
                        model.remove(&versioned(name, version));
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
/// lands in whichever leaf the new key belongs to; the delete is redone
/// as probe + delete.
#[test]
fn a_stale_separator_forces_the_fallback() {
    // A version appended to a full leaf starts the next one, so the
    // leaves fill: three levels at 192-byte pages take 200 versions.
    const VERSIONS: u16 = 200;
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

    // The deletes walk back down: the two versions in the leaf the walk
    // ends at go in one walk each, and with them gone the walk ends
    // astray again and the next goes by the fallback.
    for (version, by_fallback) in [
        (first_gone + 1, false),
        (first_gone, false),
        (first_gone - 1, true),
    ] {
        let (gone, fell_back) = delete_newest(&mut tree, &mut store, "m");
        assert_eq!((gone, fell_back), (Some(version), by_fallback));
        tree.check_invariants(&mut store).unwrap();
    }
    assert!(shape(&tree, &mut store).separators.contains(&stale));
    let left = tree.collect_range(&mut store, &lo, Some(&hi)).unwrap();
    assert_eq!(left.len(), usize::from(first_gone - 2));

    // Astray again: a delete declined on the entry the fallback found
    // writes nothing.
    assert!(astray(&tree, &mut store.clone(), &hi));
    let mut shown = Vec::new();
    let (gone, _, writes) = cost(&mut store, |s| {
        tree.delete_routed(s, &lo, &hi, &mut |k, _| {
            shown.push(version_of(k));
            false
        })
        .unwrap()
    });
    assert_eq!((gone, writes, shown), (None, 0, vec![first_gone - 2]));
    assert_eq!(
        tree.collect_range(&mut store, &lo, Some(&hi)).unwrap(),
        left
    );
}

/// What the name table pays per operation, in node visits, at height 3:
/// newest-version lookup `h` reads; next-version insert `h` reads and one
/// write; delete of the newest version or of a version named `h` reads
/// and one write, the root not read again; a miss `h` reads.
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
    // Full leaves: 14 versions to a 256-byte page.
    assert!(spanned > 20, "300 versions over {spanned} leaves");

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

    // A delete its caller declines on the entry shown reads its way down
    // and writes nothing.
    let before = tree.collect_range(&mut store, &[], None).unwrap();
    let mut shown = Vec::new();
    let (old, reads, writes) = cost(&mut store, |s| {
        tree.delete_routed(s, &lo, &hi, &mut |k, _| {
            shown.push(version_of(k));
            false
        })
        .unwrap()
    });
    assert_eq!((old, reads, writes, shown), (None, 3, 0, vec![301]));
    let (old, reads, writes) = cost(&mut store, |s| {
        tree.delete_if(s, &versioned("m", 300), &mut |_, _| false)
            .unwrap()
    });
    assert_eq!((old, reads, writes), (None, 3, 0));
    assert_eq!(tree.collect_range(&mut store, &[], None).unwrap(), before);

    // A delete that does not underflow: one walk, one leaf written, and
    // no second look at the root — the newest version, found and
    // removed in the walk routed by the end of the name's range ...
    let (old, reads, writes) = cost(&mut store, |s| {
        tree.delete_routed(s, &lo, &hi, &mut |_, _| true).unwrap()
    });
    assert_eq!(old, Some((versioned("m", 301), b"v".to_vec())));
    assert_eq!((reads, writes), (3, 1));
    // ... or a version named.
    let (old, reads, writes) = cost(&mut store, |s| {
        tree.delete(s, &versioned("m", 300)).unwrap()
    });
    assert_eq!(old, Some(b"0123456789".to_vec()));
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

impl Rotten {
    /// A copy to edit, rotting the same page the same way.
    fn copy(&self, budget: u64) -> Rotten {
        Rotten {
            inner: self.inner.clone(),
            budget,
            ..*self
        }
    }
}

/// What each walk that reads on the way to an edit made of `[lo, hi)`,
/// each on its own copy of `rotten`: `insert` and `delete` of `lo`, a
/// routed insert into the range and a routed delete from it, and a scan
/// of it.
fn edit_walks(
    tree: &BTree,
    rotten: &Rotten,
    lo: &[u8],
    hi: &[u8],
) -> Vec<Result<String, BTreeError>> {
    let mut out = Vec::new();
    let mut t = *tree;
    out.push(
        t.insert(&mut rotten.copy(64), lo, b"new")
            .map(|old| format!("{old:?}")),
    );
    let mut t = *tree;
    out.push(
        t.delete(&mut rotten.copy(64), lo)
            .map(|old| format!("{old:?}")),
    );
    let mut t = *tree;
    let mut build = |shown: Option<(&[u8], &[u8])>| {
        let mut key = shown.map_or(lo.to_vec(), |(k, _)| k.to_vec());
        if shown.is_some() {
            key.push(0);
        }
        Some((key, b"new".to_vec()))
    };
    let routed = t.insert_routed(&mut rotten.copy(64), lo, hi, &mut build);
    out.push(routed.map(|done| format!("{done}")));
    let mut t = *tree;
    out.push(
        t.delete_routed(&mut rotten.copy(64), lo, hi, &mut |_, _| true)
            .map(|gone| format!("{gone:?}")),
    );
    let mut seen = Vec::new();
    let scan = tree.for_each_range(&mut rotten.copy(64), lo, Some(hi), &mut |k, _| {
        seen.push(k.to_vec());
        true
    });
    out.push(scan.map(|()| format!("{seen:?}")));
    out
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
            // The edits read the same pages on their way down, and
            // splice into or split what they read.
            let edits = edit_walks(&tree, &rotten, &lo, &hi);
            for edit in &edits {
                prop_assert!(!matches!(edit, Err(BTreeError::EntryTooLarge { .. })), "{:?}", edit);
            }
            // A root cut inside its header is no node at all.
            if page == tree.root() && !flipped && cut < 3 {
                prop_assert!(matches!(got, Err(BTreeError::Corrupt(_))), "{:?}", got);
                prop_assert!(matches!(last, Err(BTreeError::Corrupt(_))), "{:?}", last);
                for edit in &edits {
                    prop_assert!(matches!(edit, Err(BTreeError::Corrupt(_))), "{:?}", edit);
                }
            }
        }
    }
}

/// Every cut of every page of a height-3 tree: a walk that reads a cell
/// past the cut fails `Corrupt`, naming the page; one that does not
/// still answers as the intact tree does — lookups, and the edits and
/// the scan as well.
#[test]
fn a_truncated_page_is_corrupt_wherever_a_walk_reads_past_it() {
    let (tree, store) = versions_tree(192, 60);
    let (lo, hi) = versions_range("m");
    let mut intact = store.clone();
    let want_last = tree.last_in_range(&mut intact, &lo, &hi).unwrap();
    let want_get = tree.get(&mut intact, &versioned("m", 30)).unwrap();
    let (key, next) = (versioned("m", 30), versioned("m", 31));
    let intact = Rotten {
        inner: store.clone(),
        page: PageId::MAX,
        cut: 0,
        flip: None,
        budget: 0,
    };
    let want_edits = edit_walks(&tree, &intact, &key, &next);
    assert!(want_edits.iter().all(Result::is_ok), "{want_edits:?}");
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
            let edits = edit_walks(&tree, &rotten, &key, &next);
            for (edit, want) in edits.into_iter().zip(&want_edits) {
                match edit {
                    Ok(got) => assert_eq!(Ok(&got), want.as_ref(), "page {page} cut {cut}"),
                    Err(BTreeError::Corrupt(msg)) => {
                        assert!(msg.starts_with(&format!("page {page}:")), "{msg}")
                    }
                    Err(e) => panic!("page {page} cut {cut}: {e}"),
                }
            }
        }
    }
}

// ----- edits match the decoding reference, call for call --------------------
//
// `insert`, `insert_routed`, `delete` and `delete_routed` must ask the
// store for exactly what the decode → edit → `Node::encode` path below
// asks: the same reads, writes, allocations and frees in the same order,
// every written page byte for byte the same. That is what keeps every simulated
// charge, cache stamp and log image of the volumes above unchanged.

/// The edits as they were made before nodes were edited in place: every
/// node on the path decoded to vectors, edited, and re-encoded whole.
mod reference {
    use cedar_btree::{BTree, BTreeError, BuildEntry, Entry, Node, PageId, PageStore};

    type R<T> = Result<T, BTreeError>;

    struct Split {
        sep: Vec<u8>,
        right: PageId,
    }

    enum Routed {
        Inserted(Option<Split>),
        Declined,
        Astray,
    }

    fn load<S: PageStore>(store: &mut S, id: PageId) -> R<Node> {
        store
            .with_page(id, Node::decode)?
            .map_err(|e| BTreeError::Corrupt(format!("page {id}: {e}")))
    }

    fn save<S: PageStore>(store: &mut S, id: PageId, node: &Node) -> R<()> {
        store.write_page(id, &node.encode(store.page_size()))?;
        Ok(())
    }

    fn check_entry_size<S: PageStore>(store: &S, key: &[u8], value: &[u8]) -> R<()> {
        let (size, max) = (
            4 + key.len() + value.len(),
            BTree::max_entry_size(store.page_size()),
        );
        if size > max {
            return Err(BTreeError::EntryTooLarge { size, max });
        }
        Ok(())
    }

    fn grow_root<S: PageStore>(root: &mut PageId, store: &mut S, split: Option<Split>) -> R<()> {
        let Some(split) = split else { return Ok(()) };
        let new_root = store.alloc_page()?;
        let node = Node::Internal {
            keys: vec![split.sep],
            children: vec![*root, split.right],
        };
        save(store, new_root, &node)?;
        *root = new_root;
        Ok(())
    }

    pub fn insert<S: PageStore>(
        root: &mut PageId,
        store: &mut S,
        key: &[u8],
        value: &[u8],
    ) -> R<Option<Vec<u8>>> {
        check_entry_size(store, key, value)?;
        let (old, split) = insert_rec(store, *root, key, value, None)?;
        grow_root(root, store, split)?;
        Ok(old)
    }

    /// `bound` is the separator right of the subtree at `id`, if any.
    fn insert_rec<S: PageStore>(
        store: &mut S,
        id: PageId,
        key: &[u8],
        value: &[u8],
        bound: Option<&[u8]>,
    ) -> R<(Option<Vec<u8>>, Option<Split>)> {
        match load(store, id)? {
            Node::Leaf(mut entries) => {
                let (old, at) = match entries.binary_search_by(|(k, _)| k.as_slice().cmp(key)) {
                    Ok(i) => (
                        Some(std::mem::replace(&mut entries[i].1, value.to_vec())),
                        i,
                    ),
                    Err(i) => {
                        entries.insert(i, (key.to_vec(), value.to_vec()));
                        (None, i)
                    }
                };
                Ok((old, save_leaf(store, id, entries, at, bound)?))
            }
            Node::Internal { keys, children } => {
                let idx = keys.partition_point(|sep| sep.as_slice() <= key);
                let bound = keys.get(idx).map(Vec::as_slice).or(bound);
                let (old, split) = insert_rec(store, children[idx], key, value, bound)?;
                let split = match split {
                    Some(cs) => adopt_split(store, id, keys, children, idx, cs)?,
                    None => None,
                };
                Ok((old, split))
            }
        }
    }

    /// The shortest key above `left` and at most `right`.
    pub fn separator(left: &[u8], right: &[u8]) -> Vec<u8> {
        (1..=right.len())
            .map(|n| right[..n].to_vec())
            .find(|s| s.as_slice() > left)
            .expect("right is above left")
    }

    fn shared(a: &[u8], b: &[u8]) -> usize {
        a.iter().zip(b).take_while(|(x, y)| x == y).count()
    }

    /// Where an overfull leaf splits, `entries[at]` the entry just put
    /// in: after it (before it when it is last) when it is nearer its
    /// predecessor than its successor and neither half overflows, the
    /// leaf not the rightmost; else at half the payload.
    fn split_point(entries: &[Entry], at: usize, bound: Option<&[u8]>, page_size: usize) -> usize {
        let size = |e: &[Entry]| Node::Leaf(e.to_vec()).encoded_size();
        if let (Some(bound), true) = (bound, at > 0) {
            let next = entries.get(at + 1).map_or(bound, |(k, _)| k.as_slice());
            let key = entries[at].0.as_slice();
            if shared(key, &entries[at - 1].0) > shared(key, next) {
                let cut = if at + 1 == entries.len() { at } else { at + 1 };
                if size(&entries[..cut]) <= page_size && size(&entries[cut..]) <= page_size {
                    return cut;
                }
            }
        }
        let total: usize = entries.iter().map(|(k, v)| 4 + k.len() + v.len()).sum();
        let (mut acc, mut cut) = (0, entries.len() - 1);
        for (i, (k, v)) in entries.iter().enumerate() {
            acc += 4 + k.len() + v.len();
            if acc >= total / 2 && i + 1 < entries.len() {
                cut = i + 1;
                break;
            }
        }
        cut.max(1)
    }

    fn save_leaf<S: PageStore>(
        store: &mut S,
        id: PageId,
        entries: Vec<(Vec<u8>, Vec<u8>)>,
        at: usize,
        bound: Option<&[u8]>,
    ) -> R<Option<Split>> {
        let page_size = store.page_size();
        let node = Node::Leaf(entries);
        if node.fits(page_size) {
            save(store, id, &node)?;
            return Ok(None);
        }
        let Node::Leaf(entries) = node else {
            unreachable!()
        };
        let cut = split_point(&entries, at, bound, page_size);
        let mut left = entries;
        let right = left.split_off(cut);
        let sep = separator(&left[left.len() - 1].0, &right[0].0);
        let right_id = store.alloc_page()?;
        save(store, right_id, &Node::Leaf(right))?;
        save(store, id, &Node::Leaf(left))?;
        Ok(Some(Split {
            sep,
            right: right_id,
        }))
    }

    fn adopt_split<S: PageStore>(
        store: &mut S,
        id: PageId,
        mut keys: Vec<Vec<u8>>,
        mut children: Vec<PageId>,
        idx: usize,
        child: Split,
    ) -> R<Option<Split>> {
        keys.insert(idx, child.sep);
        children.insert(idx + 1, child.right);
        save_internal(store, id, keys, children)
    }

    fn save_internal<S: PageStore>(
        store: &mut S,
        id: PageId,
        keys: Vec<Vec<u8>>,
        children: Vec<PageId>,
    ) -> R<Option<Split>> {
        let node = Node::Internal { keys, children };
        if node.fits(store.page_size()) {
            save(store, id, &node)?;
            return Ok(None);
        }
        let Node::Internal {
            mut keys,
            mut children,
        } = node
        else {
            unreachable!()
        };
        let total: usize = keys.iter().map(|k| 2 + k.len() + 4).sum();
        let (mut acc, mut mid) = (0, keys.len() / 2);
        for (i, k) in keys.iter().enumerate() {
            acc += 2 + k.len() + 4;
            if acc >= total / 2 && i + 1 < keys.len() {
                mid = i;
                break;
            }
        }
        let mid = mid.clamp(1, keys.len() - 2).max(1);
        let right_keys = keys.split_off(mid + 1);
        let promoted = keys.pop().expect("mid >= 1");
        let right_children = children.split_off(mid + 1);
        let right_id = store.alloc_page()?;
        let right = Node::Internal {
            keys: right_keys,
            children: right_children,
        };
        save(store, right_id, &right)?;
        save(store, id, &Node::Internal { keys, children })?;
        Ok(Some(Split {
            sep: promoted,
            right: right_id,
        }))
    }

    fn check_routed_key(key: &[u8], lo: &[u8], hi: &[u8], shown: Option<(&[u8], &[u8])>) -> R<()> {
        let above = shown.map_or(key >= lo, |(last, _)| key > last);
        if above && key < hi {
            return Ok(());
        }
        Err(BTreeError::Corrupt(
            "routed insert built a key outside its range".to_string(),
        ))
    }

    pub fn insert_routed<S: PageStore>(
        root: &mut PageId,
        store: &mut S,
        lo: &[u8],
        hi: &[u8],
        build: &mut BuildEntry<'_>,
    ) -> R<bool> {
        match insert_routed_rec(store, *root, lo, hi, build, None)? {
            Routed::Inserted(split) => grow_root(root, store, split)?,
            Routed::Declined => return Ok(false),
            Routed::Astray => {
                let last = BTree::open(*root).last_in_range(store, lo, hi)?;
                let shown = last.as_ref().map(|(k, v)| (k.as_slice(), v.as_slice()));
                let Some((key, value)) = build(shown) else {
                    return Ok(false);
                };
                check_routed_key(&key, lo, hi, shown)?;
                insert(root, store, &key, &value)?;
            }
        }
        Ok(true)
    }

    fn insert_routed_rec<S: PageStore>(
        store: &mut S,
        id: PageId,
        lo: &[u8],
        hi: &[u8],
        build: &mut BuildEntry<'_>,
        bound: Option<&[u8]>,
    ) -> R<Routed> {
        match load(store, id)? {
            Node::Leaf(mut entries) => {
                let below = entries.partition_point(|(k, _)| k.as_slice() < hi);
                let Some((last_key, last_value)) = below.checked_sub(1).map(|i| &entries[i]) else {
                    return Ok(Routed::Astray);
                };
                let in_range = last_key.as_slice() >= lo;
                let shown = in_range.then_some((last_key.as_slice(), last_value.as_slice()));
                let Some((key, value)) = build(shown) else {
                    return Ok(Routed::Declined);
                };
                check_routed_key(&key, lo, hi, shown)?;
                check_entry_size(store, &key, &value)?;
                entries.insert(below, (key, value));
                Ok(Routed::Inserted(save_leaf(
                    store, id, entries, below, bound,
                )?))
            }
            Node::Internal { keys, children } => {
                let idx = keys.partition_point(|sep| sep.as_slice() < hi);
                let bound = keys.get(idx).map(Vec::as_slice).or(bound);
                match insert_routed_rec(store, children[idx], lo, hi, build, bound)? {
                    Routed::Inserted(Some(cs)) => Ok(Routed::Inserted(adopt_split(
                        store, id, keys, children, idx, cs,
                    )?)),
                    other => Ok(other),
                }
            }
        }
    }

    pub fn delete<S: PageStore>(
        root: &mut PageId,
        store: &mut S,
        key: &[u8],
    ) -> R<Option<Vec<u8>>> {
        let pick = |entries: &[Entry]| {
            Some(
                entries
                    .binary_search_by(|(k, _)| k.as_slice().cmp(key))
                    .ok(),
            )
        };
        let found = delete_by(root, store, &|sep| sep <= key, &pick)?;
        Ok(found.flatten().map(|(_, value)| value))
    }

    pub fn delete_routed<S: PageStore>(
        root: &mut PageId,
        store: &mut S,
        lo: &[u8],
        hi: &[u8],
    ) -> R<Option<Entry>> {
        let pick = |entries: &[Entry]| {
            let last = entries
                .partition_point(|(k, _)| k.as_slice() < hi)
                .checked_sub(1)?;
            Some((entries[last].0.as_slice() >= lo).then_some(last))
        };
        if let Some(found) = delete_by(root, store, &|sep| sep < hi, &pick)? {
            return Ok(found);
        }
        let Some((key, _)) = BTree::open(*root).last_in_range(store, lo, hi)? else {
            return Ok(None);
        };
        Ok(delete(root, store, &key)?.map(|value| (key, value)))
    }

    /// Which entry of a leaf a delete removes, if any; `None` when the
    /// leaf holds nothing below a routed delete's end.
    type Pick<'a> = &'a dyn Fn(&[Entry]) -> Option<Option<usize>>;

    /// A delete routed by `right` down to the leaf where `pick` chooses;
    /// `None` when the pick was `None`.
    fn delete_by<S: PageStore>(
        root: &mut PageId,
        store: &mut S,
        right: &dyn Fn(&[u8]) -> bool,
        pick: Pick<'_>,
    ) -> R<Option<Option<Entry>>> {
        let (found, root_under, split) = delete_rec(store, *root, right, pick)?;
        if split.is_some() {
            grow_root(root, store, split)?;
        } else if root_under {
            if let Node::Internal { keys, children } = load(store, *root)? {
                if keys.is_empty() {
                    let only = children[0];
                    store.free_page(*root)?;
                    *root = only;
                }
            }
        }
        Ok(found)
    }

    fn delete_rec<S: PageStore>(
        store: &mut S,
        id: PageId,
        right: &dyn Fn(&[u8]) -> bool,
        pick: Pick<'_>,
    ) -> R<(Option<Option<Entry>>, bool, Option<Split>)> {
        let node = load(store, id)?;
        let threshold = store.page_size() / 3;
        match node {
            Node::Leaf(mut entries) => {
                let i = match pick(&entries) {
                    Some(Some(i)) => i,
                    other => return Ok((other.map(|_| None), false, None)),
                };
                let old = entries.remove(i);
                let node = Node::Leaf(entries);
                let under = node.encoded_size() < threshold;
                save(store, id, &node)?;
                Ok((Some(Some(old)), under, None))
            }
            Node::Internal {
                mut keys,
                mut children,
            } => {
                let idx = keys.partition_point(|sep| right(sep));
                let (found, child_under, split) = delete_rec(store, children[idx], right, pick)?;
                if let Some(child) = split {
                    let split = adopt_split(store, id, keys, children, idx, child)?;
                    return Ok((found, false, split));
                }
                if !matches!(found, Some(Some(_))) || !child_under {
                    return Ok((found, false, None));
                }
                // A rebalance may promote a longer separator than it
                // replaces, and the node then splits.
                rebalance_child(store, &mut keys, &mut children, idx)?;
                let under = Node::Internal {
                    keys: keys.clone(),
                    children: children.clone(),
                }
                .encoded_size()
                    < threshold;
                let split = save_internal(store, id, keys, children)?;
                Ok((found, under && split.is_none(), split))
            }
        }
    }

    /// The entries with `lo <= key < hi`, each leaf decoded whole
    /// before any is visited; `false` if `f` stopped the scan.
    pub fn scan<S: PageStore>(
        store: &mut S,
        id: PageId,
        lo: &[u8],
        hi: Option<&[u8]>,
        f: &mut dyn FnMut(&[u8], &[u8]) -> bool,
    ) -> R<bool> {
        match load(store, id)? {
            Node::Leaf(entries) => {
                for (k, v) in &entries {
                    if k.as_slice() < lo {
                        continue;
                    }
                    if hi.is_some_and(|hi| k.as_slice() >= hi) || !f(k, v) {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            Node::Internal { keys, children } => {
                let start = keys.partition_point(|sep| sep.as_slice() <= lo);
                let end = hi.map_or(keys.len(), |hi| {
                    keys.partition_point(|sep| sep.as_slice() < hi)
                });
                for &child in &children[start..=end] {
                    if !scan(store, child, lo, hi, f)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
        }
    }

    fn rebalance_child<S: PageStore>(
        store: &mut S,
        keys: &mut Vec<Vec<u8>>,
        children: &mut Vec<PageId>,
        idx: usize,
    ) -> R<()> {
        let (left_idx, right_idx) = if idx + 1 < children.len() {
            (idx, idx + 1)
        } else if idx > 0 {
            (idx - 1, idx)
        } else {
            return Ok(());
        };
        let (left_id, right_id) = (children[left_idx], children[right_idx]);
        let left = load(store, left_id)?;
        let right = load(store, right_id)?;
        let page_size = store.page_size();
        let threshold = page_size / 3;
        let sep = keys[left_idx].clone();
        let leaf_size = |e: &[(Vec<u8>, Vec<u8>)]| Node::Leaf(e.to_vec()).encoded_size();
        let internal_size =
            |k: &[Vec<u8>]| 3 + 4 + k.iter().map(|k| 2 + k.len() + 4).sum::<usize>();
        match (left, right) {
            (Node::Leaf(mut l), Node::Leaf(mut r)) => {
                if leaf_size(&l) + leaf_size(&r) - 3 <= page_size {
                    l.append(&mut r);
                    save(store, left_id, &Node::Leaf(l))?;
                    store.free_page(right_id)?;
                    keys.remove(left_idx);
                    children.remove(right_idx);
                } else {
                    // Even out: the move that brings the sizes closest,
                    // one entry at a time.
                    loop {
                        let (ls, rs) = (leaf_size(&l), leaf_size(&r));
                        let (e_r, e_l) = (leaf_size(&r[..1]) - 3, leaf_size(&l[l.len() - 1..]) - 3);
                        if ls + e_r < rs {
                            l.push(r.remove(0));
                        } else if rs + e_l < ls {
                            r.insert(0, l.pop().expect("donor leaf empty"));
                        } else {
                            break;
                        }
                    }
                    keys[left_idx] = separator(&l[l.len() - 1].0, &r[0].0);
                    save(store, left_id, &Node::Leaf(l))?;
                    save(store, right_id, &Node::Leaf(r))?;
                }
            }
            (
                Node::Internal {
                    keys: mut lk,
                    children: mut lc,
                },
                Node::Internal {
                    keys: mut rk,
                    children: mut rc,
                },
            ) => {
                let mut merged_keys = lk.clone();
                merged_keys.push(sep.clone());
                merged_keys.extend(rk.iter().cloned());
                let merged = Node::Internal {
                    keys: merged_keys,
                    children: lc.iter().chain(&rc).copied().collect(),
                };
                if merged.fits(page_size) {
                    save(store, left_id, &merged)?;
                    store.free_page(right_id)?;
                    keys.remove(left_idx);
                    children.remove(right_idx);
                } else {
                    let mut sep = sep;
                    if internal_size(&lk) < threshold {
                        while internal_size(&lk) < threshold {
                            lk.push(std::mem::replace(&mut sep, rk.remove(0)));
                            lc.push(rc.remove(0));
                        }
                    } else {
                        while internal_size(&rk) < threshold {
                            rk.insert(0, std::mem::replace(&mut sep, lk.pop().expect("donor")));
                            rc.insert(0, lc.pop().expect("donor"));
                        }
                    }
                    keys[left_idx] = sep;
                    save(
                        store,
                        left_id,
                        &Node::Internal {
                            keys: lk,
                            children: lc,
                        },
                    )?;
                    save(
                        store,
                        right_id,
                        &Node::Internal {
                            keys: rk,
                            children: rc,
                        },
                    )?;
                }
            }
            _ => {
                return Err(BTreeError::Corrupt(
                    "siblings at different levels".to_string(),
                ))
            }
        }
        Ok(())
    }
}

/// One store call, as the reference and the tree must both make it.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Call {
    Read(PageId),
    Write(PageId, Vec<u8>),
    Alloc(PageId),
    Free(PageId),
}

/// A [`MemStore`] that records every call made of it.
#[derive(Clone)]
struct Traced {
    inner: MemStore,
    calls: Vec<Call>,
}

impl PageStore for Traced {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn with_page<R>(
        &mut self,
        id: PageId,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R, cedar_btree::StoreError> {
        self.calls.push(Call::Read(id));
        self.inner.with_page(id, f)
    }

    fn write_page(&mut self, id: PageId, data: &[u8]) -> Result<(), cedar_btree::StoreError> {
        self.calls.push(Call::Write(id, data.to_vec()));
        self.inner.write_page(id, data)
    }

    fn alloc_page(&mut self) -> Result<PageId, cedar_btree::StoreError> {
        let id = self.inner.alloc_page()?;
        self.calls.push(Call::Alloc(id));
        Ok(id)
    }

    fn free_page(&mut self, id: PageId) -> Result<(), cedar_btree::StoreError> {
        self.calls.push(Call::Free(id));
        self.inner.free_page(id)
    }
}

#[derive(Clone, Debug)]
enum EditOp {
    /// Insert (or overwrite) `name`'s version; the value fills this many
    /// thousandths of what the largest admissible entry leaves it.
    Insert(usize, u16, u16),
    /// The next version of `name`, by routed insert, its value sized so.
    Routed(usize, u16),
    /// Delete `name`'s version, present or not.
    Delete(usize, u16),
    /// Delete every version of `name` from this one up.
    DeleteFrom(usize, u16),
    /// Delete the newest version of `name`, if any, by routed delete.
    DeleteNewest(usize),
    /// Scan from the first key to the second (unbounded above when the
    /// second sorts first), stopping after this many entries.
    Scan((usize, u16), (usize, u16), usize),
}

fn arb_edit_op() -> impl Strategy<Value = EditOp> {
    let name = || 0usize..NAMES.len();
    // Most values are small; one in three comes near the largest entry
    // a page admits, so that leaves split, merge and borrow often.
    let fill = || prop_oneof![2 => 0u16..150, 1 => 800u16..1001];
    prop_oneof![
        4 => (name(), 0u16..40, fill()).prop_map(|(n, v, f)| EditOp::Insert(n, v, f)),
        3 => (name(), fill()).prop_map(|(n, f)| EditOp::Routed(n, f)),
        3 => (name(), 0u16..40).prop_map(|(n, v)| EditOp::Delete(n, v)),
        1 => (name(), 0u16..40).prop_map(|(n, v)| EditOp::DeleteFrom(n, v)),
        2 => name().prop_map(EditOp::DeleteNewest),
        2 => ((name(), 0u16..40), (name(), 0u16..40), 0usize..80)
            .prop_map(|(a, b, stop)| EditOp::Scan(a, b, stop)),
    ]
}

/// A value for `key` filling `fill` thousandths of what the largest
/// admissible entry leaves it.
fn filled(page_size: usize, key: &[u8], fill: u16) -> Vec<u8> {
    let room = BTree::max_entry_size(page_size) - 4 - key.len();
    vec![fill as u8; room * usize::from(fill) / 1000]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn edits_match_the_decoding_reference_call_for_call(
        ops in proptest::collection::vec(arb_edit_op(), 1..300),
        page_size in 128usize..1024,
    ) {
        let mut store = Traced { inner: MemStore::new(page_size), calls: Vec::new() };
        let mut tree = BTree::create(&mut store).unwrap();
        let mut twin = store.clone();
        let mut twin_root = tree.root();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for (step, op) in ops.iter().enumerate() {
            store.calls.clear();
            twin.calls.clear();
            let keys: Vec<Vec<u8>> = match *op {
                EditOp::Insert(n, v, fill) => {
                    let key = versioned(NAMES[n], v);
                    let value = filled(page_size, &key, fill);
                    let got = tree.insert(&mut store, &key, &value).unwrap();
                    let want = reference::insert(&mut twin_root, &mut twin, &key, &value).unwrap();
                    prop_assert_eq!(&got, &want);
                    prop_assert_eq!(got, model.insert(key, value));
                    Vec::new()
                }
                EditOp::Routed(n, fill) => {
                    let (lo, hi) = versions_range(NAMES[n]);
                    let mut build = |newest: Option<(&[u8], &[u8])>| {
                        let key = versioned(NAMES[n], newest.map_or(1, |(k, _)| version_of(k) + 1));
                        let value = filled(page_size, &key, fill);
                        Some((key, value))
                    };
                    let mut twin_build = build;
                    prop_assert!(tree.insert_routed(&mut store, &lo, &hi, &mut build).unwrap());
                    prop_assert!(reference::insert_routed(&mut twin_root, &mut twin, &lo, &hi, &mut twin_build).unwrap());
                    let version = model.range(lo..hi).next_back().map_or(1, |(k, _)| version_of(k) + 1);
                    let key = versioned(NAMES[n], version);
                    let value = filled(page_size, &key, fill);
                    model.insert(key, value);
                    Vec::new()
                }
                EditOp::Delete(n, v) => vec![versioned(NAMES[n], v)],
                EditOp::DeleteNewest(n) => {
                    let (lo, hi) = versions_range(NAMES[n]);
                    let got = tree.delete_routed(&mut store, &lo, &hi, &mut |_, _| true).unwrap();
                    let want = reference::delete_routed(&mut twin_root, &mut twin, &lo, &hi).unwrap();
                    prop_assert_eq!(&got, &want);
                    let newest = model.range(lo..hi).next_back().map(|(k, _)| k.clone());
                    prop_assert_eq!(got, newest.and_then(|k| model.remove_entry(&k)));
                    Vec::new()
                }
                EditOp::DeleteFrom(n, v) => {
                    let (_, hi) = versions_range(NAMES[n]);
                    model.range(versioned(NAMES[n], v)..hi).map(|(k, _)| k.clone()).collect()
                }
                EditOp::Scan((a, va), (b, vb), stop) => {
                    let (lo, hi) = (versioned(NAMES[a], va), versioned(NAMES[b], vb));
                    let hi = (hi > lo).then_some(hi.as_slice());
                    let (mut got, mut want) = (Vec::new(), Vec::new());
                    tree.for_each_range(&mut store, &lo, hi, &mut |k, _| {
                        got.push(k.to_vec());
                        got.len() < stop
                    }).unwrap();
                    reference::scan(&mut twin, twin_root, &lo, hi, &mut |k, _| {
                        want.push(k.to_vec());
                        want.len() < stop
                    }).unwrap();
                    prop_assert_eq!(got, want);
                    Vec::new()
                }
            };
            for key in &keys {
                let got = tree.delete(&mut store, key).unwrap();
                let want = reference::delete(&mut twin_root, &mut twin, key).unwrap();
                prop_assert_eq!(&got, &want);
                prop_assert_eq!(got, model.remove(key));
            }
            prop_assert_eq!(tree.root(), twin_root, "step {}", step);
            prop_assert_eq!(&store.calls, &twin.calls, "step {}: {:?}", step, op);
            prop_assert_eq!(store.inner.ops, twin.inner.ops, "step {}", step);
        }
        tree.check_invariants(&mut store).unwrap();
        let got = tree.collect_range(&mut store, &[], None).unwrap();
        let want: Vec<_> = model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        prop_assert_eq!(got, want);
    }
}

// ----- the split policy: where a leaf is cut, and what is promoted ----------
//
// A leaf that overflows where a run of names sharing a prefix ends is cut
// there, so a directory growing at its end fills its leaves; a separator
// is the shortest key between its neighbours, so an internal page holds
// more children. The rightmost leaf keeps the size split.

/// A name-table key as the volumes make it: `name ++ 0 ++ version`, the
/// version four bytes big-endian.
fn nt_key(name: &str, version: u32) -> Vec<u8> {
    let mut k = name.as_bytes().to_vec();
    k.push(0);
    k.extend_from_slice(&version.to_be_bytes());
    k
}

/// A name's versions: `[name ++ 0, name ++ 1)`.
fn nt_range(name: &str) -> (Vec<u8>, Vec<u8>) {
    let (mut lo, mut hi) = (name.as_bytes().to_vec(), name.as_bytes().to_vec());
    lo.push(0);
    hi.push(1);
    (lo, hi)
}

/// FSD's name-table page, and the value of an FSD entry with one run.
const NT_PAGE: usize = 1024;
const ENTRY_VALUE: usize = 43;

/// `(pages, leaves, height)` of the tree `names` make, each inserted at
/// version 1 in the order given.
fn built(names: impl Iterator<Item = String>) -> (usize, usize, u64) {
    let mut store = MemStore::new(NT_PAGE);
    let mut tree = BTree::create(&mut store).unwrap();
    for name in names {
        let old = tree
            .insert(&mut store, &nt_key(&name, 1), &[0x5A; ENTRY_VALUE])
            .unwrap();
        assert_eq!(old, None, "{name}");
    }
    tree.check_invariants(&mut store).unwrap();
    let shape = shape(&tree, &mut store);
    (store.live_pages(), shape.leaves.len(), shape.height)
}

/// The size split alone, with whole keys promoted, made of the same
/// loads: 200 mailboxes appended in id order, 2 491 pages of which 2 400
/// leaves, four levels; 97 directories (24 000 names, `read_mostly`'s
/// population), 3 057 pages of which 2 953 leaves, four levels; one
/// directory in order, 2 638 pages of which 2 500 leaves, four levels;
/// the 200 mailboxes in a scattered order, 1 924 pages, four levels.
#[test]
fn a_directory_growing_at_its_end_fills_its_leaves() {
    // Mail: each new id goes to the end of its mailbox.
    let mail = (0..20_000).map(|i| format!("mbox{:03}/m{i:07}", i % 200));
    assert_eq!(built(mail), (1_518, 1_479, 3));
    // The compile population: 97 directories, each in name order.
    let lib = (0..24_000).map(|i| format!("lib/d{:02}/f{i:06}", i % 97));
    assert_eq!(built(lib), (1_731, 1_687, 3));
    // One directory in order: every insert lands in the rightmost leaf,
    // which splits by size as before; only the internal pages, whose
    // separators are shorter, are fewer.
    let one = (0..20_000).map(|i| format!("mbox000/m{i:07}"));
    assert_eq!(built(one), (2_609, 2_500, 4));
    // Scattered: a cut where a new key's neighbours differ may leave a
    // small half, but the tree grows by at most a tenth.
    let scattered = (0..20_000).map(|i| {
        let k = i * 7_919 % 20_000;
        format!("mbox{:03}/m{k:07}", k % 200)
    });
    let (pages, _, _) = built(scattered);
    assert!(pages * 10 <= 1_924 * 11, "{pages} pages");
    assert_eq!(pages, 1_941);
}

/// Checks that every separator lies strictly above every key of the
/// subtree left of it and at or below every key of the one right of it;
/// returns the subtree's least and greatest keys.
fn separators_part(store: &mut MemStore, id: PageId) -> Option<(Vec<u8>, Vec<u8>)> {
    match store.with_page(id, Node::decode).unwrap().unwrap() {
        Node::Leaf(entries) => {
            let first = entries.first()?.0.clone();
            Some((first, entries.last()?.0.clone()))
        }
        Node::Internal { keys, children } => {
            let spans: Vec<_> = children
                .iter()
                .map(|&child| separators_part(store, child).expect("no empty leaf below the root"))
                .collect();
            for (i, sep) in keys.iter().enumerate() {
                assert!(
                    spans[i].1 < *sep,
                    "separator {sep:?} not above {:?}",
                    spans[i].1
                );
                assert!(
                    *sep <= spans[i + 1].0,
                    "separator {sep:?} above {:?}",
                    spans[i + 1].0
                );
            }
            Some((spans[0].0.clone(), spans[spans.len() - 1].1.clone()))
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Directories whose names are prefixes of one another (`d1`,
    // `d10`), filled in three orders with entries of every admissible
    // size, then emptied in part: no cut overflows a page (the encoder
    // would panic), every separator parts its children, and the tree
    // holds what a model does.
    #[test]
    fn separators_part_their_children_and_no_cut_overflows(
        dirs in 1usize..14,
        files in 1usize..40,
        order in 0usize..3,
        fills in proptest::collection::vec(0u16..1001, 1..32),
        page_size in 128usize..1024,
        deleted in 0usize..600,
        scattered in any::<bool>(),
    ) {
        let mut names: Vec<String> = (0..files)
            .flat_map(|f| (0..dirs).map(move |d| format!("d{d}/f{f:03}")))
            .collect();
        match order {
            0 => {}
            1 => names.sort(),
            _ => {
                let n = names.len();
                names = (0..n).map(|i| names[i * 7_919 % n].clone()).collect();
                names.sort_by_key(|name| name.len() % 3);
            }
        }
        let mut store = MemStore::new(page_size);
        let mut tree = BTree::create(&mut store).unwrap();
        let mut model = BTreeMap::new();
        for (i, name) in names.iter().enumerate() {
            let key = nt_key(name, 1);
            let value = filled(page_size, &key, fills[i % fills.len()]);
            tree.insert(&mut store, &key, &value).unwrap();
            model.insert(key, value);
        }
        tree.check_invariants(&mut store).unwrap();
        separators_part(&mut store, tree.root());
        // Deleting in the order made empties the oldest leaves first, so
        // an underflow evens out with a full sibling or merges with it;
        // deleting in a scattered order moves boundaries anywhere, and a
        // separator a borrow promotes may outgrow the one it replaces.
        let mut victims: Vec<&String> = names.iter().collect();
        if scattered {
            let fnv = |name: &&String| {
                name.bytes()
                    .fold(0xcbf2_9ce4_8422_2325_u64, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
            };
            victims.sort_by_key(fnv);
        }
        for name in victims.into_iter().take(deleted) {
            let key = nt_key(name, 1);
            prop_assert_eq!(tree.delete(&mut store, &key).unwrap(), model.remove(&key));
        }
        tree.check_invariants(&mut store).unwrap();
        separators_part(&mut store, tree.root());
        let got = tree.collect_range(&mut store, &[], None).unwrap();
        let want: Vec<_> = model.into_iter().collect();
        prop_assert_eq!(got, want);
    }
}

/// Mail appended in id order cuts a leaf where each mailbox begins, and
/// promotes the mailbox's name cut short (`mbox018`) to part it from the
/// one before. A new name that sorts between that separator and the
/// mailbox's first message walks into a leaf with nothing below the end
/// of its range: its routed create falls back to probe and plain insert.
/// A new message, which sorts at the mailbox's end, never does. Each
/// fallback is counted, and the tree agrees with a model throughout.
#[test]
fn short_separators_send_a_name_at_a_mailboxs_head_astray() {
    let mut store = MemStore::new(NT_PAGE);
    let mut tree = BTree::create(&mut store).unwrap();
    let mut model = BTreeMap::new();
    for i in 0..20_000 {
        let key = nt_key(&format!("mbox{:03}/m{i:07}", i % 200), 1);
        tree.insert(&mut store, &key, &[0x5A; ENTRY_VALUE]).unwrap();
        model.insert(key, vec![0x5A; ENTRY_VALUE]);
    }
    let h = shape(&tree, &mut store).height;
    assert_eq!(h, 3);
    // Per mailbox: a name at its head, then one that sorts before that
    // (the mailbox's own name), then one at its end.
    let names: Vec<(String, bool)> = (0..200)
        .flat_map(|b| {
            [
                (format!("mbox{b:03}/a"), true),
                (format!("mbox{b:03}"), true),
                (format!("mbox{b:03}/m9999999"), false),
            ]
        })
        .collect();
    let mut astray_creates = 0;
    for (name, at_head) in &names {
        let (lo, hi) = nt_range(name);
        let key = nt_key(name, 1);
        let fell_back = astray(&tree, &mut store.clone(), &hi);
        let (made, reads, _) = cost(&mut store, |s| {
            tree.insert_routed(s, &lo, &hi, &mut |newest| {
                assert_eq!(newest, None);
                Some((key.clone(), b"new".to_vec()))
            })
            .unwrap()
        });
        assert!(made);
        // One walk reads one node per level; the fallback reads a lookup
        // and a plain insert more.
        assert_eq!(reads > h, fell_back, "{name}: {reads} reads");
        assert_eq!(fell_back, *at_head, "{name}");
        astray_creates += usize::from(fell_back);
        model.insert(key, b"new".to_vec());
    }
    assert_eq!(astray_creates, 400);
    tree.check_invariants(&mut store).unwrap();
    separators_part(&mut store, tree.root());
    // In, each new name is a key of the leaf its range routes to: the
    // routed deletes take one walk each.
    let mut astray_deletes = 0;
    for (name, _) in names.iter().rev() {
        let (lo, hi) = nt_range(name);
        let (gone, fell_back) = delete_last_in_range(&mut tree, &mut store, &lo, &hi);
        assert_eq!(gone, model.remove_entry(&nt_key(name, 1)), "{name}");
        astray_deletes += usize::from(fell_back);
    }
    assert_eq!(astray_deletes, 0);
    tree.check_invariants(&mut store).unwrap();
    let got = tree.collect_range(&mut store, &[], None).unwrap();
    assert_eq!(got, model.into_iter().collect::<Vec<_>>());
}

/// A borrow between two leaves moves the boundary between them, and the
/// separator it promotes may be longer than the one it replaces: between
/// two mailboxes `mbox018`, inside one `mbox018/m00123`. A parent full of
/// short separators then no longer fits its page: it splits as an
/// insert's would, and the split goes up. Mail churned as `mail_churn`
/// churns it (deliver to a random mailbox, delete a random message), on
/// 1 KB pages, against a model and call for call against the decoding
/// reference; the deletes that split a parent are counted.
#[test]
fn a_separator_that_grows_in_a_borrow_splits_its_parent() {
    let mut x = 4u64;
    let mut next = move || {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        x >> 33
    };
    let mut store = Traced {
        inner: MemStore::new(NT_PAGE),
        calls: Vec::new(),
    };
    let mut tree = BTree::create(&mut store).unwrap();
    let (mut twin, mut twin_root) = (store.clone(), tree.root());
    let mut model = BTreeMap::new();
    let mut live = Vec::new();
    let value = [0x5A; ENTRY_VALUE];
    let (mut splits, mut id) = (0, 0);
    for step in 0..20_200 {
        let deliver = step < 10_000 || next() % 2 == 0;
        store.calls.clear();
        twin.calls.clear();
        if deliver || live.is_empty() {
            let key = nt_key(&format!("mbox{:03}/m{id:07}", next() % 24), 1);
            id += 1;
            tree.insert(&mut store, &key, &value).unwrap();
            reference::insert(&mut twin_root, &mut twin, &key, &value).unwrap();
            model.insert(key.clone(), value.to_vec());
            live.push(key);
        } else {
            let key = live.swap_remove(next() as usize % live.len());
            let allocs = store.inner.ops.2;
            let got = tree.delete(&mut store, &key).unwrap();
            splits += usize::from(store.inner.ops.2 > allocs);
            assert_eq!(
                got,
                reference::delete(&mut twin_root, &mut twin, &key).unwrap()
            );
            assert_eq!(got, model.remove(&key));
        }
        assert_eq!(tree.root(), twin_root, "step {step}");
        assert!(store.calls == twin.calls, "step {step}: the calls differ");
    }
    assert_eq!(splits, 1, "deletes that split a parent");
    tree.check_invariants(&mut store).unwrap();
    separators_part(&mut store.inner, tree.root());
    let got = tree.collect_range(&mut store, &[], None).unwrap();
    assert_eq!(got, model.into_iter().collect::<Vec<_>>());
}
