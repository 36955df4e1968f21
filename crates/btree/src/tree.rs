//! B-tree algorithms: lookup, insert with splits, delete with
//! steal/merge rebalancing, and ordered range scans.
//!
//! The tree is deliberately stateless apart from the root page id: every
//! operation takes the [`PageStore`] explicitly, because the two file
//! systems wrap very different stores around the same algorithms. Pages are
//! written children-first, which is exactly the order that leaves a
//! *torn* multi-page update visible to a crash in CFS (the failure FSD's
//! logging removes).

use crate::node::{splice, Cell, Entries, Node, NodeView, MAX_ENTRY_FRACTION};
use crate::store::{PageId, PageStore, StoreError};
use std::fmt;
use std::ops::ControlFlow;

/// Errors from tree operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BTreeError {
    /// The underlying page store failed.
    Store(StoreError),
    /// A page did not decode as a valid node, or tree structure is
    /// inconsistent — in CFS this is what a crash mid-split produces.
    Corrupt(String),
    /// The entry is too large to ever fit in a node.
    EntryTooLarge {
        /// Encoded size of the offending entry.
        size: usize,
        /// Largest admissible encoded entry size for this page size.
        max: usize,
    },
}

impl fmt::Display for BTreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Store(e) => write!(f, "store error: {e}"),
            Self::Corrupt(msg) => write!(f, "corrupt b-tree: {msg}"),
            Self::EntryTooLarge { size, max } => {
                write!(f, "entry of {size} bytes exceeds maximum {max}")
            }
        }
    }
}

impl std::error::Error for BTreeError {}

impl From<StoreError> for BTreeError {
    fn from(e: StoreError) -> Self {
        Self::Store(e)
    }
}

type Result<T> = std::result::Result<T, BTreeError>;

/// Outcome of an insert one level down: the child split, promoting `sep`.
struct Split {
    sep: Vec<u8>,
    right: PageId,
}

/// What the leaf at the end of a routed insert's walk made of it.
enum Routed {
    /// The entry goes in: the leaf's new page, or its entries to split.
    Inserted(LeafEdit),
    /// The builder declined; nothing was written.
    Declined,
    /// The leaf holds nothing below `hi`: the predecessor, if any, lives
    /// to the left, and so may the new key's place.
    Astray,
}

/// An internal node an edit walked through, its bytes kept for the edit
/// that a split or an underflow below makes of it.
struct Hop {
    id: PageId,
    /// The node's bytes up to the end of its last cell.
    page: Vec<u8>,
    /// Separators in the node.
    count: usize,
    /// The walk went on to `children[idx]`; separator `idx`, where a
    /// split of that child puts its separator, starts at byte `at`.
    idx: usize,
    at: usize,
}

impl Hop {
    /// The node as vectors, for a split or a rebalance.
    fn decode(&self) -> Result<(Vec<Vec<u8>>, Vec<PageId>)> {
        match Node::decode(&self.page) {
            Ok(Node::Internal { keys, children }) => Ok((keys, children)),
            Ok(Node::Leaf(_)) => unreachable!("an internal node decodes as one"),
            Err(e) => Err(BTreeError::Corrupt(format!("page {}: {e}", self.id))),
        }
    }

    /// The separator right of the child the walk went on to, if the node
    /// has one: the least key the child's subtree may not hold.
    fn bound(&self) -> Option<&[u8]> {
        let Ok(NodeView::Internal(_, mut seps)) = NodeView::parse(&self.page) else {
            return None;
        };
        seps.nth(self.idx)?.ok().map(|(sep, _)| sep)
    }
}

/// A leaf read in place for one edit: its leading entries whose keys
/// `below` holds for, and the cell after them.
struct LeafSeek<'a> {
    /// Entries in the leaf, and the end of its last cell.
    count: usize,
    end: usize,
    /// How many entries lead, and where the cell after them starts.
    below: usize,
    at: usize,
    /// The last of the leading entries, and where its cell starts.
    last: Option<(&'a [u8], &'a [u8])>,
    last_at: usize,
    /// The entry after them, and where its cell ends.
    next: Option<(&'a [u8], &'a [u8], usize)>,
}

impl<'a> LeafSeek<'a> {
    fn new(
        mut entries: Entries<'a>,
        below: impl Fn(&[u8]) -> bool,
    ) -> std::result::Result<Self, String> {
        let mut seek = LeafSeek {
            count: 0,
            end: 0,
            below: 0,
            at: entries.offset(),
            last: None,
            last_at: entries.offset(),
            next: None,
        };
        while let Some(entry) = entries.next() {
            let (k, v) = entry?;
            if seek.count == seek.below && below(k) {
                seek.below += 1;
                seek.last_at = seek.at;
                seek.at = entries.offset();
                seek.last = Some((k, v));
            } else if seek.next.is_none() {
                seek.next = Some((k, v, entries.offset()));
            }
            seek.count += 1;
        }
        seek.end = entries.offset();
        Ok(seek)
    }
}

/// What the leaf at the end of a delete's walk made of it.
enum Cut {
    /// The entry came out: it, the leaf's page without it, and whether
    /// that page fell below a third of a page.
    Removed(Entry, Vec<u8>, bool),
    /// No entry to remove.
    Missing,
    /// The leaf holds nothing below the end of a routed delete's range.
    Astray,
}

/// What an edit made of a leaf.
enum LeafEdit {
    /// The leaf's new page, one cell spliced.
    Write(Vec<u8>),
    /// The leaf's entries, edited, too many for one page, and the
    /// index of the entry the edit put in.
    Split(LeafEntries, usize),
}

/// A key/value pair out of the tree, or on its way in.
pub type Entry = (Vec<u8>, Vec<u8>);

/// What [`BTree::insert_routed`] asks its caller for: the entry to insert,
/// made from the greatest entry already in the range (`None` when the
/// range is empty). Returning `None` declines the insert.
pub type BuildEntry<'a> = dyn FnMut(Option<(&[u8], &[u8])>) -> Option<Entry> + 'a;

/// What [`BTree::delete_if`] and [`BTree::delete_routed`] ask their
/// caller: shown the entry found, whether to take it out. Returning
/// `false` declines the delete and leaves the tree as it was.
pub type TakeEntry<'a> = dyn FnMut(&[u8], &[u8]) -> bool + 'a;

/// What [`BTree::check_entries`] asks its caller of each entry: whether
/// it is sound, and if not, what is wrong with it.
pub type CheckEntry<'a> = dyn FnMut(&[u8], &[u8]) -> std::result::Result<(), String> + 'a;

/// A B-tree rooted at a page in some [`PageStore`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BTree {
    root: PageId,
}

impl BTree {
    /// Largest admissible encoded entry (`4 + key + value` bytes) for a
    /// given page size; a node can always hold at least
    /// [`MAX_ENTRY_FRACTION`] such entries.
    pub fn max_entry_size(page_size: usize) -> usize {
        (page_size - 3) / MAX_ENTRY_FRACTION
    }

    /// Creates a new empty tree in `store`.
    pub fn create<S: PageStore>(store: &mut S) -> Result<Self> {
        let root = store.alloc_page()?;
        store.write_page(root, &Node::empty_leaf().encode(store.page_size()))?;
        Ok(Self { root })
    }

    /// Reattaches to an existing tree rooted at `root`.
    pub fn open(root: PageId) -> Self {
        Self { root }
    }

    /// Builds a tree bottom-up from `entries`, which must be strictly
    /// ascending by key.
    ///
    /// Leaves are greedily packed full (in key order the packing never
    /// has to split), then each internal level is packed over the level
    /// below, with the separator for child *i+1* the shortest key above
    /// everything left of it and at most its subtree's smallest key —
    /// the separator [`BTree::insert`]'s leaf split promotes. Every page
    /// is written exactly once, so loading N entries costs O(pages) page
    /// writes instead of the N-insert rebuild's O(N · depth) reads and
    /// writes. This is what makes the scavenger's name-table rebuild
    /// scale to millions of files.
    pub fn bulk_load<S: PageStore>(store: &mut S, entries: &[(Vec<u8>, Vec<u8>)]) -> Result<Self> {
        let page_size = store.page_size();
        let max = Self::max_entry_size(page_size);
        for pair in entries.windows(2) {
            if pair[0].0 >= pair[1].0 {
                return Err(BTreeError::Corrupt(
                    "bulk load input not strictly ascending".to_string(),
                ));
            }
        }
        for (k, v) in entries {
            let size = 4 + k.len() + v.len();
            if size > max {
                return Err(BTreeError::EntryTooLarge { size, max });
            }
        }
        if entries.is_empty() {
            return Self::create(store);
        }

        // Pack leaves: each holds as many consecutive entries as fit.
        let mut level: Vec<(Vec<u8>, PageId)> = Vec::new();
        let header = Node::empty_leaf().encoded_size();
        let mut start = 0;
        let mut size = header;
        for (i, (k, v)) in entries.iter().enumerate() {
            let entry = 4 + k.len() + v.len();
            if size + entry > page_size && i > start {
                level.push(Self::write_leaf(store, entries, start..i)?);
                start = i;
                size = header;
            }
            size += entry;
        }
        level.push(Self::write_leaf(store, entries, start..entries.len())?);

        // Stack internal levels until one node covers everything.
        while level.len() > 1 {
            level = Self::pack_internal_level(store, level)?;
        }
        Ok(Self { root: level[0].1 })
    }

    /// Writes the packed leaf `entries[run]`, returning the separator
    /// that bounds it on the left (empty for the first leaf) and its
    /// page id.
    fn write_leaf<S: PageStore>(
        store: &mut S,
        entries: &[(Vec<u8>, Vec<u8>)],
        run: std::ops::Range<usize>,
    ) -> Result<(Vec<u8>, PageId)> {
        let sep = match run.start.checked_sub(1) {
            Some(last) => separator(&entries[last].0, &entries[run.start].0),
            None => Vec::new(),
        };
        let id = store.alloc_page()?;
        Self::save(store, id, &Node::Leaf(entries[run].to_vec()))?;
        Ok((sep, id))
    }

    /// Packs one internal level over `below` (each item the separator
    /// that bounds that child's subtree on the left, unused for the
    /// first, plus its page id), returning the level built. A trailing
    /// node is never left with a single child: the packing stops one
    /// short when only one item would remain.
    fn pack_internal_level<S: PageStore>(
        store: &mut S,
        below: Vec<(Vec<u8>, PageId)>,
    ) -> Result<Vec<(Vec<u8>, PageId)>> {
        let page_size = store.page_size();
        let mut level = Vec::new();
        let mut i = 0;
        while i < below.len() {
            // 3-byte header + 4 bytes for the first child, then
            // (2 + key + 4) per further child.
            let mut size = 3 + 4;
            let mut j = i + 1;
            while j < below.len() {
                let added = 2 + below[j].0.len() + 4;
                if size + added > page_size {
                    break;
                }
                size += added;
                j += 1;
            }
            // Never leave a lone child for the trailing node: give up
            // one of ours instead (entry-size bounds guarantee any node
            // fits at least two children).
            if j + 1 == below.len() && j - i >= 2 {
                j -= 1;
            }
            let keys = below[i + 1..j].iter().map(|(k, _)| k.clone()).collect();
            let children = below[i..j].iter().map(|&(_, id)| id).collect();
            let id = store.alloc_page()?;
            Self::save(store, id, &Node::Internal { keys, children })?;
            level.push((below[i].0.clone(), id));
            i = j;
        }
        Ok(level)
    }

    /// The current root page id. The owner must persist this across
    /// restarts (it changes when the root splits or collapses).
    pub fn root(&self) -> PageId {
        self.root
    }

    /// Reads page `id` with `read`, a reader of the node format: the one
    /// store access a node visit makes, its bytes borrowed.
    fn read<S: PageStore, R>(
        store: &mut S,
        id: PageId,
        read: impl FnOnce(&[u8]) -> std::result::Result<R, String>,
    ) -> Result<R> {
        store
            .with_page(id, read)?
            .map_err(|e| BTreeError::Corrupt(format!("page {id}: {e}")))
    }

    fn load<S: PageStore>(store: &mut S, id: PageId) -> Result<Node> {
        Self::read(store, id, Node::decode)
    }

    fn save<S: PageStore>(store: &mut S, id: PageId, node: &Node) -> Result<()> {
        store.write_page(id, &node.encode(store.page_size()))?;
        Ok(())
    }

    // ----- lookup -------------------------------------------------------------

    /// Returns the value stored under `key`, if any. Each node is read
    /// in place through [`PageStore::with_page`], undecoded: nothing is
    /// copied but the value found.
    pub fn get<S: PageStore>(&self, store: &mut S, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let mut id = self.root;
        loop {
            let step = Self::read(store, id, |page| match NodeView::parse(page)? {
                NodeView::Leaf(entries) => {
                    let mut found = None;
                    for entry in entries {
                        let (k, v) = entry?;
                        if found.is_none() && k == key {
                            found = Some(v.to_vec());
                        }
                    }
                    Ok(ControlFlow::Break(found))
                }
                // The child after the last separator `<= key`: the one
                // an edit of `key` routes to.
                NodeView::Internal(first, mut seps) => seps
                    .try_fold(first, |child, sep| {
                        sep.map(|(sep, next)| if sep <= key { next } else { child })
                    })
                    .map(ControlFlow::Continue),
            })?;
            match step {
                ControlFlow::Continue(child) => id = child,
                ControlFlow::Break(found) => return Ok(found),
            }
        }
    }

    /// The greatest entry with `lo <= key < hi`, if there is one: a
    /// predecessor search routed by `hi`, so it reads one node per level
    /// however many entries or leaves the range spans. (Only a separator
    /// that outlived every key between it and `hi` sends the walk one
    /// subtree left for the answer.)
    pub fn last_in_range<S: PageStore>(
        &self,
        store: &mut S,
        lo: &[u8],
        hi: &[u8],
    ) -> Result<Option<Entry>> {
        let last = Self::last_below(store, self.root, hi)?;
        Ok(last.filter(|(k, _)| k.as_slice() >= lo))
    }

    /// The greatest entry below `hi` in the subtree at `id`, each node
    /// read in place.
    fn last_below<S: PageStore>(store: &mut S, id: PageId, hi: &[u8]) -> Result<Option<Entry>> {
        let step = Self::read(store, id, |page| match NodeView::parse(page)? {
            NodeView::Leaf(entries) => {
                let mut last = None;
                for entry in entries {
                    let (k, v) = entry?;
                    if k < hi {
                        last = Some((k, v));
                    }
                }
                Ok(ControlFlow::Break(
                    last.map(|(k, v)| (k.to_vec(), v.to_vec())),
                ))
            }
            // The children up to the one after the last separator
            // below `hi`, which holds the greatest key below `hi` unless
            // a stale separator says otherwise.
            NodeView::Internal(first, seps) => {
                let mut children = vec![first];
                for sep in seps {
                    let (sep, child) = sep?;
                    if sep < hi {
                        children.push(child);
                    }
                }
                Ok(ControlFlow::Continue(children))
            }
        })?;
        let children = match step {
            ControlFlow::Break(last) => return Ok(last),
            ControlFlow::Continue(children) => children,
        };
        // Every child left of the routed one holds only keys below `hi`,
        // so the first non-empty answer is the one.
        for &child in children.iter().rev() {
            if let Some(entry) = Self::last_below(store, child, hi)? {
                return Ok(Some(entry));
            }
        }
        Ok(None)
    }

    // ----- edits ---------------------------------------------------------------
    //
    // An edit walks down reading each node in place: an internal node is
    // routed through and its bytes kept, a leaf is read for the cell the
    // edit adds, replaces or drops, and the page it makes is that one
    // cell spliced into or out of the old bytes ([`splice`]). A node is
    // decoded into vectors only when it splits, merges or borrows. The
    // store sees the calls the decode → edit → encode walk made, in the
    // same order, each page written byte for byte the same.

    /// Walks down from the root reading each node in place: an internal
    /// node routes the walk to the child after the last separator `right`
    /// holds for, and is kept as a [`Hop`]; the leaf is handed to `leaf`.
    /// Returns the internal nodes passed, the leaf's id and what `leaf`
    /// made of it.
    fn descend<S: PageStore, R>(
        &self,
        store: &mut S,
        right: impl Fn(&[u8]) -> bool,
        mut leaf: impl FnMut(&[u8], Entries<'_>) -> std::result::Result<R, String>,
    ) -> Result<(Vec<Hop>, PageId, R)> {
        let (mut path, mut id) = (Vec::new(), self.root);
        loop {
            let step = Self::read(store, id, |page| match NodeView::parse(page)? {
                NodeView::Leaf(entries) => leaf(page, entries).map(ControlFlow::Break),
                NodeView::Internal(first, mut seps) => {
                    let (mut child, mut idx, mut at, mut count) = (first, 0, seps.offset(), 0);
                    while let Some(sep) = seps.next() {
                        let (sep, next) = sep?;
                        count += 1;
                        if right(sep) {
                            (child, idx, at) = (next, count, seps.offset());
                        }
                    }
                    let page = page[..seps.offset()].to_vec();
                    Ok(ControlFlow::Continue((
                        child,
                        Hop {
                            id,
                            page,
                            count,
                            idx,
                            at,
                        },
                    )))
                }
            })?;
            match step {
                ControlFlow::Continue((child, hop)) => {
                    path.push(hop);
                    id = child;
                }
                ControlFlow::Break(r) => return Ok((path, id, r)),
            }
        }
    }

    /// Puts the entry `(key, value)` into leaf `page` at `seek.at`, in
    /// place of the cell ending at `replaces` if given: spliced into the
    /// page when the leaf still fits, else put into the decoded entries
    /// for the split.
    fn leaf_edit(
        page: &[u8],
        page_size: usize,
        seek: &LeafSeek<'_>,
        replaces: Option<usize>,
        key: &[u8],
        value: &[u8],
    ) -> std::result::Result<LeafEdit, String> {
        let cut = seek.at..replaces.unwrap_or(seek.at);
        let cell = Cell::Entry(key, value);
        if seek.end - cut.len() + cell.size() <= page_size {
            let count = seek.count + usize::from(replaces.is_none());
            return Ok(LeafEdit::Write(splice(
                page,
                page_size,
                count,
                seek.end,
                cut,
                Some(cell),
            )));
        }
        let Node::Leaf(mut entries) = Node::decode(page)? else {
            unreachable!("a leaf decodes as a leaf")
        };
        match replaces {
            Some(_) => entries[seek.below].1 = value.to_vec(),
            None => entries.insert(seek.below, (key.to_vec(), value.to_vec())),
        }
        Ok(LeafEdit::Split(entries, seek.below))
    }

    /// Writes what [`Self::leaf_edit`] made of the leaf at the end of the
    /// walk `path`: its new page, or its entries as two leaves, split by
    /// [`split_leaf`] and told apart by the shortest separator.
    fn save_leaf<S: PageStore>(
        store: &mut S,
        path: &[Hop],
        id: PageId,
        edit: LeafEdit,
    ) -> Result<Option<Split>> {
        let (entries, at) = match edit {
            LeafEdit::Write(page) => {
                store.write_page(id, &page)?;
                return Ok(None);
            }
            LeafEdit::Split(entries, at) => (entries, at),
        };
        let bound = path.iter().rev().find_map(Hop::bound);
        let (left, right) = split_leaf(entries, at, bound, store.page_size());
        let sep = separator(&left[left.len() - 1].0, &right[0].0);
        let right_id = store.alloc_page()?;
        Self::save(store, right_id, &Node::Leaf(right))?;
        Self::save(store, id, &Node::Leaf(left))?;
        Ok(Some(Split {
            sep,
            right: right_id,
        }))
    }

    /// Carries a split up the walk: each internal node passed takes its
    /// child's separator, spliced in while it fits and split when it
    /// does not, until one takes it without splitting. Returns the root's
    /// split, if it split.
    fn adopt_up<S: PageStore>(
        store: &mut S,
        path: Vec<Hop>,
        mut split: Option<Split>,
    ) -> Result<Option<Split>> {
        let page_size = store.page_size();
        for hop in path.into_iter().rev() {
            let Some(child) = split else {
                return Ok(None);
            };
            let cell = Cell::Sep(&child.sep, child.right);
            if hop.page.len() + cell.size() <= page_size {
                let page = splice(
                    &hop.page,
                    page_size,
                    hop.count + 1,
                    hop.page.len(),
                    hop.at..hop.at,
                    Some(cell),
                );
                store.write_page(hop.id, &page)?;
                return Ok(None);
            }
            let (keys, children) = hop.decode()?;
            split = Self::adopt_split(store, hop.id, keys, children, hop.idx, child)?;
        }
        Ok(split)
    }

    /// Inserts `key → value`, returning the previous value if the key was
    /// already present.
    pub fn insert<S: PageStore>(
        &mut self,
        store: &mut S,
        key: &[u8],
        value: &[u8],
    ) -> Result<Option<Vec<u8>>> {
        let page_size = store.page_size();
        Self::check_entry_size(page_size, key, value)?;
        let (path, id, (old, edit)) = self.descend(
            store,
            |sep| sep <= key,
            |page, entries| {
                let seek = LeafSeek::new(entries, |k| k < key)?;
                let (old, replaces) = match seek.next {
                    Some((k, v, end)) if k == key => (Some(v.to_vec()), Some(end)),
                    _ => (None, None),
                };
                let edit = Self::leaf_edit(page, page_size, &seek, replaces, key, value)?;
                Ok((old, edit))
            },
        )?;
        let split = Self::save_leaf(store, &path, id, edit)?;
        let split = Self::adopt_up(store, path, split)?;
        self.grow_root(store, split)?;
        Ok(old)
    }

    fn check_entry_size(page_size: usize, key: &[u8], value: &[u8]) -> Result<()> {
        let size = 4 + key.len() + value.len();
        let max = Self::max_entry_size(page_size);
        if size > max {
            return Err(BTreeError::EntryTooLarge { size, max });
        }
        Ok(())
    }

    /// The root split: grow the tree by one level.
    fn grow_root<S: PageStore>(&mut self, store: &mut S, split: Option<Split>) -> Result<()> {
        let Some(split) = split else {
            return Ok(());
        };
        let new_root = store.alloc_page()?;
        let node = Node::Internal {
            keys: vec![split.sep],
            children: vec![self.root, split.right],
        };
        Self::save(store, new_root, &node)?;
        self.root = new_root;
        Ok(())
    }

    /// Takes the split of `children[idx]` into the internal node at `id`,
    /// splitting that in turn if it no longer fits its page.
    fn adopt_split<S: PageStore>(
        store: &mut S,
        id: PageId,
        mut keys: Vec<Vec<u8>>,
        mut children: Vec<PageId>,
        idx: usize,
        child: Split,
    ) -> Result<Option<Split>> {
        keys.insert(idx, child.sep);
        children.insert(idx + 1, child.right);
        Self::save_internal(store, id, keys, children)
    }

    /// Writes the internal node at `id`, split in two when it no longer
    /// fits its page; returns the split for its parent to adopt.
    fn save_internal<S: PageStore>(
        store: &mut S,
        id: PageId,
        keys: Vec<Vec<u8>>,
        children: Vec<PageId>,
    ) -> Result<Option<Split>> {
        let node = Node::Internal { keys, children };
        if node.fits(store.page_size()) {
            Self::save(store, id, &node)?;
            return Ok(None);
        }
        let Node::Internal { keys, children } = node else {
            unreachable!()
        };
        let (left, promoted, right) = split_internal(keys, children, store.page_size());
        let right_id = store.alloc_page()?;
        Self::save(store, right_id, &right)?;
        Self::save(store, id, &left)?;
        Ok(Some(Split {
            sep: promoted,
            right: right_id,
        }))
    }

    /// Inserts the entry `build` makes of the greatest entry in
    /// `[lo, hi)` — handed to it, or `None` when the range is empty — in
    /// the one walk that finds that entry. The built key must lie in the
    /// range above the entry shown (a name's next version); `build`
    /// returning `None` leaves the tree as it was. Returns whether an
    /// entry went in.
    ///
    /// The walk is routed by `hi`, like [`BTree::last_in_range`]'s, and
    /// the new key belongs in the leaf it ends at whenever that leaf
    /// holds anything below `hi`: it then costs the reads of one lookup
    /// and the writes of one insert. A leaf with nothing below `hi` (its
    /// separator outlived the keys that made it) says neither what the
    /// predecessor is nor whether the new key belongs left of it, and
    /// the insert is redone as a lookup followed by [`BTree::insert`].
    pub fn insert_routed<S: PageStore>(
        &mut self,
        store: &mut S,
        lo: &[u8],
        hi: &[u8],
        build: &mut BuildEntry<'_>,
    ) -> Result<bool> {
        let page_size = store.page_size();
        let (path, id, routed) = self.descend(
            store,
            |sep| sep < hi,
            |page, entries| {
                let seek = LeafSeek::new(entries, |k| k < hi)?;
                let Some((last_key, last_value)) = seek.last else {
                    return Ok(Ok(Routed::Astray));
                };
                // An entry below `lo` is no predecessor to show, but it
                // still proves the new key sorts into this leaf.
                let shown = (last_key >= lo).then_some((last_key, last_value));
                let Some((key, value)) = build(shown) else {
                    return Ok(Ok(Routed::Declined));
                };
                let checked = Self::check_routed_key(&key, lo, hi, shown)
                    .and_then(|()| Self::check_entry_size(page_size, &key, &value));
                if let Err(e) = checked {
                    return Ok(Err(e));
                }
                let edit = Self::leaf_edit(page, page_size, &seek, None, &key, &value)?;
                Ok(Ok(Routed::Inserted(edit)))
            },
        )?;
        match routed? {
            Routed::Inserted(edit) => {
                let split = Self::save_leaf(store, &path, id, edit)?;
                let split = Self::adopt_up(store, path, split)?;
                self.grow_root(store, split)?;
            }
            Routed::Declined => return Ok(false),
            Routed::Astray => {
                let last = self.last_in_range(store, lo, hi)?;
                let shown = last.as_ref().map(|(k, v)| (k.as_slice(), v.as_slice()));
                let Some((key, value)) = build(shown) else {
                    return Ok(false);
                };
                Self::check_routed_key(&key, lo, hi, shown)?;
                self.insert(store, &key, &value)?;
            }
        }
        Ok(true)
    }

    /// A routed insert's key must lie in `[lo, hi)` above the entry its
    /// builder was shown: anywhere else it would land in a leaf whose
    /// separators do not cover it.
    fn check_routed_key(
        key: &[u8],
        lo: &[u8],
        hi: &[u8],
        shown: Option<(&[u8], &[u8])>,
    ) -> Result<()> {
        let above = shown.map_or(key >= lo, |(last, _)| key > last);
        if above && key < hi {
            return Ok(());
        }
        Err(BTreeError::Corrupt(
            "routed insert built a key outside its range".to_string(),
        ))
    }

    // ----- delete -------------------------------------------------------------

    /// Removes `key`, returning its value if it was present.
    pub fn delete<S: PageStore>(&mut self, store: &mut S, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.delete_if(store, key, &mut |_, _| true)
    }

    /// Removes `key` if it is present and `take` accepts its entry,
    /// returning its value; a declined delete writes nothing.
    pub fn delete_if<S: PageStore>(
        &mut self,
        store: &mut S,
        key: &[u8],
        take: &mut TakeEntry<'_>,
    ) -> Result<Option<Vec<u8>>> {
        let page_size = store.page_size();
        let (path, id, cut) = self.descend(
            store,
            |sep| sep <= key,
            |page, entries| {
                let seek = LeafSeek::new(entries, |k| k < key)?;
                Ok(match seek.next.filter(|&(k, ..)| k == key) {
                    Some((k, v, end)) if take(k, v) => {
                        Self::cut(page, page_size, &seek, seek.at..end, k, v)
                    }
                    _ => Cut::Missing,
                })
            },
        )?;
        let removed = self.save_cut(store, path, id, cut)?;
        Ok(removed.map(|(_, value)| value))
    }

    /// Removes the greatest entry with `lo <= key < hi`, if there is one
    /// and `take` accepts it, in the one walk that finds it: a name's
    /// newest version goes for the reads of one lookup and the writes of
    /// one delete. A declined delete writes nothing.
    ///
    /// The walk is routed by `hi`, like [`BTree::last_in_range`]'s. When
    /// the leaf it ends at holds a key below `hi`, the greatest such key
    /// is the one to remove, and every separator the walk passed below
    /// `hi` is at most that key (each bounds a subtree the key is in from
    /// below): the path is the one [`BTree::delete`] of that key takes,
    /// and the delete finishes as that one does. A leaf with nothing
    /// below `hi` (its separator outlived the keys that made it) is
    /// redone as a lookup followed by [`BTree::delete`].
    pub fn delete_routed<S: PageStore>(
        &mut self,
        store: &mut S,
        lo: &[u8],
        hi: &[u8],
        take: &mut TakeEntry<'_>,
    ) -> Result<Option<Entry>> {
        let page_size = store.page_size();
        let (path, id, cut) = self.descend(
            store,
            |sep| sep < hi,
            |page, entries| {
                let seek = LeafSeek::new(entries, |k| k < hi)?;
                Ok(match seek.last {
                    Some((k, v)) if k >= lo && take(k, v) => {
                        Self::cut(page, page_size, &seek, seek.last_at..seek.at, k, v)
                    }
                    Some(_) => Cut::Missing,
                    None => Cut::Astray,
                })
            },
        )?;
        if let Cut::Astray = cut {
            let Some((key, value)) = self.last_in_range(store, lo, hi)? else {
                return Ok(None);
            };
            if !take(&key, &value) {
                return Ok(None);
            }
            let old = self.delete(store, &key)?;
            return Ok(old.map(|value| (key, value)));
        }
        self.save_cut(store, path, id, cut)
    }

    /// Leaf `page` without the entry `(key, value)` whose cell spans
    /// `cell`.
    fn cut(
        page: &[u8],
        page_size: usize,
        seek: &LeafSeek<'_>,
        cell: std::ops::Range<usize>,
        key: &[u8],
        value: &[u8],
    ) -> Cut {
        let under = seek.end - cell.len() < page_size / 3;
        let page = splice(page, page_size, seek.count - 1, seek.end, cell, None);
        Cut::Removed((key.to_vec(), value.to_vec()), page, under)
    }

    /// Finishes a delete whose walk passed `path` and ended at leaf `id`:
    /// writes the leaf without the entry removed; each level up whose
    /// child underflowed then rebalances it, and may underflow in turn;
    /// an internal root left with a single child collapses into it. A
    /// rebalance promotes a new separator, which may be longer than the
    /// one it replaces: a node it no longer fits splits, and the split
    /// goes up as an insert's does. Returns the entry removed.
    fn save_cut<S: PageStore>(
        &mut self,
        store: &mut S,
        mut path: Vec<Hop>,
        id: PageId,
        cut: Cut,
    ) -> Result<Option<Entry>> {
        let Cut::Removed(removed, page, mut under) = cut else {
            return Ok(None);
        };
        let threshold = store.page_size() / 3;
        store.write_page(id, &page)?;
        while under {
            let Some(hop) = path.pop() else { break };
            let (mut keys, mut children) = hop.decode()?;
            Self::rebalance_child(store, &mut keys, &mut children, hop.idx)?;
            under = internal_size(&keys) < threshold;
            let split = Self::save_internal(store, hop.id, keys, children)?;
            if split.is_some() {
                let split = Self::adopt_up(store, path, split)?;
                self.grow_root(store, split)?;
                return Ok(Some(removed));
            }
        }
        // Only a merge below the root can leave it a single child, and a
        // merge reports the root underflowed, so nothing else re-reads it.
        if under {
            if let Node::Internal { keys, children } = Self::load(store, self.root)? {
                if keys.is_empty() {
                    store.free_page(self.root)?;
                    self.root = children[0];
                }
            }
        }
        Ok(Some(removed))
    }

    /// Restores the size invariant of `children[idx]` by stealing from or
    /// merging with an adjacent sibling, updating `keys`/`children` in
    /// place.
    fn rebalance_child<S: PageStore>(
        store: &mut S,
        keys: &mut Vec<Vec<u8>>,
        children: &mut Vec<PageId>,
        idx: usize,
    ) -> Result<()> {
        // Prefer the right sibling; fall back to the left (idx 0 has none
        // on the left, the last child none on the right).
        let (left_idx, right_idx) = if idx + 1 < children.len() {
            (idx, idx + 1)
        } else if idx > 0 {
            (idx - 1, idx)
        } else {
            return Ok(()); // Root child with no siblings: nothing to do.
        };
        let left_id = children[left_idx];
        let right_id = children[right_idx];
        let left = Self::load(store, left_id)?;
        let right = Self::load(store, right_id)?;
        let page_size = store.page_size();
        let threshold = page_size / 3;
        let sep = keys[left_idx].clone();

        match (left, right) {
            (Node::Leaf(mut l), Node::Leaf(mut r)) => {
                let merged_size =
                    Node::Leaf(Vec::new()).encoded_size() + leaf_payload(&l) + leaf_payload(&r);
                if merged_size <= page_size {
                    // Merge right into left; drop the separator.
                    l.append(&mut r);
                    Self::save(store, left_id, &Node::Leaf(l))?;
                    store.free_page(right_id)?;
                    keys.remove(left_idx);
                    children.remove(right_idx);
                } else {
                    // Borrow: even the two out, so that the next deletes
                    // from the one that underflowed do not land here again
                    // at once. Together they exceed a page while each
                    // entry is at most a quarter of one, so both end above
                    // the threshold.
                    even_out(&mut l, &mut r);
                    keys[left_idx] = separator(&l[l.len() - 1].0, &r[0].0);
                    Self::save(store, left_id, &Node::Leaf(l))?;
                    Self::save(store, right_id, &Node::Leaf(r))?;
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
                let merged = {
                    let mut keys = lk.clone();
                    keys.push(sep.clone());
                    keys.extend(rk.iter().cloned());
                    let mut ch = lc.clone();
                    ch.extend(rc.iter().cloned());
                    Node::Internal { keys, children: ch }
                };
                if merged.fits(page_size) {
                    Self::save(store, left_id, &merged)?;
                    store.free_page(right_id)?;
                    keys.remove(left_idx);
                    children.remove(right_idx);
                } else {
                    // Rotate one entry through the parent separator.
                    let mut sep = sep;
                    if internal_size(&lk) < threshold {
                        // Borrow from the right sibling.
                        while internal_size(&lk) < threshold {
                            lk.push(std::mem::replace(&mut sep, rk.remove(0)));
                            lc.push(rc.remove(0));
                        }
                    } else {
                        // Borrow from the left sibling.
                        while internal_size(&rk) < threshold {
                            rk.insert(0, std::mem::replace(&mut sep, lk.pop().expect("donor")));
                            rc.insert(0, lc.pop().expect("donor"));
                        }
                    }
                    keys[left_idx] = sep;
                    Self::save(
                        store,
                        left_id,
                        &Node::Internal {
                            keys: lk,
                            children: lc,
                        },
                    )?;
                    Self::save(
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

    // ----- scans --------------------------------------------------------------

    /// Visits all entries with `lo <= key < hi` (unbounded above when `hi`
    /// is `None`) in key order. The callback returns `false` to stop early.
    pub fn for_each_range<S: PageStore>(
        &self,
        store: &mut S,
        lo: &[u8],
        hi: Option<&[u8]>,
        f: &mut dyn FnMut(&[u8], &[u8]) -> bool,
    ) -> Result<()> {
        Self::scan_rec(store, self.root, lo, hi, f)?;
        Ok(())
    }

    /// Visits every entry in key order.
    pub fn for_each<S: PageStore>(
        &self,
        store: &mut S,
        f: &mut dyn FnMut(&[u8], &[u8]) -> bool,
    ) -> Result<()> {
        self.for_each_range(store, &[], None, f)
    }

    /// Collects all entries with `lo <= key < hi`.
    pub fn collect_range<S: PageStore>(
        &self,
        store: &mut S,
        lo: &[u8],
        hi: Option<&[u8]>,
    ) -> Result<Vec<Entry>> {
        let mut out = Vec::new();
        self.for_each_range(store, lo, hi, &mut |k, v| {
            out.push((k.to_vec(), v.to_vec()));
            true
        })?;
        Ok(out)
    }

    /// Number of entries in the tree (full scan).
    pub fn len<S: PageStore>(&self, store: &mut S) -> Result<usize> {
        let mut n = 0;
        self.for_each(store, &mut |_, _| {
            n += 1;
            true
        })?;
        Ok(n)
    }

    /// Returns `false` if the callback stopped the scan. Each node is
    /// read in place: a leaf's entries are handed to `f` from the page,
    /// once the whole leaf has read cleanly (a leaf that does not parse
    /// visits nothing), and an internal node yields the children whose
    /// key ranges meet `[lo, hi)`.
    fn scan_rec<S: PageStore>(
        store: &mut S,
        id: PageId,
        lo: &[u8],
        hi: Option<&[u8]>,
        f: &mut dyn FnMut(&[u8], &[u8]) -> bool,
    ) -> Result<bool> {
        let step = Self::read(store, id, |page| match NodeView::parse(page)? {
            NodeView::Leaf(entries) => {
                for entry in entries {
                    entry?;
                }
                let NodeView::Leaf(entries) = NodeView::parse(page)? else {
                    unreachable!("a leaf parses as a leaf")
                };
                for entry in entries {
                    let (k, v) = entry?;
                    if k < lo {
                        continue;
                    }
                    if hi.is_some_and(|hi| k >= hi) || !f(k, v) {
                        return Ok(ControlFlow::Break(false));
                    }
                }
                Ok(ControlFlow::Break(true))
            }
            // Child `i` is visited when the separator to its right (if
            // any) is above `lo` and the one to its left (if any) below
            // `hi`.
            NodeView::Internal(first, seps) => {
                let (mut children, mut child, mut after_left) = (Vec::new(), first, true);
                for sep in seps {
                    let (sep, next) = sep?;
                    if after_left && sep > lo {
                        children.push(child);
                    }
                    after_left = hi.is_none_or(|hi| sep < hi);
                    child = next;
                }
                if after_left {
                    children.push(child);
                }
                Ok(ControlFlow::Continue(children))
            }
        })?;
        let children = match step {
            ControlFlow::Break(more) => return Ok(more),
            ControlFlow::Continue(children) => children,
        };
        for child in children {
            if !Self::scan_rec(store, child, lo, hi, f)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    // ----- integrity ------------------------------------------------------------

    /// Exhaustively checks the structural invariants: uniform leaf depth,
    /// key ordering within and across nodes, separator correctness, and
    /// that every node fits its page. Used by tests and by the FSD
    /// consistency checker.
    pub fn check_invariants<S: PageStore>(&self, store: &mut S) -> Result<()> {
        self.check_entries(store, &mut |_, _| Ok(()))
    }

    /// [`Self::check_invariants`], showing each entry to `entry` in the
    /// same walk: an entry it refuses fails the check, naming the page
    /// and what `entry` said.
    pub fn check_entries<S: PageStore>(
        &self,
        store: &mut S,
        entry: &mut CheckEntry<'_>,
    ) -> Result<()> {
        Self::check_rec(store, self.root, None, None, entry)?;
        Ok(())
    }

    /// Returns the subtree depth.
    fn check_rec<S: PageStore>(
        store: &mut S,
        id: PageId,
        lower: Option<&[u8]>,
        upper: Option<&[u8]>,
        entry: &mut CheckEntry<'_>,
    ) -> Result<usize> {
        let node = Self::load(store, id)?;
        if !node.fits(store.page_size()) {
            return Err(BTreeError::Corrupt(format!("page {id} overflows")));
        }
        let in_bounds = |k: &[u8]| lower.is_none_or(|lo| k >= lo) && upper.is_none_or(|hi| k < hi);
        match node {
            Node::Leaf(entries) => {
                for w in entries.windows(2) {
                    if w[0].0 >= w[1].0 {
                        return Err(BTreeError::Corrupt(format!("page {id} keys unsorted")));
                    }
                }
                for (k, v) in &entries {
                    if !in_bounds(k) {
                        return Err(BTreeError::Corrupt(format!(
                            "page {id} key out of separator bounds"
                        )));
                    }
                    entry(k, v).map_err(|e| BTreeError::Corrupt(format!("page {id}: {e}")))?;
                }
                Ok(0)
            }
            Node::Internal { keys, children } => {
                if children.len() != keys.len() + 1 {
                    return Err(BTreeError::Corrupt(format!("page {id} malformed")));
                }
                for w in keys.windows(2) {
                    if w[0] >= w[1] {
                        return Err(BTreeError::Corrupt(format!("page {id} seps unsorted")));
                    }
                }
                for k in &keys {
                    if !in_bounds(k) {
                        return Err(BTreeError::Corrupt(format!(
                            "page {id} separator out of bounds"
                        )));
                    }
                }
                let mut depth = None;
                for (i, &child) in children.iter().enumerate() {
                    let lo = if i == 0 {
                        lower
                    } else {
                        Some(keys[i - 1].as_slice())
                    };
                    let hi = if i == keys.len() {
                        upper
                    } else {
                        Some(keys[i].as_slice())
                    };
                    let d = Self::check_rec(store, child, lo, hi, entry)?;
                    if *depth.get_or_insert(d) != d {
                        return Err(BTreeError::Corrupt(format!(
                            "page {id} children at unequal depths"
                        )));
                    }
                }
                Ok(depth.unwrap_or(0) + 1)
            }
        }
    }
}

/// Key/value pairs of one leaf page.
type LeafEntries = Vec<Entry>;

/// Splits the entries of an overfull leaf, `entries[at]` the one the
/// edit put in and `bound` the separator right of the leaf (`None` for
/// the rightmost leaf).
///
/// Names are made in runs that share a prefix (a directory's files, in
/// name order), each growing at its end. When the entry put in shares a
/// longer prefix with its predecessor than with its successor (the next
/// entry, or else `bound`), it ends its run in this leaf: the leaf is cut
/// just after it, or, when it is the leaf's last entry, just before it,
/// so that the left half keeps its run whole and full and the right
/// half starts the next. A cut that leaves a half too big for a page,
/// and every other overflow, splits by size instead. The rightmost leaf
/// always splits by size: a cut there would leave every leaf full on an
/// append-only load, which moves where the log's crash point lands in
/// its lap and so the time to the first read after it, a trade no
/// measure here can weigh yet.
fn split_leaf(
    entries: LeafEntries,
    at: usize,
    bound: Option<&[u8]>,
    page_size: usize,
) -> (LeafEntries, LeafEntries) {
    if let (Some(bound), Some(pred)) = (bound, at.checked_sub(1)) {
        let key = &entries[at].0;
        let succ = entries.get(at + 1).map_or(bound, |(k, _)| k);
        if common_prefix(key, &entries[pred].0) > common_prefix(key, succ) {
            let cut = (at + 1).min(entries.len() - 1);
            let header = Node::empty_leaf().encoded_size();
            let fits = |half: &[Entry]| header + leaf_payload(half) <= page_size;
            if fits(&entries[..cut]) && fits(&entries[cut..]) {
                let mut left = entries;
                let right = left.split_off(cut);
                return (left, right);
            }
        }
    }
    let total: usize = entries.iter().map(|(k, v)| 4 + k.len() + v.len()).sum();
    let mut acc = 0;
    let mut split_at = entries.len() - 1; // Right side always gets ≥ 1 entry.
    for (i, (k, v)) in entries.iter().enumerate() {
        acc += 4 + k.len() + v.len();
        if acc >= total / 2 && i + 1 < entries.len() {
            split_at = i + 1;
            break;
        }
    }
    let split_at = split_at.max(1);
    let mut left = entries;
    let right = left.split_off(split_at);
    debug_assert!(Node::Leaf(left.clone()).fits(page_size));
    debug_assert!(Node::Leaf(right.clone()).fits(page_size));
    (left, right)
}

/// Splits an overfull internal node, returning `(left, promoted key, right)`.
fn split_internal(
    keys: Vec<Vec<u8>>,
    children: Vec<PageId>,
    page_size: usize,
) -> (Node, Vec<u8>, Node) {
    let total: usize = keys.iter().map(|k| 2 + k.len() + 4).sum();
    let mut acc = 0;
    let mut mid = keys.len() / 2;
    for (i, k) in keys.iter().enumerate() {
        acc += 2 + k.len() + 4;
        if acc >= total / 2 && i + 1 < keys.len() {
            mid = i;
            break;
        }
    }
    let mid = mid.clamp(1, keys.len() - 2).max(1);
    let mut keys = keys;
    let mut children = children;
    let right_keys = keys.split_off(mid + 1);
    let promoted = keys.pop().expect("mid >= 1");
    let right_children = children.split_off(mid + 1);
    let left = Node::Internal { keys, children };
    let right = Node::Internal {
        keys: right_keys,
        children: right_children,
    };
    debug_assert!(left.fits(page_size));
    debug_assert!(right.fits(page_size));
    (left, promoted, right)
}

/// Encoded size of an internal node with separators `keys`.
fn internal_size(keys: &[Vec<u8>]) -> usize {
    3 + 4 + keys.iter().map(|k| 2 + k.len() + 4).sum::<usize>()
}

/// Encoded payload bytes of leaf entries (without the node header).
fn leaf_payload(entries: &[(Vec<u8>, Vec<u8>)]) -> usize {
    entries.iter().map(|(k, v)| 4 + k.len() + v.len()).sum()
}

/// Moves entries across the boundary of two sibling leaves, from the
/// fuller side, while each move brings their payloads closer.
fn even_out(l: &mut LeafEntries, r: &mut LeafEntries) {
    let size = |(k, v): &Entry| 4 + k.len() + v.len();
    loop {
        let (ls, rs) = (leaf_payload(l), leaf_payload(r));
        if r.first().is_some_and(|e| ls + size(e) < rs) {
            l.push(r.remove(0));
        } else if let Some(e) = l.pop_if(|e| rs + size(e) < ls) {
            r.insert(0, e);
        } else {
            return;
        }
    }
}

/// Bytes `a` and `b` share from the start.
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

/// The shortest key `s` with `left < s <= right`, for `left < right`:
/// `right` cut one byte past the prefix the two share (Bayer and
/// Unterauer's simple prefix B-tree). It routes everything at or above
/// `right` right of it and everything at or below `left` left.
fn separator(left: &[u8], right: &[u8]) -> Vec<u8> {
    debug_assert!(left < right, "separator of unordered keys");
    right[..(common_prefix(left, right) + 1).min(right.len())].to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemStore;

    const PS: usize = 256;

    fn key(i: u32) -> Vec<u8> {
        format!("key{i:06}").into_bytes()
    }

    fn val(i: u32) -> Vec<u8> {
        format!("value-{i}").into_bytes()
    }

    #[test]
    fn empty_tree_lookup_misses() {
        let mut s = MemStore::new(PS);
        let t = BTree::create(&mut s).unwrap();
        assert_eq!(t.get(&mut s, b"nope").unwrap(), None);
        assert_eq!(t.len(&mut s).unwrap(), 0);
    }

    #[test]
    fn insert_get_single() {
        let mut s = MemStore::new(PS);
        let mut t = BTree::create(&mut s).unwrap();
        assert_eq!(t.insert(&mut s, b"a", b"1").unwrap(), None);
        assert_eq!(t.get(&mut s, b"a").unwrap(), Some(b"1".to_vec()));
    }

    #[test]
    fn insert_replaces_and_returns_old() {
        let mut s = MemStore::new(PS);
        let mut t = BTree::create(&mut s).unwrap();
        t.insert(&mut s, b"a", b"1").unwrap();
        assert_eq!(t.insert(&mut s, b"a", b"2").unwrap(), Some(b"1".to_vec()));
        assert_eq!(t.get(&mut s, b"a").unwrap(), Some(b"2".to_vec()));
        assert_eq!(t.len(&mut s).unwrap(), 1);
    }

    #[test]
    fn many_inserts_split_and_stay_sorted() {
        let mut s = MemStore::new(PS);
        let mut t = BTree::create(&mut s).unwrap();
        for i in 0..500 {
            t.insert(&mut s, &key(i * 7919 % 500), &val(i)).unwrap();
        }
        t.check_invariants(&mut s).unwrap();
        let all = t.collect_range(&mut s, &[], None).unwrap();
        assert_eq!(all.len(), 500);
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
        for i in 0..500 {
            assert!(t.get(&mut s, &key(i)).unwrap().is_some(), "missing {i}");
        }
    }

    #[test]
    fn delete_missing_returns_none() {
        let mut s = MemStore::new(PS);
        let mut t = BTree::create(&mut s).unwrap();
        t.insert(&mut s, b"a", b"1").unwrap();
        assert_eq!(t.delete(&mut s, b"b").unwrap(), None);
        assert_eq!(t.len(&mut s).unwrap(), 1);
    }

    #[test]
    fn delete_returns_value_and_removes() {
        let mut s = MemStore::new(PS);
        let mut t = BTree::create(&mut s).unwrap();
        t.insert(&mut s, b"a", b"1").unwrap();
        assert_eq!(t.delete(&mut s, b"a").unwrap(), Some(b"1".to_vec()));
        assert_eq!(t.get(&mut s, b"a").unwrap(), None);
    }

    #[test]
    fn delete_everything_shrinks_tree_to_root() {
        let mut s = MemStore::new(PS);
        let mut t = BTree::create(&mut s).unwrap();
        for i in 0..300 {
            t.insert(&mut s, &key(i), &val(i)).unwrap();
        }
        for i in 0..300 {
            assert!(t.delete(&mut s, &key(i)).unwrap().is_some(), "{i}");
            t.check_invariants(&mut s).unwrap();
        }
        assert_eq!(t.len(&mut s).unwrap(), 0);
        // All pages but the root leaf were returned to the store.
        assert_eq!(s.live_pages(), 1);
    }

    #[test]
    fn interleaved_insert_delete_matches_model() {
        use std::collections::BTreeMap;
        let mut s = MemStore::new(PS);
        let mut t = BTree::create(&mut s).unwrap();
        let mut model = BTreeMap::new();
        let mut x: u64 = 12345;
        for step in 0..3000u32 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let k = key((x >> 33) as u32 % 200);
            if x.is_multiple_of(3) {
                let got = t.delete(&mut s, &k).unwrap();
                assert_eq!(got, model.remove(&k), "step {step}");
            } else {
                let v = val(step);
                let got = t.insert(&mut s, &k, &v).unwrap();
                assert_eq!(got, model.insert(k, v), "step {step}");
            }
        }
        t.check_invariants(&mut s).unwrap();
        let all = t.collect_range(&mut s, &[], None).unwrap();
        assert_eq!(all.len(), model.len());
        for ((k, v), (mk, mv)) in all.iter().zip(model.iter()) {
            assert_eq!((k, v), (mk, mv));
        }
    }

    #[test]
    fn range_scan_respects_bounds() {
        let mut s = MemStore::new(PS);
        let mut t = BTree::create(&mut s).unwrap();
        for i in 0..100 {
            t.insert(&mut s, &key(i), &val(i)).unwrap();
        }
        let r = t.collect_range(&mut s, &key(10), Some(&key(20))).unwrap();
        assert_eq!(r.len(), 10);
        assert_eq!(r[0].0, key(10));
        assert_eq!(r[9].0, key(19));
    }

    #[test]
    fn a_reversed_range_visits_nothing() {
        let mut s = MemStore::new(PS);
        let mut t = BTree::create(&mut s).unwrap();
        for i in 0..500 {
            t.insert(&mut s, &key(i), &val(i)).unwrap();
        }
        // Separators lie between the bounds: every child is cut off on
        // one side or the other.
        let r = t.collect_range(&mut s, &key(400), Some(&key(100))).unwrap();
        assert_eq!(r, []);
    }

    #[test]
    fn range_scan_early_stop() {
        let mut s = MemStore::new(PS);
        let mut t = BTree::create(&mut s).unwrap();
        for i in 0..100 {
            t.insert(&mut s, &key(i), &val(i)).unwrap();
        }
        let mut seen = 0;
        t.for_each(&mut s, &mut |_, _| {
            seen += 1;
            seen < 5
        })
        .unwrap();
        assert_eq!(seen, 5);
    }

    #[test]
    fn prefix_scan_finds_directory() {
        // List a "subdirectory" by name prefix, the way FS enumerates.
        let mut s = MemStore::new(PS);
        let mut t = BTree::create(&mut s).unwrap();
        for d in ["docs", "src", "tmp"] {
            for i in 0..20 {
                t.insert(&mut s, format!("{d}/f{i:02}").as_bytes(), b"x")
                    .unwrap();
            }
        }
        let r = t.collect_range(&mut s, b"src/", Some(b"src0")).unwrap();
        assert_eq!(r.len(), 20);
        assert!(r.iter().all(|(k, _)| k.starts_with(b"src/")));
    }

    #[test]
    fn oversized_entry_rejected() {
        let mut s = MemStore::new(PS);
        let mut t = BTree::create(&mut s).unwrap();
        let big = vec![0u8; PS];
        assert!(matches!(
            t.insert(&mut s, b"k", &big),
            Err(BTreeError::EntryTooLarge { .. })
        ));
    }

    #[test]
    fn root_survives_reopen() {
        let mut s = MemStore::new(PS);
        let mut t = BTree::create(&mut s).unwrap();
        for i in 0..200 {
            t.insert(&mut s, &key(i), &val(i)).unwrap();
        }
        let reopened = BTree::open(t.root());
        assert_eq!(reopened.get(&mut s, &key(123)).unwrap(), Some(val(123)));
    }

    #[test]
    fn large_values_near_max_entry() {
        let mut s = MemStore::new(PS);
        let mut t = BTree::create(&mut s).unwrap();
        let max = BTree::max_entry_size(PS);
        let v = vec![7u8; max - 4 - 8];
        for i in 0..50u32 {
            t.insert(&mut s, format!("big{i:04}").as_bytes(), &v)
                .unwrap();
        }
        t.check_invariants(&mut s).unwrap();
        assert_eq!(t.len(&mut s).unwrap(), 50);
    }

    #[test]
    fn bulk_load_empty_is_empty_tree() {
        let mut s = MemStore::new(PS);
        let t = BTree::bulk_load(&mut s, &[]).unwrap();
        t.check_invariants(&mut s).unwrap();
        assert_eq!(t.len(&mut s).unwrap(), 0);
        assert_eq!(t.get(&mut s, b"x").unwrap(), None);
    }

    #[test]
    fn bulk_load_matches_insert_built_tree_contents() {
        for n in [1usize, 2, 7, 64, 500, 2000] {
            let entries: Vec<(Vec<u8>, Vec<u8>)> =
                (0..n as u32).map(|i| (key(i), val(i))).collect();
            let mut s = MemStore::new(PS);
            let t = BTree::bulk_load(&mut s, &entries).unwrap();
            t.check_invariants(&mut s).unwrap();
            let all = t.collect_range(&mut s, &[], None).unwrap();
            assert_eq!(all, entries, "n = {n}");
            for (k, v) in &entries {
                assert_eq!(t.get(&mut s, k).unwrap().as_ref(), Some(v));
            }
        }
    }

    #[test]
    fn bulk_load_writes_far_fewer_pages_than_inserts() {
        let entries: Vec<(Vec<u8>, Vec<u8>)> = (0..2000u32).map(|i| (key(i), val(i))).collect();
        let mut bulk_store = MemStore::new(PS);
        BTree::bulk_load(&mut bulk_store, &entries).unwrap();
        let mut insert_store = MemStore::new(PS);
        let mut t = BTree::create(&mut insert_store).unwrap();
        for (k, v) in &entries {
            t.insert(&mut insert_store, k, v).unwrap();
        }
        assert!(
            bulk_store.ops.1 * 10 < insert_store.ops.1,
            "bulk {} vs insert {}",
            bulk_store.ops.1,
            insert_store.ops.1
        );
        // Same number of live pages, give or take packing density.
        assert!(bulk_store.live_pages() <= insert_store.live_pages());
    }

    #[test]
    fn bulk_load_supports_mutation_afterwards() {
        let entries: Vec<(Vec<u8>, Vec<u8>)> = (0..800u32).map(|i| (key(i * 2), val(i))).collect();
        let mut s = MemStore::new(PS);
        let mut t = BTree::bulk_load(&mut s, &entries).unwrap();
        for i in 0..200u32 {
            t.insert(&mut s, &key(i * 2 + 1), &val(i)).unwrap();
        }
        for i in 0..100u32 {
            assert!(t.delete(&mut s, &key(i * 4)).unwrap().is_some());
        }
        t.check_invariants(&mut s).unwrap();
        assert_eq!(t.len(&mut s).unwrap(), 800 + 200 - 100);
    }

    #[test]
    fn bulk_load_rejects_unsorted_and_duplicate_keys() {
        let mut s = MemStore::new(PS);
        let unsorted = vec![(key(2), val(0)), (key(1), val(1))];
        assert!(matches!(
            BTree::bulk_load(&mut s, &unsorted),
            Err(BTreeError::Corrupt(_))
        ));
        let dup = vec![(key(1), val(0)), (key(1), val(1))];
        assert!(matches!(
            BTree::bulk_load(&mut s, &dup),
            Err(BTreeError::Corrupt(_))
        ));
    }

    #[test]
    fn bulk_load_rejects_oversized_entry() {
        let mut s = MemStore::new(PS);
        let big = vec![(key(1), vec![0u8; PS])];
        assert!(matches!(
            BTree::bulk_load(&mut s, &big),
            Err(BTreeError::EntryTooLarge { .. })
        ));
    }

    #[test]
    fn the_separator_is_the_shortest_key_between() {
        assert_eq!(
            separator(b"mbox017/m0019817", b"mbox018/m0000018"),
            b"mbox018"
        );
        assert_eq!(separator(b"ab", b"ab0"), b"ab0");
        assert_eq!(separator(b"ab\0\x01", b"ab\x01"), b"ab\x01");
        assert_eq!(separator(b"a", b"b"), b"b");
    }

    #[test]
    fn a_borrow_evens_the_leaves_out() {
        let entries =
            |n: u32, at: u32| -> LeafEntries { (at..at + n).map(|i| (key(i), val(i))).collect() };
        let (mut l, mut r) = (entries(2, 0), entries(10, 100));
        even_out(&mut l, &mut r);
        assert_eq!((l.len(), r.len()), (6, 6));
        assert_eq!(l[5].0, key(103));
        let (mut l, mut r) = (entries(9, 0), entries(1, 100));
        even_out(&mut l, &mut r);
        assert_eq!((l.len(), r.len()), (5, 5));
    }

    #[test]
    fn corrupt_page_surfaces_as_corrupt_error() {
        let mut s = MemStore::new(PS);
        let mut t = BTree::create(&mut s).unwrap();
        for i in 0..100 {
            t.insert(&mut s, &key(i), &val(i)).unwrap();
        }
        // Smash the root.
        s.write_page(t.root(), &vec![0xFF; PS]).unwrap();
        assert!(matches!(
            t.get(&mut s, &key(1)),
            Err(BTreeError::Corrupt(_))
        ));
    }
}
