//! On-page node format.
//!
//! Nodes are serialized into fixed-size pages with a hand-rolled layout —
//! the on-disk encoding is itself part of the artifact being reproduced, so
//! no serialization framework is used.
//!
//! Leaf page: `[1u8][count u16][ (klen u16, vlen u16, key, value)* ]`.
//! Internal page: `[2u8][count u16][child0 u32][ (klen u16, key, child u32)* ]`,
//! where `count` is the number of separator keys and separator `i` lies
//! strictly above every key in child `i` and at or below every key in
//! child `i + 1`. A split promotes the shortest such key, which need not
//! be a key of the tree; whole keys meet the same rule, so a tree whose
//! separators are whole keys reads and edits the same.

/// A node must be able to hold at least this many maximum-size entries;
/// entries larger than `(page_size - 3) / MAX_ENTRY_FRACTION` are rejected.
pub const MAX_ENTRY_FRACTION: usize = 4;

const LEAF_TAG: u8 = 1;
const INTERNAL_TAG: u8 = 2;
const HEADER: usize = 3;
const RUNS_OFF: &str = "node entry runs off page";

/// An in-memory B-tree node, decoded from (or about to be encoded to) a
/// page.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Node {
    /// Sorted `(key, value)` pairs.
    Leaf(Vec<(Vec<u8>, Vec<u8>)>),
    /// Separator keys and child page ids; `children.len() == keys.len() + 1`.
    Internal {
        /// Separator keys: `keys[i]` is above every key reachable through
        /// `children[i]` and at most every key reachable through
        /// `children[i + 1]`.
        keys: Vec<Vec<u8>>,
        /// Child page ids.
        children: Vec<u32>,
    },
}

impl Node {
    /// Creates an empty leaf.
    pub fn empty_leaf() -> Self {
        Node::Leaf(Vec::new())
    }

    /// Serialized size in bytes.
    pub fn encoded_size(&self) -> usize {
        match self {
            Node::Leaf(entries) => {
                HEADER
                    + entries
                        .iter()
                        .map(|(k, v)| 4 + k.len() + v.len())
                        .sum::<usize>()
            }
            Node::Internal { keys, .. } => {
                HEADER + 4 + keys.iter().map(|k| 2 + k.len() + 4).sum::<usize>()
            }
        }
    }

    /// Returns `true` if the node fits in a page of `page_size` bytes.
    pub fn fits(&self, page_size: usize) -> bool {
        self.encoded_size() <= page_size
    }

    /// Number of entries (leaf) or separator keys (internal).
    pub fn len(&self) -> usize {
        match self {
            Node::Leaf(e) => e.len(),
            Node::Internal { keys, .. } => keys.len(),
        }
    }

    /// Returns `true` if the node holds no entries / separator keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Encodes the node into a `page_size`-byte buffer.
    ///
    /// # Panics
    ///
    /// Panics if the node does not fit (callers split before encoding).
    pub fn encode(&self, page_size: usize) -> Vec<u8> {
        assert!(self.fits(page_size), "node overflows page");
        let mut out = vec![0u8; page_size];
        match self {
            Node::Leaf(entries) => {
                out[0] = LEAF_TAG;
                out[1..3].copy_from_slice(&len16(entries.len()));
                let mut at = HEADER;
                for (k, v) in entries {
                    at = Cell::Entry(k, v).put(&mut out, at);
                }
            }
            Node::Internal { keys, children } => {
                assert_eq!(children.len(), keys.len() + 1, "malformed internal node");
                out[0] = INTERNAL_TAG;
                out[1..3].copy_from_slice(&len16(keys.len()));
                out[HEADER..HEADER + 4].copy_from_slice(&children[0].to_le_bytes());
                let mut at = HEADER + 4;
                for (k, &c) in keys.iter().zip(&children[1..]) {
                    at = Cell::Sep(k, c).put(&mut out, at);
                }
            }
        }
        out
    }

    /// Decodes a node from a page buffer: the cells a `NodeView` reads in
    /// place, copied.
    pub fn decode(page: &[u8]) -> Result<Self, String> {
        match NodeView::parse(page)? {
            NodeView::Leaf(Entries(mut cells)) => {
                let mut out = Vec::with_capacity(cells.left);
                for _ in 0..cells.left {
                    let (k, v) = cells.entry().ok_or(RUNS_OFF)?;
                    out.push((k.to_vec(), v.to_vec()));
                }
                Ok(Node::Leaf(out))
            }
            NodeView::Internal(first, Seps(mut cells)) => {
                let mut keys = Vec::with_capacity(cells.left);
                let mut children = Vec::with_capacity(cells.left + 1);
                children.push(first);
                for _ in 0..cells.left {
                    let (k, child) = cells.sep().ok_or(RUNS_OFF)?;
                    keys.push(k.to_vec());
                    children.push(child);
                }
                Ok(Node::Internal { keys, children })
            }
        }
    }
}

/// A `u16` field. Every length written is bounded by the `fits` check
/// (a page is far smaller than `u16::MAX` entries or bytes), so the
/// saturation never fires.
fn len16(n: usize) -> [u8; 2] {
    u16::try_from(n).unwrap_or(u16::MAX).to_le_bytes()
}

/// One cell of a page: the one writer of the page format, which
/// [`Node::encode`] and [`splice`] both call.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Cell<'a> {
    /// A leaf's `(klen u16, vlen u16, key, value)`.
    Entry(&'a [u8], &'a [u8]),
    /// An internal node's `(klen u16, separator, child u32)`.
    Sep(&'a [u8], u32),
}

impl Cell<'_> {
    /// Bytes the cell takes on the page.
    pub(crate) fn size(&self) -> usize {
        match self {
            Cell::Entry(k, v) => 4 + k.len() + v.len(),
            Cell::Sep(k, _) => 2 + k.len() + 4,
        }
    }

    /// Writes the cell at `at`, returning where the next one starts.
    fn put(&self, out: &mut [u8], at: usize) -> usize {
        match *self {
            Cell::Entry(k, v) => {
                out[at..at + 2].copy_from_slice(&len16(k.len()));
                out[at + 2..at + 4].copy_from_slice(&len16(v.len()));
                out[at + 4..at + 4 + k.len()].copy_from_slice(k);
                out[at + 4 + k.len()..at + 4 + k.len() + v.len()].copy_from_slice(v);
            }
            Cell::Sep(k, child) => {
                out[at..at + 2].copy_from_slice(&len16(k.len()));
                out[at + 2..at + 2 + k.len()].copy_from_slice(k);
                out[at + 2 + k.len()..at + 6 + k.len()].copy_from_slice(&child.to_le_bytes());
            }
        }
        at + self.size()
    }
}

/// The page a one-cell edit makes of `page`, whose cells end at `end`:
/// the bytes `cut` spans replaced by `cell` (or just dropped), the
/// header's count set to `count`, the rest zero — byte for byte what
/// [`Node::encode`] writes for the node edited. The caller has checked
/// that the result fits `page_size`.
pub(crate) fn splice(
    page: &[u8],
    page_size: usize,
    count: usize,
    end: usize,
    cut: std::ops::Range<usize>,
    cell: Option<Cell<'_>>,
) -> Vec<u8> {
    let mut out = vec![0u8; page_size];
    out[0] = page[0];
    out[1..3].copy_from_slice(&len16(count));
    out[HEADER..cut.start].copy_from_slice(&page[HEADER..cut.start]);
    let at = cell.map_or(cut.start, |c| c.put(&mut out, cut.start));
    out[at..at + end - cut.end].copy_from_slice(&page[cut.end..end]);
    out
}

/// A node read in place: the one reader of the page format. Its cells
/// borrow the page, so a walk that only routes through a node copies
/// nothing; [`Node::decode`] is the same walk, copied out. A cell that
/// runs off the page yields an error, and the iteration ends with it.
#[derive(Debug)]
pub(crate) enum NodeView<'a> {
    /// The leaf's `(key, value)` pairs, in order.
    Leaf(Entries<'a>),
    /// The leftmost child, then each `(separator, child)` pair in order.
    Internal(u32, Seps<'a>),
}

impl<'a> NodeView<'a> {
    /// Reads a page's header (and an internal node's leftmost child);
    /// the cells are read as they are iterated.
    pub(crate) fn parse(page: &'a [u8]) -> Result<Self, String> {
        if page.len() < HEADER {
            return Err("page too small for node header".into());
        }
        let left = usize::from(u16::from_le_bytes([page[1], page[2]]));
        let mut cells = Cells {
            page,
            at: HEADER,
            left,
        };
        match page[0] {
            LEAF_TAG => Ok(NodeView::Leaf(Entries(cells))),
            INTERNAL_TAG => {
                let first = cells.le32().ok_or(RUNS_OFF)?;
                Ok(NodeView::Internal(first, Seps(cells)))
            }
            t => Err(format!("unknown node tag {t}")),
        }
    }
}

/// The cells of a page still to be read.
#[derive(Debug)]
struct Cells<'a> {
    page: &'a [u8],
    at: usize,
    left: usize,
}

impl<'a> Cells<'a> {
    /// The next `n` bytes, or `None` if they run off the page.
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let s = self.page.get(self.at..self.at + n)?;
        self.at += n;
        Some(s)
    }

    fn le16(&mut self) -> Option<usize> {
        let s: [u8; 2] = self.take(2)?.try_into().ok()?;
        Some(usize::from(u16::from_le_bytes(s)))
    }

    fn le32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    /// A leaf cell: `(klen u16, vlen u16, key, value)`.
    fn entry(&mut self) -> Option<(&'a [u8], &'a [u8])> {
        let (klen, vlen) = (self.le16()?, self.le16()?);
        Some((self.take(klen)?, self.take(vlen)?))
    }

    /// An internal cell: `(klen u16, separator, child u32)`.
    fn sep(&mut self) -> Option<(&'a [u8], u32)> {
        let klen = self.le16()?;
        Some((self.take(klen)?, self.le32()?))
    }

    /// Reads the next cell with `read`; after one that runs off the
    /// page, none.
    fn next_cell<T>(
        &mut self,
        read: impl FnOnce(&mut Self) -> Option<T>,
    ) -> Option<Result<T, String>> {
        if self.left == 0 {
            return None;
        }
        match read(self) {
            Some(cell) => {
                self.left -= 1;
                Some(Ok(cell))
            }
            None => {
                self.left = 0;
                Some(Err(RUNS_OFF.into()))
            }
        }
    }
}

/// A leaf's cells, as `(key, value)`.
#[derive(Debug)]
pub(crate) struct Entries<'a>(Cells<'a>);

impl Entries<'_> {
    /// Where the next cell starts: after the last, where the cells end.
    pub(crate) fn offset(&self) -> usize {
        self.0.at
    }
}

impl<'a> Iterator for Entries<'a> {
    type Item = Result<(&'a [u8], &'a [u8]), String>;

    fn next(&mut self) -> Option<Self::Item> {
        self.0.next_cell(Cells::entry)
    }
}

/// An internal node's cells, as `(separator, child)`.
#[derive(Debug)]
pub(crate) struct Seps<'a>(Cells<'a>);

impl Seps<'_> {
    /// Where the next cell starts: after the last, where the cells end.
    pub(crate) fn offset(&self) -> usize {
        self.0.at
    }
}

impl<'a> Iterator for Seps<'a> {
    type Item = Result<(&'a [u8], u32), String>;

    fn next(&mut self) -> Option<Self::Item> {
        self.0.next_cell(Cells::sep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_roundtrip() {
        let n = Node::Leaf(vec![
            (b"alpha".to_vec(), b"1".to_vec()),
            (b"beta".to_vec(), b"two".to_vec()),
        ]);
        let page = n.encode(256);
        assert_eq!(Node::decode(&page).unwrap(), n);
    }

    #[test]
    fn internal_roundtrip() {
        let n = Node::Internal {
            keys: vec![b"m".to_vec()],
            children: vec![4, 9],
        };
        let page = n.encode(128);
        assert_eq!(Node::decode(&page).unwrap(), n);
    }

    #[test]
    fn empty_leaf_roundtrip() {
        let n = Node::empty_leaf();
        assert_eq!(Node::decode(&n.encode(64)).unwrap(), n);
    }

    #[test]
    fn encoded_size_matches_layout() {
        let n = Node::Leaf(vec![(vec![0; 3], vec![0; 5])]);
        assert_eq!(n.encoded_size(), 3 + 4 + 3 + 5);
        let m = Node::Internal {
            keys: vec![vec![0; 3]],
            children: vec![1, 2],
        };
        assert_eq!(m.encoded_size(), 3 + 4 + 2 + 3 + 4);
    }

    #[test]
    fn fits_respects_page_size() {
        let n = Node::Leaf(vec![(vec![0; 100], vec![0; 100])]);
        assert!(n.fits(256));
        assert!(!n.fits(128));
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn encode_overflow_panics() {
        let n = Node::Leaf(vec![(vec![0; 100], vec![0; 100])]);
        let _ = n.encode(64);
    }

    #[test]
    fn decode_garbage_fails_cleanly() {
        assert!(Node::decode(&[]).is_err());
        assert!(Node::decode(&[9, 0, 0]).is_err());
        // Leaf claiming one entry but truncated.
        assert!(Node::decode(&[1, 1, 0]).is_err());
        // Entry length running off the page.
        let mut p = vec![1u8, 1, 0, 255, 255, 0, 0];
        p.resize(16, 0);
        assert!(Node::decode(&p).is_err());
    }

    #[test]
    fn zeroed_page_decodes_as_empty_leaf_error() {
        // An all-zero page has tag 0, which is invalid — freshly allocated
        // pages must be written before being read back as nodes.
        assert!(Node::decode(&[0u8; 64]).is_err());
    }
}
