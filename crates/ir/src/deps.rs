//! Compact per-node dependence lists.

use std::fmt;
use std::ops::{Deref, DerefMut};

use crate::trace::NodeId;

/// Dependences a [`DepList`] holds without a heap allocation. Every
/// bundled kernel's nodes have at most this many.
const INLINE: usize = 3;

/// The producers one [`TraceNode`](crate::TraceNode) depends on.
///
/// Up to three ids live inline in the node; a longer list spills to the
/// heap. Tracing, decoding and dropping a trace therefore make no
/// allocation per node. The list dereferences to `[NodeId]`, and it
/// compares and prints like the `Vec<NodeId>` holding the same ids, so
/// the storage is invisible to readers, fingerprints and `.atrc` files.
#[derive(Clone)]
pub struct DepList(Repr);

#[derive(Clone)]
enum Repr {
    Inline {
        len: u8,
        ids: [NodeId; INLINE],
    },
    // Boxed so the list stays two words (a `Vec` is three), which keeps
    // `TraceNode` at 56 bytes. Only lists past `INLINE` ids pay the extra
    // allocation.
    #[allow(clippy::box_collection)]
    Heap(Box<Vec<NodeId>>),
}

impl DepList {
    /// An empty list.
    #[must_use]
    pub const fn new() -> Self {
        DepList(Repr::Inline {
            len: 0,
            ids: [NodeId(0); INLINE],
        })
    }

    /// Append `id`, moving the list to the heap when it outgrows the
    /// inline slots.
    pub fn push(&mut self, id: NodeId) {
        match &mut self.0 {
            Repr::Inline { len, ids } if usize::from(*len) < INLINE => {
                ids[usize::from(*len)] = id;
                *len += 1;
            }
            Repr::Inline { ids, .. } => {
                let mut spilled = Vec::with_capacity(2 * INLINE);
                spilled.extend_from_slice(ids);
                spilled.push(id);
                self.0 = Repr::Heap(Box::new(spilled));
            }
            Repr::Heap(v) => v.push(id),
        }
    }

    /// Remove and return the last id, if any.
    pub fn pop(&mut self) -> Option<NodeId> {
        let last = self.last().copied()?;
        self.truncate(self.len() - 1);
        Some(last)
    }

    /// Keep the first `new_len` ids (no-op if the list is not longer).
    fn truncate(&mut self, new_len: usize) {
        match &mut self.0 {
            Repr::Inline { len, .. } => {
                // `new_len < *len <= INLINE`, so the cast is lossless.
                if new_len < usize::from(*len) {
                    *len = new_len as u8;
                }
            }
            Repr::Heap(v) => v.truncate(new_len),
        }
    }

    /// Remove consecutive repeated ids, in place; after
    /// `sort_unstable` this leaves each id once.
    pub(crate) fn dedup(&mut self) {
        let mut kept = 0;
        for i in 0..self.len() {
            if kept == 0 || self[i] != self[kept - 1] {
                self[kept] = self[i];
                kept += 1;
            }
        }
        self.truncate(kept);
    }
}

impl Default for DepList {
    fn default() -> Self {
        DepList::new()
    }
}

impl Deref for DepList {
    type Target = [NodeId];

    fn deref(&self) -> &[NodeId] {
        match &self.0 {
            Repr::Inline { len, ids } => &ids[..usize::from(*len)],
            Repr::Heap(v) => v,
        }
    }
}

impl DerefMut for DepList {
    fn deref_mut(&mut self) -> &mut [NodeId] {
        match &mut self.0 {
            Repr::Inline { len, ids } => &mut ids[..usize::from(*len)],
            Repr::Heap(v) => v,
        }
    }
}

impl From<Vec<NodeId>> for DepList {
    /// Short lists move inline; a long one keeps its allocation.
    fn from(ids: Vec<NodeId>) -> Self {
        if ids.len() <= INLINE {
            ids.into_iter().collect()
        } else {
            DepList(Repr::Heap(Box::new(ids)))
        }
    }
}

impl FromIterator<NodeId> for DepList {
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        let mut deps = DepList::new();
        for id in iter {
            deps.push(id);
        }
        deps
    }
}

impl<'a> IntoIterator for &'a DepList {
    type Item = &'a NodeId;
    type IntoIter = std::slice::Iter<'a, NodeId>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl PartialEq for DepList {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for DepList {}

impl PartialEq<Vec<NodeId>> for DepList {
    fn eq(&self, other: &Vec<NodeId>) -> bool {
        **self == **other
    }
}

impl fmt::Debug for DepList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceNode;

    fn ids(n: u32) -> Vec<NodeId> {
        (0..n).map(|i| NodeId(i * 7 + 1)).collect()
    }

    /// Lengths on both sides of the inline capacity behave exactly like
    /// the `Vec<NodeId>` they were built from.
    #[test]
    fn matches_a_vec_reference_at_every_length() {
        for n in [0, 1, 3, 4, 9] {
            let reference = ids(n);
            let pushed: DepList = reference.iter().copied().collect();
            let converted = DepList::from(reference.clone());
            for list in [&pushed, &converted] {
                assert_eq!(list.len(), reference.len());
                assert_eq!(&list[..], &reference[..], "order, n = {n}");
                assert_eq!(*list, reference);
                assert_eq!(format!("{list:?}"), format!("{reference:?}"));
                let walked: Vec<NodeId> = list.into_iter().copied().collect();
                assert_eq!(walked, reference);
            }
            assert_eq!(pushed, converted);
            assert_eq!(pushed.clone(), pushed);
            if n > 0 {
                let mut shorter = pushed.clone();
                assert_eq!(shorter.pop(), reference.last().copied());
                assert_ne!(shorter, pushed);
                assert_eq!(shorter, reference[..reference.len() - 1].to_vec());
            }
        }
        assert_eq!(DepList::default(), DepList::new());
        assert!(DepList::new().is_empty());
    }

    /// Equality ignores the storage: a spilled list popped back to the
    /// inline length equals the inline list with the same ids.
    #[test]
    fn equality_ignores_inline_versus_heap() {
        let mut spilled: DepList = ids(4).into_iter().collect();
        spilled.pop();
        let inline: DepList = ids(3).into_iter().collect();
        assert_eq!(spilled, inline);
        assert_eq!(format!("{spilled:?}"), format!("{inline:?}"));
    }

    #[test]
    fn sort_and_dedup_in_place() {
        for n in [3, 9] {
            let mut list: DepList = ids(n).into_iter().rev().chain(ids(n)).collect();
            list.sort_unstable();
            list.dedup();
            assert_eq!(list, ids(n));
        }
        let mut one = DepList::from(vec![NodeId(5), NodeId(5), NodeId(5)]);
        one.dedup();
        assert_eq!(one, vec![NodeId(5)]);
    }

    #[test]
    fn trace_node_fits_a_cache_line() {
        assert!(std::mem::size_of::<TraceNode>() <= 64);
        assert_eq!(std::mem::size_of::<DepList>(), 16);
    }
}
