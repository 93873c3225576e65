//! One populated structure: the only code that knows how a structure is
//! laid out, which roots it registers, how its operations are labelled
//! and dispatched, and how a key is looked up in a durable image.
//!
//! The workload harness ([`crate::WorkloadSpec::build_trace`]) and the
//! KV service's shards both build their structure with [`Handle::new`]
//! and issue every set operation through [`Handle::drive`]; the
//! validators and [`Structure::primary_root`] read the same root-name
//! constants.

use crate::harness::Structure;
use crate::validate::{ImageCtx, MemImage};
use crate::{bst::Bst, hashmap::HashMap, list::LinkedList, queue::Queue, skiplist::SkipList};
use lrp_exec::{block_on, DirectCtx, PmemCtx, Xorshift64};
use lrp_model::OpKind;
use std::collections::BTreeSet;

/// Root name of the linked list's head pointer word.
pub(crate) const ROOT_LIST_HEAD: &str = "head";
/// Root name of the hash map's bucket array.
pub(crate) const ROOT_BUCKETS: &str = "buckets";
/// Root name under which the hash map registers its bucket count.
pub(crate) const ROOT_NBUCKETS: &str = "nbuckets";
/// Root name of the BST's root sentinel `R`.
pub(crate) const ROOT_BST_R: &str = "bst_r";
/// Root name of the BST's second sentinel `S`.
pub(crate) const ROOT_BST_S: &str = "bst_s";
/// Root name of the skip list's head sentinel.
pub(crate) const ROOT_SKIPLIST_HEAD: &str = "sl_head";
/// Root name of the queue's anchor.
pub(crate) const ROOT_QUEUE_ANCHOR: &str = "q_anchor";

/// Draws `n` distinct pre-population keys from `[1, range]`, seeded by
/// `seed`.
///
/// # Panics
///
/// If `n` exceeds `range`.
pub fn initial_keys(seed: u64, n: usize, range: u64) -> BTreeSet<u64> {
    assert!(n as u64 <= range, "initial size exceeds key range");
    let mut rng = Xorshift64::new(seed.wrapping_add(0xA11C));
    let mut set = BTreeSet::new();
    while set.len() < n {
        set.insert(rng.below(range) + 1);
    }
    set
}

/// The hash map's bucket count for `initial_size` keys when none is
/// given: load factor ~1 as in Michael's evaluation, at least 4.
pub fn default_nbuckets(initial_size: usize) -> u64 {
    (initial_size as u64).max(4)
}

/// Which set operation [`Handle::drive`] issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetOp {
    /// Membership test.
    Contains,
    /// Insert `key` with value `key`.
    Insert,
    /// Delete `key`.
    Delete,
}

/// A populated structure of one of the five workloads.
#[derive(Debug, Clone, Copy)]
pub enum Handle {
    /// Harris/Michael sorted linked list.
    List(LinkedList),
    /// Michael hash map.
    Map(HashMap),
    /// Natarajan–Mittal external BST.
    Bst(Bst),
    /// Lock-free skip list.
    Skip(SkipList),
    /// Michael–Scott queue (not a set: [`Handle::drive`] and
    /// [`Handle::lookup`] reject it).
    Queue(Queue),
}

impl Handle {
    /// Creates `structure` on the set-up context, pre-populates it with
    /// the sorted `keys` (the queue with the values `1..=keys.len()`) and
    /// registers its roots. `nbuckets` sizes the hash map only.
    pub fn new(s: &mut DirectCtx, structure: Structure, keys: &[u64], nbuckets: u64) -> Handle {
        match structure {
            Structure::LinkedList => {
                let l = LinkedList::new(s);
                l.populate(s, keys);
                s.set_root(ROOT_LIST_HEAD, l.head_loc);
                Handle::List(l)
            }
            Structure::HashMap => {
                let m = HashMap::new(s, nbuckets);
                m.populate(s, keys);
                s.set_root(ROOT_BUCKETS, m.buckets);
                s.set_root(ROOT_NBUCKETS, m.nbuckets);
                Handle::Map(m)
            }
            Structure::Bst => {
                let b = Bst::new(s);
                b.populate(s, keys);
                s.set_root(ROOT_BST_R, b.r);
                s.set_root(ROOT_BST_S, b.s);
                Handle::Bst(b)
            }
            Structure::SkipList => {
                let sl = SkipList::new(s);
                sl.populate(s, keys);
                s.set_root(ROOT_SKIPLIST_HEAD, sl.head);
                Handle::Skip(sl)
            }
            Structure::Queue => {
                let q = Queue::new(s);
                let values: Vec<u64> = (1..=keys.len() as u64).collect();
                q.populate(s, &values);
                s.set_root(ROOT_QUEUE_ANCHOR, q.anchor);
                Handle::Queue(q)
            }
        }
    }

    /// Issues one set operation on `key`: its `op_begin` marker, its
    /// static `structure/operation` site label (so the per-op hot loop
    /// never formats a label string), then the operation itself. Returns
    /// the operation's result; the caller ends the op with `op_end`.
    pub async fn drive<C: PmemCtx>(self, c: &mut C, op: SetOp, key: u64) -> bool {
        let [contains, insert, delete] = self.labels();
        let (marker, label) = match op {
            SetOp::Contains => (OpKind::Contains(key), contains),
            SetOp::Insert => (OpKind::Insert(key, key), insert),
            SetOp::Delete => (OpKind::Delete(key), delete),
        };
        c.op_begin(marker);
        c.site_op(label);
        match (self, op) {
            (Handle::List(l), SetOp::Contains) => l.contains(c, key).await,
            (Handle::List(l), SetOp::Insert) => l.insert(c, key, key).await,
            (Handle::List(l), SetOp::Delete) => l.delete(c, key).await,
            (Handle::Map(m), SetOp::Contains) => m.contains(c, key).await,
            (Handle::Map(m), SetOp::Insert) => m.insert(c, key, key).await,
            (Handle::Map(m), SetOp::Delete) => m.delete(c, key).await,
            (Handle::Bst(b), SetOp::Contains) => b.contains(c, key).await,
            (Handle::Bst(b), SetOp::Insert) => b.insert(c, key, key).await,
            (Handle::Bst(b), SetOp::Delete) => b.delete(c, key).await,
            (Handle::Skip(sl), SetOp::Contains) => sl.contains(c, key).await,
            (Handle::Skip(sl), SetOp::Insert) => sl.insert(c, key, key).await,
            (Handle::Skip(sl), SetOp::Delete) => sl.delete(c, key).await,
            (Handle::Queue(_), _) => unreachable!("the queue is not a set"),
        }
    }

    /// The `[contains, insert, delete]` site labels.
    fn labels(self) -> [&'static str; 3] {
        match self {
            Handle::List(_) => [
                "linkedlist/contains",
                "linkedlist/insert",
                "linkedlist/delete",
            ],
            Handle::Map(_) => ["hashmap/contains", "hashmap/insert", "hashmap/delete"],
            Handle::Bst(_) => ["bstree/contains", "bstree/insert", "bstree/delete"],
            Handle::Skip(_) => ["skiplist/contains", "skiplist/insert", "skiplist/delete"],
            Handle::Queue(_) => unreachable!("the queue is not a set"),
        }
    }

    /// `(present, settled)` for `key` in a durable image, by the
    /// structure's own search. Only a BST removal has a persisted
    /// intermediate state that recovery still counts as present (the
    /// flagged leaf); every other answer is settled.
    pub fn lookup(self, img: &MemImage, key: u64) -> (bool, bool) {
        let c = &mut ImageCtx(img);
        block_on(async {
            match self {
                Handle::List(l) => (l.contains(c, key).await, true),
                Handle::Map(m) => (m.contains(c, key).await, true),
                Handle::Bst(b) => b.lookup(c, key).await,
                Handle::Skip(sl) => (sl.contains(c, key).await, true),
                Handle::Queue(_) => unreachable!("the queue is not a set"),
            }
        })
    }

    /// The keys of `keys` whose removal is pending in `img` (see
    /// [`Handle::lookup`]).
    pub fn pending_removals(self, img: &MemImage, keys: &BTreeSet<u64>) -> BTreeSet<u64> {
        match self {
            Handle::Bst(_) => keys
                .iter()
                .copied()
                .filter(|&k| !self.lookup(img, k).1)
                .collect(),
            _ => BTreeSet::new(),
        }
    }
}
