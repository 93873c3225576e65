//! Harris/Michael sorted lock-free linked list \[16\] — the paper's
//! `linkedlist` workload, and the motivating example of its Figure 1.
//!
//! Node layout (3 words): `[key, value, next]`, where `next` carries the
//! Harris mark bit (logical deletion). The list is addressed through a
//! *location word* (the address of a pointer cell), so the same search
//! routine powers both the standalone list (one head word) and every
//! bucket of the Michael hash map.
//!
//! Insertion prepares the node with plain writes and publishes it with a
//! single acquire-release CAS on the predecessor pointer — the exact
//! pattern whose persistency the paper analyses: the node's fields must
//! persist before the linking CAS does.

use crate::ptr::{addr, marked, with_mark};
use lrp_exec::{DirectCtx, PmemCtx};
use lrp_model::Addr;

/// Byte offset of the key word.
pub const KEY: Addr = 0;
/// Byte offset of the value word.
pub const VAL: Addr = 8;
/// Byte offset of the next-pointer word.
pub const NEXT: Addr = 16;
/// Words per node.
pub const NODE_WORDS: usize = 3;

/// Outcome of a search: the location holding the pointer to `curr`, and
/// `curr` itself (0 if the search fell off the end).
struct Found {
    prev_loc: Addr,
    curr: Addr,
}

/// Searches the list rooted at the pointer word `head_loc` for the first
/// node with key `>= key`, unlinking marked nodes along the way
/// (Michael's helping variant of Harris's algorithm).
async fn search<C: PmemCtx>(ctx: &mut C, head_loc: Addr, key: u64) -> Found {
    'retry: loop {
        let mut prev_loc = head_loc;
        let mut curr = addr(ctx.read_acq(prev_loc).await);
        loop {
            if curr == 0 {
                return Found { prev_loc, curr: 0 };
            }
            let succ_raw = ctx.read_acq(curr + NEXT).await;
            if marked(succ_raw) {
                // Help unlink the logically deleted node.
                let (ok, _) = ctx.cas_rel(prev_loc, curr, addr(succ_raw)).await;
                if !ok {
                    continue 'retry;
                }
                curr = addr(succ_raw);
                continue;
            }
            let ckey = ctx.read(curr + KEY).await;
            if ckey >= key {
                return Found { prev_loc, curr };
            }
            prev_loc = curr + NEXT;
            curr = addr(succ_raw);
        }
    }
}

/// Inserts `(key, value)` into the list at `head_loc`; returns false if
/// the key is already present.
pub async fn insert<C: PmemCtx>(ctx: &mut C, head_loc: Addr, key: u64, value: u64) -> bool {
    loop {
        let f = search(ctx, head_loc, key).await;
        if f.curr != 0 && ctx.read(f.curr + KEY).await == key {
            return false;
        }
        // Prepare the node privately (W1 of Figure 1)...
        let node = ctx.alloc(NODE_WORDS);
        ctx.write(node + KEY, key).await;
        ctx.write(node + VAL, value).await;
        ctx.write(node + NEXT, f.curr).await;
        // ...and publish it with one CAS (the release of Figure 1).
        if ctx.cas_rel(f.prev_loc, f.curr, node).await.0 {
            return true;
        }
    }
}

/// Deletes `key` from the list at `head_loc`; returns false if absent.
pub async fn delete<C: PmemCtx>(ctx: &mut C, head_loc: Addr, key: u64) -> bool {
    loop {
        let f = search(ctx, head_loc, key).await;
        if f.curr == 0 || ctx.read(f.curr + KEY).await != key {
            return false;
        }
        let succ_raw = ctx.read_acq(f.curr + NEXT).await;
        if marked(succ_raw) {
            // Another deleter won; the next search will help unlink.
            continue;
        }
        // Logical deletion: mark the next pointer.
        if !ctx
            .cas_rel(f.curr + NEXT, succ_raw, with_mark(succ_raw))
            .await
            .0
        {
            continue;
        }
        // Best-effort physical unlink.
        let _ = ctx.cas_rel(f.prev_loc, f.curr, addr(succ_raw)).await;
        return true;
    }
}

/// Membership test (wait-free traversal, no helping).
pub async fn contains<C: PmemCtx>(ctx: &mut C, head_loc: Addr, key: u64) -> bool {
    let mut curr = addr(ctx.read_acq(head_loc).await);
    while curr != 0 {
        let ckey = ctx.read(curr + KEY).await;
        let succ_raw = ctx.read_acq(curr + NEXT).await;
        if ckey >= key {
            return ckey == key && !marked(succ_raw);
        }
        curr = addr(succ_raw);
    }
    false
}

/// Directly builds a sorted chain of nodes for `keys` (ascending) at
/// `head_loc`. Pre-population shortcut for setup phases (§6.1 collects
/// statistics only after the structure reaches its initial size).
pub fn populate(ctx: &mut DirectCtx, head_loc: Addr, keys: &[u64]) {
    debug_assert!(keys.windows(2).all(|w| w[0] < w[1]), "keys must be sorted");
    let mut next = 0u64;
    for &key in keys.iter().rev() {
        let node = ctx.alloc(NODE_WORDS);
        ctx.write(node + KEY, key);
        ctx.write(node + VAL, key);
        ctx.write(node + NEXT, next);
        next = node;
    }
    ctx.write(head_loc, next);
}

/// The standalone sorted set: a single head pointer word.
#[derive(Debug, Clone, Copy)]
pub struct LinkedList {
    /// Address of the head pointer word.
    pub head_loc: Addr,
}

impl LinkedList {
    /// Allocates the head word (initially empty list).
    pub fn new(ctx: &mut DirectCtx) -> Self {
        let head_loc = ctx.alloc(1);
        ctx.write(head_loc, 0);
        LinkedList { head_loc }
    }

    /// Inserts `(key, value)`; false if present.
    pub async fn insert<C: PmemCtx>(&self, ctx: &mut C, key: u64, value: u64) -> bool {
        insert(ctx, self.head_loc, key, value).await
    }

    /// Deletes `key`; false if absent.
    pub async fn delete<C: PmemCtx>(&self, ctx: &mut C, key: u64) -> bool {
        delete(ctx, self.head_loc, key).await
    }

    /// Membership test.
    pub async fn contains<C: PmemCtx>(&self, ctx: &mut C, key: u64) -> bool {
        contains(ctx, self.head_loc, key).await
    }

    /// Pre-populates with sorted `keys`.
    pub fn populate(&self, ctx: &mut DirectCtx, keys: &[u64]) {
        populate(ctx, self.head_loc, keys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrp_exec::{block_on, body, run, ExecConfig, SchedPolicy};

    fn fresh() -> (DirectCtx, LinkedList) {
        let mut c = DirectCtx::new(1, 7);
        let l = LinkedList::new(&mut c);
        (c, l)
    }

    #[test]
    fn insert_then_contains() {
        let (mut c, l) = fresh();
        assert!(block_on(l.insert(&mut c, 5, 50)));
        assert!(block_on(l.insert(&mut c, 3, 30)));
        assert!(block_on(l.insert(&mut c, 9, 90)));
        assert!(block_on(l.contains(&mut c, 5)));
        assert!(block_on(l.contains(&mut c, 3)));
        assert!(block_on(l.contains(&mut c, 9)));
        assert!(!block_on(l.contains(&mut c, 4)));
    }

    #[test]
    fn duplicate_insert_fails() {
        let (mut c, l) = fresh();
        assert!(block_on(l.insert(&mut c, 5, 50)));
        assert!(!block_on(l.insert(&mut c, 5, 51)));
    }

    #[test]
    fn delete_removes() {
        let (mut c, l) = fresh();
        for k in [2, 4, 6] {
            block_on(l.insert(&mut c, k, k));
        }
        assert!(block_on(l.delete(&mut c, 4)));
        assert!(!block_on(l.contains(&mut c, 4)));
        assert!(block_on(l.contains(&mut c, 2)));
        assert!(block_on(l.contains(&mut c, 6)));
        assert!(!block_on(l.delete(&mut c, 4)));
        assert!(block_on(l.insert(&mut c, 4, 44)), "reinsert after delete");
    }

    #[test]
    fn delete_absent_fails() {
        let (mut c, l) = fresh();
        assert!(!block_on(l.delete(&mut c, 1)));
        block_on(l.insert(&mut c, 2, 2));
        assert!(!block_on(l.delete(&mut c, 1)));
        assert!(!block_on(l.delete(&mut c, 3)));
    }

    #[test]
    fn populate_matches_inserts() {
        let (mut c, l) = fresh();
        l.populate(&mut c, &[1, 5, 9]);
        assert!(block_on(l.contains(&mut c, 1)));
        assert!(block_on(l.contains(&mut c, 5)));
        assert!(block_on(l.contains(&mut c, 9)));
        assert!(!block_on(l.contains(&mut c, 7)));
        assert!(!block_on(l.insert(&mut c, 5, 55)));
        assert!(block_on(l.insert(&mut c, 7, 77)));
        assert!(block_on(l.delete(&mut c, 1)));
        assert!(!block_on(l.contains(&mut c, 1)));
    }

    #[test]
    fn sequential_model_check_against_btreeset() {
        let (mut c, l) = fresh();
        let mut model = std::collections::BTreeSet::new();
        let mut rng = lrp_exec::Xorshift64::new(42);
        for _ in 0..500 {
            let k = rng.below(32) + 1;
            match rng.below(3) {
                0 => assert_eq!(block_on(l.insert(&mut c, k, k)), model.insert(k)),
                1 => assert_eq!(block_on(l.delete(&mut c, k)), model.remove(&k)),
                _ => assert_eq!(block_on(l.contains(&mut c, k)), model.contains(&k)),
            }
        }
    }

    /// Concurrent smoke test: distinct key spaces per thread, then check
    /// every expected key survived.
    #[test]
    fn concurrent_disjoint_inserts() {
        let cfg = ExecConfig::new(4).policy(SchedPolicy::Random(11));
        let mut list = None;
        let trace = run(
            &cfg,
            |s| {
                let l = LinkedList::new(s);
                s.set_root("head", l.head_loc);
                list = Some(l);
            },
            (0..4u64)
                .map(|t| {
                    body(move |mut c| async move {
                        let head = 0x1000_0000 + 4 * lrp_exec::ctx::ARENA_BYTES;
                        for i in 0..8 {
                            insert(&mut c, head, t * 100 + i, i).await;
                        }
                    })
                })
                .collect(),
        );
        trace.validate().unwrap();
        // Rebuild the final memory and check all 32 keys present.
        let m = trace.final_mem();
        let read = |a: Addr| m.get(&a).copied().unwrap_or(lrp_model::Trace::POISON);
        let head_loc = trace.roots[0].1;
        let mut keys = Vec::new();
        let mut cur = addr(read(head_loc));
        while cur != 0 {
            let raw = read(cur + NEXT);
            if !marked(raw) {
                keys.push(read(cur + KEY));
            }
            cur = addr(raw);
        }
        assert_eq!(keys.len(), 32);
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "sorted");
    }

    /// Concurrent contended inserts/deletes on a small key space; verify
    /// final structure is a sorted, duplicate-free list.
    #[test]
    fn concurrent_contended_updates_stay_sorted() {
        let cfg = ExecConfig::new(4).policy(SchedPolicy::Random(13));
        let trace = run(
            &cfg,
            |s| {
                let l = LinkedList::new(s);
                l.populate(s, &[2, 4, 6, 8]);
                s.set_root("head", l.head_loc);
            },
            (0..4u64)
                .map(|t| {
                    body(move |mut c| async move {
                        let head = 0x1000_0000 + 4 * lrp_exec::ctx::ARENA_BYTES;
                        let mut rng = lrp_exec::Xorshift64::new(t + 100);
                        for _ in 0..25 {
                            let k = rng.below(10) + 1;
                            if rng.below(2) == 0 {
                                insert(&mut c, head, k, k).await;
                            } else {
                                delete(&mut c, head, k).await;
                            }
                        }
                    })
                })
                .collect(),
        );
        trace.validate().unwrap();
        let m = trace.final_mem();
        let read = |a: Addr| m.get(&a).copied().unwrap_or(lrp_model::Trace::POISON);
        let head_loc = trace.roots[0].1;
        let mut cur = addr(read(head_loc));
        let mut prev_key = 0;
        let mut steps = 0;
        while cur != 0 {
            let k = read(cur + KEY);
            let raw = read(cur + NEXT);
            if !marked(raw) {
                assert!(k > prev_key, "sorted and duplicate-free");
                prev_key = k;
            }
            cur = addr(raw);
            steps += 1;
            assert!(steps < 1000, "cycle detected");
        }
    }
}
