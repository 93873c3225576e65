//! Lock-free skip list (Fraser / Herlihy–Shavit style) — the paper's
//! `skiplist` workload \[44\].
//!
//! Node layout: `[key, value, toplevel, next_0, …, next_{toplevel-1}]`.
//! Every `next` word carries the Harris mark bit. The level-0 list is the
//! ground truth (linearization happens there); upper levels are a search
//! accelerator, so a crash that loses partially-built towers is harmless —
//! which is why the recovery validator only requires level-0 integrity
//! plus no dangling upper-level pointers.

use crate::ptr::{addr, marked, with_mark};
use lrp_exec::{DirectCtx, PmemCtx};
use lrp_model::Addr;

/// Byte offset of the key word.
pub const KEY: Addr = 0;
/// Byte offset of the value word.
pub const VAL: Addr = 8;
/// Byte offset of the tower-height word.
pub const TOP: Addr = 16;
/// Byte offset of the first next-pointer word.
pub const NEXT0: Addr = 24;
/// Maximum tower height.
pub const MAX_LEVEL: usize = 16;

/// Byte offset of the level-`l` next pointer.
#[inline]
pub fn next_off(level: usize) -> Addr {
    NEXT0 + 8 * level as Addr
}

/// Lock-free skip list handle. The head node is a full-height sentinel
/// with key 0 (real keys must be `>= 1`).
#[derive(Debug, Clone, Copy)]
pub struct SkipList {
    /// Address of the head sentinel node.
    pub head: Addr,
}

/// Draws a tower height with geometric(1/2) distribution, capped.
fn random_level<C: PmemCtx>(ctx: &mut C) -> usize {
    let mut lvl = 1;
    while lvl < MAX_LEVEL && ctx.rand() & 1 == 1 {
        lvl += 1;
    }
    lvl
}

impl SkipList {
    /// Allocates the head sentinel (empty list).
    pub fn new(ctx: &mut DirectCtx) -> Self {
        let head = ctx.alloc(3 + MAX_LEVEL);
        ctx.write(head + KEY, 0);
        ctx.write(head + VAL, 0);
        ctx.write(head + TOP, MAX_LEVEL as u64);
        for l in 0..MAX_LEVEL {
            ctx.write(head + next_off(l), 0);
        }
        SkipList { head }
    }

    /// Finds the insertion window for `key` at every level, helping
    /// unlink marked nodes. Returns true if an unmarked node with `key`
    /// sits at level 0.
    async fn find<C: PmemCtx>(
        &self,
        ctx: &mut C,
        key: u64,
        preds: &mut [Addr; MAX_LEVEL],
        succs: &mut [Addr; MAX_LEVEL],
    ) -> bool {
        'retry: loop {
            let mut pred = self.head;
            for lvl in (0..MAX_LEVEL).rev() {
                let mut curr = addr(ctx.read_acq(pred + next_off(lvl)).await);
                loop {
                    if curr == 0 {
                        break;
                    }
                    let mut succ_raw = ctx.read_acq(curr + next_off(lvl)).await;
                    while marked(succ_raw) {
                        // Help unlink at this level.
                        if !ctx
                            .cas_rel(pred + next_off(lvl), curr, addr(succ_raw))
                            .await
                            .0
                        {
                            continue 'retry;
                        }
                        curr = addr(succ_raw);
                        if curr == 0 {
                            break;
                        }
                        succ_raw = ctx.read_acq(curr + next_off(lvl)).await;
                    }
                    if curr == 0 {
                        break;
                    }
                    if ctx.read(curr + KEY).await < key {
                        pred = curr;
                        curr = addr(succ_raw);
                    } else {
                        break;
                    }
                }
                preds[lvl] = pred;
                succs[lvl] = curr;
            }
            let c = succs[0];
            return c != 0 && ctx.read(c + KEY).await == key;
        }
    }

    /// Inserts `(key, value)`; false if present. `key` must be `>= 1`.
    pub async fn insert<C: PmemCtx>(&self, ctx: &mut C, key: u64, value: u64) -> bool {
        debug_assert!(key >= 1);
        let top = random_level(ctx);
        let mut preds = [0; MAX_LEVEL];
        let mut succs = [0; MAX_LEVEL];
        loop {
            if self.find(ctx, key, &mut preds, &mut succs).await {
                return false;
            }
            // Build the tower privately.
            let node = ctx.alloc(3 + top);
            ctx.write(node + KEY, key).await;
            ctx.write(node + VAL, value).await;
            ctx.write(node + TOP, top as u64).await;
            for (l, &succ) in succs.iter().enumerate().take(top) {
                ctx.write(node + next_off(l), succ).await;
            }
            // Linearize: link at level 0.
            if !ctx.cas_rel(preds[0] + next_off(0), succs[0], node).await.0 {
                continue;
            }
            // Link the upper levels (best effort; abandoning on a
            // concurrent delete of this very node).
            for lvl in 1..top {
                loop {
                    if ctx
                        .cas_rel(preds[lvl] + next_off(lvl), succs[lvl], node)
                        .await
                        .0
                    {
                        break;
                    }
                    self.find(ctx, key, &mut preds, &mut succs).await;
                    if succs[0] != node {
                        // The node was deleted while we were linking.
                        return true;
                    }
                    // Repoint our tower level at the new successor.
                    let old = ctx.read_acq(node + next_off(lvl)).await;
                    if marked(old) {
                        return true;
                    }
                    if old != succs[lvl]
                        && !ctx.cas_rel(node + next_off(lvl), old, succs[lvl]).await.0
                    {
                        return true;
                    }
                }
            }
            return true;
        }
    }

    /// Deletes `key`; false if absent.
    pub async fn delete<C: PmemCtx>(&self, ctx: &mut C, key: u64) -> bool {
        let mut preds = [0; MAX_LEVEL];
        let mut succs = [0; MAX_LEVEL];
        if !self.find(ctx, key, &mut preds, &mut succs).await {
            return false;
        }
        let victim = succs[0];
        let top = ctx.read(victim + TOP).await as usize;
        // Mark the upper levels top-down.
        for lvl in (1..top).rev() {
            loop {
                let raw = ctx.read_acq(victim + next_off(lvl)).await;
                if marked(raw) {
                    break;
                }
                if ctx
                    .cas_rel(victim + next_off(lvl), raw, with_mark(raw))
                    .await
                    .0
                {
                    break;
                }
            }
        }
        // Marking level 0 is the linearization point.
        loop {
            let raw = ctx.read_acq(victim + next_off(0)).await;
            if marked(raw) {
                return false; // another deleter linearized first
            }
            if ctx
                .cas_rel(victim + next_off(0), raw, with_mark(raw))
                .await
                .0
            {
                // Physically unlink via a helping find.
                self.find(ctx, key, &mut preds, &mut succs).await;
                return true;
            }
        }
    }

    /// Membership test (no helping writes).
    pub async fn contains<C: PmemCtx>(&self, ctx: &mut C, key: u64) -> bool {
        let mut pred = self.head;
        for lvl in (0..MAX_LEVEL).rev() {
            let mut curr = addr(ctx.read_acq(pred + next_off(lvl)).await);
            while curr != 0 {
                let k = ctx.read(curr + KEY).await;
                let raw = ctx.read_acq(curr + next_off(lvl)).await;
                if k < key {
                    pred = curr;
                    curr = addr(raw);
                } else {
                    if lvl == 0 {
                        return k == key && !marked(raw);
                    }
                    break;
                }
            }
        }
        false
    }

    /// Pre-populates with sorted `keys`, drawing tower heights from the
    /// context RNG (same distribution as live inserts).
    pub fn populate(&self, ctx: &mut DirectCtx, keys: &[u64]) {
        debug_assert!(keys.windows(2).all(|w| w[0] < w[1]), "keys must be sorted");
        let mut tails: [Addr; MAX_LEVEL] = [self.head; MAX_LEVEL];
        for &key in keys {
            let top = random_level(ctx);
            let node = ctx.alloc(3 + top);
            ctx.write(node + KEY, key);
            ctx.write(node + VAL, key);
            ctx.write(node + TOP, top as u64);
            for (l, tail) in tails.iter_mut().enumerate().take(top) {
                ctx.write(node + next_off(l), 0);
                ctx.write(*tail + next_off(l), node);
                *tail = node;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrp_exec::block_on;

    fn fresh() -> (DirectCtx, SkipList) {
        let mut c = DirectCtx::new(1, 7);
        let s = SkipList::new(&mut c);
        (c, s)
    }

    #[test]
    fn insert_contains_delete() {
        let (mut c, s) = fresh();
        for k in [5, 1, 9, 3, 7] {
            assert!(block_on(s.insert(&mut c, k, k * 2)));
        }
        for k in [1, 3, 5, 7, 9] {
            assert!(block_on(s.contains(&mut c, k)));
        }
        assert!(!block_on(s.contains(&mut c, 4)));
        assert!(!block_on(s.insert(&mut c, 5, 0)));
        assert!(block_on(s.delete(&mut c, 5)));
        assert!(!block_on(s.contains(&mut c, 5)));
        assert!(!block_on(s.delete(&mut c, 5)));
        assert!(block_on(s.insert(&mut c, 5, 1)));
    }

    #[test]
    fn towers_have_varied_heights() {
        let (mut c, s) = fresh();
        for k in 1..=200 {
            block_on(s.insert(&mut c, k, k));
        }
        // With 200 geometric draws, some tower should exceed level 3.
        let mut tall = false;
        let curr = addr(c.read(s.head + next_off(3)));
        if curr != 0 {
            tall = true;
        }
        let _ = curr;
        assert!(tall, "upper levels should be populated");
        for k in 1..=200 {
            assert!(block_on(s.contains(&mut c, k)));
        }
    }

    #[test]
    fn populate_matches_inserts() {
        let (mut c, s) = fresh();
        let keys: Vec<u64> = (1..=100).collect();
        s.populate(&mut c, &keys);
        for k in 1..=100 {
            assert!(block_on(s.contains(&mut c, k)), "missing {k}");
            assert!(!block_on(s.insert(&mut c, k, 0)));
        }
        assert!(block_on(s.delete(&mut c, 50)));
        assert!(!block_on(s.contains(&mut c, 50)));
        assert!(block_on(s.insert(&mut c, 101, 1)));
        assert!(block_on(s.contains(&mut c, 101)));
    }

    #[test]
    fn sequential_model_check() {
        let (mut c, s) = fresh();
        let mut model = std::collections::BTreeSet::new();
        let mut rng = lrp_exec::Xorshift64::new(31);
        for _ in 0..2000 {
            let k = rng.below(48) + 1;
            match rng.below(3) {
                0 => assert_eq!(
                    block_on(s.insert(&mut c, k, k)),
                    model.insert(k),
                    "insert {k}"
                ),
                1 => assert_eq!(
                    block_on(s.delete(&mut c, k)),
                    model.remove(&k),
                    "delete {k}"
                ),
                _ => assert_eq!(
                    block_on(s.contains(&mut c, k)),
                    model.contains(&k),
                    "contains {k}"
                ),
            }
        }
    }
}
