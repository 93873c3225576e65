//! Natarajan–Mittal lock-free external binary search tree \[32\] — the
//! paper's `bstree` workload.
//!
//! An *external* BST: keys live in leaves; internal nodes route
//! (`key < node.key` goes left, else right). Deletion is edge-based: the
//! deleter *flags* the edge to the victim leaf (injection — the
//! linearization point), *tags* the sibling edge to freeze it, then
//! splices the sibling up over the whole parent subtree with one CAS at
//! the ancestor. Other operations that trip over flagged/tagged edges
//! help finish the removal.
//!
//! Node layout (4 words): `[key, value, left, right]`. Leaves have both
//! child words zero. Child words carry the flag (bit 0) and tag (bit 1).
//!
//! Sentinels: `R(∞₂)` with `R.left = S`, `R.right = leaf(∞₂)`;
//! `S(∞₁)` with `S.left = leaf(∞₁)`, `S.right = leaf(∞₂)`. All real keys
//! are `< ∞₁`, so `R` and `S` are never spliced out and the `∞₁` leaf
//! keeps `S`'s left subtree non-empty forever.

use crate::ptr::{addr, marked, pack, tagged, with_tag};
use lrp_exec::{block_on, DirectCtx, PmemCtx};
use lrp_model::Addr;

/// Byte offset of the key word.
pub const KEY: Addr = 0;
/// Byte offset of the value word.
pub const VAL: Addr = 8;
/// Byte offset of the left-child word.
pub const LEFT: Addr = 16;
/// Byte offset of the right-child word.
pub const RIGHT: Addr = 24;
/// Words per node.
pub const NODE_WORDS: usize = 4;

/// First infinity sentinel key (all real keys must be smaller).
pub const INF1: u64 = u64::MAX - 1;
/// Second infinity sentinel key.
pub const INF2: u64 = u64::MAX;

/// Result of a seek: the last two nodes on the search path and the last
/// untagged edge above them.
struct Seek {
    ancestor: Addr,
    successor: Addr,
    parent: Addr,
    leaf: Addr,
    leaf_key: u64,
    /// The edge word `parent → leaf` as read (flag/tag bits included).
    leaf_edge: u64,
}

/// Lock-free external BST handle.
#[derive(Debug, Clone, Copy)]
pub struct Bst {
    /// Root sentinel `R`.
    pub r: Addr,
    /// Second sentinel `S` (= `R.left`, immutable).
    pub s: Addr,
}

async fn new_leaf<C: PmemCtx>(ctx: &mut C, key: u64, value: u64) -> Addr {
    let n = ctx.alloc(NODE_WORDS);
    ctx.write(n + KEY, key).await;
    ctx.write(n + VAL, value).await;
    ctx.write(n + LEFT, 0).await;
    ctx.write(n + RIGHT, 0).await;
    n
}

async fn new_internal<C: PmemCtx>(ctx: &mut C, key: u64, left: Addr, right: Addr) -> Addr {
    let n = ctx.alloc(NODE_WORDS);
    ctx.write(n + KEY, key).await;
    ctx.write(n + VAL, 0).await;
    ctx.write(n + LEFT, left).await;
    ctx.write(n + RIGHT, right).await;
    n
}

impl Bst {
    /// Builds the sentinel skeleton.
    pub fn new(ctx: &mut DirectCtx) -> Self {
        let l_inf1 = block_on(new_leaf(ctx, INF1, 0));
        let l_inf2a = block_on(new_leaf(ctx, INF2, 0));
        let l_inf2b = block_on(new_leaf(ctx, INF2, 0));
        let s = block_on(new_internal(ctx, INF1, l_inf1, l_inf2a));
        let r = block_on(new_internal(ctx, INF2, s, l_inf2b));
        Bst { r, s }
    }

    fn child_off(key: u64, node_key: u64) -> Addr {
        if key < node_key {
            LEFT
        } else {
            RIGHT
        }
    }

    async fn seek<C: PmemCtx>(&self, ctx: &mut C, key: u64) -> Seek {
        let mut ancestor = self.r;
        let mut successor = self.s;
        let mut parent = self.s;
        let mut parent_field = ctx.read_acq(self.s + LEFT).await;
        let mut leaf = addr(parent_field);
        let mut leaf_key = ctx.read(leaf + KEY).await;
        let mut current_field = ctx.read_acq(leaf + Self::child_off(key, leaf_key)).await;
        let mut current = addr(current_field);
        while current != 0 {
            if !tagged(parent_field) {
                ancestor = parent;
                successor = leaf;
            }
            parent = leaf;
            parent_field = current_field;
            leaf = current;
            leaf_key = ctx.read(leaf + KEY).await;
            current_field = ctx.read_acq(leaf + Self::child_off(key, leaf_key)).await;
            current = addr(current_field);
        }
        Seek {
            ancestor,
            successor,
            parent,
            leaf,
            leaf_key,
            leaf_edge: parent_field,
        }
    }

    /// Finishes (or helps finish) the removal of a flagged leaf around
    /// `key`'s search path. Returns true if the splice CAS succeeded.
    async fn cleanup<C: PmemCtx>(&self, ctx: &mut C, key: u64, sk: &Seek) -> bool {
        let parent = sk.parent;
        let pkey = ctx.read(parent + KEY).await;
        let (child_off, other_off) = if key < pkey {
            (LEFT, RIGHT)
        } else {
            (RIGHT, LEFT)
        };
        let child_val = ctx.read_acq(parent + child_off).await;
        // If the key-side edge is not flagged, we got here through the
        // tagged sibling edge of someone else's delete: the survivor to
        // splice up is the key-side child itself.
        let sib_off = if marked(child_val) {
            other_off
        } else {
            child_off
        };
        // Freeze the sibling edge.
        loop {
            let sv = ctx.read_acq(parent + sib_off).await;
            if tagged(sv) {
                break;
            }
            if ctx.cas_rel(parent + sib_off, sv, with_tag(sv)).await.0 {
                break;
            }
        }
        let sv = ctx.read_acq(parent + sib_off).await;
        // Splice the sibling up over the whole parent subtree, preserving
        // its flag (a concurrent delete of the sibling leaf survives the
        // move) and clearing the tag.
        let akey = ctx.read(sk.ancestor + KEY).await;
        let succ_off = Self::child_off(key, akey);
        ctx.cas_rel(
            sk.ancestor + succ_off,
            pack(sk.successor, false, false),
            pack(addr(sv), marked(sv), false),
        )
        .await
        .0
    }

    /// Inserts `(key, value)`; false if present. `key` must be `< INF1`.
    pub async fn insert<C: PmemCtx>(&self, ctx: &mut C, key: u64, value: u64) -> bool {
        debug_assert!(key < INF1);
        loop {
            let sk = self.seek(ctx, key).await;
            if sk.leaf_key == key {
                return false;
            }
            let pkey = ctx.read(sk.parent + KEY).await;
            let child_off = Self::child_off(key, pkey);
            // Prepare the new leaf and its routing internal node.
            let leaf = new_leaf(ctx, key, value).await;
            let (l, rgt, ikey) = if key < sk.leaf_key {
                (leaf, sk.leaf, sk.leaf_key)
            } else {
                (sk.leaf, leaf, key)
            };
            let internal = new_internal(ctx, ikey, l, rgt).await;
            let (ok, cur) = ctx
                .cas_rel(
                    sk.parent + child_off,
                    pack(sk.leaf, false, false),
                    pack(internal, false, false),
                )
                .await;
            if ok {
                return true;
            }
            // Help an in-progress delete blocking this edge.
            if addr(cur) == sk.leaf && (marked(cur) || tagged(cur)) {
                self.cleanup(ctx, key, &sk).await;
            }
        }
    }

    /// Deletes `key`; false if absent.
    pub async fn delete<C: PmemCtx>(&self, ctx: &mut C, key: u64) -> bool {
        debug_assert!(key < INF1);
        let mut injected = false;
        let mut target = 0;
        loop {
            let sk = self.seek(ctx, key).await;
            if !injected {
                if sk.leaf_key != key {
                    return false;
                }
                let pkey = ctx.read(sk.parent + KEY).await;
                let child_off = Self::child_off(key, pkey);
                let (ok, cur) = ctx
                    .cas_rel(
                        sk.parent + child_off,
                        pack(sk.leaf, false, false),
                        pack(sk.leaf, true, false),
                    )
                    .await;
                if ok {
                    // Injection succeeded — the delete is now linearized.
                    injected = true;
                    target = sk.leaf;
                    if self.cleanup(ctx, key, &sk).await {
                        return true;
                    }
                } else if addr(cur) == sk.leaf && (marked(cur) || tagged(cur)) {
                    self.cleanup(ctx, key, &sk).await;
                }
            } else {
                if sk.leaf != target {
                    // A helper finished the physical removal.
                    return true;
                }
                if self.cleanup(ctx, key, &sk).await {
                    return true;
                }
            }
        }
    }

    /// Membership test (read-only seek).
    pub async fn contains<C: PmemCtx>(&self, ctx: &mut C, key: u64) -> bool {
        let sk = self.seek(ctx, key).await;
        sk.leaf_key == key
    }

    /// `(present, settled)` for `key`. A leaf whose edge is flagged is
    /// still present (recovery validators count it), but its removal is
    /// pending: any later operation whose search crosses the edge splices
    /// it out. Only a settled answer stays true until `key` is next
    /// mutated.
    pub async fn lookup<C: PmemCtx>(&self, ctx: &mut C, key: u64) -> (bool, bool) {
        let sk = self.seek(ctx, key).await;
        (sk.leaf_key == key, !marked(sk.leaf_edge))
    }

    /// Pre-populates with sorted `keys` by building a balanced external
    /// tree directly under `S.left`, preserving the `∞₁` sentinel leaf.
    pub fn populate(&self, ctx: &mut DirectCtx, keys: &[u64]) {
        debug_assert!(keys.windows(2).all(|w| w[0] < w[1]), "keys must be sorted");
        if keys.is_empty() {
            return;
        }
        fn build(ctx: &mut DirectCtx, keys: &[u64]) -> Addr {
            if keys.len() == 1 {
                block_on(new_leaf(ctx, keys[0], keys[0]))
            } else {
                let mid = keys.len() / 2;
                let l = build(ctx, &keys[..mid]);
                let r = build(ctx, &keys[mid..]);
                block_on(new_internal(ctx, keys[mid], l, r))
            }
        }
        let subtree = build(ctx, keys);
        let old_inf1_leaf = addr(ctx.read(self.s + LEFT));
        let top = block_on(new_internal(ctx, INF1, subtree, old_inf1_leaf));
        ctx.write(self.s + LEFT, top);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrp_exec::{body, run, ExecConfig, SchedPolicy};

    fn fresh() -> (DirectCtx, Bst) {
        let mut c = DirectCtx::new(1, 7);
        let b = Bst::new(&mut c);
        (c, b)
    }

    #[test]
    fn empty_tree_contains_nothing() {
        let (mut c, b) = fresh();
        assert!(!block_on(b.contains(&mut c, 1)));
        assert!(!block_on(b.delete(&mut c, 1)));
    }

    #[test]
    fn insert_contains_delete() {
        let (mut c, b) = fresh();
        for k in [5, 2, 8, 1, 9, 3] {
            assert!(block_on(b.insert(&mut c, k, k * 10)), "insert {k}");
        }
        for k in [5, 2, 8, 1, 9, 3] {
            assert!(block_on(b.contains(&mut c, k)), "contains {k}");
        }
        assert!(!block_on(b.contains(&mut c, 4)));
        assert!(!block_on(b.insert(&mut c, 5, 0)));
        assert!(block_on(b.delete(&mut c, 5)));
        assert!(!block_on(b.contains(&mut c, 5)));
        assert!(!block_on(b.delete(&mut c, 5)));
        assert!(block_on(b.insert(&mut c, 5, 1)), "reinsert after delete");
    }

    #[test]
    fn delete_root_key_repeatedly() {
        let (mut c, b) = fresh();
        for k in 1..=10 {
            block_on(b.insert(&mut c, k, k));
        }
        for k in 1..=10 {
            assert!(block_on(b.delete(&mut c, k)), "delete {k}");
            assert!(!block_on(b.contains(&mut c, k)));
        }
        // Tree drained to sentinels; still usable.
        assert!(block_on(b.insert(&mut c, 42, 42)));
        assert!(block_on(b.contains(&mut c, 42)));
    }

    #[test]
    fn populate_matches_inserts() {
        let (mut c, b) = fresh();
        let keys: Vec<u64> = (1..=31).collect();
        b.populate(&mut c, &keys);
        for k in 1..=31 {
            assert!(block_on(b.contains(&mut c, k)), "missing {k}");
            assert!(!block_on(b.insert(&mut c, k, 0)));
        }
        assert!(block_on(b.delete(&mut c, 16)));
        assert!(!block_on(b.contains(&mut c, 16)));
        assert!(block_on(b.insert(&mut c, 100, 1)));
    }

    #[test]
    fn sequential_model_check() {
        let (mut c, b) = fresh();
        let mut model = std::collections::BTreeSet::new();
        let mut rng = lrp_exec::Xorshift64::new(77);
        for _ in 0..2000 {
            let k = rng.below(48) + 1;
            match rng.below(3) {
                0 => assert_eq!(block_on(b.insert(&mut c, k, k)), model.insert(k)),
                1 => assert_eq!(block_on(b.delete(&mut c, k)), model.remove(&k)),
                _ => assert_eq!(block_on(b.contains(&mut c, k)), model.contains(&k)),
            }
        }
        assert!(!model.is_empty());
    }

    /// Concurrent stress: final abstract set must equal a set reachable
    /// from the recorded operation results.
    #[test]
    fn concurrent_updates_preserve_bst_shape() {
        let cfg = ExecConfig::new(4).policy(SchedPolicy::Random(19));
        let mut handle = None;
        let trace = run(
            &cfg,
            |s| {
                let b = Bst::new(s);
                b.populate(s, &[10, 20, 30, 40]);
                s.set_root("bst_r", b.r);
                handle = Some(b);
            },
            (0..4u64)
                .map(|t| {
                    body(move |mut c| async move {
                        // Recompute the sentinel addresses: setup's arena
                        // is deterministic (first two allocations after
                        // three leaves are S then R).
                        let base = lrp_exec::ctx::HEAP_BASE + 4 * lrp_exec::ctx::ARENA_BYTES;
                        let s_addr = base + (3 * NODE_WORDS as u64) * 8;
                        let r_addr = s_addr + NODE_WORDS as u64 * 8;
                        let b = Bst {
                            r: r_addr,
                            s: s_addr,
                        };
                        let mut rng = lrp_exec::Xorshift64::new(t + 1);
                        for _ in 0..30 {
                            let k = rng.below(50) + 1;
                            if rng.below(2) == 0 {
                                b.insert(&mut c, k, k).await;
                            } else {
                                b.delete(&mut c, k).await;
                            }
                        }
                    })
                })
                .collect(),
        );
        trace.validate().unwrap();
        // Structural check on the final memory: external BST invariants.
        let m = trace.final_mem();
        let read = |a: Addr| m.get(&a).copied().unwrap_or(lrp_model::Trace::POISON);
        let r_addr = trace.roots[0].1;
        fn walk(
            read: &dyn Fn(Addr) -> u64,
            node: Addr,
            lo: u64,
            hi: u64,
            out: &mut Vec<u64>,
            depth: usize,
        ) {
            assert!(depth < 64, "tree too deep (cycle?)");
            let key = read(node + KEY);
            assert!(key >= lo && key <= hi, "key {key} out of [{lo},{hi}]");
            let l = addr(read(node + LEFT));
            let r = addr(read(node + RIGHT));
            if l == 0 && r == 0 {
                out.push(key);
                return;
            }
            assert!(l != 0 && r != 0, "internal node must have two children");
            // External-BST bounds are inclusive at the routing key: the
            // max-key construction can place an internal (or sentinel
            // leaf) with key equal to its ancestor's key in the left
            // subtree.
            walk(read, l, lo, key, out, depth + 1);
            walk(read, r, key, hi, out, depth + 1);
        }
        let mut leaves = Vec::new();
        walk(&read, r_addr, 0, u64::MAX, &mut leaves, 0);
        assert!(leaves.windows(2).all(|w| w[0] <= w[1]), "leaves in order");
        let real: Vec<u64> = leaves.into_iter().filter(|&k| k < INF1).collect();
        assert!(
            real.windows(2).all(|w| w[0] < w[1]),
            "leaf keys sorted/unique"
        );
    }
}
