//! Michael lock-free hash table \[28\] — the paper's `hashmap` workload.
//!
//! A fixed array of bucket pointer words, each heading a Harris/Michael
//! lock-free list (shared implementation in [`crate::list`]). The bucket
//! count is fixed at construction, as in SynchroBench.

use crate::list;
use lrp_exec::{DirectCtx, PmemCtx};
use lrp_model::Addr;

/// Lock-free hash map handle.
#[derive(Debug, Clone, Copy)]
pub struct HashMap {
    /// Base address of the bucket pointer array.
    pub buckets: Addr,
    /// Number of buckets.
    pub nbuckets: u64,
}

impl HashMap {
    /// Allocates `nbuckets` empty buckets.
    pub fn new(ctx: &mut DirectCtx, nbuckets: u64) -> Self {
        assert!(nbuckets > 0);
        let buckets = ctx.alloc(nbuckets as usize);
        for i in 0..nbuckets {
            ctx.write(buckets + 8 * i, 0);
        }
        HashMap { buckets, nbuckets }
    }

    /// Fibonacci-hash bucket index for `key` (recovery checks every key
    /// sits in this bucket).
    pub(crate) fn bucket(&self, key: u64) -> u64 {
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        h % self.nbuckets
    }

    /// Address of `key`'s bucket pointer word.
    fn bucket_loc(&self, key: u64) -> Addr {
        self.buckets + 8 * self.bucket(key)
    }

    /// Inserts `(key, value)`; false if present.
    pub async fn insert<C: PmemCtx>(&self, ctx: &mut C, key: u64, value: u64) -> bool {
        list::insert(ctx, self.bucket_loc(key), key, value).await
    }

    /// Deletes `key`; false if absent.
    pub async fn delete<C: PmemCtx>(&self, ctx: &mut C, key: u64) -> bool {
        list::delete(ctx, self.bucket_loc(key), key).await
    }

    /// Membership test.
    pub async fn contains<C: PmemCtx>(&self, ctx: &mut C, key: u64) -> bool {
        list::contains(ctx, self.bucket_loc(key), key).await
    }

    /// Pre-populates with `keys` (need not be sorted) by building each
    /// bucket chain directly.
    pub fn populate(&self, ctx: &mut DirectCtx, keys: &[u64]) {
        let mut per_bucket: Vec<Vec<u64>> = vec![Vec::new(); self.nbuckets as usize];
        for &k in keys {
            per_bucket[self.bucket(k) as usize].push(k);
        }
        for (i, bucket) in per_bucket.iter_mut().enumerate() {
            bucket.sort_unstable();
            bucket.dedup();
            list::populate(ctx, self.buckets + 8 * i as u64, bucket);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrp_exec::block_on;

    fn fresh(nbuckets: u64) -> (DirectCtx, HashMap) {
        let mut c = DirectCtx::new(1, 7);
        let h = HashMap::new(&mut c, nbuckets);
        (c, h)
    }

    #[test]
    fn insert_contains_delete() {
        let (mut c, h) = fresh(4);
        for k in 1..=20 {
            assert!(block_on(h.insert(&mut c, k, k * 10)));
        }
        for k in 1..=20 {
            assert!(block_on(h.contains(&mut c, k)));
        }
        assert!(!block_on(h.contains(&mut c, 21)));
        assert!(block_on(h.delete(&mut c, 7)));
        assert!(!block_on(h.contains(&mut c, 7)));
        assert!(!block_on(h.delete(&mut c, 7)));
    }

    #[test]
    fn duplicate_insert_rejected_across_buckets() {
        let (mut c, h) = fresh(2);
        assert!(block_on(h.insert(&mut c, 9, 1)));
        assert!(!block_on(h.insert(&mut c, 9, 2)));
    }

    #[test]
    fn single_bucket_degenerates_to_list() {
        let (mut c, h) = fresh(1);
        for k in [5, 1, 3] {
            block_on(h.insert(&mut c, k, k));
        }
        for k in [1, 3, 5] {
            assert!(block_on(h.contains(&mut c, k)));
        }
    }

    #[test]
    fn populate_matches_inserts() {
        let (mut c, h) = fresh(8);
        let keys: Vec<u64> = (1..=50).collect();
        h.populate(&mut c, &keys);
        for k in 1..=50 {
            assert!(block_on(h.contains(&mut c, k)), "missing {k}");
            assert!(!block_on(h.insert(&mut c, k, 0)));
        }
        assert!(block_on(h.delete(&mut c, 25)));
        assert!(!block_on(h.contains(&mut c, 25)));
    }

    #[test]
    fn sequential_model_check() {
        let (mut c, h) = fresh(8);
        let mut model = std::collections::BTreeSet::new();
        let mut rng = lrp_exec::Xorshift64::new(23);
        for _ in 0..1000 {
            let k = rng.below(64) + 1;
            match rng.below(3) {
                0 => assert_eq!(block_on(h.insert(&mut c, k, k)), model.insert(k)),
                1 => assert_eq!(block_on(h.delete(&mut c, k)), model.remove(&k)),
                _ => assert_eq!(block_on(h.contains(&mut c, k)), model.contains(&k)),
            }
        }
    }
}
