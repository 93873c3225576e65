//! The warm shard's commit against from-scratch recomputation.
//!
//! A shard commits each batch as a delta on its durable image and
//! updates its committed key set by lookups on the keys the batch
//! touched. These tests recompute both from a full snapshot of the
//! durable image after every commit, across structures and every
//! mechanism (under `nop` the commit validates and may drop a batch),
//! through crashes and compactions, and check that compaction keeps the
//! heap bounded without losing a durable ack.

use lrp_detect::SlotSpec;
use lrp_exec::Xorshift64;
use lrp_lfds::{validate_image, MemImage, Recovered, Structure};
use lrp_recovery::rebuild_resolution;
use lrp_serve::{KvOp, Shard, ShardConfig, ShardReq, COMPACT_FACTOR};
use lrp_sim::Mechanism;
use std::collections::{BTreeSet, HashMap};

/// The durable state as a from-scratch reader sees it: the key set and
/// resolver rebuilt from a full snapshot of the durable image.
fn from_scratch(
    s: &Shard,
    structure: Structure,
    mech: Mechanism,
) -> (BTreeSet<u64>, lrp_detect::Resolver) {
    let snap = MemImage::new(s.durable_image().as_mem().snapshot());
    let keys = match validate_image(structure, s.roots(), &snap) {
        Ok(Recovered::Set(k)) => k,
        other => panic!("durable image rejected: {other:?}"),
    };
    let sound = mech.discipline().orders_release_stamps();
    let res = rebuild_resolution(s.roots(), &snap, sound).expect("detection is on");
    (keys, res.resolver)
}

fn mixed_batch(rng: &mut Xorshift64, seq: &mut u64, key_range: u64) -> Vec<ShardReq> {
    let n = 1 + rng.below(12) as usize;
    (0..n)
        .map(|_| {
            let key = rng.below(key_range) + 1;
            let op = match rng.below(10) {
                0..=1 => KvOp::Get(key),
                2..=5 => KvOp::Put(key),
                _ => KvOp::Del(key),
            };
            *seq += 1;
            ShardReq::new(op, (1 << 48) | *seq)
        })
        .collect()
}

fn commit_equivalence(structure: Structure) {
    for mech in Mechanism::EXTENDED {
        let mut cfg = ShardConfig::new(structure);
        cfg.mechanism = mech;
        cfg.initial_size = 24;
        cfg.key_range = 64;
        cfg.seed = 0x0AC1E ^ mech as u64;
        cfg.audit_samples = 2;
        let mut s = Shard::new(cfg);
        let mut rng = Xorshift64::new(17 + mech as u64);
        let mut seq = 0;
        for b in 0..110 {
            let ops = mixed_batch(&mut rng, &mut seq, 64);
            match b {
                40 => {
                    s.crash(&ops);
                }
                75 => s.compact(),
                _ => {
                    s.execute(&ops);
                }
            }
            let (keys, resolver) = from_scratch(&s, structure, mech);
            assert_eq!(
                *s.committed(),
                keys,
                "{structure}/{mech} batch {b}: key set"
            );
            assert_eq!(
                s.resolver(),
                resolver,
                "{structure}/{mech} batch {b}: resolver"
            );
            if b % 10 == 5 {
                let before = s.durable_image().as_mem().snapshot();
                let probe = mixed_batch(&mut rng, &mut seq, 64);
                let (trace, _) = s.replay_for_check(&probe);
                assert_eq!(trace.initial_mem, before, "replay starts from all of D");
                assert_eq!(s.durable_image().as_mem().snapshot(), before);
                assert_eq!(
                    *s.committed(),
                    keys,
                    "{structure}/{mech}: replay moved keys"
                );
                assert_eq!(
                    s.resolver(),
                    resolver,
                    "{structure}/{mech}: replay moved resolver"
                );
            }
        }
        let c = s.counters();
        assert_eq!(c.key_mismatches, 0, "{structure}/{mech}");
        assert_eq!(c.lost_acked, 0, "{structure}/{mech}");
        assert!(c.compactions >= 1, "{structure}/{mech}: forced compaction");
    }
}

#[test]
fn hashmap_commit_matches_from_scratch() {
    commit_equivalence(Structure::HashMap);
}

#[test]
fn list_commit_matches_from_scratch() {
    commit_equivalence(Structure::LinkedList);
}

#[test]
fn bst_commit_matches_from_scratch() {
    commit_equivalence(Structure::Bst);
}

#[test]
fn skiplist_commit_matches_from_scratch() {
    commit_equivalence(Structure::SkipList);
}

#[test]
fn compaction_bounds_the_heap_and_keeps_durable_acks() {
    let mut cfg = ShardConfig::new(Structure::HashMap);
    cfg.initial_size = 16;
    cfg.key_range = 32;
    cfg.seed = 5;
    // One client row: request `seq` stamps slot `seq % ring`.
    let spec = SlotSpec {
        clients: 1,
        ring: 64,
    };
    cfg.detect = Some(spec);
    let mut s = Shard::new(cfg);
    let mut rng = Xorshift64::new(99);
    // Per slot, the last request that stamped it and whether it was
    // acked durable: that ack must survive every later compaction.
    let mut last_in_slot: HashMap<u64, (u64, bool)> = HashMap::new();
    let mut seq = 0u64;
    let mut batches = 0;
    while s.counters().compactions < 2 {
        batches += 1;
        assert!(
            batches < 1000,
            "no second compaction after {batches} batches"
        );
        let ops: Vec<ShardReq> = (0..16)
            .map(|_| {
                let key = rng.below(32) + 1;
                seq += 1;
                let op = if rng.below(2) == 0 {
                    KvOp::Put(key)
                } else {
                    KvOp::Del(key)
                };
                ShardReq::new(op, seq)
            })
            .collect();
        let compactions = s.counters().compactions;
        let results = s.execute(&ops);
        for (o, r) in ops.iter().zip(&results) {
            last_in_slot.insert(o.rid % spec.ring, (o.rid, r.durable));
        }
        let (used, fresh) = s.heap_words();
        assert!(
            used < COMPACT_FACTOR * fresh,
            "batch {batches}: {used} heap words against a fresh image of {fresh}"
        );
        if s.counters().compactions > compactions {
            for &(rid, durable) in last_in_slot.values() {
                assert!(
                    !durable || s.resolve(rid).is_done(),
                    "rid {rid:#x} lost its durable stamp in compaction"
                );
            }
        }
    }
    let durable_rids = last_in_slot.values().filter(|v| v.1).count();
    assert!(durable_rids > 0, "no durable ack to keep");
    assert_eq!(s.counters().key_mismatches, 0);
}
