//! Cross-validation of *slot-stamped* schedules: the serve layer's
//! detectable operations add per-request slot writes (payload words
//! plain, rid word via `write_rel`) to every batch, and those writes
//! must not weaken the checker's guarantees. The recorded persist
//! schedule of a detection-enabled batch has to stay admissible under
//! the mechanism's promised discipline, and every crash cut the stamps
//! realize has to pass null recovery + durable linearizability with
//! the slot region present in the image.

use lrp_check::Checker;
use lrp_serve::{KvOp, Shard, ShardConfig, ShardReq};
use lrp_sim::Mechanism;

fn batch() -> Vec<ShardReq> {
    (0..8u64)
        .map(|i| {
            let key = 1 + (i * 37) % 96;
            let op = match i % 4 {
                0 | 1 => KvOp::Put(key),
                2 => KvOp::Del(key),
                _ => KvOp::Get(key),
            };
            ShardReq::new(op, (5 << 48) | (i + 1))
        })
        .collect()
}

fn shard(mech: Mechanism) -> Shard {
    let mut cfg = ShardConfig::new(lrp_lfds::Structure::HashMap);
    cfg.mechanism = mech;
    cfg.initial_size = 16;
    cfg.key_range = 96;
    cfg.seed = 7;
    Shard::new(cfg)
}

#[test]
fn slot_stamped_batches_cross_validate_under_every_mechanism() {
    for mech in [Mechanism::Lrp, Mechanism::Sb, Mechanism::Bb, Mechanism::Dpo] {
        let mut s = shard(mech);
        let (trace, sched) = s.replay_for_check(&batch());

        // The slot stamps are really in the trace — as first-class
        // events carrying the `slot` site phase — not smuggled through
        // a side channel the oracle cannot see.
        let slot_sites: Vec<u16> = trace
            .site_names
            .iter()
            .enumerate()
            .filter(|(_, n)| n.ends_with("/slot"))
            .map(|(i, _)| i as u16)
            .collect();
        assert!(
            !slot_sites.is_empty(),
            "{}: no slot site label in the batch trace",
            mech.name()
        );
        let stamped = trace
            .event_sites
            .iter()
            .filter(|s| slot_sites.contains(s))
            .count();
        assert!(
            stamped > 0,
            "{}: no event attributed to the slot phase",
            mech.name()
        );

        let title = format!("slot-stamped {}/hashmap", mech.name());
        let report = Checker::new(lrp_lfds::Structure::HashMap, &trace)
            .unwrap()
            .cross_validate_schedule(mech.discipline(), &sched, &title)
            .unwrap_or_else(|cx| panic!("{title}:\n{cx}"));
        assert_eq!(report.waived, 0, "{title}: no waived cuts");
        assert!(
            report.crash_points > 1,
            "{title}: the schedule must realize non-trivial crash points"
        );
    }
}

#[test]
fn disabling_detection_removes_the_slot_phase_but_still_validates() {
    let mut cfg = ShardConfig::new(lrp_lfds::Structure::HashMap);
    cfg.mechanism = Mechanism::Lrp;
    cfg.initial_size = 16;
    cfg.key_range = 96;
    cfg.seed = 7;
    cfg.detect = None;
    let mut s = Shard::new(cfg);
    let (trace, sched) = s.replay_for_check(&batch());
    assert!(
        !trace.site_names.iter().any(|n| n.ends_with("/slot")),
        "detection disabled, yet the trace carries slot events"
    );
    Checker::new(lrp_lfds::Structure::HashMap, &trace)
        .unwrap()
        .cross_validate_schedule(Mechanism::Lrp.discipline(), &sched, "no-detect lrp/hashmap")
        .unwrap_or_else(|cx| panic!("{cx}"));
}
