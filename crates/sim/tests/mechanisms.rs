//! Mechanism-differentiating tests: the full barrier vs RP relaxation,
//! configuration sweeps, and regressions for protocol races found during
//! development.

use lrp_lfds::{Structure, WorkloadSpec};
use lrp_model::litmus::LitmusBuilder;
use lrp_model::spec::{check_persist_order, check_rp, PersistDiscipline};
use lrp_model::Trace;
use lrp_sim::{Mechanism, Sim, SimConfig};

fn run(trace: &Trace, mech: Mechanism) -> lrp_sim::RunResult {
    Sim::new(SimConfig::new(mech), trace).run()
}

/// SB and BB enforce the intra-thread *full* barrier; LRP only RP. On a
/// trace engineered to expose the difference (a write after a release
/// whose line is downgraded while the pre-release write stays buffered),
/// LRP exploits the relaxation.
#[test]
fn lrp_exploits_rp_relaxation_sb_bb_do_not() {
    // T0: W A; Rel F; W B. T1 then reads B's line (plain), forcing B to
    // persist; A and F stay buffered in T0's L1 (never synchronized).
    let mut b = LitmusBuilder::new(2);
    b.write(0, 0x1000, 1); // A
    b.write_rel(0, 0x2000, 2); // F
    b.write(0, 0x3000, 3); // B
    b.read(1, 0x3000); // downgrade B only
    let t = b.build();

    for m in [Mechanism::Sb, Mechanism::Bb] {
        let r = run(&t, m);
        check_rp(&t, &r.schedule).unwrap();
        check_persist_order(&t, &r.schedule, m.discipline())
            .unwrap_or_else(|v| panic!("{m} must respect the full barrier: {v:?}"));
    }
    let r = run(&t, Mechanism::Lrp);
    check_rp(&t, &r.schedule).unwrap();
    // B persisted (downgraded), A did not: full-barrier order violated —
    // legally, under RP's one-sided semantics (Figure 2b).
    assert!(
        r.schedule.stamp(2).is_some(),
        "B persisted via the downgrade"
    );
    assert!(
        r.schedule.stamp(0).is_none(),
        "A stays lazily buffered in the L1"
    );
    assert!(check_persist_order(&t, &r.schedule, PersistDiscipline::EpochOrder).is_err());
}

/// Regression: a forward must never overtake an in-flight exclusive
/// grant (the FIFO-channel race found by the RP checker). Three readers
/// request the line while the owner's grant is still in the network.
#[test]
fn regression_forward_does_not_overtake_grant() {
    let mut b = LitmusBuilder::new(4);
    b.init(0x200, 0);
    b.write(0, 0x100, 1);
    b.cas(0, 0x200, 0, 1, lrp_model::Annot::Release);
    for t in 1..4u16 {
        b.read_acq(t, 0x200);
        b.write(t, 0x300 + 0x100 * t as u64, 7);
    }
    let t = b.build();
    for m in [Mechanism::Lrp, Mechanism::Bb, Mechanism::Sb] {
        let r = run(&t, m);
        check_rp(&t, &r.schedule).unwrap_or_else(|v| panic!("{m}: {v:?}"));
    }
}

/// Regression: a release committing while a downgrade's engine run is in
/// flight must not ride the response unpersisted (the downgrade-holds-
/// the-line fix). Reproduced as back-to-back releases to one line under
/// cross-thread reads.
#[test]
fn regression_release_during_downgrade() {
    let mut b = LitmusBuilder::new(3);
    b.init(0x100, 0);
    for i in 0..12u64 {
        let t = (i % 2) as u16;
        b.write(t, 0x1000 + 8 * i, i); // keep prior writes buffered
        b.cas(t, 0x100, i, i + 1, lrp_model::Annot::Release);
        if i % 3 == 2 {
            b.read_acq(2, 0x100);
            b.write(2, 0x4000 + 8 * i, i);
        }
    }
    let t = b.build();
    let r = run(&t, Mechanism::Lrp);
    check_rp(&t, &r.schedule).unwrap();
}

#[test]
fn tiny_ret_forces_more_flushes_than_large_ret() {
    let t = WorkloadSpec::new(Structure::SkipList)
        .initial_size(64)
        .threads(2)
        .ops_per_thread(40)
        .seed(3)
        .build_trace();
    let mut small = SimConfig::new(Mechanism::Lrp);
    small.lrp.ret_capacity = 2;
    small.lrp.ret_watermark = 1;
    let mut large = SimConfig::new(Mechanism::Lrp);
    large.lrp.ret_capacity = 64;
    large.lrp.ret_watermark = 60;
    let fs = Sim::new(small, &t).run();
    let fl = Sim::new(large, &t).run();
    check_rp(&t, &fs.schedule).unwrap();
    check_rp(&t, &fl.schedule).unwrap();
    assert!(
        fs.stats.total_flushes() >= fl.stats.total_flushes(),
        "tiny RET drains constantly: {} vs {}",
        fs.stats.total_flushes(),
        fl.stats.total_flushes()
    );
}

#[test]
fn strict_epoch_engine_ablation_still_enforces_rp() {
    let t = WorkloadSpec::new(Structure::Bst)
        .initial_size(32)
        .threads(3)
        .ops_per_thread(12)
        .seed(9)
        .build_trace();
    let mut cfg = SimConfig::new(Mechanism::Lrp);
    cfg.lrp.strict_epoch_engine = true;
    let strict = Sim::new(cfg, &t).run();
    check_rp(&t, &strict.schedule).unwrap();
    let normal = run(&t, Mechanism::Lrp);
    check_rp(&t, &normal.schedule).unwrap();
    // Both engine orders are RP-valid; their relative speed is
    // workload-dependent (the ablation bench quantifies it).
    assert!(strict.stats.cycles > 0 && normal.stats.cycles > 0);
}

#[test]
fn bb_without_proactive_flushing_is_not_faster() {
    let t = WorkloadSpec::new(Structure::HashMap)
        .initial_size(64)
        .threads(4)
        .ops_per_thread(20)
        .seed(5)
        .build_trace();
    let mut off = SimConfig::new(Mechanism::Bb);
    off.bb.proactive_flush = false;
    let r_off = Sim::new(off, &t).run();
    let r_on = run(&t, Mechanism::Bb);
    check_rp(&t, &r_off.schedule).unwrap();
    assert!(r_off.stats.cycles >= r_on.stats.cycles);
}

#[test]
fn store_buffer_backpressure_is_live() {
    // A long burst of stores to distinct lines with a 2-entry buffer.
    let mut cfg = SimConfig::new(Mechanism::Lrp);
    cfg.store_buffer = 2;
    let mut b = LitmusBuilder::new(1);
    for i in 0..64u64 {
        b.write(0, 0x1000 + 64 * i, i);
    }
    let t = b.build();
    let r = Sim::new(cfg, &t).run();
    assert_eq!(r.stats.stores, 64);
}

#[test]
fn dpo_handles_litmus_relay() {
    let mut b = LitmusBuilder::new(2);
    b.init(0x100, 0);
    for i in 0..6u64 {
        let t = (i % 2) as u16;
        b.write(t, 0x1000 + 64 * i, i);
        b.cas(t, 0x100, i, i + 1, lrp_model::Annot::Release);
    }
    let t = b.build();
    let r = run(&t, Mechanism::Dpo);
    check_rp(&t, &r.schedule).unwrap();
    // Store order holds too: the FIFO never reorders a thread's writes.
    check_persist_order(&t, &r.schedule, Mechanism::Dpo.discipline()).unwrap();
}

#[test]
fn report_renders_for_every_mechanism() {
    let t = WorkloadSpec::new(Structure::Queue)
        .initial_size(8)
        .threads(2)
        .ops_per_thread(6)
        .seed(4)
        .build_trace();
    for m in Mechanism::EXTENDED {
        let r = run(&t, m);
        let text = lrp_sim::report::render(m.name(), &r);
        assert!(text.contains("cycles"));
    }
}
