//! A litmus suite of small named executions, each replayed through the
//! full timing simulator under every mechanism and checked against the
//! persist order the mechanism promises, plus the RP specification for
//! every mechanism that promises one — the persistency analogue of a
//! consistency litmus battery.

use lrp_repro::model::litmus::LitmusBuilder;
use lrp_repro::model::spec::{check_persist_order, check_rp};
use lrp_repro::model::{Annot, Trace};
use lrp_repro::sim::{Mechanism, Sim, SimConfig};

fn check_all(name: &str, t: &Trace) {
    t.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
    for m in Mechanism::EXTENDED {
        let r = Sim::new(SimConfig::new(m), t).run();
        let d = m.discipline();
        check_persist_order(t, &r.schedule, d)
            .unwrap_or_else(|v| panic!("{name} under {m} ({d}): {v:?}"));
        if d.guarantees_dl() {
            check_rp(t, &r.schedule).unwrap_or_else(|v| panic!("{name} under {m}: {v:?}"));
        }
    }
}

/// MP (message passing): the canonical Figure 1 chain.
#[test]
fn litmus_message_passing() {
    let mut b = LitmusBuilder::new(2);
    b.init(0x200, 0);
    b.write(0, 0x100, 1);
    b.write_rel(0, 0x200, 1);
    b.read_acq(1, 0x200);
    b.write(1, 0x300, 1);
    check_all("MP", &b.build());
}

/// MP with the data and flag on the same cache line (coalescing traps).
#[test]
fn litmus_message_passing_same_line() {
    let mut b = LitmusBuilder::new(2);
    b.init(0x108, 0);
    b.write(0, 0x100, 1); // same 64B line as the flag
    b.write_rel(0, 0x108, 1);
    b.read_acq(1, 0x108);
    b.write(1, 0x300, 1);
    check_all("MP-same-line", &b.build());
}

/// Release chains: A releases to B, B releases to C.
#[test]
fn litmus_transitive_release_chain() {
    let mut b = LitmusBuilder::new(3);
    b.init(0x200, 0);
    b.init(0x400, 0);
    b.write(0, 0x100, 1);
    b.write_rel(0, 0x200, 1);
    b.read_acq(1, 0x200);
    b.write(1, 0x300, 1);
    b.write_rel(1, 0x400, 1);
    b.read_acq(2, 0x400);
    b.write(2, 0x500, 1);
    check_all("chain", &b.build());
}

/// Repeated release to the same address (release-on-released-line path).
#[test]
fn litmus_release_release_same_line() {
    let mut b = LitmusBuilder::new(1);
    for i in 0..10u64 {
        b.write(0, 0x100 + 8 * (i % 3), i);
        b.write_rel(0, 0x200, i);
    }
    check_all("rel-rel-same-line", &b.build());
}

/// Store buffering shape: two threads publish to each other.
#[test]
fn litmus_store_buffering() {
    let mut b = LitmusBuilder::new(2);
    b.init(0x200, 0);
    b.init(0x400, 0);
    b.write(0, 0x100, 1);
    b.write_rel(0, 0x200, 1);
    b.write(1, 0x300, 1);
    b.write_rel(1, 0x400, 1);
    b.read_acq(0, 0x400);
    b.read_acq(1, 0x200);
    b.write(0, 0x500, 1);
    b.write(1, 0x600, 1);
    check_all("SB-shape", &b.build());
}

/// CAS hand-off ring over three threads (RMW-release relay).
#[test]
fn litmus_cas_relay() {
    let mut b = LitmusBuilder::new(3);
    b.init(0x100, 0);
    for round in 0..9u64 {
        let t = (round % 3) as u16;
        b.write(t, 0x200 + 0x40 * t as u64, round); // private payload
        b.cas(t, 0x100, round, round + 1, Annot::Release);
    }
    check_all("cas-relay", &b.build());
}

/// Acquire-RMW (I3): the RMW's own write persists before later writes.
#[test]
fn litmus_rmw_acquire_then_write() {
    let mut b = LitmusBuilder::new(2);
    b.init(0x100, 0);
    b.write(0, 0x180, 7);
    b.cas(0, 0x100, 0, 1, Annot::AcqRel);
    b.write(0, 0x200, 8);
    b.cas(1, 0x100, 1, 2, Annot::AcqRel);
    b.write(1, 0x280, 9);
    check_all("rmw-acq", &b.build());
}

/// Failed CAS acquires but must not be treated as a write.
#[test]
fn litmus_failed_cas_acquire() {
    let mut b = LitmusBuilder::new(2);
    b.init(0x100, 0);
    b.write(0, 0x180, 1);
    b.write_rel(0, 0x100, 5);
    b.cas(1, 0x100, 99, 1, Annot::AcqRel); // fails, reads 5
    b.write(1, 0x200, 2);
    check_all("failed-cas", &b.build());
}

/// Eviction pressure: dirty working set larger than one L1 set forces
/// write-backs between the release and the acquire.
#[test]
fn litmus_eviction_between_sync() {
    let mut b = LitmusBuilder::new(2);
    b.init(0x10_0000, 0);
    b.write(0, 0x8000, 1);
    b.write_rel(0, 0x10_0000, 1);
    // Thrash thread 0's L1 set containing 0x8000 (64 sets => stride
    // 64*64 bytes maps to the same set).
    for i in 1..=10u64 {
        b.write(0, 0x8000 + i * 64 * 64, i);
    }
    b.read_acq(1, 0x10_0000);
    b.write(1, 0x20_0000, 1);
    check_all("evict-sync", &b.build());
}

/// Single-line epoch wrap: enough releases to wrap an 8-bit epoch.
#[test]
fn litmus_epoch_wrap_many_releases() {
    let mut b = LitmusBuilder::new(1);
    for i in 0..300u64 {
        b.write(0, 0x100 + 8 * (i % 4), i);
        b.write_rel(0, 0x1000 + 64 * (i % 8), i);
    }
    let t = b.build();
    // 300 releases > 255 epoch limit: wrap handling must keep RP intact.
    check_all("epoch-wrap", &t);
}

/// Independent plain writes may persist in any order (RP's freedom) —
/// NOP also runs clean here because nothing constrains it.
#[test]
fn litmus_independent_writes_unconstrained() {
    let mut b = LitmusBuilder::new(2);
    for i in 0..8u64 {
        b.write(0, 0x1000 + 8 * i, i);
        b.write(1, 0x2000 + 8 * i, i);
    }
    let t = b.build();
    check_all("independent", &t);
    // Even NOP's (empty) schedule satisfies RP here.
    let r = Sim::new(SimConfig::new(Mechanism::Nop), &t).run();
    check_rp(&t, &r.schedule).unwrap();
}
