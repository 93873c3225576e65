//! Exhaustive specification cross-checks on tiny executions: for every
//! permutation of the writes of a small trace, the streaming
//! persist-order check under each discipline, the closure-based
//! consistent-cut criterion, and the ARP rule must relate exactly as the
//! theory says:
//!
//! * `StoreOrder` ⟹ `EpochOrder` ⟹ `ReleaseOrder` (each discipline
//!   adds edges to the one after it),
//! * `ReleaseOrder` (`check_rp`) ⟺ `check_cut_closure` (total orders),
//! * `check_rp` ⟹ `check_arp` (RP is strictly stronger).

use lrp_model::hb::HbClosure;
use lrp_model::litmus::LitmusBuilder;
use lrp_model::spec::{
    check_arp, check_cut_closure, check_persist_order, check_rp, PersistDiscipline, PersistSchedule,
};
use lrp_model::{Annot, EventId, Trace};

fn permutations(items: &[EventId]) -> Vec<Vec<EventId>> {
    if items.len() <= 1 {
        return vec![items.to_vec()];
    }
    let mut out = Vec::new();
    for (i, &x) in items.iter().enumerate() {
        let mut rest = items.to_vec();
        rest.remove(i);
        for mut p in permutations(&rest) {
            p.insert(0, x);
            out.push(p);
        }
    }
    out
}

fn writes_of(t: &Trace) -> Vec<EventId> {
    t.events
        .iter()
        .filter(|e| e.is_write_effect())
        .map(|e| e.id)
        .collect()
}

/// Checks all the relationships over every write permutation of `t`.
fn exhaust(name: &str, t: &Trace) {
    let hb = HbClosure::compute_persist(t).unwrap();
    let writes = writes_of(t);
    assert!(writes.len() <= 6, "{name}: too many writes to enumerate");
    let (mut rp_ok_count, mut store_ok_count) = (0, 0);
    for perm in permutations(&writes) {
        let sched = PersistSchedule::from_order(t.events.len(), &perm);
        let ok = |d| check_persist_order(t, &sched, d).is_ok();
        let store = ok(PersistDiscipline::StoreOrder);
        store_ok_count += store as usize;
        let epoch = ok(PersistDiscipline::EpochOrder);
        let rp = check_rp(t, &sched).is_ok();
        assert!(
            !store || epoch,
            "{name}: store order admits, epoch order rejects {perm:?}"
        );
        assert!(
            !epoch || rp,
            "{name}: epoch order admits, RP rejects {perm:?}"
        );
        let cut = check_cut_closure(t, &hb, &sched).is_ok();
        assert_eq!(rp, cut, "{name}: rp/cut disagree on {perm:?}");
        if rp {
            rp_ok_count += 1;
            assert!(
                check_arp(t, &sched).is_ok(),
                "{name}: RP-valid order rejected by the weaker ARP rule: {perm:?}"
            );
        }
    }
    assert!(rp_ok_count > 0, "{name}: no valid persist order at all?");
    assert!(
        store_ok_count > 0,
        "{name}: not even program order is store order?"
    );
}

#[test]
fn exhaustive_message_passing() {
    let mut b = LitmusBuilder::new(2);
    b.init(0x200, 0);
    b.write(0, 0x100, 1);
    b.write_rel(0, 0x200, 1);
    b.read_acq(1, 0x200);
    b.write(1, 0x300, 1);
    exhaust("MP", &b.build());
}

#[test]
fn exhaustive_single_thread_release_chain() {
    let mut b = LitmusBuilder::new(1);
    b.write(0, 0x10, 1);
    b.write_rel(0, 0x20, 2);
    b.write(0, 0x30, 3);
    b.write_rel(0, 0x40, 4);
    exhaust("chain-1t", &b.build());
}

#[test]
fn exhaustive_rmw_relay() {
    let mut b = LitmusBuilder::new(2);
    b.init(0x100, 0);
    b.write(0, 0x180, 1);
    b.cas(0, 0x100, 0, 1, Annot::Release);
    b.cas(1, 0x100, 1, 2, Annot::AcqRel);
    b.write(1, 0x280, 2);
    exhaust("rmw-relay", &b.build());
}

#[test]
fn exhaustive_same_address_chain() {
    let mut b = LitmusBuilder::new(1);
    b.write(0, 0x10, 1);
    b.write(0, 0x10, 2);
    b.write(0, 0x18, 3);
    b.write(0, 0x10, 4);
    exhaust("same-addr", &b.build());
}

#[test]
fn exhaustive_two_thread_independent() {
    // No synchronization at all: every order should be RP-valid except
    // same-address inversions.
    let mut b = LitmusBuilder::new(2);
    b.write(0, 0x10, 1);
    b.write(0, 0x18, 2);
    b.write(1, 0x20, 3);
    b.write(1, 0x28, 4);
    let t = b.build();
    let hb = HbClosure::compute_persist(&t).unwrap();
    for perm in permutations(&writes_of(&t)) {
        let sched = PersistSchedule::from_order(t.events.len(), &perm);
        assert!(check_rp(&t, &sched).is_ok(), "unconstrained order rejected");
        assert!(check_cut_closure(&t, &hb, &sched).is_ok());
    }
}

#[test]
fn exhaustive_failed_cas_sync() {
    // A failed acquire-CAS still synchronizes; the release it read must
    // persist before the failer's later writes.
    let mut b = LitmusBuilder::new(2);
    b.init(0x100, 7);
    b.write(0, 0x180, 1);
    b.write_rel(0, 0x100, 8);
    b.cas(1, 0x100, 99, 0, Annot::AcqRel); // fails, reads 8
    b.write(1, 0x280, 2);
    exhaust("failed-cas", &b.build());
}

/// Partial persistence: every *prefix* of a valid total order is a valid
/// partial schedule under both checkers.
#[test]
fn prefixes_of_valid_orders_stay_valid() {
    let mut b = LitmusBuilder::new(2);
    b.init(0x200, 0);
    b.write(0, 0x100, 1);
    b.write_rel(0, 0x200, 1);
    b.read_acq(1, 0x200);
    b.write(1, 0x300, 1);
    let t = b.build();
    let hb = HbClosure::compute_persist(&t).unwrap();
    let order = writes_of(&t); // program order happens to be RP-valid here
    for cut in 0..=order.len() {
        let sched = PersistSchedule::from_order(t.events.len(), &order[..cut]);
        assert!(check_rp(&t, &sched).is_ok(), "prefix {cut} rejected");
        assert!(check_cut_closure(&t, &hb, &sched).is_ok());
    }
}
