//! Scheduler-behavior tests for the lockstep executor.

use lrp_exec::{body, run, ExecConfig, PmemCtx, SchedPolicy, ThreadBody};
use lrp_model::EventKind;
use std::cell::RefCell;
use std::rc::Rc;

/// Under round-robin with identical per-thread programs, events must
/// interleave strictly t0, t1, t2, t0, t1, t2, ...
#[test]
fn round_robin_is_exactly_fair() {
    let cfg = ExecConfig::new(3).policy(SchedPolicy::RoundRobin);
    let t = run(
        &cfg,
        |_| {},
        (0..3u64)
            .map(|i| {
                body(move |mut c| async move {
                    for j in 0..5 {
                        c.write(0x1000 * (i + 1) + 8 * j, j).await;
                    }
                })
            })
            .collect(),
    );
    let tids: Vec<u16> = t.events.iter().map(|e| e.tid).collect();
    for (i, &tid) in tids.iter().enumerate() {
        assert_eq!(tid as usize, i % 3, "position {i}");
    }
}

/// Random scheduling eventually lets every thread run (no starvation on
/// finite programs).
#[test]
fn random_scheduling_completes_unequal_programs() {
    let cfg = ExecConfig::new(3).policy(SchedPolicy::Random(3));
    let t = run(
        &cfg,
        |_| {},
        vec![
            body(|mut c| async move {
                for j in 0..50 {
                    c.write(0x1000 + 8 * j, j).await;
                }
            }),
            body(|mut c| async move {
                c.write(0x2000, 1).await;
            }),
            body(|mut c| async move {
                for j in 0..10 {
                    c.read(0x3000 + 8 * j).await;
                }
            }),
        ],
    );
    assert_eq!(t.events.len(), 61);
    for tid in 0..3u16 {
        assert!(
            t.events.iter().any(|e| e.tid == tid),
            "thread {tid} starved"
        );
    }
}

/// A spin-wait on one thread cannot starve the writer it waits for.
#[test]
fn spinning_reader_eventually_observes_writer() {
    for seed in 1..8u64 {
        let cfg = ExecConfig::new(2).policy(SchedPolicy::Random(seed));
        let t = run(
            &cfg,
            |s| s.write(0x100, 0),
            vec![
                body(|mut c| async move {
                    c.write(0x200, 42).await;
                    c.write_rel(0x100, 1).await;
                }),
                body(|mut c| async move { while c.read_acq(0x100).await == 0 {} }),
            ],
        );
        t.validate().unwrap();
    }
}

/// CAS failure values observed through the gate match the memory state.
#[test]
fn cas_observed_values_are_linearized() {
    let cfg = ExecConfig::new(2).policy(SchedPolicy::Random(9));
    let t = run(
        &cfg,
        |s| s.write(0x100, 0),
        (0..2u64)
            .map(|i| {
                body(move |mut c| async move {
                    for _ in 0..20 {
                        let (_, seen) = c
                            .cas_annot(
                                0x100,
                                i, // often stale
                                i + 1,
                                lrp_model::Annot::Release,
                            )
                            .await;
                        let _ = seen;
                    }
                })
            })
            .collect(),
    );
    t.validate().unwrap(); // validate() re-checks every CAS outcome
    let successes = t
        .events
        .iter()
        .filter(|e| e.kind == EventKind::RmwSuccess)
        .count();
    assert!(successes >= 1);
}

/// The allocator hands out disjoint, word-aligned regions under
/// concurrent allocation.
#[test]
fn concurrent_allocations_never_overlap() {
    let cfg = ExecConfig::new(4).policy(SchedPolicy::Random(11));
    let t = run(
        &cfg,
        |_| {},
        (0..4u64)
            .map(|_| {
                body(move |mut c| async move {
                    for j in 0..10 {
                        let p = c.alloc(3);
                        assert_eq!(p % 8, 0);
                        c.write(p, j).await;
                        c.write(p + 16, j).await;
                    }
                })
            })
            .collect(),
    );
    // Every written address is distinct per (thread, iteration) pair.
    let addrs: std::collections::HashSet<_> = t.events.iter().map(|e| e.addr).collect();
    assert_eq!(addrs.len(), 4 * 10 * 2);
}

/// Every logical thread runs on the caller's OS thread.
#[test]
fn bodies_run_on_the_callers_thread() {
    let caller = std::thread::current().id();
    let seen = Rc::new(RefCell::new(Vec::new()));
    let bodies: Vec<ThreadBody> = (0..4u64)
        .map(|i| {
            let seen = Rc::clone(&seen);
            body(move |mut c| async move {
                seen.borrow_mut().push(std::thread::current().id());
                c.write(0x1000 + 8 * i, i).await;
                seen.borrow_mut().push(std::thread::current().id());
            })
        })
        .collect();
    run(&ExecConfig::new(4), |_| {}, bodies);
    let seen = seen.borrow();
    assert_eq!(seen.len(), 8);
    assert!(seen.iter().all(|&id| id == caller));
}

/// Bodies need not be `Send`: one may capture an `Rc` and share it with
/// the others and with the caller.
#[test]
fn bodies_may_capture_an_rc() {
    let log: Rc<RefCell<Vec<u64>>> = Rc::default();
    let bodies: Vec<ThreadBody> = (0..3u64)
        .map(|i| {
            let log = Rc::clone(&log);
            body(move |mut c| async move {
                let v = c.read(0x1000).await;
                log.borrow_mut().push(i * 100 + v);
            })
        })
        .collect();
    let cfg = ExecConfig::new(3).policy(SchedPolicy::RoundRobin);
    run(&cfg, |s| s.write(0x1000, 5), bodies);
    assert_eq!(*log.borrow(), vec![5, 105, 205]);
    assert_eq!(Rc::strong_count(&log), 1, "the bodies were dropped");
}

/// A wide run completes: 256 logical threads contending on one word.
#[test]
fn a_256_worker_run_completes() {
    let n: u16 = 256;
    let bodies: Vec<ThreadBody> = (0..n)
        .map(|_| {
            body(|mut c| async move {
                for _ in 0..4 {
                    loop {
                        let v = c.read_acq(0x1000).await;
                        if c.cas_acq_rel(0x1000, v, v + 1).await.0 {
                            break;
                        }
                    }
                }
            })
        })
        .collect();
    let t = run(&ExecConfig::new(n), |s| s.write(0x1000, 0), bodies);
    t.validate().unwrap();
    assert_eq!(t.final_mem()[&0x1000], 4 * u64::from(n));
    for tid in 0..n {
        assert!(t.events.iter().any(|e| e.tid == tid), "thread {tid} ran");
    }
}

/// A body that returns before its first access passes the turn on, at
/// any position in the start order.
#[test]
fn a_body_that_never_accesses_passes_the_turn() {
    for policy in [SchedPolicy::RoundRobin, SchedPolicy::Random(4)] {
        let cfg = ExecConfig::new(3).policy(policy);
        let t = run(
            &cfg,
            |_| {},
            vec![
                body(|_c| async {}),
                body(|mut c| async move {
                    for j in 0..3 {
                        c.write(0x1000 + 8 * j, j).await;
                    }
                }),
                body(|mut c| async move {
                    c.op_begin(lrp_model::OpKind::Contains(1));
                    c.op_end(0);
                }),
            ],
        );
        assert_eq!(t.events.len(), 3);
        assert!(t.events.iter().all(|e| e.tid == 1));
        assert_eq!(t.markers.len(), 1, "the marker-only body ran");
    }
}
