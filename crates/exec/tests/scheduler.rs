//! Scheduler-behavior tests for the lockstep executor.

use lrp_exec::{run, ExecConfig, GateCtx, PmemCtx, SchedPolicy, ThreadBody};
use lrp_model::EventKind;

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
                Box::new(move |c: &mut GateCtx| {
                    for j in 0..5 {
                        c.write(0x1000 * (i + 1) + 8 * j, j);
                    }
                }) as ThreadBody
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
            Box::new(|c: &mut GateCtx| {
                for j in 0..50 {
                    c.write(0x1000 + 8 * j, j);
                }
            }),
            Box::new(|c: &mut GateCtx| {
                c.write(0x2000, 1);
            }),
            Box::new(|c: &mut GateCtx| {
                for j in 0..10 {
                    c.read(0x3000 + 8 * j);
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
                Box::new(|c: &mut GateCtx| {
                    c.write(0x200, 42);
                    c.write_rel(0x100, 1);
                }),
                Box::new(|c: &mut GateCtx| while c.read_acq(0x100) == 0 {}),
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
                Box::new(move |c: &mut GateCtx| {
                    for _ in 0..20 {
                        let (_, seen) = c.cas_annot(
                            0x100,
                            i, // often stale
                            i + 1,
                            lrp_model::Annot::Release,
                        );
                        let _ = seen;
                    }
                }) as ThreadBody
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
                Box::new(move |c: &mut GateCtx| {
                    for j in 0..10 {
                        let p = c.alloc(3);
                        assert_eq!(p % 8, 0);
                        c.write(p, j);
                        c.write(p + 16, j);
                    }
                }) as ThreadBody
            })
            .collect(),
    );
    // Every written address is distinct per (thread, iteration) pair.
    let addrs: std::collections::HashSet<_> = t.events.iter().map(|e| e.addr).collect();
    assert_eq!(addrs.len(), 4 * 10 * 2);
}
