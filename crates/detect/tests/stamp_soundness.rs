//! The stamp's soundness claim, checked against a *recorded* persist
//! schedule: under a discipline with
//! [`orders_release_stamps`](lrp_core::PersistDiscipline), whenever the
//! rid word of a slot record carries a persist stamp, the record's
//! payload words and every program-order-earlier write of the same
//! thread (the operation "effect") carry stamps no later — so any
//! crash cut containing the stamp contains the whole checkpointed
//! operation.

use lrp_detect::{stamp, SlotKind, SlotRecord, SlotSpec};
use lrp_exec::{body, run, DirectCtx, ExecConfig, PmemCtx, SchedPolicy, ThreadBody};
use lrp_model::{Addr, EventKind, Trace};
use lrp_sim::{Mechanism, Sim, SimConfig};
use std::cell::OnceCell;
use std::rc::Rc;

fn rid(client: u64, seq: u64) -> u64 {
    (client << 48) | seq
}

/// Two workers, each writing a private "effect" word then stamping a
/// slot record, several times over.
fn build(seed: u64, spec: SlotSpec) -> Trace {
    let shared: Rc<OnceCell<(Addr, Addr)>> = Rc::default();
    let setup_shared = Rc::clone(&shared);
    let setup = move |s: &mut DirectCtx| {
        let base = s.alloc(spec.words());
        let data = s.alloc(16);
        s.set_root("det_base", base);
        let _ = setup_shared.set((base, data));
    };
    let bodies: Vec<ThreadBody> = (0..2u64)
        .map(|t| {
            let shared = Rc::clone(&shared);
            body(move |mut c| async move {
                let (base, data) = *shared.get().expect("setup ran");
                for seq in 0..4 {
                    // The "operation": a plain effect write...
                    c.write(data + t * 8, 100 * t + seq).await;
                    // ...then its detectable checkpoint.
                    stamp(
                        &mut c,
                        base,
                        &spec,
                        &SlotRecord {
                            rid: rid(t + 1, seq),
                            key: 100 * t + seq,
                            kind: SlotKind::Put,
                            applied: true,
                            batch: 0,
                        },
                    )
                    .await;
                }
            })
        })
        .collect();
    let cfg = ExecConfig::new(2)
        .policy(SchedPolicy::Random(seed))
        .seed(seed);
    run(&cfg, setup, bodies)
}

#[test]
fn stamp_durable_implies_payload_and_effect_durable() {
    let spec = SlotSpec {
        clients: 4,
        ring: 8,
    };
    for mech in [Mechanism::Lrp, Mechanism::Sb, Mechanism::Bb, Mechanism::Dpo] {
        assert!(mech.discipline().orders_release_stamps(), "{mech}");
        for seed in 1..6 {
            let trace = build(seed, spec);
            let sched = Sim::new(SimConfig::new(mech), &trace).run().schedule;
            // For each thread, walk writes in program order: when a
            // release stamp is persisted, everything the same thread
            // wrote before it must be persisted no later.
            for e in trace
                .events
                .iter()
                .filter(|e| e.kind == EventKind::Write && e.annot.is_release())
            {
                let Some(s) = sched.stamp(e.id) else { continue };
                for earlier in trace
                    .events
                    .iter()
                    .filter(|w| w.tid == e.tid && w.id < e.id && w.kind == EventKind::Write)
                {
                    let ws = sched.stamp(earlier.id);
                    assert!(
                        matches!(ws, Some(w) if w <= s),
                        "{mech} seed {seed}: stamp {} persisted at {s} but \
                         earlier write {} has stamp {ws:?}",
                        e.id,
                        earlier.id
                    );
                }
            }
        }
    }
}
