//! Recovery matrix: every structure × every enforcing mechanism × both
//! NVM modes. Whether the recovered states are explained by the
//! history (durable linearizability) is `lrp-check`'s job.

use lrp_lfds::{validate_image, MemImage, Structure, WorkloadSpec};
use lrp_recovery::{check_null_recovery, nvm_at, CrashPlan};
use lrp_sim::{Mechanism, NvmMode, Sim, SimConfig};

#[test]
fn recovery_matrix_structures_by_mechanisms() {
    for s in Structure::ALL {
        let t = WorkloadSpec::new(s)
            .initial_size(20)
            .threads(3)
            .ops_per_thread(8)
            .seed(61)
            .build_trace();
        for m in [Mechanism::Lrp, Mechanism::Sb, Mechanism::Bb, Mechanism::Dpo] {
            let r = Sim::new(SimConfig::new(m), &t).run();
            let rep = check_null_recovery(s, &t, &r.schedule, &CrashPlan::Exhaustive);
            assert!(rep.all_recovered(), "{s}/{m}: {rep}");
        }
    }
}

#[test]
fn recovery_holds_in_uncached_mode_too() {
    let t = WorkloadSpec::new(Structure::Bst)
        .initial_size(24)
        .threads(3)
        .ops_per_thread(10)
        .seed(62)
        .build_trace();
    let r = Sim::new(
        SimConfig::new(Mechanism::Lrp).nvm_mode(NvmMode::Uncached),
        &t,
    )
    .run();
    let rep = check_null_recovery(Structure::Bst, &t, &r.schedule, &CrashPlan::Exhaustive);
    assert!(rep.all_recovered(), "{rep}");
}

#[test]
fn nop_eventually_fails_recovery_somewhere() {
    // Volatile execution: with an L1-thrashing footprint some dirty data
    // reaches NVM through LLC-free eviction paths... in our model NOP
    // persists nothing, so the *final* durable state equals the initial
    // image — recovery trivially succeeds but loses all completed work.
    let t = WorkloadSpec::new(Structure::HashMap)
        .initial_size(16)
        .threads(2)
        .ops_per_thread(12)
        .seed(64)
        .build_trace();
    let r = Sim::new(SimConfig::new(Mechanism::Nop), &t).run();
    // Nothing durable: every completed insert is lost.
    let img = nvm_at(&t, &r.schedule, r.persist_log.last().map(|p| p.stamp));
    let rec = validate_image(Structure::HashMap, &t.roots, &img).unwrap();
    let inserted_ok = t
        .markers
        .iter()
        .filter(|m| matches!(m.op, lrp_model::OpKind::Insert(..)) && m.result == 1)
        .count();
    assert!(inserted_ok > 0, "workload performed inserts");
    let initial = validate_image(
        Structure::HashMap,
        &t.roots,
        &MemImage::new(t.initial_mem.iter().copied()),
    )
    .unwrap();
    assert_eq!(
        rec.keys(),
        initial.keys(),
        "volatile execution durably retains only the initial image"
    );
}
