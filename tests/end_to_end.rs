//! Cross-crate integration: workload generation → timing simulation →
//! persist-order validation → crash recovery, for every structure and
//! mechanism.

use lrp_repro::lfds::{validate_image, MemImage, Structure, WorkloadSpec};
use lrp_repro::model::spec::check_rp;
use lrp_repro::recovery::{check_null_recovery, CrashPlan};
use lrp_repro::sim::{Mechanism, NvmMode, Sim, SimConfig};

fn quick_trace(s: Structure, seed: u64) -> lrp_repro::model::Trace {
    WorkloadSpec::new(s)
        .initial_size(32)
        .threads(4)
        .ops_per_thread(10)
        .seed(seed)
        .build_trace()
}

#[test]
fn full_matrix_rp_and_recovery() {
    for s in Structure::ALL {
        let t = quick_trace(s, 31);
        for m in [Mechanism::Lrp, Mechanism::Sb, Mechanism::Bb] {
            let r = Sim::new(SimConfig::new(m), &t).run();
            check_rp(&t, &r.schedule).unwrap_or_else(|v| panic!("{s}/{m}: {v:?}"));
            let plan = CrashPlan::Random {
                samples: 16,
                seed: 31,
            };
            let report = check_null_recovery(s, &t, &r.schedule, &plan);
            assert!(report.all_recovered(), "{s}/{m}: {report}");
        }
    }
}

#[test]
fn final_functional_state_validates_for_every_structure() {
    for s in Structure::ALL {
        let t = quick_trace(s, 17);
        let img = MemImage::new(t.final_mem());
        validate_image(s, &t.roots, &img).unwrap_or_else(|e| panic!("{s}: {e}"));
    }
}

#[test]
fn mechanism_ordering_holds_on_aggregate() {
    // Summed across all five workloads, the paper's ordering must hold:
    // NOP <= LRP <= BB <= SB (small per-workload inversions are allowed
    // at this tiny scale, the aggregate must not invert).
    let mut sums = std::collections::HashMap::new();
    for s in Structure::ALL {
        let t = quick_trace(s, 5);
        for m in Mechanism::ALL {
            let c = Sim::new(SimConfig::new(m), &t).run().stats.cycles;
            *sums.entry(m).or_insert(0u64) += c;
        }
    }
    assert!(sums[&Mechanism::Nop] <= sums[&Mechanism::Lrp]);
    assert!(sums[&Mechanism::Lrp] <= sums[&Mechanism::Bb]);
    assert!(sums[&Mechanism::Bb] <= sums[&Mechanism::Sb]);
}

#[test]
fn uncached_mode_amplifies_overheads() {
    let t = quick_trace(Structure::Bst, 9);
    let cached = Sim::new(SimConfig::new(Mechanism::Lrp), &t)
        .run()
        .stats
        .cycles;
    let uncached = Sim::new(
        SimConfig::new(Mechanism::Lrp).nvm_mode(NvmMode::Uncached),
        &t,
    )
    .run()
    .stats
    .cycles;
    assert!(uncached >= cached);
}

#[test]
fn whole_stack_is_deterministic() {
    let build = || {
        let t = quick_trace(Structure::Queue, 77);
        let r = Sim::new(SimConfig::new(Mechanism::Lrp), &t).run();
        (t.events.len(), r.stats.cycles, r.persist_log.len())
    };
    assert_eq!(build(), build());
}

#[test]
fn facade_reexports_are_usable() {
    // The facade must expose every subsystem.
    let _ = lrp_repro::core::LrpConfig::default();
    let _ = lrp_repro::baselines::BufferedBarrier::default();
    let _ = lrp_repro::exec::ExecConfig::new(1);
    let _ = lrp_repro::model::Trace::new(1);
    let _ = lrp_repro::sim::SimConfig::new(lrp_repro::sim::Mechanism::Nop);
}
