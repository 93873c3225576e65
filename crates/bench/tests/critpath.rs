//! End-to-end critical-path properties across the full workload
//! matrix: conservation (segments sum exactly to the measured
//! release-to-persist latency), the wall-time bound, and the golden
//! guarantee that tracing never perturbs simulated outcomes.

use lrp_exec::Xorshift64;
use lrp_lfds::{Structure, WorkloadSpec};
use lrp_obs::{CritSegKind, RecorderConfig};
use lrp_sim::{Mechanism, NvmMode, Sim, SimConfig};

fn workload(s: Structure, seed: u64) -> lrp_model::Trace {
    WorkloadSpec::new(s)
        .initial_size(24)
        .threads(3)
        .ops_per_thread(10)
        .seed(seed)
        .build_trace()
}

/// The property the whole tentpole hangs on: for every LFD × mechanism
/// cell (randomized seeds), every traced chain conserves the measured
/// latency, one conservation check is made per chain, and no chain
/// outruns the wall clock.
#[test]
fn conservation_holds_across_the_structure_mechanism_matrix() {
    let mut rng = Xorshift64::new(0xC417);
    for structure in Structure::ALL {
        let seed = rng.next_u64() | 1;
        let trace = workload(structure, seed);
        for mechanism in [Mechanism::Sb, Mechanism::Bb, Mechanism::Lrp, Mechanism::Nop] {
            let r = Sim::new(SimConfig::new(mechanism), &trace)
                .with_recorder(RecorderConfig::default())
                .run();
            let obs = r.obs.expect("recorder was attached");
            let crit = obs.summary.crit;
            let cell = format!("{}/{}", structure.name(), mechanism.name());

            assert_eq!(crit.audit.total_violations(), 0, "{cell}");
            assert_eq!(
                crit.audit.c1.checks, crit.path.count,
                "{cell}: one conservation check per retired chain"
            );
            // Per-kind segment cycles partition the total exactly.
            assert_eq!(
                crit.seg_cycles.iter().sum::<u64>(),
                crit.path.sum,
                "{cell}: segment cycles partition the latency total"
            );
            assert!(crit.max_path <= r.stats.cycles, "{cell}: path beats wall");
            if mechanism == Mechanism::Lrp {
                assert_eq!(
                    crit.seg_cycles[CritSegKind::BarrierDrain.idx()],
                    0,
                    "{cell}: LRP never waits on a full-barrier drain"
                );
            }
        }
    }
}

/// Golden fixture: over every structure × mechanism × NVM mode, the
/// same replay with and without the recorder (and its critical-path
/// tracer) yields byte-identical stats and an identical persist
/// schedule — the tracer is timing-invisible, so simulated ops/cycle
/// cannot move by any amount.
#[test]
fn critpath_leaves_stats_and_persist_schedule_identical() {
    for structure in Structure::ALL {
        let trace = workload(structure, 99);
        for mechanism in Mechanism::EXTENDED {
            for mode in NvmMode::ALL {
                let cfg = SimConfig::new(mechanism).nvm_mode(mode);
                let bare = Sim::new(cfg.clone(), &trace).run();
                let on = Sim::new(cfg.clone(), &trace)
                    .with_recorder(RecorderConfig::default())
                    .run();
                let cell = format!("{}/{}/{}", structure.name(), mechanism.name(), mode.name());

                assert_eq!(bare.stats, on.stats, "{cell}: critpath perturbed stats");
                assert_eq!(
                    bare.schedule, on.schedule,
                    "{cell}: critpath perturbed the persist schedule"
                );
            }
        }
    }
}
