//! Null-recovery checking over crash points.

use crate::crash::{CrashPlan, PersistWalk};
use lrp_lfds::{walk_image, MemImage, Structure, ValidationError};
use lrp_model::spec::PersistSchedule;
use lrp_model::Trace;

/// Outcome of checking one execution over a crash plan.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Crash points examined.
    pub crash_points: usize,
    /// Crash points at which validation failed.
    pub failures: Vec<(Option<u64>, ValidationError)>,
}

impl RecoveryReport {
    /// True if every examined crash state recovered.
    pub fn all_recovered(&self) -> bool {
        self.failures.is_empty()
    }
}

impl std::fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.all_recovered() {
            write!(f, "{} crash points: all recovered", self.crash_points)
        } else {
            write!(
                f,
                "{} crash points: {} FAILED (first: {:?})",
                self.crash_points,
                self.failures.len(),
                self.failures.first()
            )
        }
    }
}

/// Reconstructs the durable state at each crash point of `plan` and runs
/// the structural validator of `structure` on it. One image, cloned from
/// the trace's initial image, is advanced through the plan's ascending
/// stamps by a single [`PersistWalk`]. Only the verdict is kept: the
/// walk appends the recovered contents to one reused buffer and no key
/// set is built.
pub fn check_null_recovery(
    structure: Structure,
    trace: &Trace,
    sched: &PersistSchedule,
    plan: &CrashPlan,
) -> RecoveryReport {
    let stamps = plan.stamps(sched);
    let mut walk = PersistWalk::new(trace, sched);
    let mut img = MemImage::new(trace.initial_mem.iter().copied());
    let mut failures = Vec::new();
    let mut contents = Vec::new();
    for &stamp in &stamps {
        if let Some(cut) = stamp {
            walk.advance(cut, &mut img);
        }
        contents.clear();
        if let Err(e) = walk_image(structure, &trace.roots, &img, &mut contents) {
            failures.push((stamp, e));
        }
    }
    RecoveryReport {
        crash_points: stamps.len(),
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrp_baselines::arp::{arp_schedule, ArpOrder};
    use lrp_lfds::WorkloadSpec;
    use lrp_sim::{Mechanism, Sim, SimConfig};

    fn workload(structure: Structure, seed: u64) -> Trace {
        WorkloadSpec::new(structure)
            .initial_size(24)
            .threads(3)
            .ops_per_thread(10)
            .seed(seed)
            .build_trace()
    }

    #[test]
    fn lrp_runs_recover_at_every_crash_point() {
        for s in Structure::ALL {
            let t = workload(s, 21);
            let r = Sim::new(SimConfig::new(Mechanism::Lrp), &t).run();
            let report = check_null_recovery(s, &t, &r.schedule, &CrashPlan::Exhaustive);
            assert!(report.all_recovered(), "{s}: {report}");
            assert!(report.crash_points > 1, "{s}: no crash points exercised");
        }
    }

    #[test]
    fn sb_and_bb_runs_also_recover() {
        for m in [Mechanism::Sb, Mechanism::Bb] {
            let t = workload(Structure::LinkedList, 22);
            let r = Sim::new(SimConfig::new(m), &t).run();
            let report = check_null_recovery(
                Structure::LinkedList,
                &t,
                &r.schedule,
                &CrashPlan::Exhaustive,
            );
            assert!(report.all_recovered(), "{m}: {report}");
        }
    }

    #[test]
    fn adversarial_arp_fails_recovery_on_lfds() {
        // The paper's §3 claim, at workload scale: an ARP-legal persist
        // order can leave the structure unrecoverable. Scan seeds until
        // the adversarial order produces a violation (it usually does on
        // the first try for the linked list).
        let mut failed_somewhere = false;
        for seed in 0..6 {
            let t = workload(Structure::LinkedList, 100 + seed);
            let sched = arp_schedule(&t, ArpOrder::ReleaseFirst);
            let report =
                check_null_recovery(Structure::LinkedList, &t, &sched, &CrashPlan::Exhaustive);
            if !report.all_recovered() {
                failed_somewhere = true;
                break;
            }
        }
        assert!(
            failed_somewhere,
            "ARP's one-sided barrier should break recovery on some interleaving"
        );
    }

    #[test]
    fn report_formats_both_ways() {
        let ok = RecoveryReport {
            crash_points: 5,
            failures: vec![],
        };
        assert!(ok.to_string().contains("all recovered"));
        let bad = RecoveryReport {
            crash_points: 5,
            failures: vec![(Some(3), ValidationError::Cycle("x"))],
        };
        assert!(bad.to_string().contains("FAILED"));
    }
}
