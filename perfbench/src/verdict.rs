//! The correctness verdict and the failure ledger, kept apart.
//!
//! *Operations* are the units a workload attempts: an audited schedule
//! or crash point, a replay, a key-value request. Each ends succeeded or
//! failed, and a failure carries a detail line; failures are program
//! defects the run counts (`failed / attempted` is the fail share) and
//! never abort the run.
//!
//! The *verdict* is whether the program's outputs are correct. It rests
//! on four checks:
//!
//! 1. a recorder replay and a bare replay of one trace under one
//!    mechanism give identical [`Stats`] and persist schedules;
//! 2. every replay pass repeats the first pass's [`Stats`] exactly, and
//!    every repeat of a `paper-bstree` pipeline ends each of its
//!    operations as the first pipeline did;
//! 3. every durably-acked key reads back with the expected presence;
//! 4. attempted = succeeded + failed.
//!
//! A verdict check that fails is also a failed operation. Failures of
//! other checks (e.g. the release-persistency checker rejecting a
//! schedule) count in the ledger but leave the verdict alone.

use lrp_model::spec::PersistSchedule;
use lrp_sim::Stats;

/// Detail lines kept per ledger (the counts stay exact beyond it).
const MAX_DETAILS: usize = 32;

/// Counts of attempted / succeeded / failed operations, failure
/// details, and verdict problems.
#[derive(Debug, Default, Clone)]
pub struct Ledger {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that succeeded.
    pub succeeded: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The first failure details.
    pub details: Vec<String>,
    /// Failed verdict checks (empty = outputs correct).
    pub problems: Vec<String>,
}

impl Ledger {
    /// Records one operation's outcome.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        match outcome {
            Ok(()) => self.succeeded += 1,
            Err(detail) => {
                self.failed += 1;
                self.note(detail);
            }
        }
    }

    /// Records one verdict check, which is also an operation.
    pub fn check(&mut self, outcome: Result<(), String>) {
        if let Err(e) = &outcome {
            self.problems.push(e.clone());
        }
        self.op(outcome);
    }

    /// Keeps a failure detail (bounded; a repeat of a kept detail, such
    /// as the same defect in the next iteration, is kept once).
    pub fn note(&mut self, detail: String) {
        if self.details.len() < MAX_DETAILS && !self.details.contains(&detail) {
            self.details.push(detail);
        }
    }

    /// Folds another ledger in.
    pub fn merge(&mut self, other: Ledger) {
        self.attempted += other.attempted;
        self.succeeded += other.succeeded;
        self.failed += other.failed;
        for d in other.details {
            self.note(d);
        }
        self.problems.extend(other.problems);
    }

    /// Failed share of attempted operations.
    pub fn fail_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Runs check 4 (the accounting identity) and returns the verdict:
    /// true when every check passed.
    pub fn finish(&mut self) -> bool {
        if let Err(e) = accounting(self.attempted, self.succeeded, self.failed) {
            self.problems.push(e);
        }
        self.problems.is_empty()
    }
}

/// Check 1: a recorder replay must not perturb the simulation.
pub fn replays_agree(
    what: &str,
    bare: (&Stats, &PersistSchedule),
    recorded: (&Stats, &PersistSchedule),
) -> Result<(), String> {
    if bare.0 != recorded.0 {
        return Err(format!(
            "{what}: recorder replay changed Stats (cycles {} vs {})",
            recorded.0.cycles, bare.0.cycles
        ));
    }
    if bare.1 != recorded.1 {
        return Err(format!(
            "{what}: recorder replay changed the persist schedule"
        ));
    }
    Ok(())
}

/// Check 2: a replay pass must repeat the first pass exactly.
pub fn pass_repeats(what: &str, first: &Stats, again: &Stats) -> Result<(), String> {
    if first == again {
        Ok(())
    } else {
        Err(format!(
            "{what}: replay not deterministic (cycles {} then {})",
            first.cycles, again.cycles
        ))
    }
}

/// Check 3: a durably-acked key must read back as acked.
pub fn reads_back(key: u64, expect_present: bool, present: bool) -> Result<(), String> {
    if expect_present == present {
        Ok(())
    } else {
        Err(format!(
            "key {key}: durably acked {} but reads back {}",
            if expect_present { "present" } else { "absent" },
            if present { "present" } else { "absent" }
        ))
    }
}

/// Check 2 for whole pipelines: a repeat on the same input must end
/// every operation as the first run did (the repeat's own verdict
/// problems make it differ, since the first run's are reported apart).
pub fn outcome_repeats(what: &str, first: &Ledger, again: &Ledger) -> Result<(), String> {
    if let Some(p) = again.problems.first() {
        return Err(format!("{what}: {p}"));
    }
    let counts = |l: &Ledger| (l.attempted, l.succeeded, l.failed);
    if counts(first) != counts(again) || first.details != again.details {
        return Err(format!(
            "{what}: outcome not deterministic ({} of {} failed, then {} of {})",
            first.failed, first.attempted, again.failed, again.attempted
        ));
    }
    Ok(())
}

/// Check 4: every attempted operation ended exactly once.
pub fn accounting(attempted: u64, succeeded: u64, failed: u64) -> Result<(), String> {
    if attempted == succeeded + failed {
        Ok(())
    } else {
        Err(format!(
            "accounting: attempted {attempted} != succeeded {succeeded} + failed {failed}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrp_lfds::{Structure, WorkloadSpec};
    use lrp_obs::RecorderConfig;
    use lrp_sim::{Mechanism, Sim, SimConfig};

    fn replay_pair() -> (lrp_sim::RunResult, lrp_sim::RunResult) {
        let trace = WorkloadSpec::new(Structure::HashMap)
            .initial_size(32)
            .threads(2)
            .ops_per_thread(8)
            .seed(5)
            .build_trace();
        let cfg = SimConfig::new(Mechanism::Lrp);
        let bare = Sim::new(cfg.clone(), &trace).run();
        let rec = Sim::new(cfg, &trace)
            .with_recorder(RecorderConfig::summaries_only())
            .run();
        (bare, rec)
    }

    #[test]
    fn agreeing_replays_pass() {
        let (bare, rec) = replay_pair();
        assert!(replays_agree(
            "t",
            (&bare.stats, &bare.schedule),
            (&rec.stats, &rec.schedule)
        )
        .is_ok());
        assert!(pass_repeats("t", &bare.stats, &rec.stats).is_ok());
    }

    #[test]
    fn perturbed_stats_fail_the_verdict() {
        let (bare, rec) = replay_pair();
        let mut tampered = rec.stats.clone();
        tampered.cycles += 1;
        let mut l = Ledger::default();
        l.check(replays_agree(
            "t",
            (&bare.stats, &bare.schedule),
            (&tampered, &rec.schedule),
        ));
        l.check(pass_repeats("t", &bare.stats, &tampered));
        assert_eq!(l.failed, 2);
        assert!(!l.finish());
    }

    #[test]
    fn a_pipeline_repeat_with_another_outcome_fails_the_verdict() {
        let mut first = Ledger::default();
        first.op(Ok(()));
        first.op(Err("ReleaseBarrier: event 1 before event 2".into()));
        assert!(outcome_repeats("t", &first, &first.clone()).is_ok());
        let mut fewer = Ledger::default();
        fewer.op(Ok(()));
        fewer.op(Ok(()));
        assert!(outcome_repeats("t", &first, &fewer).is_err());
        let mut other = Ledger::default();
        other.op(Ok(()));
        other.op(Err("ReleaseBarrier: event 3 before event 4".into()));
        assert!(outcome_repeats("t", &first, &other).is_err());
        let mut perturbed = first.clone();
        perturbed
            .problems
            .push("recorder replay changed Stats".into());
        assert!(outcome_repeats("t", &first, &perturbed).is_err());
        let mut l = Ledger::default();
        l.check(outcome_repeats("t", &first, &fewer));
        assert!(!l.finish());
    }

    #[test]
    fn perturbed_schedule_fails_the_verdict() {
        let (bare, rec) = replay_pair();
        let mut sched = rec.schedule.clone();
        let e = (0..sched.len() as u32)
            .find(|&e| sched.stamp(e).is_some())
            .expect("something persisted");
        sched.set(e, sched.stamp(e).unwrap() + 1_000_000);
        assert!(replays_agree("t", (&bare.stats, &bare.schedule), (&rec.stats, &sched)).is_err());
    }

    #[test]
    fn flipped_readback_expectation_fails_the_verdict() {
        let mut l = Ledger::default();
        l.check(reads_back(7, true, true));
        assert!(l.clone().finish());
        l.check(reads_back(7, false, true));
        assert!(!l.finish());
        assert_eq!((l.attempted, l.failed), (2, 1));
    }

    #[test]
    fn broken_accounting_fails_the_verdict() {
        let mut l = Ledger::default();
        l.op(Ok(()));
        l.attempted += 1; // an operation that never ended
        assert!(!l.finish());
    }

    #[test]
    fn plain_failures_leave_the_verdict_alone() {
        let mut l = Ledger::default();
        l.op(Err(
            "ReleaseBarrier: event 1 must persist before event 2".into()
        ));
        assert!(l.finish());
        assert_eq!(l.fail_share(), 1.0);
    }
}
