//! End-to-end execution of one campaign cell: generate the workload
//! trace (shared among a workload's cells, see [`crate::traces`]),
//! replay it under the simulator, validate the persist schedule against
//! the RP specification, and check null recovery over sampled crash
//! points.

use crate::matrix::CellSpec;
use lrp_lfds::WorkloadSpec;
use lrp_model::Trace;
use lrp_obs::{ObsSummary, RecorderConfig};
use lrp_recovery::{check_null_recovery, CrashPlan};
use lrp_sim::{Mechanism, Sim, SimConfig, Stats};

/// The deterministic measurement record of one completed cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// Simulator statistics.
    pub stats: Stats,
    /// Whether the RP specification was checked (skipped for NOP, which
    /// makes no persistency guarantees).
    pub rp_checked: bool,
    /// RP violations found (0 when unchecked).
    pub rp_violations: u64,
    /// Whether null recovery was checked.
    pub recovery_checked: bool,
    /// Crash points examined.
    pub recovery_points: u64,
    /// Crash points that failed validation.
    pub recovery_failures: u64,
    /// Events in the generated trace.
    pub trace_events: u64,
    /// Completed data-structure operations in the trace.
    pub trace_ops: u64,
    /// The recorded replay's latency histograms, blame, critical path
    /// and I1–I4 audit.
    pub obs: ObsSummary,
}

impl CellResult {
    /// True when every checked property held.
    pub fn healthy(&self) -> bool {
        self.rp_violations == 0 && self.recovery_failures == 0
    }
}

/// Generates and validates the workload trace `spec` replays.
pub fn build_trace(spec: &CellSpec) -> Trace {
    let trace = WorkloadSpec::new(spec.structure)
        .initial_size(spec.initial_size)
        .threads(spec.threads)
        .ops_per_thread(spec.ops_per_thread)
        .seed(spec.seed)
        .build_trace();
    trace.validate().expect("generated trace is well-formed");
    trace
}

/// Runs one cell to completion on its workload's trace, as built by
/// [`build_trace`]. Panics propagate to the caller — the scheduler wraps
/// this in `catch_unwind` plus a watchdog.
pub fn replay_cell(spec: &CellSpec, trace: &Trace) -> CellResult {
    let cfg = SimConfig::new(spec.mechanism).nvm_mode(spec.mode);
    // Summaries-only recording: online histograms and audit counters,
    // no event ring and no time series, so cells stay cheap.
    let mut run = Sim::new(cfg, trace)
        .with_recorder(RecorderConfig::summaries_only())
        .run();
    let obs = run.obs.take().expect("recorder was attached").summary;

    let (rp_checked, rp_violations) = if spec.mechanism == Mechanism::Nop {
        (false, 0)
    } else {
        match lrp_model::spec::check_rp(trace, &run.schedule) {
            Ok(()) => (true, 0),
            Err(v) => (true, v.len() as u64),
        }
    };

    let (recovery_checked, recovery_points, recovery_failures) = if spec.mechanism == Mechanism::Nop
    {
        (false, 0, 0)
    } else {
        let plan = CrashPlan::Random {
            samples: spec.crash_samples,
            seed: spec.seed,
        };
        let report = check_null_recovery(spec.structure, trace, &run.schedule, &plan);
        (
            true,
            report.crash_points as u64,
            report.failures.len() as u64,
        )
    };

    CellResult {
        obs,
        stats: run.stats,
        rp_checked,
        rp_violations,
        recovery_checked,
        recovery_points,
        recovery_failures,
        trace_events: trace.events.len() as u64,
        trace_ops: trace.markers.len() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::MatrixSpec;

    fn run_cell(spec: &CellSpec) -> CellResult {
        replay_cell(spec, &build_trace(spec))
    }

    #[test]
    fn smoke_cells_run_healthy() {
        for spec in MatrixSpec::smoke().cells() {
            let r = run_cell(&spec);
            assert!(r.healthy(), "{}: {r:?}", spec.id());
            assert!(r.stats.cycles > 0);
            assert!(r.trace_events > 0);
            // Critical-path conservation: one chain per traced release,
            // segments summing to the measured latency, inside wall time.
            assert_eq!(r.obs.crit.audit.total_violations(), 0, "{}", spec.id());
            assert!(r.obs.crit.max_path <= r.stats.cycles);
            if spec.mechanism == Mechanism::Nop {
                assert!(!r.rp_checked && !r.recovery_checked);
            } else {
                assert!(r.rp_checked && r.recovery_checked);
                assert!(r.recovery_points > 0);
            }
        }
    }

    #[test]
    fn cell_results_are_deterministic() {
        let spec = &MatrixSpec::smoke().cells()[1];
        assert_eq!(run_cell(spec), run_cell(spec));
    }
}
