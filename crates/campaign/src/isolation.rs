//! Fault isolation for campaign cells.
//!
//! Each cell runs on its own detached OS thread behind `catch_unwind`
//! and a watchdog timeout: a diverging or panicking replay degrades to a
//! recorded [`CellOutcome::Failed`]/[`CellOutcome::TimedOut`] instead of
//! killing the sweep. A timed-out cell's thread cannot be killed, so it
//! is left to finish in the background (the simulator's own `max_cycles`
//! safety valve bounds how long that can be) while the campaign moves on.

use crate::cell::{build_trace, replay_cell, CellResult};
use crate::matrix::CellSpec;
use crate::traces::SharedTraces;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// How one cell ended.
// The Ok payload dwarfs the error variants, but only one outcome per
// matrix cell ever lives at a time — not worth a Box indirection.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum CellOutcome {
    /// Ran to completion (the result itself may still record RP or
    /// recovery violations — those are findings, not faults).
    Ok(CellResult),
    /// The cell panicked; the payload is the panic message.
    Failed {
        /// Panic message.
        error: String,
    },
    /// The watchdog expired before the cell finished.
    TimedOut {
        /// Configured timeout that expired.
        timeout_secs: f64,
    },
}

impl CellOutcome {
    /// Stable outcome tag for reports.
    pub fn kind(&self) -> &'static str {
        match self {
            CellOutcome::Ok(_) => "ok",
            CellOutcome::Failed { .. } => "failed",
            CellOutcome::TimedOut { .. } => "timed_out",
        }
    }
}

/// One cell's spec, outcome, and (non-deterministic, report-only) wall
/// time. Aggregates must never read `wall_ms`.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRecord {
    /// The cell that ran.
    pub spec: CellSpec,
    /// How it ended.
    pub outcome: CellOutcome,
    /// Wall-clock milliseconds (diagnostic only; excluded from
    /// aggregates so parallel and serial campaigns agree byte-for-byte).
    pub wall_ms: f64,
}

impl CellRecord {
    /// What went wrong in this cell — a panic, a timeout, or RP or
    /// null-recovery findings — or `None` when it is healthy.
    pub fn problem(&self) -> Option<String> {
        match &self.outcome {
            CellOutcome::Ok(r) if r.healthy() => None,
            CellOutcome::Ok(r) => Some(format!(
                "{} RP violations, {} recovery failures",
                r.rp_violations, r.recovery_failures
            )),
            CellOutcome::Failed { error } => Some(format!("failed: {error}")),
            CellOutcome::TimedOut { timeout_secs } => {
                Some(format!("timed out after {timeout_secs}s"))
            }
        }
    }
}

/// Extracts a printable message from a panic payload.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Runs `spec` on a watchdogged detached thread, replaying its
/// workload's trace from `traces` (generated there if this is the
/// workload's first cell); `inject_panic` forces a deliberate panic
/// (fault-injection for testing the isolation path).
pub fn run_isolated(
    spec: &CellSpec,
    timeout: Duration,
    inject_panic: bool,
    traces: &Arc<SharedTraces>,
) -> CellRecord {
    let started = Instant::now();
    let (tx, rx) = mpsc::channel::<Result<CellResult, String>>();
    let cell = spec.clone();
    let traces = traces.clone();
    let builder = std::thread::Builder::new().name(format!("cell-{}", cell.index));
    let handle = builder.spawn(move || {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if inject_panic {
                panic!("injected fault in cell {}", cell.id());
            }
            replay_cell(&cell, &traces.get(&cell, build_trace))
        }))
        .map_err(panic_message);
        // The receiver may have timed out and gone away; that's fine.
        let _ = tx.send(outcome);
    });
    let outcome = match handle {
        Err(e) => CellOutcome::Failed {
            error: format!("spawn failed: {e}"),
        },
        Ok(handle) => match rx.recv_timeout(timeout) {
            Ok(Ok(result)) => {
                let _ = handle.join();
                CellOutcome::Ok(result)
            }
            Ok(Err(error)) => {
                let _ = handle.join();
                CellOutcome::Failed { error }
            }
            Err(_) => CellOutcome::TimedOut {
                timeout_secs: timeout.as_secs_f64(),
            },
        },
    };
    CellRecord {
        spec: spec.clone(),
        outcome,
        wall_ms: started.elapsed().as_secs_f64() * 1e3,
    }
}

/// Silences the default panic printer for cell threads while `f` runs,
/// so an injected or genuine cell fault doesn't spray a backtrace into
/// campaign output; panics on other threads keep the previous hook
/// behaviour.
pub fn with_quiet_cell_panics<R>(f: impl FnOnce() -> R) -> R {
    use std::sync::Arc;
    let prev: Arc<dyn Fn(&std::panic::PanicHookInfo<'_>) + Sync + Send> =
        Arc::from(std::panic::take_hook());
    let delegate = prev.clone();
    std::panic::set_hook(Box::new(move |info| {
        let is_cell = std::thread::current()
            .name()
            .is_some_and(|n| n.starts_with("cell-"));
        if !is_cell {
            delegate(info);
        }
    }));
    let result = f();
    std::panic::set_hook(Box::new(move |info| prev(info)));
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::MatrixSpec;

    fn smoke_cell() -> CellSpec {
        MatrixSpec::smoke().cells().remove(1)
    }

    fn run(spec: &CellSpec, timeout: Duration, inject_panic: bool) -> CellRecord {
        let traces = Arc::new(SharedTraces::new(std::slice::from_ref(spec)));
        run_isolated(spec, timeout, inject_panic, &traces)
    }

    #[test]
    fn healthy_cell_completes() {
        let rec = run(&smoke_cell(), Duration::from_secs(120), false);
        assert_eq!(rec.outcome.kind(), "ok");
        assert!(rec.wall_ms >= 0.0);
    }

    #[test]
    fn injected_panic_is_captured_not_propagated() {
        with_quiet_cell_panics(|| {
            let rec = run(&smoke_cell(), Duration::from_secs(120), true);
            match rec.outcome {
                CellOutcome::Failed { ref error } => {
                    assert!(error.contains("injected fault"), "{error}");
                }
                ref other => panic!("expected Failed, got {other:?}"),
            }
        });
    }

    #[test]
    fn watchdog_fires_on_a_stuck_cell() {
        // A zero timeout expires before any real cell can finish.
        let rec = run(&smoke_cell(), Duration::from_millis(0), false);
        assert_eq!(rec.outcome.kind(), "timed_out");
    }
}
