//! Host-throughput benchmark (`lrp-bench host`).
//!
//! Every subsystem in the workspace — campaign sweeps, the blame
//! profiler, the serve shard loop — ultimately spends its wall-clock
//! inside the discrete-event machine, so *simulated cycles per host
//! second* is the scaling metric that matters. This module replays the
//! cells of a campaign [`MatrixSpec`] with [`sample_ms`] timing each
//! cell, and reports per-cell (keyed by [`CellSpec::id`]):
//!
//! * `sim_cycles` / `ops` — deterministic workload size (simulated),
//! * `wall_ms_min` / `wall_ms_median` — host wall time per replay,
//! * `sim_cycles_per_sec` / `ops_per_sec` — host throughput (from the
//!   minimum wall time, the standard noise-resistant estimator),
//! * `allocs_per_op` — heap allocations per harness op, when the
//!   counting allocator from [`crate::alloc_count`] is installed.
//!
//! [`crate::gate`] compares two reports and fails any cell whose
//! ops/sec dropped by more than a factor of two.

use crate::alloc_count;
use crate::gate::{paired, Bound, GateVerdict, Rows};
use lrp_campaign::{build_trace, run_parallel, workload_slots, CellSpec, MatrixSpec};
use lrp_obs::Json;
use lrp_sim::{Sim, SimConfig};
use std::time::Instant;

/// Times `samples` runs of `f` (after one untimed warmup) and returns
/// the wall times in milliseconds, sorted ascending.
pub fn sample_ms<R>(samples: usize, mut f: impl FnMut() -> R) -> Vec<f64> {
    std::hint::black_box(f());
    let mut out: Vec<f64> = (0..samples.max(1))
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    out.sort_by(|a, b| a.total_cmp(b));
    out
}

/// Timed replays per cell (plus one untimed warmup) by default.
pub const SAMPLES: usize = 3;

/// One timed matrix cell.
#[derive(Debug, Clone)]
pub struct HostCell {
    /// The cell replayed.
    pub spec: CellSpec,
    /// Simulated cycles of one replay (deterministic).
    pub sim_cycles: u64,
    /// Harness ops of one replay (deterministic).
    pub ops: u64,
    /// Minimum wall time over the samples, milliseconds.
    pub wall_ms_min: f64,
    /// Median wall time, milliseconds.
    pub wall_ms_median: f64,
    /// Heap allocations per op of one replay (`None` unless the
    /// counting allocator is installed in this binary).
    pub allocs_per_op: Option<f64>,
}

impl HostCell {
    /// Simulated cycles advanced per host second (min-time estimator).
    pub fn sim_cycles_per_sec(&self) -> f64 {
        if self.wall_ms_min > 0.0 {
            self.sim_cycles as f64 / (self.wall_ms_min / 1e3)
        } else {
            0.0
        }
    }

    /// Harness ops replayed per host second (min-time estimator).
    pub fn ops_per_sec(&self) -> f64 {
        if self.wall_ms_min > 0.0 {
            self.ops as f64 / (self.wall_ms_min / 1e3)
        } else {
            0.0
        }
    }
}

/// The whole benchmark run.
#[derive(Debug, Clone)]
pub struct HostReport {
    /// The matrix replayed, echoed for reproducibility.
    pub matrix: MatrixSpec,
    /// Timed replays per cell.
    pub samples: usize,
    /// One entry per matrix cell, in matrix order.
    pub cells: Vec<HostCell>,
}

impl HostReport {
    /// Total wall time of the timed samples (min per cell), ms.
    pub fn total_wall_ms(&self) -> f64 {
        self.cells.iter().map(|c| c.wall_ms_min).sum()
    }

    /// Aggregate simulated cycles per host second over the matrix.
    pub fn total_sim_cycles_per_sec(&self) -> f64 {
        let cycles: u64 = self.cells.iter().map(|c| c.sim_cycles).sum();
        let ms = self.total_wall_ms();
        if ms > 0.0 {
            cycles as f64 / (ms / 1e3)
        } else {
            0.0
        }
    }
}

/// Times `samples` replays of every cell of `matrix`, with the untimed
/// phases fanned out over `workers` work-stealing workers (the campaign
/// scheduler's discipline, via [`run_parallel`]):
///
/// 1. **Traces** — one trace per distinct [`CellSpec::workload`], in
///    parallel; the cells that differ only in mechanism or NVM mode
///    share it. Trace generation is never timed: the benchmark measures
///    the simulator, not the workload generator.
/// 2. **Probes** — one untimed replay per cell for the deterministic
///    columns (`sim_cycles`, `ops`), in parallel.
/// 3. **Timing** — allocation counting and the timed samples run
///    strictly serially, in matrix order, after every worker has
///    retired: each cell is pinned solo on the machine, so wall-clock
///    numbers are directly comparable to a `--workers 1` run.
///
/// Every deterministic column is the same for any worker count; only
/// the end-to-end wall clock of the benchmark itself shrinks.
pub fn run_host(
    matrix: &MatrixSpec,
    samples: usize,
    workers: usize,
    mut progress: impl FnMut(&HostCell),
) -> HostReport {
    let specs = matrix.cells();
    let (firsts, slots) = workload_slots(&specs);
    let workers = workers.max(1);
    let traces = run_parallel(firsts, workers, build_trace, |_| ());
    let config = |c: &CellSpec| SimConfig::new(c.mechanism).nvm_mode(c.mode);
    let probes: Vec<(u64, u64)> = run_parallel(
        specs.iter().zip(&slots).collect(),
        workers,
        |(c, &slot)| {
            let r = Sim::new(config(c), &traces[slot]).run();
            (r.stats.cycles, r.stats.ops)
        },
        |_| (),
    );
    let mut cells = Vec::with_capacity(specs.len());
    for ((spec, &slot), (sim_cycles, ops)) in specs.into_iter().zip(&slots).zip(probes) {
        let trace = &traces[slot];
        let cfg = config(&spec);
        let allocs_per_op = alloc_count::installed().then(|| {
            let before = alloc_count::allocations();
            let r = Sim::new(cfg.clone(), trace).run();
            let allocs = alloc_count::allocations() - before;
            std::hint::black_box(&r);
            if r.stats.ops > 0 {
                allocs as f64 / r.stats.ops as f64
            } else {
                0.0
            }
        });
        let wall = sample_ms(samples, || Sim::new(cfg.clone(), trace).run());
        let cell = HostCell {
            spec,
            sim_cycles,
            ops,
            wall_ms_min: wall[0],
            wall_ms_median: wall[wall.len() / 2],
            allocs_per_op,
        };
        progress(&cell);
        cells.push(cell);
    }
    HostReport {
        matrix: matrix.clone(),
        samples,
        cells,
    }
}

/// Serializes a report as the `BENCH_host.json` document.
pub fn report_json(r: &HostReport) -> Json {
    let cells = r
        .cells
        .iter()
        .map(|c| {
            let mut fields = vec![
                ("id", Json::Str(c.spec.id())),
                ("sim_cycles", Json::U64(c.sim_cycles)),
                ("ops", Json::U64(c.ops)),
                ("wall_ms_min", Json::F64(c.wall_ms_min)),
                ("wall_ms_median", Json::F64(c.wall_ms_median)),
                ("sim_cycles_per_sec", Json::F64(c.sim_cycles_per_sec())),
                ("ops_per_sec", Json::F64(c.ops_per_sec())),
            ];
            if let Some(a) = c.allocs_per_op {
                fields.push(("allocs_per_op", Json::F64(a)));
            }
            Json::obj(fields)
        })
        .collect();
    Json::obj([
        ("type", Json::Str("host-bench".to_string())),
        ("matrix", r.matrix.to_json()),
        ("samples", Json::U64(r.samples as u64)),
        ("total_wall_ms", Json::F64(r.total_wall_ms())),
        (
            "total_sim_cycles_per_sec",
            Json::F64(r.total_sim_cycles_per_sec()),
        ),
        ("cells", Json::Arr(cells)),
    ])
}

/// Renders the report as an aligned text table.
pub fn render_report(r: &HostReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "host throughput, {} samples/cell: {}\n\
         {:<30} {:>12} {:>8} {:>10} {:>16} {:>12} {:>10}\n",
        r.samples,
        r.matrix.describe(),
        "cell",
        "sim cycles",
        "ops",
        "wall ms",
        "sim cycles/s",
        "ops/s",
        "allocs/op",
    ));
    for c in &r.cells {
        out.push_str(&format!(
            "{:<30} {:>12} {:>8} {:>10.3} {:>16.0} {:>12.0} {:>10}\n",
            c.spec.id(),
            c.sim_cycles,
            c.ops,
            c.wall_ms_min,
            c.sim_cycles_per_sec(),
            c.ops_per_sec(),
            c.allocs_per_op
                .map(|a| format!("{a:.1}"))
                .unwrap_or_else(|| "-".to_string()),
        ));
    }
    out.push_str(&format!(
        "total: {:.1} ms wall, {:.0} simulated cycles/sec aggregate\n",
        r.total_wall_ms(),
        r.total_sim_cycles_per_sec()
    ));
    out
}

/// Host ops/sec may fall at most by this factor: CI runners are noisy
/// and heterogeneous.
const OPS_PER_SEC: Bound = Bound::FactorFloor(2.0);
/// Allocations per op are shown, not gated.
const ALLOCS_PER_OP: Bound = Bound::Info(0.0);

/// One cell's comparable metrics pulled out of a `BENCH_host.json`
/// document.
struct CellRow {
    ops_per_sec: f64,
    allocs_per_op: Option<f64>,
}

/// Extracts the per-cell metric rows, keyed by cell id, from a
/// `BENCH_host.json` document.
fn extract(doc: &Json) -> Result<Rows<CellRow>, String> {
    let cells = doc
        .get("cells")
        .and_then(Json::as_arr)
        .ok_or("missing cells array")?;
    let mut out = Vec::new();
    for c in cells {
        let id = c.field_str("id")?;
        let ops = c
            .get("ops_per_sec")
            .and_then(Json::as_f64)
            .ok_or("cell without ops_per_sec")?;
        let row = CellRow {
            ops_per_sec: ops,
            allocs_per_op: c.get("allocs_per_op").and_then(Json::as_f64),
        };
        out.push((id.to_string(), row));
    }
    Ok(out)
}

/// Compares two `BENCH_host.json` reports ([`crate::gate::gate`] checks
/// their type and workload first): a cell fails when its ops/sec fell
/// below [`OPS_PER_SEC`]; its allocations per op are shown beside it.
pub(crate) fn gate_host(baseline: &Json, current: &Json) -> Result<GateVerdict, String> {
    let (base, cur) = (extract(baseline)?, extract(current)?);
    let mut v = GateVerdict::default();
    for (key, b, c) in paired(&base, &cur) {
        v.compared += 1;
        v.checks
            .push(OPS_PER_SEC.check(key, "ops_per_sec", b.ops_per_sec, c.ops_per_sec));
        if let (Some(ba), Some(ca)) = (b.allocs_per_op, c.allocs_per_op) {
            v.checks
                .push(ALLOCS_PER_OP.check(key, "allocs_per_op", ba, ca));
        }
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::{gate, render_gate};
    use lrp_lfds::Structure;
    use lrp_sim::{Mechanism, NvmMode};

    fn tiny_matrix() -> MatrixSpec {
        MatrixSpec {
            structures: vec![Structure::Queue],
            mechanisms: vec![Mechanism::Nop, Mechanism::Lrp],
            modes: vec![NvmMode::Cached],
            threads: vec![2],
            seeds: vec![1],
            initial_size: 16,
            ops_per_thread: 8,
            crash_samples: 0,
        }
    }

    /// One timed sample per cell of the tiny matrix, serially.
    fn tiny_run() -> HostReport {
        run_host(&tiny_matrix(), 1, 1, |_| {})
    }

    #[test]
    fn host_report_round_trips_through_json() {
        let report = tiny_run();
        assert_eq!(report.cells.len(), 2);
        for c in &report.cells {
            assert!(c.sim_cycles > 0 && c.ops > 0);
            assert!(c.sim_cycles_per_sec() > 0.0);
        }
        let doc = Json::parse(&report_json(&report).to_pretty()).unwrap();
        assert_eq!(doc.get("matrix"), Some(&tiny_matrix().to_json()));
        let rows = extract(&doc).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, "queue/nop/cached/t2/s1");
        assert!(rows.iter().all(|(_, r)| r.ops_per_sec > 0.0));
        let rendered = render_report(&report);
        assert!(rendered.contains("queue/lrp/cached/t2/s1"));
        let gated = render_gate(&gate(&doc, &doc).unwrap());
        assert!(
            gated
                .lines()
                .any(|l| l.starts_with("queue/nop/cached/t2/s1")
                    && l.contains("ops_per_sec")
                    && l.contains("+0.0%")),
            "{gated}"
        );
    }

    #[test]
    fn host_gate_passes_self_and_fails_2x_regression() {
        let report = tiny_run();
        let doc = report_json(&report);
        let v = gate(&doc, &doc).unwrap();
        assert!(v.pass(), "{}", render_gate(&v));
        assert_eq!(v.compared, 2);

        // A report with ops/sec quartered fails the 2x gate.
        let mut slow = report.clone();
        for c in &mut slow.cells {
            c.wall_ms_min *= 4.0;
        }
        let v = gate(&doc, &report_json(&slow)).unwrap();
        assert!(!v.pass());
        assert!(v.failures().iter().all(|c| c.metric == "ops_per_sec"));
    }

    #[test]
    fn host_gate_shows_allocs_per_op_without_gating_it() {
        let mut report = tiny_run();
        for c in &mut report.cells {
            c.allocs_per_op = Some(1.0);
        }
        let doc = report_json(&report);
        for c in &mut report.cells {
            c.allocs_per_op = Some(100.0);
        }
        let v = gate(&doc, &report_json(&report)).unwrap();
        assert!(v.pass(), "{}", render_gate(&v));
        let allocs: Vec<_> = v
            .checks
            .iter()
            .filter(|c| c.metric == "allocs_per_op")
            .collect();
        assert_eq!(allocs.len(), 2);
        assert!(render_gate(&v).contains("+9900.0%"));
    }

    #[test]
    fn parallel_workers_match_serial_deterministic_columns() {
        // The simulator is deterministic and only untimed phases fan
        // out, so every non-wall column is identical across worker
        // counts.
        let serial = tiny_run();
        let parallel = run_host(&tiny_matrix(), 1, 4, |_| {});
        assert_eq!(serial.cells.len(), parallel.cells.len());
        for (s, p) in serial.cells.iter().zip(&parallel.cells) {
            assert_eq!(s.spec.id(), p.spec.id());
            assert_eq!(s.sim_cycles, p.sim_cycles);
            assert_eq!(s.ops, p.ops);
        }
    }

    #[test]
    fn host_gate_rejects_junk_documents() {
        let junk = Json::obj([("type", Json::Str("campaign".to_string()))]);
        assert!(gate(&junk, &junk).is_err());
        let cell_without_ops = Json::obj([
            ("type", Json::Str("host-bench".to_string())),
            (
                "cells",
                Json::Arr(vec![Json::obj([(
                    "id",
                    Json::Str("queue/lrp/cached/t2/s1".to_string()),
                )])]),
            ),
        ]);
        assert!(gate(&cell_without_ops, &cell_without_ops).is_err());
    }

    #[test]
    fn simulated_outcomes_are_wall_clock_invariant() {
        // The deterministic columns (sim_cycles, ops) must not vary
        // across runs even though wall time does.
        let (a, b) = (tiny_run(), tiny_run());
        for (ca, cb) in a.cells.iter().zip(&b.cells) {
            assert_eq!(ca.sim_cycles, cb.sim_cycles);
            assert_eq!(ca.ops, cb.ops);
        }
    }
}
