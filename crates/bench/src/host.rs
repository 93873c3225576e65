//! Host-throughput benchmark (`lrp-bench host`).
//!
//! Every subsystem in the workspace — campaign sweeps, the blame
//! profiler, the serve shard loop — ultimately spends its wall-clock
//! inside the discrete-event machine, so *simulated cycles per host
//! second* is the scaling metric that matters. This module replays a
//! (structure × mechanism) matrix with [`sample_ms`] timing each cell,
//! and reports per-cell:
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
use lrp_lfds::{Structure, WorkloadSpec};
use lrp_model::Trace;
use lrp_obs::Json;
use lrp_sim::{Mechanism, NvmMode, Sim, SimConfig};
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

/// The benchmark matrix and workload shape.
#[derive(Debug, Clone)]
pub struct HostSpec {
    /// Tier name recorded in the report (`quick`, `smoke`, `paper`).
    pub tier: &'static str,
    /// Structures axis.
    pub structures: Vec<Structure>,
    /// Mechanisms axis.
    pub mechanisms: Vec<Mechanism>,
    /// NVM mode (one per report; the axis that matters is host-side).
    pub mode: NvmMode,
    /// Worker threads in the simulated workload.
    pub threads: u16,
    /// Operations per worker.
    pub ops_per_thread: usize,
    /// Initial structure population.
    pub initial_size: usize,
    /// Workload seed.
    pub seed: u64,
    /// Timed replays per cell (plus one untimed warmup).
    pub samples: usize,
}

impl HostSpec {
    /// The default matrix: all five LFDs × the paper's four mechanisms
    /// at a workload size that keeps the full matrix under a minute.
    pub fn quick() -> HostSpec {
        HostSpec {
            tier: "quick",
            structures: Structure::ALL.to_vec(),
            mechanisms: Mechanism::ALL.to_vec(),
            mode: NvmMode::Cached,
            threads: 4,
            ops_per_thread: 64,
            initial_size: 128,
            seed: 1,
            samples: 5,
        }
    }

    /// The CI smoke matrix: the shape of the smoke campaign (hashmap
    /// under NOP + LRP), seconds end-to-end.
    pub fn smoke() -> HostSpec {
        HostSpec {
            tier: "smoke",
            structures: vec![Structure::HashMap],
            mechanisms: vec![Mechanism::Nop, Mechanism::Lrp],
            threads: 2,
            ops_per_thread: 32,
            initial_size: 32,
            samples: 3,
            ..HostSpec::quick()
        }
    }

    /// The paper tier: the evaluation's SynchroBench scale — 64K
    /// initial entries on 64 simulated cores (the machine's full mesh)
    /// — for the structures the paper runs at that size. The O(n)
    /// linked list and the two-ended queue are excluded: at 64K
    /// entries a single traversal exceeds the whole quick-tier
    /// workload, and the paper sizes them separately.
    pub fn paper() -> HostSpec {
        HostSpec {
            tier: "paper",
            structures: vec![Structure::HashMap, Structure::Bst, Structure::SkipList],
            mechanisms: Mechanism::ALL.to_vec(),
            threads: 64,
            ops_per_thread: 64,
            initial_size: 64 * 1024,
            samples: 3,
            ..HostSpec::quick()
        }
    }

    /// The CI slice of the paper tier: one structure × LRP + SB at the
    /// full 64K-entry / 64-core scale, few samples — proves the
    /// paper-scale path completes inside a CI wall budget.
    pub fn paper_smoke() -> HostSpec {
        HostSpec {
            tier: "paper-smoke",
            structures: vec![Structure::HashMap],
            mechanisms: vec![Mechanism::Lrp, Mechanism::Sb],
            samples: 2,
            ..HostSpec::paper()
        }
    }
}

/// One timed (structure, mechanism) cell.
#[derive(Debug, Clone)]
pub struct HostCell {
    /// The structure under test.
    pub structure: Structure,
    /// The persistency mechanism.
    pub mechanism: Mechanism,
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
    /// `structure/mechanism` report key.
    pub fn key(&self) -> String {
        format!("{}/{}", self.structure.name(), self.mechanism.name())
    }

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
    /// Workload shape, echoed for reproducibility.
    pub spec: HostSpec,
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

/// Runs the benchmark matrix serially. Trace generation is excluded
/// from the timed region: the benchmark measures the simulator, not
/// the workload generator.
pub fn run_host(spec: &HostSpec, progress: impl FnMut(&HostCell)) -> HostReport {
    run_host_jobs(spec, 1, progress)
}

/// Runs the benchmark matrix with the untimed phases fanned out over
/// `jobs` work-stealing workers (the campaign scheduler's discipline,
/// via [`lrp_campaign::run_parallel`]):
///
/// 1. **Traces** — one workload trace per structure, in parallel.
/// 2. **Probes** — one untimed replay per cell for the deterministic
///    columns (`sim_cycles`, `ops`), in parallel.
/// 3. **Timing** — allocation counting and the timed samples run
///    strictly serially, in matrix order, after every worker has
///    retired: each cell is pinned solo on the machine, so wall-clock
///    numbers are directly comparable to a `--jobs 1` run.
///
/// Every reported number is byte-identical to [`run_host`]'s — the
/// simulator is deterministic and the phases that parallelize are the
/// untimed ones — only the end-to-end wall clock of the benchmark
/// itself shrinks.
pub fn run_host_jobs(
    spec: &HostSpec,
    jobs: usize,
    mut progress: impl FnMut(&HostCell),
) -> HostReport {
    let jobs = jobs.max(1);
    let traces: Vec<Trace> = lrp_campaign::run_parallel(
        spec.structures.clone(),
        jobs,
        |s| {
            WorkloadSpec::new(s)
                .initial_size(spec.initial_size)
                .threads(spec.threads)
                .ops_per_thread(spec.ops_per_thread)
                .seed(spec.seed)
                .build_trace()
        },
        |_| (),
    );
    let pairs: Vec<(usize, Mechanism)> = (0..spec.structures.len())
        .flat_map(|si| spec.mechanisms.iter().map(move |&m| (si, m)))
        .collect();
    let probes: Vec<(u64, u64)> = lrp_campaign::run_parallel(
        pairs.clone(),
        jobs,
        |(si, mechanism)| {
            let cfg = SimConfig::new(mechanism).nvm_mode(spec.mode);
            let r = Sim::new(cfg, &traces[si]).run();
            (r.stats.cycles, r.stats.ops)
        },
        |_| (),
    );
    let mut cells = Vec::with_capacity(pairs.len());
    for (&(si, mechanism), &(sim_cycles, ops)) in pairs.iter().zip(&probes) {
        let trace = &traces[si];
        let cfg = SimConfig::new(mechanism).nvm_mode(spec.mode);
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
        let samples = sample_ms(spec.samples, || Sim::new(cfg.clone(), trace).run());
        let cell = HostCell {
            structure: spec.structures[si],
            mechanism,
            sim_cycles,
            ops,
            wall_ms_min: samples[0],
            wall_ms_median: samples[samples.len() / 2],
            allocs_per_op,
        };
        progress(&cell);
        cells.push(cell);
    }
    HostReport {
        spec: spec.clone(),
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
                ("structure", Json::Str(c.structure.name().to_string())),
                ("mechanism", Json::Str(c.mechanism.name().to_string())),
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
        ("tier", Json::Str(r.spec.tier.to_string())),
        ("mode", Json::Str(r.spec.mode.name().to_string())),
        ("threads", Json::U64(r.spec.threads as u64)),
        ("ops_per_thread", Json::U64(r.spec.ops_per_thread as u64)),
        ("initial_size", Json::U64(r.spec.initial_size as u64)),
        ("seed", Json::U64(r.spec.seed)),
        ("samples", Json::U64(r.spec.samples as u64)),
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
        "host throughput (mode={}, t{}, {} ops/thread, {} samples/cell)\n\
         {:<24} {:>12} {:>8} {:>10} {:>16} {:>12} {:>10}\n",
        r.spec.mode.name(),
        r.spec.threads,
        r.spec.ops_per_thread,
        r.spec.samples,
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
            "{:<24} {:>12} {:>8} {:>10.3} {:>16.0} {:>12.0} {:>10}\n",
            c.key(),
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

/// Extracts the per-cell metric rows, keyed `structure/mechanism`, from
/// a `BENCH_host.json` document.
fn extract(doc: &Json) -> Result<Rows<CellRow>, String> {
    let cells = doc
        .get("cells")
        .and_then(Json::as_arr)
        .ok_or("missing cells array")?;
    let mut out = Vec::new();
    for c in cells {
        let structure = c.field_str("structure")?;
        let mechanism = c.field_str("mechanism")?;
        let ops = c
            .get("ops_per_sec")
            .and_then(Json::as_f64)
            .ok_or("cell without ops_per_sec")?;
        let row = CellRow {
            ops_per_sec: ops,
            allocs_per_op: c.get("allocs_per_op").and_then(Json::as_f64),
        };
        out.push((format!("{structure}/{mechanism}"), row));
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

    fn tiny_spec() -> HostSpec {
        HostSpec {
            structures: vec![Structure::Queue],
            mechanisms: vec![Mechanism::Nop, Mechanism::Lrp],
            threads: 2,
            ops_per_thread: 8,
            initial_size: 16,
            samples: 1,
            ..HostSpec::quick()
        }
    }

    #[test]
    fn host_report_round_trips_through_json() {
        let report = run_host(&tiny_spec(), |_| {});
        assert_eq!(report.cells.len(), 2);
        for c in &report.cells {
            assert!(c.sim_cycles > 0 && c.ops > 0);
            assert!(c.sim_cycles_per_sec() > 0.0);
        }
        let doc = Json::parse(&report_json(&report).to_pretty()).unwrap();
        assert_eq!(doc.get("tier").and_then(Json::as_str), Some("quick"));
        let rows = extract(&doc).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, "queue/nop");
        assert!(rows.iter().all(|(_, r)| r.ops_per_sec > 0.0));
        let rendered = render_report(&report);
        assert!(rendered.contains("queue/lrp"));
        let gated = render_gate(&gate(&doc, &doc).unwrap());
        assert!(
            gated.lines().any(|l| l.starts_with("queue/nop")
                && l.contains("ops_per_sec")
                && l.contains("+0.0%")),
            "{gated}"
        );
    }

    #[test]
    fn host_gate_passes_self_and_fails_2x_regression() {
        let report = run_host(&tiny_spec(), |_| {});
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
        let mut report = run_host(&tiny_spec(), |_| {});
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
    fn parallel_jobs_match_serial_deterministic_columns() {
        // The simulator is deterministic and only untimed phases fan
        // out, so every non-wall column is identical across job counts.
        let spec = tiny_spec();
        let serial = run_host(&spec, |_| {});
        let parallel = run_host_jobs(&spec, 4, |_| {});
        assert_eq!(serial.cells.len(), parallel.cells.len());
        for (s, p) in serial.cells.iter().zip(&parallel.cells) {
            assert_eq!(s.key(), p.key());
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
                Json::Arr(vec![Json::obj([
                    ("structure", Json::Str("queue".to_string())),
                    ("mechanism", Json::Str("lrp".to_string())),
                ])]),
            ),
        ]);
        assert!(gate(&cell_without_ops, &cell_without_ops).is_err());
    }

    #[test]
    fn simulated_outcomes_are_wall_clock_invariant() {
        // The deterministic columns (sim_cycles, ops) must not vary
        // across runs even though wall time does.
        let a = run_host(&tiny_spec(), |_| {});
        let b = run_host(&tiny_spec(), |_| {});
        for (ca, cb) in a.cells.iter().zip(&b.cells) {
            assert_eq!(ca.sim_cycles, cb.sim_cycles);
            assert_eq!(ca.ops, cb.ops);
        }
    }
}
