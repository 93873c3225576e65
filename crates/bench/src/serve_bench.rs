//! End-to-end service benchmark (`lrp-bench serve` / `serve-gate`).
//!
//! Boots an in-process [`lrp_serve::Server`] on a loopback port and
//! drives it with [`lrp_serve::run_load`] across four cells:
//!
//! * `uniform` — uniform keys, tracing off, verification off: the raw
//!   service throughput / durable-ack latency cell;
//! * `zipfian` — hot-key skew, tracing off: the contention cell and the
//!   baseline for the tracing-overhead measurement;
//! * `zipfian-traced` — the same workload with span tracing on, so the
//!   report carries the observed tracing overhead as a first-class
//!   metric (`tracing_overhead_pct`);
//! * `zipfian-crash` — injects a mid-run shard crash with verification
//!   on, and reports the client-observed crash-recovery time.
//!
//! [`report_json`] emits the `BENCH_serve.json` document and
//! [`gate_serve`] compares two documents for CI, reusing the
//! rule-table engine of [`crate::gate`]. Wall-clock service
//! numbers are far noisier than the simulator's host benches (thread
//! scheduling, loopback TCP), so the default regression factor is
//! generous and the shed-rate check is an absolute-delta bound.

use crate::gate::{check_factor, paired, Bound, GateVerdict, Rows};
use lrp_lfds::{KeyDist, Structure};
use lrp_obs::Json;
use lrp_serve::{run_load, Bind, LoadSpec, LoadSummary, Server, ServerConfig, ShardConfig};
use std::io;

/// Workload shape shared by every cell.
#[derive(Debug, Clone)]
pub struct ServeBenchSpec {
    /// Server shards.
    pub shards: usize,
    /// Load-generator connections.
    pub conns: usize,
    /// Requests per cell.
    pub requests: u64,
    /// Pipeline depth per connection.
    pub window: usize,
    /// Keys drawn from `[1, key_range]`.
    pub key_range: u64,
    /// Percentage of `Get`s.
    pub read_pct: u8,
    /// Master seed.
    pub seed: u64,
}

impl ServeBenchSpec {
    /// The CI smoke shape: seconds end-to-end on a laptop-class host.
    pub fn smoke() -> ServeBenchSpec {
        ServeBenchSpec {
            shards: 2,
            conns: 4,
            requests: 1200,
            window: 16,
            key_range: 256,
            read_pct: 20,
            seed: 1,
        }
    }
}

/// One benchmark cell: a fresh server + one load run.
#[derive(Debug, Clone)]
pub struct ServeCell {
    /// Cell name (`uniform`, `zipfian`, `zipfian-traced`,
    /// `zipfian-crash`).
    pub name: &'static str,
    /// The load summary the cell produced.
    pub summary: LoadSummary,
    /// Spans retained at shutdown (traced cell only).
    pub spans: u64,
}

impl ServeCell {
    /// Completed replies per second.
    pub fn ops_per_sec(&self) -> f64 {
        self.summary.throughput_rps
    }

    /// Shed replies per sent request.
    pub fn shed_rate(&self) -> f64 {
        if self.summary.sent == 0 {
            0.0
        } else {
            self.summary.shed as f64 / self.summary.sent as f64
        }
    }
}

/// The whole benchmark run.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Workload shape, echoed for reproducibility.
    pub spec: ServeBenchSpec,
    /// One entry per cell, in cell order.
    pub cells: Vec<ServeCell>,
}

impl ServeReport {
    /// Tracing overhead in percent: throughput lost by `zipfian-traced`
    /// relative to `zipfian` (negative = traced ran faster, i.e. noise).
    pub fn tracing_overhead_pct(&self) -> Option<f64> {
        let base = self.cells.iter().find(|c| c.name == "zipfian")?;
        let traced = self.cells.iter().find(|c| c.name == "zipfian-traced")?;
        if base.ops_per_sec() <= 0.0 {
            return None;
        }
        Some((1.0 - traced.ops_per_sec() / base.ops_per_sec()) * 100.0)
    }

    /// Client-observed crash-recovery time from the crash cell, ms.
    pub fn crash_recovery_ms(&self) -> Option<u64> {
        self.cells
            .iter()
            .find(|c| c.name == "zipfian-crash")
            .and_then(|c| c.summary.crash_recovery_ms)
    }
}

fn cell_spec(spec: &ServeBenchSpec, addr: std::net::SocketAddr) -> LoadSpec {
    let mut ls = LoadSpec::new(Bind::Tcp(addr.to_string()));
    ls.conns = spec.conns;
    ls.requests = spec.requests;
    ls.window = spec.window;
    ls.key_range = spec.key_range;
    ls.read_pct = spec.read_pct;
    ls.seed = spec.seed;
    ls.verify = false;
    ls.shutdown = false;
    ls
}

fn run_cell(
    spec: &ServeBenchSpec,
    name: &'static str,
    spans: Option<usize>,
    crash: bool,
) -> io::Result<ServeCell> {
    let mut shard = ShardConfig::new(Structure::HashMap);
    shard.key_range = spec.key_range;
    shard.seed = spec.seed;
    let mut cfg = ServerConfig::new(shard);
    cfg.shards = spec.shards;
    cfg.spans = spans;
    let server = Server::start(cfg)?;
    let addr = server.local_addr().expect("tcp bind");

    let mut ls = cell_spec(spec, addr);
    if name != "uniform" {
        ls.key_dist = KeyDist::Zipfian { theta: 0.99 };
    }
    if crash {
        ls.crash_at = Some((spec.requests / 4).max(1));
        ls.crash_shard = (spec.shards as u32).saturating_sub(1);
        ls.verify = true;
    }
    let summary = run_load(&ls)?;
    server.shutdown();
    let report = server.join();
    Ok(ServeCell {
        name,
        summary,
        spans: report.spans().len() as u64,
    })
}

/// Runs all four cells, each against a fresh server.
pub fn run_serve_bench(
    spec: &ServeBenchSpec,
    mut progress: impl FnMut(&ServeCell),
) -> io::Result<ServeReport> {
    let mut cells = Vec::new();
    for (name, spans, crash) in [
        ("uniform", None, false),
        ("zipfian", None, false),
        ("zipfian-traced", Some(65536), false),
        ("zipfian-crash", None, true),
    ] {
        let cell = run_cell(spec, name, spans, crash)?;
        progress(&cell);
        cells.push(cell);
    }
    Ok(ServeReport {
        spec: spec.clone(),
        cells,
    })
}

/// Serializes a report as the `BENCH_serve.json` document.
pub fn report_json(r: &ServeReport) -> Json {
    let cells = r
        .cells
        .iter()
        .map(|c| {
            Json::obj([
                ("name", Json::Str(c.name.to_string())),
                ("ops_per_sec", Json::F64(c.ops_per_sec())),
                ("sent", Json::U64(c.summary.sent)),
                ("completed", Json::U64(c.summary.completed)),
                ("acked_durable", Json::U64(c.summary.acked_durable)),
                ("lat_p50_us", Json::U64(c.summary.lat_p50_us)),
                ("lat_p99_us", Json::U64(c.summary.lat_p99_us)),
                ("dur_lat_p50_us", Json::U64(c.summary.dur_lat_p50_us)),
                ("dur_lat_p99_us", Json::U64(c.summary.dur_lat_p99_us)),
                ("shed_rate", Json::F64(c.shed_rate())),
                ("backoffs", Json::U64(c.summary.backoffs)),
                ("spans", Json::U64(c.spans)),
                (
                    "crash_recovery_ms",
                    match c.summary.crash_recovery_ms {
                        Some(ms) => Json::U64(ms),
                        None => Json::Null,
                    },
                ),
                ("durability_ok", Json::Bool(c.summary.durability_ok())),
            ])
        })
        .collect();
    Json::obj([
        ("type", Json::Str("serve-bench".to_string())),
        ("shards", Json::U64(r.spec.shards as u64)),
        ("conns", Json::U64(r.spec.conns as u64)),
        ("requests", Json::U64(r.spec.requests)),
        ("window", Json::U64(r.spec.window as u64)),
        ("key_range", Json::U64(r.spec.key_range)),
        ("read_pct", Json::U64(r.spec.read_pct as u64)),
        ("seed", Json::U64(r.spec.seed)),
        (
            "tracing_overhead_pct",
            match r.tracing_overhead_pct() {
                Some(p) => Json::F64(p),
                None => Json::Null,
            },
        ),
        (
            "crash_recovery_ms",
            match r.crash_recovery_ms() {
                Some(ms) => Json::U64(ms),
                None => Json::Null,
            },
        ),
        ("cells", Json::Arr(cells)),
    ])
}

/// Renders the report as an aligned text table.
pub fn render_report(r: &ServeReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "serve bench ({} shards, {} conns, {} reqs/cell, window {})\n\
         {:<16} {:>10} {:>10} {:>10} {:>12} {:>12} {:>10}\n",
        r.spec.shards,
        r.spec.conns,
        r.spec.requests,
        r.spec.window,
        "cell",
        "ops/s",
        "p50 us",
        "p99 us",
        "dur p99 us",
        "shed rate",
        "durable",
    ));
    for c in &r.cells {
        out.push_str(&format!(
            "{:<16} {:>10.0} {:>10} {:>10} {:>12} {:>12.4} {:>10}\n",
            c.name,
            c.ops_per_sec(),
            c.summary.lat_p50_us,
            c.summary.lat_p99_us,
            c.summary.dur_lat_p99_us,
            c.shed_rate(),
            c.summary.acked_durable,
        ));
    }
    if let Some(p) = r.tracing_overhead_pct() {
        out.push_str(&format!("tracing overhead: {p:.1}% throughput\n"));
    }
    if let Some(ms) = r.crash_recovery_ms() {
        out.push_str(&format!("crash recovery: {ms} ms client-observed\n"));
    }
    out
}

fn serve_err(msg: impl Into<String>) -> String {
    format!("bad serve-bench report: {}", msg.into())
}

struct CellMetrics {
    ops_per_sec: f64,
    dur_p99_us: f64,
    shed_rate: f64,
}

/// Per-cell gate rows keyed by cell name, plus the report's tracing
/// overhead. A missing p99 or shed rate reads as zero.
fn extract(doc: &Json) -> Result<(Rows<CellMetrics>, Option<f64>), String> {
    if doc.get("type").and_then(Json::as_str) != Some("serve-bench") {
        return Err(serve_err("missing type: \"serve-bench\""));
    }
    let cells = doc
        .get("cells")
        .and_then(Json::as_arr)
        .ok_or_else(|| serve_err("missing cells array"))?;
    let mut out = Vec::new();
    for c in cells {
        let name = c.field_str("name").map_err(serve_err)?.to_string();
        let row = CellMetrics {
            ops_per_sec: c
                .get("ops_per_sec")
                .and_then(Json::as_f64)
                .ok_or_else(|| serve_err("cell without ops_per_sec"))?,
            dur_p99_us: c
                .get("dur_lat_p99_us")
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
            shed_rate: c.get("shed_rate").and_then(Json::as_f64).unwrap_or(0.0),
        };
        out.push((name, row));
    }
    let overhead = doc.get("tracing_overhead_pct").and_then(Json::as_f64);
    Ok((out, overhead))
}

/// Shed rate may drift this much (absolute) before the gate fails:
/// admission control depends on host scheduling, so relative bounds are
/// meaningless near zero.
pub const SHED_RATE_SLACK: f64 = 0.25;

/// Tracing overhead above this (percent) fails the gate regardless of
/// the regression factor — the observability layer must stay cheap.
pub const MAX_TRACING_OVERHEAD_PCT: f64 = 50.0;

/// Gates `current` against `baseline`. Per cell present in both
/// reports: ops/sec may not drop below `baseline / max_regression`,
/// durable-ack p99 may not grow beyond `baseline * max_regression`
/// (skipped when the baseline recorded none), and shed rate may not
/// rise by more than [`SHED_RATE_SLACK`] absolute. The current report's
/// tracing overhead is bounded by [`MAX_TRACING_OVERHEAD_PCT`]. Cells
/// present in only one report are ignored, so growing the matrix never
/// fails the gate by itself.
pub fn gate_serve(
    baseline: &Json,
    current: &Json,
    max_regression: f64,
) -> Result<GateVerdict, String> {
    check_factor(max_regression)?;
    let (base, _) = extract(baseline)?;
    let (cur, cur_overhead) = extract(current)?;
    let (ops, p99) = (
        Bound::FactorFloor(max_regression),
        Bound::FactorCeil(max_regression),
    );
    let mut v = GateVerdict::default();
    for (key, b, c) in paired(&base, &cur) {
        v.compared += 1;
        v.checks
            .push(ops.check(key, "ops_per_sec", b.ops_per_sec, c.ops_per_sec));
        if b.dur_p99_us > 0.0 {
            v.checks
                .push(p99.check(key, "dur_lat_p99_us", b.dur_p99_us, c.dur_p99_us));
        }
        let shed = Bound::Slack(SHED_RATE_SLACK);
        v.checks
            .push(shed.check(key, "shed_rate", b.shed_rate, c.shed_rate));
    }
    if let Some(p) = cur_overhead {
        let bound = Bound::Slack(MAX_TRACING_OVERHEAD_PCT);
        v.checks
            .push(bound.check("tracing", "overhead_pct", 0.0, p));
    }
    Ok(v)
}

/// Serializes a gate verdict as the `serve-gate` document.
pub fn gate_json(v: &GateVerdict, max_regression: f64) -> Json {
    let header = vec![
        ("compared_cells", Json::U64(v.compared as u64)),
        ("max_regression", Json::F64(max_regression)),
    ];
    crate::gate::verdict_json("serve-gate", header, v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic_report(ops: f64, p99: f64, shed: f64, overhead: f64) -> Json {
        let cell = |name: &str| {
            Json::obj([
                ("name", Json::Str(name.to_string())),
                ("ops_per_sec", Json::F64(ops)),
                ("dur_lat_p99_us", Json::F64(p99)),
                ("shed_rate", Json::F64(shed)),
            ])
        };
        Json::obj([
            ("type", Json::Str("serve-bench".to_string())),
            ("tracing_overhead_pct", Json::F64(overhead)),
            ("cells", Json::Arr(vec![cell("uniform"), cell("zipfian")])),
        ])
    }

    #[test]
    fn serve_gate_passes_self_and_fails_regressions() {
        let base = synthetic_report(5000.0, 800.0, 0.01, 2.0);
        let v = gate_serve(&base, &base, 3.0).unwrap();
        assert!(v.pass());
        assert_eq!(v.compared, 2);

        // Throughput collapsed 10x: fails the 3x gate.
        let slow = synthetic_report(500.0, 800.0, 0.01, 2.0);
        let v = gate_serve(&base, &slow, 3.0).unwrap();
        assert!(!v.pass());
        assert!(v.failures().iter().all(|c| c.metric == "ops_per_sec"));

        // Shed rate jumped past the absolute slack.
        let shedding = synthetic_report(5000.0, 800.0, 0.4, 2.0);
        assert!(!gate_serve(&base, &shedding, 3.0).unwrap().pass());

        // Tracing overhead blew the absolute bound.
        let heavy = synthetic_report(5000.0, 800.0, 0.01, 80.0);
        assert!(!gate_serve(&base, &heavy, 3.0).unwrap().pass());
    }

    #[test]
    fn serve_gate_rejects_junk_and_bad_factors() {
        let junk = Json::obj([("type", Json::Str("host-bench".to_string()))]);
        let good = synthetic_report(100.0, 10.0, 0.0, 0.0);
        assert!(gate_serve(&junk, &good, 3.0).is_err());
        assert!(gate_serve(&good, &good, 0.5).is_err());
    }

    #[test]
    fn extra_cells_in_current_are_ignored() {
        let base = synthetic_report(100.0, 10.0, 0.0, 0.0);
        let mut cur = synthetic_report(100.0, 10.0, 0.0, 0.0);
        // Rename one current cell so it no longer matches the baseline.
        if let Json::Obj(fields) = &mut cur {
            for (k, v) in fields.iter_mut() {
                if k == "cells" {
                    if let Json::Arr(cells) = v {
                        cells.push(Json::obj([
                            ("name", Json::Str("new-cell".to_string())),
                            ("ops_per_sec", Json::F64(1.0)),
                        ]));
                    }
                }
            }
        }
        let v = gate_serve(&base, &cur, 3.0).unwrap();
        assert!(v.pass());
        assert_eq!(v.compared, 2);
    }
}
