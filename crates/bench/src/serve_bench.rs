//! End-to-end service benchmark (`lrp-bench serve`).
//!
//! Boots an in-process [`lrp_serve::Server`] on a loopback port and
//! drives it with [`lrp_serve::run_load`] across five cells:
//!
//! * `uniform` — uniform keys, verification off: the raw service
//!   throughput / durable-ack latency cell;
//! * `zipfian` — hot-key skew: the contention cell;
//! * `zipfian-crash` — injects a mid-run shard crash with verification
//!   on, and reports the client-observed crash-recovery time;
//! * `zipfian-sb`, `zipfian-bb` — the `zipfian` cell under the strict
//!   and buffered barriers. With `zipfian` (LRP) they form a
//!   service-level Figure 5: per mechanism, the frames sent per logical
//!   request, the share of requests acked durable, and the durable-ack
//!   p50/p99.
//!
//! Every cell runs with the server's always-on request span log, so
//! its recording cost is inside every number.
//!
//! `lrp-bench serve` then runs a **keyspace sweep** ([`run_sweep`]):
//! it times `Shard::execute` on standalone shards (hash map, LRP,
//! detection on) holding 256 to 65,536 keys at several batch sizes. Its shards run their batches round-robin, so
//! host noise reaches every row alike. A shard commits each batch as a
//! delta, so the per-batch cost must not grow with the keyspace.
//!
//! [`report_json`] emits the `BENCH_serve.json` document, which
//! [`crate::gate`] compares for CI. Wall-clock service numbers are far
//! noisier than the simulator's host benches (thread scheduling,
//! loopback TCP), so the regression factor ([`SERVE_FACTOR`]) is
//! generous and the shed-rate check is an absolute-delta bound.

use crate::gate::{paired, Bound, GateCheck, GateVerdict, Rows};
use lrp_exec::Xorshift64;
use lrp_lfds::{KeyDist, Structure};
use lrp_obs::Json;
use lrp_serve::{
    run_load, Bind, KvOp, LoadSpec, LoadSummary, Server, ServerConfig, Shard, ShardConfig, ShardReq,
};
use lrp_sim::Mechanism;
use std::io;
use std::time::Instant;

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

/// Initial keys of the keyspace sweep's shards.
pub const SWEEP_KEYS: [usize; 3] = [256, 4096, 65536];
/// Batch sizes of the keyspace sweep.
pub const SWEEP_BATCHES: [usize; 2] = [1, 16];
/// Timed batches per sweep row (enough for a median resolved to a few
/// percent under host noise; the rows run interleaved).
pub const SWEEP_SAMPLES: usize = 41;

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

/// One keyspace-sweep row: a standalone shard's `execute` time.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Keys the shard was populated with.
    pub initial_keys: usize,
    /// Requests per batch.
    pub batch: usize,
    /// Median `Shard::execute` wall time, microseconds.
    pub execute_p50_us: f64,
    /// Timed batches.
    pub samples: usize,
}

/// Untimed batches each sweep shard runs first (allocator and page
/// directory warm-up).
const SWEEP_WARMUP: usize = 4;

/// Sweep requests draw their keys from `[1, SWEEP_HOT_KEYS]` on every
/// row. Hash-map chains are sorted, so a search for one of these keys
/// stops near the head of its chain however many larger keys the shard
/// holds: every row does the same work per request, and the rows differ
/// only in how much committed state sits beside it.
const SWEEP_HOT_KEYS: u64 = 512;

/// Runs the keyspace sweep: one shard per (`keys`, `batches`) row over
/// `[1, 2 × keys]`, requests on keys uniform in `[1, SWEEP_HOT_KEYS]`
/// with `spec.read_pct` reads and the rest split between puts and
/// deletes, every request tracked. `samples` rounds (after a warm-up)
/// execute one batch on every shard in turn. `lrp-bench serve` runs
/// [`SWEEP_KEYS`] × [`SWEEP_BATCHES`] × [`SWEEP_SAMPLES`].
pub fn run_sweep(
    spec: &ServeBenchSpec,
    keys: &[usize],
    batches: &[usize],
    samples: usize,
) -> Vec<SweepRow> {
    let mut rows: Vec<(usize, usize, Shard, Xorshift64, Vec<f64>)> = Vec::new();
    for &keys in keys {
        for &batch in batches {
            let mut cfg = ShardConfig::new(Structure::HashMap);
            cfg.initial_size = keys;
            cfg.key_range = 2 * keys as u64;
            cfg.seed = spec.seed;
            let rng = Xorshift64::new(spec.seed ^ (keys as u64) << 8 ^ batch as u64);
            rows.push((keys, batch, Shard::new(cfg), rng, Vec::new()));
        }
    }
    let mut seq = 0u64;
    for round in 0..SWEEP_WARMUP + samples {
        for (_, batch, shard, rng, times) in rows.iter_mut() {
            let ops: Vec<ShardReq> = (0..*batch)
                .map(|_| {
                    let key = rng.below(SWEEP_HOT_KEYS) + 1;
                    let op = match rng.below(100) {
                        r if r < u64::from(spec.read_pct) => KvOp::Get(key),
                        r if r % 2 == 0 => KvOp::Put(key),
                        _ => KvOp::Del(key),
                    };
                    seq += 1;
                    ShardReq::new(op, (1 << 48) | seq)
                })
                .collect();
            let t = Instant::now();
            std::hint::black_box(shard.execute(&ops));
            if round >= SWEEP_WARMUP {
                times.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
    }
    rows.into_iter()
        .map(|(initial_keys, batch, _, _, times)| SweepRow {
            initial_keys,
            batch,
            samples: times.len(),
            execute_p50_us: median(times),
        })
        .collect()
}

/// The median of `xs` (NaN when empty).
fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// One benchmark cell: a fresh server + one load run.
#[derive(Debug, Clone)]
pub struct ServeCell {
    /// Cell name (`uniform`, `zipfian`, `zipfian-crash`, `zipfian-sb`,
    /// `zipfian-bb`).
    pub name: &'static str,
    /// The shards' persistency mechanism.
    pub mechanism: Mechanism,
    /// The load summary the cell produced.
    pub summary: LoadSummary,
    /// Request spans the server's logs retained at shutdown.
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

    /// Frames the client sent per logical request: 1 plus the
    /// `Resolve` and retry frames uncertain or shed requests cost.
    pub fn frames_per_request(&self, spec: &ServeBenchSpec) -> f64 {
        self.summary.sent as f64 / spec.requests.max(1) as f64
    }

    /// Durable acks per logical request.
    pub fn durable_share(&self, spec: &ServeBenchSpec) -> f64 {
        self.summary.acked_durable as f64 / spec.requests.max(1) as f64
    }
}

/// The whole benchmark run.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Workload shape, echoed for reproducibility.
    pub spec: ServeBenchSpec,
    /// One entry per cell, in cell order.
    pub cells: Vec<ServeCell>,
    /// The keyspace sweep's rows (empty unless the caller ran
    /// [`run_sweep`]).
    pub sweep: Vec<SweepRow>,
}

impl ServeReport {
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
    mechanism: Mechanism,
    crash: bool,
) -> io::Result<ServeCell> {
    let mut shard = ShardConfig::new(Structure::HashMap);
    shard.mechanism = mechanism;
    shard.key_range = spec.key_range;
    shard.seed = spec.seed;
    let mut cfg = ServerConfig::new(shard);
    cfg.shards = spec.shards;
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
        mechanism,
        summary,
        spans: report.spans().len() as u64,
    })
}

/// Runs all five cells, each against a fresh server.
pub fn run_serve_bench(
    spec: &ServeBenchSpec,
    mut progress: impl FnMut(&ServeCell),
) -> io::Result<ServeReport> {
    let mut cells = Vec::new();
    for (name, mechanism, crash) in [
        ("uniform", Mechanism::Lrp, false),
        ("zipfian", Mechanism::Lrp, false),
        ("zipfian-crash", Mechanism::Lrp, true),
        ("zipfian-sb", Mechanism::Sb, false),
        ("zipfian-bb", Mechanism::Bb, false),
    ] {
        let c = run_cell(spec, name, mechanism, crash)?;
        progress(&c);
        cells.push(c);
    }
    Ok(ServeReport {
        spec: spec.clone(),
        cells,
        sweep: Vec::new(),
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
                ("mechanism", Json::Str(c.mechanism.name().to_string())),
                ("ops_per_sec", Json::F64(c.ops_per_sec())),
                ("sent", Json::U64(c.summary.sent)),
                ("completed", Json::U64(c.summary.completed)),
                ("acked_durable", Json::U64(c.summary.acked_durable)),
                ("lat_p50_us", Json::U64(c.summary.lat_p50_us)),
                ("lat_p99_us", Json::U64(c.summary.lat_p99_us)),
                ("dur_lat_p50_us", Json::U64(c.summary.dur_lat_p50_us)),
                ("dur_lat_p99_us", Json::U64(c.summary.dur_lat_p99_us)),
                (
                    "frames_per_request",
                    Json::F64(c.frames_per_request(&r.spec)),
                ),
                ("durable_share", Json::F64(c.durable_share(&r.spec))),
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
            "crash_recovery_ms",
            match r.crash_recovery_ms() {
                Some(ms) => Json::U64(ms),
                None => Json::Null,
            },
        ),
        ("cells", Json::Arr(cells)),
        (
            "shard_sweep",
            Json::Arr(
                r.sweep
                    .iter()
                    .map(|row| {
                        Json::obj([
                            ("initial_keys", Json::U64(row.initial_keys as u64)),
                            ("batch", Json::U64(row.batch as u64)),
                            ("execute_p50_us", Json::F64(row.execute_p50_us)),
                            ("samples", Json::U64(row.samples as u64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Renders the report as an aligned text table.
pub fn render_report(r: &ServeReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "serve bench ({} shards, {} conns, {} reqs/cell, window {})\n\
         {:<16} {:>5} {:>10} {:>10} {:>10} {:>12} {:>12} {:>12} {:>10} {:>10}\n",
        r.spec.shards,
        r.spec.conns,
        r.spec.requests,
        r.spec.window,
        "cell",
        "mech",
        "ops/s",
        "p50 us",
        "p99 us",
        "dur p50 us",
        "dur p99 us",
        "shed rate",
        "frames/req",
        "dur share",
    ));
    for c in &r.cells {
        out.push_str(&format!(
            "{:<16} {:>5} {:>10.0} {:>10} {:>10} {:>12} {:>12} {:>12.4} {:>10.3} {:>10.3}\n",
            c.name,
            c.mechanism.name(),
            c.ops_per_sec(),
            c.summary.lat_p50_us,
            c.summary.lat_p99_us,
            c.summary.dur_lat_p50_us,
            c.summary.dur_lat_p99_us,
            c.shed_rate(),
            c.frames_per_request(&r.spec),
            c.durable_share(&r.spec),
        ));
    }
    if let Some(ms) = r.crash_recovery_ms() {
        out.push_str(&format!("crash recovery: {ms} ms client-observed\n"));
    }
    if !r.sweep.is_empty() {
        out.push_str(&format!(
            "shard sweep (Shard::execute)\n{:>12} {:>6} {:>12} {:>8}\n",
            "keys", "batch", "p50 us", "samples"
        ));
        for row in &r.sweep {
            out.push_str(&format!(
                "{:>12} {:>6} {:>12.0} {:>8}\n",
                row.initial_keys, row.batch, row.execute_p50_us, row.samples
            ));
        }
    }
    out
}

struct CellMetrics {
    ops_per_sec: f64,
    dur_p99_us: f64,
    shed_rate: f64,
}

/// The sweep's `(initial_keys, batch, execute_p50_us)` rows (none when
/// the report has no sweep).
fn extract_sweep(doc: &Json) -> Result<Vec<(u64, u64, f64)>, String> {
    let Some(rows) = doc.get("shard_sweep").and_then(Json::as_arr) else {
        return Ok(Vec::new());
    };
    rows.iter()
        .map(|r| {
            let field = |k: &str| r.get(k).and_then(Json::as_f64);
            match (
                field("initial_keys"),
                field("batch"),
                field("execute_p50_us"),
            ) {
                (Some(k), Some(b), Some(p50)) => Ok((k as u64, b as u64, p50)),
                _ => Err("sweep row without initial_keys/batch/execute_p50_us".to_string()),
            }
        })
        .collect()
}

/// Per-cell gate rows keyed by cell name. A missing p99 or shed rate
/// reads as zero.
fn extract(doc: &Json) -> Result<Rows<CellMetrics>, String> {
    let cells = doc
        .get("cells")
        .and_then(Json::as_arr)
        .ok_or("missing cells array")?;
    let mut out = Vec::new();
    for c in cells {
        let name = c.field_str("name")?.to_string();
        let row = CellMetrics {
            ops_per_sec: c
                .get("ops_per_sec")
                .and_then(Json::as_f64)
                .ok_or("cell without ops_per_sec")?,
            dur_p99_us: c
                .get("dur_lat_p99_us")
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
            shed_rate: c.get("shed_rate").and_then(Json::as_f64).unwrap_or(0.0),
        };
        out.push((name, row));
    }
    Ok(out)
}

/// Service ops/sec may fall, and durable-ack p99 rise, at most by this
/// factor.
pub const SERVE_FACTOR: f64 = 3.0;

/// Shed rate may drift this much (absolute) before the gate fails:
/// admission control depends on host scheduling, so relative bounds are
/// meaningless near zero.
pub const SHED_RATE_SLACK: f64 = 0.25;

/// The keyspace sweep's flatness bound: at each batch size, the largest
/// keyspace's `execute` p50 may be at most this factor above the
/// smallest's (65,536 against 256 keys in the smoke shape).
pub const MAX_SWEEP_GROWTH: f64 = 2.0;

/// Compares two `BENCH_serve.json` reports ([`crate::gate::gate`]
/// checks their type and workload first). Per cell present in both
/// reports: ops/sec may not drop below `baseline / SERVE_FACTOR`,
/// durable-ack p99 may not grow beyond `baseline * SERVE_FACTOR`
/// (skipped when the baseline recorded none), and shed rate may not
/// rise by more than [`SHED_RATE_SLACK`] absolute. The current report's
/// keyspace sweep is bounded by [`MAX_SWEEP_GROWTH`]. Cells present in
/// only one report are ignored, so growing the matrix never fails the
/// gate by itself.
pub(crate) fn gate_serve(baseline: &Json, current: &Json) -> Result<GateVerdict, String> {
    let base = extract(baseline)?;
    let cur = extract(current)?;
    let ops = Bound::FactorFloor(SERVE_FACTOR);
    let p99 = Bound::FactorCeil(SERVE_FACTOR);
    let shed = Bound::Slack(SHED_RATE_SLACK);
    let mut v = GateVerdict::default();
    for (key, b, c) in paired(&base, &cur) {
        v.compared += 1;
        v.checks
            .push(ops.check(key, "ops_per_sec", b.ops_per_sec, c.ops_per_sec));
        if b.dur_p99_us > 0.0 {
            v.checks
                .push(p99.check(key, "dur_lat_p99_us", b.dur_p99_us, c.dur_p99_us));
        }
        v.checks
            .push(shed.check(key, "shed_rate", b.shed_rate, c.shed_rate));
    }
    v.checks.extend(sweep_checks(&extract_sweep(current)?));
    Ok(v)
}

/// Per batch size: the largest keyspace's p50 against the smallest's,
/// bounded by [`MAX_SWEEP_GROWTH`]. Both numbers come from the current
/// report (the baseline's sweep is not read), so a check's `baseline`
/// field holds the smallest keyspace's p50 and its metric says so:
/// `execute_p50_us(current,SMALL->LARGE)`.
fn sweep_checks(rows: &[(u64, u64, f64)]) -> Vec<GateCheck> {
    let mut batches: Vec<u64> = rows.iter().map(|r| r.1).collect();
    batches.sort_unstable();
    batches.dedup();
    let bound = Bound::FactorCeil(MAX_SWEEP_GROWTH);
    batches
        .into_iter()
        .filter_map(|b| {
            let at_b = || rows.iter().filter(move |r| r.1 == b);
            let small = at_b().min_by_key(|r| r.0)?;
            let large = at_b().max_by_key(|r| r.0)?;
            (large.0 > small.0).then(|| {
                bound.check(
                    &format!("sweep/batch{b}/{}v{}", large.0, small.0),
                    &format!("execute_p50_us(current,{}->{})", small.0, large.0),
                    small.2,
                    large.2,
                )
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::{gate, render_gate};

    fn synthetic_report(ops: f64, p99: f64, shed: f64) -> Json {
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
            ("cells", Json::Arr(vec![cell("uniform"), cell("zipfian")])),
        ])
    }

    #[test]
    fn serve_gate_passes_self_and_fails_regressions() {
        let base = synthetic_report(5000.0, 800.0, 0.01);
        let v = gate(&base, &base).unwrap();
        assert!(v.pass());
        assert_eq!(v.compared, 2);

        // Throughput collapsed 10x: fails the 3x gate.
        let slow = synthetic_report(500.0, 800.0, 0.01);
        let v = gate(&base, &slow).unwrap();
        assert!(!v.pass());
        assert!(v.failures().iter().all(|c| c.metric == "ops_per_sec"));

        // Shed rate jumped past the absolute slack.
        let shedding = synthetic_report(5000.0, 800.0, 0.4);
        assert!(!gate(&base, &shedding).unwrap().pass());
    }

    fn with_sweep(mut doc: Json, rows: &[(u64, u64, f64)]) -> Json {
        if let Json::Obj(fields) = &mut doc {
            let rows = rows
                .iter()
                .map(|&(k, b, p50)| {
                    Json::obj([
                        ("initial_keys", Json::U64(k)),
                        ("batch", Json::U64(b)),
                        ("execute_p50_us", Json::F64(p50)),
                    ])
                })
                .collect();
            fields.push(("shard_sweep".to_string(), Json::Arr(rows)));
        }
        doc
    }

    #[test]
    fn serve_gate_bounds_the_keyspace_sweep() {
        let base = synthetic_report(5000.0, 800.0, 0.01);
        let flat = with_sweep(
            base.clone(),
            &[
                (256, 1, 900.0),
                (4096, 1, 950.0),
                (65536, 1, 1700.0),
                (256, 16, 7000.0),
                (65536, 16, 7400.0),
            ],
        );
        let v = gate(&base, &flat).unwrap();
        assert!(v.pass(), "{}", render_gate(&v));
        assert_eq!(
            v.checks
                .iter()
                .filter(|c| c.key.starts_with("sweep/"))
                .count(),
            2,
            "one check per batch size"
        );
        // Per-batch cost growing with the keyspace fails, at the batch
        // size where it grows.
        let growing = with_sweep(base.clone(), &[(256, 1, 900.0), (65536, 1, 5600.0)]);
        let v = gate(&base, &growing).unwrap();
        let failed: Vec<&str> = v.failures().iter().map(|c| c.key.as_str()).collect();
        assert_eq!(failed, ["sweep/batch1/65536v256"]);
        // The row is labelled as growth within the current report: its
        // "baseline" column is the current smallest keyspace's p50, not
        // a number from the baseline report (whose sweep differs here).
        let base_swept = with_sweep(base.clone(), &[(256, 1, 10.0), (65536, 1, 11.0)]);
        let v = gate(&base_swept, &flat).unwrap();
        let rendered = render_gate(&v);
        let row = rendered
            .lines()
            .find(|l| l.starts_with("sweep/batch1/"))
            .unwrap_or_else(|| panic!("no batch-1 sweep row in\n{rendered}"));
        assert_eq!(
            row.split_whitespace().collect::<Vec<_>>(),
            [
                "sweep/batch1/65536v256",
                "execute_p50_us(current,256->65536)",
                "900.000000",
                "1700.000000",
                "+88.9%",
                "PASS"
            ]
        );
        // A report without a sweep (or with one keyspace) is not gated.
        let single = with_sweep(base.clone(), &[(256, 1, 900.0)]);
        assert!(gate(&base, &single).unwrap().pass());
        let mut junk = base.clone();
        if let Json::Obj(fields) = &mut junk {
            fields.push(("shard_sweep".to_string(), Json::Arr(vec![Json::U64(1)])));
        }
        assert!(gate(&base, &junk).is_err(), "malformed sweep row");
    }

    #[test]
    fn sweep_times_every_row_and_commits_every_batch() {
        let rows = run_sweep(&ServeBenchSpec::smoke(), &[16, 64], &[1, 4], 3);
        let shape: Vec<(usize, usize, usize)> = rows
            .iter()
            .map(|r| (r.initial_keys, r.batch, r.samples))
            .collect();
        assert_eq!(shape, [(16, 1, 3), (16, 4, 3), (64, 1, 3), (64, 4, 3)]);
        assert!(rows.iter().all(|r| r.execute_p50_us > 0.0));
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(Vec::new()).is_nan());
    }

    #[test]
    fn serve_gate_rejects_junk_documents() {
        let junk = Json::obj([("type", Json::Str("host-bench".to_string()))]);
        let good = synthetic_report(100.0, 10.0, 0.0);
        assert!(gate(&junk, &good).is_err());
    }

    #[test]
    fn extra_cells_in_current_are_ignored() {
        let base = synthetic_report(100.0, 10.0, 0.0);
        let mut cur = synthetic_report(100.0, 10.0, 0.0);
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
        let v = gate(&base, &cur).unwrap();
        assert!(v.pass());
        assert_eq!(v.compared, 2);
    }
}
