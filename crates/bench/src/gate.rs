//! The one regression gate (`lrp-bench gate`) over every report the
//! workspace writes: campaign summaries (`BENCH_campaign.json`), host
//! throughput (`BENCH_host.json`) and the KV service
//! (`BENCH_serve.json`).
//!
//! [`gate`] reads the baseline's `type`, refuses a current report of
//! another type or of another workload, extracts that report's typed,
//! keyed rows, walks the [`paired`] baseline and current rows and
//! applies each metric's [`Bound`]. The bounds are constants of the
//! report type. A verdict that compared no key fails: it shows nothing.

use crate::{host, serve_bench};
use lrp_obs::Json;
use std::collections::BTreeMap;

/// One metric comparison at one key.
#[derive(Debug, Clone)]
pub struct GateCheck {
    /// The row key (a matrix cell).
    pub key: String,
    /// Metric name.
    pub metric: String,
    /// Baseline value.
    pub baseline: f64,
    /// Current value.
    pub current: f64,
    /// The bound applied.
    pub bound: Bound,
    /// Whether the current value is within the bound.
    pub pass: bool,
}

/// A gate's machine-readable outcome.
#[derive(Debug, Clone, Default)]
pub struct GateVerdict {
    /// The `type` of the two reports compared.
    pub report: String,
    /// Keys present in both reports.
    pub compared: usize,
    /// Every metric comparison performed.
    pub checks: Vec<GateCheck>,
}

impl GateVerdict {
    /// True when at least one key was compared and every check passed.
    pub fn pass(&self) -> bool {
        self.compared > 0 && self.checks.iter().all(|c| c.pass)
    }

    /// The failing checks.
    pub fn failures(&self) -> Vec<&GateCheck> {
        self.checks.iter().filter(|c| !c.pass).collect()
    }
}

/// How far a current value may move from its baseline.
#[derive(Debug, Clone, Copy)]
pub enum Bound {
    /// May fall at most this fraction below the baseline.
    FracFloor(f64),
    /// May fall at most this factor below the baseline.
    FactorFloor(f64),
    /// May rise at most this factor above the baseline.
    FactorCeil(f64),
    /// May rise at most this much (absolute) above the baseline.
    Slack(f64),
    /// Recorded with this tolerance but never fails.
    Info(f64),
}

impl Bound {
    /// The tolerance the bound reports.
    pub fn tol(self) -> f64 {
        match self {
            Bound::FracFloor(t)
            | Bound::FactorFloor(t)
            | Bound::FactorCeil(t)
            | Bound::Slack(t)
            | Bound::Info(t) => t,
        }
    }

    /// The check of `current` against `baseline` at `key`/`metric`.
    pub fn check(self, key: &str, metric: &str, baseline: f64, current: f64) -> GateCheck {
        let pass = match self {
            Bound::FracFloor(f) => current >= baseline * (1.0 - f),
            Bound::FactorFloor(k) => current * k >= baseline,
            Bound::FactorCeil(k) => current <= baseline * k,
            Bound::Slack(s) => current <= baseline + s,
            Bound::Info(_) => true,
        };
        GateCheck {
            key: key.to_string(),
            metric: metric.to_string(),
            baseline,
            current,
            bound: self,
            pass,
        }
    }
}

/// A report's gate rows: `(key, metrics)` in report order.
pub type Rows<R> = Vec<(String, R)>;

/// Each baseline row whose key also has a current row, with that
/// current row. Keys present in only one report are skipped, so growing
/// a matrix never fails a gate by itself.
pub fn paired<'a, R>(
    baseline: &'a [(String, R)],
    current: &'a [(String, R)],
) -> impl Iterator<Item = (&'a str, &'a R, &'a R)> {
    baseline.iter().filter_map(move |(key, b)| {
        let (_, c) = current.iter().find(|(k, _)| k == key)?;
        Some((key.as_str(), b, c))
    })
}

/// The fields of a report's `matrix` object (campaign and host reports)
/// that make two reports one workload. The other axes are in the keys:
/// a report over other structures, mechanisms, modes or thread counts
/// shares no key with the baseline and compares nothing.
const MATRIX_WORKLOAD: &[&str] = &[
    "matrix.initial_size",
    "matrix.ops_per_thread",
    "matrix.seeds",
];

/// Judges `current` against `baseline`, two reports of one type and
/// one workload. Errs (one line) on a report type the gate does not
/// know, on reports of different types, on reports whose workload
/// fields differ, and on a malformed report.
pub fn gate(baseline: &Json, current: &Json) -> Result<GateVerdict, String> {
    type Judge = fn(&Json, &Json) -> Result<GateVerdict, String>;
    let doc_type = |doc: &Json| doc.get("type").and_then(Json::as_str).map(str::to_string);
    let report = doc_type(baseline).unwrap_or_default();
    // The fields that make two reports one workload; dotted paths.
    let (workload, judge): (&[&str], Judge) = match report.as_str() {
        "campaign" => (MATRIX_WORKLOAD, gate_campaign),
        "host-bench" => (MATRIX_WORKLOAD, host::gate_host),
        "serve-bench" => (
            &[
                "shards",
                "conns",
                "requests",
                "window",
                "key_range",
                "read_pct",
                "seed",
            ],
            serve_bench::gate_serve,
        ),
        other => return Err(format!("cannot gate a {other:?} report: not a known type")),
    };
    let cur_type = doc_type(current).unwrap_or_default();
    if cur_type != report {
        return Err(format!(
            "cannot gate a {cur_type:?} report against a {report:?} baseline"
        ));
    }
    let field = |doc: &Json, path: &str| {
        path.split('.')
            .try_fold(doc, |j, k| j.get(k))
            .map_or("missing".to_string(), Json::to_compact)
    };
    for path in workload {
        let (b, c) = (field(baseline, path), field(current, path));
        if b != c {
            return Err(format!(
                "cannot gate {report} reports of different workloads: {path} is {b} in the baseline, {c} in the current"
            ));
        }
    }
    let mut v = judge(baseline, current).map_err(|e| format!("bad {report} report: {e}"))?;
    v.report = report;
    Ok(v)
}

/// Campaign ops/cycle may fall at most 20% below the baseline.
const OPS_PER_CYCLE: Bound = Bound::FracFloor(0.20);
/// Campaign stall-cycle shares are shown, not gated.
const STALL_SHARE: Bound = Bound::Info(0.05);
/// Campaign latency percentiles are shown, not gated.
const LATENCY: Bound = Bound::Info(0.50);

/// The metrics the campaign gate extracts per matrix key.
#[derive(Debug, Clone, Default)]
struct KeyMetrics {
    ops_per_cycle: Option<f64>,
    /// `(cause name, stall cycles / total cycles)`.
    stall_shares: Vec<(String, f64)>,
    /// `(hist/percentile label, cycles)`.
    latencies: Vec<(String, f64)>,
}

/// Extracts gate metrics from a `BENCH_campaign.json` document, keyed
/// by `structure/mode/tN/mechanism` in key order (skipping keys with no
/// ok cells).
fn extract(doc: &Json) -> Result<Rows<KeyMetrics>, String> {
    let groups = doc
        .get("groups")
        .and_then(Json::as_arr)
        .ok_or("missing groups array")?;
    let mut keys = BTreeMap::new();
    for g in groups {
        let structure = g.field_str("structure")?;
        let mode = g.field_str("mode")?;
        let threads = g.field_u64("threads")?;
        let mechs = g
            .get("mechanisms")
            .and_then(Json::as_arr)
            .ok_or("group without mechanisms")?;
        for m in mechs {
            if m.get("ok").and_then(Json::as_u64).unwrap_or(0) == 0 {
                continue;
            }
            let mech = m.field_str("mechanism")?;
            let key = format!("{structure}/{mode}/t{threads}/{mech}");
            let mut metrics = KeyMetrics::default();
            if let Some(stats) = m.get("merged_stats") {
                let cycles = stats.get("cycles").and_then(Json::as_f64).unwrap_or(0.0);
                let ops = stats.get("ops").and_then(Json::as_f64).unwrap_or(0.0);
                if cycles > 0.0 {
                    metrics.ops_per_cycle = Some(ops / cycles);
                    if let Some(Json::Obj(stalls)) = stats.get("stalls") {
                        for (cause, v) in stalls {
                            let share = v.as_f64().unwrap_or(0.0) / cycles;
                            metrics.stall_shares.push((cause.clone(), share));
                        }
                    }
                }
            }
            if let Some(hists) = m.get("hists") {
                for name in ["flush_to_ack", "release_to_persist"] {
                    let Some(h) = hists.get(name) else { continue };
                    let h = lrp_obs::metrics::parse_hist(h)?;
                    if h.is_empty() {
                        continue;
                    }
                    for (label, p) in [("p50", 0.5), ("p99", 0.99)] {
                        metrics
                            .latencies
                            .push((format!("{name}/{label}"), h.percentile(p) as f64));
                    }
                }
            }
            keys.insert(key, metrics);
        }
    }
    Ok(keys.into_iter().collect())
}

/// Compares two campaign summaries: ops/cycle per key against
/// [`OPS_PER_CYCLE`], with every stall share (zero when missing from
/// the current summary) and latency percentile beside it.
fn gate_campaign(baseline: &Json, current: &Json) -> Result<GateVerdict, String> {
    let (base, cur) = (extract(baseline)?, extract(current)?);
    let mut v = GateVerdict::default();
    for (key, b, c) in paired(&base, &cur) {
        v.compared += 1;
        if let (Some(b_opc), Some(c_opc)) = (b.ops_per_cycle, c.ops_per_cycle) {
            v.checks
                .push(OPS_PER_CYCLE.check(key, "ops_per_cycle", b_opc, c_opc));
        }
        for (cause, b_share) in &b.stall_shares {
            let c_share = c
                .stall_shares
                .iter()
                .find(|(name, _)| name == cause)
                .map_or(0.0, |&(_, s)| s);
            let metric = format!("stall_share/{cause}");
            v.checks
                .push(STALL_SHARE.check(key, &metric, *b_share, c_share));
        }
        for (label, b_lat) in &b.latencies {
            let Some(&(_, c_lat)) = c.latencies.iter().find(|(l, _)| l == label) else {
                continue;
            };
            v.checks.push(LATENCY.check(key, label, *b_lat, c_lat));
        }
    }
    Ok(v)
}

/// The verdict document: `type` `gate`, the `report` type judged,
/// `pass`, `compared_keys`, then every check.
pub fn verdict_json(v: &GateVerdict) -> Json {
    let checks = v
        .checks
        .iter()
        .map(|c| {
            Json::obj([
                ("key", Json::Str(c.key.clone())),
                ("metric", Json::Str(c.metric.clone())),
                ("baseline", Json::F64(c.baseline)),
                ("current", Json::F64(c.current)),
                ("tolerance", Json::F64(c.bound.tol())),
                ("pass", Json::Bool(c.pass)),
            ])
        })
        .collect();
    Json::obj([
        ("type", Json::Str("gate".to_string())),
        ("report", Json::Str(v.report.clone())),
        ("pass", Json::Bool(v.pass())),
        ("compared_keys", Json::U64(v.compared as u64)),
        ("checks", Json::Arr(checks)),
    ])
}

/// Renders a verdict for terminals: one row per check (key, metric,
/// baseline, current, change, outcome), then the verdict line.
pub fn render_gate(v: &GateVerdict) -> String {
    let mut out = format!(
        "{:<28} {:<34} {:>16} {:>16} {:>9}  check\n",
        "key", "metric", "baseline", "current", "change"
    );
    for c in &v.checks {
        let change = if c.baseline != 0.0 {
            format!("{:+.1}%", (c.current / c.baseline - 1.0) * 100.0)
        } else {
            "-".to_string()
        };
        let outcome = match (c.bound, c.pass) {
            (Bound::Info(_), _) => "info",
            (_, true) => "PASS",
            (_, false) => "FAIL",
        };
        out.push_str(&format!(
            "{:<28} {:<34} {:>16.6} {:>16.6} {:>9}  {outcome}\n",
            c.key, c.metric, c.baseline, c.current, change
        ));
    }
    out.push_str(&format!(
        "gate: {} ({} report, {} keys compared, {} checks, {} failed{})\n",
        if v.pass() { "PASS" } else { "FAIL" },
        v.report,
        v.compared,
        v.checks.len(),
        v.failures().len(),
        if v.compared == 0 {
            "; no key is in both reports"
        } else {
            ""
        }
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrp_campaign::{run_campaign, summarize, summary_json, CampaignConfig, MatrixSpec};

    #[test]
    fn bounds_compare_as_documented() {
        // (bound, baseline, a passing current, a failing current)
        for (bound, base, pass, fail) in [
            (Bound::FracFloor(0.2), 1.0, 0.8, 0.79),
            (Bound::FactorFloor(2.0), 10.0, 5.0, 4.9),
            (Bound::FactorCeil(3.0), 10.0, 30.0, 30.1),
            (Bound::Slack(0.25), 0.0, 0.25, 0.26),
        ] {
            assert!(bound.check("k", "m", base, pass).pass, "{bound:?}");
            assert!(!bound.check("k", "m", base, fail).pass, "{bound:?}");
        }
        assert!(Bound::Info(0.0).check("k", "m", 0.0, 1e9).pass);
    }

    #[test]
    fn paired_skips_one_sided_keys_in_baseline_order() {
        let row = |k: &str, x: u32| (k.to_string(), x);
        let base = [row("a", 1), row("gone", 2), row("b", 3)];
        let cur = [row("new", 9), row("b", 4), row("a", 5)];
        let got: Vec<_> = paired(&base, &cur).collect();
        assert_eq!(got, vec![("a", &1, &5), ("b", &3, &4)]);
    }

    #[test]
    fn render_gate_lists_every_check_then_the_verdict() {
        let v = GateVerdict {
            report: "host-bench".to_string(),
            compared: 1,
            checks: vec![
                Bound::FactorFloor(2.0).check("a", "ops", 10.0, 4.0),
                Bound::Info(0.1).check("a", "lat", 0.0, 9.0),
                Bound::Slack(0.25).check("a", "shed", 0.5, 0.5),
            ],
        };
        let rendered = render_gate(&v);
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines.len(), 5, "{rendered}");
        for (line, want) in lines[1..4].iter().zip([
            ["a", "ops", "10.000000", "4.000000", "-60.0%", "FAIL"],
            ["a", "lat", "0.000000", "9.000000", "-", "info"],
            ["a", "shed", "0.500000", "0.500000", "+0.0%", "PASS"],
        ]) {
            assert_eq!(line.split_whitespace().collect::<Vec<_>>(), want);
        }
        assert_eq!(
            lines[4],
            "gate: FAIL (host-bench report, 1 keys compared, 3 checks, 1 failed)"
        );
    }

    fn smoke_summary() -> Json {
        let matrix = MatrixSpec::smoke();
        let records = run_campaign(
            matrix.cells(),
            &CampaignConfig {
                workers: 1,
                ..CampaignConfig::default()
            },
            |_| {},
        );
        summary_json(&matrix, &summarize(&matrix, &records))
    }

    /// Applies `f` to every value stored under `key`, at any depth.
    fn edit(doc: &mut Json, key: &str, f: &dyn Fn(&mut Json)) {
        match doc {
            Json::Obj(pairs) => {
                for (k, v) in pairs.iter_mut() {
                    if k == key {
                        f(v);
                    } else {
                        edit(v, key, f);
                    }
                }
            }
            Json::Arr(items) => items.iter_mut().for_each(|item| edit(item, key, f)),
            _ => {}
        }
    }

    #[test]
    fn gate_passes_baseline_against_itself_and_fails_a_25pct_regression() {
        let baseline = smoke_summary();

        let self_check = gate(&baseline, &baseline).unwrap();
        assert!(self_check.pass(), "{}", render_gate(&self_check));
        assert!(self_check.compared > 0);
        assert_eq!(self_check.report, "campaign");

        // 4/3 more cycles for the same ops => ops/cycle drops 25%,
        // beyond the 20% bound. Stall shares and latencies move too,
        // but they are only shown.
        let mut current = baseline.clone();
        edit(&mut current, "merged_stats", &|stats| {
            edit(stats, "cycles", &|n| {
                if let Json::U64(c) = n {
                    *n = Json::U64(*c * 4 / 3);
                }
            })
        });
        let v = gate(&baseline, &current).unwrap();
        assert!(!v.pass());
        assert!(
            v.failures().iter().all(|c| c.metric == "ops_per_cycle"),
            "only throughput is gated: {}",
            render_gate(&v)
        );
    }

    #[test]
    fn gate_verdict_json_is_machine_readable() {
        let baseline = smoke_summary();
        let v = gate(&baseline, &baseline).unwrap();
        let doc = Json::parse(&verdict_json(&v).to_pretty()).unwrap();
        assert_eq!(doc.get("type").and_then(Json::as_str), Some("gate"));
        assert_eq!(doc.get("report").and_then(Json::as_str), Some("campaign"));
        assert_eq!(doc.get("pass").and_then(Json::as_bool), Some(true));
        assert_eq!(
            doc.get("compared_keys").and_then(Json::as_u64),
            Some(v.compared as u64)
        );
        let checks = doc.get("checks").and_then(Json::as_arr).unwrap();
        assert_eq!(
            checks[0].get("tolerance").and_then(Json::as_f64),
            Some(0.20),
            "ops/cycle comes first, with its bound"
        );
    }

    #[test]
    fn gate_rejects_non_campaign_documents() {
        let junk = Json::obj([("type", Json::Str("gate".to_string()))]);
        assert!(gate(&junk, &junk).is_err());
        let no_groups = Json::obj([("type", Json::Str("campaign".to_string()))]);
        assert!(gate(&no_groups, &no_groups).is_err());
    }

    #[test]
    fn gate_fails_when_no_key_is_compared() {
        let empty = Json::obj([
            ("type", Json::Str("host-bench".to_string())),
            ("cells", Json::Arr(Vec::new())),
        ]);
        let v = gate(&empty, &empty).unwrap();
        assert!(!v.pass(), "an empty comparison proves nothing");
        assert!(render_gate(&v).contains("0 keys compared"));
        assert_eq!(
            Json::parse(&verdict_json(&v).to_pretty())
                .unwrap()
                .get("pass")
                .and_then(Json::as_bool),
            Some(false)
        );

        // Same workload fields, disjoint keys (another thread count).
        let baseline = smoke_summary();
        let mut current = baseline.clone();
        edit(&mut current, "threads", &|t| {
            if let Json::U64(n) = t {
                *n *= 2;
            }
        });
        let v = gate(&baseline, &current).unwrap();
        assert_eq!(v.compared, 0);
        assert!(!v.pass());
    }

    #[test]
    fn gate_refuses_reports_of_different_types_or_workloads() {
        let host = |initial_size: u64| {
            Json::obj([
                ("type", Json::Str("host-bench".to_string())),
                (
                    "matrix",
                    Json::obj([
                        ("initial_size", Json::U64(initial_size)),
                        ("ops_per_thread", Json::U64(10)),
                        ("seeds", Json::Arr(vec![Json::U64(1)])),
                    ]),
                ),
                ("cells", Json::Arr(Vec::new())),
            ])
        };
        let serve = Json::obj([("type", Json::Str("serve-bench".to_string()))]);
        let err = gate(&host(2), &serve).unwrap_err();
        assert!(
            err.contains("serve-bench") && err.contains("host-bench"),
            "{err}"
        );
        for (b, c) in [(32, 65536), (65536, 32)] {
            let err = gate(&host(b), &host(c)).unwrap_err();
            assert!(
                err.contains("matrix.initial_size") && !err.contains('\n'),
                "{err}"
            );
        }
        // A workload field missing from one side differs too.
        let bare = Json::obj([
            ("type", Json::Str("host-bench".to_string())),
            ("cells", Json::Arr(Vec::new())),
        ]);
        assert!(gate(&host(2), &bare).is_err());

        let baseline = smoke_summary();
        let mut current = baseline.clone();
        edit(&mut current, "seeds", &|s| {
            *s = Json::Arr(vec![Json::U64(9)])
        });
        let err = gate(&baseline, &current).unwrap_err();
        assert!(err.contains("matrix.seeds"), "{err}");
    }
}
