//! The one gate engine behind every regression gate: campaign profiles
//! (`lrp-profile gate`), host throughput (`lrp-bench gate`) and the KV
//! service (`lrp-bench serve-gate`).
//!
//! Each gate extracts typed, keyed rows from its report, walks the
//! [`paired`] baseline and current rows and applies a [`Bound`] per
//! metric.

use lrp_obs::Json;

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
    /// The tolerance applied.
    pub tol: f64,
    /// Whether the current value is within tolerance.
    pub pass: bool,
}

/// A gate's machine-readable outcome.
#[derive(Debug, Clone, Default)]
pub struct GateVerdict {
    /// Keys present in both reports.
    pub compared: usize,
    /// Every metric comparison performed.
    pub checks: Vec<GateCheck>,
}

impl GateVerdict {
    /// True when every check passed.
    pub fn pass(&self) -> bool {
        self.checks.iter().all(|c| c.pass)
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
    /// May rise at most this fraction above the baseline.
    FracCeil(f64),
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
    /// The check of `current` against `baseline` at `key`/`metric`,
    /// reporting the bound's tolerance.
    pub fn check(self, key: &str, metric: &str, baseline: f64, current: f64) -> GateCheck {
        let (tol, pass) = match self {
            Bound::FracFloor(f) => (f, current >= baseline * (1.0 - f)),
            Bound::FracCeil(f) => (f, current <= baseline * (1.0 + f)),
            Bound::FactorFloor(k) => (k, current * k >= baseline),
            Bound::FactorCeil(k) => (k, current <= baseline * k),
            Bound::Slack(s) => (s, current <= baseline + s),
            Bound::Info(t) => (t, true),
        };
        GateCheck {
            key: key.to_string(),
            metric: metric.to_string(),
            baseline,
            current,
            tol,
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

/// Rejects a regression factor below 1 (or NaN).
pub fn check_factor(max_regression: f64) -> Result<(), String> {
    if max_regression < 1.0 || max_regression.is_nan() {
        return Err("max regression factor must be >= 1.0".to_string());
    }
    Ok(())
}

/// The verdict document: `type`, `pass`, the caller's `header` fields,
/// then every check.
pub fn verdict_json(doc_type: &str, header: Vec<(&'static str, Json)>, v: &GateVerdict) -> Json {
    let checks = v
        .checks
        .iter()
        .map(|c| {
            Json::obj([
                ("key", Json::Str(c.key.clone())),
                ("metric", Json::Str(c.metric.clone())),
                ("baseline", Json::F64(c.baseline)),
                ("current", Json::F64(c.current)),
                ("tolerance", Json::F64(c.tol)),
                ("pass", Json::Bool(c.pass)),
            ])
        })
        .collect();
    let mut doc = vec![
        ("type", Json::Str(doc_type.to_string())),
        ("pass", Json::Bool(v.pass())),
    ];
    doc.extend(header);
    doc.push(("checks", Json::Arr(checks)));
    Json::obj(doc)
}

/// Renders a verdict for terminals: every failure, then the verdict
/// line.
pub fn render_gate(v: &GateVerdict) -> String {
    let mut out = String::new();
    for c in v.failures() {
        out.push_str(&format!(
            "FAIL {} {}: baseline {:.6} -> current {:.6} (tolerance {:.2})\n",
            c.key, c.metric, c.baseline, c.current, c.tol
        ));
    }
    out.push_str(&format!(
        "gate: {} ({} keys compared, {} checks, {} failed)\n",
        if v.pass() { "PASS" } else { "FAIL" },
        v.compared,
        v.checks.len(),
        v.failures().len()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_compare_as_documented() {
        // (bound, baseline, a passing current, a failing current)
        for (bound, base, pass, fail) in [
            (Bound::FracFloor(0.2), 1.0, 0.8, 0.79),
            (Bound::FracCeil(0.5), 10.0, 15.0, 15.1),
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
    fn render_gate_lists_failures_then_the_verdict() {
        let v = GateVerdict {
            compared: 1,
            checks: vec![
                Bound::FactorFloor(2.0).check("a", "ops", 10.0, 4.0),
                Bound::Info(0.1).check("a", "lat", 1.0, 9.0),
            ],
        };
        assert_eq!(
            render_gate(&v),
            "FAIL a ops: baseline 10.000000 -> current 4.000000 (tolerance 2.00)\n\
             gate: FAIL (1 keys compared, 2 checks, 1 failed)\n"
        );
    }
}
