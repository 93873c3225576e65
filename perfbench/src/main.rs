//! `perfbench`: the repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-bstree --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Three workloads drive the workspace crates through their public
//! entry points (see `perfbench/README.md`):
//!
//! * `paper-bstree` — trace generation → simulation → persist schedule
//!   → recovery audit for one paper-scale cell;
//! * `replay-hashmap` — bare simulator replays of one paper-scale trace;
//! * `kv-zipf-16k` — the lrp-serve key-value service under a zipfian
//!   load from an in-process client.
//!
//! Human-readable lines go to stdout first; the last stdout line is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}` holding
//! every end-to-end metric (`--trace 0`) or every per-layer metric
//! (`--trace 1`, which also runs the workload untraced to report the
//! tracing overhead and writes its spans to `perfbench/out/`).

mod catalog;
mod host;
mod kv;
mod pipeline;
mod spans;
mod stats;
mod verdict;

use spans::Tracer;
use std::collections::BTreeMap;
use std::process::ExitCode;
use verdict::Ledger;

/// Workload names, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = ["paper-bstree", "replay-hashmap", "kv-zipf-16k"];

/// Where the traced run writes its spans, relative to the working
/// directory (the repository root).
const SPANS_DIR: &str = "perfbench/out";

/// One run's parameters.
#[derive(Debug, Clone)]
pub struct RunCfg {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Scaled-down shapes, for the benchmark's own tests.
    pub small: bool,
}

/// What a workload run produced.
pub struct Outcome {
    /// End-to-end metrics measured untraced, by catalogue name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metrics from the traced half (traced runs only).
    pub layer: BTreeMap<String, f64>,
    /// Operations, failures and verdict problems.
    pub ledger: Ledger,
    /// Human-readable report lines.
    pub lines: Vec<String>,
    /// The spans recorded (empty when untraced).
    pub tracer: Tracer,
}

impl Outcome {
    /// An empty outcome whose per-layer map holds every catalogue name
    /// at 0 (layers the workload bypasses stay there).
    pub fn new(tracer: Tracer) -> Outcome {
        Outcome {
            e2e: BTreeMap::new(),
            layer: catalog::per_layer()
                .into_iter()
                .map(|(n, _)| (n, 0.0))
                .collect(),
            ledger: Ledger::default(),
            lines: Vec::new(),
            tracer,
        }
    }

    /// Sets a per-layer metric (must be in the catalogue).
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        catalog::layer_unit(&name);
        self.layer.insert(name, value);
    }

    /// Adds a report line.
    pub fn line(&mut self, s: impl Into<String>) {
        self.lines.push(s.into());
    }

    /// Fills the self-time and tracing-overhead entries from the spans
    /// and from the traced half's end-to-end numbers.
    pub fn finish_traced(&mut self, traced_e2e: &BTreeMap<&'static str, f64>) {
        let by_layer = self.tracer.self_ms_by_layer();
        for layer in catalog::LAYERS {
            let v = by_layer.get(layer).copied().unwrap_or(0.0);
            self.set(format!("self_ms.{layer}"), v);
        }
        for name in catalog::OVERHEAD {
            let d = traced_e2e.get(name).copied().unwrap_or(0.0)
                - self.e2e.get(name).copied().unwrap_or(0.0);
            self.set(format!("overhead.{name}"), d);
        }
    }
}

/// Peak resident set of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<(String, RunCfg), String> {
    let mut workload = None;
    let mut cfg = RunCfg {
        seed: 1,
        seconds: 10.0,
        trace: false,
        small: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w:?}"));
                }
                workload = Some(w.clone());
            }
            "--seed" => cfg.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cfg.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cfg.seconds > 0.0 && cfg.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                cfg.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((workload, cfg))
}

/// Runs one workload.
pub fn run(workload: &str, cfg: &RunCfg) -> std::io::Result<Outcome> {
    match workload {
        "paper-bstree" => Ok(pipeline::paper_bstree(cfg)),
        "replay-hashmap" => Ok(pipeline::replay_hashmap(cfg)),
        "kv-zipf-16k" => kv::kv_zipf(cfg),
        other => unreachable!("workload {other} passed argument checking"),
    }
}

/// Renders the final result line.
pub fn result_json(out: &mut Outcome, trace: bool) -> String {
    let correct = out.ledger.finish();
    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if trace {
        for (name, unit) in catalog::per_layer() {
            let v = out.layer.get(&name).copied().unwrap_or(0.0);
            metrics.push((name, v, unit));
        }
    } else {
        for (name, unit) in catalog::END_TO_END {
            let v = out.e2e.get(name).copied().unwrap_or(0.0);
            metrics.push((name.to_string(), v, unit));
        }
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.ledger.attempted,
        out.ledger.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, cfg) = match parse_args(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let mut out = match run(&workload, &cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            return ExitCode::from(1);
        }
    };
    println!(
        "== {workload} seed={} seconds={} trace={}",
        cfg.seed, cfg.seconds, cfg.trace as u8
    );
    for l in &out.lines {
        println!("{l}");
    }
    println!(
        "fail_share = {:.6} ratio ({} failed / {} attempted)",
        out.ledger.fail_share(),
        out.ledger.failed,
        out.ledger.attempted
    );
    for d in &out.ledger.details {
        println!("  failure: {d}");
    }
    if cfg.trace {
        let path = std::path::Path::new(SPANS_DIR)
            .join(format!("spans-{workload}-seed{}.jsonl", cfg.seed));
        match out.tracer.write_jsonl(&path) {
            Ok(()) => println!(
                "spans: {} written to {}",
                out.tracer.spans().len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("perfbench: writing spans to {}: {e}", path.display());
                return ExitCode::from(1);
            }
        }
    }
    let json = result_json(&mut out, cfg.trace);
    for p in &out.ledger.problems {
        println!("  verdict problem: {p}");
    }
    println!(
        "verdict: {}",
        if out.ledger.problems.is_empty() {
            "correct"
        } else {
            "INCORRECT"
        }
    );
    println!("{json}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(trace: bool) -> RunCfg {
        RunCfg {
            seed: 3,
            seconds: 1.0,
            trace,
            small: true,
        }
    }

    /// Parses the result line and returns `(name, unit)` per metric.
    fn metric_units(line: &str) -> Vec<(String, String)> {
        let doc = lrp_obs::Json::parse(line).expect("result line is JSON");
        assert_eq!(
            doc.get("correct").and_then(lrp_obs::Json::as_bool),
            Some(true),
            "{line}"
        );
        assert!(
            doc.get("attempted")
                .and_then(lrp_obs::Json::as_u64)
                .unwrap_or(0)
                >= 1
        );
        let lrp_obs::Json::Obj(fields) = doc.get("metrics").expect("metrics") else {
            panic!("metrics is not an object")
        };
        fields
            .iter()
            .map(|(k, v)| {
                assert!(
                    v.get("value").and_then(lrp_obs::Json::as_f64).is_some(),
                    "{k}"
                );
                (
                    k.clone(),
                    v.get("unit")
                        .and_then(lrp_obs::Json::as_str)
                        .unwrap()
                        .to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn every_workload_prints_every_metric_with_its_unit() {
        for w in WORKLOADS {
            for trace in [false, true] {
                let mut out = run(w, &small(trace)).expect("workload runs");
                let line = result_json(&mut out, trace);
                let got = metric_units(&line);
                let want: Vec<(String, String)> = if trace {
                    catalog::per_layer()
                        .into_iter()
                        .map(|(n, u)| (n, u.to_string()))
                        .collect()
                } else {
                    catalog::END_TO_END
                        .iter()
                        .map(|(n, u)| (n.to_string(), u.to_string()))
                        .collect()
                };
                assert_eq!(got.len(), want.len(), "{w} trace={trace}");
                for item in &want {
                    assert!(got.contains(item), "{w} trace={trace}: missing {item:?}");
                }
                if !trace {
                    for (name, _) in catalog::END_TO_END {
                        assert!(out.e2e[name] > 0.0, "{w}: {name} is not positive");
                    }
                }
            }
        }
    }

    #[test]
    fn bad_arguments_are_rejected() {
        let a = |v: &[&str]| parse_args(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        assert!(a(&["--workload", "nope"]).is_err());
        assert!(a(&["--seed", "1"]).is_err());
        assert!(a(&["--workload", "kv-zipf-16k", "--trace", "2"]).is_err());
        assert!(a(&["--workload", "kv-zipf-16k", "--seconds", "0"]).is_err());
        assert!(a(&["--workload", "kv-zipf-16k", "--seed", "4", "--trace", "1"]).is_ok());
    }
}
