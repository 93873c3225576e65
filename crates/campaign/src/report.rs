//! Machine-readable campaign artifacts.
//!
//! Two outputs, both byte-deterministic for a given matrix and cell
//! outcomes:
//!
//! * a **JSONL manifest** (one header line, then one line per completed
//!   cell, appended as cells finish) — the resume log. Wall-clock times
//!   appear here for diagnostics but never feed any aggregate;
//! * a **summary report** (`BENCH_campaign.json` + a plain-text table)
//!   rolled up from the manifest. The summary contains no wall times at
//!   all, so serial and parallel campaigns write identical bytes.
//!
//! Resume semantics: the manifest header carries the matrix
//! [`fingerprint`](crate::matrix::MatrixSpec::fingerprint); resuming
//! against a different matrix is refused. `Ok` cells are skipped on
//! resume; `failed`/`timed_out` cells run again; when a cell appears
//! more than once the last record wins.

use crate::aggregate::{summarize, CampaignSummary};
use crate::cell::CellResult;
use crate::isolation::{CellOutcome, CellRecord};
use crate::json::Json;
use crate::matrix::{CellSpec, MatrixSpec};
use crate::scheduler::{run_campaign, CampaignConfig};
use lrp_lfds::Structure;
use lrp_obs::blame::{blame_json, parse_blame};
use lrp_obs::critpath::{crit_json, parse_crit};
use lrp_obs::metrics::{hist_json, stats_json};
use lrp_obs::{BlameTable, CritSummary, Hist};
use lrp_sim::{Mechanism, NvmMode, Stats};
use std::io::{self, Write as _};
use std::path::Path;

/// Manifest / report format version; bump on breaking layout changes.
pub const FORMAT_VERSION: u64 = 1;

fn opt_f64(v: Option<f64>) -> Json {
    v.map_or(Json::Null, Json::F64)
}

fn opt_ci(v: Option<(f64, f64)>) -> Json {
    v.map_or(Json::Null, |(lo, hi)| {
        Json::Arr(vec![Json::F64(lo), Json::F64(hi)])
    })
}

fn bad_data(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// The JSONL manifest header line.
pub fn header_json(matrix: &MatrixSpec) -> Json {
    Json::obj([
        ("type", Json::Str("campaign-header".to_string())),
        ("format_version", Json::U64(FORMAT_VERSION)),
        ("fingerprint", Json::Str(matrix.fingerprint())),
        ("matrix", Json::Str(matrix.describe())),
        ("cells", Json::U64(matrix.len() as u64)),
    ])
}

fn field_u64(doc: &Json, key: &str) -> io::Result<u64> {
    doc.field_u64(key).map_err(bad_data)
}

fn field_str<'a>(doc: &'a Json, key: &str) -> io::Result<&'a str> {
    doc.field_str(key).map_err(bad_data)
}

fn field_bool(doc: &Json, key: &str) -> io::Result<bool> {
    doc.get(key)
        .and_then(Json::as_bool)
        .ok_or_else(|| bad_data(format!("missing or non-boolean field {key:?}")))
}

fn parse_stats(doc: &Json) -> io::Result<Stats> {
    lrp_obs::metrics::parse_stats(doc).map_err(bad_data)
}

fn result_json(r: &CellResult) -> Json {
    Json::obj([
        ("stats", stats_json(&r.stats)),
        ("rp_checked", Json::Bool(r.rp_checked)),
        ("rp_violations", Json::U64(r.rp_violations)),
        ("recovery_checked", Json::Bool(r.recovery_checked)),
        ("recovery_points", Json::U64(r.recovery_points)),
        ("recovery_failures", Json::U64(r.recovery_failures)),
        ("trace_events", Json::U64(r.trace_events)),
        ("trace_ops", Json::U64(r.trace_ops)),
        (
            "hists",
            Json::obj([
                ("flush_to_ack", hist_json(&r.flush_to_ack)),
                ("release_to_persist", hist_json(&r.release_to_persist)),
                ("ret_residency", hist_json(&r.ret_residency)),
            ]),
        ),
        ("blame", blame_json(&r.blame)),
        ("critpath", crit_json(&r.crit)),
        (
            "audit",
            Json::obj([
                ("checks", Json::U64(r.audit_checks)),
                ("violations", Json::U64(r.audit_violations)),
            ]),
        ),
    ])
}

/// Parses the `critpath` key; pre-critpath manifests lack it entirely,
/// which parses as an empty digest.
fn field_crit(doc: &Json) -> io::Result<CritSummary> {
    match doc.get("critpath") {
        Some(c) => parse_crit(c).map_err(bad_data),
        None => Ok(CritSummary::default()),
    }
}

/// Parses the `blame` key; pre-profiler manifests lack it entirely,
/// which parses as an empty table.
fn field_blame(doc: &Json) -> io::Result<BlameTable> {
    match doc.get("blame") {
        Some(b) => parse_blame(b).map_err(bad_data),
        None => Ok(BlameTable::default()),
    }
}

/// Parses one named histogram under the `hists` key; pre-observability
/// manifests lack it entirely, which parses as an empty histogram.
fn field_hist(doc: &Json, name: &str) -> io::Result<Hist> {
    match doc.get("hists").and_then(|h| h.get(name)) {
        Some(h) => lrp_obs::metrics::parse_hist(h).map_err(bad_data),
        None => Ok(Hist::new()),
    }
}

fn parse_result(doc: &Json) -> io::Result<CellResult> {
    let audit = doc.get("audit");
    let audit_u64 = |key: &str| -> io::Result<u64> {
        match audit {
            Some(a) => field_u64(a, key),
            None => Ok(0),
        }
    };
    Ok(CellResult {
        stats: parse_stats(
            doc.get("stats")
                .ok_or_else(|| bad_data("missing field \"stats\""))?,
        )?,
        rp_checked: field_bool(doc, "rp_checked")?,
        rp_violations: field_u64(doc, "rp_violations")?,
        recovery_checked: field_bool(doc, "recovery_checked")?,
        recovery_points: field_u64(doc, "recovery_points")?,
        recovery_failures: field_u64(doc, "recovery_failures")?,
        trace_events: field_u64(doc, "trace_events")?,
        trace_ops: field_u64(doc, "trace_ops")?,
        flush_to_ack: field_hist(doc, "flush_to_ack")?,
        release_to_persist: field_hist(doc, "release_to_persist")?,
        ret_residency: field_hist(doc, "ret_residency")?,
        blame: field_blame(doc)?,
        crit: field_crit(doc)?,
        audit_checks: audit_u64("checks")?,
        audit_violations: audit_u64("violations")?,
    })
}

fn spec_json(spec: &CellSpec) -> Json {
    Json::obj([
        ("structure", Json::Str(spec.structure.name().to_string())),
        ("mechanism", Json::Str(spec.mechanism.name().to_string())),
        ("mode", Json::Str(spec.mode.name().to_string())),
        ("threads", Json::U64(spec.threads as u64)),
        ("seed", Json::U64(spec.seed)),
        ("initial_size", Json::U64(spec.initial_size as u64)),
        ("ops_per_thread", Json::U64(spec.ops_per_thread as u64)),
        ("crash_samples", Json::U64(spec.crash_samples as u64)),
    ])
}

fn parse_spec(doc: &Json, index: usize) -> io::Result<CellSpec> {
    let structure = Structure::from_name(field_str(doc, "structure")?)
        .ok_or_else(|| bad_data("unknown structure"))?;
    let mechanism = Mechanism::from_name(field_str(doc, "mechanism")?)
        .ok_or_else(|| bad_data("unknown mechanism"))?;
    let mode =
        NvmMode::from_name(field_str(doc, "mode")?).ok_or_else(|| bad_data("unknown NVM mode"))?;
    Ok(CellSpec {
        index,
        structure,
        mechanism,
        mode,
        threads: field_u64(doc, "threads")? as u16,
        seed: field_u64(doc, "seed")?,
        initial_size: field_u64(doc, "initial_size")? as usize,
        ops_per_thread: field_u64(doc, "ops_per_thread")? as usize,
        crash_samples: field_u64(doc, "crash_samples")? as usize,
    })
}

/// One manifest JSONL line for a completed cell.
pub fn cell_json(record: &CellRecord) -> Json {
    let mut pairs = vec![
        ("type", Json::Str("cell".to_string())),
        ("index", Json::U64(record.spec.index as u64)),
        ("id", Json::Str(record.spec.id())),
        ("spec", spec_json(&record.spec)),
        ("outcome", Json::Str(record.outcome.kind().to_string())),
    ];
    match &record.outcome {
        CellOutcome::Ok(result) => pairs.push(("result", result_json(result))),
        CellOutcome::Failed { error } => pairs.push(("error", Json::Str(error.clone()))),
        CellOutcome::TimedOut { timeout_secs } => {
            pairs.push(("timeout_secs", Json::F64(*timeout_secs)));
        }
    }
    pairs.push(("wall_ms", Json::F64(record.wall_ms)));
    Json::obj(pairs)
}

/// Parses one manifest cell line back into a [`CellRecord`].
pub fn parse_cell_line(line: &str) -> io::Result<CellRecord> {
    let doc = Json::parse(line).map_err(bad_data)?;
    if field_str(&doc, "type")? != "cell" {
        return Err(bad_data("not a cell record"));
    }
    let index = field_u64(&doc, "index")? as usize;
    let spec = parse_spec(
        doc.get("spec")
            .ok_or_else(|| bad_data("missing field \"spec\""))?,
        index,
    )?;
    let outcome = match field_str(&doc, "outcome")? {
        "ok" => CellOutcome::Ok(parse_result(
            doc.get("result")
                .ok_or_else(|| bad_data("ok record without result"))?,
        )?),
        "failed" => CellOutcome::Failed {
            error: field_str(&doc, "error")?.to_string(),
        },
        "timed_out" => CellOutcome::TimedOut {
            timeout_secs: doc
                .get("timeout_secs")
                .and_then(Json::as_f64)
                .ok_or_else(|| bad_data("timed_out record without timeout_secs"))?,
        },
        other => return Err(bad_data(format!("unknown outcome {other:?}"))),
    };
    let wall_ms = doc.get("wall_ms").and_then(Json::as_f64).unwrap_or(0.0);
    Ok(CellRecord {
        spec,
        outcome,
        wall_ms,
    })
}

/// Loads a manifest, enforcing the header fingerprint against `matrix`.
/// Returns records keyed by canonical cell index (last record wins);
/// records whose spec no longer matches the matrix cell at that index
/// are dropped as stale.
pub fn load_manifest(path: &Path, matrix: &MatrixSpec) -> io::Result<Vec<CellRecord>> {
    let text = std::fs::read_to_string(path)?;
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header =
        Json::parse(lines.next().ok_or_else(|| bad_data("empty manifest"))?).map_err(bad_data)?;
    if field_str(&header, "type")? != "campaign-header" {
        return Err(bad_data("manifest does not start with a campaign header"));
    }
    let fp = field_str(&header, "fingerprint")?;
    if fp != matrix.fingerprint() {
        return Err(bad_data(format!(
            "manifest fingerprint {fp} does not match matrix {} — refusing to resume a \
             different campaign",
            matrix.fingerprint()
        )));
    }
    let cells = matrix.cells();
    let mut slots: Vec<Option<CellRecord>> = vec![None; cells.len()];
    for line in lines {
        let record = parse_cell_line(line)?;
        let idx = record.spec.index;
        if cells.get(idx).is_some_and(|c| *c == record.spec) {
            slots[idx] = Some(record);
        }
    }
    Ok(slots.into_iter().flatten().collect())
}

/// The summary document written to `BENCH_campaign.json`. Contains no
/// wall-clock data: its bytes depend only on the matrix and the cell
/// outcomes.
pub fn summary_json(matrix: &MatrixSpec, summary: &CampaignSummary) -> Json {
    let groups = summary
        .groups
        .iter()
        .map(|g| {
            let mechs = g
                .mechs
                .iter()
                .map(|m| {
                    Json::obj([
                        ("mechanism", Json::Str(m.mechanism.name().to_string())),
                        ("ok", Json::U64(m.ok as u64)),
                        ("failed", Json::U64(m.failed as u64)),
                        ("timed_out", Json::U64(m.timed_out as u64)),
                        (
                            "cycles_by_seed",
                            Json::Arr(
                                m.cycles_by_seed
                                    .iter()
                                    .map(|&(seed, cycles)| {
                                        Json::Arr(vec![Json::U64(seed), Json::U64(cycles)])
                                    })
                                    .collect(),
                            ),
                        ),
                        (
                            "normalized",
                            Json::Arr(m.normalized.iter().map(|&x| Json::F64(x)).collect()),
                        ),
                        ("norm_geomean", opt_f64(m.norm_geomean)),
                        ("norm_ci95", opt_ci(m.norm_ci95)),
                        (
                            "critical_writeback_fraction",
                            opt_f64(m.critical_fraction_mean),
                        ),
                        ("rp_violations", Json::U64(m.rp_violations)),
                        ("audit_violations", Json::U64(m.audit_violations)),
                        ("recovery_points", Json::U64(m.recovery_points)),
                        ("recovery_failures", Json::U64(m.recovery_failures)),
                        ("merged_stats", stats_json(&m.merged)),
                        (
                            "hists",
                            Json::obj([
                                ("flush_to_ack", hist_json(&m.flush_to_ack)),
                                ("release_to_persist", hist_json(&m.release_to_persist)),
                                ("ret_residency", hist_json(&m.ret_residency)),
                            ]),
                        ),
                        ("blame", blame_json(&m.blame)),
                        ("critpath", crit_json(&m.crit)),
                    ])
                })
                .collect();
            Json::obj([
                ("structure", Json::Str(g.structure.name().to_string())),
                ("mode", Json::Str(g.mode.name().to_string())),
                ("threads", Json::U64(g.threads as u64)),
                ("mechanisms", Json::Arr(mechs)),
            ])
        })
        .collect();

    let overall = summary
        .overall
        .iter()
        .map(|row| {
            Json::obj([
                ("mode", Json::Str(row.mode.name().to_string())),
                ("mechanism", Json::Str(row.mechanism.name().to_string())),
                ("norm_geomean", opt_f64(row.norm_geomean)),
                ("norm_ci95", opt_ci(row.norm_ci95)),
                (
                    "critical_writeback_fraction",
                    opt_f64(row.critical_fraction_mean),
                ),
            ])
        })
        .collect();

    Json::obj([
        ("type", Json::Str("campaign".to_string())),
        ("format_version", Json::U64(FORMAT_VERSION)),
        ("fingerprint", Json::Str(matrix.fingerprint())),
        ("matrix", matrix.to_json()),
        (
            "cells",
            Json::obj([
                ("total", Json::U64(summary.total_cells as u64)),
                ("ok", Json::U64(summary.ok as u64)),
                ("failed", Json::U64(summary.failed as u64)),
                ("timed_out", Json::U64(summary.timed_out as u64)),
            ]),
        ),
        ("groups", Json::Arr(groups)),
        ("overall", Json::Arr(overall)),
    ])
}

fn fmt_opt(v: Option<f64>) -> String {
    v.map_or_else(|| "-".to_string(), |x| format!("{x:.3}"))
}

/// Plain-text summary table (the human-readable companion to
/// `BENCH_campaign.json`).
pub fn render_table(matrix: &MatrixSpec, summary: &CampaignSummary) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "campaign {}: {} cells (ok {}, failed {}, timed_out {})\n",
        matrix.fingerprint(),
        summary.total_cells,
        summary.ok,
        summary.failed,
        summary.timed_out
    ));
    out.push_str("\noverall (execution time normalized to NOP; lower is better):\n");
    out.push_str(&format!(
        "{:<10} {:<10} {:>8} {:>18} {:>9}\n",
        "mode", "mechanism", "geomean", "95% CI", "crit-wb"
    ));
    for row in &summary.overall {
        if row.mechanism == Mechanism::Nop {
            continue;
        }
        let ci = row
            .norm_ci95
            .map_or_else(|| "-".to_string(), |(lo, hi)| format!("[{lo:.3}, {hi:.3}]"));
        out.push_str(&format!(
            "{:<10} {:<10} {:>8} {:>18} {:>9}\n",
            row.mode.name(),
            row.mechanism.name(),
            fmt_opt(row.norm_geomean),
            ci,
            fmt_opt(row.critical_fraction_mean)
        ));
    }
    out.push_str("\nper-structure normalized execution time (geomean over seeds):\n");
    let mechs: Vec<Mechanism> = matrix
        .mechanisms
        .iter()
        .copied()
        .filter(|&m| m != Mechanism::Nop)
        .collect();
    out.push_str(&format!("{:<12} {:<10} {:>3}", "structure", "mode", "t"));
    for m in &mechs {
        out.push_str(&format!(" {:>8}", m.name()));
    }
    out.push('\n');
    for g in &summary.groups {
        out.push_str(&format!(
            "{:<12} {:<10} {:>3}",
            g.structure.name(),
            g.mode.name(),
            g.threads
        ));
        for m in &mechs {
            let v = g
                .mechs
                .iter()
                .find(|s| s.mechanism == *m)
                .and_then(|s| s.norm_geomean);
            out.push_str(&format!(" {:>8}", fmt_opt(v)));
        }
        out.push('\n');
    }
    out.push_str("\nlatency histograms (cycles, merged over seeds; mean/p50/p99):\n");
    out.push_str(&format!(
        "{:<12} {:<10} {:>3} {:<10} {:>22} {:>22} {:>22}\n",
        "structure", "mode", "t", "mechanism", "flush-to-ack", "rel-to-persist", "ret-residency"
    ));
    let fmt_hist = |h: &lrp_obs::Hist| {
        if h.is_empty() {
            "-".to_string()
        } else {
            format!(
                "{:.0}/{}/{}",
                h.mean(),
                h.percentile(0.5),
                h.percentile(0.99)
            )
        }
    };
    for g in &summary.groups {
        for m in &g.mechs {
            if m.ok == 0 || m.mechanism == Mechanism::Nop {
                continue;
            }
            out.push_str(&format!(
                "{:<12} {:<10} {:>3} {:<10} {:>22} {:>22} {:>22}\n",
                g.structure.name(),
                g.mode.name(),
                g.threads,
                m.mechanism.name(),
                fmt_hist(&m.flush_to_ack),
                fmt_hist(&m.release_to_persist),
                fmt_hist(&m.ret_residency)
            ));
        }
    }
    out.push_str("\nblame attribution (top sites by charged cycles):\n");
    out.push_str(&format!(
        "{:<12} {:<10} {:>3} {:<10} {:<34} {:<14} {:>12}\n",
        "structure", "mode", "t", "mechanism", "site", "cause", "cycles"
    ));
    for g in &summary.groups {
        for m in &g.mechs {
            if m.ok == 0 || m.mechanism == Mechanism::Nop || m.blame.is_empty() {
                continue;
            }
            let mut rows: Vec<_> = m.blame.exact.iter().filter(|(_, c)| c.cycles > 0).collect();
            rows.sort_by(|a, b| b.1.cycles.cmp(&a.1.cycles).then_with(|| a.0.cmp(b.0)));
            for ((site, cause), cell) in rows.into_iter().take(3) {
                out.push_str(&format!(
                    "{:<12} {:<10} {:>3} {:<10} {:<34} {:<14} {:>12}\n",
                    g.structure.name(),
                    g.mode.name(),
                    g.threads,
                    m.mechanism.name(),
                    site,
                    cause.name(),
                    cell.cycles
                ));
            }
        }
    }
    out
}

/// What a [`run_to_files`] campaign produced.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// Every cell record (cached + freshly run), sorted by index.
    pub records: Vec<CellRecord>,
    /// The deterministic aggregate view.
    pub summary: CampaignSummary,
    /// Cells satisfied from the resume manifest without re-running.
    pub resumed: usize,
}

/// Runs (or resumes) a campaign, streaming each completed cell to the
/// JSONL manifest at `jsonl_path` and returning the aggregate view.
/// `progress` fires once per freshly run cell, in completion order.
pub fn run_to_files(
    matrix: &MatrixSpec,
    cfg: &CampaignConfig,
    jsonl_path: &Path,
    resume: bool,
    mut progress: impl FnMut(&CellRecord),
) -> io::Result<CampaignOutcome> {
    let cells = matrix.cells();

    let cached: Vec<CellRecord> = if resume && jsonl_path.exists() {
        load_manifest(jsonl_path, matrix)?
            .into_iter()
            .filter(|r| matches!(r.outcome, CellOutcome::Ok(_)))
            .collect()
    } else {
        Vec::new()
    };
    let have: Vec<bool> = {
        let mut have = vec![false; cells.len()];
        for r in &cached {
            have[r.spec.index] = true;
        }
        have
    };
    let to_run: Vec<CellSpec> = cells.into_iter().filter(|c| !have[c.index]).collect();

    let mut file = if resume && jsonl_path.exists() {
        std::fs::OpenOptions::new().append(true).open(jsonl_path)?
    } else {
        if let Some(parent) = jsonl_path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent)?;
        }
        let mut f = std::fs::File::create(jsonl_path)?;
        writeln!(f, "{}", header_json(matrix).to_compact())?;
        f
    };

    let mut write_err: Option<io::Error> = None;
    let fresh = run_campaign(to_run, cfg, |record| {
        let line = cell_json(record).to_compact();
        // Flush per line so an interrupted campaign can still resume.
        let r = writeln!(file, "{line}").and_then(|()| file.flush());
        if let (Err(e), None) = (r, write_err.as_ref()) {
            write_err = Some(e);
        }
        progress(record);
    });
    if let Some(e) = write_err {
        return Err(e);
    }

    let resumed = cached.len();
    let mut records = cached;
    records.extend(fresh);
    records.sort_by_key(|r| r.spec.index);
    let summary = summarize(matrix, &records);
    Ok(CampaignOutcome {
        records,
        summary,
        resumed,
    })
}

/// Writes `BENCH_campaign.json` (pretty, trailing newline) at `path`.
pub fn write_bench_json(
    path: &Path,
    matrix: &MatrixSpec,
    summary: &CampaignSummary,
) -> io::Result<()> {
    std::fs::write(path, summary_json(matrix, summary).to_pretty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_path(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "lrp-campaign-test-{}-{tag}-{n}.jsonl",
            std::process::id()
        ))
    }

    fn serial_cfg() -> CampaignConfig {
        CampaignConfig {
            workers: 1,
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn cell_lines_round_trip() {
        let matrix = MatrixSpec::smoke();
        for record in run_campaign(matrix.cells(), &serial_cfg(), |_| {}) {
            let line = cell_json(&record).to_compact();
            let back = parse_cell_line(&line).unwrap();
            // Serialized forms agree exactly (zero-valued map entries may
            // differ in-memory; the manifest bytes are the contract).
            assert_eq!(cell_json(&back).to_compact(), line);
            assert_eq!(back.spec, record.spec);
            assert_eq!(back.outcome.kind(), "ok");
        }
    }

    #[test]
    fn failed_and_timed_out_lines_round_trip() {
        let spec = MatrixSpec::smoke().cells().remove(0);
        for outcome in [
            CellOutcome::Failed {
                error: "boom \"quoted\"\npanic".to_string(),
            },
            CellOutcome::TimedOut { timeout_secs: 1.5 },
        ] {
            let record = CellRecord {
                spec: spec.clone(),
                outcome,
                wall_ms: 12.25,
            };
            let line = cell_json(&record).to_compact();
            let back = parse_cell_line(&line).unwrap();
            assert_eq!(back, record);
        }
    }

    #[test]
    fn campaign_writes_manifest_and_resume_skips_ok_cells() {
        let matrix = MatrixSpec::smoke();
        let path = temp_path("resume");
        let first = run_to_files(&matrix, &serial_cfg(), &path, false, |_| {}).unwrap();
        assert_eq!(first.resumed, 0);
        assert_eq!(first.summary.ok, matrix.len());

        let mut fresh_runs = 0;
        let second =
            run_to_files(&matrix, &serial_cfg(), &path, true, |_| fresh_runs += 1).unwrap();
        assert_eq!(fresh_runs, 0, "resume must not re-run ok cells");
        assert_eq!(second.resumed, matrix.len());
        assert_eq!(
            summary_json(&matrix, &second.summary).to_pretty(),
            summary_json(&matrix, &first.summary).to_pretty(),
            "resumed summary must be byte-identical"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_reruns_failed_cells() {
        let matrix = MatrixSpec::smoke();
        let path = temp_path("rerun");
        let target = matrix.cells()[1].id();
        let broken = run_to_files(
            &matrix,
            &CampaignConfig {
                workers: 1,
                inject_panic: Some(target),
                ..CampaignConfig::default()
            },
            &path,
            false,
            |_| {},
        )
        .unwrap();
        assert_eq!(broken.summary.failed, 1);

        let mut fresh_runs = 0;
        let healed =
            run_to_files(&matrix, &serial_cfg(), &path, true, |_| fresh_runs += 1).unwrap();
        assert_eq!(fresh_runs, 1, "only the failed cell re-runs");
        assert_eq!(healed.resumed, matrix.len() - 1);
        assert_eq!(healed.summary.ok, matrix.len());
        assert_eq!(healed.summary.failed, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_refuses_a_different_matrix() {
        let matrix = MatrixSpec::smoke();
        let path = temp_path("fingerprint");
        run_to_files(&matrix, &serial_cfg(), &path, false, |_| {}).unwrap();
        let mut other = matrix.clone();
        other.seeds = vec![7];
        let err = run_to_files(&other, &serial_cfg(), &path, true, |_| {}).unwrap_err();
        assert!(err.to_string().contains("fingerprint"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn parallel_and_serial_summaries_are_byte_identical() {
        let mut matrix = MatrixSpec::smoke();
        matrix.seeds = vec![1, 2];
        let cells = matrix.cells();
        let serial = run_campaign(cells.clone(), &serial_cfg(), |_| {});
        let parallel = run_campaign(
            cells,
            &CampaignConfig {
                workers: 4,
                ..CampaignConfig::default()
            },
            |_| {},
        );
        let a = summary_json(&matrix, &summarize(&matrix, &serial)).to_pretty();
        let b = summary_json(&matrix, &summarize(&matrix, &parallel)).to_pretty();
        assert_eq!(a, b);
        assert!(a.contains("\"norm_geomean\""));
    }

    #[test]
    fn table_renders_headline_rows() {
        let matrix = MatrixSpec::smoke();
        let records = run_campaign(matrix.cells(), &serial_cfg(), |_| {});
        let summary = summarize(&matrix, &records);
        let table = render_table(&matrix, &summary);
        assert!(table.contains("ok 2"));
        assert!(table.contains("lrp"));
        assert!(table.contains("hashmap"));
        assert!(
            !table.contains("nop "),
            "NOP baseline has no normalized row"
        );
    }
}
