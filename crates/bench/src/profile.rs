//! The persist-blame profiler behind the `lrp-profile` binary.
//!
//! Three entry points, all built on `lrp_obs::blame`:
//!
//! * [`run`] — replay one workload under one mechanism with the
//!   summaries-only recorder attached and return its [`BlameTable`]
//!   (per-site stall/persist attribution) plus the run's `Stats`;
//! * [`diff`](run_diff) — the same workload under two mechanisms,
//!   ranked by per-`(site, cause)` attribution delta. This is the
//!   LRP-vs-baseline view: RET-full drains show up under LRP sites,
//!   full-barrier drains under BB/SB sites;
//! * [`gate`] — a perf-regression gate over two `BENCH_campaign.json`
//!   summaries, comparing ops/cycle, stall-cycle shares, and latency
//!   p50/p99 per `(structure, mode, threads, mechanism)` key against
//!   per-metric tolerances.

use crate::figures::Shape;
use crate::gate::{paired, Bound, GateVerdict, Rows};
use lrp_lfds::{Structure, WorkloadSpec};
use lrp_obs::blame::{diff, BlameDelta};
use lrp_obs::{BlameTable, CritSegKind, CritSummary, Json, RecorderConfig, Stats};
use lrp_sim::{Mechanism, NvmMode, Sim, SimConfig};
use std::collections::BTreeMap;

/// One profiled workload replay.
#[derive(Debug, Clone)]
pub struct ProfileSpec {
    /// The data structure under test.
    pub structure: Structure,
    /// The persistency mechanism.
    pub mechanism: Mechanism,
    /// NVM mode (cached / uncached).
    pub mode: NvmMode,
    /// Worker threads.
    pub threads: u16,
    /// Operations per worker.
    pub ops_per_thread: usize,
    /// Initial structure population.
    pub initial_size: usize,
    /// Workload seed.
    pub seed: u64,
    /// RET capacity override. Shrinking the RET (with the watermark
    /// pinned to the capacity, which disables proactive drains) forces
    /// the stall-on-full-table path, making RET pressure visible on
    /// small workloads.
    pub ret_capacity: Option<usize>,
}

impl ProfileSpec {
    /// A profile of `structure` under `mechanism` with the `lrp-trace
    /// gen` workload defaults (4 threads, 25 ops/thread, 64 entries).
    pub fn new(structure: Structure, mechanism: Mechanism) -> ProfileSpec {
        ProfileSpec {
            structure,
            mechanism,
            mode: NvmMode::Cached,
            threads: 4,
            ops_per_thread: 25,
            initial_size: 64,
            seed: 1,
            ret_capacity: None,
        }
    }

    /// `structure/mechanism/mode/tN/sN` identifier for report headers.
    pub fn id(&self) -> String {
        format!(
            "{}/{}/{}/t{}/s{}",
            self.structure.name(),
            self.mechanism.name(),
            self.mode.name(),
            self.threads,
            self.seed
        )
    }
}

/// What [`run`] produced.
#[derive(Debug, Clone)]
pub struct ProfileRun {
    /// Simulator statistics.
    pub stats: Stats,
    /// Per-`(site, cause)` attribution. Computed online, so it is
    /// exact regardless of event-ring state; the only bounded part is
    /// the per-line sketch, whose eviction count [`render_run`] prints.
    pub blame: BlameTable,
    /// Durability critical-path digest (per-segment cycles, folded
    /// chains, C1/C2 conservation counters).
    pub crit: CritSummary,
}

/// Replays `spec` with blame attribution and returns the profile.
pub fn run(spec: &ProfileSpec) -> ProfileRun {
    let trace = WorkloadSpec::new(spec.structure)
        .initial_size(spec.initial_size)
        .threads(spec.threads)
        .ops_per_thread(spec.ops_per_thread)
        .seed(spec.seed)
        .build_trace();
    let mut cfg = SimConfig::new(spec.mechanism).nvm_mode(spec.mode);
    if let Some(cap) = spec.ret_capacity {
        cfg.lrp.ret_capacity = cap;
        cfg.lrp.ret_watermark = cap;
    }
    let result = Sim::new(cfg, &trace)
        .with_recorder(RecorderConfig::summaries_only())
        .run();
    let obs = result.obs.expect("recorder was attached");
    ProfileRun {
        stats: result.stats,
        blame: obs.blame,
        crit: obs.crit,
    }
}

/// Renders one run's critical-path attribution: the per-segment table
/// (*which causal wait* the release-to-persist cycles were spent on),
/// the folded chain shapes, and the C1/C2 conservation verdict.
pub fn render_critpath(spec: &ProfileSpec, run: &ProfileRun, top: usize) -> String {
    let c = &run.crit;
    let mut out = String::new();
    out.push_str(&format!(
        "critical path {}: {} persists traced, {} cycles release-to-persist \
         (p50 {}, p99 {}, max {})\n",
        spec.id(),
        c.paths(),
        c.total_cycles(),
        c.path.percentile(0.5),
        c.path.percentile(0.99),
        c.max_path,
    ));
    out.push_str(&format!(
        "\nsegments by kind:\n{:<16} {:>8} {:>12} {:>7} {:>8} {:>8} {:>8}\n",
        "segment", "count", "cycles", "share", "p50", "p99", "max"
    ));
    let shares = c.shares();
    let mut rows: Vec<usize> = (0..CritSegKind::ALL.len()).collect();
    rows.sort_by(|&a, &b| {
        c.seg_cycles[b]
            .cmp(&c.seg_cycles[a])
            .then(CritSegKind::ALL[a].name().cmp(CritSegKind::ALL[b].name()))
    });
    for k in rows {
        if c.seg_counts[k] == 0 {
            continue;
        }
        out.push_str(&format!(
            "{:<16} {:>8} {:>12} {:>6.1}% {:>8} {:>8} {:>8}\n",
            CritSegKind::ALL[k].name(),
            c.seg_counts[k],
            c.seg_cycles[k],
            shares[k] * 100.0,
            c.seg_hist[k].percentile(0.5),
            c.seg_hist[k].percentile(0.99),
            c.seg_hist[k].max(),
        ));
    }
    out.push_str(&format!(
        "\nfolded chains (top {top} by cycles{}):\n",
        if c.folded_dropped > 0 {
            format!("; {} chains dropped past the shape cap", c.folded_dropped)
        } else {
            String::new()
        }
    ));
    for line in c.folded_stacks().lines().take(top) {
        out.push_str(&format!("  {line}\n"));
    }
    let (c1, c2) = (c.audit.c1, c.audit.c2);
    out.push_str(&format!(
        "\nconservation: c1 {}/{} (segments sum to measured latency), \
         c2 {}/{} (longest path within wall time)\n",
        c1.checks - c1.violations,
        c1.checks,
        c2.checks - c2.violations,
        c2.checks,
    ));
    if c.audit.total_violations() > 0 {
        out.push_str(&format!(
            "CONSERVATION VIOLATIONS: {}\n",
            c.audit.total_violations()
        ));
    }
    out
}

/// One segment kind's side-by-side comparison in a critical-path diff.
#[derive(Debug, Clone)]
pub struct CritDeltaRow {
    /// The segment kind compared.
    pub kind: CritSegKind,
    /// Cycles charged to the kind in A.
    pub a_cycles: u64,
    /// Cycles charged to the kind in B.
    pub b_cycles: u64,
    /// The kind's share of A's critical-path cycles.
    pub a_share: f64,
    /// The kind's share of B's critical-path cycles.
    pub b_share: f64,
}

impl CritDeltaRow {
    /// Share shift in percentage points (A − B).
    pub fn share_delta(&self) -> f64 {
        self.a_share - self.b_share
    }
}

/// Compares two critical-path digests kind-by-kind, largest absolute
/// share shift first — the edge-level LRP-vs-baseline view.
pub fn crit_diff(a: &CritSummary, b: &CritSummary) -> Vec<CritDeltaRow> {
    let (sa, sb) = (a.shares(), b.shares());
    let mut rows: Vec<CritDeltaRow> = CritSegKind::ALL
        .iter()
        .map(|&kind| {
            let k = kind.idx();
            CritDeltaRow {
                kind,
                a_cycles: a.seg_cycles[k],
                b_cycles: b.seg_cycles[k],
                a_share: sa[k],
                b_share: sb[k],
            }
        })
        .collect();
    rows.sort_by(|x, y| {
        y.share_delta()
            .abs()
            .partial_cmp(&x.share_delta().abs())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(x.kind.name().cmp(y.kind.name()))
    });
    rows
}

/// Renders a differential critical-path profile.
pub fn render_crit_diff(a: &ProfileSpec, b: &ProfileSpec, rows: &[CritDeltaRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "differential critical path: A = {} vs B = {} (share in percentage points)\n",
        a.id(),
        b.id()
    ));
    out.push_str(&format!(
        "{:<16} {:>12} {:>8} {:>12} {:>8} {:>8}\n",
        "segment", "A cycles", "A share", "B cycles", "B share", "delta"
    ));
    for r in rows.iter().filter(|r| r.a_cycles > 0 || r.b_cycles > 0) {
        out.push_str(&format!(
            "{:<16} {:>12} {:>7.1}% {:>12} {:>7.1}% {:>+7.1}pp\n",
            r.kind.name(),
            r.a_cycles,
            r.a_share * 100.0,
            r.b_cycles,
            r.b_share * 100.0,
            r.share_delta() * 100.0,
        ));
    }
    out
}

/// Renders one run's blame tables: exact `(site, cause)` totals plus
/// the per-line heavy hitters from the space-saving sketch.
pub fn render_run(spec: &ProfileSpec, run: &ProfileRun, top: usize) -> String {
    let mut out = String::new();
    let ops_per_cycle = if run.stats.cycles > 0 {
        run.stats.ops as f64 / run.stats.cycles as f64
    } else {
        0.0
    };
    out.push_str(&format!(
        "profile {}: {} cycles, {} ops ({ops_per_cycle:.6} ops/cycle), {} cycles charged\n",
        spec.id(),
        run.stats.cycles,
        run.stats.ops,
        run.blame.total_cycles()
    ));
    out.push_str(&format!(
        "\nblame by (site, cause), top {top} by charged cycles:\n{:<40} {:<6} {:<14} {:>8} {:>12}\n",
        "site", "kind", "cause", "count", "cycles"
    ));
    let mut rows: Vec<_> = run
        .blame
        .exact
        .iter()
        .filter(|(_, c)| c.cycles > 0)
        .collect();
    rows.sort_by(|a, b| b.1.cycles.cmp(&a.1.cycles).then_with(|| a.0.cmp(b.0)));
    for ((site, cause), cell) in rows.into_iter().take(top) {
        out.push_str(&format!(
            "{:<40} {:<6} {:<14} {:>8} {:>12}\n",
            site,
            cause.kind(),
            cause.name(),
            cell.count,
            cell.cycles
        ));
    }
    out.push_str(&format!(
        "\nper-line heavy hitters (sketch: {} keys, {} evictions{}):\n{:<40} {:<14} {:>10} {:>12} {:>8}\n",
        run.blame.sketch.len(),
        run.blame.sketch.evictions(),
        if run.blame.sketch.evictions() == 0 {
            "; weights exact"
        } else {
            "; weights are upper bounds"
        },
        "site",
        "cause",
        "line",
        "cycles",
        "±err"
    ));
    for (key, cell) in run.blame.sketch.top(top) {
        out.push_str(&format!(
            "{:<40} {:<14} {:>#10x} {:>12} {:>8}\n",
            key.site,
            key.cause.name(),
            key.line,
            cell.weight,
            cell.error
        ));
    }
    out
}

/// Profiles the same workload under two mechanisms and returns both
/// runs plus their blame delta, largest attribution shift first.
pub fn run_diff(a: &ProfileSpec, b: &ProfileSpec) -> (ProfileRun, ProfileRun, Vec<BlameDelta>) {
    let ra = run(a);
    let rb = run(b);
    let rows = diff(&ra.blame, &rb.blame);
    (ra, rb, rows)
}

/// Renders a differential profile.
pub fn render_diff(a: &ProfileSpec, b: &ProfileSpec, rows: &[BlameDelta], top: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "differential blame: A = {} vs B = {} (delta = A - B cycles)\n",
        a.id(),
        b.id()
    ));
    out.push_str(&format!(
        "{:<40} {:<6} {:<14} {:>12} {:>12} {:>13}\n",
        "site", "kind", "cause", "A cycles", "B cycles", "delta"
    ));
    for row in rows.iter().filter(|r| r.delta() != 0).take(top) {
        out.push_str(&format!(
            "{:<40} {:<6} {:<14} {:>12} {:>12} {:>+13}\n",
            row.site,
            row.cause.kind(),
            row.cause.name(),
            row.a_cycles,
            row.b_cycles,
            row.delta()
        ));
    }
    out
}

/// Per-metric regression tolerances for [`gate`].
#[derive(Debug, Clone)]
pub struct GateTolerances {
    /// Maximum fractional ops/cycle drop (0.20 = fail below 80% of
    /// baseline throughput).
    pub ops_frac: f64,
    /// Maximum absolute increase of any stall cause's share of total
    /// cycles (0.05 = fail when a cause grows by more than 5 points).
    pub stall_share: f64,
    /// Maximum fractional increase of latency p50/p99 (0.50 = fail
    /// above 150% of baseline).
    pub latency_frac: f64,
    /// When set, only ops/cycle is gated (stall shares and latency
    /// percentiles are reported as informational checks that always
    /// pass). This is the CI posture: fail the build on throughput
    /// regressions only.
    pub ops_only: bool,
}

impl Default for GateTolerances {
    fn default() -> Self {
        GateTolerances {
            ops_frac: 0.20,
            stall_share: 0.05,
            latency_frac: 0.50,
            ops_only: false,
        }
    }
}

fn summary_err(msg: impl Into<String>) -> String {
    format!("bad campaign summary: {}", msg.into())
}

/// The metrics the gate extracts per matrix key.
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
    if doc.get("type").and_then(Json::as_str) != Some("campaign") {
        return Err(summary_err("missing type: \"campaign\""));
    }
    let groups = doc
        .get("groups")
        .and_then(Json::as_arr)
        .ok_or_else(|| summary_err("missing groups array"))?;
    let mut keys = BTreeMap::new();
    for g in groups {
        let structure = g.field_str("structure").map_err(summary_err)?;
        let mode = g.field_str("mode").map_err(summary_err)?;
        let threads = g.field_u64("threads").map_err(summary_err)?;
        let mechs = g
            .get("mechanisms")
            .and_then(Json::as_arr)
            .ok_or_else(|| summary_err("group without mechanisms"))?;
        for m in mechs {
            if m.get("ok").and_then(Json::as_u64).unwrap_or(0) == 0 {
                continue;
            }
            let mech = m.field_str("mechanism").map_err(summary_err)?;
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
                    let h = lrp_obs::metrics::parse_hist(h).map_err(summary_err)?;
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

/// Compares two campaign summaries. Stall shares missing from the
/// current summary count as zero; under `ops_only` everything but
/// ops/cycle is informational.
pub fn gate(baseline: &Json, current: &Json, tol: &GateTolerances) -> Result<GateVerdict, String> {
    let (base, cur) = (extract(baseline)?, extract(current)?);
    let ops = Bound::FracFloor(tol.ops_frac);
    let (stall, latency) = if tol.ops_only {
        (Bound::Info(tol.stall_share), Bound::Info(tol.latency_frac))
    } else {
        (
            Bound::Slack(tol.stall_share),
            Bound::FracCeil(tol.latency_frac),
        )
    };
    let mut v = GateVerdict::default();
    for (key, b, c) in paired(&base, &cur) {
        v.compared += 1;
        if let (Some(b_opc), Some(c_opc)) = (b.ops_per_cycle, c.ops_per_cycle) {
            v.checks.push(ops.check(key, "ops_per_cycle", b_opc, c_opc));
        }
        for (cause, b_share) in &b.stall_shares {
            let c_share = c
                .stall_shares
                .iter()
                .find(|(name, _)| name == cause)
                .map_or(0.0, |&(_, s)| s);
            let metric = format!("stall_share/{cause}");
            v.checks.push(stall.check(key, &metric, *b_share, c_share));
        }
        for (label, b_lat) in &b.latencies {
            let Some(&(_, c_lat)) = c.latencies.iter().find(|(l, _)| l == label) else {
                continue;
            };
            v.checks.push(latency.check(key, label, *b_lat, c_lat));
        }
    }
    Ok(v)
}

/// The gate verdict as a machine-readable JSON document.
pub fn verdict_json(v: &GateVerdict, tol: &GateTolerances) -> Json {
    let tolerances = Json::obj([
        ("ops_frac", Json::F64(tol.ops_frac)),
        ("stall_share", Json::F64(tol.stall_share)),
        ("latency_frac", Json::F64(tol.latency_frac)),
        ("ops_only", Json::Bool(tol.ops_only)),
    ]);
    let header = vec![
        ("compared_keys", Json::U64(v.compared as u64)),
        ("tolerances", tolerances),
    ];
    crate::gate::verdict_json("gate", header, v)
}

/// The quick-scale profile specs used by docs and tests: the cell of
/// `structure` under `mechanism` at the `lrp-eval --quick` shape.
pub fn quick_spec(structure: Structure, mechanism: Mechanism) -> ProfileSpec {
    let cell = Shape::new(true).cell(structure, mechanism, NvmMode::Cached);
    ProfileSpec {
        structure,
        mechanism,
        mode: cell.mode,
        threads: cell.threads,
        ops_per_thread: cell.ops_per_thread,
        initial_size: cell.initial_size,
        seed: cell.seed,
        ret_capacity: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::render_gate;
    use lrp_campaign::{run_campaign, summarize, summary_json, CampaignConfig, MatrixSpec};
    use lrp_obs::blame::BlameCause;

    #[test]
    fn profiled_run_attributes_cycles_to_labeled_sites() {
        let run = run(&quick_spec(Structure::Queue, Mechanism::Lrp));
        assert!(!run.blame.is_empty());
        assert!(
            run.blame
                .exact
                .keys()
                .any(|(site, _)| site.starts_with("queue/")),
            "queue sites must be labeled: {:?}",
            run.blame.exact.keys().collect::<Vec<_>>()
        );
        let rendered = render_run(&quick_spec(Structure::Queue, Mechanism::Lrp), &run, 10);
        assert!(rendered.contains("queue/"));
        assert!(rendered.contains("ops/cycle"));
    }

    #[test]
    fn queue_lrp_vs_bb_differential_shows_mechanism_signatures() {
        // Shrink the RET (watermark = capacity disables proactive
        // drains) so LRP's stall-on-full-table path fires even on the
        // quick workload.
        let mut a = quick_spec(Structure::Queue, Mechanism::Lrp);
        a.ret_capacity = Some(2);
        let b = quick_spec(Structure::Queue, Mechanism::Bb);
        let (ra, rb, rows) = run_diff(&a, &b);
        assert!(!rows.is_empty(), "differential blame table is non-empty");
        assert!(
            ra.blame
                .exact
                .iter()
                .any(|((site, cause), cell)| *cause == BlameCause::RetFull
                    && site.starts_with("queue/")
                    && cell.cycles > 0),
            "LRP must charge RET-full stalls to queue sites: {:?}",
            ra.blame.exact
        );
        assert!(
            rb.blame
                .exact
                .iter()
                .any(|((site, cause), cell)| *cause == BlameCause::BarrierDrain
                    && site.starts_with("queue/")
                    && cell.cycles > 0),
            "BB must charge full-barrier drains to queue sites: {:?}",
            rb.blame.exact
        );
        assert_eq!(rb.blame.cycles_for_cause(BlameCause::RetFull), 0);
        let rendered = render_diff(&a, &b, &rows, 20);
        assert!(rendered.contains("ret_full") || rendered.contains("barrier_drain"));
    }

    #[test]
    fn folded_export_is_loadable_and_site_labeled() {
        let run = run(&quick_spec(Structure::Queue, Mechanism::Lrp));
        let folded = run.blame.folded();
        assert!(folded.lines().count() > 0);
        assert!(folded.contains("queue/"));
        for line in folded.lines() {
            let (stack, count) = line.rsplit_once(' ').unwrap();
            assert_eq!(stack.split(';').count(), 3, "bad folded line {line:?}");
            count.parse::<u64>().unwrap();
        }
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

    /// Multiplies every `merged_stats.cycles` by `num/den`, which moves
    /// ops/cycle by the inverse factor.
    fn scale_merged_cycles(doc: &mut Json, num: u64, den: u64) {
        match doc {
            Json::Obj(pairs) => {
                for (k, v) in pairs.iter_mut() {
                    if k == "merged_stats" {
                        if let Json::Obj(stats) = v {
                            for (sk, sv) in stats.iter_mut() {
                                if sk == "cycles" {
                                    if let Json::U64(n) = sv {
                                        *sv = Json::U64(*n * num / den);
                                    }
                                }
                            }
                        }
                    } else {
                        scale_merged_cycles(v, num, den);
                    }
                }
            }
            Json::Arr(items) => {
                for item in items.iter_mut() {
                    scale_merged_cycles(item, num, den);
                }
            }
            _ => {}
        }
    }

    #[test]
    fn gate_passes_baseline_against_itself_and_fails_a_25pct_regression() {
        let baseline = smoke_summary();
        let tol = GateTolerances::default();

        let self_check = gate(&baseline, &baseline, &tol).unwrap();
        assert!(self_check.pass(), "{}", render_gate(&self_check));
        assert!(self_check.compared > 0);

        // 4/3 more cycles for the same ops => ops/cycle drops 25%,
        // beyond the default 20% tolerance.
        let mut current = baseline.clone();
        scale_merged_cycles(&mut current, 4, 3);
        let v = gate(&baseline, &current, &tol).unwrap();
        assert!(!v.pass());
        assert!(
            v.failures().iter().all(|c| c.metric == "ops_per_cycle"),
            "only throughput regressed: {}",
            render_gate(&v)
        );

        // The same regression with ops-only gating still fails.
        let ops_only = GateTolerances {
            ops_only: true,
            ..GateTolerances::default()
        };
        assert!(!gate(&baseline, &current, &ops_only).unwrap().pass());

        // A tolerance looser than the regression passes.
        let loose = GateTolerances {
            ops_frac: 0.30,
            ..GateTolerances::default()
        };
        assert!(gate(&baseline, &current, &loose).unwrap().pass());
    }

    #[test]
    fn gate_verdict_json_is_machine_readable() {
        let baseline = smoke_summary();
        let tol = GateTolerances::default();
        let v = gate(&baseline, &baseline, &tol).unwrap();
        let doc = Json::parse(&verdict_json(&v, &tol).to_pretty()).unwrap();
        assert_eq!(doc.get("type").and_then(Json::as_str), Some("gate"));
        assert_eq!(doc.get("pass").and_then(Json::as_bool), Some(true));
        assert!(doc.get("checks").and_then(Json::as_arr).is_some());
        assert_eq!(
            doc.get("tolerances")
                .and_then(|t| t.get("ops_frac"))
                .and_then(Json::as_f64),
            Some(0.20)
        );
    }

    #[test]
    fn gate_rejects_non_campaign_documents() {
        let junk = Json::obj([("type", Json::Str("gate".to_string()))]);
        assert!(gate(&junk, &junk, &GateTolerances::default()).is_err());
    }

    #[test]
    fn attribution_does_not_change_simulated_timing() {
        // The profiler's recorder must be timing-invisible: the same
        // spec with and without the recorder yields identical stats.
        let spec = quick_spec(Structure::Queue, Mechanism::Lrp);
        let trace = WorkloadSpec::new(spec.structure)
            .initial_size(spec.initial_size)
            .threads(spec.threads)
            .ops_per_thread(spec.ops_per_thread)
            .seed(spec.seed)
            .build_trace();
        let cfg = SimConfig::new(spec.mechanism).nvm_mode(spec.mode);
        let plain = Sim::new(cfg.clone(), &trace).run();
        let profiled = run(&spec);
        assert_eq!(plain.stats, profiled.stats);
    }

    #[test]
    fn critpath_render_reports_segments_and_clean_conservation() {
        let spec = quick_spec(Structure::Queue, Mechanism::Lrp);
        let r = run(&spec);
        assert!(!r.crit.is_empty(), "LRP quick run must trace releases");
        assert_eq!(r.crit.audit.total_violations(), 0);
        let rendered = render_critpath(&spec, &r, 10);
        assert!(rendered.contains("nvm_queue"), "{rendered}");
        assert!(rendered.contains("conservation"), "{rendered}");
        assert!(!rendered.contains("CONSERVATION VIOLATIONS"), "{rendered}");
    }

    #[test]
    fn critpath_diff_orders_by_share_shift_and_shows_mechanism_signatures() {
        let a = quick_spec(Structure::Queue, Mechanism::Lrp);
        let b = quick_spec(Structure::Queue, Mechanism::Bb);
        let (ra, rb) = (run(&a), run(&b));
        // BB drains the store buffer at every release boundary; LRP
        // defers, so barrier_drain cycles belong to B only.
        assert_eq!(
            ra.crit.seg_cycles[CritSegKind::BarrierDrain.idx()],
            0,
            "LRP issues no full-barrier drains"
        );
        let rows = crit_diff(&ra.crit, &rb.crit);
        assert_eq!(rows.len(), CritSegKind::ALL.len());
        for pair in rows.windows(2) {
            assert!(
                pair[0].share_delta().abs() >= pair[1].share_delta().abs(),
                "rows sorted by |share shift|"
            );
        }
        let rendered = render_crit_diff(&a, &b, &rows);
        assert!(
            rendered.contains("differential critical path"),
            "{rendered}"
        );
        assert!(rendered.contains("nvm_queue"), "{rendered}");
    }
}
