//! The single-run profiler behind the `lrp-profile` binary.
//!
//! Two views of instrumented replays ([`run`]) of one workload trace:
//!
//! * [`render_report`] — everything one run reports: the simulator's
//!   stat dump, the observability histograms, the I1–I4 audit, the
//!   durability critical path ([`render_critpath`]) and the blame
//!   tables ([`render_blame`]);
//! * [`render_diff`] — the same trace under two mechanisms, as the
//!   per-`(site, cause)` blame delta and the critical-path segment share
//!   shift. This is the LRP-vs-baseline view: RET-full drains show up
//!   under LRP sites, full-barrier drains under BB/SB sites.

use lrp_model::Trace;
use lrp_obs::blame::diff;
use lrp_obs::{BlameTable, CritSegKind, CritSummary, ObsReport, RecorderConfig};
use lrp_sim::{Mechanism, NvmMode, RunResult, Sim, SimConfig, Stats};
use std::fmt::Write as _;

/// The simulator configuration of a profile: `mechanism` in `mode`,
/// with the RET shrunk to `ret_capacity` when given. Pinning the
/// watermark to the capacity disables proactive drains, which forces
/// the stall-on-full-table path and makes RET pressure visible on small
/// workloads.
pub fn sim_config(mechanism: Mechanism, mode: NvmMode, ret_capacity: Option<usize>) -> SimConfig {
    let mut cfg = SimConfig::new(mechanism).nvm_mode(mode);
    if let Some(cap) = ret_capacity {
        cfg.lrp.ret_capacity = cap;
        cfg.lrp.ret_watermark = cap;
    }
    cfg
}

/// Replays `trace` under `cfg` with the default recorder (event ring
/// on) sampling every `sample_every` cycles (0 = no time series). Blame,
/// audits and critical paths are computed online, so they are exact
/// whatever the ring dropped.
pub fn run(trace: &Trace, cfg: SimConfig, sample_every: u64) -> RunResult {
    let rec = RecorderConfig {
        sample_every,
        ..RecorderConfig::default()
    };
    Sim::new(cfg, trace).with_recorder(rec).run()
}

/// The recorder report of a run [`run`] returned.
pub fn obs(r: &RunResult) -> &ObsReport {
    r.obs.as_ref().expect("profiles attach a recorder")
}

/// Renders everything one profiled run reports, each section under a
/// `-- name --` header: the stat dump, the observability summary
/// (event ring, histograms), the I1–I4 audit, the durability critical
/// path and the blame tables. `id` names the run.
pub fn render_report(id: &str, r: &RunResult, top: usize) -> String {
    let obs = obs(r);
    let mut out = lrp_sim::report::render(id, r);
    out.push_str("-- observability --\n");
    let _ = writeln!(
        out,
        "events captured        {:>12} (dropped {})",
        obs.events.len(),
        obs.dropped
    );
    let _ = writeln!(out, "sample intervals       {:>12}", obs.intervals.len());
    let _ = writeln!(out, "ret high water         {:>12}", obs.ret_high_water);
    for (name, hist) in obs.summary.hist_rows() {
        if hist.is_empty() {
            let _ = writeln!(out, "  {name:<20} (no samples)");
        } else {
            let _ = writeln!(
                out,
                "  {:<20} n={} mean={:.1} p50={} p99={} max={}",
                name,
                hist.count,
                hist.mean(),
                hist.percentile(0.5),
                hist.percentile(0.99),
                hist.max()
            );
        }
    }
    out.push_str("-- invariant audit (I1-I4) --\n");
    for (name, c) in obs.summary.audit.rows() {
        let _ = writeln!(
            out,
            "  {name:<20} checks={:<8} violations={}",
            c.checks, c.violations
        );
    }
    out.push_str("-- durability critical path --\n");
    out.push_str(&render_critpath(id, &obs.summary.crit, top));
    out.push_str("-- persist blame --\n");
    out.push_str(&render_blame(id, &r.stats, &obs.summary.blame, top));
    out
}

/// Renders one run's critical-path attribution: the per-segment table
/// (*which causal wait* the release-to-persist cycles were spent on),
/// the folded chain shapes, and the C1/C2 conservation verdict.
pub fn render_critpath(id: &str, c: &CritSummary, top: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "critical path {}: {} persists traced, {} cycles release-to-persist \
         (p50 {}, p99 {}, max {})\n",
        id,
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

/// Renders one run's blame tables: exact `(site, cause)` totals plus
/// the per-line heavy hitters from the space-saving sketch. The
/// `(site, cause)` totals are exact whatever the recorder dropped; the
/// sketch is the one bounded part, and its eviction count is printed.
pub fn render_blame(id: &str, stats: &Stats, blame: &BlameTable, top: usize) -> String {
    let mut out = String::new();
    let ops_per_cycle = if stats.cycles > 0 {
        stats.ops as f64 / stats.cycles as f64
    } else {
        0.0
    };
    out.push_str(&format!(
        "profile {}: {} cycles, {} ops ({ops_per_cycle:.6} ops/cycle), {} cycles charged\n",
        id,
        stats.cycles,
        stats.ops,
        blame.total_cycles()
    ));
    out.push_str(&format!(
        "\nblame by (site, cause), top {top} by charged cycles:\n{:<40} {:<6} {:<14} {:>8} {:>12}\n",
        "site", "kind", "cause", "count", "cycles"
    ));
    let mut rows: Vec<_> = blame.exact.iter().filter(|(_, c)| c.cycles > 0).collect();
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
        blame.sketch.len(),
        blame.sketch.evictions(),
        if blame.sketch.evictions() == 0 {
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
    for (key, cell) in blame.sketch.top(top) {
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

/// Renders a differential profile of two runs of one trace: the blame
/// delta per `(site, cause)`, largest attribution shift first (the top
/// `top` nonzero rows), then the critical-path share shift per segment
/// kind ([`crit_diff`]).
pub fn render_diff(a_id: &str, a: &RunResult, b_id: &str, b: &RunResult, top: usize) -> String {
    let (a, b) = (&obs(a).summary, &obs(b).summary);
    let mut out = String::new();
    out.push_str(&format!(
        "differential blame: A = {a_id} vs B = {b_id} (delta = A - B cycles)\n"
    ));
    out.push_str(&format!(
        "{:<40} {:<6} {:<14} {:>12} {:>12} {:>13}\n",
        "site", "kind", "cause", "A cycles", "B cycles", "delta"
    ));
    for row in diff(&a.blame, &b.blame)
        .iter()
        .filter(|r| r.delta() != 0)
        .take(top)
    {
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
    out.push_str(&format!(
        "\ndifferential critical path: A = {a_id} vs B = {b_id} (share in percentage points)\n"
    ));
    out.push_str(&format!(
        "{:<16} {:>12} {:>8} {:>12} {:>8} {:>8}\n",
        "segment", "A cycles", "A share", "B cycles", "B share", "delta"
    ));
    for r in crit_diff(&a.crit, &b.crit)
        .iter()
        .filter(|r| r.a_cycles > 0 || r.b_cycles > 0)
    {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::Shape;
    use lrp_campaign::{build_trace, CellSpec};
    use lrp_lfds::Structure;
    use lrp_obs::blame::BlameCause;

    /// The queue cell under `mechanism` at the `lrp-eval --quick` shape.
    fn quick_queue(mechanism: Mechanism) -> CellSpec {
        Shape::new(true).cell(Structure::Queue, mechanism, NvmMode::Cached)
    }

    /// Profiles `cell` with the RET override, returning its id and run.
    fn profiled(cell: &CellSpec, ret_capacity: Option<usize>) -> (String, RunResult) {
        let cfg = sim_config(cell.mechanism, cell.mode, ret_capacity);
        (cell.id(), run(&build_trace(cell), cfg, 0))
    }

    #[test]
    fn profiled_run_attributes_cycles_to_labeled_sites() {
        let (id, r) = profiled(&quick_queue(Mechanism::Lrp), None);
        let blame = &obs(&r).summary.blame;
        assert!(!blame.is_empty());
        assert!(
            blame
                .exact
                .keys()
                .any(|(site, _)| site.starts_with("queue/")),
            "queue sites must be labeled: {:?}",
            blame.exact.keys().collect::<Vec<_>>()
        );
        let rendered = render_blame(&id, &r.stats, blame, 10);
        assert!(rendered.contains("queue/"));
        assert!(rendered.contains("ops/cycle"));
    }

    #[test]
    fn report_renders_every_section_in_order() {
        let (id, r) = profiled(&quick_queue(Mechanism::Lrp), None);
        let rendered = render_report(&id, &r, 10);
        let at = |section: &str| {
            rendered
                .find(section)
                .unwrap_or_else(|| panic!("missing {section}:\n{rendered}"))
        };
        let order = [
            "==== run report: queue/lrp/cached/t4/s42 ====",
            "-- observability --",
            "-- invariant audit (I1-I4) --",
            "-- durability critical path --",
            "critical path queue/lrp/cached/t4/s42:",
            "-- persist blame --",
            "profile queue/lrp/cached/t4/s42:",
        ];
        for pair in order.windows(2) {
            assert!(at(pair[0]) < at(pair[1]), "{pair:?} out of order");
        }
    }

    #[test]
    fn queue_lrp_vs_bb_differential_shows_mechanism_signatures() {
        // Shrink the RET (watermark = capacity disables proactive
        // drains) so LRP's stall-on-full-table path fires even on the
        // quick workload.
        let (a_id, ra) = profiled(&quick_queue(Mechanism::Lrp), Some(2));
        let (b_id, rb) = profiled(&quick_queue(Mechanism::Bb), None);
        let (oa, ob) = (&obs(&ra).summary, &obs(&rb).summary);
        assert!(
            !diff(&oa.blame, &ob.blame).is_empty(),
            "differential blame table is non-empty"
        );
        assert!(
            oa.blame
                .exact
                .iter()
                .any(|((site, cause), cell)| *cause == BlameCause::RetFull
                    && site.starts_with("queue/")
                    && cell.cycles > 0),
            "LRP must charge RET-full stalls to queue sites: {:?}",
            oa.blame.exact
        );
        assert!(
            ob.blame
                .exact
                .iter()
                .any(|((site, cause), cell)| *cause == BlameCause::BarrierDrain
                    && site.starts_with("queue/")
                    && cell.cycles > 0),
            "BB must charge full-barrier drains to queue sites: {:?}",
            ob.blame.exact
        );
        assert_eq!(ob.blame.cycles_for_cause(BlameCause::RetFull), 0);
        let rendered = render_diff(&a_id, &ra, &b_id, &rb, 20);
        assert!(rendered.contains("ret_full") || rendered.contains("barrier_drain"));
    }

    #[test]
    fn folded_export_is_loadable_and_site_labeled() {
        let (_, r) = profiled(&quick_queue(Mechanism::Lrp), None);
        let folded = obs(&r).summary.blame.folded();
        assert!(folded.lines().count() > 0);
        assert!(folded.contains("queue/"));
        for line in folded.lines() {
            let (stack, count) = line.rsplit_once(' ').unwrap();
            assert_eq!(stack.split(';').count(), 3, "bad folded line {line:?}");
            count.parse::<u64>().unwrap();
        }
    }

    #[test]
    fn attribution_does_not_change_simulated_timing() {
        // The profiler's recorder must be timing-invisible: the same
        // cell with and without the recorder yields identical stats.
        let cell = quick_queue(Mechanism::Lrp);
        let cfg = sim_config(cell.mechanism, cell.mode, None);
        let plain = Sim::new(cfg, &build_trace(&cell)).run();
        let (_, profiled) = profiled(&cell, None);
        assert_eq!(plain.stats, profiled.stats);
    }

    #[test]
    fn critpath_render_reports_segments_and_clean_conservation() {
        let (id, r) = profiled(&quick_queue(Mechanism::Lrp), None);
        let crit = &obs(&r).summary.crit;
        assert!(!crit.is_empty(), "LRP quick run must trace releases");
        assert_eq!(crit.audit.total_violations(), 0);
        let rendered = render_critpath(&id, crit, 10);
        assert!(rendered.contains("nvm_queue"), "{rendered}");
        assert!(rendered.contains("conservation"), "{rendered}");
        assert!(!rendered.contains("CONSERVATION VIOLATIONS"), "{rendered}");
    }

    #[test]
    fn critpath_diff_orders_by_share_shift_and_shows_mechanism_signatures() {
        let (a_id, ra) = profiled(&quick_queue(Mechanism::Lrp), None);
        let (b_id, rb) = profiled(&quick_queue(Mechanism::Bb), None);
        let (ca, cb) = (&obs(&ra).summary.crit, &obs(&rb).summary.crit);
        // BB drains the store buffer at every release boundary; LRP
        // defers, so barrier_drain cycles belong to B only.
        assert_eq!(
            ca.seg_cycles[CritSegKind::BarrierDrain.idx()],
            0,
            "LRP issues no full-barrier drains"
        );
        let rows = crit_diff(ca, cb);
        assert_eq!(rows.len(), CritSegKind::ALL.len());
        for pair in rows.windows(2) {
            assert!(
                pair[0].share_delta().abs() >= pair[1].share_delta().abs(),
                "rows sorted by |share shift|"
            );
        }
        let rendered = render_diff(&a_id, &ra, &b_id, &rb, 20);
        assert!(
            rendered.contains("differential critical path"),
            "{rendered}"
        );
        assert!(rendered.contains("nvm_queue"), "{rendered}");
    }
}
