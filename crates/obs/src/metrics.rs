//! JSONL metrics exporter, plus the canonical `Stats` and `Hist` JSON
//! encodings shared with the campaign aggregator's manifests.
//!
//! The stream is line-oriented: one `obs-header` line, one `interval`
//! line per time-series sample, one `hist` line per latency histogram,
//! one `audit` line, and a final `aggregate` line carrying the run's
//! end-of-run [`Stats`] in exactly the encoding campaign manifests use
//! — so campaign tooling can consume either source interchangeably.

use crate::audit::InvariantAudit;
use crate::hist::{Hist, BUCKETS};
use crate::json::Json;
use crate::recorder::ObsReport;
use crate::series::IntervalSample;
use crate::stats::{FlushClass, StallCause, Stats};

/// Metrics stream format version; bump on breaking layout changes.
pub const METRICS_VERSION: u64 = 1;

/// The canonical JSON encoding of [`Stats`] (used verbatim by campaign
/// manifests and the `aggregate` line of the metrics stream).
pub fn stats_json(s: &Stats) -> Json {
    Json::obj([
        ("cycles", Json::U64(s.cycles)),
        ("ops", Json::U64(s.ops)),
        ("load_hits", Json::U64(s.load_hits)),
        ("load_misses", Json::U64(s.load_misses)),
        ("stores", Json::U64(s.stores)),
        ("downgrades", Json::U64(s.downgrades)),
        ("evictions", Json::U64(s.evictions)),
        (
            "flushes",
            Json::Obj(
                s.flushes_by_class()
                    .iter()
                    .map(|&(c, n)| (c.name().to_string(), Json::U64(n)))
                    .collect(),
            ),
        ),
        ("covered_writes", Json::U64(s.covered_writes)),
        (
            "stalls",
            Json::Obj(
                s.stalls_by_cause()
                    .iter()
                    .map(|&(c, n)| (c.name().to_string(), Json::U64(n)))
                    .collect(),
            ),
        ),
        ("noc_messages", Json::U64(s.noc_messages)),
        ("nvm_requests", Json::U64(s.nvm_requests)),
        ("engine_runs", Json::U64(s.engine_runs)),
    ])
}

/// Parses the [`stats_json`] encoding back into [`Stats`].
pub fn parse_stats(doc: &Json) -> Result<Stats, String> {
    let mut s = Stats {
        cycles: doc.field_u64("cycles")?,
        ops: doc.field_u64("ops")?,
        load_hits: doc.field_u64("load_hits")?,
        load_misses: doc.field_u64("load_misses")?,
        stores: doc.field_u64("stores")?,
        downgrades: doc.field_u64("downgrades")?,
        evictions: doc.field_u64("evictions")?,
        covered_writes: doc.field_u64("covered_writes")?,
        noc_messages: doc.field_u64("noc_messages")?,
        nvm_requests: doc.field_u64("nvm_requests")?,
        engine_runs: doc.field_u64("engine_runs")?,
        ..Stats::default()
    };
    let flushes = doc
        .get("flushes")
        .ok_or_else(|| "missing field \"flushes\"".to_string())?;
    for class in FlushClass::ALL {
        let n = flushes.field_u64(class.name())?;
        // Zero counts stay out of the map, matching how `record_flush`
        // populates it.
        if n > 0 {
            s.flushes.insert(class, n);
        }
    }
    let stalls = doc
        .get("stalls")
        .ok_or_else(|| "missing field \"stalls\"".to_string())?;
    for cause in StallCause::ALL {
        let n = stalls.field_u64(cause.name())?;
        if n > 0 {
            s.stalls.insert(cause, n);
        }
    }
    Ok(s)
}

/// The canonical JSON encoding of a [`Hist`].
pub fn hist_json(h: &Hist) -> Json {
    Json::obj([
        ("count", Json::U64(h.count)),
        ("sum", Json::U64(h.sum)),
        ("min", Json::U64(h.min())),
        ("max", Json::U64(h.max())),
        ("mean", Json::F64(h.mean())),
        ("p50", Json::U64(h.percentile(0.5))),
        ("p99", Json::U64(h.percentile(0.99))),
        (
            "buckets",
            Json::Arr(h.buckets.iter().map(|&n| Json::U64(n)).collect()),
        ),
    ])
}

/// Parses the [`hist_json`] encoding back into a [`Hist`].
pub fn parse_hist(doc: &Json) -> Result<Hist, String> {
    let arr = doc
        .get("buckets")
        .and_then(Json::as_arr)
        .ok_or_else(|| "missing field \"buckets\"".to_string())?;
    if arr.len() != BUCKETS {
        return Err(format!("expected {BUCKETS} buckets, got {}", arr.len()));
    }
    let mut buckets = [0u64; BUCKETS];
    for (slot, v) in buckets.iter_mut().zip(arr) {
        *slot = v.as_u64().ok_or_else(|| "non-integer bucket".to_string())?;
    }
    Ok(Hist::from_parts(
        doc.field_u64("count")?,
        doc.field_u64("sum")?,
        doc.field_u64("min")?,
        doc.field_u64("max")?,
        buckets,
    ))
}

fn interval_json(s: &IntervalSample) -> Json {
    Json::obj([
        ("type", Json::Str("interval".to_string())),
        ("start", Json::U64(s.start)),
        ("end", Json::U64(s.end)),
        ("ops", Json::U64(s.ops)),
        (
            "flushes",
            Json::Obj(
                FlushClass::ALL
                    .iter()
                    .zip(s.flushes.iter())
                    .map(|(c, &n)| (c.name().to_string(), Json::U64(n)))
                    .collect(),
            ),
        ),
        (
            "stalls",
            Json::Obj(
                StallCause::ALL
                    .iter()
                    .zip(s.stalls.iter())
                    .map(|(c, &n)| (c.name().to_string(), Json::U64(n)))
                    .collect(),
            ),
        ),
        ("noc_messages", Json::U64(s.noc_messages)),
        ("nvm_requests", Json::U64(s.nvm_requests)),
        ("ret_high_water", Json::U64(s.ret_high_water as u64)),
    ])
}

/// One stderr warning per drained ring (never one per drop): prints
/// nothing when `dropped` is zero, otherwise a single aggregate line
/// naming the ring. Returns the number of per-drop warnings the single
/// line stands in for — the dedup count recorded in the JSONL export.
pub fn warn_ring_drops(ring: &str, dropped: u64) -> u64 {
    if dropped == 0 {
        return 0;
    }
    eprintln!(
        "WARNING: {ring} ring dropped {dropped} event(s); \
         raise its capacity for complete traces \
         (histograms, audits, blame, and critical paths are computed \
         online and stay exact)"
    );
    dropped.saturating_sub(1)
}

fn audit_json(audit: &InvariantAudit) -> Json {
    let mut pairs = vec![("type", Json::Str("audit".to_string()))];
    pairs.extend(audit.json_rows());
    pairs.push(("total_violations", Json::U64(audit.total_violations())));
    Json::obj(pairs)
}

/// Renders the full JSONL metrics stream for one run.
pub fn export_jsonl(report: &ObsReport, stats: &Stats) -> String {
    let header = Json::obj([
        ("type", Json::Str("obs-header".to_string())),
        ("format_version", Json::U64(METRICS_VERSION)),
        ("sample_every", Json::U64(report.sample_every)),
        ("cores", Json::U64(report.ncores as u64)),
        ("events_recorded", Json::U64(report.events.len() as u64)),
        ("events_dropped", Json::U64(report.dropped)),
        // Per-drop warnings coalesced into the single stderr line (see
        // `warn_ring_drops`): drops minus the one warning printed.
        (
            "drop_warnings_deduped",
            Json::U64(report.dropped.saturating_sub(1)),
        ),
        ("ret_high_water", Json::U64(report.ret_high_water as u64)),
    ]);
    let summary = &report.summary;
    let mut lines = vec![header];
    lines.extend(report.intervals.iter().map(interval_json));
    for (name, hist) in summary.hist_rows() {
        let mut doc = vec![
            ("type".to_string(), Json::Str("hist".to_string())),
            ("name".to_string(), Json::Str(name.to_string())),
        ];
        if let Json::Obj(pairs) = hist_json(hist) {
            doc.extend(pairs);
        }
        lines.push(Json::Obj(doc));
    }
    lines.push(audit_json(&summary.audit));
    lines.push(Json::obj([
        ("type", Json::Str("critpath".to_string())),
        ("critpath", crate::critpath::crit_json(&summary.crit)),
    ]));
    lines.push(Json::obj([
        ("type", Json::Str("blame".to_string())),
        ("blame", crate::blame::blame_json(&summary.blame)),
    ]));
    lines.push(Json::obj([
        ("type", Json::Str("aggregate".to_string())),
        ("stats", stats_json(stats)),
    ]));
    lines.iter().map(|l| l.to_compact() + "\n").collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::critpath::CritSegKind;
    use crate::recorder::{Recorder, RecorderConfig};

    fn recorder(cfg: RecorderConfig, names: &[&str]) -> Recorder {
        let names = names.iter().map(|n| n.to_string()).collect();
        Recorder::new(cfg, 1, names, CritSegKind::ReleaseOrder)
    }

    fn sample_stats() -> Stats {
        let mut s = Stats {
            cycles: 1000,
            ops: 64,
            load_hits: 40,
            load_misses: 8,
            stores: 16,
            noc_messages: 200,
            nvm_requests: 12,
            engine_runs: 3,
            covered_writes: 20,
            ..Stats::default()
        };
        s.record_flush(FlushClass::Critical, 2);
        s.record_flush(FlushClass::Background, 1);
        s.record_stall(StallCause::PersistAck, 77);
        s
    }

    #[test]
    fn stats_encoding_round_trips() {
        let s = sample_stats();
        let back = parse_stats(&stats_json(&s)).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn hist_encoding_round_trips() {
        let mut h = Hist::new();
        for v in [0, 1, 120, 350, 4096] {
            h.record(v);
        }
        let back = parse_hist(&hist_json(&h)).unwrap();
        assert_eq!(back, h);
        assert_eq!(parse_hist(&hist_json(&Hist::new())).unwrap(), Hist::new());
    }

    #[test]
    fn stream_lines_all_parse_and_cover_all_types() {
        let cfg = RecorderConfig {
            ring_capacity: 16,
            sample_every: 100,
        };
        let mut r = Recorder::new(cfg, 2, Vec::new(), CritSegKind::ReleaseOrder);
        let stats = sample_stats();
        r.release_committed(5, 9);
        r.flush_issue(10, 0, 0x40, FlushClass::Critical, 0, &[9]);
        r.flush_ack(130, 0, 0x40);
        r.persisted(130, &[9]);
        r.maybe_sample(150, &stats);
        let text = export_jsonl(&r.finish(1000, &stats), &stats);
        let mut types = Vec::new();
        for line in text.lines() {
            let doc = Json::parse(line).unwrap();
            types.push(doc.get("type").unwrap().as_str().unwrap().to_string());
        }
        assert_eq!(types[0], "obs-header");
        assert!(types.iter().filter(|t| *t == "interval").count() >= 2);
        assert_eq!(types.iter().filter(|t| *t == "hist").count(), 3);
        assert_eq!(types[types.len() - 4], "audit");
        assert_eq!(types[types.len() - 3], "critpath");
        assert_eq!(types[types.len() - 2], "blame");
        assert_eq!(types[types.len() - 1], "aggregate");
    }

    #[test]
    fn critpath_line_round_trips_through_the_stream() {
        let mut r = recorder(RecorderConfig::summaries_only(), &[]);
        r.release_committed(50, 7);
        r.flush_issue(80, 0, 0x40, FlushClass::Critical, 0, &[7]);
        r.persisted(200, &[7]);
        let report = r.finish(1000, &Stats::default());
        let text = export_jsonl(&report, &Stats::default());
        let line = text
            .lines()
            .find(|l| l.contains("\"type\":\"critpath\""))
            .expect("critpath line present");
        let doc = Json::parse(line).unwrap();
        let back = crate::critpath::parse_crit(doc.get("critpath").unwrap()).unwrap();
        assert_eq!(back, report.summary.crit);
    }

    #[test]
    fn drop_dedup_count_is_drops_minus_the_one_warning() {
        assert_eq!(warn_ring_drops("obs", 0), 0); // silent: nothing dropped
        assert_eq!(warn_ring_drops("obs", 1), 0); // one warning for one drop
        assert_eq!(warn_ring_drops("obs", 17), 16); // 16 duplicates deduped
        let cfg = RecorderConfig {
            ring_capacity: 1,
            sample_every: 0,
        };
        let mut r = recorder(cfg, &[]);
        for t in 0..5 {
            r.stall_begin(t, 0, StallCause::LoadMiss);
        }
        let report = r.finish(10, &Stats::default());
        let text = export_jsonl(&report, &Stats::default());
        let header = Json::parse(text.lines().next().unwrap()).unwrap();
        assert_eq!(header.get("events_dropped").unwrap().as_u64(), Some(4));
        assert_eq!(
            header.get("drop_warnings_deduped").unwrap().as_u64(),
            Some(3)
        );
    }

    #[test]
    fn blame_line_round_trips_through_the_stream() {
        let mut r = recorder(
            RecorderConfig::summaries_only(),
            &["unknown", "queue/enqueue"],
        );
        r.flush_issue(10, 0, 0x40, FlushClass::Critical, 1, &[]);
        r.flush_ack(130, 0, 0x40);
        let report = r.finish(1000, &Stats::default());
        let text = export_jsonl(&report, &Stats::default());
        let line = text
            .lines()
            .find(|l| l.contains("\"type\":\"blame\""))
            .expect("blame line present");
        let doc = Json::parse(line).unwrap();
        let back = crate::blame::parse_blame(doc.get("blame").unwrap()).unwrap();
        assert_eq!(back, report.summary.blame);
    }
}
