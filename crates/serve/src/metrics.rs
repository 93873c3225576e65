//! JSONL metrics export for the serving layer.
//!
//! The stream extends the workspace's metrics vocabulary (see
//! `lrp_obs::metrics`) with three service-level record types:
//!
//! * `serve-header` — one line: the server's static configuration;
//! * `serve-shard` — one line per shard: lifetime counters, the merged
//!   simulator [`Stats`], and the three persist-latency histograms;
//! * `serve-interval` — per-shard time series from a
//!   [`GaugeSeries`](lrp_obs::GaugeSeries): queue-depth high-water and
//!   enqueue/shed/complete/batch counter deltas per wall-clock window.
//!
//! It also renders the crash dump a restarting shard writes
//! ([`flight_dump_jsonl`]).

use crate::shard::{CrashOutcome, ShardCounters, ShardReq};
use lrp_obs::metrics::{hist_json, stats_json};
use lrp_obs::span::{span_json, SpanLog};
use lrp_obs::{CritSegKind, CritSummary, GaugeSample, Hist, Json, Stats};

/// Version of the `serve-header` and `serve-metrics` layouts; bump on
/// breaking changes. Kept apart from the simulator stream's
/// [`METRICS_VERSION`](lrp_obs::metrics::METRICS_VERSION) so each
/// layout versions independently.
pub const SERVE_METRICS_VERSION: u64 = 2;

/// Names for the four [`lrp_obs::GAUGE_COUNTERS`] slots the serving
/// layer uses, in slot order.
pub const GAUGE_SLOT_NAMES: [&str; 4] = ["enqueued", "shed", "completed", "batches"];

/// Counter slot: requests admitted to a shard queue.
pub const SLOT_ENQUEUED: usize = 0;
/// Counter slot: requests rejected by admission control.
pub const SLOT_SHED: usize = 1;
/// Counter slot: requests answered (any reply type).
pub const SLOT_COMPLETED: usize = 2;
/// Counter slot: batches executed.
pub const SLOT_BATCHES: usize = 3;

/// The `serve-header` line.
#[allow(clippy::too_many_arguments)]
pub fn header_json(
    shards: usize,
    structure: &str,
    mechanism: &str,
    nvm_mode: &str,
    sim_threads: u64,
    batch_max: u64,
    batch_wait_ms: u64,
    queue_depth: u64,
) -> Json {
    Json::obj([
        ("record", Json::Str("serve-header".into())),
        ("version", Json::U64(SERVE_METRICS_VERSION)),
        ("shards", Json::U64(shards as u64)),
        ("structure", Json::Str(structure.into())),
        ("mechanism", Json::Str(mechanism.into())),
        ("nvm_mode", Json::Str(nvm_mode.into())),
        ("sim_threads", Json::U64(sim_threads)),
        ("batch_max", Json::U64(batch_max)),
        ("batch_wait_ms", Json::U64(batch_wait_ms)),
        ("queue_depth", Json::U64(queue_depth)),
    ])
}

/// Counters as a JSON object (shared by `serve-shard` lines and the
/// `Metrics` admin reply).
pub fn counters_json(c: &ShardCounters) -> Json {
    Json::obj([
        ("requests", Json::U64(c.requests)),
        ("batches", Json::U64(c.batches)),
        ("acked_durable", Json::U64(c.acked_durable)),
        ("nondurable", Json::U64(c.nondurable)),
        ("downgrades", Json::U64(c.downgrades)),
        ("crashes", Json::U64(c.crashes)),
        ("recovery_failures", Json::U64(c.recovery_failures)),
        ("lost_acked", Json::U64(c.lost_acked)),
        ("obs_dropped", Json::U64(c.obs_dropped)),
        ("slot_torn", Json::U64(c.slot_torn)),
        ("compactions", Json::U64(c.compactions)),
        ("key_mismatches", Json::U64(c.key_mismatches)),
    ])
}

/// Detectable-operation state for one shard inside the `serve-metrics`
/// snapshot: slot-table occupancy, resolver size, the verdict split of
/// answered `Resolve` requests, and their service latency.
#[derive(Debug, Clone, Default)]
pub struct DetectStats {
    /// Committed slot records currently held.
    pub slot_occupied: u64,
    /// Slot-table capacity (`clients × ring`; 0 = detection off).
    pub slot_capacity: u64,
    /// Rids the current resolver answers `Done` for.
    pub resolver_entries: u64,
    /// `Resolve` requests answered `done = true`.
    pub resolved_done: u64,
    /// `Resolve` requests answered `done = false`.
    pub resolved_not_started: u64,
    /// Wire-to-reply latency of `Resolve` requests (µs).
    pub resolve_latency: Hist,
}

/// The `detect` section of one shard's `serve-metrics` entry.
pub fn detect_json(d: &DetectStats) -> Json {
    Json::obj([
        ("slot_occupied", Json::U64(d.slot_occupied)),
        ("slot_capacity", Json::U64(d.slot_capacity)),
        ("resolver_entries", Json::U64(d.resolver_entries)),
        ("resolved_done", Json::U64(d.resolved_done)),
        ("resolved_not_started", Json::U64(d.resolved_not_started)),
        ("resolve_latency_us", hist_json(&d.resolve_latency)),
    ])
}

/// Live telemetry counts for one shard inside the `serve-metrics`
/// snapshot (the `Metrics` admin reply).
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardTelemetry {
    /// Request spans currently retained in the shard's span log.
    pub spans: u64,
    /// Spans evicted or refused by the bounded span log.
    pub span_dropped: u64,
}

/// The compact per-shard critical-path digest inside the
/// `serve-metrics` snapshot: per-segment cycle totals plus the
/// conservation verdict (full histograms stay in the JSONL export).
pub fn crit_totals_json(crit: &CritSummary) -> Json {
    let mut segs = Vec::with_capacity(CritSegKind::ALL.len());
    for kind in CritSegKind::ALL {
        segs.push((kind.name(), Json::U64(crit.seg_cycles[kind.idx()])));
    }
    Json::obj([
        ("paths", Json::U64(crit.paths())),
        ("cycles", Json::U64(crit.total_cycles())),
        ("max_path", Json::U64(crit.max_path)),
        ("segments", Json::obj(segs)),
        (
            "conservation_violations",
            Json::U64(crit.audit.total_violations()),
        ),
    ])
}

/// One shard's entry in the `serve-metrics` snapshot.
#[allow(clippy::too_many_arguments)]
pub fn metrics_shard_json(
    shard: usize,
    counters: &ShardCounters,
    committed: u64,
    queue_depth: u64,
    gauge_totals: &[u64; 4],
    throughput_rps: f64,
    ack_latency: &Hist,
    durable_ack_latency: &Hist,
    telem: &ShardTelemetry,
    crit: &CritSummary,
    detect: &DetectStats,
) -> Json {
    let mut totals = Vec::with_capacity(GAUGE_SLOT_NAMES.len());
    for (i, name) in GAUGE_SLOT_NAMES.iter().enumerate() {
        totals.push((*name, Json::U64(gauge_totals[i])));
    }
    Json::obj([
        ("shard", Json::U64(shard as u64)),
        ("queue_depth", Json::U64(queue_depth)),
        ("counters", counters_json(counters)),
        ("committed_keys", Json::U64(committed)),
        ("totals", Json::obj(totals)),
        ("throughput_rps", Json::F64(throughput_rps)),
        ("ack_latency_us", hist_json(ack_latency)),
        ("durable_ack_latency_us", hist_json(durable_ack_latency)),
        (
            "telemetry",
            Json::obj([
                ("spans", Json::U64(telem.spans)),
                ("span_dropped", Json::U64(telem.span_dropped)),
            ]),
        ),
        ("critpath", crit_totals_json(crit)),
        ("detect", detect_json(detect)),
    ])
}

/// The `serve-metrics` snapshot document: the machine-readable scrape
/// reply to the `Metrics` admin request.
pub fn metrics_snapshot_json(uptime_ms: u64, shards: Vec<Json>, totals: Json) -> Json {
    Json::obj([
        ("record", Json::Str("serve-metrics".into())),
        ("version", Json::U64(SERVE_METRICS_VERSION)),
        ("uptime_ms", Json::U64(uptime_ms)),
        ("shards", Json::Arr(shards)),
        ("totals", totals),
    ])
}

/// The `serve-shard` line for one shard.
pub fn shard_json(
    shard: usize,
    counters: &ShardCounters,
    committed: u64,
    stats: &Stats,
    hists: &[Hist; 3],
) -> Json {
    Json::obj([
        ("record", Json::Str("serve-shard".into())),
        ("shard", Json::U64(shard as u64)),
        ("counters", counters_json(counters)),
        ("committed_keys", Json::U64(committed)),
        ("stats", stats_json(stats)),
        ("flush_to_ack", hist_json(&hists[0])),
        ("release_to_persist", hist_json(&hists[1])),
        ("ret_residency", hist_json(&hists[2])),
    ])
}

/// One `serve-interval` line: shard queue gauge + counter deltas over a
/// wall-clock window (milliseconds since server start).
pub fn interval_json(shard: usize, s: &GaugeSample) -> Json {
    let mut counts = Vec::with_capacity(GAUGE_SLOT_NAMES.len());
    for (i, name) in GAUGE_SLOT_NAMES.iter().enumerate() {
        counts.push((*name, Json::U64(s.counts[i])));
    }
    Json::obj([
        ("record", Json::Str("serve-interval".into())),
        ("shard", Json::U64(shard as u64)),
        ("start_ms", Json::U64(s.start)),
        ("end_ms", Json::U64(s.end)),
        ("queue_high", Json::U64(s.high)),
        ("queue_last", Json::U64(s.last)),
        ("counts", Json::obj(counts)),
    ])
}

/// A [`CrashOutcome`] as the JSON document returned in the `Crash`
/// admin reply.
pub fn crash_json(shard: usize, o: &CrashOutcome) -> Json {
    Json::obj([
        ("record", Json::Str("serve-crash".into())),
        ("shard", Json::U64(shard as u64)),
        ("batch", Json::U64(o.batch)),
        (
            "crash_stamp",
            match o.crash_stamp {
                Some(s) => Json::U64(s),
                None => Json::Null,
            },
        ),
        ("consistent", Json::Bool(o.consistent)),
        ("recovered_keys", Json::U64(o.recovered as u64)),
        ("lost_acked", Json::U64(o.lost_acked.len() as u64)),
        ("phantom", Json::U64(o.phantom.len() as u64)),
        ("audit_points", Json::U64(o.audit_points as u64)),
        ("audit_failures", Json::U64(o.audit_failures as u64)),
        ("stamps", Json::U64(o.stamps)),
        ("torn_stamps", Json::U64(o.torn_stamps)),
    ])
}

/// A shard's crash dump as JSONL: a `flight-dump` header; the `crash`
/// line (when, in ms since server start, the outcome, and the in-flight
/// ops that were answered `Crashed`); then every span the shard's log
/// retains, oldest first — the recorded chains, crashed acks included,
/// that explain each reply.
pub fn flight_dump_jsonl(
    shard: usize,
    crash_no: u64,
    t_ms: u64,
    o: &CrashOutcome,
    inflight: &[ShardReq],
    spans: &SpanLog,
) -> String {
    let header = Json::obj([
        ("record", Json::Str("flight-dump".into())),
        ("shard", Json::U64(shard as u64)),
        ("crash", Json::U64(crash_no)),
        ("spans", Json::U64(spans.len() as u64)),
        ("dropped", Json::U64(spans.dropped())),
    ]);
    let ops = inflight.iter().map(|r| {
        Json::obj([
            ("id", Json::U64(r.rid)),
            ("kind", Json::U64(r.op.code() as u64)),
            ("key", Json::U64(r.op.key())),
        ])
    });
    let crash = Json::obj([
        ("event", Json::Str("crash".into())),
        ("t_ms", Json::U64(t_ms)),
        ("batch", Json::U64(o.batch)),
        ("crash_stamp", Json::U64(o.crash_stamp.unwrap_or(0))),
        ("recovered", Json::Bool(o.consistent)),
        ("lost", Json::U64(o.lost_acked.len() as u64)),
        ("inflight", Json::Arr(ops.collect())),
    ]);
    let mut out = String::new();
    for line in [header, crash]
        .into_iter()
        .chain(spans.iter().map(span_json))
    {
        out.push_str(&line.to_compact());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_lines_parse_back_and_name_every_slot() {
        let h = header_json(2, "hashmap", "lrp", "cached", 2, 16, 5, 64);
        let parsed = Json::parse(&h.to_compact()).unwrap();
        assert_eq!(parsed.get("record").unwrap().as_str(), Some("serve-header"));
        assert_eq!(parsed.get("shards").unwrap().as_u64(), Some(2));

        let mut sample = GaugeSample {
            start: 0,
            end: 250,
            high: 9,
            last: 1,
            ..GaugeSample::default()
        };
        sample.counts[SLOT_ENQUEUED] = 40;
        sample.counts[SLOT_SHED] = 3;
        let line = interval_json(1, &sample);
        let parsed = Json::parse(&line.to_compact()).unwrap();
        let counts = parsed.get("counts").unwrap();
        assert_eq!(counts.get("enqueued").unwrap().as_u64(), Some(40));
        assert_eq!(counts.get("shed").unwrap().as_u64(), Some(3));
        assert_eq!(counts.get("completed").unwrap().as_u64(), Some(0));
        assert_eq!(parsed.get("queue_high").unwrap().as_u64(), Some(9));
    }

    #[test]
    fn shard_metrics_entry_names_every_critpath_segment() {
        let doc = metrics_shard_json(
            0,
            &ShardCounters::default(),
            12,
            0,
            &[0; 4],
            0.0,
            &Hist::new(),
            &Hist::new(),
            &ShardTelemetry::default(),
            &CritSummary::default(),
            &DetectStats::default(),
        );
        let parsed = Json::parse(&doc.to_compact()).unwrap();
        let crit = parsed.get("critpath").unwrap();
        assert_eq!(crit.get("paths").unwrap().as_u64(), Some(0));
        assert_eq!(
            crit.get("conservation_violations").unwrap().as_u64(),
            Some(0)
        );
        let segs = crit.get("segments").unwrap();
        for kind in CritSegKind::ALL {
            assert_eq!(segs.get(kind.name()).unwrap().as_u64(), Some(0));
        }
    }

    #[test]
    fn shard_metrics_entry_carries_detect_state() {
        let mut d = DetectStats {
            slot_occupied: 7,
            slot_capacity: 2048,
            resolver_entries: 7,
            resolved_done: 3,
            resolved_not_started: 2,
            resolve_latency: Hist::new(),
        };
        d.resolve_latency.record(120);
        let doc = metrics_shard_json(
            1,
            &ShardCounters::default(),
            0,
            0,
            &[0; 4],
            0.0,
            &Hist::new(),
            &Hist::new(),
            &ShardTelemetry::default(),
            &CritSummary::default(),
            &d,
        );
        let parsed = Json::parse(&doc.to_compact()).unwrap();
        let det = parsed.get("detect").unwrap();
        assert_eq!(det.get("slot_occupied").unwrap().as_u64(), Some(7));
        assert_eq!(det.get("slot_capacity").unwrap().as_u64(), Some(2048));
        assert_eq!(det.get("resolved_done").unwrap().as_u64(), Some(3));
        assert_eq!(det.get("resolved_not_started").unwrap().as_u64(), Some(2));
        assert!(det.get("resolve_latency_us").is_some());
        // Counters now surface torn-stamp detection.
        let c = parsed.get("counters").unwrap();
        assert_eq!(c.get("slot_torn").unwrap().as_u64(), Some(0));
        assert_eq!(c.get("key_mismatches").unwrap().as_u64(), Some(0));
    }
}
