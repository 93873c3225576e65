//! Golden fixtures for the observability exports.
//!
//! The simulator golden suite pins *what the machine did*; this suite
//! pins *how the obs layer reports it*: the JSONL metrics stream and the
//! Chrome trace of one tiny instrumented run, plus the flight-recorder
//! dump and the span Chrome trace over hand-built inputs that overflow
//! their bounded rings (so drop counts are part of the fixture). Each
//! rendering must match its committed fixture under `tests/golden/`
//! byte-for-byte.
//!
//! To regenerate after a *deliberate* format change:
//!
//! ```sh
//! GOLDEN_UPDATE=1 cargo test --test obs_golden
//! ```

use lrp_repro::lfds::{Structure, WorkloadSpec};
use lrp_repro::obs::{chrome, metrics, span, RecorderConfig, Span, SpanLog, SpanPhase};
use lrp_repro::serve::{FlightEvent, FlightRecorder};
use lrp_repro::sim::{Mechanism, Sim, SimConfig};
use std::path::PathBuf;

fn check(name: &str, got: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("GOLDEN_UPDATE").is_some() {
        std::fs::write(&path, got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); run with GOLDEN_UPDATE=1 to create",
            path.display()
        )
    });
    assert!(
        got == want,
        "{name}: export diverged from {} (set GOLDEN_UPDATE=1 only for deliberate format changes)",
        path.display()
    );
}

/// queue × lrp, 2 threads × 6 ops, with the time series on.
fn instrumented_queue_run() -> (lrp_repro::sim::Stats, lrp_repro::obs::ObsReport) {
    queue_run(RecorderConfig {
        sample_every: 200,
        ..RecorderConfig::default()
    })
}

fn queue_run(cfg: RecorderConfig) -> (lrp_repro::sim::Stats, lrp_repro::obs::ObsReport) {
    let trace = WorkloadSpec::new(Structure::Queue)
        .initial_size(8)
        .threads(2)
        .ops_per_thread(6)
        .seed(7)
        .build_trace();
    let r = Sim::new(SimConfig::new(Mechanism::Lrp), &trace)
        .with_recorder(cfg)
        .run();
    (r.stats, r.obs.expect("recorder attached"))
}

#[test]
fn metrics_jsonl_matches_fixture() {
    let (stats, obs) = instrumented_queue_run();
    check(
        "obs_metrics_queue_lrp.jsonl",
        &metrics::export_jsonl(&obs, &stats),
    );
}

#[test]
fn chrome_trace_matches_fixture() {
    let (_, obs) = instrumented_queue_run();
    check("obs_chrome_queue_lrp.json", &chrome::export(&obs));
}

/// The same run through a 32-event ring: the metrics header carries the
/// drop count and the Chrome trace holds only the newest events.
#[test]
fn small_event_ring_exports_match_fixture() {
    let (stats, obs) = queue_run(RecorderConfig {
        ring_capacity: 32,
        ..RecorderConfig::default()
    });
    assert!(obs.dropped > 0, "the fixture must exercise eviction");
    let jsonl = metrics::export_jsonl(&obs, &stats);
    let header = jsonl.lines().next().unwrap();
    check(
        "obs_chrome_queue_lrp_ring32.json",
        &format!("{header}\n{}", chrome::export(&obs)),
    );
}

#[test]
fn flight_dump_matches_fixture() {
    let mut r = FlightRecorder::new(4);
    for batch in 0..3 {
        r.push(FlightEvent::BatchStart {
            t_ms: 10 * batch,
            batch,
            size: 2,
        });
        r.push(FlightEvent::Request {
            t_ms: 10 * batch + 1,
            batch,
            id: 100 + batch,
            kind: 1,
            key: 7 * batch,
            durable: batch % 2 == 0,
            stamp: 1000 + batch,
        });
        r.push(FlightEvent::Persist {
            t_ms: 10 * batch + 2,
            batch,
            final_stamp: 1000 + batch,
            durable: 1,
            nondurable: 1,
        });
    }
    r.push(FlightEvent::Crash {
        t_ms: 40,
        batch: 3,
        crash_stamp: 1002,
        recovered: true,
        lost: 0,
        inflight: vec![(200, 1, 5), (201, 2, 9)],
    });
    assert_eq!(r.dropped(), 6, "the fixture must exercise eviction");
    check("obs_flight_dump.jsonl", &r.to_jsonl(1, 2));
}

#[test]
fn span_chrome_trace_matches_fixture() {
    let mut log = SpanLog::new(8);
    for req in 0..3u64 {
        let root = log.alloc();
        let t0 = 100 * req;
        let phases = [
            SpanPhase::Wire { bytes: 24 },
            SpanPhase::Queue {
                depth: req as u32,
                shed: false,
            },
            SpanPhase::Batch {
                batch: req,
                size: 1,
            },
            SpanPhase::Execute { batch: req },
            SpanPhase::Persist {
                batch: req,
                final_stamp: 500 + req,
            },
            SpanPhase::Ack {
                durable: true,
                persist_stamp: 500 + req,
                crashed: false,
            },
        ];
        for (i, phase) in phases.into_iter().enumerate() {
            let start = t0 + 1 + 10 * i as u64;
            log.record(Span {
                id: 0,
                parent: root,
                req,
                track: (req % 2) as u32,
                start_us: start,
                end_us: start + 5,
                phase,
            });
        }
        log.record(Span {
            id: root,
            parent: 0,
            req,
            track: (req % 2) as u32,
            start_us: t0,
            end_us: t0 + 70,
            phase: SpanPhase::Request { op: 1 },
        });
    }
    let dropped = log.dropped();
    assert!(dropped > 0, "the fixture must exercise eviction");
    let spans = log.drain();
    let mut out = format!("dropped {dropped} retained {}\n", spans.len());
    out.push_str(&span::chrome_trace(&spans).to_pretty());
    out.push('\n');
    check("obs_span_chrome.json", &out);
}
