//! Golden fixtures for the observability exports.
//!
//! The simulator golden suite pins *what the machine did*; this suite
//! pins *how the obs layer reports it*: the JSONL metrics stream and the
//! Chrome trace of one tiny instrumented run, plus the serving layer's
//! crash dump and the span Chrome trace over hand-built span logs that
//! overflow their bounds (so drop counts are part of the fixture). Each
//! rendering must match its committed fixture under `tests/golden/`
//! byte-for-byte.
//!
//! To regenerate after a *deliberate* format change:
//!
//! ```sh
//! GOLDEN_UPDATE=1 cargo test --test obs_golden
//! ```

use lrp_repro::lfds::{Structure, WorkloadSpec};
use lrp_repro::obs::{blame, chrome, metrics, span, RecorderConfig, Span, SpanLog, SpanPhase};
use lrp_repro::serve::{metrics as serve_metrics, CrashOutcome, KvOp, ShardReq};
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

/// The blame table of a paper-shaped replay, past its sketch capacity.
/// The BST trace of `golden_trace64_interleaving_matches` (4,096
/// entries, 64 threads × 8 ops, seed 7) replays under each mechanism
/// with a summaries-only recorder; per mechanism the fixture holds the
/// sketch's eviction count and the length and FNV-1a-64 of the compact
/// `blame_json` export, which covers every exact cell and every
/// surviving heavy-hitter weight and error bound.
#[test]
fn blame_sketch_eviction_matches_fixture() {
    let trace = WorkloadSpec::new(Structure::Bst)
        .initial_size(4096)
        .threads(64)
        .ops_per_thread(8)
        .seed(7)
        .build_trace();
    let mut out = String::new();
    for mech in Mechanism::ALL {
        let obs = Sim::new(SimConfig::new(mech), &trace)
            .with_recorder(RecorderConfig::summaries_only())
            .run()
            .obs
            .expect("recorder attached");
        let evictions = obs.summary.blame.sketch.evictions();
        assert!(
            evictions > 0,
            "{}: the fixture must exercise eviction",
            mech.name()
        );
        let text = blame::blame_json(&obs.summary.blame).to_compact();
        let hash = text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        out.push_str(&format!(
            "blame64 bstree/{} sketch_evictions={evictions} json_bytes={} fnv1a64={hash:#018x}\n",
            mech.name(),
            text.len()
        ));
    }
    check("obs_blame_trace64_bstree.txt", &out);
}

/// Records one request chain: a root over `[t0, t0 + 10 × phases]`
/// and each phase as a 10 µs child, in order.
fn record_chain(log: &mut SpanLog, req: u64, op: u8, t0: u64, phases: &[SpanPhase]) {
    let root = log.alloc();
    let end = t0 + 10 * phases.len() as u64;
    let span = |id, parent, start_us, end_us, phase| Span {
        id,
        parent,
        req,
        track: 1,
        start_us,
        end_us,
        phase,
    };
    log.record(span(root, 0, t0, end, SpanPhase::Request { op }));
    for (k, &phase) in phases.iter().enumerate() {
        let start = t0 + 10 * k as u64;
        log.record(span(0, root, start, start + 10, phase));
    }
}

#[test]
fn flight_dump_matches_fixture() {
    // One committed chain, then two chains crashed in flight, through a
    // 10-span log: the committed chain's head is evicted.
    let mut log = SpanLog::new(10);
    let queue = SpanPhase::Queue {
        depth: 1,
        shed: false,
    };
    record_chain(
        &mut log,
        100,
        1,
        0,
        &[
            SpanPhase::Wire { bytes: 17 },
            queue,
            SpanPhase::Batch { batch: 2, size: 1 },
            SpanPhase::Execute { batch: 2 },
            SpanPhase::Persist {
                batch: 2,
                final_stamp: 1002,
            },
            SpanPhase::Ack {
                durable: true,
                persist_stamp: 1002,
                crashed: false,
            },
        ],
    );
    let crashed = SpanPhase::Ack {
        durable: false,
        persist_stamp: 0,
        crashed: true,
    };
    let inflight = [
        ShardReq::new(KvOp::Put(5), 200),
        ShardReq::new(KvOp::Del(9), 201),
    ];
    for (i, r) in inflight.iter().enumerate() {
        let t0 = 100 + 10 * i as u64;
        let wire = SpanPhase::Wire { bytes: 17 };
        record_chain(&mut log, r.rid, r.op.code(), t0, &[wire, queue, crashed]);
    }
    assert_eq!(log.dropped(), 5, "the fixture must exercise eviction");
    let outcome = CrashOutcome {
        batch: 3,
        crash_stamp: Some(1002),
        consistent: true,
        ..CrashOutcome::default()
    };
    check(
        "obs_flight_dump.jsonl",
        &serve_metrics::flight_dump_jsonl(1, 2, 40, &outcome, &inflight, &log),
    );
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
