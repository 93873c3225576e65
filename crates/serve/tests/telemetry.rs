//! The observability contract over a live loopback server: the
//! always-on span log holds well-formed chains whose durable acks carry
//! their persist stamps, the `Metrics` admin request returns a live
//! snapshot (including ring-drop accounting), the span log changes
//! nothing about the served state, and crash-restarts dump a record
//! whose spans explain every `Crashed` reply.

use lrp_lfds::{KeyDist, Structure};
use lrp_obs::span::{audit_chains, SpanPhase};
use lrp_obs::{Json, RecorderConfig};
use lrp_serve::{
    run_load, Bind, Client, LoadSpec, Request, Response, Server, ServerConfig, ShardConfig,
};
use lrp_sim::Mechanism;

fn small_server(shards: usize, seed: u64) -> ServerConfig {
    let mut shard = ShardConfig::new(Structure::HashMap);
    shard.initial_size = 32;
    shard.key_range = 256;
    shard.seed = seed;
    shard.audit_samples = 4;
    let mut cfg = ServerConfig::new(shard);
    cfg.shards = shards;
    cfg.batch_max = 16;
    cfg.queue_depth = 64;
    cfg.metrics_every_ms = 50;
    cfg
}

fn tcp_bind(server: &Server) -> Bind {
    Bind::Tcp(server.local_addr().expect("tcp addr").to_string())
}

#[test]
fn traced_run_yields_complete_stamped_chains_and_a_valid_chrome_trace() {
    // The default span capacity: every request is traced.
    let server = Server::start(small_server(2, 61)).unwrap();
    let bind = tcp_bind(&server);

    let mut spec = LoadSpec::new(bind);
    spec.conns = 3;
    spec.requests = 400;
    spec.window = 8;
    spec.key_dist = KeyDist::Zipfian { theta: 0.9 };
    spec.read_pct = 10;
    spec.verify = false;
    let summary = run_load(&spec).unwrap();
    assert_eq!(summary.errors, 0);
    assert!(summary.acked_durable > 0, "no durable acks to audit");

    server.shutdown();
    let report = server.join();
    let spans = report.spans();
    assert!(!spans.is_empty(), "tracing retained no spans");

    let audit = audit_chains(spans);
    assert!(
        audit.well_formed(),
        "span-tree violations:\n{}",
        audit.problems.join("\n")
    );
    assert!(audit.roots > 0);
    assert!(audit.durable_acks > 0, "no durable-acked chains retained");
    assert_eq!(
        audit.complete_durable_chains, audit.durable_acks,
        "every durable ack must carry the full wire→…→persist→ack chain"
    );
    assert!(
        audit.stamped_durable_chains > 0,
        "no durable ack carried its persist stamp"
    );

    // The Chrome trace parses back and pairs every begin with an end.
    let doc = Json::parse(&report.chrome_trace().to_compact()).unwrap();
    let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
    let ph = |p: &str| {
        events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some(p))
            .count()
    };
    assert_eq!(ph("b"), ph("e"), "unbalanced async begin/end events");
    assert_eq!(ph("b"), spans.len(), "one begin/end pair per span");
    assert!(ph("M") >= 2, "per-shard process_name metadata present");
    // At least one ack event carries a non-zero persist stamp.
    assert!(
        events.iter().any(|e| {
            e.get("name").and_then(Json::as_str) == Some("ack")
                && e.get("args")
                    .and_then(|a| a.get("persist_stamp"))
                    .and_then(Json::as_u64)
                    .unwrap_or(0)
                    > 0
        }),
        "no ack event carries its persist stamp"
    );
}

/// Runs the same deterministic sequential workload and returns the
/// per-shard counters and committed keys of the Metrics reply,
/// which must not depend on the span log's capacity.
fn stats_after_fixed_workload(spans: usize) -> String {
    let mut cfg = small_server(2, 71);
    cfg.spans = spans;
    let server = Server::start(cfg).unwrap();
    let mut c = Client::dial(&tcp_bind(&server)).unwrap();
    for i in 0..60u64 {
        let key = 1 + (i * 7) % 256;
        let req = match i % 3 {
            0 => Request::Put { id: i + 1, key },
            1 => Request::Get { id: i + 1, key },
            _ => Request::Del { id: i + 1, key },
        };
        c.call(&req).unwrap();
    }
    let json = match c.call(&Request::Metrics { id: 900 }).unwrap() {
        Response::Report { json, .. } => json,
        other => panic!("unexpected metrics reply {other:?}"),
    };
    server.shutdown();
    server.join();
    let doc = Json::parse(&json).unwrap();
    let shards = doc.get("shards").unwrap().as_arr().unwrap();
    assert_eq!(shards.len(), 2);
    shards
        .iter()
        .map(|s| {
            let counters = s.get("counters").unwrap().to_compact();
            let committed = s.get("committed_keys").unwrap().to_compact();
            format!("{counters} {committed}\n")
        })
        .collect()
}

#[test]
fn tracing_leaves_the_served_state_byte_identical() {
    let untraced = stats_after_fixed_workload(0);
    let default_cap = ServerConfig::new(ShardConfig::new(Structure::HashMap)).spans;
    let traced = stats_after_fixed_workload(default_cap);
    assert_eq!(
        untraced, traced,
        "span tracing changed shard counters or committed state"
    );
}

#[test]
fn metrics_snapshot_reports_live_telemetry_and_ring_drops() {
    let mut cfg = small_server(2, 83);
    // Tiny rings everywhere so the snapshot proves drop accounting:
    // a 4-span log and a 1-event obs ring both overflow immediately.
    cfg.spans = 4;
    cfg.shard.recorder = Some(RecorderConfig {
        ring_capacity: 1,
        sample_every: 0,
    });
    let server = Server::start(cfg).unwrap();
    let bind = tcp_bind(&server);

    let mut spec = LoadSpec::new(bind.clone());
    spec.conns = 2;
    spec.requests = 300;
    spec.window = 8;
    spec.verify = false;
    let summary = run_load(&spec).unwrap();
    assert_eq!(summary.errors, 0);

    let mut c = Client::dial(&bind).unwrap();
    let json = match c.call(&Request::Metrics { id: 1 }).unwrap() {
        Response::Report { id: 1, json } => json,
        other => panic!("unexpected metrics reply {other:?}"),
    };
    let doc = Json::parse(&json).unwrap();
    assert_eq!(doc.get("record").unwrap().as_str(), Some("serve-metrics"));
    assert!(doc.get("uptime_ms").unwrap().as_u64().unwrap() > 0);

    let shards = doc.get("shards").unwrap().as_arr().unwrap();
    assert_eq!(shards.len(), 2);
    let mut requests = 0u64;
    let mut span_dropped = 0u64;
    let mut obs_dropped = 0u64;
    for s in shards {
        let counters = s.get("counters").unwrap();
        requests += counters.get("requests").unwrap().as_u64().unwrap();
        obs_dropped += counters.get("obs_dropped").unwrap().as_u64().unwrap();
        let telem = s.get("telemetry").unwrap();
        span_dropped += telem.get("span_dropped").unwrap().as_u64().unwrap();
        assert!(telem.get("spans").unwrap().as_u64().unwrap() <= 4);
        assert!(s.get("queue_depth").unwrap().as_u64().is_some());
        assert!(s.get("throughput_rps").unwrap().as_f64().is_some());
        // Histograms render as parseable objects.
        assert!(s.get("ack_latency_us").is_some());
        assert!(s.get("durable_ack_latency_us").is_some());
    }
    assert!(requests > 0, "snapshot counted no requests");
    assert!(span_dropped > 0, "4-span logs never overflowed");
    assert!(obs_dropped > 0, "1-event obs rings never overflowed");

    // The totals section mirrors the per-shard drop accounting.
    let totals = doc.get("totals").unwrap();
    assert_eq!(
        totals.get("span_dropped").unwrap().as_u64(),
        Some(span_dropped)
    );
    assert_eq!(
        totals.get("obs_dropped").unwrap().as_u64(),
        Some(obs_dropped)
    );
    assert!(totals.get("throughput_rps").unwrap().as_f64().unwrap() > 0.0);

    server.shutdown();
    server.join();
}

/// One `Put` on an idle server: it runs as a batch of one, and the
/// batch's end flush makes it durable under LRP. Under the volatile
/// `nop` nothing persists, so the same put is acked `durable: false`.
#[test]
fn a_lone_put_on_an_idle_server_is_its_own_batch_and_ends_durable() {
    for (mechanism, want_durable) in [(Mechanism::Lrp, true), (Mechanism::Nop, false)] {
        let mut cfg = small_server(1, 5);
        cfg.shard.mechanism = mechanism;
        let server = Server::start(cfg).unwrap();
        let mut c = Client::dial(&tcp_bind(&server)).unwrap();
        match c.call(&Request::Put { id: 7, key: 300 }).unwrap() {
            Response::Done { id: 7, durable, .. } => {
                assert_eq!(durable, want_durable, "{mechanism}: lone put's ack")
            }
            other => panic!("{mechanism}: unexpected reply {other:?}"),
        }
        server.shutdown();
        let report = server.join();
        let sizes: Vec<u32> = report
            .spans()
            .iter()
            .filter(|s| s.req == 7)
            .filter_map(|s| match s.phase {
                SpanPhase::Batch { size, .. } => Some(size),
                _ => None,
            })
            .collect();
        assert_eq!(sizes, [1], "{mechanism}: the put's batch span");
    }
}

#[test]
fn crash_restart_dumps_a_flight_record_naming_inflight_ops() {
    let dir = std::env::temp_dir().join(format!("lrp-flight-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut cfg = small_server(1, 97);
    cfg.batch_max = 64;
    cfg.flight_dir = Some(dir.clone());
    let server = Server::start(cfg).unwrap();
    let mut c = Client::dial(&tcp_bind(&server)).unwrap();

    // Pipelined puts, then the crash. However the worker batches them,
    // each put is answered `Done` (its batch committed before the
    // crash) or `Crashed` (it was in flight at the crash).
    for i in 0..6u64 {
        c.send(&Request::Put {
            id: 100 + i,
            key: 1 + i,
        })
        .unwrap();
    }
    c.send(&Request::Crash { id: 200, shard: 0 }).unwrap();
    let mut crashed = std::collections::BTreeSet::new();
    let mut done = 0;
    let mut reported = false;
    for _ in 0..7 {
        match c.recv().unwrap() {
            Response::Crashed { id, .. } => assert!(crashed.insert(id)),
            Response::Done { .. } => done += 1,
            Response::Report { id: 200, .. } => reported = true,
            other => panic!("unexpected reply {other:?}"),
        }
    }
    assert_eq!(crashed.len() + done, 6, "every put answered once");
    assert!(reported, "crash verdict reported");

    let path = dir.join("flight-shard-0.jsonl");
    let text = std::fs::read_to_string(&path).expect("flight dump written");
    let lines: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
    assert!(lines.len() >= 2, "dump has a header and events:\n{text}");
    assert_eq!(
        lines[0].get("record").unwrap().as_str(),
        Some("flight-dump")
    );
    assert_eq!(lines[0].get("shard").unwrap().as_u64(), Some(0));
    let crash_line = lines
        .iter()
        .find(|l| l.get("event").and_then(Json::as_str) == Some("crash"))
        .expect("dump contains the crash event");
    let inflight: std::collections::BTreeSet<u64> = crash_line
        .get("inflight")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|op| op.get("id").and_then(Json::as_u64).unwrap())
        .collect();
    assert_eq!(inflight, crashed, "the dump names exactly the Crashed puts");
    // The dump's spans explain each `Crashed` reply: every in-flight id
    // has a crashed ack span.
    for &id in &inflight {
        assert!(
            lines.iter().any(|l| {
                l.get("event").and_then(Json::as_str) == Some("ack")
                    && l.get("req").and_then(Json::as_u64) == Some(id)
                    && l.get("crashed").and_then(Json::as_bool) == Some(true)
            }),
            "no crashed ack span for in-flight request {id}:\n{text}"
        );
    }

    // A second crash appends a second dump to the same file.
    c.send(&Request::Crash { id: 201, shard: 0 }).unwrap();
    assert!(matches!(
        c.recv().unwrap(),
        Response::Report { id: 201, .. }
    ));
    let text = std::fs::read_to_string(&path).unwrap();
    let crash_nos: Vec<u64> = text
        .lines()
        .map(|l| Json::parse(l).unwrap())
        .filter(|l| l.get("record").and_then(Json::as_str) == Some("flight-dump"))
        .map(|l| l.get("crash").unwrap().as_u64().unwrap())
        .collect();
    assert_eq!(crash_nos, [1, 2], "one appended dump per crash");

    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}
