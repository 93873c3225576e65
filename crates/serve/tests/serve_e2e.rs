//! End-to-end service tests over a real loopback socket: basic
//! request/reply, durable-ack verification across a mid-traffic shard
//! crash (also one whose durable-ack threshold is out of reach),
//! admission-control shedding under overload, and the UDS mode.

use lrp_lfds::{KeyDist, Structure};
use lrp_serve::{
    run_load, Bind, Client, LoadSpec, Request, Response, Server, ServerConfig, ShardConfig,
};

fn small_server(shards: usize, queue_depth: usize, seed: u64) -> ServerConfig {
    let mut shard = ShardConfig::new(Structure::HashMap);
    shard.initial_size = 32;
    shard.key_range = 256;
    shard.seed = seed;
    shard.audit_samples = 4;
    let mut cfg = ServerConfig::new(shard);
    cfg.shards = shards;
    cfg.batch_max = 16;
    cfg.batch_wait_ms = 3;
    cfg.queue_depth = queue_depth;
    cfg.metrics_every_ms = 50;
    cfg
}

fn tcp_bind(server: &Server) -> Bind {
    Bind::Tcp(
        server
            .local_addr()
            .expect("tcp server has an addr")
            .to_string(),
    )
}

/// Repeats `Put(key)`/`Del(key)` (per `insert`) until one attempt is
/// acked durable, pipelining filler mutations on distinct keys so each
/// batch carries multi-threaded traffic (a lone op usually stays in
/// LRP's volatile tail). Returns the durably-acked attempt's wire id
/// (which doubles as its detectable-op rid), or `None` after ~20
/// attempts.
fn durable_mutation(c: &mut Client, key: u64, insert: bool, id_base: u64) -> Option<u64> {
    const FILLERS: u64 = 12;
    for attempt in 0..20u64 {
        let base = id_base + attempt * (FILLERS + 1);
        let req = if insert {
            Request::Put { id: base, key }
        } else {
            Request::Del { id: base, key }
        };
        c.send(&req).unwrap();
        for f in 0..FILLERS {
            let fkey = 10_000 + attempt * FILLERS + f;
            c.send(&Request::Put {
                id: base + 1 + f,
                key: fkey,
            })
            .unwrap();
        }
        let mut durable_ack = false;
        for _ in 0..=FILLERS {
            match c.recv().unwrap() {
                Response::Done { id, durable, .. } if id == base => durable_ack = durable,
                Response::Done { .. } | Response::Overloaded { .. } => {}
                other => panic!("unexpected reply {other:?}"),
            }
        }
        if durable_ack {
            return Some(base);
        }
    }
    None
}

#[test]
fn basic_ops_round_trip_over_tcp() {
    let server = Server::start(small_server(2, 64, 11)).unwrap();
    let bind = tcp_bind(&server);
    let mut c = Client::dial(&bind).unwrap();

    assert!(matches!(
        c.call(&Request::Ping { id: 1 }).unwrap(),
        Response::Pong { id: 1 }
    ));

    // A durable ack is the visibility contract: a `durable: false`
    // reply is retryable (the effect may sit in the volatile tail and
    // be dropped at the next commit), so mutate until the ack is
    // durable — pipelining filler ops so the batch has enough
    // cross-thread traffic to trigger lazy persists — and only then
    // assert what a Get observes.
    assert!(
        durable_mutation(&mut c, 777, true, 10_000).is_some(),
        "put 777 never acked durable"
    );
    match c.call(&Request::Get { id: 3, key: 777 }).unwrap() {
        Response::Value { id: 3, present, .. } => {
            assert!(present, "durably inserted key visible")
        }
        other => panic!("unexpected get reply {other:?}"),
    }
    assert!(
        durable_mutation(&mut c, 777, false, 20_000).is_some(),
        "del 777 never acked durable"
    );
    match c.call(&Request::Get { id: 5, key: 777 }).unwrap() {
        Response::Value { id: 5, present, .. } => {
            assert!(!present, "durably deleted key gone")
        }
        other => panic!("unexpected get reply {other:?}"),
    }

    // Metrics is a parseable JSON report covering every shard, with
    // each shard's lifetime counters and committed keys.
    match c.call(&Request::Metrics { id: 6 }).unwrap() {
        Response::Report { id: 6, json } => {
            let doc = lrp_obs::Json::parse(&json).unwrap();
            assert_eq!(doc.get("record").unwrap().as_str(), Some("serve-metrics"));
            assert!(doc.get("uptime_ms").unwrap().as_u64().is_some());
            let shards = doc.get("shards").unwrap().as_arr().unwrap();
            assert_eq!(shards.len(), 2);
            for s in shards {
                assert!(s.get("counters").unwrap().get("requests").is_some());
                assert!(s.get("committed_keys").unwrap().as_u64().is_some());
            }
        }
        other => panic!("unexpected metrics reply {other:?}"),
    }

    // Unroutable admin request gets a typed error.
    match c.call(&Request::Crash { id: 7, shard: 99 }).unwrap() {
        Response::Error { id: 7, msg } => assert!(msg.contains("no shard")),
        other => panic!("unexpected reply {other:?}"),
    }

    server.shutdown();
    let report = server.join();
    assert_eq!(report.lost_acked(), 0);
}

#[test]
fn crash_restart_preserves_every_durably_acked_write() {
    let server = Server::start(small_server(2, 128, 23)).unwrap();
    let bind = tcp_bind(&server);

    let mut spec = LoadSpec::new(bind);
    spec.conns = 3;
    spec.requests = 600;
    spec.window = 8;
    spec.key_dist = KeyDist::Zipfian { theta: 0.9 };
    spec.key_range = 256;
    spec.read_pct = 10;
    spec.seed = 5;
    spec.crash_at = Some(40);
    spec.crash_shard = 1;
    spec.verify = true;
    let summary = run_load(&spec).unwrap();

    assert_eq!(summary.errors, 0, "transport errors during load");
    assert!(
        summary.completed >= summary.sent,
        "admin replies also count"
    );
    assert!(summary.acked_durable > 0, "no durable acks under LRP");
    let crash = summary
        .crash_report
        .as_deref()
        .expect("crash was injected and reported");
    assert_eq!(summary.crash_consistent, Some(true), "report: {crash}");
    assert_eq!(summary.crash_lost_acked, Some(0), "report: {crash}");
    assert!(
        summary.verify_checked > 0,
        "verification phase exercised some keys"
    );
    assert_eq!(
        summary.verify_violations, 0,
        "durably-acked write lost: keys {:?}",
        summary.violating_keys
    );
    assert!(summary.durability_ok());

    server.shutdown();
    let report = server.join();
    assert_eq!(report.lost_acked(), 0, "server-side lost-ack accounting");
    // The metrics stream carries all three record types.
    let jsonl = report.to_jsonl();
    assert!(jsonl.contains("\"serve-header\""));
    assert!(jsonl.contains("\"serve-shard\""));
    assert!(jsonl.contains("\"serve-interval\""));
}

#[test]
fn crash_fires_even_when_the_durable_ack_threshold_is_never_reached() {
    let server = Server::start(small_server(2, 128, 29)).unwrap();
    let bind = tcp_bind(&server);

    let mut spec = LoadSpec::new(bind);
    spec.conns = 2;
    spec.requests = 120;
    spec.window = 8;
    spec.seed = 7;
    // More durable acks than there are requests: the threshold cannot
    // be crossed, so the crash must come with connection 0's last send.
    spec.crash_at = Some(spec.requests * 10);
    spec.crash_shard = 1;
    spec.verify = true;
    let summary = run_load(&spec).unwrap();

    assert_eq!(summary.errors, 0, "transport errors during load");
    assert!(
        summary.crash_recovery_ms.is_some(),
        "crash cell ran without a crash"
    );
    let crash = summary
        .crash_report
        .as_deref()
        .expect("crash was injected and reported");
    assert_eq!(summary.crash_consistent, Some(true), "report: {crash}");
    assert_eq!(summary.crash_lost_acked, Some(0), "report: {crash}");
    assert!(summary.durability_ok());

    server.shutdown();
    let report = server.join();
    assert_eq!(report.lost_acked(), 0, "server-side lost-ack accounting");
}

#[test]
fn overload_sheds_with_typed_replies_and_keeps_serving() {
    // A 1-deep queue with a slow batch deadline forces admission
    // control to reject most of a pipelined burst.
    let mut cfg = small_server(1, 1, 31);
    cfg.batch_max = 4;
    cfg.batch_wait_ms = 20;
    let server = Server::start(cfg).unwrap();
    let bind = tcp_bind(&server);

    let mut spec = LoadSpec::new(bind.clone());
    spec.conns = 4;
    spec.requests = 400;
    spec.window = 32;
    spec.read_pct = 0;
    spec.verify = false;
    let summary = run_load(&spec).unwrap();

    assert_eq!(summary.errors, 0);
    assert_eq!(
        summary.completed, summary.sent,
        "every request got a reply — shed or served, never dropped"
    );
    assert!(summary.shed > 0, "tiny queue never shed under a burst");
    assert!(
        summary.completed > summary.shed,
        "some requests were still served"
    );

    // The server still answers after the burst: no accept-loop stall.
    let mut c = Client::dial(&bind).unwrap();
    assert!(matches!(
        c.call(&Request::Ping { id: 900 }).unwrap(),
        Response::Pong { id: 900 }
    ));

    server.shutdown();
    let report = server.join();
    let jsonl = report.to_jsonl();
    let shed_total: u64 = jsonl
        .lines()
        .filter(|l| l.contains("\"serve-interval\""))
        .map(|l| {
            lrp_obs::Json::parse(l)
                .unwrap()
                .get("counts")
                .and_then(|c| c.get("shed"))
                .and_then(lrp_obs::Json::as_u64)
                .unwrap_or(0)
        })
        .sum();
    assert_eq!(
        shed_total, summary.shed,
        "metrics stream accounts every shed"
    );
}

#[test]
fn resolve_answers_exactly_once_queries_across_a_crash_restart() {
    let server = Server::start(small_server(1, 64, 61)).unwrap();
    let bind = tcp_bind(&server);
    let mut c = Client::dial(&bind).unwrap();

    // The wire request id doubles as the detectable-op rid: a durable
    // ack means the slot stamp persisted with the effect.
    let rid = durable_mutation(&mut c, 321, true, 30_000).expect("put 321 never acked durable");
    match c
        .call(&Request::Resolve {
            id: 40_000,
            key: 321,
            rid,
        })
        .unwrap()
    {
        Response::Resolved {
            rid: r, done, key, ..
        } => {
            assert_eq!(r, rid);
            assert!(done, "durably-acked put must resolve Done");
            assert_eq!(key, 321, "stamp carries the mutated key");
        }
        other => panic!("unexpected reply {other:?}"),
    }

    // A rid the service never stamped resolves not-started.
    match c
        .call(&Request::Resolve {
            id: 40_001,
            key: 321,
            rid: (9u64 << 48) | 1,
        })
        .unwrap()
    {
        Response::Resolved { done, .. } => assert!(!done, "unknown rid must be NotStarted"),
        other => panic!("unexpected reply {other:?}"),
    }

    // Crash-restart the shard. The slot table is rebuilt from the
    // durable image and republished before the Crashed reply leaves,
    // so the very next Resolve must still see the verdict.
    match c
        .call(&Request::Crash {
            id: 40_002,
            shard: 0,
        })
        .unwrap()
    {
        Response::Report { id: 40_002, json } => {
            let doc = lrp_obs::Json::parse(&json).unwrap();
            assert_eq!(doc.get("record").unwrap().as_str(), Some("serve-crash"));
            assert!(
                doc.get("stamps").unwrap().as_u64().unwrap() > 0,
                "restart found no durable slot stamps: {json}"
            );
            assert_eq!(doc.get("torn_stamps").unwrap().as_u64(), Some(0));
        }
        other => panic!("unexpected reply {other:?}"),
    }
    match c
        .call(&Request::Resolve {
            id: 40_003,
            key: 321,
            rid,
        })
        .unwrap()
    {
        Response::Resolved { done, key, .. } => {
            assert!(done, "durably-acked rid lost its verdict across the crash");
            assert_eq!(key, 321);
        }
        other => panic!("unexpected reply {other:?}"),
    }

    server.shutdown();
    let report = server.join();
    assert_eq!(report.lost_acked(), 0);
}

#[test]
fn client_requested_shutdown_stops_the_server() {
    let server = Server::start(small_server(1, 16, 41)).unwrap();
    let bind = tcp_bind(&server);
    let mut spec = LoadSpec::new(bind);
    spec.conns = 1;
    spec.requests = 40;
    spec.window = 4;
    spec.verify = false;
    spec.shutdown = true;
    let summary = run_load(&spec).unwrap();
    assert_eq!(summary.errors, 0);
    // join() returns because the client's Shutdown request stopped the
    // accept loop — no Server::shutdown() call here.
    let report = server.join();
    assert_eq!(report.lost_acked(), 0);
}

#[cfg(unix)]
#[test]
fn uds_mode_serves_the_same_protocol() {
    let path = std::env::temp_dir().join(format!("lrp-serve-test-{}.sock", std::process::id()));
    let mut cfg = small_server(2, 64, 53);
    cfg.bind = Bind::Uds(path.clone());
    let server = Server::start(cfg).unwrap();
    assert!(server.local_addr().is_none(), "UDS has no TCP addr");

    let bind = Bind::Uds(path.clone());
    let mut spec = LoadSpec::new(bind);
    spec.conns = 2;
    spec.requests = 200;
    spec.window = 8;
    spec.verify = true;
    let summary = run_load(&spec).unwrap();
    assert_eq!(summary.errors, 0);
    assert_eq!(summary.verify_violations, 0);

    server.shutdown();
    let report = server.join();
    assert_eq!(report.lost_acked(), 0);
    assert!(!path.exists(), "socket file cleaned up on join");
}
