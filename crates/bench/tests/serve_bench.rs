//! End-to-end `lrp-bench serve` path: a tiny five-cell run produces a
//! parseable `BENCH_serve.json` that self-passes the regression gate
//! and carries the per-mechanism frames and durable share.

use lrp_bench::gate::{gate, render_gate};
use lrp_bench::serve_bench::{report_json, run_serve_bench, ServeBenchSpec};
use lrp_obs::Json;

fn tiny_spec() -> ServeBenchSpec {
    ServeBenchSpec {
        shards: 2,
        conns: 2,
        requests: 200,
        window: 8,
        key_range: 128,
        read_pct: 20,
        seed: 3,
    }
}

#[test]
fn serve_bench_runs_all_cells_and_self_passes_the_gate() {
    let report = run_serve_bench(&tiny_spec(), |_| {}).unwrap();
    let names: Vec<&str> = report.cells.iter().map(|c| c.name).collect();
    assert_eq!(
        names,
        [
            "uniform",
            "zipfian",
            "zipfian-crash",
            "zipfian-sb",
            "zipfian-bb"
        ]
    );
    for c in &report.cells {
        assert!(c.summary.completed > 0, "cell {} served nothing", c.name);
        assert!(c.ops_per_sec() > 0.0, "cell {} has no throughput", c.name);
        assert!(
            c.summary.acked_durable > 0,
            "cell {} acked nothing durable",
            c.name
        );
        assert!(c.spans > 0, "cell {} recorded no request spans", c.name);
    }
    let crash = report
        .cells
        .iter()
        .find(|c| c.name == "zipfian-crash")
        .unwrap();
    assert!(crash.summary.crash_recovery_ms.is_some());
    assert!(
        crash.summary.durability_ok(),
        "crash cell lost durable acks"
    );
    assert!(report.crash_recovery_ms().is_some());
    // Every batch ends durable under a persisting mechanism. A
    // non-durable answer is left only where the commit withdrew an ack
    // the committed image contradicts (two mutations of one key in one
    // batch), so almost every request is acked durable with one frame.
    let spec = tiny_spec();
    for c in &report.cells {
        assert!(c.durable_share(&spec) > 0.9, "cell {}", c.name);
        assert!(c.frames_per_request(&spec) >= 1.0, "cell {}", c.name);
        if c.name != "zipfian-crash" {
            assert!(c.frames_per_request(&spec) < 1.1, "cell {}", c.name);
        }
    }

    // The document round-trips and self-passes the gate.
    let doc = Json::parse(&report_json(&report).to_pretty()).unwrap();
    assert_eq!(doc.get("type").unwrap().as_str(), Some("serve-bench"));
    let cells = doc.get("cells").unwrap().as_arr().unwrap();
    assert_eq!(cells.len(), 5);
    for c in cells {
        for key in ["mechanism", "frames_per_request", "durable_share"] {
            assert!(c.get(key).is_some(), "cell without {key}: {c:?}");
        }
    }
    let v = gate(&doc, &doc).unwrap();
    assert!(v.pass(), "{}", render_gate(&v));
    assert_eq!(v.compared, 5);
    assert_eq!(v.report, "serve-bench");
}
