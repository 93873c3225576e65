//! End-to-end `lrp-bench serve` path: a tiny three-cell run produces a
//! parseable `BENCH_serve.json` that self-passes the serve gate, and
//! the gate catches synthetic regressions.

use lrp_bench::gate::render_gate;
use lrp_bench::serve_bench::{gate_serve, report_json, run_serve_bench, ServeBenchSpec};
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
    assert_eq!(names, ["uniform", "zipfian", "zipfian-crash"]);
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

    // The document round-trips and self-passes the gate.
    let doc = Json::parse(&report_json(&report).to_pretty()).unwrap();
    assert_eq!(doc.get("type").unwrap().as_str(), Some("serve-bench"));
    assert_eq!(doc.get("cells").unwrap().as_arr().unwrap().len(), 3);
    let v = gate_serve(&doc, &doc, 3.0).unwrap();
    assert!(v.pass(), "{}", render_gate(&v));
    assert_eq!(v.compared, 3);
}
