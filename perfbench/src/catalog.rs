//! The metric catalogue: every name the benchmark prints, with its unit.
//!
//! Each workload prints every end-to-end metric (untraced run) or every
//! per-layer metric (traced run). A per-layer metric of a layer the
//! workload bypasses reads 0: that layer did no work in the run.

/// Mechanisms every simulated workload replays, in report order.
pub const MECHS: [&str; 4] = ["nop", "sb", "bb", "lrp"];

/// Mechanisms whose schedules are audited (NOP promises no order).
pub const AUDITED: [&str; 3] = ["sb", "bb", "lrp"];

/// Layers self time is reported for (`bench` is the benchmark itself).
pub const LAYERS: [&str; 7] = ["exec", "model", "sim", "obs", "recovery", "serve", "bench"];

/// End-to-end metrics: name and unit.
pub const END_TO_END: [(&str, &str); 2] = [("setup_s", "s"), ("latency_ms", "ms")];

/// End-to-end metrics with a tracing-overhead figure.
pub const OVERHEAD: [&str; 2] = ["setup_s", "latency_ms"];

/// Per-layer metrics: name and unit, in print order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit: &'static str| v.push((name, unit));
    add("exec.build_trace_s".into(), "s");
    add("exec.events_per_s".into(), "1/s");
    add("model.validate_ms".into(), "ms");
    add("model.check_rp_ms".into(), "ms");
    for m in AUDITED {
        add(format!("model.rp_violations.{m}"), "count");
    }
    for (metric, unit) in [
        ("replay_ms", "ms"),
        ("host_ns_per_event", "ns"),
        ("cycles", "cycles"),
        ("ops_per_kcycle", "1/kcycle"),
        ("flushes", "count"),
        ("nvm_requests", "count"),
        ("stall_cycles", "cycles"),
    ] {
        for m in MECHS {
            add(format!("sim.{metric}.{m}"), unit);
        }
    }
    for m in MECHS {
        add(format!("obs.recorder_ms.{m}"), "ms");
    }
    for (metric, unit) in [
        ("audit_ms", "ms"),
        ("crash_points", "count"),
        ("failures", "count"),
    ] {
        for m in AUDITED {
            add(format!("recovery.{metric}.{m}"), unit);
        }
    }
    add("recovery.ms_per_point".into(), "ms");
    for (name, unit) in [
        ("serve.ping_rtt_p50_ms", "ms"),
        ("serve.ping_rtt_tail_ms", "ms"),
        ("serve.ping_samples", "count"),
        ("serve.shard.execute_p50_ms", "ms"),
        ("serve.shard.execute_tail_ms", "ms"),
        ("serve.shard.build_ms", "ms"),
        ("serve.shard.sim_ms", "ms"),
        ("serve.shard.commit_ms", "ms"),
        ("serve.shard.batches", "count"),
        ("serve.batch_fill", "ratio"),
        ("serve.queue_depth_max", "count"),
        ("serve.shed", "count"),
        ("serve.extra_frames_share", "ratio"),
        ("kv.durable_ops_per_s", "1/s"),
        ("kv.replies_per_s", "1/s"),
        ("kv.durable_share", "ratio"),
        ("kv.tail_ms", "ms"),
        ("kv.tail_pct", "%"),
        ("kv.samples", "count"),
        ("kv.generator_late_p50_ms", "ms"),
        ("kv.generator_late_max_ms", "ms"),
        ("fail_share", "ratio"),
        ("peak_rss_mb", "MiB"),
        ("host.ref_ms", "ms"),
        ("host.latency_raw_ms", "ms"),
    ] {
        add(name.into(), unit);
    }
    for layer in LAYERS {
        add(format!("self_ms.{layer}"), "ms");
    }
    for (name, unit) in END_TO_END {
        if OVERHEAD.contains(&name) {
            add(format!("overhead.{name}"), unit);
        }
    }
    v
}

/// The unit of a per-layer metric (panics on a name outside the
/// catalogue: a typo in the benchmark, not an input error).
pub fn layer_unit(name: &str) -> &'static str {
    per_layer()
        .into_iter()
        .find(|(n, _)| n == name)
        .map(|(_, u)| u)
        .unwrap_or_else(|| panic!("metric {name:?} is not in the catalogue"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrp_obs::Json;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                (
                    m.get("name")
                        .and_then(Json::as_str)
                        .expect("name")
                        .to_string(),
                    m.get("unit")
                        .and_then(Json::as_str)
                        .expect("unit")
                        .to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalogue() {
        let doc = benchmark_json();
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed(&doc, "end_to_end"), e2e);
        let layer: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(listed(&doc, "per_layer"), layer);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        let mut seen = std::collections::HashSet::new();
        for n in &names {
            assert!(seen.insert(n.clone()), "duplicate metric {n}");
            assert!(n.len() <= 64, "{n} too long");
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
        assert!(names.len() - END_TO_END.len() <= 128);
    }
}
