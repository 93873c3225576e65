//! `lrp-bench gate` on real reports: the committed campaign baseline
//! passes against a fresh smoke campaign, and the gate exits 1 when it
//! compared nothing or was handed reports of different workloads.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn repo_file(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
}

fn gate(baseline: &Path, current: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lrp-bench"))
        .arg("gate")
        .arg("--baseline")
        .arg(baseline)
        .arg("--current")
        .arg(current)
        .output()
        .expect("lrp-bench runs")
}

/// Runs the smoke campaign with `extra` flags into a scratch file and
/// returns the summary's path.
fn smoke_campaign(name: &str, extra: &[&str]) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lrp-gate-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let summary = dir.join("BENCH_campaign.json");
    let run = Command::new(env!("CARGO_BIN_EXE_lrp-campaign"))
        .args(["run", "--smoke", "--quiet", "--out"])
        .arg(dir.join("campaign_results.jsonl"))
        .arg("--bench")
        .arg(&summary)
        .args(extra)
        .output()
        .expect("lrp-campaign runs");
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    summary
}

#[test]
fn committed_campaign_baseline_passes_a_fresh_smoke_campaign() {
    let current = smoke_campaign("pass", &[]);
    let out = gate(&repo_file("baselines/BENCH_baseline.json"), &current);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("gate: PASS (campaign report, 2 keys compared"),
        "{stdout}"
    );
    let _ = std::fs::remove_dir_all(current.parent().unwrap());
}

#[test]
fn a_gate_that_compared_no_key_exits_1() {
    // The same workload at another thread count shares no key.
    let current = smoke_campaign("disjoint", &["--threads", "4"]);
    let out = gate(&repo_file("baselines/BENCH_baseline.json"), &current);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(
        stdout.contains("gate: FAIL (campaign report, 0 keys compared"),
        "{stdout}"
    );
    let _ = std::fs::remove_dir_all(current.parent().unwrap());
}

#[test]
fn host_reports_of_different_tiers_are_refused() {
    let smoke = repo_file("baselines/BENCH_host.json");
    let paper = repo_file("BENCH_host_paper.json");
    for (baseline, current) in [(&smoke, &paper), (&paper, &smoke)] {
        let out = gate(baseline, current);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{err}");
        assert!(out.stdout.is_empty(), "no verdict is printed");
        assert_eq!(err.lines().count(), 1, "{err}");
        assert!(err.contains("different workloads"), "{err}");
    }
}

#[test]
fn reports_of_different_types_are_refused() {
    let out = gate(
        &repo_file("baselines/BENCH_host.json"),
        &repo_file("baselines/BENCH_serve.json"),
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert_eq!(err.lines().count(), 1, "{err}");
    assert!(
        err.contains("serve-bench") && err.contains("host-bench"),
        "{err}"
    );
}

#[test]
fn an_old_schema_host_report_is_refused() {
    // The host report before it carried the campaign's matrix object:
    // its workload fields were top-level and its cells keyed
    // structure/mechanism.
    let dir = std::env::temp_dir().join(format!("lrp-gate-old-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let old = dir.join("BENCH_host_old.json");
    std::fs::write(
        &old,
        r#"{"type": "host-bench", "tier": "smoke", "mode": "cached", "threads": 2,
            "ops_per_thread": 32, "initial_size": 32, "seed": 1, "samples": 3,
            "cells": [{"structure": "hashmap", "mechanism": "lrp", "ops_per_sec": 1.0}]}"#,
    )
    .unwrap();
    let new = repo_file("baselines/BENCH_host.json");
    for (baseline, current) in [(&old, &new), (&new, &old)] {
        let out = gate(baseline, current);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{err}");
        assert!(out.stdout.is_empty(), "no verdict is printed");
        assert_eq!(err.lines().count(), 1, "{err}");
        assert!(
            err.contains("different workloads") && err.contains("matrix."),
            "{err}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
