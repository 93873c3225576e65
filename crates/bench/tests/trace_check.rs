//! Exit-code contract of `lrp-trace check`: 0 when every mechanism
//! keeps RP and recovers at every sampled crash point, 3 when any
//! mechanism breaks RP or fails null recovery.

use std::path::Path;
use std::process::{Command, Output};

fn gen_and_check(dir: &Path, name: &str, gen: &[&str]) -> Output {
    let trace = dir.join(name);
    let out = Command::new(env!("CARGO_BIN_EXE_lrp-trace"))
        .arg("gen")
        .args(gen)
        .arg("--out")
        .arg(&trace)
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "gen {gen:?} failed");
    Command::new(env!("CARGO_BIN_EXE_lrp-trace"))
        .arg("check")
        .arg(&trace)
        .output()
        .expect("binary runs")
}

#[test]
fn check_exits_zero_on_a_clean_trace_and_three_on_a_finding() {
    let dir = std::env::temp_dir().join(format!("lrp-trace-check-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let clean = gen_and_check(
        &dir,
        "clean.trace",
        &["--structure", "hashmap", "--threads", "2", "--ops", "8"],
    );
    let text = String::from_utf8_lossy(&clean.stdout);
    assert_eq!(clean.status.code(), Some(0), "{text}");
    assert_eq!(text.matches("crash points ok").count(), 3, "{text}");

    // The smallest known trace on which LRP breaks RP: its same-thread
    // release-order violation, open in ROADMAP.md. Once that is fixed
    // this trace checks clean and the case needs another finding.
    let bad = gen_and_check(
        &dir,
        "lrp_rp.trace",
        &[
            "--structure",
            "bstree",
            "--size",
            "4096",
            "--threads",
            "4",
            "--ops",
            "64",
            "--seed",
            "8",
        ],
    );
    let text = String::from_utf8_lossy(&bad.stdout);
    assert_eq!(bad.status.code(), Some(3), "{text}");
    assert!(text.contains("RP=VIOLATED"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}
