//! Exit-code contract of the `lrp-check` gate binary: a clean cell
//! exits 0, and `--mutate-reorder` must detect its own injected
//! persist-pair reordering and exit 3 with a counterexample.

use std::process::Command;

#[test]
fn clean_cell_exits_zero_with_a_report() {
    let dir = std::env::temp_dir().join(format!("lrp-check-gate-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let json = dir.join("check.json");
    let out = Command::new(env!("CARGO_BIN_EXE_lrp-check"))
        .args([
            "cross-validate",
            "--structures",
            "linkedlist",
            "--mechs",
            "lrp",
            "--seeds",
            "3",
            "--json-out",
        ])
        .arg(&json)
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = std::fs::read_to_string(&json).expect("report written");
    assert!(report.contains("\"crash_points\""));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mutation_is_caught_with_exit_three_and_a_counterexample() {
    let dir = std::env::temp_dir().join(format!("lrp-check-mut-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cx = dir.join("cx.txt");
    let out = Command::new(env!("CARGO_BIN_EXE_lrp-check"))
        .args([
            "cross-validate",
            "--structures",
            "linkedlist",
            "--mechs",
            "lrp",
            "--seeds",
            "1",
            "--ops",
            "8",
            "--mutate-reorder",
            "--cx-out",
        ])
        .arg(&cx)
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(3),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("counterexample:"), "stdout: {stdout}");
    let written = std::fs::read_to_string(&cx).expect("counterexample written");
    assert!(written.contains("inadmissible schedule"));
    std::fs::remove_dir_all(&dir).ok();
}
