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

/// Runs `lrp-check` with `args` plus `--json-out`, requiring exit 0;
/// returns the report's text.
fn report(tag: &str, args: &[&str]) -> String {
    let dir = std::env::temp_dir().join(format!("lrp-check-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let json = dir.join("report.json");
    let out = Command::new(env!("CARGO_BIN_EXE_lrp-check"))
        .args(args)
        .arg("--json-out")
        .arg(&json)
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    let text = std::fs::read_to_string(&json).expect("report written");
    std::fs::remove_dir_all(&dir).ok();
    text
}

/// CI's two model-check reports, byte for byte: a change to any
/// crash-point, waived or cut count must regenerate the fixtures.
#[test]
fn ci_reports_match_their_goldens() {
    let golden = |name: &str| {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden");
        std::fs::read_to_string(dir.join(name)).expect("fixture present")
    };
    let cross = report("golden-cv", &["cross-validate"]);
    assert_eq!(cross, golden("check_report.json"));
    let walk = report("golden-en", &["enumerate", "--structures", "linkedlist"]);
    assert_eq!(walk, golden("enumerate_report.json"));
}

/// `enumerate` walks one lattice per workload and discipline and reuses
/// it for both modes and for SB and BB: every cell still reports what
/// its own walk finds.
#[test]
fn shared_walks_equal_one_walk_per_cell() {
    use lrp_campaign::{build_trace, MatrixSpec};
    use lrp_lfds::Structure;
    use lrp_obs::Json;
    use lrp_sim::{Mechanism, NvmMode};
    let text = report(
        "walks",
        &[
            "enumerate",
            "--structures",
            "linkedlist,hashmap",
            "--mechs",
            "nop,sb,bb",
            "--modes",
            "cached,uncached",
        ],
    );
    let doc = Json::parse(&text).unwrap();
    let rows = doc.get("cells").and_then(Json::as_arr).unwrap();
    let matrix = MatrixSpec {
        structures: vec![Structure::LinkedList, Structure::HashMap],
        mechanisms: vec![Mechanism::Nop, Mechanism::Sb, Mechanism::Bb],
        modes: NvmMode::ALL.to_vec(),
        ..MatrixSpec::check()
    };
    let cells = matrix.cells();
    assert_eq!(rows.len(), cells.len());
    for (row, cell) in rows.iter().zip(&cells) {
        assert_eq!(row.field_str("id").unwrap(), cell.id());
        let trace = build_trace(cell);
        let d = cell.mechanism.discipline();
        let own = lrp_check::Checker::new(cell.structure, &trace)
            .unwrap()
            .enumerate(d, 20_000, "own")
            .unwrap_or_else(|cx| panic!("{cx}"));
        assert_eq!(row.field_u64("cuts").unwrap(), own.stats.states as u64);
        assert_eq!(row.field_u64("checked").unwrap(), own.checked as u64);
        assert_eq!(row.field_u64("waived").unwrap(), own.waived as u64);
    }
}
