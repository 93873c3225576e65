//! The three matrix commands — `lrp-campaign`, `lrp-bench host` and
//! `lrp-check` — read one workload matrix through one set of axis
//! flags: one flag string names the same cells in all three, and the
//! flags each used to spell its own way are refused.

use lrp_obs::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// The shared axis flags, every axis set.
const AXES: &[&str] = &[
    "--structures",
    "hashmap",
    "--mechs",
    "nop,lrp",
    "--modes",
    "cached,uncached",
    "--threads",
    "2",
    "--seeds",
    "1,2",
    "--size",
    "16",
    "--ops",
    "4",
];

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lrp-matrix-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(bin: &str, args: &[&str], extra: &[&Path]) -> Output {
    let out = Command::new(bin)
        .args(args)
        .args(extra)
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{bin} {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// The `id` of every cell of a report, and its `matrix` object.
fn report_cells(path: &Path) -> (Vec<String>, Json) {
    let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let ids = doc
        .get("cells")
        .and_then(Json::as_arr)
        .expect("cells array")
        .iter()
        .map(|c| c.field_str("id").unwrap().to_string())
        .collect();
    (ids, doc.get("matrix").expect("matrix object").clone())
}

#[test]
fn one_flag_string_names_the_same_cells_in_every_matrix_command() {
    let dir = scratch("ids");
    let campaign = run(
        env!("CARGO_BIN_EXE_lrp-campaign"),
        &[&["matrix"], AXES].concat(),
        &[],
    );
    let listed: Vec<String> = String::from_utf8_lossy(&campaign.stdout)
        .lines()
        .skip(2)
        .map(|l| l.split_whitespace().nth(1).unwrap().to_string())
        .collect();

    let host = dir.join("host.json");
    run(
        env!("CARGO_BIN_EXE_lrp-bench"),
        &[&["host"], AXES, &["--samples", "1", "--json-out"]].concat(),
        &[&host],
    );
    let check = dir.join("check.json");
    run(
        env!("CARGO_BIN_EXE_lrp-check"),
        &[&["cross-validate"], AXES, &["--json-out"]].concat(),
        &[&check],
    );
    let (host_ids, host_matrix) = report_cells(&host);
    let (check_ids, check_matrix) = report_cells(&check);

    assert_eq!(listed.len(), 8, "1 x 2 x 2 x 1 x 2 cells: {listed:?}");
    assert_eq!(listed[0], "hashmap/nop/cached/t2/s1");
    assert_eq!(listed[7], "hashmap/lrp/uncached/t2/s2");
    assert_eq!(host_ids, listed);
    assert_eq!(check_ids, listed);
    // One serializer: the two reports' matrix objects differ only in
    // the default crash sampling each command starts from.
    let axes = |m: &Json| {
        ["structures", "mechanisms", "modes", "threads", "seeds"]
            .map(|k| m.get(k).map(Json::to_compact))
    };
    assert_eq!(axes(&host_matrix), axes(&check_matrix));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn lrp_check_replays_an_uncached_cell() {
    let dir = scratch("uncached");
    let json = dir.join("check.json");
    let out = run(
        env!("CARGO_BIN_EXE_lrp-check"),
        &[
            "cross-validate",
            "--structures",
            "linkedlist",
            "--mechs",
            "lrp",
            "--modes",
            "uncached",
            "--seeds",
            "3",
            "--json-out",
        ],
        &[&json],
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("1 cells ok"));
    let (ids, matrix) = report_cells(&json);
    assert_eq!(ids, ["linkedlist/lrp/uncached/t2/s3"]);
    assert_eq!(
        matrix.get("modes").map(Json::to_compact).unwrap(),
        "[\"uncached\"]"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn the_old_per_command_flags_are_refused() {
    let campaign = env!("CARGO_BIN_EXE_lrp-campaign");
    let bench = env!("CARGO_BIN_EXE_lrp-bench");
    let check = env!("CARGO_BIN_EXE_lrp-check");
    let cases: [(&str, &str, &[&str]); 9] = [
        (campaign, "matrix", &["--mechanisms", "lrp"]),
        (bench, "host", &["--mechanisms", "lrp"]),
        (bench, "host", &["--mode", "cached"]),
        (bench, "host", &["--jobs", "2"]),
        (bench, "host", &["--seed", "1"]),
        (check, "cross-validate", &["--mechanisms", "lrp"]),
        (check, "cross-validate", &["--mode", "cached"]),
        (check, "cross-validate", &["--seed", "1"]),
        (check, "enumerate", &["--jobs", "2"]),
    ];
    for (bin, cmd, args) in cases {
        let out = Command::new(bin)
            .arg(cmd)
            .args(args)
            .output()
            .expect("binary runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {cmd} {args:?}: {err}");
        assert!(
            err.contains(&format!("unknown flag {}", args[0])),
            "{bin} {cmd} {args:?}: {err}"
        );
    }
}
