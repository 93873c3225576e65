//! The `--help` contract of every workspace binary: exit 0, usage on
//! stdout, and every flag the binary actually extracts is documented.

use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

fn help_output(bin: &str) -> String {
    let out = Command::new(bin)
        .arg("--help")
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{bin} --help must exit 0");
    String::from_utf8(out.stdout).expect("usage is UTF-8")
}

fn assert_documents(bin: &str, flags: &[&str]) {
    let help = help_output(bin);
    for flag in flags {
        assert!(
            help.contains(&format!("--{flag}")),
            "{bin} --help does not mention --{flag}:\n{help}"
        );
    }
    assert!(help.contains("exit code"), "{bin} --help lists exit codes");
}

#[test]
fn lrp_eval_help_documents_every_flag() {
    assert_documents(
        env!("CARGO_BIN_EXE_lrp-eval"),
        &["quick", "threads", "ops", "seed"],
    );
}

#[test]
fn lrp_trace_help_documents_every_flag() {
    assert_documents(
        env!("CARGO_BIN_EXE_lrp-trace"),
        &["structure", "size", "threads", "ops", "seed", "out"],
    );
}

#[test]
fn lrp_profile_help_documents_every_flag() {
    assert_documents(
        env!("CARGO_BIN_EXE_lrp-profile"),
        &[
            "structure",
            "mech",
            "a",
            "b",
            "mode",
            "threads",
            "ops",
            "size",
            "seed",
            "ret-capacity",
            "top",
            "folded-out",
            "chains-out",
            "trace-out",
            "metrics-out",
            "sample-every",
        ],
    );
}

#[test]
fn lrp_bench_help_documents_every_flag() {
    assert_documents(
        env!("CARGO_BIN_EXE_lrp-bench"),
        &[
            "smoke",
            "paper",
            "workers",
            "structures",
            "mechs",
            "modes",
            "threads",
            "seeds",
            "ops",
            "size",
            "seed",
            "samples",
            "json-out",
            "baseline",
            "current",
            "shards",
            "conns",
            "requests",
            "window",
            "key-range",
            "read-pct",
            "trials",
            "dists",
            "batch",
            "warm",
        ],
    );
}

#[test]
fn lrp_bench_help_documents_the_serve_commands() {
    let help = help_output(env!("CARGO_BIN_EXE_lrp-bench"));
    for cmd in ["gate", "serve", "crash-fuzz"] {
        assert!(
            help.contains(&format!("lrp-bench {cmd}")),
            "lrp-bench --help mentions the {cmd} command:\n{help}"
        );
    }
    for gone in ["serve-gate", "--max-regression"] {
        assert!(!help.contains(gone), "{gone} is gone:\n{help}");
    }
    assert!(
        help.contains("4  crash-fuzz found an exactly-once violation"),
        "lrp-bench --help documents exit 4:\n{help}"
    );
}

#[test]
fn lrp_profile_help_documents_run_diff_and_the_violation_exit() {
    let help = help_output(env!("CARGO_BIN_EXE_lrp-profile"));
    for cmd in ["run", "diff"] {
        assert!(
            help.contains(&format!("lrp-profile {cmd}")),
            "lrp-profile --help mentions the {cmd} command:\n{help}"
        );
    }
    for gone in [
        "critpath-diff",
        "lrp-profile critpath",
        "lrp-profile gate",
        "--tol-",
        "--ops-only",
    ] {
        assert!(!help.contains(gone), "{gone} is gone:\n{help}");
    }
    assert!(
        help.contains("3  run/diff: invariant violations observed (I1-I4, critpath C1-C2)"),
        "lrp-profile --help documents exit 3:\n{help}"
    );
}

#[test]
fn lrp_trace_help_documents_the_check_violation_exit() {
    let help = help_output(env!("CARGO_BIN_EXE_lrp-trace"));
    assert!(
        help.contains("3  check: an RP violation or a null-recovery failure"),
        "lrp-trace --help documents exit 3:\n{help}"
    );
    assert!(!help.contains("report"), "report is gone:\n{help}");
}

#[test]
fn lrp_serve_help_documents_every_flag() {
    assert_documents(
        env!("CARGO_BIN_EXE_lrp-serve"),
        &[
            "bind",
            "uds",
            "shards",
            "structure",
            "mech",
            "mode",
            "sim-threads",
            "size",
            "key-range",
            "seed",
            "audit-samples",
            "batch-max",
            "queue-depth",
            "metrics-every-ms",
            "metrics-out",
            "port-file",
            "trace-out",
            "span-cap",
            "flight-dir",
            "record",
            "clients",
            "ring",
            "no-detect",
        ],
    );
    let help = help_output(env!("CARGO_BIN_EXE_lrp-serve"));
    assert!(
        !help.contains("batch-wait"),
        "the batch timer is gone:\n{help}"
    );
}

#[test]
fn lrp_load_help_documents_every_flag() {
    assert_documents(
        env!("CARGO_BIN_EXE_lrp-load"),
        &[
            "addr",
            "uds",
            "conns",
            "requests",
            "window",
            "dist",
            "theta",
            "key-range",
            "read-pct",
            "qps",
            "seed",
            "shed-retries",
            "crash-at",
            "crash-shard",
            "no-verify",
            "shutdown",
            "json-out",
            "probe",
        ],
    );
}

#[test]
fn lrp_check_help_documents_every_flag() {
    assert_documents(
        env!("CARGO_BIN_EXE_lrp-check"),
        &[
            "structures",
            "mechs",
            "modes",
            "threads",
            "ops",
            "size",
            "seeds",
            "max-states",
            "mutate-reorder",
            "json-out",
            "cx-out",
        ],
    );
}

#[test]
fn lrp_check_documents_the_violation_exit_code() {
    let help = help_output(env!("CARGO_BIN_EXE_lrp-check"));
    assert!(
        help.contains("3  violation found"),
        "lrp-check --help documents exit 3:\n{help}"
    );
}

#[test]
fn serve_binaries_document_the_durability_exit_code() {
    for bin in [
        env!("CARGO_BIN_EXE_lrp-serve"),
        env!("CARGO_BIN_EXE_lrp-load"),
    ] {
        let help = help_output(bin);
        assert!(
            help.contains("4  durability violation"),
            "{bin} --help documents exit 4:\n{help}"
        );
    }
}

#[test]
fn lrp_load_requires_a_target() {
    let out = Command::new(env!("CARGO_BIN_EXE_lrp-load"))
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(2),
        "no --addr/--uds is a usage error"
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("--addr"),
        "error names the missing flag: {err}"
    );
}

#[test]
fn unknown_flags_exit_2_with_usage() {
    for bin in [
        env!("CARGO_BIN_EXE_lrp-eval"),
        env!("CARGO_BIN_EXE_lrp-trace"),
        env!("CARGO_BIN_EXE_lrp-profile"),
        env!("CARGO_BIN_EXE_lrp-serve"),
        env!("CARGO_BIN_EXE_lrp-load"),
        env!("CARGO_BIN_EXE_lrp-bench"),
        env!("CARGO_BIN_EXE_lrp-check"),
    ] {
        let out = Command::new(bin)
            .args(["run", "--no-such-flag"])
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{bin} rejects unknown flags");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("usage"), "{bin} prints usage on error: {err}");
    }
}

/// Runs `cmd` to its exit, or kills it after `secs`: a server that
/// wrongly accepts its flags listens until it is killed.
fn output_within(cmd: &mut Command, secs: u64) -> Output {
    let mut child = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let deadline = Instant::now() + Duration::from_secs(secs);
    while child.try_wait().expect("child waits").is_none() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    let _ = child.kill();
    child.wait_with_output().expect("child output")
}

#[test]
fn workloads_the_simulator_cannot_replay_exit_2() {
    let eval = env!("CARGO_BIN_EXE_lrp-eval");
    let trace = env!("CARGO_BIN_EXE_lrp-trace");
    let campaign = env!("CARGO_BIN_EXE_lrp-campaign");
    let profile = env!("CARGO_BIN_EXE_lrp-profile");
    let check = env!("CARGO_BIN_EXE_lrp-check");
    let bench = env!("CARGO_BIN_EXE_lrp-bench");
    let serve = env!("CARGO_BIN_EXE_lrp-serve");
    // A campaign that wrongly runs must not write into the source tree.
    let tmp = std::env::temp_dir().join(format!("lrp-cli-workload-{}", std::process::id()));
    let (out, summary) = (tmp.with_extension("jsonl"), tmp.with_extension("json"));
    let cases: [(&str, &[&str], &str); 21] = [
        (eval, &["fig5", "--quick", "--threads", "0"], "--threads"),
        (eval, &["fig5", "--quick", "--threads", "65"], "--threads"),
        (eval, &["fig5", "--quick", "--ops", "0"], "--ops"),
        (campaign, &["--threads", "0"], "--threads"),
        (campaign, &["--threads", "2,65"], "--threads"),
        (campaign, &["--ops", "0"], "--ops"),
        (
            profile,
            &["run", "--structure", "queue", "--threads", "65"],
            "--threads",
        ),
        (
            profile,
            &["run", "--structure", "queue", "--threads", "0"],
            "--threads",
        ),
        (
            profile,
            &["run", "--structure", "queue", "--ops", "0"],
            "--ops",
        ),
        (
            profile,
            &["diff", "--structure", "queue", "--threads", "65"],
            "--threads",
        ),
        (
            check,
            &["--structures", "queue", "--mechs", "lrp", "--threads", "65"],
            "--threads",
        ),
        (
            check,
            &["--structures", "queue", "--mechs", "lrp", "--threads", "0"],
            "--threads",
        ),
        (
            check,
            &["--structures", "queue", "--mechs", "lrp", "--ops", "0"],
            "--ops",
        ),
        (bench, &["host", "--smoke", "--threads", "65"], "--threads"),
        (bench, &["host", "--smoke", "--threads", "0"], "--threads"),
        (bench, &["host", "--smoke", "--ops", "0"], "--ops"),
        (
            bench,
            &["crash-fuzz", "--smoke", "--structures", "queue"],
            "--structures",
        ),
        (serve, &["--sim-threads", "65"], "--sim-threads"),
        // Retired with the batch timer: batches close when the queue
        // drains.
        (serve, &["--batch-wait-ms", "5"], "--batch-wait-ms"),
        // An empty workload; more threads than cores stay legal for gen.
        (
            trace,
            &["gen", "--structure", "queue", "--threads", "0"],
            "--threads",
        ),
        (
            trace,
            &["gen", "--structure", "queue", "--ops", "0"],
            "--ops",
        ),
    ];
    for (bin, args, flag) in cases {
        let mut cmd = Command::new(bin);
        if bin == campaign {
            cmd.args(["run", "--smoke", "--quiet", "--out"])
                .arg(&out)
                .arg("--bench")
                .arg(&summary);
        } else if bin == check {
            cmd.arg("cross-validate");
        }
        let run = output_within(cmd.args(args), 30);
        let err = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "{bin} {args:?}: {err}");
        assert!(
            err.contains(flag) && err.contains("usage"),
            "{bin} {args:?}: {err}"
        );
    }
    let _ = std::fs::remove_file(&out);
    let _ = std::fs::remove_file(&summary);
}

#[test]
fn lrp_eval_help_documents_the_unhealthy_cell_exit() {
    let help = help_output(env!("CARGO_BIN_EXE_lrp-eval"));
    assert!(
        help.contains("3  a figure cell failed, timed out, violated RP or failed recovery"),
        "lrp-eval --help documents exit 3 for unhealthy figure cells:\n{help}"
    );
}
