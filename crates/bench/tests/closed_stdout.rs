//! A binary whose reader has gone (`lrp-trace info t.trace | head`)
//! must end quietly: no panic message, no backtrace, exit 0.

use std::process::{Command, Stdio};

/// Runs `bin args` with stdout on a pipe whose read end is already
/// closed, so the first write fails with a broken pipe. Returns the
/// exit status and stderr.
fn run_into_closed_pipe(bin: &str, args: &[&str]) -> (std::process::ExitStatus, String) {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(bin)
        .args(args)
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("binary runs");
    (
        out.status,
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn trace_info_into_a_closed_reader_ends_quietly() {
    let dir = std::env::temp_dir().join(format!("lrp-closed-stdout-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("t64.trace");
    let trace = trace.to_str().unwrap();
    let bin = env!("CARGO_BIN_EXE_lrp-trace");
    let gen = Command::new(bin)
        .args(["gen", "--structure", "bstree", "--size", "4096"])
        .args(["--threads", "64", "--ops", "8", "--out", trace])
        .output()
        .expect("lrp-trace gen runs");
    assert!(gen.status.success(), "gen failed: {gen:?}");

    let (status, stderr) = run_into_closed_pipe(bin, &["info", trace]);
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        !stderr.contains("panicked"),
        "lrp-trace info panicked:\n{stderr}"
    );
    assert!(status.success(), "exit {status:?}, stderr:\n{stderr}");
    assert!(stderr.is_empty(), "nothing on stderr:\n{stderr}");
}

#[test]
fn help_into_a_closed_reader_ends_quietly() {
    for bin in [
        env!("CARGO_BIN_EXE_lrp-eval"),
        env!("CARGO_BIN_EXE_lrp-campaign"),
        env!("CARGO_BIN_EXE_lrp-trace"),
        env!("CARGO_BIN_EXE_lrp-profile"),
        env!("CARGO_BIN_EXE_lrp-serve"),
        env!("CARGO_BIN_EXE_lrp-load"),
        env!("CARGO_BIN_EXE_lrp-bench"),
        env!("CARGO_BIN_EXE_lrp-check"),
    ] {
        let (status, stderr) = run_into_closed_pipe(bin, &["--help"]);
        assert!(!stderr.contains("panicked"), "{bin} panicked:\n{stderr}");
        assert!(status.success(), "{bin}: exit {status:?}");
    }
}
