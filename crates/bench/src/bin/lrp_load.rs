//! `lrp-load` — the open/closed-loop load generator for `lrp-serve`.
//!
//! ```text
//! lrp-load --addr 127.0.0.1:4817 --requests 5000 --dist zipfian
//! lrp-load --addr $(cat /tmp/serve.addr) --crash-at 1000 --crash-shard 1
//! lrp-load --uds /tmp/lrp.sock --qps 500 --shutdown
//! ```
//!
//! Drives the wire protocol over N connections with a configurable key
//! skew and op mix, optionally injects a mid-run shard crash-restart,
//! then (unless `--no-verify`) replays a read-only verification pass:
//! every key whose last mutation was *durably acked* must read back in
//! the acked state. The JSON summary (throughput, client-observed
//! latency percentiles, shed rate, verification verdict) goes to stdout
//! and, with `--json-out`, to a file. Exit 4 flags a durability
//! violation — the signal CI gates on.

use lrp_bench::cli::{die, write_out, Cli};
use lrp_bench::outln;
use lrp_lfds::KeyDist;
use lrp_serve::{probe, run_load, Bind, LoadSpec};

const USAGE: &str = "usage:\n  \
    lrp-load (--addr HOST:PORT | --uds PATH)\n           \
    [--conns N] [--requests N] [--window N]\n           \
    [--dist uniform|zipfian] [--theta F] [--key-range N]\n           \
    [--read-pct N] [--qps N] [--seed N] [--shed-retries N]\n           \
    [--crash-at N] [--crash-shard N]\n           \
    [--no-verify] [--shutdown] [--json-out FILE]\n  \
    lrp-load (--addr HOST:PORT | --uds PATH) --probe stats|metrics|ping\n\n\
    defaults:\n  \
    --conns 4      --requests 2000   --window 16   --dist uniform\n  \
    --theta 0.99   --key-range 256   --read-pct 20 --seed 1\n  \
    --qps 0        closed loop (as fast as the window allows)\n  \
    --shed-retries N  re-send a shed request up to N times, honoring the\n                 \
    server's retry-after hint before each re-send\n                 \
    (default 1; 0 gives up immediately)\n  \
    --crash-at N   inject a Crash admin request for --crash-shard\n                 \
    (default shard 0) after N durable acks, or with the first\n                 \
    connection's last request if fewer arrive; off by default\n  \
    --no-verify    skip the read-back verification phase\n  \
    --shutdown     send Shutdown when done (stops lrp-serve)\n  \
    --probe WHAT   no load: send one admin request (stats = lifetime\n                 \
    counters, metrics = live telemetry snapshot, ping) and\n                 \
    print the reply JSON to stdout\n\n\
    exit codes:\n  \
    0  load completed, durability contract held\n  \
    1  I/O error (dial or transport failure, json-out write)\n  \
    2  usage error (unknown flag, missing or invalid value)\n  \
    4  durability violation: a durably-acked write read back wrong, or\n       \
    the crash report counted lost acked keys / failed validation";

fn main() {
    let mut cli = Cli::from_env(USAGE);
    let addr: Option<String> = cli.opt("addr");
    let uds: Option<String> = cli.opt("uds");
    let conns = cli.opt_parse("conns").unwrap_or(4usize);
    let requests = cli.opt_parse("requests").unwrap_or(2000u64);
    let window = cli.opt_parse("window").unwrap_or(16usize);
    let dist_name = cli.opt("dist").unwrap_or_else(|| "uniform".into());
    let theta: Option<f64> = cli.opt_parse("theta");
    let key_range = cli.opt_parse("key-range").unwrap_or(256u64);
    let read_pct = cli.opt_parse("read-pct").unwrap_or(20u8);
    let qps = cli.opt_parse("qps").unwrap_or(0u64);
    let seed = cli.opt_parse("seed").unwrap_or(1u64);
    let shed_retries = cli.opt_parse("shed-retries").unwrap_or(1u32);
    let crash_at: Option<u64> = cli.opt_parse("crash-at");
    let crash_shard = cli.opt_parse("crash-shard").unwrap_or(0u32);
    let no_verify = cli.flag("no-verify");
    let shutdown = cli.flag("shutdown");
    let json_out: Option<String> = cli.opt("json-out");
    let probe_what: Option<String> = cli.opt("probe");
    cli.positionals(0, 0);

    let target = match (addr, uds) {
        (Some(_), Some(_)) => cli.fail("--addr and --uds are mutually exclusive"),
        (Some(a), None) => Bind::Tcp(a),
        #[cfg(unix)]
        (None, Some(path)) => Bind::Uds(path.into()),
        #[cfg(not(unix))]
        (None, Some(_)) => cli.fail("--uds is only available on unix"),
        (None, None) => cli.fail("one of --addr or --uds is required"),
    };
    let mut key_dist: KeyDist = dist_name.parse().unwrap_or_else(|e: String| cli.fail(e));
    if let Some(theta) = theta {
        match &mut key_dist {
            KeyDist::Zipfian { theta: t } => *t = theta,
            KeyDist::Uniform => cli.fail("--theta only applies to --dist zipfian"),
        }
    }
    if read_pct > 100 {
        cli.fail("--read-pct must be in [0, 100]");
    }
    if conns == 0 {
        cli.fail("--conns must be at least 1");
    }

    if let Some(what) = &probe_what {
        if !matches!(what.as_str(), "stats" | "metrics" | "ping") {
            cli.fail(format!("unknown probe {what:?} (want stats|metrics|ping)"));
        }
        match probe(&target, what) {
            Ok(json) => {
                outln!("{json}");
                return;
            }
            Err(e) => die(format!("probe failed: {e}")),
        }
    }

    let mut spec = LoadSpec::new(target);
    spec.conns = conns;
    spec.requests = requests;
    spec.window = window.max(1);
    spec.key_dist = key_dist;
    spec.key_range = key_range;
    spec.read_pct = read_pct;
    spec.target_qps = qps;
    spec.seed = seed;
    spec.shed_retries = shed_retries;
    spec.crash_at = crash_at;
    spec.crash_shard = crash_shard;
    spec.verify = !no_verify;
    spec.shutdown = shutdown;

    let summary = run_load(&spec).unwrap_or_else(|e| die(format!("load failed: {e}")));
    let doc = summary.to_json().to_pretty();
    outln!("{doc}");
    if let Some(path) = &json_out {
        write_out(path, &doc);
        eprintln!("wrote load summary to {path}");
    }
    if summary.errors > 0 {
        eprintln!("{} transport error(s) during load", summary.errors);
        std::process::exit(1);
    }
    if !summary.durability_ok() {
        eprintln!(
            "durability violation: verify_violations={} crash_lost_acked={:?} crash_consistent={:?}",
            summary.verify_violations, summary.crash_lost_acked, summary.crash_consistent
        );
        std::process::exit(4);
    }
}
