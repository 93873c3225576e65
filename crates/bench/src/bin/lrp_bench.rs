//! `lrp-bench` — the host-side benchmarks and the one regression gate.
//!
//! ```text
//! lrp-bench host --smoke --json-out BENCH_host.json
//! lrp-bench gate --baseline baselines/BENCH_host.json \
//!                --current BENCH_host.json
//! ```
//!
//! `host` replays the cells of a campaign matrix — read through the
//! axis flags `lrp-campaign` and `lrp-check` share — through the full
//! timing simulator and reports per-cell host throughput (simulated
//! cycles/sec, harness ops/sec, allocations/op). `serve` boots an
//! in-process `lrp-serve` and measures end-to-end service throughput,
//! durable-ack latency, shed rate and crash-recovery time
//! (`BENCH_serve.json`). `gate` compares two reports of one type and
//! one workload — campaign summaries, host reports or service reports —
//! with each type's fixed bounds, and fails (exit 1) on a regression,
//! on a comparison of no key, or on reports it cannot compare. The
//! command comes first; each parses only its own flags.

use lrp_bench::alloc_count::CountingAlloc;
use lrp_bench::cli::{die, load_json, write_out, Cli};
use lrp_bench::crashfuzz::{self, CrashFuzzSpec};
use lrp_bench::gate::{gate, render_gate, verdict_json};
use lrp_bench::host;
use lrp_bench::out;
use lrp_bench::serve_bench::{self, ServeBenchSpec};
use lrp_lfds::{KeyDist, Structure};
use lrp_sim::Mechanism;

// The benchmark binary counts its own heap traffic so the report can
// include allocations/op — the metric the zero-alloc scan work gates on.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage:\n  \
    lrp-bench host [--smoke|--paper] [--structures a,b] [--mechs a,b]\n                 \
    [--modes a,b] [--threads a,b] [--seeds a,b] [--size N] [--ops N]\n                 \
    [--workers N] [--samples N] [--json-out FILE]\n  \
    lrp-bench gate --baseline FILE --current FILE [--json-out FILE]\n  \
    lrp-bench serve [--shards N] [--conns N] [--requests N] [--window N]\n                 \
    [--key-range N] [--read-pct N] [--seed N] [--json-out FILE]\n  \
    lrp-bench crash-fuzz [--smoke] [--trials N] [--mechs a,b,..]\n                 \
    [--dists uniform,zipfian] [--structures S] [--key-range N]\n                 \
    [--batch N] [--warm N] [--seed N] [--json-out FILE]\n\n\
    defaults:\n  \
    host runs the default campaign matrix: all five structures x\n                 \
    nop,sb,bb,lrp x cached,uncached x 1,4 threads x seeds 1,2,3\n                 \
    (--ops 16, per-structure sizes; --samples 3 --workers 1)\n  \
    --smoke            the CI matrix: hashmap x nop,lrp at t2, seconds total\n  \
    --paper            the paper-scale tier: 64K-entry structures on 64\n                     \
    simulated cores (hashmap,bstree,skiplist x all four\n                     \
    mechanisms); exclusive with --smoke\n  \
    --structures LIST  comma-separated subset (linkedlist,hashmap,bstree,\n                     \
    skiplist,queue)\n  \
    --mechs LIST       comma-separated subset (nop,sb,bb,lrp,dpo)\n  \
    --modes LIST       NVM modes (cached,uncached)\n  \
    --threads LIST     worker threads of each workload, 1 to 64\n  \
    --seeds LIST       workload seeds\n  \
    --workers N        build traces and probe cells on N worker threads;\n                     \
    timed samples still run solo so wall numbers stay fair\n  \
    --samples N        timed replays per cell, after one warmup\n  \
    --json-out FILE    write the report (host/serve/crash-fuzz) or the\n                     \
    gate verdict\n  \
    gate judges two reports of one type and workload, read from the\n  \
    baseline's type field:\n    \
    campaign     fail a key whose ops/cycle fell over 20%\n                 \
    (stall shares and latency percentiles shown)\n    \
    host-bench   fail a cell whose ops/sec fell over 2x\n                 \
    (allocations/op shown)\n    \
    serve-bench  fail a cell whose ops/sec fell or durable p99 rose over\n                 \
    3x, or whose shed rate rose over 0.25; fail a keyspace\n                 \
    sweep whose largest keyspace is over 2x the smallest\n  \
    serve runs three cells against an in-process server: uniform, zipfian,\n  \
    zipfian with a mid-run crash-restart (client-observed recovery time);\n  \
    then times Shard::execute on 256..65536-key shards\n                 \
    (--shards 2 --conns 4 --requests 1200 --window 16)\n  \
    crash-fuzz crashes a shard at random persist points, then resolves\n  \
    every uncertain op through the recovered slot table and audits the\n  \
    exactly-once guarantees (no duplicate, no lost durably-acked write)\n                 \
    (default: lrp,sb x uniform,zipfian x 50 trials = 200 crashes;\n                 \
    --smoke runs 5 trials per cell; --trials N sets trials per cell)\n\n\
    exit codes:\n  \
    0  success (gate: at least one key compared, none regressed)\n  \
    1  gate: a regression, no key in both reports, or reports of\n     \
    different types or workloads; or a file read/write/parse error\n  \
    2  usage error (unknown flag or command, missing or invalid value,\n     \
    host --threads outside 1..=64 or --ops 0, crash-fuzz\n     \
    --structures queue)\n  \
    4  crash-fuzz found an exactly-once violation";

fn main() {
    let mut cli = Cli::from_env(USAGE);
    match cli.command().as_str() {
        "host" => run_host(cli),
        "gate" => run_gate(cli),
        "serve" => run_serve(cli),
        "crash-fuzz" => run_crash_fuzz(cli),
        other => cli.fail(format!("unknown command {other:?}")),
    }
}

/// Writes the report `json()` renders to `--json-out`, when given.
fn json_out(path: Option<String>, what: &str, json: impl FnOnce() -> String) {
    if let Some(out) = path {
        write_out(&out, &json());
        eprintln!("wrote {what} to {out}");
    }
}

fn run_host(mut cli: Cli) {
    let tier = cli.tier();
    let matrix = cli.matrix(tier);
    let workers = cli.workers(1);
    let samples = cli.opt_parse("samples").unwrap_or(host::SAMPLES);
    let out = cli.opt("json-out");
    cli.positionals(0, 0);
    let report = host::run_host(&matrix, samples, workers, |cell| {
        eprintln!(
            "  {:<30} {:>10.3} ms  ({:.0} ops/s)",
            cell.spec.id(),
            cell.wall_ms_min,
            cell.ops_per_sec()
        );
    });
    out!("{}", host::render_report(&report));
    json_out(out, "host report", || {
        host::report_json(&report).to_pretty()
    });
}

fn run_gate(mut cli: Cli) {
    let baseline: Option<String> = cli.opt("baseline");
    let current: Option<String> = cli.opt("current");
    let out = cli.opt("json-out");
    cli.positionals(0, 0);
    let (Some(base), Some(cur)) = (&baseline, &current) else {
        cli.fail("gate needs --baseline and --current")
    };
    let verdict = gate(&load_json(base), &load_json(cur)).unwrap_or_else(|e| die(e));
    json_out(out, "gate verdict", || verdict_json(&verdict).to_pretty());
    out!("{}", render_gate(&verdict));
    if !verdict.pass() {
        std::process::exit(1);
    }
}

fn run_serve(mut cli: Cli) {
    let mut spec = ServeBenchSpec::smoke();
    if let Some(v) = cli.opt_parse::<usize>("shards") {
        spec.shards = v.max(1);
    }
    if let Some(v) = cli.opt_parse::<usize>("conns") {
        spec.conns = v.max(1);
    }
    if let Some(v) = cli.opt_parse("requests") {
        spec.requests = v;
    }
    if let Some(v) = cli.opt_parse::<usize>("window") {
        spec.window = v.max(1);
    }
    if let Some(v) = cli.opt_parse::<u64>("key-range") {
        spec.key_range = v.max(1);
    }
    if let Some(v) = cli.opt_parse::<u8>("read-pct") {
        if v > 100 {
            cli.fail("--read-pct must be in [0, 100]");
        }
        spec.read_pct = v;
    }
    if let Some(v) = cli.opt_parse("seed") {
        spec.seed = v;
    }
    let out = cli.opt("json-out");
    cli.positionals(0, 0);
    let mut report = serve_bench::run_serve_bench(&spec, |cell| {
        eprintln!(
            "  {:<16} {:>10.0} ops/s (shed {:.4})",
            cell.name,
            cell.ops_per_sec(),
            cell.shed_rate()
        );
    })
    .unwrap_or_else(|e| die(format!("serve bench failed: {e}")));
    report.sweep = serve_bench::run_sweep(
        &spec,
        &serve_bench::SWEEP_KEYS,
        &serve_bench::SWEEP_BATCHES,
        serve_bench::SWEEP_SAMPLES,
    );
    out!("{}", serve_bench::render_report(&report));
    json_out(out, "serve report", || {
        serve_bench::report_json(&report).to_pretty()
    });
}

fn run_crash_fuzz(mut cli: Cli) {
    let mut spec = if cli.flag("smoke") {
        CrashFuzzSpec::smoke()
    } else {
        CrashFuzzSpec::full()
    };
    if let Some(v) = cli.opt_list::<Structure>("structures") {
        match v.as_slice() {
            [Structure::Queue] => {
                cli.fail("crash-fuzz drives the KV service; --structures queue is not servable")
            }
            [s] => spec.structure = *s,
            _ => cli.fail("crash-fuzz takes exactly one --structures entry"),
        }
    }
    if let Some(v) = cli.opt_list::<Mechanism>("mechs") {
        spec.mechs = v;
    }
    if let Some(v) = cli.opt_list::<KeyDist>("dists") {
        spec.dists = v;
    }
    if let Some(v) = cli.opt_parse::<u64>("trials") {
        spec.trials = v.max(1);
    }
    if let Some(v) = cli.opt_parse::<u64>("key-range") {
        spec.key_range = v.max(1);
    }
    if let Some(v) = cli.opt_parse::<usize>("batch") {
        spec.batch = v.max(1);
    }
    if let Some(v) = cli.opt_parse("warm") {
        spec.warm_batches = v;
    }
    if let Some(v) = cli.opt_parse("seed") {
        spec.seed = v;
    }
    let out = cli.opt("json-out");
    cli.positionals(0, 0);
    let report = crashfuzz::run_crash_fuzz(&spec, |cell| {
        eprintln!(
            "  {:<6} {:<8} {} trials, {} resolved Done, {} retried, {} violations",
            cell.mech, cell.dist, cell.trials, cell.resolved_done, cell.retried, cell.violations
        );
    });
    out!("{}", crashfuzz::render_report(&report));
    json_out(out, "crash-fuzz report", || {
        crashfuzz::report_json(&spec, &report).to_pretty()
    });
    if !report.pass() {
        std::process::exit(4);
    }
}
