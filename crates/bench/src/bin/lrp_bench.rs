//! `lrp-bench` — the host-side benchmarks and the one regression gate.
//!
//! ```text
//! lrp-bench host --smoke --json-out BENCH_host.json
//! lrp-bench gate --baseline baselines/BENCH_host.json \
//!                --current BENCH_host.json
//! ```
//!
//! `host` replays a (structure × mechanism) matrix through the full
//! timing simulator and reports per-cell host throughput (simulated
//! cycles/sec, harness ops/sec, allocations/op). `serve` boots an
//! in-process `lrp-serve` and measures end-to-end service throughput,
//! durable-ack latency, shed rate and crash-recovery time
//! (`BENCH_serve.json`). `gate` compares two reports of one type and
//! one workload — campaign summaries, host reports or service reports —
//! with each type's fixed bounds, and fails (exit 1) on a regression,
//! on a comparison of no key, or on reports it cannot compare.

use lrp_bench::alloc_count::CountingAlloc;
use lrp_bench::cli::{die, load_json, write_out, Cli};
use lrp_bench::crashfuzz::{self, CrashFuzzSpec};
use lrp_bench::gate::{gate, render_gate, verdict_json};
use lrp_bench::host::{self, HostSpec};
use lrp_bench::out;
use lrp_bench::serve_bench::{self, ServeBenchSpec};
use lrp_lfds::{KeyDist, Structure};
use lrp_sim::{Mechanism, NvmMode};

// The benchmark binary counts its own heap traffic so the report can
// include allocations/op — the metric the zero-alloc scan work gates on.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage:\n  \
    lrp-bench host [--smoke] [--paper] [--jobs N] [--structures a,b,..]\n                 \
    [--mechs a,b,..] [--mode cached|uncached] [--threads N]\n                 \
    [--ops N] [--size N] [--seed N] [--samples N] [--json-out FILE]\n  \
    lrp-bench gate --baseline FILE --current FILE [--json-out FILE]\n  \
    lrp-bench serve [--shards N] [--conns N] [--requests N] [--window N]\n                 \
    [--key-range N] [--read-pct N] [--seed N] [--json-out FILE]\n  \
    lrp-bench crash-fuzz [--smoke] [--trials N] [--mechs a,b,..]\n                 \
    [--dists uniform,zipfian] [--structures S] [--key-range N]\n                 \
    [--batch N] [--warm N] [--seed N] [--json-out FILE]\n\n\
    defaults:\n  \
    host runs the full matrix: all five structures x nop,sb,bb,lrp\n                 \
    (--threads 4 --ops 64 --size 128 --seed 1 --samples 5)\n  \
    --smoke            the CI matrix: hashmap x nop,lrp at t2, seconds total\n  \
    --paper            the paper-scale tier: 64K-entry structures on 64\n                     \
    simulated cores (hashmap,bstree,skiplist x all four\n                     \
    mechanisms; with --smoke, one structure x lrp,sb)\n  \
    --jobs N           build traces and probe cells on N worker threads;\n                     \
    timed samples still run solo so wall numbers stay fair\n  \
    --structures LIST  comma-separated subset (linkedlist,hashmap,bstree,\n                     \
    skiplist,queue)\n  \
    --mechs LIST       comma-separated subset (nop,sb,bb,lrp)\n  \
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
    let smoke = cli.flag("smoke");
    let paper = cli.flag("paper");
    let jobs: usize = cli.opt_parse("jobs").unwrap_or(1);
    let structures: Option<Vec<Structure>> = cli.opt_list("structures");
    let mechs: Option<Vec<Mechanism>> = cli.opt_list("mechs");
    let mode: Option<NvmMode> = cli.opt_parse("mode");
    let threads: Option<u16> = cli.opt_parse("threads");
    let ops: Option<usize> = cli.opt_parse("ops");
    let size: Option<usize> = cli.opt_parse("size");
    let seed: Option<u64> = cli.opt_parse("seed");
    let samples: Option<usize> = cli.opt_parse("samples");
    let shards: Option<usize> = cli.opt_parse("shards");
    let conns: Option<usize> = cli.opt_parse("conns");
    let requests: Option<u64> = cli.opt_parse("requests");
    let window: Option<usize> = cli.opt_parse("window");
    let key_range: Option<u64> = cli.opt_parse("key-range");
    let read_pct: Option<u8> = cli.opt_parse("read-pct");
    let baseline: Option<String> = cli.opt("baseline");
    let current: Option<String> = cli.opt("current");
    let trials: Option<u64> = cli.opt_parse("trials");
    let dists: Option<Vec<KeyDist>> = cli.opt_list("dists");
    let batch: Option<usize> = cli.opt_parse("batch");
    let warm: Option<usize> = cli.opt_parse("warm");
    let json_out: Option<String> = cli.opt("json-out");
    let pos = cli.positionals(1, 1);

    let fuzz_structures = structures.clone();
    let fuzz_mechs = mechs.clone();
    let host_spec = move || {
        let mut spec = match (paper, smoke) {
            (true, true) => HostSpec::paper_smoke(),
            (true, false) => HostSpec::paper(),
            (false, true) => HostSpec::smoke(),
            (false, false) => HostSpec::quick(),
        };
        if let Some(v) = structures {
            spec.structures = v;
        }
        if let Some(v) = mechs {
            spec.mechanisms = v;
        }
        if let Some(v) = mode {
            spec.mode = v;
        }
        if let Some(v) = threads {
            spec.threads = v;
        }
        if let Some(v) = ops {
            spec.ops_per_thread = v;
        }
        if let Some(v) = size {
            spec.initial_size = v;
        }
        if let Some(v) = seed {
            spec.seed = v;
        }
        if let Some(v) = samples {
            spec.samples = v;
        }
        spec
    };

    match pos[0].as_str() {
        "host" => {
            let spec = host_spec();
            cli.check_workload(&[spec.threads], spec.ops_per_thread);
            let report = host::run_host_jobs(&spec, jobs, |cell| {
                eprintln!(
                    "  {:<24} {:>10.3} ms  ({:.0} ops/s)",
                    cell.key(),
                    cell.wall_ms_min,
                    cell.ops_per_sec()
                );
            });
            out!("{}", host::render_report(&report));
            if let Some(out) = &json_out {
                write_out(out, &host::report_json(&report).to_pretty());
                eprintln!("wrote host report to {out}");
            }
        }
        "gate" => {
            let (Some(base), Some(cur)) = (&baseline, &current) else {
                cli.fail("gate needs --baseline and --current")
            };
            let verdict = gate(&load_json(base), &load_json(cur)).unwrap_or_else(|e| die(e));
            if let Some(out) = &json_out {
                write_out(out, &verdict_json(&verdict).to_pretty());
                eprintln!("wrote gate verdict to {out}");
            }
            out!("{}", render_gate(&verdict));
            if !verdict.pass() {
                std::process::exit(1);
            }
        }
        "serve" => {
            let mut spec = ServeBenchSpec::smoke();
            if let Some(v) = shards {
                spec.shards = v.max(1);
            }
            if let Some(v) = conns {
                spec.conns = v.max(1);
            }
            if let Some(v) = requests {
                spec.requests = v;
            }
            if let Some(v) = window {
                spec.window = v.max(1);
            }
            if let Some(v) = key_range {
                spec.key_range = v.max(1);
            }
            if let Some(v) = read_pct {
                if v > 100 {
                    cli.fail("--read-pct must be in [0, 100]");
                }
                spec.read_pct = v;
            }
            if let Some(v) = seed {
                spec.seed = v;
            }
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
            if let Some(out) = &json_out {
                write_out(out, &serve_bench::report_json(&report).to_pretty());
                eprintln!("wrote serve report to {out}");
            }
        }
        "crash-fuzz" => {
            let mut spec = if smoke {
                CrashFuzzSpec::smoke()
            } else {
                CrashFuzzSpec::full()
            };
            if let Some(v) = fuzz_structures {
                match v.as_slice() {
                    [Structure::Queue] => cli.fail(
                        "crash-fuzz drives the KV service; --structures queue is not servable",
                    ),
                    [s] => spec.structure = *s,
                    _ => cli.fail("crash-fuzz takes exactly one --structures entry"),
                }
            }
            if let Some(v) = fuzz_mechs {
                spec.mechs = v;
            }
            if let Some(v) = dists {
                spec.dists = v;
            }
            if let Some(v) = trials {
                spec.trials = v.max(1);
            }
            if let Some(v) = key_range {
                spec.key_range = v.max(1);
            }
            if let Some(v) = batch {
                spec.batch = v.max(1);
            }
            if let Some(v) = warm {
                spec.warm_batches = v;
            }
            if let Some(v) = seed {
                spec.seed = v;
            }
            let report = crashfuzz::run_crash_fuzz(&spec, |cell| {
                eprintln!(
                    "  {:<6} {:<8} {} trials, {} resolved Done, {} retried, {} violations",
                    cell.mech,
                    cell.dist,
                    cell.trials,
                    cell.resolved_done,
                    cell.retried,
                    cell.violations
                );
            });
            out!("{}", crashfuzz::render_report(&report));
            if let Some(out) = &json_out {
                write_out(out, &crashfuzz::report_json(&spec, &report).to_pretty());
                eprintln!("wrote crash-fuzz report to {out}");
            }
            if !report.pass() {
                std::process::exit(4);
            }
        }
        other => cli.fail(format!("unknown command {other:?}")),
    }
}
