//! `lrp-trace` — generate, inspect, and check workload traces.
//!
//! ```text
//! lrp-trace gen   --structure <name> [--size N] [--threads N] [--ops N]
//!                 [--seed N] [--out FILE]
//! lrp-trace info   <FILE>    # census + validation
//! lrp-trace check  <FILE>    # replay under every mechanism, verify RP
//!                            # and null recovery; exit 3 on a finding
//! lrp-trace report <FILE> [mech] [--trace-out FILE] [--metrics-out FILE]
//!                  [--sample-every N]   # full stat dump of one replay;
//!                                       # exit 3 on I1-I4/C1-C2 violations
//! ```
//!
//! Traces use the plain-text format of `lrp_model::codec`, so they can
//! be diffed, versioned, and shipped as regression inputs.

use lrp_bench::cli::{die, read_text, report_run, write_out, Cli};
use lrp_bench::{out, outln};
use lrp_lfds::{Structure, WorkloadSpec};
use lrp_model::{codec, Census, Trace};
use lrp_obs::RecorderConfig;
use lrp_recovery::{check_null_recovery, CrashPlan};
use lrp_sim::{Mechanism, Sim, SimConfig};

const USAGE: &str = "usage:\n  \
    lrp-trace gen --structure <linkedlist|hashmap|bstree|skiplist|queue> \
    [--size N] [--threads N] [--ops N] [--seed N] [--out FILE]\n  \
    lrp-trace info <FILE>\n  \
    lrp-trace check <FILE>\n  \
    lrp-trace report <FILE> [mech] [--trace-out FILE] [--metrics-out FILE] \
    [--sample-every N]\n\n\
    defaults:\n  \
    --size 64   --threads 4   --ops 25   --seed 1\n  \
    --out FILE           write the generated trace there instead of stdout\n  \
    report mech          lrp (one of nop|sb|bb|lrp|dpo)\n  \
    --trace-out FILE     write a Chrome trace-event JSON timeline\n  \
    --metrics-out FILE   write JSONL metrics (stats, histograms, blame, audit)\n  \
    --sample-every N     record time-series samples every N cycles (0 = off)\n\n\
    exit codes:\n  \
    0  success\n  \
    1  file read/write/parse error\n  \
    2  usage error (unknown flag or command, missing or invalid value)\n  \
    3  report: invariant violations observed (I1-I4, critpath C1-C2);\n     \
       check: an RP violation or a null-recovery failure";

/// Seed of the crash points `check` samples: fixed, so a trace file
/// always gets the same verdict.
const CHECK_CRASH_SEED: u64 = 1;

fn load(path: &str) -> Trace {
    codec::from_text(&read_text(path)).unwrap_or_else(|e| die(format!("cannot parse {path}: {e}")))
}

fn main() {
    let mut cli = Cli::from_env(USAGE);
    let structure: Option<Structure> = cli.opt_parse("structure");
    let size = cli.opt_parse("size").unwrap_or(64usize);
    let threads = cli.opt_parse("threads").unwrap_or(4u16);
    let ops = cli.opt_parse("ops").unwrap_or(25usize);
    let seed = cli.opt_parse("seed").unwrap_or(1u64);
    let out: Option<String> = cli.opt("out");
    let obs = ObsOut {
        trace_out: cli.opt("trace-out"),
        metrics_out: cli.opt("metrics-out"),
        sample_every: cli.opt_parse("sample-every").unwrap_or(0),
    };
    let pos = cli.positionals(1, 3);
    match pos[0].as_str() {
        "gen" => {
            let Some(structure) = structure else {
                cli.fail("gen needs --structure")
            };
            gen(structure, size, threads, ops, seed, out);
        }
        "info" => match pos.get(1) {
            Some(path) => info(path),
            None => cli.fail("info needs a trace file"),
        },
        "check" => match pos.get(1) {
            Some(path) => check(path),
            None => cli.fail("check needs a trace file"),
        },
        "report" => match pos.get(1) {
            Some(path) => report(
                &cli,
                path,
                pos.get(2).map(String::as_str).unwrap_or("lrp"),
                &obs,
            ),
            None => cli.fail("report needs a trace file"),
        },
        other => cli.fail(format!("unknown command {other:?}")),
    }
}

fn gen(
    structure: Structure,
    size: usize,
    threads: u16,
    ops: usize,
    seed: u64,
    out: Option<String>,
) {
    let trace = WorkloadSpec::new(structure)
        .initial_size(size)
        .threads(threads)
        .ops_per_thread(ops)
        .seed(seed)
        .build_trace();
    trace.validate().expect("generated trace is well-formed");
    let text = codec::to_text(&trace);
    match out {
        Some(path) => {
            write_out(&path, &text);
            eprintln!(
                "wrote {} events ({} ops) to {path}",
                trace.events.len(),
                trace.markers.len()
            );
        }
        None => out!("{text}"),
    }
}

fn info(path: &str) {
    let trace = load(path);
    match trace.validate() {
        Ok(()) => outln!("trace: well-formed"),
        Err(e) => outln!("trace: INVALID ({e})"),
    }
    outln!("{}", Census::of(&trace));
    if !trace.roots.is_empty() {
        out!("roots:");
        for (name, a) in &trace.roots {
            out!(" {name}={a:#x}");
        }
        outln!();
    }
}

/// Observability export options shared by the report subcommand.
struct ObsOut {
    trace_out: Option<String>,
    metrics_out: Option<String>,
    sample_every: u64,
}

impl ObsOut {
    fn wanted(&self) -> bool {
        self.trace_out.is_some() || self.metrics_out.is_some() || self.sample_every > 0
    }
}

fn report(cli: &Cli, path: &str, mech: &str, obs: &ObsOut) {
    let trace = load(path);
    let Some(m) = Mechanism::EXTENDED.into_iter().find(|m| m.name() == mech) else {
        cli.fail(format!("unknown mechanism {mech:?}"))
    };
    let mut sim = Sim::new(SimConfig::new(m), &trace);
    if obs.wanted() {
        sim = sim.with_recorder(RecorderConfig {
            sample_every: obs.sample_every,
            ..RecorderConfig::default()
        });
    }
    let code = report_run(
        &format!("{path} under {mech}"),
        &sim.run(),
        obs.trace_out.as_deref(),
        obs.metrics_out.as_deref(),
    );
    std::process::exit(code);
}

fn check(path: &str) {
    let trace = load(path);
    trace.validate().expect("trace is well-formed");
    let structure = Structure::infer_from_roots(trace.roots.iter().map(|(name, _)| name.as_str()));
    let mut found = false;
    for m in Mechanism::ALL {
        let r = Sim::new(SimConfig::new(m), &trace).run();
        let rp = if m == Mechanism::Nop {
            "n/a".to_string()
        } else {
            match lrp_model::spec::check_rp(&trace, &r.schedule) {
                Ok(()) => "ok".to_string(),
                Err(v) => {
                    found = true;
                    format!("VIOLATED ({} findings)", v.len())
                }
            }
        };
        let recovery = match (structure, m) {
            (Some(s), Mechanism::Lrp | Mechanism::Sb | Mechanism::Bb) => {
                let plan = CrashPlan::Random {
                    samples: 32,
                    seed: CHECK_CRASH_SEED,
                };
                let rep = check_null_recovery(s, &trace, &r.schedule, &plan);
                if rep.all_recovered() {
                    format!("{} crash points ok", rep.crash_points)
                } else {
                    found = true;
                    format!("{} FAILURES", rep.failures.len())
                }
            }
            _ => "n/a".to_string(),
        };
        outln!(
            "{:<4} cycles={:<10} flushes={:<6} RP={:<10} recovery={}",
            m.name(),
            r.stats.cycles,
            r.stats.total_flushes(),
            rp,
            recovery
        );
    }
    if found {
        std::process::exit(3);
    }
}
