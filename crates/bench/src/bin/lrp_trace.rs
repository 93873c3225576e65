//! `lrp-trace` — generate, inspect, and check workload traces.
//!
//! ```text
//! lrp-trace gen   --structure <name> [--size N] [--threads N] [--ops N]
//!                 [--seed N] [--out FILE]
//! lrp-trace info   <FILE>    # census + validation
//! lrp-trace check  <FILE>    # replay under every mechanism, verify RP
//!                            # and null recovery; exit 3 on a finding
//! ```
//!
//! Traces use the plain-text format of `lrp_model::codec`, so they can
//! be diffed, versioned, and shipped as regression inputs.
//! `lrp-profile run FILE` profiles one instrumented replay of a trace.

use lrp_bench::cli::{load_replayable, load_trace, write_out, Cli};
use lrp_bench::{out, outln};
use lrp_campaign::{build_trace, CellSpec};
use lrp_lfds::Structure;
use lrp_model::{codec, Census};
use lrp_recovery::{check_null_recovery, CrashPlan};
use lrp_sim::{Mechanism, NvmMode, Sim, SimConfig};

const USAGE: &str = "usage:\n  \
    lrp-trace gen --structure <linkedlist|hashmap|bstree|skiplist|queue> \
    [--size N] [--threads N] [--ops N] [--seed N] [--out FILE]\n  \
    lrp-trace info <FILE>\n  \
    lrp-trace check <FILE>\n\n\
    defaults:\n  \
    --size 64   --threads 4   --ops 25   --seed 1\n  \
    --threads N          worker threads, at least 1 (more than the\n                       \
    machine's 64 cores builds a trace check cannot replay)\n  \
    --ops N              operations per worker thread, at least 1\n  \
    --out FILE           write the generated trace there instead of stdout\n\n\
    exit codes:\n  \
    0  success\n  \
    1  file read/write/parse error, or check: a trace the simulator cannot\n     \
       replay (malformed, or more threads than the machine has cores)\n  \
    2  usage error (unknown flag or command, missing or invalid value,\n     \
       gen --threads 0 or --ops 0)\n  \
    3  check: an RP violation or a null-recovery failure";

/// Seed of the crash points `check` samples: fixed, so a trace file
/// always gets the same verdict.
const CHECK_CRASH_SEED: u64 = 1;

fn main() {
    let mut cli = Cli::from_env(USAGE);
    let structure: Option<Structure> = cli.opt_parse("structure");
    let size = cli.opt_parse("size").unwrap_or(64usize);
    let threads = cli.opt_parse("threads").unwrap_or(4u16);
    let ops = cli.opt_parse("ops").unwrap_or(25usize);
    let seed = cli.opt_parse("seed").unwrap_or(1u64);
    let out: Option<String> = cli.opt("out");
    let pos = cli.positionals(1, 2);
    match pos[0].as_str() {
        "gen" => {
            let Some(structure) = structure else {
                cli.fail("gen needs --structure")
            };
            if threads == 0 {
                cli.fail("--threads must be at least 1");
            }
            cli.check_ops(ops);
            // Only the workload fields of the cell shape its trace.
            let cell = CellSpec {
                index: 0,
                structure,
                mechanism: Mechanism::Lrp,
                mode: NvmMode::Cached,
                threads,
                seed,
                initial_size: size,
                ops_per_thread: ops,
                crash_samples: 0,
            };
            gen(&cell, out);
        }
        "info" => match pos.get(1) {
            Some(path) => info(path),
            None => cli.fail("info needs a trace file"),
        },
        "check" => match pos.get(1) {
            Some(path) => check(path),
            None => cli.fail("check needs a trace file"),
        },
        other => cli.fail(format!("unknown command {other:?}")),
    }
}

fn gen(cell: &CellSpec, out: Option<String>) {
    let trace = build_trace(cell);
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
    let trace = load_trace(path);
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

fn check(path: &str) {
    let trace = load_replayable(path);
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
