//! `lrp-check` — the crash-cut model checker as a CLI gate.
//!
//! ```text
//! lrp-check cross-validate --seeds 2 --json-out CHECK.json
//! lrp-check cross-validate --mutate-reorder --cx-out cx.txt   # exits 3
//! lrp-check enumerate --structures linkedlist --mechs lrp,nop
//! ```
//!
//! `cross-validate` runs each (structure × mechanism × seed) cell's
//! bounded workload through the timing simulator and asserts the
//! recorded persist stamps respect the mechanism's discipline and that
//! every realized crash cut is durably linearizable after null
//! recovery. `enumerate` skips the simulator and walks the *whole*
//! admissible-cut lattice of each mechanism's discipline. Violations
//! exit 3 and render a minimized counterexample (written to `--cx-out`
//! for CI artifact upload). NOP promises nothing: its enumerated
//! violations are reported as counts, never as failures.

use lrp_bench::cli::{write_out, Cli};
use lrp_bench::outln;
use lrp_check::{cross_validate, enumerate_check, generator_preds, mutate_reorder, CheckBound};
use lrp_check::{cross_validate_schedule, CrossReport};
use lrp_lfds::Structure;
use lrp_obs::Json;
use lrp_recovery::Counterexample;
use lrp_sim::{Mechanism, Sim, SimConfig};

const USAGE: &str = "usage:\n  \
    lrp-check cross-validate [--structures a,b,..] [--mechs a,b,..]\n                 \
    [--threads N] [--ops N] [--size N] [--seed N] [--seeds N]\n                 \
    [--max-states N] [--mutate-reorder] [--json-out FILE] [--cx-out FILE]\n  \
    lrp-check enumerate      [--structures a,b,..] [--mechs a,b,..]\n                 \
    [--threads N] [--ops N] [--size N] [--seed N] [--seeds N]\n                 \
    [--max-states N] [--json-out FILE] [--cx-out FILE]\n\n\
    defaults:\n  \
    all five structures x nop,sb,bb,lrp,dpo\n                 \
    (--threads 2 --ops 4 --size 8 --seed 3 --seeds 2 --max-states 20000)\n  \
    --structures LIST  comma-separated subset (linkedlist,hashmap,bstree,\n                     \
    skiplist,queue)\n  \
    --mechs LIST       comma-separated subset (nop,sb,bb,lrp,dpo); each is\n                     \
    checked against the persist discipline it promises\n  \
    --seed N           first workload seed\n  \
    --seeds N          consecutive seeds per cell\n  \
    --max-states N     budget for the enumerate cut-lattice walk\n  \
    --mutate-reorder   cross-validate: swap one persist pair across a\n                     \
    discipline edge and require the checker to reject it (exits 3 on\n                     \
    the expected rejection -- CI asserts this)\n  \
    --json-out FILE    write the per-cell report as JSON\n  \
    --cx-out FILE      write the first counterexample for artifact upload\n\n\
    exit codes:\n  \
    0  every cell admissible and durably linearizable\n  \
    1  file write error, or a --mutate-reorder mutation went undetected\n  \
    2  usage error (unknown flag or command, missing or invalid value,\n     \
    --threads outside 1..=64 or --ops 0)\n  \
    3  violation found (counterexample on stdout, and --cx-out if given)";

fn main() {
    let mut cli = Cli::from_env(USAGE);
    let structures: Vec<Structure> = cli
        .opt_list("structures")
        .unwrap_or_else(|| Structure::ALL.to_vec());
    let mechs: Vec<Mechanism> = cli
        .opt_list("mechs")
        .unwrap_or_else(|| Mechanism::EXTENDED.to_vec());
    let mut bound = CheckBound::default();
    if let Some(v) = cli.opt_parse("threads") {
        bound.threads = v;
    }
    if let Some(v) = cli.opt_parse("ops") {
        bound.ops_per_thread = v;
    }
    if let Some(v) = cli.opt_parse("size") {
        bound.initial_size = v;
    }
    if let Some(v) = cli.opt_parse("seed") {
        bound.seed = v;
    }
    let seeds: u64 = cli.opt_parse("seeds").unwrap_or(2);
    if let Some(v) = cli.opt_parse("max-states") {
        bound.max_states = v;
    }
    cli.check_workload(&[bound.threads], bound.ops_per_thread);
    let mutate = cli.flag("mutate-reorder");
    let json_out: Option<String> = cli.opt("json-out");
    let cx_out: Option<String> = cli.opt("cx-out");
    let pos = cli.positionals(1, 1);
    let first_seed = bound.seed;

    let mut cells: Vec<Json> = Vec::new();
    let fail = |cx: &Counterexample, cx_out: &Option<String>| -> ! {
        outln!("{cx}");
        if let Some(path) = cx_out {
            write_out(path, &format!("{cx}\n"));
            eprintln!("wrote counterexample to {path}");
        }
        std::process::exit(3);
    };

    match pos[0].as_str() {
        "cross-validate" => {
            for s in &structures {
                for m in &mechs {
                    for seed in first_seed..first_seed + seeds {
                        bound.seed = seed;
                        if mutate {
                            match mutate_cell(*s, *m, &bound) {
                                // The expected outcome: report the first
                                // rejection and exit 3.
                                MutationOutcome::Caught(cx) => fail(&cx, &cx_out),
                                MutationOutcome::Missed => {
                                    eprintln!(
                                        "FATAL: {}/{} seed {seed}: mutated schedule \
                                         was accepted",
                                        m.name(),
                                        s.name()
                                    );
                                    std::process::exit(1);
                                }
                                MutationOutcome::NotApplicable => {}
                            }
                            continue;
                        }
                        match cross_validate(*s, *m, &bound) {
                            Ok(r) => {
                                eprintln!(
                                    "  {:<10} {:<4} seed {seed}: {} crash points, \
                                     {} waived",
                                    s.name(),
                                    m.name(),
                                    r.crash_points,
                                    r.waived
                                );
                                cells.push(cell_json(*s, *m, seed, &r));
                            }
                            Err(cx) => fail(&cx, &cx_out),
                        }
                    }
                }
            }
            if mutate {
                // Reachable only when no cell had a reorderable edge.
                eprintln!("FATAL: no cell produced a reorderable persist pair");
                std::process::exit(1);
            }
            report(
                "cross-validate",
                &bound,
                first_seed,
                seeds,
                cells,
                &json_out,
            );
        }
        "enumerate" => {
            for s in &structures {
                for m in &mechs {
                    let d = m.discipline();
                    for seed in first_seed..first_seed + seeds {
                        bound.seed = seed;
                        match enumerate_check(*s, d, &bound) {
                            Ok(r) => {
                                eprintln!(
                                    "  {:<10} {:<13} seed {seed}: {} cuts, {} states \
                                     checked, {} waived{}",
                                    s.name(),
                                    d.name(),
                                    r.stats.states,
                                    r.checked,
                                    r.waived,
                                    if r.stats.truncated {
                                        " (truncated)"
                                    } else {
                                        ""
                                    }
                                );
                                cells.push(Json::obj([
                                    ("structure", Json::Str(s.name().to_string())),
                                    ("mechanism", Json::Str(m.name().to_string())),
                                    ("discipline", Json::Str(d.name().to_string())),
                                    ("seed", Json::U64(seed)),
                                    ("cuts", Json::U64(r.stats.states as u64)),
                                    ("checked", Json::U64(r.checked as u64)),
                                    ("waived", Json::U64(r.waived as u64)),
                                    ("truncated", Json::Bool(r.stats.truncated)),
                                ]));
                            }
                            Err(cx) => fail(&cx, &cx_out),
                        }
                    }
                }
            }
            report("enumerate", &bound, first_seed, seeds, cells, &json_out);
        }
        other => cli.fail(format!("unknown command {other:?}")),
    }
}

/// Outcome of one `--mutate-reorder` cell.
enum MutationOutcome {
    /// The mutated schedule was rejected with this counterexample.
    Caught(Box<Counterexample>),
    /// The mutated schedule was accepted — a checker bug.
    Missed,
    /// No reorderable edge (NOP, or too few distinct stamps).
    NotApplicable,
}

fn mutate_cell(s: Structure, m: Mechanism, bound: &CheckBound) -> MutationOutcome {
    let d = m.discipline();
    if !d.guarantees_dl() {
        return MutationOutcome::NotApplicable;
    }
    let trace = bound.build_trace(s);
    let run = Sim::new(SimConfig::new(m), &trace).run();
    let preds = match generator_preds(&trace, d) {
        Ok(p) => p,
        Err(cx) => return MutationOutcome::Caught(cx),
    };
    let Some((mutated, _)) = mutate_reorder(&run.schedule, &preds) else {
        return MutationOutcome::NotApplicable;
    };
    let title = format!("{}/{} seed {} (mutated)", m.name(), s.name(), bound.seed);
    match cross_validate_schedule(s, d, &trace, &mutated, &title) {
        Ok(_) => MutationOutcome::Missed,
        Err(cx) => MutationOutcome::Caught(cx),
    }
}

fn cell_json(s: Structure, m: Mechanism, seed: u64, r: &CrossReport) -> Json {
    Json::obj([
        ("structure", Json::Str(s.name().to_string())),
        ("mechanism", Json::Str(m.name().to_string())),
        ("discipline", Json::Str(m.discipline().name().to_string())),
        ("seed", Json::U64(seed)),
        ("crash_points", Json::U64(r.crash_points as u64)),
        ("waived", Json::U64(r.waived as u64)),
    ])
}

fn report(
    command: &str,
    bound: &CheckBound,
    first_seed: u64,
    seeds: u64,
    cells: Vec<Json>,
    json_out: &Option<String>,
) {
    let ncells = cells.len();
    let j = Json::obj([
        ("command", Json::Str(command.to_string())),
        ("threads", Json::U64(bound.threads as u64)),
        ("ops_per_thread", Json::U64(bound.ops_per_thread as u64)),
        ("initial_size", Json::U64(bound.initial_size as u64)),
        ("first_seed", Json::U64(first_seed)),
        ("seeds", Json::U64(seeds)),
        ("max_states", Json::U64(bound.max_states as u64)),
        ("cells", Json::Arr(cells)),
    ]);
    if let Some(out) = json_out {
        write_out(out, &j.to_pretty());
        eprintln!("wrote report to {out}");
    }
    outln!("{command}: {ncells} cells ok");
}
