//! `lrp-check` — the crash-cut model checker as a CLI gate.
//!
//! ```text
//! lrp-check cross-validate --seeds 3 --json-out CHECK.json
//! lrp-check cross-validate --mutate-reorder --cx-out cx.txt   # exits 3
//! lrp-check cross-validate --structures bstree --mechs lrp --modes uncached
//! lrp-check enumerate --structures linkedlist --mechs lrp,nop
//! ```
//!
//! Both commands read one workload matrix through the axis flags
//! `lrp-campaign` and `lrp-bench host` share, so any campaign cell can
//! be checked by its id's axes. `cross-validate` replays each cell's
//! workload trace through the timing simulator in the cell's NVM mode
//! and asserts the recorded persist stamps respect the mechanism's
//! discipline and that every realized crash cut is durably linearizable
//! after null recovery. `enumerate` skips the simulator and walks the
//! *whole* admissible-cut lattice of each mechanism's discipline.
//! Violations exit 3 and render a minimized counterexample (written to
//! `--cx-out` for CI artifact upload). NOP promises nothing: its
//! enumerated violations are reported as counts, never as failures.

use lrp_bench::cli::{write_out, Cli};
use lrp_bench::outln;
use lrp_campaign::{build_trace, workload_slots, CellSpec, MatrixSpec, Workload};
use lrp_check::{generator_preds, mutate_reorder, setup_failure, Checker, EnumReport, MAX_STATES};
use lrp_model::spec::PersistDiscipline;
use lrp_model::Trace;
use lrp_obs::Json;
use lrp_recovery::Counterexample;
use lrp_sim::{Sim, SimConfig};
use std::collections::HashMap;

const USAGE: &str = "usage:\n  \
    lrp-check cross-validate [--structures a,b] [--mechs a,b] [--modes a,b]\n                 \
    [--threads a,b] [--seeds a,b] [--size N] [--ops N]\n                 \
    [--mutate-reorder] [--json-out FILE] [--cx-out FILE]\n  \
    lrp-check enumerate      [...the same matrix flags] [--max-states N]\n                 \
    [--json-out FILE] [--cx-out FILE]\n\n\
    defaults:\n  \
    all five structures x nop,sb,bb,lrp,dpo, cached NVM\n                 \
    (--threads 2 --ops 4 --size 8 --seeds 3,4 --max-states 20000)\n  \
    --structures LIST  comma-separated subset (linkedlist,hashmap,bstree,\n                     \
    skiplist,queue)\n  \
    --mechs LIST       comma-separated subset (nop,sb,bb,lrp,dpo); each is\n                     \
    checked against the persist discipline it promises\n  \
    --modes LIST       NVM modes the simulator replays in (cached,uncached)\n  \
    --threads LIST     worker threads of each workload, 1 to 64\n  \
    --seeds LIST       workload seeds\n  \
    --size N           initial structure size\n  \
    --ops N            operations per worker thread\n  \
    --max-states N     budget for the enumerate cut-lattice walk\n  \
    --mutate-reorder   cross-validate: swap one persist pair across a\n                     \
    discipline edge and require the checker to reject it (exits 3 on\n                     \
    the expected rejection -- CI asserts this)\n  \
    --json-out FILE    write the matrix and the per-cell report as JSON\n  \
    --cx-out FILE      write the first counterexample for artifact upload\n\n\
    exit codes:\n  \
    0  every cell admissible and durably linearizable\n  \
    1  file write error, or a --mutate-reorder mutation went undetected\n  \
    2  usage error (unknown flag or command, missing or invalid value,\n     \
    --threads outside 1..=64 or --ops 0)\n  \
    3  violation found (counterexample on stdout, and --cx-out if given)";

fn main() {
    let mut cli = Cli::from_env(USAGE);
    let matrix = cli.matrix(MatrixSpec::check());
    let max_states = cli.opt_parse("max-states").unwrap_or(MAX_STATES);
    let mutate = cli.flag("mutate-reorder");
    let json_out: Option<String> = cli.opt("json-out");
    let cx_out: Option<String> = cli.opt("cx-out");
    let command = cli.positionals(1, 1).remove(0);

    let fail = |cx: &Counterexample| -> ! {
        outln!("{cx}");
        if let Some(path) = &cx_out {
            write_out(path, &format!("{cx}\n"));
            eprintln!("wrote counterexample to {path}");
        }
        std::process::exit(3);
    };
    let mut cells: Vec<Json> = Vec::new();
    match command.as_str() {
        "cross-validate" if mutate => {
            for cell in matrix.cells() {
                match mutate_cell(&cell) {
                    // The expected outcome: report the first rejection
                    // and exit 3.
                    MutationOutcome::Caught(cx) => fail(&cx),
                    MutationOutcome::Missed => {
                        eprintln!("FATAL: {}: mutated schedule was accepted", cell.id());
                        std::process::exit(1);
                    }
                    MutationOutcome::NotApplicable => {}
                }
            }
            eprintln!("FATAL: no cell produced a reorderable persist pair");
            std::process::exit(1);
        }
        "cross-validate" | "enumerate" => {
            // A lattice walk depends on the workload and the discipline
            // only: both modes, and SB and BB, share one.
            let mut walks: HashMap<(Workload, PersistDiscipline), EnumReport> = HashMap::new();
            for_each_cell(&matrix, |cell, checker| {
                let (id, m, d) = (cell.id(), cell.mechanism, cell.mechanism.discipline());
                let checker = checker.as_ref().unwrap_or_else(|what| {
                    fail(&setup_failure(cell.structure, d, &id, what.clone()))
                });
                if command == "enumerate" {
                    let r = *walks.entry((cell.workload(), d)).or_insert_with(|| {
                        let walk = checker.enumerate(d, max_states, &id);
                        walk.unwrap_or_else(|cx| fail(&cx))
                    });
                    let truncated = r.stats.truncated;
                    eprintln!(
                        "  {id:<30} {:<13} {} cuts, {} states checked, {} waived{}",
                        d.name(),
                        r.stats.states,
                        r.checked,
                        r.waived,
                        if truncated { " (truncated)" } else { "" }
                    );
                    cells.push(Json::obj([
                        ("id", Json::Str(id)),
                        ("discipline", Json::Str(d.name().to_string())),
                        ("cuts", Json::U64(r.stats.states as u64)),
                        ("checked", Json::U64(r.checked as u64)),
                        ("waived", Json::U64(r.waived as u64)),
                        ("truncated", Json::Bool(truncated)),
                    ]));
                    return;
                }
                match checker.cross_validate(m, cell.mode, &id) {
                    Ok(r) => {
                        eprintln!(
                            "  {id:<30} {} crash points, {} waived",
                            r.crash_points, r.waived
                        );
                        cells.push(Json::obj([
                            ("id", Json::Str(id)),
                            ("discipline", Json::Str(d.name().to_string())),
                            ("crash_points", Json::U64(r.crash_points as u64)),
                            ("waived", Json::U64(r.waived as u64)),
                        ]));
                    }
                    Err(cx) => fail(&cx),
                }
            });
        }
        other => cli.fail(format!("unknown command {other:?}")),
    }

    let ncells = cells.len();
    if let Some(out) = &json_out {
        let doc = Json::obj([
            ("command", Json::Str(command.clone())),
            ("matrix", matrix.to_json()),
            ("max_states", Json::U64(max_states as u64)),
            ("cells", Json::Arr(cells)),
        ]);
        write_out(out, &doc.to_pretty());
        eprintln!("wrote report to {out}");
    }
    outln!("{command}: {ncells} cells ok");
}

/// Visits `matrix`'s cells in order, one structure at a time, passing
/// each its workload's checker. A workload's trace and checker are
/// built once, before its structure's first cell, as the campaign
/// builds one trace per workload.
fn for_each_cell(
    matrix: &MatrixSpec,
    mut visit: impl FnMut(&CellSpec, &Result<Checker<'_>, String>),
) {
    let cells = matrix.cells();
    for &structure in &matrix.structures {
        let cells: Vec<CellSpec> = cells
            .iter()
            .filter(|c| c.structure == structure)
            .cloned()
            .collect();
        let (firsts, slots) = workload_slots(&cells);
        let traces: Vec<Trace> = firsts.into_iter().map(build_trace).collect();
        let checkers: Vec<_> = traces.iter().map(|t| Checker::new(structure, t)).collect();
        for (cell, &slot) in cells.iter().zip(&slots) {
            visit(cell, &checkers[slot]);
        }
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

fn mutate_cell(cell: &CellSpec) -> MutationOutcome {
    let d = cell.mechanism.discipline();
    if !d.guarantees_dl() {
        return MutationOutcome::NotApplicable;
    }
    let trace = build_trace(cell);
    let cfg = SimConfig::new(cell.mechanism).nvm_mode(cell.mode);
    let run = Sim::new(cfg, &trace).run();
    let preds = match generator_preds(&trace, d) {
        Ok(p) => p,
        Err(cx) => return MutationOutcome::Caught(cx),
    };
    let Some((mutated, _)) = mutate_reorder(&run.schedule, &preds) else {
        return MutationOutcome::NotApplicable;
    };
    let title = format!("{} (mutated)", cell.id());
    let checked = Checker::new(cell.structure, &trace)
        .map_err(|what| setup_failure(cell.structure, d, &title, what))
        .and_then(|ck| ck.cross_validate_schedule(d, &mutated, &title));
    match checked {
        Ok(_) => MutationOutcome::Missed,
        Err(cx) => MutationOutcome::Caught(cx),
    }
}
