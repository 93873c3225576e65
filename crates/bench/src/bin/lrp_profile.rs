//! `lrp-profile` — the persist-blame profiler.
//!
//! ```text
//! lrp-profile run  --structure queue --mech lrp --ret-capacity 4
//! lrp-profile diff --structure queue --a lrp --b bb
//! lrp-profile critpath --structure queue --mech lrp
//! lrp-profile critpath-diff --structure queue --a lrp --b bb
//! lrp-profile gate --baseline baselines/BENCH_baseline.json \
//!                  --current BENCH_campaign.json --ops-only
//! ```
//!
//! `run` replays one workload with blame attribution and prints the
//! per-`(site, cause)` tables; `--folded-out` additionally writes
//! folded stacks (`site;kind;cause cycles`) for flame-graph tools.
//! `diff` profiles the same workload under two mechanisms and ranks
//! the attribution deltas. `critpath` traces the durability critical
//! path and prints the per-segment latency breakdown (`--folded-out`
//! writes folded chain shapes); `critpath-diff` compares two
//! mechanisms' segment shares. `gate` compares two
//! `BENCH_campaign.json` summaries and fails (exit 1) on
//! out-of-tolerance regressions.

use lrp_bench::cli::{gate_command, write_out, Cli};
use lrp_bench::out;
use lrp_bench::profile::{self, GateTolerances, ProfileSpec};
use lrp_lfds::Structure;
use lrp_sim::{Mechanism, NvmMode};

const USAGE: &str = "usage:\n  \
    lrp-profile run  --structure <linkedlist|hashmap|bstree|skiplist|queue>\n                   \
    [--mech M] [--mode cached|uncached] [--threads N] [--ops N]\n                   \
    [--size N] [--seed N] [--ret-capacity N] [--top N] [--folded-out FILE]\n  \
    lrp-profile diff --structure <name> [--a MECH] [--b MECH]\n                   \
    [--mode M] [--threads N] [--ops N] [--size N] [--seed N]\n                   \
    [--ret-capacity N] [--top N]\n  \
    lrp-profile critpath --structure <name> [--mech M] [--mode M]\n                   \
    [--threads N] [--ops N] [--size N] [--seed N]\n                   \
    [--ret-capacity N] [--top N] [--folded-out FILE]\n  \
    lrp-profile critpath-diff --structure <name> [--a MECH] [--b MECH]\n                   \
    [--mode M] [--threads N] [--ops N] [--size N] [--seed N]\n                   \
    [--ret-capacity N]\n  \
    lrp-profile gate --baseline FILE --current FILE [--tol-ops F]\n                   \
    [--tol-stall F] [--tol-latency F] [--ops-only] [--json-out FILE]\n\n\
    defaults:\n  \
    --mech lrp   --mode cached   --threads 4   --ops 25   --size 64   --seed 1\n  \
    --a lrp      --b bb          --top 20\n  \
    --tol-ops 0.20     maximum fractional ops/cycle drop\n  \
    --tol-stall 0.05   maximum absolute stall-share increase\n  \
    --tol-latency 0.50 maximum fractional latency p50/p99 increase\n  \
    --ops-only         gate on ops/cycle only (the CI posture)\n  \
    --ret-capacity N   override the RET size (watermark pinned to N)\n\n\
    exit codes:\n  \
    0  success (gate: every check within tolerance)\n  \
    1  gate regression detected, or a file read/write/parse error\n  \
    2  usage error (unknown flag or command, missing or invalid value)\n  \
    3  critpath conservation violation (C1/C2 audit failed)";

fn main() {
    let mut cli = Cli::from_env(USAGE);
    let structure: Option<Structure> = cli.opt_parse("structure");
    let mech = cli.opt("mech").unwrap_or_else(|| "lrp".to_string());
    let a = cli.opt("a").unwrap_or_else(|| "lrp".to_string());
    let b = cli.opt("b").unwrap_or_else(|| "bb".to_string());
    let mode_name = cli.opt("mode").unwrap_or_else(|| "cached".to_string());
    let threads = cli.opt_parse("threads").unwrap_or(4u16);
    let ops = cli.opt_parse("ops").unwrap_or(25usize);
    let size = cli.opt_parse("size").unwrap_or(64usize);
    let seed = cli.opt_parse("seed").unwrap_or(1u64);
    let ret_capacity: Option<usize> = cli.opt_parse("ret-capacity");
    let top = cli.opt_parse("top").unwrap_or(20usize);
    let folded_out: Option<String> = cli.opt("folded-out");
    let baseline: Option<String> = cli.opt("baseline");
    let current: Option<String> = cli.opt("current");
    let tol = GateTolerances {
        ops_frac: cli.opt_parse("tol-ops").unwrap_or(0.20),
        stall_share: cli.opt_parse("tol-stall").unwrap_or(0.05),
        latency_frac: cli.opt_parse("tol-latency").unwrap_or(0.50),
        ops_only: cli.flag("ops-only"),
    };
    let json_out: Option<String> = cli.opt("json-out");
    let pos = cli.positionals(1, 1);

    let mode = NvmMode::from_name(&mode_name)
        .unwrap_or_else(|| cli.fail(format!("unknown NVM mode {mode_name:?}")));
    let spec_for = |mech_name: &str, cli: &Cli| -> ProfileSpec {
        let Some(structure) = structure else {
            cli.fail("this command needs --structure")
        };
        let mechanism = Mechanism::from_name(mech_name)
            .unwrap_or_else(|| cli.fail(format!("unknown mechanism {mech_name:?}")));
        ProfileSpec {
            structure,
            mechanism,
            mode,
            threads,
            ops_per_thread: ops,
            initial_size: size,
            seed,
            ret_capacity,
        }
    };

    match pos[0].as_str() {
        "run" => {
            let spec = spec_for(&mech, &cli);
            let run = profile::run(&spec);
            out!("{}", profile::render_run(&spec, &run, top));
            if let Some(out) = &folded_out {
                write_out(out, &run.blame.folded());
                eprintln!("wrote folded stacks to {out}");
            }
        }
        "diff" => {
            let spec_a = spec_for(&a, &cli);
            let spec_b = spec_for(&b, &cli);
            let (_, _, rows) = profile::run_diff(&spec_a, &spec_b);
            out!("{}", profile::render_diff(&spec_a, &spec_b, &rows, top));
        }
        "critpath" => {
            let spec = spec_for(&mech, &cli);
            let run = profile::run(&spec);
            out!("{}", profile::render_critpath(&spec, &run, top));
            if let Some(out) = &folded_out {
                write_out(out, &run.crit.folded_stacks());
                eprintln!("wrote folded chains to {out}");
            }
            if run.crit.audit.total_violations() > 0 {
                eprintln!(
                    "critpath conservation violated: {} of {} checks",
                    run.crit.audit.total_violations(),
                    run.crit.audit.total_checks()
                );
                std::process::exit(3);
            }
        }
        "critpath-diff" => {
            let spec_a = spec_for(&a, &cli);
            let spec_b = spec_for(&b, &cli);
            let (run_a, run_b) = (profile::run(&spec_a), profile::run(&spec_b));
            let rows = profile::crit_diff(&run_a.crit, &run_b.crit);
            out!("{}", profile::render_crit_diff(&spec_a, &spec_b, &rows));
            let bad = run_a.crit.audit.total_violations() + run_b.crit.audit.total_violations();
            if bad > 0 {
                eprintln!("critpath conservation violated: {bad} check(s)");
                std::process::exit(3);
            }
        }
        "gate" => gate_command(
            &cli,
            "gate",
            (baseline.as_deref(), current.as_deref()),
            json_out.as_deref(),
            |base, cur| profile::gate(base, cur, &tol),
            |v| profile::verdict_json(v, &tol),
            |_, _| String::new(),
        ),
        other => cli.fail(format!("unknown command {other:?}")),
    }
}
