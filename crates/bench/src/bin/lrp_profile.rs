//! `lrp-profile` — the single-run profiler.
//!
//! ```text
//! lrp-profile run  --structure queue --mech lrp --ret-capacity 4
//! lrp-profile run  saved.trace --mech bb --chains-out chains.folded
//! lrp-profile diff --structure queue --a lrp --b bb
//! ```
//!
//! `run` replays one workload with the recorder attached and prints
//! everything it measured: the stat dump, the observability histograms,
//! the I1–I4 audit, the durability critical path and the persist-blame
//! tables. Its exports are folded blame stacks (`--folded-out`, `site;
//! kind;cause cycles` for flame-graph tools), folded critical-path
//! chains (`--chains-out`), a Chrome trace (`--trace-out`) and JSONL
//! metrics (`--metrics-out`). `diff` replays one workload under two
//! mechanisms and ranks the blame deltas and the critical-path share
//! shifts. The workload is a saved trace file or one generated from
//! `--structure` and the workload flags. `run` and `diff` exit 3 on any
//! I1–I4 or C1–C2 violation.

use lrp_bench::cli::{load_replayable, write_out, Cli};
use lrp_bench::out;
use lrp_bench::profile;
use lrp_campaign::{build_trace, CellSpec};
use lrp_lfds::Structure;
use lrp_obs::{chrome, metrics};
use lrp_sim::{Mechanism, NvmMode, RunResult};

const USAGE: &str = "usage:\n  \
    lrp-profile run  [FILE] [--structure S] [--mech M] [--mode cached|uncached]\n                   \
    [--threads N] [--ops N] [--size N] [--seed N] [--ret-capacity N]\n                   \
    [--top N] [--folded-out FILE] [--chains-out FILE]\n                   \
    [--trace-out FILE] [--metrics-out FILE] [--sample-every N]\n  \
    lrp-profile diff [FILE] [--structure S] [--a MECH] [--b MECH] [--mode M]\n                   \
    [--threads N] [--ops N] [--size N] [--seed N]\n                   \
    [--ret-capacity N] [--top N]\n\n\
    workload: a saved trace FILE (lrp-trace gen), or one generated from\n  \
    --structure <linkedlist|hashmap|bstree|skiplist|queue> and the\n  \
    --threads/--ops/--size/--seed flags (--threads 1 to 64, one per core)\n\n\
    defaults:\n  \
    --mech lrp   --mode cached   --threads 4   --ops 25   --size 64   --seed 1\n  \
    --a lrp      --b bb          --top 20\n  \
    --ret-capacity N     override the RET size (watermark pinned to N)\n  \
    --folded-out FILE    write folded blame stacks (site;kind;cause cycles)\n  \
    --chains-out FILE    write folded critical-path chains\n  \
    --trace-out FILE     write a Chrome trace-event JSON timeline\n  \
    --metrics-out FILE   write JSONL metrics (stats, histograms, blame, audit)\n  \
    --sample-every N     record time-series samples every N cycles (0 = off)\n\n\
    exit codes:\n  \
    0  success\n  \
    1  a file read/write/parse error, or a trace FILE the simulator\n     \
    cannot replay (malformed, or more threads than cores)\n  \
    2  usage error (unknown flag or command, missing or invalid value,\n     \
    --threads outside 1..=64 or --ops 0)\n  \
    3  run/diff: invariant violations observed (I1-I4, critpath C1-C2)";

fn main() {
    let mut cli = Cli::from_env(USAGE);
    let structure: Option<Structure> = cli.opt_parse("structure");
    let mech = cli.opt_parse("mech").unwrap_or(Mechanism::Lrp);
    let a = cli.opt_parse("a").unwrap_or(Mechanism::Lrp);
    let b = cli.opt_parse("b").unwrap_or(Mechanism::Bb);
    let mode = cli.opt_parse("mode").unwrap_or(NvmMode::Cached);
    let threads = cli.opt_parse("threads").unwrap_or(4u16);
    let ops = cli.opt_parse("ops").unwrap_or(25usize);
    let size = cli.opt_parse("size").unwrap_or(64usize);
    let seed = cli.opt_parse("seed").unwrap_or(1u64);
    let ret_capacity: Option<usize> = cli.opt_parse("ret-capacity");
    let top = cli.opt_parse("top").unwrap_or(20usize);
    let folded_out: Option<String> = cli.opt("folded-out");
    let chains_out: Option<String> = cli.opt("chains-out");
    let trace_out: Option<String> = cli.opt("trace-out");
    let metrics_out: Option<String> = cli.opt("metrics-out");
    let sample_every = cli.opt_parse("sample-every").unwrap_or(0u64);
    let pos = cli.positionals(1, 2);
    let cmd = pos[0].as_str();
    if cmd != "run" && cmd != "diff" {
        cli.fail(format!("unknown command {cmd:?}"));
    }

    // The workload: a saved trace, or a campaign cell's generated one.
    let (trace, cell) = match (pos.get(1), structure) {
        (Some(path), None) => (load_replayable(path), None),
        (None, Some(structure)) => {
            cli.check_workload(&[threads], ops);
            let cell = CellSpec {
                index: 0,
                structure,
                mechanism: mech,
                mode,
                threads,
                seed,
                initial_size: size,
                ops_per_thread: ops,
                crash_samples: 0,
            };
            (build_trace(&cell), Some(cell))
        }
        (Some(_), Some(_)) => {
            cli.fail(format!("{cmd} takes a trace FILE or --structure, not both"))
        }
        (None, None) => cli.fail(format!("{cmd} needs a trace FILE or --structure")),
    };
    let id = |mechanism: Mechanism| match &cell {
        Some(cell) => CellSpec {
            mechanism,
            ..cell.clone()
        }
        .id(),
        None => format!("{}/{}/{}", pos[1], mechanism.name(), mode.name()),
    };
    let replay = |mechanism: Mechanism| {
        let cfg = profile::sim_config(mechanism, mode, ret_capacity);
        profile::run(&trace, cfg, sample_every)
    };

    if cmd == "diff" {
        let (ra, rb) = (replay(a), replay(b));
        out!("{}", profile::render_diff(&id(a), &ra, &id(b), &rb, top));
        exit_on_violations(&[&ra, &rb]);
        return;
    }
    let r = replay(mech);
    let obs = profile::obs(&r);
    let deduped = metrics::warn_ring_drops("event", obs.dropped);
    if deduped > 0 {
        eprintln!("  ({deduped} further drop warnings deduplicated)");
    }
    out!("{}", profile::render_report(&id(mech), &r, top));
    export(&trace_out, "Chrome trace", || chrome::export(obs));
    export(&metrics_out, "JSONL metrics", || {
        metrics::export_jsonl(obs, &r.stats)
    });
    export(&folded_out, "folded stacks", || obs.summary.blame.folded());
    export(&chains_out, "folded chains", || {
        obs.summary.crit.folded_stacks()
    });
    exit_on_violations(&[&r]);
}

/// Writes `text()` to `path` when one was given.
fn export(path: &Option<String>, what: &str, text: impl FnOnce() -> String) {
    if let Some(path) = path {
        write_out(path, &text());
        eprintln!("wrote {what} to {path}");
    }
}

/// Exits 3 with one warning when any run broke an I1–I4 invariant or
/// critical-path C1–C2 conservation.
fn exit_on_violations(runs: &[&RunResult]) {
    let (mut audit, mut crit) = (0, 0);
    for r in runs {
        let summary = &profile::obs(r).summary;
        audit += summary.audit.total_violations();
        crit += summary.crit.audit.total_violations();
    }
    if audit + crit > 0 {
        eprintln!(
            "WARNING: {} invariant violations observed ({audit} I1-I4, {crit} critpath C1-C2)",
            audit + crit
        );
        std::process::exit(3);
    }
}
