//! `lrp-campaign` — run a parallel, fault-tolerant evaluation campaign
//! over the (structure × mechanism × NVM mode × threads × seed) matrix
//! and roll the results up into machine-readable reports.
//!
//! ```text
//! lrp-campaign run [--smoke] [--workers N] [--timeout-secs N] [--resume]
//!                  [--structures a,b] [--mechanisms a,b] [--modes a,b]
//!                  [--threads a,b] [--seeds a,b] [--size N] [--ops N]
//!                  [--crash-samples N] [--out FILE] [--bench FILE]
//!                  [--no-bench] [--inject-panic CELL] [--quiet]
//! lrp-campaign matrix [--smoke] [...same matrix flags]
//! ```
//!
//! `run` streams one JSONL line per completed cell to `--out` (default
//! `campaign_results.jsonl`) and writes the aggregate summary to
//! `--bench` (default `BENCH_campaign.json`) plus a table on stdout.
//! `--resume` continues an interrupted campaign from the manifest:
//! `ok` cells are skipped, `failed`/`timed_out` cells run again, and a
//! manifest from a different matrix is refused. `matrix` prints the
//! cells a run would execute, without executing anything.

use lrp_bench::cli::{die, report_unhealthy, Cli};
use lrp_bench::{out, outln};
use lrp_campaign::{render_table, run_to_files, write_bench_json, CampaignConfig, MatrixSpec};
use std::path::PathBuf;
use std::time::Duration;

const USAGE: &str = "usage:\n  \
    lrp-campaign run [--smoke|--paper] [--workers N] [--timeout-secs N]\n                   \
    [--resume] [--structures a,b] [--mechanisms a,b] [--modes a,b]\n                   \
    [--threads a,b] [--seeds a,b] [--size N] [--ops N]\n                   \
    [--crash-samples N] [--out FILE] [--bench FILE]\n                   \
    [--no-bench] [--inject-panic CELL] [--quiet]\n  \
    lrp-campaign matrix [--smoke|--paper] [...matrix flags]\n\n\
    axes: structures linkedlist,hashmap,bstree,skiplist,queue\n          \
    mechanisms nop,sb,bb,lrp · modes cached,uncached\n\n\
    --paper runs the paper-scale tier: 64K-entry structures on the full\n    \
    64-core mesh (hashmap,bstree,skiplist x all four mechanisms)";

fn matrix_from(cli: &mut Cli) -> MatrixSpec {
    let mut m = match (cli.flag("paper"), cli.flag("smoke")) {
        (true, true) => cli.fail("--paper and --smoke are mutually exclusive"),
        (true, false) => MatrixSpec::paper(),
        (false, true) => MatrixSpec::smoke(),
        (false, false) => MatrixSpec::default_campaign(),
    };
    if let Some(v) = cli.opt_list("structures") {
        m.structures = v;
    }
    if let Some(v) = cli.opt_list("mechanisms") {
        m.mechanisms = v;
    }
    if let Some(v) = cli.opt_list("modes") {
        m.modes = v;
    }
    if let Some(v) = cli.opt_list("threads") {
        m.threads = v;
    }
    if let Some(v) = cli.opt_list("seeds") {
        m.seeds = v;
    }
    if let Some(v) = cli.opt_parse("size") {
        m.initial_size = v;
    }
    if let Some(v) = cli.opt_parse("ops") {
        m.ops_per_thread = v;
    }
    if let Some(v) = cli.opt_parse("crash-samples") {
        m.crash_samples = v;
    }
    cli.check_workload(&m.threads, m.ops_per_thread);
    m
}

fn main() {
    let mut cli = Cli::from_env(USAGE);
    let matrix = matrix_from(&mut cli);

    let mut cfg = CampaignConfig::default();
    if let Some(w) = cli.opt_parse::<usize>("workers") {
        if w == 0 {
            cli.fail("--workers must be at least 1");
        }
        cfg.workers = w;
    }
    if let Some(t) = cli.opt_parse::<u64>("timeout-secs") {
        cfg.timeout = Duration::from_secs(t);
    }
    cfg.inject_panic = cli.opt("inject-panic");
    let resume = cli.flag("resume");
    let quiet = cli.flag("quiet");
    let out: PathBuf = cli
        .opt("out")
        .unwrap_or_else(|| "campaign_results.jsonl".to_string())
        .into();
    let no_bench = cli.flag("no-bench");
    let bench: PathBuf = cli
        .opt("bench")
        .unwrap_or_else(|| "BENCH_campaign.json".to_string())
        .into();

    let cmd = cli.positionals(1, 1).remove(0);
    match cmd.as_str() {
        "matrix" => {
            outln!("{}", matrix.describe());
            outln!(
                "fingerprint {} — {} cells:",
                matrix.fingerprint(),
                matrix.len()
            );
            for cell in matrix.cells() {
                outln!("{:>5}  {}", cell.index, cell.id());
            }
        }
        "run" => {
            if matrix.is_empty() {
                cli.fail("the matrix has an empty axis; nothing to run");
            }
            let total = matrix.len();
            let outcome = run_to_files(&matrix, &cfg, &out, resume, |record| {
                if !quiet {
                    eprintln!(
                        "[{:>4}/{total}] {:<40} {}",
                        record.spec.index + 1,
                        record.spec.id(),
                        record.outcome.kind()
                    );
                }
            })
            .unwrap_or_else(|e| die(format!("campaign failed: {e}")));

            if outcome.resumed > 0 && !quiet {
                eprintln!(
                    "resumed {} completed cell(s) from {}",
                    outcome.resumed,
                    out.display()
                );
            }
            out!("{}", render_table(&matrix, &outcome.summary));
            let unhealthy = report_unhealthy(&outcome.records);
            if !no_bench {
                write_bench_json(&bench, &matrix, &outcome.summary)
                    .unwrap_or_else(|e| die(format!("cannot write {}: {e}", bench.display())));
                if !quiet {
                    eprintln!("wrote {} and {}", out.display(), bench.display());
                }
            }
            // A campaign that ran everything cleanly exits 0; one with
            // failed/timed-out cells (or RP/recovery findings) exits 3
            // so CI notices without losing the partial results.
            if unhealthy {
                std::process::exit(3);
            }
        }
        other => cli.fail(format!("unknown command {other:?}")),
    }
}
