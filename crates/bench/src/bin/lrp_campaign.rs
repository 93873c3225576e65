//! `lrp-campaign` — run a parallel, fault-tolerant evaluation campaign
//! over the (structure × mechanism × NVM mode × threads × seed) matrix
//! and roll the results up into machine-readable reports.
//!
//! ```text
//! lrp-campaign run [--smoke|--paper] [--workers N] [--timeout-secs N]
//!                  [--resume] [--structures a,b] [--mechs a,b]
//!                  [--modes a,b] [--threads a,b] [--seeds a,b] [--size N]
//!                  [--ops N] [--crash-samples N] [--out FILE]
//!                  [--bench FILE] [--no-bench] [--inject-panic CELL]
//!                  [--quiet]
//! lrp-campaign matrix [--smoke|--paper] [...same matrix flags]
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
use lrp_campaign::{render_table, run_to_files, write_bench_json, CampaignConfig};
use std::path::PathBuf;
use std::time::Duration;

const USAGE: &str = "usage:\n  \
    lrp-campaign run [--smoke|--paper] [--workers N] [--timeout-secs N]\n                   \
    [--resume] [--structures a,b] [--mechs a,b] [--modes a,b]\n                   \
    [--threads a,b] [--seeds a,b] [--size N] [--ops N]\n                   \
    [--crash-samples N] [--out FILE] [--bench FILE]\n                   \
    [--no-bench] [--inject-panic CELL] [--quiet]\n  \
    lrp-campaign matrix [--smoke|--paper] [...matrix flags]\n\n\
    axes: structures linkedlist,hashmap,bstree,skiplist,queue\n          \
    mechs nop,sb,bb,lrp,dpo · modes cached,uncached\n\n\
    --paper runs the paper-scale tier: 64K-entry structures on the full\n    \
    64-core mesh (hashmap,bstree,skiplist x all four mechanisms)";

fn main() {
    let mut cli = Cli::from_env(USAGE);
    let tier = cli.tier();
    let mut matrix = cli.matrix(tier);
    if let Some(v) = cli.opt_parse("crash-samples") {
        matrix.crash_samples = v;
    }

    let default = CampaignConfig::default();
    let cfg = CampaignConfig {
        workers: cli.workers(default.workers),
        timeout: cli
            .opt_parse("timeout-secs")
            .map_or(default.timeout, Duration::from_secs),
        inject_panic: cli.opt("inject-panic"),
    };
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
