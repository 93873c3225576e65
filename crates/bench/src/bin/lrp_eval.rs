//! `lrp-eval` — regenerates the paper's evaluation artifacts as text
//! tables, or runs one instrumented structure×mechanism simulation.
//!
//! ```text
//! lrp-eval <table1|fig1|fig2|fig5|fig6|fig7|fig8|sens|claims|all> [--quick]
//!          [--threads N] [--ops N] [--seed N]
//! lrp-eval --structure <name> [--mech M] [--mode cached|uncached]
//!          [--trace-out FILE] [--metrics-out FILE] [--sample-every N]
//!          [--quick] [--threads N] [--ops N] [--seed N]
//! ```

use lrp_bench::cli::{report_run, Cli};
use lrp_bench::experiments::{
    claims, fig2_conflicts, fig6, fig8, fig_norm_exec, size_sensitivity, EvalParams,
};
use lrp_lfds::Structure;
use lrp_obs::RecorderConfig;
use lrp_sim::{Mechanism, NvmMode, Sim, SimConfig};

const USAGE: &str = "usage:\n  \
    lrp-eval <table1|fig1|fig2|fig5|fig6|fig7|fig8|sens|claims|all> \
    [--quick] [--threads N] [--ops N] [--seed N]\n  \
    lrp-eval --structure <linkedlist|hashmap|bstree|skiplist|queue> \
    [--mech nop|sb|bb|lrp|dpo] [--mode cached|uncached] \
    [--trace-out FILE] [--metrics-out FILE] [--sample-every N] \
    [--quick] [--threads N] [--ops N] [--seed N]\n\n\
    defaults:\n  \
    --mech lrp     --mode cached\n  \
    --threads 32   --ops 30   --seed 42   (paper scale)\n  \
    --quick              4 threads, 12 ops/thread, small structures\n  \
    --trace-out FILE     write a Chrome trace-event JSON timeline\n  \
    --metrics-out FILE   write JSONL metrics (stats, histograms, blame, audit)\n  \
    --sample-every N     record time-series samples every N cycles (0 = off)\n\n\
    exit codes:\n  \
    0  success\n  \
    1  output file write error\n  \
    2  usage error (unknown flag or command, missing or invalid value)\n  \
    3  invariant audit violations observed (I1-I4, critpath C1-C2)";

fn main() {
    let mut cli = Cli::from_env(USAGE);
    let mut params = if cli.flag("quick") {
        EvalParams::quick()
    } else {
        EvalParams::full()
    };
    if let Some(threads) = cli.opt_parse("threads") {
        params.threads = threads;
    }
    if let Some(ops) = cli.opt_parse("ops") {
        params.ops_per_thread = ops;
    }
    if let Some(seed) = cli.opt_parse("seed") {
        params.seed = seed;
    }
    let structure: Option<Structure> = cli.opt_parse("structure");
    if let Some(structure) = structure {
        let mech: Mechanism = cli.opt_parse("mech").unwrap_or(Mechanism::Lrp);
        let mode: NvmMode = cli.opt_parse("mode").unwrap_or(NvmMode::Cached);
        let trace_out: Option<String> = cli.opt("trace-out");
        let metrics_out: Option<String> = cli.opt("metrics-out");
        let sample_every: u64 = cli.opt_parse("sample-every").unwrap_or(0);
        cli.positionals(0, 0);
        let trace = params.trace(structure, params.threads);
        let rec = RecorderConfig {
            sample_every,
            ..RecorderConfig::default()
        };
        let r = Sim::new(SimConfig::new(mech).nvm_mode(mode), &trace)
            .with_recorder(rec)
            .run();
        let title = format!("{} under {mech}", structure.name());
        std::process::exit(report_run(
            &title,
            &r,
            trace_out.as_deref(),
            metrics_out.as_deref(),
        ));
    }
    let cmd = cli.positionals(1, 1).remove(0);

    match cmd.as_str() {
        "table1" => table1(),
        "fig1" => fig1(),
        "fig2" => fig2(),
        "fig5" => norm_exec(
            &params,
            NvmMode::Cached,
            "Figure 5: normalized execution time (cached mode, lower is better)",
        ),
        "fig6" => run_fig6(&params),
        "fig7" => norm_exec(
            &params,
            NvmMode::Uncached,
            "Figure 7: normalized execution time (uncached mode, lower is better)",
        ),
        "fig8" => run_fig8(&params),
        "sens" => sens(&params),
        "claims" => run_claims(&params),
        "all" => {
            table1();
            fig1();
            fig2();
            norm_exec(
                &params,
                NvmMode::Cached,
                "Figure 5: normalized execution time (cached mode)",
            );
            run_fig6(&params);
            norm_exec(
                &params,
                NvmMode::Uncached,
                "Figure 7: normalized execution time (uncached mode)",
            );
            run_fig8(&params);
            sens(&params);
            run_claims(&params);
        }
        other => cli.fail(format!("unknown command {other:?}")),
    }
}

fn table1() {
    println!("== Table 1: simulator configuration ==");
    println!("{}", SimConfig::new(Mechanism::Lrp).table1());
    println!();
}

fn fig1() {
    println!("== Figure 1: ARP cannot recover a log-free linked-list insert ==");
    let f = lrp_recovery::counterexample::figure1();
    println!(
        "ARP (adversarial, ARP-rule-legal persist order): {}/{} crash points UNRECOVERABLE",
        f.arp_failures, f.arp_points
    );
    println!(
        "LRP (simulated hardware run):                    0/{} crash points unrecoverable",
        f.lrp_points
    );
    println!();
}

fn fig2() {
    println!("== Figure 2: one-sided barriers eliminate conflicts ==");
    let (bb_crit, lrp_crit, bb_cycles, lrp_cycles) = fig2_conflicts();
    println!("cross-epoch same-line write micro-loop (64 iterations):");
    println!("  BB : {bb_crit} critical-path flushes, {bb_cycles} cycles");
    println!("  LRP: {lrp_crit} critical-path flushes, {lrp_cycles} cycles");
    println!();
}

fn norm_exec(params: &EvalParams, mode: NvmMode, title: &str) {
    println!("== {title} ==");
    println!("{:<12} {:>7} {:>7} {:>7}", "workload", "SB", "BB", "LRP");
    for r in fig_norm_exec(params, mode) {
        println!(
            "{:<12} {:>7.3} {:>7.3} {:>7.3}",
            r.workload.name(),
            r.normalized[&Mechanism::Sb],
            r.normalized[&Mechanism::Bb],
            r.normalized[&Mechanism::Lrp],
        );
    }
    println!();
}

fn run_fig6(params: &EvalParams) {
    println!("== Figure 6: % of write-backs in the critical path (lower is better) ==");
    println!("{:<12} {:>7} {:>7}", "workload", "BB", "LRP");
    for r in fig6(params) {
        println!(
            "{:<12} {:>6.1}% {:>6.1}%",
            r.workload.name(),
            r.bb_pct,
            r.lrp_pct
        );
    }
    println!();
}

fn run_fig8(params: &EvalParams) {
    println!("== Figure 8: persistency overhead (%) vs worker threads ==");
    for r in fig8(params) {
        println!("({})", r.workload.name());
        println!("{:>8} {:>8} {:>8}", "threads", "BB", "LRP");
        for (n, bb, lrp) in r.points {
            println!("{n:>8} {bb:>7.1}% {lrp:>7.1}%");
        }
    }
    println!();
}

fn sens(params: &EvalParams) {
    println!("== §6.4 size sensitivity (hashmap): overhead (%) vs initial size ==");
    println!("{:>10} {:>8} {:>8}", "size", "BB", "LRP");
    for (size, bb, lrp) in size_sensitivity(params, Structure::HashMap) {
        println!("{size:>10} {bb:>7.1}% {lrp:>7.1}%");
    }
    println!();
}

fn run_claims(params: &EvalParams) {
    println!("== Headline claims: paper vs measured ==");
    let rows = fig_norm_exec(params, NvmMode::Cached);
    let c = claims(&rows);
    let avg = |v: &[(Structure, f64)]| v.iter().map(|(_, x)| x).sum::<f64>() / v.len() as f64;
    let range = |v: &[(Structure, f64)]| {
        let lo = v.iter().map(|(_, x)| *x).fold(f64::INFINITY, f64::min);
        let hi = v.iter().map(|(_, x)| *x).fold(f64::NEG_INFINITY, f64::max);
        (lo, hi)
    };
    let (lo, hi) = range(&c.bb_over_sb);
    println!(
        "BB improvement over SB : paper 24%-68% (avg 52%) | measured {lo:.0}%-{hi:.0}% (avg {:.0}%)",
        avg(&c.bb_over_sb)
    );
    let (lo, hi) = range(&c.lrp_over_bb);
    println!(
        "LRP improvement over BB: paper 14%-44% (avg 33%) | measured {lo:.0}%-{hi:.0}% (avg {:.0}%)",
        avg(&c.lrp_over_bb)
    );
    let (lo, hi) = range(&c.lrp_over_nop);
    println!(
        "LRP overhead over NOP  : paper 2%-8% (avg 6%)    | measured {lo:.0}%-{hi:.0}% (avg {:.0}%)",
        avg(&c.lrp_over_nop)
    );
    println!();
}
