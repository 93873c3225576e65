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
//!
//! Figures 5–8, the §6.4 sweep and the claims are campaign matrices
//! ([`lrp_bench::figures`]): their cells run once, in parallel over
//! shared traces, and each is RP-checked and recovery-audited.

use lrp_bench::cli::{report_run, report_unhealthy, Cli};
use lrp_bench::figures::{Figure, Figures, Shape};
use lrp_bench::{out, outln};
use lrp_campaign::{build_trace, CampaignConfig};
use lrp_lfds::Structure;
use lrp_obs::RecorderConfig;
use lrp_sim::stats::FlushClass;
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
    --threads N          1 to 64 (one worker per simulated core)\n  \
    --trace-out FILE     write a Chrome trace-event JSON timeline\n  \
    --metrics-out FILE   write JSONL metrics (stats, histograms, blame, audit)\n  \
    --sample-every N     record time-series samples every N cycles (0 = off)\n\n\
    exit codes:\n  \
    0  success\n  \
    1  output file write error\n  \
    2  usage error (unknown flag or command, missing or invalid value)\n  \
    3  a figure cell failed, timed out, violated RP or failed recovery\n     \
    (its id goes to stderr), or invariant audit violations observed\n     \
    (I1-I4, critpath C1-C2)";

fn main() {
    let mut cli = Cli::from_env(USAGE);
    let mut shape = Shape::new(cli.flag("quick"));
    if let Some(threads) = cli.opt_parse("threads") {
        shape.threads = threads;
    }
    if let Some(ops) = cli.opt_parse("ops") {
        shape.ops_per_thread = ops;
    }
    if let Some(seed) = cli.opt_parse("seed") {
        shape.seed = seed;
    }
    cli.check_workload(&[shape.threads], shape.ops_per_thread);
    let structure: Option<Structure> = cli.opt_parse("structure");
    if let Some(structure) = structure {
        let mech: Mechanism = cli.opt_parse("mech").unwrap_or(Mechanism::Lrp);
        let mode: NvmMode = cli.opt_parse("mode").unwrap_or(NvmMode::Cached);
        let trace_out: Option<String> = cli.opt("trace-out");
        let metrics_out: Option<String> = cli.opt("metrics-out");
        let sample_every: u64 = cli.opt_parse("sample-every").unwrap_or(0);
        cli.positionals(0, 0);
        let trace = build_trace(&shape.cell(structure, mech, mode));
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

    let figures = match cmd.as_str() {
        "table1" => return table1(),
        "fig1" => return fig1(),
        "fig2" => return fig2(),
        "all" => {
            table1();
            fig1();
            fig2();
            Figure::ALL.to_vec()
        }
        "fig5" => vec![Figure::Fig5],
        "fig6" => vec![Figure::Fig6],
        "fig7" => vec![Figure::Fig7],
        "fig8" => vec![Figure::Fig8],
        "sens" => vec![Figure::Sens],
        "claims" => vec![Figure::Claims],
        other => cli.fail(format!("unknown command {other:?}")),
    };
    let figs = Figures::run(shape, &figures, &CampaignConfig::default());
    // `all` prints its normalized-time titles without the legend.
    let legend = if cmd == "all" {
        ""
    } else {
        ", lower is better"
    };
    for figure in figures {
        out!("{}", figs.render(figure, legend));
    }
    if report_unhealthy(&figs.records) {
        std::process::exit(3);
    }
}

fn table1() {
    outln!("== Table 1: simulator configuration ==");
    outln!("{}", SimConfig::new(Mechanism::Lrp).table1());
    outln!();
}

fn fig1() {
    outln!("== Figure 1: ARP cannot recover a log-free linked-list insert ==");
    let f = lrp_recovery::counterexample::figure1();
    outln!(
        "ARP (adversarial, ARP-rule-legal persist order): {}/{} crash points UNRECOVERABLE",
        f.arp_failures,
        f.arp_points
    );
    outln!(
        "LRP (simulated hardware run):                    0/{} crash points unrecoverable",
        f.lrp_points
    );
    outln!();
}

/// Figure 2 micro-demonstration: cross-epoch writes to one line conflict
/// under the full barrier but coalesce under RP's one-sided barrier.
fn fig2() {
    // One thread alternates: write A (line La), release F (line Lf),
    // write A again — the Figure 2a pattern where WB hits WA's line from
    // a newer epoch.
    let mut b = lrp_model::litmus::LitmusBuilder::new(1);
    for i in 0..64u64 {
        b.write(0, 0x1000, i);
        b.write_rel(0, 0x2000, i);
    }
    let t = b.build();
    outln!("== Figure 2: one-sided barriers eliminate conflicts ==");
    outln!("cross-epoch same-line write micro-loop (64 iterations):");
    for (name, m) in [("BB ", Mechanism::Bb), ("LRP", Mechanism::Lrp)] {
        let s = Sim::new(SimConfig::new(m), &t).run().stats;
        let crit = s.flushes.get(&FlushClass::Critical).copied().unwrap_or(0);
        outln!(
            "  {name}: {crit} critical-path flushes, {} cycles",
            s.cycles
        );
    }
    outln!();
}
