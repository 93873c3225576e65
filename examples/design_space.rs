//! Design-space exploration: sweep the LRP hardware parameters the
//! paper fixes (RET capacity, persist-engine scan cost, engine ordering),
//! BB's proactive flushing, and the extra persist-buffer baseline, on
//! one workload, in simulated cycles.
//!
//! Run with: `cargo run --release --example design_space`

use lrp_repro::lfds::{Structure, WorkloadSpec};
use lrp_repro::model::spec::check_rp;
use lrp_repro::sim::{Mechanism, Sim, SimConfig};

fn main() {
    let trace = WorkloadSpec::new(Structure::SkipList)
        .initial_size(256)
        .threads(8)
        .ops_per_thread(40)
        .seed(21)
        .build_trace();
    println!(
        "workload: skiplist, {} events, 8 threads\n",
        trace.events.len()
    );

    println!("-- RET capacity sweep (design choice D3) --");
    println!("{:>8} {:>10} {:>9}", "entries", "cycles", "flushes");
    for ret in [2usize, 4, 8, 16, 32, 64] {
        let mut cfg = SimConfig::new(Mechanism::Lrp);
        cfg.lrp.ret_capacity = ret;
        cfg.lrp.ret_watermark = ret.saturating_sub(4).max(1);
        let r = Sim::new(cfg, &trace).run();
        check_rp(&trace, &r.schedule).expect("RP holds at every size");
        println!(
            "{ret:>8} {:>10} {:>9}",
            r.stats.cycles,
            r.stats.total_flushes()
        );
    }

    println!("\n-- persist-engine scan cost --");
    println!("{:>8} {:>10}", "cycles", "exec time");
    for scan in [0u64, 8, 16, 32, 64, 128] {
        let mut cfg = SimConfig::new(Mechanism::Lrp);
        cfg.lrp.scan_cycles = scan;
        let r = Sim::new(cfg, &trace).run();
        println!("{scan:>8} {:>10}", r.stats.cycles);
    }

    println!("\n-- engine ordering (design choice D2) --");
    for (name, strict) in [
        ("writes-first (paper)", false),
        ("strict epoch order", true),
    ] {
        let mut cfg = SimConfig::new(Mechanism::Lrp);
        cfg.lrp.strict_epoch_engine = strict;
        let r = Sim::new(cfg, &trace).run();
        println!("{name:<22} {:>10} cycles", r.stats.cycles);
    }

    println!("\n-- BB proactive flushing --");
    for (name, proactive) in [("on (default)", true), ("off", false)] {
        let mut cfg = SimConfig::new(Mechanism::Bb);
        cfg.bb.proactive_flush = proactive;
        let r = Sim::new(cfg, &trace).run();
        check_rp(&trace, &r.schedule).expect("RP holds either way");
        println!(
            "{name:<22} {:>10} cycles, {:>6} flushes, {:>5.1}% critical",
            r.stats.cycles,
            r.stats.total_flushes(),
            100.0 * r.stats.critical_writeback_fraction()
        );
    }

    println!("\n-- implementation school (cache-based vs persist buffer) --");
    for m in [Mechanism::Lrp, Mechanism::Bb, Mechanism::Dpo] {
        let r = Sim::new(SimConfig::new(m), &trace).run();
        check_rp(&trace, &r.schedule).expect("RP holds");
        println!(
            "{:<6} {:>10} cycles, {:>6} flushes, {:>5.2} writes/flush",
            m.name(),
            r.stats.cycles,
            r.stats.total_flushes(),
            r.stats.coalescing()
        );
    }
}
