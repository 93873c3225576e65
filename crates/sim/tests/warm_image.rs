//! The initial durable image is the paper's warm state (§6.1): its
//! lines start LLC-resident. The simulator looks that residency up when
//! it first touches a line, so only the lines a replay touches matter.

use lrp_lfds::{Structure, WorkloadSpec};
use lrp_model::{line_of, Trace, LINE_BYTES};
use lrp_sim::{Mechanism, RunResult, Sim, SimConfig};
use std::collections::BTreeSet;

fn workload(structure: Structure) -> Trace {
    WorkloadSpec::new(structure)
        .initial_size(256)
        .threads(4)
        .ops_per_thread(12)
        .seed(5)
        .build_trace()
}

fn run(trace: &Trace, mech: Mechanism) -> RunResult {
    Sim::new(SimConfig::new(mech), trace).run()
}

fn assert_same_run(a: &RunResult, b: &RunResult, what: &str) {
    assert_eq!(a.stats, b.stats, "{what}: stats");
    assert_eq!(a.schedule, b.schedule, "{what}: stamps");
    assert_eq!(a.persist_log, b.persist_log, "{what}: persist log");
}

/// `trace` with one extra image word on every line below, between and
/// above its image lines that no event touches, kept address-sorted.
fn with_untouched_image_lines(trace: &Trace) -> Trace {
    let touched: BTreeSet<u64> = trace.events.iter().map(|e| line_of(e.addr)).collect();
    let image_lines: BTreeSet<u64> = trace.initial_mem.iter().map(|&(a, _)| line_of(a)).collect();
    let lo = *image_lines.first().expect("a pre-populated image");
    let hi = *image_lines.last().unwrap();
    let extra: Vec<(u64, u64)> = (lo.saturating_sub(8)..=hi + 8)
        .filter(|l| !touched.contains(l) && !image_lines.contains(l))
        .map(|l| (l * LINE_BYTES + 8, 0x5EED ^ l))
        .collect();
    assert!(!extra.is_empty());
    let mut t = trace.clone();
    t.initial_mem.extend(extra);
    t.initial_mem.sort_by_key(|&(a, _)| a);
    t.validate()
        .expect("extra words leave the trace well-formed");
    t
}

#[test]
fn image_words_on_untouched_lines_change_nothing() {
    for s in Structure::ALL {
        let trace = workload(s);
        let wider = with_untouched_image_lines(&trace);
        assert!(wider.initial_mem.len() > trace.initial_mem.len());
        for m in Mechanism::ALL {
            assert_same_run(&run(&trace, m), &run(&wider, m), &format!("{s:?}/{m}"));
        }
    }
}

#[test]
fn first_touch_consults_the_image() {
    // Without the image every touched line starts in NVM only, so the
    // first access to it pays an NVM fetch: the warm image is read.
    for s in [Structure::HashMap, Structure::Bst] {
        let trace = workload(s);
        let mut cold = trace.clone();
        cold.initial_mem.clear();
        for m in Mechanism::ALL {
            let (warm, cold) = (run(&trace, m), run(&cold, m));
            assert!(
                cold.stats.cycles > warm.stats.cycles,
                "{s:?}/{m}: cold {} vs warm {} cycles",
                cold.stats.cycles,
                warm.stats.cycles
            );
            assert!(
                cold.stats.nvm_requests > warm.stats.nvm_requests,
                "{s:?}/{m}"
            );
        }
    }
}
