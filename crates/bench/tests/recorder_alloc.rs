//! Allocation budget for recorded replays.
//!
//! A summaries-only recorder (what every campaign cell, figure cell and
//! paper-scale pipeline attaches) keeps fixed-size histograms, a
//! bounded blame sketch and per-line maps that stop growing once warm,
//! so recording a replay should allocate little beyond the bare replay
//! of the same trace. This test replays one BST trace under each
//! mechanism twice, bare and recorded, with the counting allocator
//! installed, and bounds the difference per harness op.
//!
//! The cell is the paper's §6 BST shape (65,536 entries, 64 threads ×
//! 64 ops, 4,096 ops, seed 1), which drives the blame sketch through
//! its eviction path (~42,000 evictions under LRP). With the
//! `BTreeMap`/`BTreeSet` sketch, SipHash maps, a `VecDeque` per
//! in-flight flush, a `String` per retired critical-path chain and a
//! fresh `Vec` per mechanism-event drain, a recorded replay allocated
//! 10,439 / 25,107 / 33,042 / 36,447 times more than the bare one
//! (nop / sb / bb / lrp; 2.55 / 6.13 / 8.07 / 8.90 per op). With the
//! indexed-heap sketch and allocation-free hooks the excess is
//! 1,094 / 1,098 / 1,167 / 1,175 (0.27–0.29 per op), nearly all of it
//! fixed set-up and the one rendering of the sketch's keys at
//! `finish`. The budget of 0.5 per op (2,048 for this cell) fails any
//! per-charge or per-hook allocation.

use lrp_bench::alloc_count::{self, CountingAlloc};
use lrp_lfds::{Structure, WorkloadSpec};
use lrp_obs::RecorderConfig;
use lrp_sim::{Mechanism, Sim, SimConfig};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations a recorded replay may make beyond the bare replay, per
/// harness op.
const MAX_EXTRA_ALLOCS_PER_OP: f64 = 0.5;

#[test]
fn recorded_replay_allocates_little_beyond_the_bare_replay() {
    assert!(alloc_count::installed(), "counting allocator not active");
    let spec = WorkloadSpec::new(Structure::Bst)
        .initial_size(65536)
        .threads(64)
        .ops_per_thread(64)
        .seed(1);
    let trace = spec.build_trace();
    let ops = (spec.threads as usize * spec.ops_per_thread) as f64;
    for name in ["nop", "sb", "bb", "lrp"] {
        let cfg = || SimConfig::new(Mechanism::from_name(name).expect("mechanism"));
        let (bare, bare_allocs) = alloc_count::count(|| Sim::new(cfg(), &trace).run());
        let (recorded, recorded_allocs) = alloc_count::count(|| {
            Sim::new(cfg(), &trace)
                .with_recorder(RecorderConfig::summaries_only())
                .run()
        });
        assert_eq!(
            bare.stats, recorded.stats,
            "{name}: the recorder perturbed the run"
        );
        if name == "lrp" {
            let obs = recorded.obs.as_ref().expect("recorded run has a report");
            assert!(
                obs.summary.blame.sketch.evictions() > 10_000,
                "the cell must take the sketch's eviction path"
            );
        }
        let extra = recorded_allocs.saturating_sub(bare_allocs) as f64 / ops;
        eprintln!("{name}: bare {bare_allocs}, recorded {recorded_allocs}, extra/op {extra:.2}");
        assert!(
            extra <= MAX_EXTRA_ALLOCS_PER_OP,
            "{name}: {extra:.2} extra allocs/op over the bare replay exceeds {MAX_EXTRA_ALLOCS_PER_OP}"
        );
    }
}
