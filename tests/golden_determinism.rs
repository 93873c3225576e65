//! Golden determinism suite — the hot-path refactor's safety net.
//!
//! Every cell of (five LFDs) × {nop, sb, bb, lrp} replays a seeded
//! workload through the full timing simulator and renders a canonical
//! snapshot of everything the machine produces: `Stats` (stable field
//! order), the per-event persist-stamp vector, and the complete
//! `persist_log` in completion order. The snapshots are committed as
//! fixtures under `tests/golden/` and must match **byte-for-byte**, so
//! any change to event ordering, coherence timing, or persist planning
//! is caught immediately.
//!
//! To regenerate after a *deliberate* behavior change:
//!
//! ```sh
//! GOLDEN_UPDATE=1 cargo test --test golden_determinism
//! ```

use lrp_repro::lfds::{Structure, WorkloadSpec};
use lrp_repro::model::codec;
use lrp_repro::sim::{Mechanism, Sim, SimConfig};
use std::fmt::Write as _;
use std::path::PathBuf;

/// Workload shape shared by every golden cell: small enough that the
/// fixtures stay reviewable, large enough to exercise evictions,
/// downgrades, RET churn, and multi-stage engine runs.
fn golden_trace(structure: Structure) -> lrp_repro::model::Trace {
    WorkloadSpec::new(structure)
        .initial_size(24)
        .threads(3)
        .ops_per_thread(12)
        .seed(7)
        .build_trace()
}

/// Canonical snapshot text for one (structure, mechanism) cell.
fn render(structure: Structure, mech: Mechanism) -> String {
    let trace = golden_trace(structure);
    let r = Sim::new(SimConfig::new(mech), &trace).run();
    let s = &r.stats;
    let mut out = String::new();
    writeln!(out, "golden {}/{}", structure.name(), mech.name()).unwrap();
    writeln!(
        out,
        "stats cycles={} ops={} load_hits={} load_misses={} stores={} \
         downgrades={} evictions={} covered_writes={} noc_messages={} \
         nvm_requests={} engine_runs={}",
        s.cycles,
        s.ops,
        s.load_hits,
        s.load_misses,
        s.stores,
        s.downgrades,
        s.evictions,
        s.covered_writes,
        s.noc_messages,
        s.nvm_requests,
        s.engine_runs
    )
    .unwrap();
    for (class, n) in s.flushes_by_class() {
        writeln!(out, "flushes {}={}", class.name(), n).unwrap();
    }
    for (cause, n) in s.stalls_by_cause() {
        writeln!(out, "stalls {}={}", cause.name(), n).unwrap();
    }
    let mut stamps = String::new();
    for ev in 0..trace.events.len() {
        if let Some(st) = r.schedule.stamp(ev as u32) {
            write!(stamps, " {ev}:{st}").unwrap();
        }
    }
    writeln!(out, "stamps{stamps}").unwrap();
    for p in &r.persist_log {
        let mut cov = String::new();
        for &e in &p.covered {
            write!(cov, " {e}").unwrap();
        }
        writeln!(
            out,
            "persist stamp={} time={} line={:#x} covered={}",
            p.stamp,
            p.time,
            p.line,
            cov.trim_start()
        )
        .unwrap();
    }
    out
}

/// A scaled sample of the paper tier's shape — a large pre-populated
/// structure, a high simulated core count, few ops per thread — small
/// enough to commit, big enough that the wide-mesh scheduling and
/// eviction behavior the paper tier exercises is pinned byte-for-byte.
fn paper_shaped_trace(structure: Structure) -> lrp_repro::model::Trace {
    WorkloadSpec::new(structure)
        .initial_size(4096)
        .threads(16)
        .ops_per_thread(8)
        .seed(7)
        .build_trace()
}

/// Canonical snapshot for one paper-shaped cell: `Stats` plus the
/// persist-stamp vector (the full persist log at this scale would
/// swamp review; stamps already pin persist planning per event).
fn render_paper(structure: Structure, mech: Mechanism) -> String {
    let trace = paper_shaped_trace(structure);
    let r = Sim::new(SimConfig::new(mech), &trace).run();
    let s = &r.stats;
    let mut out = String::new();
    writeln!(out, "golden-paper {}/{}", structure.name(), mech.name()).unwrap();
    writeln!(
        out,
        "stats cycles={} ops={} load_hits={} load_misses={} stores={} \
         downgrades={} evictions={} covered_writes={} noc_messages={} \
         nvm_requests={} engine_runs={}",
        s.cycles,
        s.ops,
        s.load_hits,
        s.load_misses,
        s.stores,
        s.downgrades,
        s.evictions,
        s.covered_writes,
        s.noc_messages,
        s.nvm_requests,
        s.engine_runs
    )
    .unwrap();
    let mut stamps = String::new();
    for ev in 0..trace.events.len() {
        if let Some(st) = r.schedule.stamp(ev as u32) {
            write!(stamps, " {ev}:{st}").unwrap();
        }
    }
    writeln!(out, "stamps{stamps}").unwrap();
    out
}

fn fixture_path(structure: Structure, mech: Mechanism) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{}_{}.txt", structure.name(), mech.name()))
}

#[test]
fn golden_fixtures_match_byte_for_byte() {
    let update = std::env::var_os("GOLDEN_UPDATE").is_some();
    let mut failures = Vec::new();
    for structure in Structure::ALL {
        for mech in Mechanism::ALL {
            let got = render(structure, mech);
            let path = fixture_path(structure, mech);
            if update {
                std::fs::create_dir_all(path.parent().unwrap()).unwrap();
                std::fs::write(&path, &got).unwrap();
                continue;
            }
            let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                panic!(
                    "missing fixture {} ({e}); run with GOLDEN_UPDATE=1 to create",
                    path.display()
                )
            });
            if got != want {
                failures.push(format!(
                    "{}/{}: snapshot diverged from {} (set GOLDEN_UPDATE=1 only for deliberate behavior changes)",
                    structure.name(),
                    mech.name(),
                    path.display()
                ));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn golden_paper_shaped_fixtures_match_byte_for_byte() {
    let update = std::env::var_os("GOLDEN_UPDATE").is_some();
    let mut failures = Vec::new();
    for mech in [Mechanism::Lrp, Mechanism::Sb] {
        let structure = Structure::HashMap;
        let got = render_paper(structure, mech);
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden")
            .join(format!("paper_{}_{}.txt", structure.name(), mech.name()));
        if update {
            std::fs::write(&path, &got).unwrap();
            continue;
        }
        let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing fixture {} ({e}); run with GOLDEN_UPDATE=1 to create",
                path.display()
            )
        });
        if got != want {
            failures.push(format!(
                "paper-shaped {}/{}: snapshot diverged from {}",
                structure.name(),
                mech.name(),
                path.display()
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// The paper tier runs 64 simulated cores, but the fixtures above stop
/// at 16 threads. This pins the executor's 64-thread interleaving
/// itself: the trace's event count, plus the length and FNV-1a hash of
/// its canonical text (`codec::to_text`), which covers every event,
/// marker, site label and the initial image.
fn render_trace64() -> String {
    let trace = WorkloadSpec::new(Structure::Bst)
        .initial_size(4096)
        .threads(64)
        .ops_per_thread(8)
        .seed(7)
        .build_trace();
    let text = codec::to_text(&trace);
    let hash = text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    format!(
        "trace64 bstree threads=64 events={} text_bytes={} fnv1a64={hash:#018x}\n",
        trace.events.len(),
        text.len()
    )
}

#[test]
fn golden_trace64_interleaving_matches() {
    let got = render_trace64();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/trace64_bstree.txt");
    if std::env::var_os("GOLDEN_UPDATE").is_some() {
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); run with GOLDEN_UPDATE=1 to create",
            path.display()
        )
    });
    assert_eq!(
        got,
        want,
        "64-thread trace diverged from {}",
        path.display()
    );
}

/// The same cell rendered twice in-process is bit-identical: the
/// simulator has no hidden global state or iteration-order dependence.
#[test]
fn golden_rendering_is_deterministic_in_process() {
    for structure in [Structure::Queue, Structure::HashMap] {
        let a = render(structure, Mechanism::Lrp);
        let b = render(structure, Mechanism::Lrp);
        assert_eq!(a, b, "{} lrp rendering not deterministic", structure.name());
    }
}
