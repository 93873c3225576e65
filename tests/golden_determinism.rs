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

use lrp_repro::exec::ctx::{ARENA_BYTES, HEAP_BASE};
use lrp_repro::exec::{body, run, ExecConfig, PmemCtx, SchedPolicy, ThreadBody, Xorshift64};
use lrp_repro::lfds::hashmap::HashMap;
use lrp_repro::lfds::{KeyDist, Structure, WorkloadSpec};
use lrp_repro::model::{codec, OpKind, Trace};
use lrp_repro::serve::shard::{KvOp, Shard, ShardConfig, ShardReq};
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

/// FNV-1a-64 over a string's bytes.
fn fnv1a64(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One pinned line for a trace: its event count, plus the length and
/// FNV-1a hash of its canonical text (`codec::to_text`), which covers
/// every event, marker, site label and the initial image.
fn trace_line(label: &str, trace: &Trace) -> String {
    let text = codec::to_text(trace);
    format!(
        "{label} threads={} events={} text_bytes={} fnv1a64={:#018x}\n",
        trace.nthreads,
        trace.events.len(),
        text.len(),
        fnv1a64(&text)
    )
}

/// Compares `got` with the fixture `name` under `tests/golden/`, or
/// rewrites the fixture when `GOLDEN_UPDATE` is set. Returns a failure
/// message on a mismatch.
fn check_fixture(name: &str, got: &str) -> Option<String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("GOLDEN_UPDATE").is_some() {
        std::fs::write(&path, got).unwrap();
        return None;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); run with GOLDEN_UPDATE=1 to create",
            path.display()
        )
    });
    (got != want).then(|| format!("{name}: diverged from {}", path.display()))
}

/// The paper tier runs 64 simulated cores, but the fixtures above stop
/// at 16 threads. These pin the executor's 64-thread interleaving
/// itself, for every structure.
fn render_trace64(structure: Structure) -> String {
    let trace = WorkloadSpec::new(structure)
        .initial_size(trace64_size(structure))
        .threads(64)
        .ops_per_thread(8)
        .seed(7)
        .build_trace();
    trace_line(&format!("trace64 {}", structure.name()), &trace)
}

/// Pre-populated size of a 64-thread cell: the paper-shaped 4096
/// entries, except the linked list, whose O(n) traversals would make a
/// 4096-entry cell dominate the suite's runtime.
fn trace64_size(structure: Structure) -> usize {
    match structure {
        Structure::LinkedList => 512,
        _ => 4096,
    }
}

#[test]
fn golden_trace64_interleaving_matches() {
    let failures: Vec<String> = Structure::ALL
        .into_iter()
        .filter_map(|s| check_fixture(&format!("trace64_{}.txt", s.name()), &render_trace64(s)))
        .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// A 64-thread zipfian cell with half its operations read-only: the
/// key sampler and the `contains` paths under the wide interleaving.
#[test]
fn golden_trace64_zipfian_read50_matches() {
    let trace = WorkloadSpec::new(Structure::SkipList)
        .initial_size(4096)
        .threads(64)
        .ops_per_thread(8)
        .seed(7)
        .read_pct(50)
        .key_dist(KeyDist::Zipfian {
            theta: KeyDist::ZIPFIAN_DEFAULT_THETA,
        })
        .build_trace();
    let got = trace_line("trace64 skiplist-zipfian-read50", &trace);
    if let Some(f) = check_fixture("trace64_skiplist_zipfian_read50.txt", &got) {
        panic!("{f}");
    }
}

/// The workload generator always schedules randomly; this drives 64
/// hash-map workers under `SchedPolicy::RoundRobin` to pin the
/// round-robin cursor's interleaving.
#[test]
fn golden_trace64_round_robin_matches() {
    let trace = round_robin_hashmap_trace();
    let got = trace_line("trace64 hashmap-roundrobin", &trace);
    if let Some(f) = check_fixture("trace64_hashmap_roundrobin.txt", &got) {
        panic!("{f}");
    }
}

fn round_robin_hashmap_trace() -> Trace {
    const NBUCKETS: u64 = 1024;
    // Setup allocates first from the setup arena (index `threads`), so
    // the bucket array's address is known before the workers start.
    let buckets = HEAP_BASE + 64 * ARENA_BYTES;
    let bodies: Vec<ThreadBody> = (0..64u64)
        .map(|t| {
            body(move |mut c| async move {
                let m = HashMap {
                    buckets,
                    nbuckets: NBUCKETS,
                };
                let mut rng = Xorshift64::new(t + 1);
                for _ in 0..8 {
                    let key = rng.below(2048) + 1;
                    if rng.below(2) == 0 {
                        c.op_begin(OpKind::Insert(key, key));
                        c.site_op("hashmap/insert");
                        let r = m.insert(&mut c, key, key).await;
                        c.op_end(r as u64);
                    } else {
                        c.op_begin(OpKind::Delete(key));
                        c.site_op("hashmap/delete");
                        let r = m.delete(&mut c, key).await;
                        c.op_end(r as u64);
                    }
                }
            })
        })
        .collect();
    let cfg = ExecConfig::new(64).policy(SchedPolicy::RoundRobin).seed(7);
    run(
        &cfg,
        |s| {
            let m = HashMap::new(s, NBUCKETS);
            assert_eq!(m.buckets, buckets);
            let keys: Vec<u64> = (1..=1024).map(|k| 2 * k).collect();
            m.populate(s, &keys);
            s.set_root("buckets", m.buckets);
            s.set_root("nbuckets", m.nbuckets);
        },
        bodies,
    )
}

/// A serving shard's results, durable image and replay trace are a
/// deterministic function of its config and request batches. This pins
/// an LRP shard with four simulated threads per batch: every batch's
/// per-request results and durable image, and the checker replay trace
/// (with its persist schedule) at the end.
fn render_serve(structure: Structure) -> String {
    let mut cfg = ShardConfig::new(structure);
    cfg.sim_threads = 4;
    cfg.seed = 11;
    let mut shard = Shard::new(cfg);
    let mut rng = Xorshift64::new(0x5E_4E);
    let mut next_rid = 0u64;
    let mut batch = |rng: &mut Xorshift64| -> Vec<ShardReq> {
        (0..16)
            .map(|_| {
                let key = rng.below(256) + 1;
                let op = match rng.below(3) {
                    0 => KvOp::Get(key),
                    1 => KvOp::Put(key),
                    _ => KvOp::Del(key),
                };
                next_rid += 1;
                ShardReq::new(op, (1 << 48) | next_rid)
            })
            .collect()
    };
    let mut out = String::new();
    writeln!(out, "serve {}/lrp sim_threads=4", structure.name()).unwrap();
    for b in 0..20 {
        let ops = batch(&mut rng);
        let results = shard.execute(&ops);
        let mut r = String::new();
        for x in &results {
            write!(
                r,
                "{}{}:{}:{} ",
                u8::from(x.applied),
                u8::from(x.durable),
                x.seq,
                x.persist_cycles
            )
            .unwrap();
        }
        let image: String = shard
            .durable_image()
            .as_mem()
            .snapshot()
            .iter()
            .map(|(a, v)| format!("{a:x}={v:x};"))
            .collect();
        writeln!(
            out,
            "batch {b} durable={} results_fnv={:#018x} image_words={} image_fnv={:#018x}",
            results.iter().filter(|x| x.durable).count(),
            fnv1a64(&r),
            shard.durable_image().len(),
            fnv1a64(&image)
        )
        .unwrap();
    }
    let (trace, sched) = shard.replay_for_check(&batch(&mut rng));
    let mut stamps = String::new();
    for ev in 0..trace.events.len() {
        if let Some(st) = sched.stamp(ev as u32) {
            write!(stamps, " {ev}:{st}").unwrap();
        }
    }
    out.push_str(&trace_line("replay", &trace));
    writeln!(out, "replay stamps_fnv={:#018x}", fnv1a64(&stamps)).unwrap();
    out
}

#[test]
fn golden_serve_batches_match() {
    let failures: Vec<String> = Structure::ALL
        .into_iter()
        .filter(|&s| s != Structure::Queue)
        .filter_map(|s| check_fixture(&format!("serve_{}_lrp_t4.txt", s.name()), &render_serve(s)))
        .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
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
