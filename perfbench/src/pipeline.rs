//! The two simulator workloads: `paper-bstree` (the whole paper-scale
//! cell pipeline) and `replay-hashmap` (bare replays of one trace).
//!
//! In a traced run, repeated units (pipelines, trace builds, replay
//! passes) alternate untraced and traced, so the end-to-end numbers come
//! from the untraced units, the per-layer numbers from the traced ones,
//! and their difference is the tracing overhead.

use crate::catalog::MECHS;
use crate::host::{at_ref_speed, Laps, RefKernel, REF_MS};
use crate::spans::Tracer;
use crate::stats::{mean, median};
use crate::verdict::{outcome_repeats, pass_repeats, replays_agree, Ledger};
use crate::{peak_rss_mb, Outcome, RunCfg};
use lrp_lfds::{Structure, WorkloadSpec};
use lrp_model::spec::{check_rp, PersistSchedule, Violation};
use lrp_model::Trace;
use lrp_obs::RecorderConfig;
use lrp_recovery::{check_null_recovery, CrashPlan};
use lrp_sim::{Mechanism, NvmMode, Sim, SimConfig, Stats};
use std::collections::BTreeMap;
use std::time::Instant;

/// Trace builds per `paper-bstree` run (median reported as `setup_s`).
const BSTREE_SETUPS: usize = 2;

/// Trace builds per `replay-hashmap` run (median reported as `setup_s`).
const REPLAY_SETUPS: usize = 5;

/// Crash points the paper tier samples per audited schedule.
const AUDIT_SAMPLES: usize = 4;

/// The paper's §6 default shape (64K entries, 64 cores × 64 ops, 100%
/// updates), or a scaled-down one for the benchmark's own tests.
fn shape(structure: Structure, cfg: &RunCfg) -> WorkloadSpec {
    let (initial, threads, ops) = if cfg.small {
        (256, 4, 16)
    } else {
        (64 * 1024, 64, 64)
    };
    WorkloadSpec::new(structure)
        .initial_size(initial)
        .threads(threads)
        .ops_per_thread(ops)
        .seed(cfg.seed)
}

fn mechanism(name: &str) -> Mechanism {
    Mechanism::from_name(name).expect("catalogue mechanism")
}

/// Whether the `i`-th repeated unit runs traced.
fn traced_turn(cfg: &RunCfg, i: usize) -> bool {
    cfg.trace && i % 2 == 1
}

/// Whether to start another repeated unit: at least one per side, then
/// until the budget is spent, skipping a unit that would overrun it by
/// more than half a unit.
fn another(cfg: &RunCfg, started: Instant, untraced: &Side, traced: &Side) -> bool {
    if untraced.unit_ms.is_empty() || (cfg.trace && traced.unit_ms.is_empty()) {
        return true;
    }
    let elapsed = started.elapsed().as_secs_f64();
    let per_unit = elapsed / (untraced.unit_ms.len() + traced.unit_ms.len()) as f64;
    elapsed + per_unit / 2.0 < cfg.seconds
}

/// Samples of one side (untraced or traced) of a run.
#[derive(Default)]
struct Side {
    /// Each set-up at reference speed.
    setup_s: Vec<f64>,
    /// Wall time of each set-up.
    setup_raw_s: Vec<f64>,
    /// Wall time of each timed unit.
    unit_ms: Vec<f64>,
    /// The reference kernel's time right after each unit.
    ref_ms: Vec<f64>,
    /// Each unit at reference speed.
    scaled_ms: Vec<f64>,
    peak_mb: f64,
}

impl Side {
    /// Records one timed unit.
    fn unit(&mut self, laps: &Laps) {
        self.unit_ms.push(laps.wall_ms);
        self.ref_ms.push(median(&laps.ref_ms));
        self.scaled_ms.push(laps.scaled_ms);
        self.peak_mb = peak_rss_mb();
    }

    /// The end-to-end figures of this side; `latency` condenses the
    /// units at reference speed (median or mean).
    fn e2e(&self, latency: fn(&[f64]) -> f64) -> BTreeMap<&'static str, f64> {
        BTreeMap::from([
            ("setup_s", median(&self.setup_s)),
            ("latency_ms", latency(&self.scaled_ms)),
        ])
    }

    /// Reports the set-up samples.
    fn setup_line(&self, out: &mut Outcome) {
        out.line(format!(
            "setup_s = {:.4} s at reference speed (trace build, median of {:.3?} s; wall median {:.4} s of {:.3?} s)",
            median(&self.setup_s),
            self.setup_s,
            median(&self.setup_raw_s),
            self.setup_raw_s
        ));
    }

    /// The host figures of this side: median kernel time and the
    /// unscaled latency; and the run's peak memory.
    fn host(&self, out: &mut Outcome, latency: fn(&[f64]) -> f64) {
        out.set("peak_rss_mb", self.peak_mb);
        out.set("host.ref_ms", median(&self.ref_ms));
        out.set("host.latency_raw_ms", latency(&self.unit_ms));
    }
}

/// Builds `spec`'s trace `n` times, at least once per side, alternating
/// untraced and traced builds in a traced run, and records each build's
/// time, wall and at reference speed (the kernel runs after each
/// build), as a set-up sample. Every build of one seed yields the same
/// trace; the first is returned.
fn build_setups(
    spec: &WorkloadSpec,
    cfg: &RunCfg,
    n: usize,
    kernel: &RefKernel,
    out: &mut Outcome,
    (untraced, traced): (&mut Side, &mut Side),
) -> Trace {
    let mut trace = None;
    for i in 0..n.max(if cfg.trace { 2 } else { 1 }) {
        let on = traced_turn(cfg, i);
        out.tracer.set_on(on);
        out.tracer.set_run(i as u32);
        let t = Instant::now();
        let built = out
            .tracer
            .scope("exec.build_trace", "", || spec.build_trace());
        let secs = t.elapsed().as_secs_f64();
        let side = if on { &mut *traced } else { &mut *untraced };
        side.setup_raw_s.push(secs);
        side.setup_s
            .push(at_ref_speed(secs * 1e3, kernel.time_ms()) / 1e3);
        trace.get_or_insert(built);
    }
    trace.expect("at least one set-up")
}

fn sim_counters(out: &mut Outcome, m: &str, stats: &Stats) {
    out.set(format!("sim.cycles.{m}"), stats.cycles as f64);
    let per_k = if stats.cycles > 0 {
        stats.ops as f64 * 1000.0 / stats.cycles as f64
    } else {
        0.0
    };
    out.set(format!("sim.ops_per_kcycle.{m}"), per_k);
    out.set(format!("sim.flushes.{m}"), stats.total_flushes() as f64);
    out.set(format!("sim.nvm_requests.{m}"), stats.nvm_requests as f64);
    out.set(
        format!("sim.stall_cycles.{m}"),
        stats.stalls.values().sum::<u64>() as f64,
    );
}

fn describe(v: &Violation, sched: &PersistSchedule) -> String {
    let stamp = |e| sched.stamp(e).map_or("none".to_string(), |s| s.to_string());
    format!(
        "{:?}: event {} (stamp {}) must persist before event {} (stamp {})",
        v.rule,
        v.first,
        stamp(v.first),
        v.second,
        stamp(v.second)
    )
}

/// What one `paper-bstree` pipeline produced.
struct Cell<'a> {
    laps: Laps<'a>,
    /// Per mechanism: recorder-replay Stats.
    stats: Vec<Stats>,
    /// Per audited mechanism: RP violations and audit (points, failures).
    violations: Vec<usize>,
    audits: Vec<(usize, usize)>,
    /// Every operation of the pipeline and its outcome.
    ledger: Ledger,
}

/// One pipeline on a built trace: validate → per mechanism, a
/// summaries-only recorder replay, then (SB/BB/LRP) the RP check and the
/// null-recovery audit. After the timed pipeline, a bare replay per
/// mechanism checks that the recorder did not perturb the simulation.
/// The pipeline's stages end after each recorder replay and each audit.
fn bstree_pipeline<'a>(
    trace: &Trace,
    plan: &CrashPlan,
    kernel: &'a RefKernel,
    out: &mut Outcome,
) -> Cell<'a> {
    out.tracer.begin("bench.pipeline", "");
    let mut ledger = Ledger::default();
    let mut laps = Laps::start(kernel);
    let valid = out.tracer.scope("model.validate", "", || trace.validate());
    ledger.op(valid.map_err(|e| format!("paper-bstree: trace invalid: {e:?}")));
    let mut runs = Vec::with_capacity(MECHS.len());
    let mut violations = Vec::new();
    let mut audits = Vec::new();
    let mut rp_lines = Vec::new();
    for m in MECHS {
        let cfg = SimConfig::new(mechanism(m));
        let run = out.tracer.scope("obs.recorder_replay", m, || {
            Sim::new(cfg, trace)
                .with_recorder(RecorderConfig::summaries_only())
                .run()
        });
        laps.lap();
        if m != "nop" {
            let rp = out
                .tracer
                .scope("model.check_rp", m, || check_rp(trace, &run.schedule));
            let found = rp.err().unwrap_or_default();
            violations.push(found.len());
            if found.is_empty() {
                ledger.op(Ok(()));
            } else {
                let listed: Vec<String> =
                    found.iter().map(|v| describe(v, &run.schedule)).collect();
                for l in &listed {
                    rp_lines.push(format!("  rp violation [{m}] {l}"));
                }
                ledger.op(Err(format!(
                    "paper-bstree {m}: check_rp found {} violation(s): {}",
                    found.len(),
                    listed.join("; ")
                )));
            }
            let report = out.tracer.scope("recovery.audit", m, || {
                check_null_recovery(Structure::Bst, trace, &run.schedule, plan)
            });
            laps.lap();
            for _ in report.failures.len()..report.crash_points {
                ledger.op(Ok(()));
            }
            for (stamp, err) in &report.failures {
                ledger.op(Err(format!(
                    "paper-bstree {m}: crash at stamp {stamp:?} not recoverable: {err:?}"
                )));
            }
            audits.push((report.crash_points, report.failures.len()));
        }
        runs.push(run);
    }
    out.tracer.end();

    out.tracer.begin("bench.verify", "");
    for (m, rec) in MECHS.iter().zip(&runs) {
        let bare = out.tracer.scope("sim.replay", m, || {
            Sim::new(SimConfig::new(mechanism(m)), trace).run()
        });
        ledger.check(replays_agree(
            &format!("paper-bstree {m}"),
            (&bare.stats, &bare.schedule),
            (&rec.stats, &rec.schedule),
        ));
    }
    out.tracer.end();
    out.lines.retain(|l| !l.starts_with("  rp violation"));
    out.lines.extend(rp_lines);
    Cell {
        laps,
        stats: runs.into_iter().map(|r| r.stats).collect(),
        violations,
        audits,
        ledger,
    }
}

/// `paper-bstree`: the paper-scale cell a figure waits on. Set-up
/// builds the trace (`exec`); the timed region runs the rest of the
/// cell's pipeline on it, again and again.
pub fn paper_bstree(cfg: &RunCfg) -> Outcome {
    let spec = shape(Structure::Bst, cfg);
    let plan = CrashPlan::Random {
        samples: AUDIT_SAMPLES,
        seed: cfg.seed,
    };
    let mut out = Outcome::new(Tracer::new(false, Instant::now()));
    let (mut untraced, mut traced) = (Side::default(), Side::default());
    let kernel = RefKernel::new();
    let trace = build_setups(
        &spec,
        cfg,
        BSTREE_SETUPS,
        &kernel,
        &mut out,
        (&mut untraced, &mut traced),
    );
    let events = trace.events.len();
    out.line(format!("sim events per replay = {events} events"));
    // The first pipeline is unmeasured (the first pipelines of a process
    // ran up to 1.5x slower than the later ones) and its operations are
    // the run's: `attempted` and `failed` depend on the seed alone, not
    // on how many pipelines fit the budget. Every timed pipeline must
    // then repeat its outcome (check 2).
    out.tracer.set_on(false);
    let first = bstree_pipeline(&trace, &plan, &kernel, &mut out);
    out.ledger.merge(first.ledger.clone());
    let mut repeats = Ok(());
    let mut last_traced: Option<Cell> = None;
    let started = Instant::now();
    let mut i = 0;
    while another(cfg, started, &untraced, &traced) {
        let on = traced_turn(cfg, i);
        out.tracer.set_on(on);
        out.tracer.set_run((BSTREE_SETUPS + i) as u32);
        let cell = bstree_pipeline(&trace, &plan, &kernel, &mut out);
        if repeats.is_ok() {
            let what = format!("paper-bstree pipeline {}", i + 1);
            repeats = outcome_repeats(&what, &first.ledger, &cell.ledger);
            for (m, (a, b)) in MECHS.iter().zip(first.stats.iter().zip(&cell.stats)) {
                repeats = repeats.and_then(|()| pass_repeats(&format!("{what} {m}"), a, b));
            }
        }
        let side = if on { &mut traced } else { &mut untraced };
        side.unit(&cell.laps);
        if on {
            last_traced = Some(cell);
        }
        i += 1;
    }
    out.ledger.check(repeats);
    out.e2e = untraced.e2e(median);
    out.line(format!(
        "latency_ms = {:.1} ms at reference speed (pipeline after the trace build, median of {} pipelines: {:.3?} s)",
        out.e2e["latency_ms"],
        untraced.unit_ms.len(),
        untraced
            .scaled_ms
            .iter()
            .map(|ms| ms / 1e3)
            .collect::<Vec<_>>()
    ));
    out.line(format!(
        "  wall: median {:.1} ms ({:.3?} s); reference kernel median {:.3} ms (reference speed: {REF_MS} ms)",
        median(&untraced.unit_ms),
        untraced
            .unit_ms
            .iter()
            .map(|ms| ms / 1e3)
            .collect::<Vec<_>>(),
        median(&untraced.ref_ms)
    ));
    untraced.setup_line(&mut out);
    out.line(format!(
        "pipeline_s = {:.4} s (wall set-up + wall latency: the whole cell)",
        median(&untraced.setup_raw_s) + median(&untraced.unit_ms) / 1e3
    ));
    out.line(format!("peak_rss_mb = {:.1} MiB", untraced.peak_mb));
    if let Some(cell) = last_traced {
        bstree_layers(&mut out, &cell, events);
        traced.host(&mut out, median);
        out.finish_traced(&traced.e2e(median));
    }
    out
}

fn median_span(t: &Tracer, name: &str, tag: &str) -> f64 {
    median(&t.durations(name, tag))
}

fn bstree_layers(out: &mut Outcome, cell: &Cell, events: usize) {
    let t = &out.tracer;
    let build_s = median_span(t, "exec.build_trace", "") / 1e3;
    let validate = median_span(t, "model.validate", "");
    let check_rp_ms: f64 = crate::catalog::AUDITED
        .iter()
        .map(|m| median_span(t, "model.check_rp", m))
        .sum();
    let mut rows = Vec::new();
    for m in MECHS {
        let bare = median_span(t, "sim.replay", m);
        let rec = median_span(t, "obs.recorder_replay", m);
        let audit = median_span(t, "recovery.audit", m);
        rows.push((m, bare, rec, audit));
    }
    let events = events as f64;
    out.set("exec.build_trace_s", build_s);
    out.set(
        "exec.events_per_s",
        if build_s > 0.0 { events / build_s } else { 0.0 },
    );
    out.set("model.validate_ms", validate);
    out.set("model.check_rp_ms", check_rp_ms);
    let mut audit_ms = 0.0;
    let mut points = 0usize;
    for (k, (m, bare, rec, audit)) in rows.into_iter().enumerate() {
        out.set(format!("sim.replay_ms.{m}"), bare);
        out.set(format!("sim.host_ns_per_event.{m}"), bare * 1e6 / events);
        sim_counters(out, m, &cell.stats[k]);
        out.set(format!("obs.recorder_ms.{m}"), rec - bare);
        if k > 0 {
            let (pts, fails) = cell.audits[k - 1];
            out.set(
                format!("model.rp_violations.{m}"),
                cell.violations[k - 1] as f64,
            );
            out.set(format!("recovery.audit_ms.{m}"), audit);
            out.set(format!("recovery.crash_points.{m}"), pts as f64);
            out.set(format!("recovery.failures.{m}"), fails as f64);
            audit_ms += audit;
            points += pts;
        }
    }
    out.set(
        "recovery.ms_per_point",
        if points > 0 {
            audit_ms / points as f64
        } else {
            0.0
        },
    );
    let share = out.ledger.fail_share();
    out.set("fail_share", share);
}

/// `replay-hashmap`: bare replays of one uncached-NVM trace under all
/// four mechanisms, pass after pass.
pub fn replay_hashmap(cfg: &RunCfg) -> Outcome {
    let spec = shape(Structure::HashMap, cfg);
    let sim_cfgs: Vec<SimConfig> = MECHS
        .iter()
        .map(|m| SimConfig::new(mechanism(m)).nvm_mode(NvmMode::Uncached))
        .collect();
    let mut out = Outcome::new(Tracer::new(false, Instant::now()));
    let (mut untraced, mut traced) = (Side::default(), Side::default());
    let kernel = RefKernel::new();
    let trace = build_setups(
        &spec,
        cfg,
        REPLAY_SETUPS,
        &kernel,
        &mut out,
        (&mut untraced, &mut traced),
    );
    out.tracer.set_on(cfg.trace);
    let valid = out.tracer.scope("model.validate", "", || trace.validate());
    out.ledger
        .op(valid.map_err(|e| format!("replay-hashmap: trace invalid: {e:?}")));
    let events = trace.events.len();

    // Timed region: four-mechanism passes until the budget is spent.
    let mut first: Vec<Stats> = Vec::new();
    let started = Instant::now();
    let mut i = 0;
    while another(cfg, started, &untraced, &traced) {
        let on = traced_turn(cfg, i);
        out.tracer.set_on(on);
        out.tracer.set_run((REPLAY_SETUPS + i) as u32);
        let mut laps = Laps::start(&kernel);
        let mut pass = Vec::with_capacity(MECHS.len());
        for (m, sc) in MECHS.iter().zip(&sim_cfgs) {
            pass.push(
                out.tracer
                    .scope("sim.replay", m, || Sim::new(sc.clone(), &trace).run().stats),
            );
        }
        laps.lap();
        if first.is_empty() {
            pass.iter().for_each(|_| out.ledger.op(Ok(())));
            first = pass;
        } else {
            for ((m, a), b) in MECHS.iter().zip(&first).zip(&pass) {
                out.ledger
                    .check(pass_repeats(&format!("replay-hashmap {m} pass {i}"), a, b));
            }
        }
        let side = if on { &mut traced } else { &mut untraced };
        side.unit(&laps);
        i += 1;
    }
    out.e2e = untraced.e2e(mean);
    out.line(format!("sim events per replay = {events} events"));
    out.line(format!(
        "latency_ms = {:.3} ms at reference speed (four-mechanism pass, mean of {} passes)",
        out.e2e["latency_ms"],
        untraced.unit_ms.len(),
    ));
    let wall_ms = mean(&untraced.unit_ms);
    out.line(format!(
        "  wall: mean {wall_ms:.3} ms, median {:.3} ms; reference kernel median {:.3} ms (reference speed: {REF_MS} ms)",
        median(&untraced.unit_ms),
        median(&untraced.ref_ms)
    ));
    out.line(format!(
        "replay_events_per_s = {:.1} events/s (wall)",
        (events * MECHS.len()) as f64 / (wall_ms / 1e3)
    ));
    untraced.setup_line(&mut out);
    out.line(format!("peak_rss_mb = {:.1} MiB", untraced.peak_mb));
    if cfg.trace {
        let build_s = median_span(&out.tracer, "exec.build_trace", "") / 1e3;
        out.set("exec.build_trace_s", build_s);
        out.set(
            "exec.events_per_s",
            if build_s > 0.0 {
                events as f64 / build_s
            } else {
                0.0
            },
        );
        let validate = median_span(&out.tracer, "model.validate", "");
        out.set("model.validate_ms", validate);
        for (k, m) in MECHS.iter().enumerate() {
            let bare = median_span(&out.tracer, "sim.replay", m);
            out.set(format!("sim.replay_ms.{m}"), bare);
            out.set(
                format!("sim.host_ns_per_event.{m}"),
                bare * 1e6 / events as f64,
            );
            sim_counters(&mut out, m, &first[k]);
        }
        let share = out.ledger.fail_share();
        out.set("fail_share", share);
        traced.host(&mut out, mean);
        out.finish_traced(&traced.e2e(mean));
    }
    out
}
