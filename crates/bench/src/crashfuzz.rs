//! Crash-fuzzing the exactly-once serving protocol.
//!
//! Each trial boots one shard, warms it with batches of mixed traffic,
//! kills it at a random persist point with a batch in flight, and then
//! plays the *exactly-once client*: every uncertain mutation is
//! resolved through the shard's recovered slot table — `Done` means the
//! retry is skipped, `NotStarted` means the retry is safe — and the
//! recovered state is audited against every verdict. A trial fails
//! when any of the detectable-operation guarantees breaks:
//!
//! * a **durably-acked** mutation whose stamp (or effect) did not
//!   survive the crash — a lost durably-acked write;
//! * a `Done` verdict contradicted by the recovered durable state — the
//!   stamp over-promised, so skipping the retry would *lose* the op;
//! * a resolution that is not deterministic, or a torn slot record
//!   under a release-ordering discipline — both impossible if stamps
//!   are persist-ordered after the writes they certify.
//!
//! `NotStarted` verdicts are retried; a retry absorbed by set semantics
//! (`applied = false`) is counted, not failed — that is the documented
//! stamp-lost-but-effect-durable window the idempotent retry exists
//! for. Under an unsound discipline (`nop`) the resolver must stay
//! empty: every op resolves `NotStarted` and serving degrades to
//! at-least-once instead of lying about exactly-once.
//!
//! Trials are seeded, so any failure replays exactly; the first few
//! violations per cell are kept verbatim as the counterexample
//! artifact.

use lrp_detect::{ResolvedStatus, SlotKind};
use lrp_exec::Xorshift64;
use lrp_lfds::{KeyDist, Structure};
use lrp_obs::Json;
use lrp_serve::shard::{KvOp, KvResult, Shard, ShardConfig, ShardReq};
use lrp_sim::Mechanism;
use std::collections::BTreeSet;

/// Crash-fuzz campaign parameters.
#[derive(Debug, Clone)]
pub struct CrashFuzzSpec {
    /// Structure every shard serves.
    pub structure: Structure,
    /// Mechanisms fuzzed (one cell per mechanism × distribution).
    pub mechs: Vec<Mechanism>,
    /// Key distributions fuzzed.
    pub dists: Vec<KeyDist>,
    /// Seeded trials per cell.
    pub trials: u64,
    /// Keys are drawn from `[1, key_range]`.
    pub key_range: u64,
    /// Operations per batch (warm batches and the crashed batch).
    pub batch: usize,
    /// Committed batches executed before the crash.
    pub warm_batches: usize,
    /// Master seed; trial `t` of cell `c` derives its own stream.
    pub seed: u64,
}

impl CrashFuzzSpec {
    /// CI preset: 2 mechanisms × 2 distributions × 50 trials = 200
    /// crash-restarts, a few seconds total.
    pub fn full() -> CrashFuzzSpec {
        CrashFuzzSpec {
            structure: Structure::HashMap,
            mechs: vec![Mechanism::Lrp, Mechanism::Sb],
            dists: vec![
                KeyDist::Uniform,
                KeyDist::Zipfian {
                    theta: KeyDist::ZIPFIAN_DEFAULT_THETA,
                },
            ],
            trials: 50,
            key_range: 256,
            batch: 16,
            warm_batches: 3,
            seed: 1,
        }
    }

    /// Smoke preset: same matrix, 5 trials per cell.
    pub fn smoke() -> CrashFuzzSpec {
        CrashFuzzSpec {
            trials: 5,
            ..CrashFuzzSpec::full()
        }
    }
}

/// Accumulated results for one (mechanism × distribution) cell.
#[derive(Debug, Clone, Default)]
pub struct CellReport {
    /// Mechanism name.
    pub mech: String,
    /// Distribution name.
    pub dist: String,
    /// Trials run.
    pub trials: u64,
    /// In-flight mutations across all crashes.
    pub inflight: u64,
    /// Uncertain mutations resolved `Done` (retry skipped).
    pub resolved_done: u64,
    /// Uncertain mutations resolved `NotStarted` (retry performed).
    pub resolved_not_started: u64,
    /// Retries skipped because resolution proved durable execution —
    /// each one a duplicate a blind-retry client would have risked.
    pub duplicates_avoided: u64,
    /// Retries executed after a `NotStarted` verdict.
    pub retried: u64,
    /// Retries absorbed by set semantics (`applied = false`): the
    /// stamp-lost-but-effect-durable window, harmless by design.
    pub retries_absorbed: u64,
    /// Warm durably-acked mutations audited against the resolver.
    pub durable_audited: u64,
    /// Torn slot records observed (must be 0 under sound disciplines).
    pub torn_stamps: u64,
    /// Durably-acked keys the shard itself reported lost.
    pub lost_acked: u64,
    /// Guarantee violations (must be 0 for the campaign to pass).
    pub violations: u64,
    /// First few violations, verbatim, with their trial seeds.
    pub examples: Vec<String>,
}

impl CellReport {
    fn violate(&mut self, seed: u64, msg: String) {
        self.violations += 1;
        if self.examples.len() < 8 {
            self.examples.push(format!("seed {seed}: {msg}"));
        }
    }
}

/// Whole-campaign report.
#[derive(Debug, Clone, Default)]
pub struct FuzzReport {
    /// One entry per (mechanism × distribution) cell.
    pub cells: Vec<CellReport>,
    /// Total trials run.
    pub trials: u64,
    /// Total guarantee violations (0 = pass).
    pub violations: u64,
}

impl FuzzReport {
    /// True when no trial violated an exactly-once guarantee.
    pub fn pass(&self) -> bool {
        self.violations == 0
    }
}

/// Runs the campaign; `progress` fires once per finished cell.
pub fn run_crash_fuzz(spec: &CrashFuzzSpec, mut progress: impl FnMut(&CellReport)) -> FuzzReport {
    let mut report = FuzzReport::default();
    for (ci, &mech) in spec.mechs.iter().enumerate() {
        for (di, &dist) in spec.dists.iter().enumerate() {
            let mut cell = CellReport {
                mech: mech.name().to_string(),
                dist: dist.name().to_string(),
                ..CellReport::default()
            };
            for t in 0..spec.trials {
                let seed = spec
                    .seed
                    .wrapping_add(((ci as u64 * 31 + di as u64) << 32) | t)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    | 1;
                run_trial(spec, mech, dist, seed, &mut cell);
                cell.trials += 1;
            }
            report.trials += cell.trials;
            report.violations += cell.violations;
            progress(&cell);
            report.cells.push(cell);
        }
    }
    report
}

/// Draws `n` *distinct* keys so verdict-vs-state audits are free of
/// same-key ordering ambiguity inside the crashed batch.
fn distinct_keys(
    sampler: &lrp_lfds::KeySampler,
    rng: &mut Xorshift64,
    n: usize,
    range: u64,
) -> Vec<u64> {
    let mut keys = BTreeSet::new();
    let mut spins = 0u64;
    while keys.len() < n && spins < 10_000 {
        keys.insert(sampler.draw(rng));
        spins += 1;
    }
    let mut fill = 1;
    while keys.len() < n {
        // Pathologically skewed draw: top up deterministically.
        keys.insert(fill % range.max(1) + 1);
        fill += 1;
    }
    keys.into_iter().collect()
}

fn run_trial(
    spec: &CrashFuzzSpec,
    mech: Mechanism,
    dist: KeyDist,
    seed: u64,
    cell: &mut CellReport,
) {
    let mut cfg = ShardConfig::new(spec.structure);
    cfg.mechanism = mech;
    cfg.initial_size = 32;
    cfg.key_range = spec.key_range;
    cfg.seed = seed;
    let mut shard = Shard::new(cfg);
    let mut rng = Xorshift64::new(seed ^ 0xF0_22ED);
    let sampler = dist.sampler(spec.key_range);
    let sound = mech.discipline().guarantees_dl();

    // Warm traffic: committed batches whose durable acks we must still
    // be able to account for after the crash. Each batch gets its own
    // client row so no slot is recycled — the exactly-once guarantee
    // only covers a client's last `ring` requests, and auditing a
    // legitimately recycled slot would be a false violation.
    let mut durable_acked: Vec<(ShardReq, KvResult)> = Vec::new();
    for b in 0..spec.warm_batches {
        let mut seq = 0u64;
        let ops: Vec<ShardReq> = (0..spec.batch)
            .map(|_| {
                let key = sampler.draw(&mut rng);
                let op = match rng.below(4) {
                    0 | 1 => KvOp::Put(key),
                    2 => KvOp::Del(key),
                    _ => KvOp::Get(key),
                };
                seq += 1;
                ShardReq::new(op, ((10 + b as u64) << 48) | seq)
            })
            .collect();
        let results = shard.execute(&ops);
        for (req, r) in ops.iter().zip(&results) {
            if req.op.is_mutation() && r.durable {
                durable_acked.push((*req, *r));
            }
        }
    }

    // The crashed batch: distinct keys, mutation-heavy.
    let keys = distinct_keys(&sampler, &mut rng, spec.batch, spec.key_range);
    let inflight: Vec<ShardReq> = keys
        .iter()
        .enumerate()
        .map(|(i, &key)| {
            let op = if rng.below(3) == 0 {
                KvOp::Del(key)
            } else {
                KvOp::Put(key)
            };
            ShardReq::new(op, (2 << 48) | i as u64)
        })
        .collect();
    let pre_crash = shard.committed().clone();
    let pre_unsettled = shard.unsettled().clone();
    let outcome = shard.crash(&inflight);
    cell.inflight += inflight.iter().filter(|r| r.op.is_mutation()).count() as u64;
    cell.torn_stamps += outcome.torn_stamps;
    cell.lost_acked += outcome.lost_acked.len() as u64;

    if sound {
        if !outcome.consistent {
            cell.violate(seed, format!("inconsistent restart under {}", cell.mech));
        }
        if outcome.torn_stamps != 0 {
            cell.violate(
                seed,
                format!("{} torn stamps under {}", outcome.torn_stamps, cell.mech),
            );
        }
        if !outcome.lost_acked.is_empty() {
            cell.violate(
                seed,
                format!("lost durably-acked keys {:?}", outcome.lost_acked),
            );
        }
        // Guarantee 1: every durably-acked warm mutation resolves
        // `Done` with exactly its recorded outcome.
        for (req, r) in &durable_acked {
            cell.durable_audited += 1;
            match shard.resolve(req.rid) {
                ResolvedStatus::Done { applied, key, .. } => {
                    if applied != r.applied || key != req.op.key() {
                        cell.violate(
                            seed,
                            format!(
                                "stamp for rid {:#x} replayed ({applied},{key}), acked ({},{})",
                                req.rid,
                                r.applied,
                                req.op.key()
                            ),
                        );
                    }
                }
                ResolvedStatus::NotStarted => cell.violate(
                    seed,
                    format!(
                        "durably-acked rid {:#x} (key {}) lost its stamp",
                        req.rid,
                        req.op.key()
                    ),
                ),
            }
        }
    } else {
        // Unsound discipline: the resolver must refuse to claim Done.
        for (req, _) in &durable_acked {
            if shard.resolve(req.rid).is_done() {
                cell.violate(
                    seed,
                    format!("unsound {} resolved rid {:#x} Done", cell.mech, req.rid),
                );
            }
        }
    }

    // Guarantee 2: every uncertain op resolves deterministically, and
    // `Done` verdicts agree with the recovered durable state.
    let mut retry: Vec<ShardReq> = Vec::new();
    for (i, req) in inflight.iter().enumerate() {
        let verdict = shard.resolve(req.rid);
        if verdict != shard.resolve(req.rid) {
            cell.violate(seed, format!("nondeterministic verdict for {:#x}", req.rid));
        }
        if !req.op.is_mutation() {
            continue;
        }
        match verdict {
            ResolvedStatus::Done {
                kind, applied, key, ..
            } => {
                cell.resolved_done += 1;
                cell.duplicates_avoided += 1;
                if key != req.op.key() {
                    cell.violate(
                        seed,
                        format!("stamp key {key} != request key {}", req.op.key()),
                    );
                    continue;
                }
                let present = shard.committed().contains(&key);
                let was = pre_crash.contains(&key);
                // Keys are distinct within the batch, so the recovered
                // presence of this key is decided by this op alone —
                // except that an unapplied op pins nothing on a key
                // whose removal was pending before the crash: any
                // in-flight op may have finished that splice.
                let expect = match (kind, applied) {
                    (SlotKind::Put, true) => Some(true),
                    (SlotKind::Del, true) => Some(false),
                    (_, false) if pre_unsettled.contains(&key) => None,
                    (_, false) => Some(was),
                };
                if expect.is_some_and(|e| present != e) {
                    cell.violate(
                        seed,
                        format!(
                            "Done({:?},{applied}) for key {key} but recovered present={present}",
                            kind
                        ),
                    );
                }
            }
            ResolvedStatus::NotStarted => {
                cell.resolved_not_started += 1;
                retry.push(ShardReq::new(req.op, (3 << 48) | i as u64));
            }
        }
    }

    // The exactly-once client retries only `NotStarted` ops; set
    // semantics make those retries idempotent even when the effect
    // persisted without its stamp.
    if !retry.is_empty() {
        let results = shard.execute(&retry);
        cell.retried += retry.len() as u64;
        for (req, r) in retry.iter().zip(&results) {
            if !r.applied {
                cell.retries_absorbed += 1;
            }
            // Guarantee 3: a durably-acked retry's effect is in the
            // committed durable state.
            if r.durable {
                let present = shard.committed().contains(&req.op.key());
                let want = matches!(req.op, KvOp::Put(_));
                if present != want {
                    cell.violate(
                        seed,
                        format!(
                            "retried {:?} durably acked but recovered present={present}",
                            req.op
                        ),
                    );
                }
            }
        }
    }
}

/// The campaign report as a `BENCH`-style JSON document.
pub fn report_json(spec: &CrashFuzzSpec, report: &FuzzReport) -> Json {
    let cells = report
        .cells
        .iter()
        .map(|c| {
            Json::obj([
                ("mech", Json::Str(c.mech.clone())),
                ("dist", Json::Str(c.dist.clone())),
                ("trials", Json::U64(c.trials)),
                ("inflight_mutations", Json::U64(c.inflight)),
                ("resolved_done", Json::U64(c.resolved_done)),
                ("resolved_not_started", Json::U64(c.resolved_not_started)),
                ("duplicates_avoided", Json::U64(c.duplicates_avoided)),
                ("retried", Json::U64(c.retried)),
                ("retries_absorbed", Json::U64(c.retries_absorbed)),
                ("durable_audited", Json::U64(c.durable_audited)),
                ("torn_stamps", Json::U64(c.torn_stamps)),
                ("lost_acked", Json::U64(c.lost_acked)),
                ("violations", Json::U64(c.violations)),
                (
                    "examples",
                    Json::Arr(c.examples.iter().map(|e| Json::Str(e.clone())).collect()),
                ),
            ])
        })
        .collect();
    Json::obj([
        ("record", Json::Str("crash-fuzz".into())),
        ("structure", Json::Str(spec.structure.name().into())),
        ("key_range", Json::U64(spec.key_range)),
        ("batch", Json::U64(spec.batch as u64)),
        ("warm_batches", Json::U64(spec.warm_batches as u64)),
        ("seed", Json::U64(spec.seed)),
        ("trials", Json::U64(report.trials)),
        ("violations", Json::U64(report.violations)),
        ("pass", Json::Bool(report.pass())),
        ("cells", Json::Arr(cells)),
    ])
}

/// Text table for the terminal.
pub fn render_report(report: &FuzzReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "crash-fuzz: {} trials, {} violations\n",
        report.trials, report.violations
    ));
    out.push_str(&format!(
        "  {:<6} {:<8} {:>6} {:>9} {:>6} {:>6} {:>8} {:>8} {:>5} {:>5}\n",
        "mech",
        "dist",
        "trials",
        "inflight",
        "done",
        "notst",
        "retried",
        "absorbed",
        "torn",
        "viol"
    ));
    for c in &report.cells {
        out.push_str(&format!(
            "  {:<6} {:<8} {:>6} {:>9} {:>6} {:>6} {:>8} {:>8} {:>5} {:>5}\n",
            c.mech,
            c.dist,
            c.trials,
            c.inflight,
            c.resolved_done,
            c.resolved_not_started,
            c.retried,
            c.retries_absorbed,
            c.torn_stamps,
            c.violations
        ));
    }
    for c in &report.cells {
        for e in &c.examples {
            out.push_str(&format!("  VIOLATION [{}/{}] {}\n", c.mech, c.dist, e));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_campaign_passes_with_zero_violations() {
        let spec = CrashFuzzSpec::smoke();
        let report = run_crash_fuzz(&spec, |_| {});
        assert_eq!(report.trials, 20, "2 mechs x 2 dists x 5 trials");
        assert!(
            report.pass(),
            "violations: {:?}",
            report
                .cells
                .iter()
                .flat_map(|c| c.examples.clone())
                .collect::<Vec<_>>()
        );
        // The campaign actually exercised the protocol: crashes left
        // ops uncertain and some resolved Done.
        let done: u64 = report.cells.iter().map(|c| c.resolved_done).sum();
        let not_started: u64 = report.cells.iter().map(|c| c.resolved_not_started).sum();
        assert!(done + not_started > 0, "no uncertain op was resolved");
    }

    #[test]
    fn nop_cell_degrades_to_at_least_once_without_violations() {
        let spec = CrashFuzzSpec {
            mechs: vec![Mechanism::Nop],
            dists: vec![KeyDist::Uniform],
            trials: 3,
            ..CrashFuzzSpec::smoke()
        };
        let report = run_crash_fuzz(&spec, |_| {});
        assert!(report.pass(), "nop must degrade gracefully, not violate");
        let c = &report.cells[0];
        assert_eq!(c.resolved_done, 0, "unsound discipline never claims Done");
        assert_eq!(c.retried, c.resolved_not_started);
    }

    /// LRP BST trials whose crashed batch finishes a removal that was
    /// pending before the crash: the key leaves the recovered set, but
    /// no durable ack promised it present. In the uniform trial the
    /// shard's `lost_acked` counted it; in the zipfian one an unapplied
    /// `Done` delete was audited against the pre-crash presence.
    #[test]
    fn bst_pending_removal_finished_by_the_crashed_batch_is_no_violation() {
        let spec = CrashFuzzSpec {
            structure: Structure::Bst,
            ..CrashFuzzSpec::full()
        };
        let zipfian = KeyDist::Zipfian {
            theta: KeyDist::ZIPFIAN_DEFAULT_THETA,
        };
        for (dist, seed) in [
            (KeyDist::Uniform, 4354685564936845355),
            (zipfian, 15190307461153776787),
        ] {
            let mut cell = CellReport::default();
            run_trial(&spec, Mechanism::Lrp, dist, seed, &mut cell);
            assert_eq!(cell.violations, 0, "{seed}: {:?}", cell.examples);
            assert_eq!(cell.lost_acked, 0, "{seed}");
        }
    }

    #[test]
    fn campaign_is_deterministic_in_the_seed() {
        let spec = CrashFuzzSpec {
            trials: 2,
            ..CrashFuzzSpec::smoke()
        };
        let a = run_crash_fuzz(&spec, |_| {});
        let b = run_crash_fuzz(&spec, |_| {});
        let key = |r: &FuzzReport| {
            r.cells
                .iter()
                .map(|c| (c.resolved_done, c.resolved_not_started, c.retried))
                .collect::<Vec<_>>()
        };
        assert_eq!(key(&a), key(&b));
    }
}
