//! Crash-restart: the image-rebuild entry point service shards use.
//!
//! A serving shard that is killed mid-traffic restarts in three steps,
//! all driven from the batch's recorded [`PersistSchedule`]:
//!
//! 1. **sample** a crash point (uniformly over the schedule's distinct
//!    flush stamps, plus the crash-before-anything-persists state),
//! 2. **rebuild** the durable NVM image at that point with
//!    [`crate::crash::nvm_at`] and run the structure's validator on it —
//!    *null recovery*: the image must be usable as-is, and on success
//!    the validator hands back the abstract contents the shard resumes
//!    from,
//! 3. **audit** a wider sample of crash points around the chosen one
//!    with [`crate::check::check_null_recovery`], so the restart verdict
//!    reports whether the whole schedule keeps NVM at consistent cuts
//!    (the paper's §3–§5 claim), not just the one point that happened to
//!    be sampled.

use crate::check::{check_null_recovery, RecoveryReport};
use crate::crash::{nvm_at, CrashPlan};
use lrp_detect::{read_table, table_roots, Resolver, SlotTable};
use lrp_exec::Xorshift64;
use lrp_lfds::{validate_image, MemImage, Recovered, Structure, ValidationError};
use lrp_model::spec::PersistSchedule;
use lrp_model::{Addr, Trace};

/// Everything a shard needs to resume after a simulated crash.
#[derive(Debug, Clone)]
pub struct ShardRestart {
    /// The sampled crash point (`None` = before anything persisted).
    pub crash_stamp: Option<u64>,
    /// The durable NVM image at the crash point.
    pub image: MemImage,
    /// Validator outcome at the crash point: the recovered abstract
    /// contents, or why the image was unusable.
    pub recovered: Result<Recovered, ValidationError>,
    /// Null-recovery audit over `audit_samples` additional crash points.
    pub audit: RecoveryReport,
}

impl ShardRestart {
    /// True when the crash-point image validated *and* the wider audit
    /// found no unrecoverable point.
    pub fn consistent(&self) -> bool {
        self.recovered.is_ok() && self.audit.all_recovered()
    }
}

/// Samples one crash stamp uniformly over `sched`'s distinct flush
/// stamps plus the pre-persist state (`None`). Deterministic in `seed`.
pub fn random_crash_stamp(sched: &PersistSchedule, seed: u64) -> Option<u64> {
    let stamps = sched.distinct_stamps();
    let mut rng = Xorshift64::new(seed ^ 0x5EED_CA5E);
    let pick = rng.below(stamps.len() as u64 + 1);
    if pick == 0 {
        None
    } else {
        Some(stamps[pick as usize - 1])
    }
}

/// Rebuilds the durable image at `stamp` and validates it, returning
/// the full [`ShardRestart`] with an `audit_samples`-point null-recovery
/// audit (seeded by `seed`, so campaigns probe different points).
pub fn crash_restart(
    structure: Structure,
    trace: &Trace,
    sched: &PersistSchedule,
    stamp: Option<u64>,
    audit_samples: usize,
    seed: u64,
) -> ShardRestart {
    let image = nvm_at(trace, sched, stamp);
    let recovered = validate_image(structure, &trace.roots, &image);
    let audit = check_null_recovery(
        structure,
        trace,
        sched,
        &CrashPlan::Random {
            samples: audit_samples.max(1),
            seed,
        },
    );
    ShardRestart {
        crash_stamp: stamp,
        image,
        recovered,
        audit,
    }
}

/// The detectable-operation state rebuilt alongside a crash-restart:
/// the slot table recovered from the crash-cut image plus the
/// [`Resolver`] that answers post-crash `Resolve` requests.
#[derive(Debug, Clone)]
pub struct RestartResolution {
    /// Coherently-recovered slot records (the new committed stamps).
    pub table: SlotTable,
    /// The deterministic rid → verdict map built from them.
    pub resolver: Resolver,
    /// Slots whose stamp word survived but whose record did not decode:
    /// a slot being re-stamped, its old rid over its new payload (any
    /// discipline). Zero under a sound discipline only when no slot was
    /// reused.
    pub torn: u64,
}

/// Rebuilds the detectable-operation resolver from a crash-cut (or
/// commit) image. Returns `None` when the trace registers no slot
/// table; when `sound` is false (the mechanism's discipline does not
/// persist-order release stamps after the writes they certify), the
/// recovered records are reported but the resolver is left empty —
/// every uncertain op resolves `NotStarted` and serving degrades
/// gracefully to at-least-once, which is all such a discipline can
/// honestly promise.
pub fn rebuild_resolution(
    roots: &[(String, Addr)],
    image: &MemImage,
    sound: bool,
) -> Option<RestartResolution> {
    let (base, spec) = table_roots(roots)?;
    let scan = read_table(image, base, spec);
    let resolver = if sound {
        Resolver::from_table(&scan.table)
    } else {
        Resolver::empty()
    };
    Some(RestartResolution {
        table: scan.table,
        resolver,
        torn: scan.torn,
    })
}

/// One-call form: sample a random crash point, then restart at it.
pub fn crash_restart_random(
    structure: Structure,
    trace: &Trace,
    sched: &PersistSchedule,
    audit_samples: usize,
    seed: u64,
) -> ShardRestart {
    let stamp = random_crash_stamp(sched, seed);
    crash_restart(structure, trace, sched, stamp, audit_samples, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrp_lfds::WorkloadSpec;
    use lrp_sim::{Mechanism, Sim, SimConfig};

    fn run(structure: Structure, mech: Mechanism, seed: u64) -> (Trace, PersistSchedule) {
        let t = WorkloadSpec::new(structure)
            .initial_size(24)
            .threads(2)
            .ops_per_thread(10)
            .seed(seed)
            .build_trace();
        let r = Sim::new(SimConfig::new(mech), &t).run();
        (t, r.schedule)
    }

    #[test]
    fn lrp_shard_restart_is_consistent_and_recovers_contents() {
        let (t, sched) = run(Structure::HashMap, Mechanism::Lrp, 3);
        for seed in 0..4 {
            let r = crash_restart_random(Structure::HashMap, &t, &sched, 8, seed);
            assert!(r.consistent(), "seed {seed}: {:?}", r.recovered);
            let rec = r.recovered.as_ref().unwrap();
            assert!(
                matches!(rec, Recovered::Set(_)),
                "hashmap recovers a key set"
            );
        }
    }

    #[test]
    fn crash_stamp_sampling_is_deterministic_and_covers_none() {
        let (_, sched) = run(Structure::LinkedList, Mechanism::Lrp, 5);
        assert_eq!(random_crash_stamp(&sched, 9), random_crash_stamp(&sched, 9));
        let drawn: Vec<Option<u64>> = (0..64).map(|s| random_crash_stamp(&sched, s)).collect();
        assert!(drawn.iter().any(Option::is_none), "pre-persist state drawn");
        assert!(drawn.iter().any(Option::is_some));
    }

    #[test]
    fn restart_at_final_stamp_keeps_untouched_initial_keys() {
        // The durable state at the final stamp may legitimately lag the
        // functional state (trailing writes not ordered by a persisted
        // release), but keys from the pre-populated initial image that no
        // operation ever targeted are durable by construction and must
        // all survive.
        let (t, sched) = run(Structure::SkipList, Mechanism::Lrp, 7);
        let last = sched.distinct_stamps().last().copied();
        let r = crash_restart(Structure::SkipList, &t, &sched, last, 4, 1);
        assert!(r.consistent());
        let recovered = match r.recovered.unwrap() {
            Recovered::Set(s) => s,
            other => panic!("skiplist recovers a set, got {other:?}"),
        };
        let touched: std::collections::BTreeSet<u64> = t
            .markers
            .iter()
            .filter_map(|m| match m.op {
                lrp_model::OpKind::Insert(k, _) | lrp_model::OpKind::Delete(k) => Some(k),
                _ => None,
            })
            .collect();
        let initial_img = MemImage::new(t.initial_mem.iter().copied());
        let initial = match validate_image(Structure::SkipList, &t.roots, &initial_img).unwrap() {
            Recovered::Set(s) => s,
            other => panic!("initial image recovers a set, got {other:?}"),
        };
        for k in initial.difference(&touched) {
            assert!(recovered.contains(k), "untouched initial key {k} lost");
        }
    }

    #[test]
    fn resolution_rebuild_reads_stamps_and_respects_soundness() {
        use lrp_detect::{SlotKind, SlotRecord, SlotSpec, ROOT_BASE, ROOT_CLIENTS, ROOT_RING};
        let spec = SlotSpec {
            clients: 2,
            ring: 2,
        };
        let base = 0x8000u64;
        let rec = SlotRecord {
            rid: (1 << 48) | 5,
            key: 9,
            kind: SlotKind::Put,
            applied: true,
            batch: 3,
        };
        let a = spec.record_addr(base, spec.index_for(rec.rid));
        let image = MemImage::new([(a, rec.rid), (a + 8, rec.key), (a + 16, rec.meta())]);
        let roots = vec![
            (ROOT_BASE.to_string(), base),
            (ROOT_CLIENTS.to_string(), spec.clients),
            (ROOT_RING.to_string(), spec.ring),
        ];
        let r = rebuild_resolution(&roots, &image, true).unwrap();
        assert_eq!(r.torn, 0);
        assert_eq!(r.table.occupied(), 1);
        assert!(r.resolver.resolve(rec.rid).is_done());
        // An unsound discipline surfaces the records but refuses to
        // resolve from them.
        let lax = rebuild_resolution(&roots, &image, false).unwrap();
        assert_eq!(lax.table.occupied(), 1);
        assert!(!lax.resolver.resolve(rec.rid).is_done());
        // No registered table: nothing to rebuild.
        assert!(rebuild_resolution(&[], &image, true).is_none());
    }

    #[test]
    fn adversarial_schedule_reports_inconsistency() {
        use lrp_baselines::arp::{arp_schedule, ArpOrder};
        let mut saw_failure = false;
        for seed in 0..6 {
            let t = WorkloadSpec::new(Structure::LinkedList)
                .initial_size(24)
                .threads(3)
                .ops_per_thread(10)
                .seed(100 + seed)
                .build_trace();
            let sched = arp_schedule(&t, ArpOrder::ReleaseFirst);
            let r = crash_restart_random(Structure::LinkedList, &t, &sched, 32, seed);
            if !r.consistent() {
                saw_failure = true;
                break;
            }
        }
        assert!(saw_failure, "ARP-legal order should break some restart");
    }
}
