//! Crash-state reconstruction.
//!
//! A crash wipes the caches; NVM retains the initial durable image plus
//! every write whose flush completed. Because flushes are line-granular
//! and atomic, the durable state after stamp `s` is exactly the initial
//! image overwritten by all writes with stamp `<= s`, applied in stamp
//! (then program) order.

use lrp_lfds::MemImage;
use lrp_model::spec::PersistSchedule;
use lrp_model::{EventId, Trace};

/// Reconstructs the NVM contents for a crash immediately after flush
/// `stamp` completes (`None` = before anything persisted).
pub fn nvm_at(trace: &Trace, sched: &PersistSchedule, stamp: Option<u64>) -> MemImage {
    let mut img = MemImage::new(trace.initial_mem.iter().copied());
    if let Some(cut) = stamp {
        apply_persisted(trace, sched, cut, &mut img);
    }
    img
}

/// Applies every write of `trace` whose persist stamp is `<= cut` to
/// `img`, in (stamp, event id) order: within one flush, program order
/// decides the final value of a coalesced word. This is the one
/// persist-apply rule — [`nvm_at`] runs it over the trace's initial
/// image, and a serving shard runs it over its durable image to commit
/// a batch as a delta.
pub fn apply_persisted(trace: &Trace, sched: &PersistSchedule, cut: u64, img: &mut MemImage) {
    let mut persisted: Vec<(u64, EventId)> = trace
        .events
        .iter()
        .filter(|e| e.is_write_effect())
        .filter_map(|e| sched.stamp(e.id).map(|s| (s, e.id)))
        .filter(|&(s, _)| s <= cut)
        .collect();
    persisted.sort_unstable();
    for (_, id) in persisted {
        let e = &trace.events[id as usize];
        img.write(e.addr, e.wval);
    }
}

/// Which crash points of a schedule to examine.
#[derive(Debug, Clone)]
pub enum CrashPlan {
    /// Every distinct flush stamp plus the pre-persist state — exhaustive
    /// null-recovery checking.
    Exhaustive,
    /// At most `n` evenly spaced stamps (plus first/last) — for long
    /// simulator logs.
    Sampled(usize),
    /// At most `samples` stamps drawn uniformly without replacement by a
    /// seeded PRNG (always keeping the final stamp). Deterministic for a
    /// fixed seed; different campaign seeds probe different crash points.
    Random {
        /// Upper bound on sampled stamps.
        samples: usize,
        /// PRNG seed.
        seed: u64,
    },
}

impl CrashPlan {
    /// The crash stamps to test for `sched`, always including `None`
    /// (the crash-before-anything-persists state).
    pub fn stamps(&self, sched: &PersistSchedule) -> Vec<Option<u64>> {
        let all = sched.distinct_stamps();
        let mut out = vec![None];
        match self {
            CrashPlan::Exhaustive => out.extend(all.into_iter().map(Some)),
            CrashPlan::Sampled(n) => {
                if all.len() <= *n {
                    out.extend(all.into_iter().map(Some));
                } else {
                    let step = all.len() as f64 / *n as f64;
                    for i in 0..*n {
                        out.push(Some(all[(i as f64 * step) as usize]));
                    }
                    out.push(Some(*all.last().expect("non-empty")));
                }
            }
            CrashPlan::Random { samples, seed } => {
                if all.len() <= *samples {
                    out.extend(all.into_iter().map(Some));
                } else {
                    // Partial Fisher–Yates: the first `samples` slots end
                    // up holding a uniform draw without replacement.
                    let mut pool = all;
                    let mut rng = lrp_exec::Xorshift64::new(seed ^ 0xC4A5_11FE);
                    let last = *pool.last().expect("non-empty");
                    for i in 0..*samples {
                        let j = i + rng.below((pool.len() - i) as u64) as usize;
                        pool.swap(i, j);
                    }
                    let mut picked: Vec<u64> = pool[..*samples].to_vec();
                    if !picked.contains(&last) {
                        picked.pop();
                        picked.push(last);
                    }
                    picked.sort_unstable();
                    out.extend(picked.into_iter().map(Some));
                }
            }
        }
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrp_model::litmus::LitmusBuilder;
    use lrp_model::Trace;

    fn two_write_trace() -> (Trace, PersistSchedule) {
        let mut b = LitmusBuilder::new(1);
        b.init(0x100, 7);
        b.write(0, 0x100, 1);
        b.write(0, 0x108, 2);
        let t = b.build();
        let sched = PersistSchedule::from_order(t.events.len(), &[0, 1]);
        (t, sched)
    }

    #[test]
    fn crash_before_anything_keeps_initial_image() {
        let (t, sched) = two_write_trace();
        let img = nvm_at(&t, &sched, None);
        assert_eq!(img.read(0x100), 7);
        assert_eq!(img.read(0x108), Trace::POISON);
    }

    #[test]
    fn crash_points_apply_prefixes() {
        let (t, sched) = two_write_trace();
        let img0 = nvm_at(&t, &sched, Some(0));
        assert_eq!(img0.read(0x100), 1);
        assert_eq!(img0.read(0x108), Trace::POISON);
        let img1 = nvm_at(&t, &sched, Some(1));
        assert_eq!(img1.read(0x108), 2);
    }

    #[test]
    fn coalesced_writes_take_program_order_value() {
        let mut b = LitmusBuilder::new(1);
        b.write(0, 0x100, 1);
        b.write(0, 0x100, 2);
        let t = b.build();
        let mut sched = PersistSchedule::new(2);
        sched.set(0, 5);
        sched.set(1, 5); // same flush
        let img = nvm_at(&t, &sched, Some(5));
        assert_eq!(img.read(0x100), 2, "later write wins within a flush");
    }

    #[test]
    fn apply_persisted_extends_an_image_as_nvm_at_does() {
        let (t, sched) = two_write_trace();
        let mut img = MemImage::new([(0x100, 7), (0x200, 9)]);
        apply_persisted(&t, &sched, 0, &mut img);
        assert_eq!(img.read(0x100), 1);
        assert_eq!(img.read(0x108), Trace::POISON, "stamp 1 is past the cut");
        assert_eq!(img.read(0x200), 9, "words the trace never wrote stay");
        apply_persisted(&t, &sched, 1, &mut img);
        let full = nvm_at(&t, &sched, Some(1));
        assert_eq!(img.read(0x108), full.read(0x108));
    }

    #[test]
    fn exhaustive_plan_covers_all_stamps() {
        let (_, sched) = two_write_trace();
        let stamps = CrashPlan::Exhaustive.stamps(&sched);
        assert_eq!(stamps, vec![None, Some(0), Some(1)]);
    }

    #[test]
    fn sampled_plan_bounds_size_and_keeps_last() {
        let mut sched = PersistSchedule::new(100);
        for i in 0..100 {
            sched.set(i, i as u64);
        }
        let stamps = CrashPlan::Sampled(10).stamps(&sched);
        assert!(stamps.len() <= 12);
        assert_eq!(*stamps.last().unwrap(), Some(99));
        assert_eq!(stamps[0], None);
    }
}
