//! Crash-state reconstruction.
//!
//! A crash wipes the caches; NVM retains the initial durable image plus
//! every write whose flush completed. Because flushes are line-granular
//! and atomic, the durable state after stamp `s` is exactly the initial
//! image overwritten by all writes with stamp `<= s`, applied in stamp
//! (then program) order.
//!
//! [`PersistWalk`] is the one implementation of that rule: it sorts a
//! schedule's persisted writes once and applies them to one image as
//! the crash stamp rises, so visiting every crash point of a plan costs
//! one pass over the writes rather than one rebuild per point. Applying
//! the sorted runs one after another leaves the same image as applying
//! the whole sorted prefix at once, for any schedule.

use lrp_lfds::MemImage;
use lrp_model::spec::PersistSchedule;
use lrp_model::{EventId, Trace};

/// A forward walk over a schedule's persisted writes in (stamp, event
/// id) order: within one flush, program order decides the final value
/// of a coalesced word.
#[derive(Debug)]
pub struct PersistWalk<'a> {
    trace: &'a Trace,
    persisted: Vec<(u64, EventId)>,
    applied: usize,
}

impl<'a> PersistWalk<'a> {
    /// Sorts the persisted writes of `trace` under `sched`; nothing is
    /// applied yet.
    pub fn new(trace: &'a Trace, sched: &PersistSchedule) -> Self {
        let mut persisted: Vec<(u64, EventId)> = trace
            .events
            .iter()
            .filter(|e| e.is_write_effect())
            .filter_map(|e| sched.stamp(e.id).map(|s| (s, e.id)))
            .collect();
        persisted.sort_unstable();
        PersistWalk {
            trace,
            persisted,
            applied: 0,
        }
    }

    /// Applies to `img` every write with stamp `<= cut` that this walk
    /// has not applied yet: `img` then holds the crash image after `cut`
    /// if it held the one after the previous cut (or the walk's starting
    /// image). Panics if `cut` falls below a stamp already applied.
    pub fn advance(&mut self, cut: u64, img: &mut MemImage) {
        assert!(
            self.applied == 0 || self.persisted[self.applied - 1].0 <= cut,
            "crash stamps must not fall during a walk"
        );
        let rest = &self.persisted[self.applied..];
        let n = rest.partition_point(|&(s, _)| s <= cut);
        for &(_, id) in &rest[..n] {
            let e = &self.trace.events[id as usize];
            img.write(e.addr, e.wval);
        }
        self.applied += n;
    }
}

/// Reconstructs the NVM contents for a crash immediately after flush
/// `stamp` completes (`None` = before anything persisted): the one-point
/// form of [`PersistWalk`].
pub fn nvm_at(trace: &Trace, sched: &PersistSchedule, stamp: Option<u64>) -> MemImage {
    let mut img = MemImage::new(trace.initial_mem.iter().copied());
    if let Some(cut) = stamp {
        PersistWalk::new(trace, sched).advance(cut, &mut img);
    }
    img
}

/// Which crash points of a schedule to examine.
#[derive(Debug, Clone)]
pub enum CrashPlan {
    /// Every distinct flush stamp plus the pre-persist state — exhaustive
    /// null-recovery checking.
    Exhaustive,
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
    /// The crash stamps to test for `sched`, ascending, always starting
    /// with `None` (the crash-before-anything-persists state).
    pub fn stamps(&self, sched: &PersistSchedule) -> Vec<Option<u64>> {
        let all = sched.distinct_stamps();
        let mut out = vec![None];
        match self {
            CrashPlan::Exhaustive => out.extend(all.into_iter().map(Some)),
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
    fn walk_extends_an_image_as_nvm_at_does() {
        let (t, sched) = two_write_trace();
        let mut img = MemImage::new([(0x100, 7), (0x200, 9)]);
        let mut walk = PersistWalk::new(&t, &sched);
        walk.advance(0, &mut img);
        assert_eq!(img.read(0x100), 1);
        assert_eq!(img.read(0x108), Trace::POISON, "stamp 1 is past the cut");
        assert_eq!(img.read(0x200), 9, "words the trace never wrote stay");
        walk.advance(1, &mut img);
        let full = nvm_at(&t, &sched, Some(1));
        assert_eq!(img.read(0x108), full.read(0x108));
    }

    #[test]
    #[should_panic(expected = "must not fall")]
    fn walk_refuses_a_falling_stamp() {
        let (t, sched) = two_write_trace();
        let mut img = MemImage::new(t.initial_mem.iter().copied());
        let mut walk = PersistWalk::new(&t, &sched);
        walk.advance(1, &mut img);
        walk.advance(0, &mut img);
    }

    #[test]
    fn walk_follows_stamps_not_event_order() {
        // e0 persists last; e1 and e2 share a flush to one word.
        let mut b = LitmusBuilder::new(1);
        b.write(0, 0x100, 1);
        b.write(0, 0x108, 2);
        b.write(0, 0x108, 3);
        let t = b.build();
        let mut sched = PersistSchedule::new(3);
        sched.set(0, 9);
        sched.set(1, 4);
        sched.set(2, 4);
        let mut img = MemImage::new(t.initial_mem.iter().copied());
        let mut walk = PersistWalk::new(&t, &sched);
        walk.advance(4, &mut img);
        assert_eq!((img.read(0x100), img.read(0x108)), (Trace::POISON, 3));
        walk.advance(9, &mut img);
        assert_eq!((img.read(0x100), img.read(0x108)), (1, 3));
    }

    #[test]
    fn exhaustive_plan_covers_all_stamps() {
        let (_, sched) = two_write_trace();
        let stamps = CrashPlan::Exhaustive.stamps(&sched);
        assert_eq!(stamps, vec![None, Some(0), Some(1)]);
    }
}
