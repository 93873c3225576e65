//! The strict full barrier (SB, §6.2).
//!
//! RP is enforced by placing a blocking persist barrier before *and*
//! after every release: the core stalls until every line modified before
//! the barrier has persisted, performs the release, and stalls again
//! until the release itself persists. On an inter-thread dependency
//! (downgrade) the responder flushes its entire ongoing epoch before
//! answering.

use lrp_core::engine::plan_epoch_stages;
use lrp_core::mech::{
    DowngradeAction, Epoch, EvictAction, L1View, PersistMech, StoreAction, StoreKind,
};
use lrp_model::LineAddr;

/// The strict-barrier mechanism.
#[derive(Debug, Default)]
pub struct StrictBarrier {
    /// Monotone epoch used only to keep line metadata meaningful for
    /// statistics; SB's stalls make finer tracking unnecessary.
    epoch: Epoch,
}

impl StrictBarrier {
    /// A fresh instance.
    pub fn new() -> Self {
        StrictBarrier { epoch: 1 }
    }
}

impl PersistMech for StrictBarrier {
    fn name(&self) -> &'static str {
        "sb"
    }

    // A release's pre-issue wait is the barrier draining the epoch.
    fn crit_drain_kind(&self) -> lrp_obs::CritSegKind {
        lrp_obs::CritSegKind::BarrierDrain
    }

    fn on_store(&mut self, l1: &mut dyn L1View, _line: LineAddr, kind: StoreKind) -> StoreAction {
        let mut act = StoreAction::default();
        if kind.is_release() {
            // Barrier before the release: flush everything, stall.
            act.flush_before = plan_epoch_stages(l1, Epoch::MAX, None);
            // A dirty victim line's old contents flush with the rest;
            // plan_epoch_stages already includes `line` if dirty — but
            // the release value itself lands afterwards and needs its
            // own synchronous persist (the barrier after the release).
            act.persist_line_after = true;
        } else if let StoreKind::RmwAcquire { .. } = kind {
            act.persist_line_after = true;
        }
        act
    }

    fn on_store_commit(&mut self, l1: &mut dyn L1View, line: LineAddr, kind: StoreKind) {
        if kind.is_release() {
            self.epoch = self.epoch.wrapping_add(1).max(1);
        }
        let mut m = l1.meta(line);
        if !m.nvm_dirty {
            m.nvm_dirty = true;
            m.min_epoch = self.epoch;
        }
        m.release = m.release || kind.is_release();
        l1.set_meta(line, m);
    }

    fn on_evict(&mut self, l1: &mut dyn L1View, line: LineAddr) -> EvictAction {
        let meta = l1.meta(line);
        EvictAction {
            // Everything older already persisted at the last barrier;
            // current-epoch writes are mutually unordered, so the
            // write-back simply persists via the directory.
            persist_at_dir: meta.nvm_dirty,
            ..EvictAction::default()
        }
    }

    fn on_downgrade(&mut self, l1: &mut dyn L1View, line: LineAddr) -> DowngradeAction {
        let meta = l1.meta(line);
        if !meta.nvm_dirty {
            return DowngradeAction {
                line_persisted_locally: true,
                persist_at_dir: false,
                ..DowngradeAction::default()
            };
        }
        // Inter-thread dependency: flush the whole ongoing epoch,
        // including the requested line, before responding.
        DowngradeAction {
            flush_before: plan_epoch_stages(l1, Epoch::MAX, Some(line)),
            background: Default::default(),
            line_persisted_locally: true,
            persist_at_dir: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrp_core::mech::mock::MockL1;
    use lrp_core::mech::LineMeta;

    fn dirty(l1: &mut MockL1, line: LineAddr, epoch: Epoch) {
        l1.set_meta(
            line,
            LineMeta {
                nvm_dirty: true,
                release: false,
                min_epoch: epoch,
            },
        );
    }

    #[test]
    fn flush_all_is_the_release_barrier() {
        let sb = StrictBarrier::new();
        let mut l1 = MockL1::default();
        dirty(&mut l1, 0x10, 2);
        dirty(&mut l1, 0x20, 1);
        dirty(&mut l1, 0x30, 2);
        let run = sb.flush_all(&l1);
        assert_eq!(run.stages.len(), 2, "one stage per epoch");
        assert_eq!(run.stages[0], vec![0x20]);
        assert_eq!(run.stages[1], vec![0x10, 0x30]);
        assert!(sb.flush_all(&MockL1::default()).is_empty());
    }

    #[test]
    fn release_flushes_everything_and_blocks_twice() {
        let mut sb = StrictBarrier::new();
        let mut l1 = MockL1::default();
        dirty(&mut l1, 0x10, 1);
        dirty(&mut l1, 0x20, 1);
        let act = sb.on_store(&mut l1, 0x30, StoreKind::Release);
        let mut flushed = act.flush_before.flat();
        flushed.sort_unstable();
        assert_eq!(flushed, vec![0x10, 0x20]);
        assert!(act.persist_line_after, "barrier after the release");
    }

    #[test]
    fn plain_store_costs_nothing() {
        let mut sb = StrictBarrier::new();
        let mut l1 = MockL1::default();
        let act = sb.on_store(&mut l1, 0x10, StoreKind::Plain);
        assert!(act.flush_before.is_empty());
        assert!(!act.persist_line_after);
        sb.on_store_commit(&mut l1, 0x10, StoreKind::Plain);
        assert!(l1.meta(0x10).nvm_dirty);
    }

    #[test]
    fn downgrade_flushes_ongoing_epoch() {
        let mut sb = StrictBarrier::new();
        let mut l1 = MockL1::default();
        dirty(&mut l1, 0x10, 1);
        dirty(&mut l1, 0x20, 1);
        let act = sb.on_downgrade(&mut l1, 0x20);
        assert!(act.flush_before.flat().contains(&0x10));
        assert!(act.flush_before.flat().contains(&0x20));
        assert!(act.line_persisted_locally);
    }

    #[test]
    fn eviction_persists_via_directory_without_stall() {
        let mut sb = StrictBarrier::new();
        let mut l1 = MockL1::default();
        dirty(&mut l1, 0x10, 1);
        let act = sb.on_evict(&mut l1, 0x10);
        assert!(act.flush_before.is_empty());
        assert!(act.persist_at_dir);
    }

    #[test]
    fn clean_downgrade_is_free() {
        let mut sb = StrictBarrier::new();
        let mut l1 = MockL1::default();
        let act = sb.on_downgrade(&mut l1, 0x10);
        assert!(act.flush_before.is_empty());
        assert!(!act.persist_at_dir);
    }
}
