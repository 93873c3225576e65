//! Volatile execution: no persistency enforcement (the paper's NOP).
//!
//! Write-backs flow to the LLC as usual and reach NVM only on LLC
//! evictions; nothing ever stalls for an NVM ack. All figures normalize
//! to this baseline.

use lrp_core::mech::{
    DowngradeAction, EngineRun, EvictAction, L1View, PersistMech, StoreAction, StoreKind,
};
use lrp_model::LineAddr;

/// The no-persistency mechanism.
#[derive(Debug, Default)]
pub struct Nop;

impl PersistMech for Nop {
    fn name(&self) -> &'static str {
        "nop"
    }

    fn on_store(&mut self, _l1: &mut dyn L1View, _line: LineAddr, _kind: StoreKind) -> StoreAction {
        StoreAction::default()
    }

    fn on_store_commit(&mut self, l1: &mut dyn L1View, line: LineAddr, _kind: StoreKind) {
        // Track dirtiness only so statistics can count buffered lines.
        let mut m = l1.meta(line);
        m.nvm_dirty = true;
        l1.set_meta(line, m);
    }

    fn on_evict(&mut self, _l1: &mut dyn L1View, _line: LineAddr) -> EvictAction {
        EvictAction {
            persist_at_dir: false,
            ..EvictAction::default()
        }
    }

    fn on_downgrade(&mut self, _l1: &mut dyn L1View, _line: LineAddr) -> DowngradeAction {
        DowngradeAction {
            line_persisted_locally: true, // nothing ever waits
            persist_at_dir: false,
            ..DowngradeAction::default()
        }
    }

    // Volatile: lines are marked nvm-dirty for statistics only, and
    // nothing ever persists, not even at the end.
    fn flush_all(&self, _l1: &dyn L1View) -> EngineRun {
        EngineRun::empty()
    }

    fn dir_persists_writebacks(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrp_core::mech::mock::MockL1;

    #[test]
    fn nop_never_flushes_or_stalls() {
        let mut n = Nop;
        let mut l1 = MockL1::default();
        let a = n.on_store(&mut l1, 1, StoreKind::Release);
        assert!(a.flush_before.is_empty() && a.background.is_empty());
        assert!(!a.persist_line_after);
        n.on_store_commit(&mut l1, 1, StoreKind::Release);
        let e = n.on_evict(&mut l1, 1);
        assert!(e.flush_before.is_empty() && !e.persist_at_dir);
        let d = n.on_downgrade(&mut l1, 1);
        assert!(d.flush_before.is_empty() && !d.persist_at_dir);
        assert!(!n.dir_persists_writebacks());
    }

    #[test]
    fn flush_all_flushes_nothing() {
        let mut n = Nop;
        let mut l1 = MockL1::default();
        n.on_store_commit(&mut l1, 1, StoreKind::Plain);
        n.on_store_commit(&mut l1, 2, StoreKind::Release);
        assert!(l1.meta(1).nvm_dirty, "dirty for statistics");
        assert!(n.flush_all(&l1).is_empty(), "volatile: no end flush");
    }
}
