//! A persist-buffer-based enforcement mechanism in the style of
//! Delegated Persist Ordering (Kolli et al., MICRO '16) — the *other*
//! school of §2.2.1, included as an extra comparison point.
//!
//! Instead of buffering writes in the cache and tracking epochs, every
//! store's line is handed to a per-thread FIFO persist queue immediately
//! (modelled through the substrate's sequencer, which drains jobs in
//! order and provides the stage barrier at releases). Consequently:
//!
//! * there is **no coalescing** across operations — every store ships a
//!   flush, which is exactly why the cache-based approaches win on
//!   write traffic;
//! * releases simply sit in the FIFO: intra-thread ordering is free;
//! * an inter-thread dependency (downgrade) drains the whole FIFO before
//!   the response — delegation means the consumer must observe the
//!   producer's queue as durable.

use lrp_core::mech::{
    DowngradeAction, EngineRun, EvictAction, L1View, LineMeta, PersistMech, StoreAction, StoreKind,
};
use lrp_model::LineAddr;

/// The persist-buffer mechanism.
#[derive(Debug, Default)]
pub struct PersistBuffer;

impl PersistBuffer {
    /// A fresh instance.
    pub fn new() -> Self {
        PersistBuffer
    }
}

impl PersistMech for PersistBuffer {
    fn name(&self) -> &'static str {
        "dpo"
    }

    fn on_store(&mut self, _l1: &mut dyn L1View, line: LineAddr, kind: StoreKind) -> StoreAction {
        // Every store enqueues its line into the persist FIFO right
        // away; a release additionally closes a queue epoch, which the
        // sequencer realizes as a stage barrier (the next job waits for
        // all earlier flushes to ack). An acquire-RMW blocks for its own
        // entry (same I3 reasoning as LRP).
        StoreAction {
            flush_before: EngineRun::empty(),
            background: EngineRun::empty(),
            background_after: EngineRun {
                stages: vec![vec![line]],
            },
            persist_line_after: matches!(kind, StoreKind::RmwAcquire { .. }),
        }
    }

    fn on_store_commit(&mut self, l1: &mut dyn L1View, line: LineAddr, _kind: StoreKind) {
        // Lines are clean from the cache's perspective the moment the
        // store is delegated; metadata only tracks residency for stats.
        let mut m = l1.meta(line);
        m.nvm_dirty = false;
        m.release = false;
        l1.set_meta(line, m);
    }

    fn on_evict(&mut self, _l1: &mut dyn L1View, _line: LineAddr) -> EvictAction {
        // Nothing buffered in the cache: evictions carry no persistency
        // obligation (the FIFO owns the data).
        EvictAction::default()
    }

    fn on_downgrade(&mut self, _l1: &mut dyn L1View, _line: LineAddr) -> DowngradeAction {
        // Delegation: the consumer may only observe the line once the
        // producer's queue has drained. An empty flush_before job still
        // waits for the sequencer's pending count to reach zero — the
        // whole-FIFO drain.
        DowngradeAction {
            flush_before: EngineRun {
                stages: vec![Vec::new()],
            },
            background: EngineRun::empty(),
            line_persisted_locally: true,
            persist_at_dir: false,
        }
    }
}

/// Quiet the unused-import warning for LineMeta used in docs.
#[allow(dead_code)]
fn _doc(_: LineMeta) {}

#[cfg(test)]
mod tests {
    use super::*;
    use lrp_core::mech::mock::MockL1;

    #[test]
    fn every_store_is_delegated() {
        let mut d = PersistBuffer::new();
        let mut l1 = MockL1::default();
        for kind in [StoreKind::Plain, StoreKind::Release] {
            let act = d.on_store(&mut l1, 0x10, kind);
            assert_eq!(act.background_after.flat(), vec![0x10]);
            assert!(act.flush_before.is_empty());
            d.on_store_commit(&mut l1, 0x10, kind);
            assert!(!l1.meta(0x10).nvm_dirty, "line never stays nvm-dirty");
        }
    }

    #[test]
    fn rmw_acquire_blocks_for_own_entry() {
        let mut d = PersistBuffer::new();
        let mut l1 = MockL1::default();
        let act = d.on_store(&mut l1, 0x10, StoreKind::RmwAcquire { release: true });
        assert!(act.persist_line_after);
    }

    #[test]
    fn downgrade_waits_for_queue_drain() {
        let mut d = PersistBuffer::new();
        let mut l1 = MockL1::default();
        let act = d.on_downgrade(&mut l1, 0x10);
        // A plan with one (empty) stage: the sequencer job exists purely
        // to wait for pending == 0.
        assert_eq!(act.flush_before.stages.len(), 1);
        assert!(act.line_persisted_locally);
    }

    #[test]
    fn flush_all_has_nothing_left_in_the_cache() {
        // Every store already shipped to the FIFO; the sequencer drains
        // it, so the end flush finds no nvm-dirty line.
        let mut d = PersistBuffer::new();
        let mut l1 = MockL1::default();
        for line in [0x10, 0x20] {
            d.on_store(&mut l1, line, StoreKind::Release);
            d.on_store_commit(&mut l1, line, StoreKind::Release);
        }
        assert!(d.flush_all(&l1).is_empty());
    }

    #[test]
    fn evictions_are_free() {
        let mut d = PersistBuffer::new();
        let mut l1 = MockL1::default();
        let act = d.on_evict(&mut l1, 0x10);
        assert!(act.flush_before.is_empty());
        assert!(!act.persist_at_dir);
    }
}
