//! The buffered full barrier (BB) — the state-of-the-art comparison
//! point (Joshi et al., "Efficient Persist Barriers for Multicores",
//! MICRO '15; §2.2.1 and §6.2 of the LRP paper).
//!
//! Cache lines are tagged with the epoch of their first buffered write.
//! A barrier (placed before and after every release, making the release
//! its own epoch) merely increments the epoch and starts a *proactive
//! flush* of the closed epochs in the background. Stalls appear only on
//! conflicts:
//!
//! * **intra-thread**: writing to a line tagged with an older epoch, or
//!   evicting such a line, forces the older epochs to persist first, in
//!   epoch order, on the critical path;
//! * **inter-thread**: a coherence downgrade blocks the response until
//!   the source's epochs up to and including the line's have persisted.

use lrp_core::engine::plan_epoch_stages;
use lrp_core::epoch::EpochCounter;
use lrp_core::mech::{
    DowngradeAction, Epoch, EvictAction, L1View, LineMeta, PersistMech, StoreAction, StoreKind,
};
use lrp_model::LineAddr;
use lrp_obs::MechEvent;

/// BB configuration.
#[derive(Debug, Clone)]
pub struct BbConfig {
    /// Epoch wrap limit (8-bit tags, as in LRP).
    pub epoch_limit: Epoch,
    /// Whether closed epochs start flushing proactively (the MICRO '15
    /// optimization; disabling it is an ablation).
    pub proactive_flush: bool,
}

impl Default for BbConfig {
    fn default() -> Self {
        BbConfig {
            epoch_limit: 255,
            proactive_flush: true,
        }
    }
}

/// The buffered-barrier mechanism.
#[derive(Debug)]
pub struct BufferedBarrier {
    cfg: BbConfig,
    epoch: EpochCounter,
    pending_release: Option<Epoch>,
    /// Event buffer, allocated only once observability is enabled.
    obs: Option<Vec<MechEvent>>,
}

impl BufferedBarrier {
    /// A fresh instance.
    pub fn new(cfg: BbConfig) -> Self {
        let epoch = EpochCounter::new(cfg.epoch_limit);
        BufferedBarrier {
            cfg,
            epoch,
            pending_release: None,
            obs: None,
        }
    }

    /// Current epoch (tests/statistics).
    pub fn current_epoch(&self) -> Epoch {
        self.epoch.current()
    }

    fn emit(&mut self, ev: MechEvent) {
        if let Some(buf) = self.obs.as_mut() {
            buf.push(ev);
        }
    }
}

impl Default for BufferedBarrier {
    fn default() -> Self {
        BufferedBarrier::new(BbConfig::default())
    }
}

impl PersistMech for BufferedBarrier {
    fn name(&self) -> &'static str {
        "bb"
    }

    // A release's pre-issue wait is the buffered epoch draining.
    fn crit_drain_kind(&self) -> lrp_obs::CritSegKind {
        lrp_obs::CritSegKind::BarrierDrain
    }

    fn on_store(&mut self, l1: &mut dyn L1View, line: LineAddr, kind: StoreKind) -> StoreAction {
        let mut act = StoreAction::default();
        let meta = l1.meta(line);
        if kind.is_release() {
            // A release consumes two epochs (barriers before and after
            // it); flush everything and restart if the tag width cannot
            // accommodate both.
            if u32::from(self.epoch.current()) + 2 > u32::from(self.epoch.limit()) {
                act.flush_before = plan_epoch_stages(l1, Epoch::MAX, None);
                self.epoch.reset();
                let (rel_epoch, _) = self.epoch.advance();
                self.pending_release = Some(rel_epoch);
                self.emit(MechEvent::EpochAdvance {
                    epoch: rel_epoch,
                    wrapped: true,
                });
                if let StoreKind::RmwAcquire { .. } = kind {
                    act.persist_line_after = true;
                }
                return act;
            }
            // Barrier before the release: close the current epoch.
            let (rel_epoch, _) = self.epoch.advance();
            self.pending_release = Some(rel_epoch);
            self.emit(MechEvent::EpochAdvance {
                epoch: rel_epoch,
                wrapped: false,
            });
            if meta.nvm_dirty {
                // Same-line conflict: persist the line's older epochs
                // (and everything older than them) before the release may
                // land — a release never shares a line with older writes.
                act.flush_before = plan_epoch_stages(l1, meta.min_epoch + 1, None);
            }
            if self.cfg.proactive_flush {
                // Proactively flush the epochs just closed by the
                // barrier, off the critical path.
                act.background = plan_epoch_stages(l1, rel_epoch, None);
            }
            if let StoreKind::RmwAcquire { .. } = kind {
                // Full-barrier semantics around the RMW: everything
                // before it persists first, then the RMW itself.
                act.flush_before = plan_epoch_stages(l1, rel_epoch, None);
                act.persist_line_after = true;
            }
        } else {
            if meta.nvm_dirty && meta.min_epoch < self.epoch.current() {
                // Intra-thread conflict: a write with epoch e_k on a line
                // tagged with an older epoch persists that line — which
                // drags all older epochs with it — on the critical path.
                act.flush_before = plan_epoch_stages(l1, meta.min_epoch + 1, None);
            }
            if let StoreKind::RmwAcquire { .. } = kind {
                act.persist_line_after = true;
            }
        }
        act
    }

    fn on_store_commit(&mut self, l1: &mut dyn L1View, line: LineAddr, kind: StoreKind) {
        let mut meta = l1.meta(line);
        if kind.is_release() {
            let rel_epoch = self
                .pending_release
                .take()
                .expect("release commit without a planned release");
            meta = LineMeta {
                nvm_dirty: true,
                release: true,
                min_epoch: rel_epoch,
            };
            // Barrier after the release: the release sits alone in its
            // epoch; subsequent writes open the next one. Cannot wrap —
            // on_store reserved headroom for both advances.
            let (post_epoch, wrapped) = self.epoch.advance();
            debug_assert!(!wrapped, "headroom reserved in on_store");
            self.emit(MechEvent::EpochAdvance {
                epoch: post_epoch,
                wrapped: false,
            });
        } else if !meta.nvm_dirty {
            meta.nvm_dirty = true;
            meta.release = false;
            meta.min_epoch = self.epoch.current();
        }
        l1.set_meta(line, meta);
    }

    fn on_evict(&mut self, l1: &mut dyn L1View, line: LineAddr) -> EvictAction {
        let meta = l1.meta(line);
        if !meta.nvm_dirty {
            return EvictAction {
                persist_at_dir: false,
                ..EvictAction::default()
            };
        }
        EvictAction {
            // Epoch ordering: everything older than the victim's epoch
            // persists first, on the critical path of the triggering
            // miss; the line itself persists via the write-back (I4-like
            // directory persist).
            flush_before: plan_epoch_stages(l1, meta.min_epoch, None),
            background: Default::default(),
            persist_at_dir: true,
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
        // Inter-thread conflict: the target blocks until the source's
        // epochs up to and including the line's have persisted.
        DowngradeAction {
            flush_before: plan_epoch_stages(l1, meta.min_epoch, Some(line)),
            background: Default::default(),
            line_persisted_locally: true,
            persist_at_dir: false,
        }
    }

    fn forbids_epoch_coalescing(&self) -> bool {
        true
    }

    fn obs_enable(&mut self) {
        if self.obs.is_none() {
            self.obs = Some(Vec::new());
        }
    }

    fn obs_drain(&mut self, sink: &mut dyn FnMut(&[MechEvent])) {
        if let Some(buf) = self.obs.as_mut().filter(|buf| !buf.is_empty()) {
            sink(buf);
            buf.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrp_core::mech::mock::MockL1;

    fn store(
        bb: &mut BufferedBarrier,
        l1: &mut MockL1,
        line: LineAddr,
        kind: StoreKind,
    ) -> StoreAction {
        let act = bb.on_store(l1, line, kind);
        for ln in act.flush_before.flat() {
            let mut m = l1.meta(ln);
            m.nvm_dirty = false;
            m.release = false;
            l1.set_meta(ln, m);
            bb.on_flush_issued(l1, ln);
        }
        bb.on_store_commit(l1, line, kind);
        act
    }

    #[test]
    fn release_occupies_its_own_epoch() {
        let mut bb = BufferedBarrier::default();
        let mut l1 = MockL1::default();
        store(&mut bb, &mut l1, 0x10, StoreKind::Plain); // epoch 1
        store(&mut bb, &mut l1, 0x20, StoreKind::Release); // epoch 2
        store(&mut bb, &mut l1, 0x30, StoreKind::Plain); // epoch 3
        assert_eq!(l1.meta(0x10).min_epoch, 1);
        assert_eq!(l1.meta(0x20).min_epoch, 2);
        assert_eq!(l1.meta(0x30).min_epoch, 3);
        assert_eq!(bb.current_epoch(), 3);
    }

    #[test]
    fn release_triggers_proactive_background_flush() {
        let mut bb = BufferedBarrier::default();
        let mut l1 = MockL1::default();
        store(&mut bb, &mut l1, 0x10, StoreKind::Plain);
        let act = bb.on_store(&mut l1, 0x20, StoreKind::Release);
        assert!(act.flush_before.is_empty(), "clean release line: no stall");
        assert_eq!(
            act.background.flat(),
            vec![0x10],
            "closed epoch flushes proactively"
        );
        bb.on_store_commit(&mut l1, 0x20, StoreKind::Release);
    }

    #[test]
    fn proactive_flush_can_be_disabled() {
        let mut bb = BufferedBarrier::new(BbConfig {
            proactive_flush: false,
            ..BbConfig::default()
        });
        let mut l1 = MockL1::default();
        store(&mut bb, &mut l1, 0x10, StoreKind::Plain);
        let act = bb.on_store(&mut l1, 0x20, StoreKind::Release);
        assert!(act.background.is_empty());
        bb.on_store_commit(&mut l1, 0x20, StoreKind::Release);
    }

    #[test]
    fn same_line_cross_epoch_write_conflicts() {
        let mut bb = BufferedBarrier::default();
        let mut l1 = MockL1::default();
        store(&mut bb, &mut l1, 0x10, StoreKind::Plain); // epoch 1
        store(&mut bb, &mut l1, 0x20, StoreKind::Release); // epoch 2
                                                           // Writing 0x10 again at epoch 3 conflicts with its epoch-1 tag.
        let act = bb.on_store(&mut l1, 0x10, StoreKind::Plain);
        assert_eq!(
            act.flush_before.flat(),
            vec![0x10],
            "the old-epoch line persists on the critical path"
        );
        bb.on_store_commit(&mut l1, 0x10, StoreKind::Plain);
    }

    #[test]
    fn same_epoch_rewrite_coalesces_freely() {
        let mut bb = BufferedBarrier::default();
        let mut l1 = MockL1::default();
        store(&mut bb, &mut l1, 0x10, StoreKind::Plain);
        let act = bb.on_store(&mut l1, 0x10, StoreKind::Plain);
        assert!(act.flush_before.is_empty(), "no conflict within an epoch");
        bb.on_store_commit(&mut l1, 0x10, StoreKind::Plain);
    }

    #[test]
    fn eviction_drags_older_epochs() {
        let mut bb = BufferedBarrier::default();
        let mut l1 = MockL1::default();
        store(&mut bb, &mut l1, 0x10, StoreKind::Plain); // epoch 1
        store(&mut bb, &mut l1, 0x20, StoreKind::Release); // epoch 2
        store(&mut bb, &mut l1, 0x30, StoreKind::Plain); // epoch 3
        let act = bb.on_evict(&mut l1, 0x30);
        let flushed = act.flush_before.flat();
        assert_eq!(flushed, vec![0x10, 0x20], "older epochs first, in order");
        assert!(act.persist_at_dir);
    }

    #[test]
    fn downgrade_blocks_until_line_epoch_persists() {
        let mut bb = BufferedBarrier::default();
        let mut l1 = MockL1::default();
        store(&mut bb, &mut l1, 0x10, StoreKind::Plain); // epoch 1
        store(&mut bb, &mut l1, 0x20, StoreKind::Release); // epoch 2
        let act = bb.on_downgrade(&mut l1, 0x20);
        assert_eq!(act.flush_before.flat(), vec![0x10, 0x20]);
        assert!(act.line_persisted_locally);
    }

    #[test]
    fn flush_all_drains_every_epoch_in_order() {
        let mut bb = BufferedBarrier::default();
        let mut l1 = MockL1::default();
        store(&mut bb, &mut l1, 0x10, StoreKind::Plain);
        store(&mut bb, &mut l1, 0x20, StoreKind::Release);
        store(&mut bb, &mut l1, 0x30, StoreKind::Plain);
        let mut by_epoch: Vec<(Epoch, LineAddr)> = [0x10, 0x20, 0x30]
            .into_iter()
            .filter(|&ln| l1.meta(ln).nvm_dirty)
            .map(|ln| (l1.meta(ln).min_epoch, ln))
            .collect();
        by_epoch.sort_unstable();
        let run = bb.flush_all(&l1);
        assert_eq!(run.line_count(), by_epoch.len(), "every dirty line once");
        let flat = run.flat();
        let order: Vec<Epoch> = flat.iter().map(|&ln| l1.meta(ln).min_epoch).collect();
        assert!(order.windows(2).all(|w| w[0] <= w[1]), "epoch order");
        assert!(run.stages.iter().all(|st| st
            .iter()
            .all(|&ln| l1.meta(ln).min_epoch == l1.meta(st[0]).min_epoch)));
    }

    #[test]
    fn epoch_wrap_flushes_everything() {
        let mut bb = BufferedBarrier::new(BbConfig {
            epoch_limit: 4,
            ..BbConfig::default()
        });
        let mut l1 = MockL1::default();
        store(&mut bb, &mut l1, 0x10, StoreKind::Plain); // epoch 1
        store(&mut bb, &mut l1, 0x20, StoreKind::Release); // epochs 2, 3
                                                           // The next release needs epochs 4 and 5 > limit: full flush.
        let act = store(&mut bb, &mut l1, 0x30, StoreKind::Release);
        assert!(act.flush_before.flat().contains(&0x10));
        assert!(act.flush_before.flat().contains(&0x20));
        assert_eq!(bb.current_epoch(), 3, "counter restarted past the release");
        assert_eq!(
            l1.meta(0x30).min_epoch,
            2,
            "release tagged with fresh epoch"
        );
    }
}
