//! The LRP mechanism (§5.2), implementing [`PersistMech`].
//!
//! Writes buffer in the L1 and never trigger persists on their own;
//! persistency is enforced lazily when the coherence protocol detects an
//! inter-thread dependency (downgrade), when capacity forces an eviction,
//! when the RET fills, or when an acquire-RMW succeeds (I3).

use crate::engine::{plan_epoch_stages, plan_release_run};
use crate::epoch::EpochCounter;
use crate::mech::{
    DowngradeAction, EngineRun, Epoch, EvictAction, L1View, LineMeta, PersistMech, StoreAction,
    StoreKind,
};
use crate::ret::ReleaseEpochTable;
use lrp_model::LineAddr;
use lrp_obs::MechEvent;

/// LRP hardware parameters (Table 1 plus the engine model).
#[derive(Debug, Clone)]
pub struct LrpConfig {
    /// RET entries per hardware thread (paper: 32).
    pub ret_capacity: usize,
    /// Occupancy that triggers a proactive drain of the oldest release.
    pub ret_watermark: usize,
    /// Epoch wrap limit (paper: 8-bit metadata, 255).
    pub epoch_limit: Epoch,
    /// Cycles the persist-engine FSM needs to scan the L1 before the
    /// first flush of an engine run issues.
    pub scan_cycles: u64,
    /// Ablation of design choice D2: when true, the engine persists
    /// strictly in epoch order (one stage per epoch, like a full
    /// barrier) instead of flushing only-written lines first in
    /// parallel. Loses the overlap the paper's engine algorithm buys.
    pub strict_epoch_engine: bool,
}

impl Default for LrpConfig {
    fn default() -> Self {
        LrpConfig {
            ret_capacity: 32,
            ret_watermark: 28,
            epoch_limit: 255,
            scan_cycles: 16,
            strict_epoch_engine: false,
        }
    }
}

/// Per-core LRP mechanism state.
#[derive(Debug)]
pub struct Lrp {
    cfg: LrpConfig,
    epoch: EpochCounter,
    ret: ReleaseEpochTable,
    /// Release epoch reserved by `on_store`, consumed by
    /// `on_store_commit`.
    pending_release: Option<Epoch>,
    /// Event buffer, allocated only once observability is enabled.
    obs: Option<Vec<MechEvent>>,
}

impl Lrp {
    /// A mechanism instance with the given parameters.
    pub fn new(cfg: LrpConfig) -> Self {
        let epoch = EpochCounter::new(cfg.epoch_limit);
        let ret = ReleaseEpochTable::new(cfg.ret_capacity, cfg.ret_watermark);
        Lrp {
            cfg,
            epoch,
            ret,
            pending_release: None,
            obs: None,
        }
    }

    fn emit(&mut self, ev: MechEvent) {
        if let Some(buf) = self.obs.as_mut() {
            buf.push(ev);
        }
    }

    /// Current RET occupancy (for statistics).
    pub fn ret_len(&self) -> usize {
        self.ret.len()
    }

    /// Current epoch (for statistics and tests).
    pub fn current_epoch(&self) -> Epoch {
        self.epoch.current()
    }

    /// Plans an engine run under the configured engine algorithm
    /// (writes-first per §5.2.2, or the strict-epoch-order ablation).
    fn plan(&self, l1: &dyn L1View, upto: Epoch, include: Option<LineAddr>) -> EngineRun {
        if self.cfg.strict_epoch_engine {
            plan_epoch_stages(l1, upto, include)
        } else {
            plan_release_run(l1, upto, include)
        }
    }
}

impl Default for Lrp {
    fn default() -> Self {
        Lrp::new(LrpConfig::default())
    }
}

impl PersistMech for Lrp {
    fn name(&self) -> &'static str {
        "lrp"
    }

    fn on_store(&mut self, l1: &mut dyn L1View, line: LineAddr, kind: StoreKind) -> StoreAction {
        let mut act = StoreAction::default();
        if !kind.is_release() {
            // Plain store (or pure acquire-RMW): buffering only. I3
            // still applies to a successful acquire-RMW.
            if let StoreKind::RmwAcquire { .. } = kind {
                act.persist_line_after = true;
            }
            return act;
        }

        // Release: advance the epoch; the new value is the release-epoch.
        let (rel_epoch, wrapped) = self.epoch.advance();
        self.pending_release = Some(rel_epoch);
        self.emit(MechEvent::EpochAdvance {
            epoch: rel_epoch,
            wrapped,
        });

        if wrapped {
            // Epoch overflow: flush every unpersisted line and restart
            // (§5.2.1). The flush covers the subject line's old contents
            // as well.
            act.flush_before = self.plan(l1, Epoch::MAX, None);
            return act;
        }

        let meta = l1.meta(line);
        if meta.nvm_dirty {
            // The line is not clean: its old contents are persisted
            // first — a release never coalesces with earlier writes
            // (§5.2.2). The release itself need not wait for the ack:
            // ordering against the line's own later flush is guaranteed
            // by the sequencer's pending-persists barrier.
            act.background = if meta.release {
                // The old value is itself a release: persist it with full
                // release ordering (its own engine run).
                self.plan(l1, meta.min_epoch, Some(line))
            } else {
                EngineRun {
                    stages: vec![vec![line]],
                }
            };
        }

        // RET management: drain proactively at the watermark; stall on a
        // genuinely full table.
        if self.ret.full() {
            if let Some((e, l)) = self.ret.oldest() {
                let drain = self.plan(l1, e, Some(l));
                act.flush_before.stages.extend(drain.stages);
                self.emit(MechEvent::RetDrain {
                    line: l,
                    epoch: e,
                    full: true,
                });
            }
        } else if self.ret.at_watermark() {
            if let Some((e, l)) = self.ret.oldest() {
                let drain = self.plan(l1, e, Some(l));
                act.background.stages.extend(drain.stages);
                self.emit(MechEvent::RetDrain {
                    line: l,
                    epoch: e,
                    full: false,
                });
            }
        }

        if let StoreKind::RmwAcquire { .. } = kind {
            // I3: block the pipeline until the RMW's write persists. The
            // write is a release here, so everything it must be ordered
            // after flushes first.
            let prior = self.plan(l1, rel_epoch, None);
            act.flush_before.stages.extend(prior.stages);
            act.persist_line_after = true;
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
            self.ret.insert(line, rel_epoch);
            self.emit(MechEvent::RetInsert {
                line,
                epoch: rel_epoch,
                occupancy: self.ret.len() as u32,
            });
        } else {
            if !meta.nvm_dirty {
                // First write since the line was last persisted: record
                // the epoch of the earliest buffered write.
                meta.nvm_dirty = true;
                meta.min_epoch = self.epoch.current();
            }
            // A dirty line keeps its (older, hence safe) min-epoch and
            // its release bit: new writes coalesce.
        }
        l1.set_meta(line, meta);
    }

    fn on_flush_issued(&mut self, _l1: &mut dyn L1View, line: LineAddr) {
        // The released value was handed to the persist subsystem; squash
        // its RET entry.
        if self.ret.squash_line(line) {
            self.emit(MechEvent::RetSquash {
                line,
                occupancy: self.ret.len() as u32,
            });
        }
    }

    fn on_evict(&mut self, l1: &mut dyn L1View, line: LineAddr) -> EvictAction {
        let meta = l1.meta(line);
        if !meta.nvm_dirty {
            // Coherence-dirty but NVM-clean: nothing to persist.
            return EvictAction::default();
        }
        if meta.release {
            // I1: all earlier writes persist before the released line
            // leaves; the line's own persist (at the directory, I4) is
            // not waited on.
            EvictAction {
                flush_before: self.plan(l1, meta.min_epoch, None),
                background: EngineRun::empty(),
                persist_at_dir: true,
            }
        } else {
            // Only-written: persist off the critical path through the
            // local sequencer (counted in pending-persists, so a later
            // release still orders after it).
            EvictAction {
                flush_before: EngineRun::empty(),
                background: EngineRun {
                    stages: vec![vec![line]],
                },
                persist_at_dir: false,
            }
        }
    }

    fn on_downgrade(&mut self, l1: &mut dyn L1View, line: LineAddr) -> DowngradeAction {
        let meta = l1.meta(line);
        if !meta.nvm_dirty {
            return DowngradeAction {
                line_persisted_locally: true,
                ..DowngradeAction::default()
            };
        }
        if meta.release {
            // I2: the response waits until earlier writes AND the
            // released line itself have persisted.
            DowngradeAction {
                flush_before: self.plan(l1, meta.min_epoch, Some(line)),
                background: EngineRun::empty(),
                line_persisted_locally: true,
                persist_at_dir: false,
            }
        } else {
            // Only-written: respond immediately; the line persists off
            // the critical path through the local sequencer.
            DowngradeAction {
                flush_before: EngineRun::empty(),
                background: EngineRun {
                    stages: vec![vec![line]],
                },
                line_persisted_locally: true,
                persist_at_dir: false,
            }
        }
    }

    /// The plan an epoch wrap runs: only-written lines first, then the
    /// released lines in epoch order.
    fn flush_all(&self, l1: &dyn L1View) -> EngineRun {
        self.plan(l1, Epoch::MAX, None)
    }

    fn scan_cycles(&self) -> u64 {
        self.cfg.scan_cycles
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
    use crate::mech::mock::MockL1;

    fn store(l: &mut Lrp, l1: &mut MockL1, line: LineAddr, kind: StoreKind) -> StoreAction {
        let act = l.on_store(l1, line, kind);
        // Emulate the substrate: materialize all planned flushes
        // (clearing meta and squashing RET), then commit.
        for ln in act
            .flush_before
            .flat()
            .into_iter()
            .chain(act.background.flat())
        {
            let mut m = l1.meta(ln);
            m.nvm_dirty = false;
            m.release = false;
            l1.set_meta(ln, m);
            l.on_flush_issued(l1, ln);
        }
        l.on_store_commit(l1, line, kind);
        act
    }

    #[test]
    fn plain_writes_only_buffer() {
        let mut l = Lrp::default();
        let mut l1 = MockL1::default();
        let act = store(&mut l, &mut l1, 0x10, StoreKind::Plain);
        assert!(act.flush_before.is_empty());
        assert!(!act.persist_line_after);
        let m = l1.meta(0x10);
        assert!(m.nvm_dirty && !m.release);
        assert_eq!(m.min_epoch, 1);
    }

    #[test]
    fn coalescing_keeps_min_epoch() {
        let mut l = Lrp::default();
        let mut l1 = MockL1::default();
        store(&mut l, &mut l1, 0x10, StoreKind::Plain);
        store(&mut l, &mut l1, 0x20, StoreKind::Release); // epoch -> 2
        store(&mut l, &mut l1, 0x10, StoreKind::Plain); // coalesces
        assert_eq!(l1.meta(0x10).min_epoch, 1, "min-epoch preserved");
    }

    #[test]
    fn release_on_clean_line_sets_metadata_and_ret() {
        let mut l = Lrp::default();
        let mut l1 = MockL1::default();
        store(&mut l, &mut l1, 0x10, StoreKind::Plain);
        let act = store(&mut l, &mut l1, 0x20, StoreKind::Release);
        assert!(act.flush_before.is_empty(), "clean line: no persist needed");
        let m = l1.meta(0x20);
        assert!(m.release && m.nvm_dirty);
        assert_eq!(m.min_epoch, 2, "release-epoch is the incremented epoch");
        assert_eq!(l.ret_len(), 1);
        assert_eq!(l.current_epoch(), 2);
    }

    #[test]
    fn release_on_dirty_line_persists_old_value_first() {
        let mut l = Lrp::default();
        let mut l1 = MockL1::default();
        store(&mut l, &mut l1, 0x10, StoreKind::Plain);
        let act = store(&mut l, &mut l1, 0x10, StoreKind::Release);
        assert_eq!(
            act.background.flat(),
            vec![0x10],
            "old contents are handed to the persist subsystem, without a stall"
        );
        assert!(
            act.flush_before.is_empty(),
            "the release itself does not wait"
        );
        let m = l1.meta(0x10);
        assert!(m.release);
        assert_eq!(m.min_epoch, 2);
    }

    #[test]
    fn release_on_released_line_runs_full_engine() {
        let mut l = Lrp::default();
        let mut l1 = MockL1::default();
        store(&mut l, &mut l1, 0x10, StoreKind::Plain); // epoch 1
        store(&mut l, &mut l1, 0x20, StoreKind::Release); // epoch 2
        let act = store(&mut l, &mut l1, 0x20, StoreKind::Release); // epoch 3
                                                                    // The old release on 0x20 must persist with release ordering:
                                                                    // the epoch-1 write first, then the line.
        assert_eq!(act.background.stages.len(), 2);
        assert_eq!(act.background.stages[0], vec![0x10]);
        assert_eq!(act.background.stages[1], vec![0x20]);
        assert_eq!(l.ret_len(), 1, "old entry squashed, new entry allocated");
    }

    #[test]
    fn downgrade_of_release_runs_engine_i2() {
        let mut l = Lrp::default();
        let mut l1 = MockL1::default();
        store(&mut l, &mut l1, 0x10, StoreKind::Plain);
        store(&mut l, &mut l1, 0x18, StoreKind::Plain);
        store(&mut l, &mut l1, 0x20, StoreKind::Release);
        let act = l.on_downgrade(&mut l1, 0x20);
        assert!(act.line_persisted_locally);
        assert!(!act.persist_at_dir);
        let stages = &act.flush_before.stages;
        assert_eq!(stages.len(), 2);
        let mut s0 = stages[0].clone();
        s0.sort_unstable();
        assert_eq!(s0, vec![0x10, 0x18], "prior writes first (parallel)");
        assert_eq!(stages[1], vec![0x20], "the release itself last");
    }

    #[test]
    fn downgrade_of_only_written_line_is_off_critical_path() {
        let mut l = Lrp::default();
        let mut l1 = MockL1::default();
        store(&mut l, &mut l1, 0x10, StoreKind::Plain);
        let act = l.on_downgrade(&mut l1, 0x10);
        assert!(act.flush_before.is_empty(), "the response is not delayed");
        assert_eq!(
            act.background.flat(),
            vec![0x10],
            "the line persists through the local sequencer"
        );
        assert!(act.line_persisted_locally);
        assert!(!act.persist_at_dir);
    }

    #[test]
    fn evict_of_release_waits_for_priors_only_i1() {
        let mut l = Lrp::default();
        let mut l1 = MockL1::default();
        store(&mut l, &mut l1, 0x10, StoreKind::Plain);
        store(&mut l, &mut l1, 0x20, StoreKind::Release);
        let act = l.on_evict(&mut l1, 0x20);
        assert_eq!(act.flush_before.flat(), vec![0x10], "priors, not the line");
        assert!(act.persist_at_dir, "line persists via the write-back");
    }

    #[test]
    fn evict_of_clean_line_is_free() {
        let mut l = Lrp::default();
        let mut l1 = MockL1::default();
        l1.set_meta(
            0x10,
            LineMeta {
                nvm_dirty: false,
                release: false,
                min_epoch: 1,
            },
        );
        let act = l.on_evict(&mut l1, 0x10);
        assert!(act.flush_before.is_empty());
        assert!(act.background.is_empty());
        assert!(!act.persist_at_dir);
    }

    #[test]
    fn rmw_acquire_blocks_for_own_persist_i3() {
        let mut l = Lrp::default();
        let mut l1 = MockL1::default();
        store(&mut l, &mut l1, 0x10, StoreKind::Plain);
        let act = store(
            &mut l,
            &mut l1,
            0x20,
            StoreKind::RmwAcquire { release: true },
        );
        assert!(
            act.persist_line_after,
            "pipeline blocks until the write persists"
        );
        assert_eq!(
            act.flush_before.flat(),
            vec![0x10],
            "release ordering: priors flush first"
        );
    }

    #[test]
    fn pure_acquire_rmw_persists_only_its_line() {
        let mut l = Lrp::default();
        let mut l1 = MockL1::default();
        store(&mut l, &mut l1, 0x10, StoreKind::Plain);
        let act = store(
            &mut l,
            &mut l1,
            0x20,
            StoreKind::RmwAcquire { release: false },
        );
        assert!(act.persist_line_after);
        assert!(act.flush_before.is_empty());
    }

    #[test]
    fn epoch_wrap_flushes_everything() {
        let mut l = Lrp::new(LrpConfig {
            epoch_limit: 3,
            ..LrpConfig::default()
        });
        let mut l1 = MockL1::default();
        store(&mut l, &mut l1, 0x10, StoreKind::Plain); // epoch 1
        store(&mut l, &mut l1, 0x20, StoreKind::Release); // epoch 2
        store(&mut l, &mut l1, 0x30, StoreKind::Release); // epoch 3
        let act = store(&mut l, &mut l1, 0x40, StoreKind::Release); // wrap
        let flushed = act.flush_before.flat();
        assert!(flushed.contains(&0x10));
        assert!(flushed.contains(&0x20));
        assert!(flushed.contains(&0x30));
        assert_eq!(l.current_epoch(), 1, "epochs restart");
        assert_eq!(l.ret_len(), 1, "only the new release remains buffered");
    }

    #[test]
    fn flush_all_runs_the_epoch_wrap_plan() {
        let mut l = Lrp::default();
        let mut l1 = MockL1::default();
        store(&mut l, &mut l1, 0x10, StoreKind::Plain); // epoch 1
        store(&mut l, &mut l1, 0x20, StoreKind::Release); // epoch 2
        store(&mut l, &mut l1, 0x30, StoreKind::Plain); // epoch 2
        store(&mut l, &mut l1, 0x40, StoreKind::Release); // epoch 3
        let run = l.flush_all(&l1);
        assert_eq!(run.stages.len(), 3, "writes, then one stage per release");
        let mut writes = run.stages[0].clone();
        writes.sort_unstable();
        assert_eq!(writes, vec![0x10, 0x30], "only-written lines first");
        assert_eq!(run.stages[1], vec![0x20], "older release next");
        assert_eq!(run.stages[2], vec![0x40], "newest release last");
        assert_eq!(l.current_epoch(), 3, "planning changes no state");
        assert_eq!(l.ret_len(), 2);
    }

    #[test]
    fn ret_watermark_drains_oldest_in_background() {
        let mut l = Lrp::new(LrpConfig {
            ret_capacity: 4,
            ret_watermark: 2,
            ..LrpConfig::default()
        });
        let mut l1 = MockL1::default();
        store(&mut l, &mut l1, 0x10, StoreKind::Release);
        store(&mut l, &mut l1, 0x20, StoreKind::Release);
        // Third release: watermark reached, oldest drains in background.
        let act = l.on_store(&mut l1, 0x30, StoreKind::Release);
        assert!(!act.background.is_empty());
        assert!(
            act.background.flat().contains(&0x10),
            "oldest release drains"
        );
        l.on_store_commit(&mut l1, 0x30, StoreKind::Release);
    }

    #[test]
    fn strict_epoch_engine_ablation_orders_by_epoch() {
        let mut l = Lrp::new(LrpConfig {
            strict_epoch_engine: true,
            ..LrpConfig::default()
        });
        let mut l1 = MockL1::default();
        store(&mut l, &mut l1, 0x10, StoreKind::Plain); // epoch 1
        store(&mut l, &mut l1, 0x20, StoreKind::Release); // epoch 2
        store(&mut l, &mut l1, 0x30, StoreKind::Plain); // epoch 2
        store(&mut l, &mut l1, 0x40, StoreKind::Release); // epoch 3
        let act = l.on_downgrade(&mut l1, 0x40);
        // Strict ordering: epoch 1, then epoch 2 (release + plain
        // together), then the subject line — no writes-first overlap.
        assert_eq!(act.flush_before.stages.len(), 3);
        assert_eq!(act.flush_before.stages[0], vec![0x10]);
        assert_eq!(act.flush_before.stages[2], vec![0x40]);
    }

    /// The events one drain hands out.
    fn drained(l: &mut Lrp) -> Vec<MechEvent> {
        let mut evs = Vec::new();
        l.obs_drain(&mut |batch| evs.extend_from_slice(batch));
        evs
    }

    #[test]
    fn obs_drain_reports_epoch_and_ret_activity() {
        let mut l = Lrp::default();
        let mut l1 = MockL1::default();
        store(&mut l, &mut l1, 0x10, StoreKind::Release);
        assert!(drained(&mut l).is_empty(), "disabled: no buffering");
        l.obs_enable();
        store(&mut l, &mut l1, 0x20, StoreKind::Release);
        l.on_flush_issued(&mut l1, 0x20);
        let evs = drained(&mut l);
        assert!(matches!(
            evs[0],
            MechEvent::EpochAdvance {
                epoch: 3,
                wrapped: false
            }
        ));
        assert!(evs.iter().any(|e| matches!(
            e,
            MechEvent::RetInsert {
                line: 0x20,
                epoch: 3,
                ..
            }
        )));
        assert!(evs
            .iter()
            .any(|e| matches!(e, MechEvent::RetSquash { line: 0x20, .. })));
        assert!(drained(&mut l).is_empty(), "drain empties the buffer");
    }

    #[test]
    fn ret_full_drains_synchronously() {
        let mut l = Lrp::new(LrpConfig {
            ret_capacity: 2,
            ret_watermark: 2,
            ..LrpConfig::default()
        });
        let mut l1 = MockL1::default();
        store(&mut l, &mut l1, 0x10, StoreKind::Release);
        store(&mut l, &mut l1, 0x20, StoreKind::Release);
        let act = store(&mut l, &mut l1, 0x30, StoreKind::Release);
        assert!(
            act.flush_before.flat().contains(&0x10),
            "full RET forces a stalling drain of the oldest release"
        );
        assert_eq!(l.ret_len(), 2);
    }
}
