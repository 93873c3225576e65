//! The persistency-mechanism interface between a timing substrate and a
//! persist-barrier implementation.
//!
//! A mechanism instance is attached to one core's L1 controller. The
//! substrate reports stores, evictions, and downgrades; the mechanism
//! responds with [`EngineRun`]s — staged flush plans — plus stall
//! semantics. Stages execute sequentially (the substrate waits for the
//! core's *pending-persists* counter to drain between stages, exactly the
//! role of the paper's pending-persists counter); lines within a stage
//! flush in parallel.

use lrp_model::LineAddr;

/// Epoch identifier. The paper provisions 8 bits per line; the wrap
/// limit is configurable so overflow handling is testable.
pub type Epoch = u16;

/// Per-L1-line persistency metadata (the paper's Figure 3b).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LineMeta {
    /// The line holds writes not yet handed to the persist subsystem.
    pub nvm_dirty: bool,
    /// The line holds a value written by a release (release-bit).
    pub release: bool,
    /// Epoch of the earliest unpersisted write to the line (min-epoch).
    pub min_epoch: Epoch,
}

/// The mechanism's window into its L1: line metadata only — the
/// mechanism never sees data or addresses beyond line granularity.
pub trait L1View {
    /// Visits every line with `nvm_dirty` set, in the substrate's
    /// line order, without materializing a collection. Engine planning
    /// walks the dirty set through this one method; substrates that
    /// index their dirty set (the simulator's L1) skip clean lines
    /// entirely.
    fn for_each_nvm_dirty(&self, f: &mut dyn FnMut(LineAddr, LineMeta));
    /// Metadata of one resident line (default if not resident).
    fn meta(&self, line: LineAddr) -> LineMeta;
    /// Overwrites one line's metadata.
    fn set_meta(&mut self, line: LineAddr, meta: LineMeta);
}

/// A staged flush plan. Stage `i+1` may issue only after every flush of
/// stage `i` (and anything else in flight for this core) has been acked
/// by the NVM controller.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineRun {
    /// The stages, in order; lines within a stage flush concurrently.
    pub stages: Vec<Vec<LineAddr>>,
}

impl EngineRun {
    /// An empty plan.
    pub fn empty() -> Self {
        EngineRun::default()
    }

    /// True if no flush is requested.
    pub fn is_empty(&self) -> bool {
        self.stages.iter().all(|s| s.is_empty())
    }

    /// Total number of line flushes in the plan.
    pub fn line_count(&self) -> usize {
        self.stages.iter().map(|s| s.len()).sum()
    }

    /// All lines in stage order (test helper).
    pub fn flat(&self) -> Vec<LineAddr> {
        self.stages.iter().flatten().copied().collect()
    }
}

/// What kind of store the L1 performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreKind {
    /// Ordinary store.
    Plain,
    /// Release store (or successful release-RMW).
    Release,
    /// Successful RMW with acquire (and possibly release) semantics —
    /// subject to invariant I3.
    RmwAcquire {
        /// Whether the RMW also releases.
        release: bool,
    },
}

impl StoreKind {
    /// True if the store has release semantics.
    pub fn is_release(self) -> bool {
        matches!(
            self,
            StoreKind::Release | StoreKind::RmwAcquire { release: true }
        )
    }
}

/// Mechanism response to a store.
#[derive(Debug, Clone, Default)]
pub struct StoreAction {
    /// Flushes that must complete (acked) *before* the store's value may
    /// land in the line; the core stalls for them.
    pub flush_before: EngineRun,
    /// Background flushes issued concurrently (proactive flushing); the
    /// core does not wait. Materialized *before* the store lands, so the
    /// plan covers the line's old contents.
    pub background: EngineRun,
    /// Background flushes materialized *after* the store lands (they
    /// cover the store itself) — the delegation path of persist-buffer
    /// designs. The core does not wait.
    pub background_after: EngineRun,
    /// After the store lands, flush this line and stall the core until
    /// the ack arrives (invariant I3 / strict-barrier release).
    pub persist_line_after: bool,
}

/// Mechanism response to the eviction of a dirty line.
#[derive(Debug, Clone, Default)]
pub struct EvictAction {
    /// Flushes that must complete before the write-back may leave the L1
    /// (the evicting miss stalls behind them) — invariant I1.
    pub flush_before: EngineRun,
    /// Flushes issued through the core's own sequencer without waiting
    /// (only-written victims persist off the critical path, but still
    /// count toward pending-persists so later releases order after them).
    pub background: EngineRun,
    /// Whether the write-back must be persisted by the directory (I4 —
    /// released victims, so requests block at the directory until the
    /// line is durable).
    pub persist_at_dir: bool,
}

/// Mechanism response to a coherence downgrade (Fwd-GetS/GetM) of a
/// dirty line.
#[derive(Debug, Clone, Default)]
pub struct DowngradeAction {
    /// Flushes that must complete (acked) before the response may be
    /// sent — invariant I2. If the plan's last stage contains the
    /// downgraded line itself, the line is persisted here.
    pub flush_before: EngineRun,
    /// Flushes issued through the core's sequencer without delaying the
    /// response (only-written lines persist off the critical path).
    pub background: EngineRun,
    /// True if the line's buffered writes persist locally (via
    /// `flush_before` or `background`), so the directory need not
    /// persist the forwarded data again.
    pub line_persisted_locally: bool,
    /// Whether the directory must persist the forwarded data (I4).
    pub persist_at_dir: bool,
}

/// A persist-barrier mechanism attached to one core's L1 controller.
///
/// Stores are reported in two phases: [`PersistMech::on_store`] *plans*
/// the flushes that must complete before the store's value may land
/// (the substrate snapshots flush data at this point, so the plan sees
/// the line's pre-store contents), and [`PersistMech::on_store_commit`]
/// updates metadata once the store has landed.
pub trait PersistMech {
    /// Short name for reports ("lrp", "bb", "sb", "nop").
    fn name(&self) -> &'static str;

    /// A store of `kind` is about to be performed on `line`: plan the
    /// required flushes and stalls. Must not change the line's metadata.
    fn on_store(&mut self, l1: &mut dyn L1View, line: LineAddr, kind: StoreKind) -> StoreAction;

    /// The store has landed (after `flush_before` completed): update the
    /// line's metadata and mechanism state.
    fn on_store_commit(&mut self, l1: &mut dyn L1View, line: LineAddr, kind: StoreKind);

    /// The substrate handed `line`'s buffered writes to the persist
    /// subsystem (flush materialized). Mechanism-internal tracking (RET
    /// entries) for the line must be squashed.
    fn on_flush_issued(&mut self, _l1: &mut dyn L1View, _line: LineAddr) {}

    /// A dirty line is being evicted.
    fn on_evict(&mut self, l1: &mut dyn L1View, line: LineAddr) -> EvictAction;

    /// A dirty line is being downgraded by a coherence request.
    fn on_downgrade(&mut self, l1: &mut dyn L1View, line: LineAddr) -> DowngradeAction;

    /// Plans a full flush of every unpersisted line, for a substrate
    /// that must end durable (a service batch before its acks leave).
    /// The default is the epoch-ordered barrier a strict barrier runs
    /// at a release; the flush goes through the core's sequencer, so it
    /// orders after everything already pending.
    fn flush_all(&self, l1: &dyn L1View) -> EngineRun {
        crate::engine::plan_epoch_stages(l1, Epoch::MAX, None)
    }

    /// Whether the directory persists L1 write-backs and blocks the line
    /// until the persist completes (invariant I4). False only for the
    /// volatile baseline.
    fn dir_persists_writebacks(&self) -> bool {
        true
    }

    /// Fixed cycle cost charged when an engine run scans the L1 (the
    /// persist-engine FSM of §5.2.1 examines every line).
    fn scan_cycles(&self) -> u64 {
        0
    }

    /// True if a store may not land in a line whose previous epoch is
    /// still being flushed (buffered-barrier semantics: lines hold one
    /// epoch at a time). LRP coalesces freely, so the default is false.
    fn forbids_epoch_coalescing(&self) -> bool {
        false
    }

    /// How the critical-path engine classifies the cycles a release
    /// spends between its commit and a demand-free flush issue. Barrier
    /// mechanisms (SB/BB) spend that window draining epochs and
    /// override this to [`lrp_obs::CritSegKind::BarrierDrain`]; lazy
    /// mechanisms defer by design, so the default is release-order
    /// bookkeeping.
    fn crit_drain_kind(&self) -> lrp_obs::CritSegKind {
        lrp_obs::CritSegKind::ReleaseOrder
    }

    /// Enables observability: the mechanism starts buffering
    /// [`lrp_obs::MechEvent`]s for the substrate to drain. Mechanisms
    /// without internal state to report keep the default no-op, so
    /// tracing them costs nothing.
    fn obs_enable(&mut self) {}

    /// Hands buffered mechanism events to `sink`, if there are any
    /// (there are none unless [`obs_enable`] was called), and empties
    /// the buffer, keeping its capacity. The substrate stamps time and
    /// core identity — the mechanism knows neither.
    ///
    /// [`obs_enable`]: PersistMech::obs_enable
    fn obs_drain(&mut self, _sink: &mut dyn FnMut(&[lrp_obs::MechEvent])) {}
}

/// An in-memory [`L1View`] for mechanism unit tests (used by this crate
/// and by `lrp-baselines`).
pub mod mock {
    use super::*;
    use std::collections::BTreeMap;

    /// An in-memory L1View for mechanism unit tests.
    #[derive(Debug, Default)]
    pub struct MockL1 {
        /// Line metadata by line address.
        pub lines: BTreeMap<LineAddr, LineMeta>,
    }

    impl L1View for MockL1 {
        fn for_each_nvm_dirty(&self, f: &mut dyn FnMut(LineAddr, LineMeta)) {
            for (&line, &meta) in self.lines.iter().filter(|(_, m)| m.nvm_dirty) {
                f(line, meta);
            }
        }

        fn meta(&self, line: LineAddr) -> LineMeta {
            self.lines.get(&line).copied().unwrap_or_default()
        }

        fn set_meta(&mut self, line: LineAddr, meta: LineMeta) {
            self.lines.insert(line, meta);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_run_accounting() {
        let r = EngineRun {
            stages: vec![vec![1, 2], vec![], vec![3]],
        };
        assert!(!r.is_empty());
        assert_eq!(r.line_count(), 3);
        assert_eq!(r.flat(), vec![1, 2, 3]);
        assert!(EngineRun::empty().is_empty());
    }

    #[test]
    fn store_kind_release_classification() {
        assert!(StoreKind::Release.is_release());
        assert!(StoreKind::RmwAcquire { release: true }.is_release());
        assert!(!StoreKind::RmwAcquire { release: false }.is_release());
        assert!(!StoreKind::Plain.is_release());
    }

    #[test]
    fn mock_l1_view_round_trips() {
        use mock::MockL1;
        let mut l1 = MockL1::default();
        l1.set_meta(
            5,
            LineMeta {
                nvm_dirty: true,
                release: false,
                min_epoch: 3,
            },
        );
        assert_eq!(l1.meta(5).min_epoch, 3);
        assert_eq!(l1.meta(6), LineMeta::default());
        l1.set_meta(7, LineMeta::default());
        let mut seen = Vec::new();
        l1.for_each_nvm_dirty(&mut |line, meta| seen.push((line, meta.min_epoch)));
        assert_eq!(seen, vec![(5, 3)], "only the nvm-dirty line is visited");
    }
}
