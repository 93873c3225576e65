//! The recorder: one object the timing substrate threads through as an
//! `Option<Recorder>`, so disabled observability costs a single branch
//! per event site.
//!
//! The recorder feeds three independent consumers from the same hook
//! calls: the bounded event ring (export-only, may drop oldest), the
//! online histograms, blame, critical path and time-series sampler
//! (never drop), and the invariant audit counters. The release hooks
//! feed only the critical-path engine, whose `path` histogram is the
//! run's release-to-persist latency.

use crate::audit::InvariantAudit;
use crate::blame::{
    BlameCause, BlameCell, BlameTable, LineKey, SpaceSaving, DEFAULT_SKETCH_CAPACITY,
};
use crate::critpath::{CritPath, CritSegKind};
use crate::event::{EngineState, EventKind, MechEvent, Time, TraceEvent};
use crate::hist::Hist;
use crate::ring::Ring;
use crate::series::{IntervalSample, Sampler};
use crate::stats::{FlushClass, StallCause, Stats};
use crate::summary::ObsSummary;
use lrp_model::{EventId, FxHashMap, LineAddr};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, VecDeque};

/// What to record and how much to keep.
#[derive(Debug, Clone)]
pub struct RecorderConfig {
    /// Maximum events retained in the ring (`0` keeps none — histogram
    /// and audit collection still run).
    pub ring_capacity: usize,
    /// Emit a time-series interval every this many cycles (`0` disables
    /// the time series).
    pub sample_every: u64,
}

impl Default for RecorderConfig {
    fn default() -> Self {
        RecorderConfig {
            ring_capacity: 1 << 16,
            sample_every: 0,
        }
    }
}

impl RecorderConfig {
    /// A histogram/audit-only configuration (no event ring, no time
    /// series) — what campaign cells use, where per-event traces would
    /// be too heavy but latency summaries are wanted.
    pub fn summaries_only() -> RecorderConfig {
        RecorderConfig {
            ring_capacity: 0,
            sample_every: 0,
        }
    }
}

/// Everything one instrumented run produced.
#[derive(Debug, Clone)]
pub struct ObsReport {
    /// Cores the machine ran.
    pub ncores: u32,
    /// Sampling period (0 when the time series was disabled).
    pub sample_every: u64,
    /// Retained trace events, oldest first.
    pub events: Vec<TraceEvent>,
    /// Events the ring evicted or refused.
    pub dropped: u64,
    /// Completed time-series intervals.
    pub intervals: Vec<IntervalSample>,
    /// Highest RET occupancy observed on any core over the whole run.
    pub ret_high_water: u32,
    /// `OpSite` labels referenced by [`TraceEvent::site`] and the blame
    /// table (index 0 = unknown).
    pub site_names: Vec<String>,
    /// Histograms, blame, critical path and audit: what consumers merge.
    pub summary: ObsSummary,
}

/// One flush issue awaiting its ack: issue time, site and class.
type FlushIssue = (Time, u16, FlushClass);

/// Outstanding flush issues of one (core, line), oldest first. The
/// oldest sits inline, so a line with one flush in flight, the common
/// case, allocates nothing.
#[derive(Debug)]
struct FlushIssueFifo {
    oldest: FlushIssue,
    rest: VecDeque<FlushIssue>,
}

/// A blame sketch key with the site interned as its name's rank.
type RankedLineKey = (u32, BlameCause, LineAddr);

/// `OpSite` labels interned for blame: each site index maps to the rank
/// of its name among the sorted distinct names (`"unknown"` included),
/// so rank order is name order and charges copy keys, never strings.
#[derive(Debug)]
struct SiteRanks {
    /// Distinct names, sorted; a rank indexes here.
    names: Vec<String>,
    /// Rank of each site index's name.
    of_site: Vec<u32>,
    /// Rank of `"unknown"`, which out-of-range sites charge.
    unknown: u32,
}

impl SiteRanks {
    /// Interns `site_names` and `"unknown"`.
    fn new(site_names: &[String]) -> SiteRanks {
        let mut names = site_names.to_vec();
        names.push("unknown".to_string());
        names.sort_unstable();
        names.dedup();
        let mut ranks = SiteRanks {
            names,
            of_site: Vec::new(),
            unknown: 0,
        };
        ranks.of_site = site_names.iter().map(|n| ranks.rank(n)).collect();
        ranks.unknown = ranks.rank("unknown");
        ranks
    }

    fn rank(&self, name: &str) -> u32 {
        let r = self.names.binary_search_by(|n| n.as_str().cmp(name));
        r.expect("every name is interned") as u32
    }

    fn of(&self, site: u16) -> u32 {
        self.of_site
            .get(site as usize)
            .copied()
            .unwrap_or(self.unknown)
    }

    fn name(&self, rank: u32) -> String {
        self.names[rank as usize].clone()
    }

    /// Renders rank-keyed blame as the site-named table, equal to the
    /// one charging every key by name through [`BlameTable::charge`].
    fn blame_table(
        &self,
        exact: BTreeMap<(u32, BlameCause), BlameCell>,
        sketch: SpaceSaving<RankedLineKey>,
    ) -> BlameTable {
        BlameTable {
            exact: exact
                .into_iter()
                .map(|((rank, cause), cell)| ((self.name(rank), cause), cell))
                .collect(),
            sketch: sketch.map_keys(|(rank, cause, line)| LineKey {
                site: self.name(rank),
                cause,
                line,
            }),
        }
    }
}

/// Collects events, metrics, and audits during one simulation run.
#[derive(Debug)]
pub struct Recorder {
    ncores: u32,
    sample_every: u64,
    ring: Ring<TraceEvent>,
    sampler: Option<Sampler>,
    flush_to_ack: Hist,
    ret_residency: Hist,
    /// FIFO of issue (time, site, class) per (core, line): acks match
    /// the oldest issue.
    open_flush: FxHashMap<(u32, LineAddr), FlushIssueFifo>,
    /// RET entry times per (core, line).
    ret_entered: FxHashMap<(u32, LineAddr), Time>,
    engine: Vec<EngineState>,
    /// I1–I4 audit counters; the substrate calls its observation
    /// methods directly at each enforcement point.
    pub audit: InvariantAudit,
    ret_high_water: u32,
    /// Exact blame per `(site rank, cause)`; rendered at `finish`.
    blame_exact: BTreeMap<(u32, BlameCause), BlameCell>,
    /// Per-line blame heavy hitters over rank-interned keys.
    blame_sketch: SpaceSaving<RankedLineKey>,
    site_names: Vec<String>,
    site_ranks: SiteRanks,
    /// The site each core is currently executing (set by the substrate).
    core_site: Vec<u16>,
    /// A RET-full drain was observed on this core and not yet consumed
    /// by a store-side stall: the next store-drain stall is RET blame.
    ret_full_pending: Vec<bool>,
    /// Durability critical-path engine: the release-to-persist clock.
    crit: CritPath,
}

impl Recorder {
    /// A recorder for a machine with `ncores` hardware threads replaying
    /// a trace whose `OpSite` intern table is `site_names`, under a
    /// mechanism whose demand-free flush-issue waits are `drain_kind`
    /// (barrier mechanisms spend them draining epochs; lazy mechanisms
    /// defer by design).
    pub fn new(
        cfg: RecorderConfig,
        ncores: u32,
        site_names: Vec<String>,
        drain_kind: CritSegKind,
    ) -> Recorder {
        Recorder {
            ncores,
            sample_every: cfg.sample_every,
            ring: Ring::new(cfg.ring_capacity),
            sampler: (cfg.sample_every > 0).then(|| Sampler::new(cfg.sample_every)),
            flush_to_ack: Hist::new(),
            ret_residency: Hist::new(),
            open_flush: FxHashMap::default(),
            ret_entered: FxHashMap::default(),
            engine: vec![EngineState::Idle; ncores as usize],
            audit: InvariantAudit::new(),
            ret_high_water: 0,
            blame_exact: BTreeMap::new(),
            blame_sketch: SpaceSaving::new(DEFAULT_SKETCH_CAPACITY),
            site_ranks: SiteRanks::new(&site_names),
            site_names,
            core_site: vec![0; ncores as usize],
            ret_full_pending: vec![false; ncores as usize],
            crit: CritPath::new(drain_kind),
        }
    }

    /// The substrate reports the site `core` is currently executing.
    pub fn set_core_site(&mut self, core: u32, site: u16) {
        self.core_site[core as usize] = site;
    }

    fn push(&mut self, t: Time, core: u32, kind: EventKind) {
        let site = self.core_site[core as usize];
        self.push_at_site(t, core, site, kind);
    }

    fn push_at_site(&mut self, t: Time, core: u32, site: u16, kind: EventKind) {
        self.ring.push(TraceEvent {
            t,
            core,
            site,
            kind,
        });
    }

    fn charge(&mut self, site: u16, cause: BlameCause, line: LineAddr, cycles: u64) {
        let rank = self.site_ranks.of(site);
        let cell = self.blame_exact.entry((rank, cause)).or_default();
        cell.count += 1;
        cell.cycles = cell.cycles.saturating_add(cycles);
        self.blame_sketch.add((rank, cause, line), cycles);
    }

    /// A core began stalling.
    pub fn stall_begin(&mut self, t: Time, core: u32, cause: StallCause) {
        self.push(t, core, EventKind::StallBegin { cause });
    }

    /// A core resumed after `cycles` stalled on `cause`. `line` is the
    /// cache line the stall waited on when known; `mech_wait` is true
    /// when the head of the store queue was held up by a mechanism
    /// flush barrier while the stall ended.
    ///
    /// Attribution refinement (observation-only; [`Stats`] stays keyed
    /// by the raw cause): a store-side stall with a pending RET-full
    /// drain is charged as [`BlameCause::RetFull`]; otherwise a
    /// store-side stall behind a barrier is [`BlameCause::BarrierDrain`].
    pub fn stall_end(
        &mut self,
        t: Time,
        core: u32,
        cause: StallCause,
        cycles: Time,
        line: Option<LineAddr>,
        mech_wait: bool,
    ) {
        let blame = if cause == StallCause::StoreDrain && self.ret_full_pending[core as usize] {
            self.ret_full_pending[core as usize] = false;
            BlameCause::RetFull
        } else if cause == StallCause::StoreDrain && mech_wait {
            BlameCause::BarrierDrain
        } else {
            BlameCause::Stall(cause)
        };
        let site = self.core_site[core as usize];
        self.charge(site, blame, line.unwrap_or(0), cycles);
        self.push(t, core, EventKind::StallEnd { cause, cycles });
    }

    /// A line flush was issued toward the NVM controllers on behalf of
    /// the op at `site` (the store that materialized the flush).
    /// `covered` are the writes the flush carries; open critical-path
    /// chains among them capture the issue as their interior milestone,
    /// classified here: a synchronisation-demanded flush is a coherence
    /// transfer, an unconsumed RET-full drain marks capacity pressure,
    /// and anything else is the mechanism's drain kind.
    pub fn flush_issue(
        &mut self,
        t: Time,
        core: u32,
        line: LineAddr,
        class: FlushClass,
        site: u16,
        covered: &[EventId],
    ) {
        let kind = if matches!(class, FlushClass::Sync | FlushClass::Directory) {
            CritSegKind::CoherenceXfer
        } else if self.ret_full_pending[core as usize] {
            CritSegKind::RetFull
        } else {
            self.crit.drain_kind()
        };
        self.crit.flush_issued(t, kind, covered);
        let issue = (t, site, class);
        match self.open_flush.entry((core, line)) {
            Entry::Occupied(mut e) => e.get_mut().rest.push_back(issue),
            Entry::Vacant(e) => {
                e.insert(FlushIssueFifo {
                    oldest: issue,
                    rest: VecDeque::new(),
                });
            }
        }
        self.push_at_site(t, core, site, EventKind::FlushIssue { line, class });
    }

    /// A flush ack arrived for `line` at `core`; persist latency is
    /// charged to the issuing site.
    pub fn flush_ack(&mut self, t: Time, core: u32, line: LineAddr) {
        let (latency, site) = match self.open_flush.entry((core, line)) {
            Entry::Occupied(mut e) => {
                let (issued, site, class) = match e.get_mut().rest.pop_front() {
                    Some(next) => std::mem::replace(&mut e.get_mut().oldest, next),
                    None => e.remove().oldest,
                };
                let latency = t.saturating_sub(issued);
                self.charge(site, BlameCause::Flush(class), line, latency);
                (latency, site)
            }
            Entry::Vacant(_) => (0, self.core_site[core as usize]),
        };
        self.flush_to_ack.record(latency);
        self.push_at_site(t, core, site, EventKind::FlushAck { line, latency });
    }

    /// A release store committed (left the store buffer into the L1):
    /// `ev`'s critical-path chain opens.
    pub fn release_committed(&mut self, t: Time, ev: EventId) {
        self.crit.release_committed(t, ev);
    }

    /// Writes `covered` just persisted; releases among them retire their
    /// chains, recording their release-to-persist latency.
    pub fn persisted(&mut self, t: Time, covered: &[EventId]) {
        self.crit.persisted(t, covered);
    }

    /// Coherence downgraded a released line: a release→acquire
    /// synchronisation between `core` (the releaser) and `acquirer`.
    pub fn sync_detected(&mut self, t: Time, core: u32, line: LineAddr, acquirer: u32) {
        self.push(t, core, EventKind::SyncDetected { line, acquirer });
    }

    /// The persist-engine FSM at `core` moved to `to` (consecutive
    /// duplicates are elided).
    pub fn engine_state(&mut self, t: Time, core: u32, to: EngineState) {
        let from = self.engine[core as usize];
        if from == to {
            return;
        }
        self.engine[core as usize] = to;
        self.push(t, core, EventKind::Engine { from, to });
    }

    /// Drained mechanism events from `core`, stamped at `t`.
    pub fn mech_events(&mut self, t: Time, core: u32, events: &[MechEvent]) {
        for &ev in events {
            match ev {
                MechEvent::RetInsert {
                    line, occupancy, ..
                } => {
                    self.ret_entered.insert((core, line), t);
                    self.note_ret_occupancy(occupancy);
                }
                MechEvent::RetSquash { line, occupancy } => {
                    if let Some(entered) = self.ret_entered.remove(&(core, line)) {
                        self.ret_residency.record(t.saturating_sub(entered));
                    }
                    self.note_ret_occupancy(occupancy);
                }
                MechEvent::RetDrain { full: true, .. } => {
                    self.ret_full_pending[core as usize] = true;
                }
                MechEvent::EpochAdvance { .. } | MechEvent::RetDrain { .. } => {}
            }
            self.push(t, core, EventKind::Mech(ev));
        }
    }

    fn note_ret_occupancy(&mut self, occ: u32) {
        self.ret_high_water = self.ret_high_water.max(occ);
        if let Some(s) = self.sampler.as_mut() {
            s.note_ret_occupancy(occ);
        }
    }

    /// Closes a time-series interval if `now` crossed a boundary.
    pub fn maybe_sample(&mut self, now: Time, stats: &Stats) {
        if let Some(s) = self.sampler.as_mut() {
            s.maybe_sample(now, stats);
        }
    }

    /// Finalises the run into its report.
    pub fn finish(mut self, now: Time, stats: &Stats) -> ObsReport {
        if let Some(s) = self.sampler.as_mut() {
            s.finish(now, stats);
        }
        ObsReport {
            ncores: self.ncores,
            sample_every: self.sample_every,
            dropped: self.ring.dropped(),
            events: self.ring.into_vec(),
            intervals: self.sampler.map(|s| s.intervals).unwrap_or_default(),
            ret_high_water: self.ret_high_water,
            site_names: self.site_names,
            summary: ObsSummary {
                flush_to_ack: self.flush_to_ack,
                ret_residency: self.ret_residency,
                blame: self
                    .site_ranks
                    .blame_table(self.blame_exact, self.blame_sketch),
                crit: self.crit.finish(now),
                audit: self.audit,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A recorder over `names` under a lazy mechanism.
    fn recorder(cfg: RecorderConfig, ncores: u32, names: &[&str]) -> Recorder {
        let names = names.iter().map(|n| n.to_string()).collect();
        Recorder::new(cfg, ncores, names, CritSegKind::ReleaseOrder)
    }

    #[test]
    fn flush_latency_matches_issue_to_ack() {
        let mut r = recorder(RecorderConfig::default(), 2, &[]);
        r.flush_issue(100, 0, 0x40, FlushClass::Critical, 0, &[]);
        r.flush_issue(110, 0, 0x40, FlushClass::Background, 0, &[]);
        r.flush_ack(220, 0, 0x40); // matches the t=100 issue
        r.flush_ack(300, 0, 0x40); // matches the t=110 issue
        let report = r.finish(400, &Stats::default());
        assert_eq!(report.summary.flush_to_ack.count, 2);
        assert_eq!(report.summary.flush_to_ack.min(), 120);
        assert_eq!(report.summary.flush_to_ack.max(), 190);
    }

    #[test]
    fn flush_blame_charges_the_issuing_site() {
        let mut r = recorder(
            RecorderConfig::default(),
            1,
            &["unknown", "queue/enqueue/link-next"],
        );
        r.flush_issue(100, 0, 0x40, FlushClass::Critical, 1, &[]);
        r.flush_ack(220, 0, 0x40);
        let report = r.finish(400, &Stats::default());
        assert_eq!(
            report.summary.blame.cycles_for(
                "queue/enqueue/link-next",
                BlameCause::Flush(FlushClass::Critical)
            ),
            120
        );
    }

    #[test]
    fn store_stall_after_ret_full_drain_is_ret_blame() {
        let mut r = recorder(RecorderConfig::default(), 1, &["unknown", "q/enq"]);
        r.set_core_site(0, 1);
        r.mech_events(
            10,
            0,
            &[MechEvent::RetDrain {
                line: 0x40,
                epoch: 3,
                full: true,
            }],
        );
        r.stall_begin(10, 0, StallCause::StoreDrain);
        r.stall_end(90, 0, StallCause::StoreDrain, 80, Some(0x40), true);
        // The pending flag is consumed: the next barrier stall is not RET.
        r.stall_begin(100, 0, StallCause::StoreDrain);
        r.stall_end(150, 0, StallCause::StoreDrain, 50, Some(0x80), true);
        // Non-store stalls keep their raw cause.
        r.stall_end(200, 0, StallCause::LoadMiss, 30, Some(0xC0), false);
        let report = r.finish(300, &Stats::default());
        assert_eq!(
            report
                .summary
                .blame
                .cycles_for("q/enq", BlameCause::RetFull),
            80
        );
        assert_eq!(
            report
                .summary
                .blame
                .cycles_for("q/enq", BlameCause::BarrierDrain),
            50
        );
        assert_eq!(
            report
                .summary
                .blame
                .cycles_for("q/enq", BlameCause::Stall(StallCause::LoadMiss)),
            30
        );
    }

    #[test]
    fn rank_interned_blame_equals_charging_by_name() {
        // The table is unsorted, duplicated, with "unknown" not at index
        // 0; sites past its end charge "unknown".
        let names = ["z/op", "unknown", "a/op", "z/op", "m/op/phase"];
        let mut r = recorder(RecorderConfig::summaries_only(), 1, &names);
        let mut want = BlameTable::default();
        for i in 0..2000u64 {
            let site = (i % 7) as u16;
            let line = (i * 2654435761) % 900 * 64;
            let cycles = i % 5;
            r.set_core_site(0, site);
            let (cause, mech_wait, blame) = if i % 3 == 0 {
                (StallCause::StoreDrain, true, BlameCause::BarrierDrain)
            } else {
                let c = StallCause::LoadMiss;
                (c, false, BlameCause::Stall(c))
            };
            r.stall_end(i, 0, cause, cycles, Some(line), mech_wait);
            let name = names.get(site as usize).copied().unwrap_or("unknown");
            want.charge(name, blame, line, cycles);
        }
        let report = r.finish(5000, &Stats::default());
        assert!(want.sketch.evictions() > 0, "the stream must evict");
        assert_eq!(report.summary.blame, want);
    }

    #[test]
    fn events_carry_the_core_site() {
        let mut r = recorder(RecorderConfig::default(), 1, &["unknown", "hashmap/insert"]);
        r.stall_begin(5, 0, StallCause::LoadMiss);
        r.set_core_site(0, 1);
        r.stall_begin(10, 0, StallCause::LoadMiss);
        let report = r.finish(20, &Stats::default());
        assert_eq!(report.events[0].site, 0);
        assert_eq!(report.events[1].site, 1);
        assert_eq!(report.site_names[1], "hashmap/insert");
    }

    #[test]
    fn release_to_persist_tracks_only_releases() {
        let mut r = recorder(RecorderConfig::default(), 1, &[]);
        r.release_committed(50, 7);
        r.persisted(170, &[3, 7, 9]); // 3 and 9 are plain writes
        r.persisted(400, &[7]); // already measured: ignored
        let report = r.finish(500, &Stats::default());
        assert_eq!(report.summary.crit.path.count, 1);
        assert_eq!(report.summary.crit.path.max(), 120);
    }

    #[test]
    fn ret_residency_and_high_water() {
        let mut r = recorder(RecorderConfig::default(), 1, &[]);
        r.mech_events(
            10,
            0,
            &[MechEvent::RetInsert {
                line: 0x80,
                epoch: 1,
                occupancy: 5,
            }],
        );
        r.mech_events(
            90,
            0,
            &[MechEvent::RetSquash {
                line: 0x80,
                occupancy: 4,
            }],
        );
        let report = r.finish(100, &Stats::default());
        assert_eq!(report.summary.ret_residency.count, 1);
        assert_eq!(report.summary.ret_residency.max(), 80);
        assert_eq!(report.ret_high_water, 5);
    }

    #[test]
    fn engine_transitions_elide_duplicates() {
        let mut r = recorder(RecorderConfig::default(), 1, &[]);
        r.engine_state(10, 0, EngineState::Scan);
        r.engine_state(20, 0, EngineState::Scan);
        r.engine_state(30, 0, EngineState::Flush);
        r.engine_state(40, 0, EngineState::Idle);
        let report = r.finish(50, &Stats::default());
        let transitions: Vec<_> = report
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Engine { .. }))
            .collect();
        assert_eq!(transitions.len(), 3);
    }

    #[test]
    fn critpath_classifies_sync_ret_and_drain_issues() {
        let mut r = Recorder::new(
            RecorderConfig::default(),
            1,
            Vec::new(),
            CritSegKind::BarrierDrain,
        );
        // Sync-class issue: the pre-issue wait is a coherence transfer.
        r.release_committed(0, 1);
        r.flush_issue(20, 0, 0x40, FlushClass::Sync, 0, &[1]);
        r.persisted(50, &[1]);
        // Unconsumed RET-full drain: capacity pressure.
        r.mech_events(
            60,
            0,
            &[MechEvent::RetDrain {
                line: 0x80,
                epoch: 1,
                full: true,
            }],
        );
        r.release_committed(60, 2);
        r.flush_issue(70, 0, 0x80, FlushClass::Critical, 0, &[2]);
        r.persisted(100, &[2]);
        // Plain critical issue: the mechanism's drain kind.
        r.ret_full_pending[0] = false;
        r.release_committed(100, 3);
        r.flush_issue(130, 0, 0xC0, FlushClass::Critical, 0, &[3]);
        r.persisted(200, &[3]);
        let report = r.finish(300, &Stats::default());
        let crit = report.summary.crit;
        assert_eq!(crit.paths(), 3);
        assert_eq!(crit.seg_cycles[CritSegKind::CoherenceXfer.idx()], 20);
        assert_eq!(crit.seg_cycles[CritSegKind::RetFull.idx()], 10);
        assert_eq!(crit.seg_cycles[CritSegKind::BarrierDrain.idx()], 30);
        assert_eq!(crit.seg_cycles[CritSegKind::NvmQueue.idx()], 30 + 30 + 70);
        assert_eq!(crit.audit.total_violations(), 0);
    }

    #[test]
    fn summaries_only_keeps_no_events_but_all_metrics() {
        let mut r = recorder(RecorderConfig::summaries_only(), 1, &[]);
        r.flush_issue(0, 0, 0x40, FlushClass::Sync, 0, &[]);
        r.flush_ack(120, 0, 0x40);
        let report = r.finish(200, &Stats::default());
        assert!(report.events.is_empty());
        assert_eq!(report.summary.flush_to_ack.count, 1);
        assert!(report.intervals.is_empty());
        assert!(
            !report.summary.blame.is_empty(),
            "blame survives summaries-only mode"
        );
    }
}
