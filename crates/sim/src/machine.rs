//! The discrete-event machine: replay cores, L1 controllers with
//! pluggable persistency mechanisms, a directory-based MESI protocol
//! with per-line blocking, NVM controllers, and the per-core flush
//! sequencer that models the paper's pending-persists counter.
//!
//! # Protocol overview
//!
//! The directory (embedded in the LLC banks) serializes transactions per
//! line: while a transaction is in flight the line is *busy* and later
//! requests queue, which keeps the L1 side simple (no ack counting at
//! requestors, no NACK livelock). Races between evictions and forwards
//! are reconciled at the directory: an L1 that already evicted a line
//! answers a forward with a *stale* response, and the directory pairs it
//! with the in-flight `PutM`.
//!
//! # Persistency integration
//!
//! Stores report to the mechanism in two phases (plan, then commit once
//! `flush_before` drained). Flush plans materialize immediately: each
//! planned line's buffered writes are *taken* (handing them to the
//! persist subsystem and clearing the line's metadata), so overlapping
//! plans never duplicate work. The sequencer executes one job at a
//! time, stage by stage, draining the core's pending-persists counter
//! between stages — releases therefore persist strictly after everything
//! the mechanism ordered before them, and the recorded
//! [`PersistSchedule`] can be validated against the RP rules.

use crate::cache::{CohState, L1Cache, L1ViewAdapter};
use crate::config::SimConfig;
use crate::evq::EventWheel;
use crate::stats::{FlushClass, StallCause, Stats};
use lrp_core::mech::{EngineRun, PersistMech, StoreKind};
use lrp_model::spec::PersistSchedule;
use lrp_model::{EventId, EventKind, FxHashMap, LineAddr, Trace};
use lrp_obs::{CritSegKind, EngineState, ObsReport, Recorder, RecorderConfig};
use std::collections::VecDeque;

// ---------------------------------------------------------------------
// Messages and events
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Msg {
    GetS {
        core: usize,
    },
    GetM {
        core: usize,
    },
    PutM {
        core: usize,
        covered: Vec<EventId>,
        dirty: bool,
        persist: bool,
    },
    FwdGetS {
        requester: usize,
    },
    FwdGetM {
        requester: usize,
    },
    Inv,
    InvAck,
    DownResp(DownRespData),
    Data {
        state: CohState,
    },
    PutAck,
    NvmReadDone,
    DirPersistDone,
}

#[derive(Debug, Clone)]
struct DownRespData {
    covered: Vec<EventId>,
    dirty: bool,
    persist_at_dir: bool,
    stale: bool,
    putm_coming: bool,
    kept_shared: bool,
}

#[derive(Debug, Clone)]
enum Ev {
    CoreStep(usize),
    StoreStep(usize),
    JobStep(usize),
    L1Msg(usize, LineAddr, Msg),
    DirMsg(LineAddr, Msg),
    NvmDone(usize, NvmReq),
}

/// Wheel-resident form of [`Ev`]: 16 bytes, `Copy`. The frequent
/// core/store/job steps encode entirely inline; message payloads park
/// in the machine's recycled [`MsgSlot`] pool and travel as a slot
/// index, so every queue push/pop/compact moves a quarter of the bytes
/// the full enum would.
#[derive(Clone, Copy)]
struct PackedEv {
    /// [`Ev`] variant discriminant (0..=5, declaration order).
    tag: u8,
    /// Core / controller index for the variants that carry one.
    unit: u8,
    /// Pool slot for `L1Msg` / `DirMsg` / `NvmDone`, else unused.
    slot: u32,
    /// Line address for `L1Msg` / `DirMsg`, else unused.
    line: LineAddr,
}

/// One parked message payload (see [`PackedEv::slot`]).
enum MsgSlot {
    Empty,
    Msg(Msg),
    Nvm(NvmReq),
}

#[derive(Debug, Clone)]
struct NvmReq {
    line: LineAddr,
    covered: Vec<EventId>,
    origin: NvmOrigin,
}

#[derive(Debug, Clone)]
enum NvmOrigin {
    /// Engine flush from a core's sequencer.
    CoreFlush(usize),
    /// Directory-side write-back persist (I4).
    DirPersist,
    /// Line fetch from NVM on an LLC miss.
    DirRead,
}

// ---------------------------------------------------------------------
// Core (trace replay)
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CoreState {
    Ready { at: u64 },
    WaitRf,
    WaitLoad { line: LineAddr },
    WaitStoreSlot,
    WaitLocalDrain,
    WaitRmw,
    Done,
}

/// A trace event in replay-hot form: exactly the fields `core_step`
/// consults, with the line address, `OpSite` index, and annotation
/// bits precomputed. 24 bytes against `Event`'s 48 — the per-step
/// fetch reads half the memory and skips the `line_of` /
/// `event_sites` lookups on the hottest path in the simulator.
#[derive(Debug, Clone, Copy)]
struct ReplayOp {
    line: LineAddr,
    id: EventId,
    /// Producer event id + 1 (`0` = reads the initial image).
    rf_plus1: u32,
    site: u16,
    kind: EventKind,
    release: bool,
    acquire: bool,
}

#[derive(Debug)]
struct Core {
    ops: Vec<ReplayOp>,
    pc: usize,
    state: CoreState,
    store_q: VecDeque<StoreTask>,
    finish: Option<u64>,
    stall_since: u64,
    stall_cause: Option<StallCause>,
    /// `OpSite` index of the op this core is currently executing
    /// (attribution only — never consulted for timing).
    cur_site: u16,
    /// Line the current stall waits on, for per-line blame.
    stall_line: Option<LineAddr>,
    /// The current stall spent time behind a mechanism-ordered flush
    /// (head store task reached Flushing/WaitAck while stalled).
    stall_mech: bool,
}

#[derive(Debug)]
struct StoreTask {
    ev: EventId,
    line: LineAddr,
    kind: StoreKind,
    phase: StorePhase,
    is_rmw: bool,
    persist_after: bool,
    /// Delegation flush to materialize once the store has landed.
    background_after: EngineRun,
    /// Parked behind an in-flight flush of its line (residual conflict).
    parked: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StorePhase {
    NeedM,
    WaitM,
    Flushing,
    WaitAck,
}

// ---------------------------------------------------------------------
// Flush sequencer
// ---------------------------------------------------------------------

#[derive(Debug)]
struct FlushDesc {
    line: LineAddr,
    covered: Vec<EventId>,
    /// `OpSite` blamed for the flush: the site of the write that first
    /// dirtied the line (falls back to the issuing core's current site).
    site: u16,
}

#[derive(Debug)]
enum JobDone {
    None,
    StoreReady,
    RmwAck,
    Evict {
        victim: LineAddr,
    },
    Downgrade {
        line: LineAddr,
        is_gets: bool,
        /// The downgraded line held a dirty release (audited as I2).
        was_release: bool,
    },
}

#[derive(Debug)]
struct Job {
    stages: VecDeque<Vec<FlushDesc>>,
    done: JobDone,
    class: FlushClass,
    scan_charged: bool,
    issued_any: bool,
}

#[derive(Debug, Default)]
struct Sequencer {
    jobs: VecDeque<Job>,
    pending: u64,
    /// True when a JobStep event is already scheduled (avoid duplicates).
    armed: bool,
}

// ---------------------------------------------------------------------
// L1 controller
// ---------------------------------------------------------------------

struct L1 {
    cache: L1Cache,
    mech: Box<dyn PersistMech>,
    seq: Sequencer,
    /// Eviction buffer. A handful of entries at most (bounded by misses
    /// with write-backs in flight), so a linear-scan `Vec` beats a hash
    /// table.
    evict_buf: Vec<(LineAddr, EvictEntry)>,
    deferred: Vec<(LineAddr, Msg)>,
    /// Lines with engine flushes in flight (issue → ack), with a count
    /// each. Mechanisms that forbid epoch coalescing (BB) stall stores
    /// to such lines — the residual conflict wait that proactive
    /// flushing leaves behind. Bounded by `flush_mshrs`, linear scan.
    inflight: Vec<(LineAddr, u32)>,
    /// Lines with a downgrade in progress (engine run before the
    /// response). New stores to such a line wait: the line is being
    /// handed to the requester and must not absorb writes the response
    /// would otherwise carry away unpersisted.
    downgrading: Vec<LineAddr>,
}

impl L1 {
    fn evict_get(&self, line: LineAddr) -> Option<&EvictEntry> {
        self.evict_buf
            .iter()
            .find(|(l, _)| *l == line)
            .map(|(_, e)| e)
    }

    fn evict_get_mut(&mut self, line: LineAddr) -> Option<&mut EvictEntry> {
        self.evict_buf
            .iter_mut()
            .find(|(l, _)| *l == line)
            .map(|(_, e)| e)
    }

    fn evict_insert(&mut self, line: LineAddr, entry: EvictEntry) {
        debug_assert!(self.evict_get(line).is_none(), "evict entry exists");
        self.evict_buf.push((line, entry));
    }

    fn evict_remove(&mut self, line: LineAddr) {
        if let Some(i) = self.evict_buf.iter().position(|(l, _)| *l == line) {
            self.evict_buf.swap_remove(i);
        }
    }

    fn inflight_contains(&self, line: LineAddr) -> bool {
        self.inflight.iter().any(|(l, _)| *l == line)
    }

    fn inflight_inc(&mut self, line: LineAddr) {
        if let Some((_, n)) = self.inflight.iter_mut().find(|(l, _)| *l == line) {
            *n += 1;
        } else {
            self.inflight.push((line, 1));
        }
    }

    /// Decrements the line's in-flight count; true when the line had an
    /// entry that just drained to zero.
    fn inflight_dec(&mut self, line: LineAddr) -> bool {
        let Some(i) = self.inflight.iter().position(|(l, _)| *l == line) else {
            return false;
        };
        self.inflight[i].1 -= 1;
        if self.inflight[i].1 == 0 {
            self.inflight.swap_remove(i);
            true
        } else {
            false
        }
    }
}

#[derive(Debug)]
struct EvictEntry {
    covered: Vec<EventId>,
    dirty: bool,
    persist: bool,
    sent: bool,
}

// ---------------------------------------------------------------------
// Directory
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
enum DirState {
    Uncached,
    Shared(Vec<usize>),
    Owned(usize),
}

#[derive(Debug)]
struct DirLine {
    state: DirState,
    in_llc: bool,
    busy: Option<Trans>,
    queue: VecDeque<Msg>,
}

impl Default for DirLine {
    fn default() -> Self {
        DirLine {
            state: DirState::Uncached,
            in_llc: false,
            busy: None,
            queue: VecDeque::new(),
        }
    }
}

#[derive(Debug)]
struct Trans {
    requester: usize,
    is_getm: bool,
    phase: TransPhase,
    putm_stash: Option<(Vec<EventId>, bool, bool)>,
    putack_to: Option<usize>,
}

#[derive(Debug, PartialEq, Eq)]
enum TransPhase {
    NvmFetch,
    AwaitDownResp,
    AwaitStalePutm { kept_shared: bool },
    AwaitInvAcks(usize),
    AwaitPersist,
    AwaitPutPersist,
}

// ---------------------------------------------------------------------
// NVM controller
// ---------------------------------------------------------------------

#[derive(Debug, Default)]
struct Nvm {
    next_free: u64,
}

/// One completed NVM flush.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PersistRecord {
    /// Global flush sequence number (the persist stamp).
    pub stamp: u64,
    /// Completion cycle.
    pub time: u64,
    /// The flushed line.
    pub line: LineAddr,
    /// Write events made durable by this flush.
    pub covered: Vec<EventId>,
}

/// Everything a run produces.
#[derive(Debug)]
pub struct RunResult {
    /// Timing and event statistics.
    pub stats: Stats,
    /// Persist stamps per write event (validated against RP in tests).
    pub schedule: PersistSchedule,
    /// The full flush log in completion order (crash-point sampling).
    pub persist_log: Vec<PersistRecord>,
    /// Observability report, present iff the run was instrumented via
    /// [`Sim::with_recorder`].
    pub obs: Option<ObsReport>,
}

// ---------------------------------------------------------------------
// The machine
// ---------------------------------------------------------------------

/// The simulated machine, constructed from a config and a trace it
/// borrows for the run.
pub struct Sim<'t> {
    cfg: SimConfig,
    now: u64,
    seq: u64,
    /// Calendar-wheel event queue with inline payloads — see
    /// [`crate::evq`] for the ordering argument.
    evq: EventWheel<PackedEv>,
    /// Parked message payloads for queued [`PackedEv`]s, with a free
    /// list so slots recycle instead of allocating.
    msg_pool: Vec<MsgSlot>,
    msg_free: Vec<u32>,
    cores: Vec<Core>,
    l1s: Vec<L1>,
    /// Directory lines, indexed densely; `dir_ids` interns line
    /// addresses on first touch, so the directory holds only the lines
    /// the run touches.
    dir: Vec<DirLine>,
    dir_ids: FxHashMap<LineAddr, u32>,
    nvms: Vec<Nvm>,
    performed: Vec<bool>,
    /// Cores waiting on a reads-from producer, keyed by event id.
    /// Sparse: only events actually waited on ever get an entry, so
    /// construction does not scale with trace length.
    rf_waiters: FxHashMap<EventId, Vec<usize>>,
    /// Persist stamp per event, written as each flush completes.
    stamps: PersistSchedule,
    /// Point-to-point FIFO delivery: earliest next arrival per
    /// (src, dst) tile pair (flat `src * ntiles + dst` table), so
    /// protocol messages on one virtual channel never reorder (grants
    /// cannot be overtaken by forwards). Zero = channel never used.
    chan_next: Vec<u64>,
    ntiles: usize,
    flush_seq: u64,
    persist_log: Vec<PersistRecord>,
    stats: Stats,
    /// Event/metric/audit collection; `None` keeps every hook to a
    /// single branch.
    recorder: Option<Recorder>,
    /// End the run with every core's full flush ([`Sim::with_final_flush`]).
    final_flush: bool,
    /// The replayed trace: its initial image (first-touch LLC
    /// residency) and its `OpSite` labels.
    trace: &'t Trace,
}

impl<'t> Sim<'t> {
    /// Builds a machine replaying `trace` under `cfg`.
    pub fn new(cfg: SimConfig, trace: &'t Trace) -> Self {
        debug_assert_eq!(
            trace.image_disorder(),
            None,
            "initial_mem must be address-sorted without duplicates"
        );
        let ncores = trace.nthreads as usize;
        assert!(
            ncores <= cfg.mesh_dim * cfg.mesh_dim,
            "trace has more threads than the machine has cores"
        );
        // PackedEv carries core / NVM-controller indices in a byte.
        assert!(ncores <= 256 && cfg.nvm_ctrls <= 256);
        let mut counts = vec![0usize; ncores];
        for e in &trace.events {
            counts[e.tid as usize] += 1;
        }
        let mut per_core: Vec<Vec<ReplayOp>> =
            counts.iter().map(|&n| Vec::with_capacity(n)).collect();
        for e in &trace.events {
            per_core[e.tid as usize].push(ReplayOp {
                line: lrp_model::line_of(e.addr),
                id: e.id,
                rf_plus1: e.rf.map_or(0, |w| w + 1),
                site: trace.event_sites.get(e.id as usize).copied().unwrap_or(0),
                kind: e.kind,
                release: e.annot.is_release(),
                acquire: e.annot.is_acquire(),
            });
        }
        let cores = per_core
            .into_iter()
            .map(|ops| Core {
                ops,
                pc: 0,
                state: CoreState::Ready { at: 0 },
                store_q: VecDeque::new(),
                finish: None,
                stall_since: 0,
                stall_cause: None,
                cur_site: 0,
                stall_line: None,
                stall_mech: false,
            })
            .collect::<Vec<_>>();
        let l1s = (0..ncores)
            .map(|_| L1 {
                cache: L1Cache::new(cfg.l1_sets(), cfg.l1_ways),
                mech: cfg.build_mech(),
                seq: Sequencer::default(),
                evict_buf: Vec::new(),
                deferred: Vec::new(),
                inflight: Vec::new(),
                downgrading: Vec::new(),
            })
            .collect::<Vec<_>>();
        let nvms = (0..cfg.nvm_ctrls).map(|_| Nvm::default()).collect();
        let nevents = trace.events.len();
        let ntiles = cfg.mesh_dim * cfg.mesh_dim;
        let mut sim = Sim {
            cfg,
            now: 0,
            seq: 0,
            evq: EventWheel::new(),
            msg_pool: Vec::new(),
            msg_free: Vec::new(),
            cores,
            l1s,
            dir: Vec::new(),
            dir_ids: FxHashMap::default(),
            nvms,
            performed: vec![false; nevents],
            rf_waiters: FxHashMap::default(),
            stamps: PersistSchedule::new(nevents),
            chan_next: vec![0; ntiles * ntiles],
            ntiles,
            flush_seq: 0,
            persist_log: Vec::new(),
            stats: Stats::default(),
            recorder: None,
            final_flush: false,
            trace,
        };
        for c in 0..ncores {
            sim.schedule(0, Ev::CoreStep(c));
        }
        sim
    }

    /// Dense directory index of a line, interned on first touch.
    ///
    /// Lines of the initial durable image start both in NVM and in the
    /// LLC: the paper collects statistics only after the structure is
    /// populated and warm (§6.1), so the working set is LLC-resident at
    /// measurement start. Nothing clears `in_llc`, so setting it when a
    /// line is first interned equals setting it for every image line up
    /// front, and costs one search of the sorted image per touched line
    /// instead of a pass over the whole image.
    fn dir_id(&mut self, line: LineAddr) -> usize {
        if let Some(&i) = self.dir_ids.get(&line) {
            return i as usize;
        }
        let i = self.dir.len();
        self.dir.push(DirLine {
            in_llc: self.trace.initial_holds_line(line),
            ..DirLine::default()
        });
        self.dir_ids.insert(line, i as u32);
        i
    }

    /// Attaches a recorder: the run produces an [`ObsReport`] and every
    /// mechanism starts buffering its internal events for draining.
    pub fn with_recorder(mut self, cfg: RecorderConfig) -> Self {
        for l1 in &mut self.l1s {
            l1.mech.obs_enable();
        }
        let drain_kind = self.l1s.first().map(|l1| l1.mech.crit_drain_kind());
        self.recorder = Some(Recorder::new(
            cfg,
            self.l1s.len() as u32,
            self.trace.site_names.clone(),
            drain_kind.unwrap_or(CritSegKind::ReleaseOrder),
        ));
        self
    }

    /// Ends the run durable: once the replay quiesces, every core's
    /// sequencer runs its mechanism's full flush
    /// ([`PersistMech::flush_all`]), so every write a persisting
    /// mechanism buffered gets a stamp. `Stats::cycles` stays the last
    /// core's retirement; the flushes count as background.
    ///
    /// [`PersistMech::flush_all`]: lrp_core::mech::PersistMech::flush_all
    pub fn with_final_flush(mut self) -> Self {
        self.final_flush = true;
        self
    }

    /// Drains mechanism-internal events from core `c` into the recorder,
    /// stamped with the current time and core identity.
    fn drain_mech_obs(&mut self, c: usize) {
        let Some(r) = self.recorder.as_mut() else {
            return;
        };
        let now = self.now;
        self.l1s[c]
            .mech
            .obs_drain(&mut |evs| r.mech_events(now, c as u32, evs));
    }

    // -- infrastructure -------------------------------------------------

    fn schedule(&mut self, delay: u64, ev: Ev) {
        let p = match ev {
            Ev::CoreStep(c) => PackedEv {
                tag: 0,
                unit: c as u8,
                slot: 0,
                line: 0,
            },
            Ev::StoreStep(c) => PackedEv {
                tag: 1,
                unit: c as u8,
                slot: 0,
                line: 0,
            },
            Ev::JobStep(c) => PackedEv {
                tag: 2,
                unit: c as u8,
                slot: 0,
                line: 0,
            },
            Ev::L1Msg(c, line, msg) => PackedEv {
                tag: 3,
                unit: c as u8,
                slot: self.park(MsgSlot::Msg(msg)),
                line,
            },
            Ev::DirMsg(line, msg) => PackedEv {
                tag: 4,
                unit: 0,
                slot: self.park(MsgSlot::Msg(msg)),
                line,
            },
            Ev::NvmDone(n, req) => PackedEv {
                tag: 5,
                unit: n as u8,
                slot: self.park(MsgSlot::Nvm(req)),
                line: 0,
            },
        };
        self.seq += 1;
        self.evq.push(self.now + delay, self.seq, p);
    }

    fn park(&mut self, payload: MsgSlot) -> u32 {
        if let Some(i) = self.msg_free.pop() {
            self.msg_pool[i as usize] = payload;
            i
        } else {
            self.msg_pool.push(payload);
            (self.msg_pool.len() - 1) as u32
        }
    }

    /// Rehydrates a popped [`PackedEv`], returning its parked payload
    /// slot to the free list.
    fn unpack(&mut self, p: PackedEv) -> Ev {
        match p.tag {
            0 => Ev::CoreStep(p.unit as usize),
            1 => Ev::StoreStep(p.unit as usize),
            2 => Ev::JobStep(p.unit as usize),
            _ => {
                let payload =
                    std::mem::replace(&mut self.msg_pool[p.slot as usize], MsgSlot::Empty);
                self.msg_free.push(p.slot);
                match (p.tag, payload) {
                    (3, MsgSlot::Msg(m)) => Ev::L1Msg(p.unit as usize, p.line, m),
                    (4, MsgSlot::Msg(m)) => Ev::DirMsg(p.line, m),
                    (5, MsgSlot::Nvm(r)) => Ev::NvmDone(p.unit as usize, r),
                    _ => unreachable!("packed event desynced from payload pool"),
                }
            }
        }
    }

    fn tile_of_core(&self, c: usize) -> usize {
        c
    }

    fn tile_of_bank(&self, line: LineAddr) -> usize {
        (line as usize) % self.cfg.llc_banks % (self.cfg.mesh_dim * self.cfg.mesh_dim)
    }

    fn mesh(&self) -> crate::noc::Mesh {
        crate::noc::Mesh {
            dim: self.cfg.mesh_dim,
            base: self.cfg.noc_base,
            per_hop: self.cfg.noc_per_hop,
            data_extra: self.cfg.noc_data_extra,
        }
    }

    fn tile_of_nvm(&self, n: usize) -> usize {
        self.mesh().nvm_tile(n)
    }

    fn nvm_of(&self, line: LineAddr) -> usize {
        (line as usize) % self.cfg.nvm_ctrls
    }

    fn noc(&mut self, src: usize, dst: usize, data: bool) -> u64 {
        self.stats.noc_messages += 1;
        self.mesh().latency(src, dst, data)
    }

    /// FIFO arrival time on the (src, dst) channel.
    fn ordered_delay(&mut self, src: usize, dst: usize, lat: u64) -> u64 {
        let chan = &mut self.chan_next[src * self.ntiles + dst];
        let arrival = (self.now + lat).max(*chan);
        *chan = arrival + 1;
        arrival - self.now
    }

    fn send_l1(&mut self, core: usize, line: LineAddr, msg: Msg, from_tile: usize, data: bool) {
        let dst = self.tile_of_core(core);
        let lat = self.noc(from_tile, dst, data);
        let d = self.ordered_delay(from_tile, dst, lat);
        self.schedule(d, Ev::L1Msg(core, line, msg));
    }

    fn send_dir(&mut self, line: LineAddr, msg: Msg, from_tile: usize, data: bool) {
        let dst = self.tile_of_bank(line);
        let lat = self.noc(from_tile, dst, data);
        let d = self.ordered_delay(from_tile, dst, lat);
        self.schedule(d, Ev::DirMsg(line, msg));
    }

    // -- run loop -------------------------------------------------------

    /// Processes events until the wheel is empty.
    ///
    /// One slot visit drains every event sharing a timestamp; the
    /// scratch buffer's capacity ping-pongs with the wheel slots so the
    /// loop allocates nothing in steady state. Same-time events
    /// scheduled while a batch is in flight carry larger seqs, so the
    /// next `pop_batch` returns the same timestamp again and the global
    /// (time, seq) order is exactly a heap's.
    fn drain_events(&mut self, batch: &mut Vec<(u64, u64, PackedEv)>) {
        while let Some(t) = self.evq.pop_batch(batch) {
            assert!(
                t <= self.cfg.max_cycles,
                "simulation exceeded max_cycles ({}): likely deadlock",
                self.cfg.max_cycles
            );
            self.now = t;
            for &(_, _, p) in batch.iter() {
                let ev = self.unpack(p);
                match ev {
                    Ev::CoreStep(c) => self.core_step(c),
                    Ev::StoreStep(c) => self.store_step(c),
                    Ev::JobStep(c) => {
                        self.l1s[c].seq.armed = false;
                        self.job_step(c);
                    }
                    Ev::L1Msg(c, line, msg) => self.l1_msg(c, line, msg),
                    Ev::DirMsg(line, msg) => self.dir_msg(line, msg),
                    Ev::NvmDone(n, req) => self.nvm_done(n, req),
                }
            }
            if let Some(r) = self.recorder.as_mut() {
                r.maybe_sample(self.now, &self.stats);
            }
        }
    }

    /// Runs to completion and returns the results.
    pub fn run(mut self) -> RunResult {
        let mut batch: Vec<(u64, u64, PackedEv)> = Vec::new();
        self.drain_events(&mut batch);
        if self.final_flush {
            for c in 0..self.l1s.len() {
                let l1 = &mut self.l1s[c];
                let run = l1.mech.flush_all(&L1ViewAdapter(&mut l1.cache));
                if !run.is_empty() {
                    let scan = l1.mech.scan_cycles();
                    self.enqueue_run(c, run, FlushClass::Background, JobDone::None, scan);
                }
            }
            self.drain_events(&mut batch);
        }
        for c in &self.cores {
            assert!(
                c.finish.is_some(),
                "core never finished: replay deadlock (pc={}/{} state={:?})",
                c.pc,
                c.ops.len(),
                c.state
            );
        }
        self.stats.cycles = self
            .cores
            .iter()
            .filter_map(|c| c.finish)
            .max()
            .unwrap_or(0);
        debug_assert_eq!(
            self.stats.ops,
            self.cores.iter().map(|c| c.ops.len() as u64).sum::<u64>(),
            "online op count drifted from the replayed trace"
        );
        let end = self.now.max(self.stats.cycles);
        let obs = self.recorder.take().map(|r| r.finish(end, &self.stats));
        RunResult {
            stats: self.stats,
            schedule: self.stamps,
            persist_log: self.persist_log,
            obs,
        }
    }

    // -- core -----------------------------------------------------------

    fn begin_stall(&mut self, c: usize, cause: StallCause) {
        let core = &self.cores[c];
        let line = match core.state {
            CoreState::WaitLoad { line } => Some(line),
            _ => core.store_q.front().map(|t| t.line),
        };
        let mech = core
            .store_q
            .front()
            .map(|t| matches!(t.phase, StorePhase::Flushing | StorePhase::WaitAck))
            .unwrap_or(false);
        let core = &mut self.cores[c];
        core.stall_since = self.now;
        core.stall_cause = Some(cause);
        core.stall_line = line;
        core.stall_mech = mech;
        let now = self.now;
        if let Some(r) = self.recorder.as_mut() {
            r.stall_begin(now, c as u32, cause);
        }
    }

    /// Latches the mechanism-wait hint: the head store task moved into a
    /// flush phase while its core was stalled on the drain.
    fn note_mech_drain(&mut self, c: usize) {
        if self.cores[c].stall_cause == Some(StallCause::StoreDrain) {
            self.cores[c].stall_mech = true;
        }
    }

    fn end_stall(&mut self, c: usize) {
        if let Some(cause) = self.cores[c].stall_cause.take() {
            let dur = self.now - self.cores[c].stall_since;
            self.stats.record_stall(cause, dur);
            let line = self.cores[c].stall_line.take();
            let mech = std::mem::take(&mut self.cores[c].stall_mech);
            let now = self.now;
            if let Some(r) = self.recorder.as_mut() {
                r.stall_end(now, c as u32, cause, dur, line, mech);
            }
        }
    }

    fn core_resume(&mut self, c: usize, extra: u64) {
        self.end_stall(c);
        self.cores[c].state = CoreState::Ready {
            at: self.now + extra,
        };
        self.schedule(extra, Ev::CoreStep(c));
    }

    fn core_step(&mut self, c: usize) {
        match self.cores[c].state {
            CoreState::Ready { at } if at <= self.now => {}
            CoreState::Ready { at } => {
                let d = at - self.now;
                self.schedule(d, Ev::CoreStep(c));
                return;
            }
            _ => return,
        }
        if self.cores[c].pc >= self.cores[c].ops.len() {
            if self.cores[c].store_q.is_empty() {
                self.cores[c].state = CoreState::Done;
                self.cores[c].finish = Some(self.now);
            }
            // else: finish when the last store task completes.
            return;
        }
        let op = self.cores[c].ops[self.cores[c].pc];
        let line = op.line;
        let site = op.site;
        if self.cores[c].cur_site != site {
            self.cores[c].cur_site = site;
            if let Some(r) = self.recorder.as_mut() {
                r.set_core_site(c as u32, site);
            }
        }
        let is_store = op.kind == EventKind::Write;
        let is_rmw_success = op.kind == EventKind::RmwSuccess;
        let is_read = matches!(op.kind, EventKind::Read | EventKind::RmwFail);

        // Reads-from gating: a read effect waits until its producer has
        // performed (preserving the recorded execution's causality).
        if (is_read || is_rmw_success) && !self.rf_ready(c, op.rf_plus1) {
            return;
        }

        if is_read {
            // A load to a line with one of our own stores still in
            // flight waits for the buffer to drain past it.
            if !self.cores[c].store_q.is_empty()
                && self.cores[c].store_q.iter().any(|t| t.line == line)
            {
                self.cores[c].state = CoreState::WaitLocalDrain;
                self.begin_stall(c, StallCause::StoreDrain);
                return;
            }
            if self.l1s[c].cache.read_hit(line) {
                self.cores[c].pc += 1;
                self.stats.ops += 1;
                self.stats.load_hits += 1;
                self.core_resume(c, self.cfg.l1_latency + self.cfg.compute_gap);
            } else {
                self.stats.load_misses += 1;
                self.cores[c].state = CoreState::WaitLoad { line };
                self.begin_stall(c, StallCause::LoadMiss);
                let from = self.tile_of_core(c);
                self.send_dir(line, Msg::GetS { core: c }, from, false);
            }
            return;
        }

        if is_store {
            if self.cores[c].store_q.len() >= self.cfg.store_buffer {
                self.cores[c].state = CoreState::WaitStoreSlot;
                self.begin_stall(c, StallCause::StoreDrain);
                return;
            }
            let kind = if op.release {
                StoreKind::Release
            } else {
                StoreKind::Plain
            };
            let only = self.cores[c].store_q.is_empty();
            self.cores[c].store_q.push_back(StoreTask {
                ev: op.id,
                line,
                kind,
                phase: StorePhase::NeedM,
                is_rmw: false,
                persist_after: false,
                background_after: EngineRun::empty(),
                parked: false,
            });
            self.cores[c].pc += 1;
            self.stats.ops += 1;
            if only {
                self.schedule(0, Ev::StoreStep(c));
            }
            self.cores[c].state = CoreState::Ready {
                at: self.now + 1 + self.cfg.compute_gap,
            };
            self.schedule(1 + self.cfg.compute_gap, Ev::CoreStep(c));
            return;
        }

        if is_rmw_success {
            // RMWs serialize: drain the store buffer first.
            if !self.cores[c].store_q.is_empty() {
                self.cores[c].state = CoreState::WaitLocalDrain;
                self.begin_stall(c, StallCause::StoreDrain);
                return;
            }
            let kind = if op.acquire {
                StoreKind::RmwAcquire {
                    release: op.release,
                }
            } else if op.release {
                StoreKind::Release
            } else {
                StoreKind::Plain
            };
            self.cores[c].store_q.push_back(StoreTask {
                ev: op.id,
                line,
                kind,
                phase: StorePhase::NeedM,
                is_rmw: true,
                persist_after: false,
                background_after: EngineRun::empty(),
                parked: false,
            });
            self.cores[c].pc += 1;
            self.stats.ops += 1;
            self.cores[c].state = CoreState::WaitRmw;
            self.begin_stall(c, StallCause::StoreDrain);
            self.schedule(0, Ev::StoreStep(c));
        }
    }

    fn rf_ready(&mut self, c: usize, rf_plus1: u32) -> bool {
        if rf_plus1 != 0 {
            let w = rf_plus1 - 1;
            if !self.performed[w as usize] {
                self.cores[c].state = CoreState::WaitRf;
                self.begin_stall(c, StallCause::RfWait);
                self.rf_waiters.entry(w).or_default().push(c);
                return false;
            }
        }
        true
    }

    // -- store pipeline ---------------------------------------------------

    fn store_step(&mut self, c: usize) {
        let Some(task) = self.cores[c].store_q.front() else {
            return;
        };
        if task.phase != StorePhase::NeedM {
            return;
        }
        let line = task.line;
        let kind = task.kind;
        let parked = task.parked;
        // Residual intra-thread conflict (BB): a store to a line whose
        // older-epoch flush is still in flight waits for the ack.
        if self.l1s[c].mech.forbids_epoch_coalescing() && self.l1s[c].inflight_contains(line) {
            if !parked {
                self.cores[c].store_q.front_mut().unwrap().parked = true;
                // The proactive flush this store now waits on became a
                // critical-path write-back.
                self.stats.reclassify_background_to_critical();
            }
            return; // StoreStep is re-scheduled when the ack arrives
        }
        // A downgrade of this line is being answered: wait until the
        // response leaves (the line will then be S/I and the store
        // re-acquires M through the directory).
        if self.l1s[c].downgrading.contains(&line) {
            return; // StoreStep is re-scheduled when the response is sent
        }

        let state = self.l1s[c].cache.get(line).map(|l| l.state);
        match state {
            Some(CohState::M) | Some(CohState::E) => {
                // Plan with the mechanism.
                let l1 = &mut self.l1s[c];
                let mut view = L1ViewAdapter(&mut l1.cache);
                let act = l1.mech.on_store(&mut view, line, kind);
                let scan = l1.mech.scan_cycles();
                let persist_after = act.persist_line_after;
                self.drain_mech_obs(c);
                if !act.background.is_empty() {
                    self.enqueue_run(
                        c,
                        act.background,
                        FlushClass::Background,
                        JobDone::None,
                        scan,
                    );
                }
                {
                    let t = self.cores[c].store_q.front_mut().unwrap();
                    t.persist_after = persist_after;
                    t.background_after = act.background_after;
                }
                if act.flush_before.is_empty() {
                    self.commit_store(c);
                } else {
                    let t = self.cores[c].store_q.front_mut().unwrap();
                    t.phase = StorePhase::Flushing;
                    self.note_mech_drain(c);
                    self.enqueue_run(
                        c,
                        act.flush_before,
                        FlushClass::Critical,
                        JobDone::StoreReady,
                        scan,
                    );
                }
            }
            _ => {
                let t = self.cores[c].store_q.front_mut().unwrap();
                t.phase = StorePhase::WaitM;
                let from = self.tile_of_core(c);
                self.send_dir(line, Msg::GetM { core: c }, from, false);
            }
        }
    }

    fn commit_store(&mut self, c: usize) {
        let (line, kind, ev, persist_after, background_after) = {
            let t = self.cores[c].store_q.front_mut().unwrap();
            (
                t.line,
                t.kind,
                t.ev,
                t.persist_after,
                std::mem::take(&mut t.background_after),
            )
        };
        // The line may have been downgraded while a flush ran (we defer
        // forwards for the head task's line, but a different task could
        // have lost it... re-acquire if so).
        let st = self.l1s[c].cache.get(line).map(|l| l.state);
        if !matches!(st, Some(CohState::M) | Some(CohState::E)) {
            let t = self.cores[c].store_q.front_mut().unwrap();
            t.phase = StorePhase::NeedM;
            self.schedule(0, Ev::StoreStep(c));
            return;
        }
        {
            let l1 = &mut self.l1s[c];
            let l = l1.cache.get_mut(line).unwrap();
            l.state = CohState::M;
            l.dirty = true;
            l.covered.push(ev);
            let mut view = L1ViewAdapter(&mut l1.cache);
            l1.mech.on_store_commit(&mut view, line, kind);
            l1.cache.touch(line);
        }
        self.drain_mech_obs(c);
        self.stats.stores += 1;
        if kind.is_release() {
            let now = self.now;
            if let Some(r) = self.recorder.as_mut() {
                r.release_committed(now, ev);
            }
        }
        if !background_after.is_empty() {
            // Delegation: the just-landed store ships to the persist
            // queue immediately (persist-buffer designs).
            self.enqueue_run(
                c,
                background_after,
                FlushClass::Background,
                JobDone::None,
                0,
            );
        }
        self.performed[ev as usize] = true;
        if let Some(waiters) = self.rf_waiters.remove(&ev) {
            for w in waiters {
                if self.cores[w].state == CoreState::WaitRf {
                    self.core_resume(w, 0);
                }
            }
        }
        if persist_after {
            // I3 / strict barrier: flush this line and hold the task
            // until the ack returns.
            let covered = self.l1s[c].cache.take_covered(line);
            self.notify_flush_issued(c, line);
            if !covered.is_empty() {
                self.l1s[c].inflight_inc(line);
            }
            let site = covered
                .first()
                .map(|&e| self.trace.site_of(e))
                .unwrap_or_else(|| self.trace.site_of(ev));
            let t = self.cores[c].store_q.front_mut().unwrap();
            t.phase = StorePhase::WaitAck;
            self.note_mech_drain(c);
            self.enqueue_materialized(
                c,
                VecDeque::from([vec![FlushDesc {
                    line,
                    covered,
                    site,
                }]]),
                FlushClass::Critical,
                JobDone::RmwAck,
                0,
            );
        } else {
            self.finish_store_task(c);
        }
    }

    fn finish_store_task(&mut self, c: usize) {
        let task = self.cores[c].store_q.pop_front().expect("task");
        if task.is_rmw && self.cores[c].state == CoreState::WaitRmw {
            self.core_resume(c, self.cfg.l1_latency + self.cfg.compute_gap);
        }
        // Wake a core stalled on a slot or a same-line drain.
        match self.cores[c].state {
            CoreState::WaitStoreSlot | CoreState::WaitLocalDrain => self.core_resume(c, 0),
            _ => {}
        }
        // End-of-trace drain.
        if self.cores[c].pc >= self.cores[c].ops.len() && self.cores[c].store_q.is_empty() {
            self.schedule(0, Ev::CoreStep(c));
        }
        self.schedule(0, Ev::StoreStep(c));
        // Serve forwards deferred while this task held its line.
        let pending: Vec<(LineAddr, Msg)> = std::mem::take(&mut self.l1s[c].deferred);
        for (line, msg) in pending {
            self.l1_msg(c, line, msg);
        }
    }

    // -- flush sequencer --------------------------------------------------

    /// Materializes an [`EngineRun`] into flush descriptors (taking each
    /// line's buffered writes now) and enqueues it as a job.
    fn enqueue_run(
        &mut self,
        c: usize,
        run: EngineRun,
        class: FlushClass,
        done: JobDone,
        scan: u64,
    ) {
        let mut stages: VecDeque<Vec<FlushDesc>> = VecDeque::new();
        for stage in run.stages {
            let mut descs = Vec::new();
            for line in stage {
                let covered = self.l1s[c].cache.take_covered(line);
                self.notify_flush_issued(c, line);
                if !covered.is_empty() {
                    // The line is considered "being flushed" from hand-off
                    // until the NVM ack (the residual-conflict window).
                    self.l1s[c].inflight_inc(line);
                    let site = covered
                        .first()
                        .map(|&e| self.trace.site_of(e))
                        .unwrap_or(self.cores[c].cur_site);
                    descs.push(FlushDesc {
                        line,
                        covered,
                        site,
                    });
                }
            }
            if !descs.is_empty() {
                stages.push_back(descs);
            }
        }
        self.enqueue_materialized(c, stages, class, done, scan);
    }

    fn enqueue_materialized(
        &mut self,
        c: usize,
        stages: VecDeque<Vec<FlushDesc>>,
        class: FlushClass,
        done: JobDone,
        scan: u64,
    ) {
        let job = Job {
            stages,
            done,
            class,
            scan_charged: scan == 0,
            issued_any: false,
        };
        self.l1s[c].seq.jobs.push_back(job);
        if !self.l1s[c].seq.armed {
            self.l1s[c].seq.armed = true;
            self.schedule(0, Ev::JobStep(c));
        }
        if !self.l1s[c].seq.jobs.back().unwrap().stages.is_empty() {
            self.stats.engine_runs += 1;
        }
    }

    fn notify_flush_issued(&mut self, c: usize, line: LineAddr) {
        let l1 = &mut self.l1s[c];
        let mut view = L1ViewAdapter(&mut l1.cache);
        l1.mech.on_flush_issued(&mut view, line);
        self.drain_mech_obs(c);
    }

    /// Reports the persist-engine FSM state of core `c`'s sequencer
    /// (no-op without a recorder; consecutive duplicates are elided).
    fn engine_obs(&mut self, c: usize, st: EngineState) {
        let now = self.now;
        if let Some(r) = self.recorder.as_mut() {
            r.engine_state(now, c as u32, st);
        }
    }

    fn job_step(&mut self, c: usize) {
        loop {
            if self.l1s[c].seq.jobs.front().is_none() {
                self.engine_obs(c, EngineState::Idle);
                return;
            }
            // Stage barrier / completion: wait for all acks.
            if self.l1s[c].seq.pending > 0 {
                self.engine_obs(c, EngineState::Drain);
                return; // re-armed on ack arrival
            }
            let job = self.l1s[c].seq.jobs.front().unwrap();
            if !job.scan_charged && !job.stages.is_empty() {
                let scan = self.l1s[c].mech.scan_cycles();
                self.l1s[c].seq.jobs.front_mut().unwrap().scan_charged = true;
                if scan > 0 {
                    self.engine_obs(c, EngineState::Scan);
                    self.l1s[c].seq.armed = true;
                    self.schedule(scan, Ev::JobStep(c));
                    return;
                }
            }
            let job = self.l1s[c].seq.jobs.front_mut().unwrap();
            if let Some(mut stage) = job.stages.pop_front() {
                job.issued_any = true;
                let class = job.class;
                self.engine_obs(c, EngineState::Flush);
                // Bounded persist-buffer entries: issue at most
                // `flush_mshrs` flushes at a time; the rest of the stage
                // re-queues and proceeds as acks drain.
                let budget = self
                    .cfg
                    .flush_mshrs
                    .saturating_sub(self.l1s[c].seq.pending as usize);
                if stage.len() > budget {
                    let rest = stage.split_off(budget.max(1));
                    if !rest.is_empty() {
                        self.l1s[c]
                            .seq
                            .jobs
                            .front_mut()
                            .unwrap()
                            .stages
                            .push_front(rest);
                    }
                }
                for desc in stage {
                    self.issue_flush(c, desc, class);
                }
                if self.l1s[c].seq.pending > 0 {
                    return; // wait for acks before the next stage
                }
                continue;
            }
            // Job complete.
            let job = self.l1s[c].seq.jobs.pop_front().unwrap();
            self.job_done(c, job.done);
        }
    }

    fn issue_flush(&mut self, c: usize, desc: FlushDesc, class: FlushClass) {
        self.stats.record_flush(class, desc.covered.len());
        let now = self.now;
        if let Some(r) = self.recorder.as_mut() {
            r.flush_issue(now, c as u32, desc.line, class, desc.site, &desc.covered);
        }
        self.l1s[c].seq.pending += 1;
        let n = self.nvm_of(desc.line);
        let lat = self.noc(self.tile_of_core(c), self.tile_of_nvm(n), true);
        let req = NvmReq {
            line: desc.line,
            covered: desc.covered,
            origin: NvmOrigin::CoreFlush(c),
        };
        self.nvm_submit(n, lat, req);
    }

    fn job_done(&mut self, c: usize, done: JobDone) {
        match done {
            JobDone::None => {}
            JobDone::StoreReady => {
                if let Some(t) = self.cores[c].store_q.front() {
                    if t.phase == StorePhase::Flushing {
                        self.commit_store(c);
                    }
                }
            }
            JobDone::RmwAck => {
                if let Some(t) = self.cores[c].store_q.front() {
                    if t.phase == StorePhase::WaitAck {
                        // I3: the RMW retires here; its synchronous
                        // persist is acked iff nothing is still pending.
                        let acked = self.l1s[c].seq.pending == 0;
                        if let Some(r) = self.recorder.as_mut() {
                            r.audit.rmw_retire(acked);
                        }
                        self.finish_store_task(c);
                    }
                }
            }
            JobDone::Evict { victim } => {
                self.send_putm(c, victim);
                // The stalled fill (if any) proceeds: the inserted line is
                // already resident; re-poke the waiters.
                self.complete_fill_waiters(c, victim);
            }
            JobDone::Downgrade {
                line,
                is_gets,
                was_release,
            } => {
                // Reached after an I2 engine run: the line itself already
                // persisted locally, so the directory need not persist
                // again.
                self.finish_downgrade(c, line, is_gets, false, was_release);
            }
        }
    }

    // -- NVM -------------------------------------------------------------

    fn nvm_submit(&mut self, n: usize, arrive_delay: u64, req: NvmReq) {
        // Closed-form FIFO queue: service starts when the controller is
        // free, completion after the mode's latency.
        let arrive = self.now + arrive_delay;
        let start = arrive.max(self.nvms[n].next_free);
        self.nvms[n].next_free = start + self.cfg.nvm_service;
        let done = start + self.cfg.nvm_latency();
        self.stats.nvm_requests += 1;
        self.schedule(done - self.now, Ev::NvmDone(n, req));
    }

    fn nvm_done(&mut self, n: usize, req: NvmReq) {
        match req.origin {
            NvmOrigin::CoreFlush(c) => {
                let line = req.line;
                self.record_persist(line, req.covered);
                let lat = self.noc(self.tile_of_nvm(n), self.tile_of_core(c), false);
                self.schedule(lat, Ev::L1Msg(c, line, Msg::DirPersistDone));
            }
            NvmOrigin::DirPersist => {
                let line = req.line;
                self.record_persist(line, req.covered);
                let lat = self.noc(self.tile_of_nvm(n), self.tile_of_bank(line), false);
                self.schedule(lat, Ev::DirMsg(line, Msg::DirPersistDone));
            }
            NvmOrigin::DirRead => {
                let lat = self.noc(self.tile_of_nvm(n), self.tile_of_bank(req.line), true);
                self.schedule(lat, Ev::DirMsg(req.line, Msg::NvmReadDone));
            }
        }
    }

    fn record_persist(&mut self, line: LineAddr, covered: Vec<EventId>) {
        let stamp = self.flush_seq;
        self.flush_seq += 1;
        for &e in &covered {
            self.stamps.set(e, stamp);
        }
        let now = self.now;
        if let Some(r) = self.recorder.as_mut() {
            r.persisted(now, &covered);
        }
        self.persist_log.push(PersistRecord {
            stamp,
            time: now,
            line,
            covered,
        });
    }

    // -- L1 message handling ----------------------------------------------

    fn l1_msg(&mut self, c: usize, line: LineAddr, msg: Msg) {
        match msg {
            Msg::Data { state } => self.l1_fill(c, line, state),
            Msg::FwdGetS { requester } => self.l1_fwd(c, line, requester, true),
            Msg::FwdGetM { requester } => self.l1_fwd(c, line, requester, false),
            Msg::Inv => {
                // Invalidate a shared copy (possibly already evicted).
                self.l1s[c].cache.remove(line);
                let from = self.tile_of_core(c);
                self.send_dir(line, Msg::InvAck, from, false);
            }
            Msg::PutAck => {
                self.l1s[c].evict_remove(line);
            }
            Msg::DirPersistDone => {
                // A flush ack for this core's sequencer.
                let now = self.now;
                if let Some(r) = self.recorder.as_mut() {
                    r.flush_ack(now, c as u32, line);
                }
                if self.l1s[c].inflight_dec(line) {
                    // The line fully drained; a store or a forward may be
                    // parked on it.
                    self.schedule(0, Ev::StoreStep(c));
                    let parked: Vec<(LineAddr, Msg)> = {
                        let d = &mut self.l1s[c].deferred;
                        let (hit, rest): (Vec<_>, Vec<_>) =
                            std::mem::take(d).into_iter().partition(|(l, _)| *l == line);
                        *d = rest;
                        hit
                    };
                    for (l, m) in parked {
                        self.l1_msg(c, l, m);
                    }
                }
                let seq = &mut self.l1s[c].seq;
                seq.pending = seq.pending.saturating_sub(1);
                if seq.pending == 0 && !seq.armed {
                    seq.armed = true;
                    self.schedule(0, Ev::JobStep(c));
                }
            }
            other => unreachable!("L1 received {other:?}"),
        }
    }

    fn l1_fill(&mut self, c: usize, line: LineAddr, state: CohState) {
        if self.l1s[c].cache.get(line).is_some() {
            // Upgrade grant (S -> M).
            self.l1s[c].cache.get_mut(line).unwrap().state = state;
            self.complete_fill_waiters(c, line);
            return;
        }
        if self.l1s[c].cache.needs_victim(line) {
            let victim = self.l1s[c].cache.victim_of(line);
            let mut act = {
                let l1 = &mut self.l1s[c];
                let mut view = L1ViewAdapter(&mut l1.cache);
                l1.mech.on_evict(&mut view, victim)
            };
            self.drain_mech_obs(c);
            if !act.background.is_empty() {
                // Off-critical-path persist of an only-written victim,
                // through the local sequencer (counts toward pending).
                self.enqueue_run(
                    c,
                    std::mem::take(&mut act.background),
                    FlushClass::Background,
                    JobDone::None,
                    0,
                );
            }
            let (covered, dirty, vstate) = {
                let l1 = &mut self.l1s[c];
                let covered = l1.cache.take_covered(victim);
                let vic = l1.cache.remove(victim).expect("victim resident");
                (covered, vic.dirty, vic.state)
            };
            self.notify_flush_issued(c, victim);
            let written = dirty || !covered.is_empty();
            self.stats.evictions += u64::from(written);
            self.l1s[c].evict_insert(
                victim,
                EvictEntry {
                    covered,
                    dirty,
                    persist: act.persist_at_dir,
                    sent: false,
                },
            );
            self.l1s[c].cache.insert(line, state);
            let silent = matches!(vstate, CohState::S) || !written;
            if !act.flush_before.is_empty() {
                // I1: the triggering fill waits for earlier persists.
                let scan = self.l1s[c].mech.scan_cycles();
                self.enqueue_run(
                    c,
                    act.flush_before,
                    FlushClass::Critical,
                    JobDone::Evict { victim },
                    scan,
                );
                return; // waiters complete when the job finishes
            }
            if silent {
                self.l1s[c].evict_remove(victim);
            } else {
                self.send_putm(c, victim);
            }
        } else {
            self.l1s[c].cache.insert(line, state);
        }
        self.complete_fill_waiters(c, line);
    }

    fn send_putm(&mut self, c: usize, victim: LineAddr) {
        let Some(entry) = self.l1s[c].evict_get_mut(victim) else {
            return;
        };
        if entry.sent {
            return;
        }
        entry.sent = true;
        let covered = std::mem::take(&mut entry.covered);
        let persist = entry.persist;
        let msg = Msg::PutM {
            core: c,
            covered,
            dirty: entry.dirty,
            persist,
        };
        if persist {
            // I1: the released victim's write-back leaves the L1; every
            // earlier persist of this core must have been acked.
            let pending = self.l1s[c].seq.pending;
            if let Some(r) = self.recorder.as_mut() {
                r.audit.release_writeback(pending);
            }
        }
        let from = self.tile_of_core(c);
        self.send_dir(victim, msg, from, true);
    }

    /// Wakes whatever was waiting on a fill of `line` (or on the
    /// eviction that the fill of another line triggered).
    fn complete_fill_waiters(&mut self, c: usize, _line: LineAddr) {
        if let CoreState::WaitLoad { line: l } = self.cores[c].state {
            if self.l1s[c].cache.get(l).is_some() {
                self.l1s[c].cache.touch(l);
                self.cores[c].pc += 1;
                self.stats.ops += 1;
                self.core_resume(c, self.cfg.l1_latency + self.cfg.compute_gap);
            }
        }
        if let Some(t) = self.cores[c].store_q.front_mut() {
            if t.phase == StorePhase::WaitM && self.l1s[c].cache.get(t.line).is_some() {
                let st = self.l1s[c].cache.get(t.line).unwrap().state;
                if matches!(st, CohState::M | CohState::E) {
                    t.phase = StorePhase::NeedM;
                    self.schedule(0, Ev::StoreStep(c));
                }
            }
        }
    }

    fn l1_fwd(&mut self, c: usize, line: LineAddr, requester: usize, is_gets: bool) {
        // Evicted (or silently dropped) line: stale response; the
        // directory pairs it with the PutM or falls back to the LLC.
        if let Some(entry) = self.l1s[c].evict_get(line) {
            let putm_coming = entry.sent || entry.dirty || !entry.covered.is_empty();
            let resp = DownRespData {
                covered: Vec::new(),
                dirty: false,
                persist_at_dir: false,
                stale: true,
                putm_coming,
                kept_shared: false,
            };
            let from = self.tile_of_core(c);
            self.send_dir(line, Msg::DownResp(resp), from, false);
            return;
        }
        // A flush of this very line is still in flight: the response
        // (which implies durability to the requester) must wait for the
        // ack. Park the forward; it is re-served when the ack arrives.
        if self.l1s[c].inflight_contains(line) {
            let msg = if is_gets {
                Msg::FwdGetS { requester }
            } else {
                Msg::FwdGetM { requester }
            };
            self.l1s[c].deferred.push((line, msg));
            return;
        }
        let resident = self.l1s[c].cache.get(line).map(|l| l.state);
        if !matches!(resident, Some(CohState::M) | Some(CohState::E)) {
            // Dropped silently while the forward was in flight.
            let resp = DownRespData {
                covered: Vec::new(),
                dirty: false,
                persist_at_dir: false,
                stale: true,
                putm_coming: false,
                kept_shared: false,
            };
            let from = self.tile_of_core(c);
            self.send_dir(line, Msg::DownResp(resp), from, false);
            return;
        }
        // A store mid-flight on this line finishes first (prevents
        // losing M between plan and commit).
        if let Some(t) = self.cores[c].store_q.front() {
            if t.line == line && matches!(t.phase, StorePhase::Flushing | StorePhase::WaitAck) {
                let msg = if is_gets {
                    Msg::FwdGetS { requester }
                } else {
                    Msg::FwdGetM { requester }
                };
                self.l1s[c].deferred.push((line, msg));
                return;
            }
        }
        self.stats.downgrades += 1;
        let meta = self.l1s[c].cache.meta(line);
        if meta.release {
            // Coherence detected a release→acquire synchronisation: the
            // requester is acquiring a line another thread released.
            let now = self.now;
            if let Some(r) = self.recorder.as_mut() {
                r.sync_detected(now, c as u32, line, requester as u32);
            }
        }
        let was_release = meta.release && meta.nvm_dirty;
        let mut act = {
            let l1 = &mut self.l1s[c];
            let mut view = L1ViewAdapter(&mut l1.cache);
            l1.mech.on_downgrade(&mut view, line)
        };
        self.drain_mech_obs(c);
        if !act.background.is_empty() {
            self.enqueue_run(
                c,
                std::mem::take(&mut act.background),
                FlushClass::Background,
                JobDone::None,
                0,
            );
        }
        if act.flush_before.is_empty() {
            let persist = act.persist_at_dir;
            self.finish_downgrade(c, line, is_gets, persist, was_release);
        } else {
            self.l1s[c].downgrading.push(line);
            let scan = self.l1s[c].mech.scan_cycles();
            self.enqueue_run(
                c,
                act.flush_before,
                FlushClass::Sync,
                JobDone::Downgrade {
                    line,
                    is_gets,
                    was_release,
                },
                scan,
            );
        }
    }

    fn finish_downgrade(
        &mut self,
        c: usize,
        line: LineAddr,
        is_gets: bool,
        persist_at_dir: bool,
        was_release: bool,
    ) {
        let dg = &mut self.l1s[c].downgrading;
        if let Some(i) = dg.iter().position(|&l| l == line) {
            dg.swap_remove(i);
        }
        self.schedule(0, Ev::StoreStep(c));
        let covered = self.l1s[c].cache.take_covered(line);
        if was_release {
            // I2: the response for a dirty released line goes out; the
            // release must have persisted (locally or, for write-back
            // designs, at the directory) and nothing may still be
            // pending in this core's sequencer.
            let pending = self.l1s[c].seq.pending;
            let line_persisted = covered.is_empty() || persist_at_dir;
            if let Some(r) = self.recorder.as_mut() {
                r.audit.release_downgrade(pending, line_persisted);
            }
        }
        debug_assert!(
            covered.is_empty() || persist_at_dir || !self.l1s[c].mech.dir_persists_writebacks(),
            "unpersisted writes would ride a response marked durable"
        );
        self.notify_flush_issued(c, line);
        let dirty = self.l1s[c]
            .cache
            .get(line)
            .map(|l| l.dirty)
            .unwrap_or(false);
        if is_gets {
            if let Some(l) = self.l1s[c].cache.get_mut(line) {
                l.state = CohState::S;
                l.dirty = false;
            }
        } else {
            self.l1s[c].cache.remove(line);
        }
        let resp = DownRespData {
            covered,
            dirty,
            persist_at_dir,
            stale: false,
            putm_coming: false,
            kept_shared: is_gets,
        };
        let from = self.tile_of_core(c);
        self.send_dir(line, Msg::DownResp(resp), from, true);
    }

    // -- directory ---------------------------------------------------------

    fn dir_msg(&mut self, line: LineAddr, msg: Msg) {
        let di = self.dir_id(line);
        let entry = &mut self.dir[di];
        let busy = entry.busy.is_some();
        match (&msg, busy) {
            (Msg::GetS { .. } | Msg::GetM { .. }, true) => {
                entry.queue.push_back(msg);
            }
            (Msg::PutM { .. }, true) => self.dir_putm_busy(line, di, msg),
            (Msg::DownResp(_), _) => self.dir_downresp(line, di, msg),
            (Msg::InvAck, _) => self.dir_invack(line, di),
            (Msg::NvmReadDone, _) => self.dir_fetch_done(line, di),
            (Msg::DirPersistDone, _) => self.dir_persist_done(line, di),
            (Msg::GetS { core }, false) => self.dir_gets(line, di, *core),
            (Msg::GetM { core }, false) => self.dir_getm(line, di, *core),
            (Msg::PutM { .. }, false) => self.dir_putm_idle(line, di, msg),
            other => unreachable!("directory received {other:?}"),
        }
    }

    fn dir_pump(&mut self, line: LineAddr, di: usize) {
        let entry = &mut self.dir[di];
        if entry.busy.is_some() {
            return;
        }
        if let Some(msg) = entry.queue.pop_front() {
            self.schedule(1, Ev::DirMsg(line, msg));
        }
    }

    fn grant(&mut self, line: LineAddr, requester: usize, state: CohState) {
        let src = self.tile_of_bank(line);
        let dst = self.tile_of_core(requester);
        let lat = self.cfg.llc_latency + self.noc(src, dst, true);
        let d = self.ordered_delay(src, dst, lat);
        self.schedule(d, Ev::L1Msg(requester, line, Msg::Data { state }));
    }

    fn dir_fetch_or(&mut self, line: LineAddr, di: usize, requester: usize, is_getm: bool) -> bool {
        let entry = &mut self.dir[di];
        if entry.in_llc {
            return false;
        }
        entry.busy = Some(Trans {
            requester,
            is_getm,
            phase: TransPhase::NvmFetch,
            putm_stash: None,
            putack_to: None,
        });
        let n = self.nvm_of(line);
        let lat =
            self.noc(self.tile_of_bank(line), self.tile_of_nvm(n), false) + self.cfg.llc_latency;
        self.nvm_submit(
            n,
            lat,
            NvmReq {
                line,
                covered: Vec::new(),
                origin: NvmOrigin::DirRead,
            },
        );
        true
    }

    fn dir_gets(&mut self, line: LineAddr, di: usize, core: usize) {
        if let DirState::Shared(s) = &mut self.dir[di].state {
            if !s.contains(&core) {
                s.push(core);
            }
            self.grant(line, core, CohState::S);
            self.dir_pump(line, di);
            return;
        }
        match self.dir[di].state {
            DirState::Uncached => {
                if self.dir_fetch_or(line, di, core, false) {
                    return;
                }
                self.dir[di].state = DirState::Owned(core);
                self.grant(line, core, CohState::E);
                self.dir_pump(line, di);
            }
            DirState::Owned(o) => {
                self.dir[di].busy = Some(Trans {
                    requester: core,
                    is_getm: false,
                    phase: TransPhase::AwaitDownResp,
                    putm_stash: None,
                    putack_to: None,
                });
                let from = self.tile_of_bank(line);
                self.send_l1(o, line, Msg::FwdGetS { requester: core }, from, false);
            }
            DirState::Shared(_) => unreachable!("handled above"),
        }
    }

    fn dir_getm(&mut self, line: LineAddr, di: usize, core: usize) {
        match &self.dir[di].state {
            DirState::Uncached => {
                if self.dir_fetch_or(line, di, core, true) {
                    return;
                }
                self.dir[di].state = DirState::Owned(core);
                self.grant(line, core, CohState::M);
                self.dir_pump(line, di);
            }
            DirState::Shared(s) => {
                let others: Vec<usize> = s.iter().copied().filter(|&x| x != core).collect();
                if others.is_empty() {
                    self.dir[di].state = DirState::Owned(core);
                    self.grant(line, core, CohState::M);
                    self.dir_pump(line, di);
                } else {
                    let n = others.len();
                    self.dir[di].busy = Some(Trans {
                        requester: core,
                        is_getm: true,
                        phase: TransPhase::AwaitInvAcks(n),
                        putm_stash: None,
                        putack_to: None,
                    });
                    let from = self.tile_of_bank(line);
                    for o in others {
                        self.send_l1(o, line, Msg::Inv, from, false);
                    }
                }
            }
            DirState::Owned(o) if *o == core => {
                // The owner lost the line silently and re-requested; treat
                // as a fresh grant.
                self.grant(line, core, CohState::M);
                self.dir_pump(line, di);
            }
            &DirState::Owned(o) => {
                self.dir[di].busy = Some(Trans {
                    requester: core,
                    is_getm: true,
                    phase: TransPhase::AwaitDownResp,
                    putm_stash: None,
                    putack_to: None,
                });
                let from = self.tile_of_bank(line);
                self.send_l1(o, line, Msg::FwdGetM { requester: core }, from, false);
            }
        }
    }

    fn dir_invack(&mut self, line: LineAddr, di: usize) {
        let entry = &mut self.dir[di];
        let Some(t) = entry.busy.as_mut() else {
            return;
        };
        if let TransPhase::AwaitInvAcks(n) = &mut t.phase {
            *n -= 1;
            if *n == 0 {
                let req = t.requester;
                entry.state = DirState::Owned(req);
                entry.busy = None;
                self.grant(line, req, CohState::M);
                self.dir_pump(line, di);
            }
        }
    }

    fn dir_fetch_done(&mut self, line: LineAddr, di: usize) {
        let entry = &mut self.dir[di];
        entry.in_llc = true;
        let t = entry.busy.take().expect("fetch transaction");
        entry.state = DirState::Owned(t.requester);
        let state = if t.is_getm { CohState::M } else { CohState::E };
        self.grant(line, t.requester, state);
        self.dir_pump(line, di);
    }

    fn dir_downresp(&mut self, line: LineAddr, di: usize, msg: Msg) {
        let Msg::DownResp(resp) = msg else {
            unreachable!()
        };
        let entry = &mut self.dir[di];
        let Some(t) = entry.busy.as_mut() else {
            // A response for a transaction completed via a stashed PutM.
            return;
        };
        if t.phase != TransPhase::AwaitDownResp {
            return;
        }
        if resp.stale {
            if let Some((covered, dirty, persist)) = t.putm_stash.take() {
                self.dir_complete_owner_data(line, di, covered, dirty, persist, false);
            } else if resp.putm_coming {
                t.phase = TransPhase::AwaitStalePutm { kept_shared: false };
            } else {
                // Clean silent drop: LLC data is current.
                self.dir_complete_owner_data(line, di, Vec::new(), false, false, false);
            }
        } else {
            let DownRespData {
                covered,
                dirty,
                persist_at_dir,
                kept_shared,
                ..
            } = resp;
            self.dir_complete_owner_data(line, di, covered, dirty, persist_at_dir, kept_shared);
        }
    }

    fn dir_putm_busy(&mut self, line: LineAddr, di: usize, msg: Msg) {
        let Msg::PutM {
            core,
            covered,
            dirty,
            persist,
        } = msg
        else {
            unreachable!()
        };
        let entry = &mut self.dir[di];
        let is_owner = entry.state == DirState::Owned(core);
        let Some(t) = entry.busy.as_mut() else {
            unreachable!()
        };
        if is_owner && matches!(t.phase, TransPhase::AwaitDownResp) {
            t.putm_stash = Some((covered, dirty, persist));
            // PutAck once the transaction completes (the eviction buffer
            // entry can be freed immediately — data is with the dir now).
            let from = self.tile_of_bank(line);
            self.send_l1(core, line, Msg::PutAck, from, false);
        } else if is_owner && matches!(t.phase, TransPhase::AwaitStalePutm { .. }) {
            let TransPhase::AwaitStalePutm { kept_shared } = t.phase else {
                unreachable!()
            };
            let from = self.tile_of_bank(line);
            self.send_l1(core, line, Msg::PutAck, from, false);
            self.dir_complete_owner_data(line, di, covered, dirty, persist, kept_shared);
        } else {
            // Unrelated transaction in flight: queue the PutM.
            entry.queue.push_back(Msg::PutM {
                core,
                covered,
                dirty,
                persist,
            });
        }
    }

    /// I4: a data write-back reached the directory; if it still carries
    /// unpersisted writes (`covered`), the directory must persist them
    /// before granting. (Skipped for mechanisms whose directory does not
    /// persist write-backs at all — the volatile baseline.)
    fn audit_dir_writeback(&mut self, covered: &[EventId], persist: bool) {
        if let Some(r) = self.recorder.as_mut() {
            if self.l1s[0].mech.dir_persists_writebacks() {
                r.audit.dir_writeback(!covered.is_empty(), persist);
            }
        }
    }

    /// Completes an owner-data transaction: optionally persists the
    /// write-back (I4), updates the LLC, grants, and unbusies.
    fn dir_complete_owner_data(
        &mut self,
        line: LineAddr,
        di: usize,
        covered: Vec<EventId>,
        dirty: bool,
        persist: bool,
        owner_kept_shared: bool,
    ) {
        self.audit_dir_writeback(&covered, persist);
        let entry = &mut self.dir[di];
        if dirty || !covered.is_empty() {
            entry.in_llc = true;
        }
        let t = entry.busy.as_mut().expect("transaction");
        if persist && !covered.is_empty() {
            // The transaction keeps the requester and kind it finishes
            // with after the persist (`dir_persist_done`).
            t.phase = TransPhase::AwaitPersist;
            let n = self.nvm_of(line);
            let lat = self.noc(self.tile_of_bank(line), self.tile_of_nvm(n), true);
            self.nvm_submit(
                n,
                lat,
                NvmReq {
                    line,
                    covered,
                    origin: NvmOrigin::DirPersist,
                },
            );
            // Record owner_kept_shared via state now (owner already
            // downgraded itself); completion adds the requester.
            let entry = &mut self.dir[di];
            if owner_kept_shared {
                if let DirState::Owned(o) = entry.state {
                    entry.state = DirState::Shared(vec![o]);
                }
            } else {
                entry.state = DirState::Uncached;
            }
            return;
        }
        // No persist needed: grant immediately.
        let (req, is_getm) = (t.requester, t.is_getm);
        let prev_owner = if let DirState::Owned(o) = entry.state {
            Some(o)
        } else {
            None
        };
        entry.busy = None;
        if is_getm {
            entry.state = DirState::Owned(req);
            self.grant(line, req, CohState::M);
        } else {
            let mut sharers = Vec::new();
            if owner_kept_shared {
                if let Some(o) = prev_owner {
                    sharers.push(o);
                }
            }
            sharers.push(req);
            entry.state = DirState::Shared(sharers);
            self.grant(line, req, CohState::S);
        }
        self.dir_pump(line, di);
    }

    fn dir_persist_done(&mut self, line: LineAddr, di: usize) {
        let entry = &mut self.dir[di];
        let Some(t) = entry.busy.as_mut() else {
            return;
        };
        match t.phase {
            TransPhase::AwaitPersist => {
                let (req, is_getm) = (t.requester, t.is_getm);
                // Both branches below overwrite `state`; take it rather
                // than clone the sharer list.
                let kept = std::mem::replace(&mut entry.state, DirState::Uncached);
                entry.busy = None;
                if is_getm {
                    entry.state = DirState::Owned(req);
                    self.grant(line, req, CohState::M);
                } else {
                    let mut sharers = match kept {
                        DirState::Shared(s) => s,
                        _ => Vec::new(),
                    };
                    if !sharers.contains(&req) {
                        sharers.push(req);
                    }
                    entry.state = DirState::Shared(sharers);
                    self.grant(line, req, CohState::S);
                }
                self.dir_pump(line, di);
            }
            TransPhase::AwaitPutPersist => {
                let to = t.putack_to;
                entry.busy = None;
                entry.state = DirState::Uncached;
                if let Some(o) = to {
                    let from = self.tile_of_bank(line);
                    self.send_l1(o, line, Msg::PutAck, from, false);
                }
                self.dir_pump(line, di);
            }
            _ => {}
        }
    }

    fn dir_putm_idle(&mut self, line: LineAddr, di: usize, msg: Msg) {
        let Msg::PutM {
            core,
            covered,
            dirty,
            persist,
        } = msg
        else {
            unreachable!()
        };
        if self.dir[di].state != DirState::Owned(core) {
            // Late PutM after the line moved on; data is superseded.
            let from = self.tile_of_bank(line);
            self.send_l1(core, line, Msg::PutAck, from, false);
            return;
        }
        self.audit_dir_writeback(&covered, persist);
        let entry = &mut self.dir[di];
        if dirty || !covered.is_empty() {
            entry.in_llc = true;
        }
        if persist && !covered.is_empty() {
            entry.busy = Some(Trans {
                requester: core,
                is_getm: false,
                phase: TransPhase::AwaitPutPersist,
                putm_stash: None,
                putack_to: Some(core),
            });
            let n = self.nvm_of(line);
            let lat = self.noc(self.tile_of_bank(line), self.tile_of_nvm(n), true);
            self.nvm_submit(
                n,
                lat,
                NvmReq {
                    line,
                    covered,
                    origin: NvmOrigin::DirPersist,
                },
            );
        } else {
            entry.state = DirState::Uncached;
            let from = self.tile_of_bank(line);
            self.send_l1(core, line, Msg::PutAck, from, false);
            self.dir_pump(line, di);
        }
    }
}
