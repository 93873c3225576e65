//! One shard: a log-free structure plus its simulated machine.
//!
//! A shard keeps its heap **warm**. It owns the durable NVM image `D`,
//! the functional memory batches run on (equal to `D` between batches),
//! the executor's per-thread arenas, and the structure's roots. The one
//! populate that builds them runs in [`Shard::new`]; after that, a
//! request **batch** costs O(batch), not O(committed keys):
//!
//! 1. `sim_threads` workers replay the batched requests on the warm
//!    memory ([`lrp_exec::run_on`]); the arenas' bump pointers carry
//!    over, so a batch never reuses a live address.
//! 2. The batch trace's initial image is `D`'s words on the cache lines
//!    the batch touches, so the simulator warms exactly those lines into
//!    the LLC and treats their words as durable, as it did when every
//!    batch started from a fresh image of the whole structure.
//! 3. The simulator runs the trace under the configured mechanism and
//!    ends it with every core's full flush through the mechanism's own
//!    sequencer ([`Sim::with_final_flush`]; LRP runs its epoch-wrap
//!    plan), so a batch ends durable instead of rolling its lazy tail
//!    back. The recorded persist schedule decides, per request, whether
//!    the ack is **durable**: every write the op performed must carry a
//!    persist stamp, and every value it read must come from a persisted
//!    write (or the durable initial image). Under `nop` nothing
//!    persists, so its requests are answered `durable: false`, which
//!    clients treat as retryable.
//! 4. The batch **commits as a delta**: its writes persisted by the
//!    final stamp are applied to `D` by the same forward walk that
//!    builds every crash image ([`lrp_recovery::PersistWalk`]),
//!    and every word the batch wrote is reset in the functional memory
//!    to `D`'s value. The committed key set is updated by lookups on `D`
//!    for the keys the batch mutated (plus the few BST keys whose
//!    removal is still pending in `D`), and the resolver is rebuilt from
//!    `D`'s fixed-size slot table.
//!
//! Under a discipline that guarantees durable linearizability, `D` is
//! always a consistent cut that null recovery accepts as it stands, so
//! the commit runs no validator (debug builds assert it). Under `nop`
//! every commit validates the whole image and drops the batch's writes
//! when it is rejected. The full validator also runs at
//! [`Shard::crash`], which samples a crash point inside the interrupted
//! batch and restarts from whatever the validator recovers, and at
//! **compaction**: bump allocators never free, so once the arenas hold
//! [`COMPACT_FACTOR`] times the words of the last fresh image, the shard
//! repopulates a fresh image from the validated key set and slot table.

use lrp_detect::{
    stamp, write_table_setup, ResolvedStatus, Resolver, SlotKind, SlotRecord, SlotSpec, SlotTable,
    ROOT_BASE, ROOT_CLIENTS, ROOT_RING,
};
use lrp_exec::{body, run_on, Arenas, DirectCtx, ExecConfig, PmemCtx, SchedPolicy};
use lrp_exec::{SharedMem, ThreadBody};
use lrp_lfds::handle::{default_nbuckets, initial_keys};
use lrp_lfds::{validate_image, Handle, MemImage, Recovered, SetOp, Structure};
use lrp_model::spec::PersistSchedule;
use lrp_model::{line_of, Addr, OpKind, ThreadId, Trace, LINE_BYTES, WORD_BYTES};
use lrp_obs::{ObsReport, ObsSummary, RecorderConfig, Stats};
use lrp_recovery::{crash_restart_random, rebuild_resolution, PersistWalk};
use lrp_sim::{Mechanism, NvmMode, Sim, SimConfig};
use std::collections::BTreeSet;

/// Arena words in use, as a multiple of the last fresh image's, at
/// which the shard compacts. Compaction is O(fresh image) and at least
/// `COMPACT_FACTOR - 1` fresh images' worth of allocation separates two
/// of them, so it costs amortised O(1) per allocating op.
pub const COMPACT_FACTOR: u64 = 4;

/// A key-value request routed to a shard (set semantics: the LFDs store
/// `value = key`, and recovery validators extract key sets).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvOp {
    /// Membership query.
    Get(u64),
    /// Insert.
    Put(u64),
    /// Delete.
    Del(u64),
}

impl KvOp {
    /// The key the op targets.
    pub fn key(self) -> u64 {
        match self {
            KvOp::Get(k) | KvOp::Put(k) | KvOp::Del(k) => k,
        }
    }

    /// True for `Put`/`Del`.
    pub fn is_mutation(self) -> bool {
        !matches!(self, KvOp::Get(_))
    }

    /// The wire op kind spans and crash dumps record (0 get, 1 put,
    /// 2 del).
    pub fn code(self) -> u8 {
        match self {
            KvOp::Get(_) => 0,
            KvOp::Put(_) => 1,
            KvOp::Del(_) => 2,
        }
    }
}

/// One request as the shard executes it: the op plus the wire request
/// id. The id's high 16 bits name the issuing client/channel, which
/// homes the op's detectable-operation slot; a mutation with
/// `rid == 0` stamps no slot (wire ids are chosen by the client).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardReq {
    /// The key-value operation.
    pub op: KvOp,
    /// Wire request id (`client << 48 | seq`).
    pub rid: u64,
}

impl ShardReq {
    /// A request with wire id `rid`.
    pub fn new(op: KvOp, rid: u64) -> ShardReq {
        ShardReq { op, rid }
    }
}

/// Static configuration of one shard.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Backing structure. Must be set-like (`queue` has no key lookup
    /// and is rejected).
    pub structure: Structure,
    /// Persistency mechanism the simulated machine runs.
    pub mechanism: Mechanism,
    /// NVM latency mode.
    pub nvm_mode: NvmMode,
    /// Simulated worker threads per batch. Keep ≥ 2: a single-threaded
    /// batch triggers almost no coherence downgrades, so lazy
    /// mechanisms persist next to nothing and every ack is non-durable.
    pub sim_threads: ThreadId,
    /// Keys pre-loaded into the shard at startup.
    pub initial_size: usize,
    /// Keys live in `[1, key_range]`.
    pub key_range: u64,
    /// Master seed (population, scheduling, crash sampling).
    pub seed: u64,
    /// Extra crash points audited per restart (see `lrp-recovery`).
    pub audit_samples: usize,
    /// Optional observability recorder attached to every batch's
    /// simulator run; histograms and stats accumulate shard-side.
    pub recorder: Option<RecorderConfig>,
    /// Detectable-operation slot table geometry (`None` disables
    /// exactly-once stamping and the shard serves at-least-once).
    /// The ring must be at least a client's in-flight window or stamps
    /// for still-uncertain requests can be overwritten.
    pub detect: Option<SlotSpec>,
}

impl ShardConfig {
    /// Defaults: hash map under LRP, cached NVM, 2 sim threads, 64
    /// initial keys over `[1, 256]`.
    pub fn new(structure: Structure) -> ShardConfig {
        assert!(
            structure != Structure::Queue,
            "serve shards need set semantics; queue has no key lookup"
        );
        ShardConfig {
            structure,
            mechanism: Mechanism::Lrp,
            nvm_mode: NvmMode::Cached,
            sim_threads: 2,
            initial_size: 64,
            key_range: 256,
            seed: 1,
            audit_samples: 8,
            recorder: None,
            detect: Some(SlotSpec::default()),
        }
    }

    fn threads(&self) -> ThreadId {
        self.sim_threads.max(1)
    }
}

/// Per-request outcome of a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvResult {
    /// Functional result: `Get` → present, `Put`/`Del` → applied.
    pub applied: bool,
    /// The durable ack: every write persisted and every read justified
    /// by persisted state.
    pub durable: bool,
    /// Batch number that executed the op.
    pub batch: u64,
    /// Execution rank within the batch (global completion order).
    pub seq: u64,
    /// Simulated cycle at which the op's last write persisted (0 when
    /// nothing persisted or the op wrote nothing).
    pub persist_cycles: u64,
}

/// Outcome of a mid-batch crash and null-recovery restart.
#[derive(Debug, Clone, Default)]
pub struct CrashOutcome {
    /// Batch number the crash interrupted.
    pub batch: u64,
    /// Sampled crash stamp (`None` = before anything persisted).
    pub crash_stamp: Option<u64>,
    /// The crash-point image validated and the wider audit passed.
    pub consistent: bool,
    /// Keys recovered from the NVM image (empty when validation failed
    /// and the shard fell back to its last committed state).
    pub recovered: usize,
    /// Durably-committed keys missing after restart that no in-flight
    /// delete or pending removal ([`Shard::unsettled`]) could explain —
    /// must be empty (the paper's claim).
    pub lost_acked: Vec<u64>,
    /// Recovered keys never committed that no in-flight insert could
    /// explain — must also be empty.
    pub phantom: Vec<u64>,
    /// Crash points audited / audit failures.
    pub audit_points: usize,
    /// Audit failures (non-zero means some cut was not recoverable).
    pub audit_failures: usize,
    /// Detectable-operation stamps recovered from the crash-cut image
    /// (the new resolver answers `Done` for exactly these rids).
    pub stamps: u64,
    /// Slot records that survived only partially in the crash image.
    pub torn_stamps: u64,
}

/// Monotonic shard counters (exported in the metrics stream).
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardCounters {
    /// Requests executed (excludes shed requests, which never reach the
    /// shard).
    pub requests: u64,
    /// Batches executed (including crashed ones).
    pub batches: u64,
    /// Requests acked durable.
    pub acked_durable: u64,
    /// Requests answered `durable: false`.
    pub nondurable: u64,
    /// Acks downgraded by the post-batch commit check (the recovered
    /// image disagreed with a durable ack's expectation).
    pub downgrades: u64,
    /// Mid-batch crash-restarts taken.
    pub crashes: u64,
    /// Commits or restarts where the validator rejected the image and
    /// the shard fell back to its previous durable contents.
    pub recovery_failures: u64,
    /// Total durably-acked keys lost across all restarts (must stay 0).
    pub lost_acked: u64,
    /// Obs ring-buffer events dropped across all batches (recorder
    /// attached with a ring smaller than the event volume). Non-zero
    /// means the event trace is truncated; histograms and audits are
    /// computed online and stay exact.
    pub obs_dropped: u64,
    /// Torn detectable-operation stamps that appeared in the durable
    /// image, counted by the commit or crash restart that first saw
    /// them. A crash cut can tear a re-stamped slot: even under a
    /// release-ordering discipline its plain payload may persist before
    /// its release-stamped rid, so the cut holds the old rid over the
    /// new payload. A commit cut follows the batch's full flush and
    /// tears nothing. A torn slot is never resolved `Done`.
    pub slot_torn: u64,
    /// Compactions taken (fresh images rebuilt from the validated key
    /// set once the warm heap reached [`COMPACT_FACTOR`] times the last
    /// fresh image).
    pub compactions: u64,
    /// Keys on which a compaction's validated image disagreed with the
    /// incrementally maintained committed set (must stay 0).
    pub key_mismatches: u64,
}

/// Host wall-clock breakdown of the last committed batch, used by the
/// serving layer to split the simulated-execution span from the
/// persist-stamping/commit span.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchBreakdown {
    /// Microseconds inside the timing simulator run.
    pub sim_us: u64,
    /// Microseconds spent stamping persist times, computing durable
    /// acks, and committing the batch's persisted writes.
    pub persist_us: u64,
    /// Final persist stamp of the batch (0 = nothing persisted).
    pub final_stamp: u64,
}

/// One shard: durable contents + batch executor + crash-restart.
pub struct Shard {
    cfg: ShardConfig,
    heap: Heap,
    committed: BTreeSet<u64>,
    /// Keys whose presence in the durable image is not final: a BST leaf
    /// whose removal persisted its flag but not its splice still counts
    /// as present, and whichever later batch finishes the splice changes
    /// the key's membership without mutating it (a crashed batch too).
    /// They are looked up again at every commit until they settle.
    unsettled: BTreeSet<u64>,
    batches: u64,
    counters: ShardCounters,
    /// Aggregate simulator statistics over all batches.
    pub stats: Stats,
    /// Observability summaries merged across all batches (empty unless
    /// a recorder is attached).
    pub obs: ObsSummary,
    last_breakdown: BatchBreakdown,
    /// Committed (durable) slot records, as last read from the durable
    /// image; `None` when detection is disabled.
    slots: Option<SlotTable>,
    /// The current rid → verdict map, a pure function of the last
    /// committed (or crash-recovered) image.
    resolver: Resolver,
    /// Torn slot records the durable image holds now (a torn record
    /// stays until its slot is stamped again or a compaction drops it).
    torn_in_image: u64,
}

/// The warm state batches execute on.
struct Heap {
    /// The durable NVM image `D`: what a restart at the last commit
    /// recovers from.
    durable: MemImage,
    /// The functional memory batches run on; equal to `durable`
    /// between batches.
    mem: SharedMem,
    arenas: Arenas,
    roots: Vec<(String, Addr)>,
    handle: Handle,
    /// Slot-table base address (0 when detection is off).
    slot_base: Addr,
    /// Arena words in use right after the last fresh image was built.
    fresh_words: u64,
}

impl Heap {
    /// Builds a fresh image holding `keys` and the `slots` records. This
    /// is the only populate: [`Shard::new`] and compaction call it.
    fn populate(cfg: &ShardConfig, keys: &BTreeSet<u64>, slots: Option<&SlotTable>) -> Heap {
        let keys: Vec<u64> = keys.iter().copied().collect();
        let mut s = DirectCtx::new(cfg.threads(), cfg.seed);
        let nbuckets = default_nbuckets(cfg.initial_size);
        let handle = Handle::new(&mut s, cfg.structure, &keys, nbuckets);
        let slot_base = match slots {
            Some(table) => {
                let spec = table.spec();
                let base = s.alloc(spec.words());
                write_table_setup(&mut s, base, table);
                s.set_root(ROOT_BASE, base);
                s.set_root(ROOT_CLIENTS, spec.clients);
                s.set_root(ROOT_RING, spec.ring);
                base
            }
            None => 0,
        };
        let DirectCtx {
            mem, arenas, roots, ..
        } = s;
        Heap {
            durable: MemImage::from(mem.clone()),
            mem,
            fresh_words: arenas.used_words(),
            arenas,
            roots,
            handle,
            slot_base,
        }
    }

    /// `D`'s words on every cache line `trace` touches, address-sorted:
    /// the batch trace's initial image.
    fn durable_lines(&self, trace: &Trace) -> Vec<(Addr, u64)> {
        let mut lines: Vec<u64> = trace.events.iter().map(|e| line_of(e.addr)).collect();
        lines.sort_unstable();
        lines.dedup();
        let d = self.durable.as_mem();
        lines
            .into_iter()
            .flat_map(|l| {
                (0..LINE_BYTES / WORD_BYTES).map(move |w| l * LINE_BYTES + w * WORD_BYTES)
            })
            .filter_map(|a| d.get(a).map(|v| (a, v)))
            .collect()
    }

    /// Resets every word `trace` wrote back to `D`'s value, restoring
    /// "functional memory = `D`" after a batch.
    fn reset_written(&mut self, trace: &Trace) {
        let d = self.durable.as_mem();
        for e in trace.events.iter().filter(|e| e.is_write_effect()) {
            self.mem.copy_word(d, e.addr);
        }
    }
}

struct BatchRun {
    trace: Trace,
    sched: PersistSchedule,
    results: Vec<KvResult>,
    sim_us: u64,
    stamp_us: u64,
}

impl Shard {
    /// Creates the shard and populates its initial keys into a fresh
    /// durable image (durable by construction).
    pub fn new(cfg: ShardConfig) -> Shard {
        let size = (cfg.initial_size as u64).min(cfg.key_range) as usize;
        let committed = initial_keys(cfg.seed, size, cfg.key_range);
        let slots = cfg.detect.map(SlotTable::new);
        let heap = Heap::populate(&cfg, &committed, slots.as_ref());
        Shard {
            cfg,
            heap,
            committed,
            unsettled: BTreeSet::new(),
            batches: 0,
            counters: ShardCounters::default(),
            stats: Stats::default(),
            obs: ObsSummary::default(),
            last_breakdown: BatchBreakdown::default(),
            slots,
            resolver: Resolver::empty(),
            torn_in_image: 0,
        }
    }

    /// The shard's current durable contents.
    pub fn committed(&self) -> &BTreeSet<u64> {
        &self.committed
    }

    /// Committed keys whose presence in the durable image is not final
    /// (a BST removal persisted its flag but not its splice): an op of
    /// the next batch may finish the removal and drop them.
    pub fn unsettled(&self) -> &BTreeSet<u64> {
        &self.unsettled
    }

    /// The durable NVM image the shard would restart from now.
    pub fn durable_image(&self) -> &MemImage {
        &self.heap.durable
    }

    /// Root addresses of the structure and slot table in
    /// [`Shard::durable_image`].
    pub fn roots(&self) -> &[(String, Addr)] {
        &self.heap.roots
    }

    /// `(in use, at the last fresh image)` arena words of the warm heap.
    /// Compaction keeps the first below [`COMPACT_FACTOR`] times the
    /// second after every batch.
    pub fn heap_words(&self) -> (u64, u64) {
        (self.heap.arenas.used_words(), self.heap.fresh_words)
    }

    /// Counters snapshot.
    pub fn counters(&self) -> ShardCounters {
        self.counters
    }

    /// Batches executed so far.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Wall-clock breakdown of the most recent committed batch.
    pub fn last_breakdown(&self) -> BatchBreakdown {
        self.last_breakdown
    }

    /// Replays `ops` as one batch trace + simulator run and returns the
    /// trace and recorded persist schedule without committing anything:
    /// the durable image, committed keys and resolver stay as they are.
    ///
    /// This is the cross-validation hook: the trace starts from the
    /// whole durable image and carries the slot stamps as first-class
    /// events (site phase `slot`), so `lrp-check` can verify the
    /// recorded schedule is admissible under the mechanism's discipline
    /// *with detection enabled* and that every realized crash cut still
    /// passes durable linearizability.
    pub fn replay_for_check(&mut self, ops: &[ShardReq]) -> (Trace, PersistSchedule) {
        let run = self.run_batch(ops, true);
        self.heap.reset_written(&run.trace);
        (run.trace, run.sched)
    }

    /// Deterministic post-crash (or post-commit) verdict for `rid`.
    pub fn resolve(&self, rid: u64) -> ResolvedStatus {
        self.resolver.resolve(rid)
    }

    /// A clone of the current resolver (published to the reader threads
    /// so `Resolve` requests never block on the worker).
    pub fn resolver(&self) -> Resolver {
        self.resolver.clone()
    }

    /// Durable slot records currently held / total table capacity.
    /// `(0, 0)` when detection is disabled.
    pub fn slot_occupancy(&self) -> (u64, u64) {
        match &self.slots {
            Some(t) => (t.occupied(), t.spec().records()),
            None => (0, 0),
        }
    }

    /// True when the configured mechanism's persist discipline backs
    /// the stamp's promise (stamp durable ⇒ payload + effect durable).
    fn stamps_sound(&self) -> bool {
        self.cfg.mechanism.discipline().guarantees_dl()
    }

    /// Re-derives the slot table and resolver from the durable image.
    fn absorb_resolution(&mut self) {
        if self.slots.is_none() {
            return;
        }
        let sound = self.stamps_sound();
        if let Some(res) = rebuild_resolution(&self.heap.roots, &self.heap.durable, sound) {
            self.counters.slot_torn += res.torn.saturating_sub(self.torn_in_image);
            self.torn_in_image = res.torn;
            self.slots = Some(res.table);
            self.resolver = res.resolver;
        }
    }

    fn absorb_obs(&mut self, obs: Option<&ObsReport>) {
        if let Some(report) = obs {
            self.obs.merge(&report.summary);
            self.counters.obs_dropped += report.dropped;
        }
    }

    /// Runs `ops` on the warm heap, simulates the trace, and computes
    /// durable acks from the persist schedule. Does not commit: the
    /// functional memory holds the batch's writes until the caller
    /// resets them. `full_image` starts the trace from the whole durable
    /// image instead of the lines the batch touches, for callers that
    /// reconstruct or check whole crash images.
    fn run_batch(&mut self, ops: &[ShardReq], full_image: bool) -> BatchRun {
        let batch = self.batches;
        let seed = self
            .cfg
            .seed
            .wrapping_add((batch + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut trace = self.execute_on_heap(ops, seed, batch);
        trace.initial_mem = if full_image {
            self.heap.durable.as_mem().snapshot()
        } else {
            self.heap.durable_lines(&trace)
        };
        let sim_cfg = SimConfig::new(self.cfg.mechanism).nvm_mode(self.cfg.nvm_mode);
        let mut sim = Sim::new(sim_cfg, &trace).with_final_flush();
        if let Some(rc) = &self.cfg.recorder {
            sim = sim.with_recorder(rc.clone());
        }
        let t_sim = std::time::Instant::now();
        let run = sim.run();
        let sim_us = t_sim.elapsed().as_micros() as u64;
        let t_stamp = std::time::Instant::now();
        self.stats.merge(&run.stats);
        self.absorb_obs(run.obs.as_ref());

        // Persist time per event, from the flush log.
        let mut persist_time = vec![0u64; trace.events.len()];
        for rec in &run.persist_log {
            for &e in &rec.covered {
                persist_time[e as usize] = rec.time;
            }
        }

        // Map markers back to batch indices: ops were dealt round-robin,
        // and each thread issues its share in order.
        let nthreads = self.cfg.sim_threads as usize;
        let mut cursor = vec![0usize; nthreads];
        let mut order: Vec<(usize, u32, bool, u64)> = Vec::with_capacity(ops.len());
        for m in &trace.markers {
            let tid = m.tid as usize;
            let batch_idx = tid + cursor[tid] * nthreads;
            cursor[tid] += 1;
            let mut durable = true;
            let mut persisted_at = 0u64;
            for e in &trace.events[m.first_event as usize..m.end_event as usize] {
                if e.is_write_effect() {
                    match run.schedule.stamp(e.id) {
                        Some(_) => persisted_at = persisted_at.max(persist_time[e.id as usize]),
                        None => durable = false,
                    }
                }
                if e.is_read_effect() {
                    // A read is durably justified when the value it
                    // observed survives a crash: the initial image, or a
                    // persisted write.
                    if let Some(w) = e.rf {
                        if run.schedule.stamp(w).is_none() {
                            durable = false;
                        }
                    }
                }
            }
            order.push((batch_idx, m.end_event, durable, persisted_at));
            debug_assert!(matches!(
                (ops[batch_idx].op, m.op),
                (KvOp::Get(_), OpKind::Contains(_))
                    | (KvOp::Put(_), OpKind::Insert(_, _))
                    | (KvOp::Del(_), OpKind::Delete(_))
            ));
        }
        // Global completion order defines per-batch sequence numbers.
        let mut ranked: Vec<usize> = (0..order.len()).collect();
        ranked.sort_by_key(|&i| order[i].1);
        let mut results = vec![
            KvResult {
                applied: false,
                durable: false,
                batch,
                seq: 0,
                persist_cycles: 0,
            };
            ops.len()
        ];
        for (seq, &i) in ranked.iter().enumerate() {
            let (batch_idx, _, durable, persisted_at) = order[i];
            results[batch_idx] = KvResult {
                applied: trace.markers[i].result == 1,
                durable,
                batch,
                seq: seq as u64,
                persist_cycles: if durable { persisted_at } else { 0 },
            };
        }
        self.counters.requests += ops.len() as u64;
        self.counters.batches += 1;
        self.batches += 1;
        BatchRun {
            trace,
            sched: run.schedule,
            results,
            sim_us,
            stamp_us: t_stamp.elapsed().as_micros() as u64,
        }
    }

    /// Runs `ops` on the warm functional memory: `sim_threads` workers,
    /// op `i` on thread `i % sim_threads`, each thread in index order —
    /// the mapping [`Shard::run_batch`] relies on to attribute markers.
    /// Tracked mutations stamp their slot record before `op_end`, so the
    /// stamp rides inside the op's marker and a durable ack certifies
    /// the stamp too.
    fn execute_on_heap(&mut self, ops: &[ShardReq], seed: u64, batch: u64) -> Trace {
        let h = self.heap.handle;
        let det = self.slots.as_ref().map(|t| (self.heap.slot_base, t.spec()));
        let nthreads = self.cfg.threads();
        let bodies: Vec<ThreadBody> = (0..nthreads)
            .map(|t| {
                let mine: Vec<ShardReq> = ops
                    .iter()
                    .copied()
                    .enumerate()
                    .filter(|(i, _)| (i % nthreads as usize) as ThreadId == t)
                    .map(|(_, req)| req)
                    .collect();
                body(move |mut c| async move {
                    for req in mine {
                        issue(&mut c, h, det, batch, req).await;
                    }
                })
            })
            .collect();
        let cfg = ExecConfig::new(nthreads)
            .policy(SchedPolicy::Random(seed.wrapping_add(0x5EED)))
            .seed(seed);
        let heap = &mut self.heap;
        run_on(&cfg, &mut heap.mem, &mut heap.arenas, &heap.roots, bodies)
    }

    /// Executes one batch to completion and commits the durable state.
    pub fn execute(&mut self, ops: &[ShardReq]) -> Vec<KvResult> {
        if ops.is_empty() {
            return Vec::new();
        }
        let mut run = self.run_batch(ops, false);
        let t_commit = std::time::Instant::now();

        // Commit: the durable contents are whatever null recovery gets
        // back from the image at the final persist stamp.
        let last = run.sched.distinct_stamps().last().copied();
        if self.commit(ops, &run.trace, &run.sched, last) {
            self.downgrade_contradicted(ops, &mut run.results);
            // The same image carries the batch's durable stamps: they
            // become the committed slot state, and acks that were
            // answered `durable: false` only out of caution stay
            // resolvable as `Done`.
            self.absorb_resolution();
        } else {
            // Image unusable (e.g. under `nop`): the previous durable
            // contents stay, and every durable ack is withdrawn — the
            // shard could not actually restart into this batch's state.
            self.counters.recovery_failures += 1;
            for r in &mut run.results {
                if r.durable {
                    r.durable = false;
                    r.persist_cycles = 0;
                    self.counters.downgrades += 1;
                }
            }
        }
        self.heap.reset_written(&run.trace);
        self.compact_if_grown();
        for r in &run.results {
            if r.durable {
                self.counters.acked_durable += 1;
            } else {
                self.counters.nondurable += 1;
            }
        }
        self.last_breakdown = BatchBreakdown {
            sim_us: run.sim_us,
            persist_us: run.stamp_us + t_commit.elapsed().as_micros() as u64,
            final_stamp: last.unwrap_or(0),
        };
        run.results
    }

    /// Applies the batch's writes persisted by `last` to the durable
    /// image and brings the committed key set up to date. Returns false
    /// (leaving the image as it was) when the mechanism's discipline
    /// does not guarantee a recoverable image and this one is rejected.
    fn commit(
        &mut self,
        ops: &[ShardReq],
        trace: &Trace,
        sched: &PersistSchedule,
        last: Option<u64>,
    ) -> bool {
        let Some(cut) = last else {
            return true;
        };
        let structure = self.cfg.structure;
        if !self.cfg.mechanism.discipline().guarantees_dl() {
            let mut next = self.heap.durable.clone();
            PersistWalk::new(trace, sched).advance(cut, &mut next);
            return match recovered_set(structure, &self.heap.roots, &next) {
                Some(keys) => {
                    self.heap.durable = next;
                    self.committed = keys;
                    true
                }
                None => false,
            };
        }
        PersistWalk::new(trace, sched).advance(cut, &mut self.heap.durable);
        let touched: BTreeSet<u64> = ops
            .iter()
            .filter(|o| o.op.is_mutation())
            .map(|o| o.op.key())
            .chain(std::mem::take(&mut self.unsettled))
            .collect();
        for key in touched {
            let (present, settled) = self.heap.handle.lookup(&self.heap.durable, key);
            if present {
                self.committed.insert(key);
            } else {
                self.committed.remove(&key);
            }
            if !settled {
                self.unsettled.insert(key);
            }
        }
        debug_assert_eq!(
            recovered_set(structure, &self.heap.roots, &self.heap.durable).as_ref(),
            Some(&self.committed),
            "incremental commit diverged from the validated durable image"
        );
        true
    }

    /// Rebuilds a fresh image once the warm heap has grown to
    /// [`COMPACT_FACTOR`] times the last one.
    fn compact_if_grown(&mut self) {
        if self.heap.arenas.used_words() >= COMPACT_FACTOR * self.heap.fresh_words {
            self.compact();
        }
    }

    /// Replaces the warm heap with a fresh image of the durable state:
    /// the keys the validator recovers from the durable image, and the
    /// committed slot records. Disagreements between those keys and the
    /// incrementally maintained set are counted in
    /// [`ShardCounters::key_mismatches`]; the validated keys win.
    pub fn compact(&mut self) {
        let structure = self.cfg.structure;
        let keys = match recovered_set(structure, &self.heap.roots, &self.heap.durable) {
            Some(keys) => keys,
            None => {
                self.counters.recovery_failures += 1;
                self.committed.clone()
            }
        };
        self.counters.key_mismatches += keys.symmetric_difference(&self.committed).count() as u64;
        self.heap = Heap::populate(&self.cfg, &keys, self.slots.as_ref());
        self.committed = keys;
        self.unsettled.clear();
        self.torn_in_image = 0;
        self.counters.compactions += 1;
    }

    /// Downgrades durable acks that the committed image contradicts: for
    /// each key, the *last* durable mutation's expected presence must
    /// match the image; otherwise every op on that key this batch loses
    /// its durable flag.
    fn downgrade_contradicted(&mut self, ops: &[ShardReq], results: &mut [KvResult]) {
        let mut last_mutation: std::collections::HashMap<u64, (u64, bool)> =
            std::collections::HashMap::new();
        for (req, r) in ops.iter().zip(results.iter()) {
            if !req.op.is_mutation() || !r.durable {
                continue;
            }
            // An unapplied Put means "already present"; an unapplied Del
            // means "already absent" — both still pin the key's state.
            let expect_present = matches!(req.op, KvOp::Put(_));
            let e = last_mutation
                .entry(req.op.key())
                .or_insert((r.seq, expect_present));
            if r.seq >= e.0 {
                *e = (r.seq, expect_present);
            }
        }
        for (key, (_, expect_present)) in last_mutation {
            if self.committed.contains(&key) != expect_present {
                for (req, r) in ops.iter().zip(results.iter_mut()) {
                    if req.op.key() == key && r.durable {
                        r.durable = false;
                        r.persist_cycles = 0;
                        self.counters.downgrades += 1;
                    }
                }
            }
        }
    }

    /// Crashes the shard mid-batch: `ops` are the in-flight requests
    /// (none of them gets acked), a crash point is sampled inside the
    /// interrupted batch, and the shard restarts from whatever null
    /// recovery validates. Returns the restart verdict; the caller
    /// answers the in-flight requests with `Crashed`.
    pub fn crash(&mut self, ops: &[ShardReq]) -> CrashOutcome {
        let batch = self.batches;
        let committed_before = self.committed.clone();
        let seed = self
            .cfg
            .seed
            .wrapping_add((batch + 1).wrapping_mul(0xC0FF_EE00_D15A_57E5));
        // Replay the in-flight ops from the whole durable image (an
        // empty in-flight batch still crashes: the trace has no events
        // and recovery must return the committed contents).
        let run = self.run_batch(ops, true);
        let restart = crash_restart_random(
            self.cfg.structure,
            &run.trace,
            &run.sched,
            self.cfg.audit_samples,
            seed,
        );
        self.counters.crashes += 1;
        let consistent = restart.consistent();
        let torn_before = self.counters.slot_torn;
        let (recovered_count, lost_acked, phantom) = match restart.recovered {
            Ok(rec) => {
                let recovered = rec.into_keys();
                // In-flight mutations may or may not have reached NVM;
                // they excuse differences, and so does a pending
                // removal (an in-flight op may finish its splice), but
                // nothing else does.
                let inflight_dels: BTreeSet<u64> = ops
                    .iter()
                    .filter(|o| matches!(o.op, KvOp::Del(_)))
                    .map(|o| o.op.key())
                    .collect();
                let inflight_puts: BTreeSet<u64> = ops
                    .iter()
                    .filter(|o| matches!(o.op, KvOp::Put(_)))
                    .map(|o| o.op.key())
                    .collect();
                let lost: Vec<u64> = committed_before
                    .difference(&recovered)
                    .filter(|k| !inflight_dels.contains(k) && !self.unsettled.contains(k))
                    .copied()
                    .collect();
                let phantom: Vec<u64> = recovered
                    .difference(&committed_before)
                    .filter(|k| !inflight_puts.contains(k))
                    .copied()
                    .collect();
                let n = recovered.len();
                // The crash-cut image is the new durable image, resumed
                // as it stands.
                self.heap.durable = restart.image;
                self.committed = recovered;
                self.unsettled = self
                    .heap
                    .handle
                    .pending_removals(&self.heap.durable, &self.committed);
                // The crash-cut image decides which in-flight stamps
                // survived: the resolver the restarted shard serves
                // answers `Done` for exactly those.
                self.absorb_resolution();
                (n, lost, phantom)
            }
            Err(_) => {
                // Unusable image: restart from the last committed state
                // (nothing durably acked is lost, by definition) — and
                // keep the previous resolver, which matches that state:
                // every in-flight op resolves `NotStarted`.
                self.counters.recovery_failures += 1;
                (0, Vec::new(), Vec::new())
            }
        };
        self.heap.reset_written(&run.trace);
        self.compact_if_grown();
        self.counters.lost_acked += lost_acked.len() as u64;
        CrashOutcome {
            batch,
            crash_stamp: restart.crash_stamp,
            consistent,
            recovered: recovered_count,
            lost_acked,
            phantom,
            audit_points: restart.audit.crash_points,
            audit_failures: restart.audit.failures.len(),
            stamps: self.resolver.len() as u64,
            torn_stamps: self.counters.slot_torn - torn_before,
        }
    }
}

fn recovered_set(
    structure: Structure,
    roots: &[(String, Addr)],
    image: &MemImage,
) -> Option<BTreeSet<u64>> {
    validate_image(structure, roots, image)
        .ok()
        .map(Recovered::into_keys)
}

/// Stamps a tracked mutation's slot record between the structure op and
/// its `op_end`: the record is part of the op's event range, so the
/// durable-ack computation covers the stamp, and the phase label makes
/// its cost attributable in critical-path breakdowns.
async fn stamp_slot<C: PmemCtx>(
    c: &mut C,
    det: Option<(Addr, SlotSpec)>,
    batch: u64,
    rid: u64,
    key: u64,
    kind: SlotKind,
    applied: bool,
) {
    let Some((base, spec)) = det else { return };
    if rid == 0 {
        return;
    }
    c.site_phase("slot");
    stamp(
        c,
        base,
        &spec,
        &SlotRecord {
            rid,
            key,
            kind,
            applied,
            batch,
        },
    )
    .await;
}

/// Issues one request: the set operation through the structure's
/// handle, a tracked mutation's slot stamp, then `op_end`.
async fn issue<C: PmemCtx>(
    c: &mut C,
    h: Handle,
    det: Option<(Addr, SlotSpec)>,
    batch: u64,
    req: ShardReq,
) {
    let (op, kind) = match req.op {
        KvOp::Get(_) => (SetOp::Contains, None),
        KvOp::Put(_) => (SetOp::Insert, Some(SlotKind::Put)),
        KvOp::Del(_) => (SetOp::Delete, Some(SlotKind::Del)),
    };
    let k = req.op.key();
    let r = h.drive(c, op, k).await;
    if let Some(kind) = kind {
        stamp_slot(c, det, batch, req.rid, k, kind, r).await;
    }
    c.op_end(r as u64);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard(seed: u64) -> Shard {
        let mut cfg = ShardConfig::new(Structure::HashMap);
        cfg.initial_size = 32;
        cfg.key_range = 128;
        cfg.seed = seed;
        Shard::new(cfg)
    }

    /// Tracked requests from a single synthetic client.
    fn reqs(ops: impl IntoIterator<Item = KvOp>) -> Vec<ShardReq> {
        ops.into_iter()
            .enumerate()
            .map(|(i, op)| ShardReq::new(op, (1 << 48) | i as u64))
            .collect()
    }

    #[test]
    fn batches_execute_and_commit_durable_state() {
        let mut s = shard(3);
        let before = s.committed().clone();
        assert_eq!(before.len(), 32);
        let ops = reqs((0..24).map(|i| match i % 3 {
            0 => KvOp::Put(200 + i),
            1 => KvOp::Get(i),
            _ => KvOp::Del(i),
        }));
        let results = s.execute(&ops);
        assert_eq!(results.len(), ops.len());
        assert_eq!(s.batches(), 1);
        // Every durable Put must be in the committed set; every durable
        // applied Del must not (no later op targets the same key here).
        for (req, r) in ops.iter().zip(&results) {
            if !r.durable {
                continue;
            }
            match req.op {
                KvOp::Put(k) => assert!(s.committed().contains(&k), "durable put {k} lost"),
                KvOp::Del(k) => assert!(!s.committed().contains(&k), "durable del {k} undone"),
                KvOp::Get(_) => {}
            }
        }
        // Sequence numbers are a permutation of 0..n.
        let mut seqs: Vec<u64> = results.iter().map(|r| r.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (0..ops.len() as u64).collect::<Vec<_>>());
    }

    #[test]
    fn lrp_batches_end_durable() {
        let mut s = shard(7);
        let ops = reqs((0..48).map(|i| KvOp::Put(300 + i)));
        let results = s.execute(&ops);
        // The end flush persists LRP's lazy tail: nothing rolls back.
        assert!(results.iter().all(|r| r.durable && r.persist_cycles > 0));
        let c = s.counters();
        assert_eq!((c.acked_durable, c.nondurable), (48, 0));
        for k in 300..348 {
            assert!(s.committed().contains(&k), "put {k} not committed");
        }
    }

    #[test]
    fn crash_restart_loses_no_durably_acked_key() {
        for seed in 0..4 {
            let mut s = shard(seed);
            // A committed batch, then a crash with writes in flight.
            let warm = reqs((0..16).map(|i| KvOp::Put(400 + i)));
            s.execute(&warm);
            let inflight: Vec<ShardReq> = (0..16)
                .map(|i| {
                    ShardReq::new(
                        if i % 2 == 0 {
                            KvOp::Put(500 + i)
                        } else {
                            KvOp::Del(i)
                        },
                        (2 << 48) | i,
                    )
                })
                .collect();
            let outcome = s.crash(&inflight);
            assert!(outcome.consistent, "seed {seed}: inconsistent restart");
            assert!(
                outcome.lost_acked.is_empty(),
                "seed {seed}: lost acked keys {:?}",
                outcome.lost_acked
            );
            assert!(
                outcome.phantom.is_empty(),
                "seed {seed}: phantom keys {:?}",
                outcome.phantom
            );
            assert!(outcome.audit_points > 0);
            assert_eq!(outcome.audit_failures, 0);
        }
    }

    #[test]
    fn shard_rejects_queue() {
        let r = std::panic::catch_unwind(|| ShardConfig::new(Structure::Queue));
        assert!(r.is_err());
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut s = shard(1);
        let before = s.committed().clone();
        assert!(s.execute(&[]).is_empty());
        assert_eq!(s.batches(), 0);
        assert_eq!(*s.committed(), before);
    }

    #[test]
    fn nop_mechanism_withdraws_durable_acks() {
        let mut cfg = ShardConfig::new(Structure::HashMap);
        cfg.initial_size = 16;
        cfg.key_range = 64;
        cfg.mechanism = Mechanism::Nop;
        let mut s = Shard::new(cfg);
        let ops = reqs((0..16).map(|i| KvOp::Put(100 + i)));
        let results = s.execute(&ops);
        // `nop` persists nothing in order, so either nothing is durable
        // or the commit check withdrew the acks; never a false durable.
        let c = s.counters();
        assert_eq!(
            results.iter().filter(|r| r.durable).count() as u64,
            c.acked_durable
        );
        if c.recovery_failures > 0 {
            assert_eq!(c.acked_durable, 0, "unusable image must withdraw acks");
        }
        // An unsound discipline never resolves `Done`: a stamp under
        // `nop` proves nothing, so every rid reads `NotStarted`.
        for req in &ops {
            assert_eq!(s.resolve(req.rid), ResolvedStatus::NotStarted);
        }
    }

    #[test]
    fn durable_acks_resolve_done_after_commit() {
        let mut s = shard(11);
        let ops = reqs((0..24).map(|i| {
            if i % 2 == 0 {
                KvOp::Put(600 + i)
            } else {
                KvOp::Get(i)
            }
        }));
        let results = s.execute(&ops);
        let (occ, cap) = s.slot_occupancy();
        assert!(cap > 0, "detection is on by default");
        let mut durable_muts = 0;
        for (req, r) in ops.iter().zip(&results) {
            if !req.op.is_mutation() {
                // Reads are never stamped: always NotStarted.
                assert_eq!(s.resolve(req.rid), ResolvedStatus::NotStarted);
                continue;
            }
            if r.durable {
                durable_muts += 1;
                // The durable ack's promise: the stamp persisted, so
                // the op is resolvable with its recorded outcome.
                match s.resolve(req.rid) {
                    ResolvedStatus::Done {
                        kind,
                        applied,
                        key,
                        batch,
                    } => {
                        assert_eq!(kind, SlotKind::Put);
                        assert_eq!(applied, r.applied);
                        assert_eq!(key, req.op.key());
                        assert_eq!(batch, r.batch);
                    }
                    ResolvedStatus::NotStarted => {
                        panic!("durable ack for rid {:#x} not resolvable", req.rid)
                    }
                }
            }
        }
        assert!(durable_muts > 0, "no durable mutation to check");
        assert!(occ >= durable_muts, "occupancy covers durable stamps");
        assert_eq!(
            s.counters().slot_torn,
            0,
            "no slot was reused, so none tore"
        );
    }

    /// Re-stamping a client's slots across batches tears no record at a
    /// commit: every batch ends with a full flush, so its commit cut
    /// holds each re-stamped slot whole. Every durable ack the client's
    /// ring still covers resolves `Done` with its outcome.
    #[test]
    fn restamped_slots_stay_whole_across_commits() {
        let mut s = shard(19);
        let ring = SlotSpec::default().ring;
        let mut acked: Vec<(ShardReq, KvResult)> = Vec::new();
        let mut seq = 0u64;
        for b in 0..40u64 {
            let ops: Vec<ShardReq> = (0..16)
                .map(|i| {
                    seq += 1;
                    let key = 1 + (b * 16 + i) * 7 % 128;
                    let op = if i % 2 == 0 {
                        KvOp::Put(key)
                    } else {
                        KvOp::Del(key)
                    };
                    ShardReq::new(op, (1 << 48) | seq)
                })
                .collect();
            let results = s.execute(&ops);
            acked.extend(ops.into_iter().zip(results));
        }
        assert!(seq > 4 * ring, "the run wraps the client's ring");
        assert_eq!(s.counters().slot_torn, 0, "a commit cut tore a slot");
        let recent = &acked[acked.len() - ring as usize..];
        assert!(recent.iter().all(|(_, r)| r.durable));
        for (req, r) in recent {
            match s.resolve(req.rid) {
                ResolvedStatus::Done { applied, key, .. } => {
                    assert_eq!((applied, key), (r.applied, req.op.key()));
                }
                ResolvedStatus::NotStarted => {
                    panic!("durable ack {:#x} in the ring lost its stamp", req.rid)
                }
            }
        }
    }

    #[test]
    fn crash_resolution_is_deterministic_and_sound() {
        for seed in 0..4 {
            let mut s = shard(40 + seed);
            let warm = reqs((0..16).map(|i| KvOp::Put(700 + i)));
            let warm_results = s.execute(&warm);
            let inflight: Vec<ShardReq> = (0..16)
                .map(|i| {
                    ShardReq::new(
                        if i % 2 == 0 {
                            KvOp::Put(800 + i)
                        } else {
                            KvOp::Del(700 + i)
                        },
                        (3 << 48) | i,
                    )
                })
                .collect();
            let outcome = s.crash(&inflight);
            assert!(outcome.consistent, "seed {seed}");
            assert_eq!(outcome.torn_stamps, 0, "seed {seed}: torn stamp under LRP");
            // Warm durable acks stay resolvable after the crash: their
            // stamps were committed, so the restart keeps them.
            for (req, r) in warm.iter().zip(&warm_results) {
                if r.durable {
                    assert!(
                        s.resolve(req.rid).is_done(),
                        "seed {seed}: durably-acked warm rid {:#x} lost its stamp",
                        req.rid
                    );
                }
            }
            // Every in-flight op resolves deterministically, and a
            // `Done` verdict is backed by the recovered state.
            for req in &inflight {
                let v1 = s.resolve(req.rid);
                assert_eq!(v1, s.resolve(req.rid), "seed {seed}: nondeterministic");
                if let ResolvedStatus::Done {
                    kind, applied, key, ..
                } = v1
                {
                    assert_eq!(key, req.op.key(), "seed {seed}");
                    let present = s.committed().contains(&key);
                    match (kind, applied) {
                        // An applied durable Put leaves the key present;
                        // an applied durable Del leaves it absent. (No
                        // other in-flight op targets the same key.)
                        (SlotKind::Put, true) => assert!(present, "seed {seed}: lost put {key}"),
                        (SlotKind::Del, true) => assert!(!present, "seed {seed}: undone del {key}"),
                        // Unapplied ops pin the pre-existing state.
                        (SlotKind::Put, false) => assert!(present, "seed {seed}"),
                        (SlotKind::Del, false) => assert!(!present, "seed {seed}"),
                    }
                }
            }
        }
    }

    #[test]
    fn detection_can_be_disabled() {
        let mut cfg = ShardConfig::new(Structure::HashMap);
        cfg.initial_size = 16;
        cfg.key_range = 64;
        cfg.detect = None;
        let mut s = Shard::new(cfg);
        let ops = reqs((0..8).map(|i| KvOp::Put(100 + i)));
        let results = s.execute(&ops);
        assert!(results.iter().any(|r| r.durable));
        assert_eq!(s.slot_occupancy(), (0, 0));
        for req in &ops {
            assert_eq!(s.resolve(req.rid), ResolvedStatus::NotStarted);
        }
    }
}
