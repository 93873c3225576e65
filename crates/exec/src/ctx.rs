//! The persistent-memory access trait ([`PmemCtx`]) that data-structure
//! code is written against, the per-thread bump allocator, the trace
//! [`Recorder`], and the immediate (single-threaded) [`DirectCtx`].

use crate::mem::SharedMem;
use crate::rng::Xorshift64;
use lrp_model::{Addr, Annot, Event, EventId, EventKind, FxHashMap, OpKind, OpMarker, ThreadId};
use std::future::Future;
use std::pin::pin;
use std::task::{Context, Poll, Waker};

/// Base byte address of the simulated heap.
pub const HEAP_BASE: Addr = 0x1000_0000;

/// Bytes reserved per arena. Each thread allocates from its own arena
/// (as a scalable NVM allocator would), so concurrent allocations never
/// share cache lines across threads; nodes within one thread's arena pack
/// at word granularity, preserving the intra-thread line-sharing that the
/// buffered-barrier baseline's conflicts depend on (§2.2.1).
pub const ARENA_BYTES: Addr = 1 << 26;

/// Per-thread bump allocators.
#[derive(Debug, Clone, Default)]
pub struct Arenas {
    next: Vec<Addr>,
}

impl Arenas {
    /// Creates `n` arenas.
    pub fn new(n: usize) -> Self {
        Arenas {
            next: (0..n as Addr)
                .map(|i| HEAP_BASE + i * ARENA_BYTES)
                .collect(),
        }
    }

    /// Allocates `words` 8-byte words from arena `idx`. Every arena but
    /// the last is capped at [`ARENA_BYTES`]; the last one (the setup
    /// arena, see [`DirectCtx::new`]) has nothing above it and grows
    /// without bound, so pre-population is not limited to 64 MiB.
    pub fn alloc(&mut self, idx: usize, words: usize) -> Addr {
        let base = self.next[idx];
        let bytes = words as Addr * 8;
        let limit = HEAP_BASE + (idx as Addr + 1) * ARENA_BYTES;
        assert!(
            idx + 1 == self.next.len() || base + bytes <= limit,
            "arena {idx} exhausted ({} bytes in use)",
            base - (HEAP_BASE + idx as Addr * ARENA_BYTES)
        );
        self.next[idx] = base + bytes;
        base
    }

    /// Words handed out across all arenas.
    pub fn used_words(&self) -> u64 {
        self.next
            .iter()
            .enumerate()
            .map(|(i, &n)| (n - (HEAP_BASE + i as Addr * ARENA_BYTES)) / 8)
            .sum()
    }

    /// `[lo, hi)` byte range actually used across all arenas.
    pub fn used_range(&self) -> (Addr, Addr) {
        let hi = self
            .next
            .iter()
            .enumerate()
            .filter(|&(i, &n)| n > HEAP_BASE + i as Addr * ARENA_BYTES)
            .map(|(_, &n)| n)
            .max()
            .unwrap_or(HEAP_BASE);
        (HEAP_BASE, hi)
    }
}

/// The access interface data structures are written against.
///
/// Mirrors the ISA-level model of the paper: word-granular loads, stores,
/// and CASes, each carrying a consistency [`Annot`]. Implementations gate
/// and record accesses ([`crate::GateCtx`]) or apply them immediately
/// ([`DirectCtx`]).
///
/// The accesses are `async`: under the executor each one is a
/// scheduling point, where the worker's future yields until the
/// scheduler picks it again. Allocation, randomness, op markers and
/// site labels never yield. An immediate context never returns
/// `Pending`, so its futures run to completion under [`block_on`].
// Every executor future stays on the thread that created it, so the
// access futures carry no `Send` bound.
#[allow(async_fn_in_trait)]
pub trait PmemCtx {
    /// The logical thread id of this context.
    fn tid(&self) -> ThreadId;

    /// Load with explicit annotation.
    async fn read_annot(&mut self, addr: Addr, annot: Annot) -> u64;
    /// Store with explicit annotation.
    async fn write_annot(&mut self, addr: Addr, val: u64, annot: Annot);
    /// Compare-and-swap with explicit annotation; returns
    /// `(succeeded, observed)`.
    async fn cas_annot(&mut self, addr: Addr, old: u64, new: u64, annot: Annot) -> (bool, u64);
    /// Allocates `words` contiguous words and returns the base address.
    fn alloc(&mut self, words: usize) -> Addr;
    /// Deterministic per-thread random value (e.g. skip-list levels).
    fn rand(&mut self) -> u64;
    /// Marks the start of a data-structure operation.
    fn op_begin(&mut self, op: OpKind);
    /// Marks the end of the current operation with its result.
    fn op_end(&mut self, result: u64);
    /// Sets the `structure/operation` [`OpSite`](lrp_model::Trace::site_names)
    /// prefix for subsequent events on this thread (clears any phase).
    /// Purely observational; contexts without a recorder ignore it.
    fn site_op(&mut self, _label: &str) {}
    /// Sets the phase suffix of the current site, labelling subsequent
    /// events `prefix/phase`. Purely observational.
    fn site_phase(&mut self, _phase: &str) {}

    /// Plain load.
    async fn read(&mut self, addr: Addr) -> u64 {
        self.read_annot(addr, Annot::Plain).await
    }
    /// Acquire load.
    async fn read_acq(&mut self, addr: Addr) -> u64 {
        self.read_annot(addr, Annot::Acquire).await
    }
    /// Plain store.
    async fn write(&mut self, addr: Addr, val: u64) {
        self.write_annot(addr, val, Annot::Plain).await
    }
    /// Release store.
    async fn write_rel(&mut self, addr: Addr, val: u64) {
        self.write_annot(addr, val, Annot::Release).await
    }
    /// CAS with acquire-release semantics (the common LFD linking CAS).
    async fn cas_acq_rel(&mut self, addr: Addr, old: u64, new: u64) -> (bool, u64) {
        self.cas_annot(addr, old, new, Annot::AcqRel).await
    }
    /// CAS with release semantics.
    async fn cas_rel(&mut self, addr: Addr, old: u64, new: u64) -> (bool, u64) {
        self.cas_annot(addr, old, new, Annot::Release).await
    }
}

/// Runs a future over an immediate context ([`DirectCtx`], or any other
/// whose accesses never yield) to completion.
///
/// # Panics
///
/// If the future returns `Pending`: a gated access cannot complete
/// outside the executor's run loop.
pub fn block_on<F: Future>(fut: F) -> F::Output {
    match pin!(fut).poll(&mut Context::from_waker(Waker::noop())) {
        Poll::Ready(v) => v,
        Poll::Pending => {
            panic!("block_on: the future yielded; only immediate contexts complete here")
        }
    }
}

/// Sentinel for "composed site id not yet computed" in [`TidSite`].
const SITE_UNCACHED: u16 = u16::MAX;

/// Per-thread current [`OpSite`](lrp_model::Trace::site_names) label,
/// held as ids into the recorder's raw-label table: `prefix`/`phase`
/// are `label id + 1` (0 = unset), `cached` is the composed site id or
/// [`SITE_UNCACHED`]. No strings — a site change is two integer
/// stores, and stamping an event is one branch plus a `Vec` push.
#[derive(Debug, Default, Clone, Copy)]
struct TidSite {
    prefix: u16,
    phase: u16,
    cached: u16,
}

/// Records events and operation markers while an execution runs.
///
/// Events and their site stamps are pushed onto plain `Vec`s, which
/// move into the finished [`Trace`](lrp_model::Trace) as they are, with
/// no copy. Per-thread state lives in tid-indexed vectors, the
/// reads-from index is an `FxHashMap`, and site labels are interned
/// once — repeating a label or phase costs a hash of its bytes and two
/// integer stores, never an allocation.
#[derive(Debug, Default)]
pub struct Recorder {
    /// Recorded events in interleaving order.
    pub events: Vec<Event>,
    /// Completed operation markers.
    pub markers: Vec<OpMarker>,
    /// Interned site labels; index 0 is `"unknown"` once any label exists.
    pub site_names: Vec<String>,
    /// Per-event site index, parallel to [`Recorder::events`].
    pub event_sites: Vec<u16>,
    open: Vec<Option<(OpKind, EventId)>>,
    last_writer: FxHashMap<Addr, EventId>,
    site_ids: FxHashMap<String, u16>,
    /// Raw labels (op prefixes and phase suffixes) as registered.
    labels: Vec<String>,
    label_ids: FxHashMap<String, u16>,
    /// `(prefix label + 1, phase label + 1)` → composed site id.
    composed: FxHashMap<(u16, u16), u16>,
    sites: Vec<TidSite>,
}

impl Recorder {
    /// A fresh recorder.
    pub fn new() -> Self {
        Recorder::default()
    }

    fn intern(&mut self, label: &str) -> u16 {
        if self.site_names.is_empty() {
            self.site_names.push("unknown".to_string());
            self.site_ids.insert("unknown".to_string(), 0);
        }
        if let Some(&id) = self.site_ids.get(label) {
            return id;
        }
        let id = u16::try_from(self.site_names.len()).unwrap_or(0);
        if id != 0 {
            self.site_names.push(label.to_string());
            self.site_ids.insert(label.to_string(), id);
        }
        id
    }

    /// Registers a raw label (op prefix or phase suffix) and returns
    /// its id. Idempotent; allocates only the first time a label is seen.
    fn register_label(&mut self, label: &str) -> u16 {
        if let Some(&id) = self.label_ids.get(label) {
            return id;
        }
        let id = u16::try_from(self.labels.len()).expect("more than 65535 distinct site labels");
        self.labels.push(label.to_string());
        self.label_ids.insert(label.to_string(), id);
        id
    }

    #[inline]
    fn site_mut(&mut self, tid: ThreadId) -> &mut TidSite {
        let t = tid as usize;
        if t >= self.sites.len() {
            self.sites.resize_with(t + 1, TidSite::default);
        }
        &mut self.sites[t]
    }

    /// Sets `tid`'s site prefix (`structure/operation`), clearing the phase.
    pub fn site_op(&mut self, tid: ThreadId, label: &str) {
        let id = self.register_label(label);
        let s = self.site_mut(tid);
        s.prefix = id + 1;
        s.phase = 0;
        s.cached = SITE_UNCACHED;
    }

    /// Sets `tid`'s phase suffix within the current site prefix.
    pub fn site_phase(&mut self, tid: ThreadId, phase: &str) {
        let id = self.register_label(phase);
        let s = self.site_mut(tid);
        s.phase = id + 1;
        s.cached = SITE_UNCACHED;
    }

    /// Composes and interns the `prefix[/phase]` site name for a
    /// `(prefix, phase)` pair (ids offset by 1, 0 = unset). Interning
    /// stays lazy — it happens at the first event *stamped* under the
    /// label, not when the label is set — so `site_names` comes out in
    /// the exact order the eager string-based recorder produced.
    fn compose(&mut self, prefix: u16, phase: u16) -> u16 {
        if prefix == 0 {
            return if self.site_names.is_empty() {
                0
            } else {
                self.intern("unknown")
            };
        }
        if let Some(&id) = self.composed.get(&(prefix, phase)) {
            return id;
        }
        let label = if phase == 0 {
            self.labels[prefix as usize - 1].clone()
        } else {
            format!(
                "{}/{}",
                self.labels[prefix as usize - 1],
                self.labels[phase as usize - 1]
            )
        };
        let id = self.intern(&label);
        self.composed.insert((prefix, phase), id);
        id
    }

    /// The interned site id for `tid`'s current label, stamped per event.
    #[inline]
    fn stamp(&mut self, tid: ThreadId) {
        let cached = self.sites.get(tid as usize).map_or(0, |s| s.cached);
        let id = if cached == SITE_UNCACHED {
            let s = self.sites[tid as usize];
            let id = self.compose(s.prefix, s.phase);
            self.sites[tid as usize].cached = id;
            id
        } else {
            cached
        };
        self.event_sites.push(id);
    }

    /// Records a load.
    pub fn read(&mut self, tid: ThreadId, addr: Addr, annot: Annot, val: u64) -> EventId {
        debug_assert!(!annot.is_release(), "a load cannot be a release");
        let id = self.events.len() as EventId;
        self.events.push(Event {
            id,
            tid,
            kind: EventKind::Read,
            annot,
            addr,
            rval: val,
            wval: 0,
            rf: self.last_writer.get(&addr).copied(),
        });
        self.stamp(tid);
        id
    }

    /// Records a store.
    pub fn write(&mut self, tid: ThreadId, addr: Addr, annot: Annot, val: u64) -> EventId {
        debug_assert!(!annot.is_acquire(), "a store cannot be an acquire");
        let id = self.events.len() as EventId;
        self.events.push(Event {
            id,
            tid,
            kind: EventKind::Write,
            annot,
            addr,
            rval: 0,
            wval: val,
            rf: None,
        });
        self.last_writer.insert(addr, id);
        self.stamp(tid);
        id
    }

    /// Records a CAS.
    pub fn cas(
        &mut self,
        tid: ThreadId,
        addr: Addr,
        annot: Annot,
        ok: bool,
        observed: u64,
        new: u64,
    ) -> EventId {
        let id = self.events.len() as EventId;
        self.events.push(Event {
            id,
            tid,
            kind: if ok {
                EventKind::RmwSuccess
            } else {
                EventKind::RmwFail
            },
            annot,
            addr,
            rval: observed,
            wval: if ok { new } else { 0 },
            rf: self.last_writer.get(&addr).copied(),
        });
        if ok {
            self.last_writer.insert(addr, id);
        }
        self.stamp(tid);
        id
    }

    /// Opens an operation marker for `tid`.
    pub fn begin(&mut self, tid: ThreadId, op: OpKind) {
        let at = self.events.len() as EventId;
        let t = tid as usize;
        if t >= self.open.len() {
            self.open.resize(t + 1, None);
        }
        self.open[t] = Some((op, at));
    }

    /// Closes the open marker for `tid`.
    pub fn end(&mut self, tid: ThreadId, result: u64) {
        if let Some((op, first)) = self.open.get_mut(tid as usize).and_then(Option::take) {
            self.markers.push(OpMarker {
                tid,
                op,
                first_event: first,
                end_event: self.events.len() as EventId,
                result,
            });
        }
    }

    /// Consumes the recorder into the trace pieces: events, op
    /// markers, interned site names, per-event site ids. The event and
    /// site buffers give back their growth slack (a trace lives on long
    /// after recording); a shrinking reallocation keeps the buffer in
    /// place rather than copying it.
    pub fn into_trace_parts(mut self) -> (Vec<Event>, Vec<OpMarker>, Vec<String>, Vec<u16>) {
        self.events.shrink_to_fit();
        self.event_sites.shrink_to_fit();
        (self.events, self.markers, self.site_names, self.event_sites)
    }
}

/// An immediate, single-threaded context: accesses apply directly to a
/// [`SharedMem`] with no gating. Used for pre-population (§6.1 collects
/// statistics only after the structure reaches its initial size), which
/// calls the synchronous inherent [`DirectCtx::read`] and
/// [`DirectCtx::write`], and for fast sequential tests of
/// data-structure logic, which drive the `async` operations with
/// [`block_on`].
#[derive(Debug)]
pub struct DirectCtx {
    /// The functional memory.
    pub mem: SharedMem,
    /// Per-thread allocators (workers `0..n`, setup uses arena `n`).
    pub arenas: Arenas,
    /// Named root addresses registered by setup code.
    pub roots: Vec<(String, Addr)>,
    tid: ThreadId,
    rng: Xorshift64,
}

impl DirectCtx {
    /// A context for `workers` worker threads; the context itself
    /// allocates from the extra arena `workers` and acts as thread id
    /// `workers`.
    pub fn new(workers: ThreadId, seed: u64) -> Self {
        DirectCtx {
            mem: SharedMem::new(),
            arenas: Arenas::new(workers as usize + 1),
            roots: Vec::new(),
            tid: workers,
            rng: Xorshift64::new(seed ^ 0xC0FF_EE00),
        }
    }

    /// Registers a named root address (e.g. a list head) for recovery.
    pub fn set_root(&mut self, name: &str, addr: Addr) {
        self.roots.push((name.to_string(), addr));
    }

    /// Immediate load.
    pub fn read(&mut self, addr: Addr) -> u64 {
        self.mem.read(addr)
    }

    /// Immediate store.
    pub fn write(&mut self, addr: Addr, val: u64) {
        self.mem.write(addr, val);
    }
}

impl PmemCtx for DirectCtx {
    fn tid(&self) -> ThreadId {
        self.tid
    }

    async fn read_annot(&mut self, addr: Addr, _annot: Annot) -> u64 {
        self.mem.read(addr)
    }

    async fn write_annot(&mut self, addr: Addr, val: u64, _annot: Annot) {
        self.mem.write(addr, val);
    }

    async fn cas_annot(&mut self, addr: Addr, old: u64, new: u64, _annot: Annot) -> (bool, u64) {
        self.mem.cas(addr, old, new)
    }

    fn alloc(&mut self, words: usize) -> Addr {
        let idx = self.tid as usize;
        self.arenas.alloc(idx, words)
    }

    fn rand(&mut self) -> u64 {
        self.rng.next_u64()
    }

    fn op_begin(&mut self, _op: OpKind) {}

    fn op_end(&mut self, _result: u64) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arenas_are_disjoint() {
        let mut a = Arenas::new(3);
        let x = a.alloc(0, 4);
        let y = a.alloc(1, 4);
        let x2 = a.alloc(0, 1);
        assert_eq!(x, HEAP_BASE);
        assert_eq!(y, HEAP_BASE + ARENA_BYTES);
        assert_eq!(x2, x + 32);
    }

    #[test]
    #[should_panic(expected = "arena 0 exhausted")]
    fn arena_overflow_panics() {
        let mut a = Arenas::new(2);
        a.alloc(0, (ARENA_BYTES / 8) as usize + 1);
    }

    #[test]
    fn last_arena_grows_past_arena_bytes() {
        let mut a = Arenas::new(3);
        let words = (ARENA_BYTES / 8) as usize;
        let x = a.alloc(2, words + 1);
        let y = a.alloc(2, 4);
        assert_eq!(x, HEAP_BASE + 2 * ARENA_BYTES);
        assert_eq!(y, x + ARENA_BYTES + 8, "bump continues past the cap");
        assert_eq!(a.used_words(), words as u64 + 5);
        // The capped arenas still refuse the same request.
        for idx in 0..2 {
            let r = std::panic::catch_unwind(|| Arenas::new(3).alloc(idx, words + 1));
            assert!(r.is_err(), "arena {idx} must stay capped");
        }
    }

    #[test]
    fn used_words_sums_every_arena() {
        let mut a = Arenas::new(3);
        assert_eq!(a.used_words(), 0);
        a.alloc(0, 4);
        a.alloc(2, 3);
        a.alloc(0, 1);
        assert_eq!(a.used_words(), 8);
    }

    #[test]
    fn used_range_tracks_high_water() {
        let mut a = Arenas::new(2);
        assert_eq!(a.used_range(), (HEAP_BASE, HEAP_BASE));
        a.alloc(1, 2);
        assert_eq!(a.used_range(), (HEAP_BASE, HEAP_BASE + ARENA_BYTES + 16));
    }

    #[test]
    fn direct_ctx_reads_writes_cas() {
        let mut c = DirectCtx::new(2, 1);
        let p = c.alloc(2);
        c.write(p, 10);
        assert_eq!(c.read(p), 10);
        assert_eq!(block_on(c.cas_acq_rel(p, 10, 11)), (true, 10));
        assert_eq!(block_on(c.cas_acq_rel(p, 10, 12)), (false, 11));
        // The trait's accesses agree with the inherent ones.
        block_on(PmemCtx::write(&mut c, p + 8, 5));
        assert_eq!(block_on(PmemCtx::read(&mut c, p + 8)), 5);
    }

    #[test]
    #[should_panic(expected = "the future yielded")]
    fn block_on_refuses_a_future_that_yields() {
        block_on(std::future::pending::<()>());
    }

    #[test]
    fn recorder_tracks_rf_through_cas() {
        let mut r = Recorder::new();
        let w = r.write(0, 0x8, Annot::Plain, 5);
        let c = r.cas(0, 0x8, Annot::AcqRel, true, 5, 6);
        let rd = r.read(0, 0x8, Annot::Plain, 6);
        assert_eq!(r.events[c as usize].rf, Some(w));
        assert_eq!(r.events[rd as usize].rf, Some(c));
    }

    #[test]
    fn failed_cas_does_not_become_writer() {
        let mut r = Recorder::new();
        let w = r.write(0, 0x8, Annot::Plain, 5);
        r.cas(0, 0x8, Annot::AcqRel, false, 5, 6);
        let rd = r.read(0, 0x8, Annot::Plain, 5);
        assert_eq!(r.events[rd as usize].rf, Some(w));
    }
}
