//! Memory events, operation markers, and execution traces.
//!
//! A [`Trace`] is the interface between the functional executor
//! (`lrp-exec`), the timing simulator (`lrp-sim`), and the recovery
//! checker (`lrp-recovery`): it records the global interleaving of memory
//! events of one concurrent execution, with ordering annotations and
//! reads-from edges — the same information the paper extracts with Pin.

use crate::fxmap::FxHashMap;
use crate::types::{line_base, line_of, Addr, Annot, EventId, LineAddr, ThreadId};

/// The kind of a memory event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A load.
    Read,
    /// A store.
    Write,
    /// A read-modify-write whose compare succeeded: has both a read and a
    /// write effect, and the two appear atomically in happens-before
    /// (RMW-atomicity axiom, §2.1).
    RmwSuccess,
    /// A read-modify-write whose compare failed: read effect only.
    RmwFail,
}

/// One memory event in the global interleaving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Position in the global interleaving; equals the index in
    /// [`Trace::events`].
    pub id: EventId,
    /// Issuing thread.
    pub tid: ThreadId,
    /// Read / write / RMW.
    pub kind: EventKind,
    /// Ordering annotation.
    pub annot: Annot,
    /// Word address accessed.
    pub addr: Addr,
    /// Value observed (reads and RMWs; for a write this is 0).
    pub rval: u64,
    /// Value written (writes and successful RMWs; otherwise 0).
    pub wval: u64,
    /// The event that produced the value read, if any; `None` means the
    /// initial memory image. Only meaningful for read effects.
    pub rf: Option<EventId>,
}

impl Event {
    /// True if the event writes memory (a store or a successful RMW).
    #[inline]
    pub fn is_write_effect(&self) -> bool {
        matches!(self.kind, EventKind::Write | EventKind::RmwSuccess)
    }

    /// True if the event reads memory (a load or any RMW).
    #[inline]
    pub fn is_read_effect(&self) -> bool {
        matches!(
            self.kind,
            EventKind::Read | EventKind::RmwSuccess | EventKind::RmwFail
        )
    }

    /// True if the event has acquire semantics (an acquire read, or an
    /// RMW whose annotation includes acquire).
    #[inline]
    pub fn is_acquire(&self) -> bool {
        self.is_read_effect() && self.annot.is_acquire()
    }

    /// True if the event has release semantics (a release write, or a
    /// *successful* RMW whose annotation includes release — a failed RMW
    /// does not write and therefore does not release).
    #[inline]
    pub fn is_release(&self) -> bool {
        self.is_write_effect() && self.annot.is_release()
    }
}

/// High-level data-structure operation kinds, used by the workload
/// harness and by the recovery validators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Set/map insert of `(key, value)`.
    Insert(u64, u64),
    /// Set/map delete of `key`.
    Delete(u64),
    /// Membership query.
    Contains(u64),
    /// Queue enqueue of a value.
    Enqueue(u64),
    /// Queue dequeue.
    Dequeue,
    /// Pre-population / initialization work (excluded from statistics, as
    /// in §6.1 of the paper).
    Setup,
}

/// Marks the extent of one data-structure operation within a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpMarker {
    /// Thread that performed the operation.
    pub tid: ThreadId,
    /// What the operation was.
    pub op: OpKind,
    /// First event id of the operation (inclusive).
    pub first_event: EventId,
    /// One past the last event id of the operation.
    pub end_event: EventId,
    /// Operation result (1 = success/true, 0 = failure/false, or the
    /// dequeued value + 1 for `Dequeue`, 0 meaning empty).
    pub result: u64,
}

/// A complete recorded execution.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Number of logical threads.
    pub nthreads: ThreadId,
    /// Global interleaving of memory events; `events[i].id == i`.
    pub events: Vec<Event>,
    /// Memory image (word address → value) at the start of the trace;
    /// words absent from the image read as [`Trace::POISON`].
    ///
    /// Invariant: sorted by address, with no address twice. Consumers
    /// search the sorted image for the words and lines a trace touches
    /// instead of indexing all of it, so a trace costs in proportion to
    /// its events, not to the pre-populated structure.
    /// [`Trace::validate`] rejects an image that breaks the order.
    pub initial_mem: Vec<(Addr, u64)>,
    /// Operation boundaries in issue order.
    pub markers: Vec<OpMarker>,
    /// Named root addresses of the data structure (for recovery).
    pub roots: Vec<(String, Addr)>,
    /// `[lo, hi)` byte range covered by the trace's heap allocator.
    pub heap_range: (Addr, Addr),
    /// Interned `OpSite` labels (`structure/operation[/phase]`); index 0
    /// is always the catch-all `"unknown"` when any labels exist.
    pub site_names: Vec<String>,
    /// Per-event site index into [`Trace::site_names`], parallel to
    /// [`Trace::events`]. Empty when the producer recorded no provenance.
    pub event_sites: Vec<u16>,
}

/// Errors found by [`Trace::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// `events[i].id != i`.
    BadId(EventId),
    /// Thread id out of range.
    BadThread(EventId),
    /// `rf` points at a non-write, a later event, a different address, or
    /// a value mismatch.
    BadRf(EventId),
    /// A read's value does not match the most recent write (or initial
    /// image) at that address in the interleaving.
    BadReadValue(EventId),
    /// `initial_mem[i]`'s address is not above `initial_mem[i - 1]`'s:
    /// the image is out of address order or names a word twice.
    UnsortedImage(usize),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::BadId(e) => write!(f, "event {e} has mismatched id"),
            TraceError::BadThread(e) => write!(f, "event {e} has out-of-range thread id"),
            TraceError::BadRf(e) => write!(f, "event {e} has ill-formed reads-from edge"),
            TraceError::BadReadValue(e) => write!(f, "event {e} read a stale value"),
            TraceError::UnsortedImage(i) => write!(
                f,
                "initial image entry {i} is out of address order or a duplicate"
            ),
        }
    }
}

impl std::error::Error for TraceError {}

impl Trace {
    /// Value returned when reading an address that was never written nor
    /// present in the initial image. Chosen to be recognizable so the
    /// recovery validators can detect unpersisted garbage, modelling the
    /// arbitrary contents of freshly allocated NVM.
    pub const POISON: u64 = 0xDEAD_BEEF_DEAD_BEEF;

    /// Creates an empty trace over `nthreads` threads.
    pub fn new(nthreads: ThreadId) -> Self {
        Trace {
            nthreads,
            ..Trace::default()
        }
    }

    /// Event ids of each thread, in program order.
    pub fn per_thread(&self) -> Vec<Vec<EventId>> {
        let mut v = vec![Vec::new(); self.nthreads as usize];
        for e in &self.events {
            v[e.tid as usize].push(e.id);
        }
        v
    }

    /// The memory contents after the whole trace has executed (initial
    /// image plus every write, in interleaving order).
    pub fn final_mem(&self) -> std::collections::HashMap<Addr, u64> {
        let mut m: std::collections::HashMap<Addr, u64> =
            self.initial_mem.iter().copied().collect();
        for e in &self.events {
            if e.is_write_effect() {
                m.insert(e.addr, e.wval);
            }
        }
        m
    }

    /// The initial image's value of the word at `addr`, if it holds one.
    fn initial_value(&self, addr: Addr) -> Option<u64> {
        match self.initial_mem.get(seek(&self.initial_mem, addr)) {
            Some(&(a, v)) if a == addr => Some(v),
            _ => None,
        }
    }

    /// True if the initial image holds any word of `line`.
    pub fn initial_holds_line(&self, line: LineAddr) -> bool {
        let i = seek(&self.initial_mem, line_base(line));
        self.initial_mem
            .get(i)
            .is_some_and(|&(a, _)| line_of(a) == line)
    }

    /// The first index of `initial_mem` whose address is not above its
    /// predecessor's, or `None` when the image keeps its invariant.
    pub fn image_disorder(&self) -> Option<usize> {
        self.initial_mem
            .windows(2)
            .position(|w| w[0].0 >= w[1].0)
            .map(|i| i + 1)
    }

    /// Checks internal consistency: the initial image is address-sorted
    /// without duplicates, ids are positional, reads-from edges are well
    /// formed, and every read observes the latest write before it in the
    /// interleaving (the read-value axiom of §2.1 holds for the recorded
    /// total order). Apart from one scan of the image's addresses, the
    /// cost follows the events: a read of the initial image looks its
    /// word up in the sorted image.
    pub fn validate(&self) -> Result<(), TraceError> {
        if let Some(i) = self.image_disorder() {
            return Err(TraceError::UnsortedImage(i));
        }
        let mut last_write: FxHashMap<Addr, (EventId, u64)> = FxHashMap::default();
        for (i, e) in self.events.iter().enumerate() {
            if e.id as usize != i {
                return Err(TraceError::BadId(e.id));
            }
            if e.tid >= self.nthreads {
                return Err(TraceError::BadThread(e.id));
            }
            if e.is_read_effect() {
                match (e.rf, last_write.get(&e.addr)) {
                    (Some(w), Some(&(lw, lv))) => {
                        if w != lw || e.rval != lv {
                            return Err(TraceError::BadRf(e.id));
                        }
                    }
                    (None, None) => {
                        let expect = self.initial_value(e.addr).unwrap_or(Trace::POISON);
                        if e.rval != expect {
                            return Err(TraceError::BadReadValue(e.id));
                        }
                    }
                    _ => return Err(TraceError::BadRf(e.id)),
                }
            }
            if e.is_write_effect() {
                last_write.insert(e.addr, (e.id, e.wval));
            }
        }
        Ok(())
    }

    /// The site index of event `id` (0 — "unknown" — when the trace
    /// carries no provenance or the id is out of range).
    pub fn site_of(&self, id: EventId) -> u16 {
        self.event_sites.get(id as usize).copied().unwrap_or(0)
    }

    /// The site label of event `id` (`"unknown"` when unlabeled).
    pub fn site_name_of(&self, id: EventId) -> &str {
        self.site_names
            .get(self.site_of(id) as usize)
            .map(String::as_str)
            .unwrap_or("unknown")
    }
}

/// The index of the first entry of the address-sorted `image` whose
/// address is not below `addr` (`image.len()` if none).
///
/// The search starts where `addr` would sit if the image's addresses
/// were evenly spread, then gallops toward it: heap images are nearly
/// dense, so a lookup touches one or two cache lines where a plain
/// binary search over a multi-megabyte image misses on every probe.
/// An uneven image costs at most twice a binary search.
fn seek(image: &[(Addr, u64)], addr: Addr) -> usize {
    let (Some(&(first, _)), Some(&(last, _))) = (image.first(), image.last()) else {
        return 0;
    };
    if addr <= first {
        return 0;
    }
    if addr > last {
        return image.len();
    }
    // first < addr <= last, so the guess lies in [0, len - 1].
    let span = (last - first) as u128;
    let guess = ((addr - first) as u128 * (image.len() - 1) as u128 / span) as usize;
    if image[guess].0 < addr {
        return guess + 1 + gallop(&image[guess + 1..], addr);
    }
    // Every entry from `hi` on is at or above `addr`.
    let (mut hi, mut step) = (guess, 1);
    while step <= hi && image[hi - step].0 >= addr {
        hi -= step;
        step *= 2;
    }
    let lo = hi.saturating_sub(step);
    lo + image[lo..hi].partition_point(|&(a, _)| a < addr)
}

/// [`seek`]'s forward half: an exponential search from the front of
/// `image`, then a binary search in the bracket found.
fn gallop(image: &[(Addr, u64)], addr: Addr) -> usize {
    // Every entry before `lo` is below `addr`.
    let (mut lo, mut step) = (0, 1);
    while lo + step < image.len() && image[lo + step - 1].0 < addr {
        lo += step;
        step *= 2;
    }
    let hi = (lo + step).min(image.len());
    lo + image[lo..hi].partition_point(|&(a, _)| a < addr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::litmus::LitmusBuilder;

    #[test]
    fn event_effect_classification() {
        let mut b = LitmusBuilder::new(1);
        let w = b.write(0, 8, 1);
        let r = b.read(0, 8);
        let c = b.cas(0, 8, 1, 2, Annot::AcqRel);
        let f = b.cas(0, 8, 1, 3, Annot::AcqRel); // fails: value is 2
        let t = b.build();
        assert!(t.events[w as usize].is_write_effect());
        assert!(!t.events[w as usize].is_read_effect());
        assert!(t.events[r as usize].is_read_effect());
        assert!(t.events[c as usize].is_write_effect());
        assert!(t.events[c as usize].is_read_effect());
        assert!(t.events[c as usize].is_release());
        assert!(t.events[f as usize].is_read_effect());
        assert!(!t.events[f as usize].is_write_effect());
        assert!(
            !t.events[f as usize].is_release(),
            "failed RMW must not release"
        );
        assert!(
            t.events[f as usize].is_acquire(),
            "failed RMW still acquires"
        );
    }

    #[test]
    fn validate_accepts_wellformed() {
        let mut b = LitmusBuilder::new(2);
        b.write(0, 0x10, 7);
        b.read(1, 0x10);
        let t = b.build();
        t.validate().unwrap();
    }

    #[test]
    fn validate_rejects_bad_rf() {
        let mut b = LitmusBuilder::new(2);
        b.write(0, 0x10, 7);
        b.read(1, 0x10);
        let mut t = b.build();
        t.events[1].rf = None;
        assert!(matches!(t.validate(), Err(TraceError::BadRf(1))));
    }

    #[test]
    fn validate_rejects_stale_read_of_initial() {
        let mut b = LitmusBuilder::new(1);
        b.read(0, 0x10);
        let mut t = b.build();
        t.events[0].rval = 5; // initial image is empty => POISON expected
        assert!(matches!(t.validate(), Err(TraceError::BadReadValue(0))));
    }

    #[test]
    fn validate_rejects_unsorted_or_duplicated_image() {
        let mut b = LitmusBuilder::new(1);
        b.init(0x10, 1);
        b.init(0x20, 2);
        b.init(0x30, 3);
        b.read(0, 0x20);
        let good = b.build();
        good.validate().unwrap();
        assert_eq!(good.image_disorder(), None);

        let mut swapped = good.clone();
        swapped.initial_mem.swap(1, 2);
        assert_eq!(swapped.validate(), Err(TraceError::UnsortedImage(2)));

        let mut twice = good.clone();
        twice.initial_mem[2].0 = 0x20;
        assert_eq!(twice.validate(), Err(TraceError::UnsortedImage(2)));
    }

    #[test]
    fn image_lookups_search_the_sorted_image() {
        let mut b = LitmusBuilder::new(1);
        b.init(0x48, 5);
        b.init(0x100, 6);
        let t = b.build();
        assert_eq!(t.initial_value(0x48), Some(5));
        assert_eq!(t.initial_value(0x100), Some(6));
        assert_eq!(t.initial_value(0x40), None);
        assert_eq!(t.initial_value(0x108), None);
        // 0x48 is on line 1; 0x100 starts line 4.
        assert!(t.initial_holds_line(1));
        assert!(t.initial_holds_line(4));
        assert!(!t.initial_holds_line(0));
        assert!(!t.initial_holds_line(2));
        assert!(!t.initial_holds_line(5));
        // Even, clustered and single-entry images: every lookup equals
        // a linear scan's answer, through both the guess and the gallop.
        let even: Vec<(Addr, u64)> = (1..=9).map(|a| (a * 16, a)).collect();
        let clustered: Vec<(Addr, u64)> = [8, 16, 24, 32, 40, 48, 4096, 1 << 20, 1 << 30]
            .iter()
            .map(|&a| (a, 0))
            .collect();
        for img in [&even[..], &clustered[..], &even[..1], &[]] {
            let probes = img
                .iter()
                .flat_map(|&(a, _)| [a.saturating_sub(1), a, a + 1]);
            for addr in probes.chain([0, 200, u64::MAX]) {
                let want = img
                    .iter()
                    .position(|&(a, _)| a >= addr)
                    .unwrap_or(img.len());
                assert_eq!(seek(img, addr), want, "addr {addr} in {img:?}");
                assert_eq!(gallop(img, addr), want, "addr {addr} in {img:?}");
            }
        }
    }

    #[test]
    fn validate_checks_reads_of_the_initial_image() {
        let mut b = LitmusBuilder::new(1);
        b.init(0x10, 1);
        b.init(0x20, 2);
        b.read(0, 0x20);
        b.read(0, 0x30); // outside the image: POISON
        b.read(0, 0x10);
        let good = b.build();
        good.validate().unwrap();
        for (ev, rval) in [(0, 1), (1, 0), (2, 2)] {
            let mut t = good.clone();
            t.events[ev].rval = rval;
            assert_eq!(t.validate(), Err(TraceError::BadReadValue(ev as EventId)));
        }
    }

    #[test]
    fn final_mem_applies_writes_in_order() {
        let mut b = LitmusBuilder::new(1);
        b.write(0, 0x10, 1);
        b.write(0, 0x10, 2);
        b.write(0, 0x18, 9);
        let t = b.build();
        let m = t.final_mem();
        assert_eq!(m[&0x10], 2);
        assert_eq!(m[&0x18], 9);
    }

    #[test]
    fn per_thread_partitions_events() {
        let mut b = LitmusBuilder::new(2);
        b.write(0, 0x10, 1);
        b.write(1, 0x18, 2);
        b.write(0, 0x20, 3);
        let t = b.build();
        let pt = t.per_thread();
        assert_eq!(pt[0], vec![0, 2]);
        assert_eq!(pt[1], vec![1]);
    }
}
