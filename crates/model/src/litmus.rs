//! A builder for hand-written litmus executions.
//!
//! The builder plays the role of a sequentially-consistent interpreter:
//! calls append events to the global interleaving in call order, and
//! reads-from edges are derived from the current memory contents, so the
//! resulting [`Trace`] always satisfies the read-value axiom.

use crate::event::{Event, EventKind, Trace};
use crate::types::{Addr, Annot, EventId, ThreadId};
use std::collections::HashMap;

/// Incrementally constructs a [`Trace`] for tests and documentation.
#[derive(Debug, Default)]
pub struct LitmusBuilder {
    nthreads: ThreadId,
    events: Vec<Event>,
    mem: HashMap<Addr, (u64, Option<EventId>)>,
    initial: Vec<(Addr, u64)>,
}

impl LitmusBuilder {
    /// Creates a builder for an execution with `nthreads` threads.
    pub fn new(nthreads: ThreadId) -> Self {
        LitmusBuilder {
            nthreads,
            ..LitmusBuilder::default()
        }
    }

    /// Seeds the initial memory image with `addr = val`.
    pub fn init(&mut self, addr: Addr, val: u64) -> &mut Self {
        self.initial.push((addr, val));
        self.mem.insert(addr, (val, None));
        self
    }

    fn current(&self, addr: Addr) -> (u64, Option<EventId>) {
        self.mem
            .get(&addr)
            .copied()
            .unwrap_or((Trace::POISON, None))
    }

    fn push(&mut self, e: Event) -> EventId {
        let id = e.id;
        self.events.push(e);
        id
    }

    /// Appends a read by `tid` of `addr` with annotation `annot`,
    /// returning the event id.
    pub fn read_annot(&mut self, tid: ThreadId, addr: Addr, annot: Annot) -> EventId {
        let (val, rf) = self.current(addr);
        let id = self.events.len() as EventId;
        self.push(Event {
            id,
            tid,
            kind: EventKind::Read,
            annot,
            addr,
            rval: val,
            wval: 0,
            rf,
        })
    }

    /// Appends a plain read.
    pub fn read(&mut self, tid: ThreadId, addr: Addr) -> EventId {
        self.read_annot(tid, addr, Annot::Plain)
    }

    /// Appends an acquire read.
    pub fn read_acq(&mut self, tid: ThreadId, addr: Addr) -> EventId {
        self.read_annot(tid, addr, Annot::Acquire)
    }

    /// Appends a write by `tid` of `val` to `addr` with annotation
    /// `annot`, returning the event id.
    pub fn write_annot(&mut self, tid: ThreadId, addr: Addr, val: u64, annot: Annot) -> EventId {
        let id = self.events.len() as EventId;
        let id = self.push(Event {
            id,
            tid,
            kind: EventKind::Write,
            annot,
            addr,
            rval: 0,
            wval: val,
            rf: None,
        });
        self.mem.insert(addr, (val, Some(id)));
        id
    }

    /// Appends a plain write.
    pub fn write(&mut self, tid: ThreadId, addr: Addr, val: u64) -> EventId {
        self.write_annot(tid, addr, val, Annot::Plain)
    }

    /// Appends a release write.
    pub fn write_rel(&mut self, tid: ThreadId, addr: Addr, val: u64) -> EventId {
        self.write_annot(tid, addr, val, Annot::Release)
    }

    /// Appends a compare-and-swap; the success/failure outcome is
    /// determined by the current memory contents. Returns the event id.
    pub fn cas(&mut self, tid: ThreadId, addr: Addr, old: u64, new: u64, annot: Annot) -> EventId {
        let (val, rf) = self.current(addr);
        let ok = val == old;
        let id = self.events.len() as EventId;
        let id = self.push(Event {
            id,
            tid,
            kind: if ok {
                EventKind::RmwSuccess
            } else {
                EventKind::RmwFail
            },
            annot,
            addr,
            rval: val,
            wval: if ok { new } else { 0 },
            rf,
        });
        if ok {
            self.mem.insert(addr, (new, Some(id)));
        }
        id
    }

    /// Finalizes the trace. The initial image comes out sorted by
    /// address, as [`Trace::initial_mem`] requires; of two
    /// [`init`](LitmusBuilder::init)s of one address, the later wins.
    pub fn build(mut self) -> Trace {
        self.initial.sort_by_key(|&(a, _)| a);
        self.initial.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1 = later.1;
            }
            same
        });
        Trace {
            nthreads: self.nthreads,
            events: self.events,
            initial_mem: self.initial,
            markers: Vec::new(),
            roots: Vec::new(),
            heap_range: (0, 0),
            site_names: Vec::new(),
            event_sites: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_sorts_the_image_and_the_later_init_wins() {
        let mut b = LitmusBuilder::new(1);
        b.init(0x30, 3);
        b.init(0x10, 1);
        b.init(0x30, 4);
        b.init(0x20, 2);
        b.init(0x30, 5);
        b.read(0, 0x30);
        let t = b.build();
        assert_eq!(t.initial_mem, vec![(0x10, 1), (0x20, 2), (0x30, 5)]);
        t.validate().unwrap();
        assert_eq!(t.events[0].rval, 5);
    }

    #[test]
    fn builder_traces_validate() {
        let mut b = LitmusBuilder::new(2);
        b.init(0x10, 5);
        b.read(1, 0x10);
        b.write(0, 0x10, 6);
        b.read_acq(1, 0x10);
        b.cas(0, 0x10, 6, 7, Annot::AcqRel);
        b.cas(1, 0x10, 6, 8, Annot::AcqRel); // fails
        b.build().validate().unwrap();
    }

    #[test]
    fn cas_outcome_follows_memory() {
        let mut b = LitmusBuilder::new(1);
        b.init(0x8, 1);
        let ok = b.cas(0, 0x8, 1, 2, Annot::Release);
        let fail = b.cas(0, 0x8, 1, 3, Annot::Release);
        let t = b.build();
        assert_eq!(t.events[ok as usize].kind, EventKind::RmwSuccess);
        assert_eq!(t.events[fail as usize].kind, EventKind::RmwFail);
        assert_eq!(t.events[fail as usize].rval, 2);
    }

    #[test]
    fn reads_of_unwritten_memory_are_poison() {
        let mut b = LitmusBuilder::new(1);
        let r = b.read(0, 0x1000);
        let t = b.build();
        assert_eq!(t.events[r as usize].rval, Trace::POISON);
    }
}
