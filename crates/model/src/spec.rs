//! Persistency-model specifications as checkable predicates over persist
//! schedules.
//!
//! A [`PersistSchedule`] assigns each write event an optional *persist
//! stamp*: the sequence number of the NVM flush that made its effect
//! durable. Equal stamps mean the writes became durable atomically (they
//! rode the same cache-line flush); `None` means the write never became
//! durable before the end of the execution.
//!
//! [`check_persist_order`] is the one admissibility check: it judges a
//! schedule against a [`PersistDiscipline`] — the persist order a
//! mechanism promises — in a single O(n) streaming recurrence. Because a
//! schedule is a total order, checking each rule edge implies the
//! transitive closure, so no happens-before closure is built and the
//! check runs at any trace size. [`check_rp`] is its
//! [`ReleaseOrder`](PersistDiscipline::ReleaseOrder) call: **Release
//! Persistency** (§4.1 of the paper).
//!
//! [`check_arp`] verifies only the weaker **ARP rule** (§3.1):
//! `W po→ Rel sw→ Acq po→ W' ⇒ W p→ W'` — notably, it does *not* require
//! a release to persist after the writes that precede it, which is the
//! gap Figure 1 of the paper exploits.
//!
//! [`check_cut_closure`] verifies the Izraelevitz–Scott criterion used
//! for null recovery: every stamp-prefix of the schedule is a
//! *consistent cut* of happens-before. It is the closure-based reference
//! the streaming check is tested against.

use crate::event::Trace;
use crate::hb::HbClosure;
use crate::types::{EventId, ThreadId};
use std::collections::HashSet;

/// The persist-ordering promise of a mechanism: the partial order its
/// writes reach NVM in.
///
/// A *crash cut* — the set of writes durable at a crash — is
/// **admissible** for a mechanism iff it is downward closed under that
/// order (and, always, per-location prefix-closed: a cache line holds
/// one value, so a location's durable value is some prefix of its
/// coherence-ordered write sequence). A schedule respects the order iff
/// [`check_persist_order`] accepts it.
///
/// The four disciplines, weakest to strongest:
///
/// * [`Unconstrained`](PersistDiscipline::Unconstrained) — NOP: lines
///   reach NVM only on incidental evictions, in no promised order. Any
///   per-location prefix combination is admissible, and durable
///   linearizability is **not** guaranteed.
/// * [`ReleaseOrder`](PersistDiscipline::ReleaseOrder) — LRP (§4.1's
///   expanded RP rules): persists follow the release/acquire one-sided
///   barriers, same-address program order, and synchronizes-with edges —
///   exactly [`HbClosure::compute_persist`].
/// * [`EpochOrder`](PersistDiscipline::EpochOrder) — SB and BB: release
///   order plus intra-thread epoch barriers (every write up to and
///   including a release persists no later than any later write of the
///   thread).
/// * [`StoreOrder`](PersistDiscipline::StoreOrder) — DPO: release order
///   plus full per-thread store order (each thread's writes persist in
///   program order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PersistDiscipline {
    /// No ordering promise (NOP).
    Unconstrained,
    /// Per-thread store order plus release order (DPO).
    StoreOrder,
    /// Release-delimited epoch order plus release order (SB, BB).
    EpochOrder,
    /// The expanded RP rules of §4.1 (LRP).
    ReleaseOrder,
}

impl PersistDiscipline {
    /// All disciplines, weakest ordering first.
    pub const ALL: [PersistDiscipline; 4] = [
        PersistDiscipline::Unconstrained,
        PersistDiscipline::ReleaseOrder,
        PersistDiscipline::EpochOrder,
        PersistDiscipline::StoreOrder,
    ];

    /// Stable name for reports and flags.
    pub fn name(self) -> &'static str {
        match self {
            PersistDiscipline::Unconstrained => "unconstrained",
            PersistDiscipline::StoreOrder => "store-order",
            PersistDiscipline::EpochOrder => "epoch-order",
            PersistDiscipline::ReleaseOrder => "release-order",
        }
    }

    /// Whether admissible cuts of this discipline are guaranteed to be
    /// durably linearizable for the paper's log-free structures. NOP
    /// promises nothing: checkers *report* its violations instead of
    /// failing on them.
    ///
    /// Every discipline that does guarantee it persists a *release*
    /// store no earlier than the stores before it in program order. That
    /// is the soundness condition for detectable-operation stamps
    /// (`lrp-detect`): a slot record is written payload-first with the
    /// request-id word last via a release store, so a recovered stamp
    /// proves the whole record — and, via the same release edge, the
    /// operation effect it checkpoints — reached NVM. Under NOP a
    /// recovered stamp is only a hint.
    pub fn guarantees_dl(self) -> bool {
        !matches!(self, PersistDiscipline::Unconstrained)
    }
}

impl std::fmt::Display for PersistDiscipline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Assignment of persist stamps to write events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PersistSchedule {
    stamps: Vec<Option<u64>>,
}

impl PersistSchedule {
    /// A schedule over `n` events in which nothing has persisted.
    pub fn new(n: usize) -> Self {
        PersistSchedule {
            stamps: vec![None; n],
        }
    }

    /// Builds a schedule from an explicit persist order: `order[i]`
    /// receives stamp `i`.
    pub fn from_order(n: usize, order: &[EventId]) -> Self {
        let mut s = Self::new(n);
        for (i, &e) in order.iter().enumerate() {
            s.set(e, i as u64);
        }
        s
    }

    /// Records that event `e` persisted at stamp `stamp`.
    pub fn set(&mut self, e: EventId, stamp: u64) {
        self.stamps[e as usize] = Some(stamp);
    }

    /// The stamp of event `e`, if it persisted.
    pub fn stamp(&self, e: EventId) -> Option<u64> {
        self.stamps[e as usize]
    }

    /// Number of events covered.
    pub fn len(&self) -> usize {
        self.stamps.len()
    }

    /// True if the schedule covers no events.
    pub fn is_empty(&self) -> bool {
        self.stamps.is_empty()
    }

    /// The set of writes with stamp `<= cut` (the durable state if a
    /// crash happens just after flush `cut` completes).
    pub fn cut_at(&self, trace: &Trace, cut: u64) -> HashSet<EventId> {
        trace
            .events
            .iter()
            .filter(|e| e.is_write_effect())
            .filter(|e| matches!(self.stamps[e.id as usize], Some(s) if s <= cut))
            .map(|e| e.id)
            .collect()
    }

    /// All distinct stamps in ascending order.
    pub fn distinct_stamps(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.stamps.iter().flatten().copied().collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

/// Extended stamp domain with `None` treated as "never" (+∞).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Ext {
    Fin(u64),
    Inf,
}

fn ext(s: Option<u64>) -> Ext {
    match s {
        Some(v) => Ext::Fin(v),
        None => Ext::Inf,
    }
}

/// Which persist-order rule a violation falls under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RpRule {
    /// `W po→ Rel ⇒ W p→ Rel` (release one-sided barrier, §4.1).
    ReleaseBarrier,
    /// `Rel sw→ Acq po→ W ⇒ Rel p→ W` (sw plus acquire one-sided barrier).
    AcquireBarrier,
    /// `W1 po→ W2` same address `⇒ W1 p→ W2`.
    SameAddr,
    /// `W po→ Rel po→ W' ⇒ W p→ W'` (epoch barrier, `EpochOrder` only).
    EpochBarrier,
    /// `W po→ W' ⇒ W p→ W'` (store order, `StoreOrder` only).
    StoreOrder,
}

/// A persist-order violation: `first` was required to persist no later
/// than `second` but did not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Violation {
    /// The event that had to persist first.
    pub first: EventId,
    /// The event that persisted too early.
    pub second: EventId,
    /// The violated rule.
    pub rule: RpRule,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:?}: event {} must persist before event {}",
            self.rule, self.first, self.second
        )
    }
}

const MAX_REPORTED: usize = 16;

/// Checks the Release Persistency rules of §4.1 against a schedule: the
/// [`ReleaseOrder`](PersistDiscipline::ReleaseOrder) call of
/// [`check_persist_order`].
///
/// Note the deliberate fidelity point: the paper's succinct statement
/// ("any two writes in happens-before persist in that order") is
/// *stronger* than its expanded rules — full RC happens-before contains
/// read-mediated same-address edges (e.g. an acquire reading the
/// thread's own plain write) that no rule lifts into persist order and
/// that LRP's hardware does not enforce. This checker implements the
/// expanded (implementable) specification; [`check_cut_closure`] paired
/// with [`HbClosure::compute_persist`] is its closure-based equivalent.
///
/// Returns the first few violations (capped) on failure.
pub fn check_rp(trace: &Trace, sched: &PersistSchedule) -> Result<(), Vec<Violation>> {
    check_persist_order(trace, sched, PersistDiscipline::ReleaseOrder)
}

/// Checks that a schedule respects discipline `d`'s persist order.
///
/// One streaming pass over the rule edges: the release and acquire
/// one-sided barriers, same-thread same-address order and
/// synchronizes-with for every constrained discipline, plus epoch
/// barriers for `EpochOrder` and full per-thread store order for
/// `StoreOrder`. A write whose own stamp is smaller than the largest
/// stamp among its persist-order predecessors is a violation; each
/// violation names the predecessor that set that bound and the rule of
/// the edge it came in through. `Unconstrained` accepts every schedule.
/// Cross-thread same-address order (coherence) is not checked here: it
/// is the per-location prefix rule of a crash cut, not part of any
/// discipline's promise.
///
/// Returns the first few violations (capped) on failure.
pub fn check_persist_order(
    trace: &Trace,
    sched: &PersistSchedule,
    d: PersistDiscipline,
) -> Result<(), Vec<Violation>> {
    assert_eq!(
        sched.len(),
        trace.events.len(),
        "schedule/trace size mismatch"
    );
    let mut viol = Vec::new();
    propagate(
        trace,
        d,
        |e| ext(sched.stamp(e)),
        |w, s, bound| {
            if let (Some((b, src, rule)), Ext::Fin(_)) = (bound, s) {
                if b > s {
                    viol.push(Violation {
                        first: src,
                        second: w,
                        rule,
                    });
                }
            }
            viol.len() < MAX_REPORTED
        },
    );
    if viol.is_empty() {
        Ok(())
    } else {
        Err(viol)
    }
}

/// The lowest-numbered persist-order predecessor of write `w` under `d`
/// that persisted later than `w`, or never: the canonical pair to report
/// for a violation at `w` (a violation itself names the predecessor with
/// the largest stamp). `None` if no predecessor is late.
pub fn earliest_late_pred(
    trace: &Trace,
    sched: &PersistSchedule,
    d: PersistDiscipline,
    w: EventId,
) -> Option<EventId> {
    let s = ext(sched.stamp(w));
    // Keyed so that the largest key over a predecessor set is the
    // lowest-numbered late write; on-time writes key to the floor.
    let key = |p: EventId| {
        if ext(sched.stamp(p)) > s {
            Ext::Fin(u64::MAX - p as u64)
        } else {
            Ext::Fin(0)
        }
    };
    let mut late = None;
    propagate(trace, d, key, |e, _, bound| {
        if e == w {
            late = bound.filter(|&(k, ..)| k > Ext::Fin(0)).map(|(_, p, _)| p);
        }
        e != w
    });
    late
}

/// A fold value: the largest key seen, the write it belongs to, and the
/// rule of the edge it last came in through.
type Fold = Option<(Ext, EventId, RpRule)>;

/// The one persist-order recurrence. For each write effect, in trace
/// order, calls `visit(w, key(w), bound)` where `bound` is the largest
/// `key` over `w`'s persist-order predecessors under `d`; stops when
/// `visit` returns false. Because the trace is a total order, folding
/// each rule edge once yields the transitive closure, so the walk is
/// O(n) and builds no happens-before closure.
///
/// The edges, per event: prior acquires of the thread (acquire one-sided
/// barrier), prior writes of the thread at a release (release one-sided
/// barrier), the thread's previous write to the same address, and the
/// release an acquire reads from (synchronizes-with). `EpochOrder` also
/// bounds every write by the thread's writes up to and including its
/// last release, and `StoreOrder` by all earlier writes of the thread.
/// `Unconstrained` has no edges: nothing is visited.
fn propagate(
    trace: &Trace,
    d: PersistDiscipline,
    key: impl Fn(EventId) -> Ext,
    mut visit: impl FnMut(EventId, Ext, Fold) -> bool,
) {
    if d == PersistDiscipline::Unconstrained {
        return;
    }
    let nt = trace.nthreads as usize;
    // folded[e]: max key over ({e} if write) ∪ persist-predecessors(e).
    let mut folded: Vec<Fold> = vec![None; trace.events.len()];
    // Per-thread aggregates over folded values: every write so far, every
    // acquire so far, and (EpochOrder) every write up to the last release.
    let mut all_w: Vec<Fold> = vec![None; nt];
    let mut acqs: Vec<Fold> = vec![None; nt];
    let mut epoch: Vec<Fold> = vec![None; nt];
    let mut last_w: std::collections::HashMap<(ThreadId, u64), (Ext, EventId, RpRule)> =
        std::collections::HashMap::new();

    fn join(b: &mut Fold, other: Fold, rule: Option<RpRule>) {
        if let Some((e2, src, r2)) = other {
            let r = rule.unwrap_or(r2);
            match b {
                Some((e1, _, _)) if *e1 >= e2 => {}
                _ => *b = Some((e2, src, r)),
            }
        }
    }

    for e in &trace.events {
        let t = e.tid as usize;
        let mut bound: Fold = None;
        // Acquire one-sided barrier: every earlier acquire of this thread
        // bounds everything after it.
        join(&mut bound, acqs[t], Some(RpRule::AcquireBarrier));
        // Release one-sided barrier: every earlier write of this thread
        // bounds a release.
        if e.is_release() {
            join(&mut bound, all_w[t], Some(RpRule::ReleaseBarrier));
        }
        // Program-order address dependency (writes to one address; a
        // read at the same address inherits nothing — no §4.1 rule
        // orders a write before a later read, even an acquire).
        if e.is_write_effect() {
            if let Some(&lw) = last_w.get(&(e.tid, e.addr)) {
                join(&mut bound, Some(lw), Some(RpRule::SameAddr));
            }
        }
        // Synchronizes-with: an acquire inherits the release it read.
        if e.is_acquire() {
            if let Some(w) = e.rf {
                let we = &trace.events[w as usize];
                if we.is_release() && we.tid != e.tid {
                    join(&mut bound, folded[w as usize], Some(RpRule::AcquireBarrier));
                }
            }
        }
        // The discipline's own intra-thread edges.
        if e.is_write_effect() {
            match d {
                PersistDiscipline::EpochOrder => {
                    join(&mut bound, epoch[t], Some(RpRule::EpochBarrier))
                }
                PersistDiscipline::StoreOrder => {
                    join(&mut bound, all_w[t], Some(RpRule::StoreOrder))
                }
                PersistDiscipline::ReleaseOrder | PersistDiscipline::Unconstrained => {}
            }
        }
        let mut f = bound;
        if e.is_write_effect() {
            let k = key(e.id);
            if !visit(e.id, k, bound) {
                return;
            }
            // Fold the write's own key and update the aggregates.
            join(&mut f, Some((k, e.id, RpRule::SameAddr)), None);
            join(&mut all_w[t], f, None);
            last_w.insert((e.tid, e.addr), f.expect("write folds its own key"));
            if e.is_release() {
                epoch[t] = all_w[t];
            }
        }
        folded[e.id as usize] = f;
        if e.is_acquire() {
            join(&mut acqs[t], f, Some(RpRule::AcquireBarrier));
        }
    }
}

/// Checks only the ARP rule of §3.1:
/// `W po→ Rel sw→ Acq po→ W' ⇒ W p→ W'`.
pub fn check_arp(trace: &Trace, sched: &PersistSchedule) -> Result<(), Vec<Violation>> {
    assert_eq!(
        sched.len(),
        trace.events.len(),
        "schedule/trace size mismatch"
    );
    let nt = trace.nthreads as usize;
    // Pass 1: for each release, the max stamp over writes strictly
    // po-before it in its thread.
    let mut relmax: std::collections::HashMap<EventId, (Ext, Option<EventId>)> =
        std::collections::HashMap::new();
    {
        let mut maxw: Vec<Option<(Ext, EventId)>> = vec![None; nt];
        for e in &trace.events {
            let t = e.tid as usize;
            if e.is_release() {
                let m = maxw[t]
                    .map(|(m, src)| (m, Some(src)))
                    .unwrap_or((Ext::Fin(0), None));
                relmax.insert(e.id, m);
            }
            if e.is_write_effect() {
                let s = ext(sched.stamp(e.id));
                match maxw[t] {
                    Some((m, _)) if m >= s => {}
                    _ => maxw[t] = Some((s, e.id)),
                }
            }
        }
    }
    // Pass 2: propagate lower bounds through sw edges.
    let mut viol = Vec::new();
    let mut lb: Vec<Option<(Ext, EventId)>> = vec![None; nt];
    for e in &trace.events {
        let t = e.tid as usize;
        if e.is_write_effect() {
            if let (Some((b, src)), Ext::Fin(_)) = (lb[t], ext(sched.stamp(e.id))) {
                if b > ext(sched.stamp(e.id)) {
                    viol.push(Violation {
                        first: src,
                        second: e.id,
                        rule: RpRule::AcquireBarrier,
                    });
                    if viol.len() >= MAX_REPORTED {
                        break;
                    }
                }
            }
        }
        if e.is_acquire() {
            if let Some(w) = e.rf {
                let we = &trace.events[w as usize];
                if we.is_release() && we.tid != e.tid {
                    if let Some(&(m, Some(src))) = relmax.get(&w) {
                        match lb[t] {
                            Some((b, _)) if b >= m => {}
                            _ => lb[t] = Some((m, src)),
                        }
                    }
                }
            }
        }
    }
    if viol.is_empty() {
        Ok(())
    } else {
        Err(viol)
    }
}

/// A consistent-cut violation: `present` is durable while its
/// happens-before predecessor `missing` is not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CutViolation {
    /// Durable write.
    pub present: EventId,
    /// Its non-durable hb-predecessor write.
    pub missing: EventId,
}

/// Checks that *every* stamp-prefix of the schedule is a consistent cut,
/// i.e. for every pair of writes `w1 hb→ w2`, `stamp(w1) <= stamp(w2)`
/// (with unpersisted treated as +∞). This is the paper's recovery
/// criterion for the whole execution.
pub fn check_cut_closure(
    trace: &Trace,
    hb: &HbClosure,
    sched: &PersistSchedule,
) -> Result<(), CutViolation> {
    for e in &trace.events {
        if !e.is_write_effect() {
            continue;
        }
        let s2 = ext(sched.stamp(e.id));
        if s2 == Ext::Inf {
            continue;
        }
        for p in hb.preds_of(e.id) {
            if trace.events[p as usize].is_write_effect() && ext(sched.stamp(p)) > s2 {
                return Err(CutViolation {
                    present: e.id,
                    missing: p,
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::litmus::LitmusBuilder;
    use crate::types::Annot;

    /// Figure 1 message-passing trace: W1; Rel || Acq; W4.
    fn fig1() -> (Trace, EventId, EventId, EventId, EventId) {
        let mut b = LitmusBuilder::new(2);
        b.init(0x200, 0);
        let w1 = b.write(0, 0x100, 42);
        let rel = b.cas(0, 0x200, 0, 0x100, Annot::AcqRel);
        let acq = b.cas(1, 0x200, 0x100, 0x300, Annot::AcqRel);
        let w4 = b.write(1, 0x310, 9);
        (b.build(), w1, rel, acq, w4)
    }

    #[test]
    fn rp_accepts_hb_respecting_schedule() {
        let (t, w1, rel, acq, w4) = fig1();
        let sched = PersistSchedule::from_order(t.events.len(), &[w1, rel, acq, w4]);
        check_rp(&t, &sched).unwrap();
        check_arp(&t, &sched).unwrap();
    }

    #[test]
    fn rmw_acquire_write_must_persist_before_later_writes() {
        // The acquire-CAS's own write (the link update of the acquiring
        // thread) must persist before the thread's subsequent writes.
        let (t, w1, rel, acq, w4) = fig1();
        let sched = PersistSchedule::from_order(t.events.len(), &[w1, rel, w4, acq]);
        let v = check_rp(&t, &sched).unwrap_err();
        assert!(v
            .iter()
            .any(|v| v.rule == RpRule::AcquireBarrier && v.first == acq && v.second == w4));
    }

    #[test]
    fn rp_rejects_release_before_preceding_write() {
        let (t, w1, rel, _acq, w4) = fig1();
        let sched = PersistSchedule::from_order(t.events.len(), &[rel, w1, w4]);
        let v = check_rp(&t, &sched).unwrap_err();
        assert!(v
            .iter()
            .any(|v| v.rule == RpRule::ReleaseBarrier && v.first == w1 && v.second == rel));
        // But ARP allows it — this is exactly the paper's complaint (§3.1.1).
        check_arp(&t, &sched).unwrap();
    }

    #[test]
    fn rp_rejects_acquirer_write_before_release() {
        let (t, w1, rel, _acq, w4) = fig1();
        let sched = PersistSchedule::from_order(t.events.len(), &[w1, w4, rel]);
        let v = check_rp(&t, &sched).unwrap_err();
        assert!(v
            .iter()
            .any(|v| v.rule == RpRule::AcquireBarrier && v.second == w4));
    }

    #[test]
    fn arp_rejects_w1_after_w4() {
        let (t, w1, rel, _acq, w4) = fig1();
        let sched = PersistSchedule::from_order(t.events.len(), &[rel, w4, w1]);
        assert!(check_arp(&t, &sched).is_err());
        assert!(check_rp(&t, &sched).is_err());
    }

    #[test]
    fn unpersisted_release_blocks_acquirer_writes() {
        let (t, w1, _rel, _acq, w4) = fig1();
        // Release never persisted, but acquirer's write did.
        let sched = PersistSchedule::from_order(t.events.len(), &[w1, w4]);
        let v = check_rp(&t, &sched).unwrap_err();
        assert!(v.iter().any(|v| v.rule == RpRule::AcquireBarrier));
    }

    #[test]
    fn unpersisted_write_blocks_release() {
        let (t, _w1, rel, _acq, _w4) = fig1();
        let sched = PersistSchedule::from_order(t.events.len(), &[rel]);
        let v = check_rp(&t, &sched).unwrap_err();
        assert!(v.iter().any(|v| v.rule == RpRule::ReleaseBarrier));
    }

    #[test]
    fn nothing_persisted_is_always_fine() {
        let (t, ..) = fig1();
        let sched = PersistSchedule::new(t.events.len());
        check_rp(&t, &sched).unwrap();
        check_arp(&t, &sched).unwrap();
    }

    #[test]
    fn same_addr_order_enforced() {
        let mut b = LitmusBuilder::new(1);
        let a = b.write(0, 0x10, 1);
        let c = b.write(0, 0x10, 2);
        let t = b.build();
        let bad = PersistSchedule::from_order(t.events.len(), &[c, a]);
        let v = check_rp(&t, &bad).unwrap_err();
        assert_eq!(v[0].rule, RpRule::SameAddr);
        let good = PersistSchedule::from_order(t.events.len(), &[a, c]);
        check_rp(&t, &good).unwrap();
    }

    #[test]
    fn coalesced_equal_stamps_allowed() {
        let mut b = LitmusBuilder::new(1);
        let w = b.write(0, 0x10, 1);
        let rel = b.write_rel(0, 0x18, 2); // same 64B line as 0x10
        let t = b.build();
        let mut sched = PersistSchedule::new(t.events.len());
        sched.set(w, 3);
        sched.set(rel, 3); // atomic line flush
        check_rp(&t, &sched).unwrap();
    }

    #[test]
    fn plain_writes_may_persist_out_of_order() {
        // RP's one-sided barrier (Figure 2b): WB may persist before WA.
        let mut b = LitmusBuilder::new(1);
        let wa = b.write(0, 0x10, 1);
        let rel = b.write_rel(0, 0x20, 2);
        let wb = b.write(0, 0x30, 3);
        let t = b.build();
        let sched = PersistSchedule::from_order(t.events.len(), &[wb, wa, rel]);
        check_rp(&t, &sched).unwrap();
    }

    #[test]
    fn cut_closure_matches_pairwise_checks() {
        let (t, w1, rel, _acq, w4) = fig1();
        let hb = HbClosure::compute(&t).unwrap();
        let good = PersistSchedule::from_order(t.events.len(), &[w1, rel, _acq, w4]);
        check_cut_closure(&t, &hb, &good).unwrap();
        let bad = PersistSchedule::from_order(t.events.len(), &[rel, w1, _acq, w4]);
        let v = check_cut_closure(&t, &hb, &bad).unwrap_err();
        assert_eq!(v.missing, w1);
        assert_eq!(v.present, rel);
    }

    #[test]
    fn cut_at_selects_by_stamp() {
        let (t, w1, rel, _acq, w4) = fig1();
        let sched = PersistSchedule::from_order(t.events.len(), &[w1, rel, w4]);
        assert_eq!(sched.cut_at(&t, 0), [w1].into_iter().collect());
        assert_eq!(sched.cut_at(&t, 1), [w1, rel].into_iter().collect());
        assert_eq!(sched.cut_at(&t, 2), [w1, rel, w4].into_iter().collect());
        assert_eq!(sched.distinct_stamps(), vec![0, 1, 2]);
    }

    /// T0: WA; Rel; WB — Figure 2b's shape.
    fn wa_rel_wb() -> (Trace, EventId, EventId, EventId) {
        let mut b = LitmusBuilder::new(1);
        let wa = b.write(0, 0x10, 1);
        let rel = b.write_rel(0, 0x80, 2);
        let wb = b.write(0, 0x100, 3);
        (b.build(), wa, rel, wb)
    }

    #[test]
    fn epoch_order_is_stricter_than_rp() {
        // Figure 2b: RP lets WB persist before WA, the epoch barrier
        // does not.
        let (t, wa, rel, wb) = wa_rel_wb();
        let reordered = PersistSchedule::from_order(t.events.len(), &[wb, wa, rel]);
        check_rp(&t, &reordered).unwrap();
        let v = check_persist_order(&t, &reordered, PersistDiscipline::EpochOrder).unwrap_err();
        assert_eq!(v[0].second, wb);
        assert_eq!(v[0].rule, RpRule::EpochBarrier);
        let strict = PersistSchedule::from_order(t.events.len(), &[wa, rel, wb]);
        check_persist_order(&t, &strict, PersistDiscipline::EpochOrder).unwrap();
    }

    #[test]
    fn epoch_order_requires_release_before_later_writes() {
        // Release never persisted but a later write did.
        let (t, wa, _rel, wb) = wa_rel_wb();
        let sched = PersistSchedule::from_order(t.events.len(), &[wa, wb]);
        check_rp(&t, &sched).unwrap();
        assert!(check_persist_order(&t, &sched, PersistDiscipline::EpochOrder).is_err());
    }

    #[test]
    fn store_order_chains_plain_writes_within_an_epoch() {
        // WA; WB with no release between them: only store order cares.
        let mut b = LitmusBuilder::new(1);
        let wa = b.write(0, 0x10, 1);
        let wb = b.write(0, 0x100, 2);
        let t = b.build();
        let sched = PersistSchedule::from_order(t.events.len(), &[wb, wa]);
        check_persist_order(&t, &sched, PersistDiscipline::EpochOrder).unwrap();
        let v = check_persist_order(&t, &sched, PersistDiscipline::StoreOrder).unwrap_err();
        assert_eq!(
            (v[0].first, v[0].second, v[0].rule),
            (wa, wb, RpRule::StoreOrder)
        );
    }

    #[test]
    fn unconstrained_accepts_every_schedule() {
        let (t, wa, rel, wb) = wa_rel_wb();
        let sched = PersistSchedule::from_order(t.events.len(), &[rel, wb, wa]);
        for d in PersistDiscipline::ALL {
            let verdict = check_persist_order(&t, &sched, d);
            assert_eq!(
                verdict.is_ok(),
                d == PersistDiscipline::Unconstrained,
                "{d}"
            );
        }
    }

    #[test]
    fn names_are_stable_and_distinct() {
        let mut names: Vec<&str> = PersistDiscipline::ALL.iter().map(|d| d.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 4);
    }

    #[test]
    fn only_unconstrained_waives_dl() {
        for d in PersistDiscipline::ALL {
            assert_eq!(
                d.guarantees_dl(),
                d != PersistDiscipline::Unconstrained,
                "{d}"
            );
        }
    }
}
