//! Exact happens-before closure under the RC axioms of §2.1.
//!
//! Happens-before under the paper's RC model is *not* a superset of
//! program order: two plain accesses to different addresses by the same
//! thread are unordered. The generator edges are exactly:
//!
//! * **release one-sided barrier**: `M po→ Rel ⇒ M hb→ Rel`,
//! * **acquire one-sided barrier**: `Acq po→ M ⇒ Acq hb→ M`,
//! * **same-address program order**: `M1 po→ M2` (same address) `⇒ M1 hb→ M2`,
//! * **synchronizes-with**: `Rel sw→ Acq ⇒ Rel hb→ Acq` (an acquire that
//!   reads from a release of another thread),
//!
//! closed under transitivity. RMW atomicity is inherent because an RMW is
//! a single [`crate::Event`] carrying both effects.
//!
//! The closure is computed exactly with one bitset row per event, in a
//! single pass over the interleaving (which is a linearization of
//! happens-before, since every generator edge points forward in it). The
//! three per-thread aggregates make each edge family O(1) amortized:
//!
//! * `all[t]` — union of `{e} ∪ preds(e)` over all prior events of `t`
//!   (the sources of release-barrier edges),
//! * `acq[t]` — the same union over prior *acquires* of `t` (the sources
//!   of acquire-barrier edges),
//! * `last[(t, addr)]` — the previous access of `t` to `addr`.

use crate::event::Trace;
use crate::types::EventId;
use std::collections::HashMap;

/// Error returned when a trace is too large for the dense closure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TooLarge {
    /// Number of events in the offending trace.
    pub events: usize,
    /// The configured limit.
    pub limit: usize,
}

impl std::fmt::Display for TooLarge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "trace has {} events; dense happens-before closure is limited to {}",
            self.events, self.limit
        )
    }
}

impl std::error::Error for TooLarge {}

/// Dense happens-before closure of a trace.
#[derive(Debug, Clone)]
pub struct HbClosure {
    n: usize,
    words: usize,
    /// Row-major bitsets: bit `j` of row `i` set ⇔ `j hb→ i`.
    preds: Vec<u64>,
}

impl HbClosure {
    /// Default maximum trace size (events). 20 000 events ≈ 50 MB of
    /// bitsets; larger traces should use the streaming checkers in
    /// [`crate::spec`] instead, which need no closure.
    pub const MAX_EVENTS: usize = 20_000;

    /// Computes the closure, refusing traces above [`Self::MAX_EVENTS`].
    pub fn compute(trace: &Trace) -> Result<Self, TooLarge> {
        Self::compute_inner(trace, Self::MAX_EVENTS, false)
    }

    /// Computes the *persist-order* closure: identical to [`Self::compute`]
    /// except that same-address program order contributes edges only
    /// from the previous **write** (the paper's expanded RP rule of
    /// §4.1), not from reads. Full RC happens-before is strictly larger
    /// (read-mediated same-address edges), and those extra edges are not
    /// lifted into persist order by any rule — nor enforced by LRP's
    /// hardware. Use this closure with
    /// [`crate::spec::check_cut_closure`] to cross-check
    /// [`crate::spec::check_rp`].
    pub fn compute_persist(trace: &Trace) -> Result<Self, TooLarge> {
        Self::compute_inner(trace, Self::MAX_EVENTS, true)
    }

    /// Computes the closure with an explicit size limit.
    pub fn compute_with_limit(trace: &Trace, limit: usize) -> Result<Self, TooLarge> {
        Self::compute_inner(trace, limit, false)
    }

    fn compute_inner(trace: &Trace, limit: usize, persist: bool) -> Result<Self, TooLarge> {
        let n = trace.events.len();
        if n > limit {
            return Err(TooLarge { events: n, limit });
        }
        let words = n.div_ceil(64);
        let mut preds = vec![0u64; n * words];
        // Per-thread aggregates, as bitset rows.
        let nt = trace.nthreads as usize;
        let mut all = vec![0u64; nt * words];
        let mut acq = vec![0u64; nt * words];
        let mut last: HashMap<(u16, u64), EventId> = HashMap::new();
        let mut scratch = vec![0u64; words];

        for e in &trace.events {
            let i = e.id as usize;
            let t = e.tid as usize;
            scratch.iter_mut().for_each(|w| *w = 0);
            // Acquire one-sided barrier: every earlier acquire of t.
            for (s, a) in scratch.iter_mut().zip(&acq[t * words..(t + 1) * words]) {
                *s |= a;
            }
            // Release one-sided barrier: everything earlier in t.
            if e.is_release() {
                for (s, a) in scratch.iter_mut().zip(&all[t * words..(t + 1) * words]) {
                    *s |= a;
                }
            }
            // Same-address program order (persist mode: write-to-write
            // only — no rule lifts a write-before-read edge).
            if (!persist || e.is_write_effect()) && last.contains_key(&(e.tid, e.addr)) {
                let &p = last.get(&(e.tid, e.addr)).expect("checked");
                let p = p as usize;
                scratch[p / 64] |= 1 << (p % 64);
                let (lo, hi) = (p * words, (p + 1) * words);
                // Split borrows: predecessor rows are strictly earlier.
                for (s, a) in scratch.iter_mut().zip(&preds[lo..hi]) {
                    *s |= a;
                }
            }
            // Synchronizes-with.
            if e.is_acquire() {
                if let Some(w) = e.rf {
                    let we = &trace.events[w as usize];
                    if we.is_release() && we.tid != e.tid {
                        let p = w as usize;
                        scratch[p / 64] |= 1 << (p % 64);
                        for (s, a) in scratch.iter_mut().zip(&preds[p * words..(p + 1) * words]) {
                            *s |= a;
                        }
                    }
                }
            }
            preds[i * words..(i + 1) * words].copy_from_slice(&scratch);
            // Update aggregates with {e} ∪ preds(e).
            scratch[i / 64] |= 1 << (i % 64);
            for (a, s) in all[t * words..(t + 1) * words].iter_mut().zip(&scratch) {
                *a |= s;
            }
            if e.is_acquire() {
                for (a, s) in acq[t * words..(t + 1) * words].iter_mut().zip(&scratch) {
                    *a |= s;
                }
            }
            if !persist || e.is_write_effect() {
                last.insert((e.tid, e.addr), e.id);
            }
        }
        Ok(HbClosure { n, words, preds })
    }

    /// Number of events covered.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the closure covers no events.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Does `a` happen before `b`? (Irreflexive: `hb(x, x)` is false.)
    #[inline]
    pub fn hb(&self, a: EventId, b: EventId) -> bool {
        let (a, b) = (a as usize, b as usize);
        debug_assert!(a < self.n && b < self.n);
        self.preds[b * self.words + a / 64] >> (a % 64) & 1 == 1
    }

    /// Iterates over the happens-before predecessors of `e`.
    pub fn preds_of(&self, e: EventId) -> impl Iterator<Item = EventId> + '_ {
        let row = &self.preds[e as usize * self.words..(e as usize + 1) * self.words];
        row.iter().enumerate().flat_map(|(wi, &w)| {
            (0..64)
                .filter(move |b| w >> b & 1 == 1)
                .map(move |b| (wi * 64 + b) as EventId)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::litmus::LitmusBuilder;
    use crate::types::Annot;

    #[test]
    fn plain_accesses_different_addresses_unordered() {
        let mut b = LitmusBuilder::new(1);
        let w1 = b.write(0, 0x10, 1);
        let w2 = b.write(0, 0x18, 2);
        let hb = HbClosure::compute(&b.build()).unwrap();
        assert!(!hb.hb(w1, w2));
        assert!(!hb.hb(w2, w1));
    }

    #[test]
    fn same_address_po_is_ordered() {
        let mut b = LitmusBuilder::new(1);
        let w1 = b.write(0, 0x10, 1);
        let w2 = b.write(0, 0x10, 2);
        let hb = HbClosure::compute(&b.build()).unwrap();
        assert!(hb.hb(w1, w2));
        assert!(!hb.hb(w2, w1));
    }

    #[test]
    fn release_orders_all_prior_thread_events() {
        let mut b = LitmusBuilder::new(1);
        let w1 = b.write(0, 0x10, 1);
        let w2 = b.write(0, 0x18, 2);
        let rel = b.write_rel(0, 0x20, 3);
        let after = b.write(0, 0x28, 4);
        let hb = HbClosure::compute(&b.build()).unwrap();
        assert!(hb.hb(w1, rel));
        assert!(hb.hb(w2, rel));
        // One-sided: the release does NOT order later plain writes.
        assert!(!hb.hb(rel, after));
        assert!(!hb.hb(w1, after));
    }

    #[test]
    fn acquire_orders_all_later_thread_events() {
        let mut b = LitmusBuilder::new(1);
        let before = b.write(0, 0x10, 1);
        let acq = b.read_acq(0, 0x20);
        let after1 = b.write(0, 0x28, 2);
        let after2 = b.read(0, 0x30);
        let hb = HbClosure::compute(&b.build()).unwrap();
        assert!(hb.hb(acq, after1));
        assert!(hb.hb(acq, after2));
        // One-sided: earlier plain write unordered with the acquire.
        assert!(!hb.hb(before, acq));
    }

    #[test]
    fn message_passing_is_transitively_ordered() {
        // The paper's Figure 1 shape: W1 po Rel sw Acq po W4.
        let mut b = LitmusBuilder::new(2);
        let w1 = b.write(0, 0x100, 42);
        let rel = b.write_rel(0, 0x200, 0x100);
        let acq = b.read_acq(1, 0x200);
        let w4 = b.write(1, 0x300, 7);
        let hb = HbClosure::compute(&b.build()).unwrap();
        assert!(hb.hb(w1, rel));
        assert!(hb.hb(rel, acq));
        assert!(hb.hb(acq, w4));
        assert!(hb.hb(w1, w4), "transitive closure W1 hb W4");
        assert!(hb.hb(rel, w4));
    }

    #[test]
    fn rf_from_plain_write_does_not_synchronize() {
        let mut b = LitmusBuilder::new(2);
        let w = b.write(0, 0x100, 1); // plain, not a release
        let r = b.read_acq(1, 0x100);
        let hb = HbClosure::compute(&b.build()).unwrap();
        assert!(!hb.hb(w, r), "acquire of a plain write creates no sw edge");
    }

    #[test]
    fn rf_same_thread_is_same_addr_not_sw() {
        let mut b = LitmusBuilder::new(1);
        let w = b.write_rel(0, 0x100, 1);
        let r = b.read_acq(0, 0x100);
        let hb = HbClosure::compute(&b.build()).unwrap();
        assert!(hb.hb(w, r), "same-address po still orders them");
    }

    #[test]
    fn rmw_acquire_release_chains() {
        // T0 prepares a node and CAS-releases a link; T1 CAS-acq_rels the
        // same link and then writes. Both chains must be in hb.
        let mut b = LitmusBuilder::new(2);
        b.init(0x200, 0);
        let w1 = b.write(0, 0x100, 42);
        let rel = b.cas(0, 0x200, 0, 0x100, Annot::AcqRel);
        let acq = b.cas(1, 0x200, 0x100, 0x300, Annot::AcqRel);
        let w4 = b.write(1, 0x310, 9);
        let hb = HbClosure::compute(&b.build()).unwrap();
        assert!(hb.hb(w1, rel));
        assert!(hb.hb(rel, acq));
        assert!(hb.hb(acq, w4));
        assert!(hb.hb(w1, w4));
    }

    #[test]
    fn failed_rmw_still_acquires_but_does_not_release() {
        let mut b = LitmusBuilder::new(2);
        b.init(0x200, 5);
        let rel = b.write_rel(0, 0x200, 6);
        let fail = b.cas(1, 0x200, 99, 1, Annot::AcqRel); // fails, reads 6
        let w = b.write(1, 0x300, 1);
        let hb = HbClosure::compute(&b.build()).unwrap();
        assert!(
            hb.hb(rel, fail),
            "failed acq-RMW synchronizes with the release it read"
        );
        assert!(hb.hb(fail, w));
        assert!(hb.hb(rel, w));
    }

    #[test]
    fn persist_closure_drops_read_mediated_same_addr_edges() {
        // T writes x, acquire-reads its own x, then writes y. Full hb
        // orders Wx before Wy (through the read); the persist closure —
        // matching the paper's expanded rules and the LRP hardware —
        // does not.
        let mut b = LitmusBuilder::new(1);
        let wx = b.write(0, 0x10, 1);
        let r = b.read_acq(0, 0x10);
        let wy = b.write(0, 0x20, 2);
        let t = b.build();
        let full = HbClosure::compute(&t).unwrap();
        assert!(full.hb(wx, r) && full.hb(r, wy) && full.hb(wx, wy));
        let persist = HbClosure::compute_persist(&t).unwrap();
        assert!(persist.hb(r, wy), "acquire barrier survives");
        assert!(!persist.hb(wx, wy), "read-bridge edge is not lifted");
    }

    #[test]
    fn persist_closure_keeps_write_chains_and_sw() {
        let mut b = LitmusBuilder::new(2);
        b.init(0x200, 0);
        let w1 = b.write(0, 0x100, 42);
        let rel = b.write_rel(0, 0x200, 1);
        let acq = b.read_acq(1, 0x200);
        let w4 = b.write(1, 0x300, 7);
        let hb = HbClosure::compute_persist(&b.build()).unwrap();
        assert!(hb.hb(w1, rel));
        assert!(hb.hb(rel, acq));
        assert!(hb.hb(acq, w4));
        assert!(hb.hb(w1, w4));
    }

    #[test]
    fn size_limit_enforced() {
        let mut b = LitmusBuilder::new(1);
        for i in 0..10 {
            b.write(0, 8 * i, i);
        }
        let t = b.build();
        assert!(HbClosure::compute_with_limit(&t, 5).is_err());
        assert!(HbClosure::compute_with_limit(&t, 10).is_ok());
    }

    #[test]
    fn preds_of_enumerates_exactly() {
        let mut b = LitmusBuilder::new(2);
        let w1 = b.write(0, 0x100, 42);
        let rel = b.write_rel(0, 0x200, 0x100);
        let acq = b.read_acq(1, 0x200);
        let hb = HbClosure::compute(&b.build()).unwrap();
        let preds: Vec<_> = hb.preds_of(acq).collect();
        assert_eq!(preds, vec![w1, rel]);
    }
}
