//! Persist-order generator edges per discipline: the lattice definition.
//!
//! Every discipline is represented by a set of generator edges
//! `(p, w)`: write `p` must persist no later than write `w`. A *cut* is
//! admissible iff it is downward closed under the generator edges
//! (closure under generators implies closure under their transitive
//! closure), so these edges are what the cut enumerator, the minimizer
//! and [`crate::mutate_reorder`] walk.
//!
//! Schedules are not judged here: [`lrp_model::spec::check_persist_order`]
//! does that in one streaming pass, with no trace-size cap. A schedule
//! passes it, with every location's coherence chain stamp-monotone,
//! exactly when it respects every edge of this table
//! (`tests/arbiter.rs`). The table is built on a dense happens-before
//! closure and so refuses traces above
//! [`HbClosure::MAX_EVENTS`](lrp_model::hb::HbClosure::MAX_EVENTS).

use lrp_model::hb::{HbClosure, TooLarge};
use lrp_model::spec::PersistDiscipline;
use lrp_model::{Addr, EventId, Trace};
use std::collections::HashMap;

/// Per-event persist-order predecessors of `trace` under discipline
/// `d`: `preds[w]` lists the writes that must persist no later than
/// write `w`. Indexed by event id; empty for non-writes. Rows are
/// sorted and deduplicated, so iteration order is deterministic.
pub fn persist_preds(trace: &Trace, d: PersistDiscipline) -> Result<Vec<Vec<EventId>>, TooLarge> {
    let n = trace.events.len();
    let mut preds: Vec<Vec<EventId>> = vec![Vec::new(); n];

    // Every discipline — even NOP — persists same-address writes in
    // coherence order: a cache line holds one value, so the durable
    // value of a location is always some prefix of its write sequence.
    let mut last: HashMap<Addr, EventId> = HashMap::new();
    for e in trace.events.iter().filter(|e| e.is_write_effect()) {
        if let Some(&p) = last.get(&e.addr) {
            preds[e.id as usize].push(p);
        }
        last.insert(e.addr, e.id);
    }
    if d == PersistDiscipline::Unconstrained {
        return Ok(preds);
    }

    // Release order is the base of every constrained discipline: the
    // persist-hb closure (§4.1's expanded RP rules), restricted to
    // write effects.
    let hb = HbClosure::compute_persist(trace)?;
    for e in trace.events.iter().filter(|e| e.is_write_effect()) {
        let row: Vec<EventId> = hb
            .preds_of(e.id)
            .filter(|&p| trace.events[p as usize].is_write_effect())
            .collect();
        preds[e.id as usize].extend(row);
    }

    match d {
        PersistDiscipline::ReleaseOrder | PersistDiscipline::Unconstrained => {}
        PersistDiscipline::EpochOrder => {
            // BB's full barriers around each release split every thread
            // into release-delimited segments: all writes of earlier
            // segments persist no later than any later write, and
            // within a segment earlier writes persist no later than the
            // closing release. Generators: edges from every write of
            // the immediately previous segment (transitivity covers
            // older segments), plus the intra-segment edges at the
            // release.
            let nt = trace.nthreads as usize;
            let mut prev_seg: Vec<Vec<EventId>> = vec![Vec::new(); nt];
            let mut cur_seg: Vec<Vec<EventId>> = vec![Vec::new(); nt];
            for e in trace.events.iter().filter(|e| e.is_write_effect()) {
                let t = e.tid as usize;
                preds[e.id as usize].extend(prev_seg[t].iter().copied());
                if e.is_release() {
                    preds[e.id as usize].extend(cur_seg[t].iter().copied());
                    cur_seg[t].push(e.id);
                    prev_seg[t] = std::mem::take(&mut cur_seg[t]);
                } else {
                    cur_seg[t].push(e.id);
                }
            }
        }
        PersistDiscipline::StoreOrder => {
            // SB/DPO persist each thread's stores in full program
            // order: chain each write to its immediate same-thread
            // predecessor (plus the release-order base for the
            // cross-thread sw edges).
            let nt = trace.nthreads as usize;
            let mut last_w: Vec<Option<EventId>> = vec![None; nt];
            for e in trace.events.iter().filter(|e| e.is_write_effect()) {
                let t = e.tid as usize;
                if let Some(p) = last_w[t] {
                    preds[e.id as usize].push(p);
                }
                last_w[t] = Some(e.id);
            }
        }
    }

    for row in &mut preds {
        row.sort_unstable();
        row.dedup();
    }
    Ok(preds)
}

/// Flattens a predecessor table into `(pred, write)` edges, ordered by
/// write id then predecessor id (deterministic first-violation reports).
pub fn edge_list(preds: &[Vec<EventId>]) -> Vec<(EventId, EventId)> {
    preds
        .iter()
        .enumerate()
        .flat_map(|(w, ps)| ps.iter().map(move |&p| (p, w as EventId)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrp_model::litmus::LitmusBuilder;

    /// T0: Wa; Rel; Wb  — three writes, the middle one a release.
    fn rel_trace() -> (Trace, EventId, EventId, EventId) {
        let mut b = LitmusBuilder::new(1);
        let wa = b.write(0, 0x10, 1);
        let rel = b.write_rel(0, 0x80, 2);
        let wb = b.write(0, 0x100, 3);
        (b.build(), wa, rel, wb)
    }

    #[test]
    fn unconstrained_keeps_only_same_addr_chains() {
        let mut b = LitmusBuilder::new(1);
        let w1 = b.write(0, 0x10, 1);
        let w2 = b.write(0, 0x10, 2);
        let w3 = b.write(0, 0x18, 3);
        let t = b.build();
        let p = persist_preds(&t, PersistDiscipline::Unconstrained).unwrap();
        assert_eq!(p[w2 as usize], vec![w1]);
        assert!(p[w1 as usize].is_empty());
        assert!(p[w3 as usize].is_empty());
    }

    #[test]
    fn release_order_is_one_sided() {
        let (t, wa, rel, wb) = rel_trace();
        let p = persist_preds(&t, PersistDiscipline::ReleaseOrder).unwrap();
        assert_eq!(p[rel as usize], vec![wa], "release waits for prior writes");
        assert!(p[wb as usize].is_empty(), "RP lets Wb persist before Wa");
    }

    #[test]
    fn epoch_order_adds_segment_barriers() {
        let (t, wa, rel, wb) = rel_trace();
        let p = persist_preds(&t, PersistDiscipline::EpochOrder).unwrap();
        assert_eq!(p[rel as usize], vec![wa]);
        // Wb is in the next epoch: both Wa and the release precede it.
        assert_eq!(p[wb as usize], vec![wa, rel]);
    }

    #[test]
    fn store_order_chains_each_thread() {
        let (t, wa, rel, wb) = rel_trace();
        let p = persist_preds(&t, PersistDiscipline::StoreOrder).unwrap();
        assert_eq!(p[rel as usize], vec![wa]);
        assert_eq!(p[wb as usize], vec![rel], "immediate po predecessor");
    }

    #[test]
    fn constrained_disciplines_keep_cross_thread_sw_edges() {
        // W1; Rel || Acq; W4 — every constrained discipline orders the
        // release before the acquirer's write.
        let mut b = LitmusBuilder::new(2);
        let w1 = b.write(0, 0x100, 42);
        let rel = b.write_rel(0, 0x200, 1);
        let _acq = b.read_acq(1, 0x200);
        let w4 = b.write(1, 0x300, 7);
        let t = b.build();
        for d in [
            PersistDiscipline::ReleaseOrder,
            PersistDiscipline::EpochOrder,
            PersistDiscipline::StoreOrder,
        ] {
            let p = persist_preds(&t, d).unwrap();
            assert!(p[w4 as usize].contains(&rel), "{d}: sw edge");
            assert!(p[w4 as usize].contains(&w1), "{d}: transitive base");
        }
        let p = persist_preds(&t, PersistDiscipline::Unconstrained).unwrap();
        assert!(p[w4 as usize].is_empty());
    }

    #[test]
    fn edge_list_is_deterministic_and_complete() {
        let (t, wa, rel, wb) = rel_trace();
        let p = persist_preds(&t, PersistDiscipline::EpochOrder).unwrap();
        let e = edge_list(&p);
        assert_eq!(e, vec![(wa, rel), (wa, wb), (rel, wb)]);
    }
}
