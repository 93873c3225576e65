//! Durable linearizability against sequential specifications.
//!
//! The recovered abstract state of a crash cut must be explainable by a
//! *linearization* of the operations whose effects are durable. The key
//! construction is the **decisive event** of each effectful operation:
//! the write at which the structure's abstract state changes. It is
//! found by replaying the volatile memory image event by event and
//! running the structural validator after every write effect — the
//! event where the abstract state moves is the decisive one, and it is
//! attributed to the operation span (thread + event range) containing
//! it. This is robust against helping (a helper's cleanup CAS changes
//! no abstract state) and multi-CAS operations (only one CAS moves the
//! abstract state).
//!
//! [`check_dl`] then takes a cut and asks for a linearization that
//! explains the recovered state. An operation whose decisive write is
//! *not* durable cannot be visible — that direction is exact. The
//! converse is not: a durable decisive write can still be invisible
//! when recovery cannot *reach* it (an enqueue's link CAS persists but
//! the chain of links leading to that node does not — the node is
//! durably written yet unreachable, which is a legal consistent cut
//! where both operations are dropped). So the witness is found by
//! search: a subsequence of the durable-decisive operations, replayed
//! in decisive order through the structure's sequential specification,
//! whose final state equals the recovered one. The search prefers
//! inclusion, so the reported witness is maximal and deterministic.
//!
//! Scope: effect-free operations (reads, failed updates, empty
//! dequeues) have no decisive event and impose no constraint here —
//! the oracle targets lost/reordered *effects*, which is exactly what a
//! persist-order bug produces.

use lrp_lfds::{validate_image, MemImage, Recovered, Structure};
use lrp_model::{EventId, OpKind, Trace};
use std::collections::HashSet;

/// The decisive event of one effectful operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecisiveEvent {
    /// The write event at which the abstract state changed.
    pub event: EventId,
    /// Index into [`Trace::markers`] of the operation it belongs to.
    pub marker: usize,
}

/// Finds the decisive event of every effectful operation by abstract
/// replay. Attribution is delta-based, not performer-based: the change
/// is assigned to the unattributed operation whose span covers the
/// event and whose kind/result explain the delta — which handles
/// helping, where the write that makes an operation abstractly visible
/// is executed by another thread (e.g. the BST's splice CAS). Fails
/// (with a diagnostic) if a change cannot be attributed, which would
/// indicate the checker and the structures disagree about semantics.
pub fn decisive_events(structure: Structure, trace: &Trace) -> Result<Vec<DecisiveEvent>, String> {
    let mut img = MemImage::new(trace.initial_mem.iter().copied());
    let mut prev = validate_image(structure, &trace.roots, &img)
        .map_err(|e| format!("initial image invalid: {e}"))?;
    let mut out = Vec::new();
    let mut used = vec![false; trace.markers.len()];
    for e in &trace.events {
        if !e.is_write_effect() {
            continue;
        }
        img.write(e.addr, e.wval);
        // Transiently invalid mid-operation shapes cannot be compared;
        // the abstract state is re-sampled at the next valid write.
        let Ok(cur) = validate_image(structure, &trace.roots, &img) else {
            continue;
        };
        if cur == prev {
            continue;
        }
        let candidates: Vec<usize> = trace
            .markers
            .iter()
            .enumerate()
            .filter(|&(i, m)| {
                !used[i]
                    && m.first_event <= e.id
                    && e.id < m.end_event
                    && delta_matches(&prev, &cur, m.op, m.result)
            })
            .map(|(i, _)| i)
            .collect();
        let marker = match candidates.as_slice() {
            [] => {
                return Err(format!(
                    "abstract state changed at event {} but no operation explains it",
                    e.id
                ))
            }
            [one] => *one,
            many => {
                // Ambiguity: prefer the event's own thread (the common
                // un-helped case), else the earliest-started candidate.
                *many
                    .iter()
                    .find(|&&i| trace.markers[i].tid == e.tid)
                    .unwrap_or_else(|| {
                        many.iter()
                            .min_by_key(|&&i| (trace.markers[i].first_event, i))
                            .expect("non-empty")
                    })
            }
        };
        used[marker] = true;
        out.push(DecisiveEvent {
            event: e.id,
            marker,
        });
        prev = cur;
    }
    Ok(out)
}

/// Does the `prev -> cur` abstract step match operation `op`?
fn delta_matches(prev: &Recovered, cur: &Recovered, op: OpKind, result: u64) -> bool {
    match (prev, cur, op) {
        (Recovered::Set(a), Recovered::Set(b), OpKind::Insert(k, _)) => {
            !a.contains(&k) && b.contains(&k) && b.len() == a.len() + 1 && a.is_subset(b)
        }
        (Recovered::Set(a), Recovered::Set(b), OpKind::Delete(k)) => {
            a.contains(&k) && !b.contains(&k) && a.len() == b.len() + 1 && b.is_subset(a)
        }
        (Recovered::Queue(a), Recovered::Queue(b), OpKind::Enqueue(v)) => {
            b.len() == a.len() + 1 && b.last() == Some(&v) && b[..a.len()] == a[..]
        }
        (Recovered::Queue(a), Recovered::Queue(b), OpKind::Dequeue) => {
            a.len() == b.len() + 1
                && result > 0
                && a.first() == Some(&(result - 1))
                && a[1..] == b[..]
        }
        _ => false,
    }
}

/// Why a cut is not durably linearizable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DlViolation {
    /// The attempted linearization: marker indices in decisive order.
    pub witness: Vec<usize>,
    /// The replay step whose precondition failed, if any.
    pub at_op: Option<usize>,
    /// The state the linearization produces (up to the failing step).
    pub replayed: Recovered,
    /// The state recovery actually produced.
    pub recovered: Recovered,
    /// One-line description.
    pub detail: String,
}

/// Checks durable linearizability of one cut: some subsequence of the
/// operations whose decisive event satisfies `included` (the
/// durable-decisive candidates), replayed in decisive order through
/// the sequential spec from `initial`, must reproduce `recovered`.
/// Returns the witness (marker indices, maximal under include-first
/// search) on success; the violation reports the full candidate set.
pub fn check_dl(
    trace: &Trace,
    decisive: &[DecisiveEvent],
    included: &dyn Fn(EventId) -> bool,
    initial: &Recovered,
    recovered: &Recovered,
) -> Result<Vec<usize>, Box<DlViolation>> {
    let candidates: Vec<usize> = decisive
        .iter()
        .filter(|d| included(d.event))
        .map(|d| d.marker)
        .collect();
    let mut dead: HashSet<(usize, Recovered)> = HashSet::new();
    let mut witness = Vec::new();
    if search(
        trace,
        &candidates,
        0,
        initial.clone(),
        recovered,
        &mut dead,
        &mut witness,
    ) {
        return Ok(witness);
    }
    // No subsequence explains the recovered state. For the report,
    // replay the full candidate set — the natural (all-durable)
    // explanation — up to its first broken precondition.
    let mut state = initial.clone();
    let mut at_op = None;
    let mut detail = String::new();
    for &mi in &candidates {
        let m = &trace.markers[mi];
        if let Err(e) = apply(&mut state, m.op, m.result) {
            at_op = Some(mi);
            detail = e;
            break;
        }
    }
    if at_op.is_none() {
        detail = "recovered state differs from the linearization replay".to_string();
    }
    Err(Box::new(DlViolation {
        witness: candidates,
        at_op,
        replayed: state,
        recovered: recovered.clone(),
        detail,
    }))
}

/// Include-first DFS over subsequences of `candidates[i..]` from
/// `state`: returns true (filling `witness`) iff some subsequence
/// replays to `recovered`. `dead` memoizes (index, state) pairs that
/// cannot reach the goal, bounding the walk by the number of distinct
/// intermediate abstract states.
fn search(
    trace: &Trace,
    candidates: &[usize],
    i: usize,
    state: Recovered,
    recovered: &Recovered,
    dead: &mut HashSet<(usize, Recovered)>,
    witness: &mut Vec<usize>,
) -> bool {
    if i == candidates.len() {
        return state == *recovered;
    }
    if dead.contains(&(i, state.clone())) {
        return false;
    }
    let m = &trace.markers[candidates[i]];
    let mut with = state.clone();
    if apply(&mut with, m.op, m.result).is_ok() {
        witness.push(candidates[i]);
        if search(trace, candidates, i + 1, with, recovered, dead, witness) {
            return true;
        }
        witness.pop();
    }
    if search(
        trace,
        candidates,
        i + 1,
        state.clone(),
        recovered,
        dead,
        witness,
    ) {
        return true;
    }
    dead.insert((i, state));
    false
}

/// One sequential-spec step; `Err` describes the violated precondition.
fn apply(state: &mut Recovered, op: OpKind, result: u64) -> Result<(), String> {
    match (state, op) {
        (Recovered::Set(s), OpKind::Insert(k, _)) => {
            if !s.insert(k) {
                return Err(format!("insert({k}) linearized while {k} already present"));
            }
            Ok(())
        }
        (Recovered::Set(s), OpKind::Delete(k)) => {
            if !s.remove(&k) {
                return Err(format!("delete({k}) linearized while {k} absent"));
            }
            Ok(())
        }
        (Recovered::Queue(q), OpKind::Enqueue(v)) => {
            q.push(v);
            Ok(())
        }
        (Recovered::Queue(q), OpKind::Dequeue) => {
            if result == 0 {
                return Err("empty dequeue has no effect to linearize".to_string());
            }
            let v = result - 1;
            if q.first() != Some(&v) {
                return Err(format!(
                    "dequeue returned {v} but the linearized queue head is {:?}",
                    q.first()
                ));
            }
            q.remove(0);
            Ok(())
        }
        (_, op) => Err(format!("operation {op:?} does not fit the structure")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrp_lfds::WorkloadSpec;
    use std::collections::BTreeSet;

    fn initial_of(structure: Structure, trace: &Trace) -> Recovered {
        let img = MemImage::new(trace.initial_mem.iter().copied());
        validate_image(structure, &trace.roots, &img).unwrap()
    }

    #[test]
    fn every_successful_update_has_exactly_one_decisive_event() {
        for s in Structure::ALL {
            let t = WorkloadSpec::new(s)
                .initial_size(8)
                .threads(2)
                .ops_per_thread(4)
                .seed(3)
                .build_trace();
            let d = decisive_events(s, &t).unwrap_or_else(|e| panic!("{s}: {e}"));
            // Effectful ops: successful inserts/deletes/enqueues and
            // non-empty dequeues.
            let effectful: Vec<usize> = t
                .markers
                .iter()
                .enumerate()
                .filter(|(_, m)| match m.op {
                    OpKind::Insert(..) | OpKind::Delete(_) => m.result == 1,
                    OpKind::Enqueue(_) => true,
                    OpKind::Dequeue => m.result > 0,
                    _ => false,
                })
                .map(|(i, _)| i)
                .collect();
            let mut got: Vec<usize> = d.iter().map(|x| x.marker).collect();
            got.sort_unstable();
            let mut want = effectful;
            want.sort_unstable();
            assert_eq!(got, want, "{s}: decisive events must cover effectful ops");
            // Decisive events are in-span and strictly increasing.
            assert!(d.windows(2).all(|w| w[0].event < w[1].event));
        }
    }

    #[test]
    fn full_cut_replays_to_final_state() {
        for s in Structure::ALL {
            let t = WorkloadSpec::new(s)
                .initial_size(8)
                .threads(2)
                .ops_per_thread(4)
                .seed(7)
                .build_trace();
            let d = decisive_events(s, &t).unwrap();
            let initial = initial_of(s, &t);
            let final_img = MemImage::new(t.final_mem());
            let final_state = validate_image(s, &t.roots, &final_img).unwrap();
            let w = check_dl(&t, &d, &|_| true, &initial, &final_state)
                .unwrap_or_else(|v| panic!("{s}: {}", v.detail));
            assert_eq!(w.len(), d.len());
            // The empty cut replays to the initial state.
            check_dl(&t, &d, &|_| false, &initial, &initial).unwrap();
        }
    }

    #[test]
    fn wrong_recovered_state_is_rejected_with_witness() {
        let t = WorkloadSpec::new(Structure::LinkedList)
            .initial_size(8)
            .threads(1)
            .ops_per_thread(4)
            .seed(2)
            .build_trace();
        let d = decisive_events(Structure::LinkedList, &t).unwrap();
        let initial = initial_of(Structure::LinkedList, &t);
        let bogus = Recovered::Set(BTreeSet::from([999_999]));
        let v = check_dl(&t, &d, &|_| true, &initial, &bogus).unwrap_err();
        assert!(v.at_op.is_none());
        assert_eq!(v.recovered, bogus);
        assert!(v.detail.contains("differs"));
    }

    #[test]
    fn states_the_history_cannot_explain_are_rejected() {
        // Phantom and lost keys, phantom, duplicate and out-of-FIFO
        // queue values: no subsequence of the operations replays to
        // any of them, even with every decisive write durable.
        let bound = |s| {
            WorkloadSpec::new(s)
                .initial_size(8)
                .threads(2)
                .ops_per_thread(4)
                .seed(3)
                .build_trace()
        };
        let rejects = |s: Structure, t: &Trace, bad: Recovered| {
            let d = decisive_events(s, t).unwrap();
            let initial = initial_of(s, t);
            assert!(
                check_dl(t, &d, &|_| true, &initial, &bad).is_err(),
                "{s}: {} explained",
                bad.render()
            );
        };
        let t = bound(Structure::LinkedList);
        let initial = initial_of(Structure::LinkedList, &t).keys().clone();
        let mut phantom = initial.clone();
        phantom.insert(999_999);
        rejects(Structure::LinkedList, &t, Recovered::Set(phantom));
        let deleted: BTreeSet<u64> = t
            .markers
            .iter()
            .filter_map(|m| match m.op {
                OpKind::Delete(k) if m.result == 1 => Some(k),
                _ => None,
            })
            .collect();
        let victim = *initial
            .iter()
            .find(|k| !deleted.contains(k))
            .expect("an initial key nobody deletes");
        let mut lost = initial;
        lost.remove(&victim);
        rejects(Structure::LinkedList, &t, Recovered::Set(lost));

        let t = bound(Structure::Queue);
        let Recovered::Queue(q) = initial_of(Structure::Queue, &t) else {
            panic!("a queue recovers a sequence")
        };
        let twice = [&q[..1], &q[..]].concat();
        let mut swapped = q.clone();
        swapped.swap(0, 1);
        for bad in [vec![123_456_789], twice, swapped] {
            rejects(Structure::Queue, &t, Recovered::Queue(bad));
        }
    }

    #[test]
    fn precondition_violations_are_detected() {
        let mut s = Recovered::Set(BTreeSet::from([5]));
        assert!(apply(&mut s, OpKind::Insert(5, 5), 1).is_err());
        assert!(apply(&mut s, OpKind::Delete(7), 1).is_err());
        assert!(apply(&mut s, OpKind::Delete(5), 1).is_ok());
        let mut q = Recovered::Queue(vec![3, 4]);
        assert!(
            apply(&mut q, OpKind::Dequeue, 5).is_err(),
            "head is 3 not 4"
        );
        assert!(apply(&mut q, OpKind::Dequeue, 4).is_ok());
        assert!(apply(&mut q, OpKind::Enqueue(9), 1).is_ok());
        assert_eq!(q, Recovered::Queue(vec![4, 9]));
    }
}
