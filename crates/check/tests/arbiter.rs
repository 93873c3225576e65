//! The streaming persist-order check is the one admissibility engine;
//! the generator-edge table (`persist_preds`) is the lattice definition
//! the enumerator walks. These tests hold the two to the same verdict
//! wherever the edge table fits, and run the engine where it does not.
//! Likewise the forward persist walk is the one builder of a
//! schedule's crash images: it is held to a from-scratch rebuild at
//! every stamp, and to the lattice's `WriteChains::image` wherever the
//! stamps realize a cut.

use lrp_baselines::arp::{arp_schedule, ArpOrder};
use lrp_campaign::{build_trace, MatrixSpec};
use lrp_check::{edge_list, mutate_reorder, persist_preds, WriteChains};
use lrp_lfds::{MemImage, Structure};
use lrp_model::hb::HbClosure;
use lrp_model::spec::{check_persist_order, PersistDiscipline, PersistSchedule};
use lrp_model::{Addr, EventId, Trace};
use lrp_recovery::{CrashPlan, PersistWalk};
use lrp_sim::{Mechanism, Sim, SimConfig};

const CONSTRAINED: [PersistDiscipline; 3] = [
    PersistDiscipline::StoreOrder,
    PersistDiscipline::EpochOrder,
    PersistDiscipline::ReleaseOrder,
];

/// The checker-bound matrix over every structure at `threads` ×
/// `ops_per_thread` over `initial_size` entries and `seed`; one
/// mechanism, so one cell per structure's workload.
fn bound(threads: u16, ops_per_thread: usize, initial_size: usize, seed: u64) -> MatrixSpec {
    MatrixSpec {
        mechanisms: vec![Mechanism::Lrp],
        threads: vec![threads],
        ops_per_thread,
        initial_size,
        seeds: vec![seed],
        ..MatrixSpec::check()
    }
}

/// A stamp with "never persisted" ordered after every flush.
fn at(sched: &PersistSchedule, e: EventId) -> u64 {
    sched.stamp(e).unwrap_or(u64::MAX)
}

/// Every location's coherence-ordered writes carry non-decreasing stamps.
fn chains_monotone(trace: &Trace, sched: &PersistSchedule) -> bool {
    let chains = WriteChains::new(trace);
    (0..chains.nlocs()).all(|l| {
        chains
            .chain(l)
            .windows(2)
            .all(|w| at(sched, w[0]) <= at(sched, w[1]))
    })
}

#[test]
fn engine_and_edge_table_agree_and_every_mechanism_keeps_its_promise() {
    let bounds = [(2, 4, 8, 1), (2, 4, 8, 2), (3, 8, 16, 1), (4, 16, 64, 1)];
    let mut verdicts = [0usize; 2];
    for (threads, ops_per_thread, initial_size, seed) in bounds {
        for cell in bound(threads, ops_per_thread, initial_size, seed).cells() {
            let (s, trace) = (cell.structure, build_trace(&cell));
            let tables: Vec<_> = CONSTRAINED
                .iter()
                .map(|&d| persist_preds(&trace, d).expect("small bounds fit the closure"))
                .collect();
            for m in Mechanism::EXTENDED {
                let sched = Sim::new(SimConfig::new(m), &trace).run().schedule;
                let cell = format!(
                    "{}/{} {threads}x{ops_per_thread}x{initial_size} s{seed}",
                    m.name(),
                    s.name()
                );
                check_persist_order(&trace, &sched, m.discipline())
                    .unwrap_or_else(|v| panic!("{cell}: breaks {}: {v:?}", m.discipline()));
                for (&d, preds) in CONSTRAINED.iter().zip(&tables) {
                    // The recorded schedule and one reordered across an
                    // edge, so both verdicts are exercised.
                    let mutated = mutate_reorder(&sched, preds).map(|(m, _)| m);
                    for sc in std::iter::once(&sched).chain(mutated.as_ref()) {
                        let engine = check_persist_order(&trace, sc, d).is_ok()
                            && chains_monotone(&trace, sc);
                        let table = edge_list(preds)
                            .into_iter()
                            .all(|(p, w)| at(sc, p) <= at(sc, w));
                        assert_eq!(engine, table, "{cell} under {d}");
                        verdicts[engine as usize] += 1;
                    }
                }
            }
        }
    }
    assert!(
        verdicts.iter().all(|&n| n > 0),
        "both verdicts must occur (rejected, accepted): {verdicts:?}"
    );
}

#[test]
fn engine_judges_a_trace_the_edge_table_cannot_hold() {
    let matrix = MatrixSpec {
        structures: vec![Structure::Bst],
        ..bound(16, 64, 4096, 1)
    };
    let trace = build_trace(&matrix.cells()[0]);
    assert!(
        trace.events.len() > HbClosure::MAX_EVENTS,
        "{} events fit the closure",
        trace.events.len()
    );
    assert!(persist_preds(&trace, PersistDiscipline::ReleaseOrder).is_err());
    for m in [Mechanism::Sb, Mechanism::Bb, Mechanism::Dpo] {
        let sched = Sim::new(SimConfig::new(m), &trace).run().schedule;
        check_persist_order(&trace, &sched, m.discipline())
            .unwrap_or_else(|v| panic!("{m} breaks {}: {v:?}", m.discipline()));
    }
}

/// The reference crash image, rebuilt from scratch: the initial image
/// overwritten by every write with stamp `<= stamp`, in (stamp, event
/// id) order.
fn rebuilt(trace: &Trace, sched: &PersistSchedule, stamp: Option<u64>) -> Vec<(Addr, u64)> {
    let mut img = MemImage::new(trace.initial_mem.iter().copied());
    if let Some(cut) = stamp {
        let mut persisted: Vec<(u64, EventId)> = trace
            .events
            .iter()
            .filter(|e| e.is_write_effect())
            .filter_map(|e| sched.stamp(e.id).map(|s| (s, e.id)))
            .filter(|&(s, _)| s <= cut)
            .collect();
        persisted.sort_unstable();
        for (_, id) in persisted {
            let e = &trace.events[id as usize];
            img.write(e.addr, e.wval);
        }
    }
    img.as_mem().snapshot()
}

/// Walks every exhaustive stamp of `sched` with one image, holding it
/// to [`rebuilt`] at each and to `WriteChains::image` wherever the
/// stamps realize a cut. Returns how many realized cuts were compared.
fn walk_agrees(trace: &Trace, sched: &PersistSchedule, cell: &str) -> usize {
    let chains = WriteChains::new(trace);
    let mut walk = PersistWalk::new(trace, sched);
    let mut img = MemImage::new(trace.initial_mem.iter().copied());
    let mut realized = 0;
    for stamp in CrashPlan::Exhaustive.stamps(sched) {
        if let Some(cut) = stamp {
            walk.advance(cut, &mut img);
        }
        let walked = img.as_mem().snapshot();
        assert_eq!(
            walked,
            rebuilt(trace, sched, stamp),
            "{cell} at {stamp:?}: walk vs rebuild"
        );
        if let Ok(cut) = chains.realized(sched, stamp) {
            assert_eq!(
                walked,
                chains.image(trace, &cut).as_mem().snapshot(),
                "{cell} at {stamp:?}: walk vs realized cut"
            );
            realized += 1;
        }
    }
    realized
}

#[test]
fn one_walk_builds_every_crash_image_of_a_schedule() {
    let (mut cells, mut realized, mut mutated) = (0, 0, 0);
    for cell in bound(3, 10, 24, 21).cells() {
        let (s, trace) = (cell.structure, build_trace(&cell));
        let preds = persist_preds(&trace, PersistDiscipline::ReleaseOrder)
            .expect("small bounds fit the closure");
        let mut scheds = vec![(
            "arp-release-first".to_string(),
            arp_schedule(&trace, ArpOrder::ReleaseFirst),
        )];
        for m in Mechanism::EXTENDED {
            let sched = Sim::new(SimConfig::new(m), &trace).run().schedule;
            // One persist pair swapped across an edge: stamps out of
            // event order, and possibly a durable set no line produces.
            if let Some((m2, _)) = mutate_reorder(&sched, &preds) {
                scheds.push((format!("{} mutated", m.name()), m2));
                mutated += 1;
            }
            scheds.push((m.name().to_string(), sched));
        }
        for (name, sched) in &scheds {
            realized += walk_agrees(&trace, sched, &format!("{name}/{}", s.name()));
            cells += 1;
        }
    }
    assert!(
        mutated >= Structure::ALL.len(),
        "{mutated} mutated schedules"
    );
    assert!(
        realized > cells,
        "{realized} realized cuts over {cells} schedules"
    );
}
