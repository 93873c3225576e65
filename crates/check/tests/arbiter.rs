//! The streaming persist-order check is the one admissibility engine;
//! the generator-edge table (`persist_preds`) is the lattice definition
//! the enumerator walks. These tests hold the two to the same verdict
//! wherever the edge table fits, and run the engine where it does not.

use lrp_check::{edge_list, mutate_reorder, persist_preds, CheckBound, WriteChains};
use lrp_lfds::Structure;
use lrp_model::hb::HbClosure;
use lrp_model::spec::{check_persist_order, PersistDiscipline, PersistSchedule};
use lrp_model::{EventId, Trace};
use lrp_sim::{Mechanism, Sim, SimConfig};

const CONSTRAINED: [PersistDiscipline; 3] = [
    PersistDiscipline::StoreOrder,
    PersistDiscipline::EpochOrder,
    PersistDiscipline::ReleaseOrder,
];

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
        let bound = CheckBound {
            threads,
            ops_per_thread,
            initial_size,
            seed,
            ..CheckBound::default()
        };
        for s in Structure::ALL {
            let trace = bound.build_trace(s);
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
    let bound = CheckBound {
        threads: 16,
        ops_per_thread: 64,
        initial_size: 4096,
        seed: 1,
        ..CheckBound::default()
    };
    let trace = bound.build_trace(Structure::Bst);
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
