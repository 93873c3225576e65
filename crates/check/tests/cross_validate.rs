//! The headline cross-validation matrix: every simulator mechanism's
//! recorded persist schedule, on every log-free data structure, is
//! admissible under the discipline the mechanism promises, and every
//! crash cut those stamps realize is durably linearizable after null
//! recovery.

use lrp_check::{
    cross_validate, cross_validate_schedule, enumerate_check, generator_preds, mutate_reorder,
    CheckBound,
};
use lrp_lfds::Structure;
use lrp_model::hb::HbClosure;
use lrp_model::spec::PersistDiscipline;
use lrp_sim::{Mechanism, Sim, SimConfig};

#[test]
fn all_mechanisms_cross_validate_on_all_structures() {
    let small = CheckBound::default();
    let mut cells: Vec<(Structure, Mechanism, CheckBound)> = Structure::ALL
        .into_iter()
        .flat_map(|s| Mechanism::EXTENDED.map(|m| (s, m, small)))
        .collect();
    // Wider runs, where durable linearizability at every realized cut
    // also rules out phantom keys, keys lost without a delete, and
    // duplicate or out-of-FIFO queue values.
    let wide = CheckBound {
        threads: 4,
        ops_per_thread: 12,
        initial_size: 20,
        seed: 63,
        ..small
    };
    for s in Structure::ALL {
        cells.extend([(s, Mechanism::Lrp, wide), (s, Mechanism::Sb, wide)]);
    }
    let skiplist = CheckBound {
        threads: 2,
        ops_per_thread: 10,
        initial_size: 16,
        seed: 65,
        ..small
    };
    cells.push((Structure::SkipList, Mechanism::Sb, skiplist));
    for (s, m, bound) in cells {
        let cell = format!(
            "{}/{} {}x{}x{} s{}",
            m.name(),
            s.name(),
            bound.threads,
            bound.ops_per_thread,
            bound.initial_size,
            bound.seed
        );
        let r = cross_validate(s, m, &bound).unwrap_or_else(|cx| panic!("{cell}:\n{cx}"));
        assert_eq!(
            r.waived, 0,
            "{cell}: even NOP's realized cuts recover here (it never \
             flushes, so only the trivial pre-persist cut exists)"
        );
        if m != Mechanism::Nop {
            assert!(
                r.crash_points > 1,
                "{cell}: the schedule must realize non-trivial crash points"
            );
        }
    }
}

#[test]
fn cross_validation_needs_no_edge_table() {
    // Above the hb-closure cap the epoch-order edge table cannot be
    // built, yet steps (a) and (b) need none. A small queue keeps each
    // of the ~2,500 realized cuts cheap to validate.
    let bound = CheckBound {
        threads: 8,
        ops_per_thread: 160,
        initial_size: 8,
        seed: 1,
        ..CheckBound::default()
    };
    let trace = bound.build_trace(Structure::Queue);
    assert!(
        trace.events.len() > HbClosure::MAX_EVENTS,
        "{} events fit the closure",
        trace.events.len()
    );
    let r =
        cross_validate(Structure::Queue, Mechanism::Sb, &bound).unwrap_or_else(|cx| panic!("{cx}"));
    assert!(r.crash_points > 1000, "{} crash points", r.crash_points);
    assert_eq!(r.waived, 0);
}

#[test]
fn every_structure_rejects_a_reordered_persist_pair() {
    // The mutation gate: for each structure, swap one persist pair
    // across a release-order generator edge of a real LRP schedule and
    // require the checker to reject it with a counterexample naming
    // the edge.
    let bound = CheckBound {
        ops_per_thread: 8,
        seed: 1,
        ..CheckBound::default()
    };
    for s in Structure::ALL {
        let trace = bound.build_trace(s);
        let run = Sim::new(SimConfig::new(Mechanism::Lrp), &trace).run();
        let preds = generator_preds(&trace, PersistDiscipline::ReleaseOrder).unwrap();
        let Some((mutated, (p, w))) = mutate_reorder(&run.schedule, &preds) else {
            panic!("{}: no reorderable persist pair in an 8-op run", s.name());
        };
        let cx = cross_validate_schedule(
            s,
            PersistDiscipline::ReleaseOrder,
            &trace,
            &mutated,
            "mutation",
        )
        .expect_err("a reordered persist pair must be rejected");
        let text = cx.to_string();
        assert!(
            text.contains(&format!("e{w}")) && text.contains(&format!("e{p}")),
            "{}: counterexample names both ends of the violated edge:\n{text}",
            s.name()
        );
        // The original, unmutated schedule still passes.
        cross_validate_schedule(
            s,
            PersistDiscipline::ReleaseOrder,
            &trace,
            &run.schedule,
            "original",
        )
        .unwrap_or_else(|cx| panic!("{}:\n{cx}", s.name()));
    }
}

#[test]
fn enumerated_lattices_separate_nop_from_the_guaranteed_disciplines() {
    // The paper's claim at lattice level: on the same workload, the
    // unconstrained (NOP) lattice contains unrecoverable cuts while
    // every cut of the guaranteed disciplines recovers and linearizes.
    let bound = CheckBound::default();
    let nop = enumerate_check(
        Structure::LinkedList,
        PersistDiscipline::Unconstrained,
        &bound,
    )
    .unwrap_or_else(|cx| panic!("{cx}"));
    assert!(nop.waived > 0, "NOP must expose unrecoverable cuts");
    for d in [
        PersistDiscipline::StoreOrder,
        PersistDiscipline::EpochOrder,
        PersistDiscipline::ReleaseOrder,
    ] {
        let r = enumerate_check(Structure::LinkedList, d, &bound)
            .unwrap_or_else(|cx| panic!("{d}:\n{cx}"));
        assert_eq!(r.waived, 0);
        assert!(
            !r.stats.truncated,
            "{d}: the bounded lattice fits the budget"
        );
        assert!(
            r.stats.states <= nop.stats.states,
            "{d}: constraining the order can only shrink the lattice"
        );
    }
}
