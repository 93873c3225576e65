//! The headline cross-validation matrix: every simulator mechanism's
//! recorded persist schedule, on every log-free data structure, is
//! admissible under the discipline the mechanism promises, and every
//! crash cut those stamps realize is durably linearizable after null
//! recovery.

use lrp_campaign::{build_trace, CellSpec, MatrixSpec};
use lrp_check::{
    cross_validate, cross_validate_schedule, enumerate_check, generator_preds, mutate_reorder,
    MAX_STATES,
};
use lrp_lfds::Structure;
use lrp_model::hb::HbClosure;
use lrp_model::spec::PersistDiscipline;
use lrp_sim::{Mechanism, NvmMode, Sim, SimConfig};

/// The one cell of `matrix` (every axis of length one).
fn only(matrix: MatrixSpec) -> CellSpec {
    let mut cells = matrix.cells();
    assert_eq!(cells.len(), 1, "{}", matrix.describe());
    cells.remove(0)
}

#[test]
fn all_mechanisms_cross_validate_on_all_structures() {
    // The checker's bound at its first seed, on cached and uncached NVM.
    let small = MatrixSpec {
        modes: NvmMode::ALL.to_vec(),
        seeds: vec![3],
        ..MatrixSpec::check()
    };
    // Wider runs, where durable linearizability at every realized cut
    // also rules out phantom keys, keys lost without a delete, and
    // duplicate or out-of-FIFO queue values.
    let wide = MatrixSpec {
        mechanisms: vec![Mechanism::Lrp, Mechanism::Sb],
        threads: vec![4],
        ops_per_thread: 12,
        initial_size: 20,
        seeds: vec![63],
        ..MatrixSpec::check()
    };
    let skiplist = MatrixSpec {
        structures: vec![Structure::SkipList],
        mechanisms: vec![Mechanism::Sb],
        ops_per_thread: 10,
        initial_size: 16,
        seeds: vec![65],
        ..MatrixSpec::check()
    };
    for spec in [small, wide, skiplist].iter().flat_map(MatrixSpec::cells) {
        let cell = format!(
            "{} ({} entries, {} ops)",
            spec.id(),
            spec.initial_size,
            spec.ops_per_thread
        );
        let trace = build_trace(&spec);
        let m = spec.mechanism;
        let r = cross_validate(spec.structure, m, spec.mode, &trace, &cell)
            .unwrap_or_else(|cx| panic!("{cell}:\n{cx}"));
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
    let cell = only(MatrixSpec {
        structures: vec![Structure::Queue],
        mechanisms: vec![Mechanism::Sb],
        threads: vec![8],
        ops_per_thread: 160,
        seeds: vec![1],
        ..MatrixSpec::check()
    });
    let trace = build_trace(&cell);
    assert!(
        trace.events.len() > HbClosure::MAX_EVENTS,
        "{} events fit the closure",
        trace.events.len()
    );
    let r = cross_validate(cell.structure, cell.mechanism, cell.mode, &trace, "queue")
        .unwrap_or_else(|cx| panic!("{cx}"));
    assert!(r.crash_points > 1000, "{} crash points", r.crash_points);
    assert_eq!(r.waived, 0);
}

#[test]
fn every_structure_rejects_a_reordered_persist_pair() {
    // The mutation gate: for each structure, swap one persist pair
    // across a release-order generator edge of a real LRP schedule and
    // require the checker to reject it with a counterexample naming
    // the edge.
    let matrix = MatrixSpec {
        mechanisms: vec![Mechanism::Lrp],
        ops_per_thread: 8,
        seeds: vec![1],
        ..MatrixSpec::check()
    };
    for cell in matrix.cells() {
        let (s, trace) = (cell.structure, build_trace(&cell));
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
    let trace = build_trace(&only(MatrixSpec {
        structures: vec![Structure::LinkedList],
        mechanisms: vec![Mechanism::Nop],
        seeds: vec![3],
        ..MatrixSpec::check()
    }));
    let nop = enumerate_check(
        Structure::LinkedList,
        PersistDiscipline::Unconstrained,
        &trace,
        MAX_STATES,
        "nop",
    )
    .unwrap_or_else(|cx| panic!("{cx}"));
    assert!(nop.waived > 0, "NOP must expose unrecoverable cuts");
    for d in [
        PersistDiscipline::StoreOrder,
        PersistDiscipline::EpochOrder,
        PersistDiscipline::ReleaseOrder,
    ] {
        let r = enumerate_check(Structure::LinkedList, d, &trace, MAX_STATES, d.name())
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
