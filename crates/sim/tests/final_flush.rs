//! The end-of-run full flush ([`Sim::with_final_flush`]): a replay that
//! ends durable stamps every write under a persisting mechanism, none
//! under the volatile one, and changes nothing the unflushed replay
//! already produced.

use lrp_lfds::{Structure, WorkloadSpec};
use lrp_model::spec::check_rp;
use lrp_model::Trace;
use lrp_sim::{FlushClass, Mechanism, NvmMode, RunResult, Sim, SimConfig};

fn trace(structure: Structure, seed: u64) -> Trace {
    WorkloadSpec::new(structure)
        .initial_size(64)
        .threads(4)
        .ops_per_thread(16)
        .seed(seed)
        .build_trace()
}

fn replay(t: &Trace, mech: Mechanism, mode: NvmMode, flush: bool) -> RunResult {
    let sim = Sim::new(SimConfig::new(mech).nvm_mode(mode), t);
    if flush {
        sim.with_final_flush().run()
    } else {
        sim.run()
    }
}

fn background(r: &RunResult) -> u64 {
    r.stats
        .flushes_by_class()
        .into_iter()
        .find(|&(class, _)| class == FlushClass::Background)
        .map_or(0, |(_, n)| n)
}

#[test]
fn flushed_replay_stamps_every_write_under_persisting_mechanisms() {
    // Writes LRP leaves unpersisted without the flush, over all cells:
    // the flush has a lazy tail to persist.
    let mut lrp_tail = 0;
    for structure in Structure::ALL {
        for mode in NvmMode::ALL {
            let t = trace(structure, 3);
            for mech in Mechanism::EXTENDED {
                let cell = format!("{}/{}/{}", structure.name(), mech.name(), mode.name());
                let bare = replay(&t, mech, mode, false);
                let flushed = replay(&t, mech, mode, true);
                let writes = t.events.iter().filter(|e| e.is_write_effect());
                let count_stamped = |r: &RunResult| {
                    writes
                        .clone()
                        .filter(|e| r.schedule.stamp(e.id).is_some())
                        .count()
                };
                if mech == Mechanism::Lrp {
                    lrp_tail += writes.clone().count() - count_stamped(&bare);
                }
                let stamped = count_stamped(&flushed);
                if mech == Mechanism::Nop {
                    assert_eq!(stamped, 0, "{cell}: the volatile baseline never persists");
                } else {
                    assert_eq!(stamped, writes.count(), "{cell}: every write stamped");
                }
                if check_rp(&t, &bare.schedule).is_ok() {
                    check_rp(&t, &flushed.schedule)
                        .unwrap_or_else(|v| panic!("{cell}: flushed replay breaks RP: {v:?}"));
                }
                // The flush starts once the replay has quiesced: the
                // unflushed run is a prefix of the flushed one.
                assert_eq!(flushed.stats.cycles, bare.stats.cycles, "{cell}");
                assert_eq!(flushed.stats.ops, bare.stats.ops, "{cell}");
                assert_eq!(
                    flushed.persist_log[..bare.persist_log.len()],
                    bare.persist_log[..],
                    "{cell}: the flush only appends to the persist log"
                );
                let added = (flushed.persist_log.len() - bare.persist_log.len()) as u64;
                assert_eq!(
                    background(&flushed) - background(&bare),
                    added,
                    "{cell}: end flushes count as background"
                );
            }
        }
    }
    assert!(lrp_tail > 0, "no lazy tail for the flush to persist");
}
