//! The two checker entry points, methods of a [`Checker`]: what judging
//! a cut of one workload trace needs (write chains, decisive events,
//! the recovered initial state), built once per trace and shared by
//! every mechanism, NVM mode and discipline checked on it.
//!
//! * [`Checker::cross_validate`] — the simulator-as-subject mode:
//!   replay the trace through `lrp-sim` under one mechanism and NVM
//!   mode, then (a) assert the recorded persist stamps respect the
//!   mechanism's discipline ([`check_persist_order`], so every crash cut
//!   the stamps realize is admissible), and (b) assert every realized
//!   crash cut is durably linearizable after null recovery. One
//!   [`PersistWalk`] builds the crash images, as everywhere else.
//! * [`Checker::enumerate`] — the discipline-as-subject mode: no
//!   simulator involved; walk *all* admissible cuts of the discipline's
//!   lattice (budgeted, memoized) and check each, imaging every cut from
//!   the write chains. For disciplines that guarantee durable
//!   linearizability a single bad cut is a failure; for the
//!   unconstrained (NOP) lattice violations are counted and reported —
//!   that count being positive is the paper's motivation, not a bug.
//!
//! Failures are minimized (greedily shrinking the cut while it still
//! fails) and rendered through the workspace's shared
//! [`lrp_recovery::Counterexample`] formatter. Steps (a) and (b) need
//! no generator-edge table, so cross-validation runs on traces of any
//! size; the table (capped at
//! [`HbClosure::MAX_EVENTS`](lrp_model::hb::HbClosure::MAX_EVENTS)) is
//! built only to walk a lattice or to shrink a failing cut, and a
//! failing cut of a larger trace is reported as realized, unminimized.

use crate::cuts::{enumerate_cuts, EnumStats, WriteChains};
use crate::dl::{check_dl, decisive_events, DecisiveEvent, DlViolation};
use crate::order::{edge_list, persist_preds};
use lrp_lfds::{validate_image, MemImage, Recovered, Structure, ValidationError};
use lrp_model::hb::TooLarge;
use lrp_model::spec::{
    check_persist_order, earliest_late_pred, PersistDiscipline, PersistSchedule,
};
use lrp_model::{EventId, Trace};
use lrp_recovery::{Counterexample, CrashPlan, PersistWalk};
use lrp_sim::{Mechanism, NvmMode, Sim, SimConfig};
use std::collections::HashSet;

/// The default state budget of the [`Checker::enumerate`] lattice walk
/// (distinct memoized states): every cut lattice of `lrp-check`'s
/// default bound fits it.
pub const MAX_STATES: usize = 20_000;

/// Outcome of one successful [`Checker::cross_validate`] run.
#[derive(Debug, Clone, Copy)]
pub struct CrossReport {
    /// Crash points examined (every distinct flush stamp plus the
    /// pre-persist state).
    pub crash_points: usize,
    /// DL violations observed but waived because the discipline makes
    /// no guarantee (NOP). Always zero for guaranteed disciplines.
    pub waived: usize,
}

/// Outcome of one successful [`Checker::enumerate`] run.
#[derive(Debug, Clone, Copy)]
pub struct EnumReport {
    /// Lattice-walk statistics (admissible cuts visited, truncation).
    pub stats: EnumStats,
    /// Distinct durable states actually validated (cuts deduplicated by
    /// durable overlay + included decisive events).
    pub checked: usize,
    /// DL violations waived because the discipline guarantees nothing.
    pub waived: usize,
}

/// Why one crash cut failed.
enum CutFailure {
    /// Null recovery rejected the durable image.
    Recovery(ValidationError),
    /// The recovered state has no explaining linearization.
    Dl(Box<DlViolation>),
}

/// What judging any cut of one workload trace needs, whatever the
/// discipline: the per-location write chains, the decisive events and
/// the recovered initial state. Build it once per trace; every
/// mechanism, NVM mode and discipline checked on that trace shares it.
pub struct Checker<'a> {
    structure: Structure,
    trace: &'a Trace,
    chains: WriteChains,
    decisive: Vec<DecisiveEvent>,
    initial: Recovered,
}

/// The discipline's generator edges in both directions: what the
/// lattice walk and the minimizer need, and nothing else does.
struct Edges {
    preds: Vec<Vec<EventId>>,
    succs: Vec<Vec<EventId>>,
}

impl Edges {
    fn new(trace: &Trace, discipline: PersistDiscipline) -> Result<Self, TooLarge> {
        let preds = persist_preds(trace, discipline)?;
        let mut succs: Vec<Vec<EventId>> = vec![Vec::new(); trace.events.len()];
        for (w, ps) in preds.iter().enumerate() {
            for &p in ps {
                succs[p as usize].push(w as EventId);
            }
        }
        Ok(Edges { preds, succs })
    }
}

/// The counterexample for a trace [`Checker::new`] could not prepare:
/// `what` is its error, reported against the cell `title` checks under
/// `discipline`.
pub fn setup_failure(
    structure: Structure,
    discipline: PersistDiscipline,
    title: &str,
    what: String,
) -> Box<Counterexample> {
    Box::new(
        Counterexample::new(title, what)
            .context("structure", structure.name())
            .context("discipline", discipline.name()),
    )
}

impl<'a> Checker<'a> {
    /// Prepares `trace`, a workload of `structure`, for checking.
    pub fn new(structure: Structure, trace: &'a Trace) -> Result<Self, String> {
        let decisive = decisive_events(structure, trace)
            .map_err(|e| format!("decisive-event attribution failed: {e}"))?;
        let initial = validate_image(
            structure,
            &trace.roots,
            &MemImage::new(trace.initial_mem.iter().copied()),
        )
        .map_err(|e| format!("initial image invalid: {e}"))?;
        Ok(Checker {
            structure,
            trace,
            chains: WriteChains::new(trace),
            decisive,
            initial,
        })
    }

    /// Judges one cut whose durable image is `img`: `None` = recovers
    /// and linearizes.
    fn judge(&self, cut: &[usize], img: &MemImage) -> Option<CutFailure> {
        let recovered = match validate_image(self.structure, &self.trace.roots, img) {
            Ok(r) => r,
            Err(e) => return Some(CutFailure::Recovery(e)),
        };
        let included = |e: EventId| self.chains.includes(cut, e);
        match check_dl(
            self.trace,
            &self.decisive,
            &included,
            &self.initial,
            &recovered,
        ) {
            Ok(_) => None,
            Err(v) => Some(CutFailure::Dl(v)),
        }
    }

    /// Judges one lattice cut, building its image from the write chains.
    fn cut_failure(&self, cut: &[usize]) -> Option<CutFailure> {
        self.judge(cut, &self.chains.image(self.trace, cut))
    }

    /// Greedily shrinks a failing cut: repeatedly un-include a maximal
    /// durable write (one with no included persist-order successor, so
    /// the cut stays admissible) while the failure persists. Candidates
    /// are tried in descending event-id order, so the result is
    /// deterministic. Returns the minimized cut and its failure.
    fn minimize(&self, edges: &Edges, mut cut: Vec<usize>) -> (Vec<usize>, CutFailure) {
        loop {
            let mut shrunk = false;
            // Maximal included writes, newest first.
            let mut tops: Vec<(EventId, usize)> = (0..self.chains.nlocs())
                .filter(|&l| cut[l] > 0)
                .map(|l| (self.chains.chain(l)[cut[l] - 1], l))
                .filter(|&(w, _)| {
                    !edges.succs[w as usize]
                        .iter()
                        .any(|&x| self.chains.includes(&cut, x))
                })
                .collect();
            tops.sort_unstable_by_key(|&(w, _)| std::cmp::Reverse(w));
            for (_, l) in tops {
                cut[l] -= 1;
                if self.cut_failure(&cut).is_some() {
                    shrunk = true;
                    break;
                }
                cut[l] += 1;
            }
            if !shrunk {
                break;
            }
        }
        let failure = self
            .cut_failure(&cut)
            .expect("minimized cut still fails by construction");
        (cut, failure)
    }

    /// Renders a minimized failing cut as a counterexample.
    fn render(
        &self,
        title: &str,
        discipline: PersistDiscipline,
        crash: &str,
        sched: Option<&PersistSchedule>,
        cut: &[usize],
        failure: &CutFailure,
    ) -> Box<Counterexample> {
        let mut cx = Counterexample::new(
            title,
            match failure {
                CutFailure::Recovery(e) => format!("null recovery failed: {e}"),
                CutFailure::Dl(v) => match v.at_op {
                    Some(mi) => format!(
                        "no linearization: {} ({})",
                        v.detail,
                        Counterexample::render_op(&self.trace.markers[mi])
                    ),
                    None => format!("{} (replayed {})", v.detail, v.replayed.render()),
                },
            },
        )
        .context("structure", self.structure.name())
        .context("discipline", discipline.name())
        .context("crash", crash);
        // The ops whose decisive event is durable — the linearization
        // candidates — in decisive order.
        cx.ops = self
            .decisive
            .iter()
            .filter(|d| self.chains.includes(cut, d.event))
            .map(|d| Counterexample::render_op(&self.trace.markers[d.marker]))
            .collect();
        cx.cut = self
            .chains
            .included_writes(cut)
            .into_iter()
            .map(|w| {
                let line = Counterexample::render_event(&self.trace.events[w as usize]);
                match sched.and_then(|s| s.stamp(w)) {
                    Some(s) => format!("{line}  (stamp {s})"),
                    None => line,
                }
            })
            .collect();
        if let CutFailure::Dl(v) = failure {
            cx.recovered = Some(v.recovered.render());
        }
        Box::new(cx)
    }

    /// Cross-validates a recorded persist schedule of the trace against
    /// `discipline`: the schedule must pass [`check_persist_order`], and
    /// every crash cut the stamps realize must pass null recovery +
    /// durable linearizability. Violations are waived (counted, not
    /// failed) when the discipline guarantees nothing. `title` heads a
    /// counterexample.
    pub fn cross_validate_schedule(
        &self,
        discipline: PersistDiscipline,
        sched: &PersistSchedule,
        title: &str,
    ) -> Result<CrossReport, Box<Counterexample>> {
        let (structure, trace) = (self.structure, self.trace);
        // (a) Admissibility of the schedule itself. The first violated
        // write and its earliest late predecessor are one required
        // persist pair: already a minimal counterexample.
        if let Err(v) = check_persist_order(trace, sched, discipline) {
            let w = v[0].second;
            let p = earliest_late_pred(trace, sched, discipline, w)
                .expect("a violation has a late predecessor");
            let stamp = |e: EventId| match sched.stamp(e) {
                Some(s) => format!("stamp {s}"),
                None => "never persisted".to_string(),
            };
            let mut cx = Counterexample::new(
                title,
                format!(
                    "inadmissible schedule: e{w} persisted ({}) before its \
                     required predecessor e{p} ({})",
                    stamp(w),
                    stamp(p)
                ),
            )
            .context("structure", structure.name())
            .context("discipline", discipline.name());
            cx.cut = [p, w]
                .iter()
                .map(|&e| {
                    format!(
                        "{}  ({})",
                        Counterexample::render_event(&trace.events[e as usize]),
                        stamp(e)
                    )
                })
                .collect();
            return Err(Box::new(cx));
        }

        // (b) Every realized crash cut recovers and linearizes. One
        // forward walk builds the crash images; the realized cut says
        // which writes are included.
        let mut waived = 0;
        let stamps = CrashPlan::Exhaustive.stamps(sched);
        let crash_points = stamps.len();
        let mut walk = PersistWalk::new(trace, sched);
        let mut img = MemImage::new(trace.initial_mem.iter().copied());
        for stamp in stamps {
            let crash = match stamp {
                Some(s) => format!("after flush stamp {s}"),
                None => "before anything persisted".to_string(),
            };
            if let Some(s) = stamp {
                walk.advance(s, &mut img);
            }
            let cut = match self.chains.realized(sched, stamp) {
                Ok(c) => c,
                Err((w, p)) => {
                    let failure = match (sched.stamp(w), sched.stamp(p)) {
                        (Some(sw), Some(sp)) if stamp.is_some_and(|c| sp <= c) => format!(
                            "durable set is no cache line's history: e{w} persisted \
                             (stamp {sw}) before the earlier same-line write e{p} (stamp {sp})"
                        ),
                        _ => format!(
                            "durable set is not per-location prefix-shaped: e{w} is \
                             durable while an earlier same-line write is not"
                        ),
                    };
                    return Err(Box::new(
                        Counterexample::new(title, failure)
                            .context("structure", structure.name())
                            .context("discipline", discipline.name())
                            .context("crash", crash),
                    ));
                }
            };
            if let Some(f) = self.judge(&cut, &img) {
                if !discipline.guarantees_dl() {
                    waived += 1;
                    continue;
                }
                return Err(match Edges::new(trace, discipline) {
                    Ok(edges) => {
                        let (cut, f) = self.minimize(&edges, cut);
                        self.render(title, discipline, &crash, Some(sched), &cut, &f)
                    }
                    Err(e) => {
                        let mut cx = self.render(title, discipline, &crash, Some(sched), &cut, &f);
                        cx.context
                            .push(("minimized".to_string(), format!("no ({e})")));
                        cx
                    }
                });
            }
        }
        Ok(CrossReport {
            crash_points,
            waived,
        })
    }

    /// Replays the trace under `mechanism` with NVM in `mode` and
    /// cross-validates the recorded schedule against the mechanism's
    /// promised discipline.
    pub fn cross_validate(
        &self,
        mechanism: Mechanism,
        mode: NvmMode,
        title: &str,
    ) -> Result<CrossReport, Box<Counterexample>> {
        let cfg = SimConfig::new(mechanism).nvm_mode(mode);
        let run = Sim::new(cfg, self.trace).run();
        self.cross_validate_schedule(mechanism.discipline(), &run.schedule, title)
    }

    /// Walks every admissible cut of `discipline`'s lattice over the
    /// trace, visiting at most `max_states` distinct states, and checks
    /// null recovery + durable linearizability on each distinct durable
    /// state. No simulator run is involved — this checks the
    /// *discipline*, not a particular schedule, so the result holds for
    /// every mechanism and NVM mode promising it.
    pub fn enumerate(
        &self,
        discipline: PersistDiscipline,
        max_states: usize,
        title: &str,
    ) -> Result<EnumReport, Box<Counterexample>> {
        let (structure, trace) = (self.structure, self.trace);
        let edges = Edges::new(trace, discipline).map_err(|e| {
            let what = format!("trace exceeds the hb-closure budget: {e:?}");
            setup_failure(structure, discipline, title, what)
        })?;

        // Cuts realizing the same durable overlay AND the same included
        // decisive events are equivalent for both checks; deduplicate.
        type CutKey = (Vec<(lrp_model::Addr, u64)>, Vec<EventId>);
        let mut seen: HashSet<CutKey> = HashSet::new();
        let mut waived = 0usize;
        let mut first_failure: Option<(Vec<usize>, CutFailure)> = None;
        let stats = enumerate_cuts(&self.chains, &edges.preds, max_states, &mut |cut| {
            let key = (
                self.chains.overlay(trace, cut),
                self.decisive
                    .iter()
                    .map(|d| d.event)
                    .filter(|&e| self.chains.includes(cut, e))
                    .collect(),
            );
            if !seen.insert(key) {
                return true;
            }
            if let Some(f) = self.cut_failure(cut) {
                if !discipline.guarantees_dl() {
                    waived += 1;
                    return true;
                }
                first_failure = Some((cut.to_vec(), f));
                return false;
            }
            true
        });
        if let Some((cut, _)) = first_failure {
            let (cut, f) = self.minimize(&edges, cut);
            return Err(self.render(title, discipline, "enumerated cut", None, &cut, &f));
        }
        Ok(EnumReport {
            stats,
            checked: seen.len(),
            waived,
        })
    }
}

/// Reorders one persist pair across a generator edge: finds the first
/// edge `(p, w)` whose stamps are finite and distinct and swaps them,
/// producing a schedule the discipline must reject. Returns `None` if
/// no such edge exists (e.g. everything persisted in one flush).
pub fn mutate_reorder(
    sched: &PersistSchedule,
    preds: &[Vec<EventId>],
) -> Option<(PersistSchedule, (EventId, EventId))> {
    for (p, w) in edge_list(preds) {
        if let (Some(sp), Some(sw)) = (sched.stamp(p), sched.stamp(w)) {
            if sp < sw {
                let mut m = sched.clone();
                m.set(p, sw);
                m.set(w, sp);
                return Some((m, (p, w)));
            }
        }
    }
    None
}

/// Builds the generator-edge table for `trace` under `discipline` —
/// the companion to [`mutate_reorder`] for callers that do not hold
/// the checker's own edge table.
pub fn generator_preds(
    trace: &Trace,
    discipline: PersistDiscipline,
) -> Result<Vec<Vec<EventId>>, Box<Counterexample>> {
    persist_preds(trace, discipline).map_err(|e| {
        Box::new(Counterexample::new(
            "generator-edge construction",
            format!("trace exceeds the hb-closure budget: {e:?}"),
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrp_campaign::{build_trace, MatrixSpec};

    /// The linked-list trace at the checker's bound, with
    /// `ops_per_thread` ops per thread and `seed`.
    fn list_trace(ops_per_thread: usize, seed: u64) -> Trace {
        let matrix = MatrixSpec {
            structures: vec![Structure::LinkedList],
            seeds: vec![seed],
            ops_per_thread,
            ..MatrixSpec::check()
        };
        build_trace(&matrix.cells()[0])
    }

    /// The linked-list trace at the checker's bound and first seed.
    fn quick() -> Trace {
        list_trace(4, 3)
    }

    #[test]
    fn lrp_schedule_cross_validates_on_a_list() {
        let trace = quick();
        let r = Checker::new(Structure::LinkedList, &trace)
            .unwrap()
            .cross_validate(Mechanism::Lrp, NvmMode::Cached, "list")
            .unwrap_or_else(|cx| panic!("{cx}"));
        assert!(r.crash_points > 1);
        assert_eq!(r.waived, 0);
    }

    #[test]
    fn mutated_schedule_is_rejected_with_a_counterexample() {
        // A longer run gives many distinct stamps, guaranteeing some
        // generator edge crosses two of them.
        let trace = list_trace(8, 1);
        let run = Sim::new(SimConfig::new(Mechanism::Lrp), &trace).run();
        let preds = generator_preds(&trace, PersistDiscipline::ReleaseOrder).unwrap();
        let (mutated, (p, w)) =
            mutate_reorder(&run.schedule, &preds).expect("a reorderable edge exists");
        let cx = Checker::new(Structure::LinkedList, &trace)
            .unwrap()
            .cross_validate_schedule(PersistDiscipline::ReleaseOrder, &mutated, "mutation")
            .expect_err("the mutation must be caught");
        let s = cx.to_string();
        assert!(
            s.contains(&format!("e{w} persisted")) && s.contains(&format!("e{p}")),
            "counterexample names the violated edge: {s}"
        );
    }

    #[test]
    fn enumerate_finds_nop_violations_but_no_lrp_ones() {
        let trace = quick();
        let ck = Checker::new(Structure::LinkedList, &trace).unwrap();
        let lrp = ck
            .enumerate(PersistDiscipline::ReleaseOrder, MAX_STATES, "lrp")
            .unwrap_or_else(|cx| panic!("{cx}"));
        assert_eq!(lrp.waived, 0);
        assert!(!lrp.stats.truncated);
        let nop = ck
            .enumerate(PersistDiscipline::Unconstrained, MAX_STATES, "nop")
            .unwrap_or_else(|cx| panic!("{cx}"));
        assert!(
            nop.waived > 0,
            "the unconstrained lattice must contain unrecoverable cuts \
             ({} states checked)",
            nop.checked
        );
        assert!(nop.stats.states >= lrp.stats.states);
    }

    #[test]
    fn minimizer_produces_a_small_deterministic_counterexample() {
        let trace = quick();
        let ck = Checker::new(Structure::LinkedList, &trace).unwrap();
        let edges = Edges::new(&trace, PersistDiscipline::Unconstrained).unwrap();
        // Find any failing cut by walking the unconstrained lattice.
        let mut bad: Option<Vec<usize>> = None;
        enumerate_cuts(&ck.chains, &edges.preds, 50_000, &mut |cut| {
            if ck.cut_failure(cut).is_some() {
                bad = Some(cut.to_vec());
                return false;
            }
            true
        });
        let bad = bad.expect("the NOP lattice contains a failing cut");
        let (min1, f1) = ck.minimize(&edges, bad.clone());
        let (min2, _) = ck.minimize(&edges, bad.clone());
        assert_eq!(min1, min2, "minimization is deterministic");
        assert!(
            min1.iter().sum::<usize>() <= bad.iter().sum::<usize>(),
            "minimization never grows the cut"
        );
        let d = PersistDiscipline::Unconstrained;
        let cx = ck.render("min", d, "enumerated cut", None, &min1, &f1);
        let s = cx.to_string();
        assert!(s.starts_with("counterexample: min\n"));
        assert!(s.contains("  failure: "));
    }
}
