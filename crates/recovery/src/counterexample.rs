//! Counterexample rendering, plus the paper's Figure 1 end to end.
//!
//! [`Counterexample`] is the one shared formatter for every persistency
//! violation report in the workspace — the `lrp-check` model checker,
//! the recovery tests, and future crash fuzzers all render through it so
//! that counterexamples look identical everywhere and diff cleanly in
//! CI artifacts. All sections render in a fixed order and the caller
//! supplies entries in a deterministic order, so equal failures produce
//! byte-equal reports.
//!
//! [`figure1`] packages the paper's motivating counterexample: thread 0
//! inserts node A1 into a log-free linked list — it prepares the node
//! with plain writes and links it with a release CAS. Under ARP, a legal
//! persist order puts the link *before* the node's fields; a crash
//! between the two leaves a reachable node full of garbage — the list is
//! unrecoverable. Under RP (and the LRP hardware run), every crash
//! prefix is a consistent cut and the list always validates.

use crate::check::check_null_recovery;
use crate::crash::CrashPlan;
use lrp_baselines::arp::{arp_schedule, ArpOrder};
use lrp_exec::{body, run, ExecConfig, PmemCtx, SchedPolicy};
use lrp_lfds::list::LinkedList;
use lrp_lfds::Structure;
use lrp_model::spec::{check_arp, check_rp};
use lrp_model::Trace;
use lrp_model::{Event, OpKind, OpMarker};
use lrp_sim::{Mechanism, Sim, SimConfig};

/// A structured, deterministically rendered persistency counterexample:
/// what was being checked, the ops in play, the durable cut, the state
/// recovery produced, and the check that failed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counterexample {
    /// What was being checked (e.g. `"lrp/linked-list seed 3"`).
    pub title: String,
    /// Key/value context lines (mechanism, discipline, crash point...),
    /// rendered in insertion order — push them in a fixed order.
    pub context: Vec<(String, String)>,
    /// Rendered operations relevant to the failure.
    pub ops: Vec<String>,
    /// Rendered durable-cut entries (typically one line per write).
    pub cut: Vec<String>,
    /// Rendered recovered abstract state, if recovery got that far.
    pub recovered: Option<String>,
    /// The violated check, in one line.
    pub failure: String,
}

impl Counterexample {
    /// A counterexample for `title` failing with `failure`.
    pub fn new(title: impl Into<String>, failure: impl Into<String>) -> Self {
        Counterexample {
            title: title.into(),
            failure: failure.into(),
            ..Counterexample::default()
        }
    }

    /// Appends a context line.
    pub fn context(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.context.push((key.into(), value.into()));
        self
    }

    /// Renders one memory event in the workspace's fixed format:
    /// `e<id> t<tid> <kind>[<annot>] <addr> := <wval>` (reads show
    /// `-> <rval>` instead of the written value).
    pub fn render_event(e: &Event) -> String {
        let kind = match e.kind {
            lrp_model::EventKind::Read => "R",
            lrp_model::EventKind::Write => "W",
            lrp_model::EventKind::RmwSuccess => "U",
            lrp_model::EventKind::RmwFail => "Uf",
        };
        let annot = match (e.annot.is_acquire(), e.annot.is_release()) {
            (true, true) => "[acq_rel]",
            (true, false) => "[acq]",
            (false, true) => "[rel]",
            (false, false) => "",
        };
        if e.is_write_effect() {
            format!(
                "e{} t{} {kind}{annot} {:#x} := {}",
                e.id, e.tid, e.addr, e.wval
            )
        } else {
            format!(
                "e{} t{} {kind}{annot} {:#x} -> {}",
                e.id, e.tid, e.addr, e.rval
            )
        }
    }

    /// Renders one operation marker:
    /// `t<tid> <op> -> <result> [events <first>..<end>)`.
    pub fn render_op(m: &OpMarker) -> String {
        let (op, res) = match m.op {
            OpKind::Insert(k, v) => (format!("insert({k}, {v})"), yes_no(m.result)),
            OpKind::Delete(k) => (format!("delete({k})"), yes_no(m.result)),
            OpKind::Contains(k) => (format!("contains({k})"), yes_no(m.result)),
            OpKind::Enqueue(v) => (format!("enqueue({v})"), yes_no(m.result)),
            OpKind::Dequeue => (
                "dequeue".to_string(),
                match m.result {
                    0 => "empty".to_string(),
                    v => format!("{}", v - 1),
                },
            ),
            OpKind::Setup => ("setup".to_string(), "done".to_string()),
        };
        format!(
            "t{} {op} -> {res} [events {}..{})",
            m.tid, m.first_event, m.end_event
        )
    }
}

fn yes_no(result: u64) -> String {
    if result == 1 { "ok" } else { "fail" }.to_string()
}

impl std::fmt::Display for Counterexample {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "counterexample: {}", self.title)?;
        for (k, v) in &self.context {
            writeln!(f, "  {k}: {v}")?;
        }
        if !self.ops.is_empty() {
            writeln!(f, "  ops:")?;
            for o in &self.ops {
                writeln!(f, "    - {o}")?;
            }
        }
        if !self.cut.is_empty() {
            writeln!(f, "  durable cut:")?;
            for c in &self.cut {
                writeln!(f, "    - {c}")?;
            }
        }
        if let Some(r) = &self.recovered {
            writeln!(f, "  recovered: {r}")?;
        }
        write!(f, "  failure: {}", self.failure)
    }
}

/// The outcome of the Figure 1 demonstration.
#[derive(Debug)]
pub struct Figure1 {
    /// The recorded two-thread insert execution.
    pub trace: Trace,
    /// Crash points at which the adversarial ARP schedule failed.
    pub arp_failures: usize,
    /// Crash points examined under ARP.
    pub arp_points: usize,
    /// Crash points examined under the LRP hardware run (all recover).
    pub lrp_points: usize,
}

/// Builds the Figure 1 execution (two threads inserting adjacent keys)
/// and checks recovery under the adversarial ARP schedule and under a
/// full LRP simulator run.
///
/// Panics if ARP unexpectedly recovers everywhere or if LRP fails — the
/// library's own tests rely on both properties.
pub fn figure1() -> Figure1 {
    // Two threads insert into a shared list; the second thread's insert
    // follows the first (it must traverse through A1), giving the
    // rel -> acq -> write chain of Figure 1d.
    let cfg = ExecConfig::new(2).policy(SchedPolicy::RoundRobin).seed(7);
    let trace = run(
        &cfg,
        |s| {
            let l = LinkedList::new(s);
            l.populate(s, &[10, 50]);
            s.set_root("head", l.head_loc);
        },
        vec![
            body(|mut c| async move {
                let head = lrp_exec::ctx::HEAP_BASE + 2 * lrp_exec::ctx::ARENA_BYTES;
                lrp_lfds::list::insert(&mut c, head, 20, 2020).await; // A1
            }),
            body(|mut c| async move {
                let head = lrp_exec::ctx::HEAP_BASE + 2 * lrp_exec::ctx::ARENA_BYTES;
                // Give T0 a head start so T1 observes A1 (B2 of Fig. 1c).
                for _ in 0..8 {
                    c.read(head).await;
                }
                lrp_lfds::list::insert(&mut c, head, 30, 3030).await; // B2
            }),
        ],
    );
    trace.validate().expect("well-formed trace");

    // ARP: the schedule satisfies the ARP rule yet breaks recovery.
    let arp = arp_schedule(&trace, ArpOrder::ReleaseFirst);
    check_arp(&trace, &arp).expect("schedule is ARP-legal");
    assert!(
        check_rp(&trace, &arp).is_err(),
        "the adversarial ARP schedule must violate RP"
    );
    let arp_report =
        check_null_recovery(Structure::LinkedList, &trace, &arp, &CrashPlan::Exhaustive);

    // LRP hardware: the recorded persist schedule satisfies RP and every
    // crash point recovers.
    let lrp = Sim::new(SimConfig::new(Mechanism::Lrp), &trace).run();
    check_rp(&trace, &lrp.schedule).expect("LRP enforces RP");
    let lrp_report = check_null_recovery(
        Structure::LinkedList,
        &trace,
        &lrp.schedule,
        &CrashPlan::Exhaustive,
    );
    assert!(
        lrp_report.all_recovered(),
        "LRP must recover everywhere: {lrp_report}"
    );

    Figure1 {
        trace,
        arp_failures: arp_report.failures.len(),
        arp_points: arp_report.crash_points,
        lrp_points: lrp_report.crash_points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrp_model::litmus::LitmusBuilder;
    use lrp_model::types::Annot;

    #[test]
    fn rendering_is_deterministic_and_sectioned() {
        let mut b = LitmusBuilder::new(2);
        b.init(0x200, 0);
        b.write(0, 0x100, 42);
        b.cas(0, 0x200, 0, 0x100, Annot::AcqRel);
        let t = b.build();
        let make = || {
            let mut cx = Counterexample::new(
                "lrp/linked-list seed 3",
                "stamp order violates release-order",
            )
            .context("mechanism", "lrp")
            .context("crash point", "after flush 4");
            cx.ops = t.markers.iter().map(Counterexample::render_op).collect();
            cx.cut = t
                .events
                .iter()
                .filter(|e| e.is_write_effect())
                .map(Counterexample::render_event)
                .collect();
            cx.recovered = Some("set{10, 50}".to_string());
            cx
        };
        let a = make().to_string();
        assert_eq!(a, make().to_string(), "byte-identical across renders");
        assert!(a.starts_with("counterexample: lrp/linked-list seed 3\n"));
        assert!(a.contains("  mechanism: lrp\n"));
        assert!(a.contains("  durable cut:\n"));
        assert!(a.contains("e0 t0 W 0x100 := 42"));
        assert!(a.contains("e1 t0 U[acq_rel] 0x200 := 256"));
        assert!(a.contains("  recovered: set{10, 50}"));
        assert!(a.ends_with("  failure: stamp order violates release-order"));
    }

    #[test]
    fn empty_sections_are_omitted() {
        let s = Counterexample::new("t", "f").to_string();
        assert_eq!(s, "counterexample: t\n  failure: f");
    }

    #[test]
    fn op_rendering_covers_results() {
        use lrp_model::OpMarker;
        let m = |op, result| OpMarker {
            tid: 1,
            op,
            first_event: 2,
            end_event: 5,
            result,
        };
        assert_eq!(
            Counterexample::render_op(&m(OpKind::Insert(7, 70), 1)),
            "t1 insert(7, 70) -> ok [events 2..5)"
        );
        assert_eq!(
            Counterexample::render_op(&m(OpKind::Delete(7), 0)),
            "t1 delete(7) -> fail [events 2..5)"
        );
        assert_eq!(
            Counterexample::render_op(&m(OpKind::Dequeue, 0)),
            "t1 dequeue -> empty [events 2..5)"
        );
        assert_eq!(
            Counterexample::render_op(&m(OpKind::Dequeue, 43)),
            "t1 dequeue -> 42 [events 2..5)"
        );
    }

    #[test]
    fn figure1_demonstrates_the_gap() {
        let f = figure1();
        assert!(
            f.arp_failures > 0,
            "ARP must fail recovery at some crash point"
        );
        assert!(f.lrp_points > 1);
        assert!(!f.trace.events.is_empty());
    }
}
