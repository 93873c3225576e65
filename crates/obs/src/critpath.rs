//! Durability critical-path engine: per-persist causal chains from the
//! triggering release back to its persist ack.
//!
//! The blame profiler ([`crate::blame`]) charges stall cycles to sites
//! — *how much* each op paid. This module answers the sharper question
//! *which causal chain made this persist late*: of the cycles between a
//! release's store commit and its write persisting, how many were spent
//! waiting on a RET-full drain, sitting in the NVM queue, draining a
//! barrier epoch, or riding a coherence transfer to the directory.
//!
//! The engine is online with bounded memory. A chain opens when a
//! release commits, captures at most one interior milestone (the flush
//! issue that materialized the line, classified at issue time), and
//! retires the moment its persist stamps — collapsing into per-kind
//! log2 histograms, a folded chain-shape map for flamegraph rendering,
//! and two audit counters in the I1–I4 style ([`CritAudit`]):
//!
//! * **C1 (conservation)** — every retired chain's segments must sum to
//!   exactly its measured release-to-persist latency, and its
//!   milestones must be time-ordered (commit ≤ issue ≤ persist).
//! * **C2 (wall bound)** — the longest retired path can never exceed
//!   the run's wall time.
//!
//! Edges are typed [`CritEdge`]s between [`EvRef`] endpoints so the
//! chain vocabulary is explicit, but retirement consumes edges into the
//! summary immediately — no edge log is ever retained.

use crate::audit::AuditCounter;
use crate::event::Time;
use crate::hist::Hist;
use crate::json::Json;
use crate::metrics::{hist_json, parse_hist};
use lrp_model::EventId;
use std::collections::{BTreeMap, HashMap};

/// What a critical-path segment's cycles were spent on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CritSegKind {
    /// Waiting behind a RET-capacity drain before the flush could issue.
    RetFull,
    /// In flight between flush issue and the NVM controller's ack.
    NvmQueue,
    /// Waiting behind an SB/BB epoch drain before the flush could issue.
    BarrierDrain,
    /// Carried by a coherence transfer (a synchronisation-triggered
    /// flush, or a directory-persisted eviction write-back).
    CoherenceXfer,
    /// Deferred by release-order bookkeeping: the lazy window between a
    /// release's commit and the demand that finally issued its flush.
    ReleaseOrder,
}

impl CritSegKind {
    /// Every kind, in stable report order.
    pub const ALL: [CritSegKind; 5] = [
        CritSegKind::RetFull,
        CritSegKind::NvmQueue,
        CritSegKind::BarrierDrain,
        CritSegKind::CoherenceXfer,
        CritSegKind::ReleaseOrder,
    ];

    /// Stable snake_case name (JSON keys, folded-stack frames).
    pub fn name(self) -> &'static str {
        match self {
            CritSegKind::RetFull => "ret_full",
            CritSegKind::NvmQueue => "nvm_queue",
            CritSegKind::BarrierDrain => "barrier_drain",
            CritSegKind::CoherenceXfer => "coherence_xfer",
            CritSegKind::ReleaseOrder => "release_order",
        }
    }

    /// Index into [`CritSegKind::ALL`]-shaped arrays.
    pub fn idx(self) -> usize {
        self as usize
    }
}

/// An endpoint of a causal edge: a milestone in one write's life.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvRef {
    /// The release store left the store buffer into the L1.
    ReleaseCommit(EventId),
    /// The flush covering the write was handed to the NVM controllers.
    FlushIssue(EventId),
    /// The write's persist was stamped durable.
    Persist(EventId),
}

/// One typed causal edge on a persist's critical path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CritEdge {
    /// Where the wait began.
    pub from: EvRef,
    /// The milestone that ended it.
    pub to: EvRef,
    /// What the cycles were spent on.
    pub kind: CritSegKind,
    /// Length of the segment.
    pub cycles: u64,
}

/// Conservation audit counters, in the I1–I4 [`AuditCounter`] style:
/// observed at every chain retirement, never enforcing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CritAudit {
    /// C1 — segments sum to the measured release-to-persist latency and
    /// milestones are time-ordered (one check per retired chain).
    pub c1: AuditCounter,
    /// C2 — the longest retired path never exceeds wall time (one check
    /// per finished run).
    pub c2: AuditCounter,
}

impl CritAudit {
    /// Total conservation checks.
    pub fn total_checks(&self) -> u64 {
        self.c1.checks + self.c2.checks
    }

    /// Total conservation violations.
    pub fn total_violations(&self) -> u64 {
        self.c1.violations + self.c2.violations
    }

    /// `(name, counter)` rows in stable order, for reports.
    pub fn rows(&self) -> [(&'static str, AuditCounter); 2] {
        [("c1_conservation", self.c1), ("c2_wall_bound", self.c2)]
    }

    /// Folds another audit's counts into this one.
    pub fn merge(&mut self, other: &CritAudit) {
        self.c1.checks += other.c1.checks;
        self.c1.violations += other.c1.violations;
        self.c2.checks += other.c2.checks;
        self.c2.violations += other.c2.violations;
    }
}

/// Distinct folded chain shapes retained before further shapes collapse
/// into the drop counter. With ≤2-segment chains over five kinds the
/// shape space is 30, so the cap only matters if chains grow.
pub const FOLDED_CAP: usize = 64;

/// The bounded, mergeable digest every retired chain collapses into.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CritSummary {
    /// Total cycles per segment kind, [`CritSegKind::ALL`] order.
    pub seg_cycles: [u64; 5],
    /// Segments seen per kind, [`CritSegKind::ALL`] order.
    pub seg_counts: [u64; 5],
    /// Log2 histogram of segment length per kind.
    pub seg_hist: [Hist; 5],
    /// Log2 histogram of whole-path length (one entry per retired
    /// chain); its `count` is the number of persisted releases traced.
    pub path: Hist,
    /// Longest retired path, for the C2 wall bound.
    pub max_path: u64,
    /// Folded chain shapes (`"kind;kind"`) → (paths, cycles), for
    /// flamegraph-style rendering.
    pub folded: BTreeMap<String, (u64, u64)>,
    /// Chains whose shape did not fit under [`FOLDED_CAP`].
    pub folded_dropped: u64,
    /// C1/C2 conservation counters.
    pub audit: CritAudit,
}

impl CritSummary {
    /// True when no chain ever retired.
    pub fn is_empty(&self) -> bool {
        self.path.count == 0 && self.audit.total_checks() == 0
    }

    /// Number of retired chains.
    pub fn paths(&self) -> u64 {
        self.path.count
    }

    /// Total cycles across every segment of every retired chain.
    pub fn total_cycles(&self) -> u64 {
        self.seg_cycles.iter().sum()
    }

    /// Per-kind share of total critical-path cycles, ALL order
    /// (all-zero when nothing retired).
    pub fn shares(&self) -> [f64; 5] {
        let total = self.total_cycles();
        let mut out = [0.0; 5];
        if total > 0 {
            for (slot, &c) in out.iter_mut().zip(self.seg_cycles.iter()) {
                *slot = c as f64 / total as f64;
            }
        }
        out
    }

    /// Consumes one retired chain. `latency` is the independently
    /// measured release-to-persist interval; `ordered` is whether the
    /// chain's milestones were time-ordered.
    fn consume(&mut self, edges: &[CritEdge], latency: u64, ordered: bool) {
        let mut sum = 0u64;
        let mut shape = String::new();
        for e in edges {
            let k = e.kind.idx();
            self.seg_cycles[k] += e.cycles;
            self.seg_counts[k] += 1;
            self.seg_hist[k].record(e.cycles);
            sum += e.cycles;
            if !shape.is_empty() {
                shape.push(';');
            }
            shape.push_str(e.kind.name());
        }
        self.path.record(latency);
        self.max_path = self.max_path.max(latency);
        self.audit.c1.checks += 1;
        if sum != latency || !ordered {
            self.audit.c1.violations += 1;
        }
        if let Some(slot) = self.folded.get_mut(&shape) {
            slot.0 += 1;
            slot.1 += latency;
        } else if self.folded.len() < FOLDED_CAP {
            self.folded.insert(shape, (1, latency));
        } else {
            self.folded_dropped += 1;
        }
    }

    /// Folds another summary into this one (exact for everything except
    /// the shape map, which re-applies the cap).
    pub fn merge(&mut self, other: &CritSummary) {
        for k in 0..5 {
            self.seg_cycles[k] += other.seg_cycles[k];
            self.seg_counts[k] += other.seg_counts[k];
            self.seg_hist[k].merge(&other.seg_hist[k]);
        }
        self.path.merge(&other.path);
        self.max_path = self.max_path.max(other.max_path);
        self.audit.merge(&other.audit);
        self.folded_dropped += other.folded_dropped;
        for (shape, &(n, cycles)) in &other.folded {
            if let Some(slot) = self.folded.get_mut(shape) {
                slot.0 += n;
                slot.1 += cycles;
            } else if self.folded.len() < FOLDED_CAP {
                self.folded.insert(shape.clone(), (n, cycles));
            } else {
                self.folded_dropped += n;
            }
        }
    }

    /// Folded-stacks text (`chain cycles`, one line per shape, heaviest
    /// first) for flamegraph tooling.
    pub fn folded_stacks(&self) -> String {
        let mut rows: Vec<(&str, u64)> = self
            .folded
            .iter()
            .map(|(shape, &(_, cycles))| (shape.as_str(), cycles))
            .collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        let mut out = String::new();
        for (shape, cycles) in rows {
            out.push_str(shape);
            out.push(' ');
            out.push_str(&cycles.to_string());
            out.push('\n');
        }
        out
    }
}

/// An open chain: a committed release whose persist has not stamped.
#[derive(Debug, Clone, Copy)]
struct OpenChain {
    commit: Time,
    /// The flush-issue milestone, classified at issue time (`None`
    /// until the line's flush materializes — or never, on the
    /// directory-persisted write-back path).
    issue: Option<(Time, CritSegKind)>,
}

/// The online engine: feeds on recorder hook calls, retires chains the
/// moment their persist stamps, and never holds more state than the
/// simulator holds unpersisted releases.
#[derive(Debug)]
pub struct CritPath {
    open: HashMap<EventId, OpenChain>,
    /// What cycles between a release's commit and a demand-free flush
    /// issue mean under the attached mechanism (barrier mechanisms
    /// spend them draining epochs; lazy mechanisms defer by design).
    drain_kind: CritSegKind,
    summary: CritSummary,
}

impl Default for CritPath {
    fn default() -> Self {
        CritPath::new()
    }
}

impl CritPath {
    /// A fresh engine with the lazy-mechanism default drain kind.
    pub fn new() -> CritPath {
        CritPath {
            open: HashMap::new(),
            drain_kind: CritSegKind::ReleaseOrder,
            summary: CritSummary::default(),
        }
    }

    /// Installs the mechanism's drain classification (see
    /// `PersistMech::crit_drain_kind` in `lrp-core`).
    pub fn set_drain_kind(&mut self, kind: CritSegKind) {
        self.drain_kind = kind;
    }

    /// The installed drain classification.
    pub fn drain_kind(&self) -> CritSegKind {
        self.drain_kind
    }

    /// A release store committed: its chain opens.
    pub fn release_committed(&mut self, t: Time, ev: EventId) {
        self.open.insert(
            ev,
            OpenChain {
                commit: t,
                issue: None,
            },
        );
    }

    /// A flush covering `covered` issued toward the NVM controllers;
    /// `kind` classifies what the pre-issue wait was spent on. Only the
    /// first issue per open chain is a milestone (re-flushes of a line
    /// already in flight don't restart the clock).
    pub fn flush_issued(&mut self, t: Time, kind: CritSegKind, covered: &[EventId]) {
        for ev in covered {
            if let Some(chain) = self.open.get_mut(ev) {
                if chain.issue.is_none() {
                    chain.issue = Some((t, kind));
                }
            }
        }
    }

    /// Writes `covered` persisted at `t`: their chains retire into the
    /// summary.
    pub fn persisted(&mut self, t: Time, covered: &[EventId]) {
        for ev in covered {
            if let Some(chain) = self.open.remove(ev) {
                self.retire(*ev, chain, t);
            }
        }
    }

    fn retire(&mut self, ev: EventId, chain: OpenChain, t: Time) {
        let latency = t.saturating_sub(chain.commit);
        let mut edges = [CritEdge {
            from: EvRef::ReleaseCommit(ev),
            to: EvRef::Persist(ev),
            kind: CritSegKind::CoherenceXfer,
            cycles: latency,
        }; 2];
        let (n, ordered) = match chain.issue {
            Some((it, kind)) if chain.commit <= it && it <= t => {
                edges[0] = CritEdge {
                    from: EvRef::ReleaseCommit(ev),
                    to: EvRef::FlushIssue(ev),
                    kind,
                    cycles: it - chain.commit,
                };
                edges[1] = CritEdge {
                    from: EvRef::FlushIssue(ev),
                    to: EvRef::Persist(ev),
                    kind: CritSegKind::NvmQueue,
                    cycles: t - it,
                };
                (2, t >= chain.commit)
            }
            // No observed issue: the write reached NVM as a
            // directory-persisted write-back — the whole interval is the
            // coherence transfer that carried it there.
            None => (1, t >= chain.commit),
            // An issue stamp outside [commit, persist] is itself a C1
            // ordering violation; fall back to the single-edge chain so
            // conservation still describes the measured interval.
            Some(_) => (1, false),
        };
        self.summary.consume(&edges[..n], latency, ordered);
    }

    /// Finalises the run: performs the C2 wall-bound check against
    /// `wall` (end-of-run cycle count) and yields the summary. Chains
    /// still open never retired and are dropped, matching the
    /// release-to-persist histogram's behaviour.
    pub fn finish(mut self, wall: Time) -> CritSummary {
        self.summary.audit.c2.checks += 1;
        if self.summary.max_path > wall {
            self.summary.audit.c2.violations += 1;
        }
        self.summary
    }
}

/// The canonical JSON encoding of a [`CritSummary`].
pub fn crit_json(c: &CritSummary) -> Json {
    let mut segments = Vec::with_capacity(5);
    for kind in CritSegKind::ALL {
        let k = kind.idx();
        segments.push((
            kind.name().to_string(),
            Json::obj([
                ("count", Json::U64(c.seg_counts[k])),
                ("cycles", Json::U64(c.seg_cycles[k])),
                ("hist", hist_json(&c.seg_hist[k])),
            ]),
        ));
    }
    let folded: Vec<Json> = c
        .folded
        .iter()
        .map(|(shape, &(n, cycles))| {
            Json::obj([
                ("chain", Json::Str(shape.clone())),
                ("paths", Json::U64(n)),
                ("cycles", Json::U64(cycles)),
            ])
        })
        .collect();
    let mut audit = Vec::with_capacity(3);
    for (name, counter) in c.audit.rows() {
        audit.push((
            name.to_string(),
            Json::obj([
                ("checks", Json::U64(counter.checks)),
                ("violations", Json::U64(counter.violations)),
            ]),
        ));
    }
    Json::obj([
        ("paths", hist_json(&c.path)),
        ("max_path", Json::U64(c.max_path)),
        ("segments", Json::Obj(segments)),
        ("folded", Json::Arr(folded)),
        ("folded_dropped", Json::U64(c.folded_dropped)),
        ("audit", Json::Obj(audit)),
    ])
}

/// Parses the [`crit_json`] encoding back into a [`CritSummary`].
pub fn parse_crit(doc: &Json) -> Result<CritSummary, String> {
    let mut c = CritSummary {
        path: parse_hist(
            doc.get("paths")
                .ok_or_else(|| "missing field \"paths\"".to_string())?,
        )?,
        max_path: doc.field_u64("max_path")?,
        folded_dropped: doc.field_u64("folded_dropped")?,
        ..CritSummary::default()
    };
    let segments = doc
        .get("segments")
        .ok_or_else(|| "missing field \"segments\"".to_string())?;
    for kind in CritSegKind::ALL {
        let seg = segments
            .get(kind.name())
            .ok_or_else(|| format!("missing segment {:?}", kind.name()))?;
        let k = kind.idx();
        c.seg_counts[k] = seg.field_u64("count")?;
        c.seg_cycles[k] = seg.field_u64("cycles")?;
        c.seg_hist[k] = parse_hist(
            seg.get("hist")
                .ok_or_else(|| format!("segment {:?} missing hist", kind.name()))?,
        )?;
    }
    let folded = doc
        .get("folded")
        .and_then(Json::as_arr)
        .ok_or_else(|| "missing field \"folded\"".to_string())?;
    for row in folded {
        let shape = row.field_str("chain")?;
        c.folded.insert(
            shape.to_string(),
            (row.field_u64("paths")?, row.field_u64("cycles")?),
        );
    }
    let audit = doc
        .get("audit")
        .ok_or_else(|| "missing field \"audit\"".to_string())?;
    for (name, counter) in [
        ("c1_conservation", &mut c.audit.c1),
        ("c2_wall_bound", &mut c.audit.c2),
    ] {
        let row = audit
            .get(name)
            .ok_or_else(|| format!("missing audit row {name:?}"))?;
        counter.checks = row.field_u64("checks")?;
        counter.violations = row.field_u64("violations")?;
    }
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_segment_chain_conserves_latency() {
        let mut cp = CritPath::new();
        cp.set_drain_kind(CritSegKind::BarrierDrain);
        cp.release_committed(100, 7);
        cp.flush_issued(160, CritSegKind::BarrierDrain, &[3, 7]);
        cp.persisted(250, &[7]);
        let s = cp.finish(1000);
        assert_eq!(s.paths(), 1);
        assert_eq!(s.seg_cycles[CritSegKind::BarrierDrain.idx()], 60);
        assert_eq!(s.seg_cycles[CritSegKind::NvmQueue.idx()], 90);
        assert_eq!(s.total_cycles(), 150);
        assert_eq!(s.path.sum, 150);
        assert_eq!(s.max_path, 150);
        assert_eq!(s.audit.total_violations(), 0);
        assert_eq!(s.audit.c1.checks, 1);
        assert_eq!(s.audit.c2.checks, 1);
        assert_eq!(s.folded.get("barrier_drain;nvm_queue"), Some(&(1, 150)));
    }

    #[test]
    fn issueless_chain_is_one_coherence_segment() {
        let mut cp = CritPath::new();
        cp.release_committed(40, 9);
        cp.persisted(100, &[9]);
        let s = cp.finish(200);
        assert_eq!(s.seg_cycles[CritSegKind::CoherenceXfer.idx()], 60);
        assert_eq!(s.seg_counts[CritSegKind::CoherenceXfer.idx()], 1);
        assert_eq!(s.audit.total_violations(), 0);
        assert_eq!(s.folded.get("coherence_xfer"), Some(&(1, 60)));
    }

    #[test]
    fn only_the_first_issue_is_a_milestone() {
        let mut cp = CritPath::new();
        cp.release_committed(10, 1);
        cp.flush_issued(30, CritSegKind::RetFull, &[1]);
        cp.flush_issued(70, CritSegKind::BarrierDrain, &[1]); // re-flush: ignored
        cp.persisted(110, &[1]);
        let s = cp.finish(200);
        assert_eq!(s.seg_cycles[CritSegKind::RetFull.idx()], 20);
        assert_eq!(s.seg_cycles[CritSegKind::NvmQueue.idx()], 80);
        assert_eq!(s.seg_cycles[CritSegKind::BarrierDrain.idx()], 0);
        assert_eq!(s.audit.total_violations(), 0);
    }

    #[test]
    fn non_release_events_never_open_chains() {
        let mut cp = CritPath::new();
        cp.flush_issued(10, CritSegKind::RetFull, &[5]);
        cp.persisted(50, &[5]);
        let s = cp.finish(100);
        assert!(s.is_empty() || s.paths() == 0);
        assert_eq!(s.paths(), 0);
    }

    #[test]
    fn wall_bound_violation_is_counted() {
        let mut cp = CritPath::new();
        cp.release_committed(0, 2);
        cp.persisted(500, &[2]);
        let s = cp.finish(400); // wall shorter than the path: impossible
        assert_eq!(s.audit.c2.violations, 1);
        assert_eq!(s.audit.total_violations(), 1);
    }

    #[test]
    fn out_of_order_issue_is_a_c1_violation_but_still_conserves() {
        let mut cp = CritPath::new();
        cp.release_committed(100, 3);
        // A corrupted stream: the issue stamp predates the commit.
        cp.flush_issued(50, CritSegKind::NvmQueue, &[3]);
        cp.persisted(200, &[3]);
        let s = cp.finish(1000);
        assert_eq!(s.audit.c1.violations, 1);
        // The fallback single-edge chain still sums to the interval.
        assert_eq!(s.total_cycles(), 100);
    }

    #[test]
    fn merge_matches_serial_consumption() {
        let mut a = CritPath::new();
        a.release_committed(0, 1);
        a.flush_issued(10, CritSegKind::RetFull, &[1]);
        a.persisted(40, &[1]);
        let mut b = CritPath::new();
        b.release_committed(5, 2);
        b.persisted(90, &[2]);
        let mut serial = CritPath::new();
        serial.release_committed(0, 1);
        serial.flush_issued(10, CritSegKind::RetFull, &[1]);
        serial.persisted(40, &[1]);
        serial.release_committed(5, 2);
        serial.persisted(90, &[2]);
        let mut merged = a.finish(100);
        merged.merge(&b.finish(100));
        let mut expect = serial.finish(100);
        // Two finishes contribute two C2 checks; align before comparing.
        expect.audit.c2.checks += 1;
        assert_eq!(merged, expect);
    }

    #[test]
    fn folded_cap_drops_new_shapes_only() {
        let mut s = CritSummary::default();
        for i in 0..(FOLDED_CAP as u32 + 4) {
            let edges = [CritEdge {
                from: EvRef::ReleaseCommit(i),
                to: EvRef::Persist(i),
                kind: CritSegKind::ALL[(i % 5) as usize],
                cycles: i as u64,
            }];
            // Force distinct shapes by chaining distinct kind names:
            // 5 base shapes repeat, so drops require a synthetic map.
            s.consume(&edges, i as u64, true);
        }
        assert_eq!(s.folded.len(), 5); // only 5 distinct single-kind shapes
        assert_eq!(s.folded_dropped, 0);
        // Saturate the map artificially, then one more new shape drops.
        for i in 0..FOLDED_CAP as u64 {
            s.folded.entry(format!("synthetic{i}")).or_insert((1, 1));
        }
        s.consume(
            &[
                CritEdge {
                    from: EvRef::ReleaseCommit(0),
                    to: EvRef::FlushIssue(0),
                    kind: CritSegKind::RetFull,
                    cycles: 1,
                },
                CritEdge {
                    from: EvRef::FlushIssue(0),
                    to: EvRef::Persist(0),
                    kind: CritSegKind::RetFull,
                    cycles: 1,
                },
            ],
            2,
            true,
        );
        assert_eq!(s.folded_dropped, 1);
    }

    #[test]
    fn shares_sum_to_one_and_json_round_trips() {
        let mut cp = CritPath::new();
        cp.set_drain_kind(CritSegKind::BarrierDrain);
        cp.release_committed(0, 1);
        cp.flush_issued(30, CritSegKind::BarrierDrain, &[1]);
        cp.persisted(100, &[1]);
        cp.release_committed(10, 2);
        cp.persisted(90, &[2]);
        let s = cp.finish(500);
        let sum: f64 = s.shares().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "{sum}");
        let back = parse_crit(&Json::parse(&crit_json(&s).to_compact()).unwrap()).unwrap();
        assert_eq!(back, s);
        // Empty summaries round-trip too (the campaign's NOP cells).
        let empty = CritSummary::default();
        let back = parse_crit(&crit_json(&empty)).unwrap();
        assert_eq!(back, empty);
    }

    #[test]
    fn folded_stacks_renders_heaviest_first() {
        let mut cp = CritPath::new();
        cp.release_committed(0, 1);
        cp.flush_issued(5, CritSegKind::RetFull, &[1]);
        cp.persisted(10, &[1]);
        cp.release_committed(0, 2);
        cp.persisted(400, &[2]);
        let s = cp.finish(1000);
        let text = s.folded_stacks();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "coherence_xfer 400");
        assert_eq!(lines[1], "ret_full;nvm_queue 10");
    }
}
