//! Request-scoped span tracing for the serving layer.
//!
//! The simulator-side [`recorder`](crate::recorder) answers *what the
//! machine did*; this module answers *where a request spent its time*
//! between wire-in and ack. A [`Span`] is one phase of one request's
//! life — wire decode, queue wait, batch formation, simulated
//! execution, persist-schedule stamping, or the ack write — tied
//! together by span id + parent id into a per-request tree whose root
//! covers the whole request. The ack span carries the simulated persist
//! stamp that justified a durable ack, so a Chrome trace shows not just
//! *that* an ack was durable but *which* persist made it so.
//!
//! Spans are recorded into a bounded drop-oldest [`SpanLog`] (drops are
//! counted, mirroring the event ring), exported as Chrome trace-event
//! JSON with one process track per shard ([`chrome_trace`]) or as one
//! JSONL line per span ([`span_json`], the serving layer's crash dump),
//! and checked for well-formedness by [`audit_chains`] — the test- and
//! CI-facing oracle that every durable ack has a complete
//! wire→queue→batch→execute→persist→ack chain nested inside its root.

use crate::json::Json;
use crate::ring::Ring;

/// Span identifier; 0 is reserved for "no parent".
pub type SpanId = u64;

/// The typed phase a span covers. Root spans are `Request`; every other
/// phase is a child of exactly one root.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanPhase {
    /// The whole request, wire-in to ack written. `op` is the wire op
    /// kind (0 get, 1 put, 2 del).
    Request {
        /// Wire op kind (0 get, 1 put, 2 del).
        op: u8,
    },
    /// Frame received → request decoded and routed.
    Wire {
        /// Payload bytes decoded.
        bytes: u32,
    },
    /// Admission to the shard queue → drained by the batcher.
    Queue {
        /// Queue depth observed at admission (or rejection).
        depth: u32,
        /// The request was shed by admission control (chain ends in a
        /// non-durable ack).
        shed: bool,
    },
    /// Batch formation window (the worker finds work → the queue
    /// drained into the batch).
    Batch {
        /// Shard batch number.
        batch: u64,
        /// Requests in the batch.
        size: u32,
    },
    /// Simulated execution (trace build + timing simulator run).
    Execute {
        /// Shard batch number.
        batch: u64,
    },
    /// Persist-schedule stamping and the commit/null-recovery check.
    Persist {
        /// Shard batch number.
        batch: u64,
        /// Final persist stamp of the batch (0 = nothing persisted).
        final_stamp: u64,
    },
    /// Reply write. For durable acks `persist_stamp` is the simulated
    /// cycle of the op's last persisted write — the stamp that
    /// justified the ack.
    Ack {
        /// The reply carried `durable: true`.
        durable: bool,
        /// Simulated persist stamp justifying a durable ack (0 when
        /// non-durable or read-only).
        persist_stamp: u64,
        /// The op was in flight when its shard crashed (`Crashed`
        /// reply; never durable).
        crashed: bool,
    },
}

impl SpanPhase {
    /// Stable phase name (Chrome trace event name).
    pub fn name(self) -> &'static str {
        match self {
            SpanPhase::Request { .. } => "request",
            SpanPhase::Wire { .. } => "wire",
            SpanPhase::Queue { .. } => "queue",
            SpanPhase::Batch { .. } => "batch",
            SpanPhase::Execute { .. } => "execute",
            SpanPhase::Persist { .. } => "persist",
            SpanPhase::Ack { .. } => "ack",
        }
    }
}

/// One recorded span. Times are microseconds since an epoch the
/// recording layer chooses (the serve layer uses server start).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// This span's id (unique per [`SpanLog`], never 0).
    pub id: SpanId,
    /// Parent span id (0 = this is a root).
    pub parent: SpanId,
    /// The wire request id the span belongs to.
    pub req: u64,
    /// Track the span renders under (the serve layer uses the shard
    /// index).
    pub track: u32,
    /// Start, microseconds since epoch.
    pub start_us: u64,
    /// End, microseconds since epoch (`>= start_us`).
    pub end_us: u64,
    /// Typed phase.
    pub phase: SpanPhase,
}

/// A bounded drop-oldest span collector: a [`Ring`] (read through
/// `Deref`) plus the span-id allocator.
#[derive(Debug)]
pub struct SpanLog {
    spans: Ring<Span>,
    next: SpanId,
}

impl std::ops::Deref for SpanLog {
    type Target = Ring<Span>;
    fn deref(&self) -> &Ring<Span> {
        &self.spans
    }
}

impl SpanLog {
    /// A log retaining at most `cap` spans (`0` keeps none but still
    /// allocates ids and counts drops).
    pub fn new(cap: usize) -> SpanLog {
        SpanLog {
            spans: Ring::new(cap),
            next: 1,
        }
    }

    /// Allocates a fresh span id (a chain's root, so its children can
    /// name it as their parent).
    pub fn alloc(&mut self) -> SpanId {
        let id = self.next;
        self.next += 1;
        id
    }

    /// Records a completed span, evicting the oldest when full.
    pub fn record(&mut self, mut span: Span) {
        if span.id == 0 {
            span.id = self.alloc();
        }
        self.next = self.next.max(span.id + 1);
        self.spans.push(span);
    }

    /// Takes every retained span (oldest first), leaving the log empty
    /// but still counting.
    pub fn drain(&mut self) -> Vec<Span> {
        self.spans.drain()
    }
}

/// The request id plus the phase's typed fields: a Chrome event's
/// `args` and the tail of a span's JSONL line.
fn span_args(s: &Span) -> Vec<(&'static str, Json)> {
    let mut pairs: Vec<(&'static str, Json)> = vec![("req", Json::U64(s.req))];
    match s.phase {
        SpanPhase::Request { op } => pairs.push(("op", Json::U64(op as u64))),
        SpanPhase::Wire { bytes } => pairs.push(("bytes", Json::U64(bytes as u64))),
        SpanPhase::Queue { depth, shed } => {
            pairs.push(("depth", Json::U64(depth as u64)));
            pairs.push(("shed", Json::Bool(shed)));
        }
        SpanPhase::Batch { batch, size } => {
            pairs.push(("batch", Json::U64(batch)));
            pairs.push(("size", Json::U64(size as u64)));
        }
        SpanPhase::Execute { batch } => pairs.push(("batch", Json::U64(batch))),
        SpanPhase::Persist { batch, final_stamp } => {
            pairs.push(("batch", Json::U64(batch)));
            pairs.push(("final_stamp", Json::U64(final_stamp)));
        }
        SpanPhase::Ack {
            durable,
            persist_stamp,
            crashed,
        } => {
            pairs.push(("durable", Json::Bool(durable)));
            pairs.push(("persist_stamp", Json::U64(persist_stamp)));
            pairs.push(("crashed", Json::Bool(crashed)));
        }
    }
    pairs
}

/// One span as a flat JSON object — `event` (the phase name), ids,
/// track, window, then the same fields a Chrome event carries as
/// `args`. The crash dump writes one such line per retained span.
pub fn span_json(s: &Span) -> Json {
    let mut pairs = vec![
        ("event", Json::Str(s.phase.name().into())),
        ("id", Json::U64(s.id)),
        ("parent", Json::U64(s.parent)),
        ("track", Json::U64(s.track as u64)),
        ("start_us", Json::U64(s.start_us)),
        ("end_us", Json::U64(s.end_us)),
    ];
    pairs.extend(span_args(s));
    Json::obj(pairs)
}

/// Base pid for per-shard span tracks (the simulator exporter uses pids
/// 1–3; shard N renders as process `10 + N`).
pub const SPAN_PID_BASE: u64 = 10;

/// Exports spans as a Chrome trace-event document. Each request renders
/// as one async-event group (`ph: "b"`/`"e"` keyed by track + root span
/// id — ids are only unique per shard log, so the group id is
/// track-qualified) under its shard's process track, so concurrent
/// requests on the same shard nest independently. Spans whose parent
/// fell out of the log are exported as their own group — truncated but
/// still visible.
pub fn chrome_trace(spans: &[Span]) -> Json {
    let mut events: Vec<Json> = Vec::with_capacity(spans.len() * 2 + 4);
    let mut tracks: Vec<u32> = spans.iter().map(|s| s.track).collect();
    tracks.sort_unstable();
    tracks.dedup();
    for t in &tracks {
        let pid = SPAN_PID_BASE + *t as u64;
        events.push(crate::chrome::process_meta(pid, &format!("shard-{t}")));
    }
    // Group per request chain: root first, then children by start time,
    // each as a begin/end pair in timestamp order within the group.
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by_key(|&i| {
        let s = &spans[i];
        let group = if s.parent == 0 { s.id } else { s.parent };
        (s.track, group, s.parent != 0, s.start_us, s.id)
    });
    for i in order {
        let s = &spans[i];
        let group = if s.parent == 0 { s.id } else { s.parent };
        let id = format!("{}.{group:#x}", s.track);
        let common = |ph: &str, ts: u64| {
            Json::obj([
                ("name", Json::Str(s.phase.name().into())),
                ("cat", Json::Str("req".into())),
                ("ph", Json::Str(ph.into())),
                ("id", Json::Str(id.clone())),
                ("pid", Json::U64(SPAN_PID_BASE + s.track as u64)),
                ("tid", Json::U64(0)),
                ("ts", Json::U64(ts)),
            ])
        };
        let mut b = common("b", s.start_us);
        if let Json::Obj(pairs) = &mut b {
            pairs.push(("args".into(), Json::obj(span_args(s))));
        }
        events.push(b);
        events.push(common("e", s.end_us));
    }
    Json::obj([("traceEvents", Json::Arr(events))])
}

/// What [`audit_chains`] found.
#[derive(Debug, Clone, Default)]
pub struct ChainAudit {
    /// Root (`Request`) spans seen.
    pub roots: usize,
    /// Roots whose ack carried `durable: true`.
    pub durable_acks: usize,
    /// Durable-ack roots with the full
    /// wire→queue→batch→execute→persist→ack chain.
    pub complete_durable_chains: usize,
    /// Complete durable chains whose ack also carries a non-zero
    /// persist stamp (the stamp that justified the ack).
    pub stamped_durable_chains: usize,
    /// Well-formedness violations (missing phases on durable chains,
    /// children escaping their root's window or track, out-of-order
    /// phases). Empty = well-formed.
    pub problems: Vec<String>,
}

impl ChainAudit {
    /// True when every durable ack has a complete, properly nested
    /// chain.
    pub fn well_formed(&self) -> bool {
        self.problems.is_empty()
    }
}

/// Checks span-tree well-formedness over a drained span set: every
/// child lies inside its root's window, phases start in chain order,
/// and every durable ack has the complete six-phase chain. Chains are
/// keyed by `(track, id)` — per-shard logs allocate ids independently,
/// so the same numeric id on two tracks is two distinct requests.
/// Orphans (parent evicted from the log) are skipped, not flagged —
/// bounded logs truncate under load by design.
pub fn audit_chains(spans: &[Span]) -> ChainAudit {
    use std::collections::HashMap;
    let mut audit = ChainAudit::default();
    let mut roots: HashMap<(u32, SpanId), &Span> = HashMap::new();
    for s in spans {
        if s.parent == 0 {
            if !matches!(s.phase, SpanPhase::Request { .. }) {
                audit.problems.push(format!(
                    "span {} (req {}) is parentless but not a request root",
                    s.id, s.req
                ));
                continue;
            }
            roots.insert((s.track, s.id), s);
        }
    }
    audit.roots = roots.len();
    let mut children: HashMap<(u32, SpanId), Vec<&Span>> = HashMap::new();
    for s in spans {
        if s.parent != 0 && roots.contains_key(&(s.track, s.parent)) {
            children.entry((s.track, s.parent)).or_default().push(s);
        }
    }
    const CHAIN: [&str; 6] = ["wire", "queue", "batch", "execute", "persist", "ack"];
    for (rid, root) in &roots {
        let mut kids = children.remove(rid).unwrap_or_default();
        kids.sort_by_key(|s| (s.start_us, s.id));
        let mut durable = false;
        let mut stamped = false;
        let mut last_start = 0u64;
        let mut have: Vec<&'static str> = Vec::with_capacity(kids.len());
        for k in &kids {
            if k.end_us < k.start_us {
                audit.problems.push(format!(
                    "req {}: {} span ends before it starts",
                    root.req,
                    k.phase.name()
                ));
            }
            if k.start_us < root.start_us || k.end_us > root.end_us {
                audit.problems.push(format!(
                    "req {}: {} span [{}, {}] escapes root [{}, {}]",
                    root.req,
                    k.phase.name(),
                    k.start_us,
                    k.end_us,
                    root.start_us,
                    root.end_us
                ));
            }
            if k.start_us < last_start {
                audit.problems.push(format!(
                    "req {}: {} span starts before its predecessor",
                    root.req,
                    k.phase.name()
                ));
            }
            last_start = k.start_us;
            have.push(k.phase.name());
            if let SpanPhase::Ack {
                durable: d,
                persist_stamp,
                ..
            } = k.phase
            {
                durable = d;
                stamped = d && persist_stamp > 0;
            }
        }
        if durable {
            audit.durable_acks += 1;
            let complete = CHAIN.iter().all(|p| have.contains(p));
            if complete {
                audit.complete_durable_chains += 1;
                if stamped {
                    audit.stamped_durable_chains += 1;
                }
                // Durable chains must also appear in chain order.
                let idx: Vec<usize> = have
                    .iter()
                    .filter_map(|p| CHAIN.iter().position(|c| c == p))
                    .collect();
                if idx.windows(2).any(|w| w[0] > w[1]) {
                    audit.problems.push(format!(
                        "req {}: durable chain phases out of order: {have:?}",
                        root.req
                    ));
                }
            } else {
                audit.problems.push(format!(
                    "req {}: durable ack with incomplete chain {have:?}",
                    root.req
                ));
            }
        }
    }
    audit
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(log: &mut SpanLog, req: u64, durable: bool, stamp: u64) -> SpanId {
        let root = log.alloc();
        let t0 = req * 100;
        log.record(Span {
            id: root,
            parent: 0,
            req,
            track: 0,
            start_us: t0,
            end_us: t0 + 60,
            phase: SpanPhase::Request { op: 1 },
        });
        let phases = [
            (SpanPhase::Wire { bytes: 17 }, t0, t0 + 1),
            (
                SpanPhase::Queue {
                    depth: 3,
                    shed: false,
                },
                t0 + 1,
                t0 + 10,
            ),
            (SpanPhase::Batch { batch: 0, size: 4 }, t0 + 10, t0 + 20),
            (SpanPhase::Execute { batch: 0 }, t0 + 20, t0 + 40),
            (
                SpanPhase::Persist {
                    batch: 0,
                    final_stamp: 900,
                },
                t0 + 40,
                t0 + 50,
            ),
            (
                SpanPhase::Ack {
                    durable,
                    persist_stamp: stamp,
                    crashed: false,
                },
                t0 + 50,
                t0 + 60,
            ),
        ];
        for (phase, s, e) in phases {
            log.record(Span {
                id: 0,
                parent: root,
                req,
                track: 0,
                start_us: s,
                end_us: e,
                phase,
            });
        }
        root
    }

    #[test]
    fn complete_chains_audit_clean_and_count_stamps() {
        let mut log = SpanLog::new(1024);
        chain(&mut log, 1, true, 840);
        chain(&mut log, 2, false, 0);
        chain(&mut log, 3, true, 0);
        let spans = log.drain();
        let audit = audit_chains(&spans);
        assert!(audit.well_formed(), "{:?}", audit.problems);
        assert_eq!(audit.roots, 3);
        assert_eq!(audit.durable_acks, 2);
        assert_eq!(audit.complete_durable_chains, 2);
        assert_eq!(audit.stamped_durable_chains, 1);
    }

    #[test]
    fn missing_phases_on_a_durable_chain_are_flagged() {
        let mut log = SpanLog::new(1024);
        let root = log.alloc();
        log.record(Span {
            id: root,
            parent: 0,
            req: 7,
            track: 1,
            start_us: 0,
            end_us: 10,
            phase: SpanPhase::Request { op: 1 },
        });
        log.record(Span {
            id: 0,
            parent: root,
            req: 7,
            track: 1,
            start_us: 5,
            end_us: 10,
            phase: SpanPhase::Ack {
                durable: true,
                persist_stamp: 12,
                crashed: false,
            },
        });
        let audit = audit_chains(&log.drain());
        assert_eq!(audit.durable_acks, 1);
        assert_eq!(audit.complete_durable_chains, 0);
        assert!(!audit.well_formed());
        assert!(audit.problems[0].contains("incomplete chain"));
    }

    #[test]
    fn nesting_violations_are_flagged() {
        let mut log = SpanLog::new(16);
        let root = log.alloc();
        log.record(Span {
            id: root,
            parent: 0,
            req: 9,
            track: 0,
            start_us: 100,
            end_us: 200,
            phase: SpanPhase::Request { op: 0 },
        });
        log.record(Span {
            id: 0,
            parent: root,
            req: 9,
            track: 0,
            start_us: 50, // escapes the root window
            end_us: 150,
            phase: SpanPhase::Wire { bytes: 9 },
        });
        let audit = audit_chains(&log.drain());
        assert!(audit.problems.iter().any(|p| p.contains("escapes root")));
    }

    #[test]
    fn colliding_ids_on_different_tracks_stay_distinct_chains() {
        // Per-shard logs allocate ids independently, so merging two
        // shards' spans yields colliding numeric ids on different
        // tracks — those must audit as separate, complete chains.
        let mut log_a = SpanLog::new(64);
        let mut log_b = SpanLog::new(64);
        chain(&mut log_a, 1, true, 500);
        chain(&mut log_b, 2, true, 700);
        let mut merged = log_a.drain();
        let mut other = log_b.drain();
        for s in &mut other {
            s.track = 1;
        }
        assert_eq!(merged[0].id, other[0].id, "ids collide by construction");
        merged.extend(other);
        let audit = audit_chains(&merged);
        assert!(audit.well_formed(), "{:?}", audit.problems);
        assert_eq!(audit.roots, 2);
        assert_eq!(audit.complete_durable_chains, 2);
        assert_eq!(audit.stamped_durable_chains, 2);
        // ...and the Chrome export keys the two groups apart.
        let doc = chrome_trace(&merged);
        let events = Json::parse(&doc.to_compact()).unwrap();
        let ids: std::collections::HashSet<String> = events
            .get("traceEvents")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .filter_map(|e| e.get("id").and_then(Json::as_str).map(String::from))
            .collect();
        assert_eq!(ids.len(), 2, "one async group id per request chain");
    }

    #[test]
    fn chrome_export_is_valid_json_with_paired_async_events() {
        let mut log = SpanLog::new(1024);
        chain(&mut log, 1, true, 840);
        let spans = log.drain();
        let doc = chrome_trace(&spans);
        let parsed = Json::parse(&doc.to_compact()).unwrap();
        let events = parsed.get("traceEvents").unwrap().as_arr().unwrap();
        let begins = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("b"))
            .count();
        let ends = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("e"))
            .count();
        assert_eq!(begins, spans.len());
        assert_eq!(begins, ends);
        // Process metadata names the shard track.
        let meta = events
            .iter()
            .find(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
            .unwrap();
        assert_eq!(
            meta.get("args").unwrap().get("name").unwrap().as_str(),
            Some("shard-0")
        );
        // The ack begin-event carries the persist stamp.
        let ack = events
            .iter()
            .find(|e| {
                e.get("name").and_then(Json::as_str) == Some("ack")
                    && e.get("ph").and_then(Json::as_str) == Some("b")
            })
            .unwrap();
        assert_eq!(
            ack.get("args")
                .unwrap()
                .get("persist_stamp")
                .unwrap()
                .as_u64(),
            Some(840)
        );
    }
}
