//! `lrp-obs`: observability for the LRP pipeline.
//!
//! The simulator's aggregate [`stats::Stats`] answer *how much*; this
//! crate answers *when* and *in what order* — the questions that matter
//! when diagnosing persist-ordering behaviour (which write-backs sit on
//! the critical path, how long a release waits between the
//! acquire-triggered scan and its persist ack, how full the 32-entry RET
//! runs). Everything is hand-rolled: the workspace builds fully offline
//! with zero external dependencies.
//!
//! The layers below are all reached through one [`recorder::Recorder`]
//! that the timing substrate threads through as an `Option` (disabled
//! recording costs one branch per event site). What a recorded replay
//! yields for merging — latency histograms, blame, critical path and
//! I1–I4 audit — is one [`summary::ObsSummary`], with one `merge` that
//! campaign cells, rollups, serving shards and the profiler all use:
//!
//! * **Event tracing** ([`event`]) — a bounded drop-oldest
//!   [`ring::Ring`] (the one ring every obs buffer uses) of typed
//!   events: epoch advances, RET insert/squash/drain, persist-engine
//!   FSM transitions, flush issue/ack with [`stats::FlushClass`],
//!   coherence-detected release→acquire synchronisation, and stall
//!   begin/end with [`stats::StallCause`].
//! * **Time-series metrics** ([`series`], [`hist`]) — per-interval
//!   counter deltas sampled every N cycles (ops, flushes by class,
//!   stalls by cause, NoC messages, RET occupancy high-water), plus
//!   log2-bucket latency histograms (flush-to-ack, release-to-persist,
//!   RET residency) that are computed online and therefore immune to
//!   ring-buffer drops. Release-to-persist is the critical-path
//!   engine's `path` histogram: that engine is the only release clock.
//! * **Invariant audit** ([`audit`]) — counters that *observe* (never
//!   enforce) invariants I1–I4 of §5.1 at the points where the machine
//!   is supposed to uphold them, giving a cheap always-on sanity signal.
//! * **Critical path** ([`critpath`]) — per-release causal chains from
//!   store commit to persist, split into typed segments that must sum
//!   to the chain's latency (C1) and stay inside the run (C2).
//! * **Blame attribution** ([`blame`]) — streaming `(site, cause)` blame
//!   tables charging stall cycles and persist latency to `OpSite` labels
//!   (`structure/operation[/phase]`), with a space-saving top-K sketch
//!   of per-cache-line heavy hitters. Computed online like the
//!   histograms, so ring-buffer drops never skew attribution.
//! * **Request spans** ([`span`]) — a zero-dep span tracer for the
//!   serving layer: span id + parent id + typed phase
//!   (wire→queue→batch→execute→persist→ack), collected in a bounded
//!   drop-oldest [`span::SpanLog`], exported as Chrome async events
//!   nesting under per-shard tracks, and audited for well-formedness by
//!   [`span::audit_chains`].
//! * **Exporters** ([`chrome`], [`metrics`]) — Chrome trace-event JSON
//!   (loadable in Perfetto / `about://tracing`) and a JSONL metrics
//!   stream sharing the campaign aggregator's `Stats` serialization.
//!
//! [`stats`] (the aggregate counters) and [`json`] (the deterministic
//! JSON model) live here so that every layer — mechanism crates, the
//! simulator, the campaign runner — can speak the same vocabulary
//! without circular dependencies; `lrp-sim` and `lrp-campaign` re-export
//! them under their historical paths.

pub mod audit;
pub mod blame;
pub mod chrome;
pub mod critpath;
pub mod event;
pub mod hist;
pub mod json;
pub mod metrics;
pub mod recorder;
pub mod ring;
pub mod series;
pub mod span;
pub mod stats;
pub mod summary;

pub use audit::{AuditCounter, InvariantAudit};
pub use blame::{BlameCause, BlameCell, BlameDelta, BlameTable, LineKey, SpaceSaving};
pub use critpath::{CritAudit, CritPath, CritSegKind, CritSummary};
pub use event::{EngineState, EventKind, MechEvent, TraceEvent};
pub use hist::Hist;
pub use json::Json;
pub use recorder::{ObsReport, Recorder, RecorderConfig};
pub use ring::Ring;
pub use series::{GaugeSample, GaugeSeries, IntervalSample, GAUGE_COUNTERS};
pub use span::{audit_chains, chrome_trace, ChainAudit, Span, SpanId, SpanLog, SpanPhase};
pub use stats::{FlushClass, StallCause, Stats};
pub use summary::ObsSummary;
