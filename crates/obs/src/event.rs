//! Typed trace events and the bounded ring buffer that holds them.
//!
//! Events exist for *export* (Chrome trace / debugging); every derived
//! metric (histograms, time series, audits) is computed online by the
//! recorder, so a full ring dropping its oldest events never skews the
//! numbers — only the exported timeline shortens.

use crate::stats::{FlushClass, StallCause};
use lrp_model::LineAddr;

/// Simulated time in cycles.
pub type Time = u64;

/// The persist-engine FSM state, as observed at the per-core flush
/// sequencer (§5.2's persist engine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineState {
    /// No queued jobs, no pending persists.
    #[default]
    Idle,
    /// Charging the L1 scan cost before issuing a run's first stage.
    Scan,
    /// Issuing a stage's flushes.
    Flush,
    /// Waiting for outstanding persist acks before the next stage.
    Drain,
}

impl EngineState {
    /// Every state, in FSM order.
    pub const ALL: [EngineState; 4] = [
        EngineState::Idle,
        EngineState::Scan,
        EngineState::Flush,
        EngineState::Drain,
    ];

    /// Stable snake_case key for serialized traces.
    pub fn name(self) -> &'static str {
        match self {
            EngineState::Idle => "idle",
            EngineState::Scan => "scan",
            EngineState::Flush => "flush",
            EngineState::Drain => "drain",
        }
    }
}

/// An event emitted by a persistency mechanism (`PersistMech`), with no
/// notion of simulated time or core identity — mechanisms are
/// substrate-independent, so the simulator stamps both when it drains
/// the mechanism's buffer into the recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MechEvent {
    /// The per-thread epoch counter advanced (a release committed).
    EpochAdvance {
        /// The new epoch value.
        epoch: u16,
        /// The counter wrapped at its limit and forced a full drain.
        wrapped: bool,
    },
    /// A released line entered the Release Epoch Table.
    RetInsert {
        /// The released line.
        line: LineAddr,
        /// Its release epoch.
        epoch: u16,
        /// RET occupancy after the insert.
        occupancy: u32,
    },
    /// A RET entry left because its line's flush was issued.
    RetSquash {
        /// The line whose entry was removed.
        line: LineAddr,
        /// RET occupancy after the squash.
        occupancy: u32,
    },
    /// A store to a released line (or RET pressure) triggered a drain of
    /// RET entries.
    RetDrain {
        /// The line whose store triggered the drain.
        line: LineAddr,
        /// The epoch up to which entries drain.
        epoch: u16,
        /// `true` when the table was full and the store stalls
        /// (critical-path drain); `false` for the watermark-triggered
        /// background drain.
        full: bool,
    },
}

/// One recorded event, stamped with cycle time and originating core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Cycle at which the event occurred.
    pub t: Time,
    /// Core (hardware-thread) index; directory/NVM events carry the
    /// core on whose behalf they act.
    pub core: u32,
    /// The [`OpSite`](crate::BlameTable) the originating core was
    /// executing (an index into the run's site-name table; 0 = unknown).
    pub site: u16,
    /// What happened.
    pub kind: EventKind,
}

/// Everything the tracer can record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A mechanism-level event (epoch / RET activity).
    Mech(MechEvent),
    /// The persist-engine FSM moved to a new state.
    Engine {
        /// Previous state.
        from: EngineState,
        /// New state.
        to: EngineState,
    },
    /// A line flush was issued toward the NVM controllers.
    FlushIssue {
        /// The flushed line.
        line: LineAddr,
        /// Why it was issued.
        class: FlushClass,
    },
    /// A previously issued flush was acknowledged persistent.
    FlushAck {
        /// The flushed line.
        line: LineAddr,
        /// Cycles from issue to ack.
        latency: Time,
    },
    /// Coherence detected a release→acquire synchronisation: another
    /// core's access downgraded a released line.
    SyncDetected {
        /// The released line being downgraded.
        line: LineAddr,
        /// The requesting (acquiring) core.
        acquirer: u32,
    },
    /// A core began stalling.
    StallBegin {
        /// Why.
        cause: StallCause,
    },
    /// A core resumed execution.
    StallEnd {
        /// Why it had stalled.
        cause: StallCause,
        /// Stall duration in cycles.
        cycles: Time,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_states_have_stable_names() {
        let names: Vec<&str> = EngineState::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names, vec!["idle", "scan", "flush", "drain"]);
    }
}
