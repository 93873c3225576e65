//! Chrome trace-event exporter.
//!
//! Produces the JSON object format (`{"traceEvents": [...]}`) that
//! Perfetto and `about://tracing` load directly. Layout:
//!
//! * **pid 1 "cores"** — one track per core: stalls as complete spans,
//!   flush issues / epoch advances / sync detections as instants;
//! * **pid 2 "persist-engine"** — one track per core: FSM states as
//!   complete spans (Idle elided), RET activity as instants, plus a RET
//!   occupancy counter per core;
//! * **pid 3 "nvm"** — one track per core: each flush's issue→ack
//!   in-flight window as a complete span.
//!
//! Timestamps are simulated cycles written into the `ts`/`dur`
//! microsecond fields (the unit label is cosmetic; relative scale is
//! what matters for inspection). Events are sorted per track so `ts` is
//! monotonically non-decreasing within every `(pid, tid)`.

use crate::event::{EngineState, EventKind, MechEvent};
use crate::json::Json;
use crate::recorder::ObsReport;

const PID_CORES: u64 = 1;
const PID_ENGINE: u64 = 2;
const PID_NVM: u64 = 3;

fn event(
    name: &str,
    ph: &str,
    pid: u64,
    tid: u64,
    ts: u64,
    extra: Vec<(&'static str, Json)>,
) -> (u64, u64, u64, Json) {
    let mut pairs = vec![
        ("name", Json::Str(name.to_string())),
        ("ph", Json::Str(ph.to_string())),
        ("pid", Json::U64(pid)),
        ("tid", Json::U64(tid)),
        ("ts", Json::U64(ts)),
    ];
    pairs.extend(extra);
    (pid, tid, ts, Json::obj(pairs))
}

fn instant(name: &str, pid: u64, tid: u64, ts: u64, args: Json) -> (u64, u64, u64, Json) {
    event(
        name,
        "i",
        pid,
        tid,
        ts,
        vec![("s", Json::Str("t".to_string())), ("args", args)],
    )
}

fn span(name: &str, pid: u64, tid: u64, ts: u64, dur: u64, args: Json) -> (u64, u64, u64, Json) {
    event(
        name,
        "X",
        pid,
        tid,
        ts,
        vec![("dur", Json::U64(dur)), ("args", args)],
    )
}

fn counter(name: String, pid: u64, tid: u64, ts: u64, value: u64) -> (u64, u64, u64, Json) {
    let args = Json::obj([("entries", Json::U64(value))]);
    event(&name, "C", pid, tid, ts, vec![("args", args)])
}

fn line_args(line: u64) -> Json {
    Json::obj([("line", Json::Str(format!("{line:#x}")))])
}

pub(crate) fn process_meta(pid: u64, name: &str) -> Json {
    Json::obj([
        ("name", Json::Str("process_name".to_string())),
        ("ph", Json::Str("M".to_string())),
        ("pid", Json::U64(pid)),
        ("tid", Json::U64(0)),
        ("args", Json::obj([("name", Json::Str(name.to_string()))])),
    ])
}

/// Renders the report as a Chrome trace-event JSON document.
pub fn export(report: &ObsReport) -> String {
    let mut items: Vec<(u64, u64, u64, Json)> = Vec::new();
    // Open engine-FSM span per core: (since, state).
    let mut engine_open: Vec<Option<(u64, EngineState)>> =
        vec![None; report.ncores.max(1) as usize + 1];
    let mut last_t = 0;

    for ev in &report.events {
        let (t, core) = (ev.t, ev.core as u64);
        last_t = last_t.max(t);
        match ev.kind {
            EventKind::StallBegin { .. } => {} // covered by the StallEnd span
            EventKind::StallEnd { cause, cycles } => {
                items.push(span(
                    &format!("stall:{}", cause.name()),
                    PID_CORES,
                    core,
                    t.saturating_sub(cycles),
                    cycles,
                    Json::obj([]),
                ));
            }
            EventKind::FlushIssue { line, class } => {
                items.push(instant(
                    &format!("flush:{}", class.name()),
                    PID_CORES,
                    core,
                    t,
                    line_args(line),
                ));
            }
            EventKind::FlushAck { line, latency } => {
                items.push(span(
                    "persist",
                    PID_NVM,
                    core,
                    t.saturating_sub(latency),
                    latency,
                    line_args(line),
                ));
            }
            EventKind::SyncDetected { line, acquirer } => {
                items.push(instant(
                    "sync",
                    PID_CORES,
                    core,
                    t,
                    Json::obj([
                        ("line", Json::Str(format!("{line:#x}"))),
                        ("acquirer", Json::U64(acquirer as u64)),
                    ]),
                ));
            }
            EventKind::Engine { to, .. } => {
                if let Some(slot) = engine_open.get_mut(ev.core as usize) {
                    if let Some((since, state)) = slot.take() {
                        if state != EngineState::Idle {
                            items.push(span(
                                state.name(),
                                PID_ENGINE,
                                core,
                                since,
                                t.saturating_sub(since),
                                Json::obj([]),
                            ));
                        }
                    }
                    *slot = Some((t, to));
                }
            }
            EventKind::Mech(m) => match m {
                MechEvent::EpochAdvance { epoch, wrapped } => {
                    items.push(instant(
                        "epoch",
                        PID_CORES,
                        core,
                        t,
                        Json::obj([
                            ("epoch", Json::U64(epoch as u64)),
                            ("wrapped", Json::Bool(wrapped)),
                        ]),
                    ));
                }
                MechEvent::RetInsert {
                    line, occupancy, ..
                } => {
                    items.push(instant("ret-insert", PID_ENGINE, core, t, line_args(line)));
                    items.push(counter(
                        format!("ret-occupancy-c{core}"),
                        PID_ENGINE,
                        core,
                        t,
                        occupancy as u64,
                    ));
                }
                MechEvent::RetSquash { line, occupancy } => {
                    items.push(instant("ret-squash", PID_ENGINE, core, t, line_args(line)));
                    items.push(counter(
                        format!("ret-occupancy-c{core}"),
                        PID_ENGINE,
                        core,
                        t,
                        occupancy as u64,
                    ));
                }
                MechEvent::RetDrain { line, full, .. } => {
                    items.push(instant(
                        if full { "ret-full-drain" } else { "ret-drain" },
                        PID_ENGINE,
                        core,
                        t,
                        line_args(line),
                    ));
                }
            },
        }
    }
    // Close any engine span still open at the end of the trace.
    for (core, slot) in engine_open.into_iter().enumerate() {
        if let Some((since, state)) = slot {
            if state != EngineState::Idle {
                items.push(span(
                    state.name(),
                    PID_ENGINE,
                    core as u64,
                    since,
                    last_t.saturating_sub(since),
                    Json::obj([]),
                ));
            }
        }
    }

    // Perfetto tolerates out-of-order events, but a monotone `ts` per
    // track is part of this exporter's contract (and easier to diff).
    items.sort_by_key(|&(pid, tid, ts, _)| (pid, tid, ts));

    let mut events: Vec<Json> = vec![
        process_meta(PID_CORES, "cores"),
        process_meta(PID_ENGINE, "persist-engine"),
        process_meta(PID_NVM, "nvm"),
    ];
    events.extend(items.into_iter().map(|(_, _, _, j)| j));
    Json::obj([("traceEvents", Json::Arr(events))]).to_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{Recorder, RecorderConfig};
    use crate::stats::{FlushClass, StallCause, Stats};

    fn sample_report() -> ObsReport {
        let cfg = RecorderConfig::default();
        let mut r = Recorder::new(cfg, 2, Vec::new(), crate::CritSegKind::ReleaseOrder);
        r.stall_begin(10, 0, StallCause::LoadMiss);
        r.stall_end(40, 0, StallCause::LoadMiss, 30, None, false);
        r.flush_issue(50, 1, 0x40, FlushClass::Critical, 0, &[]);
        r.engine_state(50, 1, EngineState::Scan);
        r.engine_state(66, 1, EngineState::Flush);
        r.engine_state(70, 1, EngineState::Drain);
        r.flush_ack(170, 1, 0x40);
        r.engine_state(170, 1, EngineState::Idle);
        r.sync_detected(200, 1, 0x40, 0);
        r.mech_events(
            210,
            1,
            &[
                MechEvent::EpochAdvance {
                    epoch: 2,
                    wrapped: false,
                },
                MechEvent::RetInsert {
                    line: 0x40,
                    epoch: 2,
                    occupancy: 1,
                },
            ],
        );
        r.finish(300, &Stats::default())
    }

    #[test]
    fn export_is_valid_json_with_expected_tracks() {
        let text = export(&sample_report());
        let doc = Json::parse(&text).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert!(events.len() >= 10);
        let names: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("name").and_then(Json::as_str))
            .collect();
        assert!(names.contains(&"stall:load_miss"));
        assert!(names.contains(&"flush:critical"));
        assert!(names.contains(&"persist"));
        assert!(names.contains(&"scan"));
        assert!(names.contains(&"sync"));
        assert!(names.contains(&"ret-insert"));
    }

    #[test]
    fn ts_is_monotone_per_track() {
        let doc = Json::parse(&export(&sample_report())).unwrap();
        let mut last: std::collections::HashMap<(u64, u64), u64> = Default::default();
        for e in doc.get("traceEvents").unwrap().as_arr().unwrap() {
            if e.get("ph").and_then(Json::as_str) == Some("M") {
                continue;
            }
            let key = (
                e.get("pid").unwrap().as_u64().unwrap(),
                e.get("tid").unwrap().as_u64().unwrap(),
            );
            let ts = e.get("ts").unwrap().as_u64().unwrap();
            if let Some(&prev) = last.get(&key) {
                assert!(ts >= prev, "track {key:?} went backwards");
            }
            last.insert(key, ts);
        }
    }
}
