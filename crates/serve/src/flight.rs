//! Crash flight recorder: a bounded per-shard ring of the most recent
//! request / batch / persist events, dumped to JSONL when the shard
//! crash-restarts.
//!
//! A `Crashed` reply tells the client only that its op was in flight;
//! the flight dump tells the operator *which* ops were in flight, what
//! the shard was doing in the batches leading up to the crash, and what
//! the crash outcome was — enough to explain every `Crashed` reply
//! post-hoc without re-running the workload. The ring is worker-local
//! (no locks on the hot path) and is the same drop-oldest
//! [`lrp_obs::Ring`] with counted drops as the obs event ring and span
//! log.

use lrp_obs::{Json, Ring};
use std::io::Write;
use std::path::Path;

/// One recorded flight event. Times are milliseconds since server
/// start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlightEvent {
    /// A batch closed and began executing.
    BatchStart {
        /// Milliseconds since server start.
        t_ms: u64,
        /// Shard batch number.
        batch: u64,
        /// Requests in the batch.
        size: u32,
    },
    /// One request's outcome within a batch.
    Request {
        /// Milliseconds since server start.
        t_ms: u64,
        /// Shard batch number.
        batch: u64,
        /// Wire request id.
        id: u64,
        /// Op kind (0 get, 1 put, 2 del).
        kind: u8,
        /// Key operated on.
        key: u64,
        /// The reply carried `durable: true`.
        durable: bool,
        /// Simulated persist stamp justifying a durable ack (0 when
        /// non-durable).
        stamp: u64,
    },
    /// A batch finished persist stamping and commit.
    Persist {
        /// Milliseconds since server start.
        t_ms: u64,
        /// Shard batch number.
        batch: u64,
        /// Final persist stamp of the batch (0 = nothing persisted).
        final_stamp: u64,
        /// Durably-acked ops in the batch.
        durable: u32,
        /// Retryable (non-durable) ops in the batch.
        nondurable: u32,
    },
    /// The shard crash-restarted.
    Crash {
        /// Milliseconds since server start.
        t_ms: u64,
        /// Batch number the crash interrupted.
        batch: u64,
        /// Sampled crash stamp (persist-schedule cut), if any persist
        /// had happened.
        crash_stamp: u64,
        /// Null recovery succeeded (recovered state consistent with
        /// the persist schedule).
        recovered: bool,
        /// Durably-acked ops lost by the crash (must stay 0).
        lost: u32,
        /// The in-flight ops that received `Crashed` replies:
        /// `(id, kind, key)`.
        inflight: Vec<(u64, u8, u64)>,
    },
}

impl FlightEvent {
    fn to_json(&self) -> Json {
        match self {
            FlightEvent::BatchStart { t_ms, batch, size } => Json::obj([
                ("event", Json::Str("batch-start".into())),
                ("t_ms", Json::U64(*t_ms)),
                ("batch", Json::U64(*batch)),
                ("size", Json::U64(*size as u64)),
            ]),
            FlightEvent::Request {
                t_ms,
                batch,
                id,
                kind,
                key,
                durable,
                stamp,
            } => Json::obj([
                ("event", Json::Str("request".into())),
                ("t_ms", Json::U64(*t_ms)),
                ("batch", Json::U64(*batch)),
                ("id", Json::U64(*id)),
                ("kind", Json::U64(*kind as u64)),
                ("key", Json::U64(*key)),
                ("durable", Json::Bool(*durable)),
                ("stamp", Json::U64(*stamp)),
            ]),
            FlightEvent::Persist {
                t_ms,
                batch,
                final_stamp,
                durable,
                nondurable,
            } => Json::obj([
                ("event", Json::Str("persist".into())),
                ("t_ms", Json::U64(*t_ms)),
                ("batch", Json::U64(*batch)),
                ("final_stamp", Json::U64(*final_stamp)),
                ("durable", Json::U64(*durable as u64)),
                ("nondurable", Json::U64(*nondurable as u64)),
            ]),
            FlightEvent::Crash {
                t_ms,
                batch,
                crash_stamp,
                recovered,
                lost,
                inflight,
            } => Json::obj([
                ("event", Json::Str("crash".into())),
                ("t_ms", Json::U64(*t_ms)),
                ("batch", Json::U64(*batch)),
                ("crash_stamp", Json::U64(*crash_stamp)),
                ("recovered", Json::Bool(*recovered)),
                ("lost", Json::U64(*lost as u64)),
                (
                    "inflight",
                    Json::Arr(
                        inflight
                            .iter()
                            .map(|(id, kind, key)| {
                                Json::obj([
                                    ("id", Json::U64(*id)),
                                    ("kind", Json::U64(*kind as u64)),
                                    ("key", Json::U64(*key)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        }
    }
}

/// Bounded drop-oldest ring of [`FlightEvent`]s, worker-local: a
/// [`Ring`] (reached through `Deref`) plus its JSONL dump.
#[derive(Debug)]
pub struct FlightRecorder(Ring<FlightEvent>);

impl std::ops::Deref for FlightRecorder {
    type Target = Ring<FlightEvent>;
    fn deref(&self) -> &Ring<FlightEvent> {
        &self.0
    }
}

impl std::ops::DerefMut for FlightRecorder {
    fn deref_mut(&mut self) -> &mut Ring<FlightEvent> {
        &mut self.0
    }
}

impl FlightRecorder {
    /// A recorder retaining at most `cap` events (`0` disables
    /// retention but still counts).
    pub fn new(cap: usize) -> FlightRecorder {
        FlightRecorder(Ring::new(cap))
    }

    /// Renders the ring as JSONL: a `flight-dump` header line, then one
    /// line per retained event, oldest first.
    pub fn to_jsonl(&self, shard: usize, crash_no: u64) -> String {
        let mut out = String::new();
        let header = Json::obj([
            ("record", Json::Str("flight-dump".into())),
            ("shard", Json::U64(shard as u64)),
            ("crash", Json::U64(crash_no)),
            ("events", Json::U64(self.len() as u64)),
            ("dropped", Json::U64(self.dropped())),
        ]);
        out.push_str(&header.to_compact());
        out.push('\n');
        for ev in self.iter() {
            out.push_str(&ev.to_json().to_compact());
            out.push('\n');
        }
        out
    }

    /// Appends the JSONL dump to `<dir>/flight-shard-<shard>.jsonl`
    /// (one dump per crash; successive crashes append). Returns the
    /// path written.
    pub fn dump(
        &self,
        dir: &Path,
        shard: usize,
        crash_no: u64,
    ) -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("flight-shard-{shard}.jsonl"));
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        f.write_all(self.to_jsonl(shard, crash_no).as_bytes())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_event_names_inflight_ops() {
        let mut r = FlightRecorder::new(8);
        r.push(FlightEvent::Crash {
            t_ms: 42,
            batch: 7,
            crash_stamp: 900,
            recovered: true,
            lost: 0,
            inflight: vec![(11, 1, 3), (12, 0, 5)],
        });
        let dump = r.to_jsonl(1, 1);
        let line = dump.lines().nth(1).unwrap();
        let ev = Json::parse(line).unwrap();
        assert_eq!(ev.get("event").unwrap().as_str(), Some("crash"));
        let inflight = ev.get("inflight").unwrap().as_arr().unwrap();
        assert_eq!(inflight.len(), 2);
        assert_eq!(inflight[0].get("id").unwrap().as_u64(), Some(11));
        assert_eq!(inflight[1].get("key").unwrap().as_u64(), Some(5));
    }

    #[test]
    fn dump_appends_per_crash() {
        let dir = std::env::temp_dir().join(format!("lrp-flight-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut r = FlightRecorder::new(4);
        r.push(FlightEvent::Persist {
            t_ms: 1,
            batch: 0,
            final_stamp: 10,
            durable: 2,
            nondurable: 1,
        });
        let p1 = r.dump(&dir, 0, 1).unwrap();
        let p2 = r.dump(&dir, 0, 2).unwrap();
        assert_eq!(p1, p2);
        let text = std::fs::read_to_string(&p1).unwrap();
        let headers = text.lines().filter(|l| l.contains("flight-dump")).count();
        assert_eq!(headers, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
