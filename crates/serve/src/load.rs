//! Load generator and blocking client.
//!
//! [`run_load`] drives a running server with pipelined connections:
//! each connection keeps up to `window` requests in flight, draws keys
//! from a [`KeyDist`] (uniform or zipfian), and mixes gets/puts/deletes
//! per `read_pct`. It runs closed-loop by default or open-loop at a
//! target rate, and records client-observed latency in a log₂-bucket
//! histogram.
//!
//! **Durable-ack verification.** The client keeps, per key, the latest
//! durably-acked mutation `(batch, seq, expected presence)` and the
//! latest *uncertain* event (a non-durable ack, or an op that was in
//! flight when its shard crashed — those carry the batch but an unknown
//! sequence, so they conservatively win ties). After the load phase it
//! reads back every key whose history ends in a durable ack and counts
//! mismatches: any violation means a durably-acked write was lost,
//! which is exactly what the paper's recovery claim forbids.
//!
//! Mid-run it can also inject a shard crash (after a target number of
//! durable acks, at the latest with connection 0's last request) and
//! capture the server's restart verdict.
//!
//! **Exactly-once resolution.** Mutations whose outcome is uncertain (a
//! non-durable ack, or a `Crashed` reply) are not blindly retried:
//! the client sends a `Resolve` for the original request id first. A
//! `done` verdict means the op's checkpoint stamp — and therefore, under
//! a release-ordering discipline, its effect — is durable, so the retry
//! is skipped (`duplicates_avoided`); a not-started verdict makes the
//! retry safe. Request ids double as detectable-operation rids, so each
//! connection brands its ids with `(conn + 1) << 48` to claim its own
//! slot ring on every shard.

use crate::codec::{
    decode_response, encode_request, read_frame, response_id, write_frame, Request, Response,
};
use crate::server::{Bind, Conn};
use lrp_exec::Xorshift64;
use lrp_lfds::KeyDist;
use lrp_obs::{Hist, Json};
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A client connection (TCP or Unix-domain).
pub struct Client {
    stream: Conn,
}

impl Client {
    /// Dials the server. TCP sockets get `TCP_NODELAY`: every frame is
    /// one write of a complete request, so Nagle's algorithm could only
    /// hold it back for the peer's delayed ACK.
    pub fn dial(bind: &Bind) -> io::Result<Client> {
        Ok(Client {
            stream: Conn::dial(bind)?,
        })
    }

    /// Sends one request frame.
    pub fn send(&mut self, req: &Request) -> io::Result<()> {
        write_frame(&mut self.stream, &encode_request(req))
    }

    /// Reads the next response frame (replies may arrive out of request
    /// order across shards).
    pub fn recv(&mut self) -> io::Result<Response> {
        let payload = read_frame(&mut self.stream)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"))?;
        decode_response(&payload).map_err(io::Error::from)
    }

    /// Round-trips one request (only sound with nothing else in flight).
    pub fn call(&mut self, req: &Request) -> io::Result<Response> {
        self.send(req)?;
        self.recv()
    }
}

/// Load-generation parameters.
#[derive(Debug, Clone)]
pub struct LoadSpec {
    /// Server address.
    pub target: Bind,
    /// Concurrent connections.
    pub conns: usize,
    /// Total requests across all connections.
    pub requests: u64,
    /// Pipeline depth per connection.
    pub window: usize,
    /// Key distribution over `[1, key_range]`.
    pub key_dist: KeyDist,
    /// Keys are drawn from `[1, key_range]`.
    pub key_range: u64,
    /// Percentage of `Get`s; the rest split evenly between put/delete.
    pub read_pct: u8,
    /// Open-loop target rate in requests/second (0 = closed loop).
    pub target_qps: u64,
    /// Master seed for key draws and op mix.
    pub seed: u64,
    /// Retries per request after an `Overloaded` reply, each honoring
    /// the server's retry-after hint before resending (0 = give up
    /// immediately, the pre-backoff behaviour).
    pub shed_retries: u32,
    /// Inject a `Crash` once this many durable acks have arrived, or
    /// with connection 0's last request if they never do.
    pub crash_at: Option<u64>,
    /// Which shard the injected crash kills.
    pub crash_shard: u32,
    /// Run the durable-ack read-back verification phase.
    pub verify: bool,
    /// Send `Shutdown` when done.
    pub shutdown: bool,
}

impl LoadSpec {
    /// Defaults: 4 connections, 2000 requests, window 16, uniform keys
    /// over `[1, 256]`, 20% reads, closed loop, verify on.
    pub fn new(target: Bind) -> LoadSpec {
        LoadSpec {
            target,
            conns: 4,
            requests: 2000,
            window: 16,
            key_dist: KeyDist::Uniform,
            key_range: 256,
            read_pct: 20,
            target_qps: 0,
            seed: 1,
            shed_retries: 1,
            crash_at: None,
            crash_shard: 0,
            verify: true,
            shutdown: false,
        }
    }
}

/// Per-key verification record (see module docs).
#[derive(Debug, Clone, Copy, Default)]
struct KeyRecord {
    /// Latest durable mutation: (batch, seq, expected-present).
    durable: Option<(u64, u64, bool)>,
    /// Latest uncertain event: (batch, seq-or-MAX).
    uncertain: Option<(u64, u64)>,
}

/// Aggregated load-run results.
#[derive(Debug, Clone, Default)]
pub struct LoadSummary {
    /// Requests sent (admitted or not).
    pub sent: u64,
    /// Replies received.
    pub completed: u64,
    /// `Get` / `Put` / `Del` requests sent.
    pub gets: u64,
    /// Puts sent.
    pub puts: u64,
    /// Deletes sent.
    pub dels: u64,
    /// Replies with `durable: true`.
    pub acked_durable: u64,
    /// Replies with `durable: false` (retryable).
    pub nondurable: u64,
    /// `Overloaded` replies (admission control shed).
    pub shed: u64,
    /// Requests re-sent after an `Overloaded` reply (each waited out
    /// the server's retry-after hint first).
    pub retried: u64,
    /// Retry-after hints honored (a backoff actually slept).
    pub backoffs: u64,
    /// Cumulative retry-after hint milliseconds honored.
    pub backoff_ms: u64,
    /// `Crashed` replies (in flight during a shard crash).
    pub crashed: u64,
    /// `Resolve` verdicts that found a durable stamp: the op completed,
    /// no retry needed.
    pub resolved_done: u64,
    /// `Resolve` verdicts with no durable stamp: retry is safe.
    pub resolved_not_started: u64,
    /// Retries skipped because resolution proved the op already durably
    /// executed — each one a duplicate effect a blind-retry client
    /// would have risked.
    pub duplicates_avoided: u64,
    /// `Error` replies or transport failures.
    pub errors: u64,
    /// Wall-clock of the load phase, milliseconds.
    pub elapsed_ms: u64,
    /// Completed replies per second.
    pub throughput_rps: f64,
    /// Client-observed latency (microseconds).
    pub lat_mean_us: f64,
    /// Median latency (µs).
    pub lat_p50_us: u64,
    /// Tail latency (µs).
    pub lat_p99_us: u64,
    /// Median latency of durably-acked replies only (µs).
    pub dur_lat_p50_us: u64,
    /// Tail latency of durably-acked replies only (µs).
    pub dur_lat_p99_us: u64,
    /// Round-trip time of the injected crash admin request — the
    /// client-observed crash-restart recovery time (ms).
    pub crash_recovery_ms: Option<u64>,
    /// Keys read back in the verification phase.
    pub verify_checked: u64,
    /// Keys skipped because their history ends in an uncertain event.
    pub verify_skipped: u64,
    /// Keys whose read-back contradicted a durable ack — must be 0.
    pub verify_violations: u64,
    /// First few violating keys, for the report.
    pub violating_keys: Vec<u64>,
    /// The server's crash-restart verdict (JSON), when a crash was
    /// injected.
    pub crash_report: Option<String>,
    /// `lost_acked` parsed from the crash report.
    pub crash_lost_acked: Option<u64>,
    /// `consistent` parsed from the crash report.
    pub crash_consistent: Option<bool>,
}

impl LoadSummary {
    /// True when no durability property was violated: verification found
    /// no contradiction and the injected crash (if any) reported a
    /// consistent restart with zero lost acked keys.
    pub fn durability_ok(&self) -> bool {
        self.verify_violations == 0
            && self.crash_lost_acked.unwrap_or(0) == 0
            && self.crash_consistent.unwrap_or(true)
    }

    /// BENCH-style JSON summary.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("record", Json::Str("load-summary".into())),
            ("sent", Json::U64(self.sent)),
            ("completed", Json::U64(self.completed)),
            ("gets", Json::U64(self.gets)),
            ("puts", Json::U64(self.puts)),
            ("dels", Json::U64(self.dels)),
            ("acked_durable", Json::U64(self.acked_durable)),
            ("nondurable", Json::U64(self.nondurable)),
            ("shed", Json::U64(self.shed)),
            ("retried", Json::U64(self.retried)),
            ("backoffs", Json::U64(self.backoffs)),
            ("backoff_ms", Json::U64(self.backoff_ms)),
            ("crashed", Json::U64(self.crashed)),
            ("resolved_done", Json::U64(self.resolved_done)),
            ("resolved_not_started", Json::U64(self.resolved_not_started)),
            ("duplicates_avoided", Json::U64(self.duplicates_avoided)),
            ("errors", Json::U64(self.errors)),
            ("elapsed_ms", Json::U64(self.elapsed_ms)),
            ("throughput_rps", Json::F64(self.throughput_rps)),
            ("lat_mean_us", Json::F64(self.lat_mean_us)),
            ("lat_p50_us", Json::U64(self.lat_p50_us)),
            ("lat_p99_us", Json::U64(self.lat_p99_us)),
            ("dur_lat_p50_us", Json::U64(self.dur_lat_p50_us)),
            ("dur_lat_p99_us", Json::U64(self.dur_lat_p99_us)),
            (
                "crash_recovery_ms",
                match self.crash_recovery_ms {
                    Some(ms) => Json::U64(ms),
                    None => Json::Null,
                },
            ),
            (
                "shed_rate",
                Json::F64(if self.sent == 0 {
                    0.0
                } else {
                    self.shed as f64 / self.sent as f64
                }),
            ),
            (
                "verify",
                Json::obj([
                    ("checked", Json::U64(self.verify_checked)),
                    ("skipped_uncertain", Json::U64(self.verify_skipped)),
                    ("violations", Json::U64(self.verify_violations)),
                    (
                        "violating_keys",
                        Json::Arr(self.violating_keys.iter().map(|&k| Json::U64(k)).collect()),
                    ),
                ]),
            ),
            (
                "crash",
                match &self.crash_report {
                    Some(json) => Json::parse(json).unwrap_or(Json::Str(json.clone())),
                    None => Json::Null,
                },
            ),
            ("durability_ok", Json::Bool(self.durability_ok())),
        ])
    }
}

/// Shared across connection workers.
struct LoadShared {
    spec: LoadSpec,
    table: Mutex<HashMap<u64, KeyRecord>>,
    durable_acks: AtomicU64,
    crash_sent: AtomicBool,
    crash_report: Mutex<Option<String>>,
    /// Crash admin round-trip, ms (0 = no crash injected/answered).
    crash_recovery_ms: AtomicU64,
    next_id: AtomicU64,
}

struct ConnTally {
    summary: LoadSummary,
    hist: Hist,
    dur_hist: Hist,
}

/// One-shot admin probe: dials, sends a single `Metrics` or `Ping`
/// request, and returns the reply document (compact JSON). The
/// scrape path `lrp-load --probe` and CI use against a live server.
pub fn probe(target: &Bind, what: &str) -> io::Result<String> {
    let mut c = Client::dial(target)?;
    let req = match what {
        "metrics" => Request::Metrics { id: 1 },
        "ping" => Request::Ping { id: 1 },
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("unknown probe {other:?} (want metrics|ping)"),
            ))
        }
    };
    match c.call(&req)? {
        Response::Report { json, .. } => Ok(json),
        Response::Pong { .. } => Ok(r#"{"record":"pong"}"#.into()),
        other => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unexpected probe reply {other:?}"),
        )),
    }
}

/// Runs the load phase, the optional crash injection, the optional
/// verification phase, and the optional shutdown.
pub fn run_load(spec: &LoadSpec) -> io::Result<LoadSummary> {
    assert!(spec.conns >= 1, "need at least one connection");
    assert!(spec.window >= 1, "window must be at least 1");
    // Fail fast if the server is unreachable before spawning workers.
    drop(Client::dial(&spec.target)?);

    let shared = Arc::new(LoadShared {
        spec: spec.clone(),
        table: Mutex::new(HashMap::new()),
        durable_acks: AtomicU64::new(0),
        crash_sent: AtomicBool::new(false),
        crash_report: Mutex::new(None),
        crash_recovery_ms: AtomicU64::new(0),
        next_id: AtomicU64::new(1),
    });

    let started = Instant::now();
    let quota = |i: usize| {
        spec.requests / spec.conns as u64
            + if (i as u64) < spec.requests % spec.conns as u64 {
                1
            } else {
                0
            }
    };
    let handles: Vec<std::thread::JoinHandle<ConnTally>> = (0..spec.conns)
        .map(|i| {
            let shared = shared.clone();
            let n = quota(i);
            std::thread::Builder::new()
                .name(format!("load-{i}"))
                .spawn(move || conn_worker(i, n, &shared))
                .expect("spawn load worker")
        })
        .collect();

    let mut total = LoadSummary::default();
    let mut hist = Hist::new();
    let mut dur_hist = Hist::new();
    for h in handles {
        let t = h.join().expect("load worker panicked");
        total.sent += t.summary.sent;
        total.completed += t.summary.completed;
        total.gets += t.summary.gets;
        total.puts += t.summary.puts;
        total.dels += t.summary.dels;
        total.acked_durable += t.summary.acked_durable;
        total.nondurable += t.summary.nondurable;
        total.shed += t.summary.shed;
        total.retried += t.summary.retried;
        total.backoffs += t.summary.backoffs;
        total.backoff_ms += t.summary.backoff_ms;
        total.crashed += t.summary.crashed;
        total.resolved_done += t.summary.resolved_done;
        total.resolved_not_started += t.summary.resolved_not_started;
        total.duplicates_avoided += t.summary.duplicates_avoided;
        total.errors += t.summary.errors;
        hist.merge(&t.hist);
        dur_hist.merge(&t.dur_hist);
    }
    total.elapsed_ms = (started.elapsed().as_millis() as u64).max(1);
    total.throughput_rps = total.completed as f64 * 1000.0 / total.elapsed_ms as f64;
    if !hist.is_empty() {
        total.lat_mean_us = hist.mean();
        total.lat_p50_us = hist.percentile(0.5);
        total.lat_p99_us = hist.percentile(0.99);
    }
    if !dur_hist.is_empty() {
        total.dur_lat_p50_us = dur_hist.percentile(0.5);
        total.dur_lat_p99_us = dur_hist.percentile(0.99);
    }
    let recovery = shared.crash_recovery_ms.load(Ordering::Relaxed);
    if recovery > 0 {
        total.crash_recovery_ms = Some(recovery);
    }
    total.crash_report = shared.crash_report.lock().unwrap().clone();
    if let Some(json) = &total.crash_report {
        if let Ok(doc) = Json::parse(json) {
            total.crash_lost_acked = doc.get("lost_acked").and_then(Json::as_u64);
            total.crash_consistent = doc.get("consistent").and_then(Json::as_bool);
        }
    }

    if spec.verify {
        verify_phase(&shared, &mut total)?;
    }
    if spec.shutdown {
        let mut c = Client::dial(&spec.target)?;
        let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
        match c.call(&Request::Shutdown { id }) {
            Ok(Response::ShuttingDown { .. }) => {}
            Ok(other) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unexpected shutdown reply {other:?}"),
                ))
            }
            Err(e) => return Err(e),
        }
    }
    Ok(total)
}

fn conn_worker(conn_idx: usize, quota: u64, shared: &Arc<LoadShared>) -> ConnTally {
    let mut tally = ConnTally {
        summary: LoadSummary::default(),
        hist: Hist::new(),
        dur_hist: Hist::new(),
    };
    let mut client = match Client::dial(&shared.spec.target) {
        Ok(c) => c,
        Err(_) => {
            tally.summary.errors += quota;
            return tally;
        }
    };
    let spec = &shared.spec;
    let mut rng = Xorshift64::new(
        spec.seed
            .wrapping_mul(0x5851_F42D)
            .wrapping_add(conn_idx as u64 + 1),
    );
    let sampler = spec.key_dist.sampler(spec.key_range);
    // Request ids double as detectable-operation rids: each connection
    // brands its ids so it owns one client row of every shard's slot
    // table (`rid_client = id >> 48`); admin ids from the shared counter
    // stay below the brand and never collide.
    let rid_base = (conn_idx as u64 + 1) << 48;
    let mut next_seq = 0u64;
    // In-flight request id → (send time, op kind, key, attempts).
    // Kinds: 0 get, 1 put, 2 del, 3 crash admin, 10+k resolve of kind k.
    let mut outstanding: HashMap<u64, (Instant, u8, u64, u32)> = HashMap::new();
    // Shed requests awaiting re-send: (kind, key, attempts so far).
    let mut retryq: std::collections::VecDeque<(u8, u64, u32)> = std::collections::VecDeque::new();
    // Uncertain mutations awaiting a `Resolve`: (kind, key, rid, attempts).
    let mut resolveq: std::collections::VecDeque<(u8, u64, u64, u32)> =
        std::collections::VecDeque::new();
    // Earliest instant a retry may be sent (the honored retry-after hint).
    let mut backoff_until: Option<Instant> = None;
    // Open-loop pacing.
    let pace = if spec.target_qps > 0 {
        Some(Duration::from_nanos(
            1_000_000_000u64 * spec.conns as u64 / spec.target_qps.max(1),
        ))
    } else {
        None
    };
    let mut next_send = Instant::now();

    // `drawn` counts fresh quota draws; retries ride on top of the quota.
    let mut drawn = 0u64;
    while drawn < quota || !outstanding.is_empty() || !retryq.is_empty() || !resolveq.is_empty() {
        let window_full = outstanding.len() >= spec.window;
        let backoff_over = backoff_until.is_none_or(|t| Instant::now() >= t);
        if !resolveq.is_empty() && !window_full {
            // Ask before retrying: a durable stamp for the uncertain op
            // means the effect already persisted.
            let (kind, key, rid, attempts) = resolveq.pop_front().unwrap();
            next_seq += 1;
            let id = rid_base | next_seq;
            if client.send(&Request::Resolve { id, key, rid }).is_err() {
                tally.summary.errors += 1;
                break;
            }
            outstanding.insert(id, (Instant::now(), 10 + kind, key, attempts));
            tally.summary.sent += 1;
            continue;
        }
        if !retryq.is_empty() && backoff_over && !window_full {
            // Re-send a shed request (its hint has been waited out).
            let (kind, key, attempts) = retryq.pop_front().unwrap();
            next_seq += 1;
            let id = rid_base | next_seq;
            let req = match kind {
                0 => Request::Get { id, key },
                1 => Request::Put { id, key },
                _ => Request::Del { id, key },
            };
            if client.send(&req).is_err() {
                tally.summary.errors += 1;
                break;
            }
            outstanding.insert(id, (Instant::now(), kind, key, attempts));
            tally.summary.sent += 1;
            tally.summary.retried += 1;
            continue;
        }
        if drawn < quota && !window_full {
            if let Some(gap) = pace {
                let now = Instant::now();
                if now < next_send {
                    std::thread::sleep(next_send - now);
                }
                next_send += gap;
            }
            let key = sampler.draw(&mut rng);
            let is_read = rng.below(100) < spec.read_pct as u64;
            let is_insert = rng.below(2) == 0;
            next_seq += 1;
            let id = rid_base | next_seq;
            let (req, kind) = if is_read {
                tally.summary.gets += 1;
                (Request::Get { id, key }, 0u8)
            } else if is_insert {
                tally.summary.puts += 1;
                (Request::Put { id, key }, 1u8)
            } else {
                tally.summary.dels += 1;
                (Request::Del { id, key }, 2u8)
            };
            if client.send(&req).is_err() {
                tally.summary.errors += 1;
                break;
            }
            outstanding.insert(id, (Instant::now(), kind, key, 0));
            tally.summary.sent += 1;
            drawn += 1;
            // The last send forces the crash if the durable-ack
            // threshold was never reached: a crash run always crashes.
            let last = drawn == quota;
            maybe_inject_crash(conn_idx, shared, &mut client, &mut outstanding, last);
            continue;
        }
        if outstanding.is_empty() {
            // Only retries left and their backoff hasn't elapsed: sleep
            // to the deadline instead of spinning.
            if let Some(t) = backoff_until {
                let now = Instant::now();
                if t > now {
                    std::thread::sleep(t - now);
                }
            }
            backoff_until = None;
            continue;
        }
        // Window full or quota reached: reap one reply.
        let resp = match client.recv() {
            Ok(r) => r,
            Err(_) => {
                tally.summary.errors += outstanding.len() as u64;
                break;
            }
        };
        absorb_reply(
            &resp,
            shared,
            &mut outstanding,
            &mut retryq,
            &mut resolveq,
            &mut backoff_until,
            &mut tally,
        );
        // Replies are what move the durable-ack count: check the
        // threshold here too, not only after a send.
        maybe_inject_crash(conn_idx, shared, &mut client, &mut outstanding, false);
    }
    tally
}

/// Sends the admin `Crash` once the durable-ack threshold is crossed,
/// or unconditionally when `force` (connection 0's last send). Only
/// connection 0 injects, so exactly one crash fires.
fn maybe_inject_crash(
    conn_idx: usize,
    shared: &Arc<LoadShared>,
    client: &mut Client,
    outstanding: &mut HashMap<u64, (Instant, u8, u64, u32)>,
    force: bool,
) {
    let Some(at) = shared.spec.crash_at else {
        return;
    };
    if conn_idx != 0
        || (!force && shared.durable_acks.load(Ordering::Relaxed) < at)
        || shared.crash_sent.swap(true, Ordering::SeqCst)
    {
        return;
    }
    let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
    if client
        .send(&Request::Crash {
            id,
            shard: shared.spec.crash_shard,
        })
        .is_ok()
    {
        // Track as in-flight admin: kind 3 is "crash".
        outstanding.insert(id, (Instant::now(), 3, 0, 0));
    }
}

#[allow(clippy::too_many_arguments)]
fn absorb_reply(
    resp: &Response,
    shared: &Arc<LoadShared>,
    outstanding: &mut HashMap<u64, (Instant, u8, u64, u32)>,
    retryq: &mut std::collections::VecDeque<(u8, u64, u32)>,
    resolveq: &mut std::collections::VecDeque<(u8, u64, u64, u32)>,
    backoff_until: &mut Option<Instant>,
    tally: &mut ConnTally,
) {
    let id = response_id(resp);
    let Some((sent_at, kind, key, attempts)) = outstanding.remove(&id) else {
        return; // unsolicited (e.g. Error{id:0}); ignore
    };
    let lat_us = (sent_at.elapsed().as_micros() as u64).max(1);
    tally.hist.record(lat_us);
    tally.summary.completed += 1;
    let mutation = kind == 1 || kind == 2;
    match resp {
        Response::Value { durable, .. } => {
            if *durable {
                tally.summary.acked_durable += 1;
                tally.dur_hist.record(lat_us);
                shared.durable_acks.fetch_add(1, Ordering::Relaxed);
            } else {
                tally.summary.nondurable += 1;
            }
        }
        Response::Done {
            durable,
            batch,
            seq,
            ..
        } => {
            if *durable {
                tally.summary.acked_durable += 1;
                tally.dur_hist.record(lat_us);
                shared.durable_acks.fetch_add(1, Ordering::Relaxed);
            } else {
                tally.summary.nondurable += 1;
            }
            if mutation {
                {
                    let mut table = shared.table.lock().unwrap();
                    let rec = table.entry(key).or_default();
                    if *durable {
                        let expect_present = kind == 1;
                        let cand = (*batch, *seq, expect_present);
                        if rec.durable.is_none_or(|(b, s, _)| (b, s) < (*batch, *seq)) {
                            rec.durable = Some(cand);
                        }
                    } else if rec.uncertain.is_none_or(|u| u < (*batch, *seq)) {
                        rec.uncertain = Some((*batch, *seq));
                    }
                }
                if !*durable {
                    // Uncertain outcome: resolve before any retry.
                    resolveq.push_back((kind, key, id, attempts));
                }
            }
        }
        Response::Overloaded { retry_after_ms, .. } => {
            tally.summary.shed += 1;
            if kind <= 2 && attempts < shared.spec.shed_retries {
                // Honor the server's hint: queue the re-send and push the
                // backoff deadline out to cover it.
                retryq.push_back((kind, key, attempts + 1));
                let hint = (*retry_after_ms as u64).min(250);
                tally.summary.backoffs += 1;
                tally.summary.backoff_ms += hint;
                let until = Instant::now() + Duration::from_millis(hint);
                *backoff_until = Some(match *backoff_until {
                    Some(t) if t > until => t,
                    _ => until,
                });
            }
        }
        Response::Crashed { batch, .. } => {
            tally.summary.crashed += 1;
            if mutation {
                {
                    let mut table = shared.table.lock().unwrap();
                    let rec = table.entry(key).or_default();
                    // Unknown sequence: conservatively later than anything
                    // executed in the same batch.
                    if rec.uncertain.is_none_or(|u| u < (*batch, u64::MAX)) {
                        rec.uncertain = Some((*batch, u64::MAX));
                    }
                }
                // The crashed shard restarted with its recovered slot
                // table; resolve the op instead of blindly retrying.
                resolveq.push_back((kind, key, id, attempts));
            }
        }
        Response::Report { json, .. } => {
            if kind == 3 {
                *shared.crash_report.lock().unwrap() = Some(json.clone());
                // Crash admin round-trip = client-observed restart time.
                shared.crash_recovery_ms.store(
                    (sent_at.elapsed().as_millis() as u64).max(1),
                    Ordering::Relaxed,
                );
            }
        }
        Response::Resolved { done, batch, .. } => {
            let orig_kind = kind.saturating_sub(10);
            if *done {
                // The uncertain op durably executed: no retry, and a
                // blind-retry client would have duplicated the effect.
                tally.summary.resolved_done += 1;
                tally.summary.duplicates_avoided += 1;
                let expect_present = orig_kind == 1;
                let mut table = shared.table.lock().unwrap();
                let rec = table.entry(key).or_default();
                // The stamp records the batch but not the in-batch rank,
                // so claim sequence 0: the verdict only supersedes
                // strictly-earlier batches, and any same-batch
                // uncertainty still forces a verification skip.
                if rec.durable.is_none_or(|(b, s, _)| (b, s) < (*batch, 0)) {
                    rec.durable = Some((*batch, 0, expect_present));
                }
            } else {
                // No durable stamp: the retry cannot duplicate anything
                // (and set semantics absorb the stamp-lost-but-effect-
                // durable window).
                tally.summary.resolved_not_started += 1;
                if (1..=2).contains(&orig_kind) && attempts < shared.spec.shed_retries.max(1) {
                    retryq.push_back((orig_kind, key, attempts + 1));
                }
            }
        }
        Response::Error { .. } => {
            tally.summary.errors += 1;
        }
        Response::Pong { .. } | Response::ShuttingDown { .. } => {}
    }
}

/// Reads back every key whose history ends in a durable ack and checks
/// presence against the acked expectation.
fn verify_phase(shared: &Arc<LoadShared>, total: &mut LoadSummary) -> io::Result<()> {
    let table = shared.table.lock().unwrap().clone();
    let mut client = Client::dial(&shared.spec.target)?;
    for (key, rec) in table {
        let Some((b, s, expect_present)) = rec.durable else {
            continue;
        };
        if let Some(u) = rec.uncertain {
            if u >= (b, s) {
                total.verify_skipped += 1;
                continue;
            }
        }
        let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
        let resp = client.call(&Request::Get { id, key })?;
        match resp {
            Response::Value { present, .. } => {
                total.verify_checked += 1;
                if present != expect_present {
                    total.verify_violations += 1;
                    if total.violating_keys.len() < 16 {
                        total.violating_keys.push(key);
                    }
                }
            }
            Response::Overloaded { retry_after_ms, .. } => {
                // Verification is sequential, so overload here is
                // transient backlog; honor the hint once.
                std::thread::sleep(Duration::from_millis(retry_after_ms as u64 + 1));
                let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
                if let Response::Value { present, .. } = client.call(&Request::Get { id, key })? {
                    total.verify_checked += 1;
                    if present != expect_present {
                        total.verify_violations += 1;
                        if total.violating_keys.len() < 16 {
                            total.violating_keys.push(key);
                        }
                    }
                }
            }
            _ => total.errors += 1,
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_json_reports_durability_verdict() {
        let mut s = LoadSummary {
            sent: 100,
            completed: 98,
            shed: 2,
            ..LoadSummary::default()
        };
        let doc = Json::parse(&s.to_json().to_compact()).unwrap();
        assert_eq!(doc.get("record").unwrap().as_str(), Some("load-summary"));
        assert_eq!(doc.get("durability_ok").unwrap().as_bool(), Some(true));
        s.verify_violations = 1;
        let doc = Json::parse(&s.to_json().to_compact()).unwrap();
        assert_eq!(doc.get("durability_ok").unwrap().as_bool(), Some(false));
    }

    #[test]
    fn tcp_clients_disable_nagle() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let client = Client::dial(&Bind::Tcp(addr)).unwrap();
        match &client.stream {
            Conn::Tcp(s) => assert!(s.nodelay().unwrap(), "Nagle still on"),
            #[cfg(unix)]
            Conn::Uds(_) => unreachable!("dialed over TCP"),
        }
    }
}
