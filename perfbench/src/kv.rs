//! `kv-zipf-16k`: the lrp-serve key-value service under zipfian load.
//!
//! The server runs in-process (`Server::start`, two shards, hash map
//! under LRP, detectable operations on, default batching) and the load
//! comes from this module's client over the program's own
//! [`lrp_serve::Client`] and codec framing, with their default socket
//! options. At most two client threads and two connections exist at any
//! time. The run has three phases:
//!
//! 1. a closed loop — two connections, each keeping 16 requests in
//!    flight — measures capacity (durable acks per second);
//! 2. an open loop on one connection sends at the fixed rate
//!    [`OPEN_RATE_PER_S`] and times every request from when it was due,
//!    so a stall is charged to every request it delays; how late the
//!    generator itself ran is reported beside it;
//! 3. a pipelined read-back checks every key whose last mutation was
//!    durably acked.
//!
//! **Operations.** An operation is one original request. It succeeds
//! when it (or a retry on its behalf) receives a `Value`/`Done` reply,
//! durable or not — a non-durable ack is a valid, retryable outcome. It
//! fails on an `Error` or `Crashed` reply, a broken connection, or when
//! every retry after an `Overloaded` reply was shed too; a failed or
//! shed request counts as missing every latency limit. A read-back
//! operation also fails when the key's presence contradicts its durable
//! ack. Uncertain mutations are resolved as the shipped load generator
//! does: `Resolve` first, retry only on a not-started verdict. Those
//! `Resolve` and retry frames are *extra frames*, not operations.

use crate::host::{at_ref_speed, RefKernel};
use crate::spans::Tracer;
use crate::stats::{median, Summary};
use crate::verdict::{reads_back, Ledger};
use crate::{peak_rss_mb, Outcome, RunCfg};
use lrp_exec::Xorshift64;
use lrp_lfds::{KeyDist, KeySampler, Structure};
use lrp_obs::Json;
use lrp_serve::codec::response_id;
use lrp_serve::{
    route, Bind, Client, KvOp, Request, Response, Server, ServerConfig, Shard, ShardConfig,
    ShardReq,
};
use std::collections::{HashMap, VecDeque};
use std::io;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Open-loop rate, requests per second: about half the closed-loop
/// capacity this benchmark measured before the benchmark existed, on a
/// 2-core x86-64 host — 130–160 replies/s in most runs (a minority ran
/// at ~560; see `perfbench/README.md`).
pub const OPEN_RATE_PER_S: f64 = 70.0;

/// Keys are drawn from `[1, KEY_RANGE]`.
const KEY_RANGE: u64 = 16_384;
/// Keys each shard holds at start.
const INITIAL_SIZE: usize = 8_192;
/// YCSB's zipfian skew.
const THETA: f64 = 0.99;
/// Percentage of `Get`s; the rest split evenly between `Put` and `Del`.
const READ_PCT: u64 = 20;
/// Shards in the server.
const SHARDS: usize = 2;
/// Requests each closed-loop connection keeps in flight.
const WINDOW: usize = 16;
/// Server start-ups per run (median reported as `setup_s`).
const SETUPS: usize = 101;
/// Untraced + traced slice pairs the load phases of a traced run are
/// cut into, so both sides see the shard at every stage of its growth.
const TRACED_PAIRS: usize = 2;
/// Follow-up frames (retries and resolves) allowed per operation.
const MAX_FOLLOW_UPS: u32 = 3;
/// Width of the closed-loop windows capacity is measured over.
const CAPACITY_WINDOW: Duration = Duration::from_secs(1);
/// Metrics snapshots taken during the traced open loop.
const PROBE_EVERY: Duration = Duration::from_millis(250);

/// The workload's fixed parameters (scaled down for the tests).
#[derive(Clone, Copy)]
struct Shape {
    key_range: u64,
    initial_size: usize,
    rate: f64,
}

impl Shape {
    fn of(cfg: &RunCfg) -> Shape {
        if cfg.small {
            Shape {
                key_range: 1024,
                initial_size: 512,
                rate: 200.0,
            }
        } else {
            Shape {
                key_range: KEY_RANGE,
                initial_size: INITIAL_SIZE,
                rate: OPEN_RATE_PER_S,
            }
        }
    }

    fn shard_config(&self, seed: u64) -> ShardConfig {
        let mut shard = ShardConfig::new(Structure::HashMap);
        shard.initial_size = self.initial_size;
        shard.key_range = self.key_range;
        shard.seed = seed;
        shard
    }

    fn server_config(&self, seed: u64) -> ServerConfig {
        let mut cfg = ServerConfig::new(self.shard_config(seed));
        cfg.shards = SHARDS;
        cfg
    }
}

/// The request stream: zipfian keys, 20% reads, seeded.
struct Gen {
    rng: Xorshift64,
    keys: KeySampler,
}

impl Gen {
    fn new(seed: u64, stream: u64, key_range: u64) -> Gen {
        Gen {
            rng: Xorshift64::new(
                seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(stream + 1),
            ),
            keys: KeyDist::Zipfian { theta: THETA }.sampler(key_range),
        }
    }

    fn next(&mut self) -> KvOp {
        let key = self.keys.draw(&mut self.rng);
        if self.rng.below(100) < READ_PCT {
            KvOp::Get(key)
        } else if self.rng.below(2) == 0 {
            KvOp::Put(key)
        } else {
            KvOp::Del(key)
        }
    }
}

fn request(op: KvOp, id: u64) -> Request {
    match op {
        KvOp::Get(key) => Request::Get { id, key },
        KvOp::Put(key) => Request::Put { id, key },
        KvOp::Del(key) => Request::Del { id, key },
    }
}

/// What the read-back expects of a key: its latest durable mutation
/// `(batch, seq, present)` and its latest uncertain event `(batch, seq)`
/// (a non-durable ack or an unknown outcome), as the shipped load
/// generator tracks them.
#[derive(Debug, Clone, Copy, Default)]
struct KeyRecord {
    durable: Option<(u64, u64, bool)>,
    uncertain: Option<(u64, u64)>,
}

impl KeyRecord {
    fn durable_at(&mut self, at: (u64, u64), present: bool) {
        if self.durable.is_none_or(|(b, s, _)| (b, s) < at) {
            self.durable = Some((at.0, at.1, present));
        }
    }

    fn uncertain_at(&mut self, at: (u64, u64)) {
        if self.uncertain.is_none_or(|u| u < at) {
            self.uncertain = Some(at);
        }
    }

    /// The presence the read-back must see, when the key's history ends
    /// in a durable ack.
    fn expectation(&self) -> Option<bool> {
        let (b, s, present) = self.durable?;
        match self.uncertain {
            Some(u) if u >= (b, s) => None,
            _ => Some(present),
        }
    }
}

type KeyTable = Mutex<HashMap<u64, KeyRecord>>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Warmup,
    Closed,
    Open,
    ReadBack,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Frame {
    Original,
    Retry,
    Resolve { rid: u64 },
}

#[derive(Debug, Clone, Copy)]
struct InFlight {
    op: usize,
    frame: Frame,
    sent: Instant,
}

#[derive(Debug, Clone, Copy)]
struct FollowUp {
    ready: Instant,
    op: usize,
    frame: Frame,
}

#[derive(Debug, Clone)]
struct OpState {
    op: KvOp,
    phase: Phase,
    due: Instant,
    replied: Option<Instant>,
    settled: bool,
    follow_ups: u32,
    /// Read-back expectation (read-back operations only).
    expect: Option<bool>,
}

/// Reply counts of the closed loop.
#[derive(Debug, Default, Clone, Copy)]
struct Replies {
    first: u64,
    mutations: u64,
    durable_mutations: u64,
}

/// One client connection and everything it tracked.
struct Conn<'a> {
    client: Client,
    brand: u64,
    seq: u64,
    table: &'a KeyTable,
    inflight: HashMap<u64, InFlight>,
    follow: VecDeque<FollowUp>,
    ops: Vec<OpState>,
    ledger: Ledger,
    replies: Replies,
    extra_frames: u64,
    shed_frames: u64,
    /// Arrival times of durable first replies in closed-loop phases.
    durable_times: Vec<Instant>,
    probes: HashMap<u64, Instant>,
    queue_depth_max: u64,
    tracer: Tracer,
}

impl<'a> Conn<'a> {
    fn dial(bind: &Bind, index: u64, table: &'a KeyTable, tracer: Tracer) -> io::Result<Conn<'a>> {
        Ok(Conn {
            client: Client::dial(bind)?,
            // Request ids double as detectable-operation rids: the brand
            // gives each connection its own slot-table row.
            brand: (index + 1) << 48,
            seq: 0,
            table,
            inflight: HashMap::new(),
            follow: VecDeque::new(),
            ops: Vec::new(),
            ledger: Ledger::default(),
            replies: Replies::default(),
            extra_frames: 0,
            shed_frames: 0,
            durable_times: Vec::new(),
            probes: HashMap::new(),
            queue_depth_max: 0,
            tracer,
        })
    }

    fn next_id(&mut self) -> u64 {
        self.seq += 1;
        self.brand | self.seq
    }

    fn busy(&self) -> bool {
        !self.inflight.is_empty() || !self.probes.is_empty()
    }

    /// Submits a new operation due at `due`.
    fn submit(&mut self, op: KvOp, phase: Phase, due: Instant, expect: Option<bool>) {
        self.ops.push(OpState {
            op,
            phase,
            due,
            replied: None,
            settled: false,
            follow_ups: 0,
            expect,
        });
        self.ledger.attempted += 1;
        self.send(self.ops.len() - 1, Frame::Original);
    }

    fn send(&mut self, op: usize, frame: Frame) {
        let id = self.next_id();
        let kv = self.ops[op].op;
        let req = match frame {
            Frame::Resolve { rid } => Request::Resolve {
                id,
                key: kv.key(),
                rid,
            },
            _ => request(kv, id),
        };
        if frame != Frame::Original {
            self.extra_frames += 1;
        }
        match self.client.send(&req) {
            Ok(()) => {
                self.inflight.insert(
                    id,
                    InFlight {
                        op,
                        frame,
                        sent: Instant::now(),
                    },
                );
            }
            Err(e) => self.settle(op, Err(format!("send failed: {e}"))),
        }
    }

    /// Sends the earliest follow-up that is ready, if any.
    fn send_ready_follow_up(&mut self, now: Instant) -> bool {
        let Some(pos) = self.follow.iter().position(|f| f.ready <= now) else {
            return false;
        };
        let f = self.follow.remove(pos).expect("position is in range");
        self.send(f.op, f.frame);
        true
    }

    fn next_follow_up(&self) -> Option<Instant> {
        self.follow.iter().map(|f| f.ready).min()
    }

    /// Queues a follow-up frame, or settles the operation when its
    /// budget is spent.
    fn follow_up(
        &mut self,
        op: usize,
        frame: Frame,
        ready: Instant,
        exhausted: Result<(), String>,
    ) {
        let st = &mut self.ops[op];
        if st.follow_ups >= MAX_FOLLOW_UPS {
            self.settle(op, exhausted);
            return;
        }
        st.follow_ups += 1;
        self.follow.push_back(FollowUp { ready, op, frame });
    }

    fn settle(&mut self, op: usize, outcome: Result<(), String>) {
        let st = &mut self.ops[op];
        if st.settled {
            return;
        }
        st.settled = true;
        let (kv, replied) = (st.op, st.replied.is_some());
        match outcome {
            Ok(()) => self.ledger.succeeded += 1,
            Err(detail) => {
                self.ledger.failed += 1;
                self.ledger.note(format!("kv {kv:?}: {detail}"));
            }
        }
        if kv.is_mutation() && !replied {
            // Unknown effect: exclude the key from the read-back.
            self.mark_uncertain(kv.key(), (u64::MAX, u64::MAX));
        }
    }

    fn mark_uncertain(&self, key: u64, at: (u64, u64)) {
        self.table
            .lock()
            .expect("key table lock poisoned")
            .entry(key)
            .or_default()
            .uncertain_at(at);
    }

    fn first_reply(&mut self, op: usize, now: Instant, durable: bool) {
        let st = &mut self.ops[op];
        if st.replied.is_some() {
            return;
        }
        st.replied = Some(now);
        if st.phase == Phase::Closed {
            self.replies.first += 1;
            if durable {
                self.durable_times.push(now);
            }
            if st.op.is_mutation() {
                self.replies.mutations += 1;
                self.replies.durable_mutations += durable as u64;
            }
        }
    }

    /// Receives and absorbs one reply.
    fn recv_one(&mut self) {
        match self.client.recv() {
            Ok(resp) => self.absorb(resp),
            Err(e) => {
                let lost: Vec<usize> = self.inflight.drain().map(|(_, f)| f.op).collect();
                self.probes.clear();
                for op in lost {
                    self.settle(op, Err(format!("connection failed: {e}")));
                }
                for f in std::mem::take(&mut self.follow) {
                    self.settle(f.op, Err(format!("connection failed: {e}")));
                }
            }
        }
    }

    fn absorb(&mut self, resp: Response) {
        let id = response_id(&resp);
        let now = Instant::now();
        if let Some(sent) = self.probes.remove(&id) {
            self.tracer.record("serve.metrics", "", sent, now);
            if let Response::Report { json, .. } = &resp {
                let snap = MetricsSnap::parse(json);
                self.queue_depth_max = self.queue_depth_max.max(snap.queue_depth);
            }
            return;
        }
        let Some(f) = self.inflight.remove(&id) else {
            return;
        };
        if f.frame == Frame::Original {
            self.tracer.record("serve.request", "", f.sent, now);
        }
        let op = f.op;
        let kv = self.ops[op].op;
        match resp {
            Response::Value {
                present, durable, ..
            } => {
                self.first_reply(op, now, durable);
                let outcome = match self.ops[op].expect {
                    Some(expect) => reads_back(kv.key(), expect, present),
                    None => Ok(()),
                };
                if let Err(e) = &outcome {
                    // A lost durable ack: check 3 of the verdict.
                    self.ledger.problems.push(e.clone());
                }
                self.settle(op, outcome);
            }
            Response::Done {
                durable,
                batch,
                seq,
                ..
            } => {
                self.first_reply(op, now, durable);
                let mut table = self.table.lock().expect("key table lock poisoned");
                let rec = table.entry(kv.key()).or_default();
                if durable {
                    rec.durable_at((batch, seq), matches!(kv, KvOp::Put(_)));
                    drop(table);
                    self.settle(op, Ok(()));
                } else {
                    rec.uncertain_at((batch, seq));
                    drop(table);
                    // Uncertain outcome: ask before any retry.
                    self.follow_up(op, Frame::Resolve { rid: id }, now, Ok(()));
                }
            }
            Response::Resolved { done, batch, .. } => {
                if done {
                    // The stamp records the batch, not the in-batch rank:
                    // claim rank 0, so same-batch uncertainty still wins.
                    let mut table = self.table.lock().expect("key table lock poisoned");
                    table
                        .entry(kv.key())
                        .or_default()
                        .durable_at((batch, 0), matches!(kv, KvOp::Put(_)));
                    drop(table);
                    self.settle(op, Ok(()));
                } else {
                    // Not started: the retry cannot duplicate an effect.
                    self.follow_up(op, Frame::Retry, now, Ok(()));
                }
            }
            Response::Overloaded { retry_after_ms, .. } => {
                self.shed_frames += 1;
                let ready = now + Duration::from_millis(u64::from(retry_after_ms).min(250));
                let frame = match f.frame {
                    Frame::Original => Frame::Retry,
                    other => other,
                };
                let exhausted = if self.ops[op].replied.is_some() {
                    Ok(())
                } else {
                    Err("shed on every attempt".to_string())
                };
                self.follow_up(op, frame, ready, exhausted);
            }
            other => self.settle(op, Err(format!("unexpected reply {other:?}"))),
        }
    }

    /// Sends a `Metrics` admin request on this connection.
    fn probe_metrics(&mut self) {
        let id = self.next_id();
        if self.client.send(&Request::Metrics { id }).is_ok() {
            self.probes.insert(id, Instant::now());
        }
    }

    /// Sleeps until `until` (no-op when it has passed).
    fn sleep_until(until: Instant) {
        let now = Instant::now();
        if until > now {
            std::thread::sleep(until - now);
        }
    }

    /// Closed loop until `deadline`, then drains.
    fn closed_loop(&mut self, phase: Phase, deadline: Instant, gen: &mut Gen) {
        loop {
            let now = Instant::now();
            if self.inflight.len() < WINDOW && self.send_ready_follow_up(now) {
                continue;
            }
            if now < deadline && self.inflight.len() < WINDOW {
                self.submit(gen.next(), phase, now, None);
                continue;
            }
            if self.busy() {
                self.recv_one();
                continue;
            }
            match self.next_follow_up() {
                Some(t) => Self::sleep_until(t),
                None => break,
            }
        }
    }

    /// Open loop at `rate` requests/s until `deadline`, then drains.
    /// Returns how late each send was against its due time (ms).
    fn open_loop(&mut self, deadline: Instant, rate: f64, gen: &mut Gen, probe: bool) -> Vec<f64> {
        let gap = Duration::from_secs_f64(1.0 / rate);
        let start = Instant::now();
        let mut next_due = start;
        let mut next_probe = start;
        let mut late = Vec::new();
        loop {
            let now = Instant::now();
            if next_due < deadline && now >= next_due {
                late.push((now - next_due).as_secs_f64() * 1e3);
                self.submit(gen.next(), Phase::Open, next_due, None);
                next_due += gap;
                continue;
            }
            if probe && next_due < deadline && now >= next_probe {
                self.probe_metrics();
                next_probe += PROBE_EVERY;
                continue;
            }
            if self.send_ready_follow_up(now) {
                continue;
            }
            if self.busy() {
                self.recv_one();
                continue;
            }
            let wake = [
                (next_due < deadline).then_some(next_due),
                self.next_follow_up(),
            ]
            .into_iter()
            .flatten()
            .min();
            match wake {
                Some(t) => Self::sleep_until(t),
                None => break,
            }
        }
        late
    }

    /// Pipelined read-back of `keys` (with their expected presence).
    fn read_back(&mut self, keys: &[(u64, bool)]) {
        let mut next = 0;
        loop {
            let now = Instant::now();
            if self.inflight.len() < WINDOW && self.send_ready_follow_up(now) {
                continue;
            }
            if next < keys.len() && self.inflight.len() < WINDOW {
                let (key, expect) = keys[next];
                self.submit(KvOp::Get(key), Phase::ReadBack, now, Some(expect));
                next += 1;
                continue;
            }
            if self.busy() {
                self.recv_one();
                continue;
            }
            match self.next_follow_up() {
                Some(t) => Self::sleep_until(t),
                None => break,
            }
        }
    }

    /// Due → reply latency (ms) of the open-loop operations from index
    /// `from`; failed operations miss every limit (infinite).
    fn open_latencies(&self, from: usize) -> Vec<f64> {
        self.ops[from..]
            .iter()
            .filter(|o| o.phase == Phase::Open)
            .map(|o| match o.replied {
                Some(r) if o.settled => (r - o.due).as_secs_f64() * 1e3,
                _ => f64::INFINITY,
            })
            .collect()
    }
}

/// The parts of a `Metrics` snapshot the benchmark uses, summed over
/// shards.
#[derive(Debug, Default, Clone, Copy)]
struct MetricsSnap {
    completed: u64,
    batches: u64,
    shed: u64,
    queue_depth: u64,
}

impl MetricsSnap {
    fn parse(json: &str) -> MetricsSnap {
        let mut s = MetricsSnap::default();
        let Ok(doc) = Json::parse(json) else {
            return s;
        };
        for shard in doc.get("shards").and_then(Json::as_arr).unwrap_or(&[]) {
            let total = |k: &str| {
                shard
                    .get("totals")
                    .and_then(|t| t.get(k))
                    .and_then(Json::as_u64)
                    .unwrap_or(0)
            };
            s.completed += total("completed");
            s.batches += total("batches");
            s.shed += total("shed");
            s.queue_depth = s
                .queue_depth
                .max(shard.get("queue_depth").and_then(Json::as_u64).unwrap_or(0));
        }
        s
    }

    fn fetch(conn: &mut Conn) -> MetricsSnap {
        // A synchronous round-trip on an idle connection.
        let id = conn.next_id();
        match conn.client.call(&Request::Metrics { id }) {
            Ok(Response::Report { json, .. }) => MetricsSnap::parse(&json),
            _ => MetricsSnap::default(),
        }
    }
}

/// Starts the server and waits until it serves: the first `Ping` reply,
/// then a `Get` reply from every shard. The `Ping` is answered by a
/// reader thread while the shard workers still build their shards; the
/// `Get`s wait for those builds and for one batch on each shard. Each
/// `Get` goes out on a fresh connection, whose first reply is not held
/// back by the transport's delayed-ACK timer.
fn start_server(cfg: ServerConfig, tracer: &mut Tracer) -> io::Result<(Server, Bind, f64)> {
    let t = Instant::now();
    let server = tracer.scope("serve.start", "", || Server::start(cfg))?;
    let addr = server
        .local_addr()
        .ok_or_else(|| io::Error::other("server has no TCP address"))?;
    let bind = Bind::Tcp(addr.to_string());
    let mut client = Client::dial(&bind)?;
    match tracer.scope("serve.ping", "", || client.call(&Request::Ping { id: 1 }))? {
        Response::Pong { .. } => {}
        other => return Err(io::Error::other(format!("unexpected ping reply {other:?}"))),
    }
    drop(client);
    tracer.scope("serve.first_reply", "", || -> io::Result<()> {
        let mut clients = Vec::with_capacity(SHARDS);
        for shard in 0..SHARDS {
            let key = (1..)
                .find(|&k| route(k, SHARDS) == shard)
                .expect("every shard owns a key");
            let mut c = Client::dial(&bind)?;
            c.send(&Request::Get { id: 2, key })?;
            clients.push(c);
        }
        for c in &mut clients {
            match c.recv()? {
                Response::Value { .. } => {}
                other => return Err(io::Error::other(format!("unexpected get reply {other:?}"))),
            }
        }
        Ok(())
    })?;
    Ok((server, bind, t.elapsed().as_secs_f64()))
}

/// Every key whose history ends in a durable ack, with the presence it
/// must read back, in key order.
fn expectations(table: &KeyTable) -> Vec<(u64, bool)> {
    let mut keys: Vec<(u64, bool)> = table
        .lock()
        .expect("key table lock poisoned")
        .iter()
        .filter_map(|(&k, r)| r.expectation().map(|e| (k, e)))
        .collect();
    keys.sort_unstable();
    keys
}

fn stop_server(server: Server) {
    server.shutdown();
    drop(server.join());
}

/// Measurements of one side (untraced or traced): the closed and open
/// phases of each of its slices, pooled.
#[derive(Default)]
struct LoadSide {
    durable_windows: Vec<f64>,
    closed_s: f64,
    open_s: f64,
    replies: Replies,
    lat: Vec<f64>,
    late: Vec<f64>,
    peak_mb: f64,
}

impl LoadSide {
    /// Durable acks per second: the median over the closed-loop
    /// windows, which resists a transient stall better than the mean.
    fn durable_per_s(&self) -> f64 {
        median(&self.durable_windows)
    }

    fn replies_per_s(&self) -> f64 {
        self.replies.first as f64 / self.closed_s
    }

    fn durable_share(&self) -> f64 {
        if self.replies.mutations > 0 {
            self.replies.durable_mutations as f64 / self.replies.mutations as f64
        } else {
            0.0
        }
    }

    /// Open-loop latencies (failed requests capped at the open time).
    fn latency(&self) -> Summary {
        Summary::of(&self.lat, self.open_s * 1e3)
    }
}

/// Runs one slice — a closed-loop phase on both connections, then an
/// open-loop phase on the first — and pools its samples into `side`.
fn run_slice(
    side: &mut LoadSide,
    conns: &mut [Conn; 2],
    gens: &mut [Gen; 2],
    (closed_s, open_s): (f64, f64),
    rate: f64,
    probe: bool,
) {
    let before: Vec<Replies> = conns.iter().map(|c| c.replies).collect();
    let t = Instant::now();
    let deadline = t + Duration::from_secs_f64(closed_s);
    for c in conns.iter_mut() {
        c.tracer.begin("bench.closed_loop", "");
    }
    std::thread::scope(|s| {
        let [c0, c1] = conns;
        let [g0, g1] = gens;
        s.spawn(|| c1.closed_loop(Phase::Closed, deadline, g1));
        c0.closed_loop(Phase::Closed, deadline, g0);
    });
    for c in conns.iter_mut() {
        c.tracer.end();
    }
    for (c, b) in conns.iter().zip(&before) {
        side.replies.first += c.replies.first - b.first;
        side.replies.mutations += c.replies.mutations - b.mutations;
        side.replies.durable_mutations += c.replies.durable_mutations - b.durable_mutations;
    }
    // Durable acks per second in each whole window of the phase.
    let windows = ((closed_s / CAPACITY_WINDOW.as_secs_f64()) as usize).max(1);
    let width = closed_s / windows as f64;
    let mut counts = vec![0u64; windows];
    for c in conns.iter() {
        for &at in c
            .durable_times
            .iter()
            .filter(|&&at| at >= t && at < deadline)
        {
            let w = ((at - t).as_secs_f64() / width) as usize;
            counts[w.min(windows - 1)] += 1;
        }
    }
    side.durable_windows
        .extend(counts.iter().map(|&n| n as f64 / width));
    side.closed_s += closed_s;

    let c0 = &mut conns[0];
    let from = c0.ops.len();
    c0.tracer.begin("bench.open_loop", "");
    let late = c0.open_loop(
        Instant::now() + Duration::from_secs_f64(open_s),
        rate,
        &mut gens[0],
        probe,
    );
    c0.tracer.end();
    side.late.extend(late);
    side.lat.extend(c0.open_latencies(from));
    side.open_s += open_s;
    side.peak_mb = side.peak_mb.max(peak_rss_mb());
}

/// Serial pings on one client: transport and codec round-trip time.
fn ping_rtt(conn: &mut Conn, budget: Duration) -> Vec<f64> {
    let t = Instant::now();
    let mut rtt = Vec::new();
    while t.elapsed() < budget || rtt.len() < 12 {
        let id = conn.next_id();
        let sent = Instant::now();
        match conn.client.call(&Request::Ping { id }) {
            Ok(Response::Pong { .. }) => {
                let now = Instant::now();
                conn.tracer.record("serve.ping", "", sent, now);
                rtt.push((now - sent).as_secs_f64() * 1e3);
            }
            _ => break,
        }
    }
    rtt
}

/// Per-batch host time of a standalone shard: `(execute, build, sim,
/// commit)` in ms per batch.
fn shard_probe(
    shape: &Shape,
    seed: u64,
    batch_max: usize,
    budget: Duration,
    tracer: &mut Tracer,
) -> Vec<[f64; 4]> {
    let mut shard = Shard::new(shape.shard_config(seed));
    let mut gen = Gen::new(seed, 7, shape.key_range);
    let brand = 1u64 << 48;
    let mut seq = 0u64;
    let t = Instant::now();
    let mut rows = Vec::new();
    while t.elapsed() < budget || rows.len() < 12 {
        let mut batch = Vec::with_capacity(batch_max);
        while batch.len() < batch_max {
            let op = gen.next();
            if route(op.key(), SHARDS) == 0 {
                seq += 1;
                batch.push(ShardReq::new(op, brand | seq));
            }
        }
        let start = Instant::now();
        let results = std::hint::black_box(shard.execute(&batch));
        let end = Instant::now();
        tracer.record("serve.shard.execute", "", start, end);
        debug_assert_eq!(results.len(), batch.len());
        let bd = shard.last_breakdown();
        let exec_ms = (end - start).as_secs_f64() * 1e3;
        let sim_ms = bd.sim_us as f64 / 1e3;
        let commit_ms = bd.persist_us as f64 / 1e3;
        rows.push([
            exec_ms,
            (exec_ms - sim_ms - commit_ms).max(0.0),
            sim_ms,
            commit_ms,
        ]);
    }
    rows
}

/// `kv-zipf-16k`.
pub fn kv_zipf(cfg: &RunCfg) -> io::Result<Outcome> {
    let shape = Shape::of(cfg);
    let s = cfg.seconds;
    let epoch = Instant::now();
    let mut out = Outcome::new(Tracer::new(false, epoch));

    // Set-up: Server::start until every shard serves, many times; the
    // last server carries the load. Each start-up is also taken at
    // reference speed, with the kernel run after it, as the simulator
    // workloads take their trace builds.
    let (mut setup_u, mut setup_t) = (Vec::new(), Vec::new());
    let (mut raw_u, mut ref_t) = (Vec::new(), Vec::new());
    let kernel = RefKernel::new();
    let mut live = None;
    for i in 0..SETUPS {
        let on = cfg.trace && i % 2 == 1;
        out.tracer.set_on(on);
        out.tracer.set_run(i as u32);
        if let Some((old, _)) = live.take() {
            stop_server(old);
        }
        let (server, bind, secs) = start_server(shape.server_config(cfg.seed), &mut out.tracer)?;
        let ref_ms = kernel.time_ms();
        let scaled = at_ref_speed(secs * 1e3, ref_ms) / 1e3;
        if on {
            setup_t.push(scaled);
            ref_t.push(ref_ms);
        } else {
            setup_u.push(scaled);
            raw_u.push(secs);
        }
        live = Some((server, bind));
    }
    drop(kernel);
    let (server, bind) = live.expect("at least one set-up");
    out.tracer.set_on(false);

    let table: KeyTable = Mutex::new(HashMap::new());
    let mut conns = [
        Conn::dial(&bind, 0, &table, Tracer::new(false, epoch))?,
        Conn::dial(&bind, 1, &table, Tracer::new(false, epoch))?,
    ];
    let mut gens = [
        Gen::new(cfg.seed, 0, shape.key_range),
        Gen::new(cfg.seed, 1, shape.key_range),
    ];
    // Warm-up (unmeasured): the server's threads, queues and allocator.
    let warm = if cfg.small { 0.05 } else { 0.5 };
    {
        let [c0, c1] = &mut conns;
        let [g0, g1] = &mut gens;
        let deadline = Instant::now() + Duration::from_secs_f64(warm);
        std::thread::scope(|sc| {
            sc.spawn(|| c1.closed_loop(Phase::Warmup, deadline, g1));
            c0.closed_loop(Phase::Warmup, deadline, g0);
        });
    }

    // The load phases: one untraced slice, or untraced and traced
    // slices in turn.
    let slices = if cfg.trace { 2 * TRACED_PAIRS } else { 1 };
    let phase_s = (0.4 * s / slices as f64, 0.6 * s / slices as f64);
    let (mut untraced, mut traced) = (LoadSide::default(), LoadSide::default());
    // Metrics counters over the traced slices: (completed, batches, shed).
    let mut counted = (0u64, 0u64, 0u64);
    for k in 0..slices {
        let on = cfg.trace && k % 2 == 1;
        for c in conns.iter_mut() {
            c.tracer.set_on(on);
            c.tracer.set_run((SETUPS + k) as u32);
        }
        if !on {
            run_slice(
                &mut untraced,
                &mut conns,
                &mut gens,
                phase_s,
                shape.rate,
                false,
            );
            continue;
        }
        let a = MetricsSnap::fetch(&mut conns[0]);
        run_slice(
            &mut traced,
            &mut conns,
            &mut gens,
            phase_s,
            shape.rate,
            true,
        );
        let b = MetricsSnap::fetch(&mut conns[0]);
        counted.0 += b.completed.saturating_sub(a.completed);
        counted.1 += b.batches.saturating_sub(a.batches);
        counted.2 += b.shed.saturating_sub(a.shed);
    }
    let lat = untraced.latency();
    out.e2e.insert("setup_s", median(&setup_u));
    out.e2e.insert("latency_ms", lat.p50);
    for c in conns.iter_mut() {
        c.tracer.set_on(cfg.trace);
    }

    // Read-back of every key whose history ends in a durable ack.
    let keys = expectations(&table);
    conns[0].tracer.begin("bench.read_back", "");
    conns[0].read_back(&keys);
    conns[0].tracer.end();

    let mut probes = None;
    if cfg.trace {
        let rtt = ping_rtt(&mut conns[0], Duration::from_secs_f64(0.1 * s));
        let mut shard_tracer = Tracer::new(true, epoch);
        let rows = shard_probe(
            &shape,
            cfg.seed,
            ServerConfig::new(shape.shard_config(cfg.seed)).batch_max,
            Duration::from_secs_f64(0.15 * s),
            &mut shard_tracer,
        );
        probes = Some((rtt, rows, shard_tracer));
    }

    let mut extra = 0u64;
    let mut shed = 0u64;
    let mut originals = 0u64;
    // Only the traced slices probe the queue depth.
    let queue_depth_max = conns[0].queue_depth_max;
    for c in conns {
        extra += c.extra_frames;
        shed += c.shed_frames;
        originals += c.ledger.attempted;
        out.ledger.merge(c.ledger);
        out.tracer.set_on(cfg.trace);
        out.tracer.absorb(c.tracer);
    }
    stop_server(server);

    let tail = |l: &Summary| format!("p{} {:.3} ms", l.tail_pct, l.tail);
    out.line(format!(
        "setup_s = {:.5} s at reference speed (Server::start to first Pong and a reply from every shard, median of {}; wall median {:.5} s)",
        out.e2e["setup_s"],
        setup_u.len(),
        median(&raw_u)
    ));
    out.line(format!(
        "kv_durable_ops_per_s = {:.1} acks/s (closed loop, 2 conns x window {WINDOW}, median of {} windows {:?}; {:.1} replies/s)",
        untraced.durable_per_s(),
        untraced.durable_windows.len(),
        untraced.durable_windows.iter().map(|w| w.round()).collect::<Vec<_>>(),
        untraced.replies_per_s()
    ));
    out.line(format!(
        "kv_durable_share = {:.4} ratio",
        untraced.durable_share()
    ));
    out.line(format!(
        "kv_p50_ms = {:.3} ms, kv_tail_ms = {} ({} samples at {:.0} req/s; generator late p50 {:.3} ms, max {:.3} ms)",
        lat.p50,
        tail(&lat),
        lat.n,
        shape.rate,
        median(&untraced.late),
        untraced.late.iter().copied().fold(0.0, f64::max)
    ));
    out.line(format!("peak_rss_mb = {:.1} MiB", untraced.peak_mb));
    out.line(format!(
        "read-back: {} keys checked; extra frames {extra} per {originals} operations; shed frames {shed}",
        keys.len()
    ));

    if let Some((rtt, rows, shard_tracer)) = probes {
        out.tracer.absorb(shard_tracer);
        let tlat = traced.latency();
        let ping = Summary::of(&rtt, 0.0);
        let col = |k: usize| rows.iter().map(|r| r[k]).collect::<Vec<f64>>();
        let exec = Summary::of(&col(0), 0.0);
        out.set("serve.ping_rtt_p50_ms", ping.p50);
        out.set("serve.ping_rtt_tail_ms", ping.tail);
        out.set("serve.ping_samples", ping.n as f64);
        out.set("serve.shard.execute_p50_ms", exec.p50);
        out.set("serve.shard.execute_tail_ms", exec.tail);
        out.set("serve.shard.build_ms", median(&col(1)));
        out.set("serve.shard.sim_ms", median(&col(2)));
        out.set("serve.shard.commit_ms", median(&col(3)));
        out.set("serve.shard.batches", rows.len() as f64);
        let (completed, batches, shed_traced) = counted;
        let batch_max = ServerConfig::new(shape.shard_config(cfg.seed)).batch_max as f64;
        let fill = if batches > 0 {
            completed as f64 / batches as f64 / batch_max
        } else {
            0.0
        };
        out.set("serve.batch_fill", fill);
        out.set("serve.queue_depth_max", queue_depth_max as f64);
        out.set("serve.shed", shed_traced as f64);
        out.set(
            "serve.extra_frames_share",
            if originals > 0 {
                extra as f64 / originals as f64
            } else {
                0.0
            },
        );
        out.set("kv.durable_ops_per_s", traced.durable_per_s());
        out.set("kv.replies_per_s", traced.replies_per_s());
        out.set("kv.durable_share", traced.durable_share());
        out.set("kv.tail_ms", tlat.tail);
        out.set("kv.tail_pct", tlat.tail_pct);
        out.set("kv.samples", tlat.n as f64);
        out.set("kv.generator_late_p50_ms", median(&traced.late));
        out.set(
            "kv.generator_late_max_ms",
            traced.late.iter().copied().fold(0.0, f64::max),
        );
        let share = out.ledger.fail_share();
        out.set("fail_share", share);
        // Transport-bound, not memory-bound: reported unscaled.
        out.set("host.latency_raw_ms", tlat.p50);
        out.set("host.ref_ms", median(&ref_t));
        out.set("peak_rss_mb", traced.peak_mb);
        let traced_e2e = std::collections::BTreeMap::from([
            ("setup_s", median(&setup_t)),
            ("latency_ms", tlat.p50),
        ]);
        out.finish_traced(&traced_e2e);
        out.line(format!(
            "traced: ping rtt p50 {:.3} ms ({} samples); shard execute p50 {:.3} ms, {} ({} batches)",
            ping.p50,
            ping.n,
            exec.p50,
            tail(&exec),
            exec.n
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Shape {
        Shape::of(&RunCfg {
            seed: 9,
            seconds: 1.0,
            trace: false,
            small: true,
        })
    }

    /// Drives a short closed loop and returns the live server, its
    /// address and the key table it filled.
    fn loaded(shape: &Shape) -> (Server, Bind, KeyTable) {
        let (server, bind, _) = start_server(
            shape.server_config(9),
            &mut Tracer::new(false, Instant::now()),
        )
        .expect("server starts");
        let table: KeyTable = Mutex::new(HashMap::new());
        {
            let mut conn =
                Conn::dial(&bind, 0, &table, Tracer::new(false, Instant::now())).expect("dial");
            let mut gen = Gen::new(9, 0, shape.key_range);
            conn.closed_loop(
                Phase::Closed,
                Instant::now() + Duration::from_millis(400),
                &mut gen,
            );
            assert!(conn.ledger.failed == 0, "{:?}", conn.ledger.details);
        }
        (server, bind, table)
    }

    #[test]
    fn read_back_passes_on_honest_expectations() {
        let shape = small();
        let (server, bind, table) = loaded(&shape);
        let keys = expectations(&table);
        assert!(!keys.is_empty(), "no durable acks to verify");
        let mut conn =
            Conn::dial(&bind, 1, &table, Tracer::new(false, Instant::now())).expect("dial");
        conn.read_back(&keys);
        stop_server(server);
        assert_eq!(conn.ledger.attempted, keys.len() as u64);
        assert!(conn.ledger.finish(), "{:?}", conn.ledger.problems);
    }

    #[test]
    fn flipped_read_back_expectation_fails_the_verdict() {
        let shape = small();
        let (server, bind, table) = loaded(&shape);
        let flipped: Vec<(u64, bool)> = expectations(&table)
            .into_iter()
            .map(|(k, e)| (k, !e))
            .collect();
        let mut conn =
            Conn::dial(&bind, 1, &table, Tracer::new(false, Instant::now())).expect("dial");
        conn.read_back(&flipped);
        stop_server(server);
        assert_eq!(conn.ledger.failed, flipped.len() as u64);
        assert!(!conn.ledger.finish());
    }

    #[test]
    fn later_uncertainty_withdraws_the_expectation() {
        let mut r = KeyRecord::default();
        r.durable_at((3, 5), true);
        assert_eq!(r.expectation(), Some(true));
        r.uncertain_at((3, 2));
        assert_eq!(r.expectation(), Some(true));
        r.uncertain_at((4, 0));
        assert_eq!(r.expectation(), None);
    }
}
