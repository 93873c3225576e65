//! The service front-end: listener, router, per-shard queues and
//! batching workers, admission control, crash administration, and
//! shutdown.
//!
//! Threading model: one accept thread, one detached reader thread per
//! connection, and one worker thread per shard. Readers route requests
//! by key hash into a bounded per-shard queue (full queue ⇒ typed
//! `Overloaded` reply — the reader never blocks on a slow shard, so an
//! overloaded shard cannot stall the accept path). Each worker drains
//! its queue in batches (closed by size or deadline), executes the
//! batch on its [`Shard`], and writes replies directly to the owning
//! connections; replies are length-prefixed frames tagged with the
//! request id, so they may interleave arbitrarily with other traffic on
//! the same connection.

use crate::codec::{decode_request, encode_response, read_frame, write_frame, Request, Response};
use crate::flight::{FlightEvent, FlightRecorder};
use crate::metrics::{
    counters_json, crash_json, header_json, interval_json, metrics_shard_json,
    metrics_snapshot_json, shard_json, DetectStats, ShardTelemetry, SLOT_BATCHES, SLOT_COMPLETED,
    SLOT_ENQUEUED, SLOT_SHED,
};
use crate::shard::{KvOp, Shard, ShardConfig, ShardCounters, ShardReq};
use lrp_detect::{ResolvedStatus, Resolver};
use lrp_obs::span::{Span, SpanLog, SpanPhase};
use lrp_obs::{GaugeSample, GaugeSeries, Hist, Json, Stats};
use std::collections::VecDeque;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Where the server listens.
#[derive(Debug, Clone)]
pub enum Bind {
    /// TCP address, e.g. `127.0.0.1:0` (port 0 picks an ephemeral port).
    Tcp(String),
    /// Unix-domain socket path (the loopback mode without TCP).
    #[cfg(unix)]
    Uds(std::path::PathBuf),
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address.
    pub bind: Bind,
    /// Number of shards (each owns one structure + simulated machine).
    pub shards: usize,
    /// Template shard configuration; each shard derives its own seed.
    pub shard: ShardConfig,
    /// Maximum requests per batch.
    pub batch_max: usize,
    /// Deadline from the first queued request to batch close.
    pub batch_wait_ms: u64,
    /// Bounded queue length per shard; beyond it requests are shed.
    pub queue_depth: usize,
    /// Width of the `serve-interval` metrics windows (milliseconds).
    pub metrics_every_ms: u64,
    /// Request-span tracing: `Some(cap)` retains up to `cap` spans per
    /// shard in a drop-oldest log (exported as a Chrome trace through
    /// [`ServerReport::chrome_trace`]); `None` disables tracing.
    pub spans: Option<usize>,
    /// Flight-recorder ring capacity per shard (events; `0` disables
    /// retention but still counts drops).
    pub flight: usize,
    /// Directory flight-recorder rings are dumped to (JSONL, one file
    /// per shard, appended per crash) when a shard crash-restarts.
    pub flight_dir: Option<std::path::PathBuf>,
}

impl ServerConfig {
    /// Defaults: 2 shards on an ephemeral loopback port, batches of 16
    /// closed after 5 ms, 64-deep queues.
    pub fn new(shard: ShardConfig) -> ServerConfig {
        ServerConfig {
            bind: Bind::Tcp("127.0.0.1:0".into()),
            shards: 2,
            shard,
            batch_max: 16,
            batch_wait_ms: 5,
            queue_depth: 64,
            metrics_every_ms: 250,
            spans: None,
            flight: 256,
            flight_dir: None,
        }
    }
}

/// Maps a key to its owning shard (splitmix-style hash so adjacent keys
/// spread; stable across restarts, which the load generator relies on).
pub fn route(key: u64, shards: usize) -> usize {
    ((key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) % shards as u64) as usize
}

// -- connections ------------------------------------------------------

enum Conn {
    Tcp(TcpStream),
    #[cfg(unix)]
    Uds(std::os::unix::net::UnixStream),
}

impl Conn {
    fn try_clone(&self) -> io::Result<Conn> {
        match self {
            Conn::Tcp(s) => s.try_clone().map(Conn::Tcp),
            #[cfg(unix)]
            Conn::Uds(s) => s.try_clone().map(Conn::Uds),
        }
    }

    fn shutdown(&self) {
        match self {
            Conn::Tcp(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            #[cfg(unix)]
            Conn::Uds(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
    }
}

impl io::Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => io::Read::read(s, buf),
            #[cfg(unix)]
            Conn::Uds(s) => io::Read::read(s, buf),
        }
    }
}

impl io::Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => io::Write::write(s, buf),
            #[cfg(unix)]
            Conn::Uds(s) => io::Write::write(s, buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => io::Write::flush(s),
            #[cfg(unix)]
            Conn::Uds(s) => io::Write::flush(s),
        }
    }
}

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Uds(std::os::unix::net::UnixListener),
}

impl Listener {
    /// Accepts one connection; TCP sockets get `TCP_NODELAY` (see
    /// [`crate::codec::write_frame`]: a reply is one write, and the
    /// batcher already coalesces, so Nagle would only add a delayed-ACK
    /// wait per reply).
    fn accept(&self) -> io::Result<Conn> {
        match self {
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                s.set_nodelay(true)?;
                Ok(Conn::Tcp(s))
            }
            #[cfg(unix)]
            Listener::Uds(l) => l.accept().map(|(s, _)| Conn::Uds(s)),
        }
    }
}

/// A shared handle to a connection's write half; replies from any
/// thread serialize through the mutex so frames never interleave.
#[derive(Clone)]
struct Replier(Arc<Mutex<Conn>>);

impl Replier {
    fn send(&self, resp: &Response) {
        let payload = encode_response(resp);
        let mut w = self.0.lock().unwrap();
        // A vanished client is not a server error; the reply is dropped.
        let _ = write_frame(&mut *w, &payload);
    }
}

// -- shared state -----------------------------------------------------

/// Per-request telemetry carried with the op through the queue. The
/// timestamps (µs since server start) are always stamped — the ack
/// latency histograms need them — while `root` is non-zero only when
/// span tracing is on.
#[derive(Clone, Copy, Default)]
struct SpanCtx {
    /// Root span id (0 = tracing off).
    root: u64,
    /// Frame received.
    t0_us: u64,
    /// Request decoded and routed.
    t1_us: u64,
    /// Admitted to the shard queue.
    t_enq_us: u64,
    /// Queue depth observed at admission.
    depth: u32,
    /// Payload bytes.
    bytes: u32,
}

enum Work {
    Op {
        op: KvOp,
        id: u64,
        reply: Replier,
        ctx: SpanCtx,
    },
    Crash {
        id: u64,
        reply: Replier,
    },
}

struct ShardQueue {
    q: Mutex<VecDeque<Work>>,
    cv: Condvar,
}

/// Snapshot a reader can serve in a `Stats`/`Metrics` reply without
/// touching the worker-owned shard.
#[derive(Clone, Default)]
struct Snapshot {
    counters: ShardCounters,
    committed: u64,
    /// Wire-to-ack latency of every worker-answered request (µs).
    ack_hist: Hist,
    /// Wire-to-ack latency of durably-acked requests only (µs).
    dur_ack_hist: Hist,
    flight_events: u64,
    flight_dropped: u64,
    /// Merged durability critical-path digest (empty without a
    /// critpath-tracing recorder).
    crit: lrp_obs::CritSummary,
    /// The shard's committed resolver, republished after every batch
    /// commit and crash-restart. Readers answer `Resolve` from this, so
    /// a verdict only ever reflects durably-committed stamps.
    resolver: Resolver,
    /// Committed slot records held / slot-table capacity.
    slot_occupied: u64,
    slot_capacity: u64,
}

/// Reader-side accounting of answered `Resolve` requests (per shard).
#[derive(Default)]
struct ResolveStats {
    done: u64,
    not_started: u64,
    latency: Hist,
}

struct Shared {
    cfg: ServerConfig,
    queues: Vec<ShardQueue>,
    gauges: Vec<Mutex<GaugeSeries>>,
    snapshots: Vec<Mutex<Snapshot>>,
    resolves: Vec<Mutex<ResolveStats>>,
    /// Milliseconds the shard's most recent batch took (retry hints).
    batch_ms: Vec<AtomicU64>,
    /// Per-shard span logs; `None` = tracing off.
    spans: Option<Vec<Mutex<SpanLog>>>,
    shutdown: AtomicBool,
    epoch: Instant,
    /// The live dial target for self-pokes (set after bind).
    poke_addr: Mutex<Option<std::net::SocketAddr>>,
}

impl Shared {
    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    fn wake_all(&self) {
        for q in &self.queues {
            q.cv.notify_all();
        }
    }

    /// Unblocks the accept loop by dialing the server once.
    fn poke(&self) {
        match &self.cfg.bind {
            Bind::Tcp(_) => {
                if let Some(a) = *self.poke_addr.lock().unwrap() {
                    let _ = TcpStream::connect(a);
                }
            }
            #[cfg(unix)]
            Bind::Uds(path) => {
                let _ = std::os::unix::net::UnixStream::connect(path);
            }
        }
    }
}

/// What one shard hands back when its worker exits.
struct ShardFinal {
    counters: ShardCounters,
    committed: u64,
    stats: Stats,
    hists: [Hist; 3],
    intervals: Vec<GaugeSample>,
}

/// End-of-run report: everything needed for the metrics stream and for
/// the caller's exit code.
pub struct ServerReport {
    header: Json,
    shard_lines: Vec<Json>,
    interval_lines: Vec<Json>,
    lost_acked: u64,
    recovery_failures: u64,
    spans: Vec<Span>,
    span_dropped: u64,
}

impl ServerReport {
    /// Total durably-acked keys lost across every shard restart. The
    /// durability claim is that this is zero.
    pub fn lost_acked(&self) -> u64 {
        self.lost_acked
    }

    /// Commits/restarts that had to fall back because the NVM image did
    /// not validate.
    pub fn recovery_failures(&self) -> u64 {
        self.recovery_failures
    }

    /// Every request span retained at shutdown (empty when tracing was
    /// off). Feed to [`lrp_obs::span::audit_chains`] or
    /// [`ServerReport::chrome_trace`].
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans evicted from the bounded per-shard logs during the run.
    pub fn span_dropped(&self) -> u64 {
        self.span_dropped
    }

    /// The retained spans as a Chrome trace-event document (per-shard
    /// process tracks, async begin/end pairs per request).
    pub fn chrome_trace(&self) -> Json {
        lrp_obs::span::chrome_trace(&self.spans)
    }

    /// The full metrics stream (`serve-header`, `serve-shard`,
    /// `serve-interval` lines).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.header.to_compact());
        out.push('\n');
        for line in self.shard_lines.iter().chain(&self.interval_lines) {
            out.push_str(&line.to_compact());
            out.push('\n');
        }
        out
    }
}

/// A running server.
pub struct Server {
    shared: Arc<Shared>,
    accept: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<ShardFinal>>,
    conns: Arc<Mutex<Vec<Conn>>>,
    addr: Option<std::net::SocketAddr>,
}

impl Server {
    /// Binds and starts serving. Returns once the listener is live.
    pub fn start(cfg: ServerConfig) -> io::Result<Server> {
        assert!(cfg.shards >= 1, "need at least one shard");
        let listener = match &cfg.bind {
            Bind::Tcp(addr) => Listener::Tcp(TcpListener::bind(addr)?),
            #[cfg(unix)]
            Bind::Uds(path) => {
                let _ = std::fs::remove_file(path);
                Listener::Uds(std::os::unix::net::UnixListener::bind(path)?)
            }
        };
        let addr = match &listener {
            Listener::Tcp(l) => Some(l.local_addr()?),
            #[cfg(unix)]
            Listener::Uds(_) => None,
        };

        let shards = cfg.shards;
        let shared = Arc::new(Shared {
            queues: (0..shards)
                .map(|_| ShardQueue {
                    q: Mutex::new(VecDeque::new()),
                    cv: Condvar::new(),
                })
                .collect(),
            gauges: (0..shards)
                .map(|_| Mutex::new(GaugeSeries::new(cfg.metrics_every_ms.max(1))))
                .collect(),
            snapshots: (0..shards)
                .map(|_| Mutex::new(Snapshot::default()))
                .collect(),
            resolves: (0..shards)
                .map(|_| Mutex::new(ResolveStats::default()))
                .collect(),
            batch_ms: (0..shards).map(|_| AtomicU64::new(1)).collect(),
            spans: cfg
                .spans
                .map(|cap| (0..shards).map(|_| Mutex::new(SpanLog::new(cap))).collect()),
            shutdown: AtomicBool::new(false),
            epoch: Instant::now(),
            poke_addr: Mutex::new(addr),
            cfg,
        });

        let workers = (0..shards)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("shard-{i}"))
                    .spawn(move || worker_loop(i, &shared))
                    .expect("spawn shard worker")
            })
            .collect();

        let conns: Arc<Mutex<Vec<Conn>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let shared = shared.clone();
            let conns = conns.clone();
            std::thread::Builder::new()
                .name("accept".into())
                .spawn(move || accept_loop(listener, &shared, &conns))
                .expect("spawn accept loop")
        };

        Ok(Server {
            shared,
            accept: Some(accept),
            workers,
            conns,
            addr,
        })
    }

    /// The bound TCP address (None in UDS mode).
    pub fn local_addr(&self) -> Option<std::net::SocketAddr> {
        self.addr
    }

    /// Triggers shutdown without a client `Shutdown` request.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.wake_all();
        self.shared.poke();
    }

    /// Waits for shutdown (client-requested or [`Server::shutdown`]),
    /// drains the shards, and assembles the final report.
    pub fn join(mut self) -> ServerReport {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // Readers may still be parked on idle connections; sever them.
        for c in self.conns.lock().unwrap().drain(..) {
            c.shutdown();
        }
        self.shared.wake_all();
        let finals: Vec<ShardFinal> = self
            .workers
            .drain(..)
            .map(|h| h.join().expect("shard worker panicked"))
            .collect();
        #[cfg(unix)]
        if let Bind::Uds(path) = &self.shared.cfg.bind {
            let _ = std::fs::remove_file(path);
        }

        let cfg = &self.shared.cfg;
        let header = header_json(
            cfg.shards,
            cfg.shard.structure.name(),
            cfg.shard.mechanism.name(),
            cfg.shard.nvm_mode.name(),
            cfg.shard.sim_threads as u64,
            cfg.batch_max as u64,
            cfg.batch_wait_ms,
            cfg.queue_depth as u64,
        );
        let mut shard_lines = Vec::new();
        let mut interval_lines = Vec::new();
        let mut lost_acked = 0;
        let mut recovery_failures = 0;
        for (i, f) in finals.iter().enumerate() {
            lost_acked += f.counters.lost_acked;
            recovery_failures += f.counters.recovery_failures;
            shard_lines.push(shard_json(i, &f.counters, f.committed, &f.stats, &f.hists));
            for s in &f.intervals {
                interval_lines.push(interval_json(i, s));
            }
        }
        let (spans, span_dropped) = match &self.shared.spans {
            Some(logs) => {
                let mut all = Vec::new();
                let mut dropped = 0;
                for log in logs {
                    let mut log = log.lock().unwrap();
                    dropped += log.dropped();
                    all.extend(log.drain());
                }
                (all, dropped)
            }
            None => (Vec::new(), 0),
        };
        ServerReport {
            header,
            shard_lines,
            interval_lines,
            lost_acked,
            recovery_failures,
            spans,
            span_dropped,
        }
    }
}

fn accept_loop(listener: Listener, shared: &Arc<Shared>, conns: &Arc<Mutex<Vec<Conn>>>) {
    loop {
        let conn = match listener.accept() {
            Ok(c) => c,
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let read_half = match conn.try_clone() {
            Ok(r) => r,
            Err(_) => continue,
        };
        if let Ok(registry) = conn.try_clone() {
            conns.lock().unwrap().push(registry);
        }
        let shared = shared.clone();
        let reply = Replier(Arc::new(Mutex::new(conn)));
        let _ = std::thread::Builder::new()
            .name("conn".into())
            .spawn(move || reader_loop(read_half, reply, &shared));
    }
}

fn reader_loop(mut conn: Conn, reply: Replier, shared: &Arc<Shared>) {
    loop {
        let payload = match read_frame(&mut conn) {
            Ok(Some(p)) => p,
            Ok(None) | Err(_) => return,
        };
        let t0_us = shared.now_us();
        let req = match decode_request(&payload) {
            Ok(r) => r,
            Err(e) => {
                // Framing survives (the bad payload was length-delimited)
                // but the request is unusable; report and keep serving.
                reply.send(&Response::Error {
                    id: 0,
                    msg: format!("bad request: {e}"),
                });
                continue;
            }
        };
        match req {
            Request::Ping { id } => reply.send(&Response::Pong { id }),
            Request::Stats { id } => {
                let mut shards = Vec::with_capacity(shared.cfg.shards);
                for (i, snap) in shared.snapshots.iter().enumerate() {
                    let s = snap.lock().unwrap().clone();
                    shards.push(Json::obj([
                        ("shard", Json::U64(i as u64)),
                        ("counters", counters_json(&s.counters)),
                        ("committed_keys", Json::U64(s.committed)),
                    ]));
                }
                let doc = Json::obj([
                    ("record", Json::Str("serve-stats".into())),
                    ("uptime_ms", Json::U64(shared.now_ms())),
                    ("shards", Json::Arr(shards)),
                ]);
                reply.send(&Response::Report {
                    id,
                    json: doc.to_compact(),
                });
            }
            Request::Metrics { id } => {
                reply.send(&Response::Report {
                    id,
                    json: metrics_reply(shared).to_compact(),
                });
            }
            Request::Shutdown { id } => {
                reply.send(&Response::ShuttingDown { id });
                shared.shutdown.store(true, Ordering::SeqCst);
                shared.wake_all();
                shared.poke();
                return;
            }
            Request::Crash { id, shard } => {
                if (shard as usize) < shared.cfg.shards {
                    enqueue(
                        shared,
                        shard as usize,
                        Work::Crash {
                            id,
                            reply: reply.clone(),
                        },
                        /*admit_always=*/ true,
                    );
                } else {
                    reply.send(&Response::Error {
                        id,
                        msg: format!("no shard {shard}"),
                    });
                }
            }
            Request::Resolve { id, key, rid } => {
                // Answered from the owning shard's published resolver —
                // the committed (post-crash) stamp table — so the reply
                // never reflects volatile state, and never blocks on
                // the worker.
                let shard = route(key, shared.cfg.shards);
                let status = shared.snapshots[shard]
                    .lock()
                    .unwrap()
                    .resolver
                    .resolve(rid);
                let resp = match status {
                    ResolvedStatus::Done {
                        applied,
                        key,
                        batch,
                        ..
                    } => Response::Resolved {
                        id,
                        rid,
                        done: true,
                        applied,
                        key,
                        batch,
                    },
                    ResolvedStatus::NotStarted => Response::Resolved {
                        id,
                        rid,
                        done: false,
                        applied: false,
                        key: 0,
                        batch: 0,
                    },
                };
                reply.send(&resp);
                let mut rs = shared.resolves[shard].lock().unwrap();
                match status {
                    ResolvedStatus::Done { .. } => rs.done += 1,
                    ResolvedStatus::NotStarted => rs.not_started += 1,
                }
                rs.latency.record(shared.now_us().saturating_sub(t0_us));
            }
            Request::Get { id, key } | Request::Put { id, key } | Request::Del { id, key } => {
                let op = match req {
                    Request::Get { .. } => KvOp::Get(key),
                    Request::Put { .. } => KvOp::Put(key),
                    _ => KvOp::Del(key),
                };
                let shard = route(key, shared.cfg.shards);
                let root = match &shared.spans {
                    Some(logs) => logs[shard].lock().unwrap().alloc(),
                    None => 0,
                };
                let ctx = SpanCtx {
                    root,
                    t0_us,
                    t1_us: shared.now_us(),
                    t_enq_us: 0,
                    depth: 0,
                    bytes: payload.len() as u32,
                };
                let admitted = enqueue(
                    shared,
                    shard,
                    Work::Op {
                        op,
                        id,
                        reply: reply.clone(),
                        ctx,
                    },
                    false,
                );
                if !admitted {
                    let qlen = shared.queues[shard].q.lock().unwrap().len();
                    let per_batch = shared.batch_ms[shard].load(Ordering::Relaxed).max(1);
                    let backlog_batches = (qlen / shared.cfg.batch_max.max(1)) as u64 + 1;
                    let t_a0 = shared.now_us();
                    reply.send(&Response::Overloaded {
                        id,
                        retry_after_ms: (backlog_batches * per_batch).min(u32::MAX as u64) as u32,
                        queue_depth: qlen as u32,
                    });
                    if let Some(logs) = &shared.spans {
                        let times = ShedTimes {
                            op,
                            id,
                            depth: qlen as u32,
                            t_a0,
                            t_a1: shared.now_us(),
                        };
                        record_shed_chain(
                            &mut logs[shard].lock().unwrap(),
                            &ctx,
                            shard as u32,
                            times,
                        );
                    }
                }
            }
        }
    }
}

/// The wire op kind a span records (0 get, 1 put, 2 del).
fn op_code(op: KvOp) -> u8 {
    match op {
        KvOp::Get(_) => 0,
        KvOp::Put(_) => 1,
        KvOp::Del(_) => 2,
    }
}

struct ShedTimes {
    op: KvOp,
    id: u64,
    depth: u32,
    t_a0: u64,
    t_a1: u64,
}

/// Records the span chain of a load-shed request: admission rejected
/// it, so the chain is root + wire + queue(shed) + non-durable ack.
fn record_shed_chain(log: &mut SpanLog, ctx: &SpanCtx, track: u32, t: ShedTimes) {
    log.record(Span {
        id: ctx.root,
        parent: 0,
        req: t.id,
        track,
        start_us: ctx.t0_us,
        end_us: t.t_a1,
        phase: SpanPhase::Request { op: op_code(t.op) },
    });
    log.record(Span {
        id: 0,
        parent: ctx.root,
        req: t.id,
        track,
        start_us: ctx.t0_us,
        end_us: ctx.t1_us,
        phase: SpanPhase::Wire { bytes: ctx.bytes },
    });
    log.record(Span {
        id: 0,
        parent: ctx.root,
        req: t.id,
        track,
        start_us: ctx.t1_us,
        end_us: t.t_a0,
        phase: SpanPhase::Queue {
            depth: t.depth,
            shed: true,
        },
    });
    log.record(Span {
        id: 0,
        parent: ctx.root,
        req: t.id,
        track,
        start_us: t.t_a0,
        end_us: t.t_a1,
        phase: SpanPhase::Ack {
            durable: false,
            persist_stamp: 0,
            crashed: false,
        },
    });
}

/// The live `serve-metrics` snapshot (the `Metrics` admin reply).
fn metrics_reply(shared: &Arc<Shared>) -> Json {
    let uptime_ms = shared.now_ms();
    let mut shard_docs = Vec::with_capacity(shared.cfg.shards);
    let mut total_requests = 0u64;
    let mut total_shed = 0u64;
    let mut total_durable = 0u64;
    let mut total_obs_dropped = 0u64;
    let mut total_span_dropped = 0u64;
    let mut total_flight_dropped = 0u64;
    for i in 0..shared.cfg.shards {
        let snap = shared.snapshots[i].lock().unwrap().clone();
        let queue_depth = shared.queues[i].q.lock().unwrap().len() as u64;
        let totals = {
            let g = shared.gauges[i].lock().unwrap();
            [
                g.total(SLOT_ENQUEUED),
                g.total(SLOT_SHED),
                g.total(SLOT_COMPLETED),
                g.total(SLOT_BATCHES),
            ]
        };
        let (spans, span_dropped) = match &shared.spans {
            Some(logs) => {
                let log = logs[i].lock().unwrap();
                (log.len() as u64, log.dropped())
            }
            None => (0, 0),
        };
        let telem = ShardTelemetry {
            spans,
            span_dropped,
            flight_events: snap.flight_events,
            flight_dropped: snap.flight_dropped,
        };
        let detect = {
            let rs = shared.resolves[i].lock().unwrap();
            DetectStats {
                slot_occupied: snap.slot_occupied,
                slot_capacity: snap.slot_capacity,
                resolver_entries: snap.resolver.len() as u64,
                resolved_done: rs.done,
                resolved_not_started: rs.not_started,
                resolve_latency: rs.latency.clone(),
            }
        };
        let rps = if uptime_ms > 0 {
            snap.counters.requests as f64 * 1000.0 / uptime_ms as f64
        } else {
            0.0
        };
        total_requests += snap.counters.requests;
        total_shed += totals[SLOT_SHED];
        total_durable += snap.counters.acked_durable;
        total_obs_dropped += snap.counters.obs_dropped;
        total_span_dropped += span_dropped;
        total_flight_dropped += snap.flight_dropped;
        shard_docs.push(metrics_shard_json(
            i,
            &snap.counters,
            snap.committed,
            queue_depth,
            &totals,
            rps,
            &snap.ack_hist,
            &snap.dur_ack_hist,
            &telem,
            &snap.crit,
            &detect,
        ));
    }
    let throughput = if uptime_ms > 0 {
        total_requests as f64 * 1000.0 / uptime_ms as f64
    } else {
        0.0
    };
    let totals = Json::obj([
        ("requests", Json::U64(total_requests)),
        ("shed", Json::U64(total_shed)),
        ("acked_durable", Json::U64(total_durable)),
        ("throughput_rps", Json::F64(throughput)),
        ("obs_dropped", Json::U64(total_obs_dropped)),
        ("span_dropped", Json::U64(total_span_dropped)),
        ("flight_dropped", Json::U64(total_flight_dropped)),
    ]);
    metrics_snapshot_json(uptime_ms, shard_docs, totals)
}

/// Admits `work` to shard `i`'s queue. Returns false (and bumps the
/// shed counter) when admission control rejects it.
fn enqueue(shared: &Arc<Shared>, i: usize, mut work: Work, admit_always: bool) -> bool {
    let now = shared.now_ms();
    let mut q = shared.queues[i].q.lock().unwrap();
    if !admit_always && q.len() >= shared.cfg.queue_depth {
        drop(q);
        shared.gauges[i].lock().unwrap().bump(now, SLOT_SHED, 1);
        return false;
    }
    if let Work::Op { ctx, .. } = &mut work {
        ctx.t_enq_us = shared.now_us();
        ctx.depth = q.len() as u32;
    }
    q.push_back(work);
    let depth = q.len() as u64;
    shared.queues[i].cv.notify_all();
    drop(q);
    let mut g = shared.gauges[i].lock().unwrap();
    g.bump(now, SLOT_ENQUEUED, 1);
    g.note(now, depth);
    true
}

fn worker_loop(i: usize, shared: &Arc<Shared>) -> ShardFinal {
    let mut cfg = shared.cfg.shard.clone();
    cfg.seed = cfg
        .seed
        .wrapping_add((i as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03));
    let mut shard = Shard::new(cfg);
    let mut flight = FlightRecorder::new(shared.cfg.flight);
    let mut ack_hist = Hist::new();
    let mut dur_ack_hist = Hist::new();
    let track = i as u32;
    publish(shared, i, &shard, &ack_hist, &dur_ack_hist, &flight);

    loop {
        let (batch, t_open_us, t_close_us) = collect_batch(shared, i);
        if batch.is_empty() {
            if shared.shutdown.load(Ordering::SeqCst)
                && shared.queues[i].q.lock().unwrap().is_empty()
            {
                break;
            }
            continue;
        }
        let started = Instant::now();
        let mut answered = 0u64;
        let mut new_spans: Vec<Span> = Vec::new();
        let mut pending: Vec<(KvOp, u64, Replier, SpanCtx)> = Vec::new();
        for work in batch {
            match work {
                Work::Op { op, id, reply, ctx } => pending.push((op, id, reply, ctx)),
                Work::Crash { id, reply } => {
                    // Everything already drained for this batch is "in
                    // flight" at the crash: unacked, answered `Crashed`.
                    let ops: Vec<ShardReq> = pending
                        .iter()
                        .map(|(op, id, _, _)| ShardReq::new(*op, *id))
                        .collect();
                    let outcome = shard.crash(&ops);
                    // Republish before any `Crashed` reply leaves: a
                    // client that reacts to the crash with `Resolve`
                    // must see the post-restart resolver, not the
                    // previous batch's.
                    publish(shared, i, &shard, &ack_hist, &dur_ack_hist, &flight);
                    flight.push(FlightEvent::Crash {
                        t_ms: shared.now_ms(),
                        batch: outcome.batch,
                        crash_stamp: outcome.crash_stamp.unwrap_or(0),
                        recovered: outcome.consistent,
                        lost: outcome.lost_acked.len() as u32,
                        inflight: pending
                            .iter()
                            .map(|(op, rid, _, _)| (*rid, op_code(*op), op.key()))
                            .collect(),
                    });
                    if let Some(dir) = &shared.cfg.flight_dir {
                        let _ = flight.dump(dir, i, shard.counters().crashes);
                    }
                    for (op, rid, r, ctx) in pending.drain(..) {
                        let t_a0 = shared.now_us();
                        r.send(&Response::Crashed {
                            id: rid,
                            shard: i as u32,
                            batch: outcome.batch,
                        });
                        let t_a1 = shared.now_us();
                        ack_hist.record(t_a1.saturating_sub(ctx.t0_us));
                        if ctx.root != 0 {
                            // In-flight chain: wire + queue, then an
                            // unacked `Crashed` terminator (no batch/
                            // execute/persist — the batch never
                            // committed for this op).
                            new_spans.push(Span {
                                id: ctx.root,
                                parent: 0,
                                req: rid,
                                track,
                                start_us: ctx.t0_us,
                                end_us: t_a1,
                                phase: SpanPhase::Request { op: op_code(op) },
                            });
                            new_spans.push(Span {
                                id: 0,
                                parent: ctx.root,
                                req: rid,
                                track,
                                start_us: ctx.t0_us,
                                end_us: ctx.t1_us,
                                phase: SpanPhase::Wire { bytes: ctx.bytes },
                            });
                            new_spans.push(Span {
                                id: 0,
                                parent: ctx.root,
                                req: rid,
                                track,
                                start_us: ctx.t_enq_us,
                                end_us: t_close_us.max(ctx.t_enq_us),
                                phase: SpanPhase::Queue {
                                    depth: ctx.depth,
                                    shed: false,
                                },
                            });
                            new_spans.push(Span {
                                id: 0,
                                parent: ctx.root,
                                req: rid,
                                track,
                                start_us: t_a0,
                                end_us: t_a1,
                                phase: SpanPhase::Ack {
                                    durable: false,
                                    persist_stamp: 0,
                                    crashed: true,
                                },
                            });
                        }
                        answered += 1;
                    }
                    reply.send(&Response::Report {
                        id,
                        json: crash_json(i, &outcome).to_compact(),
                    });
                    answered += 1;
                }
            }
        }
        if !pending.is_empty() {
            let ops: Vec<ShardReq> = pending
                .iter()
                .map(|(op, id, _, _)| ShardReq::new(*op, *id))
                .collect();
            flight.push(FlightEvent::BatchStart {
                t_ms: shared.now_ms(),
                batch: shard.batches(),
                size: ops.len() as u32,
            });
            let ex0_us = shared.now_us();
            let results = shard.execute(&ops);
            let ex1_us = shared.now_us();
            // Republish before acks leave: a durable ack promises its
            // stamp is committed, so a follow-up `Resolve` must already
            // see it.
            publish(shared, i, &shard, &ack_hist, &dur_ack_hist, &flight);
            let breakdown = shard.last_breakdown();
            // Split the execute window at the simulator/stamping
            // boundary the shard measured.
            let exec_end_us = (ex0_us + breakdown.sim_us).min(ex1_us);
            let batch_no = results.first().map(|r| r.batch).unwrap_or(0);
            let size = ops.len() as u32;
            let mut durable_n = 0u32;
            let mut nondurable_n = 0u32;
            for ((op, id, reply, ctx), res) in pending.into_iter().zip(results) {
                let resp = match op {
                    KvOp::Get(_) => Response::Value {
                        id,
                        present: res.applied,
                        durable: res.durable,
                        batch: res.batch,
                        seq: res.seq,
                    },
                    KvOp::Put(_) | KvOp::Del(_) => Response::Done {
                        id,
                        applied: res.applied,
                        durable: res.durable,
                        batch: res.batch,
                        seq: res.seq,
                        persist_cycles: res.persist_cycles,
                    },
                };
                let t_a0 = shared.now_us();
                reply.send(&resp);
                let t_a1 = shared.now_us();
                answered += 1;
                let lat = t_a1.saturating_sub(ctx.t0_us);
                ack_hist.record(lat);
                if res.durable {
                    dur_ack_hist.record(lat);
                    durable_n += 1;
                } else {
                    nondurable_n += 1;
                }
                flight.push(FlightEvent::Request {
                    t_ms: shared.now_ms(),
                    batch: res.batch,
                    id,
                    kind: op_code(op),
                    key: op.key(),
                    durable: res.durable,
                    stamp: res.persist_cycles,
                });
                if ctx.root != 0 {
                    // The full wire→queue→batch→execute→persist→ack
                    // chain; the ack carries the persist stamp that
                    // justified a durable reply.
                    new_spans.push(Span {
                        id: ctx.root,
                        parent: 0,
                        req: id,
                        track,
                        start_us: ctx.t0_us,
                        end_us: t_a1,
                        phase: SpanPhase::Request { op: op_code(op) },
                    });
                    new_spans.push(Span {
                        id: 0,
                        parent: ctx.root,
                        req: id,
                        track,
                        start_us: ctx.t0_us,
                        end_us: ctx.t1_us,
                        phase: SpanPhase::Wire { bytes: ctx.bytes },
                    });
                    new_spans.push(Span {
                        id: 0,
                        parent: ctx.root,
                        req: id,
                        track,
                        start_us: ctx.t_enq_us,
                        end_us: t_close_us.max(ctx.t_enq_us),
                        phase: SpanPhase::Queue {
                            depth: ctx.depth,
                            shed: false,
                        },
                    });
                    new_spans.push(Span {
                        id: 0,
                        parent: ctx.root,
                        req: id,
                        track,
                        start_us: t_open_us.max(ctx.t_enq_us),
                        end_us: t_close_us.max(ctx.t_enq_us),
                        phase: SpanPhase::Batch {
                            batch: res.batch,
                            size,
                        },
                    });
                    new_spans.push(Span {
                        id: 0,
                        parent: ctx.root,
                        req: id,
                        track,
                        start_us: ex0_us,
                        end_us: exec_end_us,
                        phase: SpanPhase::Execute { batch: res.batch },
                    });
                    new_spans.push(Span {
                        id: 0,
                        parent: ctx.root,
                        req: id,
                        track,
                        start_us: exec_end_us,
                        end_us: ex1_us,
                        phase: SpanPhase::Persist {
                            batch: res.batch,
                            final_stamp: breakdown.final_stamp,
                        },
                    });
                    new_spans.push(Span {
                        id: 0,
                        parent: ctx.root,
                        req: id,
                        track,
                        start_us: t_a0,
                        end_us: t_a1,
                        phase: SpanPhase::Ack {
                            durable: res.durable,
                            persist_stamp: res.persist_cycles,
                            crashed: false,
                        },
                    });
                }
            }
            flight.push(FlightEvent::Persist {
                t_ms: shared.now_ms(),
                batch: batch_no,
                final_stamp: breakdown.final_stamp,
                durable: durable_n,
                nondurable: nondurable_n,
            });
        }
        if !new_spans.is_empty() {
            if let Some(logs) = &shared.spans {
                let mut log = logs[i].lock().unwrap();
                for s in new_spans {
                    log.record(s);
                }
            }
        }
        let elapsed = (started.elapsed().as_millis() as u64).max(1);
        shared.batch_ms[i].store(elapsed, Ordering::Relaxed);
        publish(shared, i, &shard, &ack_hist, &dur_ack_hist, &flight);
        let now = shared.now_ms();
        let depth = shared.queues[i].q.lock().unwrap().len() as u64;
        let mut g = shared.gauges[i].lock().unwrap();
        g.bump(now, SLOT_COMPLETED, answered);
        g.bump(now, SLOT_BATCHES, 1);
        g.note(now, depth);
    }

    let now = shared.now_ms();
    let mut g = shared.gauges[i].lock().unwrap();
    g.finish(now);
    ShardFinal {
        counters: shard.counters(),
        committed: shard.committed().len() as u64,
        stats: shard.stats.clone(),
        hists: shard.hists.clone(),
        intervals: g.intervals.clone(),
    }
}

fn publish(
    shared: &Arc<Shared>,
    i: usize,
    shard: &Shard,
    ack_hist: &Hist,
    dur_ack_hist: &Hist,
    flight: &FlightRecorder,
) {
    let (slot_occupied, slot_capacity) = shard.slot_occupancy();
    *shared.snapshots[i].lock().unwrap() = Snapshot {
        counters: shard.counters(),
        committed: shard.committed().len() as u64,
        ack_hist: ack_hist.clone(),
        dur_ack_hist: dur_ack_hist.clone(),
        flight_events: flight.len() as u64,
        flight_dropped: flight.dropped(),
        crit: shard.crit.clone(),
        resolver: shard.resolver(),
        slot_occupied,
        slot_capacity,
    };
}

/// Blocks until work is available, then closes the batch by size or
/// deadline. Returns the batch plus its open/close times (µs since
/// server start; both 0 for the empty shutdown batch).
fn collect_batch(shared: &Arc<Shared>, i: usize) -> (Vec<Work>, u64, u64) {
    let sq = &shared.queues[i];
    let mut q = sq.q.lock().unwrap();
    while q.is_empty() && !shared.shutdown.load(Ordering::SeqCst) {
        q = sq.cv.wait(q).unwrap();
    }
    if q.is_empty() {
        return (Vec::new(), 0, 0);
    }
    let t_open_us = shared.now_us();
    let deadline = Instant::now() + Duration::from_millis(shared.cfg.batch_wait_ms);
    while q.len() < shared.cfg.batch_max && !shared.shutdown.load(Ordering::SeqCst) {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            break;
        }
        let (guard, timeout) = sq.cv.wait_timeout(q, remaining).unwrap();
        q = guard;
        if timeout.timed_out() {
            break;
        }
    }
    let take = q.len().min(shared.cfg.batch_max);
    let batch: Vec<Work> = q.drain(..take).collect();
    (batch, t_open_us, shared.now_us())
}
