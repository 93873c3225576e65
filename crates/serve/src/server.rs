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
use crate::metrics::{
    crash_json, flight_dump_jsonl, header_json, interval_json, metrics_shard_json,
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
    /// Spans each shard's drop-oldest request log retains (`0` keeps
    /// none but still counts). Every answered request records its span
    /// chain there; the log feeds [`ServerReport::chrome_trace`] and the
    /// crash dump.
    pub spans: usize,
    /// Directory a crash-restarting shard appends its crash dump to
    /// (`flight-shard-<i>.jsonl`: header, `crash` line, then the span
    /// log), so every `Crashed` reply can be explained afterwards.
    pub flight_dir: Option<std::path::PathBuf>,
}

impl ServerConfig {
    /// Defaults: 2 shards on an ephemeral loopback port, batches of 16
    /// closed after 5 ms, 64-deep queues, 65,536 spans per shard.
    pub fn new(shard: ShardConfig) -> ServerConfig {
        ServerConfig {
            bind: Bind::Tcp("127.0.0.1:0".into()),
            shards: 2,
            shard,
            batch_max: 16,
            batch_wait_ms: 5,
            queue_depth: 64,
            metrics_every_ms: 250,
            spans: 65536,
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

/// One stream socket, TCP or Unix-domain: the server side of an
/// accepted connection and the client side of [`crate::Client`]. TCP
/// sockets always carry `TCP_NODELAY` (see [`crate::codec::write_frame`]:
/// a frame is one write of a complete request or reply, and the batcher
/// already coalesces, so Nagle would only add a delayed-ACK wait).
pub(crate) enum Conn {
    Tcp(TcpStream),
    #[cfg(unix)]
    Uds(std::os::unix::net::UnixStream),
}

impl Conn {
    /// Connects to a listening server.
    pub(crate) fn dial(bind: &Bind) -> io::Result<Conn> {
        match bind {
            Bind::Tcp(addr) => Conn::tcp(TcpStream::connect(addr)?),
            #[cfg(unix)]
            Bind::Uds(path) => Ok(Conn::Uds(std::os::unix::net::UnixStream::connect(path)?)),
        }
    }

    fn tcp(s: TcpStream) -> io::Result<Conn> {
        s.set_nodelay(true)?;
        Ok(Conn::Tcp(s))
    }

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
    /// Accepts one connection.
    fn accept(&self) -> io::Result<Conn> {
        match self {
            Listener::Tcp(l) => Conn::tcp(l.accept()?.0),
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

/// Per-request telemetry carried with the op through the queue
/// (µs since server start): the span chain and the ack-latency
/// histograms are built from it.
#[derive(Clone, Copy, Default)]
struct SpanCtx {
    /// Frame received.
    t0_us: u64,
    /// Request decoded and routed.
    t1_us: u64,
    /// Admitted to the shard queue.
    t_enq_us: u64,
    /// Queue depth observed at admission (or rejection).
    depth: u32,
    /// Payload bytes.
    bytes: u32,
}

/// A routed get/put/del awaiting its reply.
struct Pending {
    op: KvOp,
    id: u64,
    reply: Replier,
    ctx: SpanCtx,
}

enum Work {
    Op(Pending),
    Crash { id: u64, reply: Replier },
}

struct ShardQueue {
    q: Mutex<VecDeque<Work>>,
    cv: Condvar,
}

/// Snapshot a reader can serve in a `Metrics` reply without
/// touching the worker-owned shard.
#[derive(Clone, Default)]
struct Snapshot {
    counters: ShardCounters,
    committed: u64,
    /// Wire-to-ack latency of every worker-answered request (µs).
    ack_hist: Hist,
    /// Wire-to-ack latency of durably-acked requests only (µs).
    dur_ack_hist: Hist,
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
    /// Per-shard request span logs.
    spans: Vec<Mutex<SpanLog>>,
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

    /// Every request span retained at shutdown. Feed to
    /// [`lrp_obs::span::audit_chains`] or [`ServerReport::chrome_trace`].
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
            spans: (0..shards)
                .map(|_| Mutex::new(SpanLog::new(cfg.spans)))
                .collect(),
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
        let mut spans = Vec::new();
        let mut span_dropped = 0;
        for log in &self.shared.spans {
            let mut log = log.lock().unwrap();
            span_dropped += log.dropped();
            spans.extend(log.drain());
        }
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
                    let work = Work::Crash {
                        id,
                        reply: reply.clone(),
                    };
                    let _ = enqueue(shared, shard as usize, work, /*admit_always=*/ true);
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
                let ctx = SpanCtx {
                    t0_us,
                    t1_us: shared.now_us(),
                    t_enq_us: 0,
                    depth: 0,
                    bytes: payload.len() as u32,
                };
                let work = Work::Op(Pending {
                    op,
                    id,
                    reply: reply.clone(),
                    ctx,
                });
                if let Err(Work::Op(mut p)) = enqueue(shared, shard, work, false) {
                    let qlen = shared.queues[shard].q.lock().unwrap().len();
                    let per_batch = shared.batch_ms[shard].load(Ordering::Relaxed).max(1);
                    let backlog_batches = (qlen / shared.cfg.batch_max.max(1)) as u64 + 1;
                    p.ctx.depth = qlen as u32;
                    let resp = Response::Overloaded {
                        id,
                        retry_after_ms: (backlog_batches * per_batch).min(u32::MAX as u64) as u32,
                        queue_depth: qlen as u32,
                    };
                    answer(shared, shard, &p, &resp, End::Shed);
                }
            }
        }
    }
}

/// One executed batch's timeline (µs since server start), shared by
/// the span chains of every request it answers.
struct BatchWindow {
    batch: u64,
    size: u32,
    /// Batch formation: first op available → batch closed.
    open_us: u64,
    close_us: u64,
    /// `Shard::execute` start, its simulator/stamping boundary, and end.
    exec_us: u64,
    persist_us: u64,
    done_us: u64,
    final_stamp: u64,
}

/// How a request ended; picks its span chain's shape.
enum End<'a> {
    /// Refused by admission control: root + wire + queue(shed) + ack.
    Shed,
    /// In flight when its shard crashed (the batch closed at
    /// `close_us`): root + wire + queue + ack(crashed).
    Crashed { close_us: u64 },
    /// Executed in a committed batch: root + wire + queue + batch +
    /// execute + persist + ack, the ack carrying the persist stamp that
    /// justified a durable reply.
    Committed {
        win: &'a BatchWindow,
        durable: bool,
        stamp: u64,
    },
}

/// Answers a request: writes `resp`, then records the request's span
/// chain in its shard's log (allocating the root id there). Every
/// get/put/del reply — shed, crashed or committed — goes through here.
/// Returns the wire-to-ack latency in microseconds.
fn answer(shared: &Shared, shard: usize, p: &Pending, resp: &Response, end: End<'_>) -> u64 {
    let t_a0 = shared.now_us();
    p.reply.send(resp);
    let t_a1 = shared.now_us();
    let c = &p.ctx;
    let track = shard as u32;
    let mut log = shared.spans[shard].lock().unwrap();
    let root = log.alloc();
    log.record(Span {
        id: root,
        parent: 0,
        req: p.id,
        track,
        start_us: c.t0_us,
        end_us: t_a1,
        phase: SpanPhase::Request { op: p.op.code() },
    });
    let mut child = |start_us: u64, end_us: u64, phase: SpanPhase| {
        log.record(Span {
            id: 0,
            parent: root,
            req: p.id,
            track,
            start_us,
            end_us,
            phase,
        })
    };
    child(c.t0_us, c.t1_us, SpanPhase::Wire { bytes: c.bytes });
    // A shed request queued from routing until its rejection was
    // answered; an admitted one from admission until its batch closed.
    let (queue_start, queue_end, shed) = match end {
        End::Shed => (c.t1_us, t_a0, true),
        End::Crashed { close_us } => (c.t_enq_us, close_us, false),
        End::Committed { win, .. } => (c.t_enq_us, win.close_us, false),
    };
    let queue_end = queue_end.max(queue_start);
    let depth = c.depth;
    child(queue_start, queue_end, SpanPhase::Queue { depth, shed });
    let (durable, persist_stamp, crashed) = match end {
        End::Shed => (false, 0, false),
        End::Crashed { .. } => (false, 0, true),
        End::Committed {
            win,
            durable,
            stamp,
        } => {
            let (batch, size, final_stamp) = (win.batch, win.size, win.final_stamp);
            let batch_start = win.open_us.max(c.t_enq_us);
            child(batch_start, queue_end, SpanPhase::Batch { batch, size });
            child(win.exec_us, win.persist_us, SpanPhase::Execute { batch });
            let persist = SpanPhase::Persist { batch, final_stamp };
            child(win.persist_us, win.done_us, persist);
            (durable, stamp, false)
        }
    };
    let ack = SpanPhase::Ack {
        durable,
        persist_stamp,
        crashed,
    };
    child(t_a0, t_a1, ack);
    t_a1.saturating_sub(c.t0_us)
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
        let telem = {
            let log = shared.spans[i].lock().unwrap();
            ShardTelemetry {
                spans: log.len() as u64,
                span_dropped: log.dropped(),
            }
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
        total_span_dropped += telem.span_dropped;
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
    ]);
    metrics_snapshot_json(uptime_ms, shard_docs, totals)
}

/// Admits `work` to shard `i`'s queue. Hands it back (and bumps the
/// shed counter) when admission control rejects it.
fn enqueue(shared: &Arc<Shared>, i: usize, mut work: Work, admit_always: bool) -> Result<(), Work> {
    let now = shared.now_ms();
    let mut q = shared.queues[i].q.lock().unwrap();
    if !admit_always && q.len() >= shared.cfg.queue_depth {
        drop(q);
        shared.gauges[i].lock().unwrap().bump(now, SLOT_SHED, 1);
        return Err(work);
    }
    if let Work::Op(p) = &mut work {
        p.ctx.t_enq_us = shared.now_us();
        p.ctx.depth = q.len() as u32;
    }
    q.push_back(work);
    let depth = q.len() as u64;
    shared.queues[i].cv.notify_all();
    drop(q);
    let mut g = shared.gauges[i].lock().unwrap();
    g.bump(now, SLOT_ENQUEUED, 1);
    g.note(now, depth);
    Ok(())
}

fn worker_loop(i: usize, shared: &Arc<Shared>) -> ShardFinal {
    let mut cfg = shared.cfg.shard.clone();
    cfg.seed = cfg
        .seed
        .wrapping_add((i as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03));
    let mut shard = Shard::new(cfg);
    let mut ack_hist = Hist::new();
    let mut dur_ack_hist = Hist::new();
    publish(shared, i, &shard, &ack_hist, &dur_ack_hist);

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
        let mut pending: Vec<Pending> = Vec::new();
        for work in batch {
            match work {
                Work::Op(p) => pending.push(p),
                Work::Crash { id, reply } => {
                    // Everything already drained for this batch is "in
                    // flight" at the crash: unacked, answered `Crashed`.
                    let ops: Vec<ShardReq> =
                        pending.iter().map(|p| ShardReq::new(p.op, p.id)).collect();
                    let outcome = shard.crash(&ops);
                    // Republish before any `Crashed` reply leaves: a
                    // client that reacts to the crash with `Resolve`
                    // must see the post-restart resolver, not the
                    // previous batch's.
                    publish(shared, i, &shard, &ack_hist, &dur_ack_hist);
                    for p in pending.drain(..) {
                        let resp = Response::Crashed {
                            id: p.id,
                            shard: i as u32,
                            batch: outcome.batch,
                        };
                        let end = End::Crashed {
                            close_us: t_close_us,
                        };
                        ack_hist.record(answer(shared, i, &p, &resp, end));
                        answered += 1;
                    }
                    // The dump follows the crashed chains, so it
                    // explains every `Crashed` reply just sent.
                    if let Some(dir) = &shared.cfg.flight_dir {
                        let dump = flight_dump_jsonl(
                            i,
                            shard.counters().crashes,
                            shared.now_ms(),
                            &outcome,
                            &ops,
                            &shared.spans[i].lock().unwrap(),
                        );
                        let _ = append_dump(dir, i, &dump);
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
            let ops: Vec<ShardReq> = pending.iter().map(|p| ShardReq::new(p.op, p.id)).collect();
            let exec_us = shared.now_us();
            let results = shard.execute(&ops);
            let done_us = shared.now_us();
            // Republish before acks leave: a durable ack promises its
            // stamp is committed, so a follow-up `Resolve` must already
            // see it.
            publish(shared, i, &shard, &ack_hist, &dur_ack_hist);
            let breakdown = shard.last_breakdown();
            // Split the execute window at the simulator/stamping
            // boundary the shard measured.
            let win = BatchWindow {
                batch: results[0].batch,
                size: ops.len() as u32,
                open_us: t_open_us,
                close_us: t_close_us,
                exec_us,
                persist_us: (exec_us + breakdown.sim_us).min(done_us),
                done_us,
                final_stamp: breakdown.final_stamp,
            };
            for (p, res) in pending.iter().zip(results) {
                let resp = match p.op {
                    KvOp::Get(_) => Response::Value {
                        id: p.id,
                        present: res.applied,
                        durable: res.durable,
                        batch: res.batch,
                        seq: res.seq,
                    },
                    KvOp::Put(_) | KvOp::Del(_) => Response::Done {
                        id: p.id,
                        applied: res.applied,
                        durable: res.durable,
                        batch: res.batch,
                        seq: res.seq,
                        persist_cycles: res.persist_cycles,
                    },
                };
                let end = End::Committed {
                    win: &win,
                    durable: res.durable,
                    stamp: res.persist_cycles,
                };
                let lat = answer(shared, i, p, &resp, end);
                answered += 1;
                ack_hist.record(lat);
                if res.durable {
                    dur_ack_hist.record(lat);
                }
            }
        }
        let elapsed = (started.elapsed().as_millis() as u64).max(1);
        shared.batch_ms[i].store(elapsed, Ordering::Relaxed);
        publish(shared, i, &shard, &ack_hist, &dur_ack_hist);
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

/// Appends one crash dump to `<dir>/flight-shard-<shard>.jsonl`
/// (successive crashes append).
fn append_dump(dir: &std::path::Path, shard: usize, dump: &str) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join(format!("flight-shard-{shard}.jsonl")))?;
    io::Write::write_all(&mut f, dump.as_bytes())
}

fn publish(shared: &Arc<Shared>, i: usize, shard: &Shard, ack_hist: &Hist, dur_ack_hist: &Hist) {
    let (slot_occupied, slot_capacity) = shard.slot_occupancy();
    *shared.snapshots[i].lock().unwrap() = Snapshot {
        counters: shard.counters(),
        committed: shard.committed().len() as u64,
        ack_hist: ack_hist.clone(),
        dur_ack_hist: dur_ack_hist.clone(),
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
