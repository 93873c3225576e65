//! The lockstep scheduler and the gated thread context.
//!
//! Worker bodies run on real OS threads but park before every memory
//! access; the scheduler (running on the caller's thread) gathers one
//! pending access per live worker, picks the next to perform according to
//! the policy, applies it to the functional memory, records the event,
//! and wakes the worker with the result. Scheduling decisions depend only
//! on the seed and recorded history, so the produced trace is a
//! deterministic function of `(config, setup, bodies)`.

use crate::ctx::{Arenas, DirectCtx, PmemCtx, Recorder};
use crate::mem::SharedMem;
use crate::rng::Xorshift64;
use lrp_model::{Addr, Annot, FxHashMap, OpKind, ThreadId, Trace};
use std::sync::mpsc::{channel, Receiver, Sender};

/// How the scheduler chooses among parked threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Rotate fairly over runnable threads.
    RoundRobin,
    /// Uniform seeded choice among runnable threads — explores more
    /// interleavings; the default for workload generation.
    Random(u64),
}

/// Executor configuration.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Number of worker threads.
    pub threads: ThreadId,
    /// Scheduling policy.
    pub sched: SchedPolicy,
    /// Seed for per-thread RNGs (skip-list levels etc.).
    pub seed: u64,
    /// If true, the setup closure's accesses are recorded as trace events
    /// (issued by the extra thread id `threads`); otherwise setup only
    /// produces the initial durable memory image, matching the paper's
    /// convention that statistics start after pre-population (§6.1).
    pub record_setup: bool,
}

impl ExecConfig {
    /// A config with `threads` workers, random scheduling, and seed 1.
    pub fn new(threads: ThreadId) -> Self {
        ExecConfig {
            threads,
            sched: SchedPolicy::Random(1),
            seed: 1,
            record_setup: false,
        }
    }

    /// Sets the scheduling policy.
    pub fn policy(mut self, p: SchedPolicy) -> Self {
        self.sched = p;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// Enables recording of the setup phase.
    pub fn record_setup(mut self, yes: bool) -> Self {
        self.record_setup = yes;
        self
    }
}

/// A worker body: runs once with a gated context.
pub type ThreadBody = Box<dyn FnOnce(&mut GateCtx) + Send>;

#[derive(Debug)]
enum Req {
    Read(Addr, Annot),
    Write(Addr, u64, Annot),
    Cas(Addr, u64, u64, Annot),
    Alloc(usize),
    OpBegin(OpKind),
    OpEnd(u64),
    /// First use of a site label on this thread: ships the string once;
    /// the scheduler appends the recorder's label id to the thread's
    /// label table. The `bool` selects op-prefix (`true`) vs phase.
    SiteNew(String, bool),
    /// Repeat use: an index into this thread's label table. Steady-state
    /// site changes ship 4 bytes instead of a heap-allocated `String`.
    SiteOp(u32),
    SitePhase(u32),
    Done,
}

#[derive(Debug)]
enum Resp {
    Val(u64),
    Addr(Addr),
    Cas(bool, u64),
}

/// The gated per-thread context handed to worker bodies.
pub struct GateCtx {
    tid: ThreadId,
    tx: Sender<Req>,
    rx: Receiver<Resp>,
    rng: Xorshift64,
    /// Local site-label interning: label → index into this thread's
    /// scheduler-side label table. A label is shipped as a `String`
    /// only the first time; after that site changes are integer sends.
    labels: FxHashMap<String, u32>,
}

impl GateCtx {
    fn roundtrip(&mut self, req: Req) -> Resp {
        self.tx.send(req).expect("scheduler hung up");
        self.rx.recv().expect("scheduler hung up")
    }

    /// Local index for `label`, registering it with the scheduler on
    /// first use. `is_op` tags the registration so the scheduler can
    /// apply it immediately (a registration is also a site change).
    fn label_index(&mut self, label: &str, is_op: bool) -> Option<u32> {
        if let Some(&i) = self.labels.get(label) {
            return Some(i);
        }
        let i = self.labels.len() as u32;
        self.labels.insert(label.to_string(), i);
        self.tx
            .send(Req::SiteNew(label.to_string(), is_op))
            .expect("scheduler hung up");
        None
    }
}

impl PmemCtx for GateCtx {
    fn tid(&self) -> ThreadId {
        self.tid
    }

    fn read_annot(&mut self, addr: Addr, annot: Annot) -> u64 {
        match self.roundtrip(Req::Read(addr, annot)) {
            Resp::Val(v) => v,
            r => unreachable!("bad response {r:?}"),
        }
    }

    fn write_annot(&mut self, addr: Addr, val: u64, annot: Annot) {
        match self.roundtrip(Req::Write(addr, val, annot)) {
            Resp::Val(_) => {}
            r => unreachable!("bad response {r:?}"),
        }
    }

    fn cas_annot(&mut self, addr: Addr, old: u64, new: u64, annot: Annot) -> (bool, u64) {
        match self.roundtrip(Req::Cas(addr, old, new, annot)) {
            Resp::Cas(ok, observed) => (ok, observed),
            r => unreachable!("bad response {r:?}"),
        }
    }

    fn alloc(&mut self, words: usize) -> Addr {
        match self.roundtrip(Req::Alloc(words)) {
            Resp::Addr(a) => a,
            r => unreachable!("bad response {r:?}"),
        }
    }

    fn rand(&mut self) -> u64 {
        self.rng.next_u64()
    }

    fn op_begin(&mut self, op: OpKind) {
        self.tx.send(Req::OpBegin(op)).expect("scheduler hung up");
    }

    fn op_end(&mut self, result: u64) {
        self.tx.send(Req::OpEnd(result)).expect("scheduler hung up");
    }

    fn site_op(&mut self, label: &str) {
        if let Some(i) = self.label_index(label, true) {
            self.tx.send(Req::SiteOp(i)).expect("scheduler hung up");
        }
    }

    fn site_phase(&mut self, phase: &str) {
        if let Some(i) = self.label_index(phase, false) {
            self.tx.send(Req::SitePhase(i)).expect("scheduler hung up");
        }
    }
}

/// Runs `setup` immediately (producing the initial durable image), then
/// runs the worker `bodies` under lockstep scheduling, returning the
/// recorded trace.
///
/// Panics in worker bodies are propagated after the remaining workers
/// finish or park.
pub fn run(cfg: &ExecConfig, setup: impl FnOnce(&mut DirectCtx), bodies: Vec<ThreadBody>) -> Trace {
    let mut direct = DirectCtx::new(cfg.threads, cfg.seed);
    if cfg.record_setup {
        direct.start_recording();
    }
    setup(&mut direct);
    let DirectCtx {
        mut mem,
        mut arenas,
        roots,
        rec,
        ..
    } = direct;
    // A recorded setup is part of the trace, as the extra thread;
    // otherwise it is the trace's initial image.
    let (rec, initial_mem) = match rec {
        Some(rec) => (rec, Vec::new()),
        None => (Recorder::new(), mem.snapshot()),
    };
    let mut trace = schedule(cfg, &mut mem, &mut arenas, roots, rec, bodies);
    trace.initial_mem = initial_mem;
    trace.nthreads += u16::from(cfg.record_setup);
    trace
}

/// Runs the worker `bodies` under lockstep scheduling on caller-owned
/// functional memory, arenas and roots, which stay with the caller: a
/// long-lived owner (a serving shard) runs batch after batch on one
/// warm heap, and the arenas' bump pointers carry over, so a later run
/// never reuses an address an earlier one allocated.
///
/// The returned trace's `initial_mem` is empty: which words the trace
/// starts from (and treats as durable) is the caller's statement.
/// `cfg.record_setup` is ignored — there is no setup phase.
pub fn run_on(
    cfg: &ExecConfig,
    mem: &mut SharedMem,
    arenas: &mut Arenas,
    roots: &[(String, Addr)],
    bodies: Vec<ThreadBody>,
) -> Trace {
    schedule(cfg, mem, arenas, roots.to_vec(), Recorder::new(), bodies)
}

/// The one scheduler loop behind [`run`] and [`run_on`]: spawns the
/// workers, interleaves their accesses on `mem`, and assembles the
/// trace from `rec` (which may already hold recorded setup events).
fn schedule(
    cfg: &ExecConfig,
    mem: &mut SharedMem,
    arenas: &mut Arenas,
    roots: Vec<(String, Addr)>,
    rec: Recorder,
    bodies: Vec<ThreadBody>,
) -> Trace {
    let n = bodies.len();
    assert_eq!(
        n, cfg.threads as usize,
        "bodies must match cfg.threads ({} != {})",
        n, cfg.threads
    );

    let mut sched = Scheduler {
        mem,
        arenas,
        rec,
        policy_rng: match cfg.sched {
            SchedPolicy::Random(s) => Some(Xorshift64::new(s)),
            SchedPolicy::RoundRobin => None,
        },
        cursor: 0,
        labels: vec![Vec::new(); n],
    };

    let mut req_rxs = Vec::with_capacity(n);
    let mut resp_txs = Vec::with_capacity(n);
    let mut handles = Vec::with_capacity(n);
    for (i, body) in bodies.into_iter().enumerate() {
        let (req_tx, req_rx) = channel();
        let (resp_tx, resp_rx) = channel();
        req_rxs.push(req_rx);
        resp_txs.push(resp_tx);
        let mut ctx = GateCtx {
            tid: i as ThreadId,
            tx: req_tx,
            rx: resp_rx,
            rng: Xorshift64::new(
                cfg.seed
                    .wrapping_mul(0x9E37_79B9)
                    .wrapping_add(i as u64 + 1),
            ),
            labels: FxHashMap::default(),
        };
        handles.push(std::thread::spawn(move || {
            body(&mut ctx);
            let _ = ctx.tx.send(Req::Done);
        }));
    }

    sched.run_loop(n, &req_rxs, &resp_txs);

    let mut panic_payload = None;
    for h in handles {
        if let Err(p) = h.join() {
            panic_payload = Some(p);
        }
    }
    if let Some(p) = panic_payload {
        std::panic::resume_unwind(p);
    }

    let heap_range = sched.arenas.used_range();
    let (events, markers, site_names, event_sites) = sched.rec.into_trace_parts();
    Trace {
        nthreads: cfg.threads,
        events,
        initial_mem: Vec::new(),
        markers,
        roots,
        heap_range,
        site_names,
        event_sites,
    }
}

struct Scheduler<'a> {
    mem: &'a mut SharedMem,
    arenas: &'a mut Arenas,
    rec: Recorder,
    policy_rng: Option<Xorshift64>,
    cursor: usize,
    /// Per-thread label tables: worker-local label index → recorder
    /// label id (built up by `Req::SiteNew`, consulted by the integer
    /// site messages).
    labels: Vec<Vec<u16>>,
}

impl Scheduler<'_> {
    /// Gathers from thread `t` until it parks at an access or finishes.
    /// Returns the parked access, or `None` if the thread is done.
    fn gather(&mut self, t: usize, rx: &Receiver<Req>, tx: &Sender<Resp>) -> Option<Req> {
        loop {
            match rx.recv() {
                Ok(req @ (Req::Read(..) | Req::Write(..) | Req::Cas(..))) => return Some(req),
                Ok(Req::Alloc(words)) => {
                    let a = self.arenas.alloc(t, words);
                    let _ = tx.send(Resp::Addr(a));
                }
                Ok(Req::OpBegin(op)) => self.rec.begin(t as ThreadId, op),
                Ok(Req::OpEnd(r)) => self.rec.end(t as ThreadId, r),
                Ok(Req::SiteNew(label, is_op)) => {
                    let id = self.rec.register_label(&label);
                    self.labels[t].push(id);
                    if is_op {
                        self.rec.site_op_id(t as ThreadId, id);
                    } else {
                        self.rec.site_phase_id(t as ThreadId, id);
                    }
                }
                Ok(Req::SiteOp(i)) => {
                    let id = self.labels[t][i as usize];
                    self.rec.site_op_id(t as ThreadId, id);
                }
                Ok(Req::SitePhase(i)) => {
                    let id = self.labels[t][i as usize];
                    self.rec.site_phase_id(t as ThreadId, id);
                }
                Ok(Req::Done) | Err(_) => return None,
            }
        }
    }

    fn apply(&mut self, t: usize, req: Req, tx: &Sender<Resp>) {
        let tid = t as ThreadId;
        match req {
            Req::Read(addr, annot) => {
                let v = self.mem.read(addr);
                self.rec.read(tid, addr, annot, v);
                let _ = tx.send(Resp::Val(v));
            }
            Req::Write(addr, val, annot) => {
                self.mem.write(addr, val);
                self.rec.write(tid, addr, annot, val);
                let _ = tx.send(Resp::Val(0));
            }
            Req::Cas(addr, old, new, annot) => {
                let (ok, observed) = self.mem.cas(addr, old, new);
                self.rec.cas(tid, addr, annot, ok, observed, new);
                let _ = tx.send(Resp::Cas(ok, observed));
            }
            _ => unreachable!("apply called with a non-access request"),
        }
    }

    fn pick(&mut self, runnable: &[usize]) -> usize {
        match &mut self.policy_rng {
            Some(rng) => runnable[rng.below(runnable.len() as u64) as usize],
            None => {
                // Round-robin: first runnable at or after the cursor.
                let t = *runnable
                    .iter()
                    .find(|&&t| t >= self.cursor)
                    .unwrap_or(&runnable[0]);
                self.cursor = t + 1;
                t
            }
        }
    }

    fn run_loop(&mut self, n: usize, req_rxs: &[Receiver<Req>], resp_txs: &[Sender<Resp>]) {
        let mut parked: Vec<Option<Req>> = (0..n).map(|_| None).collect();
        let mut alive = vec![true; n];
        let mut need_gather = vec![true; n];
        loop {
            for t in 0..n {
                if alive[t] && need_gather[t] {
                    match self.gather(t, &req_rxs[t], &resp_txs[t]) {
                        Some(req) => parked[t] = Some(req),
                        None => alive[t] = false,
                    }
                    need_gather[t] = false;
                }
            }
            let runnable: Vec<usize> = (0..n).filter(|&t| parked[t].is_some()).collect();
            if runnable.is_empty() {
                break;
            }
            let t = self.pick(&runnable);
            let req = parked[t].take().expect("picked thread is parked");
            self.apply(t, req, &resp_txs[t]);
            need_gather[t] = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::Arenas;
    use lrp_model::EventKind;

    fn message_passing(policy: SchedPolicy) -> Trace {
        let cfg = ExecConfig::new(2).policy(policy);
        run(
            &cfg,
            |s| s.write(0x1000, 0),
            vec![
                Box::new(|c: &mut GateCtx| {
                    c.write(0x2000, 7);
                    c.write_rel(0x1000, 1);
                }),
                Box::new(|c: &mut GateCtx| {
                    while c.read_acq(0x1000) == 0 {}
                    assert_eq!(c.read(0x2000), 7);
                }),
            ],
        )
    }

    #[test]
    fn message_passing_round_robin() {
        let t = message_passing(SchedPolicy::RoundRobin);
        t.validate().unwrap();
        assert!(t.events.len() >= 4);
    }

    #[test]
    fn message_passing_random() {
        let t = message_passing(SchedPolicy::Random(99));
        t.validate().unwrap();
    }

    #[test]
    fn deterministic_traces() {
        let a = message_passing(SchedPolicy::Random(5));
        let b = message_passing(SchedPolicy::Random(5));
        assert_eq!(a.events, b.events);
        let c = message_passing(SchedPolicy::Random(6));
        // Different seed almost surely interleaves differently.
        assert_ne!(a.events, c.events);
    }

    #[test]
    fn setup_image_becomes_initial_mem() {
        let cfg = ExecConfig::new(1);
        let t = run(
            &cfg,
            |s| {
                s.write(0x1000, 42);
                s.set_root("head", 0x1000);
            },
            vec![Box::new(|c: &mut GateCtx| {
                assert_eq!(c.read(0x1000), 42);
            })],
        );
        t.validate().unwrap();
        assert_eq!(t.initial_mem, vec![(0x1000, 42)]);
        assert_eq!(t.roots, vec![("head".to_string(), 0x1000)]);
        assert_eq!(t.events.len(), 1);
    }

    #[test]
    fn recorded_setup_appears_as_events() {
        let cfg = ExecConfig::new(1).record_setup(true);
        let t = run(
            &cfg,
            |s| s.write(0x1000, 42),
            vec![Box::new(|c: &mut GateCtx| {
                assert_eq!(c.read(0x1000), 42);
            })],
        );
        t.validate().unwrap();
        assert!(t.initial_mem.is_empty());
        assert_eq!(t.events.len(), 2);
        assert_eq!(t.events[0].tid, 1, "setup runs as the extra thread id");
        assert_eq!(t.nthreads, 2);
    }

    #[test]
    fn cas_contention_single_winner() {
        let cfg = ExecConfig::new(4).policy(SchedPolicy::Random(3));
        let t = run(
            &cfg,
            |s| s.write(0x1000, 0),
            (0..4)
                .map(|i| {
                    Box::new(move |c: &mut GateCtx| {
                        c.cas_acq_rel(0x1000, 0, i + 1);
                    }) as ThreadBody
                })
                .collect(),
        );
        t.validate().unwrap();
        let wins = t
            .events
            .iter()
            .filter(|e| e.kind == EventKind::RmwSuccess)
            .count();
        assert_eq!(wins, 1);
    }

    #[test]
    fn alloc_and_markers_flow_through_gate() {
        let cfg = ExecConfig::new(2);
        let t = run(
            &cfg,
            |_| {},
            (0..2)
                .map(|_| {
                    Box::new(|c: &mut GateCtx| {
                        c.op_begin(OpKind::Insert(1, 2));
                        let p = c.alloc(2);
                        c.write(p, 1);
                        c.write(p + 8, 2);
                        c.op_end(1);
                    }) as ThreadBody
                })
                .collect(),
        );
        t.validate().unwrap();
        assert_eq!(t.markers.len(), 2);
        assert_eq!(t.events.len(), 4);
        // Distinct arenas: the four writes hit four distinct addresses.
        let addrs: std::collections::HashSet<_> = t.events.iter().map(|e| e.addr).collect();
        assert_eq!(addrs.len(), 4);
        assert!(t.heap_range.1 > t.heap_range.0);
    }

    #[test]
    fn run_on_keeps_the_heap_warm_across_runs() {
        let cfg = ExecConfig::new(1);
        let mut mem = SharedMem::new();
        let mut arenas = Arenas::new(2);
        let roots = vec![("cell".to_string(), 0x1000)];
        mem.write(0x1000, 1);
        let body = || {
            vec![Box::new(|c: &mut GateCtx| {
                let v = c.read(0x1000);
                let p = c.alloc(1);
                c.write(p, v);
                c.write(0x1000, v + 1);
            }) as ThreadBody]
        };
        let mut a = run_on(&cfg, &mut mem, &mut arenas, &roots, body());
        let b = run_on(&cfg, &mut mem, &mut arenas, &roots, body());
        assert!(a.initial_mem.is_empty(), "the caller states initial_mem");
        a.initial_mem = vec![(0x1000, 1)];
        a.validate().unwrap();
        assert_eq!(b.roots, roots);
        // The second run reads the first run's write, and its bump
        // pointer continues where the first stopped.
        assert_eq!(b.events[0].rval, 2);
        assert_eq!(b.events[1].addr, a.events[1].addr + 8);
        assert_eq!(mem.read(0x1000), 3);
        assert_eq!(arenas.used_words(), 2);
    }

    #[test]
    fn per_thread_rand_is_deterministic() {
        let cfg = ExecConfig::new(1).seed(9);
        let vals = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let v2 = vals.clone();
        run(
            &cfg,
            |_| {},
            vec![Box::new(move |c: &mut GateCtx| {
                let mut g = v2.lock().unwrap();
                g.push(c.rand());
                g.push(c.rand());
            })],
        );
        let first = vals.lock().unwrap().clone();
        let vals2 = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let v3 = vals2.clone();
        run(
            &ExecConfig::new(1).seed(9),
            |_| {},
            vec![Box::new(move |c: &mut GateCtx| {
                let mut g = v3.lock().unwrap();
                g.push(c.rand());
                g.push(c.rand());
            })],
        );
        assert_eq!(first, *vals2.lock().unwrap());
    }

    #[test]
    fn sites_are_interned_and_stamped() {
        let cfg = ExecConfig::new(1);
        let t = run(
            &cfg,
            |_| {},
            vec![Box::new(|c: &mut GateCtx| {
                c.write(0x1000, 1); // before any label: unknown
                c.site_op("queue/enqueue");
                c.write(0x1008, 2);
                c.site_phase("link-next");
                c.write(0x1010, 3);
                c.site_op("queue/dequeue"); // new op clears the phase
                c.write(0x1018, 4);
            })],
        );
        t.validate().unwrap();
        assert_eq!(t.event_sites.len(), t.events.len());
        assert_eq!(t.site_name_of(0), "unknown");
        assert_eq!(t.site_name_of(1), "queue/enqueue");
        assert_eq!(t.site_name_of(2), "queue/enqueue/link-next");
        assert_eq!(t.site_name_of(3), "queue/dequeue");
        assert_eq!(t.site_of(99), 0, "out of range reads as unknown");
    }

    #[test]
    #[should_panic(expected = "worker exploded")]
    fn worker_panics_propagate() {
        let cfg = ExecConfig::new(2);
        run(
            &cfg,
            |_| {},
            vec![
                Box::new(|c: &mut GateCtx| {
                    c.write(0x1000, 1);
                }),
                Box::new(|_c: &mut GateCtx| panic!("worker exploded")),
            ],
        );
    }
}
