//! The lockstep scheduler and the gated thread context.
//!
//! Worker bodies run on real OS threads, but only one of them runs at a
//! time: the one holding the *turn*. All scheduler state (functional
//! memory, arenas, [`Recorder`], policy RNG, round-robin cursor and the
//! set of parked threads) sits behind one mutex, and each worker waits
//! on its own condition variable. A worker that reaches a memory access
//! parks itself and picks the next holder (unstarted threads first, in
//! tid order, then the [`SchedPolicy`] over the parked threads). If that
//! is another thread it wakes only that one and waits; it performs its
//! own access when the turn comes back to it. Allocations, op markers
//! and site labels act on the state directly, since the holder is the
//! only thread running. A worker that exits, normally or by panicking,
//! passes the turn on. Scheduling decisions depend only on the seed and
//! recorded history, so the produced trace is a deterministic function
//! of `(config, setup, bodies)`.

use crate::ctx::{Arenas, DirectCtx, PmemCtx, Recorder};
use crate::mem::SharedMem;
use crate::rng::Xorshift64;
use lrp_model::{Addr, Annot, OpKind, ThreadId, Trace};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

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
}

impl ExecConfig {
    /// A config with `threads` workers, random scheduling, and seed 1.
    pub fn new(threads: ThreadId) -> Self {
        ExecConfig {
            threads,
            sched: SchedPolicy::Random(1),
            seed: 1,
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
}

/// A worker body: runs once with a gated context.
pub type ThreadBody = Box<dyn FnOnce(&mut GateCtx) + Send>;

/// Everything the turn holder may touch.
struct State {
    mem: SharedMem,
    arenas: Arenas,
    rec: Recorder,
    policy_rng: Option<Xorshift64>,
    cursor: usize,
    /// Threads waiting at an access, in ascending tid order.
    parked: Vec<usize>,
    /// Threads `0..started` have been handed the turn at least once.
    started: usize,
    threads: usize,
    /// The thread that may run.
    turn: usize,
}

impl State {
    /// The next holder of the turn, removed from the parked set:
    /// unstarted threads first in tid order, then the policy's choice
    /// among the parked ones. `None` once every thread has exited.
    fn next_holder(&mut self) -> Option<usize> {
        if self.started < self.threads {
            self.started += 1;
            return Some(self.started - 1);
        }
        if self.parked.is_empty() {
            return None;
        }
        let i = match &mut self.policy_rng {
            Some(rng) => rng.below(self.parked.len() as u64) as usize,
            None => {
                // Round-robin: first parked at or after the cursor.
                let i = self
                    .parked
                    .iter()
                    .position(|&t| t >= self.cursor)
                    .unwrap_or(0);
                self.cursor = self.parked[i] + 1;
                i
            }
        };
        Some(self.parked.remove(i))
    }
}

/// The state shared by one run's workers: the mutex and one condition
/// variable per worker, so a hand-off wakes exactly the next holder.
struct Gate {
    state: Mutex<State>,
    turns: Vec<Condvar>,
}

impl Gate {
    /// Locks the state. A worker that panicked while holding the lock
    /// poisons it; the others carry on with the state as it was left.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Hands the turn to the next holder, if any thread is left.
    fn pass(&self, s: &mut State) {
        if let Some(next) = s.next_holder() {
            s.turn = next;
            self.turns[next].notify_one();
        }
    }

    /// Blocks until `me` holds the turn.
    fn wait<'a>(&self, s: MutexGuard<'a, State>, me: usize) -> MutexGuard<'a, State> {
        self.turns[me]
            .wait_while(s, |s| s.turn != me)
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// The gated per-thread context handed to worker bodies. Dropping it
/// (when the body returns or unwinds) passes the turn on.
pub struct GateCtx {
    tid: ThreadId,
    gate: Arc<Gate>,
    rng: Xorshift64,
}

impl GateCtx {
    /// Parks at an access until this thread is picked, then applies
    /// `f` to the state.
    fn access<R>(&mut self, f: impl FnOnce(&mut State, ThreadId) -> R) -> R {
        let me = self.tid as usize;
        let mut s = self.gate.lock();
        let at = s.parked.partition_point(|&t| t < me);
        s.parked.insert(at, me);
        self.gate.pass(&mut s);
        let mut s = self.gate.wait(s, me);
        f(&mut s, self.tid)
    }
}

impl Drop for GateCtx {
    fn drop(&mut self) {
        let mut s = self.gate.lock();
        self.gate.pass(&mut s);
    }
}

impl PmemCtx for GateCtx {
    fn tid(&self) -> ThreadId {
        self.tid
    }

    fn read_annot(&mut self, addr: Addr, annot: Annot) -> u64 {
        self.access(|s, tid| {
            let v = s.mem.read(addr);
            s.rec.read(tid, addr, annot, v);
            v
        })
    }

    fn write_annot(&mut self, addr: Addr, val: u64, annot: Annot) {
        self.access(|s, tid| {
            s.mem.write(addr, val);
            s.rec.write(tid, addr, annot, val);
        })
    }

    fn cas_annot(&mut self, addr: Addr, old: u64, new: u64, annot: Annot) -> (bool, u64) {
        self.access(|s, tid| {
            let (ok, observed) = s.mem.cas(addr, old, new);
            s.rec.cas(tid, addr, annot, ok, observed, new);
            (ok, observed)
        })
    }

    fn alloc(&mut self, words: usize) -> Addr {
        self.gate.lock().arenas.alloc(self.tid as usize, words)
    }

    fn rand(&mut self) -> u64 {
        self.rng.next_u64()
    }

    fn op_begin(&mut self, op: OpKind) {
        self.gate.lock().rec.begin(self.tid, op);
    }

    fn op_end(&mut self, result: u64) {
        self.gate.lock().rec.end(self.tid, result);
    }

    fn site_op(&mut self, label: &str) {
        self.gate.lock().rec.site_op(self.tid, label);
    }

    fn site_phase(&mut self, phase: &str) {
        self.gate.lock().rec.site_phase(self.tid, phase);
    }
}

/// Runs `setup` immediately (producing the initial durable image), then
/// runs the worker `bodies` under lockstep scheduling, returning the
/// recorded trace.
///
/// A panic in a worker body is re-raised here after the remaining
/// workers finish.
pub fn run(cfg: &ExecConfig, setup: impl FnOnce(&mut DirectCtx), bodies: Vec<ThreadBody>) -> Trace {
    let mut direct = DirectCtx::new(cfg.threads, cfg.seed);
    setup(&mut direct);
    let DirectCtx {
        mut mem,
        mut arenas,
        roots,
        ..
    } = direct;
    let initial_mem = mem.snapshot();
    let mut trace = run_on(cfg, &mut mem, &mut arenas, &roots, bodies);
    trace.initial_mem = initial_mem;
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
pub fn run_on(
    cfg: &ExecConfig,
    mem: &mut SharedMem,
    arenas: &mut Arenas,
    roots: &[(String, Addr)],
    bodies: Vec<ThreadBody>,
) -> Trace {
    let n = bodies.len();
    assert_eq!(
        n, cfg.threads as usize,
        "bodies must match cfg.threads ({} != {})",
        n, cfg.threads
    );

    // The workers own the memory and arenas while they run; both go
    // back to the caller afterwards, also when a worker panicked.
    let gate = Arc::new(Gate {
        state: Mutex::new(State {
            mem: std::mem::take(mem),
            arenas: std::mem::take(arenas),
            rec: Recorder::new(),
            policy_rng: match cfg.sched {
                SchedPolicy::Random(s) => Some(Xorshift64::new(s)),
                SchedPolicy::RoundRobin => None,
            },
            cursor: 0,
            parked: Vec::with_capacity(n),
            // Thread 0 starts holding the turn.
            started: n.min(1),
            threads: n,
            turn: 0,
        }),
        turns: (0..n).map(|_| Condvar::new()).collect(),
    });

    let handles: Vec<_> = bodies
        .into_iter()
        .enumerate()
        .map(|(i, body)| {
            let mut ctx = GateCtx {
                tid: i as ThreadId,
                gate: Arc::clone(&gate),
                rng: Xorshift64::new(
                    cfg.seed
                        .wrapping_mul(0x9E37_79B9)
                        .wrapping_add(i as u64 + 1),
                ),
            };
            std::thread::spawn(move || {
                drop(ctx.gate.wait(ctx.gate.lock(), i));
                body(&mut ctx);
            })
        })
        .collect();

    let mut panic_payload = None;
    for h in handles {
        if let Err(p) = h.join() {
            panic_payload = Some(p);
        }
    }
    let state = Arc::into_inner(gate)
        .expect("every worker has exited")
        .state
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    *mem = state.mem;
    *arenas = state.arenas;
    if let Some(p) = panic_payload {
        std::panic::resume_unwind(p);
    }

    let heap_range = arenas.used_range();
    let (events, markers, site_names, event_sites) = state.rec.into_trace_parts();
    Trace {
        nthreads: cfg.threads,
        events,
        initial_mem: Vec::new(),
        markers,
        roots: roots.to_vec(),
        heap_range,
        site_names,
        event_sites,
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

    #[test]
    fn panic_inside_a_gated_call_reaches_the_caller() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let finished = std::sync::Arc::new(AtomicUsize::new(0));
        let mut bodies: Vec<ThreadBody> = vec![Box::new(|c: &mut GateCtx| {
            c.write(0x1000, 1);
            // Panics inside the gated call, holding the state lock.
            c.alloc((crate::ctx::ARENA_BYTES / 8) as usize + 1);
        })];
        for t in 1..3u64 {
            let finished = finished.clone();
            bodies.push(Box::new(move |c: &mut GateCtx| {
                for j in 0..20 {
                    c.write(0x2000 * t + 8 * j, j);
                }
                finished.fetch_add(1, Ordering::SeqCst);
            }));
        }
        let cfg = ExecConfig::new(3).policy(SchedPolicy::RoundRobin);
        let err =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(&cfg, |_| {}, bodies)))
                .expect_err("the worker's panic is re-raised");
        let msg = err
            .downcast_ref::<String>()
            .expect("a formatted panic message");
        assert!(msg.starts_with("arena 0 exhausted"), "{msg}");
        assert_eq!(
            finished.load(Ordering::SeqCst),
            2,
            "the others ran to the end"
        );
    }
}
