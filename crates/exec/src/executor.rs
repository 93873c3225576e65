//! The cooperative scheduler and the gated thread context.
//!
//! Every worker body is a future, and all of them run on the caller's
//! thread, one at a time: the run loop polls only the worker holding the
//! *turn*. All scheduler state (functional memory, arenas, [`Recorder`],
//! policy RNG, round-robin cursor and the set of parked workers) sits in
//! one `RefCell` the workers share. A worker that reaches a memory
//! access parks itself and yields (its future returns `Pending`); the
//! run loop then picks the next holder (unstarted workers first, in tid
//! order, then the [`SchedPolicy`] over the parked ones) and polls it. A
//! parked worker performs its own access when it is polled again.
//! Allocations, op markers and site labels act on the state directly
//! and never yield. A worker that finishes, normally or by panicking,
//! passes the turn on. Scheduling decisions depend only on the seed and
//! recorded history, so the produced trace is a deterministic function
//! of `(config, setup, bodies)`.

use crate::ctx::{Arenas, DirectCtx, PmemCtx, Recorder};
use crate::mem::SharedMem;
use crate::rng::Xorshift64;
use lrp_model::{Addr, Annot, OpKind, ThreadId, Trace};
use std::cell::RefCell;
use std::future::{poll_fn, Future};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

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

/// A running worker: the future a [`ThreadBody`] returned.
type Worker = Pin<Box<dyn Future<Output = ()>>>;

/// A worker body: given its gated context, returns the future that runs
/// the worker. Build one with [`body`].
pub type ThreadBody = Box<dyn FnOnce(GateCtx) -> Worker>;

/// Boxes an `async` worker body that owns its [`GateCtx`]:
///
/// ```
/// # use lrp_exec::{body, PmemCtx, ThreadBody};
/// let w: ThreadBody = body(|mut c| async move {
///     c.write_rel(0x1000, 1).await;
/// });
/// ```
pub fn body<F, Fut>(f: F) -> ThreadBody
where
    F: FnOnce(GateCtx) -> Fut + 'static,
    Fut: Future<Output = ()> + 'static,
{
    Box::new(move |ctx| Box::pin(f(ctx)))
}

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

/// The gated per-thread context a worker body owns.
pub struct GateCtx {
    tid: ThreadId,
    state: Rc<RefCell<State>>,
    rng: Xorshift64,
}

impl GateCtx {
    /// Parks at an access until the run loop picks this thread again,
    /// then applies `f` to the state.
    async fn access<R>(&mut self, f: impl FnOnce(&mut State, ThreadId) -> R) -> R {
        {
            let me = self.tid as usize;
            let mut s = self.state.borrow_mut();
            let at = s.parked.partition_point(|&t| t < me);
            s.parked.insert(at, me);
        }
        // Yield once: the run loop polls this worker again when it is
        // picked.
        let mut picked = false;
        poll_fn(|_| {
            if std::mem::replace(&mut picked, true) {
                Poll::Ready(())
            } else {
                Poll::Pending
            }
        })
        .await;
        f(&mut self.state.borrow_mut(), self.tid)
    }
}

impl PmemCtx for GateCtx {
    fn tid(&self) -> ThreadId {
        self.tid
    }

    async fn read_annot(&mut self, addr: Addr, annot: Annot) -> u64 {
        self.access(|s, tid| {
            let v = s.mem.read(addr);
            s.rec.read(tid, addr, annot, v);
            v
        })
        .await
    }

    async fn write_annot(&mut self, addr: Addr, val: u64, annot: Annot) {
        self.access(|s, tid| {
            s.mem.write(addr, val);
            s.rec.write(tid, addr, annot, val);
        })
        .await
    }

    async fn cas_annot(&mut self, addr: Addr, old: u64, new: u64, annot: Annot) -> (bool, u64) {
        self.access(|s, tid| {
            let (ok, observed) = s.mem.cas(addr, old, new);
            s.rec.cas(tid, addr, annot, ok, observed, new);
            (ok, observed)
        })
        .await
    }

    fn alloc(&mut self, words: usize) -> Addr {
        self.state
            .borrow_mut()
            .arenas
            .alloc(self.tid as usize, words)
    }

    fn rand(&mut self) -> u64 {
        self.rng.next_u64()
    }

    fn op_begin(&mut self, op: OpKind) {
        self.state.borrow_mut().rec.begin(self.tid, op);
    }

    fn op_end(&mut self, result: u64) {
        self.state.borrow_mut().rec.end(self.tid, result);
    }

    fn site_op(&mut self, label: &str) {
        self.state.borrow_mut().rec.site_op(self.tid, label);
    }

    fn site_phase(&mut self, phase: &str) {
        self.state.borrow_mut().rec.site_phase(self.tid, phase);
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
///
/// A panic in a worker body is re-raised here after the remaining
/// workers finish and the memory and arenas are back with the caller.
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
    let state = Rc::new(RefCell::new(State {
        mem: std::mem::take(mem),
        arenas: std::mem::take(arenas),
        rec: Recorder::new(),
        policy_rng: match cfg.sched {
            SchedPolicy::Random(s) => Some(Xorshift64::new(s)),
            SchedPolicy::RoundRobin => None,
        },
        cursor: 0,
        parked: Vec::with_capacity(n),
        started: 0,
        threads: n,
    }));
    let mut workers: Vec<Option<Worker>> = bodies
        .into_iter()
        .enumerate()
        .map(|(i, body)| {
            Some(body(GateCtx {
                tid: i as ThreadId,
                state: Rc::clone(&state),
                rng: Xorshift64::new(
                    cfg.seed
                        .wrapping_mul(0x9E37_79B9)
                        .wrapping_add(i as u64 + 1),
                ),
            }))
        })
        .collect();

    // The turn: poll the holder until it parks at an access (`Pending`)
    // or finishes, then pick the next holder.
    let mut cx = Context::from_waker(Waker::noop());
    let mut panic_payload = None;
    loop {
        let next = state.borrow_mut().next_holder();
        let Some(t) = next else { break };
        let worker = workers[t]
            .as_mut()
            .expect("only a live worker holds the turn");
        match catch_unwind(AssertUnwindSafe(|| worker.as_mut().poll(&mut cx))) {
            Ok(Poll::Pending) => {}
            Ok(Poll::Ready(())) => workers[t] = None,
            Err(p) => {
                workers[t] = None;
                panic_payload.get_or_insert(p);
            }
        }
    }
    let stranded = workers.iter().filter(|w| w.is_some()).count();
    drop(workers);
    let state = Rc::into_inner(state)
        .expect("no worker kept its context")
        .into_inner();
    *mem = state.mem;
    *arenas = state.arenas;
    if let Some(p) = panic_payload {
        resume_unwind(p);
    }
    assert_eq!(
        stranded, 0,
        "a worker yielded outside a gated access and was never resumed"
    );

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
    use std::cell::Cell;

    fn message_passing(policy: SchedPolicy) -> Trace {
        let cfg = ExecConfig::new(2).policy(policy);
        run(
            &cfg,
            |s| s.write(0x1000, 0),
            vec![
                body(|mut c| async move {
                    c.write(0x2000, 7).await;
                    c.write_rel(0x1000, 1).await;
                }),
                body(|mut c| async move {
                    while c.read_acq(0x1000).await == 0 {}
                    assert_eq!(c.read(0x2000).await, 7);
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
            vec![body(|mut c| async move {
                assert_eq!(c.read(0x1000).await, 42);
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
                    body(move |mut c| async move {
                        c.cas_acq_rel(0x1000, 0, i + 1).await;
                    })
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
                    body(|mut c| async move {
                        c.op_begin(OpKind::Insert(1, 2));
                        let p = c.alloc(2);
                        c.write(p, 1).await;
                        c.write(p + 8, 2).await;
                        c.op_end(1);
                    })
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
        let bodies = || {
            vec![body(|mut c| async move {
                let v = c.read(0x1000).await;
                let p = c.alloc(1);
                c.write(p, v).await;
                c.write(0x1000, v + 1).await;
            })]
        };
        let mut a = run_on(&cfg, &mut mem, &mut arenas, &roots, bodies());
        let b = run_on(&cfg, &mut mem, &mut arenas, &roots, bodies());
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
        let draws = || {
            let vals = Rc::new(RefCell::new(Vec::new()));
            let v = Rc::clone(&vals);
            run(
                &ExecConfig::new(1).seed(9),
                |_| {},
                vec![body(move |mut c| async move {
                    v.borrow_mut().extend([c.rand(), c.rand()]);
                })],
            );
            Rc::into_inner(vals).unwrap().into_inner()
        };
        let first = draws();
        assert_eq!(first.len(), 2);
        assert_eq!(first, draws());
    }

    #[test]
    fn sites_are_interned_and_stamped() {
        let cfg = ExecConfig::new(1);
        let t = run(
            &cfg,
            |_| {},
            vec![body(|mut c| async move {
                c.write(0x1000, 1).await; // before any label: unknown
                c.site_op("queue/enqueue");
                c.write(0x1008, 2).await;
                c.site_phase("link-next");
                c.write(0x1010, 3).await;
                c.site_op("queue/dequeue"); // new op clears the phase
                c.write(0x1018, 4).await;
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
    fn trace_buffers_keep_no_growth_slack() {
        let t = run(
            &ExecConfig::new(1),
            |_| {},
            vec![body(|mut c| async move {
                c.site_op("q/op");
                for i in 0..5 {
                    c.write(0x1000 + 8 * i, i).await;
                }
            })],
        );
        assert_eq!(t.events.len(), 5);
        assert_eq!(t.events.capacity(), t.events.len());
        assert_eq!(t.event_sites.capacity(), t.event_sites.len());
    }

    #[test]
    #[should_panic(expected = "worker exploded")]
    fn worker_panics_propagate() {
        let cfg = ExecConfig::new(2);
        run(
            &cfg,
            |_| {},
            vec![
                body(|mut c| async move {
                    c.write(0x1000, 1).await;
                }),
                body(|_c| async move { panic!("worker exploded") }),
            ],
        );
    }

    #[test]
    #[should_panic(expected = "yielded outside a gated access")]
    fn a_worker_awaiting_a_foreign_future_is_reported() {
        run(
            &ExecConfig::new(1),
            |_| {},
            vec![body(|_c| std::future::pending())],
        );
    }

    #[test]
    fn panic_inside_a_gated_call_reaches_the_caller() {
        let finished = Rc::new(Cell::new(0));
        let mut bodies: Vec<ThreadBody> = vec![body(|mut c| async move {
            c.write(0x1000, 1).await;
            // Panics inside the gated call, holding the state borrow.
            c.alloc((crate::ctx::ARENA_BYTES / 8) as usize + 1);
        })];
        for t in 1..3u64 {
            let finished = Rc::clone(&finished);
            bodies.push(body(move |mut c| async move {
                for j in 0..20 {
                    c.write(0x2000 * t + 8 * j, j).await;
                }
                finished.set(finished.get() + 1);
            }));
        }
        let cfg = ExecConfig::new(3).policy(SchedPolicy::RoundRobin);
        let err = catch_unwind(AssertUnwindSafe(|| run(&cfg, |_| {}, bodies)))
            .expect_err("the worker's panic is re-raised");
        let msg = err
            .downcast_ref::<String>()
            .expect("a formatted panic message");
        assert!(msg.starts_with("arena 0 exhausted"), "{msg}");
        assert_eq!(finished.get(), 2, "the others ran to the end");
    }

    #[test]
    fn memory_and_arenas_come_back_after_a_panic() {
        let cfg = ExecConfig::new(2).policy(SchedPolicy::RoundRobin);
        let mut mem = SharedMem::new();
        let mut arenas = Arenas::new(3);
        mem.write(0x1000, 1);
        let bodies = vec![
            body(|mut c| async move {
                let p = c.alloc(2);
                c.write(p, 7).await;
                panic!("worker exploded");
            }),
            body(|mut c| async move {
                c.write(0x1000, 2).await;
            }),
        ];
        let err = catch_unwind(AssertUnwindSafe(|| {
            run_on(&cfg, &mut mem, &mut arenas, &[], bodies)
        }));
        assert!(err.is_err(), "the panic is re-raised");
        // Both workers' writes and worker 0's allocation stay with the
        // caller.
        assert_eq!(mem.read(0x1000), 2);
        assert_eq!(mem.read(crate::ctx::HEAP_BASE), 7);
        assert_eq!(arenas.used_words(), 2);
    }
}
