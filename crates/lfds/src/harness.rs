//! SynchroBench-style workload generation (§6.1 of the paper).
//!
//! For each workload: a harness creates 1–32 workers issuing inserts and
//! deletes at a 1:1 ratio (100% update rate), over a key range of twice
//! the initial size so the structure stays at its steady-state size. The
//! structure is pre-populated before statistics (events) are collected.

use crate::{bst::Bst, hashmap::HashMap, list::LinkedList, queue::Queue, skiplist::SkipList};
use lrp_exec::{body, run, DirectCtx, ExecConfig, PmemCtx, SchedPolicy, ThreadBody, Xorshift64};
use lrp_model::{OpKind, ThreadId, Trace};
use std::cell::OnceCell;
use std::rc::Rc;

/// The five LFD workloads of §6.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Structure {
    /// Harris/Michael sorted linked list.
    LinkedList,
    /// Michael hash map.
    HashMap,
    /// Natarajan–Mittal external BST.
    Bst,
    /// Lock-free skip list.
    SkipList,
    /// Michael–Scott queue.
    Queue,
}

impl Structure {
    /// All five workloads, in the paper's figure order.
    pub const ALL: [Structure; 5] = [
        Structure::LinkedList,
        Structure::HashMap,
        Structure::Bst,
        Structure::SkipList,
        Structure::Queue,
    ];

    /// The paper's workload name.
    pub fn name(self) -> &'static str {
        match self {
            Structure::LinkedList => "linkedlist",
            Structure::HashMap => "hashmap",
            Structure::Bst => "bstree",
            Structure::SkipList => "skiplist",
            Structure::Queue => "queue",
        }
    }

    /// Parses a paper workload name back into a [`Structure`].
    pub fn from_name(name: &str) -> Option<Structure> {
        Structure::ALL.into_iter().find(|s| s.name() == name)
    }

    /// The distinguishing root-pointer name this structure registers in
    /// its traces (see [`WorkloadSpec::build_trace`]).
    pub fn primary_root(self) -> &'static str {
        match self {
            Structure::LinkedList => "head",
            Structure::HashMap => "buckets",
            Structure::Bst => "bst_r",
            Structure::SkipList => "sl_head",
            Structure::Queue => "q_anchor",
        }
    }

    /// Identifies the structure a trace was generated from by its
    /// registered root names.
    pub fn infer_from_roots<'a>(roots: impl IntoIterator<Item = &'a str>) -> Option<Structure> {
        roots.into_iter().find_map(|name| {
            Structure::ALL
                .into_iter()
                .find(|s| s.primary_root() == name)
        })
    }
}

impl std::str::FromStr for Structure {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Structure::from_name(s).ok_or_else(|| {
            let names: Vec<&str> = Structure::ALL.iter().map(|s| s.name()).collect();
            format!(
                "unknown structure {s:?} (expected one of {})",
                names.join("|")
            )
        })
    }
}

impl std::fmt::Display for Structure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How workload (and service) key draws are distributed over the key
/// range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDist {
    /// Uniform over `[1, key_range]` (the SynchroBench default).
    Uniform,
    /// Zipfian with exponent `theta` — rank 1 (key 1) is hottest. The
    /// classic skewed-service distribution (YCSB uses theta = 0.99).
    Zipfian {
        /// Skew exponent in `(0, 1)`; larger is more skewed.
        theta: f64,
    },
}

impl KeyDist {
    /// YCSB's default skew.
    pub const ZIPFIAN_DEFAULT_THETA: f64 = 0.99;

    /// A short stable name (`uniform` / `zipfian`).
    pub fn name(self) -> &'static str {
        match self {
            KeyDist::Uniform => "uniform",
            KeyDist::Zipfian { .. } => "zipfian",
        }
    }

    /// Builds the per-thread draw state for keys in `[1, range]`.
    pub fn sampler(self, range: u64) -> KeySampler {
        match self {
            KeyDist::Uniform => KeySampler::Uniform { range },
            KeyDist::Zipfian { theta } => KeySampler::Zipfian(Zipfian::new(range, theta)),
        }
    }
}

impl std::str::FromStr for KeyDist {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "uniform" => Ok(KeyDist::Uniform),
            "zipfian" => Ok(KeyDist::Zipfian {
                theta: KeyDist::ZIPFIAN_DEFAULT_THETA,
            }),
            other => Err(format!(
                "unknown key distribution {other:?} (expected uniform|zipfian)"
            )),
        }
    }
}

/// Materialized draw state for a [`KeyDist`] over a fixed range.
#[derive(Debug, Clone)]
pub enum KeySampler {
    /// Uniform draws.
    Uniform {
        /// Keys are drawn from `[1, range]`.
        range: u64,
    },
    /// Zipfian draws.
    Zipfian(Zipfian),
}

impl KeySampler {
    /// Draws one key in `[1, range]` using `rng`.
    pub fn draw(&self, rng: &mut Xorshift64) -> u64 {
        match self {
            KeySampler::Uniform { range } => rng.below(*range) + 1,
            KeySampler::Zipfian(z) => z.draw(rng),
        }
    }
}

/// Deterministic Zipfian rank generator over `[1, n]` (Gray et al.'s
/// constant-time-per-draw formulation, as popularized by YCSB), driven
/// by the in-tree [`Xorshift64`]. Construction is O(n) (one harmonic
/// sum); draws are O(1). Rank 1 is the most popular key, so skew is
/// directly observable (and testable) without a scramble step.
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipfian {
    /// A generator over `[1, n]` with exponent `theta` in `(0, 1)`.
    pub fn new(n: u64, theta: f64) -> Zipfian {
        assert!(n >= 1, "zipfian needs a non-empty range");
        assert!(
            theta > 0.0 && theta < 1.0,
            "zipfian theta must be in (0, 1), got {theta}"
        );
        let zeta = |upto: u64| -> f64 { (1..=upto).map(|i| 1.0 / (i as f64).powf(theta)).sum() };
        let zetan = zeta(n);
        let zeta2 = zeta(2.min(n));
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipfian {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta,
        }
    }

    /// Draws one rank in `[1, n]`.
    pub fn draw(&self, rng: &mut Xorshift64) -> u64 {
        // 53-bit mantissa uniform in [0, 1).
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 1;
        }
        if self.n >= 2 && uz < 1.0 + 0.5f64.powf(self.theta) {
            return 2;
        }
        let rank = 1 + (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n)
    }
}

#[derive(Clone, Copy)]
enum Handle {
    List(LinkedList),
    Map(HashMap),
    Bst(Bst),
    Skip(SkipList),
    Queue(Queue),
}

/// A complete workload description; [`WorkloadSpec::build_trace`] turns
/// it into an execution trace deterministically.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Which data structure to drive.
    pub structure: Structure,
    /// Initial number of elements (pre-populated before recording).
    pub initial_size: usize,
    /// Keys are drawn uniformly from `[1, key_range]`; defaults to twice
    /// the initial size (SynchroBench convention).
    pub key_range: u64,
    /// Number of worker threads (the paper sweeps 1–32).
    pub threads: ThreadId,
    /// Operations per worker.
    pub ops_per_thread: usize,
    /// Master seed (drives population, scheduling, and key draws).
    pub seed: u64,
    /// Percentage of read-only (`contains`) operations; the paper's
    /// update-rate is 100%, i.e. 0 here.
    pub read_pct: u8,
    /// Bucket count for the hash map (0 = `initial_size`, load factor
    /// ~1 as in Michael's evaluation; min 4).
    pub nbuckets: u64,
    /// How worker key draws are distributed over `[1, key_range]`.
    pub key_dist: KeyDist,
}

impl WorkloadSpec {
    /// Defaults: 256 initial elements, 4 threads, 64 ops each, 100%
    /// updates.
    pub fn new(structure: Structure) -> Self {
        WorkloadSpec {
            structure,
            initial_size: 256,
            key_range: 0,
            threads: 4,
            ops_per_thread: 64,
            seed: 1,
            read_pct: 0,
            nbuckets: 0,
            key_dist: KeyDist::Uniform,
        }
    }

    /// Sets the initial size.
    pub fn initial_size(mut self, n: usize) -> Self {
        self.initial_size = n;
        self
    }

    /// Sets the key range explicitly.
    pub fn key_range(mut self, r: u64) -> Self {
        self.key_range = r;
        self
    }

    /// Sets the worker count.
    pub fn threads(mut self, t: ThreadId) -> Self {
        self.threads = t;
        self
    }

    /// Sets operations per worker.
    pub fn ops_per_thread(mut self, n: usize) -> Self {
        self.ops_per_thread = n;
        self
    }

    /// Sets the master seed.
    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// Sets the percentage of `contains` operations.
    pub fn read_pct(mut self, p: u8) -> Self {
        assert!(p <= 100);
        self.read_pct = p;
        self
    }

    /// Sets the hash-map bucket count.
    pub fn nbuckets(mut self, n: u64) -> Self {
        self.nbuckets = n;
        self
    }

    /// Sets the key distribution.
    pub fn key_dist(mut self, d: KeyDist) -> Self {
        self.key_dist = d;
        self
    }

    fn effective_key_range(&self) -> u64 {
        if self.key_range != 0 {
            self.key_range
        } else {
            (self.initial_size as u64 * 2).max(2)
        }
    }

    fn effective_nbuckets(&self) -> u64 {
        if self.nbuckets != 0 {
            self.nbuckets
        } else {
            (self.initial_size as u64).max(4)
        }
    }

    /// Draws `initial_size` distinct keys from `[1, key_range]`, sorted.
    pub(crate) fn initial_keys(&self) -> Vec<u64> {
        let range = self.effective_key_range();
        assert!(
            self.initial_size as u64 <= range,
            "initial size exceeds key range"
        );
        let mut rng = Xorshift64::new(self.seed.wrapping_add(0xA11C));
        let mut set = std::collections::BTreeSet::new();
        while set.len() < self.initial_size {
            set.insert(rng.below(range) + 1);
        }
        set.into_iter().collect()
    }

    /// Runs the workload under the lockstep executor and returns the
    /// trace.
    pub fn build_trace(&self) -> Trace {
        let structure = self.structure;
        let keys = self.initial_keys();
        let nbuckets = self.effective_nbuckets();
        let range = self.effective_key_range();
        let handle: Rc<OnceCell<Handle>> = Rc::default();

        let setup_handle = Rc::clone(&handle);
        let setup = move |s: &mut DirectCtx| {
            let h = match structure {
                Structure::LinkedList => {
                    let l = LinkedList::new(s);
                    l.populate(s, &keys);
                    s.set_root("head", l.head_loc);
                    Handle::List(l)
                }
                Structure::HashMap => {
                    let m = HashMap::new(s, nbuckets);
                    m.populate(s, &keys);
                    s.set_root("buckets", m.buckets);
                    s.set_root("nbuckets", m.nbuckets);
                    Handle::Map(m)
                }
                Structure::Bst => {
                    let b = Bst::new(s);
                    b.populate(s, &keys);
                    s.set_root("bst_r", b.r);
                    s.set_root("bst_s", b.s);
                    Handle::Bst(b)
                }
                Structure::SkipList => {
                    let sl = SkipList::new(s);
                    sl.populate(s, &keys);
                    s.set_root("sl_head", sl.head);
                    Handle::Skip(sl)
                }
                Structure::Queue => {
                    let q = Queue::new(s);
                    let values: Vec<u64> = (1..=keys.len() as u64).collect();
                    q.populate(s, &values);
                    s.set_root("q_anchor", q.anchor);
                    Handle::Queue(q)
                }
            };
            let _ = setup_handle.set(h);
        };

        let bodies: Vec<ThreadBody> = (0..self.threads)
            .map(|t| {
                let handle = Rc::clone(&handle);
                let ops = self.ops_per_thread;
                let read_pct = self.read_pct;
                let seed = self.seed;
                let sampler = self.key_dist.sampler(range);
                body(move |mut c| async move {
                    let h = *handle.get().expect("setup ran before workers");
                    let mut rng =
                        Xorshift64::new(seed.wrapping_mul(0x5851_F42D).wrapping_add(t as u64 + 1));
                    for i in 0..ops {
                        let key = sampler.draw(&mut rng);
                        let is_read = rng.below(100) < read_pct as u64;
                        let is_insert = rng.below(2) == 0;
                        if let Handle::Queue(q) = h {
                            if is_insert {
                                let v = (t as u64 + 1) * 1_000_000 + i as u64;
                                c.op_begin(OpKind::Enqueue(v));
                                c.site_op("queue/enqueue");
                                q.enqueue(&mut c, v).await;
                                c.op_end(1);
                            } else {
                                c.op_begin(OpKind::Dequeue);
                                c.site_op("queue/dequeue");
                                let r = q.dequeue(&mut c).await;
                                c.op_end(r.map(|v| v + 1).unwrap_or(0));
                            }
                        } else {
                            drive_set(&mut c, h, key, SetOp::pick(is_read, is_insert)).await;
                        }
                    }
                })
            })
            .collect();

        let cfg = ExecConfig::new(self.threads)
            .policy(SchedPolicy::Random(self.seed.wrapping_add(0x5EED)))
            .seed(self.seed);
        run(&cfg, setup, bodies)
    }
}

/// Which set-structure operation [`drive_set`] issues.
#[derive(Clone, Copy)]
enum SetOp {
    Contains,
    Insert,
    Delete,
}

impl SetOp {
    fn pick(is_read: bool, is_insert: bool) -> SetOp {
        if is_read {
            SetOp::Contains
        } else if is_insert {
            SetOp::Insert
        } else {
            SetOp::Delete
        }
    }
}

/// Static `structure/operation` site labels, so the per-op hot loop
/// never formats a label string.
fn set_labels(h: Handle) -> [&'static str; 3] {
    match h {
        Handle::List(_) => [
            "linkedlist/contains",
            "linkedlist/insert",
            "linkedlist/delete",
        ],
        Handle::Map(_) => ["hashmap/contains", "hashmap/insert", "hashmap/delete"],
        Handle::Bst(_) => ["bstree/contains", "bstree/insert", "bstree/delete"],
        Handle::Skip(_) => ["skiplist/contains", "skiplist/insert", "skiplist/delete"],
        Handle::Queue(_) => unreachable!("the queue is not a set"),
    }
}

/// Issues one set-structure operation on `h` with markers and an
/// `structure/operation` [`OpSite`](lrp_model::Trace::site_names) label.
async fn drive_set<C: PmemCtx>(c: &mut C, h: Handle, key: u64, op: SetOp) {
    let labels = set_labels(h);
    let (marker, label) = match op {
        SetOp::Contains => (OpKind::Contains(key), labels[0]),
        SetOp::Insert => (OpKind::Insert(key, key), labels[1]),
        SetOp::Delete => (OpKind::Delete(key), labels[2]),
    };
    c.op_begin(marker);
    c.site_op(label);
    let r = match (h, op) {
        (Handle::List(l), SetOp::Contains) => l.contains(c, key).await,
        (Handle::List(l), SetOp::Insert) => l.insert(c, key, key).await,
        (Handle::List(l), SetOp::Delete) => l.delete(c, key).await,
        (Handle::Map(m), SetOp::Contains) => m.contains(c, key).await,
        (Handle::Map(m), SetOp::Insert) => m.insert(c, key, key).await,
        (Handle::Map(m), SetOp::Delete) => m.delete(c, key).await,
        (Handle::Bst(b), SetOp::Contains) => b.contains(c, key).await,
        (Handle::Bst(b), SetOp::Insert) => b.insert(c, key, key).await,
        (Handle::Bst(b), SetOp::Delete) => b.delete(c, key).await,
        (Handle::Skip(sl), SetOp::Contains) => sl.contains(c, key).await,
        (Handle::Skip(sl), SetOp::Insert) => sl.insert(c, key, key).await,
        (Handle::Skip(sl), SetOp::Delete) => sl.delete(c, key).await,
        (Handle::Queue(_), _) => unreachable!("the queue is not a set"),
    };
    c.op_end(r as u64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_structures_build_valid_traces() {
        for s in Structure::ALL {
            let spec = WorkloadSpec::new(s)
                .initial_size(32)
                .threads(2)
                .ops_per_thread(12)
                .seed(9);
            let t = spec.build_trace();
            t.validate()
                .unwrap_or_else(|e| panic!("{s}: invalid trace: {e}"));
            assert!(!t.events.is_empty(), "{s}: empty trace");
            assert_eq!(t.markers.len(), 2 * 12, "{s}: marker count");
            assert!(!t.initial_mem.is_empty(), "{s}: missing initial image");
        }
    }

    #[test]
    fn traces_are_deterministic() {
        let spec = WorkloadSpec::new(Structure::HashMap)
            .initial_size(32)
            .threads(3)
            .ops_per_thread(10)
            .seed(4);
        let a = spec.build_trace();
        let b = spec.build_trace();
        assert_eq!(a.events, b.events);
        assert_eq!(a.initial_mem, b.initial_mem);
    }

    #[test]
    fn different_seeds_differ() {
        let base = WorkloadSpec::new(Structure::SkipList)
            .initial_size(32)
            .threads(2)
            .ops_per_thread(10);
        let a = base.clone().seed(1).build_trace();
        let b = base.seed(2).build_trace();
        assert_ne!(a.events, b.events);
    }

    #[test]
    fn update_only_traces_have_releases_and_acquires() {
        let spec = WorkloadSpec::new(Structure::LinkedList)
            .initial_size(16)
            .threads(2)
            .ops_per_thread(10);
        let t = spec.build_trace();
        assert!(t.events.iter().any(|e| e.is_release()));
        assert!(t.events.iter().any(|e| e.is_acquire()));
    }

    #[test]
    fn read_pct_produces_contains_markers() {
        let spec = WorkloadSpec::new(Structure::Bst)
            .initial_size(16)
            .threads(1)
            .ops_per_thread(50)
            .read_pct(100);
        let t = spec.build_trace();
        assert!(t
            .markers
            .iter()
            .all(|m| matches!(m.op, OpKind::Contains(_))));
    }

    #[test]
    fn names_round_trip_and_roots_identify_structures() {
        for s in Structure::ALL {
            assert_eq!(Structure::from_name(s.name()), Some(s));
            assert_eq!(s.name().parse::<Structure>(), Ok(s));
            let t = WorkloadSpec::new(s)
                .initial_size(8)
                .threads(1)
                .ops_per_thread(2)
                .build_trace();
            let inferred = Structure::infer_from_roots(t.roots.iter().map(|(n, _)| n.as_str()));
            assert_eq!(inferred, Some(s), "{s}");
        }
        assert!("btree".parse::<Structure>().is_err());
        assert_eq!(Structure::infer_from_roots(["nbuckets"]), None);
    }

    #[test]
    fn zipfian_draws_are_deterministic() {
        let z = Zipfian::new(1000, 0.99);
        let mut a = Xorshift64::new(7);
        let mut b = Xorshift64::new(7);
        let seq_a: Vec<u64> = (0..64).map(|_| z.draw(&mut a)).collect();
        let seq_b: Vec<u64> = (0..64).map(|_| z.draw(&mut b)).collect();
        assert_eq!(seq_a, seq_b);
        let mut c = Xorshift64::new(8);
        let seq_c: Vec<u64> = (0..64).map(|_| z.draw(&mut c)).collect();
        assert_ne!(seq_a, seq_c, "different seeds draw different keys");
    }

    #[test]
    fn zipfian_skew_has_the_right_shape() {
        let n = 100u64;
        let draws = 100_000usize;
        let z = Zipfian::new(n, 0.99);
        let mut rng = Xorshift64::new(42);
        let mut counts = vec![0u64; n as usize + 1];
        for _ in 0..draws {
            let k = z.draw(&mut rng);
            assert!((1..=n).contains(&k));
            counts[k as usize] += 1;
        }
        // Rank 1's analytic share at theta=0.99, n=100 is ~19%; allow slack.
        let share1 = counts[1] as f64 / draws as f64;
        assert!(share1 > 0.12, "rank 1 share {share1} too flat for zipfian");
        // Broad monotonicity: the head decile dominates the tail decile.
        let head: u64 = counts[1..=10].iter().sum();
        let tail: u64 = counts[91..=100].iter().sum();
        assert!(
            head > 10 * tail.max(1),
            "head {head} should dwarf tail {tail}"
        );
        // Uniform stays flat by comparison.
        let u = KeyDist::Uniform.sampler(n);
        let mut rng = Xorshift64::new(42);
        let mut ucounts = vec![0u64; n as usize + 1];
        for _ in 0..draws {
            ucounts[u.draw(&mut rng) as usize] += 1;
        }
        let (umin, umax) = (1..=n as usize).fold((u64::MAX, 0), |(lo, hi), k| {
            (lo.min(ucounts[k]), hi.max(ucounts[k]))
        });
        assert!(
            (umax as f64) < 2.0 * umin as f64,
            "uniform draws unexpectedly skewed: min {umin} max {umax}"
        );
    }

    #[test]
    fn zipfian_traces_hit_hot_keys_and_stay_deterministic() {
        let base = WorkloadSpec::new(Structure::HashMap)
            .initial_size(32)
            .threads(2)
            .ops_per_thread(40)
            .seed(11);
        let zipf = base.clone().key_dist(KeyDist::Zipfian { theta: 0.99 });
        let a = zipf.build_trace();
        let b = zipf.build_trace();
        assert_eq!(a.events, b.events, "zipfian traces are deterministic");
        a.validate().unwrap();
        // The zipfian trace must differ from the uniform one and
        // concentrate its operations on low keys.
        let uni = base.build_trace();
        assert_ne!(a.events, uni.events);
        let low_keys = |t: &Trace| {
            t.markers
                .iter()
                .filter_map(|m| match m.op {
                    OpKind::Insert(k, _) | OpKind::Delete(k) | OpKind::Contains(k) => Some(k),
                    _ => None,
                })
                .filter(|&k| k <= 8)
                .count()
        };
        assert!(
            low_keys(&a) > 2 * low_keys(&uni).max(1),
            "zipfian ops should concentrate on the hot head"
        );
    }

    #[test]
    fn key_dist_parses_and_names_round_trip() {
        assert_eq!("uniform".parse::<KeyDist>(), Ok(KeyDist::Uniform));
        assert_eq!(
            "zipfian".parse::<KeyDist>(),
            Ok(KeyDist::Zipfian {
                theta: KeyDist::ZIPFIAN_DEFAULT_THETA
            })
        );
        assert!("zipf".parse::<KeyDist>().is_err());
        assert_eq!(KeyDist::Uniform.name(), "uniform");
        assert_eq!(KeyDist::Zipfian { theta: 0.5 }.name(), "zipfian");
    }

    #[test]
    fn key_range_defaults_to_double_size() {
        let spec = WorkloadSpec::new(Structure::LinkedList).initial_size(100);
        assert_eq!(spec.effective_key_range(), 200);
        let spec = spec.key_range(500);
        assert_eq!(spec.effective_key_range(), 500);
    }

    #[test]
    fn initial_keys_are_distinct_and_in_range() {
        let spec = WorkloadSpec::new(Structure::HashMap).initial_size(64);
        let keys = spec.initial_keys();
        assert_eq!(keys.len(), 64);
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
        assert!(keys.iter().all(|&k| (1..=128).contains(&k)));
    }
}
