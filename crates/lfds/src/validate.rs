//! Structural recovery validators.
//!
//! After a (simulated) crash, the NVM holds some prefix of the persist
//! order. *Null recovery* (§2.3) means the structure is usable as-is;
//! these validators walk a raw memory image from the registered roots and
//! check every structural invariant, in particular that **no reachable
//! field is unpersisted garbage** — the exact failure Figure 1 shows ARP
//! permits (a linked node whose contents never persisted).
//!
//! Unwritten NVM words read as [`Trace::POISON`], so "garbage" is
//! detectable deterministically.

use crate::handle::{
    ROOT_BST_R, ROOT_BUCKETS, ROOT_LIST_HEAD, ROOT_NBUCKETS, ROOT_QUEUE_ANCHOR, ROOT_SKIPLIST_HEAD,
};
use crate::ptr::{addr, marked};
use crate::{bst, harness::Structure, list, queue, skiplist};
use lrp_exec::{PmemCtx, SharedMem};
use lrp_model::{Addr, Annot, OpKind, ThreadId, Trace};
use std::collections::BTreeSet;

/// A raw word-granular memory image (e.g. reconstructed NVM contents).
///
/// It is the executor's paged [`SharedMem`]: words the image never
/// received read as [`Trace::POISON`], exactly as unwritten functional
/// memory does.
#[derive(Debug, Clone, Default)]
pub struct MemImage {
    mem: SharedMem,
}

impl MemImage {
    /// Builds an image from `(addr, value)` pairs (a later pair for the
    /// same address wins). Address-sorted input, such as
    /// [`Trace::initial_mem`], fills one page at a time.
    pub fn new(words: impl IntoIterator<Item = (Addr, u64)>) -> Self {
        MemImage {
            mem: SharedMem::from_words(words),
        }
    }

    /// Reads a word ([`Trace::POISON`] if never persisted). A misaligned
    /// address — a walker following a garbage pointer — names no word.
    pub fn read(&self, a: Addr) -> u64 {
        if !a.is_multiple_of(8) {
            return Trace::POISON;
        }
        self.mem.read(a)
    }

    /// Writes a word (used when replaying persists onto an image).
    pub fn write(&mut self, a: Addr, v: u64) {
        self.mem.write(a, v);
    }

    /// Number of words present.
    pub fn len(&self) -> usize {
        self.mem.len()
    }

    /// The image's words as paged memory.
    pub fn as_mem(&self) -> &SharedMem {
        &self.mem
    }

    /// True if the image has no words.
    pub fn is_empty(&self) -> bool {
        self.mem.is_empty()
    }
}

impl From<SharedMem> for MemImage {
    fn from(mem: SharedMem) -> Self {
        MemImage { mem }
    }
}

/// Read-only view of an image for the structures' own searches
/// ([`crate::Handle::lookup`]).
pub(crate) struct ImageCtx<'a>(pub(crate) &'a MemImage);

impl PmemCtx for ImageCtx<'_> {
    fn tid(&self) -> ThreadId {
        0
    }

    async fn read_annot(&mut self, addr: Addr, _annot: Annot) -> u64 {
        self.0.read(addr)
    }

    async fn write_annot(&mut self, addr: Addr, _val: u64, _annot: Annot) {
        unreachable!("image lookups only read (write at {addr:#x})")
    }

    async fn cas_annot(&mut self, addr: Addr, _old: u64, _new: u64, _annot: Annot) -> (bool, u64) {
        unreachable!("image lookups only read (cas at {addr:#x})")
    }

    fn alloc(&mut self, _words: usize) -> Addr {
        unreachable!("image lookups never allocate")
    }

    fn rand(&mut self) -> u64 {
        0
    }

    fn op_begin(&mut self, _op: OpKind) {}

    fn op_end(&mut self, _result: u64) {}
}

fn poison(v: u64) -> bool {
    v == Trace::POISON
}

/// Why a recovered image failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// A reachable word holds unpersisted garbage — the ARP failure mode.
    Garbage {
        /// Address of the poisoned word.
        at: Addr,
        /// What the walker was doing.
        context: &'static str,
    },
    /// Ordering/shape invariant broken.
    Shape(String),
    /// Traversal exceeded the step budget (pointer cycle).
    Cycle(&'static str),
    /// A required root is missing from the trace.
    MissingRoot(&'static str),
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidationError::Garbage { at, context } => {
                write!(f, "unpersisted garbage at {at:#x} while {context}")
            }
            ValidationError::Shape(s) => write!(f, "shape invariant violated: {s}"),
            ValidationError::Cycle(c) => write!(f, "cycle detected in {c}"),
            ValidationError::MissingRoot(r) => write!(f, "missing root {r}"),
        }
    }
}

impl std::error::Error for ValidationError {}

/// The abstract contents recovered from a valid image.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Recovered {
    /// Set/map structures: the present (unmarked, non-sentinel) keys.
    Set(BTreeSet<u64>),
    /// Queue: the values from head to tail.
    Queue(Vec<u64>),
}

impl Recovered {
    /// The key set (panics for queues).
    pub fn keys(&self) -> &BTreeSet<u64> {
        match self {
            Recovered::Set(s) => s,
            Recovered::Queue(_) => panic!("queue state has no key set"),
        }
    }

    /// The key set, by value (panics for queues).
    pub fn into_keys(self) -> BTreeSet<u64> {
        match self {
            Recovered::Set(s) => s,
            Recovered::Queue(_) => panic!("queue state has no key set"),
        }
    }

    /// Deterministic one-line rendering for reports and
    /// counterexamples: `set{k1, k2, ...}` or `queue[v1, v2, ...]`.
    pub fn render(&self) -> String {
        fn join(it: impl Iterator<Item = u64>) -> String {
            it.map(|v| v.to_string()).collect::<Vec<_>>().join(", ")
        }
        match self {
            Recovered::Set(s) => format!("set{{{}}}", join(s.iter().copied())),
            Recovered::Queue(v) => format!("queue[{}]", join(v.iter().copied())),
        }
    }
}

const STEP_LIMIT: usize = 4_000_000;

fn root(roots: &[(String, Addr)], name: &'static str) -> Result<Addr, ValidationError> {
    roots
        .iter()
        .find(|(n, _)| n == name)
        .map(|&(_, a)| a)
        .ok_or(ValidationError::MissingRoot(name))
}

/// Validates one Harris-list chain starting at the pointer word
/// `head_loc`; appends its unmarked keys, in order, to `out`.
fn validate_chain(
    img: &MemImage,
    head_loc: Addr,
    check_key: &dyn Fn(u64) -> Result<(), ValidationError>,
    out: &mut Vec<u64>,
) -> Result<(), ValidationError> {
    let head_raw = img.read(head_loc);
    if poison(head_raw) {
        return Err(ValidationError::Garbage {
            at: head_loc,
            context: "reading list head",
        });
    }
    let mut cur = addr(head_raw);
    let mut last_key: Option<u64> = None;
    let mut steps = 0;
    while cur != 0 {
        steps += 1;
        if steps > STEP_LIMIT {
            return Err(ValidationError::Cycle("list chain"));
        }
        let key = img.read(cur + list::KEY);
        let val = img.read(cur + list::VAL);
        let next_raw = img.read(cur + list::NEXT);
        if poison(key) {
            return Err(ValidationError::Garbage {
                at: cur + list::KEY,
                context: "reading node key",
            });
        }
        if poison(val) {
            return Err(ValidationError::Garbage {
                at: cur + list::VAL,
                context: "reading node value",
            });
        }
        if poison(next_raw) {
            return Err(ValidationError::Garbage {
                at: cur + list::NEXT,
                context: "reading node next",
            });
        }
        if let Some(lk) = last_key {
            if key <= lk {
                return Err(ValidationError::Shape(format!(
                    "list keys not strictly increasing: {lk} then {key}"
                )));
            }
        }
        check_key(key)?;
        last_key = Some(key);
        if !marked(next_raw) {
            out.push(key);
        }
        cur = addr(next_raw);
    }
    Ok(())
}

/// The key set of a structure walk: the walk collects keys into a
/// `Vec`, and the set is built in one step (sort, then bulk build)
/// rather than by one tree insert per key.
fn key_set(mut keys: Vec<u64>) -> Recovered {
    // Sorted input makes the set's own (stable) sort a single pass.
    keys.sort_unstable();
    Recovered::Set(keys.into_iter().collect())
}

fn validate_list(
    img: &MemImage,
    roots: &[(String, Addr)],
    out: &mut Vec<u64>,
) -> Result<(), ValidationError> {
    let head = root(roots, ROOT_LIST_HEAD)?;
    validate_chain(img, head, &|_| Ok(()), out)
}

fn validate_hashmap(
    img: &MemImage,
    roots: &[(String, Addr)],
    out: &mut Vec<u64>,
) -> Result<(), ValidationError> {
    let buckets = root(roots, ROOT_BUCKETS)?;
    let nbuckets = root(roots, ROOT_NBUCKETS)?;
    let map = crate::hashmap::HashMap { buckets, nbuckets };
    for i in 0..nbuckets {
        let loc = buckets + 8 * i;
        let check_key = |k: u64| {
            // Every key must hash to the bucket it sits in.
            if map.bucket(k) == i {
                Ok(())
            } else {
                Err(ValidationError::Shape(format!(
                    "key {k} found in bucket {i} but hashes elsewhere"
                )))
            }
        };
        validate_chain(img, loc, &check_key, out)?;
    }
    Ok(())
}

fn validate_bst(
    img: &MemImage,
    roots: &[(String, Addr)],
    out: &mut Vec<u64>,
) -> Result<(), ValidationError> {
    let r = root(roots, ROOT_BST_R)?;
    // Explicit stack: (node, lo inclusive, hi inclusive).
    let mut stack = vec![(r, 0u64, u64::MAX)];
    let mut steps = 0;
    while let Some((node, lo, hi)) = stack.pop() {
        steps += 1;
        if steps > STEP_LIMIT {
            return Err(ValidationError::Cycle("bst"));
        }
        let key = img.read(node + bst::KEY);
        if poison(key) {
            return Err(ValidationError::Garbage {
                at: node + bst::KEY,
                context: "reading bst key",
            });
        }
        if key < lo || key > hi {
            return Err(ValidationError::Shape(format!(
                "bst key {key} outside [{lo}, {hi}]"
            )));
        }
        let l_raw = img.read(node + bst::LEFT);
        let r_raw = img.read(node + bst::RIGHT);
        if poison(l_raw) || poison(r_raw) {
            return Err(ValidationError::Garbage {
                at: node + bst::LEFT,
                context: "reading bst child",
            });
        }
        let l = addr(l_raw);
        let rgt = addr(r_raw);
        match (l, rgt) {
            (0, 0) => {
                let val = img.read(node + bst::VAL);
                if poison(val) {
                    return Err(ValidationError::Garbage {
                        at: node + bst::VAL,
                        context: "reading bst leaf value",
                    });
                }
                if key < bst::INF1 {
                    out.push(key);
                }
            }
            (0, _) | (_, 0) => {
                return Err(ValidationError::Shape(format!(
                    "internal bst node {node:#x} with exactly one child"
                )))
            }
            _ => {
                // Bounds are inclusive at the routing key (the sentinel
                // construction places equal keys on both sides).
                stack.push((l, lo, key));
                stack.push((rgt, key, hi));
            }
        }
    }
    Ok(())
}

fn validate_skiplist(
    img: &MemImage,
    roots: &[(String, Addr)],
    present: &mut Vec<u64>,
) -> Result<(), ValidationError> {
    let head = root(roots, ROOT_SKIPLIST_HEAD)?;
    // Level 0 is the ground truth.
    let mut cur = {
        let raw = img.read(head + skiplist::next_off(0));
        if poison(raw) {
            return Err(ValidationError::Garbage {
                at: head + skiplist::next_off(0),
                context: "reading skiplist head",
            });
        }
        addr(raw)
    };
    let mut last_key = 0u64;
    let mut steps = 0;
    while cur != 0 {
        steps += 1;
        if steps > STEP_LIMIT {
            return Err(ValidationError::Cycle("skiplist level 0"));
        }
        let key = img.read(cur + skiplist::KEY);
        let val = img.read(cur + skiplist::VAL);
        let top = img.read(cur + skiplist::TOP);
        if poison(key) || poison(val) || poison(top) {
            return Err(ValidationError::Garbage {
                at: cur + skiplist::KEY,
                context: "reading skiplist node header",
            });
        }
        if !(1..=skiplist::MAX_LEVEL as u64).contains(&top) {
            return Err(ValidationError::Shape(format!(
                "skiplist tower height {top} out of range"
            )));
        }
        if key <= last_key {
            return Err(ValidationError::Shape(format!(
                "skiplist level-0 keys not increasing: {last_key} then {key}"
            )));
        }
        last_key = key;
        let raw0 = img.read(cur + skiplist::next_off(0));
        if poison(raw0) {
            return Err(ValidationError::Garbage {
                at: cur + skiplist::next_off(0),
                context: "reading skiplist next",
            });
        }
        if !marked(raw0) {
            present.push(key);
        }
        cur = addr(raw0);
    }
    // Upper levels: sorted chains of structurally valid nodes. A node may
    // be linked above but already unlinked at level 0 (crash mid-delete);
    // that is recoverable, so only integrity is required.
    for lvl in 1..skiplist::MAX_LEVEL {
        let mut cur = addr(img.read(head + skiplist::next_off(lvl)));
        let mut last = 0u64;
        let mut steps = 0;
        while cur != 0 {
            steps += 1;
            if steps > STEP_LIMIT {
                return Err(ValidationError::Cycle("skiplist upper level"));
            }
            let key = img.read(cur + skiplist::KEY);
            let raw = img.read(cur + skiplist::next_off(lvl));
            if poison(key) || poison(raw) {
                return Err(ValidationError::Garbage {
                    at: cur,
                    context: "reading skiplist upper level",
                });
            }
            if key <= last {
                return Err(ValidationError::Shape(format!(
                    "skiplist level-{lvl} keys not increasing"
                )));
            }
            last = key;
            cur = addr(raw);
        }
    }
    Ok(())
}

fn validate_queue(
    img: &MemImage,
    roots: &[(String, Addr)],
    out: &mut Vec<u64>,
) -> Result<(), ValidationError> {
    let anchor = root(roots, ROOT_QUEUE_ANCHOR)?;
    let head = img.read(anchor);
    let tail = img.read(anchor + 8);
    if poison(head) || poison(tail) {
        return Err(ValidationError::Garbage {
            at: anchor,
            context: "reading queue anchor",
        });
    }
    // Walk from head; values strictly after the dummy are the contents.
    let mut cur = head;
    let mut first = true;
    let mut steps = 0;
    let mut saw_tail = head == tail;
    while cur != 0 {
        steps += 1;
        if steps > STEP_LIMIT {
            return Err(ValidationError::Cycle("queue chain"));
        }
        let next_raw = img.read(cur + queue::NEXT);
        if poison(next_raw) {
            return Err(ValidationError::Garbage {
                at: cur + queue::NEXT,
                context: "reading queue next",
            });
        }
        if !first {
            let val = img.read(cur + queue::VAL);
            if poison(val) {
                return Err(ValidationError::Garbage {
                    at: cur + queue::VAL,
                    context: "reading queue value",
                });
            }
            out.push(val);
        }
        if cur == tail {
            saw_tail = true;
        }
        first = false;
        cur = next_raw;
    }
    // The tail pointer is only a hint (its swing CAS is plain): across a
    // crash it may point at a node whose fields never persisted, or lag
    // arbitrarily. Recovery reconstructs it by walking from head, so its
    // chain is deliberately NOT validated.
    let _ = saw_tail;
    Ok(())
}

/// Walks a recovered memory image for `structure`, checking every
/// structural invariant, and appends what it holds to `out`: the
/// present keys (unsorted) or, for the queue, the values from head to
/// tail. A caller that needs only the verdict reuses one `out`.
pub fn walk_image(
    structure: Structure,
    roots: &[(String, Addr)],
    img: &MemImage,
    out: &mut Vec<u64>,
) -> Result<(), ValidationError> {
    match structure {
        Structure::LinkedList => validate_list(img, roots, out),
        Structure::HashMap => validate_hashmap(img, roots, out),
        Structure::Bst => validate_bst(img, roots, out),
        Structure::SkipList => validate_skiplist(img, roots, out),
        Structure::Queue => validate_queue(img, roots, out),
    }
}

/// Validates a recovered memory image for `structure`, returning the
/// abstract contents on success.
pub fn validate_image(
    structure: Structure,
    roots: &[(String, Addr)],
    img: &MemImage,
) -> Result<Recovered, ValidationError> {
    let mut out = Vec::new();
    walk_image(structure, roots, img, &mut out)?;
    Ok(match structure {
        Structure::Queue => Recovered::Queue(out),
        _ => key_set(out),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::WorkloadSpec;
    use lrp_model::OpKind;

    fn image_of(trace: &Trace) -> MemImage {
        MemImage::new(trace.final_mem())
    }

    fn run_and_validate(structure: Structure) -> Recovered {
        let spec = WorkloadSpec::new(structure)
            .initial_size(24)
            .threads(3)
            .ops_per_thread(20)
            .seed(5);
        let trace = spec.build_trace();
        trace.validate().unwrap();
        validate_image(structure, &trace.roots, &image_of(&trace)).unwrap()
    }

    #[test]
    fn final_states_validate_for_all_structures() {
        for s in Structure::ALL {
            let r = run_and_validate(s);
            match r {
                Recovered::Set(keys) => assert!(!keys.is_empty(), "{s:?} should retain keys"),
                Recovered::Queue(_) => {}
            }
        }
    }

    /// The contents the operation history implies, sorted: the initial
    /// keys plus successful inserts minus successful deletes; for the
    /// queue, the initial values plus enqueues minus dequeues.
    fn history_contents(spec: &WorkloadSpec, trace: &Trace) -> Vec<u64> {
        let mut count: std::collections::BTreeMap<u64, i64> = Default::default();
        let start = match spec.structure {
            Structure::Queue => (1..=spec.initial_keys().len() as u64).collect(),
            _ => spec.initial_keys(),
        };
        for k in start {
            *count.entry(k).or_default() += 1;
        }
        for m in &trace.markers {
            let (k, d) = match (m.op, m.result) {
                (OpKind::Insert(k, _), 1) | (OpKind::Enqueue(k), _) => (k, 1),
                (OpKind::Delete(k), 1) => (k, -1),
                (OpKind::Dequeue, r) if r > 0 => (r - 1, -1),
                _ => continue,
            };
            *count.entry(k).or_default() += d;
        }
        assert!(count.values().all(|&c| c == 0 || c == 1), "{count:?}");
        count
            .into_iter()
            .filter(|&(_, c)| c == 1)
            .map(|(k, _)| k)
            .collect()
    }

    #[test]
    fn recovered_contents_equal_the_final_image_keys() {
        for s in Structure::ALL {
            for seed in 1..=3 {
                let spec = WorkloadSpec::new(s)
                    .initial_size(200)
                    .threads(4)
                    .ops_per_thread(40)
                    .seed(seed);
                let trace = spec.build_trace();
                let got: Vec<u64> = match validate_image(s, &trace.roots, &image_of(&trace)) {
                    Ok(Recovered::Set(keys)) => keys.into_iter().collect(),
                    Ok(Recovered::Queue(mut values)) => {
                        values.sort_unstable();
                        values
                    }
                    Err(e) => panic!("{s:?} seed {seed}: {e}"),
                };
                assert_eq!(got, history_contents(&spec, &trace), "{s:?} seed {seed}");
            }
        }
    }

    #[test]
    fn garbage_key_is_detected() {
        let spec = WorkloadSpec::new(Structure::LinkedList)
            .initial_size(8)
            .threads(1)
            .ops_per_thread(4);
        let trace = spec.build_trace();
        let mut img = image_of(&trace);
        // Poison the key of the first reachable node.
        let head = trace.roots[0].1;
        let first = crate::ptr::addr(img.read(head));
        assert_ne!(first, 0);
        img.write(first + list::KEY, Trace::POISON);
        let err = validate_image(Structure::LinkedList, &trace.roots, &img).unwrap_err();
        assert!(matches!(err, ValidationError::Garbage { .. }));
    }

    #[test]
    fn unsorted_list_is_detected() {
        let spec = WorkloadSpec::new(Structure::LinkedList)
            .initial_size(8)
            .threads(1)
            .ops_per_thread(0);
        let trace = spec.build_trace();
        let mut img = image_of(&trace);
        let head = trace.roots[0].1;
        let first = crate::ptr::addr(img.read(head));
        img.write(first + list::KEY, u64::MAX - 3);
        let err = validate_image(Structure::LinkedList, &trace.roots, &img).unwrap_err();
        assert!(matches!(err, ValidationError::Shape(_)));
    }

    #[test]
    fn cycle_is_detected() {
        let spec = WorkloadSpec::new(Structure::LinkedList)
            .initial_size(4)
            .threads(1)
            .ops_per_thread(0);
        let trace = spec.build_trace();
        let mut img = image_of(&trace);
        let head = trace.roots[0].1;
        let first = crate::ptr::addr(img.read(head));
        img.write(first + list::NEXT, first);
        let err = validate_image(Structure::LinkedList, &trace.roots, &img).unwrap_err();
        // A self-loop repeats the same key, which trips either the sort
        // check or the step limit; both reject the image.
        assert!(matches!(
            err,
            ValidationError::Cycle(_) | ValidationError::Shape(_)
        ));
    }

    #[test]
    fn bst_one_child_internal_is_detected() {
        let spec = WorkloadSpec::new(Structure::Bst)
            .initial_size(8)
            .threads(1)
            .ops_per_thread(0);
        let trace = spec.build_trace();
        let mut img = image_of(&trace);
        let r = trace.roots.iter().find(|(n, _)| n == "bst_r").unwrap().1;
        let s = crate::ptr::addr(img.read(r + bst::LEFT));
        img.write(s + bst::RIGHT, 0);
        let err = validate_image(Structure::Bst, &trace.roots, &img).unwrap_err();
        assert!(matches!(err, ValidationError::Shape(_)));
    }

    #[test]
    fn missing_root_is_reported() {
        let img = MemImage::default();
        let err = validate_image(Structure::Queue, &[], &img).unwrap_err();
        assert_eq!(err, ValidationError::MissingRoot("q_anchor"));
    }

    #[test]
    fn queue_contents_match_history() {
        let spec = WorkloadSpec::new(Structure::Queue)
            .initial_size(10)
            .threads(2)
            .ops_per_thread(10)
            .seed(3);
        let trace = spec.build_trace();
        let r = validate_image(Structure::Queue, &trace.roots, &image_of(&trace)).unwrap();
        match r {
            Recovered::Queue(values) => {
                // No duplicates in the live queue.
                let mut s = values.clone();
                s.sort_unstable();
                s.dedup();
                assert_eq!(s.len(), values.len());
            }
            _ => panic!("queue expected"),
        }
    }
}
