//! lrp-blame: streaming attribution of persist cost to `OpSite`s.
//!
//! A [`BlameTable`] charges stall cycles and persist latency to
//! `(site, cause)` keys as the run executes. Two stores cooperate:
//!
//! * **exact per-site totals** — a map keyed by `(site, cause)`; like the
//!   online histograms, these never drop, so they stay correct even when
//!   the export ring overflows;
//! * a **space-saving top-K sketch** over `(site, cause, line)` — the
//!   per-cache-line heavy hitters, in bounded memory. The classic
//!   space-saving guarantee applies: a key's reported weight
//!   overestimates its true weight by at most its recorded `error`, and
//!   any key whose true weight exceeds `total/capacity` is present.
//!   Evictions are counted and exposed, never silent.
//!
//! A charge costs one hash lookup and at most O(log K) swaps for a
//! sketch of capacity K: counters sit in a slot array, a hash index
//! maps a key to its slot, and a binary min-heap of slot ids ordered by
//! `(weight, key)` keeps the eviction victim at its root (the smallest
//! `(weight, key)`, so ties evict the smallest key). A charge to a
//! tracked key only raises its weight and sifts it down; a new key in a
//! full sketch takes the root's slot. Key order is built by sorting,
//! only when asked for (`entries`, `top`, `merge`, reports). During a
//! run the [`crate::Recorder`] charges rank-interned keys — a site is
//! the rank of its name among the sorted distinct names, `"unknown"`
//! included — so a charge copies integers and, once the sketch is full,
//! allocates nothing. `finish` renders ranks back to names once; rank
//! order is name order, so the report equals the one that charging
//! [`BlameTable::charge`] by name would build.
//!
//! Site labels follow the `structure/operation[/phase]` naming scheme
//! (e.g. `queue/enqueue/link-next`); `"unknown"` collects unlabeled work.

use crate::json::Json;
use crate::stats::{FlushClass, StallCause};
use lrp_model::{FxHashMap, LineAddr};
use std::collections::BTreeMap;
use std::hash::Hash;

/// Default sketch capacity (distinct `(site, cause, line)` keys tracked).
pub const DEFAULT_SKETCH_CAPACITY: usize = 512;

/// Why cycles were charged to a site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BlameCause {
    /// A raw core stall, by its machine-level cause.
    Stall(StallCause),
    /// A store-side stall taken while the RET was full — LRP's
    /// critical-path drain (§5.1's stall-on-full-table).
    RetFull,
    /// A store-side stall taken behind a mechanism flush barrier — the
    /// BB/SB full-barrier drain on the issuing core's critical path.
    BarrierDrain,
    /// Persist latency (issue→ack) of a flush, by its class.
    Flush(FlushClass),
}

impl BlameCause {
    /// Every cause, in the stable order used by serialized reports.
    pub const ALL: [BlameCause; 11] = [
        BlameCause::Stall(StallCause::LoadMiss),
        BlameCause::Stall(StallCause::StoreDrain),
        BlameCause::Stall(StallCause::MechFlush),
        BlameCause::Stall(StallCause::PersistAck),
        BlameCause::Stall(StallCause::RfWait),
        BlameCause::RetFull,
        BlameCause::BarrierDrain,
        BlameCause::Flush(FlushClass::Critical),
        BlameCause::Flush(FlushClass::Background),
        BlameCause::Flush(FlushClass::Sync),
        BlameCause::Flush(FlushClass::Directory),
    ];

    /// The folded-stack middle frame: what family of cost this is.
    pub fn kind(self) -> &'static str {
        match self {
            BlameCause::Stall(_) | BlameCause::RetFull | BlameCause::BarrierDrain => "stall",
            BlameCause::Flush(_) => "flush",
        }
    }

    /// Stable snake_case detail name (the folded-stack leaf frame).
    pub fn name(self) -> &'static str {
        match self {
            BlameCause::Stall(c) => c.name(),
            BlameCause::RetFull => "ret_full",
            BlameCause::BarrierDrain => "barrier_drain",
            BlameCause::Flush(c) => c.name(),
        }
    }

    /// Parses a `(kind, name)` pair back into a cause.
    pub fn from_parts(kind: &str, name: &str) -> Option<BlameCause> {
        BlameCause::ALL
            .into_iter()
            .find(|c| c.kind() == kind && c.name() == name)
    }
}

/// Exact accumulated blame for one `(site, cause)` key.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlameCell {
    /// Charges recorded.
    pub count: u64,
    /// Cycles charged.
    pub cycles: u64,
}

/// One tracked heavy-hitter key: a cache line at a site, per cause.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LineKey {
    /// The `OpSite` label.
    pub site: String,
    /// What cost was charged.
    pub cause: BlameCause,
    /// The cache line blamed.
    pub line: LineAddr,
}

/// A sketch counter: `weight` may overestimate by at most `error`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SketchCell {
    /// Estimated cycles charged to this key (upper bound).
    pub weight: u64,
    /// Maximum overestimate inherited from evicted keys.
    pub error: u64,
}

/// A space-saving top-K heavy-hitter sketch with deterministic
/// tie-breaking (smallest key evicts first among minimum weights).
///
/// Counters live in a slot array. A binary min-heap of slot ids ordered
/// by `(weight, key)` keeps the eviction victim at its root, and a hash
/// index finds a key's slot. A charge to a tracked key is one lookup
/// and a sift-down (weights only grow); a new key, once the sketch is
/// full, takes the root's slot and sifts down. Keys are cloned only
/// when new, and a full sketch allocates nothing. Key order is built
/// only when asked for ([`SpaceSaving::entries`], `top`, `merge`).
#[derive(Debug, Clone)]
pub struct SpaceSaving<K = LineKey> {
    cap: usize,
    /// Each tracked key and its counter; an eviction reuses the slot.
    slots: Vec<(K, SketchCell)>,
    /// Slot ids as a min-heap on `(weight, key)`: `heap[0]` is the victim.
    heap: Vec<u32>,
    /// Each slot's position in `heap`.
    pos: Vec<u32>,
    /// Key → slot.
    index: FxHashMap<K, u32>,
    evictions: u64,
}

impl<K: Ord + Hash + Clone> SpaceSaving<K> {
    /// A sketch tracking at most `cap` distinct keys (`0` disables it).
    pub fn new(cap: usize) -> SpaceSaving<K> {
        SpaceSaving {
            cap,
            slots: Vec::new(),
            heap: Vec::new(),
            pos: Vec::new(),
            index: FxHashMap::default(),
            evictions: 0,
        }
    }

    /// Adds `weight` to `key`, evicting the minimum-weight counter when
    /// the sketch is at capacity and the key is new.
    pub fn add(&mut self, key: K, weight: u64) {
        self.add_with_error(key, weight, 0);
    }

    fn add_with_error(&mut self, key: K, weight: u64, error: u64) {
        if self.cap == 0 {
            self.evictions += 1;
            return;
        }
        if let Some(&slot) = self.index.get(&key) {
            let cell = &mut self.slots[slot as usize].1;
            let old = cell.weight;
            cell.weight = old.saturating_add(weight);
            cell.error = cell.error.saturating_add(error);
            if cell.weight != old {
                self.sift_down(self.pos[slot as usize] as usize);
            }
            return;
        }
        if self.slots.len() < self.cap {
            self.push(key, SketchCell { weight, error });
            return;
        }
        // Space-saving eviction: the new key takes the victim's slot and
        // inherits its weight as both weight floor and error bound.
        let slot = self.heap[0];
        let floor = self.slots[slot as usize].1.weight;
        let cell = SketchCell {
            weight: floor.saturating_add(weight),
            error: floor.saturating_add(error),
        };
        let (victim, _) = std::mem::replace(&mut self.slots[slot as usize], (key.clone(), cell));
        self.index.remove(&victim);
        self.index.insert(key, slot);
        self.evictions += 1;
        self.sift_down(0);
    }

    /// Tracks a key known to be absent, in a new slot (below capacity).
    fn push(&mut self, key: K, cell: SketchCell) {
        let slot = self.slots.len() as u32;
        self.index.insert(key.clone(), slot);
        self.slots.push((key, cell));
        self.pos.push(self.heap.len() as u32);
        self.heap.push(slot);
        self.sift_up(self.heap.len() - 1);
    }

    /// Whether slot `a` orders before slot `b` on `(weight, key)`.
    fn less(&self, a: u32, b: u32) -> bool {
        let (ka, ca) = &self.slots[a as usize];
        let (kb, cb) = &self.slots[b as usize];
        (ca.weight, ka) < (cb.weight, kb)
    }

    fn swap(&mut self, i: usize, j: usize) {
        self.heap.swap(i, j);
        self.pos[self.heap[i] as usize] = i as u32;
        self.pos[self.heap[j] as usize] = j as u32;
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if !self.less(self.heap[i], self.heap[parent]) {
                break;
            }
            self.swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let left = 2 * i + 1;
            if left >= self.heap.len() {
                break;
            }
            let right = left + 1;
            let child = if right < self.heap.len() && self.less(self.heap[right], self.heap[left]) {
                right
            } else {
                left
            };
            if !self.less(self.heap[child], self.heap[i]) {
                break;
            }
            self.swap(i, child);
            i = child;
        }
    }

    /// Restores one serialized counter, refusing a duplicate key or one
    /// past capacity (either would leave the index inconsistent).
    fn restore(&mut self, key: K, cell: SketchCell) -> Result<(), &'static str> {
        if self.slots.len() >= self.cap {
            return Err("more sketch lines than sketch_capacity");
        }
        if self.index.contains_key(&key) {
            return Err("duplicate sketch line");
        }
        self.push(key, cell);
        Ok(())
    }

    /// The same sketch under other keys. `f` must be strictly
    /// increasing (it preserves key order and never merges two keys),
    /// so ties, `entries` order and later evictions are unchanged, and
    /// the heap stays as it is.
    pub(crate) fn map_keys<J: Ord + Hash + Clone>(
        self,
        mut f: impl FnMut(K) -> J,
    ) -> SpaceSaving<J> {
        let slots: Vec<(J, SketchCell)> = self.slots.into_iter().map(|(k, c)| (f(k), c)).collect();
        SpaceSaving {
            cap: self.cap,
            index: slots
                .iter()
                .enumerate()
                .map(|(slot, (k, _))| (k.clone(), slot as u32))
                .collect(),
            slots,
            heap: self.heap,
            pos: self.pos,
            evictions: self.evictions,
        }
    }

    /// Distinct keys currently tracked.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when nothing has been tracked.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Counters evicted (or refused, for a zero-capacity sketch). When
    /// zero, every reported weight is exact.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// All tracked counters in key order (sorted on each call).
    pub fn entries(&self) -> impl Iterator<Item = (&K, &SketchCell)> {
        let mut v: Vec<_> = self.slots.iter().map(|(k, c)| (k, c)).collect();
        v.sort_unstable_by(|a, b| a.0.cmp(b.0));
        v.into_iter()
    }

    /// The `n` heaviest keys, weight-descending (key order breaks ties).
    pub fn top(&self, n: usize) -> Vec<(&K, &SketchCell)> {
        let mut v: Vec<_> = self.slots.iter().map(|(k, c)| (k, c)).collect();
        v.sort_unstable_by(|a, b| b.1.weight.cmp(&a.1.weight).then_with(|| a.0.cmp(b.0)));
        v.truncate(n);
        v
    }

    /// Folds another sketch into this one, in `other`'s key order. When
    /// the union of keys fits the capacity the merge is exact (weights
    /// and errors sum); otherwise overflow keys go through the eviction
    /// path and the result remains a valid space-saving summary of the
    /// union.
    pub fn merge(&mut self, other: &SpaceSaving<K>) {
        for (k, c) in other.entries() {
            self.add_with_error(k.clone(), c.weight, c.error);
        }
        self.evictions += other.evictions;
    }
}

/// Two sketches are equal when they track the same counters under the
/// same capacity and eviction count, however their slots are laid out.
impl<K: Ord + Hash + Clone> PartialEq for SpaceSaving<K> {
    fn eq(&self, other: &Self) -> bool {
        self.cap == other.cap
            && self.evictions == other.evictions
            && self.slots.len() == other.slots.len()
            && self.slots.iter().all(|(k, c)| {
                other
                    .index
                    .get(k)
                    .is_some_and(|&slot| other.slots[slot as usize].1 == *c)
            })
    }
}

impl<K: Ord + Hash + Clone> Eq for SpaceSaving<K> {}

/// The streaming attribution table: exact `(site, cause)` totals plus
/// the per-line heavy-hitter sketch.
#[derive(Debug, Clone, PartialEq)]
pub struct BlameTable {
    /// Exact per-`(site, cause)` totals (never dropped).
    pub exact: BTreeMap<(String, BlameCause), BlameCell>,
    /// The bounded per-line sketch.
    pub sketch: SpaceSaving,
}

impl Default for BlameTable {
    fn default() -> Self {
        BlameTable::new(DEFAULT_SKETCH_CAPACITY)
    }
}

impl BlameTable {
    /// A table whose sketch tracks `sketch_capacity` line keys.
    pub fn new(sketch_capacity: usize) -> BlameTable {
        BlameTable {
            exact: BTreeMap::new(),
            sketch: SpaceSaving::new(sketch_capacity),
        }
    }

    /// Charges `cycles` of `cause` at `line` to `site`.
    pub fn charge(&mut self, site: &str, cause: BlameCause, line: LineAddr, cycles: u64) {
        let cell = self.exact.entry((site.to_string(), cause)).or_default();
        cell.count += 1;
        cell.cycles = cell.cycles.saturating_add(cycles);
        self.sketch.add(
            LineKey {
                site: site.to_string(),
                cause,
                line,
            },
            cycles,
        );
    }

    /// True when nothing has been charged.
    pub fn is_empty(&self) -> bool {
        self.exact.is_empty()
    }

    /// Total cycles charged across all keys.
    pub fn total_cycles(&self) -> u64 {
        self.exact.values().map(|c| c.cycles).sum()
    }

    /// Cycles charged to one `(site, cause)` key (0 when absent).
    pub fn cycles_for(&self, site: &str, cause: BlameCause) -> u64 {
        self.exact
            .get(&(site.to_string(), cause))
            .map(|c| c.cycles)
            .unwrap_or(0)
    }

    /// Cycles charged to `cause` summed over all sites.
    pub fn cycles_for_cause(&self, cause: BlameCause) -> u64 {
        self.exact
            .iter()
            .filter(|((_, c), _)| *c == cause)
            .map(|(_, cell)| cell.cycles)
            .sum()
    }

    /// Folds another table into this one. Exact totals merge exactly;
    /// the sketch merge is exact while the key union fits its capacity.
    pub fn merge(&mut self, other: &BlameTable) {
        for ((site, cause), cell) in &other.exact {
            let mine = self.exact.entry((site.clone(), *cause)).or_default();
            mine.count += cell.count;
            mine.cycles = mine.cycles.saturating_add(cell.cycles);
        }
        self.sketch.merge(&other.sketch);
    }

    /// Folded-stacks flame-graph export: one `site;kind;cause cycles`
    /// line per non-zero key, loadable by standard flamegraph tools.
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for ((site, cause), cell) in &self.exact {
            if cell.cycles == 0 {
                continue;
            }
            out.push_str(&format!(
                "{};{};{} {}\n",
                site,
                cause.kind(),
                cause.name(),
                cell.cycles
            ));
        }
        out
    }
}

/// One row of a differential profile: how blame moved between runs.
#[derive(Debug, Clone, PartialEq)]
pub struct BlameDelta {
    /// The `OpSite` label.
    pub site: String,
    /// The cost family.
    pub cause: BlameCause,
    /// Cycles in run A.
    pub a_cycles: u64,
    /// Cycles in run B.
    pub b_cycles: u64,
}

impl BlameDelta {
    /// Signed `a - b` cycle delta.
    pub fn delta(&self) -> i128 {
        self.a_cycles as i128 - self.b_cycles as i128
    }
}

/// Ranks every `(site, cause)` key appearing in either table by the
/// magnitude of its attribution delta, largest first (key order breaks
/// ties deterministically).
pub fn diff(a: &BlameTable, b: &BlameTable) -> Vec<BlameDelta> {
    let mut keys: Vec<&(String, BlameCause)> = a.exact.keys().collect();
    for k in b.exact.keys() {
        if !a.exact.contains_key(k) {
            keys.push(k);
        }
    }
    let mut rows: Vec<BlameDelta> = keys
        .into_iter()
        .map(|(site, cause)| BlameDelta {
            site: site.clone(),
            cause: *cause,
            a_cycles: a.cycles_for(site, *cause),
            b_cycles: b.cycles_for(site, *cause),
        })
        .collect();
    rows.sort_by(|x, y| {
        y.delta()
            .abs()
            .cmp(&x.delta().abs())
            .then_with(|| (&x.site, x.cause).cmp(&(&y.site, y.cause)))
    });
    rows
}

/// Serializes a table (exact totals + sketch) for machine consumption.
pub fn blame_json(t: &BlameTable) -> Json {
    let exact = t
        .exact
        .iter()
        .map(|((site, cause), cell)| {
            Json::obj([
                ("site", Json::Str(site.clone())),
                ("kind", Json::Str(cause.kind().to_string())),
                ("cause", Json::Str(cause.name().to_string())),
                ("count", Json::U64(cell.count)),
                ("cycles", Json::U64(cell.cycles)),
            ])
        })
        .collect();
    let lines = t
        .sketch
        .entries()
        .map(|(k, c)| {
            Json::obj([
                ("site", Json::Str(k.site.clone())),
                ("kind", Json::Str(k.cause.kind().to_string())),
                ("cause", Json::Str(k.cause.name().to_string())),
                ("line", Json::U64(k.line)),
                ("weight", Json::U64(c.weight)),
                ("error", Json::U64(c.error)),
            ])
        })
        .collect();
    Json::obj([
        ("sketch_capacity", Json::U64(t.sketch.capacity() as u64)),
        ("sketch_evictions", Json::U64(t.sketch.evictions())),
        ("exact", Json::Arr(exact)),
        ("lines", Json::Arr(lines)),
    ])
}

fn parse_cause(doc: &Json) -> Result<BlameCause, String> {
    let kind = doc.field_str("kind")?;
    let name = doc.field_str("cause")?;
    BlameCause::from_parts(kind, name).ok_or_else(|| format!("unknown blame cause {kind}:{name}"))
}

/// Parses a table serialized by [`blame_json`].
pub fn parse_blame(doc: &Json) -> Result<BlameTable, String> {
    let cap = doc.field_u64("sketch_capacity")? as usize;
    let mut t = BlameTable::new(cap);
    for e in doc
        .get("exact")
        .and_then(Json::as_arr)
        .ok_or("missing blame exact array")?
    {
        let cause = parse_cause(e)?;
        t.exact.insert(
            (e.field_str("site")?.to_string(), cause),
            BlameCell {
                count: e.field_u64("count")?,
                cycles: e.field_u64("cycles")?,
            },
        );
    }
    for e in doc
        .get("lines")
        .and_then(Json::as_arr)
        .ok_or("missing blame lines array")?
    {
        let key = LineKey {
            site: e.field_str("site")?.to_string(),
            cause: parse_cause(e)?,
            line: e.field_u64("line")?,
        };
        let cell = SketchCell {
            weight: e.field_u64("weight")?,
            error: e.field_u64("error")?,
        };
        t.sketch.restore(key, cell)?;
    }
    t.sketch.evictions = doc.field_u64("sketch_evictions")?;
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(site: &str, line: LineAddr) -> LineKey {
        LineKey {
            site: site.to_string(),
            cause: BlameCause::RetFull,
            line,
        }
    }

    #[test]
    fn sketch_is_bounded_and_counts_evictions() {
        let mut s = SpaceSaving::new(4);
        for i in 0..10u64 {
            s.add(key("a", i * 64), 1);
        }
        assert_eq!(s.len(), 4);
        assert_eq!(s.evictions(), 6);
    }

    #[test]
    fn sketch_keeps_the_heavy_hitter() {
        let mut s = SpaceSaving::new(4);
        s.add(key("hot", 0x40), 1000);
        for i in 1..50u64 {
            s.add(key("cold", i * 64), 1);
        }
        let top = s.top(1);
        assert_eq!(top[0].0.site, "hot");
        assert!(top[0].1.weight >= 1000, "weight is an upper bound");
    }

    #[test]
    fn sketch_under_capacity_is_exact() {
        let mut s = SpaceSaving::new(16);
        s.add(key("a", 0x40), 10);
        s.add(key("a", 0x40), 5);
        s.add(key("b", 0x80), 3);
        assert_eq!(s.evictions(), 0);
        let top = s.top(2);
        assert_eq!(top[0].1.weight, 15);
        assert_eq!(top[0].1.error, 0);
        assert_eq!(top[1].1.weight, 3);
    }

    #[test]
    fn charge_accumulates_exact_totals() {
        let mut t = BlameTable::new(8);
        t.charge("queue/enqueue/link-next", BlameCause::RetFull, 0x40, 100);
        t.charge("queue/enqueue/link-next", BlameCause::RetFull, 0x80, 20);
        t.charge(
            "queue/dequeue",
            BlameCause::Flush(FlushClass::Critical),
            0x40,
            350,
        );
        assert_eq!(
            t.cycles_for("queue/enqueue/link-next", BlameCause::RetFull),
            120
        );
        assert_eq!(
            t.cycles_for_cause(BlameCause::Flush(FlushClass::Critical)),
            350
        );
        assert_eq!(t.total_cycles(), 470);
    }

    fn sample(tag: &str, n: u64) -> BlameTable {
        let mut t = BlameTable::new(64);
        for i in 0..n {
            t.charge(
                &format!("{tag}/op"),
                BlameCause::Stall(StallCause::StoreDrain),
                i * 64,
                10 + i,
            );
            t.charge("shared/op", BlameCause::RetFull, 0x1000, 7);
        }
        t
    }

    #[test]
    fn merge_matches_serial_and_is_order_independent() {
        let a = sample("a", 3);
        let b = sample("b", 5);
        let c = sample("c", 2);
        // Serial: one table charged with everything.
        let mut serial = BlameTable::new(64);
        for part in [&a, &b, &c] {
            for ((site, cause), cell) in &part.exact {
                // Re-derive serial charges from the parts' exact cells.
                let mine = serial.exact.entry((site.clone(), *cause)).or_default();
                mine.count += cell.count;
                mine.cycles += cell.cycles;
            }
        }
        let mut fwd = BlameTable::new(64);
        fwd.merge(&a);
        fwd.merge(&b);
        fwd.merge(&c);
        let mut rev = BlameTable::new(64);
        rev.merge(&c);
        rev.merge(&b);
        rev.merge(&a);
        assert_eq!(fwd.exact, rev.exact);
        assert_eq!(
            fwd.sketch, rev.sketch,
            "under-capacity sketch merge is exact"
        );
        assert_eq!(fwd.exact, serial.exact);
        // Associativity: (a+b)+c == a+(b+c).
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right);
    }

    #[test]
    fn merge_equals_serial_charging() {
        let mut serial = BlameTable::new(64);
        let mut a = BlameTable::new(64);
        let mut b = BlameTable::new(64);
        for (i, part) in [(0u64, &mut a), (1, &mut b)] {
            for j in 0..4u64 {
                part.charge("s/op", BlameCause::RetFull, (i * 4 + j) * 64, j + 1);
            }
        }
        for i in 0..8u64 {
            serial.charge("s/op", BlameCause::RetFull, i * 64, i % 4 + 1);
        }
        a.merge(&b);
        assert_eq!(a, serial);
    }

    #[test]
    fn folded_output_is_flamegraph_loadable() {
        let mut t = BlameTable::new(8);
        t.charge("queue/enqueue/link-next", BlameCause::RetFull, 0x40, 120);
        t.charge(
            "queue/dequeue",
            BlameCause::Flush(FlushClass::Background),
            0x80,
            350,
        );
        let folded = t.folded();
        assert!(folded.contains("queue/enqueue/link-next;stall;ret_full 120\n"));
        assert!(folded.contains("queue/dequeue;flush;background 350\n"));
        for line in folded.lines() {
            let (stack, count) = line.rsplit_once(' ').unwrap();
            assert_eq!(stack.split(';').count(), 3);
            count.parse::<u64>().unwrap();
        }
    }

    #[test]
    fn diff_ranks_by_delta_magnitude() {
        let mut a = BlameTable::new(8);
        a.charge("x/op", BlameCause::RetFull, 0x40, 1000);
        a.charge("y/op", BlameCause::BarrierDrain, 0x80, 10);
        let mut b = BlameTable::new(8);
        b.charge("y/op", BlameCause::BarrierDrain, 0x80, 500);
        let rows = diff(&a, &b);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].site, "x/op");
        assert_eq!(rows[0].delta(), 1000);
        assert_eq!(rows[1].delta(), -490);
    }

    #[test]
    fn json_round_trip() {
        let mut t = sample("rt", 6);
        t.charge("rt/extra", BlameCause::Flush(FlushClass::Sync), 0xF00, 42);
        let doc = blame_json(&t);
        let back = parse_blame(&Json::parse(&doc.to_compact()).unwrap()).unwrap();
        assert_eq!(back, t);
        assert_eq!(blame_json(&back).to_compact(), doc.to_compact());
    }

    /// The min-scan reference sketch: its victim is found by scanning
    /// every counter for the smallest `(weight, key)`.
    struct Reference<K> {
        cap: usize,
        counters: BTreeMap<K, SketchCell>,
        evictions: u64,
    }

    impl<K: Ord + Clone> Reference<K> {
        fn new(cap: usize) -> Self {
            Reference {
                cap,
                counters: BTreeMap::new(),
                evictions: 0,
            }
        }

        fn add_with_error(&mut self, key: K, weight: u64, error: u64) {
            if self.cap == 0 {
                self.evictions += 1;
                return;
            }
            if let Some(c) = self.counters.get_mut(&key) {
                c.weight = c.weight.saturating_add(weight);
                c.error = c.error.saturating_add(error);
                return;
            }
            if self.counters.len() < self.cap {
                self.counters.insert(key, SketchCell { weight, error });
                return;
            }
            let (victim, floor) = self
                .counters
                .iter()
                .min_by_key(|(k, c)| (c.weight, (*k).clone()))
                .map(|(k, c)| (k.clone(), c.weight))
                .unwrap();
            self.counters.remove(&victim);
            self.evictions += 1;
            self.counters.insert(
                key,
                SketchCell {
                    weight: floor.saturating_add(weight),
                    error: floor.saturating_add(error),
                },
            );
        }

        /// The key the next evicting add removes.
        fn victim(&self) -> Option<&K> {
            self.counters
                .iter()
                .min_by(|a, b| (a.1.weight, a.0).cmp(&(b.1.weight, b.0)))
                .map(|(k, _)| k)
        }

        fn merge(&mut self, other: &Reference<K>) {
            for (k, c) in &other.counters {
                self.add_with_error(k.clone(), c.weight, c.error);
            }
            self.evictions += other.evictions;
        }

        fn top(&self, n: usize) -> Vec<(&K, &SketchCell)> {
            let mut v: Vec<_> = self.counters.iter().collect();
            v.sort_by(|a, b| b.1.weight.cmp(&a.1.weight).then_with(|| a.0.cmp(b.0)));
            v.truncate(n);
            v
        }
    }

    fn assert_same<K: Ord + Hash + Clone + std::fmt::Debug>(s: &SpaceSaving<K>, r: &Reference<K>) {
        assert!(s.entries().eq(r.counters.iter()), "entries differ");
        assert_eq!(s.evictions(), r.evictions);
        for n in [1, 3, s.capacity()] {
            assert_eq!(s.top(n), r.top(n));
        }
        assert_heap(s);
    }

    /// The heap orders every slot on `(weight, key)`, and the position
    /// array and the key index agree with the heap and the slots.
    fn assert_heap<K: Ord + Hash + Clone + std::fmt::Debug>(s: &SpaceSaving<K>) {
        assert_eq!(s.heap.len(), s.slots.len());
        assert_eq!(s.pos.len(), s.slots.len());
        assert_eq!(s.index.len(), s.slots.len());
        for (i, &slot) in s.heap.iter().enumerate() {
            assert_eq!(
                s.pos[slot as usize] as usize, i,
                "position of heap entry {i}"
            );
            if i > 0 {
                assert!(!s.less(slot, s.heap[(i - 1) / 2]), "heap order at {i}");
            }
        }
        for (slot, (k, _)) in s.slots.iter().enumerate() {
            assert_eq!(s.index.get(k), Some(&(slot as u32)), "index of {k:?}");
        }
    }

    /// A seeded stream of `(key, weight)`: few distinct keys, so keys
    /// repeat; weights in 0..4, so ties and zero weights are common.
    fn stream(seed: u64, len: usize) -> Vec<(LineKey, u64)> {
        let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let sites = ["a/op", "b/op", "c/op/phase"];
        (0..len)
            .map(|_| {
                let r = next();
                let k = LineKey {
                    site: sites[(r % 3) as usize].to_string(),
                    cause: BlameCause::ALL[(r >> 8) as usize % 3],
                    line: (r >> 16) % 40 * 64,
                };
                (k, (r >> 32) % 4)
            })
            .collect()
    }

    #[test]
    fn indexed_sketch_matches_the_min_scan_reference() {
        for cap in [0, 1, 4, 64] {
            for seed in 1..=4u64 {
                let mut parts = Vec::new();
                for part in 0..2u64 {
                    let mut s = SpaceSaving::new(cap);
                    let mut r = Reference::new(cap);
                    for (k, w) in stream(seed * 10 + part, 1500) {
                        s.add(k.clone(), w);
                        r.add_with_error(k, w, 0);
                        assert_same(&s, &r);
                    }
                    parts.push((s, r));
                }
                let (s2, r2) = parts.pop().unwrap();
                let (mut s1, mut r1) = parts.pop().unwrap();
                s1.merge(&s2);
                r1.merge(&r2);
                assert_same(&s1, &r1);
                for (k, w) in stream(seed + 100, 200) {
                    s1.add(k.clone(), w);
                    r1.add_with_error(k, w, 0);
                    assert_same(&s1, &r1);
                }
            }
        }
    }

    /// A paper-scale stream over rank-interned keys: a fifth of the adds
    /// hit 64 hot lines, the rest scatter over 200K lines, so most adds
    /// at capacity 512 evict; weights in 0..8 tie often and include 0.
    fn paper_stream(seed: u64, len: usize) -> Vec<((u32, BlameCause, LineAddr), u64)> {
        let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let line = if x.is_multiple_of(5) {
                    (x >> 8) % 64
                } else {
                    (x >> 8) % 200_000
                };
                let cause = BlameCause::ALL[(x >> 40) as usize % BlameCause::ALL.len()];
                (((x >> 48) as u32 % 6, cause, line * 64), (x >> 56) % 8)
            })
            .collect()
    }

    /// Adds `stream` to both sketches. After every add the added key's
    /// counter, the sizes, the eviction counts and the next victim must
    /// agree (so, inductively, every counter does); every 1024 adds
    /// and at the end the whole sketches are compared.
    fn add_both<K: Ord + Hash + Clone + std::fmt::Debug>(
        s: &mut SpaceSaving<K>,
        r: &mut Reference<K>,
        stream: impl IntoIterator<Item = (K, u64)>,
    ) {
        for (i, (k, w)) in stream.into_iter().enumerate() {
            s.add(k.clone(), w);
            r.add_with_error(k.clone(), w, 0);
            let cell = s.index.get(&k).map(|&slot| &s.slots[slot as usize].1);
            assert_eq!(cell, r.counters.get(&k), "counter of {k:?}");
            assert_eq!((s.len(), s.evictions()), (r.counters.len(), r.evictions));
            let root = s.heap.first().map(|&slot| &s.slots[slot as usize].0);
            assert_eq!(root, r.victim(), "victim after add {i}");
            if i % 1024 == 0 {
                assert_same(s, r);
            }
        }
        assert_same(s, r);
    }

    #[test]
    fn heap_sketch_matches_the_reference_at_paper_scale() {
        const CAP: usize = DEFAULT_SKETCH_CAPACITY;
        let mut parts = Vec::new();
        for (seed, adds) in [(1u64, 50_000), (2, 10_000)] {
            let stream = paper_stream(seed, adds);
            assert!(stream.iter().any(|&(_, w)| w == 0), "zero weights");
            let mut s = SpaceSaving::new(CAP);
            let mut r = Reference::new(CAP);
            add_both(&mut s, &mut r, stream);
            assert!(
                s.evictions() > adds as u64 / 2,
                "{} evictions",
                s.evictions()
            );
            let mut weights: Vec<u64> = s.entries().map(|(_, c)| c.weight).collect();
            weights.sort_unstable();
            assert!(weights.windows(2).any(|w| w[0] == w[1]), "tied weights");
            parts.push((s, r));
        }
        let (s2, r2) = parts.pop().unwrap();
        let (mut s, mut r) = parts.pop().unwrap();
        s.merge(&s2);
        r.merge(&r2);
        assert_same(&s, &r);
        // Renamed keys: strictly increasing, so nothing reorders.
        let name = |(rank, cause, line): (u32, BlameCause, LineAddr)| LineKey {
            site: format!("site{rank:02}/op"),
            cause,
            line,
        };
        let s = s.map_keys(name);
        let mut r = Reference {
            cap: r.cap,
            counters: r.counters.into_iter().map(|(k, c)| (name(k), c)).collect(),
            evictions: r.evictions,
        };
        assert_same(&s, &r);
        // A restore round trip through the JSON encoding keeps charging
        // like the sketch it came from.
        let table = BlameTable {
            exact: BTreeMap::new(),
            sketch: s,
        };
        let doc = Json::parse(&blame_json(&table).to_compact()).unwrap();
        let mut back = parse_blame(&doc).unwrap().sketch;
        assert_eq!(back, table.sketch);
        let more = paper_stream(3, 2_000)
            .into_iter()
            .map(|(k, w)| (name(k), w));
        add_both(&mut back, &mut r, more);
    }

    thread_local! {
        static CMPS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
        static CLONES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    /// A key whose comparisons and clones are counted.
    #[derive(Debug, PartialEq, Eq, Hash)]
    struct Counted(u64);

    impl Ord for Counted {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            CMPS.with(|c| c.set(c.get() + 1));
            self.0.cmp(&other.0)
        }
    }

    impl PartialOrd for Counted {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    impl Clone for Counted {
        fn clone(&self) -> Self {
            CLONES.with(|c| c.set(c.get() + 1));
            Counted(self.0)
        }
    }

    #[test]
    fn evicting_add_costs_log_k_comparisons_and_one_clone() {
        let mut s = SpaceSaving::new(512);
        // Keys in scattered order, weights with many ties.
        for i in 0..512u64 {
            s.add(Counted(i * 7919 % 512), 1 + i % 5);
        }
        let counts = || (CMPS.with(|c| c.get()), CLONES.with(|c| c.get()));
        for key in 1000..1016u64 {
            let (cmps, clones) = counts();
            s.add(Counted(key), 1);
            let (cmps, clones) = (counts().0 - cmps, counts().1 - clones);
            assert!(cmps <= 64, "{cmps} key comparisons for one eviction");
            assert!(clones <= 2, "{clones} key clones for one eviction");
        }
        assert_eq!(s.len(), 512);
        assert_eq!(s.evictions(), 16);
    }

    #[test]
    fn parse_refuses_duplicate_or_excess_sketch_lines() {
        let mut t = BlameTable::new(2);
        t.charge("s/op", BlameCause::RetFull, 0x40, 5);
        t.charge("s/op", BlameCause::RetFull, 0x80, 7);
        let doc = Json::parse(&blame_json(&t).to_compact()).unwrap();
        assert!(parse_blame(&doc).is_ok());
        let lines = |doc: &Json| doc.get("lines").and_then(Json::as_arr).unwrap().to_vec();
        let with_lines = |lines: Vec<Json>, cap: u64| {
            let Json::Obj(mut fields) = doc.clone() else {
                panic!("blame_json is an object")
            };
            for (name, value) in fields.iter_mut() {
                match name.as_str() {
                    "lines" => *value = Json::Arr(lines.clone()),
                    "sketch_capacity" => *value = Json::U64(cap),
                    _ => {}
                }
            }
            Json::Obj(fields)
        };
        let first = lines(&doc)[0].clone();
        let dup = with_lines(vec![first.clone(), first], 4);
        assert!(parse_blame(&dup).unwrap_err().contains("duplicate"));
        let excess = with_lines(lines(&doc), 1);
        assert!(parse_blame(&excess)
            .unwrap_err()
            .contains("sketch_capacity"));
        let none = with_lines(lines(&doc), 0);
        assert!(parse_blame(&none).is_err());
    }

    #[test]
    fn parsed_table_keeps_charging_like_the_original() {
        let mut t = BlameTable::new(4);
        for (i, (k, w)) in stream(9, 300).into_iter().enumerate() {
            t.charge(&k.site, k.cause, k.line, w + i as u64 % 3);
        }
        assert!(t.sketch.evictions() > 0);
        let mut back = parse_blame(&Json::parse(&blame_json(&t).to_compact()).unwrap()).unwrap();
        assert_eq!(back, t);
        for (k, w) in stream(10, 300) {
            t.charge(&k.site, k.cause, k.line, w);
            back.charge(&k.site, k.cause, k.line, w);
            assert_eq!(back, t);
        }
    }

    #[test]
    fn causes_have_stable_parseable_names() {
        for c in BlameCause::ALL {
            assert_eq!(BlameCause::from_parts(c.kind(), c.name()), Some(c));
        }
        assert_eq!(BlameCause::from_parts("stall", "nope"), None);
    }
}
