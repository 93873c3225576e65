//! Set-associative L1 data cache array with per-line coherence state,
//! persistency metadata, and covered-write tracking.
//!
//! The cache maintains an incremental index of its `nvm_dirty` lines —
//! a per-set counter plus a set-level bitmap — so persist-engine scans
//! visit only sets that actually hold dirty lines instead of walking
//! all 64 sets × 8 ways per plan. The index is updated at the three
//! places metadata can change (`set_line_meta`, `take_covered`,
//! `remove`); the visit order (sets ascending, ways in residence
//! order) is exactly the order a full `lines()` walk reports, which
//! engine planning depends on for deterministic stage-0 ordering.

use lrp_core::mech::{L1View, LineMeta};
use lrp_model::{EventId, LineAddr};

/// MESI stable states of an L1 line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CohState {
    /// Shared (read-only).
    S,
    /// Exclusive (clean, sole copy).
    E,
    /// Modified (dirty, sole copy).
    M,
}

/// One resident L1 line.
///
/// Persistency metadata (nvm-dirty / release / min-epoch) is *not*
/// stored here: it lives in the cache's packed SoA columns, slot-
/// indexed parallel to the flat tag table, so persist-engine scans
/// read contiguous words instead of striding through these structs.
/// Read it with [`L1Cache::meta`], write it with
/// [`L1Cache::set_line_meta`].
#[derive(Debug, Clone)]
pub struct L1Line {
    /// The line address.
    pub line: LineAddr,
    /// Coherence state.
    pub state: CohState,
    /// Write events buffered since the line was last flushed.
    pub covered: Vec<EventId>,
    /// Written since fill (data differs from the LLC copy).
    pub dirty: bool,
    /// LRU timestamp.
    pub lru: u64,
}

/// Marks an unoccupied way in the flat tag table. Line addresses come
/// from `line_of` on real word addresses, which never reach the top of
/// the u64 range.
const EMPTY_TAG: LineAddr = LineAddr::MAX;

/// A set-associative L1.
///
/// Lookups are served by a flat `sets * ways` tag table (one
/// contiguous, mostly-host-cache-resident array) that mirrors the
/// residence order of `sets`: `tags[s * ways + w] ==
/// sets[s][w].line` for occupied ways, `EMPTY_TAG` past the end.
/// The full `L1Line` structs are only touched once the way is known.
#[derive(Debug)]
pub struct L1Cache {
    sets: Vec<Vec<L1Line>>,
    tags: Vec<LineAddr>,
    /// SoA persistency-metadata columns, slot-indexed parallel to
    /// `tags` (`slot = s * ways + w`): one `nvm_dirty` bit per slot.
    dirty_bits: Vec<u64>,
    /// One `release` bit per slot.
    release_bits: Vec<u64>,
    /// Per-slot `min_epoch`.
    min_epoch: Vec<u16>,
    ways: usize,
    /// `nsets - 1` when the set count is a power of two (the common
    /// 64-set geometry), else `usize::MAX` to select the modulo path.
    set_mask: usize,
    clock: u64,
    /// Number of `nvm_dirty` lines per set.
    dirty_in_set: Vec<u32>,
    /// One bit per set: `dirty_in_set[s] > 0`.
    dirty_set_bits: Vec<u64>,
}

impl L1Cache {
    /// Creates a cache with `sets` sets of `ways` ways.
    pub fn new(sets: usize, ways: usize) -> Self {
        L1Cache {
            sets: (0..sets).map(|_| Vec::new()).collect(),
            tags: vec![EMPTY_TAG; sets * ways],
            dirty_bits: vec![0; (sets * ways).div_ceil(64)],
            release_bits: vec![0; (sets * ways).div_ceil(64)],
            min_epoch: vec![0; sets * ways],
            ways,
            set_mask: if sets.is_power_of_two() {
                sets - 1
            } else {
                usize::MAX
            },
            clock: 0,
            dirty_in_set: vec![0; sets],
            dirty_set_bits: vec![0; sets.div_ceil(64)],
        }
    }

    #[inline]
    fn meta_at(&self, slot: usize) -> LineMeta {
        let (w, b) = (slot / 64, 1u64 << (slot % 64));
        LineMeta {
            nvm_dirty: self.dirty_bits[w] & b != 0,
            release: self.release_bits[w] & b != 0,
            min_epoch: self.min_epoch[slot],
        }
    }

    #[inline]
    fn write_meta_at(&mut self, slot: usize, meta: LineMeta) {
        let (w, b) = (slot / 64, 1u64 << (slot % 64));
        if meta.nvm_dirty {
            self.dirty_bits[w] |= b;
        } else {
            self.dirty_bits[w] &= !b;
        }
        if meta.release {
            self.release_bits[w] |= b;
        } else {
            self.release_bits[w] &= !b;
        }
        self.min_epoch[slot] = meta.min_epoch;
    }

    fn set_of(&self, line: LineAddr) -> usize {
        if self.set_mask != usize::MAX {
            (line as usize) & self.set_mask
        } else {
            (line as usize) % self.sets.len()
        }
    }

    #[inline]
    fn way_of(&self, s: usize, line: LineAddr) -> Option<usize> {
        let base = s * self.ways;
        self.tags[base..base + self.ways]
            .iter()
            .position(|&t| t == line)
    }

    #[inline]
    fn note_dirty_change(&mut self, s: usize, was: bool, now: bool) {
        if was == now {
            return;
        }
        if now {
            self.dirty_in_set[s] += 1;
            self.dirty_set_bits[s / 64] |= 1 << (s % 64);
        } else {
            self.dirty_in_set[s] -= 1;
            if self.dirty_in_set[s] == 0 {
                self.dirty_set_bits[s / 64] &= !(1 << (s % 64));
            }
        }
    }

    /// Immutable lookup.
    pub fn get(&self, line: LineAddr) -> Option<&L1Line> {
        let s = self.set_of(line);
        self.way_of(s, line).map(|w| &self.sets[s][w])
    }

    /// Mutable lookup. Do not change `meta.nvm_dirty` through the
    /// returned reference — use [`L1Cache::set_line_meta`], which keeps
    /// the dirty-set index consistent.
    pub fn get_mut(&mut self, line: LineAddr) -> Option<&mut L1Line> {
        let s = self.set_of(line);
        self.way_of(s, line).map(|w| &mut self.sets[s][w])
    }

    /// A resident line's persistency metadata (default when absent).
    pub fn meta(&self, line: LineAddr) -> LineMeta {
        let s = self.set_of(line);
        self.way_of(s, line)
            .map(|w| self.meta_at(s * self.ways + w))
            .unwrap_or_default()
    }

    /// Overwrites a resident line's persistency metadata, maintaining
    /// the dirty-set index.
    pub fn set_line_meta(&mut self, line: LineAddr, meta: LineMeta) {
        let s = self.set_of(line);
        let Some(w) = self.way_of(s, line) else {
            return;
        };
        let slot = s * self.ways + w;
        let was = self.dirty_bits[slot / 64] & (1 << (slot % 64)) != 0;
        self.write_meta_at(slot, meta);
        self.note_dirty_change(s, was, meta.nvm_dirty);
    }

    /// Touches the line for LRU.
    pub fn touch(&mut self, line: LineAddr) {
        self.clock += 1;
        let c = self.clock;
        if let Some(l) = self.get_mut(line) {
            l.lru = c;
        }
    }

    /// Read fast path: one tag scan that tests residency and refreshes
    /// LRU in the same pass (equivalent to `get` + `touch` on a hit).
    pub fn read_hit(&mut self, line: LineAddr) -> bool {
        let s = self.set_of(line);
        let Some(w) = self.way_of(s, line) else {
            return false;
        };
        let l = &mut self.sets[s][w];
        if matches!(l.state, CohState::S | CohState::E | CohState::M) {
            self.clock += 1;
            l.lru = self.clock;
            true
        } else {
            false
        }
    }

    /// True if inserting `line` requires evicting a resident line.
    pub fn needs_victim(&self, line: LineAddr) -> bool {
        let s = self.set_of(line);
        self.way_of(s, line).is_none() && self.sets[s].len() >= self.ways
    }

    /// The LRU victim of `line`'s set (must be full).
    pub fn victim_of(&self, line: LineAddr) -> LineAddr {
        let set = &self.sets[self.set_of(line)];
        set.iter()
            .min_by_key(|l| l.lru)
            .expect("set not empty")
            .line
    }

    /// Removes and returns a resident line.
    pub fn remove(&mut self, line: LineAddr) -> Option<L1Line> {
        let s = self.set_of(line);
        let w = self.way_of(s, line)?;
        let base = s * self.ways;
        let last = self.sets[s].len() - 1;
        self.tags[base + w] = self.tags[base + last];
        self.tags[base + last] = EMPTY_TAG;
        // The metadata columns mirror the tags' swap_remove: the last
        // slot's metadata moves into the vacated way, the last slot
        // clears.
        let was_dirty = self.meta_at(base + w).nvm_dirty;
        let moved = self.meta_at(base + last);
        self.write_meta_at(base + w, moved);
        self.write_meta_at(base + last, LineMeta::default());
        let l = self.sets[s].swap_remove(w);
        if was_dirty {
            self.note_dirty_change(s, true, false);
        }
        Some(l)
    }

    /// Inserts a line (the caller has made room).
    pub fn insert(&mut self, line: LineAddr, state: CohState) {
        assert!(self.get(line).is_none(), "line {line:#x} already resident");
        let s = self.set_of(line);
        let len = self.sets[s].len();
        assert!(len < self.ways, "no room in set");
        self.clock += 1;
        let lru = self.clock;
        self.tags[s * self.ways + len] = line;
        self.write_meta_at(s * self.ways + len, LineMeta::default());
        self.sets[s].push(L1Line {
            line,
            state,
            covered: Vec::new(),
            dirty: false,
            lru,
        });
    }

    /// Hands the line's buffered writes to the persist subsystem: drains
    /// `covered` and clears the persistency metadata (the data is on its
    /// way to NVM; later writes re-dirty the line with a fresh epoch).
    pub fn take_covered(&mut self, line: LineAddr) -> Vec<EventId> {
        let s = self.set_of(line);
        if let Some(w) = self.way_of(s, line) {
            let slot = s * self.ways + w;
            let (wd, b) = (slot / 64, 1u64 << (slot % 64));
            let was = self.dirty_bits[wd] & b != 0;
            self.dirty_bits[wd] &= !b;
            self.release_bits[wd] &= !b;
            let covered = std::mem::take(&mut self.sets[s][w].covered);
            self.note_dirty_change(s, was, false);
            covered
        } else {
            Vec::new()
        }
    }

    /// All resident lines (for statistics).
    pub fn lines(&self) -> impl Iterator<Item = &L1Line> {
        self.sets.iter().flatten()
    }

    /// Visits every `nvm_dirty` line in `lines()` order, touching only
    /// sets the dirty index marks. The scan reads nothing but flat
    /// columns — set bitmap, dirty-bit words, tags, and (for hits) the
    /// release/epoch columns — never the `L1Line` structs, so a persist
    /// plan streams contiguous words instead of striding through the
    /// AoS storage.
    pub fn for_each_nvm_dirty(&self, f: &mut dyn FnMut(LineAddr, LineMeta)) {
        for (w, &word) in self.dirty_set_bits.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let s = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let base = s * self.ways;
                // Walk the set's slots in residence order via the
                // dirty-bit column (the slot range may straddle a word
                // boundary for unusual geometries).
                let mut off = 0;
                while off < self.ways {
                    let bit = (base + off) % 64;
                    let avail = (64 - bit).min(self.ways - off);
                    let mask = if avail == 64 {
                        u64::MAX
                    } else {
                        (1u64 << avail) - 1
                    };
                    let mut dirty = (self.dirty_bits[(base + off) / 64] >> bit) & mask;
                    while dirty != 0 {
                        let slot = base + off + dirty.trailing_zeros() as usize;
                        dirty &= dirty - 1;
                        f(self.tags[slot], self.meta_at(slot));
                    }
                    off += avail;
                }
            }
        }
    }
}

/// [`L1View`] adapter handed to persistency mechanisms.
pub struct L1ViewAdapter<'a>(pub &'a mut L1Cache);

impl L1View for L1ViewAdapter<'_> {
    fn for_each_nvm_dirty(&self, f: &mut dyn FnMut(LineAddr, LineMeta)) {
        self.0.for_each_nvm_dirty(f);
    }

    fn meta(&self, line: LineAddr) -> LineMeta {
        self.0.meta(line)
    }

    fn set_meta(&mut self, line: LineAddr, meta: LineMeta) {
        self.0.set_line_meta(line, meta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dirty_meta() -> LineMeta {
        LineMeta {
            nvm_dirty: true,
            release: false,
            min_epoch: 0,
        }
    }

    #[test]
    fn insert_lookup_remove() {
        let mut c = L1Cache::new(4, 2);
        c.insert(0x40, CohState::E);
        assert_eq!(c.get(0x40).unwrap().state, CohState::E);
        assert!(c.get(0x44).is_none());
        let l = c.remove(0x40).unwrap();
        assert_eq!(l.line, 0x40);
        assert!(c.get(0x40).is_none());
    }

    #[test]
    fn victim_is_lru() {
        let mut c = L1Cache::new(1, 2);
        c.insert(1, CohState::S);
        c.insert(2, CohState::S);
        c.touch(1); // 2 becomes LRU
        assert!(c.needs_victim(3));
        assert_eq!(c.victim_of(3), 2);
        assert!(!c.needs_victim(1), "resident line needs no victim");
    }

    #[test]
    fn take_covered_clears_meta() {
        let mut c = L1Cache::new(1, 2);
        c.insert(8, CohState::M);
        c.get_mut(8).unwrap().covered = vec![1, 2, 3];
        c.set_line_meta(
            8,
            LineMeta {
                nvm_dirty: true,
                release: true,
                min_epoch: 0,
            },
        );
        assert_eq!(c.take_covered(8), vec![1, 2, 3]);
        let m = c.meta(8);
        assert!(!m.nvm_dirty && !m.release);
        assert!(c.take_covered(8).is_empty(), "second take is empty");
    }

    #[test]
    fn view_adapter_reports_dirty_lines() {
        let mut c = L1Cache::new(2, 2);
        c.insert(1, CohState::M);
        c.insert(2, CohState::M);
        c.set_line_meta(1, dirty_meta());
        let mut view = L1ViewAdapter(&mut c);
        use lrp_core::mech::L1View as _;
        let dirty = |view: &L1ViewAdapter| {
            let mut v = Vec::new();
            view.for_each_nvm_dirty(&mut |line, _| v.push(line));
            v
        };
        assert_eq!(dirty(&view), vec![1]);
        let mut m = view.meta(2);
        m.nvm_dirty = true;
        view.set_meta(2, m);
        // Set order: line 2 lives in set 0, line 1 in set 1.
        assert_eq!(dirty(&view), vec![2, 1]);
    }

    #[test]
    fn sets_isolate_conflicts() {
        let mut c = L1Cache::new(2, 1);
        c.insert(0, CohState::S); // set 0
        c.insert(1, CohState::S); // set 1
        assert!(c.needs_victim(2)); // set 0 full
        assert_eq!(c.victim_of(2), 0);
        assert!(c.needs_victim(3)); // set 1 full
        assert_eq!(c.victim_of(3), 1);
    }

    /// The dirty index must agree with a brute-force scan through every
    /// metadata transition: set, clear via set_line_meta, take_covered,
    /// and remove.
    #[test]
    fn dirty_index_tracks_every_transition() {
        let mut c = L1Cache::new(4, 2);
        let lines = [0u64, 1, 2, 5, 4];
        for &l in &lines {
            c.insert(l, CohState::M);
        }
        let brute = |c: &L1Cache| -> Vec<LineAddr> {
            c.lines()
                .map(|l| l.line)
                .filter(|&l| c.meta(l).nvm_dirty)
                .collect()
        };
        let indexed = |c: &L1Cache| -> Vec<LineAddr> {
            let mut v = Vec::new();
            c.for_each_nvm_dirty(&mut |line, _| v.push(line));
            v
        };
        assert_eq!(indexed(&c), Vec::<LineAddr>::new());
        for &l in &lines {
            c.set_line_meta(l, dirty_meta());
            assert_eq!(indexed(&c), brute(&c));
        }
        c.set_line_meta(1, LineMeta::default());
        assert_eq!(indexed(&c), brute(&c));
        // Setting an already-dirty line dirty again must not double count.
        c.set_line_meta(2, dirty_meta());
        assert_eq!(indexed(&c), brute(&c));
        c.take_covered(0);
        assert_eq!(indexed(&c), brute(&c));
        c.remove(5);
        assert_eq!(indexed(&c), brute(&c));
        c.take_covered(2);
        c.take_covered(4);
        assert_eq!(indexed(&c), Vec::<LineAddr>::new());
        assert!(c.dirty_set_bits.iter().all(|&w| w == 0), "bitmap drained");
    }

    /// Visit order must match `lines()` order exactly — engine stage-0
    /// ordering (and therefore NVM queueing and persist stamps) depends
    /// on it.
    #[test]
    fn dirty_visit_order_matches_full_scan() {
        let mut c = L1Cache::new(4, 4);
        // Residence order inside a set changes via swap_remove; build a
        // history with removals to exercise that.
        for l in [0u64, 4, 8, 12, 1, 5, 9, 2, 3, 7] {
            c.insert(l, CohState::M);
            c.set_line_meta(l, dirty_meta());
        }
        c.remove(4); // swap_remove reorders set 0
        let brute: Vec<LineAddr> = c
            .lines()
            .map(|l| l.line)
            .filter(|&l| c.meta(l).nvm_dirty)
            .collect();
        let mut indexed = Vec::new();
        c.for_each_nvm_dirty(&mut |line, _| indexed.push(line));
        assert_eq!(indexed, brute);
    }

    /// The SoA columns must follow the tags through `swap_remove`: a
    /// line's release bit and min-epoch stay attached to *that line*
    /// when another way in its set is removed.
    #[test]
    fn meta_columns_follow_swap_remove() {
        let mut c = L1Cache::new(2, 4);
        // Set 0 (even lines) gets three ways with distinct metadata.
        for (l, epoch) in [(0u64, 3u16), (2, 7), (4, 11)] {
            c.insert(l, CohState::M);
            c.set_line_meta(
                l,
                LineMeta {
                    nvm_dirty: true,
                    release: epoch == 7,
                    min_epoch: epoch,
                },
            );
        }
        // Removing way 0 swaps line 4's metadata into its slot.
        c.remove(0);
        assert_eq!(c.meta(2).min_epoch, 7);
        assert!(c.meta(2).release);
        assert_eq!(c.meta(4).min_epoch, 11);
        assert!(!c.meta(4).release);
        assert!(c.meta(0).min_epoch == 0 && !c.meta(0).nvm_dirty);
        // The scan reports exactly the surviving lines, with the
        // metadata they were given.
        let mut seen = Vec::new();
        c.for_each_nvm_dirty(&mut |line, meta| seen.push((line, meta.min_epoch)));
        seen.sort_unstable();
        assert_eq!(seen, vec![(2, 7), (4, 11)]);
    }

    /// Metadata columns work across word boundaries (ways that do not
    /// divide 64 cleanly).
    #[test]
    fn odd_geometry_straddles_word_boundaries() {
        let mut c = L1Cache::new(16, 5); // slots 60..65 straddle word 0/1
        let lines: Vec<u64> = (0..16).map(|i| 12 + 16 * i).collect(); // all set 12
        for (i, &l) in lines.iter().take(5).enumerate() {
            c.insert(l, CohState::M);
            c.set_line_meta(
                l,
                LineMeta {
                    nvm_dirty: i % 2 == 0,
                    release: false,
                    min_epoch: i as u16,
                },
            );
        }
        let brute: Vec<LineAddr> = c
            .lines()
            .map(|l| l.line)
            .filter(|&l| c.meta(l).nvm_dirty)
            .collect();
        let mut indexed = Vec::new();
        c.for_each_nvm_dirty(&mut |line, _| indexed.push(line));
        assert_eq!(indexed, brute);
        assert_eq!(indexed.len(), 3);
    }
}
