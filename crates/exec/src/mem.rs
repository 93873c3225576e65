//! Word-granular functional shared memory, stored in 4 KB pages.
//!
//! The scheduler reads and writes this memory on every replayed op, so
//! the old one-`HashMap`-entry-per-word layout (SipHash + a heap node
//! per word) dominated trace-generation time. Words now live in fixed
//! 512-word pages found through an FxHash page directory: a read is one
//! cheap hash plus an array index, and the common case of consecutive
//! structure fields lands in the same page.

use lrp_model::fxmap::FxHashMap;
use lrp_model::{Addr, Trace};

/// Words per page (512 × 8 B = 4 KB).
const PAGE_WORDS: usize = 512;

#[derive(Debug, Clone)]
struct Page {
    words: [u64; PAGE_WORDS],
    /// One bit per word: written at least once. Unwritten words must
    /// keep reading as [`Trace::POISON`] — zero is a legal value.
    written: [u64; PAGE_WORDS / 64],
}

impl Page {
    fn new() -> Box<Page> {
        Box::new(Page {
            words: [0; PAGE_WORDS],
            written: [0; PAGE_WORDS / 64],
        })
    }

    #[inline]
    fn is_written(&self, slot: usize) -> bool {
        self.written[slot / 64] >> (slot % 64) & 1 == 1
    }

    /// Stores `val` at `slot`; true if the slot was unwritten before.
    #[inline]
    fn set(&mut self, slot: usize, val: u64) -> bool {
        let fresh = !self.is_written(slot);
        self.written[slot / 64] |= 1 << (slot % 64);
        self.words[slot] = val;
        fresh
    }
}

/// The page `page` of a directory, created (and entered into the
/// sorted id list) on first use.
fn page_entry<'a>(
    pages: &'a mut FxHashMap<u64, Box<Page>>,
    sorted_ids: &mut Vec<u64>,
    page: u64,
) -> &'a mut Page {
    pages.entry(page).or_insert_with(|| {
        let at = sorted_ids.binary_search(&page).unwrap_err();
        sorted_ids.insert(at, page);
        Page::new()
    })
}

/// The functional memory owned by the scheduler. Words that were never
/// written read as [`Trace::POISON`], modelling the arbitrary contents of
/// freshly allocated NVM (this is what lets recovery validators detect
/// structurally reachable but never-persisted data).
#[derive(Debug, Clone, Default)]
pub struct SharedMem {
    pages: FxHashMap<u64, Box<Page>>,
    /// Page ids in ascending order, maintained at page-creation time.
    /// `snapshot` runs at every crash cut of the checkers and fuzzers,
    /// so it must not re-collect and re-sort the directory per call —
    /// a page insert (rare, amortized over 512 words) pays instead.
    sorted_ids: Vec<u64>,
    written: usize,
}

impl SharedMem {
    /// An empty memory.
    pub fn new() -> Self {
        SharedMem::default()
    }

    /// A memory pre-loaded from `(addr, value)` pairs (a later pair for
    /// one address wins). A run of words on one page is written through
    /// one page lookup, so address-sorted input costs a lookup per page
    /// rather than per word.
    pub fn from_words(words: impl IntoIterator<Item = (Addr, u64)>) -> Self {
        let mut m = SharedMem::new();
        let mut words = words.into_iter().peekable();
        while let Some((a, v)) = words.next() {
            debug_assert_eq!(a % 8, 0, "unaligned word access at {a:#x}");
            let (page, slot) = SharedMem::split(a);
            let p = page_entry(&mut m.pages, &mut m.sorted_ids, page);
            let mut fresh = usize::from(p.set(slot, v));
            while let Some((a, v)) = words.next_if(|&(a, _)| SharedMem::split(a).0 == page) {
                debug_assert_eq!(a % 8, 0, "unaligned word access at {a:#x}");
                fresh += usize::from(p.set(SharedMem::split(a).1, v));
            }
            m.written += fresh;
        }
        m
    }

    #[inline]
    fn split(addr: Addr) -> (u64, usize) {
        let word = addr / 8;
        (
            word / PAGE_WORDS as u64,
            (word % PAGE_WORDS as u64) as usize,
        )
    }

    /// Reads the word at `addr`.
    pub fn read(&self, addr: Addr) -> u64 {
        debug_assert_eq!(addr % 8, 0, "unaligned word access at {addr:#x}");
        self.get(addr).unwrap_or(Trace::POISON)
    }

    /// Writes the word at `addr`.
    pub fn write(&mut self, addr: Addr, val: u64) {
        debug_assert_eq!(addr % 8, 0, "unaligned word access at {addr:#x}");
        let (page, slot) = SharedMem::split(addr);
        if page_entry(&mut self.pages, &mut self.sorted_ids, page).set(slot, val) {
            self.written += 1;
        }
    }

    /// The word at `addr`, or `None` if it was never written.
    pub fn get(&self, addr: Addr) -> Option<u64> {
        let (page, slot) = SharedMem::split(addr);
        match self.pages.get(&page) {
            Some(p) if p.is_written(slot) => Some(p.words[slot]),
            _ => None,
        }
    }

    /// Sets the word at `addr` to `src`'s, including `src`'s "never
    /// written" state: a word `src` lacks is forgotten here too and
    /// reads as [`Trace::POISON`] again.
    pub fn copy_word(&mut self, src: &SharedMem, addr: Addr) {
        match src.get(addr) {
            Some(v) => self.write(addr, v),
            None => {
                let (page, slot) = SharedMem::split(addr);
                if let Some(p) = self.pages.get_mut(&page) {
                    if p.is_written(slot) {
                        p.written[slot / 64] &= !(1 << (slot % 64));
                        self.written -= 1;
                    }
                }
            }
        }
    }

    /// Compare-and-swap; returns `(succeeded, observed_value)`.
    pub fn cas(&mut self, addr: Addr, old: u64, new: u64) -> (bool, u64) {
        let cur = self.read(addr);
        if cur == old {
            self.write(addr, new);
            (true, cur)
        } else {
            (false, cur)
        }
    }

    /// Snapshot of all written words, sorted by address.
    pub fn snapshot(&self) -> Vec<(Addr, u64)> {
        let mut v = Vec::with_capacity(self.written);
        for &id in &self.sorted_ids {
            let p = &self.pages[&id];
            for slot in 0..PAGE_WORDS {
                if p.is_written(slot) {
                    v.push(((id * PAGE_WORDS as u64 + slot as u64) * 8, p.words[slot]));
                }
            }
        }
        v
    }

    /// Number of distinct words written.
    pub fn len(&self) -> usize {
        self.written
    }

    /// True if no word has been written.
    pub fn is_empty(&self) -> bool {
        self.written == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_words_are_poison() {
        let m = SharedMem::new();
        assert_eq!(m.read(0x10), Trace::POISON);
    }

    #[test]
    fn write_then_read() {
        let mut m = SharedMem::new();
        m.write(0x10, 99);
        assert_eq!(m.read(0x10), 99);
    }

    #[test]
    fn zero_writes_are_distinct_from_unwritten() {
        let mut m = SharedMem::new();
        m.write(0x10, 0);
        assert_eq!(m.read(0x10), 0, "an explicit zero is not poison");
        assert_eq!(m.read(0x18), Trace::POISON, "same page, unwritten slot");
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn cas_success_and_failure() {
        let mut m = SharedMem::new();
        m.write(0x10, 1);
        assert_eq!(m.cas(0x10, 1, 2), (true, 1));
        assert_eq!(m.cas(0x10, 1, 3), (false, 2));
        assert_eq!(m.read(0x10), 2);
    }

    #[test]
    fn snapshot_is_sorted() {
        let mut m = SharedMem::new();
        m.write(0x20, 2);
        m.write(0x10, 1);
        // Cross a page boundary so sorting covers the page directory.
        m.write(PAGE_WORDS as u64 * 8 * 3 + 0x40, 3);
        assert_eq!(
            m.snapshot(),
            vec![(0x10, 1), (0x20, 2), (PAGE_WORDS as u64 * 8 * 3 + 0x40, 3)]
        );
    }

    #[test]
    fn snapshot_order_is_stable_under_unsorted_page_creation() {
        // Touch pages in descending, then interleaved, order; the
        // incrementally maintained directory must still yield one
        // address-sorted snapshot, identical across repeated calls.
        let mut m = SharedMem::new();
        let page = |n: u64| n * PAGE_WORDS as u64 * 8;
        for n in [7, 3, 9, 1, 8, 2] {
            m.write(page(n), n);
        }
        m.write(page(3) + 8, 33); // existing page: no directory change
        let first = m.snapshot();
        let addrs: Vec<u64> = first.iter().map(|&(a, _)| a).collect();
        let mut sorted = addrs.clone();
        sorted.sort_unstable();
        assert_eq!(addrs, sorted);
        assert_eq!(first.len(), 7);
        assert_eq!(m.snapshot(), first);
    }

    #[test]
    fn rewrite_does_not_double_count() {
        let mut m = SharedMem::new();
        m.write(0x10, 1);
        m.write(0x10, 2);
        assert_eq!(m.len(), 1);
        assert_eq!(m.read(0x10), 2);
    }

    #[test]
    fn copy_word_mirrors_values_and_absence() {
        let src = SharedMem::from_words([(0x10, 5)]);
        let mut m = SharedMem::from_words([(0x10, 1), (0x18, 2)]);
        m.copy_word(&src, 0x10);
        m.copy_word(&src, 0x18);
        m.copy_word(&src, 0x4000); // absent in both: stays absent
        assert_eq!(m.read(0x10), 5);
        assert_eq!(m.read(0x18), Trace::POISON, "forgotten like src");
        assert_eq!(m.len(), 1);
        assert_eq!(m.snapshot(), src.snapshot());
        assert_eq!((m.get(0x10), m.get(0x18)), (Some(5), None));
    }

    #[test]
    fn from_words_matches_word_by_word_writes() {
        let page = PAGE_WORDS as u64 * 8;
        // Sorted runs across pages, then an out-of-order revisit and a
        // repeated address: the later pair wins, as with `write`.
        let words = [
            (0x10, 1),
            (0x18, 2),
            (page + 8, 3),
            (3 * page, 4),
            (0x18, 5),
            (page + 8, 6),
            (page, 0),
        ];
        let bulk = SharedMem::from_words(words);
        let mut one = SharedMem::new();
        for (a, v) in words {
            one.write(a, v);
        }
        assert_eq!(bulk.snapshot(), one.snapshot());
        assert_eq!(bulk.len(), one.len());
        assert_eq!(bulk.len(), 5);
        assert_eq!(bulk.read(0x18), 5);
        assert_eq!(bulk.read(0x20), Trace::POISON);
    }
}
