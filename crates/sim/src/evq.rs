//! Calendar-wheel event queue for the discrete-event machine.
//!
//! The run loop used to pair a `BinaryHeap<Reverse<(time, seq, id)>>`
//! with a `HashMap<id, Ev>` — every event paid a heap sift plus a hash
//! insert and remove. The wheel stores payloads inline in time-indexed
//! slots: a push is a `Vec` push into `slots[time % capacity]`, and
//! [`EventWheel::pop_batch`] scans an occupancy bitmap for the next
//! non-empty slot and hands the whole slot back.
//!
//! # Ordering invariant
//!
//! Batches come out in ascending `(time, seq)` order, identical to the
//! heap. The argument: every in-wheel entry satisfies
//! `cur <= time < cur + capacity` (`cur` = time of the last batch), so
//! a slot can only ever hold entries of **one** time value — two times
//! sharing a slot would differ by a multiple of `capacity`, which the
//! window forbids. Circular slot distance from `cur` therefore equals
//! time distance, and a bitmap scan finds the minimum-time slot.
//! A drained slot is sorted by `seq` (migration from the overflow
//! list can break insertion order, so order is imposed, not assumed).
//! Entries beyond the window — NVM completions behind a long queue —
//! wait in an unordered overflow list and migrate into the wheel when
//! the window reaches them.

/// Slot count. Must be a power of two. Deliberately small: the slot
/// array has to stay host-cache-resident, and nearly all traffic
/// (core steps, L1/NoC hops, cached-NVM completions) lands within a
/// couple hundred cycles. Longer delays — uncached NVM (350 cycles)
/// plus queueing — take the overflow path, which costs a linear
/// migration scan but is rare enough not to matter (sweeping 64–2048
/// showed larger wheels lose more to cache misses than they save in
/// overflow handling).
const CAPACITY: usize = 256;

/// A calendar-wheel priority queue of `(time, seq, payload)` entries,
/// popped in ascending `(time, seq)` order.
#[derive(Debug)]
pub struct EventWheel<T> {
    slots: Vec<Vec<(u64, u64, T)>>,
    /// One bit per slot: slot non-empty.
    occupied: [u64; CAPACITY / 64],
    /// Entries with `time >= cur + CAPACITY`, unordered.
    overflow: Vec<(u64, u64, T)>,
    overflow_min: u64,
    /// Time of the last batch; no live entry is earlier.
    cur: u64,
    len: usize,
}

impl<T> Default for EventWheel<T> {
    fn default() -> Self {
        EventWheel::new()
    }
}

impl<T> EventWheel<T> {
    /// An empty wheel starting at time 0.
    pub fn new() -> Self {
        EventWheel {
            slots: (0..CAPACITY).map(|_| Vec::new()).collect(),
            occupied: [0; CAPACITY / 64],
            overflow: Vec::new(),
            overflow_min: u64::MAX,
            cur: 0,
            len: 0,
        }
    }

    /// Number of queued entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Queues an entry. `time` must not precede the last batch's time,
    /// and `(time, seq)` pairs are assumed unique (the machine's global
    /// schedule counter guarantees both).
    pub fn push(&mut self, time: u64, seq: u64, payload: T) {
        debug_assert!(time >= self.cur, "event scheduled in the past");
        self.len += 1;
        if time - self.cur < CAPACITY as u64 {
            let s = time as usize % CAPACITY;
            self.slots[s].push((time, seq, payload));
            self.occupied[s / 64] |= 1 << (s % 64);
        } else {
            self.overflow.push((time, seq, payload));
            self.overflow_min = self.overflow_min.min(time);
        }
    }

    /// Index of the first occupied slot at or after circular position
    /// `start` (wrapping), or `None` if the wheel part is empty.
    fn next_occupied(&self, start: usize) -> Option<usize> {
        let words = self.occupied.len();
        let mut w = start / 64;
        let mut mask = u64::MAX << (start % 64);
        for _ in 0..=words {
            let bits = self.occupied[w] & mask;
            if bits != 0 {
                return Some(w * 64 + bits.trailing_zeros() as usize);
            }
            w = (w + 1) % words;
            mask = u64::MAX;
        }
        None
    }

    /// Moves every overflow entry now inside the window into the wheel.
    fn migrate_overflow(&mut self) {
        let mut min = u64::MAX;
        let mut i = 0;
        while i < self.overflow.len() {
            let t = self.overflow[i].0;
            if t - self.cur < CAPACITY as u64 {
                let (time, seq, payload) = self.overflow.swap_remove(i);
                let s = time as usize % CAPACITY;
                self.slots[s].push((time, seq, payload));
                self.occupied[s / 64] |= 1 << (s % 64);
            } else {
                min = min.min(t);
                i += 1;
            }
        }
        self.overflow_min = min;
    }

    /// Drains **every** entry sharing the earliest queued time into
    /// `out` (cleared first), in ascending `seq` order, and returns
    /// that time. Because a slot holds entries of exactly one time
    /// value (see the ordering invariant above), the batch is the
    /// whole slot vector: the drain is one bitmap probe plus a buffer
    /// swap. The swap also recycles `out`'s capacity into the emptied
    /// slot, so a run-loop reusing one scratch buffer allocates
    /// nothing in steady state.
    ///
    /// Entries pushed *while the caller processes the batch* land at
    /// the same or a later time with strictly larger `seq`s, so
    /// `pop_batch`-then-process yields the exact `(time, seq)` global
    /// order of a heap (a same-time straggler is simply returned by
    /// the next call).
    pub fn pop_batch(&mut self, out: &mut Vec<(u64, u64, T)>) -> Option<u64> {
        out.clear();
        if self.len == 0 {
            return None;
        }
        loop {
            let slot = self.next_occupied(self.cur as usize % CAPACITY);
            // All in-wheel entries share one time per slot; peek it. If
            // the overflow holds an earlier entry — or one that ties on
            // time and must compete on seq — advance the window to it
            // and migrate. (Safe: nothing live is earlier than
            // `overflow_min`.)
            if !self.overflow.is_empty()
                && slot.is_none_or(|s| self.overflow_min <= self.slots[s][0].0)
            {
                self.cur = self.overflow_min;
                self.migrate_overflow();
                continue;
            }
            let Some(s) = slot else {
                unreachable!("len > 0 but no entries found")
            };
            let entries = &mut self.slots[s];
            let t = entries[0].0;
            std::mem::swap(entries, out);
            self.occupied[s / 64] &= !(1 << (s % 64));
            if out.len() > 1 {
                out.sort_unstable_by_key(|e| e.1);
            }
            self.cur = t;
            self.len -= out.len();
            return Some(t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift so the shuffle needs no external crate.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// Drains the wheel batch by batch, checking that each batch holds
    /// one timestamp (the returned one) and is never empty.
    fn drain_batches<T: Clone>(w: &mut EventWheel<T>) -> Vec<Vec<(u64, u64, T)>> {
        let mut out = Vec::new();
        let mut batch = Vec::new();
        while let Some(t) = w.pop_batch(&mut batch) {
            assert!(!batch.is_empty(), "a drained batch is never empty");
            assert!(batch.iter().all(|e| e.0 == t), "batch mixes timestamps");
            out.push(batch.clone());
        }
        out
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut w = EventWheel::new();
        w.push(5, 2, "b");
        w.push(5, 1, "a");
        w.push(3, 3, "c");
        w.push(9, 0, "d");
        assert_eq!(
            drain_batches(&mut w),
            vec![
                vec![(3, 3, "c")],
                vec![(5, 1, "a"), (5, 2, "b")],
                vec![(9, 0, "d")]
            ]
        );
    }

    #[test]
    fn far_events_overflow_and_come_back_ordered() {
        let mut w = EventWheel::new();
        let mut batch = Vec::new();
        w.push(0, 0, 0u64);
        // Far beyond the window — multiple wrap distances.
        for (i, t) in [CAPACITY as u64 * 3 + 5, CAPACITY as u64 + 1, 40_000]
            .into_iter()
            .enumerate()
        {
            w.push(t, i as u64 + 1, t);
        }
        assert_eq!(w.pop_batch(&mut batch), Some(0));
        assert_eq!(w.pop_batch(&mut batch), Some(CAPACITY as u64 + 1));
        // Push near events after the window advanced; a same-time entry
        // behind an overflow entry competes on seq.
        w.push(CAPACITY as u64 + 2, 10, 999);
        w.push(CAPACITY as u64 * 3 + 5, 0, 7);
        assert_eq!(w.pop_batch(&mut batch), Some(CAPACITY as u64 + 2));
        assert_eq!(batch, vec![(CAPACITY as u64 + 2, 10, 999)]);
        assert_eq!(w.pop_batch(&mut batch), Some(CAPACITY as u64 * 3 + 5));
        let t = CAPACITY as u64 * 3 + 5;
        assert_eq!(batch, vec![(t, 0, 7), (t, 1, t)]);
        assert_eq!(w.pop_batch(&mut batch), Some(40_000));
        assert_eq!(w.pop_batch(&mut batch), None);
        assert!(batch.is_empty());
    }

    #[test]
    fn matches_binary_heap_on_random_workload() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut rng = 0x1234_5678_9abc_def0u64;
        let mut wheel = EventWheel::new();
        let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut batch = Vec::new();
        let mut now = 0u64;
        let mut seq = 0u64;
        for _ in 0..50_000 {
            let r = xorshift(&mut rng);
            let do_push = wheel.is_empty() || !r.is_multiple_of(3);
            if do_push {
                // Mix of short delays, same-cycle events, and rare far
                // NVM-queue completions.
                let delay = match r % 10 {
                    0 => 0,
                    1..=6 => (r >> 8) % 64,
                    7 | 8 => (r >> 8) % 400,
                    _ => 1000 + (r >> 8) % 10_000,
                };
                seq += 1;
                wheel.push(now + delay, seq, (now + delay, seq));
                heap.push(Reverse((now + delay, seq)));
            } else {
                now = wheel.pop_batch(&mut batch).expect("wheel has entries");
                for &(t, s, payload) in &batch {
                    let Reverse(expect) = heap.pop().expect("heap has entries");
                    assert_eq!((t, s), expect, "pop order diverged from heap");
                    assert_eq!(payload, expect, "payload follows its key");
                }
            }
        }
        for b in drain_batches(&mut wheel) {
            for (t, s, _) in b {
                let Reverse(expect) = heap.pop().unwrap();
                assert_eq!((t, s), expect);
            }
        }
        assert!(heap.is_empty());
        assert!(wheel.is_empty());
    }

    #[test]
    fn bursty_batches_match_binary_heap() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut rng = 0xfeed_beef_0bad_cafeu64;
        let mut wheel = EventWheel::new();
        let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut now = 0u64;
        let mut seq = 0u64;
        let mut scratch: Vec<(u64, u64, (u64, u64))> = Vec::new();
        for round in 0..8_000 {
            // Bursts of same-cycle events so batches are > 1 entry,
            // plus far overflow completions that tie back in on seq.
            let burst = 1 + xorshift(&mut rng) % 4;
            for _ in 0..burst {
                let r = xorshift(&mut rng);
                let delay = match r % 8 {
                    0..=2 => 0,
                    3..=5 => (r >> 8) % 48,
                    6 => (r >> 8) % 300,
                    _ => 1000 + (r >> 8) % 5_000,
                };
                seq += 1;
                wheel.push(now + delay, seq, (now + delay, seq));
                heap.push(Reverse((now + delay, seq)));
            }
            if round % 2 == 1 {
                let t = wheel.pop_batch(&mut scratch).expect("wheel has entries");
                assert!(!scratch.is_empty(), "a drained batch is never empty");
                for &(bt, bs, payload) in &scratch {
                    assert_eq!(bt, t, "batch mixes timestamps");
                    let Reverse(expect) = heap.pop().expect("heap has entries");
                    assert_eq!((bt, bs), expect, "batch order diverged from heap");
                    assert_eq!(payload, expect);
                }
                now = t;
            }
        }
        for b in drain_batches(&mut wheel) {
            for (bt, bs, _) in b {
                let Reverse(expect) = heap.pop().unwrap();
                assert_eq!((bt, bs), expect);
            }
        }
        assert!(heap.is_empty());
        assert!(wheel.is_empty());
        assert!(wheel.pop_batch(&mut scratch).is_none());
    }

    #[test]
    fn len_tracks_pushes_and_pops() {
        let mut w = EventWheel::new();
        let mut batch = Vec::new();
        assert!(w.is_empty());
        w.push(1, 1, ());
        w.push(1, 3, ());
        w.push(CAPACITY as u64 * 2, 2, ());
        assert_eq!(w.len(), 3);
        w.pop_batch(&mut batch);
        assert_eq!(w.len(), 1);
        w.pop_batch(&mut batch);
        assert!(w.is_empty());
    }
}
