//! The bounded drop-oldest ring every obs buffer is built on: the
//! simulator's event ring and the serving layer's span log (which its
//! crash dump renders). Recording never blocks and never grows past the
//! capacity; each eviction is counted, so truncation is detectable.

use std::collections::VecDeque;

/// A ring holding at most `cap` items, evicting the oldest when full.
/// Capacity 0 retains nothing and counts every push as dropped.
#[derive(Debug, Clone)]
pub struct Ring<T> {
    buf: VecDeque<T>,
    cap: usize,
    dropped: u64,
}

impl<T> Ring<T> {
    /// A ring retaining at most `cap` items.
    pub fn new(cap: usize) -> Ring<T> {
        Ring {
            buf: VecDeque::with_capacity(cap.min(4096)),
            cap,
            dropped: 0,
        }
    }

    /// Appends an item, evicting the oldest when full.
    pub fn push(&mut self, item: T) {
        if self.cap == 0 {
            self.dropped += 1;
            return;
        }
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(item);
    }

    /// Items currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Items evicted (or refused, for a zero-capacity ring) so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The retained items, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.buf.iter()
    }

    /// Takes every retained item (oldest first), leaving the ring empty
    /// but still counting drops.
    pub fn drain(&mut self) -> Vec<T> {
        self.buf.drain(..).collect()
    }

    /// Consumes the ring into its retained items, oldest first.
    pub fn into_vec(self) -> Vec<T> {
        self.buf.into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut r = Ring::new(3);
        for t in 0..5 {
            r.push(t);
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), vec![2, 3, 4]);
        assert_eq!(r.drain(), vec![2, 3, 4]);
        assert!(r.is_empty());
        r.push(5);
        assert_eq!(r.dropped(), 2, "draining frees room without a drop");
        assert_eq!(r.into_vec(), vec![5]);

        let mut none = Ring::new(0);
        none.push(1);
        assert!(none.is_empty());
        assert_eq!(none.dropped(), 1);
    }
}
