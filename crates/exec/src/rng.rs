//! A tiny deterministic PRNG used wherever reproducibility matters more
//! than statistical quality (scheduler choices, skip-list level draws).

/// Xorshift64* generator. Deterministic, `Copy`-cheap, and independent of
/// the `rand` crate so trace generation can never drift across `rand`
/// versions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Xorshift64 {
    state: u64,
}

impl Xorshift64 {
    /// Creates a generator from a seed (zero is mapped to a fixed
    /// non-zero constant, since an all-zero state would be absorbing).
    pub fn new(seed: u64) -> Self {
        Xorshift64 {
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform value in `[0, bound)`; `bound` must be non-zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Multiply-shift bounded sampling (Lemire); slight modulo bias is
        // irrelevant for scheduling and level draws.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = Xorshift64::new(7);
        let mut b = Xorshift64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn zero_seed_is_remapped() {
        let mut a = Xorshift64::new(0);
        assert_ne!(a.next_u64(), 0);
    }

    #[test]
    fn below_respects_bound() {
        let mut r = Xorshift64::new(3);
        for _ in 0..1000 {
            assert!(r.below(7) < 7);
        }
    }

    #[test]
    fn below_covers_range() {
        let mut r = Xorshift64::new(5);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[r.below(4) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
