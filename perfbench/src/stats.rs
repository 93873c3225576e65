//! Exact order statistics over recorded samples.
//!
//! Every timing the benchmark reports is computed from the samples
//! themselves (no histogram buckets), as a median plus the highest
//! percentile of a fixed ladder that still has at least ten samples
//! beyond it.

/// The percentile ladder a tail is chosen from, highest first.
const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Samples a tail percentile must leave beyond itself.
const TAIL_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Arithmetic mean of `xs`; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Nearest-rank percentile `p` (0–100) of an ascending slice.
fn nearest_rank(sorted: &[f64], p: f64) -> (usize, f64) {
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    let idx = rank.min(n) - 1;
    (idx, sorted[idx])
}

/// The tail of a sample set: the highest ladder percentile with at
/// least ten samples ranked beyond it, as `(percentile, value)`.
/// `None` when there are too few samples for any rung.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(xs);
    TAIL_LADDER.iter().find_map(|&p| {
        if s.is_empty() {
            return None;
        }
        let (idx, v) = nearest_rank(&s, p);
        (s.len() - 1 - idx >= TAIL_BEYOND).then_some((p, v))
    })
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Summary of one latency-like sample set.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// Tail percentile chosen from the ladder (0 when none qualifies).
    pub tail_pct: f64,
    /// Value at the tail percentile (the maximum when no rung
    /// qualifies).
    pub tail: f64,
}

impl Summary {
    /// Summarizes `xs`; infinite samples (failed or shed requests) sort
    /// beyond every finite one and are replaced by `cap` in the output.
    pub fn of(xs: &[f64], cap: f64) -> Summary {
        let fin = |v: f64| if v.is_finite() { v } else { cap };
        let (tail_pct, tail) = match tail(xs) {
            Some((p, v)) => (p, fin(v)),
            None => (0.0, fin(sorted(xs).last().copied().unwrap_or(0.0))),
        };
        Summary {
            n: xs.len(),
            p50: fin(median(xs)),
            tail_pct,
            tail,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn mean_of_a_set() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(|i| i as f64).collect();
        // 99.9 leaves 1 beyond, 99 leaves 10.
        assert_eq!(tail(&xs), Some((99.0, 990.0)));
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(tail(&xs), Some((90.0, 90.0)));
        let xs: Vec<f64> = (1..=12).map(|i| i as f64).collect();
        assert_eq!(tail(&xs), None);
    }

    #[test]
    fn failed_samples_count_beyond_every_limit() {
        let mut xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        xs.extend([f64::INFINITY; 20]);
        let s = Summary::of(&xs, 5000.0);
        assert_eq!(s.n, 120);
        assert_eq!(s.tail_pct, 90.0);
        assert_eq!(s.tail, 5000.0);
        assert!(s.p50 < 100.0);
    }
}
