//! Order statistics over timing samples and the seeded program shuffle.

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics if `xs` is empty or holds a NaN.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// A tail percentile that at least ten samples lie beyond.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported, in percent (90.0 when there are ≥ 100
    /// samples).
    pub percentile: f64,
    /// The sample value at that percentile (nearest rank).
    pub value: f64,
    /// How many samples lie above it.
    pub beyond: usize,
    /// How many samples there were.
    pub samples: usize,
}

/// The p90 of `xs` by nearest rank when at least ten samples lie beyond it;
/// otherwise the highest percentile that still has ten beyond it. With
/// fewer than 20 samples no percentile at or above the median has ten
/// beyond it, and the median is reported (its `beyond` says so).
///
/// # Panics
///
/// Panics if `xs` is empty or holds a NaN.
pub fn tail(xs: &[f64]) -> Tail {
    let s = sorted(xs);
    let n = s.len();
    let rank = if n >= 100 {
        // Nearest rank of p90: ceil(0.9 n), computed exactly in integers.
        (9 * n).div_ceil(10)
    } else if n >= 20 {
        n - 10
    } else {
        n.div_ceil(2)
    };
    Tail {
        percentile: if n >= 100 {
            90.0
        } else {
            100.0 * rank as f64 / n as f64
        },
        value: s[rank - 1],
        beyond: n - rank,
        samples: n,
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    assert!(!xs.is_empty(), "order statistic of no samples");
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are never NaN"));
    s
}

/// SplitMix64: a small, seedable generator for the program order.
pub struct Rng(u64);

impl Rng {
    /// A generator whose whole output is fixed by `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle of `items`.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Descending on purpose: the statistics must sort.
        (1..=n).rev().map(|x| x as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        // 100 samples: p90 by nearest rank is the 90th value, 10 beyond.
        let t = tail(&ramp(100));
        assert_eq!((t.percentile, t.value, t.beyond), (90.0, 90.0, 10));
        // 150 samples: still p90, now with 15 beyond.
        let t = tail(&ramp(150));
        assert_eq!((t.percentile, t.value, t.beyond), (90.0, 135.0, 15));
        // 50 samples: p90 would leave 5 beyond, so fall back to p80, the
        // highest percentile with exactly 10 beyond.
        let t = tail(&ramp(50));
        assert_eq!((t.percentile, t.value, t.beyond), (80.0, 40.0, 10));
        // 99 samples: one short of a p90 with ten beyond.
        let t = tail(&ramp(99));
        assert_eq!((t.value, t.beyond), (89.0, 10));
        assert!(t.percentile < 90.0);
        // Too few samples for any tail: report the median and say so.
        let t = tail(&ramp(15));
        assert_eq!((t.value, t.beyond, t.samples), (8.0, 7, 15));
    }

    #[test]
    fn every_tail_with_twenty_or_more_samples_has_ten_beyond() {
        for n in 20..400 {
            let t = tail(&ramp(n));
            assert!(t.beyond >= 10, "n = {n}: {t:?}");
            assert!(t.percentile <= 90.0, "n = {n}: {t:?}");
        }
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let base: Vec<u32> = (0..42).collect();
        let order = |seed| {
            let mut v = base.clone();
            Rng::new(seed).shuffle(&mut v);
            v
        };
        assert_eq!(order(7), order(7));
        assert_ne!(order(7), order(8));
        let mut sorted = order(7);
        sorted.sort_unstable();
        assert_eq!(sorted, base);
    }
}
