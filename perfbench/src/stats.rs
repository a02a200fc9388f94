//! Order statistics over the samples of one run.

/// Mean of `xs`; `0` for no samples.
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

/// Median of `xs` (mean of the two middle values for an even count); `0` for
/// no samples.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// A latency histogram over nanoseconds: one bucket per nanosecond below
/// 1024 ns, then 512 buckets per power of two (0.2% resolution) up to about
/// 18 minutes. Recording is a few instructions and touches one counter, so a
/// serving loop can record every request without streaming a sample buffer
/// through the cache it is measuring.
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

const LINEAR: u64 = 1024;
const SUB_BITS: u32 = 9;
const MAX_EXP: u32 = 40;

impl Default for Histogram {
    fn default() -> Self {
        Self {
            counts: vec![0; Self::index(u64::MAX) + 1],
            total: 0,
        }
    }
}

impl Histogram {
    fn index(ns: u64) -> usize {
        let ns = ns.min((1 << MAX_EXP) - 1);
        if ns < LINEAR {
            return ns as usize;
        }
        let exp = 63 - ns.leading_zeros();
        let sub = (ns >> (exp - SUB_BITS)) & ((1 << SUB_BITS) - 1);
        (LINEAR + u64::from(exp - 10) * (1 << SUB_BITS) + sub) as usize
    }

    /// The smallest value that lands in bucket `i`.
    fn lower(i: usize) -> u64 {
        let i = i as u64;
        if i < LINEAR {
            return i;
        }
        let exp = 10 + ((i - LINEAR) >> SUB_BITS);
        let sub = (i - LINEAR) & ((1 << SUB_BITS) - 1);
        (1 << exp) | (sub << (exp - u64::from(SUB_BITS)))
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[Self::index(ns)] += 1;
        self.total += 1;
    }

    /// Nearest-rank `p`-th percentile (the lower edge of its bucket); `0` for
    /// no samples.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::lower(i);
            }
        }
        unreachable!("rank is at most the total count")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn histogram_percentiles_are_nearest_rank() {
        let mut h = Histogram::default();
        (1..=100).for_each(|v| h.record(v));
        assert_eq!(h.percentile(50.0), 50);
        assert_eq!(h.percentile(99.0), 99);
        assert_eq!(h.percentile(100.0), 100);
        assert_eq!(Histogram::default().percentile(50.0), 0);
    }

    #[test]
    fn histogram_buckets_are_within_0_2_percent() {
        for v in [
            1023,
            1024,
            1025,
            2047,
            2048,
            30_481,
            1_234_567_890,
            u64::MAX >> 24,
        ] {
            let mut h = Histogram::default();
            h.record(v);
            let got = h.percentile(50.0);
            assert!(got <= v && v - got <= v / 512, "{v} -> {got}");
        }
    }
}
