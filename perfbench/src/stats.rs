//! Order statistics over latency samples.

/// Sub-buckets per power of two in a [`Histogram`]: a recorded latency
/// is kept to within 1/128 of its value.
const SUB_BITS: u32 = 7;

/// Buckets of a [`Histogram`]: the values below `2^SUB_BITS` one each,
/// then `2^SUB_BITS` per power of two up to `u64::MAX`.
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) << SUB_BITS;

/// A latency histogram of fixed size (log-linear buckets): its memory
/// does not grow with the number of samples, so a run that completes
/// more operations does not read as one that uses more memory.
#[derive(Clone, Debug)]
pub struct Histogram {
    counts: Vec<u64>,
    n: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            counts: vec![0; BUCKETS],
            n: 0,
        }
    }
}

impl Histogram {
    fn bucket(ns: u64) -> usize {
        if ns < 1 << SUB_BITS {
            return ns as usize;
        }
        let shift = 63 - ns.leading_zeros() - SUB_BITS;
        ((shift as usize) << SUB_BITS) + (ns >> shift) as usize
    }

    /// Smallest value and width of bucket `i`.
    fn range(i: usize) -> (u64, u64) {
        if i < 1 << SUB_BITS {
            return (i as u64, 1);
        }
        let shift = (i >> SUB_BITS) - 1;
        let sub = (i & ((1 << SUB_BITS) - 1)) as u64 + (1 << SUB_BITS);
        (sub << shift, 1 << shift)
    }

    /// Count one sample.
    pub fn record(&mut self, ns: u64) {
        self.counts[Histogram::bucket(ns)] += 1;
        self.n += 1;
    }

    /// Samples recorded.
    pub fn len(&self) -> usize {
        self.n as usize
    }

    /// Has nothing been recorded?
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The `q`-quantile by nearest rank, interpolated inside the bucket
    /// that holds the sample of that rank; `0.0` when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0u64;
        for (i, &count) in self.counts.iter().enumerate() {
            if seen + count >= rank {
                let (lower, width) = Histogram::range(i);
                let within = ((rank - seen) as f64 - 0.5) / count as f64;
                return lower as f64 + width as f64 * within;
            }
            seen += count;
        }
        unreachable!("rank is at most the sample count")
    }
}

/// The `q`-quantile (`0.0..=1.0`) of `samples` by nearest rank; `0.0`
/// when empty. Sorts a copy.
pub fn quantile(samples: &[u64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

/// The median of `samples`.
pub fn median(samples: &[u64]) -> f64 {
    quantile(samples, 0.5)
}

/// The median of floating-point values (`0.0` when empty).
pub fn median_f64(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nanoseconds to milliseconds.
pub fn ms(ns: f64) -> f64 {
    ns / 1e6
}

/// Nanoseconds to microseconds.
pub fn us(ns: f64) -> f64 {
    ns / 1e3
}

/// The `q`-quantile of a metrics-registry histogram, interpolated
/// inside the power-of-two bucket that holds the sample of that rank
/// (the registry itself answers with the bucket's upper bound).
pub fn histogram_quantile(buckets: &[u64], q: f64) -> f64 {
    let n: u64 = buckets.iter().sum();
    if n == 0 {
        return 0.0;
    }
    let rank = (q * n as f64).max(1.0);
    let mut seen = 0u64;
    for (i, &count) in buckets.iter().enumerate() {
        if count > 0 && (seen + count) as f64 >= rank {
            let upper = balg_obs::bucket_upper(i) as f64;
            let lower = if i == 0 {
                0.0
            } else {
                balg_obs::bucket_upper(i - 1) as f64
            };
            let within = (rank - seen as f64) / count as f64;
            return lower + (upper - lower) * within;
        }
        seen += count;
    }
    balg_obs::bucket_upper(buckets.len().saturating_sub(1)) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let samples: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&samples, 0.5), 50.0);
        assert_eq!(quantile(&samples, 0.99), 99.0);
        assert_eq!(quantile(&samples, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median_f64(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn histogram_keeps_quantiles_within_its_precision() {
        let mut histogram = Histogram::default();
        let samples: Vec<u64> = (1..=100_000).map(|i| i * 37).collect();
        for &v in &samples {
            histogram.record(v);
        }
        assert_eq!(histogram.len(), samples.len());
        for q in [0.01, 0.5, 0.99] {
            let exact = quantile(&samples, q);
            let approx = histogram.quantile(q);
            assert!(
                (approx / exact - 1.0).abs() < 1.0 / 128.0,
                "{q}: {approx} vs {exact}"
            );
        }
        for v in [0, 1, 127, 128, 255, 256, 1 << 40, u64::MAX] {
            let (lower, width) = Histogram::range(Histogram::bucket(v));
            assert!(lower <= v && v - lower < width, "{v}");
        }
        assert_eq!(Histogram::default().quantile(0.5), 0.0);
    }

    #[test]
    fn histogram_quantile_stays_inside_its_bucket() {
        let histogram = balg_obs::Histogram::new();
        for v in [1100u64, 1200, 1300, 1400] {
            histogram.record(v);
        }
        let p50 = histogram_quantile(&histogram.buckets(), 0.5);
        let bucket = balg_obs::bucket_index(1100);
        assert!(p50 > balg_obs::bucket_upper(bucket - 1) as f64);
        assert!(p50 <= balg_obs::bucket_upper(bucket) as f64);
    }
}
