//! Percentiles, medians and the quartile spread the acceptance rule uses.

/// Sub-buckets per power of two. 128 keeps the relative bucket width under 0.8 %, and
/// percentiles interpolate inside a bucket, so a reported latency moves continuously
/// with the samples instead of snapping to bucket edges.
const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB as usize;

/// A log-linear histogram of nanosecond values: O(1) record, fixed memory, mergeable.
/// A run records tens of millions of latencies; keeping them as samples would put the
/// harness's own memory into `mem.rss_peak_mb`.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u32>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }
}

impl Histogram {
    fn index(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let shift = 63 - v.leading_zeros() - SUB_BITS;
        ((shift as u64 + 1) * SUB + ((v >> shift) - SUB)) as usize
    }

    /// The lowest value of bucket `i` and the bucket's width.
    fn bounds(i: usize) -> (u64, u64) {
        let (row, sub) = (i as u64 / SUB, i as u64 % SUB);
        if row == 0 {
            (sub, 1)
        } else {
            ((SUB + sub) << (row - 1), 1 << (row - 1))
        }
    }

    pub fn record(&mut self, ns: u64) {
        let slot = &mut self.counts[Self::index(ns)];
        *slot = slot.saturating_add(1);
        self.total += 1;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine = mine.saturating_add(*theirs);
        }
        self.total += other.total;
    }

    /// The value below which a fraction `q` of the samples lie, in nanoseconds,
    /// interpolated linearly inside the bucket that holds that rank. NaN when empty.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.total == 0 {
            return f64::NAN;
        }
        let rank = q.clamp(0.0, 1.0) * self.total as f64;
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (below + c as u64) as f64 >= rank {
                let (low, width) = Self::bounds(i);
                let inside = ((rank - below as f64) / c as f64).clamp(0.0, 1.0);
                return low as f64 + width as f64 * inside;
            }
            below += c as u64;
        }
        unreachable!("the ranks sum to the total")
    }

    pub fn quantile_us(&self, q: f64) -> f64 {
        self.quantile_ns(q) / 1000.0
    }
}

/// Quantile `q` of exact samples with linear interpolation between order statistics.
/// Sorts in place. NaN when empty.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let (lo, frac) = (pos.floor() as usize, pos.fract());
    match values.get(lo + 1) {
        Some(next) => values[lo] + (next - values[lo]) * frac,
        None => values[lo],
    }
}

pub fn median(values: &[f64]) -> f64 {
    quantile(&mut values.to_vec(), 0.5)
}

/// The value a metric reports for a run: the median of its per-segment values. NaN
/// segments (a segment with no sample of that kind) are left out.
pub fn segment_median(segments: &[f64]) -> f64 {
    let finite: Vec<f64> = segments.iter().copied().filter(|v| v.is_finite()).collect();
    median(&finite)
}

/// The distance between the first and third quartile as a share of the median, with
/// the quartiles Python's `statistics.quantiles(values, n=4)` gives — the spread the
/// acceptance rule is written in. NaN for fewer than two values or a zero median.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    if n < 2 {
        return f64::NAN;
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(3) - cut(1)) / median(&data).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_track_exact_ones_within_a_bucket_width() {
        let mut h = Histogram::default();
        let mut exact = Vec::new();
        let mut x = 12_345u64;
        for _ in 0..50_000 {
            // A cheap LCG spread over five decades, like latencies are.
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = 500 + (x >> 33) % 10u64.pow(3 + (x % 5) as u32);
            h.record(v);
            exact.push(v as f64);
        }
        assert_eq!(h.count(), 50_000);
        for q in [0.5, 0.9, 0.99, 0.999] {
            let want = quantile(&mut exact, q);
            let got = h.quantile_ns(q);
            assert!(
                (got - want).abs() / want < 0.01,
                "q={q}: {got} vs exact {want}"
            );
        }
    }

    #[test]
    fn histogram_buckets_are_contiguous_and_merge_adds() {
        let mut last_end = 0;
        for i in 0..BUCKETS.min(3000) {
            let (low, width) = Histogram::bounds(i);
            assert_eq!(low, last_end, "bucket {i}");
            assert_eq!(Histogram::index(low), i);
            assert_eq!(Histogram::index(low + width - 1), i);
            last_end = low + width;
        }
        assert!(Histogram::index(u64::MAX) < BUCKETS);

        let (mut a, mut b) = (Histogram::default(), Histogram::default());
        a.record(10);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!(a.quantile_ns(1.0) >= 1_000_000.0);
        assert!(Histogram::default().quantile_ns(0.5).is_nan());
    }

    #[test]
    fn exact_quantiles_interpolate() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 1.0), 4.0);
        assert_eq!(quantile(&mut v, 0.5), 2.5);
        assert_eq!(median(&[5.0, 1.0, 9.0]), 5.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn segment_median_takes_the_middle_segment_and_skips_empty_ones() {
        // One disturbed segment out of three does not move the reported value.
        assert_eq!(segment_median(&[100.0, 900.0, 104.0]), 104.0);
        assert_eq!(segment_median(&[f64::NAN, 7.0, 9.0]), 8.0);
        assert!(segment_median(&[f64::NAN; 3]).is_nan());
    }

    #[test]
    fn quartile_spread_matches_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&ten) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert!((quartile_spread(&[4.0, 1.0, 2.0]) - 1.5).abs() < 1e-12);
        assert!(quartile_spread(&[1.0]).is_nan());
    }
}
