//! Small statistics helpers: a log-linear latency histogram, medians and
//! quantiles over samples.

/// Sub-buckets per power of two: relative bucket width ≤ 1/32 ≈ 3%.
const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS;
/// Covers 0 ns .. 2^40 ns (~18 minutes).
const BUCKETS: usize = ((40 - SUB_BITS as usize) + 1) * SUB as usize;

/// A log-linear histogram of nanosecond latencies (HDR-style: 32 linear
/// sub-buckets per power of two), fine enough that a median moves
/// continuously with the data. Single-threaded; merge per-thread copies.
#[derive(Clone)]
pub struct LatHist {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
}

impl std::fmt::Debug for LatHist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatHist")
            .field("total", &self.total)
            .field("mean_ns", &self.mean_ns())
            .finish_non_exhaustive()
    }
}

impl Default for LatHist {
    fn default() -> Self {
        LatHist {
            counts: vec![0; BUCKETS],
            total: 0,
            sum: 0,
        }
    }
}

fn bucket_of(ns: u64) -> usize {
    if ns < SUB {
        return ns as usize;
    }
    let exp = 63 - ns.leading_zeros(); // ≥ SUB_BITS
    let shift = exp - SUB_BITS;
    let sub = (ns >> shift) - SUB; // in [0, SUB)
    let idx = ((shift as u64 + 1) * SUB + sub) as usize;
    idx.min(BUCKETS - 1)
}

/// `[lo, hi)` nanosecond bounds of bucket `idx`.
fn bucket_bounds(idx: usize) -> (f64, f64) {
    let idx = idx as u64;
    if idx < SUB {
        return (idx as f64, idx as f64 + 1.0);
    }
    let shift = idx / SUB - 1;
    let sub = idx % SUB;
    let lo = ((SUB + sub) << shift) as f64;
    (lo, lo + (1u64 << shift) as f64)
}

impl LatHist {
    /// Records one observation.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.total += 1;
        self.sum += u128::from(ns);
    }

    /// Adds another histogram's observations.
    pub fn merge(&mut self, other: &LatHist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
    }

    /// Observations recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Mean, nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Quantile `q` in nanoseconds, linearly interpolated inside the
    /// bucket holding the target rank (0 when empty).
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * (self.total - 1) as f64;
        let mut below = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (below + c) as f64 > rank {
                let (lo, hi) = bucket_bounds(idx);
                let frac = ((rank - below as f64) + 0.5) / c as f64;
                return lo + (hi - lo) * frac.clamp(0.0, 1.0);
            }
            below += c;
        }
        bucket_bounds(BUCKETS - 1).1
    }
}

/// Arithmetic mean of `xs` (NaN when empty).
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Median of `xs` (mean of the middle pair for even lengths; NaN when
/// empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile of `xs` (NaN when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (i, frac) = (pos.floor() as usize, pos.fract());
    match v.get(i + 1) {
        Some(next) => v[i] + (next - v[i]) * frac,
        None => v[i],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_contain_their_values() {
        let mut prev = 0;
        for ns in (0..5000u64).chain([1 << 20, (1 << 20) + 12345, 1 << 39]) {
            let b = bucket_of(ns);
            assert!(b >= prev, "bucket order at {ns}");
            prev = b;
            let (lo, hi) = bucket_bounds(b);
            assert!(
                lo <= ns as f64 && (ns as f64) < hi,
                "{ns} not in [{lo},{hi})"
            );
        }
    }

    #[test]
    fn quantiles_track_the_data() {
        let mut h = LatHist::default();
        for ns in 1..=10_000u64 {
            h.record(ns);
        }
        let p50 = h.quantile_ns(0.5);
        assert!((p50 - 5000.0).abs() < 5000.0 * 0.04, "p50 {p50}");
        let p99 = h.quantile_ns(0.99);
        assert!((p99 - 9900.0).abs() < 9900.0 * 0.04, "p99 {p99}");
        assert!((h.mean_ns() - 5000.5).abs() < 1e-9);
    }

    #[test]
    fn median_and_quantile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 1.0), 5.0);
    }
}
