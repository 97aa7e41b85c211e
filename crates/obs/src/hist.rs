//! Lock-free log-bucketed latency histograms.
//!
//! A [`LatencyHistogram`] is a fixed array of `AtomicU64` buckets whose
//! boundaries grow geometrically — two buckets per octave (ratio ≈ √2 ≈
//! 1.41) — from 100ns up to ~100s, with one catch-all overflow bucket
//! above that. Recording is a single relaxed `fetch_add` plus two
//! saturating min/max updates, so many worker threads can record into
//! the same histogram without locks or allocation. Because the bucket
//! layout is identical for every histogram, snapshots merge by plain
//! element-wise addition.
//!
//! Quantile estimates come from the bucketed distribution: the reported
//! value always lies inside the bucket that contains the exact sample
//! quantile, so the absolute error is bounded by one bucket width
//! (relative error ≈ √2 − 1 ≈ 41% of the value in the worst case, and
//! half that on average). That guarantee is what the proptest suite
//! checks.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of finite bucket boundaries.
///
/// Boundary `2k` is `100 << k` and boundary `2k+1` is `141 << k`
/// nanoseconds (141 ≈ 100·√2), so consecutive boundaries are a factor
/// of ≈1.41 apart. The last boundary is `100 << 30` ≈ 107.4s, which
/// caps the resolvable range at roughly 100 seconds as advertised.
pub(crate) const NUM_BOUNDS: usize = 61;

/// Total bucket count: one per finite boundary plus the overflow bucket.
pub(crate) const NUM_BUCKETS: usize = NUM_BOUNDS + 1;

/// Upper bucket boundaries in nanoseconds, strictly increasing.
///
/// Bucket `0` covers `[0, BOUNDS[0])`, bucket `i` covers
/// `[BOUNDS[i-1], BOUNDS[i])`, and bucket `NUM_BOUNDS` is the overflow
/// bucket `[BOUNDS[NUM_BOUNDS-1], ∞)`.
pub(crate) const BOUNDS: [u64; NUM_BOUNDS] = build_bounds();

const fn build_bounds() -> [u64; NUM_BOUNDS] {
    let mut bounds = [0u64; NUM_BOUNDS];
    let mut i = 0;
    while i < NUM_BOUNDS {
        let octave = i / 2;
        bounds[i] = if i % 2 == 0 {
            100u64 << octave
        } else {
            141u64 << octave
        };
        i += 1;
    }
    bounds
}

/// Index of the bucket a `ns`-nanosecond observation falls into.
#[inline]
pub fn bucket_of(ns: u64) -> usize {
    // Boundaries are sorted, so the first boundary strictly above `ns`
    // names the bucket; if every boundary is <= ns this returns
    // NUM_BOUNDS, the overflow bucket.
    BOUNDS.partition_point(|&b| b <= ns)
}

/// Half-open value range `[lo, hi)` covered by bucket `idx`.
///
/// The overflow bucket reports `hi == u64::MAX`.
#[inline]
pub fn bucket_range(idx: usize) -> (u64, u64) {
    let lo = if idx == 0 { 0 } else { BOUNDS[idx - 1] };
    let hi = if idx < NUM_BOUNDS {
        BOUNDS[idx]
    } else {
        u64::MAX
    };
    (lo, hi)
}

/// A lock-free latency histogram with log-spaced buckets.
///
/// All methods take `&self`; concurrent recording from many threads is
/// the intended use. Buckets are log-spaced (two per octave over
/// 100 ns..100 s), so quantile estimates are off by at most one bucket
/// width — under 50% relative error, typically far less.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: [const { AtomicU64::new(0) }; NUM_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation of `ns` nanoseconds.
    ///
    /// Lock-free and allocation-free: one `fetch_add` per counter plus
    /// atomic min/max updates, all relaxed.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        self.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(ns, Ordering::Relaxed);
        self.min.fetch_min(ns, Ordering::Relaxed);
        self.max.fetch_max(ns, Ordering::Relaxed);
    }

    /// Takes a point-in-time copy of the histogram state.
    ///
    /// Individual loads are relaxed, so a snapshot taken while writers
    /// are active may be off by in-flight observations; totals are
    /// exact once writers quiesce.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; NUM_BUCKETS];
        for (slot, bucket) in buckets.iter_mut().zip(&self.buckets) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// An owned point-in-time copy of a [`LatencyHistogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (not cumulative).
    pub buckets: [u64; NUM_BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values, in nanoseconds.
    pub sum: u64,
    /// Smallest observed value (`u64::MAX` when empty).
    pub min: u64,
    /// Largest observed value (`0` when empty).
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl HistogramSnapshot {
    /// An empty snapshot (zero observations).
    pub fn empty() -> Self {
        Self {
            buckets: [0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Whether no observations have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean observed value in nanoseconds (0 when empty).
    #[cfg(test)]
    pub(crate) fn mean(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.sum / self.count
        }
    }

    /// The observations recorded between `earlier` and `self`
    /// (bucket-wise saturating subtraction), for interval-rate
    /// reporting from two cumulative snapshots of one histogram.
    ///
    /// Bucket counts, `count` and `sum` subtract exactly. `min`/`max`
    /// are cumulative extremes and cannot be subtracted, so the delta
    /// reconstructs them from its own non-empty buckets (tightened by
    /// the cumulative extremes): they are correct to bucket
    /// resolution, like the quantile estimates.
    pub(crate) fn delta(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut buckets = [0u64; NUM_BUCKETS];
        for (slot, (&later, &past)) in buckets
            .iter_mut()
            .zip(self.buckets.iter().zip(&earlier.buckets))
        {
            *slot = later.saturating_sub(past);
        }
        let count = self.count.saturating_sub(earlier.count);
        let (min, max) = if count == 0 {
            (u64::MAX, 0)
        } else if earlier.count == 0 {
            // Nothing predates the window: the exact extremes hold.
            (self.min, self.max)
        } else {
            let first = buckets.iter().position(|&n| n > 0).unwrap_or(0);
            let last = buckets.iter().rposition(|&n| n > 0).unwrap_or(0);
            (
                bucket_range(first).0.max(self.min),
                bucket_range(last).1.saturating_sub(1).min(self.max),
            )
        };
        HistogramSnapshot {
            buckets,
            count,
            sum: self.sum.saturating_sub(earlier.sum),
            min,
            max,
        }
    }

    /// Merges another snapshot into this one (element-wise addition).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (slot, &n) in self.buckets.iter_mut().zip(&other.buckets) {
            *slot += n;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The `[lo, hi]` nanosecond range guaranteed to contain the exact
    /// `q`-quantile of the recorded sample, `0.0 <= q <= 1.0`.
    ///
    /// `lo`/`hi` are the containing bucket's boundaries tightened by
    /// the exact observed min/max; the overflow bucket's upper bound is
    /// the observed max. Returns `(0, 0)` when empty.
    ///
    /// A snapshot taken while writers are active can be inconsistent:
    /// `record_ns` bumps the bucket before `count` and `min`/`max`, and
    /// the loads are not one atomic read. So the rank is taken over the
    /// buckets themselves, and min/max tighten the bucket only where they
    /// overlap it; `lo <= hi` always holds, inside the sample's bucket.
    pub fn quantile_bounds(&self, q: f64) -> (u64, u64) {
        let total: u64 = self.buckets.iter().sum();
        if total == 0 {
            return (0, 0);
        }
        // Rank of the quantile sample, 1-based: the standard
        // ceil(q * n) nearest-rank definition, clamped to [1, n].
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        let idx = self
            .buckets
            .iter()
            .position(|&n| {
                seen += n;
                seen >= rank
            })
            .unwrap_or(NUM_BOUNDS);
        let (lo, hi) = bucket_range(idx);
        let (tight_lo, tight_hi) = (lo.max(self.min), hi.min(self.max.saturating_add(1)));
        if tight_lo < tight_hi {
            (tight_lo, tight_hi)
        } else {
            (lo, hi)
        }
    }

    /// Estimates the `q`-quantile in nanoseconds.
    ///
    /// The estimate is the midpoint of [`quantile_bounds`], so it lies
    /// in the same bucket as the exact sample quantile and is at most
    /// one bucket width away from it.
    ///
    /// [`quantile_bounds`]: Self::quantile_bounds
    pub fn quantile(&self, q: f64) -> u64 {
        let (lo, hi) = self.quantile_bounds(q);
        lo + (hi - lo) / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_are_strictly_increasing_and_span_100ns_to_100s() {
        for pair in BOUNDS.windows(2) {
            assert!(pair[0] < pair[1], "bounds must increase: {pair:?}");
        }
        assert_eq!(BOUNDS[0], 100);
        assert!(BOUNDS[NUM_BOUNDS - 1] >= 100_000_000_000);
    }

    #[test]
    fn bucket_of_matches_bucket_range() {
        for ns in [0, 1, 99, 100, 140, 141, 199, 1_000, 1_000_000, u64::MAX] {
            let idx = bucket_of(ns);
            let (lo, hi) = bucket_range(idx);
            assert!(lo <= ns && ns < hi || (idx == NUM_BOUNDS && ns >= lo));
        }
    }

    #[test]
    fn quantiles_of_a_point_mass_hit_the_point_bucket() {
        let h = LatencyHistogram::new();
        for _ in 0..1000 {
            h.record_ns(5_000);
        }
        let s = h.snapshot();
        for q in [0.0, 0.5, 0.99, 0.999, 1.0] {
            assert_eq!(s.quantile(q), 5_000, "q={q}");
        }
        assert_eq!(s.mean(), 5_000);
        assert_eq!((s.min, s.max), (5_000, 5_000));
    }

    /// Snapshots a live scrape can see: `record_ns` bumps the bucket
    /// before `min`/`max`, so a bucket can hold a sample the extremes do
    /// not cover yet. The bounds must stay ordered and inside the bucket
    /// of the ranked sample, and `quantile` must not overflow.
    #[test]
    fn racy_snapshots_keep_quantile_bounds_inside_the_bucket() {
        // One sample in its bucket, min/max still at their empty values.
        let mut fresh = HistogramSnapshot::empty();
        fresh.buckets[bucket_of(1_000)] = 1;
        fresh.count = 1;
        fresh.sum = 1_000;
        // Ten samples at 5 ms seen by min/max, a 1 µs one not yet.
        let mut late = HistogramSnapshot::empty();
        late.buckets[bucket_of(5_000_000)] = 10;
        late.buckets[bucket_of(1_000)] = 1;
        late.count = 11;
        late.sum = 50_001_000;
        late.min = 5_000_000;
        late.max = 5_000_000;
        for (snapshot, low_bucket_quantiles) in [(&fresh, 1.0), (&late, 1.0 / 11.0)] {
            for q in [0.0, 0.05, low_bucket_quantiles, 0.5, 0.99, 1.0] {
                let (lo, hi) = snapshot.quantile_bounds(q);
                let ns = if q <= low_bucket_quantiles { 1_000 } else { 5_000_000 };
                let (bucket_lo, bucket_hi) = bucket_range(bucket_of(ns));
                assert!(bucket_lo <= lo && lo <= hi && hi <= bucket_hi, "q={q}: ({lo}, {hi})");
                let estimate = snapshot.quantile(q);
                assert!(lo <= estimate && estimate <= hi, "q={q}: {estimate}");
            }
        }
    }
}
