//! Order statistics the harness reports: nearest-rank percentiles with the
//! "enough samples beyond it" rule, and the quartile spread the acceptance
//! protocol uses.

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Sorts a sample ascending (NaN-free by construction: all inputs are
/// elapsed times or counts).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// Nearest-rank percentile of an ascending sample: the value at rank
/// `ceil(q · n)` (1-based). An empty sample reads 0.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Number of samples strictly beyond the nearest-rank position of `q`.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Whether percentile `q` of `n` samples has [`MIN_BEYOND`] samples beyond
/// it, so that a tail is never reported from a handful of points.
pub fn tail_supported(n: usize, q: f64) -> bool {
    samples_beyond(n, q) >= MIN_BEYOND
}

/// Median / p99 of one timed sample, with its size.
#[derive(Clone, Copy, Debug, Default)]
pub struct Dist {
    pub n: usize,
    pub p50: f64,
    pub p99: f64,
}

impl Dist {
    pub fn of(samples: Vec<f64>) -> Dist {
        let s = sorted(samples);
        Dist {
            n: s.len(),
            p50: percentile(&s, 0.5),
            p99: percentile(&s, 0.99),
        }
    }

    /// Of per-call times taken in ns, reported in µs.
    pub fn of_ns_in_us(ns: &[f64]) -> Dist {
        Dist::of(ns.iter().map(|ns| ns / 1e3).collect())
    }
}

/// Nearest-rank first quartile: the calm estimate of a lower-is-better
/// reading taken in several slices of a run (see [`calm`]).
pub fn lower_quartile(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 0.25)
}

/// Nearest-rank third quartile: the calm estimate of a higher-is-better
/// reading taken in several slices of a run (see [`calm`]).
pub fn upper_quartile(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 0.75)
}

/// The calm median and p99 of a latency measured in slices spread over
/// the run: the first quartile, over the slices, of each slice's own
/// percentile.
///
/// The sandbox's cores switch between a fast and a slow state for seconds
/// at a time (a CPU-bound loop runs 1.6× slower in the slow one), which
/// only ever makes a slice worse. The quartile on the good side reads the
/// program in the undisturbed state as long as a quarter of the slices saw
/// it; a real regression moves every slice and so moves the quartile.
pub fn calm<'a>(slices: impl IntoIterator<Item = &'a [f64]>) -> Dist {
    let each: Vec<Dist> = slices
        .into_iter()
        .filter(|s| !s.is_empty())
        .map(|s| Dist::of(s.to_vec()))
        .collect();
    Dist {
        n: each.iter().map(|d| d.n).sum(),
        p50: lower_quartile(&each.iter().map(|d| d.p50).collect::<Vec<_>>()),
        p99: lower_quartile(&each.iter().map(|d| d.p99).collect::<Vec<_>>()),
    }
}

/// Cuts one sample, in measurement order, into `parts` slices of equal
/// count for [`calm`].
pub fn equal_slices(samples: &[f64], parts: usize) -> impl Iterator<Item = &[f64]> {
    samples.chunks(samples.len().div_ceil(parts.max(1)).max(1))
}

pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default *exclusive* method)
/// gives them — the acceptance protocol is stated in those terms.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let data = sorted(samples.to_vec());
    let ld = data.len();
    assert!(ld >= 2, "quartiles need at least two samples");
    let (n, m) = (4usize, ld + 1);
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
    };
    (cut(1), cut(3))
}

/// Inter-quartile distance as a share of the median.
pub fn iqr_share(samples: &[f64]) -> f64 {
    let (q1, q3) = quartiles(samples);
    let med = median(samples);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 of 1 000 samples sits at rank 990: exactly 10 beyond.
        assert_eq!(samples_beyond(1_000, 0.99), 10);
        assert!(tail_supported(1_000, 0.99));
        // One sample fewer and p99 no longer qualifies.
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert!(!tail_supported(999, 0.99));
        assert!(tail_supported(999, 0.95));
        assert!(!tail_supported(0, 0.5));
        assert_eq!(Dist::of((0..1_000).map(f64::from).collect()).p99, 989.0);
    }

    #[test]
    fn calm_estimates_read_the_undisturbed_slices() {
        // Eight slices at 10 µs, three of them disturbed to 16 µs: the first
        // quartile of the slice medians still reads 10, the third quartile
        // of the matching rates still reads the fast rate.
        let slice = |us: f64| vec![us; 200];
        let slices: Vec<Vec<f64>> = [10.0, 16.0, 10.0, 10.0, 16.0, 10.0, 16.0, 10.0]
            .into_iter()
            .map(slice)
            .collect();
        let dist = calm(slices.iter().map(Vec::as_slice));
        assert_eq!((dist.n, dist.p50, dist.p99), (1_600, 10.0, 10.0));
        let rates: Vec<f64> = slices.iter().map(|s| 1e6 / s[0]).collect();
        assert_eq!(upper_quartile(&rates), 100_000.0);
        assert_eq!(lower_quartile(&[4.0, 1.0, 3.0, 2.0]), 1.0);
        assert_eq!(upper_quartile(&[4.0, 1.0, 3.0, 2.0]), 3.0);
        // Cutting keeps order and loses nothing.
        let ten: Vec<f64> = (0..10).map(f64::from).collect();
        let cut: Vec<&[f64]> = equal_slices(&ten, 4).collect();
        assert_eq!(cut.len(), 4);
        assert_eq!(cut.concat(), ten);
        assert_eq!(cut[0], [0.0, 1.0, 2.0]);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }
}
