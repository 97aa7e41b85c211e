//! Offline stand-in for the `criterion` crate.
//!
//! Implements the subset of the Criterion API the workspace's benches use —
//! [`criterion_group!`] / [`criterion_main!`], benchmark groups,
//! `bench_function` / `bench_with_input`, [`BenchmarkId`] — with a simple
//! fixed-sample wall-clock harness: each benchmark closure is warmed up
//! once and then timed for `sample_size` samples.
//!
//! Two fidelity features beyond a plain timer:
//!
//! * **Outlier-robust statistics.** Besides mean / min / max, every
//!   benchmark reports the **median** and the **MAD** (median absolute
//!   deviation from the median) — on noisy shared runners one descheduled
//!   sample can double a mean, while the median±MAD pair barely moves.
//! * **Tail quantiles.** Every benchmark also reports its p99/p999,
//!   estimated through the `cqap-obs` log-bucketed latency histogram —
//!   the same estimator the serving stack's metrics exposition uses.
//!
//! There is no HTML report; the goal is comparable relative numbers in an
//! environment without registry access.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// The top-level benchmark driver.
#[derive(Debug, Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: 20,
            _criterion: self,
        }
    }

    /// Benchmarks a single function outside any group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, f: F) -> &mut Self {
        run_benchmark(id, 20, f);
        self
    }
}

/// A named group of benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Accepted for API compatibility; the shim's total measurement time is
    /// simply `sample_size` executions of the closure.
    pub fn measurement_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    /// Benchmarks `f` under `id` within this group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl IntoBenchmarkId,
        f: F,
    ) -> &mut Self {
        let label = format!("{}/{}", self.name, id.into_benchmark_id());
        run_benchmark(&label, self.sample_size, f);
        self
    }

    /// Benchmarks `f` with a borrowed input value.
    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: impl IntoBenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        let label = format!("{}/{}", self.name, id.into_benchmark_id());
        run_benchmark(&label, self.sample_size, |b| f(b, input));
        self
    }

    /// Ends the group (printing is immediate, so this is a no-op).
    pub fn finish(&mut self) {}
}

/// A function + parameter benchmark identifier.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// An id rendered as `function/parameter`.
    pub fn new(function: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            label: format!("{}/{}", function.into(), parameter),
        }
    }
}

/// Conversion of the various id forms Criterion accepts.
pub trait IntoBenchmarkId {
    /// The rendered label.
    fn into_benchmark_id(self) -> String;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_benchmark_id(self) -> String {
        self.label
    }
}

impl IntoBenchmarkId for &str {
    fn into_benchmark_id(self) -> String {
        self.to_string()
    }
}

impl IntoBenchmarkId for String {
    fn into_benchmark_id(self) -> String {
        self
    }
}

/// The timing handle passed to benchmark closures.
pub struct Bencher {
    samples: usize,
    durations: Vec<Duration>,
}

impl Bencher {
    /// Times `sample_size` executions of `routine` (after one warm-up run).
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        black_box(routine());
        for _ in 0..self.samples {
            let start = Instant::now();
            black_box(routine());
            self.durations.push(start.elapsed());
        }
    }
}

/// Summary statistics over one benchmark's samples, in nanoseconds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SampleStats {
    /// Number of timed samples.
    pub samples: usize,
    /// Median sample time (outlier-robust location).
    pub median_ns: u128,
    /// Median absolute deviation from the median (outlier-robust spread).
    pub mad_ns: u128,
    /// Arithmetic mean sample time.
    pub mean_ns: u128,
    /// Fastest sample.
    pub min_ns: u128,
    /// Slowest sample.
    pub max_ns: u128,
    /// 99th-percentile sample time, estimated through the log-bucketed
    /// latency histogram of `cqap-obs` (bucket-bounded error; with few
    /// samples this approaches the max).
    pub p99_ns: u128,
    /// 99.9th-percentile sample time, from the same histogram.
    pub p999_ns: u128,
}

impl SampleStats {
    /// Computes the summary over a non-empty sample set.
    pub fn of(durations: &[Duration]) -> SampleStats {
        assert!(!durations.is_empty(), "stats need at least one sample");
        let mut ns: Vec<u128> = durations.iter().map(Duration::as_nanos).collect();
        ns.sort_unstable();
        let median = median_of_sorted(&ns);
        let mut deviations: Vec<u128> = ns.iter().map(|&x| x.abs_diff(median)).collect();
        deviations.sort_unstable();
        // Tail quantiles through the serving stack's own histogram, so a
        // bench's reported p99/p999 and a live sink's exposition agree on
        // their estimator (and its bucket-bounded error).
        let hist = cqap_obs::LatencyHistogram::new();
        for d in durations {
            hist.record(*d);
        }
        let snap = hist.snapshot();
        SampleStats {
            samples: ns.len(),
            median_ns: median,
            mad_ns: median_of_sorted(&deviations),
            mean_ns: ns.iter().sum::<u128>() / ns.len() as u128,
            min_ns: ns[0],
            max_ns: ns[ns.len() - 1],
            p99_ns: snap.p99() as u128,
            p999_ns: snap.p999() as u128,
        }
    }
}

/// Median of an already-sorted slice (midpoint average for even lengths).
fn median_of_sorted(sorted: &[u128]) -> u128 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2
    }
}

fn run_benchmark<F: FnMut(&mut Bencher)>(label: &str, samples: usize, mut f: F) {
    let mut bencher = Bencher {
        samples,
        durations: Vec::with_capacity(samples),
    };
    f(&mut bencher);
    if bencher.durations.is_empty() {
        println!("{label:<50} (no samples)");
        return;
    }
    let stats = SampleStats::of(&bencher.durations);
    println!(
        "{label:<50} median {:>12} ± {:>10} mean {:>12} min {:>12} max {:>12} p99 {:>12} p999 {:>12} ({} samples)",
        fmt_duration(Duration::from_nanos(stats.median_ns as u64)),
        fmt_duration(Duration::from_nanos(stats.mad_ns as u64)),
        fmt_duration(Duration::from_nanos(stats.mean_ns as u64)),
        fmt_duration(Duration::from_nanos(stats.min_ns as u64)),
        fmt_duration(Duration::from_nanos(stats.max_ns as u64)),
        fmt_duration(Duration::from_nanos(stats.p99_ns as u64)),
        fmt_duration(Duration::from_nanos(stats.p999_ns as u64)),
        stats.samples,
    );
}

fn fmt_duration(d: Duration) -> String {
    let nanos = d.as_nanos();
    if nanos < 1_000 {
        format!("{nanos} ns")
    } else if nanos < 1_000_000 {
        format!("{:.2} µs", nanos as f64 / 1_000.0)
    } else if nanos < 1_000_000_000 {
        format!("{:.2} ms", nanos as f64 / 1_000_000.0)
    } else {
        format!("{:.2} s", nanos as f64 / 1_000_000_000.0)
    }
}

/// Bundles benchmark functions into a single runner, mirroring
/// `criterion::criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Generates `main` for one or more benchmark groups, mirroring
/// `criterion::criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_and_id_render() {
        let id = BenchmarkId::new("two_reach", "E^1.5");
        assert_eq!(id.into_benchmark_id(), "two_reach/E^1.5");
    }

    #[test]
    fn bencher_collects_samples() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim");
        group.sample_size(5).bench_function("noop", |b| {
            let mut x = 0u64;
            b.iter(|| {
                x = x.wrapping_add(1);
                x
            })
        });
        group.finish();
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_nanos(12)), "12 ns");
        assert_eq!(fmt_duration(Duration::from_micros(2)), "2.00 µs");
        assert_eq!(fmt_duration(Duration::from_millis(3)), "3.00 ms");
        assert_eq!(fmt_duration(Duration::from_secs(4)), "4.00 s");
    }

    #[test]
    fn median_and_mad_are_outlier_robust() {
        // Nine fast samples and one 100x outlier: the mean blows up, the
        // median/MAD barely notice.
        let durations: Vec<Duration> = (0..9)
            .map(|i| Duration::from_nanos(100 + i))
            .chain([Duration::from_nanos(10_000)])
            .collect();
        let stats = SampleStats::of(&durations);
        assert_eq!(stats.samples, 10);
        assert_eq!(stats.median_ns, 104); // avg of 104 and 105 → 104 (integer)
        assert!(stats.mad_ns <= 5, "MAD ignores the outlier: {}", stats.mad_ns);
        assert!(stats.mean_ns > 1_000, "mean is dragged by the outlier");
        assert_eq!(stats.min_ns, 100);
        assert_eq!(stats.max_ns, 10_000);
        // Tail quantiles sit between the median and the max, and with 10
        // samples both land in the outlier's bucket.
        assert!(stats.median_ns <= stats.p99_ns);
        assert!(stats.p99_ns <= stats.p999_ns);
        assert!(stats.p999_ns <= stats.max_ns);
        assert!(stats.p99_ns > 1_000, "p99 sees the outlier");

        // Odd-length median is the middle element.
        let odd: Vec<Duration> = [30u64, 10, 20].iter().map(|&n| Duration::from_nanos(n)).collect();
        assert_eq!(SampleStats::of(&odd).median_ns, 20);
    }
}
