//! Snapshot and export: Prometheus text exposition and bench-style JSON
//! records.

use std::fmt::Write as _;

use crate::hist::{HistogramSnapshot, BOUNDS};
use crate::sink::{CounterId, GaugeId, StageId};

/// An owned point-in-time copy of every metric in a
/// [`Recorder`](crate::Recorder).
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Per-stage latency histograms, indexed like `StageId::ALL`.
    pub stages: [HistogramSnapshot; StageId::COUNT],
    /// Counter values, indexed like [`CounterId::ALL`].
    pub counters: [u64; CounterId::COUNT],
    /// Gauge values, indexed like `GaugeId::ALL`.
    pub gauges: [i64; GaugeId::COUNT],
    /// Requests served per shard (trailing all-zero shards trimmed;
    /// empty when the stack is unsharded).
    pub shard_served: Vec<u64>,
}

impl MetricsSnapshot {
    /// The histogram snapshot for one stage.
    pub fn stage(&self, stage: StageId) -> &HistogramSnapshot {
        &self.stages[stage as usize]
    }

    /// The value of one counter.
    pub fn counter(&self, counter: CounterId) -> u64 {
        self.counters[counter as usize]
    }

    /// The value of one gauge.
    pub fn gauge(&self, gauge: GaugeId) -> i64 {
        self.gauges[gauge as usize]
    }

    /// Ratio of the busiest shard's served count to the mean served
    /// count, or `None` when no shard counters were recorded.
    ///
    /// 1.0 means perfectly balanced traffic; 2.0 means the hottest
    /// shard saw twice its fair share.
    pub fn shard_balance_skew(&self) -> Option<f64> {
        let total: u64 = self.shard_served.iter().sum();
        if self.shard_served.is_empty() || total == 0 {
            return None;
        }
        let mean = total as f64 / self.shard_served.len() as f64;
        let max = *self.shard_served.iter().max().expect("non-empty") as f64;
        Some(max / mean)
    }

    /// The activity recorded between `earlier` and `self` — an
    /// interval window from two cumulative snapshots of the same
    /// recorder, so long-running processes can report per-window
    /// rates instead of running totals.
    ///
    /// Counters and per-shard served counts subtract (saturating);
    /// stage histograms subtract bucket-wise
    /// (`HistogramSnapshot::delta`); gauges are instantaneous, so
    /// the delta carries their signed change over the window.
    pub fn delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let mut shard_served: Vec<u64> = self.shard_served.clone();
        for (mine, &past) in shard_served.iter_mut().zip(&earlier.shard_served) {
            *mine = mine.saturating_sub(past);
        }
        MetricsSnapshot {
            stages: std::array::from_fn(|i| self.stages[i].delta(&earlier.stages[i])),
            counters: std::array::from_fn(|i| {
                self.counters[i].saturating_sub(earlier.counters[i])
            }),
            gauges: std::array::from_fn(|i| self.gauges[i] - earlier.gauges[i]),
            shard_served,
        }
    }

    /// Renders the snapshot in Prometheus text exposition format
    /// (version 0.0.4).
    ///
    /// Emits one histogram family (`stage` label, cumulative `le`
    /// buckets in nanoseconds), a quantile gauge family with the
    /// estimated p50/p95/p99/p999 per stage, every counter and gauge,
    /// and — when sharded — per-shard served counters plus the balance
    /// skew gauge. Stages with zero observations are omitted to keep
    /// the output readable; counters and gauges are always present.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();

        let live: Vec<StageId> = StageId::ALL
            .into_iter()
            .filter(|&s| !self.stage(s).is_empty())
            .collect();

        if !live.is_empty() {
            out.push_str(
                "# HELP cqap_stage_duration_nanoseconds \
                 Request lifecycle stage latency, by stage.\n",
            );
            out.push_str("# TYPE cqap_stage_duration_nanoseconds histogram\n");
            for &stage in &live {
                let hist = self.stage(stage);
                let mut cumulative = 0u64;
                for (idx, &n) in hist.buckets.iter().enumerate() {
                    cumulative += n;
                    // Skip leading all-zero buckets but keep every
                    // boundary after the first observation so the
                    // cumulative counts stay self-describing.
                    if cumulative == 0 {
                        continue;
                    }
                    let le = if idx < BOUNDS.len() {
                        BOUNDS[idx].to_string()
                    } else {
                        "+Inf".to_string()
                    };
                    writeln!(
                        out,
                        "cqap_stage_duration_nanoseconds_bucket{{stage=\"{}\",le=\"{}\"}} {}",
                        stage.name(),
                        le,
                        cumulative
                    )
                    .expect("write to String");
                }
                writeln!(
                    out,
                    "cqap_stage_duration_nanoseconds_sum{{stage=\"{}\"}} {}",
                    stage.name(),
                    hist.sum
                )
                .expect("write to String");
                writeln!(
                    out,
                    "cqap_stage_duration_nanoseconds_count{{stage=\"{}\"}} {}",
                    stage.name(),
                    hist.count
                )
                .expect("write to String");
            }

            out.push_str(
                "# HELP cqap_stage_quantile_nanoseconds \
                 Estimated stage latency quantiles (bucket-midpoint estimate).\n",
            );
            out.push_str("# TYPE cqap_stage_quantile_nanoseconds gauge\n");
            for &stage in &live {
                let hist = self.stage(stage);
                for (label, q) in [("0.5", 0.5), ("0.95", 0.95), ("0.99", 0.99), ("0.999", 0.999)]
                {
                    writeln!(
                        out,
                        "cqap_stage_quantile_nanoseconds{{stage=\"{}\",quantile=\"{}\"}} {}",
                        stage.name(),
                        label,
                        hist.quantile(q)
                    )
                    .expect("write to String");
                }
            }
        }

        for counter in CounterId::ALL {
            writeln!(out, "# HELP {} {}", counter.name(), counter.help())
                .expect("write to String");
            writeln!(out, "# TYPE {} counter", counter.name()).expect("write to String");
            writeln!(out, "{} {}", counter.name(), self.counter(counter))
                .expect("write to String");
        }

        for gauge in GaugeId::ALL {
            writeln!(out, "# HELP {} {}", gauge.name(), gauge.help()).expect("write to String");
            writeln!(out, "# TYPE {} gauge", gauge.name()).expect("write to String");
            writeln!(out, "{} {}", gauge.name(), self.gauge(gauge)).expect("write to String");
        }

        if !self.shard_served.is_empty() {
            out.push_str("# HELP cqap_shard_served_total Requests answered per shard.\n");
            out.push_str("# TYPE cqap_shard_served_total counter\n");
            for (shard, &n) in self.shard_served.iter().enumerate() {
                writeln!(out, "cqap_shard_served_total{{shard=\"{shard}\"}} {n}")
                    .expect("write to String");
            }
            if let Some(skew) = self.shard_balance_skew() {
                out.push_str(
                    "# HELP cqap_shard_balance_skew \
                     Busiest shard's served count over the mean (1.0 = balanced).\n",
                );
                out.push_str("# TYPE cqap_shard_balance_skew gauge\n");
                writeln!(out, "cqap_shard_balance_skew {skew:.3}").expect("write to String");
            }
        }

        out
    }
}
