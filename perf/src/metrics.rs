//! The benchmark's metric registry — the names, units and directions that
//! `BENCHMARK.json` declares (a unit test holds the two in step) — and the
//! per-run report the workloads fill in.

use std::collections::BTreeMap;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// What a user of the serving stack sees. Every workload reports every one
/// of these, measured with `MetricsSink::disabled()`.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", "lower"),
    m("throughput_rps", "1/s", "higher"),
    m("latency_p50_us", "us", "lower"),
    m("space_values", "values", "lower"),
    m("index_bytes", "B", "lower"),
    m("peak_rss_mb", "MiB", "lower"),
];

/// Single-layer metrics of the traced run. A metric that a workload does
/// not measure (see the README's table) reads 0 on it.
pub const PER_LAYER: &[MetricDef] = &[
    // set-up split
    m("query.gen_ms", "ms", "lower"),
    m("panda.build_ms", "ms", "lower"),
    m("shard.build_ms", "ms", "lower"),
    m("store.spill_ms", "ms", "lower"),
    m("store.open_ms", "ms", "lower"),
    m("serve.warmup_ms", "ms", "lower"),
    // engine
    m("panda.answer_us_p50", "us", "lower"),
    m("panda.answer_us_p99", "us", "lower"),
    m("panda.answer_us_mean", "us", "lower"),
    m("panda.answer_tuples_per_req", "tuples", "lower"),
    m("panda.plan_answer_us_p50.p0", "us", "lower"),
    m("panda.plan_answer_us_p50.p1", "us", "lower"),
    m("panda.plan_answer_us_p50.p2", "us", "lower"),
    m("panda.plan_space_values.p0", "values", "lower"),
    m("panda.plan_space_values.p1", "values", "lower"),
    m("panda.plan_space_values.p2", "values", "lower"),
    m("yannakakis.probe_ns_p50", "ns", "lower"),
    m("common.hash_fold_mvals_s", "Mvalues/s", "higher"),
    // store
    m("store.answer_us_p50", "us", "lower"),
    m("store.answer_us_p99", "us", "lower"),
    m("store.probe_ns_p50", "ns", "lower"),
    m("store.probe_ns_p99", "ns", "lower"),
    m("store.segment_reads_per_req", "count", "lower"),
    m("store.bytes_read_per_req", "B", "lower"),
    m("store.bytes_decoded_per_req", "B", "lower"),
    m("store.decode_mb_s", "MB/s", "higher"),
    m("common.varint_decode_mvals_s", "Mvalues/s", "higher"),
    m("store.bytes_per_value", "B", "lower"),
    m("store.disk_bytes", "B", "lower"),
    // serve, any workload
    m("serve.latency_p99_us", "us", "lower"),
    m("serve.self_us_p50", "us", "lower"),
    m("serve.roundtrip_us_p50", "us", "lower"),
    m("serve.ticket_delivery_us_p50", "us", "lower"),
    m("serve.cache_lookup_ns_p50", "ns", "lower"),
    m("serve.pool_parks_per_req", "count", "lower"),
    m("serve.queue_wait_us_p50", "us", "lower"),
    m("serve.queue_wait_us_p99", "us", "lower"),
    m("serve.admission_wait_ns_p50", "ns", "lower"),
    m("serve.backend_probe_us_p50", "us", "lower"),
    m("serve.cache_hit_ratio", "ratio", "higher"),
    m("serve.batch64_us_p50", "us", "lower"),
    m("serve.coalesced_share", "ratio", "higher"),
    // serve, the open-loop ladder
    m("serve.step_p50_us.r1", "us", "lower"),
    m("serve.step_p50_us.r2", "us", "lower"),
    m("serve.step_p50_us.r3", "us", "lower"),
    m("serve.step_p50_us.r4", "us", "lower"),
    m("serve.step_p50_us.r5", "us", "lower"),
    m("serve.step_p99_us.r1", "us", "lower"),
    m("serve.step_p99_us.r2", "us", "lower"),
    m("serve.step_p99_us.r3", "us", "lower"),
    m("serve.step_p99_us.r4", "us", "lower"),
    m("serve.step_p99_us.r5", "us", "lower"),
    m("serve.step_shed_share.r1", "ratio", "lower"),
    m("serve.step_shed_share.r2", "ratio", "lower"),
    m("serve.step_shed_share.r3", "ratio", "lower"),
    m("serve.step_shed_share.r4", "ratio", "lower"),
    m("serve.step_shed_share.r5", "ratio", "lower"),
    m("serve.max_rate_ok_rps", "1/s", "higher"),
    m("serve.closed_loop_capacity_rps", "1/s", "higher"),
    m("serve.failed_share_r1_r2", "ratio", "lower"),
    m("gen.late_p99_us", "us", "lower"),
    m("gen.poll_gap_p99_us", "us", "lower"),
    // shard
    m("shard.split_ns_p50", "ns", "lower"),
    m("shard.self_us_p50", "us", "lower"),
    m("shard.balance_skew", "ratio", "lower"),
    // delta
    m("delta.apply_ms_p50", "ms", "lower"),
    m("delta.tuples_per_s", "tuples/s", "higher"),
    m("delta.net_effect_us_p50", "us", "lower"),
    m("delta.net_tuples_per_batch", "tuples", "lower"),
    m("shard.partition_delta_us_p50", "us", "lower"),
    m("panda.delta_apply_ms_p50", "ms", "lower"),
    m("panda.recompiles_per_batch", "count", "lower"),
    m("store.delta_apply_ms_p50", "ms", "lower"),
    m("store.compactions", "count", "lower"),
    m("store.compact_ms_p50", "ms", "lower"),
    m("store.overlay_pending_probe_share", "ratio", "lower"),
    m("serve.read_batch_ms_p50", "ms", "lower"),
    m("serve.read_batch_ms_p99", "ms", "lower"),
    m("serve.apply_busy_retries", "count", "lower"),
    // tracing tax
    m("obs.overhead_pct", "%", "lower"),
];

pub fn lookup_def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// Metric values of one run, each with the number of samples behind it.
#[derive(Default)]
pub struct Report {
    values: BTreeMap<&'static str, (f64, usize)>,
}

impl Report {
    /// Records `name`; the name must be in the registry.
    pub fn set(&mut self, name: &'static str, value: f64, n: usize) {
        assert!(lookup_def(name).is_some(), "unregistered metric {name}");
        self.values.insert(name, (value, n));
    }

    /// Records an optional reading: an absent one (a sink metric the
    /// program no longer exports) stays unset.
    pub fn set_opt(&mut self, name: &'static str, value: Option<f64>, n: usize) {
        if let Some(value) = value {
            self.set(name, value, n);
        }
    }

    pub fn get(&self, name: &str) -> Option<(f64, usize)> {
        self.values.get(name).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(def.name), "duplicate {}", def.name);
            assert!(def.name.len() <= 64);
            assert!(def.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(def
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(!def.unit.is_empty() && def.unit.len() <= 16);
            assert!(def
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(def.better == "higher" || def.better == "lower");
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }
}
