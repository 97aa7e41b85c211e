//! Reads the metrics sink through its Prometheus text export **by metric
//! name**, never through `StageId`/`CounterId` identifiers: a metric a later
//! PR renames or deletes reads as absent here instead of breaking the build.

/// The sample value on the line whose name (including any `{labels}`)
/// is exactly `name`; `None` when the export has no such line.
pub fn lookup(text: &str, name: &str) -> Option<f64> {
    text.lines()
        .filter(|line| !line.starts_with('#'))
        .find_map(|line| {
            let (key, value) = line.rsplit_once(' ')?;
            (key == name).then(|| value.trim().parse().ok())?
        })
}

/// Estimated quantile of a request-lifecycle stage, in nanoseconds.
pub fn stage_quantile_ns(text: &str, stage: &str, quantile: &str) -> Option<f64> {
    lookup(
        text,
        &format!("cqap_stage_quantile_nanoseconds{{stage=\"{stage}\",quantile=\"{quantile}\"}}"),
    )
}

/// Number of observations a stage recorded.
pub fn stage_count(text: &str, stage: &str) -> Option<f64> {
    lookup(
        text,
        &format!("cqap_stage_duration_nanoseconds_count{{stage=\"{stage}\"}}"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEXT: &str = "# HELP cqap_pool_parks_total Times a pool worker parked.\n\
        # TYPE cqap_pool_parks_total counter\n\
        cqap_pool_parks_total 17\n\
        cqap_store_segment_reads_total 0\n\
        cqap_stage_quantile_nanoseconds{stage=\"queue_wait\",quantile=\"0.5\"} 1536\n\
        cqap_stage_quantile_nanoseconds{stage=\"queue_wait\",quantile=\"0.99\"} 98304\n\
        cqap_stage_duration_nanoseconds_count{stage=\"queue_wait\"} 4000\n\
        cqap_shard_balance_skew 1.037\n";

    #[test]
    fn present_names_read_their_value() {
        assert_eq!(lookup(TEXT, "cqap_pool_parks_total"), Some(17.0));
        assert_eq!(lookup(TEXT, "cqap_store_segment_reads_total"), Some(0.0));
        assert_eq!(lookup(TEXT, "cqap_shard_balance_skew"), Some(1.037));
        assert_eq!(stage_quantile_ns(TEXT, "queue_wait", "0.99"), Some(98304.0));
        assert_eq!(stage_count(TEXT, "queue_wait"), Some(4000.0));
    }

    #[test]
    fn absent_names_read_none_not_a_neighbour() {
        assert_eq!(lookup(TEXT, "cqap_pool_parks"), None);
        assert_eq!(lookup(TEXT, "cqap_pool_steals_total"), None);
        assert_eq!(stage_quantile_ns(TEXT, "admission_wait", "0.5"), None);
        assert_eq!(stage_quantile_ns(TEXT, "queue_wait", "0.9"), None);
        // Comment lines never match, even when they start with the name.
        assert_eq!(lookup("# cqap_x 3\n", "# cqap_x"), None);
    }
}
