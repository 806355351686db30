//! Every name the benchmark emits: workloads, end-to-end metrics
//! (untraced runs) and per-layer metrics (traced runs), with units and
//! the end-to-end metric each layer metric should move.

/// Workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 2] = ["cold_sweep", "warm_serve"];

/// Runnable, but not in `BENCHMARK.json`: its makespan jumped between
/// runs (24–29 ms against 41–43 ms per campaign), so its spread reached
/// the largest bound a metric may have. Every traced run still measures
/// it through a short session, for the `cluster.*` layer figures.
pub const UNBOUNDED_WORKLOADS: [&str; 1] = ["cluster_fanout"];

/// An emitted metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// For per-layer metrics: the end-to-end metric and workload the
    /// layer should move.
    pub moves: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        moves: "",
    }
}

const fn l(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        moves,
    }
}

/// End-to-end metrics, reported by every untraced run and bounded in
/// `BENCHMARK.json`.
pub const END_TO_END: [Metric; 5] = [
    m("points_per_s", "points/s", "higher"),
    m("campaign_ms_p50", "ms", "lower"),
    m("first_point_ms_p50", "ms", "lower"),
    m("setup_s", "s", "lower"),
    m("peak_rss_mb", "MB", "lower"),
];

/// Tail latencies, printed by every untraced run but not bounded: on
/// the development host their spread across ten runs of `warm_serve`
/// (0.30 and 0.41 of the median) exceeded the largest bound a metric may
/// have.
pub const TAILS: [Metric; 2] = [
    m("campaign_ms_p90", "ms", "lower"),
    m("first_point_ms_p90", "ms", "lower"),
];

const COLD_CAMPAIGN: &str = "campaign_ms_* on cold_sweep";
const WARM_RATE: &str = "points_per_s on warm_serve";

/// Per-layer metrics, reported by every traced run.
pub const PER_LAYER: [Metric; 33] = [
    l(
        "grid.expand_us_per_point",
        "us",
        "lower",
        "campaign_ms_* on cold_sweep (small)",
    ),
    l(
        "identity.fingerprint_us",
        "us",
        "lower",
        "points_per_s on warm_serve (most), cold_sweep (paid twice per cold point)",
    ),
    l("store.get_hit_us", "us", "lower", WARM_RATE),
    l("store.get_miss_us", "us", "lower", COLD_CAMPAIGN),
    l("store.put_us", "us", "lower", COLD_CAMPAIGN),
    l("store.persist_us_per_point", "us", "lower", COLD_CAMPAIGN),
    l("store.open_ms", "ms", "lower", "setup_s on warm_serve"),
    l("store.bytes_per_point", "count", "lower", COLD_CAMPAIGN),
    l(
        "physics.simulate_point_us",
        "us",
        "lower",
        "points_per_s on cold_sweep; 0 on warm_serve",
    ),
    l(
        "physics.profile_us",
        "us",
        "lower",
        "points_per_s on cold_sweep",
    ),
    l(
        "physics.emulate_us",
        "us",
        "lower",
        "points_per_s on cold_sweep",
    ),
    l(
        "physics.baseline_us",
        "us",
        "lower",
        "points_per_s on cold_sweep",
    ),
    l(
        "engine.sweep_us_per_point",
        "us",
        "lower",
        "points_per_s on cold_sweep and warm_serve",
    ),
    l(
        "engine.unattributed_us_per_point",
        "us",
        "lower",
        "points_per_s on cold_sweep and warm_serve",
    ),
    l(
        "engine.worker_scaling",
        "ratio",
        "higher",
        "points_per_s on cold_sweep and warm_serve",
    ),
    l(
        "engine.cache_hit_ratio",
        "ratio",
        "higher",
        "points_per_s on warm_serve",
    ),
    l("report.assemble_us_per_point", "us", "lower", COLD_CAMPAIGN),
    l("live.record_us", "us", "lower", WARM_RATE),
    l("trace.observe_us_per_point", "us", "lower", COLD_CAMPAIGN),
    l("trace.render_us_per_point", "us", "lower", COLD_CAMPAIGN),
    l("trace.verify_us_per_point", "us", "lower", COLD_CAMPAIGN),
    l("trace.bytes_per_point", "count", "lower", COLD_CAMPAIGN),
    l(
        "server.ack_ms_p50",
        "ms",
        "lower",
        "points_per_s and first_point_ms_* on warm_serve",
    ),
    l(
        "server.overhead_us_per_point",
        "us",
        "lower",
        "points_per_s and first_point_ms_* on warm_serve",
    ),
    l(
        "server.stream_bytes_per_point",
        "count",
        "lower",
        "points_per_s and first_point_ms_* on warm_serve",
    ),
    l(
        "cluster.batch_encode_us_per_point",
        "us",
        "lower",
        "points_per_s on cluster_fanout",
    ),
    l(
        "cluster.batch_parse_us_per_point",
        "us",
        "lower",
        "points_per_s on cluster_fanout",
    ),
    l(
        "cluster.collector_us_per_point",
        "us",
        "lower",
        "points_per_s on cluster_fanout",
    ),
    l(
        "cluster.overhead_us_per_point",
        "us",
        "lower",
        "points_per_s on cluster_fanout",
    ),
    l(
        "cluster.leases_per_campaign",
        "count",
        "lower",
        "points_per_s on cluster_fanout",
    ),
    l(
        "cluster.reassigned_per_campaign",
        "count",
        "lower",
        "points_per_s on cluster_fanout",
    ),
    l(
        "tracing.overhead_us_per_point",
        "us",
        "lower",
        "none: traced minus untraced wall on the traced workload",
    ),
    l(
        "tracing.untraced_us_per_point",
        "us",
        "lower",
        "points_per_s on the traced workload (base of the overhead)",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;

    fn names(doc: &serde_json::Value, key: &str) -> Vec<String> {
        doc[key]
            .as_array()
            .unwrap_or_else(|| panic!("BENCHMARK.json has a {key} list"))
            .iter()
            .map(|e| e["name"].as_str().expect("entry has a name").to_string())
            .collect()
    }

    #[test]
    fn names_match_benchmark_json() {
        let doc: serde_json::Value =
            serde_json::from_str(include_str!("../../BENCHMARK.json")).unwrap();
        assert_eq!(names(&doc, "workloads"), WORKLOADS);
        for (key, metrics) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            assert_eq!(
                names(&doc, key),
                metrics.iter().map(|m| m.name).collect::<Vec<_>>(),
                "{key} names"
            );
            for (entry, metric) in doc[key].as_array().unwrap().iter().zip(metrics) {
                assert_eq!(entry["unit"].as_str(), Some(metric.unit), "{}", metric.name);
                assert_eq!(
                    entry["better"].as_str(),
                    Some(metric.better),
                    "{}",
                    metric.name
                );
            }
        }
        assert!(PER_LAYER.iter().all(|m| !m.moves.is_empty()));
    }
}
