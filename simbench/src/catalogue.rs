//! Every metric the benchmark reports, with its unit. `BENCHMARK.json`
//! at the repository root lists the same names and units; the smoke
//! test checks that the two agree and that every run prints them all.

/// End-to-end metrics, reported by timed runs (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("events_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_goodput", "ratio"),
    ("sim_slo", "ratio"),
];

/// Per-layer metrics, reported by traced runs (`--trace 1`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("continuum.events", "count"),
    ("continuum.ns_per_event", "ns"),
    ("continuum.core_self_s", "s"),
    ("continuum.bytes_per_task", "B"),
    ("continuum.tasks_dispatched", "count"),
    ("continuum.tasks_completed", "count"),
    ("continuum.useful_ratio", "ratio"),
    ("continuum.retries", "count"),
    ("continuum.timeouts", "count"),
    ("continuum.shed", "count"),
    ("mirto.mape_rounds", "count"),
    ("mirto.place_calls", "count"),
    ("mirto.place_s", "s"),
    ("mirto.monitor_collect_us", "us"),
    ("mirto.monitor_collect_s_est", "s"),
    ("mirto.route_cache_invalidations", "count"),
    ("mirto.placement_rejected", "count"),
    ("mirto.scale_ups", "count"),
    ("mirto.bursts", "count"),
    ("mirto.tasks_migrated", "count"),
    ("mirto.residual_s", "s"),
    ("vm.steps", "count"),
    ("vm.ns_per_step", "ns"),
    ("vm.exec_s_est", "s"),
    ("vm.price_calls_est", "count"),
    ("vm.price_s_est", "s"),
    ("vm.checkpoint_round_trip_us", "us"),
    ("vm.migrations_live", "count"),
    ("vm.checkpoint_bytes", "B"),
    ("obs.scrapes", "count"),
    ("obs.scrape_us", "us"),
    ("obs.scrape_s_est", "s"),
    ("obs.export_s", "s"),
    ("obs.export_bytes", "B"),
    ("obs.trace_events", "count"),
    ("obs.trace_dropped", "count"),
    ("kb.ingest_us", "us"),
    ("kb.ingest_s_est", "s"),
    ("workload.gen_s", "s"),
    ("workload.driver_s", "s"),
    ("trace_overhead_frac", "ratio"),
];
