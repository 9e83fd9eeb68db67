//! The names the benchmark reports — the same ones `BENCHMARK.json` lists
//! (a test holds the two equal in both directions).

/// Workload names, in the order `--smoke` and `agree` run them.
pub const WORKLOADS: [&str; 4] = ["meteo_outer", "webkit_full", "wuon_windows", "served_mix"];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "out_per_s",
        unit: "rows/s",
        higher_is_better: true,
        bound: 0.20,
    },
    EndToEnd {
        name: "stmt_ms",
        unit: "ms",
        higher_is_better: false,
        bound: 0.20,
    },
    EndToEnd {
        name: "tail_ms",
        unit: "ms",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "first_row_ms",
        unit: "ms",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        higher_is_better: false,
        bound: 0.15,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
];

/// Per-layer metrics (name, unit), grouped by the crate whose public calls
/// they time. A workload that bypasses a layer reports 0 for its metrics.
pub const PER_LAYER: [(&str, &str); 49] = [
    // tpdb-temporal
    ("temporal.index_build_ms", "ms"),
    ("temporal.index_intervals", "count"),
    // tpdb-core, window algorithms
    ("core.wo_ms", "ms"),
    ("core.lawau_self_ms", "ms"),
    ("core.lawan_self_ms", "ms"),
    ("core.wo_windows", "count"),
    ("core.wuo_windows", "count"),
    ("core.wuon_windows", "count"),
    // tpdb-core, output formation
    ("core.join_ms", "ms"),
    ("core.output_form_ms", "ms"),
    ("core.out_rows", "count"),
    ("core.p2_speedup", "ratio"),
    // tpdb-lineage
    ("lineage.intern_ms", "ms"),
    ("lineage.prob_ms", "ms"),
    ("lineage.to_tree_ms", "ms"),
    ("lineage.arena_nodes", "count"),
    ("lineage.nodes_per_root", "ratio"),
    ("lineage.shannon_expansions", "count"),
    ("lineage.shannon_ms", "ms"),
    // tpdb-ta
    ("ta.join_ms", "ms"),
    ("core.nj_vs_ta", "ratio"),
    // tpdb-query
    ("query.parse_ms", "ms"),
    ("query.plan_ms", "ms"),
    ("query.prepare_hit_ms", "ms"),
    ("query.prepare_miss_ms", "ms"),
    ("query.session_over_core", "ratio"),
    ("query.plan_cache_hits", "count"),
    ("query.plan_cache_misses", "count"),
    // tpdb-server
    ("server.ping_rtt_ms", "ms"),
    ("server.parse_request_ms", "ms"),
    ("server.encode_ms_per_krow", "ms"),
    ("server.overhead_ms", "ms"),
    ("server.cache_hits", "count"),
    ("server.cache_misses", "count"),
    ("server.busy_rejections", "count"),
    ("server.c2_qps_ratio", "ratio"),
    // tpdb-storage
    ("storage.csv_import_s", "s"),
    ("storage.snapshot_save_s", "s"),
    ("storage.snapshot_load_s", "s"),
    ("storage.snapshot_bytes", "count"),
    // the benchmark itself
    ("bench.ref_ms", "ms"),
    ("bench.cal_factor", "ratio"),
    ("bench.raw_out_per_s", "rows/s"),
    ("bench.raw_stmt_ms", "ms"),
    ("bench.samples", "count"),
    ("bench.tail_samples_beyond", "count"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.trace_spans", "count"),
    ("bench.ladder_ref_ms", "ms"),
];

#[cfg(test)]
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}
