//! Names, units and directions of every metric the benchmark prints;
//! `BENCHMARK.json` lists the same names.

/// `(name, unit, better)` of each end-to-end metric.
pub const END_TO_END: [(&str, &str, &str); 11] = [
    ("setup_s", "s", "lower"),
    ("seq_s", "s", "lower"),
    ("lock_s", "s", "lower"),
    ("pipe_s", "s", "lower"),
    ("omp_s", "s", "lower"),
    ("fabric2_s", "s", "lower"),
    ("guarded_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("job_p50_ms", "ms", "lower"),
    ("job_p95_ms", "ms", "lower"),
    ("jobs_per_s", "1/s", "higher"),
];

/// `(name, unit, better)` of each per-layer metric of the traced run.
pub const PER_LAYER: [(&str, &str, &str); 60] = [
    ("io.load_s", "s", "lower"),
    ("partition.hybrid_s", "s", "lower"),
    ("partition.cut_edge_share", "share", "lower"),
    ("device.run_parallel_us", "us", "lower"),
    ("engine.new_s", "s", "lower"),
    ("engine.lock.generate_s", "s", "lower"),
    ("engine.lock.process_s", "s", "lower"),
    ("engine.lock.update_s", "s", "lower"),
    ("engine.lock.step_self_s", "s", "lower"),
    ("engine.pipe.generate_s", "s", "lower"),
    ("engine.pipe.process_s", "s", "lower"),
    ("engine.pipe.update_s", "s", "lower"),
    ("engine.pipe.step_self_s", "s", "lower"),
    ("engine.sparse_step_ms", "ms", "lower"),
    ("engine.sparse_step_active_share", "share", "lower"),
    ("engine.supersteps", "count", "lower"),
    ("csb.msgs", "count", "lower"),
    ("csb.max_column", "count", "lower"),
    ("csb.column_allocs", "count", "lower"),
    ("simd.lane_fill", "share", "higher"),
    ("queues.mean_batch", "msgs", "higher"),
    ("queues.full_spins_per_kmsg", "1/kmsg", "lower"),
    ("queues.idle_polls_per_kmsg", "1/kmsg", "lower"),
    ("comm.batch_msgs", "count", "lower"),
    ("comm.combine_s", "s", "lower"),
    ("comm.encode_s", "s", "lower"),
    ("comm.exchange_s", "s", "lower"),
    ("comm.frame_s", "s", "lower"),
    ("comm.remote_msgs", "count", "lower"),
    ("comm.combined_msgs", "count", "lower"),
    ("comm.bytes_per_step", "B", "lower"),
    ("recover.snapshot_s", "s", "lower"),
    ("recover.store_s", "s", "lower"),
    ("recover.fnv_gbps", "GB/s", "higher"),
    ("recover.barrier_image_s", "s", "lower"),
    ("recover.checkpoints", "count", "lower"),
    ("recover.checkpoint_bytes", "B", "lower"),
    ("integrity.detections", "count", "lower"),
    ("failover.default_rebalances", "count", "lower"),
    ("obj.solve_s", "s", "lower"),
    ("obj.msgs", "count", "lower"),
    ("obj.supersteps", "count", "lower"),
    ("serve.admit_us.p50", "us", "lower"),
    ("serve.admit_us.p99", "us", "lower"),
    ("serve.wait_ms.p50", "ms", "lower"),
    ("serve.wait_ms.p95", "ms", "lower"),
    ("serve.exec_ms.bfs.p50", "ms", "lower"),
    ("serve.exec_ms.sssp.p50", "ms", "lower"),
    ("serve.exec_ms.ppr.p50", "ms", "lower"),
    ("serve.exec_ms.wcc.p50", "ms", "lower"),
    ("serve.exec_ms.pagerank.p50", "ms", "lower"),
    ("serve.reply_ms.p50", "ms", "lower"),
    ("serve.journal_us", "us", "lower"),
    ("serve.job_p99_ms", "ms", "lower"),
    ("serve.generator_late_ms", "ms", "lower"),
    ("serve.rejected", "count", "lower"),
    ("serve.expired", "count", "lower"),
    ("serve.shed_level_max", "count", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("check.sum_bit_mismatch", "count", "lower"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use phigraph_trace::json::Json;

    fn listed(doc: &Json, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).expect("field").to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("valid JSON");
        let own = |t: &[(&str, &str, &str)]| -> Vec<(String, String, String)> {
            t.iter()
                .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
                .collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), own(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), own(&PER_LAYER));
    }
}
