//! Every metric the benchmark can print, by name, with its unit and the
//! direction that is better.  `BENCHMARK.json` at the repository root lists
//! exactly these (a unit test compares the two).

/// One metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// True if larger values are better.
    pub higher_is_better: bool,
}

const fn up(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: true,
    }
}

const fn down(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: false,
    }
}

/// The end-to-end metrics, printed by every workload's untraced run.
pub const END_TO_END: [MetricDef; 6] = [
    down("setup_s", "s"),
    up("runs_per_s", "1/s"),
    down("run_ms_p50", "ms"),
    down("run_ms_p75", "ms"),
    up("ranks_per_s", "1/s"),
    down("peak_rss_mb", "MB"),
];

/// The per-layer metrics, printed by every workload's traced run.  The
/// prefix up to the first dot is the layer (crate).
pub const PER_LAYER: &[MetricDef] = &[
    up("simcluster.engine.timer_events_per_s", "1/s"),
    up("simcluster.engine.ready_events_per_s", "1/s"),
    up("simmpi.p2p_msgs_per_s", "1/s"),
    up("simmpi.mailbox_depth_msgs_per_s", "1/s"),
    down("simmpi.p2p_bytes_copied", "count"),
    down("simmpi.allreduce_us_64", "us"),
    down("simmpi.barrier_us_64", "us"),
    down("simmpi.spawn_us_per_rank", "us"),
    up("simmpi.engine.ring_msgs_per_s", "1/s"),
    up("simmpi.engine.dispatches_per_s", "1/s"),
    down("simmpi.engine.bytes_per_rank", "count"),
    up("simmpi.engine.worker_speedup", "x"),
    up("replication.fanout_x2_msgs_per_s", "1/s"),
    up("replication.fanout_x4_msgs_per_s", "1/s"),
    down("replication.fanout_bytes_copied", "count"),
    up("replication.sampler.const_traces_per_s", "1/s"),
    up("replication.sampler.weibull_traces_per_s", "1/s"),
    up("replication.sampler.lognormal_traces_per_s", "1/s"),
    up("replication.sampler.accept_ratio", "ratio"),
    up("replication.correlated.plans_per_s", "1/s"),
    up("ckpt.session.events_per_s", "1/s"),
    up("ckpt.rollbacks_per_s", "1/s"),
    down("ckpt.system_mtbf_us", "us"),
    down("ipr-core.section_us", "us"),
    up("ipr-core.tasks_per_s", "1/s"),
    down("ipr-core.sched.static-block_assign_us", "us"),
    down("ipr-core.sched.round-robin_assign_us", "us"),
    down("ipr-core.sched.cost-aware_assign_us", "us"),
    down("ipr-core.sched.adaptive_assign_us", "us"),
    down("ipr-core.sched.locality_assign_us", "us"),
    down("ipr-core.update_bytes_sent", "count"),
    down("ipr-core.tasks_reexecuted", "count"),
    up("kernels.stencil27_mcells_per_s", "1/s"),
    up("kernels.stencil27_pool_mcells_per_s", "1/s"),
    up("kernels.spmv_mnnz_per_s", "1/s"),
    up("kernels.waxpby_melems_per_s", "1/s"),
    up("kernels.ddot_melems_per_s", "1/s"),
    up("kernels.ddot_lanes_melems_per_s", "1/s"),
    up("kernels.pic_push_mparticles_per_s", "1/s"),
    up("kernels.pic_charge_mparticles_per_s", "1/s"),
    up("kernels.stencil27_flops_per_byte", "ratio"),
    up("kernels.spmv_flops_per_byte", "ratio"),
    up("kernels.waxpby_flops_per_byte", "ratio"),
    up("kernels.ddot_flops_per_byte", "ratio"),
    up("kernels.pic_push_flops_per_byte", "ratio"),
    up("kernels.pic_charge_flops_per_byte", "ratio"),
    down("kernels.share_of_run", "ratio"),
    down("apps.hpccg_ms", "ms"),
    down("apps.amg-pcg27_ms", "ms"),
    down("apps.amg-gmres7_ms", "ms"),
    down("apps.gtc_ms", "ms"),
    down("apps.minighost_ms", "ms"),
    up("apps.weak.native_ranks_per_s", "1/s"),
    up("apps.weak.replicated2_ranks_per_s", "1/s"),
    up("apps.weak.intra2_ranks_per_s", "1/s"),
    up("apps.weak.auto_ranks_per_s", "1/s"),
    down("apps.weak.ckpt_charges_ms", "ms"),
    down("facade.build_us", "us"),
    down("facade.fingerprint_us", "us"),
    down("facade.run_overhead_ms", "ms"),
    up("campaign.expand_specs_per_s", "1/s"),
    up("campaign.spec.roundtrip_per_s", "1/s"),
    up("campaign.json.parse_mb_per_s", "MB/s"),
    up("campaign.json.render_mb_per_s", "MB/s"),
    down("campaign.report.render_ms", "ms"),
    up("campaign.diff.docs_per_s", "1/s"),
    up("campaign.cache.put_per_s", "1/s"),
    up("campaign.cache.get_hit_per_s", "1/s"),
    up("campaign.cache.get_miss_per_s", "1/s"),
    up("campaign.cache.fingerprint_per_s", "1/s"),
    down("campaign.cache.bytes_per_entry", "count"),
    up("campaign.queue.noop_tasks_per_s", "1/s"),
    up("campaign.runner.runs_per_s_j1", "1/s"),
    up("campaign.runner.runs_per_s_jn", "1/s"),
    up("campaign.serve.submit_jobs_per_s", "1/s"),
    down("campaign.serve.job_ms_p50", "ms"),
    down("campaign.serve.job_ms_p80", "ms"),
    down("campaign.serve.overhead_share", "ratio"),
    up("campaign.serve.cold_specs_per_s", "1/s"),
    up("campaign.serve.delta_specs_per_s", "1/s"),
    up("campaign.serve.warm_specs_per_s", "1/s"),
    down("alloc.allocs_per_run", "count"),
    down("alloc.bytes_per_run", "count"),
    down("alloc.allocs_per_rank", "count"),
    down("trace.overhead_pct", "%"),
    down("trace.harness_self_share", "ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use campaign::Json;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
    }

    fn listed(doc: &Json, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no '{key}' list"))
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn expected(defs: &[MetricDef]) -> Vec<(String, String, String)> {
        defs.iter()
            .map(|m| {
                let better = if m.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                (m.name.to_string(), m.unit.to_string(), better.to_string())
            })
            .collect()
    }

    #[test]
    fn every_name_is_well_formed_and_used_once() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|m| m.name)
            .chain(crate::workloads::NAMES)
            .collect();
        assert!(names.iter().all(|n| well_formed(n)), "{names:?}");
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        assert_eq!(listed(&doc, "end_to_end"), expected(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), expected(PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string()
            })
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
        // Every end-to-end metric carries a bound of at most a quarter.
        for m in doc.get("end_to_end").and_then(Json::as_arr).unwrap() {
            let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
            assert!(bound > 0.0 && bound <= 0.25, "{m:?}");
        }
    }
}
