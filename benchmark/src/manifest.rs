//! Names and units of every metric the harness emits. `BENCHMARK.json`
//! declares the same lists (a unit test keeps the two in step); the unit
//! of an emitted value always comes from here.

/// Metrics a user of the service sees, reported by `--trace 0`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
    ("oracle_runs_per_campaign", "count"),
    ("tuned_gap_pct", "%"),
];

/// Metrics of single layers, reported by `--trace 1`: probes (direct
/// calls, the same in every workload), counters of the workload's own
/// server, and the traced window's time budget.
pub const PER_LAYER: [(&str, &str); 80] = [
    ("ml.gbt_fit_50x6_us", "us"),
    ("ml.gbt_fit_1000x20_ms", "ms"),
    ("ml.encode_pool_2000_us", "us"),
    ("ml.pool_score_2000_us", "us"),
    ("ml.predict_32_us", "us"),
    ("sim.coupled_run_lv_us", "us"),
    ("sim.coupled_run_hs_us", "us"),
    ("sim.coupled_run_gp_us", "us"),
    ("sim.solo_run_us", "us"),
    ("sim.pool_precompute_2000_ms", "ms"),
    ("core.sample_pool_2000_ms", "ms"),
    ("core.acm_fit_us", "us"),
    ("core.acm_score_2000_us", "us"),
    ("core.ceal_run_b50_ms", "ms"),
    ("core.oracle_calls_per_campaign", "count"),
    ("core.oracle_runs_per_op", "count"),
    ("core.journal_append_us", "us"),
    ("core.journal_append_nosync_us", "us"),
    ("core.journal_open_1000_ms", "ms"),
    ("wire.encode_small_ns", "ns"),
    ("wire.decode_small_ns", "ns"),
    ("wire.encode_predict32_us", "us"),
    ("wire.decode_predict32_us", "us"),
    ("wire.roundtrip_large_us", "us"),
    ("wire.bytes_small", "bytes"),
    ("wire.bytes_predict32", "bytes"),
    ("wire.bytes_large", "bytes"),
    ("reactor.connect_us", "us"),
    ("reactor.ping_rtt_p50_us", "us"),
    ("reactor.ping_cpu_us", "us"),
    ("reactor.server_p50_us_status", "us"),
    ("reactor.server_p50_us_predict", "us"),
    ("reactor.server_p50_us_advance", "us"),
    ("reactor.server_p50_us_tune", "us"),
    ("reactor.requests_shed", "count"),
    ("reactor.connections_rejected", "count"),
    ("session.create_us", "us"),
    ("session.advance_direct_ms", "ms"),
    ("session.advance_step_p50_ms", "ms"),
    ("session.steps_per_op", "count"),
    ("session.rebuild_100_ms", "ms"),
    ("cache.front_hit_ns", "ns"),
    ("cache.disk_hit_us", "us"),
    ("cache.put_us_50", "us"),
    ("cache.put_us_100", "us"),
    ("cache.nearest_transfer_us", "us"),
    ("cache.front_hit_share", "ratio"),
    ("cache.persist_failures", "count"),
    ("fleet.scatter_gather_us", "us"),
    ("fleet.round_p50_ms", "ms"),
    ("fleet.measurements_per_s", "1/s"),
    ("fleet.tasks_per_round", "count"),
    ("fleet.local_fallback_share", "ratio"),
    ("fleet.worker_balance", "ratio"),
    ("fleet.tasks_rescattered", "count"),
    ("fleet.duplicate_results", "count"),
    ("trace.span_disabled_ns", "ns"),
    ("trace.span_memory_ns", "ns"),
    ("trace.hist_record_ns", "ns"),
    ("trace.overhead_pct", "%"),
    ("trace.dropped_events", "count"),
    ("trace.events_per_op", "count"),
    ("par.parallel_map_2000_us", "us"),
    ("par.threads", "count"),
    ("client.ops_per_s", "1/s"),
    ("client.op_count", "count"),
    ("client.op_p50_ms", "ms"),
    ("client.op_tail_ms", "ms"),
    ("client.op_tail_q", "ratio"),
    ("budget.transport_share", "ratio"),
    ("budget.request_share", "ratio"),
    ("budget.campaign_share", "ratio"),
    ("budget.phase_history_share", "ratio"),
    ("budget.phase_bootstrap_share", "ratio"),
    ("budget.phase_refine_share", "ratio"),
    ("budget.oracle_share", "ratio"),
    ("budget.journal_share", "ratio"),
    ("budget.cache_share", "ratio"),
    ("budget.fleet_share", "ratio"),
    ("budget.unattributed_share", "ratio"),
];

/// Builds the `metrics` object of the result line: every name of `table`
/// exactly once, each with its declared unit.
pub fn metrics_object(
    table: &[(&str, &str)],
    values: &[(&'static str, f64)],
) -> Result<serde_json::Value, String> {
    let mut object = serde_json::Map::new();
    for (name, unit) in table {
        let mut found = values.iter().filter(|(n, _)| n == name);
        let (Some((_, value)), None) = (found.next(), found.next()) else {
            return Err(format!("metric '{name}' was not measured exactly once"));
        };
        if !value.is_finite() {
            return Err(format!("metric '{name}' is not a finite number: {value}"));
        }
        object.insert(
            name.to_string(),
            serde_json::json!({ "value": *value, "unit": *unit }),
        );
    }
    if let Some((stray, _)) = values
        .iter()
        .find(|(n, _)| !table.iter().any(|(t, _)| t == n))
    {
        return Err(format!("metric '{stray}' is not declared"));
    }
    Ok(serde_json::Value::Object(object))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_stay_in_the_allowed_character_set() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name_ok(name), "bad metric name {name}");
            assert!(unit_ok(unit), "bad unit {unit} of {name}");
            assert!(seen.insert(*name), "metric {name} declared twice");
        }
        for w in workloads::ALL {
            assert!(name_ok(w.name()));
            assert!(seen.insert(w.name()), "name {} used twice", w.name());
        }
    }

    /// `(name, unit)` pairs of one list of the committed `BENCHMARK.json`.
    fn declared(doc: &serde_json::Value, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(|v| v.as_array())
            .unwrap_or_else(|| panic!("BENCHMARK.json has no '{key}' list"))
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_what_the_harness_emits() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
                .expect("parse BENCHMARK.json");
        let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared(&doc, "end_to_end"), own(&END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = declared(&doc, "workloads")
            .into_iter()
            .map(|w| w.0)
            .collect();
        let own_workloads: Vec<&str> = workloads::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, own_workloads);
    }

    #[test]
    fn metrics_object_rejects_missing_stray_and_non_finite_values() {
        let table = [("a", "ms"), ("b", "count")];
        assert!(metrics_object(&table, &[("a", 1.0), ("b", 2.0)]).is_ok());
        assert!(metrics_object(&table, &[("a", 1.0)]).is_err());
        assert!(metrics_object(&table, &[("a", 1.0), ("a", 1.0), ("b", 2.0)]).is_err());
        assert!(metrics_object(&table, &[("a", 1.0), ("b", 2.0), ("c", 3.0)]).is_err());
        assert!(metrics_object(&table, &[("a", f64::NAN), ("b", 2.0)]).is_err());
    }
}
