//! The metric names the benchmark prints — the same lists, in the same
//! order, as `BENCHMARK.json` (a test holds the two together) — and the
//! output formats: one `name value unit` line per metric for people, and
//! the one-line JSON object the driver reads last.

use crate::run::{Metrics, Outcome};

/// `(name, unit)` of the bounded end-to-end metrics: the two every
/// workload defines and that repeat within their bound. Measured with
/// tracing off.
pub const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("rss_mb", "MiB")];

/// End-to-end by nature — what a client of the server sees — but without a
/// bound, so `BENCHMARK.json` carries them at the head of its `per_layer`
/// list: each is defined on some workloads only, and none repeats within a
/// tenth on the host this was sized on (see README).
pub const UNBOUNDED: &[(&str, &str)] = &[
    ("query_qps", "1/s"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
    ("wide_qps", "1/s"),
    ("wide_p50_us", "us"),
    ("open_p50_us", "us"),
    ("open_p99_us", "us"),
    ("insert_ack_p50_us", "us"),
    ("visible_lag_p50_us", "us"),
    ("ingest_rps", "1/s"),
    ("recovery_s", "s"),
    ("disk_bytes_per_record", "B"),
    ("error_rate", "ratio"),
];

/// `(name, unit)` of every per-layer metric.
pub const LAYERS: &[(&str, &str)] = &[
    ("reactor.ping_rtt_p50_us", "us"),
    ("reactor.overhead_us", "us"),
    ("reactor.bytes_per_request", "B"),
    ("admission.shed", "count"),
    ("codec.decode_us", "us"),
    ("codec.encode_us", "us"),
    ("codec.request_bytes", "B"),
    ("codec.decode_us.wide", "us"),
    ("codec.encode_us.wide", "us"),
    ("codec.request_bytes.wide", "B"),
    ("ql.parse_us", "us"),
    ("ql.resolve_us", "us"),
    ("ql.in_list_len", "count"),
    ("ql.parse_us.wide", "us"),
    ("ql.resolve_us.wide", "us"),
    ("ql.in_list_len.wide", "count"),
    ("protocol.execute_us", "us"),
    ("protocol.render_us", "us"),
    ("protocol.execute_us.wide", "us"),
    ("protocol.render_us.wide", "us"),
    ("plan.chose_descend", "count"),
    ("plan.chose_bitmap", "count"),
    ("plan.chose_mview", "count"),
    ("plan.chose_scan", "count"),
    ("plan.misprediction_rate", "ratio"),
    ("plan.est_over_actual_pages_p50", "ratio"),
    ("cache.hit_rate", "ratio"),
    ("cache.semantic_hit_rate", "ratio"),
    ("cache.patches_per_insert", "count"),
    ("cache.invalidations", "count"),
    ("cache.lookup_us", "us"),
    ("engine.execute_us", "us"),
    ("engine.execute_us.wide", "us"),
    ("engine.execute_us.scalar", "us"),
    ("engine.execute_us.multi", "us"),
    ("engine.execute_us.group_by", "us"),
    ("engine.execute_us.top_k", "us"),
    ("engine.shards_per_query", "count"),
    ("engine.scatter_overhead_us", "us"),
    ("pool.tasks_per_query", "count"),
    ("pool.steals", "count"),
    ("pool.task_us", "us"),
    ("engine.insert_batch_us_per_record", "us"),
    ("engine.ingest_us_per_record", "us"),
    ("engine.flush_us", "us"),
    ("hierarchy.intern_us_per_record", "us"),
    ("tree.prepare_us", "us"),
    ("tree.descend_us", "us"),
    ("tree.group_by_us", "us"),
    ("tree.pages_per_query", "count"),
    ("tree.insert_batch_us_per_record", "us"),
    ("tree.nodes", "count"),
    ("tree.height", "count"),
    ("oocore.pool_hit_rate", "ratio"),
    ("oocore.page_touches_per_query", "count"),
    ("oocore.evictions", "count"),
    ("oocore.writebacks", "count"),
    ("oocore.execute_us", "us"),
    ("oocore.file_bytes_per_record", "B"),
    ("oocore.shard_pages", "count"),
    ("oocore.pool_frames", "count"),
    ("durable.append_us_per_record", "us"),
    ("durable.wal_bytes_per_record", "B"),
    ("durable.syncs_per_krecord", "count"),
    ("durable.rotations", "count"),
    ("durable.checkpoint_ms", "ms"),
    ("durable.replayed_entries", "count"),
    ("durable.replay_entries_per_s", "1/s"),
    ("replica.catchup_entries_per_s", "1/s"),
    ("replica.promote_ms", "ms"),
    ("proc.cpu_s_per_kop", "s"),
    ("gen.lateness_p99_us", "us"),
    ("gen.wide_selectivity", "ratio"),
    ("gen.wide_selectivity_target", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.unaccounted_pct", "%"),
];

/// The `per_layer` list of `BENCHMARK.json`, printed by the traced run: a
/// metric a workload does not define reports 0.
pub fn per_layer() -> impl Iterator<Item = &'static (&'static str, &'static str)> {
    UNBOUNDED.iter().chain(LAYERS)
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(per_layer())
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

/// `metric <name> <value> <unit>` for everything the run measured — a
/// superset of what the JSON line carries.
pub fn human_lines(outcome: &Outcome) -> Vec<String> {
    outcome
        .metrics
        .iter()
        .map(|(name, value)| format!("metric {name} {value} {}", unit_of(name)))
        .collect()
}

/// The metrics the final JSON line must carry: every end-to-end metric
/// with tracing off (each must have been measured), every per-layer metric
/// with tracing on (0 for a layer the workload does not exercise).
pub fn selected(
    metrics: &Metrics,
    trace: bool,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let list: Vec<_> = if trace {
        per_layer().collect()
    } else {
        END_TO_END.iter().collect()
    };
    list.into_iter()
        .map(|&(name, unit)| match metrics.get(name) {
            Some(v) if v.is_finite() => Ok((name, *v, unit)),
            Some(v) => Err(format!("metric {name} is {v}")),
            None if trace => Ok((name, 0.0, unit)),
            None => Err(format!("end-to-end metric {name} was not measured")),
        })
        .collect()
}

/// The driver's line: exactly the keys `correct`, `attempted`, `failed`,
/// `metrics`.
pub fn json_line(outcome: &Outcome, trace: bool) -> Result<String, String> {
    let metrics: Vec<String> = selected(&outcome.metrics, trace)?
        .into_iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `"name": "…"` / `"unit": "…"` pair of one list of
    /// `BENCHMARK.json`, in order.
    fn listed(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("list present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("list closes")];
        let field = |entry: &str, field: &str| {
            let at = entry.find(&format!("\"{field}\"")).expect("field present");
            let rest = &entry[at + field.len() + 2..];
            let open = rest.find('"').expect("string opens") + 1;
            let close = open + rest[open..].find('"').expect("string closes");
            rest[open..close].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|entry| (field(entry, "name"), field(entry, "unit")))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics_and_workloads() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repo root");
        fn own<'a>(list: impl Iterator<Item = &'a (&'a str, &'a str)>) -> Vec<(String, String)> {
            list.map(|(n, u)| (n.to_string(), u.to_string())).collect()
        }
        assert_eq!(listed(&json, "end_to_end"), own(END_TO_END.iter()));
        assert_eq!(listed(&json, "per_layer"), own(per_layer()));
        for workload in crate::spec::WORKLOADS {
            assert!(
                json.contains(&format!("\"name\": \"{workload}\"")),
                "{workload}"
            );
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(per_layer()) {
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16 && !unit.is_empty());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.len() <= 16 && per_layer().count() <= 128);
        assert!(END_TO_END.contains(&("setup_s", "s")));
    }

    #[test]
    fn the_json_line_has_exactly_the_contract_keys() {
        let mut metrics = Metrics::new();
        for (name, _) in END_TO_END {
            metrics.insert(name.to_string(), 1.5);
        }
        let outcome = Outcome {
            metrics,
            attempted: 7,
            failed: 0,
            notes: Vec::new(),
        };
        let line = json_line(&outcome, false).unwrap();
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 7, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        // A traced line reports 0 for layers that did not run, but an
        // end-to-end metric that was not measured is an error.
        assert!(json_line(&outcome, true)
            .unwrap()
            .contains("\"tree.nodes\": {\"value\": 0, "));
        let mut missing = outcome;
        missing.metrics.remove("setup_s");
        assert!(json_line(&missing, false).is_err());
    }
}
