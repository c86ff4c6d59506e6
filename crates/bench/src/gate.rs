//! The bench-regression gate: compares freshly produced bench reports
//! against committed baselines and fails on mean-latency regressions.
//!
//! The reports are the flat machine-generated JSON the bench binaries emit
//! (`results/*.json`); values are extracted textually, in document order, so
//! a key that appears once per run/config (`mean_query_us`,
//! `planner_mean_us`) is compared position-by-position. Latency semantics:
//! bigger is worse, and a current value more than `max_regression` above its
//! baseline fails the gate. Throughput keys are deliberately not gated —
//! they are noisier on shared CI hosts, and every latency key here is the
//! inverse signal anyway.

/// Which keys of which report the gate watches.
pub struct GateSpec {
    /// Report file name, relative to both the baseline and current dirs.
    pub file: &'static str,
    /// Latency keys (µs or ms — unit-agnostic, ratios only), or counts of
    /// work per operation: bigger is worse either way.
    pub keys: &'static [&'static str],
}

/// The watched reports. Keys may appear multiple times per file (one per
/// run or config); occurrences are matched by position.
pub const GATED_REPORTS: &[GateSpec] = &[
    GateSpec {
        file: "query_bench.json",
        keys: &["mean_query_us"],
    },
    GateSpec {
        file: "plan_bench.json",
        keys: &["planner_mean_us"],
    },
    GateSpec {
        file: "oocore_bench.json",
        keys: &[
            "mean_query_us",
            "insert_us_per_record",
            "node_codec_ops_per_record",
            "file_bytes",
        ],
    },
    GateSpec {
        file: "saturation_bench.json",
        keys: &[
            "open_loop_p99_us",
            "open_loop_p999_us",
            "overload_admitted_p99_us",
        ],
    },
    GateSpec {
        file: "ingest_bench.json",
        keys: &[
            "record_at_a_time_us_per_record",
            "batched_us_per_record",
            "bulk_us_per_record",
            "engine_batched_us_per_record",
            "flush_after_one_insert_us",
            "publish_copied_payload_bytes_per_record",
        ],
    },
];

/// One comparison that exceeded the allowed regression.
#[derive(Debug, PartialEq)]
pub struct Regression {
    /// The JSON key.
    pub key: String,
    /// Which occurrence of the key (0-based, document order).
    pub index: usize,
    /// Baseline value.
    pub baseline: f64,
    /// Current value.
    pub current: f64,
}

impl Regression {
    /// `current / baseline`.
    pub fn ratio(&self) -> f64 {
        self.current / self.baseline
    }
}

/// Every numeric value of `"key":` in document order.
pub fn extract_all(json: &str, key: &str) -> Vec<f64> {
    let needle = format!("\"{key}\":");
    let mut out = Vec::new();
    let mut rest = json;
    while let Some(at) = rest.find(&needle) {
        rest = &rest[at + needle.len()..];
        let end = rest.find([',', '}', ']', '\n']).unwrap_or(rest.len());
        if let Ok(v) = rest[..end].trim().parse::<f64>() {
            out.push(v);
        }
    }
    out
}

/// Compares each watched key of one report pair. Returns the regressions;
/// `Err` when the reports are structurally incomparable (an occurrence-count
/// mismatch means the bench preset changed and the baseline must be
/// refreshed, not silently skipped).
pub fn compare_report(
    baseline: &str,
    current: &str,
    keys: &[&str],
    max_regression: f64,
) -> Result<Vec<Regression>, String> {
    let mut regressions = Vec::new();
    for key in keys {
        let base = extract_all(baseline, key);
        let cur = extract_all(current, key);
        if base.is_empty() {
            return Err(format!("baseline has no \"{key}\" values"));
        }
        if base.len() != cur.len() {
            return Err(format!(
                "\"{key}\": baseline has {} values, current has {} — \
                 bench shape changed, refresh the baseline",
                base.len(),
                cur.len()
            ));
        }
        for (index, (&b, &c)) in base.iter().zip(&cur).enumerate() {
            if b > 0.0 && c > b * (1.0 + max_regression) {
                regressions.push(Regression {
                    key: key.to_string(),
                    index,
                    baseline: b,
                    current: c,
                });
            }
        }
    }
    Ok(regressions)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: &str = r#"{"runs": [
        {"shards": 1, "avg_query_us": 900.0, "queries_per_sec": 1100.0},
        {"shards": 4, "avg_query_us": 400.0, "queries_per_sec": 2500.0}
    ]}"#;

    #[test]
    fn extracts_every_occurrence_in_order() {
        assert_eq!(extract_all(BASE, "avg_query_us"), vec![900.0, 400.0]);
        assert_eq!(extract_all(BASE, "missing"), Vec::<f64>::new());
    }

    #[test]
    fn value_closing_an_array_is_extracted() {
        // A gated key whose value is the last element of a JSON array used
        // to parse as nothing (']' was missing from the terminator set),
        // which turned a real regression into a shape-change error at best
        // and a silent pass at worst.
        let json = r#"{"per_run_us": [12.5, "x": 5.0], "tail_ms": 7.25]}"#;
        assert_eq!(extract_all(json, "x"), vec![5.0]);
        assert_eq!(extract_all(json, "tail_ms"), vec![7.25]);
    }

    #[test]
    fn within_budget_passes() {
        let current = BASE.replace("400.0", "480.0"); // +20% < 25%
        let r = compare_report(BASE, &current, &["avg_query_us"], 0.25).unwrap();
        assert!(r.is_empty());
    }

    #[test]
    fn over_budget_fails_with_position() {
        let current = BASE.replace("400.0", "600.0"); // +50%
        let r = compare_report(BASE, &current, &["avg_query_us"], 0.25).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].index, 1);
        assert_eq!(r[0].baseline, 400.0);
        assert_eq!(r[0].current, 600.0);
        assert!((r[0].ratio() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn improvements_never_fail() {
        let current = BASE.replace("900.0", "10.0");
        let r = compare_report(BASE, &current, &["avg_query_us"], 0.25).unwrap();
        assert!(r.is_empty());
    }

    #[test]
    fn shape_change_is_an_error_not_a_pass() {
        let current = r#"{"runs": [{"avg_query_us": 900.0}]}"#;
        assert!(compare_report(BASE, current, &["avg_query_us"], 0.25).is_err());
        assert!(compare_report(BASE, current, &["missing"], 0.25).is_err());
    }

    /// Every gated report has a committed baseline, and every committed
    /// baseline is gated: a bin deleted without its row (or its row
    /// without its bin) leaves one of the two orphaned.
    #[test]
    fn gate_rows_and_committed_baselines_match() {
        let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let mut committed: Vec<String> = std::fs::read_dir(&results)
            .expect("the repo's results/ directory")
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|name| name.ends_with(".json"))
            .collect();
        committed.sort();
        let mut gated: Vec<String> = GATED_REPORTS.iter().map(|g| g.file.to_string()).collect();
        gated.sort();
        assert_eq!(gated, committed, "GATED_REPORTS vs results/*.json");
    }

    /// Every gated key is in its committed baseline, or the gate errs on
    /// the next run instead of comparing.
    #[test]
    fn every_gated_key_is_in_its_baseline() {
        let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        for spec in GATED_REPORTS {
            let baseline = std::fs::read_to_string(results.join(spec.file)).unwrap();
            for key in spec.keys {
                assert!(
                    !extract_all(&baseline, key).is_empty(),
                    "{}: no \"{key}\"",
                    spec.file
                );
            }
        }
    }

    #[test]
    fn threshold_is_configurable() {
        let current = BASE.replace("400.0", "480.0"); // +20%
        let strict = compare_report(BASE, &current, &["avg_query_us"], 0.10).unwrap();
        assert_eq!(strict.len(), 1);
    }
}
