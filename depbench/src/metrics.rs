//! Metric names and units, the summary statistics they are reported as,
//! and the result line.

/// End-to-end metrics, reported with tracing off.
pub const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, reported by the traced run.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("profile.busy_s", "s"),
    ("profile.cells", "count"),
    ("profile.syscalls", "count"),
    ("profile.ns_per_syscall", "ns"),
    ("workloads.install_s", "s"),
    ("loader.load_s", "s"),
    ("core.wrap_s", "s"),
    ("classify.busy_s", "s"),
    ("classify.streams", "count"),
    ("classify.server_segments", "count"),
    ("plan.busy_s", "s"),
    ("plan.rows", "count"),
    ("plan.rows_coalesced", "count"),
    ("plan.rows_analytic", "count"),
    ("plan.rows_stochastic", "count"),
    ("plan.rows_heap", "count"),
    ("execute.busy_s", "s"),
    ("execute.server_ops", "count"),
    ("execute.ns_per_server_op", "ns"),
    ("queueing.busy_s", "s"),
    ("queueing.checks", "count"),
    ("queueing.violations", "count"),
    ("adaptive.busy_s", "s"),
    ("adaptive.replicate_sims", "count"),
    ("adaptive.savings_ratio", "ratio"),
    ("requests.parse_s", "s"),
    ("requests.format_s", "s"),
    ("key.busy_s", "s"),
    ("key.count", "count"),
    ("store.open_s", "s"),
    ("store.busy_s", "s"),
    ("store.records_loaded", "count"),
    ("store.bytes_appended", "bytes"),
    ("store.hit_rate", "ratio"),
    ("exec.busy_s", "s"),
    ("exec.cold_cells", "count"),
    ("exec.warm_hits", "count"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.spans", "count"),
    ("fail_frac", "ratio"),
];

/// The median; 0 for no samples.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The tail latency: the 99th percentile when at least ten samples lie
/// beyond it, else the highest percentile that has ten beyond it, else
/// (fewer than 11 samples) the maximum. Returns the value and the
/// percentile it is.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return (0.0, 100.0);
    }
    // Nearest rank: the p-th percentile is v[ceil(p n) - 1].
    let p99 = (n * 99).div_ceil(100);
    let rank = if n - p99 >= 10 {
        p99
    } else if n > 10 {
        n - 10
    } else {
        n
    };
    (v[rank - 1], 100.0 * rank as f64 / n as f64)
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric {name} is not declared"))
}

/// The outcome of one benchmark run.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{}\"}}", unit_of(name))
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    #[test]
    fn metric_names_are_valid_unique_and_within_limits() {
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(*name), "{name} declared twice");
            assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
        }
    }

    /// The declared metrics are the ones `BENCHMARK.json` names, in order.
    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        // The string value that follows `"key": ` in `s`.
        let value = |s: &str, key: &str| -> String {
            let s = &s[s.find(&format!("\"{key}\": \"")).expect(key) + key.len() + 5..];
            s[..s.find('"').expect("closing quote")].to_string()
        };
        let section = |key: &str| -> Vec<(String, String)> {
            let s = &json[json.find(&format!("\"{key}\"")).expect(key)..];
            s[..s.find(']').expect("list end")]
                .split('{')
                .skip(1)
                .map(|item| (value(item, "name"), value(item, "unit")))
                .collect()
        };
        let own = |xs: &[(&str, &str)]| -> Vec<(String, String)> {
            xs.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(section("end_to_end"), own(&END_TO_END));
        assert_eq!(section("per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&xs), (1980.0, 99.0));
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs), (90.0, 90.0));
        assert_eq!(tail(&[3.0, 1.0, 2.0]), (3.0, 100.0));
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn the_result_line_carries_units() {
        let o = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![("wall_s", 1.5), ("fail_frac", f64::NAN)],
            notes: Vec::new(),
        };
        assert_eq!(
            o.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}, \
             \"fail_frac\": {\"value\": 0, \"unit\": \"ratio\"}}}"
        );
    }
}
