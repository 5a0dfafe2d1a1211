//! Metric names and units, the percentile rule, the result line and the
//! machine fingerprint.

use crate::workload::WORKLOADS;

/// End-to-end metrics of the untraced run (`--trace 0`), as
/// `BENCHMARK.json` lists them. The three ratios the fleet can drive to
/// exactly zero (SLO misses, failures, undecided windows) are reported as
/// their complements so that every value stays positive; the human table
/// also prints the ratios themselves.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("windows_per_s", "windows/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("slo_met_ratio", "ratio"),
    ("ok_ratio", "ratio"),
    ("decided_ratio", "ratio"),
    ("event_sensitivity", "ratio"),
    ("false_alarms_per_24h", "1/24h"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics of the traced run (`--trace 1`), as
/// `BENCHMARK.json` lists them.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("loadgen.lag_p99_ms", "ms"),
    ("loadgen.offered_per_s", "windows/s"),
    ("fleet.ingest_calls", "count"),
    ("fleet.ingest_ns_p50", "ns"),
    ("fleet.ingest_ns_p99", "ns"),
    ("fleet.ingest_busy_share", "ratio"),
    ("fleet.tick_calls", "count"),
    ("fleet.tick_ms_p50", "ms"),
    ("fleet.tick_ms_p99", "ms"),
    ("fleet.tick_busy_share", "ratio"),
    ("fleet.windows_per_tick_p50", "count"),
    ("fleet.route_ns_per_window", "ns"),
    ("fleet.extract_share", "ratio"),
    ("fleet.pending_rows_max", "count"),
    ("fleet.pending_windows_max", "count"),
    ("fleet.shed_windows", "count"),
    ("fleet.shed_ratio", "ratio"),
    ("fleet.admit_us_p50", "us"),
    ("fleet.remove_us_p50", "us"),
    ("fleet.restart_us_p50", "us"),
    ("clock.deadline_miss_ratio", "ratio"),
    ("clock.worst_overrun_ms", "ms"),
    ("clock.tick_work_p99_ms", "ms"),
    ("clock.decision_latency_p99_ms", "ms"),
    ("clock.omission_gap_ms", "ms"),
    ("parallel.executors", "count"),
    ("parallel.efficiency", "ratio"),
    ("features.extract_us_per_window", "us"),
    ("features.extract_us_micro", "us"),
    ("features.extract_micro_ratio", "ratio"),
    ("features.extract_batch_us_per_window_micro", "us"),
    ("features.dropped_windows", "count"),
    ("dsp.filtfilt_us", "us"),
    ("dsp.qrs_detect_us", "us"),
    ("dsp.welch_us", "us"),
    ("dsp.ar_us", "us"),
    ("engine.classify_ns_per_row", "ns"),
    ("engine.classify_ns_per_row_micro", "ns"),
    ("engine.classify_micro_ratio", "ratio"),
    ("engine.rows_classified", "count"),
    ("engine.macs_per_decision", "count"),
    ("alarm.alarms_raised", "count"),
    ("trace.windows_per_s_untraced", "windows/s"),
    ("trace.windows_per_s_traced", "windows/s"),
    ("trace.windows_per_s_ratio", "ratio"),
    ("trace.latency_p50_ms_untraced", "ms"),
    ("trace.latency_p50_ms_traced", "ms"),
    ("trace.latency_p50_ratio", "ratio"),
];

/// The highest whole percentile with at least ten of `n` samples beyond
/// it (nearest-rank), capped at 99; `None` when `n < 11`.
pub fn tail_percentile(n: usize) -> Option<u32> {
    (50..=99).rev().find(|&p| n >= 10 + rank(n, p))
}

/// Nearest-rank position (1-based) of percentile `p` among `n` samples.
fn rank(n: usize, p: u32) -> usize {
    (p as usize * n).div_ceil(100).max(1)
}

/// Nearest-rank percentile `p` of `v` (reorders `v`); 0 when empty.
pub fn percentile(v: &mut [u64], p: u32) -> u64 {
    if v.is_empty() {
        return 0;
    }
    let r = rank(v.len(), p) - 1;
    *v.select_nth_unstable(r).1
}

/// Median and tail percentile of `v` (reorders `v`), with the tail's
/// percentile; the tail falls back to the maximum under 11 samples.
pub fn median_and_tail(v: &mut [u64]) -> (u64, u64, u32) {
    let p50 = percentile(v, 50);
    match tail_percentile(v.len()) {
        Some(p) => (p50, percentile(v, p), p),
        None => (p50, v.iter().copied().max().unwrap_or(0), 100),
    }
}

/// Median of `v` (reorders `v`).
pub fn median_f64(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    v.get(v.len() / 2).copied().unwrap_or(0.0)
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, from [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Looks `name` up in `table` and pairs it with `value`.
///
/// # Panics
///
/// Panics when `name` is not in `table` — a benchmark bug.
pub fn metric(table: &[(&'static str, &'static str)], name: &str, value: f64) -> Metric {
    let &(name, unit) = table
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("metric {name} is not declared"));
    Metric { name, value, unit }
}

/// The result line: `correct`, `attempted`, `failed` and every metric.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Escapes a string for a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The machine and run fingerprint every result carries: core count, CPU
/// model, L2 size, `target-cpu`, commit, seed and the fixed paced rates.
pub fn fingerprint(workload: &str, seed: u64, seconds: u64, trace: bool, workers: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown", |(_, v)| v.trim());
    let l2 = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index2/size")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    let rates: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("{}: {}", json_str(w.name), w.paced_rate))
        .collect();
    format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {trace}, \
         \"nproc\": {nproc}, \"workers\": {workers}, \"cpu\": {}, \"l2\": {}, \"target_cpu\": {}, \
         \"commit\": {}, \"paced_rates_windows_per_s\": {{{}}}}}",
        json_str(workload),
        json_str(cpu),
        json_str(&l2),
        json_str(env!("FLEETBENCH_TARGET_CPU")),
        json_str(&git_commit()),
        rates.join(", ")
    )
}

/// The checked-out commit, read from `.git` without running git; the
/// benchmark may run from a plain export, where it is `unknown`.
fn git_commit() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|refs| {
            refs.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether a metric name is made of `[A-Za-z0-9_.-]` only.
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    #[test]
    fn every_metric_name_is_well_formed_and_unique() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        for n in &names {
            assert!(valid_name(n), "{n}");
            assert!(n.len() <= 64, "{n}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "metric names repeat");
        assert!(!valid_name("bad name"));
        assert!(!valid_name("p99/ms"));
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json next to the benchmark directory");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let needle = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&needle), "BENCHMARK.json lacks {needle}");
        }
        let declared = json.matches("\"unit\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
        let listed: Vec<&str> = json
            .split("{\"name\": \"")
            .skip(1)
            .filter(|item| item.contains("\"why\":"))
            .map(|item| &item[..item.find('"').expect("quoted name")])
            .collect();
        assert!(listed.len() >= 2, "at least two workloads");
        for name in listed {
            assert!(
                WORKLOADS.iter().any(|w| w.name == name),
                "unknown workload {name}"
            );
        }
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(10), None);
        // 11 samples: p50 is rank 6 with 5 beyond; nothing reaches 10.
        assert_eq!(tail_percentile(11), None);
        // 20 samples: p50 is rank 10, leaving exactly 10 beyond.
        assert_eq!(tail_percentile(20), Some(50));
        // 100 samples: p90 is rank 90 with 10 beyond, p91 only 9.
        assert_eq!(tail_percentile(100), Some(90));
        // 1000 samples: p99 is rank 990 with 10 beyond.
        assert_eq!(tail_percentile(1000), Some(99));
        assert_eq!(tail_percentile(999), Some(98));
        assert_eq!(tail_percentile(1_000_000), Some(99));
        for n in 11..3000 {
            if let Some(p) = tail_percentile(n) {
                assert!(n - rank(n, p) >= 10);
                if p < 99 {
                    assert!(n - rank(n, p + 1) < 10, "n {n}: p{} also qualifies", p + 1);
                }
            }
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut v, 50), 50);
        assert_eq!(percentile(&mut v, 90), 90);
        assert_eq!(percentile(&mut v, 99), 99);
        let (p50, tail, p) = median_and_tail(&mut v);
        assert_eq!((p50, tail, p), (50, 90, 90));
        assert_eq!(percentile(&mut [], 50), 0);
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let line = result_line(
            true,
            7,
            1,
            &[
                metric(&END_TO_END, "setup_s", 1.25),
                metric(&END_TO_END, "windows_per_s", 3.0),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 7, \"failed\": 1, \"metrics\": {\
             \"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"windows_per_s\": {\"value\": 3.0, \"unit\": \"windows/s\"}}}"
        );
    }
}
