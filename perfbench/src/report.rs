//! Summary statistics and the result line.

/// Value at quantile `bp`/10000 of ascending `sorted`, nearest rank.
/// Basis points keep the rank arithmetic exact.
pub fn quantile(sorted: &[u64], bp: u64) -> u64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    sorted[rank(sorted.len(), bp).max(1) - 1]
}

/// Nearest rank (1-based) of quantile `bp`/10000 among `n` samples.
fn rank(n: usize, bp: u64) -> usize {
    (n as u64 * bp).div_ceil(10_000) as usize
}

pub fn median_f64(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Percentiles a timing report may quote, in basis points, highest first.
const PERCENTILES_BP: [u64; 5] = [9999, 9990, 9900, 9000, 5000];

/// The highest percentile (basis points) in [`PERCENTILES_BP`] with at
/// least ten samples beyond it, or `None` when even the median is not.
pub fn highest_supported_percentile(n: usize) -> Option<u64> {
    PERCENTILES_BP.into_iter().find(|&bp| n >= rank(n, bp) + 10)
}

/// One line summarising a latency sample: median, the highest percentile
/// the sample supports, and the count.
pub fn latency_line(label: &str, sorted_ns: &[u64]) -> String {
    let n = sorted_ns.len();
    if n == 0 {
        return format!("{label}: no samples");
    }
    let p50 = quantile(sorted_ns, 5000) as f64 / 1e3;
    match highest_supported_percentile(n) {
        Some(bp) if bp > 5000 => {
            let v = quantile(sorted_ns, bp) as f64 / 1e3;
            let p = bp as f64 / 100.0;
            format!("{label}: p50 {p50:.1} us, p{p} {v:.1} us (n={n})")
        }
        _ => format!("{label}: p50 {p50:.1} us (n={n})"),
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// A named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "metric {} is not finite", m.name);
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 5000), 50);
        assert_eq!(quantile(&v, 9900), 99);
        assert_eq!(quantile(&v, 10_000), 100);
        assert_eq!(quantile(&[7], 9900), 7);
    }

    #[test]
    fn supported_percentile_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(1000), Some(9900));
        assert_eq!(highest_supported_percentile(999), Some(9000));
        assert_eq!(highest_supported_percentile(100_000), Some(9999));
        assert_eq!(highest_supported_percentile(19), None);
    }

    #[test]
    fn result_line_keeps_every_digit() {
        let line = result_json(
            true,
            3,
            0,
            &[Metric {
                name: "qps",
                unit: "1/s",
                value: 1234.567890123,
            }],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"qps\": {\"value\": 1234.567890123, \"unit\": \"1/s\"}}}"
        );
    }
}
