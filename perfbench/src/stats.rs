//! Order statistics and the metric record the report prints.

use std::time::Duration;

/// The `p`-quantile (0 ≤ p ≤ 1) of `values` by nearest rank on the sorted
/// sample; 0 for an empty sample.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A timing distribution on one line: sample count, median, the usual
/// tail percentiles and the maximum, and which percentile is the highest
/// with at least ten samples beyond it.
pub fn ladder(title: &str, values: &[f64]) -> String {
    let n = values.len();
    let reportable = [("p99", 0.99), ("p95", 0.95), ("p90", 0.90), ("p75", 0.75)]
        .into_iter()
        .find(|&(_, p)| n as f64 * (1.0 - p) >= 10.0)
        .map_or("p50", |(label, _)| label);
    format!(
        "{title}: n={n} p50={:.3} p90={:.3} p95={:.3} p99={:.3} max={:.3} (highest percentile with >= 10 samples beyond: {reportable})",
        median(values),
        quantile(values, 0.90),
        quantile(values, 0.95),
        quantile(values, 0.99),
        quantile(values, 1.0),
    )
}

/// One reported metric: its value, unit, how many samples it summarizes,
/// and a note on what it is taken over (printed, not part of the result
/// line).
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
    pub note: String,
}

/// Metrics in report order.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str, samples: usize, note: &str) {
        assert!(
            value.is_finite(),
            "metric {name} is not a finite number: {value}"
        );
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
            note: note.to_string(),
        });
    }
}
