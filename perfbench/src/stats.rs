//! Order statistics and the benchmark's result line.

use ipcp_sim::telemetry::JsonValue;

/// Median of `xs` (mean of the two middle values for even lengths); 0 for
/// an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (0..=100) of `xs`; 0 for an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// A pass time on a quiet host: the sum, over the parts a pass is made
/// of, of each part's fastest sample. Infinite if a part has no sample.
///
/// A shared host runs the same part at one of two speeds, often nearly 2x
/// apart, and switches between them every few seconds as neighbours load
/// the memory hierarchy. A median follows the share of time spent slow,
/// which drifts from run to run; the fastest sample of each part, taken
/// over samples spread across the run, is what the program itself costs.
pub fn quiet_sum(parts: &[Vec<f64>]) -> f64 {
    parts
        .iter()
        .map(|p| p.iter().copied().fold(f64::INFINITY, f64::min))
        .sum()
}

/// A pass time from the median of each part, summed: for parts whose
/// times spread evenly instead of in two speeds (see [`quiet_sum`]). NaN
/// if a part has no sample.
pub fn median_sum(parts: &[Vec<f64>]) -> f64 {
    parts
        .iter()
        .map(|p| if p.is_empty() { f64::NAN } else { median(p) })
        .sum()
}

/// `parts` with every pass scaled to take `pass_s`: sample `p` of each
/// part (all parts hold one sample per pass) times `pass_s` over the sum
/// of sample `p` across parts. This takes out the one slowdown the host
/// puts on a whole pass, and keeps how the parts differ from each other,
/// for a tail over parts (`op_p90_s`).
pub fn pass_scaled(parts: &[Vec<f64>], pass_s: f64) -> Vec<Vec<f64>> {
    let passes = parts.iter().map(Vec::len).min().unwrap_or(0);
    let scale: Vec<f64> = (0..passes)
        .map(|p| pass_s / parts.iter().map(|part| part[p]).sum::<f64>())
        .collect();
    parts
        .iter()
        .map(|part| part.iter().zip(&scale).map(|(x, s)| x * s).collect())
        .collect()
}

/// One named metric with its unit.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// Collects metrics, operation counts and failures for the result line.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            value,
        });
    }

    /// Counts one operation, failed unless `ok`; `what` names a failure on
    /// stderr.
    pub fn op(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: FAILED: {what}");
        }
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`. A non-finite value is printed as 0 and makes
    /// the run incorrect.
    pub fn to_json(&self) -> String {
        let mut finite = true;
        let mut metrics = JsonValue::obj();
        for m in &self.metrics {
            let v = if m.value.is_finite() {
                m.value
            } else {
                finite = false;
                eprintln!("perfbench: metric {} is not finite", m.name);
                0.0
            };
            metrics.insert(
                &m.name,
                JsonValue::obj().set("value", v).set("unit", m.unit),
            );
        }
        JsonValue::obj()
            .set("correct", finite && self.failed == 0)
            .set("attempted", self.attempted)
            .set("failed", self.failed)
            .set("metrics", metrics)
            .to_json_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(quiet_sum(&[vec![3.0, 1.0], vec![2.0]]), 3.0);
        assert!(quiet_sum(&[vec![]]).is_infinite());
        assert_eq!(median_sum(&[vec![3.0, 1.0, 2.0], vec![4.0]]), 6.0);
        assert!(median_sum(&[vec![]]).is_nan());
        let scaled = pass_scaled(&[vec![1.0, 2.0], vec![3.0, 6.0]], 2.0);
        assert_eq!(scaled, [vec![0.5, 0.5], vec![1.5, 1.5]]);
    }
}
