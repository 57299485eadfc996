//! Percentiles, the run report and its JSON output.

use std::fmt::Write as _;

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Nearest-rank percentile of a sorted, non-empty slice.
fn rank(sorted: &[f64], p: f64) -> usize {
    ((p / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len())
}

pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let s = sorted(v);
    s[rank(&s, 50.0) - 1]
}

pub fn min(v: &[f64]) -> f64 {
    v.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Nearest-rank percentile `p` of the samples, and how many lie beyond it.
pub fn percentile(v: &[f64], p: f64) -> (f64, usize) {
    if v.is_empty() {
        return (0.0, 0);
    }
    let s = sorted(v);
    let r = rank(&s, p);
    (s[r - 1], s.len() - r)
}

/// The highest of p99, p95, p90 and p75 that leaves at least 10 samples
/// beyond it, or p50 when none does: (percentile, value, beyond).
pub fn tail(v: &[f64]) -> (f64, f64, usize) {
    let (p, (value, beyond)) = [99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .map(|p| (p, percentile(v, p)))
        .find(|(_, (_, beyond))| *beyond >= 10)
        .unwrap_or((50.0, percentile(v, 50.0)));
    (p, value, beyond)
}

/// Peak resident set of this process, from the kernel's high-water mark.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One run's metrics and metadata, printed as the benchmark's output.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    meta: Vec<(String, String)>,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
}

impl Report {
    pub fn new() -> Self {
        Self {
            correct: true,
            ..Self::default()
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Records a sample set's minimum times `scale` as the metric `name`,
    /// and the unscaled minimum and distribution under `op` in the
    /// metadata.
    pub fn latency(&mut self, name: &str, op: &str, samples: &[f64], scale: f64) {
        self.metric(name, min(samples) * scale, "s");
        self.meta_num(&format!("min.{op}_s"), min(samples));
        self.distribution(op, samples);
    }

    /// Records the sample count, median and tail (see [`tail`]) of the
    /// operation `op` in the metadata.
    pub fn distribution(&mut self, op: &str, samples: &[f64]) {
        self.meta_num(&format!("n.{op}"), samples.len() as f64);
        self.meta_num(&format!("p50.{op}_s"), median(samples));
        let (pct, value, beyond) = tail(samples);
        self.meta_num(&format!("tail.{op}_s"), value);
        self.meta_num(&format!("percentile.tail.{op}_s"), pct);
        self.meta_num(&format!("beyond.tail.{op}_s"), beyond as f64);
    }

    pub fn meta_num(&mut self, key: &str, value: f64) {
        self.meta.push((key.to_string(), json_num(value)));
    }

    pub fn meta_str(&mut self, key: &str, value: &str) {
        self.meta.push((key.to_string(), json_str(value)));
    }

    /// A line of the human-readable part of the report.
    pub fn note(&mut self, line: String) {
        println!("# {line}");
    }

    /// Prints the metadata line, then the result object as the last line.
    pub fn print(&self) {
        println!("# meta {}", object(&self.meta));
        let metrics: Vec<(String, String)> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let body = format!(
                    "{{\"value\": {}, \"unit\": {}}}",
                    json_num(*value),
                    json_str(unit)
                );
                (name.clone(), body)
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            object(&metrics)
        );
    }
}

fn object(fields: &[(String, String)]) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in fields.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}{}: {v}", json_str(k));
    }
    out.push('}');
    out
}

/// A JSON number; non-finite values, which JSON cannot hold, print as 0.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=120).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), (108.0, 12));
        assert_eq!(percentile(&v[..20], 50.0), (10.0, 10));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(min(&[3.0, 1.0, 2.0]), 1.0);
        assert_eq!(tail(&v), (90.0, 108.0, 12));
        assert_eq!(tail(&v[..12]), (50.0, 6.0, 6));
    }
}
