//! Small measurement helpers: order statistics, process memory, and the
//! obs exposition parser.

use std::time::Duration;

/// Nearest-rank percentile of an ascending-sorted slice (`q` in 0..=1).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// Ascending copy of a sample.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// A percentile that is only reported when at least `min_beyond`
/// samples lie beyond it; `Err` names the shortfall.
pub fn tail(sorted: &[f64], q: f64, min_beyond: usize, what: &str) -> Result<f64, String> {
    let beyond = sorted.len() - (q * sorted.len() as f64).ceil() as usize;
    if beyond < min_beyond {
        return Err(format!(
            "{what}: p{} rests on {beyond} samples beyond it ({} total); need {min_beyond}",
            q * 100.0,
            sorted.len()
        ));
    }
    Ok(percentile(sorted, q))
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set size of a process, MiB (`VmHWM` of
/// `/proc/<pid>/status`; `self` for this process).
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM line"))
}

/// Value of an unlabeled series in Prometheus-style text exposition.
pub fn exposition_value(text: &str, series: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| {
            let (name, v) = l.rsplit_once(' ')?;
            (name == series).then(|| v.parse().ok()).flatten()
        })
        .unwrap_or(0.0)
}

/// splitmix64 step: the benchmark's seeded input stream.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert!(tail(&v, 0.99, 10, "x").is_err());
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v, 0.99, 10, "x"), Ok(990.0));
    }

    #[test]
    fn exposition() {
        let text = "# TYPE a counter\na 3\na_sum 7\nb{x=\"1\"} 2\n";
        assert_eq!(exposition_value(text, "a"), 3.0);
        assert_eq!(exposition_value(text, "a_sum"), 7.0);
        assert_eq!(exposition_value(text, "zz"), 0.0);
    }
}
