//! Reads the program's own instruments: snapshots of Prometheus text
//! exposition (the process-global `nanoleak_obs` registry, or a
//! server's `GET /metrics`) and the difference between two of them.
//!
//! Families the program registers lazily are absent until first use;
//! a missing series reads as 0.

use std::collections::HashMap;

/// One parsed exposition: series (`name` or `name{labels}`) → value.
#[derive(Debug, Clone, Default)]
pub struct Snapshot(HashMap<String, f64>);

impl Snapshot {
    /// Parses Prometheus text exposition. Same-key series (a family
    /// registered twice) are summed.
    pub fn parse(text: &str) -> Self {
        let mut map = HashMap::new();
        for line in text.lines() {
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            let Some((key, value)) = line.rsplit_once(' ') else { continue };
            let value = match value {
                "+Inf" => f64::INFINITY,
                "-Inf" => f64::NEG_INFINITY,
                v => match v.parse::<f64>() {
                    Ok(x) => x,
                    Err(_) => continue,
                },
            };
            *map.entry(key.to_string()).or_insert(0.0) += value;
        }
        Snapshot(map)
    }

    /// The process-global registry (engine, solver, cells, opt).
    pub fn global() -> Self {
        Self::parse(&nanoleak_obs::global().render())
    }

    /// `self - before` for every series, as a [`Delta`].
    pub fn since(&self, before: &Snapshot) -> Delta {
        let mut map = self.0.clone();
        for (k, v) in &before.0 {
            *map.entry(k.clone()).or_insert(0.0) -= v;
        }
        Delta(map)
    }
}

/// The change of every series over one phase.
#[derive(Debug, Clone, Default)]
pub struct Delta(HashMap<String, f64>);

impl Delta {
    /// Change of one series (0 when absent).
    pub fn get(&self, series: &str) -> f64 {
        self.0.get(series).copied().unwrap_or(0.0)
    }

    /// Summed change of a histogram family's observations.
    pub fn sum(&self, histogram: &str) -> f64 {
        self.get(&format!("{histogram}_sum"))
    }

    /// Change of a histogram family's observation count.
    pub fn count(&self, histogram: &str) -> f64 {
        self.get(&format!("{histogram}_count"))
    }

    /// Mean observation of a histogram over the phase (0 if none).
    pub fn mean(&self, histogram: &str) -> f64 {
        ratio(self.sum(histogram), self.count(histogram))
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_differences_exposition() {
        let before = Snapshot::parse(
            "# HELP a_total x\n# TYPE a_total counter\na_total 3\n\
             h_seconds_sum 1.5\nh_seconds_count 3\nshed{reason=\"q\"} 1\n",
        );
        let after = Snapshot::parse(
            "a_total 5\nh_seconds_sum 2.5\nh_seconds_count 5\n\
             shed{reason=\"q\"} 2\nshed{reason=\"c\"} 4\n",
        );
        let d = after.since(&before);
        assert_eq!(d.get("a_total"), 2.0);
        assert_eq!(d.mean("h_seconds"), 0.5);
        assert_eq!(d.get("shed{reason=\"q\"}"), 1.0);
        assert_eq!(d.get("shed{reason=\"c\"}"), 4.0);
        assert_eq!(d.get("missing"), 0.0);
    }
}
