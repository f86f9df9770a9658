//! Order statistics for timing samples.
//!
//! Every timing the benchmark reports is summarised the same way: its
//! median, its quartiles, the highest percentile of a fixed ladder that
//! still has at least ten samples beyond it, and the sample count. No
//! best-of-N minimum is ever reported.
//!
//! A metric that summarises many recoveries of a run is their trimmed
//! mean, not their median. A shared host runs in slow and fast phases a
//! few seconds long, so such samples are bimodal: their median jumps
//! from one mode to the other as the share of slow time passes one half,
//! while their mean moves with that share smoothly. Trimming keeps one
//! stalled sample from moving the mean.

/// Percentiles the tail is chosen from, lowest first.
const TAIL_LADDER: [f64; 6] = [50.0, 90.0, 99.0, 99.9, 99.99, 99.999];

/// Samples a percentile must leave beyond it to be reported as the tail.
const TAIL_MIN_BEYOND: f64 = 10.0;

/// The `p`-th percentile (0..=100) of `sorted` samples, interpolated
/// linearly between the two nearest ranks.
///
/// # Panics
/// Panics if `sorted` is empty or `p` is outside 0..=100.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The highest ladder percentile with at least ten of `n` samples
/// beyond it, or `None` when `n` is too small for even the median.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rev()
        .find(|&&p| n as f64 * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND - 1e-6)
        .copied()
}

/// Summary of one series of samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// 99th percentile, present only when at least ten samples lie
    /// beyond it (1000 samples or more).
    pub p99: Option<f64>,
    /// `(percentile, value)` of the highest percentile with at least
    /// ten samples beyond it.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarise `samples` (any order). `None` for an empty series.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Summary {
            n: sorted.len(),
            q1: percentile(&sorted, 25.0),
            median: percentile(&sorted, 50.0),
            q3: percentile(&sorted, 75.0),
            p99: tail_percentile(sorted.len())
                .filter(|&p| p >= 99.0)
                .map(|_| percentile(&sorted, 99.0)),
            tail: tail_percentile(sorted.len()).map(|p| (p, percentile(&sorted, p))),
        })
    }

    /// The summary as a JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let tail = match self.tail {
            Some((p, v)) => format!("{{\"pct\": {p}, \"value\": {v}}}"),
            None => "null".to_string(),
        };
        let p99 = self.p99.map_or_else(|| "null".to_string(), |v| v.to_string());
        format!(
            "{{\"n\": {}, \"q1\": {}, \"median\": {}, \"q3\": {}, \"p99\": {p99}, \"tail\": {tail}}}",
            self.n, self.q1, self.median, self.q3
        )
    }
}

/// Mean of `samples` after dropping the lowest and the highest
/// `trim` share (0 to 0.5, rounded down to whole samples) of them.
/// `None` for an empty series.
pub fn trimmed_mean(samples: &[f64], trim: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = ((sorted.len() as f64 * trim.clamp(0.0, 0.5)) as usize).min((sorted.len() - 1) / 2);
    let kept = &sorted[cut..sorted.len() - cut];
    Some(kept.iter().sum::<f64>() / kept.len() as f64)
}

/// Median of `samples` (0 for an empty series).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).map_or(0.0, |s| s.median)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 50.0), 3.0);
        assert_eq!(percentile(&s, 100.0), 5.0);
        assert_eq!(percentile(&s, 25.0), 2.0);
        assert_eq!(percentile(&s, 90.0), 4.6);
        let even = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&even, 50.0), 25.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn summary_of_one_to_hundred() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let s = Summary::of(&samples).unwrap();
        assert_eq!(s.n, 100);
        assert_eq!(s.median, 50.5);
        assert_eq!(s.q1, 25.75);
        assert_eq!(s.q3, 75.25);
        // 100 samples leave exactly ten beyond p90, one beyond p99.
        assert_eq!(s.tail.map(|t| t.0), Some(90.0));
        assert_eq!(s.p99, None);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Summary::of(&samples).unwrap();
        assert!((s.p99.unwrap() - 990.01).abs() < 1e-9);
        assert_eq!(s.tail.map(|t| t.0), Some(99.0));
        assert_eq!(Summary::of(&samples[1..]).unwrap().p99, None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(10_000_000), Some(99.999));
    }

    #[test]
    fn trimmed_mean_drops_both_ends() {
        let mut samples: Vec<f64> = (1..=10).map(f64::from).collect();
        samples[9] = 1000.0;
        // One sample cut from each end: the mean of 2..=9.
        assert_eq!(trimmed_mean(&samples, 0.1), Some(5.5));
        assert_eq!(trimmed_mean(&samples, 0.0), Some(104.5));
        // Too few samples to cut any: the plain mean; half cuts to the middle.
        assert_eq!(trimmed_mean(&[4.0, 8.0], 0.1), Some(6.0));
        assert_eq!(trimmed_mean(&[1.0, 2.0, 9.0], 0.5), Some(2.0));
        assert_eq!(trimmed_mean(&[], 0.1), None);
    }

    #[test]
    fn trimmed_mean_follows_a_mixture_smoothly() {
        // Samples from a fast mode (10) and a slow mode (8): the median
        // jumps between the modes, the trimmed mean moves by steps.
        let mix = |slow: usize| -> Vec<f64> {
            (0..20).map(|i| if i < slow { 8.0 } else { 10.0 }).collect()
        };
        assert_eq!(median(&mix(9)), 10.0);
        assert_eq!(median(&mix(11)), 8.0);
        let (a, b) = (trimmed_mean(&mix(9), 0.1).unwrap(), trimmed_mean(&mix(11), 0.1).unwrap());
        assert!((a - b).abs() < 0.5, "{a} vs {b}");
    }

    #[test]
    fn empty_series_has_no_summary() {
        assert_eq!(Summary::of(&[]), None);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
