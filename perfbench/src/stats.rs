//! Exact statistics computed from the benchmark's own samples: nearest-rank
//! percentiles, medians, and pairwise precision/recall/F1 by direct
//! counting (independent of `emba_core::metrics`).

/// Nearest-rank percentile of `values` (`q` in `(0, 1]`): the smallest
/// sample with at least `q · n` samples at or below it. `None` when empty.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    Some(v[rank - 1])
}

/// Median of a non-empty sample: the middle value, or the mean of the two
/// middle values of an even-sized sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Samples strictly beyond the nearest-rank p99 position. A p99 is only
/// reported when at least ten samples lie beyond it, i.e. `n ≥ 1000`.
pub fn beyond_p99(n: usize) -> usize {
    n - ((0.99 * n as f64).ceil() as usize).min(n)
}

/// Confusion counts of binary decisions against gold labels.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub tp: usize,
    pub fp: usize,
    pub fn_: usize,
}

impl Counts {
    /// Counts `predicted` against `gold` element-wise.
    pub fn of(predicted: &[bool], gold: &[bool]) -> Self {
        assert_eq!(predicted.len(), gold.len(), "one decision per label");
        let mut c = Counts::default();
        for (&p, &g) in predicted.iter().zip(gold) {
            match (p, g) {
                (true, true) => c.tp += 1,
                (true, false) => c.fp += 1,
                (false, true) => c.fn_ += 1,
                (false, false) => {}
            }
        }
        c
    }

    pub fn precision(&self) -> f64 {
        ratio(self.tp, self.tp + self.fp)
    }

    pub fn recall(&self) -> f64 {
        ratio(self.tp, self.tp + self.fn_)
    }

    pub fn f1(&self) -> f64 {
        let (p, r) = (self.precision(), self.recall());
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

fn ratio(a: usize, b: usize) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// F1 of predicting every item positive: precision = positive share,
/// recall = 1.
pub fn all_positive_f1(positives: usize, total: usize) -> f64 {
    let p = ratio(positives, total);
    if p == 0.0 {
        0.0
    } else {
        2.0 * p / (p + 1.0)
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(500.0));
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        assert_eq!(beyond_p99(1000), 10);
        assert_eq!(beyond_p99(999), 9);
        assert_eq!(percentile(&[3.0], 0.99), Some(3.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn counts_and_baselines() {
        let c = Counts::of(&[true, true, false, false], &[true, false, true, false]);
        assert_eq!((c.tp, c.fp, c.fn_), (1, 1, 1));
        assert!((c.f1() - 0.5).abs() < 1e-12);
        assert!((all_positive_f1(1, 3) - 0.5).abs() < 1e-12);
    }
}
