//! Exact order statistics over raw samples.
//!
//! Every timing the benchmark reports is taken from the full list of raw
//! samples, sorted once, with the nearest-rank rule — no histogram
//! buckets, so a quantile moves only when the data does.

/// Raw samples of one quantity, kept whole until the run ends.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

/// The fewest samples that must lie beyond a percentile before it is
/// reported as supported by the data.
pub const MIN_BEYOND: usize = 10;

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// Nearest-rank quantile `q` in `[0, 1]`: the smallest sample with at
    /// least `q·n` samples at or below it. `None` when empty.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        if self.values.is_empty() {
            return None;
        }
        self.sort();
        Some(self.values[rank(self.values.len(), q)])
    }

    /// Whether at least [`MIN_BEYOND`] samples lie above the `q` quantile.
    pub fn supports(&self, q: f64) -> bool {
        let n = self.values.len();
        n > 0 && n - 1 - rank(n, q) >= MIN_BEYOND
    }

    pub fn median(&mut self) -> Option<f64> {
        self.quantile(0.5)
    }

    pub fn mean(&self) -> Option<f64> {
        if self.values.is_empty() {
            None
        } else {
            Some(self.values.iter().sum::<f64>() / self.values.len() as f64)
        }
    }
}

/// Zero-based nearest-rank index of quantile `q` among `n > 0` samples.
fn rank(n: usize, q: f64) -> usize {
    let r = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    r.clamp(1, n) - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let mut s = Samples::default();
        for v in [5.0, 1.0, 4.0, 2.0, 3.0] {
            s.push(v);
        }
        assert_eq!(s.median(), Some(3.0));
        assert_eq!(s.quantile(0.0), Some(1.0));
        assert_eq!(s.quantile(1.0), Some(5.0));
        assert_eq!(s.quantile(0.99), Some(5.0));
    }

    #[test]
    fn support_needs_ten_samples_beyond() {
        let mut s = Samples::default();
        for v in 0..1000 {
            s.push(f64::from(v));
        }
        // p99 of 1000 is rank 990 (index 989): 10 samples lie above it.
        assert!(s.supports(0.99));
        let mut short = Samples::default();
        for v in 0..999 {
            short.push(f64::from(v));
        }
        assert!(!short.supports(0.99));
        assert!(short.supports(0.5));
    }
}
