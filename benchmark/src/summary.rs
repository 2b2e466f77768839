//! Exact order statistics over raw samples, and the FNV-1a digest.

/// Nearest-rank percentile (`p` in `(0, 100]`) of an ascending slice:
/// the smallest sample with at least `p` % of the samples at or below
/// it. Exact — no bucketing — which is why the benchmark keeps raw
/// latencies instead of reading `LatencyHistogram`. (`leaftl_core`'s
/// `percentile` copies and sorts its input on every call; this one
/// takes millions of samples sorted once.)
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    // The epsilon keeps 99.9 % of 1000 at rank 999: in floating point
    // the product lands a hair above the integer and would round up.
    let rank = (p * sorted.len() as f64 / 100.0 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `numerator / denominator`, and 0 where a metric has no denominator
/// (a layer that did no work on this workload).
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// Arithmetic mean (0 for no samples).
pub fn mean(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().map(|&s| s as u128).sum::<u128>() as f64 / samples.len() as f64
}

fn ascending(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    sorted
}

/// Median; the mean of the two middle samples for an even count.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let sorted = ascending(samples);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(samples, n=4)` computes them (the "exclusive"
/// method), so a spread printed here matches the one the driver takes.
/// Needs at least two samples.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    assert!(samples.len() >= 2, "quartiles need two samples");
    let sorted = ascending(samples);
    let m = sorted.len();
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// 64-bit FNV-1a over a stream of words and byte strings — the digest
/// behind `input_digest` and `sim_digest`.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a whole word per multiply (the digest runs inside the
    /// measured loop of the queued workloads, once per completion); the
    /// shift feeds the product's high half back into the low bits that
    /// a lone multiply would never reach.
    pub fn word(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(0x0000_0100_0000_01b3);
        self.0 ^= self.0 >> 32;
    }

    pub fn finish(self) -> u64 {
        self.0
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 50.0), 500);
        assert_eq!(percentile(&v, 99.0), 990);
        assert_eq!(percentile(&v, 99.9), 999);
        assert_eq!(percentile(&v, 100.0), 1000);
        assert_eq!(percentile(&[7], 99.9), 7);
        // 99 % of 150 samples is rank 148.5 → the 149th.
        let v: Vec<u64> = (1..=150).collect();
        assert_eq!(percentile(&v, 99.0), 149);
    }

    #[test]
    fn mean_and_median_on_known_vectors() {
        assert_eq!(mean(&[1, 2, 3, 6]), 3.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[9.0]), 9.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
        // statistics.quantiles([3, 5], n=4) == [2.5, 5.5]
        assert_eq!(quartiles(&[3.0, 5.0]), (2.5, 5.5));
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        let mut h = Fnv::new();
        h.bytes(b"a");
        assert_eq!(h.hex(), "af63dc4c8601ec8c");
        let mut h = Fnv::new();
        h.bytes(b"foobar");
        assert_eq!(h.hex(), "85944171f73967e8");
        assert_eq!(Fnv::new().hex(), "cbf29ce484222325");
    }
}
