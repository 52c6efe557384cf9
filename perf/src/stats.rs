//! Order statistics, the tail-percentile rule, and the harness's own PRNG.

/// SplitMix64: the harness's only source of randomness, so schedules and id
/// streams depend on `--seed` alone (not on the `rand` shim the product uses).
#[derive(Debug, Clone)]
pub struct Rng64(u64);

impl Rng64 {
    pub fn new(seed: u64) -> Self {
        Rng64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n ≥ 1`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Folds a salt into a seed so each use of `--seed` gets its own stream.
pub fn mix(seed: u64, salt: u64) -> u64 {
    Rng64::new(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15)).next_u64()
}

/// Linear-interpolated quantile of an ascending slice; `p` in `[0, 1]`.
pub fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let at = p.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = at.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (at - lo as f64)
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Median rate over `k` equal windows of `[0, total_s)`: `done` holds, per
/// completed unit of work, when it completed (seconds from the start) and how
/// much it counts. A stall of a window or two — a compaction, a neighbour on
/// the machine — moves a mean rate and leaves this one where it was.
pub fn windowed_rate(done: &[(f64, f64)], total_s: f64, k: usize) -> f64 {
    let width = total_s / k as f64;
    let mut windows = vec![0.0f64; k];
    for &(at, amount) in done {
        windows[((at / width) as usize).min(k - 1)] += amount;
    }
    median(&windows) / width
}

/// The percentiles a tail may be reported at, highest first. Capped at p95:
/// on the two shared cores this runs on, a p99 over two thousand samples is
/// twenty scheduler hiccups and swung ±20 % between runs of unchanged code.
const LADDER: [f64; 3] = [0.95, 0.90, 0.75];

/// The tail-percentile rule: the highest ladder percentile with at least ten
/// samples beyond it; `None` below 40 samples (the tail is then reported as
/// the maximum, and labelled so).
pub fn tail_percentile(n: usize) -> Option<f64> {
    LADDER
        .into_iter()
        .find(|p| n - ((n as f64) * p).ceil() as usize >= 10)
}

/// A timing sample summarised by the rule above.
#[derive(Debug, Clone)]
pub struct Timing {
    pub p50: f64,
    pub tail: f64,
    /// `"p95"`, `"p90"`, `"p75"` or `"max"`.
    pub tail_label: String,
    pub n: usize,
}

pub fn timing(samples: &[f64]) -> Timing {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let (tail, tail_label) = match tail_percentile(n) {
        Some(p) => (quantile_sorted(&v, p), format!("p{:.0}", p * 100.0)),
        None => (v.last().copied().unwrap_or(f64::NAN), "max".to_string()),
    };
    Timing {
        p50: quantile_sorted(&v, 0.5),
        tail,
        tail_label,
        n,
    }
}

/// `(q1, median, q3)` exactly as Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method) — the quartiles the acceptance rule is stated in.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    if m < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x, x);
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(0.75));
        assert_eq!(tail_percentile(99), Some(0.75));
        assert_eq!(tail_percentile(100), Some(0.90));
        assert_eq!(tail_percentile(199), Some(0.90));
        assert_eq!(tail_percentile(200), Some(0.95));
        // Capped at p95 however many samples there are.
        assert_eq!(tail_percentile(1_000_000), Some(0.95));
    }

    #[test]
    fn timing_labels_its_percentile_and_count() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = timing(&samples);
        assert_eq!((t.n, t.tail_label.as_str()), (1000, "p95"));
        assert!((t.p50 - 500.5).abs() < 1e-9);
        assert!((t.tail - 950.05).abs() < 1e-9);
        let few = timing(&[3.0, 1.0, 2.0]);
        assert_eq!((few.tail, few.tail_label.as_str()), (3.0, "max"));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([2, 4, 4, 5, 7], n=4) == [3.0, 4.0, 6.0]
        assert_eq!(quartiles(&[5.0, 2.0, 4.0, 7.0, 4.0]), (3.0, 4.0, 6.0));
    }

    #[test]
    fn windowed_rate_ignores_a_stalled_window() {
        // 10 units/s for 10 s, except nothing at all completes in second 4.
        let done: Vec<(f64, f64)> = (0..100)
            .map(|i| (i as f64 / 10.0 + 0.05, 1.0))
            .filter(|&(at, _)| !(4.0..5.0).contains(&at))
            .collect();
        assert_eq!(windowed_rate(&done, 10.0, 10), 10.0);
        // Work completing at the very end lands in the last window.
        assert_eq!(windowed_rate(&[(2.0, 4.0)], 2.0, 1), 2.0);
    }

    #[test]
    fn rng_is_a_pure_function_of_its_seed() {
        let draw = |s| {
            let mut r = Rng64::new(s);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let mut r = Rng64::new(1);
        assert!((0..1000).all(|_| (0.0..1.0).contains(&r.next_f64())));
    }
}
