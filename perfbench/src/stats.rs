//! The benchmark's own arithmetic: order statistics under the
//! "at least ten samples beyond" rule, Python-compatible quartiles, and
//! the spread figure the runs are judged by.

/// Percentiles a tail figure may be reported at, highest first.
const TAIL_PERCENTILES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Latency samples of one kind. A failed or refused request is recorded
/// as infinitely slow, so it misses every latency limit and pushes every
/// percentile it lands beyond.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn new() -> Samples {
        Samples::default()
    }

    pub fn push(&mut self, value: f64) {
        self.values.push(value);
    }

    /// Records a request that failed or was refused.
    pub fn push_failed(&mut self) {
        self.values.push(f64::INFINITY);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
    }

    fn sorted(&self) -> Vec<f64> {
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        sorted
    }

    /// Nearest-rank percentile `p` (0 < p ≤ 100); `None` when empty.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        percentile_sorted(&self.sorted(), p)
    }

    pub fn median(&self) -> Option<f64> {
        self.percentile(50.0)
    }

    /// The highest percentile in [`TAIL_PERCENTILES`] that has at least
    /// [`MIN_BEYOND`] samples strictly above its rank, with its value.
    pub fn tail(&self) -> Option<(f64, f64)> {
        let sorted = self.sorted();
        let p = highest_supported_percentile(sorted.len())?;
        Some((p, percentile_sorted(&sorted, p)?))
    }
}

/// The 1-based nearest rank of percentile `p` among `n` samples. The
/// small offset keeps float error (99.9 % of 10 000 is 9990.000000000002)
/// from pushing an exact rank up by one.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

fn percentile_sorted(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// The highest tail percentile `n` samples support: the one whose rank
/// leaves at least [`MIN_BEYOND`] samples above it.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    TAIL_PERCENTILES
        .iter()
        .copied()
        .find(|&p| n > 0 && n - rank(n, p) >= MIN_BEYOND)
}

/// The median of a set of values; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Which way a figure improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// The mean of the better half of the values (rounded up), `None` when
/// empty. Over windows of a run on a shared machine, where a busy
/// neighbour only ever makes a window slower, it keeps the windows the
/// machine left alone and drops the ones it slowed; a change that moves
/// more than half of the windows still moves it. A latency window whose
/// median landed on a failed request (infinite) counts as the worst.
pub fn better_half_mean(values: &[f64], better: Better) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if better == Better::Higher {
        sorted.reverse();
    }
    let kept = &sorted[..sorted.len().div_ceil(2)];
    (!kept.is_empty()).then(|| kept.iter().sum::<f64>() / kept.len() as f64)
}

/// Quartiles exactly as Python's `statistics.quantiles(values, n=4)`
/// computes them (the default "exclusive" method). Needs two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let m = ld as i64 + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4i64) {
        let j = (i * m / 4).clamp(1, ld as i64 - 1);
        // May be negative when j was clamped up, exactly as in Python.
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile range as a share of the median: the spread a set of
/// runs is judged by.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(values: impl IntoIterator<Item = f64>) -> Samples {
        let mut s = Samples::new();
        for v in values {
            s.push(v);
        }
        s
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = samples((1..=100).map(f64::from));
        assert_eq!(s.percentile(50.0), Some(50.0));
        assert_eq!(s.percentile(99.0), Some(99.0));
        assert_eq!(s.percentile(100.0), Some(100.0));
        assert_eq!(s.median(), Some(50.0));
        assert_eq!(Samples::new().median(), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1000 samples: rank of p99 is 990, leaving exactly 10 beyond; p99.9
        // would leave 1.
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        // 999 samples: p99's rank is 990, leaving 9, so p95 is the tail.
        assert_eq!(highest_supported_percentile(999), Some(95.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(0), None);
        let s = samples((1..=1000).map(f64::from));
        assert_eq!(s.tail(), Some((99.0, 990.0)));
    }

    #[test]
    fn failed_requests_count_as_infinitely_slow() {
        let mut s = samples((1..=990).map(f64::from));
        for _ in 0..10 {
            s.push_failed();
        }
        // The ten failures are the ten samples beyond p99; p99 itself is
        // still a real latency.
        assert_eq!(s.tail(), Some((99.0, 990.0)));
        s.push_failed();
        // Eleven failures among 1001 samples: p99's rank (991) lands on a
        // failure, so p99 misses every limit.
        assert_eq!(s.percentile(99.0), Some(f64::INFINITY));
        // A majority of failures drags the median to infinity too.
        let mut bad = samples([1.0, 2.0]);
        for _ in 0..3 {
            bad.push_failed();
        }
        assert_eq!(bad.median(), Some(f64::INFINITY));
    }

    #[test]
    fn better_half_mean_keeps_the_better_half() {
        let v = [100.0, 1.0, 5.0, 3.0, 4.0, 6.0, -50.0, 2.0];
        assert_eq!(
            better_half_mean(&v, Better::Lower),
            Some((-50.0 + 1.0 + 2.0 + 3.0) / 4.0)
        );
        assert_eq!(
            better_half_mean(&v, Better::Higher),
            Some((100.0 + 6.0 + 5.0 + 4.0) / 4.0)
        );
        // An odd count keeps the middle value too.
        assert_eq!(better_half_mean(&[1.0, 2.0, 6.0], Better::Lower), Some(1.5));
        assert_eq!(better_half_mean(&[], Better::Lower), None);
        // Slow spells in 9 of 20 windows are dropped; in 11 of 20 they
        // take one of the ten kept windows.
        let mut spells = vec![10.0; 11];
        spells.extend([17.0; 9]);
        assert_eq!(better_half_mean(&spells, Better::Lower), Some(10.0));
        let mut spells = vec![10.0; 9];
        spells.extend([17.0; 11]);
        assert!((better_half_mean(&spells, Better::Lower).unwrap() - 10.7).abs() < 1e-12);
        // Failed windows (infinitely slow) count as the worst: dropped
        // while they are under half, infinite once they are over it.
        let inf = f64::INFINITY;
        assert_eq!(
            better_half_mean(&[1.0, 1.0, inf, inf], Better::Lower),
            Some(1.0)
        );
        assert_eq!(
            better_half_mean(&[1.0, inf, inf, inf], Better::Lower),
            Some(inf)
        );
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), Some([1.0, 3.0, 4.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&ten).unwrap() - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[4.0; 10]), Some(0.0));
        assert_eq!(median(&[1.0, 3.0]), Some(2.0));
    }
}
