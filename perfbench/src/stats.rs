//! The benchmark's own arithmetic: medians, the "ten samples beyond"
//! tail, geometric means and failure accounting. Everything here is
//! pure so the self-tests can pin it.

/// Samples a tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// A sample value: `f64`, or `f32` where a run keeps hundreds of
/// thousands of them.
pub trait Sample: Copy + Into<f64> {}

impl Sample for f64 {}
impl Sample for f32 {}

/// `values` sorted ascending, as `f64`s.
fn sorted<T: Sample>(values: &[T]) -> Vec<f64> {
    let mut sorted: Vec<f64> = values.iter().map(|&v| v.into()).collect();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Median of `values` (mean of the two middle values for even counts);
/// 0 for an empty slice.
pub fn median<T: Sample>(values: &[T]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<T> = values.to_vec();
    sorted.sort_by(|a, b| (*a).into().total_cmp(&(*b).into()));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid].into()
    } else {
        (sorted[mid - 1].into() + sorted[mid].into()) / 2.0
    }
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean<T: Sample>(values: &[T]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().map(|&v| v.into()).sum::<f64>() / values.len() as f64
    }
}

/// Ops per second of back-to-back op time, given each op's latency in
/// milliseconds; 0 for no ops.
pub fn throughput(latencies_ms: &[f64]) -> f64 {
    let total_ms: f64 = latencies_ms.iter().sum();
    if total_ms > 0.0 {
        latencies_ms.len() as f64 * 1e3 / total_ms
    } else {
        0.0
    }
}

/// The highest percentile of a sample that still has at least
/// [`TAIL_BEYOND`] samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that percentile.
    pub value: f64,
    /// The percentile, in percent.
    pub percentile: f64,
    /// Samples strictly past the tail's rank.
    pub beyond: usize,
    /// Sample count.
    pub samples: usize,
    /// Slices the sample was cut into (1 unless [`sliced_tail`]).
    pub slices: usize,
}

/// Selects the tail of `values`: sorted ascending, the element with
/// exactly [`TAIL_BEYOND`] elements after it. A sample too small to
/// leave ten beyond anything reports its maximum, at the 100th
/// percentile with fewer than ten beyond.
pub fn tail<T: Sample>(values: &[T]) -> Tail {
    let n = values.len();
    if n == 0 {
        return Tail {
            value: 0.0,
            percentile: 100.0,
            beyond: 0,
            samples: 0,
            slices: 1,
        };
    }
    let sorted = sorted(values);
    if n <= TAIL_BEYOND {
        return Tail {
            value: sorted[n - 1],
            percentile: 100.0,
            beyond: 0,
            samples: n,
            slices: 1,
        };
    }
    let rank = n - TAIL_BEYOND - 1;
    Tail {
        value: sorted[rank],
        percentile: 100.0 * (n - TAIL_BEYOND) as f64 / n as f64,
        beyond: TAIL_BEYOND,
        samples: n,
        slices: 1,
    }
}

/// The tail of each consecutive run of `per_slice` samples of a sample
/// in time order, and their median: value and percentile are the
/// medians over slices, `samples` the total. A last, shorter slice is
/// left out unless it is the only one. A single stall moves one slice's
/// tail, not the reported one, and every full slice reports the same
/// percentile however many samples a run collects.
pub fn sliced_tail<T: Sample>(values: &[T], per_slice: usize) -> Tail {
    let mut slices: Vec<&[T]> = values.chunks(per_slice.max(1)).collect();
    if slices.len() > 1 && slices.last().is_some_and(|s| s.len() < per_slice) {
        slices.pop();
    }
    let tails: Vec<Tail> = slices.iter().map(|v| tail(v)).collect();
    let values: Vec<f64> = tails.iter().map(|t| t.value).collect();
    let percentiles: Vec<f64> = tails.iter().map(|t| t.percentile).collect();
    Tail {
        value: median(&values),
        percentile: median(&percentiles),
        beyond: tails.iter().map(|t| t.beyond).min().unwrap_or(0),
        samples: tails.iter().map(|t| t.samples).sum(),
        slices: tails.len().max(1),
    }
}

/// Geometric mean of positive, finite ratios; `None` when there are none
/// or any ratio is not positive and finite.
pub fn geomean(ratios: &[f64]) -> Option<f64> {
    if ratios.is_empty() || ratios.iter().any(|r| !(r.is_finite() && *r > 0.0)) {
        return None;
    }
    Some((ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp())
}

/// Ops attempted and ops failed, with the reasons of the first few
/// failures kept for the report.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Ops attempted (including checks that run outside timing).
    pub attempted: u64,
    /// Ops whose output was wrong or that errored.
    pub failed: u64,
    /// First failure messages, bounded.
    pub reasons: Vec<String>,
}

impl Tally {
    const KEPT_REASONS: usize = 8;

    /// Counts one attempt that succeeded.
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    /// Counts one attempt that failed.
    pub fn fail(&mut self, reason: impl Into<String>) {
        self.attempted += 1;
        self.failed += 1;
        if self.reasons.len() < Self::KEPT_REASONS {
            self.reasons.push(reason.into());
        }
    }

    /// Counts one attempt, failed when `reason` is `Some`.
    pub fn record(&mut self, reason: Option<String>) {
        match reason {
            Some(r) => self.fail(r),
            None => self.ok(),
        }
    }

    /// Share of attempts that failed (0 when nothing was attempted).
    pub fn failure_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// SplitMix64: the benchmark's input generator. Everything seeded in a
/// run derives from `--seed` through it.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut g = SplitMix(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03));
        g.next_u64();
        g
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median::<f64>(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&values);
        // 100 samples: rank 89 (value 90) has 91..=100 — ten — above it.
        assert_eq!(t.value, 90.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.samples, 100);
        assert!((t.percentile - 90.0).abs() < 1e-12);
        let above = values.iter().filter(|&&v| v > t.value).count();
        assert_eq!(above, TAIL_BEYOND);
    }

    #[test]
    fn tail_moves_up_with_more_samples() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&values);
        assert_eq!(t.value, 990.0);
        assert!((t.percentile - 99.0).abs() < 1e-12);
    }

    #[test]
    fn tail_of_a_small_sample_is_its_maximum() {
        let t = tail(&[5.0, 1.0, 9.0]);
        assert_eq!(t.value, 9.0);
        assert_eq!(t.beyond, 0);
        assert_eq!(t.percentile, 100.0);
        // Eleven samples is the smallest that leaves ten beyond.
        let t = tail(&(0..11).map(f64::from).collect::<Vec<_>>());
        assert_eq!((t.value, t.beyond), (0.0, 10));
    }

    #[test]
    fn sliced_tail_is_the_median_of_slice_tails() {
        // Three slices of 100 samples, the middle one stalled, and a
        // short remainder that is left out.
        let mut samples = Vec::new();
        for slice in 0..3 {
            for i in 0..100 {
                let stall = if slice == 1 { 1000.0 } else { 0.0 };
                samples.push((i + 1) as f64 + stall);
            }
        }
        samples.extend([5000.0; 7]);
        let t = sliced_tail(&samples, 100);
        assert_eq!((t.value, t.slices, t.samples, t.beyond), (90.0, 3, 300, 10));
        assert!((t.percentile - 90.0).abs() < 1e-12);
        // One slice, full or short, is the plain tail.
        let one: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(sliced_tail(&one, 100), tail(&one));
        assert_eq!(sliced_tail(&one, 1000), tail(&one));
    }

    #[test]
    fn throughput_is_ops_per_second_of_op_time() {
        assert_eq!(throughput(&[250.0, 250.0, 500.0]), 3.0);
        assert_eq!(throughput(&[]), 0.0);
    }

    #[test]
    fn geomean_of_ratios() {
        let g = geomean(&[2.0, 8.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12);
        let g = geomean(&[0.5, 2.0, 1.0]).unwrap();
        assert!((g - 1.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, f64::NAN]), None);
    }

    #[test]
    fn failures_count_against_attempts() {
        let mut t = Tally::default();
        t.ok();
        t.ok();
        t.fail("wrong tiles");
        t.record(None);
        t.record(Some("oracle mismatch".into()));
        assert_eq!((t.attempted, t.failed), (5, 2));
        assert!((t.failure_ratio() - 0.4).abs() < 1e-12);
        assert_eq!(t.reasons, vec!["wrong tiles", "oracle mismatch"]);
        assert_eq!(Tally::default().failure_ratio(), 0.0);
    }

    #[test]
    fn kept_reasons_are_bounded_but_counts_are_not() {
        let mut t = Tally::default();
        for i in 0..100 {
            t.fail(format!("failure {i}"));
        }
        assert_eq!(t.failed, 100);
        assert_eq!(t.reasons.len(), Tally::KEPT_REASONS);
    }

    #[test]
    fn splitmix_is_seeded() {
        let a: Vec<u64> = {
            let mut g = SplitMix::new(7, 1);
            (0..4).map(|_| g.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut g = SplitMix::new(7, 1);
            (0..4).map(|_| g.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut g = SplitMix::new(8, 1);
            (0..4).map(|_| g.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut g = SplitMix::new(1, 2);
        let mut items: Vec<usize> = (0..50).collect();
        g.shuffle(&mut items);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
