//! Order statistics for the ledger: medians, nearest-rank percentiles, the
//! highest percentile a sample supports, Python-compatible quartiles, and a
//! fixed-memory latency recorder.

/// Median of a sample in any order (mean of the two middle values when
/// the length is even). Panics on an empty sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending slice: the smallest value with
/// at least `p` percent of the sample at or below it. Panics on an empty
/// slice or a `p` outside `(0, 100]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of range");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Candidate tail percentiles in per mille, highest first.
const TAILS_PER_MILLE: [usize; 5] = [999, 990, 950, 900, 750];

/// The highest percentile among 99.9/99/95/90/75 that still has at least
/// ten samples beyond it in a sample of `n`, or `None` when even p75 does
/// not (fewer than 40 samples).
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAILS_PER_MILLE
        .into_iter()
        .find(|per_mille| n * (1_000 - per_mille) >= 10 * 1_000)
        .map(|per_mille| per_mille as f64 / 10.0)
}

/// Quartiles exactly as Python's `statistics.quantiles(values, n=4)`
/// (the default "exclusive" method) computes them, so spreads printed here
/// can be compared with the driver's. Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let len = data.len();
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// Interquartile range as a share of the median — the spread the driver
/// compares with a metric's bound.
pub fn iqr_share(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2
}

/// A latency recorder whose memory does not depend on how many samples it
/// sees, so a faster program under test does not show up as a larger
/// `rss_mb` of the harness. It keeps every `stride`-th sample; when
/// the buffer fills it drops every other kept sample and doubles the
/// stride. The buffer is touched at construction.
#[derive(Debug)]
pub struct Recorder {
    buf: Vec<u64>,
    len: usize,
    stride: u64,
    seen: u64,
}

impl Recorder {
    /// A recorder keeping at most `capacity` samples (even, at least 2).
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity >= 2 && capacity.is_multiple_of(2));
        Self {
            buf: vec![0; capacity],
            len: 0,
            stride: 1,
            seen: 0,
        }
    }

    /// Offers one sample (nanoseconds).
    pub fn record(&mut self, nanos: u64) {
        if self.seen.is_multiple_of(self.stride) {
            if self.len == self.buf.len() {
                // The kept samples are 0, s, 2s, … and the capacity is
                // even, so the sample arriving now is a multiple of 2s
                // and stays aligned with the halved buffer.
                for i in 0..self.len / 2 {
                    self.buf[i] = self.buf[2 * i];
                }
                self.len /= 2;
                self.stride *= 2;
            }
            self.buf[self.len] = nanos;
            self.len += 1;
        }
        self.seen += 1;
    }

    /// Samples offered so far (kept or not).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The kept samples, in arrival order.
    pub fn kept(&self) -> &[u64] {
        &self.buf[..self.len]
    }
}

/// Summary of one operation class over a timed phase.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Operations completed (every sample offered, not just those kept).
    pub count: u64,
    /// Median latency in microseconds: the median over the windows of
    /// each window's own median.
    pub p50_us: f64,
    /// Operations completed per second: the median over the windows of
    /// each window's own rate.
    pub per_s: f64,
    /// The tail percentile the whole phase's sample supports (see
    /// [`tail_percentile`]), 0 when it supports none.
    pub tail_pct: f64,
    /// Latency at `tail_pct` in microseconds (0 when unsupported).
    pub tail_us: f64,
    /// Each window's median latency in microseconds (windows that
    /// completed nothing are left out).
    pub window_p50_us: Vec<f64>,
}

fn sorted_micros(recorders: &[&Recorder]) -> Vec<f64> {
    let mut micros: Vec<f64> = recorders
        .iter()
        .flat_map(|r| r.kept().iter().map(|&ns| ns as f64 / 1e3))
        .collect();
    micros.sort_by(f64::total_cmp);
    micros
}

/// Summarises one operation class over a phase given, per window, the
/// threads' recorders and the window's length in seconds. Panics when no
/// window completed an operation: such a phase has nothing to report.
pub fn summarize(windows: &[(Vec<&Recorder>, f64)]) -> Summary {
    let mut window_p50_us = Vec::new();
    let mut rates = Vec::new();
    for (recorders, seconds) in windows {
        let micros = sorted_micros(recorders);
        if !micros.is_empty() {
            window_p50_us.push(median(&micros));
        }
        rates.push(recorders.iter().map(|r| r.seen()).sum::<u64>() as f64 / seconds);
    }
    assert!(!window_p50_us.is_empty(), "phase completed no operation");
    let all: Vec<&Recorder> = windows
        .iter()
        .flat_map(|(r, _)| r.iter().copied())
        .collect();
    let micros = sorted_micros(&all);
    let tail_pct = tail_percentile(micros.len());
    Summary {
        count: all.iter().map(|r| r.seen()).sum(),
        p50_us: median(&window_p50_us),
        per_s: median(&rates),
        tail_pct: tail_pct.unwrap_or(0.0),
        tail_us: tail_pct.map_or(0.0, |p| percentile(&micros, p)),
        window_p50_us,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[9.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 9.0, 2.0]), 3.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 99.5), 100.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.5), 1.0);
        assert_eq!(percentile(&[3.0], 99.0), 3.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 2, 7], n=4) == [2.0, 7.0, 10.0]
        assert_eq!(quartiles(&[10.0, 2.0, 7.0]), [2.0, 7.0, 10.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn recorder_decimates_evenly_and_counts_everything() {
        let mut r = Recorder::with_capacity(8);
        for i in 0..100u64 {
            r.record(i);
        }
        assert_eq!(r.seen(), 100);
        // Kept samples are an arithmetic progression from 0.
        let kept = r.kept();
        assert!(kept.len() > 4 && kept.len() <= 8);
        let stride = kept[1] - kept[0];
        assert!(stride.is_power_of_two());
        for (i, &v) in kept.iter().enumerate() {
            assert_eq!(v, i as u64 * stride);
        }
    }

    #[test]
    fn recorder_below_capacity_keeps_all() {
        let mut r = Recorder::with_capacity(8);
        for i in 0..8u64 {
            r.record(i * 10);
        }
        assert_eq!(r.kept(), &[0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn summarize_takes_medians_over_windows_and_tails_over_everything() {
        // Three one-second windows, two threads each; the third window is
        // disturbed: ten times slower, a third of the operations.
        let window = |base: u64, ops: u64| {
            let mut a = Recorder::with_capacity(64);
            let mut b = Recorder::with_capacity(64);
            for i in 1..=ops {
                a.record((base + i) * 1_000);
                b.record((base + i + ops) * 1_000);
            }
            (a, b)
        };
        let (w1, w2, w3) = (window(0, 10), window(2, 10), window(300, 3));
        let windows = [
            (vec![&w1.0, &w1.1], 1.0),
            (vec![&w2.0, &w2.1], 1.0),
            (vec![&w3.0, &w3.1], 2.0),
        ];
        let s = summarize(&windows);
        assert_eq!(s.count, 46);
        assert_eq!(s.window_p50_us, vec![10.5, 12.5, 303.5]);
        assert_eq!(s.p50_us, 12.5);
        assert_eq!(s.per_s, 20.0);
        // 46 samples: p75 is the highest percentile with ten beyond it.
        assert_eq!(s.tail_pct, 75.0);
        assert_eq!(s.tail_us, 19.0);
    }

    #[test]
    fn summarize_skips_empty_windows_for_latency_but_not_for_rate() {
        let mut busy = Recorder::with_capacity(8);
        busy.record(5_000);
        let idle = Recorder::with_capacity(8);
        let s = summarize(&[(vec![&busy], 1.0), (vec![&idle], 1.0), (vec![&idle], 1.0)]);
        assert_eq!(s.window_p50_us, vec![5.0]);
        assert_eq!(s.per_s, 0.0);
    }
}
