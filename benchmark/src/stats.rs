//! Order statistics and means used for every reported number.

/// Nearest-rank percentile (`0 < p <= 100`) of an ascending-sorted slice:
/// the smallest sample with at least `p` percent of the samples at or below
/// it. 0.0 for an empty slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `values` in place and returns its nearest-rank percentile.
pub fn percentile(values: &mut [f64], p: f64) -> f64 {
    values.sort_unstable_by(f64::total_cmp);
    percentile_sorted(values, p)
}

/// Median: mean of the two middle samples for an even count.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Geometric mean of positive values; 0.0 for an empty input.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (mut log_sum, mut n) = (0.0, 0usize);
    for v in values {
        log_sum += v.ln();
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        (log_sum / n as f64).exp()
    }
}

/// `part / whole`, 0.0 when `whole` is 0.
pub fn share(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// What is kept of one closed window.
#[derive(Clone, Copy, Debug)]
struct Window {
    /// Which second of the phase.
    second: usize,
    count: usize,
    mean: f64,
    p50: f64,
    p90: f64,
    p99: f64,
}

/// A summary every window carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stat {
    Mean,
    P50,
    P90,
    P99,
}

/// One client's latency samples, summarised by the one-second window of the
/// measured phase they completed in.
///
/// The serving latencies are reported as the *median over windows* of each
/// window's mean or percentile: this host's speed shifts for a second or two
/// at a time, and one slow second would otherwise own the whole run's p99.
/// Each client's second is a window of its own. Only the open window's
/// samples are held: a `serve-hot` run makes 1.4 M of them, and kept whole
/// they were half of the `peak_rss_mb` the run reported.
#[derive(Clone, Debug, Default)]
pub struct Windowed {
    open: Vec<f64>,
    open_second: usize,
    closed: Vec<Window>,
}

impl Windowed {
    /// Records `value` as completed `at_s` seconds into the phase. A client
    /// records in the order its requests complete, so a sample of a later
    /// second closes the window before it.
    pub fn record(&mut self, at_s: f64, value: f64) {
        let second = at_s.max(0.0) as usize;
        if second != self.open_second {
            self.close();
            self.open_second = second;
        }
        self.open.push(value);
    }

    fn close(&mut self) {
        if self.open.is_empty() {
            return;
        }
        self.open.sort_unstable_by(f64::total_cmp);
        self.closed.push(Window {
            second: self.open_second,
            count: self.open.len(),
            mean: self.open.iter().sum::<f64>() / self.open.len() as f64,
            p50: percentile_sorted(&self.open, 50.0),
            p90: percentile_sorted(&self.open, 90.0),
            p99: percentile_sorted(&self.open, 99.0),
        });
        self.open.clear();
    }

    /// Adds another client's windows to this one's.
    pub fn merge(&mut self, mut other: Windowed) {
        self.close();
        other.close();
        self.closed.extend(other.closed);
    }

    pub fn count(&self) -> usize {
        self.open.len() + self.closed.iter().map(|w| w.count).sum::<usize>()
    }

    /// Median of `stat` over the *complete* windows (seconds
    /// `0..whole_seconds`); over whatever windows there are when the phase
    /// was shorter than one.
    pub fn median_of(&mut self, stat: Stat, whole_seconds: usize) -> f64 {
        self.close();
        let of = |w: &Window| match stat {
            Stat::Mean => w.mean,
            Stat::P50 => w.p50,
            Stat::P90 => w.p90,
            Stat::P99 => w.p99,
        };
        let mut complete: Vec<f64> = self
            .closed
            .iter()
            .filter(|w| w.second < whole_seconds)
            .map(of)
            .collect();
        if complete.is_empty() {
            complete = self.closed.iter().map(of).collect();
        }
        median(&mut complete)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank_by_hand() {
        let mut v: Vec<f64> = (1..=10).map(f64::from).rev().collect();
        assert_eq!(percentile(&mut v, 50.0), 5.0);
        assert_eq!(percentile(&mut v, 90.0), 9.0);
        assert_eq!(percentile(&mut v, 91.0), 10.0);
        assert_eq!(percentile(&mut v, 100.0), 10.0);
        assert_eq!(percentile(&mut v, 1.0), 1.0);
        assert_eq!(percentile(&mut [], 50.0), 0.0);
    }

    #[test]
    fn median_and_geomean_by_hand() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((geomean([1.0, 10.0, 100.0]) - 10.0).abs() < 1e-12);
        assert!((geomean([2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean([]), 0.0);
    }

    #[test]
    fn windowed_median_ignores_one_bad_second() {
        // Two clients, five seconds of 100 samples each.
        let mut clients = [Windowed::default(), Windowed::default()];
        for w in &mut clients {
            for s in 0..5 {
                for i in 0..100 {
                    // Second 2 is ten times slower than the others.
                    let scale = if s == 2 { 10.0 } else { 1.0 };
                    w.record(s as f64 + i as f64 / 100.0, scale * (i + 1) as f64);
                }
            }
        }
        // A sample in the incomplete sixth window is not a window of its own.
        clients[0].record(5.2, 1e9);
        let [mut all, other] = clients;
        all.merge(other);
        assert_eq!(all.median_of(Stat::P99, 5), 99.0);
        assert_eq!(all.median_of(Stat::P50, 5), 50.0);
        assert_eq!(all.median_of(Stat::Mean, 5), 50.5);
        assert_eq!(all.count(), 1001);
        // A phase shorter than one window falls back to what there is.
        let mut short = Windowed::default();
        short.record(0.1, 3.0);
        short.record(0.2, 5.0);
        assert_eq!(short.median_of(Stat::Mean, 0), 4.0);
    }
}
