//! Percentiles, the metric list a run prints, and the result line.

/// The nearest-rank `p`-th percentile (`0 < p <= 100`) of ascending
/// `sorted`: the smallest sample with at least `p`% of all samples at or
/// below it. `None` for an empty slice.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted.get(rank.min(sorted.len()) - 1).copied()
}

/// Samples that lie beyond the nearest-rank `p`-th percentile.
pub fn beyond(n: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    n.saturating_sub(rank)
}

/// The p99 is reported only when at least this many samples lie beyond
/// it; with fewer, one stray sample would set it.
pub const MIN_BEYOND_P99: usize = 10;

/// Latency samples of one request kind, in microseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, us: f64) {
        self.0.push(us);
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    pub fn p50(&self) -> Option<f64> {
        nearest_rank(&self.sorted(), 50.0)
    }

    /// The nearest-rank p99, or `None` when fewer than
    /// [`MIN_BEYOND_P99`] samples lie beyond it.
    pub fn p99(&self) -> Option<f64> {
        if beyond(self.0.len(), 99.0) < MIN_BEYOND_P99 {
            return None;
        }
        nearest_rank(&self.sorted(), 99.0)
    }
}

/// Fewest samples a slice of a [`Series`] holds on average: two passes
/// over a TPC-D shape's five selects.
const SLICE_SAMPLES: usize = 10;
/// Most slices a window is cut into: one a second in a 25-second run.
const MAX_SLICES: usize = 25;
/// The slice percentile a run reports: of latencies the 10th (the third
/// quickest of 25 slices), of rates the 90th.
const QUICK_PCT: f64 = 10.0;

/// Timed requests of one kind over a window: when each completed
/// (seconds from the window's start) and how long it took (µs).
///
/// The host this was tuned on ran the same fixed loop anywhere from 1.1×
/// to 1.9× its best time from one second to the next, as other tenants
/// came and went, in phases lasting seconds. Such interference only ever
/// adds time. Rates and p50s are therefore taken per slice of the window
/// (equal spans of completion time, at most [`MAX_SLICES`], each holding
/// [`SLICE_SAMPLES`] requests or more on average) and the run reports its
/// quick slices: the nearest-rank [`QUICK_PCT`]th percentile of the slice
/// p50s and the (100 − [`QUICK_PCT`])th of the slice rates. A change to
/// the program moves every slice, the quickest too. A series too short
/// for two slices is one slice.
#[derive(Debug, Default, Clone)]
pub struct Series(Vec<(f64, f64)>);

impl Series {
    pub fn push(&mut self, done_s: f64, us: f64) {
        self.0.push((done_s, us));
    }

    pub fn extend(&mut self, other: Series) {
        self.0.extend(other.0);
    }

    /// The requests of each slice of a `seconds`-long window.
    fn slices(&self, seconds: f64) -> Vec<Vec<(f64, f64)>> {
        let k = (self.0.len() / SLICE_SAMPLES).clamp(1, MAX_SLICES);
        let mut out = vec![Vec::new(); k];
        for &(t, us) in &self.0 {
            let i = ((t / seconds) * k as f64) as usize;
            out[i.min(k - 1)].push((t, us));
        }
        out
    }

    /// Completions per second in the quick slices. A slice's rate is
    /// timed from its first completion to its last, so it reads as
    /// measured even when a slice holds only a few slow requests.
    pub fn rate(&self, seconds: f64) -> f64 {
        let slices = self.slices(seconds);
        let span = seconds / slices.len() as f64;
        let rates: Vec<f64> = slices
            .iter()
            .map(|s| {
                let first = s.iter().map(|&(t, _)| t).fold(f64::INFINITY, f64::min);
                let last = s.iter().map(|&(t, _)| t).fold(0.0, f64::max);
                if s.len() >= 2 && last > first {
                    (s.len() - 1) as f64 / (last - first)
                } else {
                    s.len() as f64 / span
                }
            })
            .collect();
        percentile(rates, 100.0 - QUICK_PCT).unwrap_or(0.0)
    }

    /// The p50 of the quick slices.
    pub fn p50(&self, seconds: f64) -> Option<f64> {
        let p50s = self
            .slices(seconds)
            .iter()
            .filter_map(|s| {
                let mut v: Vec<f64> = s.iter().map(|&(_, us)| us).collect();
                v.sort_by(f64::total_cmp);
                nearest_rank(&v, 50.0)
            })
            .collect();
        percentile(p50s, QUICK_PCT)
    }

    /// Every latency of the window, unsliced.
    fn all(&self) -> Samples {
        let mut all = Samples::default();
        for &(_, us) in &self.0 {
            all.push(us);
        }
        all
    }

    /// The window's p50 over every request, unsliced: comparable with
    /// the plain p50s the traced replay takes.
    pub fn p50_unsliced(&self) -> Option<f64> {
        self.all().p50()
    }

    /// The window's p99, or `None` when fewer than [`MIN_BEYOND_P99`]
    /// samples lie beyond it.
    pub fn p99(&self) -> Option<f64> {
        self.all().p99()
    }
}

/// The nearest-rank `p`-th percentile of unsorted `v`.
fn percentile(mut v: Vec<f64>, p: f64) -> Option<f64> {
    v.sort_by(f64::total_cmp);
    nearest_rank(&v, p)
}

/// Named metrics in the order they were recorded.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.push((name.to_string(), value, unit));
    }

    /// Records `value` when there is one; a metric without a sample is
    /// left out rather than replaced by another figure.
    pub fn put_some(&mut self, name: &str, value: Option<f64>, unit: &'static str) {
        if let Some(v) = value {
            self.put(name, v, unit);
        }
    }

    #[cfg(test)]
    pub fn names(&self) -> Vec<&str> {
        self.0.iter().map(|(n, _, _)| n.as_str()).collect()
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("{}: {{\"value\": {v:?}, \"unit\": {}}}", quote(n), quote(u)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Requests attempted and requests that failed: refused, errored, or
/// answered wrongly.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        self.failed as f64 / self.attempted as f64
    }
}

/// The line a run ends with.
pub fn result_line(tally: Tally, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed,
        metrics.to_json()
    )
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_a_known_vector() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50.0), Some(5.0));
        assert_eq!(nearest_rank(&v, 90.0), Some(9.0));
        assert_eq!(nearest_rank(&v, 91.0), Some(10.0));
        assert_eq!(nearest_rank(&v, 99.0), Some(10.0));
        assert_eq!(nearest_rank(&v, 100.0), Some(10.0));
        assert_eq!(nearest_rank(&v, 1.0), Some(1.0));
        assert_eq!(nearest_rank(&[7.0], 50.0), Some(7.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
        let w = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(nearest_rank(&w, 30.0), Some(20.0));
        assert_eq!(nearest_rank(&w, 40.0), Some(20.0));
        assert_eq!(nearest_rank(&w, 50.0), Some(35.0));
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(999, 99.0), 9);
        let mut s = Samples::default();
        for i in 0..999 {
            s.push(f64::from(i));
        }
        assert_eq!(s.p99(), None, "9 samples beyond: no p99");
        s.push(999.0);
        assert_eq!(s.p99(), Some(989.0), "10 samples beyond: rank 990");
        assert_eq!(s.p50(), Some(499.0));
    }

    #[test]
    fn series_reports_its_quick_slices() {
        // 10 s at 1,000/s, with the 4th second stalled: 100 slow requests.
        let mut s = Series::default();
        for i in 0..10_000 {
            let t = f64::from(i) / 1_000.0;
            let stalled = (3.0..4.0).contains(&t);
            if !stalled || i % 10 == 0 {
                s.push(t, if stalled { 9_000.0 } else { 100.0 });
            }
        }
        assert_eq!(s.slices(10.0).len(), MAX_SLICES);
        assert_eq!(s.p50(10.0), Some(100.0));
        assert!((s.rate(10.0) - 1_000.0).abs() < 1e-6, "{}", s.rate(10.0));
        assert_eq!(s.p99(), Some(9_000.0), "100 of 9,100 samples are slow");
        assert_eq!(s.p50_unsliced(), Some(100.0));
        // Ten slices of ten, each slower than the one before.
        let mut short = Series::default();
        for i in 0..100 {
            short.push(f64::from(i) / 10.0, f64::from(i));
        }
        assert_eq!(short.slices(10.0).len(), 10);
        assert_eq!(short.p50(10.0), Some(4.0), "the quickest slice's p50");
        assert!((short.rate(10.0) - 10.0).abs() < 1e-9);
        assert_eq!(short.p99(), None);
        assert_eq!(short.p50_unsliced(), Some(49.0));
        // One slice: its plain p50, and its rate first to last.
        let mut few = Series::default();
        for i in 0..5 {
            few.push(1.0 + f64::from(i), f64::from(i));
        }
        assert_eq!(few.slices(10.0).len(), 1);
        assert_eq!(few.p50(10.0), Some(2.0));
        assert_eq!(few.rate(10.0), 1.0);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut m = Metrics::default();
        m.put("read_qps", 1234.5, "1/s");
        m.put_some("read_p99_us", None, "us");
        let t = Tally {
            attempted: 3,
            failed: 0,
        };
        assert_eq!(
            result_line(t, &m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"read_qps\": {\"value\": 1234.5, \"unit\": \"1/s\"}}}"
        );
    }
}
