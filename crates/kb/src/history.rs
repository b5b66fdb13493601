//! Historical batch store for learning agents.
//!
//! Besides the live Resource Registry, the KB keeps "historical batch
//! data needed to implement, for example, Reinforcement Learning-based
//! strategy within the Network Manager" (paper Sect. VI). This module is
//! a per-series append-only time-series store with window queries and
//! fixed-bucket downsampling, plus bounded retention.

use std::collections::BTreeMap;

use myrtus_continuum::stats::Summary;
use myrtus_continuum::time::{SimDuration, SimTime};

/// One sample of a series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Sample instant.
    pub at: SimTime,
    /// Value.
    pub value: f64,
}

/// Append-only store of named time series with bounded retention.
///
/// # Examples
///
/// ```
/// use myrtus_kb::history::HistoryStore;
/// use myrtus_continuum::time::SimTime;
///
/// let mut h = HistoryStore::new(1_000);
/// h.append("edge-0/util", SimTime::from_millis(1), 0.25);
/// h.append("edge-0/util", SimTime::from_millis(2), 0.75);
/// let s = h.summary("edge-0/util", SimTime::ZERO, SimTime::from_secs(1)).unwrap();
/// assert_eq!(s.count, 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct HistoryStore {
    series: BTreeMap<String, Vec<Sample>>,
    max_samples_per_series: usize,
}

impl HistoryStore {
    /// Creates a store that retains at most `max_samples_per_series`
    /// samples per series (oldest evicted first); 0 means unbounded.
    pub fn new(max_samples_per_series: usize) -> Self {
        HistoryStore { series: BTreeMap::new(), max_samples_per_series }
    }

    /// Appends a sample.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when samples go backwards in time within a
    /// series.
    pub fn append(&mut self, series: impl Into<String>, at: SimTime, value: f64) {
        let v = self.series.entry(series.into()).or_default();
        debug_assert!(v.last().is_none_or(|s| s.at <= at), "samples must be in time order");
        v.push(Sample { at, value });
        if self.max_samples_per_series > 0 && v.len() > self.max_samples_per_series {
            let excess = v.len() - self.max_samples_per_series;
            v.drain(..excess);
        }
    }

    /// Names of the stored series.
    pub fn series_names(&self) -> Vec<&str> {
        self.series.keys().map(String::as_str).collect()
    }

    /// Number of samples in a series.
    pub fn len(&self, series: &str) -> usize {
        self.series.get(series).map_or(0, Vec::len)
    }

    /// Whether the store holds no series.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// Samples of `series` with `from <= at < to`.
    pub fn window(&self, series: &str, from: SimTime, to: SimTime) -> Vec<Sample> {
        self.series
            .get(series)
            .map(|v| v.iter().filter(|s| s.at >= from && s.at < to).copied().collect())
            .unwrap_or_default()
    }

    /// Statistical summary of a window, if it holds samples.
    pub fn summary(&self, series: &str, from: SimTime, to: SimTime) -> Option<Summary> {
        let vals: Vec<f64> = self.window(series, from, to).iter().map(|s| s.value).collect();
        Summary::of(&vals)
    }

    /// Downsamples a window into fixed `bucket`-wide means (empty buckets
    /// are skipped). Returns `(bucket start, mean)` pairs.
    pub fn downsample(
        &self,
        series: &str,
        from: SimTime,
        to: SimTime,
        bucket: SimDuration,
    ) -> Vec<(SimTime, f64)> {
        if bucket.is_zero() {
            return Vec::new();
        }
        let mut out: Vec<(SimTime, f64)> = Vec::new();
        let mut acc: BTreeMap<u64, (f64, usize)> = BTreeMap::new();
        for s in self.window(series, from, to) {
            let idx = (s.at.as_micros() - from.as_micros()) / bucket.as_micros();
            let e = acc.entry(idx).or_insert((0.0, 0));
            e.0 += s.value;
            e.1 += 1;
        }
        for (idx, (sum, n)) in acc {
            let start = from + SimDuration::from_micros(idx * bucket.as_micros());
            out.push((start, sum / n as f64));
        }
        out
    }

    /// Latest sample of a series.
    pub fn latest(&self, series: &str) -> Option<Sample> {
        self.series.get(series).and_then(|v| v.last().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_is_half_open() {
        let mut h = HistoryStore::new(0);
        for ms in [1u64, 2, 3, 4] {
            h.append("s", SimTime::from_millis(ms), ms as f64);
        }
        let w = h.window("s", SimTime::from_millis(2), SimTime::from_millis(4));
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].value, 2.0);
        assert_eq!(w[1].value, 3.0);
    }

    #[test]
    fn retention_evicts_oldest() {
        let mut h = HistoryStore::new(3);
        for ms in 1..=5u64 {
            h.append("s", SimTime::from_millis(ms), ms as f64);
        }
        assert_eq!(h.len("s"), 3);
        assert_eq!(h.window("s", SimTime::ZERO, SimTime::from_secs(1))[0].value, 3.0);
    }

    #[test]
    fn downsample_means_per_bucket() {
        let mut h = HistoryStore::new(0);
        // Two samples in bucket 0, one in bucket 2.
        h.append("s", SimTime::from_millis(1), 1.0);
        h.append("s", SimTime::from_millis(2), 3.0);
        h.append("s", SimTime::from_millis(25), 10.0);
        let ds = h.downsample(
            "s",
            SimTime::ZERO,
            SimTime::from_millis(100),
            SimDuration::from_millis(10),
        );
        assert_eq!(ds.len(), 2);
        assert_eq!(ds[0], (SimTime::ZERO, 2.0));
        assert_eq!(ds[1], (SimTime::from_millis(20), 10.0));
    }

    #[test]
    fn empty_series_queries_are_benign() {
        let h = HistoryStore::new(0);
        assert!(h.window("nope", SimTime::ZERO, SimTime::MAX).is_empty());
        assert!(h.summary("nope", SimTime::ZERO, SimTime::MAX).is_none());
        assert!(h.latest("nope").is_none());
        assert_eq!(h.len("nope"), 0);
    }

    #[test]
    fn latest_and_names() {
        let mut h = HistoryStore::new(0);
        h.append("a", SimTime::from_millis(1), 1.0);
        h.append("b", SimTime::from_millis(2), 2.0);
        assert_eq!(h.latest("b").map(|s| s.value), Some(2.0));
        assert_eq!(h.series_names(), vec!["a", "b"]);
    }
}
