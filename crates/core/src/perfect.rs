//! The perfect (exact) interval profiler — ground truth for error metrics.
//!
//! §5.5.1: *"For each interval, we compare the candidates captured by our
//! profiler to the candidates seen by a perfect profiler."* The perfect
//! profiler keeps an exact count for every distinct tuple of the interval
//! (unbounded storage — it is a measurement instrument, not hardware).
//!
//! Error analysis needs more than the candidate list: classifying a hardware
//! *false positive* requires the true (below-threshold) frequency of that
//! tuple. [`PerfectProfiler::observe_exact`] therefore returns the complete
//! per-interval count map ([`ExactCounts`]), from which the candidate-only
//! [`IntervalProfile`] can be derived.

use std::collections::HashMap;

use crate::interval::IntervalConfig;
use crate::profile::{Candidate, IntervalProfile};
use crate::profiler::EventProfiler;
use crate::state::{self, SnapshotError, SnapshotReader, SnapshotWriter, KIND_PERFECT};
use crate::tuple::Tuple;

/// The exact per-tuple counts of one completed interval.
///
/// # Examples
///
/// ```
/// use mhp_core::{IntervalConfig, PerfectProfiler, Tuple};
/// let mut perfect = PerfectProfiler::new(IntervalConfig::new(4, 0.5).unwrap());
/// perfect.observe_exact(Tuple::new(1, 1));
/// perfect.observe_exact(Tuple::new(1, 1));
/// perfect.observe_exact(Tuple::new(2, 2));
/// let exact = perfect.observe_exact(Tuple::new(1, 1)).expect("interval done");
/// assert_eq!(exact.count_of(Tuple::new(1, 1)), 3);
/// assert_eq!(exact.distinct_tuples(), 2);
/// // Threshold is 2 occurrences: only <1,1> is a candidate.
/// assert_eq!(exact.profile().len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct ExactCounts {
    interval_index: u64,
    config: IntervalConfig,
    counts: HashMap<Tuple, u64>,
}

impl ExactCounts {
    /// Zero-based index of the interval.
    #[inline]
    pub fn interval_index(&self) -> u64 {
        self.interval_index
    }

    /// The interval configuration.
    #[inline]
    pub fn config(&self) -> IntervalConfig {
        self.config
    }

    /// The exact occurrence count of `tuple` in this interval (0 if it never
    /// occurred).
    #[inline]
    pub fn count_of(&self, tuple: Tuple) -> u64 {
        self.counts.get(&tuple).copied().unwrap_or(0)
    }

    /// Number of distinct tuples seen in the interval (Figure 4's metric).
    #[inline]
    pub fn distinct_tuples(&self) -> usize {
        self.counts.len()
    }

    /// The full count map.
    #[inline]
    pub fn counts(&self) -> &HashMap<Tuple, u64> {
        &self.counts
    }

    /// True candidates: tuples whose count reached the threshold (Figure 5's
    /// metric), as an [`IntervalProfile`].
    pub fn profile(&self) -> IntervalProfile {
        let threshold = self.config.threshold_count();
        let candidates: Vec<Candidate> = self
            .counts
            .iter()
            .filter(|(_, &c)| c >= threshold)
            .map(|(&t, &c)| Candidate::new(t, c))
            .collect();
        IntervalProfile::from_candidates(self.interval_index, self.config, candidates)
    }
}

/// An exact interval profiler with unbounded storage.
///
/// Implements [`EventProfiler`] (emitting candidate-only profiles); use
/// [`observe_exact`](Self::observe_exact) when the full count map is needed.
#[derive(Debug, Clone)]
pub struct PerfectProfiler {
    interval: IntervalConfig,
    counts: HashMap<Tuple, u64>,
    events: u64,
    interval_idx: u64,
}

impl PerfectProfiler {
    /// Creates a perfect profiler for the given interval configuration.
    pub fn new(interval: IntervalConfig) -> Self {
        PerfectProfiler {
            interval,
            counts: HashMap::new(),
            events: 0,
            interval_idx: 0,
        }
    }

    /// Feeds one event; returns the exact counts when an interval completes.
    pub fn observe_exact(&mut self, tuple: Tuple) -> Option<ExactCounts> {
        *self.counts.entry(tuple).or_insert(0) += 1;
        self.events += 1;
        if self.interval.is_boundary(self.events) {
            Some(self.end_interval_exact())
        } else {
            None
        }
    }

    /// Ends the current interval immediately, returning the exact counts
    /// gathered so far (the [`ExactCounts`] twin of
    /// [`EventProfiler::finish_interval`]).
    pub fn end_interval_exact(&mut self) -> ExactCounts {
        let exact = ExactCounts {
            interval_index: self.interval_idx,
            config: self.interval,
            counts: std::mem::take(&mut self.counts),
        };
        self.events = 0;
        self.interval_idx += 1;
        exact
    }
}

impl EventProfiler for PerfectProfiler {
    fn interval_config(&self) -> IntervalConfig {
        self.interval
    }

    fn observe(&mut self, tuple: Tuple) -> Option<IntervalProfile> {
        self.observe_exact(tuple).map(|exact| exact.profile())
    }

    fn observe_batch(&mut self, batch: &[Tuple]) -> Vec<IntervalProfile> {
        // Inlined count/boundary loop: skips the per-event `ExactCounts`
        // option plumbing of `observe` (profiles are only materialized at
        // actual boundaries, which externally-cut shard profilers never hit).
        let mut out = Vec::new();
        for &tuple in batch {
            *self.counts.entry(tuple).or_insert(0) += 1;
            self.events += 1;
            if self.interval.is_boundary(self.events) {
                out.push(self.end_interval_exact().profile());
            }
        }
        out
    }

    fn finish_interval(&mut self) -> IntervalProfile {
        self.end_interval_exact().profile()
    }

    fn hot_tuples(&self, k: usize) -> Vec<Candidate> {
        let pairs: Vec<(Tuple, u64)> = self.counts.iter().map(|(&t, &c)| (t, c)).collect();
        crate::rank::top_k_by_count(pairs, k)
            .into_iter()
            .map(|(tuple, count)| Candidate::new(tuple, count))
            .collect()
    }

    fn reset(&mut self) {
        self.counts.clear();
        self.events = 0;
        self.interval_idx = 0;
    }

    fn private_bytes(&self) -> usize {
        self.counts.capacity() * (std::mem::size_of::<Tuple>() + std::mem::size_of::<u64>() + 1)
    }

    fn events_in_current_interval(&self) -> u64 {
        self.events
    }

    fn interval_index(&self) -> u64 {
        self.interval_idx
    }

    fn save_state(&self) -> Result<Vec<u8>, SnapshotError> {
        let mut w = SnapshotWriter::new(KIND_PERFECT);
        state::put_interval(&mut w, &self.interval);
        w.put_u64(self.events);
        w.put_u64(self.interval_idx);
        // Sorted by tuple so equal state always snapshots to equal bytes.
        let mut counts: Vec<(Tuple, u64)> = self.counts.iter().map(|(&t, &c)| (t, c)).collect();
        counts.sort_by_key(|&(t, _)| t);
        w.put_u64(counts.len() as u64);
        for (tuple, count) in counts {
            let (pc, value) = tuple.into();
            w.put_u64(pc);
            w.put_u64(value);
            w.put_u64(count);
        }
        Ok(w.finish())
    }

    fn restore_state(&mut self, snapshot: &[u8]) -> Result<(), SnapshotError> {
        let mut r = SnapshotReader::open(snapshot, KIND_PERFECT)?;
        state::check_interval(&mut r, &self.interval)?;
        let events = r.take_u64("event count")?;
        let interval_idx = r.take_u64("interval index")?;
        let count = r.take_count(24, "count entries")?;
        let mut counts = HashMap::with_capacity(count);
        let mut last: Option<Tuple> = None;
        for _ in 0..count {
            let pc = r.take_u64("entry pc")?;
            let value = r.take_u64("entry value")?;
            let n = r.take_u64("entry count")?;
            let tuple = Tuple::new(pc, value);
            // Written sorted; anything out of order (or equal) is corruption.
            if last.is_some_and(|prev| prev >= tuple) {
                return Err(SnapshotError::Corrupt {
                    context: "count entries out of order",
                });
            }
            last = Some(tuple);
            counts.insert(tuple, n);
        }
        r.expect_end()?;
        // All fields validated: commit (errors above leave state untouched).
        self.events = events;
        self.interval_idx = interval_idx;
        self.counts = counts;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(len: u64, frac: f64) -> IntervalConfig {
        IntervalConfig::new(len, frac).unwrap()
    }

    #[test]
    fn counts_are_exact() {
        let mut p = PerfectProfiler::new(config(10, 0.3));
        let mut exact = None;
        for i in 0..10u64 {
            let t = Tuple::new(i % 3, 0);
            if let Some(e) = p.observe_exact(t) {
                exact = Some(e);
            }
        }
        let exact = exact.unwrap();
        assert_eq!(exact.count_of(Tuple::new(0, 0)), 4); // i = 0,3,6,9
        assert_eq!(exact.count_of(Tuple::new(1, 0)), 3);
        assert_eq!(exact.count_of(Tuple::new(2, 0)), 3);
        assert_eq!(exact.count_of(Tuple::new(9, 9)), 0);
        assert_eq!(exact.distinct_tuples(), 3);
    }

    #[test]
    fn candidates_respect_threshold() {
        let mut p = PerfectProfiler::new(config(10, 0.4)); // threshold = 4
        let mut exact = None;
        for i in 0..10u64 {
            let t = Tuple::new(i % 3, 0);
            if let Some(e) = p.observe_exact(t) {
                exact = Some(e);
            }
        }
        let profile = exact.unwrap().profile();
        assert_eq!(profile.len(), 1);
        assert_eq!(profile.count_of(Tuple::new(0, 0)), Some(4));
    }

    #[test]
    fn intervals_are_disjoint() {
        let mut p = PerfectProfiler::new(config(5, 0.2));
        let mut exacts = Vec::new();
        for i in 0..10u64 {
            let t = Tuple::new(i / 5, 0); // tuple 0 in first interval, 1 in second
            if let Some(e) = p.observe_exact(t) {
                exacts.push(e);
            }
        }
        assert_eq!(exacts.len(), 2);
        assert_eq!(exacts[0].count_of(Tuple::new(0, 0)), 5);
        assert_eq!(exacts[0].count_of(Tuple::new(1, 0)), 0);
        assert_eq!(exacts[1].count_of(Tuple::new(1, 0)), 5);
        assert_eq!(exacts[1].interval_index(), 1);
    }

    #[test]
    fn event_profiler_impl_emits_candidate_profiles() {
        let mut p = PerfectProfiler::new(config(4, 0.5));
        assert!(p.observe(Tuple::new(1, 1)).is_none());
        assert!(p.observe(Tuple::new(1, 1)).is_none());
        assert!(p.observe(Tuple::new(2, 2)).is_none());
        let profile = p.observe(Tuple::new(3, 3)).unwrap();
        assert_eq!(profile.len(), 1); // only <1,1> reached 2 occurrences
    }

    #[test]
    fn observe_batch_matches_per_event() {
        let stream: Vec<Tuple> = (0..1_000u64).map(|i| Tuple::new(i % 23, i % 7)).collect();
        let mut a = PerfectProfiler::new(config(300, 0.05));
        let mut b = a.clone();
        let expected: Vec<IntervalProfile> = stream.iter().filter_map(|&t| a.observe(t)).collect();
        let mut got = Vec::new();
        for chunk in stream.chunks(101) {
            got.extend(b.observe_batch(chunk));
        }
        assert_eq!(got, expected);
        assert_eq!(a.counts, b.counts);
        assert_eq!(
            a.events_in_current_interval(),
            b.events_in_current_interval()
        );
        assert_eq!(a.interval_index(), b.interval_index());
    }

    #[test]
    fn reset_clears_state() {
        let mut p = PerfectProfiler::new(config(10, 0.5));
        p.observe(Tuple::new(1, 1));
        p.reset();
        assert_eq!(p.events_in_current_interval(), 0);
        assert_eq!(p.interval_index(), 0);
    }
}
