//! The single-hash interval profiler (§5).
//!
//! One untagged hash table of counters feeds the accumulator table. The table
//! has no tags, so distinct tuples that hash to the same counter *alias*:
//! their combined count can push the counter over the threshold and promote a
//! tuple that is not actually a candidate (a false positive). The paper's
//! single-hash optimizations attack exactly this:
//!
//! * **shielding** (always on, §5.2) — accumulated tuples stop feeding the
//!   hash table, lowering pressure;
//! * **resetting** (`R1`, §5.4.2) — a counter is zeroed when its tuple is
//!   promoted, so aliasing followers do not inherit a hot counter;
//! * **retaining** (`P1`, §5.4.1) — last interval's candidates stay resident
//!   (and shielded) into the next interval.

use std::sync::Arc;

use crate::accumulator::AccumulatorTable;
use crate::counter::{CounterArray, COUNTER_MAX};
use crate::error::ConfigError;
use crate::hash::TupleHasher;
use crate::interval::IntervalConfig;
use crate::introspect::{IntervalTally, IntrospectionSink, SinkHandle, SketchSnapshot};
use crate::profile::{Candidate, IntervalProfile};
use crate::profiler::EventProfiler;
use crate::state::{self, SnapshotError, SnapshotReader, SnapshotWriter, KIND_SINGLE_HASH};
use crate::tuple::Tuple;

/// Configuration of a [`SingleHashProfiler`]: hash-table size and the paper's
/// `P` (retaining) / `R` (resetting) switches.
///
/// # Examples
///
/// ```
/// use mhp_core::SingleHashConfig;
/// # fn main() -> Result<(), mhp_core::ConfigError> {
/// // The paper's "best single hash" (BSH): 2K entries, P1 R1.
/// let best = SingleHashConfig::best();
/// assert_eq!(best.entries(), 2048);
/// assert!(best.retaining() && best.resetting());
///
/// // The plain P0 R0 baseline:
/// let plain = SingleHashConfig::new(2048)?;
/// assert!(!plain.retaining() && !plain.resetting());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SingleHashConfig {
    entries: usize,
    resetting: bool,
    retaining: bool,
    shielding: bool,
}

impl SingleHashConfig {
    /// Creates a configuration with a hash table of `entries` counters and
    /// both optimizations off (the paper's `P0 R0`).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::EntriesNotPowerOfTwo`] if `entries` is not a
    /// power of two of at least 2.
    pub fn new(entries: usize) -> Result<Self, ConfigError> {
        if entries < 2 || !entries.is_power_of_two() {
            return Err(ConfigError::EntriesNotPowerOfTwo(entries));
        }
        Ok(SingleHashConfig {
            entries,
            resetting: false,
            retaining: false,
            shielding: true,
        })
    }

    /// The paper's best single-hash configuration (`BSH`): 2K entries with
    /// retaining and resetting enabled (`P1 R1`).
    pub fn best() -> Self {
        SingleHashConfig::new(2048)
            .expect("2048 is a power of two")
            .with_resetting(true)
            .with_retaining(true)
    }

    /// Enables or disables the resetting optimization (`R`).
    pub fn with_resetting(mut self, resetting: bool) -> Self {
        self.resetting = resetting;
        self
    }

    /// Enables or disables the retaining optimization (`P`).
    pub fn with_retaining(mut self, retaining: bool) -> Self {
        self.retaining = retaining;
        self
    }

    /// Enables or disables shielding (§5.2). The paper's designs always
    /// shield; turning it off exists for ablation studies only — resident
    /// tuples then keep hammering the hash table.
    pub fn with_shielding(mut self, shielding: bool) -> Self {
        self.shielding = shielding;
        self
    }

    /// Number of hash-table counters.
    #[inline]
    pub fn entries(&self) -> usize {
        self.entries
    }

    /// Whether resetting (`R1`) is enabled.
    #[inline]
    pub fn resetting(&self) -> bool {
        self.resetting
    }

    /// Whether retaining (`P1`) is enabled.
    #[inline]
    pub fn retaining(&self) -> bool {
        self.retaining
    }

    /// Whether shielding is enabled (always on in the paper's designs).
    #[inline]
    pub fn shielding(&self) -> bool {
        self.shielding
    }

    /// A compact label in the paper's notation, e.g. `"P1, R0"`.
    pub fn label(&self) -> String {
        format!(
            "P{}, R{}",
            u8::from(self.retaining),
            u8::from(self.resetting)
        )
    }
}

/// The single-hash hardware profiler of §5 (Figure 2).
///
/// # Examples
///
/// ```
/// use mhp_core::{EventProfiler, IntervalConfig, SingleHashConfig, SingleHashProfiler, Tuple};
/// # fn main() -> Result<(), mhp_core::ConfigError> {
/// let interval = IntervalConfig::new(1_000, 0.01)?;
/// let mut profiler =
///     SingleHashProfiler::new(interval, SingleHashConfig::best(), 42)?;
/// let hot = Tuple::new(0x400100, 3);
/// let mut last = None;
/// for i in 0..1_000u64 {
///     let t = if i % 10 == 0 { hot } else { Tuple::new(i, i) };
///     if let Some(p) = profiler.observe(t) {
///         last = Some(p);
///     }
/// }
/// let profile = last.expect("one full interval");
/// assert!(profile.contains(hot));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SingleHashProfiler {
    interval: IntervalConfig,
    config: SingleHashConfig,
    hasher: TupleHasher,
    counters: CounterArray,
    accumulator: AccumulatorTable,
    threshold: u64,
    /// The hash seed, kept for the snapshot configuration fingerprint (the
    /// hasher itself is fully derived from it).
    seed: u64,
    events: u64,
    interval_idx: u64,
    /// Per-interval introspection tallies (plain register adds; folded
    /// into a [`SketchSnapshot`] only when a sink is installed).
    tally: IntervalTally,
    /// Optional per-interval introspection sink.
    sink: SinkHandle,
}

impl SingleHashProfiler {
    /// Builds a profiler. The `seed` selects the hardwired hash function.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors from the hash table and accumulator
    /// construction.
    pub fn new(
        interval: IntervalConfig,
        config: SingleHashConfig,
        seed: u64,
    ) -> Result<Self, ConfigError> {
        let hasher = TupleHasher::new(config.entries(), seed)?;
        let accumulator = AccumulatorTable::new(interval.accumulator_capacity())?;
        Ok(SingleHashProfiler {
            interval,
            config,
            hasher,
            counters: CounterArray::new(config.entries()),
            accumulator,
            threshold: interval.threshold_count(),
            seed,
            events: 0,
            interval_idx: 0,
            tally: IntervalTally::default(),
            sink: SinkHandle::none(),
        })
    }

    /// This profiler's hash-table configuration.
    #[inline]
    pub fn config(&self) -> SingleHashConfig {
        self.config
    }

    /// Read-only view of the accumulator table.
    #[inline]
    pub fn accumulator(&self) -> &AccumulatorTable {
        &self.accumulator
    }

    /// Read-only view of the hash-table counters.
    #[inline]
    pub fn counters(&self) -> &CounterArray {
        &self.counters
    }

    /// Total hardware storage modelled, in bytes.
    pub fn storage_bytes(&self) -> usize {
        self.counters.storage_bytes() + self.accumulator.storage_bytes()
    }

    fn end_interval(&mut self) -> IntervalProfile {
        // Occupancy is scanned only when someone is listening; the scan
        // must happen before the flush below wipes the table.
        let introspecting = self.sink.is_installed();
        let (counters_occupied, accumulator_len) = if introspecting {
            (
                self.counters.occupied() as u64,
                self.accumulator.len() as u64,
            )
        } else {
            (0, 0)
        };
        let events = self.events;
        let candidates = self
            .accumulator
            .finish_interval(self.config.retaining, self.threshold);
        self.counters.clear();
        if introspecting {
            let retained = if self.config.retaining {
                candidates.len() as u64
            } else {
                0
            };
            self.sink.emit(&SketchSnapshot {
                interval_index: self.interval_idx,
                events,
                shield_hits: self.tally.shield_hits,
                promotions: self.tally.promotions,
                promotions_dropped: self.tally.promotions_dropped,
                evictions: self.tally.evictions,
                saturations: self.tally.saturations,
                retained,
                counters_occupied,
                counters_total: self.counters.len() as u64,
                accumulator_len,
                accumulator_capacity: self.accumulator.capacity() as u64,
            });
        }
        self.tally.reset();
        let profile =
            IntervalProfile::from_candidates(self.interval_idx, self.interval, candidates);
        self.interval_idx += 1;
        self.events = 0;
        profile
    }

    /// The batched hot path, monomorphized per configuration corner so the
    /// `resetting` / `shielding` branches are resolved at compile time
    /// instead of per event. Bit-for-bit identical to calling
    /// [`EventProfiler::observe`] on every element of `batch`.
    fn batch_loop<const RESETTING: bool, const SHIELDING: bool>(
        &mut self,
        batch: &[Tuple],
        out: &mut Vec<IntervalProfile>,
    ) {
        let threshold = self.threshold;
        for &tuple in batch {
            let resident = self.accumulator.observe(tuple, threshold);
            if !resident {
                let idx = self.hasher.index(tuple);
                let value = self.counters.increment(idx);
                self.tally.saturations += u64::from(value >= COUNTER_MAX);
                if u64::from(value) >= threshold {
                    let outcome = self.accumulator.insert_tracked(tuple, threshold);
                    self.tally.note_insert(outcome);
                    if RESETTING && outcome.inserted() {
                        self.counters.reset(idx);
                    }
                }
            } else {
                self.tally.shield_hits += 1;
                if !SHIELDING {
                    // Ablation mode: resident tuples still update the hash
                    // table (but are never re-promoted — already resident).
                    let value = self.counters.increment(self.hasher.index(tuple));
                    self.tally.saturations += u64::from(value >= COUNTER_MAX);
                }
            }
            self.events += 1;
            if self.interval.is_boundary(self.events) {
                out.push(self.end_interval());
            }
        }
    }
}

impl EventProfiler for SingleHashProfiler {
    fn interval_config(&self) -> IntervalConfig {
        self.interval
    }

    fn observe(&mut self, tuple: Tuple) -> Option<IntervalProfile> {
        // Shielding: resident tuples are counted in the accumulator only.
        if !self.accumulator.observe(tuple, self.threshold) {
            let idx = self.hasher.index(tuple);
            let value = self.counters.increment(idx);
            self.tally.saturations += u64::from(value >= COUNTER_MAX);
            if u64::from(value) >= self.threshold {
                let outcome = self.accumulator.insert_tracked(tuple, self.threshold);
                self.tally.note_insert(outcome);
                if outcome.inserted() && self.config.resetting {
                    self.counters.reset(idx);
                }
            }
        } else {
            self.tally.shield_hits += 1;
            if !self.config.shielding {
                // Ablation mode: resident tuples still update the hash
                // table (but are never re-promoted — already resident).
                let idx = self.hasher.index(tuple);
                let value = self.counters.increment(idx);
                self.tally.saturations += u64::from(value >= COUNTER_MAX);
            }
        }
        self.events += 1;
        if self.interval.is_boundary(self.events) {
            Some(self.end_interval())
        } else {
            None
        }
    }

    fn observe_batch(&mut self, batch: &[Tuple]) -> Vec<IntervalProfile> {
        let mut out = Vec::new();
        // One two-way branch per batch selects the monomorphized loop.
        match (self.config.resetting, self.config.shielding) {
            (false, false) => self.batch_loop::<false, false>(batch, &mut out),
            (false, true) => self.batch_loop::<false, true>(batch, &mut out),
            (true, false) => self.batch_loop::<true, false>(batch, &mut out),
            (true, true) => self.batch_loop::<true, true>(batch, &mut out),
        }
        out
    }

    fn finish_interval(&mut self) -> IntervalProfile {
        self.end_interval()
    }

    fn hot_tuples(&self, k: usize) -> Vec<Candidate> {
        self.accumulator
            .top_k(k)
            .into_iter()
            .map(|e| Candidate::new(e.tuple, e.count))
            .collect()
    }

    fn reset(&mut self) {
        self.counters.clear();
        self.accumulator.clear();
        self.events = 0;
        self.interval_idx = 0;
        self.tally.reset();
    }

    fn private_bytes(&self) -> usize {
        // The single hasher's tables are this profiler's own.
        self.hasher.heap_bytes()
            + self.counters.len() * std::mem::size_of::<u32>()
            + self.accumulator.heap_bytes()
    }

    fn events_in_current_interval(&self) -> u64 {
        self.events
    }

    fn interval_index(&self) -> u64 {
        self.interval_idx
    }

    fn set_introspection_sink(&mut self, sink: Option<Arc<dyn IntrospectionSink>>) {
        self.sink.set(sink);
    }

    fn save_state(&self) -> Result<Vec<u8>, SnapshotError> {
        let mut w = SnapshotWriter::new(KIND_SINGLE_HASH);
        // Configuration fingerprint.
        w.put_u64(self.config.entries() as u64);
        w.put_bool(self.config.resetting());
        w.put_bool(self.config.retaining());
        w.put_bool(self.config.shielding());
        w.put_u64(self.seed);
        state::put_interval(&mut w, &self.interval);
        // Dynamic state.
        w.put_u64(self.events);
        w.put_u64(self.interval_idx);
        state::put_tally(&mut w, &self.tally);
        state::put_counters(&mut w, self.counters.len(), self.counters.iter());
        state::put_accumulator(&mut w, &self.accumulator);
        Ok(w.finish())
    }

    fn restore_state(&mut self, snapshot: &[u8]) -> Result<(), SnapshotError> {
        let mut r = SnapshotReader::open(snapshot, KIND_SINGLE_HASH)?;
        if r.take_u64("table entries")? != self.config.entries() as u64 {
            return Err(SnapshotError::ConfigMismatch {
                context: "hash-table entries",
            });
        }
        for (flag, live, context) in [
            ("resetting flag", self.config.resetting(), "resetting"),
            ("retaining flag", self.config.retaining(), "retaining"),
            ("shielding flag", self.config.shielding(), "shielding"),
        ] {
            if r.take_bool(flag)? != live {
                return Err(SnapshotError::ConfigMismatch { context });
            }
        }
        if r.take_u64("hash seed")? != self.seed {
            return Err(SnapshotError::ConfigMismatch {
                context: "hash seed",
            });
        }
        state::check_interval(&mut r, &self.interval)?;
        let events = r.take_u64("event count")?;
        let interval_idx = r.take_u64("interval index")?;
        let tally = state::take_tally(&mut r)?;
        let counters = state::take_counters(&mut r, self.counters.len())?;
        let entries = state::take_accumulator(&mut r, self.accumulator.capacity())?;
        r.expect_end()?;
        // All fields validated: commit (errors above leave state untouched).
        self.events = events;
        self.interval_idx = interval_idx;
        self.tally = tally;
        self.counters.load(counters);
        self.accumulator.restore_entries(entries);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn interval(len: u64, frac: f64) -> IntervalConfig {
        IntervalConfig::new(len, frac).unwrap()
    }

    fn profiler(len: u64, frac: f64, cfg: SingleHashConfig) -> SingleHashProfiler {
        SingleHashProfiler::new(interval(len, frac), cfg, 7).unwrap()
    }

    /// Finds two distinct tuples that alias to the same hash bucket.
    fn aliasing_pair(p: &SingleHashProfiler) -> (Tuple, Tuple) {
        let a = Tuple::new(0x1000, 1);
        let target = p.hasher.index(a);
        for i in 0..100_000u64 {
            let b = Tuple::new(0x2000 + i * 8, i);
            if b != a && p.hasher.index(b) == target {
                return (a, b);
            }
        }
        panic!("no aliasing pair found");
    }

    #[test]
    fn config_rejects_bad_sizes() {
        assert!(SingleHashConfig::new(0).is_err());
        assert!(SingleHashConfig::new(1000).is_err());
        assert!(SingleHashConfig::new(1024).is_ok());
    }

    #[test]
    fn config_label_uses_paper_notation() {
        assert_eq!(SingleHashConfig::best().label(), "P1, R1");
        assert_eq!(SingleHashConfig::new(2048).unwrap().label(), "P0, R0");
    }

    #[test]
    fn hot_tuple_is_captured() {
        let mut p = profiler(1_000, 0.01, SingleHashConfig::new(2048).unwrap());
        let hot = Tuple::new(0x400100, 7);
        let mut profiles = Vec::new();
        for i in 0..1_000u64 {
            let t = if i % 5 == 0 {
                hot
            } else {
                Tuple::new(0x500000 + i, i)
            };
            if let Some(pr) = p.observe(t) {
                profiles.push(pr);
            }
        }
        assert_eq!(profiles.len(), 1);
        // 200 occurrences, threshold 10: captured, with f_h >= threshold.
        let count = profiles[0].count_of(hot).expect("hot tuple captured");
        assert!(count >= 10);
        assert!(count <= 200 + 10, "count {count} wildly inflated");
    }

    #[test]
    fn cold_stream_produces_no_candidates() {
        let mut p = profiler(1_000, 0.05, SingleHashConfig::new(4096).unwrap());
        let mut profiles = Vec::new();
        for i in 0..1_000u64 {
            // Every tuple unique: none can reach 5% = 50 occurrences, and with
            // a 4K table aliasing to 50 is implausible.
            if let Some(pr) = p.observe(Tuple::new(i * 8, i)) {
                profiles.push(pr);
            }
        }
        assert_eq!(profiles.len(), 1);
        assert!(profiles[0].is_empty());
    }

    #[test]
    fn promotion_initializes_count_at_threshold() {
        let mut p = profiler(100, 0.1, SingleHashConfig::new(2048).unwrap());
        let hot = Tuple::new(1, 1);
        // Exactly 10 occurrences (= threshold), then 90 unique fillers.
        for _ in 0..10 {
            p.observe(hot);
        }
        assert_eq!(p.accumulator().count_of(hot), Some(10));
    }

    #[test]
    fn shielding_stops_hash_updates_after_promotion() {
        let mut p = profiler(1_000, 0.01, SingleHashConfig::new(2048).unwrap());
        let hot = Tuple::new(1, 1);
        for _ in 0..10 {
            p.observe(hot);
        }
        let idx = p.hasher.index(hot);
        let counter_at_promotion = p.counters().get(idx);
        for _ in 0..50 {
            p.observe(hot);
        }
        assert_eq!(
            p.counters().get(idx),
            counter_at_promotion,
            "shielded tuple must not touch the hash table"
        );
        assert_eq!(p.accumulator().count_of(hot), Some(60));
    }

    #[test]
    fn resetting_clears_the_promoted_counter() {
        let mut p = profiler(
            1_000,
            0.01,
            SingleHashConfig::new(2048).unwrap().with_resetting(true),
        );
        let hot = Tuple::new(1, 1);
        for _ in 0..10 {
            p.observe(hot);
        }
        let idx = p.hasher.index(hot);
        assert_eq!(
            p.counters().get(idx),
            0,
            "R1 must zero the counter on promotion"
        );
    }

    #[test]
    fn without_resetting_alias_rides_the_hot_counter() {
        // R0: after tuple A saturates a counter past the threshold, a single
        // occurrence of aliasing tuple B promotes B — the false-positive
        // mechanism the paper describes.
        let cfg = SingleHashConfig::new(2048).unwrap();
        let mut p = profiler(10_000, 0.001, cfg);
        let (a, b) = aliasing_pair(&p);
        for _ in 0..10 {
            p.observe(a); // threshold is 10; A promoted, counter stays at 10
        }
        p.observe(b);
        assert!(
            p.accumulator().contains(b),
            "alias must be falsely promoted under R0"
        );
    }

    #[test]
    fn with_resetting_alias_must_earn_promotion() {
        let cfg = SingleHashConfig::new(2048).unwrap().with_resetting(true);
        let mut p = profiler(10_000, 0.001, cfg);
        let (a, b) = aliasing_pair(&p);
        for _ in 0..10 {
            p.observe(a);
        }
        p.observe(b);
        assert!(
            !p.accumulator().contains(b),
            "R1 zeroed the counter, so one occurrence of the alias cannot promote"
        );
    }

    #[test]
    fn disabling_shielding_keeps_hash_counters_growing() {
        let cfg = SingleHashConfig::new(2048).unwrap().with_shielding(false);
        let mut p = profiler(1_000, 0.01, cfg);
        let hot = Tuple::new(1, 1);
        for _ in 0..10 {
            p.observe(hot);
        }
        let idx = p.hasher.index(hot);
        let at_promotion = p.counters().get(idx);
        for _ in 0..50 {
            p.observe(hot);
        }
        assert_eq!(
            p.counters().get(idx),
            at_promotion + 50,
            "without shielding, resident tuples keep updating the table"
        );
        // The accumulator count stays exact regardless.
        assert_eq!(p.accumulator().count_of(hot), Some(60));
    }

    #[test]
    fn retaining_keeps_candidates_across_intervals() {
        let cfg = SingleHashConfig::new(2048).unwrap().with_retaining(true);
        let mut p = profiler(100, 0.1, cfg);
        let hot = Tuple::new(1, 1);
        let mut profiles = Vec::new();
        for i in 0..200u64 {
            let t = if i % 2 == 0 {
                hot
            } else {
                Tuple::new(100 + i, i)
            };
            if let Some(pr) = p.observe(t) {
                profiles.push(pr);
            }
        }
        assert_eq!(profiles.len(), 2);
        // Second interval: hot was retained, so its count is exact (50), not
        // threshold-initialized.
        assert_eq!(profiles[1].count_of(hot), Some(50));
    }

    #[test]
    fn without_retaining_accumulator_starts_interval_empty() {
        let cfg = SingleHashConfig::new(2048).unwrap();
        let mut p = profiler(100, 0.1, cfg);
        let hot = Tuple::new(1, 1);
        for _ in 0..100 {
            p.observe(hot);
        }
        assert!(p.accumulator().is_empty(), "P0 flushes at interval end");
    }

    #[test]
    fn interval_profile_counts_are_at_least_threshold() {
        let mut p = profiler(1_000, 0.01, SingleHashConfig::best());
        let mut profile = None;
        for i in 0..1_000u64 {
            let t = Tuple::new(i % 17, 0); // several hot tuples
            if let Some(pr) = p.observe(t) {
                profile = Some(pr);
            }
        }
        let profile = profile.unwrap();
        assert!(!profile.is_empty());
        for c in profile.candidates() {
            assert!(c.count >= 10);
        }
    }

    #[test]
    fn reset_restores_fresh_state() {
        let mut p = profiler(1_000, 0.01, SingleHashConfig::best());
        for i in 0..500u64 {
            p.observe(Tuple::new(i % 3, 0));
        }
        p.reset();
        assert_eq!(p.events_in_current_interval(), 0);
        assert_eq!(p.interval_index(), 0);
        assert!(p.accumulator().is_empty());
        assert!(p.counters().iter().all(|c| c == 0));
    }

    #[test]
    fn observe_batch_matches_per_event_for_every_corner() {
        let stream: Vec<Tuple> = (0..3_000u64).map(|i| Tuple::new(i % 37, i % 5)).collect();
        for resetting in [false, true] {
            for shielding in [false, true] {
                let cfg = SingleHashConfig::new(256)
                    .unwrap()
                    .with_resetting(resetting)
                    .with_shielding(shielding);
                let mut a = profiler(500, 0.05, cfg);
                let mut b = a.clone();
                let expected: Vec<IntervalProfile> =
                    stream.iter().filter_map(|&t| a.observe(t)).collect();
                let mut got = Vec::new();
                for chunk in stream.chunks(257) {
                    got.extend(b.observe_batch(chunk));
                }
                assert_eq!(got, expected, "R{resetting} S{shielding}");
                assert_eq!(a.counters(), b.counters());
                assert_eq!(
                    a.accumulator().top_k(usize::MAX),
                    b.accumulator().top_k(usize::MAX)
                );
                assert_eq!(
                    a.events_in_current_interval(),
                    b.events_in_current_interval()
                );
            }
        }
    }

    #[test]
    fn storage_bytes_match_paper_for_best_config() {
        // 2K entries * 3 B = 6 KB hash table, 100-entry accumulator = 1 KB.
        let p = profiler(10_000, 0.01, SingleHashConfig::best());
        assert_eq!(p.storage_bytes(), 6 * 1024 + 1_000);
    }
}
