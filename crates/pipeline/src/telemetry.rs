//! Telemetry adapters: engine counters on a shared metrics [`Registry`]
//! and a registry-backed [`IntrospectionSink`] for the shard profilers.
//!
//! The engine itself has no hard dependency on metrics — construct a
//! [`ShardedEngine`](crate::ShardedEngine) plainly and nothing here is
//! touched. Attach an [`EngineTelemetry`] (built over an `mhp-telemetry`
//! [`Registry`]) and every session the engine starts reports:
//!
//! * `engine_events_total`, `engine_batches_total`, `engine_stalls_total`,
//!   `engine_cuts_total` — counters on the dispatch path;
//! * `engine_batch_events` — a histogram of dispatched batch sizes;
//! * `engine_cut_latency_us` — a histogram of broadcast-to-merge latency
//!   per interval cut;
//! * `engine_queue_depth{shard="N"}` — a live gauge of each shard's
//!   channel backlog, in batches (multi-shard sessions only);
//! * `engine_worker_threads` — a live gauge of shard worker threads. One-
//!   shard sessions run inline and spawn none, so it stays at 0 however
//!   many of them are open.
//!
//! Attach a [`RegistrySink`] (via
//! [`ShardedEngine::with_introspection_sink`](crate::ShardedEngine::with_introspection_sink))
//! and the per-interval [`SketchSnapshot`]s every shard profiler emits are
//! folded into `sketch_*` counters and gauges on the same registry.

use std::sync::Arc;

use mhp_core::{IntrospectionSink, SketchSnapshot};
use mhp_telemetry::{Counter, Gauge, Histogram, Registry};

/// Engine-side metric handles, registered once on a shared [`Registry`].
///
/// Cloning is cheap (the handles are `Arc`-shared) and clones feed the same
/// metrics — one `EngineTelemetry` can serve many sessions.
#[derive(Debug, Clone)]
pub struct EngineTelemetry {
    registry: Registry,
    /// Events dispatched into shard queues.
    pub(crate) events: Counter,
    /// Batches dispatched into shard queues.
    pub(crate) batches: Counter,
    /// Dispatcher stalls on a full shard queue (the backpressure signal).
    pub(crate) stalls: Counter,
    /// Global interval cuts broadcast.
    pub(crate) cuts: Counter,
    /// Sizes of dispatched batches, in events.
    pub(crate) batch_events: Histogram,
    /// Latency from cut broadcast to merged profile, in microseconds.
    pub(crate) cut_latency: Histogram,
    /// Live shard worker threads: raised at spawn, lowered by each
    /// worker's exit guard.
    pub(crate) worker_threads: Gauge,
}

impl EngineTelemetry {
    /// Registers the engine metrics on `registry` and returns the handles.
    pub fn new(registry: &Registry) -> Self {
        EngineTelemetry {
            registry: registry.clone(),
            events: registry.counter("engine_events_total"),
            batches: registry.counter("engine_batches_total"),
            stalls: registry.counter("engine_stalls_total"),
            cuts: registry.counter("engine_cuts_total"),
            batch_events: registry.histogram("engine_batch_events"),
            cut_latency: registry.histogram("engine_cut_latency_us"),
            worker_threads: registry.gauge("engine_worker_threads"),
        }
    }

    /// One `engine_queue_depth{shard="i"}` gauge per shard, registered on
    /// (or fetched from) the registry. Called at session spawn.
    pub(crate) fn queue_depth_gauges(&self, shards: usize) -> Vec<Gauge> {
        (0..shards)
            .map(|shard| {
                self.registry
                    .gauge_with_labels("engine_queue_depth", &[("shard", &shard.to_string())])
            })
            .collect()
    }
}

/// An [`IntrospectionSink`] that folds every [`SketchSnapshot`] into
/// `sketch_*` metrics on a shared [`Registry`].
///
/// Counters accumulate across intervals and across shards; the occupancy
/// gauges are last-write-wins (with several shards they reflect whichever
/// shard most recently ended an interval — per-shard fidelity is what the
/// snapshots themselves are for).
#[derive(Debug)]
pub struct RegistrySink {
    intervals: Counter,
    events: Counter,
    shield_hits: Counter,
    promotions: Counter,
    promotions_dropped: Counter,
    evictions: Counter,
    saturations: Counter,
    retained: Counter,
    counters_occupied: Gauge,
    counters_total: Gauge,
    accumulator_len: Gauge,
    accumulator_capacity: Gauge,
}

impl RegistrySink {
    /// Registers the sketch metrics on `registry` and returns the sink.
    pub fn new(registry: &Registry) -> Self {
        RegistrySink {
            intervals: registry.counter("sketch_intervals_total"),
            events: registry.counter("sketch_events_total"),
            shield_hits: registry.counter("sketch_shield_hits_total"),
            promotions: registry.counter("sketch_promotions_total"),
            promotions_dropped: registry.counter("sketch_promotions_dropped_total"),
            evictions: registry.counter("sketch_evictions_total"),
            saturations: registry.counter("sketch_saturations_total"),
            retained: registry.counter("sketch_retained_total"),
            counters_occupied: registry.gauge("sketch_counters_occupied"),
            counters_total: registry.gauge("sketch_counters_total"),
            accumulator_len: registry.gauge("sketch_accumulator_len"),
            accumulator_capacity: registry.gauge("sketch_accumulator_capacity"),
        }
    }

    /// The sink boxed for
    /// [`EventProfiler::set_introspection_sink`](mhp_core::EventProfiler::set_introspection_sink).
    pub fn shared(registry: &Registry) -> Arc<dyn IntrospectionSink> {
        Arc::new(RegistrySink::new(registry))
    }
}

impl IntrospectionSink for RegistrySink {
    fn on_interval(&self, snapshot: &SketchSnapshot) {
        self.intervals.incr();
        self.events.add(snapshot.events);
        self.shield_hits.add(snapshot.shield_hits);
        self.promotions.add(snapshot.promotions);
        self.promotions_dropped.add(snapshot.promotions_dropped);
        self.evictions.add(snapshot.evictions);
        self.saturations.add(snapshot.saturations);
        self.retained.add(snapshot.retained);
        self.counters_occupied.set(snapshot.counters_occupied);
        self.counters_total.set(snapshot.counters_total);
        self.accumulator_len.set(snapshot.accumulator_len);
        self.accumulator_capacity.set(snapshot.accumulator_capacity);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhp_telemetry::stat_value;

    #[test]
    fn registry_sink_accumulates_counters_and_overwrites_gauges() {
        let registry = Registry::new();
        let sink = RegistrySink::new(&registry);
        sink.on_interval(&SketchSnapshot {
            interval_index: 0,
            events: 100,
            shield_hits: 40,
            promotions: 5,
            promotions_dropped: 1,
            evictions: 2,
            saturations: 0,
            retained: 3,
            counters_occupied: 50,
            counters_total: 64,
            accumulator_len: 3,
            accumulator_capacity: 8,
        });
        sink.on_interval(&SketchSnapshot {
            interval_index: 1,
            events: 100,
            shield_hits: 60,
            promotions: 2,
            promotions_dropped: 0,
            evictions: 1,
            saturations: 1,
            retained: 4,
            counters_occupied: 30,
            counters_total: 64,
            accumulator_len: 4,
            accumulator_capacity: 8,
        });
        let text = registry.render_prometheus();
        assert_eq!(stat_value(&text, "sketch_intervals_total"), Some(2));
        assert_eq!(stat_value(&text, "sketch_events_total"), Some(200));
        assert_eq!(stat_value(&text, "sketch_shield_hits_total"), Some(100));
        assert_eq!(stat_value(&text, "sketch_promotions_total"), Some(7));
        assert_eq!(stat_value(&text, "sketch_evictions_total"), Some(3));
        assert_eq!(stat_value(&text, "sketch_saturations_total"), Some(1));
        // Gauges are last-write-wins.
        assert_eq!(stat_value(&text, "sketch_counters_occupied"), Some(30));
        assert_eq!(stat_value(&text, "sketch_accumulator_len"), Some(4));
    }

    #[test]
    fn engine_telemetry_registers_per_shard_depth_gauges() {
        let registry = Registry::new();
        let telemetry = EngineTelemetry::new(&registry);
        let gauges = telemetry.queue_depth_gauges(3);
        assert_eq!(gauges.len(), 3);
        gauges[1].set(7);
        let text = registry.render_prometheus();
        assert!(text.contains("engine_queue_depth{shard=\"1\"} 7"));
        // Re-requesting yields the same underlying gauges.
        let again = telemetry.queue_depth_gauges(3);
        assert_eq!(again[1].get(), 7);
    }
}
