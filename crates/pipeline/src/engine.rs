//! The sharded ingestion engine: hash-partitioned parallel profiling whose
//! merged output matches a single-threaded run.
//!
//! ## Topology
//!
//! ```text
//!              ┌──────────┐   SPSC batch rings   ┌──────────────────┐
//!   events ──▶ │ dispatch │ ═══════════════════▶ │ shard 0 profiler │ ─┐
//!              │  (hash-  │ ═══════════════════▶ │ shard 1 profiler │ ─┤─▶ merge
//!              │ partition│ ◀─ scratch recycle ─ │       ...        │ ─┘
//!              └──────────┘ ═══════════════════▶ │ shard K profiler │
//!                                                └──────────────────┘
//! ```
//!
//! ## The dispatch plane
//!
//! Each shard gets a dedicated pair of single-producer/single-consumer
//! rings ([`crate::ring`]): one carries whole sub-batches of events to the
//! worker, the other carries the emptied `Vec<Tuple>` scratch buffers back
//! to the dispatcher. The steady state is therefore allocation-free — every
//! batch buffer cycles dispatcher → worker → dispatcher — and the per-event
//! cost of the handoff is one ring operation amortized over a whole batch.
//! Chunked ingest ([`EngineSession::ingest_chunk`]) partitions *while*
//! decoding: records are routed into per-shard sub-batches straight out of
//! the varint decoder instead of being materialized in one flat buffer and
//! re-scanned.
//!
//! Three properties make the parallel run equivalent to the serial one:
//!
//! 1. **Tuple-stable partitioning** — the shard is a pure hash of the tuple,
//!    so every occurrence of a tuple lands on the *same* shard and no
//!    per-tuple count is ever split (see [`IntervalProfile::merge`]).
//! 2. **Global interval cuts** — shard profilers are built with
//!    [`IntervalConfig::with_external_cut`] and never end intervals on their
//!    own; the dispatcher counts the *global* event stream and broadcasts a
//!    cut every `interval_len` events. Without this, a shard receiving a
//!    disproportionate share would cut early and intervals would desync.
//! 3. **Deterministic merge** — each worker emits exactly one profile per
//!    cut, in order, and [`IntervalProfile::merge`] sums them.
//!
//! Batches never cross an interval boundary, so workers need no boundary
//! logic at all: observe the batch, cut on [`Msg::Cut`].
//!
//! ## Inline sessions
//!
//! A one-shard session has nothing to partition and nothing to run in
//! parallel, so [`ShardedEngine::start`] and [`ShardedEngine::restore`]
//! give it no worker at all: the session owns its profiler and calls it on
//! the caller's thread — a full batch is observed in place, a cut is
//! `finish_interval` plus the same [`IntervalProfile::merge`] a worker
//! session applies. No thread, ring or channel exists, so an idle session
//! costs only its sketch state. Profiler calls run under `catch_unwind`: a
//! panic poisons the session exactly as a dead worker would
//! ([`Error::WorkerDied`] on every later call, [`Error::WorkerPanicked`]
//! from `finish`) and never unwinds into the caller.

use std::collections::VecDeque;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::str::FromStr;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use mhp_core::state::KIND_ENGINE_SESSION;
use mhp_core::{
    Candidate, ConfigError, EventProfiler, IntervalConfig, IntervalProfile, IntrospectionSink,
    MultiHashConfig, MultiHashProfiler, PerfectProfiler, SingleHashConfig, SingleHashProfiler,
    SnapshotError, SnapshotReader, SnapshotWriter, Tuple,
};
use mhp_faults::{FaultHook, WorkerAction};
use mhp_telemetry::Gauge;

use crate::error::Error;
use crate::format::ChunkDecoder;
use crate::ring;
use crate::telemetry::EngineTelemetry;

/// Which profiler architecture each shard runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProfilerSpec {
    /// The paper's multi-hash profiler (§6).
    MultiHash(MultiHashConfig),
    /// The single-table baseline (§5).
    SingleHash(SingleHashConfig),
    /// The exact reference profiler.
    Perfect,
}

impl ProfilerSpec {
    /// The spec's lowercase name.
    pub fn name(&self) -> &'static str {
        match self {
            ProfilerSpec::MultiHash(_) => "multi-hash",
            ProfilerSpec::SingleHash(_) => "single-hash",
            ProfilerSpec::Perfect => "perfect",
        }
    }

    /// Builds one profiler instance for this spec.
    ///
    /// # Errors
    ///
    /// Propagates [`ConfigError`] from the underlying constructor.
    pub fn build(
        &self,
        interval: IntervalConfig,
        seed: u64,
    ) -> Result<Box<dyn EventProfiler + Send>, ConfigError> {
        Ok(match self {
            ProfilerSpec::MultiHash(config) => {
                Box::new(MultiHashProfiler::new(interval, *config, seed)?)
            }
            ProfilerSpec::SingleHash(config) => {
                Box::new(SingleHashProfiler::new(interval, *config, seed)?)
            }
            ProfilerSpec::Perfect => Box::new(PerfectProfiler::new(interval)),
        })
    }
}

impl fmt::Display for ProfilerSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for ProfilerSpec {
    type Err = Error;

    /// Parses `multi-hash`, `single-hash` or `perfect`, each with the
    /// paper's best table configuration where one exists.
    fn from_str(s: &str) -> Result<Self, Error> {
        match s {
            "multi-hash" | "multihash" => Ok(ProfilerSpec::MultiHash(MultiHashConfig::best())),
            "single-hash" | "singlehash" => Ok(ProfilerSpec::SingleHash(SingleHashConfig::best())),
            "perfect" => Ok(ProfilerSpec::Perfect),
            _ => Err(Error::InvalidEngine(
                "unknown profiler (expected multi-hash, single-hash or perfect)",
            )),
        }
    }
}

/// Sizing of the sharded engine.
///
/// # Examples
///
/// ```
/// use mhp_pipeline::EngineConfig;
/// let config = EngineConfig::new(8).with_queue_capacity(32).with_batch_events(512);
/// assert_eq!(config.shards(), 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    shards: usize,
    queue_capacity: usize,
    batch_events: usize,
}

impl EngineConfig {
    /// Maximum shard count the engine will spawn threads for.
    pub const MAX_SHARDS: usize = 256;

    /// A config with `shards` shards and default queue/batch sizing
    /// (64-batch queues, 1024-event batches).
    pub fn new(shards: usize) -> Self {
        EngineConfig {
            shards,
            queue_capacity: 64,
            batch_events: 1024,
        }
    }

    /// Sets the per-shard queue capacity, in batches. Full queues apply
    /// backpressure to the dispatcher (counted in [`ShardStats::stalls`]).
    pub fn with_queue_capacity(mut self, batches: usize) -> Self {
        self.queue_capacity = batches;
        self
    }

    /// Sets how many events are coalesced into one channel message.
    pub fn with_batch_events(mut self, events: usize) -> Self {
        self.batch_events = events;
        self
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Per-shard queue capacity, in batches.
    pub fn queue_capacity(&self) -> usize {
        self.queue_capacity
    }

    /// Events per dispatched batch.
    pub fn batch_events(&self) -> usize {
        self.batch_events
    }

    fn validate(&self) -> Result<(), Error> {
        if self.shards == 0 {
            return Err(Error::InvalidEngine("shard count must be at least 1"));
        }
        if self.shards > Self::MAX_SHARDS {
            return Err(Error::InvalidEngine("shard count exceeds MAX_SHARDS"));
        }
        if self.queue_capacity == 0 {
            return Err(Error::InvalidEngine("queue capacity must be at least 1"));
        }
        if self.batch_events == 0 {
            return Err(Error::InvalidEngine("batch size must be at least 1"));
        }
        Ok(())
    }
}

/// Per-shard ingestion statistics, gathered by the dispatcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Events routed to this shard.
    pub events: u64,
    /// Batches dispatched to this shard.
    pub batches: u64,
    /// Times the dispatcher found this shard's queue full and had to block —
    /// the backpressure signal.
    pub stalls: u64,
}

/// The result of one engine run: merged profiles plus throughput and
/// queue-depth statistics.
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// Merged interval profiles, one per completed global interval, equal in
    /// meaning to a single-threaded profiler's output.
    pub profiles: Vec<IntervalProfile>,
    /// Total events ingested (including a trailing partial interval).
    pub events: u64,
    /// Completed intervals.
    pub intervals: u64,
    /// Wall-clock time of the run (dispatch through merge).
    pub elapsed: Duration,
    /// Per-shard ingestion statistics.
    pub shards: Vec<ShardStats>,
}

impl EngineReport {
    /// Ingest throughput in events per second.
    pub fn events_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.events as f64 / secs
        } else {
            f64::INFINITY
        }
    }

    /// Total dispatcher stalls across all shards.
    pub fn total_stalls(&self) -> u64 {
        self.shards.iter().map(|s| s.stalls).sum()
    }
}

/// Routes a tuple to its shard. Pure function of the tuple (never of arrival
/// order), which is what makes partitioning tuple-stable.
pub fn shard_of(tuple: Tuple, shards: usize) -> usize {
    debug_assert!(shards > 0);
    // One shard needs no hash, and `x % 1` is a full 64-bit division on
    // every event of an inline session's ingest path.
    if shards == 1 {
        return 0;
    }
    // splitmix64 finalizer over a pc/value mix: cheap and well distributed.
    let mut x = tuple.pc().as_u64().wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ tuple.value().as_u64().rotate_left(32);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x % shards as u64) as usize
}

enum Msg {
    /// Events for this shard; never spans a global interval boundary.
    Batch(Vec<Tuple>),
    /// The global interval ended: flush a profile to the worker's profile
    /// channel.
    Cut,
    /// Report the shard's hottest live tuples (its current partial
    /// interval) on the reply channel, without disturbing any state.
    TopK(usize, Sender<Vec<Candidate>>),
    /// Serialize the shard profiler's full state on the reply channel,
    /// without disturbing it. Acts as a barrier: every batch dispatched
    /// before this message is in the snapshot, none after.
    SaveState(Sender<Result<Vec<u8>, SnapshotError>>),
}

/// The sharded streaming ingestion engine.
///
/// Construct one per (engine sizing, interval, profiler, seed) and feed it
/// an event stream with [`run`](Self::run) or
/// [`run_results`](Self::run_results). Every shard gets its own profiler
/// instance built from the same spec and seed; with one shard the run is
/// exactly the single-threaded computation.
///
/// # Examples
///
/// ```
/// use mhp_core::IntervalConfig;
/// use mhp_pipeline::{EngineConfig, ProfilerSpec, ShardedEngine};
/// use mhp_trace::{Benchmark, StreamKind, StreamSpec};
///
/// let interval = IntervalConfig::new(10_000, 0.01).unwrap();
/// let engine = ShardedEngine::new(
///     EngineConfig::new(4),
///     interval,
///     ProfilerSpec::Perfect,
///     0xC0FFEE,
/// );
/// let events = StreamSpec::new(Benchmark::Li, StreamKind::Value, 7).events();
/// let report = engine.run(events.take(25_000)).unwrap();
/// assert_eq!(report.intervals, 2);
/// assert_eq!(report.events, 25_000);
/// ```
#[derive(Clone)]
pub struct ShardedEngine {
    config: EngineConfig,
    interval: IntervalConfig,
    spec: ProfilerSpec,
    seed: u64,
    telemetry: Option<EngineTelemetry>,
    sink: Option<Arc<dyn IntrospectionSink>>,
    faults: Option<FaultHook>,
}

impl fmt::Debug for ShardedEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedEngine")
            .field("config", &self.config)
            .field("interval", &self.interval)
            .field("spec", &self.spec)
            .field("seed", &self.seed)
            .field("telemetry", &self.telemetry.is_some())
            .field("sink", &self.sink.is_some())
            .field("faults", &self.faults.is_some())
            .finish()
    }
}

impl ShardedEngine {
    /// Creates an engine. Configuration is validated lazily at
    /// [`run`](Self::run) time.
    pub fn new(
        config: EngineConfig,
        interval: IntervalConfig,
        spec: ProfilerSpec,
        seed: u64,
    ) -> Self {
        ShardedEngine {
            config,
            interval,
            spec,
            seed,
            telemetry: None,
            sink: None,
            faults: None,
        }
    }

    /// Attaches engine metrics: every session this engine starts reports
    /// dispatch counters, batch-size and cut-latency histograms, and live
    /// per-shard queue-depth gauges through `telemetry`.
    pub fn with_telemetry(mut self, telemetry: EngineTelemetry) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Installs an [`IntrospectionSink`] on every shard profiler this
    /// engine builds; each reports one
    /// [`SketchSnapshot`](mhp_core::SketchSnapshot) per interval cut.
    pub fn with_introspection_sink(mut self, sink: Arc<dyn IntrospectionSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Arms deterministic fault injection: every shard worker this engine
    /// spawns consults `hook` once per batch (panicking or stalling when a
    /// planned fault fires). Without a hook the workers pay only a `None`
    /// check per batch, keeping the machinery benchmark-neutral.
    pub fn with_fault_hook(mut self, hook: FaultHook) -> Self {
        self.faults = Some(hook);
        self
    }

    /// The engine sizing.
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// Ingests an infallible event stream. See [`run_results`](Self::run_results).
    pub fn run<I>(&self, events: I) -> Result<EngineReport, Error>
    where
        I: IntoIterator<Item = Tuple>,
    {
        self.run_results(events.into_iter().map(Ok))
    }

    /// Ingests a fallible event stream (e.g. a [`TraceReader`]) through the
    /// sharded topology and returns the merged report.
    ///
    /// A trailing partial interval is ingested but produces no profile,
    /// matching [`EventProfiler::observe_all`] on a single thread.
    ///
    /// # Errors
    ///
    /// The first stream error aborts the run and is returned; engine
    /// misconfiguration yields [`Error::InvalidEngine`]; merge failures
    /// (which indicate an engine bug, not user error) yield [`Error::Merge`].
    ///
    /// [`TraceReader`]: crate::TraceReader
    pub fn run_results<I>(&self, events: I) -> Result<EngineReport, Error>
    where
        I: IntoIterator<Item = Result<Tuple, Error>>,
    {
        let mut session = self.start()?;
        for item in events {
            if let Err(err) = session.push(item?) {
                // A push failure means a worker died; finish() joins the
                // workers and surfaces the panic itself (the root cause),
                // which outranks the send failure.
                return Err(session.finish().err().unwrap_or(err));
            }
        }
        session.finish()
    }

    /// Builds the shard profilers and returns a long-lived
    /// [`EngineSession`] accepting incremental pushes and mid-stream
    /// queries — the streaming counterpart of [`run`](Self::run) for callers
    /// (like a profiling service) whose event stream arrives over time.
    ///
    /// A one-shard session runs its profiler inline on the caller's thread
    /// (see the module docs); with two or more shards one worker thread per
    /// shard is spawned.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidEngine`] for unusable sizing and
    /// [`Error::Config`] if the profiler spec rejects its configuration.
    ///
    /// # Examples
    ///
    /// ```
    /// use mhp_core::IntervalConfig;
    /// use mhp_pipeline::{EngineConfig, ProfilerSpec, ShardedEngine};
    /// use mhp_trace::{Benchmark, StreamKind, StreamSpec};
    ///
    /// # fn main() -> Result<(), mhp_pipeline::Error> {
    /// let interval = IntervalConfig::new(1_000, 0.01)?;
    /// let engine =
    ///     ShardedEngine::new(EngineConfig::new(2), interval, ProfilerSpec::Perfect, 0);
    /// let mut session = engine.start()?;
    /// let events: Vec<_> = StreamSpec::new(Benchmark::Gcc, StreamKind::Value, 1)
    ///     .events()
    ///     .take(2_500)
    ///     .collect();
    /// for chunk in events.chunks(100) {
    ///     session.push_all(chunk.iter().copied())?;
    /// }
    /// assert_eq!(session.profiles()?.len(), 2); // two full intervals so far
    /// let hot = session.top_k(5)?; // live view of the partial third interval
    /// assert!(!hot.is_empty());
    /// let report = session.finish()?;
    /// assert_eq!(report.events, 2_500);
    /// # Ok(())
    /// # }
    /// ```
    pub fn start(&self) -> Result<EngineSession, Error> {
        self.config.validate()?;
        let profilers = self.build_shard_profilers()?;
        Ok(self.open_session(self.interval.interval_len(), profilers))
    }

    /// Rebuilds a live [`EngineSession`] from a snapshot taken by
    /// [`EngineSession::save_state`] on an identically-configured engine.
    ///
    /// The restored session is bit-equivalent to the one that saved:
    /// continuing the same event stream produces identical profiles,
    /// [`top_k`](EngineSession::top_k) answers and re-snapshots. The
    /// engine's spec, seed, shard count and interval must match the saving
    /// engine's; anything else is refused with a typed error before the
    /// session (or any worker thread) is built.
    ///
    /// # Errors
    ///
    /// [`Error::Snapshot`] for a damaged, version-incompatible or
    /// configuration-mismatched snapshot; [`Error::InvalidEngine`] /
    /// [`Error::Config`] exactly as [`start`](Self::start).
    pub fn restore(&self, snapshot: &[u8]) -> Result<EngineSession, Error> {
        self.restore_with(snapshot, |interval_len, profilers| {
            self.open_session(interval_len, profilers)
        })
    }

    /// [`restore`](Self::restore), with `open` wrapping the restored shard
    /// profilers in a session (tests use it to restore into workers).
    fn restore_with(
        &self,
        snapshot: &[u8],
        open: impl FnOnce(u64, Vec<Box<dyn EventProfiler + Send>>) -> EngineSession,
    ) -> Result<EngineSession, Error> {
        self.config.validate()?;
        let mut r = SnapshotReader::open(snapshot, KIND_ENGINE_SESSION)?;
        let shards = r.take_u64("shard count")?;
        if shards != self.config.shards() as u64 {
            return Err(SnapshotError::ConfigMismatch {
                context: "shard count",
            }
            .into());
        }
        let interval_len = r.take_u64("interval length")?;
        if interval_len != self.interval.interval_len() {
            return Err(SnapshotError::ConfigMismatch {
                context: "interval length",
            }
            .into());
        }
        let events = r.take_u64("event count")?;
        let in_interval = r.take_u64("events in interval")?;
        let mut stats = Vec::with_capacity(shards as usize);
        for _ in 0..shards {
            stats.push(ShardStats {
                events: r.take_u64("shard events")?,
                batches: r.take_u64("shard batches")?,
                stalls: r.take_u64("shard stalls")?,
            });
        }
        let profile_count = r.take_count(33, "completed profiles")?;
        let mut completed = Vec::with_capacity(profile_count);
        for _ in 0..profile_count {
            completed.push(take_profile(&mut r)?);
        }
        // Restore each shard's profiler *before* building the session, so
        // a bad snapshot fails with no worker thread to clean up.
        let mut profilers = self.build_shard_profilers()?;
        for profiler in &mut profilers {
            let blob = r.take_bytes("shard profiler snapshot")?;
            profiler.restore_state(blob)?;
        }
        r.expect_end()?;

        let mut session = open(interval_len, profilers);
        session.events = events;
        session.in_interval = in_interval;
        session.stats = stats;
        session.completed = completed;
        Ok(session)
    }

    /// Wraps built shard profilers in a session: inline for one shard,
    /// worker threads for more.
    fn open_session(
        &self,
        interval_len: u64,
        mut profilers: Vec<Box<dyn EventProfiler + Send>>,
    ) -> EngineSession {
        let telemetry = self.telemetry.clone();
        let faults = self.faults.clone();
        if profilers.len() == 1 {
            let profiler = profilers.pop().expect("exactly one shard profiler");
            EngineSession::inline(&self.config, interval_len, profiler, telemetry, faults)
        } else {
            EngineSession::spawn(&self.config, interval_len, profilers, telemetry, faults)
        }
    }

    fn build_shard_profilers(&self) -> Result<Vec<Box<dyn EventProfiler + Send>>, Error> {
        let shard_interval = self.interval.with_external_cut();
        let mut profilers = (0..self.config.shards())
            .map(|_| self.spec.build(shard_interval, self.seed))
            .collect::<Result<Vec<_>, _>>()?;
        if let Some(sink) = &self.sink {
            for profiler in &mut profilers {
                profiler.set_introspection_sink(Some(sink.clone()));
            }
        }
        Ok(profilers)
    }
}

/// Serializes one completed [`IntervalProfile`] into an engine snapshot.
/// Delegates to the shared interchange codec in `mhp-core` so engine
/// snapshots, server checkpoints and aggregator state all speak one format.
fn put_profile(w: &mut SnapshotWriter, profile: &IntervalProfile) {
    mhp_core::put_profile(w, profile);
}

/// Reads back one [`IntervalProfile`] written by [`put_profile`].
fn take_profile(r: &mut SnapshotReader<'_>) -> Result<IntervalProfile, Error> {
    Ok(mhp_core::take_profile(r)?)
}

/// A live run of a [`ShardedEngine`]: shard profilers keep their state
/// between calls, events are [`push`](Self::push)ed incrementally, and the
/// stream can be queried while it is still flowing. A one-shard session
/// calls its profiler inline; a multi-shard one keeps its shard workers up
/// between calls.
///
/// Semantics are identical to [`ShardedEngine::run`] fed the concatenation
/// of every push — that method is literally implemented on top of this type.
/// On top of batch-run behaviour a session supports:
///
/// * [`profiles`](Self::profiles) — merged profiles of the intervals
///   completed so far;
/// * [`top_k`](Self::top_k) — the hottest tuples of the *current partial*
///   interval, straight from the shard accumulators, without disturbing
///   profiler state;
/// * [`cut`](Self::cut) — force the global interval to end early.
///
/// Dropping a session without [`finish`](Self::finish)ing it shuts the
/// workers down and discards their output.
#[derive(Debug)]
pub struct EngineSession {
    /// The one shard's profiler, called on the caller's thread; `None` when
    /// shard workers own the profilers (every worker field below is then
    /// populated, and empty otherwise).
    inline: Option<InlineShard>,
    senders: Vec<ring::Sender<Msg>>,
    /// Per-shard return path for emptied batch buffers: workers push their
    /// cleared `Vec<Tuple>`s back here, and the dispatcher reuses them
    /// instead of allocating — the steady state allocates nothing.
    recycle_rxs: Vec<ring::Receiver<Vec<Tuple>>>,
    profile_rxs: Vec<Receiver<IntervalProfile>>,
    handles: Vec<JoinHandle<()>>,
    batches: Vec<Vec<Tuple>>,
    stats: Vec<ShardStats>,
    /// Merged profiles of completed intervals, in order.
    completed: Vec<IntervalProfile>,
    /// Cuts broadcast to the workers but not yet collected and merged.
    pending_cuts: u64,
    events: u64,
    in_interval: u64,
    interval_len: u64,
    batch_cap: usize,
    started: Instant,
    telemetry: Option<EngineTelemetry>,
    /// Per-shard live queue-depth gauges (empty without telemetry). The
    /// dispatcher increments on send, the worker decrements on receipt.
    queue_gauges: Vec<Gauge>,
    /// Broadcast times of cuts not yet collected, for cut-latency metrics.
    cut_starts: VecDeque<Instant>,
    /// Time spent handing batches to shard rings (including blocking
    /// stalls) since the last [`take_handoff_time`](Self::take_handoff_time).
    handoff: Duration,
    /// The private memory of the profilers handed to shard workers, as
    /// spawned; an inline profiler is measured live instead. The per-shard
    /// part of [`approx_memory_bytes`](Self::approx_memory_bytes).
    worker_profiler_bytes: u64,
}

/// The profiler of an inline (one-shard) session.
struct InlineShard {
    /// `Err` holds the message of the panic that poisoned the session; the
    /// profiler that panicked is dropped with it.
    profiler: Result<Box<dyn EventProfiler + Send>, String>,
    faults: Option<FaultHook>,
}

impl fmt::Debug for InlineShard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("InlineShard")
            .field("poisoned", &self.profiler.as_ref().err())
            .field("faults", &self.faults.is_some())
            .finish()
    }
}

impl InlineShard {
    fn call<T>(&mut self, f: impl FnOnce(&mut dyn EventProfiler) -> T) -> Result<T, Error> {
        guarded(&mut self.profiler, f)
    }

    /// Observes one batch, consulting the fault hook first exactly as a
    /// shard worker does.
    fn observe_batch(&mut self, batch: &[Tuple]) -> Result<(), Error> {
        let faults = self.faults.as_ref();
        guarded(&mut self.profiler, |profiler| {
            inject_worker_faults(faults, batch.len() as u64);
            let emitted = profiler.observe_batch(batch);
            debug_assert!(emitted.is_empty());
        })
    }
}

/// Runs `f` against an inline profiler under `catch_unwind`. A panic
/// poisons the profiler: this and every later call fail with
/// [`Error::WorkerDied`], the same error a dead worker produces.
fn guarded<T>(
    profiler: &mut Result<Box<dyn EventProfiler + Send>, String>,
    f: impl FnOnce(&mut dyn EventProfiler) -> T,
) -> Result<T, Error> {
    let live = profiler
        .as_mut()
        .map_err(|_| Error::WorkerDied { shard: 0 })?;
    match panic::catch_unwind(AssertUnwindSafe(|| f(live.as_mut()))) {
        Ok(value) => Ok(value),
        Err(payload) => {
            *profiler = Err(panic_message(payload.as_ref()));
            Err(Error::WorkerDied { shard: 0 })
        }
    }
}

impl EngineSession {
    /// A session with `shards` shards and no profiler attached yet: the
    /// state both constructors share.
    fn empty(
        config: &EngineConfig,
        interval_len: u64,
        shards: usize,
        telemetry: Option<EngineTelemetry>,
    ) -> Self {
        let batch_cap = config.batch_events();
        EngineSession {
            inline: None,
            senders: Vec::new(),
            recycle_rxs: Vec::new(),
            profile_rxs: Vec::new(),
            handles: Vec::new(),
            batches: (0..shards).map(|_| Vec::with_capacity(batch_cap)).collect(),
            stats: vec![ShardStats::default(); shards],
            completed: Vec::new(),
            pending_cuts: 0,
            events: 0,
            in_interval: 0,
            interval_len,
            batch_cap,
            started: Instant::now(),
            telemetry,
            queue_gauges: Vec::new(),
            cut_starts: VecDeque::new(),
            handoff: Duration::ZERO,
            worker_profiler_bytes: 0,
        }
    }

    /// A one-shard session that calls `profiler` on the caller's thread.
    fn inline(
        config: &EngineConfig,
        interval_len: u64,
        profiler: Box<dyn EventProfiler + Send>,
        telemetry: Option<EngineTelemetry>,
        faults: Option<FaultHook>,
    ) -> Self {
        let mut session = EngineSession::empty(config, interval_len, 1, telemetry);
        session.inline = Some(InlineShard {
            profiler: Ok(profiler),
            faults,
        });
        session
    }

    /// Spawns one worker thread per pre-built shard profiler.
    /// [`ShardedEngine::start`] builds the profilers from its spec and uses
    /// this for two or more shards; tests inject custom (e.g. panicking)
    /// profilers directly, with any shard count.
    fn spawn(
        config: &EngineConfig,
        interval_len: u64,
        profilers: Vec<Box<dyn EventProfiler + Send>>,
        telemetry: Option<EngineTelemetry>,
        faults: Option<FaultHook>,
    ) -> Self {
        let shards = profilers.len();
        let threads = telemetry.as_ref().map(|t| t.worker_threads.clone());
        let mut session = EngineSession::empty(config, interval_len, shards, telemetry);
        session.worker_profiler_bytes = profilers.iter().map(|p| p.private_bytes() as u64).sum();
        session.queue_gauges = session
            .telemetry
            .as_ref()
            .map(|t| t.queue_depth_gauges(shards))
            .unwrap_or_default();
        for (shard, profiler) in profilers.into_iter().enumerate() {
            let (tx, rx) = ring::ring(config.queue_capacity());
            // Sized so the worker can always return a buffer: at most
            // queue_capacity are queued, one is in the worker's hands and
            // one is being filled by the dispatcher.
            let (recycle_tx, recycle_rx) = ring::ring(config.queue_capacity() + 2);
            let (profile_tx, profile_rx) = std::sync::mpsc::channel();
            let exit = WorkerExit {
                depth: session.queue_gauges.get(shard).cloned(),
                threads: threads.clone(),
            };
            if let Some(threads) = &threads {
                threads.incr();
            }
            let hook = faults.clone();
            session.senders.push(tx);
            session.recycle_rxs.push(recycle_rx);
            session.profile_rxs.push(profile_rx);
            session.handles.push(thread::spawn(move || {
                shard_worker(profiler, rx, recycle_tx, profile_tx, exit, hook)
            }));
        }
        session
    }

    /// Ingests one event, cutting the global interval when it fills.
    ///
    /// # Errors
    ///
    /// [`Error::WorkerDied`] if the target shard's worker hung up (the
    /// worker's own panic, with its message, is reported by
    /// [`finish`](Self::finish)); [`Error::Merge`] if an interval cut this
    /// push triggered failed to merge.
    pub fn push(&mut self, tuple: Tuple) -> Result<(), Error> {
        let shard = shard_of(tuple, self.batches.len());
        self.batches[shard].push(tuple);
        self.stats[shard].events += 1;
        self.events += 1;
        self.in_interval += 1;
        if self.batches[shard].len() >= self.batch_cap {
            self.send_batch(shard)?;
        }
        if self.in_interval == self.interval_len {
            self.broadcast_cut()?;
        }
        Ok(())
    }

    /// Ingests a run of events. Equivalent to pushing each one.
    ///
    /// # Errors
    ///
    /// As [`push`](Self::push); the first failure aborts the run.
    pub fn push_all(&mut self, events: impl IntoIterator<Item = Tuple>) -> Result<(), Error> {
        for tuple in events {
            self.push(tuple)?;
        }
        Ok(())
    }

    /// Ingests a slice of events — the bulk form of [`push`](Self::push),
    /// and semantically identical to pushing each tuple in order.
    ///
    /// The slice is split into runs that never cross an interval boundary,
    /// so the interval bookkeeping moves out of the per-event loop and the
    /// inner loop is just route-and-append.
    ///
    /// # Errors
    ///
    /// As [`push`](Self::push); the first failure aborts the run.
    pub fn push_slice(&mut self, events: &[Tuple]) -> Result<(), Error> {
        let shards = self.batches.len();
        let mut rest = events;
        while !rest.is_empty() {
            let until_cut =
                usize::try_from(self.interval_len - self.in_interval).unwrap_or(usize::MAX);
            let take = rest.len().min(until_cut);
            let (run, tail) = rest.split_at(take);
            for &tuple in run {
                let shard = shard_of(tuple, shards);
                self.stats[shard].events += 1;
                self.batches[shard].push(tuple);
                if self.batches[shard].len() >= self.batch_cap {
                    self.send_batch(shard)?;
                }
            }
            self.events += take as u64;
            self.in_interval += take as u64;
            if self.in_interval == self.interval_len {
                self.broadcast_cut()?;
            }
            rest = tail;
        }
        self.release_drained_batch();
        Ok(())
    }

    /// Ingests one encoded trace chunk (as produced by
    /// [`encode_chunk`](crate::encode_chunk) or a [`TraceWriter`] flush),
    /// partitioning records into per-shard batches *while* decoding, and
    /// returns the bytes consumed — exactly what
    /// [`decode_chunk_into`](crate::decode_chunk_into) would have returned.
    ///
    /// Equivalent to decoding the chunk and [`push_all`](Self::push_all)ing
    /// the result, but without materializing the chunk in one flat buffer
    /// and re-scanning it: each record goes straight from the varint
    /// decoder into its shard's batch. The chunk header and payload CRC are
    /// verified before any record is ingested, so a corrupt chunk is
    /// rejected whole; a record-level decode error mid-chunk (which the
    /// CRC makes practically unreachable) leaves the prefix ingested —
    /// callers that must reconcile can diff [`events`](Self::events)
    /// around the call, and protocol layers that need the buffer to be
    /// exactly one chunk should pre-check its length with
    /// [`declared_chunk_len`](crate::declared_chunk_len) so their error
    /// fires before anything is applied.
    ///
    /// # Errors
    ///
    /// Any [`decode_chunk_into`](crate::decode_chunk_into) decode error,
    /// plus [`push`](Self::push)'s dispatch errors.
    pub fn ingest_chunk(&mut self, chunk: &[u8]) -> Result<usize, Error> {
        let shards = self.batches.len();
        let mut decoder = ChunkDecoder::open(chunk)?;
        while decoder.remaining() > 0 {
            let until_cut =
                usize::try_from(self.interval_len - self.in_interval).unwrap_or(usize::MAX);
            // Clip each sub-run at the batch cap too, so batches flush close
            // to their target size (a shard batch can exceed the cap by at
            // most one sub-run before the flush check below catches it).
            let want = until_cut.min(self.batch_cap);
            let batches = &mut self.batches;
            let stats = &mut self.stats;
            let decoded = decoder.decode_some(want, |tuple| {
                let shard = shard_of(tuple, shards);
                stats[shard].events += 1;
                batches[shard].push(tuple);
            })?;
            self.events += decoded as u64;
            self.in_interval += decoded as u64;
            for shard in 0..shards {
                if self.batches[shard].len() >= self.batch_cap {
                    self.send_batch(shard)?;
                }
            }
            if self.in_interval == self.interval_len {
                self.broadcast_cut()?;
            }
        }
        decoder.finish()?;
        self.release_drained_batch();
        Ok(decoder.consumed())
    }

    /// Forces the global interval to end now and returns its merged profile.
    ///
    /// Subsequent events start a fresh interval, so forced cuts shift later
    /// interval boundaries — that is the point. With no events in the
    /// current interval this is a no-op returning `None` (profilers emit no
    /// empty profiles).
    ///
    /// # Errors
    ///
    /// [`Error::Merge`] if per-shard profiles failed to merge, which
    /// indicates an engine bug rather than user error.
    pub fn cut(&mut self) -> Result<Option<IntervalProfile>, Error> {
        if self.in_interval == 0 {
            return Ok(None);
        }
        self.broadcast_cut()?;
        self.collect_cuts()?;
        Ok(self.completed.last().cloned())
    }

    /// The merged profiles of every interval completed so far, in order.
    ///
    /// # Errors
    ///
    /// [`Error::Merge`] on a shard-merge failure (an engine bug).
    pub fn profiles(&mut self) -> Result<&[IntervalProfile], Error> {
        self.collect_cuts()?;
        Ok(&self.completed)
    }

    /// The hottest `k` tuples of the current *partial* interval, merged
    /// across shards — a live view of the accumulators, computed without
    /// disturbing any profiler state. Hottest first, ties broken by tuple.
    ///
    /// Counts are whatever each shard's profiler architecture tracks: exact
    /// for the perfect profiler, accumulator counts for the hash profilers.
    ///
    /// # Errors
    ///
    /// [`Error::WorkerDied`] if a shard worker died without answering.
    pub fn top_k(&mut self, k: usize) -> Result<Vec<Candidate>, Error> {
        self.flush_batches()?;
        let mut pairs: Vec<(Tuple, u64)> = Vec::new();
        if let Some(inline) = &mut self.inline {
            let answer = inline.call(|profiler| profiler.hot_tuples(k))?;
            pairs.extend(answer.into_iter().map(|c| (c.tuple, c.count)));
        } else {
            let (reply_tx, reply_rx) = std::sync::mpsc::channel();
            for shard in 0..self.senders.len() {
                self.dispatch_msg(shard, Msg::TopK(k, reply_tx.clone()))?;
            }
            drop(reply_tx);
            for shard in 0..self.senders.len() {
                let answer = reply_rx.recv().map_err(|_| Error::WorkerDied { shard })?;
                // Tuple-stable partitioning: no tuple appears on two shards,
                // so concatenation (not summation) is the correct combine.
                pairs.extend(answer.into_iter().map(|c| (c.tuple, c.count)));
            }
        }
        Ok(mhp_core::top_k_by_count(pairs, k)
            .into_iter()
            .map(|(tuple, count)| Candidate::new(tuple, count))
            .collect())
    }

    /// Serializes the session's complete state — every shard profiler,
    /// the merged profiles completed so far, the interval position and the
    /// dispatch statistics — into one versioned, CRC-guarded snapshot that
    /// [`ShardedEngine::restore`] turns back into a live session.
    ///
    /// Acts as a barrier: pending batches are flushed and pending cuts
    /// merged first, so the snapshot reflects exactly the events pushed
    /// before the call. The session keeps running afterwards; saving twice
    /// with no pushes in between produces identical bytes.
    ///
    /// # Errors
    ///
    /// [`Error::WorkerDied`] if a shard worker died before answering;
    /// [`Error::Snapshot`] if a shard profiler cannot snapshot itself
    /// (e.g. a custom profiler without snapshot support); [`Error::Merge`]
    /// on a shard-merge failure while draining pending cuts.
    pub fn save_state(&mut self) -> Result<Vec<u8>, Error> {
        self.flush_batches()?;
        self.collect_cuts()?;
        let blobs = match &mut self.inline {
            Some(inline) => vec![inline.call(|profiler| profiler.save_state())??],
            None => {
                // One reply channel per shard keeps the blobs in shard
                // order no matter which worker answers first.
                let mut replies = Vec::with_capacity(self.senders.len());
                for shard in 0..self.senders.len() {
                    let (tx, rx) = std::sync::mpsc::channel();
                    self.dispatch_msg(shard, Msg::SaveState(tx))?;
                    replies.push(rx);
                }
                let mut blobs = Vec::with_capacity(replies.len());
                for (shard, rx) in replies.into_iter().enumerate() {
                    blobs.push(rx.recv().map_err(|_| Error::WorkerDied { shard })??);
                }
                blobs
            }
        };
        let mut w = SnapshotWriter::new(KIND_ENGINE_SESSION);
        w.put_u64(self.batches.len() as u64);
        w.put_u64(self.interval_len);
        w.put_u64(self.events);
        w.put_u64(self.in_interval);
        for stats in &self.stats {
            w.put_u64(stats.events);
            w.put_u64(stats.batches);
            w.put_u64(stats.stalls);
        }
        w.put_u64(self.completed.len() as u64);
        for profile in &self.completed {
            put_profile(&mut w, profile);
        }
        for blob in &blobs {
            w.put_bytes(blob);
        }
        Ok(w.finish())
    }

    /// Events ingested so far (including the current partial interval).
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Intervals completed so far.
    pub fn intervals(&self) -> u64 {
        self.pending_cuts + self.completed.len() as u64
    }

    /// Events in the current (incomplete) interval.
    pub fn in_interval(&self) -> u64 {
        self.in_interval
    }

    /// Per-shard ingestion statistics so far.
    pub fn shard_stats(&self) -> &[ShardStats] {
        &self.stats
    }

    /// Rough estimate of the session's resident memory, in bytes.
    ///
    /// Counts the retained merged profiles (24 bytes per candidate plus
    /// per-profile overhead), buffered batches, and each shard profiler's
    /// private state ([`EventProfiler::private_bytes`]: counters,
    /// accumulator, exact counts; hash tables shared with other sessions
    /// are charged nothing). An inline profiler is measured at each call; a
    /// worker's, which lives on its thread, as it was when spawned. This is an
    /// accounting figure for admission control and LRU eviction (see
    /// `mhp-server`'s session memory budget), not an allocator measurement:
    /// it is cheap, monotone in the real footprint, and stable across calls
    /// when the session is idle. Profiles still buffered inside workers
    /// (pending cuts) are not counted until collected.
    pub fn approx_memory_bytes(&self) -> u64 {
        const PER_PROFILE_BYTES: u64 = 128;
        const PER_CANDIDATE_BYTES: u64 = 24;
        let profiles: u64 = self
            .completed
            .iter()
            .map(|p| PER_PROFILE_BYTES + PER_CANDIDATE_BYTES * p.len() as u64)
            .sum();
        let batches: u64 = self.batches.iter().map(|b| 16 * b.capacity() as u64).sum();
        let inline = match &self.inline {
            Some(InlineShard {
                profiler: Ok(profiler),
                ..
            }) => profiler.private_bytes() as u64,
            _ => 0,
        };
        self.worker_profiler_bytes + inline + profiles + batches
    }

    /// Drains the stream: flushes a trailing partial interval's events
    /// (they count toward throughput but cut no profile), stops the
    /// workers, and returns the merged [`EngineReport`].
    ///
    /// # Errors
    ///
    /// [`Error::WorkerPanicked`] (with the panic message) if any shard
    /// profiler panicked during the run, on a worker or inline;
    /// [`Error::Merge`] on a shard-merge failure (an engine bug).
    pub fn finish(mut self) -> Result<EngineReport, Error> {
        let flushed = self.flush_batches();
        for sender in std::mem::take(&mut self.senders) {
            drop(sender);
        }
        let mut worker_panic = match &self.inline {
            Some(InlineShard {
                profiler: Err(message),
                ..
            }) => Some(Error::WorkerPanicked {
                shard: 0,
                message: message.clone(),
            }),
            _ => None,
        };
        for (shard, handle) in std::mem::take(&mut self.handles).into_iter().enumerate() {
            if let Err(payload) = handle.join() {
                worker_panic.get_or_insert(Error::WorkerPanicked {
                    shard,
                    message: panic_message(payload.as_ref()),
                });
            }
        }
        // The panic is the root cause; a failed flush to the dead worker is
        // only its symptom.
        if let Some(err) = worker_panic {
            return Err(err);
        }
        flushed?;
        self.collect_cuts()?;
        let intervals = self.intervals();
        Ok(EngineReport {
            profiles: std::mem::take(&mut self.completed),
            events: self.events,
            intervals,
            elapsed: self.started.elapsed(),
            shards: std::mem::take(&mut self.stats),
        })
    }

    /// Hands the shard's pending batch to its worker, swapping in a
    /// recycled buffer from the worker's return ring (or a fresh
    /// allocation only when none has come back yet). An inline session
    /// observes the batch in place and reuses its buffer.
    fn send_batch(&mut self, shard: usize) -> Result<(), Error> {
        if let Some(inline) = &mut self.inline {
            let batch = &mut self.batches[shard];
            let observed = inline.observe_batch(batch);
            let events = batch.len() as u64;
            batch.clear();
            observed?;
            self.count_batch(shard, events);
            return Ok(());
        }
        let started = Instant::now();
        let fresh = match self.recycle_rxs[shard].try_recv() {
            Ok(buf) => buf,
            Err(_) => Vec::with_capacity(self.batch_cap),
        };
        let batch = std::mem::replace(&mut self.batches[shard], fresh);
        let result = self.dispatch_msg(shard, Msg::Batch(batch));
        self.handoff += started.elapsed();
        result
    }

    /// Time spent handing batches into shard rings — buffer recycling plus
    /// the ring send, including any blocking stall on a full ring — since
    /// the last call; resets the accumulator. This is the "ring handoff"
    /// share of an ingest call's wall time; callers attributing latency
    /// per stage subtract it from the whole ingest duration. Always zero
    /// for an inline session, which hands nothing off: its sketch work is
    /// part of the ingest call itself.
    pub fn take_handoff_time(&mut self) -> Duration {
        std::mem::take(&mut self.handoff)
    }

    /// Sends a message to a shard worker, preferring the non-blocking path;
    /// a full ring counts one stall and falls back to a blocking send. A
    /// hung-up worker (it died, almost always by panicking) is an error for
    /// the *caller* to handle — never a panic on the dispatching thread.
    ///
    /// Dispatch statistics and telemetry (batch counts, event counts, the
    /// queue-depth gauge) are updated only after the send *succeeds*: a
    /// batch that dies with its worker was never dispatched and is not
    /// counted as such.
    fn dispatch_msg(&mut self, shard: usize, msg: Msg) -> Result<(), Error> {
        let batch_events = match &msg {
            Msg::Batch(batch) => Some(batch.len() as u64),
            _ => None,
        };
        match self.senders[shard].try_send(msg) {
            Ok(()) => {}
            Err(ring::TrySendError::Full(msg)) => {
                self.stats[shard].stalls += 1;
                if let Some(t) = &self.telemetry {
                    t.stalls.incr();
                }
                if self.senders[shard].send(msg).is_err() {
                    return Err(self.worker_died(shard));
                }
            }
            Err(ring::TrySendError::Disconnected(_)) => {
                return Err(self.worker_died(shard));
            }
        }
        if let Some(events) = batch_events {
            self.count_batch(shard, events);
        }
        if let Some(depth) = self.queue_gauges.get(shard) {
            depth.incr();
        }
        Ok(())
    }

    /// Counts one batch of `events` as dispatched to `shard`.
    fn count_batch(&mut self, shard: usize, events: u64) {
        self.stats[shard].batches += 1;
        if let Some(t) = &self.telemetry {
            t.batches.incr();
            t.events.add(events);
            t.batch_events.record(events);
        }
    }

    /// Records a dead worker: its queued backlog will never be consumed, so
    /// its depth gauge is zeroed here as well as by the worker's own exit
    /// guard (covering the race where a send lands while the worker is
    /// already unwinding).
    fn worker_died(&self, shard: usize) -> Error {
        if let Some(depth) = self.queue_gauges.get(shard) {
            depth.set(0);
        }
        Error::WorkerDied { shard }
    }

    /// Frees an inline session's batch buffer when a bulk ingest call has
    /// left it empty. The buffer only stages events between the decoder
    /// and the profiler, so between calls an idle session then holds
    /// nothing but its sketch state; the next call regrows it. A worker
    /// session's buffers circulate through its rings and are kept.
    fn release_drained_batch(&mut self) {
        if self.inline.is_some() && self.batches[0].is_empty() {
            self.batches[0] = Vec::new();
        }
    }

    /// Flushes every shard's pending batch without cutting.
    fn flush_batches(&mut self) -> Result<(), Error> {
        for shard in 0..self.batches.len() {
            if !self.batches[shard].is_empty() {
                self.send_batch(shard)?;
            }
        }
        Ok(())
    }

    /// Flushes batches and broadcasts a cut; the workers' profiles are
    /// collected lazily by [`collect_cuts`](Self::collect_cuts). An inline
    /// session cuts its profiler and merges the profile at once.
    fn broadcast_cut(&mut self) -> Result<(), Error> {
        self.flush_batches()?;
        if let Some(inline) = &mut self.inline {
            let started = Instant::now();
            let part = inline.call(|profiler| profiler.finish_interval())?;
            // The one-part merge is not a formality: it normalizes the
            // shard's external-cut config exactly as a worker session's
            // merge does, so both produce equal profiles and snapshots.
            self.completed.push(IntervalProfile::merge([part])?);
            if let Some(t) = &self.telemetry {
                t.cuts.incr();
                t.cut_latency.record_duration(started.elapsed());
            }
        } else {
            for shard in 0..self.senders.len() {
                self.dispatch_msg(shard, Msg::Cut)?;
            }
            if let Some(t) = &self.telemetry {
                t.cuts.incr();
                self.cut_starts.push_back(Instant::now());
            }
            self.pending_cuts += 1;
        }
        self.in_interval = 0;
        Ok(())
    }

    /// Merges every broadcast-but-uncollected cut into `completed`. Blocks
    /// until the workers deliver; each sends exactly one profile per cut,
    /// in order, so this always terminates.
    fn collect_cuts(&mut self) -> Result<(), Error> {
        while self.pending_cuts > 0 {
            let mut parts = Vec::with_capacity(self.profile_rxs.len());
            for (shard, rx) in self.profile_rxs.iter().enumerate() {
                parts.push(rx.recv().map_err(|_| Error::WorkerDied { shard })?);
            }
            self.completed.push(IntervalProfile::merge(parts)?);
            self.pending_cuts -= 1;
            if let (Some(t), Some(start)) = (&self.telemetry, self.cut_starts.pop_front()) {
                t.cut_latency.record_duration(start.elapsed());
            }
        }
        Ok(())
    }
}

/// How long [`EngineSession`]'s `Drop` waits for each worker before
/// detaching it. Workers exit promptly once the channel hangs up; the bound
/// exists so a wedged worker (stuck in a profiler call or an injected
/// stall) cannot hang the dropping thread forever.
const DROP_JOIN_TIMEOUT: Duration = Duration::from_secs(2);

impl Drop for EngineSession {
    fn drop(&mut self) {
        // Hang up so the workers exit their receive loops, then reap them —
        // but with a bound: past the deadline the worker is detached (it
        // still exits on its own once it drains the hung-up channel; the
        // drop just stops waiting for it).
        self.senders.clear();
        let deadline = Instant::now() + DROP_JOIN_TIMEOUT;
        for handle in std::mem::take(&mut self.handles) {
            while !handle.is_finished() && Instant::now() < deadline {
                thread::sleep(Duration::from_millis(1));
            }
            if handle.is_finished() {
                let _ = handle.join();
            }
        }
        // A detached (wedged) worker never ran its own gauge reset; the
        // session is over either way, so no backlog remains to report.
        for gauge in &self.queue_gauges {
            gauge.set(0);
        }
    }
}

/// A shard worker's exit guard, dropped on every exit path including a
/// panic's unwind. It zeroes the shard's queue-depth gauge, so messages
/// still queued behind a dead worker can never leave the gauge stuck
/// positive, and takes the worker off the live-thread gauge.
struct WorkerExit {
    depth: Option<Gauge>,
    threads: Option<Gauge>,
}

impl Drop for WorkerExit {
    fn drop(&mut self) {
        if let Some(depth) = &self.depth {
            depth.set(0);
        }
        if let Some(threads) = &self.threads {
            threads.decr();
        }
    }
}

/// Consults the fault hook once per batch, panicking or stalling the
/// calling thread when a planned fault fires. One `Option` check per
/// *batch*: disarmed fault machinery is compiled in but off the per-event
/// path entirely.
fn inject_worker_faults(faults: Option<&FaultHook>, events: u64) {
    if let Some(hook) = faults {
        match hook.on_worker_events(events) {
            WorkerAction::Proceed => {}
            WorkerAction::Panic => panic!("injected fault: worker panic"),
            WorkerAction::Stall(pause) => thread::sleep(pause),
        }
    }
}

/// Extracts a human-readable message from a worker thread's panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn shard_worker(
    mut profiler: Box<dyn EventProfiler + Send>,
    rx: ring::Receiver<Msg>,
    recycle: ring::Sender<Vec<Tuple>>,
    profile_tx: Sender<IntervalProfile>,
    exit: WorkerExit,
    faults: Option<FaultHook>,
) {
    let depth = exit.depth.clone();
    for msg in rx {
        // The message left the queue: the shard's live backlog shrank.
        if let Some(depth) = &depth {
            depth.decr();
        }
        match msg {
            Msg::Batch(mut batch) => {
                inject_worker_faults(faults.as_ref(), batch.len() as u64);
                // One virtual call per batch, with the profiler's branch-
                // hoisted loop inside. External-cut profilers never complete
                // an interval on their own, so the result is an empty Vec
                // (no allocation happens for it).
                let emitted = profiler.observe_batch(&batch);
                debug_assert!(emitted.is_empty());
                drop(emitted);
                // Return the emptied buffer to the dispatcher. The ring is
                // sized to always have room; if the dispatcher is gone (or
                // has stopped draining), the buffer is simply dropped.
                batch.clear();
                let _ = recycle.try_send(batch);
            }
            // The session may have hung up already (dropped un-finished);
            // then nobody wants the answer and the error is fine to ignore.
            Msg::Cut => {
                let _ = profile_tx.send(profiler.finish_interval());
            }
            Msg::TopK(k, reply) => {
                let _ = reply.send(profiler.hot_tuples(k));
            }
            Msg::SaveState(reply) => {
                let _ = reply.send(profiler.save_state());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhp_trace::{Benchmark, StreamKind, StreamSpec};

    fn li_events(n: usize) -> impl Iterator<Item = Tuple> {
        StreamSpec::new(Benchmark::Li, StreamKind::Value, 7)
            .events()
            .take(n)
    }

    #[test]
    fn shard_routing_is_tuple_stable_and_in_range() {
        for tuple in li_events(2_000) {
            let shard = shard_of(tuple, 8);
            assert!(shard < 8);
            assert_eq!(shard, shard_of(tuple, 8));
        }
        assert!(li_events(2_000).all(|t| shard_of(t, 1) == 0));
    }

    #[test]
    fn shard_routing_spreads_load() {
        let mut counts = [0u64; 8];
        for tuple in li_events(20_000) {
            counts[shard_of(tuple, 8)] += 1;
        }
        for (shard, &count) in counts.iter().enumerate() {
            assert!(count > 500, "shard {shard} got only {count} events");
        }
    }

    #[test]
    fn perfect_sharded_runs_match_single_threaded_exactly() {
        let interval = IntervalConfig::new(5_000, 0.01).unwrap();
        let mut reference = PerfectProfiler::new(interval);
        let expected = reference.observe_all(li_events(23_000));
        assert_eq!(expected.len(), 4);

        for shards in [1, 2, 4, 8] {
            let engine = ShardedEngine::new(
                EngineConfig::new(shards).with_batch_events(256),
                interval,
                ProfilerSpec::Perfect,
                0,
            );
            let report = engine.run(li_events(23_000)).unwrap();
            assert_eq!(report.profiles, expected, "{shards} shards");
            assert_eq!(report.events, 23_000);
            assert_eq!(report.intervals, 4);
            let dispatched: u64 = report.shards.iter().map(|s| s.events).sum();
            assert_eq!(dispatched, 23_000);
        }
    }

    #[test]
    fn single_shard_multi_hash_matches_single_threaded() {
        let interval = IntervalConfig::new(10_000, 0.01).unwrap();
        let config = MultiHashConfig::best();
        let mut reference = MultiHashProfiler::new(interval, config, 42).unwrap();
        let expected = reference.observe_all(li_events(30_000));

        let engine = ShardedEngine::new(
            EngineConfig::new(1),
            interval,
            ProfilerSpec::MultiHash(config),
            42,
        );
        let report = engine.run(li_events(30_000)).unwrap();
        assert_eq!(report.profiles, expected);
    }

    #[test]
    fn trailing_partial_interval_yields_no_profile() {
        let interval = IntervalConfig::new(1_000, 0.1).unwrap();
        let engine = ShardedEngine::new(EngineConfig::new(2), interval, ProfilerSpec::Perfect, 0);
        let report = engine.run(li_events(1_500)).unwrap();
        assert_eq!(report.intervals, 1);
        assert_eq!(report.profiles.len(), 1);
        assert_eq!(report.events, 1_500);
    }

    #[test]
    fn stream_errors_abort_the_run() {
        let interval = IntervalConfig::new(100, 0.1).unwrap();
        let engine = ShardedEngine::new(EngineConfig::new(2), interval, ProfilerSpec::Perfect, 0);
        let events = li_events(250)
            .map(Ok)
            .chain(std::iter::once(Err(Error::TrailingData)));
        let result = engine.run_results(events);
        assert!(matches!(result, Err(Error::TrailingData)));
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let interval = IntervalConfig::new(100, 0.1).unwrap();
        for config in [
            EngineConfig::new(0),
            EngineConfig::new(EngineConfig::MAX_SHARDS + 1),
            EngineConfig::new(2).with_queue_capacity(0),
            EngineConfig::new(2).with_batch_events(0),
        ] {
            let engine = ShardedEngine::new(config, interval, ProfilerSpec::Perfect, 0);
            assert!(matches!(
                engine.run(li_events(10)),
                Err(Error::InvalidEngine(_))
            ));
        }
    }

    #[test]
    fn profiler_specs_parse_by_name() {
        assert!(matches!(
            "multi-hash".parse::<ProfilerSpec>(),
            Ok(ProfilerSpec::MultiHash(_))
        ));
        assert!(matches!(
            "single-hash".parse::<ProfilerSpec>(),
            Ok(ProfilerSpec::SingleHash(_))
        ));
        assert!(matches!(
            "perfect".parse::<ProfilerSpec>(),
            Ok(ProfilerSpec::Perfect)
        ));
        assert!("oracle".parse::<ProfilerSpec>().is_err());
    }

    #[test]
    fn session_streaming_matches_batch_run() {
        let interval = IntervalConfig::new(5_000, 0.01).unwrap();
        let config = MultiHashConfig::best();
        for (spec, shards) in [
            (ProfilerSpec::Perfect, 4),
            (ProfilerSpec::MultiHash(config), 1),
        ] {
            let engine = ShardedEngine::new(
                EngineConfig::new(shards).with_batch_events(128),
                interval,
                spec,
                42,
            );
            let expected = engine.run(li_events(17_000)).unwrap();

            let mut session = engine.start().unwrap();
            let events: Vec<Tuple> = li_events(17_000).collect();
            // Irregular push sizes: boundaries must come from the global
            // count, not from push granularity.
            for chunk in events.chunks(733) {
                session.push_all(chunk.iter().copied()).unwrap();
            }
            let report = session.finish().unwrap();
            assert_eq!(report.profiles, expected.profiles, "{spec} x{shards}");
            assert_eq!(report.events, 17_000);
            assert_eq!(report.intervals, 3);
        }
    }

    #[test]
    fn session_profiles_are_queryable_mid_stream() {
        let interval = IntervalConfig::new(1_000, 0.05).unwrap();
        let engine = ShardedEngine::new(EngineConfig::new(2), interval, ProfilerSpec::Perfect, 0);
        let mut session = engine.start().unwrap();
        session.push_all(li_events(2_500)).unwrap();
        assert_eq!(session.events(), 2_500);
        assert_eq!(session.intervals(), 2);
        assert_eq!(session.in_interval(), 500);
        let profiles = session.profiles().unwrap();
        assert_eq!(profiles.len(), 2);
        assert_eq!(profiles[0].interval_index(), 0);
        assert_eq!(profiles[1].interval_index(), 1);
        // Querying consumed nothing: the stream continues seamlessly.
        session.push_all(li_events(500)).unwrap();
        assert_eq!(session.intervals(), 3);
        let report = session.finish().unwrap();
        assert_eq!(report.profiles.len(), 3);
    }

    #[test]
    fn session_top_k_sees_the_partial_interval_exactly() {
        let interval = IntervalConfig::new(100_000, 0.01).unwrap();
        let engine = ShardedEngine::new(
            EngineConfig::new(4).with_batch_events(64),
            interval,
            ProfilerSpec::Perfect,
            0,
        );
        let mut session = engine.start().unwrap();
        let events: Vec<Tuple> = li_events(9_000).collect();
        session.push_all(events.iter().copied()).unwrap();

        // The perfect profiler tracks exact counts, so top-k must equal a
        // direct count over the pushed events.
        let mut counts: std::collections::HashMap<Tuple, u64> = std::collections::HashMap::new();
        for &t in &events {
            *counts.entry(t).or_insert(0) += 1;
        }
        let expected: Vec<Candidate> = mhp_core::top_k_by_count(counts.into_iter().collect(), 10)
            .into_iter()
            .map(|(tuple, count)| Candidate::new(tuple, count))
            .collect();
        assert_eq!(session.top_k(10).unwrap(), expected);
        // And the query was non-destructive.
        assert_eq!(session.top_k(10).unwrap(), expected);
        assert_eq!(session.finish().unwrap().events, 9_000);
    }

    #[test]
    fn session_forced_cut_ends_the_interval_early() {
        let interval = IntervalConfig::new(1_000, 0.1).unwrap();
        let engine = ShardedEngine::new(EngineConfig::new(2), interval, ProfilerSpec::Perfect, 0);
        let mut session = engine.start().unwrap();
        session.push_all(li_events(400)).unwrap();
        let profile = session.cut().unwrap().expect("400 pending events");
        // A single-threaded external-cut run over the same 400 events is
        // the exact expectation for the forced cut.
        let mut reference = PerfectProfiler::new(interval.with_external_cut());
        for t in li_events(400) {
            assert!(reference.observe(t).is_none());
        }
        // (merge normalizes the external-cut marker away, on both sides)
        let expected = IntervalProfile::merge([reference.finish_interval()]).unwrap();
        assert_eq!(profile, expected);
        // Nothing pending: a second cut is a no-op.
        assert!(session.cut().unwrap().is_none());
        assert_eq!(session.in_interval(), 0);
        // Boundaries restart from the cut: 1 000 more events = 1 more interval.
        session.push_all(li_events(1_000)).unwrap();
        let report = session.finish().unwrap();
        assert_eq!(report.intervals, 2);
        assert_eq!(report.events, 1_400);
    }

    #[test]
    fn dropped_session_shuts_down_cleanly() {
        let interval = IntervalConfig::new(1_000, 0.1).unwrap();
        let engine = ShardedEngine::new(EngineConfig::new(4), interval, ProfilerSpec::Perfect, 0);
        let mut session = engine.start().unwrap();
        session.push_all(li_events(2_500)).unwrap();
        drop(session); // must join workers, not leak or deadlock
    }

    #[test]
    fn slow_consumer_applies_backpressure_without_failing() {
        // A worker that dawdles on every event, behind a 1-deep queue:
        // the dispatcher must stall (blocking send), not error or panic.
        struct Slow(PerfectProfiler);
        impl EventProfiler for Slow {
            fn interval_config(&self) -> IntervalConfig {
                self.0.interval_config()
            }
            fn observe(&mut self, tuple: Tuple) -> Option<IntervalProfile> {
                thread::sleep(Duration::from_micros(50));
                self.0.observe(tuple)
            }
            fn finish_interval(&mut self) -> IntervalProfile {
                self.0.finish_interval()
            }
            fn reset(&mut self) {
                self.0.reset()
            }
            fn events_in_current_interval(&self) -> u64 {
                self.0.events_in_current_interval()
            }
            fn interval_index(&self) -> u64 {
                self.0.interval_index()
            }
        }
        let interval = IntervalConfig::new(10_000, 0.01).unwrap();
        let config = EngineConfig::new(1)
            .with_queue_capacity(1)
            .with_batch_events(8);
        let mut session = EngineSession::spawn(
            &config,
            interval.interval_len(),
            vec![Box::new(Slow(PerfectProfiler::new(
                interval.with_external_cut(),
            )))],
            None,
            None,
        );
        for tuple in li_events(400) {
            session.push(tuple).unwrap();
        }
        let report = session.finish().unwrap();
        assert_eq!(report.events, 400);
        assert!(
            report.total_stalls() > 0,
            "a 1-deep queue against a slow worker must stall the dispatcher"
        );
    }

    #[test]
    fn poisoned_worker_errors_instead_of_panicking_the_dispatcher() {
        // Regression: a panicked shard worker with a full queue used to
        // panic the *dispatching* thread via expect() on the blocking send.
        struct Poisoned {
            interval: IntervalConfig,
            seen: u64,
        }
        impl EventProfiler for Poisoned {
            fn interval_config(&self) -> IntervalConfig {
                self.interval
            }
            fn observe(&mut self, _tuple: Tuple) -> Option<IntervalProfile> {
                self.seen += 1;
                assert!(self.seen < 10, "profiler poisoned at event 10");
                None
            }
            fn finish_interval(&mut self) -> IntervalProfile {
                IntervalProfile::from_candidates(0, self.interval, Vec::new())
            }
            fn reset(&mut self) {}
            fn events_in_current_interval(&self) -> u64 {
                self.seen
            }
            fn interval_index(&self) -> u64 {
                0
            }
        }
        let interval = IntervalConfig::new(1_000_000, 0.01)
            .unwrap()
            .with_external_cut();
        let config = EngineConfig::new(1)
            .with_queue_capacity(1)
            .with_batch_events(1);
        let mut session = EngineSession::spawn(
            &config,
            1_000_000,
            vec![Box::new(Poisoned { interval, seen: 0 })],
            None,
            None,
        );
        let mut push_err = None;
        for tuple in li_events(10_000) {
            if let Err(err) = session.push(tuple) {
                push_err = Some(err);
                break;
            }
        }
        assert!(
            matches!(push_err, Some(Error::WorkerDied { shard: 0 })),
            "dead worker must surface as an error on push, got {push_err:?}"
        );
        match session.finish() {
            Err(Error::WorkerPanicked { shard: 0, message }) => {
                assert!(
                    message.contains("poisoned"),
                    "panic message lost: {message}"
                );
            }
            other => panic!("finish must report the worker panic, got {other:?}"),
        }
    }

    #[test]
    fn instrumented_run_reports_engine_and_sketch_metrics() {
        use crate::telemetry::{EngineTelemetry, RegistrySink};
        use mhp_telemetry::{stat_value, Registry};

        let registry = Registry::new();
        let interval = IntervalConfig::new(5_000, 0.01).unwrap();
        let engine = ShardedEngine::new(
            EngineConfig::new(2).with_batch_events(256),
            interval,
            ProfilerSpec::MultiHash(MultiHashConfig::best()),
            42,
        )
        .with_telemetry(EngineTelemetry::new(&registry))
        .with_introspection_sink(RegistrySink::shared(&registry));

        let report = engine.run(li_events(12_000)).unwrap();
        assert_eq!(report.events, 12_000);
        assert_eq!(report.intervals, 2);

        let text = registry.render_prometheus();
        assert_eq!(stat_value(&text, "engine_events_total"), Some(12_000));
        assert_eq!(stat_value(&text, "engine_cuts_total"), Some(2));
        assert!(stat_value(&text, "engine_batches_total").unwrap() > 0);
        assert!(stat_value(&text, "engine_batch_events_count").unwrap() > 0);
        assert_eq!(stat_value(&text, "engine_cut_latency_us_count"), Some(2));
        // Both shards' profilers reported through the sink: one snapshot
        // per shard per cut; the trailing 2 000-event partial interval is
        // never cut, so it appears in engine_events_total only.
        assert_eq!(stat_value(&text, "sketch_intervals_total"), Some(4));
        assert_eq!(stat_value(&text, "sketch_events_total"), Some(10_000));
        assert!(stat_value(&text, "sketch_promotions_total").unwrap() > 0);
        // Queues drained: every depth gauge is back to zero.
        assert!(text.contains("engine_queue_depth{shard=\"0\"} 0"));
        assert!(text.contains("engine_queue_depth{shard=\"1\"} 0"));
        // An uninstrumented engine still works and touches none of this.
        let plain = ShardedEngine::new(EngineConfig::new(2), interval, ProfilerSpec::Perfect, 0);
        plain.run(li_events(6_000)).unwrap();
        assert_eq!(
            stat_value(&registry.render_prometheus(), "engine_events_total"),
            Some(12_000)
        );
    }

    #[test]
    fn session_save_restore_continue_matches_uninterrupted() {
        let interval = IntervalConfig::new(2_000, 0.02).unwrap();
        for spec in [
            ProfilerSpec::Perfect,
            ProfilerSpec::MultiHash(MultiHashConfig::best()),
            ProfilerSpec::SingleHash(SingleHashConfig::best()),
        ] {
            let engine = ShardedEngine::new(
                EngineConfig::new(4).with_batch_events(128),
                interval,
                spec,
                0xD15EA5E,
            );
            // Reference: one uninterrupted session over all 7_300 events
            // (mid-interval tail included).
            let events: Vec<Tuple> = li_events(7_300).collect();
            let mut clean = engine.start().unwrap();
            clean.push_all(events.iter().copied()).unwrap();
            let expected_top = clean.top_k(10).unwrap();
            let expected = clean.finish().unwrap();

            // Interrupted: push a prefix ending mid-interval, snapshot,
            // kill the session, restore, push the suffix.
            let mut first = engine.start().unwrap();
            first.push_all(events[..4_700].iter().copied()).unwrap();
            let snapshot = first.save_state().unwrap();
            assert_eq!(
                first.save_state().unwrap(),
                snapshot,
                "{spec}: saving twice must produce identical bytes"
            );
            drop(first);

            let mut restored = engine.restore(&snapshot).unwrap();
            assert_eq!(
                restored.save_state().unwrap(),
                snapshot,
                "{spec}: a restored session must re-snapshot to the same bytes"
            );
            assert_eq!(restored.events(), 4_700);
            assert_eq!(restored.in_interval(), 700);
            restored.push_all(events[4_700..].iter().copied()).unwrap();
            assert_eq!(restored.top_k(10).unwrap(), expected_top, "{spec}");
            let report = restored.finish().unwrap();
            assert_eq!(report.profiles, expected.profiles, "{spec}");
            assert_eq!(report.events, expected.events);
            assert_eq!(report.intervals, expected.intervals);
        }
    }

    #[test]
    fn restore_rejects_mismatched_engines_and_damaged_snapshots() {
        let interval = IntervalConfig::new(1_000, 0.05).unwrap();
        let engine = ShardedEngine::new(EngineConfig::new(2), interval, ProfilerSpec::Perfect, 7);
        let mut session = engine.start().unwrap();
        session.push_all(li_events(1_500)).unwrap();
        let snapshot = session.save_state().unwrap();
        drop(session);

        // Different shard count.
        let other_shards =
            ShardedEngine::new(EngineConfig::new(4), interval, ProfilerSpec::Perfect, 7);
        assert!(matches!(
            other_shards.restore(&snapshot),
            Err(Error::Snapshot(SnapshotError::ConfigMismatch {
                context: "shard count"
            }))
        ));
        // Different interval length.
        let other_interval = ShardedEngine::new(
            EngineConfig::new(2),
            IntervalConfig::new(2_000, 0.05).unwrap(),
            ProfilerSpec::Perfect,
            7,
        );
        assert!(matches!(
            other_interval.restore(&snapshot),
            Err(Error::Snapshot(SnapshotError::ConfigMismatch {
                context: "interval length"
            }))
        ));
        // Truncation at every length fails typed, never panics.
        for len in 0..snapshot.len() {
            assert!(matches!(
                engine.restore(&snapshot[..len]),
                Err(Error::Snapshot(_))
            ));
        }
        // Bit flips are caught by the envelope CRC.
        for i in (0..snapshot.len()).step_by(11) {
            let mut bad = snapshot.clone();
            bad[i] ^= 0x10;
            assert!(matches!(engine.restore(&bad), Err(Error::Snapshot(_))));
        }
    }

    #[test]
    fn injected_worker_panic_surfaces_as_typed_error() {
        use mhp_faults::{FaultKind, FaultPlan};
        let interval = IntervalConfig::new(10_000, 0.01).unwrap();
        let hook = FaultPlan::new(42)
            .with_fault(FaultKind::WorkerPanic, 2_000)
            .arm();
        let engine = ShardedEngine::new(
            EngineConfig::new(2).with_batch_events(128),
            interval,
            ProfilerSpec::Perfect,
            0,
        )
        .with_fault_hook(hook.clone());
        match engine.run(li_events(20_000)) {
            Err(Error::WorkerPanicked { message, .. }) => {
                assert!(message.contains("injected fault"), "{message}");
            }
            other => panic!("expected a typed worker panic, got {other:?}"),
        }
        assert_eq!(hook.injected(FaultKind::WorkerPanic), 1);
    }

    #[test]
    fn injected_worker_stall_delays_but_does_not_diverge() {
        use mhp_faults::{FaultKind, FaultPlan};
        let interval = IntervalConfig::new(5_000, 0.01).unwrap();
        let clean = ShardedEngine::new(
            EngineConfig::new(2).with_batch_events(256),
            interval,
            ProfilerSpec::Perfect,
            0,
        );
        let expected = clean.run(li_events(12_000)).unwrap();

        let hook = FaultPlan::new(42)
            .with_fault(FaultKind::WorkerStall, 1_000)
            .arm();
        let report = clean
            .clone()
            .with_fault_hook(hook.clone())
            .run(li_events(12_000))
            .unwrap();
        assert_eq!(report.profiles, expected.profiles);
        assert_eq!(report.events, 12_000);
        assert_eq!(hook.injected(FaultKind::WorkerStall), 1);
    }

    #[test]
    fn dropping_a_session_with_a_wedged_worker_is_bounded() {
        // A worker stuck inside a profiler call must not hang Drop forever:
        // past DROP_JOIN_TIMEOUT it is detached instead of joined.
        struct Wedged(PerfectProfiler);
        impl EventProfiler for Wedged {
            fn interval_config(&self) -> IntervalConfig {
                self.0.interval_config()
            }
            fn observe(&mut self, tuple: Tuple) -> Option<IntervalProfile> {
                thread::sleep(Duration::from_secs(6));
                self.0.observe(tuple)
            }
            fn finish_interval(&mut self) -> IntervalProfile {
                self.0.finish_interval()
            }
            fn reset(&mut self) {
                self.0.reset()
            }
            fn events_in_current_interval(&self) -> u64 {
                self.0.events_in_current_interval()
            }
            fn interval_index(&self) -> u64 {
                self.0.interval_index()
            }
        }
        let interval = IntervalConfig::new(1_000_000, 0.01).unwrap();
        let config = EngineConfig::new(1)
            .with_queue_capacity(4)
            .with_batch_events(1);
        let mut session = EngineSession::spawn(
            &config,
            interval.interval_len(),
            vec![Box::new(Wedged(PerfectProfiler::new(
                interval.with_external_cut(),
            )))],
            None,
            None,
        );
        session.push(Tuple::new(1, 1)).unwrap();
        let started = Instant::now();
        drop(session);
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_secs(5),
            "drop must detach a wedged worker within the bound, took {elapsed:?}"
        );
    }

    #[test]
    fn push_slice_matches_per_event_push() {
        let interval = IntervalConfig::new(2_000, 0.02).unwrap();
        for spec in [
            ProfilerSpec::Perfect,
            ProfilerSpec::MultiHash(MultiHashConfig::best()),
        ] {
            let engine = ShardedEngine::new(
                EngineConfig::new(4).with_batch_events(128),
                interval,
                spec,
                7,
            );
            let events: Vec<Tuple> = li_events(9_100).collect();
            let mut reference = engine.start().unwrap();
            reference.push_all(events.iter().copied()).unwrap();
            let expected = reference.finish().unwrap();

            let mut bulk = engine.start().unwrap();
            // Uneven splits: interval boundaries must come from the global
            // count, not the slice granularity.
            for chunk in events.chunks(997) {
                bulk.push_slice(chunk).unwrap();
            }
            let report = bulk.finish().unwrap();
            assert_eq!(report.profiles, expected.profiles, "{spec}");
            assert_eq!(report.events, expected.events);
            assert_eq!(report.intervals, expected.intervals);
        }
    }

    #[test]
    fn ingest_chunk_rejects_corruption_before_ingesting_anything() {
        let interval = IntervalConfig::new(1_000, 0.05).unwrap();
        let engine = ShardedEngine::new(EngineConfig::new(2), interval, ProfilerSpec::Perfect, 0);
        let mut session = engine.start().unwrap();
        let events: Vec<Tuple> = li_events(300).collect();
        let mut chunk = crate::format::encode_chunk(&events);
        // Flip a payload byte: the CRC check in open() must reject the
        // chunk whole, with nothing partially ingested.
        let last = chunk.len() - 1;
        chunk[last] ^= 0x40;
        assert!(matches!(
            session.ingest_chunk(&chunk),
            Err(Error::CrcMismatch { .. })
        ));
        assert_eq!(session.events(), 0);
        chunk[last] ^= 0x40;
        assert_eq!(session.ingest_chunk(&chunk).unwrap(), chunk.len());
        assert_eq!(session.events(), 300);
    }

    /// A profiler that panics its worker on the very first event.
    struct Lethal {
        interval: IntervalConfig,
    }
    impl EventProfiler for Lethal {
        fn interval_config(&self) -> IntervalConfig {
            self.interval
        }
        fn observe(&mut self, _tuple: Tuple) -> Option<IntervalProfile> {
            panic!("lethal profiler: worker dies on first event");
        }
        fn finish_interval(&mut self) -> IntervalProfile {
            IntervalProfile::from_candidates(0, self.interval, Vec::new())
        }
        fn reset(&mut self) {}
        fn events_in_current_interval(&self) -> u64 {
            0
        }
        fn interval_index(&self) -> u64 {
            0
        }
    }

    #[test]
    fn dead_worker_batches_are_not_counted_as_dispatched() {
        use crate::telemetry::EngineTelemetry;
        use mhp_telemetry::{stat_value, Registry};

        let registry = Registry::new();
        let interval = IntervalConfig::new(1_000_000, 0.01)
            .unwrap()
            .with_external_cut();
        let config = EngineConfig::new(1)
            .with_queue_capacity(4)
            .with_batch_events(4);
        let mut session = EngineSession::spawn(
            &config,
            1_000_000,
            vec![Box::new(Lethal { interval })],
            Some(EngineTelemetry::new(&registry)),
            None,
        );
        // The first batch is genuinely dispatched — it reaches the worker
        // and kills it.
        for tuple in li_events(4) {
            session.push(tuple).unwrap();
        }
        while !session.handles[0].is_finished() {
            thread::sleep(Duration::from_millis(1));
        }
        // Regression (dispatch over-count): batches that fail with
        // WorkerDied used to be counted in stats and telemetry *before*
        // try_send was even attempted.
        let mut push_err = None;
        for tuple in li_events(8) {
            if let Err(err) = session.push(tuple) {
                push_err = Some(err);
                break;
            }
        }
        assert!(
            matches!(push_err, Some(Error::WorkerDied { shard: 0 })),
            "got {push_err:?}"
        );
        assert_eq!(
            session.shard_stats()[0].batches,
            1,
            "only the batch that reached the worker counts as dispatched"
        );
        let text = registry.render_prometheus();
        assert_eq!(stat_value(&text, "engine_batches_total"), Some(1));
        assert_eq!(stat_value(&text, "engine_events_total"), Some(4));
        match session.finish() {
            Err(Error::WorkerPanicked { shard: 0, message }) => {
                assert!(message.contains("lethal"), "{message}");
            }
            other => panic!("finish must report the worker panic, got {other:?}"),
        }
    }

    #[test]
    fn queue_gauge_zeroes_when_a_worker_dies_with_a_backlog() {
        use crate::telemetry::EngineTelemetry;
        use mhp_telemetry::Registry;

        // Stalls long enough on its first event for a backlog to queue up
        // behind it, then panics — leaving batches nobody will consume.
        struct StallThenDie {
            interval: IntervalConfig,
        }
        impl EventProfiler for StallThenDie {
            fn interval_config(&self) -> IntervalConfig {
                self.interval
            }
            fn observe(&mut self, _tuple: Tuple) -> Option<IntervalProfile> {
                thread::sleep(Duration::from_millis(500));
                panic!("worker dies with a backlog");
            }
            fn finish_interval(&mut self) -> IntervalProfile {
                IntervalProfile::from_candidates(0, self.interval, Vec::new())
            }
            fn reset(&mut self) {}
            fn events_in_current_interval(&self) -> u64 {
                0
            }
            fn interval_index(&self) -> u64 {
                0
            }
        }

        let registry = Registry::new();
        let interval = IntervalConfig::new(1_000_000, 0.01)
            .unwrap()
            .with_external_cut();
        let config = EngineConfig::new(1)
            .with_queue_capacity(4)
            .with_batch_events(1);
        let mut session = EngineSession::spawn(
            &config,
            1_000_000,
            vec![Box::new(StallThenDie { interval })],
            Some(EngineTelemetry::new(&registry)),
            None,
        );
        // Batch 1 occupies the worker; three more sit queued behind it.
        for tuple in li_events(4) {
            session.push(tuple).unwrap();
        }
        let gauge = session.queue_gauges[0].clone();
        assert!(
            gauge.get() > 0,
            "a backlog must be visible while the worker is stalled"
        );
        while !session.handles[0].is_finished() {
            thread::sleep(Duration::from_millis(1));
        }
        // Regression (gauge drift): the queued-but-never-consumed batches
        // used to leave the gauge permanently positive after the panic.
        assert_eq!(gauge.get(), 0, "worker exit must zero its depth gauge");
        assert!(matches!(
            session.finish(),
            Err(Error::WorkerPanicked { shard: 0, .. })
        ));
        assert_eq!(gauge.get(), 0);
    }

    /// A worker-thread session over `engine`'s profilers, whatever the
    /// shard count: the path `start` takes only for two or more shards.
    fn spawn_workers(engine: &ShardedEngine) -> EngineSession {
        EngineSession::spawn(
            &engine.config,
            engine.interval.interval_len(),
            engine.build_shard_profilers().unwrap(),
            None,
            None,
        )
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(24))]
        /// An inline one-shard session and a worker one-shard session are
        /// observably the same engine: equal forced cuts, top-k answers,
        /// byte-identical snapshots and final profiles under any chunking,
        /// and each one's snapshot restores into the other.
        #[test]
        fn inline_and_worker_single_shard_sessions_are_equivalent(
            spec_idx in 0usize..3,
            stream_seed in 0u64..1_000,
            batch_events in 64usize..2_048,
            ops in proptest::collection::vec((0u8..8, 1usize..3_000), 1..16),
        ) {
            let spec = [
                ProfilerSpec::MultiHash(MultiHashConfig::best()),
                ProfilerSpec::SingleHash(SingleHashConfig::best()),
                ProfilerSpec::Perfect,
            ][spec_idx];
            // A queue deep enough that the worker never stalls: stalls are
            // counted in the snapshot, and an inline session has none.
            let config = EngineConfig::new(1)
                .with_batch_events(batch_events)
                .with_queue_capacity(1_024);
            let interval = IntervalConfig::new(2_000, 0.02).unwrap();
            let engine = ShardedEngine::new(config, interval, spec, 0xBEEF);
            let mut inline = engine.start().unwrap();
            proptest::prop_assert!(inline.inline.is_some());
            let mut workers = spawn_workers(&engine);
            proptest::prop_assert!(workers.inline.is_none());

            let events: Vec<Tuple> = StreamSpec::new(Benchmark::Gcc, StreamKind::Value, stream_seed)
                .events()
                .take(ops.iter().map(|&(_, n)| n).sum())
                .collect();
            let mut at = 0;
            for &(op, n) in &ops {
                match op {
                    // Mostly chunks, so intervals fill and cut on their own.
                    0..=4 => {
                        let chunk = crate::format::encode_chunk(&events[at..at + n]);
                        at += n;
                        inline.ingest_chunk(&chunk).unwrap();
                        workers.ingest_chunk(&chunk).unwrap();
                    }
                    5 => proptest::prop_assert_eq!(inline.cut().unwrap(), workers.cut().unwrap()),
                    6 => proptest::prop_assert_eq!(
                        inline.top_k(n % 20 + 1).unwrap(),
                        workers.top_k(n % 20 + 1).unwrap()
                    ),
                    _ => proptest::prop_assert_eq!(
                        inline.save_state().unwrap(),
                        workers.save_state().unwrap()
                    ),
                }
            }
            let snapshot = inline.save_state().unwrap();
            proptest::prop_assert_eq!(&snapshot, &workers.save_state().unwrap());
            proptest::prop_assert_eq!(inline.top_k(10).unwrap(), workers.top_k(10).unwrap());

            // Cross-restore: the inline snapshot into workers, the worker
            // snapshot into an inline session; both continue identically.
            let mut into_workers = engine
                .restore_with(&snapshot, |len, profilers| {
                    EngineSession::spawn(&config, len, profilers, None, None)
                })
                .unwrap();
            let mut into_inline = engine.restore(&workers.save_state().unwrap()).unwrap();
            proptest::prop_assert!(into_inline.inline.is_some());
            let tail: Vec<Tuple> = li_events(4_321).collect();
            for session in [&mut inline, &mut workers, &mut into_workers, &mut into_inline] {
                session.push_slice(&tail).unwrap();
            }
            let expected = inline.finish().unwrap();
            for session in [workers, into_workers, into_inline] {
                let report = session.finish().unwrap();
                proptest::prop_assert_eq!(&report.profiles, &expected.profiles);
                proptest::prop_assert_eq!(report.events, expected.events);
                proptest::prop_assert_eq!(&report.shards, &expected.shards);
            }
        }
    }

    #[test]
    fn inline_session_contains_a_profiler_panic() {
        let interval = IntervalConfig::new(1_000_000, 0.01)
            .unwrap()
            .with_external_cut();
        let mut session = EngineSession::inline(
            &EngineConfig::new(1).with_batch_events(4),
            1_000_000,
            Box::new(Lethal { interval }),
            None,
            None,
        );
        // Three events fill no batch; the fourth runs the profiler, which
        // panics. The panic is caught: this thread keeps running.
        for tuple in li_events(3) {
            session.push(tuple).unwrap();
        }
        let result = session.push(Tuple::new(1, 1));
        assert!(
            matches!(result, Err(Error::WorkerDied { shard: 0 })),
            "got {result:?}"
        );
        assert_eq!(session.shard_stats()[0].batches, 0, "the batch died");
        // Poisoned: every later call fails the same way, without running
        // the profiler again.
        assert!(matches!(
            session.top_k(5),
            Err(Error::WorkerDied { shard: 0 })
        ));
        assert!(matches!(
            session.save_state(),
            Err(Error::WorkerDied { shard: 0 })
        ));
        assert!(matches!(session.cut(), Err(Error::WorkerDied { shard: 0 })));
        match session.finish() {
            Err(Error::WorkerPanicked { shard: 0, message }) => {
                assert!(message.contains("lethal"), "{message}");
            }
            other => panic!("finish must report the panic, got {other:?}"),
        }
    }

    #[test]
    fn injected_panic_poisons_an_inline_session() {
        use mhp_faults::{FaultKind, FaultPlan};
        let interval = IntervalConfig::new(10_000, 0.01).unwrap();
        let hook = FaultPlan::new(42)
            .with_fault(FaultKind::WorkerPanic, 2_000)
            .arm();
        let engine = ShardedEngine::new(
            EngineConfig::new(1).with_batch_events(128),
            interval,
            ProfilerSpec::Perfect,
            0,
        )
        .with_fault_hook(hook.clone());
        let mut session = engine.start().unwrap();
        assert!(session.inline.is_some());
        let events: Vec<Tuple> = li_events(20_000).collect();
        let failed = events
            .chunks(500)
            .map(|chunk| session.push_slice(chunk))
            .find_map(Result::err);
        assert!(matches!(failed, Some(Error::WorkerDied { shard: 0 })));
        assert_eq!(hook.injected(FaultKind::WorkerPanic), 1);
        match session.finish() {
            Err(Error::WorkerPanicked { shard: 0, message }) => {
                assert!(message.contains("injected fault"), "{message}");
            }
            other => panic!("expected a typed panic, got {other:?}"),
        }
    }

    #[test]
    fn inline_session_frees_its_batch_buffer_once_drained() {
        let engine = ShardedEngine::new(
            EngineConfig::new(1).with_batch_events(256),
            IntervalConfig::new(100_000, 0.01).unwrap(),
            ProfilerSpec::MultiHash(MultiHashConfig::best()),
            7,
        );
        let mut session = engine.start().unwrap();
        let opened = session.approx_memory_bytes();
        let events: Vec<Tuple> = li_events(1_000).collect();
        // 1000 = 3 × 256 + 232: the staged tail keeps the buffer.
        session
            .ingest_chunk(&crate::format::encode_chunk(&events))
            .unwrap();
        assert_eq!(session.batches[0].len(), 232);
        assert_eq!(session.approx_memory_bytes(), opened);
        // 24 more fill the batch: nothing is staged, so the buffer goes.
        session.push_slice(&events[..24]).unwrap();
        assert_eq!(session.batches[0].capacity(), 0);
        assert_eq!(session.approx_memory_bytes(), opened - 16 * 256);
        // The next call regrows it.
        session.push_slice(&events[..10]).unwrap();
        assert_eq!(session.batches[0].len(), 10);
        assert_eq!(session.finish().unwrap().events, 1_034);
    }

    #[test]
    fn inline_session_charges_its_profilers_growing_state() {
        let engine = ShardedEngine::new(
            EngineConfig::new(1),
            IntervalConfig::new(1_000_000, 0.01).unwrap(),
            ProfilerSpec::Perfect,
            0,
        );
        let mut session = engine.start().unwrap();
        let opened = session.approx_memory_bytes();
        let distinct: Vec<Tuple> = (0..50_000u64).map(|i| Tuple::new(i, i)).collect();
        session.push_slice(&distinct).unwrap();
        // The exact-count map holds a tuple and a count per distinct tuple.
        assert!(session.approx_memory_bytes() >= opened + 50_000 * 24);
    }

    #[test]
    fn single_shard_sessions_run_inline_and_hand_nothing_off() {
        use crate::telemetry::EngineTelemetry;
        use mhp_telemetry::{stat_value, Registry};

        let registry = Registry::new();
        let interval = IntervalConfig::new(5_000, 0.01).unwrap();
        let engine = ShardedEngine::new(
            EngineConfig::new(1).with_batch_events(256),
            interval,
            ProfilerSpec::MultiHash(MultiHashConfig::best()),
            42,
        )
        .with_telemetry(EngineTelemetry::new(&registry));
        let mut session = engine.start().unwrap();
        assert!(session.inline.is_some() && session.handles.is_empty());
        session.push_all(li_events(12_000)).unwrap();
        assert_eq!(session.take_handoff_time(), Duration::ZERO);
        // Shared hash tables are not charged: only counters, accumulator
        // and buffers, well under one private copy of the fold tables.
        assert!(session.approx_memory_bytes() < 32 * 1024);
        let report = session.finish().unwrap();
        assert_eq!(report.intervals, 2);

        let text = registry.render_prometheus();
        assert_eq!(stat_value(&text, "engine_events_total"), Some(12_000));
        assert_eq!(stat_value(&text, "engine_cuts_total"), Some(2));
        assert_eq!(stat_value(&text, "engine_cut_latency_us_count"), Some(2));
        assert_eq!(stat_value(&text, "engine_worker_threads"), Some(0));
        assert!(!text.contains("engine_queue_depth"));
        // Two shards spawn two workers, which leave the gauge on exit.
        let sharded = ShardedEngine::new(EngineConfig::new(2), interval, ProfilerSpec::Perfect, 0)
            .with_telemetry(EngineTelemetry::new(&registry));
        let session = sharded.start().unwrap();
        assert_eq!(
            stat_value(&registry.render_prometheus(), "engine_worker_threads"),
            Some(2)
        );
        session.finish().unwrap();
        assert_eq!(
            stat_value(&registry.render_prometheus(), "engine_worker_threads"),
            Some(0)
        );
    }

    #[test]
    fn report_computes_throughput_and_stalls() {
        let report = EngineReport {
            profiles: Vec::new(),
            events: 1_000,
            intervals: 0,
            elapsed: Duration::from_millis(100),
            shards: vec![
                ShardStats {
                    events: 600,
                    batches: 3,
                    stalls: 2,
                },
                ShardStats {
                    events: 400,
                    batches: 2,
                    stalls: 1,
                },
            ],
        };
        assert!((report.events_per_sec() - 10_000.0).abs() < 1.0);
        assert_eq!(report.total_stalls(), 3);
    }
}
