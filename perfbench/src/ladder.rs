//! The per-layer ladder: the workload's own chunks replayed in-process,
//! single-threaded, through each layer's public functions, each call in a
//! span of its own. It is the single-threaded baseline the service's
//! figures are read against.

use std::hint::black_box;

use mhp_agg::AggState;
use mhp_core::{
    EventProfiler, IntervalConfig, IntervalProfile, MultiHashConfig, MultiHashProfiler,
};
use mhp_pipeline::{decode_chunk_into, EngineConfig, ShardedEngine};
use mhp_telemetry::Histogram;

use crate::spans::Tracer;
use crate::workload::{session_config, Inputs, AGG_TOP_K, CHUNK_EVENTS, TOP_K};

/// Chunks of each active session the ladder replays, at most.
const LADDER_CHUNKS: u64 = 1024;
/// `top_k` and `cut` are timed after every this many chunks.
const QUERY_EVERY: u64 = 8;
/// Engine sessions started (and finished) to time `start`.
const ENGINE_STARTS: usize = 32;
/// `Histogram::record` calls per span; one call is shorter than the
/// clock's resolution.
pub const HISTOGRAM_RECORDS: u64 = 1024;
/// Aggregator-state operations: `top_k` after every this many merged
/// profiles, `encode` after every this many.
const AGG_TOP_K_EVERY: usize = 64;
const AGG_ENCODE_EVERY: usize = 256;
/// Profiles merged into the ladder's aggregator state, at most.
const AGG_PROFILES: usize = 8192;

/// Counts the ladder made beside its spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct LadderCounts {
    pub chunks: u64,
    pub events: u64,
    pub bytes: u64,
    pub intervals: u64,
    pub candidates: u64,
    /// Ring handoff time inside `EngineSession::ingest_chunk`.
    pub handoff_ns: u64,
}

/// Replays the workload's chunks; spans go to `tracer`.
pub fn run(
    inputs: &Inputs,
    applied: &[u64],
    replays: &[Vec<IntervalProfile>],
    tracer: &mut Tracer,
) -> Result<LadderCounts, String> {
    let config = session_config();
    let interval =
        IntervalConfig::new(config.interval_len, config.threshold).map_err(|e| e.to_string())?;
    let engine = ShardedEngine::new(
        EngineConfig::new(config.shards as usize),
        interval,
        config.kind.spec(),
        config.seed,
    );
    let err = |e: mhp_pipeline::Error| e.to_string();
    let mut counts = LadderCounts::default();
    let histogram = Histogram::new();
    let mut events = Vec::with_capacity(CHUNK_EVENTS);

    for _ in 0..ENGINE_STARTS {
        let span = tracer.begin("pipeline.engine.start", None, 0);
        let session = engine.start().map_err(err)?;
        tracer.end(span);
        session.finish().map_err(err)?;
    }

    for (input, &applied) in inputs.active.iter().zip(applied) {
        // The shard worker's view: an externally cut profiler, cut at
        // every interval boundary.
        let mut profiler = MultiHashProfiler::new(
            interval.with_external_cut(),
            MultiHashConfig::best(),
            config.seed,
        )
        .map_err(|e| e.to_string())?;
        let mut session = engine.start().map_err(err)?;
        let mut cut_session = engine.start().map_err(err)?;
        let mut in_interval = 0u64;
        for seq in 0..applied.min(LADDER_CHUNKS) {
            let chunk = input.chunk(seq);
            let root = tracer.begin("ladder.chunk", None, seq);

            let span = tracer.begin("pipeline.format.decode_chunk_into", Some(&root), seq);
            events.clear();
            decode_chunk_into(chunk, &mut events).map_err(err)?;
            tracer.end(span);
            counts.chunks += 1;
            counts.events += events.len() as u64;
            counts.bytes += chunk.len() as u64;

            let mut rest = &events[..];
            while !rest.is_empty() {
                let take = rest.len().min((config.interval_len - in_interval) as usize);
                let span = tracer.begin("core.observe_batch", Some(&root), seq);
                black_box(profiler.observe_batch(&rest[..take]));
                tracer.end(span);
                rest = &rest[take..];
                in_interval += take as u64;
                if in_interval == config.interval_len {
                    let span = tracer.begin("core.finish_interval", Some(&root), seq);
                    let profile = profiler.finish_interval();
                    tracer.end(span);
                    counts.intervals += 1;
                    counts.candidates += profile.len() as u64;
                    in_interval = 0;
                }
            }

            let span = tracer.begin("telemetry.histogram_record", Some(&root), seq);
            for i in 0..HISTOGRAM_RECORDS {
                histogram.record(black_box(i * 37));
            }
            tracer.end(span);

            let span = tracer.begin("pipeline.engine.ingest_chunk", Some(&root), seq);
            session.ingest_chunk(chunk).map_err(err)?;
            tracer.end(span);
            counts.handoff_ns += session.take_handoff_time().as_nanos() as u64;

            if seq % QUERY_EVERY == QUERY_EVERY - 1 {
                let span = tracer.begin("pipeline.engine.top_k", Some(&root), seq);
                black_box(session.top_k(TOP_K as usize).map_err(err)?);
                tracer.end(span);
                cut_session.ingest_chunk(chunk).map_err(err)?;
                let span = tracer.begin("pipeline.engine.cut", Some(&root), seq);
                black_box(cut_session.cut().map_err(err)?);
                tracer.end(span);
            }
            tracer.end(root);
        }
        session.finish().map_err(err)?;
        cut_session.finish().map_err(err)?;
    }

    let mut state = AggState::new();
    let merged = inputs
        .active
        .iter()
        .zip(replays)
        .flat_map(|(input, profiles)| profiles.iter().map(move |p| (input.tenant(), p)))
        .take(AGG_PROFILES);
    for (n, (tenant, profile)) in merged.enumerate() {
        let span = tracer.begin("agg.state.add_leaf_profile", None, n as u64);
        black_box(state.add_leaf_profile(tenant, profile.candidates()));
        tracer.end(span);
        if n % AGG_TOP_K_EVERY == AGG_TOP_K_EVERY - 1 {
            let span = tracer.begin("agg.state.top_k", None, n as u64);
            black_box(state.top_k(tenant, AGG_TOP_K as usize));
            tracer.end(span);
        }
        if n % AGG_ENCODE_EVERY == AGG_ENCODE_EVERY - 1 {
            let span = tracer.begin("agg.state.encode", None, n as u64);
            black_box(state.encode());
            tracer.end(span);
        }
    }
    Ok(counts)
}
