//! The three workloads and their inputs: `mhp-trace` model streams,
//! pre-encoded into 4096-event chunks from the seed before anything is
//! timed.

use std::fmt;
use std::str::FromStr;
use std::time::Duration;

use mhp_pipeline::encode_chunk;
use mhp_server::SessionConfig;
use mhp_trace::{Benchmark, StreamKind, StreamSpec};

/// Events per ingested chunk.
pub const CHUNK_EVENTS: usize = 4096;

/// Distinct chunks generated per `stream`/`sessions` session and per
/// `fleet` session; a session that is sent more cycles through them (the
/// sketch keeps state across intervals, so a cycled stream still
/// exercises every layer).
pub const POOL_CHUNKS: usize = 512;
pub const FLEET_POOL_CHUNKS: usize = 256;
/// Each pool is this many equal segments, each from its own seed of the
/// session's model: a run scores several programs, not one, so the
/// accuracy figure does not hang on a single seed's program. On `fleet`
/// it also gives each tenant the profile of 32 programs, so that reading
/// it back from the aggregator is work and not only a round trip (see
/// [`AGG_TOP_K`]).
pub const SEGMENTS: u64 = 8;

/// Idle sessions the `sessions` workload opens besides its two streams.
pub const IDLE_SESSIONS: usize = 1022;
/// Tenants the idle sessions belong to.
pub const IDLE_TENANTS: usize = 4;

/// The `fleet` workload's ingest schedule, in events per second.
pub const FLEET_RATE: u64 = 2_500_000;
/// Sessions in the `fleet` workload (split over two tenants).
pub const FLEET_SESSIONS: usize = 8;
/// Chunks each `fleet` session receives before the timed phase: one
/// pass over its pool, so that every program of a tenant is already in
/// the aggregator's profile when timing starts. With fewer, the
/// aggregator's `top_k` round trip grew from 12 to 31 us over the first
/// 4 s of the timed phase as the profile filled.
pub const FLEET_WARM_CHUNKS: usize = FLEET_POOL_CHUNKS;

/// Top-k size every `top_k` query to a server session asks for.
pub const TOP_K: u32 = 10;
/// Top-k size of every read of a tenant from the aggregator: every tuple
/// that can reach a 1 % threshold, that is the tenant's whole profile, as
/// a consumer of aggregated profiles reads it. The fleet error is scored
/// on it too. With a top-10 of small profiles the read took 10–18 µs,
/// almost all of it two wake-ups, and its median moved by 27 % between
/// two sets of ten runs as the machine's slow spells came and went.
pub const AGG_TOP_K: u32 = 1000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Stream,
    Sessions,
    Fleet,
}

impl FromStr for Workload {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "stream" => Ok(Workload::Stream),
            "sessions" => Ok(Workload::Sessions),
            "fleet" => Ok(Workload::Fleet),
            _ => Err(format!("unknown workload {s:?} (stream, sessions, fleet)")),
        }
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Workload::Stream => "stream",
            Workload::Sessions => "sessions",
            Workload::Fleet => "fleet",
        })
    }
}

impl Workload {
    /// Chunks every active session receives before the generator takes
    /// over: the first during set-up, the rest in the warm-up.
    pub fn setup_chunks(self) -> usize {
        match self {
            Workload::Fleet => FLEET_WARM_CHUNKS,
            _ => 1,
        }
    }
}

/// The configuration every session is opened with: the server's default
/// multi-hash C1-R0 profiler on one shard.
pub fn session_config() -> SessionConfig {
    SessionConfig::default_multi_hash()
}

/// One active session: its name, model stream and encoded chunk pool.
#[derive(Debug)]
pub struct SessionInput {
    pub name: String,
    pool: Vec<Vec<u8>>,
}

impl SessionInput {
    fn generate(
        name: String,
        benchmark: Benchmark,
        kind: StreamKind,
        seed: u64,
        chunks: usize,
        segments: u64,
    ) -> SessionInput {
        let per_segment = chunks / segments as usize;
        let pool = (0..segments)
            .flat_map(|segment| {
                let mut events = StreamSpec::new(benchmark, kind, sub_seed(seed, segment)).events();
                (0..per_segment)
                    .map(|_| {
                        let chunk: Vec<_> = events.by_ref().take(CHUNK_EVENTS).collect();
                        encode_chunk(&chunk)
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        SessionInput { name, pool }
    }

    /// The `seq`-th chunk this session is sent.
    pub fn chunk(&self, seq: u64) -> &[u8] {
        &self.pool[(seq % self.pool.len() as u64) as usize]
    }

    pub fn tenant(&self) -> &str {
        mhp_server::tenant_of(&self.name)
    }
}

/// Everything a workload sends.
#[derive(Debug)]
pub struct Inputs {
    pub workload: Workload,
    /// Sessions the generator streams into.
    pub active: Vec<SessionInput>,
    /// `sessions` only: `(name, tenant index)` of each idle session.
    pub idle: Vec<(String, usize)>,
    /// `sessions` only: the one chunk each idle tenant's sessions receive.
    pub idle_chunks: Vec<Vec<u8>>,
}

/// Derives a per-stream seed from the run seed.
fn sub_seed(seed: u64, index: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(index)
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        let two_streams = || {
            vec![
                SessionInput::generate(
                    "live/gcc-value".into(),
                    Benchmark::Gcc,
                    StreamKind::Value,
                    sub_seed(seed, 0),
                    POOL_CHUNKS,
                    SEGMENTS,
                ),
                SessionInput::generate(
                    "live/go-edge".into(),
                    Benchmark::Go,
                    StreamKind::Edge,
                    sub_seed(seed, 1),
                    POOL_CHUNKS,
                    SEGMENTS,
                ),
            ]
        };
        match workload {
            Workload::Stream => Inputs {
                workload,
                active: two_streams(),
                idle: Vec::new(),
                idle_chunks: Vec::new(),
            },
            Workload::Sessions => {
                let idle_benchmarks = [
                    Benchmark::Li,
                    Benchmark::M88ksim,
                    Benchmark::Vortex,
                    Benchmark::Sis,
                ];
                let idle_chunks = idle_benchmarks
                    .iter()
                    .enumerate()
                    .map(|(t, &b)| {
                        let spec =
                            StreamSpec::new(b, StreamKind::Value, sub_seed(seed, 10 + t as u64));
                        let events: Vec<_> = spec.events().take(CHUNK_EVENTS).collect();
                        encode_chunk(&events)
                    })
                    .collect();
                let idle = (0..IDLE_SESSIONS)
                    .map(|i| {
                        let tenant = i % IDLE_TENANTS;
                        (format!("idle{tenant}/s{i:04}"), tenant)
                    })
                    .collect();
                Inputs {
                    workload,
                    active: two_streams(),
                    idle,
                    idle_chunks,
                }
            }
            Workload::Fleet => {
                let active = (0..FLEET_SESSIONS)
                    .map(|i| {
                        let (name, benchmark, kind) = if i < FLEET_SESSIONS / 2 {
                            (format!("acme/gcc-{i}"), Benchmark::Gcc, StreamKind::Value)
                        } else {
                            (format!("zeta/go-{i}"), Benchmark::Go, StreamKind::Edge)
                        };
                        SessionInput::generate(
                            name,
                            benchmark,
                            kind,
                            sub_seed(seed, 20 + i as u64),
                            FLEET_POOL_CHUNKS,
                            SEGMENTS,
                        )
                    })
                    .collect();
                Inputs {
                    workload,
                    active,
                    idle: Vec::new(),
                    idle_chunks: Vec::new(),
                }
            }
        }
    }

    /// Tenants of the active sessions, sorted and deduplicated.
    pub fn active_tenants(&self) -> Vec<String> {
        let mut tenants: Vec<String> = self.active.iter().map(|s| s.tenant().to_string()).collect();
        tenants.sort();
        tenants.dedup();
        tenants
    }
}

/// The `fleet` generator's open-loop schedule, fixed before the run:
/// chunk `k` is due `k` periods after the start and goes to session
/// `k mod FLEET_SESSIONS`.
#[derive(Debug, Clone, Copy)]
pub struct FleetSchedule {
    pub chunks: u64,
    pub period: Duration,
}

impl FleetSchedule {
    pub fn new(seconds: u64) -> FleetSchedule {
        FleetSchedule {
            chunks: FLEET_RATE * seconds / CHUNK_EVENTS as u64,
            period: Duration::from_nanos(CHUNK_EVENTS as u64 * 1_000_000_000 / FLEET_RATE),
        }
    }

    /// The session scheduled chunk `k` goes to.
    pub fn session(&self, k: u64) -> usize {
        (k % FLEET_SESSIONS as u64) as usize
    }
}
