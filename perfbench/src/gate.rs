//! The correctness gate, run after the timed phase against the live
//! system: every session's interval snapshots must equal an in-process
//! `ShardedEngine` replay of the same chunks (what `mhp-client verify`
//! checks), and the aggregator's per-tenant top-k must equal the offline
//! merge of those profiles (what `mhp-agg offline` computes). It also
//! scores what was read back against the perfect profiler (Eq. 1).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use mhp_agg::{AggState, CUMULATIVE_SUFFIX};
use mhp_analysis::compare_interval;
use mhp_core::{IntervalConfig, IntervalProfile, PerfectProfiler, Tuple};
use mhp_pipeline::{decode_chunk_into, EngineConfig, ShardedEngine};
use mhp_server::{Client, ProfileData};

use crate::system::System;
use crate::workload::{session_config, Inputs, SessionInput, Workload, AGG_TOP_K, CHUNK_EVENTS};

/// Candidate threshold of a tenant's whole-stream perfect profile.
const TENANT_THRESHOLD: f64 = 0.001;
/// How long the gate waits for the aggregator to pull the last intervals.
const CONVERGE_TIMEOUT: Duration = Duration::from_secs(20);
/// On `stream` and `sessions`, the intervals scored against the perfect
/// profiler are those within each session's first this many chunks: two
/// passes over its pool, about 840 intervals a run. Scoring every interval
/// of a run (over 30 000) took most of a minute. Every interval is still
/// compared with the replay.
const SCORED_CHUNKS: u64 = 2 * crate::workload::POOL_CHUNKS as u64;
/// Threads the replay uses (the box has two CPUs).
const REPLAY_THREADS: usize = 2;

/// What the gate found.
#[derive(Debug)]
pub struct GateReport {
    /// Every mismatch found; the run fails if there is any.
    pub mismatches: Vec<String>,
    /// Eq. 1 weighted error of what was read back, in percent.
    pub weighted_error_pct: f64,
    /// The in-process replay's interval profiles, per active session.
    pub replays: Vec<Vec<IntervalProfile>>,
}

fn interval_config() -> IntervalConfig {
    let config = session_config();
    IntervalConfig::new(config.interval_len, config.threshold)
        .expect("default session config is valid")
}

/// Replays session `index`'s first `applied` chunks through an in-process
/// engine configured like the server's sessions.
fn replay(inputs: &Inputs, index: usize, applied: u64) -> Result<Vec<IntervalProfile>, String> {
    let config = session_config();
    let engine = ShardedEngine::new(
        EngineConfig::new(config.shards as usize),
        interval_config(),
        config.kind.spec(),
        config.seed,
    );
    let input = &inputs.active[index];
    let mut session = engine.start().map_err(|e| e.to_string())?;
    for seq in 0..applied {
        session
            .ingest_chunk(input.chunk(seq))
            .map_err(|e| e.to_string())?;
    }
    Ok(session.finish().map_err(|e| e.to_string())?.profiles)
}

/// Feeds the decoded chunks `seqs` of the given sessions to `observe`.
fn for_each_event(
    inputs: &Inputs,
    chunks: &[(usize, u64)],
    mut observe: impl FnMut(Tuple),
) -> Result<(), String> {
    let mut events = Vec::with_capacity(CHUNK_EVENTS);
    for &(index, applied) in chunks {
        for seq in 0..applied {
            events.clear();
            decode_chunk_into(inputs.active[index].chunk(seq), &mut events)
                .map_err(|e| e.to_string())?;
            events.iter().copied().for_each(&mut observe);
        }
    }
    Ok(())
}

/// Per-interval Eq. 1 error (percent) of `read_back` against the perfect
/// profile of the same session's chunks.
fn interval_errors(
    inputs: &Inputs,
    index: usize,
    applied: u64,
    read_back: &[IntervalProfile],
) -> Result<Vec<f64>, String> {
    let mut perfect = PerfectProfiler::new(interval_config());
    let mut errors = Vec::with_capacity(read_back.len());
    for_each_event(inputs, &[(index, applied)], |t| {
        if let Some(exact) = perfect.observe_exact(t) {
            if let Some(hw) = read_back.get(exact.interval_index() as usize) {
                errors.push(compare_interval(&exact, hw).total_percent());
            }
        }
    })?;
    Ok(errors)
}

/// Runs `job` over `0..n` on [`REPLAY_THREADS`] threads, in index order.
fn parallel<T: Send>(
    n: usize,
    job: impl Fn(usize) -> Result<T, String> + Sync,
) -> Result<Vec<T>, String> {
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<Result<T, String>>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..REPLAY_THREADS {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                if i >= n {
                    break;
                }
                let result = job(i);
                results.lock().expect("replay worker panicked")[i] = Some(result);
            });
        }
    });
    results
        .into_inner()
        .expect("replay worker panicked")
        .into_iter()
        .map(|r| r.expect("every index ran"))
        .collect()
}

fn to_profile(data: &ProfileData) -> IntervalProfile {
    IntervalProfile::from_candidates(
        data.interval_index,
        interval_config(),
        data.candidates.clone(),
    )
}

/// Reads every interval of session `input` back from the server over a
/// connection of its own; what does not match what was sent is pushed to
/// `mismatches`.
fn read_back(
    addr: &str,
    input: &SessionInput,
    chunks: u64,
    mismatches: &mut Vec<String>,
) -> Result<Vec<ProfileData>, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("gate: connect: {e}"))?;
    let info = client
        .attach(&input.name)
        .map_err(|e| format!("gate: attach: {e}"))?;
    let events = chunks * CHUNK_EVENTS as u64;
    if info.events != events || info.intervals != events / session_config().interval_len {
        mismatches.push(format!(
            "{}: server holds {} events / {} intervals, sent {events}",
            input.name, info.events, info.intervals
        ));
    }
    let mut profiles = Vec::with_capacity(info.intervals as usize);
    for i in 0..info.intervals {
        match client
            .snapshot(i)
            .map_err(|e| format!("gate: snapshot: {e}"))?
        {
            Some(p) => profiles.push(p),
            None => mismatches.push(format!("{}: interval {i} missing", input.name)),
        }
    }
    Ok(profiles)
}

/// Runs the gate. `applied[i]` is how many chunks active session `i`
/// holds. Transport failures are errors; wrong answers are mismatches.
pub fn check(inputs: &Inputs, applied: &[u64], system: &System) -> Result<GateReport, String> {
    let mut mismatches = Vec::new();
    let addr = system.server.addr.as_str();
    if !inputs.idle.is_empty() {
        let mut client = Client::connect(addr).map_err(|e| format!("gate: connect: {e}"))?;
        let listed = client
            .list_sessions()
            .map_err(|e| format!("gate: list: {e}"))?;
        let by_name: BTreeMap<&str, (u64, u64)> = listed
            .iter()
            .map(|s| (s.name.as_str(), (s.events, s.intervals)))
            .collect();
        for (name, _) in &inputs.idle {
            if by_name.get(name.as_str()) != Some(&(CHUNK_EVENTS as u64, 0)) {
                mismatches.push(format!(
                    "idle session {name}: {:?}",
                    by_name.get(name.as_str())
                ));
            }
        }
    }

    // Per session, in parallel: read every interval back, replay the
    // chunks in-process and, on `stream` and `sessions`, score the
    // intervals read back against the perfect profiler.
    let per_interval = inputs.workload != Workload::Fleet;
    let sessions = parallel(inputs.active.len(), |i| {
        let mut found = Vec::new();
        let raw = read_back(addr, &inputs.active[i], applied[i], &mut found)?;
        let profiles = replay(inputs, i, applied[i])?;
        let errors = if per_interval {
            let read: Vec<IntervalProfile> = raw.iter().map(to_profile).collect();
            interval_errors(inputs, i, applied[i].min(SCORED_CHUNKS), &read)?
        } else {
            Vec::new()
        };
        Ok((raw, found, profiles, errors))
    })?;
    let mut errors = Vec::new();
    let mut replays = Vec::new();
    for (input, (server, found, profiles, errs)) in inputs.active.iter().zip(sessions) {
        mismatches.extend(found);
        let differing = profiles.len() != server.len()
            || profiles
                .iter()
                .zip(&server)
                .any(|(a, b)| ProfileData::from_profile(a) != *b);
        if differing {
            mismatches.push(format!(
                "{}: snapshots differ from the in-process replay",
                input.name
            ));
        }
        errors.extend(errs);
        replays.push(profiles);
    }

    if let Some(agg) = &system.agg {
        let tenant_errors =
            check_aggregator(inputs, applied, &agg.addr, &replays, &mut mismatches)?;
        errors = tenant_errors;
    }
    let weighted_error_pct = if errors.is_empty() {
        mismatches.push("no interval could be scored".into());
        0.0
    } else {
        errors.iter().sum::<f64>() / errors.len() as f64
    };
    Ok(GateReport {
        mismatches,
        weighted_error_pct,
        replays,
    })
}

/// Checks the aggregator against the offline merge of the replayed
/// profiles and returns each tenant's Eq. 1 error against one perfect
/// profile over the tenant's whole stream.
fn check_aggregator(
    inputs: &Inputs,
    applied: &[u64],
    addr: &str,
    replays: &[Vec<IntervalProfile>],
    mismatches: &mut Vec<String>,
) -> Result<Vec<f64>, String> {
    let mut offline = AggState::new();
    for (input, profiles) in inputs.active.iter().zip(replays) {
        for p in profiles {
            offline.add_leaf_profile(input.tenant(), p.candidates());
        }
    }
    let tenants = inputs.active_tenants();
    let mut client = Client::connect(addr).map_err(|e| format!("gate: connect aggregator: {e}"))?;
    let waited = Instant::now();
    loop {
        let listed = client
            .list_sessions()
            .map_err(|e| format!("gate: list aggregator: {e}"))?;
        let converged = tenants.iter().all(|t| {
            listed.iter().any(|s| {
                s.name == format!("{t}{CUMULATIVE_SUFFIX}") && s.events == offline.tenant_events(t)
            })
        });
        if converged {
            break;
        }
        if waited.elapsed() > CONVERGE_TIMEOUT {
            mismatches.push("aggregator never reached the offline tenant totals".into());
            return Ok(Vec::new());
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let errors = parallel(tenants.len(), |i| {
        let tenant = &tenants[i];
        let members: Vec<(usize, u64)> = inputs
            .active
            .iter()
            .enumerate()
            .filter(|(_, s)| s.tenant() == tenant)
            .map(|(index, _)| (index, applied[index]))
            .collect();
        let events: u64 = members.iter().map(|&(_, n)| n * CHUNK_EVENTS as u64).sum();
        let whole = IntervalConfig::new(events, TENANT_THRESHOLD).map_err(|e| e.to_string())?;
        let mut perfect = PerfectProfiler::new(whole);
        let mut exact = None;
        for_each_event(inputs, &members, |t| {
            if let Some(done) = perfect.observe_exact(t) {
                exact = Some(done);
            }
        })?;
        Ok(exact.ok_or("tenant stream did not fill its whole-stream interval")?)
    })?;
    let mut scores = Vec::new();
    for (tenant, exact) in tenants.iter().zip(errors) {
        client
            .attach(tenant)
            .map_err(|e| format!("gate: attach {tenant}: {e}"))?;
        let top = client
            .top_k(AGG_TOP_K)
            .map_err(|e| format!("gate: top_k {tenant}: {e}"))?;
        if top != offline.top_k(tenant, AGG_TOP_K as usize) {
            mismatches.push(format!(
                "tenant {tenant}: aggregator top-k differs from the offline merge"
            ));
        }
        // The aggregator's answer to "which tuples exceed the threshold":
        // its top-k cut at the whole-stream threshold.
        let threshold = exact.config().threshold_count();
        let above = top.into_iter().filter(|c| c.count >= threshold).collect();
        let hw = IntervalProfile::from_candidates(0, exact.config(), above);
        scores.push(compare_interval(&exact, &hw).total_percent());
    }
    Ok(scores)
}
