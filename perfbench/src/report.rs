//! Turns what a run measured into the metrics it reports: the end-to-end
//! metrics of an untraced run, or the per-layer metrics of a traced one.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

use crate::gate::GateReport;
use crate::gen::{ErrorKind, GenReport, QueryKind};
use crate::ladder::{LadderCounts, HISTOGRAM_RECORDS};
use crate::procs::ProcSample;
use crate::spans::{self, Span};
use crate::stats::{self, Better, Samples};
use crate::workload::{FleetSchedule, Workload, CHUNK_EVENTS, FLEET_RATE};
use crate::IdleWindow;

/// Everything one run measured.
#[derive(Debug)]
pub struct RunFacts {
    pub workload: Workload,
    pub seconds: u64,
    pub setups: Vec<f64>,
    pub gen: GenReport,
    pub gate: GateReport,
    pub before: Vec<ProcSample>,
    pub after: Vec<ProcSample>,
    pub peak_threads: u64,
    pub peak_server_threads: u64,
    pub idle: Option<IdleWindow>,
    pub agg_metrics: Option<String>,
    pub agg_uptime_s: f64,
    pub gen_spans: Vec<Span>,
    pub bench_spans: Vec<Span>,
    pub ladder: Option<LadderCounts>,
    /// Readings of the system processes through the timed phase.
    pub timeline: Vec<Reading>,
    /// The tenant of each active session.
    pub session_tenants: Vec<String>,
}

/// The system processes' totals at one moment of the timed phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    /// Seconds since the timed phase began.
    pub at_s: f64,
    /// CPU seconds (utime + stime).
    pub cpu_s: f64,
    /// Sum of `VmHWM`, in KiB.
    pub hwm_kb: f64,
}

impl Reading {
    pub fn of(at_s: f64, samples: &[ProcSample]) -> Reading {
        Reading {
            at_s,
            cpu_s: samples.iter().map(|s| s.cpu_s).sum(),
            hwm_kb: samples.iter().map(|s| s.vm_hwm_kb as f64).sum(),
        }
    }
}

/// One reported metric, with how it was obtained.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub note: String,
}

/// A run's result.
#[derive(Debug, Default)]
pub struct Measured {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Lines for the table only, not the JSON result.
    pub notes: Vec<String>,
    pub flags: Vec<String>,
}

impl Measured {
    fn add(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            note: note.into(),
        });
    }

    /// A human-readable table of the metrics.
    pub fn table(&self) -> Vec<String> {
        let mut lines: Vec<String> = self
            .metrics
            .iter()
            .map(|m| format!("{:<44} {:>16.6} {:<10} {}", m.name, m.value, m.unit, m.note))
            .collect();
        lines.extend(self.notes.iter().cloned());
        lines.extend(self.flags.iter().map(|f| format!("FLAG {f}")));
        lines
    }

    /// The one-line JSON result. A value that is not finite (a percentile
    /// that landed on a failed request) is reported as 1e9 so the line
    /// stays valid JSON; the failure itself shows in `failed`.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 1e9 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Extracts `(name, value)` pairs from a result line [`Measured::json`]
/// wrote.
pub fn parse_metrics(line: &str) -> Option<Vec<(String, f64)>> {
    let body = line.split_once("\"metrics\": {")?.1;
    let mut out = Vec::new();
    for part in body.split("}, ") {
        let (name, rest) = part
            .trim_start_matches('"')
            .split_once("\": {\"value\": ")?;
        let value = rest.split(',').next()?.parse().ok()?;
        out.push((name.to_string(), value));
    }
    Some(out)
}

const NS_PER_MS: f64 = 1e6;

/// The timed phase is cut into this many equal windows (1 s each at the
/// benchmark's 20 s). Each end-to-end figure is computed per window and
/// the run reports the mean of the better half of the windows
/// ([`stats::better_half_mean`]): the spells of a few seconds in which
/// other tenants of the machine slow it down are dropped as long as they
/// cover less than half of the run, and a change to the program, which
/// moves every window, still moves the figure.
pub const WINDOWS: usize = 20;

/// The window an event `at_ns` into a timed phase of `seconds` falls in;
/// acks that arrive just after the end count in the last window. The
/// windows cut the phase's nominal length, so that a generator that
/// stopped early leaves its last windows empty instead of stretching its
/// records over all of them.
fn window_of(at_ns: u64, seconds: f64) -> usize {
    let share = at_ns as f64 / 1e9 / seconds;
    ((share * WINDOWS as f64) as usize).min(WINDOWS - 1)
}

/// Splits `(at_ns, latency_ns or None for a failure)` samples by window.
fn windowed(seconds: f64, items: impl Iterator<Item = (u64, Option<u64>)>) -> Vec<Samples> {
    let mut windows = vec![Samples::new(); WINDOWS];
    for (at, latency) in items {
        let w = &mut windows[window_of(at, seconds)];
        match latency {
            Some(ns) => w.push(ns as f64),
            None => w.push_failed(),
        }
    }
    windows
}

fn over_windows(values: impl Iterator<Item = f64>, better: Better) -> f64 {
    stats::better_half_mean(&values.collect::<Vec<_>>(), better).unwrap_or(0.0)
}

/// A latency distribution as the run reports it: the median and p90 are
/// the better half's mean of each window's figure; the tail is over every
/// sample of the run, at p99 and at the highest percentile the samples
/// support. Milliseconds.
struct Latency {
    p50: f64,
    p90: f64,
    p99: f64,
    windows_note: String,
    tail_note: String,
}

fn latency(windows: &[Samples]) -> Latency {
    let counts: Vec<usize> = windows.iter().map(Samples::len).collect();
    let (lo, hi) = (
        counts.iter().min().copied().unwrap_or(0),
        counts.iter().max().copied().unwrap_or(0),
    );
    let per_window = |p: f64| {
        over_windows(
            windows.iter().filter_map(|w| w.percentile(p)),
            Better::Lower,
        ) / NS_PER_MS
    };
    let mut all = Samples::new();
    for w in windows {
        all.extend(w);
    }
    let p99 = all.percentile(99.0).unwrap_or(0.0) / NS_PER_MS;
    let tail = match all.tail() {
        Some((p, v)) if p > 99.0 => format!("p99 {p99:.4} ms, p{p} {:.4} ms", v / NS_PER_MS),
        Some((99.0, _)) => format!("p99 {p99:.4} ms (highest supported)"),
        Some((p, v)) => format!("too few for p99; p{p} {:.4} ms", v / NS_PER_MS),
        None => "too few samples for a tail".to_string(),
    };
    Latency {
        p50: per_window(50.0),
        p90: per_window(90.0),
        p99,
        windows_note: format!("better half of {WINDOWS} windows (n={lo}..{hi} each)"),
        tail_note: format!("whole run n={}: {tail}", all.len()),
    }
}

/// The queries whose latency is reported: the server's `top_k`, or on
/// `fleet` the aggregator's `top_k`. The closed loops' `snapshot` round
/// trips are their freshness samples, so they are left out here and no
/// request is counted in two metrics.
fn query_kinds(workload: Workload) -> &'static [QueryKind] {
    match workload {
        Workload::Fleet => &[QueryKind::AggTopK],
        _ => &[QueryKind::TopK],
    }
}

fn chunk_windows(facts: &RunFacts) -> Vec<Samples> {
    let items = facts
        .gen
        .chunks
        .iter()
        .map(|c| (c.at_ns, c.result.ok().map(|a| a.latency_ns)));
    windowed(facts.seconds as f64, items)
}

fn query_windows(facts: &RunFacts) -> Vec<Samples> {
    let kinds = query_kinds(facts.workload);
    let items = facts
        .gen
        .queries
        .iter()
        .filter(|q| kinds.contains(&q.kind))
        .map(|q| (q.at_ns, q.result.ok()));
    windowed(facts.seconds as f64, items)
}

/// Median chunk latency over the traced (or untraced) chunks only.
fn chunk_median(gen: &GenReport, traced: bool) -> Option<f64> {
    let mut s = Samples::new();
    for c in gen.chunks.iter().filter(|c| c.traced == traced) {
        match c.result {
            Ok(a) => s.push(a.latency_ns as f64),
            Err(_) => s.push_failed(),
        }
    }
    s.median()
}

/// Failure counts by kind, over the generator's operations.
fn error_counts(gen: &GenReport) -> BTreeMap<ErrorKind, u64> {
    let mut counts = BTreeMap::new();
    let chunk_errors = gen.chunks.iter().filter_map(|c| c.result.err());
    let query_errors = gen.queries.iter().filter_map(|q| q.result.err());
    for kind in chunk_errors.chain(query_errors) {
        *counts.entry(kind).or_insert(0) += 1;
    }
    counts
}

fn attempted(gen: &GenReport) -> u64 {
    (gen.chunks.len() + gen.queries.len()) as u64
}

/// Freshness samples, in nanoseconds. On `fleet`: from the ack of each
/// chunk that completed an interval to the first aggregator listing whose
/// tenant total covers every interval completed up to that ack. An
/// interval no listing ever showed counts as a failure (infinitely
/// late); the second value counts them.
fn freshness(facts: &RunFacts) -> (Vec<Samples>, usize) {
    let seconds = facts.seconds as f64;
    if facts.workload != Workload::Fleet {
        let seen = facts.gen.freshness.iter().map(|&(at, ns)| (at, Some(ns)));
        let failed = facts
            .gen
            .queries
            .iter()
            .filter(|q| q.kind == QueryKind::Snapshot && q.result.is_err())
            .map(|q| (q.at_ns, None));
        return (windowed(seconds, seen.chain(failed)), 0);
    }
    let mut samples = Vec::new();
    let replays = &facts.gate.replays;
    let candidate_sum = |session: usize, interval: u64| -> u64 {
        replays[session]
            .get(interval as usize)
            .map_or(0, |p| p.total_count())
    };
    let interval_len = crate::workload::session_config().interval_len;
    let warm_intervals = (crate::workload::FLEET_WARM_CHUNKS * CHUNK_EVENTS) as u64 / interval_len;
    let mut needed: HashMap<String, u64> = HashMap::new();
    let mut intervals_done = vec![warm_intervals; replays.len()];
    for (session, names) in facts.session_tenants.iter().enumerate() {
        let base: u64 = (0..warm_intervals).map(|i| candidate_sum(session, i)).sum();
        *needed.entry(names.clone()).or_insert(0) += base;
    }
    let mut listings: HashMap<&str, Vec<(u64, u64)>> = HashMap::new();
    for (at, tenant, events) in &facts.gen.listings {
        listings.entry(tenant).or_default().push((*at, *events));
    }
    let mut cursor: HashMap<String, usize> = HashMap::new();
    let mut censored = 0;
    for c in &facts.gen.chunks {
        let Ok(ack) = c.result else { continue };
        let tenant = &facts.session_tenants[c.session];
        let before = intervals_done[c.session];
        if ack.intervals <= before {
            continue;
        }
        let added: u64 = (before..ack.intervals)
            .map(|i| candidate_sum(c.session, i))
            .sum();
        intervals_done[c.session] = ack.intervals;
        let need = needed.get_mut(tenant).expect("every tenant has a base");
        *need += added;
        let seen = listings
            .get(tenant.as_str())
            .map(Vec::as_slice)
            .unwrap_or_default();
        let pos = cursor.entry(tenant.clone()).or_insert(0);
        while *pos < seen.len() && (seen[*pos].0 < c.at_ns || seen[*pos].1 < *need) {
            *pos += 1;
        }
        match seen.get(*pos) {
            Some(&(at, _)) => samples.push((c.at_ns, Some(at - c.at_ns))),
            None => {
                samples.push((c.at_ns, None));
                censored += 1;
            }
        }
    }
    (windowed(seconds, samples.into_iter()), censored)
}

/// `field` of the readings at `t` seconds into the timed phase,
/// interpolated between the readings around it.
fn reading_at(timeline: &[Reading], t: f64, field: impl Fn(&Reading) -> f64) -> f64 {
    let after = timeline.partition_point(|r| r.at_s < t);
    match (
        after.checked_sub(1).map(|i| &timeline[i]),
        timeline.get(after),
    ) {
        (Some(r0), Some(r1)) if r1.at_s > r0.at_s => {
            let (v0, v1) = (field(r0), field(r1));
            v0 + (v1 - v0) * (t - r0.at_s) / (r1.at_s - r0.at_s)
        }
        (_, Some(r)) | (Some(r), None) => field(r),
        (None, None) => 0.0,
    }
}

/// Acked events of a timed phase of `seconds` at which `peak_rss_mb` is
/// read: four fifths of what the `fleet` schedule sends, the slowest
/// workload (40 M events at 20 s, reached at 16 s). The servers keep
/// every interval's profile, so their memory grows with the events they
/// have taken in: read at the end of a closed loop, it would grow with
/// throughput (over two sets of ten `stream` runs, 17 % more memory came
/// with 21 % more events), and a faster ingest path would read as a
/// memory regression. A run that acks fewer events fails, since its
/// figure could not be compared.
pub fn rss_read_point(seconds: u64) -> u64 {
    FLEET_RATE * seconds * 4 / 5
}

/// Seconds into the timed phase at which the acked events first reached
/// `events`; `None` if they never did.
fn time_of_events(gen: &GenReport, events: u64) -> Option<f64> {
    let mut acks: Vec<u64> = gen
        .chunks
        .iter()
        .filter(|c| c.result.is_ok())
        .map(|c| c.at_ns)
        .collect();
    acks.sort_unstable();
    let chunks = events.div_ceil(CHUNK_EVENTS as u64) as usize;
    acks.get(chunks.checked_sub(1)?).map(|&ns| ns as f64 / 1e9)
}

/// A run whose timed phase ended before `--seconds` had passed cannot be
/// compared with a full one, and fails.
fn check_full_length(facts: &RunFacts) -> Result<(), String> {
    if facts.gen.duration_s < facts.seconds as f64 {
        return Err(format!(
            "the timed phase lasted {:.3} s of the {} s asked for",
            facts.gen.duration_s, facts.seconds
        ));
    }
    Ok(())
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(facts: &RunFacts) -> Result<Measured, String> {
    check_full_length(facts)?;
    let gen = &facts.gen;
    let seconds = facts.seconds as f64;
    let mut m = Measured {
        attempted: attempted(gen),
        failed: error_counts(gen).values().sum(),
        ..Measured::default()
    };
    let setup = stats::median(&facts.setups).unwrap_or(0.0);
    m.add(
        "setup_s",
        setup,
        "s",
        format!("median of {} set-ups", facts.setups.len()),
    );
    let window_s = seconds / WINDOWS as f64;
    let mut window_events = [0u64; WINDOWS];
    for c in gen.chunks.iter().filter(|c| c.result.is_ok()) {
        window_events[window_of(c.at_ns, seconds)] += CHUNK_EVENTS as u64;
    }
    let events: u64 = window_events.iter().sum();
    m.add(
        "ingest_events_per_s",
        over_windows(
            window_events.iter().map(|&e| e as f64 / window_s),
            Better::Higher,
        ),
        "1/s",
        format!(
            "better half of {WINDOWS} windows; {events} events in {:.3} s",
            gen.duration_s
        ),
    );
    let ingest = latency(&chunk_windows(facts));
    m.notes.push(format!(
        "ingest latency (per-layer metrics): p50 {:.4} ms, p90 {:.4} ms, {}; {}",
        ingest.p50, ingest.p90, ingest.windows_note, ingest.tail_note
    ));
    let query = latency(&query_windows(facts));
    m.notes.push(format!(
        "query latency (per-layer metrics): p50 {:.4} ms, p90 {:.4} ms, {}; {}",
        query.p50, query.p90, query.windows_note, query.tail_note
    ));
    let (fresh, censored) = freshness(facts);
    let fresh = latency(&fresh);
    m.add(
        "freshness_p50_ms",
        fresh.p50,
        "ms",
        format!(
            "{}; {censored} never seen, counted as failed",
            fresh.windows_note
        ),
    );
    m.add(
        "weighted_error_pct",
        facts.gate.weighted_error_pct,
        "%",
        "Eq. 1 against the perfect profiler",
    );
    let success = 100.0 * (m.attempted - m.failed) as f64 / m.attempted.max(1) as f64;
    m.add(
        "success_pct",
        success,
        "%",
        format!("{} of {} operations", m.attempted - m.failed, m.attempted),
    );
    let cpu_per_mevent = (0..WINDOWS).map(|w| {
        let from = w as f64 * window_s;
        let to = from + window_s;
        let cpu_at = |t| reading_at(&facts.timeline, t, |r| r.cpu_s);
        let cpu = cpu_at(to) - cpu_at(from);
        cpu / (window_events[w].max(1) as f64 / 1e6)
    });
    m.add(
        "cpu_s_per_mevent",
        over_windows(cpu_per_mevent, Better::Lower),
        "s",
        format!(
            "server + aggregator utime+stime per million acked events, better half of {WINDOWS} windows"
        ),
    );
    let read_point = rss_read_point(facts.seconds);
    let t = time_of_events(gen, read_point).ok_or_else(|| {
        format!("only {events} events were acked, fewer than the {read_point} at which peak_rss_mb is read")
    })?;
    m.add(
        "peak_rss_mb",
        reading_at(&facts.timeline, t, |r| r.hwm_kb) / 1024.0,
        "MiB",
        format!("sum of VmHWM when {read_point} events were acked ({t:.2} s)"),
    );
    m.add(
        "threads",
        facts.peak_threads as f64,
        "count",
        "peak over the timed phase",
    );
    flag_lateness(facts, &mut m);
    Ok(m)
}

fn flag_lateness(facts: &RunFacts, m: &mut Measured) {
    if facts.workload != Workload::Fleet {
        return;
    }
    let period_ms = FleetSchedule::new(facts.seconds).period.as_secs_f64() * 1e3;
    let late = lateness_p99_ms(&facts.gen);
    if facts.gen.fell_behind || late > period_ms {
        m.flags.push(format!(
            "the generator fell behind its schedule (lateness p99 {late:.3} ms, period {period_ms:.3} ms): the box was saturated or the system stalled"
        ));
    }
}

fn lateness_p99_ms(gen: &GenReport) -> f64 {
    let mut s = Samples::new();
    for &ns in &gen.lateness_ns {
        s.push(ns as f64);
    }
    s.percentile(99.0).map_or(0.0, |v| v / NS_PER_MS)
}

/// Self times (ns) of the spans named `name`.
fn selfs<'a>(by_name: &'a BTreeMap<String, Vec<u64>>, name: &str) -> &'a [u64] {
    by_name.get(name).map(Vec::as_slice).unwrap_or_default()
}

fn median_us(values: &[u64]) -> f64 {
    let v: Vec<f64> = values.iter().map(|&ns| ns as f64 / 1e3).collect();
    stats::median(&v).unwrap_or(0.0)
}

fn sum(values: &[u64]) -> f64 {
    values.iter().sum::<u64>() as f64
}

/// Sums every series of a Prometheus counter in `text`.
fn prometheus_total(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter(|l| l.split(['{', ' ']).next() == Some(name))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .fold(0.0, |a, b| a + b)
}

/// What the ladder's rungs leave of one chunk's ingest round trip, in
/// microseconds: the median RTT minus the mean engine ingest per chunk
/// (which includes decode, so decode is not subtracted again) minus one
/// histogram record. A negative value means the rungs overshoot.
fn unattributed_us(rtt_us: f64, engine_ns_total: f64, chunks: u64, histogram_ns: f64) -> f64 {
    if chunks == 0 {
        return rtt_us;
    }
    rtt_us - engine_ns_total / chunks as f64 / 1e3 - histogram_ns / 1e3
}

/// The per-layer metrics of a traced run.
pub fn per_layer(facts: &RunFacts) -> Result<Measured, String> {
    check_full_length(facts)?;
    let gen = &facts.gen;
    let errors = error_counts(gen);
    let mut m = Measured {
        attempted: attempted(gen),
        failed: errors.values().sum(),
        ..Measured::default()
    };
    let ladder = facts.ladder.unwrap_or_default();
    let bench = spans::self_times_by_name(&facts.bench_spans);
    let gen_spans = spans::self_times_by_name(&facts.gen_spans);
    let events = ladder.events.max(1) as f64;

    // core
    m.add(
        "core.observe_batch_ns_per_event",
        sum(selfs(&bench, "core.observe_batch")) / events,
        "ns/event",
        "ladder, MultiHashProfiler::observe_batch",
    );
    m.add(
        "core.finish_interval_us",
        median_us(selfs(&bench, "core.finish_interval")),
        "us",
        "ladder, median",
    );
    m.add(
        "core.candidates_per_interval",
        ladder.candidates as f64 / ladder.intervals.max(1) as f64,
        "count",
        format!("{} intervals", ladder.intervals),
    );
    // pipeline.format
    m.add(
        "pipeline.format.decode_ns_per_event",
        sum(selfs(&bench, "pipeline.format.decode_chunk_into")) / events,
        "ns/event",
        "ladder, decode_chunk_into",
    );
    m.add(
        "pipeline.format.bytes_per_event",
        ladder.bytes as f64 / events,
        "B/event",
        "encoded chunk bytes",
    );
    // pipeline.engine
    let ingest = selfs(&bench, "pipeline.engine.ingest_chunk");
    m.add(
        "pipeline.engine.ingest_chunk_ns_per_event",
        sum(ingest) / events,
        "ns/event",
        "ladder, 1-shard EngineSession::ingest_chunk",
    );
    m.add(
        "pipeline.engine.handoff_share",
        ladder.handoff_ns as f64 / sum(ingest).max(1.0),
        "ratio",
        "take_handoff_time over ingest_chunk time",
    );
    m.add(
        "pipeline.engine.start_us",
        median_us(selfs(&bench, "pipeline.engine.start")),
        "us",
        "ladder, median",
    );
    m.add(
        "pipeline.engine.cut_us",
        median_us(selfs(&bench, "pipeline.engine.cut")),
        "us",
        "ladder, median",
    );
    m.add(
        "pipeline.engine.top_k_us",
        median_us(selfs(&bench, "pipeline.engine.top_k")),
        "us",
        "ladder, median",
    );
    // server
    let ingest_rtt = median_us(selfs(&gen_spans, "server.ingest_chunk"));
    m.add(
        "server.ingest_rtt_us",
        ingest_rtt,
        "us",
        "generator spans, median",
    );
    m.add(
        "server.open_session_us",
        median_us(selfs(&bench, "server.open_session")),
        "us",
        "set-up spans, median",
    );
    m.add(
        "server.top_k_rtt_us",
        median_us(selfs(&gen_spans, "server.top_k")),
        "us",
        "0 when not exercised",
    );
    m.add(
        "server.snapshot_rtt_us",
        median_us(selfs(&gen_spans, "server.snapshot")),
        "us",
        "0 when not exercised",
    );
    let idle = facts
        .idle
        .map_or((0.0, 0.0), |w| (w.wakeups_per_s, w.cpu_s_per_s));
    m.add(
        "server.idle_wakeups_per_s",
        idle.0,
        "1/s",
        "context switches of the idle server after set-up",
    );
    m.add(
        "server.idle_cpu_s_per_s",
        idle.1,
        "s/s",
        "CPU of the idle server after set-up",
    );
    m.add(
        "server.threads",
        facts.peak_server_threads as f64,
        "count",
        "peak over the timed phase",
    );
    for kind in ErrorKind::ALL {
        let n = errors.get(&kind).copied().unwrap_or(0);
        m.add(
            &format!("server.errors.{}", kind.name()),
            n as f64,
            "count",
            "",
        );
    }
    m.add(
        "error_pct",
        100.0 * m.failed as f64 / m.attempted.max(1) as f64,
        "%",
        "failed over attempted",
    );
    // agg
    let agg_text = facts.agg_metrics.as_deref().unwrap_or("");
    m.add(
        "agg.pull_cycles_per_s",
        prometheus_total(agg_text, "agg_pull_cycles_total") / facts.agg_uptime_s.max(1e-9),
        "1/s",
        "0 without an aggregator",
    );
    m.add(
        "agg.pull_errors",
        prometheus_total(agg_text, "agg_pull_errors_total"),
        "count",
        "",
    );
    m.add(
        "agg.partial_harvests",
        prometheus_total(agg_text, "agg_partial_harvests_total"),
        "count",
        "",
    );
    m.add(
        "agg.max_staleness_cycles",
        gen.max_staleness_cycles as f64,
        "count",
        "",
    );
    m.add(
        "agg.state.add_leaf_profile_us",
        median_us(selfs(&bench, "agg.state.add_leaf_profile")),
        "us",
        "ladder, median",
    );
    m.add(
        "agg.state.encode_us",
        median_us(selfs(&bench, "agg.state.encode")),
        "us",
        "ladder, median",
    );
    m.add(
        "agg.state.top_k_us",
        median_us(selfs(&bench, "agg.state.top_k")),
        "us",
        "ladder, median",
    );
    m.add(
        "agg.top_k_rtt_us",
        median_us(selfs(&gen_spans, "agg.top_k")),
        "us",
        "0 without an aggregator",
    );
    let agg_cpu = match (facts.after.get(1), facts.before.get(1)) {
        (Some(a), Some(b)) => (a.cpu_s - b.cpu_s) / gen.duration_s,
        _ => 0.0,
    };
    m.add("agg.cpu_s_per_s", agg_cpu, "s/s", "0 without an aggregator");
    // telemetry
    let hist = sum(selfs(&bench, "telemetry.histogram_record"));
    let hist_calls =
        selfs(&bench, "telemetry.histogram_record").len() as f64 * HISTOGRAM_RECORDS as f64;
    let hist_ns = hist / hist_calls.max(1.0);
    m.add(
        "telemetry.histogram_record_ns",
        hist_ns,
        "ns",
        "ladder, Histogram::record",
    );
    // ingest and query latencies beyond the end-to-end medians (see
    // NOTES.md, "Tails"); ingest from the untraced blocks only
    let untraced = |c: &&crate::gen::ChunkRecord| !c.traced;
    let items = gen
        .chunks
        .iter()
        .filter(untraced)
        .map(|c| (c.at_ns, c.result.ok().map(|a| a.latency_ns)));
    let ingest_latency = latency(&windowed(facts.seconds as f64, items));
    m.add(
        "ingest_p50_ms",
        ingest_latency.p50,
        "ms",
        &ingest_latency.windows_note,
    );
    m.add(
        "ingest_p90_ms",
        ingest_latency.p90,
        "ms",
        &ingest_latency.windows_note,
    );
    m.add(
        "ingest_p99_ms",
        ingest_latency.p99,
        "ms",
        &ingest_latency.tail_note,
    );
    let query = latency(&query_windows(facts));
    m.add("query_p50_ms", query.p50, "ms", &query.windows_note);
    m.add("query_p90_ms", query.p90, "ms", &query.windows_note);
    m.add("query_p99_ms", query.p99, "ms", &query.tail_note);
    // ladder and benchmark
    m.add(
        "ladder.unattributed_us_per_chunk",
        unattributed_us(ingest_rtt, sum(ingest), ladder.chunks, hist_ns),
        "us",
        "ingest RTT minus engine ingest (which includes decode) minus histogram record",
    );
    m.add(
        "gen.lateness_p99_ms",
        lateness_p99_ms(gen),
        "ms",
        "how late the fleet generator sent, against its schedule; 0 for closed loops",
    );
    let on = chunk_median(gen, true).unwrap_or(0.0);
    let off = chunk_median(gen, false).unwrap_or(0.0);
    m.add(
        "trace.overhead_pct",
        if off > 0.0 {
            100.0 * (on - off) / off
        } else {
            0.0
        },
        "%",
        "median ingest latency, traced blocks against untraced blocks",
    );
    flag_lateness(facts, &mut m);
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips_through_parse_metrics() {
        let mut m = Measured {
            attempted: 10,
            failed: 1,
            ..Measured::default()
        };
        m.add("a_ms", 1.25, "ms", "");
        m.add("b", f64::INFINITY, "count", "");
        let line = m.json();
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": {"));
        assert_eq!(
            parse_metrics(&line).unwrap(),
            vec![("a_ms".to_string(), 1.25), ("b".to_string(), 1e9)]
        );
    }

    #[test]
    fn unattributed_is_rtt_minus_the_rungs() {
        // 4 chunks of 50 us engine ingest each, 20 ns per record, 80 us RTT.
        let gap = unattributed_us(80.0, 4.0 * 50_000.0, 4, 20.0);
        assert!((gap - (80.0 - 50.0 - 0.02)).abs() < 1e-9);
        // Rungs larger than the RTT show as a negative gap, not zero.
        assert!(unattributed_us(10.0, 4.0 * 50_000.0, 4, 20.0) < 0.0);
        assert_eq!(unattributed_us(10.0, 0.0, 0, 20.0), 10.0);
    }

    #[test]
    fn readings_are_interpolated_between_samples() {
        let reading = |at_s, cpu_s| Reading {
            at_s,
            cpu_s,
            hwm_kb: 2.0 * cpu_s,
        };
        let timeline = [reading(0.0, 1.0), reading(1.0, 2.0), reading(3.0, 4.0)];
        let cpu_at = |t| reading_at(&timeline, t, |r| r.cpu_s);
        assert_eq!(cpu_at(0.5), 1.5);
        assert_eq!(cpu_at(2.0), 3.0);
        assert_eq!(cpu_at(9.0), 4.0);
        assert_eq!(cpu_at(-1.0), 1.0);
        assert_eq!(reading_at(&timeline, 2.0, |r| r.hwm_kb), 6.0);
        assert_eq!(reading_at(&[], 1.0, |r| r.cpu_s), 0.0);
    }

    #[test]
    fn events_are_reached_at_the_ack_that_completes_them() {
        let chunk = |at_ns, ok: bool| crate::gen::ChunkRecord {
            session: 0,
            at_ns,
            traced: false,
            result: if ok {
                Ok(crate::gen::ChunkAck {
                    latency_ns: 1,
                    intervals: 0,
                })
            } else {
                Err(ErrorKind::Timeout)
            },
        };
        let gen = GenReport {
            // Out of order, as two connections' records are merged; the
            // failed chunk acked nothing.
            chunks: vec![
                chunk(3_000_000_000, true),
                chunk(1_000_000_000, true),
                chunk(1_500_000_000, false),
                chunk(2_000_000_000, true),
            ],
            ..GenReport::default()
        };
        let e = CHUNK_EVENTS as u64;
        assert_eq!(time_of_events(&gen, 1), Some(1.0));
        assert_eq!(time_of_events(&gen, e + 1), Some(2.0));
        assert_eq!(time_of_events(&gen, 3 * e), Some(3.0));
        assert_eq!(time_of_events(&gen, 3 * e + 1), None);
        assert_eq!(time_of_events(&gen, 0), None);
    }

    #[test]
    fn windows_split_the_timed_phase_evenly() {
        let secs = WINDOWS as f64;
        assert_eq!(window_of(0, secs), 0);
        assert_eq!(window_of(999_999_999, secs), 0);
        assert_eq!(window_of(1_000_000_000, secs), 1);
        // Acks just after the nominal end land in the last window.
        assert_eq!(
            window_of((secs * 1e9) as u64 + 500_000_000, secs),
            WINDOWS - 1
        );
        let last = (secs * 1e9) as u64 - 500_000_000;
        let w = windowed(secs, [(0, Some(5)), (last, None)].into_iter());
        assert_eq!(w[0].median(), Some(5.0));
        assert_eq!(w[WINDOWS - 1].median(), Some(f64::INFINITY));
    }

    /// A 20 s `stream` run whose generator acked one chunk a millisecond
    /// until `refused_from_s`, was refused after that, stopped sending at
    /// `sent_s` and reported a timed phase of `duration_s`.
    fn stream_run(duration_s: f64, sent_s: f64, refused_from_s: f64) -> RunFacts {
        stream_run_at(1_000, duration_s, sent_s, refused_from_s)
    }

    /// [`stream_run`] with `per_s` chunks a second.
    fn stream_run_at(per_s: u64, duration_s: f64, sent_s: f64, refused_from_s: f64) -> RunFacts {
        let every_ns = 1_000_000_000 / per_s;
        let per_s = per_s as f64;
        let chunks = (0..(sent_s * per_s) as u64)
            .map(|i| crate::gen::ChunkRecord {
                session: 0,
                at_ns: i * every_ns,
                traced: false,
                result: if (i as f64) < refused_from_s * per_s {
                    Ok(crate::gen::ChunkAck {
                        latency_ns: 200_000,
                        intervals: 0,
                    })
                } else {
                    Err(ErrorKind::Overloaded)
                },
            })
            .collect();
        RunFacts {
            workload: Workload::Stream,
            seconds: 20,
            setups: vec![0.01],
            gen: GenReport {
                duration_s,
                chunks,
                ..GenReport::default()
            },
            gate: GateReport {
                mismatches: Vec::new(),
                weighted_error_pct: 1.0,
                replays: Vec::new(),
            },
            before: Vec::new(),
            after: Vec::new(),
            peak_threads: 6,
            peak_server_threads: 5,
            idle: None,
            agg_metrics: None,
            agg_uptime_s: 0.0,
            gen_spans: Vec::new(),
            bench_spans: Vec::new(),
            ladder: None,
            timeline: (0..=20)
                .map(|t| Reading {
                    at_s: t as f64,
                    cpu_s: t as f64,
                    hwm_kb: 1024.0,
                })
                .collect(),
            session_tenants: vec!["live".into()],
        }
    }

    fn value(m: &Measured, name: &str) -> f64 {
        m.metrics.iter().find(|x| x.name == name).unwrap().value
    }

    #[test]
    fn a_full_run_reports_its_rate_and_no_failures() {
        let m = end_to_end(&stream_run(20.0, 20.0, 20.0)).unwrap();
        assert_eq!((m.attempted, m.failed), (20_000, 0));
        assert_eq!(value(&m, "success_pct"), 100.0);
        assert!((value(&m, "ingest_events_per_s") - 1e3 * CHUNK_EVENTS as f64).abs() < 1.0);
        assert_eq!(value(&m, "peak_rss_mb"), 1.0);
    }

    #[test]
    fn a_timed_phase_cut_short_fails_the_run() {
        let err = end_to_end(&stream_run(10.0, 10.0, 10.0)).unwrap_err();
        assert!(err.contains("lasted 10.000 s of the 20 s"), "{err}");
        assert!(per_layer(&stream_run(19.9, 19.9, 19.9)).is_err());
    }

    #[test]
    fn refusals_count_against_success_and_rate() {
        // Refused for the second half of the run: half the operations
        // failed. The rate keeps the better ten windows, all full.
        let m = end_to_end(&stream_run(20.0, 20.0, 10.0)).unwrap();
        assert_eq!((m.attempted, m.failed), (20_000, 10_000));
        assert_eq!(value(&m, "success_pct"), 50.0);
        let full = 1e3 * CHUNK_EVENTS as f64;
        assert!((value(&m, "ingest_events_per_s") - full).abs() < 1.0);
        // Refused for the last 15 s: the better ten windows are five full
        // and five empty.
        let m = end_to_end(&stream_run_at(2_000, 20.0, 20.0, 5.0)).unwrap();
        assert_eq!(value(&m, "success_pct"), 25.0);
        let full = 2e3 * CHUNK_EVENTS as f64;
        assert!((value(&m, "ingest_events_per_s") - full / 2.0).abs() < 1.0);
    }

    #[test]
    fn records_that_end_early_leave_the_last_windows_empty() {
        // The windows cut the nominal 20 s, not the span of the records:
        // records that end after 5 s leave 15 windows empty.
        let m = end_to_end(&stream_run_at(2_000, 20.0, 5.0, 5.0)).unwrap();
        let full = 2e3 * CHUNK_EVENTS as f64;
        assert!((value(&m, "ingest_events_per_s") - full / 2.0).abs() < 1.0);
    }

    #[test]
    fn too_few_events_for_the_memory_read_point_fail_the_run() {
        assert_eq!(rss_read_point(20), 40_000_000);
        // 2 s of acks: 8.2 M events.
        let err = end_to_end(&stream_run(20.0, 20.0, 2.0)).unwrap_err();
        assert!(err.contains("peak_rss_mb"), "{err}");
    }

    #[test]
    fn prometheus_series_are_summed() {
        let text = "# TYPE x counter\nx{upstream=\"a\"} 2\nx{upstream=\"b\"} 3\nxy 9\nx 1\n";
        assert_eq!(prometheus_total(text, "x"), 6.0);
    }
}
