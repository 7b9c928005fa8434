//! The load generator: a process of its own with two threads and two
//! connections, started by the benchmark once set-up is done. It builds
//! its inputs from the seed before the timed phase, prints `start` when
//! the timed phase begins (followed by `paced` when its load is paced, as
//! on `fleet`) and `end` when it is over, and writes what it measured
//! (and, when traced, its spans) to files the benchmark reads.

use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use mhp_agg::CUMULATIVE_SUFFIX;
use mhp_server::{Client, ErrorCode, ServerError, SessionInfo};

use crate::spans::{self, OpenSpan, Tracer};
use crate::workload::{
    FleetSchedule, Inputs, SessionInput, Workload, AGG_TOP_K, CHUNK_EVENTS, TOP_K,
};

/// Read timeout on every generator connection; a request slower than
/// this counts as a `timeout` failure.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);
/// A closed-loop connection reads `top_k` after every this many chunks.
const TOP_K_EVERY: u64 = 4;
/// Traced runs switch tracing on and off in blocks this long, so the
/// overhead is measured from interleaved halves of one run.
const TRACE_BLOCK_MS: u128 = 250;
/// A `fleet` chunk the generator reaches this long after its due time is
/// not sent: it has missed every latency limit, and counts as a `timeout`
/// failure.
const MAX_LATENESS: Duration = Duration::from_secs(5);
/// After a failed request a closed loop waits this long before it tries
/// again, so that a system refusing connections is not spun on. (The
/// `fleet` ingest connection keeps its schedule instead.)
const RETRY_PAUSE: Duration = Duration::from_millis(1);
/// The `fleet` reader's think time between read rounds: a closed loop of
/// one user, not a busy loop that would take a CPU from the system.
const READER_THINK: Duration = Duration::from_millis(1);
/// How long the `fleet` reader keeps listing after the last chunk, so
/// intervals completed at the very end are seen too.
const FRESHNESS_GRACE: Duration = Duration::from_secs(1);

/// Why an operation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ErrorKind {
    Overloaded,
    Timeout,
    Disconnect,
    Protocol,
    Mismatch,
}

impl ErrorKind {
    pub const ALL: [ErrorKind; 5] = [
        ErrorKind::Overloaded,
        ErrorKind::Timeout,
        ErrorKind::Disconnect,
        ErrorKind::Protocol,
        ErrorKind::Mismatch,
    ];

    pub fn name(self) -> &'static str {
        match self {
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::Timeout => "timeout",
            ErrorKind::Disconnect => "disconnect",
            ErrorKind::Protocol => "protocol",
            ErrorKind::Mismatch => "mismatch",
        }
    }

    fn parse(s: &str) -> Option<ErrorKind> {
        ErrorKind::ALL.into_iter().find(|k| k.name() == s)
    }

    pub fn of(err: &ServerError) -> ErrorKind {
        use std::io::ErrorKind as Io;
        match err {
            ServerError::Remote {
                code: ErrorCode::Overloaded | ErrorCode::Busy | ErrorCode::QuotaExceeded,
                ..
            } => ErrorKind::Overloaded,
            ServerError::Io(e) if matches!(e.kind(), Io::TimedOut | Io::WouldBlock) => {
                ErrorKind::Timeout
            }
            ServerError::Io(_) => ErrorKind::Disconnect,
            ServerError::Protocol(msg) if msg.contains("hung up") => ErrorKind::Disconnect,
            _ => ErrorKind::Protocol,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// `top_k` against a server session.
    TopK,
    /// `snapshot` of the latest interval against a server session.
    Snapshot,
    /// `top_k` of a tenant against the aggregator.
    AggTopK,
    /// `list_sessions` against the aggregator (freshness detection).
    Listing,
}

impl QueryKind {
    const ALL: [QueryKind; 4] = [
        QueryKind::TopK,
        QueryKind::Snapshot,
        QueryKind::AggTopK,
        QueryKind::Listing,
    ];

    fn name(self) -> &'static str {
        match self {
            QueryKind::TopK => "topk",
            QueryKind::Snapshot => "snapshot",
            QueryKind::AggTopK => "agg_topk",
            QueryKind::Listing => "listing",
        }
    }

    fn parse(s: &str) -> Option<QueryKind> {
        QueryKind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// One ingested chunk. `latency_ns` runs from when the chunk was due (the
/// open-loop schedule) or sent (closed loop) until its ack.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkRecord {
    pub session: usize,
    /// When the ack (or the failure) arrived, since the timed phase began.
    pub at_ns: u64,
    pub result: Result<ChunkAck, ErrorKind>,
    pub traced: bool,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChunkAck {
    pub latency_ns: u64,
    /// Intervals the session had completed after this chunk.
    pub intervals: u64,
}

/// One query: its latency, or why it failed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryRecord {
    pub kind: QueryKind,
    /// When the answer (or the failure) arrived, since the timed phase
    /// began.
    pub at_ns: u64,
    pub result: Result<u64, ErrorKind>,
}

/// Everything the generator measured.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct GenReport {
    /// Length of the timed phase, in seconds.
    pub duration_s: f64,
    pub chunks: Vec<ChunkRecord>,
    pub queries: Vec<QueryRecord>,
    /// Closed loop: `(at_ns, latency_ns)` from the ack of an
    /// interval-completing chunk to the snapshot that returned the
    /// interval.
    pub freshness: Vec<(u64, u64)>,
    /// Aggregator listings: `(at_ns, tenant, tenant events)`.
    pub listings: Vec<(u64, String, u64)>,
    /// Open loop: how late each chunk was sent, against its due time.
    pub lateness_ns: Vec<u64>,
    /// Highest upstream staleness the aggregator reported.
    pub max_staleness_cycles: u64,
    /// The open-loop schedule could not be kept.
    pub fell_behind: bool,
    /// Chunks each active session holds, set-up chunks included.
    pub applied: Vec<u64>,
}

impl GenReport {
    fn merge(&mut self, other: GenReport) {
        self.chunks.extend(other.chunks);
        self.queries.extend(other.queries);
        self.freshness.extend(other.freshness);
        self.listings.extend(other.listings);
        self.lateness_ns.extend(other.lateness_ns);
        self.max_staleness_cycles = self.max_staleness_cycles.max(other.max_staleness_cycles);
        self.fell_behind |= other.fell_behind;
        for (i, n) in other.applied.into_iter().enumerate() {
            if i >= self.applied.len() {
                self.applied.resize(i + 1, 0);
            }
            self.applied[i] = self.applied[i].max(n);
        }
    }

    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "duration_s {}", self.duration_s);
        let _ = writeln!(out, "max_staleness {}", self.max_staleness_cycles);
        let _ = writeln!(out, "fell_behind {}", u8::from(self.fell_behind));
        for (i, n) in self.applied.iter().enumerate() {
            let _ = writeln!(out, "applied {i} {n}");
        }
        for c in &self.chunks {
            let traced = u8::from(c.traced);
            let _ = match c.result {
                Ok(a) => writeln!(
                    out,
                    "chunk {} {} {traced} ok {} {}",
                    c.session, c.at_ns, a.latency_ns, a.intervals
                ),
                Err(k) => writeln!(out, "chunk {} {} {traced} {}", c.session, c.at_ns, k.name()),
            };
        }
        for q in &self.queries {
            let _ = match q.result {
                Ok(ns) => writeln!(out, "query {} {} ok {ns}", q.kind.name(), q.at_ns),
                Err(k) => writeln!(out, "query {} {} {}", q.kind.name(), q.at_ns, k.name()),
            };
        }
        for (at, ns) in &self.freshness {
            let _ = writeln!(out, "fresh {at} {ns}");
        }
        for (at, tenant, events) in &self.listings {
            let _ = writeln!(out, "listing {at} {tenant} {events}");
        }
        for ns in &self.lateness_ns {
            let _ = writeln!(out, "late {ns}");
        }
        out
    }

    pub fn parse(text: &str) -> Result<GenReport, String> {
        let mut r = GenReport::default();
        for line in text.lines() {
            let f: Vec<&str> = line.split(' ').collect();
            let bad = || format!("bad generator record {line:?}");
            let num = |i: usize| f.get(i).and_then(|v| v.parse::<u64>().ok()).ok_or_else(bad);
            let kind = |i: usize| f.get(i).and_then(|v| ErrorKind::parse(v)).ok_or_else(bad);
            match f[0] {
                "duration_s" => {
                    r.duration_s = f.get(1).and_then(|v| v.parse().ok()).ok_or_else(bad)?
                }
                "max_staleness" => r.max_staleness_cycles = num(1)?,
                "fell_behind" => r.fell_behind = num(1)? == 1,
                "applied" => {
                    let i = num(1)? as usize;
                    r.applied.resize(r.applied.len().max(i + 1), 0);
                    r.applied[i] = num(2)?;
                }
                "chunk" => r.chunks.push(ChunkRecord {
                    session: num(1)? as usize,
                    at_ns: num(2)?,
                    traced: num(3)? == 1,
                    result: if f.get(4) == Some(&"ok") {
                        Ok(ChunkAck {
                            latency_ns: num(5)?,
                            intervals: num(6)?,
                        })
                    } else {
                        Err(kind(4)?)
                    },
                }),
                "query" => r.queries.push(QueryRecord {
                    kind: f.get(1).and_then(|v| QueryKind::parse(v)).ok_or_else(bad)?,
                    at_ns: num(2)?,
                    result: if f.get(3) == Some(&"ok") {
                        Ok(num(4)?)
                    } else {
                        Err(kind(3)?)
                    },
                }),
                "fresh" => r.freshness.push((num(1)?, num(2)?)),
                "listing" => {
                    r.listings
                        .push((num(1)?, f.get(2).ok_or_else(bad)?.to_string(), num(3)?))
                }
                "late" => r.lateness_ns.push(num(1)?),
                _ => return Err(bad()),
            }
        }
        Ok(r)
    }
}

/// Arguments the benchmark passes to the generator process.
#[derive(Debug)]
pub struct GenArgs<'a> {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub server: &'a str,
    pub agg: Option<&'a str>,
    pub out_dir: &'a Path,
}

/// Runs the generator; called in the generator process.
pub fn run(args: &GenArgs<'_>) -> Result<(), String> {
    let inputs = Inputs::generate(args.workload, args.seed);
    let epoch = Instant::now();
    let mut tracers = [Tracer::new(epoch, 0), Tracer::new(epoch, 1 << 40)];
    let (report, spans) = match args.workload {
        Workload::Stream | Workload::Sessions => {
            let start_seq = args.workload.setup_chunks() as u64;
            let mut conns = Vec::new();
            for input in &inputs.active {
                let mut conn = Conn::open(args.server)?;
                conn.client()
                    .and_then(|c| c.attach(&input.name))
                    .map_err(|e| format!("attach {}: {e}", input.name))?;
                conns.push(conn);
            }
            announce("start");
            let start = Instant::now();
            let timing = Timing {
                start,
                deadline: start + Duration::from_secs(args.seconds),
                trace: args.trace,
            };
            let [t0, t1] = &mut tracers;
            let [c0, c1] = &mut conns[..] else {
                unreachable!("two active sessions")
            };
            let (r0, r1) = std::thread::scope(|scope| {
                let other =
                    scope.spawn(|| closed_loop(c1, 1, &inputs.active[1], start_seq, timing, t1));
                let mine = closed_loop(c0, 0, &inputs.active[0], start_seq, timing, t0);
                (
                    mine,
                    other.join().expect("generator connection thread panicked"),
                )
            });
            let mut report = GenReport {
                duration_s: start.elapsed().as_secs_f64(),
                ..GenReport::default()
            };
            report.merge(r0?);
            report.merge(r1?);
            (report, tracers)
        }
        Workload::Fleet => {
            let agg = args.agg.ok_or("fleet needs an aggregator address")?;
            let mut ingest = Conn::open(args.server)?;
            let mut reader = Conn::open(agg)?;
            let schedule = FleetSchedule::new(args.seconds);
            let tenants = inputs.active_tenants();
            let done = AtomicBool::new(false);
            announce("start");
            announce("paced");
            let start = Instant::now();
            let timing = Timing {
                start,
                deadline: start + Duration::from_secs(args.seconds),
                trace: args.trace,
            };
            let [t0, t1] = &mut tracers;
            let (report, read) = std::thread::scope(|scope| {
                let reader_thread = scope
                    .spawn(|| fleet_reader(&mut reader, &tenants, start, &done, args.trace, t1));
                let report = fleet_ingest(&mut ingest, &inputs.active, schedule, timing, t0);
                let duration_s = start.elapsed().as_secs_f64();
                done.store(true, Ordering::SeqCst);
                let read = reader_thread
                    .join()
                    .expect("generator reader thread panicked");
                (report.map(|r| GenReport { duration_s, ..r }), read)
            });
            let mut report = report?;
            report.merge(read);
            (report, tracers)
        }
    };
    announce("end");
    std::fs::write(args.out_dir.join("gen.records"), report.render())
        .map_err(|e| format!("write generator records: {e}"))?;
    if args.trace {
        let all: Vec<_> = spans.into_iter().flat_map(Tracer::into_spans).collect();
        std::fs::write(args.out_dir.join("gen.spans"), spans::render(&all))
            .map_err(|e| format!("write generator spans: {e}"))?;
    }
    Ok(())
}

fn announce(line: &str) {
    let mut out = std::io::stdout().lock();
    let _ = writeln!(out, "{line}");
    let _ = out.flush();
}

fn since_ns(start: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(start).as_nanos() as u64
}

/// In traced runs, whether the block `now` falls in is traced.
fn traced_block(trace: bool, start: Instant) -> bool {
    trace && (start.elapsed().as_millis() / TRACE_BLOCK_MS).is_multiple_of(2)
}

/// Times one request into `queries`; `Err` carries the failure's kind.
fn timed<T>(
    queries: &mut Vec<QueryRecord>,
    kind: QueryKind,
    start: Instant,
    call: impl FnOnce() -> Result<T, ServerError>,
) -> Result<(T, Instant), ErrorKind> {
    let sent = Instant::now();
    let result = call();
    let done = Instant::now();
    let result = result.map_err(|e| ErrorKind::of(&e));
    queries.push(QueryRecord {
        kind,
        at_ns: since_ns(start, done),
        result: result
            .as_ref()
            .map(|_| since_ns(sent, done))
            .map_err(|k| *k),
    });
    result.map(|v| (v, done))
}

/// A generator connection that outlives failures: after one that may
/// have left it out of step with the server it is dropped, and the next
/// request connects afresh. The generator records every failure and
/// keeps going until its timed phase is over.
struct Conn<'a> {
    addr: &'a str,
    client: Option<Client>,
}

impl<'a> Conn<'a> {
    /// Connects at once, so that a system that cannot be reached at all
    /// fails the run before its timed phase.
    fn open(addr: &'a str) -> Result<Conn<'a>, String> {
        let mut conn = Conn { addr, client: None };
        conn.client().map_err(|e| format!("connect {addr}: {e}"))?;
        Ok(conn)
    }

    fn client(&mut self) -> Result<&mut Client, ServerError> {
        if self.client.is_none() {
            let mut client = Client::connect(self.addr)?;
            client.set_read_timeout(Some(REQUEST_TIMEOUT))?;
            self.client = Some(client);
        }
        Ok(self.client.as_mut().expect("connected above"))
    }

    /// Drops the connection after a timeout, a disconnect or an answer
    /// that could not be used; a typed refusal or a wrong answer leaves it
    /// in step.
    fn failed(&mut self, kind: ErrorKind) {
        if matches!(
            kind,
            ErrorKind::Timeout | ErrorKind::Disconnect | ErrorKind::Protocol
        ) {
            self.client = None;
        }
    }
}

/// Chunks a session holds, from its event count.
fn chunks_held(info: &SessionInfo) -> u64 {
    info.events / CHUNK_EVENTS as u64
}

/// Sends session `input`'s next chunk over `conn`, checks the event total
/// in its ack and returns the session's interval count. `next` is the
/// sequence number of the chunk the session expects, or `None` when a
/// failure left that unknown (a chunk that failed may or may not have
/// been applied); then the session is attached again, which reads it back
/// from the session's event count. A new connection is attached too, and
/// with `attach` it attaches before every chunk, as the `fleet` generator
/// moves between sessions. A failure forgets `next`.
fn send_chunk(
    conn: &mut Conn<'_>,
    input: &SessionInput,
    next: &mut Option<u64>,
    attach: bool,
    tracer: &mut Tracer,
    root: &OpenSpan,
    request: u64,
) -> Result<u64, ErrorKind> {
    let of = |e: ServerError| ErrorKind::of(&e);
    let result = (|| {
        let fresh = conn.client.is_none();
        let client = conn.client().map_err(of)?;
        if attach || fresh || next.is_none() {
            let span = tracer.begin("server.attach", Some(root), request);
            let info = client.attach(&input.name);
            tracer.end(span);
            next.get_or_insert(chunks_held(&info.map_err(of)?));
        }
        let seq = next.expect("known once attached");
        let chunk = input.chunk(seq).to_vec();
        let span = tracer.begin("server.ingest_chunk", Some(root), request);
        let acked = client.ingest_chunk(chunk);
        tracer.end(span);
        let (events, intervals) = acked.map_err(of)?;
        if events != (seq + 1) * CHUNK_EVENTS as u64 {
            return Err(ErrorKind::Mismatch);
        }
        *next = Some(seq + 1);
        Ok(intervals)
    })();
    if let Err(kind) = result {
        *next = None;
        conn.failed(kind);
    }
    result
}

/// The chunks session `input` holds at the end of the run: `next`, or
/// read back from the server when a failure left it unknown.
fn settle(conn: &mut Conn<'_>, input: &SessionInput, next: Option<u64>) -> Result<u64, String> {
    match next {
        Some(n) => Ok(n),
        None => conn
            .client()
            .and_then(|c| c.attach(&input.name))
            .map(|info| chunks_held(&info))
            .map_err(|e| format!("read back the chunks {} holds: {e}", input.name)),
    }
}

/// When a generator connection starts and stops, and whether it traces.
#[derive(Debug, Clone, Copy)]
struct Timing {
    start: Instant,
    deadline: Instant,
    trace: bool,
}

/// Sleeps until `due` and returns the instant a request due then is
/// timed from. That is `due` itself, except for the part of the delay the
/// generator caused itself: when it slept until the due time and woke
/// late (the machine did not run it), the clock starts when it woke. A
/// request delayed because the previous one was slow is timed from its
/// due time, so the system's queueing counts.
fn wait_for(due: Instant) -> Instant {
    let now = Instant::now();
    if now < due {
        std::thread::sleep(due - now);
        Instant::now()
    } else {
        due
    }
}

/// One closed-loop connection: streams chunks into `input`'s session
/// until the deadline, reads the snapshot of every interval as soon as
/// its chunk is acked and `top_k` every few chunks.
fn closed_loop(
    conn: &mut Conn<'_>,
    session: usize,
    input: &SessionInput,
    start_seq: u64,
    timing: Timing,
    tracer: &mut Tracer,
) -> Result<GenReport, String> {
    let Timing {
        start,
        deadline,
        trace,
    } = timing;
    let mut report = GenReport::default();
    let mut next = Some(start_seq);
    let mut intervals_seen = 0;
    let mut acked = 0u64;
    let mut request = 0u64;
    while Instant::now() < deadline {
        request += 1;
        let traced = traced_block(trace, start);
        tracer.set_enabled(traced);
        let root = tracer.begin("gen.chunk", None, request);
        let sent_at = Instant::now();
        let result = send_chunk(conn, input, &mut next, false, tracer, &root, request);
        let acked_at = Instant::now();
        report.chunks.push(ChunkRecord {
            session,
            at_ns: since_ns(start, acked_at),
            traced,
            result: result.map(|intervals| ChunkAck {
                latency_ns: since_ns(sent_at, acked_at),
                intervals,
            }),
        });
        let Ok(intervals) = result else {
            tracer.end(root);
            std::thread::sleep(RETRY_PAUSE);
            continue;
        };
        acked += 1;
        let mut failure = None;
        if intervals > intervals_seen {
            intervals_seen = intervals;
            let span = tracer.begin("server.snapshot", Some(&root), request);
            match timed(&mut report.queries, QueryKind::Snapshot, start, || {
                conn.client()?.snapshot(u64::MAX)
            }) {
                Ok((Some(p), done)) if p.interval_index + 1 == intervals => {
                    report
                        .freshness
                        .push((since_ns(start, done), since_ns(acked_at, done)));
                }
                Ok(_) => {
                    report.queries.last_mut().expect("just timed").result =
                        Err(ErrorKind::Mismatch);
                    failure = Some(ErrorKind::Mismatch);
                }
                Err(kind) => failure = Some(kind),
            }
            tracer.end(span);
        }
        if failure.is_none() && acked.is_multiple_of(TOP_K_EVERY) {
            let span = tracer.begin("server.top_k", Some(&root), request);
            failure = timed(&mut report.queries, QueryKind::TopK, start, || {
                conn.client()?.top_k(TOP_K)
            })
            .err();
            tracer.end(span);
        }
        tracer.end(root);
        if let Some(kind) = failure {
            conn.failed(kind);
            std::thread::sleep(RETRY_PAUSE);
        }
    }
    report.applied = vec![0; session + 1];
    report.applied[session] = settle(conn, input, next)?;
    Ok(report)
}

/// The `fleet` ingest connection: sends every chunk of the fixed schedule
/// at its due time, attaching to the chunk's session first. A chunk it
/// reaches more than [`MAX_LATENESS`] after its due time is not sent and
/// counts as failed.
fn fleet_ingest(
    conn: &mut Conn<'_>,
    active: &[SessionInput],
    schedule: FleetSchedule,
    timing: Timing,
    tracer: &mut Tracer,
) -> Result<GenReport, String> {
    let Timing {
        start,
        deadline,
        trace,
    } = timing;
    let mut report = GenReport::default();
    let mut next = vec![Some(crate::workload::FLEET_WARM_CHUNKS as u64); active.len()];
    for k in 0..schedule.chunks {
        let due = start + schedule.period * k as u32;
        let clock_from = wait_for(due);
        let late = Instant::now().saturating_duration_since(due);
        report.lateness_ns.push(late.as_nanos() as u64);
        let session = schedule.session(k);
        let traced = traced_block(trace, start);
        if late > MAX_LATENESS {
            report.fell_behind = true;
            report.chunks.push(ChunkRecord {
                session,
                at_ns: since_ns(start, Instant::now()),
                traced,
                result: Err(ErrorKind::Timeout),
            });
            continue;
        }
        tracer.set_enabled(traced);
        let root = tracer.begin("gen.chunk", None, k);
        let result = send_chunk(
            conn,
            &active[session],
            &mut next[session],
            true,
            tracer,
            &root,
            k,
        );
        let acked_at = Instant::now();
        tracer.end(root);
        report.chunks.push(ChunkRecord {
            session,
            at_ns: since_ns(start, acked_at),
            traced,
            result: result.map(|intervals| ChunkAck {
                latency_ns: since_ns(clock_from, acked_at),
                intervals,
            }),
        });
    }
    // The last chunk is due a period before the end; the timed phase
    // still lasts its full length.
    wait_for(deadline);
    report.applied = active
        .iter()
        .zip(next)
        .map(|(input, n)| settle(conn, input, n))
        .collect::<Result<_, _>>()?;
    Ok(report)
}

/// The `fleet` reader: lists the aggregator's tenants (the freshness
/// probe) and reads every tenant's top-k, in a closed loop until the
/// ingest side is done, then keeps listing for a short grace period. A
/// failed request ends its round; the next round starts on a fresh
/// connection.
fn fleet_reader(
    conn: &mut Conn<'_>,
    tenants: &[String],
    start: Instant,
    done: &AtomicBool,
    trace: bool,
    tracer: &mut Tracer,
) -> GenReport {
    let mut report = GenReport::default();
    let mut grace_until: Option<Instant> = None;
    let mut round = 0u64;
    loop {
        if done.load(Ordering::SeqCst) {
            let until = *grace_until.get_or_insert_with(|| Instant::now() + FRESHNESS_GRACE);
            if Instant::now() >= until {
                break;
            }
        }
        round += 1;
        let traced = traced_block(trace, start) && grace_until.is_none();
        tracer.set_enabled(traced);
        let root = tracer.begin("gen.read", None, round);
        let span = tracer.begin("agg.list_sessions", Some(&root), round);
        let listed = timed(&mut report.queries, QueryKind::Listing, start, || {
            conn.client()?.list_sessions_with_health()
        });
        tracer.end(span);
        let mut failure = listed.as_ref().err().copied();
        if let Ok(((sessions, health), at)) = listed {
            for info in sessions {
                if let Some(tenant) = info.name.strip_suffix(CUMULATIVE_SUFFIX) {
                    report
                        .listings
                        .push((since_ns(start, at), tenant.to_string(), info.events));
                }
            }
            for h in health {
                report.max_staleness_cycles = report.max_staleness_cycles.max(h.staleness_cycles);
            }
        }
        if failure.is_none() && grace_until.is_none() {
            for tenant in tenants {
                let span = tracer.begin("agg.attach", Some(&root), round);
                let attached = conn.client().and_then(|c| c.attach(tenant));
                tracer.end(span);
                if let Err(e) = attached {
                    let kind = ErrorKind::of(&e);
                    report.queries.push(QueryRecord {
                        kind: QueryKind::AggTopK,
                        at_ns: since_ns(start, Instant::now()),
                        result: Err(kind),
                    });
                    failure = Some(kind);
                    break;
                }
                let span = tracer.begin("agg.top_k", Some(&root), round);
                failure = timed(&mut report.queries, QueryKind::AggTopK, start, || {
                    conn.client()?.top_k(AGG_TOP_K)
                })
                .err();
                tracer.end(span);
                if failure.is_some() {
                    break;
                }
            }
        }
        tracer.end(root);
        if let Some(kind) = failure {
            conn.failed(kind);
            std::thread::sleep(RETRY_PAUSE);
        }
        std::thread::sleep(READER_THINK);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips() {
        let report = GenReport {
            duration_s: 10.25,
            chunks: vec![
                ChunkRecord {
                    session: 1,
                    at_ns: 5000,
                    traced: true,
                    result: Ok(ChunkAck {
                        latency_ns: 900,
                        intervals: 2,
                    }),
                },
                ChunkRecord {
                    session: 0,
                    at_ns: 6000,
                    traced: false,
                    result: Err(ErrorKind::Timeout),
                },
            ],
            queries: vec![
                QueryRecord {
                    kind: QueryKind::AggTopK,
                    at_ns: 10,
                    result: Ok(77),
                },
                QueryRecord {
                    kind: QueryKind::Snapshot,
                    at_ns: 20,
                    result: Err(ErrorKind::Mismatch),
                },
            ],
            freshness: vec![(3, 4), (5, 6)],
            listings: vec![(10, "acme".into(), 99)],
            lateness_ns: vec![5],
            max_staleness_cycles: 2,
            fell_behind: true,
            applied: vec![3, 8],
        };
        assert_eq!(GenReport::parse(&report.render()).unwrap(), report);
        assert!(GenReport::parse("chunk x").is_err());
    }

    #[test]
    fn a_failed_chunk_resets_the_connection_and_the_next_one_resyncs() {
        use mhp_server::{Server, ServerConfig};
        let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
        let addr = server.local_addr().to_string();
        let inputs = Inputs::generate(Workload::Stream, 1);
        let [held, missing] = &inputs.active[..] else {
            unreachable!("two active sessions")
        };
        let mut setup = Client::connect(addr.as_str()).unwrap();
        setup
            .open_session(&held.name, crate::workload::session_config())
            .unwrap();
        for seq in 0..2 {
            setup.ingest_chunk(held.chunk(seq).to_vec()).unwrap();
        }
        let mut tracer = Tracer::new(Instant::now(), 0);
        let root = tracer.begin("gen.chunk", None, 1);
        let mut conn = Conn::open(&addr).unwrap();

        // Where the session stands is unknown: the attach reads back the
        // two chunks it holds, and the third follows.
        let mut next = None;
        send_chunk(&mut conn, held, &mut next, false, &mut tracer, &root, 1).unwrap();
        assert_eq!(next, Some(3));

        // Attaching to a session that is not there: the failure is
        // returned, the connection dropped and the position forgotten.
        let mut gone = Some(5);
        let err = send_chunk(&mut conn, missing, &mut gone, true, &mut tracer, &root, 2);
        assert_eq!(err, Err(ErrorKind::Protocol));
        assert!(conn.client.is_none() && gone.is_none());

        // The connection comes back for the next request, and a forgotten
        // position is read back at the end of the run.
        assert_eq!(settle(&mut conn, held, None), Ok(3));
        assert!(settle(&mut conn, missing, None).is_err());
        server.shutdown();
        server.join();
    }

    #[test]
    fn errors_are_classified_by_cause() {
        let remote = |code| ServerError::Remote {
            code,
            message: String::new(),
        };
        assert_eq!(
            ErrorKind::of(&remote(ErrorCode::Overloaded)),
            ErrorKind::Overloaded
        );
        assert_eq!(
            ErrorKind::of(&remote(ErrorCode::Ingest)),
            ErrorKind::Protocol
        );
        let io = |kind| ServerError::Io(std::io::Error::new(kind, "x"));
        assert_eq!(
            ErrorKind::of(&io(std::io::ErrorKind::WouldBlock)),
            ErrorKind::Timeout
        );
        assert_eq!(
            ErrorKind::of(&io(std::io::ErrorKind::ConnectionReset)),
            ErrorKind::Disconnect
        );
        assert_eq!(
            ErrorKind::of(&ServerError::protocol("server hung up before responding")),
            ErrorKind::Disconnect
        );
    }
}
