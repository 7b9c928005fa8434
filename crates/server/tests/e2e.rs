//! End-to-end acceptance tests: a real server on an ephemeral port, real
//! TCP clients, and equivalence against offline engine runs.

use mhp_core::Tuple;
use mhp_pipeline::{EngineConfig, ShardedEngine};
use mhp_server::{
    loadgen, stat_value, Client, ErrorCode, LoadgenConfig, ProfileData, ProfilerKind, Server,
    ServerConfig, ServerError, SessionConfig,
};
use mhp_trace::{Benchmark, StreamKind, StreamSpec};

fn workload(seed: u64, n: usize) -> Vec<Tuple> {
    StreamSpec::new(Benchmark::Gcc, StreamKind::Value, seed)
        .events()
        .take(n)
        .collect()
}

fn offline_profiles(config: &SessionConfig, events: &[Tuple]) -> Vec<ProfileData> {
    let interval = mhp_core::IntervalConfig::new(config.interval_len, config.threshold).unwrap();
    let engine = ShardedEngine::new(
        EngineConfig::new(config.shards as usize),
        interval,
        config.kind.spec(),
        config.seed,
    );
    let report = engine.run(events.iter().copied()).unwrap();
    report
        .profiles
        .iter()
        .map(ProfileData::from_profile)
        .collect()
}

/// The core acceptance criterion: a workload streamed chunk-by-chunk over
/// TCP yields snapshots identical to an offline single-process run — exact
/// for the perfect profiler across shards, exact for multi-hash on one
/// shard (where the engine is literally the single-threaded computation).
#[test]
fn streamed_snapshots_match_offline_runs_exactly() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let events = workload(42, 25_000);

    let configs = [
        SessionConfig {
            kind: ProfilerKind::MultiHash,
            shards: 1,
            interval_len: 5_000,
            threshold: 0.01,
            seed: 7,
        },
        SessionConfig {
            kind: ProfilerKind::Perfect,
            shards: 4,
            interval_len: 5_000,
            threshold: 0.01,
            seed: 7,
        },
    ];
    for (idx, config) in configs.iter().enumerate() {
        let expected = offline_profiles(config, &events);
        assert_eq!(expected.len(), 5);

        let mut client = Client::connect(server.local_addr()).unwrap();
        let name = format!("equiv-{idx}");
        client.open_session(&name, config.clone()).unwrap();
        let mut totals = (0, 0);
        for chunk in events.chunks(1_024) {
            totals = client.ingest(chunk).unwrap();
        }
        assert_eq!(totals, (25_000, 5), "{}", config.kind.name());

        for (interval, reference) in expected.iter().enumerate() {
            let got = client.snapshot(interval as u64).unwrap().unwrap();
            assert_eq!(
                got,
                *reference,
                "{} interval {interval}",
                config.kind.name()
            );
        }
        // u64::MAX resolves to the newest completed interval.
        let latest = client.snapshot(u64::MAX).unwrap().unwrap();
        assert_eq!(latest, expected[4]);
        assert!(client.snapshot(5).unwrap().is_none(), "only 5 intervals");
        client.close_session().unwrap();
    }
    server.join();
}

/// Live top-k over the wire equals the offline engine's live top-k, and a
/// forced cut returns the partial interval's profile.
#[test]
fn top_k_and_forced_cut_match_the_offline_engine() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let events = workload(9, 7_500); // 5 000-interval => 2 500 partial
    let config = SessionConfig {
        kind: ProfilerKind::Perfect,
        shards: 2,
        interval_len: 5_000,
        threshold: 0.01,
        seed: 1,
    };

    let interval = mhp_core::IntervalConfig::new(config.interval_len, config.threshold).unwrap();
    let engine = ShardedEngine::new(
        EngineConfig::new(2),
        interval,
        config.kind.spec(),
        config.seed,
    );
    let mut offline = engine.start().unwrap();
    offline.push_all(events.iter().copied()).unwrap();
    let expected_topk = offline.top_k(10).unwrap();
    let expected_cut = offline.cut().unwrap().unwrap();

    let mut client = Client::connect(server.local_addr()).unwrap();
    client.open_session("livetopk", config).unwrap();
    for chunk in events.chunks(512) {
        client.ingest(chunk).unwrap();
    }
    let got_topk = client.top_k(10).unwrap();
    assert_eq!(got_topk, expected_topk);
    let got_cut = client.cut().unwrap().unwrap();
    assert_eq!(got_cut, ProfileData::from_profile(&expected_cut));
    // Nothing pending now: cutting again is a clean no-op.
    assert!(client.cut().unwrap().is_none());
    server.join();
}

/// A second connection can attach to a session by name and observe the
/// state the first connection built.
#[test]
fn sessions_are_shared_across_connections() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let events = workload(3, 12_000);

    let mut recorder = Client::connect(server.local_addr()).unwrap();
    recorder
        .open_session("shared", SessionConfig::default_multi_hash())
        .unwrap();
    for chunk in events.chunks(2_048) {
        recorder.ingest(chunk).unwrap();
    }

    let mut dashboard = Client::connect(server.local_addr()).unwrap();
    let info = dashboard.attach("shared").unwrap();
    assert_eq!(info.events, 12_000);
    assert_eq!(info.intervals, 1);
    assert!(dashboard.snapshot(u64::MAX).unwrap().is_some());

    // Unknown names are a typed error, not a hang or a disconnect.
    let mut stranger = Client::connect(server.local_addr()).unwrap();
    match stranger.attach("nope") {
        Err(ServerError::Remote { code, .. }) => assert_eq!(code, ErrorCode::UnknownSession),
        other => panic!("expected unknown-session, got {other:?}"),
    }
    // Re-opening a taken name is refused.
    match stranger.open_session("shared", SessionConfig::default_multi_hash()) {
        Err(ServerError::Remote { code, .. }) => assert_eq!(code, ErrorCode::SessionExists),
        other => panic!("expected session-exists, got {other:?}"),
    }
    server.join();
}

/// Eight concurrent loadgen clients complete with zero protocol errors,
/// and the server's metrics show the traffic: non-zero counters and
/// populated latency histograms.
#[test]
fn loadgen_eight_clients_clean_and_stats_populated() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let config = LoadgenConfig {
        clients: 8,
        events_per_client: 20_000,
        chunk_events: 2_048,
        session: SessionConfig::default_multi_hash(),
        session_prefix: "lg".to_string(),
    };
    let report = loadgen(server.local_addr(), &config).unwrap();
    assert_eq!(report.errors, 0, "no protocol errors under concurrency");
    assert_eq!(report.events, 160_000);
    assert_eq!(report.requests, 8 * 10);
    assert!(report.events_per_sec() > 0.0);
    assert!(report.latency.count() >= 80);

    let mut client = Client::connect(server.local_addr()).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stat_value(&stats, "events_ingested"), Some(160_000));
    assert_eq!(stat_value(&stats, "chunks_ingested"), Some(80));
    assert_eq!(stat_value(&stats, "sessions_opened"), Some(8));
    assert_eq!(stat_value(&stats, "sessions_closed"), Some(8));
    assert!(stat_value(&stats, "requests_total").unwrap() >= 80);
    assert!(stat_value(&stats, "connections_accepted").unwrap() >= 8);
    assert!(stat_value(&stats, "request_latency_count").unwrap() >= 80);
    assert!(stat_value(&stats, "request_latency_p99_us").unwrap() > 0);
    assert!(stat_value(&stats, "chunk_decode_count").unwrap() >= 80);
    assert_eq!(stat_value(&stats, "protocol_errors"), Some(0));

    // The Prometheus exposition covers the same traffic across all three
    // layers: server counters, engine dispatch, sketch introspection.
    let metrics = client.metrics().unwrap();
    assert!(metrics.contains("# TYPE server_requests_total counter"));
    assert_eq!(
        stat_value(&metrics, "server_events_ingested_total"),
        Some(160_000)
    );
    assert_eq!(stat_value(&metrics, "engine_events_total"), Some(160_000));
    assert!(stat_value(&metrics, "engine_cuts_total").unwrap() >= 8);
    assert!(stat_value(&metrics, "sketch_intervals_total").unwrap() >= 8);
    assert!(stat_value(&metrics, "sketch_promotions_total").unwrap() > 0);
    assert!(metrics.contains("# TYPE server_request_latency_us histogram"));
    assert!(metrics.contains("server_request_latency_us_bucket{le=\"+Inf\"}"));
    server.join();
}

/// The JSONL metrics exporter writes at least a final snapshot at
/// shutdown, and each line is a self-contained JSON object.
#[test]
fn metrics_export_writes_jsonl_snapshots() {
    let dir = std::env::temp_dir().join(format!("mhp-metrics-export-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("metrics.jsonl");
    let _ = std::fs::remove_file(&path);

    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            metrics_export_path: Some(path.clone()),
            metrics_export_interval: std::time::Duration::from_millis(100),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client
        .open_session("export", SessionConfig::default_multi_hash())
        .unwrap();
    client.ingest(&workload(11, 12_000)).unwrap();
    client.shutdown_server().unwrap();
    drop(client);
    server.wait();

    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(!lines.is_empty(), "at least the shutdown snapshot");
    // Registry snapshots first, then the shutdown trace stream: every
    // line is a self-contained JSON object, snapshots carry a wall-clock
    // stamp, trace lines carry a type tag.
    for line in &lines {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "JSONL: {line}"
        );
        assert!(
            line.contains("\"ts_ms\":")
                || line.contains("\"type\":\"stage_summary\"")
                || line.contains("\"type\":\"trace\""),
            "neither snapshot nor trace line: {line}"
        );
    }
    // The final snapshot saw the session's traffic.
    let last_snapshot = lines.iter().rfind(|l| l.contains("\"ts_ms\":")).unwrap();
    assert!(
        last_snapshot.contains("\"server_events_ingested_total\":12000"),
        "{last_snapshot}"
    );
    // The trailing trace stream attributes the ingest stage.
    assert!(
        lines
            .iter()
            .any(|l| l.contains("\"type\":\"stage_summary\"") && l.contains("\"stage\":\"ingest\"")),
        "trace stream missing from export"
    );
    let _ = std::fs::remove_file(&path);
}

/// Connections beyond the limit receive a graceful, retryable
/// `overloaded` error response instead of hanging or being reset.
#[test]
fn over_limit_connections_are_rejected_gracefully() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            max_connections: 1,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut first = Client::connect(server.local_addr()).unwrap();
    first
        .open_session("holder", SessionConfig::default_multi_hash())
        .unwrap();

    // The accept loop is single-threaded, so after the first client's
    // request round-trips, a second connection must see `overloaded` —
    // a retryable code, so well-behaved clients back off and reconnect.
    let mut second = Client::connect(server.local_addr()).unwrap();
    match second.call(&mhp_server::Request::Stats) {
        Ok(mhp_server::Response::Error { code, .. }) => assert_eq!(code, ErrorCode::Overloaded),
        other => panic!("expected overloaded rejection, got {other:?}"),
    }
    drop(second);
    drop(first);
    server.join();
}

/// Malformed bytes get an error response and the connection is dropped;
/// the server survives and keeps serving others.
#[test]
fn protocol_violations_are_contained() {
    use std::io::Write as _;
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();

    let mut raw = std::net::TcpStream::connect(server.local_addr()).unwrap();
    // An oversized declared frame: 4 GiB of nothing.
    raw.write_all(&u32::MAX.to_le_bytes()).unwrap();
    raw.flush().unwrap();
    // The server answers with an error frame and hangs up.
    let mut reader = std::io::BufReader::new(raw.try_clone().unwrap());
    let body = mhp_server::protocol::read_frame(&mut reader)
        .unwrap()
        .unwrap();
    match mhp_server::Response::decode(&body).unwrap() {
        mhp_server::Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
        other => panic!("expected error response, got {other:?}"),
    }

    // A fresh, well-behaved client still gets served.
    let mut client = Client::connect(server.local_addr()).unwrap();
    let stats = client.stats().unwrap();
    assert!(stat_value(&stats, "protocol_errors").unwrap() >= 1);
    server.join();
}

/// Graceful shutdown over the wire: in-flight sessions are drained, the
/// accept loop exits, and the server process (here: thread) terminates.
#[test]
fn shutdown_request_drains_sessions_and_stops_the_server() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    let mut client = Client::connect(addr).unwrap();
    client
        .open_session("draining", SessionConfig::default_multi_hash())
        .unwrap();
    client.ingest(&workload(5, 3_000)).unwrap();
    client.shutdown_server().unwrap();
    drop(client);

    // wait() returns only when the accept loop has drained everything.
    server.wait();

    // The port is closed: new connections are refused.
    assert!(std::net::TcpStream::connect(addr).is_err());
}

/// `sessions` lists every resident session, sorted by name, without an
/// attached session — the discovery primitive an aggregator polls.
#[test]
fn session_listing_reports_every_resident_session_sorted() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    assert!(client.list_sessions().unwrap().is_empty());

    for name in ["acme/web", "acme/api", "beta/db"] {
        let mut opener = Client::connect(server.local_addr()).unwrap();
        opener
            .open_session(name, SessionConfig::default_multi_hash())
            .unwrap();
        opener.ingest(&workload(9, 2_000)).unwrap();
    }

    let listed = client.list_sessions().unwrap();
    let names: Vec<&str> = listed.iter().map(|info| info.name.as_str()).collect();
    assert_eq!(names, ["acme/api", "acme/web", "beta/db"]);
    for info in &listed {
        assert_eq!(info.events, 2_000);
    }
    server.join();
}

/// Per-tenant session quota: the tenant at its limit gets a typed
/// `quota-exceeded` rejection (visible in the Prometheus exposition as a
/// labeled counter) while other tenants keep opening sessions.
#[test]
fn tenant_session_quota_rejects_with_labeled_counter() {
    let config = ServerConfig {
        tenant_quotas: mhp_server::TenantQuotas {
            max_sessions: 2,
            max_bytes_per_sec: u64::MAX,
        },
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", config).unwrap();

    let mut holders = Vec::new();
    for name in ["acme/one", "acme/two"] {
        let mut client = Client::connect(server.local_addr()).unwrap();
        client
            .open_session(name, SessionConfig::default_multi_hash())
            .unwrap();
        holders.push(client);
    }
    let mut third = Client::connect(server.local_addr()).unwrap();
    match third.open_session("acme/three", SessionConfig::default_multi_hash()) {
        Err(ServerError::Remote { code, .. }) => assert_eq!(code, ErrorCode::QuotaExceeded),
        other => panic!("expected quota rejection, got {other:?}"),
    }
    // A different tenant is unaffected by acme's quota.
    third
        .open_session("beta/one", SessionConfig::default_multi_hash())
        .unwrap();

    let exposition = third.metrics().unwrap();
    assert!(
        exposition.contains("server_tenant_quota_rejections_total{tenant=\"acme\"} 1"),
        "missing quota counter in:\n{exposition}"
    );
    assert!(
        exposition.contains("server_tenant_sessions_opened_total{tenant=\"acme\"} 2"),
        "missing opened counter in:\n{exposition}"
    );
    assert!(
        exposition.contains("server_tenant_sessions_opened_total{tenant=\"beta\"} 1"),
        "missing beta counter in:\n{exposition}"
    );
    server.join();
}

/// Per-tenant ingest byte budget: a tiny token bucket rejects the second
/// chunk with `quota-exceeded`, and the rejection clears as the bucket
/// refills — the error is transient, not a dead end.
#[test]
fn tenant_byte_budget_throttles_and_recovers() {
    let config = ServerConfig {
        tenant_quotas: mhp_server::TenantQuotas {
            max_sessions: usize::MAX,
            // One 1k-event chunk (~6.7 KB varint-encoded) fits; two do
            // not.
            max_bytes_per_sec: 10_000,
        },
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", config).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client
        .open_session("acme/throttled", SessionConfig::default_multi_hash())
        .unwrap();

    let events = workload(3, 2_000);
    client.ingest(&events[..1_000]).unwrap();
    match client.ingest(&events[1_000..]) {
        Err(ServerError::Remote { code, .. }) => assert_eq!(code, ErrorCode::QuotaExceeded),
        other => panic!("expected throttle, got {other:?}"),
    }
    // The bucket refills continuously; within ~1s the same chunk goes
    // through.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        match client.ingest(&events[1_000..]) {
            Ok(_) => break,
            Err(ServerError::Remote {
                code: ErrorCode::QuotaExceeded,
                ..
            }) if std::time::Instant::now() < deadline => {
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
            other => panic!("throttle never cleared: {other:?}"),
        }
    }

    let exposition = client.metrics().unwrap();
    assert!(
        exposition.contains("server_tenant_quota_rejections_total{tenant=\"acme\"}"),
        "missing rejection counter in:\n{exposition}"
    );
    server.join();
}

/// Memory-budget eviction: with a tiny budget, idle sessions are
/// checkpointed and evicted LRU-first (counted per tenant), and a later
/// attach restores the evicted session transparently with its data
/// intact.
#[test]
fn idle_sessions_evict_under_memory_budget_and_restore_on_attach() {
    let dir = std::env::temp_dir().join(format!("mhp-evict-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServerConfig {
        state_dir: Some(dir.clone()),
        // Far below any engine's private profiler state: every idle
        // session is over budget.
        session_memory_budget: Some(1),
        // Keep the periodic checkpointer quiet; eviction checkpoints on
        // its own.
        checkpoint_interval: std::time::Duration::from_secs(3_600),
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", config).unwrap();

    let events = workload(11, 12_000);
    let expected_topk = {
        let mut client = Client::connect(server.local_addr()).unwrap();
        client
            .open_session("acme/evictee", SessionConfig::default_multi_hash())
            .unwrap();
        client.ingest(&events).unwrap();
        client.top_k(5).unwrap()
        // Dropping the connection releases the attachment; the session
        // becomes evictable.
    };

    // The sweep runs every ~100ms; wait for the eviction counter.
    let mut query = Client::connect(server.local_addr()).unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        let exposition = query.metrics().unwrap();
        if exposition.contains("server_tenant_evictions_total{tenant=\"acme\"}") {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "eviction never happened:\n{exposition}"
        );
        std::thread::sleep(std::time::Duration::from_millis(50));
    }

    // Attach restores the checkpointed session with its state intact.
    let mut back = Client::connect(server.local_addr()).unwrap();
    let info = back.attach("acme/evictee").unwrap();
    assert_eq!(info.events, 12_000);
    assert_eq!(back.top_k(5).unwrap(), expected_topk);
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A chunk with trailing garbage is rejected *before* anything reaches the
/// engine: the request fails with a protocol error, no event or counter
/// moves, and a retry with the clean chunk lands exactly once — the
/// half-ingested-then-rejected state would make every client retry a
/// double ingest.
#[test]
fn trailing_garbage_chunk_is_rejected_before_ingest() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let events = workload(3, 1_000);

    let mut client = Client::connect(server.local_addr()).unwrap();
    client
        .open_session("trailing", SessionConfig::default_multi_hash())
        .unwrap();

    let mut dirty = mhp_pipeline::encode_chunk(&events);
    dirty.extend_from_slice(b"trailing garbage");
    match client.ingest_chunk(dirty.clone()) {
        Err(ServerError::Remote { code, .. }) => assert_eq!(code, ErrorCode::BadRequest),
        other => panic!("expected a protocol rejection, got {other:?}"),
    }

    // Nothing was applied and nothing was counted: the engine and the
    // ingest counters agree the rejected chunk never happened.
    let stats = client.stats().unwrap();
    assert_eq!(stat_value(&stats, "events_ingested"), Some(0));
    assert_eq!(stat_value(&stats, "chunks_ingested"), Some(0));

    // The retry (the clean prefix of the same bytes) lands exactly once.
    let clean = mhp_pipeline::encode_chunk(&events);
    let (total, _intervals) = client.ingest_chunk(clean).unwrap();
    assert_eq!(total, 1_000, "retry after rejection must not double-ingest");

    // The sequenced path pre-checks identically.
    let (total, _intervals) = match client.ingest_seq(1, dirty) {
        Err(ServerError::Remote { code, .. }) => {
            assert_eq!(code, ErrorCode::BadRequest);
            client
                .ingest_seq(1, mhp_pipeline::encode_chunk(&events))
                .unwrap()
        }
        other => panic!("expected a protocol rejection, got {other:?}"),
    };
    assert_eq!(total, 2_000);

    client.close_session().unwrap();
    client.shutdown_server().unwrap();
    server.join();
}

/// Request tracing end to end on the threaded front end: the `traces`
/// query returns a summary for every stage of the taxonomy, the sampled
/// trace records carry every stage field, the stage histograms reach the
/// Prometheus exposition, and loadgen surfaces the per-stage breakdown.
#[test]
fn traces_expose_stage_quantiles_and_sampled_records() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let config = LoadgenConfig {
        clients: 4,
        events_per_client: 20_000,
        chunk_events: 2_048,
        session: SessionConfig::default_multi_hash(),
        session_prefix: "tr".to_string(),
    };
    let report = loadgen(server.local_addr(), &config).unwrap();
    assert_eq!(report.errors, 0);
    let stages = report.stages.as_ref().expect("server advertises tracing");
    assert!(
        stages.iter().any(|s| s.stage == "ingest" && s.count > 0),
        "loadgen picked up a populated ingest stage: {stages:?}"
    );
    assert!(report.render().contains("stage_ingest"));

    let mut client = Client::connect(server.local_addr()).unwrap();
    let traces = client.traces().unwrap();
    for stage in mhp_server::SERVER_STAGES {
        assert!(
            traces.contains(&format!("\"stage\":\"{stage}\"")),
            "missing stage summary for {stage}"
        );
    }
    assert!(traces.contains("\"stage\":\"total\""));
    let trace_lines: Vec<&str> = traces
        .lines()
        .filter(|l| l.contains("\"type\":\"trace\""))
        .collect();
    assert!(!trace_lines.is_empty(), "sampled traces present");
    for line in &trace_lines {
        for stage in mhp_server::SERVER_STAGES {
            assert!(
                line.contains(&format!("\"{stage}\":")),
                "trace line missing {stage}: {line}"
            );
        }
    }
    let parsed = mhp_server::parse_stage_latencies(&traces);
    assert!(parsed.iter().any(|s| s.stage == "ingest" && s.count > 0));

    let metrics = client.metrics().unwrap();
    for stage in mhp_server::SERVER_STAGES {
        assert!(
            metrics.contains(&format!("# TYPE server_stage_{stage}_us histogram")),
            "missing server_stage_{stage}_us exposition"
        );
    }
    assert!(stat_value(&metrics, "server_traces_total").unwrap() > 0);
    assert!(stat_value(&metrics, "server_trace_spans_recorded").unwrap() > 0);
    client.shutdown_server().unwrap();
    server.join();
}

/// A server that predates the `traces` opcode answers it with a
/// non-retryable bad-request error, and the loadgen stage probe degrades
/// to `stages: None` instead of failing the run.
#[test]
fn traces_query_against_older_server_degrades_gracefully() {
    use mhp_server::protocol::{read_frame, write_frame};
    use std::net::TcpListener;

    // Fake "older server": answers every frame the way the real request
    // decoder answers an unknown opcode — a BadRequest error response.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let old_server = std::thread::spawn(move || {
        // One connection is all the test sends.
        if let Some(stream) = listener.incoming().next() {
            let mut stream = stream.unwrap();
            while let Ok(Some(_body)) = read_frame(&mut stream) {
                let reply = mhp_server::Response::Error {
                    code: ErrorCode::BadRequest,
                    message: "unknown request opcode 0x0e".to_string(),
                }
                .encode();
                if write_frame(&mut stream, &reply).is_err() {
                    break;
                }
            }
        }
    });

    let mut client = Client::connect(addr).unwrap();
    match client.traces() {
        Err(ServerError::Remote { code, .. }) => assert_eq!(code, ErrorCode::BadRequest),
        other => panic!("expected remote BadRequest, got {other:?}"),
    }
    drop(client);
    old_server.join().unwrap();
}

/// One-shard sessions run inline and spawn no shard thread, however many
/// are open; a multi-shard session's workers show on the gauge while it
/// lives and are gone once it is closed.
#[test]
fn worker_thread_gauge_counts_only_multi_shard_workers() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let workers = |client: &mut Client| {
        stat_value(&client.metrics().unwrap(), "engine_worker_threads")
            .expect("engine_worker_threads is exported")
    };
    let mut client = Client::connect(server.local_addr()).unwrap();
    for i in 0..32 {
        client
            .open_session(&format!("idle-{i}"), SessionConfig::default_multi_hash())
            .unwrap();
        client.ingest(&workload(i, 1_000)).unwrap();
    }
    assert_eq!(workers(&mut client), 0, "inline sessions spawn no thread");

    let sharded = SessionConfig {
        shards: 4,
        ..SessionConfig::default_multi_hash()
    };
    client.open_session("sharded", sharded).unwrap();
    client.ingest(&workload(99, 5_000)).unwrap();
    assert_eq!(workers(&mut client), 4);
    client.close_session().unwrap();
    assert_eq!(workers(&mut client), 0, "close joins the workers");

    let metrics = client.metrics().unwrap();
    if cfg!(target_os = "linux") {
        assert!(stat_value(&metrics, "process_threads").unwrap() >= 1);
        assert!(stat_value(&metrics, "process_resident_bytes").unwrap() > 0);
    }
    client.shutdown_server().unwrap();
    server.wait();
}

/// Regression: with its stdout reader gone, the server binary used to
/// panic on its final "shut down cleanly" line and exit non-zero.
#[test]
fn server_binary_shuts_down_cleanly_with_stdout_closed() {
    use std::io::{BufRead, BufReader};
    use std::process::{Command, Stdio};

    let mut child = Command::new(env!("CARGO_BIN_EXE_mhp-server"))
        .args(["--addr", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let mut line = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut line)
        .unwrap();
    // The reader (and with it the pipe's only read end) is dropped here.
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected first line {line:?}"))
        .to_string();
    Client::connect(addr.as_str())
        .unwrap()
        .shutdown_server()
        .unwrap();
    let status = child.wait().unwrap();
    assert!(status.success(), "server exited with {status}");
}
