//! `mhp-server` — serve the profiling service over TCP.
//!
//! ```text
//! mhp-server --addr 127.0.0.1:7070 [--max-conns 32] [--read-timeout-ms 200]
//!            [--write-timeout-ms 30000] [--event-loop] [--workers N]
//!            [--metrics-export PATH] [--metrics-export-interval-ms 10000]
//!            [--state-dir DIR] [--checkpoint-interval-ms 5000]
//!            [--overload-conns N] [--fault-plan SPEC] [--fault-seed N]
//! ```
//!
//! Prints `listening on ADDR` once bound (an ephemeral `:0` port resolves
//! to the real one), then serves until a client sends `shutdown`. With
//! `--state-dir`, sessions are checkpointed there periodically and
//! restored on the next start (`restored N session(s)` is printed).

use std::io::Write;
use std::process::ExitCode;
use std::time::Duration;

use mhp_faults::FaultPlan;
use mhp_server::{Server, ServerConfig};

const USAGE: &str = "\
usage: mhp-server [options]

options:
  --addr A             listen address (default 127.0.0.1:7070; use :0 for
                       an ephemeral port)
  --max-conns N        concurrent connection limit (default 32 threaded,
                       10000 with --event-loop)
  --read-timeout-ms N  per-connection read timeout (default 200)
  --write-timeout-ms N per-connection write timeout in threaded mode
                       (default 30000); the event loop bounds writes with
                       its write buffer instead
  --event-loop         serve every connection from one readiness-based
                       reactor thread plus a small worker pool instead of
                       one thread per connection; required for thousands
                       of concurrent clients
  --workers N          sketch worker threads for --event-loop (default 2)
  --metrics-export P   append periodic JSONL metric snapshots to file P
                       (off by default; a final snapshot is written at
                       shutdown)
  --metrics-export-interval-ms N
                       snapshot period when --metrics-export is set
                       (default 10000)
  --state-dir D        checkpoint sessions to directory D and restore any
                       checkpoints found there on start (off by default)
  --checkpoint-interval-ms N
                       checkpoint period when --state-dir is set
                       (default 5000)
  --overload-conns N   shed ingest with a typed `overloaded` error once
                       more than N connections are live (default: never)
  --tenant-max-sessions N
                       live sessions one tenant (session-name prefix
                       before the first '/') may hold at once; opens past
                       it get a typed `quota-exceeded` error
                       (default: unlimited)
  --tenant-bytes-per-sec N
                       sustained ingest budget per tenant in bytes/s,
                       enforced as a token bucket with one second of
                       burst (default: unlimited)
  --memory-budget N    estimated session-memory ceiling in bytes; idle
                       sessions are checkpointed (with --state-dir) and
                       evicted, least recently used first, to stay under
                       it (default: never evict)
  --fault-plan SPEC    arm a deterministic fault plan for chaos testing,
                       e.g. conn-drop@3,corrupt-chunk@2 (kinds:
                       worker-panic, worker-stall, truncate-frame,
                       corrupt-chunk, conn-drop, slow-consumer)
  --fault-seed N       seed for the fault plan's randomness (default 0)";

fn run(args: &[String]) -> Result<(), String> {
    let mut addr = "127.0.0.1:7070".to_string();
    let mut config = ServerConfig::default();
    let mut fault_plan: Option<String> = None;
    let mut fault_seed = 0u64;
    let mut event_loop = false;
    let mut workers: Option<usize> = None;
    let mut max_conns_set = false;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| -> Result<String, String> {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("--{name} needs a value"))
        };
        match flag.as_str() {
            "--addr" => addr = value("addr")?,
            "--max-conns" => {
                config.max_connections = value("max-conns")?
                    .parse()
                    .map_err(|_| "--max-conns needs a number".to_string())?;
                max_conns_set = true;
            }
            "--read-timeout-ms" => {
                let ms: u64 = value("read-timeout-ms")?
                    .parse()
                    .map_err(|_| "--read-timeout-ms needs a number".to_string())?;
                config.read_timeout = Duration::from_millis(ms.max(1));
            }
            "--write-timeout-ms" => {
                let ms: u64 = value("write-timeout-ms")?
                    .parse()
                    .map_err(|_| "--write-timeout-ms needs a number".to_string())?;
                config.write_timeout = Duration::from_millis(ms.max(1));
            }
            "--event-loop" => event_loop = true,
            "--workers" => {
                workers = Some(
                    value("workers")?
                        .parse()
                        .map_err(|_| "--workers needs a number".to_string())?,
                );
            }
            "--metrics-export" => {
                config.metrics_export_path = Some(value("metrics-export")?.into());
            }
            "--metrics-export-interval-ms" => {
                let ms: u64 = value("metrics-export-interval-ms")?
                    .parse()
                    .map_err(|_| "--metrics-export-interval-ms needs a number".to_string())?;
                config.metrics_export_interval = Duration::from_millis(ms.max(1));
            }
            "--state-dir" => {
                config.state_dir = Some(value("state-dir")?.into());
            }
            "--checkpoint-interval-ms" => {
                let ms: u64 = value("checkpoint-interval-ms")?
                    .parse()
                    .map_err(|_| "--checkpoint-interval-ms needs a number".to_string())?;
                config.checkpoint_interval = Duration::from_millis(ms.max(1));
            }
            "--overload-conns" => {
                config.overload_connection_watermark = value("overload-conns")?
                    .parse()
                    .map_err(|_| "--overload-conns needs a number".to_string())?;
            }
            "--tenant-max-sessions" => {
                config.tenant_quotas.max_sessions = value("tenant-max-sessions")?
                    .parse()
                    .map_err(|_| "--tenant-max-sessions needs a number".to_string())?;
            }
            "--tenant-bytes-per-sec" => {
                config.tenant_quotas.max_bytes_per_sec = value("tenant-bytes-per-sec")?
                    .parse()
                    .map_err(|_| "--tenant-bytes-per-sec needs a number".to_string())?;
            }
            "--memory-budget" => {
                config.session_memory_budget = Some(
                    value("memory-budget")?
                        .parse()
                        .map_err(|_| "--memory-budget needs a number".to_string())?,
                );
            }
            "--fault-plan" => fault_plan = Some(value("fault-plan")?),
            "--fault-seed" => {
                fault_seed = value("fault-seed")?
                    .parse()
                    .map_err(|_| "--fault-seed needs a number".to_string())?;
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    if let Some(spec) = fault_plan {
        let plan = FaultPlan::parse(&spec, fault_seed).map_err(|e| e.to_string())?;
        config.fault_hook = Some(plan.arm());
    }
    if event_loop {
        let mut el = mhp_server::EventLoopConfig::default();
        if let Some(n) = workers {
            el.workers = n.max(1);
        }
        config.event_loop = Some(el);
        // One reactor thread holds every socket, so the sensible default
        // ceiling is "lots", not the threaded mode's thread-count guard.
        if !max_conns_set {
            config.max_connections = 10_000;
        }
    } else if workers.is_some() {
        return Err("--workers only applies with --event-loop".to_string());
    }

    let server = Server::bind(addr.as_str(), config).map_err(|e| e.to_string())?;
    // The smoke scripts scrape this exact line for the resolved port.
    say(format_args!("listening on {}", server.local_addr()));
    if server.restored_sessions() > 0 {
        say(format_args!(
            "restored {} session(s)",
            server.restored_sessions()
        ));
    }
    server.wait();
    say(format_args!("shut down cleanly"));
    Ok(())
}

/// Writes one status line to stdout. Once the server is up, its stdout
/// reader may be gone (a closed pipe): a failed write is ignored, where
/// `println!` would panic and turn a clean shutdown into a failure.
fn say(line: std::fmt::Arguments<'_>) {
    let _ = writeln!(std::io::stdout().lock(), "{line}");
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("mhp-server: {msg}");
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}
