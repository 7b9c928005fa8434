//! The system under test as separate processes: `mhp-server` with its
//! default configuration and, for `fleet`, one `mhp-agg` with default
//! settings pulling from it. Each process's stdout and stderr go to a
//! file of its own; a process that exits non-zero or panics fails the
//! run.

use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use mhp_agg::CUMULATIVE_SUFFIX;
use mhp_server::Client;

use crate::procs::{self, ProcSample};
use crate::spans::Tracer;
use crate::workload::{session_config, Inputs, Workload};

/// How long a process may take to print its address, or to exit after
/// being asked to shut down.
const START_TIMEOUT: Duration = Duration::from_secs(20);
const EXIT_TIMEOUT: Duration = Duration::from_secs(30);
/// How long warm-up waits for the aggregator to list every tenant.
const AGG_WARM_TIMEOUT: Duration = Duration::from_secs(20);
/// How long warm-up then leaves the aggregator to pull the last warm-up
/// intervals: five of `mhp-agg`'s default 200 ms pull cycles.
const AGG_SETTLE: Duration = Duration::from_secs(1);

/// One running system process. Dropping it kills the process if it has
/// not been shut down, so no process outlives the benchmark.
#[derive(Debug)]
pub struct SysProc {
    pub name: &'static str,
    pub pid: u32,
    pub addr: String,
    pub started: Instant,
    child: Option<Child>,
    err_path: PathBuf,
}

impl SysProc {
    /// Starts `exe` and waits until its stdout has a line starting with
    /// `ready` followed by the address it listens on.
    fn spawn(
        name: &'static str,
        exe: &Path,
        args: &[&str],
        log_dir: &Path,
        tag: &str,
        ready: &str,
    ) -> Result<SysProc, String> {
        let out_path = log_dir.join(format!("{tag}-{name}.out"));
        let err_path = log_dir.join(format!("{tag}-{name}.err"));
        let file = |p: &Path| File::create(p).map_err(|e| format!("create {}: {e}", p.display()));
        let child = Command::new(exe)
            .args(args)
            .stdin(Stdio::null())
            .stdout(file(&out_path)?)
            .stderr(file(&err_path)?)
            .spawn()
            .map_err(|e| format!("start {}: {e}", exe.display()))?;
        crate::register_child(child.id());
        let mut proc = SysProc {
            name,
            pid: child.id(),
            addr: String::new(),
            started: Instant::now(),
            child: Some(child),
            err_path,
        };
        loop {
            let out = std::fs::read_to_string(&out_path).unwrap_or_default();
            if let Some(addr) = out.lines().find_map(|l| l.strip_prefix(ready)) {
                proc.addr = addr.trim().to_string();
                return Ok(proc);
            }
            let child = proc.child.as_mut().expect("child is live until shutdown");
            if let Ok(Some(status)) = child.try_wait() {
                return Err(format!(
                    "{name} exited during start ({status}): {}",
                    proc.stderr()
                ));
            }
            if proc.started.elapsed() > START_TIMEOUT {
                return Err(format!("{name} did not start within {START_TIMEOUT:?}"));
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    fn stderr(&self) -> String {
        std::fs::read_to_string(&self.err_path).unwrap_or_default()
    }

    pub fn sample(&self) -> Result<ProcSample, String> {
        procs::sample(self.pid).map_err(|e| format!("read /proc of {}: {e}", self.name))
    }

    pub fn context_switches(&self) -> Result<u64, String> {
        procs::context_switches(self.pid).map_err(|e| format!("read /proc of {}: {e}", self.name))
    }

    /// Asks the process to shut down over its own protocol and checks it
    /// exits 0 without a panic.
    fn shutdown(mut self) -> Result<(), String> {
        let mut child = self.child.take().expect("shut down once");
        let result = self.wait_for_exit(&mut child);
        crate::unregister_child(self.pid);
        result
    }

    fn wait_for_exit(&self, child: &mut Child) -> Result<(), String> {
        let asked = Client::connect(self.addr.as_str()).and_then(|mut c| c.shutdown_server());
        if let Err(e) = asked {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("{} refused shutdown: {e}", self.name));
        }
        let started = Instant::now();
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if started.elapsed() < EXIT_TIMEOUT => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!(
                        "{} did not exit within {EXIT_TIMEOUT:?}",
                        self.name
                    ));
                }
            }
        };
        let stderr = self.stderr();
        if !status.success() || stderr.contains("panicked") {
            return Err(format!("{} exited with {status}: {stderr}", self.name));
        }
        Ok(())
    }
}

impl Drop for SysProc {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
            crate::unregister_child(self.pid);
        }
    }
}

/// The running system.
#[derive(Debug)]
pub struct System {
    pub server: SysProc,
    pub agg: Option<SysProc>,
}

impl System {
    pub fn processes(&self) -> impl Iterator<Item = &SysProc> {
        std::iter::once(&self.server).chain(self.agg.as_ref())
    }

    /// Shuts the aggregator down first, then the server.
    pub fn stop(self) -> Result<(), String> {
        let System { server, agg } = self;
        let agg_result = agg.map_or(Ok(()), SysProc::shutdown);
        let server_result = server.shutdown();
        agg_result.and(server_result)
    }
}

/// Starts the system, opens every session and acks its first chunk.
/// Returns the system and the set-up time: from starting the first
/// process until every session is open and the first ack has arrived.
/// `tracer` records one `server.open_session` span per session opened.
pub fn setup(
    inputs: &Inputs,
    bin_dir: &Path,
    log_dir: &Path,
    tag: &str,
    tracer: &mut Tracer,
) -> Result<(System, f64), String> {
    let started = Instant::now();
    let server = SysProc::spawn(
        "server",
        &bin_dir.join("mhp-server"),
        &["--addr", "127.0.0.1:0"],
        log_dir,
        tag,
        "listening on ",
    )?;
    let agg = match inputs.workload {
        Workload::Fleet => Some(SysProc::spawn(
            "agg",
            &bin_dir.join("mhp-agg"),
            &["serve", "--addr", "127.0.0.1:0", "--upstream", &server.addr],
            log_dir,
            tag,
            "aggregating on ",
        )?),
        _ => None,
    };
    let system = System { server, agg };
    let fail = |what: &str, e: mhp_server::ServerError| format!("set-up: {what}: {e}");
    let mut client =
        Client::connect(system.server.addr.as_str()).map_err(|e| fail("connect", e))?;
    let config = session_config();
    let mut open = |client: &mut Client, name: &str, chunk: &[u8]| -> Result<(), String> {
        let span = tracer.begin("server.open_session", None, 0);
        client
            .open_session(name, config.clone())
            .map_err(|e| fail(name, e))?;
        tracer.end(span);
        client
            .ingest_chunk(chunk.to_vec())
            .map_err(|e| fail(name, e))?;
        Ok(())
    };
    for (name, tenant) in &inputs.idle {
        open(&mut client, name, &inputs.idle_chunks[*tenant])?;
    }
    for input in &inputs.active {
        open(&mut client, &input.name, input.chunk(0))?;
    }
    let setup_s = started.elapsed().as_secs_f64();
    Ok((system, setup_s))
}

/// Brings the system that set-up kept to where the timed phase starts,
/// outside the set-up time: the rest of the set-up chunks, and for
/// `fleet` a wait until the aggregator lists every tenant, then
/// [`AGG_SETTLE`] for it to pull what is left.
pub fn warm_up(inputs: &Inputs, system: &System) -> Result<(), String> {
    let fail = |what: &str, e: mhp_server::ServerError| format!("warm-up: {what}: {e}");
    let mut client =
        Client::connect(system.server.addr.as_str()).map_err(|e| fail("connect", e))?;
    for input in &inputs.active {
        client.attach(&input.name).map_err(|e| fail("attach", e))?;
        for seq in 1..inputs.workload.setup_chunks() as u64 {
            client
                .ingest_chunk(input.chunk(seq).to_vec())
                .map_err(|e| fail(&input.name, e))?;
        }
    }
    if let Some(agg) = &system.agg {
        let tenants = inputs.active_tenants();
        let mut reader =
            Client::connect(agg.addr.as_str()).map_err(|e| fail("connect aggregator", e))?;
        let waited = Instant::now();
        loop {
            let listed = reader
                .list_sessions()
                .map_err(|e| fail("list aggregator", e))?;
            let seen = tenants.iter().all(|t| {
                listed
                    .iter()
                    .any(|s| s.name == format!("{t}{CUMULATIVE_SUFFIX}"))
            });
            if seen {
                break;
            }
            if waited.elapsed() > AGG_WARM_TIMEOUT {
                return Err("warm-up: the aggregator never listed every tenant".into());
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        std::thread::sleep(AGG_SETTLE);
    }
    Ok(())
}
