//! `perfbench` — the repository benchmark. It runs `mhp-server` (and, for
//! `fleet`, `mhp-agg`) as separate processes, drives them from a separate
//! generator process, measures them from outside, checks their answers,
//! and prints one JSON object as the last line of its output.
//!
//! ```text
//! perfbench --bin-dir DIR --workload stream|sessions|fleet --seed N
//!           --seconds S --trace 0|1
//! perfbench --bin-dir DIR spread --workload W --seeds A-B --seconds S
//!           [--trace 0|1]
//! perfbench gen ...            (the generator process; started by the above)
//! ```
//!
//! `--trace 0` reports the end-to-end metrics of an untraced run;
//! `--trace 1` runs the same workload with spans around every call the
//! benchmark makes into a layer, plus the in-process ladder, and reports
//! the per-layer metrics. `spread` runs a workload once per seed and
//! prints each metric's median and quartile spread.

mod gate;
mod gen;
mod ladder;
mod procs;
mod report;
mod spans;
mod stats;
mod system;
mod workload;

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::gen::{GenArgs, GenReport};
use crate::procs::ProcSample;
use crate::report::{Measured, Reading, RunFacts};
use crate::spans::Tracer;
use crate::system::System;
use crate::workload::{Inputs, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Quiet window after set-up in which the idle server is sampled.
const IDLE_WINDOW: Duration = Duration::from_secs(1);
/// Cadence of the thread-count sampler during the timed phase.
const SAMPLE_EVERY: Duration = Duration::from_millis(50);
/// A run that has not finished by then is killed, with every process it
/// started, and fails.
const WATCHDOG: Duration = Duration::from_secs(170);

/// Pids of every live child process, for the watchdog.
static CHILDREN: Mutex<Vec<u32>> = Mutex::new(Vec::new());

pub fn register_child(pid: u32) {
    CHILDREN.lock().expect("child registry poisoned").push(pid);
}

pub fn unregister_child(pid: u32) {
    CHILDREN
        .lock()
        .expect("child registry poisoned")
        .retain(|&p| p != pid);
}

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

fn start_watchdog() {
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("perfbench: run exceeded {WATCHDOG:?}; killing its processes");
        for &pid in CHILDREN.lock().expect("child registry poisoned").iter() {
            // SAFETY: kill(2) takes two integers and touches no memory of
            // ours; a pid that already exited makes it fail harmlessly.
            unsafe {
                kill(pid as i32, 9);
            }
        }
        std::process::exit(3);
    });
}

/// Command-line flags as `--name value` pairs.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut iter = args.iter();
        while let Some(flag) = iter.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
            let value = iter
                .next()
                .ok_or_else(|| format!("--{name} needs a value"))?;
            pairs.push((name.to_string(), value.clone()));
        }
        Ok(Flags(pairs))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn require(&self, name: &str) -> Result<&str, String> {
        self.get(name)
            .ok_or_else(|| format!("--{name} is required"))
    }

    fn number(&self, name: &str) -> Result<u64, String> {
        self.require(name)?
            .parse()
            .map_err(|_| format!("--{name} needs a whole number"))
    }

    fn check_known(&self, known: &[&str]) -> Result<(), String> {
        match self.0.iter().find(|(n, _)| !known.contains(&n.as_str())) {
            Some((n, _)) => Err(format!("unknown option --{n}")),
            None => Ok(()),
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("gen") => run_generator(&args[1..]),
        _ => {
            // `--bin-dir DIR` comes first, then an optional subcommand.
            let (bin_dir, rest) = match args.as_slice() {
                [flag, dir, rest @ ..] if flag == "--bin-dir" => (PathBuf::from(dir), rest),
                _ => (PathBuf::from(".bench_build/release"), &args[..]),
            };
            match rest.first().map(String::as_str) {
                Some("spread") => run_spread(&bin_dir, &rest[1..]),
                _ => run_benchmark(&bin_dir, rest),
            }
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run_generator(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    flags.check_known(&[
        "workload", "seed", "seconds", "trace", "server", "agg", "out-dir",
    ])?;
    gen::run(&GenArgs {
        workload: flags.require("workload")?.parse()?,
        seed: flags.number("seed")?,
        seconds: flags.number("seconds")?,
        trace: flags.number("trace")? == 1,
        server: flags.require("server")?,
        agg: flags.get("agg"),
        out_dir: Path::new(flags.require("out-dir")?),
    })
}

/// One benchmark run's settings.
struct RunArgs {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_run_args(flags: &Flags) -> Result<RunArgs, String> {
    let trace = match flags.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let seconds = flags.number("seconds")?;
    if !(1..=60).contains(&seconds) {
        return Err("--seconds must be 1..=60".into());
    }
    Ok(RunArgs {
        workload: flags.require("workload")?.parse()?,
        seed: flags.number("seed")?,
        seconds,
        trace,
    })
}

fn run_benchmark(bin_dir: &Path, args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    flags.check_known(&["workload", "seed", "seconds", "trace"])?;
    let run = parse_run_args(&flags)?;
    for exe in ["mhp-server", "mhp-agg"] {
        if !bin_dir.join(exe).is_file() {
            return Err(format!(
                "{} is missing; build the workspace first",
                bin_dir.join(exe).display()
            ));
        }
    }
    start_watchdog();
    let run_dir = PathBuf::from(".bench_run").join(run.workload.to_string());
    let _ = std::fs::remove_dir_all(&run_dir);
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("create {}: {e}", run_dir.display()))?;

    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch, 1 << 50);
    tracer.set_enabled(run.trace);

    // Inputs first: they are neither timed nor part of set-up.
    let inputs = Inputs::generate(run.workload, run.seed);
    phase(epoch, "inputs generated");

    // Set up several times; keep the last system for the timed phase.
    let mut setups = Vec::new();
    let system = loop {
        let tag = format!("setup{}", setups.len());
        let (sys, seconds) = system::setup(&inputs, bin_dir, &run_dir, &tag, &mut tracer)?;
        setups.push(seconds);
        if setups.len() == SETUPS {
            break sys;
        }
        sys.stop()?;
    };

    system::warm_up(&inputs, &system)?;
    phase(epoch, "set-ups and warm-up done");
    let idle = if run.trace {
        Some(idle_window(&system)?)
    } else {
        None
    };
    let timed = timed_phase(&run, &system, &run_dir)?;
    let report = timed.report;
    phase(epoch, "timed phase done");

    let gate = gate::check(&inputs, &report.applied, &system)?;
    if !gate.mismatches.is_empty() {
        for m in &gate.mismatches {
            eprintln!("perfbench: MISMATCH {m}");
        }
        system.stop()?;
        return Err(format!(
            "correctness gate failed with {} mismatch(es)",
            gate.mismatches.len()
        ));
    }
    phase(epoch, "correctness gate passed");

    let mut facts = RunFacts {
        workload: run.workload,
        seconds: run.seconds,
        setups,
        gen: report,
        gate,
        before: timed.before,
        after: timed.after,
        peak_threads: timed.peak_threads,
        peak_server_threads: timed.peak_server_threads,
        timeline: timed.timeline,
        session_tenants: inputs
            .active
            .iter()
            .map(|s| s.tenant().to_string())
            .collect(),
        idle,
        agg_metrics: None,
        agg_uptime_s: 0.0,
        gen_spans: Vec::new(),
        bench_spans: Vec::new(),
        ladder: None,
    };
    if run.trace {
        if let Some(agg) = &system.agg {
            let mut client = mhp_server::Client::connect(agg.addr.as_str())
                .map_err(|e| format!("scrape aggregator: {e}"))?;
            facts.agg_metrics = Some(
                client
                    .metrics()
                    .map_err(|e| format!("scrape aggregator: {e}"))?,
            );
            facts.agg_uptime_s = agg.started.elapsed().as_secs_f64();
        }
        let text = std::fs::read_to_string(run_dir.join("gen.spans"))
            .map_err(|e| format!("read generator spans: {e}"))?;
        facts.gen_spans = spans::parse(&text)?;
    }
    system.stop()?;
    if run.trace {
        facts.ladder = Some(ladder::run(
            &inputs,
            &facts.gen.applied,
            &facts.gate.replays,
            &mut tracer,
        )?);
        facts.bench_spans = tracer.into_spans();
        std::fs::write(
            run_dir.join("bench.spans"),
            spans::render(&facts.bench_spans),
        )
        .map_err(|e| format!("write spans: {e}"))?;
    }

    let measured = if run.trace {
        report::per_layer(&facts)?
    } else {
        report::end_to_end(&facts)?
    };
    print_result(&measured);
    Ok(())
}

fn phase(epoch: Instant, what: &str) {
    eprintln!(
        "perfbench: {:>7.2} s  {what}",
        epoch.elapsed().as_secs_f64()
    );
}

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
}

/// Linux's `SCHED_IDLE` scheduling policy.
const SCHED_IDLE: i32 = 5;

/// Starts one spinner per CPU that runs only when nothing else on its CPU
/// wants to (`SCHED_IDLE`), until `stop` is set; the benchmark runs them
/// through paced load (the generator says `paced`: `fleet`). On a virtual
/// machine a CPU with nothing to run halts, and waking it again waits for
/// the hypervisor; without the spinners that wait (measured as steal:
/// 4–24 % of CPU time in `fleet` runs) dominated every latency of paced
/// load. With them a woken thread preempts a spinner at once, as on a
/// machine of its own. (Closed loops never leave a CPU idle, and spinners
/// there cost 15 % of throughput, so they are not run there.)
fn spin_while_idle<'scope>(
    scope: &'scope std::thread::Scope<'scope, '_>,
    stop: &'scope AtomicBool,
) {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    for _ in 0..cpus {
        scope.spawn(move || {
            // sched_priority, the only field of sched_param
            let param = 0i32;
            // SAFETY: pid 0 is the calling thread, and `param` is a live
            // `struct sched_param` for the duration of the call.
            if unsafe { sched_setscheduler(0, SCHED_IDLE, &param) } != 0 {
                return; // not allowed here: run without spinners
            }
            while !stop.load(Ordering::Relaxed) {
                std::hint::spin_loop();
            }
        });
    }
}

/// Context switches and CPU of the idle server, after set-up.
#[derive(Debug, Clone, Copy)]
pub struct IdleWindow {
    pub wakeups_per_s: f64,
    pub cpu_s_per_s: f64,
}

fn idle_window(system: &System) -> Result<IdleWindow, String> {
    let server = &system.server;
    let (switches0, cpu0, t0) = (
        server.context_switches()?,
        server.sample()?.cpu_s,
        Instant::now(),
    );
    std::thread::sleep(IDLE_WINDOW);
    let (switches1, cpu1) = (server.context_switches()?, server.sample()?.cpu_s);
    let secs = t0.elapsed().as_secs_f64();
    Ok(IdleWindow {
        wakeups_per_s: switches1.saturating_sub(switches0) as f64 / secs,
        cpu_s_per_s: (cpu1 - cpu0) / secs,
    })
}

struct TimedPhase {
    report: GenReport,
    /// Per system process, at the start and end of the timed phase.
    before: Vec<ProcSample>,
    after: Vec<ProcSample>,
    peak_threads: u64,
    peak_server_threads: u64,
    /// Readings of the system processes through the timed phase.
    timeline: Vec<Reading>,
}

/// Starts the generator process and samples the system processes while
/// it runs.
fn timed_phase(run: &RunArgs, system: &System, run_dir: &Path) -> Result<TimedPhase, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate perfbench: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("gen")
        .args(["--workload", &run.workload.to_string()])
        .args(["--seed", &run.seed.to_string()])
        .args(["--seconds", &run.seconds.to_string()])
        .args(["--trace", if run.trace { "1" } else { "0" }])
        .args(["--server", &system.server.addr])
        .args(["--out-dir", &run_dir.to_string_lossy()]);
    if let Some(agg) = &system.agg {
        cmd.args(["--agg", &agg.addr]);
    }
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("start generator: {e}"))?;
    register_child(child.id());
    let sample_all =
        || -> Result<Vec<ProcSample>, String> { system.processes().map(|p| p.sample()).collect() };
    let mut lines = BufReader::new(child.stdout.take().expect("piped stdout")).lines();
    let mut next_line = || match lines.next() {
        Some(Ok(line)) => Ok(line),
        other => Err(format!("generator stopped talking: {other:?}")),
    };
    let result = (|| {
        let said = next_line()?;
        if said != "start" {
            return Err(format!("generator said {said:?}, expected \"start\""));
        }
        let steal_before = procs::steal_ticks().unwrap_or_default();
        let before = sample_all()?;
        let began = Instant::now();
        let stop = AtomicBool::new(false);
        let (peak_threads, peak_server_threads, mut timeline) = std::thread::scope(|scope| {
            let sampler = scope.spawn(|| {
                let (mut all, mut server) = (0, 0);
                let mut timeline = vec![Reading::of(0.0, &before)];
                while !stop.load(Ordering::SeqCst) {
                    std::thread::sleep(SAMPLE_EVERY);
                    if let Ok(samples) = sample_all() {
                        all = all.max(samples.iter().map(|s| s.threads).sum());
                        server = server.max(samples[0].threads);
                        timeline.push(Reading::of(began.elapsed().as_secs_f64(), &samples));
                    }
                }
                (all, server, timeline)
            });
            // Paced load leaves CPUs idle: keep them from halting.
            let mut said = next_line();
            if said.as_deref() == Ok("paced") {
                spin_while_idle(scope, &stop);
                said = next_line();
            }
            let said = match said {
                Ok(line) if line == "end" => Ok(()),
                other => Err(format!("generator said {other:?}, expected \"end\"")),
            };
            stop.store(true, Ordering::SeqCst);
            let sampled = sampler.join().expect("sampler panicked");
            said.map(|()| sampled)
        })?;
        let after = sample_all()?;
        timeline.push(Reading::of(began.elapsed().as_secs_f64(), &after));
        let steal_after = procs::steal_ticks().unwrap_or_default();
        let (steal, total) = (
            steal_after.0 - steal_before.0,
            steal_after.1 - steal_before.1,
        );
        eprintln!(
            "perfbench: the hypervisor stole {:.2} % of this machine's CPU time during the timed phase",
            100.0 * steal as f64 / total.max(1) as f64
        );
        Ok::<_, String>((before, after, peak_threads, peak_server_threads, timeline))
    })();
    let status = child
        .wait()
        .map_err(|e| format!("wait for generator: {e}"))?;
    unregister_child(child.id());
    let (before, after, peak_threads, peak_server_threads, timeline) = result?;
    if !status.success() {
        return Err(format!("generator exited with {status}"));
    }
    let text = std::fs::read_to_string(run_dir.join("gen.records"))
        .map_err(|e| format!("read generator records: {e}"))?;
    Ok(TimedPhase {
        report: GenReport::parse(&text)?,
        before,
        after,
        peak_threads,
        peak_server_threads,
        timeline,
    })
}

fn print_result(measured: &Measured) {
    for line in measured.table() {
        println!("{line}");
    }
    println!("{}", measured.json());
}

/// Runs the benchmark once per seed and prints each metric's median and
/// its quartile spread (IQR over median) across the runs.
fn run_spread(bin_dir: &Path, args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    flags.check_known(&["workload", "seeds", "seconds", "trace"])?;
    let seeds = flags.require("seeds")?;
    let (lo, hi) = seeds
        .split_once('-')
        .and_then(|(a, b)| Some((a.parse::<u64>().ok()?, b.parse::<u64>().ok()?)))
        .ok_or("--seeds needs A-B")?;
    let exe = std::env::current_exe().map_err(|e| format!("locate perfbench: {e}"))?;
    let mut runs: Vec<Vec<(String, f64)>> = Vec::new();
    for seed in lo..=hi {
        let output = Command::new(&exe)
            .arg("--bin-dir")
            .arg(bin_dir)
            .args(["--workload", flags.require("workload")?])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", flags.require("seconds")?])
            .args(["--trace", flags.get("trace").unwrap_or("0")])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("run seed {seed}: {e}"))?;
        if !output.status.success() {
            return Err(format!("seed {seed} failed with {}", output.status));
        }
        let stdout = String::from_utf8_lossy(&output.stdout);
        let last = stdout.lines().last().unwrap_or_default();
        let metrics =
            report::parse_metrics(last).ok_or_else(|| format!("seed {seed}: no result line"))?;
        eprintln!("seed {seed}: {last}");
        runs.push(metrics);
    }
    let names: Vec<String> = runs
        .first()
        .map(|r| r.iter().map(|(n, _)| n.clone()).collect())
        .unwrap_or_default();
    println!("{:<32} {:>14} {:>9}  values", "metric", "median", "spread");
    for name in names {
        let values: Vec<f64> = runs
            .iter()
            .filter_map(|r| r.iter().find(|(n, _)| *n == name).map(|(_, v)| *v))
            .collect();
        let med = stats::median(&values).unwrap_or(f64::NAN);
        let spread = stats::spread(&values).map_or("-".to_string(), |s| format!("{:.4}", s));
        let shown: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
        println!("{name:<32} {med:>14.4} {spread:>9}  {}", shown.join(" "));
    }
    Ok(())
}
