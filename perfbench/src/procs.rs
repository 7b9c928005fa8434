//! Reads a process's resource use from outside it, through `/proc`.

use std::fs;
use std::io;

/// One reading of a process.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProcSample {
    /// User plus system CPU time, in seconds.
    pub cpu_s: f64,
    /// OS threads (`num_threads`).
    pub threads: u64,
    /// Peak resident set size (`VmHWM`), in KiB.
    pub vm_hwm_kb: u64,
}

extern "C" {
    fn sysconf(name: i32) -> i64;
}

/// `_SC_CLK_TCK` on Linux.
const SC_CLK_TCK: i32 = 2;

fn clock_ticks_per_s() -> f64 {
    // SAFETY: sysconf takes a plain integer selector, touches no memory we
    // own, and returns -1 for an unknown selector, which is handled below.
    let ticks = unsafe { sysconf(SC_CLK_TCK) };
    if ticks > 0 {
        ticks as f64
    } else {
        100.0
    }
}

/// Reads `/proc/<pid>/stat` and `/proc/<pid>/status`.
pub fn sample(pid: u32) -> io::Result<ProcSample> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat"))?;
    let (cpu_ticks, threads) = parse_stat(&stat)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "unparsable /proc stat"))?;
    let status = fs::read_to_string(format!("/proc/{pid}/status"))?;
    Ok(ProcSample {
        cpu_s: cpu_ticks as f64 / clock_ticks_per_s(),
        threads,
        vm_hwm_kb: status_field(&status, "VmHWM:").unwrap_or(0),
    })
}

/// `(utime + stime in ticks, num_threads)` from a `stat` line. The
/// command name in parentheses may itself hold spaces or parentheses, so
/// fields are counted from the last `)`.
fn parse_stat(stat: &str) -> Option<(u64, u64)> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // Fields after the name start at field 3 (state); utime is field 14,
    // stime 15 and num_threads 20.
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |n: usize| fields.get(n - 3)?.parse::<u64>().ok();
    Some((field(14)? + field(15)?, field(20)?))
}

fn status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix(key))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Voluntary plus involuntary context switches summed over the
/// process's live threads (`/proc/<pid>/task/*/status`).
pub fn context_switches(pid: u32) -> io::Result<u64> {
    let mut total = 0;
    for entry in fs::read_dir(format!("/proc/{pid}/task"))? {
        let Ok(status) = fs::read_to_string(entry?.path().join("status")) else {
            continue; // the thread exited between listing and reading
        };
        total += status_field(&status, "voluntary_ctxt_switches:").unwrap_or(0);
        total += status_field(&status, "nonvoluntary_ctxt_switches:").unwrap_or(0);
    }
    Ok(total)
}

/// `(steal, total)` CPU ticks of the whole machine since boot, from
/// `/proc/stat`: time the hypervisor ran something else while this
/// machine's CPUs had work.
pub fn steal_ticks() -> io::Result<(u64, u64)> {
    let stat = fs::read_to_string("/proc/stat")?;
    let line = stat.lines().next().unwrap_or_default();
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    Ok((
        ticks.get(7).copied().unwrap_or(0),
        ticks.iter().take(8).sum(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_from_the_last_paren() {
        let line = "4242 (mhp (x) srv) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 17 0 99 0 0";
        assert_eq!(parse_stat(line), Some((300, 17)));
    }

    #[test]
    fn reads_this_process() {
        let me = sample(std::process::id()).unwrap();
        assert!(me.threads >= 1);
        assert!(me.vm_hwm_kb > 0);
        assert!(context_switches(std::process::id()).is_ok());
        let (steal, total) = steal_ticks().unwrap();
        assert!(steal <= total && total > 0);
    }
}
