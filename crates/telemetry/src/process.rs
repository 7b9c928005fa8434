//! Process-resource gauges, read from `/proc/self/status` when scraped.
//!
//! [`ProcessGauges`] registers `process_threads` (OS threads in this
//! process) and `process_resident_bytes` (resident set size) on a
//! [`Registry`]. They are levels of the whole process, not of any one
//! component, so they are refreshed just before rendering rather than
//! updated as work happens. Where `/proc/self/status` cannot be read (any
//! platform but Linux) nothing is registered and the metrics are omitted.

use crate::registry::{Gauge, Registry};

/// The `process_*` gauges on a registry; see the module docs.
#[derive(Debug, Clone)]
pub struct ProcessGauges {
    threads: Gauge,
    resident_bytes: Gauge,
}

impl ProcessGauges {
    /// Registers the gauges on `registry` and fills them, or returns `None`
    /// (registering nothing) when the process status cannot be read.
    pub fn register(registry: &Registry) -> Option<Self> {
        let status = read_status()?;
        let gauges = ProcessGauges {
            threads: registry.gauge("process_threads"),
            resident_bytes: registry.gauge("process_resident_bytes"),
        };
        gauges.store(status);
        Some(gauges)
    }

    /// Re-reads the process status into the gauges; call it right before
    /// rendering the registry. A failed read leaves the last values.
    pub fn refresh(&self) {
        if let Some(status) = read_status() {
            self.store(status);
        }
    }

    fn store(&self, status: ProcessStatus) {
        self.threads.set(status.threads);
        self.resident_bytes.set(status.resident_bytes);
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ProcessStatus {
    threads: u64,
    resident_bytes: u64,
}

fn read_status() -> Option<ProcessStatus> {
    parse_status(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// Picks `Threads:` and `VmRSS:` (reported in kB) out of a
/// `/proc/<pid>/status` text.
fn parse_status(text: &str) -> Option<ProcessStatus> {
    let field = |name: &str| -> Option<u64> {
        let line = text.lines().find_map(|line| line.strip_prefix(name))?;
        line.split_whitespace().next()?.parse().ok()
    };
    Some(ProcessStatus {
        threads: field("Threads:")?,
        resident_bytes: field("VmRSS:")?.checked_mul(1024)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_threads_and_resident_set() {
        let text = "Name:\tmhp-server\nVmHWM:\t  9000 kB\nVmRSS:\t  8192 kB\n\
                    Threads:\t5\nSigQ:\t0/63\n";
        assert_eq!(
            parse_status(text),
            Some(ProcessStatus {
                threads: 5,
                resident_bytes: 8192 * 1024,
            })
        );
        assert_eq!(parse_status("Threads:\t5\n"), None);
        assert_eq!(parse_status("VmRSS:\tlots kB\nThreads:\t5\n"), None);
    }

    #[test]
    fn registered_gauges_track_this_process() {
        let registry = Registry::new();
        match ProcessGauges::register(&registry) {
            Some(gauges) => {
                gauges.refresh();
                let text = registry.render_prometheus();
                let threads = crate::stat_value(&text, "process_threads").unwrap();
                assert!(threads >= 1);
                assert!(crate::stat_value(&text, "process_resident_bytes").unwrap() > 0);
            }
            None => assert!(!registry.render_prometheus().contains("process_")),
        }
    }
}
