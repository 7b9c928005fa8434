//! Server metrics, built on the shared `mhp-telemetry` registry.
//!
//! Every counter, gauge and latency histogram the server maintains lives
//! on one [`Registry`], under Prometheus-style names (`server_*`). The
//! same registry also carries the engine (`engine_*`) and sketch
//! (`sketch_*`) metrics that sessions report, so one
//! [`render_prometheus`](Registry::render_prometheus) call — the `metrics`
//! query — exposes the whole service.
//!
//! The legacy `stats` query format (plain `key value` lines under the
//! original short names) is preserved verbatim by [`Metrics::render`]:
//! existing scrapers keep working while new ones move to `metrics`.
//!
//! Updates are wait-free relaxed atomics throughout — a read may lag a
//! concurrent write by a few operations, which is fine for observability
//! and keeps the hot ingest path free of locks.

use mhp_telemetry::{ProcessGauges, Registry};

pub use mhp_telemetry::{stat_value, Counter, Gauge, Histogram};

macro_rules! server_metrics {
    ($(#[doc = $doc:literal] ($field:ident, $kind:ident, $metric:literal)),+ $(,)?) => {
        /// The server's metric handles: shared by every connection
        /// handler, read by the `stats` and `metrics` queries. All
        /// counters are monotonically increasing except
        /// `connections_active`, which is a gauge.
        #[derive(Debug, Clone)]
        pub struct Metrics {
            registry: Registry,
            $(#[doc = $doc] pub $field: $kind,)+
            /// Latency of each request, measured from decoded request to
            /// written response, in microseconds.
            pub request_latency: Histogram,
            /// Time spent decoding each ingested chunk, in microseconds.
            pub chunk_decode: Histogram,
            /// `process_threads` and `process_resident_bytes`, refreshed
            /// by [`render_prometheus`](Metrics::render_prometheus);
            /// absent off Linux.
            process: Option<ProcessGauges>,
        }

        impl Metrics {
            /// Registers every server metric on `registry` and returns
            /// the handles.
            pub fn on_registry(registry: &Registry) -> Self {
                Metrics {
                    registry: registry.clone(),
                    $($field: registry.$kind($metric),)+
                    request_latency: registry.histogram("server_request_latency_us"),
                    chunk_decode: registry.histogram("server_chunk_decode_us"),
                    process: ProcessGauges::register(registry),
                }
            }

            /// Renders the legacy `stats` text: one `key value` line per
            /// metric under its original short name, counters first, then
            /// histogram summaries. Byte-identical to the pre-registry
            /// format.
            pub fn render(&self) -> String {
                let mut out = String::new();
                $(
                    out.push_str(concat!(stringify!($field), " "));
                    out.push_str(&self.$field.get().to_string());
                    out.push('\n');
                )+
                render_legacy_histogram(&self.request_latency, "request_latency", &mut out);
                render_legacy_histogram(&self.chunk_decode, "chunk_decode", &mut out);
                out
            }
        }
    };
}

// `$kind` doubles as the handle type and the Registry constructor name
// (`counter` / `gauge`), so the macro stays a single table.
#[allow(non_camel_case_types)]
type counter = Counter;
#[allow(non_camel_case_types)]
type gauge = Gauge;

server_metrics! {
    /// Connections accepted and served.
    (connections_accepted, counter, "server_connections_accepted_total"),
    /// Connections turned away at the max-connections limit.
    (connections_rejected, counter, "server_connections_rejected_total"),
    /// Connections currently being served (gauge).
    (connections_active, gauge, "server_connections_active"),
    /// Sessions created by `open`.
    (sessions_opened, counter, "server_sessions_opened_total"),
    /// Sessions destroyed by `close-session` or shutdown drain.
    (sessions_closed, counter, "server_sessions_closed_total"),
    /// Requests decoded and dispatched, of any kind.
    (requests_total, counter, "server_requests_total"),
    /// Requests answered with an error response.
    (errors_total, counter, "server_errors_total"),
    /// Wire-protocol violations that dropped a connection.
    (protocol_errors, counter, "server_protocol_errors_total"),
    /// Trace chunks ingested.
    (chunks_ingested, counter, "server_chunks_ingested_total"),
    /// Events ingested across all sessions.
    (events_ingested, counter, "server_events_ingested_total"),
    /// Intervals completed across all sessions.
    (intervals_completed, counter, "server_intervals_completed_total"),
}

impl Metrics {
    /// Creates the server metrics on a fresh registry.
    pub fn new() -> Self {
        Metrics::on_registry(&Registry::new())
    }

    /// The registry behind these handles — sessions register their engine
    /// and sketch metrics here, and the `metrics` query renders it.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The Prometheus exposition of the whole registry — the `metrics`
    /// query — with the process gauges read fresh.
    pub fn render_prometheus(&self) -> String {
        if let Some(process) = &self.process {
            process.refresh();
        }
        self.registry.render_prometheus()
    }
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}

/// Renders one histogram in the legacy `stats` shape: `NAME_count`,
/// `NAME_sum_us` and p50/p90/p99 upper-bound lines.
fn render_legacy_histogram(h: &Histogram, name: &str, out: &mut String) {
    use std::fmt::Write as _;
    let _ = writeln!(out, "{name}_count {}", h.count());
    let _ = writeln!(out, "{name}_sum_us {}", h.sum());
    let _ = writeln!(out, "{name}_p50_us {}", h.quantile(0.50));
    let _ = writeln!(out, "{name}_p90_us {}", h.quantile(0.90));
    let _ = writeln!(out, "{name}_p99_us {}", h.quantile(0.99));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn render_lists_every_counter_once() {
        let m = Metrics::new();
        m.requests_total.incr();
        m.events_ingested.add(500);
        m.request_latency.record_duration(Duration::from_micros(42));
        let text = m.render();
        assert_eq!(stat_value(&text, "requests_total"), Some(1));
        assert_eq!(stat_value(&text, "events_ingested"), Some(500));
        assert_eq!(stat_value(&text, "request_latency_count"), Some(1));
        assert_eq!(stat_value(&text, "connections_active"), Some(0));
        assert_eq!(stat_value(&text, "no_such_key"), None);
    }

    #[test]
    fn gauge_decrements() {
        let m = Metrics::new();
        m.connections_active.incr();
        m.connections_active.incr();
        m.connections_active.decr();
        assert_eq!(stat_value(&m.render(), "connections_active"), Some(1));
    }

    #[test]
    fn legacy_render_shape_is_stable() {
        let m = Metrics::new();
        m.request_latency.record_duration(Duration::from_micros(3));
        let text = m.render();
        let keys: Vec<&str> = text.lines().filter_map(|l| l.split(' ').next()).collect();
        assert_eq!(
            keys,
            [
                "connections_accepted",
                "connections_rejected",
                "connections_active",
                "sessions_opened",
                "sessions_closed",
                "requests_total",
                "errors_total",
                "protocol_errors",
                "chunks_ingested",
                "events_ingested",
                "intervals_completed",
                "request_latency_count",
                "request_latency_sum_us",
                "request_latency_p50_us",
                "request_latency_p90_us",
                "request_latency_p99_us",
                "chunk_decode_count",
                "chunk_decode_sum_us",
                "chunk_decode_p50_us",
                "chunk_decode_p90_us",
                "chunk_decode_p99_us",
            ]
        );
        assert_eq!(stat_value(&text, "request_latency_p50_us"), Some(4));
    }

    #[test]
    fn same_handles_feed_the_prometheus_exposition() {
        let m = Metrics::new();
        m.requests_total.add(7);
        m.connections_active.set(2);
        m.chunk_decode.record_duration(Duration::from_micros(10));
        let text = m.registry().render_prometheus();
        assert!(text.contains("# TYPE server_requests_total counter"));
        assert!(text.contains("server_requests_total 7"));
        assert!(text.contains("# TYPE server_connections_active gauge"));
        assert!(text.contains("server_connections_active 2"));
        assert!(text.contains("# TYPE server_chunk_decode_us histogram"));
        assert!(text.contains("server_chunk_decode_us_count 1"));
    }
}
