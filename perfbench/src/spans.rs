//! In-memory spans recorded by the benchmark around its own calls into
//! each layer's public functions, written out when the run ends, and the
//! self-time arithmetic the per-layer figures are read from.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the recording
/// process's epoch; `request` ties together the spans of one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub request: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span that has begun and not yet ended.
#[derive(Debug)]
pub struct OpenSpan {
    id: u64,
    parent: Option<u64>,
    request: u64,
    name: &'static str,
    /// `None` when the tracer was disabled: the span is not recorded and
    /// the clock is not read.
    start: Option<Instant>,
}

impl OpenSpan {
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Collects spans in memory. A disabled tracer hands out spans as usual
/// but neither reads the clock nor records them, so the calling code is
/// the same whether or not a block of the run is traced, and an untraced
/// block pays nothing for it.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: u64,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// `id_base` keeps span ids of different threads apart.
    pub fn new(epoch: Instant, id_base: u64) -> Tracer {
        Tracer {
            epoch,
            next_id: id_base,
            enabled: false,
            spans: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    pub fn begin(
        &mut self,
        name: &'static str,
        parent: Option<&OpenSpan>,
        request: u64,
    ) -> OpenSpan {
        self.next_id += 1;
        OpenSpan {
            id: self.next_id,
            parent: parent.map(OpenSpan::id),
            request,
            name,
            start: self.enabled.then(Instant::now),
        }
    }

    /// Ends `span` now; records it if it began while the tracer was
    /// enabled.
    pub fn end(&mut self, span: OpenSpan) {
        let Some(start) = span.start else { return };
        let duration = start.elapsed().as_nanos() as u64;
        let start_ns = start.duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            id: span.id,
            parent: span.parent,
            request: span.request,
            name: span.name.to_string(),
            start_ns,
            end_ns: start_ns + duration,
        });
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Renders spans as tab-separated lines:
/// `id parent request name start_ns end_ns` (`-` for no parent).
pub fn render(spans: &[Span]) -> String {
    let mut out = String::from("# id\tparent\trequest\tname\tstart_ns\tend_ns\n");
    for s in spans {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id, parent, s.request, s.name, s.start_ns, s.end_ns
        );
    }
    out
}

/// Parses what [`render`] wrote.
pub fn parse(text: &str) -> Result<Vec<Span>, String> {
    let mut spans = Vec::new();
    for line in text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let f: Vec<&str> = line.split('\t').collect();
        let num = |i: usize| -> Result<u64, String> {
            f.get(i)
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("bad span line {line:?}"))
        };
        if f.len() != 6 {
            return Err(format!("bad span line {line:?}"));
        }
        spans.push(Span {
            id: num(0)?,
            parent: if f[1] == "-" { None } else { Some(num(1)?) },
            request: num(2)?,
            name: f[3].to_string(),
            start_ns: num(4)?,
            end_ns: num(5)?,
        });
    }
    Ok(spans)
}

/// Self time of every span, by id: its duration minus the part of its
/// interval that the union of its children's intervals covers. Children
/// may overlap each other (concurrent work) and may stick out of the
/// parent; only the covered part inside the parent is subtracted, once.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            children
                .entry(parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |kids| covered_ns(kids, s.start_ns, s.end_ns));
            (s.id, s.duration_ns().saturating_sub(covered))
        })
        .collect()
}

/// Length of the union of `intervals`, each clipped to `[lo, hi)`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        let end = end.min(hi);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// Self times in nanoseconds, grouped by span name.
pub fn self_times_by_name(spans: &[Span]) -> BTreeMap<String, Vec<u64>> {
    let selfs = self_times(spans);
    let mut by_name: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    for s in spans {
        by_name
            .entry(s.name.clone())
            .or_default()
            .push(selfs[&s.id]);
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            request: 7,
            name: format!("s{id}"),
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span(1, None, 0, 100),
            // Two children overlapping each other on [20, 30).
            span(2, Some(1), 10, 30),
            span(3, Some(1), 20, 40),
            // A disjoint child.
            span(4, Some(1), 60, 70),
            // A grandchild does not count against the root.
            span(5, Some(4), 60, 65),
        ];
        let selfs = self_times(&spans);
        // Covered: [10, 40) and [60, 70) = 40 ns.
        assert_eq!(selfs[&1], 60);
        assert_eq!(selfs[&2], 20);
        assert_eq!(selfs[&4], 5);
        assert_eq!(selfs[&5], 5);
    }

    #[test]
    fn children_sticking_out_are_clipped() {
        let spans = vec![
            span(1, None, 100, 200),
            span(2, Some(1), 50, 120),
            span(3, Some(1), 190, 260),
            // Fully nested inside child 2's part that lies in the parent.
            span(4, Some(1), 105, 110),
        ];
        // Covered inside [100, 200): [100, 120) and [190, 200) = 30 ns.
        assert_eq!(self_times(&spans)[&1], 70);
    }

    #[test]
    fn children_covering_everything_leave_zero() {
        let spans = vec![
            span(1, None, 0, 10),
            span(2, Some(1), 0, 10),
            span(3, Some(1), 2, 8),
        ];
        assert_eq!(self_times(&spans)[&1], 0);
    }

    #[test]
    fn render_and_parse_round_trip() {
        let spans = vec![span(1, None, 0, 10), span(2, Some(1), 3, 8)];
        assert_eq!(parse(&render(&spans)).unwrap(), spans);
        assert!(parse("1\t-\t2\tx\t3").is_err());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now(), 0);
        let s = t.begin("a", None, 1);
        t.end(s);
        t.set_enabled(true);
        let outer = t.begin("b", None, 2);
        let inner = t.begin("c", Some(&outer), 2);
        t.end(inner);
        t.end(outer);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "c");
        assert_eq!(spans[0].parent, Some(spans[1].id));
        let by_name = self_times_by_name(&spans);
        assert_eq!(by_name["c"].len(), 1);
    }
}
