//! In-memory span recorder for traced runs.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions; nothing inside the program is instrumented.
//! They stay in memory while the run measures and are written out as JSON
//! Lines when it ends.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// Shared by every span of one request, command or event.
    pub req: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name totals over a span set.
#[derive(Debug, Clone, Default)]
pub struct NameStats {
    /// Duration of each span, in recording order (ns).
    pub durations: Vec<f64>,
    /// Σ self time: duration minus the time child spans cover (ns).
    pub self_ns: f64,
}

impl NameStats {
    pub fn count(&self) -> usize {
        self.durations.len()
    }

    pub fn total_ns(&self) -> f64 {
        self.durations.iter().sum()
    }

    /// Mean duration in microseconds (0 when no span has this name).
    pub fn mean_us(&self) -> f64 {
        if self.durations.is_empty() {
            0.0
        } else {
            self.total_ns() / self.durations.len() as f64 / 1e3
        }
    }
}

/// The recorder. Clock origin is its creation instant.
pub struct Spans {
    t0: Instant,
    spans: Vec<Span>,
    /// `false`: records nothing and reads no clock, so that the same code
    /// can run untraced as the baseline of the tracing overhead.
    on: bool,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            t0: Instant::now(),
            spans: Vec::new(),
            on: true,
        }
    }

    /// A recorder that records nothing.
    pub fn off() -> Self {
        Spans {
            on: false,
            ..Spans::new()
        }
    }

    /// Whether this recorder records (see [`off`](Self::off)).
    pub fn recording(&self) -> bool {
        self.on
    }

    pub fn origin(&self) -> Instant {
        self.t0
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`end`](Self::end).
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, req: u64) -> SpanId {
        if !self.on {
            return 0;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: SpanId) {
        if self.on {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Duration of a closed span (0 when the recorder is off).
    pub fn dur_ns(&self, id: SpanId) -> u64 {
        self.spans.get(id).map_or(0, Span::dur_ns)
    }

    /// Records a span whose interval was measured elsewhere (client
    /// requests are timed by the client's own threads).
    pub fn record(&mut self, span: Span) -> SpanId {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Times `f` as one span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, req);
        let out = f();
        self.end(id);
        out
    }

    /// Durations and self times grouped by span name.
    pub fn by_name(&self) -> BTreeMap<&'static str, NameStats> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.durations.push(s.dur_ns() as f64);
            e.self_ns += s.dur_ns().saturating_sub(covered) as f64;
        }
        out
    }

    /// One line per span name: count, total and self time in ms.
    pub fn table(by: &BTreeMap<&'static str, NameStats>) -> Vec<String> {
        let mut lines = vec![format!(
            "{:<28} {:>8} {:>12} {:>12}",
            "span", "count", "total_ms", "self_ms"
        )];
        lines.extend(by.iter().map(|(name, s)| {
            format!(
                "{name:<28} {:>8} {:>12.3} {:>12.3}",
                s.count(),
                s.total_ns() / 1e6,
                s.self_ns / 1e6
            )
        }));
        lines
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_child_coverage() {
        let mut s = Spans::new();
        let parent = s.record(Span {
            name: "outer",
            start_ns: 0,
            end_ns: 100,
            parent: None,
            req: 7,
        });
        s.record(Span {
            name: "inner",
            start_ns: 10,
            end_ns: 40,
            parent: Some(parent),
            req: 7,
        });
        let by = s.by_name();
        assert_eq!(by["outer"].self_ns, 70.0);
        assert_eq!(by["inner"].self_ns, 30.0);
        assert_eq!(by["outer"].mean_us(), 0.1);
    }

    #[test]
    fn an_off_recorder_runs_the_call_and_records_nothing() {
        let mut s = Spans::off();
        assert_eq!(s.time("call", None, 0, || 41 + 1), 42);
        let id = s.begin("open", None, 0);
        s.end(id);
        assert_eq!(s.dur_ns(id), 0);
        assert!(s.by_name().is_empty());
    }
}
