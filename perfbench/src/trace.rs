//! In-memory spans around the harness's calls into each layer.
//!
//! The program's own source is not instrumented: every span is recorded
//! here, in the benchmark, around a call into a layer's public functions.
//! Spans are kept in memory and written to `trace.jsonl` when the run ends.
//! A disabled tracer records nothing, so the untraced run pays one branch
//! per call site.

use crate::json::{obj, Value};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

pub type SpanId = u32;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: SpanId,
    pub parent: Option<SpanId>,
    pub name: &'static str,
    /// Trial (scan workloads) or round (round workloads) the span belongs to.
    pub unit: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Counters the layer exposes, read right after the call returned.
    pub counters: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span recorder. Threads each own a tracer sharing one epoch
/// and are merged with [`Tracer::absorb`] once joined.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    unit: u32,
}

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            unit: 0,
        }
    }

    #[cfg(test)]
    pub fn off() -> Self {
        Tracer::new(false, Instant::now())
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Sets the trial/round number stamped on spans opened from now on.
    pub fn set_unit(&mut self, unit: u32) {
        self.unit = unit;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let parent = self.open.last().map(|&i| self.spans[i].id);
        let start_ns = self.now_ns();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            id: self.spans.len() as SpanId,
            parent,
            name,
            unit: self.unit,
            start_ns,
            end_ns: start_ns,
            counters: Vec::new(),
        });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = end_ns;
        }
    }

    /// Records a span around `f`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Attaches a counter to the innermost open span.
    pub fn counter(&mut self, name: &'static str, value: f64) {
        if let Some(&i) = self.open.last() {
            self.spans[i].counters.push((name, value));
        }
    }

    /// Merges a joined thread's spans, re-basing their ids past this
    /// tracer's. The other thread's root spans stay roots.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as SpanId;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.id += base;
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Overlapping children (spans merged from
/// concurrent threads, or clock ties) are counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: BTreeMap<SpanId, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = s.parent.as_ref().and_then(|p| index.get(p)) {
            let parent = &spans[p];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut intervals)| {
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for (lo, hi) in intervals {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Per span name: `(summed self time, summed duration, span count)`.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += self_ns;
        e.1 += s.duration_ns();
        e.2 += 1;
    }
    out
}

/// Layer closure of the spans named `root`: the share of the roots' wall
/// time that their descendants' self times account for. 1 minus this is
/// harness glue no layer span covers.
pub fn closure_under(spans: &[Span], root: &'static str) -> f64 {
    let selfs = self_times(spans);
    let (mut wall, mut glue) = (0u64, 0u64);
    for (s, self_ns) in spans.iter().zip(&selfs) {
        if s.name == root {
            wall += s.duration_ns();
            glue += self_ns;
        }
    }
    crate::stats::share((wall - glue.min(wall)) as f64, wall as f64)
}

/// Writes one JSON object per span:
/// `{id, parent, name, workload, unit, start_ns, end_ns, self_ns, counters}`.
pub fn write_jsonl(path: &Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let line = obj(vec![
            ("id", Value::Num(f64::from(s.id))),
            ("parent", s.parent.map_or(Value::Null, |p| Value::Num(f64::from(p)))),
            ("name", Value::Str(s.name.to_string())),
            ("workload", Value::Str(workload.to_string())),
            ("unit", Value::Num(f64::from(s.unit))),
            ("start_ns", Value::Num(s.start_ns as f64)),
            ("end_ns", Value::Num(s.end_ns as f64)),
            ("self_ns", Value::Num(self_ns as f64)),
            (
                "counters",
                Value::Obj(
                    s.counters
                        .iter()
                        .map(|&(k, v)| (k.to_string(), Value::Num(v)))
                        .collect(),
                ),
            ),
        ]);
        writeln!(out, "{}", line.render())?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: if parent.is_none() { "root" } else { "child" },
            unit: 0,
            start_ns,
            end_ns,
            counters: Vec::new(),
        }
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            // Overlaps the first child on [30, 40).
            span(2, Some(0), 30, 60),
            // Runs past the parent's end: only [90, 100) is inside.
            span(3, Some(0), 90, 120),
            // A grandchild shrinks its own parent only.
            span(4, Some(1), 15, 20),
        ];
        // Children cover [10,60) and [90,100) of the root: 60 ns.
        assert_eq!(self_times(&spans), vec![40, 25, 30, 30, 5]);
        assert!((closure_under(&spans, "root") - 0.6).abs() < 1e-12);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        assert_eq!(t.span("x", || 7), 7);
        t.counter("c", 1.0);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nesting_counters_and_absorb() {
        let epoch = Instant::now();
        let mut main = Tracer::new(true, epoch);
        main.set_unit(3);
        main.enter("outer");
        main.span("inner", || ());
        main.counter("n", 2.0);
        main.exit();
        let mut other = Tracer::new(true, epoch);
        other.enter("thread_root");
        other.span("leaf", || ());
        other.exit();
        main.absorb(other);
        let spans = main.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!((spans[0].parent, spans[1].parent), (None, Some(0)));
        assert_eq!(spans[0].counters, vec![("n", 2.0)]);
        assert_eq!(spans[0].unit, 3);
        assert_eq!((spans[2].id, spans[2].parent), (2, None));
        assert_eq!((spans[3].id, spans[3].parent), (3, Some(2)));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        let totals = totals_by_name(spans);
        assert_eq!(totals["inner"].2, 1);
    }
}
