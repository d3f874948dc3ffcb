//! In-memory spans around calls into the runtime's layers.
//!
//! A span records a name, its start and end, the span that caused it and
//! the id of the operation (one build, one launch, one synthetic workload)
//! it belongs to. Stages that run inside `create_program` or `enqueue`
//! cannot be timed from outside, so the benchmark calls the same public
//! function on the same inputs right after the operation and records that
//! call as a *shadow* child of the operation's span. A span's self time is
//! its duration minus its children's durations: for an operation with
//! shadow children, the part of it the stages do not cover.

use crate::stats::percentile;
use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Self-time summary of every span with one name.
#[derive(Debug, Clone, Copy)]
pub struct SpanStat {
    pub name: &'static str,
    pub median_ns: f64,
    pub p99_ns: f64,
    pub count: usize,
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { epoch: Instant::now(), spans: Vec::new() }
    }
}

impl Tracer {
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Run `f` inside a span; returns its result and the span's id.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns: (start - self.epoch).as_nanos() as u64,
            end_ns: (end - self.epoch).as_nanos() as u64,
        });
        (out, self.spans.len() - 1)
    }

    /// Rename a span once its outcome (cache hit, miss, override) is known.
    pub fn rename(&mut self, id: usize, name: &'static str) {
        self.spans[id].name = name;
    }

    pub fn duration_ns(&self, id: usize) -> u64 {
        let s = &self.spans[id];
        s.end_ns - s.start_ns
    }

    /// Self time per span name: median, 99th percentile and count.
    pub fn stats(&self) -> Vec<SpanStat> {
        let mut children = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(&children) {
            let own = (s.end_ns - s.start_ns).saturating_sub(*child);
            by_name.entry(s.name).or_default().push(own as f64);
        }
        by_name
            .into_iter()
            .map(|(name, mut v)| {
                v.sort_by(f64::total_cmp);
                SpanStat {
                    name,
                    median_ns: percentile(&v, 50.0),
                    p99_ns: percentile(&v, 99.0),
                    count: v.len(),
                }
            })
            .collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{},\"name\":\"{}\",\"op\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                id, s.name, s.op, parent, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Time `f`, inside a top-level span named `name` when tracing is on.
/// Returns the result, its wall time in nanoseconds and the span's id.
pub fn measure<T>(
    tracer: &mut Option<Tracer>,
    name: &'static str,
    op: u64,
    f: impl FnOnce() -> T,
) -> (T, u64, Option<usize>) {
    match tracer {
        Some(t) => {
            let (out, id) = t.span(name, op, None, f);
            (out, t.duration_ns(id), Some(id))
        }
        None => {
            let start = Instant::now();
            let out = f();
            (out, start.elapsed().as_nanos() as u64, None)
        }
    }
}
