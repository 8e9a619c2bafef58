//! In-memory spans recorded by the harness around its calls into each
//! layer's public functions. The program itself is not instrumented: a span
//! is either the wall time of one such call, or (marked `derived`) a stage
//! duration the program already reports in a stats struct, laid out inside
//! the call that returned it.

use crate::json::Json;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    /// Spans of one request (or one write transaction group) share this.
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub derived: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    t0: Instant,
    next_id: u32,
    request: u64,
    stack: Vec<usize>,
    pub spans: Vec<Span>,
}

impl Tracer {
    /// `id_base` keeps ids of different threads' tracers apart; `t0` is the
    /// common clock origin.
    pub fn new(t0: Instant, id_base: u32) -> Tracer {
        Tracer {
            t0,
            next_id: id_base,
            request: u64::from(id_base),
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Start a new request; spans opened from now on carry its id.
    pub fn begin_request(&mut self) {
        self.request += 1;
    }

    fn push(&mut self, name: &'static str, start_ns: u64, end_ns: u64, derived: bool) -> usize {
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(Span {
            id,
            parent: self.stack.last().map(|&i| self.spans[i].id),
            request: self.request,
            name,
            start_ns,
            end_ns,
            derived,
        });
        self.spans.len() - 1
    }

    /// Time `f` as a child of the innermost open span. Returns its result and
    /// the span's duration.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, Duration) {
        let start = self.now_ns();
        let idx = self.push(name, start, start, false);
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        let end = self.now_ns();
        self.spans[idx].end_ns = end;
        (out, Duration::from_nanos(end - start))
    }

    /// Record stage durations that a stats struct reported for the call the
    /// innermost open span wraps: laid end to end from that span's start, as
    /// its children.
    pub fn derived(&mut self, stages: &[(&'static str, Duration)]) {
        let mut at = self.stack.last().map_or(0, |&i| self.spans[i].start_ns);
        for &(name, d) in stages {
            let end = at + d.as_nanos() as u64;
            self.push(name, at, end, true);
            at = end;
        }
    }
}

/// Durations (ns) of every span called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64)
        .collect()
}

/// Self time (ns) of every span called `name`: its duration minus the part
/// of it its direct children cover.
pub fn self_times(spans: &[Span], name: &str) -> Vec<f64> {
    let mut covered = std::collections::HashMap::<u32, u64>::new();
    for s in spans {
        if let Some(p) = s.parent {
            *covered.entry(p).or_default() += s.dur_ns();
        }
    }
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| {
            s.dur_ns()
                .saturating_sub(covered.get(&s.id).copied().unwrap_or(0)) as f64
        })
        .collect()
}

pub fn to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("id", Json::Int(u64::from(s.id))),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Int(u64::from(p))),
                    ),
                    ("request", Json::Int(s.request)),
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Int(s.start_ns)),
                    ("end_ns", Json::Int(s.end_ns)),
                    ("derived", Json::Bool(s.derived)),
                ])
            })
            .collect(),
    )
}
