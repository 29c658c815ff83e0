//! Host-time spans the benchmark records around its own calls into the
//! simulator, kept in memory and written as a Chrome trace when the run
//! ends.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Spans kept per run; later spans are counted but not stored, so a long
/// run cannot grow the trace without bound.
const MAX_SPANS: usize = 60_000;

/// One closed span: `parent` is the id of the span that caused it (0 for a
/// root).  `args` carry the numbers the span was recorded with.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub tid: u32,
    pub start: Duration,
    pub dur: Duration,
    pub args: Vec<(&'static str, u64)>,
}

/// An in-memory span log anchored at one origin instant.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    next_id: u64,
    dropped: u64,
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            next_id: 1,
            dropped: 0,
        }
    }

    /// Records a span that ran from `start` for `dur` and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        tid: u32,
        parent: u64,
        start: Instant,
        dur: Duration,
        args: Vec<(&'static str, u64)>,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return id;
        }
        self.spans.push(Span {
            id,
            parent,
            name,
            tid,
            start: start.saturating_duration_since(self.origin),
            dur,
            args,
        });
        id
    }

    /// Records children of `parent` laid end to end from `start`: used for
    /// time a layer reports only as a total (engine phase deltas, summed
    /// per-call timings), whose order inside the parent is not known.
    pub fn record_children(
        &mut self,
        parent: u64,
        tid: u32,
        start: Instant,
        parts: &[(&'static str, Duration)],
    ) {
        let mut at = start;
        for &(name, dur) in parts {
            self.record(name, tid, parent, at, dur, Vec::new());
            at += dur;
        }
    }

    /// Spans recorded but not stored because the log was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The spans as a Chrome trace-event document (microsecond times).
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{}",
                s.name,
                s.tid,
                s.start.as_secs_f64() * 1e6,
                s.dur.as_secs_f64() * 1e6,
                s.id,
                s.parent
            );
            for (key, value) in &s.args {
                let _ = write!(out, ",\"{key}\":{value}");
            }
            out.push_str("}}");
        }
        out.push_str("]}");
        out
    }
}
