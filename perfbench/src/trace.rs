//! The benchmark's own spans: one around each of its calls into a
//! layer, with the op they belong to and the span that caused them.
//! Kept in memory and written out when the benchmark ends. A disabled
//! tracer reads no clock and records nothing.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct SpanRec {
    pub id: u64,
    pub parent: Option<u64>,
    pub op: u64,
    pub name: &'static str,
    pub start_ms: f64,
    pub end_ms: f64,
}

impl SpanRec {
    pub fn ms(&self) -> f64 {
        self.end_ms - self.start_ms
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name`; `f` gets the span's id to
    /// parent its children on (`None` when tracing is off).
    pub fn span<T>(
        &self,
        name: &'static str,
        op: u64,
        parent: Option<u64>,
        f: impl FnOnce(Option<u64>) -> T,
    ) -> T {
        if !self.enabled {
            return f(None);
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let out = f(Some(id));
        self.push(id, name, op, parent, start, Instant::now());
        out
    }

    /// Records a span whose ends were observed elsewhere; returns its
    /// id to parent children on.
    pub fn record(
        &self,
        name: &'static str,
        op: u64,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> Option<u64> {
        if !self.enabled {
            return None;
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        self.push(id, name, op, parent, start, end);
        Some(id)
    }

    fn push(
        &self,
        id: u64,
        name: &'static str,
        op: u64,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e3;
        let span = SpanRec { id, parent, op, name, start_ms: at(start), end_ms: at(end) };
        self.spans.lock().expect("span list poisoned").push(span);
    }

    pub fn spans(&self) -> Vec<SpanRec> {
        self.spans.lock().expect("span list poisoned").clone()
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans().iter().filter(|s| s.name == name).map(SpanRec::ms).collect()
    }

    /// Total duration of the spans called `name`, per op.
    pub fn per_op_ms(&self, name: &str, ops: usize) -> f64 {
        self.durations(name).iter().sum::<f64>() / ops.max(1) as f64
    }

    /// Per span name: `(name, count, total ms, self ms)`, where self
    /// time is a span's duration minus the time its children cover.
    pub fn self_times(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let spans = self.spans();
        let mut children: HashMap<u64, Vec<&SpanRec>> = HashMap::new();
        for s in &spans {
            if let Some(parent) = s.parent {
                children.entry(parent).or_default().push(s);
            }
        }
        let mut rows: Vec<(&'static str, usize, f64, f64)> = Vec::new();
        for s in &spans {
            let mut kids: Vec<(f64, f64)> = children
                .get(&s.id)
                .map_or(&[][..], |v| &v[..])
                .iter()
                .map(|c| (c.start_ms.max(s.start_ms), c.end_ms.min(s.end_ms)))
                .collect();
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let (mut covered, mut reach) = (0.0, s.start_ms);
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            let self_ms = s.ms() - covered;
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += s.ms();
                    r.3 += self_ms;
                }
                None => rows.push((s.name, 1, s.ms(), self_ms)),
            }
        }
        rows
    }

    /// The spans as JSON Lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_ms\":{:.4},\"end_ms\":{:.4}}}",
                s.id, s.op, s.name, s.start_ms, s.end_ms
            );
        }
        out
    }
}
