//! The shared loop of the closed-loop workloads (one client; its next op
//! starts when the previous one ends) and the set-up timing every
//! workload uses.

use std::time::Instant;

use crate::host;
use crate::stats::{median, quartiles, tail};
use crate::trace::Tracer;
use crate::{alloc, Ctx, Metrics, Outcome};

/// Set-ups per run; `setup_s` is the median.
const SETUP_REPEATS: usize = 3;

/// Failed checks kept for the readable report.
const ERRORS_KEPT: usize = 5;

/// Runs `setup` [`SETUP_REPEATS`] times, each timed by a fresh
/// [`host::StepClock`] it marks its steps on, and keeps the last state.
/// Records `setup_s` and `raw.setup_s` (medians) in `m`.
pub fn timed_setup<S>(
    refs: &mut Vec<f64>,
    m: &mut Metrics,
    mut setup: impl FnMut(&mut host::StepClock) -> Result<S, String>,
) -> Result<S, String> {
    // The process's first kernel runs grow the heap and read slow.
    for _ in 0..3 {
        host::reading();
    }
    let (mut raw, mut norm, mut state) = (Vec::new(), Vec::new(), None);
    for _ in 0..SETUP_REPEATS {
        // Drop the previous state first so its teardown is not timed.
        drop(state.take());
        let mut clock = host::StepClock::start();
        let s = setup(&mut clock);
        let (r, n, readings) = clock.finish();
        state = Some(s?);
        raw.push(r);
        norm.push(n);
        refs.extend(readings);
    }
    m.insert("setup_s", median(&norm));
    m.insert("raw.setup_s", median(&raw));
    Ok(state.expect("at least one set-up"))
}

/// Records the reference readings' median and spread.
pub fn host_metrics(refs: &[f64], m: &mut Metrics, notes: &mut Vec<String>) {
    let q = quartiles(refs);
    m.insert("host.ref_ms.p50", median(refs));
    m.insert("host.ref_ms.iqr", q[2] - q[0]);
    notes.push(format!(
        "host reference: {} readings, median {:.3} ms, IQR {:.3} ms (nominal {} ms)",
        refs.len(),
        median(refs),
        q[2] - q[0],
        host::NOMINAL_REF_MS
    ));
}

/// Records `latency_p50_ms` and `latency_tail_ms` of `latencies` under
/// `prefix` ("" or "raw."), noting which percentile the tail is.
pub fn latency_metrics(latencies: &[f64], prefix: &str, m: &mut Metrics, notes: &mut Vec<String>) {
    let (value, p, beyond) = tail(latencies);
    let (p50, tail_name) = match prefix {
        "raw." => ("raw.latency_p50_ms", "raw.latency_tail_ms"),
        _ => ("latency_p50_ms", "latency_tail_ms"),
    };
    m.insert(p50, median(latencies));
    m.insert(tail_name, value);
    notes.push(format!("{tail_name} is p{p} of {} samples ({beyond} beyond it)", latencies.len()));
}

/// One closed-loop workload.
pub trait ClosedWorkload {
    /// Runs op `i`; returns its raw time in ms and whether its output
    /// matched set-up's.
    fn op(&mut self, i: u64, tracer: &Tracer) -> (f64, Result<(), String>);

    /// Per-layer metrics from the traced ops.
    fn layer_metrics(&mut self, tracer: &Tracer, ops: usize, m: &mut Metrics);

    /// High-water live heap of the processes that ran the program, in
    /// MB, since the measured phase began.
    fn peak_heap_mb(&self) -> f64;

    /// Peak RSS of the processes that ran the program, in MB.
    fn peak_rss_mb(&self) -> f64;
}

struct Phase {
    raw_ms: Vec<f64>,
    norm_ms: Vec<f64>,
    refs: Vec<f64>,
}

/// Runs ops back to back for `seconds`, with a reference reading
/// before the first op and after each op.
fn closed_loop<W: ClosedWorkload>(
    w: &mut W,
    first_op: u64,
    seconds: f64,
    tracer: &Tracer,
    outcome: &mut Outcome,
) -> Phase {
    let (mut refs, mut raw_ms) = (vec![host::reading()], Vec::new());
    let start = Instant::now();
    let mut i = first_op;
    while start.elapsed().as_secs_f64() < seconds {
        let (ms, checked) = w.op(i, tracer);
        outcome.attempted += 1;
        if let Err(e) = checked {
            outcome.failed += 1;
            if outcome.errors.len() < ERRORS_KEPT {
                outcome.errors.push(format!("op {i}: {e}"));
            }
        }
        raw_ms.push(ms);
        refs.push(host::reading());
        i += 1;
    }
    let norm_ms = host::normalize_ops(&raw_ms, &refs);
    Phase { raw_ms, norm_ms, refs }
}

/// Sets up and measures a closed-loop workload. Untraced, the whole
/// run measures end-to-end metrics; traced, the first half does and
/// the second half runs with spans on, for the per-layer metrics and
/// the tracing overhead.
pub fn run<W: ClosedWorkload>(
    ctx: &Ctx,
    setup: impl FnMut(&mut host::StepClock) -> Result<W, String>,
) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    // The client thread, the ops it spawns and the reference readings
    // share one CPU, so the readings track the speed the ops see.
    let _pinned = crate::os::Pinned::lowest_cpu();
    let mut refs = Vec::new();
    let mut w = timed_setup(&mut refs, &mut outcome.metrics, setup)?;
    alloc::reset_peak();
    let untraced_seconds = if ctx.traced { ctx.seconds / 2.0 } else { ctx.seconds };
    let a = closed_loop(&mut w, 0, untraced_seconds, &Tracer::new(false), &mut outcome);
    let m = &mut outcome.metrics;
    m.insert("peak_heap_mb", w.peak_heap_mb());
    m.insert("peak_rss_mb", w.peak_rss_mb());
    let op_s = |ms: &[f64]| ms.iter().sum::<f64>() / 1e3;
    m.insert("ops_per_s", a.norm_ms.len() as f64 / op_s(&a.norm_ms));
    m.insert("raw.ops_per_s", a.raw_ms.len() as f64 / op_s(&a.raw_ms));
    latency_metrics(&a.norm_ms, "", m, &mut outcome.notes);
    latency_metrics(&a.raw_ms, "raw.", m, &mut outcome.notes);
    refs.extend_from_slice(&a.refs);
    if ctx.traced {
        let tracer = Tracer::new(true);
        let first = a.raw_ms.len() as u64;
        let b = closed_loop(&mut w, first, ctx.seconds / 2.0, &tracer, &mut outcome);
        w.layer_metrics(&tracer, b.raw_ms.len(), &mut outcome.metrics);
        let overhead = median(&b.norm_ms) / median(&a.norm_ms) - 1.0;
        outcome.metrics.insert("trace.overhead_pct", 100.0 * overhead);
        refs.extend_from_slice(&b.refs);
        crate::layers::finish_trace(ctx, &tracer, &mut outcome.notes)?;
    }
    host_metrics(&refs, &mut outcome.metrics, &mut outcome.notes);
    Ok(outcome)
}
