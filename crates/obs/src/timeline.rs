//! Timeline analytics: per-worker occupancy lanes, the critical path
//! through the span tree, and utilization metrics — the machinery
//! behind `grm trace timeline` and `grm trace critical-path`.
//!
//! Everything here is built from the v7 `sim_start_seconds` offsets
//! the recorder stamps on spans: a span occupies the half-open sim
//! interval `[start, start + sim_seconds)`. Like the rest of the
//! analytics layer this reads only frozen [`RunJournal`]s, and every
//! derived quantity is pure sim arithmetic — deterministic for a
//! fixed seed/scale, which is what lets `BENCH_timeline.json` be
//! byte-exact across machines.

use crate::analytics::relative_span_path;
use crate::journal::{RunJournal, SpanRecord};

/// Comparison slack for matching span boundaries on the sim axis.
/// Starts are stamped with the exact same f64 additions that produce
/// span ends, so equality normally holds exactly; the epsilon only
/// absorbs journals whose offsets were re-derived through a decimal
/// round-trip.
const EPS: f64 = 1e-9;

/// Absolute end of `span` on the simulated axis.
fn span_end(span: &SpanRecord) -> f64 {
    span.sim_start_seconds + span.sim_seconds
}

/// Depth of `span` below the root (0 = root).
fn span_depth(journal: &RunJournal, span: &SpanRecord) -> usize {
    let mut depth = 0usize;
    let mut parent = span.parent;
    while let Some(pid) = parent {
        depth += 1;
        parent = journal.spans.iter().find(|s| s.id == pid).and_then(|s| s.parent);
    }
    depth
}

/// One worker's occupancy lane: when it started, how long it was
/// busy, and how much of the run wall-clock it sat idle.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct WorkerLane {
    /// Span path relative to the root (`mine/worker-0`, …).
    pub name: String,
    /// Simulated start offset of the lane's busy segment.
    pub start_seconds: f64,
    /// Simulated busy time (the worker span's own sim seconds).
    pub busy_seconds: f64,
    /// Simulated idle time over the whole run: `wall − busy`.
    pub idle_seconds: f64,
    /// `busy / wall` — the lane's utilization of the run wall-clock.
    pub busy_fraction: f64,
}

/// One top-level stage segment on the sim axis, in span-open order.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct StageSegment {
    pub stage: String,
    pub start_seconds: f64,
    /// The stage span's *own* simulated seconds (for `mine` that is
    /// the fleet wall-clock, not the summed worker compute).
    pub seconds: f64,
}

/// Reconstructed run timeline: wall-clock, total compute, effective
/// parallel speedup, per-worker occupancy lanes, and the top-level
/// stage segments.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TimelineReport {
    /// Simulated run wall-clock: the latest span end.
    pub wall_seconds: f64,
    /// Total simulated compute: the summed sim seconds of spans whose
    /// time is not already rolled up by an instrumented child (the
    /// `mine` stage span carries the fleet wall-clock while its
    /// workers carry busy time — counting both would double-charge).
    pub compute_seconds: f64,
    /// Effective parallel speedup, `compute / wall` (1.0 for a serial
    /// run up to bookkeeping, >1 when workers overlap).
    pub speedup: f64,
    /// Worker occupancy lanes, in span-open order.
    pub workers: Vec<WorkerLane>,
    /// Top-level stage segments, in span-open order.
    pub stages: Vec<StageSegment>,
}

impl TimelineReport {
    /// Reconstructs the timeline from `journal`'s span offsets.
    pub fn from_journal(journal: &RunJournal) -> TimelineReport {
        let wall_seconds = journal.spans.iter().map(span_end).fold(0.0, f64::max);
        let compute_seconds: f64 = journal
            .spans
            .iter()
            .filter(|s| !journal.children(s).iter().any(|c| c.sim_seconds > 0.0))
            .map(|s| s.sim_seconds)
            .sum();
        let speedup = if wall_seconds > 0.0 { compute_seconds / wall_seconds } else { 0.0 };
        let workers = journal
            .spans
            .iter()
            .filter(|s| s.name.starts_with("worker-"))
            .map(|s| WorkerLane {
                name: relative_span_path(journal, s),
                start_seconds: s.sim_start_seconds,
                busy_seconds: s.sim_seconds,
                idle_seconds: (wall_seconds - s.sim_seconds).max(0.0),
                busy_fraction: if wall_seconds > 0.0 {
                    (s.sim_seconds / wall_seconds).min(1.0)
                } else {
                    0.0
                },
            })
            .collect();
        let stages = match journal.spans.iter().find(|s| s.parent.is_none()) {
            Some(root) => journal
                .children(root)
                .into_iter()
                .map(|s| StageSegment {
                    stage: s.name.clone(),
                    start_seconds: s.sim_start_seconds,
                    seconds: s.sim_seconds,
                })
                .collect(),
            None => Vec::new(),
        };
        TimelineReport { wall_seconds, compute_seconds, speedup, workers, stages }
    }

    /// True when the journal carried nothing to place on a timeline.
    pub fn is_empty(&self) -> bool {
        self.wall_seconds <= 0.0
    }

    /// Gantt-style text table: one occupancy lane per stage and per
    /// worker (workers capped at `top`), plus the utilization summary.
    pub fn render(&self, top: usize) -> String {
        const WIDTH: usize = 32;
        let mut out = String::new();
        if self.is_empty() {
            out.push_str("timeline: journal carries no simulated time\n");
            return out;
        }
        out.push_str(&format!(
            "timeline: wall {:.3}s sim, compute {:.3}s, speedup {:.2}x ({} worker lane{})\n\n",
            self.wall_seconds,
            self.compute_seconds,
            self.speedup,
            self.workers.len(),
            if self.workers.len() == 1 { "" } else { "s" }
        ));
        let name_w = self
            .stages
            .iter()
            .map(|s| s.stage.len())
            .chain(self.workers.iter().map(|w| w.name.len()))
            .chain(["lane".len()])
            .max()
            .unwrap_or(4);
        out.push_str(&format!(
            "  {:<name_w$}  {:>10}  {:>10}  {:>5}  occupancy\n",
            "lane", "start", "busy", "util"
        ));
        let bar = |start: f64, seconds: f64| -> String {
            let lo = (((start / self.wall_seconds) * WIDTH as f64).floor() as usize).min(WIDTH - 1);
            let mut hi = ((((start + seconds) / self.wall_seconds) * WIDTH as f64).ceil() as usize)
                .min(WIDTH);
            // A non-empty segment always paints at least one cell; a
            // zero-cost one (merge) paints none.
            if seconds > 0.0 {
                hi = hi.max(lo + 1);
            } else {
                hi = lo;
            }
            let mut cells = vec!['.'; WIDTH];
            for cell in cells.iter_mut().take(hi).skip(lo) {
                *cell = '#';
            }
            cells.into_iter().collect()
        };
        for s in &self.stages {
            out.push_str(&format!(
                "  {:<name_w$}  {:>9.3}s  {:>9.3}s  {:>4.0}%  |{}|\n",
                s.stage,
                s.start_seconds,
                s.seconds,
                100.0 * s.seconds / self.wall_seconds,
                bar(s.start_seconds, s.seconds)
            ));
        }
        for w in self.workers.iter().take(top) {
            out.push_str(&format!(
                "  {:<name_w$}  {:>9.3}s  {:>9.3}s  {:>4.0}%  |{}|\n",
                w.name,
                w.start_seconds,
                w.busy_seconds,
                100.0 * w.busy_fraction,
                bar(w.start_seconds, w.busy_seconds)
            ));
        }
        if self.workers.len() > top {
            out.push_str(&format!("  … {} more worker lane(s)\n", self.workers.len() - top));
        }
        out
    }
}

/// One span on a critical-path chain.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CriticalPathStep {
    /// Span path relative to the root (`mine/worker-2`, `evaluate`).
    pub path: String,
    pub start_seconds: f64,
    pub seconds: f64,
}

/// A back-to-back chain of spans ending at `end_seconds` — for the
/// top chain, the critical path that bounds the run wall-clock.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CriticalPathChain {
    /// Sim time the chain ends at.
    pub end_seconds: f64,
    /// Summed sim seconds of the chain's steps.
    pub seconds: f64,
    /// Steps in chronological order (earliest first).
    pub steps: Vec<CriticalPathStep>,
}

/// Critical-path chains through the span tree, longest-ending first.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CriticalPathReport {
    pub wall_seconds: f64,
    pub chains: Vec<CriticalPathChain>,
}

impl CriticalPathReport {
    /// Walks the span tree backwards from each distinct span end
    /// time: at time `t`, the deepest span with simulated time that
    /// ends at `t` is the one that was holding the run up, and the
    /// walk continues from that span's start. The chain from the
    /// latest end time is *the* critical path — the sequence of spans
    /// that bounds the run wall-clock.
    pub fn from_journal(journal: &RunJournal) -> CriticalPathReport {
        let wall_seconds = journal.spans.iter().map(span_end).fold(0.0, f64::max);
        let mut ends: Vec<f64> =
            journal.spans.iter().filter(|s| s.sim_seconds > 0.0).map(span_end).collect();
        ends.sort_by(|a, b| b.partial_cmp(a).expect("sim times are finite"));
        ends.dedup_by(|a, b| (*a - *b).abs() <= EPS);
        let chains = ends
            .into_iter()
            .map(|end| {
                let steps = walk_back(journal, end);
                CriticalPathChain {
                    end_seconds: end,
                    seconds: steps.iter().map(|s| s.seconds).sum(),
                    steps,
                }
            })
            .collect();
        CriticalPathReport { wall_seconds, chains }
    }

    /// True when no span carried simulated time.
    pub fn is_empty(&self) -> bool {
        self.chains.is_empty()
    }

    /// Text table of the top `top` chains.
    pub fn render(&self, top: usize) -> String {
        let mut out = String::new();
        if self.is_empty() {
            out.push_str("critical path: journal carries no simulated time\n");
            return out;
        }
        for (i, chain) in self.chains.iter().take(top).enumerate() {
            let share = if self.wall_seconds > 0.0 {
                100.0 * chain.end_seconds / self.wall_seconds
            } else {
                0.0
            };
            if i == 0 {
                out.push_str(&format!(
                    "critical path: {:.3}s over {} span{} ({:.1}% of wall {:.3}s)\n",
                    chain.seconds,
                    chain.steps.len(),
                    if chain.steps.len() == 1 { "" } else { "s" },
                    share,
                    self.wall_seconds
                ));
            } else {
                out.push_str(&format!(
                    "chain {}: ends {:.3}s ({:.1}% of wall), {:.3}s on path\n",
                    i + 1,
                    chain.end_seconds,
                    share,
                    chain.seconds
                ));
            }
            let name_w =
                chain.steps.iter().map(|s| s.path.len()).max().unwrap_or(4).max("span".len());
            for step in &chain.steps {
                out.push_str(&format!(
                    "  {:<name_w$}  {:>9.3}s  +{:.3}s  ({:.1}% of chain)\n",
                    step.path,
                    step.start_seconds,
                    step.seconds,
                    if chain.seconds > 0.0 { 100.0 * step.seconds / chain.seconds } else { 0.0 }
                ));
            }
        }
        if self.chains.len() > top {
            out.push_str(&format!("… {} more chain(s)\n", self.chains.len() - top));
        }
        out
    }
}

/// Backward greedy walk from sim time `end`: repeatedly pick the
/// deepest span with `sim_seconds > 0` whose end matches the current
/// time and step to its start, until the sim origin (or a gap no
/// span explains — sequential stages stamped by the pipeline leave
/// none).
fn walk_back(journal: &RunJournal, end: f64) -> Vec<CriticalPathStep> {
    let mut steps = Vec::new();
    let mut t = end;
    while t > EPS {
        let Some(span) = journal
            .spans
            .iter()
            .filter(|s| s.sim_seconds > 0.0 && (span_end(s) - t).abs() <= EPS)
            .max_by_key(|s| span_depth(journal, s))
        else {
            break;
        };
        steps.push(CriticalPathStep {
            path: relative_span_path(journal, span),
            start_seconds: span.sim_start_seconds,
            seconds: span.sim_seconds,
        });
        t = span.sim_start_seconds;
    }
    steps.reverse();
    steps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;

    /// A parallel-shaped run: two workers under `mine` (busy 6s and
    /// 4s from the sim origin), a zero-cost `merge`, `translate`
    /// (2s), and `evaluate` (3s) — wall 11s, compute 15s.
    fn sample(scale: f64) -> RunJournal {
        let rec = Recorder::new();
        let root = rec.root_scope().span("pipeline");
        let mine = root.scope().span("mine");
        for (w, busy) in [(0u64, 6.0), (1, 4.0)] {
            let worker = mine.scope().span_at(&format!("worker-{w}"), 0.0);
            worker.scope().add_sim_seconds(scale * busy);
            worker.finish();
        }
        mine.scope().add_sim_seconds(scale * 6.0);
        mine.finish();
        let merge = root.scope().span_at("merge", scale * 6.0);
        merge.finish();
        let translate = root.scope().span_at("translate", scale * 6.0);
        translate.scope().add_sim_seconds(scale * 2.0);
        translate.finish();
        let evaluate = root.scope().span_at("evaluate", scale * 8.0);
        evaluate.scope().add_sim_seconds(scale * 3.0);
        evaluate.finish();
        root.finish();
        rec.snapshot()
    }

    #[test]
    fn timeline_reconstructs_wall_compute_and_speedup() {
        let report = TimelineReport::from_journal(&sample(1.0));
        assert!((report.wall_seconds - 11.0).abs() < 1e-9, "{}", report.wall_seconds);
        // Workers (6 + 4) + translate 2 + evaluate 3; the mine stage
        // span's fleet wall-clock is rolled up, not double-counted.
        assert!((report.compute_seconds - 15.0).abs() < 1e-9, "{}", report.compute_seconds);
        assert!((report.speedup - 15.0 / 11.0).abs() < 1e-9);
        assert_eq!(report.workers.len(), 2);
        let w0 = &report.workers[0];
        assert_eq!(w0.name, "mine/worker-0");
        assert!((w0.busy_fraction - 6.0 / 11.0).abs() < 1e-9);
        assert!((w0.idle_seconds - 5.0).abs() < 1e-9);
        // Stage segments carry the stamped offsets.
        let eval = report.stages.iter().find(|s| s.stage == "evaluate").unwrap();
        assert!((eval.start_seconds - 8.0).abs() < 1e-9);
    }

    #[test]
    fn critical_path_walks_the_bounding_chain() {
        let report = CriticalPathReport::from_journal(&sample(1.0));
        let top = &report.chains[0];
        let paths: Vec<&str> = top.steps.iter().map(|s| s.path.as_str()).collect();
        // The slowest worker, not the mine stage span, bounds the run.
        assert_eq!(paths, ["mine/worker-0", "translate", "evaluate"]);
        assert!((top.seconds - 11.0).abs() < 1e-9, "{}", top.seconds);
        assert!((top.end_seconds - report.wall_seconds).abs() < 1e-9);
        // Secondary chains end earlier and never exceed the wall.
        for chain in &report.chains[1..] {
            assert!(chain.end_seconds < report.wall_seconds + 1e-9);
        }
    }

    #[test]
    fn renders_are_stable_and_name_lanes() {
        let report = TimelineReport::from_journal(&sample(1.0));
        let text = report.render(8);
        assert!(text.contains("mine/worker-0"), "{text}");
        assert!(text.contains("mine/worker-1"), "{text}");
        assert!(text.contains("speedup 1.36x"), "{text}");
        assert!(text.contains('#'), "{text}");
        let critical = CriticalPathReport::from_journal(&sample(1.0));
        let text = critical.render(3);
        assert!(text.contains("critical path: 11.000s"), "{text}");
        assert!(text.contains("evaluate"), "{text}");
    }
}
