//! Journal analytics: run-over-run diffing, folded-stack flamegraph
//! export, and the plan, lineage, fault and memory reports — the
//! machinery behind `grm trace diff|flame|plans|lineage|faults|mem`.
//!
//! Everything here reads frozen [`RunJournal`]s; nothing touches the
//! recorder, so analytics can run on journals from other machines or
//! other commits. The committed `BENCH_*.json` baselines are built
//! from these reports by `grm-bench` (`repro --baselines`).

use crate::histogram::Histogram;
use crate::journal::{HistoRecord, RunJournal, SpanRecord};
use crate::lineage::{BoundaryRecord, LineageRecord};
use crate::mem::FootprintRow;
use crate::resilience::{ChaosRecord, DegradedRecord};

/// Which clock weights the folded stacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlameWeight {
    /// Host wall-clock self-time, microseconds.
    Real,
    /// Simulated LLM seconds (each span's own attribution), milliseconds.
    Sim,
    /// Allocated bytes (self: span delta minus children's deltas).
    Mem,
}

/// Renders the journal as folded stacks — `a;b;c <weight>`, one line
/// per span — the input format of standard flamegraph tooling
/// (`flamegraph.pl`, inferno, speedscope).
///
/// `Real` weights are *self* times (span minus children) so stack
/// depths sum correctly; `Sim` weights are each span's own simulated
/// attribution, which is already exclusive by construction; `Mem`
/// weights are self allocated bytes (a span's v6 `Mem` delta minus
/// its children's, clamped at zero). Zero-weight frames are omitted.
pub fn folded_stacks(journal: &RunJournal, weight: FlameWeight) -> String {
    let span_alloc = |id: u64| -> u64 {
        journal
            .mems
            .iter()
            .find(|m| m.kind == "span" && m.span == Some(id))
            .map(|m| m.alloc_bytes)
            .unwrap_or(0)
    };
    let mut out = String::new();
    for span in &journal.spans {
        let value = match weight {
            FlameWeight::Real => {
                let children: f64 = journal.children(span).iter().map(|c| c.real_ms).sum();
                ((span.real_ms - children).max(0.0) * 1000.0).round() as u64
            }
            FlameWeight::Sim => (span.sim_seconds * 1000.0).round() as u64,
            FlameWeight::Mem => {
                let children: u64 = journal.children(span).iter().map(|c| span_alloc(c.id)).sum();
                span_alloc(span.id).saturating_sub(children)
            }
        };
        if value == 0 {
            continue;
        }
        out.push_str(&span_path(journal, span, ";"));
        out.push_str(&format!(" {value}\n"));
    }
    out
}

/// `/`- or `;`-joined span names from the root down to `span`.
pub(crate) fn span_path(journal: &RunJournal, span: &SpanRecord, sep: &str) -> String {
    let mut names = vec![span.name.clone()];
    let mut parent = span.parent;
    while let Some(pid) = parent {
        match journal.spans.iter().find(|s| s.id == pid) {
            Some(p) => {
                names.push(p.name.clone());
                parent = p.parent;
            }
            None => break,
        }
    }
    names.reverse();
    names.join(sep)
}

/// [`span_path`] without the root segment — diff rows are labelled
/// relative to the `pipeline` root (`mine`, `mine/worker-0`, …).
pub(crate) fn relative_span_path(journal: &RunJournal, span: &SpanRecord) -> String {
    let full = span_path(journal, span, "/");
    match full.split_once('/') {
        Some((_, rest)) => rest.to_owned(),
        None => full,
    }
}

/// One span row of a diff: sim/real on each side, keyed by the span's
/// path (`mine`, `mine/worker-0`, …). A side that lacks the span
/// reports zeros.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct StageDiffRow {
    pub path: String,
    /// Depth below the root (1 = pipeline stage, 2 = worker, …).
    pub depth: usize,
    pub sim_a: f64,
    pub sim_b: f64,
    pub real_a: f64,
    pub real_b: f64,
    /// Total db-hits charged to this stage (depth-1 rows only; always
    /// 0 when a journal carries no v3 `Plan` records).
    pub hits_a: u64,
    pub hits_b: u64,
    pub in_a: bool,
    pub in_b: bool,
}

impl StageDiffRow {
    /// Relative simulated-seconds change, `|b − a| / max(a, b)`;
    /// 0 when both sides are (near) zero.
    pub fn relative_sim_delta(&self) -> f64 {
        let denom = self.sim_a.max(self.sim_b);
        if denom < 1e-9 {
            0.0
        } else {
            (self.sim_b - self.sim_a).abs() / denom
        }
    }
}

/// One counter row of a diff.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CounterDiffRow {
    pub name: String,
    pub a: u64,
    pub b: u64,
}

/// One histogram row of a diff. `scope` is `(run)` for run-wide
/// histograms or the owning span's path (`mine/worker-0`, …) — the
/// per-worker rows a `--workers 1` vs `--workers 4` diff surfaces.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct HistoDiffRow {
    pub scope: String,
    pub name: String,
    pub a: Histogram,
    pub b: Histogram,
}

/// A structural comparison of two run journals.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TraceDiff {
    pub stages: Vec<StageDiffRow>,
    pub counters: Vec<CounterDiffRow>,
    pub histograms: Vec<HistoDiffRow>,
    /// True when *both* journals carry v3 `Plan` records — the gate
    /// for rendering the per-stage db-hits delta column (silently
    /// omitted when either side is a v2 journal).
    pub has_plans: bool,
}

impl TraceDiff {
    /// Compares journal `a` (before) against `b` (after).
    pub fn compute(a: &RunJournal, b: &RunJournal) -> TraceDiff {
        // Span rows: union of both journals' non-root spans, keyed by
        // path, in a-order then b-only order.
        let collect = |j: &RunJournal| -> Vec<(String, usize, f64, f64)> {
            j.spans
                .iter()
                .filter(|s| s.parent.is_some())
                .map(|s| {
                    let path = relative_span_path(j, s);
                    let depth = path.matches('/').count() + 1;
                    (path, depth, s.sim_seconds, s.real_ms)
                })
                .collect()
        };
        let rows_a = collect(a);
        let rows_b = collect(b);
        let hits_a = a.stage_db_hits();
        let hits_b = b.stage_db_hits();
        let stage_hits = |set: &[(String, u64)], path: &str| {
            set.iter().find(|(s, _)| s == path).map(|(_, h)| *h).unwrap_or(0)
        };
        let mut stages: Vec<StageDiffRow> = Vec::new();
        for (path, depth, sim, real) in &rows_a {
            let other = rows_b.iter().find(|(p, ..)| p == path);
            stages.push(StageDiffRow {
                path: path.clone(),
                depth: *depth,
                sim_a: *sim,
                sim_b: other.map(|(_, _, s, _)| *s).unwrap_or(0.0),
                real_a: *real,
                real_b: other.map(|(_, _, _, r)| *r).unwrap_or(0.0),
                hits_a: stage_hits(&hits_a, path),
                hits_b: stage_hits(&hits_b, path),
                in_a: true,
                in_b: other.is_some(),
            });
        }
        for (path, depth, sim, real) in &rows_b {
            if rows_a.iter().any(|(p, ..)| p == path) {
                continue;
            }
            stages.push(StageDiffRow {
                path: path.clone(),
                depth: *depth,
                sim_a: 0.0,
                sim_b: *sim,
                real_a: 0.0,
                real_b: *real,
                hits_a: 0,
                hits_b: stage_hits(&hits_b, path),
                in_a: false,
                in_b: true,
            });
        }

        // Counter rows: union of totals, name-sorted.
        let mut names: Vec<&String> =
            a.totals.iter().chain(b.totals.iter()).map(|(k, _)| k).collect();
        names.sort();
        names.dedup();
        let counters = names
            .into_iter()
            .map(|name| CounterDiffRow { name: name.clone(), a: a.total(name), b: b.total(name) })
            .collect();

        // Histogram rows: union over (scope, name).
        let scoped = |j: &RunJournal| -> Vec<(String, String, Histogram)> {
            j.histos
                .iter()
                .map(|h: &HistoRecord| {
                    let scope = match h.span {
                        None => "(run)".to_owned(),
                        Some(id) => j
                            .spans
                            .iter()
                            .find(|s| s.id == id)
                            .map(|s| relative_span_path(j, s))
                            .unwrap_or_else(|| format!("span-{id}")),
                    };
                    (scope, h.name.clone(), h.histogram.clone())
                })
                .collect()
        };
        let ha = scoped(a);
        let hb = scoped(b);
        let mut keys: Vec<(String, String)> =
            ha.iter().chain(hb.iter()).map(|(s, n, _)| (s.clone(), n.clone())).collect();
        keys.sort();
        keys.dedup();
        let find = |set: &[(String, String, Histogram)], key: &(String, String)| {
            set.iter()
                .find(|(s, n, _)| (s, n) == (&key.0, &key.1))
                .map(|(_, _, h)| h.clone())
                .unwrap_or_default()
        };
        let histograms = keys
            .iter()
            .map(|key| HistoDiffRow {
                scope: key.0.clone(),
                name: key.1.clone(),
                a: find(&ha, key),
                b: find(&hb, key),
            })
            .collect();

        TraceDiff { stages, counters, histograms, has_plans: a.has_plans() && b.has_plans() }
    }

    /// Largest relative simulated-seconds change over the top-level
    /// stage rows — the quantity `grm trace diff --tolerance` gates.
    pub fn max_relative_sim_delta(&self) -> f64 {
        self.stages
            .iter()
            .filter(|r| r.depth == 1)
            .map(|r| r.relative_sim_delta())
            .fold(0.0, f64::max)
    }

    /// Human-readable rendering of the full diff. The per-stage
    /// db-hits delta column appears only when both journals carry v3
    /// `Plan` records.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let hits_header = if self.has_plans { "  db-hits A -> B" } else { "" };
        out.push_str(&format!(
            "per-span timings (sim seconds, A -> B):\n  {:<28} {:>10} {:>10} {:>8}  {}{}\n",
            "span", "sim A", "sim B", "Δ%", "real A -> B (ms)", hits_header
        ));
        for row in &self.stages {
            let presence = match (row.in_a, row.in_b) {
                (true, false) => "  [only in A]",
                (false, true) => "  [only in B]",
                _ => "",
            };
            let hits = if self.has_plans && (row.hits_a > 0 || row.hits_b > 0) {
                let delta = row.hits_b as i64 - row.hits_a as i64;
                format!("  hits {} -> {} ({delta:+})", row.hits_a, row.hits_b)
            } else {
                String::new()
            };
            out.push_str(&format!(
                "  {:<28} {:>10.2} {:>10.2} {:>7.1}%  {:.1} -> {:.1}{}{}\n",
                row.path,
                row.sim_a,
                row.sim_b,
                100.0 * row.relative_sim_delta(),
                row.real_a,
                row.real_b,
                hits,
                presence
            ));
        }
        out.push_str("counter totals (A -> B):\n");
        for c in &self.counters {
            let delta = c.b as i64 - c.a as i64;
            out.push_str(&format!("  {:<28} {:>10} -> {:<10} ({delta:+})\n", c.name, c.a, c.b));
        }
        out.push_str(&format!(
            "histograms (A -> B):\n  {:<24} {:<24} {:>11} {:>21} {:>21}\n",
            "scope", "name", "count", "p50", "p95"
        ));
        for h in &self.histograms {
            out.push_str(&format!(
                "  {:<24} {:<24} {:>4} -> {:<4} {:>9.4} -> {:<9.4} {:>9.4} -> {:<9.4}\n",
                h.scope,
                h.name,
                h.a.count(),
                h.b.count(),
                h.a.p50(),
                h.b.p50(),
                h.a.p95(),
                h.b.p95(),
            ));
        }
        out
    }
}

/// One operator row of a [`PlanReport`], aggregated over every plan
/// record in the journal by `(op, detail)`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlanOpAgg {
    pub op: String,
    pub detail: String,
    pub calls: u64,
    pub rows_in: u64,
    pub rows: u64,
    pub db_hits: u64,
    pub self_us: u64,
    pub sim_us: u64,
}

impl PlanOpAgg {
    /// Output/input row ratio — the selectivity of filtering
    /// operators (`None` when the operator consumed no rows).
    pub fn selectivity(&self) -> Option<f64> {
        (self.rows_in > 0).then(|| self.rows as f64 / self.rows_in as f64)
    }
}

/// One scope (rule) row of a [`PlanReport`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlanScopeAgg {
    pub scope: String,
    pub queries: u64,
    pub rows: u64,
    pub db_hits: u64,
    pub total_us: u64,
    pub sim_us: u64,
    pub slow: bool,
}

/// The aggregation behind `grm trace plans`: every `Plan` record of a
/// journal folded into per-operator and per-scope cost tables.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlanReport {
    /// Operators sorted by db-hits descending (ties by op/detail).
    pub ops: Vec<PlanOpAgg>,
    /// Scopes sorted by db-hits descending (ties by scope name).
    pub scopes: Vec<PlanScopeAgg>,
}

impl PlanReport {
    /// Aggregates the journal's `Plan` records. Empty report (no rows
    /// at all) means the journal carries none — pre-v3 input.
    pub fn from_journal(journal: &RunJournal) -> PlanReport {
        let mut ops: Vec<PlanOpAgg> = Vec::new();
        let mut scopes: Vec<PlanScopeAgg> = Vec::new();
        for plan in &journal.plans {
            for op in &plan.ops {
                let row = match ops.iter_mut().find(|o| o.op == op.op && o.detail == op.detail) {
                    Some(row) => row,
                    None => {
                        ops.push(PlanOpAgg {
                            op: op.op.clone(),
                            detail: op.detail.clone(),
                            ..PlanOpAgg::default()
                        });
                        ops.last_mut().expect("just pushed")
                    }
                };
                row.calls += op.calls;
                row.rows_in += op.rows_in;
                row.rows += op.rows;
                row.db_hits += op.db_hits();
                row.self_us += op.self_us;
                row.sim_us += op.sim_us;
            }
            match scopes.iter_mut().find(|s| s.scope == plan.scope) {
                Some(s) => {
                    s.queries += plan.queries;
                    s.rows += plan.rows;
                    s.db_hits += plan.db_hits();
                    s.total_us += plan.total_us;
                    s.sim_us += plan.sim_us;
                    s.slow |= plan.slow;
                }
                None => scopes.push(PlanScopeAgg {
                    scope: plan.scope.clone(),
                    queries: plan.queries,
                    rows: plan.rows,
                    db_hits: plan.db_hits(),
                    total_us: plan.total_us,
                    sim_us: plan.sim_us,
                    slow: plan.slow,
                }),
            }
        }
        ops.sort_by(|a, b| {
            b.db_hits.cmp(&a.db_hits).then_with(|| (&a.op, &a.detail).cmp(&(&b.op, &b.detail)))
        });
        scopes.sort_by(|a, b| b.db_hits.cmp(&a.db_hits).then_with(|| a.scope.cmp(&b.scope)));
        PlanReport { ops, scopes }
    }

    pub fn is_empty(&self) -> bool {
        self.ops.is_empty() && self.scopes.is_empty()
    }

    /// The operator/scope cost tables, each truncated to `top` rows.
    /// Selectivity (`rows/rows_in`) makes filter effectiveness
    /// readable straight off the operator table.
    pub fn render(&self, top: usize) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "top operators by db-hits:\n  {:<18} {:<26} {:>8} {:>9} {:>9} {:>6} {:>10} {:>9} {:>9}\n",
            "operator", "detail", "calls", "rows in", "rows out", "sel%", "db-hits", "self ms", "sim ms"
        ));
        for op in self.ops.iter().take(top) {
            let sel = match op.selectivity() {
                Some(s) => format!("{:.0}%", s * 100.0),
                None => "-".to_owned(),
            };
            out.push_str(&format!(
                "  {:<18} {:<26} {:>8} {:>9} {:>9} {:>6} {:>10} {:>9.2} {:>9.2}\n",
                op.op,
                op.detail,
                op.calls,
                op.rows_in,
                op.rows,
                sel,
                op.db_hits,
                op.self_us as f64 / 1_000.0,
                op.sim_us as f64 / 1_000.0,
            ));
        }
        if self.ops.len() > top {
            out.push_str(&format!("  … {} more operators\n", self.ops.len() - top));
        }
        out.push_str(&format!(
            "db-hits per scope:\n  {:<22} {:>7} {:>9} {:>10} {:>9} {:>9}\n",
            "scope", "queries", "rows", "db-hits", "real ms", "sim ms"
        ));
        for s in self.scopes.iter().take(top) {
            out.push_str(&format!(
                "  {:<22} {:>7} {:>9} {:>10} {:>9.2} {:>9.2}{}\n",
                s.scope,
                s.queries,
                s.rows,
                s.db_hits,
                s.total_us as f64 / 1_000.0,
                s.sim_us as f64 / 1_000.0,
                if s.slow { "  SLOW" } else { "" },
            ));
        }
        if self.scopes.len() > top {
            out.push_str(&format!("  … {} more scopes\n", self.scopes.len() - top));
        }
        out
    }
}

/// Run-wide optimizer counters, read off a journal's counter totals —
/// the table behind the `grm trace plans` optimizer section and its
/// `--json` artifact.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct OptimizerReport {
    /// Queries answered from the result memo without executing.
    pub memoized_queries: u64,
    /// `WHERE` equality conjuncts pushed into pattern property maps.
    pub predicates_pushed: u64,
    /// Node patterns re-anchored on their most selective label.
    pub labels_reordered: u64,
    /// `MATCH` clauses re-sequenced cheapest-anchor-first.
    pub patterns_reordered: u64,
    /// Paths pre-reversed towards their cheaper end.
    pub paths_reversed: u64,
}

impl OptimizerReport {
    /// Reads the run-wide counter totals.
    pub fn from_journal(journal: &RunJournal) -> OptimizerReport {
        OptimizerReport {
            memoized_queries: journal.total("cypher_queries_memoized"),
            predicates_pushed: journal.total("optimizer_predicates_pushed"),
            labels_reordered: journal.total("optimizer_labels_reordered"),
            patterns_reordered: journal.total("optimizer_patterns_reordered"),
            paths_reversed: journal.total("optimizer_paths_reversed"),
        }
    }

    /// True when the run neither memoized nor rewrote a query.
    pub fn is_empty(&self) -> bool {
        *self == OptimizerReport::default()
    }

    /// One-row summary table for the text mode of `grm trace plans`.
    pub fn render(&self) -> String {
        format!(
            "optimizer:\n  {:<9} {:>7} {:>9} {:>9} {:>10}\n  {:<9} {:>7} {:>9} {:>9} {:>10}\n",
            "memoized",
            "pushed",
            "relabels",
            "reorders",
            "reversals",
            self.memoized_queries,
            self.predicates_pushed,
            self.labels_reordered,
            self.patterns_reordered,
            self.paths_reversed,
        )
    }
}

/// One origin row of a [`LineageReport`]: how many selected rules a
/// single encoded context (window/chunk/summary) yielded.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct OriginYield {
    /// Stable context id (`window-<i>`, `chunk-<i>`, `summary`).
    pub origin: String,
    /// First token of the context in the encoded text.
    pub start_token: u64,
    /// Context length in tokens.
    pub token_len: u64,
    /// Selected rules attributed to this context.
    pub rules: u64,
    /// Of those, rules whose translation was classified `correct`.
    pub correct: u64,
}

/// The aggregation behind `grm trace lineage`: every `Lineage` record
/// of a journal folded into a per-rule provenance table, per-origin
/// rule yields, an error-class tally, and the window-boundary
/// breakages. Serialisable as-is — `grm trace lineage --json` emits
/// it with `serde_json::to_string_pretty`.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LineageReport {
    /// Lineage records in rule-index order.
    pub rules: Vec<LineageRecord>,
    /// Per-origin yields, sorted by (start_token, origin id).
    pub yields: Vec<OriginYield>,
    /// Error-class tally over `error_class`, name-sorted.
    pub classes: Vec<(String, u64)>,
    /// Window-boundary breakages, sorted by (first, last, node).
    pub boundaries: Vec<BoundaryRecord>,
}

impl LineageReport {
    /// Aggregates the journal's `Lineage` and `Boundary` records.
    /// Empty report means the journal carries none — pre-v4 input.
    pub fn from_journal(journal: &RunJournal) -> LineageReport {
        let mut rules = journal.lineages.clone();
        rules.sort_by_key(|l| l.index);
        let mut yields: Vec<OriginYield> = Vec::new();
        let mut classes: Vec<(String, u64)> = Vec::new();
        for lineage in &rules {
            let correct = (lineage.error_class == "correct") as u64;
            for origin in &lineage.origins {
                match yields.iter_mut().find(|y| y.origin == origin.id) {
                    Some(y) => {
                        y.rules += 1;
                        y.correct += correct;
                    }
                    None => yields.push(OriginYield {
                        origin: origin.id.clone(),
                        start_token: origin.start_token,
                        token_len: origin.token_len,
                        rules: 1,
                        correct,
                    }),
                }
            }
            match classes.iter_mut().find(|(name, _)| *name == lineage.error_class) {
                Some((_, n)) => *n += 1,
                None => classes.push((lineage.error_class.clone(), 1)),
            }
        }
        yields.sort_by(|a, b| (a.start_token, &a.origin).cmp(&(b.start_token, &b.origin)));
        classes.sort_by(|(a, _), (b, _)| a.cmp(b));
        let mut boundaries = journal.boundaries.clone();
        boundaries.sort_by(|a, b| {
            (a.first_window, a.last_window, &a.node).cmp(&(b.first_window, b.last_window, &b.node))
        });
        LineageReport { rules, yields, classes, boundaries }
    }

    pub fn is_empty(&self) -> bool {
        self.rules.is_empty() && self.boundaries.is_empty()
    }

    /// The provenance tables: origin → rules → error class → scores,
    /// then the per-origin yields, the class tally, and the §4.5
    /// boundary breakages.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "rule lineage (origin -> rule -> error class -> scores):\n  \
             {:<9} {:>4} {:>3} {:<22} {:<22} {:>3} {:>7} {:>7} {:>7}  {}\n",
            "rule", "freq", "att", "class", "final", "fix", "supp", "cov%", "conf%", "origins"
        ));
        for l in &self.rules {
            let origins: Vec<String> = l
                .origins
                .iter()
                .map(|o| format!("{}@{}+{}", o.id, o.start_token, o.token_len))
                .collect();
            out.push_str(&format!(
                "  {:<9} {:>4} {:>3} {:<22} {:<22} {:>3} {:>7} {:>7} {:>7}  {}\n",
                l.rule,
                l.frequency,
                l.translation_attempts,
                l.error_class,
                l.final_class,
                if l.corrected { "yes" } else { "no" },
                l.support.map(|s| s.to_string()).unwrap_or_else(|| "-".into()),
                l.coverage_pct.map(|c| format!("{c:.1}")).unwrap_or_else(|| "-".into()),
                l.confidence_pct.map(|c| format!("{c:.1}")).unwrap_or_else(|| "-".into()),
                origins.join(", "),
            ));
        }
        out.push_str("error classes:\n");
        for (name, count) in &self.classes {
            out.push_str(&format!("  {name:<26} {count}\n"));
        }
        out.push_str(&format!(
            "per-origin rule yield:\n  {:<12} {:>11} {:>10} {:>6} {:>8}\n",
            "origin", "start_token", "token_len", "rules", "correct"
        ));
        for y in &self.yields {
            out.push_str(&format!(
                "  {:<12} {:>11} {:>10} {:>6} {:>8}\n",
                y.origin, y.start_token, y.token_len, y.rules, y.correct
            ));
        }
        out.push_str(&format!("window-boundary breakages: {}\n", self.boundaries.len()));
        for b in &self.boundaries {
            out.push_str(&format!(
                "  {:<8} spans window-{}..window-{}\n",
                b.node, b.first_window, b.last_window
            ));
        }
        out
    }
}

/// Renders one rule's full ancestry chain for `grm explain`: origins
/// with token ranges, merge frequency, translation attempts, error
/// class and correction, final scores, and (when the journal carries
/// plan records) the rule's query-profile cost. `None` when the
/// journal has no lineage for `rule`.
pub fn explain_rule(journal: &RunJournal, rule: &str) -> Option<String> {
    let l = journal.lineage(rule)?;
    let mut out = String::new();
    out.push_str(&format!("{}: {}\n", l.rule, l.nl));
    out.push_str(&format!("  strategy:    {}\n", l.strategy));
    out.push_str(&format!("  mined from {} context(s):\n", l.origins.len()));
    for o in &l.origins {
        out.push_str(&format!(
            "    {:<10} tokens {}..{}\n",
            o.id,
            o.start_token,
            o.start_token + o.token_len
        ));
    }
    out.push_str(&format!(
        "  merge:       mined {} time(s) before dedup (frequency {})\n",
        l.frequency, l.frequency
    ));
    out.push_str(&format!(
        "  translation: {} attempt(s), error class {} -> {}{}\n",
        l.translation_attempts,
        l.error_class,
        l.final_class,
        if l.corrected { " (correction applied)" } else { "" }
    ));
    match (l.support, l.coverage_pct, l.confidence_pct) {
        (Some(support), Some(coverage), Some(confidence)) => out.push_str(&format!(
            "  scores:      support {support}, coverage {coverage:.2}%, confidence {confidence:.2}%\n"
        )),
        _ => out.push_str(&format!("  scores:      not scored (final class {})\n", l.final_class)),
    }
    if let Some(plan) = journal.plan(&l.rule) {
        out.push_str(&format!(
            "  profile:     {} queries, {} db-hits, {:.2}ms real{}\n",
            plan.queries,
            plan.db_hits(),
            plan.total_us as f64 / 1_000.0,
            if plan.slow { "  SLOW" } else { "" }
        ));
    }
    Some(out)
}

/// Per-stage fault digest inside a [`FaultReport`].
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct StageFaults {
    /// Stage name: `mine`, `translate`, or `evaluate`.
    pub stage: String,
    /// Faults injected into this stage's units.
    pub faults: u64,
    /// Fault-kind counts, name-sorted.
    pub kinds: Vec<(String, u64)>,
    /// Units that faulted at least once and eventually completed.
    pub recovered: u64,
    /// Units abandoned after exhausting their retries.
    pub abandoned: u64,
    /// Units the pipeline gave up on (abandoned or breaker-skipped).
    pub degraded: u64,
    /// Simulated seconds lost to the faults themselves.
    pub cost_seconds: f64,
    /// Simulated seconds spent backing off between attempts.
    pub backoff_seconds: f64,
}

/// The aggregation behind `grm trace faults`: every v5 resilience
/// record of a journal folded into the chaos identity, a per-stage
/// fault digest, the degraded-unit list, and the checkpoint count.
/// Serialisable as-is for `grm trace faults --json`.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FaultReport {
    /// Chaos-run identity, when the journal carries one.
    pub chaos: Option<ChaosRecord>,
    /// Per-stage digests, stage-name-sorted.
    pub stages: Vec<StageFaults>,
    /// Degraded units, (stage, unit)-sorted.
    pub degraded: Vec<DegradedRecord>,
    /// Completed-unit checkpoints available to `--resume`.
    pub checkpoints: u64,
    /// Stage-breaker trips (run-wide counter).
    pub breaker_trips: u64,
    /// Damaged lines a lossy parse dropped.
    pub corrupt_lines: u64,
    /// Unknown-record lines a parse skipped.
    pub unknown_lines: u64,
}

impl FaultReport {
    /// Aggregates the journal's resilience records. Empty report
    /// means the journal carries none — a fault-free (or pre-v5) run.
    pub fn from_journal(journal: &RunJournal) -> FaultReport {
        let mut stages: Vec<StageFaults> = Vec::new();
        let stage_mut = |name: &str, stages: &mut Vec<StageFaults>| -> usize {
            match stages.iter().position(|s| s.stage == name) {
                Some(i) => i,
                None => {
                    stages.push(StageFaults { stage: name.to_owned(), ..StageFaults::default() });
                    stages.len() - 1
                }
            }
        };
        for fault in &journal.faults {
            let i = stage_mut(&fault.stage, &mut stages);
            let s = &mut stages[i];
            s.faults += 1;
            s.cost_seconds += fault.cost_seconds;
            s.backoff_seconds += fault.backoff_seconds;
            match s.kinds.iter_mut().find(|(k, _)| *k == fault.kind) {
                Some((_, n)) => *n += 1,
                None => s.kinds.push((fault.kind.clone(), 1)),
            }
        }
        for retry in &journal.retries {
            let i = stage_mut(&retry.stage, &mut stages);
            if retry.recovered {
                stages[i].recovered += 1;
            } else {
                stages[i].abandoned += 1;
            }
        }
        for record in &journal.degraded {
            let i = stage_mut(&record.stage, &mut stages);
            stages[i].degraded += 1;
        }
        for s in &mut stages {
            s.kinds.sort_by(|(a, _), (b, _)| a.cmp(b));
        }
        stages.sort_by(|a, b| a.stage.cmp(&b.stage));
        let mut degraded = journal.degraded.clone();
        degraded.sort_by(|a, b| (&a.stage, &a.unit).cmp(&(&b.stage, &b.unit)));
        FaultReport {
            chaos: journal.chaos.clone(),
            stages,
            degraded,
            checkpoints: journal.checkpoints.len() as u64,
            breaker_trips: journal.total(crate::counter::Counter::BreakerTrips.name()),
            corrupt_lines: journal.corrupt_lines,
            unknown_lines: journal.unknown_lines,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.chaos.is_none() && self.stages.is_empty() && self.degraded.is_empty()
    }

    /// The fault tables: chaos identity, per-stage digest, degraded
    /// units, checkpoints, and parse losses.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if let Some(c) = &self.chaos {
            out.push_str(&format!(
                "chaos run: seed {} fault-seed {} fault-rate {} max-retries {} \
                 breaker-threshold {}\n  {} / {} / {} on {} nodes, {} edges\n",
                c.run_seed,
                c.fault_seed,
                c.fault_rate,
                c.max_retries,
                c.breaker_threshold,
                c.model,
                c.strategy,
                c.prompting,
                c.graph_nodes,
                c.graph_edges
            ));
        }
        out.push_str(&format!(
            "faults by stage:\n  {:<10} {:>7} {:>9} {:>9} {:>9} {:>10} {:>11}  {}\n",
            "stage",
            "faults",
            "recovered",
            "abandoned",
            "degraded",
            "cost(s)",
            "backoff(s)",
            "kinds"
        ));
        for s in &self.stages {
            let kinds: Vec<String> = s.kinds.iter().map(|(k, n)| format!("{k}={n}")).collect();
            out.push_str(&format!(
                "  {:<10} {:>7} {:>9} {:>9} {:>9} {:>10.2} {:>11.2}  {}\n",
                s.stage,
                s.faults,
                s.recovered,
                s.abandoned,
                s.degraded,
                s.cost_seconds,
                s.backoff_seconds,
                kinds.join(", ")
            ));
        }
        out.push_str(&format!("degraded units: {}\n", self.degraded.len()));
        for d in &self.degraded {
            out.push_str(&format!("  {:<10} {:<12} {}\n", d.stage, d.unit, d.reason));
        }
        out.push_str(&format!(
            "breaker trips: {}\ncheckpoints: {}\n",
            self.breaker_trips, self.checkpoints
        ));
        if self.corrupt_lines + self.unknown_lines > 0 {
            out.push_str(&format!(
                "skipped lines: {} corrupt dropped, {} unknown record kinds\n",
                self.corrupt_lines, self.unknown_lines
            ));
        }
        out
    }
}

/// One span row of a [`MemReport`], keyed by the span's path.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct MemSpanRow {
    pub path: String,
    /// Bytes allocated between span open and close (inclusive of
    /// children).
    pub alloc_bytes: u64,
    pub alloc_count: u64,
    pub dealloc_count: u64,
    /// Growth of the process peak while the span was open.
    pub peak_delta: u64,
}

/// One footprint component of a [`MemReport`] (`graph`, `vecstore`).
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct MemComponent {
    pub component: String,
    /// Per-structure rows, as journaled.
    pub rows: Vec<FootprintRow>,
    /// Total bytes over the rows.
    pub bytes: u64,
}

/// The aggregation behind `grm trace mem`: every v6 `Mem` record of a
/// journal folded into an allocating-spans table, the run-wide
/// allocator totals, and the deterministic footprint breakdown.
/// Serialisable as-is for `grm trace mem --json`.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct MemReport {
    /// Span rows sorted by allocated bytes descending (ties by path).
    pub spans: Vec<MemSpanRow>,
    /// Run-wide process peak, bytes (0 without the tracking
    /// allocator).
    pub run_peak_bytes: u64,
    /// Run-wide bytes allocated between recorder start and snapshot.
    pub run_alloc_bytes: u64,
    pub run_alloc_count: u64,
    pub run_dealloc_count: u64,
    /// Footprint components, name-sorted.
    pub components: Vec<MemComponent>,
}

impl MemReport {
    /// Aggregates the journal's `Mem` records. Empty report means the
    /// journal carries none — pre-v6 input, or a run whose binary
    /// never installed [`crate::TrackingAlloc`] and recorded no
    /// footprints either.
    pub fn from_journal(journal: &RunJournal) -> MemReport {
        let mut report = MemReport::default();
        for mem in &journal.mems {
            match mem.kind.as_str() {
                "span" => {
                    let path = mem
                        .span
                        .and_then(|id| journal.spans.iter().find(|s| s.id == id))
                        .map(|s| span_path(journal, s, "/"))
                        .unwrap_or_else(|| "(run)".to_owned());
                    report.spans.push(MemSpanRow {
                        path,
                        alloc_bytes: mem.alloc_bytes,
                        alloc_count: mem.alloc_count,
                        dealloc_count: mem.dealloc_count,
                        peak_delta: mem.peak_delta,
                    });
                }
                "run" => {
                    report.run_peak_bytes = report.run_peak_bytes.max(mem.peak_bytes);
                    report.run_alloc_bytes += mem.alloc_bytes;
                    report.run_alloc_count += mem.alloc_count;
                    report.run_dealloc_count += mem.dealloc_count;
                }
                _ => {
                    let component =
                        match report.components.iter_mut().find(|c| c.component == mem.component) {
                            Some(c) => c,
                            None => {
                                report.components.push(MemComponent {
                                    component: mem.component.clone(),
                                    ..MemComponent::default()
                                });
                                report.components.last_mut().expect("just pushed")
                            }
                        };
                    component.bytes += mem.footprint_bytes();
                    component.rows.extend(mem.footprint.iter().cloned());
                }
            }
        }
        report
            .spans
            .sort_by(|a, b| b.alloc_bytes.cmp(&a.alloc_bytes).then_with(|| a.path.cmp(&b.path)));
        report.components.sort_by(|a, b| a.component.cmp(&b.component));
        report
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.components.is_empty() && self.run_alloc_count == 0
    }

    /// Total deterministic footprint bytes over every component.
    pub fn footprint_bytes(&self) -> u64 {
        self.components.iter().map(|c| c.bytes).sum()
    }

    /// The memory tables: top-`top` allocating spans, the run totals,
    /// then the footprint breakdown.
    pub fn render(&self, top: usize) -> String {
        let mut out = String::new();
        if !self.spans.is_empty() {
            out.push_str(&format!(
                "top allocating spans:\n  {:<28} {:>14} {:>10} {:>10} {:>14}\n",
                "span", "alloc bytes", "allocs", "frees", "peak delta"
            ));
            for s in self.spans.iter().take(top) {
                out.push_str(&format!(
                    "  {:<28} {:>14} {:>10} {:>10} {:>14}\n",
                    s.path, s.alloc_bytes, s.alloc_count, s.dealloc_count, s.peak_delta
                ));
            }
            if self.spans.len() > top {
                out.push_str(&format!("  … {} more spans\n", self.spans.len() - top));
            }
        }
        if self.run_alloc_count > 0 {
            out.push_str(&format!(
                "run totals: {} bytes allocated in {} allocs ({} frees), peak {} bytes\n",
                self.run_alloc_bytes,
                self.run_alloc_count,
                self.run_dealloc_count,
                self.run_peak_bytes
            ));
        }
        out.push_str(&format!(
            "deterministic footprint ({} bytes total):\n",
            self.footprint_bytes()
        ));
        for c in &self.components {
            out.push_str(&format!("  {:<12} {:>14} bytes\n", c.component, c.bytes));
            for row in &c.rows {
                out.push_str(&format!(
                    "    {:<18} {:>10} x {:>12} bytes\n",
                    row.name, row.count, row.bytes
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter::{Counter, Histo};
    use crate::plan::{PlanOpRecord, PlanRecord};
    use crate::recorder::Recorder;

    /// A small two-stage recording with per-worker children.
    fn sample(scale: f64) -> RunJournal {
        let rec = Recorder::new();
        let root = rec.root_scope().span("pipeline");
        let mine = root.scope().span("mine");
        for w in 0..2u64 {
            let worker = mine.scope().span(&format!("worker-{w}"));
            let scope = worker.scope();
            scope.add(Counter::PromptsIssued, 3);
            for i in 0..3 {
                scope.observe(Histo::MineCallSeconds, scale * (1.0 + i as f64));
                scope.add_sim_seconds(scale * (1.0 + i as f64));
            }
            worker.finish();
        }
        mine.scope().add_sim_seconds(scale * 6.0);
        mine.finish();
        root.finish();
        rec.snapshot()
    }

    #[test]
    fn identical_journals_diff_to_zero() {
        let a = sample(1.0);
        let b = sample(1.0);
        let diff = TraceDiff::compute(&a, &b);
        assert_eq!(diff.max_relative_sim_delta(), 0.0);
        assert!(diff.counters.iter().all(|c| c.a == c.b));
        let render = diff.render();
        assert!(render.contains("mine"));
        assert!(render.contains("prompts_issued"));
    }

    #[test]
    fn slower_run_exceeds_tolerance() {
        let a = sample(1.0);
        let b = sample(1.5);
        let diff = TraceDiff::compute(&a, &b);
        assert!(diff.max_relative_sim_delta() > 0.3);
        assert!(diff.max_relative_sim_delta() < 0.35);
    }

    #[test]
    fn worker_rows_appear_when_only_one_side_has_them() {
        let rec = Recorder::new();
        let root = rec.root_scope().span("pipeline");
        let mine = root.scope().span("mine");
        mine.scope().observe(Histo::MineCallSeconds, 2.0);
        mine.scope().add_sim_seconds(2.0);
        mine.finish();
        root.finish();
        let serial = rec.snapshot();
        let parallel = sample(1.0);

        let diff = TraceDiff::compute(&serial, &parallel);
        let worker_rows: Vec<&StageDiffRow> =
            diff.stages.iter().filter(|r| r.path.starts_with("mine/worker-")).collect();
        assert_eq!(worker_rows.len(), 2);
        assert!(worker_rows.iter().all(|r| !r.in_a && r.in_b));
        // Per-worker histogram rows are present for side B only.
        let worker_histos: Vec<&HistoDiffRow> =
            diff.histograms.iter().filter(|h| h.scope.starts_with("mine/worker-")).collect();
        assert_eq!(worker_histos.len(), 2);
        assert!(worker_histos.iter().all(|h| h.a.is_empty() && !h.b.is_empty()));
    }

    #[test]
    fn folded_stacks_use_semicolon_paths() {
        let journal = sample(1.0);
        let sim = folded_stacks(&journal, FlameWeight::Sim);
        assert!(sim.contains("pipeline;mine;worker-0 "), "{sim}");
        for line in sim.lines() {
            let (_, weight) = line.rsplit_once(' ').expect("weighted line");
            assert!(weight.parse::<u64>().is_ok(), "{line}");
        }
        // Real weights are self-times: parseable and non-negative.
        for line in folded_stacks(&journal, FlameWeight::Real).lines() {
            let (_, weight) = line.rsplit_once(' ').expect("weighted line");
            assert!(weight.parse::<u64>().is_ok(), "{line}");
        }
    }

    /// `sample(scale)` plus an `evaluate` stage carrying plan records
    /// whose db-hits scale with `hits`.
    fn sample_with_plans(hits: u64) -> RunJournal {
        let rec = Recorder::new();
        let root = rec.root_scope().span("pipeline");
        let evaluate = root.scope().span("evaluate");
        for r in 0..2u64 {
            let mut plan = PlanRecord::new(format!("rule-{r}"));
            plan.absorb(
                vec![
                    PlanOpRecord {
                        path: "ProduceResults/Filter/NodeByLabelScan".into(),
                        op: "NodeByLabelScan".into(),
                        detail: "(p:Person)".into(),
                        calls: 1,
                        rows: hits,
                        db_nodes: hits,
                        self_us: 40,
                        sim_us: 20,
                        ..PlanOpRecord::default()
                    },
                    PlanOpRecord {
                        path: "ProduceResults/Filter".into(),
                        op: "Filter".into(),
                        detail: "p.age > 30".into(),
                        calls: 1,
                        rows_in: hits,
                        rows: hits / 2,
                        db_props: hits,
                        self_us: 10,
                        sim_us: 5,
                        ..PlanOpRecord::default()
                    },
                ],
                hits / 2,
                120,
                60,
            );
            evaluate.scope().record(plan);
        }
        evaluate.finish();
        root.finish();
        rec.snapshot()
    }

    #[test]
    fn plan_report_aggregates_and_renders() {
        let journal = sample_with_plans(100);
        let report = PlanReport::from_journal(&journal);
        assert!(!report.is_empty());
        // Two rules, same two operators: merged into two op rows.
        assert_eq!(report.ops.len(), 2);
        let scan = report.ops.iter().find(|o| o.op == "NodeByLabelScan").unwrap();
        assert_eq!(scan.db_hits, 200);
        let filter = report.ops.iter().find(|o| o.op == "Filter").unwrap();
        assert_eq!(filter.rows_in, 200);
        assert_eq!(filter.rows, 100);
        assert_eq!(filter.selectivity(), Some(0.5));
        assert_eq!(report.scopes.len(), 2);
        let rendered = report.render(10);
        assert!(rendered.contains("NodeByLabelScan"), "{rendered}");
        assert!(rendered.contains("rule-0"), "{rendered}");
        assert!(rendered.contains("50%"), "{rendered}");
        // Truncation note appears when top-k cuts the table.
        assert!(PlanReport::from_journal(&journal).render(1).contains("more"), "empty");
        // A plan-free journal aggregates to an empty report.
        assert!(PlanReport::from_journal(&sample(1.0)).is_empty());
    }

    #[test]
    fn diff_db_hits_column_requires_plans_on_both_sides() {
        let with = sample_with_plans(100);
        let without = sample(1.0);
        let mixed = TraceDiff::compute(&with, &without);
        assert!(!mixed.has_plans);
        assert!(!mixed.render().contains("db-hits"));

        let both = TraceDiff::compute(&sample_with_plans(100), &sample_with_plans(120));
        assert!(both.has_plans);
        let evaluate = both.stages.iter().find(|r| r.path == "evaluate").unwrap();
        assert_eq!(evaluate.hits_a, 400);
        assert_eq!(evaluate.hits_b, 480);
        let rendered = both.render();
        assert!(rendered.contains("db-hits"), "{rendered}");
        assert!(rendered.contains("hits 400 -> 480 (+80)"), "{rendered}");
    }

    /// `sample(scale)` plus an `evaluate` stage carrying lineage for
    /// two rules mined from two windows, and one boundary breakage.
    fn sample_with_lineage(class_of_rule_1: &str) -> RunJournal {
        use crate::lineage::{BoundaryRecord, LineageRecord, OriginRef};
        let rec = Recorder::new();
        let root = rec.root_scope().span("pipeline");
        let encode = root.scope().span("encode");
        encode.scope().record(BoundaryRecord {
            span: None,
            node: "n14".into(),
            first_window: 0,
            last_window: 1,
        });
        encode.finish();
        let evaluate = root.scope().span("evaluate");
        let origin =
            |i: u64| OriginRef { id: format!("window-{i}"), start_token: i * 900, token_len: 1000 };
        evaluate.scope().record(LineageRecord {
            index: 0,
            rule: "rule-0".into(),
            nl: "every Person has a name".into(),
            strategy: "sliding-window".into(),
            origins: vec![origin(1), origin(0)],
            frequency: 2,
            translation_attempts: 1,
            error_class: "correct".into(),
            final_class: "correct".into(),
            support: Some(120),
            coverage_pct: Some(100.0),
            confidence_pct: Some(98.5),
            ..LineageRecord::default()
        });
        evaluate.scope().record(LineageRecord {
            index: 1,
            rule: "rule-1".into(),
            nl: "every Team belongs to a Squad".into(),
            strategy: "sliding-window".into(),
            origins: vec![origin(1)],
            frequency: 1,
            translation_attempts: 2,
            error_class: class_of_rule_1.into(),
            final_class: "correct".into(),
            corrected: true,
            support: Some(40),
            coverage_pct: Some(80.0),
            confidence_pct: Some(75.0),
            ..LineageRecord::default()
        });
        evaluate.finish();
        root.finish();
        rec.snapshot()
    }

    #[test]
    fn lineage_report_aggregates_and_renders() {
        let journal = sample_with_lineage("wrong_direction");
        let report = LineageReport::from_journal(&journal);
        assert!(!report.is_empty());
        assert_eq!(report.rules.len(), 2);
        // Origins were recorded out of order; the recorder sorts them.
        let ids: Vec<&str> = report.rules[0].origins.iter().map(|o| o.id.as_str()).collect();
        assert_eq!(ids, ["window-0", "window-1"]);
        // window-1 fed both rules, window-0 only the correct one.
        assert_eq!(report.yields.len(), 2);
        assert_eq!(report.yields[0].origin, "window-0");
        assert_eq!(report.yields[0].rules, 1);
        assert_eq!(report.yields[1].origin, "window-1");
        assert_eq!(report.yields[1].rules, 2);
        assert_eq!(report.yields[1].correct, 1);
        assert_eq!(report.classes, [("correct".to_owned(), 1), ("wrong_direction".to_owned(), 1)]);
        assert_eq!(report.boundaries.len(), 1);
        let rendered = report.render();
        assert!(rendered.contains("rule-1"), "{rendered}");
        assert!(rendered.contains("wrong_direction"), "{rendered}");
        assert!(rendered.contains("window-1@900+1000"), "{rendered}");
        assert!(rendered.contains("n14"), "{rendered}");
        let json = serde_json::to_string_pretty(&report).unwrap();
        let parsed: LineageReport = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed, report);
        // A lineage-free journal aggregates to an empty report.
        assert!(LineageReport::from_journal(&sample(1.0)).is_empty());
    }

    #[test]
    fn explain_rule_renders_the_ancestry_chain() {
        let journal = sample_with_lineage("syntax_error");
        let text = explain_rule(&journal, "rule-1").unwrap();
        assert!(text.contains("rule-1: every Team belongs to a Squad"), "{text}");
        assert!(text.contains("window-1"), "{text}");
        assert!(text.contains("2 attempt(s)"), "{text}");
        assert!(text.contains("syntax_error -> correct (correction applied)"), "{text}");
        assert!(text.contains("support 40"), "{text}");
        assert!(explain_rule(&journal, "rule-9").is_none());
        assert!(explain_rule(&sample(1.0), "rule-0").is_none());
    }

    /// A chaos recording: one recovered mine unit, one abandoned +
    /// degraded mine unit, and a degraded evaluate unit.
    fn sample_with_faults(kind_of_unit_3: &str) -> RunJournal {
        use crate::resilience::{
            ChaosRecord, CheckpointRecord, DegradedRecord, FaultRecord, RetryRecord,
        };
        let rec = Recorder::new();
        rec.root_scope().record(ChaosRecord {
            run_seed: 42,
            fault_seed: 7,
            fault_rate: 0.2,
            max_retries: 3,
            breaker_threshold: 4,
            model: "Llama3-70B".into(),
            strategy: "Sliding Window Attention".into(),
            prompting: "Zero-shot".into(),
            graph_nodes: 100,
            graph_edges: 400,
        });
        let root = rec.root_scope().span("pipeline");
        let mine = root.scope().span("mine");
        let scope = mine.scope();
        scope.record(FaultRecord {
            span: None,
            stage: "mine".into(),
            unit: 1,
            attempt: 0,
            kind: "timeout".into(),
            cost_seconds: 20.0,
            backoff_seconds: 0.55,
        });
        scope.add(Counter::FaultsInjected, 1);
        scope.record(RetryRecord {
            span: None,
            stage: "mine".into(),
            unit: 1,
            attempts: 2,
            recovered: true,
        });
        scope.add(Counter::LlmCallsRetried, 1);
        for attempt in 0..2 {
            scope.record(FaultRecord {
                span: None,
                stage: "mine".into(),
                unit: 3,
                attempt,
                kind: kind_of_unit_3.into(),
                cost_seconds: 5.0,
                backoff_seconds: if attempt == 1 { 0.0 } else { 0.5 },
            });
            scope.add(Counter::FaultsInjected, 1);
        }
        scope.record(RetryRecord {
            span: None,
            stage: "mine".into(),
            unit: 3,
            attempts: 2,
            recovered: false,
        });
        scope.add(Counter::LlmCallsAbandoned, 1);
        scope.record(DegradedRecord {
            span: None,
            stage: "mine".into(),
            unit: "context-3".into(),
            reason: "retries_exhausted".into(),
        });
        scope.add(Counter::WindowsDegraded, 1);
        for unit in [0u64, 1, 2] {
            scope.record(CheckpointRecord {
                span: None,
                stage: "mine".into(),
                unit,
                payload: "{}".into(),
            });
        }
        mine.finish();
        let evaluate = root.scope().span("evaluate");
        evaluate.scope().record(DegradedRecord {
            span: None,
            stage: "evaluate".into(),
            unit: "rule-0".into(),
            reason: "retries_exhausted".into(),
        });
        evaluate.scope().add(Counter::QueriesDegraded, 1);
        evaluate.finish();
        root.finish();
        rec.snapshot()
    }

    #[test]
    fn fault_report_aggregates_and_renders() {
        let journal = sample_with_faults("rate_limit");
        let report = FaultReport::from_journal(&journal);
        assert!(!report.is_empty());
        assert_eq!(report.chaos.as_ref().unwrap().fault_seed, 7);
        assert_eq!(report.checkpoints, 3);
        // Stage names sort "evaluate" before "mine".
        assert_eq!(report.stages.len(), 2);
        assert_eq!(report.stages[0].stage, "evaluate");
        assert_eq!(report.stages[0].degraded, 1);
        let mine = &report.stages[1];
        assert_eq!(mine.faults, 3);
        assert_eq!(mine.recovered, 1);
        assert_eq!(mine.abandoned, 1);
        assert_eq!(mine.degraded, 1);
        assert_eq!(mine.kinds, [("rate_limit".to_owned(), 2), ("timeout".to_owned(), 1)]);
        assert!((mine.cost_seconds - 30.0).abs() < 1e-9);
        assert!((mine.backoff_seconds - 1.05).abs() < 1e-9);
        let rendered = report.render();
        assert!(rendered.contains("fault-seed 7"), "{rendered}");
        assert!(rendered.contains("context-3"), "{rendered}");
        assert!(rendered.contains("timeout=1"), "{rendered}");
        let json = serde_json::to_string_pretty(&report).unwrap();
        let parsed: FaultReport = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed, report);
        // A fault-free journal aggregates to an empty report.
        assert!(FaultReport::from_journal(&sample(1.0)).is_empty());
    }

    /// A traced run carrying footprint records for two components.
    /// Scaling `bytes_scale` models a graph that grew between runs.
    fn sample_with_mem(bytes_scale: u64) -> RunJournal {
        use crate::mem::{FootprintRow, MemRecord};
        let rec = Recorder::new();
        let root = rec.root_scope().span("pipeline");
        let encode = root.scope().span("encode");
        encode.scope().record(MemRecord::footprint_of(
            "graph",
            vec![
                FootprintRow { name: "nodes".into(), count: 10, bytes: 640 * bytes_scale },
                FootprintRow { name: "edges".into(), count: 4, bytes: 320 * bytes_scale },
            ],
        ));
        encode.scope().record(MemRecord::footprint_of(
            "vecstore",
            vec![FootprintRow { name: "embeddings".into(), count: 3, bytes: 3072 }],
        ));
        encode.finish();
        root.finish();
        rec.snapshot()
    }

    #[test]
    fn mem_report_aggregates_footprints_and_span_deltas() {
        use crate::mem::MemRecord;
        let mut journal = sample_with_mem(1);
        // Unit-test binaries don't install the tracking allocator, so
        // span/run records never appear organically — splice some in
        // the way a tracked binary would journal them.
        journal.mems.push(MemRecord {
            span: Some(1),
            kind: "span".into(),
            alloc_bytes: 5000,
            alloc_count: 12,
            dealloc_count: 9,
            peak_delta: 2000,
            ..MemRecord::default()
        });
        journal.mems.push(MemRecord {
            span: Some(0),
            kind: "span".into(),
            alloc_bytes: 8000,
            alloc_count: 20,
            dealloc_count: 15,
            peak_delta: 2500,
            ..MemRecord::default()
        });
        journal.mems.push(MemRecord {
            kind: "run".into(),
            alloc_bytes: 9000,
            alloc_count: 25,
            dealloc_count: 18,
            peak_delta: 2500,
            peak_bytes: 4096,
            ..MemRecord::default()
        });

        let report = MemReport::from_journal(&journal);
        assert!(!report.is_empty());
        // Spans sort by allocated bytes descending.
        assert_eq!(report.spans[0].path, "pipeline");
        assert_eq!(report.spans[0].alloc_bytes, 8000);
        assert_eq!(report.spans[1].path, "pipeline/encode");
        assert_eq!(report.spans[1].alloc_bytes, 5000);
        assert_eq!(report.run_peak_bytes, 4096);
        assert_eq!(report.run_alloc_count, 25);
        // Components sort by name and sum their rows.
        assert_eq!(report.components.len(), 2);
        assert_eq!(report.components[0].component, "graph");
        assert_eq!(report.components[0].bytes, 960);
        assert_eq!(report.components[1].component, "vecstore");
        assert_eq!(report.components[1].bytes, 3072);
        assert_eq!(report.footprint_bytes(), 4032);

        let rendered = report.render(1);
        assert!(rendered.contains("pipeline"), "{rendered}");
        assert!(rendered.contains("… 1 more spans"), "{rendered}");
        assert!(rendered.contains("run totals: 9000 bytes"), "{rendered}");
        assert!(rendered.contains("deterministic footprint (4032 bytes total)"), "{rendered}");
        assert!(rendered.contains("embeddings"), "{rendered}");
        crate::assert_roundtrip(&report);

        // A journal with no mem records reports empty.
        assert!(MemReport::from_journal(&sample(1.0)).is_empty());
    }

    #[test]
    fn folded_stacks_weighs_self_allocation_for_mem() {
        use crate::mem::MemRecord;
        let mut journal = sample_with_mem(1);
        // pipeline allocated 8000 inclusive, encode 5000 — pipeline's
        // self weight is the 3000-byte difference.
        journal.mems.push(MemRecord {
            span: Some(0),
            kind: "span".into(),
            alloc_bytes: 8000,
            alloc_count: 20,
            dealloc_count: 15,
            peak_delta: 2500,
            ..MemRecord::default()
        });
        journal.mems.push(MemRecord {
            span: Some(1),
            kind: "span".into(),
            alloc_bytes: 5000,
            alloc_count: 12,
            dealloc_count: 9,
            peak_delta: 2000,
            ..MemRecord::default()
        });
        let folded = folded_stacks(&journal, FlameWeight::Mem);
        assert!(folded.contains("pipeline 3000"), "{folded}");
        assert!(folded.contains("pipeline;encode 5000"), "{folded}");
        // Without span records every frame weighs zero and is omitted.
        assert_eq!(folded_stacks(&sample_with_mem(1), FlameWeight::Mem), "");
    }
}
