//! `cold-mine`: a closed loop with one client. Each op spawns the
//! release `grm mine --graph F --json R --trace J` with its defaults
//! (SWA, Llama-3, zero-shot) on one of three ~90 KB graph files, cycled
//! in a fixed order. Graph load is most of the op, so a loader change
//! shows here and not on warm-mine.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use grm_core::{ContextStrategy, MiningPipeline, MiningReport, PipelineConfig};
use grm_datasets::{generate, DatasetId, GenConfig};
use grm_llm::{ModelKind, PromptStyle};
use grm_obs::{JournalRecord, Recorder, RunJournal};
use grm_pgraph::{io::from_doc, to_json_pretty, GraphDoc, PropertyGraph};
use grm_rules::ConsistencyRule;

use crate::alloc::AllocCount;
use crate::closed::{self, ClosedWorkload};
use crate::golden::{self, Cases, GOLDEN_SEED};
use crate::host::StepClock;
use crate::layers::PipelineTotals;
use crate::stats::median;
use crate::trace::Tracer;
use crate::{Ctx, Metrics, Outcome};

/// The three graphs, each 85–92 KB of pretty JSON as `grm generate`
/// writes it. Files of this size decode with about 1% spread.
const GRAPHS: [(DatasetId, f64); 3] =
    [(DatasetId::Wwc2019, 0.03), (DatasetId::Cybersecurity, 0.1), (DatasetId::Twitter, 0.004)];

/// Writes the pretty JSON of dataset `id` at `scale` to `path`, as
/// `grm generate` does; returns the dataset's ground-truth rules.
pub fn write_graph(
    id: DatasetId,
    seed: u64,
    scale: f64,
    path: &Path,
) -> Result<Vec<ConsistencyRule>, String> {
    let data = generate(id, &GenConfig { seed, scale, clean: false });
    let json = to_json_pretty(&data.graph).map_err(|e| e.to_string())?;
    std::fs::write(path, json).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(data.ground_truth)
}

/// Loads a graph file the way `grm` does (`from_json` is `from_doc`
/// over `serde_json::from_str`), one call at a time; returns the graph
/// and the instants before the read, the decode, the build and after.
pub fn load_graph(path: &Path) -> Result<(PropertyGraph, [Instant; 4]), String> {
    let t0 = Instant::now();
    let json =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let t1 = Instant::now();
    let doc: GraphDoc = serde_json::from_str(&json).map_err(|e| e.to_string())?;
    let t2 = Instant::now();
    let graph = from_doc(doc).map_err(|e| e.to_string())?;
    Ok((graph, [t0, t1, t2, Instant::now()]))
}

/// Hash of a `grm mine --json` report without its wall-time fields.
fn report_fingerprint(path: &Path) -> Result<u64, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let mut h = DefaultHasher::new();
    for line in text.lines().filter(|l| !l.contains("\"real_ms\"")) {
        line.hash(&mut h);
    }
    Ok(h.finish())
}

/// The heap high-water mark of the `grm` process that wrote the
/// journal at `path`: the run record `TrackingAlloc` leaves there.
/// The record is part of `grm mine --trace`'s output, and
/// `peak_heap_mb` must never read 0, so a journal without one, or with
/// a zero peak, fails the op.
fn journal_peak_bytes(path: &Path) -> Result<u64, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    text.lines()
        .filter(|line| line.starts_with("{\"Mem\"") && line.contains("\"kind\":\"run\""))
        .find_map(|line| match serde_json::from_str(line) {
            Ok(JournalRecord::Mem(mem)) => Some(mem.peak_bytes),
            _ => None,
        })
        .filter(|&peak| peak > 0)
        .ok_or_else(|| format!("{} has no run heap peak", path.display()))
}

/// Median time in ms of decoding `path` `n` times.
fn decode_ms(path: &Path, n: usize) -> Result<f64, String> {
    let json = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let mut times = Vec::new();
    for _ in 0..n {
        let start = Instant::now();
        let doc: GraphDoc = serde_json::from_str(&json).map_err(|e| e.to_string())?;
        times.push(start.elapsed().as_secs_f64() * 1e3);
        drop(doc);
    }
    Ok(median(&times))
}

/// Decode time of a graph file about twice the size of a cold-mine
/// file, divided by that of the cold-mine file: about 4 if the decoder
/// is quadratic in the input, about 2 if linear.
pub fn decode_scaling(workdir: &Path, seed: u64, m: &mut Metrics) -> Result<(), String> {
    let (id, scale) = GRAPHS[0];
    let (one, two) = (workdir.join("scale-1x.json"), workdir.join("scale-2x.json"));
    write_graph(id, seed, scale, &one)?;
    write_graph(id, seed, 2.0 * scale, &two)?;
    m.insert("load.decode_scaling", decode_ms(&two, 3)? / decode_ms(&one, 3)?);
    Ok(())
}

struct File {
    graph: PathBuf,
    report: PathBuf,
    journal: PathBuf,
    expected: u64,
}

/// Spawns `grm mine --graph F --json R --trace J` on `f`.
fn mine(grm: &Path, f: &File) -> Result<(), String> {
    let status = Command::new(grm)
        .arg("mine")
        .arg("--graph")
        .arg(&f.graph)
        .arg("--json")
        .arg(&f.report)
        .arg("--trace")
        .arg(&f.journal)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .map_err(|e| format!("spawning {}: {e}", grm.display()))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("grm mine on {} exited with {status}", f.graph.display()))
    }
}

/// The golden cases: each of the three graphs generated from
/// [`GOLDEN_SEED`] and mined by a spawned `grm mine`, as an op is.
pub fn golden(ctx: &Ctx) -> Result<Cases, String> {
    let mut cases = Vec::new();
    for (id, scale) in GRAPHS {
        let f = File {
            graph: ctx.workdir.join("golden-graph.json"),
            report: ctx.workdir.join("golden-report.json"),
            journal: ctx.workdir.join("golden-journal.jsonl"),
            expected: 0,
        };
        write_graph(id, GOLDEN_SEED, scale, &f.graph)?;
        mine(&ctx.grm, &f)?;
        let text = std::fs::read_to_string(&f.journal).map_err(|e| e.to_string())?;
        let journal = RunJournal::from_jsonl(&text)?;
        cases.push((format!("cold-mine/{}", id.name()), golden::rules_digest(&journal.lineages)));
    }
    Ok(cases)
}

struct ColdMine {
    grm: PathBuf,
    workdir: PathBuf,
    seed: u64,
    files: Vec<File>,
    totals: PipelineTotals,
    journal_bytes: u64,
    /// Largest heap high-water mark among the spawned processes.
    peak_heap_bytes: u64,
}

impl ColdMine {
    fn setup(ctx: &Ctx, clock: &mut StepClock) -> Result<ColdMine, String> {
        let mut w = ColdMine {
            grm: ctx.grm.clone(),
            workdir: ctx.workdir.clone(),
            seed: ctx.seed,
            files: Vec::new(),
            totals: PipelineTotals::default(),
            journal_bytes: 0,
            peak_heap_bytes: 0,
        };
        for (k, (id, scale)) in GRAPHS.into_iter().enumerate() {
            let graph = ctx.workdir.join(format!("graph-{k}.json"));
            write_graph(id, ctx.seed, scale, &graph)?;
            clock.step();
            let report = ctx.workdir.join(format!("report-{k}.json"));
            let journal = ctx.workdir.join(format!("journal-{k}.jsonl"));
            w.files.push(File { graph, report, journal, expected: 0 });
            // Warm-up op: its report is what every later op must match.
            mine(&w.grm, &w.files[k])?;
            w.files[k].expected = report_fingerprint(&w.files[k].report)?;
            clock.step();
        }
        Ok(w)
    }

    /// The spawned op's calls, made in this process: read, decode and
    /// build the graph, run the pipeline, encode and write the report
    /// and the journal.
    fn replay(
        &self,
        k: usize,
        op: u64,
        parent: Option<u64>,
        t: &Tracer,
    ) -> Result<(MiningReport, Recorder, AllocCount), String> {
        let (graph, at) = load_graph(&self.files[k].graph)?;
        for (name, ends) in
            ["load.read", "load.decode", "load.build"].into_iter().zip(at.windows(2))
        {
            t.record(name, op, parent, ends[0], ends[1]);
        }
        let config = PipelineConfig::new(
            ModelKind::Llama3,
            ContextStrategy::default_sliding_window(),
            PromptStyle::ZeroShot,
        );
        let recorder = Recorder::new();
        let before = AllocCount::now();
        let report = t.span("pipeline", op, parent, |_| {
            MiningPipeline::new(config).run_traced(&graph, &recorder)
        });
        let allocated = AllocCount::now().since(before);
        let report_json = t.span("report.encode", op, parent, |_| report.to_json_pretty());
        let report_json = report_json.map_err(|e| e.to_string())?;
        let journal = t.span("journal.encode", op, parent, |_| recorder.snapshot().to_jsonl());
        let (report_path, journal_path) =
            (self.workdir.join("replay-report.json"), self.workdir.join("replay-journal.jsonl"));
        t.span("io.write", op, parent, |_| {
            std::fs::write(&report_path, report_json)?;
            std::fs::write(&journal_path, journal)
        })
        .map_err(|e| e.to_string())?;
        Ok((report, recorder, allocated))
    }
}

impl ClosedWorkload for ColdMine {
    fn op(&mut self, i: u64, t: &Tracer) -> (f64, Result<(), String>) {
        let k = (i % self.files.len() as u64) as usize;
        t.span("op", i, None, |root| {
            let start = Instant::now();
            let spawned = t.span("grm.spawn", i, root, |_| mine(&self.grm, &self.files[k]));
            let ms = start.elapsed().as_secs_f64() * 1e3;
            let checked = spawned.and_then(|()| {
                let peak = journal_peak_bytes(&self.files[k].journal)?;
                self.peak_heap_bytes = self.peak_heap_bytes.max(peak);
                let got =
                    t.span("check", i, root, |_| report_fingerprint(&self.files[k].report))?;
                if got == self.files[k].expected {
                    Ok(())
                } else {
                    Err(format!(
                        "report for {} differs from set-up's",
                        self.files[k].graph.display()
                    ))
                }
            });
            if t.enabled() {
                self.journal_bytes +=
                    std::fs::metadata(&self.files[k].journal).map(|m| m.len()).unwrap_or(0);
                match t.span("replay", i, root, |r| self.replay(k, i, r, t)) {
                    Ok((report, recorder, allocated)) => {
                        self.totals.add(&report, &recorder, allocated)
                    }
                    Err(e) => return (ms, Err(format!("in-process replay: {e}"))),
                }
            }
            (ms, checked)
        })
    }

    fn layer_metrics(&mut self, t: &Tracer, ops: usize, m: &mut Metrics) {
        for (span, metric) in [
            ("load.read", "load.read_ms"),
            ("load.decode", "load.decode_ms"),
            ("load.build", "load.build_ms"),
            ("journal.encode", "journal.encode_ms"),
            ("report.encode", "report.encode_ms"),
            ("io.write", "io.write_ms"),
        ] {
            m.insert(metric, t.per_op_ms(span, ops));
        }
        let bytes: u64 = self
            .files
            .iter()
            .map(|f| std::fs::metadata(&f.graph).map(|m| m.len()).unwrap_or(0))
            .sum();
        m.insert("load.bytes", bytes as f64 / self.files.len() as f64);
        m.insert("journal.bytes", self.journal_bytes as f64 / ops.max(1) as f64);
        m.insert("process.overhead_ms", t.per_op_ms("grm.spawn", ops) - t.per_op_ms("replay", ops));
        self.totals.report(m);
        if let Err(e) = decode_scaling(&self.workdir, self.seed, m) {
            eprintln!("perfbench: load.decode_scaling: {e}");
        }
    }

    fn peak_heap_mb(&self) -> f64 {
        self.peak_heap_bytes as f64 / (1024.0 * 1024.0)
    }

    fn peak_rss_mb(&self) -> f64 {
        crate::os::peak_rss_mb(true)
    }
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    closed::run(ctx, |clock| ColdMine::setup(ctx, clock))
}
