//! `grm` — command-line interface to the graph-rule-mining toolkit.
//!
//! ```text
//! grm generate --dataset twitter [--scale 0.1] [--seed 42] [--clean] --out g.json
//! grm stats    --graph g.json
//! grm schema   --graph g.json
//! grm encode   --graph g.json [--encoder incident|adjacency|summary]
//! grm query    --graph g.json "MATCH (n:User) RETURN COUNT(*) AS c"
//! grm mine     --graph g.json [--model llama3|mixtral]
//!              [--strategy swa|rag|summary] [--prompting zero|few]
//!              [--seed 42] [--workers 4] [--json report.json]
//!              [--rules-out rules.json] [--trace run.jsonl] [--trace-summary]
//!              [--deterministic] [--fault-rate F] [--resume run.jsonl]
//!              [--progress] [--events ev.jsonl] [--metrics-out m.prom]
//!              [--metrics-listen 127.0.0.1:9090]
//! grm audit    --graph g.json
//! grm check    --graph g.json --rules rules.json
//! grm diff     --before a.json --after b.json --rules rules.json
//! grm trace    summary|diff|flame|plans|lineage|faults|mem
//!              |timeline|critical-path|tail|prom …
//! grm explain  rule-0 run.jsonl
//! grm serve    --graph g.json --listen 127.0.0.1:7171 [--workers N]
//!              [--queue-depth N] [--rate-limit R] [--burst B]
//!              [--fault-rate F] [--spool DIR] [--rules rules.json]
//! grm serve    submit|status|stats|drain|load --addr HOST:PORT …
//! ```
//!
//! Graphs travel as the JSON documents of `grm_pgraph::io`, so any
//! tool (or the `generate` subcommand) can produce them and the rest
//! of the pipeline consumes them. The binary installs
//! [`graph_rule_mining::obs::TrackingAlloc`] so traced runs journal
//! per-span allocation deltas alongside the deterministic footprint
//! tables (`grm trace mem`).

use std::collections::HashMap;
use std::process::ExitCode;

use graph_rule_mining::cypher::execute;
use graph_rule_mining::datasets::{generate, DatasetId, GenConfig};
use graph_rule_mining::llm::{ModelKind, PromptStyle};
use graph_rule_mining::pgraph::{from_json, to_json_pretty, GraphStats, PropertyGraph};
use graph_rule_mining::pipeline::{ContextStrategy, MiningPipeline, PipelineConfig};
use graph_rule_mining::textenc::{
    encode_adjacency, encode_incident, encode_summary, SummaryConfig,
};

// Count every allocation so traced runs can journal per-span memory
// deltas; deterministic runs ignore the counters entirely.
#[global_allocator]
static ALLOC: graph_rule_mining::obs::TrackingAlloc = graph_rule_mining::obs::TrackingAlloc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = match command.as_str() {
        "generate" => cmd_generate(rest),
        "stats" => cmd_stats(rest),
        "schema" => cmd_schema(rest),
        "encode" => cmd_encode(rest),
        "query" => cmd_query(rest),
        "mine" => cmd_mine(rest),
        "audit" => cmd_audit(rest),
        "check" => cmd_check(rest),
        "diff" => cmd_diff(rest),
        "trace" => cmd_trace(rest),
        "explain" => cmd_explain(rest),
        "serve" => cmd_serve(rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  grm generate --dataset <wwc2019|cybersecurity|twitter> [--scale F] [--seed N] [--clean] --out FILE
  grm stats    --graph FILE
  grm schema   --graph FILE
  grm encode   --graph FILE [--encoder incident|adjacency|summary]
  grm query    --graph FILE \"<cypher>\"
  grm mine     --graph FILE [--model llama3|mixtral] [--strategy swa|rag|summary]
               [--prompting zero|few] [--seed N] [--workers N] [--json FILE]
               [--rules-out FILE] [--trace FILE.jsonl] [--trace-summary] [--deterministic]
               [--slow-query-ms MS] [--slow-query-db-hits N]
               [--fault-rate F] [--fault-seed N] [--max-retries N]
               [--breaker-threshold N] [--kill-after N] [--resume FILE.jsonl]
               [--progress]                  # live in-place progress on stderr
               [--events FILE.jsonl]         # stream v8 Event records as they happen
               [--metrics-out FILE.prom] [--metrics-every N]   # Prometheus text snapshots
               [--metrics-listen ADDR]       # serve /metrics over HTTP (e.g. 127.0.0.1:9090)
  grm audit    --graph FILE [--limit N]
  grm check    --graph FILE --rules FILE [--limit N] [--trace FILE.jsonl]
  grm diff     --before FILE --after FILE --rules FILE [--threshold PTS]
  grm trace    summary FILE.jsonl [--json]
  grm trace    diff A.jsonl B.jsonl [--json] [--tolerance FRACTION]   # exit 1 above tolerance
  grm trace    flame FILE.jsonl [--real|--sim|--mem]         # folded flamegraph stacks
  grm trace    plans FILE.jsonl [--top N] [--json]
  grm trace    lineage FILE.jsonl [--json]
  grm trace    faults FILE.jsonl [--json]
  grm trace    mem FILE.jsonl [--top N] [--json]
  grm trace    timeline FILE.jsonl [--top N] [--json]
  grm trace    critical-path FILE.jsonl [--top N] [--json]   # top-k bounding chains
  grm trace    tail FILE.jsonl [--no-follow]     # follow an --events stream live
  grm trace    prom FILE.prom [--events FILE.jsonl]   # lint a metrics snapshot
  grm explain  <rule-N> FILE.jsonl    # full ancestry chain of one rule
  grm serve    --listen ADDR --graph FILE [--rules FILE] [--workers N]
               [--queue-depth N] [--rate-limit R] [--burst N] [--spool DIR]
               [--fault-rate F] [--fault-seed N] [--max-retries N] [--breaker-threshold N]
  grm serve    submit --addr ADDR --tenant T --kind mine|check|explain
               [--seed N] [--deadline SECONDS] [--kill-after N]
               [--rule rule-N --source JOB] [--wait]
  grm serve    status --addr ADDR --job N [--wait]
  grm serve    stats  --addr ADDR
  grm serve    drain  --addr ADDR     # graceful shutdown: drain, journal, exit
  grm serve    load   --addr ADDR [--jobs N] [--tenants N] [--concurrency N]
               [--abuse N] [--expect-shed] [--expect-trips]   # overload drill";

/// Minimal flag parser: `--key value` pairs, bare `--switch`es and
/// positionals.
struct Flags {
    named: HashMap<String, String>,
    switches: Vec<String>,
    positional: Vec<String>,
}

/// Parses `args` against the verb's own flags, each list
/// whitespace-separated: `switch_names` take no value, `value_names`
/// take one. Any other `--flag` is an error, so a misspelled or
/// retired flag never runs silently with a default, and so is a flag
/// given twice, which would otherwise silently keep one of its values.
fn parse_flags(args: &[String], switch_names: &str, value_names: &str) -> Result<Flags, String> {
    let mut named = HashMap::new();
    let mut switches = Vec::new();
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            if named.contains_key(name) || switches.iter().any(|s| s == name) {
                return Err(format!("repeated flag --{name}"));
            }
            if switch_names.split_whitespace().any(|s| s == name) {
                switches.push(name.to_owned());
            } else if value_names.split_whitespace().any(|v| v == name) {
                let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                named.insert(name.to_owned(), value.clone());
            } else {
                return Err(format!("unknown flag --{name}"));
            }
        } else {
            positional.push(a.clone());
        }
    }
    Ok(Flags { named, switches, positional })
}

fn load_graph(flags: &Flags) -> Result<PropertyGraph, String> {
    let path = flags.named.get("graph").ok_or("--graph FILE is required")?;
    let json = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    from_json(&json).map_err(|e| format!("parsing {path}: {e}"))
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, "clean", "dataset seed scale out")?;
    let dataset = match flags.named.get("dataset").map(String::as_str) {
        Some("wwc2019") => DatasetId::Wwc2019,
        Some("cybersecurity") => DatasetId::Cybersecurity,
        Some("twitter") => DatasetId::Twitter,
        Some(other) => return Err(format!("unknown dataset `{other}`")),
        None => return Err("--dataset is required".into()),
    };
    let cfg = GenConfig {
        seed: parse_or(&flags, "seed", 42)?,
        scale: parse_or(&flags, "scale", 1.0)?,
        clean: flags.switches.iter().any(|s| s == "clean"),
    };
    let out = flags.named.get("out").ok_or("--out FILE is required")?;
    let data = generate(dataset, &cfg);
    let json = to_json_pretty(&data.graph).map_err(|e| e.to_string())?;
    std::fs::write(out, json).map_err(|e| format!("writing {out}: {e}"))?;
    let s = GraphStats::of(&data.graph);
    println!(
        "wrote {} ({} nodes, {} edges, {} node labels, {} edge labels)",
        out, s.nodes, s.edges, s.node_labels, s.edge_labels
    );
    Ok(())
}

fn parse_or<T: std::str::FromStr>(flags: &Flags, key: &str, default: T) -> Result<T, String> {
    match flags.named.get(key) {
        None => Ok(default),
        Some(raw) => raw.parse().map_err(|_| format!("bad value for --{key}: {raw}")),
    }
}

fn parse_opt<T: std::str::FromStr>(flags: &Flags, key: &str) -> Result<Option<T>, String> {
    flags
        .named
        .get(key)
        .map(|raw| raw.parse().map_err(|_| format!("bad value for --{key}: {raw}")))
        .transpose()
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, "", "graph")?;
    let g = load_graph(&flags)?;
    let s = GraphStats::of(&g);
    println!("nodes: {}", s.nodes);
    println!("edges: {}", s.edges);
    println!("node labels: {}", s.node_labels);
    println!("edge labels: {}", s.edge_labels);
    let d = graph_rule_mining::pgraph::DegreeStats::of(&g);
    println!("out-degree: min={} max={} mean={:.2}", d.min_out, d.max_out, d.mean_out);
    println!("isolated nodes: {}", d.isolated);
    Ok(())
}

fn cmd_schema(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, "", "graph")?;
    let g = load_graph(&flags)?;
    print!("{}", g.schema().summary());
    Ok(())
}

fn cmd_encode(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, "", "graph encoder")?;
    let g = load_graph(&flags)?;
    let text = match flags.named.get("encoder").map(String::as_str) {
        None | Some("incident") => encode_incident(&g),
        Some("adjacency") => encode_adjacency(&g),
        Some("summary") => encode_summary(&g, SummaryConfig::default()),
        Some(other) => return Err(format!("unknown encoder `{other}`")),
    };
    print!("{text}");
    Ok(())
}

fn cmd_query(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, "", "graph")?;
    let g = load_graph(&flags)?;
    let query = flags.positional.first().ok_or("a Cypher query argument is required")?;
    let rs = execute(&g, query).map_err(|e| e.to_string())?;
    println!("{}", rs.columns.join("\t"));
    for row in &rs.rows {
        let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
        println!("{}", cells.join("\t"));
    }
    eprintln!("({} rows)", rs.rows.len());
    Ok(())
}

fn cmd_mine(args: &[String]) -> Result<(), String> {
    use graph_rule_mining::obs::{
        event_stream_sink, MetricsHub, Recorder, RunJournal, SlowQueryPolicy,
    };
    use graph_rule_mining::pipeline::{ResumeState, RunOptions, RunStatus};
    use graph_rule_mining::resil::ChaosConfig;
    use graph_rule_mining::serve::serve_metrics;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let flags = parse_flags(
        args,
        "trace-summary deterministic progress",
        "graph model strategy prompting seed workers json rules-out trace slow-query-ms \
         slow-query-db-hits fault-rate fault-seed max-retries breaker-threshold kill-after resume \
         events metrics-out metrics-every metrics-listen",
    )?;
    let g = load_graph(&flags)?;
    let model = match flags.named.get("model").map(String::as_str) {
        None | Some("llama3") => ModelKind::Llama3,
        Some("mixtral") => ModelKind::Mixtral,
        Some(other) => return Err(format!("unknown model `{other}`")),
    };
    let strategy = match flags.named.get("strategy").map(String::as_str) {
        None | Some("swa") => ContextStrategy::default_sliding_window(),
        Some("rag") => ContextStrategy::default_rag(),
        Some("summary") => ContextStrategy::default_summary(),
        Some(other) => return Err(format!("unknown strategy `{other}`")),
    };
    let prompting = match flags.named.get("prompting").map(String::as_str) {
        None | Some("zero") => PromptStyle::ZeroShot,
        Some("few") => PromptStyle::FewShot,
        Some(other) => return Err(format!("unknown prompting style `{other}`")),
    };
    let mut config = PipelineConfig::new(model, strategy, prompting);
    config.seed = parse_or(&flags, "seed", 42)?;
    let workers: usize = parse_or(&flags, "workers", 1)?;

    // Chaos / resume configuration (all off by default).
    let mut chaos = ChaosConfig {
        fault_seed: parse_or(&flags, "fault-seed", ChaosConfig::default().fault_seed)?,
        fault_rate: parse_or(&flags, "fault-rate", 0.0)?,
        max_retries: parse_or(&flags, "max-retries", ChaosConfig::default().max_retries)?,
        breaker_threshold: parse_or(
            &flags,
            "breaker-threshold",
            ChaosConfig::default().breaker_threshold,
        )?,
    };
    if !(0.0..=1.0).contains(&chaos.fault_rate) {
        return Err(format!("--fault-rate must be in [0, 1], got {}", chaos.fault_rate));
    }
    let mut resume_state = None;
    if let Some(path) = flags.named.get("resume") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let journal =
            RunJournal::from_jsonl_lossy(&text).map_err(|e| format!("parsing {path}: {e}"))?;
        if journal.corrupt_lines > 0 {
            eprintln!(
                "note: {path} lost {} damaged line(s); resuming from what survived",
                journal.corrupt_lines
            );
        }
        let (record, state) = ResumeState::from_journal(&journal)?;
        // The journal's Chaos record is the source of truth for the
        // run's identity; explicitly-passed flags must agree with it.
        let resumed_model = match record.model.as_str() {
            "Llama-3" => ModelKind::Llama3,
            "Mixtral" => ModelKind::Mixtral,
            other => return Err(format!("{path}: unknown model `{other}` in Chaos record")),
        };
        let resumed_strategy = match record.strategy.as_str() {
            "Sliding Window Attention" => ContextStrategy::default_sliding_window(),
            "RAG" => ContextStrategy::default_rag(),
            "Summary" => ContextStrategy::default_summary(),
            other => return Err(format!("{path}: unknown strategy `{other}` in Chaos record")),
        };
        let resumed_prompting = match record.prompting.as_str() {
            "Zero-shot" => PromptStyle::ZeroShot,
            "Few-shot" => PromptStyle::FewShot,
            other => return Err(format!("{path}: unknown prompting `{other}` in Chaos record")),
        };
        let conflict = |flag: &str, agrees: bool| -> Result<(), String> {
            if flags.named.contains_key(flag) && !agrees {
                return Err(format!(
                    "--{flag} conflicts with the resumed journal — drop the flag or start fresh"
                ));
            }
            Ok(())
        };
        conflict("model", model == resumed_model)?;
        conflict("strategy", strategy == resumed_strategy)?;
        conflict("prompting", prompting == resumed_prompting)?;
        conflict("seed", config.seed == record.run_seed)?;
        conflict("fault-seed", chaos.fault_seed == record.fault_seed)?;
        conflict("fault-rate", chaos.fault_rate == record.fault_rate)?;
        conflict("max-retries", chaos.max_retries == record.max_retries)?;
        conflict("breaker-threshold", chaos.breaker_threshold == record.breaker_threshold)?;
        if (g.node_count() as u64, g.edge_count() as u64)
            != (record.graph_nodes, record.graph_edges)
        {
            return Err(format!(
                "graph has {} nodes / {} edges but the resumed run mined {} / {} — \
                 pass the same --graph the killed run used",
                g.node_count(),
                g.edge_count(),
                record.graph_nodes,
                record.graph_edges
            ));
        }
        config.model = resumed_model;
        config.strategy = resumed_strategy;
        config.prompting = resumed_prompting;
        config.seed = record.run_seed;
        chaos = ChaosConfig {
            fault_seed: record.fault_seed,
            fault_rate: record.fault_rate,
            max_retries: record.max_retries,
            breaker_threshold: record.breaker_threshold,
        };
        for note in &state.dropped {
            eprintln!("note: dropped checkpoint ({note}) — that unit will re-run");
        }
        eprintln!("resuming from {path}: {} checkpointed unit(s) will be replayed", state.units());
        resume_state = Some(state);
    }

    let trace_path = flags.named.get("trace");
    let trace_summary = flags.switches.iter().any(|s| s == "trace-summary");
    let kill_after: Option<usize> = parse_opt(&flags, "kill-after")?;
    if kill_after.is_some() {
        if chaos.fault_rate <= 0.0 {
            return Err(
                "--kill-after needs --fault-rate > 0 — only chaos runs checkpoint work".into()
            );
        }
        if workers > 1 {
            return Err(
                "--kill-after requires --workers 1 (the kill point counts serial units)".into()
            );
        }
        if trace_path.is_none() {
            return Err(
                "--kill-after without --trace would lose the checkpoints; add --trace FILE.jsonl"
                    .into(),
            );
        }
    }
    let deterministic = flags.switches.iter().any(|s| s == "deterministic");
    let recorder = if deterministic { Recorder::deterministic() } else { Recorder::new() };
    let slow_policy = SlowQueryPolicy {
        max_millis: parse_opt(&flags, "slow-query-ms")?,
        max_db_hits: parse_opt(&flags, "slow-query-db-hits")?,
    };
    if !slow_policy.is_empty() {
        if deterministic {
            return Err("--deterministic excludes the slow-query flags — slow-query detection \
                 reads the real clock"
                .into());
        }
        recorder.set_slow_query_policy(slow_policy);
    }

    // Telemetry bus: attach the requested sinks before the run starts.
    // The journal stays byte-identical either way — it is built from
    // recorder state, never from the (lossy, bounded) event stream.
    let events_path = flags.named.get("events").cloned();
    let mut events_handle = None;
    if let Some(path) = &events_path {
        let (sink, handle) = event_stream_sink(path, 65_536)
            .map_err(|e| format!("creating event stream {path}: {e}"))?;
        recorder.attach_sink(sink);
        events_handle = Some(handle);
    }
    let mut progress_handle = None;
    if flags.switches.iter().any(|s| s == "progress") {
        let (sink, handle) = spawn_progress();
        recorder.attach_sink(sink);
        progress_handle = Some(handle);
    }
    let metrics_out = flags.named.get("metrics-out").cloned();
    let metrics_listen = flags.named.get("metrics-listen").cloned();
    let metrics_every: u64 = parse_or(&flags, "metrics-every", 256)?;
    if metrics_every == 0 {
        return Err("--metrics-every must be at least 1".into());
    }
    let mut metrics_hub = None;
    let mut metrics_server = None;
    if metrics_out.is_some() || metrics_listen.is_some() {
        let hub = Arc::new(MetricsHub::new(
            metrics_out.clone().map(std::path::PathBuf::from),
            metrics_every,
            recorder.dropped_handle(),
        ));
        if let Some(addr) = &metrics_listen {
            let listener = std::net::TcpListener::bind(addr)
                .map_err(|e| format!("binding metrics listener {addr}: {e}"))?;
            let local = listener.local_addr().map_err(|e| e.to_string())?;
            eprintln!("metrics listener on http://{local}/metrics");
            let stop = Arc::new(AtomicBool::new(false));
            let (hub, flag) = (Arc::clone(&hub), Arc::clone(&stop));
            let thread = std::thread::spawn(move || serve_metrics(hub, listener, flag));
            metrics_server = Some((stop, thread));
        }
        recorder.attach_sink(hub.clone());
        metrics_hub = Some(hub);
    }

    let opts = RunOptions { workers, chaos, resume: resume_state, kill_after };
    let status = MiningPipeline::new(config).run_with(&g, &recorder, &opts);
    let report = match status {
        RunStatus::Complete(report) => Some(*report),
        RunStatus::Killed { stage, completed_units } => {
            eprintln!(
                "run killed mid-{stage} after {completed_units} completed unit(s); \
                 resume it with `grm mine --resume <trace.jsonl> --graph <same graph>`"
            );
            None
        }
    };
    if let Some(report) = report {
        print_mining_report(&report, &flags)?;
    }
    let slow = recorder.slow_queries();
    if !slow.is_empty() {
        eprintln!(
            "{} slow quer{} over threshold:",
            slow.len(),
            if slow.len() == 1 { "y" } else { "ies" }
        );
        for p in &slow {
            eprintln!(
                "  SLOW {}: {} db-hits, {:.2}ms over {} queries",
                p.scope,
                p.db_hits(),
                p.total_us as f64 / 1_000.0,
                p.queries
            );
        }
    }
    if trace_path.is_some() || trace_summary {
        let journal = recorder.snapshot();
        if let Some(path) = trace_path {
            std::fs::write(path, journal.to_jsonl()).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("trace journal ({} spans) written to {path}", journal.spans.len());
        }
        if trace_summary {
            print!("{}", journal.summary());
        }
    }

    // Tear the bus down after the journal is written so the journaled
    // drop count covers the whole run. finish_sinks emits run_end,
    // flushes every sink and drops them, which lets the writer and
    // renderer threads observe channel disconnect and exit.
    recorder.finish_sinks();
    if let Some(handle) = progress_handle {
        handle.finish();
    }
    if let Some(handle) = events_handle {
        let path = events_path.as_deref().unwrap_or("?");
        let written = handle.finish().map_err(|e| format!("writing event stream {path}: {e}"))?;
        eprintln!("event stream ({written} events) written to {path}");
    }
    if let Some((stop, thread)) = metrics_server {
        stop.store(true, Ordering::Relaxed);
        let served = thread.join().expect("metrics listener thread panicked");
        served.map_err(|e| format!("serving metrics: {e}"))?;
    }
    if let Some(hub) = metrics_hub {
        drop(hub);
        if let Some(path) = &metrics_out {
            eprintln!("metrics snapshot written to {path}");
        }
    }
    let dropped = recorder.events_dropped();
    if dropped > 0 {
        eprintln!(
            "warning: {dropped} telemetry event(s) dropped by saturated sinks \
             (journaled as telemetry_events_dropped)"
        );
    }
    Ok(())
}

/// Live `--progress` state, folded from the event stream. Stage spans
/// are the direct children of the root span; worker lanes are the
/// `worker-*` spans beneath the mine stage.
#[derive(Default)]
struct ProgressState {
    root: Option<u64>,
    stages: Vec<(String, bool)>,
    workers: Vec<(String, bool)>,
    counters: std::collections::BTreeMap<String, u64>,
    faults: u64,
    recovered: u64,
    abandoned: u64,
    degraded: u64,
    checkpoints: u64,
    events: u64,
    done: bool,
}

impl ProgressState {
    fn apply(&mut self, ev: &graph_rule_mining::obs::TelemetryEvent) {
        use graph_rule_mining::obs::TelemetryEvent as E;
        self.events += 1;
        match ev.kind.as_str() {
            E::SPAN_OPEN => {
                if let Some(id) = ev.span {
                    if ev.detail.is_empty() {
                        if self.root.is_none() {
                            self.root = Some(id);
                        }
                    } else if Some(ev.detail.as_str())
                        == self.root.map(|r| r.to_string()).as_deref()
                    {
                        self.stages.push((ev.name.clone(), false));
                    }
                    if ev.name.starts_with("worker-") {
                        self.workers.push((ev.name.clone(), true));
                    }
                }
            }
            E::SPAN_CLOSE => {
                if let Some((_, fin)) =
                    self.stages.iter_mut().find(|(n, fin)| n == &ev.name && !*fin)
                {
                    *fin = true;
                }
                if let Some((_, busy)) =
                    self.workers.iter_mut().find(|(n, busy)| n == &ev.name && *busy)
                {
                    *busy = false;
                }
            }
            E::COUNTER => {
                *self.counters.entry(ev.name.clone()).or_insert(0) += ev.value as u64;
            }
            E::FAULT => self.faults += 1,
            E::RETRY => {
                if ev.detail == "recovered" {
                    self.recovered += 1;
                } else {
                    self.abandoned += 1;
                }
            }
            E::DEGRADED => self.degraded += 1,
            E::CHECKPOINT => self.checkpoints += 1,
            E::RUN_END => self.done = true,
            _ => {}
        }
    }

    fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    fn lines(&self) -> Vec<String> {
        let stages = if self.stages.is_empty() {
            "(starting)".to_owned()
        } else {
            self.stages
                .iter()
                .map(|(n, fin)| format!("{n}{}", if *fin { "\u{2713}" } else { "\u{2026}" }))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut lines = vec![format!("stages   {stages}")];
        if !self.workers.is_empty() {
            let busy = self.workers.iter().filter(|(_, b)| *b).count();
            let lanes: String =
                self.workers.iter().map(|(_, b)| if *b { '#' } else { '.' }).collect();
            lines.push(format!("workers  {busy}/{} busy [{lanes}]", self.workers.len()));
        }
        lines.push(format!(
            "mined    windows {} \u{b7} prompts {} \u{b7} rules {} mined / {} merged / {} translated",
            self.counter("windows_produced"),
            self.counter("prompts_issued"),
            self.counter("rules_mined"),
            self.counter("rules_deduped"),
            self.counter("rules_translated"),
        ));
        lines.push(format!(
            "resil    faults {} \u{b7} retried {} ({} abandoned) \u{b7} degraded {} \u{b7} breaker trips {} \u{b7} checkpoints {}",
            self.faults,
            self.recovered,
            self.abandoned,
            self.degraded,
            self.counter("breaker_trips"),
            self.checkpoints,
        ));
        let alloc = graph_rule_mining::obs::TrackingAlloc::snapshot();
        lines.push(format!(
            "bus      events {} \u{b7} live alloc peak {:.1} MiB",
            self.events,
            alloc.peak_bytes as f64 / (1024.0 * 1024.0)
        ));
        lines
    }
}

struct ProgressHandle {
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ProgressHandle {
    fn finish(mut self) {
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Spawns the live progress renderer: a bounded channel sink plus a
/// thread redrawing a few stderr lines in place (when stderr is a
/// terminal) or logging a compact line every couple of seconds (when
/// it is not). Never blocks the pipeline — a saturated channel drops.
fn spawn_progress() -> (std::sync::Arc<graph_rule_mining::obs::ChannelSink>, ProgressHandle) {
    use std::io::IsTerminal;
    use std::sync::mpsc::RecvTimeoutError;
    use std::time::{Duration, Instant};

    let (sink, rx) = graph_rule_mining::obs::ChannelSink::bounded("progress", 65_536);
    let thread = std::thread::spawn(move || {
        let tty = std::io::stderr().is_terminal();
        let interval = if tty { Duration::from_millis(100) } else { Duration::from_secs(2) };
        let mut state = ProgressState::default();
        let mut rendered = 0usize;
        let mut last = Instant::now();
        loop {
            match rx.recv_timeout(Duration::from_millis(100)) {
                Ok(ev) => {
                    state.apply(&ev);
                    while let Ok(ev) = rx.try_recv() {
                        state.apply(&ev);
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
            if state.done {
                break;
            }
            if last.elapsed() >= interval {
                render_progress(&state, tty, &mut rendered);
                last = Instant::now();
            }
        }
        render_progress(&state, tty, &mut rendered);
    });
    (sink, ProgressHandle { thread: Some(thread) })
}

fn render_progress(state: &ProgressState, tty: bool, rendered: &mut usize) {
    use std::io::Write;
    let lines = state.lines();
    let mut err = std::io::stderr().lock();
    if tty {
        let mut out = String::new();
        if *rendered > 0 {
            out.push_str(&format!("\x1b[{}A", *rendered));
        }
        for line in &lines {
            out.push_str("\x1b[2K");
            out.push_str(line);
            out.push('\n');
        }
        *rendered = lines.len();
        let _ = err.write_all(out.as_bytes());
    } else {
        let _ = writeln!(err, "progress: {}", lines.join(" | "));
    }
    let _ = err.flush();
}

/// Prints a completed run's report (and writes `--json`/`--rules-out`
/// files when asked).
fn print_mining_report(
    report: &graph_rule_mining::pipeline::MiningReport,
    flags: &Flags,
) -> Result<(), String> {
    println!(
        "{} | {} | {}: {} rules in {:.1}s (simulated), correctness {}",
        report.model.name(),
        report.strategy_name,
        report.prompting.name(),
        report.rule_count(),
        report.mining_seconds,
        report.correctness.as_fraction()
    );
    for outcome in &report.rules {
        let metrics = outcome
            .metrics
            .map(|m| {
                format!(
                    "supp={} cov={:.1}% conf={:.1}%",
                    m.support, m.coverage_pct, m.confidence_pct
                )
            })
            .unwrap_or_else(|| "unscored".into());
        println!("  - {} [{metrics}]", outcome.nl);
    }
    if let Some(rs) = &report.resilience {
        println!(
            "chaos: {} fault(s) injected, {} call(s) retried, {} abandoned; \
             degraded windows/rules/queries {}/{}/{}; breaker trips {}",
            rs.faults_injected,
            rs.llm_calls_retried,
            rs.llm_calls_abandoned,
            rs.windows_degraded,
            rs.rules_degraded,
            rs.queries_degraded,
            rs.breaker_trips
        );
        if rs.resumed_mine_units + rs.resumed_translate_units > 0 {
            println!(
                "resumed: {} mine + {} translate unit(s) replayed from checkpoints",
                rs.resumed_mine_units, rs.resumed_translate_units
            );
        }
    }
    if let Some(path) = flags.named.get("json") {
        let json = report.to_json_pretty().map_err(|e| e.to_string())?;
        std::fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("full report written to {path}");
    }
    if let Some(path) = flags.named.get("rules-out") {
        let rules: Vec<_> = report.rules.iter().map(|o| &o.rule).collect();
        let json = serde_json::to_string_pretty(&rules).map_err(|e| e.to_string())?;
        std::fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("rule book ({} rules) written to {path}", rules.len());
    }
    Ok(())
}

/// `grm check`: evaluate a saved rule book against a graph — the
/// CI-style data-quality gate. Prints per-rule status and concrete
/// violations; exits non-zero when any rule is violated.
fn cmd_check(args: &[String]) -> Result<(), String> {
    use graph_rule_mining::cypher::BatchSession;
    use graph_rule_mining::metrics::{
        evaluate_labeled, find_violations_traced, record_batch_stats, Violation,
    };
    use graph_rule_mining::obs::Recorder;
    use graph_rule_mining::rules::{reference_queries, to_nl, ConsistencyRule};

    let flags = parse_flags(args, "", "graph rules limit trace")?;
    let g = load_graph(&flags)?;
    let rules_path = flags.named.get("rules").ok_or("--rules FILE is required")?;
    let limit: usize = parse_or(&flags, "limit", 3)?;
    let json =
        std::fs::read_to_string(rules_path).map_err(|e| format!("reading {rules_path}: {e}"))?;
    let rules: Vec<ConsistencyRule> =
        serde_json::from_str(&json).map_err(|e| format!("parsing {rules_path}: {e}"))?;

    // With --trace, every evaluation and violation listing runs under
    // PROFILE and the journal (schema v3, plan records included) is
    // written for `grm trace plans`.
    let trace_path = flags.named.get("trace");
    let recorder = if trace_path.is_some() { Recorder::new() } else { Recorder::disabled() };
    let check_span = recorder.root_scope().span("check");
    let scope = check_span.scope();

    let mut failing = 0usize;
    let mut session = BatchSession::new(&g);
    for (i, rule) in rules.iter().enumerate() {
        let metrics =
            evaluate_labeled(&reference_queries(rule), &scope, &format!("rule-{i}"), &mut session)
                .map_err(|e| e.to_string())?;
        let holds = metrics.coverage_pct >= 100.0 && metrics.confidence_pct >= 100.0;
        println!(
            "[{}] {} (cov {:.2}%, conf {:.2}%)",
            if holds { "PASS" } else { "FAIL" },
            to_nl(rule),
            metrics.coverage_pct,
            metrics.confidence_pct
        );
        if !holds {
            failing += 1;
            if let Some(violations) =
                find_violations_traced(&g, rule, limit, &scope, &format!("violations-{i}"))
                    .map_err(|e| e.to_string())?
            {
                for v in violations {
                    match v {
                        Violation::Node { id, detail } => println!("    node n{id}: {detail}"),
                        Violation::Value { value, count, detail } => {
                            println!("    value {value} x{count}: {detail}")
                        }
                        Violation::Edge { src, dst, detail } => {
                            println!("    edge n{src} -> n{dst}: {detail}")
                        }
                    }
                }
            }
        }
    }
    println!("\n{} of {} rules hold", rules.len() - failing, rules.len());
    record_batch_stats(&scope, &session.stats());
    drop(check_span);
    if let Some(path) = trace_path {
        let journal = recorder.snapshot();
        std::fs::write(path, journal.to_jsonl()).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("trace journal ({} spans) written to {path}", journal.spans.len());
    }
    if failing > 0 {
        return Err(format!("{failing} rule(s) violated"));
    }
    Ok(())
}

/// `grm audit`: discover near-invariants with the exhaustive baseline
/// miner and list their concrete violations — the rules that *almost*
/// hold are exactly where the data-quality problems live.
fn cmd_audit(args: &[String]) -> Result<(), String> {
    use graph_rule_mining::baseline::{mine_exhaustive, MinerConfig};
    use graph_rule_mining::metrics::find_violations;
    use graph_rule_mining::rules::to_nl;

    let flags = parse_flags(args, "", "graph limit")?;
    let g = load_graph(&flags)?;
    let limit: usize = parse_or(&flags, "limit", 5)?;

    let mined = mine_exhaustive(&g, MinerConfig { min_confidence: 80.0, ..Default::default() });
    let near: Vec<_> = mined
        .iter()
        .filter(|m| m.metrics.confidence_pct < 100.0 || m.metrics.coverage_pct < 100.0)
        .collect();
    println!("{} rules mined; {} are near-invariants with violations:", mined.len(), near.len());
    for m in near {
        println!(
            "\n[{:.2}% conf, {:.2}% cov] {}",
            m.metrics.confidence_pct,
            m.metrics.coverage_pct,
            to_nl(&m.rule)
        );
        match find_violations(&g, &m.rule, limit).map_err(|e| e.to_string())? {
            None => println!("  (no canonical violation listing for this rule family)"),
            Some(violations) if violations.is_empty() => {
                println!("  (coverage shortfall only — body is narrower than the head)")
            }
            Some(violations) => {
                for v in violations {
                    match v {
                        graph_rule_mining::metrics::Violation::Node { id, detail } => {
                            println!("  node n{id}: {detail}")
                        }
                        graph_rule_mining::metrics::Violation::Value { value, count, detail } => {
                            println!("  value {value} x{count}: {detail}")
                        }
                        graph_rule_mining::metrics::Violation::Edge { src, dst, detail } => {
                            println!("  edge n{src} -> n{dst}: {detail}")
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

/// `grm diff`: re-evaluate a rule book on two graph versions and
/// report data-quality drift; exits non-zero on regressions beyond
/// the threshold.
fn cmd_diff(args: &[String]) -> Result<(), String> {
    use graph_rule_mining::metrics::drift;
    use graph_rule_mining::rules::{to_nl, ConsistencyRule};

    let flags = parse_flags(args, "", "before after rules threshold")?;
    let load = |key: &str| -> Result<PropertyGraph, String> {
        let path = flags.named.get(key).ok_or(format!("--{key} FILE is required"))?;
        let json = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        from_json(&json).map_err(|e| format!("parsing {path}: {e}"))
    };
    let before = load("before")?;
    let after = load("after")?;
    let rules_path = flags.named.get("rules").ok_or("--rules FILE is required")?;
    let threshold: f64 = parse_or(&flags, "threshold", 1.0)?;
    let json =
        std::fs::read_to_string(rules_path).map_err(|e| format!("reading {rules_path}: {e}"))?;
    let rules: Vec<ConsistencyRule> =
        serde_json::from_str(&json).map_err(|e| format!("parsing {rules_path}: {e}"))?;

    let drifts = drift(&before, &after, &rules).map_err(|e| e.to_string())?;
    let mut regressions = 0usize;
    for d in &drifts {
        let marker = if d.regressed(threshold) {
            regressions += 1;
            "REGRESSED"
        } else if d.confidence_delta() > threshold {
            "improved "
        } else {
            "stable   "
        };
        println!(
            "[{marker}] conf {:+.2} pts, cov {:+.2} pts — {}",
            d.confidence_delta(),
            d.coverage_delta(),
            to_nl(&d.rule)
        );
    }
    if regressions > 0 {
        return Err(format!("{regressions} rule(s) regressed by more than {threshold} pts"));
    }
    println!("no regressions beyond {threshold} pts across {} rules", drifts.len());
    Ok(())
}

/// `grm trace`: analytics over run journals written by `mine --trace`
/// or `repro --trace` — human summary, A/B diff with a tolerance gate,
/// folded flamegraph stacks, and the plan/lineage/fault/memory/timeline
/// reports. The committed baselines are checked by `repro --baselines`.
fn cmd_trace(args: &[String]) -> Result<(), String> {
    use graph_rule_mining::obs::{
        folded_stacks, CriticalPathReport, FaultReport, FlameWeight, LineageReport, MemReport,
        OptimizerReport, PlanReport, RunJournal, TimelineReport, TraceDiff,
    };

    let Some((verb, rest)) = args.split_first() else {
        return Err(format!(
            "trace needs a verb \
             (summary|diff|flame|plans|lineage|faults|mem|timeline|critical-path|tail|prom)\n{USAGE}"
        ));
    };
    let load = |path: &str| -> Result<RunJournal, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        RunJournal::from_jsonl_lossy(&text).map_err(|e| format!("parsing {path}: {e}"))
    };
    match verb.as_str() {
        "summary" => {
            let flags = parse_flags(rest, "json", "")?;
            let path = flags.positional.first().ok_or("trace summary needs a journal FILE")?;
            let journal = load(path)?;
            if flags.switches.iter().any(|s| s == "json") {
                let json = serde_json::to_string_pretty(&journal.summary_json())
                    .map_err(|e| e.to_string())?;
                println!("{json}");
            } else {
                print!("{}", journal.summary());
            }
            Ok(())
        }
        "lineage" => {
            let flags = parse_flags(rest, "json", "")?;
            let path = flags.positional.first().ok_or("trace lineage needs a journal FILE")?;
            let journal = load(path)?;
            let report = LineageReport::from_journal(&journal);
            if report.is_empty() {
                return Err(format!(
                    "{path} has no lineage records — produce it with \
                     `grm mine --trace` (journal schema v4+)"
                ));
            }
            if flags.switches.iter().any(|s| s == "json") {
                let json = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
                println!("{json}");
            } else {
                print!("{}", report.render());
            }
            Ok(())
        }
        "faults" => {
            let flags = parse_flags(rest, "json", "")?;
            let path = flags.positional.first().ok_or("trace faults needs a journal FILE")?;
            let journal = load(path)?;
            let report = FaultReport::from_journal(&journal);
            if report.is_empty() {
                return Err(format!(
                    "{path} has no chaos records — produce it with \
                     `grm mine --fault-rate 0.2 --trace FILE.jsonl` (journal schema v5+)"
                ));
            }
            if flags.switches.iter().any(|s| s == "json") {
                let json = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
                println!("{json}");
            } else {
                print!("{}", report.render());
            }
            Ok(())
        }
        "diff" => {
            let flags = parse_flags(rest, "json", "tolerance")?;
            let [a_path, b_path] = flags.positional.as_slice() else {
                return Err("trace diff needs two journal files: A.jsonl B.jsonl".into());
            };
            let tolerance: f64 = parse_or(&flags, "tolerance", 0.05)?;
            let diff = TraceDiff::compute(&load(a_path)?, &load(b_path)?);
            if flags.switches.iter().any(|s| s == "json") {
                let json = serde_json::to_string_pretty(&diff).map_err(|e| e.to_string())?;
                println!("{json}");
            } else {
                print!("{}", diff.render());
            }
            let worst = diff.max_relative_sim_delta();
            if worst > tolerance {
                return Err(format!(
                    "stage sim-time shift {:.1}% exceeds tolerance {:.1}%",
                    worst * 100.0,
                    tolerance * 100.0
                ));
            }
            if !flags.switches.iter().any(|s| s == "json") {
                println!(
                    "max stage sim-time shift {:.1}% within tolerance {:.1}%",
                    worst * 100.0,
                    tolerance * 100.0
                );
            }
            Ok(())
        }
        "timeline" => {
            let flags = parse_flags(rest, "json", "top")?;
            let path = flags.positional.first().ok_or("trace timeline needs a journal FILE")?;
            let top: usize = parse_or(&flags, "top", 8)?;
            let journal = load(path)?;
            let report = TimelineReport::from_journal(&journal);
            if report.is_empty() {
                return Err(format!(
                    "{path} carries no simulated time to place on a timeline — produce it \
                     with `grm mine --trace` or `repro --timeline` (journal schema v7+)"
                ));
            }
            if flags.switches.iter().any(|s| s == "json") {
                let json = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
                println!("{json}");
            } else {
                print!("{}", report.render(top));
            }
            Ok(())
        }
        "critical-path" => {
            let flags = parse_flags(rest, "json", "top")?;
            let path =
                flags.positional.first().ok_or("trace critical-path needs a journal FILE")?;
            let top: usize = parse_or(&flags, "top", 3)?;
            let journal = load(path)?;
            let report = CriticalPathReport::from_journal(&journal);
            if report.is_empty() {
                return Err(format!(
                    "{path} carries no simulated time to walk a critical path through — \
                     produce it with `grm mine --trace` or `repro --timeline` (journal \
                     schema v7+)"
                ));
            }
            if flags.switches.iter().any(|s| s == "json") {
                let json = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
                println!("{json}");
            } else {
                print!("{}", report.render(top));
            }
            Ok(())
        }
        "flame" => {
            let flags = parse_flags(rest, "real sim mem", "")?;
            let path = flags.positional.first().ok_or("trace flame needs a journal FILE")?;
            let sim = flags.switches.iter().any(|s| s == "sim");
            let real = flags.switches.iter().any(|s| s == "real");
            let mem = flags.switches.iter().any(|s| s == "mem");
            if (sim as u8) + (real as u8) + (mem as u8) > 1 {
                return Err("--real, --sim and --mem are mutually exclusive".into());
            }
            let weight = if sim {
                FlameWeight::Sim
            } else if mem {
                FlameWeight::Mem
            } else {
                FlameWeight::Real
            };
            print!("{}", folded_stacks(&load(path)?, weight));
            Ok(())
        }
        "mem" => {
            let flags = parse_flags(rest, "json", "top")?;
            let path = flags.positional.first().ok_or("trace mem needs a journal FILE")?;
            let top: usize = parse_or(&flags, "top", 10)?;
            let journal = load(path)?;
            let report = MemReport::from_journal(&journal);
            if report.is_empty() {
                return Err(format!(
                    "{path} has no memory records — produce it with \
                     `grm mine --trace` (journal schema v6+)"
                ));
            }
            if flags.switches.iter().any(|s| s == "json") {
                let json = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
                println!("{json}");
            } else {
                print!("{}", report.render(top));
            }
            Ok(())
        }
        "plans" => {
            let flags = parse_flags(rest, "json", "top")?;
            let path = flags.positional.first().ok_or("trace plans needs a journal FILE")?;
            let top: usize = parse_or(&flags, "top", 10)?;
            let journal = load(path)?;
            let optimizer = OptimizerReport::from_journal(&journal);
            if flags.switches.iter().any(|s| s == "json") {
                // The machine-readable optimizer digest — what CI
                // uploads as the optimizer stats artifact.
                let json = serde_json::to_string_pretty(&optimizer).map_err(|e| e.to_string())?;
                println!("{json}");
                return Ok(());
            }
            let report = PlanReport::from_journal(&journal);
            if report.is_empty() {
                return Err(format!(
                    "{path} has no query-plan records — produce it with \
                     `grm mine --trace` or `grm check --trace` (journal schema v3+)"
                ));
            }
            print!("{}", report.render(top));
            if !optimizer.is_empty() {
                print!("{}", optimizer.render());
            }
            Ok(())
        }
        "tail" => {
            let flags = parse_flags(rest, "no-follow", "")?;
            let path = flags.positional.first().ok_or("trace tail needs an events FILE.jsonl")?;
            let follow = !flags.switches.iter().any(|s| s == "no-follow");
            tail_events(path, follow)
        }
        "prom" => {
            let flags = parse_flags(rest, "", "events")?;
            let path = flags.positional.first().ok_or("trace prom needs a metrics FILE.prom")?;
            let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            let samples = graph_rule_mining::obs::parse_exposition(&text)
                .map_err(|e| format!("{path}: {e}"))?;
            let counters = samples.iter().filter(|s| s.kind == "counter").count();
            println!(
                "exposition OK: {} samples ({} counters, {} gauges)",
                samples.len(),
                counters,
                samples.len() - counters
            );
            let Some(events_path) = flags.named.get("events") else {
                return Ok(());
            };
            let journal = load(events_path)?;
            if !journal.has_events() {
                return Err(format!(
                    "{events_path} has no Event records — produce it with \
                     `grm mine --events` (journal schema v8+)"
                ));
            }
            let violations =
                graph_rule_mining::obs::check_exposition_against_events(&samples, &journal.events);
            if violations.is_empty() {
                println!(
                    "counter cross-check passed: {path} is monotone and consistent with \
                     {events_path} ({} events)",
                    journal.events.len()
                );
                Ok(())
            } else {
                for v in &violations {
                    eprintln!("REGRESSION: {v}");
                }
                Err(format!("{} exposition violation(s) against {events_path}", violations.len()))
            }
        }
        other => Err(format!("unknown trace verb `{other}`\n{USAGE}")),
    }
}

/// `grm trace tail`: follows an `--events` stream file (possibly still
/// being written by another process), printing one line per telemetry
/// event until the `run_end` event arrives — or until EOF when
/// `--no-follow` is passed. Torn trailing lines are retried on the
/// next poll, never mis-parsed, and a truncated or rotated file (size
/// dropping below the follower's offset) is re-followed from the top
/// instead of waiting forever past stale EOF.
fn tail_events(path: &str, follow: bool) -> Result<(), String> {
    use graph_rule_mining::obs::{JournalRecord, TailFollower, TelemetryEvent};

    let mut follower = TailFollower::new();
    let mut shown: u64 = 0;
    let mut done = false;
    loop {
        let poll = follower
            .poll(std::path::Path::new(path))
            .map_err(|e| format!("tailing {path}: {e}"))?;
        if poll.truncated {
            eprintln!("(file truncated or rotated — re-following from the start)");
        }
        let progressed = !poll.lines.is_empty();
        for line in &poll.lines {
            match serde_json::from_str::<JournalRecord>(line) {
                Ok(JournalRecord::Meta { version, .. }) => {
                    println!("# events stream (journal v{version})");
                }
                Ok(JournalRecord::Event(ev)) => {
                    println!("{}", render_event(&ev));
                    shown += 1;
                    if ev.kind == TelemetryEvent::RUN_END {
                        done = true;
                    }
                }
                // Other record kinds (a full journal) and foreign
                // lines are not part of the stream — skip them.
                Ok(_) | Err(_) => {}
            }
            if done {
                break;
            }
        }
        if done {
            break;
        }
        if !progressed {
            if !follow {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(200));
        }
    }
    eprintln!("({shown} events)");
    Ok(())
}

fn render_event(ev: &graph_rule_mining::obs::TelemetryEvent) -> String {
    let span = ev.span.map(|s| format!("#{s}")).unwrap_or_else(|| "-".into());
    let mut out = format!("{:>7}  {:<10} {:<5} {}", ev.seq, ev.kind, span, ev.name);
    if !ev.detail.is_empty() {
        out.push_str(&format!(" [{}]", ev.detail));
    }
    if ev.value != 0.0 {
        out.push_str(&format!(" = {}", ev.value));
    }
    out
}

/// `grm explain rule-<i> FILE.jsonl`: the full ancestry chain of one
/// mined rule — origin windows/chunks, merge frequency, translation
/// attempts, error class and correction, scores, and the query-plan
/// profile when the journal carries one.
fn cmd_explain(args: &[String]) -> Result<(), String> {
    use graph_rule_mining::obs::{explain_rule, RunJournal};

    let flags = parse_flags(args, "", "")?;
    let [rule, path] = flags.positional.as_slice() else {
        return Err("explain needs a rule id and a journal: grm explain rule-0 FILE.jsonl".into());
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let journal =
        RunJournal::from_jsonl_lossy(&text).map_err(|e| format!("parsing {path}: {e}"))?;
    match explain_rule(&journal, rule) {
        Some(rendered) => {
            print!("{rendered}");
            Ok(())
        }
        None if !journal.has_lineage() => Err(format!(
            "{path} has no lineage records — produce it with `grm mine --trace` (journal schema v4+)"
        )),
        None => {
            let known: Vec<&str> = journal.lineages.iter().map(|l| l.rule.as_str()).collect();
            Err(format!("no rule `{rule}` in {path} (rules: {})", known.join(", ")))
        }
    }
}

/// `grm serve`: with no verb, runs the failure-first job server;
/// with a verb (`submit`, `status`, `stats`, `drain`, `load`), acts
/// as an HTTP client against a running server.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("submit") => cmd_serve_submit(&args[1..]),
        Some("status") => cmd_serve_status(&args[1..]),
        Some("stats") => cmd_serve_stats(&args[1..]),
        Some("drain") => cmd_serve_drain(&args[1..]),
        Some("load") => cmd_serve_load(&args[1..]),
        Some(other) if !other.starts_with("--") => {
            Err(format!("unknown serve verb `{other}` (submit|status|stats|drain|load)"))
        }
        _ => cmd_serve_server(args),
    }
}

fn cmd_serve_server(args: &[String]) -> Result<(), String> {
    use graph_rule_mining::obs::MetricsHub;
    use graph_rule_mining::resil::ChaosConfig;
    use graph_rule_mining::rules::ConsistencyRule;
    use graph_rule_mining::serve::{serve_http, ServeConfig, Service};
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    let flags = parse_flags(
        args,
        "",
        "listen graph rules workers queue-depth rate-limit burst spool fault-rate fault-seed \
         max-retries breaker-threshold",
    )?;
    let g = load_graph(&flags)?;
    let rules: Vec<ConsistencyRule> = match flags.named.get("rules") {
        Some(path) => {
            let json = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            serde_json::from_str(&json).map_err(|e| format!("parsing {path}: {e}"))?
        }
        None => Vec::new(),
    };
    let listen = flags.named.get("listen").ok_or("--listen ADDR is required")?;
    let chaos = ChaosConfig::default();
    let defaults = ServeConfig::default();
    let config = ServeConfig {
        queue_depth: parse_or(&flags, "queue-depth", defaults.queue_depth)?,
        workers: parse_or(&flags, "workers", defaults.workers)?,
        fault_rate: parse_or(&flags, "fault-rate", 0.0)?,
        fault_seed: parse_or(&flags, "fault-seed", chaos.fault_seed)?,
        max_retries: parse_or(&flags, "max-retries", chaos.max_retries)?,
        breaker_threshold: parse_or(&flags, "breaker-threshold", chaos.breaker_threshold)?,
        rate_limit: parse_or(&flags, "rate-limit", defaults.rate_limit)?,
        burst: parse_or(&flags, "burst", defaults.burst)?,
        spool: flags.named.get("spool").map(std::path::PathBuf::from).unwrap_or(defaults.spool),
        deterministic: false,
    };
    let workers = config.workers.max(1);
    // The metrics hub doubles as the health endpoint: queue depth,
    // shed counters, and per-tenant breaker state land as gauges on
    // the `/metrics` route.
    let hub = Arc::new(MetricsHub::new(None, 64, Arc::new(AtomicU64::new(0))));
    let service =
        Service::open(g, rules, config, Some(hub)).map_err(|e| format!("opening service: {e}"))?;
    let requeued = service.stats().queue_depth;
    let listener =
        std::net::TcpListener::bind(listen).map_err(|e| format!("binding {listen}: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    eprintln!(
        "serving on http://{addr} ({workers} worker(s), spool {}, {requeued} job(s) re-queued \
         from the WAL)",
        service.spool().display()
    );
    let worker_handles: Vec<_> = (0..workers)
        .map(|_| {
            let service = Arc::clone(&service);
            std::thread::spawn(move || while service.execute_next(true) {})
        })
        .collect();
    serve_http(service, listener).map_err(|e| format!("serving: {e}"))?;
    for handle in worker_handles {
        let _ = handle.join();
    }
    eprintln!("drained clean");
    Ok(())
}

/// The `{"job":N}` body of a successful `POST /jobs`.
#[derive(serde::Deserialize)]
struct SubmitResponse {
    job: u64,
}

fn serve_addr(flags: &Flags) -> Result<String, String> {
    Ok(flags.named.get("addr").ok_or("--addr ADDR is required")?.clone())
}

/// Polls one job until it settles (completed/failed/cancelled/
/// interrupted) or `timeout` passes.
fn serve_wait_settled(
    addr: &str,
    job: u64,
    timeout: std::time::Duration,
) -> Result<graph_rule_mining::serve::JobStatus, String> {
    use graph_rule_mining::serve::{http_request, state, JobStatus};
    let deadline = std::time::Instant::now() + timeout;
    loop {
        let (status, body) = http_request(addr, "GET", &format!("/jobs/{job}"), "")
            .map_err(|e| format!("querying job {job}: {e}"))?;
        if status != 200 {
            return Err(format!("job {job}: HTTP {status}: {body}"));
        }
        let parsed: JobStatus =
            serde_json::from_str(&body).map_err(|e| format!("job {job} status: {e}"))?;
        if state::is_settled(&parsed.state) {
            return Ok(parsed);
        }
        if std::time::Instant::now() >= deadline {
            return Err(format!("job {job} did not settle within {timeout:?}"));
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
}

fn print_job_status(status: &graph_rule_mining::serve::JobStatus) {
    println!(
        "job {} [{}] {}/{}: {}",
        status.id, status.state, status.tenant, status.kind, status.detail
    );
}

fn cmd_serve_submit(args: &[String]) -> Result<(), String> {
    use graph_rule_mining::serve::{http_request, JobSpec};

    let flags = parse_flags(args, "wait", "addr tenant kind seed deadline kill-after rule source")?;
    let addr = serve_addr(&flags)?;
    let spec = JobSpec {
        tenant: flags.named.get("tenant").cloned().unwrap_or_default(),
        kind: flags.named.get("kind").cloned().unwrap_or_default(),
        seed: parse_opt(&flags, "seed")?,
        deadline_seconds: parse_opt(&flags, "deadline")?,
        kill_after: parse_opt(&flags, "kill-after")?,
        rule: flags.named.get("rule").cloned(),
        source: parse_opt(&flags, "source")?,
    };
    let body = serde_json::to_string(&spec).map_err(|e| e.to_string())?;
    let (status, body) =
        http_request(&addr, "POST", "/jobs", &body).map_err(|e| format!("submitting: {e}"))?;
    if status != 202 {
        return Err(format!("rejected: HTTP {status}: {body}"));
    }
    let accepted: SubmitResponse =
        serde_json::from_str(&body).map_err(|e| format!("parsing response: {e}"))?;
    println!("job {}", accepted.job);
    if flags.switches.iter().any(|s| s == "wait") {
        let settled = serve_wait_settled(&addr, accepted.job, std::time::Duration::from_secs(600))?;
        print_job_status(&settled);
    }
    Ok(())
}

fn cmd_serve_status(args: &[String]) -> Result<(), String> {
    use graph_rule_mining::serve::{http_request, JobStatus};

    let flags = parse_flags(args, "wait", "addr job")?;
    let addr = serve_addr(&flags)?;
    let job: u64 = parse_opt(&flags, "job")?.ok_or("--job N is required")?;
    let status = if flags.switches.iter().any(|s| s == "wait") {
        serve_wait_settled(&addr, job, std::time::Duration::from_secs(600))?
    } else {
        let (code, body) = http_request(&addr, "GET", &format!("/jobs/{job}"), "")
            .map_err(|e| format!("querying job {job}: {e}"))?;
        if code != 200 {
            return Err(format!("job {job}: HTTP {code}: {body}"));
        }
        serde_json::from_str::<JobStatus>(&body).map_err(|e| format!("job {job} status: {e}"))?
    };
    print_job_status(&status);
    Ok(())
}

fn cmd_serve_stats(args: &[String]) -> Result<(), String> {
    use graph_rule_mining::serve::{http_request, ServeStats};

    let flags = parse_flags(args, "", "addr")?;
    let addr = serve_addr(&flags)?;
    let (code, body) =
        http_request(&addr, "GET", "/stats", "").map_err(|e| format!("querying stats: {e}"))?;
    if code != 200 {
        return Err(format!("stats: HTTP {code}: {body}"));
    }
    let stats: ServeStats = serde_json::from_str(&body).map_err(|e| e.to_string())?;
    println!("{}", serde_json::to_string_pretty(&stats).map_err(|e| e.to_string())?);
    Ok(())
}

fn cmd_serve_drain(args: &[String]) -> Result<(), String> {
    use graph_rule_mining::serve::http_request;

    let flags = parse_flags(args, "", "addr")?;
    let addr = serve_addr(&flags)?;
    let (code, body) =
        http_request(&addr, "POST", "/shutdown", "").map_err(|e| format!("draining: {e}"))?;
    if code != 202 {
        return Err(format!("drain: HTTP {code}: {body}"));
    }
    println!("draining");
    Ok(())
}

/// `grm serve load`: the overload drill. Fires `--jobs` concurrent
/// `check` submissions across `--tenants` tenants, optionally abuses
/// the server with `--abuse` deadline-busting jobs from one tenant
/// (to trip its breaker), then verifies the service's core promises:
/// every accepted job settles (zero accepted-then-lost), the queue
/// never outgrew its bound, and — under `--expect-shed` /
/// `--expect-trips` — that overload actually shed and the abusive
/// tenant actually tripped.
fn cmd_serve_load(args: &[String]) -> Result<(), String> {
    use graph_rule_mining::serve::{http_request, ServeStats};
    use std::sync::{Arc, Mutex};

    let flags =
        parse_flags(args, "expect-shed expect-trips", "addr jobs tenants concurrency abuse")?;
    let addr = serve_addr(&flags)?;
    let jobs: usize = parse_or(&flags, "jobs", 200)?;
    let tenants: usize = parse_or(&flags, "tenants", 4)?.max(1);
    let concurrency: usize = parse_or(&flags, "concurrency", 16)?.max(1);
    let abuse: usize = parse_or(&flags, "abuse", 0)?;

    // Burst phase: `concurrency` threads submit checks round-robin
    // across tenants as fast as the server will take them.
    let accepted: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let rejected: Arc<Mutex<HashMap<u16, usize>>> = Arc::new(Mutex::new(HashMap::new()));
    let errors: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let handles: Vec<_> = (0..concurrency)
        .map(|worker| {
            let (addr, accepted, rejected, errors) =
                (addr.clone(), Arc::clone(&accepted), Arc::clone(&rejected), Arc::clone(&errors));
            std::thread::spawn(move || {
                for i in (worker..jobs).step_by(concurrency) {
                    let body =
                        format!("{{\"tenant\":\"load-{}\",\"kind\":\"check\"}}", i % tenants);
                    match http_request(&addr, "POST", "/jobs", &body) {
                        Ok((202, body)) => match serde_json::from_str::<SubmitResponse>(&body) {
                            Ok(r) => accepted.lock().unwrap().push(r.job),
                            Err(e) => errors.lock().unwrap().push(format!("job body: {e}")),
                        },
                        Ok((code, _)) => *rejected.lock().unwrap().entry(code).or_default() += 1,
                        Err(e) => errors.lock().unwrap().push(format!("submit: {e}")),
                    }
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().map_err(|_| "load worker panicked")?;
    }
    let accepted = Arc::try_unwrap(accepted).unwrap().into_inner().unwrap();
    let rejected = Arc::try_unwrap(rejected).unwrap().into_inner().unwrap();
    let errors = Arc::try_unwrap(errors).unwrap().into_inner().unwrap();
    if !errors.is_empty() {
        return Err(format!("{} transport error(s): {}", errors.len(), errors[0]));
    }

    // Abuse phase: one tenant submits deadline-busting jobs one at a
    // time, each waited to settlement, so its failures are consecutive
    // and its breaker must trip. A momentarily full queue or empty
    // bucket (429) is backed off and retried — only the breaker's 403
    // counts as the refusal this phase is trying to provoke.
    let mut abuse_accepted = 0usize;
    let mut abuse_rejected = 0usize;
    for i in 0..abuse {
        let body = "{\"tenant\":\"abuser\",\"kind\":\"check\",\"deadline_seconds\":0.001}";
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
        loop {
            match http_request(&addr, "POST", "/jobs", body) {
                Ok((202, body)) => {
                    abuse_accepted += 1;
                    let r: SubmitResponse =
                        serde_json::from_str(&body).map_err(|e| e.to_string())?;
                    serve_wait_settled(&addr, r.job, std::time::Duration::from_secs(60))?;
                    break;
                }
                Ok((403, _)) => {
                    abuse_rejected += 1;
                    break;
                }
                Ok((429, _)) if std::time::Instant::now() < deadline => {
                    std::thread::sleep(std::time::Duration::from_millis(100));
                }
                Ok((code, body)) => {
                    return Err(format!("abuse job {i}: HTTP {code}: {body}"));
                }
                Err(e) => return Err(format!("abuse submit: {e}")),
            }
        }
    }

    // Every accepted job must settle: accepted-then-lost is the one
    // unforgivable failure mode.
    let mut settled: HashMap<String, usize> = HashMap::new();
    for id in &accepted {
        let status = serve_wait_settled(&addr, *id, std::time::Duration::from_secs(120))
            .map_err(|e| format!("accepted job lost: {e}"))?;
        *settled.entry(status.state).or_default() += 1;
    }

    let (code, body) =
        http_request(&addr, "GET", "/stats", "").map_err(|e| format!("stats: {e}"))?;
    if code != 200 {
        return Err(format!("stats: HTTP {code}: {body}"));
    }
    let stats: ServeStats = serde_json::from_str(&body).map_err(|e| e.to_string())?;

    println!("submitted: {jobs} burst + {abuse} abuse");
    println!("accepted:  {} burst + {abuse_accepted} abuse", accepted.len());
    let mut rejections: Vec<_> = rejected.iter().collect();
    rejections.sort();
    for (code, count) in rejections {
        println!("rejected:  {count} x HTTP {code}");
    }
    println!("abuse rejections: {abuse_rejected}");
    let mut states: Vec<_> = settled.iter().collect();
    states.sort();
    for (state, count) in states {
        println!("settled:   {count} {state}");
    }
    println!(
        "server:    shed_queue_full={} shed_rate_limited={} breaker_trips={} \
         queue_depth_peak={}/{}",
        stats.shed_queue_full,
        stats.shed_rate_limited,
        stats.breaker_trips,
        stats.queue_depth_peak,
        stats.queue_depth_limit
    );

    if stats.queue_depth_peak > stats.queue_depth_limit {
        return Err(format!(
            "queue depth peaked at {} past its {} bound",
            stats.queue_depth_peak, stats.queue_depth_limit
        ));
    }
    if flags.switches.iter().any(|s| s == "expect-shed")
        && stats.shed_queue_full + stats.shed_rate_limited == 0
    {
        return Err("expected overload shedding, but no submission was shed".into());
    }
    if flags.switches.iter().any(|s| s == "expect-trips") && stats.breaker_trips == 0 {
        return Err("expected the abusive tenant to trip its breaker, but none tripped".into());
    }
    println!("load drill passed: no accepted job lost, queue stayed bounded");
    Ok(())
}
