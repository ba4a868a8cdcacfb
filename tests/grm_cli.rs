//! `grm` flag handling: every verb rejects a flag it does not read —
//! a misspelled or retired flag exits 1 with `error: unknown flag`
//! before any work, never a panic — rejects a flag given twice, and
//! accepts every flag it documents.

use std::process::Command;

/// No test creates this file; a verb that gets past flag parsing
/// fails on reading it.
const MISSING: &str = "missing.json";

/// Runs `grm` with whitespace-separated `args` and returns its exit
/// code and stderr.
fn grm(args: &str) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_grm"))
        .args(args.split_whitespace())
        .output()
        .expect("spawn grm");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn every_verb_rejects_flags_it_does_not_read() {
    let cases = [
        ("scal", "generate --dataset wwc2019 --out missing.json --scal 0.2"),
        ("bogus", "stats --graph missing.json --bogus 1"),
        ("bogus", "schema --graph missing.json --bogus 1"),
        ("encodr", "encode --graph missing.json --encodr adjacency"),
        ("limit", "query --graph missing.json --limit 3"),
        ("fault-rat", "mine --graph missing.json --fault-rat 0.3"),
        ("plan-cache-size", "mine --graph missing.json --plan-cache-size 8"),
        ("no-optimizer", "mine --graph missing.json --no-optimizer"),
        ("no-optimizer", "mine --no-optimizer --graph missing.json"),
        ("limt", "audit --graph missing.json --limt 2"),
        ("trace-summary", "check --graph missing.json --rules missing.json --trace-summary"),
        ("treshold", "diff --before missing.json --after missing.json --treshold 2"),
        ("json", "explain rule-0 missing.json --json"),
        ("top", "trace summary missing.json --top 3"),
        ("tolerence", "trace diff missing.json missing.json --tolerence 0.1"),
        ("json", "trace flame missing.json --json"),
        ("limit", "trace plans missing.json --limit 3"),
        ("top", "trace lineage missing.json --top 3"),
        ("top", "trace faults missing.json --top 3"),
        ("sim", "trace mem missing.json --sim"),
        ("follow", "trace timeline missing.json --follow"),
        ("tpo", "trace critical-path missing.json --tpo 3"),
        ("json", "trace tail missing.json --json"),
        ("event", "trace prom missing.json --event missing.json"),
        ("queue", "serve --listen 127.0.0.1:0 --graph missing.json --queue 4"),
        ("wiat", "serve submit --addr 127.0.0.1:1 --kind mine --wiat"),
        ("jbo", "serve status --addr 127.0.0.1:1 --jbo 2"),
        ("json", "serve stats --addr 127.0.0.1:1 --json"),
        ("now", "serve drain --addr 127.0.0.1:1 --now"),
        ("expect-shd", "serve load --addr 127.0.0.1:1 --expect-shd"),
    ];
    for (flag, args) in cases {
        let (code, stderr) = grm(args);
        assert_eq!(code, Some(1), "{args}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args}: {stderr}");
        assert_eq!(stderr.trim_end(), format!("error: unknown flag --{flag}"), "{args}");
    }
}

#[test]
fn every_verb_rejects_a_repeated_flag() {
    let cases = [
        ("seed", "mine --graph missing.json --seed 3 --seed 4 --deterministic --json r.json"),
        ("scale", "generate --dataset wwc2019 --scale 0.2 --scale 0.3 --out missing.json"),
        ("top", "trace plans missing.json --top 3 --top 4"),
        ("tenant", "serve submit --addr 127.0.0.1:1 --tenant a --tenant b --kind mine"),
        ("json", "trace summary missing.json --json --json"),
    ];
    for (flag, args) in cases {
        let (code, stderr) = grm(args);
        assert_eq!(code, Some(1), "{args}: {stderr}");
        assert_eq!(stderr.trim_end(), format!("error: repeated flag --{flag}"), "{args}");
    }
}

#[test]
fn every_documented_flag_gets_past_parsing() {
    let cases = [
        "stats --graph missing.json",
        "schema --graph missing.json",
        "encode --graph missing.json --encoder adjacency",
        "query --graph missing.json",
        "mine --graph missing.json --model mixtral --strategy rag --prompting few --seed 7 \
         --workers 2 --json out.json --rules-out out.json --trace out.jsonl --trace-summary \
         --deterministic --slow-query-ms 5 --slow-query-db-hits 9 --fault-rate 0.1 \
         --fault-seed 3 --max-retries 2 --breaker-threshold 4 --kill-after 1 \
         --resume missing.json --progress --events out.jsonl --metrics-out out.prom \
         --metrics-every 8 --metrics-listen 127.0.0.1:0",
        "audit --graph missing.json --limit 2",
        "check --graph missing.json --rules missing.json --limit 2 --trace out.jsonl",
        "diff --before missing.json --after missing.json --rules missing.json --threshold 2",
        "explain rule-0 missing.json",
        "trace summary missing.json --json",
        "trace diff missing.json missing.json --json --tolerance 0.1",
        "trace flame missing.json --sim",
        "trace plans missing.json --top 3 --json",
        "trace lineage missing.json --json",
        "trace faults missing.json --json",
        "trace mem missing.json --top 3 --json",
        "trace timeline missing.json --top 3 --json",
        "trace critical-path missing.json --top 3 --json",
        "trace tail missing.json --no-follow",
        "trace prom missing.json --events missing.json",
        "serve --listen 127.0.0.1:0 --graph missing.json --rules missing.json --workers 1 \
         --queue-depth 2 --rate-limit 1 --burst 1 --spool spool --fault-rate 0 \
         --fault-seed 1 --max-retries 1 --breaker-threshold 1",
    ];
    for args in cases {
        let (code, stderr) = grm(args);
        assert_eq!(code, Some(1), "{args}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args}: {stderr}");
        assert!(stderr.contains(MISSING), "{args} should fail on reading {MISSING}: {stderr}");
    }
}
