//! Expected outputs that do not come from the code under test.
//!
//! The per-op checks compare each op with set-up's run of the same
//! code, so they catch only outputs that change from run to run. After
//! the measured phase, every workload also runs its own op on fixed
//! inputs, generated from [`GOLDEN_SEED`] whatever `--seed` is, and
//! compares the rule tables, scores and job results with the values
//! committed in `perfbench/golden.json`. A change that gives the same
//! wrong output on every run fails here.
//!
//! `perfbench --workload W --write-golden 1` rewrites W's entries; do
//! that only when the program's output changes on purpose.

use std::collections::BTreeMap;
use std::fmt::Write;

use grm_obs::LineageRecord;

/// Seed of the golden inputs.
pub const GOLDEN_SEED: u64 = 42;

const PATH: &str = "perfbench/golden.json";

/// Case name → output digest.
pub type Cases = Vec<(String, String)>;

/// Digest of a run's rule table and scores, from its journal's lineage
/// records: per rule its statement, strategy, merge frequency,
/// translation attempts, error class before and after correction,
/// support, coverage and confidence. Span ids, origins and wall times
/// are left out. FNV-1a, so the digest is the same on every toolchain.
pub fn rules_digest(lineages: &[LineageRecord]) -> String {
    let mut text = String::new();
    for l in lineages {
        let _ = writeln!(
            text,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{:?}\t{:?}\t{:?}",
            l.index,
            l.nl,
            l.strategy,
            l.frequency,
            l.translation_attempts,
            l.error_class,
            l.final_class,
            l.corrected,
            l.support,
            l.coverage_pct,
            l.confidence_pct
        );
    }
    let fnv = text
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3));
    format!("{} rules {fnv:016x}", lineages.len())
}

fn read() -> Result<BTreeMap<String, String>, String> {
    let text = std::fs::read_to_string(PATH).map_err(|e| format!("reading {PATH}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{PATH}: {e}"))
}

/// One message per case whose digest differs from the committed one
/// or has none.
pub fn check(cases: &Cases) -> Result<Vec<String>, String> {
    let want = read()?;
    Ok(cases
        .iter()
        .filter_map(|(name, got)| match want.get(name) {
            Some(w) if w == got => None,
            Some(w) => Some(format!("golden {name}: got `{got}`, expected `{w}`")),
            None => Some(format!("golden {name}: no expected value in {PATH}")),
        })
        .collect())
}

/// Replaces `workload`'s entries in the committed file with `cases`.
pub fn write(workload: &str, cases: &Cases) -> Result<(), String> {
    let mut all = read()?;
    all.retain(|name, _| !name.starts_with(&format!("{workload}/")));
    all.extend(cases.iter().cloned());
    let text = serde_json::to_string_pretty(&all).map_err(|e| e.to_string())?;
    std::fs::write(PATH, text + "\n").map_err(|e| format!("writing {PATH}: {e}"))
}
