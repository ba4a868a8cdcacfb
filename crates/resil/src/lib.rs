//! Deterministic fault injection and retry planning for the mining
//! pipeline — the chaos substrate behind `grm mine --fault-rate`.
//!
//! Real deployments of the paper's pipeline make one LLM call per
//! window, one per translated rule, and one Cypher query per scored
//! rule; every one of those can time out, rate-limit, or return
//! garbage. This crate decides — purely as a function of a fault
//! seed — which calls fail, with what transient error, and how the
//! retry backoff spaces the attempts, so a chaos run is as replayable
//! byte-for-byte as the seeded `SimLlm` success path.
//!
//! A [`ChaosConfig`] is the fault oracle: given a `(stage, unit key)`
//! pair it rolls each attempt independently through a splitmix64-style
//! hash of `(fault_seed, stage, key, attempt)` and produces a
//! [`UnitPlan`] — the full fault/backoff history of that unit plus its
//! terminal [`UnitOutcome`]. [`ChaosConfig::schedule`] folds a stage's
//! unit plans through a circuit breaker (trips after N consecutive
//! abandonments, skips a cooldown's worth of units, then half-opens),
//! again as a pure function of the plan so the result is independent
//! of worker scheduling. [`UnitPlan::run`] then runs, prices, journals
//! and checkpoints one unit, the same way for every stage.

use grm_obs::{CheckpointRecord, Counter, DegradedRecord, FaultRecord, RetryRecord, Scope};

/// splitmix64-style mixing step: deterministic, well-distributed, and
/// stable across platforms — the basis for every fault decision.
#[inline]
pub fn mix(h: u64, v: u64) -> u64 {
    let mut z = h ^ v.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Maps a hash to a uniform fraction in `[0, 1)` using the top 53
/// bits, the same construction `rand` uses for `f64` sampling.
#[inline]
pub fn unit_fraction(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// The pipeline stage a fallible call belongs to. Stages roll faults
/// from independent hash streams and carry their own deadline budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Stage {
    /// One LLM mining call per encoded context.
    Mine,
    /// One LLM translation call per selected rule.
    Translate,
    /// One Cypher evaluation per scoreable rule.
    Evaluate,
}

impl Stage {
    /// Hash-stream tag, mixed into every roll for this stage.
    pub fn tag(self) -> u64 {
        match self {
            Stage::Mine => 0x4d49_4e45,      // "MINE"
            Stage::Translate => 0x5452_414e, // "TRAN"
            Stage::Evaluate => 0x4556_414c,  // "EVAL"
        }
    }

    /// Stable lowercase stage name used in journal records.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Mine => "mine",
            Stage::Translate => "translate",
            Stage::Evaluate => "evaluate",
        }
    }

    /// Simulated deadline budget for one call at this stage — the
    /// cost charged when a call times out.
    pub fn deadline_seconds(self) -> f64 {
        match self {
            Stage::Mine => 20.0,
            Stage::Translate => 8.0,
            Stage::Evaluate => 1.5,
        }
    }
}

/// Transient error kinds the plan can inject. LLM stages draw from
/// the first three; the evaluator only ever sees `QueryTransient`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum FaultKind {
    /// The call ran past the stage deadline and was cancelled.
    Timeout,
    /// The provider rate-limited the call; a fixed stall is charged.
    RateLimit,
    /// The completion came back truncated/garbled and was discarded.
    Garbled,
    /// The graph database rejected the query transiently.
    QueryTransient,
}

impl FaultKind {
    /// Stable snake_case name used in journal `Fault` records.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Timeout => "timeout",
            FaultKind::RateLimit => "rate_limit",
            FaultKind::Garbled => "garbled",
            FaultKind::QueryTransient => "query_transient",
        }
    }

    /// Simulated seconds lost to one occurrence of this fault.
    /// `call_seconds` is what the discarded call itself would have
    /// cost — only `Garbled` pays it (the completion streamed fully
    /// before it was found unusable).
    pub fn cost_seconds(self, stage: Stage, call_seconds: f64) -> f64 {
        match self {
            FaultKind::Timeout => stage.deadline_seconds(),
            FaultKind::RateLimit => 5.0,
            FaultKind::Garbled => call_seconds,
            FaultKind::QueryTransient => 0.05,
        }
    }
}

/// Chaos parameters: the fault seed, the per-call fault probability,
/// and the retry/breaker envelope.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ChaosConfig {
    /// Seed of the fault stream, independent of the run seed.
    pub fault_seed: u64,
    /// Probability that any single attempt faults, in `[0, 1]`.
    pub fault_rate: f64,
    /// Retries after the first attempt before a unit is abandoned.
    pub max_retries: u32,
    /// Consecutive abandoned units that trip the stage breaker.
    pub breaker_threshold: u32,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig { fault_seed: 7, fault_rate: 0.0, max_retries: 3, breaker_threshold: 4 }
    }
}

/// Simulated delay before the first retry.
const BACKOFF_BASE_SECONDS: f64 = 0.5;
/// Growth factor of the delay per further retry.
const BACKOFF_MULTIPLIER: f64 = 2.0;
/// Ceiling on any single delay, before jitter.
const BACKOFF_MAX_SECONDS: f64 = 30.0;
/// Jitter amplitude as a fraction of the delay; the realised jitter is
/// keyed on `(fault_seed, stage, key)` only, so delays stay monotone
/// in the attempt number.
const BACKOFF_JITTER: f64 = 0.25;

impl ChaosConfig {
    /// Rolls one attempt: `Some(kind)` when the attempt faults.
    /// Evaluate units only ever see `QueryTransient`; LLM stages draw
    /// uniformly from the three call-level kinds.
    pub fn roll(&self, stage: Stage, key: u64, attempt: u32) -> Option<FaultKind> {
        let h = mix(mix(mix(self.fault_seed, stage.tag()), key), attempt as u64);
        if unit_fraction(h) >= self.fault_rate {
            return None;
        }
        Some(match stage {
            Stage::Evaluate => FaultKind::QueryTransient,
            _ => [FaultKind::Timeout, FaultKind::RateLimit, FaultKind::Garbled]
                [(mix(h, 1) % 3) as usize],
        })
    }

    /// Exponential backoff before the attempt after `attempt`, with
    /// deterministic jitter. Jitter is keyed on the unit, not the
    /// attempt, so the sequence is monotone non-decreasing in
    /// `attempt` for any fixed unit.
    pub fn backoff_seconds(&self, stage: Stage, key: u64, attempt: u32) -> f64 {
        let raw = BACKOFF_BASE_SECONDS * BACKOFF_MULTIPLIER.powi(attempt as i32);
        let capped = raw.min(BACKOFF_MAX_SECONDS);
        let jh = mix(mix(self.fault_seed ^ 0x6a17, stage.tag()), key);
        capped * (1.0 + BACKOFF_JITTER * unit_fraction(jh))
    }

    /// Runs the retry loop for one unit (breaker not applied).
    pub fn unit(&self, stage: Stage, key: u64) -> UnitPlan {
        let mut faults = Vec::new();
        for attempt in 0..=self.max_retries {
            match self.roll(stage, key, attempt) {
                None => {
                    return UnitPlan {
                        stage,
                        key,
                        faults,
                        outcome: UnitOutcome::Completed { attempts: attempt + 1 },
                    };
                }
                Some(kind) => {
                    let last = attempt == self.max_retries;
                    let backoff_seconds =
                        if last { 0.0 } else { self.backoff_seconds(stage, key, attempt) };
                    faults.push(AttemptFault { attempt, kind, backoff_seconds });
                }
            }
        }
        UnitPlan { stage, key, faults, outcome: UnitOutcome::Abandoned }
    }

    /// Plans a whole stage of `n` units (keys `0..n`) and applies the
    /// circuit breaker: after `breaker_threshold` consecutive
    /// abandonments the breaker opens and the next
    /// `2 * breaker_threshold` units are skipped unattempted, then it
    /// half-opens and the next unit is tried normally. The fold runs
    /// in key order, so the result is a pure function of the plan —
    /// independent of worker scheduling.
    pub fn schedule(&self, stage: Stage, n: usize) -> StageSchedule {
        let mut units = Vec::with_capacity(n);
        let mut breaker = Breaker::new(self.breaker_threshold);
        for key in 0..n as u64 {
            if !breaker.admit() {
                units.push(UnitPlan {
                    stage,
                    key,
                    faults: Vec::new(),
                    outcome: UnitOutcome::SkippedByBreaker,
                });
                continue;
            }
            let plan = self.unit(stage, key);
            breaker.record(matches!(plan.outcome, UnitOutcome::Completed { .. }));
            units.push(plan);
        }
        StageSchedule { units, breaker_trips: breaker.trips() }
    }
}

/// One faulted attempt inside a unit: which attempt, what fault, and
/// the backoff charged before the next attempt (0 when the unit was
/// abandoned — there is no next attempt to wait for).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct AttemptFault {
    /// Zero-based attempt index the fault hit.
    pub attempt: u32,
    /// Injected transient error.
    pub kind: FaultKind,
    /// Backoff delay charged before the following attempt.
    pub backoff_seconds: f64,
}

/// Terminal state of one unit after the retry loop and breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum UnitOutcome {
    /// The call eventually succeeded; `attempts` counts every try
    /// including the successful one.
    Completed {
        /// Total attempts made, `>= 1`.
        attempts: u32,
    },
    /// Every attempt faulted; the unit's work is lost.
    Abandoned,
    /// The stage breaker was open; the unit was never attempted.
    SkippedByBreaker,
}

/// The full deterministic fault history of one `(stage, key)` unit.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct UnitPlan {
    /// Stage the unit belongs to.
    pub stage: Stage,
    /// Stable unit key: context index for mining, post-merge rule
    /// index for translation and evaluation.
    pub key: u64,
    /// Faulted attempts, in attempt order. Empty for a clean call.
    pub faults: Vec<AttemptFault>,
    /// Terminal outcome.
    pub outcome: UnitOutcome,
}

impl UnitPlan {
    /// Attempts actually made: 0 for breaker skips.
    pub fn attempts(&self) -> u32 {
        match self.outcome {
            UnitOutcome::Completed { attempts } => attempts,
            UnitOutcome::Abandoned => self.faults.len() as u32,
            UnitOutcome::SkippedByBreaker => 0,
        }
    }

    /// Runs the unit — the one place that decides what a unit of any
    /// stage does. `call` returns the unit's response and its
    /// simulated seconds; it runs for a completed unit, and for an
    /// abandoned one only when a `Garbled` attempt must be priced at
    /// the call's cost. The unit's faults, retry verdict and
    /// degradation are journaled on `scope` (the outcome table in
    /// DESIGN.md §10) and their seconds charged to its span; with
    /// `checkpoint`, a completed unit's response is journaled as a
    /// `Checkpoint` record for `--resume`. Returns the response of a
    /// completed unit and the unit's simulated seconds: the call's
    /// plus every fault's cost and backoff.
    pub fn run<T: serde::Serialize>(
        &self,
        scope: &Scope,
        checkpoint: bool,
        call: impl FnOnce() -> (T, f64),
    ) -> (Option<T>, f64) {
        let completed = matches!(self.outcome, UnitOutcome::Completed { .. });
        let priced = self.faults.iter().any(|f| f.kind == FaultKind::Garbled);
        let response = (completed || priced).then(call);
        let fault_seconds = self.journal(response.as_ref().map_or(0.0, |r| r.1), scope);
        match response.filter(|_| completed) {
            Some((value, seconds)) => {
                if checkpoint {
                    scope.record(CheckpointRecord::of(self.stage.name(), self.key, &value));
                }
                (Some(value), seconds + fault_seconds)
            }
            None => (None, fault_seconds),
        }
    }

    /// Journals the unit's chaos outcome on `scope`: a `Fault` record
    /// and `faults_injected` per faulted attempt, the retry verdict of
    /// a faulted unit, and a `Degraded` record for an abandoned or
    /// breaker-skipped one. Returns the fault seconds (per-fault cost
    /// plus backoff) and charges them to the scope's span.
    /// `call_seconds` is what the discarded call itself cost, charged
    /// for `Garbled`.
    fn journal(&self, call_seconds: f64, scope: &Scope) -> f64 {
        let stage = self.stage.name();
        let mut total = 0.0;
        for fault in &self.faults {
            let cost = fault.kind.cost_seconds(self.stage, call_seconds);
            scope.record(FaultRecord {
                span: None,
                stage: stage.into(),
                unit: self.key,
                attempt: fault.attempt as u64,
                kind: fault.kind.name().into(),
                cost_seconds: cost,
                backoff_seconds: fault.backoff_seconds,
            });
            scope.add(Counter::FaultsInjected, 1);
            total += cost + fault.backoff_seconds;
        }
        scope.add_sim_seconds(total);
        let llm = self.stage != Stage::Evaluate;
        let retry = |recovered: bool, counter: Counter| {
            if llm {
                scope.add(counter, 1);
            }
            scope.record(RetryRecord {
                span: None,
                stage: stage.into(),
                unit: self.key,
                attempts: self.attempts() as u64,
                recovered,
            });
        };
        let reason = match self.outcome {
            UnitOutcome::Completed { .. } => {
                if !self.faults.is_empty() {
                    retry(true, Counter::LlmCallsRetried);
                }
                return total;
            }
            UnitOutcome::Abandoned => {
                retry(false, Counter::LlmCallsAbandoned);
                "retries_exhausted"
            }
            UnitOutcome::SkippedByBreaker => "breaker_open",
        };
        let (counter, label) = match self.stage {
            Stage::Mine => (Counter::WindowsDegraded, "context"),
            Stage::Translate => (Counter::RulesDegraded, "rule"),
            Stage::Evaluate => (Counter::QueriesDegraded, "rule"),
        };
        scope.add(counter, 1);
        scope.record(DegradedRecord {
            span: None,
            stage: stage.into(),
            unit: format!("{label}-{}", self.key),
            reason: reason.into(),
        });
        total
    }
}

/// The circuit-breaker state machine behind [`ChaosConfig::schedule`],
/// exposed standalone so the serve layer's per-tenant governors run
/// the exact same trip/cooldown/half-open schedule as the stage
/// folds: after `threshold` consecutive failures the breaker opens
/// and the next `2 * threshold` admissions are refused, then it
/// half-opens and the next admission is tried normally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Breaker {
    threshold: u32,
    consecutive: u32,
    open_remaining: u32,
    trips: u64,
}

impl Breaker {
    /// A closed breaker tripping after `threshold` consecutive
    /// failures.
    pub fn new(threshold: u32) -> Breaker {
        Breaker { threshold, consecutive: 0, open_remaining: 0, trips: 0 }
    }

    /// Admission check for the next unit: `false` while the breaker
    /// is open. Each refusal consumes one cooldown slot, so after
    /// `2 * threshold` refused admissions the breaker half-opens and
    /// the next call is admitted.
    pub fn admit(&mut self) -> bool {
        if self.open_remaining > 0 {
            self.open_remaining -= 1;
            false
        } else {
            true
        }
    }

    /// Records the outcome of an admitted unit. `threshold`
    /// consecutive failures trip the breaker open for a cooldown of
    /// `2 * threshold` admissions.
    pub fn record(&mut self, ok: bool) {
        if ok {
            self.consecutive = 0;
        } else {
            self.consecutive += 1;
            if self.consecutive >= self.threshold {
                self.trips += 1;
                self.open_remaining = self.threshold * 2;
                self.consecutive = 0;
            }
        }
    }

    /// True while admissions are being refused.
    pub fn is_open(&self) -> bool {
        self.open_remaining > 0
    }

    /// Times the breaker has tripped open.
    pub fn trips(&self) -> u64 {
        self.trips
    }
}

/// A per-job simulated-time budget propagated from a service request
/// down to the stage level. A `grm serve` request may carry a
/// deadline; the worker charges each stage's simulated seconds
/// against this budget in stage order and cancels the job at the
/// first stage that exhausts it, and any per-call deadline is the
/// stage's own [`Stage::deadline_seconds`] clamped to what remains
/// of the job budget — a job near its deadline never grants a call
/// more time than the job itself has left.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DeadlineBudget {
    total_seconds: f64,
    spent_seconds: f64,
}

impl DeadlineBudget {
    /// A fresh budget of `total_seconds` simulated seconds (clamped
    /// non-negative).
    pub fn new(total_seconds: f64) -> DeadlineBudget {
        DeadlineBudget { total_seconds: total_seconds.max(0.0), spent_seconds: 0.0 }
    }

    /// Simulated seconds still available.
    pub fn remaining_seconds(&self) -> f64 {
        (self.total_seconds - self.spent_seconds).max(0.0)
    }

    /// Simulated seconds charged so far.
    pub fn spent_seconds(&self) -> f64 {
        self.spent_seconds
    }

    /// Effective deadline for one call at `stage`: the stage's own
    /// deadline clamped to what remains of the job budget.
    pub fn stage_deadline_seconds(&self, stage: Stage) -> f64 {
        stage.deadline_seconds().min(self.remaining_seconds())
    }

    /// Charges `seconds` of simulated work against the budget;
    /// `false` means the budget is now exhausted and the job should
    /// be cancelled at this stage.
    pub fn charge(&mut self, seconds: f64) -> bool {
        self.spent_seconds += seconds.max(0.0);
        !self.exhausted()
    }

    /// True once more has been charged than the budget allows.
    pub fn exhausted(&self) -> bool {
        self.spent_seconds > self.total_seconds
    }
}

/// A whole stage's unit plans after the circuit breaker pass.
#[derive(Debug, Clone, PartialEq)]
pub struct StageSchedule {
    /// One plan per unit, in key order.
    pub units: Vec<UnitPlan>,
    /// Times the breaker tripped open over the stage.
    pub breaker_trips: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn plan(rate: f64) -> ChaosConfig {
        ChaosConfig { fault_rate: rate, ..ChaosConfig::default() }
    }

    #[test]
    fn zero_rate_never_faults() {
        let p = plan(0.0);
        for key in 0..200 {
            let u = p.unit(Stage::Mine, key);
            assert_eq!(u.outcome, UnitOutcome::Completed { attempts: 1 });
            assert!(u.faults.is_empty());
        }
    }

    #[test]
    fn full_rate_abandons_every_unit() {
        let p = plan(1.0);
        let u = p.unit(Stage::Translate, 3);
        assert_eq!(u.outcome, UnitOutcome::Abandoned);
        assert_eq!(u.faults.len(), (p.max_retries + 1) as usize);
        // No backoff after the final attempt — nothing follows it.
        assert_eq!(u.faults.last().unwrap().backoff_seconds, 0.0);
    }

    #[test]
    fn evaluate_faults_are_always_query_transient() {
        let p = plan(1.0);
        for key in 0..50 {
            for f in &p.unit(Stage::Evaluate, key).faults {
                assert_eq!(f.kind, FaultKind::QueryTransient);
            }
        }
    }

    #[test]
    fn stages_roll_independent_streams() {
        let p = plan(0.5);
        let mine: Vec<bool> = (0..64).map(|k| p.roll(Stage::Mine, k, 0).is_some()).collect();
        let translate: Vec<bool> =
            (0..64).map(|k| p.roll(Stage::Translate, k, 0).is_some()).collect();
        assert_ne!(mine, translate);
    }

    #[test]
    fn breaker_trips_and_half_opens() {
        // Rate 1.0: every attempted unit abandons, so the breaker
        // trips at the threshold, skips a cooldown, then the
        // half-open probe abandons again and re-trips.
        let p = plan(1.0);
        let n = 20;
        let sched = p.schedule(Stage::Mine, n);
        assert_eq!(sched.units.len(), n);
        let threshold = p.breaker_threshold as usize;
        let cooldown = threshold * 2;
        for (i, u) in sched.units.iter().enumerate().take(threshold + cooldown) {
            if i < threshold {
                assert_eq!(u.outcome, UnitOutcome::Abandoned, "unit {i}");
            } else {
                assert_eq!(u.outcome, UnitOutcome::SkippedByBreaker, "unit {i}");
            }
        }
        assert!(sched.breaker_trips >= 1);
    }

    #[test]
    fn breaker_matches_the_schedule_fold() {
        // The standalone state machine and the stage fold must agree:
        // replay a schedule's attempted outcomes through a Breaker
        // and reproduce its skip pattern and trip count.
        let p = plan(0.6);
        let sched = p.schedule(Stage::Mine, 64);
        let mut b = Breaker::new(p.breaker_threshold);
        for u in &sched.units {
            if !b.admit() {
                assert_eq!(u.outcome, UnitOutcome::SkippedByBreaker, "unit {}", u.key);
                continue;
            }
            assert_ne!(u.outcome, UnitOutcome::SkippedByBreaker, "unit {}", u.key);
            b.record(matches!(u.outcome, UnitOutcome::Completed { .. }));
        }
        assert_eq!(b.trips(), sched.breaker_trips);
    }

    #[test]
    fn breaker_half_opens_after_2n_refusals() {
        let threshold = 3u32;
        let mut b = Breaker::new(threshold);
        for _ in 0..threshold {
            assert!(b.admit());
            b.record(false);
        }
        assert!(b.is_open(), "threshold consecutive failures trip the breaker");
        assert_eq!(b.trips(), 1);
        for i in 0..threshold * 2 {
            assert!(!b.admit(), "cooldown refusal {i}");
        }
        assert!(b.admit(), "half-open probe admitted after 2N refusals");
        b.record(true);
        assert!(!b.is_open());
        // A success after the probe resets the failure streak.
        b.record(false);
        b.record(false);
        assert_eq!(b.trips(), 1, "two failures under threshold 3 must not re-trip");
    }

    #[test]
    fn deadline_budget_clamps_stage_deadlines() {
        let mut budget = DeadlineBudget::new(25.0);
        // A fresh budget grants the full stage deadline.
        assert_eq!(budget.stage_deadline_seconds(Stage::Mine), 20.0);
        assert!(budget.charge(18.0));
        // Only 7s remain — below the mine deadline, above evaluate's.
        assert_eq!(budget.stage_deadline_seconds(Stage::Mine), 7.0);
        assert_eq!(budget.stage_deadline_seconds(Stage::Evaluate), 1.5);
        assert!(!budget.charge(8.0), "exceeding the budget reports exhaustion");
        assert!(budget.exhausted());
        assert_eq!(budget.remaining_seconds(), 0.0);
        assert_eq!(budget.stage_deadline_seconds(Stage::Translate), 0.0);
    }

    #[test]
    fn schedule_is_deterministic() {
        let p = plan(0.37);
        assert_eq!(p.schedule(Stage::Mine, 64), p.schedule(Stage::Mine, 64));
    }

    #[test]
    fn fault_costs_match_taxonomy() {
        assert_eq!(FaultKind::Timeout.cost_seconds(Stage::Mine, 9.9), 20.0);
        assert_eq!(FaultKind::RateLimit.cost_seconds(Stage::Translate, 9.9), 5.0);
        assert_eq!(FaultKind::Garbled.cost_seconds(Stage::Mine, 9.9), 9.9);
        assert_eq!(FaultKind::QueryTransient.cost_seconds(Stage::Evaluate, 9.9), 0.05);
    }

    /// One hand-built unit per cell of the outcome table (DESIGN.md
    /// §10), run with checkpointing on: how often `call` ran, the
    /// records and counter totals the unit journals, the seconds `run`
    /// returns and the fault seconds it charges to the span. `call`
    /// runs for a completed unit, and for an abandoned one only to
    /// price a `Garbled` attempt.
    #[test]
    fn unit_run_journals_every_outcome_of_every_stage() {
        use grm_obs::Recorder;
        use FaultKind::{Garbled, RateLimit};
        for stage in [Stage::Mine, Stage::Translate, Stage::Evaluate] {
            let s = stage.name();
            let (label, degraded) = match stage {
                Stage::Mine => ("context-5", "windows_degraded"),
                Stage::Translate => ("rule-5", "rules_degraded"),
                Stage::Evaluate => ("rule-5", "queries_degraded"),
            };
            let llm =
                |c: &str| if stage == Stage::Evaluate { String::new() } else { format!("{c}=1") };
            let abandoned = |kind: &str| {
                vec![
                    format!("fault {s} 5#0 {kind}"),
                    format!("fault {s} 5#1 {kind}"),
                    format!("retry {s} 5 x2 recovered=false"),
                    format!("degraded {s} {label} retries_exhausted"),
                    "faults_injected=2".into(),
                    llm("llm_calls_abandoned"),
                    format!("{degraded}=1"),
                ]
            };
            // (outcome, fault kind, faults, calls, expected records)
            let cells = [
                (
                    UnitOutcome::Completed { attempts: 1 },
                    Garbled,
                    0,
                    1,
                    vec![format!("checkpoint {s} 5 7")],
                ),
                (
                    UnitOutcome::Completed { attempts: 2 },
                    Garbled,
                    1,
                    1,
                    vec![
                        format!("fault {s} 5#0 garbled"),
                        format!("retry {s} 5 x2 recovered=true"),
                        format!("checkpoint {s} 5 7"),
                        "faults_injected=1".into(),
                        llm("llm_calls_retried"),
                    ],
                ),
                (UnitOutcome::Abandoned, Garbled, 2, 1, abandoned("garbled")),
                (UnitOutcome::Abandoned, RateLimit, 2, 0, abandoned("rate_limit")),
                (
                    UnitOutcome::SkippedByBreaker,
                    Garbled,
                    0,
                    0,
                    vec![format!("degraded {s} {label} breaker_open"), format!("{degraded}=1")],
                ),
            ];
            for (outcome, kind, faults, calls, mut expected) in cells {
                let faults =
                    (0..faults).map(|attempt| AttemptFault { attempt, kind, backoff_seconds: 0.5 });
                let unit = UnitPlan { stage, key: 5, faults: faults.collect(), outcome };
                let rec = Recorder::new();
                let mut ran = 0;
                let (response, seconds) = unit.run(&rec.root_scope().span(s).scope(), true, || {
                    ran += 1;
                    (7u64, 3.0)
                });
                let j = rec.snapshot();
                let got: Vec<String> = (j.faults.iter())
                    .map(|f| format!("fault {} {}#{} {}", f.stage, f.unit, f.attempt, f.kind))
                    .chain(j.retries.iter().map(|r| {
                        format!(
                            "retry {} {} x{} recovered={}",
                            r.stage, r.unit, r.attempts, r.recovered
                        )
                    }))
                    .chain(
                        j.degraded
                            .iter()
                            .map(|d| format!("degraded {} {} {}", d.stage, d.unit, d.reason)),
                    )
                    .chain(
                        (j.checkpoints.iter())
                            .map(|c| format!("checkpoint {} {} {}", c.stage, c.unit, c.payload)),
                    )
                    .chain(j.totals.iter().map(|(k, v)| format!("{k}={v}")))
                    .collect();
                expected.retain(|e| !e.is_empty());
                assert_eq!(got, expected, "{s} {outcome:?} {kind:?}");
                assert_eq!(ran, calls, "{s} {outcome:?} {kind:?}");
                // Each fault costs its kind's price (a garbled one the
                // 3 s call) plus its backoff; a completed unit's
                // seconds add the call's own.
                let completed = matches!(outcome, UnitOutcome::Completed { .. });
                assert_eq!(response, completed.then_some(7));
                let fault_seconds =
                    (kind.cost_seconds(stage, 3.0) + 0.5) * unit.faults.len() as f64;
                let call_seconds = if completed { 3.0 } else { 0.0 };
                assert_eq!(seconds, call_seconds + fault_seconds, "{s} {outcome:?} {kind:?}");
                assert_eq!(j.spans[0].sim_seconds, fault_seconds, "{s} {outcome:?} {kind:?}");
            }
        }
    }

    proptest! {
        /// Backoff is monotone non-decreasing in the attempt number
        /// and deterministic for a fixed seed — satellite proptest (a).
        #[test]
        fn backoff_monotone_and_deterministic(
            seed in 0u64..1_000_000,
            key in 0u64..10_000,
            stage_ix in 0usize..3,
        ) {
            let stage = [Stage::Mine, Stage::Translate, Stage::Evaluate][stage_ix];
            let p = ChaosConfig { fault_seed: seed, fault_rate: 0.5, ..ChaosConfig::default() };
            let q = p;
            let mut prev = 0.0f64;
            for attempt in 0..12u32 {
                let d = p.backoff_seconds(stage, key, attempt);
                prop_assert!(d >= prev, "attempt {} delay {} < previous {}", attempt, d, prev);
                prop_assert_eq!(d, q.backoff_seconds(stage, key, attempt));
                prop_assert!(d >= 0.0);
                prop_assert!(
                    d <= BACKOFF_MAX_SECONDS * (1.0 + BACKOFF_JITTER),
                    "delay {} above jittered cap", d
                );
                prev = d;
            }
        }

        /// The retry loop's fault list is always a prefix of attempt
        /// indices, and outcomes are consistent with it.
        #[test]
        fn unit_plans_are_internally_consistent(
            seed in 0u64..1_000_000,
            rate in 0.0f64..1.0,
            key in 0u64..10_000,
        ) {
            let p = ChaosConfig { fault_seed: seed, fault_rate: rate, ..ChaosConfig::default() };
            let u = p.unit(Stage::Mine, key);
            for (i, f) in u.faults.iter().enumerate() {
                prop_assert_eq!(f.attempt, i as u32);
            }
            match u.outcome {
                UnitOutcome::Completed { attempts } => {
                    prop_assert_eq!(attempts as usize, u.faults.len() + 1);
                    prop_assert!(attempts <= p.max_retries + 1);
                }
                UnitOutcome::Abandoned => {
                    prop_assert_eq!(u.faults.len(), (p.max_retries + 1) as usize);
                    prop_assert_eq!(u.faults.last().unwrap().backoff_seconds, 0.0);
                }
                UnitOutcome::SkippedByBreaker => prop_assert!(false, "unit() never skips"),
            }
        }
    }
}
