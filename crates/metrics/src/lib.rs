//! # grm-metrics — rule evaluation, error taxonomy, query correction
//!
//! The evaluation substrate of the study:
//!
//! * [`scores`] — support / coverage / confidence per §4.2, computed
//!   by executing each rule's three metric queries on the graph;
//! * [`mod@classify`] — the §4.4 error taxonomy (syntax / hallucinated
//!   property / wrong direction) recovered automatically from the
//!   query text and the inferred schema;
//! * [`mod@violations`] — violation localization: the concrete
//!   elements breaking a rule, for actionable audits;
//! * [`mod@correct`] — the paper's manual repair procedure automated:
//!   syntax and direction errors fixed, hallucinations deliberately
//!   left in place.

pub mod classify;
pub mod correct;
pub mod drift;
pub mod scores;
pub mod violations;

pub use classify::{class_counter, classify, Assessment, ClassTally, QueryClass};
pub use correct::{correct, repair_directions, repair_syntax, CorrectionOutcome};
pub use drift::{drift, RuleDrift};
/// The scoring session [`evaluate_labeled`] takes.
pub use grm_cypher::BatchSession;
pub use scores::{
    aggregate, evaluate, evaluate_labeled, record_batch_stats, AggregateMetrics, RuleMetrics,
};
pub use violations::{find_violations, find_violations_traced, Violation};
