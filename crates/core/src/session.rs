//! Interactive rule mining — the paper's §5 human-in-the-loop
//! direction ("developing interactive rule mining techniques could
//! allow users to engage in the rule extraction process, offering
//! real-time feedback to refine the rules"), implemented.
//!
//! An [`InteractiveSession`] mines a candidate pool once, then
//! *proposes* rules one at a time — each with its metrics and an
//! evidence-grounded explanation — and adapts to feedback:
//!
//! * [`Feedback::Accept`] — the rule joins the accepted set;
//! * [`Feedback::Reject`] — the rule is dropped, and further
//!   proposals of the same family on the same element are suppressed
//!   (the expert said this *kind* of constraint is not wanted there);
//! * [`Feedback::Refine`] — the expert supplies a corrected rule
//!   (e.g. tightening a range, fixing a value domain), which is
//!   scored immediately and accepted in place of the proposal.
//!
//! The paper notes the LLM-based design "has the opportunity to
//! design rule mining pipelines that are inherently interactive,
//! allowing also domain experts (who may not possess technical
//! knowledge) to refine the rules to their needs" — this module is
//! that loop, with the NL dialect as the expert-facing surface.

use std::collections::HashSet;

use grm_llm::explain_rule;
use grm_metrics::{classify, evaluate, QueryClass, RuleMetrics};
use grm_pgraph::PropertyGraph;
use grm_rules::{reference_queries, to_nl, ConsistencyRule};

use crate::config::PipelineConfig;
use crate::pipeline::MiningPipeline;

/// A rule proposed to the expert.
#[derive(Debug, Clone)]
pub struct Proposal {
    pub rule: ConsistencyRule,
    pub nl: String,
    pub explanation: String,
    /// Metrics of the *reference* translation (the expert reviews the
    /// rule's meaning, not the model's possibly-corrupted Cypher).
    pub metrics: Option<RuleMetrics>,
    /// True when the rule references schema elements that do not
    /// exist — surfaced so the expert can reject confidently.
    pub suspected_hallucination: bool,
}

/// Expert feedback on a proposal.
#[derive(Debug, Clone)]
pub enum Feedback {
    Accept,
    Reject,
    /// Replace the proposal with a corrected rule.
    Refine(ConsistencyRule),
}

/// Suppression key: rule family + the element it constrains.
fn family_key(rule: &ConsistencyRule) -> String {
    use ConsistencyRule::*;
    match rule {
        MandatoryProperty { label, .. } => format!("mand|{label}"),
        UniqueProperty { label, .. } => format!("uniq|{label}"),
        PropertyValueIn { label, key, .. } => format!("domain|{label}|{key}"),
        PropertyRegex { label, key, .. } => format!("regex|{label}|{key}"),
        PropertyRange { label, key, .. } => format!("range|{label}|{key}"),
        EdgeEndpointLabels { etype, .. } => format!("endpoints|{etype}"),
        NoSelfLoop { etype, .. } => format!("noself|{etype}"),
        IncomingExactlyOne { etype, .. } => format!("card|{etype}"),
        TemporalOrder { etype, .. } => format!("temporal|{etype}"),
        PatternUniqueness { etype, key, .. } => format!("patuniq|{etype}|{key}"),
        Custom { id, .. } => format!("custom|{id}"),
    }
}

/// An interactive mining session over one graph.
pub struct InteractiveSession {
    graph: PropertyGraph,
    /// Remaining candidates, best-ranked first.
    queue: Vec<ConsistencyRule>,
    /// Currently outstanding proposal.
    pending: Option<ConsistencyRule>,
    /// Families the expert rejected.
    suppressed: HashSet<String>,
    /// Accepted rules with their metrics.
    accepted: Vec<(ConsistencyRule, Option<RuleMetrics>)>,
    rejected: usize,
    refined: usize,
}

impl InteractiveSession {
    /// Mines the candidate pool with `config` and opens the session.
    /// The candidate pool is the *unbudgeted* merged rule list, so the
    /// expert can go deeper than the batch pipeline's cut-off.
    pub fn start(config: PipelineConfig, graph: &PropertyGraph) -> Self {
        let mut config = config;
        config.rule_budget = Some(usize::MAX); // expert applies the budget
        let report = MiningPipeline::new(config).run(graph);
        let queue: Vec<ConsistencyRule> = report.rules.into_iter().map(|o| o.rule).collect();
        InteractiveSession {
            graph: graph.clone(),
            queue,
            pending: None,
            suppressed: HashSet::new(),
            accepted: Vec::new(),
            rejected: 0,
            refined: 0,
        }
    }

    /// Number of candidates still queued.
    pub fn remaining(&self) -> usize {
        self.queue.len()
    }

    /// The accepted rule set so far.
    pub fn accepted(&self) -> &[(ConsistencyRule, Option<RuleMetrics>)] {
        &self.accepted
    }

    /// `(accepted, rejected, refined)` counts.
    pub fn tally(&self) -> (usize, usize, usize) {
        (self.accepted.len(), self.rejected, self.refined)
    }

    /// Scores a rule's reference translation, if it is sound.
    fn score(&self, rule: &ConsistencyRule) -> (Option<RuleMetrics>, bool) {
        let queries = reference_queries(rule);
        let assessment = classify(&queries.satisfied, self.graph.schema());
        let hallucinated = assessment.class == QueryClass::HallucinatedProperty;
        let metrics = evaluate(&self.graph, &queries).ok();
        (metrics, hallucinated)
    }

    /// Produces the next proposal, skipping suppressed families.
    /// `None` when the pool is exhausted.
    ///
    /// # Panics
    /// Panics if the previous proposal has not received feedback yet —
    /// the protocol is strictly alternate propose/feedback.
    pub fn next_proposal(&mut self) -> Option<Proposal> {
        assert!(self.pending.is_none(), "previous proposal still awaiting feedback");
        loop {
            if self.queue.is_empty() {
                return None;
            }
            let rule = self.queue.remove(0);
            if self.suppressed.contains(&family_key(&rule)) {
                continue;
            }
            let (metrics, suspected_hallucination) = self.score(&rule);
            let proposal = Proposal {
                nl: to_nl(&rule),
                explanation: explain_rule(&rule, self.graph.schema()),
                metrics,
                suspected_hallucination,
                rule: rule.clone(),
            };
            self.pending = Some(rule);
            return Some(proposal);
        }
    }

    /// Applies expert feedback to the outstanding proposal.
    ///
    /// # Panics
    /// Panics when no proposal is outstanding.
    pub fn feedback(&mut self, feedback: Feedback) {
        let rule = self.pending.take().expect("no outstanding proposal");
        match feedback {
            Feedback::Accept => {
                let (metrics, _) = self.score(&rule);
                self.accepted.push((rule, metrics));
            }
            Feedback::Reject => {
                self.suppressed.insert(family_key(&rule));
                self.rejected += 1;
            }
            Feedback::Refine(replacement) => {
                let (metrics, _) = self.score(&replacement);
                self.accepted.push((replacement, metrics));
                self.refined += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ContextStrategy;
    use grm_datasets::{generate, DatasetId, GenConfig};
    use grm_llm::{ModelKind, PromptStyle};

    fn session() -> InteractiveSession {
        let data = generate(DatasetId::Twitter, &GenConfig { seed: 3, scale: 0.02, clean: false });
        let config = PipelineConfig::new(
            ModelKind::Mixtral,
            ContextStrategy::default_summary(),
            PromptStyle::ZeroShot,
        );
        InteractiveSession::start(config, &data.graph)
    }

    #[test]
    fn proposals_come_with_metrics_and_explanations() {
        let mut s = session();
        let p = s.next_proposal().expect("pool is non-empty");
        assert!(!p.nl.is_empty());
        assert!(p.explanation.len() > 20);
        s.feedback(Feedback::Accept);
        assert_eq!(s.tally().0, 1);
    }

    #[test]
    fn reject_suppresses_the_family() {
        let mut s = session();
        let first = s.next_proposal().expect("pool is non-empty");
        let key = family_key(&first.rule);
        s.feedback(Feedback::Reject);
        // No later proposal shares the rejected family.
        while let Some(p) = s.next_proposal() {
            assert_ne!(family_key(&p.rule), key);
            s.feedback(Feedback::Accept);
        }
        assert!(s.tally().1 == 1);
    }

    #[test]
    fn refine_replaces_and_scores() {
        let mut s = session();
        let _ = s.next_proposal().expect("pool is non-empty");
        let replacement = ConsistencyRule::PropertyRange {
            label: "User".into(),
            key: "followers".into(),
            min: 0,
            max: 10_000_000,
        };
        s.feedback(Feedback::Refine(replacement.clone()));
        let accepted = s.accepted();
        assert_eq!(accepted[0].0, replacement);
        assert!(accepted[0].1.is_some(), "refined rule is scored");
        assert_eq!(s.tally(), (1, 0, 1));
    }

    #[test]
    #[should_panic(expected = "awaiting feedback")]
    fn double_proposal_panics() {
        let mut s = session();
        let _ = s.next_proposal();
        let _ = s.next_proposal();
    }

    #[test]
    fn session_drains_to_none() {
        let mut s = session();
        let mut n = 0;
        while let Some(_p) = s.next_proposal() {
            s.feedback(Feedback::Accept);
            n += 1;
            assert!(n < 1000, "runaway session");
        }
        assert!(n > 0);
        assert_eq!(s.remaining(), 0);
    }
}
