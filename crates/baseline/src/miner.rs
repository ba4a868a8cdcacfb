//! Exhaustive candidate enumeration and exact scoring.

use grm_metrics::{evaluate, RuleMetrics};
use grm_pgraph::{GraphSchema, PropertyGraph, Value};
use grm_rules::{reference_queries, ConsistencyRule};

/// Thresholds of the exhaustive miner (the AMIE-style support and
/// confidence minimums, adapted to property graphs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MinerConfig {
    /// Minimum absolute support (satisfying elements).
    pub min_support: i64,
    /// Minimum confidence percentage.
    pub min_confidence: f64,
    /// Largest closed value domain to propose (`PropertyValueIn`).
    pub max_domain: usize,
}

impl Default for MinerConfig {
    fn default() -> Self {
        MinerConfig { min_support: 2, min_confidence: 50.0, max_domain: 8 }
    }
}

/// A mined rule with its exact metrics.
#[derive(Debug, Clone)]
pub struct MinedRule {
    pub rule: ConsistencyRule,
    pub metrics: RuleMetrics,
}

/// Exhaustively enumerates and scores every candidate rule over `g`.
///
/// Unlike the LLM pipeline, which sees the graph through a prompt
/// window, this miner reads the full store. It therefore never
/// hallucinates — but it also has no taste: everything above the
/// thresholds is emitted, in coverage-then-support order.
pub fn mine_exhaustive(g: &PropertyGraph, config: MinerConfig) -> Vec<MinedRule> {
    let mut out = Vec::new();
    for rule in enumerate_candidates(g, g.schema(), &config) {
        let Ok(metrics) = evaluate(g, &reference_queries(&rule)) else {
            continue;
        };
        if metrics.support >= config.min_support && metrics.confidence_pct >= config.min_confidence
        {
            out.push(MinedRule { rule, metrics });
        }
    }
    out.sort_by(|a, b| {
        b.metrics
            .confidence_pct
            .partial_cmp(&a.metrics.confidence_pct)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(b.metrics.support.cmp(&a.metrics.support))
            .then(a.rule.dedup_key().cmp(&b.rule.dedup_key()))
    });
    out
}

/// The candidate lattice: every instantiation of every rule family
/// that the schema statistics make syntactically sensible — exactly
/// the rules [`mine_exhaustive`] scores before its thresholds prune.
pub fn enumerate_candidates(
    g: &PropertyGraph,
    schema: &GraphSchema,
    config: &MinerConfig,
) -> Vec<ConsistencyRule> {
    let mut out = Vec::new();

    for (label, propmap) in &schema.node_props {
        for (key, stats) in propmap {
            // Mandatory and unique candidates for *every* key — the
            // exhaustive miner proposes first and lets thresholds
            // prune, which is exactly what makes its output large.
            out.push(ConsistencyRule::MandatoryProperty { label: label.clone(), key: key.clone() });
            out.push(ConsistencyRule::UniqueProperty { label: label.clone(), key: key.clone() });
            // Closed domains up to the configured size.
            if stats.distinct >= 1 && stats.distinct <= config.max_domain {
                let mut values: Vec<Value> = Vec::new();
                for n in g.nodes_with_label(label) {
                    let v = n.prop(key);
                    if !v.is_null() && !values.contains(v) {
                        values.push(v.clone());
                    }
                    if values.len() > config.max_domain {
                        break;
                    }
                }
                if !values.is_empty() && values.len() <= config.max_domain {
                    values.sort_by_key(Value::group_key);
                    out.push(ConsistencyRule::PropertyValueIn {
                        label: label.clone(),
                        key: key.clone(),
                        allowed: values,
                    });
                }
            }
            // Observed numeric ranges.
            if stats.types.contains("INTEGER") {
                let mut lo = i64::MAX;
                let mut hi = i64::MIN;
                for n in g.nodes_with_label(label) {
                    if let Value::Int(i) = n.prop(key) {
                        lo = lo.min(*i);
                        hi = hi.max(*i);
                    }
                }
                if lo <= hi {
                    out.push(ConsistencyRule::PropertyRange {
                        label: label.clone(),
                        key: key.clone(),
                        min: lo,
                        max: hi,
                    });
                }
            }
        }
    }

    for (etype, sig) in &schema.edge_signatures {
        // One endpoint rule per *observed* signature — the exhaustive
        // miner emits all of them, not just the dominant one.
        for (src, dst) in sig.endpoints.keys() {
            out.push(ConsistencyRule::EdgeEndpointLabels {
                etype: etype.clone(),
                src_label: src.clone(),
                dst_label: dst.clone(),
            });
            if src == dst {
                out.push(ConsistencyRule::NoSelfLoop { label: src.clone(), etype: etype.clone() });
                if let Some((ts, _)) = schema
                    .node_props
                    .get(src)
                    .and_then(|m| m.iter().find(|(_, s)| s.types.contains("DATETIME")))
                {
                    out.push(ConsistencyRule::TemporalOrder {
                        src_label: src.clone(),
                        src_key: ts.clone(),
                        etype: etype.clone(),
                        dst_label: dst.clone(),
                        dst_key: ts.clone(),
                    });
                }
            }
            out.push(ConsistencyRule::IncomingExactlyOne {
                src_label: src.clone(),
                etype: etype.clone(),
                dst_label: dst.clone(),
            });
            if let Some(per_type) = schema.edge_props.get(etype) {
                for (key, kstats) in per_type {
                    if kstats.types.contains("INTEGER") {
                        out.push(ConsistencyRule::PatternUniqueness {
                            src_label: src.clone(),
                            etype: etype.clone(),
                            dst_label: dst.clone(),
                            key: key.clone(),
                        });
                    }
                }
            }
        }
    }
    ConsistencyRule::dedup(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use grm_datasets::{generate, DatasetId, GenConfig};

    fn small(id: DatasetId) -> PropertyGraph {
        generate(id, &GenConfig { seed: 5, scale: 0.05, clean: false }).graph
    }

    #[test]
    fn mines_many_rules_above_thresholds() {
        let g = small(DatasetId::Twitter);
        let mined = mine_exhaustive(&g, MinerConfig::default());
        assert!(mined.len() > 20, "only {} rules", mined.len());
        for m in &mined {
            assert!(m.metrics.support >= 2);
            assert!(m.metrics.confidence_pct >= 50.0);
        }
    }

    #[test]
    fn output_is_sorted_by_confidence_then_support() {
        let g = small(DatasetId::Wwc2019);
        let mined = mine_exhaustive(&g, MinerConfig::default());
        for pair in mined.windows(2) {
            let (a, b) = (&pair[0].metrics, &pair[1].metrics);
            assert!(
                a.confidence_pct > b.confidence_pct
                    || (a.confidence_pct == b.confidence_pct && a.support >= b.support)
                    || (a.confidence_pct == b.confidence_pct && a.support == b.support)
            );
        }
    }

    #[test]
    fn thresholds_prune() {
        let g = small(DatasetId::Cybersecurity);
        let loose = mine_exhaustive(&g, MinerConfig { min_confidence: 50.0, ..Default::default() });
        let strict =
            mine_exhaustive(&g, MinerConfig { min_confidence: 99.0, ..Default::default() });
        assert!(strict.len() < loose.len());
        for m in &strict {
            assert!(m.metrics.confidence_pct >= 99.0);
        }
    }

    #[test]
    fn never_hallucinates() {
        // Every mined rule's satisfied query is schema-clean.
        let g = small(DatasetId::Twitter);
        let schema = GraphSchema::infer(&g);
        for m in mine_exhaustive(&g, MinerConfig::default()) {
            let q = reference_queries(&m.rule).satisfied;
            let class = grm_metrics::classify(&q, &schema).class;
            assert!(class.is_correct(), "baseline emitted {:?} for {}", class, q);
        }
    }

    #[test]
    fn deterministic() {
        let g = small(DatasetId::Wwc2019);
        let a = mine_exhaustive(&g, MinerConfig::default());
        let b = mine_exhaustive(&g, MinerConfig::default());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.rule, y.rule);
        }
    }

    #[test]
    fn empty_graph_mines_nothing() {
        let g = PropertyGraph::new();
        assert!(mine_exhaustive(&g, MinerConfig::default()).is_empty());
    }
}
