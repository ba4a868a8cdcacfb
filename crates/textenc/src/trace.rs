//! Instrumented entry points: same behaviour as [`crate::encode`] /
//! [`Tokenized::chunk`] / [`crate::encode_summary`], recording a stage
//! span and encoder counters on the given [`grm_obs::Scope`]. The
//! untraced functions stay the zero-overhead default.

use grm_obs::{BoundaryRecord, Counter, Histo, Scope};
use grm_pgraph::PropertyGraph;

use crate::incident::{encode, EncoderKind};
use crate::summary::{encode_summary, SummaryConfig};
use crate::tokenizer::{token_count, Tokenized};
use crate::window::{WindowConfig, WindowSet};

/// [`crate::encode`] under an `encode` span, counting nodes, edges
/// and emitted tokens. The text comes back with the bounds of the
/// token scan that counted it, which chunking and RAG ingestion cut
/// from.
pub fn encode_traced(g: &PropertyGraph, kind: EncoderKind, scope: &Scope) -> Tokenized {
    let span = scope.span("encode");
    let encoded = Tokenized::new(encode(g, kind));
    let inner = span.scope();
    inner.add(Counter::NodesEncoded, g.node_count() as u64);
    inner.add(Counter::EdgesEncoded, g.edge_count() as u64);
    inner.add(Counter::TokensEmitted, encoded.token_count() as u64);
    span.finish();
    encoded
}

/// [`crate::encode_summary`] under a `summarize` span.
pub fn encode_summary_traced(g: &PropertyGraph, config: SummaryConfig, scope: &Scope) -> String {
    let span = scope.span("summarize");
    let text = encode_summary(g, config);
    let inner = span.scope();
    inner.add(Counter::NodesEncoded, g.node_count() as u64);
    inner.add(Counter::EdgesEncoded, g.edge_count() as u64);
    inner.add(Counter::TokensEmitted, token_count(&text) as u64);
    span.finish();
    text
}

/// [`Tokenized::chunk`] under a `chunk` span, counting windows and
/// the broken patterns of §4.5, recording the per-window token-count
/// distribution, and attaching one journal `Boundary` record per
/// broken pattern (the seam it straddles and the node it belongs to).
pub fn chunk_traced(encoded: &Tokenized, config: WindowConfig, scope: &Scope) -> WindowSet {
    let span = scope.span("chunk");
    let ws = encoded.chunk(config);
    let inner = span.scope();
    inner.add(Counter::WindowsProduced, ws.len() as u64);
    inner.add(Counter::BrokenPatterns, ws.broken_patterns as u64);
    for w in &ws.windows {
        inner.observe(Histo::WindowTokens, w.token_len as f64);
    }
    for b in &ws.breakages {
        inner.record(BoundaryRecord {
            span: None,
            node: b.node.clone(),
            first_window: b.first_window as u64,
            last_window: b.last_window as u64,
        });
    }
    span.finish();
    ws
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::chunk;
    use grm_obs::Recorder;
    use grm_pgraph::props;

    fn graph() -> PropertyGraph {
        let mut g = PropertyGraph::new();
        let mut prev = None;
        for i in 0..50i64 {
            let n = g.add_node(["User"], props([("id", grm_pgraph::Value::Int(i))]));
            if let Some(p) = prev {
                g.add_edge(p, n, "FOLLOWS", Default::default());
            }
            prev = Some(n);
        }
        g
    }

    #[test]
    fn traced_matches_untraced_and_records_counters() {
        let g = graph();
        let rec = Recorder::new();
        let scope = rec.root_scope();
        let encoded = encode_traced(&g, EncoderKind::Incident, &scope);
        assert_eq!(encoded.text(), encode(&g, EncoderKind::Incident));
        let ws = chunk_traced(&encoded, WindowConfig::new(200, 20), &scope);
        assert_eq!(ws.len(), chunk(encoded.text(), WindowConfig::new(200, 20)).len());

        let journal = rec.snapshot();
        assert_eq!(journal.span("encode").unwrap().counter("nodes_encoded"), 50);
        assert_eq!(journal.span("encode").unwrap().counter("edges_encoded"), 49);
        assert_eq!(journal.total("tokens_emitted"), token_count(encoded.text()) as u64);
        assert_eq!(journal.span("chunk").unwrap().counter("windows_produced"), ws.len() as u64);
    }

    #[test]
    fn chunk_traced_records_boundary_breakages() {
        let g = graph();
        let rec = Recorder::new();
        let scope = rec.root_scope();
        let encoded = encode_traced(&g, EncoderKind::Incident, &scope);
        // Zero overlap on small windows guarantees some breakage.
        let ws = chunk_traced(&encoded, WindowConfig::new(60, 0), &scope);
        assert!(ws.broken_patterns > 0);
        let journal = rec.snapshot();
        assert_eq!(journal.boundaries.len(), ws.broken_patterns);
        assert_eq!(journal.total("broken_patterns"), ws.broken_patterns as u64);
        let chunk_id = journal.span("chunk").unwrap().id;
        for (b, w) in journal.boundaries.iter().zip(&ws.breakages) {
            assert_eq!(b.span, Some(chunk_id));
            assert_eq!(b.node, w.node);
            assert_eq!(b.first_window, w.first_window as u64);
            assert_eq!(b.last_window, w.last_window as u64);
        }
    }

    #[test]
    fn summary_traced_opens_summarize_span() {
        let g = graph();
        let rec = Recorder::new();
        let text = encode_summary_traced(&g, SummaryConfig::default(), &rec.root_scope());
        assert_eq!(text, encode_summary(&g, SummaryConfig::default()));
        assert!(rec.snapshot().span("summarize").is_some());
    }
}
