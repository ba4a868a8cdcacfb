//! Encoding explorer: how a property graph becomes LLM context.
//!
//! ```sh
//! cargo run --release --example encoding_explorer
//! ```
//!
//! Walks through the plumbing under the pipeline: the incident vs
//! adjacency encoders, the tokenizer, the sliding-window chunker with
//! its boundary effects, and RAG chunk retrieval — printing concrete
//! artefacts at every step so the Figure 2 mechanics are visible.

use graph_rule_mining::datasets::{generate, DatasetId, GenConfig};
use graph_rule_mining::pgraph::GraphSchema;
use graph_rule_mining::pipeline::RAG_QUERY;
use graph_rule_mining::textenc::{
    encode_adjacency, encode_incident, token_count, GraphFragment, Tokenized, WindowConfig,
};
use graph_rule_mining::vecstore::{RagConfig, Retriever};

fn main() {
    let data = generate(DatasetId::Wwc2019, &GenConfig { seed: 3, scale: 0.05, clean: false });
    let g = &data.graph;
    println!("graph: {} nodes, {} edges\n", g.node_count(), g.edge_count());

    // 1. The two encoders.
    let incident = Tokenized::new(encode_incident(g));
    let adjacency = encode_adjacency(g);
    println!(
        "incident encoding:  {} chars, {} tokens",
        incident.text().len(),
        incident.token_count()
    );
    println!("adjacency encoding: {} chars, {} tokens", adjacency.len(), token_count(&adjacency));
    println!("\nfirst incident lines:");
    for line in incident.text().lines().take(4) {
        println!("  {line}");
    }

    // 2. Sliding windows (paper defaults are 8000/500; we shrink them
    // so this small graph still produces several windows).
    let cfg = WindowConfig::new(1200, 100);
    let windows = incident.chunk(cfg);
    println!(
        "\nsliding windows of {} tokens (overlap {}): {} windows, {} patterns broken",
        cfg.window_size,
        cfg.overlap,
        windows.len(),
        windows.broken_patterns
    );
    // Show the boundary effect: the start of window 1 is mid-element.
    if windows.len() > 1 {
        let w1 = &windows.windows[1];
        let first_line = w1.text.lines().next().unwrap_or("");
        println!("window 1 starts mid-stream: {:?}…", &first_line[..first_line.len().min(60)]);
        let frag = GraphFragment::parse(&w1.text);
        println!(
            "  parsing it recovers {} nodes / {} edges; {} fragment lines dropped",
            frag.nodes.len(),
            frag.edges.len(),
            frag.skipped_lines
        );
    }

    // 3. What the model actually "knows" inside one window.
    let sketch = GraphSchema::infer(&GraphFragment::read_graph(&windows.windows[0].text));
    println!("\nschema visible in window 0 alone:");
    print!("{}", sketch.summary());

    // 4. RAG: ingest + retrieve.
    let retriever = Retriever::ingest(&incident, RagConfig { chunk_tokens: 256, top_k: 3 });
    let retrieval = retriever.retrieve(RAG_QUERY);
    println!(
        "\nRAG: {} chunks ingested; the generic rule-mining query retrieves {} of them",
        retriever.chunk_count(),
        retrieval.chunks.len()
    );
    println!(
        "retrieved context covers {:.2}% of the graph's elements (scores: {:?})",
        100.0 * retrieval.coverage(),
        retrieval.scores.iter().map(|s| (s * 100.0).round() / 100.0).collect::<Vec<_>>()
    );
}
