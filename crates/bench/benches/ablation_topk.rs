//! Ablation: RAG retrieval depth (DESIGN.md §5). Sweeps `top_k` and
//! reports — via stderr — how much of the graph the retrieved context
//! covers, the quantity §4.5 blames for RAG's weaker rules, alongside
//! the retrieval cost.

use criterion::{criterion_group, criterion_main, Criterion};
use grm_core::RAG_QUERY;
use grm_datasets::{generate, DatasetId, GenConfig};
use grm_textenc::{encode_incident, Tokenized};
use grm_vecstore::{RagConfig, Retriever};

fn bench_topk(c: &mut Criterion) {
    let graph =
        generate(DatasetId::Cybersecurity, &GenConfig { seed: 42, scale: 1.0, clean: false }).graph;
    let encoded = Tokenized::new(encode_incident(&graph));

    let mut group = c.benchmark_group("ablation/topk");
    for top_k in [1usize, 2, 4, 8, 16] {
        let cfg = RagConfig { chunk_tokens: 512, top_k };
        let retriever = Retriever::ingest(&encoded, cfg);
        let retrieval = retriever.retrieve(RAG_QUERY);
        eprintln!(
            "top_k={top_k:>2}: coverage={:.3}% context_tokens={}",
            100.0 * retrieval.coverage(),
            grm_textenc::token_count(&retrieval.context())
        );
        group.bench_function(format!("top_k_{top_k}"), |b| {
            b.iter(|| retriever.retrieve(RAG_QUERY).visible_elements)
        });
    }
    group.finish();
}

criterion_group!(benches, bench_topk);
criterion_main!(benches);
