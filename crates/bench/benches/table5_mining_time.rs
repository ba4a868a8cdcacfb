//! Table 5 bench: the rule-mining stage alone (prompting over
//! windows vs a single RAG retrieval), which is what the paper times.
//! `repro --table 5` prints the simulated seconds; this harness
//! measures the real wall-clock of the same stage, preserving the
//! table's structure (the SWA ≫ RAG gap).

use criterion::{criterion_group, criterion_main, Criterion};
use grm_core::RAG_QUERY;
use grm_datasets::{generate, DatasetId, GenConfig};
use grm_llm::{MiningPrompt, ModelKind, PromptStyle, SimLlm};
use grm_textenc::{encode_incident, Tokenized, WindowConfig};
use grm_vecstore::{RagConfig, Retriever};

fn bench_mining(c: &mut Criterion) {
    for id in DatasetId::ALL {
        let graph = generate(id, &GenConfig { seed: 42, scale: 0.05, clean: false }).graph;
        let encoded = Tokenized::new(encode_incident(&graph));
        let mut group = c.benchmark_group(format!("table5/{}", id.name()));
        group.sample_size(10);

        group.bench_function("swa_zero_shot", |b| {
            b.iter(|| {
                let ws = encoded.chunk(WindowConfig::new(2000, 200));
                let mut model = SimLlm::new(ModelKind::Llama3, 42);
                let mut mined = 0usize;
                for w in &ws.windows {
                    let prompt = MiningPrompt::new(PromptStyle::ZeroShot, w.text.clone());
                    mined += model.mine(&prompt).rules.len();
                }
                mined
            })
        });

        group.bench_function("rag_zero_shot", |b| {
            let retriever = Retriever::ingest(&encoded, RagConfig::default());
            b.iter(|| {
                let retrieval = retriever.retrieve(RAG_QUERY);
                let mut model = SimLlm::new(ModelKind::Llama3, 42);
                let mut prompt = MiningPrompt::new(PromptStyle::ZeroShot, retrieval.context());
                prompt.target_rules = Some(8);
                model.mine(&prompt).rules.len()
            })
        });
        group.finish();
    }
}

criterion_group!(benches, bench_mining);
criterion_main!(benches);
