//! Figure 2 bench: the two context strategies' machinery — encoding,
//! tokenization, window chunking, the model's read of its context and
//! its whole mining call, RAG chunk embedding, ingestion and retrieval,
//! whole-graph schema inference — plus the incident-vs-adjacency
//! encoder ablation from DESIGN.md §5.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use grm_core::RAG_QUERY;
use grm_datasets::{generate, DatasetId, GenConfig};
use grm_llm::{MiningPrompt, ModelKind, PromptStyle, SimLlm};
use grm_pgraph::GraphSchema;
use grm_textenc::{
    chunk, encode_adjacency, encode_incident, token_count, GraphFragment, Tokenized, WindowConfig,
};
use grm_vecstore::{embed, RagConfig, Retriever};

fn bench_encoding(c: &mut Criterion) {
    let graph =
        generate(DatasetId::Wwc2019, &GenConfig { seed: 42, scale: 0.2, clean: false }).graph;
    let elements = (graph.node_count() + graph.edge_count()) as u64;

    let mut group = c.benchmark_group("figure2/encode");
    group.throughput(Throughput::Elements(elements));
    group.bench_function("incident", |b| b.iter(|| encode_incident(&graph)));
    group.bench_function("adjacency", |b| b.iter(|| encode_adjacency(&graph)));
    group.finish();

    let encoded = Tokenized::new(encode_incident(&graph));
    let text = encoded.text();
    let mut group = c.benchmark_group("figure2/window");
    group.throughput(Throughput::Bytes(text.len() as u64));
    group.bench_function("tokenize", |b| b.iter(|| token_count(text)));
    group.bench_function("chunk_8000_500", |b| {
        b.iter(|| chunk(text, WindowConfig::default()).len())
    });
    group.finish();

    // What the simulated model does with each SWA window (its fragment
    // graph and that graph's schema), the whole model call over the
    // window prompts, and the RAG coverage count.
    let windows = encoded.chunk(WindowConfig::default()).windows;
    let prompts: Vec<MiningPrompt> = windows
        .iter()
        .map(|w| MiningPrompt::counted(PromptStyle::ZeroShot, w.text.clone(), w.token_len))
        .collect();
    let mut group = c.benchmark_group("figure2/read");
    group.throughput(Throughput::Bytes(text.len() as u64));
    group.bench_function("swa_windows", |b| {
        b.iter(|| {
            windows
                .iter()
                .map(|w| GraphSchema::infer(&GraphFragment::read_graph(&w.text)))
                .collect::<Vec<_>>()
        })
    });
    group.bench_function("swa_mine", |b| {
        let mut model = SimLlm::new(ModelKind::Llama3, 42);
        b.iter(|| prompts.iter().map(|p| model.mine(p).rules.len()).sum::<usize>())
    });
    group.bench_function("count_elements", |b| b.iter(|| GraphFragment::count_elements(text)));
    group.finish();

    let mut group = c.benchmark_group("figure2/rag");
    group.bench_function("ingest", |b| {
        b.iter(|| Retriever::ingest(&encoded, RagConfig::default()).chunk_count())
    });
    let chunks = encoded.windows(WindowConfig::new(RagConfig::default().chunk_tokens, 0));
    group.bench_function("embed", |b| {
        b.iter(|| chunks.iter().map(|w| embed(&w.text).0[0]).sum::<f32>())
    });
    let retriever = Retriever::ingest(&encoded, RagConfig::default());
    group.bench_function("retrieve", |b| b.iter(|| retriever.retrieve(RAG_QUERY).visible_elements));
    group.finish();

    // The whole-graph schema a run's translate and evaluate stages
    // read (inferred once per graph, then memoised), on the
    // warm-mine benchmark's two graph sizes.
    let twitter =
        generate(DatasetId::Twitter, &GenConfig { seed: 42, scale: 0.05, clean: false }).graph;
    let mut group = c.benchmark_group("figure2/schema");
    for (name, g) in [("whole_graph/wwc2019", &graph), ("whole_graph/twitter", &twitter)] {
        group.throughput(Throughput::Elements((g.node_count() + g.edge_count()) as u64));
        group.bench_function(name, |b| b.iter(|| GraphSchema::infer(g).node_props.len()));
    }
    group.finish();
}

criterion_group!(benches, bench_encoding);
criterion_main!(benches);
