//! Cypher execution throughput (DESIGN.md §5): the metric queries the
//! pipeline actually runs, over graphs of increasing size — the
//! substrate cost behind every table cell. Each shape is timed plain
//! (`execute`) and profiled (`execute_profiled`, the path a traced
//! `grm mine` scores through).

use criterion::{criterion_group, criterion_main, BenchmarkGroup, Criterion};
use grm_cypher::{execute, execute_profiled};
use grm_datasets::{generate, DatasetId, GenConfig};
use grm_pgraph::PropertyGraph;
use grm_rules::{catalog, reference_queries, ConsistencyRule};

/// Times `query` plain and profiled under `name`.
fn bench_shape(group: &mut BenchmarkGroup<'_>, graph: &PropertyGraph, name: &str, query: &str) {
    group.bench_function(name, |b| b.iter(|| execute(graph, query).unwrap().single_int()));
    group.bench_function(format!("{name}/profiled"), |b| {
        b.iter(|| execute_profiled(graph, query).unwrap().0.single_int())
    });
}

fn bench_exec(c: &mut Criterion) {
    for scale in [0.05f64, 0.2, 1.0] {
        let graph =
            generate(DatasetId::Twitter, &GenConfig { seed: 42, scale, clean: false }).graph;
        let mut group = c.benchmark_group(format!("cypher/scale_{scale}"));
        group.sample_size(10);

        // Grouped `WITH … COUNT(*) AS c WHERE c = 1` over a property.
        let unique = reference_queries(&ConsistencyRule::UniqueProperty {
            label: "Tweet".into(),
            key: "id".into(),
        });
        bench_shape(&mut group, &graph, "unique_property", &unique.satisfied);

        let endpoints = reference_queries(&ConsistencyRule::EdgeEndpointLabels {
            etype: "POSTS".into(),
            src_label: "User".into(),
            dst_label: "Tweet".into(),
        });
        bench_shape(&mut group, &graph, "endpoint_labels", &endpoints.satisfied);

        let cardinality = reference_queries(&ConsistencyRule::IncomingExactlyOne {
            src_label: "User".into(),
            etype: "POSTS".into(),
            dst_label: "Tweet".into(),
        });
        bench_shape(&mut group, &graph, "incoming_exactly_one", &cardinality.satisfied);

        let temporal = reference_queries(&ConsistencyRule::TemporalOrder {
            src_label: "Tweet".into(),
            src_key: "created_at".into(),
            etype: "RETWEETS".into(),
            dst_label: "Tweet".into(),
            dst_key: "created_at".into(),
        });
        bench_shape(&mut group, &graph, "temporal_order", &temporal.satisfied);
        group.finish();
    }

    let graph =
        generate(DatasetId::Wwc2019, &GenConfig { seed: 42, scale: 0.2, clean: false }).graph;
    let mut group = c.benchmark_group("cypher/wwc2019_scale_0.2");
    group.sample_size(10);
    // The scorer's two-hop `COUNT(DISTINCT p.id)` shape.
    let ConsistencyRule::Custom { body: two_hop, .. } = catalog::squad_tournament_rule() else {
        unreachable!("the squad rule is a custom rule");
    };
    bench_shape(&mut group, &graph, "two_hop_count_distinct", &two_hop);
    // `WITH a AS a, b AS b, r.k AS v, COUNT(*) AS c WHERE c = 1` keyed
    // on graph elements plus a property.
    let pattern = reference_queries(&ConsistencyRule::PatternUniqueness {
        src_label: "Person".into(),
        etype: "PLAYED_IN".into(),
        dst_label: "Match".into(),
        key: "minutes".into(),
    });
    bench_shape(&mut group, &graph, "pattern_uniqueness", &pattern.satisfied);
    group.finish();
}

criterion_group!(benches, bench_exec);
criterion_main!(benches);
