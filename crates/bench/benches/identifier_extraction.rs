//! Identifier extraction + grouping on the interned hot path: the
//! id-space microbenchmark tracking this stage alongside `parallel_merge` —
//! serial vs sharded `group_view_compact` against the address-space
//! `AliasSetCollection::from_view` oracle.

use alias_bench::Experiment;
use alias_core::alias_set::{group_view_compact, AliasSetCollection};
use alias_core::extract::{ExtractionConfig, IdentifierExtractor};
use alias_netsim::ScalePreset;
use alias_scan::ServiceProtocol;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_identifier_extraction(c: &mut Criterion) {
    let experiment = Experiment::run(ScalePreset::Small, 11);
    let extractor = IdentifierExtractor::new(ExtractionConfig::paper());
    let ssh = experiment.union.select_protocol(ServiceProtocol::Ssh, None);

    let mut group = c.benchmark_group("identifier_extraction");
    group.bench_function("oracle_collection", |b| {
        b.iter(|| AliasSetCollection::from_view(&ssh, &extractor))
    });
    group.bench_function("compact_serial", |b| {
        b.iter(|| group_view_compact(&ssh, &extractor, 1))
    });
    for threads in [2usize, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("compact_sharded", threads),
            &threads,
            |b, &threads| b.iter(|| group_view_compact(&ssh, &extractor, threads)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_identifier_extraction);
criterion_main!(benches);
