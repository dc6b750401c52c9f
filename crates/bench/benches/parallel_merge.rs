//! Serial vs sharded alias-set consolidation: `merge_labeled_compact` at
//! one thread against its sharded mode, on the union-merge workload the
//! experiment tables run, so future PRs can show the speedup (and its
//! scaling with thread count) from one bench.

use alias_bench::Experiment;
use alias_core::intern::CompactAliasSet;
use alias_core::merge::merge_labeled_compact;
use alias_netsim::ScalePreset;
use alias_scan::ServiceProtocol;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_parallel_merge(c: &mut Criterion) {
    let experiment = Experiment::run(ScalePreset::Small, 11);
    // The tables' inputs: each protocol's IPv4 alias sets in the union
    // store's id space, grouped once outside the timed region.
    let interner = experiment.union.interner();
    let labeled: Vec<(&str, Vec<CompactAliasSet>)> = [
        ServiceProtocol::Ssh,
        ServiceProtocol::Bgp,
        ServiceProtocol::Snmpv3,
    ]
    .iter()
    .map(|&p| (p.name(), experiment.alias_sets(p, None, false)))
    .collect();
    let inputs: Vec<(&str, &[CompactAliasSet])> =
        labeled.iter().map(|(l, s)| (*l, s.as_slice())).collect();

    let mut group = c.benchmark_group("merge_consolidation");
    group.bench_function("serial", |b| {
        b.iter(|| merge_labeled_compact(&inputs, interner, 1))
    });
    for threads in [2usize, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("sharded", threads),
            &threads,
            |b, &threads| b.iter(|| merge_labeled_compact(&inputs, interner, threads)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_parallel_merge);
criterion_main!(benches);
