//! IPID baseline micro-benchmarks: the monotonic bounds test and velocity
//! estimation that MIDAR runs for every candidate pair.

use alias_midar::mbt::monotonic_bounds_test;
use alias_midar::velocity::estimate_velocity;
use alias_netsim::SimTime;
use alias_scan::ipid_probe::{IpidSample, IpidTimeSeries};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn synthetic_series(base: u16, velocity: f64, samples: usize) -> Vec<IpidSample> {
    (0..samples)
        .map(|i| IpidSample {
            time: SimTime(i as u64 * 1_000),
            ipid: base
                .wrapping_add((velocity * i as f64) as u16)
                .wrapping_add(i as u16),
        })
        .collect()
}

fn bench_mbt(c: &mut Criterion) {
    let a = synthetic_series(100, 12.0, 30);
    let b = synthetic_series(105, 12.0, 30);
    c.bench_function("mbt_consistent_pair", |bench| {
        bench.iter(|| monotonic_bounds_test(black_box(&a), black_box(&b), 1_500.0))
    });
    let unrelated = synthetic_series(40_000, 12.0, 30);
    c.bench_function("mbt_inconsistent_pair", |bench| {
        bench.iter(|| monotonic_bounds_test(black_box(&a), black_box(&unrelated), 1_500.0))
    });

    let series = IpidTimeSeries {
        addr: "192.0.2.1".parse().unwrap(),
        samples: a.clone(),
    };
    c.bench_function("velocity_estimation", |bench| {
        bench.iter(|| estimate_velocity(black_box(&series), 1_500.0))
    });
}

criterion_group!(benches, bench_mbt);
criterion_main!(benches);
