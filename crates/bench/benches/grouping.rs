//! Alias-set grouping scalability: identifier extraction and grouping over a
//! growing number of observations, grouping of a passive-scan-shaped
//! snapshot at 1 and 2 threads, plus the identifier-policy ablation
//! (key-only vs. the paper's combined SSH identifier).

use alias_bench::Experiment;
use alias_core::alias_set::group_view_compact;
use alias_core::extract::{ExtractionConfig, IdentifierExtractor};
use alias_core::identifier::SshIdentifierPolicy;
use alias_netsim::{ScalePreset, SimTime};
use alias_scan::{
    DataSource, ObservationStore, ServiceObservation, ServicePayload, ServiceProtocol,
};
use alias_wire::ssh::{Banner, HostKey, HostKeyAlgorithm, KexInit, SshObservation};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::net::IpAddr;

/// Rows of the passive-shaped snapshot.
const PASSIVE_ROWS: u32 = 120_000;

/// A snapshot shaped like a passive scan: 85% of the rows carry an
/// identifier of their own, the rest belong to 600 devices of about 30
/// addresses each, spread over the whole snapshot.
fn passive_shaped_store() -> ObservationStore {
    let banner = Banner::new("OpenSSH_8.9p1", Some("Ubuntu-3ubuntu0.1")).unwrap();
    let kex_init = KexInit::typical_openssh();
    let rows = (0..PASSIVE_ROWS).map(|i| {
        // Rows 17..20 of every 20 are the shared ones.
        let device = match i % 20 {
            0..=16 => i,
            shared => PASSIVE_ROWS + (i / 20 * 3 + shared - 17) % 600,
        };
        let mut key = vec![0x5a; 32];
        key[..4].copy_from_slice(&device.to_be_bytes());
        ServiceObservation {
            addr: IpAddr::from((0x0a00_0000 + i).to_be_bytes()),
            port: 22,
            source: DataSource::Censys,
            timestamp: SimTime::ZERO,
            asn: Some(64_500),
            payload: ServicePayload::Ssh(SshObservation {
                banner: banner.clone(),
                kex_init: Some(kex_init.clone()),
                host_key: Some(HostKey::new(HostKeyAlgorithm::Ed25519, key)),
            }),
        }
    });
    ObservationStore::from_observations(rows)
}

fn bench_grouping(c: &mut Criterion) {
    let experiment = Experiment::run(ScalePreset::Small, 11);
    let ssh_view = experiment.union.select_protocol(ServiceProtocol::Ssh, None);
    let ssh_observations = ssh_view.to_observations();

    let mut group = c.benchmark_group("alias_grouping");
    for fraction in [4usize, 2, 1] {
        let rows = ssh_observations.len() / fraction;
        let store = ObservationStore::from_observations(ssh_observations[..rows].to_vec());
        group.bench_with_input(
            BenchmarkId::new("ssh_full_identifier", rows),
            &store,
            |b, store| {
                let extractor = IdentifierExtractor::new(ExtractionConfig::paper());
                b.iter(|| group_view_compact(&store.view_all(), &extractor, 1))
            },
        );
    }
    group.finish();

    // Passive-shaped grouping: does the shard phase scale?
    let passive = passive_shaped_store();
    let mut scaling = c.benchmark_group("passive_grouping");
    for threads in [1usize, 2] {
        scaling.bench_with_input(
            BenchmarkId::new("ssh_full_identifier", threads),
            &threads,
            |b, &threads| {
                let extractor = IdentifierExtractor::new(ExtractionConfig::paper());
                b.iter(|| group_view_compact(&passive.view_all(), &extractor, threads))
            },
        );
    }
    scaling.finish();

    // Ablation: grouping cost and outcome per SSH identifier policy.
    let mut ablation = c.benchmark_group("identifier_policy_ablation");
    for (name, policy) in [
        ("key_only", SshIdentifierPolicy::KeyOnly),
        (
            "key_and_capabilities",
            SshIdentifierPolicy::KeyAndCapabilities,
        ),
        ("full", SshIdentifierPolicy::Full),
    ] {
        ablation.bench_function(name, |b| {
            let extractor = IdentifierExtractor::new(ExtractionConfig {
                ssh: policy,
                ..ExtractionConfig::paper()
            });
            b.iter(|| group_view_compact(&ssh_view, &extractor, 1))
        });
    }
    ablation.finish();
}

criterion_group!(benches, bench_grouping);
criterion_main!(benches);
