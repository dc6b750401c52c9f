//! Cross-technique validation at paper-like shape: ~20k alias sets per
//! technique over a ~200k-id universe, the size of one of the resolver's
//! 28 pairwise agreement checks.  Projection must stay linear in the set
//! sizes plus the universe; a per-set walk over the universe shows up here
//! as a thousandfold slowdown.

use alias_core::intern::{AddrId, CompactAliasSet};
use alias_core::validation::cross_validate;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

const UNIVERSE: u32 = 200_000;
const SETS: u32 = 20_000;

/// Technique A's sets: consecutive runs of 2–10 ids.  Technique B groups
/// the same runs but splits every seventh one in two.
fn partitions() -> (Vec<CompactAliasSet>, Vec<CompactAliasSet>) {
    let (mut a, mut b) = (Vec::new(), Vec::new());
    let mut next = 0u32;
    for k in 0..SETS {
        let ids: Vec<AddrId> = (next..next + 2 + k % 9).map(AddrId).collect();
        next += ids.len() as u32;
        if k % 7 == 0 && ids.len() >= 4 {
            let (left, right) = ids.split_at(ids.len() / 2);
            b.push(CompactAliasSet::from_ids(left.to_vec()));
            b.push(CompactAliasSet::from_ids(right.to_vec()));
        } else {
            b.push(CompactAliasSet::from_ids(ids.clone()));
        }
        a.push(CompactAliasSet::from_ids(ids));
    }
    (a, b)
}

fn bench_validation(c: &mut Criterion) {
    let (sets_a, sets_b) = partitions();
    // Both techniques saw four in five addresses.
    let common: Vec<AddrId> = (0..UNIVERSE).filter(|id| id % 5 != 0).map(AddrId).collect();
    c.bench_function("cross_validate_20k_sets_200k_ids", |bench| {
        bench.iter(|| cross_validate(black_box(&sets_a), black_box(&sets_b), black_box(&common)))
    });
}

criterion_group!(benches, bench_validation);
criterion_main!(benches);
