//! Alias sets: groups of addresses sharing a protocol identifier.
//!
//! [`group_view_compact`] is the grouper.  It never builds an identifier:
//! each row's identifier key
//! ([`IdentifierExtractor::write_key`](crate::extract::IdentifierExtractor::write_key))
//! is written into a reused buffer and hashed, the rows are sorted by hash,
//! and every run of equal hashes is split exactly by comparing keys.  Each
//! row's [`AddrId`] is read straight from the store.
//! [`AliasSetCollection::from_view`] is the address-space reference oracle
//! the parity tests compare it against: it groups owned identifiers in a
//! hash map.

use crate::extract::IdentifierExtractor;
use crate::identifier::ProtocolIdentifier;
use crate::intern::{AddrId, AddrInterner, CompactAliasSet};
use alias_scan::ObservationView;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap};
use std::net::IpAddr;

/// One alias set: the identifier and every address observed with it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AliasSet {
    /// The shared identifier.
    pub identifier: ProtocolIdentifier,
    /// All addresses (IPv4 and IPv6) observed with the identifier.
    // lint:allow(id-space): report boundary — collections carry resolved addresses
    pub addrs: BTreeSet<IpAddr>,
}

impl AliasSet {
    /// Total number of member addresses.
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// Whether the set is empty (never the case for constructed sets).
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }
}

/// Every identifier group of a store view as resolved address sets — the
/// reference oracle for [`group_view_compact`].
///
/// It groups by address rather than by the store's id column, one row at
/// a time, so it shares no grouping code with the id-space path it checks.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AliasSetCollection {
    sets: Vec<AliasSet>,
}

impl AliasSetCollection {
    /// Group the rows of a store view by extracted identifier.  Rows the
    /// extractor cannot identify are dropped, exactly as the paper drops
    /// hosts whose scan did not yield the required material.  Sets come
    /// out larger first, then by smallest address, then in the order
    /// their identifiers were first seen.
    pub fn from_view(view: &ObservationView<'_>, extractor: &IdentifierExtractor) -> Self {
        // Each identifier's slot is the order in which it was first seen.
        let mut slots: HashMap<ProtocolIdentifier, usize> = HashMap::new();
        let mut groups: Vec<Vec<IpAddr>> = Vec::new();
        for i in 0..view.len() {
            let Some(identifier) = extractor.extract_payload(view.payload_at(i)) else {
                continue;
            };
            let next = groups.len();
            let slot = *slots.entry(identifier).or_insert(next);
            if slot == next {
                groups.push(Vec::new());
            }
            groups[slot].push(view.addr_at(i));
        }
        let mut identifiers: Vec<Option<ProtocolIdentifier>> =
            groups.iter().map(|_| None).collect();
        // lint:allow(det-hash-iter): each identifier lands in its own slot — order-free
        for (identifier, slot) in slots {
            identifiers[slot] = Some(identifier);
        }
        let mut sets: Vec<AliasSet> = identifiers
            .into_iter()
            .zip(groups)
            .map(|(identifier, addrs)| AliasSet {
                identifier: identifier.expect("every slot has its identifier"),
                addrs: addrs.into_iter().collect(),
            })
            .collect();
        sets.sort_by(|a, b| {
            b.len()
                .cmp(&a.len())
                .then_with(|| a.addrs.iter().next().cmp(&b.addrs.iter().next()))
        });
        AliasSetCollection { sets }
    }

    /// All sets (including singletons).
    pub fn sets(&self) -> &[AliasSet] {
        &self.sets
    }

    /// Sets with at least two members — what the paper calls alias sets.
    pub fn non_singleton_sets(&self) -> Vec<&AliasSet> {
        self.sets.iter().filter(|s| s.len() >= 2).collect()
    }

    /// All distinct addresses in the collection (any family, any set size).
    // lint:allow(id-space): report boundary — resolved view over the collection
    pub fn all_addresses(&self) -> BTreeSet<IpAddr> {
        self.sets
            .iter()
            .flat_map(|s| s.addrs.iter().copied())
            .collect()
    }
}

/// Identifier grouping in id space: the output of [`group_view_compact`].
///
/// Alias sets are [`CompactAliasSet`]s over the grouped store's
/// [`AddrInterner`]; addresses are resolved only at the report boundary.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompactGrouping {
    /// Non-singleton alias sets, in the order their identifiers were first
    /// seen in the view.  Callers that report sets choose their own order
    /// (the resolver sorts canonically, the paper's tables larger set
    /// first).
    pub sets: Vec<CompactAliasSet>,
    /// Every identified address (any set size), as sorted distinct ids.
    pub testable: Vec<AddrId>,
}

impl CompactGrouping {
    /// Resolve the testable ids back to addresses (report boundary).
    // lint:allow(id-space): report boundary — resolves ids for rendering
    pub fn testable_addrs(&self, interner: &AddrInterner) -> BTreeSet<IpAddr> {
        self.testable.iter().map(|&id| interner.addr(id)).collect()
    }
}

/// Group a columnar store view by extracted identifier, entirely in id
/// space, with `threads` shard workers.
///
/// No identifier is built.  The work runs in two parallel passes and a
/// short serial join:
///
/// 1. Each worker takes a contiguous range of rows and writes, for every
///    row that has an identifier, its key into one reused buffer, hashes
///    it and files `(hash, row)` in the bucket its hash falls in.
/// 2. Each worker takes a bucket, gathers its pairs from every range,
///    sorts them, and splits every run of equal hashes into groups by
///    comparing the rows' keys byte for byte, so a hash collision never
///    merges two identifiers.  Equal keys hash equally, so a group never
///    spans two buckets.
/// 3. The join orders the groups by their first row and marks every
///    identified row's address as testable.
///
/// The view's [`AddrId`] column already holds each row's interned id
/// (intern-at-scan), so no address is hashed.  Groups come out in the order
/// of their first row, which is the order in which their identifiers are
/// first seen in the view: the output (member sets, set order, testable
/// ids) depends neither on the thread count nor on the hash function.
pub fn group_view_compact(
    view: &ObservationView<'_>,
    extractor: &IdentifierExtractor,
    threads: usize,
) -> CompactGrouping {
    // Key writing + hashing is CPU-bound with no per-item pacing overhead
    // to amortise, so workers beyond the machine's parallelism only add
    // scheduling noise; the clamp never changes the output.
    let threads = threads.min(alias_exec::available_parallelism());
    let shard_count = if threads <= 1 {
        1
    } else {
        alias_exec::shards_for(threads)
    };
    let shard_ranges = alias_exec::split_even(view.len() as u64, shard_count);
    let bucket_of = |hash: u64| ((u128::from(hash) * shard_count as u128) >> 64) as usize;
    let hashed: Vec<Vec<Vec<(u64, u32)>>> =
        alias_exec::shard_map(shard_ranges.len(), threads, |shard| {
            let range = &shard_ranges[shard];
            let mut key = Vec::new();
            let mut buckets = vec![Vec::new(); shard_count];
            for row in range.start as usize..range.end as usize {
                key.clear();
                if extractor.write_key(view.payload_at(row), &mut key) {
                    let hash = key_hash(&key);
                    buckets[bucket_of(hash)].push((hash, row as u32));
                }
            }
            buckets
        });

    let bucket_sets: Vec<Vec<(u32, CompactAliasSet)>> =
        alias_exec::shard_map(shard_count, threads, |bucket| {
            let mut pairs: Vec<(u64, u32)> = hashed
                .iter()
                .flat_map(|shard| shard[bucket].iter().copied())
                .collect();
            pairs.sort_unstable();
            split_hash_runs(&pairs, |row, out| {
                extractor.write_key(view.payload_at(row as usize), out);
            })
            .into_iter()
            .map(|rows| {
                let members = rows
                    .iter()
                    .map(|&row| view.addr_id_at(row as usize))
                    .collect();
                (rows[0], CompactAliasSet::from_ids(members))
            })
            .filter(|(_, set)| set.len() >= 2)
            .collect()
        });

    let mut sets: Vec<(u32, CompactAliasSet)> = bucket_sets.into_iter().flatten().collect();
    sets.sort_unstable_by_key(|&(first_row, _)| first_row);
    let mut identified = vec![false; view.store().interner().len()];
    for &(_, row) in hashed.iter().flatten().flatten() {
        identified[view.addr_id_at(row as usize).index()] = true;
    }
    let testable = identified
        .iter()
        .enumerate()
        .filter(|&(_, &seen)| seen)
        .map(|(id, _)| AddrId(id as u32))
        .collect();
    CompactGrouping {
        sets: sets.into_iter().map(|(_, set)| set).collect(),
        testable,
    }
}

/// A fast 64-bit hash of an identifier key, 16 bytes per step: each step
/// folds the 128-bit product of the two halves, one mixed with the running
/// hash (the wyhash / foldhash step).  Grouping only uses it to bring equal
/// keys together; equal hashes are always confirmed by comparing the keys,
/// so keys crafted to collide cost a sort of their run, never a wrong group.
fn key_hash(key: &[u8]) -> u64 {
    const SEED: u64 = 0x243f_6a88_85a3_08d3;
    const MIX: u64 = 0x1319_8a2e_0370_7344;
    let fold = |a: u64, b: u64| {
        let product = u128::from(a) * u128::from(b);
        (product as u64) ^ ((product >> 64) as u64)
    };
    let halves = |block: &[u8]| {
        let (low, high) = block.split_at(8);
        (
            u64::from_le_bytes(low.try_into().expect("8 bytes")),
            u64::from_le_bytes(high.try_into().expect("8 bytes")),
        )
    };
    let mut hash = SEED ^ key.len() as u64;
    let mut blocks = key.chunks_exact(16);
    for block in &mut blocks {
        let (low, high) = halves(block);
        hash = fold(low ^ hash, high ^ MIX);
    }
    let rest = blocks.remainder();
    let mut last = [0u8; 16];
    last[..rest.len()].copy_from_slice(rest);
    let (low, high) = halves(&last);
    fold(low ^ hash, high ^ MIX ^ SEED)
}

/// Split `(hash, row)` pairs, sorted ascending, into the groups of rows
/// with equal keys that hold more than one row; `write_key(row, buf)`
/// appends a row's key to `buf`.
///
/// A run of one hash is a group of one row and is skipped without looking
/// at its key.  Longer runs are split by sorting their rows by key, so rows
/// whose hashes collide still land in different groups, and a run of `k`
/// colliding rows costs `O(k log k)` key comparisons whatever the keys.  The
/// groups come out ascending, ordered by their first row.
fn split_hash_runs(
    hashed: &[(u64, u32)],
    mut write_key: impl FnMut(u32, &mut Vec<u8>),
) -> Vec<Vec<u32>> {
    let mut groups: Vec<Vec<u32>> = Vec::new();
    // The keys of the current run, back to back, and each row's span.
    let mut keys = Vec::new();
    let mut spans: Vec<(usize, usize, u32)> = Vec::new();
    for same_hash in hashed.chunk_by(|a, b| a.0 == b.0) {
        if same_hash.len() == 1 {
            continue;
        }
        keys.clear();
        spans.clear();
        for &(_, row) in same_hash {
            let start = keys.len();
            write_key(row, &mut keys);
            spans.push((start, keys.len(), row));
        }
        let key = |&(start, end, _): &(usize, usize, u32)| &keys[start..end];
        // Rows are ascending and keys mostly all equal: already sorted.
        spans.sort_by(|a, b| key(a).cmp(key(b)));
        groups.extend(
            spans
                .chunk_by(|a, b| key(a) == key(b))
                .filter(|same_key| same_key.len() >= 2)
                .map(|same_key| same_key.iter().map(|&(_, _, row)| row).collect()),
        );
    }
    groups.sort_unstable_by_key(|rows: &Vec<u32>| rows[0]);
    groups
}

/// Cut alias sets down to the members of one address family (IPv6 when
/// `ipv6`, IPv4 otherwise), keeping the sets that still have two members,
/// in input order.
///
/// A dual-stack device with one address per family is thus an alias set
/// in neither family, as in the paper's per-family tables.
pub fn restrict_to_family(
    sets: &[CompactAliasSet],
    interner: &AddrInterner,
    ipv6: bool,
) -> Vec<CompactAliasSet> {
    sets.iter()
        .map(|set| {
            CompactAliasSet::from_ids(
                set.iter()
                    .filter(|&id| interner.addr(id).is_ipv6() == ipv6)
                    .collect(),
            )
        })
        .filter(|set| set.len() >= 2)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::ExtractionConfig;
    use crate::intern::sort_canonical_compact;
    use alias_netsim::SimTime;
    use alias_scan::{DataSource, ObservationStore, ServiceObservation, ServicePayload, SourceTag};
    use alias_wire::ssh::{Banner, HostKey, HostKeyAlgorithm, KexInit, SshObservation};

    /// An SSH observation for `addr` from a device identified by `key_byte`.
    fn ssh_obs(addr: &str, key_byte: u8, source: DataSource) -> ServiceObservation {
        ServiceObservation {
            addr: addr.parse().unwrap(),
            port: 22,
            source,
            timestamp: SimTime::ZERO,
            asn: Some(100 + key_byte as u32),
            payload: ServicePayload::Ssh(SshObservation {
                banner: Banner::new("OpenSSH_8.9p1", None).unwrap(),
                kex_init: Some(KexInit::typical_openssh()),
                host_key: Some(HostKey::new(HostKeyAlgorithm::Ed25519, vec![key_byte; 32])),
            }),
        }
    }

    fn extractor() -> IdentifierExtractor {
        IdentifierExtractor::new(ExtractionConfig::paper())
    }

    /// Interleaved duplicates, several devices and both families, so
    /// dedup, non-singleton filtering and set order all engage.
    fn mixed_rows() -> Vec<ServiceObservation> {
        vec![
            ssh_obs("10.0.0.3", 1, DataSource::Active),
            ssh_obs("10.0.0.1", 1, DataSource::Active),
            ssh_obs("10.0.0.1", 1, DataSource::Censys),
            ssh_obs("10.2.0.1", 3, DataSource::Active),
            ssh_obs("10.1.0.9", 2, DataSource::Active),
            ssh_obs("2001:db8::1", 2, DataSource::Active),
            ssh_obs("10.2.0.2", 3, DataSource::Active),
            ssh_obs("10.9.0.1", 4, DataSource::Active),
        ]
    }

    #[test]
    fn grouping_by_identifier() {
        let store = ObservationStore::from_observations(vec![
            ssh_obs("10.0.0.1", 1, DataSource::Active),
            ssh_obs("10.0.0.2", 1, DataSource::Active),
            ssh_obs("10.0.0.3", 1, DataSource::Active),
            ssh_obs("10.1.0.1", 2, DataSource::Active),
            ssh_obs("10.2.0.1", 3, DataSource::Active),
            ssh_obs("10.2.0.2", 3, DataSource::Active),
        ]);
        let collection = AliasSetCollection::from_view(&store.view_all(), &extractor());
        assert_eq!(collection.sets().len(), 3);
        assert_eq!(collection.non_singleton_sets().len(), 2);
        // Largest set first.
        assert_eq!(collection.sets()[0].len(), 3);
        assert!(!collection.sets()[0].is_empty());

        let grouped = group_view_compact(&store.view_all(), &extractor(), 1);
        let sizes: Vec<usize> = grouped.sets.iter().map(CompactAliasSet::len).collect();
        assert_eq!(sizes, vec![3, 2]);
        assert_eq!(grouped.testable.len(), 6);
    }

    #[test]
    fn duplicate_observations_collapse() {
        // The same address observed by the active scan and by Censys (union
        // of data sources) must not inflate the set.
        let store = ObservationStore::from_observations(vec![
            ssh_obs("10.0.0.1", 1, DataSource::Active),
            ssh_obs("10.0.0.1", 1, DataSource::Censys),
            ssh_obs("10.0.0.2", 1, DataSource::Censys),
        ]);
        let grouped = group_view_compact(&store.view_all(), &extractor(), 1);
        assert_eq!(grouped.sets.len(), 1);
        assert_eq!(grouped.sets[0].len(), 2);
        let collection = AliasSetCollection::from_view(&store.view_all(), &extractor());
        assert_eq!(collection.sets().len(), 1);
        assert_eq!(collection.sets()[0].len(), 2);
    }

    #[test]
    fn singleton_only_input_produces_no_alias_sets() {
        let store = ObservationStore::from_observations(vec![
            ssh_obs("10.0.0.1", 1, DataSource::Active),
            ssh_obs("10.0.0.2", 2, DataSource::Active),
        ]);
        let grouped = group_view_compact(&store.view_all(), &extractor(), 1);
        assert!(grouped.sets.is_empty());
        // Both addresses were identified, so both are testable.
        assert_eq!(grouped.testable.len(), 2);
        let collection = AliasSetCollection::from_view(&store.view_all(), &extractor());
        assert!(collection.non_singleton_sets().is_empty());
        assert_eq!(collection.sets().len(), 2);
    }

    #[test]
    fn family_restriction_drops_degenerate_sets() {
        let store = ObservationStore::from_observations(vec![
            ssh_obs("10.0.0.1", 1, DataSource::Active),
            ssh_obs("2001:db8::1", 1, DataSource::Active),
            ssh_obs("10.0.0.9", 2, DataSource::Active),
            ssh_obs("10.0.0.10", 2, DataSource::Active),
        ]);
        let interner = store.interner();
        let grouped = group_view_compact(&store.view_all(), &extractor(), 1);
        assert_eq!(grouped.sets.len(), 2);
        // Device 1 is dual-stack but has only one address per family: it is
        // not an alias set within either family.
        let ipv4 = restrict_to_family(&grouped.sets, interner, false);
        assert_eq!(ipv4.len(), 1);
        assert_eq!(
            ipv4[0].to_addr_set(interner),
            ["10.0.0.9", "10.0.0.10"]
                .iter()
                .map(|a| a.parse::<IpAddr>().unwrap())
                .collect::<BTreeSet<_>>()
        );
        assert!(restrict_to_family(&grouped.sets, interner, true).is_empty());
        // It still counts as two testable addresses overall.
        assert_eq!(grouped.testable.len(), 4);
    }

    #[test]
    fn compact_grouping_keeps_first_seen_identifier_order() {
        // Identifier 3 is seen before identifier 1 although its smallest
        // address is larger: the grouping does not sort.
        let store = ObservationStore::from_observations(vec![
            ssh_obs("10.9.0.1", 3, DataSource::Active),
            ssh_obs("10.0.0.1", 1, DataSource::Active),
            ssh_obs("10.9.0.2", 3, DataSource::Active),
            ssh_obs("10.0.0.2", 1, DataSource::Active),
        ]);
        let grouped = group_view_compact(&store.view_all(), &extractor(), 1);
        let interner = store.interner();
        let first_members: Vec<IpAddr> = grouped
            .sets
            .iter()
            .map(|s| s.min_addr(interner).unwrap())
            .collect();
        assert_eq!(
            first_members,
            vec![
                "10.9.0.1".parse::<IpAddr>().unwrap(),
                "10.0.0.1".parse().unwrap()
            ]
        );
    }

    #[test]
    fn view_grouping_matches_the_collection_oracle_for_every_thread_count() {
        let rows = mixed_rows();
        let store = ObservationStore::from_observations(rows);
        let interner = store.interner();
        let view = store.select(None, None);
        let oracle = AliasSetCollection::from_view(&view, &extractor());
        let mut oracle_sets: Vec<_> = oracle
            .non_singleton_sets()
            .into_iter()
            .map(|s| s.addrs.clone())
            .collect();
        oracle_sets.sort_by(|a, b| a.iter().next().cmp(&b.iter().next()));

        let serial = group_view_compact(&view, &extractor(), 1);
        for threads in [1usize, 2, 7] {
            let grouped = group_view_compact(&view, &extractor(), threads);
            assert_eq!(grouped, serial, "threads={threads}");
            let mut canonical = grouped.sets.clone();
            sort_canonical_compact(&mut canonical, interner);
            let resolved: Vec<_> = canonical.iter().map(|s| s.to_addr_set(interner)).collect();
            assert_eq!(resolved, oracle_sets, "threads={threads}");
            assert_eq!(grouped.testable_addrs(interner), oracle.all_addresses());
        }

        // A filtered view groups exactly the filtered rows.
        let active_rows: Vec<ServiceObservation> = mixed_rows()
            .into_iter()
            .filter(|o| o.source == DataSource::Active)
            .collect();
        let active_only = ObservationStore::from_observations(active_rows);
        assert_eq!(
            AliasSetCollection::from_view(
                &store.select(None, Some(SourceTag::Active)),
                &extractor()
            ),
            AliasSetCollection::from_view(&active_only.view_all(), &extractor())
        );
    }

    #[test]
    fn run_splitting_is_exact_when_every_hash_collides() {
        // Rows 0..12 with keys from a few distinct values, in an order
        // where groups interleave; every pair carries the same hash.
        let keys: [&[u8]; 12] = [
            b"c", b"a", b"c", b"b", b"a", b"d", b"c", b"", b"e", b"a", b"ab", b"",
        ];
        let hashed: Vec<(u64, u32)> = (0..keys.len() as u32).map(|row| (7, row)).collect();
        let groups = split_hash_runs(&hashed, |row, key| {
            key.extend_from_slice(keys[row as usize]);
        });
        // Groups in first-seen order, rows ascending; rows 3, 5, 8 and 10
        // are alone with their keys.
        assert_eq!(groups, vec![vec![0, 2, 6], vec![1, 4, 9], vec![7, 11]]);

        // Distinct hashes: a lone row is never read, and groups still come
        // out by first row.
        let hashed = vec![(1, 4), (1, 9), (2, 0), (3, 2), (3, 6)];
        let groups = split_hash_runs(&hashed, |row, key| {
            assert_ne!(row, 0, "a lone row's key is never written");
            key.extend_from_slice(keys[row as usize]);
        });
        assert_eq!(groups, vec![vec![2, 6], vec![4, 9]]);
        assert!(split_hash_runs(&[], |_, _| unreachable!()).is_empty());
    }

    #[test]
    fn passive_shaped_grouping_matches_the_collection_oracle() {
        // Mostly one-row identifiers, some shared by several rows spread
        // over the view, repeated rows of one address, both families and
        // rows without a host key: the shape of a passive scan snapshot.
        let mut rows = Vec::new();
        for i in 0u32..3_000 {
            let addr = if i % 11 == 0 {
                format!("2001:db8::{:x}", i)
            } else {
                format!("10.{}.{}.{}", i >> 16, (i >> 8) & 0xff, i & 0xff)
            };
            let key_byte = if i % 7 == 0 { (i % 40) as u8 } else { 0 };
            let mut obs = ssh_obs(&addr, key_byte, DataSource::Censys);
            if let ServicePayload::Ssh(ssh) = &mut obs.payload {
                if i % 7 != 0 {
                    // A key of its own.
                    let material = ssh.host_key.as_mut().unwrap();
                    material.key_material[..4].copy_from_slice(&i.to_be_bytes());
                    material.key_material[31] = 0xee;
                }
                if i % 97 == 0 {
                    ssh.host_key = None;
                }
            }
            rows.push(obs.clone());
            if i % 13 == 0 {
                obs.source = DataSource::Active;
                rows.push(obs);
            }
        }
        let store = ObservationStore::from_observations(rows);
        let interner = store.interner();
        let view = store.view_all();
        let oracle = AliasSetCollection::from_view(&view, &extractor());
        let mut oracle_sets: Vec<_> = oracle
            .non_singleton_sets()
            .into_iter()
            .map(|s| s.addrs.clone())
            .collect();
        oracle_sets.sort_by(|a, b| a.iter().next().cmp(&b.iter().next()));
        assert!(oracle_sets.len() >= 30, "{}", oracle_sets.len());
        assert!(oracle.sets().len() > 2_000, "{}", oracle.sets().len());

        let serial = group_view_compact(&view, &extractor(), 1);
        for threads in [1usize, 2, 7] {
            let grouped = group_view_compact(&view, &extractor(), threads);
            assert_eq!(grouped, serial, "threads={threads}");
            let mut canonical = grouped.sets.clone();
            sort_canonical_compact(&mut canonical, interner);
            let resolved: Vec<_> = canonical.iter().map(|s| s.to_addr_set(interner)).collect();
            assert_eq!(resolved, oracle_sets, "threads={threads}");
            assert_eq!(grouped.testable_addrs(interner), oracle.all_addresses());
        }
        // First-seen order: the oracle's sets ordered by first row are the
        // grouper's sets in its own order.
        let first_row = |set: &AliasSet| {
            (0..view.len())
                .find(|&i| set.addrs.contains(&view.addr_at(i)))
                .unwrap()
        };
        let mut by_first_row = oracle.non_singleton_sets();
        by_first_row.sort_by_key(|set| first_row(set));
        let in_order: Vec<_> = serial
            .sets
            .iter()
            .map(|s| s.to_addr_set(interner))
            .collect();
        let expected: Vec<_> = by_first_row.into_iter().map(|s| s.addrs.clone()).collect();
        assert_eq!(in_order, expected);
    }

    #[test]
    fn compact_grouping_of_nothing_is_empty() {
        let store = ObservationStore::new();
        let grouped = group_view_compact(&store.view_all(), &extractor(), 4);
        assert!(grouped.sets.is_empty());
        assert!(grouped.testable.is_empty());
    }
}
