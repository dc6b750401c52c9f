//! Alias sets: groups of addresses sharing a protocol identifier.
//!
//! [`group_view_compact`] is the grouper: it runs in id space, interning
//! identifiers to [`IdentId`](crate::intern::IdentId)s and reading each
//! row's [`AddrId`] straight from the store, so the per-observation work
//! is one payload extraction, one identifier hash and a `Vec` push.
//! [`AliasSetCollection::from_view`] is the address-space reference
//! oracle the parity tests compare it against.

use crate::extract::IdentifierExtractor;
use crate::identifier::ProtocolIdentifier;
use crate::intern::{AddrId, AddrInterner, CompactAliasSet, IdentInterner};
use alias_scan::ObservationView;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
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
        let mut idents = IdentInterner::new();
        let mut groups: Vec<Vec<IpAddr>> = Vec::new();
        for i in 0..view.len() {
            let Some(identifier) = extractor.extract_payload(view.payload_at(i)) else {
                continue;
            };
            let ident = idents.intern(identifier);
            if ident.index() == groups.len() {
                groups.push(Vec::new());
            }
            groups[ident.index()].push(view.addr_at(i));
        }
        let mut sets: Vec<AliasSet> = idents
            .into_keys()
            .into_iter()
            .zip(groups)
            .map(|(identifier, addrs)| AliasSet {
                identifier,
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
/// The view's [`AddrId`] column already holds each row's interned id
/// (intern-at-scan), so the per-observation work is one payload extraction
/// and one identifier hash, with no address hashing at all.  Each shard
/// groups its contiguous slice of the rows into groups keyed by a
/// shard-local [`IdentId`](crate::intern::IdentId); the join then reduces
/// in id space — walking every shard's interner in id order and
/// re-interning only each shard's *distinct* identifiers — instead of
/// re-hashing the full identifier material once per observation.  Because
/// shards are contiguous slices reduced in shard order, the output
/// (member sets, set order, testable ids) is identical for every thread
/// count.
pub fn group_view_compact(
    view: &ObservationView<'_>,
    extractor: &IdentifierExtractor,
    threads: usize,
) -> CompactGrouping {
    // Extraction + hashing is CPU-bound with no per-item pacing overhead
    // to amortise, so workers beyond the machine's parallelism only add
    // scheduling noise; the clamp never changes the output (the grouping
    // is shard-count independent).
    let threads = threads.min(alias_exec::available_parallelism());
    let shard_count = if threads <= 1 {
        1
    } else {
        alias_exec::shards_for(threads)
    };
    let shard_ranges = alias_exec::split_even(view.len() as u64, shard_count);
    let shards: Vec<(IdentInterner, Vec<Vec<AddrId>>)> =
        alias_exec::shard_map(shard_ranges.len(), threads, |shard| {
            let range = &shard_ranges[shard];
            let mut idents = IdentInterner::new();
            let mut groups: Vec<Vec<AddrId>> = Vec::new();
            for i in range.start as usize..range.end as usize {
                let Some(identifier) = extractor.extract_payload(view.payload_at(i)) else {
                    continue;
                };
                let ident = idents.intern(identifier);
                if ident.index() == groups.len() {
                    groups.push(Vec::new());
                }
                groups[ident.index()].push(view.addr_id_at(i));
            }
            (idents, groups)
        });

    // Id-space reduce, in shard order: re-intern each shard's distinct
    // identifiers once (moved, not cloned) and splice the id-keyed groups
    // together.  A single shard is already grouped — no join at all.
    let single_shard = shards.len() == 1;
    let mut idents = IdentInterner::new();
    let mut groups: Vec<Vec<AddrId>> = Vec::new();
    for (shard_idents, shard_groups) in shards {
        if single_shard {
            groups = shard_groups;
            break;
        }
        for (identifier, members) in shard_idents.into_keys().into_iter().zip(shard_groups) {
            let ident = idents.intern(identifier);
            if ident.index() == groups.len() {
                groups.push(members);
            } else {
                groups[ident.index()].extend(members);
            }
        }
    }

    let mut sets = Vec::new();
    let mut testable: Vec<AddrId> = Vec::new();
    for members in groups {
        let set = CompactAliasSet::from_ids(members);
        testable.extend(set.iter());
        if set.len() >= 2 {
            sets.push(set);
        }
    }
    testable.sort_unstable();
    testable.dedup();
    CompactGrouping { sets, testable }
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
    fn compact_grouping_of_nothing_is_empty() {
        let store = ObservationStore::new();
        let grouped = group_view_compact(&store.view_all(), &extractor(), 4);
        assert!(grouped.sets.is_empty());
        assert!(grouped.testable.is_empty());
    }
}
