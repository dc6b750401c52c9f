//! The columnar observation store.
//!
//! [`ObservationStore`] keeps a campaign's observations as column vectors —
//! one `Vec` per scalar field ([`AddrId`], [`ProtocolTag`], [`SourceTag`],
//! port, timestamp, ASN) plus a payload column — instead of one
//! row-oriented `Vec<ServiceObservation>`.  The row type interleaves
//! multi-hundred-byte payloads with the handful of scalar bytes every
//! technique actually filters on, so a protocol pass over rows drags the
//! whole campaign through cache; over columns it reads one byte per row.
//!
//! Addresses are interned **at scan time**: the sharded probe loops push
//! straight into per-shard [`ShardColumns`] (shard-local interner, no
//! global contention), and [`ObservationStore::absorb_shard`] remaps each
//! shard's dense local ids onto the store's id space — one hash lookup per
//! *distinct* address per shard instead of the one-per-observation post-hoc
//! interning pass a row campaign needs.
//!
//! Reading is zero-copy: [`ObservationStore::select`] scans the two tag
//! columns and yields an [`ObservationView`] whose accessors return column
//! values and `&ServicePayload` references without materialising rows;
//! [`ObservationRef`] materialises a full [`ServiceObservation`] only at
//! compatibility boundaries.

use crate::records::{DataSource, ObservationSink, ServiceObservation, ServicePayload};
use crate::tags::{ProtocolTag, SourceTag};
use alias_intern::{AddrId, AddrInterner};
use alias_netsim::{ServiceProtocol, SimTime};
use alias_obs::{DeterminismClass, LazyCounter};
use std::net::IpAddr;
use std::sync::Arc;

/// Rows spliced onto campaign stores by [`ObservationStore::absorb_shard`].
/// Every scanned row is absorbed exactly once no matter how the campaign
/// was sharded, so the total is thread-count-invariant.
static ROWS_ABSORBED: LazyCounter = LazyCounter::new(
    "store.rows_absorbed",
    DeterminismClass::Deterministic,
    "rows",
    "store",
);

/// Distinct-address remap lookups performed while absorbing shards.  An
/// address observed by k shards is remapped k times, so the total depends
/// on the shard decomposition: timing class.
static ADDR_REMAPS: LazyCounter = LazyCounter::new(
    "store.addr_remaps",
    DeterminismClass::Timing,
    "lookups",
    "store",
);

/// Columnar storage for a batch of observations, with every observed
/// address interned to a dense [`AddrId`] in first-observation order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObservationStore {
    addrs: Vec<AddrId>,
    protocols: Vec<ProtocolTag>,
    sources: Vec<SourceTag>,
    ports: Vec<u16>,
    timestamps: Vec<SimTime>,
    asns: Vec<Option<u32>>,
    payloads: Vec<ServicePayload>,
    interner: Arc<AddrInterner>,
}

impl ObservationStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty store with room for `rows` observations.
    pub fn with_capacity(rows: usize) -> Self {
        ObservationStore {
            addrs: Vec::with_capacity(rows),
            protocols: Vec::with_capacity(rows),
            sources: Vec::with_capacity(rows),
            ports: Vec::with_capacity(rows),
            timestamps: Vec::with_capacity(rows),
            asns: Vec::with_capacity(rows),
            payloads: Vec::with_capacity(rows),
            interner: Arc::new(AddrInterner::new()),
        }
    }

    /// Build a store from row observations, in order (the compatibility
    /// constructor for pre-collected data; scans use [`ShardColumns`]).
    pub fn from_observations<I>(observations: I) -> Self
    where
        I: IntoIterator<Item = ServiceObservation>,
    {
        let mut store = ObservationStore::new();
        for observation in observations {
            store.push_owned(observation);
        }
        store
    }

    /// Append one observation, interning its address (fields are moved in,
    /// nothing is cloned).
    pub fn push_owned(&mut self, observation: ServiceObservation) {
        let ServiceObservation {
            addr,
            port,
            source,
            timestamp,
            asn,
            payload,
        } = observation;
        self.push_parts(addr, port, source, timestamp, asn, payload);
    }

    /// Append one observation from its fields, interning the address.
    pub fn push_parts(
        &mut self,
        addr: IpAddr,
        port: u16,
        source: DataSource,
        timestamp: SimTime,
        asn: Option<u32>,
        payload: ServicePayload,
    ) {
        let id = Arc::make_mut(&mut self.interner).intern(addr);
        self.addrs.push(id);
        self.protocols.push(payload.protocol().into());
        self.sources.push(source.into());
        self.ports.push(port);
        self.timestamps.push(timestamp);
        self.asns.push(asn);
        self.payloads.push(payload);
    }

    /// Splice a scan shard onto the store: the shard's dense local ids are
    /// remapped through one hash lookup per *distinct* shard address, then
    /// every column is moved over.  Absorbing shards in shard order
    /// reproduces the serial first-observation id order exactly, which is
    /// what keeps a sharded campaign byte-identical to a serial one.
    pub fn absorb_shard(&mut self, shard: ShardColumns) {
        let ShardColumns {
            interner: local,
            addrs,
            protocols,
            sources,
            ports,
            timestamps,
            asns,
            payloads,
        } = shard;
        let global = Arc::make_mut(&mut self.interner);
        let remap: Vec<AddrId> = local.addrs().iter().map(|&a| global.intern(a)).collect();
        ROWS_ABSORBED.add(addrs.len() as u64);
        ADDR_REMAPS.add(remap.len() as u64);
        self.addrs
            .extend(addrs.into_iter().map(|id| remap[id.index()]));
        self.protocols.extend(protocols);
        self.sources.extend(sources);
        self.ports.extend(ports);
        self.timestamps.extend(timestamps);
        self.asns.extend(asns);
        self.payloads.extend(payloads);
    }

    /// Append every row of another store, re-interning addresses into this
    /// store's id space (used to build union datasets).
    pub fn extend_from(&mut self, other: &ObservationStore) {
        let global = Arc::make_mut(&mut self.interner);
        let remap: Vec<AddrId> = other
            .interner
            .addrs()
            .iter()
            .map(|&a| global.intern(a))
            .collect();
        self.addrs
            .extend(other.addrs.iter().map(|id| remap[id.index()]));
        self.protocols.extend_from_slice(&other.protocols);
        self.sources.extend_from_slice(&other.sources);
        self.ports.extend_from_slice(&other.ports);
        self.timestamps.extend_from_slice(&other.timestamps);
        self.asns.extend_from_slice(&other.asns);
        self.payloads.extend_from_slice(&other.payloads);
    }

    /// Number of stored observations.
    #[inline]
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// Whether the store holds no observations.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// The store's address interner: every observed address mapped to a
    /// dense [`AddrId`] in first-observation order, shared behind an `Arc`
    /// so techniques and reports can reference the id space without copying
    /// it.
    #[inline]
    pub fn interner(&self) -> &Arc<AddrInterner> {
        &self.interner
    }

    /// The dense id of an observed address (`None` if never observed).
    #[inline]
    pub fn addr_id(&self, addr: IpAddr) -> Option<AddrId> {
        self.interner.get(addr)
    }

    /// The address-id column (one entry per observation, in campaign order).
    #[inline]
    pub fn addr_ids(&self) -> &[AddrId] {
        &self.addrs
    }

    /// The protocol-tag column.
    #[inline]
    pub fn protocols(&self) -> &[ProtocolTag] {
        &self.protocols
    }

    /// The source-tag column.
    #[inline]
    pub fn sources(&self) -> &[SourceTag] {
        &self.sources
    }

    /// The probed-port column.
    #[inline]
    pub fn ports(&self) -> &[u16] {
        &self.ports
    }

    /// The timestamp column.
    #[inline]
    pub fn timestamps(&self) -> &[SimTime] {
        &self.timestamps
    }

    /// The origin-AS column.
    #[inline]
    pub fn asns(&self) -> &[Option<u32>] {
        &self.asns
    }

    /// The payload column.  Stored separately from the scalar columns so
    /// filter passes never pull payload bytes through cache.
    #[inline]
    pub fn payloads(&self) -> &[ServicePayload] {
        &self.payloads
    }

    /// The address of row `row` (resolved through the interner).
    #[inline]
    pub fn addr_at(&self, row: usize) -> IpAddr {
        self.interner.addr(self.addrs[row])
    }

    /// A borrowed view of row `row`.
    #[inline]
    pub fn get(&self, row: usize) -> ObservationRef<'_> {
        ObservationRef {
            addr_id: self.addrs[row],
            addr: self.interner.addr(self.addrs[row]),
            port: self.ports[row],
            source: self.sources[row].into(),
            timestamp: self.timestamps[row],
            asn: self.asns[row],
            payload: &self.payloads[row],
        }
    }

    /// The row count as the `u32` views index with; loud (like
    /// [`crate::PayloadArena::push`] on its offsets) rather than silently
    /// truncating should a store ever exceed `u32::MAX` rows.
    fn row_range(&self) -> std::ops::Range<u32> {
        let len = u32::try_from(self.len()).expect("observation store exceeds u32 rows");
        0..len
    }

    /// Select the rows matching a protocol and/or source filter (`None` =
    /// no constraint).  The pass reads only the two one-byte tag columns;
    /// the returned view borrows the store, copying nothing.
    pub fn select(
        &self,
        protocol: Option<ProtocolTag>,
        source: Option<SourceTag>,
    ) -> ObservationView<'_> {
        let rows = self
            .row_range()
            .filter(|&row| {
                let row = row as usize;
                protocol.is_none_or(|p| self.protocols[row] == p)
                    && source.is_none_or(|s| self.sources[row] == s)
            })
            .collect();
        ObservationView { store: self, rows }
    }

    /// [`Self::select`] by `ServiceProtocol` / [`DataSource`] values.
    pub fn select_protocol(
        &self,
        protocol: ServiceProtocol,
        source: Option<DataSource>,
    ) -> ObservationView<'_> {
        self.select(Some(protocol.into()), source.map(SourceTag::from))
    }

    /// A view of every row, in campaign order.
    pub fn view_all(&self) -> ObservationView<'_> {
        ObservationView {
            store: self,
            rows: self.row_range().collect(),
        }
    }

    /// Materialise every row (the compatibility boundary; payloads are
    /// cloned).
    pub fn to_observations(&self) -> Vec<ServiceObservation> {
        (0..self.len())
            .map(|row| self.get(row).to_observation())
            .collect()
    }

    /// Check the store's structural invariants: every column the same
    /// length, the protocol tag column agreeing with the payload column
    /// row-by-row, every address id inside the interner's dense range, and
    /// the interner's own id ⇄ address bijection intact.
    ///
    /// The runtime twin of the static `det-hash-iter`/`id-space` lints:
    /// those catch sources of nondeterminism in the text, this catches a
    /// store whose columns have drifted apart at the point of use (the
    /// parity proptests call it after `absorb_shard` splices).  Compiled
    /// only under `debug_assertions`, the `validate` feature or this
    /// crate's own tests.
    #[cfg(any(debug_assertions, test, feature = "validate"))]
    pub fn validate(&self) -> Result<(), String> {
        let rows = self.addrs.len();
        let widths = [
            ("protocols", self.protocols.len()),
            ("sources", self.sources.len()),
            ("ports", self.ports.len()),
            ("timestamps", self.timestamps.len()),
            ("asns", self.asns.len()),
            ("payloads", self.payloads.len()),
        ];
        for (name, len) in widths {
            if len != rows {
                return Err(format!(
                    "column drift: {name} has {len} rows but addrs has {rows}"
                ));
            }
        }
        for (row, (&tag, payload)) in self.protocols.iter().zip(&self.payloads).enumerate() {
            if tag != ProtocolTag::from(payload.protocol()) {
                return Err(format!(
                    "tag/payload drift at row {row}: tag {tag:?} vs payload {:?}",
                    payload.protocol()
                ));
            }
        }
        let ids = self.interner.len();
        for (row, id) in self.addrs.iter().enumerate() {
            if id.index() >= ids {
                return Err(format!(
                    "dangling address id at row {row}: id {} outside interner range 0..{ids}",
                    id.0
                ));
            }
        }
        self.interner.validate()
    }

    /// Number of distinct addresses observed with `protocol`.
    pub fn address_count(&self, protocol: ServiceProtocol) -> usize {
        let tag = ProtocolTag::from(protocol);
        let mut seen = vec![false; self.interner.len()];
        let mut count = 0usize;
        for (row, &p) in self.protocols.iter().enumerate() {
            if p == tag && !std::mem::replace(&mut seen[self.addrs[row].index()], true) {
                count += 1;
            }
        }
        count
    }
}

/// Per-shard append builder: the scan loops push observation fields
/// straight into shard-local columns, interning addresses against a
/// shard-local [`AddrInterner`] (no cross-shard contention, no row structs).
/// [`ObservationStore::absorb_shard`] splices shards onto the campaign
/// store in shard order.
#[derive(Debug, Clone, Default)]
pub struct ShardColumns {
    interner: AddrInterner,
    addrs: Vec<AddrId>,
    protocols: Vec<ProtocolTag>,
    sources: Vec<SourceTag>,
    ports: Vec<u16>,
    timestamps: Vec<SimTime>,
    asns: Vec<Option<u32>>,
    payloads: Vec<ServicePayload>,
}

impl ShardColumns {
    /// An empty shard builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty shard builder with room for `rows` observations, so a scan
    /// loop that knows its target count pays one allocation per column
    /// instead of the doubling ladder.
    pub fn with_capacity(rows: usize) -> Self {
        ShardColumns {
            interner: AddrInterner::default(),
            addrs: Vec::with_capacity(rows),
            protocols: Vec::with_capacity(rows),
            sources: Vec::with_capacity(rows),
            ports: Vec::with_capacity(rows),
            timestamps: Vec::with_capacity(rows),
            asns: Vec::with_capacity(rows),
            payloads: Vec::with_capacity(rows),
        }
    }

    /// Append one observation from its fields, interning the address
    /// shard-locally.
    pub fn push(
        &mut self,
        addr: IpAddr,
        port: u16,
        source: DataSource,
        timestamp: SimTime,
        asn: Option<u32>,
        payload: ServicePayload,
    ) {
        let id = self.interner.intern(addr);
        self.addrs.push(id);
        self.protocols.push(payload.protocol().into());
        self.sources.push(source.into());
        self.ports.push(port);
        self.timestamps.push(timestamp);
        self.asns.push(asn);
        self.payloads.push(payload);
    }

    /// Number of rows in the shard.
    #[inline]
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// Whether the shard holds no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// Timestamp of the shard's last row, if any.
    pub fn last_timestamp(&self) -> Option<SimTime> {
        self.timestamps.last().copied()
    }

    /// Materialise the shard's rows (used by the row-returning scanner
    /// compatibility APIs).
    pub fn into_observations(self) -> Vec<ServiceObservation> {
        let interner = self.interner;
        self.addrs
            .into_iter()
            .zip(self.ports)
            .zip(self.sources)
            .zip(self.timestamps)
            .zip(self.asns)
            .zip(self.payloads)
            .map(
                |(((((id, port), source), timestamp), asn), payload)| ServiceObservation {
                    addr: interner.addr(id),
                    port,
                    source: source.into(),
                    timestamp,
                    asn,
                    payload,
                },
            )
            .collect()
    }
}

/// An [`ObservationSink`] that builds an [`ObservationStore`]: the
/// streaming bridge between row producers (campaign replays, Censys
/// snapshots) and columnar storage.
#[derive(Debug, Clone, Default)]
pub struct ColumnarSink {
    store: ObservationStore,
}

impl ColumnarSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty sink with room for `rows` observations.
    pub fn with_capacity(rows: usize) -> Self {
        ColumnarSink {
            store: ObservationStore::with_capacity(rows),
        }
    }

    /// Finish and return the store.
    pub fn finish(self) -> ObservationStore {
        self.store
    }
}

impl ObservationSink for ColumnarSink {
    fn accept(&mut self, observation: &ServiceObservation) {
        self.store.push_owned(observation.clone());
    }
}

/// A zero-copy selection over an [`ObservationStore`]: the row indices that
/// matched a filter, plus column accessors resolving through the store.
#[derive(Debug, Clone)]
pub struct ObservationView<'a> {
    store: &'a ObservationStore,
    rows: Vec<u32>,
}

impl<'a> ObservationView<'a> {
    /// The store the view borrows from.
    #[inline]
    pub fn store(&self) -> &'a ObservationStore {
        self.store
    }

    /// The selected row indices, in campaign order.
    #[inline]
    pub fn rows(&self) -> &[u32] {
        &self.rows
    }

    /// Number of selected rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the selection is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The [`AddrId`] of the `i`-th selected row — read straight from the
    /// id column, no address hashing.
    #[inline]
    pub fn addr_id_at(&self, i: usize) -> AddrId {
        self.store.addrs[self.rows[i] as usize]
    }

    /// The address of the `i`-th selected row.
    #[inline]
    pub fn addr_at(&self, i: usize) -> IpAddr {
        self.store.addr_at(self.rows[i] as usize)
    }

    /// The payload of the `i`-th selected row, borrowed.
    #[inline]
    pub fn payload_at(&self, i: usize) -> &'a ServicePayload {
        &self.store.payloads[self.rows[i] as usize]
    }

    /// The origin AS of the `i`-th selected row.
    #[inline]
    pub fn asn_at(&self, i: usize) -> Option<u32> {
        self.store.asns[self.rows[i] as usize]
    }

    /// A borrowed view of the `i`-th selected row.
    #[inline]
    pub fn get(&self, i: usize) -> ObservationRef<'a> {
        self.store.get(self.rows[i] as usize)
    }

    /// Iterator over the selected rows as [`ObservationRef`]s.
    pub fn iter(&self) -> impl Iterator<Item = ObservationRef<'a>> + '_ {
        self.rows.iter().map(|&row| self.store.get(row as usize))
    }

    /// Materialise the selected rows (compatibility boundary).
    pub fn to_observations(&self) -> Vec<ServiceObservation> {
        self.iter().map(|r| r.to_observation()).collect()
    }
}

/// A borrowed observation row: every scalar by value, the payload by
/// reference.  [`Self::to_observation`] clones it into an owned
/// [`ServiceObservation`] at compatibility boundaries.
#[derive(Debug, Clone, Copy)]
pub struct ObservationRef<'a> {
    /// Dense id of the observed address in the store's interner.
    pub addr_id: AddrId,
    /// The observed address.
    pub addr: IpAddr,
    /// The probed port.
    pub port: u16,
    /// Data source.
    pub source: DataSource,
    /// Observation time.
    pub timestamp: SimTime,
    /// Origin AS.
    pub asn: Option<u32>,
    /// The parsed payload, borrowed from the payload column.
    pub payload: &'a ServicePayload,
}

impl ObservationRef<'_> {
    /// The protocol of the observation.
    #[inline]
    pub fn protocol(&self) -> ServiceProtocol {
        self.payload.protocol()
    }

    /// Whether the observed address is IPv6.
    #[inline]
    pub fn is_ipv6(&self) -> bool {
        self.addr.is_ipv6()
    }

    /// Whether the observation is on the protocol's default port.
    #[inline]
    pub fn is_default_port(&self) -> bool {
        self.port == self.protocol().default_port()
    }

    /// Clone the row into an owned observation.
    pub fn to_observation(&self) -> ServiceObservation {
        ServiceObservation {
            addr: self.addr,
            port: self.port,
            source: self.source,
            timestamp: self.timestamp,
            asn: self.asn,
            payload: self.payload.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alias_wire::snmp::EngineId;
    use alias_wire::ssh::{Banner, HostKey, HostKeyAlgorithm, KexInit, SshObservation};

    pub(crate) fn ssh_obs(addr: &str, key_byte: u8, source: DataSource) -> ServiceObservation {
        ServiceObservation {
            addr: addr.parse().unwrap(),
            port: 22,
            source,
            timestamp: SimTime::from_secs(key_byte as u64),
            asn: Some(100 + key_byte as u32),
            payload: ServicePayload::Ssh(SshObservation {
                banner: Banner::new("OpenSSH_8.9p1", None).unwrap(),
                kex_init: Some(KexInit::typical_openssh()),
                host_key: Some(HostKey::new(HostKeyAlgorithm::Ed25519, vec![key_byte; 32])),
            }),
        }
    }

    pub(crate) fn snmp_obs(addr: &str, engine_byte: u8) -> ServiceObservation {
        ServiceObservation {
            addr: addr.parse().unwrap(),
            port: 161,
            source: DataSource::Active,
            timestamp: SimTime::from_secs(900),
            asn: None,
            payload: ServicePayload::Snmpv3 {
                engine_id: EngineId::from_enterprise_mac(9, [engine_byte; 6]),
                engine_boots: 2,
                engine_time: 1_000,
            },
        }
    }

    fn sample_rows() -> Vec<ServiceObservation> {
        vec![
            ssh_obs("10.0.0.1", 1, DataSource::Active),
            ssh_obs("10.0.0.2", 1, DataSource::Censys),
            snmp_obs("10.0.0.1", 7),
            ssh_obs("2001:db8::1", 2, DataSource::Active),
            snmp_obs("10.0.0.9", 8),
        ]
    }

    #[test]
    fn store_round_trips_rows_and_interns_in_first_observation_order() {
        let rows = sample_rows();
        let store = ObservationStore::from_observations(rows.clone());
        assert_eq!(store.len(), rows.len());
        assert!(!store.is_empty());
        assert_eq!(store.to_observations(), rows);
        // First-observation id order, duplicates collapsed.
        assert_eq!(store.interner().len(), 4);
        assert_eq!(store.addr_id("10.0.0.1".parse().unwrap()), Some(AddrId(0)));
        assert_eq!(store.addr_ids()[2], AddrId(0), "repeat address reuses id");
        assert_eq!(store.addr_at(3), "2001:db8::1".parse::<IpAddr>().unwrap());
        assert_eq!(store.protocols()[2], ProtocolTag::Snmpv3);
        assert_eq!(store.sources()[1], SourceTag::Censys);
        assert_eq!(store.ports()[2], 161);
        assert_eq!(store.asns()[0], Some(101));
        assert_eq!(store.timestamps()[4], SimTime::from_secs(900));
        assert_eq!(store.payloads().len(), rows.len());
        assert_eq!(store.address_count(ServiceProtocol::Ssh), 3);
        assert_eq!(store.address_count(ServiceProtocol::Snmpv3), 2);
        assert_eq!(store.address_count(ServiceProtocol::Bgp), 0);
    }

    #[test]
    fn select_filters_by_protocol_and_source() {
        let rows = sample_rows();
        let store = ObservationStore::from_observations(rows.clone());
        let ssh = store.select(Some(ProtocolTag::Ssh), None);
        assert_eq!(ssh.len(), 3);
        assert_eq!(ssh.rows(), &[0, 1, 3]);
        assert!(ssh.iter().all(|r| r.protocol() == ServiceProtocol::Ssh));
        let ssh_active = store.select_protocol(ServiceProtocol::Ssh, Some(DataSource::Active));
        assert_eq!(ssh_active.len(), 2);
        assert_eq!(
            ssh_active.to_observations(),
            vec![rows[0].clone(), rows[3].clone()]
        );
        let everything = store.select(None, None);
        assert_eq!(everything.len(), rows.len());
        assert_eq!(everything.rows(), store.view_all().rows());
        let none = store.select(Some(ProtocolTag::Bgp), None);
        assert!(none.is_empty());
        // Positional accessors resolve through the columns.
        assert_eq!(ssh.addr_id_at(2), store.addr_ids()[3]);
        assert_eq!(ssh.addr_at(0), "10.0.0.1".parse::<IpAddr>().unwrap());
        assert_eq!(ssh.asn_at(1), Some(101));
        assert_eq!(ssh.payload_at(0), &rows[0].payload);
        assert_eq!(ssh.get(1).to_observation(), rows[1]);
        assert_eq!(ssh.store().len(), store.len());
    }

    #[test]
    fn columnar_sink_matches_from_observations() {
        let rows = sample_rows();
        let mut sink = ColumnarSink::with_capacity(rows.len());
        sink.accept_all(rows.iter());
        assert_eq!(
            sink.finish(),
            ObservationStore::from_observations(rows.clone())
        );
    }

    #[test]
    fn absorbing_shards_in_order_matches_the_serial_store() {
        let rows = sample_rows();
        let serial = ObservationStore::from_observations(rows.clone());
        for chunk in [1usize, 2, 3] {
            let mut store = ObservationStore::new();
            for shard_rows in rows.chunks(chunk) {
                let mut shard = ShardColumns::new();
                assert!(shard.is_empty());
                for o in shard_rows {
                    shard.push(
                        o.addr,
                        o.port,
                        o.source,
                        o.timestamp,
                        o.asn,
                        o.payload.clone(),
                    );
                }
                assert_eq!(shard.len(), shard_rows.len());
                assert_eq!(
                    shard.last_timestamp(),
                    shard_rows.last().map(|o| o.timestamp)
                );
                store.absorb_shard(shard);
            }
            assert_eq!(store, serial, "chunk={chunk}");
        }
    }

    #[test]
    fn shard_columns_materialise_their_rows() {
        let rows = sample_rows();
        let mut shard = ShardColumns::new();
        for o in &rows {
            shard.push(
                o.addr,
                o.port,
                o.source,
                o.timestamp,
                o.asn,
                o.payload.clone(),
            );
        }
        assert_eq!(shard.into_observations(), rows);
    }

    #[test]
    fn extend_from_reinterns_the_other_id_space() {
        let left_rows = vec![
            ssh_obs("10.0.0.5", 3, DataSource::Active),
            ssh_obs("10.0.0.1", 3, DataSource::Active),
        ];
        let right_rows = sample_rows();
        let mut union = ObservationStore::from_observations(left_rows.clone());
        let right = ObservationStore::from_observations(right_rows.clone());
        union.extend_from(&right);
        let mut expected_rows = left_rows;
        expected_rows.extend(right_rows);
        assert_eq!(union.to_observations(), expected_rows);
        assert_eq!(
            union,
            ObservationStore::from_observations(union.to_observations())
        );
        // 10.0.0.1 keeps the id it got from the left store.
        assert_eq!(union.addr_id("10.0.0.1".parse().unwrap()), Some(AddrId(1)));
    }

    #[test]
    fn validate_accepts_empty_single_shard_and_grown_stores() {
        assert_eq!(ObservationStore::new().validate(), Ok(()));
        let rows = sample_rows();
        let mut shard = ShardColumns::new();
        for o in &rows {
            shard.push(
                o.addr,
                o.port,
                o.source,
                o.timestamp,
                o.asn,
                o.payload.clone(),
            );
        }
        let mut store = ObservationStore::new();
        store.absorb_shard(shard);
        assert_eq!(store.validate(), Ok(()));
        let other = ObservationStore::from_observations(rows);
        assert_eq!(other.validate(), Ok(()));
        store.extend_from(&other);
        assert_eq!(store.validate(), Ok(()));
    }

    #[test]
    fn validate_reports_column_and_tag_drift() {
        let mut store = ObservationStore::from_observations(sample_rows());
        store.ports.pop();
        let err = store.validate().unwrap_err();
        assert!(err.contains("column drift"), "{err}");

        let mut store = ObservationStore::from_observations(sample_rows());
        store.protocols[2] = ProtocolTag::Bgp;
        let err = store.validate().unwrap_err();
        assert!(err.contains("tag/payload drift at row 2"), "{err}");

        let mut store = ObservationStore::from_observations(sample_rows());
        store.addrs[0] = AddrId(u32::MAX);
        let err = store.validate().unwrap_err();
        assert!(err.contains("dangling address id at row 0"), "{err}");
    }

    #[test]
    fn observation_ref_helpers() {
        let store = ObservationStore::from_observations(sample_rows());
        let row = store.get(3);
        assert!(row.is_ipv6());
        assert!(row.is_default_port());
        assert_eq!(row.protocol(), ServiceProtocol::Ssh);
        let snmp = store.get(2);
        assert!(!snmp.is_ipv6());
        assert_eq!(snmp.addr_id, AddrId(0));
    }
}
