//! Turning scan observations into protocol identifiers.

use crate::identifier::{
    BgpIdentifier, BgpIdentifierPolicy, ProtocolIdentifier, Snmpv3Identifier, SshIdentifier,
    SshIdentifierPolicy,
};
use alias_scan::{ServiceObservation, ServicePayload};
use serde::{Deserialize, Serialize};

/// Identifier policies for all protocols.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ExtractionConfig {
    /// SSH identifier policy.
    pub ssh: SshIdentifierPolicy,
    /// BGP identifier policy.
    pub bgp: BgpIdentifierPolicy,
}

impl ExtractionConfig {
    /// The paper's configuration: full identifiers for both protocols.
    pub fn paper() -> Self {
        ExtractionConfig {
            ssh: SshIdentifierPolicy::Full,
            bgp: BgpIdentifierPolicy::FullOpen,
        }
    }
}

/// Extracts [`ProtocolIdentifier`]s from observations.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdentifierExtractor {
    config: ExtractionConfig,
}

impl IdentifierExtractor {
    /// Create an extractor with the given policies.
    pub fn new(config: ExtractionConfig) -> Self {
        IdentifierExtractor { config }
    }

    /// The active configuration.
    pub fn config(&self) -> ExtractionConfig {
        self.config
    }

    /// Extract the identifier for one observation, or `None` when the
    /// observation does not carry enough material (e.g. an SSH session that
    /// never reached the host key).
    pub fn extract(&self, observation: &ServiceObservation) -> Option<ProtocolIdentifier> {
        self.extract_payload(&observation.payload)
    }

    /// Extract the identifier from a payload alone — the identifier is a
    /// pure function of the application-layer material, so consumers that
    /// read columnar storage can hand over a borrowed payload without
    /// materialising the observation row around it.
    pub fn extract_payload(&self, payload: &ServicePayload) -> Option<ProtocolIdentifier> {
        match payload {
            ServicePayload::Ssh(ssh) => {
                SshIdentifier::from_observation(ssh, self.config.ssh).map(ProtocolIdentifier::Ssh)
            }
            ServicePayload::Bgp { open, .. } => Some(ProtocolIdentifier::Bgp(
                BgpIdentifier::from_open(open, self.config.bgp),
            )),
            ServicePayload::Snmpv3 { engine_id, .. } => Some(ProtocolIdentifier::Snmpv3(
                Snmpv3Identifier::from_engine_id(engine_id),
            )),
            // Rate-limiting loss counts are correlated, not extracted:
            // the payload carries no device-wide identifier.
            ServicePayload::RateLimit { .. } => None,
        }
    }

    /// Append the key of the identifier [`extract_payload`] returns to
    /// `out`, without building it, and return whether there is one (when
    /// not, nothing is written).  Two keys are equal exactly when the two
    /// identifiers are; the encoding is described in
    /// [`identifier`](crate::identifier#identifier-keys).
    ///
    /// [`extract_payload`]: Self::extract_payload
    pub fn write_key(&self, payload: &ServicePayload, out: &mut Vec<u8>) -> bool {
        match payload {
            ServicePayload::Ssh(ssh) => SshIdentifier::write_key(ssh, self.config.ssh, out),
            ServicePayload::Bgp { open, .. } => {
                BgpIdentifier::write_key(open, self.config.bgp, out);
                true
            }
            ServicePayload::Snmpv3 { engine_id, .. } => {
                Snmpv3Identifier::write_key(engine_id, out);
                true
            }
            ServicePayload::RateLimit { .. } => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::identifier::{BgpIdentifierPolicy, SshIdentifierPolicy};
    use alias_netsim::SimTime;
    use alias_scan::DataSource;
    use alias_wire::bgp::{Capability, OpenMessage, OptionalParameter};
    use alias_wire::snmp::EngineId;
    use alias_wire::ssh::{Banner, HostKey, HostKeyAlgorithm, KexInit, NameList, SshObservation};
    use std::net::{IpAddr, Ipv4Addr};

    fn observation(payload: ServicePayload) -> ServiceObservation {
        ServiceObservation {
            addr: IpAddr::V4(Ipv4Addr::new(192, 0, 2, 10)),
            port: 22,
            source: DataSource::Active,
            timestamp: SimTime::ZERO,
            asn: Some(64_500),
            payload,
        }
    }

    #[test]
    fn extracts_all_three_protocols() {
        let extractor = IdentifierExtractor::new(ExtractionConfig::paper());
        let ssh = observation(ServicePayload::Ssh(SshObservation {
            banner: Banner::new("OpenSSH_9.2p1", None).unwrap(),
            kex_init: Some(KexInit::typical_openssh()),
            host_key: Some(HostKey::new(HostKeyAlgorithm::Ed25519, vec![5; 32])),
        }));
        let bgp = observation(ServicePayload::Bgp {
            open: OpenMessage {
                version: 4,
                my_as: 64_500,
                hold_time: 90,
                bgp_identifier: Ipv4Addr::new(10, 0, 0, 1),
                optional_parameters: vec![],
            },
            notification_seen: true,
        });
        let snmp = observation(ServicePayload::Snmpv3 {
            engine_id: EngineId::from_enterprise_mac(9, [0, 1, 2, 3, 4, 5]),
            engine_boots: 3,
            engine_time: 100,
        });
        assert_eq!(extractor.extract(&ssh).unwrap().protocol_name(), "ssh");
        assert_eq!(extractor.extract(&bgp).unwrap().protocol_name(), "bgp");
        assert_eq!(extractor.extract(&snmp).unwrap().protocol_name(), "snmpv3");
    }

    #[test]
    fn ssh_without_host_key_yields_no_identifier() {
        let extractor = IdentifierExtractor::default();
        let obs = observation(ServicePayload::Ssh(SshObservation {
            banner: Banner::new("OpenSSH_9.2p1", None).unwrap(),
            kex_init: Some(KexInit::typical_openssh()),
            host_key: None,
        }));
        assert!(extractor.extract(&obs).is_none());
    }

    #[test]
    fn default_config_is_the_paper_config() {
        assert_eq!(ExtractionConfig::default(), ExtractionConfig::paper());
    }

    #[test]
    fn write_key_appends_only_for_identified_payloads() {
        let extractor = IdentifierExtractor::default();
        let mut key = b"kept".to_vec();
        let no_key = ServicePayload::Ssh(SshObservation {
            banner: Banner::new("OpenSSH_9.2p1", None).unwrap(),
            kex_init: Some(KexInit::typical_openssh()),
            host_key: None,
        });
        assert!(!extractor.write_key(&no_key, &mut key));
        let rate = ServicePayload::RateLimit {
            round: 0,
            rate_pps: 100,
            sent: 10,
            lost: 1,
        };
        assert!(!extractor.write_key(&rate, &mut key));
        assert_eq!(key, b"kept");
        assert!(extractor.write_key(&ssh_payload(1, 1, 1), &mut key));
        assert!(key.starts_with(b"kept") && key.len() > 4);
    }

    /// Banners, some of which render the same line from different parts:
    /// the software/comment split of `SSH-2.0-A B C`, and the
    /// protocol/software split of `SSH-2.0-A-B`.
    fn banner(index: u8) -> Banner {
        let (proto, software, comments) = match index {
            0 => ("2.0", "A", None),
            1 => ("2.0", "A", Some("B C")),
            2 => ("2.0", "A B", Some("C")),
            3 => ("2.0", "A", Some("")),
            4 => ("2.0-A", "B", None),
            5 => ("2.0", "A-B", None),
            _ => ("1.99", "A", None),
        };
        Banner {
            proto_version: proto.to_owned(),
            software: software.to_owned(),
            comments: comments.map(str::to_owned),
        }
    }

    /// KEXINITs, including a missing one, names containing `;` that shift
    /// the list boundaries of the fingerprint, an empty one, and ones that
    /// differ only where the fingerprint does not look.
    fn kex_init(index: u8) -> Option<KexInit> {
        let mut kex = KexInit::typical_openssh();
        let empty = |kex: &mut KexInit| {
            for list in [
                &mut kex.kex_algorithms,
                &mut kex.server_host_key_algorithms,
                &mut kex.encryption_server_to_client,
                &mut kex.mac_server_to_client,
                &mut kex.compression_server_to_client,
            ] {
                *list = NameList::default();
            }
        };
        match index {
            0 => return None,
            1 => {}
            2 => kex.cookie = [7; 16],
            3 => kex.encryption_client_to_server = NameList::new(["aes128-ctr"]),
            4 => {
                empty(&mut kex);
                kex.kex_algorithms = NameList::new(["a;b"]);
                kex.server_host_key_algorithms = NameList::new(["c"]);
            }
            5 => {
                empty(&mut kex);
                kex.kex_algorithms = NameList::new(["a"]);
                kex.server_host_key_algorithms = NameList::new(["b;c"]);
            }
            6 => {
                empty(&mut kex);
                kex.kex_algorithms = NameList::new(["a", "b"]);
            }
            _ => empty(&mut kex),
        }
        Some(kex)
    }

    /// Host keys, including a missing one, equal material (so equal hex)
    /// under different algorithms, and empty material.
    fn host_key(index: u8) -> Option<HostKey> {
        let (algorithm, material) = match index {
            0 => return None,
            1 => (HostKeyAlgorithm::Ed25519, vec![1; 32]),
            2 => (HostKeyAlgorithm::Rsa, vec![1; 32]),
            3 => (HostKeyAlgorithm::Ed25519, vec![1; 31]),
            4 => (HostKeyAlgorithm::Ed25519, Vec::new()),
            _ => (HostKeyAlgorithm::Dsa, vec![0x11]),
        };
        Some(HostKey::new(algorithm, material))
    }

    fn ssh_payload(b: u8, k: u8, h: u8) -> ServicePayload {
        ServicePayload::Ssh(SshObservation {
            banner: banner(b),
            kex_init: kex_init(k),
            host_key: host_key(h),
        })
    }

    /// OPEN messages whose fields coincide in various ways; parameter sets
    /// 1 and 2 render the same capability text.
    fn bgp_payload(id: u8, my_as: u8, hold: u8, params: u8) -> ServicePayload {
        let optional_parameters = match params {
            0 => vec![],
            1 => vec![OptionalParameter::Capability(Capability::RouteRefresh)],
            2 => vec![OptionalParameter::Capability(Capability::Other {
                code: 2,
                value: vec![],
            })],
            3 => vec![OptionalParameter::Capability(Capability::FourOctetAs {
                asn: 64_500,
            })],
            4 => vec![OptionalParameter::Other {
                param_type: 9,
                value: vec![0, 15],
            }],
            _ => vec![
                OptionalParameter::Capability(Capability::RouteRefresh),
                OptionalParameter::Capability(Capability::RouteRefreshCisco),
            ],
        };
        ServicePayload::Bgp {
            open: OpenMessage {
                version: 4,
                my_as: [64_500, 23_456][my_as as usize % 2],
                hold_time: [90, 180][hold as usize % 2],
                bgp_identifier: Ipv4Addr::new(10, 0, 0, id),
                optional_parameters,
            },
            notification_seen: id.is_multiple_of(2),
        }
    }

    fn snmp_payload(engine: u8) -> ServicePayload {
        let engine_id = match engine {
            0 => EngineId(vec![1, 2, 3]),
            1 => EngineId(vec![1, 2, 3, 0]),
            2 => EngineId(Vec::new()),
            _ => EngineId::from_enterprise_mac(9, [1, 2, 3, 4, 5, engine]),
        };
        ServicePayload::Snmpv3 {
            engine_id,
            engine_boots: engine as i64,
            engine_time: 60,
        }
    }

    fn payload(raw: (u8, u8, u8, u8, u8)) -> ServicePayload {
        let (protocol, a, b, c, d) = raw;
        match protocol % 4 {
            0 | 1 => ssh_payload(a % 7, b % 8, c % 6),
            2 => bgp_payload(a % 2, b, c, d % 6),
            _ => snmp_payload(a % 5),
        }
    }

    proptest::proptest! {
        // For every policy pair, over batches drawn from small pools so
        // that equal and near-equal identifiers are common: a payload has a
        // key exactly when it has an identifier, and two keys are equal
        // exactly when the two identifiers are.
        #[test]
        fn keys_are_equal_exactly_when_identifiers_are(
            raw in proptest::collection::vec((0u8..4, 0u8..8, 0u8..8, 0u8..8, 0u8..8), 1..24),
        ) {
            let payloads: Vec<ServicePayload> = raw.into_iter().map(payload).collect();
            for ssh in [
                SshIdentifierPolicy::KeyOnly,
                SshIdentifierPolicy::KeyAndCapabilities,
                SshIdentifierPolicy::Full,
            ] {
                for bgp in [BgpIdentifierPolicy::IdentifierOnly, BgpIdentifierPolicy::FullOpen] {
                    let extractor = IdentifierExtractor::new(ExtractionConfig { ssh, bgp });
                    let keyed: Vec<(Option<ProtocolIdentifier>, Option<Vec<u8>>)> = payloads
                        .iter()
                        .map(|p| {
                            let mut key = Vec::new();
                            let written = extractor.write_key(p, &mut key);
                            (extractor.extract_payload(p), written.then_some(key))
                        })
                        .collect();
                    for (identifier, key) in &keyed {
                        proptest::prop_assert_eq!(identifier.is_some(), key.is_some());
                    }
                    for (a_id, a_key) in &keyed {
                        for (b_id, b_key) in &keyed {
                            proptest::prop_assert_eq!(a_id == b_id, a_key == b_key);
                        }
                    }
                }
            }
        }
    }
}
