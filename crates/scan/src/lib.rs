//! # alias-scan
//!
//! Scanning machinery that turns the simulated Internet into measurement
//! data, mirroring the two-phase methodology of the paper:
//!
//! 1. an Internet-wide, stateless TCP SYN scan on the service ports
//!    (ZMap-style, [`zmap`]),
//! 2. a stateful application-layer scan of the responsive addresses that
//!    completes the TCP handshake and records the server's unsolicited
//!    protocol messages (ZGrab2-style, [`zgrab`]),
//!
//! plus the auxiliary data paths the paper relies on: an IPv6 hitlist
//! ([`hitlist`]), an SNMPv3 engine-discovery scan ([`snmp`]), the IPID
//! probing scheduler used by the MIDAR/Ally baselines ([`ipid_probe`]),
//! and the escalating-rate ICMP burst prober behind the rate-limiting
//! technique ([`rate_probe`]).
//!
//! The [`campaign`] module bundles all of the above into the "active
//! measurement" dataset used throughout the evaluation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod hitlist;
pub mod ipid_probe;
pub mod permute;
pub mod rate;
pub mod rate_probe;
pub mod records;
pub mod snmp;
pub mod space;
pub mod zgrab;
pub mod zmap;

pub use alias_netsim::ServiceProtocol;
pub use alias_store::{
    ObservationRef, ObservationStore, ObservationView, ProtocolTag, ShardColumns, SourceTag,
};
pub use campaign::{ActiveCampaign, CampaignConfig, CampaignData};
pub use hitlist::Ipv6Hitlist;
pub use rate_probe::{RateProbeConfig, RateProber};
pub use records::{DataSource, ServiceObservation, ServicePayload};
pub use zgrab::ZgrabScanner;
pub use zmap::{ZmapResults, ZmapScanner};
