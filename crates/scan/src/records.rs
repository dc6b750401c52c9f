//! Observation records produced by the scanners.
//!
//! The record types moved to `alias-store` (one layer down) when
//! observation storage went columnar — the row type and the payload enum
//! live next to the [`ObservationStore`](alias_store::ObservationStore)
//! now.  This module re-exports them so every existing
//! `alias_scan::records::...` (and root-level `alias_scan::...`) import
//! keeps working.

pub use alias_store::records::{parse_payload, DataSource, ServiceObservation, ServicePayload};
