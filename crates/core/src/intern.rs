//! The interning layer the hot resolution path runs on (re-exported from
//! `alias-intern`, the bottom-layer crate, so `alias-scan` can share the
//! same id space without a dependency cycle).
//!
//! * [`AddrInterner`] — `IpAddr` ⇄ dense [`AddrId`]; a campaign interns
//!   every observed address once, and grouping + merging run on the ids.
//! * [`CompactAliasSet`] — the id-based alias set (sorted `Vec<AddrId>`);
//!   `BTreeSet<IpAddr>` is resolved only at the report/rendering boundary.
//!
//! Identifiers get no id space: grouping compares their keys directly (see
//! [`crate::alias_set::group_view_compact`]).

pub use alias_intern::{sort_canonical_compact, AddrId, AddrInterner, CompactAliasSet};
