//! Speedtrap-style IPv6 alias resolution.
//!
//! Speedtrap (Luckie et al., IMC 2013) induces fragmented IPv6 responses and
//! applies the same shared-counter reasoning to the fragment Identification
//! values that MIDAR applies to the IPv4 IPID.  The *inference* is therefore
//! identical — a monotonic bounds test over interleaved identifier samples —
//! and is implemented here over generic identifier time series.
//!
//! Substitution note (see DESIGN.md): the simulated network models the
//! device-wide counter but not IPv6 fragmentation itself, so the experiment
//! harness feeds this module counter samples collected through the generic
//! IPID probing path rather than through real fragment headers.  The
//! decision logic — which is what the paper compares against — is exercised
//! unchanged.

use crate::mbt::{monotonic_bounds_test, MbtVerdict};
use alias_core::union_find::UnionFind;
use alias_scan::ipid_probe::IpidTimeSeries;
use std::collections::BTreeSet;
use std::net::IpAddr;

/// Group IPv6 addresses whose fragment-identifier series are mutually
/// consistent with a single shared counter.
pub fn speedtrap_group(series: &[IpidTimeSeries], max_velocity: f64) -> Vec<BTreeSet<IpAddr>> {
    let usable: Vec<&IpidTimeSeries> = series.iter().filter(|s| s.is_usable()).collect();
    let mut uf = UnionFind::new(usable.len());
    for i in 0..usable.len() {
        for j in i + 1..usable.len() {
            let verdict =
                monotonic_bounds_test(&usable[i].samples, &usable[j].samples, max_velocity);
            if verdict == MbtVerdict::Consistent {
                uf.union(i, j);
            }
        }
    }
    uf.groups()
        .into_iter()
        .filter(|g| g.len() >= 2)
        .map(|g| g.into_iter().map(|i| usable[i].addr).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use alias_netsim::SimTime;
    use alias_scan::ipid_probe::IpidSample;

    fn series(addr: &str, samples: &[(u64, u16)]) -> IpidTimeSeries {
        IpidTimeSeries {
            addr: addr.parse().unwrap(),
            samples: samples
                .iter()
                .map(|&(ms, ipid)| IpidSample {
                    time: SimTime(ms),
                    ipid,
                })
                .collect(),
        }
    }

    #[test]
    fn shared_counter_v6_addresses_are_grouped() {
        // Two addresses sampled alternately from one counter, one unrelated.
        let a = series("2001:db8::1", &[(0, 100), (2_000, 110), (4_000, 121)]);
        let b = series("2001:db8::2", &[(1_000, 105), (3_000, 116), (5_000, 127)]);
        let c = series(
            "2001:db8::99",
            &[(500, 40_000), (2_500, 40_009), (4_500, 40_020)],
        );
        let groups = speedtrap_group(&[a, b, c], 100.0);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].len(), 2);
        assert!(groups[0].contains(&"2001:db8::1".parse::<IpAddr>().unwrap()));
    }

    #[test]
    fn unusable_series_are_ignored() {
        let a = series("2001:db8::1", &[(0, 1)]);
        let b = series("2001:db8::2", &[(0, 2), (1_000, 3), (2_000, 4)]);
        assert!(speedtrap_group(&[a, b], 100.0).is_empty());
        assert!(speedtrap_group(&[], 100.0).is_empty());
    }
}
