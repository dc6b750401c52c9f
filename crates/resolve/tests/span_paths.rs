//! The span paths a resolver run records match the catalogue in
//! docs/OBSERVABILITY.md: every stage names itself relative to its parent,
//! so each path segment appears once.
//!
//! This file holds a single test so the process-global registry sees only
//! the spans of the run under test.

use alias_netsim::{InternetBuilder, InternetConfig};
use alias_resolve::Resolver;
use alias_scan::campaign::CampaignConfig;
use alias_scan::RateProbeConfig;
use std::collections::BTreeSet;

#[test]
fn resolver_records_each_stage_once_under_its_parent() {
    let mut config = InternetConfig::tiny(11);
    config.devices.silent_routers = 4;
    let internet = InternetBuilder::new(config).build();
    let resolver = Resolver::builder()
        .all_techniques()
        .campaign(CampaignConfig {
            rate_probe: Some(RateProbeConfig::default()),
            ..Default::default()
        })
        .threads(2)
        .build();

    alias_obs::registry().reset();
    resolver.resolve(&internet);
    let spans = alias_obs::registry().snapshot().spans;
    for span in &spans {
        assert_eq!(span.count, 1, "{} entered more than once", span.path);
    }
    let recorded: BTreeSet<String> = spans.into_iter().map(|s| s.path).collect();

    let mut expected: BTreeSet<String> = ["resolve", "resolve/campaign", "resolve/merge"]
        .into_iter()
        .map(str::to_owned)
        .collect();
    for phase in ["syn_v4", "grab_v4", "snmp_v4", "ipv6", "rate_probe"] {
        expected.insert(format!("resolve/campaign/{phase}"));
    }
    for technique in resolver.technique_names() {
        expected.insert(format!("resolve/technique/{technique}"));
    }
    assert_eq!(recorded, expected);
    for path in &recorded {
        let segments: Vec<&str> = path.split('/').collect();
        assert!(
            segments.windows(2).all(|w| w[0] != w[1]),
            "{path} repeats a segment"
        );
    }
}
