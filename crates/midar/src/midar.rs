//! A MIDAR-style alias-resolution pipeline.
//!
//! MIDAR (Keys et al., ToN 2013) scales IPID-based alias resolution to the
//! whole Internet with a staged design.  This implementation follows the
//! same structure at simulator scale:
//!
//! 1. **Estimation** — sample every target's IPID over several rounds and
//!    estimate its counter velocity; discard targets whose counters are
//!    random, constant, or too fast to track (this is where most targets are
//!    lost, and why the paper's MIDAR run could verify only 13% of sampled
//!    sets).
//! 2. **Discovery** — order the usable targets by velocity and run the
//!    Monotonic Bounds Test on the estimation-stage time series of nearby
//!    pairs (a sliding window, like MIDAR's).
//! 3. **Elimination / corroboration** — re-probe every surviving candidate
//!    pair with tightly interleaved probes and keep only pairs whose merged
//!    sequence still passes the MBT.
//!
//! Confirmed pairs are merged into alias sets with union–find.

use crate::mbt::{monotonic_bounds_test, MbtVerdict};
use crate::velocity::{estimate_velocity, VelocityEstimate};
use alias_netsim::{Internet, SimTime, VantageKind};
use alias_scan::ipid_probe::{IpidProber, IpidProberConfig, IpidTimeSeries};
use std::collections::{BTreeSet, HashMap};
use std::net::IpAddr;

/// Configuration of a MIDAR run.
#[derive(Debug, Clone)]
pub struct MidarConfig {
    /// Estimation-stage rounds per target.
    pub estimation_rounds: usize,
    /// Spacing between estimation rounds.
    pub round_spacing: SimTime,
    /// Probe rate in packets per second.
    pub rate_pps: f64,
    /// Highest counter velocity (increments/second) considered testable.
    pub max_velocity: f64,
    /// Width of the discovery-stage sliding window over velocity-sorted
    /// targets.
    pub discovery_window: usize,
    /// Probes per address in the elimination stage.
    pub elimination_probes: usize,
    /// Vantage point the probes originate from.
    pub vantage: VantageKind,
}

impl Default for MidarConfig {
    fn default() -> Self {
        MidarConfig {
            estimation_rounds: 12,
            round_spacing: SimTime::from_secs(10),
            rate_pps: 5_000.0,
            max_velocity: 1_500.0,
            discovery_window: 24,
            elimination_probes: 6,
            vantage: VantageKind::SingleVp,
        }
    }
}

/// Result of a MIDAR run.
#[derive(Debug, Clone)]
pub struct MidarOutcome {
    /// Inferred alias sets (two or more addresses each).
    pub alias_sets: Vec<BTreeSet<IpAddr>>,
    /// Addresses whose IPID counters were usable at all.
    pub testable: BTreeSet<IpAddr>,
    /// Addresses discarded during estimation (unresponsive or unusable).
    pub discarded: usize,
    /// Simulated time the run finished (MIDAR runs take long; the paper's
    /// took three weeks, long enough for churn to matter).
    pub finished_at: SimTime,
}

/// The MIDAR pipeline.
#[derive(Debug, Clone, Default)]
pub struct Midar {
    config: MidarConfig,
}

impl Midar {
    /// Create a pipeline with the given configuration.
    pub fn new(config: MidarConfig) -> Self {
        Midar { config }
    }

    /// Run the pipeline over `targets`.
    pub fn resolve(&self, internet: &Internet, targets: &[IpAddr], start: SimTime) -> MidarOutcome {
        let cfg = &self.config;

        // Stage 1: estimation.
        let prober = IpidProber::new(IpidProberConfig {
            rounds: cfg.estimation_rounds,
            round_spacing: cfg.round_spacing,
            rate_pps: cfg.rate_pps,
        });
        let series = prober.collect_round_robin(internet, targets, cfg.vantage, start);
        let mut finished_at = series
            .iter()
            .flat_map(|s| s.samples.last().map(|x| x.time))
            .max()
            .unwrap_or(start);

        let mut usable: Vec<(IpAddr, f64, &IpidTimeSeries)> = Vec::new();
        let mut discarded = 0usize;
        for s in &series {
            match estimate_velocity(s, cfg.max_velocity) {
                VelocityEstimate::Monotonic { velocity } if velocity <= cfg.max_velocity => {
                    usable.push((s.addr, velocity, s));
                }
                _ => discarded += 1,
            }
        }
        let testable: BTreeSet<IpAddr> = usable.iter().map(|(a, _, _)| *a).collect();

        // Stage 2: discovery over a velocity-sorted sliding window.
        usable.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("velocities are finite"));
        let index_of: HashMap<IpAddr, usize> = usable
            .iter()
            .enumerate()
            .map(|(i, (a, _, _))| (*a, i))
            .collect();
        let mut candidates: Vec<(IpAddr, IpAddr)> = Vec::new();
        for i in 0..usable.len() {
            let window_end = (i + cfg.discovery_window).min(usable.len());
            for j in i + 1..window_end {
                let verdict = monotonic_bounds_test(
                    &usable[i].2.samples,
                    &usable[j].2.samples,
                    cfg.max_velocity,
                );
                if verdict == MbtVerdict::Consistent {
                    candidates.push((usable[i].0, usable[j].0));
                }
            }
        }

        // Stage 3: elimination / corroboration with interleaved probing.
        let pair_prober = IpidProber::new(IpidProberConfig {
            rounds: 1,
            round_spacing: SimTime::ZERO,
            rate_pps: cfg.rate_pps,
        });
        let mut union = alias_core::union_find::UnionFind::new(usable.len());
        let mut now = finished_at;
        for (a, b) in candidates {
            now += SimTime(200);
            let (sa, sb, _) = pair_prober.collect_interleaved_pair(
                internet,
                a,
                b,
                cfg.elimination_probes,
                cfg.vantage,
                now,
            );
            if let Some(last) = sa.samples.last().or(sb.samples.last()) {
                finished_at = finished_at.max(last.time);
            }
            let verdict = monotonic_bounds_test(&sa.samples, &sb.samples, cfg.max_velocity);
            if verdict == MbtVerdict::Consistent {
                union.union(index_of[&a], index_of[&b]);
            }
        }

        let alias_sets: Vec<BTreeSet<IpAddr>> = union
            .groups()
            .into_iter()
            .filter(|g| g.len() >= 2)
            .map(|g| g.into_iter().map(|i| usable[i].0).collect())
            .collect();

        MidarOutcome {
            alias_sets,
            testable,
            discarded,
            finished_at: finished_at.max(now),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alias_netsim::{InternetBuilder, InternetConfig};

    fn internet() -> Internet {
        InternetBuilder::new(InternetConfig::tiny(1212)).build()
    }

    /// Targets: all IPv4 addresses of pingable multi-address devices.
    fn targets(internet: &Internet) -> Vec<IpAddr> {
        internet
            .devices()
            .iter()
            .filter(|d| d.responds_to_ping && d.ipv4_addrs().len() >= 2)
            .flat_map(|d| d.ipv4_addrs().into_iter().map(IpAddr::V4))
            .collect()
    }

    #[test]
    fn midar_finds_only_true_aliases() {
        let internet = internet();
        let targets = targets(&internet);
        assert!(!targets.is_empty());
        let outcome = Midar::default().resolve(&internet, &targets, SimTime::ZERO);
        let truth = internet.ground_truth();
        // Every inferred pair must be a true alias pair (MIDAR is precise on
        // devices it can test).
        for set in &outcome.alias_sets {
            let members: Vec<IpAddr> = set.iter().copied().collect();
            for i in 0..members.len() {
                for j in i + 1..members.len() {
                    assert!(
                        truth.are_aliases(members[i], members[j]),
                        "false alias {:?} / {:?}",
                        members[i],
                        members[j]
                    );
                }
            }
        }
    }

    #[test]
    fn midar_coverage_is_partial() {
        // Most devices do not expose a usable shared counter, so MIDAR tests
        // far fewer addresses than it was given — the effect behind the 13%
        // verification rate in the paper.
        let internet = internet();
        let targets = targets(&internet);
        let outcome = Midar::default().resolve(&internet, &targets, SimTime::ZERO);
        assert!(outcome.testable.len() < targets.len());
        assert!(outcome.discarded > 0);
        assert_eq!(outcome.discarded + outcome.testable.len(), targets.len());
    }

    #[test]
    fn midar_recovers_some_shared_counter_devices() {
        let internet = internet();
        // Restrict the run to devices we know are testable, so the test is
        // deterministic: low-velocity shared counters that answer ping.
        let good_targets: Vec<IpAddr> = internet
            .devices()
            .iter()
            .filter(|d| {
                d.responds_to_ping
                    && d.ipv4_addrs().len() >= 2
                    && d.ipid.lock().model().is_shared_monotonic()
                    && d.ipid.lock().model().velocity().unwrap_or(f64::MAX) < 300.0
            })
            .flat_map(|d| d.ipv4_addrs().into_iter().map(IpAddr::V4))
            .collect();
        if good_targets.len() < 2 {
            return;
        }
        let outcome = Midar::default().resolve(&internet, &good_targets, SimTime::ZERO);
        assert!(
            !outcome.alias_sets.is_empty(),
            "expected at least one alias set from {} testable addrs",
            outcome.testable.len()
        );
    }

    #[test]
    fn empty_target_list_is_fine() {
        let internet = internet();
        let outcome = Midar::default().resolve(&internet, &[], SimTime::ZERO);
        assert!(outcome.alias_sets.is_empty());
        assert!(outcome.testable.is_empty());
        assert_eq!(outcome.discarded, 0);
    }
}
