//! The three workloads, run exactly as a user runs them: seed in, rendered
//! output out, through the program's public entry points only.

use alias_bench::{render_document, Experiment, RateLimitStudy};
use alias_censys::{CensysConfig, CensysSnapshot};
use alias_core::merge::MergedSet;
use alias_netsim::{GroundTruth, Internet, InternetBuilder, InternetConfig, ScalePreset, SimTime};
use alias_resolve::{ResolutionReport, Resolver};
use alias_scan::{CampaignData, ObservationStore};
use std::fmt::Write as _;
use std::net::IpAddr;

/// Worker threads every timed run uses (the measuring box has two cores).
pub const THREADS: usize = 2;

/// The seed whose rendered outputs are pinned in `reference.txt`.
pub const DEFAULT_SEED: u64 = 20230418;

/// Silent routers the rate-limiting study adds to the paper preset.
pub const SILENT_ROUTERS: usize = 300;

/// Days of churn between the Censys snapshot and the active campaign.
pub const CHURN_DAYS: u64 = 21;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper preset: `Experiment::run_with_threads` + `render_document`.
    PaperActive,
    /// Paper preset plus silent routers: `RateLimitStudy::run` + `render`.
    SilentProbing,
    /// `large` preset, Censys snapshot only, paper techniques.
    PassiveLarge,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PaperActive,
        Workload::SilentProbing,
        Workload::PassiveLarge,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperActive => "paper-active",
            Workload::SilentProbing => "silent-probing",
            Workload::PassiveLarge => "passive-large",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn preset(self) -> ScalePreset {
        match self {
            Workload::PassiveLarge => ScalePreset::Large,
            _ => ScalePreset::PaperShape,
        }
    }

    /// The Internet configuration the workload's program run builds.
    pub fn config(self, seed: u64) -> InternetConfig {
        let mut config = InternetConfig::preset(self.preset(), seed);
        if self == Workload::SilentProbing {
            config.devices.silent_routers = SILENT_ROUTERS;
        }
        config
    }

    /// Whether the workload's program run churns the Internet before its
    /// active campaign (the passive workload reads a day-0 snapshot only).
    pub fn churns(self) -> bool {
        self != Workload::PassiveLarge
    }
}

/// The workload's set-up: the Internet build plus churn, the same state
/// the program run builds for itself.
pub fn setup(workload: Workload, seed: u64) -> Internet {
    let mut internet = InternetBuilder::new(workload.config(seed)).build();
    if workload.churns() {
        internet.apply_churn(SimTime::ZERO, SimTime::from_days(CHURN_DAYS));
    }
    internet
}

/// The Censys collection every workload that reads a snapshot uses.
pub fn censys_config(seed: u64) -> CensysConfig {
    CensysConfig {
        snapshot_time: SimTime::ZERO,
        seed,
        ..Default::default()
    }
}

/// What one workload run produced.
pub struct Outcome {
    /// The rendered output; two runs agree when these bytes agree.
    pub text: String,
    /// Distinct addresses in the workload's observation store.
    pub addrs: usize,
    /// The report's merged alias sets, scored against ground truth.
    pub merged: Vec<MergedSet>,
    /// The Internet the run measured, when the run keeps it (scoring
    /// needs its ground truth).
    pub internet: Option<Internet>,
}

impl Outcome {
    /// Pairwise precision and recall of the merged sets.
    pub fn score(&self, truth: &GroundTruth) -> (f64, f64) {
        let score = truth.score_sets(self.merged.iter().map(|m| m.addrs.iter()));
        (score.precision(), score.recall())
    }
}

/// Run one workload from its seed to its rendered output.
pub fn run(workload: Workload, seed: u64, threads: usize) -> Outcome {
    match workload {
        Workload::PaperActive => {
            let exp = Experiment::run_with_threads(ScalePreset::PaperShape, seed, threads);
            let mut text = render_document(&exp, ScalePreset::PaperShape);
            text.push_str(&merged_digest_line(&exp.resolution.merged));
            Outcome {
                text,
                addrs: exp.union.interner().len(),
                merged: exp.resolution.merged,
                internet: Some(exp.internet),
            }
        }
        Workload::SilentProbing => {
            let study = RateLimitStudy::run(ScalePreset::PaperShape, seed, threads);
            let mut text = study.render();
            text.push_str(&merged_digest_line(&study.report.merged));
            Outcome {
                text,
                addrs: campaign_addrs(&study.report),
                merged: study.report.merged,
                internet: None,
            }
        }
        Workload::PassiveLarge => {
            let internet = setup(workload, seed);
            let snapshot = CensysSnapshot::collect(&internet, censys_config(seed));
            let store = ObservationStore::from_observations(snapshot.default_port_observations());
            drop(snapshot);
            let data = CampaignData::from_store(store);
            let report = Resolver::builder()
                .paper_techniques()
                .threads(threads)
                .build()
                .resolve_data(&internet, &data);
            Outcome {
                text: render_report(&report),
                addrs: data.interner().len(),
                merged: report.merged,
                internet: Some(internet),
            }
        }
    }
}

fn campaign_addrs(report: &ResolutionReport) -> usize {
    report
        .campaign
        .as_ref()
        .map_or(0, |data| data.interner().len())
}

/// The passive workload's output: per-technique coverage, pairwise
/// agreement and the merged sets (as a digest: at `large` scale they hold
/// over a million addresses).
pub fn render_report(report: &ResolutionReport) -> String {
    let mut out = String::from("Passive resolution report\n");
    for c in &report.coverage.per_technique {
        writeln!(
            out,
            "technique {}: sets {} covered {} testable {}",
            c.technique, c.alias_sets, c.covered_addresses, c.testable_addresses
        )
        .expect("writing to a String cannot fail");
    }
    for a in &report.coverage.agreements {
        writeln!(
            out,
            "agreement {}-{}: sample {} agree {} disagree {}",
            a.a, a.b, a.result.sample_size, a.result.agree, a.result.disagree
        )
        .expect("writing to a String cannot fail");
    }
    writeln!(
        out,
        "merged: {} sets over {} addresses",
        report.coverage.merged_sets, report.coverage.merged_addresses
    )
    .expect("writing to a String cannot fail");
    out.push_str(&merged_digest_line(&report.merged));
    out
}

/// One line pinning every merged set (members and labels) by digest.
pub fn merged_digest_line(merged: &[MergedSet]) -> String {
    let mut hash = Fnv::new();
    for set in merged {
        for addr in &set.addrs {
            match addr {
                IpAddr::V4(v4) => hash.write(&v4.octets()),
                IpAddr::V6(v6) => hash.write(&v6.octets()),
            }
        }
        for label in &set.labels {
            hash.write(label.as_bytes());
            hash.write(&[0]);
        }
        hash.write(&[0xff]);
    }
    format!("merged-sets digest: {:016x}\n", hash.finish())
}

/// FNV-1a, 64 bit: enough to pin outputs against accidental change.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of a rendered output, as `reference.txt` records it.
pub fn digest(text: &str) -> String {
    let mut hash = Fnv::new();
    hash.write(text.as_bytes());
    format!("{:016x}-{}", hash.finish(), text.len())
}
