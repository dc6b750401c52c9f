//! The traced run: per-layer metrics from benchmark-side spans around the
//! program's public calls.
//!
//! Each workload is replayed as a sequence of public calls, each inside a
//! span named `<layer>.<step>` (layer names are crate names).  Spans whose
//! name starts with `replica.` hold reproductions that exist only to split
//! a call the program makes in one piece (the campaign's scanner phases,
//! Censys session synthesis vs parsing); their results must equal the
//! program's, or the run fails.  The replay runs at 1 and at 2 threads;
//! per-layer times come from the 2-thread pass, scaling from the pair.

use crate::check::{self, Checks};
use crate::workload::{self, Workload, CHURN_DAYS, DEFAULT_SEED, THREADS};
use crate::{metric, proc_stats, Metric};
use alias_bench::{
    figure3, figure4, figure5, figure6, stats, table1, table2, table3, table4, table5, table6,
    Experiment, RateLimitStudy,
};
use alias_censys::{CensysConfig, CensysSnapshot};
use alias_core::alias_set::AliasSetCollection;
use alias_core::extract::{ExtractionConfig, IdentifierExtractor};
use alias_core::intern::{AddrId, CompactAliasSet};
use alias_core::merge::{merge_labeled_compact, MergedSet};
use alias_core::validation::{common_ids, cross_validate};
use alias_netsim::{
    DeviceKind, Internet, InternetBuilder, ProbeContext, ScalePreset, ServiceProtocol, SimTime,
    VantageKind,
};
use alias_obs::DeterminismClass;
use alias_resolve::{
    AllyTechnique, CoverageStats, IdentifierTechnique, IffinderTechnique, MidarTechnique,
    RateLimitTechnique, ResolutionReport, ResolutionTechnique, SpeedtrapTechnique, StageTimings,
    TechniqueAgreement, TechniqueCoverage, TechniqueCtx, TechniqueResult,
};
use alias_scan::campaign::{ActiveCampaign, CampaignConfig};
use alias_scan::snmp::{SnmpScanConfig, SnmpScanner};
use alias_scan::zgrab::{parse_payload, ZgrabConfig};
use alias_scan::zmap::ZmapConfig;
use alias_scan::{
    CampaignData, DataSource, Ipv6Hitlist, ObservationStore, RateProbeConfig, RateProber,
    ShardColumns, ZgrabScanner, ZmapScanner,
};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::net::IpAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Layers, by crate name, whose self time the scaling metrics compare.
const LAYERS: [&str; 8] = [
    "netsim", "wire", "censys", "store", "scan", "resolve", "core", "bench",
];

/// The deterministic alias-obs counters reported as work counts.
const WORK_COUNTERS: [&str; 6] = [
    "scan.probes_emitted",
    "scan.responsive_pairs",
    "store.rows_absorbed",
    "merge.merged_sets",
    "resolve.rate_candidate_pairs",
    "resolve.rate_joint_alias_verdicts",
];

/// The document sections `render_document` assembles, in its order.
type Section = (&'static str, &'static str, fn(&Experiment) -> String);
const SECTIONS: [Section; 11] = [
    ("table1", "Table 1", table1),
    ("table2", "Table 2", table2),
    ("table3", "Table 3", table3),
    ("table4", "Table 4", table4),
    ("table5", "Table 5", table5),
    ("table6", "Table 6", table6),
    ("figure3", "Figure 3", figure3),
    ("figure4", "Figure 4", figure4),
    ("figure5", "Figure 5", figure5),
    ("figure6", "Figure 6", figure6),
    ("stats", "Narrative statistics", stats),
];

/// Render spans every workload may report (`bench.render_ms.<section>`).
const RENDERS: [&str; 13] = [
    "table1", "table2", "table3", "table4", "table5", "table6", "figure3", "figure4", "figure5",
    "figure6", "stats", "study", "report",
];

struct Span {
    name: String,
    parent: Option<usize>,
    dur: Duration,
}

/// In-memory span recorder.  Root spans not named `replica.*` are the
/// workload's own path; the deterministic counters are read around them.
#[derive(Default)]
pub struct Tracer {
    spans: Vec<Span>,
    stack: Vec<usize>,
    counts: BTreeMap<String, f64>,
    work: BTreeMap<&'static str, u64>,
    /// Time spent reading counters around root spans, outside every span.
    counter_reads: Duration,
}

impl Tracer {
    fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let on_path = self.stack.is_empty() && !name.starts_with("replica.");
        let before = on_path.then(|| self.read_counters());
        let index = self.spans.len();
        self.spans.push(Span {
            name: name.to_owned(),
            parent: self.stack.last().copied(),
            dur: Duration::ZERO,
        });
        self.stack.push(index);
        let start = Instant::now();
        let result = f(self);
        self.spans[index].dur = start.elapsed();
        self.stack.pop();
        if let Some(before) = before {
            for (name, value) in self.read_counters() {
                *self.work.entry(name).or_default() += value - before.get(name).unwrap_or(&0);
            }
        }
        result
    }

    /// The deterministic counters, the read timed as tracing overhead.
    fn read_counters(&mut self) -> BTreeMap<&'static str, u64> {
        let start = Instant::now();
        let counters = deterministic_counters();
        if self.stack.is_empty() {
            self.counter_reads += start.elapsed();
        }
        counters
    }

    /// Record time accumulated over many calls as one child span.
    fn record(&mut self, name: &str, dur: Duration) {
        self.spans.push(Span {
            name: name.to_owned(),
            parent: self.stack.last().copied(),
            dur,
        });
    }

    fn count(&mut self, name: &str, value: f64) {
        *self.counts.entry(name.to_owned()).or_default() += value;
    }

    /// Total milliseconds of every span named `name`.
    fn ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur.as_secs_f64() * 1e3)
            .sum()
    }

    fn self_ms(&self, index: usize) -> f64 {
        let children: Duration = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(index))
            .map(|s| s.dur)
            .sum();
        self.spans[index].dur.saturating_sub(children).as_secs_f64() * 1e3
    }

    /// Self time per layer, the layer being the span name up to its first
    /// dot.
    fn layer_self_ms(&self) -> BTreeMap<&str, f64> {
        let mut layers = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            let layer = span.name.split('.').next().unwrap_or(&span.name);
            *layers.entry(layer).or_default() += self.self_ms(i);
        }
        layers
    }

    fn roots(&self) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(|s| s.parent.is_none())
    }

    /// Time inside root spans plus the tracer's own counter reads.
    fn accounted_ms(&self) -> f64 {
        self.roots().map(|s| s.dur.as_secs_f64() * 1e3).sum::<f64>()
            + self.counter_reads.as_secs_f64() * 1e3
    }

    fn path_ms(&self) -> f64 {
        self.roots()
            .filter(|s| !s.name.starts_with("replica."))
            .map(|s| s.dur.as_secs_f64() * 1e3)
            .sum()
    }
}

fn deterministic_counters() -> BTreeMap<&'static str, u64> {
    alias_obs::registry()
        .snapshot()
        .counters
        .iter()
        .filter(|c| c.class == DeterminismClass::Deterministic)
        .map(|c| (c.name, c.value))
        .collect()
}

/// One traced replay at one thread count.
struct Pass {
    threads: usize,
    tracer: Tracer,
    wall_ms: f64,
}

impl Pass {
    /// Wall-clock not covered by a root span or the tracer's own reads.
    fn unattributed_ms(&self) -> f64 {
        self.wall_ms - self.tracer.accounted_ms()
    }

    /// The workload's path under tracing against the untraced run.
    fn overhead_pct(&self, untraced_ms: f64) -> f64 {
        (self.tracer.path_ms() - untraced_ms) / untraced_ms * 100.0
    }
}

/// The traced run of `workload`: the traced replay at 1 and at `THREADS`
/// threads, then one untraced run, whose output both replays must render.
pub fn run(workload: Workload, seed: u64, checks: &mut Checks) -> Vec<Metric> {
    let (passes, texts): (Vec<Pass>, Vec<String>) = [1, THREADS]
        .into_iter()
        .map(|threads| {
            let mut tracer = Tracer::default();
            let start = Instant::now();
            let text = match workload {
                Workload::PaperActive => paper_active(&mut tracer, seed, threads, checks),
                Workload::SilentProbing => silent_probing(&mut tracer, seed, threads, checks),
                Workload::PassiveLarge => passive_large(&mut tracer, seed, threads, checks),
            };
            let wall_ms = start.elapsed().as_secs_f64() * 1e3;
            let pass = Pass {
                threads,
                tracer,
                wall_ms,
            };
            (pass, text)
        })
        .unzip();

    // The untraced run comes last, so that it and the traced passes both
    // run in a warmed-up process.
    let cpu_before = proc_stats::cpu_seconds();
    let start = Instant::now();
    let reference = workload::run(workload, seed, THREADS).text;
    let ref_wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let ref_cpu_s = proc_stats::cpu_seconds() - cpu_before;
    if seed == DEFAULT_SEED {
        checks.record(
            "output matches the reference digest",
            check::reference_digest(workload) == Some(workload::digest(&reference).as_str()),
        );
    }
    for (pass, text) in passes.iter().zip(&texts) {
        // The paper document's header is not produced by any traced call,
        // so the replay reproduces everything after it.
        checks.record(
            "traced replay renders the untraced output",
            !text.is_empty() && reference.ends_with(text.as_str()),
        );
        checks.record(
            "a perturbed replay output is rejected",
            !reference.ends_with(check::perturb(text).as_str()),
        );
        print_pass(workload, pass, ref_wall_ms);
    }
    let (serial, parallel) = (&passes[0], &passes[1]);
    checks.record(
        "deterministic counters agree at 1 and 2 threads",
        serial.tracer.work == parallel.tracer.work,
    );
    for (name, value) in &parallel.tracer.work {
        if serial.tracer.work.get(name) != Some(value) {
            eprintln!(
                "perfbench: counter {name}: {value} at {} threads, {:?} serially",
                parallel.threads,
                serial.tracer.work.get(name)
            );
        }
    }

    let mut metrics = layer_metrics(&parallel.tracer);
    let serial_layers = serial.tracer.layer_self_ms();
    let parallel_layers = parallel.tracer.layer_self_ms();
    for layer in LAYERS {
        let ratio = match (serial_layers.get(layer), parallel_layers.get(layer)) {
            (Some(&a), Some(&b)) if b > 0.0 => a / b,
            _ => 0.0,
        };
        metrics.push(metric(format!("{layer}.scaling_x"), ratio, "x"));
    }
    metrics.push(metric(
        "exec.cpu_util",
        ref_cpu_s / (ref_wall_ms / 1e3 * THREADS as f64),
        "ratio",
    ));
    metrics.push(metric(
        "trace.unattributed_ms",
        parallel.unattributed_ms(),
        "ms",
    ));
    metrics.push(metric(
        "trace.overhead_pct",
        parallel.overhead_pct(ref_wall_ms),
        "%",
    ));
    for name in WORK_COUNTERS {
        let value = parallel.tracer.work.get(name).copied().unwrap_or(0);
        metrics.push(metric(name, value as f64, "count"));
    }
    metrics
}

/// The per-layer timings and counts of one pass, every metric present
/// (0 where the workload does not reach the layer).
fn layer_metrics(tr: &Tracer) -> Vec<Metric> {
    let count = |name: &str| tr.counts.get(name).copied().unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mut out = vec![
        metric(
            "netsim.build_ms",
            tr.ms("netsim.build") + tr.ms("netsim.churn"),
            "ms",
        ),
        metric("netsim.session_ms", tr.ms("netsim.session"), "ms"),
        metric("netsim.sessions", count("netsim.sessions"), "count"),
        metric("wire.parse_ms", tr.ms("wire.parse"), "ms"),
        metric("wire.payload_bytes", count("wire.payload_bytes"), "bytes"),
        metric("censys.collect_ms", tr.ms("censys.collect"), "ms"),
        metric("censys.default_rows_ms", tr.ms("censys.default_rows"), "ms"),
        metric("censys.rows", count("censys.rows"), "count"),
        metric("store.from_rows_ms", tr.ms("store.from_rows"), "ms"),
        metric("store.union_ms", tr.ms("store.union"), "ms"),
    ];
    for step in [
        "campaign",
        "syn_v4",
        "grab_v4",
        "snmp_v4",
        "ipv6",
        "rate_probe",
    ] {
        out.push(metric(
            format!("scan.{step}_ms"),
            tr.ms(&format!("scan.{step}")),
            "ms",
        ));
    }
    let probes = count("scan.campaign.probes_emitted");
    out.push(metric(
        "scan.probes_per_s",
        ratio(probes, tr.ms("scan.campaign") / 1e3),
        "1/s",
    ));
    out.push(metric(
        "scan.response_ratio",
        ratio(count("scan.campaign.responsive_pairs"), probes),
        "ratio",
    ));
    for technique in [
        "ssh",
        "bgp",
        "snmpv3",
        "midar",
        "ally",
        "speedtrap",
        "iffinder",
        "ratelimit",
        "merge",
    ] {
        out.push(metric(
            format!("resolve.{technique}_ms"),
            tr.ms(&format!("resolve.{technique}")),
            "ms",
        ));
    }
    let work = |name: &str| tr.work.get(name).copied().unwrap_or(0) as f64;
    out.push(metric(
        "resolve.ratelimit_verdict_ratio",
        ratio(
            work("resolve.rate_joint_alias_verdicts"),
            work("resolve.rate_candidate_pairs"),
        ),
        "ratio",
    ));
    for step in ["group", "merge", "validate"] {
        out.push(metric(
            format!("core.{step}_ms"),
            tr.ms(&format!("core.{step}")),
            "ms",
        ));
    }
    out.push(metric(
        "core.validate_pairs",
        count("core.validate_pairs"),
        "count",
    ));
    out.push(metric(
        "bench.experiment_ms",
        tr.ms("bench.experiment"),
        "ms",
    ));
    for section in RENDERS {
        out.push(metric(
            format!("bench.render_ms.{section}"),
            tr.ms(&format!("bench.render.{section}")),
            "ms",
        ));
    }
    out
}

/// The per-layer self-time table of one pass, printed before the result
/// line.
fn print_pass(workload: Workload, pass: &Pass, ref_wall_ms: f64) {
    let tr = &pass.tracer;
    println!(
        "== {} traced at {} thread(s): {:.1} ms",
        workload.name(),
        pass.threads,
        pass.wall_ms
    );
    let mut by_name: BTreeMap<&str, (f64, f64)> = BTreeMap::new();
    for (i, span) in tr.spans.iter().enumerate() {
        let entry = by_name.entry(&span.name).or_default();
        entry.0 += span.dur.as_secs_f64() * 1e3;
        entry.1 += tr.self_ms(i);
    }
    println!("{:<28} {:>11} {:>11}", "span", "total ms", "self ms");
    for (name, (total, own)) in &by_name {
        println!("{name:<28} {total:>11.1} {own:>11.1}");
    }
    println!("{:<28} {:>11}", "layer", "self ms");
    for (layer, own) in tr.layer_self_ms() {
        println!("{layer:<28} {own:>11.1}");
    }
    println!(
        "{:<28} {:>11.1}",
        "trace.counter_reads_ms",
        tr.counter_reads.as_secs_f64() * 1e3
    );
    println!(
        "{:<28} {:>11.1}",
        "trace.unattributed_ms",
        pass.unattributed_ms()
    );
    println!(
        "{:<28} {:>11.2}",
        "trace.overhead_pct",
        pass.overhead_pct(ref_wall_ms)
    );
}

/// The experiment's pipeline call by call, for the layer split the
/// experiment does not expose; then `Experiment::run_with_threads` and each
/// section render under its own span, and the two compared.
fn paper_active(tr: &mut Tracer, seed: u64, threads: usize, checks: &mut Checks) -> String {
    let (replayed_union, replayed_merged) = tr.span("replica.layers", |tr| {
        let config = Workload::PaperActive.config(seed);
        let hitlist_coverage = config.visibility.hitlist_coverage;
        let mut internet = tr.span("netsim.build", |_| InternetBuilder::new(config).build());
        let censys = censys_stage(tr, &internet, seed, checks);
        tr.span("netsim.churn", |_| churn(&mut internet));
        let campaign = campaign_config(seed, hitlist_coverage, threads, None);
        let data = campaign_stage(tr, &internet, &campaign, checks);
        let report = resolve_stage(tr, &internet, &data, paper_techniques(), threads);
        let union = tr.span("store.union", |_| {
            let mut union = data.store().clone();
            union.extend_from(&censys);
            union
        });
        // The groupings the tables request through `Experiment::collection`.
        tr.span("core.group", |_| {
            let extractor = IdentifierExtractor::new(ExtractionConfig::paper());
            for store in [data.store(), &censys, &union] {
                for protocol in [
                    ServiceProtocol::Ssh,
                    ServiceProtocol::Bgp,
                    ServiceProtocol::Snmpv3,
                ] {
                    let view = store.select_protocol(protocol, None);
                    std::hint::black_box(AliasSetCollection::from_view(&view, &extractor));
                }
            }
        });
        (union, report.merged)
    });

    let exp = tr.span("bench.experiment", |_| {
        Experiment::run_with_threads(ScalePreset::PaperShape, seed, threads)
    });
    let mut text = String::new();
    for (key, title, render) in SECTIONS {
        let section = tr.span(&format!("bench.render.{key}"), |_| render(&exp));
        write!(text, "## {title}\n\n```text\n{section}```\n\n")
            .expect("writing to a String cannot fail");
    }
    text.push_str(&workload::merged_digest_line(&exp.resolution.merged));
    let (same_merged, same_union) = tr.span("replica.compare", |_| {
        (
            replayed_merged == exp.resolution.merged,
            replayed_union == exp.union,
        )
    });
    checks.record(
        "replayed resolution merges the experiment's sets",
        same_merged,
    );
    checks.record("replayed union store equals the experiment's", same_union);
    tr.span("bench.drop", |_| drop(exp));
    tr.span("replica.drop", |_| drop((replayed_union, replayed_merged)));
    text
}

/// `RateLimitStudy::run` call by call: build, churn, campaign with the
/// rate-probe phase, the eight techniques once each in registration order
/// on this Internet, merge, scoring and render.
fn silent_probing(tr: &mut Tracer, seed: u64, threads: usize, checks: &mut Checks) -> String {
    let config = Workload::SilentProbing.config(seed);
    let hitlist_coverage = config.visibility.hitlist_coverage;
    let mut internet = tr.span("netsim.build", |_| InternetBuilder::new(config).build());
    tr.span("netsim.churn", |_| churn(&mut internet));
    let campaign = campaign_config(
        seed,
        hitlist_coverage,
        threads,
        Some(RateProbeConfig::default()),
    );
    let data = campaign_stage(tr, &internet, &campaign, checks);
    let mut report = resolve_stage(tr, &internet, &data, all_techniques(), threads);
    report.campaign = Some(data);
    let study = tr.span("bench.study_score", |_| score_study(&internet, report));
    let mut text = tr.span("bench.render.study", |_| study.render());
    text.push_str(&workload::merged_digest_line(&study.report.merged));
    tr.span("bench.drop", |_| drop((internet, study)));
    text
}

/// The passive workload call by call.
fn passive_large(tr: &mut Tracer, seed: u64, threads: usize, checks: &mut Checks) -> String {
    let config = Workload::PassiveLarge.config(seed);
    let internet = tr.span("netsim.build", |_| InternetBuilder::new(config).build());
    let store = censys_stage(tr, &internet, seed, checks);
    let data = CampaignData::from_store(store);
    let report = resolve_stage(tr, &internet, &data, paper_techniques(), threads);
    let text = tr.span("bench.render.report", |_| workload::render_report(&report));
    tr.span("bench.drop", |_| drop((internet, data, report)));
    text
}

fn churn(internet: &mut Internet) {
    internet.apply_churn(SimTime::ZERO, SimTime::from_days(CHURN_DAYS));
}

/// The campaign configuration `Experiment` and `RateLimitStudy` hand
/// their resolver.
fn campaign_config(
    seed: u64,
    hitlist_coverage: f64,
    threads: usize,
    rate_probe: Option<RateProbeConfig>,
) -> CampaignConfig {
    CampaignConfig {
        vantage: VantageKind::SingleVp,
        start: SimTime::from_days(CHURN_DAYS),
        hitlist_coverage,
        seed,
        threads,
        rate_probe,
        ..Default::default()
    }
}

fn paper_techniques() -> Vec<Box<dyn ResolutionTechnique>> {
    vec![
        Box::new(IdentifierTechnique::ssh()),
        Box::new(IdentifierTechnique::bgp()),
        Box::new(IdentifierTechnique::snmpv3()),
    ]
}

/// The order `ResolverBuilder::all_techniques` registers them in.
fn all_techniques() -> Vec<Box<dyn ResolutionTechnique>> {
    let mut techniques = paper_techniques();
    techniques.push(Box::new(MidarTechnique::new()));
    techniques.push(Box::new(AllyTechnique::new()));
    techniques.push(Box::new(SpeedtrapTechnique::new()));
    techniques.push(Box::new(IffinderTechnique::new()));
    techniques.push(Box::new(RateLimitTechnique::new()));
    techniques
}

/// Censys collection, its session/parse split, the default-port row copy
/// and the store build.
fn censys_stage(
    tr: &mut Tracer,
    internet: &Internet,
    seed: u64,
    checks: &mut Checks,
) -> ObservationStore {
    let config = workload::censys_config(seed);
    let snapshot = tr.span("censys.collect", |_| {
        CensysSnapshot::collect(internet, config.clone())
    });
    let split_matches = tr.span("replica.censys_split", |tr| {
        censys_split(tr, internet, &config, &snapshot)
    });
    checks.record(
        "session/parse split yields the rows collect emits",
        split_matches,
    );
    let rows = tr.span("censys.default_rows", |_| {
        snapshot.default_port_observations()
    });
    tr.count("censys.rows", rows.len() as f64);
    let store = tr.span("store.from_rows", |_| {
        ObservationStore::from_observations(rows)
    });
    tr.span("censys.drop", |_| drop(snapshot));
    store
}

/// `CensysSnapshot::collect`'s crawl with session synthesis and payload
/// parsing timed apart.  Returns whether it yields exactly the snapshot's
/// default-port rows, in order.
fn censys_split(
    tr: &mut Tracer,
    internet: &Internet,
    config: &CensysConfig,
    snapshot: &CensysSnapshot,
) -> bool {
    let ctx = ProbeContext {
        vantage: VantageKind::Distributed,
        time: config.snapshot_time,
    };
    let mut expected = snapshot.observations.iter().filter(|o| o.is_default_port());
    let (mut session_time, mut parse_time) = (Duration::ZERO, Duration::ZERO);
    let (mut sessions, mut bytes) = (0u64, 0u64);
    let mut matches = true;
    for device in internet.devices().iter().filter(|d| d.censys_covered) {
        for (protocol, port, addrs) in [
            (ServiceProtocol::Ssh, 22, device.ssh_responding_addrs()),
            (ServiceProtocol::Bgp, 179, device.bgp_responding_addrs()),
        ] {
            for addr in addrs {
                if addr.is_ipv6() && !config.include_ipv6 {
                    continue;
                }
                let start = Instant::now();
                let session = internet.service_session(addr, port, &ctx);
                session_time += start.elapsed();
                let Some(session) = session else { continue };
                sessions += 1;
                bytes += session.len() as u64;
                let start = Instant::now();
                let payload = parse_payload(protocol, &session);
                parse_time += start.elapsed();
                let Some(payload) = payload else { continue };
                let asn = internet.ip_to_asn(addr).map(|a| a.0);
                matches &= expected.next().is_some_and(|row| {
                    row.addr == addr && row.port == port && row.asn == asn && row.payload == payload
                });
            }
        }
    }
    tr.record("netsim.session", session_time);
    tr.record("wire.parse", parse_time);
    tr.count("netsim.sessions", sessions as f64);
    tr.count("wire.payload_bytes", bytes as f64);
    matches && expected.next().is_none()
}

/// `ActiveCampaign::run`, then its scanner phases one public call at a
/// time, which must build the same store.
fn campaign_stage(
    tr: &mut Tracer,
    internet: &Internet,
    config: &CampaignConfig,
    checks: &mut Checks,
) -> CampaignData {
    let before = tr.read_counters();
    let data = tr.span("scan.campaign", |_| {
        ActiveCampaign::new(config.clone()).run(internet)
    });
    let after = tr.read_counters();
    for name in ["scan.probes_emitted", "scan.responsive_pairs"] {
        let delta = after.get(name).unwrap_or(&0) - before.get(name).unwrap_or(&0);
        tr.count(&format!("scan.campaign.{}", &name[5..]), delta as f64);
    }
    let same = tr.span("replica.scan_phases", |tr| {
        let (store, finished_at, probes) = scan_phases(tr, internet, config);
        store == *data.store() && finished_at == data.finished_at && probes == data.syn_probes_sent
    });
    checks.record("scanner-phase replica builds the campaign's store", same);
    data
}

/// Splice a phase's shard chunks onto the store in shard order; the clock
/// moves to the phase's last observation.
fn absorb(store: &mut ObservationStore, shards: Vec<ShardColumns>, mut now: SimTime) -> SimTime {
    for shard in shards {
        if let Some(last) = shard.last_timestamp() {
            now = last;
        }
        store.absorb_shard(shard);
    }
    now
}

/// The public scanner calls `ActiveCampaign::run` makes, in its order.
fn scan_phases(
    tr: &mut Tracer,
    internet: &Internet,
    cfg: &CampaignConfig,
) -> (ObservationStore, SimTime, u64) {
    let vantage = cfg.vantage;
    let threads = cfg.threads.max(1);
    let mut store = ObservationStore::new();

    let zmap = ZmapScanner::new(ZmapConfig {
        ports: vec![22, 179],
        rate_pps: cfg.syn_rate_pps,
        seed: cfg.seed,
    });
    let syn = tr.span("scan.syn_v4", |_| {
        zmap.scan_ipv4_sharded(internet, vantage, cfg.start, threads)
    });
    let zgrab = ZgrabScanner::new(ZgrabConfig {
        rate_pps: cfg.grab_rate_pps,
        source: DataSource::Active,
    });
    let grab = |store: &mut ObservationStore, targets: &[IpAddr], port, protocol, now| {
        absorb(
            store,
            zgrab.grab_columns_sharded(internet, targets, port, protocol, vantage, now, threads),
            now,
        )
    };
    let mut now = tr.span("scan.grab_v4", |_| {
        let now = grab(
            &mut store,
            syn.on_port(22),
            22,
            ServiceProtocol::Ssh,
            syn.finished_at,
        );
        grab(&mut store, syn.on_port(179), 179, ServiceProtocol::Bgp, now)
    });

    let snmp = SnmpScanner::new(SnmpScanConfig {
        rate_pps: cfg.syn_rate_pps,
        source: DataSource::Active,
    });
    now = tr.span("scan.snmp_v4", |_| {
        let shards = snmp.scan_routed_space_columns_sharded(internet, vantage, now, threads);
        absorb(&mut store, shards, now)
    });

    let (hitlist, v6_probes);
    (hitlist, v6_probes, now) = tr.span("scan.ipv6", |_| {
        let hitlist = Ipv6Hitlist::generate(
            internet,
            cfg.hitlist_coverage,
            cfg.hitlist_stale_fraction,
            cfg.seed,
        );
        let v6_syn = zmap.scan_ipv6_list_sharded(internet, &hitlist.addrs, vantage, now, threads);
        let now = grab(
            &mut store,
            v6_syn.on_port(22),
            22,
            ServiceProtocol::Ssh,
            v6_syn.finished_at,
        );
        let now = grab(
            &mut store,
            v6_syn.on_port(179),
            179,
            ServiceProtocol::Bgp,
            now,
        );
        let targets: Vec<IpAddr> = hitlist.addrs.iter().map(|&a| IpAddr::V6(a)).collect();
        let shards = snmp.scan_columns_sharded(internet, &targets, vantage, now, threads);
        let now = absorb(&mut store, shards, now);
        (hitlist, v6_syn.probes_sent, now)
    });

    if let Some(rate) = &cfg.rate_probe {
        now = tr.span("scan.rate_probe", |_| {
            let prober = RateProber::new(rate.clone());
            let targets =
                prober.discover_targets_sharded(internet, &hitlist.addrs, vantage, now, threads);
            let shards = prober.probe_columns_sharded(internet, &targets, vantage, now, threads);
            absorb(&mut store, shards, now)
        });
    }
    (store, now, syn.probes_sent + v6_probes)
}

/// Each technique under its own span, in order, then the merge stage of
/// `Resolver::resolve_data`.
fn resolve_stage(
    tr: &mut Tracer,
    internet: &Internet,
    data: &CampaignData,
    techniques: Vec<Box<dyn ResolutionTechnique>>,
    threads: usize,
) -> ResolutionReport {
    let extractor = IdentifierExtractor::new(ExtractionConfig::paper());
    let ctx = TechniqueCtx {
        internet,
        extractor: &extractor,
        probe_start: data.finished_at,
        vantage: VantageKind::SingleVp,
        threads,
    };
    let results: Vec<TechniqueResult> = techniques
        .iter()
        .map(|t| tr.span(&format!("resolve.{}", t.name()), |_| t.resolve(data, &ctx)))
        .collect();
    let (merged, coverage) = tr.span("resolve.merge", |tr| {
        merge_stage(tr, data, &results, threads)
    });
    ResolutionReport {
        campaign: None,
        techniques: results,
        merged,
        coverage,
        technique_timings: Vec::new(),
        timings: StageTimings::default(),
    }
}

/// The resolver's merge and statistics: every result brought into one id
/// space, merged, then cross-validated pairwise.
fn merge_stage(
    tr: &mut Tracer,
    data: &CampaignData,
    results: &[TechniqueResult],
    threads: usize,
) -> (Vec<MergedSet>, CoverageStats) {
    let base = data.interner().clone();
    let mut interner = base.clone();
    // Results that extended the campaign interner are re-interned; ids of
    // campaign addresses stay valid.
    let unified: Vec<Option<(Vec<CompactAliasSet>, Vec<AddrId>)>> = results
        .iter()
        .map(|t| {
            if Arc::ptr_eq(t.interner(), &base) {
                return None;
            }
            let target = Arc::make_mut(&mut interner);
            let sets = t
                .compact_sets()
                .iter()
                .map(|set| {
                    CompactAliasSet::from_ids(
                        set.iter()
                            .map(|id| target.intern(t.interner().addr(id)))
                            .collect(),
                    )
                })
                .collect();
            let mut ids: Vec<AddrId> = t
                .testable_ids()
                .iter()
                .map(|&id| target.intern(t.interner().addr(id)))
                .collect();
            ids.sort_unstable();
            ids.dedup();
            Some((sets, ids))
        })
        .collect();
    let sets_of = |i: usize| {
        unified[i]
            .as_ref()
            .map_or(results[i].compact_sets(), |(sets, _)| sets.as_slice())
    };
    let testable_of = |i: usize| {
        unified[i]
            .as_ref()
            .map_or(results[i].testable_ids(), |(_, ids)| ids.as_slice())
    };

    let inputs: Vec<(&str, &[CompactAliasSet])> = results
        .iter()
        .enumerate()
        .map(|(i, t)| (t.technique.as_str(), sets_of(i)))
        .collect();
    let merged = tr.span("core.merge", |_| {
        merge_labeled_compact(&inputs, &interner, threads)
    });
    let (agreements, compared) = tr.span("core.validate", |_| {
        let mut agreements = Vec::new();
        let mut compared = 0;
        for i in 0..results.len() {
            for j in i + 1..results.len() {
                let common = common_ids(testable_of(i), testable_of(j));
                compared += common.len();
                agreements.push(TechniqueAgreement {
                    a: results[i].technique.clone(),
                    b: results[j].technique.clone(),
                    result: cross_validate(sets_of(i), sets_of(j), &common),
                });
            }
        }
        (agreements, compared)
    });
    tr.count("core.validate_pairs", compared as f64);
    let per_technique = results
        .iter()
        .map(|t| TechniqueCoverage {
            technique: t.technique.clone(),
            alias_sets: t.set_count(),
            covered_addresses: t.covered_addresses(),
            testable_addresses: t.testable_count(),
        })
        .collect();
    let merged_addresses = merged
        .iter()
        .flat_map(|m| m.addrs.iter())
        .collect::<BTreeSet<_>>()
        .len();
    let coverage = CoverageStats {
        per_technique,
        merged_sets: merged.len(),
        merged_addresses,
        agreements,
    };
    (merged, coverage)
}

/// `RateLimitStudy::run`'s ground-truth scoring of the silent routers.
fn score_study(internet: &Internet, report: ResolutionReport) -> RateLimitStudy {
    let ratelimit_sets = report
        .technique("ratelimit")
        .map(|t| t.alias_sets())
        .unwrap_or_default();
    let (mut silent_total, mut silent_resolvable, mut silent_aliased) = (0, 0, 0);
    for device in internet.devices() {
        if device.kind != DeviceKind::SilentRouter {
            continue;
        }
        silent_total += 1;
        let v4: Vec<IpAddr> = device.ipv4_addrs().into_iter().map(IpAddr::V4).collect();
        if v4.len() < 2 {
            continue;
        }
        silent_resolvable += 1;
        if ratelimit_sets
            .iter()
            .any(|s| v4.iter().all(|a| s.contains(a)))
        {
            silent_aliased += 1;
        }
    }
    let ratelimit_only_sets = report
        .merged
        .iter()
        .filter(|m| m.labels.len() == 1 && m.labels.contains("ratelimit"))
        .count();
    RateLimitStudy {
        report,
        silent_total,
        silent_resolvable,
        silent_aliased,
        ratelimit_only_sets,
    }
}
