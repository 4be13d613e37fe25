//! The two paper-replay workloads: the Fig. 8/14 system comparison over
//! the regular (non-graph) Table-2 apps, and over the three graph apps.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use gmt_analysis::characterize;
use gmt_analysis::runner::{geometry_for, SystemKind};
use gmt_analysis::tracesum::counters_from_trace;
use gmt_baselines::{Bam, BamConfig, Hmm, HmmConfig};
use gmt_core::{Gmt, GmtConfig, PolicyKind, TieringMetrics};
use gmt_gpu::{Executor, ExecutorConfig, MemoryBackend};
use gmt_mem::{TierGeometry, WarpAccess};
use gmt_sim::trace::TraceSink;
use gmt_sim::Dur;
use gmt_workloads::bfs::Bfs;
use gmt_workloads::kron::{KronConfig, KronGraph};
use gmt_workloads::pagerank::PageRank;
use gmt_workloads::sssp::Sssp;
use gmt_workloads::{non_graph_suite, Workload, WorkloadScale};

use crate::digest::Digest;
use crate::layers::{replay_nested, LayerCounts, Row, Spans, Timed};
use crate::paper;

/// Tier-1 capacity of the regular apps, in pages (the figure binaries'
/// default scale).
pub const REGULAR_TIER1_PAGES: usize = 1024;
/// Tier-2 : Tier-1 capacity ratio (the paper's default).
pub const TIER2_RATIO: f64 = 4.0;
/// Working set : (Tier-1 + Tier-2) over-subscription (the paper's
/// default).
pub const OVERSUBSCRIPTION: f64 = 2.0;
/// log2 of the vertex count of each generated graph.
pub const GRAPH_SCALE_BITS: u32 = 18;
/// Trace-ring capacity of one traced simulation; the ring allocates in
/// chunks as it fills, so only what a run records is held.
const RING_CAPACITY: usize = 1 << 26;

/// The five systems every app runs on, BaM first (the speedup base).
pub const SYSTEMS: [SystemKind; 5] = [
    SystemKind::Bam,
    SystemKind::Hmm,
    SystemKind::Gmt(PolicyKind::TierOrder),
    SystemKind::Gmt(PolicyKind::Random),
    SystemKind::Gmt(PolicyKind::Reuse),
];

/// A workload with the geometry it runs over.
pub struct App {
    /// The workload.
    pub workload: Box<dyn Workload>,
    /// Its tier geometry (derived from its extent, as the paper does).
    pub geometry: TierGeometry,
}

impl App {
    /// Pairs `workload` with the paper's default geometry for it.
    pub fn new(workload: Box<dyn Workload>) -> App {
        let geometry = geometry_for(workload.as_ref(), TIER2_RATIO, OVERSUBSCRIPTION);
        App { workload, geometry }
    }
}

/// The six regular Table-2 apps at Tier-1 = [`REGULAR_TIER1_PAGES`].
pub fn regular_apps() -> Vec<App> {
    let pages = REGULAR_TIER1_PAGES as f64 * (1.0 + TIER2_RATIO) * OVERSUBSCRIPTION;
    non_graph_suite(&WorkloadScale::pages(pages.round() as usize))
        .into_iter()
        .map(App::new)
        .collect()
}

/// BFS, PageRank and SSSP, each on its own GAP-Kron graph of
/// 2^[`GRAPH_SCALE_BITS`] vertices generated from `seed`.
pub fn graph_apps(seed: u64) -> Vec<App> {
    let graph = |stream| {
        KronGraph::generate(
            KronConfig::gap(GRAPH_SCALE_BITS),
            gmt_sim::rng::derive(seed, stream),
        )
    };
    vec![
        App::new(Box::new(Bfs::on_graph(graph(1)))),
        App::new(Box::new(PageRank::on_graph(graph(2), 3))),
        App::new(Box::new(Sssp::on_graph(
            graph(3),
            vec![1.0, 0.6, 0.35, 0.2, 0.1],
        ))),
    ]
}

/// One simulation job of a pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Job {
    /// Replay the app on a system through the executor.
    System(SystemKind),
    /// Instrumented characterization (reuse %, RRD tier bias).
    Characterize,
}

impl Job {
    /// Every job run per app, in pass order.
    pub fn all() -> impl Iterator<Item = Job> {
        SYSTEMS
            .into_iter()
            .map(Job::System)
            .chain([Job::Characterize])
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Job::System(s) => s.name(),
            Job::Characterize => "characterize",
        }
    }
}

/// What one successful system job produced.
#[derive(Debug, Clone)]
pub struct JobOutput {
    /// Simulated execution time.
    pub elapsed: Dur,
    /// Warp accesses replayed.
    pub accesses: u64,
    /// Simulated page references (Tier-1 hits + misses).
    pub refs: u64,
    /// The runtime's counters.
    pub metrics: TieringMetrics,
}

/// Per-pass instrumentation: spans and, in traced runs, layer counts.
pub struct Probe<'a> {
    /// Host-time spans (no-ops when disabled).
    pub spans: &'a mut Spans,
    /// Layer counts; `Some` turns on the trace ring and its checks.
    pub counts: Option<&'a mut LayerCounts>,
    /// Host time the traced run spends on its own analysis (draining,
    /// reconciling, replaying); excluded from the traced pass time.
    pub offline: Duration,
}

fn execute<B: MemoryBackend>(
    backend: B,
    trace: Vec<WarpAccess>,
    row: Row,
    probe: &mut Probe<'_>,
) -> (Dur, B) {
    let executor = Executor::new(ExecutorConfig::default());
    if probe.spans.enabled() {
        let t = Instant::now();
        let out = executor.run(
            Timed {
                inner: backend,
                spent: Duration::ZERO,
            },
            trace,
        );
        let total = t.elapsed();
        let inside = out.backend.spent;
        probe.spans.credit(row, inside);
        probe
            .spans
            .credit(Row::ExecSelf, total.saturating_sub(inside));
        (out.elapsed, out.backend.inner)
    } else {
        let out = executor.run(backend, trace);
        (out.elapsed, out.backend)
    }
}

/// Runs `system` on `app`, checks its outputs, and (traced) reconciles
/// the trace against the counters and replays it through the nested
/// layers.
///
/// # Errors
///
/// Returns the first failed correctness check.
pub fn run_system_job(
    app: &App,
    system: SystemKind,
    seed: u64,
    probe: &mut Probe<'_>,
) -> Result<JobOutput, String> {
    let t = probe.spans.start();
    let trace = app.workload.trace(seed);
    probe.spans.add(Row::Trace, t);
    let accesses = trace.len() as u64;
    let page_refs: u64 = trace.iter().map(|a| a.pages.len() as u64).sum();
    let config = GmtConfig::new(app.geometry);
    let traced = probe.counts.is_some();
    let (elapsed, metrics, sink, ssd_reads) = match system {
        SystemKind::Bam => {
            let mut bam = Bam::new(BamConfig::from(config));
            let sink = traced.then(|| bam.enable_tracing(RING_CAPACITY));
            let (elapsed, bam) = execute(bam, trace, Row::BamAccess, probe);
            (elapsed, bam.metrics(), sink, bam.ssd_stats().reads)
        }
        SystemKind::Hmm => {
            let mut hmm = Hmm::new(HmmConfig::from(config));
            let sink = traced.then(|| hmm.enable_tracing(RING_CAPACITY));
            let (elapsed, hmm) = execute(hmm, trace, Row::HmmAccess, probe);
            (elapsed, hmm.metrics(), sink, hmm.ssd_stats().reads)
        }
        SystemKind::Gmt(policy) => {
            let mut gmt = Gmt::new(config.with_policy(policy));
            let sink = traced.then(|| gmt.enable_tracing(RING_CAPACITY));
            let (elapsed, gmt) = execute(gmt, trace, Row::CoreAccess, probe);
            gmt.check_invariants()?;
            (elapsed, gmt.metrics(), sink, gmt.ssd_stats().reads)
        }
    };
    if metrics.accesses != accesses {
        return Err(format!(
            "{} served {} accesses of a {accesses}-access trace",
            system.name(),
            metrics.accesses
        ));
    }
    let refs = metrics.t1_hits + metrics.t1_misses;
    if refs != page_refs {
        return Err(format!(
            "{}: t1_hits + t1_misses = {refs}, but the trace carries {page_refs} page references",
            system.name()
        ));
    }
    if elapsed == Dur::ZERO {
        return Err(format!("{}: zero simulated time", system.name()));
    }
    if matches!(system, SystemKind::Bam) && ssd_reads != metrics.ssd_reads {
        return Err(format!(
            "BaM: device served {ssd_reads} reads, runtime counted {}",
            metrics.ssd_reads
        ));
    }
    if let (Some(sink), Some(counts)) = (sink, probe.counts.as_deref_mut()) {
        let t = Instant::now();
        let checked = reconcile_and_replay(&sink, &metrics, &app.geometry, counts);
        counts.warp_accesses += accesses;
        counts.page_refs += page_refs;
        if matches!(system, SystemKind::Gmt(_)) {
            counts.core.merge(&metrics);
        }
        probe.offline += t.elapsed();
        checked.map_err(|e| format!("{}: {e}", system.name()))?;
    }
    Ok(JobOutput {
        elapsed,
        accesses,
        refs,
        metrics,
    })
}

fn reconcile_and_replay(
    sink: &TraceSink,
    metrics: &TieringMetrics,
    geometry: &TierGeometry,
    counts: &mut LayerCounts,
) -> Result<(), String> {
    if sink.dropped() > 0 {
        return Err(format!("trace ring dropped {} records", sink.dropped()));
    }
    let records = sink.drain();
    counters_from_trace(&records)
        .reconcile(metrics)
        .map_err(|e| format!("trace does not reconcile with the counters: {e}"))?;
    replay_nested(&records, geometry, counts);
    Ok(())
}

/// Characterizes `app`, checking it saw the trace the systems replayed.
///
/// # Errors
///
/// Returns the first failed check.
pub fn run_characterize_job(
    app: &App,
    seed: u64,
    expect: Option<(u64, u64)>,
    trace_time: Duration,
    probe: &mut Probe<'_>,
) -> Result<gmt_analysis::Characterization, String> {
    let t = probe.spans.start();
    let profile = characterize(app.workload.as_ref(), &app.geometry, seed);
    probe.spans.add(Row::Characterize, t);
    probe.spans.shift(Row::Characterize, Row::Trace, trace_time);
    if let Some((accesses, page_refs)) = expect {
        if (profile.accesses, profile.page_touches) != (accesses, page_refs) {
            return Err(format!(
                "characterize saw {} accesses / {} touches, the systems {accesses} / {page_refs}",
                profile.accesses, profile.page_touches
            ));
        }
    }
    if !(0.0..=1.0).contains(&profile.reuse_pct) {
        return Err(format!(
            "reuse fraction {} outside [0, 1]",
            profile.reuse_pct
        ));
    }
    Ok(profile)
}

/// One app's simulated GMT-Reuse / BaM speedup beside the paper's.
#[derive(Debug, Clone)]
pub struct Speedup {
    /// App name.
    pub app: &'static str,
    /// Simulated GMT-Reuse speedup over BaM.
    pub simulated: f64,
    /// The paper's Fig. 8a value.
    pub paper: paper::Reference,
}

/// The outcome of one pass over every app × job.
#[derive(Debug, Clone, Default)]
pub struct PassResult {
    /// Jobs attempted.
    pub jobs: u64,
    /// Jobs that panicked or failed a check, with the reason.
    pub failures: Vec<String>,
    /// Simulated page references over every system run.
    pub refs: u64,
    /// Warp accesses over every system run.
    pub warp_accesses: u64,
    /// Digest of every simulated output.
    pub digest: u64,
    /// Per-app GMT-Reuse speedups.
    pub speedups: Vec<Speedup>,
}

impl PassResult {
    /// Geometric-mean |log| error against Fig. 8a, in percent.
    pub fn paper_err_pct(&self) -> Option<f64> {
        let pairs: Vec<(f64, f64)> = self
            .speedups
            .iter()
            .map(|s| (s.simulated, s.paper.reuse_speedup))
            .collect();
        paper::geo_abs_log_error_pct(&pairs)
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".to_string())
}

/// Runs `f` as one job: a panic becomes a failure instead of aborting.
pub fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => Err(format!("panicked: {}", panic_message(payload.as_ref()))),
    }
}

/// Runs every app on the five systems plus characterization.
pub fn run_pass(apps: &[App], seed: u64, probe: &mut Probe<'_>) -> PassResult {
    let mut pass = PassResult::default();
    let mut digest = Digest::new();
    for app in apps {
        let name = app.workload.name();
        let mut elapsed = Vec::with_capacity(SYSTEMS.len());
        let mut shape = None;
        let mut trace_time = Duration::ZERO;
        let mut systems_ok = 0u32;
        for job in Job::all() {
            pass.jobs += 1;
            let outcome = match job {
                Job::System(system) => {
                    let before = probe.spans.seconds(Row::Trace);
                    let out = guarded(|| run_system_job(app, system, seed, probe));
                    trace_time += Duration::from_secs_f64(probe.spans.seconds(Row::Trace) - before);
                    out.map(|o| {
                        systems_ok += 1;
                        match shape {
                            None => shape = Some((o.accesses, o.refs)),
                            Some(s) if s != (o.accesses, o.refs) => {
                                pass.failures.push(format!(
                                    "{name}/{}: saw a different trace than the other systems",
                                    job.name()
                                ));
                            }
                            Some(_) => {}
                        }
                        digest.str(name).str(job.name()).u64(o.elapsed.as_nanos());
                        digest.debug(&o.metrics);
                        elapsed.push((system, o.elapsed));
                        pass.refs += o.refs;
                        pass.warp_accesses += o.accesses;
                    })
                }
                Job::Characterize => {
                    let share = trace_time / systems_ok.max(1);
                    guarded(|| run_characterize_job(app, seed, shape, share, probe)).map(|c| {
                        digest
                            .str(name)
                            .str("characterize")
                            .u64(c.accesses)
                            .u64(c.page_touches);
                        digest.u64(c.demand_bytes).f64(c.reuse_pct);
                        for b in c.tier_bias {
                            digest.f64(b);
                        }
                    })
                }
            };
            if let Err(e) = outcome {
                pass.failures.push(format!("{name}/{}: {e}", job.name()));
            }
        }
        let time_of = |s: SystemKind| elapsed.iter().find(|(k, _)| *k == s).map(|(_, d)| *d);
        if let (Some(bam), Some(reuse), Some(paper)) = (
            time_of(SystemKind::Bam),
            time_of(SystemKind::Gmt(PolicyKind::Reuse)),
            paper::reference(name),
        ) {
            pass.speedups.push(Speedup {
                app: name,
                simulated: bam.as_secs_f64() / reuse.as_secs_f64(),
                paper,
            });
        }
    }
    pass.digest = digest.finish();
    pass
}
