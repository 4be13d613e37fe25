//! The online front-end workload: three SLO classes sharing one
//! hierarchy under `SharedQos`, open-loop Poisson arrivals per
//! connection in virtual time, ending with the trace drained and written
//! as JSONL.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

use gmt_analysis::tracesum::counters_from_trace;
use gmt_core::GmtConfig;
use gmt_frontend::{Frontend, FrontendReport};
use gmt_mem::TierGeometry;
use gmt_serve::{
    ArrivalSchedule, PartitionPolicy, ServeConfig, SloClass, TenantRegistry, TenantSpec,
    TieredService,
};
use gmt_workloads::synthetic::ZipfLoop;
use gmt_workloads::WorkloadScale;

use crate::digest::Digest;
use crate::layers::{replay_nested, LayerCounts, Row, Spans};

/// Tier-1 capacity shared by the three tenants, in pages.
pub const TIER1_PAGES: usize = 256;
/// Client connections (assigned round-robin to the tenants).
pub const CONNECTIONS: usize = 6;
/// Requests each connection sends per pass.
pub const REQUESTS_PER_CONN: u32 = 10_000;
/// Mean Poisson inter-arrival gap per connection, virtual ns.
pub const MEAN_INTERARRIVAL_NS: u64 = 800_000;
/// Trace-ring capacity; sized above the largest pass.
const RING_CAPACITY: usize = 1 << 23;

/// The tenants: (name, pages, class, Tier-1 floor, weight).
const TENANTS: [(&str, usize, SloClass, usize, u32); 3] = [
    ("interactive", 192, SloClass::Interactive, 128, 3),
    ("standard", 256, SloClass::Standard, 32, 2),
    ("batch", 512, SloClass::Batch, 0, 1),
];

fn geometry() -> TierGeometry {
    TierGeometry::from_tier1(TIER1_PAGES, 2.0, 2.0)
}

/// Builds the tenant registry, the shared hierarchy and the front-end
/// over it, all seeded from `seed`.
pub fn build(seed: u64) -> Frontend {
    let mut registry = TenantRegistry::new(TIER1_PAGES, PartitionPolicy::SharedQos);
    for (i, (name, pages, slo, floor, weight)) in TENANTS.into_iter().enumerate() {
        registry
            .admit(TenantSpec {
                name: name.into(),
                workload: Box::new(ZipfLoop::new(&WorkloadScale::pages(pages), 1.0, 0.05, 1)),
                arrival: ArrivalSchedule::Uniform { gap_ns: 1 },
                quota_pages: 0,
                weight,
                floor_pages: floor,
                slo,
                seed: gmt_sim::rng::derive(seed, 10 + i as u64),
            })
            .expect("the three tenants fit the shared Tier-1");
    }
    let mut gmt = GmtConfig::new(geometry());
    gmt.frontend.connections = CONNECTIONS;
    gmt.frontend.mean_interarrival_ns = MEAN_INTERARRIVAL_NS;
    gmt.frontend.max_request_pages = 12;
    gmt.frontend.max_delay_ns = 30_000;
    gmt.frontend.defer_threshold = 24;
    gmt.frontend.shed_threshold = 96;
    let config = ServeConfig {
        gmt,
        partition: PartitionPolicy::SharedQos,
    };
    let service = TieredService::new(&config, registry).expect("the front-end config is valid");
    Frontend::new(
        service,
        gmt_sim::rng::derive(seed, 0xF10),
        REQUESTS_PER_CONN,
        RING_CAPACITY,
    )
}

/// The outcome of one front-end pass.
#[derive(Debug, Clone, Default)]
pub struct FrontPass {
    /// Requests generated.
    pub generated: u64,
    /// Requests shed by backpressure.
    pub shed: u64,
    /// Completed requests whose latency exceeded their class target.
    pub violations: u64,
    /// Simulated page references (Tier-1 hits + misses).
    pub refs: u64,
    /// Warp accesses (flushed batches) the hierarchy served.
    pub accesses: u64,
    /// Interactive-class p99 latency, virtual ns.
    pub interactive_p99_ns: u64,
    /// Decision counts summed over classes.
    pub admits: u64,
    /// See `admits`.
    pub defers: u64,
    /// See `admits`.
    pub flushes: u64,
    /// Batch-class deferrals.
    pub batch_defers: u64,
    /// Interactive tenant's Tier-1 hit ratio.
    pub interactive_t1_hit_ratio: f64,
    /// Digest of every simulated output.
    pub digest: u64,
}

/// One pass: build, run, report, export. Spans cover each step; traced
/// runs also replay the drained trace through the nested layers, adding
/// the replay time to `offline`.
///
/// # Errors
///
/// Returns the first failed correctness check.
pub fn run_pass(
    seed: u64,
    export: &Path,
    spans: &mut Spans,
    counts: Option<&mut LayerCounts>,
    offline: &mut Duration,
) -> Result<FrontPass, String> {
    let t = spans.start();
    let frontend = build(seed);
    spans.add(Row::ServeBuild, t);

    let t = spans.start();
    let out = frontend.run();
    spans.add(Row::FrontendRun, t);

    let t = spans.start();
    let report = FrontendReport::from_sink(&out.sink);
    report.check_conservation()?;
    report.reconcile(&out.tenant_classes, &out.per_tenant)?;
    spans.add(Row::Report, t);

    let t = spans.start();
    let records = out.sink.drain();
    let jsonl = gmt_sim::trace::to_jsonl(&records);
    std::fs::File::create(export)
        .and_then(|mut f| f.write_all(jsonl.as_bytes()))
        .map_err(|e| format!("writing {}: {e}", export.display()))?;
    drop(jsonl);
    spans.add(Row::Export, t);

    let t = spans.start();
    let counters = counters_from_trace(&records);
    counters
        .reconcile(&out.aggregate)
        .map_err(|e| format!("trace does not reconcile with the hierarchy: {e}"))?;
    spans.add(Row::Report, t);
    if counters.front_completes + counters.front_sheds != out.generated {
        return Err(format!(
            "{} requests generated, {} completed + {} shed",
            out.generated, counters.front_completes, counters.front_sheds
        ));
    }

    let mut pass = FrontPass {
        generated: out.generated,
        shed: out.shed,
        refs: out.aggregate.t1_hits + out.aggregate.t1_misses,
        accesses: out.aggregate.accesses,
        ..FrontPass::default()
    };
    let mut digest = Digest::new();
    digest
        .u64(out.generated)
        .u64(out.shed)
        .u64(out.elapsed.as_nanos());
    digest.debug(&out.aggregate).debug(&out.per_tenant);
    for class in &report.classes {
        let over = class.latency_ns.len()
            - class
                .latency_ns
                .partition_point(|&l| l <= class.class.target_p99_ns());
        pass.violations += over as u64;
        pass.admits += class.admits;
        pass.defers += class.defers;
        pass.flushes += class.flushes;
        if class.class == SloClass::Batch {
            pass.batch_defers = class.defers;
        }
        digest
            .str(class.class.label())
            .u64(class.admits)
            .u64(class.defers)
            .u64(class.sheds);
        digest
            .u64(class.flushes)
            .u64(class.flush_pages)
            .u64(class.zero_copy_flushes);
        for &l in &class.latency_ns {
            digest.u64(l);
        }
    }
    pass.digest = digest.finish();
    pass.interactive_p99_ns = report
        .class(SloClass::Interactive)
        .and_then(|c| c.p99_ns())
        .ok_or("no Interactive request completed")?;
    if let Some(t) = out
        .tenant_classes
        .iter()
        .position(|&c| c == SloClass::Interactive)
    {
        pass.interactive_t1_hit_ratio = out.per_tenant[t].t1_hit_rate();
    }

    if let Some(counts) = counts {
        let t = Instant::now();
        replay_nested(&records, &geometry(), counts);
        counts.core.merge(&out.aggregate);
        counts.warp_accesses += pass.accesses;
        counts.page_refs += pass.refs;
        *offline += t.elapsed();
    }
    Ok(pass)
}
