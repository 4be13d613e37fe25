//! Differential tests: a one-tenant `FullyShared` service is the
//! single-tenant GMT runtime. Driven through the same arrival schedule,
//! both must produce the same counters, the same elapsed time and the
//! same decision trace (up to the tenant stamp the service adds).

use gmt_core::{Gmt, GmtConfig, Tier2Insert};
use gmt_gpu::{Executor, ExecutorConfig};
use gmt_mem::TierGeometry;
use gmt_serve::{
    ArrivalSchedule, PartitionPolicy, ServeConfig, SloClass, TenantId, TenantRegistry, TenantSpec,
    TieredService,
};
use gmt_sim::trace::{TierTag, TraceEvent, TraceRecord};
use gmt_workloads::synthetic::ZipfLoop;
use gmt_workloads::WorkloadScale;

const RING: usize = 1 << 20;

fn zipf_spec(
    name: &str,
    pages: usize,
    skew: f64,
    writes: f64,
    accesses: usize,
    seed: u64,
) -> TenantSpec {
    TenantSpec {
        name: name.into(),
        workload: Box::new(ZipfLoop::new(
            &WorkloadScale::pages(pages),
            skew,
            writes,
            accesses,
        )),
        arrival: ArrivalSchedule::Poisson { mean_gap_ns: 2_000 },
        quota_pages: 0,
        weight: 1,
        floor_pages: 0,
        slo: SloClass::Standard,
        seed,
    }
}

fn config(tier1: usize, pages: usize) -> GmtConfig {
    let geometry = TierGeometry {
        total_pages: pages,
        ..TierGeometry::from_tier1(tier1, 2.0, 1.0)
    };
    GmtConfig {
        tier2_insert: Some(Tier2Insert::EvictFifo),
        ..GmtConfig::new(geometry)
    }
}

/// Runs one Zipf tenant through both runtimes and requires identical
/// outputs.
fn assert_service_matches_gmt(
    pages: usize,
    tier1: usize,
    skew: f64,
    writes: f64,
    accesses: usize,
    seed: u64,
) {
    let gmt_config = config(tier1, pages);
    let mut registry = TenantRegistry::new(tier1, PartitionPolicy::FullyShared);
    registry
        .admit(zipf_spec("zipf", pages, skew, writes, accesses, seed))
        .expect("one tenant always fits");
    let serve_config = ServeConfig {
        gmt: gmt_config,
        partition: PartitionPolicy::FullyShared,
    };
    let mut service = TieredService::new(&serve_config, registry).expect("valid config");
    let served_sink = service.enable_tracing(RING);
    let schedule = service.offered_load();
    let executor = Executor::new(ExecutorConfig::default());
    let served = executor.run_arrivals(service, schedule.clone());

    let mut gmt = Gmt::new(gmt_config);
    let gmt_sink = gmt.enable_tracing(RING);
    let direct = executor.run_arrivals(gmt, schedule);

    assert_eq!(served_sink.dropped(), 0, "ring too small");
    assert_eq!(gmt_sink.dropped(), 0, "ring too small");
    let served_trace: Vec<TraceRecord> = served_sink
        .snapshot()
        .into_iter()
        .map(|mut r| {
            r.tenant = None;
            r
        })
        .collect();
    let direct_trace = gmt_sink.snapshot();
    let diverged = served_trace
        .iter()
        .zip(&direct_trace)
        .position(|(a, b)| a != b);
    assert_eq!(
        diverged,
        None,
        "traces diverge at record {diverged:?}: service {:?} vs gmt {:?}",
        diverged.map(|i| &served_trace[i]),
        diverged.map(|i| &direct_trace[i]),
    );
    assert_eq!(served_trace.len(), direct_trace.len());
    assert_eq!(
        served.backend.metrics(TenantId(0)),
        direct.backend.metrics()
    );
    assert_eq!(served.elapsed, direct.elapsed);
    served
        .backend
        .check_invariants()
        .expect("service invariants");
    direct.backend.check_invariants().expect("gmt invariants");
}

#[test]
fn one_tenant_fully_shared_service_is_gmt() {
    assert_service_matches_gmt(512, 64, 0.9, 0.2, 3_000, 7);
}

#[test]
fn one_tenant_fully_shared_service_is_gmt_on_larger_zipf_mixes() {
    assert_service_matches_gmt(1_024, 96, 1.1, 0.3, 6_000, 11);
    assert_service_matches_gmt(2_048, 128, 0.7, 0.1, 12_000, 3);
}

/// An eviction never targets Tier-1: a victim leaves for Tier-2 or the
/// SSD, under every partition policy.
#[test]
fn no_policy_evicts_into_tier1() {
    for policy in PartitionPolicy::ALL {
        let mut registry = TenantRegistry::new(64, policy);
        for (i, (pages, skew)) in [(512, 0.9), (768, 1.2)].into_iter().enumerate() {
            let mut spec = zipf_spec(&format!("t{i}"), pages, skew, 0.2, 3_000, 7 + i as u64);
            spec.quota_pages = 32;
            spec.floor_pages = 8;
            registry.admit(spec).expect("admitted");
        }
        let config = ServeConfig {
            gmt: GmtConfig::new(TierGeometry::from_tier1(64, 2.0, 7.0)),
            partition: policy,
        };
        let mut service = TieredService::new(&config, registry).expect("valid config");
        let sink = service.enable_tracing(RING);
        let schedule = service.offered_load();
        let out = Executor::new(ExecutorConfig::default()).run_arrivals(service, schedule);
        assert_eq!(sink.dropped(), 0, "ring too small");
        let evictions = sink
            .snapshot()
            .into_iter()
            .filter(|r| matches!(r.event, TraceEvent::Eviction { .. }))
            .inspect(|r| {
                assert!(
                    !matches!(
                        r.event,
                        TraceEvent::Eviction {
                            target: TierTag::Gpu,
                            ..
                        }
                    ),
                    "{policy}: {r:?} evicts into tier-1"
                );
            })
            .count();
        assert!(evictions > 0, "{policy}: the mix must evict");
        out.backend.check_invariants().expect("invariants");
    }
}
