//! Cross-crate integration tests: every tiering system replayed over the
//! same traces, checked against the paper's headline relationships.

use gmt::analysis::runner::{geo_mean, geometry_for, run_system, RunResult, SystemKind};
use gmt::baselines::{Bam, BamConfig};
use gmt::core::PolicyKind;
use gmt::gpu::{Executor, ExecutorConfig};
use gmt::sim::trace::TraceEvent;
use gmt::workloads::{non_graph_suite, suite, Workload, WorkloadScale};

const SEED: u64 = 7;

fn all_systems() -> [SystemKind; 5] {
    [
        SystemKind::Bam,
        SystemKind::Hmm,
        SystemKind::Gmt(PolicyKind::TierOrder),
        SystemKind::Gmt(PolicyKind::Random),
        SystemKind::Gmt(PolicyKind::Reuse),
    ]
}

fn small_suite() -> &'static Vec<Box<dyn Workload>> {
    static SUITE: std::sync::OnceLock<Vec<Box<dyn Workload>>> = std::sync::OnceLock::new();
    SUITE.get_or_init(|| suite(&WorkloadScale::pages(1_000)))
}

fn run(workload: &dyn Workload, system: SystemKind) -> RunResult {
    let geometry = geometry_for(workload, 4.0, 2.0);
    run_system(workload, system, &geometry, SEED)
}

#[test]
fn every_system_services_every_page_touch() {
    for workload in small_suite() {
        let touches: u64 = workload
            .trace(SEED)
            .iter()
            .map(|a| a.pages.len() as u64)
            .sum();
        for system in all_systems() {
            let r = run(workload.as_ref(), system);
            assert_eq!(
                r.metrics.t1_hits + r.metrics.t1_misses,
                touches,
                "{system} dropped touches on {}",
                workload.name()
            );
        }
    }
}

#[test]
fn miss_paths_partition_exactly() {
    for workload in small_suite() {
        for system in all_systems() {
            let r = run(workload.as_ref(), system);
            let m = &r.metrics;
            match system {
                SystemKind::Bam => {
                    assert_eq!(m.ssd_reads, m.t1_misses, "BaM misses go to the SSD");
                    assert_eq!(m.t2_hits, 0);
                }
                _ => {
                    assert_eq!(
                        m.t2_hits + m.ssd_reads,
                        m.t1_misses,
                        "{system} on {}: every miss is a T2 hit or an SSD read",
                        workload.name()
                    );
                }
            }
        }
    }
}

#[test]
fn eviction_destinations_partition_exactly() {
    for workload in small_suite() {
        for policy in PolicyKind::ALL {
            let r = run(workload.as_ref(), SystemKind::Gmt(policy));
            let m = &r.metrics;
            assert_eq!(
                m.t2_placements + m.discards + m.ssd_writes,
                m.t1_evictions,
                "{policy} on {}",
                workload.name()
            );
        }
    }
}

#[test]
fn gmt_reuse_beats_bam_on_average() {
    // The paper's headline: 50% average speedup (Fig. 8a). At small
    // simulation scale we only require a solidly positive margin.
    let mut speedups = Vec::new();
    for workload in small_suite() {
        let bam = run(workload.as_ref(), SystemKind::Bam);
        let reuse = run(workload.as_ref(), SystemKind::Gmt(PolicyKind::Reuse));
        speedups.push(reuse.speedup_over(&bam));
    }
    let mean = geo_mean(speedups.iter().copied());
    assert!(mean > 1.2, "GMT-Reuse geo-mean speedup over BaM: {mean:.3}");
}

#[test]
fn gmt_reuse_beats_the_other_policies_on_average() {
    let mut reuse_s = Vec::new();
    let mut tier_s = Vec::new();
    let mut rand_s = Vec::new();
    for workload in small_suite() {
        let bam = run(workload.as_ref(), SystemKind::Bam);
        reuse_s.push(run(workload.as_ref(), SystemKind::Gmt(PolicyKind::Reuse)).speedup_over(&bam));
        tier_s.push(
            run(workload.as_ref(), SystemKind::Gmt(PolicyKind::TierOrder)).speedup_over(&bam),
        );
        rand_s.push(run(workload.as_ref(), SystemKind::Gmt(PolicyKind::Random)).speedup_over(&bam));
    }
    let reuse = geo_mean(reuse_s);
    let tier = geo_mean(tier_s);
    let rand = geo_mean(rand_s);
    assert!(reuse > rand, "Reuse {reuse:.3} must beat Random {rand:.3}");
    assert!(
        reuse >= tier * 0.95,
        "Reuse {reuse:.3} must be at least on par with TierOrder {tier:.3}"
    );
}

#[test]
fn hmm_loses_to_bam_everywhere() {
    // Fig. 14: CPU orchestration cannot keep up, despite its Tier-2.
    for workload in small_suite() {
        let bam = run(workload.as_ref(), SystemKind::Bam);
        let hmm = run(workload.as_ref(), SystemKind::Hmm);
        assert!(
            hmm.speedup_over(&bam) < 1.0,
            "HMM beat BaM on {}: {:.3}",
            workload.name(),
            hmm.speedup_over(&bam)
        );
    }
}

#[test]
fn tier2_reduces_ssd_io() {
    // Fig. 8b: the 3-tier policies all cut SSD I/O relative to BaM.
    for workload in small_suite() {
        let bam = run(workload.as_ref(), SystemKind::Bam);
        let reuse = run(workload.as_ref(), SystemKind::Gmt(PolicyKind::Reuse));
        assert!(
            reuse.metrics.ssd_ios() <= bam.metrics.ssd_ios(),
            "GMT-Reuse increased I/O on {}",
            workload.name()
        );
    }
}

#[test]
fn runs_are_deterministic() {
    let workload = &small_suite()[4]; // Srad
    let a = run(workload.as_ref(), SystemKind::Gmt(PolicyKind::Reuse));
    let b = run(workload.as_ref(), SystemKind::Gmt(PolicyKind::Reuse));
    assert_eq!(a.elapsed, b.elapsed);
    assert_eq!(a.metrics, b.metrics);
}

#[test]
fn larger_tier2_never_hurts_reuse() {
    // Fig. 12's monotonicity, coarsely: ratio 8 must not be slower than
    // ratio 2 for the Tier-2-biased workloads.
    for workload in small_suite() {
        let name = workload.name();
        if !matches!(name, "Srad" | "Backprop" | "MultiVectorAdd") {
            continue;
        }
        let g2 = geometry_for(workload.as_ref(), 2.0, 2.0);
        let g8 = geometry_for(workload.as_ref(), 8.0, 2.0);
        let r2 = run_system(
            workload.as_ref(),
            SystemKind::Gmt(PolicyKind::Reuse),
            &g2,
            SEED,
        );
        let r8 = run_system(
            workload.as_ref(),
            SystemKind::Gmt(PolicyKind::Reuse),
            &g8,
            SEED,
        );
        assert!(
            r8.elapsed.as_nanos() <= r2.elapsed.as_nanos() * 11 / 10,
            "{name}: ratio 8 ({}) much slower than ratio 2 ({})",
            r8.elapsed,
            r2.elapsed
        );
    }
}

#[test]
fn bam_ring_outputs_are_pinned() {
    // BaM's simulated outputs are the denominator of every Fig. 8
    // speedup; a change to the NVMe queue model must not move them.
    // At 4,000 pages every regular app keeps BaM's 1,024-deep ring
    // full. Columns: elapsed ns, SSD reads, SSD writes, Tier-1 hits,
    // Tier-1 misses.
    let pinned: [(&str, [u64; 5]); 6] = [
        ("lavaMD", [102_737_190, 3_456, 1_555, 85, 3_456]),
        ("Pathfinder", [85_636_390, 4_068, 108, 7_452, 4_068]),
        ("MultiVectorAdd", [200_611_110, 6_660, 3_130, 0, 6_660]),
        ("Srad", [974_959_910, 32_000, 15_600, 0, 32_000]),
        ("Backprop", [1_410_159_910, 45_250, 23_600, 2_750, 45_250]),
        ("Hotspot", [870_962_470, 31_992, 10_530, 0, 31_992]),
    ];
    let workloads = non_graph_suite(&WorkloadScale::pages(4_000));
    assert_eq!(workloads.len(), pinned.len());
    for (workload, (name, want)) in workloads.iter().zip(pinned) {
        assert_eq!(workload.name(), name);
        let geometry = geometry_for(workload.as_ref(), 4.0, 2.0);
        let r = run_system(workload.as_ref(), SystemKind::Bam, &geometry, SEED);
        let m = &r.metrics;
        let got = [
            r.elapsed.as_nanos(),
            m.ssd_reads,
            m.ssd_writes,
            m.t1_hits,
            m.t1_misses,
        ];
        assert_eq!(got, want, "{name}: BaM outputs moved");

        // The same run traced: tracing changes nothing, and the ring
        // really does fill (one slot stays empty, so full is depth - 1).
        let config = BamConfig::new(geometry);
        let mut bam = Bam::new(config);
        let sink = bam.enable_tracing(1 << 20);
        let out = Executor::new(ExecutorConfig::default()).run(bam, workload.trace(SEED));
        assert_eq!(out.elapsed, r.elapsed, "{name}: tracing moved BaM");
        assert_eq!(
            out.backend.metrics(),
            r.metrics,
            "{name}: tracing moved BaM"
        );
        assert_eq!(sink.dropped(), 0);
        let mut peak = 0;
        sink.visit(|rec| {
            if let TraceEvent::RingSubmit { queue_depth, .. } = rec.event {
                peak = peak.max(queue_depth as usize);
            }
        });
        assert_eq!(peak, config.queue_depth - 1, "{name}: ring never filled");
    }
}
