//! A warp access may touch more distinct pages than Tier-1 (or a strict
//! quota slice) holds at once. The runtime must still serve it, in
//! batches that fit, and keep its structures consistent.

use gmt_core::{Gmt, GmtConfig, PartitionPolicy, PolicyKind, TenantShare};
use gmt_gpu::MemoryBackend;
use gmt_mem::{PageId, TierGeometry, WarpAccess};
use gmt_sim::Time;

fn pages(first: u64, count: u64) -> Vec<PageId> {
    (first..first + count).map(PageId).collect()
}

/// Three 32-page accesses against 16 Tier-1 slots: cold from the SSD,
/// then overlapping ones that also hit Tier-2.
fn drive(gmt: &mut Gmt, tier1_slots: usize) {
    let mut now = Time::ZERO;
    for (first, write) in [(0, true), (16, false), (0, false)] {
        let access = WarpAccess::scattered(pages(first, 32), write);
        now = gmt.access(now, &access);
        gmt.check_invariants().expect("invariants hold");
        assert!(gmt.tier1_resident() <= tier1_slots);
    }
    let m = gmt.metrics();
    assert_eq!(m.t1_hits + m.t1_misses, 96);
    assert_eq!(m.t2_hits + m.wasteful_lookups, m.t1_misses);
    assert_eq!(m.t2_placements + m.discards + m.ssd_writes, m.t1_evictions);
}

#[test]
fn every_policy_serves_an_access_larger_than_tier1() {
    for policy in PolicyKind::ALL {
        let config = GmtConfig::new(TierGeometry::from_tier1(16, 2.0, 2.0)).with_policy(policy);
        drive(&mut Gmt::new(config), 16);
    }
}

#[test]
fn a_strict_quota_tenant_serves_an_access_larger_than_its_slice() {
    let share = |base| TenantShare {
        base,
        span: 64,
        quota: 16,
        weight: 1,
        floor: 0,
    };
    let config = GmtConfig::new(TierGeometry::from_tier1(32, 2.0, 2.0));
    let mut gmt = Gmt::with_tenants(config, PartitionPolicy::StrictQuota, &[share(0), share(64)])
        .expect("valid config");
    drive(&mut gmt, 16);
    assert_eq!(gmt.tenant_resident(0), 16);
    assert_eq!(gmt.tenant_resident(1), 0);
}

/// Under shared QoS a batch must leave the other tenants' floor-protected
/// pages alone: with tenant 1 at its 8-page floor, tenant 0 can evict
/// only its own 8 pages per batch, so a 12-page miss takes two.
#[test]
fn a_shared_qos_tenant_serves_an_access_larger_than_tier1_less_the_floors() {
    for policy in PolicyKind::ALL {
        let share = |base, floor| TenantShare {
            base,
            span: 32,
            quota: 0,
            weight: 1,
            floor,
        };
        let config = GmtConfig::new(TierGeometry::from_tier1(16, 2.0, 2.0)).with_policy(policy);
        let mut gmt = Gmt::with_tenants(
            config,
            PartitionPolicy::SharedQos,
            &[share(0, 0), share(32, 8)],
        )
        .expect("valid config");
        let mut now = Time::ZERO;
        for (first, count) in [(32, 8), (0, 8), (8, 12)] {
            now = gmt.access(now, &WarpAccess::scattered(pages(first, count), false));
            gmt.check_invariants().expect("invariants hold");
        }
        assert_eq!(gmt.tenant_resident(1), 8, "{policy:?}: the floor holds");
        assert_eq!(gmt.tenant_resident(0), 8, "{policy:?}");
        assert_eq!(gmt.metrics().t1_misses, 28, "{policy:?}");
    }
}
