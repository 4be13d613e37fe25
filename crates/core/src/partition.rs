//! Tier-1 partitioning policies.

use std::fmt;

/// How the shared Tier-1 (GPU memory) is divided among tenants.
///
/// Tier-2, the SSD array and both PCIe directions are *always* shared —
/// partitioning governs only the scarce tier. The four policies span
/// the isolation ↔ utilization trade-off:
///
/// | Policy | Capacity isolation | Work-conserving |
/// |---|---|---|
/// | [`StrictQuota`](PartitionPolicy::StrictQuota) | hard | no |
/// | [`WeightedShares`](PartitionPolicy::WeightedShares) | proportional under contention | yes |
/// | [`SharedQos`](PartitionPolicy::SharedQos) | floor only | yes |
/// | [`FullyShared`](PartitionPolicy::FullyShared) | none | yes |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PartitionPolicy {
    /// Each tenant owns a fixed slice of Tier-1 proportional to its
    /// share and may never exceed it, even when the rest sits idle.
    /// Evictions are always self-evictions.
    StrictQuota,
    /// Tenants may use any amount of Tier-1 while it is free; under
    /// pressure the victim comes from the tenant furthest *above* its
    /// weighted share, driving occupancies toward the share ratios
    /// without wasting idle capacity.
    WeightedShares,
    /// One shared clock over all of Tier-1, except that a tenant
    /// holding no more than its reserved floor is exempt from eviction
    /// — the QoS guarantee: a victim is never taken from a tenant at or
    /// below its floor.
    SharedQos,
    /// One shared clock, no protection: pure LRU-approximation across
    /// all tenants. The baseline that shows interference.
    FullyShared,
}

impl PartitionPolicy {
    /// Every policy, in the order benches sweep them.
    pub const ALL: [PartitionPolicy; 4] = [
        PartitionPolicy::StrictQuota,
        PartitionPolicy::WeightedShares,
        PartitionPolicy::SharedQos,
        PartitionPolicy::FullyShared,
    ];

    /// Short stable name for tables and CLI arguments.
    pub fn name(&self) -> &'static str {
        match self {
            PartitionPolicy::StrictQuota => "strict-quota",
            PartitionPolicy::WeightedShares => "weighted-shares",
            PartitionPolicy::SharedQos => "shared-qos",
            PartitionPolicy::FullyShared => "fully-shared",
        }
    }

    /// Whether the policy pins each tenant to a private Tier-1 region
    /// (as opposed to scanning one shared clock).
    pub fn is_partitioned(&self) -> bool {
        matches!(
            self,
            PartitionPolicy::StrictQuota | PartitionPolicy::WeightedShares
        )
    }
}

impl fmt::Display for PartitionPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_stable() {
        let names: Vec<_> = PartitionPolicy::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            vec![
                "strict-quota",
                "weighted-shares",
                "shared-qos",
                "fully-shared"
            ]
        );
        assert_eq!(PartitionPolicy::StrictQuota.to_string(), "strict-quota");
    }

    #[test]
    fn partitioned_split() {
        assert!(PartitionPolicy::StrictQuota.is_partitioned());
        assert!(PartitionPolicy::WeightedShares.is_partitioned());
        assert!(!PartitionPolicy::SharedQos.is_partitioned());
        assert!(!PartitionPolicy::FullyShared.is_partitioned());
    }
}
