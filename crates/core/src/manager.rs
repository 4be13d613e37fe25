//! The 3-tier memory manager.

use std::collections::VecDeque;

use gmt_gpu::MemoryBackend;
use gmt_mem::{ClockList, PageId, PageTable, Tier, WarpAccess};
use gmt_pcie::{HostLink, TransferBatch};
use gmt_reuse::{MarkovPredictor, PageHistory, SamplingRegression, TierClassifier};
use gmt_sim::trace::{LinkDir, TierTag, TraceEvent, TraceSink};
use gmt_sim::Time;
use gmt_ssd::array::{ArrayConfig, SsdArray};
use gmt_ssd::host_io::{HostIo, HostIoConfig};
use rand::rngs::StdRng;
use rand::Rng;

use crate::tier2::Tier2Cache;
use crate::{
    ConfigError, GmtConfig, MarkovScope, PartitionPolicy, PolicyKind, PredictorKind, Tier2Insert,
    TieringMetrics,
};

/// Per-page state maintained by the runtime.
#[derive(Debug, Clone)]
struct PageMeta {
    /// Which tier currently holds the page.
    tier: Tier,
    /// Whether the page has been modified since it last left the SSD.
    dirty: bool,
    /// When the page's in-flight transfer (if any) completes.
    ready_at: Time,
    /// Virtual-timestamp value at the page's last Tier-1 eviction, used to
    /// compute the actual RVTD when the page returns (§2.1.3 step 2).
    evicted_at_vt: Option<u64>,
    /// Page touches since the page last entered Tier-1 (1 = the demand
    /// fill itself). Distinguishes streaming pages from reused ones when
    /// no eviction history exists yet.
    touches_since_load: u32,
    /// The tier GMT-Reuse predicted at the last eviction (for Fig. 9).
    predicted: Option<Tier>,
    /// Last two known correct tiers (drives the Markov predictor).
    history: PageHistory,
}

impl Default for PageMeta {
    fn default() -> PageMeta {
        PageMeta {
            tier: Tier::Ssd,
            dirty: false,
            ready_at: Time::ZERO,
            evicted_at_vt: None,
            touches_since_load: 0,
            predicted: None,
            history: PageHistory::default(),
        }
    }
}

/// Sliding window over recent eviction predictions for the 80 %
/// Tier-3-pressure heuristic (§2.2).
#[derive(Debug, Clone)]
struct BypassWindow {
    recent: VecDeque<bool>,
    t3_count: usize,
    capacity: usize,
}

impl BypassWindow {
    fn new(capacity: usize) -> BypassWindow {
        BypassWindow {
            recent: VecDeque::with_capacity(capacity),
            t3_count: 0,
            capacity,
        }
    }

    fn push(&mut self, predicted_t3: bool) {
        // gmt-lint: allow(P1): len == capacity > 0 guarantees a front element.
        if self.recent.len() == self.capacity && self.recent.pop_front().expect("window non-empty")
        {
            self.t3_count -= 1;
        }
        self.recent.push_back(predicted_t3);
        if predicted_t3 {
            self.t3_count += 1;
        }
    }

    /// Fraction of recent evictions predicted Tier-3; `None` until the
    /// window has filled once.
    fn t3_fraction(&self) -> Option<f64> {
        (self.recent.len() == self.capacity).then(|| self.t3_count as f64 / self.capacity as f64)
    }
}

/// Histograms of miss-service latencies, per source tier.
///
/// The paper's §3.4 grounds its analysis in two numbers — a host-memory
/// fetch costs ≈50 µs and an SSD fetch ≈130 µs. These distributions are
/// the simulated equivalents, measured per miss at the warp's
/// observation point (including queueing).
#[derive(Debug, Clone, Default)]
pub struct LatencyBreakdown {
    /// Service time of Tier-1 misses satisfied from host memory (ns).
    pub tier2_fetch_ns: gmt_sim::stats::Histogram,
    /// Service time of Tier-1 misses satisfied from the SSD (ns).
    pub ssd_fetch_ns: gmt_sim::stats::Histogram,
}

/// A consistency snapshot of the runtime's tier state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierSnapshot {
    /// Pages resident in Tier-1 (GPU memory).
    pub tier1_pages: usize,
    /// Pages resident in Tier-2 (host memory).
    pub tier2_pages: usize,
    /// Pages resident only on the SSD.
    pub ssd_pages: usize,
    /// Dirty pages in Tier-1.
    pub dirty_tier1: usize,
    /// Dirty pages in Tier-2 (not yet written back).
    pub dirty_tier2: usize,
}

/// One tenant's slice of a shared runtime, as [`Gmt::with_tenants`]
/// takes it. Which ask matters depends on the [`PartitionPolicy`]; the
/// others are ignored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantShare {
    /// First page of the tenant's range in the shared address space.
    pub base: u64,
    /// Pages in the tenant's range.
    pub span: usize,
    /// Private Tier-1 slice under [`PartitionPolicy::StrictQuota`], in
    /// pages.
    pub quota: usize,
    /// Relative share of Tier-1 under [`PartitionPolicy::WeightedShares`].
    pub weight: u32,
    /// Eviction-exempt Tier-1 reservation under
    /// [`PartitionPolicy::SharedQos`], in pages.
    pub floor: usize,
}

/// Everything the runtime keeps per tenant: the reuse machinery and the
/// tenant's counters. Tier-2, the SSDs and both PCIe directions are
/// shared, so contention crosses tenants even when capacity does not.
#[derive(Debug)]
struct Tenant {
    share: TenantShare,
    /// The coalesced-access counter ("virtual timestamp", §2.1.3). It
    /// ticks only on this tenant's touches, so RVTDs measure the
    /// tenant's own reuse distance whatever the other tenants do.
    vt: u64,
    sampler: SamplingRegression,
    classifier: TierClassifier,
    markov: MarkovPredictor,
    /// Per tenant, so one tenant's streaming phase cannot force another
    /// tenant's victims into Tier-2.
    bypass: BypassWindow,
    metrics: TieringMetrics,
    /// Pages the tenant holds in Tier-1.
    resident: usize,
    /// Misses that always fit one batch: the tenant's Tier-1 less, under
    /// [`PartitionPolicy::SharedQos`], the other tenants' floors.
    one_batch: usize,
}

/// The GMT runtime (paper §2).
///
/// Implements [`MemoryBackend`]: feed it coalesced warp accesses via
/// [`gmt_gpu::Executor`] and read the [`TieringMetrics`] afterwards.
///
/// [`Gmt::new`] serves one address space. [`Gmt::with_tenants`] shares
/// one hierarchy among tenants with disjoint page ranges: each tenant
/// gets its own reuse machinery and counters, and Tier-1 is divided per
/// a [`PartitionPolicy`]. A single-tenant runtime is the one-tenant
/// [`PartitionPolicy::FullyShared`] case.
///
/// Like the paper's measurements, a run ends when the last access's data
/// is available: dirty pages still resident in Tier-1/Tier-2 are *not*
/// flushed at the end (the same convention applies to BaM and HMM, so
/// comparisons stay like-for-like; `snapshot()` exposes the residual
/// dirty state).
///
/// # Examples
///
/// ```
/// use gmt_core::{Gmt, GmtConfig, PolicyKind};
/// use gmt_gpu::{Executor, ExecutorConfig};
/// use gmt_mem::{PageId, TierGeometry, WarpAccess};
///
/// let geometry = TierGeometry::from_tier1(64, 4.0, 2.0);
/// let gmt = Gmt::new(GmtConfig::new(geometry).with_policy(PolicyKind::Reuse));
/// let trace = (0..3u64).flat_map(|_| (0..640).map(|p| WarpAccess::read(PageId(p))));
/// let out = Executor::new(ExecutorConfig::default()).run(gmt, trace);
/// let metrics = out.backend.metrics();
/// assert!(metrics.t1_misses > 0);
/// ```
#[derive(Debug)]
pub struct Gmt {
    config: GmtConfig,
    tier2_insert: Tier2Insert,
    partition: PartitionPolicy,
    /// Ordered by ascending, disjoint page ranges.
    tenants: Vec<Tenant>,
    /// Tier-1: one clock per tenant under a partitioned policy, else
    /// one shared clock.
    clocks: Vec<ClockList>,
    /// Whether trace records carry the tenant whose access they serve.
    stamp_tenants: bool,
    tier2: Tier2Cache,
    table: PageTable<PageMeta>,
    /// Per-page matrices when [`MarkovScope::PerPage`] is configured.
    per_page_markov: Option<Vec<MarkovPredictor>>,
    ssd: SsdArray,
    /// Host userspace I/O for Tier-2 → Tier-3 write-backs (libnvm, §2.3).
    host_io: HostIo,
    /// Host → device path (fetches from Tier-2).
    to_gpu: HostLink,
    /// Device → host path (evictions into Tier-2).
    to_host: HostLink,
    rng: StdRng,
    latency: LatencyBreakdown,
    trace: TraceSink,
    /// Reused per-access miss buffers: `access` runs once per simulated
    /// event, so allocating these there would churn the allocator on the
    /// hottest path (A1). Taken with `mem::take` for the duration of the
    /// call and put back cleared, capacity intact.
    scratch_tier2: Vec<PageId>,
    scratch_ssd: Vec<PageId>,
}

/// Maps the memory model's [`Tier`] onto the trace vocabulary.
fn tier_tag(tier: Tier) -> TierTag {
    match tier {
        Tier::Gpu => TierTag::Gpu,
        Tier::Host => TierTag::Host,
        Tier::Ssd => TierTag::Ssd,
    }
}

impl Gmt {
    /// Builds a runtime from `config`.
    ///
    /// # Panics
    ///
    /// Panics with the [`crate::ConfigError`]'s message if
    /// [`GmtConfig::validate`] rejects `config` (zero-capacity tiers,
    /// prefetch degree overflowing Tier-1, out-of-range bypass
    /// threshold, ...). Use [`crate::GmtBuilder::try_build`] to handle
    /// the error instead.
    pub fn new(config: GmtConfig) -> Gmt {
        let g = &config.geometry;
        let whole = TenantShare {
            base: 0,
            span: g.total_pages,
            quota: g.tier1_pages,
            weight: 1,
            floor: 0,
        };
        match Gmt::with_tenants(config, PartitionPolicy::FullyShared, &[whole]) {
            Ok(gmt) => Gmt {
                stamp_tenants: false,
                ..gmt
            },
            // gmt-lint: allow(P1): documented panic; GmtBuilder::try_build is the typed-error path.
            Err(err) => panic!("invalid GMT configuration: {err}"),
        }
    }

    /// Builds a runtime shared by `tenants`, with Tier-1 divided per
    /// `partition`. Trace records emitted while serving an access carry
    /// the index of the tenant that issued it.
    ///
    /// # Errors
    ///
    /// Returns the [`ConfigError`] if [`GmtConfig::validate`] rejects
    /// `config`.
    ///
    /// # Panics
    ///
    /// Panics if the tenants' page ranges are not ascending and disjoint
    /// or do not fit the address space.
    pub fn with_tenants(
        config: GmtConfig,
        partition: PartitionPolicy,
        tenants: &[TenantShare],
    ) -> Result<Gmt, ConfigError> {
        config.validate()?;
        let mut end = 0;
        for share in tenants {
            assert!(share.base >= end, "tenant ranges overlap or are unsorted");
            end = share.base + share.span as u64;
        }
        assert!(
            end <= config.geometry.total_pages as u64,
            "tenant ranges ({end} pages) exceed the address space ({} pages)",
            config.geometry.total_pages
        );
        let g = &config.geometry;
        // One root RNG seeds every stochastic component: child streams are
        // drawn from it (always, so the root stream does not depend on
        // which components happen to be stochastic in this configuration).
        let mut rng = gmt_sim::rng::seeded(config.seed);
        let tier2_seed: u64 = rng.gen();
        let tier2_insert = config.effective_tier2_insert();
        // The Tier-1 pages a tenant can hold: a strict quota's slice, or
        // the whole tier. Eq. 1 classifies against it.
        let slice = |share: &TenantShare| match partition {
            PartitionPolicy::StrictQuota => share.quota,
            _ => g.tier1_pages,
        };
        let floors: usize = match partition {
            PartitionPolicy::SharedQos => tenants.iter().map(|s| s.floor).sum(),
            _ => 0,
        };
        let tenants: Vec<Tenant> = tenants
            .iter()
            .map(|&share| Tenant {
                share,
                vt: 0,
                sampler: SamplingRegression::new(config.reuse.sampler),
                classifier: TierClassifier::new(slice(&share) as u64, g.tier2_pages as u64),
                markov: MarkovPredictor::new(),
                bypass: BypassWindow::new(config.reuse.bypass_window),
                metrics: TieringMetrics::default(),
                resident: 0,
                one_batch: slice(&share).saturating_sub(floors.saturating_sub(share.floor)),
            })
            .collect();
        let clocks = if partition.is_partitioned() {
            tenants
                .iter()
                .map(|t| ClockList::new(slice(&t.share)))
                .collect()
        } else {
            vec![ClockList::new(g.tier1_pages)]
        };
        Ok(Gmt {
            tier2_insert,
            partition,
            tenants,
            clocks,
            stamp_tenants: true,
            tier2: match tier2_insert {
                Tier2Insert::EvictClock => Tier2Cache::clock(g.tier2_pages),
                Tier2Insert::EvictRandom => Tier2Cache::random(g.tier2_pages, tier2_seed),
                _ => Tier2Cache::fifo(g.tier2_pages),
            },
            table: PageTable::new(g.total_pages),
            per_page_markov: (config.reuse.markov_scope == MarkovScope::PerPage)
                .then(|| vec![MarkovPredictor::new(); g.total_pages]),
            ssd: SsdArray::new(ArrayConfig {
                device: config.ssd,
                devices: config.ssd_devices,
                stripe_bytes: g.page_bytes,
            }),
            host_io: HostIo::new(HostIoConfig::default()),
            to_gpu: HostLink::new(config.host_link),
            to_host: HostLink::new(config.host_link),
            rng,
            latency: LatencyBreakdown::default(),
            trace: TraceSink::disabled(),
            scratch_tier2: Vec::new(),
            scratch_ssd: Vec::new(),
            config,
        })
    }

    /// Turns on decision tracing into a fresh ring of `capacity` records
    /// and wires every component (SSD devices, both PCIe directions) into
    /// it. Returns a handle to the shared sink — clone it into an
    /// [`gmt_gpu::Executor`] via `attach_trace` to also capture warp
    /// issues.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn enable_tracing(&mut self, capacity: usize) -> TraceSink {
        let sink = TraceSink::bounded(capacity);
        self.trace = sink.clone();
        self.ssd.attach_trace(&sink);
        self.to_gpu.attach_trace(&sink, LinkDir::ToGpu);
        self.to_host.attach_trace(&sink, LinkDir::ToHost);
        sink
    }

    /// The runtime's trace sink (disabled unless
    /// [`Gmt::enable_tracing`] was called).
    pub fn trace(&self) -> &TraceSink {
        &self.trace
    }

    /// The runtime's configuration.
    pub fn config(&self) -> &GmtConfig {
        &self.config
    }

    /// Counters accumulated so far, summed over every tenant.
    pub fn metrics(&self) -> TieringMetrics {
        let mut total = TieringMetrics::default();
        for t in &self.tenants {
            total.merge(&t.metrics);
        }
        total
    }

    /// Counters accumulated for tenant `tenant` (an index into the
    /// [`Gmt::with_tenants`] list).
    pub fn tenant_metrics(&self, tenant: usize) -> TieringMetrics {
        self.tenants[tenant].metrics
    }

    /// Pages tenant `tenant` holds in Tier-1.
    pub fn tenant_resident(&self, tenant: usize) -> usize {
        self.tenants[tenant].resident
    }

    /// Pages resident in Tier-1 across every tenant.
    pub fn tier1_resident(&self) -> usize {
        self.tenants.iter().map(|t| t.resident).sum()
    }

    /// The index of the tenant whose range holds `page`.
    ///
    /// # Panics
    ///
    /// Panics if `page` is outside every tenant's range.
    pub fn tenant_of(&self, page: PageId) -> usize {
        let i = self
            .tenants
            .partition_point(|t| t.share.base <= page.0)
            .checked_sub(1)
            // gmt-lint: allow(P1): documented panic for out-of-range pages.
            .expect("page below every tenant base");
        let share = &self.tenants[i].share;
        assert!(
            page.0 < share.base + share.span as u64,
            "{page} falls in the gap after tenant {i}"
        );
        i
    }

    /// [`Gmt::tenant_of`] for a page known to be in some tenant's range;
    /// a one-tenant runtime skips the search.
    fn owner(&self, page: PageId) -> usize {
        if self.tenants.len() == 1 {
            0
        } else {
            self.tenant_of(page)
        }
    }

    /// Miss-service latency distributions (the §3.4 numbers, measured).
    pub fn latency_breakdown(&self) -> &LatencyBreakdown {
        &self.latency
    }

    /// The SSD device's own statistics (bytes, command counts).
    pub fn ssd_stats(&self) -> gmt_ssd::SsdStats {
        self.ssd.stats()
    }

    /// Pages currently resident in Tier-2.
    pub fn tier2_occupancy(&self) -> usize {
        self.tier2.len()
    }

    /// Takes a consistency snapshot of where every page lives.
    pub fn snapshot(&self) -> TierSnapshot {
        let mut snap = TierSnapshot::default();
        for (_, meta) in self.table.iter() {
            match meta.tier {
                Tier::Gpu => {
                    snap.tier1_pages += 1;
                    snap.dirty_tier1 += meta.dirty as usize;
                }
                Tier::Host => {
                    snap.tier2_pages += 1;
                    snap.dirty_tier2 += meta.dirty as usize;
                }
                Tier::Ssd => snap.ssd_pages += 1,
            }
        }
        snap
    }

    /// Verifies the runtime's structural invariants: the page table, the
    /// Tier-1 clocks, the tenants' resident counters and the Tier-2
    /// residency structure must agree, strict quotas must hold, and
    /// every page must live in exactly one tier.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant. Intended
    /// for tests and debugging; O(total pages).
    pub fn check_invariants(&self) -> Result<(), String> {
        let snap = self.snapshot();
        let in_clocks: usize = self.clocks.iter().map(ClockList::len).sum();
        if snap.tier1_pages != in_clocks || in_clocks > self.config.geometry.tier1_pages {
            return Err(format!(
                "page table says {} Tier-1 pages but the clocks hold {in_clocks} of {}",
                snap.tier1_pages, self.config.geometry.tier1_pages
            ));
        }
        if snap.tier2_pages != self.tier2.len() {
            return Err(format!(
                "page table says {} Tier-2 pages but tier-2 holds {}",
                snap.tier2_pages,
                self.tier2.len()
            ));
        }
        if snap.tier1_pages + snap.tier2_pages + snap.ssd_pages != self.table.len() {
            return Err("tiers do not partition the address space".into());
        }
        // Record the first violation and format it outside the loops so
        // the sweeps stay allocation-free (A1).
        let mut held = vec![0usize; self.tenants.len()];
        let mut bad: Option<(PageId, &'static str)> = None;
        for (page, meta) in self.table.iter() {
            let in_clock = match meta.tier {
                Tier::Gpu => {
                    let owner = self.owner(page);
                    held[owner] += 1;
                    self.clocks[self.clock_of(owner)].contains(page)
                }
                _ => self.clocks.iter().any(|c| c.contains(page)),
            };
            let in_tier2 = self.tier2.contains(page);
            let what = match meta.tier {
                Tier::Gpu if !in_clock => Some("marked Tier-1 but absent from its clock"),
                Tier::Host if !in_tier2 => Some("marked Tier-2 but absent from tier-2"),
                Tier::Ssd if in_clock || in_tier2 => {
                    Some("marked SSD but resident in a memory tier")
                }
                _ if in_clock && in_tier2 => Some("duplicated across tiers"),
                _ => None,
            };
            if let Some(what) = what {
                bad = Some((page, what));
                break;
            }
        }
        if let Some((page, what)) = bad {
            return Err(format!("{page} {what}"));
        }
        let strict = self.partition == PartitionPolicy::StrictQuota;
        let drifted = self
            .tenants
            .iter()
            .zip(held)
            .position(|(t, held)| t.resident != held || strict && t.resident > t.share.quota);
        match drifted {
            Some(i) => Err(format!(
                "tenant {i}'s resident counter disagrees with its Tier-1 pages or quota"
            )),
            None => Ok(()),
        }
    }

    fn page_bytes(&self) -> u64 {
        self.config.geometry.page_bytes
    }

    fn ssd_offset(&self, page: PageId) -> u64 {
        page.0 * self.page_bytes()
    }

    /// The clock holding tenant `t`'s Tier-1 pages.
    fn clock_of(&self, t: usize) -> usize {
        if self.partition.is_partitioned() {
            t
        } else {
            0
        }
    }

    /// Free Tier-1 slots available to a fault by tenant `t`.
    fn free_slots(&self, t: usize) -> usize {
        if self.partition == PartitionPolicy::WeightedShares {
            self.config.geometry.tier1_pages - self.tier1_resident()
        } else {
            let clock = &self.clocks[self.clock_of(t)];
            clock.capacity() - clock.len()
        }
    }

    /// The most misses one batch of tenant `t` can serve: its clock's
    /// capacity less, under shared QoS, the pages other tenants hold at
    /// or below their floors, which victim selection must skip.
    fn batch_room(&self, t: usize) -> usize {
        let capacity = self.clocks[self.clock_of(t)].capacity();
        if self.partition != PartitionPolicy::SharedQos {
            return capacity;
        }
        let protected: usize = self
            .tenants
            .iter()
            .enumerate()
            .filter(|&(o, _)| o != t)
            .map(|(_, other)| other.share.floor.min(other.resident))
            .sum();
        capacity.saturating_sub(protected).max(1)
    }

    /// Installs `page` in tenant `t`'s Tier-1.
    fn install(&mut self, t: usize, page: PageId) {
        let c = self.clock_of(t);
        self.clocks[c].insert(page);
        self.tenants[t].resident += 1;
    }

    /// Bookkeeping when `page`, owned by tenant `t`, re-enters Tier-1:
    /// its actual RVTD since the last eviction is now known, so the
    /// correct tier can be computed (Eq. 1 over the regression-projected
    /// RRD), the Markov chain trained, and the old prediction graded
    /// (Fig. 9).
    fn on_refill(&mut self, now: Time, t: usize, page: PageId) {
        let tenant = &mut self.tenants[t];
        let meta = self.table.get_mut(page);
        if let Some(evicted_vt) = meta.evicted_at_vt.take() {
            let rvtd = tenant.vt.saturating_sub(evicted_vt);
            let correct = tenant.classifier.classify_rvtd(rvtd, &tenant.sampler.fit());
            if let Some(predicted) = meta.predicted.take() {
                tenant.metrics.predictions += 1;
                if predicted == correct {
                    tenant.metrics.predictions_correct += 1;
                }
                self.trace.emit(
                    now,
                    TraceEvent::PredictionGraded {
                        page: page.0,
                        predicted: tier_tag(predicted),
                        actual: tier_tag(correct),
                        correct: predicted == correct,
                    },
                );
            }
            let matrix = match &mut self.per_page_markov {
                Some(per_page) => &mut per_page[page.index()],
                None => &mut tenant.markov,
            };
            meta.history.observe(correct, matrix);
        }
    }

    /// Predicts the tier an eviction candidate owned by tenant `owner`
    /// next reuses in.
    ///
    /// With history, this is the Markov chain's heaviest transition out of
    /// the last correct tier (§2.1.3 step 2). A page with no completed
    /// round trip falls back to a default strategy (the paper proceeds
    /// with a default until enough signal accumulates): pages that were
    /// never re-touched during their Tier-1 residency look like streams
    /// and default to the long-reuse class; anything with observed reuse
    /// defaults to Tier-2, TierOrder-style.
    fn predict_tier(&self, page: PageId, owner: usize) -> Tier {
        let meta = self.table.get(page);
        match meta.history.last() {
            Some(last) => match self.config.reuse.predictor {
                PredictorKind::Markov => match &self.per_page_markov {
                    Some(per_page) => per_page[page.index()].predict(last),
                    None => self.tenants[owner].markov.predict(last),
                },
                PredictorKind::LastTier => last,
                PredictorKind::AlwaysHost => Tier::Host,
            },
            None if meta.touches_since_load <= 1 => Tier::Ssd,
            None => Tier::Host,
        }
    }

    /// The weighted-shares victim tenant: the one furthest above its
    /// weighted share (largest resident-per-weight), among tenants that
    /// hold anything at all. Work-conserving: idle tenants' capacity is
    /// reclaimed from whoever borrowed the most.
    fn most_over_share(&self) -> usize {
        self.tenants
            .iter()
            .enumerate()
            .filter(|(_, t)| t.resident > 0)
            .max_by(|(_, a), (_, b)| {
                let ka = a.resident as f64 / a.share.weight as f64;
                let kb = b.resident as f64 / b.share.weight as f64;
                // gmt-lint: allow(P1): weights are validated non-zero, so ratios are never NaN.
                ka.partial_cmp(&kb).expect("ratios are finite")
            })
            .map(|(i, _)| i)
            // gmt-lint: allow(P1): eviction only runs once tier-1 is full, so a tenant has pages.
            .expect("eviction requested from an empty tier-1")
    }

    /// Selects the Tier-1 victim of a fault by tenant `t`; returns
    /// `(victim, target tier, predicted tier)`. The clock scanned is the
    /// shared one, `t`'s own under a strict quota, or that of the tenant
    /// furthest above its weighted share; that clock's `account` tenant
    /// is charged the short-reuse keeps and the bypass window.
    ///
    /// Under shared QoS, candidates of another tenant at or below its
    /// floor are skipped first and never count as keeps (admission keeps
    /// `Σ floors < tier1_pages`, so some candidate is evictable).
    /// GMT-Reuse keeps up to `max_skips` short-reuse candidates; the next
    /// candidate goes to Tier-2 without a prediction.
    fn select_victim(&mut self, t: usize) -> (PageId, Tier, Tier) {
        let account = match self.partition {
            PartitionPolicy::WeightedShares => self.most_over_share(),
            _ => t,
        };
        let c = self.clock_of(account);
        let qos = self.partition == PartitionPolicy::SharedQos;
        let mut keeps = 0;
        let mut floor_skips = 0;
        loop {
            // gmt-lint: allow(P1): eviction only runs once tier-1 is full, so the clock is non-empty.
            let candidate = self.clocks[c].candidate().expect("tier-1 is full");
            let owner = self.owner(candidate);
            if qos && owner != t && self.tenants[owner].resident <= self.tenants[owner].share.floor
            {
                // Floor skips re-arm reference bits, so one extra lap
                // clears them; 4 laps bounds the scan far above any
                // reachable case.
                floor_skips += 1;
                assert!(
                    floor_skips <= 4 * self.clocks[c].capacity(),
                    "no evictable page found; admission floors must be violated"
                );
                self.clocks[c].skip_candidate();
                continue;
            }
            let (target, predicted) = match self.config.policy {
                PolicyKind::TierOrder => (Tier::Host, Tier::Host),
                PolicyKind::Random => {
                    let tier = if self.rng.gen_bool(0.5) {
                        Tier::Host
                    } else {
                        Tier::Ssd
                    };
                    (tier, tier)
                }
                PolicyKind::Reuse if keeps == self.config.reuse.max_skips => {
                    // Everything looked short-reuse: evict the clock's
                    // pick to Tier-2 without predicting it.
                    self.tenants[account].bypass.push(false);
                    (Tier::Host, Tier::Gpu)
                }
                PolicyKind::Reuse => {
                    let predicted = self.predict_tier(candidate, owner);
                    if predicted == Tier::Gpu {
                        keeps += 1;
                        self.tenants[account].metrics.short_reuse_keeps += 1;
                        self.clocks[c].skip_candidate();
                        continue;
                    }
                    // The §2.2 heuristic: under Tier-3 pressure a
                    // predicted-Tier-3 victim goes to Tier-2 anyway.
                    let threshold = self.config.reuse.bypass_threshold;
                    let tenant = &mut self.tenants[account];
                    tenant.bypass.push(predicted == Tier::Ssd);
                    let pressure = tenant.bypass.t3_fraction().is_some_and(|f| f > threshold);
                    if predicted == Tier::Ssd && pressure {
                        tenant.metrics.forced_t2_placements += 1;
                        (Tier::Host, predicted)
                    } else {
                        (predicted, predicted)
                    }
                }
            };
            let victim = self.clocks[c].evict_candidate();
            debug_assert_eq!(victim, candidate);
            return (victim, target, predicted);
        }
    }

    /// Evicts one Tier-1 page to make room for a fault by tenant `t`;
    /// returns when the warp performing the eviction is done with it.
    fn evict_one(&mut self, now: Time, t: usize) -> Time {
        let (victim, target, predicted) = self.select_victim(t);
        let owner = self.owner(victim);
        self.tenants[owner].resident -= 1;
        self.tenants[t].metrics.t1_evictions += 1;
        let reuse = self.config.policy == PolicyKind::Reuse;
        let meta = self.table.get_mut(victim);
        meta.evicted_at_vt = Some(self.tenants[owner].vt);
        meta.predicted = reuse.then_some(predicted);
        if self.trace.is_enabled() {
            self.trace.emit(
                now,
                TraceEvent::Eviction {
                    page: victim.0,
                    predicted: reuse.then(|| tier_tag(predicted)),
                    target: tier_tag(target),
                    dirty: meta.dirty,
                },
            );
        }
        match target {
            Tier::Host => self.place_in_tier2(now, t, victim),
            _ => self.bypass_to_ssd(now, t, victim),
        }
    }

    /// Places `victim` into Tier-2, spilling or rejecting per the
    /// configured insertion mode, on behalf of tenant `t`. Returns the
    /// eviction's critical-path completion time.
    fn place_in_tier2(&mut self, now: Time, t: usize, victim: PageId) -> Time {
        let inserted = match self.tier2_insert {
            Tier2Insert::RejectWhenFull => self.tier2.insert_if_room(victim),
            _ => {
                if let Some(t2_victim) = self.tier2.insert_evicting(victim) {
                    self.drop_from_tier2(now, t, t2_victim);
                }
                true
            }
        };
        if !inserted {
            return self.bypass_to_ssd(now, t, victim);
        }
        self.tenants[t].metrics.t2_placements += 1;
        if self.trace.is_enabled() {
            self.trace.emit(
                now,
                TraceEvent::Tier2Place {
                    page: victim.0,
                    dirty: self.table.get(victim).dirty,
                },
            );
        }
        let batch = TransferBatch {
            pages: 1,
            page_bytes: self.page_bytes(),
            threads: 32,
        };
        let done = self.to_host.transfer(now, batch, self.config.transfer);
        let meta = self.table.get_mut(victim);
        meta.tier = Tier::Host;
        meta.ready_at = done;
        done
    }

    /// Handles a page leaving Tier-2 (FIFO spill): dirty pages are written
    /// back by host userspace I/O, off the GPU's critical path.
    fn drop_from_tier2(&mut self, now: Time, t: usize, t2_victim: PageId) {
        let meta = self.table.get_mut(t2_victim);
        let dirty = meta.dirty;
        meta.tier = Tier::Ssd;
        meta.dirty = false;
        self.trace.emit(
            now,
            TraceEvent::Tier2Spill {
                page: t2_victim.0,
                dirty,
            },
        );
        if dirty {
            self.tenants[t].metrics.t2_writebacks += 1;
            let offset = self.ssd_offset(t2_victim);
            let bytes = self.page_bytes();
            // Host userspace I/O: off the GPU's critical path (§2.3).
            self.host_io.write(now, &mut self.ssd, offset, bytes);
        } else {
            self.tenants[t].metrics.t2_drops += 1;
        }
    }

    /// Bypasses `victim` straight to Tier-3: clean pages are simply
    /// dropped (their content is already on the SSD), dirty pages are
    /// written by the evicting warp through the GPU-direct NVMe path.
    fn bypass_to_ssd(&mut self, now: Time, t: usize, victim: PageId) -> Time {
        let meta = self.table.get_mut(victim);
        let dirty = meta.dirty;
        meta.tier = Tier::Ssd;
        meta.dirty = false;
        if dirty {
            self.tenants[t].metrics.ssd_writes += 1;
            self.trace
                .emit(now, TraceEvent::SsdWriteBack { page: victim.0 });
            let offset = self.ssd_offset(victim);
            let bytes = self.page_bytes();
            self.ssd.write(now, offset, bytes)
        } else {
            self.tenants[t].metrics.discards += 1;
            self.trace
                .emit(now, TraceEvent::EvictDiscard { page: victim.0 });
            now
        }
    }

    /// Makes room for, then fills, one batch of tenant `t`'s misses that
    /// fits its Tier-1 at once. Returns when the batch's data is in
    /// Tier-1 and, unless eviction runs in the background, its evictions
    /// are done. The evicting warp performs each eviction transfer, but
    /// it proceeds in parallel with the fetch (opposite PCIe direction /
    /// staging buffers).
    fn fill(&mut self, now: Time, t: usize, from_tier2: &[PageId], from_ssd: &[PageId]) -> Time {
        let mut ready = now;
        let missing = from_tier2.len() + from_ssd.len();
        for _ in 0..missing.saturating_sub(self.free_slots(t)) {
            let done = self.evict_one(now, t);
            if !self.config.async_eviction {
                ready = ready.max(done);
            }
        }

        // Every miss probes Tier-2 before touching the SSD (§3.4).
        let probe_done = now + self.to_gpu.lookup_cost();

        if !from_tier2.is_empty() {
            self.tenants[t].metrics.t2_hits += from_tier2.len() as u64;
            let mut start = probe_done;
            for &page in from_tier2 {
                self.trace.emit(now, TraceEvent::Tier2Hit { page: page.0 });
                // An in-flight placement must land before it can be read.
                start = start.max(self.table.get(page).ready_at);
                self.tier2.remove(page);
            }
            let batch = TransferBatch {
                pages: from_tier2.len(),
                page_bytes: self.page_bytes(),
                threads: 32,
            };
            let done = self.to_gpu.transfer(start, batch, self.config.transfer);
            self.latency
                .tier2_fetch_ns
                .record(done.since(now).as_nanos());
            for &page in from_tier2 {
                self.land(now, t, page, TierTag::Host, done);
            }
            ready = ready.max(done);
        }

        for &page in from_ssd {
            self.tenants[t].metrics.wasteful_lookups += 1;
            self.tenants[t].metrics.ssd_reads += 1;
            self.trace
                .emit(now, TraceEvent::WastefulLookup { page: page.0 });
            let offset = self.ssd_offset(page);
            let bytes = self.page_bytes();
            let done = self.ssd.read(probe_done, offset, bytes);
            self.latency.ssd_fetch_ns.record(done.since(now).as_nanos());
            self.land(now, t, page, TierTag::Ssd, done);
            ready = ready.max(done);
        }
        ready
    }

    /// Installs demand-fetched `page` in tenant `t`'s Tier-1, its data
    /// arriving from `source` at `done`.
    fn land(&mut self, now: Time, t: usize, page: PageId, source: TierTag, done: Time) {
        self.install(t, page);
        self.on_refill(now, t, page);
        if self.trace.is_enabled() {
            self.trace.emit(
                now,
                TraceEvent::Tier1Fill {
                    page: page.0,
                    source,
                    ready_ns: done.as_nanos(),
                },
            );
        }
        let meta = self.table.get_mut(page);
        meta.tier = Tier::Gpu;
        meta.ready_at = done;
        meta.touches_since_load = 1;
    }

    /// Speculatively pulls `page` from the SSD into tenant `t`'s Tier-1
    /// without gating any warp. No-op if the page is outside the
    /// tenant's range or already off the SSD. Prefetching evicts at most
    /// one page, and only when Tier-1 has no free slot for it.
    fn prefetch(&mut self, now: Time, t: usize, page: PageId) {
        let share = self.tenants[t].share;
        if page.0 >= share.base + share.span as u64 || self.table.get(page).tier != Tier::Ssd {
            return;
        }
        if self.free_slots(t) == 0 {
            self.evict_one(now, t);
        }
        self.tenants[t].metrics.prefetches += 1;
        self.trace.emit(now, TraceEvent::Prefetch { page: page.0 });
        let offset = self.ssd_offset(page);
        let bytes = self.page_bytes();
        let done = self.ssd.read(now, offset, bytes);
        self.install(t, page);
        self.on_refill(now, t, page);
        let meta = self.table.get_mut(page);
        meta.tier = Tier::Gpu;
        meta.ready_at = done;
        meta.touches_since_load = 0;
    }
}

impl MemoryBackend for Gmt {
    fn access(&mut self, now: Time, access: &WarpAccess) -> Time {
        let t = self.owner(access.pages.first());
        if self.stamp_tenants {
            // The per-tenant report is distilled from these stamps.
            self.trace.set_tenant(Some(t as u32));
        }
        let c = self.clock_of(t);
        let mut ready = now;
        // Scratch buffers live on the struct; `take` swaps in empties
        // (no allocation) and the tail of this fn puts them back.
        let mut tier2_fetches: Vec<PageId> = std::mem::take(&mut self.scratch_tier2);
        let mut ssd_fetches: Vec<PageId> = std::mem::take(&mut self.scratch_ssd);
        let tenant = &mut self.tenants[t];
        let clock = &mut self.clocks[c];
        let TenantShare { base, span, .. } = tenant.share;
        tenant.metrics.accesses += 1;
        for page in access.pages.iter() {
            // A warp access stays inside one tenant's range.
            assert!(
                page.0.wrapping_sub(base) < span as u64,
                "page {page} outside the configured address space of tenant {t}"
            );
            // One coalesced transaction per distinct page: the virtual
            // timestamp advances per transaction (§2.1.3), keeping RVTD in
            // the same distinct-touch units the regression is trained on.
            tenant.vt += 1;
            self.trace.set_vt(tenant.vt);
            if !tenant.sampler.is_complete() {
                tenant.sampler.observe(page);
            }
            let meta = self.table.get_mut(page);
            match meta.tier {
                Tier::Gpu => {
                    ready = ready.max(meta.ready_at);
                    meta.touches_since_load += 1;
                    clock.touch(page);
                    tenant.metrics.t1_hits += 1;
                    self.trace.emit(now, TraceEvent::Tier1Hit { page: page.0 });
                }
                tier => {
                    let resident = tier_tag(tier);
                    self.trace.emit(
                        now,
                        TraceEvent::Tier1Miss {
                            page: page.0,
                            resident,
                        },
                    );
                    match tier {
                        Tier::Host => tier2_fetches.push(page),
                        _ => ssd_fetches.push(page),
                    }
                }
            }
        }

        let missing = tier2_fetches.len() + ssd_fetches.len();
        tenant.metrics.t1_misses += missing as u64;

        // A warp can miss more distinct pages than the tenant's Tier-1
        // holds at once: serve the misses (Tier-2 ones first) in batches
        // that fit, so a later batch may evict an earlier one's pages.
        let room = if missing <= tenant.one_batch {
            clock.capacity()
        } else {
            self.batch_room(t)
        };
        let (mut from_t2, mut from_ssd) = (0, 0);
        while from_t2 + from_ssd < missing {
            let n_t2 = (tier2_fetches.len() - from_t2).min(room);
            let n_ssd = (ssd_fetches.len() - from_ssd).min(room - n_t2);
            let done = self.fill(
                now,
                t,
                &tier2_fetches[from_t2..from_t2 + n_t2],
                &ssd_fetches[from_ssd..from_ssd + n_ssd],
            );
            ready = ready.max(done);
            from_t2 += n_t2;
            from_ssd += n_ssd;
        }

        // Sequential prefetch (extension, off by default): pull the pages
        // following each demand SSD fetch in the background.
        if self.config.prefetch_degree > 0 {
            let degree = self.config.prefetch_degree as u64;
            for &p in &ssd_fetches {
                for d in 1..=degree {
                    self.prefetch(now, t, PageId(p.0 + d));
                }
            }
        }

        if access.write {
            for page in access.pages.iter() {
                self.table.get_mut(page).dirty = true;
            }
        }
        if self.stamp_tenants {
            self.trace.set_tenant(None);
        }
        tier2_fetches.clear();
        ssd_fetches.clear();
        self.scratch_tier2 = tier2_fetches;
        self.scratch_ssd = ssd_fetches;
        ready
    }

    fn finish(&mut self, now: Time) -> Time {
        // Reap the trailing SSD completion events into the trace.
        self.ssd.flush_trace(now);
        now
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmt_mem::TierGeometry;

    fn tiny_config(policy: PolicyKind) -> GmtConfig {
        GmtConfig::new(TierGeometry::from_tier1(8, 2.0, 2.0)).with_policy(policy)
    }

    fn read(gmt: &mut Gmt, now: Time, page: u64) -> Time {
        gmt.access(now, &WarpAccess::read(PageId(page)))
    }

    fn write(gmt: &mut Gmt, now: Time, page: u64) -> Time {
        gmt.access(now, &WarpAccess::write(PageId(page)))
    }

    #[test]
    fn cold_miss_goes_to_ssd_then_hits() {
        let mut gmt = Gmt::new(tiny_config(PolicyKind::Reuse));
        let t1 = read(&mut gmt, Time::ZERO, 0);
        assert!(t1 > Time::ZERO, "cold miss must cost SSD latency");
        let m = gmt.metrics();
        assert_eq!(m.ssd_reads, 1);
        assert_eq!(m.t1_misses, 1);
        let t2 = read(&mut gmt, t1, 0);
        assert_eq!(t2, t1, "hit in tier-1 is free");
        assert_eq!(gmt.metrics().t1_hits, 1);
    }

    #[test]
    fn tierorder_places_every_victim_in_tier2() {
        let mut gmt = Gmt::new(tiny_config(PolicyKind::TierOrder));
        // Fill tier-1 (8 pages) and stream 8 more: 8 evictions, all to T2.
        let mut now = Time::ZERO;
        for p in 0..16 {
            now = read(&mut gmt, now, p);
        }
        let m = gmt.metrics();
        assert_eq!(m.t1_evictions, 8);
        assert_eq!(m.t2_placements, 8);
        assert_eq!(gmt.tier2_occupancy(), 8);
    }

    #[test]
    fn tier2_hit_is_cheaper_than_ssd_read() {
        let mut gmt = Gmt::new(tiny_config(PolicyKind::TierOrder));
        let mut now = Time::ZERO;
        for p in 0..16 {
            now = read(&mut gmt, now, p);
        }
        // Page 0 was evicted to Tier-2. Re-reading it is a T2 hit.
        let before = now;
        let after_t2 = read(&mut gmt, before, 0);
        assert_eq!(gmt.metrics().t2_hits, 1);
        // Compare with a fresh SSD fetch at the same instant.
        let after_ssd = read(&mut gmt, before, 30);
        let t2_cost = after_t2.since(before);
        let ssd_cost = after_ssd.since(before);
        assert!(
            t2_cost.as_nanos() * 3 < ssd_cost.as_nanos(),
            "t2 {t2_cost:?} vs ssd {ssd_cost:?}"
        );
    }

    #[test]
    fn exclusive_tiers_no_duplication() {
        let mut gmt = Gmt::new(tiny_config(PolicyKind::TierOrder));
        let mut now = Time::ZERO;
        for p in 0..16 {
            now = read(&mut gmt, now, p);
        }
        // Promote page 0 back to Tier-1: it must leave Tier-2 (the
        // concurrent eviction refills the freed slot, so occupancy stays 8).
        now = read(&mut gmt, now, 0);
        assert!(
            !gmt.tier2.contains(PageId(0)),
            "no duplication across tiers"
        );
        assert_eq!(gmt.tier2_occupancy(), 8);
        // And it is now a Tier-1 hit.
        let hits_before = gmt.metrics().t1_hits;
        read(&mut gmt, now, 0);
        assert_eq!(gmt.metrics().t1_hits, hits_before + 1);
    }

    #[test]
    fn random_policy_splits_between_tiers() {
        let mut gmt = Gmt::new(tiny_config(PolicyKind::Random));
        let mut now = Time::ZERO;
        for p in 0..24 {
            now = read(&mut gmt, now, p);
        }
        let m = gmt.metrics();
        assert_eq!(m.t1_evictions, 16);
        assert!(m.t2_placements > 0, "some victims must go to tier-2");
        assert!(m.discards > 0, "some clean victims must be discarded");
        assert_eq!(m.t2_placements + m.discards + m.ssd_writes, 16);
    }

    #[test]
    fn dirty_bypass_writes_to_ssd() {
        let mut gmt = Gmt::new(tiny_config(PolicyKind::Random));
        let mut now = Time::ZERO;
        for p in 0..8 {
            now = write(&mut gmt, now, p);
        }
        for p in 8..24 {
            now = read(&mut gmt, now, p);
        }
        let m = gmt.metrics();
        assert!(
            m.ssd_writes > 0,
            "dirty victims bypassing tier-2 must be written"
        );
    }

    #[test]
    fn wasteful_lookups_counted_on_ssd_fallthrough() {
        let mut gmt = Gmt::new(tiny_config(PolicyKind::Reuse));
        let mut now = Time::ZERO;
        for p in 0..8 {
            now = read(&mut gmt, now, p);
        }
        let m = gmt.metrics();
        assert_eq!(
            m.wasteful_lookups, 8,
            "all cold misses probe tier-2 in vain"
        );
    }

    #[test]
    fn reuse_trains_predictor_on_round_trips() {
        let geometry = TierGeometry::from_tier1(8, 2.0, 2.0);
        let mut gmt = Gmt::new(GmtConfig::new(geometry).with_policy(PolicyKind::Reuse));
        // Cyclic scan over 24 pages: every page round-trips repeatedly.
        let mut now = Time::ZERO;
        for _ in 0..6 {
            for p in 0..24 {
                now = read(&mut gmt, now, p);
            }
        }
        let m = gmt.metrics();
        assert!(m.predictions > 0, "round trips must grade predictions");
        assert!(
            gmt.tenants[0].markov.total() > 0,
            "markov chain must have trained"
        );
    }

    #[test]
    fn reuse_metrics_are_consistent() {
        let geometry = TierGeometry::from_tier1(16, 4.0, 2.0);
        let mut gmt = Gmt::new(GmtConfig::new(geometry).with_policy(PolicyKind::Reuse));
        let mut now = Time::ZERO;
        let mut rng = gmt_sim::rng::seeded(3);
        for _ in 0..2_000 {
            let p = rng.gen_range(0..geometry.total_pages as u64);
            now = read(&mut gmt, now, p);
        }
        let m = gmt.metrics();
        assert_eq!(m.t1_hits + m.t1_misses, 2_000);
        assert_eq!(m.t2_hits + m.wasteful_lookups, m.t1_misses);
        assert_eq!(
            m.t2_placements + m.discards + m.ssd_writes,
            m.t1_evictions,
            "every eviction must have exactly one destination"
        );
        // Tier-2 never exceeds capacity.
        assert!(gmt.tier2_occupancy() <= geometry.tier2_pages);
    }

    #[test]
    fn bypass_window_tracks_fraction() {
        let mut w = BypassWindow::new(4);
        assert_eq!(w.t3_fraction(), None);
        for _ in 0..3 {
            w.push(true);
        }
        assert_eq!(w.t3_fraction(), None, "window not yet full");
        w.push(false);
        assert_eq!(w.t3_fraction(), Some(0.75));
        w.push(true); // evicts the oldest `true`
        assert_eq!(w.t3_fraction(), Some(0.75));
        w.push(false);
        w.push(false);
        w.push(false);
        assert_eq!(w.t3_fraction(), Some(0.25));
    }

    #[test]
    fn scattered_access_faults_all_pages() {
        let mut gmt = Gmt::new(tiny_config(PolicyKind::Reuse));
        let access = WarpAccess::scattered(vec![PageId(0), PageId(1), PageId(2)], false);
        gmt.access(Time::ZERO, &access);
        let m = gmt.metrics();
        assert_eq!(m.t1_misses, 3);
        assert_eq!(m.ssd_reads, 3);
    }

    #[test]
    #[should_panic(expected = "outside the configured address space")]
    fn out_of_range_page_panics() {
        let mut gmt = Gmt::new(tiny_config(PolicyKind::Reuse));
        let total = gmt.config().geometry.total_pages as u64;
        read(&mut gmt, Time::ZERO, total);
    }

    #[test]
    fn latency_breakdown_reflects_the_tier_gap() {
        // §3.4: host fetches (~50 us) must be well below SSD fetches
        // (~130 us) in the measured distributions. Size the working set
        // to fit Tier-1 + Tier-2 so a cyclic scan produces Tier-2 hits
        // even under FIFO.
        let geometry = TierGeometry::from_tier1(8, 2.0, 0.9);
        let mut gmt = Gmt::new(GmtConfig::new(geometry).with_policy(PolicyKind::TierOrder));
        let mut now = Time::ZERO;
        for _ in 0..4 {
            for p in 0..geometry.total_pages as u64 {
                now = read(&mut gmt, now, p);
            }
        }
        let lat = gmt.latency_breakdown();
        assert!(
            lat.tier2_fetch_ns.count() > 0,
            "some tier-2 fetches must occur"
        );
        assert!(lat.ssd_fetch_ns.count() > 0, "some SSD fetches must occur");
        assert!(
            lat.tier2_fetch_ns.mean() * 2.0 < lat.ssd_fetch_ns.mean(),
            "tier-2 mean {} ns vs ssd mean {} ns",
            lat.tier2_fetch_ns.mean(),
            lat.ssd_fetch_ns.mean()
        );
    }

    #[test]
    fn forced_t2_heuristic_fires_under_tier3_pressure() {
        // A cyclic scan over >> T1+T2 pages: every RRD classifies long, so
        // without the 80% heuristic nothing would enter Tier-2.
        let geometry = TierGeometry::from_tier1(16, 2.0, 4.0);
        let mut gmt = Gmt::new(GmtConfig::new(geometry));
        let mut now = Time::ZERO;
        for _ in 0..6 {
            for p in 0..geometry.total_pages as u64 {
                now = read(&mut gmt, now, p);
            }
        }
        let m = gmt.metrics();
        assert!(
            m.forced_t2_placements > 0,
            "heuristic must fire on a long-RRD scan"
        );
        assert!(m.t2_hits > 0, "forced placements must convert into hits");
    }

    #[test]
    fn prefetch_stops_at_the_address_space_edge() {
        let geometry = TierGeometry::from_tier1(8, 2.0, 2.0);
        let mut config = GmtConfig::new(geometry);
        config.prefetch_degree = 7;
        let mut gmt = Gmt::new(config);
        // Touch the last page: prefetch targets beyond the space must be
        // ignored without panicking.
        let last = geometry.total_pages as u64 - 1;
        read(&mut gmt, Time::ZERO, last);
        assert_eq!(gmt.metrics().prefetches, 0);
        gmt.check_invariants().expect("invariants hold at the edge");
    }

    #[test]
    fn tierorder_churn_writes_dirty_tier2_spills_via_host_io() {
        let geometry = TierGeometry::from_tier1(4, 2.0, 4.0);
        let mut gmt = Gmt::new(GmtConfig::new(geometry).with_policy(PolicyKind::TierOrder));
        let mut now = Time::ZERO;
        // Dirty everything, then churn far past T1+T2 capacity so Tier-2's
        // FIFO must spill dirty pages to the SSD.
        for p in 0..geometry.total_pages as u64 {
            now = write(&mut gmt, now, p);
        }
        for p in 0..geometry.total_pages as u64 {
            now = read(&mut gmt, now, p);
        }
        let m = gmt.metrics();
        assert!(m.t2_writebacks > 0, "dirty spills must be written back");
        gmt.check_invariants().expect("invariants hold after churn");
    }

    #[test]
    fn prefetch_turns_sequential_misses_into_hits() {
        let geometry = TierGeometry::from_tier1(16, 4.0, 2.0);
        let mut plain = Gmt::new(GmtConfig::new(geometry));
        let mut config = GmtConfig::new(geometry);
        config.prefetch_degree = 4;
        let mut prefetching = Gmt::new(config);
        let mut now_a = Time::ZERO;
        let mut now_b = Time::ZERO;
        for p in 0..64 {
            now_a = read(&mut plain, now_a, p);
            now_b = read(&mut prefetching, now_b, p);
        }
        let a = plain.metrics();
        let b = prefetching.metrics();
        assert_eq!(a.prefetches, 0);
        assert!(
            b.prefetches > 0,
            "prefetcher must fire on a sequential scan"
        );
        assert!(
            b.t1_hits > a.t1_hits,
            "prefetched pages must convert misses into hits ({} vs {})",
            b.t1_hits,
            a.t1_hits
        );
    }

    #[test]
    fn async_eviction_never_slows_the_warp() {
        let geometry = TierGeometry::from_tier1(8, 2.0, 2.0);
        let sync_cfg = GmtConfig::new(geometry).with_policy(PolicyKind::TierOrder);
        let mut async_cfg = sync_cfg;
        async_cfg.async_eviction = true;
        let mut sync_gmt = Gmt::new(sync_cfg);
        let mut async_gmt = Gmt::new(async_cfg);
        let mut now_s = Time::ZERO;
        let mut now_a = Time::ZERO;
        for p in 0..48 {
            now_s = write(&mut sync_gmt, now_s, p);
            now_a = write(&mut async_gmt, now_a, p);
        }
        assert!(
            now_a <= now_s,
            "background eviction must not add critical-path time"
        );
    }
}
