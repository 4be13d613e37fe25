//! Host-time spans around the calls into each layer, and the trace-ring
//! replays that time the layers nested inside a backend.
//!
//! Spans are recorded only in traced runs, from this crate: the
//! simulator itself carries no wall-clock code. A span covers one call
//! into a layer's public function; the top-level rows partition the
//! traced pass, and whatever they do not cover is the explicit
//! `residual_s`. Layers that live inside a backend (`ssd`, `pcie`,
//! `mem`, `reuse`) cannot be timed from outside it, so the op stream the
//! run recorded in its trace ring is replayed through each layer's
//! public API alone and timed; those replay times stand beside their
//! parent's row and are not part of the sum.

use std::time::{Duration, Instant};

use gmt_core::TieringMetrics;
use gmt_gpu::MemoryBackend;
use gmt_mem::{ClockList, FifoCache, PageId, TierGeometry, WarpAccess};
use gmt_pcie::{HostLink, HostLinkConfig, TransferBatch, TransferMethod};
use gmt_reuse::{ReuseTracker, SamplerConfig, SamplingRegression};
use gmt_sim::trace::{LinkDir, TraceEvent, TraceRecord};
use gmt_sim::Time;
use gmt_ssd::array::{ArrayConfig, SsdArray};
use gmt_ssd::qpair::QueuePair;
use gmt_ssd::queue::Opcode;
use gmt_ssd::{SsdConfig, SsdDevice};

/// The top-level rows of the per-layer table. Together with the residual
/// they sum to the traced pass time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Row {
    /// `Workload::trace` (including the trace generation `characterize`
    /// performs internally, attributed from the measured `trace` call).
    Trace,
    /// `Executor::run` minus the time spent inside the backend.
    ExecSelf,
    /// `Bam` as a `MemoryBackend`.
    BamAccess,
    /// `Hmm` as a `MemoryBackend`.
    HmmAccess,
    /// `Gmt` as a `MemoryBackend`.
    CoreAccess,
    /// `characterize` minus its trace generation.
    Characterize,
    /// Tenant registry, `TieredService::new` and `Frontend::new`.
    ServeBuild,
    /// `Frontend::run`.
    FrontendRun,
    /// `FrontendReport::from_sink` and tracesum over the drained sink.
    Report,
    /// Draining the trace ring and writing it as JSONL.
    Export,
}

impl Row {
    /// Every row, in table order.
    pub const ALL: [Row; 10] = [
        Row::Trace,
        Row::ExecSelf,
        Row::BamAccess,
        Row::HmmAccess,
        Row::CoreAccess,
        Row::Characterize,
        Row::ServeBuild,
        Row::FrontendRun,
        Row::Report,
        Row::Export,
    ];

    /// The metric name the row is reported under.
    pub fn name(self) -> &'static str {
        match self {
            Row::Trace => "workloads.trace_s",
            Row::ExecSelf => "gpu.exec_self_s",
            Row::BamAccess => "baselines.bam_access_s",
            Row::HmmAccess => "baselines.hmm_access_s",
            Row::CoreAccess => "core.access_s",
            Row::Characterize => "reuse.characterize_s",
            Row::ServeBuild => "serve.build_s",
            Row::FrontendRun => "frontend.run_s",
            Row::Report => "analysis.report_s",
            Row::Export => "sim.export_s",
        }
    }
}

/// Accumulated host time per row. Disabled in untraced runs, where
/// [`Spans::start`] and [`Spans::add`] cost nothing.
#[derive(Debug, Clone, Default)]
pub struct Spans {
    enabled: bool,
    time: [Duration; Row::ALL.len()],
    calls: [u64; Row::ALL.len()],
}

impl Spans {
    /// Spans that record (`true`) or do nothing (`false`).
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            ..Spans::default()
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span.
    pub fn start(&self) -> Option<Instant> {
        self.enabled.then(Instant::now)
    }

    /// Closes a span opened by [`Spans::start`] into `row`.
    pub fn add(&mut self, row: Row, started: Option<Instant>) {
        if let Some(t) = started {
            self.credit(row, t.elapsed());
        }
    }

    /// Credits `d` to `row` directly.
    pub fn credit(&mut self, row: Row, d: Duration) {
        if self.enabled {
            self.time[row as usize] += d;
            self.calls[row as usize] += 1;
        }
    }

    /// Moves `d` from `from` to `to` (time measured inside one span that
    /// belongs to another layer).
    pub fn shift(&mut self, from: Row, to: Row, d: Duration) {
        if self.enabled {
            let d = d.min(self.time[from as usize]);
            self.time[from as usize] -= d;
            self.time[to as usize] += d;
        }
    }

    /// Seconds recorded for `row`.
    pub fn seconds(&self, row: Row) -> f64 {
        self.time[row as usize].as_secs_f64()
    }

    /// Span count recorded for `row`.
    pub fn calls(&self, row: Row) -> u64 {
        self.calls[row as usize]
    }
}

/// A backend wrapper timing every call into the wrapped backend.
pub struct Timed<B> {
    /// The wrapped backend.
    pub inner: B,
    /// Host time spent inside `inner`.
    pub spent: Duration,
}

impl<B: MemoryBackend> MemoryBackend for Timed<B> {
    fn access(&mut self, now: Time, access: &WarpAccess) -> Time {
        let t = Instant::now();
        let ready = self.inner.access(now, access);
        self.spent += t.elapsed();
        ready
    }

    fn finish(&mut self, now: Time) -> Time {
        let t = Instant::now();
        let done = self.inner.finish(now);
        self.spent += t.elapsed();
        done
    }
}

/// Counts and nested-layer replay times gathered in a traced pass.
#[derive(Debug, Clone, Default)]
pub struct LayerCounts {
    /// Warp accesses simulated.
    pub warp_accesses: u64,
    /// Page references those accesses carried.
    pub page_refs: u64,
    /// Trace records drained from every ring.
    pub trace_records: u64,
    /// SSD commands submitted (reads, writes) and summed in-flight depth.
    pub ssd_reads: u64,
    /// See `ssd_reads`.
    pub ssd_writes: u64,
    /// Sum of `queue_depth` over every SSD submission.
    pub ssd_depth_sum: u64,
    /// PCIe batches, of which zero-copy, and their pages.
    pub pcie_batches: u64,
    /// See `pcie_batches`.
    pub pcie_zero_copy: u64,
    /// See `pcie_batches`.
    pub pcie_pages: u64,
    /// Summed counters of the tiering core (GMT runs, or the served
    /// hierarchy on the front-end).
    pub core: TieringMetrics,
    /// Host seconds replaying the SSD op stream through `QueuePair` /
    /// `SsdArray`.
    pub ssd_replay_s: f64,
    /// Host seconds replaying PCIe batches through `HostLink::transfer`.
    pub pcie_replay_s: f64,
    /// Host seconds replaying Tier-1/Tier-2 residency through `ClockList`
    /// and `FifoCache`.
    pub mem_replay_s: f64,
    /// Host seconds replaying page touches through `ReuseTracker::record`
    /// and `SamplingRegression::observe`.
    pub reuse_replay_s: f64,
}

/// Replays the op stream of one run's trace through the nested layers'
/// public APIs, timing each layer alone, and counts the layer ops.
pub fn replay_nested(records: &[TraceRecord], geometry: &TierGeometry, counts: &mut LayerCounts) {
    counts.trace_records += records.len() as u64;
    let page_bytes = geometry.page_bytes;

    // ssd: BaM's rings (`ring_submit` present) go through a `QueuePair`,
    // every other storage path through a striped `SsdArray`.
    let rings = records
        .iter()
        .any(|r| matches!(r.event, TraceEvent::RingSubmit { .. }));
    let mut devices = 1usize;
    for r in records {
        if let TraceEvent::SsdSubmit {
            device,
            write,
            queue_depth,
            ..
        } = r.event
        {
            devices = devices.max(device as usize + 1);
            if write {
                counts.ssd_writes += 1;
            } else {
                counts.ssd_reads += 1;
            }
            counts.ssd_depth_sum += u64::from(queue_depth);
        }
    }
    let t = Instant::now();
    if rings {
        let mut qp = QueuePair::new(SsdDevice::new(SsdConfig::default()), 1024);
        let mut offset = 0u64;
        for r in records {
            if let TraceEvent::SsdSubmit { write, bytes, .. } = r.event {
                let op = if write { Opcode::Write } else { Opcode::Read };
                std::hint::black_box(qp.submit_blocking(r.at, op, offset, bytes));
                offset += page_bytes;
            }
        }
    } else {
        let mut array = SsdArray::new(ArrayConfig {
            device: SsdConfig::default(),
            devices,
            stripe_bytes: page_bytes,
        });
        let mut next = vec![0u64; devices];
        for r in records {
            if let TraceEvent::SsdSubmit {
                device,
                write,
                bytes,
                ..
            } = r.event
            {
                let d = device as usize;
                let offset = (next[d] * devices as u64 + d as u64) * page_bytes;
                next[d] += 1;
                let bytes = bytes.min(page_bytes);
                let done = if write {
                    array.write(r.at, offset, bytes)
                } else {
                    array.read(r.at, offset, bytes)
                };
                std::hint::black_box(done);
            }
        }
    }
    counts.ssd_replay_s += t.elapsed().as_secs_f64();

    // pcie: one link per direction, engine as recorded.
    let t = Instant::now();
    let mut to_gpu = HostLink::new(HostLinkConfig::default());
    let mut to_host = HostLink::new(HostLinkConfig::default());
    for r in records {
        if let TraceEvent::PcieBatch {
            direction,
            pages,
            bytes,
            zero_copy,
            ..
        } = r.event
        {
            counts.pcie_batches += 1;
            counts.pcie_zero_copy += u64::from(zero_copy);
            counts.pcie_pages += u64::from(pages);
            let batch = TransferBatch {
                pages: pages.max(1) as usize,
                page_bytes: bytes / u64::from(pages.max(1)),
                threads: 32,
            };
            let method = if zero_copy {
                TransferMethod::ZeroCopy
            } else {
                TransferMethod::DmaAsync
            };
            let link = match direction {
                LinkDir::ToHost => &mut to_host,
                LinkDir::ToGpu => &mut to_gpu,
            };
            std::hint::black_box(link.transfer(r.at, batch, method));
        }
    }
    counts.pcie_replay_s += t.elapsed().as_secs_f64();

    // mem: Tier-1 residency in a clock, Tier-2 in a FIFO.
    let t = Instant::now();
    let mut tier1 = ClockList::new(geometry.tier1_pages.max(1));
    let mut tier2 = FifoCache::new(geometry.tier2_pages.max(1));
    for r in records {
        match r.event {
            TraceEvent::Tier1Hit { page } => {
                std::hint::black_box(tier1.touch(PageId(page)));
            }
            TraceEvent::Eviction { page, .. } => {
                tier1.remove(PageId(page));
            }
            TraceEvent::Tier1Fill { page, .. } => {
                let page = PageId(page);
                if !tier1.contains(page) {
                    if tier1.is_full() {
                        tier1.evict_candidate();
                    }
                    tier1.insert(page);
                }
            }
            TraceEvent::Tier2Place { page, .. } => {
                let page = PageId(page);
                if !tier2.contains(page) {
                    std::hint::black_box(tier2.insert_evicting(page));
                }
            }
            TraceEvent::Tier2Hit { page } | TraceEvent::Tier2Spill { page, .. } => {
                tier2.remove(PageId(page));
            }
            _ => {}
        }
    }
    counts.mem_replay_s += t.elapsed().as_secs_f64();

    // reuse: every page touch through the Olken tracker and the sampler.
    let t = Instant::now();
    let mut tracker = ReuseTracker::new();
    let mut sampler = SamplingRegression::new(SamplerConfig::default());
    for r in records {
        if let TraceEvent::Tier1Hit { page } | TraceEvent::Tier1Miss { page, .. } = r.event {
            std::hint::black_box(tracker.record(PageId(page)));
            sampler.observe(PageId(page));
        }
    }
    std::hint::black_box(sampler.fit());
    counts.reuse_replay_s += t.elapsed().as_secs_f64();
}
