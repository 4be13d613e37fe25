//! SM-granular execution: per-SM warp pools and issue ports.
//!
//! The flat [`crate::Executor`] treats the GPU as one pool of warp slots.
//! Real hardware groups warps onto streaming multiprocessors whose
//! schedulers issue a bounded number of instructions per cycle: two warps
//! on the *same* SM contend for the issue port even when neither is
//! stalled on memory. [`SmExecutor`] adds that dimension, bounding how
//! much of a result can be attributed to intra-SM contention (for the
//! paper's bandwidth-bound regimes: very little, see the tests).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use gmt_mem::WarpAccess;
use gmt_sim::{Dur, FifoServer, Time};

use crate::{MemoryBackend, RunOutcome};

/// SM-level executor parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SmConfig {
    /// Streaming multiprocessors (A100: 108).
    pub sms: usize,
    /// Resident warps per SM (A100: up to 64).
    pub warps_per_sm: usize,
    /// Time the SM's scheduler needs to issue one memory instruction
    /// (the issue-port serialization quantum).
    pub issue_interval: Dur,
    /// Compute time a warp spends between two memory instructions.
    pub compute_per_access: Dur,
}

impl Default for SmConfig {
    fn default() -> SmConfig {
        SmConfig {
            sms: 32,
            warps_per_sm: 32,
            issue_interval: Dur::from_nanos(4),
            compute_per_access: Dur::from_nanos(150),
        }
    }
}

/// Replays traces across SMs, each with its own warp pool and issue port.
///
/// Trace entries are distributed round-robin across SMs (the thread-block
/// scheduler's behaviour for uniform grids); within an SM, the
/// earliest-ready warp issues next, gated by the SM's issue port.
///
/// # Examples
///
/// ```
/// use gmt_gpu::{MemoryBackend, SmConfig, SmExecutor};
/// use gmt_mem::{PageId, WarpAccess};
/// use gmt_sim::{Dur, Time};
///
/// struct Flat;
/// impl MemoryBackend for Flat {
///     fn access(&mut self, now: Time, _a: &WarpAccess) -> Time {
///         now + Dur::from_micros(1)
///     }
/// }
///
/// let trace = (0..100).map(|i| WarpAccess::read(PageId(i)));
/// let out = SmExecutor::new(SmConfig::default()).run(Flat, trace);
/// assert_eq!(out.accesses, 100);
/// ```
#[derive(Debug, Clone)]
pub struct SmExecutor {
    config: SmConfig,
}

impl SmExecutor {
    /// Creates the executor.
    ///
    /// # Panics
    ///
    /// Panics if `sms` or `warps_per_sm` is zero.
    pub fn new(config: SmConfig) -> SmExecutor {
        assert!(config.sms > 0, "need at least one SM");
        assert!(config.warps_per_sm > 0, "need at least one warp per SM");
        SmExecutor { config }
    }

    /// The executor's configuration.
    pub fn config(&self) -> &SmConfig {
        &self.config
    }

    /// Replays `trace` through `backend`.
    pub fn run<B, I>(&self, mut backend: B, trace: I) -> RunOutcome<B>
    where
        B: MemoryBackend,
        I: IntoIterator<Item = WarpAccess>,
    {
        struct Sm {
            warps: BinaryHeap<Reverse<Time>>,
            issue_port: FifoServer,
        }
        let mut sms: Vec<Sm> = (0..self.config.sms)
            .map(|_| Sm {
                warps: (0..self.config.warps_per_sm)
                    .map(|_| Reverse(Time::ZERO))
                    .collect(),
                issue_port: FifoServer::new(),
            })
            .collect();
        let mut accesses = 0u64;
        let mut horizon = Time::ZERO;
        for (i, access) in trace.into_iter().enumerate() {
            let sm = &mut sms[i % self.config.sms];
            let Reverse(warp_ready) = sm.warps.pop().expect("warp heap never empty");
            // The issue port serializes instruction issue within the SM.
            let issued = sm.issue_port.submit(warp_ready, self.config.issue_interval);
            let data_ready = backend.access(issued, &access);
            let next_issue = data_ready + self.config.compute_per_access;
            horizon = horizon.max(next_issue);
            sm.warps.push(Reverse(next_issue));
            accesses += 1;
        }
        let done = backend.finish(horizon);
        RunOutcome {
            elapsed: done.since(Time::ZERO),
            accesses,
            backend,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmt_mem::PageId;

    /// Zero-cost backend: isolates issue-port behaviour.
    struct Free;

    impl MemoryBackend for Free {
        fn access(&mut self, now: Time, _a: &WarpAccess) -> Time {
            now
        }
    }

    fn trace(n: u64) -> impl Iterator<Item = WarpAccess> {
        (0..n).map(|i| WarpAccess::read(PageId(i)))
    }

    #[test]
    fn issue_ports_cap_throughput() {
        // With free memory, elapsed = accesses/sm x issue_interval.
        let config = SmConfig {
            sms: 4,
            warps_per_sm: 64,
            issue_interval: Dur::from_nanos(10),
            compute_per_access: Dur::ZERO,
        };
        let out = SmExecutor::new(config).run(Free, trace(400));
        assert_eq!(out.elapsed, Dur::from_nanos(100 * 10));
    }

    #[test]
    fn more_sms_raise_the_issue_ceiling() {
        let base = SmConfig {
            sms: 2,
            warps_per_sm: 8,
            issue_interval: Dur::from_nanos(10),
            compute_per_access: Dur::ZERO,
        };
        let wide = SmConfig { sms: 8, ..base };
        let slow = SmExecutor::new(base).run(Free, trace(800));
        let fast = SmExecutor::new(wide).run(Free, trace(800));
        assert_eq!(slow.elapsed.as_nanos(), 4 * fast.elapsed.as_nanos());
    }

    #[test]
    fn memory_bound_runs_barely_notice_issue_ports() {
        // A 1 us memory stall dwarfs a 4 ns issue quantum — which is why
        // the flat executor is an adequate model in the paper's regimes.
        struct Slow;
        impl MemoryBackend for Slow {
            fn access(&mut self, now: Time, _a: &WarpAccess) -> Time {
                now + Dur::from_micros(1)
            }
        }
        let with_port = SmExecutor::new(SmConfig::default()).run(Slow, trace(2_000));
        let no_port = SmExecutor::new(SmConfig {
            issue_interval: Dur::ZERO,
            ..SmConfig::default()
        })
        .run(Slow, trace(2_000));
        let ratio = with_port.elapsed.as_nanos() as f64 / no_port.elapsed.as_nanos() as f64;
        assert!(
            ratio < 1.15,
            "issue ports inflated a memory-bound run by {ratio}"
        );
    }

    #[test]
    fn single_sm_single_warp_is_fully_serial() {
        let config = SmConfig {
            sms: 1,
            warps_per_sm: 1,
            issue_interval: Dur::from_nanos(3),
            compute_per_access: Dur::from_nanos(7),
        };
        let out = SmExecutor::new(config).run(Free, trace(10));
        assert_eq!(out.elapsed, Dur::from_nanos(10 * (3 + 7)));
    }
}
