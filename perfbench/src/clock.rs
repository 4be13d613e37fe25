//! CPU time of the calling thread.
//!
//! The end-to-end host times are CPU time of the benchmark's one thread,
//! not wall time: time the thread spends waiting for a core (another
//! process on the machine, or the hypervisor running another guest) is
//! then not counted as the simulator's. On an idle core the two agree.

#![allow(unsafe_code)]

use std::time::Duration;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time the calling thread has used so far.
///
/// # Panics
///
/// Panics if the kernel rejects the clock (not Linux).
pub fn thread_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec` for the whole call, and
    // `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// A stopwatch on [`thread_cpu`].
#[derive(Debug, Clone, Copy)]
pub struct CpuTimer(Duration);

impl CpuTimer {
    /// Starts timing.
    pub fn start() -> CpuTimer {
        CpuTimer(thread_cpu())
    }

    /// CPU time since [`CpuTimer::start`].
    pub fn elapsed(&self) -> Duration {
        thread_cpu().saturating_sub(self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_work_and_not_sleep() {
        let t = CpuTimer::start();
        std::thread::sleep(Duration::from_millis(30));
        let slept = t.elapsed();
        assert!(
            slept < Duration::from_millis(10),
            "sleep counted: {slept:?}"
        );
        let t = CpuTimer::start();
        let mut x = 1u64;
        for _ in 0..10_000_000 {
            x = std::hint::black_box(x.wrapping_mul(3));
        }
        assert!(t.elapsed() > Duration::ZERO);
    }
}
