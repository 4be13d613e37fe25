//! A queue-pair front-end binding the NVMe rings to the device model.
//!
//! BaM's mechanism is literally this object placed in GPU memory: GPU
//! threads build commands into the submission ring, ring the doorbell,
//! and poll the completion ring. [`QueuePair`] drives the ring protocol
//! end-to-end against an [`SsdDevice`], enforcing the queue-depth limit
//! that throttles thousands of simultaneously-faulting threads (the
//! back-pressure BaM's design section highlights).

use std::collections::VecDeque;

use gmt_sim::trace::{TraceEvent, TraceSink};
use gmt_sim::Time;

use crate::queue::{Command, CompletionQueue, Opcode, QueueFull, SubmissionQueue};
use crate::SsdDevice;

/// An in-flight command awaiting completion delivery.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    done_at: Time,
    cid: u16,
}

/// A submission/completion ring pair bound to a device.
///
/// # Examples
///
/// ```
/// use gmt_sim::Time;
/// use gmt_ssd::qpair::QueuePair;
/// use gmt_ssd::queue::Opcode;
/// use gmt_ssd::{SsdConfig, SsdDevice};
///
/// let mut qp = QueuePair::new(SsdDevice::new(SsdConfig::default()), 32);
/// let cid = qp.submit(Time::ZERO, Opcode::Read, 0, 65_536)?;
/// let done = qp.poll_until(cid);
/// assert!(done > Time::ZERO);
/// # Ok::<(), gmt_ssd::queue::QueueFull>(())
/// ```
#[derive(Debug)]
pub struct QueuePair {
    device: SsdDevice,
    sq: SubmissionQueue,
    cq: CompletionQueue,
    /// Un-reaped commands ordered by `(done_at, submission order)`: the
    /// earliest completion is always the front.
    in_flight: VecDeque<InFlight>,
    next_cid: u16,
    trace: TraceSink,
}

impl QueuePair {
    /// Binds fresh rings of `depth` slots to `device`.
    ///
    /// # Panics
    ///
    /// Panics if `depth < 2` (the NVMe minimum).
    pub fn new(device: SsdDevice, depth: usize) -> QueuePair {
        QueuePair {
            device,
            sq: SubmissionQueue::new(depth),
            cq: CompletionQueue::new(depth),
            in_flight: VecDeque::with_capacity(depth),
            next_cid: 0,
            trace: TraceSink::disabled(),
        }
    }

    /// Routes ring submissions/completions and the bound device's I/O
    /// into `trace` (the device is identified as device 0).
    pub fn attach_trace(&mut self, trace: &TraceSink) {
        self.trace = trace.clone();
        self.device.attach_trace(trace, 0);
    }

    /// Flushes pending device completion events into the trace (see
    /// [`SsdDevice::flush_trace`]).
    pub fn flush_trace(&mut self, now: Time) {
        self.device.flush_trace(now);
    }

    /// Commands submitted but not yet reaped.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Builds, enqueues, doorbells and dispatches one I/O command;
    /// returns its command id.
    ///
    /// # Errors
    ///
    /// Returns [`QueueFull`] when the ring already holds a full queue
    /// depth of un-reaped commands — the caller must poll completions
    /// first, exactly as a BaM thread would spin.
    pub fn submit(
        &mut self,
        now: Time,
        opcode: Opcode,
        offset: u64,
        bytes: u64,
    ) -> Result<u16, QueueFull> {
        self.submit_at(now, opcode, offset, bytes)
            .map(|(cid, _)| cid)
    }

    /// [`QueuePair::submit`], also returning the command's completion
    /// time.
    fn submit_at(
        &mut self,
        now: Time,
        opcode: Opcode,
        offset: u64,
        bytes: u64,
    ) -> Result<(u16, Time), QueueFull> {
        if self.in_flight.len() >= self.sq.capacity() {
            return Err(QueueFull);
        }
        let block = self.device.config().block_bytes as u64;
        let cid = self.next_cid;
        self.next_cid = self.next_cid.wrapping_add(1);
        let cmd = Command::io(cid, opcode, offset / block, bytes.div_ceil(block) as u32);
        self.sq.push(cmd)?;
        self.sq.ring_doorbell();
        // Controller side: consume the doorbelled command and start it.
        let fetched = self.sq.pop().expect("doorbelled command is visible");
        debug_assert_eq!(fetched.cid, cid);
        let (done_at, _entry) = self.device.submit(now, fetched);
        // Sorted insert (ties keep submission order). The device's link
        // is a FIFO server, so completion times rise with submission
        // order: the insertion point is the back and nothing shifts.
        let at = self.in_flight.partition_point(|f| f.done_at <= done_at);
        self.in_flight.insert(at, InFlight { done_at, cid });
        self.trace.emit(
            now,
            TraceEvent::RingSubmit {
                cid,
                write: !matches!(opcode, Opcode::Read),
                queue_depth: self.in_flight.len() as u32,
            },
        );
        Ok((cid, done_at))
    }

    /// Delivers every completion with `done_at <= now` into the
    /// completion ring, earliest first (ties in submission order);
    /// returns how many were posted.
    pub fn deliver_completions(&mut self, now: Time) -> usize {
        let sq_head = self.sq.head();
        let mut posted = 0;
        while let Some(&f) = self.in_flight.front() {
            if f.done_at > now {
                break;
            }
            self.in_flight.pop_front();
            self.cq.post(f.cid, 0, sq_head);
            self.trace.emit(
                now,
                TraceEvent::RingComplete {
                    cid: f.cid,
                    queue_depth: self.in_flight.len() as u32,
                },
            );
            posted += 1;
        }
        posted
    }

    /// Reaps the next visible completion entry, if any.
    pub fn poll(&mut self) -> Option<u16> {
        self.cq.poll().map(|e| e.cid)
    }

    /// Spins (in virtual time) until command `cid` completes; returns its
    /// completion time.
    ///
    /// # Panics
    ///
    /// Panics if `cid` is not in flight.
    pub fn poll_until(&mut self, cid: u16) -> Time {
        let target = self
            .in_flight
            .iter()
            .find(|f| f.cid == cid)
            .unwrap_or_else(|| panic!("command {cid} is not in flight"))
            .done_at;
        self.deliver_completions(target);
        // Drain the CQ; the requested cid is now visible among them.
        let mut found = false;
        while let Some(done_cid) = self.poll() {
            if done_cid == cid {
                found = true;
            }
        }
        assert!(found, "completion for {cid} must have been posted");
        target
    }

    /// Submits with back-pressure: when the ring is full, the caller
    /// (a GPU thread in BaM) spins until the earliest in-flight command
    /// completes, reaps it, and retries. Returns the command's completion
    /// time; the effective submission time reflects any spinning.
    ///
    /// # Panics
    ///
    /// Panics if the ring has fewer than 2 usable slots.
    pub fn submit_blocking(&mut self, now: Time, opcode: Opcode, offset: u64, bytes: u64) -> Time {
        let mut now = now;
        loop {
            match self.submit_at(now, opcode, offset, bytes) {
                Ok((_, done)) => return done,
                Err(QueueFull) => {
                    // Spin until the earliest in-flight command finishes.
                    let earliest = self
                        .in_flight
                        .front()
                        .expect("full ring has in-flight commands")
                        .done_at;
                    now = now.max(earliest);
                    self.deliver_completions(now);
                    while self.poll().is_some() {}
                }
            }
        }
    }

    /// Access to the underlying device (e.g. for statistics).
    pub fn device(&self) -> &SsdDevice {
        &self.device
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SsdConfig;

    fn qp(depth: usize) -> QueuePair {
        QueuePair::new(SsdDevice::new(SsdConfig::default()), depth)
    }

    #[test]
    fn submit_poll_roundtrip() {
        let mut q = qp(8);
        let cid = q.submit(Time::ZERO, Opcode::Read, 0, 65_536).unwrap();
        assert_eq!(q.in_flight(), 1);
        let done = q.poll_until(cid);
        assert!(done > Time::ZERO);
        assert_eq!(q.in_flight(), 0);
        assert_eq!(q.device().stats().reads, 1);
    }

    #[test]
    fn queue_depth_back_pressure() {
        let mut q = qp(4); // 3 usable slots
        let mut cids = Vec::new();
        for i in 0..3u64 {
            cids.push(
                q.submit(Time::ZERO, Opcode::Read, i * 65_536, 65_536)
                    .unwrap(),
            );
        }
        assert_eq!(
            q.submit(Time::ZERO, Opcode::Read, 0, 65_536),
            Err(QueueFull)
        );
        // Reaping frees a slot.
        q.poll_until(cids[0]);
        assert!(q
            .submit(Time::ZERO, Opcode::Read, 3 * 65_536, 65_536)
            .is_ok());
    }

    #[test]
    fn completions_deliver_in_time_order_batches() {
        // Mixed reads and writes of mixed sizes at staggered times; the
        // reaped cids must follow (done_at, submission) order.
        let mut q = qp(16);
        let mut expected = Vec::new();
        for i in 0..12u64 {
            let (opcode, bytes) = match i % 3 {
                0 => (Opcode::Read, 262_144),
                1 => (Opcode::Write, 4_096),
                _ => (Opcode::Write, 65_536),
            };
            let (cid, done) = q
                .submit_at(Time::from_nanos(i * 5_000), opcode, i * 262_144, bytes)
                .unwrap();
            expected.push((done, i, cid));
        }
        expected.sort_unstable();
        let reap = |q: &mut QueuePair| std::iter::from_fn(|| q.poll()).collect::<Vec<_>>();
        // Nothing is visible before any completion time.
        assert_eq!(q.deliver_completions(Time::ZERO), 0);
        assert!(q.poll().is_none());
        // A cut between two completion times delivers exactly the
        // earlier ones, earliest first.
        let cut = expected[4].0;
        assert!(expected[5].0 > cut);
        assert_eq!(q.deliver_completions(cut), 5);
        let in_order: Vec<u16> = expected.iter().map(|&(_, _, cid)| cid).collect();
        assert_eq!(reap(&mut q), in_order[..5]);
        // The rest arrive at the horizon, still in time order.
        let horizon = Time::from_nanos(u64::MAX / 2);
        assert_eq!(q.deliver_completions(horizon), 7);
        assert_eq!(reap(&mut q), in_order[5..]);
        assert_eq!(q.in_flight(), 0);
    }

    #[test]
    fn writes_flow_through_the_same_rings() {
        let mut q = qp(8);
        let cid = q.submit(Time::ZERO, Opcode::Write, 65_536, 65_536).unwrap();
        q.poll_until(cid);
        assert_eq!(q.device().stats().writes, 1);
    }

    #[test]
    fn submit_blocking_spins_through_back_pressure() {
        let mut q = qp(4); // 3 usable slots
        let mut last = Time::ZERO;
        for i in 0..32u64 {
            last = last.max(q.submit_blocking(Time::ZERO, Opcode::Read, i * 65_536, 65_536));
        }
        assert_eq!(q.device().stats().reads, 32);
        // Back-pressure forces serialization beyond the ring depth: the
        // run must take longer than 3 fully-parallel reads.
        let mut free = qp(64);
        let mut free_last = Time::ZERO;
        for i in 0..32u64 {
            free_last =
                free_last.max(free.submit_blocking(Time::ZERO, Opcode::Read, i * 65_536, 65_536));
        }
        assert!(last >= free_last, "a deeper ring can only help");
    }

    #[test]
    fn cids_wrap_without_collision_in_flight() {
        let mut q = qp(4);
        for i in 0..1_000u64 {
            let cid = q
                .submit(Time::ZERO, Opcode::Read, (i % 64) * 65_536, 65_536)
                .unwrap();
            q.poll_until(cid);
        }
        assert_eq!(q.device().stats().reads, 1_000);
    }
}
