//! Differential tests: the completion-ordered [`QueuePair`] against the
//! Vec-scan queue pair it replaced.
//!
//! [`VecScanQueuePair`] below is the earlier implementation, kept as a
//! reference model: an unordered `Vec` of in-flight commands, a `find`
//! to read back a completion time, a `min` to find the earliest, and a
//! `swap_remove` scan to deliver. Both are driven through the same op
//! interleavings, and return values, ring depths, device statistics and
//! every trace record must agree.
//!
//! The one permitted difference is the order *within* one delivery
//! batch. The scan posts a batch in slot order, which earlier
//! `swap_remove`s scramble; the new queue posts it in
//! `(done_at, submission)` order. The reference's batches are therefore
//! compared after sorting them into that order, and its polls are
//! checked to reap a permutation of each batch.

use std::collections::{HashMap, VecDeque};

use gmt_sim::trace::{TraceEvent, TraceRecord, TraceSink};
use gmt_sim::{Dur, Time};
use gmt_ssd::qpair::QueuePair;
use gmt_ssd::queue::{Command, CompletionQueue, Opcode, QueueFull, SubmissionQueue};
use gmt_ssd::{SsdConfig, SsdDevice};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[derive(Debug, Clone, Copy)]
struct InFlight {
    done_at: Time,
    cid: u16,
}

/// The Vec-scan queue pair: the same protocol with linear bookkeeping.
struct VecScanQueuePair {
    device: SsdDevice,
    sq: SubmissionQueue,
    cq: CompletionQueue,
    in_flight: Vec<InFlight>,
    next_cid: u16,
    trace: TraceSink,
}

impl VecScanQueuePair {
    fn new(device: SsdDevice, depth: usize) -> VecScanQueuePair {
        VecScanQueuePair {
            device,
            sq: SubmissionQueue::new(depth),
            cq: CompletionQueue::new(depth),
            in_flight: Vec::with_capacity(depth),
            next_cid: 0,
            trace: TraceSink::disabled(),
        }
    }

    fn attach_trace(&mut self, trace: &TraceSink) {
        self.trace = trace.clone();
        self.device.attach_trace(trace, 0);
    }

    fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Completion time of in-flight command `cid`.
    fn done_at(&self, cid: u16) -> Time {
        self.in_flight
            .iter()
            .find(|f| f.cid == cid)
            .expect("command is in flight")
            .done_at
    }

    fn submit(
        &mut self,
        now: Time,
        opcode: Opcode,
        offset: u64,
        bytes: u64,
    ) -> Result<u16, QueueFull> {
        if self.in_flight.len() >= self.sq.capacity() {
            return Err(QueueFull);
        }
        let block = self.device.config().block_bytes as u64;
        let cid = self.next_cid;
        self.next_cid = self.next_cid.wrapping_add(1);
        let cmd = Command::io(cid, opcode, offset / block, bytes.div_ceil(block) as u32);
        self.sq.push(cmd)?;
        self.sq.ring_doorbell();
        let fetched = self.sq.pop().expect("doorbelled command is visible");
        let (done_at, _entry) = self.device.submit(now, fetched);
        self.in_flight.push(InFlight { done_at, cid });
        self.trace.emit(
            now,
            TraceEvent::RingSubmit {
                cid,
                write: !matches!(opcode, Opcode::Read),
                queue_depth: self.in_flight.len() as u32,
            },
        );
        Ok(cid)
    }

    fn deliver_completions(&mut self, now: Time) -> usize {
        let sq_head = self.sq.head();
        let mut posted = 0;
        let mut i = 0;
        while i < self.in_flight.len() {
            if self.in_flight[i].done_at <= now {
                let f = self.in_flight.swap_remove(i);
                self.cq.post(f.cid, 0, sq_head);
                self.trace.emit(
                    now,
                    TraceEvent::RingComplete {
                        cid: f.cid,
                        queue_depth: self.in_flight.len() as u32,
                    },
                );
                posted += 1;
            } else {
                i += 1;
            }
        }
        posted
    }

    fn poll(&mut self) -> Option<u16> {
        self.cq.poll().map(|e| e.cid)
    }

    fn poll_until(&mut self, cid: u16) -> Time {
        let target = self.done_at(cid);
        self.deliver_completions(target);
        let mut found = false;
        while let Some(done_cid) = self.poll() {
            if done_cid == cid {
                found = true;
            }
        }
        assert!(found, "completion for {cid} must have been posted");
        target
    }

    fn submit_blocking(&mut self, now: Time, opcode: Opcode, offset: u64, bytes: u64) -> Time {
        let mut now = now;
        loop {
            match self.submit(now, opcode, offset, bytes) {
                Ok(cid) => return self.done_at(cid),
                Err(QueueFull) => {
                    let earliest = self
                        .in_flight
                        .iter()
                        .map(|f| f.done_at)
                        .min()
                        .expect("full ring has in-flight commands");
                    now = now.max(earliest);
                    self.deliver_completions(now);
                    while self.poll().is_some() {}
                }
            }
        }
    }

    fn device(&self) -> &SsdDevice {
        &self.device
    }
}

/// Command sizes mixed into the interleavings: sub-page, page and
/// multi-page I/Os.
const SIZES: [u64; 6] = [512, 4_096, 16_384, 65_536, 131_072, 262_144];

#[derive(Debug, Clone, Copy)]
enum Op {
    Submit {
        write: bool,
        bytes: u64,
        advance: u64,
    },
    SubmitBlocking {
        write: bool,
        bytes: u64,
        advance: u64,
    },
    Deliver {
        advance: u64,
    },
    Poll {
        count: usize,
    },
    PollUntil {
        pick: usize,
    },
}

/// Decodes a raw draw into an op (the proptest shim has no
/// `prop_oneof`). Time advances by up to ~0.5 ms per op, so deliveries
/// range from none to several commands.
fn op(sel: u8, a: u64, b: u64) -> Op {
    let write = a & 1 == 1;
    let bytes = SIZES[(a >> 1) as usize % SIZES.len()];
    let advance = b % 500_000;
    match sel {
        0..=3 => Op::Submit {
            write,
            bytes,
            advance,
        },
        4..=6 => Op::SubmitBlocking {
            write,
            bytes,
            advance,
        },
        7 | 8 => Op::Deliver { advance },
        9 | 10 => Op::Poll {
            count: 1 + (a % 4) as usize,
        },
        _ => Op::PollUntil { pick: b as usize },
    }
}

fn opcode(write: bool) -> Opcode {
    if write {
        Opcode::Write
    } else {
        Opcode::Read
    }
}

/// Both queue pairs behind identical, traced devices, plus the
/// bookkeeping that maps the reference's batch order onto time order.
struct Harness {
    new: QueuePair,
    old: VecScanQueuePair,
    new_trace: TraceSink,
    old_trace: TraceSink,
    capacity: usize,
    now: Time,
    offset: u64,
    /// `(done_at, submission index)` of every in-flight command.
    order: HashMap<u16, (Time, u64)>,
    submitted: u64,
    /// Posted, un-reaped completions in time order, tagged by batch.
    posted: VecDeque<(u16, u64)>,
    /// The same completions keyed by cid, for the reference's polls.
    old_posted: HashMap<u16, u64>,
    batches: u64,
}

impl Harness {
    fn new(depth: usize) -> Harness {
        let mut new = QueuePair::new(SsdDevice::new(SsdConfig::default()), depth);
        let mut old = VecScanQueuePair::new(SsdDevice::new(SsdConfig::default()), depth);
        let new_trace = TraceSink::bounded(1 << 16);
        let old_trace = TraceSink::bounded(1 << 16);
        new.attach_trace(&new_trace);
        old.attach_trace(&old_trace);
        Harness {
            new,
            old,
            new_trace,
            old_trace,
            capacity: depth - 1,
            now: Time::ZERO,
            offset: 0,
            order: HashMap::new(),
            submitted: 0,
            posted: VecDeque::new(),
            old_posted: HashMap::new(),
            batches: 0,
        }
    }

    fn next_offset(&mut self, bytes: u64) -> u64 {
        let offset = self.offset;
        self.offset += bytes;
        offset
    }

    /// Records the command the reference just accepted as `cid`.
    fn accepted(&mut self, cid: u16) {
        let done = self.old.done_at(cid);
        assert!(
            self.order.insert(cid, (done, self.submitted)).is_none(),
            "cid {cid} reused while in flight"
        );
        self.submitted += 1;
    }

    /// Reaps every posted completion from both rings.
    fn drain(&mut self) {
        while !self.posted.is_empty() {
            self.poll();
        }
        assert_eq!(self.new.poll(), None);
        assert_eq!(self.old.poll(), None);
    }

    fn poll(&mut self) {
        let (new_cid, old_cid) = (self.new.poll(), self.old.poll());
        assert_eq!(new_cid.is_some(), old_cid.is_some(), "poll visibility");
        let Some(expected) = self.posted.pop_front() else {
            assert_eq!(new_cid, None, "nothing was posted");
            return;
        };
        assert_eq!(new_cid, Some(expected.0), "new queue reaps in time order");
        let old_cid = old_cid.expect("visibility checked above");
        assert_eq!(
            self.old_posted.remove(&old_cid),
            Some(expected.1),
            "reference reaps cid {old_cid} from another batch"
        );
    }

    fn apply(&mut self, op: Op) {
        match op {
            Op::Submit {
                write,
                bytes,
                advance,
            } => {
                self.guard_cq();
                self.now += Dur::from_nanos(advance);
                let offset = self.next_offset(bytes);
                let got = self.new.submit(self.now, opcode(write), offset, bytes);
                let want = self.old.submit(self.now, opcode(write), offset, bytes);
                assert_eq!(got, want, "submit result");
                if let Ok(cid) = want {
                    self.accepted(cid);
                }
                self.check_trace(false);
            }
            Op::SubmitBlocking {
                write,
                bytes,
                advance,
            } => {
                self.guard_cq();
                self.now += Dur::from_nanos(advance);
                let offset = self.next_offset(bytes);
                let cid = self.old.next_cid;
                let got = self
                    .new
                    .submit_blocking(self.now, opcode(write), offset, bytes);
                let want = self
                    .old
                    .submit_blocking(self.now, opcode(write), offset, bytes);
                assert_eq!(got, want, "submit_blocking completion time");
                // Any spin reaped the whole completion ring.
                if self.check_trace(false) > 0 {
                    self.posted.clear();
                    self.old_posted.clear();
                }
                self.accepted(cid);
            }
            Op::Deliver { advance } => {
                self.now += Dur::from_nanos(advance);
                let got = self.new.deliver_completions(self.now);
                let want = self.old.deliver_completions(self.now);
                assert_eq!(got, want, "deliver_completions count");
                self.check_trace(true);
            }
            Op::Poll { count } => {
                for _ in 0..count {
                    self.poll();
                }
            }
            Op::PollUntil { pick } => {
                if self.order.is_empty() {
                    return;
                }
                let mut cids: Vec<(u64, u16)> =
                    self.order.iter().map(|(&cid, &(_, s))| (s, cid)).collect();
                cids.sort_unstable();
                let cid = cids[pick % cids.len()].1;
                let got = self.new.poll_until(cid);
                let want = self.old.poll_until(cid);
                assert_eq!(got, want, "poll_until completion time");
                self.check_trace(false);
                self.posted.clear();
                self.old_posted.clear();
            }
        }
        assert_eq!(self.new.in_flight(), self.old.in_flight(), "in-flight");
        assert_eq!(self.new.in_flight(), self.order.len(), "in-flight");
        assert_eq!(self.new.device().stats(), self.old.device().stats());
    }

    /// Keeps posted-but-unreaped plus in-flight commands within the
    /// completion ring, as any real consumer must: reaps everything
    /// before a submit that could otherwise overrun it.
    fn guard_cq(&mut self) {
        if self.new.in_flight() + self.posted.len() >= self.capacity {
            self.drain();
        }
    }

    /// Compares the records both queue pairs emitted since the last
    /// check; returns how many completions were delivered. With `post`,
    /// the delivered batch is still on the completion ring and is
    /// queued for the polls that follow.
    fn check_trace(&mut self, post: bool) -> usize {
        let new = self.new_trace.drain();
        let old = canonical(self.old_trace.drain(), &self.order);
        assert_eq!(new, old, "trace records");
        let batch = self.batches;
        self.batches += 1;
        let mut delivered = 0;
        for r in &new {
            if let TraceEvent::RingComplete { cid, .. } = r.event {
                self.order
                    .remove(&cid)
                    .expect("delivered cid was in flight");
                if post {
                    self.posted.push_back((cid, batch));
                    self.old_posted.insert(cid, batch);
                }
                delivered += 1;
            }
        }
        delivered
    }

    fn finish(mut self) {
        self.drain();
        let horizon = Time::from_nanos(u64::MAX / 2);
        self.apply(Op::Deliver {
            advance: horizon.since(self.now).as_nanos(),
        });
        self.drain();
        assert_eq!(self.new.in_flight(), 0);
    }
}

/// Sorts every run of consecutive `RingComplete` records — one delivery
/// batch — into `(done_at, submission)` order, keeping each record's
/// position-dependent `queue_depth` in place.
fn canonical(mut records: Vec<TraceRecord>, order: &HashMap<u16, (Time, u64)>) -> Vec<TraceRecord> {
    let cid = |r: &TraceRecord| match r.event {
        TraceEvent::RingComplete { cid, .. } => Some(cid),
        _ => None,
    };
    let mut i = 0;
    while i < records.len() {
        if cid(&records[i]).is_none() {
            i += 1;
            continue;
        }
        let mut end = i;
        while end < records.len() && cid(&records[end]).is_some() {
            end += 1;
        }
        let mut cids: Vec<u16> = records[i..end].iter().filter_map(cid).collect();
        cids.sort_by_key(|c| order[c]);
        for (r, c) in records[i..end].iter_mut().zip(cids) {
            if let TraceEvent::RingComplete { cid, .. } = &mut r.event {
                *cid = c;
            }
        }
        i = end;
    }
    records
}

proptest! {
    #[test]
    fn queue_pair_matches_vec_scan_reference(
        depth in 2usize..64,
        raw in proptest::collection::vec((0u8..13, any::<u64>(), any::<u64>()), 1..600),
    ) {
        let mut h = Harness::new(depth);
        for (sel, a, b) in raw {
            h.apply(op(sel, a, b));
        }
        h.finish();
    }

    #[test]
    fn bam_call_pattern_traces_match_reference(
        depth in 2usize..64,
        raw in proptest::collection::vec((any::<u8>(), any::<u64>()), 1..800),
    ) {
        // BaM only ever calls `submit_blocking`, with non-decreasing
        // times: page reads and dirty write-backs, bursts at one instant
        // and occasional long gaps. Every record of the two streams
        // matches once each reference batch is put in time order.
        let mut h = Harness::new(depth);
        for (sel, b) in raw {
            let advance = match sel % 4 {
                0 | 1 => 0,
                2 => b % 20_000,
                _ => b % 2_000_000,
            };
            h.apply(Op::SubmitBlocking { write: sel % 5 == 0, bytes: 65_536, advance });
        }
        h.finish();
    }
}

#[test]
fn cids_wrap_past_u16_max_in_lockstep() {
    // Enough submissions for the 16-bit command ids to wrap twice, at
    // a depth deep enough that long-lived commands straddle the wrap.
    let mut rng = StdRng::seed_from_u64(0x9e37_79b9);
    for depth in [2usize, 37, 63] {
        let mut h = Harness::new(depth);
        while h.submitted < 140_000 {
            let sel = rng.gen_range(0u8..13);
            h.apply(op(sel, rng.gen(), rng.gen()));
        }
        h.finish();
    }
}

#[test]
fn bam_ring_at_full_depth_matches_reference() {
    // BaM's own configuration: a 1,024-deep ring kept full by bursts.
    let mut rng = StdRng::seed_from_u64(7);
    let mut h = Harness::new(1_024);
    for _ in 0..20_000 {
        let advance = if rng.gen_range(0u32..8) == 0 {
            rng.gen_range(0u64..400_000)
        } else {
            0
        };
        h.apply(Op::SubmitBlocking {
            write: rng.gen_range(0u32..3) == 0,
            bytes: 65_536,
            advance,
        });
    }
    assert!(h.submitted >= 20_000);
    h.finish();
}

#[test]
fn reference_scan_posts_a_batch_out_of_time_order() {
    // Why batches are compared in time order: three commands delivered
    // together leave the scan as 0, 2, 1 (`swap_remove` moves the last
    // slot into the first), while the ordered queue posts 0, 1, 2.
    let mut old = VecScanQueuePair::new(SsdDevice::new(SsdConfig::default()), 8);
    let mut new = QueuePair::new(SsdDevice::new(SsdConfig::default()), 8);
    for i in 0..3u64 {
        old.submit(Time::ZERO, Opcode::Read, i * 65_536, 65_536)
            .unwrap();
        new.submit(Time::ZERO, Opcode::Read, i * 65_536, 65_536)
            .unwrap();
    }
    let horizon = Time::from_nanos(u64::MAX / 2);
    assert_eq!(old.deliver_completions(horizon), 3);
    assert_eq!(new.deliver_completions(horizon), 3);
    let old_order: Vec<u16> = std::iter::from_fn(|| old.poll()).collect();
    let new_order: Vec<u16> = std::iter::from_fn(|| new.poll()).collect();
    assert_eq!(old_order, [0, 2, 1]);
    assert_eq!(new_order, [0, 1, 2]);
}
