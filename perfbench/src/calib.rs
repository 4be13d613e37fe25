//! Host-speed calibration of the end-to-end host times.
//!
//! On a shared host the same pass can take from 1.0 s to 2.0 s: other
//! tenants of the machine contend for its caches and memory, in stretches
//! that outlast a run, so ten runs of unchanged code spread far wider
//! than any useful bound. The untraced run therefore also times a fixed
//! reference kernel of this crate's own, in slices between passes, and
//! states host times in reference-host seconds: a measured time scaled
//! by how much faster the kernel ran than on the reference host. A slice
//! mixes the kinds of work the simulator does (a small page cache with a
//! completion queue, hashed probes into a table larger than a core's L2
//! cache, sorting, and formatting trace lines), and it is not simulator
//! code, so a change to the simulator does not move it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt::Write as _;

use crate::clock::CpuTimer;

/// Slots of the hash table (16 MiB of `u64`); a power of two.
const TABLE_LEN: usize = 1 << 21;
/// Table probes per slice.
const PROBES: usize = 200_000;
/// Keys sorted per slice.
const SORT_LEN: usize = 1 << 15;
/// Pages of the page cache's address space (a 4 MiB dense page table).
const PAGES: usize = 1 << 20;
/// Hot pages, which take three accesses in four.
const HOT_PAGES: u64 = 1 << 14;
/// Frames of the page cache.
const FRAMES: usize = 1 << 13;
/// Completion times the page cache keeps queued.
const QUEUED: usize = 64;
/// Page-cache accesses per slice.
const ACCESSES: usize = 150_000;
/// Trace lines formatted per slice.
const LINES: u64 = 20_000;

/// Mean CPU seconds of one slice on the reference host (the 2-core Intel
/// Xeon host the bounds were measured on).
pub const REFERENCE_SLICE_S: f64 = 0.021;

/// Calibration time as a share of the measured host time it follows.
pub const SHARE: f64 = 0.1;

/// The kernel's state and the time its slices took.
pub struct Calibration {
    rng: u64,
    table: Vec<u64>,
    keys: Vec<u64>,
    /// Page → frame + 1 (0: not cached).
    page_table: Vec<u32>,
    /// Frame → page (`u32::MAX`: free).
    frames: Vec<u32>,
    referenced: Vec<bool>,
    hand: usize,
    completions: BinaryHeap<Reverse<(u64, u32)>>,
    now: u64,
    lines: String,
    /// Calibration seconds owed to measured work not yet followed by a
    /// slice.
    owed: f64,
    slices: u64,
    seconds: f64,
}

impl Calibration {
    /// Builds the kernel's state from a fixed seed (identical on every
    /// run) and runs one untimed slice, which touches all of it, so it is
    /// resident from the start.
    pub fn new() -> Calibration {
        let mut c = Calibration {
            rng: 0x9E37_79B9_7F4A_7C15,
            table: vec![0; TABLE_LEN],
            keys: vec![0; SORT_LEN],
            page_table: vec![0; PAGES],
            frames: vec![u32::MAX; FRAMES],
            referenced: vec![false; FRAMES],
            hand: 0,
            completions: BinaryHeap::with_capacity(QUEUED + 1),
            now: 0,
            lines: String::new(),
            owed: 0.0,
            slices: 0,
            seconds: 0.0,
        };
        for i in 0..TABLE_LEN {
            c.table[i] = c.next();
        }
        c.work();
        c
    }

    fn next(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }

    /// Hashed probes, half of the misses storing their key.
    fn probe(&mut self) -> u64 {
        let mask = TABLE_LEN - 1;
        let mut found = 0;
        for _ in 0..PROBES {
            let key = self.next() % (3 * TABLE_LEN as u64);
            let slot = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 24) as usize & mask;
            if self.table[slot] == key {
                found += 1;
            } else if self.table[slot] & 1 == key & 1 {
                self.table[slot] = key;
            }
        }
        found
    }

    /// A CLOCK page cache over a skewed page stream; each miss queues a
    /// completion time and the queue keeps the latest [`QUEUED`].
    fn page_cache(&mut self) -> u64 {
        let mut misses = 0;
        for _ in 0..ACCESSES {
            let x = self.next();
            let page = if x & 3 != 0 {
                (x >> 8) % HOT_PAGES
            } else {
                (x >> 8) % PAGES as u64
            } as usize;
            self.now += 1;
            let frame = self.page_table[page];
            if frame != 0 {
                self.referenced[frame as usize - 1] = true;
                continue;
            }
            misses += 1;
            while self.referenced[self.hand] {
                self.referenced[self.hand] = false;
                self.hand = (self.hand + 1) % FRAMES;
            }
            let victim = self.frames[self.hand];
            if victim != u32::MAX {
                self.page_table[victim as usize] = 0;
            }
            self.frames[self.hand] = page as u32;
            self.page_table[page] = self.hand as u32 + 1;
            self.referenced[self.hand] = true;
            self.hand = (self.hand + 1) % FRAMES;
            self.completions
                .push(Reverse((self.now + (x & 1023), page as u32)));
            if self.completions.len() > QUEUED {
                self.completions.pop();
            }
        }
        misses
    }

    /// Formats trace-like JSON lines into a reused buffer.
    fn format_lines(&mut self) -> usize {
        self.lines.clear();
        for i in 0..LINES {
            let x = self.next();
            let _ = writeln!(
                self.lines,
                "{{\"t\":{i},\"vt\":{},\"ev\":\"Hit\",\"page\":{}}}",
                x >> 20,
                x & 0xFFFF
            );
        }
        self.lines.len()
    }

    /// One slice's fixed work.
    fn work(&mut self) {
        let found = self.probe();
        for i in 0..SORT_LEN {
            self.keys[i] = self.next();
        }
        self.keys.sort_unstable();
        let misses = self.page_cache();
        let bytes = self.format_lines();
        std::hint::black_box((found, self.keys[SORT_LEN / 2], misses, bytes));
    }

    /// Runs and times one slice.
    fn slice(&mut self) {
        let started = CpuTimer::start();
        self.work();
        self.seconds += started.elapsed().as_secs_f64();
        self.slices += 1;
    }

    /// Follows `host_s` seconds of measured work with [`SHARE`] of that
    /// in whole slices (the remainder is carried to the next call), so
    /// the kernel samples the host across the same stretch of time as
    /// the work.
    pub fn after(&mut self, host_s: f64) {
        self.owed += SHARE * host_s;
        while self.owed >= REFERENCE_SLICE_S {
            self.slice();
            self.owed -= REFERENCE_SLICE_S;
        }
    }

    /// Slices run so far.
    pub fn slices(&self) -> u64 {
        self.slices
    }

    /// How much faster this host ran the kernel than the reference host
    /// did (below 1 when slower); multiplying a measured host time by it
    /// gives reference-host seconds. Runs one slice first if none has.
    pub fn speed(&mut self) -> f64 {
        if self.slices == 0 {
            self.slice();
        }
        REFERENCE_SLICE_S * self.slices as f64 / self.seconds
    }
}

impl Default for Calibration {
    fn default() -> Calibration {
        Calibration::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_follow_their_share_of_measured_time() {
        let mut c = Calibration::new();
        c.after(1.5 * REFERENCE_SLICE_S / SHARE);
        assert_eq!(c.slices(), 1);
        c.after(0.6 * REFERENCE_SLICE_S / SHARE);
        assert_eq!(c.slices(), 2);
        let speed = c.speed();
        assert!(speed.is_finite() && speed > 0.0);
    }
}
