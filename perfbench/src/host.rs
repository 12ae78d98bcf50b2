//! Host-speed reference: a fixed memory-bound kernel timed between jobs, so
//! every timing can be expressed at one nominal host speed.
//!
//! On a shared 2-vCPU Xeon VM the simulator's wall time drifts by up to
//! 1.7× over minutes (the same replay took 1.8 s in one minute and 3.0 s in
//! the next, with no steal time the guest could see).  The drift comes from
//! the memory system the VM shares, so it barely moves a compute loop but
//! moves random reads and writes over tables larger than the L2 almost one
//! for one with the simulator.  This kernel does such reads and writes, over
//! a table larger than the L3 and over one that fits in it, because the
//! simulator's working set straddles the two and each drifts on its own.
//! It is the benchmark's own code and never changes with the program, so a
//! job's wall time divided by the kernel's time around it measures the
//! program, not its neighbours.

use std::time::Instant;

use crate::metrics::median;

/// Table entries: 128 MiB of `u64`, beyond the host's L2 and L3.
const TABLE_LEN: usize = 1 << 24;
/// Entries of the table's first part, 16 MiB: beyond the L2, inside the L3.
const NEAR_LEN: usize = 1 << 21;
/// Random read-modify-writes per reference run over the whole table and
/// over its first part (about 0.07 s and 0.1 s).
const FAR_UPDATES: u64 = 4_000_000;
const NEAR_UPDATES: u64 = 8_000_000;
/// The reference time every timing is scaled to: a timing of `t` seconds
/// with the kernel taking `r` seconds around it reports `t × NOMINAL_S / r`.
const NOMINAL_S: f64 = 0.17;
/// Jobs shorter than this share one reference run between them.
const MIN_GAP_S: f64 = 1.0;

/// One thread's share of the kernel: its table and generator state.
struct Lane {
    table: Vec<u64>,
    state: u64,
}

impl Lane {
    fn run(&mut self) {
        self.update(TABLE_LEN, FAR_UPDATES);
        self.update(NEAR_LEN, NEAR_UPDATES);
    }

    /// `count` read-modify-writes at xorshift-random slots of the table's
    /// first `len` entries (a power of two).
    fn update(&mut self, len: usize, count: u64) {
        let table = &mut self.table[..len];
        let (mut x, mut acc) = (self.state, 0u64);
        for _ in 0..count {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = &mut table[x as usize & (len - 1)];
            *slot = slot.wrapping_add(acc);
            acc ^= *slot;
        }
        // Never 0, the one state xorshift cannot leave.
        self.state = std::hint::black_box(x ^ acc) | 1;
    }
}

/// The reference kernel and the times of its runs so far.
pub struct HostClock {
    lanes: Vec<Lane>,
    refs: Vec<f64>,
    last: Instant,
}

impl HostClock {
    /// Fills one table per lane and takes the first reference run.  The
    /// kernel runs on `lanes` threads at once, as many as the workload's
    /// jobs keep busy, so it meets the host where the jobs do.
    pub fn new(lanes: usize) -> HostClock {
        let mut clock = HostClock {
            lanes: (0..lanes.max(1) as u64)
                .map(|lane| Lane {
                    table: (0..TABLE_LEN as u64).collect(),
                    state: 0x9E37_79B9_7F4A_7C15 ^ lane,
                })
                .collect(),
            refs: Vec::new(),
            last: Instant::now(),
        };
        clock.sample();
        clock
    }

    /// Runs the kernel once and records its time; returns the index of the
    /// segment that starts now.
    pub fn sample(&mut self) -> usize {
        let started = Instant::now();
        match self.lanes.as_mut_slice() {
            [lane] => lane.run(),
            lanes => std::thread::scope(|scope| {
                for lane in lanes {
                    scope.spawn(|| lane.run());
                }
            }),
        }
        self.refs.push(started.elapsed().as_secs_f64());
        self.last = Instant::now();
        self.refs.len() - 1
    }

    /// Called before each job: takes a reference run when the last one is
    /// at least [`MIN_GAP_S`] old.  Returns the job's segment.
    pub fn segment(&mut self) -> usize {
        if self.last.elapsed().as_secs_f64() >= MIN_GAP_S {
            self.sample()
        } else {
            self.refs.len() - 1
        }
    }

    /// `secs` measured in `segment`, scaled to the nominal host speed by the
    /// mean reference time at the segment's two ends (its start alone while
    /// its end is not yet sampled).
    pub fn adjust(&self, secs: f64, segment: usize) -> f64 {
        let around = match self.refs.get(segment + 1) {
            Some(end) => (self.refs[segment] + end) / 2.0,
            None => self.refs[segment],
        };
        secs * NOMINAL_S / around
    }

    /// Median reference time in milliseconds.
    pub fn median_ms(&self) -> f64 {
        median(&self.refs) * 1e3
    }

    /// Memory the tables hold, which the benchmark process's peak resident
    /// set includes but the program does not use.
    pub fn table_mib(&self) -> f64 {
        (self.lanes.len() * TABLE_LEN * std::mem::size_of::<u64>()) as f64 / (1024.0 * 1024.0)
    }
}
