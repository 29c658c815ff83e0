//! Machine-speed calibration.  The machines this benchmark runs on change
//! speed by up to 2× within seconds (shared cores and caches), which swamps
//! the differences a benchmark must see.  So a fixed kernel, which no
//! change to the simulator can speed up or slow down, runs in short chunks
//! between the workload's steps, and each step's host time is rescaled by
//! how fast the kernel ran around it: time in *reference seconds*, the
//! seconds the step would take at the kernel's reference speed.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Entries of the kernel's table (256 KiB): a set-associative lookup
/// table like the simulator's structures.  It overflows the L1 but leaves
/// most of the L2 to the workload, whose steps run right after a chunk.
/// (A 2 MiB table tracked the machine's speed no better and evicted the
/// workload's state: its steps ran about 20% slower.)
const TABLE_ENTRIES: usize = 1 << 15;
const WAYS: usize = 8;
const SETS: usize = TABLE_ENTRIES / WAYS;
/// Distinct keys the kernel draws from: twice the table's capacity, so
/// about half the lookups hit.
const KEYS: u64 = 2 * TABLE_ENTRIES as u64;
/// Lookups per chunk.
const CHUNK_LOOKUPS: u32 = 8_192;
/// Workload time between two chunks.
const INTERVAL: Duration = Duration::from_millis(16);
/// A chunk's host time at the reference speed: its typical time on the
/// 2-vCPU Xeon machine the benchmark was tuned on.
const REFERENCE_CHUNK_NS: f64 = 150_000.0;

/// The calibration kernel: pseudo-random lookups with random replacement
/// in a set-associative table.
pub struct Calibrator {
    table: Vec<u64>,
    state: u64,
}

impl Calibrator {
    pub fn new() -> Self {
        let mut cal = Self {
            table: vec![u64::MAX; TABLE_ENTRIES],
            state: 0x9e37_79b9_7f4a_7c15,
        };
        // Fill the table so the first chunks run at steady state.
        for _ in 0..(TABLE_ENTRIES as u32 / CHUNK_LOOKUPS) * 4 {
            cal.chunk();
        }
        cal
    }

    /// Runs one chunk and returns its host time in ns.
    pub fn chunk(&mut self) -> f64 {
        let start = Instant::now();
        let mut x = self.state;
        let mut hits = 0u32;
        for _ in 0..CHUNK_LOOKUPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = x % KEYS;
            let set = (key as usize % SETS) * WAYS;
            let ways = &mut self.table[set..set + WAYS];
            if ways.contains(&key) {
                hits += 1;
            } else {
                ways[(x >> 59) as usize % WAYS] = key;
            }
        }
        black_box(hits);
        self.state = x;
        start.elapsed().as_nanos() as f64
    }
}

/// Times a sequence of samples (steps) with calibration chunks between
/// them, and rescales each sample to reference seconds.
pub struct Meter<'a> {
    cal: &'a mut Calibrator,
    raw: Vec<Duration>,
    /// Chunk times in ns; chunk `k` ran before sample `bounds[k]`.
    chunks: Vec<f64>,
    bounds: Vec<usize>,
    since_chunk: Duration,
}

impl<'a> Meter<'a> {
    /// Starts a sequence with a chunk, so the first samples have a speed.
    pub fn start(cal: &'a mut Calibrator, capacity: usize) -> Self {
        let mut meter = Self {
            cal,
            raw: Vec::with_capacity(capacity),
            chunks: Vec::new(),
            bounds: Vec::new(),
            since_chunk: Duration::ZERO,
        };
        meter.run_chunk();
        meter
    }

    fn run_chunk(&mut self) {
        self.chunks.push(self.cal.chunk());
        self.bounds.push(self.raw.len());
        self.since_chunk = Duration::ZERO;
    }

    /// Adds one sample's host time, running a chunk when enough workload
    /// time has passed since the last one.
    pub fn add(&mut self, sample: Duration) {
        self.raw.push(sample);
        self.since_chunk += sample;
        if self.since_chunk >= INTERVAL {
            self.run_chunk();
        }
    }

    /// Ends the sequence with a chunk and returns it.
    pub fn finish(mut self) -> Calibrated {
        if self.bounds.last() != Some(&self.raw.len()) {
            self.run_chunk();
        }
        // The samples between two chunks ran at the faster of their speeds:
        // an interrupt or a preempted CPU can only make a chunk slower, so
        // the smaller of two neighbouring chunk times is the better reading.
        let mut scaled = Vec::with_capacity(self.raw.len());
        for (k, pair) in self.bounds.windows(2).enumerate() {
            let chunk_ns = self.chunks[k].min(self.chunks[k + 1]);
            let factor = REFERENCE_CHUNK_NS / chunk_ns;
            scaled.extend(self.raw[pair[0]..pair[1]].iter().map(|d| d.mul_f64(factor)));
        }
        Calibrated {
            raw: self.raw,
            scaled,
            chunks: self.chunks,
        }
    }
}

/// A calibrated sequence of samples.
pub struct Calibrated {
    /// Host time of each sample.
    pub raw: Vec<Duration>,
    /// The same in reference time.
    pub scaled: Vec<Duration>,
    /// Host ns of each calibration chunk.
    pub chunks: Vec<f64>,
}

impl Calibrated {
    pub fn raw_total(&self) -> Duration {
        self.raw.iter().sum()
    }

    pub fn scaled_total(&self) -> Duration {
        self.scaled.iter().sum()
    }
}
