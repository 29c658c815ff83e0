//! A single DRAM device with a stream-aware leaky-bucket queueing model.
//!
//! The device serves many *streams* — one per VM slot (plus the hypervisor's
//! own traffic) — through one shared bandwidth pipe.  Each stream keeps its
//! own backlog bucket so the occupancy every tenant contributes is known
//! exactly, while the queueing delay any access observes is the *total*
//! backlog across all streams: bandwidth is shared, attribution is per VM.
//! With a single stream the model degenerates to the classic single-bucket
//! leaky bucket the simulator has always used.

use core::fmt;

use hatric_types::Counter;

/// The two kinds of DRAM in the simulated system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryKind {
    /// Small, high-bandwidth die-stacked DRAM.
    DieStacked,
    /// Large, lower-bandwidth off-chip DRAM.
    OffChip,
}

impl fmt::Display for MemoryKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemoryKind::DieStacked => write!(f, "die-stacked DRAM"),
            MemoryKind::OffChip => write!(f, "off-chip DRAM"),
        }
    }
}

/// Static parameters of one device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceConfig {
    /// Which device this is.
    pub kind: MemoryKind,
    /// Capacity in bytes.
    pub capacity_bytes: u64,
    /// Unloaded access latency, in CPU cycles.
    pub base_latency_cycles: u64,
    /// Service time per 64-byte line, in cycles — the inverse of bandwidth.
    /// The paper's 4× bandwidth differential is expressed by giving the
    /// die-stacked device a service time 4× smaller.
    pub service_cycles_per_line: u64,
}

/// Counters kept per device and per stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceStats {
    /// Number of demand line accesses served.
    pub accesses: Counter,
    /// Total queueing delay added on top of the base latency.
    pub queueing_cycles: Counter,
    /// Bulk line transfers (page-copy occupancy) deposited without a demand
    /// access.
    pub occupied_lines: Counter,
}

impl DeviceStats {
    /// Accumulates `other` into `self` (used when aggregating per-socket or
    /// per-stream statistics).
    pub fn merge(&mut self, other: &DeviceStats) {
        self.accesses.add(other.accesses.get());
        self.queueing_cycles.add(other.queueing_cycles.get());
        self.occupied_lines.add(other.occupied_lines.get());
    }
}

/// One stream's share of the device: its backlog bucket and its counters.
#[derive(Debug, Clone, Default)]
struct StreamState {
    backlog_cycles: f64,
    stats: DeviceStats,
}

/// One DRAM device modelled as a leaky bucket per stream: every access
/// deposits its service time into the issuing stream's bucket; the buckets
/// drain in real time at the device's (shared) service rate; the queueing
/// delay an access observes is the *sum* of all buckets — whoever uses the
/// pipe delays everyone behind it, but each stream's deposits are accounted
/// separately so per-VM bandwidth attribution is exact.
///
/// Every deposit and drain is a whole number of cycles, so each backlog is
/// an integer-valued `f64`.  That is what lets
/// [`MemoryDevice::occupy_lines`] book a page copy's run of one-line
/// transfers in closed form, bit-identical to booking them one at a time.
#[derive(Debug, Clone)]
pub struct MemoryDevice {
    config: DeviceConfig,
    streams: Vec<StreamState>,
    last_update: u64,
    stats: DeviceStats,
    /// Transient service-latency multiplier × 100 (`100` = nominal).
    /// Fault injection raises it during a DRAM brownout; every deposit —
    /// serial or planned — goes through [`MemoryDevice::effective_service`]
    /// so the serial pipeline and the slice engine observe the same
    /// degraded timing.
    service_multiplier_x100: u64,
}

impl MemoryDevice {
    /// Creates an idle device.
    #[must_use]
    pub fn new(config: DeviceConfig) -> Self {
        Self {
            config,
            streams: Vec::new(),
            last_update: 0,
            stats: DeviceStats::default(),
            service_multiplier_x100: 100,
        }
    }

    /// The device's static parameters.
    #[must_use]
    pub fn config(&self) -> DeviceConfig {
        self.config
    }

    /// Sets the transient brownout multiplier (×100 fixed point; `100`
    /// restores nominal service).  Zero is clamped to `100`: a brownout
    /// slows the device, it never makes it free.
    pub fn set_service_multiplier_x100(&mut self, multiplier_x100: u64) {
        self.service_multiplier_x100 = multiplier_x100.max(1);
    }

    /// The brownout multiplier currently in force.
    #[must_use]
    pub fn service_multiplier_x100(&self) -> u64 {
        self.service_multiplier_x100
    }

    /// Service time per line with the brownout multiplier applied
    /// (integer fixed-point: exact identity at the nominal `100`).
    #[must_use]
    pub fn effective_service(&self) -> u64 {
        self.config.service_cycles_per_line * self.service_multiplier_x100 / 100
    }

    /// Drains the shared pipe: `elapsed` cycles of service are consumed from
    /// the stream buckets in index order (a deterministic FIFO
    /// approximation).  The total backlog shrinks exactly as the classic
    /// single-bucket model's would.
    fn drain(&mut self, now: u64) {
        if now > self.last_update {
            let mut remaining = (now - self.last_update) as f64;
            for stream in &mut self.streams {
                if remaining <= 0.0 {
                    break;
                }
                let take = stream.backlog_cycles.min(remaining);
                stream.backlog_cycles -= take;
                remaining -= take;
            }
            self.last_update = now;
        }
    }

    fn ensure_stream(&mut self, stream: usize) {
        if stream >= self.streams.len() {
            self.streams.resize_with(stream + 1, StreamState::default);
        }
    }

    fn total_backlog(&self) -> f64 {
        self.streams.iter().map(|s| s.backlog_cycles).sum()
    }

    /// Adds one line transfer's occupancy by `stream` at time `now` and
    /// returns the occupancy cost (used for bulk page copies, which see
    /// bandwidth but not the full random-access latency per line).
    pub fn occupy(&mut self, stream: usize, now: u64) -> u64 {
        self.drain(now);
        self.ensure_stream(stream);
        let service = self.effective_service();
        self.streams[stream].backlog_cycles += service as f64;
        self.streams[stream].stats.occupied_lines.incr();
        self.stats.occupied_lines.incr();
        service
    }

    /// Adds the occupancy of `n` consecutive line transfers by `stream`, the
    /// `i`-th at time `now + i`, and returns their summed cost.  Device state
    /// and result equal those of `n` calls of [`MemoryDevice::occupy`] at
    /// `now, now + 1, …`, in time that grows with the stream count, not
    /// with `n`.
    ///
    /// The first line is a plain `occupy`.  Every later line drains at most
    /// one cycle before it deposits, so the drains form one budget,
    /// `(now + n − 1) − last_update` (not `n − 1`: cycle counters are per
    /// CPU, so `last_update` can already lie past `now`).  The budget
    /// empties the streams below `stream` in index order and the rest comes
    /// off `stream` itself, which gains `service` per line and so never runs
    /// dry; streams above it are never touched.  With a zero service the
    /// lines deposit nothing and the whole run is one drain.  Backlogs are
    /// integer-valued, so the closed form is bit-identical.
    pub fn occupy_lines(&mut self, stream: usize, now: u64, n: u64) -> u64 {
        if n == 0 {
            return 0;
        }
        let service = self.occupy(stream, now);
        let rest = n - 1;
        if rest == 0 {
            return service;
        }
        let end = now + rest;
        if service == 0 {
            self.drain(end);
        } else {
            let mut budget = end.saturating_sub(self.last_update) as f64;
            for lower in &mut self.streams[..stream] {
                if budget <= 0.0 {
                    break;
                }
                let take = lower.backlog_cycles.min(budget);
                lower.backlog_cycles -= take;
                budget -= take;
            }
            self.streams[stream].backlog_cycles += (rest * service) as f64 - budget;
            self.last_update = self.last_update.max(end);
        }
        self.streams[stream].stats.occupied_lines.add(rest);
        self.stats.occupied_lines.add(rest);
        n * service
    }

    /// Performs one demand access by `stream` at time `now`; returns its
    /// latency (base + current queueing delay across all streams) in cycles.
    pub fn access(&mut self, stream: usize, now: u64) -> u64 {
        self.access_detail(stream, now).0
    }

    /// Like [`MemoryDevice::access`], but returns `(latency, queueing)` so callers
    /// can attribute the queueing component separately (the telemetry layer
    /// histograms DRAM queueing delay on its own).
    pub fn access_detail(&mut self, stream: usize, now: u64) -> (u64, u64) {
        self.drain(now);
        self.ensure_stream(stream);
        let queueing = self.total_backlog() as u64;
        self.streams[stream].backlog_cycles += self.effective_service() as f64;
        self.streams[stream].stats.accesses.incr();
        self.streams[stream].stats.queueing_cycles.add(queueing);
        self.stats.accesses.incr();
        self.stats.queueing_cycles.add(queueing);
        (self.config.base_latency_cycles + queueing, queueing)
    }

    /// The queueing delay an access at time `now` would observe, computed
    /// against the device's *frozen* state (no mutation): the total backlog
    /// at the last update minus the service performed since.  The parallel
    /// slice engine uses this to predict latencies against a slice-start
    /// snapshot while the real bookings are deferred to the commit phase.
    #[must_use]
    pub fn projected_queueing(&self, now: u64) -> u64 {
        let elapsed = now.saturating_sub(self.last_update) as f64;
        let backlog = self.total_backlog() - elapsed;
        if backlog > 0.0 {
            backlog as u64
        } else {
            0
        }
    }

    /// Counters accumulated so far across all streams.
    #[must_use]
    pub fn stats(&self) -> DeviceStats {
        self.stats
    }

    /// Counters accumulated by one stream (all-zero for a stream that never
    /// touched this device).
    #[must_use]
    pub fn stream_stats(&self, stream: usize) -> DeviceStats {
        self.streams
            .get(stream)
            .map(|s| s.stats)
            .unwrap_or_default()
    }

    /// Number of streams that have touched this device.
    #[must_use]
    pub fn stream_count(&self) -> usize {
        self.streams.len()
    }

    /// Resets the queueing clock (used when the simulation's cycle counters
    /// are reset between the warmup and measured phases).  Statistics are
    /// preserved.
    pub fn reset_timing(&mut self) {
        for stream in &mut self.streams {
            stream.backlog_cycles = 0.0;
        }
        self.last_update = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hatric_types::SimRng;

    fn cfg(service: u64) -> DeviceConfig {
        DeviceConfig {
            kind: MemoryKind::OffChip,
            capacity_bytes: 1 << 30,
            base_latency_cycles: 100,
            service_cycles_per_line: service,
        }
    }

    #[test]
    fn idle_device_has_base_latency() {
        let mut dev = MemoryDevice::new(cfg(4));
        assert_eq!(dev.access(0, 0), 100);
    }

    #[test]
    fn back_to_back_accesses_queue() {
        let mut dev = MemoryDevice::new(cfg(4));
        let first = dev.access(0, 0);
        let second = dev.access(0, 0);
        let third = dev.access(0, 0);
        assert!(second > first);
        assert!(third > second);
    }

    #[test]
    fn backlog_drains_over_time() {
        let mut dev = MemoryDevice::new(cfg(4));
        for _ in 0..100 {
            dev.access(0, 0);
        }
        let loaded = dev.access(0, 0);
        // After a long idle gap the device is back to base latency.
        let relaxed = dev.access(0, 1_000_000);
        assert!(loaded > relaxed);
        assert_eq!(relaxed, 100);
    }

    #[test]
    fn higher_bandwidth_queues_less() {
        let mut fast = MemoryDevice::new(cfg(1));
        let mut slow = MemoryDevice::new(cfg(4));
        let fast_total: u64 = (0..1000).map(|i| fast.access(0, i)).sum();
        let slow_total: u64 = (0..1000).map(|i| slow.access(0, i)).sum();
        assert!(slow_total > fast_total);
    }

    #[test]
    fn stats_accumulate() {
        let mut dev = MemoryDevice::new(cfg(2));
        dev.access(0, 0);
        dev.access(0, 0);
        assert_eq!(dev.stats().accesses.get(), 2);
        assert!(dev.stats().queueing_cycles.get() >= 2);
    }

    #[test]
    fn streams_share_the_pipe_but_are_attributed_separately() {
        let mut dev = MemoryDevice::new(cfg(4));
        // Stream 0 loads the device; stream 1's first access still sees the
        // full backlog (bandwidth is shared)...
        for _ in 0..10 {
            dev.access(0, 0);
        }
        let delayed = dev.access(1, 0);
        assert!(delayed > 100, "stream 1 must queue behind stream 0");
        // ...but the books say exactly who deposited what.
        assert_eq!(dev.stream_stats(0).accesses.get(), 10);
        assert_eq!(dev.stream_stats(1).accesses.get(), 1);
        assert_eq!(dev.stream_stats(7).accesses.get(), 0);
    }

    #[test]
    fn brownout_multiplies_service_and_restores_exactly() {
        let mut dev = MemoryDevice::new(cfg(4));
        assert_eq!(dev.effective_service(), 4);
        dev.set_service_multiplier_x100(250);
        assert_eq!(dev.effective_service(), 10);
        assert_eq!(dev.occupy(0, 0), 10, "occupancy pays the browned-out rate");
        dev.set_service_multiplier_x100(100);
        assert_eq!(dev.effective_service(), 4, "nominal is an exact identity");
        // Zero is clamped: a brownout never makes service free.
        dev.set_service_multiplier_x100(0);
        assert!(dev.effective_service() <= 1);
    }

    #[test]
    fn browned_out_device_queues_more() {
        let mut nominal = MemoryDevice::new(cfg(4));
        let mut browned = MemoryDevice::new(cfg(4));
        browned.set_service_multiplier_x100(300);
        let a: u64 = (0..200).map(|i| nominal.access(0, i)).sum();
        let b: u64 = (0..200).map(|i| browned.access(0, i)).sum();
        assert!(b > a, "3x service time must raise queueing delay");
    }

    #[test]
    fn stream_stats_sum_to_device_totals() {
        let mut dev = MemoryDevice::new(cfg(3));
        for i in 0..50u64 {
            dev.access((i % 3) as usize, i / 2);
            if i % 7 == 0 {
                dev.occupy((i % 2) as usize, i / 2);
            }
        }
        let total = dev.stats();
        let mut summed = DeviceStats::default();
        for s in 0..dev.stream_count() {
            summed.merge(&dev.stream_stats(s));
        }
        assert_eq!(summed, total);
    }

    /// The per-line loop [`MemoryDevice::occupy_lines`] replaces.
    fn occupy_lines_per_line(dev: &mut MemoryDevice, stream: usize, now: u64, n: u64) -> u64 {
        (0..n).map(|i| dev.occupy(stream, now + i)).sum()
    }

    /// Everything observable about a device, with backlogs as raw bits.
    fn snapshot(dev: &MemoryDevice) -> (Vec<(u64, DeviceStats)>, u64, DeviceStats) {
        let streams = dev
            .streams
            .iter()
            .map(|s| (s.backlog_cycles.to_bits(), s.stats))
            .collect();
        (streams, dev.last_update, dev.stats)
    }

    #[test]
    fn occupy_lines_matches_the_per_line_loop() {
        let mut compared = 0;
        for seed in 0..48u64 {
            let mut rng = SimRng::new(seed);
            // Service 1 at 50% rounds to zero: the zero-service path.
            let service = [1, 4, 7][rng.below(3) as usize];
            let multiplier = [100, 250, 50, 1][rng.below(4) as usize];
            let mut dev = MemoryDevice::new(cfg(service));
            dev.set_service_multiplier_x100(multiplier);
            // A seeded multi-stream state: bursts of accesses and copies on
            // five streams at jittered times.
            let mut now = 1_000u64;
            for _ in 0..rng.range(1, 200) {
                now = (now + rng.below(6)).saturating_sub(rng.below(4));
                let stream = rng.below(5) as usize;
                if rng.chance(0.3) {
                    dev.occupy(stream, now);
                } else {
                    dev.access(stream, now);
                }
            }
            let last = dev.last_update;
            for at in [last - 50, last - 1, last, last + 1, last + 30, last + 500] {
                for n in [0, 1, 64] {
                    // Streams below, inside and above the populated range,
                    // including one the device has never seen.
                    for stream in [0, 2, 4, 6] {
                        let mut want = dev.clone();
                        let mut got = dev.clone();
                        let want_cost = occupy_lines_per_line(&mut want, stream, at, n);
                        let got_cost = got.occupy_lines(stream, at, n);
                        let context = format!(
                            "seed {seed} service {service} x{multiplier} at {at} (last {last}) n {n} stream {stream}"
                        );
                        assert_eq!(got_cost, want_cost, "{context}");
                        assert_eq!(snapshot(&got), snapshot(&want), "{context}");
                        compared += 1;
                    }
                }
            }
        }
        assert_eq!(compared, 48 * 6 * 3 * 4);
    }
}
