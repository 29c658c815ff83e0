//! # hatric-memory
//!
//! The physical-memory substrate of the HATRIC simulator: a forward-looking
//! two-level DRAM system with a small, high-bandwidth **die-stacked** device
//! and a large, lower-bandwidth **off-chip** device (2 GiB at 4× the
//! bandwidth of 8 GiB, as in Sec. 5.1 of the paper), replicated across the
//! **sockets** of a NUMA host and stitched together by an inter-socket
//! link.  Frame allocation is per `(socket, device)`, every device's
//! queueing model attributes bandwidth per *stream* (one per VM slot), and
//! a demand access pays extra latency plus link occupancy whenever the
//! frame lives on a socket other than the accessor's.
//!
//! ```
//! use hatric_memory::{MemoryKind, MemorySystem, MemorySystemConfig};
//! use hatric_types::SocketId;
//!
//! # fn main() -> Result<(), hatric_types::SimError> {
//! let mut mem = MemorySystem::new(MemorySystemConfig::paper_default());
//! let fast = mem.allocate(MemoryKind::DieStacked)?;
//! let slow = mem.allocate(MemoryKind::OffChip)?;
//! assert_eq!(mem.kind_of(fast), MemoryKind::DieStacked);
//! assert_eq!(mem.kind_of(slow), MemoryKind::OffChip);
//!
//! // Under load, the off-chip device queues far more than the die-stacked
//! // one.  Stream 0 issues every access from socket 0 (the default config
//! // is a single-socket machine, so nothing is ever remote).
//! let local = SocketId::new(0);
//! let mut fast_total = 0;
//! let mut slow_total = 0;
//! for i in 0..1000u64 {
//!     fast_total += mem.access(fast, 0, local, i * 2);
//!     slow_total += mem.access(slow, 0, local, i * 2);
//! }
//! assert!(slow_total > fast_total);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod allocator;
pub mod device;
pub mod numa;

pub use allocator::FrameAllocator;
pub use device::{DeviceConfig, DeviceStats, MemoryDevice, MemoryKind};
pub use numa::{LinkConfig, NumaConfig};

use hatric_types::consts::CACHE_LINE_BYTES;
use hatric_types::{Result, SimError, SocketId, SystemFrame, PAGE_SIZE_4K};

/// Configuration of the whole memory system: the two device kinds plus the
/// socket topology they are replicated across.
///
/// ```
/// use hatric_memory::{MemorySystemConfig, NumaConfig};
///
/// let cfg = MemorySystemConfig::paper_default().with_numa(NumaConfig::symmetric(2));
/// assert_eq!(cfg.numa.sockets, 2);
/// // The paper's 4x bandwidth differential.
/// assert_eq!(
///     cfg.off_chip.service_cycles_per_line,
///     4 * cfg.die_stacked.service_cycles_per_line
/// );
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemorySystemConfig {
    /// Die-stacked (fast) device, per socket-group aggregate (the capacity
    /// is divided evenly between sockets; each socket group gets the full
    /// per-device bandwidth).
    pub die_stacked: DeviceConfig,
    /// Off-chip (slow, large) device, divided between sockets likewise.
    pub off_chip: DeviceConfig,
    /// Fixed software/DMA overhead per migrated page, in cycles, on top of
    /// the bandwidth cost of streaming the page through both devices.
    pub page_copy_overhead_cycles: u64,
    /// Socket topology and distance cost table ([`NumaConfig::uma`] for the
    /// classic single-socket machine).
    pub numa: NumaConfig,
}

impl MemorySystemConfig {
    /// The paper's configuration: 2 GiB die-stacked DRAM with 4× the
    /// bandwidth of 8 GiB off-chip DRAM, on a single socket.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            die_stacked: DeviceConfig {
                kind: MemoryKind::DieStacked,
                capacity_bytes: 2 * 1024 * 1024 * 1024,
                base_latency_cycles: 120,
                service_cycles_per_line: 1,
            },
            off_chip: DeviceConfig {
                kind: MemoryKind::OffChip,
                capacity_bytes: 8 * 1024 * 1024 * 1024,
                base_latency_cycles: 200,
                service_cycles_per_line: 4,
            },
            page_copy_overhead_cycles: 2_000,
            numa: NumaConfig::uma(),
        }
    }

    /// A configuration with no die-stacked DRAM at all (the `no-hbm`
    /// baseline of Fig. 2): the fast device has zero capacity.
    #[must_use]
    pub fn no_hbm() -> Self {
        let mut cfg = Self::paper_default();
        cfg.die_stacked.capacity_bytes = 0;
        cfg
    }

    /// A configuration with effectively infinite die-stacked DRAM (the
    /// `inf-hbm` upper bound of Fig. 2).
    #[must_use]
    pub fn infinite_hbm() -> Self {
        let mut cfg = Self::paper_default();
        cfg.die_stacked.capacity_bytes = 1 << 44;
        cfg
    }

    /// Returns a copy with the given socket topology.
    #[must_use]
    pub fn with_numa(mut self, numa: NumaConfig) -> Self {
        self.numa = numa;
        self
    }
}

impl Default for MemorySystemConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// The cost of one demand line access, with the queueing component broken
/// out: `total` is what the caller charges to the requesting CPU, while
/// `queueing` is the share of that spent waiting behind earlier requests
/// (device backlog, plus the inter-socket link backlog for remote frames).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AccessCost {
    /// Full access latency in cycles (base + queueing + NUMA penalties).
    pub total: u64,
    /// Cycles of the total spent queueing behind earlier requests.
    pub queueing: u64,
}

/// One socket's memory group: its slice of each device plus the allocators
/// over those slices.
#[derive(Debug, Clone)]
struct SocketMemory {
    off_chip: MemoryDevice,
    die_stacked: MemoryDevice,
    off_allocator: FrameAllocator,
    die_allocator: FrameAllocator,
}

/// The multi-socket two-level physical memory system.
///
/// System-physical frames are laid out as: `[0, off_chip_frames)` on the
/// off-chip devices (socket-contiguous: socket *s* owns the *s*-th equal
/// chunk), `[off_chip_frames, off_chip_frames + die_frames)` on the
/// die-stacked devices (chunked likewise), and everything above that is
/// *hypervisor / page-table reserve* space charged at off-chip latency on
/// socket 0.  A single-socket configuration reproduces the original flat
/// layout exactly.
#[derive(Debug, Clone)]
pub struct MemorySystem {
    config: MemorySystemConfig,
    sockets: Vec<SocketMemory>,
    /// Inter-socket links, one per *destination* socket (the ingress port of
    /// that socket's memory controller): remote traffic towards different
    /// sockets rides different point-to-point links, so aggregate link
    /// bandwidth grows with the socket count, as on real QPI/UPI meshes.
    links: Vec<MemoryDevice>,
    off_per_socket: u64,
    die_per_socket: u64,
    off_chip_frames: u64,
    die_frames: u64,
}

impl MemorySystem {
    /// Creates the memory system.
    ///
    /// # Panics
    ///
    /// Panics if `config.numa.sockets` is zero.
    #[must_use]
    pub fn new(config: MemorySystemConfig) -> Self {
        let socket_count = config.numa.sockets;
        assert!(
            socket_count > 0,
            "a memory system needs at least one socket"
        );
        // Capacities that do not divide evenly are truncated to the largest
        // per-socket-equal total (at most sockets-1 frames are lost).
        let off_per_socket = config.off_chip.capacity_bytes / PAGE_SIZE_4K / socket_count as u64;
        let die_per_socket = config.die_stacked.capacity_bytes / PAGE_SIZE_4K / socket_count as u64;
        let off_chip_frames = off_per_socket * socket_count as u64;
        let die_frames = die_per_socket * socket_count as u64;
        let sockets = (0..socket_count as u64)
            .map(|s| SocketMemory {
                off_chip: MemoryDevice::new(config.off_chip),
                die_stacked: MemoryDevice::new(config.die_stacked),
                off_allocator: FrameAllocator::new(s * off_per_socket, off_per_socket),
                die_allocator: FrameAllocator::new(
                    off_chip_frames + s * die_per_socket,
                    die_per_socket,
                ),
            })
            .collect();
        let links = (0..socket_count)
            .map(|_| {
                MemoryDevice::new(DeviceConfig {
                    // The link is not an addressable device; the kind is only
                    // a placeholder required by the shared queueing model.
                    kind: MemoryKind::OffChip,
                    capacity_bytes: 0,
                    base_latency_cycles: config.numa.link.base_latency_cycles,
                    service_cycles_per_line: config.numa.link.service_cycles_per_line,
                })
            })
            .collect();
        Self {
            config,
            sockets,
            links,
            off_per_socket,
            die_per_socket,
            off_chip_frames,
            die_frames,
        }
    }

    /// The configuration this system was built with.
    #[must_use]
    pub fn config(&self) -> &MemorySystemConfig {
        &self.config
    }

    /// Number of sockets.
    #[must_use]
    pub fn sockets(&self) -> usize {
        self.sockets.len()
    }

    /// Which device a system frame lives on.  Frames beyond both devices
    /// (the page-table / hypervisor reserve) are charged as off-chip.
    #[must_use]
    pub fn kind_of(&self, frame: SystemFrame) -> MemoryKind {
        if frame.number() >= self.off_chip_frames
            && frame.number() < self.off_chip_frames + self.die_frames
        {
            MemoryKind::DieStacked
        } else {
            MemoryKind::OffChip
        }
    }

    /// Which socket a system frame's memory is attached to.  Reserve frames
    /// (page tables, hypervisor structures) live on socket 0.
    #[must_use]
    pub fn socket_of(&self, frame: SystemFrame) -> SocketId {
        let n = frame.number();
        let socket = if n < self.off_chip_frames && self.off_per_socket > 0 {
            n / self.off_per_socket
        } else if n >= self.off_chip_frames
            && n < self.off_chip_frames + self.die_frames
            && self.die_per_socket > 0
        {
            (n - self.off_chip_frames) / self.die_per_socket
        } else {
            0
        };
        SocketId::new(socket.min(self.sockets.len() as u64 - 1) as u32)
    }

    /// First frame number of the die-stacked region.
    #[must_use]
    pub fn die_stacked_base(&self) -> SystemFrame {
        SystemFrame::new(self.off_chip_frames)
    }

    /// First frame number above both devices; useful as a base for
    /// page-table / hypervisor reserve allocations.
    #[must_use]
    pub fn reserve_base(&self) -> SystemFrame {
        SystemFrame::new(self.off_chip_frames + self.die_frames)
    }

    /// Number of free frames on a device kind, summed over sockets.
    #[must_use]
    pub fn free_frames(&self, kind: MemoryKind) -> u64 {
        self.sockets
            .iter()
            .map(|s| match kind {
                MemoryKind::DieStacked => s.die_allocator.free(),
                MemoryKind::OffChip => s.off_allocator.free(),
            })
            .sum()
    }

    /// Number of free frames of `kind` on one socket.
    ///
    /// # Panics
    ///
    /// Panics if `socket` is out of range.
    #[must_use]
    pub fn free_frames_on(&self, kind: MemoryKind, socket: SocketId) -> u64 {
        let s = &self.sockets[socket.index()];
        match kind {
            MemoryKind::DieStacked => s.die_allocator.free(),
            MemoryKind::OffChip => s.off_allocator.free(),
        }
    }

    /// Total frames of a device kind, summed over sockets.
    #[must_use]
    pub fn total_frames(&self, kind: MemoryKind) -> u64 {
        match kind {
            MemoryKind::DieStacked => self.die_frames,
            MemoryKind::OffChip => self.off_chip_frames,
        }
    }

    /// Allocates a frame of `kind`, preferring socket 0 (the classic
    /// single-socket behaviour).  NUMA-aware callers should use
    /// [`MemorySystem::allocate_on`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfMemory`] if no socket has a free frame.
    pub fn allocate(&mut self, kind: MemoryKind) -> Result<SystemFrame> {
        self.allocate_on(kind, SocketId::new(0))
    }

    /// Allocates a frame of `kind`, preferring `socket` and falling back to
    /// the other sockets in ascending order (a first-touch allocation that
    /// spills to remote sockets only when the local group is exhausted).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfMemory`] if no socket has a free frame.
    ///
    /// # Panics
    ///
    /// Panics if `socket` is out of range.
    pub fn allocate_on(&mut self, kind: MemoryKind, socket: SocketId) -> Result<SystemFrame> {
        let count = self.sockets.len();
        assert!(socket.index() < count, "socket out of range");
        for offset in 0..count {
            let s = (socket.index() + offset) % count;
            let allocator = match kind {
                MemoryKind::DieStacked => &mut self.sockets[s].die_allocator,
                MemoryKind::OffChip => &mut self.sockets[s].off_allocator,
            };
            if let Some(frame) = allocator.allocate() {
                return Ok(frame);
            }
        }
        Err(SimError::OutOfMemory {
            device: kind.to_string(),
        })
    }

    /// Frees a previously allocated frame (returned to its socket's group).
    pub fn free(&mut self, frame: SystemFrame) {
        let kind = self.kind_of(frame);
        let socket = self.socket_of(frame);
        let s = &mut self.sockets[socket.index()];
        match kind {
            MemoryKind::DieStacked => s.die_allocator.free_frame(frame),
            MemoryKind::OffChip => s.off_allocator.free_frame(frame),
        }
    }

    /// Performs one cache-line access to `frame`'s device at simulation time
    /// `now`, issued by `stream` (the VM slot) from a CPU on `from_socket`,
    /// returning the access latency in cycles (base + queueing, plus the
    /// inter-socket link traversal and remote-controller penalty when the
    /// frame lives on another socket).
    pub fn access(
        &mut self,
        frame: SystemFrame,
        stream: usize,
        from_socket: SocketId,
        now: u64,
    ) -> u64 {
        self.access_detail(frame, stream, from_socket, now).total
    }

    /// Like [`MemorySystem::access`], but also reports the queueing
    /// component (device backlog plus, for remote frames, link backlog) on
    /// its own so callers can histogram DRAM queueing delay separately
    /// from the fixed device latency.
    pub fn access_detail(
        &mut self,
        frame: SystemFrame,
        stream: usize,
        from_socket: SocketId,
        now: u64,
    ) -> AccessCost {
        let kind = self.kind_of(frame);
        let home = self.socket_of(frame);
        let device = self.device_mut(home, kind);
        let (mut cycles, mut queueing) = device.access_detail(stream, now);
        if home != from_socket {
            cycles += self.config.numa.remote_dram_extra_cycles;
            let (link_cycles, link_queueing) = self.links[home.index()].access_detail(stream, now);
            cycles += link_cycles;
            queueing += link_queueing;
        }
        AccessCost {
            total: cycles,
            queueing,
        }
    }

    /// Whether an access to `frame` from a CPU on `from_socket` crosses the
    /// inter-socket link.
    #[must_use]
    pub fn is_remote(&self, frame: SystemFrame, from_socket: SocketId) -> bool {
        self.socket_of(frame) != from_socket
    }

    /// Cost, in cycles, of copying one 4 KiB page from `from` to `to` on
    /// behalf of `stream`, including the bandwidth occupancy it adds to both
    /// devices — and to the inter-socket link when the copy crosses sockets.
    /// Each of them books the page's lines, one cycle apart from `now`, with
    /// one [`MemoryDevice::occupy_lines`] call.
    pub fn page_copy_cycles(
        &mut self,
        from: SystemFrame,
        to: SystemFrame,
        stream: usize,
        now: u64,
    ) -> u64 {
        let lines = PAGE_SIZE_4K / CACHE_LINE_BYTES;
        let src_kind = self.kind_of(from);
        let dst_kind = self.kind_of(to);
        let src_socket = self.socket_of(from);
        let dst_socket = self.socket_of(to);
        let mut cycles = self.config.page_copy_overhead_cycles;
        // Streaming transfers pipeline well; charge the occupancy of both
        // devices but only the larger of the two as serialised latency.
        let src_cost = self
            .device_mut(src_socket, src_kind)
            .occupy_lines(stream, now, lines);
        let dst_cost = self
            .device_mut(dst_socket, dst_kind)
            .occupy_lines(stream, now, lines);
        cycles += src_cost.max(dst_cost);
        if src_socket != dst_socket {
            // The whole page crosses the destination's ingress link; its
            // occupancy serialises with the device transfers.
            let link_cost = self.links[dst_socket.index()].occupy_lines(stream, now, lines);
            cycles += self.config.numa.link.base_latency_cycles + link_cost;
        }
        cycles
    }

    fn device_mut(&mut self, socket: SocketId, kind: MemoryKind) -> &mut MemoryDevice {
        let s = &mut self.sockets[socket.index()];
        match kind {
            MemoryKind::DieStacked => &mut s.die_stacked,
            MemoryKind::OffChip => &mut s.off_chip,
        }
    }

    fn device(&self, socket: SocketId, kind: MemoryKind) -> &MemoryDevice {
        let s = &self.sockets[socket.index()];
        match kind {
            MemoryKind::DieStacked => &s.die_stacked,
            MemoryKind::OffChip => &s.off_chip,
        }
    }

    /// Applies a transient DRAM brownout: every device (both kinds, all
    /// sockets) serves lines `multiplier_x100/100` times slower until the
    /// multiplier is set back to `100`.  Inter-socket links are *not*
    /// affected — a brownout is a DRAM-device fault, not a fabric fault.
    pub fn set_dram_service_multiplier_x100(&mut self, multiplier_x100: u64) {
        for s in &mut self.sockets {
            s.die_stacked.set_service_multiplier_x100(multiplier_x100);
            s.off_chip.set_service_multiplier_x100(multiplier_x100);
        }
    }

    /// Resets every device's (and the link's) queueing clock (used when the
    /// simulation's cycle counters are reset between warmup and
    /// measurement).
    pub fn reset_timing(&mut self) {
        for s in &mut self.sockets {
            s.die_stacked.reset_timing();
            s.off_chip.reset_timing();
        }
        for link in &mut self.links {
            link.reset_timing();
        }
    }

    /// The queueing backlog (in cycles) an access at time `now` would
    /// observe on devices of `kind`, summed over sockets, computed
    /// against frozen device state (no mutation) — the DRAM queue-depth
    /// gauge the counter timelines sample.  Inter-socket links are not
    /// included.
    #[must_use]
    pub fn projected_queueing(&self, kind: MemoryKind, now: u64) -> u64 {
        (0..self.sockets.len())
            .map(|s| {
                self.device(SocketId::new(s as u32), kind)
                    .projected_queueing(now)
            })
            .sum()
    }

    /// Per-device-kind statistics, summed over sockets.
    #[must_use]
    pub fn device_stats(&self, kind: MemoryKind) -> DeviceStats {
        let mut total = DeviceStats::default();
        for s in &self.sockets {
            total.merge(&match kind {
                MemoryKind::DieStacked => s.die_stacked.stats(),
                MemoryKind::OffChip => s.off_chip.stats(),
            });
        }
        total
    }

    /// Statistics of one socket's device of `kind`.
    ///
    /// # Panics
    ///
    /// Panics if `socket` is out of range.
    #[must_use]
    pub fn socket_device_stats(&self, socket: SocketId, kind: MemoryKind) -> DeviceStats {
        let s = &self.sockets[socket.index()];
        match kind {
            MemoryKind::DieStacked => s.die_stacked.stats(),
            MemoryKind::OffChip => s.off_chip.stats(),
        }
    }

    /// One stream's statistics on one socket's device of `kind` — the
    /// per-`(socket, device, vmid)` bandwidth attribution.
    ///
    /// # Panics
    ///
    /// Panics if `socket` is out of range.
    #[must_use]
    pub fn stream_device_stats(
        &self,
        socket: SocketId,
        kind: MemoryKind,
        stream: usize,
    ) -> DeviceStats {
        let s = &self.sockets[socket.index()];
        match kind {
            MemoryKind::DieStacked => s.die_stacked.stream_stats(stream),
            MemoryKind::OffChip => s.off_chip.stream_stats(stream),
        }
    }

    /// Largest stream index that has touched any device (plus one), i.e. an
    /// upper bound usable to iterate every stream's attribution.
    #[must_use]
    pub fn stream_count(&self) -> usize {
        self.sockets
            .iter()
            .flat_map(|s| [s.die_stacked.stream_count(), s.off_chip.stream_count()])
            .chain(self.links.iter().map(MemoryDevice::stream_count))
            .max()
            .unwrap_or(0)
    }

    /// Inter-socket link statistics, summed over every per-destination link
    /// (all-zero on a single-socket host).
    #[must_use]
    pub fn link_stats(&self) -> DeviceStats {
        let mut total = DeviceStats::default();
        for link in &self.links {
            total.merge(&link.stats());
        }
        total
    }

    /// One stream's inter-socket link statistics, summed over links.
    #[must_use]
    pub fn link_stream_stats(&self, stream: usize) -> DeviceStats {
        let mut total = DeviceStats::default();
        for link in &self.links {
            total.merge(&link.stream_stats(stream));
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const S0: SocketId = SocketId::new(0);

    #[test]
    fn layout_regions_do_not_overlap() {
        let mem = MemorySystem::new(MemorySystemConfig::paper_default());
        assert_eq!(mem.total_frames(MemoryKind::OffChip), 8 * 1024 * 1024 / 4);
        assert_eq!(
            mem.total_frames(MemoryKind::DieStacked),
            2 * 1024 * 1024 / 4
        );
        assert_eq!(mem.kind_of(SystemFrame::new(0)), MemoryKind::OffChip);
        assert_eq!(mem.kind_of(mem.die_stacked_base()), MemoryKind::DieStacked);
        assert_eq!(mem.kind_of(mem.reserve_base()), MemoryKind::OffChip);
    }

    #[test]
    fn allocation_respects_device() {
        let mut mem = MemorySystem::new(MemorySystemConfig::paper_default());
        let fast = mem.allocate(MemoryKind::DieStacked).unwrap();
        assert_eq!(mem.kind_of(fast), MemoryKind::DieStacked);
        let slow = mem.allocate(MemoryKind::OffChip).unwrap();
        assert_eq!(mem.kind_of(slow), MemoryKind::OffChip);
    }

    #[test]
    fn no_hbm_config_cannot_allocate_fast_frames() {
        let mut mem = MemorySystem::new(MemorySystemConfig::no_hbm());
        assert!(mem.allocate(MemoryKind::DieStacked).is_err());
        assert_eq!(mem.free_frames(MemoryKind::DieStacked), 0);
    }

    #[test]
    fn free_then_reallocate() {
        let mut mem = MemorySystem::new(MemorySystemConfig::paper_default());
        let before = mem.free_frames(MemoryKind::DieStacked);
        let frame = mem.allocate(MemoryKind::DieStacked).unwrap();
        assert_eq!(mem.free_frames(MemoryKind::DieStacked), before - 1);
        mem.free(frame);
        assert_eq!(mem.free_frames(MemoryKind::DieStacked), before);
    }

    #[test]
    fn bandwidth_differential_shows_under_load() {
        let mut mem = MemorySystem::new(MemorySystemConfig::paper_default());
        let fast = mem.allocate(MemoryKind::DieStacked).unwrap();
        let slow = mem.allocate(MemoryKind::OffChip).unwrap();
        let mut fast_total = 0u64;
        let mut slow_total = 0u64;
        // Hammer both devices with back-to-back accesses.
        for i in 0..10_000u64 {
            fast_total += mem.access(fast, 0, S0, i);
            slow_total += mem.access(slow, 0, S0, i);
        }
        assert!(
            slow_total > 2 * fast_total,
            "off-chip should queue much more: fast={fast_total} slow={slow_total}"
        );
    }

    #[test]
    fn page_copy_cost_is_substantial() {
        let mut mem = MemorySystem::new(MemorySystemConfig::paper_default());
        let src = mem.allocate(MemoryKind::OffChip).unwrap();
        let dst = mem.allocate(MemoryKind::DieStacked).unwrap();
        let cost = mem.page_copy_cycles(src, dst, 0, 0);
        assert!(cost >= MemorySystemConfig::paper_default().page_copy_overhead_cycles);
        assert!(cost < 1_000_000);
    }

    // ----- NUMA-specific behaviour ------------------------------------------

    fn two_socket_config() -> MemorySystemConfig {
        MemorySystemConfig::paper_default().with_numa(NumaConfig::symmetric(2))
    }

    #[test]
    fn sockets_partition_both_device_regions() {
        let mem = MemorySystem::new(two_socket_config());
        assert_eq!(mem.sockets(), 2);
        let off_total = mem.total_frames(MemoryKind::OffChip);
        let die_total = mem.total_frames(MemoryKind::DieStacked);
        // First/last frame of each half.
        assert_eq!(mem.socket_of(SystemFrame::new(0)), SocketId::new(0));
        assert_eq!(
            mem.socket_of(SystemFrame::new(off_total / 2 - 1)),
            SocketId::new(0)
        );
        assert_eq!(
            mem.socket_of(SystemFrame::new(off_total / 2)),
            SocketId::new(1)
        );
        assert_eq!(mem.socket_of(mem.die_stacked_base()), SocketId::new(0));
        assert_eq!(
            mem.socket_of(SystemFrame::new(off_total + die_total / 2)),
            SocketId::new(1)
        );
        // Reserve frames are hypervisor-owned: socket 0.
        assert_eq!(mem.socket_of(mem.reserve_base()), SocketId::new(0));
        // Per-socket free counts halve the totals.
        assert_eq!(
            mem.free_frames_on(MemoryKind::DieStacked, SocketId::new(0)),
            die_total / 2
        );
    }

    #[test]
    fn allocate_on_prefers_the_requested_socket_and_spills() {
        let mut cfg = two_socket_config();
        cfg.die_stacked.capacity_bytes = 2 * PAGE_SIZE_4K; // one frame per socket
        let mut mem = MemorySystem::new(cfg);
        let s1 = SocketId::new(1);
        let first = mem.allocate_on(MemoryKind::DieStacked, s1).unwrap();
        assert_eq!(mem.socket_of(first), s1);
        // Socket 1 is now full: the next preferred-socket-1 allocation
        // spills to socket 0 rather than failing.
        let second = mem.allocate_on(MemoryKind::DieStacked, s1).unwrap();
        assert_eq!(mem.socket_of(second), SocketId::new(0));
        assert!(mem.allocate_on(MemoryKind::DieStacked, s1).is_err());
    }

    #[test]
    fn remote_access_strictly_exceeds_local_under_identical_load() {
        // Two freshly built systems, identical in every way; the only
        // difference is the socket the accessing CPU sits on.
        let mut local_sys = MemorySystem::new(two_socket_config());
        let mut remote_sys = MemorySystem::new(two_socket_config());
        let frame = local_sys.allocate_on(MemoryKind::OffChip, S0).unwrap();
        let frame2 = remote_sys.allocate_on(MemoryKind::OffChip, S0).unwrap();
        assert_eq!(frame, frame2);
        for i in 0..1_000u64 {
            let local = local_sys.access(frame, 0, S0, i);
            let remote = remote_sys.access(frame2, 0, SocketId::new(1), i);
            assert!(
                remote > local,
                "remote access ({remote}) must strictly exceed local ({local}) at step {i}"
            );
        }
        assert!(local_sys.link_stats().accesses.get() == 0);
        assert!(remote_sys.link_stats().accesses.get() >= 1_000);
    }

    #[test]
    fn cross_socket_page_copy_occupies_the_link() {
        let mut mem = MemorySystem::new(two_socket_config());
        let src = mem.allocate_on(MemoryKind::OffChip, S0).unwrap();
        let local_dst = mem.allocate_on(MemoryKind::DieStacked, S0).unwrap();
        let remote_dst = mem
            .allocate_on(MemoryKind::DieStacked, SocketId::new(1))
            .unwrap();
        let local = mem.page_copy_cycles(src, local_dst, 0, 0);
        assert_eq!(mem.link_stats().occupied_lines.get(), 0);
        let remote = mem.page_copy_cycles(src, remote_dst, 0, 10_000_000);
        assert!(remote > local, "cross-socket copy must cost more");
        assert_eq!(
            mem.link_stats().occupied_lines.get(),
            PAGE_SIZE_4K / CACHE_LINE_BYTES
        );
    }

    #[test]
    fn single_socket_never_touches_the_link() {
        let mut mem = MemorySystem::new(MemorySystemConfig::paper_default());
        let frame = mem.allocate(MemoryKind::OffChip).unwrap();
        for i in 0..100 {
            mem.access(frame, 0, S0, i);
        }
        assert_eq!(mem.link_stats().accesses.get(), 0);
        assert!(!mem.is_remote(frame, S0));
    }

    /// The per-line `page_copy_cycles` that [`MemoryDevice::occupy_lines`]
    /// replaced: one `occupy` call per line on each device and the link.
    fn page_copy_cycles_per_line(
        mem: &mut MemorySystem,
        from: SystemFrame,
        to: SystemFrame,
        stream: usize,
        now: u64,
    ) -> u64 {
        let lines = PAGE_SIZE_4K / CACHE_LINE_BYTES;
        let (src_kind, dst_kind) = (mem.kind_of(from), mem.kind_of(to));
        let (src_socket, dst_socket) = (mem.socket_of(from), mem.socket_of(to));
        let mut cycles = mem.config.page_copy_overhead_cycles;
        let src_cost: u64 = (0..lines)
            .map(|i| mem.device_mut(src_socket, src_kind).occupy(stream, now + i))
            .sum();
        let dst_cost: u64 = (0..lines)
            .map(|i| mem.device_mut(dst_socket, dst_kind).occupy(stream, now + i))
            .sum();
        cycles += src_cost.max(dst_cost);
        if src_socket != dst_socket {
            let link = &mut mem.links[dst_socket.index()];
            let link_cost: u64 = (0..lines).map(|i| link.occupy(stream, now + i)).sum();
            cycles += mem.config.numa.link.base_latency_cycles + link_cost;
        }
        cycles
    }

    #[test]
    fn page_copy_matches_the_per_line_loop_across_sockets() {
        for seed in 0..24u64 {
            let mut rng = hatric_types::SimRng::new(seed);
            let mut mem = MemorySystem::new(two_socket_config());
            let mut frames = Vec::new();
            for s in 0..2 {
                for kind in [MemoryKind::DieStacked, MemoryKind::OffChip] {
                    for _ in 0..3 {
                        frames.push(mem.allocate_on(kind, SocketId::new(s)).unwrap());
                    }
                }
            }
            // Per-CPU clocks: issue times wander backwards as well as forwards.
            let mut now = 10_000u64;
            for step in 0..300 {
                now = (now + rng.below(400)).saturating_sub(rng.below(300));
                let stream = rng.below(4) as usize;
                let frame = frames[rng.below(frames.len() as u64) as usize];
                match rng.below(10) {
                    0 => {
                        mem.set_dram_service_multiplier_x100([100, 300, 40][rng.below(3) as usize])
                    }
                    1..=3 => {
                        let to = frames[rng.below(frames.len() as u64) as usize];
                        let mut want = mem.clone();
                        let want_cost =
                            page_copy_cycles_per_line(&mut want, frame, to, stream, now);
                        let got_cost = mem.page_copy_cycles(frame, to, stream, now);
                        assert_eq!(got_cost, want_cost, "seed {seed} step {step}");
                        // Debug prints every backlog in round-trip form, so
                        // equal strings mean bit-identical state.
                        assert_eq!(
                            format!("{mem:?}"),
                            format!("{want:?}"),
                            "seed {seed} step {step}"
                        );
                    }
                    _ => {
                        let from = SocketId::new(rng.below(2) as u32);
                        mem.access(frame, stream, from, now);
                    }
                }
            }
            assert!(
                mem.link_stats().occupied_lines.get() > 0,
                "seed {seed}: no cross-socket copy"
            );
        }
    }
}
