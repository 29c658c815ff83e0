//! Socket topology of a multi-socket (NUMA) host.
//!
//! The paper's evaluation models a two-level DRAM system; on a consolidated
//! multi-socket host that system is *replicated per socket* and stitched
//! together by an inter-socket link (QPI/UPI-style).  A memory access that
//! leaves its socket pays the link's latency and occupies its bandwidth, and
//! translation-coherence messages that cross sockets cost more than local
//! ones — which is why remap/shootdown bills grow with socket distance.
//!
//! ```
//! use hatric_memory::NumaConfig;
//!
//! let uma = NumaConfig::uma();
//! assert_eq!(uma.sockets, 1);
//! let numa = NumaConfig::symmetric(2);
//! assert_eq!(numa.sockets, 2);
//! // Crossing the link always costs something on a multi-socket host.
//! assert!(numa.remote_dram_extra_cycles > 0);
//! assert!(numa.remote_shootdown_extra_cycles > numa.remote_hw_message_extra_cycles);
//! ```

/// Static parameters of the inter-socket interconnect, modelled as one more
/// bandwidth-limited queueing device that every cross-socket line transfer
/// occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkConfig {
    /// Unloaded one-way traversal latency, in CPU cycles.
    pub base_latency_cycles: u64,
    /// Service time per 64-byte line, in cycles — the inverse of the link's
    /// bandwidth (coarser than either DRAM device's).
    pub service_cycles_per_line: u64,
}

impl LinkConfig {
    /// A QPI/UPI-like link: ~60-cycle traversal at a bandwidth between the
    /// two DRAM devices'.
    #[must_use]
    pub fn qpi_like() -> Self {
        Self {
            base_latency_cycles: 60,
            service_cycles_per_line: 2,
        }
    }
}

impl Default for LinkConfig {
    fn default() -> Self {
        Self::qpi_like()
    }
}

/// Socket topology and socket-distance cost table of the host.
///
/// `sockets == 1` is the classic UMA machine the single-VM experiments run
/// on: no access is ever remote, the link is never touched, and every
/// distance penalty is dead configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NumaConfig {
    /// Number of sockets.  Physical CPUs are split into `sockets` contiguous
    /// equal blocks, and each DRAM device's capacity (and bandwidth) is
    /// likewise divided into per-socket groups.
    pub sockets: usize,
    /// The inter-socket interconnect.
    pub link: LinkConfig,
    /// Extra latency of a DRAM access whose frame lives on another socket,
    /// on top of the link traversal (remote memory-controller arbitration).
    pub remote_dram_extra_cycles: u64,
    /// Extra target-side cycles of a *software* shootdown (IPI + VM exit +
    /// flush) whose target CPU is on a different socket than the initiator:
    /// the interrupt and its acknowledgement cross the link.
    pub remote_shootdown_extra_cycles: u64,
    /// Extra cycles of a *hardware* coherence message (HATRIC co-tag
    /// invalidation, UNITD CAM probe) that crosses sockets.  Orders of
    /// magnitude smaller than the software penalty — the message rides the
    /// existing cache-coherence interconnect.
    pub remote_hw_message_extra_cycles: u64,
}

impl NumaConfig {
    /// The single-socket (UMA) topology: the exact machine every experiment
    /// before the NUMA extension ran on.
    #[must_use]
    pub fn uma() -> Self {
        Self::symmetric(1)
    }

    /// A symmetric multi-socket topology with `sockets` identical sockets
    /// and the default link/distance cost table.
    ///
    /// # Panics
    ///
    /// Panics if `sockets` is zero.
    #[must_use]
    pub fn symmetric(sockets: usize) -> Self {
        assert!(sockets > 0, "a host needs at least one socket");
        Self {
            sockets,
            link: LinkConfig::qpi_like(),
            remote_dram_extra_cycles: 40,
            // Measured remote TLB shootdowns run 2-5x their local cost: the
            // IPI, its shootdown descriptor's cache lines and the final
            // acknowledgement all cross the link while the target spins.
            remote_shootdown_extra_cycles: 7_500,
            remote_hw_message_extra_cycles: 20,
        }
    }

    /// Returns a copy with the given socket count.
    #[must_use]
    pub fn with_sockets(mut self, sockets: usize) -> Self {
        self.sockets = sockets;
        self
    }
}

impl Default for NumaConfig {
    fn default() -> Self {
        Self::uma()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uma_is_one_socket() {
        assert_eq!(NumaConfig::uma().sockets, 1);
        assert_eq!(NumaConfig::default(), NumaConfig::uma());
    }

    #[test]
    fn software_distance_penalty_dwarfs_hardware() {
        let numa = NumaConfig::symmetric(4);
        assert!(numa.remote_shootdown_extra_cycles >= 10 * numa.remote_hw_message_extra_cycles);
    }

    #[test]
    #[should_panic(expected = "at least one socket")]
    fn zero_sockets_is_rejected() {
        let _ = NumaConfig::symmetric(0);
    }
}
