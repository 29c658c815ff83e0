//! The NUMA multi-socket contention experiment.
//!
//! The multi-VM interference experiment on a multi-socket host: one
//! paging-heavy aggressor shares CPUs and memory with remap-free victims,
//! but now the physical CPUs and both DRAM devices are split across
//! sockets joined by bandwidth-limited inter-socket links.  The sweep
//! holds the machine's total memory *capacity* and CPU count fixed and
//! raises the **remote-access ratio** — with interleaved allocation on *S*
//! sockets, a fraction `(S-1)/S` of all DRAM traffic crosses a link.
//! (Each socket carries its own memory controllers, so aggregate DRAM
//! bandwidth grows with the socket count, as on real hardware; that relief
//! *reduces* queueing contention as S rises, making the widening software
//! penalty conservative.)
//!
//! Distance magnifies the software shootdown bill twice over:
//!
//! * cross-socket IPIs and their acknowledgements pay the link premium on
//!   every disruptive target;
//! * every full flush forces the victims to re-walk page tables and refill
//!   translations through the (congested) link, so the flush *aftermath*
//!   scales with the remote-access ratio.
//!
//! HATRIC's co-tag invalidations ride the existing coherence interconnect
//! for a few cycles per hop and invalidate selectively, so its victims stay
//! at the ideal bound regardless of distance — the HATRIC-vs-software gap
//! widens monotonically as the remote ratio rises.
//!
//! A second configuration axis (socket-affine pinning + first-touch
//! allocation) shows the *scheduling* counterpart: placement that confines
//! a VM to its home socket keeps most of the blast radius — and most of its
//! memory traffic — socket-local.

use hatric::NumaConfig;
use hatric_coherence::CoherenceMechanism;
use hatric_hypervisor::{NumaPolicy, SchedPolicy};

use crate::config::{HostConfig, VmSpec};

/// Sizing of the NUMA contention experiment.
#[derive(Debug, Clone, Copy)]
pub struct NumaContentionParams {
    /// Physical CPUs of the host (split evenly across sockets).
    pub num_pcpus: usize,
    /// Number of sockets (1 reproduces the classic UMA host).
    pub sockets: usize,
    /// Total die-stacked capacity in 4 KiB pages (split across sockets).
    pub fast_pages: u64,
    /// vCPUs of the aggressor VM.
    pub aggressor_vcpus: usize,
    /// Number of victim VMs.
    pub victims: usize,
    /// vCPUs of each victim VM.
    pub victim_vcpus: usize,
    /// Unmeasured warmup slices.
    pub warmup_slices: u64,
    /// Measured slices.
    pub measured_slices: u64,
    /// Accesses per scheduled vCPU per slice.
    pub slice_accesses: u64,
    /// NUMA memory-placement policy.
    pub numa_policy: NumaPolicy,
    /// Scheduling policy.  Under [`SchedPolicy::SocketAffine`] the
    /// aggressor is homed on socket 0 and victim *i* on socket
    /// `(i + 1) % sockets` — with more victims than sockets, some victims
    /// share the aggressor's socket, mirroring a consolidated host that
    /// cannot fully isolate tenants.
    pub sched: SchedPolicy,
    /// Master seed.
    pub seed: u64,
    /// Worker threads of the parallel slice engine (results are
    /// bit-identical for any value; only wall clock changes).
    pub threads: usize,
    /// Aggressor workload scale as a fraction of its die-stacked quota.
    pub aggressor_footprint_factor: f64,
}

impl NumaContentionParams {
    /// The sizing used by the benchmark harness: 8 pCPUs, 1 aggressor (4
    /// vCPUs) + 3 victims (2 vCPUs each) — 10 vCPUs over 8 pCPUs so the VMs
    /// genuinely time-share, round-robin, interleaved allocation.
    #[must_use]
    pub fn default_scale() -> Self {
        Self {
            num_pcpus: 8,
            sockets: 1,
            fast_pages: 2_048,
            aggressor_vcpus: 4,
            victims: 3,
            victim_vcpus: 2,
            warmup_slices: 600,
            measured_slices: 1_200,
            slice_accesses: 40,
            numa_policy: NumaPolicy::Interleaved,
            sched: SchedPolicy::RoundRobin,
            seed: hatric::DEFAULT_SEED,
            threads: 1,
            aggressor_footprint_factor: 1.0,
        }
    }

    /// A much smaller sizing for tests.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            num_pcpus: 8,
            sockets: 1,
            fast_pages: 512,
            aggressor_vcpus: 4,
            victims: 3,
            victim_vcpus: 2,
            warmup_slices: 200,
            measured_slices: 300,
            slice_accesses: 25,
            numa_policy: NumaPolicy::Interleaved,
            sched: SchedPolicy::RoundRobin,
            seed: 0x7e57,
            threads: 1,
            aggressor_footprint_factor: 1.0,
        }
    }

    /// Returns a copy with the given socket count.
    #[must_use]
    pub fn with_sockets(mut self, sockets: usize) -> Self {
        self.sockets = sockets;
        self
    }

    /// Returns a copy using the given placement policy.
    #[must_use]
    pub fn with_numa_policy(mut self, policy: NumaPolicy) -> Self {
        self.numa_policy = policy;
        self
    }

    /// Returns a copy using the given scheduling policy.
    #[must_use]
    pub fn with_sched(mut self, sched: SchedPolicy) -> Self {
        self.sched = sched;
        self
    }

    /// The host configuration this sizing describes, under `mechanism`.
    ///
    /// Slot 0 is the aggressor (half the fast device, footprint scaled by
    /// `aggressor_footprint_factor`); victims split the rest.  Under
    /// [`SchedPolicy::SocketAffine`] the aggressor is homed on socket 0 and
    /// victim *i* on socket `(i + 1) % sockets`.
    #[must_use]
    pub fn host_config(&self, mechanism: CoherenceMechanism) -> HostConfig {
        let aggressor_quota = self.fast_pages / 2;
        let victim_quota = (self.fast_pages - aggressor_quota) / self.victims.max(1) as u64;
        let mut aggressor = VmSpec::aggressor(self.aggressor_vcpus, aggressor_quota);
        aggressor.workload_scale_pages =
            ((aggressor_quota as f64 * self.aggressor_footprint_factor).max(1.0)) as u64;
        let mut cfg = HostConfig::scaled(self.num_pcpus, self.fast_pages)
            .with_mechanism(mechanism)
            .with_numa(NumaConfig::symmetric(self.sockets))
            .with_numa_policy(self.numa_policy)
            .with_sched(self.sched)
            .with_slice_accesses(self.slice_accesses)
            .with_threads(self.threads)
            .with_seed(self.seed)
            .with_vm(aggressor);
        for i in 0..self.victims {
            cfg = cfg.with_vm(
                VmSpec::victim(self.victim_vcpus, victim_quota)
                    .with_home_socket((i + 1) % self.sockets),
            );
        }
        cfg
    }
}

#[cfg(test)]
mod tests {
    use std::sync::OnceLock;

    use crate::scenario::{find, Params, Scale, ScenarioReport};

    /// The smoke run of the socket sweep: `uma`, `numa2` and `numa4` are
    /// the smoke sizing on 1, 2 and 4 sockets, `numa2_affine` the two-socket
    /// one under first-touch allocation and socket-affine scheduling.
    fn sweep() -> &'static ScenarioReport {
        static REPORT: OnceLock<ScenarioReport> = OnceLock::new();
        REPORT.get_or_init(|| {
            find("numa_contention")
                .unwrap()
                .run(&Params::new(), Scale::Smoke)
                .unwrap()
        })
    }

    fn value(config: &str, mechanism: &str, key: &str) -> f64 {
        sweep()
            .find(config, mechanism)
            .and_then(|row| row.number(key))
            .unwrap()
    }

    #[test]
    fn hatric_beats_software_and_the_gap_widens_with_remote_ratio() {
        let mut gaps = Vec::new();
        let mut ratios = Vec::new();
        for (sockets, config) in [(1, "uma"), (2, "numa2"), (4, "numa4")] {
            let slowdown = |mechanism| value(config, mechanism, "victim_slowdown_vs_ideal");
            assert!(
                value(config, "Software", "aggressor_remaps") > 0.0,
                "aggressor must page"
            );
            assert!(
                slowdown("Hatric") <= slowdown("Software"),
                "{sockets} sockets: hatric victim slowdown {} must not exceed software's {}",
                slowdown("Hatric"),
                slowdown("Software")
            );
            assert_eq!(value(config, "Hatric", "victim_disrupted_cycles"), 0.0);
            gaps.push(slowdown("Software") - slowdown("Hatric"));
            ratios.push(value(config, "Software", "remote_access_ratio"));
        }
        // Interleaved allocation over S sockets puts ~ (S-1)/S of traffic
        // behind the link.
        assert_eq!(ratios[0], 0.0, "a UMA host has no remote accesses");
        assert!(
            ratios.windows(2).all(|w| w[0] < w[1]),
            "remote ratio must rise with socket count: {ratios:?}"
        );
        // At this test's tiny scale the 2- vs 4-socket ordering is noisy, so
        // only the robust property is asserted here: socket distance makes
        // software shootdowns strictly worse than on the UMA host.  The
        // default-parameter Bench and Full runs assert strict monotonicity
        // across the whole series.
        assert!(
            gaps[1..].iter().all(|g| *g > gaps[0]),
            "every multi-socket gap must exceed the UMA gap: {gaps:?}"
        );
    }

    #[test]
    fn socket_affine_placement_confines_the_blast_radius() {
        let spread = |key| value("numa2", "Software", key);
        let affine = |key| value("numa2_affine", "Software", key);
        // Affinity + first touch keeps the aggressor's memory (and its
        // shootdown targets) on its home socket.
        assert!(
            affine("remote_target_ratio") < spread("remote_target_ratio"),
            "affine remote-target ratio {} must undercut interleaved {}",
            affine("remote_target_ratio"),
            spread("remote_target_ratio")
        );
        assert!(
            affine("victim_slowdown_vs_ideal") < spread("victim_slowdown_vs_ideal"),
            "affine victim slowdown {} must undercut interleaved {}",
            affine("victim_slowdown_vs_ideal"),
            spread("victim_slowdown_vs_ideal")
        );
    }
}
