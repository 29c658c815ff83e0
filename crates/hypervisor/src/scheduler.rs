//! vCPU → pCPU scheduling for a consolidated host.
//!
//! The paper's software-shootdown costs depend critically on *where* a VM's
//! vCPUs have run: KVM IPIs every physical CPU the VM ever touched, so the
//! scheduling policy determines how many innocent bystanders a remap
//! disrupts.  This module provides the two policies the multi-VM
//! experiments need:
//!
//! * [`SchedPolicy::Pinned`] — static affinity: every vCPU is pinned to one
//!   physical CPU forever.  Oversubscribed pCPUs time-slice their pinned
//!   vCPUs round-robin.  A VM's `cpus_ever_used` set stays minimal, so
//!   software shootdowns stay as narrow as they can be.
//! * [`SchedPolicy::RoundRobin`] — a global run queue: each slice the next
//!   `num_pcpus` runnable vCPUs are dealt out across the CPUs.  vCPUs
//!   migrate freely, every VM eventually touches every CPU, and software
//!   shootdowns degenerate into machine-wide IPI storms — the consolidation
//!   worst case HATRIC is designed to eliminate.
//! * [`SchedPolicy::SocketAffine`] — NUMA-aware pinning: every VM has a
//!   *home socket* and its vCPUs are dealt out (and time-sliced) across
//!   that socket's CPUs only.  Built with [`Scheduler::socket_affine`];
//!   combined with first-touch allocation it keeps each VM's memory and
//!   shootdown blast radius socket-local.
//!
//! Invariant (property-tested): within one slice, a physical CPU executes
//! at most one vCPU and a vCPU is placed at most once.

use std::collections::VecDeque;

use hatric_types::{CpuId, VcpuId};

/// Which scheduling policy the host uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SchedPolicy {
    /// Static vCPU→pCPU affinity with per-CPU time slicing.
    #[default]
    Pinned,
    /// Global round-robin run queue; vCPUs migrate across CPUs.
    RoundRobin,
    /// Static affinity confined to each VM's home socket (NUMA-aware
    /// pinning).  Requires the socket topology: build the scheduler with
    /// [`Scheduler::socket_affine`]; [`Scheduler::new`] (which has no
    /// topology) degenerates to [`SchedPolicy::Pinned`] deal-out.
    SocketAffine,
}

/// One scheduling decision: VM `vm_slot`'s `vcpu` runs on `pcpu` this slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// The physical CPU granted for the slice.
    pub pcpu: CpuId,
    /// Host slot of the VM that owns the vCPU.
    pub vm_slot: usize,
    /// The vCPU being scheduled.
    pub vcpu: VcpuId,
}

/// The host's vCPU scheduler.
#[derive(Debug, Clone)]
pub struct Scheduler {
    policy: SchedPolicy,
    num_pcpus: usize,
    total_vcpus: usize,
    /// `Pinned`: per-pCPU list of vCPUs pinned there.
    pinned: Vec<Vec<(usize, VcpuId)>>,
    /// `Pinned`: next index to run in each pCPU's pinned list.
    pinned_next: Vec<usize>,
    /// `RoundRobin`: the global run queue.
    queue: VecDeque<(usize, VcpuId)>,
    /// Slices produced so far (drives CPU-assignment rotation).
    slice: u64,
    /// Fully-paused VMs (stop-and-copy): none of their vCPUs may be placed.
    paused: Vec<bool>,
}

impl Scheduler {
    /// Creates a scheduler for `num_pcpus` physical CPUs over the VMs whose
    /// vCPU counts are given (indexed by VM slot).  vCPUs are enumerated
    /// VM-major, and pinning deals them out across CPUs in that order.
    ///
    /// # Panics
    ///
    /// Panics if `num_pcpus` is zero or no VM has any vCPU.
    #[must_use]
    pub fn new(policy: SchedPolicy, num_pcpus: usize, vcpu_counts: &[usize]) -> Self {
        assert!(num_pcpus > 0, "a host needs at least one physical CPU");
        let all: Vec<(usize, VcpuId)> = vcpu_counts
            .iter()
            .enumerate()
            .flat_map(|(slot, &n)| (0..n).map(move |v| (slot, VcpuId::new(v as u32))))
            .collect();
        assert!(!all.is_empty(), "a host needs at least one vCPU");
        let mut pinned = vec![Vec::new(); num_pcpus];
        for (i, entry) in all.iter().enumerate() {
            pinned[i % num_pcpus].push(*entry);
        }
        Self::from_pinned(policy, num_pcpus, vcpu_counts.len(), pinned, all)
    }

    /// Creates a NUMA-aware socket-affine scheduler: the `num_pcpus`
    /// physical CPUs are split into `sockets` contiguous equal blocks, and
    /// VM `slot`'s vCPUs are dealt out across the CPUs of socket
    /// `home_sockets[slot]` only (time-slicing within the socket when
    /// oversubscribed).  The policy reported is
    /// [`SchedPolicy::SocketAffine`].
    ///
    /// # Panics
    ///
    /// Panics if `num_pcpus` is not a positive multiple of `sockets`, if no
    /// VM has any vCPU, if `home_sockets` is shorter than `vcpu_counts`, or
    /// if any home socket is out of range.
    #[must_use]
    pub fn socket_affine(
        num_pcpus: usize,
        vcpu_counts: &[usize],
        home_sockets: &[usize],
        sockets: usize,
    ) -> Self {
        assert!(sockets > 0, "a host needs at least one socket");
        assert!(
            num_pcpus > 0 && num_pcpus.is_multiple_of(sockets),
            "physical CPUs must split evenly across sockets"
        );
        assert!(
            home_sockets.len() >= vcpu_counts.len(),
            "every VM needs a home socket"
        );
        let cpus_per_socket = num_pcpus / sockets;
        let all: Vec<(usize, VcpuId)> = vcpu_counts
            .iter()
            .enumerate()
            .flat_map(|(slot, &n)| (0..n).map(move |v| (slot, VcpuId::new(v as u32))))
            .collect();
        assert!(!all.is_empty(), "a host needs at least one vCPU");
        let mut pinned = vec![Vec::new(); num_pcpus];
        // Per-socket deal-out cursor, so co-homed VMs spread across their
        // socket's CPUs the same way the flat deal-out spreads across all.
        let mut socket_cursor = vec![0usize; sockets];
        for &(slot, vcpu) in &all {
            let home = home_sockets[slot];
            assert!(home < sockets, "home socket {home} out of range");
            let cpu = home * cpus_per_socket + socket_cursor[home] % cpus_per_socket;
            socket_cursor[home] += 1;
            pinned[cpu].push((slot, vcpu));
        }
        Self::from_pinned(
            SchedPolicy::SocketAffine,
            num_pcpus,
            vcpu_counts.len(),
            pinned,
            all,
        )
    }

    fn from_pinned(
        policy: SchedPolicy,
        num_pcpus: usize,
        num_vms: usize,
        pinned: Vec<Vec<(usize, VcpuId)>>,
        all: Vec<(usize, VcpuId)>,
    ) -> Self {
        // Stagger the initial rotation offsets so co-pinned VMs interleave
        // across CPUs instead of running in lockstep phases — on a real host
        // nothing synchronises the per-CPU run queues either.
        let pinned_next = pinned
            .iter()
            .enumerate()
            .map(|(p, list)| if list.is_empty() { 0 } else { p % list.len() })
            .collect();
        Self {
            policy,
            num_pcpus,
            total_vcpus: all.len(),
            pinned,
            pinned_next,
            queue: all.into(),
            slice: 0,
            paused: vec![false; num_vms],
        }
    }

    /// Fully pauses or resumes VM `vm_slot`: while paused, none of its
    /// vCPUs is ever placed (the stop-and-copy phase of a live migration
    /// runs with the VM frozen).  Pausing a VM does not affect other VMs'
    /// rotation or starvation-freedom.
    ///
    /// # Panics
    ///
    /// Panics if `vm_slot` is out of range.
    pub fn set_vm_paused(&mut self, vm_slot: usize, paused: bool) {
        self.paused[vm_slot] = paused;
    }

    /// Whether VM `vm_slot` is currently fully paused.
    ///
    /// # Panics
    ///
    /// Panics if `vm_slot` is out of range.
    #[must_use]
    pub fn vm_paused(&self, vm_slot: usize) -> bool {
        self.paused[vm_slot]
    }

    /// The policy in use.
    #[must_use]
    pub fn policy(&self) -> SchedPolicy {
        self.policy
    }

    /// Total vCPUs across all VMs.
    #[must_use]
    pub fn total_vcpus(&self) -> usize {
        self.total_vcpus
    }

    /// Whether more vCPUs exist than physical CPUs (some vCPU always waits).
    #[must_use]
    pub fn is_oversubscribed(&self) -> bool {
        self.total_vcpus > self.num_pcpus
    }

    /// The static pCPU that `Pinned` assigns to VM `vm_slot`'s `vcpu`, if it
    /// exists.
    #[must_use]
    pub fn pinned_cpu_of(&self, vm_slot: usize, vcpu: VcpuId) -> Option<CpuId> {
        self.pinned.iter().enumerate().find_map(|(p, list)| {
            list.iter()
                .any(|&(s, v)| s == vm_slot && v == vcpu)
                .then(|| CpuId::new(p as u32))
        })
    }

    /// Produces the placements for the next time slice.  Every physical CPU
    /// appears at most once, and every vCPU appears at most once; CPUs with
    /// nothing runnable are left out (idle).
    pub fn next_slice(&mut self) -> Vec<Placement> {
        let mut placements = Vec::with_capacity(self.num_pcpus);
        self.next_slice_into(&mut placements);
        placements
    }

    /// Like [`Scheduler::next_slice`] but writes into a caller-owned buffer
    /// (cleared first), so the per-slice hot loop allocates nothing.
    pub fn next_slice_into(&mut self, out: &mut Vec<Placement>) {
        out.clear();
        match self.policy {
            SchedPolicy::Pinned | SchedPolicy::SocketAffine => {
                for (p, list) in self.pinned.iter().enumerate() {
                    if list.is_empty() {
                        continue;
                    }
                    // First runnable (non-paused) vCPU in rotation order;
                    // the CPU idles if everything pinned here is paused.
                    let chosen = (0..list.len())
                        .map(|k| (self.pinned_next[p] + k) % list.len())
                        .find(|&idx| !self.paused[list[idx].0]);
                    let Some(idx) = chosen else { continue };
                    self.pinned_next[p] = (idx + 1) % list.len();
                    let (vm_slot, vcpu) = list[idx];
                    out.push(Placement {
                        pcpu: CpuId::new(p as u32),
                        vm_slot,
                        vcpu,
                    });
                }
            }
            SchedPolicy::RoundRobin => {
                // Rotate the CPU assignment by one each slice: the strict
                // FIFO queue keeps scheduling starvation-free, while the
                // rotation makes vCPUs genuinely migrate across CPUs — which
                // is what inflates a VM's `cpus_ever_used` set and with it
                // the blast radius of software shootdowns.  Paused VMs'
                // vCPUs keep rotating through the queue but are never
                // placed; each queue entry is inspected at most once per
                // slice, so runnable vCPUs stay starvation-free.
                let offset = (self.slice as usize) % self.num_pcpus;
                for _ in 0..self.queue.len() {
                    if out.len() == self.num_pcpus {
                        break;
                    }
                    let (vm_slot, vcpu) =
                        self.queue.pop_front().expect("queue length checked above");
                    if !self.paused[vm_slot] {
                        out.push(Placement {
                            pcpu: CpuId::new(((out.len() + offset) % self.num_pcpus) as u32),
                            vm_slot,
                            vcpu,
                        });
                    }
                    self.queue.push_back((vm_slot, vcpu));
                }
            }
        }
        self.slice += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn assert_valid_slice(placements: &[Placement]) {
        let cpus: HashSet<_> = placements.iter().map(|p| p.pcpu).collect();
        assert_eq!(cpus.len(), placements.len(), "pCPU double-booked");
        let vcpus: HashSet<_> = placements.iter().map(|p| (p.vm_slot, p.vcpu)).collect();
        assert_eq!(vcpus.len(), placements.len(), "vCPU scheduled twice");
    }

    #[test]
    fn pinned_undersubscribed_gives_every_vcpu_its_own_cpu() {
        let mut s = Scheduler::new(SchedPolicy::Pinned, 4, &[2, 2]);
        assert!(!s.is_oversubscribed());
        let slice = s.next_slice();
        assert_eq!(slice.len(), 4);
        assert_valid_slice(&slice);
        // Placement is stable across slices.
        assert_eq!(s.next_slice(), slice);
    }

    #[test]
    fn pinned_oversubscribed_time_slices_each_cpu() {
        // 2 VMs x 2 vCPUs on 2 pCPUs: each pCPU alternates its two pinned
        // vCPUs, which belong to different VMs (VM-major deal-out).
        let mut s = Scheduler::new(SchedPolicy::Pinned, 2, &[2, 2]);
        assert!(s.is_oversubscribed());
        let a = s.next_slice();
        let b = s.next_slice();
        assert_valid_slice(&a);
        assert_valid_slice(&b);
        assert_ne!(a, b, "oversubscribed pCPUs must rotate occupants");
        let c = s.next_slice();
        assert_eq!(a, c, "two pinned vCPUs alternate with period 2");
        // Both VMs appear on pCPU 0 over time (shared CPU -> bystander risk).
        let on_cpu0: HashSet<_> = [a[0].vm_slot, b[0].vm_slot].into();
        assert_eq!(on_cpu0.len(), 2);
    }

    #[test]
    fn round_robin_migrates_vcpus_across_cpus() {
        let mut s = Scheduler::new(SchedPolicy::RoundRobin, 2, &[1, 1, 1]);
        let mut seen_cpus: HashSet<(usize, u32)> = HashSet::new();
        for _ in 0..6 {
            for p in s.next_slice() {
                assert!(p.pcpu.index() < 2);
                seen_cpus.insert((p.vm_slot, p.pcpu.raw()));
            }
        }
        // With 3 vCPUs on 2 CPUs, rotation makes every VM visit both CPUs.
        for slot in 0..3 {
            assert!(seen_cpus.contains(&(slot, 0)), "vm{slot} never ran on cpu0");
            assert!(seen_cpus.contains(&(slot, 1)), "vm{slot} never ran on cpu1");
        }
    }

    #[test]
    fn pinned_cpu_lookup_matches_dealt_positions() {
        let s = Scheduler::new(SchedPolicy::Pinned, 4, &[2, 2]);
        assert_eq!(s.pinned_cpu_of(0, VcpuId::new(0)), Some(CpuId::new(0)));
        assert_eq!(s.pinned_cpu_of(0, VcpuId::new(1)), Some(CpuId::new(1)));
        assert_eq!(s.pinned_cpu_of(1, VcpuId::new(0)), Some(CpuId::new(2)));
        assert_eq!(s.pinned_cpu_of(1, VcpuId::new(5)), None);
    }

    #[test]
    #[should_panic(expected = "at least one vCPU")]
    fn rejects_empty_vm_set() {
        let _ = Scheduler::new(SchedPolicy::Pinned, 2, &[]);
    }

    #[test]
    fn paused_vm_is_never_placed_and_resumes_cleanly() {
        for policy in [SchedPolicy::Pinned, SchedPolicy::RoundRobin] {
            let mut s = Scheduler::new(policy, 2, &[2, 2]);
            s.set_vm_paused(0, true);
            assert!(s.vm_paused(0));
            for _ in 0..6 {
                let slice = s.next_slice();
                assert_valid_slice(&slice);
                assert!(
                    slice.iter().all(|p| p.vm_slot != 0),
                    "{policy:?} placed a vCPU of the paused VM"
                );
                // The other VM keeps the host busy.
                assert!(!slice.is_empty());
            }
            s.set_vm_paused(0, false);
            let mut seen = HashSet::new();
            for _ in 0..6 {
                for p in s.next_slice() {
                    seen.insert(p.vm_slot);
                }
            }
            assert!(seen.contains(&0), "{policy:?} never resumed the VM");
        }
    }

    #[test]
    fn socket_affine_confines_vcpus_to_the_home_socket() {
        // 8 CPUs, 2 sockets: VM0 homed on socket 0 (cpus 0-3), VM1 and VM2
        // homed on socket 1 (cpus 4-7).
        let mut s = Scheduler::socket_affine(8, &[2, 2, 2], &[0, 1, 1], 2);
        assert_eq!(s.policy(), SchedPolicy::SocketAffine);
        for _ in 0..8 {
            let slice = s.next_slice();
            assert_valid_slice(&slice);
            for p in &slice {
                let socket = p.pcpu.index() / 4;
                let home = if p.vm_slot == 0 { 0 } else { 1 };
                assert_eq!(
                    socket,
                    home,
                    "vm{} placed on cpu{} outside its home socket",
                    p.vm_slot,
                    p.pcpu.index()
                );
            }
        }
    }

    #[test]
    fn socket_affine_time_slices_an_oversubscribed_socket() {
        // Both VMs homed on socket 0 of a 2-socket host: its 2 CPUs carry 4
        // vCPUs, so occupants must rotate, and socket 1 idles.
        let mut s = Scheduler::socket_affine(4, &[2, 2], &[0, 0], 2);
        let a = s.next_slice();
        let b = s.next_slice();
        assert_valid_slice(&a);
        assert_ne!(a, b, "oversubscribed socket CPUs must rotate occupants");
        for p in a.iter().chain(&b) {
            assert!(p.pcpu.index() < 2, "socket 1 must stay idle");
        }
    }

    #[test]
    #[should_panic(expected = "split evenly")]
    fn socket_affine_rejects_indivisible_topology() {
        let _ = Scheduler::socket_affine(6, &[1], &[0], 4);
    }

    #[test]
    fn pausing_everything_idles_the_host() {
        let mut s = Scheduler::new(SchedPolicy::RoundRobin, 2, &[1, 1]);
        s.set_vm_paused(0, true);
        s.set_vm_paused(1, true);
        assert!(s.next_slice().is_empty());
    }
}
