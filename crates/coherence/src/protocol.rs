//! The translation-coherence protocol implementations.

use hatric_cache::SharerSet;
use hatric_types::{CpuId, VmId};

use crate::costs::CoherenceCosts;
use crate::plan::{CoherencePlan, TargetAction, TargetPlan};

/// Everything a protocol needs to know about one nested-page-table
/// modification in order to plan coherence.
///
/// The context is VMID-aware: `vm` names the virtual machine whose nested
/// page table was modified, and `vm_cpus` is the conservative CPU set the
/// hypervisor tracks *for that VM*.  On a consolidated host running many
/// VMs, those CPUs may currently be executing other VMs' vCPUs — software
/// shootdowns disrupt them anyway (the "innocent bystander" cost of
/// imprecise targeting, Sec. 3.2), while hardware mechanisms consult only
/// the directory's per-line sharer list and leave unrelated VMs alone.
#[derive(Debug, Clone)]
pub struct RemapContext {
    /// The CPU executing the hypervisor code that modifies the entry.
    pub initiator: CpuId,
    /// The VM whose nested page-table entry is being modified.
    pub vm: VmId,
    /// CPUs that have executed *any* vCPU of the remapping VM — the only
    /// targeting information software has (Sec. 3.2).
    pub vm_cpus: Vec<CpuId>,
    /// CPUs currently executing a guest (any VM) — an IPI arriving at one of
    /// these forces a VM exit on whoever occupies it; the rest only take the
    /// flush at their next VM entry.
    pub running_guest: Vec<CpuId>,
    /// The coherence directory's sharer list for the modified page-table
    /// cache line — the precise targeting information hardware has.
    pub sharers: SharerSet,
}

impl RemapContext {
    /// Whether `cpu` is currently executing a guest in guest mode.
    #[must_use]
    pub fn is_running_guest(&self, cpu: CpuId) -> bool {
        self.running_guest.contains(&cpu)
    }
}

/// Identifies a translation-coherence mechanism (used in configuration and
/// reports).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoherenceMechanism {
    /// Software shootdowns as performed by KVM today.
    Software,
    /// Software shootdowns as performed by Xen.
    SoftwareXen,
    /// HATRIC: co-tags exposed to cache coherence.
    Hatric,
    /// UNITD extended for virtualization (reverse-lookup CAM, TLBs only).
    UnitdPlusPlus,
    /// Zero-overhead translation coherence (unachievable bound).
    Ideal,
}

impl CoherenceMechanism {
    /// Builds the protocol object for this mechanism.
    #[must_use]
    pub fn build(self, costs: CoherenceCosts) -> Box<dyn TranslationCoherence> {
        match self {
            CoherenceMechanism::Software => Box::new(SoftwareShootdown::kvm(costs)),
            CoherenceMechanism::SoftwareXen => Box::new(SoftwareShootdown::xen(costs)),
            CoherenceMechanism::Hatric => Box::new(HatricProtocol::new(costs)),
            CoherenceMechanism::UnitdPlusPlus => Box::new(UnitdPlusPlus::new(costs)),
            CoherenceMechanism::Ideal => Box::new(IdealCoherence),
        }
    }

    /// Whether this mechanism keeps translation structures coherent in
    /// hardware (and therefore needs no hypervisor flush hooks).
    #[must_use]
    pub fn is_hardware(self) -> bool {
        matches!(
            self,
            CoherenceMechanism::Hatric
                | CoherenceMechanism::UnitdPlusPlus
                | CoherenceMechanism::Ideal
        )
    }
}

/// A translation-coherence protocol: turns a remap event into a plan.
pub trait TranslationCoherence: std::fmt::Debug + Send + Sync {
    /// Which mechanism this is.
    fn mechanism(&self) -> CoherenceMechanism;

    /// Plans the coherence actions for one nested-page-table modification.
    fn plan_remap(&self, ctx: &RemapContext) -> CoherencePlan;
}

/// The software baseline: IPI every CPU that ever ran the VM, VM-exit those
/// in guest mode, flush everything (Fig. 3).
#[derive(Debug, Clone)]
pub struct SoftwareShootdown {
    costs: CoherenceCosts,
    xen: bool,
}

impl SoftwareShootdown {
    /// KVM-flavoured shootdowns.
    #[must_use]
    pub fn kvm(costs: CoherenceCosts) -> Self {
        Self { costs, xen: false }
    }

    /// Xen-flavoured shootdowns (slightly higher per-target costs).
    #[must_use]
    pub fn xen(_costs: CoherenceCosts) -> Self {
        Self {
            costs: CoherenceCosts::xen_like(),
            xen: true,
        }
    }
}

impl TranslationCoherence for SoftwareShootdown {
    fn mechanism(&self) -> CoherenceMechanism {
        if self.xen {
            CoherenceMechanism::SoftwareXen
        } else {
            CoherenceMechanism::Software
        }
    }

    fn plan_remap(&self, ctx: &RemapContext) -> CoherencePlan {
        let c = &self.costs;
        let mut targets = Vec::new();
        let mut ipis = 0;
        for &cpu in &ctx.vm_cpus {
            if cpu == ctx.initiator {
                // The initiator flushes its own structures directly.
                targets.push(TargetPlan {
                    cpu,
                    action: TargetAction::FlushAll,
                    vm_exit: false,
                    target_cycles: c.flush_cycles,
                });
                continue;
            }
            ipis += 1;
            let vm_exit = ctx.is_running_guest(cpu);
            let disruption = if vm_exit {
                c.vm_exit_cycles + c.flush_cycles
            } else {
                // The flush request bit is honoured at the next VM entry.
                c.flush_cycles
            };
            targets.push(TargetPlan {
                cpu,
                action: TargetAction::FlushAll,
                vm_exit,
                target_cycles: disruption,
            });
        }
        let initiator_cycles =
            c.ipi_initiate_cycles + c.ipi_per_target_cycles * ipis + c.ack_wait_cycles;
        CoherencePlan {
            vm: ctx.vm,
            initiator_cycles,
            targets,
            ipis_sent: ipis,
            hw_messages: 0,
        }
    }
}

/// HATRIC: coherence messages carrying the modified line's address reach the
/// sharer CPUs' translation structures, which invalidate by co-tag match.
#[derive(Debug, Clone)]
pub struct HatricProtocol {
    costs: CoherenceCosts,
}

impl HatricProtocol {
    /// Creates the protocol with the given costs.
    #[must_use]
    pub fn new(costs: CoherenceCosts) -> Self {
        Self { costs }
    }
}

impl TranslationCoherence for HatricProtocol {
    fn mechanism(&self) -> CoherenceMechanism {
        CoherenceMechanism::Hatric
    }

    fn plan_remap(&self, ctx: &RemapContext) -> CoherencePlan {
        let c = &self.costs;
        let mut targets = Vec::new();
        let mut messages = 0;
        for cpu in ctx.sharers.iter() {
            messages += 1;
            // The initiator's own structures snoop its store; remote sharers
            // get an invalidation message.  Either way: no VM exit, no
            // flush, a pipelined co-tag match.
            targets.push(TargetPlan {
                cpu,
                action: TargetAction::InvalidateCotag,
                vm_exit: false,
                target_cycles: c.cotag_match_cycles,
            });
        }
        CoherencePlan {
            vm: ctx.vm,
            // The store itself is an ordinary cache write; the only extra
            // initiator cost is the message fan-out, which the cache system
            // already performs for data coherence.
            initiator_cycles: c.coherence_message_cycles,
            targets,
            ipis_sent: 0,
            hw_messages: messages,
        }
    }
}

/// UNITD++ — UNITD upgraded with nested-page-table support and directory
/// integration: selective TLB invalidation via a reverse-lookup CAM, but MMU
/// caches and nested TLBs are not covered and must be flushed.
#[derive(Debug, Clone)]
pub struct UnitdPlusPlus {
    costs: CoherenceCosts,
}

impl UnitdPlusPlus {
    /// Creates the protocol with the given costs.
    #[must_use]
    pub fn new(costs: CoherenceCosts) -> Self {
        Self { costs }
    }
}

impl TranslationCoherence for UnitdPlusPlus {
    fn mechanism(&self) -> CoherenceMechanism {
        CoherenceMechanism::UnitdPlusPlus
    }

    fn plan_remap(&self, ctx: &RemapContext) -> CoherencePlan {
        let c = &self.costs;
        let mut targets = Vec::new();
        let mut messages = 0;
        for cpu in ctx.sharers.iter() {
            messages += 1;
            targets.push(TargetPlan {
                cpu,
                action: TargetAction::InvalidateCotagTlbOnly,
                vm_exit: false,
                target_cycles: c.cam_search_cycles + c.flush_cycles / 4,
            });
        }
        CoherencePlan {
            vm: ctx.vm,
            initiator_cycles: c.coherence_message_cycles,
            targets,
            ipis_sent: 0,
            hw_messages: messages,
        }
    }
}

/// The unachievable zero-overhead bound: stale entries vanish for free.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdealCoherence;

impl TranslationCoherence for IdealCoherence {
    fn mechanism(&self) -> CoherenceMechanism {
        CoherenceMechanism::Ideal
    }

    fn plan_remap(&self, ctx: &RemapContext) -> CoherencePlan {
        // Stale entries must still disappear for correctness, but at zero
        // cost and with perfect precision.
        let targets = ctx
            .sharers
            .iter()
            .map(|cpu| TargetPlan {
                cpu,
                action: TargetAction::InvalidateCotag,
                vm_exit: false,
                target_cycles: 0,
            })
            .collect();
        CoherencePlan {
            vm: ctx.vm,
            initiator_cycles: 0,
            targets,
            ipis_sent: 0,
            hw_messages: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(vm_cpus: &[u32], running: &[u32], sharers: &[u32]) -> RemapContext {
        let mut set = SharerSet::empty();
        for &s in sharers {
            set.add(CpuId::new(s));
        }
        RemapContext {
            initiator: CpuId::new(0),
            vm: VmId::new(0),
            vm_cpus: vm_cpus.iter().map(|&c| CpuId::new(c)).collect(),
            running_guest: running.iter().map(|&c| CpuId::new(c)).collect(),
            sharers: set,
        }
    }

    #[test]
    fn software_targets_all_vm_cpus_and_exits_running_ones() {
        let proto = SoftwareShootdown::kvm(CoherenceCosts::haswell_measured());
        let plan = proto.plan_remap(&ctx(&[0, 1, 2, 3], &[1, 2], &[2]));
        assert_eq!(plan.targets.len(), 4);
        assert_eq!(plan.vm_exits(), 2);
        assert_eq!(plan.full_flushes(), 4);
        assert_eq!(plan.ipis_sent, 3);
        assert!(plan.initiator_cycles > 5_000);
    }

    #[test]
    fn hatric_targets_only_sharers_with_no_exits() {
        let proto = HatricProtocol::new(CoherenceCosts::haswell_measured());
        let plan = proto.plan_remap(&ctx(&[0, 1, 2, 3], &[1, 2], &[2]));
        assert_eq!(plan.targets.len(), 1);
        assert_eq!(plan.targets[0].cpu, CpuId::new(2));
        assert_eq!(plan.vm_exits(), 0);
        assert_eq!(plan.full_flushes(), 0);
        assert_eq!(plan.ipis_sent, 0);
        assert!(plan.total_cycles() < 100);
    }

    #[test]
    fn hatric_is_orders_of_magnitude_cheaper_than_software() {
        let costs = CoherenceCosts::haswell_measured();
        let context = ctx(&[0, 1, 2, 3, 4, 5, 6, 7], &[1, 2, 3, 4], &[1, 3]);
        let sw = SoftwareShootdown::kvm(costs).plan_remap(&context);
        let hw = HatricProtocol::new(costs).plan_remap(&context);
        assert!(sw.total_cycles() > 50 * hw.total_cycles());
    }

    #[test]
    fn unitd_flushes_non_tlb_structures() {
        let proto = UnitdPlusPlus::new(CoherenceCosts::haswell_measured());
        let plan = proto.plan_remap(&ctx(&[0, 1], &[1], &[0, 1]));
        assert_eq!(plan.targets.len(), 2);
        assert!(plan
            .targets
            .iter()
            .all(|t| t.action == TargetAction::InvalidateCotagTlbOnly));
        assert_eq!(plan.vm_exits(), 0);
    }

    #[test]
    fn ideal_is_free() {
        let plan = IdealCoherence.plan_remap(&ctx(&[0, 1, 2], &[1], &[1, 2]));
        assert_eq!(plan.total_cycles(), 0);
        assert_eq!(plan.targets.len(), 2);
    }

    #[test]
    fn xen_plans_cost_more_than_kvm_plans() {
        let costs = CoherenceCosts::haswell_measured();
        let context = ctx(&[0, 1, 2, 3], &[1, 2, 3], &[1]);
        let kvm = SoftwareShootdown::kvm(costs).plan_remap(&context);
        let xen = SoftwareShootdown::xen(costs).plan_remap(&context);
        assert!(xen.total_cycles() > kvm.total_cycles());
    }

    #[test]
    fn mechanism_classification() {
        assert!(CoherenceMechanism::Hatric.is_hardware());
        assert!(CoherenceMechanism::Ideal.is_hardware());
        assert!(!CoherenceMechanism::Software.is_hardware());
        let boxed = CoherenceMechanism::Hatric.build(CoherenceCosts::default());
        assert_eq!(boxed.mechanism(), CoherenceMechanism::Hatric);
    }
}
