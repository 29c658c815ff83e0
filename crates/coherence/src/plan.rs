//! The coherence plan a protocol produces for one page-table modification.

use hatric_types::{CpuId, VmId};

/// What a target CPU must do to its translation structures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetAction {
    /// Flush the TLBs, MMU cache and nested TLB completely (software path).
    FlushAll,
    /// Selectively invalidate entries whose co-tag matches the modified
    /// page-table line (HATRIC).
    InvalidateCotag,
    /// Selectively invalidate TLB entries via a reverse-lookup CAM but flush
    /// the MMU cache and nested TLB (UNITD++).
    InvalidateCotagTlbOnly,
}

/// The work one target CPU performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TargetPlan {
    /// The target CPU.
    pub cpu: CpuId,
    /// What it does to its translation structures.
    pub action: TargetAction,
    /// Whether the CPU suffers a VM exit (interrupting its guest).
    pub vm_exit: bool,
    /// Cycles of work/disruption charged to this CPU.
    pub target_cycles: u64,
}

/// The complete plan for one page-table modification.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CoherencePlan {
    /// The VM whose nested page table the plan is for (copied from the
    /// [`crate::RemapContext`]; the executor cross-checks it against the
    /// initiating VM so plans can never be applied on behalf of the wrong
    /// tenant).
    pub vm: VmId,
    /// Cycles charged to the initiating CPU (IPI loops, waiting for acks…).
    pub initiator_cycles: u64,
    /// Per-target work.
    pub targets: Vec<TargetPlan>,
    /// Number of inter-processor interrupts sent.
    pub ipis_sent: u64,
    /// Number of hardware coherence messages sent to translation structures.
    pub hw_messages: u64,
}

impl CoherencePlan {
    /// Number of VM exits this plan causes.
    #[must_use]
    pub fn vm_exits(&self) -> u64 {
        self.targets.iter().filter(|t| t.vm_exit).count() as u64
    }

    /// Number of targets whose structures are flushed completely.
    #[must_use]
    pub fn full_flushes(&self) -> u64 {
        self.targets
            .iter()
            .filter(|t| t.action == TargetAction::FlushAll)
            .count() as u64
    }

    /// Total cycles charged across initiator and targets (an upper bound on
    /// the serialised cost; the timing model distributes them per CPU).
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.initiator_cycles + self.targets.iter().map(|t| t.target_cycles).sum::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_summaries() {
        let plan = CoherencePlan {
            vm: VmId::new(3),
            initiator_cycles: 1000,
            targets: vec![
                TargetPlan {
                    cpu: CpuId::new(1),
                    action: TargetAction::FlushAll,
                    vm_exit: true,
                    target_cycles: 1550,
                },
                TargetPlan {
                    cpu: CpuId::new(2),
                    action: TargetAction::InvalidateCotag,
                    vm_exit: false,
                    target_cycles: 2,
                },
            ],
            ipis_sent: 1,
            hw_messages: 1,
        };
        assert_eq!(plan.vm_exits(), 1);
        assert_eq!(plan.full_flushes(), 1);
        assert_eq!(plan.total_cycles(), 1000 + 1550 + 2);
    }

    #[test]
    fn empty_plan_is_free() {
        let plan = CoherencePlan::default();
        assert_eq!(plan.total_cycles(), 0);
        assert_eq!(plan.vm_exits(), 0);
    }
}
