//! Quickstart: a consolidated host in ~20 lines — a paging-heavy aggressor
//! next to a quiet victim, under software shootdowns and under HATRIC.
//! Run with: `cargo run --release --example quickstart`

use hatric_host::{CoherenceMechanism, ConsolidatedHost, HostConfig, SchedPolicy, VmSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    for mechanism in [CoherenceMechanism::Software, CoherenceMechanism::Hatric] {
        let config = HostConfig::scaled(4, 256)
            .with_mechanism(mechanism)
            .with_sched(SchedPolicy::RoundRobin)
            .with_vm(VmSpec::aggressor(2, 128))
            .with_vm(VmSpec::victim(2, 128));
        let report = ConsolidatedHost::new(config)?.run(2_000, 4_000);
        println!(
            "{mechanism:?}: victim ran {} cycles ({} stolen by the aggressor's {} IPIs)",
            report.per_vm[1].runtime_cycles(),
            report.per_vm[1].interference.disrupted_cycles,
            report.host.coherence.ipis,
        );
    }
    Ok(())
}
