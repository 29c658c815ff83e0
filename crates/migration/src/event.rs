//! Host events: hypervisor-driven operations that `hatric-host`'s
//! `HostConfig` schedules at absolute scheduler slices.

use crate::balloon::BalloonParams;
use crate::engine::MigrationParams;

/// One scheduled hypervisor operation on the consolidated host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostEvent {
    /// Live-migrate a VM (pre-copy, then stop-and-copy).
    Migrate(MigrationParams),
    /// Move die-stacked capacity from one VM to another.
    Balloon(BalloonParams),
}

impl HostEvent {
    /// The scheduler slice (absolute, warmup included) at which the event
    /// fires.
    #[must_use]
    pub fn start_slice(&self) -> u64 {
        match self {
            HostEvent::Migrate(p) => p.start_slice,
            HostEvent::Balloon(p) => p.start_slice,
        }
    }
}
