//! Error handling shared by the simulator crates.

use core::fmt;

/// Convenient result alias used throughout the workspace.
pub type Result<T> = core::result::Result<T, SimError>;

/// Errors produced by the HATRIC simulator crates.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// A configuration value was invalid (e.g. a non-power-of-two associativity).
    InvalidConfig {
        /// Description of the offending parameter.
        what: String,
    },
    /// Physical memory of the requested kind is exhausted.
    OutOfMemory {
        /// Which device ran out of frames.
        device: String,
    },
    /// A translation was requested for a page that is not mapped.
    UnmappedPage {
        /// The guest-virtual page number that missed.
        page: u64,
    },
    /// A guest-physical frame has no nested-page-table mapping.
    UnmappedGuestFrame {
        /// The guest-physical frame number that missed.
        frame: u64,
    },
    /// An entity identifier was out of range for the configured system.
    UnknownEntity {
        /// Description of the entity (e.g. "cpu 17 of 16").
        what: String,
    },
    /// A trace or workload was malformed.
    MalformedTrace {
        /// Description of the problem.
        what: String,
    },
    /// An operation targeted a host that has crashed (fault injection
    /// took it down; it no longer advances or accepts migrations).
    HostDown {
        /// Index of the dead host.
        host: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidConfig { what } => write!(f, "invalid configuration: {what}"),
            SimError::OutOfMemory { device } => write!(f, "out of {device} memory"),
            SimError::UnmappedPage { page } => {
                write!(f, "guest virtual page {page:#x} is not mapped")
            }
            SimError::UnmappedGuestFrame { frame } => {
                write!(f, "guest physical frame {frame:#x} has no nested mapping")
            }
            SimError::UnknownEntity { what } => write!(f, "unknown entity: {what}"),
            SimError::MalformedTrace { what } => write!(f, "malformed trace: {what}"),
            SimError::HostDown { host } => write!(f, "host {host} is down"),
        }
    }
}

impl std::error::Error for SimError {}

/// A typed configuration error: every way a declarative host/scenario
/// description can fail validation, as its own variant rather than a panic
/// or a stringly-typed [`SimError::InvalidConfig`].
///
/// Config validation across the workspace (`HostConfig::validate`, the
/// scenario layer's parameter parsing) returns this type so callers can
/// match on *which* invariant broke; the `From<ConfigError>` impl converts
/// into [`SimError`] at the simulator boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// The host was configured with zero physical CPUs.
    ZeroPcpus,
    /// The host's die-stacked device was configured with zero pages.
    ZeroFastPages,
    /// The host has no VMs to run.
    NoVms,
    /// A VM was configured with zero vCPUs.
    ZeroVcpus {
        /// Slot of the offending VM, or `None` when the VM is not (yet)
        /// part of a host.
        slot: Option<usize>,
    },
    /// `slice_accesses` was zero, so no vCPU would ever make progress.
    ZeroSliceAccesses,
    /// A fleet's `threads` was zero — its epoch loop needs at least one
    /// worker.
    ZeroThreads,
    /// The per-VM die-stacked quotas oversubscribe the fast device.
    QuotaOvercommit {
        /// Sum of all VM quotas in pages.
        quota_sum: u64,
        /// Capacity of the fast device in pages.
        fast_pages: u64,
    },
    /// A VM's home socket does not exist on this host.
    HomeSocketOutOfRange {
        /// Slot of the offending VM.
        slot: usize,
        /// The requested home socket.
        home_socket: usize,
        /// Number of sockets the host actually has.
        sockets: usize,
    },
    /// A scheduled host event (migration / balloon) is inconsistent.
    BadEvent {
        /// Description of the problem.
        what: String,
    },
    /// A scenario parameter key is not recognised by the scenario.
    UnknownParam {
        /// The offending key.
        key: String,
    },
    /// A scenario parameter value could not be parsed.
    BadValue {
        /// The parameter key.
        key: String,
        /// The unparseable value.
        value: String,
    },
    /// A fault-injection plan is inconsistent (zero hosts, weights that
    /// sum to zero, an out-of-order schedule, an event naming a host the
    /// fleet does not have, …).
    BadFaultPlan {
        /// Description of the problem.
        what: String,
    },
    /// Any other invalid configuration (platform-level checks).
    Invalid {
        /// Description of the offending parameter.
        what: String,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroPcpus => write!(f, "a host needs at least one physical CPU"),
            ConfigError::ZeroFastPages => {
                write!(f, "a host needs a nonzero die-stacked capacity")
            }
            ConfigError::NoVms => write!(f, "a host needs at least one VM"),
            ConfigError::ZeroVcpus { slot: None } => {
                write!(f, "a VM needs at least one vCPU")
            }
            ConfigError::ZeroVcpus { slot: Some(slot) } => {
                write!(f, "VM slot {slot} needs at least one vCPU")
            }
            ConfigError::ZeroSliceAccesses => write!(f, "slice_accesses must be nonzero"),
            ConfigError::ZeroThreads => {
                write!(f, "threads must be nonzero (1 = serial epoch execution)")
            }
            ConfigError::QuotaOvercommit {
                quota_sum,
                fast_pages,
            } => write!(
                f,
                "VM die-stacked quotas ({quota_sum} pages) exceed the fast device \
                 capacity ({fast_pages} pages)"
            ),
            ConfigError::HomeSocketOutOfRange {
                slot,
                home_socket,
                sockets,
            } => write!(
                f,
                "VM slot {slot} is homed on socket {home_socket} but the host has \
                 only {sockets} socket(s)"
            ),
            ConfigError::BadEvent { what } => write!(f, "invalid host event: {what}"),
            ConfigError::BadFaultPlan { what } => write!(f, "invalid fault plan: {what}"),
            ConfigError::UnknownParam { key } => {
                write!(f, "unknown scenario parameter: {key}")
            }
            ConfigError::BadValue { key, value } => {
                write!(f, "cannot parse scenario parameter {key}={value}")
            }
            ConfigError::Invalid { what } => write!(f, "invalid configuration: {what}"),
        }
    }
}

impl std::error::Error for ConfigError {}

impl From<ConfigError> for SimError {
    fn from(err: ConfigError) -> Self {
        SimError::InvalidConfig {
            what: err.to_string(),
        }
    }
}

impl From<SimError> for ConfigError {
    fn from(err: SimError) -> Self {
        match err {
            SimError::InvalidConfig { what } => ConfigError::Invalid { what },
            other => ConfigError::Invalid {
                what: other.to_string(),
            },
        }
    }
}

impl ConfigError {
    /// Shorthand constructor for event-validation errors.
    #[must_use]
    pub fn event(what: impl Into<String>) -> Self {
        ConfigError::BadEvent { what: what.into() }
    }

    /// Shorthand constructor for fault-plan validation errors.
    #[must_use]
    pub fn fault_plan(what: impl Into<String>) -> Self {
        ConfigError::BadFaultPlan { what: what.into() }
    }
}

impl SimError {
    /// Shorthand constructor for configuration errors.
    #[must_use]
    pub fn config(what: impl Into<String>) -> Self {
        SimError::InvalidConfig { what: what.into() }
    }

    /// Shorthand constructor for unknown-entity errors.
    #[must_use]
    pub fn unknown(what: impl Into<String>) -> Self {
        SimError::UnknownEntity { what: what.into() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_concise() {
        let err = SimError::config("llc ways must be a power of two");
        let text = err.to_string();
        assert!(text.starts_with("invalid configuration"));
        assert!(!text.ends_with('.'));
    }

    #[test]
    fn errors_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimError>();
    }

    #[test]
    fn config_error_displays_each_invariant() {
        assert_eq!(
            ConfigError::ZeroPcpus.to_string(),
            "a host needs at least one physical CPU"
        );
        assert!(ConfigError::ZeroFastPages.to_string().contains("nonzero"));
        assert!(ConfigError::ZeroVcpus { slot: Some(3) }
            .to_string()
            .contains("slot 3"));
        assert!(ConfigError::ZeroVcpus { slot: None }
            .to_string()
            .starts_with("a VM"));
        let err = ConfigError::QuotaOvercommit {
            quota_sum: 300,
            fast_pages: 256,
        };
        assert!(err.to_string().contains("300"));
        assert!(err.to_string().contains("256"));
        let err = ConfigError::HomeSocketOutOfRange {
            slot: 1,
            home_socket: 2,
            sockets: 2,
        };
        assert!(err.to_string().contains("socket 2"));
        assert_eq!(
            ConfigError::fault_plan("weights sum to zero").to_string(),
            "invalid fault plan: weights sum to zero"
        );
    }

    #[test]
    fn host_down_names_the_host() {
        assert_eq!(SimError::HostDown { host: 3 }.to_string(), "host 3 is down");
    }

    #[test]
    fn config_error_round_trips_into_sim_error() {
        let sim: SimError = ConfigError::ZeroSliceAccesses.into();
        assert_eq!(
            sim,
            SimError::InvalidConfig {
                what: "slice_accesses must be nonzero".into()
            }
        );
        let back: ConfigError = sim.into();
        assert_eq!(
            back,
            ConfigError::Invalid {
                what: "slice_accesses must be nonzero".into()
            }
        );
        let cfg: ConfigError = SimError::OutOfMemory {
            device: "die-stacked DRAM".into(),
        }
        .into();
        assert!(matches!(cfg, ConfigError::Invalid { .. }));
    }

    #[test]
    fn config_errors_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ConfigError>();
    }

    #[test]
    fn error_trait_object() {
        let err: Box<dyn std::error::Error> = Box::new(SimError::OutOfMemory {
            device: "die-stacked DRAM".into(),
        });
        assert!(err.to_string().contains("die-stacked"));
    }
}
