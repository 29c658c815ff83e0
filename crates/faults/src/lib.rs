//! Deterministic, seeded fault injection.
//!
//! The paper's claim is that HATRIC keeps translation coherence cheap
//! *under stress*; this crate supplies the stress that is not benign.  A
//! [`FaultPlan`] expands a seed into a fixed schedule of typed
//! [`FaultEvent`]s *before* the cluster runs — exactly the
//! `ChurnStream` discipline from `hatric-cluster`: the schedule is data,
//! not a live random source, so a fault storm is byte-identical for any
//! worker-thread count.  Faults fire from
//! simulated epochs, never wall-clock.
//!
//! The event taxonomy covers the failure modes a live-migration fleet
//! actually sees:
//!
//! * **Host crash** — the host drops out at the epoch boundary; its VMs
//!   cold-restart elsewhere and any migration it anchored aborts or
//!   completes per protocol phase.
//! * **Link degradation / blackout** — the migration wire delivers a
//!   fraction of its pages (degrade) or drops them outright while the
//!   source is still in pre-copy (blackout); drops are re-sent.
//! * **DRAM brownout** — a transient service-latency multiplier on a
//!   host's memory devices, applied through the existing leaky-bucket
//!   queueing path, so every access and page copy observes it.
//! * **Stuck pre-copy** — the source's copy rounds stall for a few
//!   epochs, feeding the cluster's non-convergence escalation timeout.
//!
//! A [`FaultClock`] replays a validated schedule in epoch order; the
//! cluster pops due events at each boundary.

use hatric_types::ConfigError;

use std::collections::VecDeque;

/// One fault, due at the start of `epoch`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Epoch (0-based, counted over the whole run including warmup) at
    /// whose boundary the fault fires.
    pub epoch: u64,
    /// What breaks.
    pub kind: FaultKind,
}

/// The kinds of fault the cluster reacts to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The host dies at the epoch boundary and never comes back: its
    /// VMs are cold-restarted elsewhere (dirty state lost) and any
    /// migration it anchored is aborted or completed per protocol phase.
    HostCrash {
        /// Index of the crashing host.
        host: usize,
    },
    /// The host's migration link delivers only `1/factor` of its usual
    /// page budget for `epochs` epochs; undelivered pages stay queued
    /// (nothing is lost).
    LinkDegrade {
        /// Host whose outbound migration wire degrades.
        host: usize,
        /// Bandwidth divisor (≥ 2).
        factor: u64,
        /// Duration in epochs.
        epochs: u64,
    },
    /// The host's migration link drops every page a pre-copy source
    /// puts on the wire for `epochs` epochs; each drop must be re-sent.
    LinkBlackout {
        /// Host whose outbound migration wire blacks out.
        host: usize,
        /// Duration in epochs.
        epochs: u64,
    },
    /// The host's DRAM devices serve lines `multiplier_x100/100` times
    /// slower for `epochs` epochs (a fixed-point percentage so the
    /// timing stays integer-exact; `100` is a no-op).
    DramBrownout {
        /// Host whose memory devices brown out.
        host: usize,
        /// Service-latency multiplier × 100 (e.g. `250` = 2.5×).
        multiplier_x100: u64,
        /// Duration in epochs.
        epochs: u64,
    },
    /// Any pre-copy migration sourced on the host makes no progress for
    /// `epochs` epochs (rounds freeze; the cluster's non-convergence
    /// timeout keeps counting).
    StuckPreCopy {
        /// Host whose outbound pre-copy stalls.
        host: usize,
        /// Duration in epochs.
        epochs: u64,
    },
}

impl FaultKind {
    /// The host the fault lands on.
    #[must_use]
    pub fn host(&self) -> usize {
        match *self {
            FaultKind::HostCrash { host }
            | FaultKind::LinkDegrade { host, .. }
            | FaultKind::LinkBlackout { host, .. }
            | FaultKind::DramBrownout { host, .. }
            | FaultKind::StuckPreCopy { host, .. } => host,
        }
    }

    /// A short label for trace spans and logs.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::HostCrash { .. } => "host_crash",
            FaultKind::LinkDegrade { .. } => "link_degrade",
            FaultKind::LinkBlackout { .. } => "link_blackout",
            FaultKind::DramBrownout { .. } => "dram_brownout",
            FaultKind::StuckPreCopy { .. } => "stuck_precopy",
        }
    }
}

/// Relative draw weights for the fault classes a [`FaultPlan`] emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultWeights {
    /// Weight of [`FaultKind::HostCrash`].
    pub crash: u64,
    /// Weight of the link faults (split evenly between degrade and
    /// blackout by a follow-up draw).
    pub link: u64,
    /// Weight of [`FaultKind::DramBrownout`].
    pub brownout: u64,
    /// Weight of [`FaultKind::StuckPreCopy`].
    pub stall: u64,
}

impl Default for FaultWeights {
    /// Crashes rare, everything else evenly likely: `1 : 3 : 3 : 3`.
    fn default() -> Self {
        Self {
            crash: 1,
            link: 3,
            brownout: 3,
            stall: 3,
        }
    }
}

impl FaultWeights {
    fn total(&self) -> u64 {
        self.crash + self.link + self.brownout + self.stall
    }
}

/// splitmix64 — the tiny deterministic generator the churn and workload
/// layers also build on.
fn splitmix64(state: &mut u64) {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    *state = z ^ (z >> 31);
}

/// Expands a seed into a deterministic fault schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Master seed.
    pub seed: u64,
    /// Number of hosts faults can land on.
    pub hosts: usize,
    /// Mean epochs between faults (a fault is drawn per epoch with
    /// probability `1/period`; `0` disables injection entirely).
    pub period: u64,
    /// Relative class weights.
    pub weights: FaultWeights,
    /// Hard cap on emitted [`FaultKind::HostCrash`] events (a seeded
    /// storm should not raze the fleet; crash draws past the cap are
    /// re-routed to link degradation).
    pub max_crashes: u64,
}

impl FaultPlan {
    /// A plan drawing roughly one fault every `period` epochs with the
    /// default class weights and at most one crash.
    #[must_use]
    pub fn new(seed: u64, hosts: usize, period: u64) -> Self {
        Self {
            seed,
            hosts,
            period,
            weights: FaultWeights::default(),
            max_crashes: 1,
        }
    }

    /// Checks the plan's internal consistency.
    ///
    /// # Errors
    ///
    /// [`ConfigError::BadFaultPlan`] when the plan injects (nonzero
    /// `period`) but has no hosts to land faults on, or all class
    /// weights are zero.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.period == 0 {
            return Ok(());
        }
        if self.hosts == 0 {
            return Err(ConfigError::fault_plan(
                "a nonzero-period plan needs at least one host",
            ));
        }
        if self.weights.total() == 0 {
            return Err(ConfigError::fault_plan("class weights sum to zero"));
        }
        Ok(())
    }

    /// The faults due over `epochs` epochs, in epoch order.  The draw
    /// per epoch: fault-or-not, then the class (by weight), then the
    /// host and the class's parameters.
    ///
    /// # Errors
    ///
    /// Propagates [`FaultPlan::validate`].
    pub fn generate(&self, epochs: u64) -> Result<Vec<FaultEvent>, ConfigError> {
        self.validate()?;
        if self.period == 0 {
            return Ok(Vec::new());
        }
        let mut state = self.seed ^ 0xfau64.rotate_left(32);
        let mut draw = || {
            splitmix64(&mut state);
            state
        };
        let total = self.weights.total();
        let mut crashes = 0u64;
        let mut events = Vec::new();
        for epoch in 0..epochs {
            if draw() % self.period != 0 {
                continue;
            }
            let mut pick = draw() % total;
            let host = (draw() % self.hosts as u64) as usize;
            let mut class = 3usize; // stall
            for (idx, weight) in [self.weights.crash, self.weights.link, self.weights.brownout]
                .into_iter()
                .enumerate()
            {
                if pick < weight {
                    class = idx;
                    break;
                }
                pick -= weight;
            }
            if class == 0 && crashes >= self.max_crashes {
                class = 1; // crash budget spent: degrade the link instead
            }
            let kind = match class {
                0 => {
                    crashes += 1;
                    FaultKind::HostCrash { host }
                }
                1 => {
                    if draw() % 2 == 0 {
                        FaultKind::LinkDegrade {
                            host,
                            factor: 2 + draw() % 3,
                            epochs: 1 + draw() % 3,
                        }
                    } else {
                        FaultKind::LinkBlackout {
                            host,
                            epochs: 1 + draw() % 2,
                        }
                    }
                }
                2 => FaultKind::DramBrownout {
                    host,
                    multiplier_x100: 150 + 50 * (draw() % 4),
                    epochs: 1 + draw() % 3,
                },
                _ => FaultKind::StuckPreCopy {
                    host,
                    epochs: 1 + draw() % 3,
                },
            };
            events.push(FaultEvent { epoch, kind });
        }
        Ok(events)
    }
}

/// Checks that a schedule is epoch-ordered and every event names a host
/// below `hosts`.
///
/// # Errors
///
/// [`ConfigError::BadFaultPlan`] naming the first offending event.
pub fn validate_schedule(events: &[FaultEvent], hosts: usize) -> Result<(), ConfigError> {
    for pair in events.windows(2) {
        if pair[1].epoch < pair[0].epoch {
            return Err(ConfigError::fault_plan(format!(
                "schedule out of order: epoch {} after epoch {}",
                pair[1].epoch, pair[0].epoch
            )));
        }
    }
    for event in events {
        let host = event.kind.host();
        if host >= hosts {
            return Err(ConfigError::fault_plan(format!(
                "{} at epoch {} targets host {host} of a {hosts}-host fleet",
                event.kind.label(),
                event.epoch
            )));
        }
    }
    Ok(())
}

/// Replays a validated fault schedule in epoch order.
#[derive(Debug, Clone, Default)]
pub struct FaultClock {
    events: VecDeque<FaultEvent>,
}

impl FaultClock {
    /// A clock over `events`, which must already be in epoch order.
    ///
    /// # Errors
    ///
    /// [`ConfigError::BadFaultPlan`] when the schedule is out of order.
    pub fn new(events: Vec<FaultEvent>) -> Result<Self, ConfigError> {
        validate_schedule(&events, usize::MAX)?;
        Ok(Self {
            events: events.into(),
        })
    }

    /// A clock over `events` destined for a `hosts`-host fleet: rejects
    /// out-of-order schedules *and* events naming hosts the fleet does
    /// not have.
    ///
    /// # Errors
    ///
    /// [`ConfigError::BadFaultPlan`] naming the first offending event.
    pub fn for_fleet(events: Vec<FaultEvent>, hosts: usize) -> Result<Self, ConfigError> {
        validate_schedule(&events, hosts)?;
        Ok(Self {
            events: events.into(),
        })
    }

    /// Removes and returns every event due at or before `epoch`, in
    /// schedule order.
    pub fn pop_due(&mut self, epoch: u64) -> Vec<FaultEvent> {
        let mut due = Vec::new();
        while self.events.front().is_some_and(|e| e.epoch <= epoch) {
            due.push(self.events.pop_front().expect("front checked"));
        }
        due
    }

    /// Events not yet fired.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.events.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_epoch_ordered() {
        let plan = FaultPlan::new(42, 4, 3);
        let a = plan.generate(96).unwrap();
        let b = plan.generate(96).unwrap();
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].epoch <= w[1].epoch));
        assert!(!a.is_empty(), "period 3 over 96 epochs must draw faults");
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let a = FaultPlan::new(1, 4, 2).generate(96).unwrap();
        let b = FaultPlan::new(2, 4, 2).generate(96).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn zero_period_disables_injection() {
        assert!(FaultPlan::new(7, 4, 0).generate(96).unwrap().is_empty());
    }

    #[test]
    fn crash_budget_is_honored_and_rerouted() {
        let plan = FaultPlan {
            weights: FaultWeights {
                crash: 10,
                link: 0,
                brownout: 0,
                stall: 0,
            },
            max_crashes: 2,
            ..FaultPlan::new(9, 3, 1)
        };
        let events = plan.generate(64).unwrap();
        let crashes = events
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::HostCrash { .. }))
            .count();
        assert_eq!(crashes, 2, "exactly the crash budget");
        assert!(
            events
                .iter()
                .skip_while(|e| !matches!(e.kind, FaultKind::HostCrash { .. }))
                .any(|e| matches!(
                    e.kind,
                    FaultKind::LinkDegrade { .. } | FaultKind::LinkBlackout { .. }
                )),
            "spent crash draws become link faults"
        );
    }

    #[test]
    fn zero_crash_weight_never_crashes() {
        let plan = FaultPlan {
            weights: FaultWeights {
                crash: 0,
                ..FaultWeights::default()
            },
            ..FaultPlan::new(11, 4, 1)
        };
        let events = plan.generate(128).unwrap();
        assert!(!events.is_empty());
        assert!(events
            .iter()
            .all(|e| !matches!(e.kind, FaultKind::HostCrash { .. })));
    }

    #[test]
    fn invalid_plans_are_rejected_with_typed_errors() {
        let no_hosts = FaultPlan::new(1, 0, 2);
        assert!(matches!(
            no_hosts.validate(),
            Err(ConfigError::BadFaultPlan { .. })
        ));
        let no_weights = FaultPlan {
            weights: FaultWeights {
                crash: 0,
                link: 0,
                brownout: 0,
                stall: 0,
            },
            ..FaultPlan::new(1, 4, 2)
        };
        assert!(matches!(
            no_weights.generate(16),
            Err(ConfigError::BadFaultPlan { .. })
        ));
        // A zero-period plan never draws, so it is valid regardless.
        assert!(FaultPlan::new(1, 0, 0).validate().is_ok());
    }

    #[test]
    fn clock_rejects_out_of_order_schedules() {
        let events = vec![
            FaultEvent {
                epoch: 5,
                kind: FaultKind::HostCrash { host: 0 },
            },
            FaultEvent {
                epoch: 2,
                kind: FaultKind::LinkBlackout { host: 1, epochs: 1 },
            },
        ];
        assert!(matches!(
            FaultClock::new(events),
            Err(ConfigError::BadFaultPlan { .. })
        ));
    }

    #[test]
    fn fleet_clock_rejects_out_of_range_hosts() {
        let events = vec![FaultEvent {
            epoch: 0,
            kind: FaultKind::DramBrownout {
                host: 7,
                multiplier_x100: 200,
                epochs: 2,
            },
        }];
        let err = FaultClock::for_fleet(events, 4).unwrap_err();
        assert!(err.to_string().contains("host 7"));
    }

    #[test]
    fn clock_pops_due_events_in_order() {
        let plan = FaultPlan::new(3, 4, 2);
        let events = plan.generate(64).unwrap();
        let total = events.len();
        let mut clock = FaultClock::for_fleet(events.clone(), 4).unwrap();
        let mut replayed = Vec::new();
        for epoch in 0..64 {
            replayed.extend(clock.pop_due(epoch));
        }
        assert_eq!(replayed, events);
        assert_eq!(clock.remaining(), 0);
        assert!(total > 0);
    }
}
