//! The traced fleet: each host wrapped in [`SpanHost`], which times the
//! cluster's per-epoch call into the host and the host engine's phase
//! deltas, so an epoch splits into per-host work and boundary time.

use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

use hatric::metrics::{HostReport, MigrationStats};
use hatric::telemetry::{EnginePhase, PhaseTotals, TraceSink};
use hatric_cluster::{
    ChurnStream, Cluster, ClusterParams, EpochHost, MigrationMode, ScheduledMigration,
};
use hatric_coherence::CoherenceMechanism;
use hatric_host::experiments::ClusterFaultsParams;
use hatric_host::ConsolidatedHost;
use hatric_migration::{MigrationParams, ReceiverParams};
use hatric_types::GuestFrame;

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static THREAD_INDEX: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// A small stable index for the calling thread (the Chrome trace `tid`).
pub fn thread_index() -> u32 {
    THREAD_INDEX.with(|i| *i)
}

/// Host time of each engine phase between two phase-total readings.
pub fn phase_delta(before: &PhaseTotals, after: &PhaseTotals) -> [Duration; 5] {
    EnginePhase::ALL.map(|p| Duration::from_nanos(after.nanos(p) - before.nanos(p)))
}

/// One `run_slices` call the cluster made into a host.
#[derive(Debug, Clone, Copy)]
pub struct HostCall {
    pub start: Instant,
    pub dur: Duration,
    pub thread: u32,
    /// Engine phase time inside the call, in [`EnginePhase::ALL`] order.
    pub phases: [Duration; 5],
}

/// A consolidated host that logs the host time of every epoch's slices.
#[derive(Debug)]
pub struct SpanHost {
    inner: ConsolidatedHost,
    pub calls: Vec<HostCall>,
}

impl SpanHost {
    pub fn inner(&self) -> &ConsolidatedHost {
        &self.inner
    }
}

impl EpochHost for SpanHost {
    fn run_slices(&mut self, n: u64) {
        let before = *self.inner.phase_totals();
        let start = Instant::now();
        self.inner.run_slices(n);
        let dur = start.elapsed();
        let phases = phase_delta(&before, self.inner.phase_totals());
        self.calls.push(HostCall {
            start,
            dur,
            thread: thread_index(),
            phases,
        });
    }
    fn reset_measurements(&mut self) {
        self.inner.reset_measurements();
    }
    fn report(&self) -> HostReport {
        self.inner.report()
    }
    fn vm_slots(&self) -> usize {
        EpochHost::vm_slots(&self.inner)
    }
    fn vm_active(&self, slot: usize) -> bool {
        self.inner.vm_active(slot)
    }
    fn set_vm_active(&mut self, slot: usize, active: bool) {
        self.inner.set_vm_active(slot, active);
    }
    fn active_vcpus(&self) -> u64 {
        self.inner.active_vcpus()
    }
    fn sim_cycles(&self) -> u64 {
        self.inner.sim_cycles()
    }
    fn vm_image(&self, slot: usize) -> Vec<GuestFrame> {
        self.inner.vm_image(slot)
    }
    fn start_migration(&mut self, params: MigrationParams) {
        self.inner.start_migration(params);
    }
    fn migration_idle(&self) -> bool {
        self.inner.migration_idle()
    }
    fn migration_stats(&self) -> MigrationStats {
        self.inner.migration_stats()
    }
    fn migration_pending_pages(&self) -> u64 {
        self.inner.migration_pending_pages()
    }
    fn drain_outbox(&mut self) -> Vec<GuestFrame> {
        self.inner.drain_outbox()
    }
    fn attach_receiver(&mut self, params: ReceiverParams) {
        EpochHost::attach_receiver(&mut self.inner, params);
    }
    fn deliver_pages(&mut self, pages: Vec<GuestFrame>) {
        self.inner.deliver_pages(pages);
    }
    fn begin_post_copy(&mut self, outstanding: Vec<GuestFrame>) {
        self.inner.begin_post_copy(outstanding);
    }
    fn mark_source_done(&mut self) {
        self.inner.mark_source_done();
    }
    fn receiver_complete(&self) -> bool {
        self.inner.receiver_complete()
    }
    fn receiver_pending_pages(&self) -> u64 {
        self.inner.receiver_pending_pages()
    }
    fn abort_migration(&mut self) -> u64 {
        self.inner.abort_migration()
    }
    fn escalate_migration(&mut self) -> Vec<GuestFrame> {
        self.inner.escalate_migration()
    }
    fn migration_in_precopy(&self) -> bool {
        self.inner.migration_in_precopy()
    }
    fn requeue_outbox(&mut self, pages: Vec<GuestFrame>) {
        self.inner.requeue_outbox(pages);
    }
    fn requeue_copy(&mut self, pages: Vec<GuestFrame>) {
        self.inner.requeue_copy(pages);
    }
    fn set_migration_stalled(&mut self, stalled: bool) {
        self.inner.set_migration_stalled(stalled);
    }
    fn abort_receiver(&mut self, rollback: bool) -> u64 {
        self.inner.abort_receiver(rollback)
    }
    fn set_dram_brownout(&mut self, multiplier_x100: u64) {
        self.inner.set_dram_brownout(multiplier_x100);
    }
    fn record_fault_span(&mut self, name: &'static str, args: Vec<(&'static str, u64)>) {
        self.inner.record_fault_span(name, args);
    }
    fn enable_tracing(&mut self, capacity: usize) {
        EpochHost::enable_tracing(&mut self.inner, capacity);
    }
    fn trace_sink(&self) -> Option<&TraceSink> {
        self.inner.trace_sink()
    }
}

/// Builds the faulted fleet of [`ClusterFaultsParams::build_cluster`] over
/// [`SpanHost`]s, step for step.  The untraced runs use the library's own
/// builder, and every traced report is checked against theirs, so a
/// divergence here shows up as a failed operation.
pub fn build_traced_fleet(
    p: &ClusterFaultsParams,
    mechanism: CoherenceMechanism,
) -> Cluster<SpanHost> {
    let base = &p.base;
    let hosts: Vec<SpanHost> = (0..base.hosts)
        .map(|h| SpanHost {
            inner: ConsolidatedHost::new(base.host_config(h, mechanism))
                .expect("cluster-faults configurations are valid"),
            calls: Vec::new(),
        })
        .collect();
    let mut params = ClusterParams::new(base.epoch_slices, base.threads);
    params.policy = base.policy;
    params.migration = MigrationParams {
        copy_pages_per_slice: base.copy_pages_per_slice,
        throttle_after_rounds: base.throttle_after_rounds,
        ..MigrationParams::at(0, 0)
    };
    params.receiver = ReceiverParams::for_slot(0);
    params.stall_timeout_epochs = p.stall_timeout_epochs;
    params.max_retries = p.max_retries;
    params.retry_backoff_epochs = p.retry_backoff_epochs;
    params.restart_penalty_cycles = p.restart_penalty_cycles;
    let mut cluster = Cluster::new(hosts, params);
    for host in 0..base.hosts {
        for slot in base.active_vms..base.vm_slots() {
            cluster.set_vm_active(host, slot, false);
        }
    }
    if base.churn_period > 0 {
        cluster.set_churn(
            ChurnStream::new(base.seed ^ 0xc0de_c4a2, base.hosts, base.churn_period)
                .generate(base.warmup_epochs + base.measured_epochs),
        );
    }
    for src_host in 0..3 {
        cluster.schedule_migration(ScheduledMigration {
            epoch: base.migration_start_epoch(),
            src_host,
            src_slot: 0,
            dst_host: (src_host == 0).then_some(1 % base.hosts),
            mode: MigrationMode::PreCopy,
        });
    }
    cluster
        .set_faults(p.fault_schedule())
        .expect("the built-in fault schedule is valid");
    cluster
}
