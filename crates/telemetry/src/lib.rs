//! # hatric-telemetry
//!
//! Observability primitives for the HATRIC reproduction, shared by the
//! core engine, the migration subsystem and the scenario layer:
//!
//! * [`LatencyHistogram`] — fixed-size power-of-two-bucket histograms for
//!   sim-time latency distributions (nested-walk latency, shootdown
//!   completion latency, DRAM queueing delay).  Integer bucket counters
//!   merge deterministically, so per-VM histograms can ride the slice
//!   engine's commit barrier exactly like the energy tallies.
//! * [`TraceSink`] / [`TraceEvent`] — a ring-buffered recorder of spans
//!   keyed by *simulated* cycles, exportable as Chrome trace-event JSON
//!   ([`TraceSink::export_chrome_trace`]) for `chrome://tracing`/Perfetto.
//! * [`PhaseProfiler`] / [`PhaseTotals`] — wall-clock totals of the slice
//!   engine's phases (pool refill, simulate, bank replay, booking replay,
//!   serial commit).  Wall-clock data never feeds back into the model; it
//!   exists purely so the engine's own cost is measurable over time.
//! * [`CounterTimeline`] — a sim-time gauge sampler: named series sampled
//!   at a fixed slice interval (directory occupancy, DRAM queue depth,
//!   TLB hit rate, in-flight shootdown targets, migration dirty pages),
//!   exportable as Chrome counter events
//!   ([`CounterTimeline::export_chrome_counters`]) or CSV
//!   ([`CounterTimeline::export_csv`]).
//! * [`RemapId`] / [`CausalCost`] / [`CausalLedger`] — per-remap causal
//!   attribution: every nested-PTE remap gets an id, and every disruptive
//!   consequence (shootdown target stall, TLB/cotag invalidation,
//!   back-invalidation) is charged to the remap that caused it, so
//!   reports can answer "which 1% of remaps caused 50% of victim
//!   slowdown".
//!
//! Everything here is determinism-neutral by construction: histograms
//! count simulated quantities only, the trace sink is an append-only log
//! of simulated spans that no model code ever reads back, timelines and
//! causal ledgers only *read* model state, and the phase profiler is the
//! single sanctioned home for wall-clock measurements.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

// ---------------------------------------------------------------------------
// Latency histograms
// ---------------------------------------------------------------------------

/// Number of buckets in a [`LatencyHistogram`].  Bucket 0 holds zero-cycle
/// samples; bucket *i* (for `1 <= i < BUCKETS-1`) holds samples in
/// `[2^(i-1), 2^i)`; the top bucket saturates (everything at or above
/// `2^(BUCKETS-2)` lands there).
pub const BUCKETS: usize = 32;

/// A fixed-bucket power-of-two latency histogram.
///
/// Recording is one array increment — no allocation, no floating point —
/// so histograms can sit on the per-access hot path unconditionally.
/// Merging adds bucket counters and is order-independent, which makes the
/// per-VM histograms thread-count invariant under the parallel slice
/// engine: every worker increments its own VM's counters, and any merge
/// order produces the same totals.
///
/// ```
/// use hatric_telemetry::LatencyHistogram;
///
/// let mut h = LatencyHistogram::default();
/// for v in [1, 2, 3, 100] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 4);
/// assert!(h.p50() <= h.p99());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencyHistogram {
    counts: [u64; BUCKETS],
}

impl LatencyHistogram {
    /// The bucket index a value falls into.
    #[must_use]
    fn bucket(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            (64 - value.leading_zeros() as usize).min(BUCKETS - 1)
        }
    }

    /// The largest value a bucket can represent (the value percentile
    /// queries report for samples in that bucket).  The top bucket is
    /// saturating and reports [`u64::MAX`].
    #[must_use]
    fn bucket_upper(index: usize) -> u64 {
        if index >= BUCKETS - 1 {
            u64::MAX
        } else {
            (1u64 << index) - 1
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.counts[Self::bucket(value)] += 1;
    }

    /// Total number of samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Accumulates `other` into `self` (used when summing per-VM
    /// histograms into a host aggregate, or per-unit histograms at the
    /// commit barrier).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
    }

    /// The value at percentile `p` (in `0.0..=100.0`), reported as the
    /// upper bound of the bucket containing the rank-`p` sample — an
    /// upper estimate, never an underestimate (except in the saturating
    /// top bucket, where the true value is unbounded).  Returns 0 for an
    /// empty histogram.
    #[must_use]
    pub fn percentile(&self, p: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * total as f64).ceil().max(1.0) as u64;
        let rank = rank.min(total);
        let mut seen = 0u64;
        for (index, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return Self::bucket_upper(index);
            }
        }
        Self::bucket_upper(BUCKETS - 1)
    }

    /// The median (50th percentile).
    #[must_use]
    pub fn p50(&self) -> u64 {
        self.percentile(50.0)
    }

    /// The 99th percentile — the tail the paper's latency arguments
    /// hinge on.
    #[must_use]
    pub fn p99(&self) -> u64 {
        self.percentile(99.0)
    }
}

/// The three latency distributions the simulator tracks per VM.
///
/// All three are recorded in *simulated cycles* at the point where the
/// model computes the charge, so the histograms are as deterministic as
/// the charges themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencyStats {
    /// End-to-end nested page-table walk latency per translation miss
    /// (the full two-dimensional walk, cache hits and DRAM included).
    pub walk: LatencyHistogram,
    /// Remap/shootdown completion latency per nested-PTE write: initiator
    /// cycles plus the slowest target's invalidation, i.e. the window the
    /// remap is in flight (paper Fig. 9's per-mechanism remap cost).
    pub shootdown: LatencyHistogram,
    /// DRAM queueing delay per memory-level access: cycles spent waiting
    /// behind earlier requests at the bank and (on NUMA hosts) the
    /// inter-socket link, excluding the device access itself.
    pub dram_queue: LatencyHistogram,
}

impl LatencyStats {
    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &LatencyStats) {
        self.walk.merge(&other.walk);
        self.shootdown.merge(&other.shootdown);
        self.dram_queue.merge(&other.dram_queue);
    }
}

// ---------------------------------------------------------------------------
// Sim-time trace events
// ---------------------------------------------------------------------------

/// Well-known trace track (Chrome `tid`) assignments.
///
/// Per-CPU spans use the CPU index as their track, so within each track
/// timestamps follow that CPU's monotonically non-decreasing cycle
/// counter.  Host-level activities get dedicated tracks well above any
/// plausible CPU count.
pub mod track {
    /// Scheduler-slice spans.
    pub const SCHEDULER: u32 = 10_000;
    /// Hypervisor worker spans (migration rounds, stop-and-copy).
    pub const HYPERVISOR: u32 = 10_001;

    /// The track of physical CPU `index`.
    #[must_use]
    pub fn cpu(index: usize) -> u32 {
        index as u32
    }
}

/// One complete span: a named interval on a track, keyed by simulated
/// cycles, with a small set of integer arguments.
///
/// `name` and `cat` are static so recording a span never allocates for
/// them; only `args` allocates, and only while tracing is enabled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Span name (e.g. `"remap"`, `"precopy_round"`).
    pub name: &'static str,
    /// Category (Chrome `cat`), e.g. `"coherence"`, `"migration"`.
    pub cat: &'static str,
    /// Track (Chrome `tid`) — see [`track`].
    pub track: u32,
    /// Start of the span in simulated cycles.
    pub ts: u64,
    /// Duration of the span in simulated cycles.
    pub dur: u64,
    /// Integer arguments shown in the trace viewer's detail pane.
    pub args: Vec<(&'static str, u64)>,
}

/// A ring-buffered recorder of [`TraceEvent`]s.
///
/// The ring bounds memory on long runs: once `capacity` spans are held,
/// each new span evicts the oldest.  Export order is always insertion
/// order, and eviction is deterministic because recording order is —
/// spans reach the sink either from serial model code or from the commit
/// barrier's canonical slot-ordered merge.
#[derive(Debug)]
pub struct TraceSink {
    capacity: usize,
    events: Vec<TraceEvent>,
    /// Index of the oldest event once the ring has wrapped.
    head: usize,
    dropped: u64,
}

impl TraceSink {
    /// Creates a sink holding at most `capacity` spans (minimum 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            events: Vec::new(),
            head: 0,
            dropped: 0,
        }
    }

    /// Records one span, evicting the oldest if the ring is full.
    pub fn record(&mut self, event: TraceEvent) {
        if self.events.len() < self.capacity {
            self.events.push(event);
        } else {
            self.events[self.head] = event;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Number of spans currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the sink holds no spans.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Spans evicted because the ring was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Discards all spans (the warmup/measured boundary does this so a
    /// trace covers exactly the measured phase).
    pub fn clear(&mut self) {
        self.events.clear();
        self.head = 0;
        self.dropped = 0;
    }

    /// The held spans in insertion order (oldest first).
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events[self.head..]
            .iter()
            .chain(self.events[..self.head].iter())
    }

    /// Serialises the held spans as Chrome trace-event JSON (the
    /// `{"traceEvents": [...]}` object form), loadable in
    /// `chrome://tracing` and Perfetto.  Each span becomes one complete
    /// (`"ph":"X"`) event; simulated cycles map directly onto the
    /// viewer's microsecond axis.  The document's `metadata` object
    /// carries `droppedSpans` — the number of spans evicted because the
    /// ring wrapped — so consumers can tell a complete trace from a
    /// truncated one.
    #[must_use]
    pub fn export_chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        let mut first = true;
        self.write_events(&mut out, 0, &mut first);
        out.push_str(&format!(
            "\n],\"metadata\":{{\"droppedSpans\":{}}}}}\n",
            self.dropped
        ));
        out
    }

    /// Appends the held spans to `out` as Chrome trace-event objects under
    /// process `pid` (comma-separating from whatever `first` says precedes
    /// them).
    fn write_events(&self, out: &mut String, pid: usize, first: &mut bool) {
        for event in self.events() {
            if !*first {
                out.push_str(",\n");
            }
            *first = false;
            out.push_str(&format!(
                "  {{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{},\"args\":{{",
                event.name, event.cat, event.ts, event.dur, pid, event.track
            ));
            for (i, (key, value)) in event.args.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{key}\":{value}"));
            }
            out.push_str("}}");
        }
    }
}

/// Merges several sinks — one per cluster host — into one Chrome trace
/// document: sink `i`'s spans land under process `i` (so each host gets
/// its own process group in the viewer, with the usual per-CPU /
/// scheduler / hypervisor tracks inside), and `process_name` metadata
/// events label the groups `host0`, `host1`, ….  `droppedSpans` sums over
/// all sinks.
#[must_use]
pub fn merge_chrome_traces<'a>(sinks: impl IntoIterator<Item = &'a TraceSink>) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    let mut dropped = 0u64;
    for (pid, sink) in sinks.into_iter().enumerate() {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&format!(
            "  {{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"args\":{{\"name\":\"host{pid}\"}}}}"
        ));
        sink.write_events(&mut out, pid, &mut first);
        dropped += sink.dropped();
    }
    out.push_str(&format!(
        "\n],\"metadata\":{{\"droppedSpans\":{dropped}}}}}\n"
    ));
    out
}

// ---------------------------------------------------------------------------
// Counter timelines
// ---------------------------------------------------------------------------

/// A deterministic sim-time gauge sampler: a fixed set of named series,
/// each sampled together at a fixed scheduler-slice interval.
///
/// The host samples at the commit barrier (after a slice's effects have
/// been committed), so every sample reflects the same canonical state any
/// thread count produces — timelines are byte-identical across worker
/// thread counts, and sampling only *reads* model state so enabling it
/// never changes a single gated metric.
///
/// ```
/// use hatric_telemetry::CounterTimeline;
///
/// let mut t = CounterTimeline::new(4, vec!["occupancy", "queue"]);
/// t.record(100, &[7, 3]);
/// t.record(200, &[9, 0]);
/// assert_eq!(t.len(), 2);
/// assert!(t.export_csv().starts_with("ts,occupancy,queue\n"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterTimeline {
    interval: u64,
    series: Vec<&'static str>,
    samples: Vec<(u64, Vec<u64>)>,
}

impl CounterTimeline {
    /// Creates an empty timeline sampling every `interval` slices
    /// (minimum 1) with the given series names.
    #[must_use]
    pub fn new(interval: u64, series: Vec<&'static str>) -> Self {
        Self {
            interval: interval.max(1),
            series,
            samples: Vec::new(),
        }
    }

    /// The sampling interval in scheduler slices.
    #[must_use]
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// The series names, in column order.
    #[must_use]
    pub fn series(&self) -> &[&'static str] {
        &self.series
    }

    /// Appends one sample: the gauge value of every series at simulated
    /// time `ts`.
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` differs from the number of series.
    pub fn record(&mut self, ts: u64, values: &[u64]) {
        assert_eq!(
            values.len(),
            self.series.len(),
            "one value per series is required"
        );
        self.samples.push((ts, values.to_vec()));
    }

    /// Number of samples recorded.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The recorded samples, oldest first: `(ts, values)` with one value
    /// per series.
    #[must_use]
    pub fn samples(&self) -> &[(u64, Vec<u64>)] {
        &self.samples
    }

    /// Discards all samples (the warmup/measured boundary does this so a
    /// timeline covers exactly the measured phase).
    pub fn clear(&mut self) {
        self.samples.clear();
    }

    /// Serialises the timeline as Chrome trace-event JSON counter events
    /// (`"ph":"C"`): one event per series per sample, loadable in
    /// `chrome://tracing` and Perfetto, where each series renders as a
    /// stacked area chart over simulated time.
    #[must_use]
    pub fn export_chrome_counters(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        let mut first = true;
        for (ts, values) in &self.samples {
            for (name, value) in self.series.iter().zip(values.iter()) {
                if !first {
                    out.push_str(",\n");
                }
                first = false;
                out.push_str(&format!(
                    "  {{\"name\":\"{name}\",\"ph\":\"C\",\"ts\":{ts},\"pid\":0,\"args\":{{\"value\":{value}}}}}"
                ));
            }
        }
        out.push_str("\n]}\n");
        out
    }

    /// Serialises the timeline as CSV: a `ts,<series...>` header followed
    /// by one row per sample.
    #[must_use]
    pub fn export_csv(&self) -> String {
        let mut out = String::from("ts");
        for name in &self.series {
            out.push(',');
            out.push_str(name);
        }
        out.push('\n');
        for (ts, values) in &self.samples {
            out.push_str(&ts.to_string());
            for value in values {
                out.push(',');
                out.push_str(&value.to_string());
            }
            out.push('\n');
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Per-remap causal attribution
// ---------------------------------------------------------------------------

/// The identity of one nested-PTE remap: the host slot of the VM whose
/// hypervisor initiated it, and that VM's 1-based remap ordinal.  A fleet
/// aggregate also records the index of the host the remap ran on (see
/// [`CausalLedger::merge_from_host`]); the index is absent everywhere
/// else.
///
/// Ordinals count *per VM*, not globally: a VM's shard executes on
/// exactly one worker per slice, so its ordinal sequence is identical for
/// any thread count — which keeps attribution as deterministic as the
/// counters it explains.  Ids order by host index (absent first), then slot,
/// then ordinal.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RemapId {
    host: Option<u32>,
    /// Host slot of the initiating VM.
    pub slot: u32,
    /// 1-based ordinal among that VM's remaps.
    pub ordinal: u64,
}

impl RemapId {
    /// Builds the id of VM `slot`'s `ordinal`-th remap.
    #[must_use]
    pub fn new(slot: u32, ordinal: u64) -> Self {
        Self {
            host: None,
            slot,
            ordinal,
        }
    }

    /// Index of the host the remap ran on, in a fleet aggregate.
    #[must_use]
    pub fn host(&self) -> Option<u32> {
        self.host
    }
}

/// `RemapId { slot: .., ordinal: .. }`, with a leading `host` field only
/// when the index is present, so host-less ids print as they always have.
impl fmt::Debug for RemapId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("RemapId");
        if let Some(host) = self.host {
            d.field("host", &host);
        }
        d.field("slot", &self.slot)
            .field("ordinal", &self.ordinal)
            .finish()
    }
}

/// `vm<slot>#<ordinal>`, prefixed `h<host>/` when the host index is present.
impl fmt::Display for RemapId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(host) = self.host {
            write!(f, "h{host}/")?;
        }
        write!(f, "vm{}#{}", self.slot, self.ordinal)
    }
}

/// The disruption one remap caused, accumulated across its consequences.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CausalCost {
    /// Cycles charged to *other* VMs' occupants because of this remap
    /// (shootdown target stalls on CPUs another VM occupied).  Summed
    /// over a ledger, this reconciles exactly with the owning VM's
    /// `inflicted_cycles` interference counter.
    pub victim_cycles: u64,
    /// Coherence targets (CPUs stalled) the remap generated, disruptive
    /// or not.
    pub targets: u64,
    /// Translation entries invalidated on its behalf: selective cotag
    /// invalidations, full-flush casualties and directory
    /// back-invalidations.
    pub invalidations: u64,
}

impl CausalCost {
    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &CausalCost) {
        self.victim_cycles += other.victim_cycles;
        self.targets += other.targets;
        self.invalidations += other.invalidations;
    }
}

/// Per-remap causal costs, keyed by [`RemapId`].
///
/// Each VM owns one ledger covering the remaps *it* initiated; merging
/// per-VM ledgers into a host aggregate never collides because every key
/// carries its owner's slot, and merging host aggregates into a fleet
/// aggregate goes through [`CausalLedger::merge_from_host`], which adds the
/// host index.
///
/// The costs live in one vector sorted by id with no duplicates, so
/// iteration (and therefore `Debug` output and top-K selection
/// tie-breaks) is deterministic.  Remaps are charged mostly in creation
/// order: a charge to the newest id compares with the last entry only and
/// pushes or updates it, and an older id (a remote target charging an
/// earlier remap of the same slice) is found by binary search and inserted
/// if absent.  [`CausalLedger::merge`] is a linear two-way merge.  `Debug`
/// prints the costs as a map, `CausalLedger { costs: {id: cost, ..} }`.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct CausalLedger {
    costs: Vec<(RemapId, CausalCost)>,
}

impl fmt::Debug for CausalLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Costs<'a>(&'a [(RemapId, CausalCost)]);
        impl fmt::Debug for Costs<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_map()
                    .entries(self.0.iter().map(|(id, cost)| (id, cost)))
                    .finish()
            }
        }
        f.debug_struct("CausalLedger")
            .field("costs", &Costs(&self.costs))
            .finish()
    }
}

impl CausalLedger {
    /// Creates an empty ledger.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The cost entry of `remap`, created empty if absent.
    fn entry(&mut self, remap: RemapId) -> &mut CausalCost {
        let index = match self.costs.last() {
            Some((last, _)) if *last == remap => self.costs.len() - 1,
            Some((last, _)) if *last > remap => {
                match self.costs.binary_search_by(|(id, _)| id.cmp(&remap)) {
                    Ok(index) => index,
                    Err(index) => {
                        self.costs.insert(index, (remap, CausalCost::default()));
                        index
                    }
                }
            }
            _ => {
                self.costs.push((remap, CausalCost::default()));
                self.costs.len() - 1
            }
        };
        &mut self.costs[index].1
    }

    /// Charges `remap` with one coherence target (a CPU it stalled);
    /// whether the stall hit another VM's occupant is charged separately
    /// via [`CausalLedger::charge_victim_cycles`].
    pub fn charge_target(&mut self, remap: RemapId) {
        self.entry(remap).targets += 1;
    }

    /// Charges `remap` with `cycles` of victim stall: cycles a shootdown
    /// target burned on a CPU occupied by a *different* VM.
    pub fn charge_victim_cycles(&mut self, remap: RemapId, cycles: u64) {
        self.entry(remap).victim_cycles += cycles;
    }

    /// Charges `remap` with `entries` invalidated translation entries
    /// (selective invalidations, flush casualties or directory
    /// back-invalidations).
    pub fn charge_invalidations(&mut self, remap: RemapId, entries: u64) {
        if entries > 0 {
            self.entry(remap).invalidations += entries;
        }
    }

    /// Accumulates `other` into `self`, merging costs of identical ids.
    pub fn merge(&mut self, other: &CausalLedger) {
        self.merge_sorted(other.costs.iter().copied());
    }

    /// Accumulates the ledger of fleet host `host` into `self` (a fleet
    /// aggregate), tagging each of its ids with the host index so that
    /// equal `(slot, ordinal)` ids from different hosts stay apart.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `other` already holds host-tagged ids.
    pub fn merge_from_host(&mut self, host: u32, other: &CausalLedger) {
        debug_assert!(
            other.costs.iter().all(|(id, _)| id.host.is_none()),
            "a host ledger's ids carry no host index"
        );
        self.merge_sorted(other.costs.iter().map(|&(id, cost)| {
            (
                RemapId {
                    host: Some(host),
                    ..id
                },
                cost,
            )
        }));
    }

    /// Two-way merge of `other`, which yields ids in ascending order.
    fn merge_sorted(&mut self, other: impl ExactSizeIterator<Item = (RemapId, CausalCost)>) {
        let capacity = self.costs.len() + other.len();
        let mut mine = std::mem::replace(&mut self.costs, Vec::with_capacity(capacity))
            .into_iter()
            .peekable();
        for (id, cost) in other {
            while let Some(entry) = mine.next_if(|(m, _)| *m < id) {
                self.costs.push(entry);
            }
            let mut merged = mine
                .next_if(|(m, _)| *m == id)
                .map_or_else(CausalCost::default, |(_, c)| c);
            merged.merge(&cost);
            self.costs.push((id, merged));
        }
        self.costs.extend(mine);
    }

    /// Number of remaps with recorded costs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.costs.len()
    }

    /// Whether no costs have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.costs.is_empty()
    }

    /// Discards all recorded costs.
    pub fn clear(&mut self) {
        self.costs.clear();
    }

    /// Iterates `(id, cost)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (&RemapId, &CausalCost)> {
        self.costs.iter().map(|(id, cost)| (id, cost))
    }

    /// The sum of all per-remap costs.
    #[must_use]
    pub fn total(&self) -> CausalCost {
        let mut total = CausalCost::default();
        for (_, cost) in &self.costs {
            total.merge(cost);
        }
        total
    }

    /// The `k` remaps with the highest `victim_cycles`, most damaging
    /// first (ties broken by id order, so the ranking is deterministic).
    #[must_use]
    pub fn top_by_victim_cycles(&self, k: usize) -> Vec<(RemapId, CausalCost)> {
        let mut ranked = self.costs.clone();
        ranked.sort_by(|a, b| {
            b.1.victim_cycles
                .cmp(&a.1.victim_cycles)
                .then(a.0.cmp(&b.0))
        });
        ranked.truncate(k);
        ranked
    }
}

// ---------------------------------------------------------------------------
// Engine phase profiler (wall clock)
// ---------------------------------------------------------------------------

/// The slice engine's instrumented phases, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnginePhase {
    /// Serial frame-pool refill at the start of a slice.
    PoolRefill,
    /// Parallel per-VM simulation of the slice's shards.
    Simulate,
    /// Parallel per-bank replay of cache effects at the commit barrier.
    BankReplay,
    /// Replay of DRAM timing bookings at the commit barrier.
    BookingReplay,
    /// The serial seq-ordered pass (back-invalidations, observer writes,
    /// remote coherence targets).
    SerialCommit,
}

/// Number of instrumented phases.
pub const PHASE_COUNT: usize = 5;

impl EnginePhase {
    /// All phases, in execution order.
    pub const ALL: [EnginePhase; PHASE_COUNT] = [
        EnginePhase::PoolRefill,
        EnginePhase::Simulate,
        EnginePhase::BankReplay,
        EnginePhase::BookingReplay,
        EnginePhase::SerialCommit,
    ];

    /// Stable snake_case label (used for JSON keys).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            EnginePhase::PoolRefill => "pool_refill",
            EnginePhase::Simulate => "simulate",
            EnginePhase::BankReplay => "bank_replay",
            EnginePhase::BookingReplay => "booking_replay",
            EnginePhase::SerialCommit => "serial_commit",
        }
    }

    fn index(self) -> usize {
        match self {
            EnginePhase::PoolRefill => 0,
            EnginePhase::Simulate => 1,
            EnginePhase::BankReplay => 2,
            EnginePhase::BookingReplay => 3,
            EnginePhase::SerialCommit => 4,
        }
    }
}

/// Accumulated wall-clock time per engine phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseTotals {
    nanos: [u64; PHASE_COUNT],
    slices: u64,
}

impl PhaseTotals {
    /// Adds `duration` to `phase`'s total.
    pub fn add(&mut self, phase: EnginePhase, duration: Duration) {
        self.nanos[phase.index()] += duration.as_nanos() as u64;
    }

    /// Counts one executed slice.
    pub fn add_slice(&mut self) {
        self.slices += 1;
    }

    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &PhaseTotals) {
        for (mine, theirs) in self.nanos.iter_mut().zip(other.nanos.iter()) {
            *mine += theirs;
        }
        self.slices += other.slices;
    }

    /// Total nanoseconds spent in `phase`.
    #[must_use]
    pub fn nanos(&self, phase: EnginePhase) -> u64 {
        self.nanos[phase.index()]
    }

    /// Total milliseconds spent in `phase`.
    #[must_use]
    pub fn millis(&self, phase: EnginePhase) -> f64 {
        self.nanos(phase) as f64 / 1e6
    }

    /// Slices executed while profiling.
    #[must_use]
    pub fn slices(&self) -> u64 {
        self.slices
    }
}

/// Process-wide phase totals, accumulated across every engine instance.
/// The bench/scenario writers read these to stamp phase totals into their
/// JSON `meta` blocks without threading profiler state through every
/// layer.  Wall-clock only — nothing in the model ever reads them.
static GLOBAL_PHASE_NANOS: [AtomicU64; PHASE_COUNT] = [
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
];
static GLOBAL_SLICES: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the process-wide phase totals accumulated so far.
#[must_use]
pub fn global_phase_totals() -> PhaseTotals {
    let mut totals = PhaseTotals::default();
    for phase in EnginePhase::ALL {
        totals.nanos[phase.index()] = GLOBAL_PHASE_NANOS[phase.index()].load(Ordering::Relaxed);
    }
    totals.slices = GLOBAL_SLICES.load(Ordering::Relaxed);
    totals
}

/// Wall-clock profiler one engine instance owns: every recorded duration
/// lands both in the instance's local [`PhaseTotals`] and in the
/// process-wide totals ([`global_phase_totals`]).
#[derive(Debug, Default)]
pub struct PhaseProfiler {
    local: PhaseTotals,
}

impl PhaseProfiler {
    /// Records `duration` against `phase`.
    pub fn record(&mut self, phase: EnginePhase, duration: Duration) {
        self.local.add(phase, duration);
        GLOBAL_PHASE_NANOS[phase.index()].fetch_add(duration.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Counts one executed slice.
    pub fn record_slice(&mut self) {
        self.local.add_slice();
        GLOBAL_SLICES.fetch_add(1, Ordering::Relaxed);
    }

    /// This instance's accumulated totals.
    #[must_use]
    pub fn totals(&self) -> &PhaseTotals {
        &self.local
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zero_everywhere() {
        let h = LatencyHistogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p99(), 0);
        assert_eq!(h.percentile(100.0), 0);
    }

    #[test]
    fn single_sample_lands_in_its_power_of_two_bucket() {
        let mut h = LatencyHistogram::default();
        h.record(100); // 2^6 <= 100 < 2^7 -> bucket 7, upper bound 127
        assert_eq!(h.count(), 1);
        assert_eq!(h.p50(), 127);
        assert_eq!(h.p99(), 127);
        assert_eq!(h.percentile(0.0), 127, "rank clamps to the first sample");
    }

    #[test]
    fn zero_samples_have_their_own_bucket() {
        let mut h = LatencyHistogram::default();
        h.record(0);
        h.record(1);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p99(), 1);
    }

    #[test]
    fn top_bucket_saturates() {
        let mut h = LatencyHistogram::default();
        h.record(u64::MAX);
        h.record(1u64 << 62);
        h.record(1u64 << 31); // also >= 2^31, saturates
        assert_eq!(h.count(), 3);
        assert_eq!(h.p50(), u64::MAX, "saturated samples report the open bound");
    }

    #[test]
    fn percentiles_walk_the_cumulative_distribution() {
        let mut h = LatencyHistogram::default();
        for _ in 0..90 {
            h.record(3); // bucket 2, upper 3
        }
        for _ in 0..10 {
            h.record(1000); // bucket 10, upper 1023
        }
        assert_eq!(h.p50(), 3);
        assert_eq!(h.percentile(90.0), 3);
        assert_eq!(h.p99(), 1023);
        assert_eq!(h.percentile(100.0), 1023);
    }

    #[test]
    fn merge_adds_bucket_counts() {
        let mut a = LatencyHistogram::default();
        let mut b = LatencyHistogram::default();
        a.record(5);
        b.record(5);
        b.record(500);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        let mut c = LatencyHistogram::default();
        c.record(5);
        c.record(5);
        c.record(500);
        assert_eq!(a, c, "merge must equal recording the union");
    }

    #[test]
    fn latency_stats_merge_fieldwise() {
        let mut a = LatencyStats::default();
        let mut b = LatencyStats::default();
        a.walk.record(10);
        b.shootdown.record(20);
        b.dram_queue.record(30);
        a.merge(&b);
        assert_eq!(a.walk.count(), 1);
        assert_eq!(a.shootdown.count(), 1);
        assert_eq!(a.dram_queue.count(), 1);
    }

    fn span(name: &'static str, ts: u64) -> TraceEvent {
        TraceEvent {
            name,
            cat: "test",
            track: 0,
            ts,
            dur: 1,
            args: vec![("k", ts)],
        }
    }

    #[test]
    fn ring_keeps_the_newest_events_in_order() {
        let mut sink = TraceSink::new(3);
        for ts in 0..5 {
            sink.record(span("e", ts));
        }
        assert_eq!(sink.len(), 3);
        assert_eq!(sink.dropped(), 2);
        let ts: Vec<u64> = sink.events().map(|e| e.ts).collect();
        assert_eq!(ts, vec![2, 3, 4]);
        sink.clear();
        assert!(sink.is_empty());
        assert_eq!(sink.dropped(), 0);
    }

    #[test]
    fn chrome_export_has_the_expected_shape() {
        let mut sink = TraceSink::new(8);
        sink.record(span("alpha", 10));
        sink.record(TraceEvent {
            args: Vec::new(),
            ..span("beta", 20)
        });
        let json = sink.export_chrome_trace();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"alpha\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"args\":{\"k\":10}"));
        assert!(json.contains("\"args\":{}"));
        assert!(json
            .trim_end()
            .ends_with("],\"metadata\":{\"droppedSpans\":0}}"));
    }

    #[test]
    fn chrome_export_metadata_reports_dropped_spans() {
        let mut sink = TraceSink::new(2);
        for ts in 0..5 {
            sink.record(span("e", ts));
        }
        let json = sink.export_chrome_trace();
        assert!(json
            .trim_end()
            .ends_with("\"metadata\":{\"droppedSpans\":3}}"));
    }

    #[test]
    fn timeline_records_and_exports_csv() {
        let mut t = CounterTimeline::new(0, vec!["a", "b"]);
        assert_eq!(t.interval(), 1, "interval clamps to at least 1");
        assert!(t.is_empty());
        t.record(10, &[1, 2]);
        t.record(20, &[3, 4]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.samples()[1], (20, vec![3, 4]));
        assert_eq!(t.export_csv(), "ts,a,b\n10,1,2\n20,3,4\n");
        t.clear();
        assert!(t.is_empty());
    }

    #[test]
    fn timeline_chrome_counters_are_well_formed() {
        let mut t = CounterTimeline::new(8, vec!["occ", "queue"]);
        t.record(100, &[7, 0]);
        let json = t.export_chrome_counters();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert_eq!(json.matches("\"ph\":\"C\"").count(), 2);
        assert!(json.contains(
            "{\"name\":\"occ\",\"ph\":\"C\",\"ts\":100,\"pid\":0,\"args\":{\"value\":7}}"
        ));
        assert!(json.contains(
            "{\"name\":\"queue\",\"ph\":\"C\",\"ts\":100,\"pid\":0,\"args\":{\"value\":0}}"
        ));
        assert!(json.trim_end().ends_with("]}"));
    }

    #[test]
    #[should_panic(expected = "one value per series")]
    fn timeline_rejects_mismatched_sample_width() {
        let mut t = CounterTimeline::new(1, vec!["a", "b"]);
        t.record(0, &[1]);
    }

    #[test]
    fn causal_ledger_accumulates_merges_and_ranks() {
        let early = RemapId::new(0, 1);
        let late = RemapId::new(0, 2);
        let other_vm = RemapId::new(1, 1);
        assert_eq!(early.to_string(), "vm0#1");
        let mut a = CausalLedger::new();
        a.charge_target(early);
        a.charge_victim_cycles(early, 100);
        a.charge_invalidations(early, 4);
        a.charge_invalidations(early, 0); // no-op, must not create churn
        a.charge_target(late);
        a.charge_victim_cycles(late, 900);
        let mut b = CausalLedger::new();
        b.charge_victim_cycles(other_vm, 900);
        b.charge_victim_cycles(early, 50);
        a.merge(&b);
        assert_eq!(a.len(), 3);
        let total = a.total();
        assert_eq!(total.victim_cycles, 1950);
        assert_eq!(total.targets, 2);
        assert_eq!(total.invalidations, 4);
        let top = a.top_by_victim_cycles(2);
        assert_eq!(top.len(), 2);
        // 900-cycle tie between vm0#2 and vm1#1 breaks by id order.
        assert_eq!(top[0].0, late);
        assert_eq!(top[1].0, other_vm);
        a.clear();
        assert!(a.is_empty());
        assert_eq!(a.total(), CausalCost::default());
    }

    #[test]
    fn phase_totals_accumulate_and_merge() {
        let mut a = PhaseTotals::default();
        a.add(EnginePhase::Simulate, Duration::from_nanos(500));
        a.add_slice();
        let mut b = PhaseTotals::default();
        b.add(EnginePhase::Simulate, Duration::from_nanos(250));
        b.add(EnginePhase::SerialCommit, Duration::from_nanos(100));
        a.merge(&b);
        assert_eq!(a.nanos(EnginePhase::Simulate), 750);
        assert_eq!(a.nanos(EnginePhase::SerialCommit), 100);
        assert_eq!(a.nanos(EnginePhase::PoolRefill), 0);
        assert_eq!(a.slices(), 1);
        assert!((a.millis(EnginePhase::Simulate) - 0.00075).abs() < 1e-12);
    }

    #[test]
    fn profiler_feeds_local_and_global_totals() {
        let before = global_phase_totals();
        let mut profiler = PhaseProfiler::default();
        profiler.record(EnginePhase::BankReplay, Duration::from_nanos(42));
        profiler.record_slice();
        assert_eq!(profiler.totals().nanos(EnginePhase::BankReplay), 42);
        let after = global_phase_totals();
        assert!(after.nanos(EnginePhase::BankReplay) >= before.nanos(EnginePhase::BankReplay) + 42);
        assert!(after.slices() > before.slices());
    }

    #[test]
    fn phase_labels_are_stable_snake_case() {
        let labels: Vec<&str> = EnginePhase::ALL.iter().map(|p| p.label()).collect();
        assert_eq!(
            labels,
            vec![
                "pool_refill",
                "simulate",
                "bank_replay",
                "booking_replay",
                "serial_commit"
            ]
        );
    }

    /// The `BTreeMap` ledger [`CausalLedger`] replaced, kept as the oracle
    /// of the flat representation (same type name, so `Debug` output can
    /// be compared string for string).
    mod reference {
        use std::collections::BTreeMap;

        use super::{CausalCost, RemapId};

        #[derive(Debug, Default)]
        pub struct CausalLedger {
            pub costs: BTreeMap<RemapId, CausalCost>,
        }

        impl CausalLedger {
            pub fn charge_target(&mut self, remap: RemapId) {
                self.costs.entry(remap).or_default().targets += 1;
            }

            pub fn charge_victim_cycles(&mut self, remap: RemapId, cycles: u64) {
                self.costs.entry(remap).or_default().victim_cycles += cycles;
            }

            pub fn charge_invalidations(&mut self, remap: RemapId, entries: u64) {
                if entries > 0 {
                    self.costs.entry(remap).or_default().invalidations += entries;
                }
            }

            pub fn merge(&mut self, other: &CausalLedger) {
                for (id, cost) in &other.costs {
                    self.costs.entry(*id).or_default().merge(cost);
                }
            }

            pub fn total(&self) -> CausalCost {
                let mut total = CausalCost::default();
                for cost in self.costs.values() {
                    total.merge(cost);
                }
                total
            }

            pub fn top_by_victim_cycles(&self, k: usize) -> Vec<(RemapId, CausalCost)> {
                let mut ranked: Vec<(RemapId, CausalCost)> =
                    self.costs.iter().map(|(id, c)| (*id, *c)).collect();
                ranked.sort_by(|a, b| {
                    b.1.victim_cycles
                        .cmp(&a.1.victim_cycles)
                        .then(a.0.cmp(&b.0))
                });
                ranked.truncate(k);
                ranked
            }
        }
    }

    /// SplitMix64: a seeded stream for the differential tests.
    fn split_mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Applies the same seeded, mostly-ascending, partly out-of-order
    /// charges to both ledgers: each VM slot's ordinal creeps upwards, and
    /// about one charge in four goes to an older remap of that slot.
    fn charge_both(
        seed: u64,
        slots: u32,
        charges: usize,
        flat: &mut CausalLedger,
        oracle: &mut reference::CausalLedger,
    ) {
        let mut rng = seed;
        let mut newest = vec![1u64; slots as usize];
        for _ in 0..charges {
            let slot = (split_mix(&mut rng) % u64::from(slots)) as u32;
            let r = split_mix(&mut rng);
            if r.is_multiple_of(3) {
                newest[slot as usize] += 1 + r % 2;
            }
            let ordinal = if r % 4 == 1 {
                1 + split_mix(&mut rng) % newest[slot as usize]
            } else {
                newest[slot as usize]
            };
            let id = RemapId::new(slot, ordinal);
            let amount = split_mix(&mut rng) % 5_000;
            match split_mix(&mut rng) % 3 {
                0 => {
                    flat.charge_target(id);
                    oracle.charge_target(id);
                }
                1 => {
                    flat.charge_victim_cycles(id, amount);
                    oracle.charge_victim_cycles(id, amount);
                }
                _ => {
                    // Zero-entry charges are no-ops in both.
                    flat.charge_invalidations(id, amount % 3);
                    oracle.charge_invalidations(id, amount % 3);
                }
            }
        }
    }

    fn assert_same(flat: &CausalLedger, oracle: &reference::CausalLedger, context: &str) {
        let flat_entries: Vec<(RemapId, CausalCost)> = flat.iter().map(|(i, c)| (*i, *c)).collect();
        let oracle_entries: Vec<(RemapId, CausalCost)> =
            oracle.costs.iter().map(|(i, c)| (*i, *c)).collect();
        assert_eq!(flat_entries, oracle_entries, "{context}: iter");
        assert_eq!(flat.len(), oracle.costs.len(), "{context}: len");
        assert_eq!(flat.total(), oracle.total(), "{context}: total");
        for k in [0, 1, 3, 1_000] {
            assert_eq!(
                flat.top_by_victim_cycles(k),
                oracle.top_by_victim_cycles(k),
                "{context}: top {k}"
            );
        }
        assert_eq!(
            format!("{flat:?}"),
            format!("{oracle:?}"),
            "{context}: Debug"
        );
        assert_eq!(
            format!("{flat:#?}"),
            format!("{oracle:#?}"),
            "{context}: Debug"
        );
    }

    #[test]
    fn flat_ledger_matches_the_btree_reference() {
        for seed in 0..40u64 {
            let mut flat = CausalLedger::new();
            let mut oracle = reference::CausalLedger::default();
            charge_both(seed, 3, 400, &mut flat, &mut oracle);
            assert_same(&flat, &oracle, &format!("seed {seed}"));

            // Merges of interleaved ledgers: overlapping slots and ordinals.
            let mut other = CausalLedger::new();
            let mut other_oracle = reference::CausalLedger::default();
            charge_both(seed + 1_000, 4, 300, &mut other, &mut other_oracle);
            flat.merge(&other);
            oracle.merge(&other_oracle);
            assert_same(&flat, &oracle, &format!("seed {seed} merged"));
            // Merging into an empty ledger and merging an empty one.
            let mut empty = CausalLedger::new();
            empty.merge(&flat);
            assert_eq!(empty, flat);
            flat.merge(&CausalLedger::new());
            assert_same(&flat, &oracle, &format!("seed {seed} merged empty"));
        }
    }

    #[test]
    fn host_merges_keep_equal_ids_of_different_hosts_apart() {
        let mut hosts = [CausalLedger::new(), CausalLedger::new()];
        for host in &mut hosts {
            host.charge_victim_cycles(RemapId::new(0, 1), 10);
            host.charge_target(RemapId::new(1, 2));
        }
        hosts[1].charge_victim_cycles(RemapId::new(0, 1), 5);
        let mut fleet = CausalLedger::new();
        for (index, host) in hosts.iter().enumerate() {
            fleet.merge_from_host(index as u32, host);
        }
        assert_eq!(fleet.len(), 4, "one entry per (host, slot, ordinal)");
        let top = fleet.top_by_victim_cycles(1);
        assert_eq!(top[0].0.host(), Some(1));
        assert_eq!(top[0].0.to_string(), "h1/vm0#1");
        assert_eq!(
            format!("{:?}", top[0].0),
            "RemapId { host: 1, slot: 0, ordinal: 1 }"
        );
        // Host-less ids print exactly as before.
        assert_eq!(RemapId::new(0, 1).to_string(), "vm0#1");
        assert_eq!(
            format!("{:?}", RemapId::new(0, 1)),
            "RemapId { slot: 0, ordinal: 1 }"
        );
        // Host order first, then slot, then ordinal.
        let ids: Vec<String> = fleet.iter().map(|(id, _)| id.to_string()).collect();
        assert_eq!(ids, ["h0/vm0#1", "h0/vm1#2", "h1/vm0#1", "h1/vm1#2"]);
    }
}
