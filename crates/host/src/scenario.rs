//! The unified scenario layer: **one trait, one registry, one report
//! schema** for every experiment the simulator runs.
//!
//! The paper's evaluation — and everything this reproduction grew beyond it
//! — is a matrix of *scenarios*: a declarative description of a machine and
//! a sweep, executed under every translation-coherence mechanism, yielding
//! labelled rows of metrics.  Before this module each experiment family
//! invented its own `*Params`/`*Row` structs, its own `run()` free function
//! and its own JSON shape; adding a scenario meant wiring five call sites.
//! Now adding a scenario is implementing [`Scenario`] and adding one line
//! to [`registry`]:
//!
//! * [`Scale`] replaces the ad-hoc warmup/measured/accesses knobs each
//!   runner used to duplicate: `Smoke` (seconds, for tests and CI), `Bench`
//!   (the committed-baseline scale the `BENCH_*.json` trajectories are
//!   recorded at) and `Full` (longer steady state).
//! * [`Params`] is an ordered key→value map of the scenario's tunable
//!   sizing, serialisable and overridable from the `scenarios` CLI; unknown
//!   keys are rejected with a typed [`ConfigError`].  Each scenario family
//!   declares its keys once, in one parameter table over its typed sizing
//!   (`sizing!`), which both renders the defaults and parses overrides.
//! * [`Probe`] is the one representative run a scenario's traces and
//!   counter timelines magnify ([`Scenario::probe`]).
//! * [`ScenarioReport`] is the one output schema: labelled
//!   `(config, mechanism) → metrics` [`Row`]s whose JSON form is exactly
//!   the `BENCH_*.json` format the benches have always committed — the
//!   migration onto this API left the baselines byte-identical.
//! * [`Scenario::claims`] declares what a scenario's rows must show, as
//!   data; [`crate::check`] evaluates it, and [`Scenario::run`] only runs.
//!
//! ```
//! use hatric_host::scenario::{find, Params, Scale};
//!
//! let scenario = find("multivm").expect("multivm is registered");
//! let report = scenario
//!     .run(&Params::new(), Scale::Smoke)
//!     .expect("default parameters are valid");
//! assert!(!report.rows.is_empty());
//! assert_eq!(report.scenario, "multivm");
//! ```

use std::time::Instant;

use hatric::experiments::{execute, execute_mix, execute_traced, ExperimentParams, RunSpec};
use hatric::metrics::{HostReport, SimReport};
use hatric::telemetry::{global_phase_totals, CounterTimeline, EnginePhase};
use hatric::{HypervisorKind, MemoryMode, PagingKnobs, SpecMix, SystemConfig, WorkloadKind};
use hatric_cluster::{Cluster, ClusterReport, PlacementPolicy};
use hatric_coherence::CoherenceMechanism::{Hatric, Software};
use hatric_coherence::{CoherenceMechanism, DesignVariant};
use hatric_hypervisor::{NumaPolicy, SchedPolicy};
use hatric_types::ConfigError;

use crate::check::{Bound, Claim, Cmp, Of};
use crate::config::HostConfig;
use crate::experiments::{
    ClusterChurnParams, ClusterFaultsParams, HostScaleParams, MigrationStormParams, MultiVmParams,
    NumaContentionParams,
};
use crate::host::ConsolidatedHost;

// ---------------------------------------------------------------------------
// Scale
// ---------------------------------------------------------------------------

/// How big a scenario run is.  One knob replaces the per-runner
/// warmup/measured/accesses triplets: every scenario maps each scale to a
/// concrete sizing via its `default_params`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-scale sizing for tests and CI smoke runs.
    Smoke,
    /// The committed-baseline scale: exactly what the `BENCH_*.json`
    /// trajectory files are recorded at and `scenarios check` re-runs.
    Bench,
    /// Longer steady state than [`Scale::Bench`] (double the warmup and
    /// measured phases) for when noise matters more than wall clock.
    Full,
}

impl Scale {
    /// Parses a CLI scale label.
    #[must_use]
    pub fn parse(text: &str) -> Option<Self> {
        match text {
            "smoke" => Some(Scale::Smoke),
            "bench" => Some(Scale::Bench),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }

    /// The CLI label of this scale.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Scale::Smoke => "smoke",
            Scale::Bench => "bench",
            Scale::Full => "full",
        }
    }
}

// ---------------------------------------------------------------------------
// Params
// ---------------------------------------------------------------------------

/// An ordered key→value parameter map: the declarative, serialisable form
/// of a scenario's sizing.  Scenarios publish their full key set via
/// [`Scenario::default_params`]; callers override a subset (CLI
/// `--set key=value`), and unknown keys fail with
/// [`ConfigError::UnknownParam`] instead of being silently ignored.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Params {
    entries: Vec<(String, String)>,
}

impl Params {
    /// An empty parameter set (every key falls back to the scenario's
    /// default at the requested scale).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets `key` to `value`, replacing an existing entry in place so key
    /// order stays stable.
    pub fn set(&mut self, key: &str, value: impl ToString) {
        let value = value.to_string();
        match self.entries.iter_mut().find(|(k, _)| k == key) {
            Some(entry) => entry.1 = value,
            None => self.entries.push((key.to_string(), value)),
        }
    }

    /// Builder-style [`Params::set`].
    #[must_use]
    pub fn with(mut self, key: &str, value: impl ToString) -> Self {
        self.set(key, value);
        self
    }

    /// Looks up a key.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&str> {
        self.entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The entries in insertion order.
    #[must_use]
    pub fn entries(&self) -> &[(String, String)] {
        &self.entries
    }

    /// Parses `key` as a `u64`.
    ///
    /// # Errors
    ///
    /// [`ConfigError::UnknownParam`] if the key is absent,
    /// [`ConfigError::BadValue`] if it does not parse.
    pub fn u64(&self, key: &str) -> Result<u64, ConfigError> {
        let value = self.get(key).ok_or_else(|| ConfigError::UnknownParam {
            key: key.to_string(),
        })?;
        value.parse().map_err(|_| ConfigError::BadValue {
            key: key.to_string(),
            value: value.to_string(),
        })
    }

    /// Serialises the parameters as one flat JSON object with string
    /// values (the same minimal dialect [`parse_json_records`] reads back).
    #[must_use]
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .entries
            .iter()
            .map(|(k, v)| format!("\"{k}\":\"{v}\""))
            .collect();
        format!("{{{}}}", fields.join(","))
    }

    /// Parses a parameter set back out of [`Params::to_json`] output.
    /// Returns `None` if the text contains no object.
    #[must_use]
    pub fn from_json(text: &str) -> Option<Self> {
        let records = parse_json_records(text);
        let entries = records.into_iter().next()?;
        Some(Self { entries })
    }
}

// ---------------------------------------------------------------------------
// Metric / Row / ScenarioReport
// ---------------------------------------------------------------------------

/// One metric value in a report row.  The JSON rendering is fixed per
/// variant — counts print bare, ratios with six decimals — so regenerated
/// baselines stay byte-identical run to run.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// A textual label.
    Text(String),
    /// An integral count (cycles, remaps, IPIs…).
    Count(u64),
    /// A real-valued ratio (slowdowns, locality fractions…), rendered with
    /// six decimal places.
    Ratio(f64),
}

impl Metric {
    /// The numeric value, if this metric is numeric.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Metric::Text(_) => None,
            Metric::Count(v) => Some(*v as f64),
            Metric::Ratio(v) => Some(*v),
        }
    }

    fn render_json(&self) -> String {
        match self {
            Metric::Text(v) => format!("\"{v}\""),
            Metric::Count(v) => format!("{v}"),
            Metric::Ratio(v) => format!("{v:.6}"),
        }
    }

    fn render_plain(&self) -> String {
        match self {
            Metric::Text(v) => v.clone(),
            Metric::Count(v) => format!("{v}"),
            Metric::Ratio(v) => format!("{v:.6}"),
        }
    }
}

/// One labelled `(config, mechanism) → metrics` row of a scenario report.
///
/// The first field is the scenario's configuration label under its
/// scenario-specific key (`pressure`, `scenario`, `config`, …), the second
/// is always `mechanism`; metric fields follow in insertion order.  The
/// JSON form is exactly one `BENCH_*.json` record.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    fields: Vec<(String, Metric)>,
}

impl Row {
    /// A row labelled `label` (under `label_key`) for `mechanism`.
    #[must_use]
    pub fn new(label_key: &str, label: &str, mechanism: &str) -> Self {
        Self {
            fields: vec![
                (label_key.to_string(), Metric::Text(label.to_string())),
                ("mechanism".to_string(), Metric::Text(mechanism.to_string())),
            ],
        }
    }

    /// Appends an integral metric.
    #[must_use]
    pub fn count(mut self, key: &str, value: u64) -> Self {
        self.fields.push((key.to_string(), Metric::Count(value)));
        self
    }

    /// Appends a textual metric (beyond the label and mechanism fields the
    /// constructor installs — e.g. an attribution column naming a remap).
    #[must_use]
    pub fn text(mut self, key: &str, value: &str) -> Self {
        self.fields
            .push((key.to_string(), Metric::Text(value.to_string())));
        self
    }

    /// Appends a ratio metric.
    #[must_use]
    pub fn ratio(mut self, key: &str, value: f64) -> Self {
        self.fields.push((key.to_string(), Metric::Ratio(value)));
        self
    }

    /// The key the configuration label is stored under.
    #[must_use]
    pub fn label_key(&self) -> &str {
        &self.fields[0].0
    }

    /// The configuration label (sweep point) of this row.
    #[must_use]
    pub fn label(&self) -> &str {
        match &self.fields[0].1 {
            Metric::Text(v) => v,
            _ => unreachable!("row labels are always text"),
        }
    }

    /// The translation-coherence mechanism of this row.
    #[must_use]
    pub fn mechanism(&self) -> &str {
        match &self.fields[1].1 {
            Metric::Text(v) => v,
            _ => unreachable!("mechanisms are always text"),
        }
    }

    /// Looks up a metric by key.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Metric> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Looks up a numeric metric by key.
    #[must_use]
    pub fn number(&self, key: &str) -> Option<f64> {
        self.get(key).and_then(Metric::as_f64)
    }

    /// All fields in order (label, mechanism, then metrics).
    #[must_use]
    pub fn fields(&self) -> &[(String, Metric)] {
        &self.fields
    }

    /// This row as one flat JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("\"{k}\":{}", v.render_json()))
            .collect();
        format!("{{{}}}", fields.join(","))
    }
}

/// The uniform outcome of any scenario run: the scenario's name plus its
/// labelled rows.  [`ScenarioReport::to_json`] is the *exact* array format
/// every `BENCH_*.json` trajectory file has always used, so regenerating a
/// baseline through this API is byte-identical to the legacy writers.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    /// Registry name of the scenario that produced the rows.
    pub scenario: String,
    /// One row per (configuration label, mechanism).
    pub rows: Vec<Row>,
}

impl ScenarioReport {
    /// An empty report for `scenario`.
    #[must_use]
    pub fn new(scenario: &str) -> Self {
        Self {
            scenario: scenario.to_string(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn push(&mut self, row: Row) {
        self.rows.push(row);
    }

    /// Finds the row for a (label, mechanism) pair.
    #[must_use]
    pub fn find(&self, label: &str, mechanism: &str) -> Option<&Row> {
        self.rows
            .iter()
            .find(|r| r.label() == label && r.mechanism() == mechanism)
    }

    /// The distinct configuration labels, in first-appearance order.
    #[must_use]
    pub fn labels(&self) -> Vec<&str> {
        let mut labels: Vec<&str> = Vec::new();
        for row in &self.rows {
            if !labels.contains(&row.label()) {
                labels.push(row.label());
            }
        }
        labels
    }

    /// Serialises the rows as the `BENCH_*.json` array format (two-space
    /// indented records, one per line, trailing newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|r| format!("  {}", r.to_json()))
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }

    /// Parses a report back out of [`ScenarioReport::to_json`] output.
    /// Values that were quoted come back as [`Metric::Text`]; bare integers
    /// as [`Metric::Count`]; anything else numeric as [`Metric::Ratio`] —
    /// so `to_json → from_json → to_json` is byte-stable.  Returns `None`
    /// if no records parse or a record does not have the row shape (a
    /// textual label followed by a textual `mechanism` field).  A trailing
    /// `"meta"` environment record (what [`bench_meta_json`] renders and
    /// the JSON writers append) is skipped, not parsed as a row.
    #[must_use]
    pub fn from_json(scenario: &str, text: &str) -> Option<Self> {
        let mut rows = Vec::new();
        for record in parse_typed_records(text) {
            if record.first().is_some_and(|(key, _)| key == "meta") {
                continue;
            }
            let has_row_shape = record.len() >= 2
                && matches!(record[0].1, Metric::Text(_))
                && record[1].0 == "mechanism"
                && matches!(record[1].1, Metric::Text(_));
            if !has_row_shape {
                return None;
            }
            rows.push(Row { fields: record });
        }
        if rows.is_empty() {
            return None;
        }
        Some(Self {
            scenario: scenario.to_string(),
            rows,
        })
    }

    /// Formats the report as an aligned text table (header = field keys of
    /// the first row, one line per row; rows missing a metric print `-`).
    #[must_use]
    pub fn format_table(&self) -> String {
        let mut keys: Vec<&str> = Vec::new();
        for row in &self.rows {
            for (key, _) in &row.fields {
                if !keys.iter().any(|k| k == key) {
                    keys.push(key);
                }
            }
        }
        let mut cells: Vec<Vec<String>> = vec![keys.iter().map(ToString::to_string).collect()];
        for row in &self.rows {
            cells.push(
                keys.iter()
                    .map(|k| {
                        row.get(k)
                            .map_or_else(|| "-".to_string(), Metric::render_plain)
                    })
                    .collect(),
            );
        }
        let widths: Vec<usize> = keys
            .iter()
            .enumerate()
            .map(|(i, _)| cells.iter().map(|r| r[i].len()).max().unwrap_or(0))
            .collect();
        let mut out = format!("scenario: {}\n", self.scenario);
        for row in &cells {
            let line: Vec<String> = row
                .iter()
                .zip(widths.iter().copied())
                .map(|(cell, w)| format!("{cell:<w$}"))
                .collect();
            out.push_str(line.join("  ").trim_end());
            out.push('\n');
        }
        out
    }
}

// ---------------------------------------------------------------------------
// JSON record parsing (shared with the bench harness)
// ---------------------------------------------------------------------------

/// Parses the flat JSON record arrays this workspace emits (arrays of
/// objects whose values are strings or numbers — no nesting, no escapes)
/// into one key→value map per record.  The build environment has no
/// `serde_json`, and callers only read files this same code wrote, so a
/// minimal parser is the honest tool.
///
/// Unparseable input yields an empty vector rather than an error: the
/// bench regression gate treats that as "no baseline".
#[must_use]
pub fn parse_json_records(text: &str) -> Vec<Vec<(String, String)>> {
    parse_records_with(text, |_, value| value.trim_matches('"').to_string())
}

/// Like [`parse_json_records`] but keeps the value type: quoted values come
/// back as [`Metric::Text`], bare integers as [`Metric::Count`], other
/// numerics as [`Metric::Ratio`].
fn parse_typed_records(text: &str) -> Vec<Vec<(String, Metric)>> {
    parse_records_with(text, |_, value| {
        if value.starts_with('"') {
            Metric::Text(value.trim_matches('"').to_string())
        } else if let Ok(count) = value.parse::<u64>() {
            Metric::Count(count)
        } else if let Ok(ratio) = value.parse::<f64>() {
            Metric::Ratio(ratio)
        } else {
            Metric::Text(value.to_string())
        }
    })
}

fn parse_records_with<T>(
    text: &str,
    mut convert: impl FnMut(&str, &str) -> T,
) -> Vec<Vec<(String, T)>> {
    let mut records = Vec::new();
    let mut rest = text;
    while let Some(open) = rest.find('{') {
        let Some(close) = rest[open..].find('}') else {
            break;
        };
        let body = &rest[open + 1..open + close];
        let mut fields = Vec::new();
        for pair in body.split(',') {
            let Some((key, value)) = pair.split_once(':') else {
                continue;
            };
            let key = key.trim().trim_matches('"');
            let value = value.trim();
            if !key.is_empty() {
                fields.push((key.to_string(), convert(key, value)));
            }
        }
        records.push(fields);
        rest = &rest[open + close + 1..];
    }
    records
}

/// Looks up `key` in a record parsed by [`parse_json_records`].
#[must_use]
pub fn record_field<'a>(record: &'a [(String, String)], key: &str) -> Option<&'a str> {
    record
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
}

// ---------------------------------------------------------------------------
// Parameter tables
// ---------------------------------------------------------------------------

/// One typed field of a sizing, as its parameter table sees it: rendered
/// into a [`Params`] value and parsed back out of one.
trait Field {
    fn render(&self) -> String;

    /// Parses `text` into `self`; returns `false`, leaving `self` as it
    /// was, if `text` does not parse.
    fn assign(&mut self, text: &str) -> bool;
}

macro_rules! parsed_fields {
    ($($ty:ty),*) => {$(
        impl Field for $ty {
            fn render(&self) -> String {
                self.to_string()
            }

            fn assign(&mut self, text: &str) -> bool {
                text.parse().map(|value| *self = value).is_ok()
            }
        }
    )*};
}

parsed_fields!(u32, u64, usize, f64);

impl Field for PlacementPolicy {
    fn render(&self) -> String {
        self.label().to_string()
    }

    fn assign(&mut self, text: &str) -> bool {
        PlacementPolicy::parse(text)
            .map(|policy| *self = policy)
            .is_ok()
    }
}

/// A scenario family's typed sizing together with its one parameter table:
/// the ordered list of keys, each bound to the field of the same name.
/// [`Scenario::default_params`] renders the table from the sizing at a
/// [`Scale`]; parsing overlays a [`Params`] onto that same sizing, so the
/// key list, the defaults and the parser cannot drift apart.
trait Sizing: Sized {
    /// The sizing at [`Scale::Smoke`].
    fn smoke() -> Self;

    /// The sizing at [`Scale::Bench`].
    fn bench() -> Self;

    /// The sizing at [`Scale::Full`].
    fn full() -> Self {
        doubled(Self::bench())
    }

    /// The warmup and measured phase lengths.
    fn phases(&mut self) -> [&mut u64; 2];

    /// Visits every parameter, key and typed field, in key order.
    fn table(&mut self, visit: &mut dyn FnMut(&'static str, &mut dyn Field));

    /// Rejects sizings the runners would panic on.
    fn validate(&self) -> Result<(), ConfigError> {
        Ok(())
    }

    fn render(mut self) -> Params {
        let mut params = Params::new();
        self.table(&mut |key, field| params.set(key, field.render()));
        params
    }

    /// The sizing at `scale` with `overrides` applied and validated.
    fn parse(overrides: &Params, scale: Scale) -> Result<Self, ConfigError> {
        let mut sizing = match scale {
            Scale::Smoke => Self::smoke(),
            Scale::Bench => Self::bench(),
            Scale::Full => Self::full(),
        };
        for (key, value) in overrides.entries() {
            let mut parsed = None;
            sizing.table(&mut |k, field| {
                if k == key {
                    parsed = Some(field.assign(value));
                }
            });
            match parsed {
                None => return Err(ConfigError::UnknownParam { key: key.clone() }),
                Some(false) => {
                    return Err(ConfigError::BadValue {
                        key: key.clone(),
                        value: value.clone(),
                    })
                }
                Some(true) => {}
            }
        }
        sizing.validate()?;
        Ok(sizing)
    }
}

/// `sizing` with its warmup and measured phases doubled: [`Scale::Full`]
/// keeps the Bench machine, so Full numbers stay comparable to the
/// committed bench-scale ones, and only lengthens the steady state.
fn doubled<S: Sizing>(mut sizing: S) -> S {
    for phase in sizing.phases() {
        *phase *= 2;
    }
    sizing
}

/// Declares a [`Sizing`]: its Smoke and Bench constructors, its phase
/// fields, optionally a nested sizing whose table comes first
/// (`extends`) and a validation fn, then its own keys in order.
macro_rules! sizing {
    (
        $ty:ty {
            smoke: $smoke:expr,
            bench: $bench:expr,
            $(full: $full:expr,)?
            phases: [$($warmup:ident).+, $($measured:ident).+],
            $(extends: $inner:ident,)?
            $(validate: $validate:expr,)?
            table: [$($key:ident),* $(,)?] $(,)?
        }
    ) => {
        impl Sizing for $ty {
            fn smoke() -> Self {
                $smoke
            }

            fn bench() -> Self {
                $bench
            }

            $(fn full() -> Self {
                $full
            })?

            fn phases(&mut self) -> [&mut u64; 2] {
                [&mut self.$($warmup).+, &mut self.$($measured).+]
            }

            fn table(&mut self, visit: &mut dyn FnMut(&'static str, &mut dyn Field)) {
                $(self.$inner.table(visit);)?
                $(visit(stringify!($key), &mut self.$key);)*
            }

            $(fn validate(&self) -> Result<(), ConfigError> {
                let validate: fn(&Self) -> Result<(), ConfigError> = $validate;
                validate(self)
            })?
        }
    };
}

sizing! {
    MultiVmParams {
        smoke: MultiVmParams::quick(),
        bench: MultiVmParams::default_scale(),
        phases: [warmup_slices, measured_slices],
        table: [
            num_pcpus, fast_pages, aggressor_vcpus, victims, victim_vcpus,
            warmup_slices, measured_slices, slice_accesses, seed,
        ],
    }
}

sizing! {
    MigrationStormParams {
        smoke: MigrationStormParams::quick(),
        bench: MigrationStormParams::default_scale(),
        phases: [warmup_slices, measured_slices],
        table: [
            num_pcpus, fast_pages, migrant_vcpus, victims, victim_vcpus,
            warmup_slices, measured_slices, slice_accesses, seed,
            copy_pages_per_slice, dirty_page_threshold, max_rounds,
            page_copy_cycles,
        ],
    }
}

sizing! {
    NumaContentionParams {
        smoke: NumaContentionParams::quick(),
        bench: NumaContentionParams::default_scale(),
        phases: [warmup_slices, measured_slices],
        table: [
            num_pcpus, fast_pages, aggressor_vcpus, victims, victim_vcpus,
            warmup_slices, measured_slices, slice_accesses, seed,
            aggressor_footprint_factor,
        ],
    }
}

sizing! {
    HostScaleParams {
        smoke: HostScaleParams::quick(),
        bench: HostScaleParams::default_scale(),
        phases: [warmup_slices, measured_slices],
        table: [
            vcpus_min, vcpus_max, fast_pages_per_vcpu,
            warmup_slices, measured_slices, slice_accesses, seed,
        ],
    }
}

sizing! {
    ClusterChurnParams {
        smoke: ClusterChurnParams::quick(),
        bench: ClusterChurnParams::default_scale(),
        phases: [warmup_epochs, measured_epochs],
        validate: validate_fleet,
        table: [
            hosts, num_pcpus, fast_pages, active_vms, spare_slots, vm_vcpus,
            epoch_slices, warmup_epochs, measured_epochs, slice_accesses, seed,
            churn_period, copy_pages_per_slice, throttle_after_rounds, policy,
            threads,
        ],
    }
}

sizing! {
    ClusterFaultsParams {
        smoke: ClusterFaultsParams::quick(),
        bench: ClusterFaultsParams::default_scale(),
        phases: [base.warmup_epochs, base.measured_epochs],
        extends: base,
        validate: validate_storm,
        table: [
            fault_seed, fault_period, crash_after_epochs, stall_epochs,
            stall_timeout_epochs, max_retries, retry_backoff_epochs,
            restart_penalty_cycles,
        ],
    }
}

sizing! {
    ExperimentParams {
        smoke: ExperimentParams::quick(),
        bench: fig_bench_params(),
        phases: [warmup, measured],
        validate: validate_figure,
        table: [vcpus, fast_pages, warmup, measured, seed],
    }
}

/// The Fig. 10 sizing: the figure family's plus the number of SPEC mixes.
struct Fig10Params {
    base: ExperimentParams,
    mixes: usize,
}

sizing! {
    Fig10Params {
        smoke: Fig10Params { base: ExperimentParams::smoke(), mixes: 3 },
        bench: Fig10Params { base: ExperimentParams::bench(), mixes: 12 },
        full: Fig10Params { mixes: 20, ..doubled(Self::bench()) },
        phases: [base.warmup, base.measured],
        extends: base,
        validate: |params: &Self| validate_figure(&params.base),
        table: [mixes],
    }
}

/// The sizing the figure scenarios run at [`Scale::Bench`]: smaller than
/// [`ExperimentParams::default_scale`] so a bench-scale figure stays under
/// a few minutes, larger than [`ExperimentParams::quick`] for steady state.
fn fig_bench_params() -> ExperimentParams {
    ExperimentParams {
        vcpus: 16,
        fast_pages: 1_024,
        warmup: 1_500,
        measured: 2_500,
        seed: hatric::DEFAULT_SEED,
    }
}

/// A workload needs at least one thread, so a VM needs at least one vCPU,
/// and the machine the sizing scales to must be one the simulator builds.
fn validate_figure(params: &ExperimentParams) -> Result<(), ConfigError> {
    if params.vcpus == 0 {
        return Err(ConfigError::ZeroVcpus { slot: None });
    }
    SystemConfig::scaled(params.vcpus, params.fast_pages).validate()?;
    Ok(())
}

/// Validates a fleet sizing without building the fleet: `Cluster::new`
/// asserts on zero hosts, epoch slices or threads, and every host must
/// pass host validation.
fn validate_fleet(params: &ClusterChurnParams) -> Result<(), ConfigError> {
    for (key, value) in [
        ("hosts", params.hosts as u64),
        ("epoch_slices", params.epoch_slices),
    ] {
        if value == 0 {
            return Err(ConfigError::BadValue {
                key: key.to_string(),
                value: "0 (must be nonzero)".to_string(),
            });
        }
    }
    if params.threads == 0 {
        return Err(ConfigError::ZeroThreads);
    }
    for host in 0..params.hosts {
        params
            .host_config(host, CoherenceMechanism::Software)
            .validate()?;
    }
    Ok(())
}

/// Validates a fault-storm sizing: the engineered storm needs four hosts.
fn validate_storm(params: &ClusterFaultsParams) -> Result<(), ConfigError> {
    if params.base.hosts < 4 {
        return Err(ConfigError::BadValue {
            key: "hosts".to_string(),
            value: format!(
                "{} (the engineered fault storm needs at least four hosts)",
                params.base.hosts
            ),
        });
    }
    validate_fleet(&params.base)
}

// ---------------------------------------------------------------------------
// The Scenario trait and registry
// ---------------------------------------------------------------------------

/// The one representative run of a scenario that `--trace` and
/// `--timeline` magnify (see [`Scenario::probe`]).
pub enum Probe {
    /// One consolidated host run.
    Host {
        /// The host to build (validated when the probe runs).
        config: HostConfig,
        /// Warmup slices.
        warmup: u64,
        /// Measured slices.
        measured: u64,
    },
    /// One fleet run.
    Fleet {
        /// The fleet, built and ready to run.
        cluster: Box<Cluster<ConsolidatedHost>>,
        /// Warmup epochs.
        warmup: u64,
        /// Measured epochs.
        measured: u64,
    },
    /// One single-VM [`hatric::System`] run.
    System {
        /// The workload, mechanism and machine variant.
        spec: RunSpec,
        /// The sizing.
        params: ExperimentParams,
    },
}

/// One experiment, as a uniform, registry-discoverable unit: a name, a
/// one-line claim, a declarative parameter set per [`Scale`], a runner
/// that yields a [`ScenarioReport`], and the one run its traces and
/// timelines magnify.
pub trait Scenario: Sync {
    /// Registry name (what `scenarios run <name>` takes).
    fn name(&self) -> &'static str;

    /// The one-line claim this scenario demonstrates.
    fn describe(&self) -> &'static str;

    /// The effective parameters of a run at `scale`: `params` parsed onto
    /// the scenario's typed sizing and rendered back as its full key set.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::UnknownParam`] for keys the scenario does not
    /// accept, [`ConfigError::BadValue`] for values that do not parse, and
    /// the validation error of a sizing the runners cannot run.
    fn resolve(&self, params: &Params, scale: Scale) -> Result<Params, ConfigError>;

    /// The full parameter set at `scale` — every key this scenario accepts,
    /// with its default value.  Overrides outside this key set are rejected
    /// by [`Scenario::run`].
    fn default_params(&self, scale: Scale) -> Params {
        self.resolve(&Params::new(), scale)
            .expect("default parameters are valid")
    }

    /// Runs the scenario with `params` overlaid on the defaults at `scale`.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for unknown/unparseable parameter
    /// overrides or a parameter combination that fails host validation.
    fn run(&self, params: &Params, scale: Scale) -> Result<ScenarioReport, ConfigError>;

    /// The **one representative configuration** of this scenario (with
    /// `params` overlaid on the defaults at `scale`) that
    /// [`Scenario::trace_run`] and [`Scenario::timeline_run`] execute.
    ///
    /// Scenarios probe a single sweep point under one mechanism (software
    /// shootdowns where the sweep includes them, for the richest remap →
    /// IPI fan-out → ack lifecycles) rather than re-running the whole
    /// matrix: a trace is a magnifying glass, not a report.
    ///
    /// # Errors
    ///
    /// As for [`Scenario::run`].
    fn probe(&self, params: &Params, scale: Scale) -> Result<Probe, ConfigError>;

    /// Runs the [`Scenario::probe`] with sim-time tracing enabled and
    /// returns the Chrome trace-event JSON — what `scenarios run <name>
    /// --trace out.json` writes.
    ///
    /// # Errors
    ///
    /// As for [`Scenario::run`].
    fn trace_run(&self, params: &Params, scale: Scale) -> Result<String, ConfigError> {
        let trace = match self.probe(params, scale)? {
            Probe::Host {
                config,
                warmup,
                measured,
            } => {
                let mut host = validated_host(config)?;
                host.enable_tracing(TRACE_CAPACITY);
                host.run(warmup, measured);
                host.export_trace()
            }
            Probe::Fleet {
                mut cluster,
                warmup,
                measured,
            } => {
                cluster.enable_tracing(TRACE_CAPACITY);
                cluster.run(warmup, measured);
                cluster.export_trace()
            }
            Probe::System { spec, params } => {
                Some(execute_traced(&spec, &params, TRACE_CAPACITY).1)
            }
        };
        Ok(trace.expect("tracing was enabled above"))
    }

    /// Runs the [`Scenario::probe`] with the per-slice counter sampler
    /// enabled and returns its [`CounterTimeline`] — what `scenarios run
    /// <name> --timeline out.json` exports as Chrome counter events plus a
    /// CSV sibling.  The warmup phase is sampled too, then discarded with
    /// the other warmup measurements, so the timeline covers exactly the
    /// measured phase.  `None` for [`Probe::System`] scenarios: the single-VM
    /// [`hatric::System`] has no scheduler slices to sample at.
    ///
    /// # Errors
    ///
    /// As for [`Scenario::run`].
    fn timeline_run(
        &self,
        params: &Params,
        scale: Scale,
    ) -> Result<Option<CounterTimeline>, ConfigError> {
        let timeline = match self.probe(params, scale)? {
            Probe::Host {
                config,
                warmup,
                measured,
            } => {
                let mut host = validated_host(config)?;
                host.enable_timeline((measured / TIMELINE_TARGET_SAMPLES).max(1));
                host.run(warmup, measured);
                host.timeline().cloned()
            }
            Probe::Fleet {
                mut cluster,
                warmup,
                measured,
            } => {
                cluster.enable_timeline((measured / FLEET_TIMELINE_TARGET_SAMPLES).max(1));
                cluster.run(warmup, measured);
                cluster.timeline().cloned()
            }
            Probe::System { .. } => return Ok(None),
        };
        Ok(Some(timeline.expect("the timeline was enabled above")))
    }

    /// Stem of this scenario's committed baseline trajectory
    /// (`BENCH_<stem>.json` at the workspace root), or `None` if the
    /// scenario has no committed baseline.
    fn baseline_stem(&self) -> Option<&'static str> {
        None
    }

    /// Row metrics `scenarios check` compares exactly against the
    /// committed baseline at [`Scale::Bench`].  Empty means ungated.
    fn gated_metrics(&self) -> &'static [&'static str] {
        &[]
    }

    /// The claims a default-parameter run at [`Scale::Bench`] or
    /// [`Scale::Full`] must satisfy, what `scenarios check` evaluates on
    /// the rows [`Scenario::run`] emits.  Runs with overrides are
    /// exploration: an overridden machine may weaken what a claim needs.
    fn claims(&self) -> &'static [Claim] {
        &[]
    }
}

/// Every registered scenario, in presentation order.
#[must_use]
pub fn registry() -> &'static [&'static dyn Scenario] {
    const REGISTRY: &[&'static dyn Scenario] = &[
        &MultivmScenario,
        &MigrationStormScenario,
        &NumaContentionScenario,
        &HostScaleScenario,
        &ClusterChurnScenario,
        &ClusterFaultsScenario,
        &FIGURES[0],
        &FIGURES[1],
        &FIGURES[2],
        &FIGURES[3],
        &FIGURES[4],
        &FIGURES[5],
        &FIGURES[6],
        &FIGURES[7],
        &FIGURES[8],
    ];
    REGISTRY
}

/// Finds a scenario by registry name.
#[must_use]
pub fn find(name: &str) -> Option<&'static dyn Scenario> {
    registry().iter().copied().find(|s| s.name() == name)
}

/// The registry as the markdown table the README's scenario catalog embeds
/// (what `scenarios --list --md` prints); a test diffs the README block
/// against this output so the two cannot drift.
#[must_use]
pub fn catalog_markdown() -> String {
    let mut out = String::from("| scenario | baseline JSON | claim |\n|---|---|---|\n");
    for scenario in registry() {
        let baseline = scenario
            .baseline_stem()
            .map_or_else(|| "—".to_string(), |stem| format!("`BENCH_{stem}.json`"));
        out.push_str(&format!(
            "| `{}` | {} | {} |\n",
            scenario.name(),
            baseline,
            scenario.describe()
        ));
    }
    out
}

fn mechanism_label(mechanism: CoherenceMechanism) -> String {
    format!("{mechanism:?}")
}

// ---------------------------------------------------------------------------
// Probe runs and bench metadata
// ---------------------------------------------------------------------------

/// Spans a traced scenario run keeps before the ring starts evicting the
/// oldest.  Sized for a bench-scale run; smoke traces fit with room to
/// spare.
const TRACE_CAPACITY: usize = 1 << 16;

/// Samples a host timeline run targets roughly this many points across its
/// measured phase, independent of scale — enough resolution to see phase
/// structure, few enough that the export stays small.
const TIMELINE_TARGET_SAMPLES: u64 = 256;

/// The same target for a fleet timeline, which samples once per epoch at
/// most: a fleet's measured phase counts epochs, not slices.
const FLEET_TIMELINE_TARGET_SAMPLES: u64 = 64;

/// Builds the host of a [`Probe::Host`], surfacing an invalid
/// configuration as a typed error.
fn validated_host(config: HostConfig) -> Result<ConsolidatedHost, ConfigError> {
    config.validate()?;
    Ok(ConsolidatedHost::new(config).expect("the configuration was just validated"))
}

/// Renders the ungated environment-metadata record the JSON writers append
/// after a report's rows: host parallelism, the run's worker-thread count
/// (when the scenario has one) and the wall-clock totals the hosts have
/// spent in each phase so far in this process.  The record's first key
/// is `"meta"`, which [`ScenarioReport::from_json`] and the bench gates
/// skip — every value here is machine-dependent and must never gate.
#[must_use]
pub fn bench_meta_json(threads: Option<u64>) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let totals = global_phase_totals();
    let mut out = format!("{{\"meta\":\"env\",\"nproc\":{nproc}");
    if let Some(threads) = threads {
        out.push_str(&format!(",\"threads\":{threads}"));
    }
    for phase in EnginePhase::ALL {
        out.push_str(&format!(
            ",\"phase_{}_ms\":{:.6}",
            phase.label(),
            totals.millis(phase)
        ));
    }
    out.push_str(&format!(",\"slices\":{}}}", totals.slices()));
    out
}

/// Splices a flat `meta` record (e.g. [`bench_meta_json`] output) into a
/// [`ScenarioReport::to_json`] document as its trailing record.  Applied
/// only at the writer layer — `scenarios run --json` — so `Scenario::run`
/// output itself stays byte-identical with and without metadata.
#[must_use]
pub fn append_meta_record(json: &str, meta: &str) -> String {
    match json.rfind("\n]") {
        Some(pos) => format!("{},\n  {meta}{}", &json[..pos], &json[pos..]),
        None => json.to_string(),
    }
}

// ---------------------------------------------------------------------------
// The mechanism sweep of the host and fleet scenarios
// ---------------------------------------------------------------------------

/// The mechanisms a host scenario runs at each sweep point, in row order.
/// Every victim slowdown divides by the Ideal run's.
pub(crate) const HOST_MECHANISMS: &[CoherenceMechanism] = &[
    CoherenceMechanism::Software,
    CoherenceMechanism::UnitdPlusPlus,
    CoherenceMechanism::Hatric,
    CoherenceMechanism::Ideal,
];

/// The mechanisms a fleet scenario runs at each sweep point.
pub(crate) const FLEET_MECHANISMS: &[CoherenceMechanism] = &[
    CoherenceMechanism::Software,
    CoherenceMechanism::Hatric,
    CoherenceMechanism::Ideal,
];

/// A run's report as the sweep reads it: the machine-wide aggregate, and
/// the victim VMs whose runtime the slowdown compares.
trait Swept {
    fn aggregate(&self) -> &SimReport;

    fn victims(&self) -> Vec<&SimReport>;
}

impl Swept for HostReport {
    fn aggregate(&self) -> &SimReport {
        &self.host
    }

    /// Slots `1..`: slot 0 is the aggressor or the migrant.
    fn victims(&self) -> Vec<&SimReport> {
        self.per_vm[1..].iter().collect()
    }
}

impl Swept for ClusterReport {
    fn aggregate(&self) -> &SimReport {
        &self.aggregate
    }

    /// Every slot that made progress and was never a source or destination
    /// of an inter-host migration.  The set is a function of the
    /// deterministic churn/placement flow only, so it is identical across
    /// mechanisms and the ratio to the ideal run compares like with like.
    fn victims(&self) -> Vec<&SimReport> {
        let involved: Vec<(usize, usize)> = self
            .migrations
            .iter()
            .flat_map(|m| [(m.src_host, m.src_slot), (m.dst_host, m.dst_slot)])
            .collect();
        let mut victims = Vec::new();
        for (h, host) in self.per_host.iter().enumerate() {
            for (s, vm) in host.per_vm.iter().enumerate() {
                if vm.accesses > 0 && !involved.contains(&(h, s)) {
                    victims.push(vm);
                }
            }
        }
        victims
    }
}

/// Mean runtime of `victims` in cycles (0 for none).
fn mean_runtime(victims: &[&SimReport]) -> f64 {
    if victims.is_empty() {
        return 0.0;
    }
    victims
        .iter()
        .map(|vm| vm.runtime_cycles() as f64)
        .sum::<f64>()
        / victims.len() as f64
}

/// One mechanism's run of one sweep point.
struct Run<R> {
    mechanism: CoherenceMechanism,
    report: R,
    /// Mean victim runtime over the Ideal run's at the same point (0 where
    /// the point has no Ideal run).
    victim_slowdown_vs_ideal: f64,
    /// Wall-clock milliseconds of the run (machine-dependent, ungated).
    elapsed_ms: f64,
    /// Measured accesses per wall-clock second (machine-dependent, ungated).
    accesses_per_sec: f64,
}

impl<R: Swept> Run<R> {
    /// Cycles coherence stole from the victims.
    fn victim_disrupted_cycles(&self) -> u64 {
        self.report
            .victims()
            .iter()
            .map(|vm| vm.interference.disrupted_cycles)
            .sum()
    }
}

/// Runs one sweep point under each of `mechanisms`: `build` makes the
/// machine and `run` runs it; the wall clock times `run` alone.
fn sweep<S, R: Swept>(
    mechanisms: &[CoherenceMechanism],
    build: impl Fn(CoherenceMechanism) -> S,
    run: impl Fn(&mut S) -> R,
) -> Vec<Run<R>> {
    let mut runs: Vec<Run<R>> = mechanisms
        .iter()
        .map(|&mechanism| {
            let mut machine = build(mechanism);
            let start = Instant::now();
            let report = run(&mut machine);
            let secs = start.elapsed().as_secs_f64();
            let accesses_per_sec = if secs > 0.0 {
                report.aggregate().accesses as f64 / secs
            } else {
                0.0
            };
            Run {
                mechanism,
                report,
                victim_slowdown_vs_ideal: 0.0,
                elapsed_ms: secs * 1_000.0,
                accesses_per_sec,
            }
        })
        .collect();
    let ideal = runs
        .iter()
        .find(|run| run.mechanism == CoherenceMechanism::Ideal)
        .map_or(0.0, |run| mean_runtime(&run.report.victims()));
    if ideal != 0.0 {
        for run in &mut runs {
            run.victim_slowdown_vs_ideal = mean_runtime(&run.report.victims()) / ideal;
        }
    }
    runs
}

/// [`sweep`] over consolidated hosts, `config` giving each mechanism's host
/// (the callers validate it up front).
fn host_sweep(
    mechanisms: &[CoherenceMechanism],
    config: impl Fn(CoherenceMechanism) -> HostConfig,
    warmup: u64,
    measured: u64,
) -> Vec<Run<HostReport>> {
    sweep(
        mechanisms,
        |mechanism| {
            ConsolidatedHost::new(config(mechanism)).expect("sweep points are validated up front")
        },
        |host| host.run(warmup, measured),
    )
}

/// Appends one row per run of the sweep point `label` (under `key`): the
/// family's `columns`, then the tail every host and fleet row shares.  The
/// tail holds the wall-clock columns (`elapsed_ms`, `accesses_per_sec`,
/// never gated and stripped by the determinism cross-checks), then the
/// p50/p99 in simulated cycles of nested-walk latency, shootdown
/// completion latency and DRAM queueing delay, then the causal-attribution
/// columns ([`attribution_columns`]).  A fleet row reads them off the
/// fleet aggregate.
fn push_rows<R: Swept>(
    report: &mut ScenarioReport,
    key: &str,
    label: &str,
    runs: &[Run<R>],
    columns: impl Fn(Row, &Run<R>) -> Row,
) {
    for run in runs {
        let aggregate = run.report.aggregate();
        let lat = &aggregate.latency;
        let row = columns(Row::new(key, label, &mechanism_label(run.mechanism)), run)
            .ratio("elapsed_ms", run.elapsed_ms)
            .ratio("accesses_per_sec", run.accesses_per_sec)
            .count("walk_p50", lat.walk.p50())
            .count("walk_p99", lat.walk.p99())
            .count("shootdown_p50", lat.shootdown.p50())
            .count("shootdown_p99", lat.shootdown.p99())
            .count("dram_queue_p50", lat.dram_queue.p50())
            .count("dram_queue_p99", lat.dram_queue.p99());
        report.push(attribution_columns(row, aggregate));
    }
}

/// Appends the per-remap causal-attribution columns (never gated): how many
/// distinct remaps the run's causal ledger charged disruption to, the summed
/// victim cycles they inflicted, and the single costliest remap — its id
/// (`vm<slot>#<ordinal>`, prefixed `h<host>/` on a fleet row), its victim
/// cycles and its share of the total.
/// Deterministic like every model metric, but new columns stay out of the
/// gate so committed baselines never need regenerating for observability.
fn attribution_columns(row: Row, aggregate: &SimReport) -> Row {
    let causal = &aggregate.causal;
    let total = causal.total();
    let top = causal.top_by_victim_cycles(1);
    let (top_id, top_cycles) = top.first().map_or_else(
        || ("-".to_string(), 0),
        |(id, c)| (id.to_string(), c.victim_cycles),
    );
    let top_share = if total.victim_cycles == 0 {
        0.0
    } else {
        top_cycles as f64 / total.victim_cycles as f64
    };
    row.count("attr_remaps", causal.len() as u64)
        .count("attr_victim_cycles", total.victim_cycles)
        .text("attr_top_remap", &top_id)
        .count("attr_top_victim_cycles", top_cycles)
        .ratio("attr_top_share", top_share)
}

// ---------------------------------------------------------------------------
// multivm
// ---------------------------------------------------------------------------

/// The consolidated-host interference scenario (`multivm`): one
/// paging-heavy aggressor next to remap-free victims, swept over the
/// aggressor's paging pressure.
pub struct MultivmScenario;

/// The aggressor pressure sweep: the machine and the victims stay fixed
/// while the aggressor's footprint-to-quota ratio grows.
const PRESSURE_SWEEP: [(&str, f64); 3] = [("mild", 0.4), ("moderate", 1.0), ("severe", 2.0)];

impl Scenario for MultivmScenario {
    fn name(&self) -> &'static str {
        "multivm"
    }

    fn describe(&self) -> &'static str {
        "one VM's remap storm steals cycles from co-located victims only under \
         software shootdowns"
    }

    fn resolve(&self, params: &Params, scale: Scale) -> Result<Params, ConfigError> {
        Ok(MultiVmParams::parse(params, scale)?.render())
    }

    fn run(&self, params: &Params, scale: Scale) -> Result<ScenarioReport, ConfigError> {
        let base = MultiVmParams::parse(params, scale)?;
        // Validate every sweep point up front so a bad parameter
        // combination surfaces as a typed error, not a panic mid-sweep.
        for (_, factor) in PRESSURE_SWEEP {
            base.with_aggressor_footprint_factor(factor)
                .host_config(CoherenceMechanism::Software)
                .validate()?;
        }
        let mut report = ScenarioReport::new(self.name());
        for (pressure, factor) in PRESSURE_SWEEP {
            let point = base.with_aggressor_footprint_factor(factor);
            let runs = host_sweep(
                HOST_MECHANISMS,
                |mechanism| point.host_config(mechanism),
                point.warmup_slices,
                point.measured_slices,
            );
            push_rows(&mut report, "pressure", pressure, &runs, |row, run| {
                let host = &run.report.host;
                row.ratio("victim_slowdown_vs_ideal", run.victim_slowdown_vs_ideal)
                    .count("victim_disrupted_cycles", run.victim_disrupted_cycles())
                    .count("aggressor_remaps", run.report.per_vm[0].coherence.remaps)
                    .count("ipis", host.coherence.ipis)
                    .count("coherence_vm_exits", host.coherence.coherence_vm_exits)
                    .count("host_runtime_cycles", host.runtime_cycles())
            });
        }
        Ok(report)
    }

    fn probe(&self, params: &Params, scale: Scale) -> Result<Probe, ConfigError> {
        // The severe sweep point under software shootdowns: the most remap
        // traffic the scenario generates.
        let point = MultiVmParams::parse(params, scale)?.with_aggressor_footprint_factor(2.0);
        Ok(Probe::Host {
            config: point.host_config(CoherenceMechanism::Software),
            warmup: point.warmup_slices,
            measured: point.measured_slices,
        })
    }

    fn baseline_stem(&self) -> Option<&'static str> {
        Some("multivm")
    }

    fn gated_metrics(&self) -> &'static [&'static str] {
        &["victim_slowdown_vs_ideal"]
    }

    fn claims(&self) -> &'static [Claim] {
        const SLOWDOWN: &str = "victim_slowdown_vs_ideal";
        const CLAIMS: &[Claim] = &[
            Claim::compare(SLOWDOWN, Of::Arm(Hatric), Cmp::Le, Bound::Arm(Software)),
            Claim::compare(SLOWDOWN, Of::Arm(Hatric), Cmp::Lt, Bound::Value(1.05)),
            Claim::compare(SLOWDOWN, Of::Arm(Hatric), Cmp::Lt, Bound::Arm(Software))
                .at(&["severe"]),
        ];
        CLAIMS
    }
}

// ---------------------------------------------------------------------------
// migration_storm
// ---------------------------------------------------------------------------

/// The live-migration remap-storm scenario (`migration_storm`): a plain
/// pre-copy storm, a slow-link variant and a concurrent balloon, each under
/// every mechanism.
pub struct MigrationStormScenario;

/// Balloon size of the `with_balloon` sweep point.  At bench scale 300
/// pages squeeze victim 1 well below its ~307-page footprint, producing a
/// sustained post-balloon remap storm; the smoke host is a quarter the
/// size, so the balloon shrinks with it.
fn balloon_pages(scale: Scale) -> u64 {
    match scale {
        Scale::Smoke => 64,
        Scale::Bench | Scale::Full => 300,
    }
}

impl Scenario for MigrationStormScenario {
    fn name(&self) -> &'static str {
        "migration_storm"
    }

    fn describe(&self) -> &'static str {
        "live-migration downtime and bystander slowdown collapse under HATRIC"
    }

    fn resolve(&self, params: &Params, scale: Scale) -> Result<Params, ConfigError> {
        Ok(MigrationStormParams::parse(params, scale)?.render())
    }

    fn run(&self, params: &Params, scale: Scale) -> Result<ScenarioReport, ConfigError> {
        let base = MigrationStormParams::parse(params, scale)?;
        // The committed baseline's sweep: plain pre-copy, a slow-link
        // variant (more rounds, bigger residue) and a migration with a
        // concurrent balloon.
        let points = [
            ("precopy", base),
            ("slow_link", base.with_copy_pages_per_slice(24)),
            (
                "with_balloon",
                base.with_balloon_pages(balloon_pages(scale)),
            ),
        ];
        // Validate every sweep point up front so a bad parameter
        // combination surfaces as a typed error, not a panic mid-sweep.
        for (_, point) in &points {
            point.host_config(CoherenceMechanism::Software).validate()?;
        }
        let mut report = ScenarioReport::new(self.name());
        for (label, point) in points {
            let runs = host_sweep(
                HOST_MECHANISMS,
                |mechanism| point.host_config(mechanism),
                point.warmup_slices,
                point.measured_slices,
            );
            push_rows(&mut report, "scenario", label, &runs, |row, run| {
                let migration = &run.report.migration;
                row.count("downtime_cycles", migration.downtime_cycles)
                    .ratio("victim_slowdown_vs_ideal", run.victim_slowdown_vs_ideal)
                    .count("victim_disrupted_cycles", run.victim_disrupted_cycles())
                    .count("migration_remaps", migration.migration_remaps)
                    .count("precopy_rounds", migration.precopy_rounds)
                    .count("pages_copied", migration.pages_copied)
                    .count("migrations_completed", migration.migrations_completed)
                    .count("host_runtime_cycles", run.report.host.runtime_cycles())
            });
        }
        Ok(report)
    }

    fn probe(&self, params: &Params, scale: Scale) -> Result<Probe, ConfigError> {
        // The plain pre-copy storm under software shootdowns: the full
        // lifecycle — write-protect remap fan-outs each round, then the
        // stop-and-copy downtime burst — in one track set, while the
        // dirty-page gauge drains round by round.
        let base = MigrationStormParams::parse(params, scale)?;
        Ok(Probe::Host {
            config: base.host_config(CoherenceMechanism::Software),
            warmup: base.warmup_slices,
            measured: base.measured_slices,
        })
    }

    fn baseline_stem(&self) -> Option<&'static str> {
        Some("migration")
    }

    fn gated_metrics(&self) -> &'static [&'static str] {
        &["victim_slowdown_vs_ideal", "downtime_cycles"]
    }

    fn claims(&self) -> &'static [Claim] {
        const SLOWDOWN: &str = "victim_slowdown_vs_ideal";
        const CLAIMS: &[Claim] = &[
            Claim::compare(
                "migrations_completed",
                Of::EveryArm,
                Cmp::Eq,
                Bound::Value(1.0),
            ),
            Claim::compare(
                "downtime_cycles",
                Of::Arm(Hatric),
                Cmp::Lt,
                Bound::Arm(Software),
            ),
            Claim::compare(SLOWDOWN, Of::Arm(Hatric), Cmp::Lt, Bound::Arm(Software)),
            Claim::compare(SLOWDOWN, Of::Arm(Hatric), Cmp::Lt, Bound::Value(1.05)),
        ];
        CLAIMS
    }
}

// ---------------------------------------------------------------------------
// numa_contention
// ---------------------------------------------------------------------------

/// The NUMA socket-sweep scenario (`numa_contention`): capacity and CPU
/// count fixed, socket count — and with it the remote-access ratio — rises,
/// plus a socket-affine counterpoint configuration.
pub struct NumaContentionScenario;

impl Scenario for NumaContentionScenario {
    fn name(&self) -> &'static str {
        "numa_contention"
    }

    fn describe(&self) -> &'static str {
        "HATRIC's victim-slowdown advantage widens as the remote-socket access \
         ratio rises"
    }

    fn resolve(&self, params: &Params, scale: Scale) -> Result<Params, ConfigError> {
        Ok(NumaContentionParams::parse(params, scale)?.render())
    }

    fn run(&self, params: &Params, scale: Scale) -> Result<ScenarioReport, ConfigError> {
        let base = NumaContentionParams::parse(params, scale)?;
        // The committed baseline's socket sweep: capacity and CPU count
        // fixed while the socket count — and the interleaved remote-access
        // ratio — rises, then a socket-affine configuration clawing the
        // software penalty back.
        let points = [
            ("uma", base),
            ("numa2", base.with_sockets(2)),
            ("numa4", base.with_sockets(4)),
            (
                "numa2_affine",
                base.with_sockets(2)
                    .with_numa_policy(NumaPolicy::FirstTouch)
                    .with_sched(SchedPolicy::SocketAffine),
            ),
        ];
        // Validate every sweep point up front: the multi-socket points have
        // invariants the single-socket base cannot catch (e.g. the CPU
        // count must split evenly across sockets), and a bad combination
        // must surface as a typed error, not a panic mid-sweep.
        for (_, point) in &points {
            point.host_config(CoherenceMechanism::Software).validate()?;
        }
        let mut report = ScenarioReport::new(self.name());
        for (label, point) in points {
            let runs = host_sweep(
                HOST_MECHANISMS,
                |mechanism| point.host_config(mechanism),
                point.warmup_slices,
                point.measured_slices,
            );
            push_rows(&mut report, "config", label, &runs, |row, run| {
                let aggressor = &run.report.per_vm[0];
                row.ratio("victim_slowdown_vs_ideal", run.victim_slowdown_vs_ideal)
                    .count("victim_disrupted_cycles", run.victim_disrupted_cycles())
                    .ratio(
                        "remote_access_ratio",
                        run.report.host.numa.remote_access_ratio(),
                    )
                    .ratio("remote_target_ratio", aggressor.numa.remote_target_ratio())
                    .count("aggressor_remaps", aggressor.coherence.remaps)
                    .count("host_runtime_cycles", run.report.host.runtime_cycles())
            });
        }
        Ok(report)
    }

    fn probe(&self, params: &Params, scale: Scale) -> Result<Probe, ConfigError> {
        // The two-socket interleaved point under software shootdowns:
        // cross-socket invalidation acks dominate.
        let point = NumaContentionParams::parse(params, scale)?.with_sockets(2);
        Ok(Probe::Host {
            config: point.host_config(CoherenceMechanism::Software),
            warmup: point.warmup_slices,
            measured: point.measured_slices,
        })
    }

    fn baseline_stem(&self) -> Option<&'static str> {
        Some("numa")
    }

    fn gated_metrics(&self) -> &'static [&'static str] {
        &["victim_slowdown_vs_ideal"]
    }

    fn claims(&self) -> &'static [Claim] {
        const SLOWDOWN: &str = "victim_slowdown_vs_ideal";
        const INTERLEAVED: &[&str] = &["uma", "numa2", "numa4"];
        const CLAIMS: &[Claim] = &[
            Claim::compare(SLOWDOWN, Of::Arm(Hatric), Cmp::Le, Bound::Arm(Software)),
            Claim::rising("remote_access_ratio", Of::Arm(Software)).at(INTERLEAVED),
            Claim::rising(SLOWDOWN, Of::Gap(Software, Hatric)).at(INTERLEAVED),
        ];
        CLAIMS
    }
}

// ---------------------------------------------------------------------------
// host_scale
// ---------------------------------------------------------------------------

/// The simulator-throughput scenario (`host_scale`): one HATRIC host swept
/// over total vCPUs.  Its model metrics are gated like every scenario's;
/// the timing columns record the wall clock of each run on the running
/// machine.
pub struct HostScaleScenario;

impl Scenario for HostScaleScenario {
    fn name(&self) -> &'static str {
        "host_scale"
    }

    fn describe(&self) -> &'static str {
        "simulator throughput of one HATRIC host as its vCPU count doubles; \
         the timing columns record wall clock"
    }

    fn resolve(&self, params: &Params, scale: Scale) -> Result<Params, ConfigError> {
        Ok(HostScaleParams::parse(params, scale)?.render())
    }

    fn run(&self, params: &Params, scale: Scale) -> Result<ScenarioReport, ConfigError> {
        let base = HostScaleParams::parse(params, scale)?;
        for vcpus in base.vcpu_points() {
            base.host_config(vcpus, 1).validate()?;
        }
        let mut report = ScenarioReport::new(self.name());
        for vcpus in base.vcpu_points() {
            // Every point is a HATRIC host; the sweep is over the
            // simulator, not the mechanism.
            let runs = host_sweep(
                &[CoherenceMechanism::Hatric],
                |_| base.host_config(vcpus, 1),
                base.warmup_slices,
                base.measured_slices,
            );
            let label = format!("v{vcpus}");
            push_rows(&mut report, "config", &label, &runs, |row, run| {
                let host = &run.report.host;
                row.count("vcpus", vcpus as u64)
                    .count("host_runtime_cycles", host.runtime_cycles())
                    .count("accesses", host.accesses)
                    .count("aggressor_remaps", run.report.per_vm[0].coherence.remaps)
                    .count("host_disrupted_cycles", host.interference.disrupted_cycles)
            });
        }
        Ok(report)
    }

    fn probe(&self, params: &Params, scale: Scale) -> Result<Probe, ConfigError> {
        // The largest machine: the HATRIC host the sweep peaks at.
        let base = HostScaleParams::parse(params, scale)?;
        Ok(Probe::Host {
            config: base.host_config(base.vcpus_max, 1),
            warmup: base.warmup_slices,
            measured: base.measured_slices,
        })
    }

    fn baseline_stem(&self) -> Option<&'static str> {
        Some("scale")
    }

    fn gated_metrics(&self) -> &'static [&'static str] {
        &["host_runtime_cycles"]
    }
}

// ---------------------------------------------------------------------------
// cluster_churn
// ---------------------------------------------------------------------------

/// The datacenter-tier scenario (`cluster_churn`): a fleet of consolidated
/// hosts under concurrent inter-host pre-copy migrations and VM
/// arrival/departure churn, swept over the concurrent-migration count.
pub struct ClusterChurnScenario;

/// The concurrent-migration sweep: the fleet stays fixed while the number
/// of simultaneously in-flight inter-host migrations grows.
const MIGRATION_SWEEP: [(&str, usize); 3] = [("mig1", 1), ("mig2", 2), ("mig4", 4)];

impl Scenario for ClusterChurnScenario {
    fn name(&self) -> &'static str {
        "cluster_churn"
    }

    fn describe(&self) -> &'static str {
        "HATRIC keeps fleet-wide victim slowdown and p99 migration downtime \
         bounded under concurrent inter-host migrations; software degrades \
         with every added migration"
    }

    fn resolve(&self, params: &Params, scale: Scale) -> Result<Params, ConfigError> {
        Ok(ClusterChurnParams::parse(params, scale)?.render())
    }

    fn run(&self, params: &Params, scale: Scale) -> Result<ScenarioReport, ConfigError> {
        let base = ClusterChurnParams::parse(params, scale)?;
        let mut report = ScenarioReport::new(self.name());
        for (label, migrations) in MIGRATION_SWEEP {
            let runs = sweep(
                FLEET_MECHANISMS,
                |mechanism| base.build_cluster(mechanism, migrations.min(base.hosts)),
                |fleet| fleet.run(base.warmup_epochs, base.measured_epochs),
            );
            push_rows(&mut report, "config", label, &runs, |row, run| {
                let fleet = &run.report;
                row.ratio("agg_victim_slowdown_vs_ideal", run.victim_slowdown_vs_ideal)
                    .count("downtime_p99_cycles", fleet.downtime_percentile(99))
                    .count("downtime_max_cycles", fleet.downtime_percentile(100))
                    .count("migrations_completed", fleet.completed_migrations())
                    .count("peak_inflight", fleet.peak_inflight)
                    .count("victim_disrupted_cycles", run.victim_disrupted_cycles())
                    .count("migration_remaps", fleet.migration.migration_remaps)
                    .count("received_pages", fleet.migration.received_pages)
                    .count(
                        "postcopy_fetched_pages",
                        fleet.migration.postcopy_fetched_pages,
                    )
                    .count("throttled_slices", fleet.migration.throttled_slices)
                    .count("pages_copied", fleet.migration.pages_copied)
                    .count("cluster_runtime_cycles", fleet.aggregate.runtime_cycles())
            });
        }
        Ok(report)
    }

    fn probe(&self, params: &Params, scale: Scale) -> Result<Probe, ConfigError> {
        // The four-migration software point: page streams land on every
        // host's hypervisor track, one trace process per host; the
        // timeline samples in-flight migrations, fleet activity and
        // per-host load at epoch granularity.
        let base = ClusterChurnParams::parse(params, scale)?;
        Ok(Probe::Fleet {
            cluster: Box::new(base.build_cluster(CoherenceMechanism::Software, 4.min(base.hosts))),
            warmup: base.warmup_epochs,
            measured: base.measured_epochs,
        })
    }

    fn baseline_stem(&self) -> Option<&'static str> {
        Some("cluster")
    }

    fn gated_metrics(&self) -> &'static [&'static str] {
        &["agg_victim_slowdown_vs_ideal", "downtime_p99_cycles"]
    }

    fn claims(&self) -> &'static [Claim] {
        const SLOWDOWN: &str = "agg_victim_slowdown_vs_ideal";
        const DOWNTIME: &str = "downtime_p99_cycles";
        const COMPLETED: &str = "migrations_completed";
        const CLAIMS: &[Claim] = &[
            Claim::compare(COMPLETED, Of::EveryArm, Cmp::Ge, Bound::Value(1.0)).at(&["mig1"]),
            Claim::compare(COMPLETED, Of::EveryArm, Cmp::Ge, Bound::Value(2.0)).at(&["mig2"]),
            Claim::compare(COMPLETED, Of::EveryArm, Cmp::Ge, Bound::Value(4.0)).at(&["mig4"]),
            Claim::compare(SLOWDOWN, Of::Arm(Hatric), Cmp::Le, Bound::Arm(Software)),
            Claim::compare(DOWNTIME, Of::Arm(Hatric), Cmp::Le, Bound::Arm(Software)),
            Claim::compare(SLOWDOWN, Of::Arm(Hatric), Cmp::Lt, Bound::Arm(Software)).at(&["mig4"]),
            Claim::compare(DOWNTIME, Of::Arm(Hatric), Cmp::Lt, Bound::Arm(Software)).at(&["mig4"]),
            Claim::rising(SLOWDOWN, Of::Arm(Software)),
        ];
        CLAIMS
    }
}

/// The cluster-faults scenario (`cluster_faults`): the churn fleet under a
/// deterministic fault storm — an engineered host crash that aborts two
/// in-flight migrations (one with a bounded retry), a stuck pre-copy that
/// force-escalates to post-copy, crash-driven cold restarts through the
/// placement policy, and a seeded background schedule of link and DRAM
/// faults.  Gated claim: under the identical storm, HATRIC's aggregate
/// victim slowdown and recovery-downtime p99 never exceed software's.
pub struct ClusterFaultsScenario;

impl Scenario for ClusterFaultsScenario {
    fn name(&self) -> &'static str {
        "cluster_faults"
    }

    fn describe(&self) -> &'static str {
        "under a deterministic fault storm (host crash, migration aborts with \
         bounded retry, forced post-copy escalation, link/DRAM faults) HATRIC \
         recovers no slower than software on victim slowdown and recovery \
         downtime p99"
    }

    fn resolve(&self, params: &Params, scale: Scale) -> Result<Params, ConfigError> {
        Ok(ClusterFaultsParams::parse(params, scale)?.render())
    }

    fn run(&self, params: &Params, scale: Scale) -> Result<ScenarioReport, ConfigError> {
        let typed = ClusterFaultsParams::parse(params, scale)?;
        let runs = sweep(
            FLEET_MECHANISMS,
            |mechanism| typed.build_cluster(mechanism),
            |fleet| fleet.run(typed.base.warmup_epochs, typed.base.measured_epochs),
        );
        let mut report = ScenarioReport::new(self.name());
        push_rows(&mut report, "config", "storm", &runs, |row, run| {
            let fleet = &run.report;
            let recovery = fleet.recovery;
            row.ratio("agg_victim_slowdown_vs_ideal", run.victim_slowdown_vs_ideal)
                .count(
                    "recovery_downtime_p99_cycles",
                    fleet.recovery_downtime_percentile(99),
                )
                .count(
                    "recovery_downtime_max_cycles",
                    fleet.recovery_downtime_percentile(100),
                )
                .count("host_crashes", recovery.host_crashes)
                .count("migrations_aborted", recovery.migrations_aborted)
                .count("migrations_retried", recovery.migrations_retried)
                .count("migrations_escalated", recovery.migrations_escalated)
                .count("vm_restarts", recovery.vm_restarts)
                .count("restarts_failed", recovery.restarts_failed)
                .count("unavailability_epochs", recovery.unavailability_epochs)
                .count("wire_dropped_pages", recovery.wire_dropped_pages)
                .count("faults_injected", recovery.faults_injected)
                .count("migrations_completed", fleet.completed_migrations())
                .count("victim_disrupted_cycles", run.victim_disrupted_cycles())
                .count("received_pages", fleet.migration.received_pages)
                .count(
                    "postcopy_fetched_pages",
                    fleet.migration.postcopy_fetched_pages,
                )
                .count("pages_copied", fleet.migration.pages_copied)
                .count("cluster_runtime_cycles", fleet.aggregate.runtime_cycles())
        });
        Ok(report)
    }

    fn probe(&self, params: &Params, scale: Scale) -> Result<Probe, ConfigError> {
        // The software run: fault spans (crash, blackout, brownout, stall)
        // land on every host's hypervisor track alongside the migration
        // page streams they disrupt; the timeline shows the in-flight
        // count collapsing at the crash and fleet activity dipping through
        // the restart windows.
        let typed = ClusterFaultsParams::parse(params, scale)?;
        Ok(Probe::Fleet {
            cluster: Box::new(typed.build_cluster(CoherenceMechanism::Software)),
            warmup: typed.base.warmup_epochs,
            measured: typed.base.measured_epochs,
        })
    }

    fn baseline_stem(&self) -> Option<&'static str> {
        Some("faults")
    }

    fn gated_metrics(&self) -> &'static [&'static str] {
        &[
            "agg_victim_slowdown_vs_ideal",
            "recovery_downtime_p99_cycles",
        ]
    }

    fn claims(&self) -> &'static [Claim] {
        const CLAIMS: &[Claim] = &[
            Claim::compare("host_crashes", Of::EveryArm, Cmp::Eq, Bound::Value(1.0)),
            Claim::compare(
                "migrations_aborted",
                Of::EveryArm,
                Cmp::Ge,
                Bound::Value(2.0),
            ),
            Claim::compare(
                "migrations_escalated",
                Of::EveryArm,
                Cmp::Ge,
                Bound::Value(1.0),
            ),
            Claim::compare("vm_restarts", Of::EveryArm, Cmp::Ge, Bound::Value(1.0)),
            Claim::compare(
                "agg_victim_slowdown_vs_ideal",
                Of::Arm(Hatric),
                Cmp::Le,
                Bound::Arm(Software),
            ),
            Claim::compare(
                "recovery_downtime_p99_cycles",
                Of::Arm(Hatric),
                Cmp::Le,
                Bound::Arm(Software),
            ),
        ];
        CLAIMS
    }
}

// ---------------------------------------------------------------------------
// Figure scenarios (single-VM System runs)
// ---------------------------------------------------------------------------

/// One bar of a figure: the machine it runs.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Arm {
    mechanism: CoherenceMechanism,
    memory_mode: MemoryMode,
    hypervisor: HypervisorKind,
}

const fn arm(mechanism: CoherenceMechanism, memory_mode: MemoryMode) -> Arm {
    Arm {
        mechanism,
        memory_mode,
        hypervisor: HypervisorKind::Kvm,
    }
}

const NO_HBM: Arm = arm(CoherenceMechanism::Software, MemoryMode::NoHbm);
const INFINITE_HBM: Arm = arm(CoherenceMechanism::Software, MemoryMode::InfiniteHbm);
const SOFTWARE: Arm = arm(CoherenceMechanism::Software, MemoryMode::Paged);
const UNITD: Arm = arm(CoherenceMechanism::UnitdPlusPlus, MemoryMode::Paged);
const HATRIC: Arm = arm(CoherenceMechanism::Hatric, MemoryMode::Paged);
const IDEAL: Arm = arm(CoherenceMechanism::Ideal, MemoryMode::Paged);
const SOFTWARE_XEN: Arm = Arm {
    hypervisor: HypervisorKind::Xen,
    ..arm(CoherenceMechanism::SoftwareXen, MemoryMode::Paged)
};
const HATRIC_XEN: Arm = Arm {
    hypervisor: HypervisorKind::Xen,
    ..HATRIC
};

impl Arm {
    /// The `mechanism` field of this arm's rows: the memory mode of the
    /// no-HBM and infinite-HBM bars, the mechanism of every paged one.
    fn label(self) -> String {
        match self.memory_mode {
            MemoryMode::Paged => mechanism_label(self.mechanism),
            mode => format!("{mode:?}"),
        }
    }

    /// This arm's run of `kind` with a sweep point's `change`.
    fn spec(self, kind: WorkloadKind, change: Option<Change>) -> RunSpec {
        let spec = RunSpec::new(kind, self.mechanism)
            .with_memory_mode(self.memory_mode)
            .with_hypervisor(self.hypervisor);
        match change {
            None | Some(Change::Vcpus(_)) => spec,
            Some(Change::Paging(knobs)) => spec.with_paging(knobs()),
            Some(Change::StructureScale(scale)) => spec.with_structure_scale(scale),
            Some(Change::CotagBytes(bytes)) => spec.with_cotag_bytes(bytes),
            Some(Change::Variant(variant)) => spec.with_variant(variant),
        }
    }
}

/// What a sweep point changes.  A vCPU count applies to every run at the
/// point; the other changes apply to the arms only, never to the reference
/// run the arms are divided by.
#[derive(Clone, Copy)]
enum Change {
    Vcpus(usize),
    Paging(fn() -> PagingKnobs),
    StructureScale(usize),
    CotagBytes(u8),
    Variant(DesignVariant),
}

/// A sweep point: the suffix of its row labels and its change.
type Point = (&'static str, Option<Change>);

/// The one point of a sweep over nothing but its subjects.
const PLAIN: &[Point] = &[("", None)];

/// What a sweep's rows are about.
#[derive(Clone, Copy)]
enum Subjects {
    /// The big-memory suite.
    BigMemory,
    /// The big-memory suite plus the small-footprint class that rarely
    /// pages.
    WithSmallFootprint,
    /// The workloads the paper ran on Xen.
    Xen,
    /// The run's `mixes` multiprogrammed SPEC mixes.
    Mixes,
}

/// A workload or a multiprogrammed mix.
enum Subject {
    Workload(WorkloadKind),
    Mix(SpecMix),
}

impl Subjects {
    /// The workloads of a workload sweep; none for [`Subjects::Mixes`].
    fn workloads(self) -> Vec<WorkloadKind> {
        let suite = WorkloadKind::big_memory_suite();
        match self {
            Subjects::BigMemory => suite.to_vec(),
            Subjects::WithSmallFootprint => [&suite[..], &[WorkloadKind::SmallFootprint]].concat(),
            Subjects::Xen => vec![WorkloadKind::Canneal, WorkloadKind::DataCaching],
            Subjects::Mixes => Vec::new(),
        }
    }

    fn list(self, params: &ExperimentParams, mixes: usize) -> Vec<Subject> {
        match self {
            Subjects::Mixes => SpecMix::generate(mixes, params.seed)
                .into_iter()
                .map(Subject::Mix)
                .collect(),
            _ => self
                .workloads()
                .into_iter()
                .map(Subject::Workload)
                .collect(),
        }
    }
}

impl Subject {
    fn label(&self) -> String {
        match self {
            Subject::Workload(kind) => kind.label().to_string(),
            Subject::Mix(mix) => format!("mix{}", mix.index),
        }
    }

    fn execute(&self, arm: Arm, change: Option<Change>, params: &ExperimentParams) -> SimReport {
        match self {
            Subject::Workload(kind) => execute(&arm.spec(*kind, change), params),
            Subject::Mix(mix) => execute_mix(mix, arm.mechanism, arm.memory_mode, params),
        }
    }
}

/// How a metric column compares an arm's run with the reference run.
#[derive(Clone, Copy)]
enum Measure {
    Runtime,
    Energy,
    /// Runtime saved, in percent.
    Improvement,
    /// The mean of a mix's per-application runtime ratios.
    Weighted,
    /// The largest of a mix's per-application runtime ratios.
    Slowest,
}

impl Measure {
    fn of(self, run: &SimReport, reference: &SimReport) -> f64 {
        match self {
            Measure::Runtime => run.runtime_vs(reference),
            Measure::Energy => run.energy_vs(reference),
            Measure::Improvement => (1.0 - run.runtime_vs(reference)) * 100.0,
            Measure::Weighted => {
                let ratios = per_app_ratios(run, reference);
                if ratios.is_empty() {
                    0.0
                } else {
                    ratios.iter().sum::<f64>() / ratios.len() as f64
                }
            }
            Measure::Slowest => per_app_ratios(run, reference)
                .into_iter()
                .fold(0.0, f64::max),
        }
    }
}

/// Each application's runtime in a mix run over its runtime in the
/// reference run of the same mix (applications idle there are skipped).
fn per_app_ratios(run: &SimReport, reference: &SimReport) -> Vec<f64> {
    reference
        .cycles_per_cpu
        .iter()
        .zip(&run.cycles_per_cpu)
        .filter(|(base, _)| **base > 0)
        .map(|(base, run)| *run as f64 / *base as f64)
        .collect()
}

/// One block of a figure's rows: every arm at every point for every
/// subject, measured against the subject's reference run.
struct Sweep {
    subjects: Subjects,
    points: &'static [Point],
    /// The run the ratios divide by.  An arm equal to it at a point without
    /// a change is the reference run itself.
    reference: Arm,
    arms: &'static [Arm],
    columns: &'static [(&'static str, Measure)],
    /// Whether each point's ratios are averaged over the subjects into one
    /// row per arm, labelled by the point's suffix alone.
    averaged: bool,
}

/// A sweep of the big-memory suite with one plain point, measured against
/// `reference`.
const fn suite(
    reference: Arm,
    arms: &'static [Arm],
    columns: &'static [(&'static str, Measure)],
) -> Sweep {
    Sweep {
        subjects: Subjects::BigMemory,
        points: PLAIN,
        reference,
        arms,
        columns,
        averaged: false,
    }
}

impl Sweep {
    /// The points that fit the run's machine: a vCPU sweep is clipped to
    /// the run's `vcpus`, or runs at `vcpus` alone if no point fits.
    fn points(&self, base: &ExperimentParams) -> Vec<(String, Option<Change>)> {
        let mut points: Vec<_> = self
            .points
            .iter()
            .filter(|(_, change)| !matches!(change, Some(Change::Vcpus(n)) if *n > base.vcpus))
            .map(|(suffix, change)| (suffix.to_string(), *change))
            .collect();
        if points.is_empty() {
            points.push((format!("/v{}", base.vcpus), Some(Change::Vcpus(base.vcpus))));
        }
        points
    }

    fn run(&self, base: &ExperimentParams, mixes: usize, report: &mut ScenarioReport) {
        let subjects = self.subjects.list(base, mixes);
        let points = self.points(base);
        // Each subject's reference run, kept until a point changes the
        // vCPU count.
        let mut references: Vec<Option<(usize, SimReport)>> = vec![None; subjects.len()];
        let mut measure = |i: usize, arm: Arm, change: Option<Change>| -> Vec<f64> {
            let params = match change {
                Some(Change::Vcpus(vcpus)) => base.with_vcpus(vcpus),
                _ => *base,
            };
            let cached = &mut references[i];
            if cached.as_ref().map(|(vcpus, _)| *vcpus) != Some(params.vcpus) {
                *cached = Some((
                    params.vcpus,
                    subjects[i].execute(self.reference, None, &params),
                ));
            }
            let reference = &cached.as_ref().expect("cached above").1;
            let own;
            let run = if arm == self.reference && change.is_none() {
                reference
            } else {
                own = subjects[i].execute(arm, change, &params);
                &own
            };
            self.columns
                .iter()
                .map(|(_, column)| column.of(run, reference))
                .collect()
        };
        let mut push = |label: &str, arm: Arm, values: Vec<f64>| {
            let mut row = Row::new("config", label, &arm.label());
            for ((key, _), value) in self.columns.iter().zip(values) {
                row = row.ratio(key, value);
            }
            report.push(row);
        };
        if self.averaged {
            for (suffix, change) in &points {
                for &arm in self.arms {
                    let mut sums = vec![0.0; self.columns.len()];
                    for i in 0..subjects.len() {
                        for (sum, value) in sums.iter_mut().zip(measure(i, arm, *change)) {
                            *sum += value;
                        }
                    }
                    let n = subjects.len() as f64;
                    push(suffix, arm, sums.into_iter().map(|sum| sum / n).collect());
                }
            }
        } else {
            for (i, subject) in subjects.iter().enumerate() {
                for (suffix, change) in &points {
                    let label = format!("{}{suffix}", subject.label());
                    for &arm in self.arms {
                        push(&label, arm, measure(i, arm, *change));
                    }
                }
            }
        }
    }
}

/// One figure of the paper's evaluation as data: its claim, the canneal
/// run its traces magnify, and the sweeps its rows come from.
struct Figure {
    name: &'static str,
    claim: &'static str,
    probe: (Arm, Option<Change>),
    sweeps: &'static [Sweep],
    gated_metrics: &'static [&'static str],
}

const RUNTIME_VS_NOHBM: &[(&str, Measure)] = &[("runtime_vs_nohbm", Measure::Runtime)];
const VS_SOFTWARE: &[(&str, Measure)] = &[
    ("runtime_vs_software", Measure::Runtime),
    ("energy_vs_software", Measure::Energy),
];
const SW_HATRIC_IDEAL: &[Arm] = &[SOFTWARE, HATRIC, IDEAL];

/// The paper's figures, in presentation order.
const FIGURES: [Figure; 9] = [
    Figure {
        name: "fig2",
        claim: "software translation coherence forfeits much of die-stacked DRAM's \
                paging win (Fig. 2)",
        // The curr-best bar: paged memory under software shootdowns, where
        // the figure's forfeited win comes from.
        probe: (SOFTWARE, None),
        sweeps: &[suite(
            NO_HBM,
            &[NO_HBM, INFINITE_HBM, SOFTWARE, IDEAL],
            RUNTIME_VS_NOHBM,
        )],
        gated_metrics: &["runtime_vs_nohbm"],
    },
    Figure {
        name: "fig7",
        claim: "HATRIC's benefit grows with the vCPU count (Fig. 7)",
        // The software bar at the scenario's full vCPU count: the widest
        // shootdown fan-outs of the sweep.
        probe: (SOFTWARE, None),
        sweeps: &[Sweep {
            points: &[
                ("/v4", Some(Change::Vcpus(4))),
                ("/v8", Some(Change::Vcpus(8))),
                ("/v16", Some(Change::Vcpus(16))),
            ],
            ..suite(NO_HBM, SW_HATRIC_IDEAL, RUNTIME_VS_NOHBM)
        }],
        gated_metrics: &["runtime_vs_nohbm"],
    },
    Figure {
        name: "fig8",
        claim: "HATRIC helps under every KVM paging policy, most where paging is \
                smartest (Fig. 8)",
        // The software bar under the most sophisticated paging policy
        // (migration daemon + prefetching): the remap rate the smarter
        // policies buy their wins with.
        probe: (SOFTWARE, Some(Change::Paging(PagingKnobs::best))),
        sweeps: &[Sweep {
            points: &[
                ("/lru", Some(Change::Paging(PagingKnobs::lru))),
                (
                    "/&mig-dmn",
                    Some(Change::Paging(PagingKnobs::lru_with_daemon)),
                ),
                ("/&pref.", Some(Change::Paging(PagingKnobs::best))),
            ],
            ..suite(NO_HBM, SW_HATRIC_IDEAL, RUNTIME_VS_NOHBM)
        }],
        gated_metrics: &["runtime_vs_nohbm"],
    },
    Figure {
        name: "fig9",
        claim: "bigger translation structures don't close the software-coherence gap \
                (Fig. 9)",
        // The software bar at the largest structure multiplier: the
        // flushes the figure shows bigger structures cannot absorb.
        probe: (SOFTWARE, Some(Change::StructureScale(4))),
        sweeps: &[Sweep {
            points: &[
                ("/1x", Some(Change::StructureScale(1))),
                ("/2x", Some(Change::StructureScale(2))),
                ("/4x", Some(Change::StructureScale(4))),
            ],
            ..suite(NO_HBM, SW_HATRIC_IDEAL, RUNTIME_VS_NOHBM)
        }],
        gated_metrics: &["runtime_vs_nohbm"],
    },
    Figure {
        name: "fig10",
        claim: "software coherence's imprecise targeting punishes whole SPEC mixes; \
                HATRIC fixes throughput and fairness (Fig. 10)",
        // One software-coherence run standing in for a mix member: the
        // imprecise-targeting flushes the mixes suffer from.
        probe: (SOFTWARE, None),
        sweeps: &[Sweep {
            subjects: Subjects::Mixes,
            ..suite(
                NO_HBM,
                &[SOFTWARE, HATRIC],
                &[
                    ("weighted_runtime", Measure::Weighted),
                    ("slowest_runtime", Measure::Slowest),
                ],
            )
        }],
        gated_metrics: &["weighted_runtime", "slowest_runtime"],
    },
    Figure {
        name: "fig11",
        claim: "HATRIC wins performance and energy; 2-byte co-tags suffice (Fig. 11)",
        // The paper's chosen design point: HATRIC with 2-byte co-tags,
        // whose invalidation traffic the energy model charges for.
        probe: (HATRIC, Some(Change::CotagBytes(2))),
        sweeps: &[
            // Left: HATRIC against the best software configuration, per
            // workload.
            Sweep {
                subjects: Subjects::WithSmallFootprint,
                ..suite(SOFTWARE, &[HATRIC], VS_SOFTWARE)
            },
            // Right: the co-tag width, averaged over the big-memory suite.
            Sweep {
                points: &[
                    ("cotag1B", Some(Change::CotagBytes(1))),
                    ("cotag2B", Some(Change::CotagBytes(2))),
                    ("cotag3B", Some(Change::CotagBytes(3))),
                ],
                averaged: true,
                ..suite(SOFTWARE, &[HATRIC], VS_SOFTWARE)
            },
        ],
        gated_metrics: &["runtime_vs_software", "energy_vs_software"],
    },
    Figure {
        name: "fig12",
        claim: "the baseline directory design is the sweet spot (Fig. 12)",
        // Every directory alternative at once: eager sharer updates,
        // fine-grained tracking and no back-invalidations.
        probe: (HATRIC, Some(Change::Variant(DesignVariant::AllCombined))),
        sweeps: &[Sweep {
            points: &[
                ("HATRIC", Some(Change::Variant(DesignVariant::Baseline))),
                (
                    "EGR-dir-update",
                    Some(Change::Variant(DesignVariant::EagerDirUpdate)),
                ),
                (
                    "FG-tracking",
                    Some(Change::Variant(DesignVariant::FineGrainTracking)),
                ),
                (
                    "No-back-inv",
                    Some(Change::Variant(DesignVariant::NoBackInv)),
                ),
                ("All", Some(Change::Variant(DesignVariant::AllCombined))),
            ],
            averaged: true,
            ..suite(SOFTWARE, &[HATRIC], VS_SOFTWARE)
        }],
        gated_metrics: &["runtime_vs_software", "energy_vs_software"],
    },
    Figure {
        name: "fig13",
        claim: "HATRIC beats UNITD++'s TLB-only selective invalidation (Fig. 13)",
        // UNITD++, the hardware contender: its reverse-lookup CAM
        // invalidates TLB entries selectively, but MMU caches and nested
        // TLBs are not covered and must be flushed.
        probe: (UNITD, None),
        sweeps: &[suite(
            NO_HBM,
            &[SOFTWARE, UNITD, HATRIC],
            &[
                ("runtime_vs_nohbm", Measure::Runtime),
                ("energy_vs_nohbm", Measure::Energy),
            ],
        )],
        gated_metrics: &["runtime_vs_nohbm", "energy_vs_nohbm"],
    },
    Figure {
        name: "xen",
        claim: "the mechanism generalises from KVM to Xen (Sec. 6)",
        // Xen's software translation coherence: the costlier shootdown path
        // the generality claim is measured against.
        probe: (SOFTWARE_XEN, None),
        sweeps: &[Sweep {
            subjects: Subjects::Xen,
            ..suite(
                SOFTWARE_XEN,
                &[SOFTWARE_XEN, HATRIC_XEN],
                &[
                    ("runtime_vs_sw", Measure::Runtime),
                    ("improvement_percent", Measure::Improvement),
                ],
            )
        }],
        // The improvement is larger-is-better, so only the ratio gates.
        gated_metrics: &["runtime_vs_sw"],
    },
];

impl Figure {
    /// Whether the figure sweeps SPEC mixes, and so takes a `mixes` key.
    fn has_mixes(&self) -> bool {
        self.sweeps
            .iter()
            .any(|sweep| matches!(sweep.subjects, Subjects::Mixes))
    }

    /// The run's sizing and mix count.
    fn sizing(
        &self,
        params: &Params,
        scale: Scale,
    ) -> Result<(ExperimentParams, usize), ConfigError> {
        if self.has_mixes() {
            let Fig10Params { base, mixes } = Fig10Params::parse(params, scale)?;
            Ok((base, mixes))
        } else {
            Ok((ExperimentParams::parse(params, scale)?, 0))
        }
    }
}

impl Scenario for Figure {
    fn name(&self) -> &'static str {
        self.name
    }

    fn describe(&self) -> &'static str {
        self.claim
    }

    fn resolve(&self, params: &Params, scale: Scale) -> Result<Params, ConfigError> {
        Ok(if self.has_mixes() {
            Fig10Params::parse(params, scale)?.render()
        } else {
            ExperimentParams::parse(params, scale)?.render()
        })
    }

    fn run(&self, params: &Params, scale: Scale) -> Result<ScenarioReport, ConfigError> {
        let (base, mixes) = self.sizing(params, scale)?;
        let mut report = ScenarioReport::new(self.name);
        for sweep in self.sweeps {
            sweep.run(&base, mixes, &mut report);
        }
        Ok(report)
    }

    fn probe(&self, params: &Params, scale: Scale) -> Result<Probe, ConfigError> {
        let (arm, change) = self.probe;
        Ok(Probe::System {
            spec: arm.spec(WorkloadKind::Canneal, change),
            params: self.sizing(params, scale)?.0,
        })
    }

    fn baseline_stem(&self) -> Option<&'static str> {
        Some(self.name)
    }

    fn gated_metrics(&self) -> &'static [&'static str] {
        self.gated_metrics
    }
}

/// A figure sweep's paper axes: its subjects, and each point's label
/// suffix, vCPU count (where the point sets one) and change on a HATRIC
/// run of canneal.
#[cfg(test)]
pub(crate) struct SweepAxes {
    pub(crate) subjects: Vec<WorkloadKind>,
    pub(crate) points: Vec<(&'static str, Option<usize>, RunSpec)>,
}

/// The axes of sweep `index` of the figure `name` in [`FIGURES`].
#[cfg(test)]
pub(crate) fn sweep_axes(name: &str, index: usize) -> SweepAxes {
    let figure = FIGURES.iter().find(|f| f.name == name).expect("a figure");
    let sweep = &figure.sweeps[index];
    let points = sweep
        .points
        .iter()
        .map(|&(suffix, change)| {
            let vcpus = match change {
                Some(Change::Vcpus(n)) => Some(n),
                _ => None,
            };
            (suffix, vcpus, HATRIC.spec(WorkloadKind::Canneal, change))
        })
        .collect();
    SweepAxes {
        subjects: sweep.subjects.workloads(),
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_the_advertised_scenarios() {
        let names: Vec<&str> = registry().iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            vec![
                "multivm",
                "migration_storm",
                "numa_contention",
                "host_scale",
                "cluster_churn",
                "cluster_faults",
                "fig2",
                "fig7",
                "fig8",
                "fig9",
                "fig10",
                "fig11",
                "fig12",
                "fig13",
                "xen"
            ]
        );
        assert!(names.len() >= 5);
        for name in names {
            assert!(find(name).is_some());
        }
        assert!(find("no_such_scenario").is_none());
    }

    #[test]
    fn params_set_get_and_override_in_order() {
        let mut params = Params::new().with("a", 1).with("b", 2);
        params.set("a", 3);
        assert_eq!(params.get("a"), Some("3"));
        assert_eq!(params.entries()[0].0, "a", "set() must keep key order");
        assert_eq!(params.u64("b").unwrap(), 2);
        assert!(matches!(
            params.u64("missing"),
            Err(ConfigError::UnknownParam { .. })
        ));
        params.set("a", "not-a-number");
        assert!(matches!(params.u64("a"), Err(ConfigError::BadValue { .. })));
    }

    #[test]
    fn unknown_override_keys_are_rejected() {
        let scenario = find("multivm").unwrap();
        let overrides = Params::new().with("no_such_knob", 1);
        let err = scenario.run(&overrides, Scale::Smoke).unwrap_err();
        assert_eq!(
            err,
            ConfigError::UnknownParam {
                key: "no_such_knob".into()
            }
        );
    }

    #[test]
    fn params_json_round_trips() {
        let params = find("migration_storm")
            .unwrap()
            .default_params(Scale::Bench);
        let json = params.to_json();
        let back = Params::from_json(&json).unwrap();
        assert_eq!(back, params);
        assert_eq!(back.to_json(), json);
        assert!(Params::from_json("no object here").is_none());
    }

    #[test]
    fn rows_render_the_baseline_json_format() {
        let row = Row::new("pressure", "moderate", "Hatric")
            .ratio("victim_slowdown_vs_ideal", 1.0125)
            .count("ipis", 0);
        assert_eq!(
            row.to_json(),
            "{\"pressure\":\"moderate\",\"mechanism\":\"Hatric\",\
             \"victim_slowdown_vs_ideal\":1.012500,\"ipis\":0}"
        );
        assert_eq!(row.label_key(), "pressure");
        assert_eq!(row.label(), "moderate");
        assert_eq!(row.mechanism(), "Hatric");
        assert_eq!(row.number("ipis"), Some(0.0));
        assert_eq!(row.number("victim_slowdown_vs_ideal"), Some(1.0125));
        assert_eq!(row.number("missing"), None);
    }

    #[test]
    fn report_json_round_trips_byte_stably() {
        let mut report = ScenarioReport::new("demo");
        report.push(
            Row::new("config", "a", "Software")
                .ratio("slowdown", 1.25)
                .count("cycles", 42),
        );
        report.push(
            Row::new("config", "b", "Hatric")
                .ratio("slowdown", 1.0)
                .count("cycles", 7),
        );
        let json = report.to_json();
        let back = ScenarioReport::from_json("demo", &json).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.to_json(), json);
        assert!(ScenarioReport::from_json("demo", "not json").is_none());
        // Records without the (label, mechanism) row shape are a parse
        // failure, not a latent panic in label()/mechanism().
        assert!(ScenarioReport::from_json("demo", "[{\"a\":1,\"b\":2}]").is_none());
        assert!(ScenarioReport::from_json("demo", "[{\"a\":\"x\",\"b\":\"y\"}]").is_none());
    }

    #[test]
    fn meta_record_splices_in_and_parses_back_out() {
        let mut report = ScenarioReport::new("demo");
        report.push(
            Row::new("config", "a", "Software")
                .ratio("slowdown", 1.25)
                .count("cycles", 42),
        );
        let meta = bench_meta_json(Some(4));
        assert!(meta.starts_with("{\"meta\":\"env\",\"nproc\":"));
        assert!(meta.contains("\"threads\":4"));
        assert!(meta.contains("\"phase_simulate_ms\":"));
        assert!(meta.contains("\"phase_serial_commit_ms\":"));
        assert!(meta.contains("\"slices\":"));
        let body = append_meta_record(&report.to_json(), &meta);
        assert!(body.contains(&meta), "meta record must land in the body");
        // The reader skips the trailing meta record: the parsed report is
        // exactly the rows, so gated comparisons never see the metadata.
        let back = ScenarioReport::from_json("demo", &body).unwrap();
        assert_eq!(back, report);
        // Without a threads knob the key is simply absent.
        assert!(!bench_meta_json(None).contains("\"threads\""));
        // Splicing into something that is not a report array is a no-op.
        assert_eq!(append_meta_record("not json", &meta), "not json");
    }

    #[test]
    fn every_scenario_traces_and_only_host_scenarios_sample_timelines() {
        for scenario in registry() {
            // Every registered scenario probes one configuration, and both
            // instruments surface the unknown-param error through it.
            let bogus = Params::new().with("bogus", 1);
            assert!(
                scenario.trace_run(&bogus, Scale::Smoke).is_err(),
                "{}: trace_run override validation",
                scenario.name()
            );
            assert!(
                scenario.timeline_run(&bogus, Scale::Smoke).is_err(),
                "{}: timeline_run override validation",
                scenario.name()
            );
            // The counter sampler runs between the consolidated host's
            // slices, so only host and fleet probes sample a timeline.
            let expects_timeline = !matches!(
                scenario.name(),
                "fig2" | "fig7" | "fig8" | "fig9" | "fig10" | "fig11" | "fig12" | "fig13" | "xen"
            );
            let probe = scenario.probe(&Params::new(), Scale::Smoke).unwrap();
            assert_eq!(
                !matches!(probe, Probe::System { .. }),
                expects_timeline,
                "{}: timeline availability",
                scenario.name()
            );
        }
    }

    #[test]
    fn report_lookup_and_table() {
        let mut report = ScenarioReport::new("demo");
        report.push(Row::new("config", "a", "Software").ratio("slowdown", 1.25));
        report.push(Row::new("config", "a", "Hatric").ratio("slowdown", 1.0));
        assert_eq!(report.labels(), vec!["a"]);
        assert!(report.find("a", "Hatric").is_some());
        assert!(report.find("b", "Hatric").is_none());
        let table = report.format_table();
        assert!(table.contains("scenario: demo"));
        assert!(table.contains("slowdown"));
        assert!(table.contains("1.250000"));
    }

    #[test]
    fn scales_parse_and_label() {
        for scale in [Scale::Smoke, Scale::Bench, Scale::Full] {
            assert_eq!(Scale::parse(scale.label()), Some(scale));
        }
        assert_eq!(Scale::parse("gigantic"), None);
    }

    #[test]
    fn full_scale_doubles_the_bench_phases() {
        for scenario in registry() {
            let bench = scenario.default_params(Scale::Bench);
            let full = scenario.default_params(Scale::Full);
            assert_eq!(full.entries().len(), bench.entries().len());
            for ((key, b), (full_key, f)) in bench.entries().iter().zip(full.entries()) {
                assert_eq!(key, full_key, "{}: key order", scenario.name());
                let phase = key.starts_with("warmup") || key.starts_with("measured");
                let expected = match key.as_str() {
                    _ if phase => (b.parse::<u64>().unwrap() * 2).to_string(),
                    "mixes" => "20".to_string(),
                    _ => b.clone(),
                };
                assert_eq!(f, &expected, "{}: {key} at full scale", scenario.name());
            }
        }
    }

    #[test]
    fn smoke_defaults_are_smaller_than_bench_defaults() {
        for scenario in registry() {
            let smoke = scenario.default_params(Scale::Smoke);
            let bench = scenario.default_params(Scale::Bench);
            let key = ["measured", "measured_slices", "measured_epochs"]
                .into_iter()
                .find(|k| smoke.get(k).is_some())
                .expect("every scenario sizes a measured phase");
            assert!(
                smoke.u64(key).unwrap() < bench.u64(key).unwrap(),
                "{}: smoke must be smaller than bench",
                scenario.name()
            );
        }
    }
}
