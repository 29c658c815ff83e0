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
//!   keys are rejected with a typed [`ConfigError`].
//! * [`ScenarioReport`] is the one output schema: labelled
//!   `(config, mechanism) → metrics` [`Row`]s whose JSON form is exactly
//!   the `BENCH_*.json` format the benches have always committed — the
//!   migration onto this API left the baselines byte-identical.
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

use hatric::experiments::{
    execute_traced, fig10, fig11, fig2, fig7, fig8, fig9, xen, ExperimentParams, RunSpec,
};
use hatric::metrics::HostReport;
use hatric::telemetry::{global_phase_totals, CounterTimeline, EnginePhase};
use hatric::{PagingKnobs, WorkloadKind};
use hatric_cluster::PlacementPolicy;
use hatric_coherence::CoherenceMechanism;
use hatric_hypervisor::{NumaPolicy, SchedPolicy};
use hatric_types::ConfigError;

use crate::config::HostConfig;
use crate::experiments::{
    cluster_churn, cluster_faults, host_scale, migration_storm, multivm, numa_contention,
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
    /// trajectory files are recorded at and `bench_check` re-runs.
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

    /// Overlays `overrides` onto `self`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::UnknownParam`] if an override key is not part
    /// of this parameter set — every scenario pre-populates its full key
    /// set, so an unknown key is a typo, not a new knob.
    pub fn apply(&mut self, overrides: &Params) -> Result<(), ConfigError> {
        for (key, value) in &overrides.entries {
            if self.get(key).is_none() {
                return Err(ConfigError::UnknownParam { key: key.clone() });
            }
            self.set(key, value);
        }
        Ok(())
    }

    /// Parses `key` as a `u64`.
    ///
    /// # Errors
    ///
    /// [`ConfigError::UnknownParam`] if the key is absent,
    /// [`ConfigError::BadValue`] if it does not parse.
    pub fn u64(&self, key: &str) -> Result<u64, ConfigError> {
        self.parsed(key)
    }

    /// Parses `key` as a `usize`.
    ///
    /// # Errors
    ///
    /// As for [`Params::u64`].
    pub fn usize(&self, key: &str) -> Result<usize, ConfigError> {
        self.parsed(key)
    }

    /// Parses `key` as an `f64`.
    ///
    /// # Errors
    ///
    /// As for [`Params::u64`].
    pub fn f64(&self, key: &str) -> Result<f64, ConfigError> {
        self.parsed(key)
    }

    /// Parses `key` as a `u32`.
    ///
    /// # Errors
    ///
    /// As for [`Params::u64`].
    pub fn u32(&self, key: &str) -> Result<u32, ConfigError> {
        self.parsed(key)
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str) -> Result<T, ConfigError> {
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
// The Scenario trait and registry
// ---------------------------------------------------------------------------

/// One experiment, as a uniform, registry-discoverable unit: a name, a
/// one-line claim, a declarative parameter set per [`Scale`], and a runner
/// that yields a [`ScenarioReport`].
pub trait Scenario: Sync {
    /// Registry name (what `scenarios run <name>` takes).
    fn name(&self) -> &'static str;

    /// The one-line claim this scenario demonstrates.
    fn describe(&self) -> &'static str;

    /// The full parameter set at `scale` — every key this scenario accepts,
    /// with its default value.  Overrides outside this key set are rejected
    /// by [`Scenario::run`].
    fn default_params(&self, scale: Scale) -> Params;

    /// Runs the scenario with `params` overlaid on the defaults at `scale`.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for unknown/unparseable parameter
    /// overrides or a parameter combination that fails host validation.
    fn run(&self, params: &Params, scale: Scale) -> Result<ScenarioReport, ConfigError>;

    /// Runs **one representative traced configuration** of this scenario
    /// (with `params` overlaid on the defaults at `scale`) and returns the
    /// Chrome trace-event JSON — what `scenarios run <name> --trace out.json`
    /// writes.  The default is `None` for scenarios with nothing to trace;
    /// every registered scenario overrides it (host scenarios through their
    /// [`ConsolidatedHost`], figure scenarios through the single-VM
    /// [`hatric::System`]).
    ///
    /// Scenarios trace a single sweep point under one mechanism (software
    /// shootdowns where the sweep includes them, for the richest remap →
    /// IPI fan-out → ack lifecycles) rather than re-running the whole
    /// matrix: a trace is a magnifying glass, not a report.
    fn trace_run(&self, params: &Params, scale: Scale) -> Option<Result<String, ConfigError>> {
        let _ = (params, scale);
        None
    }

    /// Runs **one representative configuration** with the commit-barrier
    /// counter sampler enabled and returns its [`CounterTimeline`] — what
    /// `scenarios run <name> --timeline out.json` exports as Chrome counter
    /// events plus a CSV sibling.  The default is `None`: the sampler hooks
    /// the consolidated host's commit barrier, so scenarios built on the
    /// single-VM [`hatric::System`] (`fig2`, `fig7`, `fig8`, `fig9`,
    /// `fig10`, `xen`) have no timeline to sample.
    fn timeline_run(
        &self,
        params: &Params,
        scale: Scale,
    ) -> Option<Result<CounterTimeline, ConfigError>> {
        let _ = (params, scale);
        None
    }

    /// Stem of this scenario's committed baseline trajectory
    /// (`BENCH_<stem>.json` at the workspace root), or `None` if the
    /// scenario has no committed baseline.
    fn baseline_stem(&self) -> Option<&'static str> {
        None
    }

    /// Row metrics the `bench_check` CI gate compares against the committed
    /// baseline (smaller-is-better semantics).  Empty means ungated.
    fn gated_metrics(&self) -> &'static [&'static str] {
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
        &Fig2Scenario,
        &Fig7Scenario,
        &Fig8Scenario,
        &Fig9Scenario,
        &Fig10Scenario,
        &Fig11Scenario,
        &XenScenario,
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

/// Resolves the effective parameters of a scenario run: the scenario's
/// defaults at `scale` with `overrides` applied.
///
/// # Errors
///
/// Returns [`ConfigError::UnknownParam`] for override keys the scenario
/// does not accept.
pub fn resolve_params(
    scenario: &dyn Scenario,
    overrides: &Params,
    scale: Scale,
) -> Result<Params, ConfigError> {
    let mut params = scenario.default_params(scale);
    params.apply(overrides)?;
    Ok(params)
}

fn mechanism_label(mechanism: CoherenceMechanism) -> String {
    format!("{mechanism:?}")
}

// ---------------------------------------------------------------------------
// Shared row plumbing, tracing and bench metadata
// ---------------------------------------------------------------------------

/// Appends the row tail every host scenario shares: the machine-dependent
/// wall-clock columns (`elapsed_ms`, `accesses_per_sec` — never gated,
/// stripped by the determinism cross-checks), the deterministic
/// latency-distribution percentiles the run accumulated — p50/p99, in
/// simulated cycles, of nested-walk latency, shootdown completion latency
/// and DRAM queueing delay — and the per-remap causal-attribution columns
/// ([`attribution_columns`]).  One helper instead of four hand-rolled
/// copies keeps the column set identical across scenarios.
fn timing_columns(row: Row, report: &HostReport, elapsed_ms: f64, accesses_per_sec: f64) -> Row {
    let lat = &report.host.latency;
    let timed = row
        .ratio("elapsed_ms", elapsed_ms)
        .ratio("accesses_per_sec", accesses_per_sec)
        .count("walk_p50", lat.walk.p50())
        .count("walk_p99", lat.walk.p99())
        .count("shootdown_p50", lat.shootdown.p50())
        .count("shootdown_p99", lat.shootdown.p99())
        .count("dram_queue_p50", lat.dram_queue.p50())
        .count("dram_queue_p99", lat.dram_queue.p99());
    attribution_columns(timed, report)
}

/// Appends the per-remap causal-attribution columns (never gated): how many
/// distinct remaps the run's causal ledger charged disruption to, the summed
/// victim cycles they inflicted, and the single costliest remap — its id
/// (`vm<slot>#<ordinal>`), its victim cycles and its share of the total.
/// Deterministic like every model metric, but new columns stay out of the
/// gate so committed baselines never need regenerating for observability.
fn attribution_columns(row: Row, report: &HostReport) -> Row {
    let causal = &report.host.causal;
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

/// Spans a traced scenario run keeps before the ring starts evicting the
/// oldest.  Sized for a bench-scale run; smoke traces fit with room to
/// spare.
const TRACE_CAPACITY: usize = 1 << 16;

/// Runs `config` with sim-time tracing enabled and returns the Chrome
/// trace-event JSON document ([`Scenario::trace_run`]'s workhorse).
fn traced_host_run(config: HostConfig, warmup: u64, measured: u64) -> Result<String, ConfigError> {
    config.validate()?;
    let mut host = ConsolidatedHost::new(config).expect("the configuration was just validated");
    host.enable_tracing(TRACE_CAPACITY);
    host.run(warmup, measured);
    Ok(host.export_trace().expect("tracing was enabled above"))
}

/// Samples a timeline run targets roughly this many points across its
/// measured phase, independent of scale — enough resolution to see phase
/// structure, few enough that the export stays small.
const TIMELINE_TARGET_SAMPLES: u64 = 256;

/// Runs `config` with commit-barrier counter sampling enabled and returns
/// the recorded timeline ([`Scenario::timeline_run`]'s workhorse).  The
/// warmup phase is sampled too, then discarded with the other warmup
/// measurements, so the timeline covers exactly the measured slices.
fn timeline_host_run(
    config: HostConfig,
    warmup: u64,
    measured: u64,
) -> Result<CounterTimeline, ConfigError> {
    config.validate()?;
    let mut host = ConsolidatedHost::new(config).expect("the configuration was just validated");
    host.enable_timeline((measured / TIMELINE_TARGET_SAMPLES).max(1));
    host.run(warmup, measured);
    Ok(host
        .timeline()
        .expect("the timeline was enabled above")
        .clone())
}

/// Runs one traced single-VM figure configuration and returns the Chrome
/// trace-event JSON (the [`Scenario::trace_run`] workhorse of the figure
/// scenarios, mirroring [`traced_host_run`] for [`hatric::System`] runs).
fn traced_system_run(spec: &RunSpec, params: &ExperimentParams) -> String {
    let (_report, trace) = execute_traced(spec, params, TRACE_CAPACITY);
    trace
}

/// Renders the ungated environment-metadata record the JSON writers append
/// after a report's rows: host parallelism, the run's worker-thread count
/// (when the scenario has one) and the wall-clock totals the slice engine
/// has spent in each phase so far in this process.  The record's first key
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
/// only at the writer layer — `scenarios run --json` and the bench
/// baseline writer — so `Scenario::run` output itself stays byte-identical
/// with and without metadata.
#[must_use]
pub fn append_meta_record(json: &str, meta: &str) -> String {
    match json.rfind("\n]") {
        Some(pos) => format!("{},\n  {meta}{}", &json[..pos], &json[pos..]),
        None => json.to_string(),
    }
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

impl MultivmScenario {
    fn base(scale: Scale) -> MultiVmParams {
        match scale {
            Scale::Smoke => MultiVmParams::quick(),
            Scale::Bench => MultiVmParams::default_scale(),
            Scale::Full => {
                let mut p = MultiVmParams::default_scale();
                p.warmup_slices *= 2;
                p.measured_slices *= 2;
                p
            }
        }
    }

    fn typed(params: &Params) -> Result<MultiVmParams, ConfigError> {
        Ok(MultiVmParams {
            num_pcpus: params.usize("num_pcpus")?,
            fast_pages: params.u64("fast_pages")?,
            aggressor_vcpus: params.usize("aggressor_vcpus")?,
            victims: params.usize("victims")?,
            victim_vcpus: params.usize("victim_vcpus")?,
            warmup_slices: params.u64("warmup_slices")?,
            measured_slices: params.u64("measured_slices")?,
            slice_accesses: params.u64("slice_accesses")?,
            sched: SchedPolicy::RoundRobin,
            seed: params.u64("seed")?,
            threads: params.usize("threads")?,
            aggressor_footprint_factor: 1.0,
        })
    }
}

impl Scenario for MultivmScenario {
    fn name(&self) -> &'static str {
        "multivm"
    }

    fn describe(&self) -> &'static str {
        "one VM's remap storm steals cycles from co-located victims only under \
         software shootdowns"
    }

    fn default_params(&self, scale: Scale) -> Params {
        let base = Self::base(scale);
        Params::new()
            .with("num_pcpus", base.num_pcpus)
            .with("fast_pages", base.fast_pages)
            .with("aggressor_vcpus", base.aggressor_vcpus)
            .with("victims", base.victims)
            .with("victim_vcpus", base.victim_vcpus)
            .with("warmup_slices", base.warmup_slices)
            .with("measured_slices", base.measured_slices)
            .with("slice_accesses", base.slice_accesses)
            .with("seed", base.seed)
            .with("threads", base.threads)
    }

    fn run(&self, params: &Params, scale: Scale) -> Result<ScenarioReport, ConfigError> {
        let merged = resolve_params(self, params, scale)?;
        let base = Self::typed(&merged)?;
        // Validate every sweep point up front so a bad parameter
        // combination surfaces as a typed error, not a panic mid-sweep.
        for (_, factor) in PRESSURE_SWEEP {
            base.with_aggressor_footprint_factor(factor)
                .host_config(CoherenceMechanism::Software)
                .validate()?;
        }
        let mut report = ScenarioReport::new(self.name());
        for (pressure, factor) in PRESSURE_SWEEP {
            let rows = multivm::run(&base.with_aggressor_footprint_factor(factor));
            for row in &rows {
                let built = Row::new("pressure", pressure, &mechanism_label(row.mechanism))
                    .ratio("victim_slowdown_vs_ideal", row.victim_slowdown_vs_ideal)
                    .count("victim_disrupted_cycles", row.victim_disrupted_cycles)
                    .count("aggressor_remaps", row.aggressor_remaps)
                    .count("ipis", row.report.host.coherence.ipis)
                    .count(
                        "coherence_vm_exits",
                        row.report.host.coherence.coherence_vm_exits,
                    )
                    .count("host_runtime_cycles", row.report.host.runtime_cycles());
                report.push(timing_columns(
                    built,
                    &row.report,
                    row.elapsed_ms,
                    row.accesses_per_sec,
                ));
            }
        }
        Ok(report)
    }

    fn trace_run(&self, params: &Params, scale: Scale) -> Option<Result<String, ConfigError>> {
        let traced = resolve_params(self, params, scale)
            .and_then(|merged| Self::typed(&merged))
            .and_then(|base| {
                // The severe sweep point under software shootdowns: the
                // most remap traffic the scenario generates.
                let point = base.with_aggressor_footprint_factor(2.0);
                traced_host_run(
                    point.host_config(CoherenceMechanism::Software),
                    point.warmup_slices,
                    point.measured_slices,
                )
            });
        Some(traced)
    }

    fn timeline_run(
        &self,
        params: &Params,
        scale: Scale,
    ) -> Option<Result<CounterTimeline, ConfigError>> {
        let timeline = resolve_params(self, params, scale)
            .and_then(|merged| Self::typed(&merged))
            .and_then(|base| {
                // The same severe software point the trace magnifies.
                let point = base.with_aggressor_footprint_factor(2.0);
                timeline_host_run(
                    point.host_config(CoherenceMechanism::Software),
                    point.warmup_slices,
                    point.measured_slices,
                )
            });
        Some(timeline)
    }

    fn baseline_stem(&self) -> Option<&'static str> {
        Some("multivm")
    }

    fn gated_metrics(&self) -> &'static [&'static str] {
        &["victim_slowdown_vs_ideal"]
    }
}

// ---------------------------------------------------------------------------
// migration_storm
// ---------------------------------------------------------------------------

/// The live-migration remap-storm scenario (`migration_storm`): a plain
/// pre-copy storm, a slow-link variant and a concurrent balloon, each under
/// every mechanism.
pub struct MigrationStormScenario;

impl MigrationStormScenario {
    fn base(scale: Scale) -> MigrationStormParams {
        match scale {
            Scale::Smoke => MigrationStormParams::quick(),
            Scale::Bench => MigrationStormParams::default_scale(),
            Scale::Full => {
                let mut p = MigrationStormParams::default_scale();
                p.warmup_slices *= 2;
                p.measured_slices *= 2;
                p
            }
        }
    }

    /// Balloon size of the `with_balloon` sweep point.  At bench scale 300
    /// pages squeeze victim 1 well below its ~307-page footprint, producing
    /// a sustained post-balloon remap storm; the smoke host is a quarter
    /// the size, so the balloon shrinks with it.
    fn balloon_pages(scale: Scale) -> u64 {
        match scale {
            Scale::Smoke => 64,
            Scale::Bench | Scale::Full => 300,
        }
    }

    fn typed(params: &Params) -> Result<MigrationStormParams, ConfigError> {
        Ok(MigrationStormParams {
            num_pcpus: params.usize("num_pcpus")?,
            fast_pages: params.u64("fast_pages")?,
            migrant_vcpus: params.usize("migrant_vcpus")?,
            victims: params.usize("victims")?,
            victim_vcpus: params.usize("victim_vcpus")?,
            warmup_slices: params.u64("warmup_slices")?,
            measured_slices: params.u64("measured_slices")?,
            slice_accesses: params.u64("slice_accesses")?,
            sched: SchedPolicy::RoundRobin,
            seed: params.u64("seed")?,
            threads: params.usize("threads")?,
            copy_pages_per_slice: params.u64("copy_pages_per_slice")?,
            dirty_page_threshold: params.u64("dirty_page_threshold")?,
            max_rounds: params.u32("max_rounds")?,
            page_copy_cycles: params.u64("page_copy_cycles")?,
            balloon_pages: 0,
        })
    }
}

impl Scenario for MigrationStormScenario {
    fn name(&self) -> &'static str {
        "migration_storm"
    }

    fn describe(&self) -> &'static str {
        "live-migration downtime and bystander slowdown collapse under HATRIC"
    }

    fn default_params(&self, scale: Scale) -> Params {
        let base = Self::base(scale);
        Params::new()
            .with("num_pcpus", base.num_pcpus)
            .with("fast_pages", base.fast_pages)
            .with("migrant_vcpus", base.migrant_vcpus)
            .with("victims", base.victims)
            .with("victim_vcpus", base.victim_vcpus)
            .with("warmup_slices", base.warmup_slices)
            .with("measured_slices", base.measured_slices)
            .with("slice_accesses", base.slice_accesses)
            .with("seed", base.seed)
            .with("copy_pages_per_slice", base.copy_pages_per_slice)
            .with("dirty_page_threshold", base.dirty_page_threshold)
            .with("max_rounds", base.max_rounds)
            .with("page_copy_cycles", base.page_copy_cycles)
            .with("threads", base.threads)
    }

    fn run(&self, params: &Params, scale: Scale) -> Result<ScenarioReport, ConfigError> {
        let merged = resolve_params(self, params, scale)?;
        let base = Self::typed(&merged)?;
        // The sweep the `migration_downtime` bench committed as its
        // baseline: plain pre-copy, a slow-link variant (more rounds,
        // bigger residue) and a migration with a concurrent balloon.
        let sweep = [
            ("precopy", base),
            ("slow_link", base.with_copy_pages_per_slice(24)),
            (
                "with_balloon",
                base.with_balloon_pages(Self::balloon_pages(scale)),
            ),
        ];
        // Validate every sweep point up front so a bad parameter
        // combination surfaces as a typed error, not a panic mid-sweep.
        for (_, point) in &sweep {
            point.host_config(CoherenceMechanism::Software).validate()?;
        }
        let mut report = ScenarioReport::new(self.name());
        for (label, point) in sweep {
            let rows = migration_storm::run(&point);
            for row in &rows {
                let built = Row::new("scenario", label, &mechanism_label(row.mechanism))
                    .count("downtime_cycles", row.downtime_cycles)
                    .ratio("victim_slowdown_vs_ideal", row.victim_slowdown_vs_ideal)
                    .count("victim_disrupted_cycles", row.victim_disrupted_cycles)
                    .count("migration_remaps", row.migration_remaps)
                    .count("precopy_rounds", row.precopy_rounds)
                    .count("pages_copied", row.pages_copied)
                    .count("host_runtime_cycles", row.report.host.runtime_cycles());
                report.push(timing_columns(
                    built,
                    &row.report,
                    row.elapsed_ms,
                    row.accesses_per_sec,
                ));
            }
        }
        Ok(report)
    }

    fn trace_run(&self, params: &Params, scale: Scale) -> Option<Result<String, ConfigError>> {
        let traced = resolve_params(self, params, scale)
            .and_then(|merged| Self::typed(&merged))
            .and_then(|base| {
                // The plain pre-copy storm under software shootdowns: the
                // full lifecycle — write-protect remap fan-outs each round,
                // then the stop-and-copy downtime burst — in one track set.
                traced_host_run(
                    base.host_config(CoherenceMechanism::Software),
                    base.warmup_slices,
                    base.measured_slices,
                )
            });
        Some(traced)
    }

    fn timeline_run(
        &self,
        params: &Params,
        scale: Scale,
    ) -> Option<Result<CounterTimeline, ConfigError>> {
        let timeline = resolve_params(self, params, scale)
            .and_then(|merged| Self::typed(&merged))
            .and_then(|base| {
                // The plain pre-copy storm under software shootdowns: the
                // dirty-page gauge drains round by round while the
                // shootdown-target gauge spikes with each write-protect
                // fan-out.
                timeline_host_run(
                    base.host_config(CoherenceMechanism::Software),
                    base.warmup_slices,
                    base.measured_slices,
                )
            });
        Some(timeline)
    }

    fn baseline_stem(&self) -> Option<&'static str> {
        Some("migration")
    }

    fn gated_metrics(&self) -> &'static [&'static str] {
        &["victim_slowdown_vs_ideal", "downtime_cycles"]
    }
}

// ---------------------------------------------------------------------------
// numa_contention
// ---------------------------------------------------------------------------

/// The NUMA socket-sweep scenario (`numa_contention`): capacity and CPU
/// count fixed, socket count — and with it the remote-access ratio — rises,
/// plus a socket-affine counterpoint configuration.
pub struct NumaContentionScenario;

impl NumaContentionScenario {
    fn base(scale: Scale) -> NumaContentionParams {
        match scale {
            Scale::Smoke => NumaContentionParams::quick(),
            Scale::Bench => NumaContentionParams::default_scale(),
            Scale::Full => {
                let mut p = NumaContentionParams::default_scale();
                p.warmup_slices *= 2;
                p.measured_slices *= 2;
                p
            }
        }
    }

    fn typed(params: &Params) -> Result<NumaContentionParams, ConfigError> {
        Ok(NumaContentionParams {
            num_pcpus: params.usize("num_pcpus")?,
            sockets: 1,
            fast_pages: params.u64("fast_pages")?,
            aggressor_vcpus: params.usize("aggressor_vcpus")?,
            victims: params.usize("victims")?,
            victim_vcpus: params.usize("victim_vcpus")?,
            warmup_slices: params.u64("warmup_slices")?,
            measured_slices: params.u64("measured_slices")?,
            slice_accesses: params.u64("slice_accesses")?,
            numa_policy: NumaPolicy::Interleaved,
            sched: SchedPolicy::RoundRobin,
            seed: params.u64("seed")?,
            threads: params.usize("threads")?,
            aggressor_footprint_factor: params.f64("aggressor_footprint_factor")?,
        })
    }
}

impl Scenario for NumaContentionScenario {
    fn name(&self) -> &'static str {
        "numa_contention"
    }

    fn describe(&self) -> &'static str {
        "HATRIC's victim-slowdown advantage widens as the remote-socket access \
         ratio rises"
    }

    fn default_params(&self, scale: Scale) -> Params {
        let base = Self::base(scale);
        Params::new()
            .with("num_pcpus", base.num_pcpus)
            .with("fast_pages", base.fast_pages)
            .with("aggressor_vcpus", base.aggressor_vcpus)
            .with("victims", base.victims)
            .with("victim_vcpus", base.victim_vcpus)
            .with("warmup_slices", base.warmup_slices)
            .with("measured_slices", base.measured_slices)
            .with("slice_accesses", base.slice_accesses)
            .with("seed", base.seed)
            .with(
                "aggressor_footprint_factor",
                base.aggressor_footprint_factor,
            )
            .with("threads", base.threads)
    }

    /// # Panics
    ///
    /// A *default-parameter* run at [`Scale::Bench`] or [`Scale::Full`]
    /// (what the bench and the `bench_check` CI gate execute) asserts the
    /// scenario's headline claim (HATRIC's victim slowdown never exceeds
    /// software's; the software-vs-HATRIC gap widens strictly monotonically
    /// across the interleaved series) and panics if a model change broke
    /// it.  Runs with parameter overrides are user-driven exploration and
    /// skip the claim check — an overridden machine is allowed to weaken
    /// the storm.
    fn run(&self, params: &Params, scale: Scale) -> Result<ScenarioReport, ConfigError> {
        let merged = resolve_params(self, params, scale)?;
        let base = Self::typed(&merged)?;
        // The socket sweep the `numa_contention` bench committed as its
        // baseline: capacity and CPU count fixed while the socket count —
        // and the interleaved remote-access ratio — rises, then a
        // socket-affine configuration clawing the software penalty back.
        let sweep = [
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
        for (_, point) in &sweep {
            point.host_config(CoherenceMechanism::Software).validate()?;
        }
        let assert_claim = scale != Scale::Smoke && params.entries().is_empty();
        let mut report = ScenarioReport::new(self.name());
        let mut interleaved_gaps: Vec<(f64, f64)> = Vec::new(); // (remote ratio, gap)
        for (label, point) in sweep {
            let rows = numa_contention::run(&point);
            if assert_claim {
                let by = |m: CoherenceMechanism| {
                    rows.iter()
                        .find(|r| r.mechanism == m)
                        .expect("run() emits every mechanism")
                };
                let software = by(CoherenceMechanism::Software);
                let hatric = by(CoherenceMechanism::Hatric);
                assert!(
                    hatric.victim_slowdown_vs_ideal <= software.victim_slowdown_vs_ideal,
                    "{label}: HATRIC victim slowdown {} exceeds software's {}",
                    hatric.victim_slowdown_vs_ideal,
                    software.victim_slowdown_vs_ideal
                );
                if label != "numa2_affine" {
                    interleaved_gaps.push((
                        software.remote_access_ratio,
                        software.victim_slowdown_vs_ideal - hatric.victim_slowdown_vs_ideal,
                    ));
                }
            }
            for row in &rows {
                let built = Row::new("config", label, &mechanism_label(row.mechanism))
                    .ratio("victim_slowdown_vs_ideal", row.victim_slowdown_vs_ideal)
                    .count("victim_disrupted_cycles", row.victim_disrupted_cycles)
                    .ratio("remote_access_ratio", row.remote_access_ratio)
                    .ratio("remote_target_ratio", row.remote_target_ratio)
                    .count("aggressor_remaps", row.aggressor_remaps)
                    .count("host_runtime_cycles", row.report.host.runtime_cycles());
                report.push(timing_columns(
                    built,
                    &row.report,
                    row.elapsed_ms,
                    row.accesses_per_sec,
                ));
            }
        }
        if assert_claim {
            assert!(
                interleaved_gaps.windows(2).all(|w| w[0].0 < w[1].0),
                "remote-access ratio must rise across the interleaved series: \
                 {interleaved_gaps:?}"
            );
            assert!(
                interleaved_gaps.windows(2).all(|w| w[0].1 < w[1].1),
                "the software-vs-HATRIC gap must widen monotonically with the \
                 remote-access ratio: {interleaved_gaps:?}"
            );
        }
        Ok(report)
    }

    fn trace_run(&self, params: &Params, scale: Scale) -> Option<Result<String, ConfigError>> {
        let traced = resolve_params(self, params, scale)
            .and_then(|merged| Self::typed(&merged))
            .and_then(|base| {
                // The two-socket interleaved point under software
                // shootdowns: cross-socket invalidation acks dominate.
                let point = base.with_sockets(2);
                traced_host_run(
                    point.host_config(CoherenceMechanism::Software),
                    point.warmup_slices,
                    point.measured_slices,
                )
            });
        Some(traced)
    }

    fn timeline_run(
        &self,
        params: &Params,
        scale: Scale,
    ) -> Option<Result<CounterTimeline, ConfigError>> {
        let timeline = resolve_params(self, params, scale)
            .and_then(|merged| Self::typed(&merged))
            .and_then(|base| {
                // The same two-socket interleaved software point the trace
                // magnifies.
                let point = base.with_sockets(2);
                timeline_host_run(
                    point.host_config(CoherenceMechanism::Software),
                    point.warmup_slices,
                    point.measured_slices,
                )
            });
        Some(timeline)
    }

    fn baseline_stem(&self) -> Option<&'static str> {
        Some("numa")
    }

    fn gated_metrics(&self) -> &'static [&'static str] {
        &["victim_slowdown_vs_ideal"]
    }
}

// ---------------------------------------------------------------------------
// host_scale
// ---------------------------------------------------------------------------

/// The simulator-throughput scaling scenario (`host_scale`): one HATRIC
/// host swept over total vCPUs × slice-engine threads.  Model metrics are
/// bit-identical across thread counts (the engine's determinism
/// contract, cross-checked by `bench_check`); the timing columns record
/// the wall-clock speedup multithreading buys on the running machine.
pub struct HostScaleScenario;

impl HostScaleScenario {
    fn base(scale: Scale) -> HostScaleParams {
        match scale {
            Scale::Smoke => HostScaleParams::quick(),
            Scale::Bench => HostScaleParams::default_scale(),
            Scale::Full => {
                let mut p = HostScaleParams::default_scale();
                p.warmup_slices *= 2;
                p.measured_slices *= 2;
                p
            }
        }
    }

    fn typed(params: &Params) -> Result<HostScaleParams, ConfigError> {
        Ok(HostScaleParams {
            vcpus_min: params.usize("vcpus_min")?,
            vcpus_max: params.usize("vcpus_max")?,
            threads_max: params.usize("threads_max")?,
            fast_pages_per_vcpu: params.u64("fast_pages_per_vcpu")?,
            warmup_slices: params.u64("warmup_slices")?,
            measured_slices: params.u64("measured_slices")?,
            slice_accesses: params.u64("slice_accesses")?,
            seed: params.u64("seed")?,
        })
    }
}

impl Scenario for HostScaleScenario {
    fn name(&self) -> &'static str {
        "host_scale"
    }

    fn describe(&self) -> &'static str {
        "the phased slice engine is bit-deterministic across thread counts \
         and scales simulator throughput with them"
    }

    fn default_params(&self, scale: Scale) -> Params {
        let base = Self::base(scale);
        Params::new()
            .with("vcpus_min", base.vcpus_min)
            .with("vcpus_max", base.vcpus_max)
            .with("threads_max", base.threads_max)
            .with("fast_pages_per_vcpu", base.fast_pages_per_vcpu)
            .with("warmup_slices", base.warmup_slices)
            .with("measured_slices", base.measured_slices)
            .with("slice_accesses", base.slice_accesses)
            .with("seed", base.seed)
    }

    fn run(&self, params: &Params, scale: Scale) -> Result<ScenarioReport, ConfigError> {
        let merged = resolve_params(self, params, scale)?;
        let base = Self::typed(&merged)?;
        for vcpus in base.vcpu_points() {
            base.host_config(vcpus, 1).validate()?;
        }
        let mut report = ScenarioReport::new(self.name());
        for row in host_scale::run(&base) {
            let built = Row::new(
                "config",
                &format!("v{}_t{}", row.vcpus, row.threads),
                "Hatric",
            )
            .count("vcpus", row.vcpus as u64)
            .count("threads", row.threads as u64)
            .count("host_runtime_cycles", row.report.host.runtime_cycles())
            .count("accesses", row.report.host.accesses)
            .count("aggressor_remaps", row.report.per_vm[0].coherence.remaps)
            .count(
                "host_disrupted_cycles",
                row.report.host.interference.disrupted_cycles,
            );
            report.push(timing_columns(
                built,
                &row.report,
                row.elapsed_ms,
                row.accesses_per_sec,
            ));
        }
        Ok(report)
    }

    fn trace_run(&self, params: &Params, scale: Scale) -> Option<Result<String, ConfigError>> {
        let traced = resolve_params(self, params, scale)
            .and_then(|merged| Self::typed(&merged))
            .and_then(|base| {
                // The largest machine at the full thread count: one traced
                // run showing the HATRIC host the sweep peaks at.
                let vcpus = base.vcpus_max;
                traced_host_run(
                    base.host_config(vcpus, base.threads_max),
                    base.warmup_slices,
                    base.measured_slices,
                )
            });
        Some(traced)
    }

    fn timeline_run(
        &self,
        params: &Params,
        scale: Scale,
    ) -> Option<Result<CounterTimeline, ConfigError>> {
        let timeline = resolve_params(self, params, scale)
            .and_then(|merged| Self::typed(&merged))
            .and_then(|base| {
                // The same peak machine the trace magnifies.
                let vcpus = base.vcpus_max;
                timeline_host_run(
                    base.host_config(vcpus, base.threads_max),
                    base.warmup_slices,
                    base.measured_slices,
                )
            });
        Some(timeline)
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

impl ClusterChurnScenario {
    fn base(scale: Scale) -> ClusterChurnParams {
        match scale {
            Scale::Smoke => ClusterChurnParams::quick(),
            Scale::Bench => ClusterChurnParams::default_scale(),
            Scale::Full => {
                let mut p = ClusterChurnParams::default_scale();
                p.warmup_epochs *= 2;
                p.measured_epochs *= 2;
                p
            }
        }
    }

    fn typed(params: &Params) -> Result<ClusterChurnParams, ConfigError> {
        let policy_label = params
            .get("policy")
            .ok_or_else(|| ConfigError::UnknownParam {
                key: "policy".to_string(),
            })?;
        let policy = PlacementPolicy::parse(policy_label).map_err(|_| ConfigError::BadValue {
            key: "policy".to_string(),
            value: policy_label.to_string(),
        })?;
        Ok(ClusterChurnParams {
            hosts: params.usize("hosts")?,
            num_pcpus: params.usize("num_pcpus")?,
            fast_pages: params.u64("fast_pages")?,
            active_vms: params.usize("active_vms")?,
            spare_slots: params.usize("spare_slots")?,
            vm_vcpus: params.usize("vm_vcpus")?,
            epoch_slices: params.u64("epoch_slices")?,
            warmup_epochs: params.u64("warmup_epochs")?,
            measured_epochs: params.u64("measured_epochs")?,
            slice_accesses: params.u64("slice_accesses")?,
            seed: params.u64("seed")?,
            threads: params.usize("threads")?,
            churn_period: params.u64("churn_period")?,
            copy_pages_per_slice: params.u64("copy_pages_per_slice")?,
            throttle_after_rounds: params.u32("throttle_after_rounds")?,
            policy,
        })
    }

    /// Validates a sizing without building the fleet (slot-count and
    /// capacity invariants surface as typed errors, not panics).
    fn validate(base: &ClusterChurnParams) -> Result<(), ConfigError> {
        // `Cluster::new` asserts on all three; reject them here instead.
        for (key, value) in [
            ("hosts", base.hosts as u64),
            ("epoch_slices", base.epoch_slices),
        ] {
            if value == 0 {
                return Err(ConfigError::BadValue {
                    key: key.to_string(),
                    value: "0 (must be nonzero)".to_string(),
                });
            }
        }
        if base.threads == 0 {
            return Err(ConfigError::ZeroThreads);
        }
        for host in 0..base.hosts {
            base.host_config(host, CoherenceMechanism::Software)
                .validate()?;
        }
        Ok(())
    }
}

impl Scenario for ClusterChurnScenario {
    fn name(&self) -> &'static str {
        "cluster_churn"
    }

    fn describe(&self) -> &'static str {
        "HATRIC keeps fleet-wide victim slowdown and p99 migration downtime \
         bounded under concurrent inter-host migrations; software degrades \
         with every added migration"
    }

    fn default_params(&self, scale: Scale) -> Params {
        let base = Self::base(scale);
        Params::new()
            .with("hosts", base.hosts)
            .with("num_pcpus", base.num_pcpus)
            .with("fast_pages", base.fast_pages)
            .with("active_vms", base.active_vms)
            .with("spare_slots", base.spare_slots)
            .with("vm_vcpus", base.vm_vcpus)
            .with("epoch_slices", base.epoch_slices)
            .with("warmup_epochs", base.warmup_epochs)
            .with("measured_epochs", base.measured_epochs)
            .with("slice_accesses", base.slice_accesses)
            .with("seed", base.seed)
            .with("churn_period", base.churn_period)
            .with("copy_pages_per_slice", base.copy_pages_per_slice)
            .with("throttle_after_rounds", base.throttle_after_rounds)
            .with("policy", base.policy.label())
            .with("threads", base.threads)
    }

    /// # Panics
    ///
    /// A *default-parameter* run at [`Scale::Bench`] or [`Scale::Full`]
    /// asserts the scenario's headline claim — every scheduled migration
    /// completes; HATRIC's aggregate victim slowdown and downtime p99
    /// never exceed software's at any concurrency; software's victim
    /// slowdown degrades strictly monotonically with the
    /// concurrent-migration count — and panics if a model change broke
    /// it.  Runs with parameter overrides skip the claim check.
    fn run(&self, params: &Params, scale: Scale) -> Result<ScenarioReport, ConfigError> {
        let merged = resolve_params(self, params, scale)?;
        let base = Self::typed(&merged)?;
        Self::validate(&base)?;
        let assert_claim = scale != Scale::Smoke && params.entries().is_empty();
        let mut report = ScenarioReport::new(self.name());
        let mut software_slowdowns = Vec::new();
        for (label, migrations) in MIGRATION_SWEEP {
            let rows = cluster_churn::run(&base, migrations.min(base.hosts));
            if assert_claim {
                let by = |m: CoherenceMechanism| {
                    rows.iter()
                        .find(|r| r.mechanism == m)
                        .expect("run() emits every mechanism")
                };
                let software = by(CoherenceMechanism::Software);
                let hatric = by(CoherenceMechanism::Hatric);
                for row in &rows {
                    assert!(
                        row.report.completed_migrations() >= migrations as u64,
                        "{label}/{:?}: only {} of {migrations} scheduled migrations handed off",
                        row.mechanism,
                        row.report.completed_migrations()
                    );
                }
                assert!(
                    hatric.agg_victim_slowdown_vs_ideal <= software.agg_victim_slowdown_vs_ideal,
                    "{label}: HATRIC victim slowdown {} exceeds software's {}",
                    hatric.agg_victim_slowdown_vs_ideal,
                    software.agg_victim_slowdown_vs_ideal
                );
                assert!(
                    hatric.downtime_p99_cycles <= software.downtime_p99_cycles,
                    "{label}: HATRIC downtime p99 {} exceeds software's {}",
                    hatric.downtime_p99_cycles,
                    software.downtime_p99_cycles
                );
                software_slowdowns.push(software.agg_victim_slowdown_vs_ideal);
            }
            for row in &rows {
                let built = Row::new("config", label, &mechanism_label(row.mechanism))
                    .ratio(
                        "agg_victim_slowdown_vs_ideal",
                        row.agg_victim_slowdown_vs_ideal,
                    )
                    .count("downtime_p99_cycles", row.downtime_p99_cycles)
                    .count("downtime_max_cycles", row.downtime_max_cycles)
                    .count("migrations_completed", row.report.completed_migrations())
                    .count("peak_inflight", row.report.peak_inflight)
                    .count("victim_disrupted_cycles", row.victim_disrupted_cycles)
                    .count("migration_remaps", row.report.migration.migration_remaps)
                    .count("received_pages", row.report.migration.received_pages)
                    .count(
                        "postcopy_fetched_pages",
                        row.report.migration.postcopy_fetched_pages,
                    )
                    .count("throttled_slices", row.report.migration.throttled_slices)
                    .count("pages_copied", row.report.migration.pages_copied)
                    .count(
                        "cluster_runtime_cycles",
                        row.report.aggregate.runtime_cycles(),
                    );
                // The timing/latency/attribution tail rides on a host-shaped
                // view of the fleet aggregate, so the column set matches the
                // other host scenarios exactly.
                let fleet_view = HostReport {
                    per_vm: Vec::new(),
                    host: row.report.aggregate.clone(),
                    migration: row.report.migration,
                };
                report.push(timing_columns(
                    built,
                    &fleet_view,
                    row.elapsed_ms,
                    row.accesses_per_sec,
                ));
            }
        }
        if assert_claim {
            assert!(
                software_slowdowns.windows(2).all(|w| w[0] < w[1]),
                "software victim slowdown must degrade monotonically with the \
                 concurrent-migration count: {software_slowdowns:?}"
            );
        }
        Ok(report)
    }

    fn trace_run(&self, params: &Params, scale: Scale) -> Option<Result<String, ConfigError>> {
        let traced = resolve_params(self, params, scale)
            .and_then(|merged| Self::typed(&merged))
            .and_then(|base| {
                Self::validate(&base)?;
                // The four-migration software point: page streams land on
                // every host's hypervisor track, one trace process per host.
                let mut cluster =
                    base.build_cluster(CoherenceMechanism::Software, 4.min(base.hosts));
                cluster.enable_tracing(TRACE_CAPACITY);
                cluster.run(base.warmup_epochs, base.measured_epochs);
                Ok(cluster.export_trace().expect("tracing was enabled above"))
            });
        Some(traced)
    }

    fn timeline_run(
        &self,
        params: &Params,
        scale: Scale,
    ) -> Option<Result<CounterTimeline, ConfigError>> {
        let timeline = resolve_params(self, params, scale)
            .and_then(|merged| Self::typed(&merged))
            .and_then(|base| {
                Self::validate(&base)?;
                // The same four-migration software point, sampled at epoch
                // granularity: in-flight migrations, fleet activity and
                // per-host load.
                let mut cluster =
                    base.build_cluster(CoherenceMechanism::Software, 4.min(base.hosts));
                cluster.enable_timeline((base.measured_epochs / 64).max(1));
                cluster.run(base.warmup_epochs, base.measured_epochs);
                Ok(cluster
                    .timeline()
                    .expect("the timeline was enabled above")
                    .clone())
            });
        Some(timeline)
    }

    fn baseline_stem(&self) -> Option<&'static str> {
        Some("cluster")
    }

    fn gated_metrics(&self) -> &'static [&'static str] {
        &["agg_victim_slowdown_vs_ideal", "downtime_p99_cycles"]
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

impl ClusterFaultsScenario {
    fn base(scale: Scale) -> ClusterFaultsParams {
        match scale {
            Scale::Smoke => ClusterFaultsParams::quick(),
            Scale::Bench => ClusterFaultsParams::default_scale(),
            Scale::Full => {
                let mut p = ClusterFaultsParams::default_scale();
                p.base.warmup_epochs *= 2;
                p.base.measured_epochs *= 2;
                p
            }
        }
    }

    fn typed(params: &Params) -> Result<ClusterFaultsParams, ConfigError> {
        Ok(ClusterFaultsParams {
            base: ClusterChurnScenario::typed(params)?,
            fault_seed: params.u64("fault_seed")?,
            fault_period: params.u64("fault_period")?,
            crash_after_epochs: params.u64("crash_after_epochs")?,
            stall_epochs: params.u64("stall_epochs")?,
            stall_timeout_epochs: params.u64("stall_timeout_epochs")?,
            max_retries: params.u32("max_retries")?,
            retry_backoff_epochs: params.u64("retry_backoff_epochs")?,
            restart_penalty_cycles: params.u64("restart_penalty_cycles")?,
        })
    }

    /// Validates a sizing without building the fleet.
    fn validate(params: &ClusterFaultsParams) -> Result<(), ConfigError> {
        if params.base.hosts < 4 {
            return Err(ConfigError::BadValue {
                key: "hosts".to_string(),
                value: format!(
                    "{} (the engineered fault storm needs at least four hosts)",
                    params.base.hosts
                ),
            });
        }
        ClusterChurnScenario::validate(&params.base)
    }
}

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

    fn default_params(&self, scale: Scale) -> Params {
        let p = Self::base(scale);
        let base = p.base;
        Params::new()
            .with("hosts", base.hosts)
            .with("num_pcpus", base.num_pcpus)
            .with("fast_pages", base.fast_pages)
            .with("active_vms", base.active_vms)
            .with("spare_slots", base.spare_slots)
            .with("vm_vcpus", base.vm_vcpus)
            .with("epoch_slices", base.epoch_slices)
            .with("warmup_epochs", base.warmup_epochs)
            .with("measured_epochs", base.measured_epochs)
            .with("slice_accesses", base.slice_accesses)
            .with("seed", base.seed)
            .with("churn_period", base.churn_period)
            .with("copy_pages_per_slice", base.copy_pages_per_slice)
            .with("throttle_after_rounds", base.throttle_after_rounds)
            .with("policy", base.policy.label())
            .with("threads", base.threads)
            .with("fault_seed", p.fault_seed)
            .with("fault_period", p.fault_period)
            .with("crash_after_epochs", p.crash_after_epochs)
            .with("stall_epochs", p.stall_epochs)
            .with("stall_timeout_epochs", p.stall_timeout_epochs)
            .with("max_retries", p.max_retries)
            .with("retry_backoff_epochs", p.retry_backoff_epochs)
            .with("restart_penalty_cycles", p.restart_penalty_cycles)
    }

    /// # Panics
    ///
    /// A *default-parameter* run at [`Scale::Bench`] or [`Scale::Full`]
    /// asserts the scenario's headline claim — the engineered crash fires
    /// exactly once and aborts at least two in-flight migrations, the
    /// stuck pre-copy escalates, the dead host's VMs cold-restart, and
    /// HATRIC's victim slowdown and recovery-downtime p99 never exceed
    /// software's under the identical storm — and panics if a model
    /// change broke it.  Runs with parameter overrides skip the check.
    fn run(&self, params: &Params, scale: Scale) -> Result<ScenarioReport, ConfigError> {
        let merged = resolve_params(self, params, scale)?;
        let typed = Self::typed(&merged)?;
        Self::validate(&typed)?;
        let assert_claim = scale != Scale::Smoke && params.entries().is_empty();
        let rows = cluster_faults::run(&typed);
        if assert_claim {
            let by = |m: CoherenceMechanism| {
                rows.iter()
                    .find(|r| r.mechanism == m)
                    .expect("run() emits every mechanism")
            };
            let software = by(CoherenceMechanism::Software);
            let hatric = by(CoherenceMechanism::Hatric);
            for row in &rows {
                let recovery = row.report.recovery;
                assert_eq!(
                    recovery.host_crashes, 1,
                    "{:?}: exactly the engineered crash must fire",
                    row.mechanism
                );
                assert!(
                    recovery.migrations_aborted >= 2,
                    "{:?}: the crash must abort both migrations touching the \
                     dead host (got {})",
                    row.mechanism,
                    recovery.migrations_aborted
                );
                assert!(
                    recovery.migrations_escalated >= 1,
                    "{:?}: the stuck pre-copy must escalate to post-copy",
                    row.mechanism
                );
                assert!(
                    recovery.vm_restarts >= 1,
                    "{:?}: the dead host's VMs must cold-restart elsewhere",
                    row.mechanism
                );
            }
            assert!(
                hatric.agg_victim_slowdown_vs_ideal <= software.agg_victim_slowdown_vs_ideal,
                "HATRIC victim slowdown {} exceeds software's {} under faults",
                hatric.agg_victim_slowdown_vs_ideal,
                software.agg_victim_slowdown_vs_ideal
            );
            assert!(
                hatric.recovery_downtime_p99_cycles <= software.recovery_downtime_p99_cycles,
                "HATRIC recovery p99 {} exceeds software's {}",
                hatric.recovery_downtime_p99_cycles,
                software.recovery_downtime_p99_cycles
            );
        }
        let mut report = ScenarioReport::new(self.name());
        for row in &rows {
            let recovery = row.report.recovery;
            let built = Row::new("config", "storm", &mechanism_label(row.mechanism))
                .ratio(
                    "agg_victim_slowdown_vs_ideal",
                    row.agg_victim_slowdown_vs_ideal,
                )
                .count(
                    "recovery_downtime_p99_cycles",
                    row.recovery_downtime_p99_cycles,
                )
                .count(
                    "recovery_downtime_max_cycles",
                    row.recovery_downtime_max_cycles,
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
                .count("migrations_completed", row.report.completed_migrations())
                .count("victim_disrupted_cycles", row.victim_disrupted_cycles)
                .count("received_pages", row.report.migration.received_pages)
                .count(
                    "postcopy_fetched_pages",
                    row.report.migration.postcopy_fetched_pages,
                )
                .count("pages_copied", row.report.migration.pages_copied)
                .count(
                    "cluster_runtime_cycles",
                    row.report.aggregate.runtime_cycles(),
                );
            let fleet_view = HostReport {
                per_vm: Vec::new(),
                host: row.report.aggregate.clone(),
                migration: row.report.migration,
            };
            report.push(timing_columns(
                built,
                &fleet_view,
                row.elapsed_ms,
                row.accesses_per_sec,
            ));
        }
        Ok(report)
    }

    fn trace_run(&self, params: &Params, scale: Scale) -> Option<Result<String, ConfigError>> {
        let traced = resolve_params(self, params, scale)
            .and_then(|merged| Self::typed(&merged))
            .and_then(|typed| {
                Self::validate(&typed)?;
                // The software run: fault spans (crash, blackout, brownout,
                // stall) land on every host's hypervisor track alongside
                // the migration page streams they disrupt.
                let mut cluster = typed.build_cluster(CoherenceMechanism::Software);
                cluster.enable_tracing(TRACE_CAPACITY);
                cluster.run(typed.base.warmup_epochs, typed.base.measured_epochs);
                Ok(cluster.export_trace().expect("tracing was enabled above"))
            });
        Some(traced)
    }

    fn timeline_run(
        &self,
        params: &Params,
        scale: Scale,
    ) -> Option<Result<CounterTimeline, ConfigError>> {
        let timeline = resolve_params(self, params, scale)
            .and_then(|merged| Self::typed(&merged))
            .and_then(|typed| {
                Self::validate(&typed)?;
                // The same software run sampled at epoch granularity: the
                // in-flight count collapsing at the crash, fleet activity
                // dipping through the restart windows.
                let mut cluster = typed.build_cluster(CoherenceMechanism::Software);
                cluster.enable_timeline((typed.base.measured_epochs / 64).max(1));
                cluster.run(typed.base.warmup_epochs, typed.base.measured_epochs);
                Ok(cluster
                    .timeline()
                    .expect("the timeline was enabled above")
                    .clone())
            });
        Some(timeline)
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
}

// ---------------------------------------------------------------------------
// Core-figure scenarios (fig9, xen)
// ---------------------------------------------------------------------------

/// The sizing the benchmark harness regenerates figure tables at: smaller
/// than [`ExperimentParams::default_scale`] so `cargo bench` stays under a
/// few minutes, larger than [`ExperimentParams::quick`] for steady state.
#[must_use]
pub fn fig_bench_params() -> ExperimentParams {
    ExperimentParams {
        vcpus: 16,
        fast_pages: 1_024,
        warmup: 1_500,
        measured: 2_500,
        seed: hatric::DEFAULT_SEED,
    }
}

fn fig_base(scale: Scale) -> ExperimentParams {
    match scale {
        Scale::Smoke => ExperimentParams::quick(),
        Scale::Bench => fig_bench_params(),
        // Same machine as Bench, longer steady state — Full numbers stay
        // comparable to the committed bench-scale figures.
        Scale::Full => {
            let mut p = fig_bench_params();
            p.warmup *= 2;
            p.measured *= 2;
            p
        }
    }
}

fn fig_default_params(scale: Scale) -> Params {
    let base = fig_base(scale);
    Params::new()
        .with("vcpus", base.vcpus)
        .with("fast_pages", base.fast_pages)
        .with("warmup", base.warmup)
        .with("measured", base.measured)
        .with("seed", base.seed)
}

fn fig_typed(params: &Params) -> Result<ExperimentParams, ConfigError> {
    Ok(ExperimentParams {
        vcpus: params.usize("vcpus")?,
        fast_pages: params.u64("fast_pages")?,
        warmup: params.u64("warmup")?,
        measured: params.u64("measured")?,
        seed: params.u64("seed")?,
    })
}

/// The Fig. 2 scenario (`fig2`): the potential of hypervisor-managed
/// die-stacked DRAM per workload — no-HBM baseline, infinite-HBM lower
/// bound, today's best paging under software coherence, and what
/// zero-overhead coherence would achieve.
pub struct Fig2Scenario;

impl Scenario for Fig2Scenario {
    fn name(&self) -> &'static str {
        "fig2"
    }

    fn describe(&self) -> &'static str {
        "software translation coherence forfeits much of die-stacked DRAM's \
         paging win (Fig. 2)"
    }

    fn default_params(&self, scale: Scale) -> Params {
        fig_default_params(scale)
    }

    fn run(&self, params: &Params, scale: Scale) -> Result<ScenarioReport, ConfigError> {
        let merged = resolve_params(self, params, scale)?;
        let base = fig_typed(&merged)?;
        let mut report = ScenarioReport::new(self.name());
        for fig_row in fig2::run(&base) {
            for (mechanism, runtime) in [
                ("NoHbm", fig_row.no_hbm),
                ("InfiniteHbm", fig_row.inf_hbm),
                ("Software", fig_row.curr_best),
                ("Ideal", fig_row.achievable),
            ] {
                report.push(
                    Row::new("config", &fig_row.workload, mechanism)
                        .ratio("runtime_vs_nohbm", runtime),
                );
            }
        }
        Ok(report)
    }

    fn trace_run(&self, params: &Params, scale: Scale) -> Option<Result<String, ConfigError>> {
        let traced = resolve_params(self, params, scale)
            .and_then(|merged| fig_typed(&merged))
            .map(|base| {
                // The curr-best bar of the first workload: paged memory
                // under software shootdowns, where the figure's forfeited
                // win comes from.
                traced_system_run(
                    &RunSpec::new(WorkloadKind::Canneal, CoherenceMechanism::Software),
                    &base,
                )
            });
        Some(traced)
    }
}

/// The Fig. 7 scenario (`fig7`): HATRIC's benefit as a function of vCPU
/// count, per workload, under software / HATRIC / ideal coherence.  The
/// paper's [`fig7::VCPU_SWEEP`] is clipped to the scenario's `vcpus`
/// parameter so smoke runs stay small.
pub struct Fig7Scenario;

impl Scenario for Fig7Scenario {
    fn name(&self) -> &'static str {
        "fig7"
    }

    fn describe(&self) -> &'static str {
        "HATRIC's benefit grows with the vCPU count (Fig. 7)"
    }

    fn default_params(&self, scale: Scale) -> Params {
        fig_default_params(scale)
    }

    fn run(&self, params: &Params, scale: Scale) -> Result<ScenarioReport, ConfigError> {
        let merged = resolve_params(self, params, scale)?;
        let base = fig_typed(&merged)?;
        let sweep: Vec<usize> = fig7::VCPU_SWEEP
            .iter()
            .copied()
            .filter(|&vcpus| vcpus <= base.vcpus)
            .collect();
        let sweep = if sweep.is_empty() {
            vec![base.vcpus]
        } else {
            sweep
        };
        let mut report = ScenarioReport::new(self.name());
        for fig_row in fig7::run_with_sweep(&base, &sweep) {
            let label = format!("{}/v{}", fig_row.workload, fig_row.vcpus);
            for (mechanism, runtime) in [
                ("Software", fig_row.sw),
                ("Hatric", fig_row.hatric),
                ("Ideal", fig_row.ideal),
            ] {
                report
                    .push(Row::new("config", &label, mechanism).ratio("runtime_vs_nohbm", runtime));
            }
        }
        Ok(report)
    }

    fn trace_run(&self, params: &Params, scale: Scale) -> Option<Result<String, ConfigError>> {
        let traced = resolve_params(self, params, scale)
            .and_then(|merged| fig_typed(&merged))
            .map(|base| {
                // The software bar at the scenario's full vCPU count: the
                // widest shootdown fan-outs of the sweep.
                traced_system_run(
                    &RunSpec::new(WorkloadKind::Canneal, CoherenceMechanism::Software),
                    &base,
                )
            });
        Some(traced)
    }
}

/// The Fig. 8 scenario (`fig8`): HATRIC's benefit across KVM paging
/// policies (plain LRU, +migration daemon, +prefetching), per workload,
/// under software / HATRIC / ideal coherence.
pub struct Fig8Scenario;

impl Scenario for Fig8Scenario {
    fn name(&self) -> &'static str {
        "fig8"
    }

    fn describe(&self) -> &'static str {
        "HATRIC helps under every KVM paging policy, most where paging is \
         smartest (Fig. 8)"
    }

    fn default_params(&self, scale: Scale) -> Params {
        fig_default_params(scale)
    }

    fn run(&self, params: &Params, scale: Scale) -> Result<ScenarioReport, ConfigError> {
        let merged = resolve_params(self, params, scale)?;
        let base = fig_typed(&merged)?;
        let mut report = ScenarioReport::new(self.name());
        for fig_row in fig8::run(&base) {
            let label = format!("{}/{}", fig_row.workload, fig_row.policy);
            for (mechanism, runtime) in [
                ("Software", fig_row.sw),
                ("Hatric", fig_row.hatric),
                ("Ideal", fig_row.ideal),
            ] {
                report
                    .push(Row::new("config", &label, mechanism).ratio("runtime_vs_nohbm", runtime));
            }
        }
        Ok(report)
    }

    fn trace_run(&self, params: &Params, scale: Scale) -> Option<Result<String, ConfigError>> {
        let traced = resolve_params(self, params, scale)
            .and_then(|merged| fig_typed(&merged))
            .map(|base| {
                // The software bar under the most sophisticated paging
                // policy (migration daemon + prefetching): the remap rate
                // the smarter policies buy their wins with.
                let knobs = PagingKnobs::fig8_sweep()[2];
                traced_system_run(
                    &RunSpec::new(WorkloadKind::Canneal, CoherenceMechanism::Software)
                        .with_paging(knobs),
                    &base,
                )
            });
        Some(traced)
    }
}

/// The Fig. 9 scenario (`fig9`): runtime versus translation-structure
/// sizes, per workload and size multiplier, under software / HATRIC /
/// ideal coherence.
pub struct Fig9Scenario;

impl Scenario for Fig9Scenario {
    fn name(&self) -> &'static str {
        "fig9"
    }

    fn describe(&self) -> &'static str {
        "bigger translation structures don't close the software-coherence gap \
         (Fig. 9)"
    }

    fn default_params(&self, scale: Scale) -> Params {
        fig_default_params(scale)
    }

    fn run(&self, params: &Params, scale: Scale) -> Result<ScenarioReport, ConfigError> {
        let merged = resolve_params(self, params, scale)?;
        let base = fig_typed(&merged)?;
        let mut report = ScenarioReport::new(self.name());
        for fig_row in fig9::run(&base) {
            let label = format!("{}/{}x", fig_row.workload, fig_row.scale);
            for (mechanism, runtime) in [
                ("Software", fig_row.sw),
                ("Hatric", fig_row.hatric),
                ("Ideal", fig_row.ideal),
            ] {
                report
                    .push(Row::new("config", &label, mechanism).ratio("runtime_vs_nohbm", runtime));
            }
        }
        Ok(report)
    }

    fn trace_run(&self, params: &Params, scale: Scale) -> Option<Result<String, ConfigError>> {
        let traced = resolve_params(self, params, scale)
            .and_then(|merged| fig_typed(&merged))
            .map(|base| {
                // The software bar at the largest structure multiplier:
                // the flushes the figure shows bigger structures cannot
                // absorb.
                traced_system_run(
                    &RunSpec::new(WorkloadKind::Canneal, CoherenceMechanism::Software)
                        .with_structure_scale(4),
                    &base,
                )
            });
        Some(traced)
    }
}

/// The Fig. 10 scenario (`fig10`): multiprogrammed SPEC mixes — weighted
/// (average) normalised runtime and the slowest application per mix, under
/// software coherence and HATRIC.
pub struct Fig10Scenario;

impl Scenario for Fig10Scenario {
    fn name(&self) -> &'static str {
        "fig10"
    }

    fn describe(&self) -> &'static str {
        "software coherence's imprecise targeting punishes whole SPEC mixes; \
         HATRIC fixes throughput and fairness (Fig. 10)"
    }

    fn default_params(&self, scale: Scale) -> Params {
        let mixes = match scale {
            Scale::Smoke => 3,
            Scale::Bench => 12,
            Scale::Full => 20,
        };
        fig_default_params(scale).with("mixes", mixes)
    }

    fn run(&self, params: &Params, scale: Scale) -> Result<ScenarioReport, ConfigError> {
        let merged = resolve_params(self, params, scale)?;
        let base = fig_typed(&merged)?;
        let mixes = merged.usize("mixes")?;
        let mut report = ScenarioReport::new(self.name());
        for fig_row in fig10::run(&base, mixes) {
            let label = format!("mix{}", fig_row.mix);
            for (mechanism, weighted, slowest) in [
                ("Software", fig_row.weighted_sw, fig_row.slowest_sw),
                ("Hatric", fig_row.weighted_hatric, fig_row.slowest_hatric),
            ] {
                report.push(
                    Row::new("config", &label, mechanism)
                        .ratio("weighted_runtime", weighted)
                        .ratio("slowest_runtime", slowest),
                );
            }
        }
        Ok(report)
    }

    fn trace_run(&self, params: &Params, scale: Scale) -> Option<Result<String, ConfigError>> {
        let traced = resolve_params(self, params, scale)
            .and_then(|merged| fig_typed(&merged))
            .map(|base| {
                // One software-coherence run standing in for a mix member:
                // the imprecise-targeting flushes the mixes suffer from.
                traced_system_run(
                    &RunSpec::new(WorkloadKind::Canneal, CoherenceMechanism::Software),
                    &base,
                )
            });
        Some(traced)
    }
}

/// The Fig. 11 scenario (`fig11`): performance-energy trade-offs.  The
/// left-hand scatter compares HATRIC against the best software-coherence
/// configuration per workload (runtime *and* energy ratios); the
/// right-hand sweep varies the co-tag width over
/// [`fig11::COTAG_SWEEP`] (mean over the big-memory suite).
pub struct Fig11Scenario;

impl Scenario for Fig11Scenario {
    fn name(&self) -> &'static str {
        "fig11"
    }

    fn describe(&self) -> &'static str {
        "HATRIC wins performance and energy; 2-byte co-tags suffice (Fig. 11)"
    }

    fn default_params(&self, scale: Scale) -> Params {
        fig_default_params(scale)
    }

    fn run(&self, params: &Params, scale: Scale) -> Result<ScenarioReport, ConfigError> {
        let merged = resolve_params(self, params, scale)?;
        let base = fig_typed(&merged)?;
        let mut report = ScenarioReport::new(self.name());
        for point in fig11::run_scatter(&base) {
            report.push(
                Row::new("config", &point.workload, "Hatric")
                    .ratio("runtime_vs_software", point.runtime_ratio)
                    .ratio("energy_vs_software", point.energy_ratio),
            );
        }
        for cotag in fig11::run_cotag_sweep(&base) {
            let label = format!("cotag{}B", cotag.cotag_bytes);
            report.push(
                Row::new("config", &label, "Hatric")
                    .ratio("runtime_vs_software", cotag.runtime_ratio)
                    .ratio("energy_vs_software", cotag.energy_ratio),
            );
        }
        Ok(report)
    }

    fn trace_run(&self, params: &Params, scale: Scale) -> Option<Result<String, ConfigError>> {
        let traced = resolve_params(self, params, scale)
            .and_then(|merged| fig_typed(&merged))
            .map(|base| {
                // The paper's chosen design point: HATRIC with 2-byte
                // co-tags, whose invalidation traffic the energy model
                // charges for.
                traced_system_run(
                    &RunSpec::new(WorkloadKind::Canneal, CoherenceMechanism::Hatric)
                        .with_cotag_bytes(2),
                    &base,
                )
            });
        Some(traced)
    }
}

/// The Xen generality scenario (`xen`): HATRIC's improvement over Xen's
/// software translation coherence, per workload.
pub struct XenScenario;

impl Scenario for XenScenario {
    fn name(&self) -> &'static str {
        "xen"
    }

    fn describe(&self) -> &'static str {
        "the mechanism generalises from KVM to Xen (Sec. 6)"
    }

    fn default_params(&self, scale: Scale) -> Params {
        fig_default_params(scale)
    }

    fn run(&self, params: &Params, scale: Scale) -> Result<ScenarioReport, ConfigError> {
        let merged = resolve_params(self, params, scale)?;
        let base = fig_typed(&merged)?;
        let mut report = ScenarioReport::new(self.name());
        for xen_row in xen::run(&base) {
            report.push(
                Row::new("config", &xen_row.workload, "SoftwareXen")
                    .ratio("runtime_vs_sw", xen_row.sw_runtime)
                    .ratio("improvement_percent", 0.0),
            );
            report.push(
                Row::new("config", &xen_row.workload, "Hatric")
                    .ratio("runtime_vs_sw", xen_row.hatric_runtime)
                    .ratio("improvement_percent", xen_row.improvement_percent),
            );
        }
        Ok(report)
    }

    fn trace_run(&self, params: &Params, scale: Scale) -> Option<Result<String, ConfigError>> {
        let traced = resolve_params(self, params, scale)
            .and_then(|merged| fig_typed(&merged))
            .map(|base| {
                // Xen's software translation coherence on the first of the
                // paper's Xen workloads: the costlier shootdown path the
                // generality claim is measured against.
                traced_system_run(
                    &RunSpec::new(WorkloadKind::Canneal, CoherenceMechanism::SoftwareXen)
                        .with_hypervisor(hatric::HypervisorKind::Xen),
                    &base,
                )
            });
        Some(traced)
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
            // Every registered scenario advertises a traced configuration,
            // and all of them surface the unknown-param error through it.
            assert_eq!(
                scenario
                    .trace_run(&Params::new().with("bogus", 1), Scale::Smoke)
                    .map(|r| r.is_err()),
                Some(true),
                "{}: trace_run availability/override validation",
                scenario.name()
            );
            // The counter sampler hooks the consolidated host's commit
            // barrier, so only host scenarios expose a timeline.
            let expects_timeline = !matches!(
                scenario.name(),
                "fig2" | "fig7" | "fig8" | "fig9" | "fig10" | "fig11" | "xen"
            );
            assert_eq!(
                scenario
                    .timeline_run(&Params::new().with("bogus", 1), Scale::Smoke)
                    .map(|r| r.is_err()),
                expects_timeline.then_some(true),
                "{}: timeline_run availability/override validation",
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
