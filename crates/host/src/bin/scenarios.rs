//! The `scenarios` CLI: list, run, check and diff every registered
//! experiment through the unified scenario API.
//!
//! ```text
//! scenarios --list [--md]
//! scenarios run <name> [--scale smoke|bench|full] [--json PATH] [--trace PATH]
//!                      [--timeline PATH] [--set key=value]...
//! scenarios check [<name>] [--scale bench|full]
//! scenarios diff <run-a.json> <run-b.json> [--scenario NAME] [--tolerance FRAC]
//! ```
//!
//! `--list` prints the registry (with `--md`, as the markdown table the
//! README's scenario catalog embeds, so the two cannot drift).  `run`
//! executes one scenario at the requested scale (default `bench`), prints
//! its report table, and with `--json` also writes the report in the
//! `BENCH_*.json` schema.  `--trace` additionally runs one representative
//! traced configuration and writes its deterministic sim-time spans as a
//! Chrome trace-event file (open in `chrome://tracing` or Perfetto);
//! `--timeline` does the same with the per-slice counter sampler and
//! writes Chrome counter events plus a CSV sibling.  `check` is the
//! reproduction checker: it reruns one or every scenario with default
//! parameters and exits nonzero if a gated metric differs from its
//! committed baseline (at `bench`) or a declared claim fails.  `diff` is the run
//! observatory: it aligns two report files by (label, mechanism), prints
//! per-metric deltas, and exits nonzero when a gated metric drifted beyond
//! the tolerance or a row disappeared.

use std::process::ExitCode;

use hatric_host::check::check;
use hatric_host::diff::{diff_json, DiffOptions};
use hatric_host::scenario::{
    append_meta_record, bench_meta_json, find, registry, Params, Scale, Scenario,
};

const USAGE: &str = "usage:
  scenarios --list [--md]
  scenarios run <name> [--scale smoke|bench|full] [--json PATH] [--trace PATH]
                       [--timeline PATH] [--set key=value]...
  scenarios check [<name>] [--scale bench|full]
  scenarios diff <run-a.json> <run-b.json> [--scenario NAME] [--tolerance FRAC]

Scenarios are registered in hatric_host::scenario::registry(); `--list`
shows them.  `--scale` sizes the run (default: bench, the committed
BENCH_*.json baseline scale).  `--trace` writes a Chrome trace-event JSON
of one traced configuration; `--timeline` writes the per-slice
counter timeline as Chrome counter events plus a CSV sibling (host
scenarios only).  `--set` overrides a scenario parameter (see its key set
via the defaults printed on a bad key).  `check` reruns one scenario, or
all, with default parameters: at bench every gated metric must equal the
committed BENCH_*.json exactly, and at bench and full every declared claim
must hold (exit 1 otherwise).  `diff` compares two report files
row by row; with `--scenario` the scenario's gated metrics decide the
exit code (default tolerance 0.10).";

fn list(markdown: bool) {
    if markdown {
        print!("{}", hatric_host::scenario::catalog_markdown());
        return;
    }
    let width = registry().iter().map(|s| s.name().len()).max().unwrap_or(0);
    for scenario in registry() {
        let gate = match scenario.baseline_stem() {
            Some(stem) => format!("  [baseline BENCH_{stem}.json]"),
            None => String::new(),
        };
        println!("{:<width$}  {}{gate}", scenario.name(), scenario.describe());
    }
    println!("{} scenarios registered", registry().len());
}

struct RunArgs {
    scenario: &'static dyn Scenario,
    scale: Scale,
    json: Option<String>,
    trace: Option<String>,
    timeline: Option<String>,
    overrides: Params,
}

fn find_scenario(name: &str) -> Result<&'static dyn Scenario, String> {
    find(name).ok_or_else(|| {
        let names: Vec<&str> = registry().iter().map(|s| s.name()).collect();
        format!(
            "unknown scenario `{name}` (registered: {})",
            names.join(", ")
        )
    })
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let name = args.first().ok_or("run: missing scenario name")?;
    let scenario = find_scenario(name)?;
    let mut scale = Scale::Bench;
    let mut json = None;
    let mut trace = None;
    let mut timeline = None;
    let mut overrides = Params::new();
    let mut rest = &args[1..];
    while let Some(flag) = rest.first() {
        if !matches!(
            flag.as_str(),
            "--scale" | "--json" | "--trace" | "--timeline" | "--set"
        ) {
            return Err(format!("unknown flag `{flag}`\n{USAGE}"));
        }
        let value = rest
            .get(1)
            .ok_or_else(|| format!("{flag}: missing value"))?;
        match flag.as_str() {
            "--scale" => {
                scale = Scale::parse(value).ok_or_else(|| {
                    format!("--scale: unknown scale `{value}` (smoke|bench|full)")
                })?;
            }
            "--json" => json = Some(value.clone()),
            "--trace" => trace = Some(value.clone()),
            "--timeline" => timeline = Some(value.clone()),
            "--set" => {
                let (key, val) = value
                    .split_once('=')
                    .ok_or_else(|| format!("--set: expected key=value, got `{value}`"))?;
                overrides.set(key, val);
            }
            _ => unreachable!("flags are pre-validated above"),
        }
        rest = &rest[2..];
    }
    Ok(RunArgs {
        scenario,
        scale,
        json,
        trace,
        timeline,
        overrides,
    })
}

/// Reads the `droppedSpans` count back out of an exported Chrome trace's
/// metadata object — the sink is a bounded ring, and a wrapped ring means
/// the file's earliest spans are gone.
fn trace_dropped_spans(trace_json: &str) -> u64 {
    trace_json
        .rsplit_once("\"droppedSpans\":")
        .and_then(|(_, tail)| {
            let digits: String = tail.chars().take_while(char::is_ascii_digit).collect();
            digits.parse().ok()
        })
        .unwrap_or(0)
}

/// The CSV sibling of a timeline export path: `t.json` → `t.csv`,
/// extensionless paths get `.csv` appended.
fn csv_sibling(path: &str) -> String {
    match path.rsplit_once('.') {
        Some((stem, _ext)) => format!("{stem}.csv"),
        None => format!("{path}.csv"),
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let RunArgs {
        scenario,
        scale,
        json,
        trace,
        timeline,
        overrides,
    } = parse_run_args(args)?;
    eprintln!(
        "running `{}` at scale {} ...",
        scenario.name(),
        scale.label()
    );
    let report = scenario.run(&overrides, scale).map_err(|err| {
        format!(
            "{err}\naccepted parameters: {}",
            scenario.default_params(scale).to_json()
        )
    })?;
    println!("{}", report.format_table());
    // Wall-clock summary of scenarios that record throughput (the timing
    // columns are machine-dependent and never gated).
    let timed: Vec<(f64, f64)> = report
        .rows
        .iter()
        .filter_map(|r| Some((r.number("elapsed_ms")?, r.number("accesses_per_sec")?)))
        .collect();
    if !timed.is_empty() {
        let total_ms: f64 = timed.iter().map(|(ms, _)| ms).sum();
        let best = timed.iter().map(|(_, a)| *a).fold(0.0f64, f64::max);
        println!(
            "wall clock: {total_ms:.0} ms across {} runs, best throughput {best:.0} accesses/s",
            timed.len()
        );
    }
    if let Some(path) = json {
        // The writer layer — not Scenario::run — appends the ungated
        // environment metadata, so run() output stays byte-identical
        // whether or not it is being written to disk.
        let threads = scenario
            .resolve(&overrides, scale)
            .ok()
            .and_then(|p| p.u64("threads").ok());
        let body = append_meta_record(&report.to_json(), &bench_meta_json(threads));
        std::fs::write(&path, body).map_err(|err| format!("cannot write {path}: {err}"))?;
        println!("wrote {} rows to {path}", report.rows.len());
    }
    if let Some(path) = trace {
        let trace_json = scenario
            .trace_run(&overrides, scale)
            .map_err(|err| format!("--trace: {err}"))?;
        let dropped = trace_dropped_spans(&trace_json);
        std::fs::write(&path, trace_json).map_err(|err| format!("cannot write {path}: {err}"))?;
        println!("wrote Chrome trace to {path} (open in chrome://tracing or Perfetto)");
        if dropped > 0 {
            eprintln!(
                "warning: the trace ring wrapped — {dropped} oldest span(s) were \
                 dropped before export (see droppedSpans in the file's metadata)"
            );
        }
    }
    if let Some(path) = timeline {
        let recorded = scenario
            .timeline_run(&overrides, scale)
            .map_err(|err| format!("--timeline: {err}"))?
            .ok_or_else(|| {
                format!(
                    "--timeline: scenario `{}` has no host slices to sample \
                     (host scenarios only)",
                    scenario.name()
                )
            })?;
        std::fs::write(&path, recorded.export_chrome_counters())
            .map_err(|err| format!("cannot write {path}: {err}"))?;
        let csv_path = csv_sibling(&path);
        std::fs::write(&csv_path, recorded.export_csv())
            .map_err(|err| format!("cannot write {csv_path}: {err}"))?;
        println!(
            "wrote {} timeline samples × {} series to {path} (Chrome counters) \
             and {csv_path} (CSV)",
            recorded.len(),
            recorded.series().len()
        );
    }
    Ok(())
}

/// `scenarios check [<name>] [--scale bench|full]`: `Ok(true)` when every
/// checked scenario reproduced its baseline and claims, `Err` on a usage
/// error (or default parameters that do not run).
fn check_scenarios(args: &[String]) -> Result<bool, String> {
    let mut scale = Scale::Bench;
    let mut only = None;
    let mut rest = args;
    while let Some(token) = rest.first() {
        if token == "--scale" {
            let value = rest.get(1).ok_or("--scale: missing value")?;
            scale = match Scale::parse(value) {
                Some(scale @ (Scale::Bench | Scale::Full)) => scale,
                _ => {
                    return Err(format!(
                        "--scale: check runs at bench or full, not `{value}`"
                    ))
                }
            };
            rest = &rest[2..];
        } else if token.starts_with("--") || only.is_some() {
            return Err(format!("unexpected argument `{token}`\n{USAGE}"));
        } else {
            only = Some(find_scenario(token)?);
            rest = &rest[1..];
        }
    }
    let scenarios = only.map_or_else(|| registry().to_vec(), |scenario| vec![scenario]);
    let (mut passed, mut compared, mut drifted, mut claims, mut held) = (true, 0, 0, 0, 0);
    for scenario in scenarios {
        eprintln!(
            "checking `{}` at scale {} ...",
            scenario.name(),
            scale.label()
        );
        let report = scenario
            .run(&Params::new(), scale)
            .map_err(|err| format!("{}: default parameters do not run: {err}", scenario.name()))?;
        let outcome = check(scenario, &report, scale);
        print!("{}", outcome.format_text());
        passed &= outcome.passed();
        if let Some(Ok(diff)) = &outcome.baseline {
            compared += diff.deltas.len();
            drifted += diff.regressions();
        }
        claims += outcome.verdicts.len();
        held += outcome.verdicts.iter().filter(|v| v.passed()).count();
    }
    println!(
        "check: {compared} gated metric(s) compared with their committed baselines, \
         {drifted} drifted; {held} of {claims} claim(s) hold"
    );
    if drifted > 0 {
        eprintln!(
            "check: if a gated change is intended, regenerate the baseline with \
             `scenarios run <name> --scale bench --json BENCH_<stem>.json` and commit it"
        );
    }
    Ok(passed)
}

/// `scenarios diff <run-a.json> <run-b.json>`: exit 0 when aligned and
/// clean, 1 on gated drift or missing rows, 2 on usage/IO/parse errors.
fn diff(args: &[String]) -> Result<bool, String> {
    let mut paths: Vec<&String> = Vec::new();
    let mut options = DiffOptions::default();
    let mut gated: &[&str] = &[];
    let mut rest = args;
    while let Some(token) = rest.first() {
        if !token.starts_with("--") {
            paths.push(token);
            rest = &rest[1..];
            continue;
        }
        let value = rest
            .get(1)
            .ok_or_else(|| format!("{token}: missing value"))?;
        match token.as_str() {
            "--scenario" => {
                let scenario =
                    find(value).ok_or_else(|| format!("--scenario: unknown scenario `{value}`"))?;
                gated = scenario.gated_metrics();
            }
            "--tolerance" => {
                options.tolerance = value
                    .parse()
                    .map_err(|_| format!("--tolerance: not a number: `{value}`"))?;
            }
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
        rest = &rest[2..];
    }
    let [path_a, path_b] = paths.as_slice() else {
        return Err(format!("diff: expected exactly two report files\n{USAGE}"));
    };
    let read = |path: &str| {
        std::fs::read_to_string(path).map_err(|err| format!("cannot read {path}: {err}"))
    };
    let report = diff_json(&read(path_a)?, &read(path_b)?, gated, options)?;
    print!("{}", report.format_text());
    println!(
        "diff: {} metric(s) compared, {} regression(s), {} missing row(s)/metric(s), \
         {} extra row(s)",
        report.deltas.len(),
        report.regressions(),
        report.missing.len(),
        report.extra.len()
    );
    if gated.is_empty() {
        eprintln!(
            "note: no --scenario given, so no metrics are gated — only missing rows \
             can fail this diff"
        );
    }
    Ok(report.passed())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--list") => {
            list(args.iter().any(|a| a == "--md"));
            ExitCode::SUCCESS
        }
        Some("run") => match run(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(err) => {
                eprintln!("scenarios: {err}");
                ExitCode::from(2)
            }
        },
        Some("check") => match check_scenarios(&args[1..]) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(err) => {
                eprintln!("scenarios: {err}");
                ExitCode::from(2)
            }
        },
        Some("diff") => match diff(&args[1..]) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(err) => {
                eprintln!("scenarios: {err}");
                ExitCode::from(2)
            }
        },
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
