//! The README's result tables against the committed baselines, without
//! simulating.
//!
//! Each README block introduced by "the rows match the committed
//! `BENCH_<stem>.json`" is a whitespace-aligned table: a header of field
//! keys (the sweep-point key, `mechanism`, then metric columns) and one
//! line per row.  Every cell must read exactly as the baseline row of the
//! same point and mechanism renders that field, so a rebaseline that
//! leaves a table behind fails here.

use hatric_host::scenario::{Metric, ScenarioReport};

const INTRO: &str = "rows match the committed `BENCH_";

fn repo_file(name: &str) -> String {
    let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// A field as the baseline's JSON writes it, without the quotes of text.
fn render(metric: &Metric) -> String {
    match metric {
        Metric::Text(v) => v.clone(),
        Metric::Count(v) => v.to_string(),
        Metric::Ratio(v) => format!("{v:.6}"),
    }
}

/// Every `(stem, table lines)` block of `readme`: a fenced block whose
/// preceding paragraph, whitespace collapsed (it may wrap), holds the
/// introduction.
fn tables(readme: &str) -> Vec<(String, Vec<String>)> {
    let pieces: Vec<&str> = readme.split("```").collect();
    let mut blocks = Vec::new();
    for i in (1..pieces.len()).step_by(2) {
        let paragraph = pieces[i - 1].trim_end().rsplit("\n\n").next().unwrap_or("");
        let paragraph = paragraph.split_whitespace().collect::<Vec<_>>().join(" ");
        let Some(at) = paragraph.find(INTRO) else {
            continue;
        };
        let rest = &paragraph[at + INTRO.len()..];
        let stem = &rest[..rest.find(".json`").expect("a closed file name")];
        let lines = pieces[i]
            .lines()
            .filter(|l| !l.is_empty())
            .map(str::to_string);
        blocks.push((stem.to_string(), lines.collect()));
    }
    blocks
}

/// One line per README cell that differs from its baseline.
fn mismatches(readme: &str) -> Vec<String> {
    let blocks = tables(readme);
    assert!(
        blocks.len() >= 5,
        "expected the multivm, migration, numa, cluster and faults tables, found {}",
        blocks.len()
    );
    let mut found = Vec::new();
    for (stem, lines) in &blocks {
        let file = format!("BENCH_{stem}.json");
        let baseline = ScenarioReport::from_json(stem, &repo_file(&file))
            .unwrap_or_else(|| panic!("{file} does not parse"));
        let header: Vec<&str> = lines[0].split_whitespace().collect();
        assert_eq!(header.get(1), Some(&"mechanism"), "{file} table header");
        assert!(lines.len() > 1, "{file} table has no rows");
        for line in &lines[1..] {
            let cells: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(cells.len(), header.len(), "{file} table row `{line}`");
            let Some(row) = baseline.find(cells[0], cells[1]) else {
                found.push(format!("{file}: no row {} / {}", cells[0], cells[1]));
                continue;
            };
            assert_eq!(row.label_key(), header[0], "{file} table's point column");
            for (key, cell) in header.iter().zip(&cells).skip(2) {
                let expected = row.get(key).map_or("<missing>".to_string(), render);
                if *cell != expected {
                    found.push(format!(
                        "{file}: {} / {} {key}: README {cell}, baseline {expected}",
                        cells[0], cells[1]
                    ));
                }
            }
        }
    }
    found
}

#[test]
fn readme_tables_match_the_committed_baselines() {
    let found = mismatches(&repo_file("README.md"));
    assert!(found.is_empty(), "{}", found.join("\n"));
}

#[test]
fn a_stale_cell_is_caught() {
    let readme = repo_file("README.md");
    let stale = readme.replacen("3.147605", "2.900007", 1);
    assert_ne!(
        stale, readme,
        "the multivm severe Software cell is in the README"
    );
    assert_eq!(
        mismatches(&stale),
        [
            "BENCH_multivm.json: severe / Software victim_slowdown_vs_ideal: \
          README 2.900007, baseline 3.147605"
        ]
    );
}
