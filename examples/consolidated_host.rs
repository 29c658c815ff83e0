//! Consolidated host via the scenario registry: the full `multivm`
//! pressure sweep (one paging-heavy aggressor, three remap-free victims,
//! four mechanisms) at bench scale, then the scenario's declared claims
//! evaluated on its rows.  Exits nonzero if a claim fails.
//! Run with: `cargo run --release --example consolidated_host`

use std::process::ExitCode;

use hatric_host::scenario::{find, Params, Scale};

fn main() -> ExitCode {
    let scenario = find("multivm").expect("multivm is registered");
    let report = scenario
        .run(&Params::new(), Scale::Bench)
        .expect("default parameters are valid");
    println!("{}", report.format_table());
    let mut held = true;
    for claim in scenario.claims() {
        let verdict = claim.evaluate(&report);
        println!("{verdict}");
        held &= verdict.passed();
    }
    if held {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
