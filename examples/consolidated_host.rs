//! Consolidated host via the scenario registry: the full `multivm`
//! pressure sweep (one paging-heavy aggressor, three remap-free victims,
//! four mechanisms) in a dozen lines.  A default-parameter run at bench
//! scale checks the scenario's claim itself and panics if it breaks.
//! Run with: `cargo run --release --example consolidated_host`

use hatric_host::scenario::{find, Params, Scale};

fn main() {
    let scenario = find("multivm").expect("multivm is registered");
    let report = scenario
        .run(&Params::new(), Scale::Bench)
        .expect("default parameters are valid");
    println!("{}", report.format_table());
    println!(
        "OK: at every pressure HATRIC victims stay within 5% of ideal and no slower than \
         software's; at severe pressure software shootdowns slow them more."
    );
}
