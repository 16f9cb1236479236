//! Topology-refactor acceptance gate: `SystemConfig::paper_baseline()`
//! lowered through the topology engine must produce **byte-identical**
//! `fig2 --json` output vs the original hand-wired Fig. 1 builder.
//!
//! `golden/fig2_quick.json` was captured from the pre-refactor builder
//! (`fig2 --jobs 1 --json` at quick scale, PR 3 HEAD). Any timing or
//! serialization drift in the lowered baseline shows up here as a byte
//! diff. Regenerate the golden only for *intentional* model changes:
//! `cargo run --release -p accesys-bench --bin accesys -- exp fig2 --jobs 1 --json`.

use accesys_bench::{fig2, specs, Scale};
use accesys_exp::{Experiment, Jobs};
use accesys_spec::Scenario;

const GOLDEN: &str = include_str!("golden/fig2_quick.json");

#[test]
fn lowered_baseline_matches_hand_wired_fig2_output_byte_for_byte() {
    let Scenario::Roofline(sc) = specs::load("paper_baseline").scenario else {
        unreachable!()
    };
    let result = fig2::experiment_for(&sc, Scale::Quick).run(Jobs::serial());
    let json = serde_json::to_string_pretty(&serde::Serialize::to_value(&result))
        .expect("sweep results serialize");
    assert_eq!(
        json.trim(),
        GOLDEN.trim(),
        "fig2 --json output drifted from the pre-refactor golden snapshot"
    );
}
