//! Spec front-end acceptance gate: every committed `specs/*.spec`
//! file's quick-scale `--json` sweep is pinned **byte-for-byte** by a
//! golden snapshot under `golden/spec_<stem>.json`.
//!
//! The snapshots are what `accesys run specs/<stem>.spec --jobs 1
//! --json` prints (the serialized [`accesys_exp::SweepResult`]) — so
//! any drift in the loader's lowering, the drivers' measurement, or
//! the serializer shows up here as a byte diff. `spec_paper_baseline`
//! is additionally required to match the pre-refactor `fig2_quick.json`
//! golden exactly: the text spec is byte-equivalent to the hand-wired
//! paper baseline it replaced.
//!
//! Regenerate only for *intentional* model changes:
//! `ACCESYS_REGEN_GOLDEN=1 cargo test -p accesys-bench --test golden_specs`.

use accesys_bench::specs::{load, LIBRARY};
use accesys_bench::{decode, fig2, fleet, graph, serve, topo, Scale};
use accesys_exp::{Experiment, Jobs};
use accesys_spec::{Scenario, Spec};

/// The serialized quick-scale serial sweep of `spec` — exactly the
/// value `accesys run <spec> --jobs 1 --json` emits.
fn sweep_json(spec: &Spec) -> String {
    let value = match &spec.scenario {
        Scenario::Roofline(sc) => {
            serde::Serialize::to_value(&fig2::experiment_for(sc, Scale::Quick).run(Jobs::serial()))
        }
        Scenario::Topo(sc) => {
            serde::Serialize::to_value(&topo::experiment_for(sc, Scale::Quick).run(Jobs::serial()))
        }
        Scenario::Pipeline(sc) => {
            serde::Serialize::to_value(&graph::experiment_for(sc, Scale::Quick).run(Jobs::serial()))
        }
        Scenario::Serving(sc) => {
            serde::Serialize::to_value(&serve::experiment_for(sc, Scale::Quick).run(Jobs::serial()))
        }
        Scenario::Decode(sc) => serde::Serialize::to_value(
            &decode::experiment_for(sc, Scale::Quick).run(Jobs::serial()),
        ),
        // Host shards on the flat schedule; byte-identical at any --jobs.
        Scenario::Fleet(sc) => {
            serde::Serialize::to_value(&fleet::experiment_for(sc, Scale::Quick).run(Jobs::serial()))
        }
    };
    serde_json::to_string_pretty(&value).expect("sweep results serialize")
}

#[test]
fn every_committed_spec_matches_its_pinned_golden_byte_for_byte() {
    let regen = std::env::var("ACCESYS_REGEN_GOLDEN").is_ok();
    for (stem, _) in LIBRARY {
        let json = sweep_json(&load(stem));
        let path = format!("tests/golden/spec_{stem}.json");
        if regen {
            std::fs::write(&path, format!("{json}\n")).expect("golden written");
            continue;
        }
        let golden = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{path}: {e} (regenerate with ACCESYS_REGEN_GOLDEN=1)"));
        assert_eq!(
            json.trim(),
            golden.trim(),
            "specs/{stem}.spec output drifted from {path}"
        );
    }
}

#[test]
fn the_paper_baseline_spec_reproduces_the_pre_refactor_fig2_golden() {
    // The refactor's anchor: lowering the text spec must be
    // byte-identical to the hand-wired Fig. 2 driver it replaced.
    let fig2_golden = include_str!("golden/fig2_quick.json");
    let json = sweep_json(&load("paper_baseline"));
    assert_eq!(
        json.trim(),
        fig2_golden.trim(),
        "specs/paper_baseline.spec no longer reproduces the pinned fig2 sweep"
    );
}
