//! Encoder serving acceptance gate: a small two-tenant serve must
//! reproduce its pinned report and completion trace **byte-for-byte**.
//!
//! `golden/serve_quick.json` pins the full serialized [`ServeReport`]
//! (idle jumps, elapsed span, rates, mean/max and per-tenant tails)
//! plus the [`Completion`] trace in retirement order of a fixed trace
//! on a two-leaf tree: a burst that overflows the admission bound, two
//! tenants under round-robin, two-slice requests, and one idle gap the
//! serving clock must jump. The spec goldens keep only sweep-row
//! subsets of these numbers, so this is what pins the engine's own
//! output. Regenerate only for *intentional* model changes:
//! `ACCESYS_REGEN_GOLDEN=1 cargo test -p accesys-bench --test golden_serve`.

use accesys::topology::switch_tree;
use accesys::{Simulation, SystemConfig};
use accesys_mem::MemTech;
use accesys_serve::{
    serve_traced, Arrival, Completion, Policy, RequestShape, ServeConfig, ServeReport,
};

const GOLDEN: &str = include_str!("golden/serve_quick.json");
const GOLDEN_PATH: &str = "tests/golden/serve_quick.json";

#[derive(serde::Serialize)]
struct Snapshot {
    report: ServeReport,
    completions: Vec<Completion>,
}

#[test]
fn two_tenant_encoder_serve_matches_the_pinned_snapshot_byte_for_byte() {
    let mut cfg = SystemConfig::pcie_host(16.0, MemTech::Ddr4).with_compute_override_ns(5_000.0);
    cfg.smmu = None;
    let spec = switch_tree(&cfg, &[2]).expect("valid tree");
    let mut sim = Simulation::from_topology(cfg, &spec).expect("valid topology");

    let shape = RequestShape {
        seq: 16,
        hidden: 64,
        heads: 4,
        mlp: 128,
        slices: 2,
    };
    // An eight-request burst into a three-slot queue behind a two-slot
    // batch rejects some of it; the pair 10 ms later arrives after the
    // burst has drained, so the serving clock jumps the gap.
    let mut arrivals: Vec<Arrival> = (0..8)
        .map(|i| Arrival {
            at_ns: i * 1_000,
            tenant: (i % 2) as u32,
        })
        .collect();
    arrivals.push(Arrival {
        at_ns: 10_000_000,
        tenant: 1,
    });
    arrivals.push(Arrival {
        at_ns: 10_000_500,
        tenant: 0,
    });
    let (report, completions) = serve_traced(
        &mut sim,
        &shape,
        &arrivals,
        &Policy::round_robin(),
        &ServeConfig::new(2, 3).with_slo_ns(800_000.0),
    )
    .expect("serve completes");
    assert!(report.rejected > 0, "the burst overflows the queue bound");
    assert_eq!(report.idle_jumps, 1, "one idle gap, one jump");
    assert_eq!(report.completed, report.admitted);
    assert_eq!(report.tenants.len(), 2);

    let snapshot = Snapshot {
        report,
        completions,
    };
    let json = serde_json::to_string_pretty(&serde::Serialize::to_value(&snapshot))
        .expect("reports serialize");
    if std::env::var("ACCESYS_REGEN_GOLDEN").is_ok() {
        std::fs::write(GOLDEN_PATH, format!("{json}\n")).expect("golden written");
        return;
    }
    assert_eq!(
        json.trim(),
        GOLDEN.trim(),
        "serve_traced output drifted from the pinned encoder snapshot"
    );
}
