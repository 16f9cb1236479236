//! LLM serving acceptance gate: a small mixed prefill/decode serve
//! under KV pressure must reproduce its pinned report **byte-for-byte**
//! on the decode testbed tree.
//!
//! `golden/decode_quick.json` pins the serialized [`LlmServeReport`] of
//! a fixed four-request trace on a two-leaf tree with a tight KV budget
//! — prefill admission, per-round decode slices, eviction/restore
//! `Transfer` lowering, TTFT and EOS retirement all feed the snapshot,
//! so any timing, ordering or serialization drift in the
//! prefill/decode pipeline shows up here as a byte diff. Regenerate
//! only for *intentional* model changes:
//! `ACCESYS_REGEN_GOLDEN=1 cargo test -p accesys-bench --test golden_decode`.
//!
//! [`LlmServeReport`]: accesys_serve::LlmServeReport

use accesys::topology::switch_tree_with;
use accesys::{MemBackendConfig, Simulation, SystemConfig};
use accesys_mem::MemTech;
use accesys_serve::{serve_llm, Arrival, LlmRequestShape, LlmServeConfig, Policy};
use accesys_workload::llm::LlmSpec;

const GOLDEN: &str = include_str!("golden/decode_quick.json");
const GOLDEN_PATH: &str = "tests/golden/decode_quick.json";

#[test]
fn mixed_prefill_decode_serve_matches_the_pinned_snapshot_byte_for_byte() {
    let mut cfg = SystemConfig::pcie_host(16.0, MemTech::Ddr4).with_compute_override_ns(5_000.0);
    cfg.smmu = None;
    let spec = switch_tree_with(&cfg, &[2], |_| Some(MemBackendConfig::Dram(MemTech::Hbm2)))
        .expect("valid tree");
    let mut sim = Simulation::from_topology(cfg, &spec).expect("valid topology");

    let shape = LlmRequestShape {
        spec: LlmSpec::tiny(),
        prompt: 8,
        decode: 4,
    };
    // Two waves so prefill and decode mix, and a budget of 1.5
    // requests per device so the eviction path feeds the snapshot too.
    let arrivals = [
        Arrival {
            at_ns: 0,
            tenant: 0,
        },
        Arrival {
            at_ns: 0,
            tenant: 1,
        },
        Arrival {
            at_ns: 400_000,
            tenant: 0,
        },
        Arrival {
            at_ns: 400_001,
            tenant: 1,
        },
    ];
    let serve_cfg = LlmServeConfig::new(4, 16, shape.max_kv_bytes() * 3 / 2).with_slo_ns(10e6);
    let report = serve_llm(
        &mut sim,
        &shape,
        &arrivals,
        &Policy::round_robin(),
        &serve_cfg,
    )
    .expect("serve completes");
    assert_eq!(report.completed, 4, "the golden trace serves everything");
    assert!(
        report.kv.evictions > 0,
        "the golden trace exercises KV pressure"
    );

    let json = serde_json::to_string_pretty(&serde::Serialize::to_value(&report))
        .expect("reports serialize");
    if std::env::var("ACCESYS_REGEN_GOLDEN").is_ok() {
        std::fs::write(GOLDEN_PATH, format!("{json}\n")).expect("golden written");
        return;
    }
    assert_eq!(
        json.trim(),
        GOLDEN.trim(),
        "serve_llm output drifted from the pinned prefill/decode snapshot"
    );
}
