//! Integration tests for the LLM serving engine: slot reuse at mixed
//! admission/retirement rounds, whole-batch EOS drains, KV-budget
//! entry errors, a budget that cannot bind one request in flight, and
//! byte-identical trace replay of a mixed prefill/decode arrival trace.

use accesys::topology::switch_tree_with;
use accesys::{MemBackendConfig, Simulation, SystemConfig};
use accesys_mem::MemTech;
use accesys_serve::{serve_llm, Arrival, LlmRequestShape, LlmServeConfig, LlmServeError, Policy};
use accesys_workload::llm::LlmSpec;

/// A compute-dominated two-leaf tree with per-device local memory —
/// the smallest topology where KV homes actually differ.
fn two_leaf_sim() -> Simulation {
    let mut cfg = SystemConfig::pcie_host(16.0, MemTech::Ddr4).with_compute_override_ns(5_000.0);
    cfg.smmu = None;
    let spec = switch_tree_with(&cfg, &[2], |_| Some(MemBackendConfig::Dram(MemTech::Hbm2)))
        .expect("valid tree");
    Simulation::from_topology(cfg, &spec).expect("valid topology")
}

/// A tiny autoregressive request: 8-token prompt, `decode` generated
/// tokens.
fn shape(decode: u32) -> LlmRequestShape {
    LlmRequestShape {
        spec: LlmSpec::tiny(),
        prompt: 8,
        decode,
    }
}

fn at(at_ns: u64) -> Arrival {
    Arrival { at_ns, tenant: 0 }
}

#[test]
fn prefill_folds_in_the_round_a_decode_retires() {
    // Batch cap 1: request 0 occupies the only slot for 1 prefill +
    // 2 decode rounds. Request 1 arrives at t=0 too, so the round that
    // retires request 0 must hand the slot straight to request 1 —
    // no idle round in between (slot reuse at the barrier).
    let mut sim = two_leaf_sim();
    let report = serve_llm(
        &mut sim,
        &shape(2),
        &[at(0), at(0)],
        &Policy::Fifo,
        &LlmServeConfig::new(1, 16, 1 << 20),
    )
    .expect("serve completes");
    assert_eq!(report.completed, 2);
    assert_eq!(report.idle_jumps, 0, "slot reuse leaves no idle gap");
    // 2 requests × (1 prefill + 2 decode) rounds, back to back.
    assert_eq!(report.rounds, 6);
    assert_eq!(report.peak_batch, 1);
    assert_eq!(report.tokens_decoded, 4);
}

#[test]
fn whole_batch_eos_drains_without_idle_spin() {
    // Four identical requests admitted together hit EOS in the same
    // round. With no arrivals left the engine must drain immediately:
    // exactly 1 prefill round + `decode` decode rounds, zero idle
    // jumps, no spinning on an empty batch.
    let mut sim = two_leaf_sim();
    let report = serve_llm(
        &mut sim,
        &shape(3),
        &[at(0), at(0), at(0), at(0)],
        &Policy::Fifo,
        &LlmServeConfig::new(8, 16, 1 << 20),
    )
    .expect("serve completes");
    assert_eq!(report.completed, 4);
    assert_eq!(report.rounds, 4, "1 prefill + 3 decode rounds, then done");
    assert_eq!(report.idle_jumps, 0);
    assert_eq!(report.peak_batch, 4);
    // Everything decoded in lockstep: no round mixed prefill and decode.
    assert_eq!(report.mixed_rounds, 0);
}

#[test]
fn staggered_admission_mixes_prefill_and_decode_rounds() {
    // A second wave arrives while the first is mid-decode: the engine
    // must batch the newcomers' prefills into the same rounds as the
    // veterans' decode slices (continuous batching, not stop-the-world).
    let mut sim = two_leaf_sim();
    let report = serve_llm(
        &mut sim,
        &shape(6),
        &[at(0), at(1), at(200_000), at(200_001)],
        &Policy::Fifo,
        &LlmServeConfig::new(8, 16, 1 << 20),
    )
    .expect("serve completes");
    assert_eq!(report.completed, 4);
    assert!(
        report.mixed_rounds > 0,
        "staggered arrivals must produce mixed prefill/decode rounds"
    );
    // TTFT is observed for every request and is never later than EOS.
    assert_eq!(report.ttft.count, 4);
    assert!(report.ttft.mean_ns < report.latency.mean_ns);
}

#[test]
fn zero_decode_requests_retire_at_prefill() {
    let mut sim = two_leaf_sim();
    let report = serve_llm(
        &mut sim,
        &shape(0),
        &[at(0), at(0)],
        &Policy::Fifo,
        &LlmServeConfig::new(4, 16, 1 << 20),
    )
    .expect("serve completes");
    assert_eq!(report.completed, 2);
    assert_eq!(report.rounds, 1);
    assert_eq!(report.tokens_decoded, 0);
    // TTFT coincides with full latency for prefill-only requests.
    assert_eq!(report.ttft.count, 2);
    assert_eq!(report.ttft.max_ns, report.latency.max_ns);
}

#[test]
fn oversized_shapes_are_a_typed_error_before_any_simulation() {
    let mut sim = two_leaf_sim();
    let s = shape(4);
    let need = s.max_kv_bytes();
    let err = serve_llm(
        &mut sim,
        &s,
        &[at(0)],
        &Policy::Fifo,
        &LlmServeConfig::new(4, 16, need - 1),
    )
    .expect_err("budget below one request's footprint");
    match err {
        LlmServeError::ShapeExceedsKvBudget { need: n, budget } => {
            assert_eq!(n, need);
            assert_eq!(budget, need - 1);
        }
        other => panic!("expected ShapeExceedsKvBudget, got {other}"),
    }
    // And a budget beyond the streaming window is rejected too.
    let err = serve_llm(
        &mut sim,
        &s,
        &[at(0)],
        &Policy::Fifo,
        &LlmServeConfig::new(4, 16, u64::MAX),
    )
    .expect_err("budget beyond the transfer window");
    assert!(matches!(err, LlmServeError::KvBudgetTooLarge { .. }));
}

#[test]
fn tight_budgets_surface_eviction_traffic() {
    // Budget fits 1.5 requests: concurrent decoders must thrash, and
    // the thrash must be visible as eviction/restore Transfer tasks —
    // while every request still completes.
    let s = shape(4);
    let tight = LlmServeConfig::new(4, 16, s.max_kv_bytes() * 3 / 2);
    let mut sim = two_leaf_sim();
    let report = serve_llm(
        &mut sim,
        &s,
        &[at(0), at(0), at(0), at(0)],
        &Policy::Fifo,
        &tight,
    )
    .expect("serve completes under pressure");
    assert_eq!(report.completed, 4);
    assert!(report.kv.evictions > 0, "pressure must evict");
    assert!(report.kv.evicted_bytes > 0);
    assert!(report.kv.restores > 0, "evicted decoders must come back");
    assert_eq!(
        report.kv.transfer_tasks,
        report.kv.evictions + report.kv.restores,
        "every KV event becomes a Transfer task"
    );
    assert!(report.kv.peak_resident <= tight.kv_budget);
}

#[test]
fn one_request_in_flight_never_feels_the_kv_budget() {
    // Batch cap 1 on a saturating trace: a request that fits its slice
    // is alone on its device, so no claim can evict, and a budget of
    // exactly one request serves the same as a whole MiB. Sweeps rely
    // on this to run one sequential serve per budget axis.
    let s = shape(4);
    let arrivals: Vec<Arrival> = (0..8).map(|_| at(0)).collect();
    let [exact, ample] = [s.max_kv_bytes(), 1 << 20].map(|budget| {
        let mut sim = two_leaf_sim();
        serve_llm(
            &mut sim,
            &s,
            &arrivals,
            &Policy::Fifo,
            &LlmServeConfig::new(1, 16, budget).with_slo_ns(5e6),
        )
        .expect("serve completes")
    });
    assert!(exact.kv.budget < ample.kv.budget);
    assert_eq!(exact.completed, 8);
    assert_eq!(exact.idle_jumps, 0, "the trace must queue");
    assert_eq!(exact.kv.peak_resident, exact.kv.budget, "the slice fills");
    for report in [&exact, &ample] {
        assert_eq!(report.kv.evictions, 0, "one request in flight evicted");
    }
    let mut ample = ample;
    ample.kv.budget = exact.kv.budget;
    assert_eq!(
        format!("{:?}", serde::Serialize::to_value(&exact)),
        format!("{:?}", serde::Serialize::to_value(&ample)),
        "the budget reached the report beyond kv.budget"
    );
}

#[test]
fn mixed_trace_replay_is_byte_identical() {
    // A recorded mixed-tenant arrival trace served twice on fresh
    // simulations must produce byte-identical reports — the whole
    // prefill/decode/KV pipeline is deterministic.
    let arrivals = [
        (0, 0),
        (40_000, 1),
        (40_000, 0),
        (900_000, 1),
        (900_001, 0),
        (900_002, 1),
    ]
    .map(|(at_ns, tenant)| Arrival { at_ns, tenant })
    .to_vec();
    let s = shape(3);
    let cfg = LlmServeConfig::new(2, 8, s.max_kv_bytes() * 2).with_slo_ns(5e6);
    let runs: Vec<String> = (0..2)
        .map(|_| {
            let mut sim = two_leaf_sim();
            let report = serve_llm(&mut sim, &s, &arrivals, &Policy::round_robin(), &cfg)
                .expect("serve completes");
            format!("{:?}", serde::Serialize::to_value(&report))
        })
        .collect();
    assert_eq!(runs[0], runs[1], "trace replay must be byte-identical");
}
