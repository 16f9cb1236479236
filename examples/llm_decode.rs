//! The LLM serving family end to end: mixed prefill/decode continuous
//! batching, KV-cache pressure lowered to host-memory transfers, and
//! the one-shot autoregressive graph shapes (speculative decode, MoE
//! routing).
//!
//! ```sh
//! cargo run --release --example llm_decode
//! ```

use accesys::topology::switch_tree_with;
use accesys::{MemBackendConfig, Simulation, SystemConfig};
use accesys_mem::MemTech;
use accesys_serve::{serve_llm, ArrivalSpec, LlmRequestShape, LlmServeConfig, Policy};
use accesys_workload::llm::{moe_token_route, speculative_fork_verify, LlmSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A depth-1 tree with four leaves, each with local device memory —
    // the KV cache of every request lives in its device's slice.
    let mut cfg = SystemConfig::pcie_host(16.0, MemTech::Ddr4).with_compute_override_ns(5_000.0);
    cfg.smmu = None;
    let tree = |cfg: &SystemConfig| {
        switch_tree_with(cfg, &[4], |_| Some(MemBackendConfig::Dram(MemTech::Hbm2)))
    };

    // Every client sends the same autoregressive request: a tiny
    // two-layer model, 12-token prompt, 6 generated tokens.
    let shape = LlmRequestShape {
        spec: LlmSpec::tiny(),
        prompt: 12,
        decode: 6,
    };
    println!(
        "request: {} prompt tokens -> {} decode tokens, {} KV bytes/token, {} KV bytes max",
        shape.prompt,
        shape.decode,
        shape.spec.kv_bytes_per_token(),
        shape.max_kv_bytes()
    );

    // 1200 req/s of two-tenant Poisson traffic over 50 virtual ms —
    // enough to keep the batch full and prefills folding in next to
    // veterans' decode slices.
    let arrivals = ArrivalSpec::poisson(1200.0, 2, 42).generate(50_000_000);

    // The same trace under an ample and a tight per-device KV budget:
    // tight holds 1.5 requests' worth, so concurrent decoders must
    // evict each other and the pressure shows up as Transfer traffic.
    let budgets: [(&str, u64); 2] = [("ample", 1 << 20), ("tight", shape.max_kv_bytes() * 3 / 2)];
    println!("\n== serving 1200 req/s on a 4-leaf switch tree ==\n");
    println!(
        "{:<8} {:>8} {:>7} {:>7} {:>10} {:>10} {:>9} {:>9} {:>10}",
        "budget",
        "admitted",
        "rounds",
        "mixed",
        "ttft (µs)",
        "p50 (µs)",
        "tok/s",
        "goodput",
        "evictions"
    );
    for (name, budget) in budgets {
        let spec = tree(&cfg)?;
        let mut sim = Simulation::from_topology(cfg.clone(), &spec)?;
        let report = serve_llm(
            &mut sim,
            &shape,
            &arrivals,
            &Policy::round_robin(),
            &LlmServeConfig::new(8, 32, budget).with_slo_ns(50e6),
        )?;
        println!(
            "{:<8} {:>8} {:>7} {:>7} {:>10.0} {:>10.0} {:>9.0} {:>9.1} {:>10}",
            name,
            report.admitted,
            report.rounds,
            report.mixed_rounds,
            report.ttft.p50_ns / 1e3,
            report.latency.p50_ns / 1e3,
            report.decode_tps,
            report.goodput_rps,
            report.kv.evictions,
        );
    }

    // The one-shot autoregressive shapes, dispatched directly: a
    // speculative fork-verify round (draft chain + per-device verify)
    // and an MoE token-routing layer (router, per-expert transfers and
    // FFNs, combine).
    println!("\n== one-shot autoregressive graph shapes ==\n");
    let spec = tree(&cfg)?;
    let mut sim = Simulation::from_topology(cfg.clone(), &spec)?;
    let speculative = speculative_fork_verify(&shape.spec, shape.prompt, 4, 4);
    let run = sim.run_graph(&speculative)?;
    println!(
        "speculative fork-verify (4 draft tokens, 4 devices): {} tasks, {} ticks",
        speculative.len(),
        run.total_ticks
    );
    let moe = moe_token_route(&shape.spec, 16, 4, 4);
    let run = sim.run_graph(&moe)?;
    println!(
        "moe token route (16 tokens over 4 experts):          {} tasks, {} ticks",
        moe.len(),
        run.total_ticks
    );
    Ok(())
}
