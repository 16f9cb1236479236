//! The serving layer end to end: open-loop traffic, continuous
//! batching, and the latency/goodput numbers a serving system is
//! judged by.
//!
//! ```sh
//! cargo run --release --example serving
//! ```

use accesys::topology::switch_tree_with;
use accesys::{MemBackendConfig, Simulation, SystemConfig};
use accesys_mem::MemTech;
use accesys_serve::{serve, ArrivalSpec, Policy, RequestShape, ServeConfig};

fn main() -> Result<(), accesys::Error> {
    // A depth-1 tree with four accelerator leaves, each with local
    // device memory (job DMA off the shared uplink, compute pinned) —
    // the serving testbed of the `serve_scaling` experiment.
    let mut cfg = SystemConfig::pcie_host(16.0, MemTech::Ddr4).with_compute_override_ns(50_000.0);
    cfg.smmu = None;
    let tree = |cfg: &SystemConfig| {
        switch_tree_with(cfg, &[4], |_| Some(MemBackendConfig::Dram(MemTech::Hbm2)))
    };

    // Every client sends the same request: a two-layer encoder, small
    // enough that per-job compute dominates.
    let shape = RequestShape {
        seq: 16,
        hidden: 64,
        heads: 4,
        mlp: 128,
        slices: 2,
    };
    // 800 req/s of two-tenant Poisson traffic over 50 virtual ms —
    // past what one leaf can serve, within reach of four.
    let arrivals = ArrivalSpec::poisson(800.0, 2, 42).generate(50_000_000);
    let config = ServeConfig::new(8, 32).with_slo_ns(20e6);

    println!("== serving 800 req/s on a 4-leaf switch tree ==\n");
    println!(
        "{:<16} {:>9} {:>9} {:>10} {:>10} {:>10} {:>9}",
        "policy", "admitted", "rejected", "p50 (µs)", "p99 (µs)", "goodput", "rounds"
    );

    // The same trace under each batching policy.
    let policies: [(&str, Policy); 3] = [
        ("fifo", Policy::Fifo),
        ("round-robin", Policy::round_robin()),
        ("weighted 3:1", Policy::weighted_share(&[3, 1])),
    ];
    for (name, policy) in policies {
        let spec = tree(&cfg)?;
        let mut sim = Simulation::from_topology(cfg.clone(), &spec)?;
        let report = serve(&mut sim, &shape, &arrivals, &policy, &config)?;
        println!(
            "{:<16} {:>9} {:>9} {:>10.0} {:>10.0} {:>10.1} {:>9}",
            name,
            report.admitted,
            report.rejected,
            report.latency.p50_ns / 1e3,
            report.latency.p99_ns / 1e3,
            report.goodput_rps,
            report.rounds,
        );
    }

    // One request at a time on the same hardware: what serving looked
    // like before the batching engine.
    let spec = tree(&cfg)?;
    let mut sim = Simulation::from_topology(cfg.clone(), &spec)?;
    let sequential = serve(
        &mut sim,
        &shape,
        &arrivals,
        &Policy::Fifo,
        &ServeConfig::new(1, 32).with_slo_ns(20e6),
    )?;
    println!(
        "{:<16} {:>9} {:>9} {:>10.0} {:>10.0} {:>10.1} {:>9}",
        "one-at-a-time",
        sequential.admitted,
        sequential.rejected,
        sequential.latency.p50_ns / 1e3,
        sequential.latency.p99_ns / 1e3,
        sequential.goodput_rps,
        sequential.rounds,
    );

    // Per-tenant tails under the weighted policy.
    let spec = tree(&cfg)?;
    let mut sim = Simulation::from_topology(cfg.clone(), &spec)?;
    let weighted = serve(
        &mut sim,
        &shape,
        &arrivals,
        &Policy::weighted_share(&[3, 1]),
        &config,
    )?;
    println!("\nper-tenant tails under weighted 3:1 share:");
    for t in &weighted.tenants {
        println!(
            "  tenant {}: {:>4} served, p99 {:>8.0} µs",
            t.tenant,
            t.latency.count,
            t.latency.p99_ns / 1e3
        );
    }
    Ok(())
}
