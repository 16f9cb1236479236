//! Topology-layer example: build multi-level PCIe switch trees from the
//! declarative IR, shard a GEMM across every leaf, and watch what tree
//! shape costs — and what the validator refuses to build.
//!
//! Run with `cargo run --release --example topology_tree`.

use gem5_accesys::accesys::topology;
use gem5_accesys::prelude::*;
use gem5_accesys::workload::GemmSpec;

fn main() -> Result<(), Error> {
    let spec = GemmSpec::square(256);
    println!("Sharding {spec} across PCIe switch trees\n");
    println!(
        "{:>8} {:>6} {:>10} {:>12} {:>14}",
        "shape", "depth", "leaves", "time (µs)", "root up TLPs"
    );
    for levels in [vec![4], vec![8], vec![2, 4], vec![2, 2, 2]] {
        let shape = levels
            .iter()
            .map(u32::to_string)
            .collect::<Vec<_>>()
            .join("x");
        let cfg = SystemConfig::pcie_host(16.0, MemTech::Ddr4);
        let tree = topology::switch_tree(&cfg, &levels)?;
        let mut sim = Simulation::from_topology(cfg, &tree)?;
        let report = sim.run_gemm_sharded(spec)?;
        println!(
            "{:>8} {:>6} {:>10} {:>12.1} {:>14.0}",
            shape,
            levels.len(),
            sim.accel_count(),
            report.total_time_ns() / 1000.0,
            report.stats.get_or_zero("pcie.sw0.up_tlps"),
        );
    }

    // Heterogeneous endpoints: leaf 1 gets HBM2 next to the array, so
    // its shard never crosses PCIe while leaf 0 streams from host DRAM.
    let mut cfg = SystemConfig::pcie_host(8.0, MemTech::Ddr4);
    cfg.smmu = None;
    let tree = topology::switch_tree_with(&cfg, &[2], |i| {
        (i == 1).then_some(gem5_accesys::accesys::MemBackendConfig::Dram(MemTech::Hbm2))
    })?;
    let mut sim = Simulation::from_topology(cfg, &tree)?;
    let report = sim.run_gemm_sharded(spec)?;
    println!("\nHeterogeneous 2-leaf tree (leaf 1 has local HBM2):");
    println!(
        "  ep0 PCIe reads: {:>6.0}   ep1 PCIe reads: {:>6.0}   dev_mem1 bytes: {:.0}",
        report.stats.get_or_zero("pcie.ep0.reads_sent"),
        report.stats.get_or_zero("pcie.ep1.reads_sent"),
        report.stats.get_or_zero("dev_mem1.bytes"),
    );

    // The validator rejects shapes the route stack cannot carry —
    // at build time, not as a panic mid-run.
    let cfg = SystemConfig::paper_baseline();
    let err = topology::switch_tree(&cfg, &[2, 2, 1, 1, 1, 1]).unwrap_err();
    println!("\n6-level tree rejected up front: {err}");
    Ok(())
}
