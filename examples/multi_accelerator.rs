//! Accelerator-cluster example: shard one GEMM across several MatrixFlow
//! instances behind one PCIe switch and watch the scaling regime change.
//! A cluster of `n` accelerators is the one-level switch tree
//! `topology::switch_tree(&cfg, &[n])`.
//!
//! Run with `cargo run --release --example multi_accelerator`.

use gem5_accesys::accesys::topology;
use gem5_accesys::prelude::*;

fn main() -> Result<(), Error> {
    let spec = GemmSpec::square(256);
    println!("Sharding {spec} across 1..=8 accelerators\n");
    println!(
        "{:>7} {:>12} {:>9} {:>12} {:>14}",
        "accels", "time (µs)", "speedup", "jobs", "uplink stalls"
    );
    let mut base_ns = 0.0;
    for accels in [1u32, 2, 4, 8] {
        let cfg = SystemConfig::pcie_host(8.0, MemTech::Ddr4);
        let tree = topology::switch_tree(&cfg, &[accels])?;
        let mut sim = Simulation::from_topology(cfg, &tree)?;
        let report = sim.run_gemm_sharded(spec)?;
        let t = report.total_time_ns();
        if accels == 1 {
            base_ns = t;
        }
        // Credit stalls on the shared switch→RC uplink mark saturation.
        let stalls = report.stats.get_or_zero("link.sw0.up.credit_stall_tlps");
        println!(
            "{:>7} {:>12.1} {:>8.2}x {:>12} {:>14.0}",
            accels,
            t / 1000.0,
            base_ns / t,
            report.jobs.len(),
            stalls
        );
    }
    println!("\nWith the default (fast) array the job is transfer-bound, so extra");
    println!("members mostly contend for the shared 8 GB/s uplink. Run");
    println!("`accesys exp cluster` to see the compute-bound regime scale near-linearly.");
    Ok(())
}
