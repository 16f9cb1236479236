//! Design-space exploration: the kind of study the framework exists for.
//! Sweeps PCIe bandwidth × memory technology × memory location for a
//! fixed GEMM — in parallel, through the `accesys-exp` engine — and
//! prints the grid, so a system architect can pick the cheapest
//! configuration that meets a latency target (the paper's "balanced
//! approach to performance and cost").
//!
//! Run with `cargo run --release --example design_space_exploration`
//! (`ACCESYS_JOBS=N` to pin the worker count).

use gem5_accesys::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = GemmSpec::square(256);
    let bandwidths = [2.0, 8.0, 32.0];
    let techs = [MemTech::Ddr4, MemTech::Gddr6, MemTech::Hbm2];

    // One grid point per (tech, link) cell; `None` is the DevMem column.
    let links: Vec<Option<f64>> = bandwidths.iter().copied().map(Some).chain([None]).collect();
    let result = Grid::cross2("dse", techs, links)
        .sweep(|&(tech, link)| {
            let cfg = match link {
                Some(bw) => SystemConfig::pcie_host(bw, tech),
                None => SystemConfig::devmem(tech),
            };
            Simulation::measure_gemm(cfg, spec)
                .map(|r| r.total_time_ns() / 1000.0)
                .expect("config valid and run completes")
        })
        .run(Jobs::from_env()?);
    eprintln!(
        "# dse: {} points in {:.2}s (jobs={})",
        result.points.len(),
        result.wall_secs(),
        result.jobs
    );

    println!("GEMM {spec}: execution time in us\n");
    print!("{:>22}", "config");
    for bw in bandwidths {
        print!("{:>14}", format!("PCIe {bw} GB/s"));
    }
    println!("{:>14}", "DevMem");
    for tech in techs {
        print!("{:>22}", format!("host/device {tech}"));
        for (_, us) in result.points.iter().filter(|((t, _), _)| *t == tech) {
            print!("{us:>14.1}");
        }
        println!();
    }

    println!();
    println!("reading: host-side memory with a fast link closes most of the");
    println!("gap to device-side memory for GEMM-like streaming workloads.");
    Ok(())
}
