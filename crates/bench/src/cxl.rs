//! Extension experiment — PCIe hierarchy vs a CXL.mem flit link.
//!
//! The paper's title promises exploration of *standard interconnects*;
//! its evaluation covers PCIe. This experiment extends the same
//! framework to the next standard interconnect: the accelerator attached
//! point-to-point over a CXL.mem-style flit link (no switch hop, 25 ns
//! host bridge, 68 B flits) versus PCIe hierarchies of equal and higher
//! bandwidth. Expected shape: CXL wins clearly on small (latency-bound)
//! jobs and converges toward the equal-bandwidth PCIe curve as jobs grow
//! bandwidth-bound.

use crate::cli::Cli;
use crate::gemm_ns;
use crate::Scale;
use accesys::SystemConfig;
use accesys_exp::{Experiment, Grid};
use accesys_mem::MemTech;

/// One matrix-size row of the comparison.
#[derive(Clone, Debug, serde::Serialize)]
pub struct CxlRow {
    /// Square matrix dimension.
    pub matrix: u32,
    /// CXL ×8 execution time, ns.
    pub cxl_ns: f64,
    /// PCIe at the same effective bandwidth, ns.
    pub pcie_equal_ns: f64,
    /// The paper's 2 GB/s PCIe baseline, ns.
    pub pcie_2gb_ns: f64,
}

/// Matrix sizes at each scale.
pub fn matrix_sizes(scale: Scale) -> Vec<u32> {
    match scale {
        Scale::Quick => vec![32, 64, 128, 256],
        Scale::Paper => vec![64, 128, 256, 512, 1024, 2048],
    }
}

/// The comparison as a declarative experiment over matrix sizes; each
/// point measures CXL, bandwidth-matched PCIe, and the 2 GB/s baseline.
pub fn experiment(scale: Scale) -> impl Experiment<Point = u32, Out = CxlRow> {
    let cxl_bw = SystemConfig::cxl_host(8, MemTech::Ddr4)
        .cxl_link
        .payload_bandwidth_gbps();
    Grid::new("cxl", matrix_sizes(scale)).sweep(move |&matrix| CxlRow {
        matrix,
        cxl_ns: gemm_ns(SystemConfig::cxl_host(8, MemTech::Ddr4), matrix),
        pcie_equal_ns: gemm_ns(SystemConfig::pcie_host(cxl_bw, MemTech::Ddr4), matrix),
        pcie_2gb_ns: gemm_ns(SystemConfig::pcie_host(2.0, MemTech::Ddr4), matrix),
    })
}

/// Run at the CLI's settings; print the table unless `--json`; return
/// the machine-readable sweep value.
pub fn run_cli(cli: &Cli) -> serde::Value {
    let result = experiment(cli.scale).run(cli.jobs);
    crate::cli::note_wall(&result);
    if !cli.json {
        print(&result.outputs().cloned().collect::<Vec<_>>());
    }
    serde::Serialize::to_value(&result)
}

/// Print the comparison table.
pub fn print(rows: &[CxlRow]) {
    println!("# CXL vs PCIe (extension): GEMM execution time, DDR4 host memory");
    println!(
        "{:>8} {:>12} {:>14} {:>12} {:>10}",
        "matrix", "CXLx8 (µs)", "PCIe=bw (µs)", "PCIe2GB (µs)", "cxl gain"
    );
    for r in rows {
        println!(
            "{:>8} {:>12.1} {:>14.1} {:>12.1} {:>9.2}x",
            r.matrix,
            r.cxl_ns / 1000.0,
            r.pcie_equal_ns / 1000.0,
            r.pcie_2gb_ns / 1000.0,
            r.pcie_equal_ns / r.cxl_ns
        );
    }
    println!("# expected shape: CXL ≥ PCIe at equal bandwidth, gap widest on small jobs");
}

#[cfg(test)]
mod tests {
    use super::*;
    use accesys_exp::Jobs;

    #[test]
    fn cxl_gain_shrinks_as_jobs_grow_bandwidth_bound() {
        let rows = experiment(Scale::Quick).run(Jobs::serial()).into_outputs();
        let gain = |r: &CxlRow| r.pcie_equal_ns / r.cxl_ns;
        let first = gain(&rows[0]);
        let last = gain(rows.last().unwrap());
        assert!(first > 1.0, "CXL should win small jobs: {first:.2}");
        assert!(
            last < first,
            "latency advantage should dilute: {first:.2} -> {last:.2}"
        );
    }
}
