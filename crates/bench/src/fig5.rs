//! Fig. 5 — device-side vs host-side memory across memory technologies.
//! The paper normalizes speedup to DDR4 device-side and reports
//! device-side winning across the board, with a 64 GB/s PCIe host
//! configuration reaching ≈78 % of device-side performance.

use crate::cli::Cli;
use crate::gemm_ns;
use crate::Scale;
use accesys::SystemConfig;
use accesys_exp::{Experiment, Grid};
use accesys_mem::MemTech;

/// Memory technologies compared (as in the paper's Fig. 5).
pub const TECHS: [MemTech; 4] = [
    MemTech::Ddr4,
    MemTech::Hbm2,
    MemTech::Gddr5,
    MemTech::Lpddr5,
];

/// One measurement triple for a memory technology.
#[derive(Clone, Debug, serde::Serialize)]
pub struct MemRow {
    /// Memory technology.
    pub tech: MemTech,
    /// Execution time with device-side memory, ns.
    pub device_ns: f64,
    /// Execution time with host memory over a 2 GB/s PCIe link, ns.
    pub host_2gb_ns: f64,
    /// Execution time with host memory over a 64 GB/s PCIe link, ns.
    pub host_64gb_ns: f64,
}

/// Matrix size at each scale.
pub fn matrix_size(scale: Scale) -> u32 {
    scale.pick(256, 1024)
}

/// The figure as a declarative experiment over [`TECHS`]; each point
/// measures the device-side and both host-side placements.
pub fn experiment(scale: Scale) -> impl Experiment<Point = MemTech, Out = MemRow> {
    let matrix = matrix_size(scale);
    Grid::new("fig5", TECHS).sweep(move |&tech| MemRow {
        tech,
        device_ns: gemm_ns(SystemConfig::devmem(tech), matrix),
        host_2gb_ns: gemm_ns(SystemConfig::pcie_host(2.0, tech), matrix),
        host_64gb_ns: gemm_ns(SystemConfig::pcie_host(64.0, tech), matrix),
    })
}

/// Run at the CLI's settings; print the table unless `--json`; return
/// the machine-readable sweep value.
pub fn run_cli(cli: &Cli) -> serde::Value {
    crate::cli::run_sweep_cli(cli, &experiment(cli.scale), |r| {
        print(&r.outputs().cloned().collect::<Vec<_>>(), cli.scale)
    })
}

/// Print normalized speedups (reference: DDR4 device-side).
pub fn print(rows: &[MemRow], scale: Scale) {
    let reference = rows
        .iter()
        .find(|r| r.tech == MemTech::Ddr4)
        .expect("DDR4 measured")
        .device_ns;
    println!(
        "# Fig 5: normalized speedup wrt DDR4 device-side, matrix {}",
        matrix_size(scale)
    );
    println!(
        "{:>10} {:>12} {:>12} {:>12} {:>16}",
        "memory", "device", "host@2GB/s", "host@64GB/s", "host64/device"
    );
    for r in rows {
        println!(
            "{:>10} {:>12.3} {:>12.3} {:>12.3} {:>15.1}%",
            r.tech.to_string(),
            reference / r.device_ns,
            reference / r.host_2gb_ns,
            reference / r.host_64gb_ns,
            100.0 * r.device_ns / r.host_64gb_ns
        );
    }
    println!("# paper: host@64GB/s reaches ~78% of device-side");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_side_beats_host_side_for_gemm() {
        let matrix = 128;
        let dev = gemm_ns(SystemConfig::devmem(MemTech::Hbm2), matrix);
        let host2 = gemm_ns(SystemConfig::pcie_host(2.0, MemTech::Hbm2), matrix);
        let host64 = gemm_ns(SystemConfig::pcie_host(64.0, MemTech::Hbm2), matrix);
        assert!(dev < host2, "device {dev} vs host@2 {host2}");
        assert!(dev <= host64 * 1.05, "device {dev} vs host@64 {host64}");
        // And faster PCIe closes most of the gap.
        assert!(host64 < host2 / 2.0);
    }
}
