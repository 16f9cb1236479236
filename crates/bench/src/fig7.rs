//! Figs. 7 & 8 — Transformer (ViT) inference across the four system
//! configurations of Section V-C, with the GEMM / Non-GEMM split of
//! Section V-D.1:
//!
//! * Fig. 7: PCIe-64GB is ~2.5–3.4× faster than PCIe-2GB; DevMem is
//!   *slightly worse* than PCIe-64GB despite its faster GEMMs.
//! * Fig. 8: DevMem has the best GEMM time but up to ~5× worse Non-GEMM
//!   time (NUMA access from the CPU to device memory).

use crate::cli::Cli;
use crate::Scale;
use accesys::{Simulation, SystemConfig, VitReport};
use accesys_exp::{Experiment, Grid};
use accesys_mem::MemTech;
use accesys_workload::VitModel;

/// The four systems of Section V-C.
#[derive(Copy, Clone, PartialEq, Eq, Debug, serde::Serialize)]
pub enum SystemKind {
    /// Host memory, 2 GB/s PCIe, DDR4, 256 B packets.
    Pcie2,
    /// Host memory, 8 GB/s PCIe, DDR4, 256 B packets.
    Pcie8,
    /// Host memory, 64 GB/s PCIe, HBM2, 256 B packets.
    Pcie64,
    /// Device-side HBM2, 64 B bursts.
    DevMem,
}

impl SystemKind {
    /// All four systems in the paper's order.
    pub const ALL: [SystemKind; 4] = [
        SystemKind::Pcie2,
        SystemKind::Pcie8,
        SystemKind::Pcie64,
        SystemKind::DevMem,
    ];

    /// The paper's configuration for this system.
    pub fn config(self) -> SystemConfig {
        match self {
            SystemKind::Pcie2 => {
                SystemConfig::pcie_host(2.0, MemTech::Ddr4).with_request_bytes(256)
            }
            SystemKind::Pcie8 => {
                SystemConfig::pcie_host(8.0, MemTech::Ddr4).with_request_bytes(256)
            }
            SystemKind::Pcie64 => {
                SystemConfig::pcie_host(64.0, MemTech::Hbm2).with_request_bytes(256)
            }
            SystemKind::DevMem => SystemConfig::devmem(MemTech::Hbm2),
        }
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            SystemKind::Pcie2 => "PCIe-2GB",
            SystemKind::Pcie8 => "PCIe-8GB",
            SystemKind::Pcie64 => "PCIe-64GB",
            SystemKind::DevMem => "DevMem",
        }
    }
}

/// One (model, system) measurement.
#[derive(Clone, Debug, serde::Serialize)]
pub struct VitCell {
    /// The ViT variant.
    pub model: VitModel,
    /// The system configuration.
    pub system: SystemKind,
    /// One-layer report.
    pub report: VitReport,
}

impl VitCell {
    /// Full-model time (layer time × layer count), ns.
    pub fn full_model_ns(&self) -> f64 {
        self.report.full_model_ns(self.model.layers())
    }
}

/// Models evaluated at each scale (paper: all three).
pub fn models(scale: Scale) -> Vec<VitModel> {
    scale.pick(vec![VitModel::Base], VitModel::ALL.to_vec())
}

/// Measure one layer of `model` on `system`.
pub fn measure(model: VitModel, system: SystemKind) -> VitCell {
    let mut sim = Simulation::new(system.config()).expect("valid config");
    let report = sim.run_vit_layer(model).expect("layer completes");
    VitCell {
        model,
        system,
        report,
    }
}

/// The figure as a declarative experiment over model × system.
pub fn experiment(scale: Scale) -> impl Experiment<Point = (VitModel, SystemKind), Out = VitCell> {
    Grid::cross2("fig7", models(scale), SystemKind::ALL)
        .sweep(|&(model, system)| measure(model, system))
}

/// Run at the CLI's settings; print the tables unless `--json`; return
/// the machine-readable sweep value.
pub fn run_cli(cli: &Cli) -> serde::Value {
    let result = experiment(cli.scale).run(cli.jobs);
    crate::cli::note_wall(&result);
    if !cli.json {
        print(&result.outputs().cloned().collect::<Vec<_>>());
    }
    serde::Serialize::to_value(&result)
}

/// Print Fig. 7 and Fig. 8 from measured cells.
pub fn print(cells: &[VitCell]) {
    println!("# Fig 7: ViT inference time (one layer x layers), speedup vs PCIe-2GB");
    println!(
        "{:>10} {:>11} {:>12} {:>10}",
        "model", "system", "total (ms)", "speedup"
    );
    let mut seen = Vec::new();
    for c in cells {
        if !seen.contains(&c.model) {
            seen.push(c.model);
        }
    }
    for model in seen {
        let base = cells
            .iter()
            .find(|c| c.model == model && c.system == SystemKind::Pcie2)
            .expect("PCIe-2GB measured")
            .full_model_ns();
        for c in cells.iter().filter(|c| c.model == model) {
            println!(
                "{:>10} {:>11} {:>12.2} {:>9.2}x",
                c.model.to_string(),
                c.system.label(),
                c.full_model_ns() / 1e6,
                base / c.full_model_ns()
            );
        }
    }
    println!("# paper: PCIe-64GB 2.5-3.4x over PCIe-2GB; DevMem slightly below PCIe-64GB");
    println!();
    println!("# Fig 8: GEMM vs Non-GEMM time per layer (us)");
    println!(
        "{:>10} {:>11} {:>12} {:>12} {:>14}",
        "model", "system", "gemm", "non-gemm", "non-gemm frac"
    );
    for c in cells {
        println!(
            "{:>10} {:>11} {:>12.1} {:>12.1} {:>13.1}%",
            c.model.to_string(),
            c.system.label(),
            c.report.gemm_ns() / 1000.0,
            c.report.non_gemm_ns() / 1000.0,
            100.0 * c.report.non_gemm_fraction()
        );
    }
    println!("# paper: DevMem best at GEMM, up to ~500% Non-GEMM overhead vs PCIe systems");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn devmem_wins_gemm_but_loses_non_gemm() {
        let dev = measure(VitModel::Base, SystemKind::DevMem);
        let p64 = measure(VitModel::Base, SystemKind::Pcie64);
        assert!(
            dev.report.gemm_ns() <= p64.report.gemm_ns() * 1.1,
            "DevMem GEMM should be competitive: {} vs {}",
            dev.report.gemm_ns(),
            p64.report.gemm_ns()
        );
        assert!(
            dev.report.non_gemm_ns() > 2.0 * p64.report.non_gemm_ns(),
            "DevMem Non-GEMM should suffer NUMA: {} vs {}",
            dev.report.non_gemm_ns(),
            p64.report.non_gemm_ns()
        );
    }

    #[test]
    fn pcie64_beats_pcie2_by_paper_magnitude() {
        let p2 = measure(VitModel::Base, SystemKind::Pcie2);
        let p64 = measure(VitModel::Base, SystemKind::Pcie64);
        let speedup = p2.report.total_time_ns() / p64.report.total_time_ns();
        assert!(
            speedup > 1.8,
            "expected a strong speedup from 2 -> 64 GB/s: {speedup}"
        );
    }
}
