//! Table IV — address-translation behaviour vs matrix size: memory
//! footprint, translation counts and mean latency, page-table walks,
//! µTLB lookups/misses, and the translation-overhead percentage. The
//! paper reports a U-shaped overhead: high for tiny matrices (fixed costs
//! dominate), minimal near 1024, rising again at 2048 (µTLB thrash).

use crate::cli::Cli;
use crate::Scale;
use accesys::{Simulation, SystemConfig};
use accesys_exp::{Experiment, Grid};
use accesys_mem::MemTech;
use accesys_smmu::SmmuStats;
use accesys_workload::GemmSpec;

/// One row of the table.
#[derive(Clone, Debug, serde::Serialize)]
pub struct TranslationRow {
    /// Matrix size (m = n = k).
    pub matrix: u32,
    /// Footprint in 4 KiB pages (3·n²·4 bytes).
    pub pages: u64,
    /// SMMU statistics for the run.
    pub smmu: SmmuStats,
    /// End-to-end run time in ns.
    pub total_ns: f64,
}

impl TranslationRow {
    /// Translation overhead (Table IV "Trans Overhead").
    pub fn overhead(&self) -> f64 {
        if self.total_ns == 0.0 {
            0.0
        } else {
            self.smmu.trans_time_sum_ns / self.total_ns
        }
    }
}

/// Matrix sizes at each scale (paper: 64 – 2048).
pub fn matrix_sizes(scale: Scale) -> Vec<u32> {
    scale.pick(vec![64, 128, 256, 512], vec![64, 128, 256, 512, 1024, 2048])
}

/// Measure one row on the Table II baseline (PCIe 2 GB/s, DDR3, SMMU on).
pub fn measure(matrix: u32) -> TranslationRow {
    let cfg = SystemConfig::pcie_host(2.0, MemTech::Ddr3);
    let mut sim = Simulation::new(cfg).expect("valid config");
    let spec = GemmSpec::square(matrix);
    let report = sim.run_gemm(spec).expect("gemm completes");
    TranslationRow {
        matrix,
        pages: spec.footprint_pages(4096),
        smmu: report.smmu,
        total_ns: report.total_time_ns(),
    }
}

/// The table as a declarative experiment over matrix sizes.
pub fn experiment(scale: Scale) -> impl Experiment<Point = u32, Out = TranslationRow> {
    Grid::new("table4", matrix_sizes(scale)).sweep(|&matrix| measure(matrix))
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

/// Print the table.
pub fn print(rows: &[TranslationRow]) {
    println!("# Table IV: address translation vs matrix size");
    print!("{:<22}", "Metric");
    for r in rows {
        print!("{:>14}", r.matrix);
    }
    println!();
    let line = |name: &str, f: &dyn Fn(&TranslationRow) -> String| {
        print!("{name:<22}");
        for r in rows {
            print!("{:>14}", f(r));
        }
        println!();
    };
    line("Footprint (pages)", &|r| r.pages.to_string());
    line("Translation times", &|r| r.smmu.translations.to_string());
    line("Trans mean (cyc)", &|r| {
        format!("{:.2}", r.smmu.trans_mean_ns())
    });
    line("PTW times", &|r| r.smmu.ptw_count.to_string());
    line("PTW mean (cyc)", &|r| {
        format!("{:.2}", r.smmu.ptw_mean_ns())
    });
    line("uTLB lookups", &|r| r.smmu.utlb_lookups.to_string());
    line("uTLB misses", &|r| r.smmu.utlb_misses.to_string());
    line("Trans overhead", &|r| {
        format!("{:.2}%", r.overhead() * 100.0)
    });
    println!("# paper overhead: 6.02% @64 ... 1.00% @1024 ... 6.49% @2048 (U-shape)");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn footprints_match_table_iv() {
        let r64 = measure(64);
        assert_eq!(r64.pages, 12);
        assert!(r64.smmu.translations > 0);
        assert!(r64.smmu.ptw_count > 0);
    }

    #[test]
    fn bigger_matrices_do_more_translations() {
        let small = measure(64);
        let large = measure(256);
        assert!(large.smmu.translations > small.smmu.translations);
        assert!(large.smmu.utlb_lookups > small.smmu.utlb_lookups);
        // Per-translation overhead share shrinks from 64 to 256 (left
        // side of the paper's U-shape).
        assert!(large.overhead() < small.overhead());
    }
}
