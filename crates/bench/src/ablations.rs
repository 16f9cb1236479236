//! Ablations of the framework's own design choices (beyond the paper's
//! figures): how much each mechanism contributes.
//!
//! * PCIe endpoint tag pool — outstanding-read window vs throughput.
//! * SMMU µTLB capacity — translation overhead vs reach.
//! * SMMU walk cache on/off.
//! * LLC coherence point on/off (probe overhead for DC-mode traffic).

use crate::cli::Cli;
use crate::gemm_ns;
use accesys::SystemConfig;
use accesys_exp::{Experiment, Grid, Jobs, SweepResult};
use accesys_mem::MemTech;

/// `(parameter, exec_ns)` series of one ablation.
#[derive(Clone, Debug, serde::Serialize)]
pub struct Ablation {
    /// Which knob was swept.
    pub name: &'static str,
    /// `(knob value, exec_time_ns)` points.
    pub points: Vec<(u64, f64)>,
}

/// The tag-pool ablation as a declarative experiment.
pub fn tags_experiment(matrix: u32) -> impl Experiment<Point = u64, Out = f64> {
    Grid::new("ablation.ep.tags", [1u64, 2, 4, 8, 16, 32, 64, 128, 256]).sweep(move |&t| {
        let mut cfg = SystemConfig::pcie_host(16.0, MemTech::Ddr4);
        cfg.pcie.ep.tags = t as u32;
        gemm_ns(cfg, matrix)
    })
}

/// The µTLB-capacity ablation as a declarative experiment.
pub fn tlb_experiment(matrix: u32) -> impl Experiment<Point = u64, Out = f64> {
    Grid::new("ablation.smmu.tlb_entries", [4u64, 8, 16, 32, 64, 128]).sweep(move |&e| {
        let mut cfg = SystemConfig::pcie_host(16.0, MemTech::Ddr4);
        if let Some(smmu) = cfg.smmu.as_mut() {
            smmu.tlb_entries = e as u32;
        }
        gemm_ns(cfg, matrix)
    })
}

/// The walk-cache ablation as a declarative experiment.
pub fn walk_cache_experiment(matrix: u32) -> impl Experiment<Point = u64, Out = f64> {
    Grid::new("ablation.smmu.walk_cache_entries", [0u64, 16]).sweep(move |&e| {
        let mut cfg = SystemConfig::pcie_host(16.0, MemTech::Ddr4);
        if let Some(smmu) = cfg.smmu.as_mut() {
            smmu.walk_cache_entries = e as u32;
            smmu.tlb_entries = 8; // force walks so the cache matters
        }
        gemm_ns(cfg, matrix)
    })
}

/// The coherence-point ablation as a declarative experiment (0 = off,
/// 1 = on).
pub fn coherence_experiment(matrix: u32) -> impl Experiment<Point = u64, Out = f64> {
    Grid::new("ablation.llc.coherent", [0u64, 1]).sweep(move |&on| {
        let mut cfg = SystemConfig::pcie_host(16.0, MemTech::Ddr4);
        cfg.coherent = on != 0;
        gemm_ns(cfg, matrix)
    })
}

fn ablation(name: &'static str, result: &SweepResult<u64, f64>) -> Ablation {
    Ablation {
        name,
        points: result.points.clone(),
    }
}

/// Run all four ablations on `jobs` workers, noting wall-clock on
/// stderr; returns `(human rows, machine-readable values)`.
pub fn run_jobs(matrix: u32, jobs: Jobs) -> (Vec<Ablation>, serde::Value) {
    let results = [
        ("ep.tags", tags_experiment(matrix).run(jobs)),
        ("smmu.tlb_entries", tlb_experiment(matrix).run(jobs)),
        (
            "smmu.walk_cache_entries",
            walk_cache_experiment(matrix).run(jobs),
        ),
        ("llc.coherent", coherence_experiment(matrix).run(jobs)),
    ];
    let mut all = Vec::new();
    let mut values = Vec::new();
    for (name, result) in &results {
        crate::cli::note_wall(result);
        all.push(ablation(name, result));
        values.push(serde::Serialize::to_value(result));
    }
    (all, serde::Value::Seq(values))
}

/// The matrix size the ablations use at each scale.
pub fn matrix_size(scale: crate::Scale) -> u32 {
    scale.pick(256, 1024)
}

/// Run at the CLI's settings; print the series unless `--json`; return
/// the machine-readable sweep values.
pub fn run_cli(cli: &Cli) -> serde::Value {
    let matrix = matrix_size(cli.scale);
    let (all, value) = run_jobs(matrix, cli.jobs);
    if !cli.json {
        print(&all, matrix);
    }
    value
}

/// Print the ablation series.
pub fn print(all: &[Ablation], matrix: u32) {
    println!("# Ablations (GEMM {matrix}, 16 GB/s PCIe, DDR4 host)");
    for a in all {
        println!("{}:", a.name);
        for &(v, t) in &a.points {
            println!("  {v:>6} -> {:>10.1} us", t / 1000.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_tag_pools_throttle_reads() {
        let a = ablation("ep.tags", &tags_experiment(128).run(Jobs::serial()));
        let t1 = a.points[0].1; // 1 tag
        let t128 = a.points[7].1; // 128 tags
        assert!(
            t1 > 3.0 * t128,
            "stop-and-wait should be much slower: {t1} vs {t128}"
        );
        // Diminishing returns: 128 -> 256 changes little.
        let t256 = a.points[8].1;
        assert!((t128 / t256 - 1.0).abs() < 0.10);
    }

    #[test]
    fn bigger_tlbs_do_not_hurt() {
        let a = ablation("smmu.tlb_entries", &tlb_experiment(128).run(Jobs::serial()));
        let first = a.points.first().unwrap().1;
        let last = a.points.last().unwrap().1;
        assert!(
            last <= first * 1.02,
            "TLB growth regressed: {first} -> {last}"
        );
    }

    #[test]
    fn walk_cache_helps_when_tlb_thrashes() {
        let a = ablation(
            "smmu.walk_cache_entries",
            &walk_cache_experiment(128).run(Jobs::serial()),
        );
        let off = a.points[0].1;
        let on = a.points[1].1;
        assert!(on <= off, "walk cache should not hurt: {off} -> {on}");
    }

    #[test]
    fn coherence_costs_little_without_sharing() {
        let a = ablation(
            "llc.coherent",
            &coherence_experiment(128).run(Jobs::serial()),
        );
        let off = a.points[0].1;
        let on = a.points[1].1;
        // GEMM data is not CPU-shared, so the probe overhead is tiny.
        assert!(
            on <= off * 1.05,
            "coherence overhead too high: {off} -> {on}"
        );
    }
}
