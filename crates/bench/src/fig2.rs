//! Fig. 2 — roofline of the accelerator system: normalized execution
//! time vs systolic-array compute time at a fixed 8 GB/s PCIe link.
//! The paper reports a compute-bound plateau below ≈1500 ns per tile and
//! a memory-bound linear region above it.
//!
//! The testbed, matrix sizes and swept axis all lower from the
//! committed `specs/paper_baseline.spec`; this module only measures.

use crate::cli::Cli;
use crate::Scale;
use accesys::analytic::{roofline_knee, RooflinePoint};
use accesys_exp::{Experiment, Grid};
use accesys_spec::{RooflineScenario, SystemSpec};
use accesys_workload::GemmSpec;

/// Measure one roofline point on `system`.
pub fn measure_on(system: &SystemSpec, compute_ns: f64, matrix: u32) -> RooflinePoint {
    let mut sim = system
        .host_simulation(compute_ns)
        .expect("validated spec testbed builds");
    let exec_ns = sim
        .run_gemm(GemmSpec::square(matrix))
        .expect("gemm completes")
        .total_time_ns();
    RooflinePoint {
        compute_ns,
        exec_ns,
    }
}

/// `sc` as a declarative experiment over its swept compute times.
pub fn experiment_for(
    sc: &RooflineScenario,
    scale: Scale,
) -> impl Experiment<Point = f64, Out = RooflinePoint> {
    let matrix = sc.matrix.pick(scale);
    let system = sc.system.clone();
    Grid::new(sc.name.clone(), sc.compute_ns.clone())
        .sweep(move |&c| measure_on(&system, c, matrix))
}

/// Run `sc` at the CLI's settings; print the table unless `--json`;
/// return the machine-readable sweep value.
pub fn run_cli_for(sc: &RooflineScenario, cli: &Cli) -> serde::Value {
    crate::cli::run_sweep_cli(cli, &experiment_for(sc, cli.scale), |r| {
        print_for(sc, &r.outputs().cloned().collect::<Vec<_>>(), cli.scale)
    })
}

/// Print the series of an arbitrary roofline scenario.
pub fn print_for(sc: &RooflineScenario, points: &[RooflinePoint], scale: Scale) {
    let min = points
        .iter()
        .map(|p| p.exec_ns)
        .fold(f64::INFINITY, f64::min);
    println!(
        "# {}: roofline, matrix {}, PCIe {} GB/s",
        sc.name,
        sc.matrix.pick(scale),
        sc.system.link_gbps
    );
    println!(
        "{:>14} {:>14} {:>12}",
        "compute(ns)", "exec(us)", "normalized"
    );
    for p in points {
        println!(
            "{:>14.0} {:>14.1} {:>12.3}",
            p.compute_ns,
            p.exec_ns / 1000.0,
            p.exec_ns / min
        );
    }
    if let Some(knee) = roofline_knee(points, 0.05) {
        println!("# memory-bound/compute-bound knee at ~{knee:.0} ns (paper: ~1500 ns)");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario() -> RooflineScenario {
        match crate::specs::load("paper_baseline").scenario {
            accesys_spec::Scenario::Roofline(sc) => sc,
            _ => unreachable!(),
        }
    }

    #[test]
    fn roofline_has_plateau_then_linear_region() {
        // Matrix 256 at 8 GB/s: each k-chunk moves 256 KiB (32 us), so
        // per-chunk compute of 64 tiles stays memory-bound up to
        // ~500 ns/tile — both points sit on the plateau.
        let system = scenario().system;
        let fast = measure_on(&system, 100.0, 256);
        let mid = measure_on(&system, 250.0, 256);
        let slow = measure_on(&system, 6000.0, 256);
        let plateau_ratio = mid.exec_ns / fast.exec_ns;
        assert!(plateau_ratio < 1.15, "plateau ratio {plateau_ratio}");
        // Far right: compute dominates and scales roughly linearly.
        assert!(slow.exec_ns > 2.0 * fast.exec_ns);
    }

    #[test]
    fn the_committed_spec_pins_the_paper_testbed() {
        let sc = scenario();
        assert_eq!(sc.name, "fig2");
        assert_eq!(sc.system.link_gbps, 8.0);
        assert_eq!(sc.matrix.pick(Scale::Quick), 256);
        assert_eq!(sc.matrix.pick(Scale::Paper), 1024);
        assert_eq!(sc.compute_ns.len(), 10);
    }
}
