//! Extension experiment — topology scaling: switch-tree depth × fan-out.
//!
//! The paper's switch exists for "supporting multiple connections and
//! enhancing scalability"; the topology layer turns its shape into a
//! swept parameter. This experiment shards one GEMM across every leaf of
//! a family of PCIe switch trees — from the flat Fig. 1 shape to
//! cascaded depth-3 trees — and reports how endpoint count buys
//! parallelism while every extra switch level costs store-and-forward
//! latency on the shared path to host memory.
//!
//! Both regimes' testbeds, the matrix sizes and the swept shapes lower
//! from the committed `specs/switch_trees.spec`.

use crate::cli::Cli;
use crate::Scale;
use accesys_exp::{Experiment, Grid};
use accesys_spec::{SystemSpec, TopoScenario};
use accesys_workload::GemmSpec;

/// One topology measurement.
#[derive(Clone, Debug, serde::Serialize)]
pub struct TopoRow {
    /// Tree shape (per-level fan-outs, `x`-separated).
    pub shape: String,
    /// Switch levels between the root complex and the endpoints.
    pub depth: u32,
    /// Leaf endpoints (= accelerators) in the tree.
    pub endpoints: u32,
    /// Compute-bound sharded time, ns (slow array override: endpoint
    /// count should scale near-linearly, switch depth should not hurt).
    pub compute_bound_ns: f64,
    /// Transfer-bound sharded time, ns (default array: the shared
    /// uplink and every extra switch level dominate).
    pub transfer_bound_ns: f64,
    /// TLPs that crossed the root switch's uplink in the transfer-bound
    /// run (shared-path load).
    pub root_up_tlps: f64,
}

/// Parse a `FxF` shape string into per-level fan-outs.
pub fn parse_shape(shape: &str) -> Vec<u32> {
    accesys_spec::parse_shape(shape).expect("shape levels are positive integers")
}

fn sharded_report(system: &SystemSpec, levels: &[u32], matrix: u32) -> accesys::RunReport {
    let mut sim = system
        .simulation(levels)
        .expect("validated spec testbed builds");
    sim.run_gemm_sharded(GemmSpec::square(matrix))
        .expect("sharded gemm completes")
}

/// Measure one tree shape in both of `sc`'s regimes.
pub fn measure_for(sc: &TopoScenario, shape: &str, matrix: u32) -> TopoRow {
    let levels = parse_shape(shape);
    let compute_report = sharded_report(&sc.compute_bound, &levels, matrix);
    let transfer_report = sharded_report(&sc.transfer_bound, &levels, matrix);
    TopoRow {
        shape: shape.to_string(),
        depth: levels.len() as u32,
        endpoints: levels.iter().product(),
        compute_bound_ns: compute_report.total_time_ns(),
        transfer_bound_ns: transfer_report.total_time_ns(),
        root_up_tlps: transfer_report.stats.get_or_zero("pcie.sw0.up_tlps"),
    }
}

/// `sc` as a declarative experiment over its shapes.
pub fn experiment_for(
    sc: &TopoScenario,
    scale: Scale,
) -> impl Experiment<Point = String, Out = TopoRow> {
    let matrix = sc.matrix.pick(scale);
    let sc = sc.clone();
    Grid::new(sc.name.clone(), sc.shapes.clone()).sweep(move |s| measure_for(&sc, s, matrix))
}

/// Run `sc` at the CLI's settings; print the table unless `--json`;
/// return the machine-readable sweep value.
pub fn run_cli_for(sc: &TopoScenario, cli: &Cli) -> serde::Value {
    crate::cli::run_sweep_cli(cli, &experiment_for(sc, cli.scale), |r| {
        print_for(sc, &r.outputs().cloned().collect::<Vec<_>>(), cli.scale)
    })
}

/// Print the scaling table of an arbitrary topo scenario.
pub fn print_for(sc: &TopoScenario, rows: &[TopoRow], scale: Scale) {
    let base_c = rows[0].compute_bound_ns;
    let base_t = rows[0].transfer_bound_ns;
    println!(
        "# Topology scaling (extension): sharded GEMM, matrix {}",
        sc.matrix.pick(scale)
    );
    println!(
        "{:>8} {:>6} {:>10} {:>16} {:>9} {:>17} {:>9} {:>13}",
        "shape",
        "depth",
        "endpoints",
        "compute-bnd (µs)",
        "speedup",
        "transfer-bnd (µs)",
        "speedup",
        "root up TLPs"
    );
    for r in rows {
        println!(
            "{:>8} {:>6} {:>10} {:>16.1} {:>8.2}x {:>17.1} {:>8.2}x {:>13.0}",
            r.shape,
            r.depth,
            r.endpoints,
            r.compute_bound_ns / 1000.0,
            base_c / r.compute_bound_ns,
            r.transfer_bound_ns / 1000.0,
            base_t / r.transfer_bound_ns,
            r.root_up_tlps
        );
    }
    println!("# expected: compute-bound runs scale with endpoints regardless of tree depth;");
    println!("# transfer-bound runs pay for the shared uplink and every extra switch level");
}

#[cfg(test)]
mod tests {
    use super::*;
    use accesys_exp::Jobs;

    fn scenario() -> TopoScenario {
        match crate::specs::load("switch_trees").scenario {
            accesys_spec::Scenario::Topo(sc) => sc,
            _ => unreachable!(),
        }
    }

    #[test]
    fn depth_two_eight_endpoint_tree_is_in_the_sweep() {
        // The acceptance shape: a depth-2 tree with 8 endpoints builds,
        // runs a sharded GEMM, and reports through the sweep.
        let sc = scenario();
        let row = measure_for(&sc, "2x4", 128);
        assert_eq!(row.depth, 2);
        assert_eq!(row.endpoints, 8);
        assert!(row.compute_bound_ns > 0.0);
        assert!(row.transfer_bound_ns > 0.0);
        assert!(row.root_up_tlps > 0.0);
        assert!(sc.shapes.iter().any(|s| s == "2x4"));
    }

    #[test]
    fn flat_shape_matches_the_classic_cluster_preset() {
        // Shape "4" is the Fig. 1 cluster: same endpoint count, both run.
        let sc = scenario();
        let row = measure_for(&sc, "4", 128);
        assert_eq!(row.depth, 1);
        assert_eq!(row.endpoints, 4);
        assert!(row.transfer_bound_ns > 0.0);
        // Compute-bound sharding scales: 4 leaves beat 1 clearly.
        let one = measure_for(&sc, "1", 128);
        assert!(
            one.compute_bound_ns / row.compute_bound_ns > 2.5,
            "compute-bound 4-leaf speedup {:.2}",
            one.compute_bound_ns / row.compute_bound_ns
        );
    }

    #[test]
    fn sweep_is_deterministic_across_worker_counts() {
        // Flat trees and a depth-2 one; the full grid is pinned by the
        // `exp all` golden at jobs 1 and 4.
        let mut small = scenario();
        small.shapes = ["1", "2", "2x2"].map(String::from).to_vec();
        let run = |jobs: Jobs| experiment_for(&small, Scale::Quick).run(jobs).to_json();
        assert_eq!(run(Jobs::serial()).unwrap(), run(Jobs::new(4)).unwrap());
    }
}
