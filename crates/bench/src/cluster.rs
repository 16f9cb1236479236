//! Extension experiment — accelerator-cluster scaling behind the switch.
//!
//! Section III of the paper describes "a single accelerator or
//! accelerator cluster" and a switch "supporting multiple connections
//! and enhancing scalability". This experiment populates 1–8 switch
//! ports with MatrixFlow instances and shards one GEMM row-wise across
//! them. Expected shape: near-linear scaling while compute-bound, then
//! saturation once the shared PCIe uplink (or host memory) becomes the
//! bottleneck.

use crate::cli::Cli;
use crate::Scale;
use accesys::topology::switch_tree;
use accesys::{Simulation, SystemConfig};
use accesys_exp::{Experiment, Grid};
use accesys_mem::MemTech;
use accesys_workload::GemmSpec;

/// One cluster-size measurement.
#[derive(Clone, Debug, serde::Serialize)]
pub struct ClusterRow {
    /// Cluster members.
    pub accels: u32,
    /// Compute-bound sharded time, ns (slow array override).
    pub compute_bound_ns: f64,
    /// Transfer-bound sharded time, ns (fast array, 8 GB/s link).
    pub transfer_bound_ns: f64,
}

/// Cluster sizes swept.
pub const CLUSTER_SIZES: [u32; 4] = [1, 2, 4, 8];

/// Matrix size at each scale.
pub fn matrix_size(scale: Scale) -> u32 {
    scale.pick(256, 2048)
}

fn sharded_time(cfg: SystemConfig, cluster: u32, matrix: u32) -> f64 {
    // The cluster is the depth-1 topology preset: one switch level with
    // `cluster` endpoints (exactly the Fig. 1 shape, sized up).
    let spec = switch_tree(&cfg, &[cluster]).expect("cluster sizes are valid trees");
    let mut sim = Simulation::from_topology(cfg, &spec).expect("valid topology");
    sim.run_gemm_sharded(GemmSpec::square(matrix))
        .expect("sharded gemm completes")
        .total_time_ns()
}

/// The scaling sweep as a declarative experiment over [`CLUSTER_SIZES`].
pub fn experiment(scale: Scale) -> impl Experiment<Point = u32, Out = ClusterRow> {
    let matrix = matrix_size(scale);
    Grid::new("cluster", CLUSTER_SIZES).sweep(move |&n| {
        // Compute-bound: artificially slow array, ample bandwidth.
        let mut compute =
            SystemConfig::pcie_host(64.0, MemTech::Hbm2).with_compute_override_ns(20_000.0);
        compute.smmu = None;
        // Transfer-bound: default array on a modest shared link.
        let transfer = SystemConfig::pcie_host(8.0, MemTech::Ddr4);
        ClusterRow {
            accels: n,
            compute_bound_ns: sharded_time(compute, n, matrix),
            transfer_bound_ns: sharded_time(transfer, n, matrix),
        }
    })
}

/// Run at the CLI's settings; print the table unless `--json`; return
/// the machine-readable sweep value.
pub fn run_cli(cli: &Cli) -> serde::Value {
    crate::cli::run_sweep_cli(cli, &experiment(cli.scale), |r| {
        print(&r.outputs().cloned().collect::<Vec<_>>(), cli.scale)
    })
}

/// Print the scaling table.
pub fn print(rows: &[ClusterRow], scale: Scale) {
    let base_c = rows[0].compute_bound_ns;
    let base_t = rows[0].transfer_bound_ns;
    println!(
        "# Cluster scaling (extension): sharded GEMM, matrix {}",
        matrix_size(scale)
    );
    println!(
        "{:>7} {:>16} {:>10} {:>17} {:>10}",
        "accels", "compute-bnd (µs)", "speedup", "transfer-bnd (µs)", "speedup"
    );
    for r in rows {
        println!(
            "{:>7} {:>16.1} {:>9.2}x {:>17.1} {:>9.2}x",
            r.accels,
            r.compute_bound_ns / 1000.0,
            base_c / r.compute_bound_ns,
            r.transfer_bound_ns / 1000.0,
            base_t / r.transfer_bound_ns
        );
    }
    println!("# expected: near-linear compute-bound scaling; transfer-bound saturates on the shared uplink");
}

#[cfg(test)]
mod tests {
    use super::*;
    use accesys_exp::Jobs;

    #[test]
    fn compute_bound_scaling_is_near_linear_to_four() {
        let rows = experiment(Scale::Quick).run(Jobs::serial()).into_outputs();
        let r1 = rows.iter().find(|r| r.accels == 1).unwrap();
        let r4 = rows.iter().find(|r| r.accels == 4).unwrap();
        let speedup = r1.compute_bound_ns / r4.compute_bound_ns;
        assert!(speedup > 3.0, "compute-bound 4-way speedup {speedup:.2}");
    }

    #[test]
    fn transfer_bound_scaling_saturates() {
        let rows = experiment(Scale::Quick).run(Jobs::serial()).into_outputs();
        let r1 = rows.iter().find(|r| r.accels == 1).unwrap();
        let r8 = rows.iter().find(|r| r.accels == 8).unwrap();
        let speedup = r1.transfer_bound_ns / r8.transfer_bound_ns;
        assert!(
            speedup < 6.0,
            "shared-uplink run should not scale linearly to 8: {speedup:.2}"
        );
    }
}
