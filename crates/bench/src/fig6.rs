//! Fig. 6 — impact of memory bandwidth (a) and latency (b), using the
//! "gem5 default DRAM model" ([`accesys_mem::SimpleMemory`]). The paper
//! reports large gains up to ≈50 GB/s then a plateau (bandwidth), and a
//! total overhead of only ≈5 % across a 1–36 ns latency sweep.

use crate::cli::Cli;
use crate::gemm_ns;
use crate::Scale;
use accesys::{MemBackendConfig, SystemConfig};
use accesys_exp::{Experiment, Grid};
use accesys_mem::SimpleMemoryConfig;

/// One sweep panel: `(swept value, execution time ns)` points.
pub type Sweep = Vec<(f64, f64)>;

/// Bandwidths swept in GB/s.
pub const BANDWIDTHS: [f64; 8] = [8.0, 16.0, 25.0, 50.0, 75.0, 100.0, 160.0, 256.0];

/// Latencies swept in ns.
pub const LATENCIES: [f64; 7] = [1.0, 6.0, 12.0, 18.0, 24.0, 30.0, 36.0];

/// Matrix size at each scale.
pub fn matrix_size(scale: Scale) -> u32 {
    scale.pick(256, 1024)
}

fn config(bandwidth_gbps: f64, latency_ns: f64) -> SystemConfig {
    // High PCIe bandwidth so host memory itself is the studied bottleneck.
    let mut cfg = SystemConfig::pcie_host(64.0, accesys_mem::MemTech::Hbm2);
    cfg.host_mem = MemBackendConfig::Simple(SimpleMemoryConfig {
        latency_ns,
        bandwidth_gbps,
    });
    cfg
}

/// Measure one point of either sweep.
pub fn measure(bandwidth_gbps: f64, latency_ns: f64, matrix: u32) -> f64 {
    gemm_ns(config(bandwidth_gbps, latency_ns), matrix)
}

/// Panel (a) as a declarative experiment: bandwidth sweep, latency
/// pinned at 18 ns.
pub fn bandwidth_experiment(scale: Scale) -> impl Experiment<Point = f64, Out = f64> {
    let matrix = matrix_size(scale);
    Grid::new("fig6a_bandwidth", BANDWIDTHS).sweep(move |&bw| measure(bw, 18.0, matrix))
}

/// Panel (b) as a declarative experiment: latency sweep, bandwidth
/// pinned at 64 GB/s.
pub fn latency_experiment(scale: Scale) -> impl Experiment<Point = f64, Out = f64> {
    let matrix = matrix_size(scale);
    Grid::new("fig6b_latency", LATENCIES).sweep(move |&lat| measure(64.0, lat, matrix))
}

/// Run at the CLI's settings; print both panels unless `--json`; return
/// the machine-readable sweep values.
pub fn run_cli(cli: &Cli) -> serde::Value {
    let bw = bandwidth_experiment(cli.scale).run(cli.jobs);
    let lat = latency_experiment(cli.scale).run(cli.jobs);
    crate::cli::note_wall(&bw);
    crate::cli::note_wall(&lat);
    let value = serde::Value::Map(vec![
        ("bandwidth".to_string(), serde::Serialize::to_value(&bw)),
        ("latency".to_string(), serde::Serialize::to_value(&lat)),
    ]);
    if !cli.json {
        print(&bw.points, &lat.points, cli.scale);
    }
    value
}

/// Print both panels.
pub fn print(bw: &Sweep, lat: &Sweep, scale: Scale) {
    println!(
        "# Fig 6a: memory bandwidth sweep, matrix {}",
        matrix_size(scale)
    );
    println!(
        "{:>12} {:>14} {:>12}",
        "BW (GB/s)", "exec (us)", "normalized"
    );
    let worst = bw.first().expect("nonempty").1;
    for &(b, t) in bw {
        println!("{b:>12} {:>14.1} {:>12.3}", t / 1000.0, t / worst);
    }
    let best = bw.iter().map(|&(_, t)| t).fold(f64::INFINITY, f64::min);
    println!(
        "# improvement from {} GB/s: {:.0}% (paper: ~60% up to ~50 GB/s, then plateau)",
        BANDWIDTHS[0],
        100.0 * (1.0 - best / worst)
    );
    println!("# Fig 6b: memory latency sweep");
    println!(
        "{:>12} {:>14} {:>12}",
        "lat (ns)", "exec (us)", "normalized"
    );
    let base = lat.first().expect("nonempty").1;
    for &(l, t) in lat {
        println!("{l:>12} {:>14.1} {:>12.3}", t / 1000.0, t / base);
    }
    let worst_lat = lat.iter().map(|&(_, t)| t).fold(0.0f64, f64::max);
    println!(
        "# latency overhead across sweep: {:.1}% (paper: ~4.9%)",
        100.0 * (worst_lat / base - 1.0)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_matters_then_plateaus() {
        let matrix = 128;
        let t8 = measure(8.0, 18.0, matrix);
        let t50 = measure(50.0, 18.0, matrix);
        let t256 = measure(256.0, 18.0, matrix);
        assert!(t8 > t50, "{t8} vs {t50}");
        // Past the knee, gains are small.
        let tail_gain = t50 / t256;
        assert!(tail_gain < 1.15, "tail gain {tail_gain}");
    }

    #[test]
    fn latency_sensitivity_is_mild() {
        let matrix = 128;
        let fast = measure(64.0, 1.0, matrix);
        let slow = measure(64.0, 36.0, matrix);
        let overhead = slow / fast - 1.0;
        assert!(
            overhead < 0.25,
            "latency should be mostly hidden: {overhead}"
        );
    }
}
