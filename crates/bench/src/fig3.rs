//! Fig. 3 — execution time under varying per-lane bandwidth and lane
//! count. The paper reports consistent gains with bandwidth until the
//! system turns compute-bound at 16 lanes, with the best configuration
//! up to ~11× faster than the worst.

use crate::cli::Cli;
use crate::gemm_ns;
use crate::Scale;
use accesys::SystemConfig;
use accesys_exp::{Experiment, Grid};
use accesys_mem::MemTech;

/// Lane counts swept (paper: 2, 4, 8, 16).
pub const LANES: [u32; 4] = [2, 4, 8, 16];

/// Per-lane rates in Gb/s (paper: 2 – 64).
pub const LANE_GBPS: [f64; 6] = [2.0, 4.0, 8.0, 16.0, 32.0, 64.0];

/// One curve: execution time per lane rate at a fixed lane count.
#[derive(Clone, Debug)]
pub struct LaneCurve {
    /// Number of lanes.
    pub lanes: u32,
    /// `(lane_gbps, exec_time_ns)` points.
    pub points: Vec<(f64, f64)>,
}

/// Matrix size at each scale (paper: 2048).
pub fn matrix_size(scale: Scale) -> u32 {
    scale.pick(256, 2048)
}

/// Measure one point.
pub fn measure(lanes: u32, lane_gbps: f64, matrix: u32) -> f64 {
    let mut cfg = SystemConfig::pcie_host(2.0, MemTech::Ddr4);
    cfg.pcie.link.lanes = lanes;
    cfg.pcie.link.lane_gbps = lane_gbps;
    cfg.pcie.link.encoding_efficiency = 0.8; // gen-2-style framing
    gemm_ns(cfg, matrix)
}

/// The figure as a declarative experiment over [`LANES`] × [`LANE_GBPS`].
pub fn experiment(scale: Scale) -> impl Experiment<Point = (u32, f64), Out = f64> {
    let matrix = matrix_size(scale);
    Grid::cross2("fig3", LANES, LANE_GBPS).sweep(move |&(lanes, g)| measure(lanes, g, matrix))
}

fn curves(points: &[((u32, f64), f64)]) -> Vec<LaneCurve> {
    // cross2 is row-major: one contiguous chunk of points per lane count.
    points
        .chunks(LANE_GBPS.len())
        .map(|chunk| LaneCurve {
            lanes: chunk[0].0 .0,
            points: chunk.iter().map(|&((_, g), t)| (g, t)).collect(),
        })
        .collect()
}

/// Run at the CLI's settings; print the table unless `--json`; return
/// the machine-readable sweep value.
pub fn run_cli(cli: &Cli) -> serde::Value {
    crate::cli::run_sweep_cli(cli, &experiment(cli.scale), |r| {
        print(&curves(&r.points), cli.scale)
    })
}

/// Best-to-worst execution-time ratio across the whole grid.
pub fn spread(curves: &[LaneCurve]) -> f64 {
    let mut lo = f64::INFINITY;
    let mut hi = 0.0f64;
    for c in curves {
        for &(_, t) in &c.points {
            lo = lo.min(t);
            hi = hi.max(t);
        }
    }
    hi / lo
}

/// Print the figure's series.
pub fn print(curves: &[LaneCurve], scale: Scale) {
    println!(
        "# Fig 3: execution time (us) vs per-lane rate, matrix {}",
        matrix_size(scale)
    );
    print!("{:>12}", "lane Gb/s");
    for c in curves {
        print!("{:>12}", format!("{} lanes", c.lanes));
    }
    println!();
    for (i, &g) in LANE_GBPS.iter().enumerate() {
        print!("{g:>12}");
        for c in curves {
            print!("{:>12.1}", c.points[i].1 / 1000.0);
        }
        println!();
    }
    println!(
        "# best/worst spread: {:.1}x (paper: up to ~11x / 1109.9%)",
        spread(curves)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn more_bandwidth_is_monotonically_not_worse() {
        let matrix = 128;
        let t_2x2 = measure(2, 2.0, matrix);
        let t_4x8 = measure(4, 8.0, matrix);
        let t_16x32 = measure(16, 32.0, matrix);
        assert!(t_2x2 > t_4x8, "{t_2x2} vs {t_4x8}");
        assert!(t_4x8 > t_16x32, "{t_4x8} vs {t_16x32}");
    }

    #[test]
    fn saturation_sets_in_at_high_bandwidth() {
        // Compute/memory bound: doubling an already-huge link changes
        // little.
        let matrix = 128;
        let t_16x32 = measure(16, 32.0, matrix);
        let t_16x64 = measure(16, 64.0, matrix);
        let gain = t_16x32 / t_16x64;
        assert!(gain < 1.3, "still scaling at the top: {gain}");
    }
}
