//! Fig. 4 — execution time vs DMA request (packet) size per PCIe
//! bandwidth. The paper reports a convex curve with its optimum around
//! 256 B: tiny packets pay per-TLP header and TLP-rate overhead, huge
//! packets exhaust per-hop credits and stretch completion round-trips.

use crate::cli::Cli;
use crate::gemm_ns;
use crate::Scale;
use accesys::SystemConfig;
use accesys_exp::{Experiment, Grid};
use accesys_mem::MemTech;

/// Packet sizes swept (bytes), as in the paper.
pub const PACKET_SIZES: [u32; 7] = [64, 128, 256, 512, 1024, 2048, 4096];

/// PCIe bandwidths swept (GB/s), as in the paper.
pub const BANDWIDTHS: [f64; 5] = [4.0, 8.0, 16.0, 32.0, 64.0];

/// One measured curve: execution time per packet size at one bandwidth.
#[derive(Clone, Debug)]
pub struct PacketCurve {
    /// Link bandwidth in GB/s.
    pub bandwidth_gbps: f64,
    /// `(packet_bytes, exec_time_ns)` points.
    pub points: Vec<(u32, f64)>,
}

impl PacketCurve {
    /// The packet size with the lowest execution time.
    pub fn optimum(&self) -> u32 {
        self.points
            .iter()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|&(s, _)| s)
            .expect("curve has points")
    }

    /// Relative overhead of `packet` vs the optimum (0.12 = +12 %).
    pub fn overhead_at(&self, packet: u32) -> f64 {
        let best = self
            .points
            .iter()
            .map(|&(_, t)| t)
            .fold(f64::INFINITY, f64::min);
        let t = self
            .points
            .iter()
            .find(|&&(s, _)| s == packet)
            .map(|&(_, t)| t)
            .expect("packet size in sweep");
        t / best - 1.0
    }
}

/// Matrix size used at each scale (paper: 2048).
pub fn matrix_size(scale: Scale) -> u32 {
    scale.pick(256, 2048)
}

/// Measure one point.
pub fn measure(bandwidth_gbps: f64, packet_bytes: u32, matrix: u32) -> f64 {
    let cfg =
        SystemConfig::pcie_host(bandwidth_gbps, MemTech::Ddr4).with_request_bytes(packet_bytes);
    gemm_ns(cfg, matrix)
}

/// The figure as a declarative experiment over [`BANDWIDTHS`] ×
/// [`PACKET_SIZES`].
pub fn experiment(scale: Scale) -> impl Experiment<Point = (f64, u32), Out = f64> {
    let matrix = matrix_size(scale);
    Grid::cross2("fig4", BANDWIDTHS, PACKET_SIZES).sweep(move |&(bw, p)| measure(bw, p, matrix))
}

fn curves(points: &[((f64, u32), f64)]) -> Vec<PacketCurve> {
    // cross2 is row-major: one contiguous chunk of points per bandwidth.
    points
        .chunks(PACKET_SIZES.len())
        .map(|chunk| PacketCurve {
            bandwidth_gbps: chunk[0].0 .0,
            points: chunk.iter().map(|&((_, p), t)| (p, t)).collect(),
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

/// Print the figure's series.
pub fn print(curves: &[PacketCurve], scale: Scale) {
    println!(
        "# Fig 4: execution time (us) vs packet size, matrix {}",
        matrix_size(scale)
    );
    print!("{:>10}", "pkt(B)");
    for c in curves {
        print!("{:>12}", format!("{}GB/s", c.bandwidth_gbps));
    }
    println!();
    for (i, &p) in PACKET_SIZES.iter().enumerate() {
        print!("{p:>10}");
        for c in curves {
            print!("{:>12.1}", c.points[i].1 / 1000.0);
        }
        println!();
    }
    for c in curves {
        println!(
            "# {} GB/s: optimum {} B, 64 B +{:.0}%, 4096 B +{:.0}%",
            c.bandwidth_gbps,
            c.optimum(),
            c.overhead_at(64) * 100.0,
            c.overhead_at(4096) * 100.0
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_curve_is_convex_ish_at_16gbps() {
        // One bandwidth, three sizes: the extremes must beat neither the
        // middle; this is the cheap smoke version of the figure.
        let matrix = 256;
        let t64 = measure(16.0, 64, matrix);
        let t256 = measure(16.0, 256, matrix);
        let t4096 = measure(16.0, 4096, matrix);
        assert!(
            t64 > t256,
            "64B ({t64}) should be slower than 256B ({t256})"
        );
        assert!(
            t4096 > t256,
            "4096B ({t4096}) should be slower than 256B ({t256})"
        );
    }
}
