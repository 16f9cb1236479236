//! Table III — memory technology configurations.

use crate::cli::Cli;
use accesys_exp::{Experiment, Grid};
use accesys_mem::MemTech;

/// One row of Table III, rendered from a technology preset.
#[derive(Clone, Debug, serde::Serialize)]
pub struct TechRow {
    /// Memory technology.
    pub tech: MemTech,
    /// Channel count.
    pub channels: u32,
    /// Per-channel data width in bits.
    pub data_width_bits: u32,
    /// Aggregate bandwidth in GB/s.
    pub bandwidth_gbps: f64,
    /// Data rate in MT/s.
    pub data_rate_mts: u32,
}

/// The table as a declarative experiment over [`TECHS`].
pub fn experiment() -> impl Experiment<Point = MemTech, Out = TechRow> {
    Grid::new("table3", TECHS).sweep(|&tech| TechRow {
        tech,
        channels: tech.channels(),
        data_width_bits: tech.data_width_bits(),
        bandwidth_gbps: tech.bandwidth_gbps(),
        data_rate_mts: tech.data_rate_mts(),
    })
}

/// Run at the CLI's settings; print the table unless `--json`; return
/// the machine-readable value.
pub fn run_cli(cli: &Cli) -> serde::Value {
    crate::cli::run_sweep_cli(cli, &experiment(), |r| {
        print(&r.outputs().cloned().collect::<Vec<_>>())
    })
}

/// The technologies listed by the paper's Table III.
pub const TECHS: [MemTech; 5] = [
    MemTech::Ddr3,
    MemTech::Ddr4,
    MemTech::Ddr5,
    MemTech::Hbm2,
    MemTech::Gddr6,
];

/// Print Table III rows.
pub fn print(rows: &[TechRow]) {
    println!("# Table III: memory configuration");
    println!(
        "{:>8} {:>9} {:>12} {:>12} {:>11}",
        "tech", "channels", "width(bit)", "BW(GB/s)", "rate(MT/s)"
    );
    for r in rows {
        println!(
            "{:>8} {:>9} {:>12} {:>12.1} {:>11}",
            r.tech.to_string(),
            r.channels,
            r.data_width_bits,
            r.bandwidth_gbps,
            r.data_rate_mts
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_table_iii_exactly() {
        let expect = [
            (MemTech::Ddr3, 1, 64, 12.8, 1600),
            (MemTech::Ddr4, 1, 64, 19.2, 2400),
            (MemTech::Ddr5, 2, 32, 25.6, 3200),
            (MemTech::Hbm2, 2, 128, 64.0, 2000),
            (MemTech::Gddr6, 2, 64, 32.0, 2000),
        ];
        for (t, ch, width, bw, rate) in expect {
            assert_eq!(t.channels(), ch, "{t} channels");
            assert_eq!(t.data_width_bits(), width, "{t} width");
            assert!((t.bandwidth_gbps() - bw).abs() < 1e-9, "{t} bandwidth");
            assert_eq!(t.data_rate_mts(), rate, "{t} rate");
        }
    }
}
