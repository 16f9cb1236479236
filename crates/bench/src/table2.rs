//! Table II — the baseline system configuration.

use crate::cli::Cli;
use accesys::{MemBackendConfig, SystemConfig};
use accesys_exp::{Experiment, Grid};

/// The table as a (single-point) declarative experiment: the point is
/// the baseline config, the measurement renders its rows.
pub fn experiment() -> impl Experiment<Point = SystemConfig, Out = Vec<(String, String)>> {
    Grid::new("table2", [SystemConfig::paper_baseline()]).sweep(rows_of)
}

/// Render the baseline configuration as Table II rows.
pub fn rows() -> Vec<(String, String)> {
    rows_of(&SystemConfig::paper_baseline())
}

/// Render any configuration as Table II rows.
pub fn rows_of(cfg: &SystemConfig) -> Vec<(String, String)> {
    let mem = match cfg.host_mem {
        MemBackendConfig::Dram(t) => format!(
            "{t} {} MT/s, {} GB/s",
            t.data_rate_mts(),
            t.bandwidth_gbps()
        ),
        MemBackendConfig::Simple(s) => {
            format!("simple {} GB/s / {} ns", s.bandwidth_gbps, s.latency_ns)
        }
    };
    vec![
        ("CPU".into(), format!("ARM-class, {} GHz", cfg.cpu.freq_ghz)),
        (
            "Data Cache".into(),
            format!("{} kB", cfg.l1d.size_bytes >> 10),
        ),
        (
            "Last Level Cache".into(),
            format!("{} MB", cfg.llc.size_bytes >> 20),
        ),
        (
            "IOCache".into(),
            format!("{} kB", cfg.iocache.size_bytes >> 10),
        ),
        ("Memory".into(), mem),
        (
            "PCIe Link".into(),
            format!(
                "{} lanes x {} Gb/s ({:.1} GB/s effective)",
                cfg.pcie.link.lanes,
                cfg.pcie.link.lane_gbps,
                cfg.pcie.bandwidth_gbps()
            ),
        ),
        (
            "PCIe RootComplex".into(),
            format!("{} ns latency", cfg.pcie.rc.latency_ns),
        ),
        (
            "PCIe Switch".into(),
            format!("{} ns latency", cfg.pcie.switch.latency_ns),
        ),
    ]
}

/// Run at the CLI's settings; print the table unless `--json`; return
/// the machine-readable value.
pub fn run_cli(cli: &Cli) -> serde::Value {
    crate::cli::run_sweep_cli(cli, &experiment(), |r| {
        println!("# Table II: system configuration");
        for (_, rows) in &r.points {
            for (k, v) in rows {
                println!("{k:<22} {v}");
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rows_match_the_paper() {
        let rows = rows();
        let get = |k: &str| {
            rows.iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| v.clone())
                .unwrap()
        };
        assert!(get("CPU").contains("1 GHz"));
        assert!(get("Data Cache").contains("64 kB"));
        assert!(get("Last Level Cache").contains("2 MB"));
        assert!(get("IOCache").contains("32 kB"));
        assert!(get("PCIe RootComplex").contains("150 ns"));
        assert!(get("PCIe Switch").contains("50 ns"));
    }
}
