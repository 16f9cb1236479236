//! Fig. 9 — overall Transformer performance as a function of the
//! Non-GEMM workload fraction, for each PCIe bandwidth vs DevMem, using
//! the paper's Section V-D analytic model fed with *measured* phase
//! times. The paper reports DevMem preferable when W_GEMM exceeds
//! 34.31 % (2 GB/s), 10.16 % (8 GB/s) and 4.27 % (64 GB/s).

use crate::cli::Cli;
use crate::fig7::{measure, SystemKind, VitCell};
use crate::Scale;
use accesys::analytic::{PhaseTimes, ThresholdModel};
use accesys_exp::{Experiment, Grid, Jobs};
use accesys_workload::VitModel;

/// One bandwidth's fitted model and threshold.
#[derive(Clone, Debug, serde::Serialize)]
pub struct ThresholdRow {
    /// The PCIe system compared against DevMem.
    pub system: SystemKind,
    /// The fitted model.
    pub model: ThresholdModel,
    /// Minimum GEMM fraction above which DevMem wins, if any.
    pub gemm_threshold: Option<f64>,
    /// Crossover on the Fig. 9 x-axis: DevMem wins when the Non-GEMM
    /// fraction is *below* this value.
    pub non_gemm_crossover: Option<f64>,
}

/// The figure's measurement phase as a declarative experiment: one
/// ViT-Base layer on each of the four systems (the analytic fit is
/// cheap post-processing over the collected phase times).
pub fn experiment(_scale: Scale) -> impl Experiment<Point = SystemKind, Out = VitCell> {
    Grid::new("fig9", SystemKind::ALL).sweep(|&system| measure(VitModel::Base, system))
}

/// Fit the Section V-D model for each PCIe system against DevMem.
pub fn fit(cells: &[VitCell]) -> Vec<ThresholdRow> {
    let dev = cells
        .iter()
        .find(|c| c.system == SystemKind::DevMem)
        .expect("DevMem measured");
    let dev_phase = PhaseTimes {
        gemm_ns: dev.report.gemm_ns(),
        non_gemm_ns: dev.report.non_gemm_ns(),
    };
    cells
        .iter()
        .filter(|c| c.system != SystemKind::DevMem)
        .map(|host| {
            let model = ThresholdModel {
                pcie: PhaseTimes {
                    gemm_ns: host.report.gemm_ns(),
                    non_gemm_ns: host.report.non_gemm_ns(),
                },
                devmem: dev_phase,
                t_other_ns: host.report.other_ns().min(dev.report.other_ns()),
            };
            ThresholdRow {
                system: host.system,
                gemm_threshold: model.devmem_wins_above_gemm_fraction(),
                non_gemm_crossover: model.crossover_non_gemm_fraction(),
                model,
            }
        })
        .collect()
}

/// Measure phase times on `jobs` workers and fit the model for each
/// PCIe bandwidth.
pub fn run_jobs(scale: Scale, jobs: Jobs) -> Vec<ThresholdRow> {
    fit(&experiment(scale).run(jobs).into_outputs())
}

/// Run at the CLI's settings; print the series unless `--json`; return
/// the machine-readable sweep value (measured points plus fitted rows).
pub fn run_cli(cli: &Cli) -> serde::Value {
    let result = experiment(cli.scale).run(cli.jobs);
    crate::cli::note_wall(&result);
    let rows = fit(&result.outputs().cloned().collect::<Vec<_>>());
    let mut value = serde::Serialize::to_value(&result);
    if let serde::Value::Map(entries) = &mut value {
        entries.push(("rows".to_string(), serde::Serialize::to_value(&rows)));
    }
    if !cli.json {
        print(&rows);
    }
    value
}

/// Print the Fig. 9 series and thresholds.
pub fn print(rows: &[ThresholdRow]) {
    println!("# Fig 9: total time (us) vs Non-GEMM fraction (ViT-Base phase times)");
    print!("{:>10}", "w_nonG");
    for r in rows {
        print!("{:>12}", r.system.label());
    }
    print!("{:>12}", "DevMem");
    println!();
    let sweeps: Vec<Vec<(f64, f64, f64)>> = rows.iter().map(|r| r.model.sweep(11)).collect();
    for i in 0..11 {
        print!("{:>10.1}", sweeps[0][i].0);
        for s in &sweeps {
            print!("{:>12.1}", s[i].1 / 1000.0);
        }
        print!("{:>12.1}", sweeps[0][i].2 / 1000.0);
        println!();
    }
    for r in rows {
        match (r.non_gemm_crossover, r.gemm_threshold) {
            (Some(w), Some(g)) => println!(
                "# vs {}: DevMem wins when Non-GEMM fraction < {:.2}% (W_GEMM > {:.2}%)",
                r.system.label(),
                w * 100.0,
                g * 100.0
            ),
            _ => println!("# vs {}: no crossover in [0,1]", r.system.label()),
        }
    }
    println!("# paper thresholds: 34.31% (2 GB/s), 10.16% (8 GB/s), 4.27% (64 GB/s),");
    println!("# decreasing with bandwidth on the Fig. 9 Non-GEMM-fraction axis.");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crossovers_fall_with_pcie_bandwidth() {
        let rows = run_jobs(Scale::Quick, Jobs::serial());
        let t: Vec<f64> = rows
            .iter()
            .map(|r| r.non_gemm_crossover.unwrap_or(f64::NAN))
            .collect();
        assert!(t[0].is_finite(), "2 GB/s crossover exists");
        assert!(t[2].is_finite(), "64 GB/s crossover exists");
        // Faster PCIe narrows DevMem's GEMM advantage, so DevMem needs an
        // ever more GEMM-dominated mix: the Non-GEMM crossover falls with
        // bandwidth, exactly the paper's monotone trend.
        assert!(
            t[0] > t[1] && t[1] > t[2],
            "crossovers should fall with bandwidth: {t:?}"
        );
    }
}
