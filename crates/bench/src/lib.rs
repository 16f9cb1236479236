//! # accesys-bench
//!
//! The experiment harness of the Gem5-AcceSys reproduction: one module
//! per table/figure of the paper's evaluation (Section V), plus the
//! extension sweeps. [`EXPERIMENTS`] names them for the `accesys exp
//! <name>|all` command, the only binary in the crate, and records where
//! each one's presets live ([`Source`]): six run a committed
//! `specs/*.spec` file through [`run_spec`] — the same call `accesys run`
//! makes — and the rest are Rust-preset drivers with a `run_cli(&Cli)`.
//! Either way the experiment prints the rows/series the paper reports
//! and returns them as JSON.
//!
//! Workload sizes are scaled by default so the whole suite regenerates in
//! minutes; set `ACCESYS_FULL=1` (or pass [`Scale::Paper`]) to run the
//! paper's exact sizes.
//!
//! Every driver routes its sweep through the shared
//! [`accesys_exp::Experiment`]/[`accesys_exp::Grid`] engine, so every
//! experiment accepts `--jobs N` (parallel sweep workers, default all
//! cores) and `--json` (machine-readable output) — see [`cli`]. Sweep
//! outputs are collected in point order and are byte-identical
//! regardless of the worker count.
#![warn(missing_docs)]

pub mod ablations;
pub mod cli;
pub mod cluster;
pub mod cxl;
pub mod decode;
pub mod energy;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig9;
pub mod fleet;
pub mod graph;
pub mod scale;
pub mod serve;
pub mod specs;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod topo;

pub use scale::Scale;

use accesys::{Simulation, SystemConfig};
use accesys_exp::cli::Cli;
use accesys_spec::{Scenario, Spec};
use accesys_workload::GemmSpec;

/// An experiment driver: prints its table (unless `--json`) and
/// returns its machine-readable result.
pub type Runner = fn(&Cli) -> serde::Value;

/// Where an experiment's presets live.
#[derive(Clone, Copy)]
pub enum Source {
    /// A committed spec, by stem in [`specs::LIBRARY`], run through
    /// [`run_spec`].
    Spec(&'static str),
    /// A driver whose presets are Rust constants.
    Driver(Runner),
}

impl Source {
    /// Run the experiment at the CLI's settings, as a [`Runner`] does.
    pub fn run(self, cli: &Cli) -> serde::Value {
        match self {
            Source::Spec(stem) => run_spec(&specs::load(stem), cli),
            Source::Driver(run) => run(cli),
        }
    }
}

/// Run a loaded spec through the driver of its kind, as a [`Runner`]
/// does: the one kind-to-driver dispatch, shared by `accesys run`,
/// `accesys exp` and the spec goldens.
pub fn run_spec(spec: &Spec, cli: &Cli) -> serde::Value {
    match &spec.scenario {
        Scenario::Roofline(sc) => fig2::run_cli_for(sc, cli),
        Scenario::Topo(sc) => topo::run_cli_for(sc, cli),
        Scenario::Pipeline(sc) => graph::run_cli_for(sc, cli),
        Scenario::Serving(sc) => serve::run_cli_for(sc, cli),
        Scenario::Decode(sc) => decode::run_cli_for(sc, cli),
        // Host shards of every point share the --jobs threads.
        Scenario::Fleet(sc) => fleet::run_cli_for(sc, cli),
    }
}

/// Elapsed ns of one square `matrix` GEMM on a fresh system built from
/// `cfg` ([`Simulation::measure_gemm`]): the single-point measurement
/// of the one-GEMM figure drivers.
pub(crate) fn gemm_ns(cfg: SystemConfig, matrix: u32) -> f64 {
    Simulation::measure_gemm(cfg, GemmSpec::square(matrix))
        .expect("gemm completes")
        .total_time_ns()
}

/// Every experiment `accesys exp` runs, by name, in the order
/// `accesys exp all` runs them.
pub const EXPERIMENTS: &[(&str, Source)] = &[
    ("table2", Source::Driver(table2::run_cli)),
    ("table3", Source::Driver(table3::run_cli)),
    ("fig2", Source::Spec("paper_baseline")),
    ("fig3", Source::Driver(fig3::run_cli)),
    ("fig4", Source::Driver(fig4::run_cli)),
    ("fig5", Source::Driver(fig5::run_cli)),
    ("fig6", Source::Driver(fig6::run_cli)),
    ("table4", Source::Driver(table4::run_cli)),
    ("fig7", Source::Driver(fig7::run_cli)),
    ("fig9", Source::Driver(fig9::run_cli)),
    ("cxl", Source::Driver(cxl::run_cli)),
    ("cluster", Source::Driver(cluster::run_cli)),
    ("topo", Source::Spec("switch_trees")),
    ("graph", Source::Spec("pipelined_encoder")),
    ("serve", Source::Spec("two_tenant_mix")),
    ("decode", Source::Spec("llm_decode")),
    ("energy", Source::Driver(energy::run_cli)),
    ("fleet", Source::Spec("fleet_1k")),
    ("ablations", Source::Driver(ablations::run_cli)),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_spec_backed_experiment_loads_the_sweep_it_is_keyed_by() {
        // `exp all` prints each sweep under its experiment's key;
        // `specs::load` panics on a stem outside the library.
        let backed: Vec<(&str, String)> = EXPERIMENTS
            .iter()
            .filter_map(|&(name, source)| match source {
                Source::Spec(stem) => Some((name, specs::load(stem).scenario.name().to_string())),
                Source::Driver(_) => None,
            })
            .collect();
        let expected = [
            ("fig2", "fig2"),
            ("topo", "topo_scaling"),
            ("graph", "graph_scaling"),
            ("serve", "serve_scaling"),
            ("decode", "decode_scaling"),
            ("fleet", "fleet_scaling"),
        ];
        assert_eq!(backed, expected.map(|(n, s)| (n, s.to_string())));
    }
}
