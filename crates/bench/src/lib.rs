//! # accesys-bench
//!
//! The experiment harness of the Gem5-AcceSys reproduction: one module
//! per table/figure of the paper's evaluation (Section V), plus the
//! extension sweeps. Each experiment module has a `run_cli(&Cli)` that
//! prints the rows/series the paper reports and returns them as JSON;
//! [`EXPERIMENTS`] names them for the `accesys exp <name>|all` command,
//! the only binary in the crate.
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

use accesys_exp::cli::Cli;

/// An experiment driver: prints its table (unless `--json`) and
/// returns its machine-readable result.
pub type Runner = fn(&Cli) -> serde::Value;

/// Every experiment `accesys exp` runs, by name, in the order
/// `accesys exp all` runs them.
pub const EXPERIMENTS: &[(&str, Runner)] = &[
    ("table2", table2::run_cli),
    ("table3", table3::run_cli),
    ("fig2", fig2::run_cli),
    ("fig3", fig3::run_cli),
    ("fig4", fig4::run_cli),
    ("fig5", fig5::run_cli),
    ("fig6", fig6::run_cli),
    ("table4", table4::run_cli),
    ("fig7", fig7::run_cli),
    ("fig9", fig9::run_cli),
    ("cxl", cxl::run_cli),
    ("cluster", cluster::run_cli),
    ("topo", topo::run_cli),
    ("graph", graph::run_cli),
    ("serve", serve::run_cli),
    ("decode", decode::run_cli),
    ("energy", energy::run_cli),
    // Host shards of every point share the --jobs threads.
    ("fleet", fleet::run_cli),
    ("ablations", ablations::run_cli),
];
