//! Shared command-line interface of the experiment drivers.
//!
//! The parsing itself lives in [`accesys_exp::cli`] — one typed
//! `--jobs/--json/--full` front-end shared by `accesys exp` and
//! `accesys run`. This module re-exports it so `crate::cli::Cli` works
//! for the driver modules.

pub use accesys_exp::cli::{emit_json, note_wall, run_sweep_cli, Cli, CliError};
