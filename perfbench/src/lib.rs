//! # accesys-perfbench
//!
//! The simulator's layered benchmark. One process sets up a committed
//! spec (load + dry build, several times) and runs its sweep once,
//! either untraced — through the same library calls `accesys run`
//! makes — or traced, re-composed from each layer's public calls with a
//! span around every call. It prints one JSON record; `run.py` beside
//! this crate builds it, repeats processes for the run's duration,
//! checks the outputs and reports medians. See `README.md`.

pub mod record;
pub mod trace;
pub mod traced;
pub mod workload;
