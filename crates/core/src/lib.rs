//! # accesys
//!
//! A Rust reproduction of **Gem5-AcceSys** (DAC 2025): a framework for
//! system-level exploration of standard interconnects (PCIe) and
//! configurable memory hierarchies for hardware accelerators.
//!
//! The original is a gem5 extension; this crate rebuilds the whole
//! platform on a packet-level discrete-event kernel
//! ([`accesys_sim`]) and composes the subsystem crates into the paper's
//! Fig. 1 topology:
//!
//! * CPU cluster with L1/LLC caches and a driver model ([`accesys_cpu`]),
//! * MemBus crossbar and the PCIe hierarchy — root complex (150 ns),
//!   switch (50 ns), credited serializing links, endpoint with a bounded
//!   tag pool ([`accesys_interconnect`]),
//! * SMMU with µTLB + page-table walker ([`accesys_smmu`]),
//! * multi-channel DMA ([`accesys_dma`]),
//! * the MatrixFlow systolic-array accelerator wrapper ([`accesys_accel`]),
//! * DRAM backends per Table III ([`accesys_mem`]),
//! * GEMM and ViT workloads ([`accesys_workload`]).
//!
//! ## Quickstart
//!
//! ```
//! use accesys::{Simulation, SystemConfig};
//! use accesys_workload::GemmSpec;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut sim = Simulation::new(SystemConfig::paper_baseline())?;
//! let report = sim.run_gemm(GemmSpec::square(64))?;
//! println!("GEMM took {:.1} µs", report.total_time_ns() / 1000.0);
//! # Ok(())
//! # }
//! ```
//!
//! The [`topology`] module is the declarative layer underneath all of
//! this: a graph IR plus a generic wiring engine, of which the Fig. 1
//! shape is one preset ([`SystemConfig::topology`]) and multi-level
//! switch trees another ([`topology::switch_tree`]). Its workload-side
//! mirror is the task-graph layer: workloads are
//! [`accesys_workload::graph::TaskGraph`]s (chains, fork-join shards,
//! pipelines, tenant mixes) executed by the dependency-driven
//! dispatcher ([`Simulation::run_graph`]). Every run goes through it:
//! [`Simulation::run_gemm`] dispatches a one-task graph, and the
//! dispatcher's compiler is the only code that writes the CPU driver
//! program. The [`analytic`] module
//! implements the paper's Section V-D workload-composition model
//! (Fig. 9 thresholds), and [`addrmap`] documents the simulated
//! physical address map.

pub mod addrmap;
pub mod analytic;
mod config;
mod dispatch;
mod error;
mod report;
mod system;
pub mod topology;

pub use config::{
    AccessMode, InterconnectKind, MemBackendConfig, MemoryLocation, PcieConfig, SystemConfig,
};
pub use dispatch::{DispatchPlan, GraphSession, SessionRound};
pub use error::{BuildError, Error, RunError};
pub use report::{RunReport, VitReport};
pub use system::Simulation;
pub use topology::TopologySpec;

// Re-export the subsystem crates so downstream users need one dependency.
pub use accesys_accel as accel;
pub use accesys_cache as cache;
pub use accesys_cpu as cpu;
pub use accesys_dma as dma;
pub use accesys_interconnect as interconnect;
pub use accesys_mem as mem;
pub use accesys_sim as sim;
pub use accesys_smmu as smmu;
pub use accesys_workload as workload;
