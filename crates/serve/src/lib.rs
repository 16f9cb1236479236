//! # accesys-serve — the online serving layer
//!
//! Everything below this crate answers *closed-loop* questions: build a
//! topology, hand the dispatcher a fixed [`TaskGraph`], measure the
//! makespan. Serving questions are *open-loop*: requests arrive on
//! their own clock at some offered rate, and the quantities that matter
//! are tail latency (p50/p99/p99.9), goodput under an SLO, and what
//! happens past saturation. This crate closes that gap with three
//! pieces:
//!
//! - [`arrivals`] — deterministic open-loop traffic generators
//!   ([`ArrivalSpec::Poisson`], bursty two-state MMPP, JSON trace
//!   replay), all seeded, all materialized ahead of the simulation as a
//!   sorted arrival vector.
//! - [`queue`] + [`policy`] — a bounded [`AdmissionQueue`] (over-bound
//!   bursts are typed [`Rejected`] outcomes, never panics) and
//!   pluggable per-tenant batching policies (FIFO, round-robin,
//!   weighted share) generalizing the PR 5 `two_tenant_mix` workload.
//! - [`engine`] — the continuous-batching [`serve`] loop: in-flight
//!   requests execute one encoder slice per round on the PR 5
//!   dispatcher, and the round barrier is the admission point where
//!   arriving requests fold in and finished ones fold out
//!   (iteration-level scheduling). Per-request latency — arrival tick
//!   to host-retirement tick — lands in [`sim::hist`] histograms; the
//!   [`ServeReport`] carries percentiles, goodput, and per-tenant
//!   breakdowns.
//! - [`llm`] — the autoregressive engine: [`serve_llm`] runs the same
//!   loop with its own round builder, batching mixed prefill/decode
//!   rounds (prefill on admission, one decode slice per round,
//!   EOS-by-length retirement) with per-request KV caches growing in
//!   per-device memory slices; capacity pressure lowers to host-memory
//!   `Transfer` traffic and is reported in [`KvReport`] next to
//!   time-to-first-token and decode-tokens/sec.
//!
//! Determinism is end to end: a seeded spec replayed twice is
//! byte-identical, and so is the report it produces — on one worker or
//! many (`accesys exp all --jobs 1` vs `--jobs 4` in CI).
//!
//! ## Quickstart
//!
//! ```
//! use accesys::topology::switch_tree;
//! use accesys::{Simulation, SystemConfig};
//! use accesys_mem::MemTech;
//! use accesys_serve::{serve, ArrivalSpec, Policy, RequestShape, ServeConfig};
//!
//! let cfg = SystemConfig::pcie_host(16.0, MemTech::Ddr4).with_compute_override_ns(50_000.0);
//! let spec = switch_tree(&cfg, &[2]).unwrap();
//! let mut sim = Simulation::from_topology(cfg, &spec).unwrap();
//! let shape = RequestShape { seq: 16, hidden: 64, heads: 4, mlp: 128, slices: 2 };
//! let arrivals = ArrivalSpec::poisson(3000.0, 2, 42).generate(3_000_000);
//! let report = serve(
//!     &mut sim,
//!     &shape,
//!     &arrivals,
//!     &Policy::round_robin(),
//!     &ServeConfig::new(4, 64).with_slo_ns(5e6),
//! )
//! .unwrap();
//! assert_eq!(report.offered, report.admitted + report.rejected);
//! assert_eq!(report.completed, report.admitted); // everything admitted finishes
//! assert!(report.latency.p99_ns >= report.latency.p50_ns);
//! ```
//!
//! [`TaskGraph`]: accesys_workload::graph::TaskGraph
//! [`sim::hist`]: accesys_sim::Histogram

#![warn(missing_docs)]

pub mod arrivals;
pub mod engine;
pub mod llm;
pub mod policy;
pub mod queue;

pub use arrivals::{Arrival, ArrivalSpec};
pub use engine::{
    per_sec, serve, serve_traced, Completion, LatencySummary, RequestShape, ServeConfig,
    ServeReport, TenantReport,
};
pub use llm::{
    serve_llm, KvReport, LlmRequestShape, LlmServeConfig, LlmServeError, LlmServeReport,
};
pub use policy::Policy;
pub use queue::{AdmissionQueue, Queued, Rejected};

/// The most tenants one run may name: tenant ids are `0..MAX_TENANTS`.
/// The engines keep per-tenant state (a latency histogram each) indexed
/// by id, so the spec loader (tenant counts and `process = "trace"`
/// ids) and the fleet spec reject larger counts and ids with a typed
/// error instead of allocating for them.
pub const MAX_TENANTS: u32 = 1024;
