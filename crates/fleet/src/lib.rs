//! # accesys-fleet
//!
//! The fleet layer: simulate a cluster of 1000+ accelerators by
//! sharding a fleet spec into per-host switch-tree shards, each one a
//! pure function the caller can run on any thread in any order.
//!
//! A single simulation caps out at [`accesys::addrmap::MAX_ACCELS`]
//! endpoints (the per-host BAR carving), so datacenter-scale questions
//! — "10k accelerators, how many hosts?" — need a horizontal cut. The
//! cut is conservative: hosts only interact with the open-loop frontend
//! through network links of strictly positive latency ([`NetLink`]), so each
//! host shard is causally closed and can be simulated independently at
//! full speed, then merged deterministically.
//!
//! * [`FleetSpec`] — the self-contained description of the fleet
//!   (hosts, per-host tree, testbed, traffic, policy, link).
//! * [`run_host`] — one host shard as a pure function: route + link
//!   model + serve + fold into a flat [`HostResult`].
//! * [`merge()`] — host-order fold of shard results into a
//!   [`FleetReport`]; order of computation never leaks into the report.
//!
//! The experiment layer runs every `(point, host)` shard of a sweep on
//! its `--jobs` thread pool and merges each point. The determinism
//! contract stacks on the previous layers': the merged [`FleetReport`]
//! is byte-identical at any `--jobs` count.

pub mod host;
pub mod merge;
pub mod spec;

pub use host::{route, run_host, HostResult, HostTenant, WireHist};
pub use merge::{merge, FleetReport, FleetTenantReport};
pub use spec::{FleetPolicy, FleetSpec, FleetTraffic, HostSystem, NetLink, PolicyKind};

/// Why a fleet simulation failed.
#[derive(Debug)]
pub enum FleetError {
    /// The fleet spec violates a constraint.
    Spec(String),
    /// A host shard failed to simulate.
    Host {
        /// Which host.
        host: u32,
        /// What went wrong.
        message: String,
    },
    /// Shard results do not cover the fleet exactly once.
    Merge(String),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::Spec(msg) => write!(f, "invalid fleet spec: {msg}"),
            FleetError::Host { host, message } => write!(f, "host {host} failed: {message}"),
            FleetError::Merge(msg) => write!(f, "fleet merge violation: {msg}"),
        }
    }
}

impl std::error::Error for FleetError {}
