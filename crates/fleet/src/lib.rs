//! # accesys-fleet
//!
//! The fleet layer: simulate a cluster of 1000+ accelerators by
//! sharding a fleet spec into per-host switch-tree shards and running
//! each shard either in a pooled worker OS process or, in-process, as
//! one task of the sweep's own thread pool.
//!
//! A single process caps out at [`accesys::addrmap::MAX_ACCELS`]
//! endpoints (the per-host BAR carving), so datacenter-scale questions
//! — "10k accelerators, how many hosts?" — need a horizontal cut. The
//! cut is conservative: hosts only interact with the open-loop frontend
//! through network links of strictly positive latency ([`NetLink`]), so each
//! host shard is causally closed and can be simulated independently at
//! full speed, then merged deterministically.
//!
//! * [`FleetSpec`] — the self-contained, JSON-shippable description of
//!   the fleet (hosts, per-host tree, testbed, traffic, policy, link).
//! * [`run_host`] — one host shard as a pure function: route + link
//!   model + serve + fold into a flat [`HostResult`].
//! * [`merge()`] — host-order fold of shard results into a
//!   [`FleetReport`]; order of computation never leaks into the report.
//! * [`FleetWorker`] / [`serve_fleet_worker`] — both sides of the
//!   newline-framed worker protocol (modeled on the accel layer's
//!   `matrixflow-worker`), over the deadline-guarded
//!   [`accesys_accel::transport::PipeChild`].
//! * [`FleetPool`] — N long-lived worker processes reused across sweep
//!   points; [`FleetPool::spawned`] proves the reuse.
//!
//! The determinism contract stacks on the previous layers': the merged
//! [`FleetReport`] is byte-identical at any `--fleet-workers` count
//! (including 0 = in-process) and any `--jobs` count.

pub mod host;
pub mod merge;
pub mod pool;
pub mod protocol;
pub mod spec;

pub use host::{route, run_host, HostResult, HostTenant, WireHist};
pub use merge::{merge, FleetReport, FleetTenantReport};
pub use pool::{worker_binary, FleetPool};
pub use protocol::{serve_fleet_worker, FleetWorker};
pub use spec::{FleetPolicy, FleetSpec, FleetTraffic, HostSystem, NetLink, PolicyKind};

use accesys_accel::transport::TransportError;

/// Why a fleet simulation failed.
#[derive(Debug)]
pub enum FleetError {
    /// The fleet spec violates a constraint.
    Spec(String),
    /// The worker binary cannot be located or spawned.
    WorkerBinary(String),
    /// The pipe to a worker process failed (died, timed out, i/o).
    Transport(TransportError),
    /// A worker answered something the protocol does not allow.
    Protocol(String),
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
            FleetError::WorkerBinary(msg) => write!(f, "fleet worker binary: {msg}"),
            FleetError::Transport(e) => write!(f, "fleet worker transport: {e}"),
            FleetError::Protocol(msg) => write!(f, "fleet protocol violation: {msg}"),
            FleetError::Host { host, message } => write!(f, "host {host} failed: {message}"),
            FleetError::Merge(msg) => write!(f, "fleet merge violation: {msg}"),
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::Transport(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TransportError> for FleetError {
    fn from(e: TransportError) -> Self {
        FleetError::Transport(e)
    }
}
