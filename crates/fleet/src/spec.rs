//! The self-contained fleet specification: everything a host shard
//! needs to rebuild its simulation, as plain data.

use crate::FleetError;
use accesys::topology::{switch_tree, switch_tree_with, EndpointOptions};
use accesys::{MemBackendConfig, Simulation, SystemConfig};
use accesys_mem::MemTech;
use accesys_serve::{Arrival, ArrivalSpec, Policy, RequestShape, ServeConfig};

/// A whole fleet: `hosts` identical hosts, each carrying one switch
/// tree of accelerators, fed by one open-loop frontend over
/// latency/bandwidth-bounded network links.
///
/// The struct is deliberately closed over plain data (no handles, no
/// callbacks): every host shard rebuilds its simulation from it alone,
/// so shards can run on any thread in any order.
#[derive(Clone, Debug, PartialEq, serde::Serialize)]
pub struct FleetSpec {
    /// Host count (each host is one independently simulated shard).
    pub hosts: u32,
    /// Per-level fan-outs of every host's switch tree (the PR 4 shape
    /// string, parsed); the leaf count is capped by the per-host BAR
    /// carving ([`accesys::addrmap::MAX_ACCELS`]).
    pub shape: Vec<u32>,
    /// The per-host testbed (all hosts identical).
    pub host: HostSystem,
    /// What one request costs.
    pub request: RequestShape,
    /// The fleet-wide open-loop arrival process.
    pub traffic: FleetTraffic,
    /// Per-host admission/batching policy.
    pub policy: FleetPolicy,
    /// The frontend→host network link model.
    pub link: NetLink,
}

/// One host's system knobs (the lowered form of the spec layer's
/// `[topology]` section).
#[derive(Clone, Debug, PartialEq, serde::Serialize)]
pub struct HostSystem {
    /// Host PCIe link bandwidth, GB/s.
    pub link_gbps: f64,
    /// Host memory technology.
    pub host_mem: MemTech,
    /// Fixed per-job compute override, ns, if any.
    pub compute_ns: Option<f64>,
    /// Whether the SMMU is in the path.
    pub smmu: bool,
    /// Uniform per-leaf device memory, if any.
    pub devmem: Option<MemTech>,
}

impl HostSystem {
    /// Lower to a [`SystemConfig`].
    pub fn config(&self) -> SystemConfig {
        let mut cfg = SystemConfig::pcie_host(self.link_gbps, self.host_mem);
        if let Some(ns) = self.compute_ns {
            cfg = cfg.with_compute_override_ns(ns);
        }
        if !self.smmu {
            cfg.smmu = None;
        }
        cfg
    }
}

/// The fleet-wide Poisson arrival process. The trace is generated from
/// the seed (identically in every shard that needs it) and routed to
/// hosts round-robin, so there is no shared arrival stream to
/// coordinate between shards.
#[derive(Clone, Debug, PartialEq, serde::Serialize)]
pub struct FleetTraffic {
    /// Offered rate over the whole fleet, requests per second.
    pub rate_rps: f64,
    /// Tenants drawn uniformly.
    pub tenants: u32,
    /// PRNG seed.
    pub seed: u64,
    /// Trace horizon in virtual ns.
    pub horizon_ns: u64,
}

impl FleetTraffic {
    /// Generate the full fleet arrival trace (sorted by time).
    pub fn arrivals(&self) -> Vec<Arrival> {
        ArrivalSpec::poisson(self.rate_rps, self.tenants, self.seed).generate(self.horizon_ns)
    }
}

/// Which batching policy each host runs.
#[derive(Copy, Clone, Debug, PartialEq, Eq, serde::Serialize)]
pub enum PolicyKind {
    /// Strict arrival order.
    Fifo,
    /// Cycle through tenants.
    RoundRobin,
    /// Weighted fair share over [`FleetPolicy::weights`].
    WeightedShare,
}

/// Per-host admission/batching policy and bounds.
#[derive(Clone, Debug, PartialEq, serde::Serialize)]
pub struct FleetPolicy {
    /// Policy kind.
    pub kind: PolicyKind,
    /// Per-tenant weights ([`PolicyKind::WeightedShare`] only).
    pub weights: Vec<u32>,
    /// Per-host batch cap (requests folded into one round).
    pub batch_cap: u64,
    /// Per-host admission-queue bound.
    pub queue_cap: u64,
    /// End-to-end latency SLO in ns; `0` means no SLO (goodput =
    /// throughput). Zero stands in for infinity so the field stays a
    /// finite, serializable number.
    pub slo_ns: f64,
}

impl FleetPolicy {
    /// The serve-engine policy object.
    pub fn policy(&self) -> Policy {
        match self.kind {
            PolicyKind::Fifo => Policy::Fifo,
            PolicyKind::RoundRobin => Policy::round_robin(),
            PolicyKind::WeightedShare => Policy::weighted_share(&self.weights),
        }
    }

    /// The SLO as the engine sees it (`0` → unbounded).
    pub fn slo(&self) -> f64 {
        if self.slo_ns > 0.0 {
            self.slo_ns
        } else {
            f64::INFINITY
        }
    }
}

/// The frontend→host network link: fixed propagation latency plus a
/// serialization term at the link bandwidth, FIFO per host.
///
/// `latency_ns` doubles as the conservative-lookahead bound of the
/// cross-host cut: no event can cross between the frontend and a host in less than the
/// link latency, so each host can be simulated `latency_ns` ahead of
/// the frontend without risking causality. With the open-loop traffic
/// model the frontend trace is fully precomputed and each host shard
/// is causally closed over the whole horizon — the validation that
/// `latency_ns > 0` is what keeps the cut sound, and would become the
/// actual horizon limit under a future closed-loop frontend.
#[derive(Clone, Debug, PartialEq, serde::Serialize)]
pub struct NetLink {
    /// One-way propagation latency, ns (must be > 0: the lookahead).
    pub latency_ns: f64,
    /// Link bandwidth, Gbit/s.
    pub gbps: f64,
    /// Bytes on the wire per request (and per response — symmetric).
    pub request_bytes: u64,
}

impl NetLink {
    /// Serialization time of one request at the link rate, ns.
    /// (`gbps` is Gbit/s = bits per ns.)
    pub fn ser_ns(&self) -> f64 {
        (self.request_bytes as f64 * 8.0) / self.gbps
    }
}

impl FleetSpec {
    /// A small, fast, valid fleet for tests, examples, and docs:
    /// modest traffic on fixed-compute hosts (`hosts` hosts of the
    /// given tree shape), round-robin over two tenants.
    pub fn demo(hosts: u32, shape: &[u32]) -> FleetSpec {
        FleetSpec {
            hosts,
            shape: shape.to_vec(),
            host: HostSystem {
                link_gbps: 16.0,
                host_mem: MemTech::Ddr4,
                compute_ns: Some(5_000.0),
                smmu: false,
                devmem: None,
            },
            request: RequestShape {
                seq: 32,
                hidden: 64,
                heads: 4,
                mlp: 128,
                slices: 2,
            },
            traffic: FleetTraffic {
                rate_rps: 20_000.0,
                tenants: 2,
                seed: 7,
                horizon_ns: 2_000_000,
            },
            policy: FleetPolicy {
                kind: PolicyKind::RoundRobin,
                weights: Vec::new(),
                batch_cap: 4,
                queue_cap: 16,
                slo_ns: 5e6,
            },
            link: NetLink {
                latency_ns: 2_000.0,
                gbps: 100.0,
                request_bytes: 4096,
            },
        }
    }

    /// Leaves (accelerator endpoints) per host.
    pub fn endpoints_per_host(&self) -> u32 {
        self.shape.iter().product::<u32>()
    }

    /// Total accelerator endpoints across the fleet.
    pub fn endpoints(&self) -> u64 {
        self.hosts as u64 * self.endpoints_per_host() as u64
    }

    /// Check every cross-field constraint; [`crate::run_host`]
    /// validates again, so a shard never runs an invalid spec.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::Spec`] naming the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), FleetError> {
        let bad = |msg: String| Err(FleetError::Spec(msg));
        if self.hosts == 0 || self.hosts > 4096 {
            return bad(format!("hosts must be in 1..=4096, got {}", self.hosts));
        }
        if self.shape.is_empty() || self.shape.contains(&0) {
            return bad(format!(
                "shape must list positive per-level fan-outs, got {:?}",
                self.shape
            ));
        }
        if let Err(e) = accesys::addrmap::check_accel_count(self.endpoints_per_host() as usize) {
            return bad(format!("per-host tree too large: {e}"));
        }
        if !(self.link.latency_ns > 0.0 && self.link.latency_ns.is_finite()) {
            return bad(format!(
                "link latency_ns must be positive and finite (it is the \
                 conservative lookahead of the cross-host cut), got {}",
                self.link.latency_ns
            ));
        }
        if !(self.link.gbps > 0.0 && self.link.gbps.is_finite()) {
            return bad(format!(
                "link gbps must be positive and finite, got {}",
                self.link.gbps
            ));
        }
        if self.link.request_bytes == 0 {
            return bad("link request_bytes must be >= 1".to_string());
        }
        if !(self.traffic.rate_rps >= 0.0 && self.traffic.rate_rps.is_finite()) {
            return bad(format!(
                "traffic rate_rps must be non-negative and finite, got {}",
                self.traffic.rate_rps
            ));
        }
        if self.traffic.tenants == 0 {
            return bad("traffic tenants must be >= 1".to_string());
        }
        if self.traffic.horizon_ns == 0 {
            return bad("traffic horizon_ns must be >= 1".to_string());
        }
        if self.policy.batch_cap == 0 || self.policy.queue_cap == 0 {
            return bad(format!(
                "policy batch_cap/queue_cap must be >= 1, got {}/{}",
                self.policy.batch_cap, self.policy.queue_cap
            ));
        }
        if !(self.policy.slo_ns >= 0.0 && self.policy.slo_ns.is_finite()) {
            return bad(format!(
                "policy slo_ns must be non-negative and finite (0 = no SLO), got {}",
                self.policy.slo_ns
            ));
        }
        if !(self.host.link_gbps > 0.0 && self.host.link_gbps.is_finite()) {
            return bad(format!(
                "host link_gbps must be positive and finite, got {}",
                self.host.link_gbps
            ));
        }
        if let Some(ns) = self.host.compute_ns {
            if !(ns > 0.0 && ns.is_finite()) {
                return bad(format!(
                    "host compute_ns must be positive and finite, got {ns}"
                ));
            }
        }
        if self.request.slices == 0 {
            return bad("request slices must be >= 1".to_string());
        }
        Ok(())
    }

    /// Build one host's [`Simulation`] (they are all identical).
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::Spec`] when the topology does not build.
    pub fn host_simulation(&self) -> Result<Simulation, FleetError> {
        let cfg = self.host.config();
        let spec = match self.host.devmem {
            None => switch_tree(&cfg, &self.shape),
            Some(tech) => switch_tree_with(&cfg, &self.shape, |_| EndpointOptions {
                accel: None,
                dev_mem: Some(MemBackendConfig::Dram(tech)),
            }),
        }
        .map_err(|e| FleetError::Spec(format!("host tree does not build: {e}")))?;
        Simulation::from_topology(cfg, &spec)
            .map_err(|e| FleetError::Spec(format!("host simulation does not build: {e}")))
    }

    /// The per-host serve-engine config.
    pub fn serve_config(&self) -> ServeConfig {
        ServeConfig {
            batch_cap: self.policy.batch_cap.max(1) as usize,
            queue_cap: self.policy.queue_cap.max(1) as usize,
            slo_ns: self.policy.slo(),
        }
    }
}
