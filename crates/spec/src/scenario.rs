//! Stage 4 of the loader: the typed scenario model and its lowering
//! into the simulator's IRs.
//!
//! A resolved+validated spec is a [`Spec`] holding one [`Scenario`].
//! Every field a driver needs to *measure* the scenario is public and
//! plain data; the methods here lower that data into the existing IR
//! types — [`SystemConfig`] / [`TopologySpec`] / [`Simulation`] for
//! `[topology]`, arrival traces and [`Policy`] values for
//! `[traffic]`/`[policy]`, KV budgets for `[kv]` — so a driver never
//! re-encodes what the text file already said. Builder rejections
//! surface as [`SpecError::Instantiate`]; nothing in this module
//! panics on a validated spec.

use crate::SpecError;
use accesys::topology::{switch_tree, switch_tree_with, EndpointOptions};
use accesys::{MemBackendConfig, Simulation, SystemConfig, TopologySpec};
use accesys_exp::Scale;
use accesys_mem::MemTech;
use accesys_serve::{Arrival, ArrivalSpec, LlmRequestShape, Policy, RequestShape};

/// A value with a quick-scale and a paper-scale variant (`key` /
/// `key_full` in the text form).
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct ScalePair<T> {
    /// The quick (CI) value.
    pub quick: T,
    /// The paper-scale (`--full`) value.
    pub full: T,
}

impl<T: Copy> ScalePair<T> {
    /// Both variants the same.
    pub fn uniform(v: T) -> ScalePair<T> {
        ScalePair { quick: v, full: v }
    }

    /// The variant for `scale`.
    pub fn pick(&self, scale: Scale) -> T {
        match scale {
            Scale::Quick => self.quick,
            Scale::Paper => self.full,
        }
    }
}

/// Parse a `FxF` tree-shape string into per-level fan-outs.
///
/// Returns `None` on anything but `x`-separated positive integers —
/// the validate stage turns that into a typed [`SpecError::Invalid`].
pub fn parse_shape(shape: &str) -> Option<Vec<u32>> {
    let levels: Option<Vec<u32>> = shape.split('x').map(|f| f.parse().ok()).collect();
    let levels = levels?;
    if levels.is_empty() || levels.contains(&0) {
        return None;
    }
    Some(levels)
}

/// Parse a memory-technology name (`"ddr4"`, `"hbm2"`, …).
pub fn mem_tech(name: &str) -> Option<MemTech> {
    Some(match name {
        "ddr3" => MemTech::Ddr3,
        "ddr4" => MemTech::Ddr4,
        "ddr5" => MemTech::Ddr5,
        "hbm2" => MemTech::Hbm2,
        "gddr5" => MemTech::Gddr5,
        "gddr6" => MemTech::Gddr6,
        "lpddr5" => MemTech::Lpddr5,
        _ => return None,
    })
}

/// The names [`mem_tech`] accepts, for diagnostics.
pub const MEM_TECH_NAMES: &str = "ddr3|ddr4|ddr5|hbm2|gddr5|gddr6|lpddr5";

/// The `[topology]` section: one host-plus-tree system description.
#[derive(Clone, Debug, PartialEq)]
pub struct SystemSpec {
    /// Host link bandwidth, GB/s (`link_gbps`).
    pub link_gbps: f64,
    /// Host memory technology (`host_mem`).
    pub host_mem: MemTech,
    /// Fixed per-job compute override, ns (`compute_ns`), if any.
    pub compute_ns: Option<f64>,
    /// Whether the SMMU is in the path (`smmu`, default `true`).
    pub smmu: bool,
    /// Uniform per-leaf device memory (`devmem`), if any.
    pub devmem: Option<MemTech>,
    /// Explicit per-leaf device-memory list (`leaves`): overrides
    /// `devmem` position by position; `None` entries mean no local
    /// memory. Length is validated against every swept shape.
    pub leaves: Option<Vec<Option<MemTech>>>,
}

impl SystemSpec {
    /// Lower to a [`SystemConfig`] (host side only).
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

    /// Device memory for leaf `i` under the given uniform/explicit
    /// settings.
    fn leaf_devmem(&self, i: usize) -> Option<MemTech> {
        match &self.leaves {
            Some(list) => list.get(i).copied().flatten(),
            None => self.devmem,
        }
    }

    /// Lower to a switch-tree [`TopologySpec`] with the given per-level
    /// fan-outs.
    pub fn tree(&self, levels: &[u32]) -> Result<TopologySpec, SpecError> {
        let cfg = self.config();
        let spec = if self.devmem.is_none() && self.leaves.is_none() {
            switch_tree(&cfg, levels)
        } else {
            switch_tree_with(&cfg, levels, |i| EndpointOptions {
                accel: None,
                dev_mem: self.leaf_devmem(i).map(MemBackendConfig::Dram),
            })
        };
        spec.map_err(|e| SpecError::Instantiate {
            message: e.to_string(),
        })
    }

    /// Build a ready [`Simulation`] on the given tree shape.
    pub fn simulation(&self, levels: &[u32]) -> Result<Simulation, SpecError> {
        let spec = self.tree(levels)?;
        Simulation::from_topology(self.config(), &spec).map_err(|e| SpecError::Instantiate {
            message: e.to_string(),
        })
    }

    /// Build a single-device host [`Simulation`] (no tree) — the
    /// roofline testbed.
    pub fn host_simulation(&self, compute_ns: f64) -> Result<Simulation, SpecError> {
        let cfg = self.config().with_compute_override_ns(compute_ns);
        Simulation::new(cfg).map_err(|e| SpecError::Instantiate {
            message: e.to_string(),
        })
    }
}

/// Encoder geometry (`seq`/`hidden`/`heads`/`mlp`).
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct EncoderDims {
    /// Sequence length.
    pub seq: u32,
    /// Hidden dimension.
    pub hidden: u32,
    /// Attention heads.
    pub heads: u32,
    /// MLP dimension.
    pub mlp: u32,
}

/// The `[traffic]` section: an open-loop arrival process plus horizon.
#[derive(Clone, Debug, PartialEq)]
pub struct TrafficSpec {
    /// Trace horizon in virtual ns (`horizon_ns` / `horizon_ns_full`).
    pub horizon_ns: ScalePair<u64>,
    /// The arrival process.
    pub process: TrafficProcess,
}

/// The arrival process of a [`TrafficSpec`].
#[derive(Clone, Debug, PartialEq)]
pub enum TrafficProcess {
    /// Memoryless traffic at the swept rate (`process = "poisson"`).
    Poisson {
        /// Tenants drawn uniformly.
        tenants: u32,
        /// PRNG seed.
        seed: u64,
    },
    /// Two-state MMPP traffic (`process = "bursty"`); the swept rate
    /// axis is ignored — the phases carry their own rates.
    Bursty {
        /// Calm-phase rate, requests per second.
        calm_rps: f64,
        /// Burst-phase rate, requests per second.
        burst_rps: f64,
        /// Mean phase length in arrivals.
        mean_phase_len: u32,
        /// Tenants drawn uniformly.
        tenants: u32,
        /// PRNG seed.
        seed: u64,
    },
    /// Replay an explicit trace (`process = "trace"`, `at_ns` +
    /// `tenant` lists); the swept rate axis is ignored.
    Trace(
        /// The arrivals, sorted by time.
        Vec<Arrival>,
    ),
}

impl TrafficSpec {
    /// Tenants the process draws from (for weighted-share validation).
    pub fn tenants(&self) -> u32 {
        match &self.process {
            TrafficProcess::Poisson { tenants, .. } | TrafficProcess::Bursty { tenants, .. } => {
                *tenants
            }
            TrafficProcess::Trace(arrivals) => {
                arrivals.iter().map(|a| a.tenant + 1).max().unwrap_or(1)
            }
        }
    }

    /// Materialize the arrival trace for one swept rate at one scale.
    /// Deterministic: a pure function of the spec, rate and scale.
    pub fn arrivals(&self, rate_rps: f64, scale: Scale) -> Vec<Arrival> {
        let horizon = self.horizon_ns.pick(scale);
        let spec = match &self.process {
            TrafficProcess::Poisson { tenants, seed } => {
                ArrivalSpec::poisson(rate_rps, *tenants, *seed)
            }
            TrafficProcess::Bursty {
                calm_rps,
                burst_rps,
                mean_phase_len,
                tenants,
                seed,
            } => ArrivalSpec::bursty(*calm_rps, *burst_rps, *mean_phase_len, *tenants, *seed),
            TrafficProcess::Trace(arrivals) => ArrivalSpec::Trace(arrivals.clone()),
        };
        spec.generate(horizon)
    }
}

/// The `[policy]` section: admission + scheduling knobs.
#[derive(Clone, Debug, PartialEq)]
pub struct PolicySpec {
    /// The scheduling policy (`kind` + `weights`).
    pub kind: PolicyKind,
    /// Requests in flight for the batched run (`batch_cap`).
    pub batch_cap: BatchCap,
    /// Admission-queue bound (`queue_cap`).
    pub queue_cap: usize,
    /// Latency SLO in ns (`slo_ns`).
    pub slo_ns: f64,
}

/// The scheduling policy of a [`PolicySpec`].
#[derive(Clone, Debug, PartialEq)]
pub enum PolicyKind {
    /// Strict arrival order.
    Fifo,
    /// Rotate across tenants.
    RoundRobin,
    /// Weighted share across tenants.
    WeightedShare(
        /// Per-tenant weights (length = tenant count).
        Vec<u32>,
    ),
}

/// The batched-run batch cap of a [`PolicySpec`].
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum BatchCap {
    /// `multiplier × endpoints` (the text form `"auto"` is ×2).
    Auto(
        /// The per-endpoint multiplier.
        u32,
    ),
    /// A fixed cap regardless of tree shape.
    Fixed(usize),
}

impl BatchCap {
    /// The concrete cap on a tree with `endpoints` leaves.
    pub fn cap(&self, endpoints: u32) -> usize {
        match self {
            BatchCap::Auto(mult) => (endpoints as usize) * (*mult as usize),
            BatchCap::Fixed(cap) => *cap,
        }
    }
}

impl PolicySpec {
    /// Lower to the serving engine's [`Policy`].
    pub fn policy(&self) -> Policy {
        match &self.kind {
            PolicyKind::Fifo => Policy::Fifo,
            PolicyKind::RoundRobin => Policy::round_robin(),
            PolicyKind::WeightedShare(w) => Policy::weighted_share(w),
        }
    }
}

/// The `[kv]` section: named per-device KV-budget regimes.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct KvSpec {
    /// The `ample` regime: a flat byte budget (`ample_bytes`).
    pub ample_bytes: u64,
    /// The `tight` regime: percent of one request's KV working set
    /// (`tight_pct`, e.g. 150 = 1.5 requests' worth).
    pub tight_pct: u32,
}

impl KvSpec {
    /// The budget of a named regime in bytes, `None` if the name is
    /// unknown (validated away at load time).
    pub fn budget_bytes(&self, regime: &str, shape: &LlmRequestShape) -> Option<u64> {
        match regime {
            "ample" => Some(self.ample_bytes),
            "tight" => Some(shape.max_kv_bytes() * u64::from(self.tight_pct) / 100),
            _ => None,
        }
    }
}

/// A roofline scenario (`kind = "roofline"`): one device behind the
/// host link, per-tile compute time swept.
#[derive(Clone, Debug, PartialEq)]
pub struct RooflineScenario {
    /// Experiment name (the sweep id in JSON output).
    pub name: String,
    /// The testbed (compute override comes from the swept axis).
    pub system: SystemSpec,
    /// Square GEMM size per scale.
    pub matrix: ScalePair<u32>,
    /// The swept compute times, ns per tile.
    pub compute_ns: Vec<f64>,
}

/// A topology-scaling scenario (`kind = "topo"`): one GEMM sharded
/// across every leaf of each swept tree shape, in two regimes.
#[derive(Clone, Debug, PartialEq)]
pub struct TopoScenario {
    /// Experiment name.
    pub name: String,
    /// The compute-bound regime's testbed.
    pub compute_bound: SystemSpec,
    /// The transfer-bound regime's testbed.
    pub transfer_bound: SystemSpec,
    /// Square GEMM size per scale.
    pub matrix: ScalePair<u32>,
    /// The swept tree shapes.
    pub shapes: Vec<String>,
}

/// A pipelined-encoder scenario (`kind = "pipeline"`): sequential
/// chain vs pipelined schedule on each swept tree shape.
#[derive(Clone, Debug, PartialEq)]
pub struct PipelineScenario {
    /// Experiment name.
    pub name: String,
    /// The testbed.
    pub system: SystemSpec,
    /// Encoder geometry per scale.
    pub dims: ScalePair<EncoderDims>,
    /// Encoder layers per scale.
    pub layers: ScalePair<u32>,
    /// Images in flight per scale.
    pub images: ScalePair<u32>,
    /// Explicit pipeline devices (`workload.devices`), if any;
    /// `None` pins stages across every leaf.
    pub devices: Option<Vec<usize>>,
    /// The swept tree shapes.
    pub shapes: Vec<String>,
}

impl PipelineScenario {
    /// Pipeline stage count on a tree with `endpoints` leaves.
    pub fn device_count(&self, endpoints: u32) -> usize {
        match &self.devices {
            Some(list) => list.len(),
            None => endpoints as usize,
        }
    }
}

/// An online-serving scenario (`kind = "serving"`): open-loop encoder
/// requests through the continuous-batching engine.
#[derive(Clone, Debug, PartialEq)]
pub struct ServingScenario {
    /// Experiment name.
    pub name: String,
    /// The testbed.
    pub system: SystemSpec,
    /// The request every client sends.
    pub request: RequestShape,
    /// The arrival process.
    pub traffic: TrafficSpec,
    /// Admission + scheduling knobs.
    pub policy: PolicySpec,
    /// The swept tree shapes.
    pub shapes: Vec<String>,
    /// The swept arrival rates, requests per second.
    pub rates: Vec<f64>,
}

/// A batched-decode scenario (`kind = "decode"`): open-loop LLM
/// prefill/decode traffic under named KV budgets.
#[derive(Clone, Debug, PartialEq)]
pub struct DecodeScenario {
    /// Experiment name.
    pub name: String,
    /// The testbed.
    pub system: SystemSpec,
    /// The request every client sends.
    pub request: LlmRequestShape,
    /// The arrival process.
    pub traffic: TrafficSpec,
    /// Admission + scheduling knobs.
    pub policy: PolicySpec,
    /// The KV-budget regimes.
    pub kv: KvSpec,
    /// The swept tree shapes.
    pub shapes: Vec<String>,
    /// The swept arrival rates, requests per second.
    pub rates: Vec<f64>,
    /// The swept budget-regime names (`"ample"` / `"tight"`).
    pub budgets: Vec<String>,
}

/// A fleet scale-out scenario (`kind = "fleet"`): many identical hosts
/// — each one switch tree of accelerators behind its own serving
/// engine — fed shares of one open-loop trace over latency/bandwidth
/// bounded network links, swept over host counts and per-host tree
/// shapes.
///
/// The spec layer stays a pure front-end here: this struct is plain
/// data, and the fleet driver lowers it into the fleet crate's own spec
/// type.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetScenario {
    /// Experiment name.
    pub name: String,
    /// The per-host testbed (all hosts identical).
    pub system: SystemSpec,
    /// The request every client sends.
    pub request: RequestShape,
    /// The fleet-wide arrival process (restricted to `poisson`: the
    /// whole trace must be a precomputable pure function of the spec so
    /// every shard can regenerate it independently).
    pub traffic: TrafficSpec,
    /// Per-host admission + scheduling knobs.
    pub policy: PolicySpec,
    /// The swept host counts (`[fleet] hosts`).
    pub hosts: Vec<u32>,
    /// Frontend→host one-way link latency, ns (`link_latency_ns`) —
    /// also the conservative lookahead of the cross-host cut.
    pub link_latency_ns: f64,
    /// Inter-host link bandwidth, Gbit/s (`link_gbps`).
    pub link_gbps: f64,
    /// Bytes on the wire per request/response (`request_bytes`).
    pub request_bytes: u64,
    /// Fleet-wide offered rate, requests per second (`rate_rps`).
    pub rate_rps: f64,
    /// The swept per-host tree shapes.
    pub shapes: Vec<String>,
}

impl FleetScenario {
    /// Total accelerator endpoints at one (hosts, shape) grid point.
    pub fn endpoints(&self, hosts: u32, shape: &str) -> u64 {
        let per_host: u32 = parse_shape(shape).map_or(0, |l| l.iter().product());
        u64::from(hosts) * u64::from(per_host)
    }
}

/// One fully loaded scenario, by kind.
#[derive(Clone, Debug, PartialEq)]
pub enum Scenario {
    /// `kind = "roofline"`.
    Roofline(RooflineScenario),
    /// `kind = "topo"`.
    Topo(TopoScenario),
    /// `kind = "pipeline"`.
    Pipeline(PipelineScenario),
    /// `kind = "serving"`.
    Serving(ServingScenario),
    /// `kind = "decode"`.
    Decode(DecodeScenario),
    /// `kind = "fleet"`.
    Fleet(FleetScenario),
}

impl Scenario {
    /// The scenario kind, as spelled in `[scenario] kind`.
    pub fn kind(&self) -> &'static str {
        match self {
            Scenario::Roofline(_) => "roofline",
            Scenario::Topo(_) => "topo",
            Scenario::Pipeline(_) => "pipeline",
            Scenario::Serving(_) => "serving",
            Scenario::Decode(_) => "decode",
            Scenario::Fleet(_) => "fleet",
        }
    }

    /// The experiment name (`[scenario] name`).
    pub fn name(&self) -> &str {
        match self {
            Scenario::Roofline(s) => &s.name,
            Scenario::Topo(s) => &s.name,
            Scenario::Pipeline(s) => &s.name,
            Scenario::Serving(s) => &s.name,
            Scenario::Decode(s) => &s.name,
            Scenario::Fleet(s) => &s.name,
        }
    }

    /// The swept tree shapes (empty for roofline scenarios).
    pub fn shapes(&self) -> &[String] {
        match self {
            Scenario::Roofline(_) => &[],
            Scenario::Topo(s) => &s.shapes,
            Scenario::Pipeline(s) => &s.shapes,
            Scenario::Serving(s) => &s.shapes,
            Scenario::Decode(s) => &s.shapes,
            Scenario::Fleet(s) => &s.shapes,
        }
    }
}

/// A loaded spec: the scenario plus the canonical text it came from.
#[derive(Clone, Debug, PartialEq)]
pub struct Spec {
    /// The scenario.
    pub scenario: Scenario,
    /// The canonical re-serialization of the source document
    /// (normalized whitespace/number forms; a round-trip fixed point).
    pub canonical: String,
}

impl Spec {
    /// Instantiate every IR object the scenario needs — topologies on
    /// every swept shape, the simulations on them — without running
    /// anything. This is the `accesys validate` backstop: builder
    /// rejections the earlier stages could not see surface here as
    /// typed [`SpecError::Instantiate`] values.
    pub fn dry_build(&self, scale: Scale) -> Result<(), SpecError> {
        match &self.scenario {
            Scenario::Roofline(s) => {
                let &first = s.compute_ns.first().ok_or_else(|| SpecError::Instantiate {
                    message: "empty compute_ns axis".to_string(),
                })?;
                s.system.host_simulation(first).map(|_| ())
            }
            Scenario::Topo(s) => {
                for shape in &s.shapes {
                    let levels = parsed_shape(shape)?;
                    s.compute_bound.simulation(&levels)?;
                    s.transfer_bound.simulation(&levels)?;
                }
                Ok(())
            }
            Scenario::Pipeline(s) => {
                for shape in &s.shapes {
                    s.system.simulation(&parsed_shape(shape)?)?;
                }
                Ok(())
            }
            Scenario::Serving(s) => {
                for shape in &s.shapes {
                    s.system.simulation(&parsed_shape(shape)?)?;
                }
                let rate = s.rates.first().copied().unwrap_or(0.0);
                let _ = s.traffic.arrivals(rate, scale);
                Ok(())
            }
            Scenario::Decode(s) => {
                for shape in &s.shapes {
                    s.system.simulation(&parsed_shape(shape)?)?;
                }
                let rate = s.rates.first().copied().unwrap_or(0.0);
                let _ = s.traffic.arrivals(rate, scale);
                for b in &s.budgets {
                    s.kv.budget_bytes(b, &s.request)
                        .ok_or_else(|| SpecError::Instantiate {
                            message: format!("unknown KV budget regime `{b}`"),
                        })?;
                }
                Ok(())
            }
            Scenario::Fleet(s) => {
                // Every host is identical, so one per-shape simulation
                // exercises the same builders every shard will run.
                for shape in &s.shapes {
                    s.system.simulation(&parsed_shape(shape)?)?;
                }
                let _ = s.traffic.arrivals(s.rate_rps, scale);
                Ok(())
            }
        }
    }
}

/// Parse an already-validated shape string, mapping the (unreachable
/// on validated specs) failure to a typed error instead of a panic.
fn parsed_shape(shape: &str) -> Result<Vec<u32>, SpecError> {
    parse_shape(shape).ok_or_else(|| SpecError::Instantiate {
        message: format!("malformed tree shape `{shape}`"),
    })
}
