//! The topology layer: a declarative graph IR for whole-system shapes
//! and the generic wiring engine that instantiates it.
//!
//! A [`TopologySpec`] is a typed, cyclic graph of node specs — memories,
//! xbars, caches, the CPU complex, SMMU, links, the PCIe root complex,
//! switches, endpoints, DMA engines and accelerator controllers — plus a
//! role registry naming the CPU and every accelerator *device* (the
//! `ctrl`/`dma`/`ep` triple workloads drive). The engine
//! ([`TopologySpec::instantiate`]) does generically what the Fig. 1
//! builder used to do by hand: reserve a kernel placeholder per node (so
//! cyclic references resolve), validate the graph, then construct and
//! install every module in deterministic node order.
//!
//! Validation happens *before* anything touches a kernel:
//!
//! * every reserved node is defined and every edge points at a defined
//!   node (no placeholder holes at run time),
//! * module names are unique (the kernel's stats contract),
//! * sibling switch-port claims, endpoint BARs and xbar routes are
//!   pairwise disjoint,
//! * switch fan-out stays within [`MAX_SWITCH_FANOUT`],
//! * the longest request path, counted in route-stack pushes, fits
//!   [`accesys_sim::MAX_ROUTE_DEPTH`] — rejecting too-deep trees with
//!   [`BuildError::RouteDepthExceeded`] at build time instead of a
//!   `route stack overflow` panic deep inside a run,
//! * every node is reachable from a traffic origin (CPU, a device, the
//!   SMMU walker).
//!
//! [`SystemConfig::topology`] lowers the classic configuration to this
//! IR — the paper's single-accelerator Fig. 1 shape is just one preset —
//! and [`switch_tree`] builds every multi-accelerator system: flat
//! clusters and multi-level PCIe switch trees, with per-endpoint memory
//! placement through [`switch_tree_with`].

use crate::addrmap;
use crate::{
    AccessMode, BuildError, InterconnectKind, MemBackendConfig, MemoryLocation, SystemConfig,
};
use accesys_accel::{AccelController, AccelControllerConfig};
use accesys_cache::{Cache, CacheConfig, CoherentConfig};
use accesys_cpu::{CpuComplex, CpuConfig};
use accesys_dma::{DmaEngine, DmaEngineConfig};
use accesys_interconnect::{
    aggregate_ranges, AddrRange, FlitLink, FlitLinkConfig, PcieEndpoint, PcieEndpointConfig,
    PcieLink, PcieLinkConfig, PcieSwitch, PcieSwitchConfig, RootComplex, RootComplexConfig,
    SwitchPort, Xbar, XbarConfig,
};
use accesys_mem::{Dram, SimpleMemory};
use accesys_sim::{streams, Kernel, Module, ModuleId, MAX_ROUTE_DEPTH};
use accesys_smmu::{Smmu, SmmuConfig};

/// Maximum downstream ports on one switch accepted by the validator.
pub const MAX_SWITCH_FANOUT: usize = 16;

/// Handle to one node of a [`TopologySpec`].
///
/// Obtained from [`TopologySpec::reserve`] / [`TopologySpec::add`];
/// node ids are indices into the owning spec, so do not mix ids across
/// specs (validation catches out-of-range ids, not cross-spec mixups).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct NodeId(u32);

impl NodeId {
    fn idx(self) -> usize {
        self.0 as usize
    }
}

/// One downstream port of a [`NodeSpec::Switch`].
#[derive(Clone, Debug)]
pub struct SwitchPortSpec {
    /// Egress link toward the subtree.
    pub egress_link: NodeId,
    /// The module directly below the port: an endpoint, or a child
    /// switch in a cascaded tree.
    pub downstream: NodeId,
    /// Address ranges the subtree behind this port claims.
    pub ranges: Vec<AddrRange>,
}

/// A typed node of the system graph. Edges are [`NodeId`]s into the same
/// [`TopologySpec`]; the wiring engine resolves them to kernel
/// [`ModuleId`]s at instantiation time.
#[derive(Clone, Debug)]
pub enum NodeSpec {
    /// A memory backend (host or device side).
    Memory {
        /// Backend model and timing.
        cfg: MemBackendConfig,
    },
    /// An address-routed crossbar (MemBus, DevMem controller frontend).
    Xbar {
        /// Width/frequency/latency.
        cfg: XbarConfig,
        /// Where unmatched requests go.
        default: NodeId,
        /// Address-range routes (must be pairwise disjoint).
        routes: Vec<(AddrRange, NodeId)>,
    },
    /// A cache level.
    Cache {
        /// Geometry and timing.
        cfg: CacheConfig,
        /// Next level toward memory.
        downstream: NodeId,
        /// `Some(cpu_cache)` makes this the coherence point probing the
        /// CPU-side cache on I/O traffic (the LLC in DC mode).
        coherent_cpu_cache: Option<NodeId>,
    },
    /// The CPU complex (driver model).
    Cpu {
        /// Core count/frequency/IPC.
        cfg: CpuConfig,
        /// First-level data cache.
        dcache: NodeId,
        /// Bus used for uncached (MMIO/NUMA) accesses.
        membus: NodeId,
        /// Address ranges accessed uncached.
        uncached: Vec<AddrRange>,
    },
    /// The SMMU, a bump-in-the-wire translator in front of `downstream`.
    Smmu {
        /// TLB/walker configuration.
        cfg: SmmuConfig,
        /// Where translated traffic (and page-table walks) go.
        downstream: NodeId,
    },
    /// One direction of a serializing PCIe link.
    PcieLink {
        /// Lanes, rate, credits.
        cfg: PcieLinkConfig,
        /// Receiving module.
        dst: NodeId,
    },
    /// One direction of a CXL-style flit link.
    FlitLink {
        /// Flit geometry and rate.
        cfg: FlitLinkConfig,
        /// Receiving module.
        dst: NodeId,
    },
    /// The PCIe root complex / CXL host bridge.
    RootComplex {
        /// Latency and credit accounting.
        cfg: RootComplexConfig,
        /// Host-side target of device-originated requests (SMMU or bus).
        host_target: NodeId,
        /// Downstream egress link.
        down_link: NodeId,
        /// Device ranges routed down the hierarchy.
        device_ranges: Vec<AddrRange>,
        /// Sideband range (MSI window) and its host-side target.
        sideband: Option<(AddrRange, NodeId)>,
        /// Modules on the PCIe side (switches, endpoints) for response
        /// routing.
        pcie_modules: Vec<NodeId>,
    },
    /// A store-and-forward PCIe switch.
    Switch {
        /// Per-TLP latency/occupancy.
        cfg: PcieSwitchConfig,
        /// Egress link toward the root.
        up_link: NodeId,
        /// Downstream ports (≤ [`MAX_SWITCH_FANOUT`], disjoint claims).
        ports: Vec<SwitchPortSpec>,
    },
    /// A device-side PCIe/CXL endpoint port.
    Endpoint {
        /// Tag pool and processing latency.
        cfg: PcieEndpointConfig,
        /// Egress link toward the root.
        up_link: NodeId,
        /// Where inward MMIO requests go (the accel controller).
        mmio_target: NodeId,
        /// The endpoint's BAR.
        bar: AddrRange,
        /// Extra inward routes (e.g. a device-memory window → its
        /// controller xbar).
        inward: Vec<(AddrRange, NodeId)>,
    },
    /// A multi-channel DMA engine.
    Dma {
        /// Channels and request size.
        cfg: DmaEngineConfig,
    },
    /// The accelerator wrapper (MatrixFlow array + controller).
    Accel {
        /// Array timing and blocking.
        cfg: AccelControllerConfig,
        /// The controller's DMA engine.
        dma: NodeId,
        /// The endpoint MSI writes leave through.
        ep: NodeId,
    },
}

/// Where one device's working set lives (resolved per endpoint, which is
/// what makes heterogeneous-memory topologies possible).
#[derive(Clone, Debug)]
pub enum DataPlacement {
    /// Host memory, reached through the device's endpoint.
    Host {
        /// Base address jobs are laid out at (virtual when `virt`).
        base: u64,
        /// Addresses are SMMU-translated virtual addresses.
        virt: bool,
    },
    /// Device-local memory next to the accelerator.
    Device {
        /// The local controller xbar DMA traffic targets.
        xbar: NodeId,
        /// Base address jobs are laid out at.
        base: u64,
    },
}

/// The role registry entry for one accelerator device: the triple the
/// workload drivers need to enqueue jobs, ring doorbells and collect
/// records.
#[derive(Clone, Debug)]
pub struct DeviceSpec {
    /// The [`NodeSpec::Accel`] controller.
    pub ctrl: NodeId,
    /// The [`NodeSpec::Dma`] engine.
    pub dma: NodeId,
    /// The [`NodeSpec::Endpoint`].
    pub ep: NodeId,
    /// Doorbell MMIO address the CPU writes to launch a job.
    pub doorbell: u64,
    /// Where this device's job data lives.
    pub data: DataPlacement,
}

#[derive(Clone, Debug)]
struct Node {
    name: String,
    spec: NodeSpec,
}

/// A declarative, validated description of a whole simulated system.
///
/// Build one with [`SystemConfig::topology`] (the Fig. 1 preset),
/// [`switch_tree`] (multi-level trees), or node by node with
/// [`TopologySpec::reserve`]/[`TopologySpec::add`] for custom shapes;
/// then hand it to [`crate::Simulation::from_topology`].
#[derive(Clone, Debug, Default)]
pub struct TopologySpec {
    nodes: Vec<Option<Node>>,
    cpu: Option<NodeId>,
    smmu: Option<NodeId>,
    devices: Vec<DeviceSpec>,
    devmem_act_base: Option<u64>,
}

/// Kernel-side handles of an instantiated topology.
#[derive(Clone, Debug)]
pub struct TopologyHandles {
    ids: Vec<ModuleId>,
    names: Vec<String>,
    /// The CPU complex driving workloads.
    pub cpu: ModuleId,
    /// The SMMU, when translation is part of the topology.
    pub smmu: Option<ModuleId>,
    /// Per-device handles, in device-registration order.
    pub devices: Vec<DeviceHandles>,
    /// Device-memory activation window for CPU-side Non-GEMM operators
    /// (see [`TopologySpec::set_devmem_act_base`]).
    pub devmem_act_base: Option<u64>,
}

/// Resolved per-device handles (see [`DeviceSpec`]).
#[derive(Clone, Debug)]
pub struct DeviceHandles {
    /// Accelerator controller module.
    pub ctrl: ModuleId,
    /// DMA engine module.
    pub dma: ModuleId,
    /// Endpoint module.
    pub ep: ModuleId,
    /// Doorbell MMIO address.
    pub doorbell: u64,
    /// Module DMA data traffic targets (endpoint or local xbar).
    pub data_target: ModuleId,
    /// Base address jobs are laid out at.
    pub data_base: u64,
    /// Whether job addresses are SMMU-translated.
    pub virt: bool,
    /// The controller's blocking configuration (job layout needs it).
    pub accel_cfg: AccelControllerConfig,
}

impl TopologyHandles {
    /// The kernel module a spec node became.
    pub fn module_id(&self, node: NodeId) -> ModuleId {
        self.ids[node.idx()]
    }

    /// Look a module up by its spec name.
    pub fn lookup(&self, name: &str) -> Option<ModuleId> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|i| self.ids[i])
    }
}

impl TopologySpec {
    /// An empty spec.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes (defined or reserved).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the spec has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Registered devices, in order.
    pub fn devices(&self) -> &[DeviceSpec] {
        &self.devices
    }

    /// Reserve a node slot so cyclic shapes can reference it before it
    /// is defined (mirrors the kernel's placeholder mechanism).
    pub fn reserve(&mut self) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(None);
        id
    }

    /// Define a reserved node.
    ///
    /// # Panics
    ///
    /// Panics if `id` was already defined — redefinition is always a
    /// builder bug.
    pub fn define(&mut self, id: NodeId, name: impl Into<String>, spec: NodeSpec) {
        let slot = &mut self.nodes[id.idx()];
        assert!(slot.is_none(), "node {id:?} defined twice");
        *slot = Some(Node {
            name: name.into(),
            spec,
        });
    }

    /// Reserve and define in one step (for acyclic references).
    pub fn add(&mut self, name: impl Into<String>, spec: NodeSpec) -> NodeId {
        let id = self.reserve();
        self.define(id, name, spec);
        id
    }

    /// Register the CPU complex node driving workloads.
    pub fn set_cpu(&mut self, id: NodeId) {
        self.cpu = Some(id);
    }

    /// Register the SMMU node (statistics collection).
    pub fn set_smmu(&mut self, id: NodeId) {
        self.smmu = Some(id);
    }

    /// Register an accelerator device (order defines the device index
    /// sharded workloads use).
    pub fn add_device(&mut self, device: DeviceSpec) {
        self.devices.push(device);
    }

    /// Declare where CPU-side Non-GEMM activations live when the
    /// workload runs out of device memory. Must be an address some
    /// switch port / endpoint actually claims: CPU streams to an
    /// unclaimed device-window address bounce between the root complex
    /// and the switch until the route stack overflows. Presets set this
    /// (the classic lowering uses [`addrmap::DEVMEM_ACT_BASE`] inside
    /// the monolithic window; trees use a claimed per-endpoint slice).
    pub fn set_devmem_act_base(&mut self, base: u64) {
        self.devmem_act_base = Some(base);
    }

    fn node(&self, id: NodeId) -> Option<&Node> {
        self.nodes.get(id.idx())?.as_ref()
    }

    fn err(msg: impl Into<String>) -> BuildError {
        BuildError::InvalidConfig(msg.into())
    }

    /// Every edge leaving `spec`, request edges and response-only edges
    /// alike (used for reachability).
    fn edges(spec: &NodeSpec) -> Vec<NodeId> {
        let mut out = Vec::new();
        match spec {
            NodeSpec::Memory { .. } | NodeSpec::Dma { .. } => {}
            NodeSpec::Xbar {
                default, routes, ..
            } => {
                out.push(*default);
                out.extend(routes.iter().map(|&(_, n)| n));
            }
            NodeSpec::Cache {
                downstream,
                coherent_cpu_cache,
                ..
            } => {
                out.push(*downstream);
                out.extend(coherent_cpu_cache.iter().copied());
            }
            NodeSpec::Cpu { dcache, membus, .. } => out.extend([*dcache, *membus]),
            NodeSpec::Smmu { downstream, .. } => out.push(*downstream),
            NodeSpec::PcieLink { dst, .. } | NodeSpec::FlitLink { dst, .. } => out.push(*dst),
            NodeSpec::RootComplex {
                host_target,
                down_link,
                sideband,
                pcie_modules,
                ..
            } => {
                out.extend([*host_target, *down_link]);
                out.extend(sideband.iter().map(|&(_, n)| n));
                out.extend(pcie_modules.iter().copied());
            }
            NodeSpec::Switch { up_link, ports, .. } => {
                out.push(*up_link);
                for p in ports {
                    out.extend([p.egress_link, p.downstream]);
                }
            }
            NodeSpec::Endpoint {
                up_link,
                mmio_target,
                inward,
                ..
            } => {
                out.extend([*up_link, *mmio_target]);
                out.extend(inward.iter().map(|&(_, n)| n));
            }
            NodeSpec::Accel { dma, ep, .. } => out.extend([*dma, *ep]),
        }
        out
    }

    /// Edges a request *in flight* follows when this node forwards it,
    /// for route-depth accounting. Terminal responders (memory, the CPU
    /// receiving an MSI, the controller receiving MMIO) forward nothing.
    /// Coherence probes and other fresh short-lived packets are excluded
    /// (their stacks start empty and stay shallower than the main path).
    fn forward_edges(&self, id: NodeId) -> Vec<NodeId> {
        let Some(node) = self.node(id) else {
            return Vec::new();
        };
        match &node.spec {
            NodeSpec::Memory { .. }
            | NodeSpec::Accel { .. }
            | NodeSpec::Cpu { .. }
            | NodeSpec::Dma { .. } => Vec::new(),
            NodeSpec::Cache { downstream, .. } => vec![*downstream],
            NodeSpec::Smmu { downstream, .. } => vec![*downstream],
            NodeSpec::PcieLink { dst, .. } | NodeSpec::FlitLink { dst, .. } => vec![*dst],
            NodeSpec::Xbar {
                default, routes, ..
            } => {
                let mut out = vec![*default];
                out.extend(routes.iter().map(|&(_, n)| n));
                out
            }
            NodeSpec::RootComplex {
                host_target,
                down_link,
                sideband,
                ..
            } => {
                let mut out = vec![*host_target, *down_link];
                out.extend(sideband.iter().map(|&(_, n)| n));
                out
            }
            NodeSpec::Switch { up_link, ports, .. } => {
                let mut out = vec![*up_link];
                out.extend(ports.iter().map(|p| p.egress_link));
                out
            }
            NodeSpec::Endpoint {
                up_link,
                mmio_target,
                inward,
                ..
            } => {
                let mut out = vec![*up_link, *mmio_target];
                out.extend(inward.iter().map(|&(_, n)| n));
                out
            }
        }
    }

    /// Whether a request *passing through* this node pushes a route-stack
    /// hop. Forwarders push; links do not; the CPU and DMA engines push
    /// only as request *origins*, which [`TopologySpec::max_request_depth`]
    /// accounts for separately (a request arriving at them terminates).
    fn pushes(spec: &NodeSpec) -> bool {
        matches!(
            spec,
            NodeSpec::Xbar { .. }
                | NodeSpec::Cache { .. }
                | NodeSpec::Smmu { .. }
                | NodeSpec::RootComplex { .. }
                | NodeSpec::Switch { .. }
                | NodeSpec::Endpoint { .. }
        )
    }

    /// Longest chain of route-stack pushes for a request entering at
    /// `id`, counting `id` itself. Back-edges to nodes already on the
    /// path are skipped: real routing never loops, so a cycle in the
    /// kind-level graph is always a spurious path.
    fn longest_from(&self, id: NodeId, on_path: &mut [bool]) -> usize {
        if id.idx() >= on_path.len() || on_path[id.idx()] {
            return 0;
        }
        let here = self
            .node(id)
            .map(|n| Self::pushes(&n.spec))
            .unwrap_or(false) as usize;
        on_path[id.idx()] = true;
        let mut best = 0;
        for s in self.forward_edges(id) {
            best = best.max(self.longest_from(s, on_path));
        }
        on_path[id.idx()] = false;
        here + best
    }

    /// The route-stack depth of the deepest request path in the graph,
    /// counted in pushes from every traffic origin: the CPU (loads and
    /// MMIO), each device's DMA engine (data traffic to its configured
    /// placement) and controller (MSI writes through the endpoint), and
    /// the SMMU's page-table walker. [`TopologySpec::validate`] rejects
    /// specs where this exceeds [`MAX_ROUTE_DEPTH`].
    pub fn max_request_depth(&self) -> usize {
        let mut on_path = vec![false; self.nodes.len()];
        let mut best = 0;
        // CPU-originated loads and uncached MMIO/NUMA accesses.
        if let Some(cpu) = self.cpu {
            if let Some(NodeSpec::Cpu { dcache, membus, .. }) = self.node(cpu).map(|n| &n.spec) {
                let (dcache, membus) = (*dcache, *membus);
                on_path[cpu.idx()] = true;
                let via = 1 + self
                    .longest_from(dcache, &mut on_path)
                    .max(self.longest_from(membus, &mut on_path));
                on_path[cpu.idx()] = false;
                best = best.max(via);
            }
        }
        // SMMU page-table walks (fresh packets starting at the SMMU).
        if let Some(smmu) = self.smmu {
            best = best.max(self.longest_from(smmu, &mut on_path));
        }
        // Device-originated traffic: DMA data requests to the device's
        // data target, and controller MSI writes entering the endpoint.
        for d in &self.devices {
            let target = match d.data {
                DataPlacement::Host { .. } => d.ep,
                DataPlacement::Device { xbar, .. } => xbar,
            };
            on_path[d.dma.idx()] = true;
            let dma_path = 1 + self.longest_from(target, &mut on_path);
            on_path[d.dma.idx()] = false;
            best = best.max(dma_path);
            best = best.max(self.longest_from(d.ep, &mut on_path));
        }
        best
    }

    /// Check the spec for structural errors (see the module docs for the
    /// full rule list).
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::InvalidConfig`] naming the offending node,
    /// or [`BuildError::RouteDepthExceeded`] for too-deep request paths.
    pub fn validate(&self) -> Result<(), BuildError> {
        if self.nodes.is_empty() {
            return Err(Self::err("topology has no nodes"));
        }
        // Holes and dangling edges.
        for (i, slot) in self.nodes.iter().enumerate() {
            let Some(node) = slot else {
                return Err(Self::err(format!(
                    "node {i} was reserved but never defined"
                )));
            };
            for edge in Self::edges(&node.spec) {
                if self.node(edge).is_none() {
                    return Err(Self::err(format!(
                        "node {:?} ({}) references undefined node {edge:?}",
                        NodeId(i as u32),
                        node.name
                    )));
                }
            }
        }
        // Unique names.
        let mut names: Vec<&str> = self
            .nodes
            .iter()
            .flatten()
            .map(|n| n.name.as_str())
            .collect();
        names.sort_unstable();
        if let Some(dup) = names.windows(2).find(|w| w[0] == w[1]) {
            return Err(Self::err(format!("duplicate module name {:?}", dup[0])));
        }
        // Role registry.
        let cpu = self.cpu.ok_or_else(|| Self::err("no CPU registered"))?;
        if !matches!(self.node(cpu).map(|n| &n.spec), Some(NodeSpec::Cpu { .. })) {
            return Err(Self::err("registered CPU node is not a Cpu spec"));
        }
        if self.devices.is_empty() {
            return Err(Self::err("no accelerator devices registered"));
        }
        for (i, d) in self.devices.iter().enumerate() {
            let kinds = [(d.ctrl, "Accel"), (d.dma, "Dma"), (d.ep, "Endpoint")];
            for (id, want) in kinds {
                let spec = self.node(id).map(|n| &n.spec);
                let ok = matches!(
                    (want, spec),
                    ("Accel", Some(NodeSpec::Accel { .. }))
                        | ("Dma", Some(NodeSpec::Dma { .. }))
                        | ("Endpoint", Some(NodeSpec::Endpoint { .. }))
                );
                if !ok {
                    return Err(Self::err(format!(
                        "device {i}: role {want} points at a different node kind"
                    )));
                }
            }
            if let DataPlacement::Device { xbar, .. } = d.data {
                if !matches!(
                    self.node(xbar).map(|n| &n.spec),
                    Some(NodeSpec::Xbar { .. })
                ) {
                    return Err(Self::err(format!(
                        "device {i}: data placement xbar is not an Xbar node"
                    )));
                }
            }
        }
        // Per-node structural rules.
        let mut bars: Vec<(AddrRange, &str)> = Vec::new();
        for node in self.nodes.iter().flatten() {
            match &node.spec {
                NodeSpec::Switch { ports, .. } => {
                    if ports.len() > MAX_SWITCH_FANOUT {
                        return Err(Self::err(format!(
                            "switch {} has {} ports (fan-out limit {MAX_SWITCH_FANOUT})",
                            node.name,
                            ports.len()
                        )));
                    }
                    for (a, pa) in ports.iter().enumerate() {
                        for pb in ports.iter().skip(a + 1) {
                            for ra in &pa.ranges {
                                for rb in &pb.ranges {
                                    if ra.overlaps(rb) {
                                        return Err(Self::err(format!(
                                            "switch {}: sibling port claims {ra} and {rb} overlap",
                                            node.name
                                        )));
                                    }
                                }
                            }
                        }
                    }
                }
                NodeSpec::Endpoint { bar, .. } => {
                    for (other, name) in &bars {
                        if bar.overlaps(other) {
                            return Err(Self::err(format!(
                                "endpoint {} BAR {bar} overlaps {name}'s {other}",
                                node.name
                            )));
                        }
                    }
                    bars.push((*bar, &node.name));
                }
                NodeSpec::Xbar { routes, .. } => {
                    for (a, (ra, _)) in routes.iter().enumerate() {
                        for (rb, _) in routes.iter().skip(a + 1) {
                            if ra.overlaps(rb) {
                                return Err(Self::err(format!(
                                    "xbar {}: routes {ra} and {rb} overlap",
                                    node.name
                                )));
                            }
                        }
                    }
                }
                _ => {}
            }
        }
        // Route depth.
        let depth = self.max_request_depth();
        if depth > MAX_ROUTE_DEPTH {
            return Err(BuildError::RouteDepthExceeded {
                depth,
                max: MAX_ROUTE_DEPTH,
            });
        }
        // Reachability from traffic origins.
        let mut reached = vec![false; self.nodes.len()];
        let mut stack: Vec<NodeId> = Vec::new();
        stack.extend(self.cpu);
        stack.extend(self.smmu);
        stack.extend(self.devices.iter().flat_map(|d| [d.ctrl, d.dma]));
        for d in &self.devices {
            if let DataPlacement::Device { xbar, .. } = d.data {
                stack.push(xbar);
            }
        }
        while let Some(id) = stack.pop() {
            if reached[id.idx()] {
                continue;
            }
            reached[id.idx()] = true;
            if let Some(node) = self.node(id) {
                stack.extend(Self::edges(&node.spec));
            }
        }
        if let Some(i) = reached.iter().position(|&r| !r) {
            let name = &self.nodes[i].as_ref().expect("validated above").name;
            return Err(Self::err(format!(
                "node {name} is unreachable from any traffic origin"
            )));
        }
        Ok(())
    }

    /// Instantiate the spec into `kernel`: validate, reserve one
    /// placeholder per node (cyclic edges resolve through them), then
    /// construct and install every module in node order.
    ///
    /// # Errors
    ///
    /// Returns any [`TopologySpec::validate`] error; a validated spec
    /// always instantiates.
    pub fn instantiate(&self, kernel: &mut Kernel) -> Result<TopologyHandles, BuildError> {
        self.validate()?;
        let ids: Vec<ModuleId> = self
            .nodes
            .iter()
            .map(|_| kernel.add_placeholder())
            .collect();
        let at = |n: NodeId| ids[n.idx()];
        for (i, node) in self.nodes.iter().enumerate() {
            let node = node.as_ref().expect("validated: no holes");
            let name = node.name.as_str();
            let module: Box<dyn Module> = match &node.spec {
                NodeSpec::Memory { cfg } => make_mem(name, cfg),
                NodeSpec::Xbar {
                    cfg,
                    default,
                    routes,
                } => {
                    let mut bus = Xbar::new(name, *cfg, at(*default));
                    for &(range, dst) in routes {
                        bus.add_route(range, at(dst));
                    }
                    Box::new(bus)
                }
                NodeSpec::Cache {
                    cfg,
                    downstream,
                    coherent_cpu_cache,
                } => {
                    let mut cache = Cache::new(name, *cfg, at(*downstream));
                    if let Some(cpu_cache) = coherent_cpu_cache {
                        cache = cache.with_coherence(CoherentConfig {
                            cpu_cache: at(*cpu_cache),
                            io_stream_base: streams::IO_BASE,
                        });
                    }
                    Box::new(cache)
                }
                NodeSpec::Cpu {
                    cfg,
                    dcache,
                    membus,
                    uncached,
                } => {
                    let mut cpu = CpuComplex::new(name, *cfg, at(*dcache), at(*membus));
                    for r in uncached {
                        cpu.add_uncached_range(r.base, r.size);
                    }
                    Box::new(cpu)
                }
                NodeSpec::Smmu { cfg, downstream } => {
                    Box::new(Smmu::new(name, *cfg, at(*downstream)))
                }
                NodeSpec::PcieLink { cfg, dst } => Box::new(PcieLink::new(name, *cfg, at(*dst))),
                NodeSpec::FlitLink { cfg, dst } => Box::new(FlitLink::new(name, *cfg, at(*dst))),
                NodeSpec::RootComplex {
                    cfg,
                    host_target,
                    down_link,
                    device_ranges,
                    sideband,
                    pcie_modules,
                } => {
                    let mut rc = RootComplex::new(name, *cfg, at(*host_target), at(*down_link));
                    for &r in device_ranges {
                        rc.add_device_range(r);
                    }
                    if let Some((range, target)) = sideband {
                        rc.add_sideband(*range, at(*target));
                    }
                    for &m in pcie_modules {
                        rc.add_pcie_module(at(m));
                    }
                    Box::new(rc)
                }
                NodeSpec::Switch {
                    cfg,
                    up_link,
                    ports,
                } => {
                    let mut sw = PcieSwitch::new(name, *cfg, at(*up_link));
                    for p in ports {
                        sw.add_port(SwitchPort {
                            egress_link: at(p.egress_link),
                            endpoint: at(p.downstream),
                            ranges: p.ranges.clone(),
                        });
                    }
                    Box::new(sw)
                }
                NodeSpec::Endpoint {
                    cfg,
                    up_link,
                    mmio_target,
                    bar,
                    inward,
                } => {
                    let mut ep =
                        PcieEndpoint::new(name, *cfg, at(*up_link), at(*mmio_target), *bar);
                    for &(range, target) in inward {
                        ep.add_inward_route(range, at(target));
                    }
                    Box::new(ep)
                }
                NodeSpec::Dma { cfg } => Box::new(DmaEngine::new(name, *cfg)),
                NodeSpec::Accel { cfg, dma, ep } => {
                    Box::new(AccelController::new(name, *cfg, at(*dma), at(*ep)))
                }
            };
            kernel.set_module(ids[i], module);
        }
        let devices = self
            .devices
            .iter()
            .map(|d| {
                let accel_cfg = match &self.node(d.ctrl).expect("validated").spec {
                    NodeSpec::Accel { cfg, .. } => *cfg,
                    _ => unreachable!("validated: ctrl is an Accel node"),
                };
                let (data_target, data_base, virt) = match d.data {
                    DataPlacement::Host { base, virt } => (at(d.ep), base, virt),
                    DataPlacement::Device { xbar, base } => (at(xbar), base, false),
                };
                DeviceHandles {
                    ctrl: at(d.ctrl),
                    dma: at(d.dma),
                    ep: at(d.ep),
                    doorbell: d.doorbell,
                    data_target,
                    data_base,
                    virt,
                    accel_cfg,
                }
            })
            .collect();
        Ok(TopologyHandles {
            names: self
                .nodes
                .iter()
                .map(|n| n.as_ref().expect("validated").name.clone())
                .collect(),
            cpu: at(self.cpu.expect("validated: cpu registered")),
            smmu: self.smmu.map(at),
            devices,
            devmem_act_base: self.devmem_act_base,
            ids,
        })
    }
}

fn make_mem(name: &str, cfg: &MemBackendConfig) -> Box<dyn Module> {
    match cfg {
        MemBackendConfig::Simple(c) => Box::new(SimpleMemory::new(name, *c)),
        MemBackendConfig::Dram(t) => Box::new(Dram::new(name, t.dram_config())),
    }
}

/// Per-device data-window stride inside the host data window (64 MiB
/// slices so concurrent shards never alias rows).
const HOST_DATA_STRIDE: u64 = 0x0400_0000;

/// The DevMem controller frontend used in front of device memories.
const DEVMEM_XBAR: XbarConfig = XbarConfig {
    width_bytes: 64,
    freq_ghz: 2.0,
    latency_ns: 15.0,
};

impl SystemConfig {
    /// Lower this configuration to the topology IR: the paper's Fig. 1
    /// shape (single root complex, one switch, one endpoint with its DMA
    /// engine and accelerator controller; or a point-to-point CXL link)
    /// as one preset of the general engine. A multi-accelerator system
    /// is a [`switch_tree`].
    ///
    /// Node order, names and wiring reproduce the original hand-wired
    /// builder exactly, so a lowered [`SystemConfig::paper_baseline`]
    /// simulates byte-identically.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::InvalidConfig`] when
    /// [`SystemConfig::validate`] rejects the configuration.
    pub fn topology(&self) -> Result<TopologySpec, BuildError> {
        self.validate()?;
        let cfg = self;
        let dc = cfg.access_mode == AccessMode::DirectCache;
        let has_dev = cfg.dev_mem.is_some();
        let cxl = cfg.interconnect == InterconnectKind::Cxl;
        let mut t = TopologySpec::new();

        // Reserve every slot in the canonical order (the graph is cyclic).
        let host_mem = t.reserve();
        let membus = t.reserve();
        let llc = t.reserve();
        let l1d = t.reserve();
        let iocache = dc.then(|| t.reserve());
        let cpu = t.reserve();
        let smmu = cfg.smmu.is_some().then(|| t.reserve());
        let rc = t.reserve();
        let switch = (!cxl).then(|| t.reserve());
        let link_rc_down = t.reserve();
        let link_sw_up = (!cxl).then(|| t.reserve());
        let link_sw_down = (!cxl).then(|| t.reserve());
        let link_ep_up = t.reserve();
        let ep = t.reserve();
        let dma = t.reserve();
        let ctrl = t.reserve();
        let devmem_xbar = has_dev.then(|| t.reserve());
        let dev_mem = has_dev.then(|| t.reserve());

        // Memory backends.
        t.define(host_mem, "host_mem", NodeSpec::Memory { cfg: cfg.host_mem });
        if let (Some(id), Some(mem_cfg)) = (dev_mem, cfg.dev_mem.as_ref()) {
            t.define(id, "dev_mem", NodeSpec::Memory { cfg: *mem_cfg });
        }

        // MemBus: MSI → CPU, device windows → RC, rest → memory ctrl.
        let mut routes = vec![(addrmap::MSI, cpu), (addrmap::DEVICE_BAR, rc)];
        if has_dev {
            routes.push((addrmap::DEVMEM, rc));
        }
        t.define(
            membus,
            "membus",
            NodeSpec::Xbar {
                cfg: cfg.membus,
                default: host_mem,
                routes,
            },
        );

        // Cache hierarchy + SMMU (shared with the tree preset).
        let rc_host_target = define_host_caches(&mut t, cfg, membus, llc, l1d, iocache, smmu);

        // Links, and the switch between them (PCIe only).
        if let (Some(sw), Some(sw_up), Some(sw_down)) = (switch, link_sw_up, link_sw_down) {
            let link = |dst| NodeSpec::PcieLink {
                cfg: cfg.pcie.link,
                dst,
            };
            t.define(link_rc_down, "link.rc_down", link(sw));
            t.define(sw_up, "link.sw_up", link(rc));
            t.define(sw_down, "link.sw_down0", link(ep));
            t.define(link_ep_up, "link.ep_up0", link(sw));
            let mut ranges = vec![addrmap::device_bar(0)];
            if has_dev {
                ranges.push(addrmap::DEVMEM);
            }
            t.define(
                sw,
                "pcie.switch",
                NodeSpec::Switch {
                    cfg: cfg.pcie.switch,
                    up_link: sw_up,
                    ports: vec![SwitchPortSpec {
                        egress_link: sw_down,
                        downstream: ep,
                        ranges,
                    }],
                },
            );
        } else {
            let link = |dst| NodeSpec::FlitLink {
                cfg: cfg.cxl_link,
                dst,
            };
            t.define(link_rc_down, "cxl.down", link(ep));
            t.define(link_ep_up, "cxl.up", link(rc));
        }

        // Root complex (PCIe) / host bridge (CXL).
        let rc_cfg = if cxl {
            RootComplexConfig {
                max_payload_bytes: cfg.pcie.rc.max_payload_bytes,
                ..RootComplexConfig::cxl_host_bridge()
            }
        } else {
            cfg.pcie.rc
        };
        let mut device_ranges = vec![addrmap::DEVICE_BAR];
        if has_dev {
            device_ranges.push(addrmap::DEVMEM);
        }
        t.define(
            rc,
            if cxl { "cxl.bridge" } else { "pcie.rc" },
            NodeSpec::RootComplex {
                cfg: rc_cfg,
                host_target: rc_host_target,
                down_link: link_rc_down,
                device_ranges,
                sideband: Some((addrmap::MSI, membus)),
                pcie_modules: switch.into_iter().chain([ep]).collect(),
            },
        );

        // Endpoint: MMIO to the controller, NUMA window to DevMem.
        let (ep_cfg, ep_name) = if cxl {
            let ep_cfg = PcieEndpointConfig {
                tags: cfg.pcie.ep.tags,
                proc_ns: cfg.pcie.ep.proc_ns,
                ..PcieEndpointConfig::cxl()
            };
            (ep_cfg, "cxl.ep")
        } else {
            (cfg.pcie.ep, "pcie.ep0")
        };
        t.define(
            ep,
            ep_name,
            NodeSpec::Endpoint {
                cfg: ep_cfg,
                up_link: link_ep_up,
                mmio_target: ctrl,
                bar: addrmap::device_bar(0),
                inward: devmem_xbar
                    .map(|x| (addrmap::DEVMEM, x))
                    .into_iter()
                    .collect(),
            },
        );

        // DevMem controller frontend.
        if let (Some(xbar), Some(mem)) = (devmem_xbar, dev_mem) {
            t.define(
                xbar,
                "devmem_ctrl",
                NodeSpec::Xbar {
                    cfg: DEVMEM_XBAR,
                    default: mem,
                    routes: Vec::new(),
                },
            );
        }

        // DMA engine + accelerator controller.
        t.define(dma, "dma0", NodeSpec::Dma { cfg: cfg.dma });
        t.define(
            ctrl,
            "accel0",
            NodeSpec::Accel {
                cfg: cfg.accel,
                dma,
                ep,
            },
        );

        // CPU cluster.
        let mut uncached = vec![addrmap::DEVICE_BAR];
        if has_dev {
            uncached.push(addrmap::DEVMEM);
        }
        t.define(
            cpu,
            "cpu",
            NodeSpec::Cpu {
                cfg: cfg.cpu,
                dcache: l1d,
                membus,
                uncached,
            },
        );

        // Roles.
        t.set_cpu(cpu);
        if let Some(id) = smmu {
            t.set_smmu(id);
        }
        if has_dev {
            // The monolithic DEVMEM window is claimed whole by the
            // endpoint's port, so the classic activation base is routable.
            t.set_devmem_act_base(addrmap::DEVMEM_ACT_BASE);
        }
        let data = match cfg.mem_location {
            MemoryLocation::Host => DataPlacement::Host {
                base: if cfg.smmu.is_some() {
                    addrmap::ACCEL_VA_BASE
                } else {
                    addrmap::DATA_PA_BASE
                },
                virt: cfg.smmu.is_some(),
            },
            MemoryLocation::Device => DataPlacement::Device {
                xbar: devmem_xbar.expect("validated: devmem present"),
                base: addrmap::DEVMEM.base,
            },
        };
        t.add_device(DeviceSpec {
            ctrl,
            dma,
            ep,
            doorbell: addrmap::doorbell(0),
            data,
        });
        Ok(t)
    }
}

/// A multi-level PCIe switch tree: `levels[l]` is the fan-out of every
/// switch at level `l`, so the tree has `levels.len()` switch levels and
/// `levels.iter().product()` endpoints, each with its own DMA engine and
/// accelerator. Switch ports claim the aggregated BAR ranges of their
/// whole subtree (see [`aggregate_ranges`]).
///
/// The host side (memory, caches, CPU, SMMU, root complex) comes from
/// `cfg`, as do link/switch/endpoint/DMA/accel configurations. When
/// `cfg.mem_location` is [`MemoryLocation::Device`], every endpoint gets
/// local memory from `cfg.dev_mem`.
///
/// ```
/// use accesys::{topology, Simulation, SystemConfig};
/// use accesys_workload::GemmSpec;
///
/// # fn main() -> Result<(), accesys::Error> {
/// // Depth-2 tree: 2 switches under the root, 4 endpoints each.
/// let cfg = SystemConfig::paper_baseline();
/// let spec = topology::switch_tree(&cfg, &[2, 4])?;
/// let mut sim = Simulation::from_topology(cfg, &spec)?;
/// assert_eq!(sim.accel_count(), 8);
/// let report = sim.run_gemm_sharded(GemmSpec::square(64))?;
/// assert_eq!(report.jobs.len(), 8);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Returns [`BuildError::InvalidConfig`] for CXL configurations (the
/// flit link is point-to-point), empty/zero levels, or an endpoint count
/// outside the BAR carving ([`addrmap::check_accel_count`]); and
/// [`BuildError::RouteDepthExceeded`] when the tree is too deep for the
/// route stack.
pub fn switch_tree(cfg: &SystemConfig, levels: &[u32]) -> Result<TopologySpec, BuildError> {
    switch_tree_with(cfg, levels, |_| None)
}

/// [`switch_tree`] with per-endpoint memory placement: `dev_mem(i)`
/// gives leaf `i` (left to right) local device memory, placing its jobs
/// in its [`addrmap::devmem_slice`]. A leaf for which it returns `None`
/// falls back to [`switch_tree`]'s rule. Every leaf's accelerator uses
/// `cfg.accel`.
///
/// # Errors
///
/// As [`switch_tree`].
pub fn switch_tree_with(
    cfg: &SystemConfig,
    levels: &[u32],
    dev_mem: impl Fn(usize) -> Option<MemBackendConfig>,
) -> Result<TopologySpec, BuildError> {
    cfg.validate()?;
    if cfg.interconnect == InterconnectKind::Cxl {
        return Err(TopologySpec::err(
            "switch trees are PCIe topologies; the CXL flit link is point-to-point",
        ));
    }
    if levels.is_empty() || levels.contains(&0) {
        return Err(TopologySpec::err(
            "switch tree needs at least one level of non-zero fan-out",
        ));
    }
    // Checked product: a wrapped multiply could sneak a huge tree past
    // the carving bound (and debug builds would panic instead of
    // returning a typed error).
    let endpoints = levels
        .iter()
        .try_fold(1u64, |acc, &f| acc.checked_mul(u64::from(f)))
        .unwrap_or(u64::MAX);
    let endpoints = usize::try_from(endpoints).unwrap_or(usize::MAX);
    addrmap::check_accel_count(endpoints)?;

    let mut t = TopologySpec::new();
    let host = host_side_nodes(&mut t, cfg);

    // Build the switch tree under the root complex.
    let mut builder = TreeBuilder {
        t: &mut t,
        cfg,
        dev_mem: &dev_mem,
        next_ep: 0,
        pcie_modules: Vec::new(),
        any_devmem: false,
        act_base: None,
    };
    let root = builder.switch(levels, "0", host.rc)?;
    let any_devmem = builder.any_devmem;
    let pcie_modules = builder.pcie_modules;
    if let Some(base) = builder.act_base {
        // CPU-side activations must live in a *claimed* slice: the
        // monolithic DEVMEM_ACT_BASE falls outside every per-endpoint
        // slice for trees with few leaves, and an unclaimed device
        // address bounces between RC and switch until the route stack
        // overflows.
        t.set_devmem_act_base(base);
    }

    t.define(
        host.link_rc_down,
        "link.rc_down",
        NodeSpec::PcieLink {
            cfg: cfg.pcie.link,
            dst: root,
        },
    );
    let mut device_ranges = vec![addrmap::DEVICE_BAR];
    if any_devmem {
        device_ranges.push(addrmap::DEVMEM);
    }
    t.define(
        host.rc,
        "pcie.rc",
        NodeSpec::RootComplex {
            cfg: cfg.pcie.rc,
            host_target: host.rc_host_target,
            down_link: host.link_rc_down,
            device_ranges,
            sideband: Some((addrmap::MSI, host.membus)),
            pcie_modules,
        },
    );
    let mut routes = vec![(addrmap::MSI, host.cpu), (addrmap::DEVICE_BAR, host.rc)];
    if any_devmem {
        routes.push((addrmap::DEVMEM, host.rc));
    }
    t.define(
        host.membus,
        "membus",
        NodeSpec::Xbar {
            cfg: cfg.membus,
            default: host.host_mem,
            routes,
        },
    );
    let mut uncached = vec![addrmap::DEVICE_BAR];
    if any_devmem {
        uncached.push(addrmap::DEVMEM);
    }
    t.define(
        host.cpu,
        "cpu",
        NodeSpec::Cpu {
            cfg: cfg.cpu,
            dcache: host.l1d,
            membus: host.membus,
            uncached,
        },
    );
    t.validate()?;
    Ok(t)
}

/// Host-side nodes shared by the tree preset. `membus`, `cpu`, `rc` and
/// `link_rc_down` are reserved only — the caller defines them once the
/// device side (and therefore the routed ranges) is known.
struct TreeHostSide {
    host_mem: NodeId,
    membus: NodeId,
    l1d: NodeId,
    cpu: NodeId,
    rc: NodeId,
    rc_host_target: NodeId,
    link_rc_down: NodeId,
}

fn host_side_nodes(t: &mut TopologySpec, cfg: &SystemConfig) -> TreeHostSide {
    let dc = cfg.access_mode == AccessMode::DirectCache;
    let host_mem = t.reserve();
    let membus = t.reserve();
    let llc = t.reserve();
    let l1d = t.reserve();
    let iocache = dc.then(|| t.reserve());
    let cpu = t.reserve();
    let smmu = cfg.smmu.is_some().then(|| t.reserve());
    let rc = t.reserve();
    let link_rc_down = t.reserve();

    t.define(host_mem, "host_mem", NodeSpec::Memory { cfg: cfg.host_mem });
    let rc_host_target = define_host_caches(t, cfg, membus, llc, l1d, iocache, smmu);
    if let Some(id) = smmu {
        t.set_smmu(id);
    }
    t.set_cpu(cpu);
    TreeHostSide {
        host_mem,
        membus,
        l1d,
        cpu,
        rc,
        rc_host_target,
        link_rc_down,
    }
}

/// Define the cache hierarchy and SMMU into their reserved slots — the
/// host-side spine shared verbatim by the classic lowering and the tree
/// preset. Returns the node device-originated traffic enters after the
/// root complex (SMMU, IOCache or MemBus).
fn define_host_caches(
    t: &mut TopologySpec,
    cfg: &SystemConfig,
    membus: NodeId,
    llc: NodeId,
    l1d: NodeId,
    iocache: Option<NodeId>,
    smmu: Option<NodeId>,
) -> NodeId {
    let dc = cfg.access_mode == AccessMode::DirectCache;
    t.define(
        llc,
        "llc",
        NodeSpec::Cache {
            cfg: cfg.llc,
            downstream: membus,
            coherent_cpu_cache: (cfg.coherent && dc).then_some(l1d),
        },
    );
    t.define(
        l1d,
        "l1d",
        NodeSpec::Cache {
            cfg: cfg.l1d,
            downstream: llc,
            coherent_cpu_cache: None,
        },
    );
    if let Some(id) = iocache {
        t.define(
            id,
            "iocache",
            NodeSpec::Cache {
                cfg: cfg.iocache,
                downstream: llc,
                coherent_cpu_cache: None,
            },
        );
    }
    let io_entry = iocache.unwrap_or(membus);
    if let (Some(id), Some(smmu_cfg)) = (smmu, cfg.smmu.as_ref()) {
        t.define(
            id,
            "smmu",
            NodeSpec::Smmu {
                cfg: *smmu_cfg,
                downstream: io_entry,
            },
        );
    }
    smmu.unwrap_or(io_entry)
}

struct TreeBuilder<'a, F: Fn(usize) -> Option<MemBackendConfig>> {
    t: &'a mut TopologySpec,
    cfg: &'a SystemConfig,
    dev_mem: &'a F,
    next_ep: usize,
    pcie_modules: Vec<NodeId>,
    any_devmem: bool,
    /// Activation window inside the first local-memory endpoint's slice.
    act_base: Option<u64>,
}

/// Offset of the CPU activation window inside a device-memory slice —
/// past the job data regions at the slice base, leaving room for the
/// streamed write window at `+0x0800_0000` within the 256 MiB slice.
const TREE_ACT_OFFSET: u64 = 0x0400_0000;

impl<F: Fn(usize) -> Option<MemBackendConfig>> TreeBuilder<'_, F> {
    /// Build the switch at `path` and its whole subtree; returns the
    /// switch node. The caller wires the parent egress link to it.
    /// `up_target` is the module above (parent switch or root complex).
    fn switch(
        &mut self,
        levels: &[u32],
        path: &str,
        up_target: NodeId,
    ) -> Result<NodeId, BuildError> {
        let (fanout, rest) = levels.split_first().expect("levels checked non-empty");
        let sw = self.t.reserve();
        self.pcie_modules.push(sw);
        let up_link = self.t.add(
            format!("link.sw{path}.up"),
            NodeSpec::PcieLink {
                cfg: self.cfg.pcie.link,
                dst: up_target,
            },
        );
        let mut ports = Vec::new();
        for j in 0..*fanout as usize {
            let child_path = format!("{path}.{j}");
            let (downstream, ranges) = if rest.is_empty() {
                self.endpoint(sw)?
            } else {
                let child = self.switch(rest, &child_path, sw)?;
                (child, self.subtree_ranges(child))
            };
            let egress = self.t.add(
                format!("link.sw{path}.down{j}"),
                NodeSpec::PcieLink {
                    cfg: self.cfg.pcie.link,
                    dst: downstream,
                },
            );
            ports.push(SwitchPortSpec {
                egress_link: egress,
                downstream,
                ranges: aggregate_ranges(ranges),
            });
        }
        self.t.define(
            sw,
            format!("pcie.sw{path}"),
            NodeSpec::Switch {
                cfg: self.cfg.pcie.switch,
                up_link,
                ports,
            },
        );
        Ok(sw)
    }

    /// The aggregated claims of an already-built child switch.
    fn subtree_ranges(&self, child: NodeId) -> Vec<AddrRange> {
        match &self.t.node(child).expect("child defined").spec {
            NodeSpec::Switch { ports, .. } => ports
                .iter()
                .flat_map(|p| p.ranges.iter().copied())
                .collect(),
            _ => unreachable!("subtree_ranges is only called on switches"),
        }
    }

    /// Build leaf endpoint `self.next_ep` under switch `sw`; returns the
    /// endpoint node and the ranges it claims.
    fn endpoint(&mut self, sw: NodeId) -> Result<(NodeId, Vec<AddrRange>), BuildError> {
        let i = self.next_ep;
        self.next_ep += 1;
        let dev_mem = (self.dev_mem)(i).or_else(|| {
            (self.cfg.mem_location == MemoryLocation::Device)
                .then_some(self.cfg.dev_mem)
                .flatten()
        });
        let bar = addrmap::device_bar(i);

        let ep = self.t.reserve();
        self.pcie_modules.push(ep);
        let up_link = self.t.add(
            format!("link.ep{i}.up"),
            NodeSpec::PcieLink {
                cfg: self.cfg.pcie.link,
                dst: sw,
            },
        );
        let dma = self
            .t
            .add(format!("dma{i}"), NodeSpec::Dma { cfg: self.cfg.dma });
        let ctrl = self.t.add(
            format!("accel{i}"),
            NodeSpec::Accel {
                cfg: self.cfg.accel,
                dma,
                ep,
            },
        );
        let mut ranges = vec![bar];
        let mut inward = Vec::new();
        let data = if let Some(mem_cfg) = dev_mem {
            self.any_devmem = true;
            let slice = addrmap::devmem_slice(i);
            if self.act_base.is_none() {
                self.act_base = Some(slice.base + TREE_ACT_OFFSET);
            }
            let mem = self
                .t
                .add(format!("dev_mem{i}"), NodeSpec::Memory { cfg: mem_cfg });
            let xbar = self.t.add(
                format!("devmem_ctrl{i}"),
                NodeSpec::Xbar {
                    cfg: DEVMEM_XBAR,
                    default: mem,
                    routes: Vec::new(),
                },
            );
            ranges.push(slice);
            inward.push((slice, xbar));
            DataPlacement::Device {
                xbar,
                base: slice.base,
            }
        } else {
            DataPlacement::Host {
                base: if self.cfg.smmu.is_some() {
                    addrmap::ACCEL_VA_BASE + i as u64 * HOST_DATA_STRIDE
                } else {
                    addrmap::DATA_PA_BASE + i as u64 * HOST_DATA_STRIDE
                },
                virt: self.cfg.smmu.is_some(),
            }
        };
        self.t.define(
            ep,
            format!("pcie.ep{i}"),
            NodeSpec::Endpoint {
                cfg: self.cfg.pcie.ep,
                up_link,
                mmio_target: ctrl,
                bar,
                inward,
            },
        );
        self.t.add_device(DeviceSpec {
            ctrl,
            dma,
            ep,
            doorbell: addrmap::doorbell(i),
            data,
        });
        Ok((ep, ranges))
    }
}

// The parallel sweep engine builds specs inside worker closures.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<TopologySpec>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use accesys_mem::MemTech;

    #[test]
    fn baseline_lowering_validates_and_instantiates() {
        let cfg = SystemConfig::paper_baseline();
        let spec = cfg.topology().unwrap();
        spec.validate().unwrap();
        let mut kernel = Kernel::new();
        let handles = spec.instantiate(&mut kernel).unwrap();
        assert_eq!(kernel.module_count(), spec.len());
        assert_eq!(handles.devices.len(), 1);
        assert_eq!(
            handles.lookup("pcie.rc"),
            Some(handles.module_id(NodeId(7)))
        );
        // No placeholder holes: every module reports under its real name.
        let stats = kernel.stats();
        assert!(stats.iter().all(|(k, _)| !k.starts_with("placeholder")));
    }

    #[test]
    fn holes_and_dangling_edges_are_rejected() {
        let mut t = TopologySpec::new();
        let hole = t.reserve();
        assert!(matches!(
            t.validate(),
            Err(BuildError::InvalidConfig(msg)) if msg.contains("never defined")
        ));
        let mem = t.reserve();
        t.define(
            mem,
            "mem",
            NodeSpec::Memory {
                cfg: MemBackendConfig::Dram(MemTech::Ddr4),
            },
        );
        t.define(
            hole,
            "bus",
            NodeSpec::Xbar {
                cfg: XbarConfig::default(),
                default: NodeId(99),
                routes: Vec::new(),
            },
        );
        assert!(matches!(
            t.validate(),
            Err(BuildError::InvalidConfig(msg)) if msg.contains("undefined node")
        ));
    }

    #[test]
    fn duplicate_names_are_rejected_before_the_kernel_sees_them() {
        let mut cfgd = SystemConfig::paper_baseline().topology().unwrap();
        // Stamp a second node with an existing name.
        let twin = cfgd.reserve();
        cfgd.define(
            twin,
            "host_mem",
            NodeSpec::Memory {
                cfg: MemBackendConfig::Dram(MemTech::Ddr4),
            },
        );
        let err = cfgd.validate().unwrap_err();
        assert!(err.to_string().contains("duplicate module name"));
    }

    #[test]
    fn route_depth_is_computed_and_bounded() {
        let cfg = SystemConfig::paper_baseline();
        let spec = cfg.topology().unwrap();
        // Baseline DMA path: dma, ep, switch, rc, smmu, iocache, llc,
        // membus = 8 pushes.
        assert_eq!(spec.max_request_depth(), 8);

        // Depth grows by one per extra switch level; the validator draws
        // the line exactly at MAX_ROUTE_DEPTH.
        let tree = switch_tree(&cfg, &[2, 2]).unwrap();
        assert_eq!(tree.max_request_depth(), 9);
        let deep = switch_tree(&cfg, &[2, 2, 2, 2]).unwrap();
        assert_eq!(deep.max_request_depth(), 11);
        // Five switch levels still fit (the deepest path is a would-be
        // peer-to-peer route: up the whole tree and down a sibling
        // branch, which the switch model routes by address).
        let five = switch_tree(&cfg, &[2, 1, 1, 1, 1]).unwrap();
        assert_eq!(five.max_request_depth(), MAX_ROUTE_DEPTH);
        // Six levels overflow: 13 via host memory, 14 peer-to-peer.
        let too_deep = switch_tree(&cfg, &[2, 2, 1, 1, 1, 1]);
        assert!(matches!(
            too_deep,
            Err(BuildError::RouteDepthExceeded { depth: 14, max }) if max == MAX_ROUTE_DEPTH
        ));
    }

    #[test]
    fn tree_endpoint_count_errors_come_from_the_addrmap_carving() {
        let cfg = SystemConfig::paper_baseline();
        let err = switch_tree(&cfg, &[2, 16]).unwrap_err();
        assert!(
            err.to_string().contains("BAR window carving") && err.to_string().contains("32"),
            "unexpected message: {err}"
        );
    }

    #[test]
    fn tree_ports_claim_aggregated_subtree_ranges() {
        let cfg = SystemConfig::paper_baseline();
        let spec = switch_tree(&cfg, &[2, 4]).unwrap();
        // Find the root switch and check each of its two ports claims one
        // contiguous 4-BAR aggregate.
        let root = spec
            .nodes
            .iter()
            .flatten()
            .find(|n| n.name == "pcie.sw0")
            .expect("root switch exists");
        let NodeSpec::Switch { ports, .. } = &root.spec else {
            panic!("pcie.sw0 is a switch");
        };
        assert_eq!(ports.len(), 2);
        for (j, port) in ports.iter().enumerate() {
            assert_eq!(port.ranges.len(), 1, "port {j} claims one aggregate");
            assert_eq!(port.ranges[0].size, 4 * addrmap::BAR_STRIDE);
            assert_eq!(
                port.ranges[0].base,
                addrmap::device_bar(j * 4).base,
                "port {j} fronts endpoints {}..{}",
                j * 4,
                j * 4 + 4
            );
        }
    }

    #[test]
    fn heterogeneous_trees_mix_memory_placements() {
        let mut cfg = SystemConfig::paper_baseline();
        cfg.smmu = None;
        let hbm = MemBackendConfig::Dram(MemTech::Hbm2);
        let spec = switch_tree_with(&cfg, &[2], |i| (i == 1).then_some(hbm)).unwrap();
        spec.validate().unwrap();
        assert!(matches!(
            spec.devices()[0].data,
            DataPlacement::Host { virt: false, .. }
        ));
        assert!(matches!(
            spec.devices()[1].data,
            DataPlacement::Device { .. }
        ));
        let mut kernel = Kernel::new();
        let handles = spec.instantiate(&mut kernel).unwrap();
        assert!(handles.lookup("dev_mem1").is_some());
        assert!(handles.lookup("dev_mem0").is_none());

        // A device's memory sits behind its own endpoint: its data
        // window is one of that endpoint's inward routes, so the DMA
        // engine never reaches a sibling's memory.
        let assert_local = |spec: &TopologySpec| {
            for (i, d) in spec.devices().iter().enumerate() {
                let DataPlacement::Device { xbar, base } = d.data else {
                    continue;
                };
                let NodeSpec::Endpoint { inward, .. } = &spec.node(d.ep).unwrap().spec else {
                    panic!("device {i}'s ep is an endpoint");
                };
                assert!(
                    inward.iter().any(|&(r, t)| t == xbar && r.contains(base)),
                    "device {i}'s memory is not behind its own endpoint"
                );
            }
        };
        let devmem = SystemConfig::devmem(MemTech::Hbm2);
        assert_local(&devmem.topology().unwrap());
        for shape in [&[1][..], &[4], &[2, 2]] {
            let mixed = switch_tree_with(&cfg, shape, |i| (i % 2 == 1).then_some(hbm)).unwrap();
            assert_local(&mixed);
            let uniform = switch_tree(&devmem, shape).unwrap();
            assert!(uniform
                .devices()
                .iter()
                .all(|d| matches!(d.data, DataPlacement::Device { .. })));
            assert_local(&uniform);
        }
    }

    #[test]
    fn overlapping_sibling_claims_are_rejected() {
        let cfg = SystemConfig::paper_baseline();
        let mut spec = switch_tree(&cfg, &[2]).unwrap();
        // Corrupt the root switch: make both ports claim endpoint 0's BAR.
        for node in spec.nodes.iter_mut().flatten() {
            if let NodeSpec::Switch { ports, .. } = &mut node.spec {
                let claim = ports[0].ranges.clone();
                ports[1].ranges = claim;
            }
        }
        let err = spec.validate().unwrap_err();
        assert!(err.to_string().contains("overlap"), "got: {err}");
    }

    #[test]
    fn unreachable_nodes_are_rejected() {
        let mut spec = SystemConfig::paper_baseline().topology().unwrap();
        spec.add(
            "orphan",
            NodeSpec::Memory {
                cfg: MemBackendConfig::Dram(MemTech::Ddr4),
            },
        );
        let err = spec.validate().unwrap_err();
        assert!(err.to_string().contains("unreachable"), "got: {err}");
    }
}
