//! Stages 2–3 of the loader: [`Document`] → typed [`Spec`](crate::Spec).
//!
//! **Resolve** walks the parsed document against the per-kind schema:
//! every section and key must be known ([`SpecError::UnknownSection`] /
//! [`SpecError::UnknownKey`]), required ones present
//! ([`SpecError::MissingSection`] / [`SpecError::MissingKey`]), and
//! every value of the right type ([`SpecError::Type`]; integers
//! coerce to floats, nothing else does). **Validate** then applies the
//! semantic rules that need cross-field knowledge — tree shapes parse
//! and fit the address map, pipeline `devices` stay inside the
//! smallest swept topology ([`SpecError::DanglingDevice`]), swept
//! names are unique ([`SpecError::DuplicateName`]), KV budgets hold at
//! least one request and fit the engine cap ([`SpecError::KvBudget`]).
//! Both stages work off the entry spans the parser kept, so every
//! error points at its line.

use crate::parse::{Document, Entry, RawValue, Section};
use crate::scenario::{
    mem_tech, parse_shape, BatchCap, DecodeScenario, EncoderDims, FleetScenario, KvSpec,
    PipelineScenario, PolicyKind, PolicySpec, RooflineScenario, ScalePair, Scenario,
    ServingScenario, SystemSpec, TopoScenario, TrafficProcess, TrafficSpec, MEM_TECH_NAMES,
};
use crate::SpecError;
use accesys::addrmap::MAX_ACCELS;
use accesys_serve::llm::KV_BUDGET_MAX;
use accesys_serve::{Arrival, LlmRequestShape, RequestShape};
use accesys_workload::llm::LlmSpec;

/// Resolve and validate a parsed document into a [`Scenario`].
pub fn resolve(doc: &Document) -> Result<Scenario, SpecError> {
    let scenario = need_section(doc, "scenario")?;
    known_keys(scenario, &["kind", "name"])?;
    let (kind, kind_line) = need_str(scenario, "kind")?;
    let (name, name_line) = need_str(scenario, "name")?;
    if name.is_empty() {
        return Err(invalid(name_line, "scenario.name", "must not be empty"));
    }
    let name = name.to_string();
    match kind {
        "roofline" => resolve_roofline(doc, name),
        "topo" => resolve_topo(doc, name),
        "pipeline" => resolve_pipeline(doc, name),
        "serving" => resolve_serving(doc, name),
        "decode" => resolve_decode(doc, name),
        "fleet" => resolve_fleet(doc, name),
        other => Err(invalid(
            kind_line,
            "scenario.kind",
            &format!(
                "has unknown scenario kind `{other}` \
                 (expected roofline|topo|pipeline|serving|decode|fleet)"
            ),
        )),
    }
}

// ---------------------------------------------------------------------
// Per-kind resolvers.

fn resolve_roofline(doc: &Document, name: String) -> Result<Scenario, SpecError> {
    known_sections(doc, &["scenario", "topology", "workload", "sweep"])?;
    let system = resolve_system(doc, "topology", false)?;
    let workload = need_section(doc, "workload")?;
    known_keys(workload, &["kind", "matrix", "matrix_full"])?;
    need_workload_kind(workload, "gemm")?;
    let (matrix, _) = pair_u32(workload, "matrix")?;
    let sweep = need_section(doc, "sweep")?;
    known_keys(sweep, &["compute_ns"])?;
    let (compute_ns, line) = need_f64_list(sweep, "compute_ns")?;
    if compute_ns.is_empty() {
        return Err(invalid(line, "sweep.compute_ns", "must not be empty"));
    }
    if let Some(&bad) = compute_ns.iter().find(|&&c| c <= 0.0) {
        return Err(invalid(
            line,
            "sweep.compute_ns",
            &format!("must be positive, got {bad}"),
        ));
    }
    Ok(Scenario::Roofline(RooflineScenario {
        name,
        system,
        matrix,
        compute_ns,
    }))
}

fn resolve_topo(doc: &Document, name: String) -> Result<Scenario, SpecError> {
    known_sections(
        doc,
        &[
            "scenario",
            "topology",
            "topology.compute_bound",
            "topology.transfer_bound",
            "workload",
            "sweep",
        ],
    )?;
    let base = partial_system(doc, "topology", true)?;
    let compute_bound = finish_system(
        merge_system(&base, &partial_system(doc, "topology.compute_bound", true)?),
        "topology.compute_bound",
    )?;
    let transfer_bound = finish_system(
        merge_system(
            &base,
            &partial_system(doc, "topology.transfer_bound", true)?,
        ),
        "topology.transfer_bound",
    )?;
    let workload = need_section(doc, "workload")?;
    known_keys(workload, &["kind", "matrix", "matrix_full"])?;
    need_workload_kind(workload, "gemm_sharded")?;
    let (matrix, _) = pair_u32(workload, "matrix")?;
    let sweep = need_section(doc, "sweep")?;
    known_keys(sweep, &["shapes"])?;
    let shapes = resolve_shapes(sweep)?;
    for sys in [&compute_bound, &transfer_bound] {
        check_leaves(sys, &shapes, doc)?;
    }
    Ok(Scenario::Topo(TopoScenario {
        name,
        compute_bound,
        transfer_bound,
        matrix,
        shapes,
    }))
}

fn resolve_pipeline(doc: &Document, name: String) -> Result<Scenario, SpecError> {
    known_sections(doc, &["scenario", "topology", "workload", "sweep"])?;
    let system = resolve_system(doc, "topology", true)?;
    let workload = need_section(doc, "workload")?;
    known_keys(
        workload,
        &[
            "kind",
            "seq",
            "seq_full",
            "hidden",
            "hidden_full",
            "heads",
            "heads_full",
            "mlp",
            "mlp_full",
            "layers",
            "layers_full",
            "images",
            "images_full",
            "devices",
        ],
    )?;
    need_workload_kind(workload, "encoder_pipeline")?;
    let (seq, _) = pair_u32(workload, "seq")?;
    let (hidden, _) = pair_u32(workload, "hidden")?;
    let (heads, _) = pair_u32(workload, "heads")?;
    let (mlp, _) = pair_u32(workload, "mlp")?;
    let dims = ScalePair {
        quick: EncoderDims {
            seq: seq.quick,
            hidden: hidden.quick,
            heads: heads.quick,
            mlp: mlp.quick,
        },
        full: EncoderDims {
            seq: seq.full,
            hidden: hidden.full,
            heads: heads.full,
            mlp: mlp.full,
        },
    };
    let (layers, _) = pair_u32(workload, "layers")?;
    let (images, _) = pair_u32(workload, "images")?;
    let devices = match want_entry(workload, "devices") {
        Some(entry) => {
            let (list, line) = as_u32_list(entry, "workload")?;
            if list.is_empty() {
                return Err(invalid(line, "workload.devices", "must not be empty"));
            }
            Some((
                list.into_iter().map(|d| d as usize).collect::<Vec<_>>(),
                line,
            ))
        }
        None => None,
    };
    let sweep = need_section(doc, "sweep")?;
    known_keys(sweep, &["shapes"])?;
    let shapes = resolve_shapes(sweep)?;
    check_leaves(&system, &shapes, doc)?;
    // A pinned device list must exist on *every* swept topology.
    let devices = match devices {
        Some((list, line)) => {
            let min_endpoints = shapes
                .iter()
                .filter_map(|s| parse_shape(s))
                .map(|l| l.iter().product::<u32>() as usize)
                .min()
                .unwrap_or(0);
            if let Some(&bad) = list.iter().find(|&&d| d >= min_endpoints) {
                return Err(SpecError::DanglingDevice {
                    line,
                    field: "workload.devices".to_string(),
                    reference: format!("dev{bad}"),
                    endpoints: min_endpoints,
                });
            }
            Some(list)
        }
        None => None,
    };
    Ok(Scenario::Pipeline(PipelineScenario {
        name,
        system,
        dims,
        layers,
        images,
        devices,
        shapes,
    }))
}

fn resolve_serving(doc: &Document, name: String) -> Result<Scenario, SpecError> {
    known_sections(
        doc,
        &[
            "scenario", "topology", "workload", "traffic", "policy", "sweep",
        ],
    )?;
    let system = resolve_system(doc, "topology", true)?;
    let workload = need_section(doc, "workload")?;
    known_keys(
        workload,
        &["kind", "seq", "hidden", "heads", "mlp", "slices"],
    )?;
    need_workload_kind(workload, "encoder_request")?;
    let request = RequestShape {
        seq: need_u32(workload, "seq")?.0,
        hidden: need_u32(workload, "hidden")?.0,
        heads: need_u32(workload, "heads")?.0,
        mlp: need_u32(workload, "mlp")?.0,
        slices: need_u32(workload, "slices")?.0,
    };
    let traffic = resolve_traffic(doc)?;
    let policy = resolve_policy(doc, traffic.tenants())?;
    let sweep = need_section(doc, "sweep")?;
    known_keys(sweep, &["shapes", "rates"])?;
    let shapes = resolve_shapes(sweep)?;
    check_leaves(&system, &shapes, doc)?;
    let rates = resolve_rates(sweep)?;
    Ok(Scenario::Serving(ServingScenario {
        name,
        system,
        request,
        traffic,
        policy,
        shapes,
        rates,
    }))
}

fn resolve_decode(doc: &Document, name: String) -> Result<Scenario, SpecError> {
    known_sections(
        doc,
        &[
            "scenario", "topology", "workload", "traffic", "policy", "kv", "sweep",
        ],
    )?;
    let system = resolve_system(doc, "topology", true)?;
    let workload = need_section(doc, "workload")?;
    known_keys(
        workload,
        &[
            "kind", "hidden", "heads", "mlp", "layers", "prompt", "decode",
        ],
    )?;
    need_workload_kind(workload, "llm")?;
    let request = LlmRequestShape {
        spec: LlmSpec {
            hidden: need_u32(workload, "hidden")?.0,
            heads: need_u32(workload, "heads")?.0,
            mlp: need_u32(workload, "mlp")?.0,
            layers: need_u32(workload, "layers")?.0,
        },
        prompt: need_u32(workload, "prompt")?.0,
        decode: need_u32(workload, "decode")?.0,
    };
    let traffic = resolve_traffic(doc)?;
    let policy = resolve_policy(doc, traffic.tenants())?;
    let kv_section = need_section(doc, "kv")?;
    known_keys(kv_section, &["ample_bytes", "tight_pct"])?;
    let (ample_bytes, ample_line) = need_u64(kv_section, "ample_bytes")?;
    let (tight_pct, tight_line) = need_u32(kv_section, "tight_pct")?;
    let kv = KvSpec {
        ample_bytes,
        tight_pct,
    };
    let sweep = need_section(doc, "sweep")?;
    known_keys(sweep, &["shapes", "rates", "budgets"])?;
    let shapes = resolve_shapes(sweep)?;
    check_leaves(&system, &shapes, doc)?;
    let rates = resolve_rates(sweep)?;
    let budgets = resolve_budgets(sweep)?;
    // Every swept regime must hold one request and fit the engine cap.
    let need = request.max_kv_bytes();
    for budget in &budgets {
        let (bytes, line, field) = match budget.as_str() {
            "ample" => (ample_bytes, ample_line, "kv.ample_bytes"),
            _ => (
                need * u64::from(tight_pct) / 100,
                tight_line,
                "kv.tight_pct",
            ),
        };
        if bytes < need {
            return Err(SpecError::KvBudget {
                line,
                field: field.to_string(),
                message: format!(
                    "holds {bytes} bytes, but one request needs {need} bytes of KV cache"
                ),
            });
        }
        if bytes > KV_BUDGET_MAX {
            return Err(SpecError::KvBudget {
                line,
                field: field.to_string(),
                message: format!(
                    "holds {bytes} bytes, over the engine cap of {KV_BUDGET_MAX} bytes"
                ),
            });
        }
    }
    Ok(Scenario::Decode(DecodeScenario {
        name,
        system,
        request,
        traffic,
        policy,
        kv,
        shapes,
        rates,
        budgets,
    }))
}

/// Upper bound on `[fleet] hosts` entries the validator accepts
/// (mirrors the fleet crate's own spec cap).
const MAX_FLEET_HOSTS: u32 = 4096;

fn resolve_fleet(doc: &Document, name: String) -> Result<Scenario, SpecError> {
    known_sections(
        doc,
        &[
            "scenario", "topology", "workload", "traffic", "policy", "fleet", "sweep",
        ],
    )?;
    let system = resolve_system(doc, "topology", true)?;
    // Hosts are identical by construction; a per-leaf list has no
    // meaning when the same tree is stamped out `hosts` times.
    if system.leaves.is_some() {
        let line = need_section(doc, "topology")?
            .entry("leaves")
            .map_or(0, |e| e.line);
        return Err(invalid(
            line,
            "topology.leaves",
            "is not supported in fleet scenarios (hosts are identical; use devmem)",
        ));
    }
    let workload = need_section(doc, "workload")?;
    known_keys(
        workload,
        &["kind", "seq", "hidden", "heads", "mlp", "slices"],
    )?;
    need_workload_kind(workload, "encoder_request")?;
    let request = RequestShape {
        seq: need_u32(workload, "seq")?.0,
        hidden: need_u32(workload, "hidden")?.0,
        heads: need_u32(workload, "heads")?.0,
        mlp: need_u32(workload, "mlp")?.0,
        slices: need_u32(workload, "slices")?.0,
    };
    let traffic = resolve_traffic(doc)?;
    // Every shard regenerates the fleet trace independently from the
    // seed, so the process must be precomputable — poisson only.
    if !matches!(traffic.process, TrafficProcess::Poisson { .. }) {
        let line = need_section(doc, "traffic")?
            .entry("process")
            .map_or(0, |e| e.line);
        return Err(invalid(
            line,
            "traffic.process",
            "must be \"poisson\" in fleet scenarios (every host shard \
             regenerates the trace from the seed)",
        ));
    }
    let policy = resolve_policy(doc, traffic.tenants())?;
    let fleet = need_section(doc, "fleet")?;
    known_keys(
        fleet,
        &[
            "hosts",
            "link_latency_ns",
            "link_gbps",
            "request_bytes",
            "rate_rps",
        ],
    )?;
    let (hosts, hosts_line) = need_u32_list(fleet, "hosts")?;
    if hosts.is_empty() {
        return Err(invalid(hosts_line, "fleet.hosts", "must not be empty"));
    }
    for (i, &h) in hosts.iter().enumerate() {
        if h == 0 || h > MAX_FLEET_HOSTS {
            return Err(invalid(
                hosts_line,
                "fleet.hosts",
                &format!("must be in 1..={MAX_FLEET_HOSTS}, got {h}"),
            ));
        }
        if hosts[..i].contains(&h) {
            return Err(SpecError::DuplicateName {
                line: hosts_line,
                field: "fleet.hosts".to_string(),
                name: h.to_string(),
            });
        }
    }
    let (link_latency_ns, latency_line) = need_f64(fleet, "link_latency_ns")?;
    if !(link_latency_ns > 0.0 && link_latency_ns.is_finite()) {
        return Err(invalid(
            latency_line,
            "fleet.link_latency_ns",
            "must be positive (it is the conservative lookahead of the cross-host cut)",
        ));
    }
    let (link_gbps, gbps_line) = need_f64(fleet, "link_gbps")?;
    if !(link_gbps > 0.0 && link_gbps.is_finite()) {
        return Err(invalid(gbps_line, "fleet.link_gbps", "must be positive"));
    }
    let (request_bytes, bytes_line) = need_u64(fleet, "request_bytes")?;
    if request_bytes == 0 {
        return Err(invalid(
            bytes_line,
            "fleet.request_bytes",
            "must be at least 1 (a request still occupies the wire)",
        ));
    }
    let (rate_rps, rate_line) = need_f64(fleet, "rate_rps")?;
    if !(rate_rps >= 0.0 && rate_rps.is_finite()) {
        return Err(invalid(rate_line, "fleet.rate_rps", "must be non-negative"));
    }
    let sweep = need_section(doc, "sweep")?;
    known_keys(sweep, &["shapes"])?;
    let shapes = resolve_shapes(sweep)?;
    Ok(Scenario::Fleet(FleetScenario {
        name,
        system,
        request,
        traffic,
        policy,
        hosts,
        link_latency_ns,
        link_gbps,
        request_bytes,
        rate_rps,
        shapes,
    }))
}

// ---------------------------------------------------------------------
// Section schemas.

/// The keys a `[topology]`-family section may carry.
const TOPOLOGY_KEYS: &[&str] = &[
    "link_gbps",
    "host_mem",
    "compute_ns",
    "smmu",
    "devmem",
    "leaves",
];

#[derive(Clone, Default)]
struct PartialSystem {
    link_gbps: Option<f64>,
    host_mem: Option<accesys_mem::MemTech>,
    compute_ns: Option<f64>,
    smmu: Option<bool>,
    devmem: Option<Option<accesys_mem::MemTech>>,
    leaves: Option<(Vec<Option<accesys_mem::MemTech>>, u32)>,
}

fn resolve_system(doc: &Document, name: &str, tree: bool) -> Result<SystemSpec, SpecError> {
    if doc.section(name).is_none() {
        return Err(SpecError::MissingSection {
            section: name.to_string(),
        });
    }
    finish_system(partial_system(doc, name, tree)?, name)
}

fn partial_system(doc: &Document, name: &str, tree: bool) -> Result<PartialSystem, SpecError> {
    let Some(section) = doc.section(name) else {
        return Ok(PartialSystem::default());
    };
    // Roofline testbeds have no tree, so per-leaf keys are unknown.
    let allowed: &[&str] = if tree {
        TOPOLOGY_KEYS
    } else {
        &["link_gbps", "host_mem", "compute_ns", "smmu"]
    };
    known_keys(section, allowed)?;
    let mut p = PartialSystem {
        link_gbps: want_f64(section, "link_gbps")?.map(|(v, _)| v),
        compute_ns: want_f64(section, "compute_ns")?.map(|(v, _)| v),
        smmu: want_bool(section, "smmu")?.map(|(v, _)| v),
        ..PartialSystem::default()
    };
    if let Some((s, line)) = want_str(section, "host_mem")? {
        p.host_mem = Some(need_mem_tech(s, line, &field(&section.name, "host_mem"))?);
    }
    if let Some((s, line)) = want_str(section, "devmem")? {
        p.devmem = Some(opt_mem_tech(s, line, &field(&section.name, "devmem"))?);
    }
    if let Some(entry) = want_entry(section, "leaves") {
        let (names, line) = as_str_list(entry, &section.name)?;
        let mut leaves = Vec::new();
        for n in names {
            leaves.push(opt_mem_tech(&n, line, &field(&section.name, "leaves"))?);
        }
        p.leaves = Some((leaves, line));
    }
    Ok(p)
}

fn merge_system(base: &PartialSystem, over: &PartialSystem) -> PartialSystem {
    PartialSystem {
        link_gbps: over.link_gbps.or(base.link_gbps),
        host_mem: over.host_mem.or(base.host_mem),
        compute_ns: over.compute_ns.or(base.compute_ns),
        smmu: over.smmu.or(base.smmu),
        devmem: over.devmem.or(base.devmem),
        leaves: over.leaves.clone().or_else(|| base.leaves.clone()),
    }
}

fn finish_system(p: PartialSystem, section: &str) -> Result<SystemSpec, SpecError> {
    let missing = |key: &str| SpecError::MissingKey {
        section: section.to_string(),
        key: key.to_string(),
    };
    Ok(SystemSpec {
        link_gbps: p.link_gbps.ok_or_else(|| missing("link_gbps"))?,
        host_mem: p.host_mem.ok_or_else(|| missing("host_mem"))?,
        compute_ns: p.compute_ns,
        smmu: p.smmu.unwrap_or(true),
        devmem: p.devmem.flatten(),
        leaves: p.leaves.map(|(l, _)| l),
    })
}

/// An explicit `leaves` list must match every swept shape's endpoint
/// count — otherwise some listed leaf does not exist (or some endpoint
/// has no entry).
fn check_leaves(sys: &SystemSpec, shapes: &[String], doc: &Document) -> Result<(), SpecError> {
    let Some(leaves) = &sys.leaves else {
        return Ok(());
    };
    // Find the declaring entry's span (whichever topology section).
    let line = doc
        .sections
        .iter()
        .filter(|s| s.name.starts_with("topology"))
        .filter_map(|s| s.entry("leaves"))
        .map(|e| e.line)
        .next()
        .unwrap_or(0);
    for shape in shapes {
        let endpoints: u32 = parse_shape(shape).map_or(0, |l| l.iter().product());
        if endpoints as usize != leaves.len() {
            return Err(invalid(
                line,
                "topology.leaves",
                &format!(
                    "lists {} leaf device memories, but shape \"{shape}\" has \
                     {endpoints} endpoint(s)",
                    leaves.len()
                ),
            ));
        }
    }
    Ok(())
}

fn resolve_traffic(doc: &Document) -> Result<TrafficSpec, SpecError> {
    let section = need_section(doc, "traffic")?;
    let (process, process_line) = need_str(section, "process")?;
    let common = ["process", "horizon_ns", "horizon_ns_full"];
    let process = match process {
        "poisson" => {
            known_keys(section, &[&common[..], &["tenants", "seed"]].concat())?;
            TrafficProcess::Poisson {
                tenants: need_tenants(section)?,
                seed: need_u64(section, "seed")?.0,
            }
        }
        "bursty" => {
            known_keys(
                section,
                &[
                    &common[..],
                    &["tenants", "seed", "calm_rps", "burst_rps", "mean_phase_len"],
                ]
                .concat(),
            )?;
            TrafficProcess::Bursty {
                calm_rps: need_f64(section, "calm_rps")?.0,
                burst_rps: need_f64(section, "burst_rps")?.0,
                mean_phase_len: need_u32(section, "mean_phase_len")?.0,
                tenants: need_tenants(section)?,
                seed: need_u64(section, "seed")?.0,
            }
        }
        "trace" => {
            known_keys(section, &[&common[..], &["at_ns", "tenant"]].concat())?;
            let (at_ns, at_line) = need_u64_list(section, "at_ns")?;
            let (tenant, tenant_line) = need_u32_list(section, "tenant")?;
            if at_ns.is_empty() {
                return Err(invalid(at_line, "traffic.at_ns", "must not be empty"));
            }
            if at_ns.windows(2).any(|w| w[0] > w[1]) {
                return Err(invalid(
                    at_line,
                    "traffic.at_ns",
                    "must be sorted by arrival time",
                ));
            }
            if tenant.len() != at_ns.len() {
                return Err(invalid(
                    tenant_line,
                    "traffic.tenant",
                    &format!(
                        "lists {} tenant(s) for {} arrival time(s)",
                        tenant.len(),
                        at_ns.len()
                    ),
                ));
            }
            TrafficProcess::Trace(
                at_ns
                    .into_iter()
                    .zip(tenant)
                    .map(|(at_ns, tenant)| Arrival { at_ns, tenant })
                    .collect(),
            )
        }
        other => {
            return Err(invalid(
                process_line,
                "traffic.process",
                &format!("has unknown arrival process `{other}` (expected poisson|bursty|trace)"),
            ))
        }
    };
    let (horizon_ns, line) = pair_u64(section, "horizon_ns")?;
    if horizon_ns.quick == 0 || horizon_ns.full == 0 {
        return Err(invalid(line, "traffic.horizon_ns", "must be positive"));
    }
    Ok(TrafficSpec {
        horizon_ns,
        process,
    })
}

fn need_tenants(section: &Section) -> Result<u32, SpecError> {
    let (tenants, line) = need_u32(section, "tenants")?;
    if tenants == 0 {
        return Err(invalid(line, "traffic.tenants", "must be at least 1"));
    }
    Ok(tenants)
}

fn resolve_policy(doc: &Document, tenants: u32) -> Result<PolicySpec, SpecError> {
    let section = need_section(doc, "policy")?;
    known_keys(
        section,
        &["kind", "weights", "batch_cap", "queue_cap", "slo_ns"],
    )?;
    let (kind_name, kind_line) = need_str(section, "kind")?;
    let weights = want_entry(section, "weights");
    let kind = match kind_name {
        "fifo" | "round_robin" => {
            if let Some(entry) = weights {
                return Err(invalid(
                    entry.line,
                    "policy.weights",
                    &format!("is only valid with kind \"weighted_share\", not \"{kind_name}\""),
                ));
            }
            if kind_name == "fifo" {
                PolicyKind::Fifo
            } else {
                PolicyKind::RoundRobin
            }
        }
        "weighted_share" => {
            let (weights, line) = need_u32_list(section, "weights")?;
            if weights.len() != tenants as usize {
                return Err(invalid(
                    line,
                    "policy.weights",
                    &format!("lists {} weight(s) for {tenants} tenant(s)", weights.len()),
                ));
            }
            PolicyKind::WeightedShare(weights)
        }
        other => {
            return Err(invalid(
                kind_line,
                "policy.kind",
                &format!(
                    "has unknown policy kind `{other}` (expected fifo|round_robin|weighted_share)"
                ),
            ))
        }
    };
    let batch_entry = need_entry(section, "batch_cap")?;
    let batch_cap = match &batch_entry.value {
        RawValue::Str(s) if s == "auto" => BatchCap::Auto(2),
        RawValue::Int(n) if *n > 0 => BatchCap::Fixed(*n as usize),
        RawValue::Int(_) => {
            return Err(invalid(
                batch_entry.line,
                "policy.batch_cap",
                "must be positive",
            ))
        }
        other => {
            return Err(SpecError::Type {
                line: batch_entry.line,
                field: "policy.batch_cap".to_string(),
                expected: "\"auto\" or a positive integer",
                found: other.type_name().to_string(),
            })
        }
    };
    let (queue_cap, queue_line) = need_u32(section, "queue_cap")?;
    if queue_cap == 0 {
        return Err(invalid(queue_line, "policy.queue_cap", "must be positive"));
    }
    let (slo_ns, slo_line) = need_f64(section, "slo_ns")?;
    if slo_ns <= 0.0 {
        return Err(invalid(slo_line, "policy.slo_ns", "must be positive"));
    }
    Ok(PolicySpec {
        kind,
        batch_cap,
        queue_cap: queue_cap as usize,
        slo_ns,
    })
}

fn resolve_shapes(sweep: &Section) -> Result<Vec<String>, SpecError> {
    let (shapes, line) = need_str_list(sweep, "shapes")?;
    if shapes.is_empty() {
        return Err(invalid(line, "sweep.shapes", "must not be empty"));
    }
    for (i, shape) in shapes.iter().enumerate() {
        let Some(levels) = parse_shape(shape) else {
            return Err(invalid(
                line,
                "sweep.shapes",
                &format!("has malformed tree shape \"{shape}\" (want x-separated fan-outs)"),
            ));
        };
        let endpoints: u32 = levels.iter().product();
        if endpoints as usize > MAX_ACCELS {
            return Err(invalid(
                line,
                "sweep.shapes",
                &format!(
                    "shape \"{shape}\" has {endpoints} endpoints, over the address-map \
                     cap of {MAX_ACCELS}"
                ),
            ));
        }
        if shapes[..i].contains(shape) {
            return Err(SpecError::DuplicateName {
                line,
                field: "sweep.shapes".to_string(),
                name: shape.clone(),
            });
        }
    }
    Ok(shapes)
}

fn resolve_rates(sweep: &Section) -> Result<Vec<f64>, SpecError> {
    let (rates, line) = need_f64_list(sweep, "rates")?;
    if rates.is_empty() {
        return Err(invalid(line, "sweep.rates", "must not be empty"));
    }
    if let Some(&bad) = rates.iter().find(|&&r| r < 0.0) {
        return Err(invalid(
            line,
            "sweep.rates",
            &format!("must be non-negative, got {bad}"),
        ));
    }
    Ok(rates)
}

fn resolve_budgets(sweep: &Section) -> Result<Vec<String>, SpecError> {
    let (budgets, line) = need_str_list(sweep, "budgets")?;
    if budgets.is_empty() {
        return Err(invalid(line, "sweep.budgets", "must not be empty"));
    }
    for (i, budget) in budgets.iter().enumerate() {
        if budget != "ample" && budget != "tight" {
            return Err(invalid(
                line,
                "sweep.budgets",
                &format!("has unknown KV budget regime \"{budget}\" (expected ample|tight)"),
            ));
        }
        if budgets[..i].contains(budget) {
            return Err(SpecError::DuplicateName {
                line,
                field: "sweep.budgets".to_string(),
                name: budget.clone(),
            });
        }
    }
    Ok(budgets)
}

fn need_workload_kind(section: &Section, expected: &str) -> Result<(), SpecError> {
    let (kind, line) = need_str(section, "kind")?;
    if kind != expected {
        return Err(invalid(
            line,
            "workload.kind",
            &format!("must be \"{expected}\" for this scenario kind, got \"{kind}\""),
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Typed extraction helpers. Each returns the value plus its line.

fn field(section: &str, key: &str) -> String {
    format!("{section}.{key}")
}

fn invalid(line: u32, field: &str, message: &str) -> SpecError {
    SpecError::Invalid {
        line,
        field: field.to_string(),
        message: message.to_string(),
    }
}

fn known_sections(doc: &Document, allowed: &[&str]) -> Result<(), SpecError> {
    for section in &doc.sections {
        if !allowed.contains(&section.name.as_str()) {
            return Err(SpecError::UnknownSection {
                line: section.line,
                section: section.name.clone(),
            });
        }
    }
    Ok(())
}

fn known_keys(section: &Section, allowed: &[&str]) -> Result<(), SpecError> {
    for entry in &section.entries {
        if !allowed.contains(&entry.key.as_str()) {
            return Err(SpecError::UnknownKey {
                line: entry.line,
                section: section.name.clone(),
                key: entry.key.clone(),
            });
        }
    }
    Ok(())
}

fn need_section<'a>(doc: &'a Document, name: &str) -> Result<&'a Section, SpecError> {
    doc.section(name).ok_or_else(|| SpecError::MissingSection {
        section: name.to_string(),
    })
}

fn want_entry<'a>(section: &'a Section, key: &str) -> Option<&'a Entry> {
    section.entry(key)
}

fn need_entry<'a>(section: &'a Section, key: &str) -> Result<&'a Entry, SpecError> {
    section.entry(key).ok_or_else(|| SpecError::MissingKey {
        section: section.name.clone(),
        key: key.to_string(),
    })
}

fn type_error(entry: &Entry, section: &str, expected: &'static str) -> SpecError {
    SpecError::Type {
        line: entry.line,
        field: field(section, &entry.key),
        expected,
        found: entry.value.type_name().to_string(),
    }
}

fn want_str<'a>(section: &'a Section, key: &str) -> Result<Option<(&'a str, u32)>, SpecError> {
    match want_entry(section, key) {
        None => Ok(None),
        Some(entry) => match &entry.value {
            RawValue::Str(s) => Ok(Some((s, entry.line))),
            _ => Err(type_error(entry, &section.name, "a string")),
        },
    }
}

fn need_str<'a>(section: &'a Section, key: &str) -> Result<(&'a str, u32), SpecError> {
    need_entry(section, key)?;
    Ok(want_str(section, key)?.expect("entry exists"))
}

fn want_f64(section: &Section, key: &str) -> Result<Option<(f64, u32)>, SpecError> {
    match want_entry(section, key) {
        None => Ok(None),
        Some(entry) => match entry.value {
            RawValue::Float(v) => Ok(Some((v, entry.line))),
            RawValue::Int(v) => Ok(Some((v as f64, entry.line))),
            _ => Err(type_error(entry, &section.name, "a number")),
        },
    }
}

fn need_f64(section: &Section, key: &str) -> Result<(f64, u32), SpecError> {
    need_entry(section, key)?;
    Ok(want_f64(section, key)?.expect("entry exists"))
}

fn want_bool(section: &Section, key: &str) -> Result<Option<(bool, u32)>, SpecError> {
    match want_entry(section, key) {
        None => Ok(None),
        Some(entry) => match entry.value {
            RawValue::Bool(v) => Ok(Some((v, entry.line))),
            _ => Err(type_error(entry, &section.name, "a boolean")),
        },
    }
}

fn want_u64(section: &Section, key: &str) -> Result<Option<(u64, u32)>, SpecError> {
    match want_entry(section, key) {
        None => Ok(None),
        Some(entry) => match entry.value {
            RawValue::Int(v) if v >= 0 => Ok(Some((v as u64, entry.line))),
            RawValue::Int(v) => Err(SpecError::Type {
                line: entry.line,
                field: field(&section.name, key),
                expected: "a non-negative integer",
                found: v.to_string(),
            }),
            _ => Err(type_error(entry, &section.name, "a non-negative integer")),
        },
    }
}

fn need_u64(section: &Section, key: &str) -> Result<(u64, u32), SpecError> {
    need_entry(section, key)?;
    Ok(want_u64(section, key)?.expect("entry exists"))
}

fn want_u32(section: &Section, key: &str) -> Result<Option<(u32, u32)>, SpecError> {
    match want_u64(section, key)? {
        None => Ok(None),
        Some((v, line)) => {
            let v = u32::try_from(v).map_err(|_| SpecError::Type {
                line,
                field: field(&section.name, key),
                expected: "a 32-bit integer",
                found: v.to_string(),
            })?;
            Ok(Some((v, line)))
        }
    }
}

fn need_u32(section: &Section, key: &str) -> Result<(u32, u32), SpecError> {
    need_entry(section, key)?;
    Ok(want_u32(section, key)?.expect("entry exists"))
}

fn need_f64_list(section: &Section, key: &str) -> Result<(Vec<f64>, u32), SpecError> {
    let entry = need_entry(section, key)?;
    let RawValue::List(items) = &entry.value else {
        return Err(type_error(entry, &section.name, "a list of numbers"));
    };
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        match item {
            RawValue::Float(v) => out.push(*v),
            RawValue::Int(v) => out.push(*v as f64),
            _ => return Err(type_error(entry, &section.name, "a list of numbers")),
        }
    }
    Ok((out, entry.line))
}

fn need_str_list(section: &Section, key: &str) -> Result<(Vec<String>, u32), SpecError> {
    as_str_list(need_entry(section, key)?, &section.name)
}

fn as_str_list(entry: &Entry, section: &str) -> Result<(Vec<String>, u32), SpecError> {
    let RawValue::List(items) = &entry.value else {
        return Err(type_error(entry, section, "a list of strings"));
    };
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        match item {
            RawValue::Str(s) => out.push(s.clone()),
            _ => return Err(type_error(entry, section, "a list of strings")),
        }
    }
    Ok((out, entry.line))
}

fn need_u64_list(section: &Section, key: &str) -> Result<(Vec<u64>, u32), SpecError> {
    let entry = need_entry(section, key)?;
    let RawValue::List(items) = &entry.value else {
        return Err(type_error(
            entry,
            &section.name,
            "a list of non-negative integers",
        ));
    };
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        match item {
            RawValue::Int(v) if *v >= 0 => out.push(*v as u64),
            _ => {
                return Err(type_error(
                    entry,
                    &section.name,
                    "a list of non-negative integers",
                ))
            }
        }
    }
    Ok((out, entry.line))
}

fn need_u32_list(section: &Section, key: &str) -> Result<(Vec<u32>, u32), SpecError> {
    as_u32_list(need_entry(section, key)?, &section.name)
}

fn as_u32_list(entry: &Entry, section: &str) -> Result<(Vec<u32>, u32), SpecError> {
    let RawValue::List(items) = &entry.value else {
        return Err(type_error(
            entry,
            section,
            "a list of non-negative integers",
        ));
    };
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        match item {
            RawValue::Int(v) if *v >= 0 && *v <= i64::from(u32::MAX) => out.push(*v as u32),
            _ => {
                return Err(type_error(
                    entry,
                    section,
                    "a list of non-negative integers",
                ))
            }
        }
    }
    Ok((out, entry.line))
}

/// A `key` / `key_full` pair: the quick value is required, the paper
/// value defaults to it.
fn pair_u32(section: &Section, key: &str) -> Result<(ScalePair<u32>, u32), SpecError> {
    let (quick, line) = need_u32(section, key)?;
    let full = want_u32(section, &format!("{key}_full"))?.map_or(quick, |(v, _)| v);
    Ok((ScalePair { quick, full }, line))
}

fn pair_u64(section: &Section, key: &str) -> Result<(ScalePair<u64>, u32), SpecError> {
    let (quick, line) = need_u64(section, key)?;
    let full = want_u64(section, &format!("{key}_full"))?.map_or(quick, |(v, _)| v);
    Ok((ScalePair { quick, full }, line))
}

fn need_mem_tech(name: &str, line: u32, field: &str) -> Result<accesys_mem::MemTech, SpecError> {
    mem_tech(name).ok_or_else(|| {
        invalid(
            line,
            field,
            &format!("has unknown memory technology \"{name}\" (expected {MEM_TECH_NAMES})"),
        )
    })
}

fn opt_mem_tech(
    name: &str,
    line: u32,
    field: &str,
) -> Result<Option<accesys_mem::MemTech>, SpecError> {
    if name == "none" {
        return Ok(None);
    }
    need_mem_tech(name, line, field).map(Some)
}
