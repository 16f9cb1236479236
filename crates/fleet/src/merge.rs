//! Deterministic merge of per-host shard results into one fleet-level
//! report.
//!
//! The merge contract: results are sorted by host index and folded in
//! that order, so the fleet report is a function of the *set* of
//! [`HostResult`]s — never of the order their shards finished in.
//! Histograms merge exactly (integer bucket counts, sums added in host
//! order), which is what keeps the report byte-identical at any
//! `--jobs`.

use crate::host::{HostResult, WireHist};
use crate::{FleetError, FleetSpec};
use accesys_serve::{per_sec, LatencySummary};
use accesys_sim::Histogram;

/// One tenant's slice of the fleet.
#[derive(Clone, Debug, serde::Serialize)]
pub struct FleetTenantReport {
    /// Tenant index.
    pub tenant: u32,
    /// Requests admitted fleet-wide.
    pub admitted: u64,
    /// Requests rejected fleet-wide.
    pub rejected: u64,
    /// End-to-end latency distribution of this tenant's completions.
    pub latency: LatencySummary,
}

/// The fleet-level serve report: the cross-host analogue of the serve
/// layer's `ServeReport`, with per-host round logs preserved.
#[derive(Clone, Debug, serde::Serialize)]
pub struct FleetReport {
    /// Host count.
    pub hosts: u32,
    /// Accelerator endpoints per host.
    pub endpoints_per_host: u32,
    /// Total accelerator endpoints simulated.
    pub endpoints: u64,
    /// Arrivals offered fleet-wide.
    pub offered: u64,
    /// Requests admitted fleet-wide.
    pub admitted: u64,
    /// Requests completed fleet-wide.
    pub completed: u64,
    /// Requests rejected fleet-wide.
    pub rejected: u64,
    /// Batching rounds executed across all hosts.
    pub rounds: u64,
    /// Per-host round log, indexed by host (the merged round counts —
    /// kept per host so shard imbalance stays visible).
    pub host_rounds: Vec<u64>,
    /// Idle jumps across all hosts.
    pub idle_jumps: u64,
    /// Peak single-round batch on any host.
    pub peak_batch: u64,
    /// Longest host serving-clock span, ns.
    pub elapsed_ns: f64,
    /// Frontend-clock makespan: last response back at the frontend, ns.
    pub makespan_ns: f64,
    /// Offered rate over the makespan, req/s.
    pub offered_rps: f64,
    /// Completions per second of frontend time.
    pub throughput_rps: f64,
    /// Within-SLO completions per second of frontend time.
    pub goodput_rps: f64,
    /// End-to-end latency over every completion.
    pub latency: LatencySummary,
    /// Network share of the end-to-end latency.
    pub network: LatencySummary,
    /// Per-tenant breakdown, dense over the spec's tenant count.
    pub tenants: Vec<FleetTenantReport>,
}

/// Merge one result per host into the fleet report. Order of `results`
/// does not matter; identity and completeness do.
///
/// # Errors
///
/// [`FleetError::Merge`] when a host is missing, duplicated, or out of
/// range.
pub fn merge(spec: &FleetSpec, mut results: Vec<HostResult>) -> Result<FleetReport, FleetError> {
    let hosts = spec.hosts;
    if results.len() != hosts as usize {
        return Err(FleetError::Merge(format!(
            "expected {} host results, got {}",
            hosts,
            results.len()
        )));
    }
    results.sort_by_key(|r| r.host);
    for (i, r) in results.iter().enumerate() {
        if r.host != i as u32 {
            return Err(FleetError::Merge(format!(
                "host results must cover 0..{} exactly once; slot {} holds host {}",
                hosts, i, r.host
            )));
        }
    }

    let tenant_count = spec.traffic.tenants.max(1) as usize;
    let mut e2e = Histogram::new();
    let mut network = Histogram::new();
    let mut by_tenant: Vec<(u64, u64, Histogram)> = vec![(0, 0, Histogram::new()); tenant_count];
    let mut offered = 0u64;
    let mut admitted = 0u64;
    let mut completed = 0u64;
    let mut rejected = 0u64;
    let mut within_slo = 0u64;
    let mut rounds = 0u64;
    let mut idle_jumps = 0u64;
    let mut peak_batch = 0u64;
    let mut elapsed_ns = 0.0f64;
    let mut makespan_ns = 0.0f64;
    let mut host_rounds = Vec::with_capacity(results.len());
    for r in &results {
        offered += r.offered;
        admitted += r.admitted;
        completed += r.completed;
        rejected += r.rejected;
        within_slo += r.within_slo;
        rounds += r.rounds;
        idle_jumps += r.idle_jumps;
        peak_batch = peak_batch.max(r.peak_batch);
        elapsed_ns = elapsed_ns.max(r.elapsed_ns);
        makespan_ns = makespan_ns.max(r.makespan_ns);
        host_rounds.push(r.rounds);
        merge_wire(&mut e2e, &r.e2e);
        merge_wire(&mut network, &r.network);
        for t in &r.tenants {
            if let Some((adm, rej, hist)) = by_tenant.get_mut(t.tenant as usize) {
                *adm += t.admitted;
                *rej += t.rejected;
                hist.merge(&t.e2e.unpack());
            }
        }
    }

    let tenants = by_tenant
        .into_iter()
        .enumerate()
        .map(|(t, (adm, rej, hist))| FleetTenantReport {
            tenant: t as u32,
            admitted: adm,
            rejected: rej,
            latency: LatencySummary::of(&hist),
        })
        .collect();
    Ok(FleetReport {
        hosts,
        endpoints_per_host: spec.endpoints_per_host(),
        endpoints: spec.endpoints(),
        offered,
        admitted,
        completed,
        rejected,
        rounds,
        host_rounds,
        idle_jumps,
        peak_batch,
        elapsed_ns,
        makespan_ns,
        offered_rps: per_sec(offered, makespan_ns),
        throughput_rps: per_sec(completed, makespan_ns),
        goodput_rps: per_sec(within_slo, makespan_ns),
        latency: LatencySummary::of(&e2e),
        network: LatencySummary::of(&network),
        tenants,
    })
}

fn merge_wire(into: &mut Histogram, wire: &WireHist) {
    into.merge(&wire.unpack());
}
