//! One host shard: route the fleet trace to a host over its network
//! link, serve it on that host's simulation, and fold the outcome into
//! a flat [`HostResult`].
//!
//! [`run_host`] is a pure function of `(spec, host)` — no ambient
//! state, no clocks, no randomness beyond the spec's seed — which is
//! the whole determinism argument of the fleet layer: every thread
//! computes bit-identical [`HostResult`]s for the same inputs, so
//! merged fleet reports cannot depend on *where* or *when* a host
//! shard ran, only on which hosts exist.

use crate::{FleetError, FleetSpec};
use accesys_serve::{serve_traced, Arrival};
use accesys_sim::Histogram;

/// A [`Histogram`] flattened to plain data: exact bucket indexes plus
/// the exact scalar moments. [`WireHist::unpack`] rebuilds it
/// bit-identically ([`Histogram::raw_buckets`] /
/// [`Histogram::from_raw`]).
#[derive(Clone, Debug, Default, PartialEq, serde::Serialize)]
pub struct WireHist {
    /// Non-empty `(bucket index, count)` pairs.
    pub buckets: Vec<(u32, u64)>,
    /// Exact sample sum (0 when empty).
    pub sum: f64,
    /// Exact minimum (0 when empty).
    pub min: f64,
    /// Exact maximum (0 when empty).
    pub max: f64,
}

impl WireHist {
    /// Flatten a histogram.
    pub fn of(h: &Histogram) -> WireHist {
        WireHist {
            buckets: h.raw_buckets(),
            sum: h.sum(),
            min: h.min(),
            max: h.max(),
        }
    }

    /// Rebuild the histogram.
    pub fn unpack(&self) -> Histogram {
        Histogram::from_raw(&self.buckets, self.sum, self.min, self.max)
    }
}

/// One tenant's share of a host shard.
#[derive(Clone, Debug, PartialEq, serde::Serialize)]
pub struct HostTenant {
    /// Tenant index.
    pub tenant: u32,
    /// Requests admitted on this host.
    pub admitted: u64,
    /// Requests rejected at this host's admission queue.
    pub rejected: u64,
    /// End-to-end latency distribution of this tenant's completions.
    pub e2e: WireHist,
}

/// Everything a host shard reports back: flat counters plus flattened
/// histograms, in exactly the shape the merge consumes.
#[derive(Clone, Debug, PartialEq, serde::Serialize)]
pub struct HostResult {
    /// Which host this is (0-based).
    pub host: u32,
    /// Arrivals routed to this host.
    pub offered: u64,
    /// Requests admitted past the queue bound.
    pub admitted: u64,
    /// Requests that completed all their slices.
    pub completed: u64,
    /// Requests rejected at admission.
    pub rejected: u64,
    /// Completions within the end-to-end SLO.
    pub within_slo: u64,
    /// Batching rounds this host executed (its round log total).
    pub rounds: u64,
    /// Idle jumps of this host's serving clock.
    pub idle_jumps: u64,
    /// Peak requests folded into one round on this host.
    pub peak_batch: u64,
    /// Host serving-clock span (delivery of first work → last host
    /// completion), ns.
    pub elapsed_ns: f64,
    /// Frontend-clock makespan: when the last response lands back at
    /// the frontend, ns (0 when nothing completed).
    pub makespan_ns: f64,
    /// End-to-end latency (frontend arrival → response back at the
    /// frontend) over every completion.
    pub e2e: WireHist,
    /// Network share of the end-to-end latency (both legs, including
    /// serialization and ingress queuing).
    pub network: WireHist,
    /// Per-tenant breakdown, dense over the spec's tenant count.
    pub tenants: Vec<HostTenant>,
}

/// Which host an arrival is routed to: round-robin over the arrival
/// index. The frontend knows nothing about host load — routing must be
/// a pure function of the trace for the shards to stay independent.
pub fn route(arrival_index: usize, hosts: u32) -> u32 {
    (arrival_index % hosts.max(1) as usize) as u32
}

/// An arrival as delivered to a host, with its network bookkeeping.
struct Delivered {
    /// Frontend arrival tick, ns.
    frontend_ns: u64,
    /// Delivery tick at the host (ingress link FIFO + latency), ns.
    host_ns: u64,
    tenant: u32,
}

/// Route `arrivals` to `host` and push them through the ingress link:
/// a FIFO serialization stage at the link rate plus fixed propagation
/// latency. Monotone in arrival order, so delivery order = trace
/// order and the host-side trace stays sorted.
fn deliver(spec: &FleetSpec, host: u32, arrivals: &[Arrival]) -> Vec<Delivered> {
    let ser_ns = spec.link.ser_ns();
    let latency_ns = spec.link.latency_ns;
    let mut busy_ns = 0.0f64;
    let mut out = Vec::new();
    for (i, a) in arrivals.iter().enumerate() {
        if route(i, spec.hosts) != host {
            continue;
        }
        let start = (a.at_ns as f64).max(busy_ns);
        busy_ns = start + ser_ns;
        // Ceil to the ns grid: a request is never available before it
        // could have fully arrived.
        let host_ns = (busy_ns + latency_ns).ceil() as u64;
        out.push(Delivered {
            frontend_ns: a.at_ns,
            host_ns,
            tenant: a.tenant,
        });
    }
    out
}

/// Simulate host `host` of the fleet from scratch: generate the fleet
/// trace, deliver this host's share over the ingress link, serve it,
/// and account end-to-end latencies (egress leg added per response).
///
/// # Errors
///
/// [`FleetError::Spec`] for an invalid spec or a host simulation that
/// does not build; [`FleetError::Host`] when the serve engine fails.
pub fn run_host(spec: &FleetSpec, host: u32) -> Result<HostResult, FleetError> {
    spec.validate()?;
    if host >= spec.hosts {
        return Err(FleetError::Host {
            host,
            message: format!("host index out of range (fleet has {})", spec.hosts),
        });
    }
    let fleet_trace = spec.traffic.arrivals();
    let delivered = deliver(spec, host, &fleet_trace);
    let host_trace: Vec<Arrival> = delivered
        .iter()
        .map(|d| Arrival {
            at_ns: d.host_ns,
            tenant: d.tenant,
        })
        .collect();

    let mut sim = spec.host_simulation()?;
    let policy = spec.policy.policy();
    let cfg = spec.serve_config();
    let (report, completions) = serve_traced(&mut sim, &spec.request, &host_trace, &policy, &cfg)
        .map_err(|e| FleetError::Host {
        host,
        message: e.to_string(),
    })?;

    // Fold completions into end-to-end terms: the response crosses the
    // link back (serialization + propagation, no egress queuing — one
    // response per request, paced by host rounds).
    let return_ns = spec.link.ser_ns() + spec.link.latency_ns;
    let slo = spec.policy.slo();
    let tenant_count = spec.traffic.tenants.max(1) as usize;
    let mut e2e = Histogram::new();
    let mut network = Histogram::new();
    let mut e2e_by_tenant = vec![Histogram::new(); tenant_count];
    let mut within_slo = 0u64;
    let mut makespan_ns = 0.0f64;
    for c in &completions {
        // The serve engine ids requests by host-trace index.
        let d = &delivered[c.id as usize];
        let back_ns = c.done_ns + return_ns;
        let e2e_ns = back_ns - d.frontend_ns as f64;
        let net_ns = (d.host_ns - d.frontend_ns) as f64 + return_ns;
        e2e.observe(e2e_ns);
        network.observe(net_ns);
        if let Some(h) = e2e_by_tenant.get_mut(c.tenant as usize) {
            h.observe(e2e_ns);
        }
        if e2e_ns <= slo {
            within_slo += 1;
        }
        makespan_ns = makespan_ns.max(back_ns);
    }

    let tenants = (0..tenant_count)
        .map(|t| HostTenant {
            tenant: t as u32,
            admitted: report.tenants.get(t).map_or(0, |r| r.admitted),
            rejected: report.tenants.get(t).map_or(0, |r| r.rejected),
            e2e: WireHist::of(&e2e_by_tenant[t]),
        })
        .collect();

    Ok(HostResult {
        host,
        offered: report.offered,
        admitted: report.admitted,
        completed: report.completed,
        rejected: report.rejected,
        within_slo,
        rounds: report.rounds,
        idle_jumps: report.idle_jumps,
        peak_batch: report.peak_batch as u64,
        elapsed_ns: report.elapsed_ns,
        makespan_ns,
        e2e: WireHist::of(&e2e),
        network: WireHist::of(&network),
        tenants,
    })
}
