//! Extension experiment — fleet scale-out: a cluster of hosts, each
//! one switch tree of accelerators behind its own serving engine, fed
//! shares of one open-loop trace over latency/bandwidth-bounded
//! network links.
//!
//! This is the layer above every earlier experiment family: PR 4's
//! switch trees are the per-host topology, PR 6's continuous-batching
//! engine serves each host's shard. Every (point, host) shard of the
//! sweep is one entry of a flat list that the sweep's `--jobs` threads
//! work through together, with no lock and no nested pool; each
//! point's shards are then merged in host order. The determinism
//! contract stacks: the merged fleet report is byte-identical at any
//! `--jobs` count — CI pins the 1-vs-4-job comparison with `cmp`.
//!
//! The scenario (testbed, request, traffic, policy, link model, sweep
//! axes) lowers from the committed `specs/fleet_1k.spec`; its top grid
//! point (64 hosts × `4x4` trees) is a 1024-endpoint fleet.

use crate::cli::Cli;
use crate::topo::parse_shape;
use crate::{specs, Scale};
use accesys_exp::pool::map_ordered;
use accesys_exp::{cross2, Experiment, Jobs, SweepResult};
use accesys_fleet::{
    merge, run_host, FleetError, FleetPolicy, FleetReport, FleetSpec, FleetTraffic, HostSystem,
    NetLink, PolicyKind,
};
use accesys_spec::FleetScenario;
use std::time::Instant;

/// The committed scenario this sweep lowers from.
pub fn scenario() -> &'static FleetScenario {
    specs::fleet()
}

/// Lower one (hosts, shape) grid point of a spec-layer fleet scenario
/// into the fleet crate's self-contained [`FleetSpec`] (the form every
/// host shard runs from).
pub fn lower(sc: &FleetScenario, hosts: u32, shape: &str, scale: Scale) -> FleetSpec {
    let levels = parse_shape(shape);
    let endpoints_per_host: u32 = levels.iter().product();
    let (tenants, seed) = match &sc.traffic.process {
        accesys_spec::TrafficProcess::Poisson { tenants, seed } => (*tenants, *seed),
        other => panic!("fleet scenarios are validated to poisson traffic, got {other:?}"),
    };
    let (kind, weights) = match &sc.policy.kind {
        accesys_spec::PolicyKind::Fifo => (PolicyKind::Fifo, Vec::new()),
        accesys_spec::PolicyKind::RoundRobin => (PolicyKind::RoundRobin, Vec::new()),
        accesys_spec::PolicyKind::WeightedShare(w) => (PolicyKind::WeightedShare, w.clone()),
    };
    FleetSpec {
        hosts,
        shape: levels,
        host: HostSystem {
            link_gbps: sc.system.link_gbps,
            host_mem: sc.system.host_mem,
            compute_ns: sc.system.compute_ns,
            smmu: sc.system.smmu,
            devmem: sc.system.devmem,
        },
        request: sc.request,
        traffic: FleetTraffic {
            rate_rps: sc.rate_rps,
            tenants,
            seed,
            horizon_ns: sc.traffic.horizon_ns.pick(scale),
        },
        policy: FleetPolicy {
            kind,
            weights,
            batch_cap: sc.policy.batch_cap.cap(endpoints_per_host) as u64,
            queue_cap: sc.policy.queue_cap as u64,
            slo_ns: sc.policy.slo_ns,
        },
        link: NetLink {
            latency_ns: sc.link_latency_ns,
            gbps: sc.link_gbps,
            request_bytes: sc.request_bytes,
        },
    }
}

/// One fleet measurement: one host count on one per-host tree shape.
#[derive(Clone, Debug, serde::Serialize)]
pub struct FleetRow {
    /// Host count.
    pub hosts: u32,
    /// Per-host tree shape (per-level fan-outs, `x`-separated).
    pub shape: String,
    /// Total accelerator endpoints simulated.
    pub endpoints: u64,
    /// Arrivals offered fleet-wide over the horizon.
    pub offered: u64,
    /// Requests admitted fleet-wide.
    pub admitted: u64,
    /// Requests completed fleet-wide.
    pub completed: u64,
    /// Requests rejected at per-host admission bounds.
    pub rejected: u64,
    /// Batching rounds executed across all hosts.
    pub rounds: u64,
    /// Peak single-round batch on any host.
    pub peak_batch: u64,
    /// Median end-to-end (frontend→host→frontend) latency, ns.
    pub p50_ns: f64,
    /// 99th-percentile end-to-end latency, ns.
    pub p99_ns: f64,
    /// Median network share of the end-to-end latency, ns.
    pub net_p50_ns: f64,
    /// Completions per second of frontend time.
    pub throughput_rps: f64,
    /// Within-SLO completions per second of frontend time.
    pub goodput_rps: f64,
}

fn row_of(hosts: u32, shape: &str, report: &FleetReport) -> FleetRow {
    FleetRow {
        hosts,
        shape: shape.to_string(),
        endpoints: report.endpoints,
        offered: report.offered,
        admitted: report.admitted,
        completed: report.completed,
        rejected: report.rejected,
        rounds: report.rounds,
        peak_batch: report.peak_batch,
        p50_ns: report.latency.p50_ns,
        p99_ns: report.latency.p99_ns,
        net_p50_ns: report.network.p50_ns,
        throughput_rps: report.throughput_rps,
        goodput_rps: report.goodput_rps,
    }
}

fn failed(hosts: u32, shape: &str, e: FleetError) -> ! {
    panic!("fleet run ({hosts} hosts, shape {shape}): {e}")
}

/// One point on its own: every host shard of `spec` in host order on
/// the calling thread, then merged.
fn run_point(spec: &FleetSpec) -> Result<FleetReport, FleetError> {
    let results = (0..spec.hosts)
        .map(|host| run_host(spec, host))
        .collect::<Result<Vec<_>, _>>()?;
    merge(spec, results)
}

/// The fleet sweep: hosts × shapes, row-major. Its [`Experiment::run`]
/// schedules host shards, not points: every (point, host) shard of the
/// sweep goes on the `--jobs` threads as one flat list.
pub struct FleetSweep {
    sc: FleetScenario,
    scale: Scale,
}

impl Experiment for FleetSweep {
    type Point = (u32, String);
    type Out = FleetRow;

    fn name(&self) -> &str {
        &self.sc.name
    }

    fn points(&self) -> Vec<(u32, String)> {
        cross2(self.sc.hosts.clone(), self.sc.shapes.clone())
    }

    /// One point on its own, its hosts one after another.
    fn measure(&self, (hosts, shape): &(u32, String)) -> FleetRow {
        let spec = lower(&self.sc, *hosts, shape, self.scale);
        let report = run_point(&spec).unwrap_or_else(|e| failed(*hosts, shape, e));
        row_of(*hosts, shape, &report)
    }

    /// Every (point, host) shard of the sweep on one `jobs` pool, then
    /// each point's shards merged in host order. A point's shards are
    /// adjacent in the list and results come back in list order, so no
    /// lock is held and the schedule never reaches the rows.
    fn run(&self, jobs: Jobs) -> SweepResult<(u32, String), FleetRow> {
        let points = self.points();
        let start = Instant::now();
        let specs: Vec<FleetSpec> = points
            .iter()
            .map(|(hosts, shape)| {
                let spec = lower(&self.sc, *hosts, shape, self.scale);
                spec.validate().unwrap_or_else(|e| failed(*hosts, shape, e));
                spec
            })
            .collect();
        let shards: Vec<(usize, u32)> = specs
            .iter()
            .enumerate()
            .flat_map(|(point, spec)| (0..spec.hosts).map(move |host| (point, host)))
            .collect();
        let mut results = map_ordered(jobs.get(), &shards, |&(point, host)| {
            run_host(&specs[point], host)
        })
        .into_iter();
        let rows = points
            .iter()
            .zip(&specs)
            .map(|((hosts, shape), spec)| {
                let report = results
                    .by_ref()
                    .take(spec.hosts as usize)
                    .collect::<Result<Vec<_>, _>>()
                    .and_then(|shards| merge(spec, shards))
                    .unwrap_or_else(|e| failed(*hosts, shape, e));
                row_of(*hosts, shape, &report)
            })
            .collect::<Vec<_>>();
        SweepResult {
            name: self.sc.name.clone(),
            jobs: jobs.get().min(shards.len()).max(1),
            wall: start.elapsed(),
            points: points.into_iter().zip(rows).collect(),
        }
    }
}

/// The sweep of an arbitrary loaded fleet scenario.
pub fn experiment_for(sc: &FleetScenario, scale: Scale) -> FleetSweep {
    FleetSweep {
        sc: sc.clone(),
        scale,
    }
}

/// Run the committed sweep.
pub fn run(scale: Scale) -> Vec<FleetRow> {
    experiment_for(scenario(), scale)
        .run(Jobs::serial())
        .into_outputs()
}

/// Run at the CLI's settings; print the table unless `--json`; return
/// the machine-readable sweep value. Stdout is byte-identical at any
/// `--jobs`.
pub fn run_cli(cli: &Cli) -> serde::Value {
    run_cli_for(scenario(), cli)
}

/// [`run_cli`] against an arbitrary loaded fleet scenario.
pub fn run_cli_for(sc: &FleetScenario, cli: &Cli) -> serde::Value {
    crate::cli::run_sweep_cli(cli, &experiment_for(sc, cli.scale), |r| {
        print_for(
            sc,
            &r.points.iter().map(|(_, p)| p.clone()).collect::<Vec<_>>(),
        )
    })
}

/// Print the fleet table.
pub fn print(rows: &[FleetRow]) {
    print_for(scenario(), rows)
}

/// Print the fleet table of an arbitrary fleet scenario.
pub fn print_for(sc: &FleetScenario, rows: &[FleetRow]) {
    println!(
        "# Fleet scale-out (extension): {} req/s Poisson over {} tenant(s), \
         link {:.0} ns + {:.0} Gbit/s, SLO {:.0} ms",
        sc.rate_rps,
        sc.traffic.tenants(),
        sc.link_latency_ns,
        sc.link_gbps,
        sc.policy.slo_ns / 1e6
    );
    println!(
        "{:>6} {:>6} {:>9} {:>8} {:>8} {:>8} {:>7} {:>5} {:>10} {:>10} {:>9} {:>9} {:>9}",
        "hosts",
        "shape",
        "endpts",
        "offered",
        "admitted",
        "rejected",
        "rounds",
        "peak",
        "p50 (µs)",
        "p99 (µs)",
        "net p50",
        "thruput",
        "goodput"
    );
    for r in rows {
        println!(
            "{:>6} {:>6} {:>9} {:>8} {:>8} {:>8} {:>7} {:>5} {:>10.1} {:>10.1} {:>9.1} {:>9.0} {:>9.0}",
            r.hosts,
            r.shape,
            r.endpoints,
            r.offered,
            r.admitted,
            r.rejected,
            r.rounds,
            r.peak_batch,
            r.p50_ns / 1e3,
            r.p99_ns / 1e3,
            r.net_p50_ns / 1e3,
            r.throughput_rps,
            r.goodput_rps
        );
    }
    println!("# expected: the same trace spread over more hosts/leaves lifts throughput");
    println!("# toward the offered rate and shrinks queueing in p99; the network share");
    println!("# stays at the link floor (2x latency + 2x serialization)");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_committed_sweep_reaches_a_1024_endpoint_fleet() {
        let sc = scenario();
        let &hosts = sc.hosts.iter().max().expect("hosts swept");
        let shape = sc.shapes.last().expect("shapes swept");
        assert!(
            sc.endpoints(hosts, shape) >= 1024,
            "the top grid point must simulate >= 1024 endpoints"
        );
    }

    #[test]
    fn every_committed_grid_point_lowers_to_a_valid_fleet_spec() {
        let sc = scenario();
        for &hosts in &sc.hosts {
            for shape in &sc.shapes {
                for scale in [Scale::Quick, Scale::Paper] {
                    let spec = lower(sc, hosts, shape, scale);
                    spec.validate()
                        .unwrap_or_else(|e| panic!("({hosts} hosts, {shape}, {scale:?}): {e}"));
                }
            }
        }
    }

    #[test]
    fn the_flat_shard_schedule_is_deterministic_across_jobs() {
        // 1 + 3 + 5 hosts: at jobs 2 and 4, shards of different points
        // run side by side and finish out of order. The full grid runs
        // in CI.
        let mut small = scenario().clone();
        small.hosts = vec![1, 3, 5];
        small.shapes = vec!["2".to_string()];
        let run = |jobs: Jobs| experiment_for(&small, Scale::Quick).run(jobs);
        let serial = run(Jobs::serial());
        let json = serial.to_json().expect("fleet rows serialize");
        for jobs in [2, 4] {
            assert_eq!(
                run(Jobs::new(jobs))
                    .to_json()
                    .expect("fleet rows serialize"),
                json,
                "jobs={jobs}"
            );
        }
        assert_eq!(serial.points.len(), 3);
        for ((hosts, shape), row) in &serial.points {
            let report =
                run_point(&lower(&small, *hosts, shape, Scale::Quick)).expect("fleet point runs");
            assert_eq!(
                serde_json::to_string(row).expect("row serializes"),
                serde_json::to_string(&row_of(*hosts, shape, &report)).expect("row serializes"),
                "({hosts} hosts, {shape})"
            );
        }
        assert!(
            serial.outputs().all(|row| row.completed > 0),
            "every demo point must serve something"
        );
    }

    #[test]
    fn more_capacity_never_loses_throughput_on_the_committed_grid_edge() {
        // Same trace, one host vs the smallest committed host count:
        // adding hosts must not reduce completions.
        let sc = scenario();
        let shape = &sc.shapes[0];
        let one = run_point(&lower(sc, 1, shape, Scale::Quick)).expect("1-host fleet runs");
        let &few = sc.hosts.first().expect("hosts swept");
        let spread =
            run_point(&lower(sc, few, shape, Scale::Quick)).expect("committed fleet point runs");
        assert_eq!(one.offered, spread.offered, "same frontend trace");
        assert!(
            spread.completed >= one.completed,
            "spreading the trace over {few} hosts lost completions: {} < {}",
            spread.completed,
            one.completed
        );
    }
}
