//! The traced run: each workload's sweep re-composed from the public
//! calls of every layer, with a span around each call.
//!
//! The re-composition mirrors the experiment code `accesys run` executes
//! (`accesys_bench::{fig2, decode, fleet}` and the fleet crate's
//! in-process pool) call for call, so it computes the same thing; the
//! benchmark proves that on every traced run by comparing its output
//! digest with the untraced run's. A change to that code's call
//! sequence must be mirrored here, or the digests part.

use crate::trace::Recorder;
use accesys::analytic::RooflinePoint;
use accesys::sim::{Histogram, Stats};
use accesys_bench::decode::DecodeRow;
use accesys_bench::fleet::{lower, FleetRow};
use accesys_bench::topo::parse_shape;
use accesys_exp::{cross2, cross3, pool, Scale, SweepResult};
use accesys_fleet::{merge, route, FleetReport, FleetSpec, HostResult, HostTenant, WireHist};
use accesys_serve::{serve_llm, serve_traced, Arrival, LlmServeConfig, LlmServeReport};
use accesys_spec::{DecodeScenario, FleetScenario, RooflineScenario, Scenario, Spec};
use accesys_workload::GemmSpec;
use std::sync::Mutex;
use std::time::Instant;

/// The simulated counters the benchmark reports, each summed over every
/// module instance whose stats key matches.
pub const MODEL_COUNTERS: [&str; 6] = [
    "model.tlps",
    "model.dram_reads",
    "model.dram_writes",
    "model.llc_misses",
    "model.iocache_misses",
    "model.smmu_translations",
];

/// Which [`MODEL_COUNTERS`] entry a `Simulation::stats` key feeds.
fn model_counter(key: &str) -> Option<usize> {
    let dram = key.starts_with("host_mem.") || key.starts_with("dev_mem");
    if key.starts_with("link.") && key.ends_with(".tlps") {
        Some(0)
    } else if dram && key.ends_with(".reads") {
        Some(1)
    } else if dram && key.ends_with(".writes") {
        Some(2)
    } else if key.starts_with("llc") && key.ends_with(".misses") {
        Some(3)
    } else if key.starts_with("iocache") && key.ends_with(".misses") {
        Some(4)
    } else if key.starts_with("smmu") && key.ends_with(".translations") {
        Some(5)
    } else {
        None
    }
}

/// Simulated totals over every simulation a traced sweep ran.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SimTotals {
    /// Simulations that served requests without processing a single
    /// event. (A serving point whose trace has no arrivals simulates
    /// nothing, which is not a failure.)
    pub idle_simulations: u64,
    /// Kernel events processed.
    pub events: u64,
    /// Highest event-queue depth any simulation reached.
    pub peak_queue_depth: u64,
    /// Requests served to completion (a roofline GEMM counts as one).
    pub requests: u64,
    /// Requests admitted but never completed.
    pub unserved: u64,
    /// Serving rounds executed.
    pub rounds: u64,
    /// KV eviction/restore transfer tasks added to round graphs.
    pub kv_transfer_tasks: u64,
    /// KV bytes evicted to host memory.
    pub kv_evicted_bytes: u64,
    /// [`MODEL_COUNTERS`], in order.
    pub model: [u64; 6],
}

impl SimTotals {
    /// Fold in one finished simulation that served `requests` requests.
    fn add_simulation(&mut self, stats: &Stats, requests: u64) {
        let events = stats.get_or_zero("kernel.events") as u64;
        self.idle_simulations += u64::from(events == 0 && requests > 0);
        self.events += events;
        self.peak_queue_depth = self
            .peak_queue_depth
            .max(stats.get_or_zero("kernel.peak_queue_depth") as u64);
        self.requests += requests;
        for (key, value) in stats.iter() {
            if let Some(i) = model_counter(key) {
                self.model[i] += *value as u64;
            }
        }
    }

    fn merge(&mut self, other: &SimTotals) {
        self.idle_simulations += other.idle_simulations;
        self.events += other.events;
        self.peak_queue_depth = self.peak_queue_depth.max(other.peak_queue_depth);
        self.requests += other.requests;
        self.unserved += other.unserved;
        self.rounds += other.rounds;
        self.kv_transfer_tasks += other.kv_transfer_tasks;
        self.kv_evicted_bytes += other.kv_evicted_bytes;
        for (a, b) in self.model.iter_mut().zip(other.model) {
            *a += b;
        }
    }
}

/// What a traced sweep produced.
#[derive(Debug)]
pub struct TracedSweep {
    /// The sweep's JSON value, the same shape `accesys run --json` prints.
    pub value: serde::Value,
    /// Simulated totals over the sweep.
    pub totals: SimTotals,
    /// Host seconds from the first point's start to the last result.
    pub wall_s: f64,
    /// Worker threads the sweep ran on.
    pub jobs: usize,
    /// Points whose simulations broke the accounting: `(point, why)`.
    pub failed_points: Vec<(usize, String)>,
}

/// Run `spec`'s sweep traced on up to `jobs` workers, recording spans
/// into `rec`.
///
/// # Panics
///
/// When a point fails, as the untraced sweep does, or the scenario is
/// of a kind the benchmark does not run.
pub fn run_traced(spec: &Spec, scale: Scale, jobs: usize, rec: &mut Recorder) -> TracedSweep {
    match &spec.scenario {
        Scenario::Roofline(sc) => roofline(sc, scale, jobs, rec),
        Scenario::Decode(sc) => decode(sc, scale, jobs, rec),
        Scenario::Fleet(sc) => fleet(sc, scale, jobs, rec),
        other => panic!("no benchmark workload runs `{}` scenarios", other.kind()),
    }
}

/// The `accesys_exp` sweep runner with a span per point: points run on
/// `pool::map_ordered` exactly as `Experiment::run` schedules them.
fn sweep<P, O>(
    name: &str,
    points: Vec<P>,
    jobs: usize,
    rec: &mut Recorder,
    measure: impl Fn(&P, &mut Recorder, &mut SimTotals) -> O + Sync,
) -> TracedSweep
where
    P: Clone + Send + Sync + serde::Serialize,
    O: Send + serde::Serialize,
{
    let epoch = rec.epoch();
    let indexed: Vec<(usize, P)> = points.iter().cloned().enumerate().collect();
    let mut totals = SimTotals::default();
    let mut failed_points = Vec::new();
    let (outs, wall) = rec.span("exp.sweep", |r| {
        let start = Instant::now();
        let results = pool::map_ordered(jobs, &indexed, |(i, p)| {
            let mut point = Recorder::new(epoch, Some(*i));
            let mut point_totals = SimTotals::default();
            let out = point.span("exp.point", |r| measure(p, r, &mut point_totals));
            (out, point, point_totals)
        });
        let wall = start.elapsed();
        let mut outs = Vec::with_capacity(results.len());
        for (i, (out, point, point_totals)) in results.into_iter().enumerate() {
            if point_totals.idle_simulations > 0 {
                failed_points.push((i, "a simulation processed no kernel events".to_string()));
            }
            if point_totals.unserved > 0 {
                let why = format!(
                    "{} admitted requests never completed",
                    point_totals.unserved
                );
                failed_points.push((i, why));
            }
            r.absorb(point);
            totals.merge(&point_totals);
            outs.push(out);
        }
        (outs, wall)
    });
    let result = SweepResult {
        name: name.to_string(),
        jobs: jobs.min(points.len()).max(1),
        wall,
        points: points.into_iter().zip(outs).collect(),
    };
    TracedSweep {
        value: serde::Serialize::to_value(&result),
        totals,
        wall_s: wall.as_secs_f64(),
        jobs: result.jobs,
        failed_points,
    }
}

/// `fig2::experiment_for`: one host simulation and one GEMM per point.
fn roofline(sc: &RooflineScenario, scale: Scale, jobs: usize, rec: &mut Recorder) -> TracedSweep {
    let matrix = sc.matrix.pick(scale);
    sweep(
        &sc.name,
        sc.compute_ns.clone(),
        jobs,
        rec,
        |&compute_ns, r, totals| {
            let mut sim = r
                .span("topology.build", |_| sc.system.host_simulation(compute_ns))
                .expect("validated spec testbed builds");
            let exec_ns = r
                .span("sim.run", |_| sim.run_gemm(GemmSpec::square(matrix)))
                .expect("gemm completes")
                .total_time_ns();
            totals.add_simulation(&sim.stats(), 1);
            RooflinePoint {
                compute_ns,
                exec_ns,
            }
        },
    )
}

/// `decode::serve_once`: serve the point's trace once at `batch_cap`.
#[allow(clippy::too_many_arguments)]
fn serve_once(
    sc: &DecodeScenario,
    rate: f64,
    levels: &[u32],
    batch_cap: usize,
    budget_bytes: u64,
    scale: Scale,
    r: &mut Recorder,
    totals: &mut SimTotals,
) -> LlmServeReport {
    let arrivals = r.span("arrivals.gen", |r| {
        let arrivals = sc.traffic.arrivals(rate, scale);
        r.count(arrivals.len() as u64);
        arrivals
    });
    let mut sim = r
        .span("topology.build", |_| sc.system.simulation(levels))
        .expect("validated spec testbed builds");
    let report = r
        .span("serve.run", |_| {
            serve_llm(
                &mut sim,
                &sc.request,
                &arrivals,
                &sc.policy.policy(),
                &LlmServeConfig::new(batch_cap, sc.policy.queue_cap, budget_bytes)
                    .with_slo_ns(sc.policy.slo_ns),
            )
        })
        .expect("decode serving completes");
    totals.add_simulation(&sim.stats(), report.completed);
    totals.unserved += report.admitted.saturating_sub(report.completed);
    totals.rounds += report.rounds;
    totals.kv_transfer_tasks += report.kv.transfer_tasks;
    totals.kv_evicted_bytes += report.kv.evicted_bytes;
    report
}

/// `decode::measure_for`: batched vs sequential serving per point.
fn decode(sc: &DecodeScenario, scale: Scale, jobs: usize, rec: &mut Recorder) -> TracedSweep {
    let points = cross3(sc.rates.clone(), sc.shapes.clone(), sc.budgets.clone());
    sweep(
        &sc.name,
        points,
        jobs,
        rec,
        |(rate, shape, budget), r, totals| {
            let rate = *rate;
            let levels = parse_shape(shape);
            let endpoints: u32 = levels.iter().product();
            let budget_bytes = sc
                .kv
                .budget_bytes(budget, &sc.request)
                .unwrap_or_else(|| panic!("unknown KV budget regime {budget:?}"));
            let batch_cap = sc.policy.batch_cap.cap(endpoints);
            let batched = serve_once(sc, rate, &levels, batch_cap, budget_bytes, scale, r, totals);
            let sequential = serve_once(sc, rate, &levels, 1, budget_bytes, scale, r, totals);
            let gain = if sequential.goodput_rps > 0.0 {
                batched.goodput_rps / sequential.goodput_rps
            } else if batched.goodput_rps > 0.0 {
                f64::INFINITY
            } else {
                1.0
            };
            DecodeRow {
                rate_rps: rate,
                shape: shape.clone(),
                budget: budget.clone(),
                endpoints,
                kv_budget: budget_bytes,
                offered: batched.offered,
                admitted: batched.admitted,
                rejected: batched.rejected,
                rounds: batched.rounds,
                mixed_rounds: batched.mixed_rounds,
                peak_batch: batched.peak_batch,
                tokens: batched.tokens_decoded,
                decode_tps: batched.decode_tps,
                p50_ns: batched.latency.p50_ns,
                p99_ns: batched.latency.p99_ns,
                ttft_p50_ns: batched.ttft.p50_ns,
                kv_evictions: batched.kv.evictions,
                kv_evicted_bytes: batched.kv.evicted_bytes,
                kv_transfer_tasks: batched.kv.transfer_tasks,
                goodput_rps: batched.goodput_rps,
                sequential_goodput_rps: sequential.goodput_rps,
                goodput_gain: gain,
            }
        },
    )
}

/// `fleet::measure_for` on the in-process pool: every point takes the
/// pool's one lock, then runs its hosts one after another and merges.
fn fleet(sc: &FleetScenario, scale: Scale, jobs: usize, rec: &mut Recorder) -> TracedSweep {
    let pool_lock = Mutex::new(());
    let points = cross2(sc.hosts.clone(), sc.shapes.clone());
    sweep(&sc.name, points, jobs, rec, |(hosts, shape), r, totals| {
        let spec = lower(sc, *hosts, shape, scale);
        let _pool = r.span("fleet.pool_wait", |_| {
            pool_lock.lock().expect("fleet pool lock")
        });
        spec.validate()
            .unwrap_or_else(|e| panic!("fleet run ({hosts} hosts, shape {shape}): {e}"));
        let results = (0..spec.hosts)
            .map(|host| r.span("fleet.host", |r| run_host(&spec, host, r, totals)))
            .collect();
        let report = r
            .span("fleet.merge", |_| merge(&spec, results))
            .unwrap_or_else(|e| panic!("fleet run ({hosts} hosts, shape {shape}): {e}"));
        row_of(*hosts, shape, &report)
    })
}

/// `accesys_fleet::run_host`, with spans around trace generation, the
/// host build and the serve.
fn run_host(spec: &FleetSpec, host: u32, r: &mut Recorder, totals: &mut SimTotals) -> HostResult {
    spec.validate()
        .unwrap_or_else(|e| panic!("fleet host {host}: {e}"));
    let fleet_trace = r.span("arrivals.gen", |r| {
        let arrivals = spec.traffic.arrivals();
        r.count(arrivals.len() as u64);
        arrivals
    });
    // The ingress link: a FIFO serialization stage plus propagation
    // latency over this host's round-robin share of the trace.
    let ser_ns = spec.link.ser_ns();
    let mut busy_ns = 0.0f64;
    let mut delivered = Vec::new();
    for (i, a) in fleet_trace.iter().enumerate() {
        if route(i, spec.hosts) != host {
            continue;
        }
        busy_ns = (a.at_ns as f64).max(busy_ns) + ser_ns;
        let host_ns = (busy_ns + spec.link.latency_ns).ceil() as u64;
        delivered.push((a.at_ns, host_ns, a.tenant));
    }
    let host_trace: Vec<Arrival> = delivered
        .iter()
        .map(|&(_, at_ns, tenant)| Arrival { at_ns, tenant })
        .collect();

    let mut sim = r
        .span("topology.build", |_| spec.host_simulation())
        .unwrap_or_else(|e| panic!("fleet host {host}: {e}"));
    let (report, completions) = r
        .span("serve.run", |_| {
            serve_traced(
                &mut sim,
                &spec.request,
                &host_trace,
                &spec.policy.policy(),
                &spec.serve_config(),
            )
        })
        .unwrap_or_else(|e| panic!("fleet host {host}: {e}"));
    totals.add_simulation(&sim.stats(), report.completed);
    totals.unserved += report.admitted.saturating_sub(report.completed);
    totals.rounds += report.rounds;

    let return_ns = spec.link.ser_ns() + spec.link.latency_ns;
    let slo = spec.policy.slo();
    let tenant_count = spec.traffic.tenants.max(1) as usize;
    let mut e2e = Histogram::new();
    let mut network = Histogram::new();
    let mut e2e_by_tenant = vec![Histogram::new(); tenant_count];
    let mut within_slo = 0u64;
    let mut makespan_ns = 0.0f64;
    for c in &completions {
        let (frontend_ns, host_ns, _) = delivered[c.id as usize];
        let back_ns = c.done_ns + return_ns;
        let e2e_ns = back_ns - frontend_ns as f64;
        e2e.observe(e2e_ns);
        network.observe((host_ns - frontend_ns) as f64 + return_ns);
        if let Some(h) = e2e_by_tenant.get_mut(c.tenant as usize) {
            h.observe(e2e_ns);
        }
        within_slo += u64::from(e2e_ns <= slo);
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
    HostResult {
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
    }
}

/// `fleet::row_of`.
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
