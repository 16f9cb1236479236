//! Extension experiment — online serving: open-loop traffic through the
//! continuous-batching engine, across arrival rates and tree shapes.
//!
//! Every other experiment in this crate is closed-loop: a fixed
//! workload, a makespan. This one is open-loop — requests arrive on
//! their own clock (seeded Poisson, two tenants) and the measured
//! quantities are the serving ones: p50/p99/p99.9 latency, goodput
//! under an SLO, rejections past the admission bound. Each point
//! serves the same trace twice on the same tree:
//!
//! * **batched** — continuous batching up to the policy's cap
//!   (`2 × endpoints` for `batch_cap = "auto"`), folded in and out at
//!   round barriers (round-robin across tenants);
//! * **sequential** — the same engine clamped to one request in flight,
//!   which is exactly what the pre-serving sequential drivers would do:
//!   finish a request end to end before looking at the queue again.
//!
//! The testbed, request shape, traffic, policy and sweep axes lower
//! from the committed `specs/two_tenant_mix.spec`. The ratio of
//! saturation goodput between the two regimes is the win the serving
//! layer extracts from hardware the topology already paid for; this
//! module's tests hold it above 1.

use crate::cli::Cli;
use crate::topo::parse_shape;
use crate::Scale;
use accesys_exp::{Experiment, Grid};
use accesys_serve::{serve, ServeConfig, ServeReport};
use accesys_spec::ServingScenario;

/// One serving measurement: one arrival rate on one tree shape.
#[derive(Clone, Debug, serde::Serialize)]
pub struct ServeRow {
    /// Offered arrival rate, requests per second.
    pub rate_rps: f64,
    /// Tree shape (per-level fan-outs, `x`-separated).
    pub shape: String,
    /// Leaf endpoints (= devices the batch can spread over).
    pub endpoints: u32,
    /// Arrivals offered over the horizon.
    pub offered: u64,
    /// Requests admitted (batched run).
    pub admitted: u64,
    /// Requests rejected at the admission bound (batched run).
    pub rejected: u64,
    /// Batching rounds executed (batched run).
    pub rounds: u64,
    /// Peak requests in flight (batched run).
    pub peak_batch: usize,
    /// Median latency, ns (batched run).
    pub p50_ns: f64,
    /// 99th-percentile latency, ns (batched run).
    pub p99_ns: f64,
    /// 99.9th-percentile latency, ns (batched run).
    pub p999_ns: f64,
    /// Within-SLO completions per second, batched.
    pub goodput_rps: f64,
    /// Within-SLO completions per second, one-request-at-a-time.
    pub sequential_goodput_rps: f64,
    /// `goodput_rps / sequential_goodput_rps` — the serving-layer win
    /// (1.0 when both serve everything, i.e. below saturation).
    pub goodput_gain: f64,
}

/// Serve the point's trace once at `batch_cap` requests in flight.
fn serve_once(
    sc: &ServingScenario,
    rate: f64,
    levels: &[u32],
    batch_cap: usize,
    scale: Scale,
) -> ServeReport {
    let arrivals = sc.traffic.arrivals(rate, scale);
    let mut sim = sc
        .system
        .simulation(levels)
        .expect("validated spec testbed builds");
    serve(
        &mut sim,
        &sc.request,
        &arrivals,
        &sc.policy.policy(),
        &ServeConfig::new(batch_cap, sc.policy.queue_cap).with_slo_ns(sc.policy.slo_ns),
    )
    .expect("serving completes")
}

/// Measure one (rate, shape) point of `sc`: batched vs sequential
/// dispatch.
pub fn measure_for(sc: &ServingScenario, rate: f64, shape: &str, scale: Scale) -> ServeRow {
    let levels = parse_shape(shape);
    let endpoints: u32 = levels.iter().product();
    let batched = serve_once(sc, rate, &levels, sc.policy.batch_cap.cap(endpoints), scale);
    let sequential = serve_once(sc, rate, &levels, 1, scale);
    ServeRow {
        rate_rps: rate,
        shape: shape.to_string(),
        endpoints,
        offered: batched.offered,
        admitted: batched.admitted,
        rejected: batched.rejected,
        rounds: batched.rounds,
        peak_batch: batched.peak_batch,
        p50_ns: batched.latency.p50_ns,
        p99_ns: batched.latency.p99_ns,
        p999_ns: batched.latency.p999_ns,
        goodput_rps: batched.goodput_rps,
        sequential_goodput_rps: sequential.goodput_rps,
        goodput_gain: goodput_gain(batched.goodput_rps, sequential.goodput_rps),
    }
}

/// Batched over sequential goodput: ∞ when only the batched serve met
/// the SLO, 1.0 when neither did.
pub(crate) fn goodput_gain(batched_rps: f64, sequential_rps: f64) -> f64 {
    if sequential_rps > 0.0 {
        batched_rps / sequential_rps
    } else if batched_rps > 0.0 {
        f64::INFINITY
    } else {
        1.0
    }
}

/// `sc` as a declarative experiment: rate × shape, row-major.
pub fn experiment_for(
    sc: &ServingScenario,
    scale: Scale,
) -> impl Experiment<Point = (f64, String), Out = ServeRow> {
    let sc = sc.clone();
    Grid::cross2(sc.name.clone(), sc.rates.clone(), sc.shapes.clone())
        .sweep(move |(rate, shape)| measure_for(&sc, *rate, shape, scale))
}

/// Run `sc` at the CLI's settings; print the table unless `--json`;
/// return the machine-readable sweep value.
pub fn run_cli_for(sc: &ServingScenario, cli: &Cli) -> serde::Value {
    crate::cli::run_sweep_cli(cli, &experiment_for(sc, cli.scale), |r| {
        print_for(sc, &r.outputs().cloned().collect::<Vec<_>>(), cli.scale)
    })
}

/// Print the serving table of an arbitrary serving scenario.
pub fn print_for(sc: &ServingScenario, rows: &[ServeRow], _scale: Scale) {
    let s = sc.request;
    println!(
        "# Online serving (extension): {}-slice encoder requests \
         ({}x{}, {} heads, mlp {}), {} traffic, \
         SLO {:.0} ms",
        s.slices,
        s.seq,
        s.hidden,
        s.heads,
        s.mlp,
        traffic_label(sc),
        sc.policy.slo_ns / 1e6
    );
    println!(
        "{:>8} {:>6} {:>8} {:>9} {:>6} {:>10} {:>10} {:>10} {:>10} {:>9} {:>6}",
        "rate",
        "shape",
        "offered",
        "rejected",
        "batch",
        "p50 (µs)",
        "p99 (µs)",
        "p99.9(µs)",
        "goodput",
        "seq good",
        "gain"
    );
    for r in rows {
        println!(
            "{:>8.0} {:>6} {:>8} {:>9} {:>6} {:>10.0} {:>10.0} {:>10.0} {:>10.1} {:>9.1} {:>5.2}x",
            r.rate_rps,
            r.shape,
            r.offered,
            r.rejected,
            r.peak_batch,
            r.p50_ns / 1e3,
            r.p99_ns / 1e3,
            r.p999_ns / 1e3,
            r.goodput_rps,
            r.sequential_goodput_rps,
            r.goodput_gain
        );
    }
    println!("# expected: below saturation both serve everything (gain ~1x);");
    println!("# past it, batching over >1 leaf holds goodput the sequential loop sheds");
}

/// A short human label for the scenario's arrival process.
fn traffic_label(sc: &ServingScenario) -> String {
    match &sc.traffic.process {
        accesys_spec::TrafficProcess::Poisson { tenants, .. } => {
            format!("Poisson {tenants}-tenant")
        }
        accesys_spec::TrafficProcess::Bursty { tenants, .. } => format!("bursty {tenants}-tenant"),
        accesys_spec::TrafficProcess::Trace(arrivals) => {
            format!("{}-arrival trace", arrivals.len())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accesys_exp::Jobs;

    fn scenario() -> ServingScenario {
        match crate::specs::load("two_tenant_mix").scenario {
            accesys_spec::Scenario::Serving(sc) => sc,
            _ => unreachable!(),
        }
    }

    #[test]
    fn goodput_gain_is_the_ratio_with_infinite_and_even_edges() {
        assert_eq!(goodput_gain(300.0, 100.0), 3.0);
        assert_eq!(goodput_gain(5.0, 0.0), f64::INFINITY);
        assert_eq!(goodput_gain(0.0, 0.0), 1.0);
    }

    #[test]
    fn saturation_goodput_beats_sequential_dispatch_on_a_multi_leaf_tree() {
        // The acceptance shape: at the top swept rate on the four-leaf
        // tree, continuous batching must out-serve one-at-a-time
        // dispatch outright.
        let sc = scenario();
        let row = measure_for(&sc, sc.rates[2], "2x2", Scale::Quick);
        assert_eq!(row.endpoints, 4);
        assert!(row.peak_batch > 1, "batching never engaged: {row:?}");
        assert!(
            row.goodput_gain > 1.0,
            "batched goodput should beat sequential at saturation, got {:.2}x",
            row.goodput_gain
        );
    }

    #[test]
    fn below_saturation_everything_is_served_either_way() {
        let sc = scenario();
        let row = measure_for(&sc, sc.rates[0], "2", Scale::Quick);
        assert_eq!(row.rejected, 0, "no load shedding below saturation");
        assert_eq!(row.admitted, row.offered);
        assert!(
            (0.8..=1.25).contains(&row.goodput_gain),
            "gain should be ~1x below saturation, got {:.2}x",
            row.goodput_gain
        );
    }

    #[test]
    fn sweep_is_deterministic_across_worker_counts() {
        // One rate on a flat and a depth-2 tree; the full grid is pinned
        // by the `exp all` golden at jobs 1 and 4.
        let mut small = scenario();
        small.rates = vec![small.rates[1]];
        small.shapes = ["2", "2x2"].map(String::from).to_vec();
        let run = |jobs: Jobs| experiment_for(&small, Scale::Quick).run(jobs).to_json();
        assert_eq!(run(Jobs::serial()).unwrap(), run(Jobs::new(4)).unwrap());
    }
}
