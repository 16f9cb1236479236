//! Extension experiment — batched autoregressive decode: open-loop LLM
//! traffic through the prefill/decode serving engine, across arrival
//! rates, tree shapes and KV budgets.
//!
//! Decode is the serving regime the paper's interconnect questions bite
//! hardest in: every round is a batch of skinny memory-bound GEMMs,
//! and the working set that decides who runs where is the KV cache
//! growing in each leaf's `devmem` slice. Each point compares two
//! serves of the same seeded Poisson trace on the same tree:
//!
//! * **batched** — continuous batching up to the policy's cap
//!   (`2 × endpoints` for `batch_cap = "auto"`): prefills fold in at
//!   round barriers next to the veterans' decode slices.
//! * **sequential** — the same engine clamped to one request in flight:
//!   prefill, decode to EOS, only then look at the queue again.
//!
//! The third axis is the per-device KV budget: **ample** (slices never
//! fill) vs **tight** (a fraction over one request's worth — concurrent
//! decoders must evict each other, and the pressure shows up as
//! host-memory `Transfer` traffic in the row). One request in flight
//! never makes the KV cache evict, so the sequential serve is the same
//! under every budget: [`DecodeSweep`] runs it once per (rate, shape)
//! pair and puts it, with every point's batched serve, on the sweep's
//! `--jobs` threads as one flat list.
//!
//! The testbed, request shape, traffic, policy, budgets and sweep axes
//! lower from the committed `specs/llm_decode.spec`; this module's tests
//! hold the saturation goodput ratio and the tight-budget evictions to
//! their bars.

use crate::cli::Cli;
use crate::serve::goodput_gain;
use crate::topo::parse_shape;
use crate::Scale;
use accesys_exp::pool::map_ordered;
use accesys_exp::{cross3, Experiment, Jobs, SweepResult};
use accesys_serve::{serve_llm, Arrival, LlmServeConfig, LlmServeReport};
use accesys_spec::DecodeScenario;
use std::cmp::Reverse;
use std::time::Instant;

/// One decode-serving measurement: one arrival rate on one tree shape
/// under one KV budget.
#[derive(Clone, Debug, serde::Serialize)]
pub struct DecodeRow {
    /// Offered arrival rate, requests per second.
    pub rate_rps: f64,
    /// Tree shape (per-level fan-outs, `x`-separated).
    pub shape: String,
    /// KV budget regime (`ample` or `tight`).
    pub budget: String,
    /// Leaf endpoints (= devices KV homes spread over).
    pub endpoints: u32,
    /// Per-device KV budget, bytes.
    pub kv_budget: u64,
    /// Arrivals offered over the horizon.
    pub offered: u64,
    /// Requests admitted (batched run).
    pub admitted: u64,
    /// Requests rejected at the admission bound (batched run).
    pub rejected: u64,
    /// Batching rounds executed (batched run).
    pub rounds: u64,
    /// Rounds mixing prefill and decode slices (batched run).
    pub mixed_rounds: u64,
    /// Peak requests in flight (batched run).
    pub peak_batch: usize,
    /// Decode tokens generated (batched run).
    pub tokens: u64,
    /// Decode tokens per second of serving time (batched run).
    pub decode_tps: f64,
    /// Median arrival→EOS latency, ns (batched run).
    pub p50_ns: f64,
    /// 99th-percentile arrival→EOS latency, ns (batched run).
    pub p99_ns: f64,
    /// Median time-to-first-token, ns (batched run).
    pub ttft_p50_ns: f64,
    /// KV evictions forced by the budget (batched run).
    pub kv_evictions: u64,
    /// KV bytes offloaded to host memory (batched run).
    pub kv_evicted_bytes: u64,
    /// KV eviction/restore `Transfer` tasks added to round graphs.
    pub kv_transfer_tasks: u64,
    /// Within-SLO completions per second, batched.
    pub goodput_rps: f64,
    /// Within-SLO completions per second, one-request-at-a-time.
    pub sequential_goodput_rps: f64,
    /// `goodput_rps / sequential_goodput_rps` — the continuous-batching
    /// win (1.0 when both serve everything, i.e. below saturation).
    pub goodput_gain: f64,
}

/// What a point's serves are built from: its tree, its per-device KV
/// budget and its batched cap.
struct Setup {
    levels: Vec<u32>,
    budget_bytes: u64,
    batch_cap: usize,
}

impl Setup {
    fn of(sc: &DecodeScenario, shape: &str, budget: &str) -> Setup {
        let levels = parse_shape(shape);
        let endpoints: u32 = levels.iter().product();
        let budget_bytes = sc
            .kv
            .budget_bytes(budget, &sc.request)
            .unwrap_or_else(|| panic!("unknown KV budget regime {budget:?}"));
        Setup {
            levels,
            budget_bytes,
            batch_cap: sc.policy.batch_cap.cap(endpoints),
        }
    }
}

/// Serve `arrivals` once on the point's tree at `batch_cap` requests in
/// flight.
fn serve_once(
    sc: &DecodeScenario,
    arrivals: &[Arrival],
    setup: &Setup,
    batch_cap: usize,
) -> LlmServeReport {
    let mut sim = sc
        .system
        .simulation(&setup.levels)
        .expect("validated spec testbed builds");
    serve_llm(
        &mut sim,
        &sc.request,
        arrivals,
        &sc.policy.policy(),
        &LlmServeConfig::new(batch_cap, sc.policy.queue_cap, setup.budget_bytes)
            .with_slo_ns(sc.policy.slo_ns),
    )
    .expect("decode serving completes")
}

/// The row of one (rate, shape, budget) point from its two serves.
fn row_of(
    rate: f64,
    shape: &str,
    budget: &str,
    setup: &Setup,
    batched: &LlmServeReport,
    sequential: &LlmServeReport,
) -> DecodeRow {
    DecodeRow {
        rate_rps: rate,
        shape: shape.to_string(),
        budget: budget.to_string(),
        endpoints: setup.levels.iter().product(),
        kv_budget: setup.budget_bytes,
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
        goodput_gain: goodput_gain(batched.goodput_rps, sequential.goodput_rps),
    }
}

/// Measure one (rate, shape, budget) point of `sc` on its own: its
/// batched serve, then its sequential serve.
pub fn measure_for(
    sc: &DecodeScenario,
    rate: f64,
    shape: &str,
    budget: &str,
    scale: Scale,
) -> DecodeRow {
    let setup = Setup::of(sc, shape, budget);
    let arrivals = sc.traffic.arrivals(rate, scale);
    let batched = serve_once(sc, &arrivals, &setup, setup.batch_cap);
    let sequential = serve_once(sc, &arrivals, &setup, 1);
    row_of(rate, shape, budget, &setup, &batched, &sequential)
}

/// One decode sweep point: offered rate, tree shape, KV budget regime.
pub type DecodePoint = (f64, String, String);

/// The decode sweep: rate × shape × budget, row-major. Its
/// [`Experiment::run`] schedules serves, not points: every point's
/// batched serve and one sequential serve per (rate, shape) pair go on
/// the `--jobs` threads as one flat list, longest trace first.
///
/// A pair's budgets share its sequential serve. With one request in
/// flight, a request that fits its budget never makes the KV cache
/// evict, so the serve is the same under every budget the request fits;
/// it runs under the budget of the pair's first point.
pub struct DecodeSweep {
    sc: DecodeScenario,
    scale: Scale,
}

impl Experiment for DecodeSweep {
    type Point = DecodePoint;
    type Out = DecodeRow;

    fn name(&self) -> &str {
        &self.sc.name
    }

    fn points(&self) -> Vec<DecodePoint> {
        cross3(
            self.sc.rates.clone(),
            self.sc.shapes.clone(),
            self.sc.budgets.clone(),
        )
    }

    /// One point on its own, both of its serves one after the other.
    fn measure(&self, (rate, shape, budget): &DecodePoint) -> DecodeRow {
        measure_for(&self.sc, *rate, shape, budget, self.scale)
    }

    /// Every serve of the sweep on one `jobs` pool, then the rows in
    /// point order. Serves are handed out by descending trace length
    /// and written back by index, so the schedule never reaches the
    /// rows.
    fn run(&self, jobs: Jobs) -> SweepResult<DecodePoint, DecodeRow> {
        let sc = &self.sc;
        let start = Instant::now();
        let points = self.points();
        // Row-major: a pair's budgets are adjacent, and so are a rate's
        // pairs.
        let per_pair = sc.budgets.len().max(1);
        let per_rate = per_pair * sc.shapes.len();
        let traces: Vec<Vec<Arrival>> = sc
            .rates
            .iter()
            .map(|&rate| sc.traffic.arrivals(rate, self.scale))
            .collect();
        let setups: Vec<Setup> = points
            .iter()
            .map(|(_, shape, budget)| Setup::of(sc, shape, budget))
            .collect();
        // (point, batch cap): each point's batched serve at its own
        // index, then each pair's sequential serve.
        let serves: Vec<(usize, usize)> = setups
            .iter()
            .enumerate()
            .map(|(point, setup)| (point, setup.batch_cap))
            .chain((0..points.len()).step_by(per_pair).map(|point| (point, 1)))
            .collect();
        let trace = |point: usize| &traces[point / per_rate];
        let mut order: Vec<usize> = (0..serves.len()).collect();
        order.sort_by_key(|&i| Reverse(trace(serves[i].0).len()));
        let served = map_ordered(jobs.get(), &order, |&i| {
            let (point, batch_cap) = serves[i];
            serve_once(sc, trace(point), &setups[point], batch_cap)
        });
        let mut indexed: Vec<(usize, LlmServeReport)> = order.into_iter().zip(served).collect();
        indexed.sort_unstable_by_key(|&(i, _)| i);
        let reports: Vec<LlmServeReport> = indexed.into_iter().map(|(_, r)| r).collect();
        let (batched, sequential) = reports.split_at(points.len());
        let rows: Vec<DecodeRow> = points
            .iter()
            .enumerate()
            .map(|(point, (rate, shape, budget))| {
                row_of(
                    *rate,
                    shape,
                    budget,
                    &setups[point],
                    &batched[point],
                    &sequential[point / per_pair],
                )
            })
            .collect();
        SweepResult {
            name: sc.name.clone(),
            jobs: jobs.get().min(serves.len()).max(1),
            wall: start.elapsed(),
            points: points.into_iter().zip(rows).collect(),
        }
    }
}

/// The sweep of an arbitrary loaded decode scenario.
pub fn experiment_for(sc: &DecodeScenario, scale: Scale) -> DecodeSweep {
    DecodeSweep {
        sc: sc.clone(),
        scale,
    }
}

/// Run `sc` at the CLI's settings; print the table unless `--json`;
/// return the machine-readable sweep value.
pub fn run_cli_for(sc: &DecodeScenario, cli: &Cli) -> serde::Value {
    crate::cli::run_sweep_cli(cli, &experiment_for(sc, cli.scale), |r| {
        print_for(sc, &r.outputs().cloned().collect::<Vec<_>>(), cli.scale)
    })
}

/// Print the decode table of an arbitrary decode scenario.
pub fn print_for(sc: &DecodeScenario, rows: &[DecodeRow], _scale: Scale) {
    let s = sc.request;
    println!(
        "# Batched decode (extension): {}-token prompts, {} generated \
         tokens (hidden {}, {} layers), Poisson 2-tenant traffic, \
         SLO {:.0} ms",
        s.prompt,
        s.decode,
        s.spec.hidden,
        s.spec.layers,
        sc.policy.slo_ns / 1e6
    );
    println!(
        "{:>6} {:>6} {:>6} {:>8} {:>6} {:>7} {:>9} {:>10} {:>10} {:>8} {:>9} {:>9} {:>6}",
        "rate",
        "shape",
        "kv",
        "offered",
        "batch",
        "tokens",
        "evicted",
        "p50 (µs)",
        "ttft(µs)",
        "tok/s",
        "goodput",
        "seq good",
        "gain"
    );
    for r in rows {
        println!(
            "{:>6.0} {:>6} {:>6} {:>8} {:>6} {:>7} {:>9} {:>10.0} {:>10.0} {:>8.0} {:>9.1} {:>9.1} {:>5.2}x",
            r.rate_rps,
            r.shape,
            r.budget,
            r.offered,
            r.peak_batch,
            r.tokens,
            r.kv_evictions,
            r.p50_ns / 1e3,
            r.ttft_p50_ns / 1e3,
            r.decode_tps,
            r.goodput_rps,
            r.sequential_goodput_rps,
            r.goodput_gain
        );
    }
    println!("# expected: below saturation both serve everything (gain ~1x); past it,");
    println!("# mixed prefill/decode batching over >1 leaf holds goodput the sequential");
    println!("# loop sheds; tight KV budgets surface eviction Transfer traffic");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario() -> DecodeScenario {
        match crate::specs::load("llm_decode").scenario {
            accesys_spec::Scenario::Decode(sc) => sc,
            _ => unreachable!(),
        }
    }

    #[test]
    fn saturation_goodput_beats_sequential_by_2x_on_a_four_leaf_tree() {
        // The acceptance bar: at the top swept rate on the four-leaf
        // tree with an ample budget, batched decode goodput must be at
        // least twice the one-request-at-a-time engine's.
        let sc = scenario();
        let row = measure_for(&sc, sc.rates[2], "2x2", "ample", Scale::Quick);
        assert_eq!(row.endpoints, 4);
        assert!(row.peak_batch > 1, "batching never engaged: {row:?}");
        assert!(
            row.goodput_gain >= 2.0,
            "batched decode should be ≥2x sequential at saturation, got {:.2}x",
            row.goodput_gain
        );
        assert!(row.mixed_rounds > 0, "saturation implies mixed rounds");
    }

    #[test]
    fn tight_budgets_surface_eviction_transfer_traffic() {
        // The second acceptance shape: a constrained-KV point must show
        // observable eviction traffic in the report — and still finish
        // everything it admitted.
        let sc = scenario();
        let row = measure_for(&sc, sc.rates[2], "2x2", "tight", Scale::Quick);
        assert!(row.kv_evictions > 0, "tight budget never evicted: {row:?}");
        assert!(row.kv_evicted_bytes > 0);
        assert!(row.kv_transfer_tasks >= row.kv_evictions);
        let ample = measure_for(&sc, sc.rates[2], "2x2", "ample", Scale::Quick);
        assert_eq!(ample.kv_evictions, 0, "ample budget must not evict");
    }

    #[test]
    fn below_saturation_everything_is_served_either_way() {
        let sc = scenario();
        let row = measure_for(&sc, sc.rates[0], "2", "ample", Scale::Quick);
        assert_eq!(row.rejected, 0, "no load shedding below saturation");
        assert_eq!(row.admitted, row.offered);
        assert!(
            (0.8..=1.25).contains(&row.goodput_gain),
            "gain should be ~1x below saturation, got {:.2}x",
            row.goodput_gain
        );
    }

    #[test]
    fn the_flat_serve_schedule_matches_point_by_point_measurement() {
        // One rate on a two-leaf tree under both KV budgets: the two
        // points share one sequential serve, and at jobs 4 all three
        // serves run side by side. The full grid is pinned by the
        // `exp all` golden at jobs 1 and 4.
        let mut small = scenario();
        small.rates = vec![small.rates[1]];
        small.shapes = vec!["2".to_string()];
        let run = |jobs: Jobs| experiment_for(&small, Scale::Quick).run(jobs);
        let serial = run(Jobs::serial());
        let json = serial.to_json().expect("decode rows serialize");
        assert_eq!(
            run(Jobs::new(4)).to_json().expect("decode rows serialize"),
            json
        );
        assert_eq!(serial.points.len(), 2);
        for ((rate, shape, budget), row) in &serial.points {
            let alone = measure_for(&small, *rate, shape, budget, Scale::Quick);
            assert_eq!(
                serde_json::to_string(row).expect("row serializes"),
                serde_json::to_string(&alone).expect("row serializes"),
                "({rate}, {shape}, {budget})"
            );
        }
    }
}
