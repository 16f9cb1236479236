//! Extension experiment — batched autoregressive decode: open-loop LLM
//! traffic through the prefill/decode serving engine, across arrival
//! rates, tree shapes and KV budgets.
//!
//! Decode is the serving regime the paper's interconnect questions bite
//! hardest in: every round is a batch of skinny memory-bound GEMMs,
//! and the working set that decides who runs where is the KV cache
//! growing in each leaf's `devmem` slice. Each point serves the same
//! seeded Poisson trace twice on the same tree:
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
//! host-memory `Transfer` traffic in the row). The testbed, request
//! shape, traffic, policy, budgets and sweep axes lower from the
//! committed `specs/llm_decode.spec`; this module's tests hold the
//! saturation goodput ratio and the tight-budget evictions to their
//! bars.

use crate::cli::Cli;
use crate::topo::parse_shape;
use crate::Scale;
use accesys_exp::{Experiment, Grid};
use accesys_serve::{serve_llm, LlmServeConfig, LlmServeReport};
use accesys_spec::DecodeScenario;

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

/// Serve the point's trace once at `batch_cap` requests in flight.
fn serve_once(
    sc: &DecodeScenario,
    rate: f64,
    levels: &[u32],
    batch_cap: usize,
    budget_bytes: u64,
    scale: Scale,
) -> LlmServeReport {
    let arrivals = sc.traffic.arrivals(rate, scale);
    let mut sim = sc
        .system
        .simulation(levels)
        .expect("validated spec testbed builds");
    serve_llm(
        &mut sim,
        &sc.request,
        &arrivals,
        &sc.policy.policy(),
        &LlmServeConfig::new(batch_cap, sc.policy.queue_cap, budget_bytes)
            .with_slo_ns(sc.policy.slo_ns),
    )
    .expect("decode serving completes")
}

/// Measure one (rate, shape, budget) point of `sc`: batched vs
/// sequential.
pub fn measure_for(
    sc: &DecodeScenario,
    rate: f64,
    shape: &str,
    budget: &str,
    scale: Scale,
) -> DecodeRow {
    let levels = parse_shape(shape);
    let endpoints: u32 = levels.iter().product();
    let budget_bytes = sc
        .kv
        .budget_bytes(budget, &sc.request)
        .unwrap_or_else(|| panic!("unknown KV budget regime {budget:?}"));
    let batch_cap = sc.policy.batch_cap.cap(endpoints);
    let batched = serve_once(sc, rate, &levels, batch_cap, budget_bytes, scale);
    let sequential = serve_once(sc, rate, &levels, 1, budget_bytes, scale);
    let gain = if sequential.goodput_rps > 0.0 {
        batched.goodput_rps / sequential.goodput_rps
    } else if batched.goodput_rps > 0.0 {
        f64::INFINITY
    } else {
        1.0
    };
    DecodeRow {
        rate_rps: rate,
        shape: shape.to_string(),
        budget: budget.to_string(),
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
}

/// `sc` as a declarative experiment: rate × shape × budget, row-major.
pub fn experiment_for(
    sc: &DecodeScenario,
    scale: Scale,
) -> impl Experiment<Point = (f64, String, String), Out = DecodeRow> {
    let sc = sc.clone();
    Grid::cross3(
        sc.name.clone(),
        sc.rates.clone(),
        sc.shapes.clone(),
        sc.budgets.clone(),
    )
    .sweep(move |(rate, shape, budget)| measure_for(&sc, *rate, shape, budget, scale))
}

/// Run `sc` at the CLI's settings; print the table unless `--json`;
/// return the machine-readable sweep value.
pub fn run_cli_for(sc: &DecodeScenario, cli: &Cli) -> serde::Value {
    crate::cli::run_sweep_cli(cli, &experiment_for(sc, cli.scale), |r| {
        print_for(
            sc,
            &r.points.iter().map(|(_, p)| p.clone()).collect::<Vec<_>>(),
            cli.scale,
        )
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
    use accesys_exp::Jobs;

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
    fn sweep_is_deterministic_across_worker_counts() {
        // One rate on a depth-2 tree under both KV budgets; the full
        // grid is pinned by the `exp all` golden at jobs 1 and 4.
        let mut small = scenario();
        small.rates = vec![small.rates[1]];
        small.shapes = vec!["2x2".to_string()];
        let run = |jobs: Jobs| experiment_for(&small, Scale::Quick).run(jobs).to_json();
        assert_eq!(run(Jobs::serial()).unwrap(), run(Jobs::new(4)).unwrap());
    }
}
