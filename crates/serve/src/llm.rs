//! The LLM serving engine: continuous batching of mixed prefill and
//! decode rounds with KV-cache pressure.
//!
//! ## The serving model
//!
//! This engine runs [`crate::serve`]'s continuous-batching loop; only
//! its rounds differ. Where the encoder engine batches fixed slices, a
//! request here is autoregressive ([`LlmRequestShape`]): on admission
//! it runs a **prefill** over its prompt, then one **decode slice per
//! round** until it has generated [`LlmRequestShape::decode`] tokens
//! (EOS-by-length), then it retires and frees its batch slot — so every
//! round's [`TaskGraph`] is a *mix* of whole-prompt prefill chains and
//! skinny decode chains, generated incrementally on a
//! [`GraphSession`]: the next round's shape is only known once this
//! round's barrier has settled.
//!
//! ## KV pressure becomes transfer traffic
//!
//! Each request's KV cache grows in the `devmem` slice of the device it
//! was admitted to (the least-loaded one at admission; all its chains
//! pin there for locality). Growth goes through the
//! [`KvCache`] model against [`LlmServeConfig::kv_budget`]: when a
//! round's claims overflow the budget, the least-recently-decoded
//! *other* request's cache is offloaded to host memory — and every
//! [`KvEvent`] is lowered into the round graph as a
//! [`TaskKind::Transfer`] that the claiming request's slice depends on.
//! Capacity pressure is therefore *simulated interconnect traffic*
//! (visible in [`KvReport`] and the round's transfer tasks), not a
//! silent counter. A shape whose own cache can never fit is a typed
//! [`LlmServeError`] at entry.
//!
//! ## Determinism
//!
//! Same contract as [`crate::serve`], on the same loop. What this
//! engine adds is deterministic too: KV eviction decisions are
//! BTree-ordered LRU and device assignment is
//! least-resident-then-lowest-index — a replayed trace is
//! byte-identical, report and all.
//!
//! [`GraphSession`]: accesys::GraphSession
//! [`TaskGraph`]: accesys_workload::graph::TaskGraph
//! [`TaskKind::Transfer`]: accesys_workload::graph::TaskKind::Transfer

use crate::arrivals::Arrival;
use crate::engine::{
    per_sec, run, Active, LatencySummary, Marks, Rounds, ServeConfig, TenantReport,
};
use crate::policy::Policy;
use accesys::{RunError, Simulation};
use accesys_sim::Histogram;
use accesys_workload::graph::{append_chain, Affinity, TaskGraph, TaskId, TaskKind};
use accesys_workload::llm::{KvCache, KvError, KvEvent, LlmSpec};
use accesys_workload::Op;

/// What one autoregressive request costs: a prompt to prefill, then
/// `decode` generated tokens (one per round) before EOS.
#[derive(Copy, Clone, Debug, PartialEq, Eq, serde::Serialize)]
pub struct LlmRequestShape {
    /// Model geometry.
    pub spec: LlmSpec,
    /// Prompt tokens prefetched in one prefill round.
    pub prompt: u32,
    /// Tokens generated after prefill (EOS-by-length). `0` retires the
    /// request at its prefill round.
    pub decode: u32,
}

impl LlmRequestShape {
    /// KV bytes this request pins once fully decoded — the footprint
    /// the per-device budget must fit.
    pub fn max_kv_bytes(&self) -> u64 {
        self.spec
            .kv_bytes_per_token()
            .saturating_mul(u64::from(self.prompt.max(1)) + u64::from(self.decode))
    }
}

/// LLM engine knobs: the [`ServeConfig`] bounds and SLO (per whole
/// request, arrival → EOS) plus the per-device KV budget.
#[derive(Copy, Clone, Debug, serde::Serialize)]
pub struct LlmServeConfig {
    /// Batch and queue bounds and the latency SLO.
    pub serve: ServeConfig,
    /// Per-device KV-cache budget in bytes: the share of each device's
    /// `devmem` slice reserved for KV residency.
    pub kv_budget: u64,
}

impl LlmServeConfig {
    /// Bounds and budget with no SLO.
    pub fn new(batch_cap: usize, queue_cap: usize, kv_budget: u64) -> LlmServeConfig {
        LlmServeConfig {
            serve: ServeConfig::new(batch_cap, queue_cap),
            kv_budget,
        }
    }

    /// The same bounds with a latency SLO.
    pub fn with_slo_ns(mut self, slo_ns: f64) -> LlmServeConfig {
        self.serve = self.serve.with_slo_ns(slo_ns);
        self
    }
}

/// Largest per-device KV budget the engine accepts: eviction and
/// restore traffic is lowered as single streaming transfers, so a
/// segment must fit the CPU activation window with room to spare.
pub const KV_BUDGET_MAX: u64 = accesys::addrmap::ACT_SPLIT / 4;

/// Why an LLM serve cannot run (or failed mid-flight).
#[derive(Debug)]
pub enum LlmServeError {
    /// The dispatcher failed (invalid graph, window overflow,
    /// simulation error).
    Run(RunError),
    /// The KV-cache model rejected a claim.
    Kv(KvError),
    /// The request shape's full KV footprint exceeds the per-device
    /// budget: no request could ever finish, so the serve refuses to
    /// start instead of erroring on the first decode.
    ShapeExceedsKvBudget {
        /// Bytes one fully decoded request pins.
        need: u64,
        /// The configured per-device budget.
        budget: u64,
    },
    /// The configured budget exceeds [`KV_BUDGET_MAX`].
    KvBudgetTooLarge {
        /// The configured budget.
        budget: u64,
        /// The largest supported budget.
        max: u64,
    },
}

impl std::fmt::Display for LlmServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LlmServeError::Run(e) => write!(f, "dispatch failed: {e}"),
            LlmServeError::Kv(e) => write!(f, "KV cache rejected a claim: {e}"),
            LlmServeError::ShapeExceedsKvBudget { need, budget } => write!(
                f,
                "request shape pins {need} KV bytes but the per-device budget is {budget}"
            ),
            LlmServeError::KvBudgetTooLarge { budget, max } => {
                write!(f, "KV budget {budget} exceeds the supported maximum {max}")
            }
        }
    }
}

impl std::error::Error for LlmServeError {}

impl From<RunError> for LlmServeError {
    fn from(e: RunError) -> Self {
        LlmServeError::Run(e)
    }
}

impl From<KvError> for LlmServeError {
    fn from(e: KvError) -> Self {
        LlmServeError::Kv(e)
    }
}

/// The KV-pressure story of a serve: how full the slices ran and how
/// much eviction/restore traffic the budget forced.
#[derive(Clone, Debug, Default, serde::Serialize)]
pub struct KvReport {
    /// The per-device budget served under.
    pub budget: u64,
    /// Peak resident bytes observed on any single device.
    pub peak_resident: u64,
    /// Cache evictions (requests offloaded to host memory).
    pub evictions: u64,
    /// Bytes offloaded to host memory.
    pub evicted_bytes: u64,
    /// Cache restores (offloaded requests brought back).
    pub restores: u64,
    /// Bytes restored from host memory.
    pub restored_bytes: u64,
    /// `Transfer` tasks the pressure added to round graphs
    /// (evictions + restores — the observable traffic).
    pub transfer_tasks: u64,
}

/// What an LLM serve produced: request counts and tails like
/// [`crate::ServeReport`], plus token throughput, time-to-first-token,
/// and the KV-pressure story.
#[derive(Clone, Debug, serde::Serialize)]
pub struct LlmServeReport {
    /// Arrivals offered by the generator.
    pub offered: u64,
    /// Requests admitted past the queue bound.
    pub admitted: u64,
    /// Requests that prefetched and decoded to EOS.
    pub completed: u64,
    /// Requests rejected at admission.
    pub rejected: u64,
    /// Batching rounds executed.
    pub rounds: u64,
    /// Rounds that mixed at least one prefill with at least one decode
    /// slice (the continuous-batching signature).
    pub mixed_rounds: u64,
    /// Idle jumps (serving clock advanced to the next arrival).
    pub idle_jumps: u64,
    /// Peak requests folded into one round.
    pub peak_batch: usize,
    /// Decode tokens generated across all requests.
    pub tokens_decoded: u64,
    /// Serving-clock span from engine start to last completion, ns.
    pub elapsed_ns: f64,
    /// Arrival rate actually offered over the elapsed span, req/s.
    pub offered_rps: f64,
    /// Completions per second of serving time.
    pub throughput_rps: f64,
    /// Completions within the SLO per second of serving time.
    pub goodput_rps: f64,
    /// Decode tokens per second of serving time.
    pub decode_tps: f64,
    /// Arrival → EOS latency distribution.
    pub latency: LatencySummary,
    /// Arrival → end-of-prefill (time-to-first-token) distribution.
    pub ttft: LatencySummary,
    /// KV-cache pressure counters.
    pub kv: KvReport,
    /// Per-tenant breakdown, indexed by tenant id.
    pub tenants: Vec<TenantReport>,
}

/// Serve autoregressive `arrivals` on `sim` to completion: prefill on
/// admission, one decode slice per round with KV growth, retirement on
/// EOS-by-length. See the module docs for the model.
///
/// # Errors
///
/// [`LlmServeError::ShapeExceedsKvBudget`] / [`KvBudgetTooLarge`]
/// before any simulation, or a dispatch/KV error mid-serve.
///
/// [`KvBudgetTooLarge`]: LlmServeError::KvBudgetTooLarge
pub fn serve_llm(
    sim: &mut Simulation,
    shape: &LlmRequestShape,
    arrivals: &[Arrival],
    policy: &Policy,
    cfg: &LlmServeConfig,
) -> Result<LlmServeReport, LlmServeError> {
    if cfg.kv_budget > KV_BUDGET_MAX {
        return Err(LlmServeError::KvBudgetTooLarge {
            budget: cfg.kv_budget,
            max: KV_BUDGET_MAX,
        });
    }
    if shape.max_kv_bytes() > cfg.kv_budget {
        return Err(LlmServeError::ShapeExceedsKvBudget {
            need: shape.max_kv_bytes(),
            budget: cfg.kv_budget,
        });
    }
    let mut decoder = Decoder {
        shape,
        prefill_ops: shape.spec.prefill_ops(shape.prompt),
        kv: KvCache::new(sim.accel_count(), cfg.kv_budget),
        ttft: Histogram::new(),
        mixed_rounds: 0,
        tokens_decoded: 0,
        transfer_tasks: 0,
    };
    let (report, _) = run(sim, arrivals, policy, &cfg.serve, &mut decoder)?;
    let kv = &decoder.kv;
    Ok(LlmServeReport {
        offered: report.offered,
        admitted: report.admitted,
        completed: report.completed,
        rejected: report.rejected,
        rounds: report.rounds,
        mixed_rounds: decoder.mixed_rounds,
        idle_jumps: report.idle_jumps,
        peak_batch: report.peak_batch,
        tokens_decoded: decoder.tokens_decoded,
        elapsed_ns: report.elapsed_ns,
        offered_rps: report.offered_rps,
        throughput_rps: report.throughput_rps,
        goodput_rps: report.goodput_rps,
        decode_tps: per_sec(decoder.tokens_decoded, report.elapsed_ns),
        latency: report.latency,
        ttft: LatencySummary::of(&decoder.ttft),
        kv: KvReport {
            budget: cfg.kv_budget,
            peak_resident: kv.peak_resident(),
            evictions: kv.evictions(),
            evicted_bytes: kv.evicted_bytes(),
            restores: kv.restores(),
            restored_bytes: kv.restored_bytes(),
            transfer_tasks: decoder.transfer_tasks,
        },
        tenants: report.tenants,
    })
}

/// The LLM engine's rounds: mixed prefill/decode chains pinned to each
/// request's KV home, with KV growth claimed per chain.
struct Decoder<'a> {
    shape: &'a LlmRequestShape,
    prefill_ops: Vec<Op>,
    kv: KvCache,
    /// Arrival → end-of-prefill latencies.
    ttft: Histogram,
    mixed_rounds: u64,
    tokens_decoded: u64,
    transfer_tasks: u64,
}

/// One in-flight autoregressive request.
struct Slot {
    /// KV home device; every chain of this request pins here.
    device: usize,
    /// Whether the prefill round has run.
    prefilled: bool,
    /// Decode tokens generated so far.
    decoded: u32,
}

impl Rounds for Decoder<'_> {
    type Slot = Slot;
    type Error = LlmServeError;

    /// Each admitted request gets the device with the least resident
    /// KV (ties to the lowest index) as its KV home — its prefill and
    /// every decode slice pin there.
    fn admit(&mut self) -> Slot {
        let device = (0..self.kv.devices())
            .min_by_key(|&d| (self.kv.resident_on(d), d))
            .unwrap_or(0);
        Slot {
            device,
            prefilled: false,
            decoded: 0,
        }
    }

    /// Per request, claim this round's KV growth (prefill claims the
    /// whole prompt, decode claims one token), lower any
    /// eviction/restore events as Transfer tasks the slice depends on,
    /// then append the slice chain pinned to the KV home.
    fn round(
        &mut self,
        graph: &mut TaskGraph,
        batch: &[Active<Slot>],
        round: u64,
        chains: &mut Vec<(TaskId, Marks)>,
    ) -> Result<(), LlmServeError> {
        let shape = self.shape;
        if batch.iter().any(|r| r.slot.prefilled) && batch.iter().any(|r| !r.slot.prefilled) {
            self.mixed_rounds += 1;
        }
        for r in batch {
            let s = &r.slot;
            let decode_ops;
            let (ops, tag, tokens): (&[Op], _, _) = if s.prefilled {
                decode_ops = shape.spec.decode_ops(shape.prompt.max(1) + s.decoded);
                (&decode_ops, format!("d{}", s.decoded), 1u64)
            } else {
                (
                    &self.prefill_ops,
                    "p".to_string(),
                    u64::from(shape.prompt.max(1)),
                )
            };
            let events = self.kv.claim(
                r.id,
                s.device,
                tokens.saturating_mul(shape.spec.kv_bytes_per_token()),
                round,
            )?;
            let mut prev: Option<TaskId> = None;
            for ev in events {
                let (name, bytes) = match ev {
                    KvEvent::Evicted { request, bytes, .. } => {
                        (format!("r{}.kv.evict.r{request}", r.id), bytes)
                    }
                    KvEvent::Restored { request, bytes, .. } => {
                        (format!("r{}.kv.restore.r{request}", r.id), bytes)
                    }
                };
                self.transfer_tasks += 1;
                let deps = prev.into_iter().collect();
                prev =
                    Some(graph.add(name, TaskKind::Transfer { bytes }, Affinity::AnyAccel, deps));
            }
            let tail = append_chain(
                graph,
                ops,
                Affinity::Pinned(s.device),
                prev,
                &format!("r{}.{tag}", r.id),
            )
            .expect("llm op lists are non-empty");
            // The prefill ends the first token; the request retires
            // with its last decode slice, or at prefill if it decodes
            // nothing.
            let marks = Marks {
                first_token: !s.prefilled,
                retire: s.decoded + u32::from(s.prefilled) >= shape.decode,
            };
            chains.push((tail, marks));
        }
        Ok(())
    }

    fn first_token(&mut self, latency_ns: f64) {
        self.ttft.observe(latency_ns);
    }

    /// Count the decoded token; a request at EOS frees its KV.
    fn advance(&mut self, id: u64, s: &mut Slot) -> bool {
        if s.prefilled {
            s.decoded += 1;
            self.tokens_decoded += 1;
        } else {
            s.prefilled = true;
        }
        let done = s.decoded >= self.shape.decode;
        if done {
            self.kv.release(id);
        }
        done
    }
}
