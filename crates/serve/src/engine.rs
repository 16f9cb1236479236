//! The continuous-batching serve engine: folds an open-loop arrival
//! stream into successive dispatch rounds on one [`Simulation`].
//!
//! ## The serving model
//!
//! A *request* is an encoder-shaped job: [`RequestShape::slices`]
//! encoder layers of a fixed geometry. The engine keeps a bounded
//! [`AdmissionQueue`] in front of the PR 5 dispatcher and executes the
//! in-flight set **one slice per round**: every round is a
//! [`TaskGraph`] holding one slice chain per in-flight request
//! (appended with [`append_chain`], `AnyAccel` affinity so the
//! dispatcher spreads chains over idle devices) joined by a final
//! barrier. Requests that arrive while a round simulates are admitted
//! at the next round boundary — the barrier is the admission point —
//! and finished requests leave the batch the same way. That is
//! iteration-level continuous batching: the batch composition changes
//! at every barrier without waiting for the whole batch to drain.
//!
//! ## Clocks and latency
//!
//! The engine's serving clock tiles the simulation's kernel clock:
//! round `k+1` starts at the kernel tick round `k` ended on. When the
//! system goes idle (queue empty, nothing in flight, arrivals still
//! pending) the serving clock jumps forward to the next arrival while
//! the kernel clock stays put; the constant offset between the two is
//! carried across rounds so arrival ticks and completion ticks live on
//! one timeline. Per-request completion ticks come from the
//! dispatcher's `done:` marks ([`TaskGraph::set_completion`] on each
//! request's tail task): host retirement time, not device-MSI time —
//! when a real driver would return the response. Latencies land in
//! [`Histogram`]s (one overall, one per tenant), so p50/p99/p99.9 and
//! goodput fall out of the existing percentile machinery.
//!
//! ## One loop, two engines
//!
//! Everything above — admission, refill, the idle jump, the barrier
//! and clock skew, retirement and the report — is one private loop that
//! [`crate::serve_llm`] runs too. An engine only says how an admitted
//! request starts, how the batch's chains for one round are appended
//! (tail by tail: does it retire, does it end the first token?) and how
//! each request advances after the round.
//!
//! ## Determinism
//!
//! The engine is a deterministic function of (simulation, shape,
//! arrival trace, policy, config): arrivals are pre-generated from a
//! seed, policies depend only on queue contents and admission counters,
//! and the dispatcher is the PR 5 deterministic compiler. Serving the
//! same trace twice on fresh simulations produces byte-identical
//! reports — pinned by the `seeded_serves_replay_byte_identically`
//! proptest in `tests/serving.rs`.

use crate::arrivals::Arrival;
use crate::policy::Policy;
use crate::queue::{AdmissionQueue, Queued};
use accesys::{RunError, Simulation};
use accesys_sim::{units, Histogram};
use accesys_workload::encoder_ops;
use accesys_workload::graph::{append_chain, Affinity, TaskGraph, TaskId, TaskKind};
use accesys_workload::Op;

/// What one request costs: an encoder of `slices` layers at a fixed
/// geometry. Slices are the batching quantum — a request occupies its
/// batch slot for `slices` rounds.
#[derive(Copy, Clone, Debug, PartialEq, Eq, serde::Serialize)]
pub struct RequestShape {
    /// Sequence length of each encoder layer.
    pub seq: u32,
    /// Hidden dimension.
    pub hidden: u32,
    /// Attention heads.
    pub heads: u32,
    /// MLP dimension.
    pub mlp: u32,
    /// Encoder layers per request (≥ 1; the batching quantum).
    pub slices: u32,
}

impl RequestShape {
    /// The operator list of one slice (one encoder layer).
    pub fn slice_ops(&self) -> Vec<Op> {
        encoder_ops(self.seq, self.hidden, self.heads, self.mlp)
    }
}

/// Engine knobs: batch and queue bounds, and the latency SLO.
#[derive(Copy, Clone, Debug, serde::Serialize)]
pub struct ServeConfig {
    /// Max requests folded into one round (clamped to ≥ 1). Devices ×
    /// some small factor is the useful range: more in-flight chains
    /// than devices just queue inside the dispatcher.
    pub batch_cap: usize,
    /// Admission-queue bound (clamped to ≥ 1); arrivals beyond it are
    /// rejected.
    pub queue_cap: usize,
    /// Latency SLO in virtual nanoseconds: goodput counts completions
    /// at or under it. `f64::INFINITY` (the [`ServeConfig::new`]
    /// default) counts every completion.
    pub slo_ns: f64,
}

impl ServeConfig {
    /// Bounds with no SLO (goodput = throughput).
    pub fn new(batch_cap: usize, queue_cap: usize) -> ServeConfig {
        ServeConfig {
            batch_cap,
            queue_cap,
            slo_ns: f64::INFINITY,
        }
    }

    /// The same bounds with a latency SLO.
    pub fn with_slo_ns(mut self, slo_ns: f64) -> ServeConfig {
        self.slo_ns = slo_ns;
        self
    }
}

/// Latency distribution summary (all values virtual nanoseconds,
/// percentiles as [`Histogram::percentile`] upper bounds).
#[derive(Clone, Debug, Default, serde::Serialize)]
pub struct LatencySummary {
    /// Completions observed.
    pub count: u64,
    /// Mean latency.
    pub mean_ns: f64,
    /// Median upper bound.
    pub p50_ns: f64,
    /// 99th-percentile upper bound.
    pub p99_ns: f64,
    /// 99.9th-percentile upper bound.
    pub p999_ns: f64,
    /// Largest observed latency (exact).
    pub max_ns: f64,
}

impl LatencySummary {
    /// Summarize a latency [`Histogram`] (count, mean, p50/p99/p99.9
    /// upper bounds, exact max). Public so layered engines — the fleet
    /// merge being the first — can summarize histograms they built from
    /// completion traces.
    pub fn of(h: &Histogram) -> LatencySummary {
        LatencySummary {
            count: h.count(),
            mean_ns: h.mean(),
            p50_ns: h.percentile(50.0),
            p99_ns: h.percentile(99.0),
            p999_ns: h.percentile(99.9),
            max_ns: h.max(),
        }
    }
}

/// One tenant's slice of the serve: admissions, rejections, latency.
#[derive(Clone, Debug, serde::Serialize)]
pub struct TenantReport {
    /// Tenant index.
    pub tenant: u32,
    /// Requests admitted (batched at least once).
    pub admitted: u64,
    /// Requests rejected at admission.
    pub rejected: u64,
    /// Latency distribution of this tenant's completions.
    pub latency: LatencySummary,
}

/// What a serve produced: counts, rates, and latency distributions.
#[derive(Clone, Debug, serde::Serialize)]
pub struct ServeReport {
    /// Arrivals offered by the generator.
    pub offered: u64,
    /// Requests admitted past the queue bound.
    pub admitted: u64,
    /// Requests that completed all their slices.
    pub completed: u64,
    /// Requests rejected at admission (offered − admitted).
    pub rejected: u64,
    /// Batching rounds executed.
    pub rounds: u64,
    /// Idle jumps: rounds where the engine had nothing in flight and
    /// advanced the serving clock to the next arrival instead.
    pub idle_jumps: u64,
    /// Peak requests folded into one round.
    pub peak_batch: usize,
    /// Serving-clock span from engine start to last completion, ns.
    pub elapsed_ns: f64,
    /// Arrival rate actually offered over the elapsed span, req/s.
    pub offered_rps: f64,
    /// Completions per second of serving time.
    pub throughput_rps: f64,
    /// Completions within the SLO per second of serving time (equals
    /// [`ServeReport::throughput_rps`] when no SLO is set).
    pub goodput_rps: f64,
    /// Latency distribution over every completion.
    pub latency: LatencySummary,
    /// Per-tenant breakdown, indexed by tenant id.
    pub tenants: Vec<TenantReport>,
}

/// One retired request on the serving clock — the raw material for
/// cross-layer latency accounting. The fleet layer adds network legs on
/// top of [`Completion::latency_ns`] before summarizing, so the trace
/// carries exact per-request numbers rather than bucketed summaries.
#[derive(Copy, Clone, Debug, PartialEq, serde::Serialize)]
pub struct Completion {
    /// Request id (= index into the arrival trace given to the engine).
    pub id: u64,
    /// Tenant the request belonged to.
    pub tenant: u32,
    /// Arrival tick on the serving clock, ns.
    pub arrival_ns: u64,
    /// Retirement tick on the serving clock, ns.
    pub done_ns: f64,
    /// Arrival→retirement latency, ns (`done_ns − arrival_ns`).
    pub latency_ns: f64,
}

/// Serve `arrivals` on `sim` to completion: every admitted request is
/// batched, sliced, and retired; the report carries the percentile and
/// goodput story. See the module docs for the model.
///
/// # Errors
///
/// Returns any [`RunError`] the dispatcher raises (invalid slice graph,
/// activation-window overflow, simulation failure). The arrival trace
/// itself cannot fail — over-bound bursts are counted rejections, not
/// errors.
pub fn serve(
    sim: &mut Simulation,
    shape: &RequestShape,
    arrivals: &[Arrival],
    policy: &Policy,
    cfg: &ServeConfig,
) -> Result<ServeReport, RunError> {
    serve_traced(sim, shape, arrivals, policy, cfg).map(|(report, _)| report)
}

/// [`serve`], additionally returning the per-request [`Completion`]
/// trace in retirement order (the order latencies were observed into
/// the report's histograms — replaying the trace reproduces them
/// byte-identically, which the fleet layer's 1-vs-N-process
/// determinism contract leans on).
///
/// # Errors
///
/// Same as [`serve`].
pub fn serve_traced(
    sim: &mut Simulation,
    shape: &RequestShape,
    arrivals: &[Arrival],
    policy: &Policy,
    cfg: &ServeConfig,
) -> Result<(ServeReport, Vec<Completion>), RunError> {
    let mut encoder = Encoder {
        slice_ops: shape.slice_ops(),
        slices: shape.slices.max(1),
    };
    run(sim, arrivals, policy, cfg, &mut encoder)
}

/// The encoder engine's rounds: one slice chain per in-flight request,
/// spread over idle devices; a request's slot counts its slices left.
struct Encoder {
    slice_ops: Vec<Op>,
    slices: u32,
}

impl Rounds for Encoder {
    type Slot = u32;
    type Error = RunError;

    fn admit(&mut self) -> u32 {
        self.slices
    }

    fn round(
        &mut self,
        graph: &mut TaskGraph,
        batch: &[Active<u32>],
        _round: u64,
        chains: &mut Vec<(TaskId, Marks)>,
    ) -> Result<(), RunError> {
        for r in batch {
            let tail = append_chain(
                graph,
                &self.slice_ops,
                Affinity::AnyAccel,
                None,
                &format!("r{}.s{}", r.id, self.slices - r.slot),
            )
            .expect("encoder slices are non-empty");
            let marks = Marks {
                first_token: false,
                retire: r.slot == 1,
            };
            chains.push((tail, marks));
        }
        Ok(())
    }

    fn advance(&mut self, _id: u64, slices_left: &mut u32) -> bool {
        *slices_left -= 1;
        *slices_left == 0
    }
}

/// Which completion labels a request's chain carries this round.
#[derive(Copy, Clone, Default)]
pub(crate) struct Marks {
    /// The tail ends the request's first token (labelled `t<id>`).
    pub(crate) first_token: bool,
    /// The tail retires the request (labelled `<id>`).
    pub(crate) retire: bool,
}

/// One in-flight request: a batch slot holder across rounds.
pub(crate) struct Active<S> {
    pub(crate) id: u64,
    tenant: u32,
    arrival_ns: u64,
    /// Its chain's marks in the round being run.
    marks: Marks,
    /// The engine's per-request state.
    pub(crate) slot: S,
}

/// What an engine adds to the shared loop ([`run`]); the loop never
/// asks which engine it serves.
pub(crate) trait Rounds {
    /// Per-request state carried across rounds.
    type Slot;
    /// What a serve fails with; dispatch failures convert into it.
    type Error: From<RunError>;

    /// The state of a request taking a batch slot.
    fn admit(&mut self) -> Self::Slot;

    /// Append one chain per request of `batch`, in order, to round
    /// `round`'s graph, pushing each chain's tail and marks to `chains`.
    fn round(
        &mut self,
        graph: &mut TaskGraph,
        batch: &[Active<Self::Slot>],
        round: u64,
        chains: &mut Vec<(TaskId, Marks)>,
    ) -> Result<(), Self::Error>;

    /// A first token landed `latency_ns` after its request arrived.
    fn first_token(&mut self, _latency_ns: f64) {}

    /// Step request `id` past the round it ran; `true` retires it.
    fn advance(&mut self, id: u64, slot: &mut Self::Slot) -> bool;
}

/// Completions per second of a serving-clock span of `elapsed_ns`
/// (0 for an empty span). Both serving engines and the fleet merge
/// report their rates through it.
pub fn per_sec(n: u64, elapsed_ns: f64) -> f64 {
    if elapsed_ns > 0.0 {
        n as f64 / (elapsed_ns / 1e9)
    } else {
        0.0
    }
}

/// The continuous-batching loop both engines run (see the module docs
/// for the model): admit, refill the batch, jump idle gaps, run one
/// barrier-joined round per iteration, retire on completion marks.
pub(crate) fn run<R: Rounds>(
    sim: &mut Simulation,
    arrivals: &[Arrival],
    policy: &Policy,
    cfg: &ServeConfig,
    engine: &mut R,
) -> Result<(ServeReport, Vec<Completion>), R::Error> {
    let batch_cap = cfg.batch_cap.max(1);
    let tenant_count = arrivals
        .iter()
        .map(|a| a.tenant as usize + 1)
        .max()
        .unwrap_or(1);

    let mut policy = policy.clone();
    let mut queue = AdmissionQueue::new(cfg.queue_cap);
    let mut active: Vec<Active<R::Slot>> = Vec::new();
    let mut chains: Vec<(TaskId, Marks)> = Vec::new();
    let mut admitted_by_tenant = vec![0u64; tenant_count];
    let mut overall = Histogram::new();
    let mut by_tenant = vec![Histogram::new(); tenant_count];
    let mut trace: Vec<Completion> = Vec::new();

    // Rounds extend one incremental dispatch session: the session pins
    // the monotone-clock contract the serving clock tiles over.
    let mut session = sim.graph_session();
    // The serving clock starts on the kernel clock and stays a constant
    // offset ahead of it between idle jumps.
    let clock_start_ns = units::to_ns(session.opened_at());
    let mut clock_ns = clock_start_ns;
    let mut next_arrival = 0usize;
    let mut completed = 0u64;
    let mut within_slo = 0u64;
    let mut idle_jumps = 0u64;
    let mut peak_batch = 0usize;

    loop {
        // 1. Admission: every arrival at or before the serving clock
        // enters the bounded queue (or is counted rejected). An arrival
        // exactly on a round boundary is admitted at that boundary.
        while next_arrival < arrivals.len() && arrivals[next_arrival].at_ns as f64 <= clock_ns {
            let a = arrivals[next_arrival];
            let _ = queue.offer(Queued {
                id: next_arrival as u64,
                tenant: a.tenant,
                arrival_ns: a.at_ns,
            });
            next_arrival += 1;
        }

        // 2. Batch refill: free slots go to the policy's picks.
        while active.len() < batch_cap {
            let Some(index) = policy.pick(&queue, &admitted_by_tenant) else {
                break;
            };
            let q = queue.take_at(index);
            admitted_by_tenant[q.tenant as usize] += 1;
            active.push(Active {
                id: q.id,
                tenant: q.tenant,
                arrival_ns: q.arrival_ns,
                marks: Marks::default(),
                slot: engine.admit(),
            });
        }

        if active.is_empty() {
            let Some(a) = arrivals.get(next_arrival) else {
                break; // drained: queue empty, nothing in flight
            };
            // Empty-queue idle tick: jump the serving clock to the next
            // arrival; the kernel clock stays put and the offset between
            // the two grows by the gap.
            clock_ns = clock_ns.max(a.at_ns as f64);
            idle_jumps += 1;
            continue;
        }
        peak_batch = peak_batch.max(active.len());

        // 3. One round: one chain per in-flight request, joined at a
        // barrier (the next admission point). A retiring chain's tail
        // carries the request id as a completion label; a first-token
        // tail that does not retire carries `t<id>`.
        let mut graph = TaskGraph::new();
        chains.clear();
        engine.round(&mut graph, &active, session.rounds(), &mut chains)?;
        assert_eq!(chains.len(), active.len(), "one chain per request");
        for (r, &(tail, marks)) in active.iter_mut().zip(&chains) {
            if marks.retire {
                graph.set_completion(tail, r.id.to_string());
            } else if marks.first_token {
                graph.set_completion(tail, format!("t{}", r.id));
            }
            r.marks = marks;
        }
        let tails = chains.iter().map(|&(tail, _)| tail).collect();
        graph.add("round", TaskKind::Barrier, Affinity::AnyAccel, tails);

        let run = session.extend(&graph)?;
        // Serving-clock offset over the kernel clock, constant within a
        // round (grows only at idle jumps).
        let skew_ns = clock_ns - units::to_ns(run.start);
        clock_ns = units::to_ns(run.end) + skew_ns;

        // 4. Retire: completion marks place each first token and each
        // finishing request on the kernel clock; latency is
        // arrival→mark on the serving clock.
        for (label, tick) in &run.completions {
            let id: u64 = label
                .trim_start_matches('t')
                .parse()
                .expect("completion labels are request ids");
            let r = active
                .iter()
                .find(|r| r.id == id)
                .expect("completion for an in-flight request");
            let done_ns = units::to_ns(*tick) + skew_ns;
            let latency_ns = done_ns - r.arrival_ns as f64;
            // A chain that both retires and ends the first token (an
            // LLM request with nothing to decode) reports both.
            if r.marks.first_token {
                engine.first_token(latency_ns);
            }
            if !r.marks.retire {
                continue;
            }
            overall.observe(latency_ns);
            by_tenant[r.tenant as usize].observe(latency_ns);
            trace.push(Completion {
                id,
                tenant: r.tenant,
                arrival_ns: r.arrival_ns,
                done_ns,
                latency_ns,
            });
            completed += 1;
            if latency_ns <= cfg.slo_ns {
                within_slo += 1;
            }
        }
        active.retain_mut(|r| !engine.advance(r.id, &mut r.slot));
    }

    let rounds = session.rounds();
    let elapsed_ns = clock_ns - clock_start_ns;
    let tenants = (0..tenant_count)
        .map(|t| TenantReport {
            tenant: t as u32,
            admitted: admitted_by_tenant[t],
            rejected: queue
                .rejected_by_tenant()
                .get(t)
                .copied()
                .unwrap_or_default(),
            latency: LatencySummary::of(&by_tenant[t]),
        })
        .collect();
    let report = ServeReport {
        offered: arrivals.len() as u64,
        admitted: admitted_by_tenant.iter().sum(),
        completed,
        rejected: queue.rejected(),
        rounds,
        idle_jumps,
        peak_batch,
        elapsed_ns,
        offered_rps: per_sec(arrivals.len() as u64, elapsed_ns),
        throughput_rps: per_sec(completed, elapsed_ns),
        goodput_rps: per_sec(within_slo, elapsed_ns),
        latency: LatencySummary::of(&overall),
        tenants,
    };
    Ok((report, trace))
}
