//! The dependency-driven workload dispatcher: executes a
//! [`TaskGraph`](accesys_workload::graph::TaskGraph) on a built
//! [`Simulation`].
//!
//! The dispatcher is the workload-side mirror of the topology engine: it
//! walks the typed task graph and *compiles* it into the driver
//! machinery the CPU model already has — synchronous
//! [`CpuOp::LaunchJob`] doorbells, asynchronous
//! [`CpuOp::LaunchAsync`]/[`CpuOp::WaitAll`] cookie fan-out, and
//! [`CpuOp::Stream`] kernels — so CPU streaming overlaps with in-flight
//! accelerator jobs and independent GEMMs spread across idle devices.
//!
//! ## Readiness and issue rules (the determinism contract)
//!
//! Compilation is a step loop over the graph; every choice is a
//! deterministic function of the graph and the device count, so the same
//! graph on the same topology always produces the same program — and
//! therefore the same simulation, bit for bit, regardless of sweep
//! worker counts. Readiness is tracked incrementally, as in Kahn's
//! topological sort: each task's dependents sit in one flat array, each
//! task counts its dependencies not yet done and those neither done nor
//! in flight, and ready and waitable tasks sit in id-ordered bitsets, so
//! a step touches only the tasks whose readiness it changed and a whole
//! compile costs O(tasks + edges) plus bitset word scans:
//!
//! 1. **Barriers** settle the moment their dependencies complete; they
//!    cost nothing and emit nothing.
//! 2. **GEMM issue**: every ready GEMM is issued, in task-id order, to
//!    its pinned device if idle, or (for [`Affinity::AnyAccel`]) to the
//!    lowest-index idle device. Ready GEMMs that find no idle eligible
//!    device stay pending. A GEMM issues `LaunchAsync` — except a lone
//!    ready GEMM with no CPU task ready and nothing in flight, which
//!    issues as a blocking `LaunchJob` (the *sync* variant) and retires
//!    on the spot: exactly the program the pre-graph sequential drivers
//!    emitted, which is what keeps chain lowerings byte-identical to
//!    them.
//! 3. **CPU issue**: every ready `Stream`/`Transfer` task then runs
//!    inline, in task-id order — the CPU streams while the launched jobs
//!    are still in flight.
//! 4. **Wait**: when nothing can issue, the dispatcher looks at the
//!    smallest-id blocked task whose unmet dependencies are all in
//!    flight. If that task joins *everything* in flight (a fork-join
//!    barrier), it emits one `WaitAll` over all cookies — the old
//!    sharded driver's program. Otherwise it waits on the
//!    earliest-issued in-flight cookie only (FIFO): launch order
//!    approximates completion order, so the CPU wakes as early as
//!    possible and issues freshly ready work, keeping independent
//!    pipeline chains advancing instead of letting one starve the
//!    others. With no blocked-but-waitable task it drains every
//!    in-flight cookie. Waited devices become idle again.
//!
//! Activation addresses for `Stream`/`Transfer` tasks come from the
//! topology's claimed activation windows
//! ([`crate::addrmap::act_windows`]). Activation buffers are transient,
//! so when the next task would not fit the cursor wraps to the window
//! base (buffer reuse) — long op lists never walk out of the claimed
//! window, which on device-memory trees used to end in a route-stack
//! panic. A single task larger than the whole window can never fit and
//! is rejected at compile time with [`RunError::ActWindowOverflow`] —
//! no event is simulated.

use crate::system::Simulation;
use crate::{RunError, RunReport, VitReport};
use accesys_accel::AccelJob;
use accesys_cpu::{CpuComplex, CpuOp};
use accesys_sim::{units, Msg, RunLimit, Tick};
use accesys_workload::graph::{Affinity, TaskGraph, TaskId, TaskKind};

/// How the dispatcher scheduled one graph: compile-time facts, useful
/// for asserting overlap in tests and reporting scheduling shape in
/// experiments. Fully deterministic for a given graph × topology.
#[derive(Copy, Clone, Debug, Default, serde::Serialize)]
pub struct DispatchPlan {
    /// Tasks in the graph.
    pub tasks: usize,
    /// Accelerator jobs issued (sync + async).
    pub launches: u64,
    /// Jobs issued as a blocking `LaunchJob` (the sync variant).
    pub sync_launches: u64,
    /// Jobs issued `LaunchAsync` (overlappable).
    pub async_launches: u64,
    /// `WaitAll` joins emitted.
    pub waits: u64,
    /// CPU streaming tasks run.
    pub streams: u64,
    /// Inter-stage transfer tasks run.
    pub transfers: u64,
    /// Barriers settled.
    pub barriers: u64,
    /// Peak accelerator jobs simultaneously in flight.
    pub max_in_flight: usize,
}

/// A graph compiled against a concrete simulation: the CPU program, the
/// accelerator jobs to enqueue (in issue order), and the plan counters.
pub(crate) struct CompiledGraph {
    pub program: Vec<CpuOp>,
    pub jobs: Vec<(usize, AccelJob)>,
    pub plan: DispatchPlan,
}

/// One [`GraphSession::extend`] round: only what the serving engines
/// read. The full phase/job/stat report of a dispatch comes from
/// [`Simulation::run_graph_planned`]; a round skips building it.
///
/// The kernel clock is monotone across successive dispatches on the
/// same [`Simulation`], so `start`/`end` of consecutive rounds tile the
/// timeline and `completions` place individual requests inside it.
#[derive(Clone, Debug)]
pub struct SessionRound {
    /// Kernel tick at which the round's program started.
    pub start: Tick,
    /// Kernel tick at which the round's last task retired.
    pub end: Tick,
    /// `(label, tick)` for every completion-labeled task
    /// ([`TaskGraph::set_completion`]), at the absolute tick the host
    /// retired it — observed its MSI at a wait point, finished its
    /// stream, or settled it as a barrier. Host retirement, not device
    /// completion: a job whose MSI was latched while the CPU waited
    /// elsewhere completes when the CPU reaches its wait point, which
    /// is when a real driver would return the response.
    pub completions: Vec<(String, Tick)>,
}

struct InFlight {
    task: TaskId,
    cookie: u64,
    device: usize,
}

/// A set of task ids as a bitset, scanned in task-id order.
struct IdSet(Vec<u64>);

impl IdSet {
    fn new(n: usize) -> Self {
        IdSet(vec![0; n.div_ceil(64)])
    }

    fn insert(&mut self, t: TaskId) {
        self.0[t / 64] |= 1 << (t % 64);
    }

    fn remove(&mut self, t: TaskId) {
        self.0[t / 64] &= !(1 << (t % 64));
    }

    /// The smallest member `>= from`.
    fn next_from(&self, from: TaskId) -> Option<TaskId> {
        let mut w = from / 64;
        let mut bits = self.0.get(w)? & (!0 << (from % 64));
        while bits == 0 {
            w += 1;
            bits = *self.0.get(w)?;
        }
        Some(w * 64 + bits.trailing_zeros() as usize)
    }

    /// Every member, in id order.
    fn iter(&self) -> impl Iterator<Item = TaskId> + '_ {
        std::iter::successors(self.next_from(0), |&t| self.next_from(t + 1))
    }
}

/// Incremental readiness for [`Simulation::compile_graph`], after
/// Kahn's topological sort: a retire or launch touches only the
/// dependents of the task it moves, never the whole graph.
struct Readiness<'g> {
    graph: &'g TaskGraph,
    /// The dependents of task `t` are
    /// `dependents[offsets[t]..offsets[t + 1]]` (one entry per edge).
    offsets: Vec<usize>,
    dependents: Vec<TaskId>,
    /// Per task: dependency edges not yet done.
    pending: Vec<usize>,
    /// Per task: dependency edges neither done nor in flight.
    unsettled: Vec<usize>,
    /// Barriers whose dependencies are all done.
    barriers: IdSet,
    /// Unissued GEMMs whose dependencies are all done.
    gemms: IdSet,
    /// `Stream`/`Transfer` tasks whose dependencies are all done.
    cpu: IdSet,
    /// Blocked tasks whose unmet dependencies are all in flight.
    waitable: IdSet,
    /// Tasks retired so far.
    done: usize,
}

impl<'g> Readiness<'g> {
    fn new(graph: &'g TaskGraph) -> Self {
        let n = graph.len();
        let pending: Vec<usize> = graph.tasks().iter().map(|t| t.deps.len()).collect();
        // `offsets[d]` first counts `d`'s dependents, then (prefix
        // summed) marks the end of its range, and is walked back to its
        // start as the edges fill in.
        let mut offsets = vec![0; n + 1];
        for t in graph.tasks() {
            for &d in &t.deps {
                offsets[d] += 1;
            }
        }
        let mut end = 0;
        for o in &mut offsets {
            end += *o;
            *o = end;
        }
        let mut dependents = vec![0; end];
        for (t, task) in graph.tasks().iter().enumerate() {
            for &d in &task.deps {
                offsets[d] -= 1;
                dependents[offsets[d]] = t;
            }
        }
        let mut r = Readiness {
            graph,
            offsets,
            dependents,
            unsettled: pending.clone(),
            pending,
            barriers: IdSet::new(n),
            gemms: IdSet::new(n),
            cpu: IdSet::new(n),
            waitable: IdSet::new(n),
            done: 0,
        };
        for t in 0..n {
            if r.pending[t] == 0 {
                r.make_ready(t);
            }
        }
        r
    }

    fn make_ready(&mut self, t: TaskId) {
        match self.graph.task(t).kind {
            TaskKind::Barrier => self.barriers.insert(t),
            TaskKind::Gemm(_) => self.gemms.insert(t),
            TaskKind::Stream { .. } | TaskKind::Transfer { .. } => self.cpu.insert(t),
        }
    }

    /// GEMM `t` was issued `LaunchAsync`: it is in flight.
    fn launched(&mut self, t: TaskId) {
        for &s in &self.dependents[self.offsets[t]..self.offsets[t + 1]] {
            self.unsettled[s] -= 1;
            if self.unsettled[s] == 0 {
                self.waitable.insert(s);
            }
        }
    }

    /// The host retires `t` at this program position (`was_in_flight`
    /// if it was [`Readiness::launched`]). Completion-labeled tasks get
    /// a `done:<label>` mark there, so the mark timeline carries
    /// absolute completion ticks. Unlabeled graphs emit nothing — their
    /// programs stay byte-identical.
    fn retire(&mut self, t: TaskId, was_in_flight: bool, program: &mut Vec<CpuOp>) {
        self.done += 1;
        if let Some(label) = &self.graph.task(t).completion {
            program.push(CpuOp::Mark {
                label: format!("done:{label}"),
            });
        }
        for i in self.offsets[t]..self.offsets[t + 1] {
            let s = self.dependents[i];
            self.pending[s] -= 1;
            if !was_in_flight {
                self.unsettled[s] -= 1;
            }
            if self.pending[s] == 0 {
                self.waitable.remove(s);
                self.make_ready(s);
            } else if self.unsettled[s] == 0 {
                self.waitable.insert(s);
            }
        }
    }
}

impl Simulation {
    /// Compile `graph` into a CPU program + job enqueue list without
    /// touching the kernel or the cookie counter (so a compile error
    /// leaves the simulation untouched — a retry compiles the exact
    /// same program a fresh simulation would).
    pub(crate) fn compile_graph(&self, graph: &TaskGraph) -> Result<CompiledGraph, RunError> {
        graph
            .validate(self.accel_count())
            .map_err(|e| RunError::InvalidGraph(e.to_string()))?;
        let n = graph.len();
        let (read_win, write_win) = self.act_windows();
        let read_limit = read_win.base + read_win.size;
        let write_limit = write_win.base + write_win.size;
        let mut read_cursor = read_win.base;
        let mut write_cursor = write_win.base;
        let mut ready = Readiness::new(graph);
        let mut busy = vec![false; self.accel_count()];
        let mut in_flight: Vec<InFlight> = Vec::new();
        let mut program: Vec<CpuOp> = Vec::new();
        let mut jobs: Vec<(usize, AccelJob)> = Vec::new();
        let mut ready_gemms: Vec<TaskId> = Vec::new();
        let mut ready_cpu: Vec<TaskId> = Vec::new();
        // Cookies are drawn from a local counter and committed to the
        // simulation only on success, so a failed compile consumes none
        // (cookie `i` of the simulation's run is `i % 1000`).
        let cookie_base = self.peek_cookie();
        let mut next_cookie = 0u64;
        let mut draw_cookie = move || {
            let c = (cookie_base + next_cookie) % 1000;
            next_cookie += 1;
            c
        };
        let mut plan = DispatchPlan {
            tasks: n,
            ..DispatchPlan::default()
        };

        while ready.done < n {
            // 1. Settle ready barriers to fixpoint (zero-cost joins), in
            // id-order passes: a barrier readied by a retire at id `t`
            // settles in the same pass if its id is above `t`, else in
            // the next one.
            let mut from = 0;
            loop {
                match ready.barriers.next_from(from) {
                    Some(t) => {
                        ready.barriers.remove(t);
                        ready.retire(t, false, &mut program);
                        plan.barriers += 1;
                        from = t + 1;
                    }
                    None if from == 0 => break,
                    None => from = 0,
                }
            }
            if ready.done == n {
                break;
            }

            // Snapshots of this step's ready work: tasks readied while
            // issuing it wait for the next step.
            ready_gemms.clear();
            ready_gemms.extend(ready.gemms.iter());
            ready_cpu.clear();
            ready_cpu.extend(ready.cpu.iter());

            // 2. Issue every ready GEMM that can get an idle eligible
            // device, in task-id order. A lone ready GEMM with nothing
            // else to do or wait for — the sequential drivers' shape —
            // issues as a blocking LaunchJob; with nothing in flight
            // every device is idle, so it lands on its pin or device 0.
            let sync = in_flight.is_empty() && ready_cpu.is_empty() && ready_gemms.len() == 1;
            let mut advanced = false;
            for &t in &ready_gemms {
                let TaskKind::Gemm(spec) = graph.task(t).kind else {
                    unreachable!("ready_gemms holds GEMMs");
                };
                let dev = match graph.task(t).affinity {
                    Affinity::Pinned(d) => (!busy[d]).then_some(d),
                    Affinity::AnyAccel => busy.iter().position(|&b| !b),
                };
                let Some(dev) = dev else {
                    continue; // no idle eligible device: stays pending
                };
                let cookie = draw_cookie();
                jobs.push((dev, self.layout_job(&spec, cookie, dev)));
                program.push(CpuOp::Mark {
                    label: format!("gemm:{}", graph.task(t).name),
                });
                let doorbell_addr = self.device(dev).doorbell;
                ready.gemms.remove(t);
                plan.launches += 1;
                advanced = true;
                if sync {
                    program.push(CpuOp::LaunchJob {
                        doorbell_addr,
                        job_cookie: cookie,
                    });
                    plan.sync_launches += 1;
                    // LaunchJob blocks until the MSI: retired right here.
                    ready.retire(t, false, &mut program);
                    continue;
                }
                program.push(CpuOp::LaunchAsync { doorbell_addr });
                busy[dev] = true;
                ready.launched(t);
                in_flight.push(InFlight {
                    task: t,
                    cookie,
                    device: dev,
                });
                plan.async_launches += 1;
                plan.max_in_flight = plan.max_in_flight.max(in_flight.len());
            }
            // 3. Run every ready CPU task inline: these stream while the
            // jobs issued above are in flight.
            for &t in &ready_cpu {
                let task = graph.task(t);
                let (label, rb, wb, flops) = match task.kind {
                    TaskKind::Stream {
                        read_bytes,
                        write_bytes,
                        flops,
                    } => {
                        plan.streams += 1;
                        (
                            format!("nongemm:{}", task.name),
                            read_bytes,
                            write_bytes,
                            flops,
                        )
                    }
                    TaskKind::Transfer { bytes } => {
                        plan.transfers += 1;
                        (format!("xfer:{}", task.name), bytes, bytes, 0)
                    }
                    _ => unreachable!("ready_cpu holds Stream/Transfer"),
                };
                // Activation buffers are transient: when the next task
                // would not fit, its cursor wraps to the window base
                // (buffer reuse), so long op lists stay inside the
                // claimed window instead of silently walking out of it.
                // A single task bigger than the whole window can never
                // fit and is a typed error.
                if rb > read_win.size {
                    return Err(RunError::ActWindowOverflow {
                        window: "read",
                        needed_end: read_win.base + rb,
                        limit: read_limit,
                    });
                }
                if wb > write_win.size {
                    return Err(RunError::ActWindowOverflow {
                        window: "write",
                        needed_end: write_win.base + wb,
                        limit: write_limit,
                    });
                }
                if read_cursor + rb > read_limit {
                    read_cursor = read_win.base;
                }
                if write_cursor + wb > write_limit {
                    write_cursor = write_win.base;
                }
                program.push(CpuOp::Mark { label });
                program.push(CpuOp::Stream {
                    read_bytes: rb,
                    write_bytes: wb,
                    flops,
                    read_addr: read_cursor,
                    write_addr: write_cursor,
                });
                read_cursor += rb;
                write_cursor += wb;
                // Stream ops block the CPU: retired when they return.
                ready.cpu.remove(t);
                ready.retire(t, false, &mut program);
                advanced = true;
            }
            if advanced {
                continue;
            }

            // 4. Blocked: pick a wait set. When the smallest-id blocked
            // task whose unmet deps are all in flight needs
            // *everything* in flight (a join), one WaitAll over all
            // cookies reproduces the old fork-join drivers. Otherwise
            // drain the earliest-issued cookie only (FIFO): launch
            // order approximates completion order, so the CPU wakes as
            // early as possible and re-issues freshly ready work — this
            // is what keeps independent pipelines advancing instead of
            // one chain starving the others. With no such task, drain
            // everything in flight.
            if in_flight.is_empty() {
                // Validation excludes cycles and bad pins, so a block
                // with nothing in flight cannot happen; guard anyway so
                // a future bug errors instead of spinning forever.
                return Err(RunError::InvalidGraph(
                    "dispatcher deadlock: tasks remain but nothing is in flight".into(),
                ));
            }
            let wait_all = ready.waitable.next_from(0).is_none_or(|t| {
                let deps = &graph.task(t).deps;
                in_flight.iter().all(|f| deps.contains(&f.task))
            });
            let waiting = if wait_all { in_flight.len() } else { 1 };
            program.push(CpuOp::WaitAll {
                cookies: in_flight[..waiting].iter().map(|f| f.cookie).collect(),
            });
            plan.waits += 1;
            // The whole wait set retires at the WaitAll's return, in
            // task-id order so the mark timeline is deterministic.
            in_flight[..waiting].sort_unstable_by_key(|f| f.task);
            for f in in_flight.drain(..waiting) {
                busy[f.device] = false;
                ready.retire(f.task, true, &mut program);
            }
        }
        // A task leaves `in_flight` only as it retires, and the loop
        // ends only once every task has: nothing is left to drain.
        debug_assert!(in_flight.is_empty(), "in-flight jobs outlived the graph");
        Ok(CompiledGraph {
            program,
            jobs,
            plan,
        })
    }

    /// Execute `graph` on this system: compile it (validating structure
    /// and activation windows), enqueue the accelerator jobs, run the
    /// CPU program to completion, and report phases/jobs/stats exactly
    /// like the layer drivers do.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::InvalidGraph`] or
    /// [`RunError::ActWindowOverflow`] at compile time (no events
    /// simulated), or any simulation [`RunError`] from the run itself.
    pub fn run_graph(&mut self, graph: &TaskGraph) -> Result<VitReport, RunError> {
        self.run_graph_planned(graph).map(|(report, _)| report)
    }

    /// [`Simulation::run_graph`] returning the [`DispatchPlan`] next to
    /// the report, for callers that assert on scheduling shape.
    ///
    /// # Errors
    ///
    /// As [`Simulation::run_graph`].
    pub fn run_graph_planned(
        &mut self,
        graph: &TaskGraph,
    ) -> Result<(VitReport, DispatchPlan), RunError> {
        let compiled = self.compile_graph(graph)?;
        let plan = compiled.plan;
        let before = self.record_marks();
        let round = self.run_compiled(compiled)?;
        let phases = self
            .cpu_marks()
            .windows(2)
            .map(|pair| (pair[0].0.clone(), units::to_ns(pair[1].1 - pair[0].1)))
            .collect();
        let report = VitReport {
            total_ticks: round.end - round.start,
            phases,
            jobs: self.records_since(&before),
            stats: self.stats(),
        };
        Ok((report, plan))
    }

    /// Execute `graph` and report as a [`RunReport`] (GEMM-shaped
    /// workloads: single jobs, fork-join shards, multi-GEMM mixes).
    ///
    /// # Errors
    ///
    /// As [`Simulation::run_graph`].
    pub fn run_graph_gemm(&mut self, graph: &TaskGraph) -> Result<RunReport, RunError> {
        let compiled = self.compile_graph(graph)?;
        self.run_compiled_gemm(compiled)
    }

    /// Run a compiled GEMM-shaped graph and report its jobs, SMMU and
    /// module counters.
    pub(crate) fn run_compiled_gemm(
        &mut self,
        compiled: CompiledGraph,
    ) -> Result<RunReport, RunError> {
        let before = self.record_marks();
        let round = self.run_compiled(compiled)?;
        Ok(RunReport {
            total_ticks: round.end - round.start,
            jobs: self.records_since(&before),
            smmu: self.smmu_stats(),
            stats: self.stats(),
        })
    }

    /// Enqueue `compiled`'s jobs, run its CPU program to the end and
    /// read the completion marks off the CPU.
    fn run_compiled(&mut self, compiled: CompiledGraph) -> Result<SessionRound, RunError> {
        self.commit_cookies(compiled.plan.launches);
        for (dev, job) in compiled.jobs {
            self.enqueue(job, dev);
        }
        let start = self.kernel().now();
        let cpu = self.handles().cpu;
        let kernel = self.kernel_mut();
        kernel
            .module_mut::<CpuComplex>(cpu)
            .expect("cpu present")
            .load_program(compiled.program);
        kernel.schedule(start, cpu, Msg::Timer(0));
        kernel.run(RunLimit::default())?;
        let end = kernel
            .module::<CpuComplex>(cpu)
            .expect("cpu present")
            .finished_at()
            .ok_or_else(|| RunError::NoCompletion("cpu program did not finish".into()))?;
        let completions = self
            .cpu_marks()
            .iter()
            .filter_map(|(label, tick)| label.strip_prefix("done:").map(|l| (l.to_string(), *tick)))
            .collect();
        Ok(SessionRound {
            start,
            end,
            completions,
        })
    }

    /// The `(label, tick)` marks of the last program run.
    fn cpu_marks(&self) -> &[(String, Tick)] {
        self.kernel()
            .module::<CpuComplex>(self.handles().cpu)
            .expect("cpu present")
            .marks()
    }

    /// Open an incremental dispatch session: the serving engines extend
    /// the timeline one round graph at a time through it. See
    /// [`GraphSession`].
    pub fn graph_session(&mut self) -> GraphSession<'_> {
        let start = self.kernel().now();
        GraphSession {
            sim: self,
            rounds: 0,
            start,
            last_end: start,
        }
    }
}

/// An incremental dispatch session: successive [`GraphSession::extend`]
/// calls append round graphs to one simulation's timeline.
///
/// This is how the serving layer generates per-round shapes
/// *incrementally* — the next round's graph (which requests decode,
/// what their KV pressure transfers look like) is only known once the
/// previous round's barrier has settled, so the graph cannot be built
/// ahead of time. The session pins the contract that makes the round
/// sequence composable:
///
/// * **Monotone clock** — round `k+1` starts exactly where round `k`
///   ended (the kernel clock never rewinds between extends; asserted,
///   so a regression fails loudly instead of silently folding time).
/// * **Deterministic** — an extend dispatches exactly as
///   [`Simulation::run_graph`] on the shared simulation: same session,
///   same graph sequence, same ticks, byte for byte. It returns a
///   [`SessionRound`] (start, end, completions), not the full report.
///
/// ```
/// use accesys::{Simulation, SystemConfig};
/// use accesys_workload::graph::op_chain;
/// use accesys_workload::{encoder_ops, VitModel};
///
/// let mut sim = Simulation::new(SystemConfig::paper_baseline()).unwrap();
/// let graph = op_chain(&encoder_ops(16, 64, 4, 128));
/// let mut session = sim.graph_session();
/// let a = session.extend(&graph).unwrap();
/// let b = session.extend(&graph).unwrap();
/// assert_eq!(session.rounds(), 2);
/// assert!(b.start >= a.end, "rounds tile the timeline");
/// ```
pub struct GraphSession<'a> {
    sim: &'a mut Simulation,
    rounds: u64,
    start: Tick,
    last_end: Tick,
}

impl GraphSession<'_> {
    /// Dispatch one more round graph at the current kernel tick.
    ///
    /// # Errors
    ///
    /// As [`Simulation::run_graph`]; a failed extend consumes no
    /// cookies and does not count as a round.
    ///
    /// # Panics
    ///
    /// Panics if the kernel clock ran backwards between rounds — a
    /// broken invariant, not an input error.
    pub fn extend(&mut self, graph: &TaskGraph) -> Result<SessionRound, RunError> {
        let compiled = self.sim.compile_graph(graph)?;
        let run = self.sim.run_compiled(compiled)?;
        assert!(
            run.start >= self.last_end,
            "graph session clock ran backwards: round {} started at {} before the previous end {}",
            self.rounds,
            run.start,
            self.last_end,
        );
        self.rounds += 1;
        self.last_end = run.end;
        Ok(run)
    }

    /// Rounds extended so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Kernel tick the session opened at.
    pub fn opened_at(&self) -> Tick {
        self.start
    }

    /// Kernel tick the last round ended at (the session open tick
    /// before any round).
    pub fn now(&self) -> Tick {
        self.last_end
    }

    /// Accelerators of the underlying simulation (engines size their
    /// batches and KV device choices off this).
    pub fn accel_count(&self) -> usize {
        self.sim.accel_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{switch_tree, switch_tree_with};
    use crate::{MemBackendConfig, SystemConfig};
    use accesys_mem::MemTech;
    use accesys_workload::graph::{
        gemm_fork_join, head_parallel_attention, op_chain, pipelined_encoder, two_tenant_mix,
        PipelineSpec, TaskGraph,
    };
    use accesys_workload::llm::{moe_token_route, speculative_fork_verify, LlmSpec};
    use accesys_workload::{encoder_ops, vit_ops, BertModel, GemmSpec, VitModel};

    /// A multi-accelerator tree where device parallelism can actually
    /// show: every leaf holds its working set in local device memory (no
    /// shared-uplink serialization of job DMA), compute is pinned at a
    /// fixed per-job cost, and CPU activations stay in fast host DRAM.
    fn tree_sim(levels: &[u32]) -> Simulation {
        let mut cfg =
            SystemConfig::pcie_host(16.0, MemTech::Ddr4).with_compute_override_ns(50_000.0);
        cfg.smmu = None;
        let spec = switch_tree_with(&cfg, levels, |_| {
            Some(MemBackendConfig::Dram(MemTech::Hbm2))
        })
        .expect("valid tree");
        Simulation::from_topology(cfg, &spec).expect("valid topology")
    }

    /// A small synthetic encoder pipeline (fast to simulate).
    fn small_pipeline(images: u32, devices: usize) -> TaskGraph {
        pipelined_encoder(
            64,
            128,
            4,
            512,
            &PipelineSpec {
                layers: 4,
                images,
                devices,
            },
        )
    }

    /// A one-task graph: a CPU stream of `read_bytes` in, `write_bytes`
    /// out, from the base of the activation windows.
    fn stream_graph(read_bytes: u64, write_bytes: u64) -> TaskGraph {
        let mut g = TaskGraph::new();
        let kind = TaskKind::Stream {
            read_bytes,
            write_bytes,
            flops: 0,
        };
        g.add("stream", kind, Affinity::AnyAccel, vec![]);
        g
    }

    #[test]
    fn invalid_graphs_are_rejected_before_any_event() {
        let mut sim = Simulation::new(SystemConfig::paper_baseline()).unwrap();
        let mut g = TaskGraph::new();
        let a = g.add(
            "a",
            TaskKind::Gemm(GemmSpec::square(32)),
            Affinity::AnyAccel,
            vec![],
        );
        let b = g.add(
            "b",
            TaskKind::Gemm(GemmSpec::square(32)),
            Affinity::AnyAccel,
            vec![a],
        );
        g.add_dep(a, b);
        let err = sim.run_graph(&g).unwrap_err();
        assert!(matches!(err, RunError::InvalidGraph(_)), "got {err}");
        // Nothing ran: the kernel clock never moved.
        assert_eq!(sim.kernel().now(), 0);
    }

    #[test]
    fn act_cursors_never_walk_out_of_the_claimed_window() {
        // Regression: the sequential driver advanced its activation
        // cursors unchecked, so a large-enough op list silently walked
        // out of the claimed window (on devmem trees that ends in a
        // route-stack panic). The dispatcher wraps cursors at the
        // window end instead (activation buffers are transient), so
        // every compiled address stays inside the claimed split.
        let mut sim = Simulation::new(SystemConfig::paper_baseline()).unwrap();
        let (read_win, write_win) = sim.act_windows();
        let mut g = TaskGraph::new();
        let half = crate::addrmap::ACT_SPLIT / 2;
        let mut prev = None;
        for i in 0..5 {
            let deps = prev.into_iter().collect();
            prev = Some(g.add(
                format!("s{i}"),
                TaskKind::Stream {
                    read_bytes: half,
                    write_bytes: half,
                    flops: 0,
                },
                Affinity::AnyAccel,
                deps,
            ));
        }
        let compiled = sim.compile_graph(&g).unwrap();
        let mut streams = 0;
        for op in &compiled.program {
            if let CpuOp::Stream {
                read_addr,
                write_addr,
                read_bytes,
                write_bytes,
                ..
            } = op
            {
                streams += 1;
                assert!(read_addr + read_bytes <= read_win.base + read_win.size);
                assert!(write_addr + write_bytes <= write_win.base + write_win.size);
                assert!(*read_addr >= read_win.base && *write_addr >= write_win.base);
            }
        }
        assert_eq!(streams, 5);
        // The third stream wrapped back to the window base.
        let CpuOp::Stream { read_addr, .. } = &compiled.program[2 * 2 + 1] else {
            panic!("stream op expected");
        };
        assert_eq!(*read_addr, read_win.base, "third stream wraps");
        // …and the wrapped program really runs.
        assert!(sim.run_graph(&g).unwrap().total_time_ns() > 0.0);
    }

    #[test]
    fn oversized_single_streams_are_a_typed_error() {
        // A single task bigger than the whole window can never fit:
        // typed error at compile time, no event simulated.
        let mut sim = Simulation::new(SystemConfig::paper_baseline()).unwrap();
        let mut g = TaskGraph::new();
        g.add(
            "huge",
            TaskKind::Stream {
                read_bytes: crate::addrmap::ACT_SPLIT + 1,
                write_bytes: 0,
                flops: 0,
            },
            Affinity::AnyAccel,
            vec![],
        );
        let err = sim.run_graph(&g).unwrap_err();
        assert!(
            matches!(err, RunError::ActWindowOverflow { window: "read", .. }),
            "got {err}"
        );
        assert_eq!(sim.kernel().now(), 0, "rejected before any event");
        // The write side is bounds-checked the same way.
        let err = sim
            .run_graph(&stream_graph(0, crate::addrmap::ACT_SPLIT + 1))
            .unwrap_err();
        assert!(
            matches!(
                err,
                RunError::ActWindowOverflow {
                    window: "write",
                    ..
                }
            ),
            "got {err}"
        );
    }

    #[test]
    fn failed_compiles_consume_no_cookies() {
        // A rejected graph must leave the simulation exactly as a fresh
        // one: the next successful run draws the same cookie sequence
        // (cookies feed MSI addresses and JobRecord JSON).
        let mut fresh = Simulation::new(SystemConfig::paper_baseline()).unwrap();
        let mut used = Simulation::new(SystemConfig::paper_baseline()).unwrap();
        let mut bad = TaskGraph::new();
        bad.add(
            "g",
            TaskKind::Gemm(GemmSpec::square(32)),
            Affinity::AnyAccel,
            vec![],
        );
        bad.add(
            "huge",
            TaskKind::Stream {
                read_bytes: crate::addrmap::ACT_SPLIT + 1,
                write_bytes: 0,
                flops: 0,
            },
            Affinity::AnyAccel,
            vec![0],
        );
        assert!(used.run_graph(&bad).is_err());
        let ok = op_chain(&encoder_ops(64, 128, 4, 512));
        let a = fresh.run_graph(&ok).unwrap();
        let b = used.run_graph(&ok).unwrap();
        let cookies = |r: &crate::VitReport| r.jobs.iter().map(|j| j.cookie).collect::<Vec<_>>();
        assert_eq!(cookies(&a), cookies(&b));
    }

    #[test]
    fn paper_scale_full_models_compile_within_the_window() {
        // Full ViT-Large/Huge graphs and paper-scale pipeline chains
        // exceed 128 MiB of activations; the wrap keeps them
        // compilable (pre-wrap this was a guaranteed error).
        let sim = Simulation::new(SystemConfig::paper_baseline()).unwrap();
        for model in [VitModel::Large, VitModel::Huge] {
            let ops = accesys_workload::vit_full_ops(model);
            let compiled = sim.compile_graph(&op_chain(&ops)).unwrap();
            assert!(!compiled.program.is_empty(), "{model} compiles");
        }
    }

    #[test]
    fn devmem_tree_write_window_is_clamped_to_the_claimed_slice() {
        // On a per-slice devmem tree the write window ends at the slice
        // boundary — the old driver would have streamed into unclaimed
        // addresses and panicked the route stack.
        let cfg = SystemConfig::devmem(MemTech::Hbm2);
        let spec = switch_tree(&cfg, &[2]).unwrap();
        let mut sim = Simulation::from_topology(cfg, &spec).unwrap();
        let (_, write_win) = sim.act_windows();
        assert!(write_win.size < crate::addrmap::ACT_SPLIT);
        let err = sim
            .run_graph(&stream_graph(0, write_win.size + 1))
            .unwrap_err();
        assert!(matches!(err, RunError::ActWindowOverflow { .. }), "{err}");
        // Within the clamped window it still runs (and over real wires).
        let report = sim.run_graph(&stream_graph(1 << 20, 1 << 20)).unwrap();
        assert!(report.total_time_ns() > 0.0);
    }

    #[test]
    fn chain_graphs_issue_synchronously_like_the_sequential_driver() {
        let mut sim = Simulation::new(SystemConfig::paper_baseline()).unwrap();
        let ops = encoder_ops(64, 128, 4, 512);
        let (report, plan) = sim.run_graph_planned(&op_chain(&ops)).unwrap();
        assert_eq!(plan.sync_launches, plan.launches);
        assert_eq!(plan.async_launches, 0);
        assert_eq!(plan.waits, 0);
        assert_eq!(plan.max_in_flight, 0);
        assert!(report.gemm_ns() > 0.0 && report.non_gemm_ns() > 0.0);
    }

    #[test]
    fn fork_join_graphs_fan_out_like_the_old_sharded_loop() {
        let mut sim = tree_sim(&[4]);
        let (report, plan) = sim
            .run_graph_planned(&gemm_fork_join(GemmSpec::square(256), 4))
            .unwrap();
        assert_eq!(plan.async_launches, 4);
        assert_eq!(plan.max_in_flight, 4);
        assert_eq!(plan.waits, 1);
        assert_eq!(plan.barriers, 1);
        assert_eq!(report.jobs.len(), 4);
    }

    #[test]
    fn pipelined_encoder_beats_the_sequential_chain_on_a_tree() {
        // Same total work, two schedules: a chain through device 0 vs a
        // 4-stage pipeline over 4 leaves with 3 images in flight.
        let images = 3u32;
        let chain_ops: Vec<_> = (0..images * 4)
            .flat_map(|_| encoder_ops(64, 128, 4, 512))
            .collect();
        let mut seq_sim = tree_sim(&[4]);
        let seq = seq_sim.run_graph(&op_chain(&chain_ops)).unwrap();

        let mut pipe_sim = tree_sim(&[4]);
        let (pipe, plan) = pipe_sim
            .run_graph_planned(&small_pipeline(images, 4))
            .unwrap();
        assert!(
            plan.max_in_flight >= 2,
            "pipeline never overlapped devices: {plan:?}"
        );
        assert!(plan.transfers > 0, "no inter-stage handoffs: {plan:?}");
        assert!(pipe.transfer_ns() > 0.0);
        let speedup = seq.total_time_ns() / pipe.total_time_ns();
        assert!(
            speedup > 1.2,
            "pipelining should beat the chain, got {speedup:.2}x \
             (seq {:.0} ns, pipe {:.0} ns)",
            seq.total_time_ns(),
            pipe.total_time_ns()
        );
        // Every leaf did real work.
        for i in 0..4 {
            assert!(
                pipe.stats.get_or_zero(&format!("accel{i}.jobs_done")) >= 1.0,
                "leaf {i} idle"
            );
        }
    }

    #[test]
    fn head_parallel_attention_spreads_heads_over_the_pool() {
        let mut sim = tree_sim(&[2, 2]);
        let (report, plan) = sim
            .run_graph_planned(&head_parallel_attention(VitModel::Base))
            .unwrap();
        assert!(
            plan.max_in_flight >= 2,
            "heads never ran concurrently: {plan:?}"
        );
        // All four leaves picked up head work (AnyAccel round-robin).
        for i in 0..4 {
            assert!(
                report.stats.get_or_zero(&format!("accel{i}.jobs_done")) >= 1.0,
                "leaf {i} idle"
            );
        }
        // 12 heads × (scores + attnv) + qkv + proj + fc1 + fc2.
        assert_eq!(report.jobs.len(), 2 * 12 + 4);
    }

    #[test]
    fn two_tenant_mix_interleaves_on_shared_devices() {
        let mut sim = tree_sim(&[2]);
        let (report, plan) = sim
            .run_graph_planned(&two_tenant_mix(VitModel::Base, BertModel::Base, 128))
            .unwrap();
        // The two tenant chains overlap on the two devices.
        assert!(
            plan.max_in_flight == 2,
            "tenants never overlapped: {plan:?}"
        );
        assert!(report.total_time_ns() > 0.0);
        assert!(report.stats.get_or_zero("accel0.jobs_done") >= 1.0);
        assert!(report.stats.get_or_zero("accel1.jobs_done") >= 1.0);
    }

    #[test]
    fn completion_marks_place_tasks_on_the_kernel_clock() {
        // A fork of two pinned GEMMs and a labeled barrier: the labeled
        // tasks' completion ticks must land inside the run's [start, end]
        // window, in dependency order, and the unlabeled graph's program
        // must stay mark-free (byte-identical contract).
        let mut sim = tree_sim(&[2]);
        let mut g = TaskGraph::new();
        let a = g.add(
            "a",
            TaskKind::Gemm(GemmSpec::square(64)),
            Affinity::Pinned(0),
            vec![],
        );
        let b = g.add(
            "b",
            TaskKind::Gemm(GemmSpec::square(64)),
            Affinity::Pinned(1),
            vec![],
        );
        let bar = g.add("join", TaskKind::Barrier, Affinity::AnyAccel, vec![a, b]);
        g.set_completion(a, "req0");
        g.set_completion(b, "req1");
        g.set_completion(bar, "round");
        let run = sim.graph_session().extend(&g).unwrap();
        assert_eq!(run.completions.len(), 3);
        let tick_of = |label: &str| {
            run.completions
                .iter()
                .find(|(l, _)| l == label)
                .unwrap_or_else(|| panic!("completion {label} recorded"))
                .1
        };
        for (_, t) in &run.completions {
            assert!(run.start <= *t && *t <= run.end);
        }
        // The barrier settles when both forks are retired.
        assert!(tick_of("round") >= tick_of("req0").max(tick_of("req1")));
        // Unlabeled: no done: marks anywhere in the compiled program.
        let mut unlabeled = tree_sim(&[2]);
        let mut g2 = TaskGraph::new();
        g2.add(
            "a",
            TaskKind::Gemm(GemmSpec::square(64)),
            Affinity::Pinned(0),
            vec![],
        );
        let run2 = unlabeled.graph_session().extend(&g2).unwrap();
        assert!(run2.completions.is_empty());
        let (report2, _) = unlabeled.run_graph_planned(&g2).unwrap();
        assert!(report2
            .phases
            .iter()
            .all(|(label, _)| !label.starts_with("done:")));
    }

    #[test]
    fn completion_marks_ride_the_sync_fast_path_too() {
        // A pure chain takes the blocking LaunchJob path; a labeled tail
        // still reports its retirement tick (== run end here).
        let mut sim = Simulation::new(SystemConfig::paper_baseline()).unwrap();
        let ops = encoder_ops(64, 128, 4, 512);
        let mut g = op_chain(&ops);
        let tail = g.len() - 1;
        g.set_completion(tail, "req0");
        let run = sim.graph_session().extend(&g).unwrap();
        assert_eq!(run.completions.len(), 1);
        assert_eq!(run.completions[0].0, "req0");
        assert_eq!(run.completions[0].1, run.end);
    }

    #[test]
    fn kernel_clock_is_monotone_across_rounds() {
        // Successive dispatches on one simulation tile the timeline —
        // the property the serving layer's arrival clock builds on.
        let mut sim = tree_sim(&[2]);
        let mut last_end = 0;
        for i in 0..3 {
            let mut g = TaskGraph::new();
            let t = g.add(
                format!("r{i}"),
                TaskKind::Gemm(GemmSpec::square(64)),
                Affinity::AnyAccel,
                vec![],
            );
            g.set_completion(t, format!("req{i}"));
            let run = sim.graph_session().extend(&g).unwrap();
            assert!(run.start >= last_end);
            assert!(run.end > run.start);
            last_end = run.end;
        }
    }

    #[test]
    fn pinned_tasks_queue_for_their_busy_device() {
        // Three independent GEMMs all pinned to device 0 of a 2-leaf
        // tree: they must serialize on device 0 and never touch device 1.
        let mut sim = tree_sim(&[2]);
        let mut g = TaskGraph::new();
        for i in 0..3 {
            g.add(
                format!("pin{i}"),
                TaskKind::Gemm(GemmSpec::square(64)),
                Affinity::Pinned(0),
                vec![],
            );
        }
        let (report, plan) = sim.run_graph_planned(&g).unwrap();
        assert_eq!(report.jobs.len(), 3);
        assert_eq!(plan.max_in_flight, 1);
        assert_eq!(report.stats.get_or_zero("accel0.jobs_done"), 3.0);
        assert_eq!(report.stats.get_or_zero("accel1.jobs_done"), 0.0);
    }

    #[test]
    fn graph_sessions_tile_the_timeline_and_count_rounds() {
        let mut sim = tree_sim(&[2]);
        let mut session = sim.graph_session();
        assert_eq!(session.rounds(), 0);
        assert_eq!(session.now(), session.opened_at());
        assert_eq!(session.accel_count(), 2);
        let mut last_end = session.opened_at();
        for i in 0..3 {
            let mut g = TaskGraph::new();
            let t = g.add(
                format!("r{i}"),
                TaskKind::Gemm(GemmSpec::square(64)),
                Affinity::AnyAccel,
                vec![],
            );
            g.set_completion(t, format!("req{i}"));
            let round: SessionRound = session.extend(&g).unwrap();
            assert!(round.start >= last_end);
            assert!(round.end > round.start);
            assert_eq!(round.completions, vec![(format!("req{i}"), round.end)]);
            last_end = round.end;
        }
        assert_eq!(session.rounds(), 3);
        assert_eq!(session.now(), last_end);
    }

    #[test]
    fn graph_session_failed_extends_do_not_count() {
        let mut sim = tree_sim(&[2]);
        let mut session = sim.graph_session();
        assert!(session.extend(&TaskGraph::new()).is_err());
        assert_eq!(session.rounds(), 0, "failed extend is not a round");
        assert_eq!(session.now(), session.opened_at());
        // The session still works afterwards (no cookies were burned).
        let g = op_chain(&encoder_ops(16, 64, 4, 128));
        let round = session.extend(&g).unwrap();
        assert_eq!(session.rounds(), 1);
        assert_eq!(session.now(), round.end);
    }

    /// FNV-1a over the `Debug` form of a compile's output: program ops,
    /// job list and plan, byte for byte.
    fn compile_digest(sim: &Simulation, graph: &TaskGraph) -> u64 {
        let c = sim.compile_graph(graph).expect("graph compiles");
        format!("{:?}", (&c.program, &c.jobs, c.plan))
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            })
    }

    #[test]
    fn compiled_programs_are_pinned() {
        // The compiler's exact output for one graph of every shape the
        // workloads lower to. Any change to issue order, device choice,
        // cookies, wait sets, completion-mark placement or plan counters
        // changes a digest.
        let llm = LlmSpec::tiny();
        let mut labeled = small_pipeline(3, 4);
        for t in 0..labeled.len() {
            labeled.set_completion(t, format!("t{t}"));
        }
        // A GEMM nothing depends on, next to an independent stream: the
        // stream runs while the GEMM is in flight, then the dispatcher
        // blocks with no waitable task and drains every cookie.
        let mut unjoined = TaskGraph::new();
        let lone = unjoined.add(
            "lone",
            TaskKind::Gemm(GemmSpec::square(64)),
            Affinity::AnyAccel,
            vec![],
        );
        let side = unjoined.add(
            "side",
            TaskKind::Stream {
                read_bytes: 1 << 16,
                write_bytes: 1 << 16,
                flops: 0,
            },
            Affinity::AnyAccel,
            vec![],
        );
        unjoined.set_completion(lone, "lone");
        unjoined.set_completion(side, "side");
        let baseline = Simulation::new(SystemConfig::paper_baseline()).unwrap();
        let tree = tree_sim(&[4]);
        let cases: [(&str, &Simulation, TaskGraph, u64); 10] = [
            (
                "vit_base_chain",
                &baseline,
                op_chain(&vit_ops(VitModel::Base)),
                0x4c3c_fb26_4f8b_bb9f,
            ),
            (
                "fork_join",
                &tree,
                gemm_fork_join(GemmSpec::square(256), 4),
                0xfacf_9e63_abc8_82ef,
            ),
            (
                "pipelined_encoder",
                &tree,
                small_pipeline(3, 4),
                0xe1e8_3dcb_49ac_235a,
            ),
            ("pipelined_labeled", &tree, labeled, 0xee06_6bbd_84a1_6ca5),
            (
                "head_parallel",
                &tree,
                head_parallel_attention(VitModel::Base),
                0xd047_d322_24ae_2582,
            ),
            (
                "two_tenant",
                &tree,
                two_tenant_mix(VitModel::Base, BertModel::Base, 128),
                0x8230_49ef_efa1_883c,
            ),
            (
                "moe",
                &tree,
                moe_token_route(&llm, 16, 8, 4),
                0xca41_0ab5_188d_2130,
            ),
            (
                "speculative",
                &tree,
                speculative_fork_verify(&llm, 32, 4, 4),
                0xb3b9_f691_fc37_e992,
            ),
            (
                "prefill",
                &tree,
                llm.prefill_graph(2, 16),
                0xde77_60d3_f7e5_9d98,
            ),
            ("unjoined", &tree, unjoined, 0x6aa8_7ec2_28f3_e007),
        ];
        let got: Vec<(&str, u64)> = cases
            .iter()
            .map(|(name, sim, g, _)| (*name, compile_digest(sim, g)))
            .collect();
        let want: Vec<(&str, u64)> = cases.iter().map(|(name, _, _, d)| (*name, *d)).collect();
        assert_eq!(got, want, "compiled programs drifted");
    }

    /// The quadratic compiler, kept as the reference `compile_graph` must
    /// match: every step rescans all `n` tasks (and their deps) for
    /// ready barriers, GEMMs and CPU tasks, and for the wait target.
    fn reference_compile(sim: &Simulation, graph: &TaskGraph) -> Result<CompiledGraph, RunError> {
        graph
            .validate(sim.accel_count())
            .map_err(|e| RunError::InvalidGraph(e.to_string()))?;
        let n = graph.len();
        let (read_win, write_win) = sim.act_windows();
        let read_limit = read_win.base + read_win.size;
        let write_limit = write_win.base + write_win.size;
        let mut read_cursor = read_win.base;
        let mut write_cursor = write_win.base;
        let mut done = vec![false; n];
        let mut issued = vec![false; n];
        let mut done_count = 0usize;
        let mut busy = vec![false; sim.accel_count()];
        let mut in_flight: Vec<InFlight> = Vec::new();
        let mut program: Vec<CpuOp> = Vec::new();
        let mut jobs: Vec<(usize, AccelJob)> = Vec::new();
        // Cookies are drawn from a local counter and committed to the
        // simulation only on success, so a failed compile consumes none
        // (cookie `i` of the simulation's run is `i % 1000`).
        let cookie_base = sim.peek_cookie();
        let mut next_cookie = 0u64;
        let mut draw_cookie = move || {
            let c = (cookie_base + next_cookie) % 1000;
            next_cookie += 1;
            c
        };
        let mut plan = DispatchPlan {
            tasks: n,
            ..DispatchPlan::default()
        };
        let deps_met = |done: &[bool], t: TaskId| graph.task(t).deps.iter().all(|&d| done[d]);
        // The host retires `t` at this program position. Completion-
        // labeled tasks get a `done:<label>` mark there, so the mark
        // timeline carries absolute completion ticks. Unlabeled graphs
        // emit nothing — their programs stay byte-identical.
        let retire = |t: TaskId, done: &mut [bool], count: &mut usize, program: &mut Vec<CpuOp>| {
            done[t] = true;
            *count += 1;
            if let Some(label) = &graph.task(t).completion {
                program.push(CpuOp::Mark {
                    label: format!("done:{label}"),
                });
            }
        };

        while done_count < n {
            // 1. Settle ready barriers to fixpoint (zero-cost joins).
            let mut settled = true;
            while settled {
                settled = false;
                for t in 0..n {
                    if !done[t]
                        && matches!(graph.task(t).kind, TaskKind::Barrier)
                        && deps_met(&done, t)
                    {
                        retire(t, &mut done, &mut done_count, &mut program);
                        plan.barriers += 1;
                        settled = true;
                    }
                }
            }
            if done_count == n {
                break;
            }

            let ready_gemms: Vec<TaskId> = (0..n)
                .filter(|&t| {
                    !done[t]
                        && !issued[t]
                        && matches!(graph.task(t).kind, TaskKind::Gemm(_))
                        && deps_met(&done, t)
                })
                .collect();
            let ready_cpu: Vec<TaskId> = (0..n)
                .filter(|&t| {
                    !done[t]
                        && matches!(
                            graph.task(t).kind,
                            TaskKind::Stream { .. } | TaskKind::Transfer { .. }
                        )
                        && deps_met(&done, t)
                })
                .collect();

            // 2. Issue every ready GEMM that can get an idle eligible
            // device, in task-id order. A lone ready GEMM with nothing
            // else to do or wait for — the sequential drivers' shape —
            // issues as a blocking LaunchJob; with nothing in flight
            // every device is idle, so it lands on its pin or device 0.
            let sync = in_flight.is_empty() && ready_cpu.is_empty() && ready_gemms.len() == 1;
            let mut advanced = false;
            for &t in &ready_gemms {
                let TaskKind::Gemm(spec) = graph.task(t).kind else {
                    unreachable!("ready_gemms holds GEMMs");
                };
                let dev = match graph.task(t).affinity {
                    Affinity::Pinned(d) => (!busy[d]).then_some(d),
                    Affinity::AnyAccel => busy.iter().position(|&b| !b),
                };
                let Some(dev) = dev else {
                    continue; // no idle eligible device: stays pending
                };
                let cookie = draw_cookie();
                jobs.push((dev, sim.layout_job(&spec, cookie, dev)));
                program.push(CpuOp::Mark {
                    label: format!("gemm:{}", graph.task(t).name),
                });
                let doorbell_addr = sim.device(dev).doorbell;
                issued[t] = true;
                plan.launches += 1;
                advanced = true;
                if sync {
                    program.push(CpuOp::LaunchJob {
                        doorbell_addr,
                        job_cookie: cookie,
                    });
                    plan.sync_launches += 1;
                    // LaunchJob blocks until the MSI: retired right here.
                    retire(t, &mut done, &mut done_count, &mut program);
                    continue;
                }
                program.push(CpuOp::LaunchAsync { doorbell_addr });
                busy[dev] = true;
                in_flight.push(InFlight {
                    task: t,
                    cookie,
                    device: dev,
                });
                plan.async_launches += 1;
                plan.max_in_flight = plan.max_in_flight.max(in_flight.len());
            }
            // 3. Run every ready CPU task inline: these stream while the
            // jobs issued above are in flight.
            for &t in &ready_cpu {
                let task = graph.task(t);
                let (label, rb, wb, flops) = match task.kind {
                    TaskKind::Stream {
                        read_bytes,
                        write_bytes,
                        flops,
                    } => {
                        plan.streams += 1;
                        (
                            format!("nongemm:{}", task.name),
                            read_bytes,
                            write_bytes,
                            flops,
                        )
                    }
                    TaskKind::Transfer { bytes } => {
                        plan.transfers += 1;
                        (format!("xfer:{}", task.name), bytes, bytes, 0)
                    }
                    _ => unreachable!("ready_cpu holds Stream/Transfer"),
                };
                // Activation buffers are transient: when the next task
                // would not fit, its cursor wraps to the window base
                // (buffer reuse), so long op lists stay inside the
                // claimed window instead of silently walking out of it.
                // A single task bigger than the whole window can never
                // fit and is a typed error.
                if rb > read_win.size {
                    return Err(RunError::ActWindowOverflow {
                        window: "read",
                        needed_end: read_win.base + rb,
                        limit: read_limit,
                    });
                }
                if wb > write_win.size {
                    return Err(RunError::ActWindowOverflow {
                        window: "write",
                        needed_end: write_win.base + wb,
                        limit: write_limit,
                    });
                }
                if read_cursor + rb > read_limit {
                    read_cursor = read_win.base;
                }
                if write_cursor + wb > write_limit {
                    write_cursor = write_win.base;
                }
                program.push(CpuOp::Mark { label });
                program.push(CpuOp::Stream {
                    read_bytes: rb,
                    write_bytes: wb,
                    flops,
                    read_addr: read_cursor,
                    write_addr: write_cursor,
                });
                read_cursor += rb;
                write_cursor += wb;
                // Stream ops block the CPU: retired when they return.
                retire(t, &mut done, &mut done_count, &mut program);
                advanced = true;
            }
            if advanced {
                continue;
            }

            // 4. Blocked: pick a wait set. When the smallest-id blocked
            // task needs *everything* in flight (a join), one WaitAll
            // over all cookies reproduces the old fork-join drivers.
            // Otherwise drain the earliest-issued cookie only (FIFO):
            // launch order approximates completion order, so the CPU
            // wakes as early as possible and re-issues freshly ready
            // work — this is what keeps independent pipelines advancing
            // instead of one chain starving the others.
            let target = (0..n).find(|&t| {
                !done[t]
                    && !issued[t]
                    && graph.task(t).deps.iter().any(|&d| !done[d])
                    && graph
                        .task(t)
                        .deps
                        .iter()
                        .all(|&d| done[d] || in_flight.iter().any(|f| f.task == d))
            });
            let waiting: Vec<usize> = match target {
                Some(t) => {
                    let dep_set: Vec<usize> = in_flight
                        .iter()
                        .enumerate()
                        .filter(|(_, f)| graph.task(t).deps.contains(&f.task))
                        .map(|(i, _)| i)
                        .collect();
                    if dep_set.len() == in_flight.len() {
                        dep_set
                    } else {
                        vec![0]
                    }
                }
                None => (0..in_flight.len()).collect(),
            };
            if waiting.is_empty() {
                // Validation excludes cycles and bad pins, so a block
                // with nothing in flight cannot happen; guard anyway so
                // a future bug errors instead of spinning forever.
                return Err(RunError::InvalidGraph(
                    "dispatcher deadlock: tasks remain but nothing is in flight".into(),
                ));
            }
            program.push(CpuOp::WaitAll {
                cookies: waiting.iter().map(|&i| in_flight[i].cookie).collect(),
            });
            plan.waits += 1;
            let mut retired: Vec<TaskId> = Vec::with_capacity(waiting.len());
            for &i in waiting.iter().rev() {
                let f = in_flight.remove(i);
                busy[f.device] = false;
                retired.push(f.task);
            }
            // The whole wait set retires at the WaitAll's return, in
            // task-id order so the mark timeline is deterministic.
            retired.sort_unstable();
            for t in retired {
                retire(t, &mut done, &mut done_count, &mut program);
            }
        }
        // A task leaves `in_flight` only as it retires, and the loop
        // ends only once every task has: nothing is left to drain.
        debug_assert!(in_flight.is_empty(), "in-flight jobs outlived the graph");
        Ok(CompiledGraph {
            program,
            jobs,
            plan,
        })
    }

    /// A random DAG from `seed`: `tasks` tasks for `devices` devices,
    /// mixing pinned and any-device GEMMs, streams, transfers and
    /// barriers. Each task depends on up to three tasks earlier in a
    /// topological order (nearby or anywhere, duplicates allowed). That
    /// order is task-id order with a few random swaps, so some edges
    /// point to higher ids. About a quarter of the tasks carry a
    /// completion label; one in 500 streams more than any activation
    /// window holds.
    fn random_dag(seed: u64, tasks: usize, devices: usize) -> TaskGraph {
        let mut state = seed;
        // splitmix64, reduced to `0..bound`.
        let mut next = move |bound: usize| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % bound as u64) as usize
        };
        let bytes = |r: usize| 64 * (1 + r as u64);
        let mut g = TaskGraph::new();
        for t in 0..tasks {
            let kind = match next(10) {
                0..=4 => TaskKind::Gemm(GemmSpec::square(16 << next(3))),
                5 | 6 if next(500) == 0 => TaskKind::Stream {
                    read_bytes: 1 << 50,
                    write_bytes: 64,
                    flops: 0,
                },
                5 | 6 => TaskKind::Stream {
                    read_bytes: bytes(next(4096)),
                    write_bytes: bytes(next(4096)),
                    flops: next(10_000) as u64,
                },
                7 => TaskKind::Transfer {
                    bytes: bytes(next(4096)),
                },
                _ => TaskKind::Barrier,
            };
            let affinity = if next(3) == 0 {
                Affinity::Pinned(next(devices))
            } else {
                Affinity::AnyAccel
            };
            g.add(format!("t{t}"), kind, affinity, vec![]);
            if next(4) == 0 {
                g.set_completion(t, format!("c{t}"));
            }
        }
        let mut order: Vec<TaskId> = (0..tasks).collect();
        for _ in 0..next(tasks) {
            order.swap(next(tasks), next(tasks));
        }
        for rank in 1..tasks {
            for _ in 0..next(4) {
                let dep = if next(2) == 0 {
                    rank - 1 - next(rank.min(4))
                } else {
                    next(rank)
                };
                g.add_dep(order[rank], order[dep]);
            }
        }
        g
    }

    thread_local! {
        /// One simulation per device count, 1 to 4.
        static SIMS: Vec<Simulation> = {
            let mut sims = vec![Simulation::new(SystemConfig::paper_baseline()).unwrap()];
            sims.extend((2..=4).map(|leaves| tree_sim(&[leaves])));
            sims
        };
    }

    /// The incremental and the reference compiler on the same random
    /// DAG: identical `(program, jobs, plan)` Debug output, or the same
    /// error.
    fn compilers_agree(seed: u64, tasks: usize, devices: usize) -> Result<(), String> {
        let g = random_dag(seed, tasks, devices);
        let show = |r: Result<CompiledGraph, RunError>| {
            r.map(|c| format!("{:?}", (&c.program, &c.jobs, c.plan)))
        };
        SIMS.with(|sims| {
            let sim = &sims[devices - 1];
            assert_eq!(sim.accel_count(), devices);
            let (got, want) = (
                show(sim.compile_graph(&g)),
                show(reference_compile(sim, &g)),
            );
            if got == want {
                Ok(())
            } else {
                Err(format!(
                    "compilers disagree:\n  got {got:?}\n want {want:?}"
                ))
            }
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]
        #[test]
        fn incremental_compiler_matches_the_reference(
            seed in proptest::any::<u64>(),
            tasks in 1usize..40,
            devices in 1usize..5,
        ) {
            compilers_agree(seed, tasks, devices).map_err(proptest::TestCaseError::fail)?;
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(4000))]
        /// Thousands of larger graphs; CI runs it in release with
        /// `--include-ignored`.
        #[test]
        #[ignore = "deep fuzz: run in release with --include-ignored"]
        fn incremental_compiler_matches_the_reference_deep(
            seed in proptest::any::<u64>(),
            tasks in 1usize..400,
            devices in 1usize..5,
        ) {
            compilers_agree(seed, tasks, devices).map_err(proptest::TestCaseError::fail)?;
        }
    }

    #[test]
    fn graph_session_matches_direct_dispatch() {
        // A session dispatches exactly as direct dispatch: the same
        // graph sequence on fresh simulations produces identical ticks
        // and completions whether the rounds share one session or each
        // dispatch opens its own, and every round lasts exactly the
        // total run_graph reports.
        let mut g = small_pipeline(2, 2);
        for t in [0, g.len() / 2, g.len() - 1] {
            g.set_completion(t, format!("task{t}"));
        }
        let mut direct = tree_sim(&[2]);
        let a = direct.graph_session().extend(&g).unwrap();
        let b = direct.graph_session().extend(&g).unwrap();
        assert_eq!(a.completions.len(), 3);
        let mut sessioned = tree_sim(&[2]);
        let mut session = sessioned.graph_session();
        let sa = session.extend(&g).unwrap();
        let sb = session.extend(&g).unwrap();
        assert_eq!((sa.start, sa.end), (a.start, a.end));
        assert_eq!((sb.start, sb.end), (b.start, b.end));
        assert_eq!(sa.completions, a.completions);
        assert_eq!(sb.completions, b.completions);
        let mut reported = tree_sim(&[2]);
        for round in [sa, sb] {
            let report = reported.run_graph(&g).unwrap();
            assert_eq!(report.total_ticks, round.end - round.start);
        }
    }
}
