//! The workload graph layer: a typed task-graph IR for multi-device
//! schedules.
//!
//! Where [`crate::vit_ops`] and friends describe *what* an inference
//! graph computes as a flat operator list, a [`TaskGraph`] describes
//! *how* it may execute: explicit dependency edges between typed tasks
//! ([`TaskKind`]) with per-task device affinity ([`Affinity`]). A
//! dependency-driven dispatcher (in the `accesys` core crate) walks the
//! graph and issues every ready task to an idle eligible device, so the
//! same IR expresses the paper's sequential Section V-D composition (a
//! chain), fork-join sharding, pipelined multi-accelerator inference,
//! head-parallel attention, and multi-tenant mixes.
//!
//! Lowerings from the operator lists live here too:
//!
//! * [`op_chain`] — the sequential driver: one task per operator
//!   instance, each depending on its predecessor, every GEMM pinned to
//!   device 0. This reproduces the pre-graph sequential drivers exactly.
//! * [`gemm_fork_join`] — one row-shard per device, joined by a barrier
//!   (the old bespoke `run_gemm_sharded` loop).
//! * [`pipelined_encoder`] — encoder layers split
//!   into per-device pipeline stages; a batch of images streams through,
//!   activations transferred hop to hop between stages.
//! * [`head_parallel_attention`] — QKV heads fan out across devices and
//!   join at the output projection.
//! * [`two_tenant_mix`] — two independent encoder chains (a ViT and a
//!   BERT tenant) interleaved over a shared accelerator pool.

use crate::{bert_ops, vit_ops, BertModel, GemmSpec, Op, VitModel};

/// Index of a task inside its [`TaskGraph`].
pub type TaskId = usize;

/// What a task does when it executes.
#[derive(Clone, Debug)]
pub enum TaskKind {
    /// A GEMM offloaded to an accelerator (doorbell → DMA → compute →
    /// MSI).
    Gemm(GemmSpec),
    /// A CPU streaming kernel (Non-GEMM operator: LayerNorm, softmax,
    /// GELU, residual — reads, writes, and arithmetic overlapped).
    Stream {
        /// Bytes read from the activation read window.
        read_bytes: u64,
        /// Bytes written to the activation write window.
        write_bytes: u64,
        /// Arithmetic operations retired while streaming.
        flops: u64,
    },
    /// A data movement of `bytes` between pipeline stages (activations
    /// handed from one device's working set to the next).
    Transfer {
        /// Bytes moved.
        bytes: u64,
    },
    /// A pure synchronization point: completes when its dependencies
    /// complete, costs nothing.
    Barrier,
}

impl TaskKind {
    /// Whether this task runs on an accelerator (needs a device slot).
    pub fn needs_device(&self) -> bool {
        matches!(self, TaskKind::Gemm(_))
    }
}

/// Which device a task may run on.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Affinity {
    /// Must run on device `0`-based index.
    Pinned(usize),
    /// Any accelerator; the dispatcher picks the lowest-index idle one.
    AnyAccel,
}

/// One node of a [`TaskGraph`].
#[derive(Clone, Debug)]
pub struct TaskSpec {
    /// Phase label the dispatcher records (prefixed `gemm:`, `nongemm:`
    /// or `xfer:` by kind).
    pub name: String,
    /// What the task does.
    pub kind: TaskKind,
    /// Device eligibility (only meaningful for [`TaskKind::Gemm`]; CPU
    /// tasks ignore it).
    pub affinity: Affinity,
    /// Tasks that must complete before this one may issue.
    pub deps: Vec<TaskId>,
    /// Completion label: when set, the dispatcher records a
    /// `done:<label>` mark at the tick the host retires this task, so
    /// callers (the serving layer's per-request latency tracking) can
    /// read an absolute completion time off the mark timeline. `None`
    /// (the default) emits nothing and keeps the compiled program
    /// byte-identical to pre-label builds.
    pub completion: Option<String>,
}

/// A structural error in a [`TaskGraph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// The graph has no tasks.
    Empty,
    /// A dependency edge points at a task id outside the graph.
    DanglingDep {
        /// The task carrying the bad edge.
        task: TaskId,
        /// The out-of-range dependency.
        dep: TaskId,
    },
    /// The dependency edges contain a cycle through this task.
    Cycle {
        /// A task on the cycle.
        task: TaskId,
    },
    /// A task is pinned to a device the system does not have.
    BadAffinity {
        /// The offending task.
        task: TaskId,
        /// The pinned device index.
        device: usize,
        /// Devices actually present.
        accel_count: usize,
    },
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::Empty => write!(f, "task graph has no tasks"),
            GraphError::DanglingDep { task, dep } => {
                write!(f, "task {task} depends on undefined task {dep}")
            }
            GraphError::Cycle { task } => {
                write!(f, "task graph has a dependency cycle through task {task}")
            }
            GraphError::BadAffinity {
                task,
                device,
                accel_count,
            } => write!(
                f,
                "task {task} is pinned to device {device} but the system has {accel_count}"
            ),
        }
    }
}

impl std::error::Error for GraphError {}

/// A typed task graph: the workload-side mirror of the topology IR.
///
/// Build one with [`TaskGraph::add`] (dependencies may reference any
/// task, including later ones via [`TaskGraph::add_dep`]), or use a
/// lowering ([`op_chain`], [`gemm_fork_join`], [`pipelined_encoder`], …).
/// Validate against a device count before dispatching.
///
/// ```
/// use accesys_workload::graph::{Affinity, TaskGraph, TaskKind};
/// use accesys_workload::GemmSpec;
///
/// let mut g = TaskGraph::new();
/// let a = g.add("qkv", TaskKind::Gemm(GemmSpec::square(64)), Affinity::Pinned(0), vec![]);
/// let b = g.add(
///     "softmax",
///     TaskKind::Stream { read_bytes: 1 << 16, write_bytes: 1 << 16, flops: 1 << 12 },
///     Affinity::AnyAccel,
///     vec![a],
/// );
/// g.add("proj", TaskKind::Gemm(GemmSpec::square(64)), Affinity::AnyAccel, vec![b]);
/// assert!(g.validate(1).is_ok());
/// assert_eq!(g.len(), 3);
/// ```
#[derive(Clone, Debug, Default)]
pub struct TaskGraph {
    tasks: Vec<TaskSpec>,
}

impl TaskGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the graph has no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// All tasks, in id order.
    pub fn tasks(&self) -> &[TaskSpec] {
        &self.tasks
    }

    /// The task with id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn task(&self, id: TaskId) -> &TaskSpec {
        &self.tasks[id]
    }

    /// Append a task and return its id.
    pub fn add(
        &mut self,
        name: impl Into<String>,
        kind: TaskKind,
        affinity: Affinity,
        deps: Vec<TaskId>,
    ) -> TaskId {
        self.tasks.push(TaskSpec {
            name: name.into(),
            kind,
            affinity,
            deps,
            completion: None,
        });
        self.tasks.len() - 1
    }

    /// Label `task` as a completion point: the dispatcher will record a
    /// `done:<label>` mark at the tick the host retires it (observes
    /// its MSI, finishes its stream, or settles it as a barrier). The
    /// serving layer labels each request's tail task this way to track
    /// per-request latency from arrival tick to completion tick.
    ///
    /// # Panics
    ///
    /// Panics if `task` is out of range.
    pub fn set_completion(&mut self, task: TaskId, label: impl Into<String>) {
        self.tasks[task].completion = Some(label.into());
    }

    /// Add a dependency edge after the fact (enables forward edges while
    /// building; [`TaskGraph::validate`] catches any cycle this creates).
    ///
    /// # Panics
    ///
    /// Panics if `task` is out of range (`dep` is checked by
    /// [`TaskGraph::validate`] instead, so forward references work).
    pub fn add_dep(&mut self, task: TaskId, dep: TaskId) {
        self.tasks[task].deps.push(dep);
    }

    /// Number of tasks that need an accelerator.
    pub fn device_task_count(&self) -> usize {
        self.tasks.iter().filter(|t| t.kind.needs_device()).count()
    }

    /// Check the graph for structural errors: at least one task, no
    /// dangling dependency edges, no cycles, and every pinned affinity
    /// within `accel_count`.
    ///
    /// # Errors
    ///
    /// Returns the first [`GraphError`] found (task-id order).
    pub fn validate(&self, accel_count: usize) -> Result<(), GraphError> {
        if self.tasks.is_empty() {
            return Err(GraphError::Empty);
        }
        for (id, t) in self.tasks.iter().enumerate() {
            for &d in &t.deps {
                if d >= self.tasks.len() {
                    return Err(GraphError::DanglingDep { task: id, dep: d });
                }
            }
            if t.kind.needs_device() {
                if let Affinity::Pinned(dev) = t.affinity {
                    if dev >= accel_count {
                        return Err(GraphError::BadAffinity {
                            task: id,
                            device: dev,
                            accel_count,
                        });
                    }
                }
            }
        }
        self.topo_order().map(|_| ())
    }

    /// A topological order of the tasks (smallest-id-first among ready
    /// tasks, so the order is deterministic), or the cycle that prevents
    /// one.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Cycle`] naming a task on a dependency
    /// cycle, or [`GraphError::DanglingDep`] for out-of-range edges.
    pub fn topo_order(&self) -> Result<Vec<TaskId>, GraphError> {
        let n = self.tasks.len();
        let mut indegree = vec![0usize; n];
        for (id, t) in self.tasks.iter().enumerate() {
            for &d in &t.deps {
                if d >= n {
                    return Err(GraphError::DanglingDep { task: id, dep: d });
                }
                indegree[id] += 1;
            }
        }
        let mut dependents: Vec<Vec<TaskId>> = vec![Vec::new(); n];
        for (id, t) in self.tasks.iter().enumerate() {
            for &d in &t.deps {
                dependents[d].push(id);
            }
        }
        // Kahn's algorithm with an ordered ready set: scan ids ascending.
        let mut order = Vec::with_capacity(n);
        let mut ready: Vec<TaskId> = (0..n).filter(|&i| indegree[i] == 0).collect();
        while let Some(&id) = ready.first() {
            ready.remove(0);
            order.push(id);
            for &dep in &dependents[id] {
                indegree[dep] -= 1;
                if indegree[dep] == 0 {
                    let pos = ready.partition_point(|&r| r < dep);
                    ready.insert(pos, dep);
                }
            }
        }
        if order.len() < n {
            let task = (0..n).find(|&i| indegree[i] > 0).expect("cycle exists");
            return Err(GraphError::Cycle { task });
        }
        Ok(order)
    }
}

/// The [`TaskKind::Stream`] of a Non-GEMM operator with its `count`
/// folded into the totals — exactly how the sequential driver streamed
/// it. Saturating like [`Op::total_bytes`], so synthetic mega-ops stay
/// absurdly large instead of wrapping past the window checks.
fn folded_stream(op: &Op) -> TaskKind {
    let count = u64::from(op.count);
    TaskKind::Stream {
        read_bytes: op.read_bytes.saturating_mul(count),
        write_bytes: op.write_bytes.saturating_mul(count),
        flops: op.flops.saturating_mul(count),
    }
}

/// Append `ops` to `g` as a chain continuing from `prev` (GEMM
/// instances expanded per `count` with `gemm_affinity`, Non-GEMM folded
/// via [`folded_stream`]); returns the chain's tail. `name_of` maps
/// each operator to its task label.
fn push_op_chain(
    g: &mut TaskGraph,
    ops: &[Op],
    gemm_affinity: Affinity,
    mut prev: Option<TaskId>,
    name_of: impl Fn(&Op) -> String,
) -> Option<TaskId> {
    for op in ops {
        if let Some(spec) = op.gemm {
            for _ in 0..op.count {
                let deps = prev.into_iter().collect();
                prev = Some(g.add(name_of(op), TaskKind::Gemm(spec), gemm_affinity, deps));
            }
        } else {
            let deps = prev.into_iter().collect();
            prev = Some(g.add(name_of(op), folded_stream(op), Affinity::AnyAccel, deps));
        }
    }
    prev
}

/// Append `ops` to an existing graph as a chain continuing from `prev`
/// (or as fresh roots when `prev` is `None`), with every GEMM given
/// `gemm_affinity` and every task name prefixed `"{prefix}."`. Returns
/// the id of the chain's tail task (`prev` unchanged when `ops` is
/// empty).
///
/// This is the lowering the serving layer batches with: each in-flight
/// request contributes one slice chain to a shared round graph, and the
/// batch joins at a barrier. It composes — chains appended to the same
/// graph are independent until something joins them.
///
/// ```
/// use accesys_workload::encoder_ops;
/// use accesys_workload::graph::{append_chain, Affinity, TaskGraph, TaskKind};
///
/// let ops = encoder_ops(64, 128, 4, 512);
/// let mut g = TaskGraph::new();
/// let a = append_chain(&mut g, &ops, Affinity::AnyAccel, None, "r0");
/// let b = append_chain(&mut g, &ops, Affinity::AnyAccel, None, "r1");
/// let tails = vec![a.unwrap(), b.unwrap()];
/// g.add("round", TaskKind::Barrier, Affinity::AnyAccel, tails);
/// assert!(g.validate(1).is_ok());
/// assert!(g.task(0).name.starts_with("r0."));
/// ```
pub fn append_chain(
    g: &mut TaskGraph,
    ops: &[Op],
    gemm_affinity: Affinity,
    prev: Option<TaskId>,
    prefix: &str,
) -> Option<TaskId> {
    push_op_chain(g, ops, gemm_affinity, prev, |op| {
        format!("{prefix}.{}", op.name)
    })
}

/// Lower a flat operator list to a **chain** graph: one task per GEMM
/// instance (a `count`-N GEMM operator becomes N chained tasks, exactly
/// like the sequential driver launched N jobs), one task per Non-GEMM
/// operator (its `count` folded into the byte/flop totals, as the
/// sequential driver streamed it), each task depending on its
/// predecessor, every GEMM pinned to device 0.
///
/// Dispatching this graph reproduces the pre-graph sequential drivers
/// byte for byte — it is what [`vit_ops`]-style workloads lower to.
pub fn op_chain(ops: &[Op]) -> TaskGraph {
    let mut g = TaskGraph::new();
    push_op_chain(&mut g, ops, Affinity::Pinned(0), None, |op| op.name.clone());
    g
}

/// Lower one GEMM to a **fork-join** graph over `devices` accelerators:
/// shard `i` computes rows `[i*m/N, (i+1)*m/N)` pinned to device `i`,
/// and a barrier joins all shards — the old bespoke sharded loop as a
/// graph.
pub fn gemm_fork_join(spec: GemmSpec, devices: usize) -> TaskGraph {
    let mut g = TaskGraph::new();
    let n = devices.max(1) as u32;
    let rows_per = spec.m.div_ceil(n);
    let mut shards = Vec::new();
    for dev in 0..n {
        let row0 = dev * rows_per;
        if row0 >= spec.m {
            break;
        }
        let rows = rows_per.min(spec.m - row0);
        let shard = GemmSpec { m: rows, ..spec };
        shards.push(g.add(
            "sharded",
            TaskKind::Gemm(shard),
            Affinity::Pinned(dev as usize),
            vec![],
        ));
    }
    g.add("sharded", TaskKind::Barrier, Affinity::AnyAccel, shards);
    g
}

/// Pipeline shape: how many encoder layers flow through how many
/// pipeline stages, and how many images stream through the pipeline.
#[derive(Copy, Clone, Debug)]
pub struct PipelineSpec {
    /// Encoder layers in the pipeline (split contiguously across
    /// stages).
    pub layers: u32,
    /// Images (batch elements) streamed through the pipeline; overlap
    /// grows with this.
    pub images: u32,
    /// Pipeline stages = devices used (stage `d` pins its GEMMs to
    /// device `d`).
    pub devices: usize,
}

/// A **pipelined encoder**: `p.layers` encoder layers of the given
/// geometry are split contiguously into `p.devices` stages; image `b`'s
/// stage `d` depends on its stage `d-1` via a [`TaskKind::Transfer`] of
/// the activation tensor (`seq × hidden × 4` bytes), and different
/// images occupy different stages concurrently — the dispatcher overlaps
/// them across devices.
pub fn pipelined_encoder(
    seq: u32,
    hidden: u32,
    heads: u32,
    mlp: u32,
    p: &PipelineSpec,
) -> TaskGraph {
    let ops = crate::encoder_ops(seq, hidden, heads, mlp);
    let act_bytes = u64::from(seq) * u64::from(hidden) * 4;
    let devices = p.devices.max(1);
    let layers = p.layers.max(1);
    // Contiguous stage split: stage d owns layers [d*L/D, (d+1)*L/D).
    let stage_of = |layer: u32| -> usize {
        ((u64::from(layer) * devices as u64) / u64::from(layers)) as usize
    };
    let mut g = TaskGraph::new();
    for image in 0..p.images.max(1) {
        let mut prev: Option<TaskId> = None;
        for layer in 0..layers {
            let dev = stage_of(layer);
            prev = push_op_chain(&mut g, &ops, Affinity::Pinned(dev), prev, |op| {
                format!("img{image}.l{layer}.{}", op.name)
            });
            // Hand the activations to the next stage's device.
            if layer + 1 < layers && stage_of(layer + 1) != dev {
                let deps = prev.into_iter().collect();
                prev = Some(g.add(
                    format!("img{image}.l{layer}.handoff"),
                    TaskKind::Transfer { bytes: act_bytes },
                    Affinity::AnyAccel,
                    deps,
                ));
            }
        }
    }
    g
}

/// **Head-parallel attention**: one encoder layer of `model` where the
/// per-head `scores → softmax → attnv` chains fan out over the
/// accelerator pool ([`Affinity::AnyAccel`]) after the QKV projection
/// and join at the output projection; the MLP tail stays a chain.
pub fn head_parallel_attention(model: VitModel) -> TaskGraph {
    let ops = vit_ops(model);
    let by_name = |name: &str| -> &Op {
        ops.iter()
            .find(|o| o.name == name)
            .expect("encoder layers have the canonical op names")
    };
    let stream_kind = |op: &Op| TaskKind::Stream {
        read_bytes: op.read_bytes,
        write_bytes: op.write_bytes,
        flops: op.flops,
    };
    let heads = model.heads();
    let mut g = TaskGraph::new();
    let ln1 = g.add(
        "ln1",
        stream_kind(by_name("ln1")),
        Affinity::AnyAccel,
        vec![],
    );
    let qkv = g.add(
        "qkv",
        TaskKind::Gemm(by_name("qkv").gemm.expect("qkv is a GEMM")),
        Affinity::AnyAccel,
        vec![ln1],
    );
    // Per-head fan-out. The softmax bytes/flops of the fused operator
    // split evenly across heads.
    let softmax = by_name("softmax");
    let mut joins = Vec::new();
    for h in 0..heads {
        let scores = g.add(
            format!("scores.h{h}"),
            TaskKind::Gemm(by_name("scores").gemm.expect("scores is a GEMM")),
            Affinity::AnyAccel,
            vec![qkv],
        );
        let sm = g.add(
            format!("softmax.h{h}"),
            TaskKind::Stream {
                read_bytes: softmax.read_bytes / u64::from(heads),
                write_bytes: softmax.write_bytes / u64::from(heads),
                flops: softmax.flops / u64::from(heads),
            },
            Affinity::AnyAccel,
            vec![scores],
        );
        joins.push(g.add(
            format!("attnv.h{h}"),
            TaskKind::Gemm(by_name("attnv").gemm.expect("attnv is a GEMM")),
            Affinity::AnyAccel,
            vec![sm],
        ));
    }
    let proj = g.add(
        "proj",
        TaskKind::Gemm(by_name("proj").gemm.expect("proj is a GEMM")),
        Affinity::AnyAccel,
        joins,
    );
    // MLP tail stays sequential.
    let mut prev = proj;
    for name in ["residual1", "ln2"] {
        prev = g.add(
            name,
            stream_kind(by_name(name)),
            Affinity::AnyAccel,
            vec![prev],
        );
    }
    let fc1 = g.add(
        "fc1",
        TaskKind::Gemm(by_name("fc1").gemm.expect("fc1 is a GEMM")),
        Affinity::AnyAccel,
        vec![prev],
    );
    let gelu = g.add(
        "gelu",
        stream_kind(by_name("gelu")),
        Affinity::AnyAccel,
        vec![fc1],
    );
    let fc2 = g.add(
        "fc2",
        TaskKind::Gemm(by_name("fc2").gemm.expect("fc2 is a GEMM")),
        Affinity::AnyAccel,
        vec![gelu],
    );
    g.add(
        "residual2",
        stream_kind(by_name("residual2")),
        Affinity::AnyAccel,
        vec![fc2],
    );
    g
}

/// A **two-tenant mix**: a ViT encoder layer and a BERT encoder layer as
/// independent chains over a shared [`Affinity::AnyAccel`] pool, joined
/// by a final barrier. The dispatcher interleaves the tenants across
/// whatever devices the topology provides.
pub fn two_tenant_mix(vit: VitModel, bert: BertModel, bert_seq: u32) -> TaskGraph {
    let mut g = TaskGraph::new();
    let mut tails = Vec::new();
    for (prefix, ops) in [("vit", vit_ops(vit)), ("bert", bert_ops(bert, bert_seq))] {
        let tail = push_op_chain(&mut g, &ops, Affinity::AnyAccel, None, |op| {
            format!("{prefix}.{}", op.name)
        });
        tails.extend(tail);
    }
    g.add("tenants", TaskKind::Barrier, Affinity::AnyAccel, tails);
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_gemm() -> TaskKind {
        TaskKind::Gemm(GemmSpec::square(32))
    }

    #[test]
    fn empty_graphs_are_rejected() {
        assert_eq!(TaskGraph::new().validate(1), Err(GraphError::Empty));
    }

    #[test]
    fn dangling_deps_are_rejected() {
        let mut g = TaskGraph::new();
        g.add("a", tiny_gemm(), Affinity::AnyAccel, vec![7]);
        assert_eq!(
            g.validate(1),
            Err(GraphError::DanglingDep { task: 0, dep: 7 })
        );
    }

    #[test]
    fn cycles_are_rejected() {
        let mut g = TaskGraph::new();
        let a = g.add("a", tiny_gemm(), Affinity::AnyAccel, vec![]);
        let b = g.add("b", tiny_gemm(), Affinity::AnyAccel, vec![a]);
        g.add_dep(a, b);
        assert!(matches!(g.validate(2), Err(GraphError::Cycle { .. })));
    }

    #[test]
    fn bad_pins_are_rejected_against_the_device_count() {
        let mut g = TaskGraph::new();
        g.add("a", tiny_gemm(), Affinity::Pinned(3), vec![]);
        assert_eq!(
            g.validate(2),
            Err(GraphError::BadAffinity {
                task: 0,
                device: 3,
                accel_count: 2
            })
        );
        assert!(g.validate(4).is_ok());
    }

    #[test]
    fn cpu_task_pins_are_ignored() {
        // A Stream task never needs a device slot, so a wild pin on it
        // must not fail validation.
        let mut g = TaskGraph::new();
        g.add(
            "s",
            TaskKind::Stream {
                read_bytes: 64,
                write_bytes: 64,
                flops: 0,
            },
            Affinity::Pinned(99),
            vec![],
        );
        assert!(g.validate(1).is_ok());
    }

    #[test]
    fn topo_order_is_deterministic_and_respects_deps() {
        let mut g = TaskGraph::new();
        let a = g.add("a", tiny_gemm(), Affinity::AnyAccel, vec![]);
        let b = g.add("b", tiny_gemm(), Affinity::AnyAccel, vec![]);
        let c = g.add("c", tiny_gemm(), Affinity::AnyAccel, vec![a, b]);
        let d = g.add("d", tiny_gemm(), Affinity::AnyAccel, vec![c]);
        let order = g.topo_order().unwrap();
        assert_eq!(order, vec![a, b, c, d]);
    }

    #[test]
    fn op_chain_mirrors_the_sequential_driver_shape() {
        let ops = vit_ops(VitModel::Base);
        let g = op_chain(&ops);
        // 6 GEMM operators expand per count (qkv 1, scores 12, attnv 12,
        // proj 1, fc1 1, fc2 1) + 6 Non-GEMM operators.
        assert_eq!(g.len(), (1 + 12 + 12 + 1 + 1 + 1) + 6);
        assert_eq!(g.device_task_count(), 28);
        // Chain: task i depends exactly on task i-1.
        for (i, t) in g.tasks().iter().enumerate() {
            if i == 0 {
                assert!(t.deps.is_empty());
            } else {
                assert_eq!(t.deps, vec![i - 1]);
            }
            if let TaskKind::Gemm(_) = t.kind {
                assert_eq!(t.affinity, Affinity::Pinned(0));
            }
        }
        assert!(g.validate(1).is_ok());
    }

    #[test]
    fn fork_join_shards_rows_and_joins() {
        let g = gemm_fork_join(GemmSpec::square(100), 4);
        // 4 shards of 25 rows + barrier.
        assert_eq!(g.len(), 5);
        let mut rows = 0;
        for (i, t) in g.tasks().iter().enumerate().take(4) {
            let TaskKind::Gemm(s) = &t.kind else {
                panic!("shard {i} is a GEMM");
            };
            rows += s.m;
            assert_eq!(t.affinity, Affinity::Pinned(i));
        }
        assert_eq!(rows, 100);
        let barrier = g.task(4);
        assert!(matches!(barrier.kind, TaskKind::Barrier));
        assert_eq!(barrier.deps, vec![0, 1, 2, 3]);
        assert!(g.validate(4).is_ok());
    }

    #[test]
    fn fork_join_drops_empty_shards() {
        // 3 rows over 8 devices: only 3 shards materialize.
        let g = gemm_fork_join(GemmSpec::square(3), 8);
        assert_eq!(g.device_task_count(), 3);
    }

    #[test]
    fn pipelined_encoder_stages_pin_to_distinct_devices() {
        let p = PipelineSpec {
            layers: 4,
            images: 2,
            devices: 2,
        };
        let m = VitModel::Base;
        let g = pipelined_encoder(m.seq_len(), m.hidden(), m.heads(), m.mlp_dim(), &p);
        assert!(g.validate(2).is_ok());
        // Layers 0-1 pin to device 0, layers 2-3 to device 1.
        let pins: std::collections::BTreeSet<usize> = g
            .tasks()
            .iter()
            .filter_map(|t| match (&t.kind, t.affinity) {
                (TaskKind::Gemm(_), Affinity::Pinned(d)) => Some(d),
                _ => None,
            })
            .collect();
        assert_eq!(pins.into_iter().collect::<Vec<_>>(), vec![0, 1]);
        // One handoff transfer per image at the stage boundary.
        let transfers = g
            .tasks()
            .iter()
            .filter(|t| matches!(t.kind, TaskKind::Transfer { .. }))
            .count();
        assert_eq!(transfers, 2);
        // Images are independent chains: some task of image 1 has no
        // path from image 0 (spot-check: first tasks of each image have
        // no deps).
        let roots = g.tasks().iter().filter(|t| t.deps.is_empty()).count();
        assert_eq!(roots, 2);
    }

    #[test]
    fn head_parallel_attention_fans_out_and_joins() {
        let model = VitModel::Base;
        let g = head_parallel_attention(model);
        assert!(g.validate(1).is_ok());
        let heads = model.heads() as usize;
        // ln1 + qkv + heads×(scores, softmax, attnv) + proj + 2 streams
        // + fc1 + gelu + fc2 + residual2.
        assert_eq!(g.len(), 2 + 3 * heads + 1 + 2 + 4);
        // The proj task joins every head's attnv.
        let proj = g
            .tasks()
            .iter()
            .find(|t| t.name == "proj")
            .expect("proj exists");
        assert_eq!(proj.deps.len(), heads);
        // Total GEMM MAC work matches the fused op list.
        let graph_macs: u64 = g
            .tasks()
            .iter()
            .filter_map(|t| match &t.kind {
                TaskKind::Gemm(s) => Some(s.macs()),
                _ => None,
            })
            .sum();
        let ops_macs: u64 = vit_ops(model).iter().map(|o| o.total_macs()).sum();
        assert_eq!(graph_macs, ops_macs);
    }

    #[test]
    fn two_tenant_mix_keeps_tenants_independent() {
        let g = two_tenant_mix(VitModel::Base, BertModel::Base, 128);
        assert!(g.validate(2).is_ok());
        // Exactly two dependency roots (one per tenant).
        let roots = g.tasks().iter().filter(|t| t.deps.is_empty()).count();
        assert_eq!(roots, 2);
        // The final barrier joins both tails.
        let last = g.task(g.len() - 1);
        assert!(matches!(last.kind, TaskKind::Barrier));
        assert_eq!(last.deps.len(), 2);
    }
}
