//! Extension experiment — workload-graph scaling: pipelined multi-device
//! inference vs the sequential chain, across switch-tree shapes.
//!
//! The workload graph layer makes the *schedule* a swept parameter the
//! same way the topology layer made the *system shape* one: the same
//! encoder workload is lowered twice — as the sequential chain the
//! paper's Section V-D composition implies (every GEMM through device
//! 0, one at a time) and as a pipeline (encoder layers split into
//! per-leaf stages, a batch of images in flight, activations handed
//! hop to hop) — and both run on the same switch tree. The ratio is the
//! scheduling win the dispatcher extracts from the hardware the
//! topology already paid for.
//!
//! The testbed, encoder geometry and swept shapes lower from the
//! committed `specs/pipelined_encoder.spec`. Each leaf carries local
//! device memory for its working set, so job DMA does not serialize on
//! the shared uplink and the pipeline's speedup reflects scheduling,
//! not link contention.

use crate::cli::Cli;
use crate::topo::parse_shape;
use crate::Scale;
use accesys_exp::{Experiment, Grid};
use accesys_spec::PipelineScenario;
use accesys_workload::encoder_ops;
use accesys_workload::graph::{op_chain, pipelined_encoder, PipelineSpec};

/// One schedule-shape measurement on one tree shape.
#[derive(Clone, Debug, serde::Serialize)]
pub struct GraphRow {
    /// Tree shape (per-level fan-outs, `x`-separated).
    pub shape: String,
    /// Switch levels between the root complex and the endpoints.
    pub depth: u32,
    /// Leaf endpoints (= pipeline stages available).
    pub endpoints: u32,
    /// Tasks in the pipelined graph.
    pub tasks: usize,
    /// Peak accelerator jobs simultaneously in flight (dispatcher
    /// overlap actually achieved).
    pub max_in_flight: usize,
    /// Inter-stage activation handoffs executed.
    pub transfers: u64,
    /// Sequential chain (all GEMMs through device 0), ns.
    pub sequential_ns: f64,
    /// Pipelined schedule over every leaf, ns.
    pub pipelined_ns: f64,
    /// `sequential_ns / pipelined_ns` — the scheduling win.
    pub speedup: f64,
}

/// The pipeline workload of `sc` on a tree with `endpoints` leaves.
fn pipeline_graph(
    sc: &PipelineScenario,
    endpoints: u32,
    scale: Scale,
) -> accesys_workload::graph::TaskGraph {
    let d = sc.dims.pick(scale);
    pipelined_encoder(
        d.seq,
        d.hidden,
        d.heads,
        d.mlp,
        &PipelineSpec {
            layers: sc.layers.pick(scale),
            images: sc.images.pick(scale),
            devices: sc.device_count(endpoints),
        },
    )
}

/// Measure one tree shape under both of `sc`'s schedules.
pub fn measure_for(sc: &PipelineScenario, shape: &str, scale: Scale) -> GraphRow {
    let levels = parse_shape(shape);
    let endpoints: u32 = levels.iter().product();
    let d = sc.dims.pick(scale);
    let (layers, images) = (sc.layers.pick(scale), sc.images.pick(scale));

    // Sequential chain: the same total work as one flat op list.
    let chain_ops: Vec<_> = (0..images * layers)
        .flat_map(|_| encoder_ops(d.seq, d.hidden, d.heads, d.mlp))
        .collect();
    let sequential = sc
        .system
        .simulation(&levels)
        .expect("validated spec testbed builds")
        .run_graph(&op_chain(&chain_ops))
        .expect("chain completes");

    // Pipelined: layers split into per-leaf stages, images in flight.
    let pipeline = pipeline_graph(sc, endpoints, scale);
    let (pipelined, plan) = sc
        .system
        .simulation(&levels)
        .expect("validated spec testbed builds")
        .run_graph_planned(&pipeline)
        .expect("pipeline completes");

    GraphRow {
        shape: shape.to_string(),
        depth: levels.len() as u32,
        endpoints,
        tasks: pipeline.len(),
        max_in_flight: plan.max_in_flight,
        transfers: plan.transfers,
        sequential_ns: sequential.total_time_ns(),
        pipelined_ns: pipelined.total_time_ns(),
        speedup: sequential.total_time_ns() / pipelined.total_time_ns(),
    }
}

/// `sc` as a declarative experiment over its shapes.
pub fn experiment_for(
    sc: &PipelineScenario,
    scale: Scale,
) -> impl Experiment<Point = String, Out = GraphRow> {
    let sc = sc.clone();
    Grid::new(sc.name.clone(), sc.shapes.clone()).sweep(move |s| measure_for(&sc, s, scale))
}

/// Run `sc` at the CLI's settings; print the table unless `--json`;
/// return the machine-readable sweep value.
pub fn run_cli_for(sc: &PipelineScenario, cli: &Cli) -> serde::Value {
    crate::cli::run_sweep_cli(cli, &experiment_for(sc, cli.scale), |r| {
        print_for(sc, &r.outputs().cloned().collect::<Vec<_>>(), cli.scale)
    })
}

/// Print the scaling table of an arbitrary pipeline scenario.
pub fn print_for(sc: &PipelineScenario, rows: &[GraphRow], scale: Scale) {
    let (layers, images) = (sc.layers.pick(scale), sc.images.pick(scale));
    let d = sc.dims.pick(scale);
    println!(
        "# Workload-graph scaling (extension): {layers}-layer encoder \
         ({}x{}, {} heads, mlp {}), {images} images",
        d.seq, d.hidden, d.heads, d.mlp
    );
    println!(
        "{:>8} {:>6} {:>10} {:>7} {:>10} {:>6} {:>16} {:>15} {:>9}",
        "shape",
        "depth",
        "endpoints",
        "tasks",
        "in-flight",
        "xfers",
        "sequential (µs)",
        "pipelined (µs)",
        "speedup"
    );
    for r in rows {
        println!(
            "{:>8} {:>6} {:>10} {:>7} {:>10} {:>6} {:>16.1} {:>15.1} {:>8.2}x",
            r.shape,
            r.depth,
            r.endpoints,
            r.tasks,
            r.max_in_flight,
            r.transfers,
            r.sequential_ns / 1000.0,
            r.pipelined_ns / 1000.0,
            r.speedup
        );
    }
    println!("# expected: one leaf pins speedup at ~1x (same schedule);");
    println!("# more leaves buy pipeline stages until images-in-flight run out");
}

#[cfg(test)]
mod tests {
    use super::*;
    use accesys_exp::Jobs;

    fn scenario() -> PipelineScenario {
        match crate::specs::load("pipelined_encoder").scenario {
            accesys_spec::Scenario::Pipeline(sc) => sc,
            _ => unreachable!(),
        }
    }

    #[test]
    fn depth_two_tree_pipelines_beat_the_sequential_chain() {
        // The acceptance shape: on a depth-2 switch tree the pipelined
        // schedule must beat the sequential chain outright.
        let row = measure_for(&scenario(), "2x4", Scale::Quick);
        assert_eq!(row.depth, 2);
        assert_eq!(row.endpoints, 8);
        assert!(row.max_in_flight >= 2, "no overlap: {row:?}");
        assert!(row.transfers > 0);
        assert!(
            row.speedup > 1.2,
            "pipelined ViT should beat the chain on a depth-2 tree, got {:.2}x",
            row.speedup
        );
    }

    #[test]
    fn single_leaf_degenerates_to_the_chain() {
        // One device = one stage: the pipeline cannot beat the chain by
        // more than scheduling noise, and must not be slower than 0.9x.
        let row = measure_for(&scenario(), "1", Scale::Quick);
        assert_eq!(row.endpoints, 1);
        assert!(
            (0.9..=1.1).contains(&row.speedup),
            "one-leaf speedup should be ~1x, got {:.2}x",
            row.speedup
        );
    }

    #[test]
    fn sweep_is_deterministic_across_worker_counts() {
        // A flat and a depth-2 tree, half the layers and images; the
        // full grid is pinned by the `exp all` golden at jobs 1 and 4.
        let mut small = scenario();
        small.shapes = ["2", "2x2"].map(String::from).to_vec();
        small.layers.quick /= 2;
        small.images.quick /= 2;
        let run = |jobs: Jobs| experiment_for(&small, Scale::Quick).run(jobs).to_json();
        assert_eq!(run(Jobs::serial()).unwrap(), run(Jobs::new(4)).unwrap());
    }
}
