//! The workload graph layer end to end: one switch-tree system, three
//! schedules the flat op lists could never express.
//!
//! ```sh
//! cargo run --release --example workload_graph
//! ```

use accesys::topology::switch_tree_with;
use accesys::{MemBackendConfig, Simulation, SystemConfig};
use accesys_mem::MemTech;
use accesys_workload::graph::{
    head_parallel_attention, pipelined_encoder, two_tenant_mix, PipelineSpec,
};
use accesys_workload::{BertModel, VitModel};

fn main() -> Result<(), accesys::Error> {
    // A depth-1 tree with four accelerator leaves, each with local
    // device memory for its working set (job DMA stays off the shared
    // uplink; compute pinned so scheduling shape dominates).
    let mut cfg = SystemConfig::pcie_host(16.0, MemTech::Ddr4).with_compute_override_ns(50_000.0);
    cfg.smmu = None;
    let tree = |cfg: &SystemConfig| {
        switch_tree_with(cfg, &[4], |_| Some(MemBackendConfig::Dram(MemTech::Hbm2)))
    };

    println!("== workload graphs on a 4-leaf switch tree ==\n");

    // 1. Pipelined encoder: 4 layers over 4 stages, 3 images in flight.
    let spec = tree(&cfg)?;
    let mut sim = Simulation::from_topology(cfg.clone(), &spec)?;
    let pipeline = pipelined_encoder(
        64,
        128,
        4,
        512,
        &PipelineSpec {
            layers: 4,
            images: 3,
            devices: 4,
        },
    );
    let (report, plan) = sim.run_graph_planned(&pipeline)?;
    println!(
        "pipelined encoder   : {:8.1} µs  ({} tasks, peak {} jobs in flight, {} handoffs)",
        report.total_time_ns() / 1000.0,
        plan.tasks,
        plan.max_in_flight,
        plan.transfers,
    );

    // 2. Head-parallel attention: QKV heads fan out over the pool.
    let spec = tree(&cfg)?;
    let mut sim = Simulation::from_topology(cfg.clone(), &spec)?;
    let (report, plan) = sim.run_graph_planned(&head_parallel_attention(VitModel::Base))?;
    println!(
        "head-parallel attn  : {:8.1} µs  ({} tasks, peak {} jobs in flight)",
        report.total_time_ns() / 1000.0,
        plan.tasks,
        plan.max_in_flight,
    );

    // 3. Two tenants (a ViT and a BERT) interleaved on shared devices.
    let spec = tree(&cfg)?;
    let mut sim = Simulation::from_topology(cfg.clone(), &spec)?;
    let (report, plan) =
        sim.run_graph_planned(&two_tenant_mix(VitModel::Base, BertModel::Base, 128))?;
    println!(
        "two-tenant mix      : {:8.1} µs  ({} tasks, peak {} jobs in flight)",
        report.total_time_ns() / 1000.0,
        plan.tasks,
        plan.max_in_flight,
    );

    println!("\nphases of the tenant mix, first five:");
    for (label, ns) in report.phases.iter().take(5) {
        println!("  {label:<24} {:10.1} µs", ns / 1000.0);
    }
    Ok(())
}
