//! Steady-state allocation diet: once a simulation is warm (packet pool
//! and container capacities at their peaks), an identical second run
//! must not allocate per event.
//!
//! This binary installs a counting global allocator and holds a single
//! test, so no sibling test thread allocates inside the counted window.
//! Only the compile and report-assembly tail, O(1) per *run*, may get
//! through, so the bar is a loose 0.01 allocations per event, with zero
//! packet-pool misses. The test measures two warm phases: a GEMM (the
//! accelerator's DMA path) and CPU streams (the CPU's line-issue path).

use gem5_accesys::prelude::*;
use gem5_accesys::sim::PacketPool;
use gem5_accesys::workload::graph::{Affinity, TaskGraph, TaskKind};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Global allocator wrapper that counts allocations while [`COUNTING`]
/// is raised. Deallocations are not counted: the diet is about pressure
/// *created*, and frees of warm-up storage would double-bill it.
struct CountingAlloc;

/// Allocator hits observed while [`COUNTING`] was raised.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Measurement gate: only the steady-state window counts.
static COUNTING: AtomicBool = AtomicBool::new(false);

fn count() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// so each caller's contract is `System`'s own; counting touches only an
// atomic and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING_ALLOC: CountingAlloc = CountingAlloc;

/// Run `steady` with allocation counting on and hold it to the diet.
fn assert_allocation_diet(
    phase: &str,
    sim: &mut Simulation,
    mut steady: impl FnMut(&mut Simulation),
) {
    let events_before = sim.stats().get_or_zero("kernel.events") as u64;
    PacketPool::reset_stats();
    ALLOCS.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    steady(sim);
    COUNTING.store(false, Ordering::Relaxed);

    let allocs = ALLOCS.load(Ordering::Relaxed);
    let pool = PacketPool::stats();
    let events = sim.stats().get_or_zero("kernel.events") as u64 - events_before;
    let per_event = allocs as f64 / events as f64;
    assert!(
        per_event < 0.01,
        "{phase}: steady state allocated {allocs} times over {events} events \
         ({per_event:.4} per event, bar 0.01)"
    );
    assert_eq!(
        pool.fresh, 0,
        "{phase}: {} packet boxes missed the warmed pool",
        pool.fresh
    );
}

#[test]
fn a_warm_gemm_run_allocates_less_than_once_per_hundred_events() {
    let mut sim =
        Simulation::new(SystemConfig::pcie_host(8.0, MemTech::Ddr4)).expect("valid config");
    sim.run_gemm(GemmSpec::square(256))
        .expect("warm-up completes");
    assert_allocation_diet("gemm", &mut sim, |sim| {
        sim.run_gemm(GemmSpec::square(256))
            .expect("steady run completes");
    });

    // One-task CPU stream graphs, as serving rounds (which build no run
    // report): every line that comes back issues the next.
    let mut stream = TaskGraph::new();
    let kind = TaskKind::Stream {
        read_bytes: 256 << 10,
        write_bytes: 256 << 10,
        flops: 0,
    };
    stream.add("stream", kind, Affinity::AnyAccel, vec![]);
    sim.graph_session()
        .extend(&stream)
        .expect("warm-up completes");
    assert_allocation_diet("stream", &mut sim, |sim| {
        for _ in 0..4 {
            sim.graph_session()
                .extend(&stream)
                .expect("steady run completes");
        }
    });
}
