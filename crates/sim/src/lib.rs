//! # accesys-sim
//!
//! Discrete-event simulation kernel underpinning the Gem5-AcceSys
//! reproduction. It plays the role gem5's event engine and port system play
//! in the original framework:
//!
//! * time is counted in [`Tick`]s of one picosecond,
//! * hardware blocks implement [`Module`] and communicate exclusively by
//!   exchanging [`Msg`] values through the [`Kernel`],
//! * memory and PCIe traffic travels as [`Packet`]s carrying a bounded
//!   route stack so responses retrace the request path,
//! * every module contributes counters to a [`Stats`] report.
//!
//! ```
//! use accesys_sim::{Kernel, Module, Msg, Ctx, units};
//!
//! struct Echo { heard: u64 }
//! impl Module for Echo {
//!     fn name(&self) -> &str { "echo" }
//!     fn handle(&mut self, msg: Msg, _ctx: &mut Ctx) {
//!         if let Msg::Timer(_) = msg { self.heard += 1; }
//!     }
//! }
//!
//! let mut kernel = Kernel::new();
//! let id = kernel.add_module(Box::new(Echo { heard: 0 }));
//! kernel.schedule(units::ns(5.0), id, Msg::Timer(0));
//! kernel.run_until_idle().unwrap();
//! assert_eq!(kernel.module::<Echo>(id).unwrap().heard, 1);
//! ```
#![warn(missing_docs)]

pub mod fxmap;
mod hist;
mod kernel;
mod msg;
mod packet;
mod pool;
pub mod sched;
mod stats;
mod trace;
pub mod units;

/// Well-known packet stream identifiers shared across subsystems.
///
/// The coherence point classifies traffic as CPU-side (`< IO_BASE`) or
/// I/O-side (`>= IO_BASE`); DMA channels are numbered from
/// [`streams::DMA_BASE`].
pub mod streams {
    /// CPU data traffic.
    pub const CPU: u16 = 0;
    /// CPU MMIO/doorbell traffic.
    pub const MMIO: u16 = 1;
    /// First I/O-side stream id (coherence classification boundary).
    pub const IO_BASE: u16 = 16;
    /// DMA channel `c` uses stream `DMA_BASE + c`.
    pub const DMA_BASE: u16 = 16;
    /// Page-table-walker traffic issued by the SMMU.
    pub const PTW: u16 = 0xFFFE;
    /// Cache writeback traffic.
    pub const WRITEBACK: u16 = 0xFFFF;
}

pub use fxmap::{FxBuildHasher, FxHashMap, FxHashSet};
pub use hist::Histogram;
pub use kernel::{Ctx, Kernel, RunLimit, SimError};
pub use msg::{Credit, CreditClass, Msg};
pub use packet::{MemCmd, Packet, RouteStack, MAX_ROUTE_DEPTH};
pub use pool::{PacketBox, PacketPool, PoolStats};
pub use sched::EventQueue;
pub use stats::Stats;
pub use trace::{PacketTrace, TraceRow, Tracer};

/// Simulation time in picoseconds.
///
/// One tick is one picosecond, matching gem5's default resolution, so a
/// 1 GHz clock has a period of 1000 ticks (see [`units`]).
pub type Tick = u64;

/// Identifies a [`Module`] registered with a [`Kernel`].
///
/// Module ids are handed out by [`Kernel::add_module`] and are only
/// meaningful for the kernel that created them.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ModuleId(u32);

impl ModuleId {
    /// A sentinel id used before wiring is complete.
    ///
    /// Sending to an invalid id panics inside [`Kernel::run_until_idle`],
    /// which surfaces wiring bugs early.
    pub const INVALID: ModuleId = ModuleId(u32::MAX);

    /// Raw index of the module inside its kernel.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    pub(crate) fn from_index(i: usize) -> Self {
        ModuleId(i as u32)
    }

    /// Whether this id is the [`ModuleId::INVALID`] sentinel.
    pub fn is_valid(self) -> bool {
        self != Self::INVALID
    }
}

impl std::fmt::Display for ModuleId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// Object-safe downcast support for [`Module`] trait objects.
///
/// Blanket-implemented for every `'static` type; modules get it for free.
pub trait AsAny {
    /// View as [`std::any::Any`] for downcasting.
    fn as_any(&self) -> &dyn std::any::Any;
    /// Mutable view as [`std::any::Any`] for downcasting.
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;
}

impl<T: 'static> AsAny for T {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// A simulated hardware block.
///
/// Modules own their state, never hold references to each other, and react
/// to [`Msg`]s delivered by the [`Kernel`]. Outgoing messages are scheduled
/// through the [`Ctx`] passed to [`Module::handle`].
///
/// Modules must be [`Send`]: a whole simulation is built on one thread
/// and may run on another (sweep points and fleet host shards run on the
/// `accesys-exp` worker pool).
pub trait Module: AsAny + Send + 'static {
    /// Short instance name used to prefix statistics (e.g. `"pcie.rc"`).
    fn name(&self) -> &str;

    /// React to a message delivered at `ctx.now()`.
    fn handle(&mut self, msg: Msg, ctx: &mut Ctx);

    /// Append this module's counters to `out` (keys are unprefixed; the
    /// kernel prepends `"<name>."`).
    fn report(&self, out: &mut Stats) {
        let _ = out;
    }
}
