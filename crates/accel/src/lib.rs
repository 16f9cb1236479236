//! # accesys-accel
//!
//! The accelerator wrapper of the Gem5-AcceSys reproduction, hosting the
//! MatrixFlow systolic array (16×16 multiply–accumulate units, integer
//! data) behind an accelerator controller.
//!
//! * [`SystolicArray`] — timing model of the array: output-stationary
//!   dataflow, `k + rows + cols` cycles per tile, with an optional
//!   compute-time override used by the paper's Fig. 2 roofline sweep.
//! * [`GemmOperands`] — the functional backend. The paper runs the RTL
//!   through Verilator as a child process; here a functional i32 GEMM
//!   stands behind the same controller so results remain checkable.
//! * [`AccelController`] — the wrapper FSM: splits the GEMM into
//!   super-blocks and k-chunks sized to the local buffer, double-buffers
//!   loads on dedicated DMA channels, overlaps compute with data
//!   movement, writes back C blocks, and raises an MSI when done.

mod array;
mod controller;
mod job;

pub use array::{SystolicArray, SystolicConfig};
pub use controller::{AccelController, AccelControllerConfig, JobRecord};
pub use job::{AccelJob, GemmOperands};
