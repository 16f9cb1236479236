//! Accelerator job descriptors and the functional GEMM backend.

use accesys_sim::ModuleId;
use std::sync::{Arc, Mutex};

/// Functional operands of a GEMM job.
///
/// The paper runs the RTL accelerator through Verilator so results are
/// real; our substitution is a functional i32 GEMM that the controller
/// executes in-process when the job completes, letting tests verify
/// numerical correctness while the timing path stays packet-level.
#[derive(Debug)]
pub struct GemmOperands {
    m: usize,
    n: usize,
    k: usize,
    a: Vec<i32>,
    b: Vec<i32>,
    c: Mutex<Option<Vec<i32>>>,
}

impl GemmOperands {
    /// Wrap row-major `a` (`m×k`) and `b` (`k×n`).
    ///
    /// # Panics
    ///
    /// Panics if the slices do not match the dimensions.
    pub fn new(m: usize, n: usize, k: usize, a: Vec<i32>, b: Vec<i32>) -> Self {
        assert_eq!(a.len(), m * k, "A must be m×k");
        assert_eq!(b.len(), k * n, "B must be k×n");
        GemmOperands {
            m,
            n,
            k,
            a,
            b,
            c: Mutex::new(None),
        }
    }

    /// Compute and store `C = A×B` (called by the controller when the
    /// simulated job completes).
    pub fn execute(&self) {
        let mut c = vec![0i32; self.m * self.n];
        for i in 0..self.m {
            for kk in 0..self.k {
                let a = self.a[i * self.k + kk];
                if a == 0 {
                    continue;
                }
                let brow = &self.b[kk * self.n..(kk + 1) * self.n];
                let crow = &mut c[i * self.n..(i + 1) * self.n];
                for (cv, bv) in crow.iter_mut().zip(brow) {
                    *cv = cv.wrapping_add(a.wrapping_mul(*bv));
                }
            }
        }
        *self.c.lock().expect("operand lock poisoned") = Some(c);
    }

    /// The result matrix, if the job has executed.
    pub fn result(&self) -> Option<Vec<i32>> {
        self.c.lock().expect("operand lock poisoned").clone()
    }

    /// Reference result computed independently (for tests).
    pub fn golden(&self) -> Vec<i32> {
        let mut c = vec![0i32; self.m * self.n];
        for i in 0..self.m {
            for j in 0..self.n {
                let mut acc = 0i32;
                for kk in 0..self.k {
                    acc = acc.wrapping_add(
                        self.a[i * self.k + kk].wrapping_mul(self.b[kk * self.n + j]),
                    );
                }
                c[i * self.n + j] = acc;
            }
        }
        c
    }
}

/// One GEMM job submitted to the [`crate::AccelController`].
#[derive(Clone, Debug)]
pub struct AccelJob {
    /// Output rows.
    pub m: u32,
    /// Output columns.
    pub n: u32,
    /// Reduction depth.
    pub k: u32,
    /// Element size in bytes (MatrixFlow uses 4-byte integers).
    pub dtype_bytes: u32,
    /// Base address of A (pre-tiled panel layout).
    pub a_addr: u64,
    /// Base address of B (pre-tiled panel layout).
    pub b_addr: u64,
    /// Base address of C.
    pub c_addr: u64,
    /// Addresses are in the accelerator's virtual space (SMMU translates).
    pub virt: bool,
    /// Where DMA requests go: the PCIe endpoint (host memory) or the
    /// DevMem controller (device-side memory).
    pub data_target: ModuleId,
    /// Host address the completion MSI is written to.
    pub msi_addr: u64,
    /// Job cookie echoed in the MSI address (`msi_addr + 4*cookie`).
    pub cookie: u64,
    /// Optional functional backend executed at completion.
    pub functional: Option<Arc<GemmOperands>>,
}

impl AccelJob {
    /// Total bytes of A, B and C.
    pub fn footprint_bytes(&self) -> u64 {
        let d = u64::from(self.dtype_bytes);
        d * (u64::from(self.m) * u64::from(self.k)
            + u64::from(self.k) * u64::from(self.n)
            + u64::from(self.m) * u64::from(self.n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn execute_matches_golden() {
        let m = 5;
        let n = 7;
        let k = 3;
        let a: Vec<i32> = (0..m * k).map(|x| x as i32 - 4).collect();
        let b: Vec<i32> = (0..k * n).map(|x| (x * 3) as i32 % 11 - 5).collect();
        let ops = GemmOperands::new(m, n, k, a, b);
        assert!(ops.result().is_none());
        ops.execute();
        assert_eq!(ops.result().unwrap(), ops.golden());
    }

    #[test]
    fn identity_multiplication() {
        let n = 4;
        let mut eye = vec![0i32; n * n];
        for i in 0..n {
            eye[i * n + i] = 1;
        }
        let b: Vec<i32> = (0..n * n).map(|x| x as i32).collect();
        let ops = GemmOperands::new(n, n, n, eye, b.clone());
        ops.execute();
        assert_eq!(ops.result().unwrap(), b);
    }

    #[test]
    fn footprint_counts_all_three_matrices() {
        let job = AccelJob {
            m: 64,
            n: 64,
            k: 64,
            dtype_bytes: 4,
            a_addr: 0,
            b_addr: 0,
            c_addr: 0,
            virt: false,
            data_target: ModuleId::INVALID,
            msi_addr: 0,
            cookie: 0,
            functional: None,
        };
        // Table IV: 64 → 48 KiB = 12 pages.
        assert_eq!(job.footprint_bytes(), 3 * 64 * 64 * 4);
        assert_eq!(job.footprint_bytes() / 4096, 12);
    }

    #[test]
    #[should_panic(expected = "A must be m×k")]
    fn wrong_operand_shape_panics() {
        GemmOperands::new(4, 4, 4, vec![0; 15], vec![0; 16]);
    }
}
