//! GEMM workload specification.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A GEMM problem `C[m×n] = A[m×k] × B[k×n]`.
///
/// ```
/// use accesys_workload::GemmSpec;
///
/// let spec = GemmSpec::square(1024);
/// // Table IV: 1024 → 3072 pages of footprint.
/// assert_eq!(spec.footprint_pages(4096), 3072);
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, serde::Serialize)]
pub struct GemmSpec {
    /// Output rows.
    pub m: u32,
    /// Output columns.
    pub n: u32,
    /// Reduction depth.
    pub k: u32,
    /// Element size in bytes (the paper's accelerator uses 4-byte ints).
    pub dtype_bytes: u32,
    /// Seed for operand generation.
    pub seed: u64,
}

impl GemmSpec {
    /// A square `n × n × n` problem with 4-byte integers.
    pub fn square(n: u32) -> Self {
        GemmSpec {
            m: n,
            n,
            k: n,
            dtype_bytes: 4,
            seed: 0xACCE,
        }
    }

    /// A rectangular problem.
    pub fn new(m: u32, n: u32, k: u32) -> Self {
        GemmSpec {
            m,
            n,
            k,
            dtype_bytes: 4,
            seed: 0xACCE,
        }
    }

    /// Same problem with a different element width (e.g. 1 for int8
    /// inference, 2 for fp16): traffic halves/quarters, MACs stay equal.
    pub fn with_dtype_bytes(mut self, dtype_bytes: u32) -> Self {
        assert!(
            matches!(dtype_bytes, 1 | 2 | 4 | 8),
            "unsupported element width {dtype_bytes}"
        );
        self.dtype_bytes = dtype_bytes;
        self
    }

    /// Multiply–accumulate operations. Saturates at `u64::MAX` for
    /// synthetic shapes past 2^64 MACs (three `u32` maxima multiply to
    /// ~2^96) instead of wrapping.
    pub fn macs(&self) -> u64 {
        u64::from(self.m)
            .saturating_mul(u64::from(self.n))
            .saturating_mul(u64::from(self.k))
    }

    /// Bytes of A + B + C (the Table IV "memory footprint").
    pub fn footprint_bytes(&self) -> u64 {
        let d = u64::from(self.dtype_bytes);
        d * (u64::from(self.m) * u64::from(self.k)
            + u64::from(self.k) * u64::from(self.n)
            + u64::from(self.m) * u64::from(self.n))
    }

    /// Footprint in pages of `page_bytes` (Table IV row 1).
    pub fn footprint_pages(&self, page_bytes: u64) -> u64 {
        self.footprint_bytes().div_ceil(page_bytes)
    }

    /// Generate reproducible A (`m×k`) and B (`k×n`) operands with small
    /// integer entries (so i32 accumulation cannot overflow for the
    /// sizes used in tests).
    pub fn generate_operands(&self) -> (Vec<i32>, Vec<i32>) {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let a = (0..self.m as usize * self.k as usize)
            .map(|_| rng.gen_range(-8..=8))
            .collect();
        let b = (0..self.k as usize * self.n as usize)
            .map(|_| rng.gen_range(-8..=8))
            .collect();
        (a, b)
    }
}

impl std::fmt::Display for GemmSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "gemm {}x{}x{}", self.m, self.n, self.k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_iv_footprints() {
        // Matrix size -> pages, exactly as the paper's Table IV.
        for (size, pages) in [
            (64, 12),
            (128, 48),
            (256, 192),
            (512, 768),
            (1024, 3072),
            (2048, 12288),
        ] {
            assert_eq!(GemmSpec::square(size).footprint_pages(4096), pages);
        }
    }

    #[test]
    fn operands_are_reproducible_and_bounded() {
        let spec = GemmSpec::square(32);
        let (a1, b1) = spec.generate_operands();
        let (a2, b2) = spec.generate_operands();
        assert_eq!(a1, a2);
        assert_eq!(b1, b2);
        assert_eq!(a1.len(), 32 * 32);
        assert!(a1.iter().all(|&x| (-8..=8).contains(&x)));
        // Different seed, different data.
        let other = GemmSpec { seed: 7, ..spec };
        assert_ne!(other.generate_operands().0, a1);
    }

    #[test]
    fn macs_count() {
        assert_eq!(GemmSpec::new(2, 3, 4).macs(), 24);
    }
}
