//! Systolic-array timing model (MatrixFlow).

use accesys_sim::{units, Tick};

/// Configuration of a [`SystolicArray`].
#[derive(Copy, Clone, Debug, serde::Serialize)]
pub struct SystolicConfig {
    /// Rows of MAC units (MatrixFlow: 16).
    pub rows: u32,
    /// Columns of MAC units (MatrixFlow: 16).
    pub cols: u32,
    /// Array clock in GHz.
    pub freq_ghz: f64,
    /// When set, overrides the per-output-tile compute time (for a full
    /// `k` reduction) in nanoseconds — the knob swept by the paper's
    /// roofline study (Fig. 2).
    pub compute_override_ns: Option<f64>,
}

impl Default for SystolicConfig {
    fn default() -> Self {
        SystolicConfig {
            rows: 16,
            cols: 16,
            freq_ghz: 1.0,
            compute_override_ns: None,
        }
    }
}

/// Timing model of an output-stationary systolic array.
///
/// A `rows × cols` output tile accumulates over `k` in `k + rows + cols`
/// cycles (stream plus pipeline fill/drain).
///
/// ```
/// use accesys_accel::{SystolicArray, SystolicConfig};
///
/// let array = SystolicArray::new(SystolicConfig::default());
/// // 1 GHz, k=256: (256 + 32) cycles = 288 ns.
/// assert_eq!(array.tile_time(256, 256), accesys_sim::units::ns(288.0));
/// ```
#[derive(Copy, Clone, Debug)]
pub struct SystolicArray {
    cfg: SystolicConfig,
}

impl SystolicArray {
    /// Create an array from its configuration.
    pub fn new(cfg: SystolicConfig) -> Self {
        assert!(cfg.rows > 0 && cfg.cols > 0 && cfg.freq_ghz > 0.0);
        SystolicArray { cfg }
    }

    /// The configuration of this array.
    pub fn config(&self) -> SystolicConfig {
        self.cfg
    }

    /// Time to accumulate one output tile over a `k_chunk` of the full
    /// `k_total` reduction.
    ///
    /// With a compute override of `T` ns per full-`k` tile, a chunk costs
    /// `T * k_chunk / k_total` so the job's total compute time stays `T`
    /// per tile regardless of chunking.
    pub fn tile_time(&self, k_chunk: u32, k_total: u32) -> Tick {
        debug_assert!(k_chunk > 0 && k_total >= k_chunk);
        if let Some(t) = self.cfg.compute_override_ns {
            return units::ns(t * f64::from(k_chunk) / f64::from(k_total));
        }
        let cycles = u64::from(k_chunk + self.cfg.rows + self.cfg.cols);
        cycles * units::clock_period_ghz(self.cfg.freq_ghz)
    }

    /// Time to compute a block of `tiles` output tiles over one k-chunk.
    pub fn block_time(&self, tiles: u32, k_chunk: u32, k_total: u32) -> Tick {
        u64::from(tiles) * self.tile_time(k_chunk, k_total)
    }

    /// Peak multiply–accumulates per second.
    pub fn peak_macs_per_sec(&self) -> f64 {
        f64::from(self.cfg.rows) * f64::from(self.cfg.cols) * self.cfg.freq_ghz * 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tile_time_is_stream_plus_fill() {
        let a = SystolicArray::new(SystolicConfig::default());
        assert_eq!(a.tile_time(1024, 1024), units::ns(1056.0));
        // Half the k at 2 GHz.
        let fast = SystolicArray::new(SystolicConfig {
            freq_ghz: 2.0,
            ..SystolicConfig::default()
        });
        assert_eq!(fast.tile_time(512, 512), units::ns(272.0));
    }

    #[test]
    fn override_scales_with_chunk_fraction() {
        let a = SystolicArray::new(SystolicConfig {
            compute_override_ns: Some(1500.0),
            ..SystolicConfig::default()
        });
        assert_eq!(a.tile_time(1024, 1024), units::ns(1500.0));
        assert_eq!(a.tile_time(256, 1024), units::ns(375.0));
        // Four chunks add up to the full override.
        assert_eq!(4 * a.tile_time(256, 1024), a.tile_time(1024, 1024));
    }

    #[test]
    fn peak_rate_matches_dimensions() {
        let a = SystolicArray::new(SystolicConfig::default());
        assert_eq!(a.peak_macs_per_sec(), 256e9);
    }

    #[test]
    fn block_time_is_linear_in_tiles() {
        let a = SystolicArray::new(SystolicConfig::default());
        assert_eq!(a.block_time(64, 256, 1024), 64 * a.tile_time(256, 1024));
    }
}
