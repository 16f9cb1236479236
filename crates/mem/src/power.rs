//! DRAM energy model — the DRAMsim3-style power statistics the paper
//! gets from its external DRAM simulators.
//!
//! The model is command-based: each ACT/PRE pair, column burst and
//! refresh contributes a fixed energy, and each channel burns a constant
//! background power while the device is powered. Absolute joules are
//! first-order (datasheet-class, not SPICE), but the *relative* ordering
//! across technologies — HBM2's low pJ/bit versus DDR3's high — is the
//! signal a system architect reads from these numbers.

/// Per-command energy and background power for one DRAM channel.
///
/// ```
/// use accesys_mem::{DramPower, MemTech};
///
/// let hbm = MemTech::Hbm2.power();
/// let ddr3 = MemTech::Ddr3.power();
/// // HBM moves bits far more efficiently than DDR3.
/// assert!(hbm.pj_per_bit < ddr3.pj_per_bit / 2.0);
/// ```
#[derive(Copy, Clone, Debug, PartialEq, serde::Serialize)]
pub struct DramPower {
    /// Energy of one ACT + PRE pair, in picojoules.
    pub act_pre_pj: f64,
    /// Read/write data movement energy, in picojoules per bit.
    pub pj_per_bit: f64,
    /// Energy of one all-bank refresh of one channel, in picojoules.
    pub refresh_pj: f64,
    /// Background (standby + peripheral) power per channel, in milliwatts.
    pub background_mw: f64,
}

impl DramPower {
    /// Energy of a column burst moving `bytes` bytes, in picojoules.
    pub fn burst_pj(&self, bytes: u32) -> f64 {
        self.pj_per_bit * f64::from(bytes) * 8.0
    }

    /// Background energy over `ns` nanoseconds for `channels` channels,
    /// in picojoules (1 mW × 1 ns = 1 pJ).
    pub fn background_pj(&self, ns: f64, channels: u32) -> f64 {
        self.background_mw * ns * f64::from(channels)
    }
}

/// Accumulated energy of one [`crate::Dram`] instance, in picojoules.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// ACT + PRE energy.
    pub act_pj: f64,
    /// Read burst energy.
    pub read_pj: f64,
    /// Write burst energy.
    pub write_pj: f64,
    /// Refresh energy.
    pub refresh_pj: f64,
    /// Background energy (computed over the active window).
    pub background_pj: f64,
}

impl EnergyBreakdown {
    /// Total energy in picojoules.
    pub fn total_pj(&self) -> f64 {
        self.act_pj + self.read_pj + self.write_pj + self.refresh_pj + self.background_pj
    }

    /// Total energy in nanojoules.
    pub fn total_nj(&self) -> f64 {
        self.total_pj() / 1000.0
    }

    /// Average power over `window_ns`, in milliwatts (0 for an empty window).
    pub fn avg_power_mw(&self, window_ns: f64) -> f64 {
        if window_ns <= 0.0 {
            0.0
        } else {
            self.total_pj() / window_ns
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemTech;

    #[test]
    fn burst_energy_scales_with_bytes() {
        let p = MemTech::Ddr4.power();
        assert!((p.burst_pj(128) - 2.0 * p.burst_pj(64)).abs() < 1e-9);
        assert!(p.burst_pj(64) > 0.0);
    }

    #[test]
    fn background_energy_scales_with_time_and_channels() {
        let p = MemTech::Hbm2.power();
        let one = p.background_pj(100.0, 1);
        assert!((p.background_pj(200.0, 1) - 2.0 * one).abs() < 1e-9);
        assert!((p.background_pj(100.0, 2) - 2.0 * one).abs() < 1e-9);
    }

    #[test]
    fn breakdown_total_sums_components() {
        let b = EnergyBreakdown {
            act_pj: 1.0,
            read_pj: 2.0,
            write_pj: 3.0,
            refresh_pj: 4.0,
            background_pj: 5.0,
        };
        assert_eq!(b.total_pj(), 15.0);
        assert_eq!(b.total_nj(), 0.015);
        assert_eq!(b.avg_power_mw(15.0), 1.0);
        assert_eq!(b.avg_power_mw(0.0), 0.0);
    }

    #[test]
    fn efficiency_ordering_matches_technology_class() {
        // pJ/bit: stacked (HBM) < mobile (LPDDR) < graphics < commodity DDR.
        let pj = |t: MemTech| t.power().pj_per_bit;
        assert!(pj(MemTech::Hbm2) < pj(MemTech::Lpddr5));
        assert!(pj(MemTech::Lpddr5) < pj(MemTech::Gddr6));
        assert!(pj(MemTech::Gddr6) < pj(MemTech::Ddr4));
        assert!(pj(MemTech::Ddr4) < pj(MemTech::Ddr3));
    }
}
