//! Memory technology presets following Table III of the paper.

use crate::{AddressMapping, DramConfig, DramPower, DramTiming, PagePolicy};

/// Memory technology, with the channel/width/bandwidth/data-rate
/// configuration of Table III (plus GDDR5 and LPDDR5, which the paper's
/// Fig. 5 evaluates but the table omits).
///
/// ```
/// use accesys_mem::MemTech;
///
/// assert_eq!(MemTech::Ddr4.bandwidth_gbps(), 19.2);
/// assert_eq!(MemTech::Hbm2.channels(), 2);
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, serde::Serialize)]
pub enum MemTech {
    /// DDR3-1600: 1 channel × 64 bit, 12.8 GB/s.
    Ddr3,
    /// DDR4-2400: 1 channel × 64 bit, 19.2 GB/s.
    Ddr4,
    /// DDR5-3200: 2 channels × 32 bit, 25.6 GB/s.
    Ddr5,
    /// HBM2-2000: 2 channels × 128 bit, 64 GB/s.
    Hbm2,
    /// GDDR5-2000: 2 channels × 64 bit, 32 GB/s.
    Gddr5,
    /// GDDR6-2000: 2 channels × 64 bit, 32 GB/s (lower latency than GDDR5).
    Gddr6,
    /// LPDDR5-6400: 1 channel × 32 bit, 25.6 GB/s, mobile-class latency.
    Lpddr5,
}

impl MemTech {
    /// All technologies, in Table III order then the Fig. 5 extras.
    pub const ALL: [MemTech; 7] = [
        MemTech::Ddr3,
        MemTech::Ddr4,
        MemTech::Ddr5,
        MemTech::Hbm2,
        MemTech::Gddr5,
        MemTech::Gddr6,
        MemTech::Lpddr5,
    ];

    /// Number of channels (Table III "Channel").
    pub fn channels(self) -> u32 {
        match self {
            MemTech::Ddr3 | MemTech::Ddr4 | MemTech::Lpddr5 => 1,
            MemTech::Ddr5 | MemTech::Hbm2 | MemTech::Gddr5 | MemTech::Gddr6 => 2,
        }
    }

    /// Per-channel data width in bits (Table III "Data width").
    pub fn data_width_bits(self) -> u32 {
        match self {
            MemTech::Ddr3 | MemTech::Ddr4 | MemTech::Gddr5 | MemTech::Gddr6 => 64,
            MemTech::Ddr5 | MemTech::Lpddr5 => 32,
            MemTech::Hbm2 => 128,
        }
    }

    /// Data rate in MT/s (Table III "Data Rate").
    pub fn data_rate_mts(self) -> u32 {
        match self {
            MemTech::Ddr3 => 1600,
            MemTech::Ddr4 => 2400,
            MemTech::Ddr5 => 3200,
            MemTech::Hbm2 | MemTech::Gddr5 | MemTech::Gddr6 => 2000,
            MemTech::Lpddr5 => 6400,
        }
    }

    /// Aggregate peak bandwidth in GB/s (Table III "Bandwidth"):
    /// channels × width/8 × rate.
    pub fn bandwidth_gbps(self) -> f64 {
        self.channels() as f64 * (self.data_width_bits() as f64 / 8.0) * self.data_rate_mts() as f64
            / 1000.0
    }

    /// Core timing parameters (JEDEC-typical, first order).
    pub fn timing(self) -> DramTiming {
        // Command clock runs at half the data rate (DDR).
        let tck_ps = (2_000_000.0 / self.data_rate_mts() as f64).round() as u64;
        // tCCD is the short (cross-bank-group) spacing so a streaming
        // pattern can saturate the data bus, as real controllers do by
        // rotating bank groups.
        let (cl, trcd, trp, tras, tccd, burst_len) = match self {
            MemTech::Ddr3 => (11, 11, 11, 28, 4, 8),
            MemTech::Ddr4 => (17, 17, 17, 39, 4, 8),
            MemTech::Ddr5 => (26, 26, 26, 52, 8, 16),
            MemTech::Hbm2 => (14, 14, 14, 34, 2, 4),
            MemTech::Gddr5 => (15, 15, 15, 35, 4, 8),
            MemTech::Gddr6 => (14, 14, 14, 32, 4, 8),
            MemTech::Lpddr5 => (36, 36, 42, 84, 8, 16),
        };
        // JEDEC-typical refresh: tREFI 7.8 µs at normal temperature
        // (3.9 µs for the fine-granularity stacks), tRFC per density class.
        let (trefi_ns, trfc_ns) = match self {
            MemTech::Ddr3 => (7800.0, 300.0),
            MemTech::Ddr4 => (7800.0, 350.0),
            MemTech::Ddr5 => (3900.0, 295.0),
            MemTech::Hbm2 => (3900.0, 260.0),
            MemTech::Gddr5 | MemTech::Gddr6 => (1900.0, 120.0),
            MemTech::Lpddr5 => (3900.0, 280.0),
        };
        DramTiming {
            tck_ps,
            cl,
            trcd,
            trp,
            tras,
            tccd,
            burst_len,
            trefi_ns,
            trfc_ns,
        }
    }

    /// Per-command energy parameters (datasheet-class, first order).
    pub fn power(self) -> DramPower {
        // pJ/bit data movement: stacked < mobile < graphics < commodity.
        let (act_pre_pj, pj_per_bit, refresh_pj, background_mw) = match self {
            MemTech::Ddr3 => (2800.0, 40.0, 60_000.0, 110.0),
            MemTech::Ddr4 => (2200.0, 25.0, 55_000.0, 95.0),
            MemTech::Ddr5 => (1900.0, 18.0, 45_000.0, 90.0),
            MemTech::Hbm2 => (900.0, 3.9, 30_000.0, 160.0),
            MemTech::Gddr5 => (1700.0, 14.0, 35_000.0, 140.0),
            MemTech::Gddr6 => (1500.0, 12.0, 32_000.0, 130.0),
            MemTech::Lpddr5 => (1100.0, 8.0, 28_000.0, 35.0),
        };
        DramPower {
            act_pre_pj,
            pj_per_bit,
            refresh_pj,
            background_mw,
        }
    }

    /// Full controller configuration for this technology.
    pub fn dram_config(self) -> DramConfig {
        DramConfig {
            timing: self.timing(),
            channels: self.channels(),
            banks: match self {
                MemTech::Hbm2 => 16,
                MemTech::Gddr5 | MemTech::Gddr6 => 16,
                _ => 8,
            },
            data_width_bits: self.data_width_bits(),
            row_bytes: 2048,
            mapping: AddressMapping::default(),
            page_policy: PagePolicy::default(),
            power: self.power(),
        }
    }
}

impl std::fmt::Display for MemTech {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            MemTech::Ddr3 => "DDR3",
            MemTech::Ddr4 => "DDR4",
            MemTech::Ddr5 => "DDR5",
            MemTech::Hbm2 => "HBM2",
            MemTech::Gddr5 => "GDDR5",
            MemTech::Gddr6 => "GDDR6",
            MemTech::Lpddr5 => "LPDDR5",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_iii_bandwidths() {
        assert_eq!(MemTech::Ddr3.bandwidth_gbps(), 12.8);
        assert_eq!(MemTech::Ddr4.bandwidth_gbps(), 19.2);
        assert_eq!(MemTech::Ddr5.bandwidth_gbps(), 25.6);
        assert_eq!(MemTech::Hbm2.bandwidth_gbps(), 64.0);
        assert_eq!(MemTech::Gddr6.bandwidth_gbps(), 32.0);
    }

    #[test]
    fn burst_sizes_cover_a_cache_line() {
        // One burst should move a 64 B line (or half of one for narrow
        // channels at BL16 it is exactly 64 B as well).
        for tech in MemTech::ALL {
            let t = tech.timing();
            let burst_bytes = tech.data_width_bits() / 8 * t.burst_len;
            assert!(
                burst_bytes == 64 || burst_bytes == 128,
                "{tech}: burst of {burst_bytes} B"
            );
        }
    }

    #[test]
    fn clock_matches_data_rate() {
        assert_eq!(MemTech::Ddr3.timing().tck_ps, 1250); // 800 MHz
        assert_eq!(MemTech::Hbm2.timing().tck_ps, 1000); // 1 GHz
    }
}
