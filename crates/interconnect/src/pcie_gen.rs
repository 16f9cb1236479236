//! PCIe generation presets: raw rate and encoding per the PCI-SIG specs.

/// A PCIe specification generation.
///
/// Each generation fixes the per-lane raw signalling rate and the line
/// encoding; effective bandwidth is `lanes × raw × efficiency`. The
/// paper's Table II baseline is [`PcieGen::Gen2`] ×4.
///
/// ```
/// use accesys_interconnect::{PcieGen, PcieLinkConfig};
///
/// // Gen3 ×16 ≈ 15.75 GB/s effective.
/// let link = PcieLinkConfig::gen(PcieGen::Gen3, 16);
/// assert!((link.bandwidth_gbps() - 15.75).abs() < 0.01);
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, serde::Serialize)]
pub enum PcieGen {
    /// PCIe 1.x: 2.5 GT/s, 8b/10b.
    Gen1,
    /// PCIe 2.x: 5 GT/s, 8b/10b (Table II baseline).
    Gen2,
    /// PCIe 3.x: 8 GT/s, 128b/130b.
    Gen3,
    /// PCIe 4.0: 16 GT/s, 128b/130b.
    Gen4,
    /// PCIe 5.0: 32 GT/s, 128b/130b.
    Gen5,
    /// PCIe 6.0: 64 GT/s, PAM4 + FLIT mode (242/256 FEC framing).
    Gen6,
}

impl PcieGen {
    /// All generations, oldest first.
    pub const ALL: [PcieGen; 6] = [
        PcieGen::Gen1,
        PcieGen::Gen2,
        PcieGen::Gen3,
        PcieGen::Gen4,
        PcieGen::Gen5,
        PcieGen::Gen6,
    ];

    /// Raw per-lane signalling rate in GT/s.
    pub fn raw_gt_s(self) -> f64 {
        match self {
            PcieGen::Gen1 => 2.5,
            PcieGen::Gen2 => 5.0,
            PcieGen::Gen3 => 8.0,
            PcieGen::Gen4 => 16.0,
            PcieGen::Gen5 => 32.0,
            PcieGen::Gen6 => 64.0,
        }
    }

    /// Line-encoding efficiency (payload bits / wire bits).
    pub fn encoding_efficiency(self) -> f64 {
        match self {
            PcieGen::Gen1 | PcieGen::Gen2 => 0.8, // 8b/10b
            PcieGen::Gen3 | PcieGen::Gen4 | PcieGen::Gen5 => 128.0 / 130.0,
            PcieGen::Gen6 => 242.0 / 256.0, // FLIT + FEC
        }
    }

    /// Effective per-lane bandwidth in GB/s.
    pub fn per_lane_gbps(self) -> f64 {
        self.raw_gt_s() * self.encoding_efficiency() / 8.0
    }

    /// Effective bandwidth of a `lanes`-wide link in GB/s.
    pub fn bandwidth_gbps(self, lanes: u32) -> f64 {
        self.per_lane_gbps() * f64::from(lanes)
    }
}

impl std::fmt::Display for PcieGen {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            PcieGen::Gen1 => "PCIe 1.0",
            PcieGen::Gen2 => "PCIe 2.0",
            PcieGen::Gen3 => "PCIe 3.0",
            PcieGen::Gen4 => "PCIe 4.0",
            PcieGen::Gen5 => "PCIe 5.0",
            PcieGen::Gen6 => "PCIe 6.0",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_increase_and_double_from_gen3_onward() {
        for pair in PcieGen::ALL.windows(2) {
            assert!(pair[1].raw_gt_s() > pair[0].raw_gt_s());
        }
        // Gen2 → Gen3 switched encodings (5 → 8 GT/s); every jump after
        // that doubles the raw rate.
        for pair in PcieGen::ALL[2..].windows(2) {
            assert_eq!(pair[1].raw_gt_s(), 2.0 * pair[0].raw_gt_s());
        }
    }

    #[test]
    fn effective_bandwidths_match_the_spec_sheet() {
        // Well-known ×16 numbers: Gen1 4 GB/s, Gen3 15.75, Gen4 31.5.
        assert!((PcieGen::Gen1.bandwidth_gbps(16) - 4.0).abs() < 0.01);
        assert!((PcieGen::Gen3.bandwidth_gbps(16) - 15.75).abs() < 0.01);
        assert!((PcieGen::Gen4.bandwidth_gbps(16) - 31.5).abs() < 0.01);
        assert!((PcieGen::Gen6.bandwidth_gbps(16) - 121.0).abs() < 1.0);
    }

    #[test]
    fn table_ii_baseline_is_gen2_x4() {
        // 4 lanes × 5 GT/s × 0.8 / 8 = 2 GB/s effective — the paper's
        // "PCIe Link Version 2.0, 4 Gb/s, 4 Lanes" row.
        assert!((PcieGen::Gen2.bandwidth_gbps(4) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn encoding_overhead_shrinks_over_generations() {
        assert!(PcieGen::Gen1.encoding_efficiency() < PcieGen::Gen3.encoding_efficiency());
        assert!(PcieGen::Gen6.encoding_efficiency() > 0.9);
    }

    #[test]
    fn display_names_are_versioned() {
        assert_eq!(PcieGen::Gen5.to_string(), "PCIe 5.0");
    }
}
