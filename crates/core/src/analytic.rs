//! The paper's Section V-D analytic model.
//!
//! `Time_overall = T_other + W_GEMM / P_GEMM + W_NonGEMM / P_NonGEMM`
//!
//! Given measured GEMM and Non-GEMM times on two systems (a PCIe
//! host-memory system and a DevMem system), the model predicts total
//! execution time as the Non-GEMM fraction varies and locates the
//! crossover fraction where DevMem starts to win (Fig. 9).

/// Measured phase times of one system configuration, in nanoseconds,
/// for a reference workload.
#[derive(Copy, Clone, Debug, PartialEq, serde::Serialize)]
pub struct PhaseTimes {
    /// Time the reference workload spends in GEMM work on this system.
    pub gemm_ns: f64,
    /// Time it spends in Non-GEMM work on this system.
    pub non_gemm_ns: f64,
}

/// The Section V-D workload-composition model comparing a PCIe
/// (host-memory) system against a DevMem system.
#[derive(Copy, Clone, Debug, serde::Serialize)]
pub struct ThresholdModel {
    /// Host/PCIe system phase times.
    pub pcie: PhaseTimes,
    /// DevMem system phase times.
    pub devmem: PhaseTimes,
    /// Fixed time independent of the split (driver, framework).
    pub t_other_ns: f64,
}

impl ThresholdModel {
    /// Total time when a fraction `w_non_gemm ∈ [0, 1]` of the workload's
    /// *work* is Non-GEMM (work is scaled so the reference workload's
    /// GEMM part takes `gemm_ns` at fraction 0).
    ///
    /// # Panics
    ///
    /// Panics if `w_non_gemm` is outside `[0, 1]`.
    pub fn total_ns(&self, w_non_gemm: f64, devmem: bool) -> f64 {
        assert!(
            (0.0..=1.0).contains(&w_non_gemm),
            "fraction out of range: {w_non_gemm}"
        );
        let t = if devmem { self.devmem } else { self.pcie };
        self.t_other_ns + (1.0 - w_non_gemm) * t.gemm_ns + w_non_gemm * t.non_gemm_ns
    }

    /// The Non-GEMM fraction at which the two systems tie; below it (more
    /// GEMM-dominated) DevMem wins. `None` when one system dominates at
    /// every mix.
    pub fn crossover_non_gemm_fraction(&self) -> Option<f64> {
        // Solve pcie(w) = devmem(w): linear in w.
        let dg = self.pcie.gemm_ns - self.devmem.gemm_ns; // >0 when DevMem's GEMM is faster
        let dn = self.devmem.non_gemm_ns - self.pcie.non_gemm_ns; // >0 when DevMem's Non-GEMM is slower
        let denom = dg + dn;
        if denom.abs() < f64::EPSILON {
            return None;
        }
        let w = dg / denom;
        (0.0..=1.0).contains(&w).then_some(w)
    }

    /// The paper's headline number: the minimum **GEMM fraction** above
    /// which DevMem is preferable (`W_GEMM` threshold of Fig. 9).
    pub fn devmem_wins_above_gemm_fraction(&self) -> Option<f64> {
        self.crossover_non_gemm_fraction().map(|w| 1.0 - w)
    }

    /// Sample both curves over `steps` evenly spaced Non-GEMM fractions,
    /// returning `(w_non_gemm, pcie_ns, devmem_ns)` triples (Fig. 9's
    /// series).
    pub fn sweep(&self, steps: usize) -> Vec<(f64, f64, f64)> {
        assert!(steps >= 2, "need at least the two endpoints");
        (0..steps)
            .map(|i| {
                let w = i as f64 / (steps - 1) as f64;
                (w, self.total_ns(w, false), self.total_ns(w, true))
            })
            .collect()
    }
}

/// A point of the Fig. 2 roofline: normalized execution time as a
/// function of per-tile compute time.
#[derive(Copy, Clone, Debug, PartialEq, serde::Serialize)]
pub struct RooflinePoint {
    /// Systolic-array compute time per output tile, in nanoseconds.
    pub compute_ns: f64,
    /// Measured execution time, in nanoseconds.
    pub exec_ns: f64,
}

/// Locate the memory-bound → compute-bound knee of a roofline series:
/// the smallest compute time whose execution time exceeds the plateau
/// (minimum execution time) by `tolerance` (e.g. 0.05 = 5 %).
///
/// Points may be passed in any order.
pub fn roofline_knee(points: &[RooflinePoint], tolerance: f64) -> Option<f64> {
    if points.is_empty() {
        return None;
    }
    let mut sorted: Vec<RooflinePoint> = points.to_vec();
    sorted.sort_by(|a, b| a.compute_ns.total_cmp(&b.compute_ns));
    let plateau = sorted
        .iter()
        .map(|p| p.exec_ns)
        .fold(f64::INFINITY, f64::min);
    sorted
        .iter()
        .find(|p| p.exec_ns > plateau * (1.0 + tolerance))
        .map(|p| p.compute_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> ThresholdModel {
        // DevMem: fast GEMM (600), slow Non-GEMM (3000).
        // PCIe: slower GEMM (1000), fast Non-GEMM (500).
        ThresholdModel {
            pcie: PhaseTimes {
                gemm_ns: 1000.0,
                non_gemm_ns: 500.0,
            },
            devmem: PhaseTimes {
                gemm_ns: 600.0,
                non_gemm_ns: 3000.0,
            },
            t_other_ns: 100.0,
        }
    }

    #[test]
    fn endpoints_pick_the_right_winner() {
        let m = model();
        // Pure GEMM: DevMem wins.
        assert!(m.total_ns(0.0, true) < m.total_ns(0.0, false));
        // Pure Non-GEMM: PCIe wins.
        assert!(m.total_ns(1.0, true) > m.total_ns(1.0, false));
    }

    #[test]
    fn crossover_matches_hand_solution() {
        let m = model();
        // dg = 400, dn = 2500 -> w* = 400/2900.
        let w = m.crossover_non_gemm_fraction().unwrap();
        assert!((w - 400.0 / 2900.0).abs() < 1e-12);
        let wg = m.devmem_wins_above_gemm_fraction().unwrap();
        assert!((wg - (1.0 - 400.0 / 2900.0)).abs() < 1e-12);
        // At the crossover the two systems tie.
        assert!((m.total_ns(w, true) - m.total_ns(w, false)).abs() < 1e-9);
    }

    #[test]
    fn higher_pcie_bandwidth_lowers_the_gemm_threshold() {
        // Faster PCIe shrinks the host GEMM time; DevMem then needs a
        // more GEMM-dominated mix to win — exactly the paper's trend
        // (34.31 % at 2 GB/s vs 4.27 % at 64 GB/s ... as thresholds on
        // W_GEMM these *decrease* with bandwidth because the crossover
        // w_non_gemm grows smaller).
        let slow = model();
        let mut fast = model();
        fast.pcie.gemm_ns = 650.0; // 64 GB/s-style host GEMM
        let w_slow = slow.crossover_non_gemm_fraction().unwrap();
        let w_fast = fast.crossover_non_gemm_fraction().unwrap();
        assert!(w_fast < w_slow);
    }

    #[test]
    fn no_crossover_when_one_system_dominates() {
        let mut m = model();
        m.devmem = PhaseTimes {
            gemm_ns: 100.0,
            non_gemm_ns: 100.0,
        };
        assert!(m.crossover_non_gemm_fraction().is_none());
    }

    #[test]
    fn sweep_covers_unit_interval() {
        let s = model().sweep(11);
        assert_eq!(s.len(), 11);
        assert_eq!(s[0].0, 0.0);
        assert_eq!(s[10].0, 1.0);
        // PCIe curve is monotone here (its Non-GEMM is cheaper).
        assert!(s.windows(2).all(|w| w[1].1 <= w[0].1));
        // DevMem curve is increasing (its Non-GEMM is dear).
        assert!(s.windows(2).all(|w| w[1].2 >= w[0].2));
    }

    #[test]
    fn roofline_knee_detection() {
        // Plateau at 1000 ns until compute > 1500 ns, then linear.
        let pts: Vec<RooflinePoint> = (1..=10)
            .map(|i| {
                let c = i as f64 * 500.0;
                RooflinePoint {
                    compute_ns: c,
                    exec_ns: 1000f64.max(c * 0.9),
                }
            })
            .collect();
        let knee = roofline_knee(&pts, 0.05).unwrap();
        assert_eq!(knee, 1500.0);
        assert!(roofline_knee(&[], 0.05).is_none());
    }

    #[test]
    #[should_panic(expected = "fraction out of range")]
    fn out_of_range_fraction_panics() {
        model().total_ns(1.5, false);
    }
}
