//! Open-loop arrival processes: deterministic, seeded request traffic.
//!
//! Everything the rest of the repo runs is closed-loop — a fixed graph
//! dispatched to completion. Serving questions start from an *arrival
//! process*: requests show up on their own clock, whether the system is
//! keeping up or not. This module generates those arrivals ahead of the
//! simulation as a plain sorted `Vec<Arrival>`, which keeps the engine
//! simple and makes determinism trivial to state: the same
//! [`ArrivalSpec`] and horizon always produce the same trace, byte for
//! byte (the PRNG is the vendored splitmix64 `StdRng`, seeded
//! explicitly; no wall clock, no OS entropy).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One request arrival: when it enters the system and which tenant it
/// belongs to. Times are virtual nanoseconds on the serving clock
/// (which tiles the simulation's kernel clock across batching rounds).
#[derive(Copy, Clone, Debug, PartialEq, Eq, serde::Serialize)]
pub struct Arrival {
    /// Arrival time in virtual nanoseconds.
    pub at_ns: u64,
    /// Tenant index (dense from 0; policies key on it).
    pub tenant: u32,
}

/// A generator of open-loop request traffic. Construct one, then call
/// [`ArrivalSpec::generate`] with a horizon to materialize the trace.
///
/// ```
/// use accesys_serve::arrivals::ArrivalSpec;
///
/// // ~2000 requests/s of Poisson traffic over 10 ms, two tenants.
/// let spec = ArrivalSpec::poisson(2000.0, 2, 42);
/// let a = spec.generate(10_000_000);
/// let b = spec.generate(10_000_000);
/// assert_eq!(a, b, "same seed, same trace");
/// assert!(a.windows(2).all(|w| w[0].at_ns <= w[1].at_ns), "sorted");
/// assert!(a.iter().all(|x| x.tenant < 2));
/// ```
#[derive(Clone, Debug)]
pub enum ArrivalSpec {
    /// Memoryless traffic: exponential inter-arrival gaps at a fixed
    /// mean rate, tenants drawn uniformly.
    Poisson {
        /// Mean arrival rate, requests per (virtual) second.
        rps: f64,
        /// Number of tenants to draw from (uniform).
        tenants: u32,
        /// PRNG seed; the whole trace is a function of it.
        seed: u64,
    },
    /// Bursty traffic: a two-state Markov-modulated Poisson process.
    /// The generator alternates calm and burst phases; each phase's
    /// arrivals are Poisson at that phase's rate, and after every
    /// arrival the phase flips with probability `1 / mean_phase_len`
    /// (geometric phase lengths, in arrivals).
    Bursty {
        /// Arrival rate in the calm phase, requests per second.
        calm_rps: f64,
        /// Arrival rate in the burst phase, requests per second.
        burst_rps: f64,
        /// Mean phase length in arrivals (≥ 1; both phases).
        mean_phase_len: u32,
        /// Number of tenants to draw from (uniform).
        tenants: u32,
        /// PRNG seed.
        seed: u64,
    },
    /// Replay a recorded trace verbatim; arrivals past the horizon are
    /// dropped at generation. Specs give one with `traffic.process =
    /// "trace"`, whose loader rejects unsorted times and tenant ids at
    /// or past [`crate::MAX_TENANTS`].
    Trace(
        /// The arrivals to replay (sorted by [`Arrival::at_ns`]).
        Vec<Arrival>,
    ),
}

impl ArrivalSpec {
    /// Poisson traffic at `rps` requests per second over `tenants`
    /// tenants, from `seed`.
    pub fn poisson(rps: f64, tenants: u32, seed: u64) -> ArrivalSpec {
        ArrivalSpec::Poisson { rps, tenants, seed }
    }

    /// Bursty (two-state MMPP) traffic from `seed`.
    pub fn bursty(
        calm_rps: f64,
        burst_rps: f64,
        mean_phase_len: u32,
        tenants: u32,
        seed: u64,
    ) -> ArrivalSpec {
        ArrivalSpec::Bursty {
            calm_rps,
            burst_rps,
            mean_phase_len,
            tenants,
            seed,
        }
    }

    /// Materialize the arrival trace on `[0, horizon_ns)`. Deterministic:
    /// the same spec and horizon always return the same vector.
    pub fn generate(&self, horizon_ns: u64) -> Vec<Arrival> {
        match self {
            ArrivalSpec::Poisson { rps, tenants, seed } => {
                let mut rng = StdRng::seed_from_u64(*seed);
                let mut out = Vec::new();
                let mut t_ns = 0.0f64;
                loop {
                    t_ns += exp_gap_ns(&mut rng, *rps);
                    if t_ns >= horizon_ns as f64 {
                        return out;
                    }
                    out.push(Arrival {
                        at_ns: t_ns as u64,
                        tenant: draw_tenant(&mut rng, *tenants),
                    });
                }
            }
            ArrivalSpec::Bursty {
                calm_rps,
                burst_rps,
                mean_phase_len,
                tenants,
                seed,
            } => {
                let mut rng = StdRng::seed_from_u64(*seed);
                let mut out = Vec::new();
                let mut t_ns = 0.0f64;
                let mut bursting = false;
                let flip = 1.0 / f64::from((*mean_phase_len).max(1));
                loop {
                    let rate = if bursting { *burst_rps } else { *calm_rps };
                    t_ns += exp_gap_ns(&mut rng, rate);
                    if t_ns >= horizon_ns as f64 {
                        return out;
                    }
                    out.push(Arrival {
                        at_ns: t_ns as u64,
                        tenant: draw_tenant(&mut rng, *tenants),
                    });
                    if rng.gen_range(0.0f64..1.0) < flip {
                        bursting = !bursting;
                    }
                }
            }
            ArrivalSpec::Trace(arrivals) => arrivals
                .iter()
                .copied()
                .filter(|a| a.at_ns < horizon_ns)
                .collect(),
        }
    }
}

/// One exponential inter-arrival gap at `rps` requests/second, in ns.
/// A non-positive rate means "no more arrivals": the gap is pushed past
/// any horizon.
fn exp_gap_ns(rng: &mut StdRng, rps: f64) -> f64 {
    if rps <= 0.0 {
        return f64::INFINITY;
    }
    // Uniform in (0, 1]: ln stays finite.
    let u: f64 = 1.0 - rng.gen_range(0.0f64..1.0);
    -u.ln() * (1e9 / rps)
}

fn draw_tenant(rng: &mut StdRng, tenants: u32) -> u32 {
    match tenants {
        0 | 1 => 0,
        n => rng.gen_range(0..n),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_rate_is_roughly_honoured() {
        // 10k req/s over 100 ms ⇒ ~1000 arrivals; the splitmix stream
        // should land well within ±20%.
        let n = ArrivalSpec::poisson(10_000.0, 1, 7)
            .generate(100_000_000)
            .len();
        assert!((800..1200).contains(&n), "got {n} arrivals");
    }

    #[test]
    fn poisson_is_sorted_and_bounded_by_the_horizon() {
        let a = ArrivalSpec::poisson(5000.0, 3, 11).generate(20_000_000);
        assert!(a.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
        assert!(a.iter().all(|x| x.at_ns < 20_000_000));
        assert!(a.iter().all(|x| x.tenant < 3));
    }

    #[test]
    fn zero_rate_generates_nothing() {
        assert!(ArrivalSpec::poisson(0.0, 1, 1).generate(1 << 30).is_empty());
    }

    #[test]
    fn bursty_bursts_are_denser_than_calm() {
        // With a 100x rate ratio the minimum observed gap must be far
        // below the calm mean gap — bursts really are bursts.
        let a = ArrivalSpec::bursty(1000.0, 100_000.0, 20, 1, 3).generate(50_000_000);
        assert!(a.len() > 100, "got {}", a.len());
        let min_gap = a.windows(2).map(|w| w[1].at_ns - w[0].at_ns).min().unwrap();
        assert!(min_gap < 100_000, "min gap {min_gap} ns is not bursty");
    }

    #[test]
    fn different_seeds_differ() {
        let a = ArrivalSpec::poisson(5000.0, 1, 1).generate(10_000_000);
        let b = ArrivalSpec::poisson(5000.0, 1, 2).generate(10_000_000);
        assert_ne!(a, b);
    }

    #[test]
    fn trace_replay_clips_at_the_horizon() {
        let spec = ArrivalSpec::Trace(vec![
            Arrival {
                at_ns: 900,
                tenant: 0,
            },
            Arrival {
                at_ns: 100,
                tenant: 1,
            },
            Arrival {
                at_ns: 5000,
                tenant: 0,
            },
        ]);
        // Trace is replayed as given (the spec loader rejects unsorted
        // times); only the horizon clip applies here.
        let a = spec.generate(1000);
        assert_eq!(a.len(), 2);
    }
}
