//! Log-bucketed latency histograms for per-module distribution stats.

/// A power-of-two-bucketed histogram of non-negative samples.
///
/// Buckets cover `[2^i, 2^(i+1))`; bucket 0 additionally holds samples in
/// `[0, 1)`, and the top bucket (63) is unbounded above, absorbing every
/// sample ≥ 2^63. Designed for latency distributions where the interesting
/// questions are "what is the p99?" and "how long is the tail?", not the
/// exact shape. Observation is O(1) and the footprint is fixed, so every
/// module can afford one per traffic class.
///
/// ```
/// use accesys_sim::Histogram;
///
/// let mut h = Histogram::new();
/// for ns in [10.0, 12.0, 11.0, 900.0] {
///     h.observe(ns);
/// }
/// assert_eq!(h.count(), 4);
/// assert!(h.mean() > 200.0);
/// // Three of four samples land at or below 16, so p50 is in that bucket.
/// assert!(h.percentile(50.0) <= 16.0);
/// assert!(h.percentile(100.0) >= 512.0);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    buckets: [u64; Self::NUM_BUCKETS],
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Number of buckets. Bucket `i` covers `[2^i, 2^(i+1))` except at
    /// the edges: bucket 0 also holds `[0, 1)`, and the top bucket (63)
    /// is unbounded — it absorbs everything ≥ 2^63.
    const NUM_BUCKETS: usize = 64;

    /// Index of the unbounded top bucket.
    const TOP_BUCKET: usize = Self::NUM_BUCKETS - 1;

    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: [0; Self::NUM_BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// `floor(log2(value))`, clamped to the buckets. Away from powers of
    /// two that is the exponent field of the `f64`, read without a libm
    /// call. Within 2^12 ulps of a power of two a rounded `log2` may land
    /// on the neighbouring integer, so there the bucket is
    /// `log2().floor()` itself; an exact power of two has an exact
    /// `log2`, its exponent.
    fn bucket_of(value: f64) -> usize {
        const MANTISSA: u64 = (1 << 52) - 1;
        const NEAR: u64 = 1 << 12;
        // NaN goes to bucket 0, as `log2(NaN) as usize` does.
        if value.is_nan() || value < 1.0 {
            return 0;
        }
        let bits = value.to_bits();
        let mantissa = bits & MANTISSA;
        let exp = if (1..NEAR).contains(&mantissa) || mantissa > MANTISSA - NEAR {
            value.log2().floor() as usize
        } else {
            (bits >> 52) as usize - 1023
        };
        // Values ≥ 2^63 clamp into the unbounded top bucket.
        exp.min(Self::TOP_BUCKET)
    }

    /// Record one sample. Negative samples are clamped to zero.
    pub fn observe(&mut self, value: f64) {
        let v = value.max(0.0);
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest sample, or 0 when empty.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample, or 0 when empty.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Upper bound of the bucket containing the `p`-th percentile
    /// (0 < p ≤ 100), or 0 when empty.
    ///
    /// The result is an upper bound, not an interpolation: a return of 16
    /// means "the p-th sample was < 16". Bucket resolution is a factor of
    /// two, which is plenty for latency triage. The top bucket has no
    /// finite bucket boundary (it absorbs everything ≥ 2^63), so a rank
    /// landing there reports the exact observed maximum instead.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let p = p.clamp(0.0, 100.0);
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return if i == Self::TOP_BUCKET {
                    // Unbounded bucket: 2^64 would be a lie and 2^63 is
                    // its *lower* bound; the true max is a real bound.
                    self.max
                } else {
                    (1u64 << (i + 1)) as f64
                };
            }
        }
        self.max
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// Append `mean/min/max/p50/p99` under `prefix` to a stats report.
    pub fn report_into(&self, out: &mut crate::Stats, prefix: &str) {
        if self.count == 0 {
            return;
        }
        out.set(&format!("{prefix}_mean"), self.mean());
        out.set(&format!("{prefix}_min"), self.min());
        out.set(&format!("{prefix}_max"), self.max());
        out.set(&format!("{prefix}_p50"), self.percentile(50.0));
        out.set(&format!("{prefix}_p99"), self.percentile(99.0));
        out.set(&format!("{prefix}_count"), self.count as f64);
    }

    /// Non-empty buckets as `(bucket index, count)` — the raw transport
    /// form for shipping a histogram across a process boundary; invert
    /// with [`Histogram::from_raw`]. Unlike [`Histogram::iter`] the
    /// index is exact (no float lower bound), so the round trip loses
    /// nothing.
    pub fn raw_buckets(&self) -> Vec<(u32, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (i as u32, n))
            .collect()
    }

    /// Rebuild a histogram from [`Histogram::raw_buckets`] output plus
    /// the exact `sum`/`min`/`max` (the count is implied: every sample
    /// lands in exactly one bucket). Out-of-range indexes clamp into
    /// the unbounded top bucket; an empty bucket list yields
    /// [`Histogram::new`] regardless of the scalar arguments, so the
    /// empty case round-trips without shipping infinities.
    pub fn from_raw(buckets: &[(u32, u64)], sum: f64, min: f64, max: f64) -> Histogram {
        let mut h = Histogram::new();
        for &(i, n) in buckets {
            h.buckets[(i as usize).min(Self::TOP_BUCKET)] += n;
            h.count += n;
        }
        if h.count > 0 {
            h.sum = sum;
            h.min = min;
            h.max = max;
        }
        h
    }

    /// Iterate over non-empty buckets as `(lower_bound, count)`.
    ///
    /// Lower bounds are exact for every bucket, including the top one
    /// (2^63) — but note the top bucket is unbounded above, so its count
    /// covers `[2^63, ∞)` rather than a power-of-two span.
    pub fn iter(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| {
                let lo = if i == 0 { 0.0 } else { (1u64 << i) as f64 };
                (lo, n)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
        assert_eq!(h.percentile(50.0), 0.0);
        assert_eq!(h.iter().count(), 0);
    }

    #[test]
    fn mean_min_max_are_exact() {
        let mut h = Histogram::new();
        for v in [1.0, 2.0, 3.0, 4.0] {
            h.observe(v);
        }
        assert_eq!(h.mean(), 2.5);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 4.0);
        assert_eq!(h.sum(), 10.0);
    }

    #[test]
    fn percentile_is_an_upper_bound() {
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.observe(10.0); // bucket [8,16)
        }
        h.observe(1000.0); // bucket [512,1024)
        assert_eq!(h.percentile(50.0), 16.0);
        assert_eq!(h.percentile(99.0), 16.0);
        assert_eq!(h.percentile(100.0), 1024.0);
    }

    #[test]
    fn negative_samples_clamp_to_zero() {
        let mut h = Histogram::new();
        h.observe(-5.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn sub_unit_samples_land_in_bucket_zero() {
        let mut h = Histogram::new();
        h.observe(0.25);
        h.observe(0.75);
        let buckets: Vec<_> = h.iter().collect();
        assert_eq!(buckets, vec![(0.0, 2)]);
    }

    #[test]
    fn merge_combines_counts_and_extremes() {
        let mut a = Histogram::new();
        a.observe(4.0);
        let mut b = Histogram::new();
        b.observe(100.0);
        b.observe(1.0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.min(), 1.0);
        assert_eq!(a.max(), 100.0);
    }

    #[test]
    fn report_into_emits_summary_keys() {
        let mut h = Histogram::new();
        h.observe(8.0);
        let mut s = crate::Stats::new();
        h.report_into(&mut s, "lat_ns");
        assert_eq!(s.get("lat_ns_count"), Some(1.0));
        assert_eq!(s.get("lat_ns_mean"), Some(8.0));
        assert!(s.get("lat_ns_p99").is_some());
    }

    #[test]
    fn huge_samples_saturate_the_top_bucket() {
        let mut h = Histogram::new();
        h.observe(f64::MAX);
        assert_eq!(h.count(), 1);
        assert!(h.percentile(100.0) > 0.0);
    }

    #[test]
    fn raw_round_trip_is_exact() {
        let mut h = Histogram::new();
        for v in [0.25, 3.0, 10.0, 10.0, 1e18, f64::MAX] {
            h.observe(v);
        }
        let back = Histogram::from_raw(&h.raw_buckets(), h.sum(), h.min(), h.max());
        assert_eq!(back, h);

        // Empty histograms round-trip through the zeroed accessors
        // (min()/max() report 0 when empty) without picking up fake
        // extremes.
        let empty = Histogram::new();
        let back = Histogram::from_raw(&empty.raw_buckets(), empty.sum(), empty.min(), empty.max());
        assert_eq!(back, empty);
    }

    #[test]
    fn from_raw_clamps_wild_indexes_into_the_top_bucket() {
        let h = Histogram::from_raw(&[(901, 2)], 4.0e19, 2.0e19, 2.0e19);
        assert_eq!(h.count(), 2);
        assert_eq!(h.iter().collect::<Vec<_>>(), vec![((1u64 << 63) as f64, 2)]);
    }

    #[test]
    fn bucket_of_is_the_clamped_floor_of_log2() {
        let want = |v: f64| -> usize {
            if v < 1.0 {
                0
            } else {
                (v.log2().floor() as usize).min(Histogram::TOP_BUCKET)
            }
        };
        let check = |v: f64| {
            assert_eq!(
                Histogram::bucket_of(v),
                want(v),
                "{v:e} ({:#x})",
                v.to_bits()
            )
        };
        // Every 2^k ± 0..5000 ulps: where a rounded log2 can cross an
        // integer.
        for k in 0..=63 {
            let edge = 2f64.powi(k).to_bits();
            for ulps in 0..5000 {
                check(f64::from_bits(edge + ulps));
                check(f64::from_bits(edge - ulps));
            }
        }
        for v in [
            f64::MAX,
            f64::INFINITY,
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            5e-324,
            1e-310,
        ] {
            check(v);
        }
        // Random finite values: every other one over the whole exponent
        // range, the rest in [1, 2^64), the finite buckets' own range.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut finite = 0;
        while finite < 100_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let v = if finite % 2 == 0 {
                f64::from_bits(state >> 1)
            } else {
                f64::from_bits((1023 + (state >> 58)) << 52 | state & ((1 << 52) - 1))
            };
            if v.is_finite() {
                check(v);
                finite += 1;
            }
        }
    }

    #[test]
    fn top_bucket_agrees_across_bucket_of_percentile_and_iter() {
        // Regression: samples ≥ 2^63 land in the unbounded top bucket;
        // percentile must not report the bucket's lower bound (2^63) as
        // an upper bound for them.
        let two63 = (1u64 << 63) as f64;
        let mut h = Histogram::new();
        for _ in 0..3 {
            h.observe(10.0); // bucket [8, 16)
        }
        h.observe(two63);
        h.observe(two63 * 4.0);
        h.observe(f64::MAX);
        // Ranks inside finite buckets still report bucket upper bounds.
        assert_eq!(h.percentile(50.0), 16.0);
        // Ranks in the top bucket report the observed max, which really
        // does bound every sample — 2^63 would not.
        assert_eq!(h.percentile(100.0), f64::MAX);
        assert!(h.percentile(100.0) >= two63 * 4.0);
        // iter reports the top bucket's exact lower bound with all three
        // huge samples counted in it.
        let buckets: Vec<_> = h.iter().collect();
        assert_eq!(buckets, vec![(8.0, 3), (two63, 3)]);
    }
}
