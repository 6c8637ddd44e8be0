//! Small deterministic random number generators.
//!
//! Two generators are provided:
//!
//! * [`SplitMix64`] — a stateless-friendly mixer, used both as a seeder and
//!   as the *counter-based* generator behind [`crate::dropout`]. Counter-based
//!   generation (hash of `(seed, index)`) is the same trick Philox-based GPU
//!   dropout kernels use: the mask for element `i` is a pure function of the
//!   seed and `i`, so fused and unfused kernels that touch elements in
//!   different orders still agree exactly.
//! * [`Pcg32`] — a small-state sequential generator for weight initialization
//!   and workload sampling.

/// SplitMix64 generator / mixing function.
///
/// The `mix` associated function is the core primitive: a bijective avalanche
/// mix of a 64-bit word. Sequential use advances an internal counter by the
/// golden-ratio increment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Golden-ratio increment used by the sequential interface.
    pub const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

    /// Creates a generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Applies the SplitMix64 finalizer to a single word.
    ///
    /// This is a bijection on `u64` with strong avalanche behaviour, suitable
    /// for counter-based generation: `mix(seed ^ counter_stream)`.
    #[inline]
    pub fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(Self::GOLDEN_GAMMA);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Returns the next 64-bit output and advances the state.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(Self::GOLDEN_GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Odd multiplier that decorrelates the counter stream from the seed
    /// before mixing.
    pub const COUNTER_MIX: u64 = 0xD6E8_FEB8_6659_FD93;

    /// The hashed 64-bit word behind [`Self::uniform_at`].
    #[inline]
    pub fn counter_word(seed: u64, counter: u64) -> u64 {
        Self::mix(seed ^ counter.wrapping_mul(Self::COUNTER_MIX))
    }

    /// Returns a uniform `f64` in `[0, 1)` derived from a counter value.
    ///
    /// This is the counter-based (stateless) interface: the result depends
    /// only on `(seed, counter)`.
    #[inline]
    pub fn uniform_at(seed: u64, counter: u64) -> f64 {
        // Use the top 53 bits for a uniform double in [0, 1).
        (Self::counter_word(seed, counter) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// PCG-XSH-RR 32-bit generator (64-bit state).
///
/// Used for weight initialization and workload sampling where a sequential
/// stream is the natural interface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pcg32 {
    state: u64,
    inc: u64,
}

impl Pcg32 {
    const MULTIPLIER: u64 = 6_364_136_223_846_793_005;

    /// Creates a generator from a seed and stream identifier.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Self {
            state: 0,
            inc: (stream << 1) | 1,
        };
        rng.state = rng
            .state
            .wrapping_mul(Self::MULTIPLIER)
            .wrapping_add(rng.inc);
        rng.state = rng.state.wrapping_add(seed);
        rng.state = rng
            .state
            .wrapping_mul(Self::MULTIPLIER)
            .wrapping_add(rng.inc);
        rng
    }

    /// Creates a generator on the default stream.
    pub fn seeded(seed: u64) -> Self {
        Self::new(seed, 0x5851_F42D_4C95_7F2D)
    }

    /// Returns the next 32 random bits.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        let old = self.state;
        self.state = old.wrapping_mul(Self::MULTIPLIER).wrapping_add(self.inc);
        Self::output(old)
    }

    /// Returns a uniform `f32` in `[0, 1)`.
    #[inline]
    pub fn next_f32(&mut self) -> f32 {
        Self::unit_f32(self.next_u32())
    }

    /// Fills `out` with `map(self.next_f32())` for consecutive draws —
    /// the same values, in the same order, as the sequential loop — and
    /// leaves the generator in the state that loop would.
    ///
    /// The draws run on [`Self::FILL_LANES`] independent lanes: lane `j`
    /// starts at state `s_j` and jumps ahead with
    /// `s_{n+L} = M^L * s_n + C_L` (`M^L` and
    /// `C_L = inc * (1 + M + … + M^(L-1))` in wrapping arithmetic), so the
    /// lanes carry no dependency on each other and the loop vectorizes; a
    /// sequential tail covers the last `len % L` draws.
    pub fn fill_f32(&mut self, out: &mut [f32], map: impl Fn(f32) -> f32) {
        const L: usize = Pcg32::FILL_LANES;
        let (mut mul, mut add) = (1u64, 0u64);
        for _ in 0..L {
            add = add.wrapping_mul(Self::MULTIPLIER).wrapping_add(self.inc);
            mul = mul.wrapping_mul(Self::MULTIPLIER);
        }
        let mut lanes = [self.state; L];
        for j in 1..L {
            lanes[j] = lanes[j - 1]
                .wrapping_mul(Self::MULTIPLIER)
                .wrapping_add(self.inc);
        }
        let mut chunks = out.chunks_exact_mut(L);
        for chunk in &mut chunks {
            for (v, s) in chunk.iter_mut().zip(lanes.iter_mut()) {
                *v = map(Self::unit_f32(Self::output(*s)));
                *s = s.wrapping_mul(mul).wrapping_add(add);
            }
        }
        // Lane 0 now holds the state of the first draw not yet taken.
        self.state = lanes[0];
        for v in chunks.into_remainder() {
            *v = map(self.next_f32());
        }
    }

    /// Independent lanes of [`Self::fill_f32`].
    pub const FILL_LANES: usize = 8;

    /// The PCG-XSH-RR output permutation of one state.
    #[inline]
    fn output(old: u64) -> u32 {
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }

    /// The top 24 bits of a draw as a uniform `f32` in `[0, 1)`.
    #[inline]
    fn unit_f32(bits: u32) -> f32 {
        (bits >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }

    /// Returns a uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        let hi = (self.next_u32() as u64) << 21;
        let lo = (self.next_u32() as u64) >> 11;
        (hi | lo) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform integer in `[0, bound)` without modulo bias.
    pub fn next_bounded(&mut self, bound: u32) -> u32 {
        assert!(bound > 0, "bound must be positive");
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let r = self.next_u32();
            if r >= threshold {
                return r % bound;
            }
        }
    }

    /// Returns a standard normal sample via Box-Muller.
    pub fn next_gaussian(&mut self) -> f64 {
        // Avoid log(0) by nudging u1 away from zero.
        let u1 = self.next_f64().max(1e-300);
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * core::f64::consts::PI * u2).cos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn splitmix_counter_interface_is_order_independent() {
        let forward: Vec<f64> = (0..64).map(|i| SplitMix64::uniform_at(7, i)).collect();
        let mut backward: Vec<f64> = (0..64)
            .rev()
            .map(|i| SplitMix64::uniform_at(7, i))
            .collect();
        backward.reverse();
        assert_eq!(forward, backward);
    }

    #[test]
    fn splitmix_uniform_in_unit_interval() {
        for i in 0..10_000 {
            let u = SplitMix64::uniform_at(123, i);
            assert!((0.0..1.0).contains(&u), "sample {u} out of range");
        }
    }

    #[test]
    fn pcg_streams_differ() {
        let mut a = Pcg32::new(1, 1);
        let mut b = Pcg32::new(1, 2);
        let same = (0..32).filter(|_| a.next_u32() == b.next_u32()).count();
        assert!(same < 4, "independent streams should rarely collide");
    }

    /// The laned fill must reproduce the sequential stream bit for bit
    /// and leave the generator exactly where the sequential loop would.
    #[test]
    fn fill_f32_matches_the_sequential_stream() {
        let map = |u: f32| (u * 2.0 - 1.0) * 0.75;
        let lens = (0..=17).chain([12_800 * 256]);
        for (i, len) in lens.enumerate() {
            let mut seq = Pcg32::new(31 + i as u64, 7 + i as u64);
            let mut laned = seq.clone();
            let want: Vec<f32> = (0..len).map(|_| map(seq.next_f32())).collect();
            let mut got = vec![f32::NAN; len];
            laned.fill_f32(&mut got, map);
            assert!(
                want.iter()
                    .zip(&got)
                    .all(|(w, g)| w.to_bits() == g.to_bits()),
                "len {len}: laned fill diverged from the sequential stream"
            );
            assert_eq!(laned, seq, "len {len}: generator state differs");
            assert_eq!(laned.next_u32(), seq.next_u32(), "len {len}: next draw");
        }
    }

    #[test]
    fn pcg_bounded_respects_bound() {
        let mut rng = Pcg32::seeded(99);
        for _ in 0..10_000 {
            assert!(rng.next_bounded(17) < 17);
        }
    }

    #[test]
    fn pcg_mean_is_roughly_half() {
        let mut rng = Pcg32::seeded(5);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} too far from 0.5");
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = Pcg32::seeded(11);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.next_gaussian()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "gaussian mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "gaussian variance {var}");
    }
}
