//! The benchmark's own seeded generator and input digest.
//!
//! Arrival times, class draws and depth draws come from here, so the
//! request stream for a `--seed` does not change when the repo's own
//! `Rng` (which training depends on) does.

/// SplitMix64: one `u64` of state, full period, good enough mixing for
/// load generation.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// A generator for one named stream of `seed` (a workload's block),
    /// so streams do not overlap.
    pub fn stream(seed: u64, name: &str, index: u64) -> Self {
        let mut digest = Digest::new();
        digest.write_u64(seed);
        digest.write_bytes(name.as_bytes());
        digest.write_u64(index);
        Self(digest.finish())
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty range");
        (self.unit() * n as f64) as usize
    }

    /// An exponential gap with the given mean (Poisson arrivals).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// FNV-1a over 64 bits: the `input_digest` of a generated load.
#[derive(Debug, Clone)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self::new()
    }
}

impl Digest {
    /// The empty digest.
    pub fn new() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }

    /// Folds raw bytes in.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Folds one `u64` in.
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Folds one `f64` in, bit for bit.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_and_differ() {
        let draw = |seed, name, index| SplitMix64::stream(seed, name, index).next_u64();
        assert_eq!(draw(7, "a", 0), draw(7, "a", 0));
        assert_ne!(draw(7, "a", 0), draw(8, "a", 0));
        assert_ne!(draw(7, "a", 0), draw(7, "b", 0));
        assert_ne!(draw(7, "a", 0), draw(7, "a", 1));
    }

    #[test]
    fn unit_stays_in_range_and_below_covers_it() {
        let mut rng = SplitMix64::new(1);
        let mut seen = [false; 5];
        for _ in 0..1000 {
            let u = rng.unit();
            assert!((0.0..1.0).contains(&u));
            seen[rng.below(5)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn shuffle_keeps_the_multiset() {
        let mut items: Vec<u32> = (0..100).collect();
        SplitMix64::new(3).shuffle(&mut items);
        assert_ne!(items, (0..100).collect::<Vec<_>>());
        items.sort_unstable();
        assert_eq!(items, (0..100).collect::<Vec<_>>());
    }
}
