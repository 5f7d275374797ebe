//! The benchmark's own seeded generator and output hash.
//!
//! Inputs are made here from `--seed` and handed to the program as plain
//! frames, programs and configs; nothing in `crates/*` is asked for
//! randomness on the benchmark's behalf, so a change to the vendored `rand`
//! cannot move the inputs.

/// `SplitMix64`: small, fast, and good enough to shuffle a few thousand items.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, separated per use by `stream` so two generators
    /// fed the same seed do not walk the same sequence.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` > 0). The modulo bias is below 2^-40 for the
    /// sizes used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Incremental FNV-1a, the `output_digest` of the workloads that forward
/// bytes (the simulator workloads print `NetStats::digest` instead).
#[derive(Clone, Copy, Debug)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_be_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_different_seed_different_order() {
        let draw = |seed| {
            let mut r = Rng::new(seed, 1);
            let mut v: Vec<u32> = (0..64).collect();
            r.shuffle(&mut v);
            v
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let mut sorted = draw(7);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<u32>>());
    }

    #[test]
    fn fnv_matches_reference_vector() {
        let mut h = Fnv::default();
        h.write(b"a");
        assert_eq!(h.0, 0xAF63_DC4C_8601_EC8C);
    }
}
