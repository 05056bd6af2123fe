//! The benchmark's own seeded draws: splitmix64, so the inputs depend on
//! nothing but `--seed` and this file — not on `vendor/rand` or
//! `crates/bench`, which a later PR may edit.

/// A splitmix64 stream.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GOLDEN);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A draw in `0..bound` (`bound > 0`). The modulo bias is below
    /// 2⁻⁴⁰ for every bound the benchmark uses.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// A draw in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// An independent stream for sub-input `index` of this seed: pass
    /// `p` of seed `s` shares nothing with pass `p` of seed `s + 1`.
    pub fn fork(&self, index: u64) -> SplitMix64 {
        let mut mixer = SplitMix64(self.0 ^ index.wrapping_mul(GOLDEN).rotate_left(17));
        SplitMix64(mixer.next_u64())
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_vector() {
        // The published splitmix64 outputs for seed 0.
        let mut rng = SplitMix64::new(0);
        assert_eq!(rng.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(rng.next_u64(), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn forks_are_replayable_and_distinct() {
        let root = SplitMix64::new(7);
        assert_eq!(root.fork(3).next_u64(), root.fork(3).next_u64());
        assert_ne!(root.fork(3).next_u64(), root.fork(4).next_u64());
        assert_ne!(
            root.fork(3).next_u64(),
            SplitMix64::new(8).fork(3).next_u64()
        );
    }

    #[test]
    fn range_stays_inside() {
        let mut rng = SplitMix64::new(1);
        for _ in 0..1000 {
            assert!((3..=9).contains(&rng.range(3, 9)));
        }
    }
}
