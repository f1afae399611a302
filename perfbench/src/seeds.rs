//! Seed derivation: every input of a run is a pure function of the
//! `--seed` argument.

/// SplitMix64: a tiny, well-mixed generator for deriving seeds and
/// permutations.
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator starting from `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// The next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// The seed of instance `index` of a run seeded with `seed`.
pub fn instance_seed(seed: u64, index: usize) -> u64 {
    let mut rng = SplitMix::new(seed ^ (index as u64).wrapping_mul(0xd6e8_feb8_6659_fd93));
    rng.next_u64()
}

/// Fisher–Yates shuffle driven by `rng`.
pub fn shuffle<T>(items: &mut [T], rng: &mut SplitMix) {
    for i in (1..items.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}
