//! What the golden suites share: their one source of randomness and the
//! hash their recorded constants are taken with.

/// splitmix64 — a golden run's only randomness.
pub struct Rng(pub u64);

impl Rng {
    /// The next 64 pseudo-random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// The 64-bit FNV-1a offset basis: the hash of nothing.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `value`'s little-endian bytes into the FNV-1a `hash`.
pub fn fnv1a(hash: &mut u64, value: u64) {
    for byte in value.to_le_bytes() {
        *hash ^= byte as u64;
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}
