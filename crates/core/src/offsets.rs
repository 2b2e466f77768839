//! The member bitmap of Algorithm 2: a set of offsets within one
//! 256-LPA group, four words whatever its shape.
//!
//! A group's kernels ([`crate::group`]'s merge and sweep, the
//! [`crate::crb`]'s run dedup) build, subtract and walk these a word at
//! a time — a stride grid is one 64-bit period shifted into place per
//! word, the ascending walk a `trailing_zeros` per member.

/// A set of group offsets — the member bitmap of Algorithm 2.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct OffsetSet([u64; 4]);

impl OffsetSet {
    pub(crate) fn from_members(members: &[u8]) -> Self {
        let mut set = OffsetSet::default();
        for &m in members {
            set.insert(m);
        }
        set
    }

    /// The stride grid `first, first + stride, … ≤ last`, a word at a
    /// time: one 64-bit period of the grid, shifted to where the grid
    /// enters each word.
    pub(crate) fn strided(first: u8, last: u8, stride: u32) -> Self {
        assert!(stride > 0, "a stride grid needs a positive stride");
        let period = GRID_PERIODS.get(stride as usize).copied().unwrap_or(1);
        let (first_word, last_word) = ((first >> 6) as usize, (last >> 6) as usize);
        let mut set = OffsetSet::default();
        // Where the grid's next offset lies, counted from the word's base.
        let mut enters = (first & 63) as u32;
        for word in first_word..=last_word {
            if enters >= 64 {
                enters -= 64;
                continue;
            }
            let grid = period << enters;
            set.0[word] = grid;
            if word < last_word {
                enters = enters + grid.count_ones() * stride - 64;
            }
        }
        set.0[last_word] &= u64::MAX >> (63 - (last & 63));
        set
    }

    pub(crate) fn insert(&mut self, offset: u8) {
        self.0[(offset >> 6) as usize] |= 1u64 << (offset & 63);
    }

    pub(crate) fn contains(&self, offset: u8) -> bool {
        self.0[(offset >> 6) as usize] >> (offset & 63) & 1 == 1
    }

    pub(crate) fn intersects(&self, other: &OffsetSet) -> bool {
        let [a, b, c, d] = self.0;
        let [e, f, g, h] = other.0;
        (a & e) | (b & f) | (c & g) | (d & h) != 0
    }

    pub(crate) fn union_with(&mut self, other: &OffsetSet) {
        for (a, b) in self.0.iter_mut().zip(other.0.iter()) {
            *a |= b;
        }
    }

    /// The offsets of `self` that are not in `other`.
    pub(crate) fn without(&self, other: &OffsetSet) -> OffsetSet {
        let mut rest = *self;
        for (a, b) in rest.0.iter_mut().zip(other.0.iter()) {
            *a &= !b;
        }
        rest
    }

    /// Smallest and largest offset, `None` when the set is empty.
    pub(crate) fn span(&self) -> Option<(u8, u8)> {
        let low = self.0.iter().position(|&w| w != 0)?;
        let high = self.0.iter().rposition(|&w| w != 0)?;
        Some((
            (low * 64) as u8 + self.0[low].trailing_zeros() as u8,
            (high * 64) as u8 + 63 - self.0[high].leading_zeros() as u8,
        ))
    }

    /// The offsets in ascending order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = u8> {
        let mut words = self.0;
        let mut word = 0;
        std::iter::from_fn(move || {
            while word < 4 && words[word] == 0 {
                word += 1;
            }
            let bits = words.get_mut(word)?;
            let bit = bits.trailing_zeros();
            *bits &= *bits - 1;
            Some((word * 64) as u8 + bit as u8)
        })
    }
}

/// `GRID_PERIODS[s]` has bit `i` set for every multiple `i` of `s` below
/// 64 (`s ≥ 1`): one word of a stride-`s` grid that enters at bit 0.
const GRID_PERIODS: [u64; 64] = {
    let mut periods = [0u64; 64];
    let mut stride = 1;
    while stride < 64 {
        let mut offset = 0;
        while offset < 64 {
            periods[stride] |= 1 << offset;
            offset += stride;
        }
        stride += 1;
    }
    periods
};

#[cfg(test)]
mod tests {
    use super::*;

    /// The word-mask fast path, `span` and `iter` against the obvious
    /// per-offset definitions.
    #[test]
    fn offset_set_matches_naive_enumeration() {
        for (first, last) in [
            (0u8, 0u8),
            (0, 255),
            (5, 63),
            (63, 64),
            (64, 127),
            (70, 200),
        ] {
            for stride in (1u32..=255).chain([300]) {
                let naive: Vec<u8> = (first as u32..=last as u32)
                    .step_by(stride as usize)
                    .map(|x| x as u8)
                    .collect();
                let set = OffsetSet::strided(first, last, stride);
                assert_eq!(
                    set,
                    OffsetSet::from_members(&naive),
                    "{first}..={last}/{stride}"
                );
                assert_eq!(set.iter().collect::<Vec<_>>(), naive);
                assert_eq!(set.span(), Some((naive[0], *naive.last().unwrap())));
            }
        }
        assert_eq!(OffsetSet::default().span(), None);
        let rest = OffsetSet::strided(10, 20, 1).without(&OffsetSet::strided(12, 30, 2));
        assert_eq!(
            rest.iter().collect::<Vec<_>>(),
            vec![10, 11, 13, 15, 17, 19]
        );
    }
}
