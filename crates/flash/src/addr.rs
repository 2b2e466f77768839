//! Strongly-typed flash addresses.
//!
//! The FTL translates logical page addresses ([`Lpa`]) issued by the host
//! into physical page addresses ([`Ppa`]) on the NAND array. Keeping the
//! two as distinct newtypes prevents an entire class of mix-up bugs in
//! the mapping-table code, where both are "just integers".

use serde::{Deserialize, Serialize};
use std::fmt;

/// A logical page address: the host-visible page index.
///
/// LeaFTL partitions the LPA space into groups of
/// [`Lpa::GROUP_SIZE`] = 256 contiguous LPAs (§3.2 of the paper); the
/// learned-segment encoding stores only the 1-byte offset of an LPA
/// within its group.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Lpa(u64);

impl Lpa {
    /// Number of contiguous LPAs per LeaFTL group (paper §3.2).
    pub const GROUP_SIZE: u64 = 256;

    /// Creates an LPA from a raw page index.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        Lpa(raw)
    }

    /// Returns the raw page index.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// The LeaFTL group this LPA belongs to (`lpa / 256`).
    #[inline]
    pub const fn group(self) -> u64 {
        self.0 / Self::GROUP_SIZE
    }

    /// The 1-byte offset of this LPA within its group (`lpa mod 256`).
    #[inline]
    pub const fn group_offset(self) -> u8 {
        (self.0 % Self::GROUP_SIZE) as u8
    }

    /// First LPA of the group with the given index.
    #[inline]
    pub const fn group_base(group: u64) -> Self {
        Lpa(group * Self::GROUP_SIZE)
    }

    /// The LPA `delta` pages after this one.
    #[inline]
    pub const fn offset(self, delta: u64) -> Self {
        Lpa(self.0 + delta)
    }
}

impl fmt::Display for Lpa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

impl From<u64> for Lpa {
    fn from(raw: u64) -> Self {
        Lpa(raw)
    }
}

/// A physical page address: a linear index over every page of the device.
///
/// The linear layout is `block_id * pages_per_block + page_in_block`, so
/// consecutive PPAs within a block are physically consecutive NAND pages.
/// This matters for LeaFTL: the write buffer flush assigns consecutive
/// PPAs to LPA-sorted pages, producing monotonic, learnable mappings
/// (§3.3 of the paper).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Ppa(u64);

impl Ppa {
    /// Creates a PPA from a raw linear page index.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        Ppa(raw)
    }

    /// Returns the raw linear page index.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// The PPA `delta` pages after this one.
    #[inline]
    pub const fn offset(self, delta: u64) -> Self {
        Ppa(self.0 + delta)
    }

    /// The PPA `delta` pages before this one, or `None` if it underflows.
    #[inline]
    pub fn checked_sub(self, delta: u64) -> Option<Self> {
        self.0.checked_sub(delta).map(Ppa)
    }
}

impl fmt::Display for Ppa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl From<u64> for Ppa {
    fn from(raw: u64) -> Self {
        Ppa(raw)
    }
}

/// Identifier of a flash block (erase unit).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct BlockId(u64);

impl BlockId {
    /// Creates a block id from a raw index.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        BlockId(raw)
    }

    /// Returns the raw block index.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "B{}", self.0)
    }
}

/// Identifier of a flash die (LUN): the unit that executes one NAND
/// operation at a time. Dies are the timing model's independent service
/// resources — a channel multiplexes [`FlashGeometry::dies_per_channel`]
/// of them, so concurrent requests overlap die-by-die.
///
/// [`FlashGeometry::dies_per_channel`]: crate::FlashGeometry::dies_per_channel
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Die(u32);

impl Die {
    /// Creates a die id from a raw index (device-wide, linear over
    /// `channels × dies_per_channel`).
    #[inline]
    pub const fn new(raw: u32) -> Self {
        Die(raw)
    }

    /// Returns the raw die index.
    #[inline]
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for Die {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "D{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lpa_group_math() {
        assert_eq!(Lpa::new(0).group(), 0);
        assert_eq!(Lpa::new(255).group(), 0);
        assert_eq!(Lpa::new(256).group(), 1);
        assert_eq!(Lpa::new(255).group_offset(), 255);
        assert_eq!(Lpa::new(256).group_offset(), 0);
        assert_eq!(Lpa::new(1000).group_offset(), (1000 % 256) as u8);
        assert_eq!(Lpa::group_base(3), Lpa::new(768));
    }

    #[test]
    fn lpa_offset_and_order() {
        let a = Lpa::new(10);
        assert_eq!(a.offset(5), Lpa::new(15));
        assert!(Lpa::new(1) < Lpa::new(2));
    }

    #[test]
    fn ppa_arithmetic() {
        let p = Ppa::new(100);
        assert_eq!(p.offset(3), Ppa::new(103));
        assert_eq!(p.checked_sub(100), Some(Ppa::new(0)));
        assert_eq!(p.checked_sub(101), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Lpa::new(7).to_string(), "L7");
        assert_eq!(Ppa::new(8).to_string(), "P8");
        assert_eq!(BlockId::new(9).to_string(), "B9");
        assert_eq!(Die::new(3).to_string(), "D3");
    }

    #[test]
    fn conversions() {
        assert_eq!(Lpa::from(4u64), Lpa::new(4));
        assert_eq!(Ppa::from(4u64), Ppa::new(4));
        assert_eq!(Lpa::new(12).raw(), 12);
    }
}
