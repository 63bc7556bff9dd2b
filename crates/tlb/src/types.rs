//! Core TLB types: geometry and the per-access context handed to policies.

/// Whether a translation serves an instruction fetch or a data access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TranslationKind {
    /// Instruction-side translation (L1 i-TLB missed).
    Instruction,
    /// Data-side translation (L1 d-TLB missed).
    Data,
}

/// Geometry of a set-associative TLB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbGeometry {
    /// Total entries.
    pub entries: usize,
    /// Associativity.
    pub ways: usize,
}

impl Default for TlbGeometry {
    /// The paper's L2 TLB: 1024 entries, 8-way.
    fn default() -> Self {
        TlbGeometry { entries: 1024, ways: 8 }
    }
}

impl TlbGeometry {
    /// The paper's L1 TLBs: 64 entries, 8-way.
    pub fn l1() -> Self {
        TlbGeometry { entries: 64, ways: 8 }
    }

    /// Number of sets.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate or the set count is not a power
    /// of two.
    pub fn sets(&self) -> usize {
        assert!(
            self.ways > 0 && self.entries.is_multiple_of(self.ways),
            "entries must divide into ways"
        );
        let sets = self.entries / self.ways;
        assert!(sets.is_power_of_two(), "set count must be a power of two, got {sets}");
        sets
    }

    /// Set index for a virtual page number.
    #[inline]
    pub fn set_of(&self, vpn: u64) -> usize {
        (vpn as usize) & (self.sets() - 1)
    }
}

/// Context for one L2 TLB access, handed to the replacement policy.
///
/// `pc` is the address of the instruction that caused the access — for
/// instruction-side accesses that is the fetched PC itself; for data-side
/// accesses it is the load/store instruction. The CHiRP signature is built
/// from this PC (paper §IV-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbAccess {
    /// PC of the instruction causing the access.
    pub pc: u64,
    /// Virtual page number being translated.
    pub vpn: u64,
    /// Instruction- or data-side.
    pub kind: TranslationKind,
    /// Set index within the L2 TLB.
    pub set: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_geometry_matches_paper() {
        let g = TlbGeometry::default();
        assert_eq!(g.entries, 1024);
        assert_eq!(g.ways, 8);
        assert_eq!(g.sets(), 128);
    }

    #[test]
    fn l1_geometry_matches_paper() {
        let g = TlbGeometry::l1();
        assert_eq!(g.entries, 64);
        assert_eq!(g.ways, 8);
        assert_eq!(g.sets(), 8);
    }

    #[test]
    fn set_of_masks_low_bits() {
        let g = TlbGeometry::default();
        assert_eq!(g.set_of(0), 0);
        assert_eq!(g.set_of(127), 127);
        assert_eq!(g.set_of(128), 0);
        assert_eq!(g.set_of(0x12345), 0x45);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn degenerate_geometry_rejected() {
        let _ = TlbGeometry { entries: 24, ways: 8 }.sets();
    }
}
