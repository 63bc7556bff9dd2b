//! Signature composition and hashing (paper Algorithm 5, lines 5–6).
//!
//! The signature XORs the shifted PC of the access with the folded path,
//! conditional-branch and indirect-branch histories, then hashes the 64-bit
//! result down to the 16 bits stored per TLB entry. The prediction-table
//! index is the low bits of that stored signature.

use crate::config::ChirpConfig;
use crate::history::HistoryRegister;
use chirp_tlb::SignatureSpec;
use chirp_trace::BranchClass;

/// Maintains the three history registers and composes signatures: the
/// runnable form of [`chirp_tlb::History::Signature`], which CHiRP and a
/// factored front end both run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignatureBuilder {
    path: HistoryRegister,
    cond: HistoryRegister,
    uncond: HistoryRegister,
    use_path: bool,
    use_cond: bool,
    use_uncond: bool,
    use_pc: bool,
    /// Pseudo wrong-path events folded in per misprediction.
    pollution: u32,
}

impl SignatureBuilder {
    /// Builds the registers per `config`.
    pub fn new(config: &ChirpConfig) -> Self {
        Self::from_spec(&config.signature_spec())
    }

    /// Builds the registers in the shape `spec` declares.
    pub fn from_spec(spec: &SignatureSpec) -> Self {
        SignatureBuilder {
            path: HistoryRegister::path(spec.path_length, spec.inject_zeros),
            cond: HistoryRegister::branch(spec.branch_length),
            uncond: HistoryRegister::branch(spec.branch_length),
            use_path: spec.use_path,
            use_cond: spec.use_cond,
            use_uncond: spec.use_uncond,
            use_pc: spec.use_pc,
            pollution: spec.wrong_path_pollution,
        }
    }

    /// The signature of an access at `pc`, after which the access is
    /// folded into the path history: the order CHiRP's `on_hit` and
    /// `on_fill` observe.
    #[inline]
    pub fn key(&mut self, pc: u64) -> u16 {
        let sig = self.signature(pc);
        self.record_access(pc);
        sig
    }

    /// A misprediction. The paper's CHiRP trains at commit with
    /// right-path branches only (§VI-E), so with no pollution this does
    /// nothing. The naive-speculative ablation folds pseudo wrong-path
    /// branches, derived deterministically from the mispredicting PC,
    /// into the histories, modelling a design without recovery.
    #[inline]
    pub fn on_mispredict(&mut self, pc: u64) {
        for i in 0..self.pollution {
            let bogus = pc ^ (u64::from(i) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            self.record_branch(bogus, BranchClass::Conditional);
            self.record_access(bogus);
        }
    }

    /// Composes the 16-bit signature for an access at `pc`
    /// (`sign ← pc ≫ 2 ⊕ pathHist ⊕ condBrHist ⊕ unCondBrHist`).
    #[inline]
    pub fn signature(&self, pc: u64) -> u16 {
        hash16(self.compose(pc))
    }

    /// The 64-bit pre-hash composition for an access at `pc` — everything
    /// of [`signature`](Self::signature) except the final [`hash16`].
    #[inline]
    pub fn compose(&self, pc: u64) -> u64 {
        let mut sig = 0u64;
        if self.use_pc {
            sig ^= pc >> 2;
        }
        if self.use_path {
            sig ^= self.path.folded();
        }
        if self.use_cond {
            sig ^= self.cond.folded();
        }
        if self.use_uncond {
            sig ^= self.uncond.folded();
        }
        sig
    }

    /// Records an L2 TLB access in the path history (Algorithm 5 line 22).
    #[inline]
    pub fn record_access(&mut self, pc: u64) {
        self.path.push(pc);
    }

    /// Records a retired branch in the appropriate branch history
    /// (Algorithm 5 lines 23–26). Unconditional *direct* branches update
    /// neither history, per §IV-B.
    #[inline]
    pub fn record_branch(&mut self, pc: u64, class: BranchClass) {
        match class {
            BranchClass::Conditional => self.cond.push(pc),
            BranchClass::UnconditionalIndirect => self.uncond.push(pc),
            BranchClass::UnconditionalDirect => {}
        }
    }

    /// Combined register storage in bits (Table I: three 64-bit registers
    /// at the default lengths).
    pub fn storage_bits(&self) -> u64 {
        self.path.storage_bits() + self.cond.storage_bits() + self.uncond.storage_bits()
    }
}

/// Hashes a 64-bit composed signature to the 16 bits stored per entry
/// (paper Algorithm 5 line 6).
#[inline]
pub fn hash16(sig: u64) -> u16 {
    let h = sig.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ((h >> 48) ^ (h >> 32) & 0xffff) as u16
}

/// Derives the prediction-table index from a stored 16-bit signature.
#[inline]
pub fn table_index(sig: u16, table_entries: usize) -> usize {
    debug_assert!(table_entries.is_power_of_two());
    usize::from(sig) & (table_entries - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn builder() -> SignatureBuilder {
        SignatureBuilder::new(&ChirpConfig::default())
    }

    #[test]
    fn same_pc_same_history_same_signature() {
        let a = builder();
        let b = builder();
        assert_eq!(a.signature(0x400000), b.signature(0x400000));
    }

    #[test]
    fn conditional_history_changes_signature() {
        let mut a = builder();
        let b = builder();
        a.record_branch(0xAB0, BranchClass::Conditional);
        assert_ne!(a.signature(0x400000), b.signature(0x400000));
    }

    #[test]
    fn direct_branches_do_not_change_signature() {
        let mut a = builder();
        let b = builder();
        a.record_branch(0xAB0, BranchClass::UnconditionalDirect);
        assert_eq!(a.signature(0x400000), b.signature(0x400000));
    }

    #[test]
    fn path_history_distinguishes_access_sequences() {
        let mut a = builder();
        let mut b = builder();
        a.record_access(0x1004);
        a.record_access(0x1008);
        b.record_access(0x1008);
        b.record_access(0x1004);
        assert_ne!(a.signature(0x2000), b.signature(0x2000), "order matters in path history");
    }

    #[test]
    fn disabled_features_are_ignored() {
        let config = ChirpConfig { use_cond: false, ..Default::default() };
        let mut a = SignatureBuilder::new(&config);
        let b = SignatureBuilder::new(&config);
        a.record_branch(0xAB0, BranchClass::Conditional);
        assert_eq!(a.signature(0x400000), b.signature(0x400000));
    }

    #[test]
    fn table_index_respects_size() {
        for sig in [0u16, 1, 0xffff, 0x1234] {
            assert!(table_index(sig, 4096) < 4096);
            assert_eq!(table_index(sig, 1 << 16), usize::from(sig));
        }
    }

    proptest! {
        #[test]
        fn hash16_spreads_over_low_bits(sigs in proptest::collection::hash_set(0u64..u64::MAX, 200)) {
            // 200 random signatures into 4096 slots: expect far more than
            // 100 distinct indices if the hash mixes at all.
            let idx: std::collections::HashSet<usize> =
                sigs.iter().map(|&s| table_index(hash16(s), 4096)).collect();
            prop_assert!(idx.len() > 150, "only {} distinct indices", idx.len());
        }
    }
}
