//! CHiRP configuration, including the knobs the paper's ablations exercise.

/// Configuration of the CHiRP predictor.
///
/// Defaults reproduce the paper's main configuration: a 4096-counter
/// (1 KB) prediction table of 2-bit counters, 16-access path history with
/// two injected zeros per event, and 8-branch conditional/indirect
/// histories of PC bits \[11:4\].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChirpConfig {
    /// Entries in the prediction table (power of two). 4096 × 2-bit = 1 KB,
    /// the paper's main budget (§VI-F).
    pub table_entries: usize,
    /// Width of each saturating counter in bits (2 in the paper).
    pub counter_bits: u32,
    /// Counters strictly greater than this predict dead (paper Fig. 5,
    /// PREDICT). With 2-bit counters the default 2 means only saturated
    /// counters predict dead.
    pub dead_threshold: u8,
    /// Number of path-history events retained (16 in the paper: 64 bits at
    /// 4 bits per event). Values up to 32 are supported (Figure 2 sweep).
    pub path_length: u32,
    /// Include the two injected zero bits per path event (§III-B
    /// shift-and-scale). Disabling packs PC bits densely (ablation).
    pub inject_zeros: bool,
    /// Include the global path history in the signature.
    pub use_path: bool,
    /// Include the conditional-branch history in the signature.
    pub use_cond: bool,
    /// Include the unconditional-indirect-branch history in the signature.
    pub use_uncond: bool,
    /// Include the shifted PC of the access in the signature.
    pub use_pc: bool,
    /// Number of branch-history events retained (8 in the paper).
    pub branch_length: u32,
    /// Train on the first hit only (paper §IV-E). Disabling trains on every
    /// hit, GHRP-style (ablation).
    pub first_hit_only: bool,
    /// Selective hit update: train on a hit only when the accessed set
    /// differs from the previously accessed set (§III, §VI-B).
    pub selective_hit_update: bool,
    /// Model a *naive* speculative implementation that folds wrong-path
    /// fetch into its histories instead of keeping the committed history
    /// the paper specifies (§VI-E). Number of polluting events injected
    /// per misprediction; 0 (the default) is the paper's commit-time
    /// design. Used by the wrong-path ablation.
    pub wrong_path_pollution: u32,
}

impl Default for ChirpConfig {
    fn default() -> Self {
        ChirpConfig {
            table_entries: 4096,
            counter_bits: 2,
            dead_threshold: 2,
            path_length: 16,
            inject_zeros: true,
            use_path: true,
            use_cond: true,
            use_uncond: true,
            use_pc: true,
            branch_length: 8,
            first_hit_only: true,
            selective_hit_update: true,
            wrong_path_pollution: 0,
        }
    }
}

impl ChirpConfig {
    /// Validates invariants; call before constructing a policy.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if !self.table_entries.is_power_of_two() {
            return Err(format!(
                "table_entries must be a power of two, got {}",
                self.table_entries
            ));
        }
        if self.counter_bits == 0 || self.counter_bits > 8 {
            return Err(format!("counter_bits must be in 1..=8, got {}", self.counter_bits));
        }
        let max = (1u16 << self.counter_bits) - 1;
        if u16::from(self.dead_threshold) >= max {
            return Err(format!(
                "dead_threshold {} leaves no dead state for {}-bit counters",
                self.dead_threshold, self.counter_bits
            ));
        }
        let path_shift = if self.inject_zeros { 4 } else { 2 };
        if self.path_length == 0 || self.path_length * path_shift > 128 {
            return Err(format!("path_length {} exceeds the 128-bit register", self.path_length));
        }
        if self.branch_length == 0 || self.branch_length * 8 > 128 {
            return Err(format!(
                "branch_length {} exceeds the 128-bit register",
                self.branch_length
            ));
        }
        Ok(())
    }

    /// Prediction-table size in bytes.
    pub fn table_bytes(&self) -> u64 {
        (self.table_entries as u64 * u64::from(self.counter_bits)).div_ceil(8)
    }

    /// Identity code of every field that shapes signature *values*: two
    /// configurations produce identical signature streams for identical
    /// access/branch/mispredict sequences iff their codes match. Table
    /// geometry, counter width and thresholds are deliberately excluded —
    /// they consume signatures but do not alter them. A factored front
    /// end stamps its event stream with this code; a `Chirp` back-end
    /// only accepts precomputed signatures when the stream's code equals
    /// its own (`TlbReplacementPolicy::replay_hints`).
    pub fn signature_code(&self) -> u64 {
        let mut code = 0xcbf2_9ce4_8422_2325u64; // FNV-1a offset basis
        for field in [
            u64::from(self.path_length),
            u64::from(self.inject_zeros),
            u64::from(self.use_path),
            u64::from(self.use_cond),
            u64::from(self.use_uncond),
            u64::from(self.use_pc),
            u64::from(self.branch_length),
            u64::from(self.wrong_path_pollution),
        ] {
            code ^= field;
            code = code.wrapping_mul(0x0000_0100_0000_01b3);
        }
        code
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_paper_configuration() {
        let c = ChirpConfig::default();
        assert_eq!(c.table_entries, 4096);
        assert_eq!(c.counter_bits, 2);
        assert_eq!(c.table_bytes(), 1024, "1 KB main budget");
        assert_eq!(c.path_length, 16);
        assert_eq!(c.branch_length, 8);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn rejects_non_power_of_two_table() {
        let c = ChirpConfig { table_entries: 1000, ..Default::default() };
        assert!(c.validate().is_err());
    }

    #[test]
    fn rejects_threshold_without_dead_state() {
        let c = ChirpConfig { dead_threshold: 3, ..Default::default() };
        assert!(c.validate().is_err(), "2-bit counters cannot exceed 3");
    }

    #[test]
    fn rejects_oversized_histories() {
        assert!(ChirpConfig { path_length: 33, ..Default::default() }.validate().is_err());
        assert!(ChirpConfig { path_length: 64, inject_zeros: false, ..Default::default() }
            .validate()
            .is_ok());
        assert!(ChirpConfig { branch_length: 17, ..Default::default() }.validate().is_err());
    }
}
