//! GHRP (Global History Reuse Prediction) adapted to the L2 TLB.
//!
//! GHRP \[Mirbagher et al., ISCA 2018\] is the state-of-the-art predictive
//! replacement policy for instruction caches and BTBs. Like a branch
//! predictor, it folds conditional-branch outcomes and low-order branch
//! address bits into a global history register, hashes the accessing PC
//! with that history into *three* prediction tables of saturating counters,
//! and sums them to classify an entry as dead (§II-C of the CHiRP paper).
//!
//! As in the original, the tables are read and trained on *every* access:
//! a hit decrements the counters under the entry's stored signature and
//! re-reads a prediction under the new one; an eviction increments the
//! victim's counters. This per-access traffic is GHRP's cost relative to
//! CHiRP (Figure 11), and its outcome-heavy history is what limits its
//! accuracy on TLB reuse (paper §III).

use crate::policy::{History, PolicyStorage, TlbReplacementPolicy};
use crate::types::{TlbAccess, TlbGeometry};
use chirp_mem::PackedLru;
use chirp_trace::BranchClass;

/// GHRP configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GhrpConfig {
    /// log2 entries per prediction table (three tables total).
    pub table_bits: u32,
    /// Sum-of-counters threshold; a strictly greater sum predicts dead.
    pub dead_threshold: u32,
}

impl Default for GhrpConfig {
    fn default() -> Self {
        // 3 tables x 4096 x 2-bit = 3 KB: the 8K-ish GHRP budget the paper
        // compares against (§VI-F notes an 8K GHRP reaches ~9%).
        GhrpConfig { table_bits: 12, dead_threshold: 7 }
    }
}

/// GHRP's global history: per retired conditional branch, three
/// low-order address bits and the outcome bit, as the original GHRP
/// history does for instruction streams. Its key for an access is GHRP's
/// 16-bit signature of (PC, history); accesses do not change it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OutcomeHistory {
    bits: u64,
}

impl OutcomeHistory {
    /// Folds a retired branch in; only conditional branches count.
    #[inline]
    pub fn on_branch(&mut self, pc: u64, class: BranchClass, taken: bool) {
        if class == BranchClass::Conditional {
            self.bits = (self.bits << 4) | (((pc >> 2) & 0x7) << 1) | u64::from(taken);
        }
    }

    /// The 16-bit signature of an access at `pc` under the current
    /// history.
    #[inline]
    pub fn key(&self, pc: u64) -> u16 {
        let h = (pc >> 2) ^ self.bits.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((h ^ (h >> 17) ^ (h >> 33)) & 0xffff) as u16
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct EntryMeta {
    signature: u16,
    dead: bool,
}

/// GHRP adapted from BTB/i-cache replacement to TLB entries.
#[derive(Debug, Clone)]
pub struct Ghrp {
    meta: Vec<EntryMeta>,
    tables: [Vec<u8>; 3],
    lru: PackedLru,
    history: OutcomeHistory,
    /// Key handed in by factored replay for the next access
    /// ([`TlbReplacementPolicy::supply_key`]); `None` outside replay.
    pending_key: Option<u16>,
    config: GhrpConfig,
    geometry: TlbGeometry,
    table_accesses: u64,
    dead_evictions: u64,
}

impl Ghrp {
    /// Creates GHRP state for `geometry`.
    pub fn new(geometry: TlbGeometry, config: GhrpConfig) -> Self {
        assert!((1..=20).contains(&config.table_bits), "table_bits out of range");
        let n = 1usize << config.table_bits;
        Ghrp {
            meta: vec![EntryMeta::default(); geometry.entries],
            tables: [vec![0u8; n], vec![0u8; n], vec![0u8; n]],
            lru: PackedLru::new(geometry.sets(), geometry.ways),
            history: OutcomeHistory::default(),
            pending_key: None,
            config,
            geometry,
            table_accesses: 0,
            dead_evictions: 0,
        }
    }

    #[inline]
    fn idx(&self, set: usize, way: usize) -> usize {
        set * self.geometry.ways + way
    }

    /// The policy's own history register (diagnostics).
    pub fn outcome_history(&self) -> &OutcomeHistory {
        &self.history
    }

    /// 16-bit signature of (PC, outcome/path history): the supplied key
    /// in factored replay, else the policy's own history's.
    #[inline]
    fn signature(&mut self, pc: u64) -> u16 {
        self.pending_key.take().unwrap_or_else(|| self.history.key(pc))
    }

    /// Three distinct table indices derived from a signature.
    #[inline]
    fn indices(&self, sig: u16) -> [usize; 3] {
        let mask = (1usize << self.config.table_bits) - 1;
        let s = sig as u64;
        [
            (s.wrapping_mul(0x9E37_79B1) >> 4) as usize & mask,
            (s.wrapping_mul(0x85EB_CA77) >> 7) as usize & mask,
            (s.wrapping_mul(0xC2B2_AE3D) >> 9) as usize & mask,
        ]
    }

    fn counter_sum(&self, sig: u16) -> u32 {
        let idx = self.indices(sig);
        (0..3).map(|t| u32::from(self.tables[t][idx[t]])).sum()
    }

    fn bump(&mut self, sig: u16, up: bool) {
        let idx = self.indices(sig);
        for (t, &i) in idx.iter().enumerate() {
            let c = &mut self.tables[t][i];
            if up {
                if *c < 3 {
                    *c += 1;
                }
            } else {
                *c = c.saturating_sub(1);
            }
        }
        self.table_accesses += 1;
    }

    fn predict_dead(&mut self, sig: u16) -> bool {
        self.table_accesses += 1;
        self.counter_sum(sig) > self.config.dead_threshold
    }
}

impl TlbReplacementPolicy for Ghrp {
    fn name(&self) -> &str {
        "ghrp"
    }

    #[inline]
    fn choose_victim(&mut self, acc: &TlbAccess) -> usize {
        // Prefer a predicted-dead entry, else LRU.
        for way in 0..self.geometry.ways {
            if self.meta[self.idx(acc.set, way)].dead {
                self.dead_evictions += 1;
                return way;
            }
        }
        self.lru.lru(acc.set)
    }

    fn on_hit(&mut self, acc: &TlbAccess, way: usize) {
        let i = self.idx(acc.set, way);
        let old_sig = self.meta[i].signature;
        // The entry proved live under its previous signature: train down.
        self.bump(old_sig, false);
        let new_sig = self.signature(acc.pc);
        let dead = self.predict_dead(new_sig);
        let m = &mut self.meta[i];
        m.signature = new_sig;
        m.dead = dead;
        self.lru.touch(acc.set, way);
    }

    fn on_evict(&mut self, set: usize, way: usize) {
        let sig = self.meta[self.idx(set, way)].signature;
        // Evicted ⇒ it was dead under its last signature: train up.
        self.bump(sig, true);
    }

    fn on_fill(&mut self, acc: &TlbAccess, way: usize) {
        let i = self.idx(acc.set, way);
        let sig = self.signature(acc.pc);
        let dead = self.predict_dead(sig);
        let m = &mut self.meta[i];
        m.signature = sig;
        m.dead = dead;
        self.lru.touch(acc.set, way);
    }

    fn on_branch(&mut self, pc: u64, class: BranchClass, taken: bool) {
        self.history.on_branch(pc, class, taken);
    }

    fn prediction_table_accesses(&self) -> u64 {
        self.table_accesses
    }

    fn dead_eviction_count(&self) -> u64 {
        self.dead_evictions
    }

    fn predicts_dead(&self, set: usize, way: usize) -> Option<bool> {
        Some(self.meta[self.idx(set, way)].dead)
    }

    fn history(&self) -> Option<History> {
        Some(History::Outcome)
    }

    #[inline]
    fn supply_key(&mut self, key: u16) {
        self.pending_key = Some(key);
    }

    fn storage(&self) -> PolicyStorage {
        let lru_bits = (self.geometry.ways as f64).log2().ceil() as u64;
        PolicyStorage {
            metadata_bits: (16 + 1 + lru_bits) * self.geometry.entries as u64,
            register_bits: 64,
            table_bits: 3 * 2 * (1u64 << self.config.table_bits),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::TranslationKind;

    fn acc(pc: u64, set: usize) -> TlbAccess {
        TlbAccess { pc, vpn: 0, kind: TranslationKind::Data, set }
    }

    fn tiny() -> Ghrp {
        Ghrp::new(TlbGeometry { entries: 8, ways: 4 }, GhrpConfig::default())
    }

    #[test]
    fn repeated_evictions_mark_signature_dead() {
        let mut p = tiny();
        let pc = 0x400100;
        for _ in 0..12 {
            p.on_fill(&acc(pc, 0), 0);
            p.on_evict(0, 0);
        }
        p.on_fill(&acc(pc, 0), 0);
        assert!(p.meta[0].dead, "constantly evicted signature must predict dead");
    }

    #[test]
    fn dead_entry_preferred_over_lru() {
        let mut p = tiny();
        for way in 0..4 {
            p.on_fill(&acc(0x100 + way as u64 * 4, 0), way);
        }
        let i = p.idx(0, 2);
        p.meta[i].dead = true;
        assert_eq!(p.choose_victim(&acc(0, 0)), 2);
    }

    #[test]
    fn falls_back_to_lru_without_dead_entries() {
        let mut p = tiny();
        for way in 0..4 {
            p.on_fill(&acc(0x100, 0), way);
        }
        p.on_hit(&acc(0x100, 0), 0);
        // No dead bits set (fresh tables) → LRU way 1.
        for way in 0..4 {
            let i = p.idx(0, way);
            p.meta[i].dead = false;
        }
        assert_eq!(p.choose_victim(&acc(0, 0)), 1);
    }

    #[test]
    fn history_reacts_to_conditional_branches_only() {
        let mut p = tiny();
        let h0 = p.history;
        p.on_branch(0x400, BranchClass::UnconditionalDirect, true);
        assert_eq!(p.history, h0, "direct branches do not update GHRP history");
        p.on_branch(0x400, BranchClass::Conditional, true);
        assert_ne!(p.history, h0);
    }

    #[test]
    fn hits_train_down() {
        let mut p = tiny();
        let pc = 0x400200;
        // Saturate up.
        for _ in 0..12 {
            p.on_fill(&acc(pc, 0), 0);
            p.on_evict(0, 0);
        }
        let sig = p.history.key(pc);
        let high = p.counter_sum(sig);
        p.on_fill(&acc(pc, 0), 0);
        p.on_hit(&acc(pc, 0), 0);
        assert!(p.counter_sum(sig) < high, "a hit must decrement the stored signature");
    }

    #[test]
    fn table_accesses_counted_per_access() {
        let mut p = tiny();
        p.on_fill(&acc(0x100, 0), 0); // 1 read
        p.on_hit(&acc(0x100, 0), 0); // 1 write + 1 read
        p.on_evict(0, 0); // 1 write
        assert_eq!(p.prediction_table_accesses(), 4);
    }
}
