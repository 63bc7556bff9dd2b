//! Perceptron-based reuse prediction adapted to the L2 TLB (extension).
//!
//! The CHiRP paper draws its offline methodology from perceptron-based
//! reuse prediction for the LLC \[Teran, Wang & Jiménez, MICRO 2016;
//! cited in §II-D/§VII\]. This extension brings the *online* version to
//! the TLB for comparison: several feature tables of small signed weights
//! — indexed by the accessing PC and by segments of a path history — are
//! summed; a large positive sum predicts the entry dead. Training nudges
//! the weights on the same low-traffic events CHiRP uses (first qualifying
//! hit → towards live; LRU-fallback eviction → towards dead), with a
//! margin θ to stop updating confident predictions.
//!
//! Not part of the paper's lineup; exposed through
//! `chirp_sim::PolicyKind::PerceptronReuse` for extension studies.

use crate::policy::{PolicyStorage, TlbReplacementPolicy};
use crate::types::{TlbAccess, TlbGeometry};
use chirp_mem::PackedLru;
use chirp_trace::BranchClass;

/// Perceptron reuse predictor configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerceptronConfig {
    /// log2 entries per feature table.
    pub table_bits: u32,
    /// Training margin θ: train whenever |sum| ≤ θ or the prediction was
    /// wrong.
    pub theta: i32,
    /// Sums strictly greater than this predict dead.
    pub dead_threshold: i32,
}

impl Default for PerceptronConfig {
    fn default() -> Self {
        PerceptronConfig { table_bits: 10, theta: 14, dead_threshold: 4 }
    }
}

const FEATURES: usize = 4;
const WEIGHT_MAX: i8 = 31;
const WEIGHT_MIN: i8 = -32;

#[derive(Debug, Clone, Copy, Default)]
struct EntryMeta {
    /// Feature indices captured at the entry's last training-relevant
    /// access, so training updates the exact weights that produced the
    /// prediction.
    feature_idx: [u16; FEATURES],
    dead: bool,
    first_hit_pending: bool,
}

/// Multi-feature perceptron reuse predictor for the L2 TLB.
#[derive(Debug, Clone)]
pub struct PerceptronReuse {
    tables: Vec<Vec<i8>>,
    meta: Vec<EntryMeta>,
    lru: PackedLru,
    /// Path history of L2-access PCs (2 bits per access, like CHiRP).
    path: u64,
    /// Conditional-branch PC history.
    cond: u64,
    config: PerceptronConfig,
    geometry: TlbGeometry,
    table_accesses: u64,
    dead_evictions: u64,
}

impl PerceptronReuse {
    /// Creates the predictor for `geometry`.
    pub fn new(geometry: TlbGeometry, config: PerceptronConfig) -> Self {
        assert!((4..=16).contains(&config.table_bits), "table_bits out of range");
        PerceptronReuse {
            tables: vec![vec![0i8; 1 << config.table_bits]; FEATURES],
            meta: vec![EntryMeta::default(); geometry.entries],
            lru: PackedLru::new(geometry.sets(), geometry.ways),
            path: 0,
            cond: 0,
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

    /// Feature vector: PC hash, PC⊕short-path, PC⊕long-path, PC⊕cond-hist.
    fn features(&self, pc: u64) -> [u16; FEATURES] {
        let mask = (1u64 << self.config.table_bits) - 1;
        let h = |x: u64| -> u16 {
            let m = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            ((m >> 40) & mask) as u16
        };
        [
            h(pc >> 2),
            h((pc >> 2) ^ (self.path & 0xffff)),
            h((pc >> 2) ^ self.path),
            h((pc >> 2) ^ self.cond),
        ]
    }

    fn sum(&mut self, idx: &[u16; FEATURES]) -> i32 {
        self.table_accesses += 1;
        idx.iter().zip(&self.tables).map(|(&i, table)| i32::from(table[i as usize])).sum()
    }

    /// Trains towards dead (`true`) or live (`false`).
    fn train(&mut self, idx: &[u16; FEATURES], dead: bool) {
        let sum = self.sum(idx);
        let predicted_dead = sum > self.config.dead_threshold;
        if predicted_dead != dead || (sum - self.config.dead_threshold).abs() <= self.config.theta {
            self.table_accesses += 1;
            for (&i, table) in idx.iter().zip(&mut self.tables) {
                let w = &mut table[i as usize];
                *w = if dead {
                    w.saturating_add(1).min(WEIGHT_MAX)
                } else {
                    w.saturating_sub(1).max(WEIGHT_MIN)
                };
            }
        }
    }
}

impl TlbReplacementPolicy for PerceptronReuse {
    fn name(&self) -> &str {
        "perceptron"
    }

    #[inline]
    fn choose_victim(&mut self, acc: &TlbAccess) -> usize {
        for way in 0..self.geometry.ways {
            if self.meta[self.idx(acc.set, way)].dead {
                self.dead_evictions += 1;
                return way;
            }
        }
        self.lru.lru(acc.set)
    }

    fn on_evict(&mut self, set: usize, way: usize) {
        let m = self.meta[self.idx(set, way)];
        if !m.dead {
            // LRU fallback: the predictor missed a dead entry.
            self.train(&m.feature_idx, true);
        }
    }

    fn on_hit(&mut self, acc: &TlbAccess, way: usize) {
        let i = self.idx(acc.set, way);
        if self.meta[i].first_hit_pending {
            let old = self.meta[i].feature_idx;
            self.train(&old, false);
            self.meta[i].first_hit_pending = false;
        }
        let idx = self.features(acc.pc);
        let dead = self.sum(&idx) > self.config.dead_threshold;
        let m = &mut self.meta[i];
        m.feature_idx = idx;
        m.dead = dead;
        self.lru.touch(acc.set, way);
        self.path = (self.path << 4) | ((acc.pc >> 2) & 0x3);
    }

    fn on_fill(&mut self, acc: &TlbAccess, way: usize) {
        let idx = self.features(acc.pc);
        let dead = self.sum(&idx) > self.config.dead_threshold;
        let i = self.idx(acc.set, way);
        self.meta[i] = EntryMeta { feature_idx: idx, dead, first_hit_pending: true };
        self.lru.touch(acc.set, way);
        self.path = (self.path << 4) | ((acc.pc >> 2) & 0x3);
    }

    fn on_branch(&mut self, pc: u64, class: BranchClass, _taken: bool) {
        if class == BranchClass::Conditional {
            self.cond = (self.cond << 8) | ((pc >> 4) & 0xff);
        }
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

    /// Needs every retired branch for its history register, but models
    /// no wrong-path pollution and consumes no precomputed signatures.
    fn replay_hints(&self, _sig_code: u64) -> crate::policy::ReplayHints {
        crate::policy::ReplayHints::branches_only()
    }

    fn storage(&self) -> PolicyStorage {
        let lru_bits = (self.geometry.ways as f64).log2().ceil() as u64;
        PolicyStorage {
            // Per entry: 4 feature indices + dead + pending + LRU bits.
            metadata_bits: (FEATURES as u64 * u64::from(self.config.table_bits) + 2 + lru_bits)
                * self.geometry.entries as u64,
            register_bits: 128,
            table_bits: FEATURES as u64 * 6 * (1u64 << self.config.table_bits),
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

    fn tiny() -> PerceptronReuse {
        PerceptronReuse::new(TlbGeometry { entries: 8, ways: 4 }, PerceptronConfig::default())
    }

    #[test]
    fn learns_dead_contexts() {
        let mut p = tiny();
        let pc = 0x400100;
        for _ in 0..40 {
            p.on_fill(&acc(pc, 0), 0);
            p.on_evict(0, 0);
        }
        p.on_fill(&acc(pc, 0), 0);
        assert!(p.meta[0].dead, "constantly evicted context must predict dead");
    }

    #[test]
    fn learns_live_contexts() {
        let mut p = tiny();
        let pc = 0x400200;
        for _ in 0..40 {
            p.on_fill(&acc(pc, 0), 0);
            p.on_fill(&acc(0x999000, 1), 0); // different set in between
            p.on_hit(&acc(pc, 0), 0);
        }
        p.on_fill(&acc(pc, 0), 0);
        assert!(!p.meta[0].dead, "reused context must predict live");
    }

    #[test]
    fn weights_stay_bounded() {
        let mut p = tiny();
        for i in 0..500u64 {
            p.on_fill(&acc(0x400000 + i * 4, 0), (i % 4) as usize);
            p.on_evict(0, (i % 4) as usize);
        }
        for table in &p.tables {
            assert!(table.iter().all(|&w| (WEIGHT_MIN..=WEIGHT_MAX).contains(&w)));
        }
    }

    #[test]
    fn victim_prefers_dead_entries() {
        let mut p = tiny();
        for way in 0..4 {
            p.on_fill(&acc(0x500000 + way as u64 * 4, 0), way);
        }
        let i = p.idx(0, 3);
        p.meta[i].dead = true;
        assert_eq!(p.choose_victim(&acc(0, 0)), 3);
        assert_eq!(p.dead_eviction_count(), 1);
    }

    #[test]
    fn margin_stops_training_confident_predictions() {
        let mut p = tiny();
        let idx = p.features(0x400300);
        // Saturate towards dead well past the margin.
        for _ in 0..100 {
            p.train(&idx, true);
        }
        let before: Vec<i8> = (0..FEATURES).map(|f| p.tables[f][idx[f] as usize]).collect();
        p.train(&idx, true);
        let after: Vec<i8> = (0..FEATURES).map(|f| p.tables[f][idx[f] as usize]).collect();
        assert_eq!(before, after, "confident correct predictions must not train");
    }
}
