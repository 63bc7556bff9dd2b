//! SHiP (signature-based hit prediction) adapted to the L2 TLB.
//!
//! SHiP \[Wu et al., MICRO 2011\] associates each entry with the PC
//! signature of the access that inserted it and learns, per signature,
//! whether insertions are re-referenced. The original uses set sampling;
//! the paper finds sampling does not generalise in the L2 TLB (§II-B) and
//! evaluates SHiP with the signature kept as metadata in *every* TLB entry
//! — equivalent to a sampler as large as the structure. That is what this
//! implementation does.
//!
//! The Signature History Counter Table (SHCT) is updated on every hit
//! (increment) and on every eviction of a never-reused entry (decrement);
//! insertion consults it to choose the RRIP insertion value. This
//! every-access table traffic is exactly what Figure 11 of the paper
//! measures against CHiRP's selective updates.

use crate::policy::{PolicyStorage, TlbReplacementPolicy};
use crate::types::{TlbAccess, TlbGeometry};

const RRPV_MAX: u8 = 3;
const RRPV_LONG: u8 = 2;

/// SHiP-TLB configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShipConfig {
    /// log2 of SHCT entries (14 → 16K counters, as in the original paper).
    pub shct_bits: u32,
    /// Counter width in bits (3 in the original).
    pub counter_bits: u32,
}

impl Default for ShipConfig {
    fn default() -> Self {
        ShipConfig { shct_bits: 14, counter_bits: 3 }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct EntryMeta {
    signature: u16,
    reused: bool,
    rrpv: u8,
}

/// SHiP with per-entry PC signatures (the paper's TLB adaptation).
#[derive(Debug, Clone)]
pub struct ShipTlb {
    meta: Vec<EntryMeta>,
    shct: Vec<u8>,
    counter_max: u8,
    config: ShipConfig,
    geometry: TlbGeometry,
    table_accesses: u64,
}

impl ShipTlb {
    /// Creates SHiP state for `geometry`.
    pub fn new(geometry: TlbGeometry, config: ShipConfig) -> Self {
        assert!(config.shct_bits > 0 && config.shct_bits <= 24, "shct_bits out of range");
        assert!(config.counter_bits > 0 && config.counter_bits <= 8, "counter_bits out of range");
        ShipTlb {
            meta: vec![EntryMeta { signature: 0, reused: false, rrpv: RRPV_MAX }; geometry.entries],
            shct: vec![1; 1 << config.shct_bits],
            counter_max: ((1u16 << config.counter_bits) - 1) as u8,
            config,
            geometry,
            table_accesses: 0,
        }
    }

    #[inline]
    fn idx(&self, set: usize, way: usize) -> usize {
        set * self.geometry.ways + way
    }

    /// 14-bit (by default) hashed PC signature.
    #[inline]
    fn signature(&self, pc: u64) -> u16 {
        let h = (pc >> 2).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((h >> 16) & ((1 << self.config.shct_bits) - 1)) as u16
    }
}

impl TlbReplacementPolicy for ShipTlb {
    fn name(&self) -> &str {
        "ship"
    }

    fn choose_victim(&mut self, acc: &TlbAccess) -> usize {
        loop {
            for way in 0..self.geometry.ways {
                let i = self.idx(acc.set, way);
                if self.meta[i].rrpv == RRPV_MAX {
                    return way;
                }
            }
            for way in 0..self.geometry.ways {
                let i = self.idx(acc.set, way);
                self.meta[i].rrpv += 1;
            }
        }
    }

    fn on_hit(&mut self, acc: &TlbAccess, way: usize) {
        let i = self.idx(acc.set, way);
        let new_sig = self.signature(acc.pc);
        let m = &mut self.meta[i];
        m.rrpv = 0;
        m.reused = true;
        let sig = m.signature;
        // SHiP re-signs the entry with the most recent accessor so training
        // reflects the latest use context.
        m.signature = new_sig;
        // Train: this signature's insertions do get reused.
        let c = &mut self.shct[sig as usize];
        if *c < self.counter_max {
            *c += 1;
        }
        self.table_accesses += 1;
    }

    fn on_evict(&mut self, set: usize, way: usize) {
        let i = self.idx(set, way);
        let m = self.meta[i];
        if !m.reused {
            let c = &mut self.shct[m.signature as usize];
            *c = c.saturating_sub(1);
            self.table_accesses += 1;
        }
    }

    fn on_fill(&mut self, acc: &TlbAccess, way: usize) {
        let i = self.idx(acc.set, way);
        let sig = self.signature(acc.pc);
        let counter = self.shct[sig as usize];
        self.table_accesses += 1; // prediction read
        let m = &mut self.meta[i];
        m.signature = sig;
        m.reused = false;
        // Insertion maps SHCT confidence to an RRPV: never-reused
        // signatures insert distant, saturated-high signatures insert
        // near-immediate, the rest long. Because coarse TLB granularity
        // saturates the counters high (paper Observation 2), most inserts
        // land at RRPV 0 and SHiP degenerates towards LRU — the behaviour
        // the paper measures (0.88% over LRU, §VI-A).
        m.rrpv = if counter == 0 {
            RRPV_MAX
        } else if counter == self.counter_max {
            0
        } else {
            RRPV_LONG
        };
    }

    fn prediction_table_accesses(&self) -> u64 {
        self.table_accesses
    }

    fn predicts_dead(&self, set: usize, way: usize) -> Option<bool> {
        // A distant re-reference prediction is RRIP's notion of "dead".
        Some(self.meta[self.idx(set, way)].rrpv == RRPV_MAX)
    }

    /// Keeps no branch history and consumes no signatures: replay can
    /// drop every control event.
    fn replay_hints(&self, _sig_code: u64) -> crate::policy::ReplayHints {
        crate::policy::ReplayHints::none()
    }

    fn storage(&self) -> PolicyStorage {
        let per_entry = u64::from(self.config.shct_bits) + 1 + 2; // sig + reused + rrpv
        PolicyStorage {
            metadata_bits: per_entry * self.geometry.entries as u64,
            register_bits: 0,
            table_bits: u64::from(self.config.counter_bits) * (1u64 << self.config.shct_bits),
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

    fn tiny() -> ShipTlb {
        ShipTlb::new(TlbGeometry { entries: 8, ways: 4 }, ShipConfig::default())
    }

    #[test]
    fn never_reused_signature_becomes_dead_on_insert() {
        let mut p = tiny();
        let streaming_pc = 0x400100;
        // Insert + evict without reuse repeatedly: counter decays to 0.
        for _ in 0..4 {
            p.on_fill(&acc(streaming_pc, 0), 0);
            p.on_evict(0, 0);
        }
        p.on_fill(&acc(streaming_pc, 0), 0);
        assert_eq!(
            p.meta[0].rrpv, RRPV_MAX,
            "a signature that never sees reuse must insert at distant RRPV"
        );
    }

    #[test]
    fn reused_signature_inserts_long_not_distant() {
        let mut p = tiny();
        let hot_pc = 0x400200;
        p.on_fill(&acc(hot_pc, 0), 0);
        p.on_hit(&acc(hot_pc, 0), 0);
        p.on_fill(&acc(hot_pc, 0), 1);
        assert_eq!(p.meta[1].rrpv, RRPV_LONG);
    }

    #[test]
    fn table_accessed_on_every_hit_and_fill() {
        let mut p = tiny();
        p.on_fill(&acc(1 << 2, 0), 0);
        p.on_hit(&acc(1 << 2, 0), 0);
        p.on_hit(&acc(1 << 2, 0), 0);
        assert_eq!(p.prediction_table_accesses(), 3, "1 fill read + 2 hit updates");
    }

    #[test]
    fn intra_burst_hits_saturate_counter() {
        // The paper's Observation 2: many hits from one residency saturate
        // the signature counter, masking the eventual death.
        let mut p = tiny();
        let pc = 0x400300;
        p.on_fill(&acc(pc, 0), 0);
        for _ in 0..16 {
            p.on_hit(&acc(pc, 0), 0);
        }
        let sig = p.signature(pc) as usize;
        assert_eq!(p.shct[sig], p.counter_max, "counter saturates high from burst hits");
        // Even after several dead evictions, the counter stays positive.
        for _ in 0..3 {
            p.on_fill(&acc(pc, 0), 1);
            p.on_evict(0, 1);
        }
        assert!(p.shct[sig] > 0, "the dead pattern is masked — SHiP's TLB failure mode");
    }

    #[test]
    fn storage_accounts_tables_and_metadata() {
        let p = ShipTlb::new(TlbGeometry::default(), ShipConfig::default());
        let s = p.storage();
        assert_eq!(s.table_bits, 3 << 14);
        assert_eq!(s.metadata_bits, (14 + 1 + 2) * 1024);
    }
}
