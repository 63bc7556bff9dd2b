//! The CHiRP replacement policy (paper §IV, Algorithm 5).
//!
//! Per-entry metadata: a 16-bit signature, a dead bit, a first-hit flag and
//! the 3-bit LRU position the fallback needs (paper §IV-C). Operation:
//!
//! * **miss** — the victim is the first predicted-dead entry, else the LRU
//!   entry; *only* an LRU-fallback eviction trains the table (increment
//!   under the victim's stored signature: it just proved dead, §IV-D(b));
//!   the incoming entry reads the table under its fresh signature to set
//!   its dead bit (§IV-D(c)).
//! * **hit** — only the *first* hit trains (decrement under the stored
//!   signature: it proved live), and only when the accessed set differs
//!   from the last-accessed set (*selective hit update*, §III/§VI-B);
//!   every hit refreshes the stored signature and LRU position.
//! * every L2 access shifts `pc[3:2]` into the path history; every retired
//!   conditional (resp. indirect) branch shifts `pc[11:4]` into its
//!   history register.

use crate::config::ChirpConfig;
use crate::signature::{table_index, SignatureBuilder};
use crate::table::PredictionTable;
use chirp_mem::PackedLru;
use chirp_tlb::{History, PolicyStorage, TlbAccess, TlbGeometry, TlbReplacementPolicy};
use chirp_trace::BranchClass;

#[derive(Debug, Clone, Copy, Default)]
struct EntryMeta {
    signature: u16,
    dead: bool,
    first_hit_pending: bool,
}

/// Extra CHiRP-specific counters surfaced for the evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChirpCounters {
    /// Evictions that picked a predicted-dead entry.
    pub dead_evictions: u64,
    /// Evictions that fell back to LRU (each trains the table).
    pub lru_evictions: u64,
    /// Hits whose table update was suppressed by selective hit update.
    pub suppressed_hit_updates: u64,
}

/// Control-flow History Reuse Prediction.
pub struct Chirp {
    config: ChirpConfig,
    geometry: TlbGeometry,
    signatures: SignatureBuilder,
    table: PredictionTable,
    meta: Vec<EntryMeta>,
    lru: PackedLru,
    last_set: Option<usize>,
    counters: ChirpCounters,
    /// Signature handed in by a factored front end for the next access
    /// ([`TlbReplacementPolicy::supply_key`]); `None` outside replay, in
    /// which case `on_hit`/`on_fill` compute it from the policy's own
    /// history registers as always.
    pending_sig: Option<u16>,
}

impl std::fmt::Debug for Chirp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Chirp")
            .field("config", &self.config)
            .field("counters", &self.counters)
            .finish()
    }
}

impl Chirp {
    /// Builds the policy for `geometry` with `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config.validate()` fails.
    pub fn new(geometry: TlbGeometry, config: ChirpConfig) -> Self {
        if let Err(msg) = config.validate() {
            panic!("invalid ChirpConfig: {msg}");
        }
        Chirp {
            signatures: SignatureBuilder::new(&config),
            table: PredictionTable::new(config.table_entries, config.counter_bits),
            meta: vec![EntryMeta::default(); geometry.entries],
            lru: PackedLru::new(geometry.sets(), geometry.ways),
            last_set: None,
            counters: ChirpCounters::default(),
            pending_sig: None,
            config,
            geometry,
        }
    }

    #[inline]
    fn idx(&self, set: usize, way: usize) -> usize {
        set * self.geometry.ways + way
    }

    /// CHiRP-specific counters.
    pub fn counters(&self) -> ChirpCounters {
        self.counters
    }

    /// The active configuration.
    pub fn config(&self) -> &ChirpConfig {
        &self.config
    }

    /// The prediction table (diagnostics).
    pub fn table(&self) -> &PredictionTable {
        &self.table
    }

    /// The policy's own signature registers (diagnostics).
    pub fn signatures(&self) -> &SignatureBuilder {
        &self.signatures
    }

    /// The signature of an access at `pc`: the supplied one in factored
    /// replay, else the policy's own registers', which then fold the
    /// access in.
    #[inline]
    fn signature(&mut self, pc: u64) -> u16 {
        self.pending_sig.take().unwrap_or_else(|| self.signatures.key(pc))
    }

    #[inline]
    fn predict_dead(&mut self, sig: u16) -> bool {
        let idx = table_index(sig, self.config.table_entries);
        self.table.read(idx) > self.config.dead_threshold
    }
}

impl TlbReplacementPolicy for Chirp {
    fn name(&self) -> &str {
        "chirp"
    }

    #[inline]
    fn choose_victim(&mut self, acc: &TlbAccess) -> usize {
        // Algorithm 5, VICTIMENTRY: first dead entry, else LRU.
        for way in 0..self.geometry.ways {
            if self.meta[self.idx(acc.set, way)].dead {
                self.counters.dead_evictions += 1;
                return way;
            }
        }
        self.counters.lru_evictions += 1;
        self.lru.lru(acc.set)
    }

    fn on_evict(&mut self, set: usize, way: usize) {
        let m = self.meta[self.idx(set, way)];
        // Only LRU-fallback victims train the table: the predictor failed
        // to flag them, so their signature just proved dead (lines 10–12).
        if !m.dead {
            let idx = table_index(m.signature, self.config.table_entries);
            self.table.increment(idx);
        }
    }

    fn on_hit(&mut self, acc: &TlbAccess, way: usize) {
        let new_sig = self.signature(acc.pc);
        let i = self.idx(acc.set, way);
        let qualifies = !self.config.selective_hit_update || self.last_set != Some(acc.set);
        let wants_update = self.meta[i].first_hit_pending || !self.config.first_hit_only;
        if wants_update {
            if qualifies {
                // The entry proved live under its stored signature: train
                // down (lines 15–17), then refresh the dead bit under the
                // new signature (line 18).
                let old_idx = table_index(self.meta[i].signature, self.config.table_entries);
                self.table.decrement(old_idx);
                let dead = self.predict_dead(new_sig);
                let m = &mut self.meta[i];
                m.dead = dead;
                m.first_hit_pending = false;
            } else {
                self.counters.suppressed_hit_updates += 1;
            }
        }
        // Every hit refreshes the stored signature and recency (line 20-21).
        self.meta[i].signature = new_sig;
        self.lru.touch(acc.set, way);
        self.last_set = Some(acc.set);
    }

    fn on_fill(&mut self, acc: &TlbAccess, way: usize) {
        let sig = self.signature(acc.pc);
        let dead = self.predict_dead(sig);
        let i = self.idx(acc.set, way);
        self.meta[i] = EntryMeta { signature: sig, dead, first_hit_pending: true };
        self.lru.touch(acc.set, way);
        self.last_set = Some(acc.set);
    }

    fn on_branch(&mut self, pc: u64, class: BranchClass, _taken: bool) {
        // The signature relies on bits from the branch PC, not outcomes or
        // targets (paper §IV-B note).
        self.signatures.record_branch(pc, class);
    }

    fn on_mispredict(&mut self, pc: u64) {
        // Committed history: nothing, unless the configuration models
        // wrong-path pollution (`SignatureBuilder::on_mispredict`).
        self.signatures.on_mispredict(pc);
    }

    fn prediction_table_accesses(&self) -> u64 {
        self.table.accesses()
    }

    fn dead_eviction_count(&self) -> u64 {
        self.counters.dead_evictions
    }

    fn predicts_dead(&self, set: usize, way: usize) -> Option<bool> {
        Some(self.meta[self.idx(set, way)].dead)
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    /// The signature registers in this configuration's shape: branches
    /// and wrong-path pollution only matter through the signatures, so a
    /// front end running the same registers hands over everything this
    /// policy reads of the control flow.
    fn history(&self) -> Option<History> {
        Some(History::Signature(self.config.signature_spec()))
    }

    #[inline]
    fn supply_key(&mut self, sig: u16) {
        self.pending_sig = Some(sig);
    }

    fn storage(&self) -> PolicyStorage {
        let entries = self.geometry.entries as u64;
        let lru_bits = (self.geometry.ways as f64).log2().ceil() as u64;
        PolicyStorage {
            // Table I: 1 prediction bit + 16 signature bits (+ LRU bits the
            // baseline also needs) per entry.
            metadata_bits: (1 + 16 + lru_bits) * entries,
            register_bits: self.signatures.storage_bits(),
            table_bits: self.config.table_entries as u64 * u64::from(self.config.counter_bits),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chirp_tlb::TranslationKind;

    fn geom() -> TlbGeometry {
        TlbGeometry { entries: 16, ways: 4 }
    }

    fn acc(pc: u64, set: usize) -> TlbAccess {
        TlbAccess { pc, vpn: set as u64, kind: TranslationKind::Data, set }
    }

    fn chirp() -> Chirp {
        Chirp::new(geom(), ChirpConfig::default())
    }

    #[test]
    fn lru_fallback_eviction_trains_up() {
        let mut p = chirp();
        p.on_fill(&acc(0x400, 0), 0);
        let sig = p.meta[0].signature;
        let idx = table_index(sig, p.config.table_entries);
        let before = p.table.peek(idx);
        assert!(!p.meta[0].dead);
        p.on_evict(0, 0); // not dead -> LRU fallback -> increment
        assert_eq!(p.table.peek(idx), before + 1);
    }

    #[test]
    fn dead_eviction_does_not_train() {
        let mut p = chirp();
        p.on_fill(&acc(0x400, 0), 0);
        p.meta[0].dead = true;
        let idx = table_index(p.meta[0].signature, p.config.table_entries);
        let before = p.table.peek(idx);
        p.on_evict(0, 0);
        assert_eq!(p.table.peek(idx), before, "dead-predicted victims do not update");
    }

    #[test]
    fn victim_prefers_dead_then_lru() {
        let mut p = chirp();
        for way in 0..4 {
            p.on_fill(&acc(0x400 + way as u64 * 4, 0), way);
        }
        assert_eq!(p.choose_victim(&acc(0, 0)), p.lru.lru(0));
        let i = p.idx(0, 2);
        p.meta[i].dead = true;
        assert_eq!(p.choose_victim(&acc(0, 0)), 2);
        assert_eq!(p.counters().dead_evictions, 1);
        assert_eq!(p.counters().lru_evictions, 1);
    }

    #[test]
    fn first_hit_trains_down_once() {
        let mut p = chirp();
        p.on_fill(&acc(0x400, 0), 0);
        // Saturate the signature's counter up first so the decrement shows.
        let sig0 = p.meta[0].signature;
        let idx0 = table_index(sig0, p.config.table_entries);
        p.table.increment(idx0);
        p.table.increment(idx0);
        // Access a *different* set in between (selective hit update).
        p.on_fill(&acc(0x500, 1), 0);
        let before = p.table.peek(idx0);
        p.on_hit(&acc(0x400, 0), 0);
        assert_eq!(p.table.peek(idx0), before - 1, "first qualifying hit decrements");
        // A second hit (after another set) must not train again.
        p.on_fill(&acc(0x500, 1), 1);
        let t_before = p.table.accesses();
        p.on_hit(&acc(0x400, 0), 0);
        assert_eq!(p.table.accesses(), t_before, "non-first hits skip the table");
    }

    #[test]
    fn selective_hit_update_suppresses_same_set_hits() {
        let mut p = chirp();
        p.on_fill(&acc(0x400, 3), 0);
        // Consecutive hit to the same set: table untouched, update pending.
        let t_before = p.table.accesses();
        p.on_hit(&acc(0x404, 3), 0);
        assert_eq!(p.table.accesses(), t_before);
        assert_eq!(p.counters().suppressed_hit_updates, 1);
        assert!(p.meta[p.idx(3, 0)].first_hit_pending, "update stays pending");
        // After touching another set, the next hit trains.
        p.on_fill(&acc(0x500, 2), 0);
        p.on_hit(&acc(0x404, 3), 0);
        assert!(!p.meta[p.idx(3, 0)].first_hit_pending);
    }

    #[test]
    fn saturated_signature_predicts_dead_on_fill() {
        let mut p = chirp();
        // Evict the same context repeatedly until its counter saturates.
        for _ in 0..4 {
            p.on_fill(&acc(0x400, 0), 0);
            // Reset path history effect by using a fresh policy state is
            // overkill; the signature changes as path history shifts, so
            // pin histories by not recording extra accesses here.
            p.on_evict(0, 0);
        }
        // The path history advanced between fills, so signatures differ;
        // drive a stable-signature scenario instead: same PC, empty branch
        // history, path history cycling through the same value.
        let mut q = chirp();
        let sig = q.signatures.signature(0x99000);
        let idx = table_index(sig, q.config.table_entries);
        q.table.increment(idx);
        q.table.increment(idx);
        q.table.increment(idx);
        // counter = 3 > threshold 2 -> dead on fill.
        // Force the same signature by not evolving history between the
        // signature probe and the fill: record_access happens inside
        // on_fill *after* the signature is computed.
        q.on_fill(&acc(0x99000, 0), 0);
        assert!(q.meta[0].dead);
        let _ = p;
    }

    #[test]
    fn storage_matches_table_i_shape() {
        let p = Chirp::new(TlbGeometry::default(), ChirpConfig::default());
        let s = p.storage();
        // 1 pred bit + 16 sig bits + 3 LRU bits per entry, 1024 entries.
        assert_eq!(s.metadata_bits, 20 * 1024);
        // Three 64-bit history registers.
        assert_eq!(s.register_bits, 192);
        // 4096 x 2-bit counters = 1 KB.
        assert_eq!(s.table_bits, 8192);
    }

    #[test]
    fn branch_classes_route_to_the_right_register() {
        let fresh = chirp();
        let mut a = chirp();
        a.on_branch(0xAB0, BranchClass::Conditional, true);
        assert_ne!(a.signatures.signature(0x1234), fresh.signatures.signature(0x1234));
        let mut b = chirp();
        b.on_branch(0xAB0, BranchClass::UnconditionalIndirect, true);
        assert_ne!(b.signatures.signature(0x1234), fresh.signatures.signature(0x1234));
        // Two different conditional-branch *sequences* must diverge even
        // when they end at the same branch.
        let mut c = chirp();
        c.on_branch(0xCD0, BranchClass::Conditional, true);
        c.on_branch(0xAB0, BranchClass::Conditional, true);
        assert_ne!(a.signatures.signature(0x1234), c.signatures.signature(0x1234));
    }
}
