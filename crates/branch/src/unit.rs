//! The branch unit facade: routes each control-flow instruction to the
//! right predictor, checks the prediction against the trace outcome and
//! accounts the misprediction penalty.

use crate::btb::Btb;
use crate::indirect::IndirectPredictor;
use crate::perceptron::HashedPerceptron;
use crate::ras::ReturnAddressStack;
use chirp_trace::{InstrKind, TraceRecord};

/// Branch unit configuration (paper Table II: hashed perceptron, 4K-entry
/// BTB, 20-cycle miss penalty).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchConfig {
    /// Perceptron weight tables.
    pub perceptron_tables: usize,
    /// log2 entries per weight table.
    pub perceptron_table_bits: u32,
    /// Total BTB entries.
    pub btb_entries: usize,
    /// BTB associativity.
    pub btb_ways: usize,
    /// log2 entries in the indirect predictor.
    pub indirect_bits: u32,
    /// Return-address-stack depth.
    pub ras_depth: usize,
    /// Cycles charged per misprediction.
    pub mispredict_penalty: u64,
}

impl Default for BranchConfig {
    fn default() -> Self {
        BranchConfig {
            perceptron_tables: 8,
            perceptron_table_bits: 12,
            btb_entries: 4096,
            btb_ways: 8,
            indirect_bits: 12,
            ras_depth: 32,
            mispredict_penalty: 20,
        }
    }
}

/// Outcome counters for the branch unit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BranchStats {
    /// Correctly predicted control-flow instructions.
    pub correct: u64,
    /// Mispredicted control-flow instructions (direction or target).
    pub mispredicted: u64,
    /// Cycles of misprediction penalty accumulated.
    pub penalty_cycles: u64,
}

impl BranchStats {
    /// Mispredictions per 1000 instructions, given the total instruction
    /// count of the run.
    pub fn mpki(&self, instructions: u64) -> f64 {
        if instructions == 0 {
            0.0
        } else {
            self.mispredicted as f64 * 1000.0 / instructions as f64
        }
    }
}

/// The assembled branch prediction unit.
#[derive(Debug, Clone)]
pub struct BranchUnit {
    direction: HashedPerceptron,
    btb: Btb,
    indirect: IndirectPredictor,
    ras: ReturnAddressStack,
    penalty: u64,
    stats: BranchStats,
}

impl BranchUnit {
    /// Builds the unit from `config`.
    pub fn new(config: BranchConfig) -> Self {
        BranchUnit {
            direction: HashedPerceptron::new(
                config.perceptron_tables,
                config.perceptron_table_bits,
            ),
            btb: Btb::new(config.btb_entries, config.btb_ways),
            indirect: IndirectPredictor::new(config.indirect_bits),
            ras: ReturnAddressStack::new(config.ras_depth),
            penalty: config.mispredict_penalty,
            stats: BranchStats::default(),
        }
    }

    /// Processes one instruction. For control flow, predicts, trains and
    /// returns the penalty cycles incurred (0 if predicted correctly or not
    /// a branch).
    pub fn observe(&mut self, rec: &TraceRecord) -> u64 {
        let correct = match rec.kind {
            InstrKind::CondBranch => {
                let predicted_taken = self.direction.update(rec.pc, rec.taken);
                let target_ok =
                    if rec.taken { self.btb.predict_and_update(rec.pc, rec.target) } else { true };
                predicted_taken == rec.taken && target_ok
            }
            InstrKind::DirectJump => self.btb.predict_and_update(rec.pc, rec.target),
            InstrKind::Call => {
                let hit = self.btb.predict_and_update(rec.pc, rec.target);
                self.ras.push(rec.pc + 4);
                hit
            }
            InstrKind::IndirectCall => {
                let predicted = self.indirect.predict(rec.pc);
                self.indirect.update(rec.pc, rec.target);
                self.ras.push(rec.pc + 4);
                predicted == Some(rec.target)
            }
            InstrKind::IndirectJump => {
                let predicted = self.indirect.predict(rec.pc);
                self.indirect.update(rec.pc, rec.target);
                predicted == Some(rec.target)
            }
            InstrKind::Return => self.ras.pop() == Some(rec.target),
            InstrKind::Alu | InstrKind::Load | InstrKind::Store => return 0,
        };
        if correct {
            self.stats.correct += 1;
            0
        } else {
            self.stats.mispredicted += 1;
            self.stats.penalty_cycles += self.penalty;
            self.penalty
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> BranchStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chirp_trace::TraceRecord;

    #[test]
    fn returns_predicted_by_ras() {
        let mut bu = BranchUnit::new(BranchConfig::default());
        // First call misses BTB (penalty) but pairs the return.
        bu.observe(&TraceRecord::call(0x400000, 0x500000));
        let pen = bu.observe(&TraceRecord::ret(0x500040, 0x400004));
        assert_eq!(pen, 0, "return target comes from the RAS");
    }

    #[test]
    fn repeated_direct_jump_becomes_free() {
        let mut bu = BranchUnit::new(BranchConfig::default());
        assert_eq!(bu.observe(&TraceRecord::jump(0x400000, 0x410000)), 20);
        assert_eq!(bu.observe(&TraceRecord::jump(0x400000, 0x410000)), 0);
    }

    #[test]
    fn biased_conditional_learned() {
        let mut bu = BranchUnit::new(BranchConfig::default());
        let mut last_penalty = 0;
        for _ in 0..64 {
            last_penalty = bu.observe(&TraceRecord::cond_branch(0x400100, 0x400000, true));
        }
        assert_eq!(last_penalty, 0);
        assert!(bu.stats().correct >= 60);
    }

    #[test]
    fn not_taken_branch_needs_no_btb() {
        let mut bu = BranchUnit::new(BranchConfig::default());
        for _ in 0..64 {
            bu.observe(&TraceRecord::cond_branch(0x400200, 0x400300, false));
        }
        // After warmup, the not-taken branch costs nothing even though the
        // BTB never learned its target.
        let pen = bu.observe(&TraceRecord::cond_branch(0x400200, 0x400300, false));
        assert_eq!(pen, 0);
    }

    #[test]
    fn non_branches_cost_nothing() {
        let mut bu = BranchUnit::new(BranchConfig::default());
        assert_eq!(bu.observe(&TraceRecord::alu(0x400000)), 0);
        assert_eq!(bu.observe(&TraceRecord::load(0x400004, 0x1000)), 0);
        assert_eq!(bu.stats(), BranchStats::default());
    }

    #[test]
    fn penalty_cycles_accumulate() {
        let mut bu = BranchUnit::new(BranchConfig::default());
        bu.observe(&TraceRecord::jump(0x400000, 0x410000)); // miss
        bu.observe(&TraceRecord::jump(0x400008, 0x420000)); // miss
        assert_eq!(bu.stats().penalty_cycles, 40);
        assert_eq!(bu.stats().mispredicted, 2);
    }
}
