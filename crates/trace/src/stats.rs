//! Summary statistics over a trace — used by tests, the suite builder and
//! the experiment reports to sanity-check generated workloads.

use crate::record::{InstrKind, TraceRecord};
use std::collections::HashSet;

/// Aggregate statistics for a trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceStats {
    /// Total records.
    pub instructions: u64,
    /// Loads.
    pub loads: u64,
    /// Stores.
    pub stores: u64,
    /// Conditional branches.
    pub cond_branches: u64,
    /// Taken conditional branches.
    pub cond_taken: u64,
    /// Unconditional control flow (jumps, calls, returns).
    pub uncond_branches: u64,
    /// Distinct instruction pages.
    pub code_pages: u64,
    /// Distinct data pages.
    pub data_pages: u64,
}

impl TraceStats {
    /// Computes statistics over `trace`.
    pub fn from_trace(trace: &[TraceRecord]) -> Self {
        let mut stats = TraceStats::default();
        let mut code = HashSet::new();
        let mut data = HashSet::new();
        for r in trace {
            stats.instructions += 1;
            code.insert(r.code_vpn());
            match r.kind {
                InstrKind::Load => {
                    stats.loads += 1;
                }
                InstrKind::Store => {
                    stats.stores += 1;
                }
                InstrKind::CondBranch => {
                    stats.cond_branches += 1;
                    if r.taken {
                        stats.cond_taken += 1;
                    }
                }
                InstrKind::Alu => {}
                _ => {
                    stats.uncond_branches += 1;
                }
            }
            if let Some(v) = r.data_vpn() {
                data.insert(v);
            }
        }
        stats.code_pages = code.len() as u64;
        stats.data_pages = data.len() as u64;
        stats
    }

    /// Fraction of instructions that access data memory.
    pub fn memory_ratio(&self) -> f64 {
        if self.instructions == 0 {
            return 0.0;
        }
        (self.loads + self.stores) as f64 / self.instructions as f64
    }

    /// Fraction of instructions that are branches of any kind.
    pub fn branch_ratio(&self) -> f64 {
        if self.instructions == 0 {
            return 0.0;
        }
        (self.cond_branches + self.uncond_branches) as f64 / self.instructions as f64
    }

    /// Total data footprint in pages times the page size, in bytes.
    pub fn data_footprint_bytes(&self) -> u64 {
        self.data_pages * crate::PAGE_SIZE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_each_kind() {
        let trace = vec![
            TraceRecord::alu(0x1000),
            TraceRecord::load(0x1004, 0xa000),
            TraceRecord::store(0x1008, 0xb000),
            TraceRecord::cond_branch(0x100c, 0x1000, true),
            TraceRecord::cond_branch(0x100c, 0x1010, false),
            TraceRecord::call(0x1010, 0x2000),
            TraceRecord::ret(0x2004, 0x1014),
        ];
        let s = TraceStats::from_trace(&trace);
        assert_eq!(s.instructions, 7);
        assert_eq!(s.loads, 1);
        assert_eq!(s.stores, 1);
        assert_eq!(s.cond_branches, 2);
        assert_eq!(s.cond_taken, 1);
        assert_eq!(s.uncond_branches, 2);
        assert_eq!(s.code_pages, 2);
        assert_eq!(s.data_pages, 2);
        assert!((s.memory_ratio() - 2.0 / 7.0).abs() < 1e-12);
        assert!((s.branch_ratio() - 4.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_is_all_zero() {
        let s = TraceStats::from_trace(&[]);
        assert_eq!(s, TraceStats::default());
        assert_eq!(s.memory_ratio(), 0.0);
        assert_eq!(s.branch_ratio(), 0.0);
    }
}
