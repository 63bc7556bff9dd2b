//! Figure 3 + §III-A: offline ADALINE weight analysis of PC bits.
//!
//! For each benchmark, reuse events (the PC that inserted an L2 TLB entry,
//! and whether the entry was hit before eviction) are recorded under LRU
//! replacement; an L1-regularised ADALINE is trained on the PC bits, and
//! the normalised |weight| per bit forms one heat-map row.

use crate::config::SimConfig;
use crate::engine::Simulator;
use crate::runner::RunnerConfig;
use chirp_learn::{train_on_events, ReuseEvent, WeightProfile};
use chirp_mem::LruStack;
use chirp_tlb::{PolicyStorage, TlbAccess, TlbGeometry, TlbReplacementPolicy};
use chirp_trace::suite::BenchmarkSpec;

/// Number of PC bits analysed (paper Figure 3 spans the low PC bits).
pub const PC_BITS: usize = 24;

/// LRU replacement instrumented to record (inserting PC → reused?) events.
pub struct ReuseRecorder {
    lru: Vec<LruStack>,
    geometry: TlbGeometry,
    insert_pc: Vec<u64>,
    reused: Vec<bool>,
    occupied: Vec<bool>,
    events: Vec<ReuseEvent>,
}

impl ReuseRecorder {
    /// Creates the recorder for `geometry`.
    pub fn new(geometry: TlbGeometry) -> Self {
        ReuseRecorder {
            lru: (0..geometry.sets()).map(|_| LruStack::new(geometry.ways)).collect(),
            insert_pc: vec![0; geometry.entries],
            reused: vec![false; geometry.entries],
            occupied: vec![false; geometry.entries],
            events: Vec::new(),
            geometry,
        }
    }

    #[inline]
    fn idx(&self, set: usize, way: usize) -> usize {
        set * self.geometry.ways + way
    }

    fn close(&mut self, i: usize) {
        if self.occupied[i] {
            self.events.push(ReuseEvent { pc: self.insert_pc[i], reused: self.reused[i] });
        }
    }

    /// The recorded events (call after the simulation).
    pub fn events(&self) -> &[ReuseEvent] {
        &self.events
    }
}

impl TlbReplacementPolicy for ReuseRecorder {
    fn name(&self) -> &str {
        "lru-reuse-recorder"
    }

    fn choose_victim(&mut self, acc: &TlbAccess) -> usize {
        self.lru[acc.set].lru()
    }

    fn on_hit(&mut self, acc: &TlbAccess, way: usize) {
        let i = self.idx(acc.set, way);
        self.reused[i] = true;
        self.lru[acc.set].touch(way);
    }

    fn on_evict(&mut self, set: usize, way: usize) {
        let i = self.idx(set, way);
        self.close(i);
        self.occupied[i] = false;
    }

    fn on_fill(&mut self, acc: &TlbAccess, way: usize) {
        let i = self.idx(acc.set, way);
        self.insert_pc[i] = acc.pc;
        self.reused[i] = false;
        self.occupied[i] = true;
        self.lru[acc.set].touch(way);
    }

    fn storage(&self) -> PolicyStorage {
        PolicyStorage::default()
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

/// The Figure 3 result: one weight profile per benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig3Result {
    /// One row per benchmark.
    pub profiles: Vec<WeightProfile>,
    /// Mean normalised weight per PC bit across benchmarks.
    pub mean_weight_per_bit: Vec<f64>,
}

/// Runs the ADALINE study over `suite`.
pub fn run(suite: &[BenchmarkSpec], config: &RunnerConfig) -> Fig3Result {
    let mut profiles = Vec::with_capacity(suite.len());
    for bench in suite {
        let trace = bench.generate_packed(config.instructions);
        let sim_cfg: SimConfig = config.sim;
        let recorder = ReuseRecorder::new(sim_cfg.tlb.l2);
        let mut sim = Simulator::with_policy(&sim_cfg, recorder);
        let _ = sim.run_columnar(&trace, 0.0);
        let recorder = sim.tlbs().l2().policy();
        profiles.push(train_on_events(bench.name.clone(), recorder.events(), PC_BITS));
    }
    let mut mean_weight_per_bit = vec![0.0; PC_BITS];
    for p in &profiles {
        for (i, w) in p.weights.iter().enumerate() {
            mean_weight_per_bit[i] += w / profiles.len() as f64;
        }
    }
    Fig3Result { profiles, mean_weight_per_bit }
}

/// Renders the heat map (one row per benchmark, one column per PC bit).
pub fn render(result: &Fig3Result) -> String {
    let shades = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];
    let mut out = String::new();
    out.push_str("Figure 3: ADALINE |weight| per PC bit (columns = bits 0..24)\n");
    out.push_str(&format!("{:>32}  {}\n", "benchmark", "012345678901234567890123"));
    for p in &result.profiles {
        let mut row = String::new();
        for w in &p.weights {
            row.push(shades[((w * 9.0).round() as usize).min(9)]);
        }
        let name: String = p.benchmark.chars().take(32).collect();
        out.push_str(&format!("{name:>32}  {row}  (acc {:.2})\n", p.accuracy));
    }
    out.push_str("\nmean weight per bit:\n");
    for (i, w) in result.mean_weight_per_bit.iter().enumerate() {
        out.push_str(&format!("  bit {i:>2}: {:<40} {w:.3}\n", "#".repeat((w * 40.0) as usize)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use chirp_trace::suite::{build_suite, SuiteConfig};

    #[test]
    fn produces_one_profile_per_benchmark() {
        let suite = build_suite(&SuiteConfig { benchmarks: 3 });
        let config = RunnerConfig { instructions: 100_000, threads: 1, ..Default::default() };
        let result = run(&suite, &config);
        assert_eq!(result.profiles.len(), 3);
        for p in &result.profiles {
            assert_eq!(p.weights.len(), PC_BITS);
            assert!(p.weights.iter().all(|w| (0.0..=1.0).contains(w)));
        }
        assert_eq!(result.mean_weight_per_bit.len(), PC_BITS);
        assert!(render(&result).contains("ADALINE"));
    }

    #[test]
    fn recorder_emits_events_with_correct_reuse_flags() {
        use chirp_tlb::{L2Tlb, TranslationKind};
        let geom = TlbGeometry { entries: 4, ways: 2 };
        let mut tlb = L2Tlb::new(geom, Box::new(ReuseRecorder::new(geom)));
        // vpn 0: inserted by pc 0x100, reused; vpns 2,4 (same set) evict it.
        tlb.access(0x100, 0, TranslationKind::Data);
        tlb.access(0x104, 0, TranslationKind::Data); // hit
        tlb.access(0x108, 2, TranslationKind::Data);
        tlb.access(0x10c, 4, TranslationKind::Data); // evicts vpn 0
        let rec = tlb.policy().as_any().and_then(|a| a.downcast_ref::<ReuseRecorder>()).unwrap();
        assert_eq!(rec.events().len(), 1);
        assert_eq!(rec.events()[0], ReuseEvent { pc: 0x100, reused: true });
    }
}
