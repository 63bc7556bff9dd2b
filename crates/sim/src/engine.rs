//! The trace-driven, timing-approximate simulator core.
//!
//! For each instruction the engine charges one base cycle plus the
//! first-order penalties of the paper's model (§V): instruction and data
//! address translation through the TLB hierarchy (L2 hit latency and page
//! walks), cache-hierarchy latency beyond an L1 hit, and the branch-unit
//! misprediction penalty. Retired branches are forwarded to the L2 TLB
//! policy so history-based policies (GHRP, CHiRP) can maintain their
//! registers — mirroring commit-time history updates (§VI-E).

use crate::config::SimConfig;
use crate::metrics::RunResult;
use chirp_branch::BranchUnit;
use chirp_mem::MemoryHierarchy;
use chirp_tlb::{TlbHierarchy, TlbReplacementPolicy, TlbStats, TranslationKind};
use chirp_trace::{vpn, InstrKind, PackedTrace, StreamError, TraceChunk, TraceRecord, TraceStream};

/// Records streamed per [`TraceChunk`] by the columnar run loop. Large
/// enough to amortise per-chunk bookkeeping, small enough that the chunk's
/// columns stay resident in L1/L2 cache while it is consumed.
pub(crate) const CHUNK_SIZE: usize = 4096;

/// The assembled machine model, generic over the L2 TLB replacement
/// policy so the whole per-instruction chain monomorphizes (callers
/// usually pass a [`crate::PolicyDispatch`]).
pub struct Simulator<P: TlbReplacementPolicy> {
    mem: MemoryHierarchy,
    branch: BranchUnit,
    tlbs: TlbHierarchy<P>,
    cycles: u64,
    instructions: u64,
}

impl<P: TlbReplacementPolicy> std::fmt::Debug for Simulator<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("cycles", &self.cycles)
            .field("instructions", &self.instructions)
            .finish()
    }
}

/// The instruction index at which the measured window opens: the first
/// `warmup_fraction` of a `len`-record trace warms the structures. Every
/// engine cuts at this index, so their results agree bit for bit.
pub(crate) fn warmup_cut(len: usize, warmup_fraction: f64) -> usize {
    (((len as f64) * warmup_fraction.clamp(0.0, 1.0)) as usize).min(len)
}

impl<P: TlbReplacementPolicy> Simulator<P> {
    /// Builds a simulator with the given L2 TLB replacement policy,
    /// monomorphized over the policy's concrete type.
    pub fn with_policy(config: &SimConfig, l2_policy: P) -> Self {
        Simulator {
            mem: MemoryHierarchy::new(config.mem),
            branch: BranchUnit::new(config.branch),
            tlbs: TlbHierarchy::new(config.tlb, l2_policy),
            cycles: 0,
            instructions: 0,
        }
    }

    /// Executes one instruction, accumulating cycles.
    #[inline]
    pub fn step(&mut self, rec: &TraceRecord) {
        self.instructions += 1;
        let mut cycles = 1u64;

        // Instruction side: translate the fetch PC, then fetch.
        cycles += self.tlbs.translate(rec.pc, vpn(rec.pc), TranslationKind::Instruction).cycles;
        let fetch_latency = self.mem.fetch(rec.pc);
        cycles += self.cache_penalty(fetch_latency);

        // Data side.
        if rec.kind.is_memory() {
            let ea = rec.effective_address;
            cycles += self.tlbs.translate(rec.pc, vpn(ea), TranslationKind::Data).cycles;
            let lat = match rec.kind {
                InstrKind::Load => self.mem.load(ea),
                InstrKind::Store => self.mem.store(ea),
                _ => unreachable!("is_memory() covers loads and stores only"),
            };
            cycles += self.cache_penalty(lat);
        }

        // Control flow: predict, train, and charge mispredictions.
        let penalty = self.branch.observe(rec);
        cycles += penalty;
        if penalty > 0 {
            self.tlbs.on_mispredict(rec.pc);
        }
        if let Some(class) = rec.kind.branch_class() {
            self.tlbs.on_branch(rec.pc, class, rec.taken);
        }

        self.cycles += cycles;
    }

    /// Latency beyond an L1 hit — an L1 hit is covered by the pipeline.
    #[inline]
    fn cache_penalty(&self, latency: u64) -> u64 {
        latency.saturating_sub(4)
    }

    /// Runs a [`PackedTrace`], warming on the first `warmup_fraction` and
    /// measuring the rest. The trace is walked in struct-of-arrays chunks
    /// ([`PackedTrace::chunks`]) so the loop reads the pc/kind/taken
    /// columns directly.
    ///
    /// This is the reference loop: every other engine (streamed,
    /// factored, the OPT back end) is pinned bit-identical to it by
    /// `tests/equivalence_matrix.rs`.
    pub fn run_columnar(&mut self, trace: &PackedTrace, warmup_fraction: f64) -> RunResult {
        let warmup = warmup_cut(trace.len(), warmup_fraction);
        let mut window = None;
        let mut pos = 0usize;
        for chunk in trace.chunks(CHUNK_SIZE) {
            self.step_window(&chunk, &mut pos, warmup, &mut window);
        }
        let window = window.unwrap_or_else(|| self.window_start());
        self.finish_result(window)
    }

    /// Steps one chunk that starts at absolute record `pos`, opening the
    /// measured window mid-chunk (via [`TraceChunk::split_at`]) when the
    /// chunk contains the `warmup` cut.
    #[inline]
    fn step_window(
        &mut self,
        chunk: &TraceChunk<'_>,
        pos: &mut usize,
        warmup: usize,
        window: &mut Option<(u64, u64, TlbStats)>,
    ) {
        if window.is_none() && warmup <= *pos + chunk.len() {
            let (head, tail) = chunk.split_at(warmup - *pos);
            self.step_chunk(&head);
            *window = Some(self.window_start());
            self.step_chunk(&tail);
        } else {
            self.step_chunk(chunk);
        }
        *pos += chunk.len();
    }

    /// Steps every record of one columnar chunk.
    #[inline]
    fn step_chunk(&mut self, chunk: &TraceChunk<'_>) {
        for rec in chunk.records() {
            self.step(&rec);
        }
    }

    /// Runs a streamed trace, pulling bounded batches on demand — peak
    /// trace residency is O(chunk) instead of O(trace). Produces a
    /// [`RunResult`] bit-identical to [`run_columnar`](Self::run_columnar)
    /// on the materialized trace: batch boundaries carry no simulation
    /// meaning, and the warmup window is cut at the same absolute
    /// instruction index (computed from [`TraceStream::len`]). A stream
    /// that ends early closes the measured window at its actual end.
    ///
    /// # Errors
    ///
    /// Propagates the stream's first error (decode, I/O, integrity);
    /// the simulator state is then mid-trace and the run must be retried
    /// on a fresh simulator.
    pub fn run_stream<S: TraceStream + ?Sized>(
        &mut self,
        stream: &mut S,
        warmup_fraction: f64,
    ) -> Result<RunResult, StreamError> {
        let warmup = warmup_cut(stream.len(), warmup_fraction);
        let mut window = None;
        let mut pos = 0usize;
        while let Some(batch) = stream.next_batch()? {
            for chunk in batch.chunks(CHUNK_SIZE) {
                self.step_window(&chunk, &mut pos, warmup, &mut window);
            }
        }
        let window = window.unwrap_or_else(|| self.window_start());
        Ok(self.finish_result(window))
    }

    /// Snapshot of machine state at the start of the measured window.
    fn window_start(&self) -> (u64, u64, TlbStats) {
        (self.cycles, self.instructions, self.tlbs.l2().stats())
    }

    /// Assembles the [`RunResult`] for the window opened by
    /// [`window_start`](Self::window_start).
    fn finish_result(&self, (cycles0, instructions0, stats0): (u64, u64, TlbStats)) -> RunResult {
        let stats1 = self.tlbs.l2().stats();
        let measured = TlbStats {
            hits: stats1.hits - stats0.hits,
            misses: stats1.misses - stats0.misses,
            dead_evictions: stats1.dead_evictions - stats0.dead_evictions,
            cold_fills: stats1.cold_fills - stats0.cold_fills,
        };
        RunResult {
            policy: self.tlbs.l2().policy().name().to_string(),
            instructions: self.instructions - instructions0,
            cycles: self.cycles - cycles0,
            l2_tlb: measured,
            l2_accesses: measured.accesses(),
            prediction_table_accesses: self.tlbs.l2().policy().prediction_table_accesses(),
            l2_accesses_total: stats1.accesses(),
            efficiency: self.tlbs.l2().efficiency(),
        }
    }

    /// Total cycles so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Total instructions so far.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// The TLB hierarchy (for experiment-specific inspection).
    pub fn tlbs(&self) -> &TlbHierarchy<P> {
        &self.tlbs
    }

    /// Branch unit statistics.
    pub fn branch_stats(&self) -> chirp_branch::BranchStats {
        self.branch.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::PolicyKind;
    use chirp_trace::gen::{ContextCopy, SpecLoops, WorkloadGen};

    fn run(policy: PolicyKind, trace: &PackedTrace) -> RunResult {
        let config = SimConfig::default();
        let mut sim = Simulator::with_policy(&config, policy.build_dispatch(config.tlb.l2, 0));
        sim.run_columnar(trace, 0.5)
    }

    #[test]
    fn cycles_advance_and_ipc_is_sane() {
        let trace = SpecLoops::default().generate_packed(50_000, 0);
        let r = run(PolicyKind::Lru, &trace);
        assert_eq!(r.instructions, 25_000);
        // This workload is deliberately memory-bound (cyclic 2048-page
        // footprint), so IPC is low but must stay within physical bounds.
        let ipc = r.ipc();
        assert!(ipc > 0.001 && ipc <= 1.0, "IPC {ipc} out of plausible range");
    }

    #[test]
    fn small_footprint_has_near_zero_mpki() {
        let g = SpecLoops { arrays: 1, pages_per_array: 16, ..Default::default() };
        let trace = g.generate_packed(100_000, 0);
        let r = run(PolicyKind::Lru, &trace);
        assert!(r.mpki() < 0.5, "tiny working set must fit: MPKI {}", r.mpki());
    }

    #[test]
    fn thrashing_footprint_has_high_mpki() {
        let g = SpecLoops { arrays: 4, pages_per_array: 1024, ..Default::default() };
        let trace = g.generate_packed(200_000, 0);
        let r = run(PolicyKind::Lru, &trace);
        assert!(r.mpki() > 1.0, "4096 cyclic pages must thrash LRU: MPKI {}", r.mpki());
    }

    #[test]
    fn determinism() {
        let trace = ContextCopy::default().generate_packed(30_000, 3);
        let a = run(PolicyKind::Lru, &trace);
        let b = run(PolicyKind::Lru, &trace);
        assert_eq!(a, b);
    }

    #[test]
    fn streamed_run_matches_columnar_run() {
        let g = ContextCopy::default();
        let trace = g.generate_packed(40_000, 9);
        let config = SimConfig::default();
        for chunk in [1usize, 777, 4096, 100_000] {
            let mut columnar = Simulator::with_policy(
                &config,
                PolicyKind::Chirp(Default::default()).build_dispatch(config.tlb.l2, 0),
            );
            let want = columnar.run_columnar(&trace, 0.5);
            let mut streamed = Simulator::with_policy(
                &config,
                PolicyKind::Chirp(Default::default()).build_dispatch(config.tlb.l2, 0),
            );
            let mut stream = chirp_trace::MaterializedStream::new(&trace, chunk);
            let got = streamed.run_stream(&mut stream, 0.5).unwrap();
            assert_eq!(got, want, "chunk {chunk}");
        }
    }

    #[test]
    fn walk_penalty_scales_cycles() {
        let g = SpecLoops { arrays: 4, pages_per_array: 1024, ..Default::default() };
        let trace = g.generate_packed(100_000, 0);
        let slow_cfg = SimConfig::default().with_walk_penalty(340);
        let fast_cfg = SimConfig::default().with_walk_penalty(20);
        let mut slow =
            Simulator::with_policy(&slow_cfg, PolicyKind::Lru.build_dispatch(slow_cfg.tlb.l2, 0));
        let mut fast =
            Simulator::with_policy(&fast_cfg, PolicyKind::Lru.build_dispatch(fast_cfg.tlb.l2, 0));
        let rs = slow.run_columnar(&trace, 0.5);
        let rf = fast.run_columnar(&trace, 0.5);
        assert!(rs.cycles > rf.cycles, "larger walk penalty must cost cycles");
    }
}
