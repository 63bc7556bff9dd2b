//! Factored execution: one policy-invariant front-end pass, N tiny
//! L2-TLB replay back-ends.
//!
//! In this trace-driven in-order model, almost nothing the simulator
//! computes depends on the L2 TLB replacement policy. The branch unit,
//! the cache hierarchy and the private true-LRU L1 TLBs take no policy
//! feedback, so for a given trace the sequence of accesses that miss the
//! L1s and reach the unified L2 — `(pc, vpn, kind)` in order, merged
//! with the retired-branch and misprediction events — is identical for
//! every lineup policy. Even CHiRP's 16-bit signature is a pure function
//! of that invariant stream (paper §IV-B). Only four things differ per
//! policy: L2 hit/miss outcomes, victim choices, the page walks (and
//! PSC state) the misses trigger, and the cycles those walks add.
//!
//! The [`FrontEnd`] therefore walks the trace once and emits a compact
//! [`EventSegment`] stream — per L2 access: vpn, page class
//! (instruction/data), precomputed CHiRP signature and set index; per
//! segment: the instruction count and the policy-invariant cycle total
//! (base + cache penalties + branch penalties + L2-hit latencies).
//! Each [`Backend`] then replays only `L2Tlb::access_at` + walker +
//! residual cycle accounting over that stream. Cycle totals are exact
//! `u64` sums, so splitting them into an invariant part (summed by the
//! front end) and a per-backend walk part reassociates nothing:
//! [`Backend::finish_result`] is bit-identical to
//! `Simulator::run_columnar`, pinned by `tests/equivalence_matrix.rs`.
//!
//! Decoding is burst-structured: 64 records are expanded at a time, page
//! numbers are derived in one pass over the pc/ea columns, and the
//! signature *finalisation* (the multiply/shift/xor of `hash16`) plus
//! the set-index masking run as batched word-parallel passes over the
//! burst's new events — only the history folds themselves stay
//! sequential, because each access's signature depends on the path
//! history left by the previous one.

use crate::config::SimConfig;
use crate::engine::{warmup_cut, CHUNK_SIZE};
use crate::metrics::RunResult;
use chirp_branch::BranchUnit;
use chirp_core::signature::hash16;
use chirp_core::{ChirpConfig, SignatureBuilder};
use chirp_mem::MemoryHierarchy;
use chirp_tlb::{
    L1FrontEnd, L2Tlb, PageWalker, ReplayHints, TlbAccess, TlbReplacementPolicy, TlbStats,
    TranslationKind,
};
use chirp_trace::{
    vpn, BranchClass, DecodedBlock, InstrKind, PackedTrace, StreamError, TraceChunk, TraceStream,
};

/// Records decoded per front-end burst: large enough that the step loop
/// dominates per-burst bookkeeping, small enough that the decoded columns
/// stay in L1 cache.
const BURST: usize = 64;

/// Access events replayed per backend before the next backend takes the
/// same block — keeps every backend's L2 metadata cache-resident while
/// still letting their independent probe chains overlap.
const REPLAY_BLOCK: usize = 256;

/// Control-event kinds, packed into `ctl_kind` (low 2 bits; bit 6 marks
/// a misprediction, bit 7 the taken flag of a branch).
const CTL_COND: u8 = 0;
const CTL_UNCOND_INDIRECT: u8 = 1;
const CTL_UNCOND_DIRECT: u8 = 2;
const CTL_MISPREDICT: u8 = 1 << 6;
const CTL_TAKEN: u8 = 1 << 7;

/// One policy-invariant segment of the L2-TLB event stream, in
/// struct-of-arrays form.
///
/// A segment covers a contiguous run of instructions (the warmup half,
/// the measured half, or one streamed chunk). Access events are the L1
/// misses that reach the unified L2, in program order; control events
/// (retired branches, mispredictions) carry the number of access events
/// emitted before them, so replay can interleave the two streams exactly
/// as the full simulator would.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventSegment {
    /// Per access event: the PC of the responsible instruction.
    acc_pc: Vec<u64>,
    /// Per access event: the virtual page number looked up.
    acc_vpn: Vec<u64>,
    /// Per access event: the precomputed L2 set index
    /// (`geometry.set_of(vpn)`), batch-masked per burst.
    acc_set: Vec<u32>,
    /// Per access event: the precomputed CHiRP signature under the
    /// stream's signature configuration, batch-hashed per burst.
    acc_sig: Vec<u16>,
    /// Per access event: the page class (0 = instruction, 1 = data).
    acc_kind: Vec<u8>,
    /// Per control event: how many access events precede it.
    ctl_after: Vec<u32>,
    /// Per control event: the branch PC.
    ctl_pc: Vec<u64>,
    /// Per control event: kind bits (`CTL_*`).
    ctl_kind: Vec<u8>,
    /// Instructions covered by this segment.
    instructions: u64,
    /// Policy-invariant cycles of this segment: base + cache penalties +
    /// branch penalties + one L2-hit latency per access event. Walk
    /// cycles are the backends' business.
    invariant_cycles: u64,
}

impl EventSegment {
    /// Number of L2 access events in the segment.
    pub fn access_events(&self) -> usize {
        self.acc_pc.len()
    }

    /// Number of control (branch/mispredict) events in the segment.
    pub fn control_events(&self) -> usize {
        self.ctl_pc.len()
    }

    /// Instructions covered by the segment.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// The virtual page number of every L2 access event, in access order
    /// — the policy-invariant stream an offline oracle (Bélády OPT) needs.
    pub fn vpns(&self) -> &[u64] {
        &self.acc_vpn
    }

    /// Empties the segment for reuse, keeping its allocations.
    pub fn clear(&mut self) {
        self.acc_pc.clear();
        self.acc_vpn.clear();
        self.acc_set.clear();
        self.acc_sig.clear();
        self.acc_kind.clear();
        self.ctl_after.clear();
        self.ctl_pc.clear();
        self.ctl_kind.clear();
        self.instructions = 0;
        self.invariant_cycles = 0;
    }

    /// Serialises every column little-endian, length-prefixed — the
    /// byte-identity witness the policy-invariance proptest compares.
    pub fn wire_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let len = |out: &mut Vec<u8>, n: usize| out.extend((n as u64).to_le_bytes());
        len(&mut out, self.acc_pc.len());
        for &v in &self.acc_pc {
            out.extend(v.to_le_bytes());
        }
        for &v in &self.acc_vpn {
            out.extend(v.to_le_bytes());
        }
        for &v in &self.acc_set {
            out.extend(v.to_le_bytes());
        }
        for &v in &self.acc_sig {
            out.extend(v.to_le_bytes());
        }
        out.extend(&self.acc_kind);
        len(&mut out, self.ctl_after.len());
        for &v in &self.ctl_after {
            out.extend(v.to_le_bytes());
        }
        for &v in &self.ctl_pc {
            out.extend(v.to_le_bytes());
        }
        out.extend(&self.ctl_kind);
        out.extend(self.instructions.to_le_bytes());
        out.extend(self.invariant_cycles.to_le_bytes());
        out
    }
}

/// The event stream of one materialized trace, split at the warmup
/// boundary into the two segments [`Backend::finish_result`] needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FactoredTrace {
    /// Events of the warmup prefix (may be empty).
    pub warmup: EventSegment,
    /// Events of the measured suffix (may be empty).
    pub measured: EventSegment,
    /// Identity of the signature configuration `acc_sig` was computed
    /// under ([`ChirpConfig::signature_code`]).
    pub sig_code: u64,
}

impl FactoredTrace {
    /// Runs the front end over the whole trace, cutting the warmup
    /// boundary at the exact instruction index `run_columnar` uses.
    pub fn build(
        config: &SimConfig,
        trace: &PackedTrace,
        warmup_fraction: f64,
        sig_config: &ChirpConfig,
    ) -> FactoredTrace {
        let warmup = warmup_cut(trace.len(), warmup_fraction);
        let mut fe = FrontEnd::new(config, sig_config);
        let mut warm = EventSegment::default();
        let mut meas = EventSegment::default();
        let mut in_measured = false;
        let mut pos = 0usize;
        for chunk in trace.chunks(CHUNK_SIZE) {
            if !in_measured && warmup <= pos + chunk.len() {
                let (head, tail) = chunk.split_at(warmup - pos);
                fe.process_chunk(&head, &mut warm);
                in_measured = true;
                fe.process_chunk(&tail, &mut meas);
            } else if in_measured {
                fe.process_chunk(&chunk, &mut meas);
            } else {
                fe.process_chunk(&chunk, &mut warm);
            }
            pos += chunk.len();
        }
        FactoredTrace { warmup: warm, measured: meas, sig_code: sig_config.signature_code() }
    }

    /// Total L2 access events across both segments.
    pub fn access_events(&self) -> usize {
        self.warmup.access_events() + self.measured.access_events()
    }

    /// Total control events across both segments.
    pub fn control_events(&self) -> usize {
        self.warmup.control_events() + self.measured.control_events()
    }

    /// Total instructions across both segments.
    pub fn instructions(&self) -> u64 {
        self.warmup.instructions() + self.measured.instructions()
    }

    /// Concatenated [`EventSegment::wire_bytes`] of both segments plus
    /// the signature code.
    pub fn wire_bytes(&self) -> Vec<u8> {
        let mut out = self.warmup.wire_bytes();
        out.extend(self.measured.wire_bytes());
        out.extend(self.sig_code.to_le_bytes());
        out
    }
}

/// The policy-invariant half of the machine: caches, branch unit, L1
/// TLBs and one [`SignatureBuilder`] evolving under the stream's
/// signature configuration.
pub struct FrontEnd {
    mem: MemoryHierarchy,
    branch: BranchUnit,
    l1: L1FrontEnd,
    sigs: SignatureBuilder,
    /// `wrong_path_pollution` of the stream's signature configuration:
    /// the front end folds the same deterministic pseudo wrong-path
    /// events into its histories that a matching CHiRP back-end would.
    pollution: u32,
    l2_hit_latency: u64,
    /// `sets - 1` of the L2 geometry, for the batched set-index pass.
    set_mask: u64,
    /// Decoded columns for the in-flight burst.
    block: DecodedBlock,
    ivpns: Vec<u64>,
    dvpns: Vec<u64>,
    /// 64-bit pre-hash signature compositions of the burst's new access
    /// events, finalised in one batched `hash16` pass per burst.
    pre: Vec<u64>,
}

impl FrontEnd {
    /// Builds the front end for `config`, computing signatures under
    /// `sig_config`.
    pub fn new(config: &SimConfig, sig_config: &ChirpConfig) -> FrontEnd {
        FrontEnd {
            mem: MemoryHierarchy::new(config.mem),
            branch: BranchUnit::new(config.branch),
            l1: L1FrontEnd::new(&config.tlb),
            sigs: SignatureBuilder::new(sig_config),
            pollution: sig_config.wrong_path_pollution,
            l2_hit_latency: config.tlb.l2_hit_latency,
            set_mask: (config.tlb.l2.sets() - 1) as u64,
            block: DecodedBlock::with_capacity(BURST),
            ivpns: Vec::with_capacity(BURST),
            dvpns: Vec::with_capacity(BURST),
            pre: Vec::with_capacity(2 * BURST),
        }
    }

    /// Feeds one trace chunk through the front end, appending its events
    /// to `seg`.
    pub fn process_chunk(&mut self, chunk: &TraceChunk<'_>, seg: &mut EventSegment) {
        let mut cursor = chunk.cursor();
        while cursor.remaining() > 0 {
            let burst = cursor.remaining().min(BURST);
            let n = cursor.decode_into(&mut self.block, burst);
            debug_assert_eq!(n, burst);
            // Batched page-number derivation over the burst's columns.
            self.ivpns.clear();
            self.ivpns.extend(self.block.pcs.iter().map(|&pc| vpn(pc)));
            self.dvpns.clear();
            self.dvpns.extend(self.block.eas.iter().map(|&ea| vpn(ea)));
            let acc_base = seg.acc_pc.len();
            self.pre.clear();
            for k in 0..burst {
                self.step_record(k, seg);
            }
            // Batched finalisation of the burst's new access events: the
            // multiply/shift/xor of `hash16` and the set masking are
            // data-independent across events, so these two passes
            // auto-vectorise where the in-loop form could not.
            debug_assert_eq!(seg.acc_sig.len(), acc_base);
            seg.acc_sig.extend(self.pre.iter().map(|&p| hash16(p)));
            seg.acc_set.extend(seg.acc_vpn[acc_base..].iter().map(|&v| (v & self.set_mask) as u32));
        }
    }

    /// Mirrors `Simulator::step` minus the L2/walker: same event
    /// order (i-access, d-access, mispredict, branch), same cycle terms
    /// except the walk.
    #[inline]
    fn step_record(&mut self, k: usize, seg: &mut EventSegment) {
        let rec = self.block.record(k);
        let mut cycles = 1u64;

        if !self.l1.hit(self.ivpns[k], TranslationKind::Instruction) {
            self.emit_access(rec.pc, self.ivpns[k], 0, seg);
            cycles += self.l2_hit_latency;
        }
        cycles += self.mem.fetch(rec.pc).saturating_sub(4);

        if rec.kind.is_memory() {
            let ea = rec.effective_address;
            if !self.l1.hit(self.dvpns[k], TranslationKind::Data) {
                self.emit_access(rec.pc, self.dvpns[k], 1, seg);
                cycles += self.l2_hit_latency;
            }
            let lat = match rec.kind {
                InstrKind::Load => self.mem.load(ea),
                InstrKind::Store => self.mem.store(ea),
                _ => unreachable!("is_memory() covers loads and stores only"),
            };
            cycles += lat.saturating_sub(4);
        }

        let penalty = self.branch.observe(&rec);
        cycles += penalty;
        if penalty > 0 {
            self.emit_control(CTL_MISPREDICT, rec.pc, seg);
            // Fold the same pseudo wrong-path events a matching CHiRP
            // back-end would (its `on_mispredict`), so the precomputed
            // signatures remain exact under pollution configurations.
            for i in 0..self.pollution {
                let bogus = rec.pc ^ (u64::from(i) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                self.sigs.record_branch(bogus, BranchClass::Conditional);
                self.sigs.record_access(bogus);
            }
        }
        if let Some(class) = rec.kind.branch_class() {
            let code = match class {
                BranchClass::Conditional => CTL_COND,
                BranchClass::UnconditionalIndirect => CTL_UNCOND_INDIRECT,
                BranchClass::UnconditionalDirect => CTL_UNCOND_DIRECT,
            } | if rec.taken { CTL_TAKEN } else { 0 };
            self.emit_control(code, rec.pc, seg);
            self.sigs.record_branch(rec.pc, class);
        }

        seg.instructions += 1;
        seg.invariant_cycles += cycles;
    }

    /// Emits one L2 access event. The signature composition is read
    /// *before* the access is folded into the path history — the order
    /// CHiRP's `on_hit`/`on_fill` observe. Set index and final hash are
    /// filled by the burst's batched pass.
    #[inline]
    fn emit_access(&mut self, pc: u64, page: u64, kind: u8, seg: &mut EventSegment) {
        seg.acc_pc.push(pc);
        seg.acc_vpn.push(page);
        seg.acc_kind.push(kind);
        self.pre.push(self.sigs.compose(pc));
        self.sigs.record_access(pc);
    }

    #[inline]
    fn emit_control(&mut self, code: u8, pc: u64, seg: &mut EventSegment) {
        seg.ctl_after.push(seg.acc_pc.len() as u32);
        seg.ctl_pc.push(pc);
        seg.ctl_kind.push(code);
    }

    /// L1 statistics: (i-TLB hits, i-TLB misses, d-TLB hits, d-TLB
    /// misses) — identical to the full hierarchy's, since the L1s are
    /// policy-free.
    pub fn l1_stats(&self) -> (u64, u64, u64, u64) {
        self.l1.l1_stats()
    }
}

/// The per-policy half: the unified L2 TLB, its replacement policy, the
/// page walker (and PSC) whose state depends on the policy's miss
/// sequence, and the residual cycle accounting.
pub struct Backend<P: TlbReplacementPolicy> {
    l2: L2Tlb<P>,
    walker: PageWalker,
    hints: ReplayHints,
    cycles: u64,
    instructions: u64,
}

impl<P: TlbReplacementPolicy> Backend<P> {
    /// Builds a backend for `policy`. `sig_code` identifies the stream's
    /// signature configuration; the policy's
    /// [`TlbReplacementPolicy::replay_hints`] decide which control
    /// events it needs and whether it consumes precomputed signatures.
    pub fn new(config: &SimConfig, policy: P, sig_code: u64) -> Backend<P> {
        let mut walker = PageWalker::new(config.tlb.walk_penalty);
        if let Some((entries, hit_penalty)) = config.tlb.psc {
            walker = walker.with_psc(entries, hit_penalty);
        }
        let hints = policy.replay_hints(sig_code);
        Backend { l2: L2Tlb::new(config.tlb.l2, policy), walker, hints, cycles: 0, instructions: 0 }
    }

    /// Replays access events `range` of `seg`, draining control events
    /// interleaved before each access. `ctl` is this backend's control
    /// cursor into the segment.
    #[inline]
    fn replay_range(&mut self, seg: &EventSegment, range: std::ops::Range<usize>, ctl: &mut usize) {
        for i in range {
            while *ctl < seg.ctl_after.len() && seg.ctl_after[*ctl] as usize <= i {
                self.apply_control(seg, *ctl);
                *ctl += 1;
            }
            if self.hints.accepts_signatures {
                self.l2.supply_signature(seg.acc_sig[i]);
            }
            let acc = TlbAccess {
                pc: seg.acc_pc[i],
                vpn: seg.acc_vpn[i],
                kind: if seg.acc_kind[i] == 0 {
                    TranslationKind::Instruction
                } else {
                    TranslationKind::Data
                },
                set: seg.acc_set[i] as usize,
            };
            let outcome = self.l2.access_at(acc);
            if !outcome.hit {
                self.cycles += self.walker.walk(acc.vpn);
            }
        }
    }

    #[inline]
    fn apply_control(&mut self, seg: &EventSegment, i: usize) {
        let kind = seg.ctl_kind[i];
        if kind & CTL_MISPREDICT != 0 {
            if self.hints.needs_mispredicts {
                self.l2.on_mispredict(seg.ctl_pc[i]);
            }
        } else if self.hints.needs_branches {
            let class = match kind & 0x3 {
                CTL_COND => BranchClass::Conditional,
                CTL_UNCOND_INDIRECT => BranchClass::UnconditionalIndirect,
                _ => BranchClass::UnconditionalDirect,
            };
            self.l2.on_branch(seg.ctl_pc[i], class, kind & CTL_TAKEN != 0);
        }
    }

    /// Finishes a segment after its access events ran: drains trailing
    /// control events and adds the segment's invariant totals.
    fn finish_segment(&mut self, seg: &EventSegment, ctl: &mut usize) {
        while *ctl < seg.ctl_after.len() {
            self.apply_control(seg, *ctl);
            *ctl += 1;
        }
        self.cycles += seg.invariant_cycles;
        self.instructions += seg.instructions;
    }

    /// Replays one whole segment.
    pub fn replay(&mut self, seg: &EventSegment) {
        let mut ctl = 0usize;
        self.replay_range(seg, 0..seg.access_events(), &mut ctl);
        self.finish_segment(seg, &mut ctl);
    }

    /// Snapshot of machine state at the start of the measured window
    /// (mirrors `Simulator::window_start`).
    pub fn window_start(&self) -> (u64, u64, TlbStats) {
        (self.cycles, self.instructions, self.l2.stats())
    }

    /// Assembles the [`RunResult`] for the window opened by
    /// [`window_start`](Self::window_start) — the same field recipe as
    /// `Simulator::finish_result`.
    pub fn finish_result(
        &self,
        (cycles0, instructions0, stats0): (u64, u64, TlbStats),
    ) -> RunResult {
        let stats1 = self.l2.stats();
        let measured = TlbStats {
            hits: stats1.hits - stats0.hits,
            misses: stats1.misses - stats0.misses,
            dead_evictions: stats1.dead_evictions - stats0.dead_evictions,
            cold_fills: stats1.cold_fills - stats0.cold_fills,
        };
        RunResult {
            policy: self.l2.policy().name().to_string(),
            instructions: self.instructions - instructions0,
            cycles: self.cycles - cycles0,
            l2_tlb: measured,
            l2_accesses: measured.accesses(),
            prediction_table_accesses: self.l2.policy().prediction_table_accesses(),
            l2_accesses_total: stats1.accesses(),
            efficiency: self.l2.efficiency(),
        }
    }

    /// The backend's L2 TLB (stats, efficiency, policy state).
    pub fn l2(&self) -> &L2Tlb<P> {
        &self.l2
    }
}

/// Replays one segment through every backend, block-interleaved: each
/// backend replays `REPLAY_BLOCK` (256) access events before the next
/// backend takes the same block, so all backends' L2 state stays
/// cache-resident and their independent probe chains overlap.
pub fn replay_segment_group<P: TlbReplacementPolicy>(
    backends: &mut [Backend<P>],
    seg: &EventSegment,
) {
    let n = seg.access_events();
    let mut cursors = vec![0usize; backends.len()];
    let mut start = 0usize;
    while start < n {
        let end = (start + REPLAY_BLOCK).min(n);
        for (backend, ctl) in backends.iter_mut().zip(cursors.iter_mut()) {
            backend.replay_range(seg, start..end, ctl);
        }
        start = end;
    }
    for (backend, ctl) in backends.iter_mut().zip(cursors.iter_mut()) {
        backend.finish_segment(seg, ctl);
    }
}

/// Replays an already-built [`FactoredTrace`] through one backend per
/// policy. Returns `(result, backend)` pairs in input order, each
/// bit-identical to `Simulator::run_columnar` of the same unit. A policy
/// whose signature configuration does not match the stream's simply
/// replays with its local registers
/// ([`TlbReplacementPolicy::replay_hints`]).
pub fn replay_factored<P: TlbReplacementPolicy>(
    config: &SimConfig,
    trace: &FactoredTrace,
    policies: Vec<P>,
) -> Vec<(RunResult, Backend<P>)> {
    let mut backends: Vec<Backend<P>> =
        policies.into_iter().map(|p| Backend::new(config, p, trace.sig_code)).collect();
    replay_segment_group(&mut backends, &trace.warmup);
    let windows: Vec<_> = backends.iter().map(|b| b.window_start()).collect();
    replay_segment_group(&mut backends, &trace.measured);
    backends
        .into_iter()
        .zip(windows)
        .map(|(backend, window)| (backend.finish_result(window), backend))
        .collect()
}

/// The streamed form of [`FactoredTrace::build`] + [`replay_factored`]:
/// pulls bounded batches,
/// runs the front end over each chunk into a reused [`EventSegment`],
/// and replays it through every backend before the next chunk is
/// decoded — peak event residency is O(chunk), and results are
/// bit-identical to [`Simulator::run_stream`](crate::Simulator::run_stream)
/// of each policy over the same stream.
///
/// # Errors
///
/// Propagates the stream's first error; all backends are then mid-trace
/// and the batch of runs must be retried from scratch.
pub fn run_stream_factored<P: TlbReplacementPolicy, S: TraceStream + ?Sized>(
    config: &SimConfig,
    sig_config: &ChirpConfig,
    policies: Vec<P>,
    stream: &mut S,
    warmup_fraction: f64,
) -> Result<Vec<(RunResult, Backend<P>)>, StreamError> {
    let warmup = warmup_cut(stream.len(), warmup_fraction);
    let sig_code = sig_config.signature_code();
    let mut fe = FrontEnd::new(config, sig_config);
    let mut backends: Vec<Backend<P>> =
        policies.into_iter().map(|p| Backend::new(config, p, sig_code)).collect();
    let mut windows: Vec<(u64, u64, TlbStats)> = Vec::with_capacity(backends.len());
    let mut window_open = false;
    let mut seg = EventSegment::default();
    let mut pos = 0usize;
    while let Some(batch) = stream.next_batch()? {
        for chunk in batch.chunks(CHUNK_SIZE) {
            if !window_open && warmup <= pos + chunk.len() {
                let (head, tail) = chunk.split_at(warmup - pos);
                seg.clear();
                fe.process_chunk(&head, &mut seg);
                replay_segment_group(&mut backends, &seg);
                windows.extend(backends.iter().map(|b| b.window_start()));
                window_open = true;
                seg.clear();
                fe.process_chunk(&tail, &mut seg);
                replay_segment_group(&mut backends, &seg);
            } else {
                seg.clear();
                fe.process_chunk(&chunk, &mut seg);
                replay_segment_group(&mut backends, &seg);
            }
            pos += chunk.len();
        }
    }
    if !window_open {
        windows.extend(backends.iter().map(|b| b.window_start()));
    }
    Ok(backends
        .into_iter()
        .zip(windows)
        .map(|(backend, window)| (backend.finish_result(window), backend))
        .collect())
}

/// Picks the signature configuration a group's front end computes under:
/// the first CHiRP member's (so the common lineup precomputes exactly
/// the signatures its headline policy needs), else the default.
pub fn group_sig_config<'a, I>(kinds: I) -> ChirpConfig
where
    I: IntoIterator<Item = &'a crate::PolicyKind>,
{
    kinds
        .into_iter()
        .find_map(|k| match k {
            crate::PolicyKind::Chirp(c) => Some(*c),
            _ => None,
        })
        .unwrap_or_default()
}
