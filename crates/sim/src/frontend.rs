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
//!
//! Resident and streamed groups both run on one chunk driver
//! ([`run_stream_factored`]; `run_policy_group` for resident traces):
//! the front end emits one segment per 4096-record chunk, and the back
//! ends replay it either inline or, when the scheduler leaves a core
//! idle, on a second thread that overlaps replay with the front end's
//! next chunk. The whole-trace [`FactoredTrace`] stays for callers that
//! need every event at once (the OPT bound).

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
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};

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

    /// An empty segment whose columns already hold one full front-end
    /// chunk: a record emits at most two access events (instruction and
    /// data side) and two control events (a misprediction and the
    /// branch), so filling it from at most [`CHUNK_SIZE`] records never
    /// reallocates.
    fn for_chunk() -> EventSegment {
        let events = 2 * CHUNK_SIZE;
        EventSegment {
            acc_pc: Vec::with_capacity(events),
            acc_vpn: Vec::with_capacity(events),
            acc_set: Vec::with_capacity(events),
            acc_sig: Vec::with_capacity(events),
            acc_kind: Vec::with_capacity(events),
            ctl_after: Vec::with_capacity(events),
            ctl_pc: Vec::with_capacity(events),
            ctl_kind: Vec::with_capacity(events),
            instructions: 0,
            invariant_cycles: 0,
        }
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
    /// Control-event cursor into the segment being replayed.
    ctl: usize,
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
        Backend {
            l2: L2Tlb::new(config.tlb.l2, policy),
            walker,
            hints,
            cycles: 0,
            instructions: 0,
            ctl: 0,
        }
    }

    /// Replays access events `range` of `seg`, draining control events
    /// interleaved before each access.
    #[inline]
    fn replay_range(&mut self, seg: &EventSegment, range: std::ops::Range<usize>) {
        // A local cursor stays in a register across the policy calls.
        let mut ctl = self.ctl;
        for i in range {
            while ctl < seg.ctl_after.len() && seg.ctl_after[ctl] as usize <= i {
                self.apply_control(seg, ctl);
                ctl += 1;
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
        self.ctl = ctl;
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
    /// control events, adds the segment's invariant totals and rewinds
    /// the control cursor for the next segment.
    fn finish_segment(&mut self, seg: &EventSegment) {
        while self.ctl < seg.ctl_after.len() {
            self.apply_control(seg, self.ctl);
            self.ctl += 1;
        }
        self.ctl = 0;
        self.cycles += seg.invariant_cycles;
        self.instructions += seg.instructions;
    }

    /// Replays one whole segment.
    pub fn replay(&mut self, seg: &EventSegment) {
        self.replay_range(seg, 0..seg.access_events());
        self.finish_segment(seg);
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
    let mut start = 0usize;
    while start < n {
        let end = (start + REPLAY_BLOCK).min(n);
        for backend in backends.iter_mut() {
            backend.replay_range(seg, start..end);
        }
        start = end;
    }
    for backend in backends.iter_mut() {
        backend.finish_segment(seg);
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
    let mut replay = Replay::new(config, policies, trace.sig_code);
    replay.replay(&trace.warmup, true);
    replay.replay(&trace.measured, false);
    replay.finish()
}

/// Segments the pipelined driver circulates between the front end and
/// the replay thread: one being filled, one being replayed and two
/// queued, so a short stall on either side does not stop the other.
const SEGMENT_POOL: usize = 4;

/// How a factored group's back ends run relative to its front end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReplayForm {
    /// Each segment is replayed on the calling thread right after the
    /// front end built it.
    Inline,
    /// The back ends run on a thread of their own and replay one segment
    /// while the front end builds the next.
    Pipelined,
}

impl ReplayForm {
    /// The form for a group about to run: pipelined only when a core
    /// would otherwise sit idle ([`spare_core`](crate::sched::spare_core)).
    /// A pipelined group keeps the core counted as busy until the
    /// returned guard drops.
    pub(crate) fn choose() -> (ReplayForm, Option<crate::sched::Busy<'static>>) {
        let core = crate::sched::spare_core();
        let form = if core.is_some() { ReplayForm::Pipelined } else { ReplayForm::Inline };
        (form, core)
    }
}

/// Measured-window snapshot of one backend ([`Backend::window_start`]).
type Window = (u64, u64, TlbStats);

/// A filled segment on its way to the back ends, and whether the
/// measured window opens right after it (it ends at the warmup cut).
type Handoff = (EventSegment, bool);

/// The back ends of one factored group and the measured-window
/// snapshots they took at the warmup cut.
struct Replay<P: TlbReplacementPolicy> {
    backends: Vec<Backend<P>>,
    windows: Vec<Window>,
}

impl<P: TlbReplacementPolicy> Replay<P> {
    fn new(config: &SimConfig, policies: Vec<P>, sig_code: u64) -> Replay<P> {
        let backends: Vec<Backend<P>> =
            policies.into_iter().map(|p| Backend::new(config, p, sig_code)).collect();
        let windows = Vec::with_capacity(backends.len());
        Replay { backends, windows }
    }

    fn replay(&mut self, seg: &EventSegment, ends_warmup: bool) {
        replay_segment_group(&mut self.backends, seg);
        if ends_warmup {
            self.windows.extend(self.backends.iter().map(Backend::window_start));
        }
    }

    /// One `(result, backend)` pair per policy, in input order. A stream
    /// that ended before its warmup cut measures an empty window.
    fn finish(mut self) -> Vec<(RunResult, Backend<P>)> {
        if self.windows.is_empty() {
            self.windows.extend(self.backends.iter().map(Backend::window_start));
        }
        self.backends
            .into_iter()
            .zip(self.windows)
            .map(|(backend, window)| (backend.finish_result(window), backend))
            .collect()
    }
}

/// Where the front end's finished segments go.
enum Sink<'r, P: TlbReplacementPolicy> {
    /// Replayed on the calling thread; one segment is reused, growing
    /// as needed.
    Inline { replay: &'r mut Replay<P>, seg: EventSegment },
    /// Sent to the replay thread; emptied segments come back on `empty`.
    Pipelined { full: SyncSender<Handoff>, empty: Receiver<EventSegment> },
}

/// The calling thread's half of the chunk driver: the front end, the
/// warmup cut, and the path its segments take to the back ends.
struct Feeder<'r, P: TlbReplacementPolicy> {
    fe: FrontEnd,
    /// Instruction index at which the measured window opens.
    warmup: usize,
    /// Records fed so far.
    pos: usize,
    /// Whether the segment ending at `warmup` has been handed off.
    cut: bool,
    sink: Sink<'r, P>,
}

impl<P: TlbReplacementPolicy> Feeder<'_, P> {
    /// Runs the front end over one chunk of at most [`CHUNK_SIZE`]
    /// records and hands its events to the back ends — as two segments
    /// when the warmup cut falls inside the chunk. Returns `false` once
    /// the back ends are gone (their thread panicked); the caller then
    /// stops feeding.
    fn push(&mut self, chunk: &TraceChunk<'_>) -> bool {
        let alive = if !self.cut && self.warmup <= self.pos + chunk.len() {
            self.cut = true;
            let (head, tail) = chunk.split_at(self.warmup - self.pos);
            self.emit(&head, true) && self.emit(&tail, false)
        } else {
            self.emit(chunk, false)
        };
        self.pos += chunk.len();
        alive
    }

    fn emit(&mut self, chunk: &TraceChunk<'_>, ends_warmup: bool) -> bool {
        match &mut self.sink {
            Sink::Inline { replay, seg } => {
                seg.clear();
                self.fe.process_chunk(chunk, seg);
                replay.replay(seg, ends_warmup);
                true
            }
            Sink::Pipelined { full, empty } => {
                let Ok(mut seg) = empty.recv() else { return false };
                seg.clear();
                self.fe.process_chunk(chunk, &mut seg);
                full.send((seg, ends_warmup)).is_ok()
            }
        }
    }
}

/// The factored chunk driver both group paths run on. `feed` pushes the
/// trace through the [`Feeder`] one chunk at a time, on the calling
/// thread; the back ends replay each segment inline or, pipelined, on a
/// scoped thread fed through a bounded channel, with emptied segments
/// returning through a second one from a pool of [`SEGMENT_POOL`]. Either
/// way every backend sees the same segments in the same order, and the
/// measured window opens right after the segment that ends at `warmup`,
/// so results are bit-identical across forms.
///
/// # Errors
///
/// Returns `feed`'s error after the replay thread has drained and
/// joined. A panic on the replay thread resumes on the caller.
fn drive_factored<P, F>(
    config: &SimConfig,
    sig_config: &ChirpConfig,
    policies: Vec<P>,
    warmup: usize,
    form: ReplayForm,
    feed: F,
) -> Result<Vec<(RunResult, Backend<P>)>, StreamError>
where
    P: TlbReplacementPolicy + Send,
    F: FnOnce(&mut Feeder<'_, P>) -> Result<(), StreamError>,
{
    let mut replay = Replay::new(config, policies, sig_config.signature_code());
    let fe = FrontEnd::new(config, sig_config);
    match form {
        ReplayForm::Inline => {
            let sink = Sink::Inline { replay: &mut replay, seg: EventSegment::default() };
            feed(&mut Feeder { fe, warmup, pos: 0, cut: false, sink })?;
            Ok(replay.finish())
        }
        ReplayForm::Pipelined => {
            crate::sched::note_pipelined();
            let (full_tx, full_rx) = sync_channel::<Handoff>(SEGMENT_POOL);
            let (empty_tx, empty_rx) = sync_channel(SEGMENT_POOL);
            for _ in 0..SEGMENT_POOL {
                empty_tx.send(EventSegment::for_chunk()).expect("the pool fits its channel");
            }
            std::thread::scope(|scope| {
                let worker = scope.spawn(move || {
                    for (seg, ends_warmup) in full_rx {
                        replay.replay(&seg, ends_warmup);
                        // Never blocks: the channel holds the whole pool.
                        // Refused only once the front end has stopped.
                        let _ = empty_tx.send(seg);
                    }
                    replay
                });
                let sink = Sink::Pipelined { full: full_tx, empty: empty_rx };
                let mut feeder = Feeder { fe, warmup, pos: 0, cut: false, sink };
                let fed = feed(&mut feeder);
                // Closing the feed ends the replay loop once it drains.
                drop(feeder);
                match worker.join() {
                    Ok(replay) => fed.map(|()| replay.finish()),
                    Err(panic) => std::panic::resume_unwind(panic),
                }
            })
        }
    }
}

/// Runs a factored group over a resident trace through the chunk
/// driver: the streamed engine's O(chunk) event residency, without first
/// building a whole [`FactoredTrace`]. Bit-identical to
/// [`FactoredTrace::build`] + [`replay_factored`].
pub(crate) fn replay_trace_group<P: TlbReplacementPolicy + Send>(
    config: &SimConfig,
    sig_config: &ChirpConfig,
    policies: Vec<P>,
    trace: &PackedTrace,
    warmup_fraction: f64,
    form: ReplayForm,
) -> Vec<(RunResult, Backend<P>)> {
    let warmup = warmup_cut(trace.len(), warmup_fraction);
    drive_factored(config, sig_config, policies, warmup, form, |feeder| {
        // `all` stops at the first chunk the back ends can no longer take.
        trace.chunks(CHUNK_SIZE).all(|chunk| feeder.push(&chunk));
        Ok(())
    })
    .expect("a resident trace has no stream to fail")
}

/// [`run_stream_factored`] in a chosen [`ReplayForm`].
fn replay_stream_group<P, S>(
    config: &SimConfig,
    sig_config: &ChirpConfig,
    policies: Vec<P>,
    stream: &mut S,
    warmup_fraction: f64,
    form: ReplayForm,
) -> Result<Vec<(RunResult, Backend<P>)>, StreamError>
where
    P: TlbReplacementPolicy + Send,
    S: TraceStream + ?Sized,
{
    let warmup = warmup_cut(stream.len(), warmup_fraction);
    drive_factored(config, sig_config, policies, warmup, form, |feeder| {
        while let Some(batch) = stream.next_batch()? {
            if !batch.chunks(CHUNK_SIZE).all(|chunk| feeder.push(&chunk)) {
                break;
            }
        }
        Ok(())
    })
}

/// The streamed form of [`FactoredTrace::build`] + [`replay_factored`]:
/// pulls bounded batches and runs them through the factored chunk
/// driver, so peak event residency is O(chunk), and results are
/// bit-identical to [`Simulator::run_stream`](crate::Simulator::run_stream)
/// of each policy over the same stream. The back ends replay on a second
/// thread when a core would otherwise sit idle, inline otherwise.
///
/// # Errors
///
/// Propagates the stream's first error; all backends are then mid-trace
/// and the batch of runs must be retried from scratch.
pub fn run_stream_factored<P: TlbReplacementPolicy + Send, S: TraceStream + ?Sized>(
    config: &SimConfig,
    sig_config: &ChirpConfig,
    policies: Vec<P>,
    stream: &mut S,
    warmup_fraction: f64,
) -> Result<Vec<(RunResult, Backend<P>)>, StreamError> {
    let (form, _core) = ReplayForm::choose();
    replay_stream_group(config, sig_config, policies, stream, warmup_fraction, form)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PolicyDispatch, PolicyKind, Simulator};
    use chirp_tlb::{PolicyStorage, TlbAccess};
    use chirp_trace::suite::{build_suite, SuiteConfig};
    use chirp_trace::MaterializedStream;
    use std::collections::VecDeque;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::mpsc::{channel, Sender};

    /// Ten whole chunks and a partial one: more segments than the pool
    /// holds, so every pooled segment is recycled at least twice.
    const LEN: usize = 10 * CHUNK_SIZE + 1_000;

    const FORMS: [ReplayForm; 2] = [ReplayForm::Inline, ReplayForm::Pipelined];

    /// Policies with every replay need: signatures (CHiRP), branches
    /// (GHRP), mispredictions and nothing at all (LRU).
    fn group() -> Vec<PolicyKind> {
        vec![
            PolicyKind::Lru,
            PolicyKind::Ghrp,
            PolicyKind::Chirp(ChirpConfig::default()),
            PolicyKind::Chirp(ChirpConfig { wrong_path_pollution: 2, ..ChirpConfig::default() }),
        ]
    }

    fn trace() -> PackedTrace {
        build_suite(&SuiteConfig { benchmarks: 1 })[0].generate_packed(LEN)
    }

    fn build(kinds: &[PolicyKind], config: &SimConfig) -> Vec<PolicyDispatch> {
        kinds.iter().map(|k| k.build_dispatch(config.tlb.l2, 3)).collect()
    }

    /// Both forms of the driver equal `run_columnar` bit for bit with the
    /// warmup cut at 0, exactly on a chunk boundary, mid-chunk and at
    /// `len`, over a resident trace and over a stream whose batches do
    /// not align with the chunks.
    #[test]
    fn both_forms_match_the_columnar_oracle_at_every_cut() {
        let trace = trace();
        let kinds = group();
        let boundary = (4 * CHUNK_SIZE) as f64 + 0.5;
        for (fraction, cut) in
            [(0.0, 0), (boundary / LEN as f64, 4 * CHUNK_SIZE), (0.5, LEN / 2), (1.0, LEN)]
        {
            assert_eq!(warmup_cut(LEN, fraction), cut);
            let config = SimConfig { warmup_fraction: fraction, ..SimConfig::default() };
            let sig = group_sig_config(kinds.iter());
            let want: Vec<RunResult> = build(&kinds, &config)
                .into_iter()
                .map(|p| Simulator::with_policy(&config, p).run_columnar(&trace, fraction))
                .collect();
            for form in FORMS {
                let resident = replay_trace_group(
                    &config,
                    &sig,
                    build(&kinds, &config),
                    &trace,
                    fraction,
                    form,
                );
                let mut stream = MaterializedStream::new(&trace, 3_000);
                let streamed = replay_stream_group(
                    &config,
                    &sig,
                    build(&kinds, &config),
                    &mut stream,
                    fraction,
                    form,
                )
                .expect("materialized stream");
                for got in [resident, streamed] {
                    let got: Vec<RunResult> = got.into_iter().map(|(r, _)| r).collect();
                    assert_eq!(got, want, "{form:?} at cut {cut}");
                }
            }
        }
    }

    /// Test policy around LRU: optionally waits on `gate` before its
    /// first access, and optionally panics on its `panic_at`-th access.
    struct Probe {
        inner: PolicyDispatch,
        gate: Option<Receiver<()>>,
        panic_at: Option<u64>,
        accesses: u64,
    }

    impl Probe {
        fn new(gate: Option<Receiver<()>>, panic_at: Option<u64>) -> Probe {
            let inner = PolicyKind::Lru.build_dispatch(SimConfig::default().tlb.l2, 0);
            Probe { inner, gate, panic_at, accesses: 0 }
        }

        fn access(&mut self) {
            if let Some(gate) = self.gate.take() {
                // Opens when the stream drops the sending half.
                let _ = gate.recv();
            }
            self.accesses += 1;
            assert_ne!(Some(self.accesses), self.panic_at, "probe policy panics on request");
        }
    }

    impl TlbReplacementPolicy for Probe {
        fn name(&self) -> &str {
            "probe"
        }

        fn choose_victim(&mut self, acc: &TlbAccess) -> usize {
            self.inner.choose_victim(acc)
        }

        fn on_hit(&mut self, acc: &TlbAccess, way: usize) {
            self.access();
            self.inner.on_hit(acc, way);
        }

        fn on_fill(&mut self, acc: &TlbAccess, way: usize) {
            self.access();
            self.inner.on_fill(acc, way);
        }

        fn storage(&self) -> PolicyStorage {
            self.inner.storage()
        }
    }

    /// A stream that serves prepared batches, then `Err` (or the end),
    /// and opens a channel gate — drops `gate` — when asked for item
    /// `open_at`. Progress on the replay side is thus tied to how far
    /// the front end has read, with no timing involved.
    struct GatedStream {
        items: VecDeque<Result<PackedTrace, StreamError>>,
        len: usize,
        served: usize,
        open_at: usize,
        gate: Option<Sender<()>>,
    }

    impl GatedStream {
        /// The first `batches` chunk-sized batches of `trace`, then
        /// `error` if given.
        fn new(trace: &PackedTrace, batches: usize, error: Option<StreamError>) -> GatedStream {
            let mut source = MaterializedStream::new(trace, CHUNK_SIZE);
            let mut items: VecDeque<_> =
                (0..batches).map(|_| Ok(source.next_batch().unwrap().expect("batch"))).collect();
            items.extend(error.map(Err));
            GatedStream { items, len: trace.len(), served: 0, open_at: usize::MAX, gate: None }
        }

        /// Returns the gate a [`Probe`] waits on, opened at item `at`.
        fn gate_at(&mut self, at: usize) -> Receiver<()> {
            let (tx, rx) = channel();
            self.gate = Some(tx);
            self.open_at = at;
            rx
        }
    }

    impl TraceStream for GatedStream {
        fn len(&self) -> usize {
            self.len
        }

        fn chunk_records(&self) -> usize {
            CHUNK_SIZE
        }

        fn next_batch(&mut self) -> Result<Option<PackedTrace>, StreamError> {
            if self.served == self.open_at {
                self.gate = None;
            }
            self.served += 1;
            self.items.pop_front().transpose()
        }
    }

    fn run(
        stream: &mut GatedStream,
        policies: Vec<Probe>,
        form: ReplayForm,
    ) -> Result<Vec<(RunResult, Backend<Probe>)>, StreamError> {
        let config = SimConfig::default();
        let sig = ChirpConfig::default();
        replay_stream_group(&config, &sig, policies, stream, config.warmup_fraction, form)
    }

    /// A stream that fails after some batches returns that error from
    /// either form. Pipelined, the replay thread is held at its first
    /// access until the front end asks for the failing batch, so the
    /// error arrives with every earlier segment still in flight.
    #[test]
    fn stream_error_stops_the_feed_and_returns() {
        let trace = trace();
        let batches = SEGMENT_POOL - 1;
        for form in FORMS {
            let failure = StreamError::Corrupt("cut off".into());
            let mut stream = GatedStream::new(&trace, batches, Some(failure));
            let gate = (form == ReplayForm::Pipelined).then(|| stream.gate_at(batches));
            let policies = vec![Probe::new(gate, None), Probe::new(None, None)];
            match run(&mut stream, policies, form) {
                Err(StreamError::Corrupt(why)) => assert_eq!(why, "cut off", "{form:?}"),
                other => panic!("{form:?}: expected the stream's error, got {:?}", other.is_ok()),
            }
            assert_eq!(stream.served, batches + 1, "{form:?}: the feed stops at the error");
        }
    }

    /// A policy that panics mid-trace makes the group panic, in either
    /// form and through `run_stream_factored`, instead of deadlocking.
    /// Pipelined, the panic is held back until the front end has filled
    /// every pooled segment and reads one more batch, so the front end is
    /// (or is about to be) waiting on the recycle channel when the replay
    /// thread dies.
    #[test]
    fn replay_panic_reaches_the_caller() {
        let trace = trace();
        let chunks = LEN.div_ceil(CHUNK_SIZE);
        for form in FORMS {
            let mut stream = GatedStream::new(&trace, chunks, None);
            let gate = (form == ReplayForm::Pipelined).then(|| stream.gate_at(SEGMENT_POOL));
            let policies = vec![Probe::new(None, None), Probe::new(gate, Some(1))];
            let outcome = catch_unwind(AssertUnwindSafe(|| run(&mut stream, policies, form)));
            assert!(outcome.is_err(), "{form:?}: the replay panic must reach the caller");
        }
        let mut stream = GatedStream::new(&trace, chunks, None);
        let policies = vec![Probe::new(None, Some(100)), Probe::new(None, None)];
        let config = SimConfig::default();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_stream_factored(&config, &ChirpConfig::default(), policies, &mut stream, 0.5)
        }));
        assert!(outcome.is_err(), "run_stream_factored must panic");
    }
}
