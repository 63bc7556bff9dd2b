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
//! (base + L1i-hit + branch penalties + L2-hit latencies). Each
//! [`Backend`] then replays only `L2Tlb::access_at` + walker + residual
//! cycle accounting over that stream. Cycle totals are exact `u64` sums,
//! so splitting them into an invariant part (summed by the front end)
//! and a per-backend walk part reassociates nothing:
//! [`Backend::finish_result`] is bit-identical to
//! `Simulator::run_columnar`, pinned by `tests/equivalence_matrix.rs`.
//!
//! The cache model is policy-invariant too, and is split the same way.
//! The front end keeps only the L1i, whose MRU memo absorbs nearly every
//! fetch; it appends each data access and each L1i miss, in program
//! order, to the segment's memory column. A memory stage — the rest of
//! the hierarchy (L1d, L2, L3, DRAM) — runs that column on the replay
//! side before the segment's back ends, and its penalty cycles are added
//! to every back end, again an exact `u64` sum.
//!
//! The front end steps straight over a [`TraceChunk`]'s packed columns:
//! pc and kind per record, the taken bit and target only for branches,
//! the effective address only for memory records, through cursors of its
//! own into the chunk's two side tables, and page numbers shifted out
//! inline. No record is reassembled or copied first. Across a chunk the
//! walk keeps the last instruction page, the last L1i line and the last
//! data page in registers: a fetch or data access that repeats one is a
//! guaranteed hit in that structure's MRU memo, so it is counted without
//! a lookup, and the chunk credits those hits to the L1 TLB and L1i
//! statistics at its end, which stay exact. The walk is burst-structured
//! for the one part that batches well: every 64 records, the signature
//! *finalisation* (the multiply/shift/xor of `hash16`) and the set-index
//! masking run as word-parallel passes over the burst's new access
//! events. Only the history folds themselves stay sequential, because
//! each access's signature depends on the path history left by the
//! previous one.
//!
//! Every policy group, whatever its size, runs on one chunk driver, fed
//! by one [`TraceStream`]: [`run_stream_factored`] and `run_stream_group`
//! (which every suite run and `chirp-serve` take) feed generator, archive
//! and upload streams, and `run_policy_group` (perfbench and the engine
//! tests) a resident trace as a `MaterializedStream`. The stream lends
//! its batches on the calling thread — a generator runs there, a decoder
//! decodes there — and the front end cuts each batch into 4096-record
//! chunks and emits one segment per chunk into a ring of segments, and
//! the replay side runs the memory stage over each one and then replays
//! it through the back ends, one claim per back end and segment. Inline,
//! the calling thread does both in turn. When the scheduler leaves a core
//! idle, the replay side runs on a second thread and overlaps the front
//! end's next chunks; whenever the front end would wait for the ring
//! (full, or draining at the end) it claims back ends itself instead.
//! Pipelined, the front end builds each segment in a segment of its own,
//! which stays in its core's cache, and publishes it into a free ring
//! slot with one copy per column; inline, the ring's one slot never
//! leaves the calling core, so the front end builds in place. Both
//! threads time each segment, claim and wait, and the front end also the
//! time the stream takes to lend each batch, for the scheduler summary
//! ([`PipelineTimes`]). The whole-trace [`FactoredTrace`] stays for
//! callers that need every event at once (the OPT bound).
//!
//! Epoch telemetry observes the same driver on streamed groups. With an
//! epoch length, the front end also cuts its segments at every epoch
//! boundary of the measured window, wherever the stream's batches end, so
//! no segment straddles one, and each back end closes an epoch of its
//! [`EpochSampler`] after the segment that ends it. Its cycles, L2
//! statistics, table accesses and dead-prediction outcomes are all `u64`
//! sums, exact at every segment boundary, so the series matches a
//! per-instruction sampler's.

use crate::config::SimConfig;
use crate::engine::{warmup_cut, CHUNK_SIZE};
use crate::metrics::RunResult;
use crate::sched::PipelineTimes;
use chirp_branch::BranchUnit;
use chirp_core::signature::hash16;
use chirp_core::{ChirpConfig, SignatureBuilder};
use chirp_mem::{Cache, MemoryHierarchy};
use chirp_telemetry::{EpochRow, EpochSampler};
use chirp_tlb::{
    L1FrontEnd, L2Tlb, PageWalker, ReplayHints, TlbAccess, TlbReplacementPolicy, TlbStats,
    TranslationKind,
};
use chirp_trace::{
    vpn, BranchClass, InstrKind, PackedTrace, StreamError, TraceChunk, TraceRecord, TraceStream,
};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError, RwLock};
use std::time::{Duration, Instant};

/// Records per front-end burst: large enough that the step loop
/// dominates the batched passes' bookkeeping, small enough that the
/// burst's pre-hash compositions stay in L1 cache.
const BURST: usize = 64;

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
    /// Per memory-side event, in program order: the effective address of
    /// a data access, or the pc of a fetch that missed the L1i.
    mem_addr: Vec<u64>,
    /// Per memory-side event: whether it is an L1i-missed fetch.
    mem_fetch: Vec<bool>,
    /// Instructions covered by this segment.
    instructions: u64,
    /// Front-end cycles of this segment: base + L1i-hit penalties +
    /// branch penalties + one L2-hit latency per access event. The
    /// memory column's penalties are the memory stage's business, walk
    /// cycles the backends'.
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
    /// data side), two control events (a misprediction and the branch)
    /// and two memory-side events (an L1i miss and a data access), so
    /// filling it from at most [`CHUNK_SIZE`] records never reallocates.
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
            mem_addr: Vec::with_capacity(events),
            mem_fetch: Vec::with_capacity(events),
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
        self.mem_addr.clear();
        self.mem_fetch.clear();
        self.instructions = 0;
        self.invariant_cycles = 0;
    }

    /// Makes this segment a copy of `from`, one `extend_from_slice` per
    /// column into the allocations it already holds.
    fn copy_from(&mut self, from: &EventSegment) {
        self.clear();
        self.acc_pc.extend_from_slice(&from.acc_pc);
        self.acc_vpn.extend_from_slice(&from.acc_vpn);
        self.acc_set.extend_from_slice(&from.acc_set);
        self.acc_sig.extend_from_slice(&from.acc_sig);
        self.acc_kind.extend_from_slice(&from.acc_kind);
        self.ctl_after.extend_from_slice(&from.ctl_after);
        self.ctl_pc.extend_from_slice(&from.ctl_pc);
        self.ctl_kind.extend_from_slice(&from.ctl_kind);
        self.mem_addr.extend_from_slice(&from.mem_addr);
        self.mem_fetch.extend_from_slice(&from.mem_fetch);
        self.instructions = from.instructions;
        self.invariant_cycles = from.invariant_cycles;
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
        len(&mut out, self.mem_addr.len());
        for &v in &self.mem_addr {
            out.extend(v.to_le_bytes());
        }
        out.extend(self.mem_fetch.iter().map(|&f| u8::from(f)));
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

/// The policy-invariant half of the machine up to the cut line: the L1i,
/// branch unit, L1 TLBs and one [`SignatureBuilder`] evolving under the
/// stream's signature configuration. The rest of the cache hierarchy is
/// the replay side's memory stage.
pub struct FrontEnd {
    l1i: Cache,
    /// Penalty of an L1i hit beyond the 4 cycles the pipeline covers.
    l1i_hit_penalty: u64,
    branch: BranchUnit,
    l1: L1FrontEnd,
    sigs: SignatureBuilder,
    /// `wrong_path_pollution` of the stream's signature configuration:
    /// the front end folds the same deterministic pseudo wrong-path
    /// events into its histories that a matching CHiRP back-end would.
    pollution: u32,
    l2_hit_latency: u64,
    /// `log2` of the L1i line size: a fetch's line is `pc >> l1i_line_shift`.
    l1i_line_shift: u32,
    /// `sets - 1` of the L2 geometry, for the batched set-index pass.
    set_mask: u64,
    /// 64-bit pre-hash signature compositions of the burst's new access
    /// events, finalised in one batched `hash16` pass per burst.
    pre: Vec<u64>,
}

impl FrontEnd {
    /// Builds the front end for `config`, computing signatures under
    /// `sig_config`.
    pub fn new(config: &SimConfig, sig_config: &ChirpConfig) -> FrontEnd {
        FrontEnd {
            l1i: Cache::new(config.mem.l1i),
            l1i_hit_penalty: config.mem.l1i.hit_latency.saturating_sub(4),
            branch: BranchUnit::new(config.branch),
            l1: L1FrontEnd::new(&config.tlb),
            sigs: SignatureBuilder::new(sig_config),
            pollution: sig_config.wrong_path_pollution,
            l2_hit_latency: config.tlb.l2_hit_latency,
            l1i_line_shift: config.mem.l1i.line_bytes.trailing_zeros(),
            set_mask: (config.tlb.l2.sets() - 1) as u64,
            pre: Vec::with_capacity(2 * BURST),
        }
    }

    /// Feeds one trace chunk through the front end, appending its events
    /// to `seg`.
    pub fn process_chunk(&mut self, chunk: &TraceChunk<'_>, seg: &mut EventSegment) {
        let (pcs, kinds, eas, targets) = (chunk.pcs(), chunk.kinds(), chunk.eas(), chunk.targets());
        // Cursors into the chunk's side tables.
        let (mut ea, mut target) = (0usize, 0usize);
        let mut last = Repeats::new();
        // The chunk's front-end cycles, added to the segment at its end.
        let mut cycles = 0u64;
        let mut start = 0;
        while start < pcs.len() {
            let end = (start + BURST).min(pcs.len());
            let acc_base = seg.acc_pc.len();
            self.pre.clear();
            for i in start..end {
                let pc = pcs[i];
                let kind =
                    InstrKind::from_u8(kinds[i]).expect("packed traces hold only valid kinds");
                cycles += self.fetch(pc, &mut last, seg);
                if kind.is_memory() {
                    cycles += self.data_access(pc, eas[ea], &mut last, seg);
                    ea += 1;
                } else if kind.is_branch() {
                    let rec = TraceRecord {
                        pc,
                        kind,
                        effective_address: 0,
                        target: targets[target],
                        taken: chunk.taken(i),
                    };
                    target += 1;
                    cycles += self.retire_branch(&rec, seg);
                }
            }
            // Batched finalisation of the burst's new access events: the
            // multiply/shift/xor of `hash16` and the set masking are
            // data-independent across events, so these two passes
            // auto-vectorise where the in-loop form could not.
            debug_assert_eq!(seg.acc_sig.len(), acc_base);
            seg.acc_sig.extend(self.pre.iter().map(|&p| hash16(p)));
            seg.acc_set.extend(seg.acc_vpn[acc_base..].iter().map(|&v| (v & self.set_mask) as u32));
            start = end;
        }
        seg.instructions += pcs.len() as u64;
        seg.invariant_cycles += cycles;
        self.l1.count_repeat_hits(last.i_page_hits, last.d_page_hits);
        self.l1i.count_repeat_hits(last.line_hits);
    }

    /// The steps of one record that every kind takes: the instruction-side
    /// TLB and the L1i. Together with [`Self::data_access`] and
    /// [`Self::retire_branch`] this mirrors `Simulator::step` minus the L2/walker
    /// and the caches past the L1i: same event order (i-access, d-access,
    /// mispredict, branch), same cycle terms except the walk and the
    /// memory column's penalties. Returns the record's base cycle plus
    /// these steps' cycles. A page or line equal to the last one of its
    /// structure is counted in `last` as a hit instead of looked up.
    #[inline]
    fn fetch(&mut self, pc: u64, last: &mut Repeats, seg: &mut EventSegment) -> u64 {
        let mut cycles = 1u64;
        let page = vpn(pc);
        if page == last.i_page {
            last.i_page_hits += 1;
        } else {
            last.i_page = page;
            if !self.l1.hit(page, TranslationKind::Instruction) {
                self.emit_access(pc, page, 0, seg);
                cycles += self.l2_hit_latency;
            }
        }
        let line = pc >> self.l1i_line_shift;
        if line == last.line {
            last.line_hits += 1;
            cycles += self.l1i_hit_penalty;
        } else {
            last.line = line;
            if self.l1i.access(pc) {
                cycles += self.l1i_hit_penalty;
            } else {
                seg.mem_addr.push(pc);
                seg.mem_fetch.push(true);
            }
        }
        cycles
    }

    /// A load's or store's data-side TLB lookup and memory-column entry.
    /// Loads and stores cost the same (the hierarchy is write-allocate),
    /// so the column does not tell them apart.
    #[inline]
    fn data_access(&mut self, pc: u64, ea: u64, last: &mut Repeats, seg: &mut EventSegment) -> u64 {
        let mut cycles = 0;
        let page = vpn(ea);
        if page == last.d_page {
            last.d_page_hits += 1;
        } else {
            last.d_page = page;
            if !self.l1.hit(page, TranslationKind::Data) {
                self.emit_access(pc, page, 1, seg);
                cycles += self.l2_hit_latency;
            }
        }
        seg.mem_addr.push(ea);
        seg.mem_fetch.push(false);
        cycles
    }

    /// A branch's prediction, its misprediction event (with the pseudo
    /// wrong-path folds) and its control event; returns the penalty.
    #[inline]
    fn retire_branch(&mut self, rec: &TraceRecord, seg: &mut EventSegment) -> u64 {
        let penalty = self.branch.observe(rec);
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
        let class = rec.kind.branch_class().expect("branch kinds have a class");
        let code = match class {
            BranchClass::Conditional => CTL_COND,
            BranchClass::UnconditionalIndirect => CTL_UNCOND_INDIRECT,
            BranchClass::UnconditionalDirect => CTL_UNCOND_DIRECT,
        } | if rec.taken { CTL_TAKEN } else { 0 };
        self.emit_control(code, rec.pc, seg);
        self.sigs.record_branch(rec.pc, class);
        penalty
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

/// The page and line each of the front end's three L1 structures looked
/// up last within the chunk being walked, and the repeats of them it
/// counted instead of looking up. Only fetches reach the i-TLB and the
/// L1i, and only data accesses the d-TLB, so a lookup equal to the last
/// one of its structure finds it in that structure's MRU memo: a hit that
/// changes nothing but the hit count, which the chunk credits at its end.
/// Each value starts at `u64::MAX`, which no page or line number equals.
struct Repeats {
    i_page: u64,
    line: u64,
    d_page: u64,
    i_page_hits: u64,
    line_hits: u64,
    d_page_hits: u64,
}

impl Repeats {
    fn new() -> Repeats {
        Repeats {
            i_page: u64::MAX,
            line: u64::MAX,
            d_page: u64::MAX,
            i_page_hits: 0,
            line_hits: 0,
            d_page_hits: 0,
        }
    }
}

/// The policy-invariant memory side past the L1i: L1d, unified L2 and
/// L3, and DRAM (paper Table II). It runs a segment's memory column on
/// the replay side of a group, before that segment's back ends, and
/// always on one thread, so its ~1.2 MiB of tags stays in one core's
/// cache.
struct MemoryStage {
    mem: MemoryHierarchy,
}

impl MemoryStage {
    fn new(config: &SimConfig) -> MemoryStage {
        MemoryStage { mem: MemoryHierarchy::new(config.mem) }
    }

    /// Runs `seg`'s memory column in program order and returns its
    /// penalty cycles: each access's latency beyond the 4 cycles an L1
    /// hit costs, as `Simulator::step` charges it.
    fn run(&mut self, seg: &EventSegment) -> u64 {
        let mut cycles = 0u64;
        for (&addr, &fetch) in seg.mem_addr.iter().zip(&seg.mem_fetch) {
            let latency =
                if fetch { self.mem.fetch_after_l1i_miss(addr) } else { self.mem.load(addr) };
            cycles += latency.saturating_sub(4);
        }
        cycles
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

    /// Replays one whole segment, interleaving its control events with
    /// its access events exactly as the full simulator would, and adds
    /// the segment's front-end cycles and the `memory_cycles` its memory
    /// column cost. A backend that reads no control event jumps straight
    /// over them.
    pub fn replay(&mut self, seg: &EventSegment, memory_cycles: u64) {
        if self.hints.needs_branches || self.hints.needs_mispredicts {
            // A local cursor stays in a register across the policy calls.
            let mut ctl = 0usize;
            for i in 0..seg.access_events() {
                while ctl < seg.ctl_after.len() && seg.ctl_after[ctl] as usize <= i {
                    self.apply_control(seg, ctl);
                    ctl += 1;
                }
                self.access(seg, i);
            }
            for i in ctl..seg.control_events() {
                self.apply_control(seg, i);
            }
        } else {
            for i in 0..seg.access_events() {
                self.access(seg, i);
            }
        }
        self.cycles += seg.invariant_cycles + memory_cycles;
        self.instructions += seg.instructions;
    }

    /// Replays access event `i` of `seg`: the L2 lookup and, on a miss,
    /// the walk.
    #[inline]
    fn access(&mut self, seg: &EventSegment, i: usize) {
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

    /// Absolute telemetry counter values, in
    /// [`crate::telemetry::COUNTER_SCHEMA`] order. The one gauge, L2 TLB
    /// occupancy, is read off [`l2`](Self::l2) directly.
    fn telemetry_counters(&self) -> Vec<u64> {
        let stats = self.l2.stats();
        let outcomes = self.l2.dead_outcomes();
        vec![
            self.cycles,
            stats.hits,
            stats.misses,
            stats.cold_fills,
            stats.dead_evictions,
            self.l2.policy().prediction_table_accesses(),
            outcomes.true_dead,
            outcomes.false_dead,
            outcomes.true_live,
            outcomes.false_live,
        ]
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
    let lanes = Lanes::new(config, policies, trace.sig_code, None);
    let mut memory = MemoryStage::new(config);
    for (seg, ends_warmup) in [(&trace.warmup, true), (&trace.measured, false)] {
        let memory_cycles = memory.run(seg);
        for lane in 0..lanes.len() {
            lanes.replay(lane, seg, memory_cycles, ends_warmup);
        }
    }
    lanes.finish().into_iter().map(|(result, backend, _)| (result, backend)).collect()
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
    /// The replay side runs on a thread of its own and replays one
    /// segment while the front end builds the next; the front end claims
    /// back ends itself whenever it would otherwise wait for the ring.
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

/// What one backend of a group ends with: its result, the backend itself
/// and its epoch series, empty unless the group samples.
pub(crate) type LaneEnd<P> = (RunResult, Backend<P>, Vec<EpochRow>);

/// One backend of a group, the measured-window snapshot it took at the
/// warmup cut and, with telemetry, the epoch sampler it started there.
struct Lane<P: TlbReplacementPolicy> {
    backend: Backend<P>,
    window: Option<Window>,
    sampler: Option<EpochSampler>,
}

impl<P: TlbReplacementPolicy> Lane<P> {
    /// Samples after a replay of `instructions` records: the segment that
    /// ends at the warmup cut starts the sampler, and a measured segment
    /// advances it, closing an epoch when it ends on a boundary. Out of
    /// line, so that it takes no registers from the replay loop inlined
    /// into [`Lanes::replay`].
    #[inline(never)]
    fn sample(&mut self, epoch: u64, instructions: u64, ends_warmup: bool) {
        let backend = &self.backend;
        if ends_warmup {
            self.sampler = Some(EpochSampler::new(epoch, backend.telemetry_counters()));
        } else if let Some(sampler) = &mut self.sampler {
            if sampler.advance(instructions) {
                sampler.sample(&backend.telemetry_counters(), vec![backend.l2.occupancy()]);
            }
        }
    }
}

/// The backends of one factored group, each behind a lock of its own so
/// that whichever thread claims a backend's replay of a segment can run
/// it. A claim is exclusive, so the locks are never contended.
struct Lanes<P: TlbReplacementPolicy> {
    lanes: Vec<Mutex<Lane<P>>>,
    /// Measured instructions per telemetry epoch, if the group samples.
    epoch: Option<u64>,
}

impl<P: TlbReplacementPolicy> Lanes<P> {
    fn new(config: &SimConfig, policies: Vec<P>, sig_code: u64, epoch: Option<u64>) -> Lanes<P> {
        let lane = |p| {
            let mut backend = Backend::new(config, p, sig_code);
            if epoch.is_some() {
                // Scored from instruction 0, so a measured eviction of an
                // entry filled during warmup counts too.
                backend.l2.enable_outcome_tracking();
            }
            Mutex::new(Lane { backend, window: None, sampler: None })
        };
        Lanes { lanes: policies.into_iter().map(lane).collect(), epoch }
    }

    fn len(&self) -> usize {
        self.lanes.len()
    }

    /// Replays backend `lane` over `seg`, snapshotting its measured
    /// window when the segment ends at the warmup cut, and samples it
    /// when the group samples.
    fn replay(&self, lane: usize, seg: &EventSegment, memory_cycles: u64, ends_warmup: bool) {
        let mut lane = self.lanes[lane].lock().expect("a panicked claim stops its group");
        lane.backend.replay(seg, memory_cycles);
        if ends_warmup {
            lane.window = Some(lane.backend.window_start());
        }
        if let Some(epoch) = self.epoch {
            lane.sample(epoch, seg.instructions, ends_warmup);
        }
    }

    /// One [`LaneEnd`] per policy, in input order. A stream that ended
    /// before its warmup cut measures an empty window.
    fn finish(self) -> Vec<LaneEnd<P>> {
        self.lanes
            .into_iter()
            .map(|lane| {
                let Lane { backend, window, sampler } =
                    lane.into_inner().expect("a panicked claim stops its group");
                let window = window.unwrap_or_else(|| backend.window_start());
                let rows = sampler.map_or_else(Vec::new, |sampler| {
                    sampler.finish(&backend.telemetry_counters(), vec![backend.l2.occupancy()])
                });
                (backend.finish_result(window), backend, rows)
            })
            .collect()
    }
}

/// The segment ring between a group's front end and its replay side.
///
/// Segment `s` (counted from 0 in feed order) fills slot
/// `s % slots.len()`. The replay side runs the memory stage over handed
/// off segments in order; each backend then replays them in order, one
/// claim per (segment, backend), taken by whichever thread asks first:
/// the oldest staged segment a backend has not replayed yet, lowest
/// backend first. The front end refills a slot only once every backend
/// has replayed the segment that held it. So each backend replays every
/// segment, in order, on one thread at a time, and the memory stage
/// stays on the replay side's thread.
struct Ring<P: TlbReplacementPolicy> {
    lanes: Lanes<P>,
    slots: Vec<RwLock<EventSegment>>,
    state: Mutex<RingState>,
    /// Wakes the replay side: a segment was handed off, a claim finished,
    /// the feed closed or the group failed.
    replay_cv: Condvar,
    /// Wakes the front end: a claim finished (freeing a slot or
    /// readying another claim), a segment was staged or the group failed.
    feed_cv: Condvar,
}

struct RingState {
    /// Segments the front end has handed off.
    filled: usize,
    /// Segments the memory stage has run over.
    staged: usize,
    /// Memory-stage cycles of the staged segment in each slot.
    memory_cycles: Vec<u64>,
    /// Per backend: the next segment it replays, and whether a claim on
    /// it is running.
    progress: Vec<(usize, bool)>,
    /// The segment that ends at the warmup cut, once handed off.
    cut: Option<usize>,
    /// The front end has handed off its last segment.
    closed: bool,
    /// A thread panicked or the feed failed: both sides stop.
    failed: bool,
    /// A side is waiting on its condvar, so the other must notify it.
    replay_waits: bool,
    feed_waits: bool,
    /// Claims the front-end thread took while it would otherwise have
    /// waited for the ring.
    front_end_claims: u64,
}

/// One backend's replay of one staged segment.
struct Claim {
    lane: usize,
    slot: usize,
    memory_cycles: u64,
    ends_warmup: bool,
}

impl RingState {
    /// Segments every backend has replayed: their slots are free again.
    fn replayed(&self) -> usize {
        self.progress.iter().map(|&(next, _)| next).min().unwrap_or(self.staged)
    }

    /// Takes a claim on the oldest staged segment an idle backend has
    /// not replayed yet, if any.
    fn claim(&mut self) -> Option<Claim> {
        let staged = self.staged;
        let (lane, (next, busy)) = self
            .progress
            .iter_mut()
            .enumerate()
            .filter(|(_, (next, busy))| !*busy && *next < staged)
            .min_by_key(|(_, (next, _))| *next)?;
        *busy = true;
        let slot = *next % self.memory_cycles.len();
        let ends_warmup = self.cut == Some(*next);
        Some(Claim { lane, slot, memory_cycles: self.memory_cycles[slot], ends_warmup })
    }
}

impl<P: TlbReplacementPolicy> Ring<P> {
    fn new(lanes: Lanes<P>, slots: usize) -> Ring<P> {
        let state = RingState {
            filled: 0,
            staged: 0,
            memory_cycles: vec![0; slots],
            progress: vec![(0, false); lanes.len()],
            cut: None,
            closed: false,
            failed: false,
            replay_waits: false,
            feed_waits: false,
            front_end_claims: 0,
        };
        Ring {
            lanes,
            slots: (0..slots).map(|_| RwLock::new(EventSegment::for_chunk())).collect(),
            state: Mutex::new(state),
            replay_cv: Condvar::new(),
            feed_cv: Condvar::new(),
        }
    }

    /// The ring state. No code that can panic runs under this lock, so
    /// a poisoned lock still holds consistent state.
    fn state(&self) -> MutexGuard<'_, RingState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Wakes whichever side is waiting; `st` is dropped first.
    fn wake(&self, st: MutexGuard<'_, RingState>) {
        let (replay, feed) = (st.replay_waits, st.feed_waits);
        drop(st);
        if replay {
            self.replay_cv.notify_one();
        }
        if feed {
            self.feed_cv.notify_one();
        }
    }

    /// Runs one claim on the calling thread.
    fn run(&self, claim: Claim) {
        let seg = self.slots[claim.slot].read().unwrap_or_else(PoisonError::into_inner);
        self.lanes.replay(claim.lane, &seg, claim.memory_cycles, claim.ends_warmup);
        drop(seg);
        let mut st = self.state();
        let (next, busy) = &mut st.progress[claim.lane];
        *next += 1;
        *busy = false;
        self.wake(st);
    }

    /// Front end: the slot its next segment goes into, once one is free.
    /// `None` once the group failed.
    fn acquire(&self, times: &mut PipelineTimes) -> Option<usize> {
        self.help_until(self.slots.len() - 1, times).then(|| self.state().filled % self.slots.len())
    }

    /// Front end: returns once at most `backlog` handed-off segments are
    /// left to replay — `true` — or the group failed. Until then it
    /// claims backends itself instead of waiting, and waits only when no
    /// claim is ready; `times` gets both.
    fn help_until(&self, backlog: usize, times: &mut PipelineTimes) -> bool {
        let mut st = self.state();
        loop {
            if st.failed {
                return false;
            }
            if st.filled - st.replayed() <= backlog {
                return true;
            }
            if let Some(claim) = st.claim() {
                st.front_end_claims += 1;
                drop(st);
                timed(&mut times.front_claims, || self.run(claim));
                st = self.state();
            } else {
                st.feed_waits = true;
                st = timed(&mut times.front_wait, || self.feed_cv.wait(st))
                    .unwrap_or_else(PoisonError::into_inner);
                st.feed_waits = false;
            }
        }
    }

    /// Front end: hands off the segment it just filled.
    fn hand_off(&self, ends_warmup: bool) {
        let mut st = self.state();
        if ends_warmup {
            st.cut = Some(st.filled);
        }
        st.filled += 1;
        self.wake(st);
    }

    /// Replay side: stages segments and runs claims until neither is
    /// left, then returns — or, with `wait`, waits for more until the
    /// feed has closed and every segment is replayed, or the group
    /// failed. It stages first, since no other thread may. Inline, the
    /// calling thread runs this without waiting after each hand-off;
    /// pipelined, it is the replay thread's whole life. `times` gets the
    /// memory stage, the claims and the waits.
    fn replay(&self, memory: &mut MemoryStage, wait: bool, times: &mut PipelineTimes) {
        let mut st = self.state();
        loop {
            if st.failed {
                return;
            }
            if st.staged < st.filled {
                let slot = st.staged % self.slots.len();
                drop(st);
                let seg = self.slots[slot].read().unwrap_or_else(PoisonError::into_inner);
                let cycles = timed(&mut times.memory, || memory.run(&seg));
                drop(seg);
                st = self.state();
                st.memory_cycles[slot] = cycles;
                st.staged += 1;
                if st.feed_waits {
                    self.wake(st);
                    st = self.state();
                }
            } else if let Some(claim) = st.claim() {
                drop(st);
                timed(&mut times.replay_claims, || self.run(claim));
                st = self.state();
            } else if !wait || (st.closed && st.replayed() == st.filled) {
                return;
            } else {
                st.replay_waits = true;
                st = timed(&mut times.replay_wait, || self.replay_cv.wait(st))
                    .unwrap_or_else(PoisonError::into_inner);
                st.replay_waits = false;
            }
        }
    }

    /// Closes the feed; with `fail`, both sides also stop at once.
    fn hang_up(&self, fail: bool) {
        let mut st = self.state();
        st.closed = true;
        st.failed |= fail;
        drop(st);
        self.replay_cv.notify_all();
        self.feed_cv.notify_all();
    }
}

/// Runs `f`, adding the time it took to `total`.
fn timed<T>(total: &mut Duration, f: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let out = f();
    *total += started.elapsed();
    out
}

/// Hangs up a ring when dropped, so the other side never waits on a
/// thread that has stopped: the feed closes, and a panic in flight (or
/// a failed feed) stops both sides.
struct HangUp<'r, P: TlbReplacementPolicy> {
    ring: &'r Ring<P>,
    failed: bool,
}

impl<P: TlbReplacementPolicy> Drop for HangUp<'_, P> {
    fn drop(&mut self) {
        self.ring.hang_up(self.failed || std::thread::panicking());
    }
}

/// The calling thread's half of the chunk driver: the front end, the
/// cuts its segments end at, and the ring they go through.
struct Feeder<'r, P: TlbReplacementPolicy> {
    fe: FrontEnd,
    /// Instruction index at which the measured window opens.
    warmup: usize,
    /// Measured instructions per telemetry epoch, if the group samples:
    /// segments are also cut every `epoch` records after `warmup`.
    epoch: Option<usize>,
    /// Records fed so far.
    pos: usize,
    /// The next instruction index a segment must end at: `warmup`, then
    /// each epoch boundary, or `usize::MAX` once none is left.
    next_cut: usize,
    ring: &'r Ring<P>,
    /// Where the front end builds its segments.
    build: Build<'r>,
    /// The calling thread's time: its source, building, claims and
    /// waits.
    times: PipelineTimes,
}

/// Where a [`Feeder`] builds each segment.
enum Build<'r> {
    /// Inline: in place, in the ring's one slot, which never leaves the
    /// calling thread's core; that thread then runs the replay side with
    /// this memory stage, right after handing the segment off.
    InPlace(&'r mut MemoryStage),
    /// Pipelined: in this segment of the front end's own, which stays in
    /// its core's cache while the replay thread reads the ring slots, and
    /// is then published into the slot it acquires with one copy.
    Local(&'r mut EventSegment),
}

impl<'r, P: TlbReplacementPolicy> Feeder<'r, P> {
    fn new(
        fe: FrontEnd,
        warmup: usize,
        epoch: Option<u64>,
        ring: &'r Ring<P>,
        build: Build<'r>,
    ) -> Feeder<'r, P> {
        // A zero epoch would never move the next cut past this one.
        assert_ne!(epoch, Some(0), "epoch length must be positive");
        let epoch = epoch.map(|e| usize::try_from(e).unwrap_or(usize::MAX));
        let times = PipelineTimes::default();
        Feeder { fe, warmup, epoch, pos: 0, next_cut: warmup, ring, build, times }
    }

    /// Runs the front end over one chunk of at most [`CHUNK_SIZE`]
    /// records and hands its events to the back ends, one segment per
    /// stretch between the cuts that fall inside the chunk. Returns
    /// `false` once the group has failed (its replay thread panicked);
    /// the caller then stops feeding.
    fn push(&mut self, chunk: &TraceChunk<'_>) -> bool {
        let end = self.pos + chunk.len();
        let mut rest = *chunk;
        while self.next_cut <= end {
            let (head, tail) = rest.split_at(self.next_cut - self.pos);
            // The segment ending at the warmup cut goes out even when
            // empty: its back ends open their measured window after it.
            if !self.emit(&head, self.next_cut == self.warmup) {
                return false;
            }
            self.pos = self.next_cut;
            self.next_cut = self.epoch.map_or(usize::MAX, |e| self.next_cut.saturating_add(e));
            rest = tail;
        }
        self.pos = end;
        rest.is_empty() || self.emit(&rest, false)
    }

    /// Feeds `stream` through [`Feeder::push_batch`] until the stream
    /// ends or the group fails. The time from the feed's start, or from
    /// a batch's last push, to the next batch (or the feed's end) is the
    /// stream's own: generating or decoding that batch.
    fn feed<S: TraceStream + ?Sized>(&mut self, stream: &mut S) -> Result<(), StreamError> {
        let mut since = Instant::now();
        let fed = stream.feed(&mut |batch| {
            self.times.source += since.elapsed();
            let more = self.push_batch(batch);
            since = Instant::now();
            more
        });
        self.times.source += since.elapsed();
        fed
    }

    /// [`Feeder::push`]es a batch of any length, in chunks of at most
    /// [`CHUNK_SIZE`] records.
    fn push_batch(&mut self, batch: &TraceChunk<'_>) -> bool {
        let mut rest = *batch;
        while rest.len() > CHUNK_SIZE {
            let (chunk, tail) = rest.split_at(CHUNK_SIZE);
            if !self.push(&chunk) {
                return false;
            }
            rest = tail;
        }
        rest.is_empty() || self.push(&rest)
    }

    fn emit(&mut self, chunk: &TraceChunk<'_>, ends_warmup: bool) -> bool {
        match &mut self.build {
            Build::InPlace(memory) => {
                let Some(slot) = self.ring.acquire(&mut self.times) else { return false };
                let mut seg = self.ring.slots[slot].write().unwrap_or_else(PoisonError::into_inner);
                seg.clear();
                self.fe.process_chunk(chunk, &mut seg);
                drop(seg);
                self.ring.hand_off(ends_warmup);
                self.ring.replay(memory, false, &mut self.times);
            }
            Build::Local(local) => {
                let started = Instant::now();
                local.clear();
                self.fe.process_chunk(chunk, local);
                let built = started.elapsed();
                let Some(slot) = self.ring.acquire(&mut self.times) else { return false };
                let started = Instant::now();
                let mut seg = self.ring.slots[slot].write().unwrap_or_else(PoisonError::into_inner);
                seg.copy_from(local);
                drop(seg);
                self.ring.hand_off(ends_warmup);
                self.times.build += built + started.elapsed();
            }
        }
        true
    }
}

/// The factored chunk driver: [`run_stream_factored`] in a chosen
/// [`ReplayForm`]. The stream lends its batches on the calling thread to
/// the [`Feeder`] ([`Feeder::feed`]), which pushes them into a [`Ring`].
/// Inline, the calling thread builds each segment in the ring's one slot
/// and replays it right after. Pipelined, a scoped thread runs the
/// replay side over a ring of [`SEGMENT_POOL`] slots; the calling thread
/// builds each segment in one of its own, publishes it into a free slot
/// with one copy, and claims backends itself whenever the ring is full,
/// and again while the ring drains once the feed is done. It notes the
/// replay counts and both threads' [`PipelineTimes`] for the scheduler
/// summary. Either way every backend sees the same segments in the same
/// order with the same memory-stage cycles, and its measured window
/// opens right after the segment that ends at the warmup cut, so results
/// are bit-identical across forms. Each result comes beside its backend
/// and, with an `epoch` length, an epoch series sampled every `epoch`
/// measured instructions (empty without one).
///
/// # Errors
///
/// Returns the stream's error once the replay thread has stopped (it
/// abandons the segments still in flight) and joined. A panic on either
/// thread, in the stream (a generator's), a claim or elsewhere, stops
/// the other side and resumes on the caller.
pub(crate) fn replay_stream_group<P, S>(
    config: &SimConfig,
    sig_config: &ChirpConfig,
    policies: Vec<P>,
    stream: &mut S,
    warmup_fraction: f64,
    epoch: Option<u64>,
    form: ReplayForm,
) -> Result<Vec<LaneEnd<P>>, StreamError>
where
    P: TlbReplacementPolicy + Send,
    S: TraceStream + ?Sized,
{
    let warmup = warmup_cut(stream.len(), warmup_fraction);
    let lanes = Lanes::new(config, policies, sig_config.signature_code(), epoch);
    let fe = FrontEnd::new(config, sig_config);
    let mut memory = MemoryStage::new(config);
    match form {
        ReplayForm::Inline => {
            let ring = Ring::new(lanes, 1);
            Feeder::new(fe, warmup, epoch, &ring, Build::InPlace(&mut memory)).feed(stream)?;
            Ok(ring.lanes.finish())
        }
        ReplayForm::Pipelined => {
            let ring = Ring::new(lanes, SEGMENT_POOL);
            let (fed, times) = std::thread::scope(|scope| {
                let worker = scope.spawn(|| {
                    let _hang_up = HangUp { ring: &ring, failed: false };
                    let mut times = PipelineTimes::default();
                    ring.replay(&mut memory, true, &mut times);
                    times
                });
                let mut hang_up = HangUp { ring: &ring, failed: false };
                let mut local = EventSegment::for_chunk();
                let mut feeder = Feeder::new(fe, warmup, epoch, &ring, Build::Local(&mut local));
                // Once fed, the front end helps drain the ring.
                let fed = feeder.feed(stream).map(|()| {
                    ring.help_until(0, &mut feeder.times);
                });
                hang_up.failed = fed.is_err();
                drop(hang_up);
                match worker.join() {
                    Ok(replay_side) => (fed, feeder.times.add(&replay_side)),
                    Err(panic) => std::panic::resume_unwind(panic),
                }
            });
            let st = ring.state.into_inner().unwrap_or_else(PoisonError::into_inner);
            let replays = (st.replayed() * ring.lanes.len()) as u64;
            crate::sched::note_pipelined(replays, st.front_end_claims, times);
            fed?;
            Ok(ring.lanes.finish())
        }
    }
}

/// The streamed form of [`FactoredTrace::build`] + [`replay_factored`]:
/// feeds the stream's bounded batches through the factored chunk
/// driver, so peak event residency is O(chunk), and results are
/// bit-identical to
/// [`Simulator::run_columnar`](crate::Simulator::run_columnar) of each
/// policy over the same records. The back ends replay on a second thread
/// when a core would otherwise sit idle, inline otherwise.
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
    let outcomes =
        replay_stream_group(config, sig_config, policies, stream, warmup_fraction, None, form)?;
    Ok(outcomes.into_iter().map(|(result, backend, _)| (result, backend)).collect())
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
    use chirp_trace::suite::{build_suite, workload_family, SuiteConfig, PAPER_SUITE_SIZE};
    use chirp_trace::MaterializedStream;
    use std::collections::VecDeque;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::mpsc::{channel, Receiver, Sender};

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

    /// Warmup fractions whose cut falls at 0, exactly on a chunk
    /// boundary, mid-chunk and at `len`, with that cut.
    fn cuts() -> [(f64, usize); 4] {
        let boundary = ((4 * CHUNK_SIZE) as f64 + 0.5) / LEN as f64;
        let cuts = [(0.0, 0), (boundary, 4 * CHUNK_SIZE), (0.5, LEN / 2), (1.0, LEN)];
        for (fraction, cut) in cuts {
            assert_eq!(warmup_cut(LEN, fraction), cut);
        }
        cuts
    }

    /// Both forms of the driver equal `run_columnar` bit for bit at every
    /// cut, over a resident trace fed in chunk-sized views (as
    /// `run_policy_group` feeds it) and over a stream whose batches do not
    /// align with the chunks.
    #[test]
    fn both_forms_match_the_columnar_oracle_at_every_cut() {
        let trace = trace();
        let kinds = group();
        for (fraction, cut) in cuts() {
            let config = SimConfig { warmup_fraction: fraction, ..SimConfig::default() };
            let sig = group_sig_config(kinds.iter());
            let want = columnar(&kinds, &config, &trace);
            for form in FORMS {
                for (what, batch) in [("resident", CHUNK_SIZE), ("streamed", 3_000)] {
                    let mut stream = MaterializedStream::new(&trace, batch);
                    let policies = build(&kinds, &config);
                    let got = replay_stream_group(
                        &config,
                        &sig,
                        policies,
                        &mut stream,
                        fraction,
                        None,
                        form,
                    )
                    .expect("materialized stream");
                    let got: Vec<RunResult> = got.into_iter().map(|(r, _, _)| r).collect();
                    assert_eq!(got, want, "{what} {form:?} at cut {cut}");
                }
            }
        }
    }

    /// A streamed group of one — what `run_stream_group` runs for a
    /// single policy — equals `run_columnar` bit for bit in both forms at
    /// every cut, for every kind of replay need, over batches of one
    /// record, of sizes that do not divide a chunk, of exactly a chunk and
    /// of more than the whole trace.
    #[test]
    fn a_streamed_group_of_one_matches_the_columnar_oracle_at_every_cut() {
        let trace = trace();
        for (fraction, cut) in cuts() {
            let config = SimConfig { warmup_fraction: fraction, ..SimConfig::default() };
            for kind in group() {
                let kinds = [kind];
                let sig = group_sig_config(kinds.iter());
                let want = columnar(&kinds, &config, &trace);
                for (form, batch) in FORMS.into_iter().flat_map(|form| {
                    [1, 777, 3_000, CHUNK_SIZE, 100_000].map(|batch| (form, batch))
                }) {
                    let mut stream = MaterializedStream::new(&trace, batch);
                    let policies = build(&kinds, &config);
                    let got = replay_stream_group(
                        &config,
                        &sig,
                        policies,
                        &mut stream,
                        fraction,
                        None,
                        form,
                    )
                    .expect("materialized stream");
                    let got: Vec<RunResult> = got.into_iter().map(|(r, _, _)| r).collect();
                    assert_eq!(got, want, "{:?} {form:?} batch {batch} at cut {cut}", kinds[0]);
                }
            }
        }
    }

    /// Both forms sample the same epoch series at every cut, with epochs
    /// shorter than, equal to and longer than a chunk, over a stream whose
    /// batches align with neither chunks nor epochs. Sampling leaves every
    /// result equal to `run_columnar`'s, and each series tiles the
    /// measured window: full epochs and one shorter last one, whose
    /// deltas sum to the result's totals.
    #[test]
    fn both_forms_sample_the_same_series_at_every_cut() {
        let trace = trace();
        let kinds = group();
        for (fraction, cut) in cuts() {
            let config = SimConfig { warmup_fraction: fraction, ..SimConfig::default() };
            let sig = group_sig_config(kinds.iter());
            let want = columnar(&kinds, &config, &trace);
            let measured = (LEN - cut) as u64;
            for epoch in [1_500, CHUNK_SIZE as u64, 7_000] {
                let [inline, pipelined] = FORMS.map(|form| {
                    let mut stream = MaterializedStream::new(&trace, 3_000);
                    let policies = build(&kinds, &config);
                    let epoch = Some(epoch);
                    replay_stream_group(&config, &sig, policies, &mut stream, fraction, epoch, form)
                        .expect("materialized stream")
                        .into_iter()
                        .map(|(result, _, rows)| (result, rows))
                        .collect::<Vec<_>>()
                });
                assert_eq!(inline, pipelined, "epoch {epoch} at cut {cut}");
                for ((result, rows), want) in inline.iter().zip(&want) {
                    assert_eq!(result, want, "epoch {epoch} at cut {cut}");
                    assert_eq!(rows.len() as u64, measured.div_ceil(epoch));
                    let (last, full) =
                        rows.split_last().map_or((0, &rows[..]), |(l, f)| (l.instructions, f));
                    assert!(full.iter().all(|row| row.instructions == epoch));
                    assert_eq!(full.len() as u64 * epoch + last, measured);
                    let sum = |i: usize| rows.iter().map(|row| row.deltas[i]).sum::<u64>();
                    let stats = result.l2_tlb;
                    assert_eq!([sum(0), sum(1), sum(2)], [result.cycles, stats.hits, stats.misses]);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "epoch length must be positive")]
    fn zero_epoch_is_rejected() {
        let trace = build_suite(&SuiteConfig { benchmarks: 1 })[0].generate_packed(1_000);
        let config = SimConfig::default();
        let policies = build(&[PolicyKind::Lru], &config);
        let sig = ChirpConfig::default();
        let mut stream = MaterializedStream::new(&trace, 1_000);
        let _ = replay_stream_group(
            &config,
            &sig,
            policies,
            &mut stream,
            0.5,
            Some(0),
            ReplayForm::Inline,
        );
    }

    /// The front end's walk without its register memos: one record at a
    /// time, every fetch looks its page up with [`L1FrontEnd::hit`] and
    /// its line with [`Cache::access`], every data access its page with
    /// [`L1FrontEnd::hit`]. Signatures and set indices are finalised once
    /// for the whole chunk.
    fn plain_chunk(fe: &mut FrontEnd, chunk: &TraceChunk<'_>, seg: &mut EventSegment) {
        let acc_base = seg.acc_pc.len();
        fe.pre.clear();
        let (mut ea, mut target) = (0, 0);
        for (i, &pc) in chunk.pcs().iter().enumerate() {
            let kind = InstrKind::from_u8(chunk.kinds()[i]).expect("valid kind");
            let mut cycles = 1;
            if !fe.l1.hit(vpn(pc), TranslationKind::Instruction) {
                fe.emit_access(pc, vpn(pc), 0, seg);
                cycles += fe.l2_hit_latency;
            }
            if fe.l1i.access(pc) {
                cycles += fe.l1i_hit_penalty;
            } else {
                seg.mem_addr.push(pc);
                seg.mem_fetch.push(true);
            }
            if kind.is_memory() {
                let addr = chunk.eas()[ea];
                ea += 1;
                if !fe.l1.hit(vpn(addr), TranslationKind::Data) {
                    fe.emit_access(pc, vpn(addr), 1, seg);
                    cycles += fe.l2_hit_latency;
                }
                seg.mem_addr.push(addr);
                seg.mem_fetch.push(false);
            } else if kind.is_branch() {
                let taken = chunk.taken(i);
                let target_pc = chunk.targets()[target];
                target += 1;
                let rec = TraceRecord { pc, kind, effective_address: 0, target: target_pc, taken };
                cycles += fe.retire_branch(&rec, seg);
            }
            seg.instructions += 1;
            seg.invariant_cycles += cycles;
        }
        seg.acc_sig.extend(fe.pre.iter().map(|&p| hash16(p)));
        seg.acc_set.extend(seg.acc_vpn[acc_base..].iter().map(|&v| (v & fe.set_mask) as u32));
    }

    /// Walks `trace` in chunks of `chunk` records with the front end and
    /// with [`plain_chunk`]: every segment's wire bytes, the L1 TLB
    /// statistics and the L1i's hits and misses must be equal. It walks
    /// under the default configuration, whose L1i hit costs no cycles
    /// beyond the pipeline's, and again with a slower L1i, so a repeated
    /// line's hit penalty shows in the segments' cycles.
    fn assert_memos_are_exact(trace: &PackedTrace, chunk: usize, what: &str) {
        let mut slow_l1i = SimConfig::default();
        slow_l1i.mem.l1i.hit_latency += 3;
        for config in [SimConfig::default(), slow_l1i] {
            assert_memos_are_exact_under(&config, trace, chunk, what);
        }
    }

    fn assert_memos_are_exact_under(
        config: &SimConfig,
        trace: &PackedTrace,
        chunk: usize,
        what: &str,
    ) {
        let sig = ChirpConfig::default();
        let (mut memo, mut plain) = (FrontEnd::new(config, &sig), FrontEnd::new(config, &sig));
        let (mut got, mut want) = (EventSegment::default(), EventSegment::default());
        for (i, part) in trace.chunks(chunk).enumerate() {
            got.clear();
            want.clear();
            memo.process_chunk(&part, &mut got);
            plain_chunk(&mut plain, &part, &mut want);
            assert!(got.wire_bytes() == want.wire_bytes(), "{what}, chunk {chunk}: segment {i}");
        }
        assert_eq!(memo.l1_stats(), plain.l1_stats(), "{what}, chunk {chunk}: L1 TLBs");
        assert_eq!(memo.l1i.stats(), plain.l1i.stats(), "{what}, chunk {chunk}: L1i");
        let (i_hits, _, d_hits, _) = memo.l1_stats();
        assert!(i_hits > 0 && d_hits > 0 && memo.l1i.stats().hits > 0, "{what}: nothing hit");
    }

    /// Chunk sizes of one record (no memo survives a record), a size
    /// that divides nothing, and the driver's.
    const MEMO_CHUNKS: [usize; 3] = [1, 7, CHUNK_SIZE];

    /// The register memos change no event, no L1 TLB count and no L1i
    /// count, over one trace of each generator family.
    #[test]
    fn register_memos_are_exact_for_every_generator_family() {
        let mut seen = Vec::new();
        for bench in build_suite(&SuiteConfig { benchmarks: PAPER_SUITE_SIZE }) {
            let family = workload_family(&bench.name).to_string();
            if seen.contains(&family) {
                continue;
            }
            let trace = bench.generate_packed(20_000);
            for chunk in MEMO_CHUNKS {
                assert_memos_are_exact(&trace, chunk, &bench.name);
            }
            seen.push(family);
        }
        assert_eq!(seen.len(), 8, "one trace per generator family: {seen:?}");
    }

    /// Builds a trace of `n` records from `record(i)`.
    fn hand_built(n: usize, record: impl Fn(usize) -> TraceRecord) -> PackedTrace {
        PackedTrace::from_records(&(0..n).map(record).collect::<Vec<_>>())
    }

    /// Fetches alternate, three records at a time, between two code
    /// pages in one L1 i-TLB set (and one L1i set), and loads alternate
    /// between two data pages in one d-TLB set: the last page differs
    /// from the one before it exactly where the per-set memo would miss.
    #[test]
    fn register_memos_are_exact_when_two_pages_share_a_set() {
        let sets = SimConfig::default().tlb.l1i.sets() as u64;
        let d_sets = SimConfig::default().tlb.l1d.sets() as u64;
        let (code, data) = (0x40u64, 0x9000u64);
        let geometry = SimConfig::default().tlb.l1i;
        assert_eq!(geometry.set_of(code), geometry.set_of(code + sets));
        let trace = hand_built(6_000, |i| {
            let page = if (i / 3) % 2 == 0 { code } else { code + sets };
            let pc = (page << 12) + 4 * (i % 3) as u64;
            let data_page = if (i / 3) % 2 == 0 { data } else { data + d_sets };
            match i % 3 {
                0 => TraceRecord::alu(pc),
                1 => TraceRecord::load(pc, (data_page << 12) + 8 * (i % 64) as u64),
                _ => TraceRecord::cond_branch(pc, (code + sets) << 12, i % 4 < 2),
            }
        });
        for chunk in MEMO_CHUNKS {
            assert_memos_are_exact(&trace, chunk, "two pages in one set");
        }
    }

    /// Loads read the page their own code sits in, and now and then the
    /// code jumps to a second page: the i-TLB and d-TLB memos hold the
    /// same page number, and each must still count only its own lookups.
    #[test]
    fn register_memos_are_exact_when_code_and_data_share_a_page() {
        let (first, second) = (0x77u64, 0x78u64);
        let trace = hand_built(8_000, |i| {
            let page = if (i / 500) % 2 == 0 { first } else { second };
            let pc = (page << 12) + 4 * (i % 1024) as u64;
            match i % 3 {
                0 => TraceRecord::load(pc, (page << 12) + 64 * (i % 64) as u64),
                1 => TraceRecord::store(pc, (page << 12) + 8 * (i % 512) as u64),
                _ => TraceRecord::alu(pc),
            }
        });
        for chunk in MEMO_CHUNKS {
            assert_memos_are_exact(&trace, chunk, "code and data in one page");
        }
    }

    /// The columnar oracle's result for each of `kinds`.
    fn columnar(kinds: &[PolicyKind], config: &SimConfig, trace: &PackedTrace) -> Vec<RunResult> {
        build(kinds, config)
            .into_iter()
            .map(|p| Simulator::with_policy(config, p).run_columnar(trace, config.warmup_fraction))
            .collect()
    }

    /// Test policy around any lineup policy, forwarding every hook. At
    /// its first access it drops `release` (opening a gate something else
    /// waits on), then waits on `gate`; it optionally panics on its
    /// `panic_at`-th access.
    struct Probe {
        inner: PolicyDispatch,
        gate: Option<Receiver<()>>,
        release: Option<Sender<()>>,
        panic_at: Option<u64>,
        accesses: u64,
    }

    impl Probe {
        fn new(kind: &PolicyKind) -> Probe {
            let inner = kind.build_dispatch(SimConfig::default().tlb.l2, 3);
            Probe { inner, gate: None, release: None, panic_at: None, accesses: 0 }
        }

        fn gated(mut self, gate: Option<Receiver<()>>) -> Probe {
            self.gate = gate;
            self
        }

        fn releasing(mut self, release: Option<Sender<()>>) -> Probe {
            self.release = release;
            self
        }

        fn panicking_at(mut self, access: u64) -> Probe {
            self.panic_at = Some(access);
            self
        }

        fn access(&mut self) {
            self.release = None;
            if let Some(gate) = self.gate.take() {
                // Opens when the sending half drops.
                let _ = gate.recv();
            }
            self.accesses += 1;
            assert_ne!(Some(self.accesses), self.panic_at, "probe policy panics on request");
        }
    }

    impl TlbReplacementPolicy for Probe {
        fn name(&self) -> &str {
            self.inner.name()
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

        fn on_evict(&mut self, set: usize, way: usize) {
            self.inner.on_evict(set, way);
        }

        fn on_branch(&mut self, pc: u64, class: BranchClass, taken: bool) {
            self.inner.on_branch(pc, class, taken);
        }

        fn on_mispredict(&mut self, pc: u64) {
            self.inner.on_mispredict(pc);
        }

        fn prediction_table_accesses(&self) -> u64 {
            self.inner.prediction_table_accesses()
        }

        fn dead_eviction_count(&self) -> u64 {
            self.inner.dead_eviction_count()
        }

        fn predicts_dead(&self, set: usize, way: usize) -> Option<bool> {
            self.inner.predicts_dead(set, way)
        }

        fn storage(&self) -> PolicyStorage {
            self.inner.storage()
        }

        fn replay_hints(&self, sig_code: u64) -> ReplayHints {
            self.inner.replay_hints(sig_code)
        }

        fn supply_signature(&mut self, sig: u16) {
            self.inner.supply_signature(sig);
        }
    }

    /// The pipelined set-up in which the front end must claim backend 1:
    /// the stream holds the front end before the batch that overfills its
    /// ring until backend 0 has started its first claim, which is then
    /// on the replay thread, and backend 0 waits there until backend 1 —
    /// which only the front end is left to claim — opens its gate.
    /// Returns the stream and the two probes' gate and release.
    fn front_end_must_claim(trace: &PackedTrace) -> (GatedStream<'_>, Probe, Probe) {
        let mut stream = GatedStream::new(trace, LEN.div_ceil(CHUNK_SIZE), None);
        let started = stream.hold_at(SEGMENT_POOL);
        let (release, gate) = channel();
        let first = Probe::new(&PolicyKind::Lru).releasing(Some(started)).gated(Some(gate));
        let second = Probe::new(&PolicyKind::Ghrp).releasing(Some(release));
        (stream, first, second)
    }

    /// Both forms still equal `run_columnar` when the front-end thread
    /// replays backends ([`front_end_must_claim`]), and the noted replay
    /// counts show the front end's share.
    #[test]
    fn front_end_claims_keep_both_forms_exact() {
        let trace = trace();
        let config = SimConfig::default();
        let mut kinds = vec![PolicyKind::Lru, PolicyKind::Ghrp];
        kinds.extend(group());
        let want = columnar(&kinds, &config, &trace);
        // Eleven chunks, one of them split at the warmup cut.
        let segments = (LEN.div_ceil(CHUNK_SIZE) + 1) as u64;
        for form in FORMS {
            let (mut stream, first, second) = front_end_must_claim(&trace);
            let mut policies: Vec<Probe> = kinds[2..].iter().map(Probe::new).collect();
            if form == ReplayForm::Pipelined {
                policies.splice(0..0, [first, second]);
            } else {
                stream = GatedStream::new(&trace, LEN.div_ceil(CHUNK_SIZE), None);
                policies.splice(0..0, kinds[..2].iter().map(Probe::new));
            }
            let got = run(&mut stream, policies, form).expect("the stream does not fail");
            let got: Vec<RunResult> = got.into_iter().map(|(r, _, _)| r).collect();
            assert_eq!(got, want, "{form:?}");
            let noted = crate::sched::take_pipelined();
            if form == ReplayForm::Pipelined {
                let crate::sched::Pipelined { replays, front_end_replays: by_front_end, .. } =
                    noted.expect("a pipelined group notes its replays");
                assert_eq!(replays, segments * kinds.len() as u64);
                assert!(by_front_end >= 1, "the front end must have claimed backend 1");
            } else {
                assert_eq!(noted, None, "an inline group notes nothing");
            }
        }
    }

    /// A stream that lends prepared batches, then `Err` (or the end),
    /// and opens a channel gate — drops `gate` — when it reaches item
    /// `open_at`. Progress on the replay side is thus tied to how far
    /// the front end has read, with no timing involved.
    struct GatedStream<'a> {
        items: VecDeque<Result<TraceChunk<'a>, StreamError>>,
        len: usize,
        served: usize,
        open_at: usize,
        gate: Option<Sender<()>>,
        hold: Option<(usize, Receiver<()>)>,
    }

    impl<'a> GatedStream<'a> {
        /// The first `batches` chunk-sized batches of `trace`, then
        /// `error` if given.
        fn new(trace: &'a PackedTrace, batches: usize, error: Option<StreamError>) -> Self {
            let mut items: VecDeque<_> = trace.chunks(CHUNK_SIZE).take(batches).map(Ok).collect();
            assert_eq!(items.len(), batches, "the trace holds {batches} batches");
            items.extend(error.map(Err));
            let len = trace.len();
            GatedStream { items, len, served: 0, open_at: usize::MAX, gate: None, hold: None }
        }

        /// Returns the gate a [`Probe`] waits on, opened at item `at`.
        fn gate_at(&mut self, at: usize) -> Receiver<()> {
            let (tx, rx) = channel();
            self.gate = Some(tx);
            self.open_at = at;
            rx
        }

        /// Makes item `at` wait until the returned sender drops.
        fn hold_at(&mut self, at: usize) -> Sender<()> {
            let (tx, rx) = channel();
            self.hold = Some((at, rx));
            tx
        }
    }

    impl TraceStream for GatedStream<'_> {
        fn len(&self) -> usize {
            self.len
        }

        /// Counts every item it reaches in `served`, the end included.
        fn feed(
            &mut self,
            take: &mut dyn FnMut(&TraceChunk<'_>) -> bool,
        ) -> Result<(), StreamError> {
            loop {
                if let Some((_, hold)) = self.hold.take_if(|(at, _)| *at == self.served) {
                    let _ = hold.recv();
                }
                if self.served == self.open_at {
                    self.gate = None;
                }
                self.served += 1;
                match self.items.pop_front() {
                    None => return Ok(()),
                    Some(item) => {
                        if !take(&item?) {
                            return Ok(());
                        }
                    }
                }
            }
        }
    }

    fn run(
        stream: &mut GatedStream<'_>,
        policies: Vec<Probe>,
        form: ReplayForm,
    ) -> Result<Vec<LaneEnd<Probe>>, StreamError> {
        let config = SimConfig::default();
        let sig = ChirpConfig::default();
        replay_stream_group(&config, &sig, policies, stream, config.warmup_fraction, None, form)
    }

    /// A stream that fails after some batches returns that error from
    /// either form. Pipelined, the replay thread is held inside its first
    /// claim until the front end asks for the failing batch, so the error
    /// arrives with that claim in flight and every later segment queued.
    #[test]
    fn stream_error_stops_the_feed_and_returns() {
        let trace = trace();
        let batches = SEGMENT_POOL - 1;
        for form in FORMS {
            let failure = StreamError::Corrupt("cut off".into());
            let mut stream = GatedStream::new(&trace, batches, Some(failure));
            let gate = (form == ReplayForm::Pipelined).then(|| stream.gate_at(batches));
            let policies =
                vec![Probe::new(&PolicyKind::Lru).gated(gate), Probe::new(&PolicyKind::Lru)];
            match run(&mut stream, policies, form) {
                Err(StreamError::Corrupt(why)) => assert_eq!(why, "cut off", "{form:?}"),
                other => panic!("{form:?}: expected the stream's error, got {:?}", other.is_ok()),
            }
            assert_eq!(stream.served, batches + 1, "{form:?}: the feed stops at the error");
        }
    }

    /// A policy that panics mid-trace on the replay side makes the group
    /// panic, in either form and through `run_stream_factored`, instead
    /// of deadlocking. Pipelined, the panicking backend starts its first
    /// claim on the replay thread while the stream holds the front end,
    /// and panics once the front end has filled every slot of its ring
    /// and reads one more batch, so the front end is (or is about to be)
    /// claiming or waiting for a slot when the replay thread dies.
    #[test]
    fn replay_panic_reaches_the_caller() {
        let trace = trace();
        let chunks = LEN.div_ceil(CHUNK_SIZE);
        for form in FORMS {
            let mut stream = GatedStream::new(&trace, chunks, None);
            let (gate, started) = match form {
                ReplayForm::Inline => (None, None),
                ReplayForm::Pipelined => {
                    (Some(stream.gate_at(SEGMENT_POOL)), Some(stream.hold_at(SEGMENT_POOL)))
                }
            };
            let policies = vec![
                Probe::new(&PolicyKind::Lru),
                Probe::new(&PolicyKind::Lru).releasing(started).gated(gate).panicking_at(1),
            ];
            let outcome = catch_unwind(AssertUnwindSafe(|| run(&mut stream, policies, form)));
            assert!(outcome.is_err(), "{form:?}: the replay panic must reach the caller");
        }
        let mut stream = GatedStream::new(&trace, chunks, None);
        let policies =
            vec![Probe::new(&PolicyKind::Lru).panicking_at(100), Probe::new(&PolicyKind::Lru)];
        let config = SimConfig::default();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_stream_factored(&config, &ChirpConfig::default(), policies, &mut stream, 0.5)
        }));
        assert!(outcome.is_err(), "run_stream_factored must panic");
    }

    /// A policy that panics while the front-end thread replays its claim
    /// ([`front_end_must_claim`]) reaches the caller, and the replay
    /// thread — held inside the claim before it until the panicking probe
    /// opens its gate — stops instead of waiting for a claim that never
    /// finishes.
    #[test]
    fn front_end_claim_panic_reaches_the_caller() {
        let trace = trace();
        let (mut stream, first, second) = front_end_must_claim(&trace);
        let policies = vec![first, second.panicking_at(1)];
        let outcome =
            catch_unwind(AssertUnwindSafe(|| run(&mut stream, policies, ReplayForm::Pipelined)));
        let panic = outcome.err().expect("the front end's claim panic must reach the caller");
        let message = panic.downcast_ref::<String>().map_or("", String::as_str);
        assert!(message.contains("probe policy panics on request"), "{message}");
        assert_eq!(stream.served, SEGMENT_POOL + 1, "the front end claimed once its ring was full");
    }
}
