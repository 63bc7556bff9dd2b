//! The instruction trace record: the unit every simulator component consumes.

/// Classification of a single traced instruction.
///
/// The categories mirror the information the CVP-1 traces expose and the
/// CHiRP algorithm consumes: loads/stores drive d-TLB accesses, conditional
/// branches feed the conditional-branch history, and unconditional indirect
/// control flow (indirect jumps/calls and returns) feeds the indirect-branch
/// history (paper §IV-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum InstrKind {
    /// Plain ALU/other instruction: no memory operand, no control flow.
    Alu = 0,
    /// Memory read. `effective_address` is the load address.
    Load = 1,
    /// Memory write. `effective_address` is the store address.
    Store = 2,
    /// Conditional direct branch; `taken` and `target` are meaningful.
    CondBranch = 3,
    /// Unconditional direct jump.
    DirectJump = 4,
    /// Unconditional indirect jump (register target).
    IndirectJump = 5,
    /// Direct call (pushes a return address).
    Call = 6,
    /// Indirect call (register target; pushes a return address).
    IndirectCall = 7,
    /// Return (pops a return address).
    Return = 8,
}

impl InstrKind {
    /// All kinds, in discriminant order. Useful for exhaustive tests.
    pub const ALL: [InstrKind; 9] = [
        InstrKind::Alu,
        InstrKind::Load,
        InstrKind::Store,
        InstrKind::CondBranch,
        InstrKind::DirectJump,
        InstrKind::IndirectJump,
        InstrKind::Call,
        InstrKind::IndirectCall,
        InstrKind::Return,
    ];

    /// Does this instruction access data memory?
    #[inline]
    pub fn is_memory(self) -> bool {
        matches!(self, InstrKind::Load | InstrKind::Store)
    }

    /// Is this any control-flow instruction?
    #[inline]
    pub fn is_branch(self) -> bool {
        !matches!(self, InstrKind::Alu | InstrKind::Load | InstrKind::Store)
    }

    /// The branch class relevant to history updates, if any.
    #[inline]
    pub fn branch_class(self) -> Option<BranchClass> {
        match self {
            InstrKind::CondBranch => Some(BranchClass::Conditional),
            InstrKind::IndirectJump | InstrKind::IndirectCall | InstrKind::Return => {
                Some(BranchClass::UnconditionalIndirect)
            }
            InstrKind::DirectJump | InstrKind::Call => Some(BranchClass::UnconditionalDirect),
            _ => None,
        }
    }

    /// Decodes the `repr(u8)` discriminant back into a kind.
    #[inline]
    pub fn from_u8(v: u8) -> Option<InstrKind> {
        Self::ALL.get(v as usize).copied()
    }
}

/// Branch classes as the CHiRP history registers distinguish them
/// (paper §IV-B): conditional branches update the conditional history;
/// unconditional *indirect* branches update the indirect history;
/// unconditional direct branches update neither (but do steer fetch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchClass {
    /// Conditional direct branch.
    Conditional,
    /// Unconditional branch with a register-specified target (incl. returns).
    UnconditionalIndirect,
    /// Unconditional branch with an immediate target.
    UnconditionalDirect,
}

/// One retired instruction, as read from (or generated into) a trace.
///
/// All addresses are full 64-bit virtual addresses; page numbers are derived
/// with [`crate::vpn`]. Non-memory instructions carry `effective_address ==
/// 0`, and non-branches carry `target == 0` / `taken == false`; use
/// [`InstrKind`] predicates rather than sentinel checks where possible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceRecord {
    /// Virtual address of the instruction.
    pub pc: u64,
    /// Instruction classification.
    pub kind: InstrKind,
    /// Data virtual address for loads/stores; 0 otherwise.
    pub effective_address: u64,
    /// Actual control-flow target for taken branches/jumps/calls/returns;
    /// 0 otherwise.
    pub target: u64,
    /// Outcome for conditional branches; `true` for taken unconditional
    /// control flow; `false` otherwise.
    pub taken: bool,
}

impl TraceRecord {
    /// A plain ALU instruction at `pc`.
    #[inline]
    pub fn alu(pc: u64) -> Self {
        TraceRecord { pc, kind: InstrKind::Alu, effective_address: 0, target: 0, taken: false }
    }

    /// A load from `ea` issued at `pc`.
    #[inline]
    pub fn load(pc: u64, ea: u64) -> Self {
        TraceRecord { pc, kind: InstrKind::Load, effective_address: ea, target: 0, taken: false }
    }

    /// A store to `ea` issued at `pc`.
    #[inline]
    pub fn store(pc: u64, ea: u64) -> Self {
        TraceRecord { pc, kind: InstrKind::Store, effective_address: ea, target: 0, taken: false }
    }

    /// A conditional branch at `pc` with outcome `taken` and target `target`.
    #[inline]
    pub fn cond_branch(pc: u64, target: u64, taken: bool) -> Self {
        TraceRecord { pc, kind: InstrKind::CondBranch, effective_address: 0, target, taken }
    }

    /// A direct call at `pc` to `target`.
    #[inline]
    pub fn call(pc: u64, target: u64) -> Self {
        TraceRecord { pc, kind: InstrKind::Call, effective_address: 0, target, taken: true }
    }

    /// An indirect call at `pc` to `target`.
    #[inline]
    pub fn indirect_call(pc: u64, target: u64) -> Self {
        TraceRecord { pc, kind: InstrKind::IndirectCall, effective_address: 0, target, taken: true }
    }

    /// A return at `pc` to `target`.
    #[inline]
    pub fn ret(pc: u64, target: u64) -> Self {
        TraceRecord { pc, kind: InstrKind::Return, effective_address: 0, target, taken: true }
    }

    /// A direct jump at `pc` to `target`.
    #[inline]
    pub fn jump(pc: u64, target: u64) -> Self {
        TraceRecord { pc, kind: InstrKind::DirectJump, effective_address: 0, target, taken: true }
    }

    /// An indirect jump at `pc` to `target`.
    #[inline]
    pub fn indirect_jump(pc: u64, target: u64) -> Self {
        TraceRecord { pc, kind: InstrKind::IndirectJump, effective_address: 0, target, taken: true }
    }

    /// Virtual page number of the instruction address.
    #[inline]
    pub fn code_vpn(&self) -> u64 {
        crate::vpn(self.pc)
    }

    /// Virtual page number of the data address, if this is a memory access.
    #[inline]
    pub fn data_vpn(&self) -> Option<u64> {
        self.kind.is_memory().then(|| crate::vpn(self.effective_address))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_roundtrip_through_u8() {
        for kind in InstrKind::ALL {
            assert_eq!(InstrKind::from_u8(kind as u8), Some(kind));
        }
        assert_eq!(InstrKind::from_u8(9), None);
        assert_eq!(InstrKind::from_u8(255), None);
    }

    #[test]
    fn memory_predicate_matches_kinds() {
        assert!(InstrKind::Load.is_memory());
        assert!(InstrKind::Store.is_memory());
        for kind in [InstrKind::Alu, InstrKind::CondBranch, InstrKind::Call, InstrKind::Return] {
            assert!(!kind.is_memory(), "{kind:?} must not be a memory access");
        }
    }

    #[test]
    fn branch_classes() {
        assert_eq!(InstrKind::CondBranch.branch_class(), Some(BranchClass::Conditional));
        assert_eq!(
            InstrKind::IndirectJump.branch_class(),
            Some(BranchClass::UnconditionalIndirect)
        );
        assert_eq!(
            InstrKind::IndirectCall.branch_class(),
            Some(BranchClass::UnconditionalIndirect)
        );
        assert_eq!(InstrKind::Return.branch_class(), Some(BranchClass::UnconditionalIndirect));
        assert_eq!(InstrKind::Call.branch_class(), Some(BranchClass::UnconditionalDirect));
        assert_eq!(InstrKind::DirectJump.branch_class(), Some(BranchClass::UnconditionalDirect));
        assert_eq!(InstrKind::Alu.branch_class(), None);
        assert_eq!(InstrKind::Load.branch_class(), None);
    }

    #[test]
    fn constructors_set_fields() {
        let l = TraceRecord::load(0x400_000, 0xdead_b000);
        assert_eq!(l.kind, InstrKind::Load);
        assert_eq!(l.data_vpn(), Some(0xdead_b000 >> 12));
        let b = TraceRecord::cond_branch(0x400_004, 0x400_100, true);
        assert!(b.taken);
        assert_eq!(b.data_vpn(), None);
        assert_eq!(b.code_vpn(), 0x400);
    }
}
