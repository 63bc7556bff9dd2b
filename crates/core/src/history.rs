//! History registers with the paper's shift-and-scale transform.
//!
//! Each register is a shift register of fixed-width events. The paper's
//! path history shifts in two PC bits followed by two injected zeros per
//! access (`history = (history << 4) | pc[3:2]`, Algorithm 5 lines 27–29);
//! the branch histories shift in eight PC bits per branch (`history =
//! (history << 8) | pc[11:4]`, lines 30–32). Registers are 64 bits in the
//! paper; this implementation is 128 bits wide so history-length sweeps
//! (Figure 2) can exceed the paper's defaults, and folds to 64 bits when
//! composing the signature.

/// A fixed-capacity shift register of PC-derived events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistoryRegister {
    bits: u128,
    /// Bits shifted per event (payload + injected zeros).
    event_bits: u32,
    /// Payload bits of the PC folded per event.
    payload_bits: u32,
    /// Lowest PC bit of the payload.
    payload_shift: u32,
    /// Events retained.
    capacity: u32,
}

impl HistoryRegister {
    /// The paper's path history: `pc[3:2]` plus two injected zeros per
    /// event, `length` events retained (16 in the paper).
    pub fn path(length: u32, inject_zeros: bool) -> Self {
        let event_bits = if inject_zeros { 4 } else { 2 };
        Self::new(event_bits, 2, 2, length)
    }

    /// The paper's branch history: `pc[11:4]` per event, `length` events
    /// retained (8 in the paper).
    pub fn branch(length: u32) -> Self {
        Self::new(8, 8, 4, length)
    }

    /// General constructor.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not fit the 128-bit register or the
    /// payload exceeds the event width.
    pub fn new(event_bits: u32, payload_bits: u32, payload_shift: u32, capacity: u32) -> Self {
        assert!(payload_bits <= event_bits, "payload cannot exceed event width");
        assert!(capacity > 0, "capacity must be positive");
        assert!(
            event_bits * capacity <= 128,
            "history of {capacity} x {event_bits}-bit events exceeds 128 bits"
        );
        HistoryRegister { bits: 0, event_bits, payload_bits, payload_shift, capacity }
    }

    /// Shifts the event derived from `pc` into the register.
    #[inline]
    pub fn push(&mut self, pc: u64) {
        let payload = (pc >> self.payload_shift) & ((1u64 << self.payload_bits) - 1);
        self.bits = (self.bits << self.event_bits) | u128::from(payload);
        let total = self.event_bits * self.capacity;
        if total < 128 {
            self.bits &= (1u128 << total) - 1;
        }
    }

    /// Folds the register into 64 bits (identity when it fits — the exact
    /// paper semantics for the default lengths).
    #[inline]
    pub fn folded(&self) -> u64 {
        (self.bits as u64) ^ ((self.bits >> 64) as u64)
    }

    /// Raw register contents (tests, diagnostics).
    pub fn raw(&self) -> u128 {
        self.bits
    }

    /// Events retained.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Hardware cost of this register in bits (capped at the paper's 64-bit
    /// registers for default lengths).
    pub fn storage_bits(&self) -> u64 {
        u64::from(self.event_bits * self.capacity)
    }

    /// Clears the register.
    pub fn reset(&mut self) {
        self.bits = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn path_update_matches_algorithm_5() {
        // history = (history << 4) | pc[3:2]
        let mut h = HistoryRegister::path(16, true);
        h.push(0b1100); // pc bits [3:2] = 0b11
        assert_eq!(h.raw(), 0b11);
        h.push(0b0100); // pc bits [3:2] = 0b01
        assert_eq!(h.raw(), 0b11_0001);
        // Two injected zeros sit between events (bits 2-3 of each nibble).
        assert_eq!(h.raw() & 0b1100, 0);
    }

    #[test]
    fn branch_update_matches_algorithm_5() {
        // history = (history << 8) | pc[11:4]
        let mut h = HistoryRegister::branch(8);
        h.push(0xAB0); // bits [11:4] = 0xAB
        assert_eq!(h.raw(), 0xAB);
        h.push(0xCD0);
        assert_eq!(h.raw(), 0xABCD);
    }

    #[test]
    fn paper_defaults_record_16_accesses_and_8_branches() {
        let p = HistoryRegister::path(16, true);
        assert_eq!(p.storage_bits(), 64);
        let b = HistoryRegister::branch(8);
        assert_eq!(b.storage_bits(), 64);
    }

    #[test]
    fn capacity_evicts_oldest_events() {
        let mut h = HistoryRegister::path(2, true); // 8-bit register
        h.push(0b1100); // 11
        h.push(0b1000); // 10
        h.push(0b0100); // 01 -> the first event falls off
        assert_eq!(h.raw(), 0b0010_0001);
    }

    #[test]
    fn folded_is_identity_when_fits_in_64() {
        let mut h = HistoryRegister::path(16, true);
        for pc in [0x4u64, 0x8, 0xC, 0x40] {
            h.push(pc);
        }
        assert_eq!(u128::from(h.folded()), h.raw());
    }

    #[test]
    fn without_injected_zeros_events_pack_densely() {
        let mut h = HistoryRegister::path(4, false);
        h.push(0b1100);
        h.push(0b1100);
        assert_eq!(h.raw(), 0b1111);
    }

    #[test]
    #[should_panic(expected = "exceeds 128 bits")]
    fn oversized_history_rejected() {
        let _ = HistoryRegister::path(33, true);
    }

    proptest! {
        #[test]
        fn register_never_exceeds_capacity_bits(
            pcs in proptest::collection::vec(0u64..u64::MAX, 0..100),
            len in 1u32..16,
        ) {
            let mut h = HistoryRegister::path(len, true);
            for pc in pcs {
                h.push(pc);
            }
            let total = 4 * len;
            if total < 128 {
                prop_assert_eq!(h.raw() >> total, 0);
            }
        }

        #[test]
        fn identical_pc_sequences_give_identical_histories(
            pcs in proptest::collection::vec(0u64..u64::MAX, 0..50),
        ) {
            let mut a = HistoryRegister::branch(8);
            let mut b = HistoryRegister::branch(8);
            for pc in &pcs {
                a.push(*pc);
                b.push(*pc);
            }
            prop_assert_eq!(a, b);
        }
    }
}
