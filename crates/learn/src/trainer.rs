//! Offline training driver: fits one ADALINE per benchmark on (PC → entry
//! reused?) events collected from simulation, producing the weight rows of
//! the paper's Figure 3 heat map.

use crate::adaline::Adaline;
use crate::features::pc_bit_features;

/// One reuse observation: the PC whose access inserted/last-touched a TLB
/// entry, and whether that entry was reused before eviction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReuseEvent {
    /// Accessing instruction PC.
    pub pc: u64,
    /// Whether the entry saw another hit before being evicted.
    pub reused: bool,
}

/// The trained weight profile for one benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightProfile {
    /// Benchmark name.
    pub benchmark: String,
    /// Per-PC-bit weight magnitudes, normalised to `[0, 1]`
    /// (0 = uninformative, 1 = the most informative bit).
    pub weights: Vec<f64>,
    /// Training accuracy over the event stream (running, post-warmup).
    pub accuracy: f64,
}

impl WeightProfile {
    /// Indices of the `k` highest-magnitude bits, most informative first.
    pub fn top_bits(&self, k: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.weights.len()).collect();
        idx.sort_by(|&a, &b| {
            self.weights[b].partial_cmp(&self.weights[a]).expect("weights are finite")
        });
        idx.truncate(k);
        idx
    }
}

/// Trains an ADALINE over `events` using the low `bits` PC bits as inputs.
///
/// Returns normalised |weight| per bit plus the running classification
/// accuracy over the second half of the stream.
pub fn train_on_events(
    benchmark: impl Into<String>,
    events: &[ReuseEvent],
    bits: usize,
) -> WeightProfile {
    let mut model = Adaline::new(bits.max(1), 0.02, 5e-5);
    let warmup = events.len() / 2;
    let mut correct = 0usize;
    let mut counted = 0usize;
    for (i, ev) in events.iter().enumerate() {
        let x = pc_bit_features(ev.pc, bits);
        if i >= warmup {
            counted += 1;
            if model.classify(&x) == ev.reused {
                correct += 1;
            }
        }
        model.train(&x, if ev.reused { 1.0 } else { -1.0 });
    }
    let mut weights: Vec<f64> = model.weights().iter().map(|w| w.abs()).collect();
    let max = weights.iter().cloned().fold(0.0f64, f64::max);
    if max > 0.0 {
        for w in &mut weights {
            *w /= max;
        }
    }
    WeightProfile {
        benchmark: benchmark.into(),
        weights,
        accuracy: if counted == 0 { 0.0 } else { correct as f64 / counted as f64 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_the_deciding_bit() {
        // Reuse is decided by PC bit 2 (the paper's finding for TLBs).
        let events: Vec<ReuseEvent> = (0..4000)
            .map(|i| {
                let pc = (i % 64) * 4;
                ReuseEvent { pc, reused: pc & 0b100 != 0 }
            })
            .collect();
        let profile = train_on_events("synthetic", &events, 16);
        assert_eq!(profile.top_bits(1), vec![2]);
        assert!(profile.accuracy > 0.95, "accuracy {}", profile.accuracy);
        assert!((profile.weights[2] - 1.0).abs() < 1e-9, "top weight normalised to 1");
    }

    #[test]
    fn two_bit_rule_surfaces_both_bits() {
        let events: Vec<ReuseEvent> = (0..8000)
            .map(|i| {
                let pc = (i % 128) * 4;
                ReuseEvent { pc, reused: (pc >> 2 & 1) ^ (pc >> 3 & 1) == 0 }
            })
            .collect();
        // XOR is not linearly separable, but each bit still carries weight
        // above the noise floor relative to untouched high bits.
        let profile = train_on_events("xorish", &events, 16);
        let top: std::collections::HashSet<usize> = profile.top_bits(4).into_iter().collect();
        assert!(top.contains(&2) || top.contains(&3), "top bits {top:?}");
    }

    #[test]
    fn empty_events_yield_zero_profile() {
        let profile = train_on_events("empty", &[], 8);
        assert_eq!(profile.weights.len(), 8);
        assert_eq!(profile.accuracy, 0.0);
    }
}
