//! The epoch sampler: turns absolute counter snapshots taken every N
//! instructions into per-epoch delta rows.
//!
//! The driving loop owns the counters (they are usually plain `u64`s on
//! simulator state, not atomics — single-threaded per simulation unit) and
//! the sampler owns the cadence: call [`EpochSampler::advance`] after each
//! step of the loop with the instructions it covered, and when it returns
//! `true` hand over a fresh absolute snapshot via [`EpochSampler::sample`].
//! A step must not straddle an epoch boundary, so the loop cuts its steps
//! there. [`EpochSampler::finish`] flushes the final partial epoch, so
//! traces whose length is not a multiple of the epoch size lose no
//! instructions — the last row is simply shorter.

/// One epoch's worth of deltas plus point-in-time gauge readings.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochRow {
    /// Epoch index, from 0, in sampling order.
    pub epoch: u64,
    /// Instructions covered by this row (equal to the epoch length except
    /// for a final partial epoch).
    pub instructions: u64,
    /// Counter increments over this epoch, in schema order.
    pub deltas: Vec<u64>,
    /// Gauges sampled at the epoch boundary (occupancies, depths), in
    /// schema order.
    pub gauges: Vec<f64>,
}

/// Converts a stream of absolute counter snapshots into [`EpochRow`]s.
#[derive(Debug, Clone)]
pub struct EpochSampler {
    epoch_instructions: u64,
    in_epoch: u64,
    baseline: Vec<u64>,
    rows: Vec<EpochRow>,
}

impl EpochSampler {
    /// Starts a sampler with the given epoch length and the absolute
    /// counter values at the start of the measurement window.
    ///
    /// # Panics
    ///
    /// Panics if `epoch_instructions` is zero.
    pub fn new(epoch_instructions: u64, baseline: Vec<u64>) -> EpochSampler {
        assert!(epoch_instructions > 0, "epoch length must be positive");
        EpochSampler { epoch_instructions, in_epoch: 0, baseline, rows: Vec::new() }
    }

    /// The configured epoch length in instructions.
    pub fn epoch_instructions(&self) -> u64 {
        self.epoch_instructions
    }

    /// Counts `n` more instructions; returns `true` when the epoch is full
    /// and the caller must [`sample`](Self::sample). The caller's steps
    /// end at every epoch boundary, so `n` never overruns the epoch.
    #[inline]
    pub fn advance(&mut self, n: u64) -> bool {
        self.in_epoch += n;
        debug_assert!(self.in_epoch <= self.epoch_instructions, "a step overran its epoch");
        self.in_epoch == self.epoch_instructions
    }

    /// Closes the current epoch: records deltas of `counters` against the
    /// previous snapshot plus the given gauge readings, then re-baselines.
    ///
    /// # Panics
    ///
    /// Panics if `counters` disagrees in length with the baseline or if any
    /// counter moved backwards (they are cumulative by contract).
    pub fn sample(&mut self, counters: &[u64], gauges: Vec<f64>) {
        assert_eq!(counters.len(), self.baseline.len(), "snapshot schema changed mid-run");
        let deltas = counters
            .iter()
            .zip(&self.baseline)
            .map(|(&now, &then)| now.checked_sub(then).expect("cumulative counters never decrease"))
            .collect();
        self.rows.push(EpochRow {
            epoch: self.rows.len() as u64,
            instructions: self.in_epoch,
            deltas,
            gauges,
        });
        self.baseline.copy_from_slice(counters);
        self.in_epoch = 0;
    }

    /// Rows closed so far.
    pub fn rows(&self) -> &[EpochRow] {
        &self.rows
    }

    /// Flushes the final partial epoch (if any instructions are pending)
    /// and returns every row.
    pub fn finish(mut self, counters: &[u64], gauges: Vec<f64>) -> Vec<EpochRow> {
        if self.in_epoch > 0 {
            self.sample(counters, gauges);
        }
        self.rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives a sampler over `total` single-instruction steps with a
    /// counter that increments twice per instruction, sampling at every
    /// boundary.
    fn drive(epoch: u64, total: u64) -> Vec<EpochRow> {
        let mut sampler = EpochSampler::new(epoch, vec![0]);
        let mut count = 0u64;
        for i in 0..total {
            count += 2;
            if sampler.advance(1) {
                sampler.sample(&[count], vec![i as f64]);
            }
        }
        sampler.finish(&[count], vec![f64::from(u8::MAX)])
    }

    #[test]
    fn exact_multiple_produces_full_epochs_only() {
        let rows = drive(100, 300);
        assert_eq!(rows.len(), 3);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.epoch, i as u64);
            assert_eq!(row.instructions, 100);
            assert_eq!(row.deltas, vec![200], "two increments per instruction");
        }
    }

    #[test]
    fn misaligned_trace_flushes_a_partial_final_epoch() {
        let rows = drive(1000, 2500);
        assert_eq!(rows.len(), 3, "two full epochs plus the remainder");
        assert_eq!(rows[0].instructions, 1000);
        assert_eq!(rows[1].instructions, 1000);
        assert_eq!(rows[2].instructions, 500, "final epoch covers the tail");
        let covered: u64 = rows.iter().map(|r| r.instructions).sum();
        assert_eq!(covered, 2500, "no instruction is dropped");
        let counted: u64 = rows.iter().map(|r| r.deltas[0]).sum();
        assert_eq!(counted, 5000, "deltas over all epochs sum to the total");
    }

    #[test]
    fn shorter_than_one_epoch_still_yields_one_row() {
        let rows = drive(1_000_000, 7);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].instructions, 7);
        assert_eq!(rows[0].deltas, vec![14]);
    }

    #[test]
    fn empty_window_yields_no_rows() {
        let rows = drive(10, 0);
        assert!(rows.is_empty());
    }

    #[test]
    fn deltas_are_per_epoch_not_cumulative() {
        let mut sampler = EpochSampler::new(2, vec![10, 0]);
        sampler.advance(1);
        assert!(sampler.advance(1));
        sampler.sample(&[13, 5], vec![]);
        sampler.advance(1);
        assert!(sampler.advance(1));
        sampler.sample(&[14, 9], vec![]);
        let rows = sampler.finish(&[14, 9], vec![]);
        assert_eq!(rows.len(), 2, "finish with nothing pending adds no row");
        assert_eq!(rows[0].deltas, vec![3, 5]);
        assert_eq!(rows[1].deltas, vec![1, 4]);
    }

    #[test]
    fn multi_instruction_steps_match_single_steps() {
        let mut sampler = EpochSampler::new(1000, vec![0]);
        let mut count = 0u64;
        // Steps of 300 and 200 instructions, cut at every 1000th.
        for (i, step) in [300u64, 200, 500, 300, 200, 500, 300, 200].into_iter().enumerate() {
            count += 2 * step;
            if sampler.advance(step) {
                sampler.sample(&[count], vec![i as f64]);
            }
        }
        let rows = sampler.finish(&[count], vec![]);
        let single = drive(1000, 2500);
        let shape = |rows: &[EpochRow]| -> Vec<(u64, Vec<u64>)> {
            rows.iter().map(|r| (r.instructions, r.deltas.clone())).collect()
        };
        assert_eq!(shape(&rows), shape(&single));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "overran its epoch")]
    fn step_overrunning_its_epoch_rejected() {
        let mut sampler = EpochSampler::new(4, vec![]);
        sampler.advance(3);
        sampler.advance(2);
    }

    #[test]
    #[should_panic(expected = "epoch length must be positive")]
    fn zero_epoch_rejected() {
        EpochSampler::new(0, vec![]);
    }

    #[test]
    #[should_panic(expected = "schema changed")]
    fn schema_drift_rejected() {
        let mut sampler = EpochSampler::new(1, vec![0, 0]);
        sampler.advance(1);
        sampler.sample(&[1], vec![]);
    }
}
