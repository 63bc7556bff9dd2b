//! Epoch-resolved instrumentation for the CHiRP reproduction.
//!
//! The simulator's headline claims are *temporal* — selective hit update
//! holds the prediction-table access rate near 10%, dead-block accuracy
//! varies with program phase — yet whole-run aggregates cannot show any of
//! that. This crate supplies the observability substrate:
//!
//! * [`metrics`] — near-zero-overhead metric primitives: atomic
//!   [`Counter`]s and fixed-bucket [`Log2Histogram`]s, which callers hold
//!   as typed fields (the scheduler's latency histogram, `chirp-serve`'s
//!   metrics struct, the load generator's report);
//! * [`epoch`] — an [`EpochSampler`] that turns absolute counter
//!   snapshots taken every N instructions into per-epoch delta rows,
//!   including the final partial epoch when the trace length is not a
//!   multiple of the epoch size;
//! * [`jsonl`] — a write-only flat-JSON row builder and sink, so time
//!   series land next to experiment results as one object per line.
//!
//! The crate is dependency-free and never touches simulation state: all
//! primitives are observational, so an instrumented run produces results
//! bit-identical to an uninstrumented one. The runtime switch lives in
//! [`TelemetryMode`]; `Off` must keep harnesses on their uninstrumented
//! hot loops.

pub mod epoch;
pub mod jsonl;
pub mod metrics;

pub use epoch::{EpochRow, EpochSampler};
pub use jsonl::{write_jsonl, JsonRow};
pub use metrics::{Counter, HistogramSnapshot, Log2Histogram};

/// Runtime telemetry switch shared by every harness binary.
///
/// `Off` guarantees the uninstrumented simulation path (no per-instruction
/// checks); `Summary` collects whole-run aggregates; `Epochs` additionally
/// records a per-epoch time series.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TelemetryMode {
    /// No instrumentation; the hot loop is byte-for-byte today's.
    #[default]
    Off,
    /// Whole-run aggregates only (dead-prediction outcomes, access rates).
    Summary,
    /// Full per-epoch time series, sunk as JSONL.
    Epochs,
}

impl TelemetryMode {
    /// True unless the mode is [`TelemetryMode::Off`].
    pub fn is_enabled(self) -> bool {
        self != TelemetryMode::Off
    }

    /// The flag spellings accepted on the command line.
    pub const HELP: &'static str = "off|summary|epochs";
}

impl std::str::FromStr for TelemetryMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(TelemetryMode::Off),
            "summary" => Ok(TelemetryMode::Summary),
            "epochs" => Ok(TelemetryMode::Epochs),
            other => Err(format!("unknown telemetry mode {other:?} (use {})", Self::HELP)),
        }
    }
}

impl std::fmt::Display for TelemetryMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            TelemetryMode::Off => "off",
            TelemetryMode::Summary => "summary",
            TelemetryMode::Epochs => "epochs",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_round_trips_through_strings() {
        for mode in [TelemetryMode::Off, TelemetryMode::Summary, TelemetryMode::Epochs] {
            assert_eq!(mode.to_string().parse::<TelemetryMode>(), Ok(mode));
        }
        assert!("verbose".parse::<TelemetryMode>().is_err());
    }

    #[test]
    fn only_off_is_disabled() {
        assert!(!TelemetryMode::Off.is_enabled());
        assert!(TelemetryMode::Summary.is_enabled());
        assert!(TelemetryMode::Epochs.is_enabled());
    }
}
