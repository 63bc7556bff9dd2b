//! Named CHiRP configuration variants for the paper's ablations.
//!
//! Figure 6 builds CHiRP up feature by feature; Figure 2 sweeps the path
//! history length with and without branch histories; Figure 9 sweeps the
//! prediction-table size. Each variant here is a `ChirpConfig` with a
//! stable display name so experiment reports stay readable.

use crate::config::ChirpConfig;

/// A named configuration for ablation studies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChirpVariant {
    /// Stable display name (used as a report row label).
    pub name: String,
    /// The configuration.
    pub config: ChirpConfig,
}

impl ChirpVariant {
    /// The full paper configuration.
    pub fn full() -> Self {
        ChirpVariant { name: "chirp".into(), config: ChirpConfig::default() }
    }

    /// Path history + PC only (no branch histories) — the starting rung of
    /// the Figure 6 ladder.
    pub fn path_only() -> Self {
        ChirpVariant {
            name: "chirp-path-only".into(),
            config: ChirpConfig { use_cond: false, use_uncond: false, ..Default::default() },
        }
    }

    /// Path + conditional-branch history, but without the injected zeros
    /// (shift-and-scale disabled) — isolates the §III-B transform.
    pub fn cond_no_zeros() -> Self {
        ChirpVariant {
            name: "chirp+cond-nozeros".into(),
            config: ChirpConfig { use_uncond: false, inject_zeros: false, ..Default::default() },
        }
    }

    /// Path + conditional-branch history with injected zeros.
    pub fn cond_with_zeros() -> Self {
        ChirpVariant {
            name: "chirp+cond+zeros".into(),
            config: ChirpConfig { use_uncond: false, ..Default::default() },
        }
    }

    /// Full signature but training on every hit (no first-hit filtering).
    pub fn every_hit_update() -> Self {
        ChirpVariant {
            name: "chirp-everyhit".into(),
            config: ChirpConfig { first_hit_only: false, ..Default::default() },
        }
    }

    /// Full signature but without selective hit update.
    pub fn no_selective_update() -> Self {
        ChirpVariant {
            name: "chirp-noselective".into(),
            config: ChirpConfig { selective_hit_update: false, ..Default::default() },
        }
    }

    /// A variant with a specific prediction-table byte budget (Figure 9).
    ///
    /// # Panics
    ///
    /// Panics if `bytes` does not hold a power-of-two number of 2-bit
    /// counters.
    pub fn with_table_bytes(bytes: usize) -> Self {
        let entries = bytes * 8 / 2;
        assert!(entries.is_power_of_two(), "{bytes} B is not a power-of-two counter count");
        ChirpVariant {
            name: format!("chirp-{bytes}B"),
            config: ChirpConfig { table_entries: entries, ..Default::default() },
        }
    }

    /// PC-history-length sweep point (Figure 2). `with_branches` toggles the
    /// branch histories; lengths without branches may exceed the paper's 16.
    pub fn with_path_length(length: u32, with_branches: bool) -> Self {
        ChirpVariant {
            name: format!("chirp-h{length}{}", if with_branches { "+br" } else { "-pconly" }),
            config: ChirpConfig {
                path_length: length,
                use_cond: with_branches,
                use_uncond: with_branches,
                // Long PC-only histories need dense packing to fit.
                inject_zeros: with_branches,
                ..Default::default()
            },
        }
    }

    /// The Figure 6 ablation ladder, in presentation order.
    pub fn ablation_ladder() -> Vec<ChirpVariant> {
        vec![
            Self::path_only(),
            Self::cond_no_zeros(),
            Self::cond_with_zeros(),
            Self::every_hit_update(),
            Self::no_selective_update(),
            Self::full(),
        ]
    }

    /// The Figure 9 table-size sweep (128 B – 8 KB, as in the paper).
    pub fn table_size_sweep() -> Vec<ChirpVariant> {
        [128usize, 256, 512, 1024, 2048, 4096, 8192]
            .into_iter()
            .map(Self::with_table_bytes)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_variants_validate() {
        for v in ChirpVariant::ablation_ladder() {
            assert!(v.config.validate().is_ok(), "{} must validate", v.name);
        }
        for v in ChirpVariant::table_size_sweep() {
            assert!(v.config.validate().is_ok(), "{} must validate", v.name);
        }
        for len in [4u32, 8, 15, 16, 24, 32] {
            assert!(ChirpVariant::with_path_length(len, true).config.validate().is_ok());
            assert!(ChirpVariant::with_path_length(len, false).config.validate().is_ok());
        }
    }

    #[test]
    fn table_bytes_sized_correctly() {
        let v = ChirpVariant::with_table_bytes(1024);
        assert_eq!(v.config.table_entries, 4096);
        assert_eq!(v.config.table_bytes(), 1024);
    }

    #[test]
    fn names_are_unique_within_sweeps() {
        let names: std::collections::HashSet<String> = ChirpVariant::ablation_ladder()
            .into_iter()
            .chain(ChirpVariant::table_size_sweep())
            .map(|v| v.name)
            .collect();
        assert_eq!(names.len(), 6 + 7);
    }
}
