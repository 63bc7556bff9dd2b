//! Storage-overhead report generator (paper Table I).
//!
//! Reproduces the Table I breakdown for a 1024-entry 8-way L2 TLB: per-entry
//! prediction and signature bits, the three history registers, and the
//! counter table at the configured budget. The paper's own column totals
//! ("2.65 KB" / "8.14 KB") do not exactly equal the sum of the listed
//! components; we report the honest sums and note the difference in
//! EXPERIMENTS.md.

use crate::config::ChirpConfig;
use chirp_tlb::TlbGeometry;

/// One row of the storage table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StorageRow {
    /// Component name (matches Table I rows).
    pub component: String,
    /// Size description, e.g. `1 bit x 1024`.
    pub detail: String,
    /// Size in bits.
    pub bits: u64,
}

/// The full Table I-style report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StorageReport {
    /// Component rows.
    pub rows: Vec<StorageRow>,
    /// Sum of all rows in bits.
    pub total_bits: u64,
}

impl StorageReport {
    /// Total size in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.total_bits.div_ceil(8)
    }

    /// Renders the report as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{:<28} {:<24} {:>10}\n", "Component", "Size", "Bytes"));
        for row in &self.rows {
            out.push_str(&format!(
                "{:<28} {:<24} {:>10}\n",
                row.component,
                row.detail,
                row.bits.div_ceil(8)
            ));
        }
        out.push_str(&format!(
            "{:<28} {:<24} {:>10}  ({:.2} KB)\n",
            "Total",
            "",
            self.total_bytes(),
            self.total_bytes() as f64 / 1024.0
        ));
        out
    }
}

/// Builds the Table I storage report for `config` on `geometry`.
pub fn storage_report(geometry: TlbGeometry, config: &ChirpConfig) -> StorageReport {
    let entries = geometry.entries as u64;
    let reg_bits = 64u64; // paper-default registers
    let table_bits = config.table_entries as u64 * u64::from(config.counter_bits);
    let rows = vec![
        StorageRow {
            component: "Prediction bits".into(),
            detail: format!("1 bit x {entries}"),
            bits: entries,
        },
        StorageRow {
            component: "Signature bits".into(),
            detail: format!("16 bits x {entries}"),
            bits: 16 * entries,
        },
        StorageRow {
            component: "Path history register".into(),
            detail: "64 bit x 1".into(),
            bits: reg_bits,
        },
        StorageRow {
            component: "Cond. history register".into(),
            detail: "64 bit x 1".into(),
            bits: reg_bits,
        },
        StorageRow {
            component: "Uncond. history register".into(),
            detail: "64 bit x 1".into(),
            bits: reg_bits,
        },
        StorageRow {
            component: "Counters".into(),
            detail: format!("{} x {}-bit", config.table_entries, config.counter_bits),
            bits: table_bits,
        },
    ];
    let total_bits = rows.iter().map(|r| r.bits).sum();
    StorageReport { rows, total_bits }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_main_budget() {
        // 1 KB counter table on the 1024-entry TLB.
        let report = storage_report(TlbGeometry::default(), &ChirpConfig::default());
        // 128 B pred + 2 KB sig + 24 B regs + 1 KB counters = 3224 B.
        assert_eq!(report.total_bytes(), 128 + 2048 + 24 + 1024);
    }

    #[test]
    fn table_i_min_and_max_columns() {
        // Table I's two columns use 128 B and 8 KB counter tables.
        let small = ChirpConfig { table_entries: 512, ..Default::default() }; // 128 B
        let report = storage_report(TlbGeometry::default(), &small);
        assert_eq!(report.total_bytes(), 128 + 2048 + 24 + 128);

        let large = ChirpConfig { table_entries: 32768, ..Default::default() }; // 8 KB
        let report = storage_report(TlbGeometry::default(), &large);
        assert_eq!(report.total_bytes(), 128 + 2048 + 24 + 8192);
    }

    #[test]
    fn render_contains_all_rows() {
        let report = storage_report(TlbGeometry::default(), &ChirpConfig::default());
        let text = report.render();
        for needle in ["Prediction bits", "Signature bits", "Counters", "Total"] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }
}
