//! Summary statistics over samples, and the host probes each run records.

/// Median of `values`: the middle sample, or the mean of the two middle
/// samples for an even count.
///
/// # Panics
///
/// On an empty slice — every caller measures at least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank `q`-quantile of `values`, or `None` when fewer than ten
/// samples lie above it — a tail percentile resting on fewer samples than
/// that is noise, so it is neither reported nor gated.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    let n = values.len();
    if n == 0 {
        return None;
    }
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < 10 {
        return None;
    }
    Some(sorted(values)[rank - 1])
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_vm_hwm_mib(&status).expect("VmHWM line in /proc/self/status")
}

/// Parses the `VmHWM:   <n> kB` line of a `/proc/<pid>/status` text.
pub fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kib: f64 = fields.next()?.parse().ok()?;
    (fields.next()? == "kB").then_some(kib / 1024.0)
}

/// Worker threads the benchmark may use: the CPUs available to it,
/// capped at two (the workloads are sized for a 2-vCPU host).
pub fn threads() -> usize {
    nproc().min(2)
}

/// CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Host state at one instant: CPU steal time and load average, so a
/// noisy run can be recognised afterwards.
#[derive(Debug, Clone, Copy)]
pub struct HostSample {
    /// Cumulative steal time of all CPUs in ms (`/proc/stat`, assuming
    /// the usual 100 Hz clock tick).
    pub steal_ms: f64,
    /// One-minute load average.
    pub loadavg: f64,
}

impl HostSample {
    /// Samples `/proc/stat` and `/proc/loadavg`; a missing file reads as 0.
    pub fn now() -> HostSample {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let steal_ticks: f64 = stat
            .lines()
            .find(|l| l.starts_with("cpu "))
            .and_then(|l| l.split_whitespace().nth(8))
            .and_then(|f| f.parse().ok())
            .unwrap_or(0.0);
        let loadavg = std::fs::read_to_string("/proc/loadavg")
            .ok()
            .and_then(|t| t.split_whitespace().next().and_then(|f| f.parse().ok()))
            .unwrap_or(0.0);
        HostSample { steal_ms: steal_ticks * 10.0, loadavg }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn median_of_passes_ignores_one_slow_pass() {
        // Per-pass throughput: one descheduled pass must not move the
        // reported value.
        let passes = [80.0, 81.0, 79.0, 20.0, 80.5];
        assert_eq!(median(&passes), 80.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.9), Some(90.0));
        assert_eq!(percentile(&hundred, 0.5), Some(50.0));
        assert_eq!(percentile(&hundred[..99], 0.9), None, "only 9 samples above p90");
        assert_eq!(percentile(&hundred[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&hundred[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn vm_hwm_parses_status_text() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm_mib(status), Some(2.0));
        assert_eq!(parse_vm_hwm_mib("VmRSS:\t1 kB\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmHWM:\t12 MB\n"), None);
        assert!(peak_rss_mib() > 0.0);
    }

    #[test]
    fn host_sample_reads_proc() {
        let s = HostSample::now();
        assert!(s.steal_ms >= 0.0 && s.loadavg >= 0.0);
        assert!((1..=2).contains(&threads()));
    }
}
