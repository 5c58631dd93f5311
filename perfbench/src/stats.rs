//! Order statistics, the output digest and the process's peak memory.

use ahbpower::InstructionLedger;
use ahbpower_ahb::BusStats;

/// Median of `xs` (mean of the two middle values for even lengths).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least once.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `q`-quantile of `xs` by nearest rank: the smallest sample with at
/// least `q * n` samples at or below it. No interpolation, so every
/// reported percentile is a latency some operation actually had.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn rank_quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Consecutive windows a run's latency samples are split into for
/// `latency_p99_us`.
pub const P99_WINDOWS: usize = 15;

/// The median over [`P99_WINDOWS`] consecutive windows of `samples` (in
/// the order they were taken) of each window's rank p99. A host stall
/// that lasts a few seconds then moves one window's p99, not the run's.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn windowed_p99(samples: &[f64]) -> f64 {
    let size = samples.len().div_ceil(P99_WINDOWS).max(1);
    let p99s: Vec<f64> = samples
        .chunks(size)
        .map(|w| rank_quantile(w, 0.99))
        .collect();
    median(&p99s)
}

/// The process's peak resident set so far, MiB (`VmHWM` in
/// `/proc/self/status`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// FNV-1a over the simulated outputs: a speed-only change must leave it
/// unchanged.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Table 1: every instruction row's name, count and energy bits.
    pub fn ledger(&mut self, ledger: &InstructionLedger) {
        for row in ledger.rows() {
            self.bytes(row.instruction.name().as_bytes());
            self.u64(row.count);
            self.f64(row.total);
        }
    }

    pub fn bus_stats(&mut self, s: &BusStats) {
        for v in [
            s.cycles,
            s.transfers_ok,
            s.errors,
            s.retries,
            s.splits,
            s.wait_cycles,
            s.handovers,
            s.idle_cycles,
        ] {
            self.u64(v);
        }
        for &v in s.per_slave_ok.iter().chain(&s.per_master_ok) {
            self.u64(v);
        }
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Adds `b` into `a` field by field (per-slice bus statistics summed
/// over a run).
pub fn add_bus_stats(a: &mut BusStats, b: &BusStats) {
    a.cycles += b.cycles;
    a.transfers_ok += b.transfers_ok;
    a.errors += b.errors;
    a.retries += b.retries;
    a.splits += b.splits;
    a.wait_cycles += b.wait_cycles;
    a.handovers += b.handovers;
    a.idle_cycles += b.idle_cycles;
    for (dst, src) in [
        (&mut a.per_slave_ok, &b.per_slave_ok),
        (&mut a.per_master_ok, &b.per_master_ok),
    ] {
        if dst.len() < src.len() {
            dst.resize(src.len(), 0);
        }
        for (d, s) in dst.iter_mut().zip(src) {
            *d += s;
        }
    }
}

/// One line of Table 1 plus the bus counters, for the human-readable
/// part of the report.
pub fn describe_outputs(ledger: &InstructionLedger, stats: &BusStats) -> Vec<String> {
    let mut lines: Vec<String> = ledger
        .rows()
        .iter()
        .map(|r| {
            format!(
                "  table1 {:<18} count={:<9} energy_j={:e} share={:.4}",
                r.instruction.name(),
                r.count,
                r.total,
                r.share
            )
        })
        .collect();
    lines.push(format!(
        "  bus cycles={} transfers_ok={} wait_cycles={} handovers={} idle_cycles={} errors={} retries={} splits={}",
        stats.cycles,
        stats.transfers_ok,
        stats.wait_cycles,
        stats.handovers,
        stats.idle_cycles,
        stats.errors,
        stats.retries,
        stats.splits
    ));
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_quantile_picks_real_samples() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(rank_quantile(&xs, 0.5), 50.0);
        assert_eq!(rank_quantile(&xs, 0.99), 99.0);
        assert_eq!(rank_quantile(&[7.0], 0.99), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
        // One window-long stall moves one window's p99, not the median.
        let mut run: Vec<f64> = (0..1500).map(|i| f64::from(i % 100)).collect();
        run[..100].iter_mut().for_each(|x| *x = 1e6);
        assert_eq!(windowed_p99(&run), 98.0);
    }
}
