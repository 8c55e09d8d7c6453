//! Windows of a timed phase and the quiet-window estimator.
//!
//! The timed phase is split into windows of a fixed number of steps. The
//! *quiet windows* are the fastest tenth of them by time per op. A
//! shared host's interference only ever adds time, so the low tail of
//! window durations tracks the program, while the median window moves
//! with whoever else runs on the host. Every workload's window is long
//! enough that each periodic activity of the program (evictions, journal
//! commits and checkpoints, `fsync`s, renames) lands in every window,
//! which the runner checks, so a stall the program causes cannot hide in
//! the slow windows.

use crate::hist::{median, Hist, Sparse};

/// Fewest windows a phase must have for the estimator to answer.
pub const MIN_WINDOWS: usize = 20;

/// One finished window.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// Wall time of the window, ns (its steps only; the harness's own
    /// bookkeeping between windows is outside).
    pub ns: u64,
    /// Ops the window completed.
    pub ops: u64,
    /// Latencies of the window's lookup-class ops.
    pub reads: Sparse,
    /// Latencies of the window's mutations.
    pub writes: Sparse,
}

impl Window {
    /// Nanoseconds per op.
    pub fn ns_per_op(&self) -> f64 {
        self.ns as f64 / self.ops.max(1) as f64
    }
}

/// What the estimator reads from a phase's windows.
#[derive(Debug, Clone)]
pub struct Estimate {
    /// Ops per second of the median quiet window.
    pub ops_per_s: f64,
    /// Indices of the quiet windows, fastest first.
    pub quiet: Vec<usize>,
    /// Median window time per op over the median quiet window's: how
    /// much slower a typical window ran than a quiet one.
    pub window_spread: f64,
}

/// The quiet-window estimate of `windows`, or `None` with fewer than
/// [`MIN_WINDOWS`] windows.
pub fn estimate(windows: &[Window]) -> Option<Estimate> {
    if windows.len() < MIN_WINDOWS {
        return None;
    }
    let mut order: Vec<usize> = (0..windows.len()).collect();
    order.sort_by(|&a, &b| windows[a].ns_per_op().total_cmp(&windows[b].ns_per_op()));
    order.truncate(windows.len().div_ceil(10));
    let quiet_ns: Vec<f64> = order.iter().map(|&i| windows[i].ns_per_op()).collect();
    let all_ns: Vec<f64> = windows.iter().map(Window::ns_per_op).collect();
    let q = median(&quiet_ns);
    Some(Estimate {
        ops_per_s: 1e9 / q,
        quiet: order,
        window_spread: median(&all_ns) / q,
    })
}

/// The reads and writes of the windows at `which`, merged.
pub fn merged(windows: &[Window], which: &[usize]) -> (Hist, Hist) {
    let (mut reads, mut writes) = (Hist::default(), Hist::default());
    for &i in which {
        reads.merge_sparse(&windows[i].reads);
        writes.merge_sparse(&windows[i].writes);
    }
    (reads, writes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn windows(ns_per_op: &[u64]) -> Vec<Window> {
        ns_per_op
            .iter()
            .map(|&ns| {
                let mut reads = Hist::default();
                for _ in 0..100 {
                    reads.record(ns);
                }
                Window {
                    ns: ns * 100,
                    ops: 100,
                    reads: reads.take_sparse(),
                    writes: Sparse::new(),
                }
            })
            .collect()
    }

    #[test]
    fn ignores_slow_windows_and_follows_a_uniform_slowdown() {
        // 100 windows at 1000 ns/op; 40 of them, scattered, slowed 2-5x.
        let base: Vec<u64> = (0..100)
            .map(|i| if i % 5 < 2 { 1000 * (2 + i % 4) } else { 1000 })
            .collect();
        let e = estimate(&windows(&base)).expect("enough windows");
        assert_eq!(e.quiet.len(), 10);
        assert!((e.ops_per_s - 1e6).abs() < 1.0, "{}", e.ops_per_s);
        let (reads, _) = merged(&windows(&base), &e.quiet);
        let p99 = reads.quantile(0.99).expect("p99");
        assert!((990.0..1010.0).contains(&p99), "p99 {p99}");
        // The same windows with no slow ones: the same estimate.
        let clean = estimate(&windows(&[1000; 100])).expect("enough windows");
        assert_eq!(clean.ops_per_s, e.ops_per_s);
        assert_eq!(clean.window_spread, 1.0);
        // Every window 1.5x slower: the estimate follows.
        let slow: Vec<u64> = base.iter().map(|v| v * 3 / 2).collect();
        let s = estimate(&windows(&slow)).expect("enough windows");
        assert!((s.ops_per_s * 1.5 - 1e6).abs() < 1.0, "{}", s.ops_per_s);
        let (reads, _) = merged(&windows(&slow), &s.quiet);
        let p50 = reads.quantile(0.5).expect("p50");
        assert!((1480.0..1520.0).contains(&p50), "p50 {p50}");
    }

    #[test]
    fn needs_enough_windows() {
        assert!(estimate(&windows(&[1000; MIN_WINDOWS - 1])).is_none());
        assert!(estimate(&windows(&[1000; MIN_WINDOWS])).is_some());
    }
}
