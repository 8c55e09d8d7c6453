//! Running a workload: set-up, the timed phases in windows, the checks
//! and the metrics.

use crate::hist::{median, Hist};
use crate::layers::{self, Delta, Fixed, Snap};
use crate::phase::{ns_since, Rec};
use crate::report::{Metric, Metrics, END_TO_END, PER_LAYER};
use crate::trace::{self, Name, Tracer};
use crate::windows::{self, Estimate, Window, MIN_WINDOWS};
use crate::workloads::Workload;
use std::time::{Duration, Instant};

/// Set-ups per untraced run; `setup_s` is their median. The timed phase
/// runs on the last one.
pub const SETUPS: usize = 5;
/// Windows before a phase's fixed op index, where every count is read.
pub const FIXED_WINDOWS: usize = 8;
/// `mem_bytes` is the mean footprint at the ends of this many windows
/// from the fixed index on: eviction keeps a bounded dcache's footprint
/// on a sawtooth, and the mean of several points on it depends less on
/// where one of them falls.
pub const MEM_SAMPLES: usize = 8;
/// Spans kept in memory (and written out) per traced run.
const SPAN_CAP: usize = 100_000;

/// A finished run.
pub struct Outcome {
    /// Ops attempted, warm-up included.
    pub attempted: u64,
    /// Ops that failed, warm-up included.
    pub failed: u64,
    /// Failure notes, reconciliation and window-check failures.
    pub problems: Vec<String>,
    /// The catalog metrics.
    pub metrics: Vec<Metric>,
    /// Figures beyond the catalog, for the log and the result file.
    pub extra: Vec<Metric>,
    /// The traced phase's spans.
    pub tracer: Option<Tracer>,
    /// Median window time over median quiet-window time.
    pub window_spread: f64,
}

/// A finished timed phase.
pub struct Phase {
    pub windows: Vec<Window>,
    pub rec: Rec,
    /// The state at the fixed op index.
    pub fixed: Fixed,
    /// Counters when the phase began and ended.
    pub start: Snap,
    pub end: Snap,
    pub problems: Vec<String>,
}

impl Phase {
    /// The quiet-window estimate, or a problem when there were too few
    /// windows.
    fn estimate(&mut self) -> Estimate {
        windows::estimate(&self.windows).unwrap_or_else(|| {
            self.problems.push(format!(
                "only {} windows: too few to estimate",
                self.windows.len()
            ));
            Estimate {
                ops_per_s: 0.0,
                quiet: Vec::new(),
                window_spread: 0.0,
            }
        })
    }
}

/// Runs `w` in windows of `W::WINDOW_STEPS` steps for `seconds` (and
/// for at least [`MIN_WINDOWS`] windows). Checks the program's periodic
/// work in every window, that the path calls the benchmark issued equal
/// the dcache's lookups and, when traced, that the wrapper's call counts
/// equal memfs's `FsStats`.
pub fn timed<W: Workload>(w: &mut W, seconds: f64, traced: bool) -> Phase {
    let start = Snap::take(w.env());
    w.begin();
    let mut rec = Rec::default();
    let mut windows = Vec::new();
    let mut fixed = None;
    let mut mem = Vec::with_capacity(MEM_SAMPLES);
    let mut prev = w.periodic();
    let mut quiet_work = vec![0usize; prev.len()];
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    loop {
        let ops = rec.attempted;
        let t0 = Instant::now();
        for _ in 0..W::WINDOW_STEPS {
            if traced {
                trace::set_op(rec.attempted);
                trace::span(Name::Op, || w.step(&mut rec, true));
            } else {
                w.step(&mut rec, false);
            }
        }
        let ns = ns_since(t0);
        windows.push(Window {
            ns,
            ops: rec.attempted - ops,
            reads: rec.reads.take_sparse(),
            writes: rec.writes.take_sparse(),
        });
        let now = w.periodic();
        for (i, ((_, a), (_, b))) in prev.iter().zip(&now).enumerate() {
            quiet_work[i] += usize::from(a == b);
        }
        prev = now;
        if windows.len() == FIXED_WINDOWS {
            fixed = Some(Fixed {
                start: start.clone(),
                at: Snap::take(w.env()),
                space: w.env().kernel.dcache.space_report(),
                ops: rec.attempted,
                writes: rec.mutations,
                mem_bytes: 0.0,
            });
        }
        if windows.len() >= FIXED_WINDOWS && mem.len() < MEM_SAMPLES {
            mem.push(layers::mem_bytes(&w.env().kernel.dcache.space_report()) as f64);
        }
        if windows.len() >= MIN_WINDOWS.max(FIXED_WINDOWS + MEM_SAMPLES)
            && Instant::now() >= deadline
        {
            break;
        }
    }
    let mut problems = Vec::new();
    for ((name, _), n) in prev.iter().zip(&quiet_work) {
        if *n > 0 {
            problems.push(format!(
                "window check: {n} of {} windows had no {name}",
                windows.len()
            ));
        }
    }
    problems.extend(w.end());
    let end = Snap::take(w.env());
    let d = Delta {
        before: &start,
        after: &end,
    };
    let lookups = d.dc("lookups");
    if lookups != rec.path_calls {
        problems.push(format!(
            "reconciliation: {} path calls issued, dcache counted {lookups} lookups",
            rec.path_calls
        ));
    }
    if traced && d.calls() != d.fs() {
        problems.push(format!(
            "reconciliation: wrapper saw (lookup, readdir, getattr, mutation) = {:?}, FsStats counted {:?}",
            d.calls(),
            d.fs()
        ));
    }
    problems.extend(w.verify());
    problems.extend(rec.notes.iter().cloned());
    let mut fixed = fixed.expect("the phase runs past the fixed index");
    fixed.mem_bytes = mem.iter().sum::<f64>() / mem.len() as f64;
    Phase {
        windows,
        rec,
        fixed,
        start,
        end,
        problems,
    }
}

/// The value at quantile `q` of `h`, or a problem when too few samples
/// lie beyond it.
fn quantile(h: &Hist, q: f64, what: &str, problems: &mut Vec<String>) -> f64 {
    h.quantile(q).unwrap_or_else(|| {
        problems.push(format!(
            "only {} {what} samples: too few for the {q} quantile",
            h.count()
        ));
        0.0
    })
}

fn extra(name: &str, value: f64, unit: &'static str, samples: u64) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        samples,
    }
}

/// Every window's reads, merged.
fn all_reads(p: &Phase) -> Hist {
    let all: Vec<usize> = (0..p.windows.len()).collect();
    windows::merged(&p.windows, &all).0
}

/// The untraced run: [`SETUPS`] set-ups, then a timed phase of
/// `seconds` on the last one, reporting the end-to-end metrics.
pub fn untraced<W: Workload>(seed: u64, seconds: f64) -> Outcome {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut warm = Rec::default();
    let mut kept: Option<W> = None;
    for _ in 0..SETUPS {
        drop(kept.take());
        let t0 = Instant::now();
        let (w, r) = W::setup(seed, false);
        setup_s.push(t0.elapsed().as_secs_f64());
        warm.absorb(&r);
        kept = Some(w);
    }
    let mut w = kept.expect("at least one set-up");
    let mut phase = timed(&mut w, seconds, false);
    drop(w);
    let est = phase.estimate();
    let mut problems = std::mem::take(&mut phase.problems);
    problems.extend(warm.notes.iter().cloned());
    let (reads, writes) = windows::merged(&phase.windows, &est.quiet);
    let quiet_ops: u64 = est.quiet.iter().map(|&i| phase.windows[i].ops).sum();
    let mut m = Metrics::new(&END_TO_END);
    m.set("ops_per_s", est.ops_per_s, quiet_ops);
    let n = reads.count();
    let p50 = quantile(&reads, 0.5, "read", &mut problems);
    let p99 = quantile(&reads, 0.99, "read", &mut problems);
    m.set("read_p50_ns", p50, n);
    m.set("mem_bytes", phase.fixed.mem_bytes, MEM_SAMPLES as u64);
    m.set("setup_s", median(&setup_s), SETUPS as u64);
    let mut more = vec![extra("read_p99_ns", p99, "ns", n)];
    if W::READS_ARE_FRAMES {
        more.push(extra("frame_p50_ns", p50, "ns", n));
        more.push(extra("frame_p99_ns", p99, "ns", n));
    }
    if writes.count() > 0 {
        let n = writes.count();
        more.push(extra(
            "write_p50_ns",
            writes.quantile(0.5).unwrap_or(0.0),
            "ns",
            n,
        ));
        more.push(extra(
            "write_p99_ns",
            writes.quantile(0.99).unwrap_or(0.0),
            "ns",
            n,
        ));
    }
    let all = all_reads(&phase);
    more.push(extra(
        "harness.read_p99_all_ns",
        all.quantile(0.99).unwrap_or(0.0),
        "ns",
        all.count(),
    ));
    more.push(extra(
        "harness.window_spread",
        est.window_spread,
        "ratio",
        phase.windows.len() as u64,
    ));
    more.push(extra(
        "harness.windows",
        phase.windows.len() as f64,
        "count",
        est.quiet.len() as u64,
    ));
    let attempted = warm.attempted + phase.rec.attempted;
    let failed = warm.failed + phase.rec.failed;
    Outcome {
        attempted,
        failed,
        problems,
        metrics: m.all(),
        extra: more,
        tracer: None,
        window_spread: est.window_spread,
    }
}

/// The traced run: an untraced phase of `seconds / 2` on one kernel,
/// then a traced phase of `seconds / 2` on a second kernel built over
/// the file-system wrapper, reporting the per-layer metrics.
pub fn traced<W: Workload>(seed: u64, seconds: f64) -> Outcome {
    let half = seconds / 2.0;
    let (mut w, warm) = W::setup(seed, false);
    let mut plain = timed(&mut w, half, false);
    drop(w);
    let plain_est = plain.estimate();
    let mut problems = std::mem::take(&mut plain.problems);
    problems.extend(warm.notes.iter().cloned());
    let mut attempted = warm.attempted + plain.rec.attempted;
    let mut failed = warm.failed + plain.rec.failed;

    let (mut w, warm) = W::setup(seed, true);
    trace::install(SPAN_CAP);
    let mut phase = timed(&mut w, half, true);
    let tracer = trace::uninstall().expect("tracer installed above");
    let est = phase.estimate();
    problems.append(&mut phase.problems);
    problems.extend(warm.notes.iter().cloned());
    attempted += warm.attempted + phase.rec.attempted;
    failed += warm.failed + phase.rec.failed;

    let mut m = Metrics::new(&PER_LAYER);
    layers::fill(&mut m, &tracer, &phase.fixed, &phase.rec.envelope);
    let sim_io = phase.end.disk.simulated_io_ns - phase.start.disk.simulated_io_ns;
    m.set(
        "blockdev.sim_io_share",
        layers::sim_io_share(&tracer, sim_io),
        phase.rec.attempted,
    );
    w.report(&mut m, &tracer);
    drop(w);
    let (u, t) = (plain_est.ops_per_s, est.ops_per_s);
    m.set(
        "obs.trace_overhead_frac",
        if u > 0.0 { (u - t) / u } else { 0.0 },
        phase.rec.attempted,
    );
    m.set(
        "harness.window_spread",
        plain_est.window_spread,
        plain.windows.len() as u64,
    );
    let all = all_reads(&plain);
    m.set(
        "harness.read_p99_all_ns",
        quantile(&all, 0.99, "read", &mut problems),
        all.count(),
    );
    Outcome {
        attempted,
        failed,
        problems,
        metrics: m.all(),
        extra: Vec::new(),
        tracer: Some(tracer),
        window_spread: plain_est.window_spread,
    }
}
