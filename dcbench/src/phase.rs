//! What a phase's ops record, and the timing of one op.

use crate::hist::Hist;
use crate::trace::{self, Name};
use std::time::Instant;

/// Failure notes kept for the report.
const MAX_NOTES: usize = 8;

/// What a phase's ops recorded.
#[derive(Default)]
pub struct Rec {
    /// Lookup-class op latencies, ns, of the current window.
    pub reads: Hist,
    /// Mutation latencies, ns, of the current window.
    pub writes: Hist,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed: a wrong answer or an unexpected error.
    pub failed: u64,
    /// Path-based calls into the kernel, each one dcache lookup.
    pub path_calls: u64,
    /// Mutating calls into the kernel.
    pub mutations: u64,
    /// The first few failures, described.
    pub notes: Vec<String>,
    /// Traced runs: `stat` self time minus the three probe times, on
    /// fastpath hits.
    pub envelope: Hist,
}

impl Rec {
    /// Counts one op, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < MAX_NOTES {
                self.notes.push(what());
            }
        }
    }

    /// Adds another record's counts and notes (not its histograms).
    pub fn absorb(&mut self, other: &Rec) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = MAX_NOTES.saturating_sub(self.notes.len());
        self.notes.extend(other.notes.iter().take(room).cloned());
    }
}

/// Whether an op reads or writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Read,
    Write,
}

/// Runs the kernel call `f` as one op: its latency goes to the read or
/// write histogram, and in a traced run it runs inside a span named
/// `name`.
pub fn op<R>(rec: &mut Rec, class: Class, name: Name, f: impl FnOnce() -> R) -> R {
    let t0 = Instant::now();
    let r = trace::span(name, f);
    let ns = ns_since(t0);
    match class {
        Class::Read => rec.reads.record(ns),
        Class::Write => {
            rec.mutations += 1;
            rec.writes.record(ns)
        }
    }
    r
}

/// Nanoseconds since `t0`.
pub fn ns_since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}
