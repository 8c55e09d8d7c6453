//! The workloads. Each builds its own kernel and inputs from the seed,
//! then runs one step per [`Workload::step`] in a closed loop.

pub mod maildir;
pub mod rename_churn;
pub mod serve_frames;
pub mod warm_lookup;

use crate::env::Env;
use crate::phase::Rec;
use crate::report::Metrics;
use crate::trace::Tracer;

/// What the runner needs of a workload.
pub trait Workload: Sized {
    /// Steps per window. Chosen so that every periodic activity of the
    /// program lands in every window (see [`Workload::periodic`]).
    const WINDOW_STEPS: u64;

    /// True when a step's read latency is a whole frame's round trip.
    const READS_ARE_FRAMES: bool = false;

    /// Builds the kernel and inputs from `seed` and warms the caches;
    /// `traced` mounts memfs through the file-system wrapper. Returns
    /// the warm-up's record; every run of one seed leaves the program in
    /// the same state.
    fn setup(seed: u64, traced: bool) -> (Self, Rec);

    /// The kernel under test.
    fn env(&self) -> &Env;

    /// Runs one step: one op, or one frame of ops.
    fn step(&mut self, rec: &mut Rec, traced: bool);

    /// Running totals of the program's periodic work that every window
    /// must contain, by name.
    fn periodic(&self) -> Vec<(&'static str, u64)> {
        Vec::new()
    }

    /// Called before a timed phase.
    fn begin(&mut self) {}

    /// Called after a timed phase, before the counters are read: returns
    /// reconciliation problems beyond the shared ones.
    fn end(&mut self) -> Vec<String> {
        Vec::new()
    }

    /// Called after the counters are read: final output checks.
    fn verify(&self) -> Vec<String> {
        Vec::new()
    }

    /// Adds the traced phase's workload-specific per-layer figures.
    fn report(&self, _m: &mut Metrics, _t: &Tracer) {}
}
