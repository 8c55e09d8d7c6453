//! End-to-end and per-layer benchmark of the directory cache.
//!
//! `cargo run --release --offline --manifest-path dcbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! See `dcbench/README.md` for the workloads, the quiet-window
//! estimator, the metrics and the layer-to-metric map.

pub mod cpu;
pub mod env;
pub mod fswrap;
pub mod hist;
pub mod layers;
pub mod phase;
pub mod probe;
pub mod report;
pub mod rng;
pub mod run;
pub mod trace;
pub mod windows;
pub mod workloads;
