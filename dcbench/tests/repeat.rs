//! One seed, one program state: `mem_bytes` and every count the traced
//! run reports repeat exactly from run to run, however fast the host
//! ran, and another seed gives other inputs. Each run is its own
//! process, as the benchmark is run: the epoch collector's counters are
//! process-wide, so runs sharing a process would not start alike.

use std::process::Command;
use std::sync::Mutex;

/// Runs one benchmark process at a time: each pins itself to the same
/// CPU, and one quarter of a CPU leaves too few windows for a p99.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// The metrics object of one run's result line, as `(name, value)`.
fn run(workload: &str, seed: u64, trace: u8) -> Vec<(String, String)> {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let out = Command::new(env!("CARGO_BIN_EXE_dcbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "2", "--trace", &trace.to_string()])
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{workload} failed:\n{stdout}");
    let last = stdout.lines().last().expect("a result line");
    assert!(last.starts_with("{\"correct\": true"), "{last}");
    let metrics = &last[last.find("\"metrics\": {").expect("metrics") + 12..];
    metrics
        .split("}, ")
        .map(|m| {
            let name = m.split('"').nth(1).expect("a metric name").to_string();
            let value = m
                .split("\"value\": ")
                .nth(1)
                .and_then(|v| v.split(',').next())
                .expect("a value")
                .to_string();
            (name, value)
        })
        .collect()
}

fn value<'a>(metrics: &'a [(String, String)], name: &str) -> &'a str {
    &metrics
        .iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("no metric {name}"))
        .1
}

/// Per-layer metrics that are counts or ratios of counts, taken at the
/// fixed op index: everything but span times, time shares and the
/// harness's own figures.
fn counts(metrics: &[(String, String)]) -> Vec<(String, String)> {
    metrics
        .iter()
        .filter(|(n, _)| {
            !n.ends_with("_ns")
                && !n.ends_with("_share")
                && !n.starts_with("obs.")
                && !n.starts_with("harness.")
        })
        .cloned()
        .collect()
}

fn repeats(workload: &str) {
    let a = run(workload, 11, 0);
    assert_eq!(
        value(&a, "mem_bytes"),
        value(&run(workload, 11, 0), "mem_bytes")
    );
    let t = counts(&run(workload, 11, 1));
    assert!(t.len() > 20, "{t:?}");
    assert_eq!(t, counts(&run(workload, 11, 1)));
    assert_ne!(
        t,
        counts(&run(workload, 12, 1)),
        "another seed, other inputs"
    );
}

#[test]
fn warm_lookup_repeats() {
    repeats("warm_lookup");
}

#[test]
fn rename_churn_repeats() {
    repeats("rename_churn");
}

#[test]
fn maildir_repeats() {
    repeats("maildir");
}

#[test]
fn serve_frames_repeats() {
    repeats("serve_frames");
}
