//! Metric catalog, provenance header and output.

use std::fmt::Write as _;

/// End-to-end metrics, printed by untraced runs: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("ops_per_s", "1/s"),
    ("read_p50_ns", "ns"),
    ("mem_bytes", "bytes"),
    ("setup_s", "s"),
];

/// Per-layer metrics, printed by traced runs: `(name, unit)`. A metric
/// whose layer a workload does not exercise reads 0 with no samples.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("vfs.stat_ns", "ns"),
    ("vfs.open_ns", "ns"),
    ("vfs.readdir_ns", "ns"),
    ("vfs.create_ns", "ns"),
    ("vfs.rename_ns", "ns"),
    ("vfs.unlink_ns", "ns"),
    ("vfs.chmod_ns", "ns"),
    ("vfs.envelope_ns", "ns"),
    ("vfs.fs_share", "ratio"),
    ("sighash.hash_ns", "ns"),
    ("core.dlht_probe_ns", "ns"),
    ("core.pcc_check_ns", "ns"),
    ("core.fast_hit_ratio", "ratio"),
    ("core.dlht_miss_per_lookup", "1/lookup"),
    ("core.pcc_miss_per_lookup", "1/lookup"),
    ("core.seq_miss_per_lookup", "1/lookup"),
    ("core.epoch_pins_per_lookup", "1/lookup"),
    ("core.retries_per_lookup", "1/lookup"),
    ("core.slow_steps_per_lookup", "1/lookup"),
    ("core.shootdown_visits_per_write", "1/write"),
    ("core.neg_hit_ratio", "ratio"),
    ("core.readdir_cached_ratio", "ratio"),
    ("core.complete_neg_avoided", "count"),
    ("core.evictions_per_op", "1/op"),
    ("core.dentry_bytes", "bytes"),
    ("core.dlht_bytes", "bytes"),
    ("core.pcc_bytes", "bytes"),
    ("fs.lookup_calls_per_op", "1/op"),
    ("fs.mutation_calls_per_op", "1/op"),
    ("fs.lookup_ns", "ns"),
    ("fs.mutation_ns", "ns"),
    ("fs.journal_commits_per_write", "1/write"),
    ("fs.journal_blocks_per_commit", "1/commit"),
    ("fs.journal_checkpoints", "count"),
    ("blockdev.page_hit_ratio", "ratio"),
    ("blockdev.device_reads_per_op", "1/op"),
    ("blockdev.device_writes_per_op", "1/op"),
    ("blockdev.writebacks", "count"),
    ("blockdev.sim_io_share", "ratio"),
    ("server.queue_wait_ns", "ns"),
    ("server.decode_ns", "ns"),
    ("server.exec_ns", "ns"),
    ("server.encode_ns", "ns"),
    ("server.inproc_ns", "ns"),
    ("server.overhead_ns", "ns"),
    ("server.rejected_frac", "ratio"),
    ("obs.trace_overhead_frac", "ratio"),
    ("harness.window_spread", "ratio"),
    ("harness.read_p99_all_ns", "ns"),
];

/// One reported figure.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples (or ops) the figure was computed from.
    pub samples: u64,
}

/// Metrics of one run, in catalog order.
pub struct Metrics {
    catalog: &'static [(&'static str, &'static str)],
    values: Vec<Option<(f64, u64)>>,
}

impl Metrics {
    /// An empty set over `catalog`.
    pub fn new(catalog: &'static [(&'static str, &'static str)]) -> Metrics {
        Metrics {
            catalog,
            values: vec![None; catalog.len()],
        }
    }

    /// Sets catalog metric `name`.
    pub fn set(&mut self, name: &str, value: f64, samples: u64) {
        let i = self
            .catalog
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalog"));
        self.values[i] = Some((value, samples));
    }

    /// Every catalog metric; unset ones read 0 with no samples.
    pub fn all(&self) -> Vec<Metric> {
        self.catalog
            .iter()
            .zip(&self.values)
            .map(|((name, unit), v)| {
                let (value, samples) = v.unwrap_or((0.0, 0));
                Metric {
                    name: name.to_string(),
                    value,
                    unit,
                    samples,
                }
            })
            .collect()
    }
}

/// Formats a float as a JSON number with all its digits.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The `{"name": {"value": v, "unit": u}, …}` object.
pub fn metrics_object(metrics: &[Metric], with_samples: bool) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let samples = if with_samples {
                format!(", \"samples\": {}", m.samples)
            } else {
                String::new()
            };
            format!(
                "{}: {{\"value\": {}, \"unit\": {}{samples}}}",
                string(&m.name),
                num(m.value),
                string(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Where a run was measured: the provenance header of every result.
/// Read before the run pins itself, which narrows what nproc reports.
pub fn provenance(workload: &str, seed: u64) -> Vec<(&'static str, String)> {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into())
    };
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let cache = |level: &str| {
        (0..8)
            .map(|i| format!("/sys/devices/system/cpu/cpu0/cache/index{i}"))
            .find(|d| {
                read(&format!("{d}/level")) == level && read(&format!("{d}/type")) == "Unified"
            })
            .map(|d| read(&format!("{d}/size")))
            .unwrap_or_else(|| "unknown".into())
    };
    vec![
        ("nproc", nproc),
        ("cpu_model", cpu),
        ("l2_per_core", cache("2")),
        ("l3_shared", cache("3")),
        (
            "clocksource",
            read("/sys/devices/system/clocksource/clocksource0/current_clocksource"),
        ),
        ("rustc", env!("DCBENCH_RUSTC").to_string()),
        ("git_revision", git_revision()),
        ("build_profile", env!("DCBENCH_PROFILE").to_string()),
        ("workload", workload.to_string()),
        ("seed", seed.to_string()),
    ]
}

/// The repository's checked-out commit, read from `.git` beside the
/// benchmark directory ("unknown" in an export without one).
fn git_revision() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: &str| std::fs::read_to_string(git.join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(reference) {
        return rev.trim().to_string();
    }
    read("packed-refs")
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split(' ').next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}
