//! The benchmark's command line. Prints every metric by name, with its
//! unit and sample count, then one JSON result object as the last line
//! of standard output; writes the same result, under a provenance
//! header, to `dcbench/out/`. Exits 1 when any answer was wrong or a
//! reconciliation check failed, 2 on a usage error.

use dcbench::cpu;
use dcbench::report::{self, Metric};
use dcbench::run::{self, Outcome};
use dcbench::workloads::maildir::Maildir;
use dcbench::workloads::rename_churn::RenameChurn;
use dcbench::workloads::serve_frames::ServeFrames;
use dcbench::workloads::warm_lookup::WarmLookup;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: dcbench --workload <warm_lookup|rename_churn|maildir|serve_frames> \
--seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad(&"must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn run_workload(a: &Args) -> Option<Outcome> {
    let run = |f: fn(u64, f64) -> Outcome| Some(f(a.seed, a.seconds));
    match (a.workload.as_str(), a.trace) {
        ("warm_lookup", false) => run(run::untraced::<WarmLookup>),
        ("warm_lookup", true) => run(run::traced::<WarmLookup>),
        ("rename_churn", false) => run(run::untraced::<RenameChurn>),
        ("rename_churn", true) => run(run::traced::<RenameChurn>),
        ("maildir", false) => run(run::untraced::<Maildir>),
        ("maildir", true) => run(run::traced::<Maildir>),
        ("serve_frames", false) => run(run::untraced::<ServeFrames>),
        ("serve_frames", true) => run(run::traced::<ServeFrames>),
        _ => None,
    }
}

fn print_metric(m: &Metric) {
    println!(
        "{:<32} {:>18} {:<8} samples={}",
        m.name,
        report::num(m.value),
        m.unit,
        m.samples
    );
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn write_result(
    a: &Args,
    prov: &[(&str, String)],
    o: &Outcome,
    correct: bool,
) -> std::io::Result<PathBuf> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let stem = format!("{}-seed{}-trace{}", a.workload, a.seed, a.trace as u8);
    let header: Vec<String> = prov
        .iter()
        .map(|(k, v)| format!("{}: {}", report::string(k), report::string(v)))
        .collect();
    let mut all = o.metrics.clone();
    all.extend(o.extra.iter().cloned());
    let problems: Vec<String> = o.problems.iter().map(|p| report::string(p)).collect();
    let body = format!(
        "{{\"provenance\": {{{}}}, \"seconds\": {}, \"trace\": {}, \"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"problems\": [{}], \"metrics\": {}}}\n",
        header.join(", "),
        report::num(a.seconds),
        a.trace,
        o.attempted,
        o.failed,
        problems.join(", "),
        report::metrics_object(&all, true)
    );
    let path = dir.join(format!("{stem}.json"));
    std::fs::write(&path, body)?;
    if let Some(t) = &o.tracer {
        t.write_csv(&dir.join(format!("{stem}.spans.csv")))?;
    }
    Ok(path)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Read before pinning, which narrows what nproc reports.
    let mut prov = report::provenance(&args.workload, args.seed);
    // Every workload runs on one CPU, its threads included (`cpu.rs`).
    match cpu::pin_to_one_cpu() {
        Ok(c) => prov.push(("pinned_cpu", c.to_string())),
        Err(e) => {
            eprintln!("could not pin the benchmark to one CPU: {e}");
            return ExitCode::FAILURE;
        }
    }
    let Some(o) = run_workload(&args) else {
        eprintln!("unknown workload {}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    prov.push(("window_spread", report::num(o.window_spread)));
    for (k, v) in &prov {
        println!("# {k}: {v}");
    }
    for m in o.metrics.iter().chain(&o.extra) {
        print_metric(m);
    }
    for p in &o.problems {
        println!("PROBLEM: {p}");
    }
    let correct = o.failed == 0 && o.problems.is_empty();
    match write_result(&args, &prov, &o, correct) {
        Ok(path) => println!("# result file: {}", path.display()),
        Err(e) => eprintln!("could not write the result file: {e}"),
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        o.attempted,
        o.failed,
        report::metrics_object(&o.metrics, false)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
