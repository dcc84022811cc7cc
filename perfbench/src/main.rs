//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload in this process and prints its metrics, one per
//! line with its unit, then the result as one JSON object on the last
//! line of standard output. Exits 1 when an output check failed and 2
//! on a usage error.

use rrb_perfbench::report::{layer_metrics, result_line, Metric, END_TO_END};
use rrb_perfbench::trace::Tracer;
use rrb_perfbench::workloads::{Config, Workload, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Where traced runs write their spans, relative to the working directory.
const TRACE_DIR: &str = ".bench_traces";

/// Parent of the per-run scratch directories.
const WORK_DIR: &str = ".bench_work";

struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn names() -> String {
    WORKLOADS.map(|(name, _)| name).join("|")
}

fn parse_args() -> Result<Args, String> {
    let mut name = String::new();
    let (mut seed, mut seconds, mut trace) = (1, 10.0_f64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => name = value,
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let Some(&(_, workload)) = WORKLOADS.iter().find(|(n, _)| *n == name) else {
        return Err(format!("--workload must be one of {}", names()));
    };
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(String::from("--seconds must be positive"));
    }
    Ok(Args { workload, name, seed, seconds, trace })
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

fn write_spans(path: &Path, tracer: &Tracer) {
    let written =
        std::fs::create_dir_all(TRACE_DIR).and_then(|()| std::fs::write(path, tracer.to_jsonl()));
    match written {
        Ok(()) => println!("spans: {} written to {}", tracer.spans().len(), path.display()),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                names()
            );
            return ExitCode::from(2);
        }
    };
    let work_dir = PathBuf::from(WORK_DIR).join(format!("{}-{}", args.name, std::process::id()));
    let cfg = Config {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        work_dir: work_dir.clone(),
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={}",
        args.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    let mut tracer = Tracer::new(false);
    let mut report = (args.workload)(&cfg, &mut tracer);
    let _ = std::fs::remove_dir_all(&work_dir);
    let _ = std::fs::remove_dir(WORK_DIR);
    report.end_to_end.insert("peak_rss_mb", peak_rss_mb());

    print_metrics("workload metrics:", &report.named);
    let metrics: Vec<Metric> = if args.trace {
        let path = PathBuf::from(TRACE_DIR).join(format!("{}-seed{}.jsonl", args.name, args.seed));
        write_spans(&path, &tracer);
        layer_metrics(tracer.spans(), &report.layers)
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit)| Metric {
                name: name.to_string(),
                value: report.end_to_end.get(name).copied().unwrap_or(0.0),
                unit,
            })
            .collect()
    };
    print_metrics(if args.trace { "per-layer metrics:" } else { "end-to-end metrics:" }, &metrics);
    println!(
        "operations: {} attempted, {} failed (failed_share {})",
        report.tally.attempted,
        report.tally.failed,
        report.tally.failed_share()
    );
    for problem in &report.problems {
        eprintln!("perfbench: check failed: {problem}");
    }
    println!("{}", result_line(&report.tally, &metrics));
    if report.tally.all_ok() && report.tally.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
